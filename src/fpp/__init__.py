"""Exact symbolic verification of causal circuits for Fourier promise problems."""

from .algorithms import (
    BlockDecomposition,
    PhaseProfile,
    ReferenceSwitch,
    VerificationReport,
    block_phase_sum,
    decompose_blocks,
    expected_queries,
    nlogn_circuit,
    nlogn_query_bound,
    nlogn_query_count,
    phase_profile,
    readout,
    reference_switch,
    sim_switch_circuit,
    six_query_n3,
    solve_profile,
    sqrt_bound_holds,
    sqrt_circuit,
    sqrt_query_count,
    superperm_sim_switch,
    verify_and_solve,
)
from .circuit import (
    Circuit,
    WireOutcome,
    eliminate_controlled_unknowns,
    execute,
    execute_with_bits,
    export_circuit,
    query_count,
)
from .commutation import (
    CommutationTable,
    brute_force_phase,
    brute_force_phases,
    factoradic_table,
    normal_order,
    perm_phase_exponent,
    random_table,
)
from .numsys import (
    FactoradicDigits,
    digit_to_bits,
    from_factoradic,
    to_factoradic,
)
from .perms import (
    ConsistencyResult,
    ExplicitLabeling,
    FactoradicLabeling,
    Labeling,
    PermWord,
    enumerate_valid_labelings,
    labeling_from_text,
    labeling_to_text,
    relabeled,
    validate_labeling,
)

__version__ = "0.1.0"
