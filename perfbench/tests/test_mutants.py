"""The reject workload's mutants: which exist, that each is rejected, and
that the seed changes the mutants but not the work they cost."""

import re

import pytest

from fpp import FactoradicLabeling, nlogn_circuit, phase_profile, sim_switch_circuit, solve_profile, sqrt_circuit

from mutants import reachable_slots, reject_suite
from workloads import CONSTRUCTORS


def _suite(n, seed):
    originals = {
        "nlogn": nlogn_circuit(n),
        "sim-switch": sim_switch_circuit(n),
        "sqrt": sqrt_circuit(n),
    }
    build = lambda family, n, labeling: CONSTRUCTORS[family](n, labeling)
    return originals, reject_suite(originals, build, seed)


def test_unreachable_nlogn_slots_at_n7():
    circuit = nlogn_circuit(7)
    unreachable = set(circuit.control.slots) - reachable_slots(circuit)
    assert unreachable == {(1, 2), (1, 3), (2, 3), (3, 3)}


def test_suite_at_n7_is_seeded_and_complete():
    originals, a = _suite(7, 1)
    _, again = _suite(7, 1)
    assert [m.name for m in a] == [m.name for m in again]
    families = [m.family for m in a]
    # 14 reachable nlogn slots, steps 1..6 of sim-switch, 4 ranges x 2 gates
    # x 2 sides of sqrt, and 2 relabeled circuits.
    assert len(a) == 38
    assert families.count("nlogn") == 14
    assert families.count("sim-switch") == 6 + 1
    assert families.count("sqrt") == 16 + 1
    assert all(m.circuit.gates != originals[m.family].gates for m in a if m.has_witness)
    assert any(sorted(m.name for m in _suite(7, s)[1]) != sorted(m.name for m in a)
               for s in range(2, 6))


def _witnesses(mutants, n):
    labeling = FactoradicLabeling(n)
    out = {}
    for m in mutants:
        profile = phase_profile(m.circuit, labeling, processes=1)
        reports = [solve_profile(profile, y) for y in range(profile.modulus)]
        assert not (profile.counts_match and all(r.passed for r in reports)), m.name
        found = re.search(r"\bx=(\d+)", profile.failure or "")
        assert bool(found) == m.has_witness, m.name
        out[m.name] = int(found.group(1)) if found else None
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_mutant_is_rejected_at_n5(seed):
    _witnesses(_suite(5, seed)[1], 5)


def test_seed_picks_variants_of_equal_cost():
    """nlogn and sqrt variants of one site stop at the same witness x."""
    per_seed = []
    for seed in (1, 2, 3, 4):
        mutants = [m for m in _suite(5, seed)[1] if m.family in ("nlogn", "sqrt") and m.has_witness]
        per_seed.append(sorted(_witnesses(mutants, 5).values()))
    assert all(w == per_seed[0] for w in per_seed)
