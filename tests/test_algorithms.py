"""Tests for algorithm constructors, the block decomposition and the verifier."""

import random
from math import factorial, sqrt

import pytest

from fpp.algorithms import (
    VerificationReport,
    block_phase_sum,
    ceil_sqrt,
    decompose_blocks,
    expected_queries,
    nlogn_circuit,
    nlogn_query_bound,
    nlogn_query_count,
    phase_profile,
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
from fpp.circuit import (
    BitControl,
    eliminate_controlled_unknowns,
    execute,
    execute_with_bits,
    query_count,
)
from fpp.commutation import (
    factoradic_table,
    normal_order,
    perm_phase_exponent,
    random_table,
)
from fpp.errors import DomainError, UnsupportedError
from fpp.numsys import bit_weight, ceil_log2
from fpp.perms import (
    FactoradicLabeling,
    PermWord,
    enumerate_valid_labelings,
    relabeled,
    validate_labeling,
)


# ---------------------------------------------------------------------------
# reference switch


def test_reference_switch_words():
    ref = reference_switch(2)
    assert ref.word(0).order == (1, 0)
    assert ref.query_count == 2
    ref3 = reference_switch(3)
    assert ref3.word(4).order == (1, 0, 2)


def test_reference_switch_matches_labeling():
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        ref = reference_switch(n, lab)
        for x in range(factorial(n)):
            assert ref.word(x).order == lab.word(x).order


def test_reference_switch_solves():
    lab = FactoradicLabeling(3)
    for y in range(6):
        report = verify_and_solve(reference_switch(3, lab), lab, y)
        assert report.passed and report.solved_y == y


def _word_deltas(switch, labeling):
    """Per-word exponents of the switch's words relative to word(0), under
    the table of ``labeling``."""
    table = labeling.validate().table
    m = labeling.size
    p = [perm_phase_exponent(switch.word(x).order, table) for x in range(m)]
    return tuple((e - p[0]) % m for e in p)


def test_reference_switch_profile_matches_word_phases():
    # the switch profile comes from validation, not from a sweep; it must
    # equal the pairwise-sum exponents of its words
    labelings = enumerate_valid_labelings(3) + [FactoradicLabeling(n) for n in range(2, 7)]
    for lab in labelings:
        switch = reference_switch(lab.n, lab)
        profile = phase_profile(switch, lab)
        assert tuple(profile.exponents.tolist()) == _word_deltas(switch, lab) == tuple(range(lab.size))
        assert profile.slope == 1 and profile.residuals_ok
    # a switch over another labeling than the one verified: not linear
    fac = FactoradicLabeling(4)
    switch = reference_switch(4, relabeled(fac, (1, 3, 0, 2)))
    profile = phase_profile(switch, fac)
    assert tuple(profile.exponents.tolist()) == _word_deltas(switch, fac)
    assert profile.slope is None
    assert phase_profile(reference_switch(4), fac).exponents.tolist() == list(range(24))


def test_switch_over_a_foreign_labeling_matches_per_x_labels():
    # n=8: the words are labeled in several chunks, factoradic by explicit
    # and explicit by factoradic
    fac = FactoradicLabeling(8)
    renamed = relabeled(fac, (3, 0, 7, 1, 6, 2, 5, 4))
    m = fac.size
    for target, verifier in ((renamed, fac), (fac, renamed)):
        labels = [verifier.label(target.word(x)) for x in range(m)]
        profile = phase_profile(reference_switch(8, target), verifier)
        assert profile.exponents.tolist() == [(v - labels[0]) % m for v in labels]


# ---------------------------------------------------------------------------
# switch simulations


def test_sim_switch_queries():
    for n in range(2, 8):
        assert query_count(sim_switch_circuit(n)) == n * n


def test_sim_switch_n2_trace():
    lab = FactoradicLabeling(2)
    c = sim_switch_circuit(2, lab)
    out = execute(c, 1)  # word (0, 1): U_1 acts first
    assert out.applied["psi_t"] == (1, 0)
    assert out.word("psi_t") == (0, 1)


def test_sim_switch_verifies():
    rng = random.Random(0)
    for n in range(2, 6):
        lab = FactoradicLabeling(n)
        profile = phase_profile(sim_switch_circuit(n, lab), lab)
        assert profile.slope == 1
        m = factorial(n)
        for y in {0, 1, m - 1, rng.randrange(m)}:
            report = solve_profile(profile, y)
            assert report.passed and report.solved_y == y


def test_superperm_queries():
    assert query_count(superperm_sim_switch(3)) == 7
    assert query_count(superperm_sim_switch(4)) == 12


def test_superperm_unsupported_n():
    with pytest.raises(UnsupportedError):
        superperm_sim_switch(5)


def test_superperm_n3_table_row():
    lab = FactoradicLabeling(3)
    c = superperm_sim_switch(3, lab)
    out = execute(c, 3)  # word (0, 2, 1)
    assert out.word("psi_t") == (0, 2, 1)
    assert out.applied["a_0"] == (0,)
    assert out.applied["a_1"] == (1, 1, 1)


def test_superperm_n3_all_rows():
    lab = FactoradicLabeling(3)
    c = superperm_sim_switch(3, lab)
    for x in range(6):
        out = execute(c, x)
        assert out.word("psi_t") == lab.word(x).order
        assert out.applied["a_0"] == (0,)
        assert out.applied["a_1"] == (1, 1, 1)


def test_superperm_n4_routes_every_permutation():
    lab = FactoradicLabeling(4)
    c = superperm_sim_switch(4, lab)
    for x in range(24):
        out = execute(c, x)
        assert out.word("psi_t") == lab.word(x).order
    profile = phase_profile(c, lab)
    assert profile.slope == 1


def test_six_query_verifies_all_labelings_all_y():
    for lab in enumerate_valid_labelings(3):
        profile = phase_profile(six_query_n3(lab), lab)
        assert profile.query_count == 6
        for y in range(6):
            report = solve_profile(profile, y)
            assert report.passed and report.solved_y == y


def test_six_query_requires_n3():
    with pytest.raises(DomainError):
        six_query_n3(FactoradicLabeling(4))


def test_rail_circuits_accept_renamed_labelings():
    # the routing tables are keyed by permutation word, so they cover
    # labelings whose identity word is not the descending one
    lab3 = relabeled(FactoradicLabeling(3), (1, 2, 0), name="renamed3")
    for circuit in (six_query_n3(lab3), superperm_sim_switch(3, lab3)):
        profile = phase_profile(circuit, lab3)
        assert profile.slope == 1
        for y in (2, 5):
            assert solve_profile(profile, y).solved_y == y
    lab4 = relabeled(FactoradicLabeling(4), (3, 0, 2, 1), name="renamed4")
    profile = phase_profile(superperm_sim_switch(4, lab4), lab4)
    assert profile.slope == 1
    assert solve_profile(profile, 17).solved_y == 17


def test_sim_switch_accepts_enumerated_labeling():
    lab = enumerate_valid_labelings(3)[11]
    profile = phase_profile(sim_switch_circuit(3, lab), lab)
    assert profile.slope == 1
    for y in range(6):
        assert solve_profile(profile, y).solved_y == y


# ---------------------------------------------------------------------------
# n log n circuit


def test_nlogn_query_counts():
    assert query_count(nlogn_circuit(4)) == 18
    assert query_count(nlogn_circuit(8)) == 56
    assert query_count(nlogn_circuit(8, reduced=True)) == 46
    assert query_count(nlogn_circuit(4, reduced=True)) == 14


def test_nlogn_formula():
    for n in range(2, 17):
        assert query_count(nlogn_circuit(n)) == nlogn_query_count(n)


def test_nlogn_formula_below_bound():
    assert all(
        nlogn_query_count(n) < nlogn_query_bound(n) for n in range(2, 10**6 + 1)
    )


def test_nlogn_reduced_unsupported():
    with pytest.raises(UnsupportedError):
        nlogn_circuit(5, reduced=True)


def test_nlogn_x16_phase():
    lab = FactoradicLabeling(4)
    profile = phase_profile(nlogn_circuit(4), lab)
    assert profile.exponents[16] == 16  # 12 + 2 + 2


def test_nlogn_residuals_paper_listing():
    lab = FactoradicLabeling(4)
    profile = phase_profile(nlogn_circuit(4), lab)
    assert profile.residuals == {
        "psi_2_1": (3, 1, 0),
        "psi_2_2": (2, 0),
        "psi_4_1": (1, 0),
        "psi_4_2": (2, 0),
        "psi_4_3": (3, 0),
        "psi_4_4": (0,),
    }


def test_nlogn_full_verification():
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        profile = phase_profile(nlogn_circuit(n), lab)
        assert profile.slope == 1
        assert profile.residuals_ok


def test_nlogn_n4_every_y():
    lab = FactoradicLabeling(4)
    profile = phase_profile(nlogn_circuit(4), lab)
    for y in range(24):
        report = solve_profile(profile, y)
        assert report.passed and report.solved_y == y


def test_nlogn_reduced_full_verification():
    lab = FactoradicLabeling(4)
    profile = phase_profile(nlogn_circuit(4, reduced=True), lab)
    assert profile.slope == 1


def test_nlogn_reduced_assignment_covers_all_x():
    for n in (4, 8):
        control = nlogn_circuit(n, reduced=True).control
        assert isinstance(control, BitControl)
        for x in range(factorial(n)):
            bits = control.assignment(x)
            value = sum(
                b * bit_weight(k, i) * factorial(k) for (k, i), b in bits.items()
            )
            assert value == x


def test_nlogn_single_bit_toggles():
    # setting exactly one control bit contributes exactly ceil(k/2^i) * k!
    for n in (3, 4, 6):
        lab = FactoradicLabeling(n)
        table = validate_labeling(lab).table
        circuit = nlogn_circuit(n)
        control = circuit.control
        m = factorial(n)
        zero = {slot: 0 for slot in control.slots}
        base = execute_with_bits(circuit, zero)

        def wire_phase_sum(outcome):
            total = 0
            for w, applied in outcome.applied.items():
                total += normal_order(tuple(reversed(applied)), table)
            return total % m

        base_phase = wire_phase_sum(base)
        for slot in control.slots:
            k, i = slot
            bits = dict(zero)
            bits[slot] = 1
            out = execute_with_bits(circuit, bits)
            delta = (wire_phase_sum(out) - base_phase) % m
            assert delta == (bit_weight(k, i) * factorial(k)) % m


# ---------------------------------------------------------------------------
# block decomposition


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (1, 2, 3, 4, 5, 9, 10, 16, 17)] == [
        1, 2, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_decompose_worked_example_n9():
    w = PermWord(9, (3, 5, 8, 0, 2, 7, 4, 6, 1))
    dec = decompose_blocks(w)
    assert (dec.nhat, dec.khat) == (3, 3)
    assert [p.order for p in dec.pi] == [
        (8, 7, 5, 3, 2, 0, 4, 6, 1),
        (8, 5, 3, 0, 2, 7, 6, 4, 1),
        (3, 5, 8, 7, 6, 4, 2, 1, 0),
    ]
    assert [p.order for p in dec.pi_r] == [
        (1, 4, 6, 0, 2, 3, 5, 7, 8),
        (0, 1, 2, 4, 6, 7, 3, 5, 8),
    ]


def test_decompose_descending_word():
    for n in (2, 4, 9):
        w = PermWord(n, tuple(range(n - 1, -1, -1)))
        dec = decompose_blocks(w)
        table = factoradic_table(n)
        assert block_phase_sum(dec, table) == 0
        for p in dec.pi:
            assert p.order == w.order


def test_decompose_blocks_are_permutations():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(2, 13)
        perm = list(range(n))
        rng.shuffle(perm)
        dec = decompose_blocks(PermWord(n, tuple(perm)))
        assert len(dec.pi) == dec.khat
        assert len(dec.pi_r) == dec.khat - 1


def test_block_phase_identity_random():
    rng = random.Random(11)
    for trial in range(1000):
        n = rng.randrange(4, 13)
        perm = list(range(n))
        rng.shuffle(perm)
        word = PermWord(n, tuple(perm))
        table = random_table(n, rng)
        assert block_phase_sum(decompose_blocks(word), table) == perm_phase_exponent(
            word.order, table
        )


# ---------------------------------------------------------------------------
# sqrt circuit


def test_sqrt_query_formula_structural():
    for n in range(2, 13):
        assert query_count(sqrt_circuit(n)) == sqrt_query_count(n)


def test_sqrt_query_n9():
    assert sqrt_query_count(9) == 99


def test_sqrt_bound_exhaustive():
    for n in range(2, 10**4 + 1):
        assert sqrt_bound_holds(n)
        # spot-check the exact test against floats away from ties
        if n % 997 == 0:
            assert sqrt_query_count(n) < (5 * sqrt(n) + 1) * n


def test_sqrt_aux_words():
    for n in (2, 4, 5):
        nhat = ceil_sqrt(n)
        khat = -(-n // nhat)
        c = sqrt_circuit(n)
        for x in (0, factorial(n) - 1):
            out = execute(c, x)
            for i in range(n):
                assert out.applied[f"a_{i}"] == (i,) * (nhat + 2 * khat - 3)


def test_sqrt_wires_carry_block_words():
    # n=5 has a short (length 2) final block, n=7 a length-1 one
    for n, stride in ((5, 7), (7, 401)):
        lab = FactoradicLabeling(n)
        c = sqrt_circuit(n, lab)
        for x in range(0, factorial(n), stride):
            dec = decompose_blocks(lab.word(x))
            out = execute(c, x)
            for k, word in enumerate(dec.pi):
                assert out.word(f"psi_{k}") == word.order
            for k, word in enumerate(dec.pi_r, start=1):
                assert out.word(f"phi_{k}") == word.order


def test_sqrt_full_verification_factoradic():
    for n in range(4, 7):
        lab = FactoradicLabeling(n)
        profile = phase_profile(sqrt_circuit(n, lab), lab)
        assert profile.slope == 1
        assert profile.residuals_ok


def test_sqrt_verifies_renamed_labeling():
    rng = random.Random(5)
    for n in (4, 5):
        tau = list(range(n))
        rng.shuffle(tau)
        lab = relabeled(FactoradicLabeling(n), tuple(tau), name="renamed")
        profile = phase_profile(sqrt_circuit(n, lab), lab)
        assert profile.slope == 1
        for y in (1, factorial(n) - 1):
            assert solve_profile(profile, y).solved_y == y


def test_sqrt_verifies_enumerated_labeling():
    lab = enumerate_valid_labelings(3)[7]
    profile = phase_profile(sqrt_circuit(3, lab), lab)
    for y in range(6):
        assert solve_profile(profile, y).solved_y == y


# ---------------------------------------------------------------------------
# verifier behaviour


def test_expected_queries_table():
    assert expected_queries("sim-switch", 5) == 25
    assert expected_queries("superperm", 4) == 12
    assert expected_queries("six-query", 3) == 6
    assert expected_queries("nlogn", 8) == 56
    assert expected_queries("nlogn-reduced", 8) == 46
    assert expected_queries("sqrt", 9) == 99
    assert expected_queries("switch", 7) == 7
    assert expected_queries("unknown", 3) is None


def test_verify_rejects_inconsistent_labeling():
    from fpp.perms import ExplicitLabeling

    words = [(2, 1, 0), (2, 0, 1), (1, 0, 2), (1, 2, 0), (0, 1, 2), (0, 2, 1)]
    bad = ExplicitLabeling(3, [PermWord(3, w) for w in words], "trivial")
    with pytest.raises(DomainError):
        verify_and_solve(six_query_n3(), bad, 1)


def test_circuits_reject_a_labeling_of_another_n():
    for build, n in ((sim_switch_circuit, 4), (sqrt_circuit, 5), (superperm_sim_switch, 3)):
        with pytest.raises(DomainError, match=f"labeling has n={n + 1}, expected {n}"):
            build(n, FactoradicLabeling(n + 1))
    with pytest.raises(DomainError, match="labeling has n=4, expected 3"):
        six_query_n3(FactoradicLabeling(4))


@pytest.mark.parametrize("n, m", [(5, 6), (6, 5)])
def test_profile_rejects_a_labeling_of_another_n(n, m):
    # the check comes before validation, for every kind of target
    for target in (nlogn_circuit(n), sqrt_circuit(n), reference_switch(n)):
        with pytest.raises(DomainError, match=f"has n={n}, labeling 'factoradic' has n={m}"):
            phase_profile(target, FactoradicLabeling(m))


def test_verify_rejects_bad_y():
    lab = FactoradicLabeling(3)
    with pytest.raises(DomainError):
        verify_and_solve(six_query_n3(lab), lab, 6)


def test_verifier_reports_wrong_labeling_as_failure():
    # a circuit built for one labeling does not pass under another
    labelings = enumerate_valid_labelings(3)
    fac = FactoradicLabeling(3)
    other = next(
        lab for lab in labelings
        if tuple(lab.word(x).order for x in range(6))
        != tuple(fac.word(x).order for x in range(6))
    )
    report = verify_and_solve(six_query_n3(fac), other, 1)
    assert not report.passed


def test_verifier_detects_broken_circuit():
    # dropping one mid-step apply makes the residual words x-dependent:
    # the gate is lost to the target for some x and to the auxiliary for others
    from fpp.circuit import Apply

    lab = FactoradicLabeling(3)
    c = sim_switch_circuit(3, lab)
    victim = next(
        i for i, g in enumerate(c.gates)
        if i > 5 and isinstance(g, Apply) and g.wire == "a_0"
    )
    gates = c.gates[:victim] + c.gates[victim + 1 :]
    broken = type(c)(c.n, c.family, c.wires, gates, c.control)
    report = verify_and_solve(broken, lab, 1)
    assert not report.passed
    assert not report.residuals_x_independent
    assert report.failure is not None


def test_verifier_detects_nonlinear_phase():
    # re-route both controlled instances of U_3 at bit (3,1) onto the wire
    # that only carries U_0: the gate multiset per wire stays x-independent,
    # but that bit now contributes exponent 1*3! instead of 2*3!
    from fpp.circuit import ControlledApply

    c = nlogn_circuit(4)
    gates = tuple(
        ControlledApply(g.gate, "psi_4_4", g.bit, g.polarity)
        if isinstance(g, ControlledApply) and g.bit == (3, 1)
        else g
        for g in c.gates
    )
    warped = type(c)(c.n, c.family, c.wires, gates, c.control)
    lab = FactoradicLabeling(4)
    profile = phase_profile(warped, lab)
    assert profile.residuals_ok
    assert profile.slope is None
    report = solve_profile(profile, 1)
    assert not report.phase_linear
    assert report.solved_y is None
    assert not report.passed


def test_readout_rule_matches_definition_n4():
    # nlogn realizes the factoradic phases; against every renamed labeling
    # the residuals still hold but the phase is linear only for some y.
    # y reads out iff a single sigma has p(x)*y == x*sigma mod n! for all x.
    import itertools

    m = 24
    partial = 0
    for tau in itertools.permutations(range(4)):
        profile = phase_profile(nlogn_circuit(4), relabeled(FactoradicLabeling(4), tau))
        assert profile.residuals_ok
        for y in range(m):
            sigmas = [
                s for s in range(m)
                if all((p * y - x * s) % m == 0 for x, p in enumerate(profile.exponents))
            ]
            report = solve_profile(profile, y)
            assert report.phase_linear == bool(sigmas)
            assert report.solved_y == (sigmas[0] if sigmas else None)
            partial += profile.slope is None and y > 0 and bool(sigmas)
    assert partial > 0


def test_verifier_rejects_unsalvageable_circuit():
    # an unpaired swap strands tokens off their home wires; that is a
    # structural defect, not a verification outcome
    from fpp.errors import StructuralError

    lab = FactoradicLabeling(3)
    c = sim_switch_circuit(3, lab)
    broken = type(c)(c.n, c.family, c.wires, c.gates[:-1], c.control)
    with pytest.raises(StructuralError):
        verify_and_solve(broken, lab, 1)


def test_report_json_roundtrip():
    lab = FactoradicLabeling(3)
    report = verify_and_solve(six_query_n3(lab), lab, 4)
    parsed = VerificationReport.from_json(report.to_json())
    assert parsed == report


def test_verify_and_solve_six_query_y3():
    lab = FactoradicLabeling(3)
    report = verify_and_solve(six_query_n3(lab), lab, 3)
    assert report.solved_y == 3
    assert report.passed
    assert report.query_count == 6


def test_eliminated_nlogn_verifies_identically():
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        original = phase_profile(nlogn_circuit(n), lab)
        transformed = phase_profile(
            eliminate_controlled_unknowns(nlogn_circuit(n)), lab
        )
        assert original.exponents.tolist() == transformed.exponents.tolist()
        assert transformed.slope == 1


def test_eliminated_nlogn_aux_powers():
    for n in (3, 5):
        ihat = ceil_log2(n)
        c = eliminate_controlled_unknowns(nlogn_circuit(n))
        for x in range(factorial(n)):
            out = execute(c, x)
            for k in range(1, n):
                assert out.applied[f"a_{k}"] == (k,) * ihat
