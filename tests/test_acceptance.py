"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer identities or probabilities at 1e-9), and
each carries the runtime budget it must meet.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import itertools
import random
import time
from math import factorial

from fpp.algorithms import (
    block_phase_sum,
    decompose_blocks,
    nlogn_circuit,
    phase_profile,
    sim_switch_circuit,
    six_query_n3,
    solve_profile,
    sqrt_bound_holds,
    sqrt_circuit,
    sqrt_query_count,
    superperm_sim_switch,
)
from fpp.circuit import (
    eliminate_controlled_unknowns,
    execute,
    execute_with_bits,
    query_count,
)
from fpp.commutation import (
    brute_force_phase,
    normal_order,
    perm_phase_exponent,
    random_table,
)
from fpp.densesim import build_promise_unitaries, run_dense
from fpp.numsys import bit_weight, ceil_log2, digit_to_bits
from fpp.perms import FactoradicLabeling, PermWord, enumerate_valid_labelings


def _report(name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_criterion_01_six_query_all_labelings():
    started = time.time()
    labelings = enumerate_valid_labelings(3)
    assert len(labelings) == 24
    for lab in labelings:
        profile = phase_profile(six_query_n3(lab), lab)
        assert profile.query_count == 6
        for y in range(6):
            assert solve_profile(profile, y).solved_y == y
    assert query_count(superperm_sim_switch(3)) == 7
    _report("01 six-query 24 labelings x 6 y", started, 1.0)


def test_criterion_02_switch_simulation():
    started = time.time()
    rng = random.Random(2024)
    for n in range(2, 7):
        m = factorial(n)
        lab = FactoradicLabeling(n)
        circuit = sim_switch_circuit(n, lab)
        assert query_count(circuit) == n * n
        for x in range(m):
            out = execute(circuit, x)
            for i in range(n):
                assert out.applied[f"a_{i}"] == (i,) * (n - 1)
        profile = phase_profile(circuit, lab)
        ys = {0, 1, m - 1} | {rng.randrange(m) for _ in range(10)}
        for y in ys:
            assert solve_profile(profile, y).solved_y == y
    _report("02 switch simulation n=2..6", started, 30.0)


def test_criterion_03_nlogn():
    started = time.time()
    assert query_count(nlogn_circuit(4)) == 18
    assert query_count(nlogn_circuit(8)) == 56
    assert query_count(nlogn_circuit(8, reduced=True)) == 46
    for n in range(2, 7):
        m = factorial(n)
        lab = FactoradicLabeling(n)
        circuit = nlogn_circuit(n)
        profile = phase_profile(circuit, lab)
        assert profile.slope == 1
        for y in (1, m - 1, m // 2):
            assert solve_profile(profile, y).solved_y == y

        # single-bit toggles: each contributes exactly ceil(k/2^i) * k!
        table = lab.validate().table
        zero = {slot: 0 for slot in circuit.control.slots}

        def total_phase(outcome):
            total = 0
            for applied in outcome.applied.values():
                total += normal_order(tuple(reversed(applied)), table)
            return total % m

        base = total_phase(execute_with_bits(circuit, zero))
        for k, i in circuit.control.slots:
            bits = dict(zero)
            bits[(k, i)] = 1
            delta = (total_phase(execute_with_bits(circuit, bits)) - base) % m
            assert delta == (bit_weight(k, i) * factorial(k)) % m
    _report("03 nlogn counts + n=2..6 verification + bit toggles", started, 120.0)


def test_criterion_04_sqrt():
    started = time.time()
    for n in range(2, 13):
        assert query_count(sqrt_circuit(n)) == sqrt_query_count(n)
    for n in range(2, 10**4 + 1):
        assert sqrt_bound_holds(n)
    rng = random.Random(4)
    for n in range(4, 8):
        m = factorial(n)
        lab = FactoradicLabeling(n)
        profile = phase_profile(sqrt_circuit(n, lab), lab)
        assert profile.slope == 1
        ys = {0, 1, m - 1} | set(rng.sample(range(m), 20))
        assert len(ys) >= 20
        for y in ys:
            assert solve_profile(profile, y).solved_y == y
    _report("04 sqrt counts n=2..12, bound n<=1e4, verification n=4..7", started, 300.0)


def test_criterion_05_block_phase_identity():
    started = time.time()
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randrange(4, 13)
        perm = list(range(n))
        rng.shuffle(perm)
        word = PermWord(n, tuple(perm))
        table = random_table(n, rng)
        assert block_phase_sum(decompose_blocks(word), table) == perm_phase_exponent(
            word.order, table
        )
    # the published n=9 decomposition, reproduced verbatim
    dec = decompose_blocks(PermWord(9, (3, 5, 8, 0, 2, 7, 4, 6, 1)))
    assert [p.order for p in dec.pi] == [
        (8, 7, 5, 3, 2, 0, 4, 6, 1),
        (8, 5, 3, 0, 2, 7, 6, 4, 1),
        (3, 5, 8, 7, 6, 4, 2, 1, 0),
    ]
    assert [p.order for p in dec.pi_r] == [
        (1, 4, 6, 0, 2, 3, 5, 7, 8),
        (0, 1, 2, 4, 6, 7, 3, 5, 8),
    ]
    _report("05 block phase identity, 1000 random + worked example", started, 10.0)


def test_criterion_06_greedy_bits_exhaustive():
    started = time.time()
    for n in range(2, 65):
        for k in range(1, n):
            for a in range(k + 1):
                bits = digit_to_bits(a, k, n)
                assert len(bits) == ceil_log2(n)
                assert sum(
                    b * bit_weight(k, i) for i, b in enumerate(bits, start=1)
                ) == a
    _report("06 greedy bit lemma exhaustive n<=64", started, 5.0)


def test_criterion_07_oracle_equivalence():
    started = time.time()
    rng = random.Random(7)
    for n in range(2, 8):
        table = random_table(n, rng)
        for perm in itertools.permutations(range(n)):
            assert normal_order(perm, table) == brute_force_phase(perm, table)
    for _ in range(10**4):
        n = rng.randrange(2, 11)
        table = random_table(n, rng)
        word = rng.sample(range(n), rng.randrange(2, n + 1))
        assert normal_order(word, table) == brute_force_phase(word, table)
    _report("07 normal-order engine == brute-force oracle", started, 30.0)


def test_criterion_08_controlled_unknown_elimination():
    started = time.time()
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        original = nlogn_circuit(n)
        transformed = eliminate_controlled_unknowns(original)
        assert query_count(transformed) == query_count(original)
        p_orig = phase_profile(original, lab)
        p_elim = phase_profile(transformed, lab)
        assert p_orig.exponents.tolist() == p_elim.exponents.tolist()
        assert p_elim.slope == 1
        ihat = ceil_log2(n)
        for x in range(factorial(n)):
            out = execute(transformed, x)
            for k in range(1, n):
                assert out.applied[f"a_{k}"] == (k,) * ihat
    _report("08 controlled-unknown elimination n=2..6", started, 120.0)


def test_criterion_09_dense_cross_validation():
    started = time.time()
    # n=2: one register, 1x1 at y=0 (commuting), sigma_x/sigma_z at y=1
    lab2 = FactoradicLabeling(2)
    table2 = lab2.validate().table
    circuit2 = sim_switch_circuit(2, lab2)
    profile2 = phase_profile(circuit2, lab2)
    for y in (0, 1):
        units = build_promise_unitaries(2, y, table2)
        result = run_dense(circuit2, units)
        assert result.measured_y == solve_profile(profile2, y).solved_y == y
        assert result.peak_probability >= 1 - 1e-9
    # n=3: per-gate registers of at most 36 dimensions, both families, all y
    lab3 = FactoradicLabeling(3)
    table3 = lab3.validate().table
    for circuit in (six_query_n3(lab3), sim_switch_circuit(3, lab3)):
        profile = phase_profile(circuit, lab3)
        for y in range(6):
            units = build_promise_unitaries(3, y, table3)
            result = run_dense(circuit, units)
            assert result.measured_y == solve_profile(profile, y).solved_y == y
            assert result.peak_probability >= 1 - 1e-9
    _report("09 dense cross-validation n=2 and n=3", started, 120.0)


def test_criterion_10_labeling_enumeration():
    started = time.time()
    labelings = enumerate_valid_labelings(3)
    assert len(labelings) == 24
    for lab in labelings:
        assert lab.word(0).order == (2, 1, 0)
        assert lab.validate().consistent
    _report("10 exactly 24 consistent n=3 labelings", started, 1.0)
