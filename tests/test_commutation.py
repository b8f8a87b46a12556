"""Tests for the phase algebra: tables, normal ordering, and the oracle."""

import random
from math import factorial

import pytest

import numpy as np

from fpp.commutation import (
    CommutationTable,
    brute_force_phase,
    brute_force_phases,
    factoradic_table,
    normal_order,
    perm_phase_exponent,
    random_table,
)
from fpp.errors import DomainError, InvariantError


def upper(table):
    return {
        (j, k): table.entry(j, k)
        for j in range(table.n)
        for k in range(j + 1, table.n)
    }


def test_factoradic_table_n3():
    t = factoradic_table(3)
    assert upper(t) == {(0, 1): 1, (0, 2): 2, (1, 2): 2}


def test_factoradic_table_n4():
    t = factoradic_table(4)
    assert upper(t) == {
        (0, 1): 1,
        (0, 2): 2,
        (1, 2): 2,
        (0, 3): 6,
        (1, 3): 6,
        (2, 3): 6,
    }


def test_antisymmetry_construction():
    for n in range(2, 9):
        t = factoradic_table(n)
        for j in range(n):
            for k in range(n):
                if j != k:
                    assert (t.entry(j, k) + t.entry(k, j)) % t.modulus == 0


def test_table_rejects_broken_antisymmetry():
    entries = {
        (0, 1): 1, (1, 0): 1,
        (0, 2): 2, (2, 0): 4,
        (1, 2): 2, (2, 1): 4,
    }
    with pytest.raises(InvariantError):
        CommutationTable(3, entries)


def test_table_rejects_missing_pairs():
    with pytest.raises(InvariantError):
        CommutationTable(3, {(0, 1): 1, (1, 0): 5})


def test_normal_order_already_sorted():
    t = factoradic_table(4)
    assert normal_order((3, 2, 1, 0), t) == 0


def test_normal_order_appendix_word():
    # written word U_1 U_2 U_0 U_3 sorted descending picks up
    # e_{03} + e_{23} + e_{13} + e_{12}
    t = factoradic_table(4)
    expected = (6 + 6 + 6 + 2) % 24
    assert normal_order((1, 2, 0, 3), t) == expected == 20
    assert brute_force_phase((1, 2, 0, 3), t) == expected


def test_normal_order_ascending():
    t = factoradic_table(3)
    # descending to ascending commutes every pair once: -(1+2+2) mod 6
    assert normal_order((2, 1, 0), t, "ascending") == (-5) % 6
    with pytest.raises(DomainError):
        normal_order((2, 1, 0), t, "sideways")


def test_perm_phase_examples():
    t = factoradic_table(3)
    assert perm_phase_exponent((2, 1, 0), t) == 0
    assert perm_phase_exponent((0, 1, 2), t) == 5


def test_appendix_word_pairwise_form():
    # against an arbitrary table the phase is the sum over the four
    # inverted pairs, not just the factoradic value
    rng = random.Random(13)
    t = random_table(4, rng)
    expected = (
        t.entry(0, 3) + t.entry(2, 3) + t.entry(1, 3) + t.entry(1, 2)
    ) % t.modulus
    assert normal_order((1, 2, 0, 3), t) == expected


def test_perm_phase_factoradic_consistency():
    # engine route: the exponent of every factoradic word equals its label
    from fpp.perms import FactoradicLabeling

    for n in range(2, 7):
        t = factoradic_table(n)
        lab = FactoradicLabeling(n)
        for x in range(factorial(n)):
            assert perm_phase_exponent(lab.word(x).order, t) == x


def test_routes_reject_symbols_outside_range():
    t = factoradic_table(3)
    for route in (perm_phase_exponent, normal_order, brute_force_phase):
        for word in ((0, 3), (-1, 2), (5,)):
            with pytest.raises(DomainError, match="outside 0..2"):
                route(word, t)


def test_three_routes_agree_on_all_permutations():
    import itertools

    rng = random.Random(1)
    for n in range(2, 6):
        t = random_table(n, rng)
        for perm in itertools.permutations(range(n)):
            a = normal_order(perm, t)
            b = brute_force_phase(perm, t)
            c = perm_phase_exponent(perm, t)
            assert a == b == c


def pair_count_phase(word, table):
    """The exponent from pair counts: each written occurrence of j before
    k (j < k) contributes e[j][k] once."""
    total = 0
    for j in range(table.n):
        for k in range(j + 1, table.n):
            seen_j = pairs = 0
            for g in word:
                seen_j += g == j
                pairs += seen_j if g == k else 0
            total += pairs * table.entry(j, k)
    return total % table.modulus


def test_routes_on_words_with_repeats():
    t = factoradic_table(3)
    # U_0 U_1 U_0: only the leading U_0 sits left of the U_1
    assert perm_phase_exponent((0, 1, 0), t) == 1
    assert normal_order((0, 1, 0, 1), t) == 3
    assert brute_force_phase((1, 1, 1), t) == 0
    assert normal_order((), t) == brute_force_phase((), t) == perm_phase_exponent((), t) == 0
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randrange(2, 8)
        t = random_table(n, rng)
        word = rng.choices(range(rng.randrange(1, n + 1)), k=rng.randrange(0, 12))
        expected = pair_count_phase(word, t)
        assert normal_order(word, t) == expected
        assert brute_force_phase(word, t) == expected
        assert perm_phase_exponent(word, t) == expected
        reverse = normal_order(word[::-1], t, "ascending")
        assert (expected + reverse) % t.modulus == 0


def test_bubble_sort_rows_match_routes():
    # the array bubble sort, row by row, against the two other routes and
    # its own one-row call, on blocks of random words with repeats
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        n = rng.randrange(2, 9)
        t = random_table(n, rng)
        width = rng.randrange(0, 13)
        block = [rng.choices(range(n), k=width) for _ in range(rng.randrange(1, 40))]
        phases = brute_force_phases(block, t)
        assert phases.dtype == np.int64 and phases.shape == (len(block),)
        for word, p in zip(block, phases.tolist()):
            assert p == perm_phase_exponent(word, t) == normal_order(word, t)
        assert brute_force_phase(block[-1], t) == phases[-1]
        checked += len(block)
    assert checked >= 1000
    t = factoradic_table(4)
    assert brute_force_phases([[]], t).tolist() == [0]
    assert brute_force_phases(np.empty((0, 4), dtype=np.int64), t).shape == (0,)
    with pytest.raises(DomainError, match=r"word \(0, 4, 1\) has a symbol outside 0..3"):
        brute_force_phases([[3, 2, 1], [0, 4, 1], [-1, 0, 0]], t)


def test_bubble_sort_exact_past_int64():
    # 21! does not fit in int64: the sums are Python ints, exact mod 21!
    rng = random.Random(3)
    t = factoradic_table(21)
    words = [rng.sample(range(21), 21) for _ in range(5)]
    phases = brute_force_phases(words, t)
    assert phases.dtype == object
    assert phases.tolist() == [perm_phase_exponent(w, t) for w in words]
    assert brute_force_phase(list(range(21)), t) == sum(
        factorial(k) * k for k in range(21)
    ) % factorial(21)


def test_path_independence_random_words():
    rng = random.Random(42)
    for _ in range(2000):
        n = rng.randrange(2, 11)
        t = random_table(n, rng)
        size = rng.randrange(2, n + 1)
        word = rng.sample(range(n), size)
        assert normal_order(word, t) == brute_force_phase(word, t)


def test_inversion_property():
    # descending phase of w cancels the ascending phase of reversed(w)
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randrange(2, 9)
        t = random_table(n, rng)
        size = rng.randrange(2, n + 1)
        word = rng.sample(range(n), size)
        down = normal_order(word, t)
        up = normal_order(tuple(reversed(word)), t, "ascending")
        assert (down + up) % t.modulus == 0


def test_concatenation_consistency():
    # ordering a prefix first, then the whole word, gives the same total,
    # repeated symbols included
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randrange(3, 9)
        t = random_table(n, rng)
        size = rng.randrange(3, 2 * n + 1)
        word = rng.choices(range(n), k=size)
        cut = rng.randrange(1, size)
        one_stage = normal_order(word, t)
        first = normal_order(word[:cut], t)
        second = normal_order(sorted(word[:cut], reverse=True) + word[cut:], t)
        assert one_stage == (first + second) % t.modulus


def test_factoradic_table_matches_derived():
    from fpp.perms import FactoradicLabeling, validate_labeling

    for n in range(2, 7):
        derived = validate_labeling(FactoradicLabeling(n)).table
        assert upper(derived) == upper(factoradic_table(n))


def test_modulus():
    for n in (2, 3, 5):
        assert factoradic_table(n).modulus == factorial(n)
