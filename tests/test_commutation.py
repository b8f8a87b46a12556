"""Tests for the phase algebra: tables, normal ordering, and the oracle."""

import random
from math import factorial

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp.commutation import (
    CommutationTable,
    PairSum,
    add_block_sums,
    block_tables,
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


def test_table_array_is_cached_read_only_and_reduced():
    # e[j][k] mod n!, 0 on the diagonal: int64 at n=3, Python ints at n=21,
    # where 21! passes int64; an unreduced entry is reduced
    for t in (CommutationTable(3, {(0, 1): 7, (1, 0): -7, (0, 2): 2, (2, 0): 4,
                                   (1, 2): -1, (2, 1): 1}), factoradic_table(21)):
        e, m = t.array, t.modulus
        assert t.array is e and not e.flags.writeable
        assert e.dtype == (np.int64 if t.n == 3 else object)
        assert e.tolist() == [[t.entries[j, k] % m if j != k else 0 for k in range(t.n)]
                              for j in range(t.n)]
        with pytest.raises(ValueError, match="read-only"):
            e[0, 1] = 0


def test_position_pair_sum_is_e_times_below():
    # the pair tables of of_positions are e[j][k] * [b < a] for every j < k
    # with e[j][k] != 0 mod n!, in ascending k, from unmultiplied counts
    rng = random.Random(8)
    for n in range(2, 13):
        for _ in range(3):
            t = random_table(n, rng)
            if rng.random() < 0.5:  # some pairs zero
                t = CommutationTable.from_upper(n, {
                    (j, k): t.entries[j, k] * (rng.random() < 0.5)
                    for j in range(n) for k in range(j + 1, n)
                })
            pair_sum = PairSum.of_positions(t)
            below = np.tri(n, k=-1, dtype=np.int64)  # [a, b]: b < a
            assert (pair_sum.counts == below[None, :, None, :]).all()
            expected = [(j, k, t.entries[j, k] % t.modulus * below.reshape(-1))
                        for k in range(n) for j in range(k) if t.entries[j, k] % t.modulus]
            assert len(pair_sum.pairs) == len(expected), n
            for (g, p, w), (j, k, want) in zip(pair_sum.pairs, expected):
                assert (g, p) == (j, k) and w.dtype == np.int64 and (w == want).all()
            assert pair_sum.fits_int64


# ---------------------------------------------------------------------------
# the blocked pair sum, against the per-pair sum and the bubble-sort oracle


def per_pair_sum(keys, pairs):
    """The pair sum one gather per pair: W[keys[g] * n + keys[p]] over the
    pairs (g, p, W), in int64."""
    n = len(keys)
    total = np.zeros(keys.shape[1], dtype=np.int64)
    for g, p, table in pairs:
        total += table[keys[g] * n + keys[p]]
    return total


def blocked_sum(keys, pairs):
    """The pair sum through :func:`block_tables` and :func:`add_block_sums`,
    on a copy of the keys, which the kernel scales."""
    phase = np.zeros(keys.shape[1], dtype=np.int64)
    add_block_sums(phase, keys.astype(np.intp), block_tables(pairs, len(keys)))
    return phase


PAIR_SETS = ("empty", "single", "within", "cross", "last", "random", "all")


def pair_set(n, kind, rng):
    """Gate pairs g < p of one kind: none, one, only pairs inside a block of
    two, only pairs across blocks, only pairs with the last gate, a random
    subset, or all of them."""
    pairs = [(g, p) for p in range(n) for g in range(p)]
    if kind == "empty":
        return []
    if kind == "single":
        return [rng.choice(pairs)]
    if kind == "within":
        pairs = [(g, p) for g, p in pairs if g // 2 == p // 2]
    elif kind == "cross":
        pairs = [(g, p) for g, p in pairs if g // 2 != p // 2]
    elif kind == "last":
        pairs = [(g, p) for g, p in pairs if p == n - 1]
    if kind != "all":
        pairs = [gp for gp in pairs if rng.random() < 0.6] or pairs[:1]
    return pairs


def keys_with_extremes(n, cols, rng):
    """Keys in [0, n), shape n x cols, with a column all 0, one all n - 1 and
    one alternating the two."""
    keys = rng.integers(0, n, (n, cols))
    keys[:, 0], keys[:, 1], keys[:, 2] = 0, n - 1, np.arange(n) % 2 * (n - 1)
    return keys


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 12), st.sampled_from(PAIR_SETS), st.integers(0, 2**32 - 1),
       st.booleans())
def test_blocked_sum_is_the_per_pair_sum(n, kind, seed, top):
    # exactly, as raw int64: the fold regroups the per-pair entries and
    # reduces nothing, with entries up to n! - 1 (all of them, when top)
    rng = np.random.default_rng(seed)
    m = factorial(n)
    pairs = [
        (g, p, np.full(n * n, m - 1, dtype=np.int64) if top else rng.integers(0, m, n * n))
        for g, p in pair_set(n, kind, random.Random(seed))
    ]
    keys = keys_with_extremes(n, 40, rng)
    assert (blocked_sum(keys, pairs) == per_pair_sum(keys, pairs)).all()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 12), st.sampled_from(PAIR_SETS), st.integers(0, 2**32 - 1))
def test_blocked_sum_matches_the_bubble_sort(n, kind, seed):
    # on the acting positions of random words, under a drawn table that is
    # zero off the pair set, mod n!: the word with every gate written in
    # ascending and in descending order included
    rng = random.Random(seed)
    m = factorial(n)
    chosen = set(pair_set(n, kind, rng))
    table = CommutationTable.from_upper(n, {
        (j, k): rng.randrange(1, m) if (j, k) in chosen else 0
        for j in range(n) for k in range(j + 1, n)
    })
    words = [list(range(n)), list(range(n - 1, -1, -1))]
    words += [rng.sample(range(n), n) for _ in range(30)]
    written = np.array(words)
    positions = (n - 1 - np.argsort(written, axis=1)).T  # [g, word]: where U_g acts
    pairs = PairSum.of_positions(table).pairs
    assert [(g, p) for g, p, _ in pairs] == sorted(chosen, key=lambda gp: (gp[1], gp[0]))
    assert (blocked_sum(positions, pairs) % m == brute_force_phases(written, table)).all()


def test_block_tables_shape():
    # two-gate blocks, the last gate alone at odd n: one table per pair of
    # blocks with a cross pair, n^4 entries each, in descending b; a
    # block whose only pair is its own comes alone, with n^2 entries
    for n in range(2, 13):
        half = (n + 1) // 2
        blocks = PairSum.of_positions(factoradic_table(n)).blocks
        expected = [(b, c) for b in range(half - 1, -1, -1) for c in range(b + 1, half)]
        assert [(b, c) for b, c, _ in blocks] == (expected or [(0, 0)]), n
        assert all(t.dtype == np.int64 and t.shape == ((n**4,) if b < c else (n * n,))
                   for b, c, t in blocks)
    within = [(g, g + 1, np.arange(1, 17)) for g in (0, 2)]  # n=4, no cross pair
    assert [(b, c) for b, c, _ in block_tables(within, 4)] == [(1, 1), (0, 0)]
    assert block_tables([], 5) == ()


def test_blocked_sum_exact_at_n12():
    # every per-pair entry at n! - 1: the blocked sum is the sum of all of
    # them in Python integers, 66 * (12! - 1), far below 2^63
    n, m = 12, factorial(12)
    pairs = [(g, p, np.full(n * n, m - 1, dtype=np.int64)) for p in range(n) for g in range(p)]
    keys = keys_with_extremes(n, 5, np.random.default_rng(1))
    assert blocked_sum(keys, pairs).tolist() == [len(pairs) * (m - 1)] * 5
