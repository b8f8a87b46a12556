"""Tests for permutation words, labelings, validation and enumeration."""

import itertools
import random
import tracemalloc
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp import perms
from fpp.commutation import (
    PairSum,
    add_block_sums,
    brute_force_phases,
    random_table,
)
from fpp.errors import DomainError, RangeError, UnsupportedError
from fpp.numsys import to_factoradic
from fpp.perms import (
    ConsistencyResult,
    ExplicitLabeling,
    FactoradicLabeling,
    Labeling,
    PermWord,
    enumerate_valid_labelings,
    factoradic_blocks,
    labeling_from_text,
    labeling_to_text,
    relabeled,
    validate_labeling,
)

# The full n=3 table of the factoradic labeling, written product order.
FACTORADIC3 = {
    0: (2, 1, 0),
    1: (2, 0, 1),
    2: (1, 2, 0),
    3: (0, 2, 1),
    4: (1, 0, 2),
    5: (0, 1, 2),
}

# The alternative consistent labeling used as a second worked example.
SECOND3 = [(2, 1, 0), (1, 0, 2), (2, 0, 1), (0, 1, 2), (1, 2, 0), (0, 2, 1)]

# A labeling that admits no solution for y != 0.
TRIVIAL3 = [(2, 1, 0), (2, 0, 1), (1, 0, 2), (1, 2, 0), (0, 1, 2), (0, 2, 1)]


def _explicit(words, name):
    return ExplicitLabeling(3, [PermWord(3, w) for w in words], name)


def test_perm_word_invariants():
    w = PermWord(3, (2, 0, 1))
    assert w.acting(0) == 1
    assert w.acting_sequence() == (1, 0, 2)
    assert w.positions() == (1, 0, 2)
    with pytest.raises(DomainError):
        PermWord(3, (0, 1, 1))


def test_factoradic_n3_matches_published_table():
    lab = FactoradicLabeling(3)
    for x, order in FACTORADIC3.items():
        assert lab.word(x).order == order


def test_factoradic_identity_word():
    for n in range(2, 9):
        assert FactoradicLabeling(n).word(0).order == tuple(range(n - 1, -1, -1))


def test_factoradic_rejects_small_n():
    with pytest.raises(DomainError):
        FactoradicLabeling(1)


def test_label_of_examples():
    lab = FactoradicLabeling(3)
    assert lab.label(PermWord(3, (2, 1, 0))) == 0
    assert lab.label(PermWord(3, (0, 2, 1))) == 3
    with pytest.raises(DomainError):
        lab.label((0, 1))


def test_label_roundtrip_exhaustive():
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        for x in range(factorial(n)):
            assert lab.label(lab.word(x)) == x


def test_labels_match_label_per_word():
    # the batch decode of FactoradicLabeling and ExplicitLabeling, and the
    # per-row default, against label(), errors included
    rng = random.Random(7)
    labelings = [FactoradicLabeling(n) for n in range(2, 10)]
    labelings += [relabeled(FactoradicLabeling(n), [(g + 2) % n for g in range(n)]) for n in range(2, 6)]
    for lab in labelings:
        n = lab.n
        rows = np.array([rng.sample(range(n), n) for _ in range(40)] + [list(range(n))])
        assert list(lab.labels(rows)) == [lab.label(tuple(r)) for r in rows.tolist()], lab.name
    lab = FactoradicLabeling(4)
    bad = np.array([[3, 2, 1, 0], [0, 1, 1, 3]])
    with pytest.raises(DomainError) as batch:
        lab.labels(bad)
    with pytest.raises(DomainError) as one:
        lab.label((0, 1, 1, 3))
    assert str(batch.value) == str(one.value)

    class PerWord(FactoradicLabeling):  # label() alone, as a custom labeling defines it
        labels = Labeling.labels

    rows = np.array([[2, 0, 1], [0, 1, 2]])
    assert PerWord(3).labels(rows) == list(FactoradicLabeling(3).labels(rows)) == [1, 5]
    explicit = ExplicitLabeling(3, [FactoradicLabeling(3).word(x) for x in range(6)], "e")
    assert list(explicit.labels(rows)) == [1, 5]
    with pytest.raises(DomainError, match="not present"):
        explicit.labels(np.array([[2, 1, 0], [0, 0, 1]]))


def test_derived_table_matches_labels_per_word():
    # the designated words labeled in one batch give the table that
    # label() per designated word gives
    def per_word(lab):
        n, m = lab.n, lab.size
        upper = {}
        for j, k in itertools.combinations(range(n), 2):
            others = tuple(g for g in range(n - 1, -1, -1) if g not in (j, k))
            x1 = lab.label(PermWord(n, others + (j, k)))
            x2 = lab.label(PermWord(n, others + (k, j)))
            upper[j, k] = (x1 - x2) % m
        return upper

    labelings = [FactoradicLabeling(n) for n in range(2, 11)]
    labelings += [relabeled(FactoradicLabeling(n), [(g + 1) % n for g in range(n)]) for n in range(2, 7)]
    labelings += enumerate_valid_labelings(3)
    for lab in labelings:
        table = perms._derived_table(lab)
        assert {(j, k): table.entry(j, k) for j, k in itertools.combinations(range(lab.n), 2)} \
            == per_word(lab), lab.name


def test_explicit_positions_of_a_range_are_a_copied_slice():
    lab = relabeled(FactoradicLabeling(5), [4, 0, 3, 1, 2])
    for xs in (range(0, 120), range(7, 50), range(119, 120), range(30, 30)):
        out = lab.positions(xs)
        assert out.dtype == np.intp
        assert (out == Labeling.positions(lab, xs)).all()  # the per-x reference
        out += 1  # the caller's to scale: the table is not touched
        assert (lab.positions(xs) == out - 1).all()
    with pytest.raises(RangeError, match="x=120"):
        lab.positions(range(110, 121))


def test_factoradic_bijective():
    for n in range(2, 7):
        lab = FactoradicLabeling(n)
        words = {lab.word(x).order for x in range(factorial(n))}
        assert len(words) == factorial(n)


def test_validate_factoradic():
    res = validate_labeling(FactoradicLabeling(3))
    assert res.consistent
    assert res.table.entry(0, 1) == 1
    assert res.table.entry(1, 2) == 2
    assert res.table.entry(0, 2) == 2


def test_validate_second_labeling():
    res = validate_labeling(_explicit(SECOND3, "second"))
    assert res.consistent
    assert res.table.entry(0, 1) == 2
    assert res.table.entry(0, 2) == 3
    assert res.table.entry(1, 2) == 4


def test_validate_contradiction_witness():
    res = validate_labeling(_explicit(TRIVIAL3, "trivial"))
    assert not res.consistent
    assert res.table is None
    assert res.witness.pair == (0, 1)
    assert set(res.witness.exponents) == {1, 2}


def test_derived_table_is_kfactorial():
    for n in range(2, 7):
        res = validate_labeling(FactoradicLabeling(n))
        assert res.consistent
        for j in range(n):
            for k in range(j + 1, n):
                assert res.table.entry(j, k) == factorial(k) % factorial(n)


def test_enumerate_valid_labelings_count():
    labelings = enumerate_valid_labelings(3)
    assert len(labelings) == 24


def test_enumerate_contains_factoradic():
    labelings = enumerate_valid_labelings(3)
    fac = tuple(FactoradicLabeling(3).word(x).order for x in range(6))
    found = [
        lab for lab in labelings
        if tuple(lab.word(x).order for x in range(6)) == fac
    ]
    assert len(found) == 1


def test_enumerated_all_revalidate():
    for lab in enumerate_valid_labelings(3):
        assert validate_labeling(lab).consistent
        assert lab.word(0).order == (2, 1, 0)


def _enumerate_by_brute_force():
    """The word tuples of the consistent n=3 labelings with word(0) fixed to
    the descending word, by validating each of the 5! candidates in turn."""
    identity = (2, 1, 0)
    others = [w for w in itertools.permutations(range(3)) if w != identity]
    candidates = ((identity, *rest) for rest in itertools.permutations(others))
    return [
        words for words in candidates
        if validate_labeling(ExplicitLabeling(3, [PermWord(3, w) for w in words], "candidate")).consistent
    ]


def test_enumeration_by_tables_matches_brute_force():
    labelings = enumerate_valid_labelings(3)
    assert [tuple(lab.word(x).order for x in range(6)) for lab in labelings] == _enumerate_by_brute_force()
    assert [lab.name for lab in labelings] == [f"enumerated-{i}" for i in range(24)]
    for lab in labelings:  # the memo holds the table validation derives
        assert lab.validate() == validate_labeling(lab)


def test_enumerate_unsupported_n():
    with pytest.raises(UnsupportedError):
        enumerate_valid_labelings(4)


def test_relabeled_consistent():
    base = FactoradicLabeling(4)
    renamed = relabeled(base, (2, 0, 3, 1), name="tau")
    res = validate_labeling(renamed)
    assert res.consistent
    # the table genuinely changes under renaming
    fac = validate_labeling(base).table
    assert any(
        res.table.entry(j, k) != fac.entry(j, k)
        for j in range(4)
        for k in range(j + 1, 4)
    )


def test_relabeled_rejects_bad_tau():
    with pytest.raises(DomainError):
        relabeled(FactoradicLabeling(3), (0, 0, 1))


def test_serialization_roundtrip():
    lab = FactoradicLabeling(3)
    text = labeling_to_text(lab)
    parsed = labeling_from_text(text, name="roundtrip")
    for x in range(6):
        assert parsed.word(x).order == lab.word(x).order
    assert validate_labeling(parsed).consistent


def test_serialization_rejects_gaps():
    with pytest.raises(DomainError):
        labeling_from_text("0 2 1 0\n1 2 0 1\n")


def test_explicit_rejects_duplicates():
    words = [PermWord(2, (1, 0)), PermWord(2, (1, 0))]
    with pytest.raises(DomainError):
        ExplicitLabeling(2, words, "dup")


def test_explicit_rejects_words_of_another_size():
    words = [PermWord(2, (1, 0)), PermWord(3, (2, 1, 0))]
    with pytest.raises(DomainError, match=r"word 1 \(2, 1, 0\) does not have size n=2"):
        ExplicitLabeling(2, words, "mixed")


def test_serialization_rejects_mixed_word_lengths():
    with pytest.raises(DomainError, match="line 3: word has 3 symbols, but line 1 has 2"):
        labeling_from_text("0 1 0\n# comment\n1 2 1 0\n")


def test_serialization_rejects_repeated_x():
    with pytest.raises(DomainError, match="line 4: x=0 already given on line 1"):
        labeling_from_text("0 1 0\n1 0 1\n# comment\n0 0 1\n")


def test_enumeration_keeps_the_validation_memo(monkeypatch):
    labelings = enumerate_valid_labelings(3)

    def fail(labeling):
        raise AssertionError(f"{labeling.name} validated again")

    monkeypatch.setattr(perms, "validate_labeling", fail)
    assert all(lab.validate().consistent for lab in labelings)


def _bubble_phase(word, table):
    """Scalar bubble sort to descending order, one phase per swap: the
    per-word oracle validation ran before it moved into numpy."""
    seq, e, m = list(word), table.entries, table.modulus
    exponent, changed = 0, True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] < seq[i + 1]:
                exponent = (exponent + e[(seq[i], seq[i + 1])]) % m
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                changed = True
    return exponent


def _validate_per_x(labeling):
    """Reference validation, one word at a time: a set of words for
    bijectivity, then the scalar oracle on every x.  Returns the result
    and the first x whose exponent is off (None if there is none)."""
    m = labeling.size
    orders = [tuple(w) for w in labeling.words(range(m)).tolist()]
    if len(set(orders)) != m:
        raise DomainError(f"labeling {labeling.name!r} is not bijective")
    table = perms._derived_table(labeling)
    p0 = _bubble_phase(orders[0], table)
    for x, order in enumerate(orders):
        if (_bubble_phase(order, table) - p0) % m != x:
            witness = _find_witness_per_x(labeling, table)
            return ConsistencyResult("contradiction", None, witness), x
    return ConsistencyResult("consistent", table, None), None


def _find_witness_per_x(labeling, table):
    """Reference witness scan, one x and adjacent pair at a time with one
    label() call each: the scan before it moved into numpy."""
    m = labeling.size
    conflicts = {}
    for x in range(m):
        order = labeling.word(x).order
        for p in range(len(order) - 1):
            left, right = order[p], order[p + 1]
            partner = list(order)
            partner[p], partner[p + 1] = right, left
            x_partner = labeling.label(PermWord(labeling.n, tuple(partner)))
            implied_left_right = (x - x_partner) % m
            j, k = (left, right) if left < right else (right, left)
            implied_jk = implied_left_right if left < right else (-implied_left_right) % m
            if implied_jk != table.entry(j, k):
                conflicts.setdefault((j, k), implied_jk)
    if not conflicts:
        return None
    pair = min(conflicts)
    return perms.ContradictionWitness(pair, (table.entry(*pair), conflicts[pair]))


def _swapped(labeling, x1, x2):
    words = [labeling.word(x) for x in range(labeling.size)]
    words[x1], words[x2] = words[x2], words[x1]
    return ExplicitLabeling(labeling.n, words, f"{labeling.name}-swap-{x1}-{x2}")


def _assert_same_as_per_x(labeling):
    expected, first_bad = _validate_per_x(labeling)
    assert validate_labeling(labeling) == expected
    return expected, first_bad


def test_validation_matches_per_x_factoradic():
    for n in range(2, 9):
        expected, first_bad = _assert_same_as_per_x(FactoradicLabeling(n))
        assert expected.consistent and first_bad is None


def test_validation_matches_per_x_all_n3_candidates():
    identity = PermWord(3, (2, 1, 0))
    others = [PermWord(3, p) for p in itertools.permutations(range(3)) if p != identity.order]
    consistent = 0
    for assignment in itertools.permutations(others):
        expected, _ = _assert_same_as_per_x(ExplicitLabeling(3, (identity, *assignment), "c"))
        consistent += expected.consistent
    assert consistent == 24


def test_validation_matches_per_x_relabeled_and_swapped():
    for tau in ((2, 0, 3, 1), (1, 0, 2, 3), (4, 2, 0, 3, 1), (0, 1, 2, 4, 3)):
        base = FactoradicLabeling(len(tau))
        expected, _ = _assert_same_as_per_x(relabeled(base, tau))
        assert expected.consistent
    expected, first_bad = _assert_same_as_per_x(_swapped(FactoradicLabeling(5), 37, 91))
    assert not expected.consistent and first_bad == 37


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.data())
def test_witness_matches_per_x_scan(n, data):
    # an explicit labeling (factoradic, maybe relabeled) with 1 to 3 pairs
    # of words swapped
    lab = FactoradicLabeling(n)
    if data.draw(st.booleans()):
        lab = relabeled(lab, data.draw(st.permutations(range(n))))
    words = [lab.word(x) for x in range(lab.size)]
    for _ in range(data.draw(st.integers(1, 3))):
        x1, x2 = data.draw(st.lists(st.integers(0, lab.size - 1), min_size=2, max_size=2, unique=True))
        words[x1], words[x2] = words[x2], words[x1]
    perturbed = ExplicitLabeling(n, words, "perturbed")
    table = perms._derived_table(perturbed)
    keys = np.array([w.order for w in words]) @ (n ** np.arange(n - 1, -1, -1))
    expected, _ = _validate_per_x(perturbed)
    assert perms._find_witness(keys, n, table) == expected.witness
    assert validate_labeling(perturbed) == expected


def test_swapped_words_witness_matches_per_x_scan_at_n8():
    swapped = _swapped(FactoradicLabeling(8), 3, 4)
    expected = _find_witness_per_x(swapped, perms._derived_table(swapped))
    assert expected is not None
    assert validate_labeling(swapped) == ConsistencyResult("contradiction", None, expected)


class _LastWordFlat(FactoradicLabeling):
    """Factoradic, except that x = n!-1 has the word 0 0 ... 0, in which no
    gate acts after another: words() gives it that row and positions()
    puts every gate at position 0.  Still n! distinct words, and the only x
    whose exponent is off."""

    def words(self, xs):
        out = super().words(xs)
        out[np.asarray(xs) == self.size - 1] = 0
        return out

    def positions(self, xs):
        out = super().positions(xs)
        out[:, np.asarray(xs) == self.size - 1] = 0
        return out


def test_validation_checks_every_block():
    # n=7 has 5040 words: chunks of 1024, 2048 and the last 1968.  A
    # contradiction in the last word, or across a chunk boundary, fails
    # the pair sums and is decided on the oracle route as per x.
    m = factorial(7)
    starts = [chunk.start for chunk in perms._chunks(range(m))]
    assert starts == [0, perms._FIRST_CHUNK, 3 * perms._FIRST_CHUNK] and m < 7 * perms._FIRST_CHUNK
    flat = _LastWordFlat(7)
    assert not perms._pair_sums_hold(flat, perms._derived_table(flat))
    expected, first_bad = _assert_same_as_per_x(flat)
    assert expected == ConsistencyResult("contradiction", None, None) and first_bad == m - 1
    for x in [x for start in starts[1:] for x in (start - 1, start)]:  # the last x of a chunk, the first
        swapped = _swapped(FactoradicLabeling(7), x, x + 1)
        assert not perms._pair_sums_hold(swapped, perms._derived_table(swapped))
        expected, first_bad = _assert_same_as_per_x(swapped)
        assert not expected.consistent and expected.witness is not None
        assert first_bad == x


def test_positions_outside_the_word_go_to_the_oracle_route():
    # the gate acting first placed at n instead of 0, where the gate acting
    # last has a higher index: every gather then reads the value position 0
    # gives (past the table, it clips to its last entry, 0), so only the
    # range check stops the pair sums from passing positions no word has
    class FirstAtN(FactoradicLabeling):
        def positions(self, xs):
            out = super().positions(xs)
            first, last = out.argmin(axis=0), out.argmax(axis=0)
            cols = np.flatnonzero(last > first)
            out[first[cols], cols] = self.n
            return out

    lab = FirstAtN(4)
    assert not perms._pair_sums_hold(lab, perms._derived_table(lab))
    assert validate_labeling(lab) == validate_labeling(FactoradicLabeling(4))  # decided by the words


def test_pair_sums_match_the_bubble_sort_on_every_x():
    # phi by the pair sum over acting positions equals the oracle's
    # exponent of every word, under the labeling's own table and a drawn one
    rng = random.Random(5)
    labelings = [lab for n in range(2, 9) for lab in (
        FactoradicLabeling(n), relabeled(FactoradicLabeling(n), [(g + 1) % n for g in range(n)])
    )]
    labelings += enumerate_valid_labelings(3)
    for lab in labelings:
        m = lab.size
        for table in (perms._derived_table(lab), random_table(lab.n, rng)):
            phase = np.zeros(m, dtype=np.int64)
            blocks = PairSum.of_positions(table).blocks
            add_block_sums(phase, lab.positions(range(m)), blocks)
            oracle = brute_force_phases(lab.words(range(m)), table)
            assert (phase % m == oracle).all(), lab.name
        assert perms._pair_sums_hold(lab, perms._derived_table(lab)), lab.name


def test_consistent_validation_holds_nothing_of_size_n_factorial():
    lab = FactoradicLabeling(10)
    lab.positions(range(1))  # the decoder's tables, shared by every labeling of n=10
    tracemalloc.start()
    try:
        result = validate_labeling(lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.consistent
    assert peak < lab.size * 8 // 4, peak  # n! int64 keys alone take 29 MB


def test_non_bijective_labeling_still_rejected():
    class Repeating(Labeling):
        """word(5) repeats word(4); no label() is defined."""

        def __init__(self):
            super().__init__(3, "repeating")

        def word(self, x):
            self._check_x(x)
            return FactoradicLabeling(3).word(min(x, 4))

    with pytest.raises(DomainError) as per_x:
        _validate_per_x(Repeating())
    with pytest.raises(DomainError) as blocks:
        validate_labeling(Repeating())
    assert str(blocks.value) == str(per_x.value) == "labeling 'repeating' is not bijective"


# ---------------------------------------------------------------------------
# the block decoder: words, positions and digits from tables, against the
# per-x references word(x), PermWord.positions and to_factoradic


def _assert_decodes(n, xs):
    lab = FactoradicLabeling(n)
    words = [lab.word(x) for x in xs]
    got, positions = lab.words(xs), lab.positions(xs)
    assert got.dtype == np.int8 and positions.dtype == np.intp
    assert got.shape == (len(words), n)
    assert got.tolist() == [list(w.order) for w in words]
    assert positions.T.tolist() == [list(w.positions()) for w in words]
    digits = factoradic_blocks(n).digits(xs)
    assert digits.T.tolist() == [list(to_factoradic(x, n).digits) for x in xs]


def test_decoder_matches_per_x_for_every_x():
    for n in range(2, 9):
        _assert_decodes(n, range(factorial(n)))


@st.composite
def _block_states(draw):
    """n in 9..12 and xs that meet the 7! blocks of the decoder at their
    edges: an unaligned range, a range across a block boundary, one x, an
    empty range, a range ending at n!-1, or a range from 0."""
    n = draw(st.integers(9, 12))
    m, block = factorial(n), factorial(7)
    x = draw(st.integers(0, m - 1))
    kind = draw(st.sampled_from(["unaligned", "crossing", "single", "empty", "last", "first"]))
    if kind == "unaligned":
        return n, range(x, min(m, x + draw(st.integers(1, 400))))
    if kind == "crossing":
        edge = block * draw(st.integers(1, m // block - 1))
        return n, range(edge - draw(st.integers(1, 200)), edge + draw(st.integers(1, 200)))
    if kind == "single":
        return n, range(x, x + 1)
    if kind == "empty":
        return n, range(x, x)
    if kind == "last":
        return n, range(m - draw(st.integers(1, 400)), m)
    return n, range(0, draw(st.integers(1, 400)))


@settings(max_examples=60, deadline=None)
@given(_block_states())
def test_decoder_matches_per_x_at_large_n(case):
    _assert_decodes(*case)


def test_decoder_rejects_the_first_x_out_of_range():
    lab = FactoradicLabeling(9)
    m = lab.size
    for xs, bad in [(range(m - 2, m + 3), m), (range(-3, 2), -3), (range(-3, m + 3), -3)]:
        for decode in (lab.words, lab.positions, relabeled(lab, range(9)).words):
            with pytest.raises(RangeError) as exc:
                decode(xs)
            with pytest.raises(RangeError) as per_x:
                lab.word(bad)
            assert str(exc.value) == str(per_x.value)


def test_decoder_refuses_what_it_does_not_decode():
    # the batch decoders take unit-step ranges only; word(x) and the base
    # class's per-x words and positions take any xs
    blocks = factoradic_blocks(5)
    explicit = relabeled(FactoradicLabeling(5), (1, 0, 2, 3, 4))
    decoders = (blocks.acting, blocks.positions, blocks.digits, FactoradicLabeling(5).words,
                FactoradicLabeling(5).positions, explicit.words, explicit.positions)
    for xs in (range(0, 120, 2), range(119, -1, -1), [0, 1], np.arange(3)):
        for decode in decoders:
            with pytest.raises(RangeError, match="must be a unit-step range, not"):
                decode(xs)
    for decode in decoders:  # an empty range anywhere decodes to nothing
        assert decode(range(200, 200)).size == 0


def test_decoder_tables_are_small_and_lazy():
    blocks = perms.FactoradicBlocks(11)
    assert not vars(blocks).keys() & {"low", "rank", "low_digits"}
    blocks.positions(range(5040 * 3 - 7, 5040 * 3 + 7))  # across a block boundary
    assert vars(blocks).keys() >= {"low", "rank"}
    tables = [blocks.low, blocks.rank, blocks.low_digits]
    assert all(t.dtype.itemsize == 1 for t in tables)
    assert sum(t.nbytes for t in tables) < 200_000
    assert factoradic_blocks(11) is factoradic_blocks(11)


def test_decoder_builds_only_the_high_rows_a_range_meets():
    # n=14 has n!/7! = 17 297 280 high parts: a table of them would take
    # over 17 MB; the last 40 states meet one
    n = 14
    m = factorial(n)
    xs = range(m - 40, m)
    blocks = perms.FactoradicBlocks(n)
    tracemalloc.start()
    try:
        decoded = blocks.acting(xs), blocks.positions(xs), blocks.digits(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    words = [FactoradicLabeling(n).word(x) for x in xs]
    assert decoded[0].tolist() == [list(w.acting_sequence()) for w in words]
    assert decoded[1].T.tolist() == [list(w.positions()) for w in words]
    assert decoded[2].T.tolist() == [list(to_factoradic(x, n).digits) for x in xs]


def test_explicit_labeling_positions_match_word():
    lab = relabeled(FactoradicLabeling(4), (2, 0, 3, 1))
    for xs in (range(0, 24), range(7, 8), range(23, 24)):
        assert lab.positions(xs).T.tolist() == [list(lab.word(x).positions()) for x in xs]
        assert Labeling.positions(lab, xs).tolist() == lab.positions(xs).tolist()
    with pytest.raises(RangeError, match="x=24 outside"):
        lab.positions(range(1, 25))


def _error(call):
    """The type and text of the error ``call`` raises (None if it returns)."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared as they are
        return type(exc).__name__, str(exc)
    return None


def _route_cases():
    """(name, n, written orders by x) for factoradic, renamed and perturbed
    labelings at n=2..7 and the 24 consistent n=3 labelings."""
    rng = random.Random(11)
    cases = []
    for n in range(2, 8):
        fac = FactoradicLabeling(n)
        renamed = relabeled(fac, rng.sample(range(n), n))
        for lab in (fac, renamed):
            orders = [tuple(row) for row in lab.words(range(lab.size)).tolist()]
            cases.append((lab.name, n, orders))
            perturbed = list(orders)
            for _ in range(2):
                a, b = rng.sample(range(lab.size), 2)
                perturbed[a], perturbed[b] = perturbed[b], perturbed[a]
            cases.append((f"{lab.name}-perturbed", n, perturbed))
    cases += [(lab.name, 3, [lab.word(x).order for x in range(6)]) for lab in enumerate_valid_labelings(3)]
    return cases


def test_table_and_word_routes_agree():
    # ExplicitLabeling built from PermWords and from an int64 or int8
    # table: the same words, positions, labels and validation, witnesses
    # included
    rng = random.Random(12)
    for name, n, orders in _route_cases():
        m = factorial(n)
        routes = [
            ExplicitLabeling(n, [PermWord(n, w) for w in orders], name),
            ExplicitLabeling(n, np.array(orders, dtype=np.int64), name),
            ExplicitLabeling(n, np.array(orders, dtype=np.int8), name),
        ]
        xs = sorted(rng.sample(range(m), min(m, 50))) + [m - 1, 0, 0]
        every = [tuple(w) for w in itertools.permutations(range(n))]
        words = every if m <= 120 else rng.sample(every, 120)
        rows = np.array(words + [orders[3 % m], orders[0]])
        first = routes[0]
        for lab in routes[1:]:
            assert [lab.word(x) for x in xs] == [first.word(x) for x in xs]
            for chunk in (range(m), range(1, m - 1), range(m - 1, m)):
                assert np.array_equal(lab.words(chunk), first.words(chunk))
                assert np.array_equal(lab.positions(chunk), first.positions(chunk))
            assert [lab.label(w) for w in words] == [first.label(w) for w in words]
            assert lab.labels(rows).tolist() == first.labels(rows).tolist()
            assert lab.labels(rows).tolist() == [first.label(w) for w in rows.tolist()]
            assert validate_labeling(lab) == validate_labeling(first), name
        for bad in ((0,) * n, tuple(range(n + 1)), tuple(range(n - 1)), (n,) + tuple(range(1, n))):
            expected = _error(lambda: first.label(bad))
            assert expected == ("DomainError", f"word {bad} not present in labeling {name!r}")
            for lab in routes:
                assert _error(lambda: lab.label(bad)) == expected
                if len(bad) == n:
                    assert _error(lambda: lab.labels(np.array([orders[0], bad]))) == expected


def test_table_and_word_routes_raise_the_same_errors():
    fac = FactoradicLabeling(4)
    orders = [fac.word(x).order for x in range(24)]

    def both(n, orders, name="e"):
        # the PermWord route (building each PermWord first), then the table
        return (
            _error(lambda: ExplicitLabeling(n, [PermWord(len(w), w) for w in orders], name)),
            _error(lambda: ExplicitLabeling(n, np.array(orders), name)),
        )

    word, table = both(4, orders[:23])
    assert word == table == ("DomainError", "expected 24 words for n=4, got 23")
    word, table = both(4, orders[:5] + orders[4:23])
    assert word == table == ("DomainError", "labeling is not bijective: repeated words")
    word, table = both(2, [(1, 0, 2), (0, 1, 2)])
    assert word == table == ("DomainError", "word 0 (1, 0, 2) does not have size n=2")
    word, table = both(1, [(0,)])
    assert word == table == ("DomainError", "labelings need n >= 2, got 1")
    for bad in ((0, 0, 1, 2), (0, 1, 2, 4), (-1, 0, 1, 2), (0, 1, 2, 300)):
        orders_bad = orders[:7] + [bad] + orders[8:]
        orders_bad[15] = (3, 3, 3, 3)  # a later bad row: the first one raises
        word, table = both(4, orders_bad)
        assert word == table == ("DomainError", f"order {bad} is not a permutation of 0..3")


def test_lehmer_ranks_are_the_factoradic_labels():
    # the rank is the factoradic label, in chunks: n=7 runs three
    for n in range(2, 8):
        fac = FactoradicLabeling(n)
        ranks, ok = perms._lehmer_ranks(fac.words(range(fac.size)), n)
        assert ok.all() and np.array_equal(ranks, np.arange(fac.size))
    rows = np.array([[0, 0, 1], [0, 1, 3], [2, 1, 0], [-1, 0, 1], [0, 2, 1]])
    ranks, ok = perms._lehmer_ranks(rows, 3)
    assert ok.tolist() == [False, False, True, False, True]
    assert ranks[ok].tolist() == [0, 3]
    assert not perms._lehmer_ranks(np.array([[0, 1, 2, 3]]), 3)[1].any()
    big = np.array([[2**70, 0, 1], [2, 0, 1]], dtype=object)  # past int64, as a parsed file can give
    assert perms._lehmer_ranks(big, 3)[1].tolist() == [False, True]


def test_relabeled_matches_per_x():
    rng = random.Random(13)
    for n in range(2, 9):
        fac = FactoradicLabeling(n)
        for source in (fac, relabeled(fac, rng.sample(range(n), n))):
            tau = rng.sample(range(n), n)
            renamed = relabeled(source, tau)
            expected = [[tau[g] for g in source.word(x).order] for x in range(source.size)]
            assert renamed.words(range(source.size)).tolist() == expected
            assert renamed.name == f"{source.name}-renamed"
            assert renamed.validate().consistent


def test_relabeled_memory_at_n9():
    # two arrays: the int8 word table (3.3 MB) and the int32 inverse (1.5 MB)
    fac = FactoradicLabeling(9)
    fac.words(range(1))  # the decoder's tables, shared by every labeling of n=9
    tracemalloc.start()
    try:
        renamed = relabeled(fac, [(g + 4) % 9 for g in range(9)])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 8 * 2**20, held
    assert peak <= 32 * 2**20, peak
    assert renamed.word(362879).order == tuple((g + 4) % 9 for g in fac.word(362879).order)


def test_explicit_positions_memory_at_n9():
    # the int8 position table (3.3 MB) is scattered from the word table,
    # with no n! x n int64 temporary (an argsort peaked at about 50 MB)
    lab = relabeled(FactoradicLabeling(9), [(g + 4) % 9 for g in range(9)])
    tracemalloc.start()
    try:
        lab.positions(range(1))  # builds the whole table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
    written = np.argsort(lab.words(range(lab.size)), axis=1)
    assert (lab.positions(range(lab.size)) == (8 - written).T).all()


def test_text_roundtrip_is_byte_for_byte():
    rng = random.Random(14)
    labelings = [FactoradicLabeling(n) for n in range(2, 7)]
    labelings += [relabeled(lab, rng.sample(range(lab.n), lab.n)) for lab in labelings]
    labelings += enumerate_valid_labelings(3)
    labelings.append(_swapped(FactoradicLabeling(5), 37, 91))
    for lab in labelings:
        text = labeling_to_text(lab)
        per_x = "".join(f"{x} {' '.join(str(g) for g in lab.word(x).order)}\n" for x in range(lab.size))
        assert text == per_x
        parsed = labeling_from_text(text, name="copy")
        assert labeling_to_text(parsed) == text
        assert validate_labeling(parsed).witness == validate_labeling(lab).witness


@pytest.mark.parametrize("text, error", [
    # the first failing line raises; on one line, the first check it fails
    ("0 1 0\n1 1 1\nx\n", "order (1, 1) is not a permutation of 0..1"),
    ("0 1 0\n1 0 1\n0 a b\n", "line 3: fields must be integers, got '0 a b'"),
    ("0 1 0\n1 0 1 x\n", "line 2: fields must be integers, got '1 0 1 x'"),
    ("0 1 0\n0 0 1 2\n", "line 2: word has 3 symbols, but line 1 has 2"),
    ("0 1 1\n0 0 1\n", "order (1, 1) is not a permutation of 0..1"),
    ("0 1 0\n0 0 0\n", "line 2: x=0 already given on line 1"),
    ("# c\n\n  # d\n", "empty labeling file"),
    ("0 1 0\n1 0 -1\n", "order (0, -1) is not a permutation of 0..1"),
    ("1 0 1\n-1 1 0\n", "labeling file must cover x = 0..n!-1 exactly once"),
    ("0 1 0\n1 1 0\n", "labeling is not bijective: repeated words"),
    ("0\n", "labelings need n >= 2, got 0"),
    # integers past int64 still count, as Python reads them
    ("99999999999999999999 1 0\n1 0 1\n", "labeling file must cover x = 0..n!-1 exactly once"),
    ("99999999999999999999 1 0\n99999999999999999999 0 1\n",
     "line 2: x=99999999999999999999 already given on line 1"),
    ("0 1 0\n1 0 99999999999999999999\n", "order (0, 99999999999999999999) is not a permutation of 0..1"),
])
def test_serialization_reports_the_first_failing_line(text, error):
    with pytest.raises(DomainError) as exc:
        labeling_from_text(text)
    assert str(exc.value) == error


def test_serialization_reads_what_python_reads():
    # comments, blank lines, tabs, CRLF, other line breaks, signs and
    # underscores, as str.splitlines, str.split and int read them
    text = "# head\r\n+0\t1 0\r\n   # indented\n\n0_1 0 1\x1c"
    assert labeling_from_text(text).words(range(2)).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(DomainError, match="line 7: x=0 already given on line 2"):
        labeling_from_text(text + "\n-0 0 1")
