"""Permutation words, labelings, labeling validation and enumeration.

A :class:`PermWord` stores the written product order: ``order[0]`` is the
leftmost symbol and acts LAST; the rightmost entry acts first.  A labeling is
a bijection x -> PermWord over x in [0, n!-1].  The factoradic labeling
starts from the descending word and shifts U_1 right a_1 steps, then U_2
right a_2 steps, and so on, where (a_1, ..., a_{n-1}) are the factorial
digits of x ("right" means toward the end of the written product, i.e.
toward acting earlier).

Validation derives the pairwise table from the two designated permutations
per pair (all other gates in descending order in front), then checks that
the exponent of every labeled word relative to the identity word equals its
label, on every x at every n: as a sum over gate pairs of a table indexed
by the two gates' acting positions, in numpy over chunks of words.  Where
that fails, the independent brute-force oracle, a bubble sort in numpy over
blocks of words, decides again from the words themselves, and a witness
pair with two conflicting exponents is produced from adjacent-transposition
constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .commutation import (
    CommutationTable,
    PairSum,
    add_block_sums,
    brute_force_phases,
    word_rows,
)
from .errors import DomainError, FppError, InvariantError, RangeError, UnsupportedError
from .numsys import FactoradicDigits, from_factoradic, to_factoradic

__all__ = [
    "PermWord",
    "Labeling",
    "FactoradicLabeling",
    "FactoradicBlocks",
    "ExplicitLabeling",
    "ContradictionWitness",
    "ConsistencyResult",
    "factoradic_blocks",
    "validate_labeling",
    "enumerate_valid_labelings",
    "relabeled",
    "labeling_to_text",
    "labeling_from_text",
]


@dataclass(frozen=True)
class PermWord:
    """A product of n distinct gates, written left-to-right, rightmost acts first."""

    n: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(self.n)):
            raise DomainError(
                f"order {self.order} is not a permutation of 0..{self.n - 1}"
            )

    def acting(self, p: int) -> int:
        """Gate index at acting position p (p=0 acts first)."""
        return self.order[self.n - 1 - p]

    def acting_sequence(self) -> tuple[int, ...]:
        """All gates in the order they act (time order)."""
        return tuple(reversed(self.order))

    def positions(self) -> tuple[int, ...]:
        """positions()[g] = acting position of gate g."""
        pos = [0] * self.n
        for idx, g in enumerate(self.order):
            pos[g] = self.n - 1 - idx
        return tuple(pos)


class Labeling:
    """Bijection between labels x in [0, n!-1] and permutation words."""

    n: int
    name: str

    def __init__(self, n: int, name: str) -> None:
        if n < 2:
            raise DomainError(f"labelings need n >= 2, got {n}")
        self.n = n
        self.name = name
        self._validation: ConsistencyResult | None = None

    @property
    def size(self) -> int:
        return factorial(self.n)

    def word(self, x: int) -> PermWord:
        raise NotImplementedError

    def words(self, xs: Sequence[int]) -> np.ndarray:
        """Written orders of the words of ``xs``, one int8 row per x (shape
        len(xs) x n)."""
        return np.array(
            [self.word(x).order for x in xs], dtype=np.int8
        ).reshape(len(xs), self.n)

    def positions(self, xs: Sequence[int]) -> np.ndarray:
        """Acting positions of the words of ``xs``, shape n x len(xs): entry
        [g, i] is the position at which U_g acts in word(xs[i]).  They are
        intp, the index type, since the sweep indexes tables with them."""
        return np.array(
            [self.word(x).positions() for x in xs], dtype=np.intp
        ).reshape(len(xs), self.n).T

    def label(self, w: PermWord | Sequence[int]) -> int:
        raise NotImplementedError

    def labels(self, rows: np.ndarray) -> Sequence[int]:
        """:meth:`label` of each row of ``rows``, a written order per row;
        the first row it rejects raises its error."""
        return [self.label(PermWord(self.n, tuple(row))) for row in rows.tolist()]

    def _check_x(self, x: int) -> None:
        if not 0 <= x < self.size:
            raise RangeError(f"x={x} outside [0, {self.size - 1}]")

    def _check_xs(self, xs: Sequence[int]) -> np.ndarray:
        """``xs`` as an int64 array; raises :meth:`_check_x`'s error for the
        first x out of range."""
        arr = np.asarray(xs, dtype=np.int64).reshape(-1)
        outside = (arr < 0) | (arr >= self.size)
        if outside.any():
            self._check_x(int(arr[outside.argmax()]))
        return arr

    def validate(self) -> "ConsistencyResult":
        """Memoized :func:`validate_labeling`."""
        if self._validation is None:
            self._validation = validate_labeling(self)
        return self._validation


def _is_span(xs: Sequence[int], size: int) -> bool:
    """Whether ``xs`` is a unit-step range inside [0, size)."""
    return isinstance(xs, range) and xs.step == 1 and (
        not xs or (xs.start >= 0 and xs.stop <= size)
    )


# The low table holds the words of U_0..U_{k-1} for k = min(n, _LOW_GATES):
# k! = 5 040 rows from n = 7 on.
_LOW_GATES = 7


def _insertions(stop: int) -> np.ndarray:
    """Acting sequences of U_0..U_{stop-1}, one int8 row per digit string
    a_1..a_{stop-1}.

    Shifting U_k right a_k written steps puts it at index k - a_k of the
    acting sequence of U_0..U_k: a_k lower gates act after it.  Row r is the
    digit string with r = sum_k a_k * k!, so U_k's k + 1 digit values make
    one block copy of the table each.
    """
    seq = np.empty((1, 0), dtype=np.int8)
    for k in range(stop):
        seq = np.concatenate([np.insert(seq, k - a, k, axis=1) for a in range(k + 1)])
    return seq


class FactoradicBlocks:
    """Decoder of control states x in [0, n!) into factoradic words, acting
    positions and digits, by table lookups.

    With k = min(n, 7) and L = k!, a state splits as x = q * L + r.  The low
    digits a_1..a_{k-1} are those of r and fix the order of U_0..U_{k-1}
    among themselves; the high digits a_k..a_{n-1} are those of q and fix
    where U_k..U_{n-1} act, which leaves k free acting positions that the
    low gates fill in their own order.  So the tables are, per r (L rows):
    the acting sequence of the low gates, each low gate's index in it, and
    the digits a_1..a_{k-1}.  Per q, :meth:`high` gives the acting sequence
    with -1 at the free positions; it is built for each q a range meets,
    never for all n!/L of them.  The decoder takes only a unit-step range
    of xs inside [0, n!) (:meth:`decodes`), and decodes it per q it meets
    (a few per chunk of the sweep): its words are one row copy and one
    column scatter of low rows, its positions a copy of rank rows moved
    past the high gates.  Labelings and bit controls send any other xs to
    their per-x references.

    The tables are int8/uint8, depend on n alone and are built on first
    use, each in one numpy pass: 101 KB from n=7 on.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.size = factorial(n)
        self.k = min(n, _LOW_GATES)
        self.rows = factorial(self.k)

    @cached_property
    def low(self) -> np.ndarray:
        """[r]: the acting sequence of U_0..U_{k-1} for low part r."""
        return _insertions(self.k)

    @cached_property
    def rank(self) -> np.ndarray:
        """[g, r]: the index of U_g in ``low[r]``."""
        return np.ascontiguousarray(np.argsort(self.low, axis=1).astype(np.int8).T)

    def high(self, q: int) -> np.ndarray:
        """The acting sequence of high part q, -1 where a low gate acts:
        U_j (j >= k) inserted at index j - a_j, as :func:`_insertions`
        inserts the low gates."""
        seq = [-1] * self.k
        for j in range(self.k, self.n):
            seq.insert(j - q // (factorial(j) // self.rows) % (j + 1), j)
        return np.array(seq, dtype=np.int8)

    @cached_property
    def low_digits(self) -> np.ndarray:
        """[j - 1, r]: the digit a_j of low part r."""
        r = np.arange(self.rows)
        return np.array(
            [r // factorial(j) % (j + 1) for j in range(1, self.k)], dtype=np.uint8
        ).reshape(self.k - 1, self.rows)

    def decodes(self, xs: Sequence[int]) -> bool:
        """Whether the decoder takes ``xs``: a unit-step range inside [0, n!)."""
        return _is_span(xs, self.size)

    def _segments(self, xs: range) -> Iterator[tuple[slice, int, int, int]]:
        """(columns, q, r0, r1): the xs q * L + r0 .. q * L + r1 - 1 sit in
        ``columns`` of the output, for each q the range meets."""
        if not self.decodes(xs):
            raise InvariantError(f"the decoder takes unit-step ranges inside [0, n!), not {xs!r}")
        at, block = 0, self.rows
        for q in range(xs.start // block, -(-xs.stop // block)) if xs else ():
            r0, r1 = max(xs.start - q * block, 0), min(xs.stop - q * block, block)
            yield slice(at, at + r1 - r0), q, r0, r1
            at += r1 - r0

    def acting(self, xs: range) -> np.ndarray:
        """Acting sequences of xs, one int8 row per x."""
        out = np.empty((len(xs), self.n), dtype=np.int8)
        for cols, q, r0, r1 in self._segments(xs):
            template = self.high(q)
            out[cols] = template
            out[cols, template < 0] = self.low[r0:r1]
        return out

    def positions(self, xs: range) -> np.ndarray:
        """Acting positions of xs, intp of shape n x len(xs): entry [g, i]
        is where U_g acts in the word of xs[i]."""
        out = np.empty((self.n, len(xs)), dtype=np.intp)
        for cols, q, r0, r1 in self._segments(xs):
            template = self.high(q)
            placed = np.flatnonzero(template >= 0)
            low = self.rank[:, r0:r1].copy()
            for p in placed.tolist():  # ascending: a low gate at or past p acts one later
                low += (low >= p).view(np.int8)
            out[: self.k, cols] = low
            out[template[placed], cols] = placed[:, None]
        return out

    def digits(self, xs: range) -> np.ndarray:
        """Factorial digits of xs, uint8 of shape (n - 1) x len(xs): row
        j - 1 holds a_j."""
        k, block = self.k, self.rows
        out = np.empty((self.n - 1, len(xs)), dtype=np.uint8)
        for cols, q, r0, r1 in self._segments(xs):
            out[: k - 1, cols] = self.low_digits[:, r0:r1]
            for j in range(k, self.n):  # a_j = x // j! mod (j + 1) = q // (j!/L) mod (j + 1)
                out[j - 1, cols] = q // (factorial(j) // block) % (j + 1)
        return out


@lru_cache(maxsize=None)
def factoradic_blocks(n: int) -> FactoradicBlocks:
    """The decoder of n, shared by every labeling and bit control of that n."""
    return FactoradicBlocks(n)


class FactoradicLabeling(Labeling):
    """The labeling built from factorial digits by rightward shifts.

    Words and labels are computed on demand, so the object stays cheap for
    large n; nothing of size n! is materialized.
    """

    def __init__(self, n: int) -> None:
        super().__init__(n, "factoradic")

    def word(self, x: int) -> PermWord:
        self._check_x(x)
        digits = to_factoradic(x, self.n).digits
        seq = list(range(self.n - 1, -1, -1))
        for k in range(1, self.n):
            i = seq.index(k)
            seq.pop(i)
            seq.insert(i + digits[k - 1], k)
        return PermWord(self.n, tuple(seq))

    def words(self, xs: Sequence[int]) -> np.ndarray:
        """:meth:`word` for many xs, one int8 row per x: decoded by
        :func:`factoradic_blocks` where it takes xs, else per x."""
        blocks = factoradic_blocks(self.n)
        if not blocks.decodes(xs):
            return super().words(xs)
        return np.ascontiguousarray(blocks.acting(xs)[:, ::-1])

    def positions(self, xs: Sequence[int]) -> np.ndarray:
        """:meth:`Labeling.positions`: decoded by :func:`factoradic_blocks`
        where it takes xs, else per x."""
        blocks = factoradic_blocks(self.n)
        if not blocks.decodes(xs):
            return super().positions(xs)
        return blocks.positions(xs)

    def label(self, w: PermWord | Sequence[int]) -> int:
        order = w.order if isinstance(w, PermWord) else tuple(w)
        if sorted(order) != list(range(self.n)):
            raise DomainError(f"word {order} does not have size n={self.n}")
        return _rank(order)

    def labels(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`label` of each row of ``rows`` at once: the Lehmer ranks of
        :func:`_lehmer_ranks`, which are the factoradic labels."""
        return _ranks_or_raise(self, np.asarray(rows).reshape(-1, self.n))


class ExplicitLabeling(Labeling):
    """A labeling given by an explicit word table.

    It holds two arrays and no per-x Python object: the n! x n word table
    (int8: n < 128), whose row x is the written order of word(x), and its
    inverse, which holds x at the Lehmer rank of word(x) (int32 up to
    n = 12).  The rank of a word is its factoradic label, so the inverse
    is the relabeling that takes factoradic labels to this labeling's.
    :meth:`word` builds its :class:`PermWord` on demand; :meth:`label` and
    :meth:`labels` rank words and read the inverse.  The position table
    the sweep reads is derived from the word table on first use.

    ``words`` is a sequence of n! :class:`PermWord` or an (n!, n) integer
    array of written orders, which is copied as int8.  Either is checked
    in numpy, over the chunks of :func:`_lehmer_ranks`: the row count,
    that each row is a permutation of 0..n-1 (the first array row that is
    not raises the error :class:`PermWord` raises for it), and that no two
    rows are the same word.
    """

    def __init__(self, n: int, words: Sequence[PermWord] | np.ndarray, name: str) -> None:
        super().__init__(n, name)
        m = self.size
        if len(words) != m:
            raise DomainError(f"expected {m} words for n={n}, got {len(words)}")
        if isinstance(words, np.ndarray):
            rows = words
            if rows.dtype.kind not in "iu":
                raise DomainError(f"a word table holds integers, not {rows.dtype}")
            if rows.ndim != 2 or rows.shape[1] != n:
                raise DomainError(f"word 0 {tuple(np.ravel(rows[0]).tolist())} does not have size n={n}")
        else:
            for x, w in enumerate(words):
                if w.n != n:
                    raise DomainError(f"word {x} {w.order} does not have size n={n}")
            rows = np.array([w.order for w in words], dtype=np.int8).reshape(m, n)
        ranks, ok = _lehmer_ranks(rows, n)
        if not ok.all():
            PermWord(n, tuple(rows[ok.argmin()].tolist()))  # raises its DomainError
        self._table = rows.astype(np.int8)
        self._inverse = np.full(m, -1, dtype=np.int32 if m <= 2**31 else np.int64)
        self._inverse[ranks] = np.arange(m, dtype=self._inverse.dtype)
        if (self._inverse < 0).any():
            raise DomainError("labeling is not bijective: repeated words")

    def word(self, x: int) -> PermWord:
        self._check_x(x)
        return PermWord(self.n, tuple(self._table[x].tolist()))

    @cached_property
    def _positions(self) -> np.ndarray:
        """The n x n! acting positions: n - 1 minus each gate's written
        index, one scatter per written index into the int8 table."""
        positions = np.empty((self.n, self.size), dtype=np.int8)
        xs = np.arange(self.size)
        for j in range(self.n):
            positions[self._table[:, j], xs] = self.n - 1 - j
        return positions

    def words(self, xs: Sequence[int]) -> np.ndarray:
        """Rows of the word table."""
        return self._table[self._check_xs(xs)]

    def positions(self, xs: Sequence[int]) -> np.ndarray:
        """Columns of the position table, built on first use: a slice of
        them for a unit-step range."""
        cols = slice(xs.start, xs.stop) if _is_span(xs, self.size) else self._check_xs(xs)
        return self._positions[:, cols].astype(np.intp)

    def label(self, w: PermWord | Sequence[int]) -> int:
        order = w.order if isinstance(w, PermWord) else tuple(w)
        if sorted(order) != list(range(self.n)):  # every permutation is some word(x)
            raise DomainError(f"word {order} not present in labeling {self.name!r}")
        return int(self._inverse[_rank(order)])

    def labels(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`label` of each row: the inverse at the rows' Lehmer ranks."""
        return self._inverse[_ranks_or_raise(self, rows)]


@dataclass(frozen=True)
class ContradictionWitness:
    """Two incompatible exponents implied for the same unordered pair."""

    pair: tuple[int, int]
    exponents: tuple[int, int]


@dataclass(frozen=True)
class ConsistencyResult:
    status: str  # "consistent" | "contradiction"
    table: CommutationTable | None = None
    witness: ContradictionWitness | None = field(default=None)

    @property
    def consistent(self) -> bool:
        return self.status == "consistent"


# Validation runs its xs in chunks of _FIRST_CHUNK states, then twice as
# many each time up to the cap of :func:`_chunk_rows`; so does the circuit
# sweep (fpp.algorithms).  A chunk costs about the same numpy calls however
# many states it holds, so a long passing run wants large chunks, while a
# failure at a small x is found after one small chunk.  The cap keeps the
# chunk's working set within _CHUNK_BYTES.
_FIRST_CHUNK = 2**10
_CHUNK_BYTES = 2**21


def _chunk_rows(state_bytes: int) -> int:
    """The most states per chunk when each costs ``state_bytes`` of working
    set."""
    return max(1, _CHUNK_BYTES // max(state_bytes, 1))


def _chunks(xs: range, rows: int) -> Iterator[range]:
    """Consecutive chunks of xs: _FIRST_CHUNK states (at most ``rows``),
    then twice the last size, up to ``rows``; the last chunk takes the rest."""
    size, lo = min(_FIRST_CHUNK, rows), xs.start
    while lo < xs.stop:
        yield range(lo, min(lo + size, xs.stop))
        lo += size
        size = min(2 * size, rows)


def _rank(order: Sequence[int]) -> int:
    """The factoradic label of a written order that is a permutation:
    undoing the shifts largest gate first, the written index of U_k is its
    digit a_k."""
    seq = list(order)
    digits = [0] * (len(seq) - 1)
    for k in range(len(seq) - 1, 0, -1):
        i = seq.index(k)
        digits[k - 1] = i
        seq.pop(i)
    return from_factoradic(FactoradicDigits(len(order), tuple(digits)))


def _lehmer_ranks(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, ok) for the written orders of ``rows``, r x n of any integer
    dtype.  ok[i] says whether row i is a permutation of 0..n-1; where it
    is, ranks[i] is the Lehmer rank of the word, its factoradic label
    sum_k a_k * k!, where the digit a_k counts the gates below k written
    left of U_k (:func:`_rank` for one word).  A row of another width than
    n is no permutation.

    The rows run in the chunks of :func:`_chunks`, transposed to int8
    columns, so no temporary is n!-sized; per pair of written positions
    i < j, one comparison adds to the digit of the gate at j and one
    clears ok where the two gates are the same.  int64 up to n = 20,
    Python integers past it."""
    r = len(rows)
    dtype = np.int64 if n <= 20 else object
    ranks, ok = np.zeros(r, dtype=dtype), np.zeros(r, dtype=bool)
    if rows.ndim != 2 or rows.shape[1] != n:
        return ranks, ok
    weights = np.array([factorial(k) for k in range(n)], dtype=dtype)
    small = np.int8 if n < 128 else np.intp
    for chunk in _chunks(range(r), _chunk_rows(10 * n + 32)):
        part = rows[chunk.start : chunk.stop]
        inside = ((part >= 0) & (part < n)).all(axis=1)
        if not inside.all():
            part = np.where(inside[:, None], part, 0)
        cols = np.ascontiguousarray(part.T, dtype=small)  # [j, i]: the gate written at j
        rank, distinct = ranks[chunk.start : chunk.stop], ok[chunk.start : chunk.stop]
        distinct[:] = inside
        for j in range(1, n):
            digit = np.zeros(len(part), dtype=np.int8)  # gates below cols[j] written left of it
            for i in range(j):
                digit += cols[i] < cols[j]
                distinct &= cols[i] != cols[j]
            rank += weights[cols[j]] * digit
    return ranks, ok


def _ranks_or_raise(labeling: Labeling, rows: np.ndarray) -> np.ndarray:
    """The Lehmer ranks of ``rows``, one written order per row; the first
    row that is no permutation raises the error of ``labeling.label``."""
    rows = np.asarray(rows)
    ranks, ok = _lehmer_ranks(rows, labeling.n)
    if not ok.all():
        labeling.label(rows[ok.argmin()].tolist())  # raises its DomainError
    return ranks


# Words resolved per call of Labeling.words on the oracle route.
_WORD_BLOCK = 4096


@lru_cache(maxsize=None)
def _designated_rows(n: int) -> np.ndarray:
    """The two designated words of each pair j < k, in (j, k) order, as
    written orders: rows 2i and 2i + 1 of the i-th pair are the other gates
    descending, then j k, and then k j."""
    pairs = list(itertools.combinations(range(n), 2))
    rows = np.empty((len(pairs), 2, n), dtype=np.int64)
    for i, (j, k) in enumerate(pairs):
        rows[i, :, : n - 2] = [g for g in range(n - 1, -1, -1) if g not in (j, k)]
        rows[i, :, n - 2 :] = (j, k), (k, j)
    rows = rows.reshape(-1, n)
    rows.flags.writeable = False
    return rows


def _derived_table(labeling: Labeling) -> CommutationTable:
    """Pairwise exponents from the two designated permutations per pair:
    e[j][k] = label(desc-others U_j U_k) - label(desc-others U_k U_j),
    every designated word labeled in one :meth:`Labeling.labels` call."""
    n, m = labeling.n, labeling.size
    x = [int(v) for v in labeling.labels(_designated_rows(n))]
    return CommutationTable.from_upper(n, {
        pair: (x[2 * i] - x[2 * i + 1]) % m
        for i, pair in enumerate(itertools.combinations(range(n), 2))
    })


def _find_witness(keys: np.ndarray, n: int, table: CommutationTable) -> ContradictionWitness | None:
    """Scan adjacent-transposition constraints for pairs whose implied
    exponent disagrees with the derived table; report the smallest pair,
    with the first implied exponent in (x, p) order.

    ``keys[x]`` is the base-n key of word(x).  Swapping the symbols left,
    right at positions p, p + 1 of word(x) gives the word of some x', and
    the labels imply e[left][right] = x - x' mod n!.  The partner keys of
    one p are found at once by binary search in the sorted keys; a partner
    that no x labels, or a swap of equal symbols, implies nothing.
    """
    m = len(keys)
    by_key = np.argsort(keys)
    ordered = keys[by_key]
    e = table.array
    xs = np.arange(m)
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    found: list[tuple[int, int, int, int]] = []  # (j * n + k, x, p, implied e[j][k])
    right = keys // place[0] % n
    for p in range(n - 1):
        left, right = right, keys // place[p + 1] % n
        partner = keys + (right - left) * (place[p] - place[p + 1])
        x_partner = by_key[np.minimum(np.searchsorted(ordered, partner), m - 1)]
        implied = (xs - x_partner) % m  # e[left][right]
        bad = (keys[x_partner] == partner) & (left != right) & (implied != e[left, right])
        if bad.any():
            pair = np.where(bad, np.minimum(left, right) * n + np.maximum(left, right), n * n)
            x = int(pair.argmin())  # the first x of the smallest pair
            value = int(implied[x]) if left[x] < right[x] else int(-implied[x] % m)
            found.append((int(pair[x]), x, p, value))
    if not found:
        return None
    pair, _, _, value = min(found)
    j, k = divmod(pair, n)
    return ContradictionWitness((j, k), (table.entry(j, k), value))


def _pair_sums_hold(labeling: Labeling, table: CommutationTable) -> bool:
    """Whether phi(x) - phi(0) = x mod n! for every x, where phi is the
    :meth:`~fpp.commutation.PairSum.of_positions` pair sum over the acting
    positions of word(x), gathered from its block tables.

    The xs run in the chunks of :func:`_chunks`, at 8n + 24 bytes a state
    (the intp positions and three int64 vectors), each decoded once through
    :meth:`Labeling.positions` (for the factoradic labeling, by
    :func:`factoradic_blocks`).  False at the first chunk with an x that
    fails or a position outside [0, n), and without a look where the sums
    could pass int64 (:attr:`~fpp.commutation.PairSum.fits_int64`)."""
    n, m = labeling.n, labeling.size
    pair_sum = PairSum.of_positions(table)
    if not pair_sum.fits_int64:
        return False
    p0 = 0
    for chunk in _chunks(range(m), _chunk_rows(8 * n + 24)):
        keys = labeling.positions(chunk)  # intp, ours to scale
        if keys.view(np.uintp).max() >= n:  # a negative one wraps past n
            return False
        # phase[r] ends as phi(x) - x - phi(0) for x = chunk[r]
        phase = np.arange(-chunk.start - p0, -chunk.stop - p0, -1, dtype=np.int64)
        add_block_sums(phase, keys, pair_sum.blocks)
        if chunk.start == 0:
            p0 = int(phase[0]) % m
            phase -= p0
        phase %= m
        if phase.any():
            return False
    return True


def validate_labeling(labeling: Labeling) -> ConsistencyResult:
    """Derive the pairwise table and check every labeled word against it.

    Consistent iff for every x the exponent of word(x) relative to word(0)
    equals x mod n!.  Every x is checked, with no sampling, as a pair sum
    over acting positions (:func:`_pair_sums_hold`): one int64 gather per
    pair of two-gate blocks, over chunks of positions, with nothing of size
    n! held.  A pass needs no separate bijectivity check: distinct x get
    distinct exponents, so no two x share a word.

    Where the pair sums do not hold, or the table cannot be derived, the
    oracle route decides, over blocks of x: each block's words are
    resolved once through :meth:`Labeling.words`, kept as base-n keys, and
    fed to the bubble-sort oracle :func:`brute_force_phases`, which sorts
    the whole block at once.  The sorted keys then check bijectivity, which
    a labeling must pass before any other verdict or error, and the keys
    give the contradiction witness.
    """
    try:
        table, unlabeled = _derived_table(labeling), None
    except (FppError, NotImplementedError) as exc:
        # a labeling that is not a bijection may answer no label(); it
        # fails on bijectivity first
        table, unlabeled = None, exc
    if table is not None and _pair_sums_hold(labeling, table):
        return ConsistencyResult("consistent", table, None)
    n, m = labeling.n, labeling.size
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = np.empty(m, dtype=np.int64)
    p0, consistent = None, True
    for lo in range(0, m, _WORD_BLOCK):
        hi = min(lo + _WORD_BLOCK, m)
        block = word_rows(labeling.words(range(lo, hi)), n)
        keys[lo:hi] = block @ place
        if table is not None and consistent:
            p = brute_force_phases(block, table)
            p0 = p[0] if p0 is None else p0
            consistent = bool(((p - p0) % m == np.arange(lo, hi)).all())
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        raise DomainError(f"labeling {labeling.name!r} is not bijective")
    if unlabeled is not None:
        raise unlabeled
    if not consistent:
        return ConsistencyResult("contradiction", None, _find_witness(keys, n, table))
    return ConsistencyResult("consistent", table, None)


def enumerate_valid_labelings(n: int = 3) -> list[ExplicitLabeling]:
    """All consistent labelings with word(0) fixed to the descending word,
    sorted by their word tuples.

    A labeling is consistent exactly when some antisymmetric table e makes
    phi(w) = sum of e[j][k] over the written pairs "j k" of w with j < k
    (the exponent of w relative to the descending word) a bijection onto
    Z_{n!}; then word(x) is the w with phi(w) = x, and validation derives
    e back from it.  So the enumeration runs over the (n!)^(n(n-1)/2)
    tables, not over labelings: at n=3, 216 tables, of which 24 are
    consistent.  Only n=3 is supported: n=4 has 24^6 tables.
    """
    if n != 3:
        raise UnsupportedError(
            "enumeration is exhaustive over the (n!)^(n(n-1)/2) tables; only n=3 is supported"
        )
    m = factorial(n)
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    words = list(itertools.permutations(range(n)))
    # ascending[w, i]: word w writes the smaller gate of pair i to the left
    ascending = np.array([[w.index(j) < w.index(k) for j, k in pairs] for w in words])
    tables = np.array(list(itertools.product(range(m), repeat=len(pairs))))
    phases = tables @ ascending.T % m
    onto = (np.sort(phases, axis=1) == np.arange(m)).all(axis=1)
    found = sorted(
        (tuple(words[i] for i in np.argsort(phase)), tuple(row.tolist()))
        for row, phase in zip(tables[onto], phases[onto])
    )
    valid: list[ExplicitLabeling] = []
    for i, (orders, upper) in enumerate(found):
        labeling = ExplicitLabeling(n, np.array(orders, dtype=np.int8), name=f"enumerated-{i}")
        table = CommutationTable.from_upper(n, dict(zip(pairs, upper)))
        labeling._validation = ConsistencyResult("consistent", table, None)
        valid.append(labeling)
    return valid


def relabeled(labeling: Labeling, tau: Sequence[int], name: str | None = None) -> ExplicitLabeling:
    """Rename gate symbols through the permutation tau: word'(x) = tau o word(x).

    Renaming the unitaries of a promise-satisfying set preserves the promise,
    so relabeling a consistent labeling yields another consistent one (with a
    different pairwise table and a different identity word in general).

    The word table is tau[labeling.words(xs)], filled over the chunks of
    :func:`_chunks` (a factoradic source decodes each by
    :func:`factoradic_blocks`), so no PermWord is built and the renamed
    labeling holds its two arrays: 4.7 MB at n=9.
    """
    n, m = labeling.n, labeling.size
    if sorted(tau) != list(range(n)):
        raise DomainError(f"tau {tuple(tau)} is not a permutation of 0..{n - 1}")
    rename = np.array(tau, dtype=np.int8)
    table = np.empty((m, n), dtype=np.int8)
    for chunk in _chunks(range(m), _chunk_rows(4 * n)):
        table[chunk.start : chunk.stop] = rename[labeling.words(chunk)]
    return ExplicitLabeling(n, table, name or f"{labeling.name}-renamed")


def labeling_to_text(labeling: Labeling) -> str:
    """One line per x: the label followed by the written word, formatted
    from the rows of :meth:`Labeling.words` over the chunks of
    :func:`_chunks`."""
    lines = []
    for chunk in _chunks(range(labeling.size), _chunk_rows(64 * labeling.n)):
        rows = labeling.words(chunk).tolist()
        lines += [f"{x} {' '.join(map(str, row))}" for x, row in zip(chunk, rows)]
    return "\n".join(lines) + "\n"


def _integer_rows(entries: list[list[str]], width: int) -> np.ndarray:
    """The fields of ``entries``, ``width`` to each, as integers in one
    numpy conversion: int64, or Python integers where one does not fit.
    Raises ValueError where a field is not an integer."""
    shape = (len(entries), width)
    fields = itertools.chain.from_iterable(entries)
    try:
        values = np.fromiter(fields, np.int64, count=shape[0] * shape[1])
    except OverflowError:  # out of every range, but an x given twice is still repeated
        values = np.array([int(f) for f in itertools.chain.from_iterable(entries)], dtype=object)
    return values.reshape(shape)


def _parses(entry: list[str]) -> bool:
    """Whether every field of ``entry`` reads as an integer."""
    try:
        [int(f) for f in entry]
    except ValueError:
        return False
    return True


def labeling_from_text(text: str, name: str = "file") -> ExplicitLabeling:
    """Parse the :func:`labeling_to_text` format: per line a label x and
    then the written word; blank lines and lines starting with # are
    skipped.

    The lines are split once and their integers read in one numpy
    conversion; the word table is filled by x, with no PermWord per line.
    A file that does not parse raises the error of its first failing line,
    and on that line the first of: fields that are not integers, a word of
    another length than the first entry's, an x given on an earlier line, a
    word that is not a permutation.  After the lines come an empty file, a
    file that does not cover x = 0..n!-1, and repeated words.
    """
    lines = text.splitlines()
    entries = [fields for fields in map(str.split, lines) if fields and fields[0][0] != "#"]
    if not entries:
        raise DomainError("empty labeling file")
    width = len(entries[0])
    other = np.flatnonzero(np.fromiter(map(len, entries), np.intp, len(entries)) != width)
    stop = int(other[0]) if len(other) else len(entries)
    try:
        block = _integer_rows(entries[:stop], width)
    except ValueError:
        stop = next(i for i, fields in enumerate(entries) if not _parses(fields))
        block = _integer_rows(entries[:stop], width)
    # block holds the entries before the first malformed one, at stop
    xs, n = block[:, 0], width - 1
    order = np.argsort(xs, kind="stable")
    repeats = order[1:][xs[order[1:]] == xs[order[:-1]]]  # each later entry of an x
    repeat = int(repeats.min()) if len(repeats) else len(entries)
    ok = _lehmer_ranks(block[:, 1:], n)[1]
    unordered = int(ok.argmin()) if not ok.all() else len(entries)
    first = min(repeat, unordered, stop)
    if first < len(entries):
        linenos = [i for i, fields in enumerate(map(str.split, lines), start=1)
                   if fields and fields[0][0] != "#"]
        lineno = linenos[first]
        if first == repeat:
            x = int(xs[first])
            given = linenos[int((xs == x).argmax())]
            raise DomainError(f"line {lineno}: x={x} already given on line {given}")
        if first == unordered:
            PermWord(n, tuple(block[first, 1:].tolist()))  # raises its DomainError
        if not _parses(entries[first]):
            raise DomainError(f"line {lineno}: fields must be integers, got {lines[lineno - 1].strip()!r}")
        raise DomainError(
            f"line {lineno}: word has {len(entries[first]) - 1} symbols, "
            f"but line {linenos[0]} has {n}"
        )
    m = factorial(n)
    if len(entries) != m or xs.min() < 0 or xs.max() >= m:  # no x repeats
        raise DomainError("labeling file must cover x = 0..n!-1 exactly once")
    table = np.empty((m, n), dtype=np.int8)
    table[xs.astype(np.intp)] = block[:, 1:]
    return ExplicitLabeling(n, table, name)
