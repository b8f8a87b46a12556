"""Permutation words, labelings, labeling validation and enumeration.

A :class:`PermWord` stores the written product order: ``order[0]`` is the
leftmost symbol and acts LAST; the rightmost entry acts first.  A labeling is
a bijection x -> PermWord over x in [0, n!-1].  The factoradic labeling
starts from the descending word and shifts U_1 right a_1 steps, then U_2
right a_2 steps, and so on, where (a_1, ..., a_{n-1}) are the factorial
digits of x ("right" means toward the end of the written product, i.e.
toward acting earlier).

Validation derives the pairwise table from the two designated permutations
per pair (all other gates in descending order in front), then checks with
the independent brute-force oracle that the exponent of every labeled word
relative to the identity word equals its label.  The oracle is a bubble sort
run in numpy over blocks of words, on every x at every n.  On failure a
witness pair with two conflicting exponents is produced from
adjacent-transposition constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial
from typing import Iterator, Sequence

import numpy as np

from .commutation import CommutationTable, brute_force_phases, word_rows
from .errors import DomainError, RangeError, UnsupportedError
from .numsys import FactoradicDigits, from_factoradic, to_factoradic

__all__ = [
    "PermWord",
    "Labeling",
    "FactoradicLabeling",
    "ExplicitLabeling",
    "ContradictionWitness",
    "ConsistencyResult",
    "factoradic_labeling",
    "label_of",
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
        """Written orders of the words of ``xs``, one row per x (shape len(xs) x n)."""
        return np.array(
            [self.word(x).order for x in xs], dtype=np.int64
        ).reshape(len(xs), self.n)

    def label(self, w: PermWord | Sequence[int]) -> int:
        raise NotImplementedError

    def items(self) -> Iterator[tuple[int, PermWord]]:
        for x in range(self.size):
            yield x, self.word(x)

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
        """:meth:`word` for a whole array of xs: the same shifts, one column
        operation per gate over every row at once.

        ``pos[:, g]`` tracks the written index of gate g, so U_k's index needs
        no search; the words are scattered from it once at the end.
        """
        arr = self._check_xs(xs)
        n = self.n
        rows = np.arange(len(arr))[:, None]
        pos = np.tile(np.arange(n - 1, -1, -1), (len(arr), 1))
        for k in range(1, n):
            i = pos[:, k, None]
            j = i + (arr[:, None] // factorial(k)) % (k + 1)
            # U_k moves from written index i to j; what lies between moves
            # one step left.
            pos -= (pos > i) & (pos <= j)
            pos[:, k, None] = j
        seq = np.empty_like(pos)
        seq[rows, pos] = np.arange(n)
        return seq

    def label(self, w: PermWord | Sequence[int]) -> int:
        order = w.order if isinstance(w, PermWord) else tuple(w)
        if sorted(order) != list(range(self.n)):
            raise DomainError(f"word {order} does not have size n={self.n}")
        # Undo the shifts largest gate first: its written index is its digit.
        seq = list(order)
        digits = [0] * (self.n - 1)
        for k in range(self.n - 1, 0, -1):
            i = seq.index(k)
            digits[k - 1] = i
            seq.pop(i)
        return from_factoradic(FactoradicDigits(self.n, tuple(digits)))


class ExplicitLabeling(Labeling):
    """A labeling given by an explicit word table."""

    def __init__(self, n: int, words: Sequence[PermWord], name: str) -> None:
        super().__init__(n, name)
        if len(words) != self.size:
            raise DomainError(
                f"expected {self.size} words for n={n}, got {len(words)}"
            )
        for x, w in enumerate(words):
            if w.n != n:
                raise DomainError(f"word {x} {w.order} does not have size n={n}")
        self._words = tuple(words)
        self._inverse = {w.order: x for x, w in enumerate(self._words)}
        if len(self._inverse) != self.size:
            raise DomainError("labeling is not bijective: repeated words")
        self._table: np.ndarray | None = None

    def word(self, x: int) -> PermWord:
        self._check_x(x)
        return self._words[x]

    def words(self, xs: Sequence[int]) -> np.ndarray:
        """Rows of the n! x n word table, built on first use (int8: n < 128)."""
        arr = self._check_xs(xs)
        if self._table is None:
            self._table = np.array([w.order for w in self._words], dtype=np.int8)
        return self._table[arr].astype(np.int64)

    def label(self, w: PermWord | Sequence[int]) -> int:
        order = w.order if isinstance(w, PermWord) else tuple(w)
        try:
            return self._inverse[order]
        except KeyError:
            raise DomainError(f"word {order} not present in labeling {self.name!r}")


def factoradic_labeling(n: int) -> FactoradicLabeling:
    """Factory matching the operation name used throughout the docs and CLI."""
    return FactoradicLabeling(n)


def label_of(labeling: Labeling, w: PermWord | Sequence[int]) -> int:
    """Inverse lookup: the x with labeling.word(x) == w."""
    return labeling.label(w)


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


# Words resolved per call of Labeling.words while validating.
_WORD_BLOCK = 4096


def _derived_table(labeling: Labeling) -> CommutationTable:
    """Pairwise exponents from the two designated permutations per pair:
    e[j][k] = label(desc-others U_j U_k) - label(desc-others U_k U_j)."""
    n = labeling.n
    m = labeling.size
    upper: dict[tuple[int, int], int] = {}
    for j in range(n):
        for k in range(j + 1, n):
            others = tuple(g for g in range(n - 1, -1, -1) if g not in (j, k))
            x1 = labeling.label(PermWord(n, others + (j, k)))
            x2 = labeling.label(PermWord(n, others + (k, j)))
            upper[(j, k)] = (x1 - x2) % m
    return CommutationTable.from_upper(n, upper)


def _find_witness(labeling: Labeling, table: CommutationTable) -> ContradictionWitness | None:
    """Scan adjacent-transposition constraints for pairs whose implied
    exponent disagrees with the derived table; report the smallest pair."""
    m = labeling.size
    conflicts: dict[tuple[int, int], int] = {}
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
    return ContradictionWitness(pair, (table.entry(*pair), conflicts[pair]))


def validate_labeling(labeling: Labeling) -> ConsistencyResult:
    """Derive the pairwise table and check every labeled word against it.

    Consistent iff for every x the brute-force exponent of word(x) relative
    to word(0) equals x mod n!.  Every x is checked, with no sampling: each
    word is resolved once, through :meth:`Labeling.words` in blocks, and
    kept as its base-n key.  The sorted keys check bijectivity; decoded
    again block by block, they feed the bubble-sort oracle
    :func:`brute_force_phases`, which sorts a whole block at once.
    """
    n, m = labeling.n, labeling.size
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = np.empty(m, dtype=np.int64)
    for lo in range(0, m, _WORD_BLOCK):
        block = word_rows(labeling.words(range(lo, min(lo + _WORD_BLOCK, m))), n)
        keys[lo:lo + len(block)] = block @ place
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        raise DomainError(f"labeling {labeling.name!r} is not bijective")

    table = _derived_table(labeling)
    p0 = None
    for lo in range(0, m, _WORD_BLOCK):
        hi = min(lo + _WORD_BLOCK, m)
        p = brute_force_phases(keys[lo:hi, None] // place % n, table)
        p0 = p[0] if p0 is None else p0
        if ((p - p0) % m != np.arange(lo, hi)).any():
            witness = _find_witness(labeling, table)
            return ConsistencyResult("contradiction", None, witness)
    return ConsistencyResult("consistent", table, None)


def enumerate_valid_labelings(n: int = 3) -> list[ExplicitLabeling]:
    """All consistent labelings with word(0) fixed to the descending word.

    Exhaustive over the (n!-1)! assignments of the remaining labels, which is
    only tractable for n=3 (5! = 120 candidates, 24 survive).
    """
    if n != 3:
        raise UnsupportedError(
            "enumeration is exhaustive over (n!-1)! assignments; only n=3 is supported"
        )
    identity = PermWord(n, tuple(range(n - 1, -1, -1)))
    others = [
        PermWord(n, p)
        for p in itertools.permutations(range(n))
        if p != identity.order
    ]
    valid: list[ExplicitLabeling] = []
    for assignment in itertools.permutations(others):
        candidate = ExplicitLabeling(
            n, (identity, *assignment), name=f"enumerated-{len(valid)}"
        )
        if candidate.validate().consistent:
            valid.append(candidate)
    return valid


def relabeled(labeling: Labeling, tau: Sequence[int], name: str | None = None) -> ExplicitLabeling:
    """Rename gate symbols through the permutation tau: word'(x) = tau o word(x).

    Renaming the unitaries of a promise-satisfying set preserves the promise,
    so relabeling a consistent labeling yields another consistent one (with a
    different pairwise table and a different identity word in general).
    """
    n = labeling.n
    if sorted(tau) != list(range(n)):
        raise DomainError(f"tau {tuple(tau)} is not a permutation of 0..{n - 1}")
    words = [
        PermWord(n, tuple(tau[g] for g in labeling.word(x).order))
        for x in range(labeling.size)
    ]
    return ExplicitLabeling(n, words, name or f"{labeling.name}-renamed")


def labeling_to_text(labeling: Labeling) -> str:
    """One line per x: the label followed by the written word."""
    lines = [
        f"{x} {' '.join(str(g) for g in w.order)}" for x, w in labeling.items()
    ]
    return "\n".join(lines) + "\n"


def labeling_from_text(text: str, name: str = "file") -> ExplicitLabeling:
    """Parse the :func:`labeling_to_text` format."""
    entries: dict[int, PermWord] = {}
    lines: dict[int, int] = {}  # x -> the line number that gave it
    first: tuple[int, int] | None = None  # (line number, word length) of the first entry
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = [int(p) for p in line.split()]
        except ValueError:
            raise DomainError(f"line {lineno}: fields must be integers, got {line!r}") from None
        x, order = fields[0], tuple(fields[1:])
        if first is None:
            first = (lineno, len(order))
        elif len(order) != first[1]:
            raise DomainError(
                f"line {lineno}: word has {len(order)} symbols, "
                f"but line {first[0]} has {first[1]}"
            )
        if x in lines:
            raise DomainError(f"line {lineno}: x={x} already given on line {lines[x]}")
        lines[x] = lineno
        entries[x] = PermWord(len(order), order)
    if first is None:
        raise DomainError("empty labeling file")
    n = first[1]
    if sorted(entries) != list(range(factorial(n))):
        raise DomainError("labeling file must cover x = 0..n!-1 exactly once")
    return ExplicitLabeling(n, [entries[x] for x in range(factorial(n))], name)
