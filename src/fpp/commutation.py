"""Pairwise commutation phase algebra over exponents mod n!.

Gates are abstract symbols U_0..U_{n-1}.  A word is a product written
left-to-right with the RIGHTMOST symbol acting first.  Exchanging an adjacent
written pair "j k" into "k j" multiplies the operator by the phase
omega^{e[j][k] * y}, where e is an antisymmetric integer table mod n! and y
stays symbolic throughout.  All bookkeeping is exact integer arithmetic; no
floating point enters the symbolic path.

Three independent routes compute the exponent of a word relative to the
descending order: an insertion-sort engine (:func:`normal_order`), a closed
pairwise-sum formula (:func:`perm_phase_exponent`), and a literal bubble-sort
oracle (:func:`brute_force_phase`).  Each takes any sequence of gate indices
in 0..n-1, repeats allowed (equal symbols commute, so only inverted pairs of
distinct symbols contribute), and returns a plain int mod n!.  They must
always agree; tests enforce it.  The bubble sort exists once, in numpy over
a block of equal-length words (:func:`brute_force_phases`, which labeling
validation runs where a labeling fails); :func:`brute_force_phase` is its
one-row call.

A fourth route reads a permutation word by the acting positions of its
gates: the written pair "j k" (j < k) is there exactly where U_k acts
before U_j, so the exponent is a sum over gate pairs of a table indexed by
the two positions (:func:`position_pairs`).  :func:`block_tables` folds
such per-pair tables over blocks of two gates, and :func:`add_block_sums`
gathers them over a block of words in int64, one gather per pair of
blocks; labeling validation and the circuit sweep both run it.  The fold
does not reduce mod n!, so a sum is exact in int64 while the number of
per-pair tables times n! stays below 2^63: with every pair, up to n = 18;
at n = 12 a sum is at most C(12, 2) * 12!, about 3.2e10.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial
from typing import Sequence

import numpy as np

from .errors import DomainError, InvariantError

__all__ = [
    "CommutationTable",
    "factoradic_table",
    "random_table",
    "normal_order",
    "perm_phase_exponent",
    "brute_force_phase",
    "brute_force_phases",
    "word_rows",
    "position_pairs",
    "block_tables",
    "add_block_sums",
]


@dataclass(frozen=True)
class CommutationTable:
    """Antisymmetric table e[j][k] mod n! with U_j U_k = omega^{e[j][k]*y} U_k U_j."""

    n: int
    entries: dict[tuple[int, int], int] = field(repr=False)

    def __post_init__(self) -> None:
        m = factorial(self.n)
        object.__setattr__(self, "_modulus", m)
        pairs = {(j, k) for j in range(self.n) for k in range(self.n) if j != k}
        if set(self.entries) != pairs:
            raise InvariantError("table must define e[j][k] for every j != k")
        for j in range(self.n):
            for k in range(j + 1, self.n):
                if (self.entries[(j, k)] + self.entries[(k, j)]) % m != 0:
                    raise InvariantError(
                        f"antisymmetry violated for pair ({j}, {k})"
                    )

    @property
    def modulus(self) -> int:
        return self._modulus  # type: ignore[attr-defined]

    def entry(self, j: int, k: int) -> int:
        return self.entries[(j, k)]

    @classmethod
    def from_upper(cls, n: int, upper: dict[tuple[int, int], int]) -> "CommutationTable":
        """Build from e[j][k] given for j < k; the antisymmetric half is filled in."""
        m = factorial(n)
        entries: dict[tuple[int, int], int] = {}
        for j in range(n):
            for k in range(j + 1, n):
                v = upper[(j, k)] % m
                entries[(j, k)] = v
                entries[(k, j)] = (-v) % m
        return cls(n, entries)


def factoradic_table(n: int) -> CommutationTable:
    """The table of the factoradic labeling: e[j][k] = k! for j < k."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    m = factorial(n)
    return CommutationTable.from_upper(
        n, {(j, k): factorial(k) % m for j in range(n) for k in range(j + 1, n)}
    )


def random_table(n: int, rng: random.Random) -> CommutationTable:
    """A random antisymmetric table, for property tests."""
    m = factorial(n)
    return CommutationTable.from_upper(
        n,
        {(j, k): rng.randrange(m) for j in range(n) for k in range(j + 1, n)},
    )


def _symbols(word: Sequence[int], table: CommutationTable) -> list[int]:
    """``word`` as a list, after checking every symbol is in 0..n-1."""
    seq = list(word)
    if seq and not (0 <= min(seq) and max(seq) < table.n):
        raise DomainError(f"word {tuple(seq)} has a symbol outside 0..{table.n - 1}")
    return seq


def normal_order(
    word: Sequence[int],
    table: CommutationTable,
    direction: str = "descending",
) -> int:
    """Exponent picked up sorting a written word into descending or
    ascending index order.

    Insertion sort over the written sequence; each adjacent exchange of a
    written pair "j k" into "k j" adds e[j][k] to the accumulated exponent.
    Equal symbols are never exchanged.  The result is independent of the
    transposition path because the phases compose per unordered pair.
    """
    seq = _symbols(word, table)
    if direction not in ("descending", "ascending"):
        raise DomainError(f"unknown direction {direction!r}")
    want_desc = direction == "descending"
    e = table.entries
    exponent = 0
    for right in range(1, len(seq)):
        pos = right
        while pos > 0 and (
            (seq[pos - 1] < seq[pos]) if want_desc else (seq[pos - 1] > seq[pos])
        ):
            exponent += e[(seq[pos - 1], seq[pos])]
            seq[pos - 1], seq[pos] = seq[pos], seq[pos - 1]
            pos -= 1
    return exponent % table.modulus


def perm_phase_exponent(word: Sequence[int], table: CommutationTable) -> int:
    """Exponent of a written word relative to the descending order.

    Closed form: sum of e[a][b] over written pairs with the smaller index to
    the left of the larger one.
    """
    seq = _symbols(word, table)
    e = table.entries
    total = 0
    for a in range(len(seq)):
        sa = seq[a]
        for b in range(a + 1, len(seq)):
            if sa < seq[b]:
                total += e[(sa, seq[b])]
    return total % table.modulus


def word_rows(words: Sequence[Sequence[int]] | np.ndarray, n: int) -> np.ndarray:
    """``words`` as an int64 array, one row per word, after checking every
    symbol is in 0..n-1; the error names the first row that is not."""
    seq = np.array(words, dtype=np.int64, ndmin=2)
    if seq.size and (seq.min() < 0 or seq.max() >= n):
        row = seq[((seq < 0) | (seq >= n)).any(axis=1).argmax()]
        raise DomainError(f"word {tuple(row.tolist())} has a symbol outside 0..{n - 1}")
    return seq


def brute_force_phases(
    words: Sequence[Sequence[int]] | np.ndarray, table: CommutationTable
) -> np.ndarray:
    """Independent oracle over a block of equal-length words: bubble-sort
    every row to descending order at once, one phase per adjacent swap.

    Pass after pass, each adjacent column pair is compared on every row; a
    row whose written pair "a b" has a < b swaps it and adds e[a][b].
    Returns one exponent mod n! per row: int64, or Python ints (object
    dtype) where the unreduced sum could pass int64.  Raises
    :class:`DomainError` naming the first row with a symbol outside 0..n-1.
    """
    seq = word_rows(words, table.n)
    n, m = table.n, table.modulus
    width = seq.shape[1]
    swaps = width * (width - 1) // 2
    dtype = np.int64 if swaps * (m - 1) < 2**63 else object
    # swap_phase[a * n + b] = e[a][b] where a < b, else 0: no swap, no phase.
    swap_phase = np.zeros(n * n, dtype=dtype)
    for (a, b), v in table.entries.items():
        if a < b:
            swap_phase[a * n + b] = v
    exponent = np.zeros(len(seq), dtype=dtype)
    cols = list(seq.T.copy())
    for end in range(width - 1, 0, -1):
        for i in range(end):
            left, right = cols[i], cols[i + 1]
            exponent += swap_phase[left * n + right]
            cols[i], cols[i + 1] = np.maximum(left, right), np.minimum(left, right)
    return exponent % m


def brute_force_phase(word: Sequence[int], table: CommutationTable) -> int:
    """Independent oracle: bubble-sort to descending order, one phase per
    swap; :func:`brute_force_phases` on a single row."""
    return int(brute_force_phases([list(word)], table)[0])


def position_pairs(table: CommutationTable) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The exponent relative to the descending order as a pair sum over
    acting positions: (j, k, E) for each j < k with e[j][k] != 0 mod n!, in
    ascending k, where E[a * n + b] = e[j][k] if b < a and 0 otherwise
    (int64, reduced mod n!).  With U_j acting at a and U_k at b, b < a is
    the written pair "j k", the one :func:`perm_phase_exponent` counts."""
    n, m = table.n, table.modulus
    below = np.tri(n, k=-1, dtype=np.int64).reshape(n * n)  # [a * n + b]: b < a
    return tuple(
        (j, k, table.entries[j, k] % m * below)
        for k in range(n) for j in range(k) if table.entries[j, k] % m
    )


def block_tables(
    pairs: Sequence[tuple[int, int, np.ndarray]], n: int
) -> tuple[tuple[int, int, np.ndarray], ...]:
    """The per-pair tables (g, p, W), g < p, folded over blocks of two
    gates for :func:`add_block_sums`.

    Gates 2b and 2b + 1 form block b, keyed K_b = key_2b * n + key_2b+1 <
    n^2; for odd n the last gate is a block alone, keyed by its own key.
    Returns (b, c, T) for each b < c with a nonzero cross pair, in
    descending b: T[K_c * n^2 + K_b] is the sum of the W of the (up to
    four) pairs with one gate in each block, int64 of length n^4.  The
    pair within block b is added to the first such T whose b is b, else to
    the first whose c is b; where neither exists, it comes alone as (b, b,
    W), read at K_b.  Nothing is reduced mod n!: each entry is a sum of
    per-pair entries, so a blocked sum equals the per-pair sum as int64.
    Built in numpy over the live block pairs alone."""
    cross, within = {}, {}  # (b, c): [(s, r, W) of gates 2c + s, 2b + r]; k: W
    for g, p, w in pairs:
        if n % 2 and p == n - 1:  # its block's low digit; the high one is empty (key 0)
            p = n
        if g >> 1 == p >> 1:
            within[g >> 1] = w
        else:
            cross.setdefault((g >> 1, p >> 1), []).append((p & 1, g & 1, w))
    live = sorted(cross, key=lambda bc: (-bc[0], bc[1]))
    # [l, key_2c, key_2c+1, K_b]; made before the temporaries below, which
    # kept 3 MB off the peak of an n=10 run by where the allocator put them
    folded = np.empty((len(live), n, n, n * n), dtype=np.int64)
    # terms[l, s, r, a, a']: the pair of gate 2c + s at key a and gate 2b + r at key a'
    terms = np.zeros((len(live), 2, 2, n, n), dtype=np.int64)
    for l, bc in enumerate(live):
        for s, r, w in cross[bc]:
            terms[l, s, r] = w.reshape(n, n).T
    # rows[l, s, a, K_b]: the pairs of gate 2c + s at key a with block b at K_b
    rows = (terms[:, :, 0, :, :, None] + terms[:, :, 1, :, None, :]).reshape(-1, 2, n, n * n)
    as_b, as_c = {}, {}  # block: the first table whose b (c) it is
    for l, (b, c) in enumerate(live):
        as_b.setdefault(b, l)
        as_c.setdefault(c, l)
    alone, later = [], []
    for k, w in within.items():
        if k in as_b:
            rows[as_b[k], 0] += w
        elif k in as_c:
            later.append((as_c[k], w))
        else:
            alone.append((k, k, w))
    np.add(rows[:, 0, :, None, :], rows[:, 1, None, :, :], out=folded)
    for l, w in later:
        folded[l] += w.reshape(n, n, 1)
    blocks = [(b, c, t) for (b, c), t in zip(live, folded.reshape(-1, n**4))]
    return tuple(sorted(blocks + alone, key=lambda t: -t[0]))


def add_block_sums(
    phase: np.ndarray, keys: np.ndarray, blocks: Sequence[tuple[int, int, np.ndarray]]
) -> None:
    """Add the pair sum of every column of ``keys`` to ``phase``, in place,
    one int64 gather per block table (b, c, T) of :func:`block_tables`:
    phase[r] += T[K_c * n^2 + K_b] (T[K_b] where b = c), with K_b the key
    of block b in column r and n ``len(keys)``.  That is the sum of W[keys[g,
    r] * n + keys[p, r]] over the per-pair tables (g, p, W) the blocks were
    folded from, exactly.

    ``keys`` is intp, each entry in [0, n), and is the caller's to give up:
    row 2b is made K_b, times n^2 once b is above the b of a table.  Every
    table entry is a sum of per-pair entries, so with each per-pair entry
    below n!, the sum added is below (number of per-pair tables) * n!; the
    caller bounds that below 2^63 and reduces the result."""
    n, size = len(keys), len(phase)
    lead = keys[: n - 1 : 2]  # the first gate of each block of two
    lead *= n
    lead += keys[1::2]
    at, term = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.int64)
    scaled = (n + 1) // 2  # the blocks from here on hold K * n^2
    for b, c, table in blocks:  # descending b, so every c > b is scaled by now
        if scaled > b + 1:
            keys[2 * b + 2 : 2 * scaled : 2] *= n * n
            scaled = b + 1
        if b == c:
            table.take(keys[2 * b], out=term, mode="clip")  # clip: no buffered bound check
        else:
            np.add(keys[2 * c], keys[2 * b], out=at)
            table.take(at, out=term, mode="clip")
        phase += term
