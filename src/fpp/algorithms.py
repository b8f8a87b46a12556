"""Constructors for the causal algorithms, block decomposition, and the verifier.

Families
--------
Every family is one entry of :data:`FAMILIES`, which the CLI and
:func:`expected_queries` read.

* ``switch``         the n-switch itself: one call per gate, query count n.
* ``sim-switch``     O(n^2) switch simulation by controlled swaps.
* ``superperm``      switch simulation over the length n^2-2n+4 gate rail
                     that contains every permutation as a subsequence
                     (n in {3, 4}).
* ``six-query``      the n=3 algorithm that drops below the rail bound by
                     paying one permutation as a commutation phase on a
                     second target.
* ``nlogn``          the factoradic-labeling algorithm with bit-register
                     control, O(n log n) queries; ``nlogn-reduced`` drops the
                     redundant wires/bits known for n in {4, 8}.
* ``sqrt``           the labeling-agnostic O(n sqrt n) algorithm built on the
                     block decomposition.

The verifier executes a circuit for every control basis state, checks that
the word on each wire is x-independent up to commutation (same multiset, and
tokens returned home), accumulates the phase exponent of the rewrite onto
the x=0 reference, and recovers y from the linear phase profile.  It sweeps
the control states in chunks where every apply of a gate is routed by that
gate's own key, settling the residuals from per-gate ok rows before it
builds the per-gate-pair phase tables, and one at a time through
:func:`~fpp.circuit.execute` otherwise.  Exponents are exact integers mod
n!, with y symbolic until solve time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from math import factorial, gcd, isqrt, log2
from operator import attrgetter, index
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .circuit import (
    AUXILIARY,
    CONTROL_BIT,
    CONTROL_QUDIT,
    TARGET,
    Apply,
    BitControl,
    Circuit,
    ControlledApply,
    ControlledSwap,
    PosCondSwap,
    QuditControl,
    Rewire,
    SwitchSwap,
    Wire,
    WireOutcome,
    _bit_tables,
    aux_wire,
    execute,
    query_count,
)
from .commutation import (
    CommutationTable,
    PairSum,
    normal_order,
    perm_phase_exponent,
)
from .errors import DomainError, InvariantError, StructuralError, UnsupportedError
from .numsys import ceil_log2
from .perms import (
    FactoradicLabeling,
    Labeling,
    PermWord,
    _chunks,
    _scan,
)

__all__ = [
    "ReferenceSwitch",
    "reference_switch",
    "sim_switch_circuit",
    "superperm_sim_switch",
    "six_query_n3",
    "nlogn_circuit",
    "BlockDecomposition",
    "decompose_blocks",
    "block_phase_sum",
    "sqrt_circuit",
    "ceil_sqrt",
    "nlogn_query_count",
    "nlogn_query_bound",
    "sqrt_query_count",
    "sqrt_bound_holds",
    "Family",
    "FAMILIES",
    "expected_queries",
    "PhaseProfile",
    "Lowering",
    "phase_profile",
    "VerificationReport",
    "solve_profile",
    "readout",
    "verify_and_solve",
]


# ---------------------------------------------------------------------------
# reference switch


@dataclass(frozen=True)
class ReferenceSwitch:
    """The n-switch as a pure map x -> permutation word; one call per gate."""

    labeling: Labeling

    @property
    def n(self) -> int:
        return self.labeling.n

    @property
    def family(self) -> str:
        return "switch"

    @property
    def query_count(self) -> int:
        return self.n

    def word(self, x: int) -> PermWord:
        return self.labeling.word(x)


def reference_switch(n: int, labeling: Labeling | None = None) -> ReferenceSwitch:
    labeling = labeling if labeling is not None else FactoradicLabeling(n)
    if labeling.n != n:
        raise DomainError(f"labeling has n={labeling.n}, expected {n}")
    return ReferenceSwitch(labeling)


# ---------------------------------------------------------------------------
# O(n^2) switch simulation


def sim_switch_circuit(n: int, labeling: Labeling | None = None) -> Circuit:
    """Switch simulation: in step p, swap the target with a_{sigma_x(p)},
    apply every U_i on its auxiliary wire, swap back.  n^2 queries; each
    auxiliary ends with (U_i)^(n-1)."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    labeling = labeling if labeling is not None else FactoradicLabeling(n)
    wires = [Wire("x", CONTROL_QUDIT), Wire("psi_t", TARGET, "Psi_t")]
    wires += [Wire(aux_wire(i), AUXILIARY) for i in range(n)]
    gates: list = []
    for step in range(n):
        swap = SwitchSwap((("psi_t", step),))
        gates.append(swap)
        gates.extend(Apply(i, aux_wire(i)) for i in range(n))
        gates.append(swap)
    return Circuit(n, "sim-switch", tuple(wires), tuple(gates), QuditControl(labeling))


# ---------------------------------------------------------------------------
# rail circuits (superpermutation simulation and the six-query algorithm)

# Gate rail of the seven-query n=3 simulation, in application order, and the
# published routing: which rail steps act on the target for each word.
_RAIL3 = (1, 0, 1, 2, 1, 0, 1)
_ROUTES3 = {
    (2, 1, 0): (1, 2, 3),
    (2, 0, 1): (0, 1, 3),
    (1, 2, 0): (1, 3, 4),
    (0, 2, 1): (2, 3, 5),
    (1, 0, 2): (3, 5, 6),
    (0, 1, 2): (3, 4, 5),
}

# Twelve-element rail containing every permutation of four gates as a
# subsequence (0-based indices).
_RAIL4 = (0, 1, 2, 3, 0, 1, 2, 0, 3, 1, 0, 2)

# Gate rail of the six-query n=3 algorithm and the routing of every rail
# step to its destination system, per word.
_RAIL6Q = (0, 1, 2, 1, 0, 1)
_ROUTES6Q = {
    (2, 1, 0): ("psi_1", "psi_1", "psi_1", "a_1", "psi_2", "psi_2"),
    (2, 0, 1): ("psi_1", "psi_1", "psi_1", "psi_2", "psi_2", "a_1"),
    (1, 2, 0): ("psi_1", "a_1", "psi_1", "psi_1", "psi_2", "psi_2"),
    (0, 2, 1): ("psi_2", "psi_1", "psi_1", "a_1", "psi_1", "psi_2"),
    (1, 0, 2): ("psi_2", "psi_2", "psi_1", "a_1", "psi_1", "psi_1"),
    (0, 1, 2): ("psi_2", "psi_2", "psi_1", "psi_1", "psi_1", "a_1"),
}


def _greedy_subsequence(rail: Sequence[int], acting: Sequence[int]) -> tuple[int, ...]:
    """Leftmost positions embedding ``acting`` as a subsequence of ``rail``."""
    positions = []
    start = 0
    for g in acting:
        while start < len(rail) and rail[start] != g:
            start += 1
        if start == len(rail):
            raise StructuralError(
                f"sequence {tuple(acting)} is not a subsequence of rail {tuple(rail)}"
            )
        positions.append(start)
        start += 1
    return tuple(positions)


def _rail_rewires(
    rail: Sequence[int],
    dests: Mapping[tuple[int, ...], Sequence[str]],
    gate_rail: str,
    wire_ids: Sequence[str],
) -> list[Rewire]:
    """Rewire tables that bring, per word, the destination token onto the
    gate rail before each step and restore all tokens home at the end."""
    steps = len(rail)
    tables: list[dict[tuple[int, ...], tuple[tuple[str, str], ...]]] = [
        {} for _ in range(steps + 1)
    ]

    for word in sorted(dests):
        dest_seq = dests[word]
        token_at = {w: w for w in wire_ids}
        wire_of = {w: w for w in wire_ids}

        def _swap(a: str, b: str) -> None:
            ta, tb = token_at[a], token_at[b]
            token_at[a], token_at[b] = tb, ta
            wire_of[ta], wire_of[tb] = b, a

        for t in range(steps):
            cur = wire_of[dest_seq[t]]
            swaps: list[tuple[str, str]] = []
            if cur != gate_rail:
                swaps.append((gate_rail, cur))
                _swap(gate_rail, cur)
            tables[t][word] = tuple(swaps)
        restore: list[tuple[str, str]] = []
        for w in wire_ids:
            while token_at[w] != w:
                home = token_at[w]
                restore.append((w, home))
                _swap(w, home)
        tables[steps][word] = tuple(restore)

    return [Rewire(t, tables[t]) for t in range(steps + 1)]


def _rail_circuit(
    family: str,
    n: int,
    labeling: Labeling,
    rail: Sequence[int],
    dests: Mapping[tuple[int, ...], Sequence[str]],
    gate_rail: str,
    targets: Sequence[str],
    aux_gates: Iterable[int],
) -> Circuit:
    wires = [Wire("x", CONTROL_QUDIT)]
    wires += [Wire(t, TARGET) for t in targets]
    wires += [Wire(aux_wire(i), AUXILIARY) for i in sorted(aux_gates)]
    wire_ids = [w.id for w in wires[1:]]
    rewires = _rail_rewires(rail, dests, gate_rail, wire_ids)
    gates: list = []
    for t, g in enumerate(rail):
        gates.append(rewires[t])
        gates.append(Apply(g, gate_rail))
    gates.append(rewires[len(rail)])
    return Circuit(n, family, tuple(wires), tuple(gates), QuditControl(labeling))


def superperm_sim_switch(n: int, labeling: Labeling | None = None) -> Circuit:
    """Switch simulation over the shortest known gate rail (n in {3, 4}).

    Rail steps routed to the target spell the permutation; every leftover
    U_i lands on a_i, so the auxiliaries end in x-independent powers.
    """
    if n not in (3, 4):
        raise UnsupportedError(f"superpermutation rails are built in for n in {{3, 4}}, got {n}")
    labeling = labeling if labeling is not None else FactoradicLabeling(n)
    rail = _RAIL3 if n == 3 else _RAIL4
    if n == 3:
        target_positions = dict(_ROUTES3)
    else:
        target_positions = {
            word: _greedy_subsequence(rail, tuple(reversed(word)))
            for word in (labeling.word(x).order for x in range(labeling.size))
        }
    dests: dict[tuple[int, ...], tuple[str, ...]] = {}
    for word, positions in target_positions.items():
        chosen = set(positions)
        dests[word] = tuple(
            "psi_t" if t in chosen else aux_wire(g) for t, g in enumerate(rail)
        )
    counts = {g: rail.count(g) for g in set(rail)}
    aux_gates = [g for g, c in counts.items() if c > 1]
    return _rail_circuit(
        "superperm", n, labeling, rail, dests, "psi_t", ("psi_t",), aux_gates
    )


def six_query_n3(labeling: Labeling | None = None) -> Circuit:
    """The six-query n=3 algorithm: two target systems and one auxiliary.

    One permutation cannot be spelled on the first target with only six rail
    steps; for that word the second target receives its two gates in swapped
    order, and the missing phase is exactly the pairwise exponent the
    verifier picks up when rewriting.
    """
    labeling = labeling if labeling is not None else FactoradicLabeling(3)
    return _rail_circuit(
        "six-query", 3, labeling, _RAIL6Q, _ROUTES6Q, "psi_1", ("psi_1", "psi_2"), [1]
    )


# ---------------------------------------------------------------------------
# O(n log n) circuit for the factoradic labeling

_NLOGN_REDUCTIONS = {
    4: {"slots": {(1, 2)}, "targets": {"psi_4_4", "psi_4_1"}},
    8: {
        "slots": {(1, 3), (2, 3), (3, 3)},
        "targets": {"psi_8_1", "psi_8_2", "psi_8_3", "psi_8_8"},
    },
}


def _nlogn_target(k: int, i: int) -> str:
    width = 1 << i
    j = k % width or width
    return f"psi_{width}_{j}"


def nlogn_circuit(n: int, reduced: bool = False) -> Circuit:
    """Bit-register circuit for the factoradic labeling.

    Each U_k (k >= 1) appears once per bit level, controlled on 1 on the way
    in (descending k) and on 0 on the way out (ascending k), always on the
    target wire psi_{2^i, k mod 2^i}; U_0 acts once on every target.  Bit
    (k, i) set contributes exponent ceil(k/2^i) * k!.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    ihat = ceil_log2(n)
    slots = {(k, i) for k in range(1, n) for i in range(1, ihat + 1)}
    dropped_targets: set[str] = set()
    if reduced:
        if n not in _NLOGN_REDUCTIONS:
            raise UnsupportedError(
                f"reduced circuits are specified only for n in {{4, 8}}, got {n}"
            )
        reduction = _NLOGN_REDUCTIONS[n]
        slots -= reduction["slots"]
        dropped_targets = set(reduction["targets"])

    target_ids = [
        f"psi_{1 << i}_{j}"
        for i in range(1, ihat + 1)
        for j in range(1, (1 << i) + 1)
        if f"psi_{1 << i}_{j}" not in dropped_targets
    ]
    wires = [
        Wire(f"c_{k}_{i}", CONTROL_BIT)
        for k in range(n - 1, 0, -1)
        for i in range(1, ihat + 1)
        if (k, i) in slots
    ]
    wires += [Wire(t, TARGET) for t in target_ids]

    gates: list = []
    for k in range(n - 1, 0, -1):
        for i in range(1, ihat + 1):
            if (k, i) in slots:
                gates.append(ControlledApply(k, _nlogn_target(k, i), (k, i), 1))
    gates.extend(Apply(0, t) for t in target_ids)
    for k in range(1, n):
        for i in range(ihat, 0, -1):
            if (k, i) in slots:
                gates.append(ControlledApply(k, _nlogn_target(k, i), (k, i), 0))

    family = "nlogn-reduced" if reduced else "nlogn"
    control = BitControl(n, tuple(sorted(slots)))
    return Circuit(n, family, tuple(wires), tuple(gates), control)


# ---------------------------------------------------------------------------
# block decomposition and the O(n sqrt n) circuit


def ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


@dataclass(frozen=True)
class BlockDecomposition:
    """Per-block companion permutations whose phases sum to the original's.

    ``pi[k]`` keeps the k-th length-nhat block in place with everything
    before sorted descending behind it and everything after sorted
    descending in front; ``pi_r[k]`` (k >= 1) is the compensating ascending
    word whose phase relative to the ascending order cancels the spurious
    sorted-block phases.
    """

    n: int
    nhat: int
    khat: int
    pi: tuple[PermWord, ...]
    pi_r: tuple[PermWord, ...]


def decompose_blocks(w: PermWord) -> BlockDecomposition:
    n = w.n
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    nhat = ceil_sqrt(n)
    khat = -(-n // nhat)
    acting = w.acting_sequence()

    def block(k: int) -> tuple[int, ...]:
        return acting[k * nhat : min((k + 1) * nhat, n)]

    def written(symbols: Sequence[int]) -> tuple[int, ...]:
        return tuple(reversed(symbols))

    def desc(symbols: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(symbols, reverse=True))

    def asc(symbols: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted(symbols))

    pi: list[PermWord] = []
    for k in range(khat):
        before = acting[: k * nhat]
        after = acting[(k + 1) * nhat :]
        order = desc(after) + written(block(k)) + desc(before)
        pi.append(PermWord(n, order))
    pi_r: list[PermWord] = []
    for k in range(1, khat):
        before = acting[: k * nhat]
        after = acting[k * nhat :]
        pi_r.append(PermWord(n, asc(before) + asc(after)))
    return BlockDecomposition(n, nhat, khat, tuple(pi), tuple(pi_r))


def block_phase_sum(dec: BlockDecomposition, table: CommutationTable) -> int:
    """Sum of the companion words' phases: descending-relative for pi,
    ascending-relative for pi_r.  Equals the phase of the original word for
    any antisymmetric table."""
    total = sum(perm_phase_exponent(word.order, table) for word in dec.pi)
    total += sum(normal_order(word.order, table, "ascending") for word in dec.pi_r)
    return total % table.modulus


def sqrt_circuit(n: int, labeling: Labeling | None = None) -> Circuit:
    """Labeling-agnostic O(n sqrt n) circuit in three parts.

    Part 1 builds the sorted prefix blocks on the psi targets (ascending
    sweep of conditional swaps) and the sorted suffix blocks on the phi
    targets (descending sweep); Part 2 plays each raw block onto its psi
    target with simultaneous switch swaps; Part 3 mirrors Part 1 to finish
    the companion words.  Every auxiliary ends with (U_i)^(nhat+2*khat-3).
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    labeling = labeling if labeling is not None else FactoradicLabeling(n)
    nhat = ceil_sqrt(n)
    khat = -(-n // nhat)

    psis = [f"psi_{k}" for k in range(khat)]
    phis = [f"phi_{k}" for k in range(1, khat)]
    wires = [Wire("x", CONTROL_QUDIT)]
    wires += [Wire(p, TARGET) for p in psis]
    wires += [Wire(p, TARGET) for p in phis]
    wires += [Wire(aux_wire(i), AUXILIARY) for i in range(n)]

    gates: list = []

    def sandwich(wire: str, i: int, lo: int, hi: int) -> None:
        swap = PosCondSwap(wire, aux_wire(i), i, lo, hi)
        gates.append(swap)
        gates.append(Apply(i, aux_wire(i)))
        gates.append(swap)

    # Part 1: descending prefix blocks on psi_k, ascending suffix blocks on phi_k.
    for k in range(1, khat):
        for i in range(n):
            sandwich(f"psi_{k}", i, 0, k * nhat)
    for k in range(1, khat):
        for i in range(n - 1, -1, -1):
            sandwich(f"phi_{k}", i, k * nhat, n)

    # Part 2: play block k onto psi_k, all blocks in parallel.
    for step in range(nhat):
        pairs = tuple(
            (f"psi_{k}", k * nhat + step)
            for k in range(khat)
            if k * nhat + step < n
        )
        swap = SwitchSwap(pairs)
        gates.append(swap)
        gates.extend(Apply(i, aux_wire(i)) for i in range(n))
        gates.append(swap)

    # Part 3: mirror of Part 1 completing the companion words.
    for k in range(khat - 1):
        for i in range(n):
            sandwich(f"psi_{k}", i, (k + 1) * nhat, n)
    for k in range(1, khat):
        for i in range(n - 1, -1, -1):
            sandwich(f"phi_{k}", i, 0, k * nhat)

    return Circuit(n, "sqrt", tuple(wires), tuple(gates), QuditControl(labeling))


# ---------------------------------------------------------------------------
# query-count formulas and bounds


def nlogn_query_count(n: int) -> int:
    ihat = ceil_log2(n)
    return 2 * (n - 1) * ihat + (1 << (ihat + 1)) - 2


def nlogn_query_bound(n: int) -> float:
    return 2 * (n - 1) * (log2(n) + 1) + 4 * n - 2


def sqrt_query_count(n: int) -> int:
    nhat = ceil_sqrt(n)
    khat = -(-n // nhat)
    return (nhat + 4 * khat - 4) * n


def sqrt_bound_holds(n: int) -> bool:
    """Exact integer check of Q < (5*sqrt(n)+1)*n."""
    nhat = ceil_sqrt(n)
    khat = -(-n // nhat)
    lhs = nhat + 4 * khat - 5
    return lhs < 0 or lhs * lhs < 25 * n


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One circuit family: constructor, supported n, query count, dense eligibility."""

    name: str
    build: Callable[[int, Labeling], Circuit | ReferenceSwitch]
    queries: Callable[[int], int | None]
    sizes: tuple[int, ...] = ()  # the supported n; empty means any n >= 2
    dense: bool = False  # eligible for the dense cross-check


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family("switch", reference_switch, lambda n: n),
        Family("sim-switch", sim_switch_circuit, lambda n: n * n, dense=True),
        Family(
            "superperm", superperm_sim_switch, lambda n: n * n - 2 * n + 4,
            sizes=(3, 4), dense=True,
        ),
        Family(
            "six-query", lambda n, labeling: six_query_n3(labeling), lambda n: 6,
            sizes=(3,), dense=True,
        ),
        Family("nlogn", lambda n, labeling: nlogn_circuit(n), nlogn_query_count, dense=True),
        Family(
            "nlogn-reduced", lambda n, labeling: nlogn_circuit(n, reduced=True),
            {4: 14, 8: 46}.get, sizes=(4, 8), dense=True,
        ),
        Family("sqrt", sqrt_circuit, sqrt_query_count, dense=True),
    )
}


def expected_queries(family: str, n: int) -> int | None:
    entry = FAMILIES.get(family)
    return entry.queries(n) if entry is not None else None


# ---------------------------------------------------------------------------
# verification


# A profile holds its exponents as int64, and the readout forms x*p(1) with
# x, p(1) < n! in int64, so it needs n!^2 < 2^63: n <= 12.  An n=13 profile
# (6.2e9 exponents) could not be held in memory anyway.
MAX_READOUT_N = 12


def require_readout_n(n: int) -> None:
    """Refuse an n past :data:`MAX_READOUT_N`, before anything of size n!
    is formed."""
    if n > MAX_READOUT_N:
        raise UnsupportedError(
            f"n={n}: the int64 readout needs n!^2 < 2^63, so n <= {MAX_READOUT_N}"
        )


@dataclass(frozen=True, eq=False)
class PhaseProfile:
    """x-sweep result: per-x phase exponents (coefficients of y) and the
    x-independence status of the residual words.

    It holds what the sweep found and derives the rest: :attr:`modulus` is
    n!, :attr:`residuals_ok` holds iff no failure is named, and
    :attr:`expected_queries` is the family's formula in :data:`FAMILIES`.
    ``exponents`` is one read-only int64 array, p(x) for x in [0, n!)
    (empty when the residuals fail); any sequence of integers in [0, n!)
    is accepted and converted.  The readout rule -- :attr:`readout_period`
    and p(1) -- is computed once per profile and kept as Python ints, so a
    per-y view reads it in O(1).  Raises :class:`UnsupportedError` for an n
    past :data:`MAX_READOUT_N`.
    """

    n: int
    family: str
    labeling_name: str
    query_count: int
    exponents: np.ndarray
    residuals: dict[str, tuple[int, ...]]
    failure: str | None

    def __post_init__(self) -> None:
        require_readout_n(self.n)
        # n! as a plain attribute: solve_profile reads it once per y, and a
        # cached_property's value is read through the class, about 2x slower
        object.__setattr__(self, "modulus", factorial(self.n))
        try:
            exponents = np.asarray(self.exponents, dtype=np.int64)
        except OverflowError:
            raise DomainError(f"exponents must lie in [0, {self.modulus})") from None
        if exponents.size and not (0 <= exponents.min() and exponents.max() < self.modulus):
            raise DomainError(f"exponents must lie in [0, {self.modulus})")
        if exponents is self.exponents and exponents.flags.writeable:
            exponents = exponents.copy()  # the caller can still write to its array
        exponents.flags.writeable = False
        object.__setattr__(self, "exponents", exponents)

    # Derived, like the modulus, so no profile holds a modulus other than
    # n!, a passing verdict beside a failure, or another family's query
    # count (the lambda calls the module function expected_queries).
    residuals_ok = property(lambda self: self.failure is None)
    expected_queries = cached_property(lambda self: expected_queries(self.family, self.n))

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.exponents.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseProfile):
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.name != "exponents"
        ) and np.array_equal(self.exponents, other.exponents)

    @property
    def counts_match(self) -> bool:
        return self.expected_queries is None or self.query_count == self.expected_queries

    @cached_property
    def _p1(self) -> int:
        """p(1) as a Python int (0 if there are fewer than two exponents)."""
        return int(self.exponents[1]) if len(self.exponents) > 1 else 0

    def _deviations(self) -> Iterable[tuple[range, np.ndarray]]:
        """(xs, (x*p(1) - p(x)) mod n! over xs) for consecutive chunks of
        every x, so no temporary is n!-sized; exact in int64 as n!^2 < 2^63."""
        for xs in _chunks(range(len(self.exponents))):
            d = np.arange(xs.start, xs.stop, dtype=np.int64)
            d *= self._p1
            d -= self.exponents[xs.start : xs.stop]
            d %= self.modulus
            yield xs, d

    @cached_property
    def readout_period(self) -> int:
        """Least y0 > 0 such that y reads out deterministically iff y0 divides y.

        The readout is deterministic iff y*(p(x) - x*p(1)) == 0 mod n! for
        every x, that is iff n!/gcd(n!, every p(x) - x*p(1)) divides y.  The
        gcd runs over the chunks and stops once it is 1.  Meaningful only
        when the residuals are x-independent.
        """
        divisor = self.modulus
        for _, d in self._deviations():
            divisor = gcd(divisor, int(np.gcd.reduce(d)))
            if divisor == 1:
                break
        return self.modulus // divisor

    @cached_property
    def _rule(self) -> tuple[bool, int, int, int]:
        """(residuals_ok, readout_period, p(1), modulus): the readout rule
        a per-y view unpacks at once."""
        return self.residuals_ok, self.readout_period, self._p1, self.modulus

    @cached_property
    def slope(self) -> int | None:
        """s with exponents[x] == x*s for all x, or None if the residuals
        fail or the phase is not linear.  Since p(0) == 0, the phase is
        linear iff every y reads out, and then s == p(1)."""
        if not self.residuals_ok or self.readout_period != 1:
            return None
        return self._p1

    @cached_property
    def nonlinear_witness(self) -> tuple[int, int, int] | None:
        """(x, p(x), x*p(1) mod n!) for the first x where the phase is not
        linear; None if it is linear or the residuals fail."""
        if not self.residuals_ok or self.readout_period == 1:
            return None
        x = next(xs[np.flatnonzero(d)[0]] for xs, d in self._deviations() if d.any())
        return x, int(self.exponents[x]), x * self._p1 % self.modulus


class Lowering:
    """How one circuit lowers to keyed applies: :meth:`of` builds it from
    the circuit and its x=0 outcome alone.

    The lowering keeps one apply per route: U_g on a data wire (numbered
    0..W-1 in sorted order, :attr:`wire`) for the keys of U_g where it
    lands there.  U_g's key is where it acts under a ``QuditControl`` (sqrt
    and sim-switch), its factoradic digit a_g under a ``BitControl`` (nlogn
    and nlogn-reduced), 0 for U_0.  Apply e puts U_g = ``gates[e]`` on data
    wire ``wires[e]`` for the keys a of U_g where ``masks[e, a]`` is True.
    As each U_g lands by its own key alone, the residual check of an x
    is an AND over the gates of a per-gate row (:attr:`checks`), and its
    phase a sum over gate pairs g < p of a table indexed by the keys of g
    and p, with the pair counts of :attr:`counts`.  Both are built on first
    use.  The lowering needs no commutation table and holds nothing of size
    n!, so it is built at every n.

    ``Apply`` lands on its wire for every key, ``ControlledApply`` where
    its bit holds.  Swap gates lower by one rule, the sandwich: a swap
    gate, then a run of ``Apply`` gates, then a gate with the same
    transpositions (:meth:`_transpositions`).  Each ``Apply`` in between
    lands on the partner wire where a transposition on its wire holds, and
    stays on its own wire where none does.  The transpositions that hold
    at one x are disjoint and their conditions depend on x only, so the
    closing gate undoes the opening one and no token moves.
    """

    def __init__(self, circuit: Circuit, out: WireOutcome):
        self.n = circuit.n
        self.control = circuit.control
        self.out = out
        self.wire = {w: i for i, w in enumerate(sorted(out.applied))}

    @classmethod
    def of(cls, circuit: Circuit, out: WireOutcome) -> Lowering | None:
        """The lowering of ``circuit``, whose :func:`execute` outcome at x=0
        is ``out``; None where it does not lower: with a gate that may
        leave a token off its wire (a ``Rewire``, or a swap gate that opens
        no sandwich), or cross-gate, a route of U_g reading another gate's
        key."""
        lowering, gates = cls(circuit, out), circuit.gates
        n, wire = lowering.n, lowering.wire
        lowering.unkeyed = np.zeros((n, n), dtype=bool)  # [g, a]: no x gives U_g key a
        if isinstance(lowering.control, BitControl):  # the digit a_g is at most g
            slot_bits = _bit_tables(n, lowering.control.slots)[0]
            lowering.unkeyed = ~np.tri(n, dtype=bool)
        everywhere = np.ones(n, dtype=bool)

        def lands(key: tuple, gate: int) -> np.ndarray | None:
            """Where a condition holds, over U_gate's key; None if it reads
            another gate's key."""
            if (key[1] if key[0] == "position" else key[1][0]) != gate:
                return None
            mask = np.zeros(n, dtype=bool)
            if key[0] == "position":  # lo <= where U_gate acts < hi
                mask[max(key[2], 0) : max(key[3], 0)] = True
            else:  # the bit's value is the polarity, over a_k = 0..k
                mask[: gate + 1] = slot_bits[key[1]] == key[2]
            return mask

        routes = []  # (data wire, gate, mask)
        j = 0
        while j < len(gates):
            gate = gates[j]
            j += 1
            if isinstance(gate, (Apply, ControlledApply)):
                mask = everywhere if isinstance(gate, Apply) else lands(
                    ("bit", gate.bit, gate.polarity), gate.gate
                )
                if mask is None:
                    return None
                routes.append((wire[gate.wire], gate.gate, mask))
            else:  # a sandwich opened by this gate, or no lowering
                swaps = lowering._transpositions(gate)
                end = j
                while end < len(gates) and isinstance(gates[end], Apply):
                    end += 1
                if swaps is None or end == len(gates) or (
                    gates[end] != gate and lowering._transpositions(gates[end]) != swaps
                ):
                    return None
                for mid in gates[j:end]:  # each lands on partners, else stays
                    stay = everywhere
                    for partner, key in swaps.get(mid.wire, ()):
                        mask = lands(key, mid.gate)
                        if mask is None:
                            return None
                        routes.append((wire[partner], mid.gate, mask))
                        stay = stay & ~mask
                    routes.append((wire[mid.wire], mid.gate, stay))
                j = end + 1
        lowering.wires = np.array([w for w, _, _ in routes], dtype=np.intp)
        lowering.gates = np.array([g for _, g, _ in routes], dtype=np.intp)
        lowering.masks = np.array([m for _, _, m in routes], dtype=bool).reshape(-1, n)
        return lowering

    @cached_property
    def checks(self) -> tuple:
        """The ok rows of the residual check: (g, ok_g) for the gates whose
        ok_g has a False.  ok_g[a] holds iff the wires U_g lands on where
        its key is a carry it as often as the x=0 words do (True for a key
        that no x gives U_g): the applies summed per wire, gate and key."""
        n = self.n
        carried = np.zeros((len(self.wire), n, n), dtype=np.int64)  # [w, g, a]
        np.add.at(carried, (self.wires, self.gates), self.masks)
        reference = np.bincount(
            [i * n + g for w, i in self.wire.items() for g in self.out.applied[w]],
            minlength=len(self.wire) * n,
        ).reshape(-1, n, 1)
        ok = (carried == reference).all(axis=0) | self.unkeyed
        return tuple((g, ok[g]) for g in range(n) if not ok[g].all())

    @cached_property
    def counts(self) -> np.ndarray:
        """The pair counts, int64 [g, a, p, b]: the pairs of applies on one
        wire, U_p with key b before U_g with key a.  One pass in gate order
        keeps, per wire, the count of the applies seen so far [w, p, b]."""
        n = self.n
        counts = np.zeros((n,) * 4, dtype=np.int64)
        earlier = np.zeros((len(self.wire), n, n), dtype=np.int64)
        for w, g, mask in zip(self.wires.tolist(), self.gates.tolist(), self.masks):
            counts[g, mask] += earlier[w]
            earlier[w, g] += mask
        return counts

    def _transpositions(self, gate) -> dict[str, list[tuple[str, tuple]]] | None:
        """The transpositions of a swap gate that opens a sandwich, keyed by
        wire: ``[wire]`` lists (partner wire, condition key) for each
        transposition on that wire, in the gate's order.  None for any other
        gate.

        A conditional swap (``PosCondSwap``, ``ControlledSwap``) is one
        transposition.  A ``SwitchSwap`` whose pairs name distinct
        non-auxiliary wires and distinct positions is one per pair (t, p)
        and gate i: t <-> a_i where U_i acts at position p.
        """
        if isinstance(gate, PosCondSwap):
            swaps = [(gate.wire_a, gate.wire_b, ("position", gate.gate, gate.lo, gate.hi))]
        elif isinstance(gate, ControlledSwap):
            swaps = [(gate.wire_a, gate.wire_b, ("bit", gate.bit, gate.polarity))]
        elif isinstance(gate, SwitchSwap):
            wires = [w for w, _ in gate.swaps]
            auxiliary = [aux_wire(i) for i in range(self.n)]
            if (
                len(set(wires)) < len(wires)
                or len({p for _, p in gate.swaps}) < len(wires)
                or any(w in auxiliary for w in wires)
            ):
                return None
            swaps = [
                (t, a, ("position", i, p, p + 1))
                for t, p in gate.swaps for i, a in enumerate(auxiliary)
            ]
        else:  # a Rewire moves tokens per word
            return None
        by_wire: dict[str, list[tuple[str, tuple]]] = {}
        for a, b, key in swaps:
            by_wire.setdefault(a, []).append((b, key))
            if b != a:
                by_wire.setdefault(b, []).append((a, key))
        return by_wire

class _Sweep:
    """The sweep of one circuit under one commutation table.

    ``__init__`` runs :func:`execute` at x=0 (rejecting a circuit that
    leaves a token off its wire there), keeps the written words
    (:attr:`residuals`) and their sorted multisets (:attr:`refs`), by wire
    id, and the reference phase; up to :data:`MAX_READOUT_N` it takes the
    circuit's :class:`Lowering` and its ok rows, :attr:`checks`.  The
    phase side, :attr:`pair_sum`, is built from the lowering's counts on
    first use: residuals come first (:meth:`first_failure`), then phases
    for circuits that pass (:meth:`sweep`), each a
    :func:`~fpp.perms._scan` over the control's ``keys``.  A circuit
    without a lowering here (:attr:`checks` is None: past
    :data:`MAX_READOUT_N`, or one that does not lower) runs
    :meth:`reference`, one x at a time through :func:`execute`, which is
    also the tests' oracle.  Both scans run in the chunks of
    :func:`~fpp.perms._chunks`.
    """

    def __init__(self, circuit: Circuit, table: CommutationTable):
        out = execute(circuit, 0)
        if not out.tokens_home:
            raise StructuralError("reference execution left tokens off their home wires")
        self.circuit = circuit
        self.table = table
        self.refs = {w: tuple(sorted(applied)) for w, applied in sorted(out.applied.items())}
        self.residuals = {w: out.word(w) for w in self.refs}
        self.n = circuit.n
        self.control = circuit.control
        self.modulus = table.modulus
        self.ref_phase = sum(perm_phase_exponent(word, table) for word in self.residuals.values())
        self.lowering = Lowering.of(circuit, out) if self.n <= MAX_READOUT_N else None
        self.checks = None if self.lowering is None else self.lowering.checks

    @cached_property
    def pair_sum(self) -> PairSum | None:
        """The phase as a :class:`~fpp.commutation.PairSum` of the
        lowering's counts; None where there is no lowering."""
        return None if self.lowering is None else PairSum(self.lowering.counts, self.table)

    def reference(self, xs: Iterable[int]) -> tuple[list[int], str | None]:
        """Per-x reference sweep: :func:`execute` and the residual checks,
        one x at a time.  Returns (exponents, first failure or None)."""
        m = self.modulus
        exponents: list[int] = []
        for x in xs:
            out = execute(self.circuit, x)
            if not out.tokens_home:
                return exponents, f"x={x}: tokens did not return to their home wires"
            total = 0
            for wire, multiset in self.refs.items():
                applied = out.applied[wire]
                if tuple(sorted(applied)) != multiset:
                    return exponents, (
                        f"x={x}: wire {wire!r} carries {applied}, "
                        f"reference multiset is {multiset}"
                        + _multiset_difference(applied, multiset)
                    )
                total += perm_phase_exponent(applied[::-1], self.table)
            exponents.append((total - self.ref_phase) % m)
        return exponents, None

    def _witness(self, x: int) -> str:
        """The failure text of x, which the ok rows fail, from
        :meth:`reference`; raises if the reference passes it."""
        _, failure = self.reference(range(x, x + 1))
        if failure is None:
            raise InvariantError(
                f"x={x}: the chunked sweep fails it, the per-x sweep does not"
            )
        return failure

    def first_failure(self, xs: range) -> str | None:
        """The failure text of the first x whose ok rows fail, scanned
        without phases; None if none does before the end of xs or a chunk
        the keys refuse, which :meth:`sweep` decides."""
        for chunk, first, _ in _scan(xs, self.control.keys, self.checks):
            if first is not None and first < len(chunk):
                return self._witness(chunk[first])
        return None

    def sweep(self, xs: range) -> tuple[np.ndarray, str | None]:
        """(int64 exponents, first failure or None) for xs; on a failure,
        the exponents of the xs before it.  A circuit that lowers scans its
        ok rows and :attr:`pair_sum`, p(x) = pair sum - ref_phase mod n!;
        the first x it fails, or a chunk the keys refuse (an x with no bit
        assignment), runs through :meth:`reference` for the per-x failure
        text or error.  Every other circuit runs :meth:`reference` alone."""
        if self.checks is None:
            exps, failure = self.reference(xs)
            return np.array(exps, dtype=np.int64), failure
        exponents = np.empty(len(xs), dtype=np.int64)
        for chunk, first, phase in _scan(xs, self.control.keys, self.checks, self.pair_sum):
            at = chunk.start - xs.start
            if first is None:  # the reference fails or raises within this chunk
                exps, failure = self.reference(chunk)
                exponents[at : at + len(exps)] = exps
                return exponents[: at + len(exps)], failure
            done = exponents[at : at + first]
            np.subtract(phase[:first], self.ref_phase, out=done)
            done %= self.modulus
            if first < len(chunk):
                return exponents[: at + first], self._witness(chunk[first])
        return exponents, None


def _multiset_difference(word: Sequence[int], reference: Sequence[int]) -> str:
    """What a wire's word lacks and holds beyond its reference multiset, as
    '; missing U_a, U_b; extra U_c' (each part only where it is not empty)."""
    missing, extra = list(reference), []
    for g in word:
        if g in missing:
            missing.remove(g)
        else:
            extra.append(g)
    return "".join(
        f"; {name} {', '.join(f'U_{g}' for g in sorted(gates))}"
        for name, gates in (("missing", missing), ("extra", extra))
        if gates
    )


def phase_profile(
    target: Circuit | ReferenceSwitch,
    labeling: Labeling,
    processes: int | None = None,
) -> PhaseProfile:
    """Execute for every x and accumulate phase exponents against x=0.

    The reference words come from :func:`execute` at x=0, the single-x
    reference.  A circuit with a :class:`Lowering`, where every apply of
    U_g is routed by U_g's own key alone (where it acts for sqrt and
    sim-switch, its factoradic digit for nlogn and nlogn-reduced), settles
    its residuals first: where one of the lowering's per-gate ok rows has
    a False, :meth:`_Sweep.first_failure` finds the first x they fail,
    building no pair counts and no phase tables.  Only a circuit that
    passes (or reaches a chunk with a digit its bit slots cannot write)
    sums its phases over every x in :meth:`_Sweep.sweep`.  Either way the
    first failing x runs again through :func:`execute`, so the failure
    names the witness, wire and words of the per-x sweep, and the gates
    the wire's word lacks or holds beyond the reference multiset.  Every
    other circuit (a gate that may move a token, as in the rail circuits,
    or a cross-gate route) sweeps through :func:`execute`, one x at a
    time.  The chunked loops, the reference switch's labels and the
    profile's deviations included, run in the chunks of
    :func:`~fpp.perms._chunks`.  A target whose n is not the labeling's is
    refused first.

    Every x is swept in this process.  ``processes`` is accepted and
    ignored, for callers written when the sweep could fork workers.
    """
    if target.n != labeling.n:
        raise DomainError(
            f"{target.family} has n={target.n}, labeling {labeling.name!r} has n={labeling.n}"
        )
    require_readout_n(labeling.n)  # before the sweep, not after it
    validation = labeling.validate()
    if not validation.consistent:
        raise DomainError(
            f"labeling {labeling.name!r} is inconsistent: {validation.witness}"
        )
    table = validation.table
    m = labeling.size

    if isinstance(target, ReferenceSwitch):
        # Validation has checked that every word's exponent relative to
        # word(0) is its label, so the switch needs no sweep: its words
        # are labeled in the chunks of the sweep's schedule.
        labels = np.arange(m)
        if target.labeling is not labeling:
            for chunk in _chunks(range(m)):
                labels[chunk.start : chunk.stop] = labeling.labels(target.labeling.words(chunk))
        exponents, failure = (labels - labels[0]) % m, None
        residuals = {"psi_t": target.word(0).order}
        queries = target.query_count
    else:
        sweep = _Sweep(target, table)
        # residuals first: a circuit whose ok rows fail builds no phase tables
        failure = sweep.first_failure(range(m)) if sweep.checks else None
        if failure is None:
            exponents, failure = sweep.sweep(range(m))
        residuals = sweep.residuals
        queries = query_count(target)
    if failure is None:
        exponents.flags.writeable = False  # the profile takes the array without a copy
    return PhaseProfile(
        n=target.n,
        family=target.family,
        labeling_name=labeling.name,
        query_count=queries,
        exponents=exponents if failure is None else (),
        residuals=residuals,
        failure=failure,
    )


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of one verify-and-solve run for a concrete y: a view of its
    profile at y.

    The report holds only the profile and y.  The profile's fields are read
    through properties, and the verdict (``phase_linear``, ``solved_y``,
    ``passed``) is read out on access by the one readout rule: the phase is
    linear at y iff the residuals are x-independent and the profile's
    :attr:`~PhaseProfile.readout_period` divides y; then the solved value is
    p(1)*y mod n!, and the report passes iff it equals y.  :func:`readout`
    applies the same rule to many y at once.
    """

    profile: PhaseProfile
    y: int

    # Fields read from the profile.
    n = property(attrgetter("profile.n"))
    family = property(attrgetter("profile.family"))
    labeling_name = property(attrgetter("profile.labeling_name"))
    query_count = property(attrgetter("profile.query_count"))
    expected_queries = property(attrgetter("profile.expected_queries"))
    residuals_x_independent = property(attrgetter("profile.residuals_ok"))
    exponents = property(attrgetter("profile.exponents"))
    residuals = property(attrgetter("profile.residuals"))
    failure = property(attrgetter("profile.failure"))

    @property
    def phase_linear(self) -> bool:
        ok, period, _, _ = self.profile._rule
        return ok and self.y % period == 0

    @property
    def solved_y(self) -> int | None:
        ok, period, p1, m = self.profile._rule
        y = self.y
        return p1 * y % m if ok and y % period == 0 else None

    @property
    def passed(self) -> bool:
        ok, period, p1, m = self.profile._rule
        y = self.y
        return ok and y % period == 0 and p1 * y % m == y

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _REPORT_REPR)
        return f"{type(self).__qualname__}({fields})"

    def to_json(self) -> str:
        """The report as the JSON object :meth:`from_json` reads; y and the
        verdict are written as Python ints and bools, whatever integer type
        y was given as.  Raises :class:`DomainError` for a y that is not an
        integer."""
        try:
            y = index(self.y)
        except TypeError:
            raise DomainError(f"y={self.y!r} is not an integer") from None
        solved = self.solved_y
        payload = {
            "n": self.n,
            "family": self.family,
            "labeling": self.labeling_name,
            "y": y,
            "query_count": self.query_count,
            "expected_queries": self.expected_queries,
            "residuals_x_independent": self.residuals_x_independent,
            "phase_linear": bool(self.phase_linear),
            "solved_y": None if solved is None else int(solved),
            "passed": bool(self.passed),
            "exponents": self.exponents.tolist(),
            "residuals": {w: list(word) for w, word in sorted(self.residuals.items())},
            "failure": self.failure,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Rebuild the profile (modulus n!) and view it at the payload's y.

        Raises :class:`DomainError` where the payload is not a JSON object
        or lacks a key of :meth:`to_json`, n, y, query_count, an exponent or
        a residual symbol is not a JSON integer (a bool, float or string is
        refused, not converted), family or labeling is not a string,
        failure is neither a string nor null, expected_queries is neither
        an integer nor null, residuals_x_independent is not a boolean, is
        true with a failure or without n! exponents, or is false without a
        failure or with exponents (a failing profile holds none), where
        n < 2, where expected_queries is not the family's formula at n, and
        where the payload's verdict fields disagree with the verdict its
        exponents give; :class:`UnsupportedError` for an n past
        :data:`MAX_READOUT_N`.
        """
        d = json.loads(text)
        if not isinstance(d, dict):
            raise DomainError("report is not a JSON object")
        missing = [key for key in _REPORT_KEYS if key not in d]
        if missing:
            raise DomainError(f"report lacks {', '.join(map(repr, missing))}")
        for key in ("family", "labeling"):
            if not isinstance(d[key], str):
                raise DomainError(f"report gives {key}={d[key]!r}, not a string")
        if d["failure"] is not None and not isinstance(d["failure"], str):
            raise DomainError(f"report gives failure={d['failure']!r}, not a string or null")
        for key in ("n", "y", "query_count"):
            if type(d[key]) is not int:
                raise DomainError(f"report gives {key}={d[key]!r}, not an integer")
        if d["expected_queries"] is not None and type(d["expected_queries"]) is not int:
            raise DomainError(
                f"report gives expected_queries={d['expected_queries']!r}, not an integer or null"
            )
        if type(d["residuals_x_independent"]) is not bool:
            raise DomainError(
                f"report gives residuals_x_independent={d['residuals_x_independent']!r}, "
                "not a boolean"
            )
        if d["residuals_x_independent"] != (d["failure"] is None):
            raise DomainError(
                f"report gives residuals_x_independent={d['residuals_x_independent']!r} "
                f"with failure={d['failure']!r}: a report names a failure iff its residuals fail"
            )
        residuals = d["residuals"]
        if not isinstance(residuals, dict):
            raise DomainError(f"report gives residuals={residuals!r}, not an object")
        for wire, word in residuals.items():
            if not isinstance(word, list) or not all(type(g) is int for g in word):
                raise DomainError(
                    f"report gives residuals[{wire!r}]={word!r}, not a list of integers"
                )
        exponents = d["exponents"]
        if not isinstance(exponents, list):
            raise DomainError(f"report gives exponents={exponents!r}, not a list")
        if not all(type(e) is int for e in exponents):
            x = next(x for x, e in enumerate(exponents) if type(e) is not int)
            raise DomainError(f"report gives exponents[{x}]={exponents[x]!r}, not an integer")
        if d["n"] < 2:
            raise DomainError(f"report gives n={d['n']}, below 2")
        require_readout_n(d["n"])
        m = factorial(d["n"])
        ok = d["residuals_x_independent"]
        if len(exponents) != (m if ok else 0):
            need = f"x-independent residuals need n! = {m}" if ok else "failing residuals hold none"
            raise DomainError(f"report has {len(exponents)} exponents, but {need}")
        profile = PhaseProfile(
            n=d["n"],
            family=d["family"],
            labeling_name=d["labeling"],
            query_count=d["query_count"],
            exponents=exponents,
            residuals={w: tuple(word) for w, word in residuals.items()},
            failure=d["failure"],
        )
        if d["expected_queries"] != profile.expected_queries:
            raise DomainError(
                f"report gives expected_queries={d['expected_queries']!r}, but family "
                f"{d['family']!r} at n={d['n']} expects {profile.expected_queries!r}"
            )
        report = solve_profile(profile, d["y"])
        for key in ("phase_linear", "solved_y", "passed"):
            if d[key] != getattr(report, key):
                raise DomainError(
                    f"report gives {key}={d[key]!r}, but its exponents give "
                    f"{getattr(report, key)!r}"
                )
        return report


# The fields repr shows, in order: every field but exponents and residuals.
_REPORT_REPR = (
    "n", "family", "labeling_name", "y", "query_count", "expected_queries",
    "residuals_x_independent", "phase_linear", "solved_y", "passed", "failure",
)
# The keys of a to_json payload, in its sorted order.
_REPORT_KEYS = (
    "expected_queries", "exponents", "failure", "family", "labeling", "n", "passed",
    "phase_linear", "query_count", "residuals", "residuals_x_independent", "solved_y", "y",
)


def solve_profile(profile: PhaseProfile, y: int) -> VerificationReport:
    """Analytic inverse-Fourier readout for one y over a computed profile.

    With exponents p(x), the control ends in sum_x omega^{p(x)*y} |x>; the
    readout is deterministic iff p(x)*y == x*sigma mod n! for a single
    sigma, and then measures sigma.  The report is a view of the profile
    at y: it copies no field, and its verdict is read out on access.
    Raises :class:`DomainError` for a y that is not an integer (a bool is
    one) or lies outside [0, n!).
    """
    try:  # inline, as this runs once per y: a helper call would cost more than the check
        if not 0 <= index(y) < profile.modulus:
            raise DomainError(f"y={y} outside [0, {profile.modulus - 1}]")
    except TypeError:
        raise DomainError(f"y={y!r} is not an integer") from None
    # Set the two slots directly: the frozen dataclass __init__ costs more
    # than the rest of a one-y readout.
    report = _new_report(VerificationReport)
    _set_report_profile(report, profile)
    _set_report_y(report, y)
    return report


_new_report = object.__new__
_set_report_profile = VerificationReport.profile.__set__
_set_report_y = VerificationReport.y.__set__


def readout(profile: PhaseProfile, ys: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The readout of :func:`solve_profile` for many y at once.

    Returns int64 ``solved`` and bool ``passed`` arrays aligned with ys:
    ``solved[i]`` is the report's ``solved_y`` for ys[i], or -1 where that
    is None (the phase is not linear at that y), and ``passed[i]`` its
    ``passed``.  p(1)*y stays exact in int64 since n!^2 < 2^63.  A bool
    is read as the integer it is, as :func:`solve_profile` reads it.
    Raises :class:`DomainError` for ys that are not integers (a float or
    string included) or lie outside [0, n!).
    """
    m = profile.modulus
    ys = np.asarray(ys)
    if ys.size and ys.dtype.kind not in "iub":
        raise DomainError(f"ys must be integers in [0, {m - 1}], got dtype {ys.dtype}")
    if ys.size and not (0 <= ys.min() and ys.max() < m):
        bad = ys[(ys < 0) | (ys >= m)][0]
        raise DomainError(f"y={bad} outside [0, {m - 1}]")
    ys = ys.astype(np.int64, copy=False)
    solved = profile._p1 * ys % m
    if not profile.residuals_ok:
        solved[:] = -1
    elif profile.readout_period != 1:
        solved[ys % profile.readout_period != 0] = -1
    return solved, solved == ys


def verify_and_solve(
    target: Circuit | ReferenceSwitch,
    labeling: Labeling,
    y: int,
) -> VerificationReport:
    """Full check for one y: sweep all x, then solve.

    The report is a view of the profile at y.  For several y values over
    the same circuit, compute :func:`phase_profile` once and call
    :func:`solve_profile` per y, each call O(1) and sharing the profile,
    or :func:`readout` for many y at once.
    """
    return solve_profile(phase_profile(target, labeling), y)
