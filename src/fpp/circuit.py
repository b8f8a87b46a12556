"""Circuit intermediate representation and symbolic execution.

Every circuit in scope is classically controlled on the computational basis
of its control system, so execution for one basis state x is deterministic
symbol pushing: each data wire carries a token (named after its home wire)
and a word of applied gate indices; applies append to the token currently on
the wire, swaps exchange tokens.  Superposition behaviour is recovered by
linearity in the verifier and in the dense backend.

Control comes in two flavours:

* a qudit labelled by x directly (the labeling is part of the control
  descriptor, since swap schedules are defined in terms of sigma_x), or
* a register of named bits (k, i) with the canonical greedy assignment
  x -> bits from :mod:`fpp.numsys`, possibly restricted to a subset of slots
  for the reduced circuits.

Conditional gates store data, not code: position-range conditions on
sigma_x, step indices resolved through the labeling, or explicit routing
tables keyed by the permutation word.  That keeps circuits exportable,
picklable and constructible without enumerating control states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import factorial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError, RangeError, StructuralError
from .numsys import bit_weight, greedy_bits, to_factoradic
from .perms import Labeling, PermWord, factoradic_blocks

__all__ = [
    "Wire",
    "Apply",
    "ControlledApply",
    "ControlledSwap",
    "PosCondSwap",
    "SwitchSwap",
    "Rewire",
    "QuditControl",
    "BitControl",
    "Circuit",
    "WireOutcome",
    "aux_wire",
    "events",
    "execute",
    "execute_with_bits",
    "query_count",
    "eliminate_controlled_unknowns",
    "export_circuit",
]

CONTROL_BIT = "control-bit"
CONTROL_QUDIT = "control-qudit"
TARGET = "target"
AUXILIARY = "auxiliary"
_KINDS = (CONTROL_BIT, CONTROL_QUDIT, TARGET, AUXILIARY)


def aux_wire(gate: int) -> str:
    """Canonical id of the auxiliary wire that absorbs unused U_gate calls."""
    return f"a_{gate}"


@dataclass(frozen=True)
class Wire:
    id: str
    kind: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError(f"unknown wire kind {self.kind!r}")
        if not self.label:
            object.__setattr__(self, "label", self.id)


@dataclass(frozen=True)
class Apply:
    """Unconditional black-box application U_gate on a wire."""

    gate: int
    wire: str


@dataclass(frozen=True)
class ControlledApply:
    """U_gate on a wire, fired iff control bit == polarity (1: black dot, 0: white)."""

    gate: int
    wire: str
    bit: tuple[int, int]
    polarity: int


@dataclass(frozen=True)
class ControlledSwap:
    """Swap of two wires, fired iff control bit == polarity."""

    wire_a: str
    wire_b: str
    bit: tuple[int, int]
    polarity: int


@dataclass(frozen=True)
class PosCondSwap:
    """Swap of two wires iff lo <= (acting position of ``gate`` in sigma_x) < hi."""

    wire_a: str
    wire_b: str
    gate: int
    lo: int
    hi: int


@dataclass(frozen=True)
class SwitchSwap:
    """Simultaneous swaps wire <-> a_{sigma_x(position)} for each listed pair.

    With a single pair this is the controlled swap of the n-switch
    simulation; with several it is the block step of the sqrt algorithm.
    """

    swaps: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Rewire:
    """Wire interchange given as an explicit swap list per permutation word."""

    step: int
    routes: dict[tuple[int, ...], tuple[tuple[str, str], ...]] = field(repr=False)


Gate = Apply | ControlledApply | ControlledSwap | PosCondSwap | SwitchSwap | Rewire


@dataclass(frozen=True)
class QuditControl:
    """One n!-dimensional control qudit labelled by x through a labeling."""

    labeling: Labeling

    def keys(self, xs: range) -> np.ndarray:
        """The sweep's keys of xs, intp [g, r]: where U_g acts in the word
        of xs[r] (:meth:`Labeling.positions`)."""
        return self.labeling.positions(xs)


@dataclass(frozen=True)
class BitControl:
    """Named control bits (k, i) with the canonical greedy x -> bits map.

    ``slots`` lists the available bit slots; reduced circuits omit some.
    """

    n: int
    slots: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for k, i in self.slots:
            if not (1 <= k < self.n and i >= 1):
                raise StructuralError(
                    f"bit slot ({k}, {i}) is outside 1 <= k < n={self.n}, i >= 1"
                )
        if len(set(self.slots)) != len(self.slots):
            raise StructuralError(f"bit slots {self.slots} repeat a slot")

    def assignment(self, x: int) -> dict[tuple[int, int], int]:
        digits = to_factoradic(x, self.n)
        bits: dict[tuple[int, int], int] = {}
        for k in range(1, self.n):
            slots_k = sorted(i for (kk, i) in self.slots if kk == k)
            weights = [bit_weight(k, i) for i in slots_k]
            for i, b in zip(slots_k, greedy_bits(digits.digit(k), weights)):
                bits[(k, i)] = b
        return bits

    def keys(self, xs: range) -> np.ndarray | None:
        """The sweep's keys of xs, a unit-step range inside [0, n!), intp
        [g, r]: the factoradic digit a_g of xs[r], 0 for U_0; None where
        the slots cannot write some digit of xs (:meth:`assignment` raises
        for that x)."""
        digits = factoradic_blocks(self.n).digits(xs)
        unwritten = _bit_tables(self.n, self.slots)[1]
        if any(unwritten[k][digits[k - 1]].any() for k in unwritten):
            return None
        keys = np.zeros((self.n, len(xs)), dtype=np.intp)
        keys[1:] = digits
        return keys


@lru_cache(maxsize=None)
def _bit_tables(
    n: int, slots: tuple[tuple[int, int], ...]
) -> tuple[dict[tuple[int, int], np.ndarray], dict[int, np.ndarray]]:
    """Per-k tables of the greedy map, over the digit values a = 0..k.

    ``bits[(k, i)][a]`` is slot (k, i)'s bit when a_k = a (uint8), slots in
    :meth:`BitControl.assignment`'s order; ``unwritten[k][a]`` is True where
    the slots of k cannot write a greedily, for the k where some a is so.
    """
    bits: dict[tuple[int, int], np.ndarray] = {}
    unwritten: dict[int, np.ndarray] = {}
    for k in range(1, n):
        rest = np.arange(k + 1)
        for i in sorted(i for (kk, i) in slots if kk == k):
            weight = bit_weight(k, i)
            bit = rest >= weight
            rest = rest - weight * bit
            bits[(k, i)] = bit.astype(np.uint8)
        if rest.any():
            unwritten[k] = rest != 0
    return bits, unwritten


@dataclass(frozen=True)
class Circuit:
    """Gate list over typed wires with classical-control execution semantics."""

    n: int
    family: str
    wires: tuple[Wire, ...]
    gates: tuple[Gate, ...]
    control: QuditControl | BitControl

    def __post_init__(self) -> None:
        if isinstance(self.control, QuditControl) and self.control.labeling.n != self.n:
            raise DomainError(f"labeling has n={self.control.labeling.n}, expected {self.n}")
        if isinstance(self.control, BitControl) and self.control.n != self.n:
            raise DomainError(f"bit control has n={self.control.n}, expected {self.n}")
        ids = [w.id for w in self.wires]
        if len(set(ids)) != len(ids):
            raise StructuralError("wire ids must be unique")
        data = {w.id for w in self.data_wires()}
        bits = isinstance(self.control, BitControl)
        slots = set(self.control.slots) if bits else set()
        misfit = (PosCondSwap, SwitchSwap, Rewire) if bits else (ControlledApply, ControlledSwap)
        for g in self.gates:
            if isinstance(g, misfit):
                raise StructuralError(f"gate {g} cannot run under a {type(self.control).__name__}")
            for ref in _wire_refs(g, self.n):
                if ref not in data:
                    if ref in ids:
                        raise StructuralError(f"gate {g} acts on control wire {ref!r}")
                    raise StructuralError(f"gate {g} references unknown wire {ref!r}")
            if isinstance(g, (ControlledApply, ControlledSwap)):
                if g.polarity not in (0, 1):
                    raise StructuralError(f"gate {g} fires on polarity {g.polarity}, not 0 or 1")
                if g.bit not in slots:
                    raise StructuralError(f"gate {g} reads bit {g.bit}, not a control slot")
            for idx in _gate_indices(g):
                if not 0 <= idx < self.n:
                    raise StructuralError(f"black-box index {idx} out of range for n={self.n}")
            if isinstance(g, SwitchSwap) and not all(0 <= p < self.n for _, p in g.swaps):
                raise StructuralError(f"gate {g} swaps at a position outside [0, {self.n})")

    def data_wires(self) -> tuple[Wire, ...]:
        return tuple(w for w in self.wires if w.kind in (TARGET, AUXILIARY))

    def wire(self, wire_id: str) -> Wire:
        for w in self.wires:
            if w.id == wire_id:
                return w
        raise StructuralError(f"no wire {wire_id!r}")


def _wire_refs(gate: Gate, n: int) -> Iterator[str]:
    """The wires ``gate`` may act on, of a circuit over U_0..U_{n-1}."""
    if isinstance(gate, Apply):
        yield gate.wire
    elif isinstance(gate, ControlledApply):
        yield gate.wire
    elif isinstance(gate, ControlledSwap):
        yield gate.wire_a
        yield gate.wire_b
    elif isinstance(gate, PosCondSwap):
        yield gate.wire_a
        yield gate.wire_b
    elif isinstance(gate, SwitchSwap):  # and the a_i of the U_i acting at p, which may be any i
        for wire, _ in gate.swaps:
            yield wire
        yield from map(aux_wire, range(n))
    elif isinstance(gate, Rewire):
        for swaps in gate.routes.values():
            for a, b in swaps:
                yield a
                yield b


def _gate_indices(gate: Gate) -> Iterator[int]:
    if isinstance(gate, (Apply, ControlledApply)):
        yield gate.gate
    elif isinstance(gate, PosCondSwap):
        yield gate.gate


@dataclass(frozen=True)
class WireOutcome:
    """Per-wire applied words (in application order) plus token bookkeeping."""

    applied: dict[str, tuple[int, ...]]
    tokens_home: bool

    def word(self, wire_id: str) -> tuple[int, ...]:
        """Written product order (leftmost acts last) on a wire."""
        return tuple(reversed(self.applied[wire_id]))


def events(circuit: Circuit, x: int) -> Iterator[tuple]:
    """Elementary events of the circuit for control basis state x, in gate order.

    ``("apply", g, wire)`` appends U_g to the word of the token on ``wire``;
    ``("swap", a, b)`` exchanges the tokens on two wires.  This is the one
    place a control state is resolved; the symbolic executor and the dense
    backends consume the same stream.
    """
    if isinstance(circuit.control, QuditControl):
        labeling = circuit.control.labeling
        if not 0 <= x < labeling.size:
            raise RangeError(f"x={x} outside [0, {labeling.size - 1}]")
        return _events(circuit, labeling.word(x), None)
    if not 0 <= x < factorial(circuit.n):
        raise RangeError(f"x={x} outside [0, {factorial(circuit.n) - 1}]")
    return _events(circuit, None, circuit.control.assignment(x))


def _events(
    circuit: Circuit,
    word: PermWord | None,
    bits: Mapping[tuple[int, int], int] | None,
) -> Iterator[tuple]:
    positions = word.positions() if word is not None else None
    for gate in circuit.gates:
        if isinstance(gate, Apply):
            yield ("apply", gate.gate, gate.wire)
        elif isinstance(gate, ControlledApply):
            if bits[gate.bit] == gate.polarity:
                yield ("apply", gate.gate, gate.wire)
        elif isinstance(gate, ControlledSwap):
            if bits[gate.bit] == gate.polarity:
                yield ("swap", gate.wire_a, gate.wire_b)
        elif isinstance(gate, PosCondSwap):
            if gate.lo <= positions[gate.gate] < gate.hi:
                yield ("swap", gate.wire_a, gate.wire_b)
        elif isinstance(gate, SwitchSwap):
            for wire, position in gate.swaps:
                yield ("swap", wire, aux_wire(word.acting(position)))
        elif isinstance(gate, Rewire):
            try:
                swaps = gate.routes[word.order]
            except KeyError:
                raise StructuralError(
                    f"rewire step {gate.step} has no route for word {word.order}"
                )
            for a, b in swaps:
                yield ("swap", a, b)
        else:
            raise StructuralError(f"unknown gate {gate!r}")


def _run(circuit: Circuit, stream: Iterator[tuple]) -> WireOutcome:
    token_at = {w.id: w.id for w in circuit.data_wires()}
    words: dict[str, list[int]] = {t: [] for t in token_at}
    for kind, first, second in stream:
        if kind == "apply":  # first: the gate index, second: the wire
            words[token_at[second]].append(first)
        else:
            token_at[first], token_at[second] = token_at[second], token_at[first]
    applied = {w: tuple(words[token_at[w]]) for w in token_at}
    home = all(tok == w for w, tok in token_at.items())
    return WireOutcome(applied, home)


def execute(circuit: Circuit, x: int) -> WireOutcome:
    """Deterministic symbolic execution for one control basis state."""
    return _run(circuit, events(circuit, x))


def execute_with_bits(
    circuit: Circuit, bits: Mapping[tuple[int, int], int]
) -> WireOutcome:
    """Execute a bit-controlled circuit with an explicit bit assignment.

    Used for per-bit phase bookkeeping where the assignment is not the
    canonical representation of any x.
    """
    if not isinstance(circuit.control, BitControl):
        raise StructuralError("explicit bits only apply to bit-controlled circuits")
    if set(bits) != set(circuit.control.slots):
        raise StructuralError("bit assignment must cover exactly the control slots")
    if any(v not in (0, 1) for v in bits.values()):
        raise StructuralError("bits must be 0 or 1")
    return _run(circuit, _events(circuit, None, dict(bits)))


def query_count(circuit: Circuit) -> int:
    """Black-box instances in the gate list; controls and swaps count zero."""
    return sum(isinstance(g, (Apply, ControlledApply)) for g in circuit.gates)


def eliminate_controlled_unknowns(circuit: Circuit) -> Circuit:
    """Replace every controlled black-box application by a swap sandwich.

    ControlledApply(U_k, w, bit, pol) becomes ControlledSwap(w, a_k, bit, pol);
    Apply(U_k, a_k); ControlledSwap(w, a_k, bit, pol).  Auxiliary wires a_k
    are added as needed; the black-box instance count is unchanged.
    """
    gates: list[Gate] = []
    needed_aux: dict[str, int] = {}
    present = {w.id for w in circuit.wires}
    for g in circuit.gates:
        if isinstance(g, ControlledApply):
            aux = aux_wire(g.gate)
            needed_aux[aux] = g.gate
            gates.append(ControlledSwap(g.wire, aux, g.bit, g.polarity))
            gates.append(Apply(g.gate, aux))
            gates.append(ControlledSwap(g.wire, aux, g.bit, g.polarity))
        else:
            gates.append(g)
    new_wires = list(circuit.wires)
    for aux, gate_index in sorted(needed_aux.items(), key=lambda kv: kv[1]):
        if aux not in present:
            new_wires.append(Wire(aux, AUXILIARY, f"a_{gate_index}"))
    return replace(circuit, wires=tuple(new_wires), gates=tuple(gates))


def _fmt_bit(bit: tuple[int, int]) -> str:
    return f"c_{bit[0]}_{bit[1]}"


def _fmt_word(order: Sequence[int]) -> str:
    return ",".join(str(g) for g in order)


def export_circuit(circuit: Circuit) -> str:
    """Stable line-oriented description: header, wires, then gates in order."""
    lines = []
    if isinstance(circuit.control, QuditControl):
        control = f"qudit labeling={circuit.control.labeling.name}"
    else:
        slots = " ".join(f"c_{k}_{i}" for k, i in sorted(circuit.control.slots))
        control = f"bits slots={slots}"
    lines.append(f"circuit family={circuit.family} n={circuit.n} control={control}")
    for w in circuit.wires:
        lines.append(f"wire id={w.id} kind={w.kind}")
    for g in circuit.gates:
        if isinstance(g, Apply):
            lines.append(f"gate apply u={g.gate} wire={g.wire}")
        elif isinstance(g, ControlledApply):
            lines.append(
                f"gate capply u={g.gate} wire={g.wire} bit={_fmt_bit(g.bit)} on={g.polarity}"
            )
        elif isinstance(g, ControlledSwap):
            lines.append(
                f"gate cswap a={g.wire_a} b={g.wire_b} bit={_fmt_bit(g.bit)} on={g.polarity}"
            )
        elif isinstance(g, PosCondSwap):
            lines.append(
                f"gate poscswap a={g.wire_a} b={g.wire_b} u={g.gate} lo={g.lo} hi={g.hi}"
            )
        elif isinstance(g, SwitchSwap):
            pairs = " ".join(f"{wire}@{pos}" for wire, pos in g.swaps)
            lines.append(f"gate switchswap {pairs}")
        elif isinstance(g, Rewire):
            routes = "; ".join(
                f"{_fmt_word(word)} -> "
                + ",".join(f"{a}<->{b}" for a, b in swaps)
                for word, swaps in sorted(g.routes.items())
            )
            lines.append(f"gate rewire step={g.step} {{{routes}}}")
    return "\n".join(lines) + "\n"
