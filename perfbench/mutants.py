"""Seeded circuits that the verifier must reject, for the reject workload.

Every mutant comes from a mutation class whose rejection follows from how
the circuit is built, so the expected verdict needs no verifier run:

* sim-switch, delete one ``Apply`` inside a ``SwitchSwap`` step.  The
  deleted U_i lands on the target for the x whose step-p gate is i and on
  a_i otherwise, so some wire's multiset changes with x.
* sqrt, shrink a ``PosCondSwap`` sandwich by one position on both halves.
  The wire then misses U_i exactly for the x that put gate i at the dropped
  position.
* nlogn, delete one ``ControlledApply`` on a slot the greedy assignment
  sets for some x.  At x=0 every bit is 0, so the target's multiset changes
  at the first x that sets the bit.  Slots no x sets are left out: deleting
  their gates changes nothing.
* relabeled, a circuit built for a labeling with two gate symbols renamed
  but verified against the factoradic one.  Its residuals are still
  x-independent; its phase is not linear, so every y takes the per-y solve
  fallback.

The sweep of a mutant stops at its witness x, so the cost of a mutant is
set by where it breaks.  To keep that cost the same for every seed, the
mutation *sites* are fixed and the seed picks among variants of equal cost:
the polarity of the deleted nlogn gate (both halves meet the same first x),
the mirror sandwich of a sqrt site (Parts 1 and 3 hold each gate and range
once each), the deleted gate among those below a sim-switch step, and the
renamed pair among the low gate symbols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable

from fpp import Circuit, FactoradicLabeling, Labeling, relabeled
from fpp.circuit import Apply, ControlledApply, PosCondSwap, SwitchSwap
from fpp.numsys import bit_weight, greedy_bits


@dataclass(frozen=True)
class Mutant:
    """A circuit to verify against the factoradic labeling, expected to fail."""

    name: str
    family: str
    circuit: Circuit
    has_witness: bool  # whether the failure must name a witness x


def _without(circuit: Circuit, index: int) -> Circuit:
    gates = circuit.gates[:index] + circuit.gates[index + 1 :]
    return replace(circuit, gates=gates)


def reachable_slots(circuit: Circuit) -> set[tuple[int, int]]:
    """Bit slots of an nlogn circuit that the greedy assignment sets for some x."""
    slots = circuit.control.slots
    reachable = set()
    for k in sorted({k for k, _ in slots}):
        slots_k = sorted(i for kk, i in slots if kk == k)
        weights = [bit_weight(k, i) for i in slots_k]
        for digit in range(k + 1):
            bits = greedy_bits(digit, weights)
            reachable.update((k, i) for i, b in zip(slots_k, bits) if b)
    return reachable


def nlogn_mutants(circuit: Circuit, rng: random.Random) -> list[Mutant]:
    """One deleted ControlledApply per reachable slot; the seed picks its polarity."""
    out = []
    for slot in sorted(reachable_slots(circuit)):
        polarity = rng.randrange(2)
        index = next(
            j for j, g in enumerate(circuit.gates)
            if isinstance(g, ControlledApply) and g.bit == slot and g.polarity == polarity
        )
        out.append(Mutant(
            f"nlogn: delete ControlledApply(U_{slot[0]}, c_{slot[0]}_{slot[1]}, on={polarity})",
            "nlogn", _without(circuit, index), True,
        ))
    return out


def _switch_steps(circuit: Circuit) -> list[list[int]]:
    """Indices of the Apply gates of each SwitchSwap step, in step order."""
    steps: list[list[int]] = []
    inside = False
    for j, g in enumerate(circuit.gates):
        if isinstance(g, SwitchSwap):
            inside = not inside
            if inside:
                steps.append([])
        elif inside and isinstance(g, Apply):
            steps[-1].append(j)
    return steps


def sim_switch_mutants(circuit: Circuit, rng: random.Random) -> list[Mutant]:
    """For each step p >= 1, delete the Apply of one gate i < p (seeded)."""
    out = []
    for p, applies in enumerate(_switch_steps(circuit)):
        if p == 0:
            continue
        gate = rng.randrange(p)
        index = next(j for j in applies if circuit.gates[j].gate == gate)
        out.append(Mutant(
            f"sim-switch: delete Apply(U_{gate}) in switch step {p}",
            "sim-switch", _without(circuit, index), True,
        ))
    return out


def _sandwiches(circuit: Circuit) -> dict[tuple[int, int, int], list[int]]:
    """Start index of every PosCondSwap sandwich, keyed by (gate, lo, hi)."""
    gates = circuit.gates
    sites: dict[tuple[int, int, int], list[int]] = {}
    for j in range(len(gates) - 2):
        g = gates[j]
        if isinstance(g, PosCondSwap) and isinstance(gates[j + 1], Apply) and gates[j + 2] == g:
            sites.setdefault((g.gate, g.lo, g.hi), []).append(j)
    return sites


def sqrt_mutants(circuit: Circuit, rng: random.Random) -> list[Mutant]:
    """Shrink one sandwich per (gate, range, side) site, for the lowest and
    highest gate; the seed picks which of the two mirror sandwiches."""
    n = circuit.n
    out = []
    for (gate, lo, hi), starts in sorted(_sandwiches(circuit).items()):
        if gate not in (0, n - 1):
            continue
        for side in ("lo", "hi"):
            j = rng.choice(starts)
            old = circuit.gates[j]
            new = replace(old, lo=lo + 1) if side == "lo" else replace(old, hi=hi - 1)
            gates = circuit.gates[:j] + (new, circuit.gates[j + 1], new) + circuit.gates[j + 3 :]
            out.append(Mutant(
                f"sqrt: shrink sandwich {old.wire_a}/U_{gate} [{lo},{hi}) -> "
                f"[{new.lo},{new.hi}) at gate {j}",
                "sqrt", replace(circuit, gates=gates), True,
            ))
    return out


Builder = Callable[[str, int, Labeling], Circuit]


def relabeled_mutants(n: int, build: Builder, rng: random.Random) -> list[Mutant]:
    """sim-switch and sqrt built for a labeling with two low symbols swapped.

    The top two symbols stay in place: renaming them moves the first x at
    which the phase turns non-linear far out, which would make the per-y
    fallback's cost depend on the seed.
    """
    out = []
    for family in ("sim-switch", "sqrt"):
        a, b = sorted(rng.sample(range(n - 2), 2))
        tau = list(range(n))
        tau[a], tau[b] = b, a
        labeling = relabeled(FactoradicLabeling(n), tau, name=f"factoradic-swap-{a}-{b}")
        out.append(Mutant(
            f"{family}: built for {labeling.name}, verified against factoradic",
            family, build(family, n, labeling), False,
        ))
    return out


def reject_suite(
    originals: dict[str, Circuit], build: Builder, seed: int
) -> list[Mutant]:
    """Every mutant of the reject workload for one seed, in a seeded order.

    ``originals`` maps nlogn, sim-switch and sqrt to their circuits for the
    factoradic labeling; ``build`` constructs a family's circuit for another
    labeling.
    """
    rng = random.Random(seed)
    mutants = (
        sim_switch_mutants(originals["sim-switch"], rng)
        + sqrt_mutants(originals["sqrt"], rng)
        + nlogn_mutants(originals["nlogn"], rng)
    )
    mutants = [m for m in mutants if m.circuit.gates != originals[m.family].gates]
    mutants += relabeled_mutants(originals["sqrt"].n, build, rng)
    rng.shuffle(mutants)
    return mutants
