"""Differential tests: the chunked numpy sweep against the per-x sweep.

``_Sweep.reference`` runs :func:`fpp.circuit.execute` and the residual
checks one x at a time; ``_Sweep.sweep`` runs whole chunks of xs in numpy.
They must agree on the exponents, the failure text and the errors raised.
"""

import importlib
import random
from dataclasses import replace
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fpp import algorithms, perms
from fpp.algorithms import (
    FAMILIES,
    MAX_READOUT_N,
    nlogn_circuit,
    phase_profile,
    sim_switch_circuit,
    sqrt_circuit,
)
from fpp.circuit import (
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
    aux_wire,
    eliminate_controlled_unknowns,
    execute,
    query_count,
)
from fpp.commutation import brute_force_phase, factoradic_table, random_table
from fpp.errors import FppError, InvariantError, StructuralError
from fpp.numsys import ceil_log2
from fpp.perms import (
    ExplicitLabeling,
    FactoradicLabeling,
    Labeling,
    enumerate_valid_labelings,
    relabeled,
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (FppError, KeyError) as exc:
        return type(exc).__name__, str(exc)


def assert_sweeps_agree(circuit: Circuit, labeling: Labeling):
    """Both sweeps over every x; returns the shared (exponents, failure)."""
    sweep = algorithms._Sweep(circuit, labeling.validate().table)
    xs = range(labeling.size)
    chunked = _outcome(sweep.sweep, xs)
    per_x = _outcome(sweep.reference, xs)
    if isinstance(chunked[0], np.ndarray):  # the engine's int64 exponents
        assert chunked[0].dtype == np.int64
        chunked = (chunked[0].tolist(), chunked[1])
    assert chunked == per_x
    return chunked


def _families(n):
    return [
        f.name for f in FAMILIES.values()
        if f.name != "switch" and (not f.sizes or n in f.sizes)
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_every_family_matches_per_x(n):
    lab = FactoradicLabeling(n)
    for name in _families(n):
        exponents, failure = assert_sweeps_agree(FAMILIES[name].build(n, lab), lab)
        assert failure is None
        assert len(exponents) == factorial(n)


def test_n3_labelings_match_per_x():
    for lab in enumerate_valid_labelings(3):
        for name in ("sim-switch", "six-query", "superperm"):
            assert_sweeps_agree(FAMILIES[name].build(3, lab), lab)


def test_relabeled_labelings_match_per_x():
    # explicit labelings, verified against themselves and against
    # factoradic: there the residuals hold but the phase is not linear
    for n, tau in ((4, (1, 3, 0, 2)), (5, (4, 0, 3, 1, 2)), (5, (1, 0, 2, 3, 4))):
        fac = FactoradicLabeling(n)
        lab = relabeled(fac, tau)
        for build in (sim_switch_circuit, sqrt_circuit):
            assert assert_sweeps_agree(build(n, lab), lab)[1] is None
            assert assert_sweeps_agree(build(n, lab), fac)[1] is None
            assert phase_profile(build(n, lab), fac).slope is None
    lab4 = relabeled(FactoradicLabeling(4), (1, 3, 0, 2))
    assert_sweeps_agree(FAMILIES["superperm"].build(4, lab4), lab4)


def _deletions(circuit: Circuit):
    """(deleted gate, circuit without it) for every gate."""
    gates = circuit.gates
    for j, gate in enumerate(gates):
        yield gate, replace(circuit, gates=gates[:j] + gates[j + 1 :])


def _single_mutants(circuit: Circuit):
    """Every gate deleted, every polarity flipped, every PosCondSwap bound
    moved by one (both gates of its sandwich)."""
    gates = circuit.gates
    yield from (mutant for _, mutant in _deletions(circuit))
    for j, g in enumerate(gates):
        if isinstance(g, (ControlledApply, ControlledSwap)):
            flipped = replace(g, polarity=1 - g.polarity)
            yield replace(circuit, gates=gates[:j] + (flipped,) + gates[j + 1 :])
    for j, g in enumerate(gates[:-2]):
        if isinstance(g, PosCondSwap) and gates[j + 2] == g:
            for moved in (replace(g, lo=g.lo + 1), replace(g, hi=g.hi - 1)):
                sandwich = (moved, gates[j + 1], moved)
                yield replace(circuit, gates=gates[:j] + sandwich + gates[j + 3 :])


@pytest.mark.parametrize("family", ["sim-switch", "nlogn", "sqrt"])
def test_mutants_match_per_x(family):
    n = 5
    lab = FactoradicLabeling(n)
    failures = 0
    for mutant in _single_mutants(FAMILIES[family].build(n, lab)):
        try:
            _, failure = assert_sweeps_agree(mutant, lab)
        except StructuralError:  # shared x=0 reference rejects it before any sweep
            continue
        failures += failure is not None
    assert failures > 0


def test_missing_rewire_route_matches_per_x():
    lab = FactoradicLabeling(3)
    c = FAMILIES["six-query"].build(3, lab)
    word = lab.word(3).order
    # a route with no swaps: only the lookup itself can fail
    j = next(j for j, g in enumerate(c.gates) if isinstance(g, Rewire) and not g.routes[word])
    routes = {w: swaps for w, swaps in c.gates[j].routes.items() if w != word}
    broken = replace(c, gates=c.gates[:j] + (replace(c.gates[j], routes=routes),) + c.gates[j + 1 :])
    kind, message = assert_sweeps_agree(broken, lab)
    assert kind == "StructuralError" and "no route" in message


def test_missing_auxiliary_wire_matches_per_x():
    # a switch swap of psi_t with a_2, which the circuit lacks, for every x
    # whose first acting gate is U_2
    lab = FactoradicLabeling(3)
    wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET), Wire("a_0", AUXILIARY), Wire("a_1", AUXILIARY))
    swap = SwitchSwap((("t", 0),))
    circuit = Circuit(3, "partial", wires, (swap, swap), QuditControl(lab))
    assert assert_sweeps_agree(circuit, lab) == ("KeyError", "'a_2'")


def test_switch_that_strands_tokens_matches_per_x():
    # a switch of t with the auxiliary wire of the first acting gate, undone
    # only where that gate is the one x=0 puts first: the other xs leave
    # tokens away from home with every word empty
    lab = FactoradicLabeling(3)
    first = lab.word(0).acting(0)
    wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET))
    wires += tuple(Wire(aux_wire(g), AUXILIARY) for g in range(3))
    gates = (SwitchSwap((("t", 0),)), PosCondSwap("t", aux_wire(first), first, 0, 1))
    circuit = Circuit(3, "strand", wires, gates, QuditControl(lab))
    _, failure = assert_sweeps_agree(circuit, lab)
    assert failure.endswith("tokens did not return to their home wires")


def test_exponents_past_int64_stay_exact():
    # sim-switch at n=20 under a random table: int64 exponent sums of the
    # last xs would wrap
    n = 20
    table = random_table(n, random.Random(1))
    sweep = algorithms._Sweep(sim_switch_circuit(n), table)
    xs = range(factorial(n) - 20, factorial(n))
    exponents, failure = sweep.sweep(xs)
    assert (exponents.tolist(), failure) == sweep.reference(xs)


def test_paper_circuits_lower_past_the_float64_bound():
    # sqrt and sim-switch lower at n=16, past MAX_READOUT_N, where the
    # sweep builds no tables and runs the reference, which gives the
    # factoradic exponent x
    n = 16
    table = factoradic_table(n)
    for build in (sqrt_circuit, sim_switch_circuit):
        circuit = build(n)
        sweep = algorithms._Sweep(circuit, table)
        assert query_count(circuit) == 256 and len(_steps(sweep)) == 256
        assert sweep.tables is None
        xs = range(factorial(n) - 5, factorial(n))
        exponents, failure = sweep.sweep(xs)
        assert failure is None and exponents.tolist() == list(xs)


def test_chunk_boundary_inside_sweep(monkeypatch):
    n = 5
    lab = FactoradicLabeling(n)
    table = lab.validate().table
    circuits = {name: FAMILIES[name].build(n, lab) for name in _families(n)}
    whole = {name: phase_profile(c, lab) for name, c in circuits.items()}
    # shrinking the first U_4 sandwich of psi_1 fails first at x=96
    c = circuits["sqrt"]
    j = next(j for j, g in enumerate(c.gates) if isinstance(g, PosCondSwap) and g.gate == n - 1)
    shrunk = replace(c.gates[j], lo=c.gates[j].lo + 1)
    broken = replace(c, gates=c.gates[:j] + (shrunk, c.gates[j + 1], shrunk) + c.gates[j + 3 :])
    whole_failure = phase_profile(broken, lab).failure
    assert whole_failure.startswith("x=96:")

    sqrt_bytes = _engine(c, lab).state_bytes
    monkeypatch.setattr(perms, "_CHUNK_BYTES", 7 * sqrt_bytes)  # chunks of 7 xs for sqrt
    for name, circuit in circuits.items():  # every family here takes the tables
        engine = algorithms._Sweep(circuit, table)
        assert engine.tables is not None and engine.rows == 7, name
        assert phase_profile(circuit, lab) == whole[name]
        assert_sweeps_agree(circuit, lab)
    assert phase_profile(broken, lab).failure == whole_failure
    assert len(assert_sweeps_agree(broken, lab)[0]) == 96


def _switch_steps(n, target, order):
    """Switch-simulation steps onto ``target`` for the positions in ``order``."""
    steps = []
    for position in order:
        swap = SwitchSwap(((target, position),))
        steps += [swap, *(Apply(g, aux_wire(g)) for g in range(n)), swap]
    return steps


def _engine(circuit: Circuit, labeling: Labeling) -> algorithms._Sweep:
    return algorithms._Sweep(circuit, labeling.validate().table)


def _steps(engine: algorithms._Sweep):
    """The engine's lowered applies grouped per ``Apply`` or
    ``ControlledApply`` of its circuit, in gate order, or None if the
    circuit does not lower.  Each group lists the (wire, gate, mask) routes
    of that apply: the partner routes of a sandwich, then the one on its
    own wire, whose mask in a sandwich is where no partner route holds."""
    circuit = engine.circuit
    lowered = engine._lower(circuit.gates)
    if lowered is None:
        return None
    wires, gates, masks = lowered
    assert len(wires) == len(gates) == len(masks)
    assert all(mask.dtype == bool and mask.shape == (circuit.n,) for mask in masks)
    routes = list(zip(wires, gates, masks))
    steps = []
    for gate in circuit.gates:
        if isinstance(gate, (Apply, ControlledApply)):
            own = engine.wire[gate.wire]
            end = next(i for i, (wire, _, _) in enumerate(routes) if wire == own) + 1
            step, routes = routes[:end], routes[end:]
            assert all(g == gate.gate for _, g, _ in step)
            if len(step) > 1:
                partners = np.logical_or.reduce([mask for _, _, mask in step[:-1]])
                assert (step[-1][2] == ~partners).all()
            steps.append(step)
    assert routes == []
    return steps


def test_sqrt_sandwiches_lower_to_routed_applies():
    n = 5
    lab = FactoradicLabeling(n)
    circuit = sqrt_circuit(n, lab)
    khat = -(-n // algorithms.ceil_sqrt(n))
    steps = _steps(_engine(circuit, lab))
    # one lowered step per Apply: the sandwiches' and the switch steps'
    sandwiches = len(steps) - algorithms.ceil_sqrt(n) * n
    assert sandwiches == 4 * (khat - 1) * n == 20
    # every conditional swap of the circuit sits in a sandwich
    assert sum(isinstance(g, PosCondSwap) for g in circuit.gates) == 2 * sandwiches
    assert_sweeps_agree(circuit, lab)


def test_near_miss_sandwiches_match_per_x():
    # three sandwiches route U_2 to t for acting positions [0, 1), [1, 3)
    # and [3, 4) of U_2, so t carries it once and a_2 twice for every x;
    # each near miss replaces the middle sandwich.  An Apply on a third
    # wire, or a second Apply between, is still a sandwich of the one rule;
    # a closing swap with another condition is not, and an Apply of U_1
    # routed by where U_2 acts does not lower (it reads another gate's key)
    n = 4
    lab = FactoradicLabeling(n)
    wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET), Wire("u", TARGET))
    wires += tuple(Wire(aux_wire(g), AUXILIARY) for g in range(n))
    swap = PosCondSwap("t", aux_wire(2), 2, 1, 3)
    apply = Apply(2, aux_wire(2))
    near_misses = {
        "shifted bound": (swap, apply, replace(swap, hi=swap.hi + 1)),
        "third wire": (swap, Apply(2, "u"), swap),
        "two gates between": (swap, apply, Apply(1, aux_wire(2)), swap),
        "two applies between": (swap, apply, apply, swap),
    }

    def sandwich(lo, hi):
        moved = replace(swap, lo=lo, hi=hi)
        return (moved, apply, moved)

    def circuit(middle):
        head = tuple(_switch_steps(n, "t", (2, 0, 3, 1)))  # an x-dependent word on t
        gates = head + sandwich(0, 1) + middle + sandwich(3, 4)
        return Circuit(n, "sandwiches", wires, gates, QuditControl(lab))

    exact = circuit((swap, apply, swap))
    assert [len(routes) for routes in _steps(_engine(exact, lab))] == [2] * (n * n + 3)
    exponents, failure = assert_sweeps_agree(exact, lab)
    assert failure is None and any(exponents)
    routes = {  # per lowered step after the head and the first sandwich
        "shifted bound": None,
        "third wire": [1, 2],  # U_2 stays on u for every x
        "two gates between": None,
        "two applies between": [2, 2, 2],
    }
    for name, middle in near_misses.items():
        steps = _steps(_engine(circuit(middle), lab))
        if routes[name] is None:
            assert steps is None, name
        else:
            assert [len(r) for r in steps] == [2] * (n * n + 1) + routes[name], name
        assert_sweeps_agree(circuit(middle), lab)


def _with_reversed_closing_swap(circuit, kind):
    """The circuit with the closing swap of its first sandwich of ``kind``
    naming its two wires in the other order."""
    gates = list(circuit.gates)
    j = next(i for i, g in enumerate(gates) if isinstance(g, kind))
    assert gates[j + 2] == gates[j] and gates[j].wire_a != gates[j].wire_b
    gates[j + 2] = replace(gates[j], wire_a=gates[j].wire_b, wire_b=gates[j].wire_a)
    return replace(circuit, gates=tuple(gates))


def test_reversed_closing_swap_is_the_same_sandwich():
    n = 5
    lab = FactoradicLabeling(n)
    sqrt = sqrt_circuit(n, lab)
    eliminated = eliminate_controlled_unknowns(nlogn_circuit(n))
    for circuit, kind in ((sqrt, PosCondSwap), (eliminated, ControlledSwap)):
        reversed_swap = _with_reversed_closing_swap(circuit, kind)
        steps = _steps(_engine(reversed_swap, lab))
        assert steps is not None and len(steps) == len(_steps(_engine(circuit, lab))), kind.__name__
        exponents, failure = assert_sweeps_agree(reversed_swap, lab)
        assert failure is None
        assert exponents == assert_sweeps_agree(circuit, lab)[0]


def test_paper_circuits_lower_to_plans_that_move_no_token():
    n = 5
    lab = FactoradicLabeling(n)
    for name in ("sim-switch", "sqrt", "nlogn"):
        circuit = FAMILIES[name].build(n, lab)
        # one lowered step per Apply or ControlledApply
        assert len(_steps(_engine(circuit, lab))) == query_count(circuit), name
    # in step p of sim-switch, U_i lands on the target where it acts at p,
    # and on a_i elsewhere
    engine = _engine(sim_switch_circuit(n, lab), lab)
    at = np.eye(n, dtype=bool)
    assert [
        [(wire, gate, mask.tolist()) for wire, gate, mask in step] for step in _steps(engine)
    ] == [
        [(engine.wire["psi_t"], i, at[p].tolist()), (engine.wire[aux_wire(i)], i, (~at[p]).tolist())]
        for p in range(n) for i in range(n)
    ]
    # nlogn's U_k lands under bit (k, i) on the digits a_k = 0..k that set it
    engine = _engine(nlogn_circuit(n), lab)
    slot_bits = algorithms._bit_tables(n, engine.control.slots)[0]
    for step, gate in zip(_steps(engine), engine.circuit.gates):
        [(_, _, mask)] = step
        if isinstance(gate, ControlledApply):
            k = gate.bit[0]
            assert mask[: k + 1].tolist() == (slot_bits[gate.bit] == gate.polarity).tolist()
            assert not mask[k + 1 :].any()
        else:
            assert mask.all()
    # the rail circuits move tokens by Rewire, so they sweep per x
    lab3 = FactoradicLabeling(3)
    for circuit in (FAMILIES["six-query"].build(3, lab3), *(
        FAMILIES["superperm"].build(m, FactoradicLabeling(m)) for m in (3, 4)
    )):
        assert _steps(_engine(circuit, circuit.control.labeling)) is None, circuit.family
        assert assert_sweeps_agree(circuit, circuit.control.labeling)[1] is None


def test_nlogn_keeps_a_block_for_every_wire():
    lab = FactoradicLabeling(8)
    table = lab.validate().table
    circuit = nlogn_circuit(8)
    engine = algorithms._Sweep(circuit, table)
    # psi_8_8 carries only U_0, and keeps its wire too
    assert set(engine.wire) == {w.id for w in circuit.data_wires()}
    # the table route: per state, the intp digits, three int64 vectors and the ok mask
    assert engine.tables is not None and engine.state_bytes == 8 * 8 + 24 + 1
    assert engine.rows == algorithms._chunk_rows(engine.state_bytes)
    profile = phase_profile(circuit, lab)
    assert profile.residuals["psi_8_8"] == (0,) and profile.slope == 1


def test_near_miss_switch_sandwiches_match_per_x():
    # a switch simulation onto t whose step at position 1 is an exact
    # sandwich or a near miss of one; each is valid at x=0 and must sweep as
    # execute does.  An Apply on the switched target is still a sandwich of
    # the one rule, but does not lower: it lands on a_i where U_i acts at
    # position 1, which reads the keys of the other gates
    n = 4
    lab = FactoradicLabeling(n)
    wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET), Wire("u", TARGET))
    wires += tuple(Wire(aux_wire(g), AUXILIARY) for g in range(n))
    switch = SwitchSwap((("t", 1),))
    middle = tuple(Apply(g, aux_wire(g)) for g in range(n))
    one_wire = SwitchSwap((("t", 1), ("t", 2)))  # a 3-cycle of tokens
    one_position = SwitchSwap((("t", 1), ("u", 1)))  # another
    wider = SwitchSwap((("t", 1), ("u", 2)))
    between = PosCondSwap("u", aux_wire(1), 1, 0, 2)
    near_misses = {
        "apply on the target": (switch, *middle, Apply(0, "t"), switch),
        "two pairs on one wire": (one_wire, *middle, one_wire, one_wire),
        "two pairs at one position": (one_position, *middle, one_position, one_position),
        "a non-Apply gate between": (switch, middle[0], between, middle[1], between, switch),
        "a closing switch with other pairs": (switch, *middle, wider, SwitchSwap((("u", 2),))),
    }
    head = tuple(_switch_steps(n, "u", (2, 0, 3, 1)))  # an x-dependent word on u

    def circuit(gates):
        tail = tuple(_switch_steps(n, "t", (0, 2, 3)))
        return Circuit(n, "switch-sandwiches", wires, head + gates + tail, QuditControl(lab))

    exact = circuit((switch, *middle, switch))
    assert len(_steps(_engine(exact, lab))) == 2 * n * n
    exponents, failure = assert_sweeps_agree(exact, lab)
    assert failure is None and any(exponents)
    for name, gates in near_misses.items():
        assert _steps(_engine(circuit(gates), lab)) is None, name
        assert_sweeps_agree(circuit(gates), lab)
    # a missing auxiliary wire: x=0 puts U_1 at position 1, x=12 puts U_3
    partial = Circuit(n, "partial", wires[:-1], (switch, switch), QuditControl(lab))
    assert _steps(_engine(partial, lab)) is None
    assert assert_sweeps_agree(partial, lab) == ("KeyError", "'a_3'")


def test_unlowered_plans_sweep_per_x(monkeypatch):
    # a circuit that does not lower never reaches _Sweep.run_tables
    def run_tables(self, xs):
        raise AssertionError("_Sweep.run_tables called for a circuit that does not lower")

    monkeypatch.setattr(algorithms._Sweep, "run_tables", run_tables)
    lab3 = FactoradicLabeling(3)
    assert assert_sweeps_agree(FAMILIES["six-query"].build(3, lab3), lab3)[1] is None
    # sim-switch with the closing SwitchSwap of its last step replaced by the
    # conditional swap that undoes it where U_7 acts last, as at x=0: tokens
    # stay off their wires from x=5040 on.  (Deleting the closing switch
    # alone strands tokens at x=0, which the reference rejects before any
    # sweep.)
    n = 8
    lab = FactoradicLabeling(n)
    c = sim_switch_circuit(n, lab)
    j = len(c.gates) - 1
    last = lab.word(0).acting(n - 1)
    undo = PosCondSwap("psi_t", aux_wire(last), last, n - 1, n)
    broken = replace(c, gates=c.gates[:j] + (undo,))
    assert _steps(_engine(broken, lab)) is None
    failure = phase_profile(broken, lab).failure
    assert failure == "x=5040: tokens did not return to their home wires"


def test_sweep_and_validation_decode_only_ranges(monkeypatch):
    # the decoder's callers hand it unit-step ranges inside [0, n!) only
    seen = []
    for name in ("acting", "positions", "digits"):
        method = getattr(perms.FactoradicBlocks, name)

        def spy(self, xs, name=name, method=method):
            seen.append((name, self.decodes(xs)))
            return method(self, xs)

        monkeypatch.setattr(perms.FactoradicBlocks, name, spy)
    lab = FactoradicLabeling(8)
    for name in ("nlogn", "sqrt"):  # the first profile validates the labeling
        assert phase_profile(FAMILIES[name].build(8, lab), lab).slope == 1
    assert {name for name, _ in seen} == {"positions", "digits"}  # a pass decodes no words
    assert all(decodes for _, decodes in seen)

    class LastWordsSwapped(FactoradicLabeling):
        """Factoradic with the words of the last two xs exchanged (both
        in the last chunk and the last word block)."""

        def words(self, xs):
            out, last = super().words(xs), np.asarray(xs) >= self.size - 2
            out[last] = out[last][::-1]
            return out

        def positions(self, xs):
            out, last = super().positions(xs), np.asarray(xs) >= self.size - 2
            out[:, last] = out[:, last][:, ::-1]
            return out

    seen.clear()
    assert not LastWordsSwapped(8).validate().consistent  # the oracle route decodes words
    assert {name for name, _ in seen} == {"acting", "positions"}
    assert all(decodes for _, decodes in seen)


def test_mixed_repeated_words_match_per_x():
    # words that repeat a gate among other gates: U_0 U_1 U_0 ahead of a
    # switch simulation on target t, repeats on an auxiliary wire, and the
    # switch played a second time onto target u between repeated gates
    for n, tau in ((3, None), (4, (2, 0, 3, 1))):
        fac = FactoradicLabeling(n)
        lab = fac if tau is None else relabeled(fac, tau)
        table = lab.validate().table
        wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET), Wire("u", TARGET))
        wires += tuple(Wire(aux_wire(g), AUXILIARY) for g in range(n))
        gates = [Apply(0, "t"), Apply(1, "t"), Apply(0, "t"), Apply(1, aux_wire(0))]
        gates += _switch_steps(n, "t", range(n))
        gates += [Apply(n - 1, "t"), Apply(0, "t"), Apply(1, "u"), Apply(0, "u")]
        gates += _switch_steps(n, "u", range(n))
        gates += [Apply(1, "u")]
        for circuit_lab in (lab, fac):
            circuit = Circuit(n, "mixed", wires, tuple(gates), QuditControl(circuit_lab))
            ref_out, refs = execute(circuit, 0), algorithms._Sweep(circuit, table).refs
            mixed = {r.wire for r in refs if 1 < len(set(r.sorted_word)) < len(r.sorted_word)}
            assert mixed == {"t", "u", aux_wire(0)}
            for r in refs:
                assert r.phase == brute_force_phase(ref_out.word(r.wire), table)
            exponents, failure = assert_sweeps_agree(circuit, lab)
            assert failure is None
            profile = phase_profile(circuit, lab)
            assert list(profile.exponents) == exponents
            # the repeated gates around each switch add x-independent
            # terms, so each target carries exponent x
            if circuit_lab is lab:
                assert profile.exponents.tolist() == [2 * x % lab.size for x in range(lab.size)]
            else:
                assert profile.slope is None


def test_unrepresentable_bits_match_per_x():
    # without slot (2, 1) the greedy map cannot write digit a_2 = 2: the
    # per-x sweep raises at the first such x, or fails earlier
    n = 4
    lab = FactoradicLabeling(n)
    full = nlogn_circuit(n)
    slots = tuple(s for s in full.control.slots if s != (2, 1))
    gates = tuple(g for g in full.gates if getattr(g, "bit", None) != (2, 1))
    circuit = replace(full, gates=gates, control=BitControl(n, slots))
    assert assert_sweeps_agree(circuit, lab)[0] == "InvariantError"
    # a gate missing at x=1 makes the residual failure come first
    early = replace(circuit, gates=tuple(
        g for g in gates if not (isinstance(g, ControlledApply) and g.bit == (1, 1) and g.polarity)
    ))
    _, failure = assert_sweeps_agree(early, lab)
    assert failure.startswith("x=1:")


def test_labeling_words_match_word():
    for n in range(2, 8):
        lab = FactoradicLabeling(n)
        expected = np.array([lab.word(x).order for x in range(lab.size)])
        assert (lab.words(range(lab.size)) == expected).all()
        assert (Labeling.words(lab, range(lab.size)) == expected).all()
        renamed = relabeled(lab, tuple(reversed(range(n))))
        picked = [lab.size - 1, 0, 1]
        assert isinstance(renamed, ExplicitLabeling)
        assert (renamed.words(picked) == [renamed.word(x).order for x in picked]).all()
    # n=9: random xs and the last block validation resolves
    lab = FactoradicLabeling(9)
    rng = np.random.default_rng(9)
    for xs in (rng.integers(0, lab.size, 500), range(lab.size - 4096, lab.size)):
        assert lab.words(xs).tolist() == [list(lab.word(int(x)).order) for x in xs]
    assert lab.words([]).shape == (0, 9)
    with pytest.raises(FppError, match="x=6 outside"):
        FactoradicLabeling(3).words([0, 6])


# ---------------------------------------------------------------------------
# random circuits


def _mirrored(draw, ops):
    """The ops with some applies moved to the end, followed by the swaps of
    the ops in reverse order, so every x returns its tokens home; sometimes
    one mirrored swap is dropped."""
    head = []
    tail = [g for g in reversed(ops) if isinstance(g, (ControlledSwap, PosCondSwap, SwitchSwap))]
    if tail and draw(st.booleans()):
        del tail[draw(st.integers(0, len(tail) - 1))]
    for g in ops:
        if isinstance(g, (Apply, ControlledApply)) and draw(st.booleans()):
            tail.insert(draw(st.integers(0, len(tail))), g)
        else:
            head.append(g)
    return tuple(head + tail)


def _gate_index(draw, n, pool):
    if pool:
        return pool.pop()
    return draw(st.integers(0, n - 1))


@st.composite
def qudit_circuits(draw):
    n = draw(st.integers(2, 5))
    targets = [f"t{i}" for i in range(draw(st.integers(1, 2)))]
    data = targets + [aux_wire(g) for g in range(n)]
    pool = list(draw(st.permutations(range(n)))) if draw(st.booleans()) else []
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["apply", "apply", "pos", "switch"]))
        if kind == "apply":
            ops.append(Apply(_gate_index(draw, n, pool), draw(st.sampled_from(data))))
        elif kind == "pos":
            a, b = draw(st.lists(st.sampled_from(data), min_size=2, max_size=2, unique=True))
            lo = draw(st.integers(0, n))
            ops.append(PosCondSwap(a, b, draw(st.integers(0, n - 1)), lo, draw(st.integers(lo, n))))
        else:
            wires = draw(st.lists(st.sampled_from(targets), min_size=1, unique=True))
            positions = draw(st.lists(st.integers(0, n - 1), min_size=len(wires),
                                      max_size=len(wires), unique=True))
            ops.append(SwitchSwap(tuple(zip(wires, positions))))
    gates = _mirrored(draw, ops)
    if draw(st.booleans()):
        # switch-simulation steps in a random position order: x-dependent
        # words with x-independent multisets, so nonzero exponents
        gates = tuple(_switch_steps(n, targets[0], draw(st.permutations(range(n))))) + gates
    fac = FactoradicLabeling(n)
    lab = relabeled(fac, draw(st.permutations(range(n)))) if draw(st.booleans()) else fac
    wires = (Wire("x", CONTROL_QUDIT),) + tuple(
        Wire(w, TARGET if w in targets else AUXILIARY) for w in data
    )
    return Circuit(n, "random", wires, gates, QuditControl(lab)), lab


@st.composite
def bit_circuits(draw):
    n = draw(st.integers(2, 5))
    all_slots = [(k, i) for k in range(1, n) for i in range(1, ceil_log2(n) + 1)]
    slots = draw(st.lists(st.sampled_from(all_slots), min_size=1, unique=True)) \
        if draw(st.booleans()) else all_slots
    data = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    pool = list(draw(st.permutations(range(n)))) if draw(st.booleans()) else []
    ops = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["apply", "capply", "cswap"]))
        if kind == "apply":
            ops.append(Apply(_gate_index(draw, n, pool), draw(st.sampled_from(data))))
        elif kind == "capply":
            ops.append(ControlledApply(_gate_index(draw, n, pool), draw(st.sampled_from(data)),
                                       draw(st.sampled_from(slots)), draw(st.integers(0, 1))))
        elif len(data) > 1:
            a, b = draw(st.lists(st.sampled_from(data), min_size=2, max_size=2, unique=True))
            ops.append(ControlledSwap(a, b, draw(st.sampled_from(slots)), draw(st.integers(0, 1))))
    gates = _mirrored(draw, ops)
    wires = tuple(Wire(f"c_{k}_{i}", CONTROL_BIT) for k, i in sorted(slots))
    wires += tuple(Wire(w, TARGET) for w in data)
    control = BitControl(n, tuple(sorted(slots)))
    return Circuit(n, "random", wires, gates, control), FactoradicLabeling(n)


@st.composite
def sandwich_circuits(draw, own_gates=False):
    """Runs of sandwiches of ``PosCondSwap`` (qudit control) or
    ``ControlledSwap`` (bit control): the swap, up to three Applies, each
    on a swapped wire or on any data wire, and the same swap again; or
    perturbed: the closing swap's condition moved, its wires given in the
    other order, or a conditional swap among the Applies.

    Under qudit control some are switch sandwiches instead: a ``SwitchSwap``,
    Applies on auxiliary wires or on any data wire, the same switch;
    perturbed by an Apply on a switched target, two pairs on one wire, a
    conditional swap between, or a closing switch with another pair.
    Sometimes an auxiliary wire is missing; the switches then avoid the
    position of its gate at x=0.

    With ``own_gates`` each Apply of a conditional-swap sandwich applies
    the gate whose key the swap reads (U_g for a ``PosCondSwap`` on g, U_k
    for a ``ControlledSwap`` on bit (k, i)), and each Apply on an auxiliary
    wire a_i of a switch sandwich applies U_i: mostly circuits that take
    the table route."""
    n = draw(st.integers(2, 5))
    qudit = draw(st.booleans())
    slots = [(k, i) for k in range(1, n) for i in range(1, ceil_log2(n) + 1)]
    targets = ["t0", "t1"]
    fac = lab = FactoradicLabeling(n)
    if qudit and draw(st.booleans()):
        lab = relabeled(fac, draw(st.permutations(range(n))))
    auxiliary = [aux_wire(g) for g in range(n)]
    switchable = list(range(n))  # positions a switch may name
    if qudit and draw(st.booleans()):
        missing = draw(st.integers(0, n - 1))
        del auxiliary[missing]
        switchable.remove(lab.word(0).positions()[missing])
    data = targets + auxiliary

    def conditional_swap(a, b):
        if qudit:
            lo = draw(st.integers(0, n))
            return PosCondSwap(a, b, draw(st.integers(0, n - 1)), lo, draw(st.integers(lo, n)))
        return ControlledSwap(a, b, draw(st.sampled_from(slots)), draw(st.integers(0, 1)))

    def moved(swap):
        if qudit:
            bound, step = draw(st.sampled_from(["lo", "hi"])), draw(st.sampled_from([-1, 1]))
            return replace(swap, **{bound: getattr(swap, bound) + step})
        if draw(st.booleans()):
            return replace(swap, polarity=1 - swap.polarity)
        return replace(swap, bit=draw(st.sampled_from(slots)))

    def switch_sandwich():
        pairs = draw(st.lists(st.sampled_from(targets), min_size=1,
                              max_size=min(2, len(switchable)), unique=True))
        positions = draw(st.lists(st.sampled_from(switchable), min_size=len(pairs),
                                  max_size=len(pairs), unique=True))
        switch = SwitchSwap(tuple(zip(pairs, positions)))
        wires = auxiliary if draw(st.booleans()) else data
        middle = [
            Apply(int(w[2:]) if own_gates and w in auxiliary else draw(st.integers(0, n - 1)), w)
            for w in draw(st.lists(st.sampled_from(wires), max_size=n))
        ]
        kind = draw(st.sampled_from(
            ["exact", "exact", "target", "one wire", "one position", "between", "wider"]
        ))
        close = [switch]
        if kind == "target":
            middle.insert(draw(st.integers(0, len(middle))), Apply(0, pairs[0]))
        elif kind == "one wire":  # a 3-cycle of tokens, played three times
            second = draw(st.sampled_from(switchable))
            switch = SwitchSwap(((pairs[0], positions[0]), (pairs[0], second)))
            close = [switch, switch]
        elif kind == "one position":  # likewise
            switch = SwitchSwap(((targets[0], positions[0]), (targets[1], positions[0])))
            close = [switch, switch]
        elif kind == "between":
            a, b = draw(st.lists(st.sampled_from(data), min_size=2, max_size=2, unique=True))
            middle.insert(draw(st.integers(0, len(middle))), conditional_swap(a, b))
        elif kind == "wider":  # then the extra pair alone, to restore it
            extra = ("t1" if pairs[0] == "t0" else "t0", draw(st.sampled_from(switchable)))
            close = [SwitchSwap(switch.swaps + (extra,)), SwitchSwap((extra,))]
        return [switch, *middle, *close]

    gates = []
    if qudit and len(switchable) == n and draw(st.booleans()):
        gates += _switch_steps(n, targets[0], draw(st.permutations(range(n))))
    for _ in range(draw(st.integers(1, 6))):
        if qudit and draw(st.integers(0, 2)) == 0:
            gates += switch_sandwich()
            continue
        a, b = draw(st.lists(st.sampled_from(data), min_size=2, max_size=2, unique=True))
        swap = conditional_swap(a, b)
        own = swap.gate if qudit else swap.bit[0]
        middle = [
            Apply(own if own_gates else draw(st.integers(0, n - 1)), draw(st.sampled_from(pick)))
            for pick in draw(st.lists(st.sampled_from([[a, b], data]), max_size=3))
        ]
        close = swap
        kind = draw(st.sampled_from(["exact", "exact", "moved", "reversed", "between"]))
        if kind == "moved":
            close = moved(swap)
        elif kind == "reversed":
            close = replace(swap, wire_a=b, wire_b=a)
        elif kind == "between":
            c, d = draw(st.lists(st.sampled_from(data), min_size=2, max_size=2, unique=True))
            middle.insert(draw(st.integers(0, len(middle))), conditional_swap(c, d))
        gates += [swap, *middle, close]
    if qudit:
        wires = (Wire("x", CONTROL_QUDIT),)
        control = QuditControl(lab)
    else:
        wires = tuple(Wire(f"c_{k}_{i}", CONTROL_BIT) for k, i in slots)
        control = BitControl(n, tuple(slots))
    wires += tuple(Wire(w, TARGET if w in targets else AUXILIARY) for w in data)
    return Circuit(n, "sandwiches", wires, tuple(gates), control), lab


def _check_random(case):
    circuit, lab = case
    try:
        algorithms._Sweep(circuit, lab.validate().table)
    except StructuralError:
        return  # rejected at x=0, before either sweep runs
    assert_sweeps_agree(circuit, lab)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(qudit_circuits())
def test_random_qudit_circuits_match_per_x(case):
    _check_random(case)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bit_circuits())
def test_random_bit_circuits_match_per_x(case):
    _check_random(case)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(sandwich_circuits(), sandwich_circuits(own_gates=True)))
def test_random_sandwiches_match_per_x(case):
    _check_random(case)


# ---------------------------------------------------------------------------
# chunk schedule


@pytest.fixture
def small_chunks(monkeypatch):
    """A first chunk of 3 states and a budget of 2^13 bytes: chunks of 3,
    6, 12, ... up to 16-48 states (``engine.rows``) at n = 5..7."""
    monkeypatch.setattr(perms, "_FIRST_CHUNK", 3)
    monkeypatch.setattr(perms, "_CHUNK_BYTES", 2**13)


def _recording(monkeypatch, name):
    """The xs each call of the :class:`_Sweep` method ``name`` sees, in
    order; the calls go through to the method."""
    seen = []
    method = getattr(algorithms._Sweep, name)
    monkeypatch.setattr(
        algorithms._Sweep, name, lambda self, xs: seen.append(xs) or method(self, xs)
    )
    return seen


@pytest.fixture
def chunks(monkeypatch):
    """The chunks of xs :meth:`_Sweep.run_tables` sees, in order."""
    return _recording(monkeypatch, "run_tables")


@pytest.fixture
def references(monkeypatch):
    """The xs :meth:`_Sweep.reference` is called with, in order."""
    return _recording(monkeypatch, "reference")


def _assert_schedule(seen, xs, rows):
    """The chunks tile xs; they start at the first size, and each doubles
    the last, up to ``rows``, except the last one, which takes the rest."""
    assert seen and seen[0].start == xs.start and seen[-1].stop == xs.stop
    assert all(a.stop == b.start for a, b in zip(seen, seen[1:]))
    assert all(c.step == 1 and 0 < len(c) <= rows for c in seen)
    sizes = [len(c) for c in seen]
    assert sizes[0] == min(perms._FIRST_CHUNK, rows, len(xs))
    assert all(b == min(2 * a, rows) for a, b in zip(sizes, sizes[1:-1]))
    assert len(seen) == 1 or sizes[-1] <= min(2 * sizes[-2], rows)


@pytest.mark.parametrize("n", range(2, 8))
def test_growing_chunks_match_per_x(small_chunks, chunks, n):
    lab = FactoradicLabeling(n)
    for name in _families(n):
        circuit = FAMILIES[name].build(n, lab)
        chunks.clear()
        exponents, failure = assert_sweeps_agree(circuit, lab)
        assert failure is None and len(exponents) == factorial(n)
        engine = _engine(circuit, lab)
        if engine.tables is None:  # the rail circuits sweep per x
            assert chunks == []
        else:
            _assert_schedule(chunks, range(lab.size), engine.rows)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=st.one_of(sandwich_circuits(), sandwich_circuits(own_gates=True)))
def test_growing_chunks_random_sandwiches_match_per_x(small_chunks, case):
    _check_random(case)


def _reject_suite(monkeypatch, n, seed):
    """The benchmark's seeded reject suite at n (perfbench/mutants.py)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    mutants = importlib.import_module("mutants")
    lab = FactoradicLabeling(n)
    originals = {name: FAMILIES[name].build(n, lab) for name in ("nlogn", "sim-switch", "sqrt")}
    return mutants.reject_suite(originals, lambda name, n, lab: FAMILIES[name].build(n, lab), seed)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_growing_chunks_reject_suites_match_per_x(monkeypatch, small_chunks, seed):
    lab = FactoradicLabeling(7)
    for mutant in _reject_suite(monkeypatch, 7, seed):
        _, failure = assert_sweeps_agree(mutant.circuit, lab)
        assert (failure is not None) == mutant.has_witness, mutant.name


def test_chunks_grow_from_the_first_size(chunks):
    n = 8
    lab = FactoradicLabeling(n)
    table = lab.validate().table
    for name in ("nlogn", "sqrt", "sim-switch"):
        engine = algorithms._Sweep(FAMILIES[name].build(n, lab), table)
        assert perms._FIRST_CHUNK < engine.rows < lab.size
        for xs in (range(lab.size), range(1000, 30001), range(7, 900), range(lab.size - 1, lab.size)):
            chunks.clear()
            exponents, failure = engine.sweep(xs)
            assert failure is None and len(exponents) == len(xs)
            _assert_schedule(chunks, xs, engine.rows)


def test_early_witness_sweeps_only_the_first_chunk(monkeypatch, chunks):
    # nlogn n=8 without the gate U_1 where bit (1, 1) is set: x=1 fails.
    # The residual scan decodes the first chunk alone, and the table route
    # never runs
    scanned = _recording(monkeypatch, "_keys")
    lab = FactoradicLabeling(8)
    c = nlogn_circuit(8)
    j = next(j for j, g in enumerate(c.gates) if isinstance(g, ControlledApply) and g.bit == (1, 1) and g.polarity)
    broken = replace(c, gates=c.gates[:j] + c.gates[j + 1 :])
    failure = phase_profile(broken, lab).failure
    assert failure.startswith("x=1:") and failure.endswith("; missing U_1")
    assert scanned == [range(0, perms._FIRST_CHUNK)]
    assert chunks == []


def test_small_growing_chunks_fill_exponents_in_x_order(monkeypatch):
    # 5, 10, 20, ... states up to 92 a chunk, over 40 320 states
    monkeypatch.setattr(perms, "_FIRST_CHUNK", 5)
    monkeypatch.setattr(perms, "_CHUNK_BYTES", 2**13)
    lab = FactoradicLabeling(8)
    circuit = nlogn_circuit(8)
    assert _engine(circuit, lab).rows == 92
    profile = phase_profile(circuit, lab)
    assert profile.exponents.tolist() == list(range(lab.size))  # slope 1: exponent x


# ---------------------------------------------------------------------------
# table route


def assert_table_route_agrees(circuit: Circuit, labeling: Labeling, per_x=None,
                              closed_form=False):
    """The table route (:meth:`_Sweep.run_tables`) over every x against the
    per-x reference over the sorted xs ``per_x`` (every x if None): the
    same exponents, the same first failing x and, through
    :meth:`_Sweep.sweep`, the same failure text.  With ``closed_form``, the
    exponents also equal x over every x, as they do for a circuit verified
    against its own labeling.  Returns the first failing x (n! if none
    fails)."""
    sweep = algorithms._Sweep(circuit, labeling.validate().table)
    assert sweep.tables is not None
    xs = range(labeling.size)
    exponents, first = sweep.run_tables(xs)
    assert exponents.dtype == np.int64
    if closed_form:
        assert first == len(xs) and np.array_equal(exponents, np.arange(len(xs)))
    if per_x is None:
        expected, failure = sweep.reference(xs)
        assert exponents[:first].tolist() == expected
        assert (failure is None) == (first == len(xs))
        chunked, chunked_failure = sweep.sweep(xs)
        assert (chunked.tolist(), chunked_failure) == (expected, failure)
        return first
    assert first == len(xs)
    expected, failure = sweep.reference(per_x)
    assert failure is None and exponents[per_x].tolist() == expected
    chunked, failure = sweep.sweep(xs)
    assert failure is None and np.array_equal(chunked, exponents)
    return first


@pytest.mark.parametrize("n", range(2, 9))
def test_table_route_matches_per_x_on_paper_circuits(n):
    # sqrt, sim-switch, nlogn and nlogn-reduced; per x on every x up to
    # n=6.  At n=7 and n=8 per x on the first and last 150, and where a
    # circuit is verified against another labeling than its own, on a
    # seeded sample of 300 more; against its own labeling p(x) = x on every x
    fac = FactoradicLabeling(n)
    renamed = relabeled(fac, tuple(reversed(range(n))))
    m = fac.size
    own = other = None
    if n > 6:
        own = [*range(0, 150), *range(m - 150, m)]
        other = sorted({*own, *random.Random(n).sample(range(m), 300)})
    nlogn = [nlogn_circuit(n, reduced) for reduced in ((False, True) if n in (4, 8) else (False,))]
    for lab in (fac, renamed):
        for build in (sqrt_circuit, sim_switch_circuit):
            assert assert_table_route_agrees(build(n, lab), lab, own, closed_form=True) == m
            if lab is renamed:  # a circuit of one labeling verified against another
                assert assert_table_route_agrees(build(n, fac), lab, other) == m
        for circuit in nlogn:  # keyed by digits, under either labeling's table
            per_x = own if lab is fac else other
            assert assert_table_route_agrees(circuit, lab, per_x, closed_form=lab is fac) == m


def _qualifying(circuit: Circuit, labeling: Labeling) -> bool:
    """Whether the circuit takes the table route (False where the x=0
    reference rejects it)."""
    try:
        return algorithms._Sweep(circuit, labeling.validate().table).tables is not None
    except StructuralError:
        return False


@pytest.mark.parametrize("n", [4, 5, 6])
def test_table_route_matches_on_single_mutants(n):
    lab = FactoradicLabeling(n)
    for family in ("sim-switch", "sqrt"):
        mutants = [
            m for m in _single_mutants(FAMILIES[family].build(n, lab)) if _qualifying(m, lab)
        ]
        firsts = [assert_table_route_agrees(m, lab) for m in mutants]
        # deleted applies and moved bounds qualify; deleted swaps do not
        assert len(mutants) > 2 * n and min(firsts) < lab.size, family


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_route_matches_on_reject_suites(monkeypatch, n, seed):
    lab = FactoradicLabeling(n)
    qualifying = [m for m in _reject_suite(monkeypatch, n, seed) if _qualifying(m.circuit, lab)]
    assert {m.circuit.family for m in qualifying} == {"nlogn", "sim-switch", "sqrt"}
    for mutant in qualifying:
        first = assert_table_route_agrees(mutant.circuit, lab)
        if mutant.has_witness:
            assert first < lab.size, mutant.name


def test_table_route_matches_on_n3_labelings():
    for lab in enumerate_valid_labelings(3):
        assert assert_table_route_agrees(sim_switch_circuit(3, lab), lab) == lab.size


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(sandwich_circuits(), sandwich_circuits(own_gates=True)))
def test_table_route_matches_on_random_sandwiches(case):
    circuit, lab = case
    if _qualifying(circuit, lab):
        assert_table_route_agrees(circuit, lab)


@pytest.mark.parametrize("n", range(2, MAX_READOUT_N + 1))
def test_table_route_selection(n):
    # sqrt, sim-switch, nlogn and nlogn-reduced qualify at every n a
    # profile admits and they are built for; the tables are built, and from
    # n=10 on not swept but on the last few xs
    table = factoradic_table(n)
    m = factorial(n)
    lab = FactoradicLabeling(n)
    for name, family in FAMILIES.items():
        if name == "switch" or (family.sizes and n not in family.sizes):
            continue
        sweep = algorithms._Sweep(family.build(n, lab), table)
        if name in ("superperm", "six-query"):  # Rewire steps: per x
            assert sweep.tables is None and _steps(sweep) is None
            continue
        checks, pairs = sweep.tables
        assert checks == (), name
        if name in ("sqrt", "sim-switch"):
            assert [(g, p) for g, p, _ in pairs] == [(g, p) for p in range(n) for g in range(p)]
        if n == 9:  # the int64 tables take under 25 KB
            assert sum(t.nbytes for _, _, t in pairs) < 25_000
        xs = range(m) if n < 10 else range(m - 5, m)
        exponents, failure = sweep.sweep(xs)
        assert exponents.dtype == np.int64
        assert failure is None and exponents.tolist() == list(xs), name


def test_table_route_gathers_per_block_pair():
    # the per-pair tables fold into one table per pair of two-gate blocks
    # (the last gate alone at odd n): 6 gathers at n=8 for sqrt's 28 pairs
    # and nlogn's 16, 10 at n=10; sqrt's block tables take under 3 MB at n=12
    for n in (8, 9, 10, 12):
        lab = FactoradicLabeling(n)
        for name in ("sqrt", "nlogn"):
            sweep = algorithms._Sweep(FAMILIES[name].build(n, lab), factoradic_table(n))
            assert len(sweep.blocks) == comb((n + 1) // 2, 2), (name, n)
            if name == "sqrt" and n == 12:
                assert sum(t.nbytes for _, _, t in sweep.blocks) < 3_000_000


def _assert_sweeps_per_x(circuit: Circuit, labeling: Labeling, references):
    """The circuit is cross-gate, so it does not lower and has no tables,
    and :meth:`_Sweep.sweep` hands :meth:`_Sweep.reference` every x in one
    call; returns the shared (exponents, failure) of both sweeps."""
    sweep = _engine(circuit, labeling)
    assert sweep.tables is None and _steps(sweep) is None
    references.clear()
    sweep.sweep(range(labeling.size))
    assert references == [range(labeling.size)]
    return assert_sweeps_agree(circuit, labeling)


def test_cross_gate_sandwiches_sweep_per_x(references):
    # an Apply of U_1 routed by where U_2 acts reads another gate's
    # position, so the circuit does not lower and sweeps per x; routed by where
    # U_1 acts, it takes the table route (both fail: t carries U_1 for some
    # xs only)
    n = 4
    lab = FactoradicLabeling(n)
    wires = (Wire("x", CONTROL_QUDIT), Wire("t", TARGET))
    wires += tuple(Wire(aux_wire(g), AUXILIARY) for g in range(n))
    head = tuple(_switch_steps(n, "t", (2, 0, 3, 1)))
    swap = PosCondSwap("t", aux_wire(1), 2, 1, 3)
    cross, own = (
        Circuit(n, name, wires, head + (s, Apply(1, aux_wire(1)), s), QuditControl(lab))
        for name, s in (("cross", swap), ("own", replace(swap, gate=1)))
    )
    assert _assert_sweeps_per_x(cross, lab, references)[1] is not None
    assert assert_table_route_agrees(own, lab) < lab.size


def _cross_digit(n, polarities=(1, 0), gate=1):
    """nlogn with U_gate applied on a new target t under bit (2, 1), once
    per polarity.  For gate 1 that reads a_2, another gate's digit; with
    both polarities t carries U_1 for every x, and the circuit passes."""
    c = nlogn_circuit(n)
    applies = tuple(ControlledApply(gate, "t", (2, 1), p) for p in polarities)
    return replace(c, wires=c.wires + (Wire("t", TARGET),), gates=c.gates + applies)


def test_cross_digit_applies_sweep_per_x(references):
    # U_1 under a bit of a_2 reads another gate's key, so the circuit does
    # not lower and sweeps per x, whether it passes or fails (one polarity: t
    # carries U_1 for some xs only); U_2 under that bit reads its own digit
    # and takes the tables
    n = 5
    lab = FactoradicLabeling(n)
    for polarities in ((1, 0), (1,)):
        _, failure = _assert_sweeps_per_x(_cross_digit(n, polarities), lab, references)
        assert (failure is None) == (len(polarities) == 2)
    assert assert_table_route_agrees(_cross_digit(n, (1,), gate=2), lab) < lab.size


def test_table_route_reruns_the_chunk_with_an_unwritable_digit(monkeypatch, chunks, references):
    # nlogn n=4 without slot (2, 1): no bits write a_2 = 2, first at x=4.
    # In chunks of 3, the tables sweep 0..2 and give up on 3..5, which the
    # reference runs, raising at x=4 as it does over every x
    n = 4
    lab = FactoradicLabeling(n)
    full = nlogn_circuit(n)
    slots = tuple(s for s in full.control.slots if s != (2, 1))
    gates = tuple(g for g in full.gates if getattr(g, "bit", None) != (2, 1))
    circuit = replace(full, gates=gates, control=BitControl(n, slots))
    monkeypatch.setattr(algorithms, "_chunk_rows", lambda state_bytes: 3)
    sweep = _engine(circuit, lab)
    assert sweep.tables is not None and sweep.rows == 3
    assert sweep.run_tables(range(3, 6)) is None
    chunks.clear()
    with pytest.raises(InvariantError) as exc:
        sweep.sweep(range(lab.size))
    assert chunks == [range(0, 3), range(3, 6)] and references == [range(3, 6)]
    with pytest.raises(InvariantError) as per_x:
        circuit.control.assignment(4)
    assert str(exc.value) == str(per_x.value)


# ---------------------------------------------------------------------------
# residuals before phases


def _no_phase_tables(*args, **kwargs):
    raise AssertionError("phase tables built for a circuit whose residuals fail")


def assert_residuals_decide(monkeypatch, circuit: Circuit, labeling: Labeling) -> bool:
    """Where both sweeps fail the circuit, :func:`phase_profile` gives the
    failure of :func:`assert_sweeps_agree` with the pair-table builder and
    :func:`~fpp.commutation.block_tables` made to raise, so it builds
    neither.  Returns whether the sweeps fail it (False also where the x=0
    reference rejects it)."""
    try:
        engine = _engine(circuit, labeling)
    except StructuralError:
        return False
    exponents, failure = assert_sweeps_agree(circuit, labeling)
    if isinstance(exponents, str) or failure is None:  # they raise alike, or it passes
        return False
    assert engine.checks is None or engine.checks, "a lowered circuit fails on its ok rows"
    with monkeypatch.context() as patched:
        patched.setattr(algorithms._Sweep, "_pair_tables", _no_phase_tables)
        patched.setattr(algorithms, "block_tables", _no_phase_tables)
        profile = phase_profile(circuit, labeling)
    assert profile.failure == failure and not profile.residuals_ok
    assert profile.exponents.size == 0
    return True


@pytest.mark.parametrize("n", [5, 6])
def test_failing_reject_suites_build_no_phase_tables(monkeypatch, n):
    lab = FactoradicLabeling(n)
    for seed in (1, 2, 3):
        for mutant in _reject_suite(monkeypatch, n, seed):
            decided = assert_residuals_decide(monkeypatch, mutant.circuit, lab)
            assert decided == mutant.has_witness, mutant.name


@pytest.mark.parametrize("n", [4, 5])
def test_failing_deletions_build_no_phase_tables(monkeypatch, n):
    lab = FactoradicLabeling(n)
    for family in ("nlogn", "sqrt", "sim-switch"):
        decided = [
            assert_residuals_decide(monkeypatch, mutant, lab)
            for _, mutant in _deletions(FAMILIES[family].build(n, lab))
        ]
        assert sum(decided) >= n, family


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=st.one_of(sandwich_circuits(), sandwich_circuits(own_gates=True)))
def test_failing_random_sandwiches_build_no_phase_tables(monkeypatch, case):
    assert_residuals_decide(monkeypatch, *case)


@pytest.mark.parametrize("n", [4, 5])
def test_witness_names_the_deleted_gate(n):
    # Deleting one apply of U_g takes one U_g off the wire it lands on at
    # each x, so the witness wire's word differs from its x=0 multiset by
    # that one U_g: missing where the apply lands at the witness and not at
    # x=0 (every nlogn ControlledApply on 1), extra where it is the other way
    lab = FactoradicLabeling(n)
    named = 0
    for family in ("nlogn", "sqrt", "sim-switch"):
        for gate, mutant in _deletions(FAMILIES[family].build(n, lab)):
            if not isinstance(gate, (Apply, ControlledApply)):
                continue
            failure = phase_profile(mutant, lab).failure
            if failure is None:
                continue
            difference = failure[failure.index("reference multiset is") :].split("; ")[1:]
            if isinstance(gate, ControlledApply) and gate.polarity:
                assert difference == [f"missing U_{gate.gate}"], failure
            else:
                assert difference in ([f"missing U_{gate.gate}"], [f"extra U_{gate.gate}"]), failure
            named += 1
    assert named > 3 * n


def test_multiset_difference_lists_both_sides():
    assert algorithms._multiset_difference((2, 0, 2, 5), (0, 1, 2, 3)) == (
        "; missing U_1, U_3; extra U_2, U_5"
    )
    assert algorithms._multiset_difference((1, 0), (0, 1)) == ""
