"""Tests for the circuit IR, symbolic execution and the swap-sandwich transform."""

import pathlib
from dataclasses import replace
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpp.circuit import (
    AUXILIARY,
    CONTROL_QUDIT,
    TARGET,
    Apply,
    BitControl,
    Circuit,
    ControlledApply,
    ControlledSwap,
    PosCondSwap,
    QuditControl,
    Wire,
    _bit_tables,
    aux_wire,
    eliminate_controlled_unknowns,
    execute,
    execute_with_bits,
    export_circuit,
    query_count,
)
from fpp.algorithms import (
    nlogn_circuit,
    sim_switch_circuit,
    six_query_n3,
    sqrt_circuit,
    superperm_sim_switch,
)
from fpp import algorithms
from fpp.errors import DomainError, InvariantError, RangeError, StructuralError
from fpp.perms import FactoradicLabeling, factoradic_blocks

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_empty_circuit():
    lab = FactoradicLabeling(2)
    c = Circuit(
        2,
        "empty",
        (Wire("x", CONTROL_QUDIT), Wire("psi_t", TARGET)),
        (),
        QuditControl(lab),
    )
    out = execute(c, 1)
    assert out.applied == {"psi_t": ()}
    assert out.tokens_home


def test_execute_x_out_of_range():
    c = sim_switch_circuit(2)
    with pytest.raises(RangeError):
        execute(c, 2)


def test_unknown_wire_rejected():
    lab = FactoradicLabeling(2)
    with pytest.raises(StructuralError):
        Circuit(
            2,
            "bad",
            (Wire("x", CONTROL_QUDIT),),
            (Apply(0, "nowhere"),),
            QuditControl(lab),
        )


def test_gates_on_control_wires_rejected():
    # the x qudit of sim-switch and a control bit of nlogn carry no token:
    # a gate that names one is refused when the circuit is built
    sim = sim_switch_circuit(3)
    swap = PosCondSwap("psi_t", "x", 0, 1, 3)
    with pytest.raises(StructuralError, match="acts on control wire 'x'"):
        replace(sim, gates=sim.gates + (swap, swap))
    with pytest.raises(StructuralError, match="acts on control wire 'x'"):
        replace(sim, gates=sim.gates + (Apply(0, "x"),))
    bits = nlogn_circuit(4)
    cswap = ControlledSwap("psi_2_1", "c_1_1", (1, 1), 1)
    with pytest.raises(StructuralError, match="acts on control wire 'c_1_1'"):
        replace(bits, gates=bits.gates + (cswap, cswap))


def test_bit_control_of_another_n_rejected():
    c = nlogn_circuit(5)
    # at m=4 the slots of k=4 no longer exist, and BitControl refuses them
    with pytest.raises(StructuralError, match=r"bit slot \(4, 1\) is outside 1 <= k < n=4"):
        BitControl(4, c.control.slots)
    for m in (4, 6):
        slots = tuple(slot for slot in c.control.slots if slot[0] < m)
        with pytest.raises(DomainError, match=f"bit control has n={m}, expected 5"):
            replace(c, control=BitControl(m, slots))


def test_bit_outside_the_control_slots_rejected():
    c = nlogn_circuit(4)
    for gate in (
        ControlledApply(1, "psi_2_1", (1, 7), 1),
        ControlledSwap("psi_2_1", "psi_2_2", (9, 9), 0),
    ):
        k, i = gate.bit
        with pytest.raises(StructuralError, match=rf"reads bit \({k}, {i}\), not a control slot"):
            replace(c, gates=c.gates + (gate,))


def test_control_slot_outside_the_digits_rejected():
    # a slot (k, i) needs 1 <= k < n and i >= 1: the greedy map writes no
    # other, so a gate on one used to build and fail later with a KeyError
    c = nlogn_circuit(4)
    for k, i in ((9, 9), (4, 1), (0, 1), (-1, 1), (1, 0)):
        with pytest.raises(StructuralError, match=rf"bit slot \({k}, {i}\) is outside 1 <= k < n=4"):
            BitControl(4, c.control.slots + ((k, i),))
    with pytest.raises(StructuralError, match=r"bit slot \(9, 9\)"):
        replace(
            c,
            control=replace(c.control, slots=c.control.slots + ((9, 9),)),
            gates=c.gates + (ControlledSwap("psi_2_1", "psi_2_2", (9, 9), 0),),
        )
    assert BitControl(4, c.control.slots + ((3, 5),)).assignment(23)[(3, 5)] == 0


def test_gate_index_out_of_range():
    lab = FactoradicLabeling(2)
    with pytest.raises(StructuralError):
        Circuit(
            2,
            "bad",
            (Wire("x", CONTROL_QUDIT), Wire("psi_t", TARGET)),
            (Apply(2, "psi_t"),),
            QuditControl(lab),
        )


def test_sim_switch_descending_state():
    # control state whose permutation is the identity word applies gates 0,1,2
    c = sim_switch_circuit(3)
    out = execute(c, 0)
    assert out.applied["psi_t"] == (0, 1, 2)
    assert out.word("psi_t") == (2, 1, 0)
    for i in range(3):
        assert out.applied[aux_wire(i)] == (i, i)


def test_sim_switch_all_x_aux_words():
    c = sim_switch_circuit(3)
    for x in range(6):
        out = execute(c, x)
        for i in range(3):
            assert out.applied[aux_wire(i)] == (i, i)
        assert out.tokens_home


def test_six_query_row_x201():
    # the one permutation that cannot be spelled on the first target
    lab = FactoradicLabeling(3)
    c = six_query_n3(lab)
    out = execute(c, 1)
    assert out.word("psi_1") == (2, 1, 0)
    assert out.word("psi_2") == (0, 1)
    assert out.applied["a_1"] == (1,)


def test_six_query_other_rows():
    lab = FactoradicLabeling(3)
    c = six_query_n3(lab)
    for x in range(6):
        out = execute(c, x)
        if x != 1:
            assert out.word("psi_1") == lab.word(x).order
            assert out.word("psi_2") == (1, 0)
        assert out.applied["a_1"] == (1,)


def test_gate_conservation():
    # the executed black-box multiset per wire is identical for every x
    lab4 = FactoradicLabeling(4)
    for circuit in (
        sim_switch_circuit(4, lab4),
        superperm_sim_switch(4, lab4),
        sqrt_circuit(4, lab4),
        nlogn_circuit(4),
    ):
        reference = None
        for x in range(factorial(4)):
            out = execute(circuit, x)
            counts = {w: tuple(sorted(word)) for w, word in out.applied.items()}
            if reference is None:
                reference = counts
            else:
                assert counts == reference


def test_execute_referentially_transparent():
    c = sqrt_circuit(4)
    assert execute(c, 13).applied == execute(c, 13).applied


def test_query_count_examples():
    assert query_count(sim_switch_circuit(3)) == 9
    assert query_count(six_query_n3()) == 6
    assert query_count(superperm_sim_switch(3)) == 7


def test_execute_with_bits_matches_canonical():
    c = nlogn_circuit(4)
    control = c.control
    assert isinstance(control, BitControl)
    for x in range(24):
        bits = control.assignment(x)
        assert execute_with_bits(c, bits).applied == execute(c, x).applied


def test_execute_with_bits_validates():
    c = nlogn_circuit(4)
    with pytest.raises(StructuralError):
        execute_with_bits(c, {(1, 1): 1})
    with pytest.raises(StructuralError):
        execute_with_bits(sim_switch_circuit(2), {(1, 1): 0})


def test_control_kind_mismatch():
    # a position-conditioned swap needs a qudit control to resolve sigma_x
    bit_circuit = nlogn_circuit(4)
    mixed = Circuit(
        4,
        "mixed",
        bit_circuit.wires,
        (PosCondSwap("psi_2_1", "psi_2_2", 0, 0, 2),),
        bit_circuit.control,
    )
    with pytest.raises(StructuralError):
        execute(mixed, 0)


def test_eliminate_controlled_unknowns_noop():
    c = sim_switch_circuit(3)
    assert eliminate_controlled_unknowns(c).gates == c.gates


def test_eliminate_controlled_unknowns_aux_words():
    # every auxiliary ends with exactly ihat applications of its own gate
    c = eliminate_controlled_unknowns(nlogn_circuit(4))
    assert query_count(c) == 18
    for x in range(24):
        out = execute(c, x)
        for k in range(1, 4):
            assert out.applied[aux_wire(k)] == (k, k)
        assert out.tokens_home


def test_eliminate_matches_original_words():
    original = nlogn_circuit(4)
    transformed = eliminate_controlled_unknowns(original)
    targets = [w.id for w in original.wires if w.kind == TARGET]
    for x in range(24):
        a = execute(original, x)
        b = execute(transformed, x)
        for t in targets:
            assert a.applied[t] == b.applied[t]


def test_export_golden_six_query():
    text = export_circuit(six_query_n3())
    assert text == (GOLDEN / "six_query_factoradic.txt").read_text()


def test_export_stable_across_builds():
    assert export_circuit(sqrt_circuit(4)) == export_circuit(sqrt_circuit(4))
    assert export_circuit(nlogn_circuit(8, reduced=True)) == export_circuit(
        nlogn_circuit(8, reduced=True)
    )


def test_wire_kinds():
    c = sqrt_circuit(4)
    kinds = {w.id: w.kind for w in c.wires}
    assert kinds["x"] == CONTROL_QUDIT
    assert kinds["psi_0"] == TARGET
    assert kinds["a_0"] == AUXILIARY


# ---------------------------------------------------------------------------
# bit assignments for many xs, from the per-k digit tables


def _assert_assignments(control, xs):
    """The per-k bit tables of the sweep, gathered at the factoradic digits
    of the range xs, against :meth:`BitControl.assignment` per x."""
    bits = _bit_tables(control.n, control.slots)[0]
    assert list(bits) == sorted(control.slots)
    digits = factoradic_blocks(control.n).digits(xs)  # [k - 1, r]: a_k of xs[r]
    arrays = {slot: bit[digits[slot[0] - 1]] for slot, bit in bits.items()}
    assert all(a.dtype == np.uint8 and len(a) == len(xs) for a in arrays.values())
    for row, x in enumerate(xs):
        assert {s: int(a[row]) for s, a in arrays.items()} == control.assignment(x)


def test_assignments_match_assignment_for_every_x():
    for n in range(2, 9):
        _assert_assignments(nlogn_circuit(n).control, range(factorial(n)))
    for n in (4, 8):
        _assert_assignments(nlogn_circuit(n, reduced=True).control, range(factorial(n)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_assignments_match_assignment_at_large_n(data):
    n = data.draw(st.integers(9, 12))
    m, block = factorial(n), factorial(7)
    lo = data.draw(st.integers(0, m - 1))
    edge = block * data.draw(st.integers(1, m // block - 1))
    xs = data.draw(st.sampled_from([
        range(lo, min(m, lo + 300)),  # unaligned
        range(edge - 150, edge + 150),  # across a block boundary
        range(lo, lo + 1),
        range(lo, lo),
        range(m - 300, m),
    ]))
    _assert_assignments(nlogn_circuit(n).control, xs)


def _raised(fn, *args):
    with pytest.raises((RangeError, InvariantError)) as exc:
        fn(*args)
    return type(exc.value), str(exc.value)


def test_sweep_runs_the_reference_on_the_chunk_without_bits(monkeypatch):
    n = 4
    lab = FactoradicLabeling(n)
    full = nlogn_circuit(n)
    slots = tuple(s for s in full.control.slots if s != (2, 1))
    gates = tuple(g for g in full.gates if getattr(g, "bit", None) != (2, 1))
    circuit = Circuit(n, full.family, full.wires, gates, BitControl(n, slots))
    monkeypatch.setattr(algorithms, "_chunk_rows", lambda state_bytes: 7)
    sweep = algorithms._Sweep(circuit, lab.validate().table)
    assert sweep.tables is not None and sweep.rows == 7
    calls = []
    reference = algorithms._Sweep.reference

    def recording(self, xs):
        calls.append(xs)
        return reference(self, xs)

    monkeypatch.setattr(algorithms._Sweep, "reference", recording)
    with pytest.raises(InvariantError) as exc:
        sweep.sweep(range(lab.size))
    # x=4 is the first x with a_2 = 2; its chunk is 0..6, run per x
    assert calls == [range(0, 7)]
    assert str(exc.value) == _raised(circuit.control.assignment, 4)[1]
