"""Tests for the dense numerical backend."""

import random
from math import gcd, prod

import numpy as np
import pytest

from fpp.algorithms import (
    FAMILIES,
    nlogn_circuit,
    phase_profile,
    sim_switch_circuit,
    six_query_n3,
    solve_profile,
    sqrt_circuit,
    superperm_sim_switch,
)
from fpp.circuit import eliminate_controlled_unknowns
from fpp.densesim import (
    PROBABILITY_TOL,
    build_promise_unitaries,
    fourier,
    pairwise_deviation,
    run_dense,
    run_dense_joint,
)
from fpp.commutation import CommutationTable, random_table
from fpp.errors import DimensionError, DomainError, InvariantError, UnsupportedError
from fpp.perms import FactoradicLabeling, enumerate_valid_labelings


def test_fourier_trivial():
    assert fourier(1).shape == (1, 1)
    assert abs(fourier(1)[0, 0] - 1) < 1e-12


def test_fourier_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(fourier(2), h)


def test_fourier_unitarity():
    for m in (2, 6, 24):
        f = fourier(m)
        assert np.linalg.norm(f.conj().T @ f - np.eye(m)) < 1e-10


def test_n2_pauli_pair():
    # one register of dimension 2/gcd(2, e[0][1]*y): sigma_x and sigma_z at
    # y=1, the 1x1 identity at y=0
    lab = FactoradicLabeling(2)
    table = lab.validate().table
    units1 = build_promise_unitaries(2, 1, table)
    assert np.allclose(units1[0], [[0, 1], [1, 0]])
    assert np.allclose(units1[1], [[1, 0], [0, -1]])
    units0 = build_promise_unitaries(2, 0, table)
    assert [u.tolist() for u in units0] == [[[1]], [[1]]]


def test_n3_construction_satisfies_table():
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    dims = []
    for y in range(6):
        units = build_promise_unitaries(3, y, table)
        dims.append(units[0].shape[0])
        assert pairwise_deviation(units, table, y) < 1e-9
    assert dims == [1, 18, 9, 2, 9, 18]  # at most (n!)^(n-1) = 36


def register_dims(n, y, table):
    """d_k = n!/gcd(n!, e[0][k]*y, ..., e[k-1][k]*y) for k = 1..n-1."""
    m = table.modulus
    return [
        m // gcd(m, *(table.entry(j, k) * y % m for j in range(k)))
        for k in range(1, n)
    ]


def test_construction_on_random_tables():
    # every antisymmetric table, not only the ones a labeling produces
    rng = random.Random(5)
    tables = [random_table(2, rng) for _ in range(4)] + [
        CommutationTable.from_upper(2, {(0, 1): 0})
    ]
    tables += [random_table(3, rng) for _ in range(30)]
    for table in tables:
        n = table.n
        for y in range(table.modulus):
            units = build_promise_unitaries(n, y, table)
            size = prod(register_dims(n, y, table))
            assert pairwise_deviation(units, table, y) < 1e-9
            for u in units:
                assert u.shape == (size, size)
                assert np.allclose(u.conj().T @ u, np.eye(size), atol=1e-12)
            last = units[-1]  # the clock on the last register, identity above
            order = register_dims(n, y, table)[-1]
            assert np.allclose(last, np.diag(np.diag(last)))
            assert np.allclose(np.linalg.matrix_power(last, order), np.eye(size))


def test_construction_unsupported_n():
    lab = FactoradicLabeling(4)
    with pytest.raises(UnsupportedError):
        build_promise_unitaries(4, 0, lab.validate().table)


def test_construction_rejects_bad_y():
    lab = FactoradicLabeling(2)
    with pytest.raises(DomainError):
        build_promise_unitaries(2, 2, lab.validate().table)


def test_n2_product_matches_joint():
    # the product-state engine against the literal joint statevector, over
    # qudit control (switch swaps, position-conditioned swaps) and bit
    # control (controlled applies, controlled swaps)
    lab = FactoradicLabeling(2)
    table = lab.validate().table
    circuits = (
        sim_switch_circuit(2, lab),
        nlogn_circuit(2),
        eliminate_controlled_unknowns(nlogn_circuit(2)),
        sqrt_circuit(2, lab),
    )
    for c in circuits:
        for y in (0, 1):
            units = build_promise_unitaries(2, y, table)
            for seed in (None, 11):
                a = run_dense(c, units, seed=seed)
                b = run_dense_joint(c, units, seed=seed)
                assert a.measured_y == b.measured_y == y
                assert np.allclose(a.probabilities, b.probabilities, atol=1e-10)
                assert a.peak_probability >= 1 - PROBABILITY_TOL


def test_n3_six_query_dense_vs_symbolic():
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    circuit = six_query_n3(lab)
    profile = phase_profile(circuit, lab)
    for y in range(6):
        units = build_promise_unitaries(3, y, table)
        result = run_dense(circuit, units)
        assert result.measured_y == solve_profile(profile, y).solved_y == y
        assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_n3_sim_switch_dense():
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    circuit = sim_switch_circuit(3, lab)
    for y in (0, 2, 5):
        units = build_promise_unitaries(3, y, table)
        result = run_dense(circuit, units)
        assert result.measured_y == y
        assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_random_initial_states():
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    circuit = superperm_sim_switch(3, lab)
    units = build_promise_unitaries(3, 4, table)
    result = run_dense(circuit, units, seed=1234)
    assert result.measured_y == 4
    assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_alternative_labeling():
    lab = enumerate_valid_labelings(3)[5]
    table = lab.validate().table
    circuit = six_query_n3(lab)
    for y in (1, 3):
        units = build_promise_unitaries(3, y, table)
        result = run_dense(circuit, units)
        assert result.measured_y == y
        assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_nlogn_bit_control():
    # numerically confirms that the commutation-rewrite phases of the
    # bit-controlled circuit assemble the exact Fourier state
    from fpp.algorithms import nlogn_circuit
    from fpp.circuit import eliminate_controlled_unknowns

    lab = FactoradicLabeling(3)
    table = lab.validate().table
    for circuit in (nlogn_circuit(3), eliminate_controlled_unknowns(nlogn_circuit(3))):
        for y in (1, 4, 5):
            units = build_promise_unitaries(3, y, table)
            result = run_dense(circuit, units)
            assert result.measured_y == y
            assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_sqrt_circuit():
    # numerically confirms the block-decomposition phase cancellation
    from fpp.algorithms import sqrt_circuit

    lab = FactoradicLabeling(3)
    table = lab.validate().table
    circuit = sqrt_circuit(3, lab)
    for y in (2, 3):
        units = build_promise_unitaries(3, y, table)
        result = run_dense(circuit, units)
        assert result.measured_y == y
        assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_dimension_guard():
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    units = build_promise_unitaries(3, 1, table)
    c = sqrt_circuit(3, lab)
    assert units[0].shape == (18, 18) and len(c.data_wires()) == 6
    with pytest.raises(DimensionError):
        run_dense_joint(c, units)  # 18^6 * 6 = 2.0e8 amplitudes


@pytest.mark.parametrize("engine", [run_dense, run_dense_joint])
def test_engines_reject_bad_unitaries(engine):
    lab = FactoradicLabeling(2)
    c = sim_switch_circuit(2, lab)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(DomainError, match="expected 2 unitaries, got 1"):
        engine(c, [x])
    with pytest.raises(DomainError, match="square dimension"):
        engine(c, [x, np.eye(3, dtype=complex)])
    with pytest.raises(InvariantError, match="not unitary"):
        engine(c, [x, 2 * x])


def test_dense_all_n3_labelings():
    # 24 labelings x 3 dense families x every y, from |0> and a seeded state
    for lab in enumerate_valid_labelings(3):
        table = lab.validate().table
        units = [build_promise_unitaries(3, y, table) for y in range(6)]
        for family in ("sim-switch", "six-query", "superperm"):
            circuit = FAMILIES[family].build(3, lab)
            profile = phase_profile(circuit, lab)
            for y in range(6):
                symbolic = solve_profile(profile, y).solved_y
                for seed in (None, 7):
                    result = run_dense(circuit, units[y], seed=seed)
                    assert result.measured_y == symbolic == y
                    assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_probabilities_normalized():
    lab = FactoradicLabeling(2)
    table = lab.validate().table
    units = build_promise_unitaries(2, 1, table)
    result = run_dense(sim_switch_circuit(2, lab), units)
    assert abs(result.probabilities.sum() - 1) < 1e-9
