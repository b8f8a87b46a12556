"""Tests for the dense numerical backend."""

import random
from math import factorial, gcd, prod

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
from fpp.circuit import eliminate_controlled_unknowns, execute
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


def kron_promise_unitaries(n, y, table):
    """Reference construction: each U_i as a Kronecker chain over registers
    1..n-1 of a clock (register i), a shift power np.roll(eye) (registers
    above i) or the identity (registers below i)."""
    m = table.modulus
    dims = register_dims(n, y, table)
    units = []
    for i in range(n):
        u = np.eye(1, dtype=complex)
        for k, d in enumerate(dims, start=1):
            if i == k:
                f = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
            else:
                shift = -(table.entry(i, k) * y % m) * d // m if i < k else 0
                f = np.roll(np.eye(d, dtype=complex), shift, axis=0)
            u = np.kron(u, f)
        units.append(u)
    return units


def assert_matches_kron_reference(units, n, y, table):
    # np.array_equal, not byte equality: the kron chain leaves -0.0 where
    # the scatter writes 0.0
    reference = kron_promise_unitaries(n, y, table)
    assert len(units) == len(reference) == n
    for u, r in zip(units, reference):
        assert u.dtype == r.dtype and np.array_equal(u, r)


def test_construction_matches_kron_reference_on_n3_labelings():
    for lab in enumerate_valid_labelings(3):
        table = lab.validate().table
        for y in range(6):
            assert_matches_kron_reference(build_promise_unitaries(3, y, table), 3, y, table)


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
            assert_matches_kron_reference(units, n, y, table)
            size = prod(register_dims(n, y, table))
            assert pairwise_deviation(units, table, y) < 1e-9
            for u in units:
                assert u.shape == (size, size)
                assert np.allclose(u.conj().T @ u, np.eye(size), atol=1e-12)
            last = units[-1]  # the clock on the last register, identity above
            order = register_dims(n, y, table)[-1]
            assert np.allclose(last, np.diag(np.diag(last)))
            assert np.allclose(np.linalg.matrix_power(last, order), np.eye(size))


def test_pairwise_deviation_rejects_bad_inputs():
    table = FactoradicLabeling(3).validate().table
    units = build_promise_unitaries(3, 1, table)
    with pytest.raises(DomainError, match="expected 3 unitaries, got 2"):
        pairwise_deviation(units[:2], table, 1)
    with pytest.raises(DomainError, match="expected 3 unitaries, got 4"):
        pairwise_deviation(units + units[:1], table, 1)
    # y=7 would otherwise be checked as y=1 (omega^7 = omega at n!=6)
    for y in (-1, 6, 7):
        with pytest.raises(DomainError, match=rf"y={y} outside \[0, 5\]"):
            pairwise_deviation(units, table, y)


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
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    for circuit in (nlogn_circuit(3), eliminate_controlled_unknowns(nlogn_circuit(3))):
        for y in range(6):
            units = build_promise_unitaries(3, y, table)
            for seed in (None, 7):
                result = run_dense(circuit, units, seed=seed)
                assert result.measured_y == y
                assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_dense_sqrt_circuit():
    # numerically confirms the block-decomposition phase cancellation
    lab = FactoradicLabeling(3)
    table = lab.validate().table
    circuit = sqrt_circuit(3, lab)
    for y in range(6):
        units = build_promise_unitaries(3, y, table)
        for seed in (None, 7):
            result = run_dense(circuit, units, seed=seed)
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


def fresh_execute_dense(circuit, units):
    """run_dense's control marginal from |0> on every wire, recomputed with a
    fresh execute loop: the Fourier readout of the Gram matrix of the per-x
    product states."""
    m = factorial(circuit.n)
    gram = np.ones((m, m), dtype=complex)
    for wire in circuit.data_wires():
        rows = []
        for x in range(m):
            v = np.eye(len(units[0]), dtype=complex)[0]
            for g in execute(circuit, x).applied[wire.id]:
                v = units[g] @ v
            rows.append(v)
        rows = np.array(rows)
        gram *= rows @ rows.conj().T
    f = fourier(m)
    return np.real(np.diag(f.conj().T @ gram @ f)) / m


def test_run_dense_reuse_follows_the_circuit():
    # sim-switch, superperm, sim-switch, six-query on one n and table: each
    # call must see its own circuit's words.  sim-switch and superperm
    # differ only in x-independent auxiliary words, which leave the marginal
    # as it is, so the words themselves are compared too; unitaries off the
    # promise make six-query's marginal differ from sim-switch's.
    from fpp.densesim import _applied_words

    lab = FactoradicLabeling(3)
    a = sim_switch_circuit(3, lab)
    b = superperm_sim_switch(3, lab)
    c = six_query_n3(lab)
    rng = np.random.default_rng(3)
    units = [
        np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        for _ in range(3)
    ]
    expected = {id(k): fresh_execute_dense(k, units) for k in (a, b, c)}
    assert not np.allclose(expected[id(a)], expected[id(c)], atol=1e-3)
    for k in (a, b, a, c, a):
        assert np.allclose(run_dense(k, units).probabilities, expected[id(k)], atol=1e-12)
        assert _applied_words(k) == tuple(execute(k, x).applied for x in range(6))


def test_run_dense_rejects_stranded_tokens_on_every_call():
    lab = FactoradicLabeling(3)
    c = sim_switch_circuit(3, lab)
    broken = type(c)(c.n, c.family, c.wires, c.gates[:-1], c.control)
    assert not all(execute(broken, x).tokens_home for x in range(6))
    units = build_promise_unitaries(3, 1, lab.validate().table)
    run_dense(c, units)  # a good circuit first, so a reused entry would pass
    for _ in range(3):
        with pytest.raises(InvariantError, match="tokens did not return home"):
            run_dense(broken, units)


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


def _per_x_dense(circuit, units, seed):
    """run_dense's probabilities recomputed from scratch: start vectors
    drawn fresh from default_rng(seed), wire by wire, every x executed and
    multiplied through its words, and the Fourier matrix built anew."""
    m, d = factorial(circuit.n), units[0].shape[0]
    wires = [w.id for w in circuit.data_wires()]
    init = {}
    rng = np.random.default_rng(seed)
    for w in wires:
        if seed is None:
            init[w] = np.eye(d, dtype=complex)[0]
        else:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            init[w] = v / np.linalg.norm(v)
    gram = np.ones((m, m), dtype=complex)
    for w in wires:
        rows = np.empty((m, d), dtype=complex)
        for x in range(m):
            v = init[w]
            for g in execute(circuit, x).applied[w]:
                v = units[g] @ v
            rows[x] = v
        gram *= rows @ rows.conj().T
    f = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    return np.real(np.diag(f.conj().T @ (gram / m) @ f))


def test_run_dense_is_bit_identical_to_a_fresh_per_x_loop():
    # seeds and dimensions change from call to call, so the cached normal
    # stream is drawn again, reused as a prefix, and switched between seeds
    rng = random.Random(21)
    labelings = enumerate_valid_labelings(3)
    for lab in (labelings[0], labelings[17]):
        table = lab.validate().table
        units = [build_promise_unitaries(3, y, table) for y in range(6)]
        for family in ("sim-switch", "six-query", "superperm"):
            circuit = FAMILIES[family].build(3, lab)
            calls = [(seed, y) for seed in (7, 8, None, 7) for y in (0, 1, 2, 3, 4, 5)]
            calls += [(rng.choice([7, 8, 9]), rng.randrange(6)) for _ in range(12)]
            for seed, y in calls:
                got = run_dense(circuit, units[y], seed=seed).probabilities
                assert np.array_equal(got, _per_x_dense(circuit, units[y], seed)), (family, seed, y)


def test_fourier_is_built_once_and_read_only():
    f = fourier(6)
    assert fourier(6) is f and not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 0] = 0
    with pytest.raises(DomainError):
        fourier(0)


def test_run_dense_multiplies_each_distinct_word_once():
    # sim-switch at n=3: 54 applies over the 6 x, 24 of them in distinct
    # words of their wire
    lab = FactoradicLabeling(3)
    circuit = sim_switch_circuit(3, lab)
    units = build_promise_unitaries(3, 1, lab.validate().table)
    words = [execute(circuit, x).applied for x in range(6)]
    wires = [w.id for w in circuit.data_wires()]
    assert sum(len(applied[w]) for applied in words for w in wires) == 54
    assert sum(len(word) for w in wires for word in {applied[w] for applied in words}) == 24
    matvecs = 0

    class Counting(np.ndarray):
        def __matmul__(self, other):
            nonlocal matvecs
            matvecs += np.ndim(other) == 1
            return np.asarray(self) @ other

    run_dense(circuit, [u.view(Counting) for u in units])
    assert matvecs == 24
