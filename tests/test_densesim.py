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
    MonomialUnitary,
    _check_promise,
    _check_unitary,
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
    assert [np.asarray(u).tolist() for u in units0] == [[[1]], [[1]]]


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
    # each unit's dense view; np.array_equal, not byte equality: the kron
    # chain leaves -0.0 where the dense view writes 0.0
    reference = kron_promise_unitaries(n, y, table)
    assert len(units) == len(reference) == n
    for u, r in zip(units, reference):
        dense = np.asarray(u)
        assert dense.dtype == r.dtype and np.array_equal(dense, r)


def test_construction_matches_kron_reference_on_n3_labelings():
    # the dense checks stay as the independent check of the exact ones
    for lab in enumerate_valid_labelings(3):
        table = lab.validate().table
        for y in range(6):
            units = build_promise_unitaries(3, y, table)
            assert all(isinstance(u, MonomialUnitary) for u in units)
            assert_matches_kron_reference(units, 3, y, table)
            assert pairwise_deviation(units, table, y) < 1e-9
            for u in units:
                _check_unitary(np.asarray(u))


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
            units = [np.asarray(u) for u in units]
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
    lab = FactoradicLabeling(5)
    with pytest.raises(UnsupportedError, match=r"n=5 is unsupported \(n <= 4\)"):
        build_promise_unitaries(5, 0, lab.validate().table)


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
    from fpp.densesim import _wire_words

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
        words, which = _wire_words(k)
        wires = [w.id for w in k.data_wires()]
        assert len(set(words)) == len(words) and which.shape == (len(wires), 6)
        rebuilt = [{}, {}, {}, {}, {}, {}]
        for i, wire in enumerate(wires):
            for x in range(6):
                at, word = words[which[i, x]]
                assert at == i
                rebuilt[x][wire] = word
        assert tuple(rebuilt) == tuple(execute(k, x).applied for x in range(6))


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


def test_run_dense_multiplies_each_distinct_word_once(monkeypatch):
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

    dense = run_dense(circuit, [np.asarray(u).view(Counting) for u in units])
    assert matvecs == 24

    matvecs = 0
    apply = MonomialUnitary.__matmul__

    def counting_apply(self, other):
        nonlocal matvecs
        matvecs += np.ndim(other) == 1
        return apply(self, other)

    monkeypatch.setattr(MonomialUnitary, "__matmul__", counting_apply)
    monomial = run_dense(circuit, units)
    assert matvecs == 24
    assert monomial.measured_y == dense.measured_y == 1
    assert np.allclose(monomial.probabilities, dense.probabilities, atol=1e-12)


def test_monomial_refuses_two_columns_on_one_row_and_an_off_phase():
    # non-vacuity of the exact checks: a non-bijective unit, and each single
    # phase exponent moved by one (at n=3, y=1 some other unit moves every
    # column, so no shift cancels)
    with pytest.raises(InvariantError, match="do not form a bijection"):
        MonomialUnitary([0, 2, 0], [0, 0, 0], 6)
    with pytest.raises(InvariantError, match="do not form a bijection"):
        MonomialUnitary([0, 1, 3], [0, 0, 0], 6)
    with pytest.raises(InvariantError, match="two vectors of one length"):
        MonomialUnitary([0, 1], [0, 0, 0], 6)
    table = FactoradicLabeling(3).validate().table
    units = build_promise_unitaries(3, 1, table)
    _check_promise(units, table, 1)
    assert units[0].shape == (18, 18)
    for i, u in enumerate(units):
        for t in range(18):
            phase = u.phase.copy()
            phase[t] += 1
            broken = units[:i] + [MonomialUnitary(u.rows, phase, 6)] + units[i + 1:]
            with pytest.raises(InvariantError, match=r"!= omega\^\(e\[\d\]\[\d\]\*y\)"):
                _check_promise(broken, table, 1)
    # a permutation that breaks the commutation of the rows
    swapped = units[0].rows.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    broken = [MonomialUnitary(swapped, units[0].phase, 6)] + units[1:]
    with pytest.raises(InvariantError, match="on column"):
        _check_promise(broken, table, 1)


def test_monomial_values_are_read_only_copies():
    rows, phase = np.array([1, 2, 0]), np.array([7, 0, -1])
    u = MonomialUnitary(rows, phase, 6)
    rows[0], phase[0] = 0, 0  # the caller's arrays stay the caller's
    assert u.rows.tolist() == [1, 2, 0] and u.phase.tolist() == [1, 0, 5]
    assert u.cols.tolist() == [2, 0, 1] and u.shape == (3, 3)
    for array in (u.rows, u.phase, u.cols, u.amp):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        u.rows[0] = 2
    with pytest.raises(AttributeError):
        u.modulus = 3
    dense = np.asarray(u)
    omega = np.exp(2j * np.pi / 6)
    assert np.allclose(dense, [[0, 0, omega**5], [omega, 0, 0], [0, 1, 0]])


def test_monomial_apply_matches_the_dense_view():
    rng = np.random.default_rng(4)
    for lab in enumerate_valid_labelings(3)[::5]:
        table = lab.validate().table
        for y in range(6):
            for u in build_promise_unitaries(3, y, table):
                d = u.shape[0]
                v = rng.normal(size=d) + 1j * rng.normal(size=d)
                assert np.allclose(u @ v, np.asarray(u) @ v, atol=1e-14)
                # a matrix operand multiplies the dense form
                assert np.array_equal(u @ np.eye(d), np.asarray(u))


def test_run_dense_monomial_matches_dense_views():
    # the gather apply against matrix-vector products with the dense views
    for lab in enumerate_valid_labelings(3)[::7]:
        table = lab.validate().table
        for family in ("sim-switch", "six-query", "superperm", "nlogn", "sqrt"):
            circuit = FAMILIES[family].build(3, lab)
            for y in range(6):
                units = build_promise_unitaries(3, y, table)
                for seed in (None, 5):
                    a = run_dense(circuit, units, seed=seed)
                    b = run_dense(circuit, [np.asarray(u) for u in units], seed=seed)
                    assert a.measured_y == b.measured_y
                    assert np.abs(a.probabilities - b.probabilities).max() < 1e-12


def test_start_vectors_are_cached_read_only_and_fresh():
    from fpp.densesim import _start_vectors

    def fresh(seed, d, count):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(count):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            rows.append(v / np.linalg.norm(v))
        return np.array(rows)

    calls = [(7, 18, 4), (8, 9, 6), (7, 2, 4), (7, 18, 4), (None, 9, 3), (8, 36, 6), (7, 9, 6)]
    calls += [(9, 1152, 7), (7, 18, 4), (8, 9, 6)]
    for seed, d, count in calls:
        got = _start_vectors(seed, d, count)
        assert _start_vectors(seed, d, count) is got
        assert not got.flags.writeable and got.shape == (count, d)
        if seed is None:
            assert np.array_equal(got, np.eye(d, dtype=complex)[[0] * count])
        else:
            assert np.array_equal(got, fresh(seed, d, count)), (seed, d, count)
        with pytest.raises(ValueError):
            got[0, 0] = 0


def test_dense_n4_factoradic_every_family_reads_every_y():
    lab = FactoradicLabeling(4)
    table = lab.validate().table
    units = [build_promise_unitaries(4, y, table) for y in range(24)]
    assert max(u[0].shape[0] for u in units) == 1152
    families = [f for f in FAMILIES.values() if f.dense and (not f.sizes or 4 in f.sizes)]
    assert {f.name for f in families} == {
        "sim-switch", "superperm", "nlogn", "nlogn-reduced", "sqrt"
    }
    for family in families:
        circuit = family.build(4, lab)
        profile = phase_profile(circuit, lab)
        for y in range(24):
            result = run_dense(circuit, units[y], seed=3 if y % 2 else None)
            assert result.measured_y == solve_profile(profile, y).solved_y == y, family.name
            assert result.peak_probability >= 1 - PROBABILITY_TOL


def test_n4_dense_views_pass_the_dense_checks():
    # at the y whose registers stay small, the dense view of the n=4 units
    # passes the tolerance checks that cross-check the exact ones
    table = FactoradicLabeling(4).validate().table
    for y in (3, 8, 12):
        units = build_promise_unitaries(4, y, table)
        assert units[0].shape[0] <= 128
        assert pairwise_deviation(units, table, y) < 1e-9
        for u in units:
            _check_unitary(np.asarray(u))
