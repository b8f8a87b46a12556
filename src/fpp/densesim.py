"""Dense numerical cross-validation backend for small n.

Builds concrete promise-satisfying unitaries (one clock/shift register per
gate 1..n-1, sized by the phases it carries), runs the full Fourier-sandwich
protocol numerically, and reads y off the control marginal.  Each unitary
is held as a :class:`MonomialUnitary` (the row and the phase exponent of
every column), applied in O(d) and checked exactly, in integers, on every
build; the registers reach 13 824 dimensions at n=4, so n <= 4.
:func:`run_dense` takes each data wire's applied words from
:func:`fpp.circuit.execute` and assembles the control marginal from the
Gram matrix of the per-x product states, reusing across a run of calls (one
per y) what does not depend on y.  :func:`run_dense_joint` is the literal
full-statevector reference for tiny dimensions, on the dense matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, prod

import numpy as np

from .circuit import Circuit, events, execute
from .commutation import CommutationTable
from .errors import DimensionError, DomainError, InvariantError, UnsupportedError

__all__ = [
    "UNITARITY_TOL", "PROBABILITY_TOL", "DenseRunResult", "MonomialUnitary", "fourier",
    "require_supported_n", "build_promise_unitaries", "pairwise_deviation", "run_dense",
    "run_dense_joint",
]

UNITARITY_TOL = 1e-10
PROBABILITY_TOL = 1e-9

def _check_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    d = u.shape[0]
    if u.shape != (d, d):
        raise InvariantError(f"matrix shape {u.shape} is not square")
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > tol:
        raise InvariantError("matrix is not unitary within tolerance")


@lru_cache(maxsize=16)
def fourier(m: int) -> np.ndarray:
    """F[x][y] = omega^{x*y} / sqrt(m) with omega = exp(2*pi*i/m), built
    once per m and returned read-only."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    grid = np.outer(np.arange(m), np.arange(m))
    f = np.exp(2j * np.pi * grid / m) / np.sqrt(m)
    f.flags.writeable = False
    return f


@lru_cache(maxsize=16)
def _omega(m: int) -> np.ndarray:
    """exp(2*pi*i*p/m) for p = 0..m-1, built once per m, read-only."""
    powers = np.exp(2j * np.pi * np.arange(m) / m)
    powers.flags.writeable = False
    return powers


class MonomialUnitary:
    """U|t> = omega^phase[t] |rows[t]>, with omega = exp(2*pi*i/modulus).

    ``rows`` must be a permutation of 0..d-1: for a matrix with one
    unit-modulus entry per column that is unitarity, checked exactly here
    (:class:`InvariantError` otherwise).  Both vectors are kept as read-only
    copies, ``phase`` reduced mod ``modulus``, with the inverse permutation
    ``cols`` and the per-row amplitudes ``amp``, so that ``u @ v`` for a
    vector v is ``amp * v[cols]``.  ``np.asarray(u)`` is the dense matrix.
    The value is frozen: its attributes cannot be set.
    """

    __slots__ = ("rows", "phase", "modulus", "cols", "amp")

    def __init__(self, rows, phase, modulus: int) -> None:
        rows = np.array(rows, dtype=np.intp)
        phase = np.array(phase, dtype=np.int64) % modulus
        if rows.ndim != 1 or phase.shape != rows.shape:
            raise InvariantError("rows and phases must be two vectors of one length")
        cols = rows.argsort()  # the inverse permutation, if rows is one
        if (rows[cols] != np.arange(rows.size)).any():
            raise InvariantError("rows do not form a bijection: the matrix is not unitary")
        amp = _omega(modulus)[phase[cols]]
        for array in (rows, phase, cols, amp):
            array.flags.writeable = False
        for name, value in zip(self.__slots__, (rows, phase, modulus, cols, amp)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"MonomialUnitary is frozen; cannot set {name!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.size, self.rows.size)

    def __matmul__(self, v):
        if isinstance(v, np.ndarray) and v.ndim == 1:
            return self.amp * v[self.cols]
        return NotImplemented  # a matrix operand multiplies the dense form

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # numpy casts to dtype
        dense = np.zeros(self.shape, dtype=complex)
        dense[self.rows, np.arange(self.rows.size)] = _omega(self.modulus)[self.phase]
        return dense


def pairwise_deviation(units: list, table: CommutationTable, y: int) -> float:
    """max over pairs of || U_j U_k - omega^{e[j][k]*y} U_k U_j ||_max, on
    the dense matrices."""
    if len(units) != table.n:
        raise DomainError(f"expected {table.n} unitaries, got {len(units)}")
    m = table.modulus
    if not 0 <= y < m:
        raise DomainError(f"y={y} outside [0, {m - 1}]")
    units = [np.asarray(u) for u in units]
    omega = np.exp(2j * np.pi / m)
    worst = 0.0
    for j in range(table.n):
        for k in range(j + 1, table.n):
            lhs = units[j] @ units[k]
            rhs = omega ** ((table.entry(j, k) * y) % m) * (units[k] @ units[j])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _check_promise(units: list[MonomialUnitary], table: CommutationTable, y: int) -> None:
    """The exact form of ``pairwise_deviation == 0``: for every j < k,
    U_j U_k and U_k U_j send each column to one row, and the phase
    exponents of U_j U_k exceed those of U_k U_j by e[j][k]*y mod n!."""
    for k, uk in enumerate(units):
        for j, uj in enumerate(units[:k]):
            gap = uk.phase + uj.phase[uk.rows] - uj.phase - uk.phase[uj.rows]
            bad = (gap - table.entry(j, k) * y) % table.modulus != 0
            bad |= uj.rows[uk.rows] != uk.rows[uj.rows]
            if bad.any():
                raise InvariantError(
                    f"U_{j} U_{k} != omega^(e[{j}][{k}]*y) U_{k} U_{j} on column "
                    f"{np.flatnonzero(bad)[0]}"
                )


def require_supported_n(n: int) -> None:
    """Raise :class:`UnsupportedError` for an n whose promise registers
    :func:`build_promise_unitaries` would not build (n > 4)."""
    if n > 4:
        raise UnsupportedError(
            f"dense promise unitaries have up to (n!)^(n-1) rows; n={n} is unsupported (n <= 4)"
        )


def build_promise_unitaries(n: int, y: int, table: CommutationTable) -> list[MonomialUnitary]:
    """Concrete unitaries satisfying every pairwise relation of ``table`` at y.

    One clock/shift register per gate k = 1..n-1, of dimension
    d_k = n!/gcd(n!, e[0][k]*y, ..., e[k-1][k]*y), the order of the phases
    it carries.  U_k is the clock Z = diag(exp(2*pi*i*t/d_k)) on register k,
    X^a(k,q) on every register q > k (X|t> = |t+1 mod d_q>) and the identity
    below k, with a(j,k) = -e[j][k]*y*d_k/n! mod d_k.  A pair j < k then
    meets only on register k, where X^a Z = exp(-2*pi*i*a/d_k) Z X^a carries
    exactly omega^{e[j][k]*y}.  So U_i sends column t (digits t_k, register
    1 most significant) to the row of digits t_k + a(i,k) mod d_k on every
    register k > i, with phase exponent t_i * n!/d_i (0 for U_0).  Every
    construction is checked exactly against the table.
    """
    if n != table.n:
        raise DomainError(f"table has n={table.n}, expected {n}")
    m = table.modulus
    if not 0 <= y < m:
        raise DomainError(f"y={y} outside [0, {m - 1}]")
    require_supported_n(n)

    carried = [[table.entry(j, k) * y % m if j < k else 0 for k in range(n)] for j in range(n)]
    dims = [m // gcd(m, *(carried[j][k] for j in range(k))) for k in range(1, n)]
    strides = np.array([prod(dims[k:]) for k in range(1, n)])
    radix = np.array(dims)[:, None]
    digits = np.arange(prod(dims)) // strides[:, None] % radix  # digits[k - 1]: t_k
    shifts = -np.array(carried)[:, 1:, None] * radix // m  # [i, k - 1]: a(i, k), 0 unless i < k
    rows = strides @ ((digits + shifts) % radix)
    phases = np.zeros_like(rows)
    phases[1:] = digits * (m // radix)
    units = [MonomialUnitary(r, p, m) for r, p in zip(rows, phases)]
    _check_promise(units, table, y)
    return units


@dataclass(frozen=True)
class DenseRunResult:
    measured_y: int
    peak_probability: float
    probabilities: np.ndarray


def _check_inputs(circuit: Circuit, unitaries: list) -> int:
    """The shared dimension d of ``unitaries``: one unitary d x d matrix per
    gate of ``circuit``.  A :class:`MonomialUnitary` was checked exactly
    when it was made; a plain matrix is checked for unitarity here."""
    if len(unitaries) != circuit.n:
        raise DomainError(f"expected {circuit.n} unitaries, got {len(unitaries)}")
    d = unitaries[0].shape[0]
    for u in unitaries:
        if u.shape != (d, d):
            raise DomainError("unitaries must share one square dimension")
        if not isinstance(u, MonomialUnitary):
            _check_unitary(u)
    return d


# The last seed's standard normals, at least _STREAM of them.
_STREAM = 1024
_last_normals: tuple[int, np.ndarray] | None = None


def _normals(seed: int, size: int) -> np.ndarray:
    """The first ``size`` standard normals of ``default_rng(seed)``, a
    prefix of the last seed's stream, drawn again only to make it longer."""
    global _last_normals
    memo = _last_normals
    if memo is None or memo[0] != seed or len(memo[1]) < size:
        stream = np.random.default_rng(seed).normal(size=max(size, _STREAM))
        stream.flags.writeable = False
        memo = _last_normals = (seed, stream)
    return memo[1][:size]


@lru_cache(maxsize=16)
def _start_vectors(seed: int | None, d: int, count: int) -> np.ndarray:
    """One start vector per data wire, the rows of a read-only array: |0>,
    or with a seed d real then d imaginary parts from :func:`_normals`, wire
    by wire, divided by their norm as ``np.linalg.norm`` computes it."""
    if seed is None:
        out = np.zeros((count, d), dtype=complex)
        out[:, 0] = 1.0
    else:
        parts = _normals(seed, 2 * d * count).reshape(count, 2, d)
        out = parts[:, 0] + 1j * parts[:, 1]
        for v in out:
            v /= np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    out.flags.writeable = False
    return out


# The last circuit run_dense executed and its words, keyed by identity (a
# Circuit with a Rewire is unhashable) and holding the circuit, so that its
# id cannot be reused while the entry lives.
_Words = tuple[tuple[tuple[int, tuple[int, ...]], ...], np.ndarray]
_last_words: tuple[Circuit, _Words] | None = None


def _wire_words(circuit: Circuit) -> _Words:
    """The distinct (data wire index, word) pairs of :func:`execute` over all
    x, and at [wire, x] the index of x's pair, for the circuit of the call
    before or else executed anew.  Raises :class:`InvariantError`, keeping
    nothing, when some x leaves a token off its home wire."""
    global _last_words
    memo = _last_words
    if memo is not None and memo[0] is circuit:
        return memo[1]
    outcomes = [execute(circuit, x) for x in range(factorial(circuit.n))]
    if not all(out.tokens_home for out in outcomes):
        raise InvariantError("tokens did not return home; marginal undefined")
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    which = [
        [index.setdefault((w, out.applied[wire.id]), len(index)) for out in outcomes]
        for w, wire in enumerate(circuit.data_wires())
    ]
    _last_words = (circuit, (tuple(index), np.array(which)))
    return _last_words[1]


def run_dense(circuit: Circuit, unitaries: list, seed: int | None = None) -> DenseRunResult:
    """Numerically run the Fourier sandwich and measure the control register:
    the control marginal is the elementwise product over data wires of the
    overlap matrices F_w F_w^H, with the wire's final vectors as rows of F_w.
    """
    d = _check_inputs(circuit, unitaries)
    m = factorial(circuit.n)
    wires = len(circuit.data_wires())
    if m * wires * d > 10**7 or m * m > 10**7:
        raise DimensionError(f"dense run needs {m * wires * d} amplitudes and an "
                             f"{m}x{m} control marginal; limit is 1e7")

    init = _start_vectors(seed, d, wires)
    words, which = _wire_words(circuit)
    landed = []  # each wire's start vector through each distinct word it carries
    for w, word in words:
        v = init[w]
        for g in word:
            v = unitaries[g] @ v
        landed.append(v)
    final = np.array(landed)[which]  # [wire, x]: |psi_x>_w

    # <psi_x'|psi_x> at [x, x'], multiplied over the wires
    gram = np.multiply.reduce(final @ final.conj().transpose(0, 2, 1))
    f = fourier(m)
    probs = np.real(np.diag(f.conj().T @ (gram / m) @ f))
    measured = int(np.argmax(probs))
    return DenseRunResult(measured, float(probs[measured]), probs)


def run_dense_joint(circuit: Circuit, unitaries: list, seed: int | None = None) -> DenseRunResult:
    """Literal joint-statevector reference (cost m * d^wires amplitudes) on
    the dense matrices, for tiny dimensions: the check of :func:`run_dense`."""
    d = _check_inputs(circuit, unitaries)
    m = factorial(circuit.n)
    wires = [w.id for w in circuit.data_wires()]
    total = m * d ** len(wires)
    if total > 10**7:
        raise DimensionError(f"joint vector needs {total} amplitudes; limit is 1e7")

    unitaries = [np.asarray(u) for u in unitaries]
    state = np.full(m, 1 / np.sqrt(m), dtype=complex)  # F|0>
    for start in _start_vectors(seed, d, len(wires)):
        state = np.kron(state, start)
    state = state.reshape((m,) + (d,) * len(wires))

    axis_of = {w: idx for idx, w in enumerate(wires)}
    for x in range(m):
        slice_x = state[x].copy()
        for kind, first, second in events(circuit, x):
            if kind == "apply":  # first: the gate index, second: the wire
                ax = axis_of[second]
                slice_x = np.moveaxis(
                    np.tensordot(unitaries[first], slice_x, axes=([1], [ax])), 0, ax
                )
            else:
                slice_x = np.swapaxes(slice_x, axis_of[first], axis_of[second])
        state[x] = slice_x

    state = np.tensordot(fourier(m).conj().T, state, axes=([1], [0]))
    probs = (np.abs(state.reshape(m, -1)) ** 2).sum(axis=1)
    measured = int(np.argmax(probs))
    return DenseRunResult(measured, float(probs[measured]), probs)
