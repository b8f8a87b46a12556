"""Dense numerical cross-validation backend for small n.

Builds concrete promise-satisfying unitaries (one clock/shift register per
gate 1..n-1, sized by the phases it carries), runs the full Fourier-sandwich
protocol numerically, and reads y off the control marginal.  Every promise
unitary is monomial - a permutation of the register basis times a diagonal
of clock phases - and is written into its dense matrix with one scatter
from index arithmetic over the register digits.  The matrices have up to
(n!)^(n-1) rows, so n <= 3.

Because every circuit in scope is classically controlled on control basis
states, the joint state after the circuit is (1/sqrt(n!)) sum_x |x> |psi_x>
with |psi_x> a product over data wires.  :func:`run_dense` therefore takes
each wire's applied word from the symbolic executor
(:func:`fpp.circuit.execute`), multiplies the wire's start vector by it, and
assembles the control marginal from the Gram matrix of the |psi_x>, one
matrix product per wire - exact linear algebra at a cost of n! * wires * d
amplitudes instead of d^wires.  Nothing of this but the unitaries depends
on y, so a run of calls (one per y) does the rest once: a call on the
circuit of the call before reuses its words instead of executing again,
each wire multiplies its start vector once per distinct word it carries,
the seeded start vectors are prefixes of one cached normal stream per seed,
and :func:`fourier` is built once per m.
:func:`run_dense_joint` is the literal full-statevector reference for tiny
dimensions; it replays the same per-x event stream
(:func:`fpp.circuit.events`) as tensor contractions and axis swaps on every
call.  Neither backend resolves control states itself.
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
    "UNITARITY_TOL",
    "PROBABILITY_TOL",
    "DenseRunResult",
    "fourier",
    "require_supported_n",
    "build_promise_unitaries",
    "pairwise_deviation",
    "run_dense",
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


def pairwise_deviation(
    units: list[np.ndarray], table: CommutationTable, y: int
) -> float:
    """max over pairs of || U_j U_k - omega^{e[j][k]*y} U_k U_j ||_max."""
    if len(units) != table.n:
        raise DomainError(f"expected {table.n} unitaries, got {len(units)}")
    m = table.modulus
    if not 0 <= y < m:
        raise DomainError(f"y={y} outside [0, {m - 1}]")
    omega = np.exp(2j * np.pi / m)
    worst = 0.0
    for j in range(table.n):
        for k in range(j + 1, table.n):
            lhs = units[j] @ units[k]
            rhs = omega ** ((table.entry(j, k) * y) % m) * (units[k] @ units[j])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def require_supported_n(n: int) -> None:
    """Raise :class:`UnsupportedError` for an n whose promise unitaries
    :func:`build_promise_unitaries` would not store densely (n > 3)."""
    if n > 3:
        raise UnsupportedError(
            f"dense promise unitaries have up to (n!)^(n-1) rows; n={n} is "
            "unsupported (n <= 3)"
        )


def build_promise_unitaries(
    n: int, y: int, table: CommutationTable
) -> list[np.ndarray]:
    """Concrete unitaries satisfying every pairwise relation of ``table`` at y.

    One clock/shift register per gate k = 1..n-1, of dimension
    d_k = n!/gcd(n!, e[0][k]*y, ..., e[k-1][k]*y), the order of the phases
    it carries.  U_k is the clock Z = diag(exp(2*pi*i*t/d_k)) on register k,
    X^a(k,q) on every register q > k (X|t> = |t+1 mod d_q>) and the identity
    below k, with a(j,k) = -e[j][k]*y*d_k/n! mod d_k.  A pair j < k then
    meets only on register k, where X^a Z = exp(-2*pi*i*a/d_k) Z X^a carries
    exactly omega^{e[j][k]*y}.  The total dimension is at most (n!)^(n-1):
    36 at n=3, already 24^3 rows per dense matrix at n=4, which is why
    :func:`require_supported_n` stops at n=3.

    Each U_i is built from its monomial form: column t (digits t_k, register
    1 most significant) has one nonzero entry, in the row whose digits are
    t_k + a(i,k) mod d_k on every register k > i, of amplitude
    exp(2*pi*i*t_i/d_i) (1 for U_0).  Every construction is then checked
    against the table and for unitarity.
    """
    if n != table.n:
        raise DomainError(f"table has n={table.n}, expected {n}")
    m = table.modulus
    if not 0 <= y < m:
        raise DomainError(f"y={y} outside [0, {m - 1}]")
    require_supported_n(n)

    phase = {(j, k): table.entry(j, k) * y % m for k in range(n) for j in range(k)}
    dims = [m // gcd(m, *(phase[j, k] for j in range(k))) for k in range(1, n)]
    size = prod(dims)
    digits = np.indices(dims).reshape(len(dims), size)  # digits[k - 1]: t_k
    cols = np.arange(size)

    units = []
    for i in range(n):
        rows = 0
        for k, (t, d) in enumerate(zip(digits, dims), start=1):
            shift = -phase[i, k] * d // m if i < k else 0
            rows = rows * d + (t + shift) % d
        amp = 1.0
        if i:  # the clock on register i
            d = dims[i - 1]
            amp = np.exp(2j * np.pi * np.arange(d) / d)[digits[i - 1]]
        u = np.zeros((size, size), dtype=complex)
        u[rows, cols] = amp
        units.append(u)
    deviation = pairwise_deviation(units, table, y)
    if deviation > 1e-9:
        raise InvariantError(f"construction violates the table by {deviation}")
    for u in units:
        _check_unitary(u)
    return units


@dataclass(frozen=True)
class DenseRunResult:
    measured_y: int
    peak_probability: float
    probabilities: np.ndarray


def _check_inputs(circuit: Circuit, unitaries: list[np.ndarray]) -> int:
    """The shared dimension d of ``unitaries``: one unitary d x d matrix per
    gate of ``circuit``."""
    if len(unitaries) != circuit.n:
        raise DomainError(f"expected {circuit.n} unitaries, got {len(unitaries)}")
    d = unitaries[0].shape[0]
    for u in unitaries:
        if u.shape != (d, d):
            raise DomainError("unitaries must share one square dimension")
        _check_unitary(u)
    return d


# The last seed's standard normals, at least _STREAM of them: run_dense is
# called once per y with one seed, and each y's start vectors are a prefix.
_STREAM = 1024
_last_normals: tuple[int, np.ndarray] | None = None


def _normals(seed: int, size: int) -> np.ndarray:
    """The first ``size`` standard normals of ``default_rng(seed)``.
    Generator.normal fills its values in order, so a shorter draw is a
    prefix of a longer one: the last seed's stream is kept, and drawn again
    (longer) only for a call that needs more of it."""
    global _last_normals
    memo = _last_normals
    if memo is None or memo[0] != seed or len(memo[1]) < size:
        stream = np.random.default_rng(seed).normal(size=max(size, _STREAM))
        stream.flags.writeable = False
        memo = _last_normals = (seed, stream)
    return memo[1][:size]


def _initial_vectors(
    circuit: Circuit, d: int, seed: int | None
) -> dict[str, np.ndarray]:
    """Each data wire's start vector: |0>, or with a seed a normalized
    complex normal vector, real and imaginary parts drawn d at a time, wire
    by wire, from :func:`_normals`."""
    wires = [w.id for w in circuit.data_wires()]
    if seed is None:
        vec = np.zeros(d, dtype=complex)
        vec[0] = 1.0
        return {w: vec.copy() for w in wires}
    parts = _normals(seed, 2 * d * len(wires)).reshape(len(wires), 2, d)
    out = {}
    for w, (real, imag) in zip(wires, parts):
        v = real + 1j * imag
        out[w] = v / np.linalg.norm(v)
    return out


# The last circuit run_dense executed and its per-x applied words.  The
# words do not depend on y, so `fpp dense --y all` executes each x once.
# Keyed by identity (a Circuit with a Rewire is unhashable), holding the
# circuit itself so that its id cannot be reused while the entry lives, and
# one entry only, so memory stays bounded.
_last_words: tuple[Circuit, tuple[dict[str, tuple[int, ...]], ...]] | None = None


def _applied_words(circuit: Circuit) -> tuple[dict[str, tuple[int, ...]], ...]:
    """Per control state x, each data wire's applied word (application
    order), from :func:`fpp.circuit.execute`; reused when ``circuit`` is the
    object of the call before.  Raises :class:`InvariantError`, and keeps
    nothing, when some x leaves a token off its home wire."""
    global _last_words
    memo = _last_words
    if memo is not None and memo[0] is circuit:
        return memo[1]
    outcomes = [execute(circuit, x) for x in range(factorial(circuit.n))]
    if not all(out.tokens_home for out in outcomes):
        raise InvariantError("tokens did not return home; marginal undefined")
    words = tuple(out.applied for out in outcomes)
    _last_words = (circuit, words)
    return words


def run_dense(
    circuit: Circuit,
    unitaries: list[np.ndarray],
    seed: int | None = None,
) -> DenseRunResult:
    """Numerically run the Fourier sandwich and measure the control register.

    Per control basis state the data stays a product state, so each wire is
    propagated as one d-dimensional vector; the control marginal after the
    inverse Fourier transform is the elementwise product over wires of the
    overlap matrices F_w F_w^H, with the wire's final vectors as the rows
    of F_w.  The words come from :func:`fpp.circuit.execute`, once per x
    for a run of calls on one circuit object (one call per y, say): they do
    not depend on the unitaries, so only the last circuit's are kept.  A
    wire's start vector is multiplied through each distinct word it carries
    once, and the x with that word share the result.
    """
    d = _check_inputs(circuit, unitaries)
    m = factorial(circuit.n)
    wires = [w.id for w in circuit.data_wires()]
    if m * len(wires) * d > 10**7 or m * m > 10**7:
        raise DimensionError(
            f"dense run needs {m * len(wires) * d} amplitudes and an "
            f"{m}x{m} control marginal; limit is 1e7"
        )

    init = _initial_vectors(circuit, d, seed)
    words = _applied_words(circuit)
    final = {w: np.empty((m, d), dtype=complex) for w in wires}  # row x: |psi_x>_w
    for w in wires:
        landed: dict[tuple[int, ...], np.ndarray] = {}  # word -> the start vector through it
        for x, applied in enumerate(words):
            word = applied[w]
            if word not in landed:
                v = init[w]
                for g in word:
                    v = unitaries[g] @ v
                landed[word] = v
            final[w][x] = landed[word]

    gram = np.ones((m, m), dtype=complex)  # <psi_x'|psi_x> at [x, x']
    for rows in final.values():
        gram *= rows @ rows.conj().T
    rho = gram / m
    f = fourier(m)
    rho_out = f.conj().T @ rho @ f
    probs = np.real(np.diag(rho_out))
    measured = int(np.argmax(probs))
    return DenseRunResult(measured, float(probs[measured]), probs)


def run_dense_joint(
    circuit: Circuit,
    unitaries: list[np.ndarray],
    seed: int | None = None,
) -> DenseRunResult:
    """Literal joint-statevector reference (cost m * d^wires amplitudes).

    Only feasible for tiny dimensions; used to cross-check the product-state
    engine.
    """
    d = _check_inputs(circuit, unitaries)
    m = factorial(circuit.n)
    wires = [w.id for w in circuit.data_wires()]
    total = m * d ** len(wires)
    if total > 10**7:
        raise DimensionError(f"joint vector needs {total} amplitudes; limit is 1e7")

    init = _initial_vectors(circuit, d, seed)
    control = np.full(m, 1 / np.sqrt(m), dtype=complex)  # F|0>
    state = control
    for w in wires:
        state = np.kron(state, init[w])
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

    f_inv = fourier(m).conj().T
    state = np.tensordot(f_inv, state, axes=([1], [0]))
    amp2 = np.abs(state.reshape(m, -1)) ** 2
    probs = amp2.sum(axis=1)
    measured = int(np.argmax(probs))
    return DenseRunResult(measured, float(probs[measured]), probs)
