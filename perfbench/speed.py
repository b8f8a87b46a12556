"""Machine-speed calibration for timings on a shared, noisy machine.

On a machine shared with other tenants the same work can take twice as
long from one minute to the next, and a pass of the benchmark lasts long
enough to see both.  :class:`SpeedProbe` samples the speed of the machine
*during* a measured region: a timer signal interrupts the region every
``INTERVAL_S`` seconds and times a fixed loop that uses no fpp code.  The
mean sample over the region says how fast the machine ran, and a time
measured over the region is rescaled to what it would have been at the
loop's reference time.  The time spent in the samples is subtracted from
the region first.

Two loops exist because contention slows interpreter work and BLAS work
differently: ``python`` does the kind of work the verifier's sweep does (a
generator of gate events, dicts keyed by wire names, small lists and
tuples, sorting, integer arithmetic), ``blas`` the kind the dense backend
does (complex 216x216 products and Kronecker products).  Each workload
uses the loop that matches where its time goes.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
_WIRES = tuple(f"w{i}" for i in range(8))
# A fixed gate list for the loop's token pushing: applies and swaps.
_GATES = tuple(
    ("apply", i % 5, _WIRES[i % 8]) if i % 3 else ("swap", _WIRES[i % 8], _WIRES[(3 * i + 1) % 8])
    for i in range(48)
)


def _events(x: int):
    for kind, a, b in _GATES:
        if kind == "swap" and (x + len(b)) % 2:
            continue
        yield kind, a, b


def python_kernel() -> int:
    """Push tokens through ``_GATES`` for a few control states and reduce
    the resulting words, the way the verifier's sweep does."""
    acc = 0
    for x in range(240):
        token_at = {w: w for w in _WIRES}
        words: dict[str, list[int]] = {w: [] for w in _WIRES}
        for kind, a, b in _events(x):
            if kind == "apply":
                words[token_at[b]].append(a)
            else:
                token_at[a], token_at[b] = token_at[b], token_at[a]
        for w in _WIRES:
            word = tuple(words[token_at[w]])
            acc = (acc + sum(sorted(word)) * len(word) + x) % 1000003
    return acc


_MATRIX = []


def blas_kernel() -> complex:
    """Unitarity-check and Kronecker products of the dense backend's size."""
    import numpy as np

    if not _MATRIX:
        rng = np.random.default_rng(0)
        _MATRIX.append(rng.normal(size=(216, 216)) + 1j * rng.normal(size=(216, 216)))
    a = _MATRIX[0]
    for _ in range(2):
        b = a.conj().T @ a
        c = np.kron(a[:6, :6], a[:36, :36])
    return b[0, 0] + c[0, 0]


# Kernel and about its time per sample on the 2-core x86-64 Xeon VM this
# benchmark was tuned on.  The reference time fixes the unit of the
# rescaled times; another value would scale them all by the same factor.
KERNELS = {
    "python": (python_kernel, 0.005),
    "blas": (blas_kernel, 0.006),
}


class SpeedProbe:
    """Timer-driven speed samples over a region; use as a context manager."""

    def __init__(self, kernel: str) -> None:
        self._kernel, self._ref_s = KERNELS[kernel]
        self.samples: list[float] = []
        self.overhead = 0.0  # seconds spent in samples

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.overhead += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference speed over the mean measured speed; a time multiplied
        by it reads as at the reference speed.  The mean, not the median:
        a region's time is the sum of its slow and fast stretches."""
        while len(self.samples) < 3:  # a region too short for the timer
            self._tick(None, None)
        return self._ref_s / statistics.fmean(self.samples)
