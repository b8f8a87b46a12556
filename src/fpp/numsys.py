"""Factorial number system and the ceil-weight bit basis for the control register.

Every integer x in [0, n!-1] has a unique factorial representation
x = sum_{k=1}^{n-1} a_k * k! with digits 0 <= a_k <= k.  On top of it sits a
binary representation with (n-1)*ceil(log2(n)) bit slots c_{k,i} and weights
ceil(k/2^i)*k!,

    x = sum_{k,i} c_{k,i} * ceil(k/2^i) * k!,

which exists for every x but is not unique.  The greedy largest-weight-first
assignment is fixed here as the canonical representative, so all downstream
constructions and tests are deterministic; :class:`fpp.circuit.BitControl`
applies it digit by digit to map x onto a circuit's control bits.

Python integers are arbitrary precision, so n! never overflows; inputs are
still validated against their documented ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import InvariantError, RangeError

__all__ = [
    "FactoradicDigits",
    "ceil_log2",
    "bit_weight",
    "greedy_bits",
    "to_factoradic",
    "from_factoradic",
    "digit_to_bits",
]


def ceil_log2(n: int) -> int:
    """ceil(log2(n)) for n >= 1, computed exactly on integers."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def bit_weight(k: int, i: int) -> int:
    """ceil(k / 2^i), the weight of bit slot (k, i) before the k! factor."""
    if k < 1 or i < 1:
        raise RangeError(f"need k >= 1 and i >= 1, got k={k}, i={i}")
    return (k + (1 << i) - 1) >> i


@dataclass(frozen=True)
class FactoradicDigits:
    """Digits a_1..a_{n-1} of a number in the factorial number system."""

    n: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise RangeError(f"n must be >= 1, got {self.n}")
        if len(self.digits) != self.n - 1:
            raise InvariantError(
                f"expected {self.n - 1} digits for n={self.n}, got {len(self.digits)}"
            )
        for k, a in enumerate(self.digits, start=1):
            if not 0 <= a <= k:
                raise InvariantError(f"digit a_{k}={a} outside [0, {k}]")

    def digit(self, k: int) -> int:
        """Digit a_k, indexed from k=1."""
        if not 1 <= k <= self.n - 1:
            raise RangeError(f"k must be in [1, {self.n - 1}], got {k}")
        return self.digits[k - 1]


def to_factoradic(x: int, n: int) -> FactoradicDigits:
    """Decompose x in [0, n!-1] into factorial digits (a_1, ..., a_{n-1})."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    if not 0 <= x < factorial(n):
        raise RangeError(f"x={x} outside [0, {factorial(n) - 1}] for n={n}")
    digits = [0] * (n - 1)
    rem = x
    for k in range(n - 1, 0, -1):
        f = factorial(k)
        digits[k - 1], rem = divmod(rem, f)
    return FactoradicDigits(n, tuple(digits))


def from_factoradic(d: FactoradicDigits) -> int:
    """Evaluate sum_k a_k * k!; inverse of :func:`to_factoradic`."""
    return sum(a * factorial(k) for k, a in enumerate(d.digits, start=1))


def greedy_bits(value: int, weights: Sequence[int]) -> tuple[int, ...]:
    """Largest-weight-first bit assignment: bit j is 1 iff the remaining
    value is at least weights[j].  Raises if the weights cannot exhaust
    ``value`` this way."""
    bits = []
    rem = value
    for w in weights:
        if rem >= w:
            bits.append(1)
            rem -= w
        else:
            bits.append(0)
    if rem != 0:
        raise InvariantError(
            f"value {value} not representable greedily over weights {tuple(weights)}"
        )
    return tuple(bits)


def digit_to_bits(a_k: int, k: int, n: int) -> tuple[int, ...]:
    """Bits (c_{k,1}, ..., c_{k,ihat}) with sum_i c_{k,i} * ceil(k/2^i) = a_k.

    Uses the greedy recursion; a solution always exists for 0 <= a_k <= k.
    """
    if not 1 <= k <= n - 1:
        raise RangeError(f"k must be in [1, {n - 1}], got {k}")
    if not 0 <= a_k <= k:
        raise RangeError(f"a_k={a_k} outside [0, {k}]")
    ihat = ceil_log2(n)
    return greedy_bits(a_k, [bit_weight(k, i) for i in range(1, ihat + 1)])

