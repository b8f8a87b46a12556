"""Tests for the factorial number system and the greedy bit basis."""

from math import factorial

import pytest

from fpp.circuit import BitControl
from fpp.errors import InvariantError, RangeError
from fpp.numsys import (
    FactoradicDigits,
    bit_weight,
    ceil_log2,
    digit_to_bits,
    from_factoradic,
    greedy_bits,
    to_factoradic,
)


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 64, 65)] == [
        0, 1, 2, 2, 3, 3, 4, 6, 7,
    ]


def test_bit_weight():
    assert bit_weight(3, 1) == 2
    assert bit_weight(3, 2) == 1
    assert bit_weight(11, 2) == 3
    # exact integer ceil against a float-free reference
    for k in range(1, 70):
        for i in range(1, 8):
            assert bit_weight(k, i) == -(-k // (1 << i))


def test_to_factoradic_zero():
    assert to_factoradic(0, 3).digits == (0, 0)


def test_to_factoradic_16_4():
    d = to_factoradic(16, 4)
    assert d.digits == (0, 2, 2)
    # independent evaluation of the defining sum
    assert sum(a * factorial(k) for k, a in enumerate(d.digits, start=1)) == 16


def test_to_factoradic_maximal():
    for n in range(2, 8):
        d = to_factoradic(factorial(n) - 1, n)
        assert d.digits == tuple(range(1, n))


def test_to_factoradic_range_error():
    with pytest.raises(RangeError):
        to_factoradic(6, 3)
    with pytest.raises(RangeError):
        to_factoradic(-1, 3)


def test_from_factoradic_examples():
    assert from_factoradic(FactoradicDigits(3, (0, 0))) == 0
    assert from_factoradic(FactoradicDigits(4, (0, 2, 2))) == 16


def test_from_factoradic_invariants():
    with pytest.raises(InvariantError):
        FactoradicDigits(3, (2, 0))
    with pytest.raises(InvariantError):
        FactoradicDigits(3, (0, 0, 0))


def test_roundtrip_exhaustive():
    for n in range(1, 8):
        for x in range(factorial(n)):
            assert from_factoradic(to_factoradic(x, n)) == x


def test_digit_to_bits_zero():
    for n in (2, 5, 16):
        for k in range(1, n):
            bits = digit_to_bits(0, k, n)
            assert bits == (0,) * ceil_log2(n)


def test_digit_to_bits_maximal():
    for n in (3, 7, 12):
        for k in range(1, n):
            bits = digit_to_bits(k, k, n)
            assert sum(b * bit_weight(k, i) for i, b in enumerate(bits, start=1)) == k


def test_digit_to_bits_exhaustive_n64():
    # greedy bits reproduce every admissible digit for every k up to n=64
    n = 64
    for k in range(1, n):
        for a in range(k + 1):
            bits = digit_to_bits(a, k, n)
            assert sum(b * bit_weight(k, i) for i, b in enumerate(bits, start=1)) == a


def test_digit_to_bits_range_error():
    with pytest.raises(RangeError):
        digit_to_bits(4, 3, 8)
    with pytest.raises(RangeError):
        digit_to_bits(0, 0, 8)


def test_greedy_bits_unrepresentable():
    with pytest.raises(InvariantError):
        greedy_bits(5, [2, 2])


def _bit_basis(x, n):
    """Canonical bits of x over every slot (k, i), 1 <= k < n, 1 <= i <= ihat."""
    slots = tuple((k, i) for k in range(1, n) for i in range(1, ceil_log2(n) + 1))
    return BitControl(n, slots).assignment(x)


def _bit_basis_value(bits):
    return sum(b * bit_weight(k, i) * factorial(k) for (k, i), b in bits.items())


def test_to_bit_basis_paper_value():
    bits = _bit_basis(16, 4)
    set_bits = {slot for slot, b in bits.items() if b}
    assert set_bits == {(3, 1), (2, 1), (2, 2)}
    assert _bit_basis_value(bits) == 16


def test_to_bit_basis_zero():
    for n in (2, 4, 6):
        bits = _bit_basis(0, n)
        assert all(b == 0 for b in bits.values())


def test_to_bit_basis_exhaustive():
    for n in range(2, 7):
        for x in range(factorial(n)):
            bits = _bit_basis(x, n)
            assert set(bits.values()) <= {0, 1}
            assert _bit_basis_value(bits) == x


def test_bit_count_exact():
    for n in range(2, 12):
        assert len(_bit_basis(0, n)) == (n - 1) * ceil_log2(n)
