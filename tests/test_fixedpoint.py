from fractions import Fraction

import pytest

from kglab.fixedpoint import DEFAULT_SCALE_BITS, FixedPoint, PrecisionError


def fp(x, s=DEFAULT_SCALE_BITS):
    return FixedPoint.from_fraction(Fraction(x), s)


def test_minimum_scale_enforced():
    with pytest.raises(PrecisionError):
        FixedPoint(1, 32)


def test_from_fraction_rounds_down():
    x = FixedPoint.from_fraction(Fraction(1, 3), 64)
    assert x.to_fraction() <= Fraction(1, 3)
    assert Fraction(1, 3) - x.to_fraction() < Fraction(1, 2 ** 64)


def test_comparisons():
    assert fp("1/2", 64) == fp("1/2", 192)
