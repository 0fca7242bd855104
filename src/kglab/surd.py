"""Exact arithmetic on real quadratic surds (a + b*sqrt(d)) / r.

A surd is held in one normal form read off its primitive minimal
polynomial A x^2 + B x + C (A > 0): (a, b, r, d) = (-B, +-1, 2A,
B^2 - 4AC), so no radicand is ever factored.  Every decision (floor,
sign, comparison against a rational, nearest integer, q*gamma mod 1) is
one call of ``floor_surd``, which takes one integer square root; no
machine floating point is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .fixedpoint import MIN_SCALE_BITS, FixedPoint, PrecisionError


def floor_surd(a: int, b: int, d: int, r: int) -> int:
    """Exact floor((a + b*sqrt(d)) / r) for r != 0 and d not a perfect square.

    b*sqrt(d) is then never an integer, so it lies strictly inside
    (s, s+1) for b > 0 and (-s-1, -s) for b < 0, s = isqrt(b^2 d): the
    numerator's floor is lo below, and the numerator lies in (lo, lo+1).
    """
    if b == 0:
        return a // r
    s = isqrt(b * b * d)
    lo = a + s if b > 0 else a - s - 1
    return lo // r if r > 0 else (-lo - 1) // -r


@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (a + b*sqrt(d)) / r with integer a, b, r and d >= 2.

    Normalized on construction, so that equal values have equal fields.
    An irrational value is a root of one primitive A x^2 + B x + C with
    A > 0, and is stored as (-B, b, 2A, B^2 - 4AC) with b = +-1 the sign
    of its square-root term; then r | d - a^2.  A rational value has
    b = 0, gcd(a, r) = 1, r > 0 and d = 2.
    """

    a: int
    b: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if self.r == 0:
            raise ValueError("denominator r must be nonzero")
        if self.d <= 1:
            raise ValueError("radicand d must be >= 2")
        a, b, r, d = self.a, self.b, self.r, self.d
        if isqrt(d) ** 2 == d:
            raise ValueError(f"d={d} is a perfect square; use a rational instead")
        if r < 0:
            a, b, r = -a, -b, -r
        if b == 0:
            g = gcd(a, r)
            a, r, d = a // g, r // g, 2
        else:
            # minimal polynomial r^2 x^2 - 2ar x + (a^2 - b^2 d), made primitive
            A, B, C = r * r, -2 * a * r, a * a - b * b * d
            g = gcd(A, B, C)
            A, B, C = A // g, B // g, C // g
            a, b, r, d = -B, 1 if b > 0 else -1, 2 * A, B * B - 4 * A * C
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)

    # -- constructors ----------------------------------------------------

    @classmethod
    def sqrt(cls, d: int) -> "QuadraticSurd":
        return cls(0, 1, 1, d)

    @classmethod
    def golden_ratio(cls) -> "QuadraticSurd":
        return cls(1, 1, 2, 5)

    # -- basic queries -----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def cmp_fraction(self, num: int, den: int = 1) -> int:
        """Exact sign of (self - num/den); den > 0.

        An irrational self*den is never the integer num, so it is at least
        num iff its floor is.
        """
        if self.b == 0:
            v = self.a * den - num * self.r  # r > 0 after normalization
            return (v > 0) - (v < 0)
        floor = floor_surd(self.a * den, self.b * den, self.d, self.r)
        return 1 if floor >= num else -1

    # -- integer part -------------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via one integer square root."""
        return floor_surd(self.a, self.b, self.d, self.r)

    def to_fraction_floor(self, scale_bits: int) -> Fraction:
        """Exact floor(self * 2**scale_bits) / 2**scale_bits."""
        return Fraction(floor_surd(self.a << scale_bits, self.b << scale_bits,
                                   self.d, self.r), 1 << scale_bits)

    def __repr__(self) -> str:
        return f"QuadraticSurd(({self.a} + {self.b}*sqrt({self.d}))/{self.r})"


def surd_eval(gamma: QuadraticSurd, q: int, scale_bits: int) -> FixedPoint:
    """q*gamma mod 1 as a FixedPoint, absolute error < 2**-scale_bits.

    The mantissa is the exact floor of q*gamma*2**scale_bits reduced mod
    2**scale_bits; the only rounding is that single floor.  Rejects scales
    too small for the requested q (rule: scale_bits >= 64 + log2(1+|q|)).
    """
    needed = MIN_SCALE_BITS + (1 + abs(q)).bit_length()
    if scale_bits < needed:
        raise PrecisionError(
            f"scale_bits={scale_bits} insufficient for q={q}; need >= {needed}"
        )
    if q == 0:
        return FixedPoint(0, scale_bits)
    mant = floor_surd(gamma.a * q << scale_bits, gamma.b * q << scale_bits,
                      gamma.d, gamma.r)
    return FixedPoint(mant % (1 << scale_bits), scale_bits)


def dist_to_nearest_int_exact(gamma: QuadraticSurd, q: int) -> QuadraticSurd | Fraction:
    """||q*gamma|| as an exact surd (or Fraction when gamma is rational)."""
    if q == 0:
        return Fraction(0)
    a, b, r, d = gamma.a * q, gamma.b * q, gamma.r, gamma.d
    if b == 0:
        f = Fraction(a % r, r)
        return min(f, 1 - f)
    # x = q*gamma is irrational: with p = floor(x + 1/2) its nearest integer,
    # floor(2x + 1) is 2p + 1 when x > p and 2p when x < p
    m = floor_surd(2 * a + r, 2 * b, d, r)
    sgn = 1 if m & 1 else -1
    p = m >> 1
    return QuadraticSurd(sgn * (a - p * r), sgn * b, r, d)


def dist_cmp_fraction(gamma: QuadraticSurd, q: int, num: int, den: int) -> int:
    """Exact sign of ||q*gamma|| - num/den."""
    dist = dist_to_nearest_int_exact(gamma, q)
    if isinstance(dist, Fraction):
        val = dist - Fraction(num, den)
        return (val > 0) - (val < 0)
    return dist.cmp_fraction(num, den)
