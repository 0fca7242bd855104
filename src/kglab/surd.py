"""Exact arithmetic on real quadratic surds (a + b*sqrt(d)) / r.

All decisions (floor, sign, comparison against rationals) are made with
integer arithmetic only; ``math.isqrt`` on big integers replaces any use of
machine floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .fixedpoint import MIN_SCALE_BITS, FixedPoint, PrecisionError
from .lattice import factorize


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s^2 * f and f square-free (n >= 1)."""
    s, f = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


@dataclass(frozen=True)
class QuadraticSurd:
    """The real number (a + b*sqrt(d)) / r with integer a, b, r and d >= 2.

    Normalized on construction: d square-free (square factors absorbed
    into b), r > 0, gcd(a, b, r) = 1.  The value is irrational iff b != 0.
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
        s, f = squarefree_split(d)
        if f <= 1:
            raise ValueError(f"d={d} is a perfect square; use a rational instead")
        b, d = b * s, f
        if r < 0:
            a, b, r = -a, -b, -r
        g = gcd(gcd(abs(a), abs(b)), r)
        if g > 1:
            a, b, r = a // g, b // g, r // g
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

    def sign(self) -> int:
        """Exact sign of the value."""
        a, b = self.a, self.b  # r > 0 after normalization
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        # compare a vs -b*sqrt(d): square once signs disagree
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0: sign of a - |b|sqrt(d)
            return 1 if lhs > rhs else -1  # equality impossible (d squarefree)
        return -1 if lhs > rhs else 1

    def cmp_fraction(self, num: int, den: int = 1) -> int:
        """Exact sign of (self - num/den); den > 0."""
        # (a*den - num*r) + b*den*sqrt(d), all over r*den > 0
        diff = QuadraticSurd(self.a * den - num * self.r, self.b * den,
                             self.r * den, self.d) if self.b * den != 0 else None
        if diff is None:
            val = Fraction(self.a, self.r) - Fraction(num, den)
            return (val > 0) - (val < 0)
        return diff.sign()

    # -- arithmetic (same radicand) ----------------------------------------

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self.a, -self.b, self.r, self.d)

    def add_fraction(self, fr: Fraction) -> "QuadraticSurd":
        num, den = fr.numerator, fr.denominator
        return QuadraticSurd(self.a * den + num * self.r, self.b * den,
                             self.r * den, self.d)

    def mul_int(self, k: int) -> "QuadraticSurd":
        if k == 0:
            raise ValueError("multiplying a surd by 0 yields a rational")
        return QuadraticSurd(self.a * k, self.b * k, self.r, self.d)

    def reciprocal(self) -> "QuadraticSurd":
        """1 / self for irrational self."""
        if self.b == 0:
            raise ValueError("reciprocal path requires an irrational surd")
        # 1/((a + b sqrt d)/r) = r(a - b sqrt d) / (a^2 - d b^2)
        norm = self.a * self.a - self.d * self.b * self.b
        return QuadraticSurd(self.r * self.a, -self.r * self.b, norm, self.d)

    # -- integer part -------------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via one integer square root."""
        a, b, r, d = self.a, self.b, self.r, self.d
        if b == 0:
            return a // r
        s = isqrt(b * b * d)
        # b*sqrt(d) lies in (s, s+1) for b>0, in (-s-1, -s) for b<0
        # (strict: d squarefree so b*sqrt(d) is never an integer)
        lo = a + s if b > 0 else a - s - 1
        # numerator lies in (lo, lo+1), so floor(num/r) == floor(lo_open/r)
        # for the open interval: floor((lo + theta)/r) with theta in (0,1)
        return lo // r

    def to_fraction_floor(self, scale_bits: int) -> Fraction:
        """Exact floor(self * 2**scale_bits) / 2**scale_bits."""
        scaled = QuadraticSurd(self.a << scale_bits, self.b << scale_bits,
                               self.r, self.d)
        return Fraction(scaled.floor(), 1 << scale_bits)

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
    a, b, r, d = gamma.a * q, gamma.b * q, gamma.r, gamma.d
    if b == 0:
        mant = (a << scale_bits) // r
    else:
        # exact floor of (a*2^s + b*2^s*sqrt(d))/r via one isqrt of
        # d * b^2 * 4^scale_bits
        bs = b << scale_bits
        s = isqrt(bs * bs * d)
        lo = (a << scale_bits) + (s if b > 0 else -s - 1)
        mant = lo // r
    return FixedPoint(mant % (1 << scale_bits), scale_bits)


def dist_to_nearest_int_exact(gamma: QuadraticSurd, q: int) -> QuadraticSurd | Fraction:
    """||q*gamma|| as an exact surd (or Fraction when gamma is rational)."""
    if q == 0:
        return Fraction(0)
    x = gamma.mul_int(q)
    if x.is_rational:
        v = Fraction(x.a, x.r)
        f = v - v.__floor__()
        return min(f, 1 - f)
    p = x.add_fraction(Fraction(1, 2)).floor()  # nearest integer to x
    diff = x.add_fraction(Fraction(-p))
    return diff if diff.sign() >= 0 else -diff


def dist_cmp_fraction(gamma: QuadraticSurd, q: int, num: int, den: int) -> int:
    """Exact sign of ||q*gamma|| - num/den."""
    dist = dist_to_nearest_int_exact(gamma, q)
    if isinstance(dist, Fraction):
        val = dist - Fraction(num, den)
        return (val > 0) - (val < 0)
    return dist.cmp_fraction(num, den)
