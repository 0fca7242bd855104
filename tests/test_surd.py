from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kglab.fixedpoint import PrecisionError
from kglab.surd import (QuadraticSurd, dist_cmp_fraction,
                        dist_to_nearest_int_exact, floor_surd, surd_eval)

SQRT2 = QuadraticSurd.sqrt(2)
GOLDEN = QuadraticSurd.golden_ratio()

# 60 decimal digits of sqrt(2) - 1 and of {5*sqrt(2)}
FRAC_SQRT2 = "0.414213562373095048801688724209698078569671875376948073176679"
FRAC_5SQRT2 = "0.071067811865475244008443621048490392848359376884740365883398"


def _squarefree(n: int) -> tuple[int, int]:
    """(s, f) with n = s^2 * f and f square-free, by trial division."""
    s, f, p = 1, 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n, s = n // (p * p), s * p
        if n % p == 0:
            n, f = n // p, f * p
        p += 1
    return s, f * n


def _value_key(a: int, b: int, r: int, d: int):
    """A key equal exactly for equal values (a + b*sqrt(d))/r: the rational
    part and the coefficient of the square-free root, with that root."""
    s, f = _squarefree(d)
    if b == 0:
        return Fraction(a, r), Fraction(0), 0
    return Fraction(a, r), Fraction(b * s, r), f


def _assert_normal_form(x: QuadraticSurd) -> None:
    assert x.r > 0 and x.b in (-1, 0, 1)
    if x.b == 0:
        assert gcd(x.a, x.r) == 1 and x.d == 2
        return
    # a root of the primitive A x^2 + B x + C, A > 0, with d = B^2 - 4AC
    A, B = x.r // 2, -x.a
    assert x.r % 2 == 0 and (x.d - x.a * x.a) % (2 * x.r) == 0
    C = (B * B - x.d) // (4 * A)
    assert gcd(A, B, C) == 1
    assert QuadraticSurd(x.a, x.b, x.r, x.d) == x


def test_normalization():
    s = QuadraticSurd(2, 2, -4, 8)   # (2 + 2*sqrt8)/-4 = (1 + 2*sqrt2)/-2
    _assert_normal_form(s)
    # -1/2 - sqrt2, the root of 4x^2 + 4x - 7 with the negative root term
    assert (s.a, s.b, s.r, s.d) == (-4, -1, 8, 128)
    assert s == QuadraticSurd(1, 2, -2, 2) == QuadraticSurd(-1, -2, 2, 2)


_SURD = st.tuples(st.integers(-30, 30), st.integers(-6, 6),
                  st.integers(-12, 12).filter(bool),
                  st.sampled_from([2, 3, 5, 6, 7, 8, 12, 18, 20, 27, 45, 50, 72]))


@settings(max_examples=400, deadline=None)
@given(_SURD, _SURD, st.integers(-5, 5).filter(bool), st.integers(1, 4))
def test_equal_values_iff_equal_fields(x, y, k, t):
    """The normal form is canonical: scaling (ka, kb, kr) with either sign of
    k, moving square factors between b and d and, for b = 0, changing d all
    keep the fields; surds of different value never share them."""
    sx, sy = QuadraticSurd(*x), QuadraticSurd(*y)
    _assert_normal_form(sx)
    assert (sx == sy) == (_value_key(*x) == _value_key(*y))
    a, b, r, d = x
    assert QuadraticSurd(k * a, k * b, k * r, d) == sx
    assert QuadraticSurd(a, b, r, d * t * t) == QuadraticSurd(a, b * t, r, d)
    if d % (t * t) == 0 and d // (t * t) > 1:
        assert QuadraticSurd(a, b * t, r, d // (t * t)) == sx
    assert QuadraticSurd(-a, -b, -r, d) == sx
    if b == 0:
        assert QuadraticSurd(a, 0, r, 3) == sx
        assert QuadraticSurd(a, 0, r, 50) == sx


def test_rejects_square_d():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, 1, 9)


def _against_decimal(x: Fraction, decimal: str, digits: int = 55) -> None:
    want = Fraction(decimal)
    assert abs(x - want) < Fraction(1, 10 ** digits)


def test_surd_eval_sqrt2():
    got = surd_eval(SQRT2, 1, 256).to_fraction()
    _against_decimal(got, FRAC_SQRT2)


def test_surd_eval_5_sqrt2():
    got = surd_eval(SQRT2, 5, 256).to_fraction()
    _against_decimal(got, FRAC_5SQRT2)


def test_surd_eval_q_zero():
    assert surd_eval(GOLDEN, 0, 128).to_fraction() == 0


def test_surd_eval_negative_q():
    # {-sqrt(2)} = 1 - {sqrt(2)}
    plus = surd_eval(SQRT2, 1, 192).to_fraction()
    minus = surd_eval(SQRT2, -1, 192).to_fraction()
    assert abs((plus + minus) - 1) < Fraction(2, 2 ** 192)


def test_surd_eval_scale_agreement():
    for g in (SQRT2, GOLDEN, QuadraticSurd(3, -2, 7, 6)):
        for q in (1, 2, 17, 999, 10 ** 5):
            lo = surd_eval(g, q, 128).to_fraction()
            hi = surd_eval(g, q, 192).to_fraction()
            assert abs(lo - hi) <= Fraction(1, 2 ** 128)


def test_surd_eval_scale_rule():
    with pytest.raises(PrecisionError):
        surd_eval(SQRT2, 10 ** 9, 64)
    surd_eval(SQRT2, 10 ** 9, 96)  # 64 + 31 bits needed


def test_floor_matches_fraction_eval():
    import random

    rng = random.Random(3)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-20, 20) or 1
        r = rng.randint(1, 15)
        d = rng.choice([2, 3, 5, 6, 7, 10])
        s = QuadraticSurd(a, b, r, d)
        approx = s.to_fraction_floor(96)
        assert s.floor() == approx.__floor__()


def test_dist_exact_vs_fixedpoint():
    for q in (1, 2, 5, 29, 169):
        exact = dist_to_nearest_int_exact(SQRT2, q)
        approx = surd_eval(SQRT2, q, 192).to_fraction()
        approx_dist = min(approx, 1 - approx)
        val = exact.to_fraction_floor(192)
        assert abs(val - approx_dist) <= Fraction(2, 2 ** 192)


def test_dist_cmp():
    # ||sqrt2|| = 0.4142... vs 2/5 and 1/2
    assert dist_cmp_fraction(SQRT2, 1, 2, 5) > 0
    assert dist_cmp_fraction(SQRT2, 1, 1, 2) < 0


def test_sqrt2_irrationality_measure_exhaustive():
    # q * ||q sqrt2|| > 1/4 for every q up to 1e5 (eta=1, c=4 witness basis)
    for q in range(1, 10 ** 5 + 1):
        assert dist_cmp_fraction(SQRT2, q, 1, 4 * q) > 0


def _at_least(a: int, b: int, d: int, t: int) -> bool:
    """a + b*sqrt(d) >= t, by squaring once the signs are known."""
    u = t - a  # is b*sqrt(d) >= u?
    if b >= 0:
        return u <= 0 or b * b * d >= u * u
    return u < 0 and u * u >= b * b * d


def _floor_oracle_holds(a: int, b: int, d: int, r: int, k: int) -> bool:
    """k <= (a + b*sqrt(d))/r < k + 1, i.e. k*r <= a + b*sqrt(d) < (k+1)*r
    once r is made positive."""
    if r < 0:
        a, b, r = -a, -b, -r
    return _at_least(a, b, d, k * r) and not _at_least(a, b, d, (k + 1) * r)


def test_floor_surd_against_squaring_oracle():
    import random

    rng = random.Random(11)
    radicands = [2, 3, 5, 7, 8, 12, 18, 50, 99, 2 * 9 * 25, 10 ** 6 + 3]
    for i in range(4000):
        shift = 192 if i % 4 == 0 else 0
        a = rng.randint(-10 ** 4, 10 ** 4) << shift
        b = rng.choice([0, rng.randint(-300, 300) or -1]) << shift
        r = rng.choice([-1, 1]) * rng.randint(1, 400)
        d = rng.choice(radicands)
        if i % 3 == 0:  # the normal form's shape: b = 1, d with square factors
            d, b = d * rng.randint(1, 50) ** 2 * rng.randint(1, 30) ** 2, 1
        k = floor_surd(a, b, d, r)
        assert _floor_oracle_holds(a, b, d, r, k), (a, b, d, r, k)
    # values just off an integer, at each sign of b and r
    for a, b, d, r in [(0, 1, 2, -1), (0, -1, 2, 1), (-1, 1, 2, 1),
                       (1, -1, 2, -1), (3, 0, 5, -2), (-3, 0, 5, 2)]:
        assert _floor_oracle_holds(a, b, d, r, floor_surd(a, b, d, r))
