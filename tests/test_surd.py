from fractions import Fraction

import pytest

from kglab.fixedpoint import PrecisionError
from kglab.surd import (QuadraticSurd, dist_cmp_fraction,
                        dist_to_nearest_int_exact, floor_surd, squarefree_split,
                        surd_eval)

SQRT2 = QuadraticSurd.sqrt(2)
GOLDEN = QuadraticSurd.golden_ratio()

# 60 decimal digits of sqrt(2) - 1 and of {5*sqrt(2)}
FRAC_SQRT2 = "0.414213562373095048801688724209698078569671875376948073176679"
FRAC_5SQRT2 = "0.071067811865475244008443621048490392848359376884740365883398"


def test_squarefree_split():
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(2) == (1, 2)


def test_normalization():
    s = QuadraticSurd(2, 2, -4, 8)   # (2 + 2*sqrt8)/-4 = (1 + 2*sqrt2)/-2
    assert s.d == 2
    assert s.r > 0
    from math import gcd
    assert gcd(gcd(abs(s.a), abs(s.b)), s.r) == 1


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
        if i % 3 == 0:  # cf_expand's form: d * b^2 * scale^2 with b = 1
            d, b = d * rng.randint(1, 50) ** 2 * rng.randint(1, 30) ** 2, 1
        k = floor_surd(a, b, d, r)
        assert _floor_oracle_holds(a, b, d, r, k), (a, b, d, r, k)
    # values just off an integer, at each sign of b and r
    for a, b, d, r in [(0, 1, 2, -1), (0, -1, 2, 1), (-1, 1, 2, 1),
                       (1, -1, 2, -1), (3, 0, 5, -2), (-3, 0, 5, 2)]:
        assert _floor_oracle_holds(a, b, d, r, floor_surd(a, b, d, r))
