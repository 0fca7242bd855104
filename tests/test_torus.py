import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from kglab.psifunc import PowerLaw, TablePsi, eval_psi
from kglab.surd import QuadraticSurd
from kglab.lattice import canonical
from kglab.torus import (TorusSet1D, as_shift, lemma3_class, measure_2d,
                         overlap_2d, overlap_1d_num, overlap_2d_grid_oracle,
                         overlap_exact_1d, overlap_sweep_oracle)
from kglab.witness import NonLiouvilleWitness, vanish_threshold

SQRT2 = QuadraticSurd.sqrt(2)
PSI_CONST = PowerLaw(F(1, 10), F(0))
PSI_ROOT = PowerLaw(F(1, 4), F(1, 2))
W_SQRT2 = NonLiouvilleWitness(eta=1, c=F(4), C=F(1, 4), epsilon=F(1, 2),
                              q_max=10 ** 6, analytic=True)


class TestOverlap1D:
    def test_nested_arcs(self):
        A = TorusSet1D(1, F(0), F(1, 10))
        B = TorusSet1D(1, F(0), F(1, 5))
        assert overlap_exact_1d(A, B) == F(1, 5)

    def test_d2_e1(self):
        A = TorusSet1D(2, F(0), F(1, 10))
        B = TorusSet1D(1, F(0), F(1, 10))
        assert overlap_exact_1d(A, B) == F(1, 10)

    def test_equal_frequency_nested(self):
        A = TorusSet1D(3, F(0), F(6, 100))
        B = TorusSet1D(3, F(0), F(9, 100))
        assert overlap_exact_1d(A, B) == F(12, 100)

    def test_oracle_idempotent(self):
        A = TorusSet1D(5, F(1, 7), F(1, 5))
        assert overlap_sweep_oracle(A, A) == A.measure

    def test_disjoint(self):
        A = TorusSet1D(1, F(0), F(1, 10))
        B = TorusSet1D(1, F(1, 2), F(1, 10))
        assert overlap_exact_1d(A, B) == 0
        assert overlap_sweep_oracle(A, B) == 0

    def test_formula_equals_oracle_grid(self):
        # small slice of the acceptance grid
        shifts = [F(k, 12) for k in range(12)]
        for d in (1, 2, 3, 5, 8):
            for e in (1, 2, 4, 7):
                for t1 in (F(1, 20), F(1, 5)):
                    for s in shifts[::3]:
                        A = TorusSet1D(d, s, t1)
                        B = TorusSet1D(e, F(0), F(1, 10))
                        assert overlap_exact_1d(A, B) == \
                            overlap_sweep_oracle(A, B)

    def test_irrational_shift_formula_equals_oracle(self):
        sh = as_shift(SQRT2)
        for d, e in ((1, 1), (2, 3), (4, 6), (5, 5)):
            A = TorusSet1D(d, sh, F(1, 7))
            B = TorusSet1D(e, -sh, F(1, 9))
            assert overlap_exact_1d(A, B) == overlap_sweep_oracle(A, B)


class TestOverlap2D:
    def test_independent_product(self):
        v, tag = overlap_2d((1, 0), (0, 1), PSI_CONST, SQRT2)
        assert v == F(1, 25) and tag == "independent"

    def test_diagonal(self):
        v, tag = overlap_2d((2, 4), (2, 4), PSI_CONST, SQRT2)
        assert v == measure_2d((2, 4), PSI_CONST) and tag == "diagonal"

    def test_antipodal_tagged_diagonal(self):
        v, tag = overlap_2d((1, 3), (-1, -3), PSI_CONST, SQRT2)
        assert tag == "diagonal"
        assert v <= measure_2d((1, 3), PSI_CONST)

    def test_parallel_reduced_vs_grid(self):
        v, tag = overlap_2d((2, 4), (1, 2), PSI_ROOT, SQRT2)
        assert tag == "parallel-reduced"
        est, bound = overlap_2d_grid_oracle((2, 4), (1, 2), PSI_ROOT, SQRT2,
                                            1000)
        assert abs(est - v) <= bound

    def test_symmetry_fuzz(self):
        rng = random.Random(2)
        for _ in range(60):
            q = (rng.randint(-6, 6) or 1, rng.randint(-6, 6))
            r = (rng.randint(-6, 6) or 2, rng.randint(-6, 6))
            a = overlap_2d(q, r, PSI_ROOT, SQRT2)[0]
            b = overlap_2d(r, q, PSI_ROOT, SQRT2)[0]
            assert a == b
            assert a <= min(measure_2d(q, PSI_ROOT), measure_2d(r, PSI_ROOT))

    def test_measure_examples(self):
        assert measure_2d((3, 1), PSI_CONST) == F(1, 5)
        assert measure_2d((1, 1), TablePsi({})) == 0
        assert measure_2d((1, 0), PowerLaw(F(1, 2), F(0))) == 1


class TestGridOracle:
    def test_full_torus(self):
        psi_half = PowerLaw(F(1, 2), F(0))
        est, _ = overlap_2d_grid_oracle((1, 0), (0, 1), psi_half, SQRT2, 200)
        assert est == 1

    def test_empty(self):
        est, _ = overlap_2d_grid_oracle((1, 0), (0, 1), TablePsi({}), SQRT2, 200)
        assert est == 0

    def test_declared_rate(self):
        v, _ = overlap_2d((3, 1), (1, 2), PSI_CONST, SQRT2)
        errs = []
        for res in (500, 1000, 2000):
            est, bound = overlap_2d_grid_oracle((3, 1), (1, 2), PSI_CONST,
                                                SQRT2, res)
            assert abs(est - v) <= bound
            errs.append((res, float(bound)))
        # declared bound decays ~ 1/res
        assert errs[0][1] > errs[2][1] > 0


def grid_count_by_cells(q, r, psi, gamma, resolution):
    """Cells of the resolution x resolution grid whose centers lie in both
    A_q and A_r, one cell at a time: the center ((2i+1)/2R, (2j+1)/2R) is
    in A_v when ||v.center - shift|| <= psi(|v|), decided in integers over
    the denominator D = 2R * denominator(shift)."""
    shift = as_shift(gamma)
    two_r = 2 * resolution
    D = two_r * shift.denominator
    offset = two_r * shift.numerator

    tq, tr = (eval_psi(psi, max(abs(v[0]), abs(v[1]))) for v in (q, r))

    def inside(v, t, x, y):
        w = ((v[0] * x + v[1] * y) * shift.denominator - offset) % D
        return min(w, D - w) * t.denominator <= t.numerator * D

    odd = range(1, two_r, 2)
    return sum(inside(q, tq, x, y) and inside(r, tr, x, y)
               for x in odd for y in odd)


# (q, r, psi, gamma) for the bitmask grid oracle against the cell loop
GRID_CASES = [
    # psi = 1/2: every center is inside; with gamma = 0 and R = 101 the
    # row through 1/2 ties exactly
    ((1, 0), (0, 1), PowerLaw(F(1, 2), F(0)), SQRT2),
    ((1, 0), (1, 1), PowerLaw(F(1, 2), F(0)), 0),
    ((3, -2), (1, 1), PowerLaw(F(1, 2), F(0)), F(3, 7)),
    # psi = 1/8 on the boundary of the centers 25/200 at R = 100
    ((1, 0), (0, 1), TablePsi({1: F(1, 8)}), 0),
    # psi = 0: only exact hits count, and R = 101 has one, at (1/2, 1/2)
    ((2, 0), (0, 2), TablePsi({}), 0),
    ((1, 0), (0, 1), TablePsi({}), SQRT2),
    # rational gamma, parallel and not
    ((3, 1), (1, 2), PSI_CONST, F(3, 7)),
    ((2, 4), (1, 2), PSI_ROOT, 0),
    # zero and negative coordinates
    ((0, 3), (5, 0), PSI_CONST, SQRT2),
    ((-3, -5), (2, -7), PSI_ROOT, F(3, 7)),
    # q2 sharing a factor with R: several residue cosets per row, down to
    # one residue per coset when 2*q2 = 0 mod 2R
    ((3, 10), (7, 50), PSI_CONST, SQRT2),
    ((1, 64), (-5, 100), PSI_CONST, 0),
    ((1, 101), (2, 128), TablePsi({101: F(1, 4), 128: F(1, 3)}), F(3, 7)),
]


@pytest.mark.parametrize("resolution", [100, 101, 128])
@pytest.mark.parametrize("q, r, psi, gamma", GRID_CASES)
def test_grid_oracle_matches_cell_loop(q, r, psi, gamma, resolution):
    est, _ = overlap_2d_grid_oracle(q, r, psi, gamma, resolution)
    count = grid_count_by_cells(q, r, psi, gamma, resolution)
    assert est == F(count, resolution ** 2)


def test_grid_cases_reach_the_boundary():
    # GRID_CASES hold centers exactly on a boundary: at psi = 1/8 they
    # count (a slightly smaller psi loses them), and psi = 0 has one hit
    def count(t, resolution):
        return grid_count_by_cells((1, 0), (0, 1), TablePsi({1: t}), 0,
                                   resolution)

    eps = F(1, 10 ** 6)
    assert count(F(1, 8) - eps, 100) < count(F(1, 8), 100)
    assert count(F(1, 8), 100) == count(F(1, 8) + eps, 100)
    half = PowerLaw(F(1, 2), F(0))
    assert grid_count_by_cells((1, 0), (1, 1), half, 0, 101) == 101 ** 2
    assert grid_count_by_cells((2, 0), (0, 2), TablePsi({}), 0, 101) == 1
    assert grid_count_by_cells((2, 0), (0, 2), TablePsi({}), 0, 100) == 0


def test_grid_oracle_keeps_resolution_floor():
    with pytest.raises(ValueError):
        overlap_2d_grid_oracle((1, 0), (0, 1), PSI_CONST, SQRT2, 99)


def class_verdict(q_vec, r_vec, psi, w):
    """``lemma3_class`` for a parallel pair with |r| < |q| and gamma sqrt(2)
    at 192 bits, as ``kglab overlap`` calls it: (bound or None, overlap at
    the pair's relative sign, its ok)."""
    d, _, s1 = canonical(*q_vec)
    e, _, s2 = canonical(*r_vec)
    qn, rn = max(map(abs, q_vec)), max(map(abs, r_vec))
    pq, pr, shift = eval_psi(psi, qn), eval_psi(psi, rn), as_shift(SQRT2)
    u = lcm(pq.denominator, pr.denominator, shift.denominator)
    bnum, m, same, opp, zero_ok, bound_ok = lemma3_class(
        d, pq.numerator * (u // pq.denominator), e,
        pr.numerator * (u // pr.denominator),
        shift.numerator * (u // shift.denominator), u)
    vanishes = rn > vanish_threshold(w, d)
    rel = s1 != s2
    return (None if vanishes else F(bnum, d * u * u),
            F((same, opp)[rel], m * u),
            (zero_ok if vanishes else bound_ok)[rel])


class TestLemma3Class:
    def test_provably_zero_case(self):
        # d = gcd(q) = 2, threshold 64; r norm 65 exceeds it
        assert vanish_threshold(W_SQRT2, 2) == 64
        bound, ov, ok = class_verdict((2, 130), (1, 65), PSI_ROOT, W_SQRT2)
        assert bound is None and ov == 0 and ok
        assert overlap_2d((2, 130), (1, 65), PSI_ROOT, SQRT2)[0] == ov

    def test_bound_value_shape(self):
        bound, _, ok = class_verdict((2, 10), (1, 5), PSI_ROOT, W_SQRT2)
        pq, pr = PSI_ROOT(10), PSI_ROOT(5)
        assert bound == 4 * pq * pr + 4 * (pq / 2) * 1 and ok

    def test_bound_dominates_overlap(self):
        for q_vec, r_vec in (((2, 10), (1, 5)), ((4, 8), (1, 2)),
                             ((0, 9), (0, 3)), ((-4, 8), (1, -2)),
                             ((6, -3), (2, -1))):
            bound, ov, ok = class_verdict(q_vec, r_vec, PSI_ROOT, W_SQRT2)
            assert ov == overlap_2d(q_vec, r_vec, PSI_ROOT, SQRT2)[0]
            assert ok and (ov == 0 if bound is None else ov <= bound)


# lemma3_class against the endpoint-sweep oracle at both relative signs and
# against the bound written out in Fractions, both verdicts of each class
# (zero and bound): d > e with d <= 30, radii k/48 (0 and 1/2 among them),
# rational shifts and the 192-bit floor of sqrt(2), over the least unit and
# a multiple of it
LEMMA3_SHIFTS = [F(0), F(1, 2), F(1, 3), F(-5, 7), F(7, 12), as_shift(SQRT2)]


@pytest.mark.parametrize("shift", LEMMA3_SHIFTS, ids=str)
def test_lemma3_class_matches_oracles(shift):
    rng = random.Random(str(shift))
    ends = [0, 24]
    for d in range(2, 31):
        for e in range(1, d):
            radii = [(rng.choice(ends), rng.randint(0, 24)),
                     (rng.randint(0, 24), rng.choice(ends)),
                     (rng.randint(0, 24), rng.randint(0, 24))]
            for k1, k2 in radii:
                pq, pr = F(k1, 48), F(k2, 48)
                bound = 4 * pq * pr + 4 * (pq / d) * gcd(d, e)
                same_ov = overlap_sweep_oracle(TorusSet1D(d, shift, pq),
                                               TorusSet1D(e, shift, pr))
                opp_ov = overlap_sweep_oracle(TorusSet1D(d, shift, pq),
                                              TorusSet1D(e, -shift, pr))
                u = lcm(48, shift.denominator) * rng.choice((1, 3))
                a = shift.numerator * (u // shift.denominator)
                bnum, m, same, opp, zero_ok, bound_ok = lemma3_class(
                    d, k1 * (u // 48), e, k2 * (u // 48), a, u)
                assert m == lcm(d, e)
                assert F(same, m * u) == same_ov
                assert F(opp, m * u) == opp_ov
                assert F(bnum, d * u * u) == bound
                assert zero_ok == (same_ov == 0, opp_ov == 0)
                assert bound_ok == (same_ov <= bound, opp_ov <= bound)


SHIFTS = st.one_of(st.builds(F, st.integers(-12, 12), st.integers(1, 12)),
                  st.just(as_shift(SQRT2)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.one_of(st.none(), st.integers(1, 40)),
       st.integers(0, 10), st.integers(0, 10),
       SHIFTS, st.one_of(st.sampled_from("+-"), SHIFTS))
def test_formula_oracle_property(d, e, n1, n2, s1, s2):
    # ties: t = 0 and t = 1/2, touching arcs (radii n/20 against shifts
    # k/m with m <= 12), d = e (e drawn as None), s2 = +-s1 (drawn as a
    # sign), and the 192-bit sqrt(2) shift
    e = d if e is None else e
    s2 = {"+": s1, "-": -s1}.get(s2, s2)
    A = TorusSet1D(d, s1, F(n1, 20))
    B = TorusSet1D(e, s2, F(n2, 20))
    assert overlap_exact_1d(A, B) == overlap_sweep_oracle(A, B)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30), st.one_of(st.none(), st.integers(1, 30)),
       st.integers(0, 10), st.integers(0, 10), SHIFTS,
       st.one_of(st.none(), SHIFTS), st.integers(1, 6), st.integers(2, 6))
def test_integer_part_over_unreduced_denominators(d, e, n1, n2, s1, s2, c, k):
    # the variance engine holds both radii and the shift over one unit u,
    # not in lowest terms, and takes each pair class at both relative signs
    # from one call: plus and minus must be the overlaps with B's shift at
    # +s2 and at -s2, over lcm(d, e)*u, and the same sets over k*u must
    # give the same Fractions.  Ties, t = 0, t = 1/2, rational and sqrt(2)
    # shifts as in test_formula_oracle_property; d = e is drawn as e None,
    # and the engine's case s2 = s1 as s2 None
    e = d if e is None else e
    s2 = s1 if s2 is None else s2
    t1, t2 = F(n1, 20), F(n2, 20)
    u = lcm(20, s1.denominator, s2.denominator) * c

    def over(unit):
        plus, minus = overlap_1d_num(
            d, n1 * (unit // 20), e, n2 * (unit // 20),
            s1.numerator * (unit // s1.denominator),
            s2.numerator * (unit // s2.denominator), unit)
        den = lcm(d, e) * unit
        return F(plus, den), F(minus, den)

    plus, minus = over(u)
    A = TorusSet1D(d, s1, t1)
    assert plus == overlap_sweep_oracle(A, TorusSet1D(e, s2, t2))
    assert minus == overlap_sweep_oracle(A, TorusSet1D(e, -s2, t2))
    assert over(k * u) == (plus, minus)


def test_kernel_shared_divisions_match_oracle():
    """``overlap_1d_num`` at both signs against the endpoint sweep, on small
    units where its shared divisions meet every case: a start z equal to
    the remainder c_C of a ramp C (where both counts, with and without the
    correction [z > c_C], are right, so the two must agree), t = 0, t = 1/2
    (arcs that tile the circle), equal radii over the step (R1 = R2),
    gcd(d, e) > 1 and negative shifts.  The cases met are checked too."""
    rng = random.Random(33)
    met = set()
    for _ in range(3000):
        u = rng.choice((2, 4, 6, 12))
        d, e = rng.randint(1, 8), rng.randint(1, 8)
        t1n = rng.randint(0, u // 2)
        t2n = rng.randint(0, u // 2)
        if rng.random() < 0.2:
            e, t2n = d, t1n
        an, bn = rng.randint(-3 * u, 3 * u), rng.randint(-3 * u, 3 * u)
        plus, minus = overlap_1d_num(d, t1n, e, t2n, an, bn, u)
        den = lcm(d, e) * u
        A = TorusSet1D(d, F(an, u), F(t1n, u))
        assert F(plus, den) == overlap_sweep_oracle(
            A, TorusSet1D(e, F(bn, u), F(t2n, u)))
        assert F(minus, den) == overlap_sweep_oracle(
            A, TorusSet1D(e, F(-bn, u), F(t2n, u)))
        S, R1, R2 = gcd(d, e) * u, t1n * e, t2n * d
        for Y in (e * an - d * bn, e * an + d * bn):
            z = (R1 + R2 - Y) % S
            if z and z in {2 * (R1 + R2) % S, 2 * R1 % S, 2 * R2 % S}:
                met.add("tie")
        met.update(name for name, hit in (
            ("t = 0", 0 in (t1n, t2n)), ("t = 1/2", u in (2 * t1n, 2 * t2n)),
            ("R1 = R2", R1 == R2 > 0), ("gcd > 1", gcd(d, e) > 1 and d != e),
            ("negative", an < 0 or bn < 0)) if hit)
    assert met == {"tie", "t = 0", "t = 1/2", "R1 = R2", "gcd > 1",
                   "negative"}
