import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from kglab.psifunc import PowerLaw, TablePsi
from kglab.surd import QuadraticSurd
from kglab.torus import (TorusSet1D, as_shift, measure_2d, overlap_2d,
                         overlap_1d_num, overlap_2d_grid_oracle,
                         overlap_exact_1d, overlap_sweep_oracle,
                         parallel_overlap_bound)
from kglab.witness import NonLiouvilleWitness

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


class TestParallelBound:
    def test_provably_zero_case(self):
        # d = gcd(q) = 2, threshold 64; r norm 65 exceeds it
        res = parallel_overlap_bound((2, 130), (1, 65), PSI_ROOT, W_SQRT2)
        assert res.provably_zero and res.threshold == 64
        v, _ = overlap_2d((2, 130), (1, 65), PSI_ROOT, SQRT2)
        assert v == 0

    def test_bound_value_shape(self):
        res = parallel_overlap_bound((2, 10), (1, 5), PSI_ROOT, W_SQRT2)
        assert res.kind == "bound"
        pq, pr = PSI_ROOT(10), PSI_ROOT(5)
        assert res.value == 4 * pq * pr + 4 * (pq / 2) * 1

    def test_bound_dominates_overlap(self):
        for q_vec, r_vec in (((2, 10), (1, 5)), ((4, 8), (1, 2)),
                             ((0, 9), (0, 3))):
            res = parallel_overlap_bound(q_vec, r_vec, PSI_ROOT, W_SQRT2)
            v, _ = overlap_2d(q_vec, r_vec, PSI_ROOT, SQRT2)
            if res.provably_zero:
                assert v == 0
            else:
                assert v <= res.value

    def test_rejects_nonparallel(self):
        with pytest.raises(ValueError):
            parallel_overlap_bound((2, 10), (1, 6), PSI_ROOT, W_SQRT2)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 10),
       st.integers(0, 10), SHIFTS, st.sampled_from("+-"),
       st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_integer_part_over_unreduced_denominators(d, e, n1, n2, s1, sign, c1,
                                                  c2, c3):
    # the variance engine holds every radius over one common denominator
    # and the shift over its own, none in lowest terms: scaling a
    # numerator and its denominator by c must not change the overlap
    s2 = s1 if sign == "+" else -s1
    t1, t2 = F(n1, 20), F(n2, 20)
    sd = s1.denominator * c3
    num = overlap_1d_num(d, t1.numerator * c1, t1.denominator * c1,
                         s1.numerator * c3, e, t2.numerator * c2,
                         t2.denominator * c2, s2.numerator * c3, sd)
    value = F(num, lcm(d, e) * sd * t1.denominator * c1 * t2.denominator * c2)
    assert value == overlap_sweep_oracle(TorusSet1D(d, s1, t1),
                                         TorusSet1D(e, s2, t2))
