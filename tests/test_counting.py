import hashlib
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kglab import counting
from kglab._kernels import (chain_interval_count, count_by_shell_raw,
                            count_python, moduli_chain)
from kglab.counting import (CountReport, CountTable, chi_term,
                            count_by_shell, count_solutions, main_term,
                            make_report, normalized_error)
from kglab.fixedpoint import FixedPoint, PrecisionError
from kglab.lattice import divisors, phi, shell_coords, tau
from kglab.psifunc import (Clamp, PowerLaw, TablePsi, Window, eval_psi,
                           psi_mantissas)
from kglab.rng import RngStream, derive_seed
from kglab.surd import QuadraticSurd, surd_eval

SQRT2 = QuadraticSurd.sqrt(2)
PSI_HALF = PowerLaw(F(1, 2), F(0))
PSI_34 = PowerLaw(F(1), F(3, 4))

# N(alpha, 500) for gamma = sqrt2, psi = q^(-3/4), seed-0 alpha; frozen
# after the shell-walk oracle and two independent vector-sweep kernels
# agreed at scales 192 and 256 (the independent recount); the interval-walk
# kernel must reproduce it
GOLDEN_Q500_SEED0 = 30259


def alpha_for(seed, scale=192):
    return RngStream(seed).sample_torus_point(scale)


def oracle_by_shell(*args):
    """count_by_shell with the shell-walk oracle in place of the kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "count_by_shell_raw", count_python)
        return count_by_shell(*args)


def test_zero_psi():
    a = alpha_for(1)
    assert count_solutions(a, 20, SQRT2, TablePsi({})) == 0


def test_full_psi_shell1():
    for seed in range(5):
        a = alpha_for(seed)
        assert count_solutions(a, 1, SQRT2, PSI_HALF) == 8


@pytest.mark.parametrize("Q", [1, 5, 10])
def test_full_psi_counts_every_vector_once(Q):
    # psi = 1/2: a.s. exactly one admissible p per q
    for seed in range(100):
        a = alpha_for(seed)
        assert count_solutions(a, Q, SQRT2, PSI_HALF) == (2 * Q + 1) ** 2 - 1


def test_golden_count_and_scale_stability():
    a192 = alpha_for(0, 192)
    n192 = count_solutions(a192, 500, SQRT2, PSI_34, 192)
    assert n192 == GOLDEN_Q500_SEED0
    # independent recount at doubled scale: same alpha bits extended
    a256 = alpha_for(0, 256)
    n256 = count_solutions(a256, 500, SQRT2, PSI_34, 256)
    assert n256 == GOLDEN_Q500_SEED0


def test_kernel_matches_oracle():
    a = alpha_for(3)
    assert np.array_equal(count_by_shell(a, 40, SQRT2, PSI_34),
                          oracle_by_shell(a, 40, SQRT2, PSI_34))


def test_kernel_matches_oracle_on_ties_and_windows():
    # rational alpha engineered to sit exactly on thresholds, psi with
    # zero stretches: the tie/zero handling must match the oracle
    a = (FixedPoint.from_fraction(F(1, 4), 64),
         FixedPoint.from_fraction(F(5, 8), 64))
    cases = [
        TablePsi({2: F(1, 2), 3: F(1, 4), 8: F(0), 9: F(1, 8)}),
        Window(PSI_HALF, 4, 11),
    ]
    for psi in cases:
        assert np.array_equal(count_by_shell(a, 15, F(3, 7), psi),
                              oracle_by_shell(a, 15, F(3, 7), psi))


@st.composite
def interval_count_args(draw):
    """(n, m, a, b, c) for #{0 <= k <= n : (a*k + b) mod m < c}: small and
    130-bit moduli, a and b at 0, at m - 1 and anywhere below m, c at 0, 1,
    m - 1, m and anywhere in [0, m], n at 0, 1 and up to 60."""
    m = draw(st.one_of(st.integers(1, 50), st.integers(1, 1 << 130)))
    a = draw(st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1)))
    b = draw(st.one_of(st.sampled_from([0, m - 1]), st.integers(0, m - 1)))
    c = draw(st.one_of(st.sampled_from([0, 1, m - 1, m]),
                       st.integers(0, m)))
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 60)))
    return n, m, a, b, c


@settings(max_examples=400, deadline=None)
@given(interval_count_args())
@example((0, 7, 3, 2, 5))
@example((12, 12, 0, 11, 12))
@example((25, 12, 11, 0, 1))
@example((7, 10, 3, 0, 5))   # top window [20, 25) holds k = 7 and k = 8 > n
@example((40, 3 * 2 ** 64 + 1, 3 * 2 ** 64, 2 ** 65, 2 ** 64))
def test_interval_walk_matches_direct_count(args):
    n, m, a, b, c = args
    assert (chain_interval_count(moduli_chain(m, a), n, b, c)
            == sum((a * k + b) % m < c for k in range(n + 1)))


@st.composite
def raw_sweeps(draw):
    """Raw kernel inputs biased to ties: mantissas at 0, M/4, M/2, 5M/8 and
    thresholds 0, M/2 - 1 and M/2, at scales that are not all multiples of
    32."""
    s = draw(st.sampled_from([64, 80, 96, 128, 192]))
    M = 1 << s
    mantissa = st.one_of(st.sampled_from([0, M // 4, M // 2, 5 * M // 8]),
                         st.integers(0, M - 1))
    threshold = st.one_of(st.sampled_from([0, M // 8, M // 4, M // 2 - 1,
                                           M // 2]),
                          st.integers(0, M // 2))
    Q = draw(st.integers(1, 25))
    return (draw(mantissa), draw(mantissa), draw(mantissa), s,
            [0] + draw(st.lists(threshold, min_size=Q, max_size=Q)), Q)


@settings(max_examples=300, deadline=None)
@given(raw_sweeps())
def test_kernel_matches_oracle_raw(args):
    assert np.array_equal(count_by_shell_raw(*args), count_python(*args))


# SHA-256 of repr(count_by_shell_raw(...)) at Q = 2000, gamma = sqrt 2, for
# the alpha of RngStream(derive_seed(s, 0)), s = 0..5; recorded from the
# earlier kernel, which scored each progression as two floor sums
KERNEL_DIGESTS_Q2000 = [
    (PSI_34, [
        "e1152b88f67680b819c436db7734cb84fbaff775d42f9e1f6814cb8d99196aee",
        "2ce0e0f94b5c5e2e03cebf82a301f1583a058a09ebce2a9baa6b4a6954107c44",
        "c0fa78b2348730a99c54d0d996473a2546b5ec2cb92eb2929522c6a6342b72bc",
        "9659f2da1190f9cce6bc32647ca3a384bd627f905e6c7e04a5e57f8d20545139",
        "38aece2fe0165e37cc79a612b8ab49fefdc5d55495edf4479822cd00b5a8f384",
        "dbb0aa314786c78213dc59d036877ce5ce88b0110aa4aa4cdd538927f445a62f",
    ]),
    (PowerLaw(F(1, 4), F(1, 2)), [
        "0a5864a66c5b49c3f2b2b1f910768142dc81a505bc0bccd00789995955b4babc",
        "f5122d8ba3c38466aa66b641d3c689274905535170262a5c6ffe2341be137276",
        "cdaff6af9ff67fe095e746a0582c723f66a56c92733707a9194f83c73e1b0682",
        "acd2f6d315e26a825f149ea4736eb1b9966646e425a6d857d77b0cf932005ebf",
        "2baac4e35dc6eb93da34d0ee494c3e92d499685a428c5913fa7031e200f3cbfe",
        "5e36ad685be1944aba41af9edf1b863659d9c65e3802bd526ac2086254957a8a",
    ]),
    (PSI_HALF, 6 * [
        "0a648e8e6f03fbbf4da10956dafbd0283fbdd590f3b362138cdd41a63d40a1c8",
    ]),
]


@pytest.mark.parametrize("psi, digests", KERNEL_DIGESTS_Q2000,
                         ids=[p.describe() for p, _ in KERNEL_DIGESTS_Q2000])
def test_kernel_digests_at_q2000(psi, digests):
    Q, s = 2000, 192
    mg = surd_eval(SQRT2, 1, s).mantissa
    thresholds = psi_mantissas(psi, Q, s)
    got = []
    for seed in range(6):
        a1, a2 = RngStream(derive_seed(seed, 0)).sample_torus_point(s)
        counts = count_by_shell_raw(a1.mantissa, a2.mantissa, mg, s,
                                    thresholds, Q)
        got.append(hashlib.sha256(repr(counts).encode()).hexdigest())
    assert got == digests


@pytest.mark.parametrize("s", [64, 192])
def test_shell_walk_matches_per_vector(s):
    # count_python steps along each row and column; here every vector of
    # every shell is reduced on its own and scored by two comparisons,
    # gamma mantissa 0, M/2 (every v = M/2 when m1 = m2 = 0: ties at
    # threshold M/2) and random, thresholds 0, M/2 and random
    M = 1 << s
    rng = random.Random(s)
    Q = 12
    for m1, m2 in [(0, 0), (M // 2, M // 4), (M - 1, 1),
                   (rng.randrange(M), rng.randrange(M))]:
        for thresholds in ([0] * (Q + 1), [0] + [M // 2] * Q,
                           [0] + [rng.choice([0, M // 2, rng.randrange(M)])
                                  for _ in range(Q)]):
            for mg in (0, M // 2, rng.randrange(1, M)):
                want = [0] + [sum((v <= thresholds[n])
                                  + (M - v <= thresholds[n])
                                  for v in ((q1 * m1 + q2 * m2 - mg) % M
                                            for q1, q2 in shell_coords(n)))
                              for n in range(1, Q + 1)]
                assert list(count_python(m1, m2, mg, s, thresholds,
                                         Q)) == want


def test_incremental_shells_match_recount():
    # shell-indexed increments agree with the independent shell-order
    # recount (python reference) for 10 random alphas up to Q = 200
    for seed in range(10):
        a = alpha_for(seed + 100)
        counts = count_by_shell(a, 200, SQRT2, PSI_34)
        ref = oracle_by_shell(a, 200, SQRT2, PSI_34)
        assert np.array_equal(counts, ref)
    a = alpha_for(9)
    counts = count_by_shell(a, 60, SQRT2, PSI_34)
    for Q in (1, 7, 23, 60):
        assert sum(counts[1:Q + 1]) == count_solutions(a, Q, SQRT2, PSI_34)


def test_monotone_in_Q_and_psi():
    a = alpha_for(11)
    counts = count_by_shell(a, 50, SQRT2, PSI_34)
    n_prefix = np.cumsum(counts)
    assert all(n_prefix[i] <= n_prefix[i + 1] for i in range(50))
    smaller = PowerLaw(F(1, 2), F(3, 4))  # pointwise <= PSI_34
    n_small = count_solutions(a, 50, SQRT2, smaller)
    assert n_small <= sum(counts)


def test_boundary_tie_counts_two():
    # alpha = (1/4, 0): the q1 = ±2 vectors land at distance exactly
    # 1/2 = psi(2) and count twice (two admissible p each); q1 = ±1 and
    # q1 = 0 rows are interior hits counting once
    a = (FixedPoint.from_fraction(F(1, 4), 64),
         FixedPoint.from_fraction(F(0), 64))
    psi = TablePsi({2: F(1, 2)})
    counts = count_by_shell(a, 2, 0, psi)
    assert counts[2] == 10 + 10 + 4 + 2  # ties double the 10 q1=±2 vectors
    # psi(1) = 0 still admits exact hits: (0, ±1) give distance 0
    assert counts[1] == 2


def test_exact_tie_rule_single_axis():
    a = (FixedPoint.from_fraction(F(1, 2), 64),
         FixedPoint.from_fraction(F(1, 3), 64))
    psi = TablePsi({1: F(1, 2)})
    # (±1, 0): distance exactly 1/2 -> 2 each; the six other norm-1
    # vectors sit at distance 1/6 or 1/3 -> 1 each
    n = count_solutions(a, 1, 0, psi)
    assert n == 2 * 2 + 6 * 1
    ref = oracle_by_shell(a, 1, 0, psi)
    assert n == sum(ref)


def test_precision_range_rejected():
    a = alpha_for(0, 64)
    with pytest.raises(PrecisionError):
        count_solutions(a, 10 ** 6, SQRT2, PSI_34, 64)


@pytest.mark.parametrize("s", [66, 192, 256])
def test_gamma_mantissa_is_the_floor_of_gamma(s):
    # surds as surd_eval floors them; exact values by the defining
    # inequality m/2**s <= frac(gamma) < (m+1)/2**s
    for g in (SQRT2, QuadraticSurd(-5, -3, 7, 11)):
        assert counting._gamma_mantissa(g, s) == surd_eval(g, 1, s).mantissa
    for g in (F(3, 7), F(-22, 7), 0, 5, FixedPoint(-(3 << 60) + 7, 64)):
        v = g.to_fraction() if isinstance(g, FixedPoint) else F(g)
        frac = v - (v.numerator // v.denominator)
        m = counting._gamma_mantissa(g, s)
        assert 0 <= m < 1 << s
        assert F(m, 1 << s) <= frac < F(m + 1, 1 << s)
    with pytest.raises(PrecisionError):
        counting._gamma_mantissa(FixedPoint(1, s + 1), s)


def test_main_term_modes():
    assert main_term(PSI_HALF, 1, "exact-shell") == 8
    assert main_term(PSI_HALF, 1, "paper") == 12
    assert main_term(TablePsi({}), 10, "exact-shell") == 0
    assert main_term(TablePsi({}), 10, "paper") == 0
    # exact-shell = 16 * sum q psi
    psi = PSI_34
    want = 16 * sum(q * eval_psi(psi, q) for q in range(1, 31))
    assert main_term(psi, 30, "exact-shell") == want
    assert main_term(psi, 30, "paper") == want + 8 * sum(
        eval_psi(psi, q) for q in range(1, 31))


def test_chi_term_examples():
    assert chi_term(PSI_HALF, 1) == 4
    # psi supported at q=2 only: sum over the 16 norm-2 vectors of tau(gcd)
    v = F(1, 5)
    psi = TablePsi({2: v})
    # 8 primitive (tau(1)=1) + 8 with gcd 2 (tau(2)=2)
    assert chi_term(psi, 3) == v * (8 * 1 + 8 * 2)
    assert chi_term(TablePsi({}), 5) == 0


def test_chi_shell_weight_matches_convolution():
    # psi(n) = 2^(-16n) puts each shell weight (< 2^16) in its own 16-bit
    # digit of chi_term, so the sigma form is checked shell by shell against
    # the convolution sum_{d|n} tau(d) * 8 phi(n/d) it replaces.
    Q, bits = 2000, 16
    psi = TablePsi({n: F(1, 1 << (bits * n)) for n in range(1, Q + 1)})
    packed = chi_term(psi, Q) * (1 << (bits * Q))
    assert packed.denominator == 1
    for n in range(1, Q + 1):
        weight = (packed.numerator >> (bits * (Q - n))) & ((1 << bits) - 1)
        assert weight == sum(tau(d) * 8 * phi(n // d) for d in divisors(n))


def test_chi_dominates_psi_sum():
    for Q in (5, 20):
        chi = chi_term(PSI_34, Q)
        lower = sum(8 * q * eval_psi(PSI_34, q) for q in range(1, Q + 1))
        assert chi >= lower


# psi with dyadic denominators, with td = lcm(1..Q), at the cap 1/2 (and
# capped from above at q = 1..4), with zeros and denominators 3, 5 and 7,
# under both wrappers, and zero everywhere (td = 1)
REPORT_PSIS = [
    PSI_34,
    PowerLaw(F(1, 2), F(1)),
    PSI_HALF,
    PowerLaw(F(2), F(1)),
    TablePsi({1: F(1, 3), 2: 0, 3: F(2, 5), 5: F(1, 7), 7: F(3, 7),
              12: 0, 40: F(1, 5)}),
    Clamp(PowerLaw(F(1), F(1, 2))),
    Window(PSI_34, 5, 40),
    TablePsi({}),
]


@pytest.mark.parametrize("psi", REPORT_PSIS, ids=lambda p: p.describe())
def test_count_table_matches_oracles(psi):
    # the report terms at every Q <= 60 equal main_term in both modes and
    # chi_term, and the thresholds equal psi_mantissas
    qs = list(range(1, 61))
    table = CountTable(psi, qs, 192)
    assert table.thresholds == psi_mantissas(psi, 60, 192)
    for Q in qs:
        assert table.terms[Q] == (main_term(psi, Q, "exact-shell"),
                                  main_term(psi, Q, "paper"),
                                  chi_term(psi, Q)), Q


def test_normalized_error():
    assert normalized_error(100, F(100), F(1, 2)) == 0
    import math
    psi = F(1000)
    dev = math.sqrt(1000) * math.log(1000) ** 2
    got = normalized_error(1000 + int(dev), psi, F(1, 2))
    assert abs(got - 1) < 0.01
    assert normalized_error(900, psi, F(1, 2)) < 0
    with pytest.raises(ValueError):
        normalized_error(3, F(2), F(1, 2))


def test_report_roundtrip():
    a = alpha_for(4)
    counts = count_by_shell(a, 30, SQRT2, PSI_34)
    table = CountTable(PSI_34, [30], 192)
    rep = make_report(123, counts, 30, table, F(1, 2), "sqrt:2", "pow:1,3/4")
    assert rep.N == sum(counts)
    assert set(CountReport.CSV_COLUMNS) <= rep.json_dict().keys()
    assert rep.json_dict()["N"] == rep.N


def test_window_psi_counts_only_window():
    a = alpha_for(6)
    w = Window(PSI_34, 10, 20)
    counts = count_by_shell(a, 30, SQRT2, w)
    assert sum(counts[:10]) == 0
    assert sum(counts[21:]) == 0
    full = count_by_shell(a, 30, SQRT2, PSI_34)
    assert np.array_equal(counts[10:21], full[10:21])
