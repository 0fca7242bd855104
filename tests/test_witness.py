from fractions import Fraction

import pytest

from kglab.cfrac import cf_expand, convergents, make_liouville
from kglab.psifunc import Clamp, PowerLaw, Window
from kglab.surd import QuadraticSurd, dist_cmp_fraction
from kglab.witness import (NonLiouvilleWitness, WitnessFitFailure,
                           analytic_witness, analytic_witness_c, fit_witness,
                           vanish_threshold)

SQRT2 = QuadraticSurd.sqrt(2)
GOLDEN = QuadraticSurd.golden_ratio()
PSI = PowerLaw(Fraction(1, 4), Fraction(1, 2))


@pytest.fixture(scope="module")
def w_sqrt2():
    w = fit_witness(SQRT2, PSI, 10 ** 5)
    assert isinstance(w, NonLiouvilleWitness)
    return w


def test_sqrt2_witness(w_sqrt2):
    assert w_sqrt2.eta == 1
    assert w_sqrt2.c == 4
    assert w_sqrt2.C == Fraction(1, 4)
    assert w_sqrt2.epsilon == Fraction(1, 2)
    assert w_sqrt2.M == 4
    assert w_sqrt2.K == 5


def test_golden_witness():
    w = fit_witness(GOLDEN, PSI, 10 ** 5)
    assert w.eta == 1
    assert w.c <= 4


def test_witness_reads_C_eps_through_wrappers():
    for psi in (Clamp(PowerLaw(Fraction(1, 4), Fraction(1, 2))),
                Window(PowerLaw(Fraction(1, 4), Fraction(1, 2)), 2, 999)):
        w = fit_witness(SQRT2, psi, 1000)
        assert (w.C, w.epsilon) == (Fraction(1, 4), Fraction(1, 2))


def test_witness_requires_decay():
    with pytest.raises(ValueError):
        fit_witness(SQRT2, PowerLaw(Fraction(1, 10), Fraction(0)), 1000)


def test_liouville_fit_fails_default_caps():
    lio = make_liouville(3)
    res = fit_witness(lio, PSI, 10 ** 5)
    assert isinstance(res, WitnessFitFailure)
    assert not res
    assert res.worst_q == 2  # the first boosted convergent defeats all caps


@pytest.mark.parametrize("eta_max", [0, -1])
def test_witness_rejects_eta_max_below_one(eta_max):
    with pytest.raises(ValueError):
        fit_witness(SQRT2, PSI, 1000, eta_max=eta_max)


def test_liouville_fit_fails_eta_capped():
    lio = make_liouville(3)
    res = fit_witness(lio, PSI, 10 ** 5, eta_max=3)
    assert isinstance(res, WitnessFitFailure)


def test_vanish_threshold_examples(w_sqrt2):
    assert vanish_threshold(w_sqrt2, 1) == 4
    assert vanish_threshold(w_sqrt2, 2) == 64
    assert vanish_threshold(w_sqrt2, 3) == 324


def test_vanish_threshold_monotone():
    prev = None
    for c_pow in range(0, 5):
        for d in range(1, 6):
            w = NonLiouvilleWitness(eta=1, c=Fraction(2 ** c_pow),
                                    C=Fraction(1, 4), epsilon=Fraction(1, 2),
                                    q_max=100)
            t = vanish_threshold(w, d)
            if prev is not None and d > 1:
                assert t >= prev
            prev = t
    # nondecreasing in C and c separately
    base = dict(eta=1, epsilon=Fraction(1, 2), q_max=100)
    for d in (1, 2, 5):
        last = 0
        for c0 in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(2)):
            t = vanish_threshold(NonLiouvilleWitness(c=Fraction(4), C=c0,
                                                     **base), d)
            assert t >= last
            last = t


def test_convergent_denominator_bound():
    # ||q_k gamma|| < 1/q_{k+1} <= 1/(a_{k+1} q_k), 40 convergents, 5 surds
    surds = [SQRT2, GOLDEN, QuadraticSurd.sqrt(3), QuadraticSurd.sqrt(7),
             QuadraticSurd(5, -3, 4, 11)]
    for g in surds:
        cf = cf_expand(g)
        quots = cf.quotients(41)
        convs = convergents(cf.a0, quots)
        for k in range(40):
            q_k = convs[k][1]
            q_next = convs[k + 1][1]
            a_next = quots[k]
            assert q_next >= a_next * q_k
            # ||q_k g|| < 1/q_next, exact comparison
            assert dist_cmp_fraction(g, q_k, 1, q_next) < 0


def test_witness_valid_on_prefixes(w_sqrt2):
    # a witness valid at q_max holds at every checked q below it
    from kglab.witness import check_points

    for q in check_points(SQRT2, 3000):
        assert dist_cmp_fraction(SQRT2, q, 1, int(w_sqrt2.c) * q) >= 0


def test_analytic_witness():
    assert analytic_witness_c(SQRT2) == 4
    assert analytic_witness_c(GOLDEN) == 4
    w = analytic_witness(SQRT2, PSI, 10 ** 5)
    assert w.analytic and w.eta == 1
    # analytic certificate actually holds over a dense sweep
    for q in range(1, 3000):
        assert dist_cmp_fraction(SQRT2, q, 1, 4 * q) >= 0


FIT_GAMMAS = ["sqrt:%d" % d for d in (2, 3, 5, 7, 10, 13, 46, 94, 199, 991)] + [
    "surd:3,-2,7,6", "surd:5,-3,4,11", "surd:-1,2,-3,12",
    "cf:0,1,1,1,200;1", "cf:1;2", "cf:0,3;1,2",
    "liouville:1", "liouville:2", "liouville:3"]


def _doubling_fit(g, q_max, eta_max, c_max):
    """The witness search as a plain doubling loop: per eta, c = 1, 2, 4, ...
    up to c_max, each checked at every point by ``dist_cmp_fraction``."""
    from kglab.witness import check_points

    qs = check_points(g, q_max)

    def holds(eta, c, q):
        return dist_cmp_fraction(g, q, 1, c * q ** eta) >= 0

    for eta in range(1, eta_max + 1):
        c = 1
        while c <= c_max:
            if all(holds(eta, c, q) for q in qs):
                return ("ok", eta, c)
            c *= 2
    c_top = 1 << (c_max.bit_length() - 1)
    return ("fail", next(q for q in qs if not holds(eta_max, c_top, q)))


@pytest.mark.parametrize("spec", FIT_GAMMAS)
def test_fit_witness_matches_doubling_search(spec):
    from kglab.cli import parse_gamma

    g = parse_gamma(spec)
    for q_max in (2, 10, 70, 400, 3000):
        for eta_max, c_max in ((10, 1 << 64), (1, 1 << 64), (3, 1000),
                               (2, 7), (10, 1)):
            w = fit_witness(g, PSI, q_max, eta_max=eta_max, c_max=c_max)
            got = (("ok", w.eta, w.c) if isinstance(w, NonLiouvilleWitness)
                   else ("fail", w.worst_q))
            want = _doubling_fit(g, q_max, eta_max, c_max)
            assert got == want, (q_max, eta_max, c_max)


@pytest.mark.parametrize("c_max", [0, -3])
def test_witness_rejects_c_max_below_one(c_max):
    with pytest.raises(ValueError):
        fit_witness(SQRT2, PSI, 1000, c_max=c_max)


@pytest.mark.parametrize("spec", FIT_GAMMAS)
def test_check_points_are_convergent_denominators(spec):
    from kglab.cli import parse_gamma
    from kglab.witness import EXHAUSTIVE_Q, check_points

    g = parse_gamma(spec)
    cf = cf_expand(g)
    dens = [q for _, q in convergents(cf.a0, cf.quotients(60))]
    first_past_guard = next(q for q in dens if q > EXHAUSTIVE_Q)
    for q_max in (2, 70, 3000, 10 ** 5, first_past_guard):
        assert dens[-1] > q_max
        want = set(range(1, min(EXHAUSTIVE_Q, q_max) + 1))
        want.update(q for q in dens if q <= q_max)
        assert check_points(g, q_max) == sorted(want), q_max
