import hashlib
import json
import random
from fractions import Fraction as F
from math import gcd

import pytest

from kglab import torus, variance
from kglab.fixedpoint import DEFAULT_SCALE_BITS
from kglab.lattice import LatticeVector, shell
from kglab.psifunc import PowerLaw, TablePsi, Window, eval_psi
from kglab.surd import QuadraticSurd
from kglab.torus import (TorusSet1D, as_shift, measure_2d, overlap_1d_num,
                         overlap_2d, overlap_sweep_oracle)
from kglab.variance import (SweepSummary, _lift, highdim_bound_check,
                            vanishing_bound_sweep, variance_bruteforce,
                            variance_full, variance_window, window_boundary)
from kglab.witness import NonLiouvilleWitness, fit_witness, vanish_threshold

SQRT2 = QuadraticSurd.sqrt(2)
PSI_CONST = PowerLaw(F(1, 10), F(0))
PSI_ROOT = PowerLaw(F(1, 4), F(1, 2))


def test_zero_psi_zero_variance():
    rep = variance_full(5, TablePsi({}), SQRT2)
    assert rep.variance == 0
    assert rep.sum_measures == 0
    assert rep.sum_pair_overlaps == 0


@pytest.mark.parametrize("Q", [1, 2])
def test_full_variance_matches_bruteforce(Q):
    vectors = [v for n in range(1, Q + 1) for v in shell(n)]
    bf = variance_bruteforce(vectors, PSI_CONST, SQRT2)
    rep = variance_full(Q, PSI_CONST, SQRT2)
    assert rep.variance == bf
    # pair-overlap sum cross check through the same brute force
    meas = sum(measure_2d(v, PSI_CONST) for v in vectors)
    assert rep.sum_measures == meas
    assert rep.sum_pair_overlaps == bf + meas ** 2


def test_variance_nonnegative_and_decomposition():
    rep = variance_full(12, PSI_ROOT, SQRT2)
    assert rep.variance >= 0
    assert rep.nonparallel == 0
    assert rep.diagonal + rep.parallel_offdiag == rep.variance
    assert rep.diagonal <= rep.sum_measures


def test_same_norm_parallel_pairs_within_cap():
    # pairs with |r| = |q| parallel are r = +-q; their overlap mass stays
    # below twice the measure sum
    total = F(0)
    meas = F(0)
    for n in range(1, 9):
        for q in shell(n):
            meas += measure_2d(q, PSI_ROOT)
            total += overlap_2d(q, q, PSI_ROOT, SQRT2)[0]
            total += overlap_2d(q, (-q.q1, -q.q2), PSI_ROOT, SQRT2)[0]
    assert total <= 2 * meas


def test_full_torus_sets_have_zero_variance():
    # psi = 1/2 makes every A_q the whole torus: indicators are constant
    psi_half = PowerLaw(F(1, 2), F(0))
    rep = variance_full(6, psi_half, SQRT2)
    assert rep.variance == 0
    assert rep.sum_pair_overlaps == rep.sum_measures ** 2


def test_single_vector_window():
    v = LatticeVector(1, 1)
    rep = variance_window(v, v, PSI_CONST, SQRT2)
    lam = measure_2d(v, PSI_CONST)
    assert rep.variance == lam * (1 - lam)
    assert rep.sum_measures == lam


def test_full_shell_window_matches_bruteforce():
    vecs = shell(3)
    rep = variance_window(vecs[0], vecs[-1], PSI_CONST, SQRT2)
    assert rep.variance == variance_bruteforce(vecs, PSI_CONST, SQRT2)


def test_partial_window_matches_bruteforce():
    u, v = LatticeVector(2, -1), LatticeVector(4, 2)
    window = [w for n in (2, 3, 4) for w in shell(n)
              if u.order_key() <= w.order_key() <= v.order_key()]
    rep = variance_window(u, v, PSI_ROOT, SQRT2)
    assert rep.variance == variance_bruteforce(window, PSI_ROOT, SQRT2)


def test_windows_random_match_bruteforce():
    rng = random.Random(4)
    all_vecs = [w for n in range(1, 7) for w in shell(n)]
    for _ in range(6):
        i, j = sorted(rng.sample(range(len(all_vecs)), 2))
        u, v = all_vecs[i], all_vecs[j]
        window = all_vecs[i:j + 1]
        rep = variance_window(u, v, PSI_ROOT, SQRT2)
        assert rep.variance == variance_bruteforce(window, PSI_ROOT, SQRT2)


def test_window_boundary_matches_shell_filter():
    # the end-shell coordinates of a window, filtered by key, against the
    # filter of whole shells of vectors by order_key; random
    # windows, u = v, and u and v on the same shell
    rng = random.Random(20)
    all_vecs = [w for n in range(1, 41) for w in shell(n)]
    pairs = [sorted(rng.sample(range(len(all_vecs)), 2)) for _ in range(40)]
    pairs += [[i, i] for i in rng.sample(range(len(all_vecs)), 10)]
    for n in (1, 2, 17, 40):
        start = sum(8 * m for m in range(1, n))
        pairs.append([start, start + 8 * n - 1])
        pairs.append(sorted(rng.sample(range(start, start + 8 * n), 2)))
    for i, j in pairs:
        u, v = all_vecs[i], all_vecs[j]
        want = [(w.q1, w.q2) for n in sorted({u.norm, v.norm})
                for w in shell(n)
                if u.order_key() <= w.order_key() <= v.order_key()]
        assert window_boundary(u, v) == want


def test_window_rejects_reversed():
    with pytest.raises(ValueError):
        variance_window(LatticeVector(3, 0), LatticeVector(1, 0), PSI_CONST,
                        SQRT2)


@pytest.fixture(scope="module")
def w_sqrt2():
    return fit_witness(SQRT2, PSI_ROOT, 10 ** 5)


def test_vanishing_sweep_small(w_sqrt2):
    rows, summary = vanishing_bound_sweep(140, PSI_ROOT, w_sqrt2, SQRT2)
    assert summary.n_violations == 0
    assert summary.n_zero_confirmed > 0
    assert summary.max_bound_ratio < 1
    # the earliest vanishing class: d=2, e=1, direction norm 65
    zero_rows = [r for r in rows if r.status == "zero-confirmed"]
    assert min((r.d, r.r) for r in zero_rows) == (2, 65)
    for r in zero_rows:
        assert r.r > r.threshold and r.overlap == 0


def test_vanishing_sweep_rejects_uncertified(w_sqrt2):
    with pytest.raises(ValueError):
        vanishing_bound_sweep(10 ** 5 + 1, PSI_ROOT, w_sqrt2, SQRT2)


def test_highdim_bound():
    psi = PSI_CONST
    hb = highdim_bound_check(6, 4, psi, 2)
    want_base = 4 * F(1, 10) * F(1, 10) + 4 * (F(1, 10) / 6) * 2
    assert hb.base == want_base
    assert hb.value == want_base ** 2
    assert highdim_bound_check(6, 4, TablePsi({}), 3).value == 0
    with pytest.raises(ValueError):
        highdim_bound_check(4, 6, psi, 2)


def test_ratio_reported():
    rep = variance_full(30, PSI_ROOT, SQRT2)
    assert rep.ratio == rep.variance / rep.sum_measures
    assert rep.shift_error_bound < 1e-40
    d = rep.json_dict()
    assert set(d) >= {"variance", "ratio", "sum_measures", "nonparallel"}


# SHA-256 of json.dumps(json_dict(), sort_keys=True) for full ranges and
# order windows, recorded before the full-range and window paths shared one
# core: any change to a report field fails.
PSI_HALF = PowerLaw(F(1, 2), F(0))
PSI_HALF_ROOT = PowerLaw(F(1, 2), F(1, 2))  # 1/2 at q = 1, rational at squares
L = LatticeVector
GOLDEN_REPORTS = {
    "full-60": (
        lambda: variance_full(60, PSI_ROOT, SQRT2),
        "deeba60c78da103eb39579e7aef6b96333cd0cced4f232101916e095b39580d2"),
    "full-100": (
        lambda: variance_full(100, PSI_ROOT, SQRT2),
        "57478f537224b2b71ad9a876984f8585f11622e9da9cf06d32555be15f790af8"),
    "full-ties": (
        lambda: variance_full(12, PSI_HALF_ROOT, F(3, 7)),
        "ef90b9fc8882ac157e73c8e7814ff08a061b0c20eba8f7aeaaed058bae3f8e43"),
    "window-one-shell": (
        lambda: variance_window(L(-7, 2), L(7, -1), PSI_ROOT, SQRT2),
        "a0191a594ecc3d1723d23ba38aac152a3c912832156d00d6f9a230aff0c5327e"),
    "window-adjacent": (
        lambda: variance_window(L(4, 1), L(-2, 5), PSI_ROOT, SQRT2),
        "cc9762fc0be0304665e101a5b584221b274eca36617f97bb1be7bf2318177a9c"),
    "window-whole-ends": (
        lambda: variance_window(shell(10)[0], shell(15)[-1], PSI_ROOT, SQRT2),
        "7d83e66c2ac3782c46122f8b6ab8f25fa081ccba3c11ba3084a954156d20d5d5"),
    "window-28-shells": (
        lambda: variance_window(L(3, -12), L(-40, 17), PSI_ROOT, SQRT2),
        "cdaef3bf0523e12060a6c72a205b0a9adcdf2db5924be37669b9705292d3c75c"),
    "window-negative-q1": (
        lambda: variance_window(L(-6, 2), L(9, 9), PSI_ROOT, SQRT2),
        "bb90219cda4b213ef7857f6496f0d6161de8f1725a96f67f0b742afdc03e80cc"),
    "window-full-circle": (
        lambda: variance_window(L(-3, 1), L(6, -2), PSI_HALF, F(3, 7)),
        "34aed0878bbc32ee902ac297ed94c4aab90a9bae5782a72be788a69cfba3c883"),
    "window-ties": (
        lambda: variance_window(L(-1, 1), L(6, -2), PSI_HALF_ROOT, F(3, 7)),
        "9a51f3cd8d59e522e907edd479f1d3bb1dcfe248fa09944ea344bae125abd457"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_golden_reports(name):
    make, digest = GOLDEN_REPORTS[name]
    text = json.dumps(make().json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Differential test of the integer norm-pair sums against the all-pairs
# oracle, over psi with dyadic, lcm(1..Q) and small odd denominators, zeros
# and the full circle, and over irrational, rational, zero and half shifts.
# Every parallel pair enters by the norms of its two vectors, so windows
# whose end shells hold +- multiples of one direction (g > 1) and whole
# shells that hold others are the cases where a weight could be miscounted.
DIFF_PSIS = {
    "inv": PowerLaw(F(1, 2), F(1)),  # 1/(2q): denominators up to lcm(1..Q)
    "half": PSI_HALF,
    "table": TablePsi({1: F(1, 3), 2: F(2, 5), 3: F(0), 4: F(1, 7),
                       5: F(3, 7), 6: F(2, 15)}),  # zeros, 3/5/7 denominators
    "sparse": TablePsi({3: F(1, 7), 4: F(0), 6: F(1, 2), 9: F(1, 4)}),
    "root": PSI_ROOT,
}
DIFF_GAMMAS = {"sqrt2": SQRT2, "3/7": F(3, 7), "0": F(0), "1/2": F(1, 2)}
DIFF_WINDOWS = [
    (L(2, -3), L(2, -3)),      # u = v
    (L(-5, 2), L(5, -1)),      # u and v on one shell
    # (2,4), (-2,-4) on shell 4 and (3,6), (-3,-6) on shell 6; (4,4) and
    # (-6,-6) on the end shells with (+-5,+-5) whole between them
    (L(-2, -4), L(3, 6)),
    # axis vectors and diagonals on both end shells: (+-2, 0), (0, +-2),
    # (-2, 2), (2, +-2) on shell 2 and (+-4, 0), (0, +-4), (-4, +-4),
    # (4, -4) on shell 4, with shell 3 whole between them
    (L(-2, 0), L(4, 0)),
]


def check_against_bruteforce(rep, vectors, psi, gamma):
    assert rep.variance == variance_bruteforce(vectors, psi, gamma)
    measures = [measure_2d(v, psi) for v in vectors]
    assert rep.sum_measures == sum(measures)
    assert rep.diagonal == sum(m - m * m for m in measures)
    assert rep.max_measure == max(measures)


@pytest.mark.parametrize("gamma", sorted(DIFF_GAMMAS))
@pytest.mark.parametrize("psi", sorted(DIFF_PSIS))
def test_integer_sums_match_bruteforce(psi, gamma):
    rng = random.Random(f"{psi} {gamma}")  # other windows per case
    psi, gamma = DIFF_PSIS[psi], DIFF_GAMMAS[gamma]
    for Q in (1, 2, 3, 5):
        vectors = [v for n in range(1, Q + 1) for v in shell(n)]
        check_against_bruteforce(variance_full(Q, psi, gamma), vectors, psi,
                                 gamma)
    all_vecs = [w for n in range(1, 7) for w in shell(n)]
    for _ in range(2):
        i, j = sorted(rng.sample(range(len(all_vecs)), 2))
        check_against_bruteforce(variance_window(all_vecs[i], all_vecs[j], psi,
                                                 gamma),
                                 all_vecs[i:j + 1], psi, gamma)
    for u, v in DIFF_WINDOWS:
        check_against_bruteforce(variance_window(u, v, psi, gamma),
                                 window_vectors(u, v), psi, gamma)


def window_vectors(u, v):
    return [w for n in range(u.norm, v.norm + 1) for w in shell(n)
            if u.order_key() <= w.order_key() <= v.order_key()]


@pytest.mark.parametrize("gamma", ["0", "sqrt2"])
@pytest.mark.parametrize("psi", ["sparse", "root"])
def test_norm_pair_sums_far_end_shells(psi, gamma):
    # (4,6), (-4,-6) on shell 6 and (-6,-9) on shell 9, whole shells 7 and 8
    # between them (psi 0 there for the sparse table); 178 vectors, so
    # fewer cases
    psi, gamma = DIFF_PSIS[psi], DIFF_GAMMAS[gamma]
    u, v = L(-4, -6), L(-6, 9)
    check_against_bruteforce(variance_window(u, v, psi, gamma),
                             window_vectors(u, v), psi, gamma)


@pytest.mark.parametrize("Q", [1, 6, 25, 64])
def test_every_pair_evaluated(Q, w_sqrt2):
    # m multipliers per direction norm n: m(m+1) signed pairs e <= d in the
    # variance, m(m-1) rows e < d in the sweep; none skipped by a threshold
    ms = [Q // n for n in range(1, Q + 1)]
    rep = variance_full(Q, PSI_ROOT, SQRT2)
    assert rep.n_overlap_evals == sum(m * (m + 1) for m in ms)
    rows, summary = vanishing_bound_sweep(Q, PSI_ROOT, w_sqrt2, SQRT2)
    assert len(rows) == summary.n_rows == sum(m * (m - 1) for m in ms)


@pytest.mark.parametrize("psi", [
    TablePsi({2: F(1, 3), 3: F(1, 7), 4: F(0), 6: F(1, 2), 9: F(1, 4),
              10: F(2, 9)}),
    PowerLaw(F(1, 4), F(1, 2)),
])
def test_one_kernel_call_per_norm_pair(psi, monkeypatch):
    # variance_full calls the kernel once per unordered pair of norms with
    # psi nonzero at both, at multipliers m/G and n/G, and never for a norm
    # where psi is 0; psi differs between norms, so rho names the norm
    Q = 12
    rho, _, _ = _lift(psi, SQRT2, DEFAULT_SCALE_BITS, Q)
    norm_of = {rho[n]: n for n in range(1, Q + 1) if rho[n]}
    assert len(norm_of) == sum(1 for n in range(1, Q + 1) if rho[n])
    calls = []

    def kernel(d, t1n, e, t2n, an, bn, u):
        calls.append((d, t1n, e, t2n))
        return overlap_1d_num(d, t1n, e, t2n, an, bn, u)

    monkeypatch.setattr(variance, "overlap_1d_num", kernel)
    variance_full(Q, psi, SQRT2)
    pairs = []
    for d, t1n, e, t2n in calls:
        m, n = norm_of[t1n], norm_of[t2n]
        assert (d, e) == (m // gcd(m, n), n // gcd(m, n))
        pairs.append((max(m, n), min(m, n)))
    support = sorted(norm_of.values())
    assert sorted(pairs) == sorted((m, n) for m in support for n in support
                                   if n <= m)
    # a window whose lower end shell has psi 0 for the table
    calls.clear()
    variance_window(L(-4, 1), L(3, -9), psi, SQRT2)
    assert calls and all(t1n and t2n for _, t1n, _, t2n in calls)



# Differential test of the sweep's integer rows against Fraction oracles.
# An analytic witness that holds for sqrt(2) (no row beyond its threshold at
# these Q), one with thresholds 1..36 that splits the rows, and a false one
# (threshold 1) under which nonzero overlaps must come out as violations.
SWEEP_WITNESSES = {
    "sqrt2": NonLiouvilleWitness(1, F(3), F(1, 2), F(1, 2), 12, analytic=True),
    "split": NonLiouvilleWitness(1, F(1, 4), F(1, 2), F(1), 12, analytic=True),
    "false": NonLiouvilleWitness(1, F(1, 1000), F(1, 2), F(1), 12,
                                 analytic=True),
}


@pytest.mark.parametrize("gamma", sorted(DIFF_GAMMAS))
@pytest.mark.parametrize("psi", sorted(DIFF_PSIS))
def test_sweep_rows_match_oracles(psi, gamma):
    psi, gamma = DIFF_PSIS[psi], DIFF_GAMMAS[gamma]
    Q = 12
    shift = as_shift(gamma)
    classes = [(n * d, n * e, d, e, rel) for n in range(1, Q + 1)
               for d in range(2, Q // n + 1) for e in range(1, d)
               for rel in ("same", "opp")]
    oracle = {}
    for q, r, d, e, rel in classes:
        sign = 1 if rel == "same" else -1
        pq, pr = eval_psi(psi, q), eval_psi(psi, r)
        bound = 4 * pq * pr + 4 * (pq / d) * gcd(d, e)
        oracle[q, r, rel] = (
            overlap_sweep_oracle(TorusSet1D(d, shift, pq),
                                 TorusSet1D(e, sign * shift, pr)), bound)
    for name, w in SWEEP_WITNESSES.items():
        rows, summary = vanishing_bound_sweep(Q, psi, w, gamma)
        assert [(r.q, r.r, r.d, r.e, r.rel) for r in rows] == classes
        ratios = [F(0)]
        for row in rows:
            ov, bound = oracle[row.q, row.r, row.rel]
            assert row.overlap == ov
            assert row.threshold == vanish_threshold(w, row.d)
            if row.r > row.threshold:
                assert row.bound is None
                assert row.status == ("zero-confirmed" if ov == 0
                                      else "VIOLATION")
            else:
                assert row.bound == bound
                assert row.status == ("bound-satisfied" if ov <= bound
                                      else "VIOLATION")
                if bound > 0:
                    ratios.append(ov / bound)
                else:
                    assert ov == 0  # psi(q) = 0: the tie ov = bound = 0
        statuses = [row.status for row in rows]
        assert summary.n_rows == len(rows)
        assert summary.n_zero_confirmed == statuses.count("zero-confirmed")
        assert summary.n_bound_satisfied == statuses.count("bound-satisfied")
        assert summary.n_violations == statuses.count("VIOLATION")
        assert summary.max_bound_ratio == max(ratios)
        _, bare = vanishing_bound_sweep(Q, psi, w, gamma, collect_rows=False)
        assert bare == summary
        if name == "false":
            assert summary.n_violations > 0
        if name == "sqrt2":
            assert summary.n_zero_confirmed == 0


def test_sweep_zero_psi_ties():
    w = SWEEP_WITNESSES["sqrt2"]
    rows, summary = vanishing_bound_sweep(6, TablePsi({}), w, SQRT2)
    assert rows and all(r.overlap == r.bound == 0 for r in rows)
    assert summary.n_bound_satisfied == len(rows)
    assert summary.max_bound_ratio == 0
    assert vanishing_bound_sweep(1, TablePsi({}), w, SQRT2) == ([],
                                                                SweepSummary())


@pytest.mark.parametrize("psi", [
    TablePsi({2: F(1, 3), 3: F(1, 7), 4: F(0), 6: F(1, 2), 9: F(1, 4),
              10: F(2, 9)}),
    PowerLaw(F(1, 4), F(1, 2)),
    Window(PowerLaw(F(1, 4), F(1, 2)), 4, 9),
], ids=["table", "root", "window"])
def test_sweep_one_kernel_call_per_norm_pair(psi, monkeypatch):
    # the sweep calls the kernel once per norm pair r < q with psi nonzero
    # at both, at direction norm 1 where (d, e) = (q, r), however many
    # classes the pair has; a pair with psi 0 at either norm has overlap 0
    # and no call.  Every row's overlap is the oracle's
    Q = 12
    rho, a, u = _lift(psi, SQRT2, DEFAULT_SCALE_BITS, Q)
    support = [n for n in range(1, Q + 1) if rho[n]]
    calls = []

    def kernel(d, t1n, e, t2n, an, bn, u):
        calls.append((d, e))
        assert (t1n, t2n, an, bn) == (rho[d], rho[e], a, a)
        return overlap_1d_num(d, t1n, e, t2n, an, bn, u)

    monkeypatch.setattr(torus, "overlap_1d_num", kernel)
    w = SWEEP_WITNESSES["split"]
    rows, summary = vanishing_bound_sweep(Q, psi, w, SQRT2)
    assert sorted(calls) == [(q, r) for q in support for r in support
                             if r < q]
    if isinstance(psi, PowerLaw):
        assert len(calls) == 66 == Q * (Q - 1) // 2
    assert summary.n_rows == len(rows) == sum(
        2 * (d - 1) for n in range(1, Q + 1) for d in range(2, Q // n + 1))
    shift = as_shift(SQRT2)
    for row in rows:
        sign = 1 if row.rel == "same" else -1
        assert row.overlap == overlap_sweep_oracle(
            TorusSet1D(row.d, shift, eval_psi(psi, row.q)),
            TorusSet1D(row.e, sign * shift, eval_psi(psi, row.r)))


# Rows and summaries of lemma3-sweep's shape (psi = 1/16 q^-1/2, Q = 25)
# under the "split" witness, which these gamma do not satisfy, so all three
# statuses occur: SHA-256 of repr(([tuple(row) ...], summary)), the rows'
# field order being d, e, r, q, threshold, overlap, bound, status, rel.
# Recorded when each row overlap was still built over L*sd*td**2 with
# L = lcm(1..Q); now it is built over lcm(d, e)*u with u = lcm(sd, td).
PSI_16 = PowerLaw(F(1, 16), F(1, 2))
SWEEP_RECORDED = {
    "sqrt2": (SQRT2, F(12, 17),
              "0cf4e14f6f56186248660e42878ad924c50bf430b2c61c5120cb908ceca848b6"),
    "sqrt7": (QuadraticSurd.sqrt(7), F(32, 41),
              "19e2206f8d4450fcdf4e52324e85890c0249d9369058da0e3382f0020bba4fba"),
    "3/7": (F(3, 7), F(2, 3),
            "1f7d1433d04e13303c7973ec4fb68359e1bfa8c577f37a5e5a13633c1b37b7de"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_RECORDED))
def test_sweep_rows_recorded(name):
    gamma, ratio, digest = SWEEP_RECORDED[name]
    w = SWEEP_WITNESSES["split"]
    rows, summary = vanishing_bound_sweep(25, PSI_16, w, gamma)
    text = repr(([tuple(row) for row in rows], summary))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert summary.max_bound_ratio == ratio
    assert vanishing_bound_sweep(25, PSI_16, w, gamma,
                                 collect_rows=False) == ([], summary)
    assert any(row.overlap == 0 for row in rows)
    for row in rows:
        assert type(row.overlap) is F
        assert (row.bound is None) == (row.r > row.threshold)
