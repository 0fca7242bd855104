"""Exact pairwise variance sums over sup-norm ranges and order windows,
the vanishing/bound sweep for parallel pairs, and the higher-dimensional
bound shape.

For the full range |q|, |r| <= Q the non-parallel pairs contribute their
product of measures exactly, so the variance reduces to a sum over
parallel pairs of (overlap - product).  Parallel pairs are grouped by
primitive direction; all 4*phi(n) direction classes of norm n share the
same multiplier table, so each (n, d, e, sign) overlap is evaluated once.
An order window is the same sum over its whole shells plus the vectors of
its two end shells, so both go through one core, ``_variance``.

Overlaps have one representation, integers over one denominator.  The
shift sn/sd and every psi(n), an integer over td, the lcm of the psi
denominators (``psi_table``), are lifted once to the one unit
u = lcm(sd, td).  Every class needs its pair at both relative signs: one
``overlap_1d_num`` call gives both, each over lcm(d, e)*u.  With
L = lcm(1..Q), the variance loops scale each by L // lcm(d, e) where they
sum it, multiply the sum by u once per class or boundary term, so that it
lies over L*u**2 with the products of measures (the measure fields are
over u), count ``n_overlap_evals`` from their own bounds and build each
report field as one Fraction at the end.  The sweep takes each overlap as
the kernel gives it and compares it with its Lemma 3 bound (an integer
over d*u**2) by cross-multiplication.
Its one decision loop, ``sweep_classes``, yields these numerators and
denominators per class and builds one Fraction, the largest overlap/bound
ratio.  Two consumers format them: ``vanishing_bound_sweep`` as
Fraction-valued rows, and ``kglab lemma3-sweep`` as output cells, each
reduced with no Fraction: the powers of two are shifted off, so the one
gcd runs on the odd parts of numerator and denominator.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .fixedpoint import DEFAULT_SCALE_BITS
from .lattice import LatticeVector, phi, shell_coords, shell_size
from .psifunc import ApproxFunction, eval_psi, psi_table
from .torus import (as_shift, lemma3_bound, lemma3_bound_num, overlap_1d_num,
                    overlap_2d)
from .witness import NonLiouvilleWitness, vanish_threshold


@dataclass(frozen=True)
class VarianceReport:
    """Measure sum, variance and the variance decomposition."""

    label: str
    sum_measures: Fraction
    variance: Fraction
    diagonal: Fraction          # sum over vectors of (measure - measure^2)
    max_measure: Fraction
    n_overlap_evals: int
    shift_error_bound: float    # evals * 2^(8 - scale_bits)

    @property
    def sum_pair_overlaps(self) -> Fraction:
        return self.variance + self.sum_measures ** 2

    @property
    def parallel_offdiag(self) -> Fraction:
        return self.variance - self.diagonal

    @property
    def nonparallel(self) -> Fraction:
        """Identically 0 (independence of non-parallel pairs)."""
        return Fraction(0)

    @property
    def ratio(self) -> Fraction:
        if self.sum_measures == 0:
            return Fraction(0)
        return self.variance / self.sum_measures

    def json_dict(self) -> dict:
        return {
            "label": self.label,
            "sum_pair_overlaps": str(self.sum_pair_overlaps),
            "sum_measures": str(self.sum_measures),
            "variance": str(self.variance),
            "ratio": float(self.ratio),
            "diagonal": str(self.diagonal),
            "parallel_offdiag": str(self.parallel_offdiag),
            "nonparallel": str(self.nonparallel),
            "max_measure": str(self.max_measure),
            "n_overlap_evals": self.n_overlap_evals,
            "shift_error_bound": self.shift_error_bound,
        }


class _PairEngine:
    """The shared data of the 1-D overlaps of parallel multiplier pairs,
    in integers over one unit.

    With the shift sn/sd and psi(n) for n <= q_max the integer psi_num[n]
    over one common denominator td (``psi_table``), both are lifted once to
    the unit ``u`` = lcm(sd, td): the shift is the integer ``a`` over u and
    psi(n) is ``rho[n]`` over u.  The overlap of multipliers d, e along a
    direction of norm p (the value depends only on the norms) is one
    ``overlap_1d_num(d, rho[d*p], e, rho[e*p], a, a, u)`` call, both
    relative signs over lcm(d, e)*u.  The sweep compares these as they are;
    a variance report's loops scale each by L // lcm(d, e), with
    L = lcm(1..q_max), and their sum by u, to ``den`` = L*u**2, the one
    denominator of the report's sums.  A product of measures
    2*psi(m) * 2*psi(n) is 4*L*rho[m]*rho[n] over ``den``.
    """

    def __init__(self, psi: ApproxFunction, gamma, scale_bits: int,
                 q_max: int) -> None:
        shift = as_shift(gamma, scale_bits)
        sd = shift.denominator
        psi_num, td = psi_table(psi, q_max)
        self.u = lcm(sd, td)
        self.a = shift.numerator * (self.u // sd)
        lift = self.u // td
        self.rho = [p * lift for p in psi_num]
        self.L = lcm(*range(1, q_max + 1))
        self.den = self.L * self.u ** 2
        self.scale_bits = scale_bits


def _class_sums(engine: _PairEngine, np_: int, d_lo: int, d_hi: int) -> int:
    """Overlap sum minus product sum, over ``engine.den``, of all ordered
    signed multiplier pairs of one direction class with multipliers in
    [d_lo, d_hi]."""
    rho, a, u, L = engine.rho, engine.a, engine.u, engine.L
    ov = 0          # over L*u
    rho_sum = 0
    for d in range(d_lo, d_hi + 1):
        pd = rho[d * np_]
        rho_sum += pd
        for e in range(d_lo, d + 1):
            same, opp = overlap_1d_num(d, pd, e, rho[e * np_], a, a, u)
            both = (same + opp) * (L // lcm(d, e))
            ov += 2 * both if d == e else 4 * both
    # the class's measure sum is 4*rho_sum/u (two signs, measure 2*psi)
    return ov * u - 16 * L * rho_sum * rho_sum


def _variance(label: str, engine: _PairEngine, n_lo: int, n_hi: int,
              boundary: list[LatticeVector]) -> VarianceReport:
    """Exact variance of the indicator sum over the whole shells n_lo..n_hi
    plus the explicit ``boundary`` vectors (which lie outside those shells).

    Whole shells are grouped by direction class; each boundary vector is
    paired with the whole shells and with every boundary vector.  Every
    term is an integer over ``engine.den`` (measures over ``engine.u``),
    so each report field is one Fraction, built at the end.

    ``n_overlap_evals`` counts the signed pair overlaps the sums take, from
    the loop bounds: m(m+1) per whole direction class with m multipliers in
    range, 2m per boundary vector against the m whole multipliers of its
    direction, and k**2 per k boundary vectors of one direction.
    """
    def d_range(np_: int) -> tuple[int, int]:
        # multipliers d with n_lo <= d*np_ <= n_hi
        return -(-n_lo // np_), n_hi // np_

    rho, a, u, L = engine.rho, engine.a, engine.u, engine.L

    # whole x whole, grouped by direction class
    variance = 0
    evals = 0
    for np_ in range(1, n_hi + 1):
        d_lo, d_hi = d_range(np_)
        if d_lo <= d_hi:
            variance += 4 * phi(np_) * _class_sums(engine, np_, d_lo, d_hi)
            m = d_hi - d_lo + 1
            evals += m * (m + 1)

    # boundary x whole (ordered pairs, hence factor 2)
    by_dir: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for b in boundary:
        pb, sb = b.canonical_direction()
        by_dir.setdefault(pb, []).append((b.g, sb))
        np_ = max(abs(pb[0]), abs(pb[1]))
        d_lo, d_hi = d_range(np_)
        whole = range(d_lo, d_hi + 1)
        pb = rho[b.norm]
        cross = 0   # over L*u
        rho_sum = 0
        for e in whole:
            pe = rho[e * np_]
            same, opp = overlap_1d_num(b.g, pb, e, pe, a, a, u)
            cross += (same + opp) * (L // lcm(b.g, e))
            rho_sum += pe
        evals += 2 * len(whole)
        # lambda_b * (both signs of e) = 2*psi_b * 2 * 2*psi_e
        variance += 2 * (cross * u - 8 * L * pb * rho_sum)

    # boundary x boundary (all ordered pairs, including b with itself)
    for pb, members in by_dir.items():
        np_ = max(abs(pb[0]), abs(pb[1]))
        evals += len(members) ** 2
        for d1, s1 in members:
            p1 = rho[d1 * np_]
            for d2, s2 in members:
                p2 = rho[d2 * np_]
                same, opp = overlap_1d_num(d1, p1, d2, p2, a, a, u)
                ov = (same if s1 == s2 else opp) * (L // lcm(d1, d2))
                variance += ov * u - 4 * L * p1 * p2

    # measure sum, diagonal and max measure over u: (norm, vectors of that norm)
    sum_rho = 0
    diagonal = 0       # over u**2
    max_rho = 0
    weighted = [(n, shell_size(n)) for n in range(n_lo, n_hi + 1)]
    for n, k in weighted + [(b.norm, 1) for b in boundary]:
        p = rho[n]
        sum_rho += k * p
        diagonal += k * (2 * p * u - 4 * p * p)
        max_rho = max(max_rho, p)

    return VarianceReport(
        label=label,
        sum_measures=Fraction(2 * sum_rho, u),
        variance=Fraction(variance, engine.den),
        diagonal=Fraction(diagonal, u * u),
        max_measure=Fraction(2 * max_rho, u),
        n_overlap_evals=evals,
        shift_error_bound=evals * 2.0 ** (8 - engine.scale_bits),
    )


def variance_full(Q: int, psi: ApproxFunction, gamma,
                  scale_bits: int = DEFAULT_SCALE_BITS) -> VarianceReport:
    """Exact variance of the indicator sum over all 0 < |q| <= Q.

    Non-parallel pairs are accounted analytically (their overlap equals the
    product of measures); only parallel multiplier pairs are enumerated.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return _variance(f"Q={Q}", _PairEngine(psi, gamma, scale_bits, Q), 1, Q, [])


def variance_window(u: LatticeVector, v: LatticeVector, psi: ApproxFunction,
                    gamma, scale_bits: int = DEFAULT_SCALE_BITS,
                    ) -> VarianceReport:
    """Exact variance of the indicator sum over the order window u..v
    (inclusive) of the total order (norm, q1, q2).

    The shells strictly between |u| and |v| are whole; the vectors of the
    end shells that fall inside the window are the boundary.
    """
    u, v = LatticeVector(*u), LatticeVector(*v)
    if u.order_key() > v.order_key():
        raise ValueError("need u before v in the total order")
    return _variance(f"window[{u.q1},{u.q2}..{v.q1},{v.q2}]",
                     _PairEngine(psi, gamma, scale_bits, v.norm),
                     u.norm + 1, v.norm - 1, window_boundary(u, v))


def window_boundary(u: LatticeVector, v: LatticeVector,
                    ) -> list[LatticeVector]:
    """The vectors w of the end shells |u| and |v| with u <= w <= v in the
    total order, in that order.  Each key (n, q1, q2) is compared before
    its vector is built."""
    lo, hi = u.order_key(), v.order_key()
    return [LatticeVector(q1, q2) for n in sorted({u.norm, v.norm})
            for q1, q2 in shell_coords(n) if lo <= (n, q1, q2) <= hi]


def variance_bruteforce(vectors: list[LatticeVector], psi: ApproxFunction,
                        gamma, scale_bits: int = DEFAULT_SCALE_BITS,
                        ) -> Fraction:
    """All-pairs oracle: sum of overlap_2d minus (sum of measures)^2."""
    total = Fraction(0)
    meas = Fraction(0)
    for a in vectors:
        meas += 2 * eval_psi(psi, a.norm)
        for b in vectors:
            total += overlap_2d(a, b, psi, gamma, scale_bits)[0]
    return total - meas ** 2


# -- the vanishing/bound sweep ---------------------------------------------------


class SweepRow(NamedTuple):
    d: int
    e: int
    r: int
    q: int
    threshold: int
    overlap: Fraction
    bound: Fraction | None
    status: str  # zero-confirmed | bound-satisfied | VIOLATION
    rel: str     # same | opp


@dataclass
class SweepSummary:
    n_rows: int = 0
    n_zero_confirmed: int = 0
    n_bound_satisfied: int = 0
    n_violations: int = 0
    max_bound_ratio: Fraction = Fraction(0)

    def ok(self) -> bool:
        return self.n_violations == 0


def sweep_classes(Q: int, psi: ApproxFunction, w: NonLiouvilleWitness,
                  gamma, scale_bits: int, summary: SweepSummary,
                  ) -> Iterator[tuple]:
    """The sweep's one decision loop: check every parallel pair class with
    |r| < |q| <= Q against the vanishing threshold and the overlap bound,
    in both relative signs, all in integers.

    A class is (direction norm, d, e): the overlap does not depend on which
    of the 4*phi(n) primitive directions of norm n carries the pair.  For
    each class this yields the tuple

        (d, e, r, q, threshold, bnum, bden, oden,
         same, same_status, opp, opp_status)

    with the bound bnum/bden = bnum/(d*u**2), bnum None beyond the
    threshold, and the same-sign and opposite-sign overlaps same/oden and
    opp/oden, oden = lcm(d, e)*u, neither fraction reduced, where u is the
    engine's unit lcm(sd, td).  Once the loop is exhausted, ``summary``
    holds the tally and the largest overlap/bound ratio.
    """
    if not w.analytic and w.q_max < Q:
        raise ValueError(f"witness certified only up to {w.q_max} < Q={Q}")
    engine = _PairEngine(psi, gamma, scale_bits, Q)
    rho, a, u = engine.rho, engine.a, engine.u
    u2 = u * u
    # the threshold depends on d alone
    thresholds = [0, 0] + [vanish_threshold(w, d) for d in range(2, Q + 1)]
    tally = {"zero-confirmed": 0, "bound-satisfied": 0, "VIOLATION": 0}
    best_num, best_den = 0, 1     # max ov/bound so far, as a pair
    for np_ in range(1, Q + 1):
        for d in range(2, Q // np_ + 1):
            thr = thresholds[d]
            q_norm = d * np_
            pn = rho[q_norm]
            bden = d * u2
            du = d * u
            for e in range(1, d):
                r_norm = e * np_
                # ov = raw/(m*u) with m = lcm(d, e) and bound =
                # bnum/(d*u**2), so ov <= bound  <=>  raw*d*u <= bnum*m
                m = lcm(d, e)
                same, opp = overlap_1d_num(d, pn, e, rho[r_norm], a, a, u)
                if r_norm > thr:
                    bnum = None
                    s_same = "zero-confirmed" if same == 0 else "VIOLATION"
                    s_opp = "zero-confirmed" if opp == 0 else "VIOLATION"
                else:
                    bnum = lemma3_bound_num(pn, rho[r_norm], u, d, e)
                    b_scaled = bnum * m
                    s_same = ("bound-satisfied" if same * du <= b_scaled
                              else "VIOLATION")
                    s_opp = ("bound-satisfied" if opp * du <= b_scaled
                             else "VIOLATION")
                    n_scaled = max(same, opp) * du
                    if bnum > 0 and n_scaled * best_den > best_num * b_scaled:
                        best_num, best_den = n_scaled, b_scaled
                tally[s_same] += 1
                tally[s_opp] += 1
                yield (d, e, r_norm, q_norm, thr, bnum, bden, m * u,
                       same, s_same, opp, s_opp)
    summary.n_rows = sum(tally.values())
    summary.n_zero_confirmed = tally["zero-confirmed"]
    summary.n_bound_satisfied = tally["bound-satisfied"]
    summary.n_violations = tally["VIOLATION"]
    summary.max_bound_ratio = Fraction(best_num, best_den)


def vanishing_bound_sweep(Q: int, psi: ApproxFunction, w: NonLiouvilleWitness,
                          gamma, scale_bits: int = DEFAULT_SCALE_BITS,
                          collect_rows: bool = True,
                          ) -> tuple[list[SweepRow], SweepSummary]:
    """The rows and summary of ``sweep_classes``: two ``SweepRow``s per
    class, same sign first, each overlap and bound a Fraction.  With
    ``collect_rows`` False the loop runs for its summary only and no row
    Fraction is built.
    """
    summary = SweepSummary()
    classes = sweep_classes(Q, psi, w, gamma, scale_bits, summary)
    rows: list[SweepRow] = []
    if not collect_rows:
        for _ in classes:
            pass
        return rows, summary
    zero = Fraction(0)
    for d, e, r, q, thr, bnum, bden, oden, same, s_same, opp, s_opp in classes:
        bound = None if bnum is None else Fraction(bnum, bden)
        rows.append(SweepRow(d, e, r, q, thr,
                             Fraction(same, oden) if same else zero,
                             bound, s_same, "same"))
        rows.append(SweepRow(d, e, r, q, thr,
                             Fraction(opp, oden) if opp else zero,
                             bound, s_opp, "opp"))
    return rows, summary


# -- higher-dimensional bound shape ----------------------------------------------


@dataclass(frozen=True)
class HighDimBound:
    base: Fraction    # 4 psi(q) psi(r) + 4 (psi(q)/q) gcd(q, r)
    m: int
    value: Fraction   # base ** m


def highdim_bound_check(q: int, r: int, psi: ApproxFunction, m: int,
                        ) -> HighDimBound:
    """Evaluate (4 psi(q) psi(r) + 4 (psi(q)/q) (q,r))**m exactly.

    Only the bound's right side: exact overlaps in dimension m >= 2 are out
    of scope here."""
    if not r < q:
        raise ValueError("need r < q")
    if m < 1:
        raise ValueError("m must be >= 1")
    base = lemma3_bound(eval_psi(psi, q), eval_psi(psi, r), q, r)
    return HighDimBound(base=base, m=m, value=base ** m)
