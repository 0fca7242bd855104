"""Exact pairwise variance sums over sup-norm ranges and order windows,
the vanishing/bound sweep for parallel pairs, and the higher-dimensional
bound shape.

For the full range |q|, |r| <= Q the non-parallel pairs contribute their
product of measures exactly, so the variance reduces to a sum over
parallel pairs of (overlap - product).  A parallel pair q = d*v, r = e*v
(v primitive of norm p) reduces to the 1-D overlap of A(d, psi(dp)) with
A(e, psi(ep)), and that overlap depends only on the two norms m = dp and
n = ep: A(k*d, t; s) is the preimage of A(d, t; s) under the
Haar-preserving map x -> k*x, so with G = gcd(m, n) the pair's overlap is
that of multipliers m/G and n/G.  The variance is therefore one weighted
sum over unordered norm pairs, one kernel call each, ``_pair_sum``.
Whole shells weigh a pair by its number of direction classes,
sum_{p | G} 4*phi(p) = 4*G: 16*G ordered pairs per relative sign for
m > n, and 8*m on the diagonal.  An order window adds its two end shells'
vectors (the boundary) as coordinates (q1, q2); each enters by the norm,
direction and sign that ``lattice.canonical`` gives it, and its pairs
with the whole shells and with each other are counted per norm pair too.
A pair at which psi is 0 has overlap and product both 0 and is skipped.

Overlaps have one representation, integers over one denominator.  The
shift sn/sd and every psi(n), an integer over td, the lcm of the psi
denominators (``psi_table``), are lifted once to the one unit
u = lcm(sd, td) by ``_lift``.  One ``overlap_1d_num`` call gives a pair
at both relative signs, each over (m/G)*(n/G)*u.  With L = lcm(1..Q), the
variance sum scales each by L // ((m/G)*(n/G)) and multiplies the total
by u once, so that it lies over L*u**2 with the products of measures (the
measure fields are over u); ``n_overlap_evals`` counts the signed pair
overlaps from the direction-class bounds, and each report field is built
as one Fraction at the end.

The vanishing/bound sweep writes one row per class (direction norm p, d,
e) and relative sign, but its work is per norm pair too: besides the
overlaps, the Lemma 3 bound 4*psi(q)*psi(r) + 4*(psi(q)/d)*gcd(d, e) =
4*psi(q)*psi(r) + 4*psi(q)*gcd(q, r)/q depends only on q = d*p and
r = e*p.  Its one decision loop, ``sweep_classes``, takes each pair r < q
once from ``torus.lemma3_class`` at p = 1, where (d, e) = (q, r): one
kernel call, the bound (an integer over q*u**2) and, by
cross-multiplication, both verdicts, zero and bound.  Every class of the
pair reads that record and picks the verdict its threshold calls for; the
largest overlap/bound ratio is one Fraction at the end.  Its consumers
pass the converter that makes a pair's three cells once:
``vanishing_bound_sweep`` Fraction for its rows (none when it collects
none), and ``kglab lemma3-sweep`` its output cells, each reduced with no
Fraction: the powers of two are shifted off, so the one gcd runs on the
odd parts of numerator and denominator.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .fixedpoint import DEFAULT_SCALE_BITS
from .lattice import LatticeVector, canonical, shell_coords, shell_size
from .psifunc import ApproxFunction, eval_psi, psi_table
from .torus import (as_shift, lemma3_bound_num, lemma3_class, over_unit,
                    overlap_1d_num, overlap_2d)
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


def _lift(psi: ApproxFunction, gamma, scale_bits: int, q_max: int,
          ) -> tuple[list[int], int, int]:
    """(rho, a, u): the shift sn/sd and psi(n) for n <= q_max, an integer
    over td (``psi_table``), lifted to the one unit u = lcm(sd, td), so that
    the shift is a/u and psi(n) is rho[n]/u.  The overlap of multipliers d,
    e along a direction of norm p is then one ``overlap_1d_num(d,
    rho[d*p], e, rho[e*p], a, a, u)`` call, both relative signs over
    lcm(d, e)*u."""
    shift = as_shift(gamma, scale_bits)
    sd = shift.denominator
    psi_num, td = psi_table(psi, q_max)
    u = lcm(sd, td)
    lift = u // td
    return [p * lift for p in psi_num], shift.numerator * (u // sd), u


def _pair_sum(rho: list[int], a: int, u: int, L: int,
              pairs: Iterable[tuple[int, int, int, int]]) -> int:
    """Overlap sum minus product sum, over L*u**2, of the ordered parallel
    vector pairs given by norm pairs, with (rho, a, u) from ``_lift`` and L
    a multiple of every m*n/gcd(m, n)**2.

    ``pairs`` yields (m, n, c_same, c_opp): two norms, in either order, with
    psi nonzero at both, and the numbers of ordered parallel vector pairs
    of those norms (both orders counted) at the same and at the opposite
    relative sign.  Such a pair's overlap depends on (m, n) alone, so one
    ``overlap_1d_num`` call gives both signs: with G = gcd(m, n) it is that
    of multipliers m/G and n/G, over (m/G)*(n/G)*u.
    """
    ov = 0          # over L*u
    prod = 0        # sum of counted rho[m]*rho[n]
    for m, n, c_same, c_opp in pairs:
        pm, pn = rho[m], rho[n]
        g = gcd(m, n)
        m, n = m // g, n // g
        same, opp = overlap_1d_num(m, pm, n, pn, a, a, u)
        ov += (c_same * same + c_opp * opp) * (L // (m * n))
        prod += (c_same + c_opp) * pm * pn
    # a product of measures 2*psi(m) * 2*psi(n) is 4*L*rho[m]*rho[n] over
    # L*u**2
    return ov * u - 4 * L * prod


def _whole_pairs(support: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """The norm pairs m >= n of whole shells in ``support``: 4*G direction
    classes (G = gcd(m, n)) hold both norms, each class 4 ordered pairs
    per sign for m > n and 2 for m = n."""
    for i, m in enumerate(support):
        for n in support[:i]:
            w = 16 * gcd(m, n)
            yield m, n, w, w
        yield m, m, 8 * m, 8 * m


def _variance(label: str, rho: list[int], a: int, u: int, scale_bits: int,
              n_lo: int, n_hi: int, boundary: list[tuple[int, int]],
              ) -> VarianceReport:
    """Exact variance of the indicator sum over the whole shells n_lo..n_hi
    plus the explicit ``boundary`` vectors (q1, q2) (which lie outside those
    shells), with (rho, a, u) from ``_lift`` up to the largest norm.

    Every parallel pair enters as a weight on its pair of norms, summed by
    ``_pair_sum`` over the norms where psi is nonzero:
      * whole x whole: sum_{p | G} 4*phi(p) = 4*G direction classes carry
        norms m, n with G = gcd(m, n);
      * boundary x whole: a boundary vector of direction norm p pairs with
        the two vectors of each whole norm n that p divides, once per sign;
      * boundary x boundary: the ordered pairs within each direction, by
        the norms of their members and their relative sign.
    With L = lcm(1..q_max), q_max = len(rho) - 1, every term is an integer
    over L*u**2 (measures over u), so each report field is one Fraction,
    built at the end.

    ``n_overlap_evals`` counts the signed pair overlaps the sums stand for,
    from the class bounds: m(m+1) per whole direction class with m
    multipliers in range, 2m per boundary vector against the m whole
    multipliers of its direction, and k**2 per k boundary vectors of one
    direction.
    """
    def multiples(p: int) -> int:
        # multipliers d with n_lo <= d*p <= n_hi
        return max(0, n_hi // p - (n_lo - 1) // p)

    support = [n for n in range(n_lo, n_hi + 1) if rho[n]]
    evals = sum(m * (m + 1) for m in map(multiples, range(1, n_hi + 1)))

    # the boundary by canonical direction, and per end-shell norm the
    # number of its vectors of each direction norm
    by_dir: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for q1, q2 in boundary:
        g, pb, sb = canonical(q1, q2)
        by_dir.setdefault(pb, []).append((g, sb))
    dir_norms: dict[int, dict[int, int]] = {}
    inner: dict[tuple[int, int], list[int]] = {}   # (m, n) -> [same, opp]
    for (p1, p2), members in by_dir.items():
        p = max(p1, abs(p2))
        evals += len(members) * (len(members) + 2 * multiples(p))
        members = [(g * p, sb) for g, sb in members]   # (norm, sign)
        for m1, s1 in members:
            counts = dir_norms.setdefault(m1, {})
            counts[p] = counts.get(p, 0) + 1
            for m2, s2 in members:
                inner.setdefault((max(m1, m2), min(m1, m2)),
                                 [0, 0])[s1 != s2] += 1

    def boundary_pairs() -> Iterator[tuple[int, int, int, int]]:
        for m, counts in dir_norms.items():
            if rho[m]:
                for n in support:
                    w = 2 * sum(k for p, k in counts.items() if n % p == 0)
                    if w:
                        yield m, n, w, w
        for (m, n), (c_same, c_opp) in inner.items():
            if rho[m] and rho[n]:
                yield m, n, c_same, c_opp

    L = lcm(*range(1, len(rho)))
    variance = _pair_sum(rho, a, u, L, chain(_whole_pairs(support),
                                             boundary_pairs()))

    # measure sum, diagonal and max measure over u: (norm, vectors of that norm)
    sum_rho = 0
    diagonal = 0       # over u**2
    max_rho = 0
    weighted = [(n, shell_size(n)) for n in range(n_lo, n_hi + 1)]
    ends = [(m, sum(counts.values())) for m, counts in dir_norms.items()]
    for n, k in weighted + ends:
        p = rho[n]
        sum_rho += k * p
        diagonal += k * (2 * p * u - 4 * p * p)
        max_rho = max(max_rho, p)

    return VarianceReport(
        label=label,
        sum_measures=Fraction(2 * sum_rho, u),
        variance=Fraction(variance, L * u * u),
        diagonal=Fraction(diagonal, u * u),
        max_measure=Fraction(2 * max_rho, u),
        n_overlap_evals=evals,
        shift_error_bound=evals * 2.0 ** (8 - scale_bits),
    )


def variance_full(Q: int, psi: ApproxFunction, gamma,
                  scale_bits: int = DEFAULT_SCALE_BITS) -> VarianceReport:
    """Exact variance of the indicator sum over all 0 < |q| <= Q.

    Non-parallel pairs are accounted analytically (their overlap equals the
    product of measures); only parallel multiplier pairs are enumerated.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    return _variance(f"Q={Q}", *_lift(psi, gamma, scale_bits, Q), scale_bits,
                     1, Q, [])


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
                     *_lift(psi, gamma, scale_bits, v.norm), scale_bits,
                     u.norm + 1, v.norm - 1, window_boundary(u, v))


def window_boundary(u: LatticeVector, v: LatticeVector,
                    ) -> list[tuple[int, int]]:
    """(q1, q2) of the vectors w of the end shells |u| and |v| with
    u <= w <= v in the total order, in that order."""
    lo, hi = u.order_key(), v.order_key()
    return [(q1, q2) for n in sorted({u.norm, v.norm})
            for q1, q2 in shell_coords(n) if lo <= (n, q1, q2) <= hi]


def variance_bruteforce(vectors: list[LatticeVector], psi: ApproxFunction,
                        gamma, scale_bits: int = DEFAULT_SCALE_BITS,
                        ) -> Fraction:
    """All-pairs oracle: sum of overlap_2d over ordered pairs minus (sum of
    measures)^2.  The overlap is symmetric, so each unordered pair is
    evaluated once and counted twice off the diagonal."""
    total = Fraction(0)
    meas = Fraction(0)
    for i, a in enumerate(vectors):
        meas += 2 * eval_psi(psi, a.norm)
        total += overlap_2d(a, a, psi, gamma, scale_bits)[0]
        for b in vectors[:i]:
            total += 2 * overlap_2d(a, b, psi, gamma, scale_bits)[0]
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
                  cell: Callable[[int, int], object] | None = None,
                  ) -> Iterator[tuple]:
    """The sweep's one decision loop: check every parallel pair class with
    |r| < |q| <= Q against the vanishing threshold and the overlap bound,
    in both relative signs, all in integers.

    A class is (direction norm p, d, e): the overlap does not depend on
    which of the 4*phi(p) primitive directions of norm p carries the pair.
    Its overlaps and its bound depend only on the norm pair (q, r) =
    (d*p, e*p) (see the module docstring), so each pair is evaluated once,
    by ``lemma3_class`` at p = 1, where (d, e) = (q, r), and the record
    holds both overlaps, the bound and both verdicts, zero and bound.  A
    pair with gcd(q, r) >= 2 has more classes, at every p dividing it in
    increasing order; its record waits in ``pending`` until the last one,
    p = gcd(q, r) (gcd(d, e) = 1), takes it out.  Each class then only
    picks the zero verdict when r lies beyond the threshold of d, and the
    bound verdict otherwise; only a class below its threshold can raise
    the largest overlap/bound ratio.

    Each pair's three cells, bound over q*u**2 and the same-sign and
    opposite-sign overlaps over lcm(q, r)*u (u the unit lcm(sd, td) of
    ``_lift``), are converted once, by ``cell(numerator, denominator)``;
    with ``cell`` None none is made and every cell is None.  For each class
    this yields the tuple

        (d, e, r, q, threshold, bound, same, same_status, opp, opp_status)

    with the bound cell None beyond the threshold.  Once the loop is
    exhausted, ``summary`` holds the tally and the largest overlap/bound
    ratio.
    """
    if not w.analytic and w.q_max < Q:
        raise ValueError(f"witness certified only up to {w.q_max} < Q={Q}")
    rho, a, u = _lift(psi, gamma, scale_bits, Q)
    u2 = u * u
    # the threshold depends on d alone
    thresholds = [0, 0] + [vanish_threshold(w, d) for d in range(2, Q + 1)]

    def words(word: str) -> dict[tuple[bool, bool], tuple[str, str]]:
        # a (same, opp) verdict as the two statuses
        return {(s, o): (word if s else "VIOLATION", word if o else "VIOLATION")
                for s in (False, True) for o in (False, True)}

    zero_words, bound_words = words("zero-confirmed"), words("bound-satisfied")
    tally = {"zero-confirmed": 0, "bound-satisfied": 0, "VIOLATION": 0}
    best_num, best_den = 0, 1     # max ov/bound so far, as a pair
    pending: dict[tuple[int, int], tuple] = {}
    for p in range(1, Q + 1):
        for d in range(2, Q // p + 1):
            thr = thresholds[d]
            q = d * p
            for e in range(1, d):
                r = e * p
                last = gcd(d, e) == 1     # the pair's last class
                if p > 1:
                    rec = pending.pop((q, r)) if last else pending[q, r]
                else:
                    bnum, m, same, opp, zero_ok, bound_ok = lemma3_class(
                        q, rho[q], r, rho[r], a, u)
                    if cell is None:
                        sc = oc = bc = None
                    else:
                        sc, oc = cell(same, m * u), cell(opp, m * u)
                        bc = cell(bnum, q * u2)
                    zw, bw = zero_words[zero_ok], bound_words[bound_ok]
                    # ov/bound = (max(same, opp)/(m*u)) / (bnum/(q*u**2))
                    # = max(same, opp)*q*u / (bnum*m), where the factor u,
                    # common to every pair, is left out until the end
                    ratio = (max(same, opp) * q, bnum * m) if bnum else None
                    rec = (sc, oc, bc, zw, bw, ratio)
                    if not last:
                        # the ratio waits only for a class below the
                        # threshold, and this one may already be
                        pending[q, r] = (rec if r > thr
                                         else (sc, oc, bc, zw, bw, None))
                sc, oc, bc, zw, bw, ratio = rec
                if r > thr:
                    bc = None
                    s_same, s_opp = zw
                else:
                    s_same, s_opp = bw
                    if ratio and ratio[0] * best_den > best_num * ratio[1]:
                        best_num, best_den = ratio
                tally[s_same] += 1
                tally[s_opp] += 1
                yield d, e, r, q, thr, bc, sc, s_same, oc, s_opp
    summary.n_rows = sum(tally.values())
    summary.n_zero_confirmed = tally["zero-confirmed"]
    summary.n_bound_satisfied = tally["bound-satisfied"]
    summary.n_violations = tally["VIOLATION"]
    summary.max_bound_ratio = Fraction(best_num * u, best_den)


def vanishing_bound_sweep(Q: int, psi: ApproxFunction, w: NonLiouvilleWitness,
                          gamma, scale_bits: int = DEFAULT_SCALE_BITS,
                          collect_rows: bool = True,
                          ) -> tuple[list[SweepRow], SweepSummary]:
    """The rows and summary of ``sweep_classes``: two ``SweepRow``s per
    class, same sign first, each overlap and bound a Fraction.  With
    ``collect_rows`` False the loop runs for its summary only and no cell
    is made.
    """
    summary = SweepSummary()
    classes = sweep_classes(Q, psi, w, gamma, scale_bits, summary,
                            Fraction if collect_rows else None)
    rows: list[SweepRow] = []
    if not collect_rows:
        for _ in classes:
            pass
        return rows, summary
    for d, e, r, q, thr, bound, same, s_same, opp, s_opp in classes:
        rows.append(SweepRow(d, e, r, q, thr, same, bound, s_same, "same"))
        rows.append(SweepRow(d, e, r, q, thr, opp, bound, s_opp, "opp"))
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
    (pn, rn), td = over_unit(eval_psi(psi, q), eval_psi(psi, r))
    base = Fraction(lemma3_bound_num(pn, rn, td, q, r), q * td * td)
    return HighDimBound(base=base, m=m, value=base ** m)
