"""Exact measures and pairwise overlaps of the sets

    A(d, t) = {alpha in T   : ||d*alpha - sigma|| <= t}        (1-D)
    A_q     = {alpha in T^2 : ||q.alpha  - gamma|| <= psi(|q|)} (2-D)

A(d, t) is a union of d arcs of radius t/d centered at (sigma + a)/d; with
t <= 1/2 the arcs are disjoint (up to touching endpoints), so the overlap
of two such unions is an exact sum of pairwise arc overlaps.  Lifted to
the line, the gaps between the arc centres of two unions form one
arithmetic progression with step 1/lcm(d, e), each gap standing for
gcd(d, e) arc pairs, and one arc pair overlaps in a trapezoid of four
ramps.  ``overlap_exact_1d`` sums each ramp over the progression as one
arithmetic series; the independent check ``overlap_sweep_oracle`` computes
the same measure by an endpoint sweep instead.  There is one kernel,
``overlap_1d_num``: it takes both radii and both shifts as integers over
one unit u and returns integer sums over lcm(d, e)*u, so a caller that
adds or compares many overlaps, as the variance sums and the Lemma 3 sweep
do, need not build a Fraction for each.  Those callers take u = lcm(sd,
td) for shifts over sd and radii over td, the shortest unit that holds
both (sd*td would repeat their common factor, 2**scale_bits for a
power-law psi and a surd shift, in every operand).  One call gives both
relative signs of the second set's shift, +sigma and -sigma, which every
parallel pair class needs: the two share the step and the arc radii and
differ only in where the progression of gaps starts.  ``overlap_exact_1d``
is the one Fraction form.  ``overlap_2d_grid_oracle`` estimates a 2-D
overlap from the cell centers of an R x R grid, counted exactly with one
int bitmask per grid row and set.

The kernel takes the three divisions of the radii by the step once per
call and shares them between the two signs; each sign then costs one
reduction of its start modulo the step (see ``overlap_1d_num``).

The refined parallel-overlap estimate (Lemma 3) is checked beside the
kernel, in integers over the same unit, by ``lemma3_class``: a class's
overlaps at both relative signs must be 0 beyond the vanish threshold and
at most the bound ``lemma3_bound_num`` below it.  It gives both verdicts,
so that the sweep evaluates a norm pair once for all of its classes, which
lie on both sides of the threshold; ``kglab overlap`` takes the one its
class needs.

Irrational shifts enter through their fixed-point representatives, so all
arithmetic below is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .fixedpoint import DEFAULT_SCALE_BITS, FixedPoint
from .lattice import LatticeVector, canonical
from .psifunc import HALF, ApproxFunction, eval_psi
from .surd import QuadraticSurd


def as_shift(x, scale_bits: int = DEFAULT_SCALE_BITS) -> Fraction:
    """Exact rational shift value; surds are rounded down at scale_bits."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, FixedPoint):
        return x.to_fraction()
    if isinstance(x, QuadraticSurd):
        return x.to_fraction_floor(scale_bits)
    raise TypeError(f"cannot interpret {type(x).__name__} as a torus shift")


def _as_vec(v) -> LatticeVector:
    return v if isinstance(v, LatticeVector) else LatticeVector(*v)


@dataclass(frozen=True)
class TorusSet1D:
    """{alpha in T: ||d*alpha - shift|| <= t}; measure 2t for t <= 1/2."""

    d: int
    shift: Fraction
    t: Fraction

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("frequency d must be >= 1")
        object.__setattr__(self, "shift", as_shift(self.shift))
        object.__setattr__(self, "t", Fraction(self.t))
        if not 0 <= self.t <= HALF:
            raise ValueError("radius t must lie in [0, 1/2]")

    @property
    def measure(self) -> Fraction:
        return 2 * self.t


def overlap_1d_num(d: int, t1n: int, e: int, t2n: int, an: int, bn: int,
                   u: int) -> tuple[int, int]:
    """(plus, minus): the overlap of A(d, t1n/u) shifted by an/u with
    A(e, t2n/u) shifted by bn/u, and the same with B's shift at -bn/u,
    each over lcm(d, e)*u.  Both radii and both shifts are integers over
    the one unit u, which need not be the least: a caller that holds every
    radius and shift over one u can sum these numerators without
    normalizing any of them.  With the radii over td and the shifts over
    sd, the least such unit is lcm(sd, td); it drops the factor gcd(sd, td)
    that sd*td repeats (2**scale_bits for a power-law psi and a surd
    shift), which keeps the operands half as long.

    Over CD = d*e*u the gaps between arc centres, lifted to the line, are
    Y + k*S for every k in Z, each standing for g = gcd(d, e) arc pairs,
    with S = g*u and Y = e*an -+ d*bn; both signs share the step and the
    radii R1 = t1n*e and R2 = t2n*d (t1/d and t2/e over CD).  Two arcs at
    gap y overlap in the trapezoid w(y) = r(y+A) - r(y+B) - r(y-B) +
    r(y-A), with A = R1+R2, B = R1-R2 and r = max(0, .).  Only the k <=
    k_hi = (A - Y) // S count, where the last ramp vanishes (beyond k_hi the
    four ramps cancel).  Counted down from k_hi, y = A - z - j*S (j >= 0)
    with z = (A - Y) mod S, so the remaining ramps are r(C - z - j*S) for
    C = 2A, 2R1 and 2R2, and only z depends on the sign.  Ramp C has the
    q_C + 1 nonnegative terms j = 0..q_C, q_C = (C - z) // S, which sum to
    (q_C + 1)*(C - z) - S*q_C*(q_C + 1)/2.  With (Q_C, c_C) = divmod(C, S),
    taken once for both signs, q_C = Q_C - [z > c_C]: its top term C - z
    is > -S, so q_C >= -1 (no terms).  Summed with 2A = 2R1 + 2R2, the
    three series give the overlap over CD/g = lcm(d, e)*u as
      2*(q1 - q2)*R1 + 2*(q1 - q3)*R2 - (q1 - q2 - q3 - 1)*z
        - S*(q1*(q1+1) - q2*(q2+1) - q3*(q3+1))/2.
    The sum is exact for every t in [0, 1/2]: t = 0 gives w = 0, and the
    arcs of A(d, 1/2) tile the circle.
    """
    S = gcd(d, e) * u
    R1 = t1n * e
    R2 = t2n * d
    A = R1 + R2
    Q1, c1 = divmod(2 * A, S)
    Q2, c2 = divmod(2 * R1, S)
    Q3, c3 = divmod(2 * R2, S)
    ea, db = e * an, d * bn
    # one block per sign, not a loop over Y: the loop took 4-11% longer a call
    z = (A - ea + db) % S
    q1 = Q1 - (z > c1)
    q2 = Q2 - (z > c2)
    q3 = Q3 - (z > c3)
    plus = (2 * ((q1 - q2) * R1 + (q1 - q3) * R2) - (q1 - q2 - q3 - 1) * z
            - S * ((q1 * (q1 + 1) - q2 * (q2 + 1) - q3 * (q3 + 1)) // 2))
    z = (A - ea - db) % S
    q1 = Q1 - (z > c1)
    q2 = Q2 - (z > c2)
    q3 = Q3 - (z > c3)
    minus = (2 * ((q1 - q2) * R1 + (q1 - q3) * R2) - (q1 - q2 - q3 - 1) * z
             - S * ((q1 * (q1 + 1) - q2 * (q2 + 1) - q3 * (q3 + 1)) // 2))
    return plus, minus


def over_unit(*xs: Fraction) -> tuple[list[int], int]:
    """(nums, u): u the lcm of the denominators of xs, and each x as
    nums[i]/u."""
    u = lcm(*(x.denominator for x in xs))
    return [x.numerator * (u // x.denominator) for x in xs], u


def overlap_exact_1d(A: TorusSet1D, B: TorusSet1D) -> Fraction:
    """lambda_1(A intersect B): the trapezoid overlap of each arc pair,
    summed over the arithmetic progression of arc-centre gaps as a few
    ramp series in closed form (the ``plus`` of ``overlap_1d_num``, with
    both radii and both shifts over u, the lcm of their four denominators,
    as one Fraction)."""
    (t1n, t2n, an, bn), u = over_unit(A.t, B.t, A.shift, B.shift)
    plus, _ = overlap_1d_num(A.d, t1n, B.d, t2n, an, bn, u)
    return Fraction(plus, lcm(A.d, B.d) * u)


def overlap_sweep_oracle(A: TorusSet1D, B: TorusSet1D) -> Fraction:
    """Independent overlap computation: materialize all arc endpoints on
    the circle and accumulate the jointly covered length by a sweep.

    Positions are scaled to integers over one common denominator up front,
    so the sweep itself is exact integer arithmetic.
    """
    den = 1
    for s in (A.shift.denominator * A.t.denominator * A.d,
              B.shift.denominator * B.t.denominator * B.d):
        den = den * s // gcd(den, s)

    events: list[tuple[int, int, int]] = []  # (scaled pos, dA, dB)

    def add_arcs(S: TorusSet1D, da: int, db: int) -> None:
        step = den // S.d
        center0 = S.shift.numerator * (den // S.shift.denominator) // S.d
        radius = S.t.numerator * (den // S.t.denominator) // S.d
        for a in range(S.d):
            lo = (center0 + a * step - radius) % den
            span = 2 * radius
            if span >= den:
                events.append((0, da, db))
                events.append((den, -da, -db))
                continue
            hi = lo + span
            if hi <= den:
                events.append((lo, da, db))
                events.append((hi, -da, -db))
            else:
                events.append((lo, da, db))
                events.append((den, -da, -db))
                events.append((0, da, db))
                events.append((hi - den, -da, -db))

    add_arcs(A, 1, 0)
    add_arcs(B, 0, 1)
    events.sort()

    total = 0
    depth_a = depth_b = 0
    prev = None
    i = 0
    while i < len(events):
        pos = events[i][0]
        if prev is not None and depth_a > 0 and depth_b > 0:
            total += pos - prev
        while i < len(events) and events[i][0] == pos:
            depth_a += events[i][1]
            depth_b += events[i][2]
            i += 1
        prev = pos
    return Fraction(total, den)


def measure_2d(q_vec, psi: ApproxFunction) -> Fraction:
    """lambda_2(A_q) = 2*psi(|q|)."""
    v = _as_vec(q_vec)
    return 2 * eval_psi(psi, v.norm)


def is_parallel(q_vec, r_vec) -> bool:
    q, r = _as_vec(q_vec), _as_vec(r_vec)
    return q.q1 * r.q2 - q.q2 * r.q1 == 0


def overlap_2d(q_vec, r_vec, psi: ApproxFunction, gamma,
               scale_bits: int = DEFAULT_SCALE_BITS) -> tuple[Fraction, str]:
    """lambda_2(A_q intersect A_r) with a provenance tag.

    Non-parallel pairs factor exactly into the product of measures;
    parallel pairs q = s1*d*P, r = s2*e*P (``canonical``) reduce to the 1-D
    overlap along P of A(d, psi(|q|)) shifted by s1*gamma with
    A(e, psi(|r|)) shifted by s2*gamma.
    """
    q, r = _as_vec(q_vec), _as_vec(r_vec)
    if not is_parallel(q, r):
        return measure_2d(q, psi) * measure_2d(r, psi), "independent"
    d, _, s1 = canonical(q.q1, q.q2)
    e, _, s2 = canonical(r.q1, r.q2)
    shift = as_shift(gamma, scale_bits)
    value = overlap_exact_1d(TorusSet1D(d, s1 * shift, eval_psi(psi, q.norm)),
                             TorusSet1D(e, s2 * shift, eval_psi(psi, r.norm)))
    diag = (q.q1, q.q2) in ((r.q1, r.q2), (-r.q1, -r.q2))
    return value, "diagonal" if diag else "parallel-reduced"


# -- grid oracle ---------------------------------------------------------------


def _membership_table(t: Fraction, shift: Fraction,
                      resolution: int) -> list[bool]:
    """Membership of cell centers, keyed by the residue a of
    q1*(2i+1) + q2*(2j+1) mod 2*resolution, which determines the exact
    value of ||q.center - shift||."""
    two_r = 2 * resolution
    gn, gd = shift.numerator, shift.denominator
    D = two_r * gd
    tn, td = t.numerator, t.denominator
    out = []
    for a in range(two_r):
        w = (a * gd - two_r * gn) % D
        out.append(min(w, D - w) * td <= tn * D)
    return out


def _row_masks(q: LatticeVector, t: Fraction, shift: Fraction,
               resolution: int) -> list[int]:
    """Membership of the cell centers ((2i+1)/2R, (2j+1)/2R) in A_q, R =
    resolution: entry i has bit j set when cell (i, j) lies in A_q.

    Along a row the residue q1*(2i+1) + q2*(2j+1) mod 2R steps by 2*q2, so
    it stays in one coset of g = gcd(2*q2, 2R) and repeats with period
    P = 2R/g.  Each coset's memberships, in the order the row visits them
    and repeated to at least P + R - 1 bits, hold every row of that coset
    as the R bits from the row's first residue on."""
    two_r = 2 * resolution
    member = _membership_table(t, shift, resolution)
    step = 2 * q.q2 % two_r
    g = gcd(step, two_r)
    period = two_r // g
    reps = -(-(period + resolution - 1) // period)
    repunit = ((1 << period * reps) - 1) // ((1 << period) - 1)
    patterns = []
    where = [0] * two_r  # where[a]: position of a in its coset's order
    for c0 in range(g):
        bits, a = 0, c0
        for k in range(period):
            where[a] = k
            bits |= member[a] << k
            a = (a + step) % two_r
        patterns.append(bits * repunit)
    full = (1 << resolution) - 1
    starts = ((q.q1 * (2 * i + 1) + q.q2) % two_r for i in range(resolution))
    return [patterns[a % g] >> where[a] & full for a in starts]


def _cells_cut_bound(q: LatticeVector, resolution: int) -> int:
    """Cells that can straddle the boundary of A_q at this resolution."""
    a1, a2 = abs(q.q1), abs(q.q2)
    n_lines = 2 * (a1 + a2 + 1)
    mx = max(a1, a2)
    per_line = (resolution * (a1 + a2) + mx - 1) // mx + 3
    return n_lines * per_line


def overlap_2d_grid_oracle(q_vec, r_vec, psi: ApproxFunction, gamma,
                           resolution: int,
                           scale_bits: int = DEFAULT_SCALE_BITS,
                           ) -> tuple[Fraction, Fraction]:
    """(estimate, error bound): fraction of cell centers lying in both
    sets, with a rigorous bound counting boundary-straddling cells.

    The count is exact: each row of the grid is one int bitmask per set
    (``_row_masks``), and the cells in both sets number
    sum_i popcount(mask_q[i] & mask_r[i])."""
    if resolution < 100:
        raise ValueError("resolution must be >= 100")
    q, r = _as_vec(q_vec), _as_vec(r_vec)
    shift = as_shift(gamma, scale_bits)
    masks_q = _row_masks(q, eval_psi(psi, q.norm), shift, resolution)
    masks_r = _row_masks(r, eval_psi(psi, r.norm), shift, resolution)
    count = sum((a & b).bit_count() for a, b in zip(masks_q, masks_r))
    estimate = Fraction(count, resolution ** 2)
    bound = Fraction(_cells_cut_bound(q, resolution)
                     + _cells_cut_bound(r, resolution), resolution ** 2)
    return estimate, bound


# -- the Lemma 3 check ---------------------------------------------------------


def lemma3_bound_num(pn: int, rn: int, td: int, d: int, e: int) -> int:
    """Lemma 3 overlap bound 4*psi(q)*psi(r) + 4*(psi(q)/d)*gcd(d, e) times
    d*td**2, given psi(q) = pn/td and psi(r) = rn/td (not necessarily in
    lowest terms)."""
    return 4 * pn * (rn * d + td * gcd(d, e))


def lemma3_class(d: int, pn: int, e: int, rn: int, a: int, u: int,
                 ) -> tuple[int, int, int, int, tuple[bool, bool],
                            tuple[bool, bool]]:
    """(bnum, m, same, opp, zero_ok, bound_ok): Lemma 3 for one parallel
    class, multipliers d > e along one direction with psi(q) = pn/u,
    psi(r) = rn/u and the shift a/u.

    One ``overlap_1d_num`` call gives the overlaps at the same and at the
    opposite relative sign, same and opp over m*u, m = lcm(d, e).  Where
    psi is 0 at either norm that set is a finite set of points, so both
    overlaps are 0 and no call is made.  bnum is the bound over d*u**2
    (``lemma3_bound_num``).  Each verdict is a pair (same sign, opposite
    sign): beyond the vanish threshold of d an overlap is ok iff it is 0
    (zero_ok), below it iff it is at most the bound, overlap*d*u <=
    bnum*lcm(d, e) (bound_ok).
    """
    same, opp = overlap_1d_num(d, pn, e, rn, a, a, u) if pn and rn else (0, 0)
    m = lcm(d, e)
    bnum = lemma3_bound_num(pn, rn, u, d, e)
    b_scaled = bnum * m
    du = d * u
    return (bnum, m, same, opp, (same == 0, opp == 0),
            (same * du <= b_scaled, opp * du <= b_scaled))
