"""Irrationality-measure witnesses: ||q*gamma|| >= 1/(c*q^eta) certificates.

A witness is fitted at convergent denominators (the minima of
q -> q^eta * ||q*gamma|| over any range occur there, by the
best-approximation property) plus an exhaustive sweep over small q; the
continued fraction is run only up to the last convergent in range.  Each
checked q needs c > 1/(q^eta * ||q*gamma||), an irrational number, so the
least power of two that serves it comes from one integer,
X_q = floor(1/||q*gamma||), taken with two exact floors
(``surd.floor_surd``); each eta is then one pass of integer divisions.
For quadratic surds an analytic certificate valid for *all* q is derived
from the minimal polynomial and reported alongside.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cfrac import CFExpansion, cf_quotients, cf_to_surd
from .psifunc import ApproxFunction, integer_nth_root, unwrap_power_law
from .surd import QuadraticSurd, floor_surd

ETA_MAX_DEFAULT = 10
C_MAX_DEFAULT = 1 << 64
EXHAUSTIVE_Q = 100


@dataclass(frozen=True)
class NonLiouvilleWitness:
    """(eta, c) with ||q*gamma|| >= 1/(c*q^eta) for all 1 <= q <= q_max,
    together with (C, epsilon) bounding psi(q) <= min{C/q^epsilon, 1/2}."""

    eta: int
    c: Fraction
    C: Fraction
    epsilon: Fraction
    q_max: int
    analytic: bool = False  # True: certificate covers all q, not just q <= q_max

    def __post_init__(self) -> None:
        if self.eta < 1 or self.c <= 0 or self.C <= 0 or self.epsilon <= 0:
            raise ValueError("witness parameters must be positive (eta >= 1)")

    @property
    def M(self) -> int:
        """floor((eta + 1) / epsilon)."""
        return int(Fraction(self.eta + 1) / self.epsilon)

    @property
    def K(self) -> Fraction:
        """(2*C*c)**(1/epsilon) + 1, exact when 1/epsilon is an integer;
        otherwise the smallest 96-bit dyadic upper bound (reporting only)."""
        base = 2 * self.C * self.c
        en, ed = self.epsilon.numerator, self.epsilon.denominator
        if en == 1:
            return base ** ed + 1
        powed = base ** ed
        scale = 1 << 96
        root = integer_nth_root(powed.numerator * scale ** en // powed.denominator,
                                en) + 1
        return Fraction(root, scale) + 1


@dataclass(frozen=True)
class WitnessFitFailure:
    """No (eta <= eta_max, c <= c_max) certificate fits the checked range:
    Liouville-like behavior at this range."""

    eta_max: int
    c_max: int
    q_max: int
    worst_q: int  # checked q defeating even (eta_max, c_max)

    def __bool__(self) -> bool:
        return False


def vanish_threshold(w: NonLiouvilleWitness, d: int) -> int:
    """ceil(d**((eta+1)/epsilon) * (2*C*c)**(1/epsilon)): parallel overlaps
    whose smaller norm exceeds this value are provably zero."""
    if d < 1:
        raise ValueError("d must be >= 1")
    en, ed = w.epsilon.numerator, w.epsilon.denominator
    base = 2 * w.C * w.c
    # threshold^en = d^((eta+1)*ed) * base^ed; take the exact integer ceiling
    num = d ** ((w.eta + 1) * ed) * base.numerator ** ed
    den = base.denominator ** ed
    m = integer_nth_root(num // den, en)
    while m ** en * den < num:
        m += 1
    return m


def _read_C_epsilon(psi: ApproxFunction) -> tuple[Fraction, Fraction]:
    core = unwrap_power_law(psi)
    if core is None:
        raise ValueError(
            "witness fitting reads (C, epsilon) off a power-law family psi"
        )
    if core.a <= 0:
        raise ValueError("psi must decay: power-law exponent a > 0 required")
    return core.c0, core.a


def _gamma_to_surd(gamma: QuadraticSurd | CFExpansion) -> QuadraticSurd:
    if isinstance(gamma, CFExpansion):
        return cf_to_surd(gamma)
    return gamma


def check_points(gamma: QuadraticSurd, q_max: int) -> list[int]:
    """Convergent denominators <= q_max plus the exhaustive small-q guard."""
    qs = set(range(1, min(EXHAUSTIVE_Q, q_max) + 1))
    q_prev, q = 0, 1
    for a, _ in itertools.islice(cf_quotients(gamma), 1, None):
        q, q_prev = a * q + q_prev, q
        if q > q_max:
            break
        qs.add(q)
    return sorted(qs)


def _inverse_dist_floor(gamma: QuadraticSurd, q: int) -> int:
    """floor(1/||q*gamma||) for irrational gamma and q >= 1.

    With p the nearest integer to x = q*gamma (floor(2x + 1) is 2p + 1
    when x > p and 2p when x < p), ||x|| = s*(u + v*sqrt(d))/r with
    u = qa - pr, v = qb and s = +-1; its reciprocal, rationalized, is
    s*r*(u - v*sqrt(d)) / (u^2 - v^2 d).
    """
    a, v, r, d = gamma.a * q, gamma.b * q, gamma.r, gamma.d
    m = floor_surd(2 * a + r, 2 * v, d, r)
    s = 1 if m & 1 else -1
    u = a - (m >> 1) * r
    return floor_surd(s * r * u, -s * r * v, d, u * u - v * v * d)


def analytic_witness_c(gamma: QuadraticSurd) -> Fraction:
    """c with ||q*gamma|| >= 1/(c*q) for all q >= 1, from the minimal
    polynomial A x^2 + B x + C of gamma:

        |A p^2 + B p q + C q^2| >= 1  and factoring over the conjugate root
        give ||q*gamma|| >= 1 / (A q (|gamma - gamma'| + 1/2)).
    """
    if gamma.is_rational:
        raise ValueError("analytic witness requires an irrational surd")
    A = gamma.r // 2
    # ceil(|gamma - gamma'|) = ceil(sqrt(d)/A); the argument is irrational,
    # so floor + 1 is the exact ceiling
    spread_ceil = floor_surd(0, 1, gamma.d, A) + 1
    return Fraction(A * (spread_ceil + 1))


def fit_witness(gamma: QuadraticSurd | CFExpansion, psi: ApproxFunction,
                q_max: int, eta_max: int = ETA_MAX_DEFAULT,
                c_max: int = C_MAX_DEFAULT,
                ) -> NonLiouvilleWitness | WitnessFitFailure:
    """Smallest eta, then smallest power-of-two c <= c_max, certifying the
    range.

    Validity is decided exactly at convergent denominators <= q_max and
    exhaustively for q <= 100; an intermediate q violating the bound would
    force a violating convergent, so the checked points cover the whole
    range.  With x = 1/||q*gamma|| (irrational), q needs
    c >= x/q^eta, and the least power of two doing that is
    1 << floor(x/q^eta).bit_length(), where floor(x/q^eta) =
    floor(x) // q^eta: one integer per point, one division per point and
    eta, and c is the largest need.  A failure names the first point
    whose need at eta_max exceeds c_max.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    if eta_max < 1:
        raise ValueError("eta_max must be >= 1")
    if c_max < 1:
        raise ValueError("c_max must be >= 1")
    surd = _gamma_to_surd(gamma)
    if surd.is_rational:
        raise ValueError("gamma must be irrational")
    Cpsi, eps = _read_C_epsilon(psi)
    inverses = [(q, _inverse_dist_floor(surd, q))
                for q in check_points(surd, q_max)]

    for eta in range(1, eta_max + 1):
        needs = [1 << (x // q ** eta).bit_length() for q, x in inverses]
        c = max(needs)
        if c <= c_max:
            return NonLiouvilleWitness(eta=eta, c=Fraction(c), C=Cpsi,
                                       epsilon=eps, q_max=q_max)
    worst = next(q for (q, _), need in zip(inverses, needs) if need > c_max)
    return WitnessFitFailure(eta_max=eta_max, c_max=c_max, q_max=q_max,
                             worst_q=worst)


def analytic_witness(gamma: QuadraticSurd, psi: ApproxFunction,
                     q_max: int) -> NonLiouvilleWitness:
    """Witness with eta = 1 valid for every q (quadratic surds only)."""
    Cpsi, eps = _read_C_epsilon(psi)
    return NonLiouvilleWitness(eta=1, c=analytic_witness_c(gamma), C=Cpsi,
                               epsilon=eps, q_max=q_max, analytic=True)
