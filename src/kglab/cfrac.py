"""Continued fractions of quadratic surds: expansion, convergents, and a
constructed expansion with Liouville-like convergent gaps for negative tests.

The expansion of a quadratic surd is computed with the classical integer
(P + sqrt(D))/Q recurrence; the state space is finite, so the periodic part
is detected exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surd import QuadraticSurd, floor_surd


@dataclass(frozen=True)
class CFExpansion:
    """[a0; preperiod..., (period...) repeating]; period must be nonempty."""

    a0: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty (irrational numbers only)")
        for a in self.preperiod + self.period:
            if a < 1:
                raise ValueError("partial quotients must be positive")

    def quotients(self, k: int) -> list[int]:
        """a_1 .. a_k."""
        if k < 0:
            raise ValueError("need k >= 0")
        out = list(self.preperiod)
        while len(out) < k:
            out.extend(self.period)
        return out[:k]

    def describe(self) -> str:
        pre = ",".join(map(str, (self.a0,) + self.preperiod))
        per = ",".join(map(str, self.period))
        return f"cf:{pre};{per}"


def convergents(a0: int, quotients: list[int]) -> list[tuple[int, int]]:
    """(p_k, q_k) for k = 0..len(quotients), from the standard recurrence."""
    p_prev, q_prev = 1, 0
    p, q = a0, 1
    out = [(p, q)]
    for a in quotients:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


def cf_expand(gamma: QuadraticSurd, k: int | None = None) -> CFExpansion:
    """Exact continued-fraction expansion of an irrational quadratic surd.

    Returns the full eventually-periodic form; ``k`` bounds the number of
    quotients computed before giving up (safety valve, default 10000).
    """
    if gamma.is_rational:
        raise ValueError("continued-fraction expansion requires irrational input")
    limit = 10000 if k is None else max(k, 4)

    # Rewrite (a + b sqrt d)/r as (P + sqrt D)/Q with b absorbed and
    # Q | (D - P^2), the invariant the recurrence preserves.
    a, b, r, d = gamma.a, gamma.b, gamma.r, gamma.d
    if b > 0:
        p_state, q_state, dd = a, r, d * b * b
    else:
        p_state, q_state, dd = -a, -r, d * b * b
    if (dd - p_state * p_state) % q_state != 0:
        scale = abs(q_state)
        p_state, q_state, dd = p_state * scale, q_state * scale, dd * scale * scale

    quots: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    a0 = 0
    for i in range(limit + 1):
        ai = floor_surd(p_state, 1, dd, q_state)
        if i == 0:
            a0 = ai
        else:
            quots.append(ai)
        p_state = ai * q_state - p_state
        q_state = (dd - p_state * p_state) // q_state
        key = (p_state, q_state)
        if key in seen:
            start = seen[key]
            return CFExpansion(a0, tuple(quots[:start]), tuple(quots[start:]))
        seen[key] = len(quots)
    raise RuntimeError(f"no period detected within {limit} quotients")


def cf_to_surd(cf: CFExpansion) -> QuadraticSurd:
    """Exact value of an eventually periodic continued fraction."""
    # purely periodic tail x = [b0; b1, ..., b_{m-1}, x]:
    # x = (p_{m-1} x + p_{m-2}) / (q_{m-1} x + q_{m-2})
    pk = convergents(cf.period[0], list(cf.period[1:]))
    p1, q1 = pk[-1]
    p0, q0 = pk[-2] if len(pk) >= 2 else (1, 0)
    disc = (q0 - p1) ** 2 + 4 * q1 * p0
    x = QuadraticSurd(p1 - q0, 1, 2 * q1, disc)  # positive root (x >= 1)
    for a in reversed(cf.preperiod):
        x = x.reciprocal().add_fraction(Fraction(a))
    return x.reciprocal().add_fraction(Fraction(cf.a0))


LIOUVILLE_BOOST = 1 << 80


def make_liouville(levels: int) -> CFExpansion:
    """Expansion whose early convergents have Liouville-like gaps.

    Quotients a_1 = 2 and a_k = 2**80 * q_{k-1}**k for 2 <= k <= levels,
    followed by an ordinary tail of 2s.  For each installed level k >= 2 the
    convergent q_{k-1} satisfies ||q_{k-1} gamma|| < 2**-80 * q_{k-1}**-k,
    which defeats every witness (eta <= k, c <= 2**64) at that convergent;
    one level installs no constraint, since ||q gamma|| < 1/q holds at
    convergents of every irrational.  Denominators grow doubly
    exponentially, so levels is capped at 8.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > 8:
        raise ValueError("levels > 8 produces astronomically large quotients")
    quots = [2]
    for k in range(2, levels + 1):
        q = convergents(0, quots)[-1][1]  # q_{k-1}
        quots.append(LIOUVILLE_BOOST * q ** k)
    return CFExpansion(0, tuple(quots), (2,))
