"""Continued fractions of quadratic surds: expansion, convergents, and a
constructed expansion with Liouville-like convergent gaps for negative tests.

A surd's normal form (a, b, r, d) is already a state (P, Q, D) =
(b*a, b*r, d) of the classical integer (P + sqrt(D))/Q recurrence, with
Q | D - P^2.  ``cf_quotients`` runs that recurrence; ``cf_expand`` adds
exact period detection (the state space is finite), and the witness
fitter stops it at its last convergent.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

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


def cf_quotients(gamma: QuadraticSurd
                 ) -> Iterator[tuple[int, tuple[int, int]]]:
    """(a_i, (P, Q)) for i = 0, 1, ...: the partial quotients of an
    irrational surd, each with the state (P, Q) of the complete quotient
    (P + sqrt(D))/Q that follows it."""
    if gamma.is_rational:
        raise ValueError("continued-fraction expansion requires irrational input")
    p, q, d = gamma.b * gamma.a, gamma.b * gamma.r, gamma.d
    while True:
        ai = floor_surd(p, 1, d, q)
        p = ai * q - p
        q = (d - p * p) // q
        yield ai, (p, q)


def cf_expand(gamma: QuadraticSurd, k: int | None = None
              ) -> CFExpansion | None:
    """Exact continued-fraction expansion of an irrational quadratic surd.

    Returns the full eventually-periodic form, or None when no period shows
    within ``k`` quotients (safety valve, default 10000).
    """
    limit = 10000 if k is None else max(k, 4)
    quots: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    for ai, state in itertools.islice(cf_quotients(gamma), limit + 1):
        quots.append(ai)
        if state in seen:
            start = seen[state]
            return CFExpansion(quots[0], tuple(quots[1:start]),
                               tuple(quots[start:]))
        seen[state] = len(quots)
    return None


def cf_to_surd(cf: CFExpansion) -> QuadraticSurd:
    """Exact value of an eventually periodic continued fraction."""
    # purely periodic tail x = [b0; b1, ..., b_{m-1}, x]:
    # x = (p_{m-1} x + p_{m-2}) / (q_{m-1} x + q_{m-2}), so x is the positive
    # root (u + sqrt(D))/v of q_{m-1} x^2 + (q_{m-2} - p_{m-1}) x - p_{m-2}
    pk = convergents(cf.period[0], list(cf.period[1:]))
    p1, q1 = pk[-1]
    p0, q0 = pk[-2] if len(pk) >= 2 else (1, 0)
    u, v, D = p1 - q0, 2 * q1, (q0 - p1) ** 2 + 4 * q1 * p0
    # gamma = [a0; pre..., x] = (P x + P') / (Q x + Q') from the head's last
    # two convergents = (m + P sqrt(D)) / (n + Q sqrt(D)); rationalize once
    hk = convergents(cf.a0, list(cf.preperiod))
    P, Q = hk[-1]
    Pp, Qp = hk[-2] if len(hk) >= 2 else (1, 0)
    m, n = P * u + Pp * v, Q * u + Qp * v
    return QuadraticSurd(m * n - P * Q * D, P * n - m * Q,
                         n * n - Q * Q * D, D)


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
