"""Exact per-shell counting for the lattice sweep.

The membership test ``||q1*a1 + q2*a2 - gamma|| <= psi(max(|q1|,|q2|))`` is
integer arithmetic on mantissas mod M = 2**scale_bits: a vector with
v = (q1*m1 + q2*m2 - mg) mod M scores [v <= T] + [v >= M - T and T > 0]
against its shell threshold T, so a tie v = M/2 = T counts twice.
``count_by_shell_raw`` counts each shell from four arithmetic
progressions and returns the counts as a ``list[int]``.  A progression's
score is one count of the terms that fall in an interval mod M, and
``chain_interval_count`` takes it in one Euclid-like walk whose moduli
depend only on the step; every progression of a trial steps by m1 or m2,
so ``moduli_chain`` builds the two chains once per trial: O(Q log M)
big-integer steps.  ``count_python`` walks every vector and is the oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def moduli_chain(m: int, a: int) -> list[tuple[int, int]]:
    """The moduli (m, a), (a, m mod a), ... of the Euclid walk from
    0 <= a < m, up to and including the first pair with a = 0, where every
    walk of ``chain_interval_count`` returns."""
    chain = [(m, a)]
    while a:
        m, a = a, m % a
        chain.append((m, a))
    return chain


def chain_interval_count(chain: list[tuple[int, int]], n: int, b: int,
                         c: int) -> int:
    """#{0 <= k <= n : (a*k + b) mod m < c} for 0 <= b < m, 0 <= c <= m and
    n >= 0, where (m, a) starts ``chain``.

    The values a*k + b pass windows [j*m, j*m + c), j = 0..J with
    J = (a*n + b) // m.  Window 0 holds the k <= (c - 1 - b) // a.  Window j
    holds every k with a*k + b in it, less those past n in the top window.
    With c = cq*a + c', each of windows 1..J holds cq such k plus one more
    exactly when (m*j - 1 - b + c') mod a >= a - c', that is when
    (m*(j - 1) + m - b - 1 + c') mod a < c': the same count one pair down
    the chain, with n = J - 1, b = (m - b - 1 + c') mod a and c = c'."""
    total = 0
    for m, a in chain:
        if not a:
            return total + n + 1 if c > b else total
        if c > b:
            total += min((c - 1 - b) // a, n) + 1
        J, ry = divmod(a * n + b, m)
        if not J:
            return total
        x = c - 1 - ry   # the top window's k past n: x // a of them
        if x >= a:
            total -= x // a
        cq, c = divmod(c, a)
        total += cq * J
        n, b = J - 1, (m - b - 1 + c) % a
    return total


def count_by_shell_raw(m1: int, m2: int, mg: int, scale_bits: int,
                       thresholds: list[int], Q: int) -> list[int]:
    """Per-shell solution counts; index n holds the shell-n contribution.

    Shell n is the rows q1 = +-n (step m2, 2n+1 terms) and the columns
    q2 = +-n (step m1, 2n-1 terms).  Against 0 <= T < M/2 a vector scores
    [v <= T] + [v >= M-T] = [(v + T) mod M < 2T + 1], and against
    M/2 <= T < M it scores 1 + [(v + T) mod M < 2T + 1 - M], which at
    T = M/2 is the tie v = M/2 counted twice.  So each progression scores
    one ``chain_interval_count`` (plus its length for T >= M/2), on the
    Euclid chain of its step, built once per call for m1 and for m2.
    """
    M = 1 << scale_bits
    m1, m2, mg = m1 % M, m2 % M, mg % M
    rows, cols = moduli_chain(M, m2), moduli_chain(M, m1)
    out = [0] * (Q + 1)
    for n in range(1, Q + 1):
        T = thresholds[n]
        c, total = 2 * T + 1, 0
        if c > M:   # every one of the shell's 8n vectors scores
            c, total = c - M, 8 * n
        for last, chain, b in ((2 * n, rows, n * (m1 - m2) - mg),
                               (2 * n, rows, -n * (m1 + m2) - mg),
                               (2 * n - 2, cols, (1 - n) * m1 + n * m2 - mg),
                               (2 * n - 2, cols, (1 - n) * m1 - n * m2 - mg)):
            total += chain_interval_count(chain, last, (b + T) % M, c)
        out[n] = total
    return out


def count_python(m1: int, m2: int, mg: int, scale_bits: int,
                 thresholds: list[int], Q: int) -> np.ndarray:
    """Per-shell counts by walking each sup-norm shell's perimeter, as an
    int64 array: ``perfbench/checks.py`` sums a slice of it with
    ``.sum()``.  numpy is imported here, off the kernel's import path.

    Each row q1 = +-n and column q2 = +-n is walked from its first vector,
    v = q1*m1 + q2*m2 - mg mod M = 2**scale_bits, by adding m2 (along a row)
    or m1 (along a column) mod M per vector.  The walk carries
    w = v + T mod M, so that the score [v <= T] + [v >= M - T] is one
    comparison: [w <= 2T] for T < M/2, and for T >= M/2, where every
    vector scores, 1 + [w <= 2T - M], the second point for v in
    [M - T, T]: at T = M/2 only the tie v = M/2 (w = 0) counts twice."""
    import numpy as np

    one = 1 << scale_bits
    mask = one - 1       # x & mask is x mod one
    m1, m2, mg = m1 % one, m2 % one, mg % one
    out = np.zeros(Q + 1, dtype=np.int64)

    def walk(v: int, step: int, k: int, thr: int) -> int:
        # vectors v, v + step, ..., k of them, all mod one
        w, top, c = (v + thr) & mask, 2 * thr, 0
        if top >= one:
            top -= one
            for _ in range(k):
                c += 1 + (w <= top)
                w = (w + step) & mask
            return c
        for _ in range(k):
            c += w <= top
            w = (w + step) & mask
        return c

    for n in range(1, Q + 1):
        thr = thresholds[n]
        out[n] = (walk((n * m1 - n * m2 - mg) % one, m2, 2 * n + 1, thr)
                  + walk((-n * m1 - n * m2 - mg) % one, m2, 2 * n + 1, thr)
                  + walk(((1 - n) * m1 + n * m2 - mg) % one, m1, 2 * n - 1,
                         thr)
                  + walk(((1 - n) * m1 - n * m2 - mg) % one, m1, 2 * n - 1,
                         thr))
    return out
