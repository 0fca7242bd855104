"""Exact per-shell counting for the lattice sweep.

The membership test ``||q1*a1 + q2*a2 - gamma|| <= psi(max(|q1|,|q2|))`` is
integer arithmetic on mantissas mod M = 2**scale_bits: a vector with
v = (q1*m1 + q2*m2 - mg) mod M scores [v <= T] + [v >= M - T and T > 0]
against its shell threshold T, so a tie v = M/2 = T counts twice.
``count_by_shell_raw`` counts each shell from floor sums of arithmetic
progressions and returns the counts as a ``list[int]``.  A floor sum's
Euclid-like reduction visits moduli that depend only on the step, and
every progression of a trial steps by m1 or m2, so ``euclid_chain`` builds
the two chains once per trial and ``chain_floor_sum`` walks one per
progression: O(Q log M) big-integer steps.  ``count_python`` walks every
vector and is the oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def euclid_chain(m: int, a: int) -> list[tuple[int, int, int]]:
    """The (m, a mod m, a // m) steps of the Euclid-like floor-sum reduction
    from (m, a), for m >= 1 and a >= 0, up to the first zero remainder, where
    every walk of ``chain_floor_sum`` returns."""
    chain = []
    while True:
        q, r = divmod(a, m)
        chain.append((m, r, q))
        if r == 0:
            return chain
        m, a = r, m


def chain_floor_sum(chain: list[tuple[int, int, int]], n: int, b: int) -> int:
    """sum_{i<n} floor((a*i + b) / m) for n, b >= 0, where (m, a) starts
    ``chain``: the reduction of the AtCoder Library (atcoder/math.hpp),
    with its steps on m and a read from the chain."""
    total = 0
    for m, a, q in chain:
        total += n * (n - 1) // 2 * q
        if b >= m:
            t, b = divmod(b, m)
            total += n * t
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
    return total


def count_by_shell_raw(m1: int, m2: int, mg: int, scale_bits: int,
                       thresholds: list[int], Q: int) -> list[int]:
    """Per-shell solution counts; index n holds the shell-n contribution.

    Shell n is the rows q1 = +-n (step m2, 2n+1 terms) and the columns
    q2 = +-n (step m1, 2n-1 terms).  For K terms v_k = (b + a*k) mod M and
    0 <= T < M, [v >= U] sums to f(b + M - U) - f(b) with
    f(c) = sum_{k<K} floor((a*k + c) / M), so the score [v < T+1] +
    [v >= M-T] sums to K + f(b + T) - f(b + M - T - 1).  Each f walks the
    Euclid chain of its step, built once per call for m1 and for m2.
    """
    M = 1 << scale_bits
    m1, m2, mg = m1 % M, m2 % M, mg % M
    rows, cols = euclid_chain(M, m2), euclid_chain(M, m1)
    out = [0] * (Q + 1)
    for n in range(1, Q + 1):
        T = thresholds[n]
        c = 0
        for K, chain, b in ((2 * n + 1, rows, n * (m1 - m2) - mg),
                            (2 * n + 1, rows, -n * (m1 + m2) - mg),
                            (2 * n - 1, cols, (1 - n) * m1 + n * m2 - mg),
                            (2 * n - 1, cols, (1 - n) * m1 - n * m2 - mg)):
            b %= M
            c += (K + chain_floor_sum(chain, K, b + T)
                  - chain_floor_sum(chain, K, b + M - T - 1))
        out[n] = c
    return out


def count_python(m1: int, m2: int, mg: int, scale_bits: int,
                 thresholds: list[int], Q: int) -> np.ndarray:
    """Per-shell counts by walking each sup-norm shell's perimeter, as an
    int64 array: ``perfbench/checks.py`` sums a slice of it with
    ``.sum()``.  numpy is imported here, off the kernel's import path.

    Each row q1 = +-n and column q2 = +-n is walked from its first vector,
    v = q1*m1 + q2*m2 - mg mod 2**scale_bits, by adding m2 (along a row) or
    m1 (along a column) mod 2**scale_bits per vector."""
    import numpy as np

    one = 1 << scale_bits
    mask = one - 1       # x & mask is x mod one
    m1, m2, mg = m1 % one, m2 % one, mg % one
    out = np.zeros(Q + 1, dtype=np.int64)

    def walk(v: int, step: int, k: int, thr: int) -> int:
        # vectors v, v + step, ..., k of them, all mod one
        c = 0
        for _ in range(k):
            c += (v <= thr) + (one - v <= thr)
            v = (v + step) & mask
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
