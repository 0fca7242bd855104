"""Exact per-shell counting for the lattice sweep.

The membership test ``||q1*a1 + q2*a2 - gamma|| <= psi(max(|q1|,|q2|))`` is
integer arithmetic on mantissas mod M = 2**scale_bits: a vector with
v = (q1*m1 + q2*m2 - mg) mod M scores [v <= T] + [v >= M - T and T > 0]
against its shell threshold T, so a tie v = M/2 = T counts twice.
``count_by_shell_raw`` counts each shell with ``floor_sum`` in O(log M)
big-integer steps and returns the counts as a ``list[int]``;
``count_python`` walks every vector and is its oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i<n} floor((a*i + b) / m) for n, a, b >= 0 and m >= 1, by the
    Euclid-like reduction of the AtCoder Library (atcoder/math.hpp)."""
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def count_by_shell_raw(m1: int, m2: int, mg: int, scale_bits: int,
                       thresholds: list[int], Q: int) -> list[int]:
    """Per-shell solution counts; index n holds the shell-n contribution.

    Shell n is the rows q1 = +-n (step m2, 2n+1 terms) and the columns
    q2 = +-n (step m1, 2n-1 terms).  For K terms v_k = (b + a*k) mod M and
    0 <= T < M, [v >= U] sums to floor_sum(b + M - U) - floor_sum(b), so
    the score [v < T+1] + [v >= M-T] sums to
    K + floor_sum(K, M, a, b + T) - floor_sum(K, M, a, b + M - T - 1).
    """
    M = 1 << scale_bits
    m1, m2, mg = m1 % M, m2 % M, mg % M
    out = [0] * (Q + 1)
    for n in range(1, Q + 1):
        T = thresholds[n]
        c = 0
        for K, a, b in ((2 * n + 1, m2, n * (m1 - m2) - mg),
                        (2 * n + 1, m2, -n * (m1 + m2) - mg),
                        (2 * n - 1, m1, (1 - n) * m1 + n * m2 - mg),
                        (2 * n - 1, m1, (1 - n) * m1 - n * m2 - mg)):
            b %= M
            c += (K + floor_sum(K, M, a, b + T)
                  - floor_sum(K, M, a, b + M - T - 1))
        out[n] = c
    return out


def count_python(m1: int, m2: int, mg: int, scale_bits: int,
                 thresholds: list[int], Q: int) -> np.ndarray:
    """Per-shell counts by walking each sup-norm shell's perimeter, as an
    int64 array: ``perfbench/checks.py`` sums a slice of it with
    ``.sum()``.  numpy is imported here, off the kernel's import path."""
    import numpy as np

    one = 1 << scale_bits
    m1, m2, mg = m1 % one, m2 % one, mg % one
    out = np.zeros(Q + 1, dtype=np.int64)

    def contrib(q1: int, q2: int, thr: int) -> int:
        v = (q1 * m1 + q2 * m2 - mg) % one
        return (v <= thr) + (one - v <= thr)

    for n in range(1, Q + 1):
        thr = thresholds[n]
        c = 0
        for q2 in range(-n, n + 1):
            c += contrib(n, q2, thr) + contrib(-n, q2, thr)
        for q1 in range(-n + 1, n):
            c += contrib(q1, n, thr) + contrib(q1, -n, thr)
        out[n] = c
    return out
