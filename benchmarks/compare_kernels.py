#!/usr/bin/env python3
"""Time the floor-sum counting kernel and check it against the oracle.

The kernel (``count_by_shell_raw``) is timed at --Q; the shell-walk oracle
(``count_python``) visits every vector, so the two are compared on the
per-shell counts of shells 1..min(Q, 300).  Exits 1 on any mismatch.

Usage: python benchmarks/compare_kernels.py [--Q 2000] [--repeats 3]
"""

import argparse
import time
from fractions import Fraction

import numpy as np

from kglab._kernels import count_by_shell_raw, count_python
from kglab.psifunc import PowerLaw, psi_mantissas
from kglab.rng import RngStream
from kglab.surd import QuadraticSurd, surd_eval

SCALE = 192
ORACLE_MAX_Q = 300


def bench(Q: int, repeats: int) -> int:
    gamma = surd_eval(QuadraticSurd.sqrt(2), 1, SCALE).mantissa
    a1, a2 = RngStream(0).sample_torus_point(SCALE)
    psi = PowerLaw(Fraction(1), Fraction(3, 4))
    thresholds = psi_mantissas(psi, Q, SCALE)
    raw = (a1.mantissa, a2.mantissa, gamma, SCALE, thresholds)

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        counts = count_by_shell_raw(*raw, Q)
        best = min(best, time.perf_counter() - t0)
    vectors = (2 * Q + 1) ** 2 - 1
    print(f" kernel: Q = {Q}: {best:8.3f} s   {vectors / best / 1e6:9.1f} M "
          f"vectors/s   N = {int(counts.sum())}")

    q_ref = min(Q, ORACLE_MAX_Q)
    t0 = time.perf_counter()
    ref = count_python(*raw, q_ref)
    print(f" oracle: Q = {q_ref}: {time.perf_counter() - t0:8.3f} s")
    if not np.array_equal(counts[:q_ref + 1], ref):
        bad = np.flatnonzero(counts[:q_ref + 1] != ref)
        print(f"MISMATCH with the oracle on shells {bad.tolist()[:10]}")
        return 1
    print(f"kernel and oracle agree on shells 1..{q_ref}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    raise SystemExit(bench(args.Q, args.repeats))
