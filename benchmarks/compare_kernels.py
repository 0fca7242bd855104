#!/usr/bin/env python3
"""Time the counting path layer by layer and check it against the oracles.

Layers, at --Q (default 2000) with psi = q^-3/4 and gamma = sqrt(2):
  table   ``CountTable``: psi evaluated once per q <= Q, the kernel
          thresholds and the integer prefix sums of the report terms;
          split into
    psi   ``eval_psi`` for q <= Q (the power law's integer roots), and
    rest  ``CountTable`` over a ``TablePsi`` of the same values, so that
          psi is a dict lookup: the thresholds and the prefix sums;
  kernel  the chain-walk kernel ``count_by_shell_raw``;
  report  ``make_report`` at Q from the table;
  import  ``import kglab.cli`` in a fresh interpreter: the median of 5
          runs after one discarded warm-up.

The shell-walk oracle (``count_python``) visits every vector, so it is
compared with the kernel on the per-shell counts of shells 1..min(Q, 300).
At min(Q, 300) the report terms are compared with ``main_term`` in both
modes and ``chi_term``, for this psi and for 1/(2q), whose denominator is
lcm(1..Q).  Exits 1 on any mismatch.  --json writes the timings to a file,
with the run's provenance (``provenance.py``).

Usage: python benchmarks/compare_kernels.py [--Q 2000] [--repeats 3]
                                            [--json PATH]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from kglab._kernels import count_by_shell_raw, count_python
from kglab.counting import CountTable, chi_term, main_term, make_report
from kglab.psifunc import PowerLaw, TablePsi, eval_psi
from kglab.rng import RngStream
from kglab.surd import QuadraticSurd, surd_eval
from provenance import provenance

SCALE = 192
ORACLE_MAX_Q = 300
PSI = PowerLaw(Fraction(1), Fraction(3, 4))
ORACLE_PSIS = (PSI, PowerLaw(Fraction(1, 2), Fraction(1)))
IMPORT_RUNS = 5
SRC = Path(__file__).resolve().parents[1] / "src"


def best_of(repeats: int, fn):
    """(fastest time, result of the last call) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def import_seconds(runs: int) -> float:
    """Median time of ``import kglab.cli`` over ``runs`` fresh interpreters,
    after one warm-up run (which may compile bytecode) is discarded."""
    code = ("import time; t = time.perf_counter(); import kglab.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout)
             for _ in range(runs + 1)]
    return statistics.median(times[1:])


def report_mismatches(Q: int) -> list[str]:
    bad = []
    for psi in ORACLE_PSIS:
        got = CountTable(psi, [Q], SCALE).terms[Q]
        want = (main_term(psi, Q, "exact-shell"), main_term(psi, Q, "paper"),
                chi_term(psi, Q))
        bad += [f"{name} psi={psi.describe()} Q={Q}"
                for name, g, w in zip(("psi_exact", "psi_paper", "chi"),
                                      got, want) if g != w]
    return bad


def bench(Q: int, repeats: int, json_path: str | None) -> int:
    gamma = surd_eval(QuadraticSurd.sqrt(2), 1, SCALE).mantissa
    a1, a2 = RngStream(0).sample_torus_point(SCALE)
    out = {}
    out["table_s"], table = best_of(repeats,
                                    lambda: CountTable(PSI, [Q], SCALE))
    out["psi_s"], vals = best_of(repeats, lambda: [
        eval_psi(PSI, q) for q in range(1, Q + 1)])
    looked_up = TablePsi(dict(enumerate(vals, 1)))
    out["rest_s"], rest = best_of(repeats,
                                  lambda: CountTable(looked_up, [Q], SCALE))
    raw = (a1.mantissa, a2.mantissa, gamma, SCALE, table.thresholds)
    out["kernel_s"], counts = best_of(repeats,
                                      lambda: count_by_shell_raw(*raw, Q))
    out["report_s"], rep = best_of(repeats, lambda: make_report(
        0, counts, Q, table, Fraction(1, 2), "sqrt:2", PSI.describe()))
    print(f"  table: Q = {Q}: {out['table_s']:8.3f} s")
    print(f"    psi: Q = {Q}: {out['psi_s']:8.3f} s")
    print(f"   rest: Q = {Q}: {out['rest_s']:8.3f} s")
    print(f" kernel: Q = {Q}: {out['kernel_s']:8.3f} s   N = {rep.N}")
    print(f" report: Q = {Q}: {out['report_s']:8.5f} s")
    out["import_s"] = import_seconds(IMPORT_RUNS)
    print(f" import: kglab.cli: {out['import_s']:8.3f} s")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump({"Q": Q, "repeats": repeats, **out,
                       "provenance": provenance()}, fh, indent=1)

    q_ref = min(Q, ORACLE_MAX_Q)
    t0 = time.perf_counter()
    ref = count_python(*raw, q_ref)
    print(f" oracle: Q = {q_ref}: {time.perf_counter() - t0:8.3f} s")
    status = 0
    if (rest.thresholds, rest.terms) != (table.thresholds, table.terms):
        print("MISMATCH between the table of psi and of its values")
        status = 1
    bad = [n for n in range(q_ref + 1) if counts[n] != ref[n]]
    if bad:
        print(f"MISMATCH with the oracle on shells {bad[:10]}")
        status = 1
    else:
        print(f"kernel and oracle agree on shells 1..{q_ref}")
    bad_terms = report_mismatches(q_ref)
    if bad_terms:
        print(f"MISMATCH with main_term/chi_term: {bad_terms}")
        status = 1
    else:
        print(f"report terms agree with main_term and chi_term at Q = {q_ref}")
    return status


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", help="write the timings here")
    args = ap.parse_args()
    raise SystemExit(bench(args.Q, args.repeats, args.json))
