#!/usr/bin/env python3
"""Time the variance path layer by layer and check it against the oracle.

Layers, at --Q (default 200) with psi = 1/4 q^-1/2 and gamma = sqrt(2):
  core      the integer ramp sums ``overlap_1d_num`` per call, on the
            arguments of every pair class that ``variance_full(Q)``
            evaluates; one call gives a class at both relative signs;
  classes   ``_class_sums`` over every direction class (core included);
  report    the rest of ``variance_full(Q)``: the psi table, the measure
            sum, diagonal and maximum and the report Fractions;
  window    one ``variance_window`` from norm 20 to norm 79, both end
            shells cut;
  sweep     ``vanishing_bound_sweep(Q)`` with its rows and without
            (``collect_rows=False``), witness fitted as the CLI fits it;
  sweep_cells
            every cell (bound, same, opp) of that sweep's ``sweep_classes``
            tuples through ``cli.fraction_text``, as ``kglab lemma3-sweep``
            formats them (the report assembly of the sweep); the tuples are
            collected first, so the decision loop is not timed;
  sweep_cli the whole in-process ``kglab lemma3-sweep --Q Q`` run with
            the same psi and gamma, CSV written to a temporary file: the
            sweep with rows plus the witness fit and the row writing; and
            the peak RSS (ru_maxrss) of one such run in a fresh interpreter.

``variance_full`` at Q <= 3 and two order windows of norm <= 4 are
compared with the all-pairs ``variance_bruteforce``, and every sweep row at
Q = 8 with ``overlap_sweep_oracle`` and ``lemma3_bound``, for four psi and
four gamma; exits 1 on any mismatch.  --json writes the timings to a file,
with the run's provenance (``provenance.py``).

Usage: python benchmarks/compare_variance.py [--Q 200] [--repeats 3]
                                             [--json PATH]
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from kglab.lattice import LatticeVector, shell
from kglab.psifunc import PowerLaw, TablePsi, eval_psi
from kglab.surd import QuadraticSurd
from kglab.torus import (TorusSet1D, as_shift, lemma3_bound, overlap_1d_num,
                         overlap_sweep_oracle)
from kglab import cli, variance
from kglab.variance import (SweepSummary, _PairEngine, sweep_classes,
                            vanishing_bound_sweep, variance_bruteforce,
                            variance_full, variance_window)
from kglab.witness import NonLiouvilleWitness, fit_witness
from provenance import provenance

SCALE = 192
PSI = PowerLaw(Fraction(1, 4), Fraction(1, 2))
GAMMA = QuadraticSurd.sqrt(2)
WINDOW = (LatticeVector(3, -20), LatticeVector(-79, 41))
ORACLE_PSIS = (PowerLaw(Fraction(1, 2), Fraction(1)),
               PowerLaw(Fraction(1, 2), Fraction(0)),
               TablePsi({1: Fraction(1, 3), 2: Fraction(2, 5), 3: 0,
                         4: Fraction(1, 7), 5: Fraction(3, 7)}),
               PSI)
ORACLE_GAMMAS = (GAMMA, Fraction(3, 7), Fraction(0), Fraction(1, 2))
ORACLE_WINDOWS = ((LatticeVector(1, 1), LatticeVector(3, -2)),
                  (LatticeVector(-2, 1), LatticeVector(-4, 3)))
SWEEP_ORACLE_Q = 8
# thresholds 1, 3, 4, 7, ... for d = 2, 3, 4, 5, ...: rows on both sides
SWEEP_WITNESS = NonLiouvilleWitness(1, Fraction(1, 4), Fraction(1, 2),
                                    Fraction(1), SWEEP_ORACLE_Q, analytic=True)


def best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def core_timings(Q: int, repeats: int) -> dict:
    """Per-call time of the integer core over the pair classes of
    variance_full(Q), both relative signs per call."""
    eng = _PairEngine(PSI, GAMMA, SCALE, Q)
    td, sn, sd = eng.td, eng.sn, eng.sd
    args = [(d, eng.psi_num[d * np_], e, eng.psi_num[e * np_], td, sn, sn,
             sd)
            for np_ in range(1, Q + 1) for d in range(1, Q // np_ + 1)
            for e in range(1, d + 1)]

    def run_core() -> None:
        # each result is dropped, as the class sums drop it: a list of
        # result tuples would be rescanned by the cyclic garbage collector
        for a in args:
            overlap_1d_num(*a)

    t_num = best_of(repeats, run_core)
    return {"pairs": len(args), "core_pair_us": 1e6 * t_num / len(args)}


def layer_split(Q: int, repeats: int) -> tuple[float, float]:
    """(variance_full(Q) seconds, seconds of it in ``_class_sums``) of the
    fastest of ``repeats`` runs; the class sums are timed inside the run."""
    inner = variance._class_sums
    spent = [0.0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return inner(*args)
        finally:
            spent[0] += time.perf_counter() - t0

    variance._class_sums = timed
    try:
        runs = []
        for _ in range(repeats):
            spent[0] = 0.0
            t0 = time.perf_counter()
            variance_full(Q, PSI, GAMMA)
            runs.append((time.perf_counter() - t0, spent[0]))
    finally:
        variance._class_sums = inner
    return min(runs)


def sweep_cells_timing(Q: int, w: NonLiouvilleWitness, repeats: int,
                       ) -> tuple[int, float]:
    """(cells, seconds) to format every cell of the sweep at Q: the bound
    of each class within the threshold and its same and opp overlaps."""
    classes = list(sweep_classes(Q, PSI, w, GAMMA, SCALE, SweepSummary()))
    text = cli.fraction_text

    def run_cells() -> None:
        for _, _, _, _, _, bnum, bden, oden, same, _, opp, _ in classes:
            if bnum is not None:
                text(bnum, bden)
            text(same, oden)
            text(opp, oden)

    cells = sum(2 + (c[5] is not None) for c in classes)
    return cells, best_of(repeats, run_cells)


def sweep_argv(Q: int, tmp: str) -> list[str]:
    return ["lemma3-sweep", "--gamma", "sqrt:2", "--psi", "pow:1/4,1/2",
            "--Q", str(Q), "--out", os.path.join(tmp, "sweep.csv")]


def sweep_cli_peak_rss_mib(Q: int) -> float:
    """Peak RSS in MiB of one ``kglab lemma3-sweep --Q Q`` in a fresh
    interpreter: ru_maxrss (KiB on Linux) of RUSAGE_CHILDREN.  Linux
    carries the peak of the spawning process into the child's ru_maxrss,
    so this must run before this script's own work raises that peak."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-m", "kglab.cli",
                        *sweep_argv(Q, tmp)], check=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def oracle_mismatches() -> list[str]:
    bad = []
    for psi in ORACLE_PSIS:
        for gamma in ORACLE_GAMMAS:
            cases = [(variance_full(Q, psi, gamma),
                      [v for n in range(1, Q + 1) for v in shell(n)])
                     for Q in (1, 2, 3)]
            for u, v in ORACLE_WINDOWS:
                vecs = [w for n in range(u.norm, v.norm + 1) for w in shell(n)
                        if u.order_key() <= w.order_key() <= v.order_key()]
                cases.append((variance_window(u, v, psi, gamma), vecs))
            for rep, vecs in cases:
                if rep.variance != variance_bruteforce(vecs, psi, gamma):
                    bad.append(f"{rep.label} psi={psi.describe()} "
                               f"gamma={gamma}")
    return bad


def sweep_mismatches() -> list[str]:
    bad = []
    Q, w = SWEEP_ORACLE_Q, SWEEP_WITNESS
    for psi in ORACLE_PSIS:
        for gamma in ORACLE_GAMMAS:
            shift = as_shift(gamma, SCALE)
            rows, _ = vanishing_bound_sweep(Q, psi, w, gamma)
            for row in rows:
                pq, pr = eval_psi(psi, row.q), eval_psi(psi, row.r)
                sign = 1 if row.rel == "same" else -1
                ov = overlap_sweep_oracle(TorusSet1D(row.d, shift, pq),
                                          TorusSet1D(row.e, sign * shift, pr))
                bound = lemma3_bound(pq, pr, row.d, row.e)
                if row.r > row.threshold:
                    want = (None, "zero-confirmed" if ov == 0 else "VIOLATION")
                else:
                    want = (bound, "bound-satisfied" if ov <= bound
                            else "VIOLATION")
                if (row.overlap, row.bound, row.status) != (ov, *want):
                    bad.append(f"sweep row d={row.d} e={row.e} q={row.q} "
                               f"{row.rel} psi={psi.describe()} "
                               f"gamma={gamma}")
    return bad


def bench(Q: int, repeats: int, json_path: str | None) -> int:
    peak_rss = sweep_cli_peak_rss_mib(Q)  # first: see its docstring
    out = core_timings(Q, repeats)
    print(f"   core: {out['pairs']} pair classes: "
          f"{out['core_pair_us']:6.2f} us/call")
    out["variance_full_s"], out["class_sums_s"] = layer_split(Q, repeats)
    out["report_s"] = out["variance_full_s"] - out["class_sums_s"]
    out["window_s"] = best_of(repeats, lambda: variance_window(*WINDOW, PSI,
                                                               GAMMA))
    print(f"classes: Q = {Q}: {out['class_sums_s']:8.3f} s")
    print(f" report: Q = {Q}: {out['report_s']:8.3f} s   "
          f"(variance_full {out['variance_full_s']:.3f} s)")
    (u1, u2), (v1, v2) = WINDOW
    print(f" window: ({u1},{u2})..({v1},{v2}): {out['window_s']:8.3f} s")
    w = fit_witness(GAMMA, PSI, Q)
    for key, rows in (("sweep_rows_s", True), ("sweep_no_rows_s", False)):
        out[key] = best_of(repeats, lambda: vanishing_bound_sweep(
            Q, PSI, w, GAMMA, collect_rows=rows))
    print(f"  sweep: Q = {Q}: {out['sweep_rows_s']:8.3f} s with rows, "
          f"{out['sweep_no_rows_s']:.3f} s without")
    out["sweep_cells"], out["sweep_cells_s"] = sweep_cells_timing(Q, w,
                                                                  repeats)
    print(f"  cells: Q = {Q}: {out['sweep_cells_s']:8.3f} s for "
          f"{out['sweep_cells']} sweep cells")
    with tempfile.TemporaryDirectory() as tmp:
        argv = sweep_argv(Q, tmp)

        def run_cli() -> None:
            if cli.main(argv) != 0:
                raise SystemExit(f"kglab {' '.join(argv)} failed")

        out["sweep_cli_s"] = best_of(repeats, run_cli)
    out["sweep_cli_peak_rss_mib"] = peak_rss
    print(f"    cli: Q = {Q}: {out['sweep_cli_s']:8.3f} s for lemma3-sweep, "
          f"peak RSS {peak_rss:.1f} MiB in a fresh interpreter")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump({"Q": Q, "repeats": repeats, **out,
                       "provenance": provenance()}, fh, indent=1)
    bad = oracle_mismatches()
    if bad:
        print(f"MISMATCH with variance_bruteforce: {bad[:5]}")
    bad_rows = sweep_mismatches()
    if bad_rows:
        print(f"MISMATCH with the sweep oracles: {bad_rows[:5]}")
    if bad or bad_rows:
        return 1
    print("variance_full, variance_window and the sweep rows agree with "
          "the oracles")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", help="write the timings here")
    args = ap.parse_args()
    raise SystemExit(bench(args.Q, args.repeats, args.json))
