#!/usr/bin/env python3
"""Time the counting and variance paths layer by layer and check both
against their oracles.

Counting layers, at --Q (default 2000) with psi = q^-3/4 and gamma = sqrt(2):
  table   ``CountTable``: psi evaluated once per q <= Q, the kernel
          thresholds and the integer prefix sums of the report terms;
          split into
    psi   the integer pairs (n, d) that ``psi_table`` takes, one
          ``_pair`` per q <= Q (the power law's integer roots), and
    rest  ``CountTable`` over a ``TablePsi`` of the same values, built
          untimed, so that psi is a dict lookup: the thresholds and the
          prefix sums;
  kernel  the interval-walk kernel ``count_by_shell_raw``: one
          ``chain_interval_count`` per shell segment;
  report  ``make_report`` at Q from the table.

Variance layers, at Q // 10 (default 200) with psi = 1/4 q^-1/2 and
gamma = sqrt(2):
  engine    ``_lift`` on its own: the psi table and its lift, with the
            shift, to the one unit lcm(sd, td);
  core      the integer ramp sums ``overlap_1d_num`` per call, on the
            lifted arguments of every norm pair that ``variance_full``
            evaluates; one call gives a pair at both relative signs;
  pairs     ``_pair_sum`` over the whole-shell norm pairs of
            ``variance_full``, with L = lcm(1..Q) (core included);
  full      the whole ``variance_full``: lift, norm pairs, the
            evaluation count, the measure sum, diagonal and maximum and the
            report Fractions (a few ms at Q = 200, too little to time as the
            difference of two best-of timings);
  window    one ``variance_window`` from norm 20 to norm 79, both end
            shells cut;
  sweep     ``vanishing_bound_sweep`` with its rows and without
            (``collect_rows=False``), witness fitted as the CLI fits it;
  sweep_cells
            the per-pair cell conversion of that sweep: ``sweep_classes``
            converts three cells (bound, same, opp) once per norm pair, not
            per class, and each goes through ``cli.fraction_text`` as in
            ``kglab lemma3-sweep``; a converter that only records its
            (numerator, denominator) collects them first, so the decision
            loop is not timed;
  sweep_cli the whole in-process ``kglab lemma3-sweep`` run with the same
            psi and gamma, CSV written to a temporary file, and the peak RSS
            (ru_maxrss) of one such run in a fresh interpreter.

Each layer is the fastest of --repeats runs in this one process, which
cannot resolve a 10% change on a shared machine: compare two trees by
alternating fresh runs of this script.

Oracle checks: the kernel against the shell walk ``count_python`` on
shells 1..min(Q, 300); at min(Q, 300) the table's report terms against
``main_term`` in both modes and ``chi_term``, for this psi and for 1/(2q);
``variance_full`` at Q <= 3 and two order windows of norm <= 4 against the
all-pairs ``variance_bruteforce``; every sweep row at Q = 8 against
``overlap_sweep_oracle`` and the Lemma 3 bound written out in Fractions, for
four psi and four gamma.
Exits 1 on any mismatch.  --json writes {"Q", "repeats", "count",
"variance", "provenance"} to a file, the provenance naming the checkout of
the imported ``kglab``.

Usage: python benchmarks/layers.py [--Q 2000] [--repeats 3] [--json PATH]
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import kglab
from kglab import cli
from kglab._kernels import count_by_shell_raw, count_python
from kglab.counting import CountTable, chi_term, main_term, make_report
from kglab.lattice import LatticeVector, shell
from kglab.psifunc import PowerLaw, TablePsi, _pair, eval_psi
from kglab.rng import RngStream
from kglab.surd import QuadraticSurd, surd_eval
from kglab.torus import (TorusSet1D, as_shift, overlap_1d_num,
                         overlap_sweep_oracle)
from kglab.variance import (SweepSummary, _lift, _pair_sum, _whole_pairs,
                            sweep_classes,
                            vanishing_bound_sweep, variance_bruteforce,
                            variance_full, variance_window)
from kglab.witness import NonLiouvilleWitness, fit_witness

SCALE = 192
GAMMA = QuadraticSurd.sqrt(2)
COUNT_PSI = PowerLaw(Fraction(1), Fraction(3, 4))
COUNT_ORACLE_MAX_Q = 300
VAR_PSI = PowerLaw(Fraction(1, 4), Fraction(1, 2))
WINDOW = (LatticeVector(3, -20), LatticeVector(-79, 41))
ORACLE_PSIS = (PowerLaw(Fraction(1, 2), Fraction(1)),
               PowerLaw(Fraction(1, 2), Fraction(0)),
               TablePsi({1: Fraction(1, 3), 2: Fraction(2, 5), 3: 0,
                         4: Fraction(1, 7), 5: Fraction(3, 7)}),
               VAR_PSI)
ORACLE_GAMMAS = (GAMMA, Fraction(3, 7), Fraction(0), Fraction(1, 2))
ORACLE_WINDOWS = ((LatticeVector(1, 1), LatticeVector(3, -2)),
                  (LatticeVector(-2, 1), LatticeVector(-4, 3)))
SWEEP_ORACLE_Q = 8
# thresholds 1, 3, 4, 7, ... for d = 2, 3, 4, 5, ...: rows on both sides
SWEEP_WITNESS = NonLiouvilleWitness(1, Fraction(1, 4), Fraction(1, 2),
                                    Fraction(1), SWEEP_ORACLE_Q, analytic=True)


def best_of(repeats: int, fn):
    """(fastest time, result of the last call) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def provenance() -> dict:
    """The git revision of the checkout that holds the imported ``kglab``,
    which need not be this script's (with "-dirty" when the tree has
    uncommitted changes; None outside a git checkout), the Python version,
    the CPU count and this process's peak resident set so far, in MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(kglab.__file__).resolve().parent, capture_output=True,
            text=True, timeout=30)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {"git_revision": revision or None,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


def count_layers(Q: int, repeats: int) -> tuple[dict, list[str]]:
    """(timings, oracle mismatches) of the counting path at Q."""
    gamma = surd_eval(GAMMA, 1, SCALE).mantissa
    a1, a2 = RngStream(0).sample_torus_point(SCALE)
    out = {}
    out["table_s"], table = best_of(
        repeats, lambda: CountTable(COUNT_PSI, [Q], SCALE))
    out["psi_s"], pairs = best_of(repeats, lambda: [
        _pair(COUNT_PSI, q) for q in range(1, Q + 1)])
    looked_up = TablePsi({q: Fraction(*nd) for q, nd in enumerate(pairs, 1)})
    out["rest_s"], rest = best_of(
        repeats, lambda: CountTable(looked_up, [Q], SCALE))
    raw = (a1.mantissa, a2.mantissa, gamma, SCALE, table.thresholds)
    out["kernel_s"], counts = best_of(repeats,
                                      lambda: count_by_shell_raw(*raw, Q))
    out["report_s"], rep = best_of(repeats, lambda: make_report(
        0, counts, Q, table, Fraction(1, 2), "sqrt:2", COUNT_PSI.describe()))
    print(f"  table: Q = {Q}: {out['table_s']:8.3f} s")
    print(f"    psi: Q = {Q}: {out['psi_s']:8.3f} s")
    print(f"   rest: Q = {Q}: {out['rest_s']:8.3f} s")
    print(f" kernel: Q = {Q}: {out['kernel_s']:8.3f} s   N = {rep.N}")
    print(f" report: Q = {Q}: {out['report_s']:8.5f} s")

    q_ref = min(Q, COUNT_ORACLE_MAX_Q)
    bad = []
    if (rest.thresholds, rest.terms) != (table.thresholds, table.terms):
        bad.append("the table of psi and of its values")
    ref = count_python(*raw, q_ref)
    bad += [f"kernel shell {n}" for n in range(q_ref + 1)
            if counts[n] != ref[n]]
    for psi in (COUNT_PSI, PowerLaw(Fraction(1, 2), Fraction(1))):
        got = CountTable(psi, [q_ref], SCALE).terms[q_ref]
        want = (main_term(psi, q_ref, "exact-shell"),
                main_term(psi, q_ref, "paper"), chi_term(psi, q_ref))
        bad += [f"{name} psi={psi.describe()} Q={q_ref}"
                for name, g, w in zip(("psi_exact", "psi_paper", "chi"),
                                      got, want) if g != w]
    return out, bad


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


def variance_layers(Q: int, repeats: int, peak_rss: float,
                    ) -> tuple[dict, list[str]]:
    """(timings, oracle mismatches) of the variance path at Q."""
    out = {}
    out["engine_s"], (rho, a, u) = best_of(
        repeats, lambda: _lift(VAR_PSI, GAMMA, SCALE, Q))
    print(f" engine: Q = {Q}: {out['engine_s']:8.5f} s")
    support = [n for n in range(1, Q + 1) if rho[n]]
    args = [(m // g, rho[m], n // g, rho[n], a, a, u)
            for m, n, _, _ in _whole_pairs(support) for g in [gcd(m, n)]]

    def run_core() -> None:
        # each result is dropped, as the pair sum drops it: a list of
        # result tuples would be rescanned by the cyclic garbage collector
        for a in args:
            overlap_1d_num(*a)

    out["pairs"] = len(args)
    out["core_pair_us"] = 1e6 * best_of(repeats, run_core)[0] / len(args)
    print(f"   core: {out['pairs']} norm pairs: "
          f"{out['core_pair_us']:6.2f} us/call")
    out["variance_full_s"], _ = best_of(
        repeats, lambda: variance_full(Q, VAR_PSI, GAMMA))
    L = lcm(*range(1, Q + 1))
    out["norm_pairs_s"], _ = best_of(
        repeats, lambda: _pair_sum(rho, a, u, L, _whole_pairs(support)))
    out["window_s"], _ = best_of(
        repeats, lambda: variance_window(*WINDOW, VAR_PSI, GAMMA))
    print(f"  pairs: Q = {Q}: {out['norm_pairs_s']:8.3f} s")
    print(f"   full: Q = {Q}: {out['variance_full_s']:8.3f} s for "
          f"variance_full")
    (u1, u2), (v1, v2) = WINDOW
    print(f" window: ({u1},{u2})..({v1},{v2}): {out['window_s']:8.3f} s")

    w = fit_witness(GAMMA, VAR_PSI, Q)
    for key, rows in (("sweep_rows_s", True), ("sweep_no_rows_s", False)):
        out[key], _ = best_of(repeats, lambda: vanishing_bound_sweep(
            Q, VAR_PSI, w, GAMMA, collect_rows=rows))
    print(f"  sweep: Q = {Q}: {out['sweep_rows_s']:8.3f} s with rows, "
          f"{out['sweep_no_rows_s']:.3f} s without")
    cells = []
    for _ in sweep_classes(Q, VAR_PSI, w, GAMMA, SCALE, SweepSummary(),
                           lambda n, d: cells.append((n, d))):
        pass
    text = cli.fraction_text

    def run_cells() -> None:
        for n, d in cells:
            text(n, d)

    out["sweep_cells"] = len(cells)
    out["sweep_cells_s"], _ = best_of(repeats, run_cells)
    print(f"  cells: Q = {Q}: {out['sweep_cells_s']:8.3f} s for "
          f"{out['sweep_cells']} sweep cells")
    with tempfile.TemporaryDirectory() as tmp:
        argv = sweep_argv(Q, tmp)
        out["sweep_cli_s"], status = best_of(repeats, lambda: cli.main(argv))
    out["sweep_cli_peak_rss_mib"] = peak_rss
    print(f"    cli: Q = {Q}: {out['sweep_cli_s']:8.3f} s for lemma3-sweep, "
          f"peak RSS {peak_rss:.1f} MiB in a fresh interpreter")
    bad = [] if status == 0 else [f"kglab {' '.join(argv)} exit {status}"]
    return out, bad + variance_mismatches() + sweep_mismatches()


def variance_mismatches() -> list[str]:
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
                bound = 4 * pq * pr + 4 * (pq / row.d) * gcd(row.d, row.e)
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
    peak_rss = sweep_cli_peak_rss_mib(Q // 10)  # first: see its docstring
    count, bad_count = count_layers(Q, repeats)
    var, bad_var = variance_layers(Q // 10, repeats, peak_rss)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump({"Q": Q, "repeats": repeats, "count": count,
                       "variance": var, "provenance": provenance()},
                      fh, indent=1)
    bad = bad_count + bad_var
    if bad:
        print(f"MISMATCH with the oracles: {bad[:10]}")
        return 1
    print("kernel, report terms, variance_full, variance_window and the "
          "sweep rows agree with the oracles")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Q", type=int, default=2000,
                    help="count height; the variance layers run at Q // 10")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", help="write the timings here")
    args = ap.parse_args()
    if args.Q < 10:
        ap.error("--Q must be at least 10")
    raise SystemExit(bench(args.Q, args.repeats, args.json))
