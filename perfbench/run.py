"""kglab benchmark: one command, three workloads, two views.

    python3 perfbench/run.py --workload count|variance|sweep --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # a few ops of every workload

--trace 0 runs the workload untraced in a fresh interpreter for S seconds of
timed ops and prints the end-to-end metrics.  --trace 1 runs a fixed number
of ops twice, untraced and then traced, and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run from the root of a kglab checkout; the program is imported
from ``src/``.  See NOTES.md for the workloads and why they were chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import NOMINAL_OP_S, WHY, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5
MIN_OPS = 100  # leaves ten ops beyond the nearest-rank p90

E2E_UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_p90_s": "s",
             "setup_s": "s", "peak_rss_mib": "MiB", "ok_rate": "ratio"}

# span name -> which of its totals are reported (calls, s, self_s)
LAYER_SPANS = {
    "kernels.count_by_shell_raw": ("calls", "s"),
    "psifunc.psi_mantissas": ("calls", "s"),
    "counting.main_term": ("calls", "s"),
    "counting.chi_term": ("calls", "s"),
    "counting.make_report": ("self_s",),
    "rng.sample_torus_point": ("s",),
    "torus.overlap_1d_core": ("calls", "s"),
    "variance.variance_full": ("self_s",),
    "variance.variance_window": ("self_s",),
    "variance.vanishing_bound_sweep": ("self_s",),
    "witness.fit_witness": ("calls", "s"),
    "witness.vanish_threshold": ("calls", "s"),
    "lattice.shell": ("calls", "s"),
    "lattice.phi": ("calls", "s"),
    "cli.main": ("self_s",),
    "cli.output_finish": ("s",),
}
DERIVED_UNITS = {
    "kernels.vectors": "count", "kernels.vectors_per_s": "1/s",
    "torus.overlap_1d_core.us_per_call": "us",
    "variance.n_overlap_evals": "count", "variance.sweep_rows": "count",
    "variance.zero_confirmed": "count", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def layer_units() -> dict[str, str]:
    units = {f"{span}.{field}": "count" if field == "calls" else "s"
             for span, fields in LAYER_SPANS.items() for field in fields}
    units.update(DERIVED_UNITS)
    return units


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _check_checkout() -> None:
    if not (SRC / "kglab" / "cli.py").is_file():
        raise BenchError(f"no kglab sources under {SRC}; run from the root "
                         "of a kglab checkout")


def measure_setup() -> list[tuple[float, float]]:
    """(seconds, slowdown) for a fresh interpreter to import kglab.cli;
    one warm-up (which may compile bytecode) is discarded."""
    code = (f"import sys, time; sys.path.insert(0, {str(HERE)!r}); "
            "from probe import slowdown; s = slowdown(False); "
            "t = time.perf_counter(); import kglab.cli; "
            "d = time.perf_counter() - t; print(d, (s + slowdown(False)) / 2)")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"importing kglab.cli failed:\n{proc.stderr}")
        seconds, slow = proc.stdout.split()
        samples.append((float(seconds), float(slow)))
    return samples[1:]


def run_worker(workload: str, seed: int, *, seconds: float | None = None,
               ops: int | None = None, trace: bool = False) -> dict:
    """Run worker.py in a fresh interpreter for ``seconds`` of timed calls
    (and at least MIN_OPS ops, within 1.5 x ``seconds``) or for exactly
    ``ops`` ops."""
    tmp = OUT_DIR / f"tmp-{os.getpid()}-{workload}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds), "--min-ops", str(MIN_OPS)]
    cmd += ["--ops", str(ops)] if ops is not None else []
    if trace:
        cmd += ["--trace", str(OUT_DIR / f"spans-{workload}.csv.gz")]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def p90(times: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    rank = math.ceil(0.9 * len(times))
    return sorted(times)[rank - 1], len(times) - rank


def at_ref_speed(times, slowdowns) -> list[float]:
    """Times rescaled to the reference machine speed (see probe.py)."""
    return [t / s for t, s in zip(times, slowdowns)]


def throughput(res: dict) -> float:
    """Ops per reference-speed second of timed calls."""
    return res["attempted"] / sum(at_ref_speed(res["op_times"],
                                               res["slowdown"]))


def end_to_end(res: dict,
               setup: list[tuple[float, float]]) -> dict[str, float]:
    times = at_ref_speed(res["op_times"], res["slowdown"])
    return {
        "ops_per_s": throughput(res),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90(times)[0],
        "setup_s": statistics.median(at_ref_speed(*zip(*setup))),
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "ok_rate": 1 - res["failed"] / res["attempted"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    spans, counts = traced["spans"], traced["span_counters"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {f"{span}.{field}": spans.get(span, zero)[field]
           for span, fields in LAYER_SPANS.items() for field in fields}
    kernel_s = out["kernels.count_by_shell_raw.s"]
    overlap = spans.get("torus.overlap_1d_core", zero)
    vectors = counts.get("kernels.vectors", 0)
    reported = traced["counters"]
    out.update({
        "kernels.vectors": vectors,
        "kernels.vectors_per_s": vectors / kernel_s if kernel_s else 0.0,
        "torus.overlap_1d_core.us_per_call":
            1e6 * overlap["s"] / overlap["calls"] if overlap["calls"] else 0.0,
        "variance.n_overlap_evals": reported.get("n_overlap_evals", 0),
        "variance.sweep_rows": reported.get("sweep_rows", 0),
        "variance.zero_confirmed": reported.get("zero_confirmed", 0),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "trace.overhead_frac": throughput(untraced) / throughput(traced) - 1,
    })
    return out


def source_digest() -> str:
    """SHA-256 over src/kglab/*.py, which names the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kglab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _print_machine(machine: dict) -> None:
    record = dict(machine, git_revision=git_revision(),
                  src_sha256=source_digest())
    print("machine: " + json.dumps(record, sort_keys=True))


def _print_ops(label: str, res: dict) -> None:
    n = res["attempted"]
    print(f"{label}: {n} ops attempted, {res['failed']} failed "
          f"(fail_rate {res['failed'] / n:.4g}), {res['golden_checked']} "
          f"compared with golden digests, {res['busy_s']:.3f} s timed")
    for note in res["failures"]:
        print(f"  FAILED {note}")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _check_checkout()
    print(f"kglab benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    print(f"why: {WHY[workload]}")
    if trace:
        n_ops = max(2, round(seconds / 2 / NOMINAL_OP_S[workload]))
        untraced = run_worker(workload, seed, ops=n_ops)
        traced = run_worker(workload, seed, ops=n_ops, trace=True)
        _print_machine(traced["machine"])
        _print_ops("untraced", untraced)
        _print_ops("traced", traced)
        if traced["absent"]:
            print("absent layers (reported as 0): "
                  + ", ".join(traced["absent"]))
        metrics, units = per_layer(traced, untraced), layer_units()
        runs = (untraced, traced)
    else:
        setup = measure_setup()
        res = run_worker(workload, seed, seconds=seconds)
        _print_machine(res["machine"])
        _print_ops("ops", res)
        metrics, units = end_to_end(res, setup), E2E_UNITS
        n, wall = res["attempted"], res["op_times"]
        setup_wall = statistics.median(s for s, _ in setup)
        notes = {
            "ops_per_s": f"{n} ops; wall clock {n / res['busy_s']:.4g} "
                         "ops/s",
            "op_p50_s": f"median of {n} ops; wall clock "
                        f"{statistics.median(wall):.4g} s",
            "op_p90_s": f"nearest-rank p90 of {n} ops, {p90(wall)[1]} "
                        f"beyond; wall clock {p90(wall)[0]:.4g} s",
            "setup_s": f"median of {len(setup)} fresh interpreters; wall "
                       f"clock {setup_wall:.4g} s",
            "peak_rss_mib": "ru_maxrss of the workload process",
            "ok_rate": f"1 - fail_rate; {res['failed']}/{n} ops failed",
        }
        print("times below are at reference machine speed (probe.py); "
              f"median slowdown {statistics.median(res['slowdown']):.3f}")
        runs = (res,)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if not trace else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{note}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def smoke() -> bool:
    """A few ops per workload, untraced and traced; True if all pass."""
    _check_checkout()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            res = run_worker(workload, 0, ops=3, trace=trace)
            _print_ops(f"smoke {workload} trace={int(trace)}", res)
            ok &= res["failed"] == 0
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="kglab benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a few ops of every workload and exit")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            ap.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
