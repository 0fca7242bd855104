"""Run one workload in this (fresh) interpreter and print one JSON line.

Closed loop, one client: each op is one in-process ``kglab.cli.main(argv)``
call, and the next op starts when the previous one and its output checks
are done.  Only the call is timed; checks run outside the timed region.

    PYTHONPATH=src python3 perfbench/worker.py --workload count --seed 0 \\
        (--seconds 27 [--min-ops 100] | --ops 45) [--trace SPANS.csv.gz] \\
        --tmp DIR

run.py starts this script; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from checks import check_op, load_golden, report_counters
from probe import slowdown
from tracer import Tracer
from workloads import WORKLOADS, op_stream

MAX_FAILURE_NOTES = 5


def _call_cli(argv: list[str]):
    import kglab.cli

    return kglab.cli.main(argv)  # looked up per call: the tracer patches it


def run_loop(ops, tmpdir: Path, golden: dict[str, str], *,
             seconds: float | None = None, min_ops: int = 0,
             max_ops: int | None = None, call=_call_cli,
             tracer: Tracer | None = None) -> dict:
    """Run ops until ``seconds`` of timed calls and at least ``min_ops``
    ops (but stop at 1.5 x ``seconds`` regardless), or run ``max_ops`` ops.
    Each op is bracketed by speed probes (probe.py); ``slowdown`` holds
    their mean per op.

    ``call`` runs one argv and returns the exit code; tests substitute it.
    """
    times: list[float] = []
    slow: list[float] = []
    failures: list[str] = []
    failed = golden_checked = 0
    counters: Counter = Counter()
    busy = 0.0
    rss_kib = 0
    for i, op in enumerate(ops):
        if max_ops is not None and i >= max_ops:
            break
        if seconds is not None and busy >= seconds and (
                i >= min_ops or busy >= 1.5 * seconds):
            break
        path = tmpdir / f"op{op.suffix}"
        argv = list(op.argv) + ["--out", str(path)]
        rc, error = None, None
        before = slowdown()
        if tracer is not None:
            tracer.op, tracer.enabled = i, True
        t0 = time.perf_counter()
        try:
            rc = call(argv)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        slow.append((before + slowdown()) / 2)
        times.append(dt)
        busy += dt
        rss_kib = max(rss_kib,
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        problems, compared = check_op(op, rc, error, path, golden)
        golden_checked += compared
        counters.update(report_counters(op, path))
        if problems:
            failed += 1
            if len(failures) < MAX_FAILURE_NOTES:
                failures.append(f"{op.key}: {'; '.join(problems)}")
        for leftover in (path, Path(str(path) + ".ckpt")):
            leftover.unlink(missing_ok=True)
    return {"op_times": times, "slowdown": slow, "attempted": len(times),
            "failed": failed, "failures": failures,
            "golden_checked": golden_checked,
            "busy_s": busy, "peak_rss_kib": rss_kib,
            "counters": dict(counters)}


def machine_record() -> dict:
    import numpy

    from kglab import _kernels

    select = getattr(_kernels, "select_backend", None)
    try:
        backend = select() if select else None
    except (RuntimeError, ValueError) as exc:
        backend = f"error: {exc}"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "KGLAB_KERNEL": os.environ.get("KGLAB_KERNEL"),
        "kernel_backend": backend,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--ops", type=int)
    ap.add_argument("--trace", help="write spans here and report layers")
    ap.add_argument("--tmp", required=True, type=Path)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    import kglab.cli

    if src not in Path(kglab.cli.__file__).resolve().parents:
        print(f"kglab imported from {kglab.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    args.tmp.mkdir(parents=True, exist_ok=True)
    result = run_loop(op_stream(args.workload, args.seed), args.tmp,
                      load_golden(), seconds=args.seconds,
                      min_ops=args.min_ops, max_ops=args.ops, tracer=tracer)
    result["machine"] = machine_record()
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.totals()
        result["span_counters"] = dict(tracer.counters)
        result["absent"] = tracer.absent
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
