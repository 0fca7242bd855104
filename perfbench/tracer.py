"""In-memory span tracer that wraps kglab's layer functions from outside.

Each target is patched in the module that *calls* it (``kglab.counting``
looks up ``count_by_shell_raw`` in its own globals, so that is where the
wrapper goes).  A span records name, op id, parent span, start and
duration; a span's self time is its duration minus the durations of the
wrapped calls nested directly inside it.  Spans stay in typed arrays and are
written out once, when the run ends.  A target that no longer exists is
recorded as absent, so the trace survives refactors of the program.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from array import array
from collections import defaultdict


def _vectors(args, kwargs, result) -> dict:
    # count_by_shell_raw(m1, m2, mg, scale_bits, thresholds, Q, backend)
    Q = kwargs["Q"] if "Q" in kwargs else args[5]
    return {"kernels.vectors": (2 * Q + 1) ** 2 - 1}


def _output_bytes(args, kwargs, result) -> dict:
    # Output.finish(self): the benchmark always passes --out <file>
    return {"cli.output_bytes": os.path.getsize(args[0].path)}


# (module that makes the call, attribute path, span name, counter hook)
TARGETS = (
    ("kglab.cli", "main", "cli.main", None),
    ("kglab.cli", "Output.finish", "cli.output_finish", _output_bytes),
    ("kglab.cli", "make_report", "counting.make_report", None),
    ("kglab.cli", "variance_full", "variance.variance_full", None),
    ("kglab.cli", "variance_window", "variance.variance_window", None),
    ("kglab.cli", "vanishing_bound_sweep", "variance.vanishing_bound_sweep",
     None),
    ("kglab.cli", "fit_witness", "witness.fit_witness", None),
    ("kglab.rng", "RngStream.sample_torus_point", "rng.sample_torus_point",
     None),
    ("kglab.counting", "count_by_shell_raw", "kernels.count_by_shell_raw",
     _vectors),
    ("kglab.counting", "psi_mantissas", "psifunc.psi_mantissas", None),
    ("kglab.counting", "main_term", "counting.main_term", None),
    ("kglab.counting", "chi_term", "counting.chi_term", None),
    ("kglab.variance", "overlap_1d_core", "torus.overlap_1d_core", None),
    ("kglab.variance", "vanish_threshold", "witness.vanish_threshold", None),
    ("kglab.variance", "shell", "lattice.shell", None),
    ("kglab.variance", "phi", "lattice.phi", None),
)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op = -1
        self.names: list[str] = []
        self.absent: list[str] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_self = array("d")
        self._stack: list[list] = []  # [span index, time of nested spans]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr_path, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{span} ({module_name}.{attr_path})")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span, fn, hook))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _wrap(self, span: str, fn, hook):
        nid = len(self.names)
        self.names.append(span)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_dur.append(0.0)
            self.span_self.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.span_start[idx] = t0
                self.span_dur[idx] = dur
                self.span_self[idx] = dur - frame[1]
            if hook is not None:
                for k, v in hook(args, kwargs, result).items():
                    self.counters[k] += v
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, total self seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for nid, dur, own in zip(self.span_name, self.span_dur,
                                 self.span_self):
            t = out[self.names[nid]]
            t["calls"] += 1
            t["s"] += dur
            t["self_s"] += own
        return out

    def write(self, path: str) -> None:
        """All spans as gzip CSV (id, op, parent, name, start, dur, self)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,op,parent,name,start_s,dur_s,self_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_op[i]},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i]:.9f},{self.span_dur[i]:.9f},"
                         f"{self.span_self[i]:.9f}\n")
