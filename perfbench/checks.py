"""Correctness checks on one op's output, run outside the timed region.

Two kinds:

* a golden SHA-256 of the output body (the metadata line excluded), for the
  ops recorded in ``golden.json``;
* checks that hold for every seed: the count at height 100 against the
  shell-walk reference kernel, the exact overlap-evaluation and row counts,
  the variance ratio caps of acceptance criteria 4 and 5, and sampled sweep
  rows against the endpoint-sweep overlap oracle.

``check_op`` returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from workloads import COUNT_Q, Op, shell_pairs

GOLDEN_PATH = Path(__file__).with_name("golden.json")
VARIANCE_RATIO_CAP = 10   # acceptance criterion 4, full range
WINDOW_RATIO_CAP = 40     # acceptance criterion 5, order windows
SWEEP_ORACLE_SAMPLES = 3


def load_golden() -> dict[str, str]:
    """{op key: sha256 of the body}, across all workloads."""
    if not GOLDEN_PATH.exists():
        return {}
    data = json.loads(GOLDEN_PATH.read_text())
    return {key: digest for per_workload in data["digests"].values()
            for key, digest in per_workload.items()}


def split_output(data: bytes) -> tuple[bytes, bytes]:
    """(metadata line, body); the metadata line ends at the first newline."""
    head, sep, body = data.partition(b"\n")
    if not sep:
        raise ValueError("output has no metadata line")
    return head, body


def body_digest(data: bytes) -> str:
    return hashlib.sha256(split_output(data)[1]).hexdigest()


def _metadata(head: bytes) -> dict:
    text = head.decode().rstrip("\r")
    doc = json.loads(text[2:] if text.startswith("# ") else text)
    return doc.get("meta", doc)


def _csv_rows(body: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(body.decode(), newline="")))


def _check_count(op: Op, body: bytes) -> list[str]:
    from kglab._kernels import count_python
    from kglab.fixedpoint import DEFAULT_SCALE_BITS as S
    from kglab.psifunc import PowerLaw, psi_mantissas
    from kglab.rng import RngStream, derive_seed
    from kglab.surd import QuadraticSurd, surd_eval

    rows = _csv_rows(body)
    header, data = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    qs = tuple(int(r[col["Q"]]) for r in data)
    if qs != COUNT_Q:
        return [f"count rows have Q={qs}, want {COUNT_Q}"]
    ns = [int(r[col["N"]]) for r in data]
    (seed,) = op.params
    a1, a2 = RngStream(derive_seed(seed, 0)).sample_torus_point(S)
    thr = psi_mantissas(PowerLaw(Fraction(1), Fraction(3, 4)), COUNT_Q[0], S)
    mg = surd_eval(QuadraticSurd.sqrt(2), 1, S).mantissa
    ref = count_python(a1.mantissa, a2.mantissa, mg, S, thr, COUNT_Q[0])
    want = int(ref[1:].sum())
    problems = []
    if ns[0] != want:
        problems.append(f"N at Q={COUNT_Q[0]} is {ns[0]}, count_python "
                        f"gives {want}")
    if ns != sorted(ns):
        problems.append(f"N decreases with Q: {ns}")
    return problems


def _check_variance(op: Op, body: bytes) -> list[str]:
    lines = body.decode().splitlines()
    if len(lines) != 1:
        return [f"variance body has {len(lines)} lines, want 1"]
    rep = json.loads(lines[0])
    problems = []
    if rep["nonparallel"] != "0":
        problems.append(f"nonparallel is {rep['nonparallel']!r}, want '0'")
    measures = Fraction(rep["sum_measures"])
    ratio = Fraction(rep["variance"]) / measures if measures else Fraction(0)
    if op.kind == "variance-q":
        (Q,) = op.params
        want = shell_pairs(Q, 1)
        if rep["n_overlap_evals"] != want:
            problems.append(f"n_overlap_evals {rep['n_overlap_evals']} != "
                            f"sum m(m+1) = {want}")
        if rep["label"] != f"Q={Q}":
            problems.append(f"label {rep['label']!r}")
        cap = VARIANCE_RATIO_CAP
    else:
        (u1, u2), (v1, v2) = op.params
        if rep["label"] != f"window[{u1},{u2}..{v1},{v2}]":
            problems.append(f"label {rep['label']!r}")
        cap = WINDOW_RATIO_CAP
    if ratio > cap:
        problems.append(f"variance/measure ratio {float(ratio):.4f} > {cap}")
    return problems


def _check_sweep(op: Op, head: bytes, body: bytes) -> list[str]:
    from kglab.psifunc import PowerLaw, eval_psi
    from kglab.surd import QuadraticSurd
    from kglab.torus import TorusSet1D, as_shift, overlap_sweep_oracle

    D, Q = op.params
    summary = _metadata(head)["summary"]
    rows = _csv_rows(body)
    header, data = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    problems = []
    want_rows = shell_pairs(Q, -1)
    if len(data) != want_rows or summary["rows"] != want_rows:
        problems.append(f"{len(data)} rows (summary {summary['rows']}), want "
                        f"sum m(m-1) = {want_rows}")
    statuses = [r[col["status"]] for r in data]
    zero = statuses.count("zero-confirmed")
    violations = len(statuses) - zero - statuses.count("bound-satisfied")
    if violations or summary["violations"]:
        problems.append(f"{violations} violation rows (summary "
                        f"{summary['violations']})")
    if zero == 0 or zero != summary["zero_confirmed"]:
        problems.append(f"{zero} zero-confirmed rows (summary "
                        f"{summary['zero_confirmed']}), want a positive match")
    if not data:
        return problems
    psi = PowerLaw(Fraction(1, 16), Fraction(1, 2))
    shift = as_shift(QuadraticSurd.sqrt(D))
    sampled = random.Random(op.key).sample(
        range(len(data)), min(SWEEP_ORACLE_SAMPLES, len(data)))
    for i in sampled:
        r = data[i]
        d, e = int(r[col["d"]]), int(r[col["e"]])
        q, rn = int(r[col["q"]]), int(r[col["r"]])
        sign = 1 if r[col["rel"]] == "same" else -1
        want = overlap_sweep_oracle(TorusSet1D(d, shift, eval_psi(psi, q)),
                                    TorusSet1D(e, sign * shift,
                                               eval_psi(psi, rn)))
        if Fraction(r[col["overlap"]]) != want:
            problems.append(f"row {i} (d={d}, e={e}, q={q}, r={rn}): overlap "
                            f"{r[col['overlap']]} != oracle {want}")
    return problems


def check_op(op: Op, rc, error: str | None, path: Path,
             golden: dict[str, str]) -> tuple[list[str], bool]:
    """(problems, whether a golden digest was compared)."""
    if error is not None:
        return [f"raised {error}"], False
    if rc != 0:
        return [f"exit code {rc}"], False
    try:
        data = path.read_bytes()
        head, body = split_output(data)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], False
    problems = []
    want = golden.get(op.key)
    if want is not None and hashlib.sha256(body).hexdigest() != want:
        problems.append("body digest differs from golden")
    try:
        if op.kind == "count":
            problems += _check_count(op, body)
        elif op.kind == "sweep":
            problems += _check_sweep(op, head, body)
        else:
            problems += _check_variance(op, body)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems, want is not None


def report_counters(op: Op, path: Path) -> dict[str, int]:
    """Work counts the program reports in its own output."""
    try:
        head, body = split_output(path.read_bytes())
        if op.kind == "sweep":
            summary = _metadata(head)["summary"]
            return {"sweep_rows": summary["rows"],
                    "zero_confirmed": summary["zero_confirmed"]}
        if op.kind.startswith("variance"):
            return {"n_overlap_evals": sum(
                json.loads(line)["n_overlap_evals"]
                for line in body.decode().splitlines())}
    except (OSError, ValueError, KeyError):
        pass  # check_op reports the broken output as a failed op
    return {}
