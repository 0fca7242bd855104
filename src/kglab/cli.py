"""Command-line front end: deterministic experiment sweeps with CSV/JSONL
output.

Subcommands: count, overlap, variance, gcdsum, cf, hausdorff, lemma3-sweep.
Every output file starts with a metadata line (tool version, resolved
config, RNG algorithm, scale, shell-count mode); identical configs produce
byte-identical bodies regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .cfrac import (CFExpansion, cf_expand, cf_quotients, cf_to_surd,
                    convergents, make_liouville)
from .counting import (CountReport, CountTable, check_precision_range,
                       count_by_thresholds, make_report)
from .fixedpoint import DEFAULT_SCALE_BITS, MIN_SCALE_BITS, PrecisionError
from .lattice import (LatticeVector, canonical, gcd_power_sum,
                      gcd_power_sum_sweep, primorials)
from .psifunc import (ApproxFunction, Clamp, PowerLaw, TablePsi, Window,
                      eval_psi, hausdorff_exponent, hausdorff_partial_sum)
from .rng import ALGORITHM_ID, RngStream, derive_seed
from .surd import QuadraticSurd
from .torus import (TorusSet1D, as_shift, is_parallel, lemma3_class,
                    over_unit, overlap_2d, overlap_2d_grid_oracle,
                    overlap_exact_1d, overlap_sweep_oracle)
from .variance import (SweepRow, SweepSummary, sweep_classes, variance_full,
                       variance_window)
from .witness import (ETA_MAX_DEFAULT, NonLiouvilleWitness, WitnessFitFailure,
                      fit_witness, vanish_threshold)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECISION = 3

SHELL_COUNT_MODE = "enumerated-8q"
MAIN_TERM_NOTE = (
    "psi_exact uses the enumerated shell size 8q (16*sum q*psi); psi_paper "
    "uses the stated normalization 16*sum q*psi + 8*sum psi, i.e. shell "
    "size 8q+4; the two differ by 8*sum psi"
)
COUNT_DOMAIN_NOTE = "0 < |q| <= Q; the q = 0 vector is excluded"


class ConfigError(ValueError):
    pass


class OutputError(Exception):
    """--out, or the checkpoint beside it, cannot be written."""

    def __init__(self, path: str, exc: OSError) -> None:
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


# -- spec-string parsing -------------------------------------------------------


def parse_gamma(spec: str):
    """'sqrt:2' | 'surd:a,b,r,d' | 'cf:a0[,pre...];per,...' | 'liouville:k'.

    'liouville:k' is the surd of ``make_liouville(k)``, a negative test of
    the witness fitter, not a finite-Q model of a Liouville number: for
    k >= 2 it is [0; 2, 4.8e24, ...], within 1e-24 below 1/2, so at every
    Q the lab reaches it behaves as the rational 1/2, and ``lemma3-sweep``
    exits 1 with a failed witness fit (worst_q=2).
    """
    try:
        kind, _, rest = spec.partition(":")
        if kind == "sqrt":
            return QuadraticSurd.sqrt(int(rest))
        if kind == "surd":
            a, b, r, d = (int(x) for x in rest.split(","))
            return QuadraticSurd(a, b, r, d)
        if kind == "cf":
            head, _, per = rest.partition(";")
            head_vals = [int(x) for x in head.split(",")]
            period = tuple(int(x) for x in per.split(","))
            return cf_to_surd(CFExpansion(head_vals[0], tuple(head_vals[1:]),
                                          period))
        if kind == "liouville":
            return cf_to_surd(make_liouville(int(rest)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad gamma spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad gamma spec {spec!r}")


def parse_psi(spec: str) -> ApproxFunction:
    """'pow:c0,a' | 'const:v' | 'table:path|k=v,...' | 'clamp:<inner>' |
    'window:lo,hi,<inner>' (inner specs nest)."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "pow":
            c0, a = rest.split(",")
            return PowerLaw(Fraction(c0), Fraction(a))
        if kind == "const":
            v = Fraction(rest)
            if v == 0:
                return TablePsi({})
            return PowerLaw(v, Fraction(0))
        if kind == "table":
            if "=" in rest:
                vals = {}
                for item in rest.split(","):
                    k, _, v = item.partition("=")
                    vals[int(k)] = Fraction(v)
                return TablePsi(vals)
            return TablePsi.from_csv(rest)
        if kind == "clamp":
            return Clamp(parse_psi(rest))
        if kind == "window":
            lo, hi, inner = rest.split(",", 2)
            return Window(parse_psi(inner), int(lo), int(hi))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad psi spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad psi spec {spec!r}")


def parse_vec(spec: str) -> LatticeVector:
    try:
        a, b = (int(x) for x in spec.split(","))
        return LatticeVector(a, b)
    except ValueError as exc:
        raise ConfigError(f"bad vector spec {spec!r}: {exc}") from exc


def parse_set1d(spec: str) -> TorusSet1D:
    """'d=3,t=1/10,shift=1/12'."""
    fields = {}
    try:
        for item in spec.split(","):
            k, _, v = item.partition("=")
            fields[k.strip()] = v.strip()
        return TorusSet1D(int(fields["d"]), Fraction(fields.get("shift", "0")),
                          Fraction(fields["t"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad 1-D set spec {spec!r}: {exc}") from exc


def parse_qlist(spec: str) -> list[int]:
    try:
        qs = [int(x) for x in spec.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad Q list {spec!r}") from exc
    if not qs or any(q < 1 for q in qs):
        raise ConfigError(f"Q values must be >= 1 (got {spec!r})")
    return sorted(set(qs))


# -- config file -----------------------------------------------------------------


def load_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                k, _, v = line.partition("=")
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def apply_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config file, then from COMMANDS."""
    file_cfg = load_config_file(args.config) if args.config else {}
    flags = COMMANDS[args.command][2]
    unknown = sorted(set(file_cfg) - set(flags))
    if unknown:
        raise ConfigError(f"{args.config}: no {args.command} option named "
                          + ", ".join(unknown))
    for key, value in file_cfg.items():
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{args.config}: {key} must be one of "
                              f"{', '.join(CHOICES[key])}, got {value!r}")
    for key, (default, _) in flags.items():
        if getattr(args, key) is None:
            setattr(args, key, file_cfg.get(key, default))


# -- output ------------------------------------------------------------------------


# workers is execution machinery, not experiment config: results must be
# byte-identical across pool sizes, so it stays out of the metadata echo,
# as do the two flags that name files
_NOT_ECHOED = ("config", "out", "workers")


def config_echo(args: argparse.Namespace) -> dict:
    """The resolved value of each flag of the command, less _NOT_ECHOED."""
    return {k: getattr(args, k) for k in COMMANDS[args.command][2]
            if k not in _NOT_ECHOED}


def metadata(args: argparse.Namespace, **extra) -> dict:
    md = {
        "tool": "kglab",
        "version": __version__,
        "command": args.command,
        "config": config_echo(args),
        "rng_algorithm": ALGORITHM_ID,
        "scale_bits": getattr(args, "scale_bits", None),
        "shell_count_mode": SHELL_COUNT_MODE,
        "main_term_note": MAIN_TERM_NOTE,
        "count_domain": COUNT_DOMAIN_NOTE,
    }
    md.update(extra)
    return md


def csv_line(values) -> str:
    """One CRLF-terminated CSV record, as the ``csv`` module's writer
    writes it with minimal quoting (RFC 4180): None is an empty cell, any
    other value its str() (for a float the same text as the repr() that
    module uses), and a cell is quoted, with '"' doubled, only if it holds
    a comma, '"', CR or LF.  The joined line is checked once; only a line
    that needs quoting is rebuilt cell by cell."""
    cells = ["" if v is None else str(v) for v in values]
    line = ",".join(cells)
    if (line.count(",") != len(cells) - 1 or '"' in line or "\r" in line
            or "\n" in line):
        line = ",".join(
            '"' + c.replace('"', '""') + '"'
            if any(ch in c for ch in ',"\r\n') else c for c in cells)
    elif line == "" and len(cells) == 1:
        line = '""'  # a lone empty field, quoted so the row is not blank
    return line + "\r\n"


def fraction_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for integers n and d >= 1: n/d in lowest terms,
    or the integer alone when d divides n (0 when n is 0).

    With n = 2^j a and d = 2^k m, a and m odd, gcd(n, d) =
    2^min(j, k) gcd(a, m), so n/d in lowest terms is a/g over m/g,
    g = gcd(a, m), with 2^|j - k| put back on the side that had more.
    Both powers of two are shifted off first, so the one gcd runs on odd
    parts: the sweep's overlap denominators carry 2^scale_bits and, for a
    power-law psi with a non-integer exponent, a power-of-two psi
    denominator, so m is a few bits long."""
    if not n:
        return "0"
    j = (n & -n).bit_length() - 1
    k = (d & -d).bit_length() - 1
    n >>= j
    d >>= k
    g = gcd(n, d)
    n //= g
    d //= g
    if j > k:
        n <<= j - k
    else:
        d <<= k - j
    return str(n) if d == 1 else f"{n}/{d}"


class Output:
    """The one collector of CSV or JSONL rows: the body is one list of
    lines, and the metadata line goes in front of it when it is written.

    ``row`` appends one dict as a line: for CSV row[c] for each column
    through ``csv_line``, for JSONL the dict with sorted keys; other values
    (Fractions) become str() in both.  A command may append lines it
    formatted itself to ``lines`` (``lemma3-sweep``'s CSV rows).
    ``finish(meta)`` writes the metadata line and the body through ``emit``.
    """

    def __init__(self, path: str, fmt: str, columns=()) -> None:
        self.path = path
        self.csv = fmt == "csv"
        self.columns = columns
        self.lines = [csv_line(columns)] if self.csv and columns else []

    def row(self, row: dict) -> None:
        if self.csv:
            self.lines.append(csv_line(map(row.__getitem__, self.columns)))
        else:
            self.lines.append(json.dumps(row, sort_keys=True, default=str)
                              + "\n")

    def finish(self, meta: dict) -> None:
        text = json.dumps(meta if self.csv else {"meta": meta},
                          sort_keys=True, default=str)
        head = f"# {text}\r\n" if self.csv else text + "\n"
        emit(self.path, [head, *self.lines])


def emit(path: str, lines: list[str]) -> None:
    """The one place output leaves the program: stdout for '-', else path.

    A reader that closes stdout early (``| head``) is an OutputError.
    stdout is then pointed at the null device, so the interpreter's last
    flush of what is still buffered does not fail a second time."""
    if path == "-":
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise OutputError("stdout", exc) from exc
    else:
        write_atomic(path, lines)


def emit_document(args: argparse.Namespace, body: dict) -> None:
    """Write one JSON document: the metadata under "meta" beside body."""
    doc = {"meta": metadata(args), **body}
    emit(args.out, [json.dumps(doc, sort_keys=True, default=str) + "\n"])


def write_atomic(path: str, lines: list[str]) -> None:
    """Write lines to a temp file beside path, then os.replace it onto path,
    so a crash mid-write leaves the old file (or none), never a torn one.

    A symlink is resolved first, so the file it names is replaced and the
    link stays a link.  Something that exists but is not a regular file (a
    FIFO, a device) cannot be replaced without destroying it, so the lines
    are written to it directly."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        try:
            with open(real, "w", newline="") as fh:
                fh.writelines(lines)
        except OSError as exc:
            raise OutputError(path, exc) from exc
        return
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.writelines(lines)
        os.replace(tmp, real)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OutputError(path, exc) from exc
        raise


# -- count ------------------------------------------------------------------------


def _count_trial(payload) -> tuple[int, list[int]]:
    (gamma, thresholds, q_max, scale_bits, base_seed, trial) = payload
    seed = derive_seed(base_seed, trial)
    rng = RngStream(seed)
    alpha = rng.sample_torus_point(scale_bits)
    return trial, count_by_thresholds(alpha, q_max, gamma, thresholds,
                                      scale_bits)


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the config echo less ``format``: a checkpoint holds counts,
    which do not depend on the output format."""
    echo = config_echo(args)
    del echo["format"]
    blob = json.dumps(echo, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_checkpoint(path: str, head: str, trials: int,
                     width: int) -> dict[int, list[int]]:
    """The finished trials of a checkpoint whose first line is head.  The
    first record that is not an int trial in range(trials) with width int
    counts ends the resume, as a torn tail does; a path that cannot be
    opened is an OutputError (the checkpoint is rewritten there)."""
    done: dict[int, list[int]] = {}
    try:
        fh = open(path, "rb")  # json.loads fails a line with a bad byte
    except FileNotFoundError:
        return done
    except OSError as exc:
        raise OutputError(path, exc) from exc
    with fh:
        if fh.readline() != head.encode():
            return done
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:
                break
            if not (isinstance(rec, dict) and type(rec.get("trial")) is int
                    and 0 <= rec["trial"] < trials
                    and type(rec.get("counts")) is list
                    and len(rec["counts"]) == width
                    and all(type(c) is int for c in rec["counts"])):
                break
            done[rec["trial"]] = rec["counts"]
    return done


def cmd_count(args: argparse.Namespace) -> int:
    qlist = parse_qlist(args.Q)
    q_max = qlist[-1]
    trials = int(args.trials)
    workers = int(args.workers)
    seed = int(args.seed)
    scale_bits = int(args.scale_bits)
    delta_log = Fraction(args.delta_log)
    if trials < 1 or workers < 1:
        raise ConfigError("trials and workers must be >= 1")
    gamma = parse_gamma(args.gamma)
    psi = parse_psi(args.psi)
    check_precision_range(q_max, scale_bits)
    table = CountTable(psi, qlist, scale_bits)

    cfg_hash = _config_hash(args)
    ckpt_path = None if args.out == "-" else args.out + ".ckpt"
    ckpt_head = json.dumps({"config_hash": cfg_hash}) + "\n"
    done = (_load_checkpoint(ckpt_path, ckpt_head, trials, q_max + 1)
            if ckpt_path else {})
    payloads = [(gamma, table.thresholds, q_max, scale_bits, seed, t)
                for t in range(trials) if t not in done]
    results: dict[int, list[int]] = {}
    with contextlib.ExitStack() as stack:
        try:
            ckpt = (stack.enter_context(open(ckpt_path, "w")) if ckpt_path
                    else None)
        except OSError as exc:
            raise OutputError(ckpt_path, exc) from exc

        def record(trial: int, counts: list[int]) -> None:
            results[trial] = counts
            if ckpt:
                rec = {"trial": trial, "counts": counts}
                ckpt.write(json.dumps(rec) + "\n")
                ckpt.flush()

        if ckpt:
            ckpt.write(ckpt_head)
        for t in sorted(done):
            record(t, done[t])
        run = map
        pool = min(workers, len(payloads))
        if pool > 1:
            # imported here, so only a multi-process run loads the pool
            from concurrent.futures import ProcessPoolExecutor
            run = stack.enter_context(ProcessPoolExecutor(pool)).map
        for trial, counts in run(_count_trial, payloads):
            record(trial, counts)

    meta = metadata(args, config_hash=cfg_hash, base_seed=seed,
                    seed_derivation="splitmix64(seed ^ salt + (trial+1)*gamma)")
    out = Output(args.out, args.format, columns=CountReport.CSV_COLUMNS)
    for trial in range(trials):
        counts = results[trial]
        for Q in qlist:
            rep = make_report(derive_seed(seed, trial), counts, Q, table,
                              delta_log, args.gamma, args.psi)
            out.row(rep.json_dict())
    try:
        out.finish(meta)
    except OutputError:
        # main reports it; no checkpoint is left beside an --out that
        # cannot be written
        _remove_checkpoint(ckpt_path)
        raise
    _remove_checkpoint(ckpt_path)
    return EXIT_OK


def _remove_checkpoint(path: str | None) -> None:
    if path and os.path.exists(path):
        os.remove(path)


# -- overlap ---------------------------------------------------------------------


def shift_scale_bits(args: argparse.Namespace) -> int:
    """--scale-bits of a command that rounds a surd shift down to a
    fixed-point value: fewer than the guard bits ``count`` keeps below its
    scale (down to 0, which rounds sqrt(2) to 1) is a precision error."""
    scale_bits = int(args.scale_bits)
    if scale_bits < MIN_SCALE_BITS:
        raise PrecisionError(
            f"scale_bits must be >= {MIN_SCALE_BITS}, got {scale_bits}")
    return scale_bits


def cmd_overlap(args: argparse.Namespace) -> int:
    scale_bits = shift_scale_bits(args)
    record: dict = {}
    if args.set_a and args.set_b:
        A, B = parse_set1d(args.set_a), parse_set1d(args.set_b)
        value = overlap_exact_1d(A, B)
        oracle = overlap_sweep_oracle(A, B)
        record = {
            "kind": "1d",
            "value": str(value),
            "oracle": str(oracle),
            "status": "ok" if value == oracle else "FORMULA-ORACLE-MISMATCH",
        }
    elif args.q and args.r:
        if not args.gamma or not args.psi:
            raise ConfigError("2-D overlap needs --gamma and --psi")
        qv, rv = parse_vec(args.q), parse_vec(args.r)
        gamma = parse_gamma(args.gamma)
        psi = parse_psi(args.psi)
        value, tag = overlap_2d(qv, rv, psi, gamma, scale_bits)
        record = {"kind": "2d", "value": str(value), "tag": tag,
                  "status": "ok"}
        if args.resolution:
            est, bnd = overlap_2d_grid_oracle(qv, rv, psi, gamma,
                                              int(args.resolution), scale_bits)
            within = abs(est - value) <= bnd
            record["oracle"] = str(est)
            record["oracle_bound"] = str(bnd)
            if not within:
                record["status"] = "ORACLE-DISAGREES"
        if is_parallel(qv, rv) and rv.norm < qv.norm:
            try:
                w = fit_witness(gamma, psi, max(qv.norm, 2))
            except ValueError:
                w = None  # psi without a decaying power-law core: no bound
            if isinstance(w, NonLiouvilleWitness):
                # q = s1*d*P and r = s2*e*P with e < d, as in overlap_2d
                d, _, s1 = canonical(qv.q1, qv.q2)
                e, _, s2 = canonical(rv.q1, rv.q2)
                thr = vanish_threshold(w, d)
                (pn, rn, a), u = over_unit(eval_psi(psi, qv.norm),
                                           eval_psi(psi, rv.norm),
                                           as_shift(gamma, scale_bits))
                vanishes = rv.norm > thr
                bnum, _, _, _, zero_ok, bound_ok = lemma3_class(d, pn, e, rn,
                                                                a, u)
                record["parallel_bound_kind"] = "zero" if vanishes else "bound"
                record["vanish_threshold"] = thr
                if not vanishes:
                    record["parallel_bound"] = fraction_text(bnum, d * u * u)
                if not (zero_ok if vanishes else bound_ok)[s1 != s2]:
                    record["status"] = ("VANISH-VIOLATION" if vanishes
                                        else "BOUND-VIOLATION")
    else:
        raise ConfigError("need either --set-a/--set-b or --q/--r")

    emit_document(args, {"result": record})
    return EXIT_OK if record["status"] == "ok" else EXIT_FAIL


# -- variance ---------------------------------------------------------------------


def cmd_variance(args: argparse.Namespace) -> int:
    gamma = parse_gamma(args.gamma)
    psi = parse_psi(args.psi)
    scale_bits = shift_scale_bits(args)
    out = Output(args.out, "jsonl")
    if args.window:
        try:
            u_spec, v_spec = args.window.split(":")
        except ValueError as exc:
            raise ConfigError("window syntax: q1,q2:r1,r2") from exc
        rep = variance_window(tuple(parse_vec(u_spec)), tuple(parse_vec(v_spec)),
                              psi, gamma, scale_bits)
        out.row(rep.json_dict())
    else:
        for Q in parse_qlist(args.Q):
            rep = variance_full(Q, psi, gamma, scale_bits)
            out.row(rep.json_dict())
    out.finish(metadata(args))
    return EXIT_OK


# -- gcdsum -----------------------------------------------------------------------


def cmd_gcdsum(args: argparse.Namespace) -> int:
    k = int(args.k)
    cap = None if args.cap in (None, "", "none") else Fraction(args.cap)
    out = Output(args.out, args.format, columns=("q", "sum", "normalized"))
    if args.primorials:
        rows = [(q, *gcd_power_sum(q, k, cap))
                for q in primorials(int(args.primorials))]
    elif args.q_max:
        rows = gcd_power_sum_sweep(int(args.q_max), k, cap)
    elif args.q:
        rows = [(int(args.q), *gcd_power_sum(int(args.q), k, cap))]
    else:
        raise ConfigError("need one of --q, --q-max, --primorials")
    for q, total, norm in rows:
        out.row({"q": q, "sum": total, "normalized": norm})
    out.finish(metadata(args))
    return EXIT_OK


# -- cf ---------------------------------------------------------------------------


def cmd_cf(args: argparse.Namespace) -> int:
    spec = args.gamma
    kind, _, rest = spec.partition(":")
    try:
        terms = int(args.terms)
    except ValueError as exc:
        raise ConfigError(f"bad terms {args.terms!r}") from exc
    if terms < 0:
        raise ConfigError(f"terms must be >= 0 (got {args.terms!r})")
    if kind == "liouville":
        # the expansion as built: the surd of liouville:7 takes ~20 s
        cf = make_liouville(int(rest))
        a0, quots = cf.a0, cf.quotients(terms)
    else:
        gamma = parse_gamma(spec)
        cf = cf_expand(gamma)
        a0, *quots = (a for a, _ in itertools.islice(cf_quotients(gamma),
                                                      terms + 1))
    convs = convergents(a0, quots)
    emit_document(args, {
        "a0": a0,
        "preperiod": None if cf is None else list(cf.preperiod),
        "period": None if cf is None else list(cf.period),
        "quotients": [str(a) for a in quots],
        "convergents": [{"p": str(p), "q": str(q)} for p, q in convs],
    })
    return EXIT_OK


# -- hausdorff ---------------------------------------------------------------------


def cmd_hausdorff(args: argparse.Namespace) -> int:
    a = Fraction(args.exponent)
    c0 = Fraction(args.coefficient)
    psi = PowerLaw(c0, a)
    t, dim = hausdorff_exponent(psi)
    limit = int(args.probe_limit)
    probes = {}
    for side, s in (("above", float(t) + 0.1), ("below", float(t) - 0.1)):
        probes[side] = {"s": s,
                        "partial_sum": hausdorff_partial_sum(psi, s, limit)}
    emit_document(args, {"t": str(t), "dim": str(dim), "probes": probes})
    return EXIT_OK


# -- lemma3-sweep -------------------------------------------------------------------


def cmd_vanishing_sweep(args: argparse.Namespace) -> int:
    gamma = parse_gamma(args.gamma)
    psi = parse_psi(args.psi)
    try:
        Q = int(args.Q)
    except ValueError as exc:
        raise ConfigError(f"bad Q {args.Q!r}") from exc
    if Q < 2:
        raise ConfigError(f"Q must be >= 2 (got {args.Q!r})")
    scale_bits = shift_scale_bits(args)
    w = fit_witness(gamma, psi, Q, eta_max=int(args.eta_max))
    if isinstance(w, WitnessFitFailure):
        print(f"witness fit failed: {w}", file=sys.stderr)
        return EXIT_FAIL
    summary = SweepSummary()
    cols = SweepRow._fields
    out = Output(args.out, args.format, columns=cols)
    for (d, e, r, q, thr, bound, same, s_same, opp,
         s_opp) in sweep_classes(Q, psi, w, gamma, scale_bits, summary,
                                 fraction_text):
        if out.csv:
            # every cell is an int, a reduced fraction or a fixed word, so
            # none needs quoting and the lines skip csv_line
            head = f"{d},{e},{r},{q},{thr},"
            tail = ",," if bound is None else f",{bound},"
            out.lines.append(f"{head}{same}{tail}{s_same},same\r\n")
            out.lines.append(f"{head}{opp}{tail}{s_opp},opp\r\n")
        else:
            out.row(dict(zip(cols, (d, e, r, q, thr, same, bound, s_same,
                                    "same"))))
            out.row(dict(zip(cols, (d, e, r, q, thr, opp, bound, s_opp,
                                    "opp"))))
    out.finish(metadata(
        args,
        witness={"eta": w.eta, "c": str(w.c), "C": str(w.C),
                 "epsilon": str(w.epsilon), "M": w.M, "K": str(w.K)},
        summary={"rows": summary.n_rows,
                 "zero_confirmed": summary.n_zero_confirmed,
                 "bound_satisfied": summary.n_bound_satisfied,
                 "violations": summary.n_violations,
                 "max_bound_ratio": float(summary.max_bound_ratio)}))
    return EXIT_OK if summary.ok() else EXIT_FAIL


# -- parser ------------------------------------------------------------------------


# Each subcommand: handler, help and {key: (default, help)} for every flag,
# spelled --key with '_' as '-'. The parser leaves every flag None, so
# apply_config can tell an unset flag from a --config value.
_COMMON = {"config": (None, "key=value config file"),
           "out": ("-", "output path or - for stdout")}
_ROWS = {**_COMMON, "format": ("csv", None)}  # commands writing CSV or JSONL
_SCALE = {"scale_bits": (str(DEFAULT_SCALE_BITS), None)}  # commands that round
CHOICES = {"format": ("csv", "jsonl")}  # flags with a fixed set of values
GAMMA_HELP = ("sqrt:D | surd:a,b,r,d | cf:a0[,pre...];per,... | liouville:k "
              "(a witness-fit negative test: for k >= 2 it lies within 1e-24 "
              "below 1/2, so at finite Q it acts as the rational 1/2)")

COMMANDS = {
    "count": (cmd_count, "counting-function experiments", {
        **_ROWS, **_SCALE, "gamma": ("sqrt:2", GAMMA_HELP),
        "psi": ("pow:1,3/4", None), "Q": ("100", "height or comma list"),
        "trials": ("1", None), "seed": ("0", None), "delta_log": ("1/2", None),
        "workers": (str(os.cpu_count() or 1), None)}),
    "overlap": (cmd_overlap, "single overlap record", {
        **_COMMON, **_SCALE, "gamma": (None, GAMMA_HELP), "psi": (None, None),
        "q": (None, "vector q1,q2"), "r": (None, "vector r1,r2"),
        "set_a": (None, None), "set_b": (None, None),
        "resolution": (None, None)}),
    "variance": (cmd_variance, "JSONL variance reports over Q or a window", {
        **_COMMON, **_SCALE, "gamma": ("sqrt:2", GAMMA_HELP),
        "psi": ("pow:1/4,1/2", None), "Q": ("100", "comma list of heights"),
        "window": (None, "u1,u2:v1,v2")}),
    "gcdsum": (cmd_gcdsum, "gcd power-sum diagnostics", {
        **_ROWS, "q": (None, None), "q_max": (None, None), "k": ("2", None),
        "cap": (None, "exponent cap, e.g. 3/4"), "primorials": (None, None)}),
    "cf": (cmd_cf, "continued-fraction expansion", {
        **_COMMON, "gamma": ("sqrt:2", GAMMA_HELP), "terms": ("10", None)}),
    "hausdorff": (cmd_hausdorff, "critical exponent and probes", {
        **_COMMON, "exponent": ("2", None), "coefficient": ("8", None),
        "probe_limit": ("1000000", None)}),
    "lemma3-sweep": (cmd_vanishing_sweep, "vanishing/bound sweep", {
        **_ROWS, **_SCALE, "gamma": ("sqrt:2", GAMMA_HELP),
        "psi": ("pow:1/4,1/2", None), "Q": ("100", None),
        "eta_max": (str(ETA_MAX_DEFAULT), None)}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The kglab parser, built on first use and then shared: parsing keeps
    no state in it."""
    p = argparse.ArgumentParser(prog="kglab", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for key, (_, flag_help) in flags.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key,
                            default=None, choices=CHOICES.get(key),
                            help=flag_help)
    return p


@functools.cache
def _value_flags() -> frozenset[str]:
    return frozenset("--" + key.replace("_", "-")
                     for _, _, keys in COMMANDS.values() for key in keys)


def _bind_negative_values(argv: list[str]) -> list[str]:
    """Rewrite '--q -6,3' as '--q=-6,3' after any flag of a subcommand, all
    of which take a value: argparse takes a separate value of the form
    -<digit>... for a flag and exits 2.  A lone '-', as in '--out -', is
    left as it is."""
    flags = _value_flags()
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in flags and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = _bind_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        apply_config(args)
        return COMMANDS[args.command][0](args)
    except PrecisionError as exc:
        print(f"precision range: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
