import argparse
import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kglab import cli, torus
from kglab.cli import (EXIT_CONFIG, EXIT_FAIL, EXIT_OK, EXIT_PRECISION,
                       Output, build_parser, fraction_text, main, parse_gamma,
                       parse_psi, parse_qlist, parse_set1d)
from kglab.cfrac import cf_expand, cf_quotients, convergents
from kglab.lattice import LatticeVector
from kglab.psifunc import Clamp, PowerLaw, TablePsi, Window, psi_mantissas
from kglab.surd import QuadraticSurd
from kglab.torus import is_parallel, overlap_2d
from kglab.variance import vanishing_bound_sweep
from kglab.witness import NonLiouvilleWitness, fit_witness


# the default gamma (sqrt:2), parsed, and the shell thresholds of the
# default psi (pow:1,3/4) at Q = 20, scale 192, as cmd_count passes them
# to _count_trial
SQRT2 = QuadraticSurd.sqrt(2)
THRESHOLDS_20 = psi_mantissas(PowerLaw(1, Fraction(3, 4)), 20, 192)


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


def src_env():
    """The environment of a fresh interpreter that imports kglab from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestSpecParsing:
    def test_gamma_specs(self):
        assert parse_gamma("sqrt:2") == QuadraticSurd.sqrt(2)
        assert parse_gamma("surd:1,1,2,5") == QuadraticSurd.golden_ratio()
        assert parse_gamma("cf:1;2") == QuadraticSurd.sqrt(2)
        assert parse_gamma("cf:1,2;2,2") is not None
        assert not parse_gamma("liouville:2").is_rational

    def test_gamma_bad(self):
        from kglab.cli import ConfigError

        for bad in ("sqrt:4x", "surd:1,2", "nope:1", "cf:1"):
            with pytest.raises(ConfigError):
                parse_gamma(bad)

    def test_psi_specs(self):
        assert isinstance(parse_psi("pow:1,3/4"), PowerLaw)
        assert isinstance(parse_psi("clamp:pow:1,0"), Clamp)
        w = parse_psi("window:5,50,pow:1/4,1/2")
        assert isinstance(w, Window) and (w.lo, w.hi) == (5, 50)
        t = parse_psi("table:3=1/7,9=0.25")
        assert isinstance(t, TablePsi)
        zero = parse_psi("const:0")
        assert isinstance(zero, TablePsi) and not zero.values

    def test_set1d_spec(self):
        s = parse_set1d("d=3,t=1/10,shift=1/12")
        assert s.d == 3
        assert s.t == Fraction(1, 10)
        assert s.shift == Fraction(1, 12)
        assert parse_set1d("d=2,t=0.25").shift == 0

    def test_qlist(self):
        assert parse_qlist("100,50,100") == [50, 100]
        from kglab.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_qlist("0")


class TestCount:
    def test_deterministic_rerun(self, tmp_path):
        args = ("count", "--gamma", "sqrt:2", "--psi", "pow:1,3/4",
                "--Q", "30", "--trials", "3", "--seed", "7")
        code1, body1 = run(tmp_path, *args)
        code2, body2 = run(tmp_path, *args)
        assert code1 == code2 == EXIT_OK
        assert body1 == body2
        assert body1.startswith(b"# {")

    def test_worker_count_invariance(self, tmp_path):
        base = ("count", "--gamma", "sqrt:2", "--psi", "pow:1,3/4",
                "--Q", "25", "--trials", "4", "--seed", "3")
        _, body1 = run(tmp_path, *base, "--workers", "1")
        _, body8 = run(tmp_path, *base, "--workers", "8")
        assert body1 == body8

    def test_pool_no_larger_than_trials(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps in this process, so no
        # worker process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        base = ("count", "--Q", "20", "--trials", "3", "--seed", "5")
        code1, body1 = run(tmp_path, *base, "--workers", "1")
        assert sizes == []
        code64, body64 = run(tmp_path, *base, "--workers", "64")
        assert sizes == [3]
        assert code1 == code64 == EXIT_OK
        assert body64 == body1

    def test_column_order_frozen(self, tmp_path):
        _, body = run(tmp_path, "count", "--Q", "5", "--trials", "1")
        lines = body.decode().split("\r\n")
        assert lines[1] == "seed,Q,N,psi_exact,psi_paper,chi,err_norm,gamma_id,psi_id"

    def test_metadata_contents(self, tmp_path):
        _, body = run(tmp_path, "count", "--Q", "5", "--trials", "1")
        meta = json.loads(body.decode().split("\r\n")[0][2:])
        assert meta["rng_algorithm"] == "splitmix64-ctr/8"
        assert meta["shell_count_mode"] == "enumerated-8q"
        assert "8q+4" in meta["main_term_note"]
        assert meta["config"]["Q"] == "5"

    def test_invalid_q_exits_2(self, tmp_path):
        code, _ = run(tmp_path, "count", "--Q", "0")
        assert code == EXIT_CONFIG

    def test_precision_range_exits_3(self, tmp_path):
        code, _ = run(tmp_path, "count", "--Q", "200", "--scale-bits", "64")
        assert code == EXIT_PRECISION

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("Q = 10\ntrials = 2\nseed = 5\n")
        code, body = run(tmp_path, "count", "--config", str(cfg))
        assert code == EXIT_OK
        rows = body.decode().strip().split("\r\n")[2:]
        assert len(rows) == 2
        code, body = run(tmp_path, "count", "--config", str(cfg),
                         "--trials", "3")
        rows = body.decode().strip().split("\r\n")[2:]
        assert len(rows) == 3

    def test_config_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("Q = 5\ntrails = 3\n")  # typo for trials
        code, body = run(tmp_path, "count", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert body == b""
        assert "trails" in capsys.readouterr().err
        # a key of another subcommand is unknown here too
        cfg.write_text("window = 1,1:1,1\n")
        assert run(tmp_path, "count", "--config", str(cfg))[0] == EXIT_CONFIG

    def test_config_bad_format_exits_2(self, tmp_path, capsys, monkeypatch):
        # a value outside the flag's choices is rejected before any trial
        # runs, so no output or checkpoint is left
        trials = []
        monkeypatch.setattr(cli, "_count_trial", trials.append)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("Q = 5\ntrials = 2\nformat = xml\n")
        capsys.readouterr()
        code, body = run(tmp_path, "count", "--config", str(cfg),
                         "--workers", "1")
        assert (code, body, trials) == (EXIT_CONFIG, b"", [])
        assert "format" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_checkpoint_resume(self, tmp_path):
        out = tmp_path / "c.csv"
        args = ["count", "--Q", "20", "--trials", "2", "--seed", "1",
                "--out", str(out)]
        assert main(args) == EXIT_OK
        full = out.read_bytes()
        # seed a fake checkpoint with one finished trial and rerun
        ckpt = tmp_path / "c.csv.ckpt"
        meta = json.loads(full.decode().split("\r\n")[0][2:])
        from kglab.cli import _count_trial

        trial0 = _count_trial((SQRT2, THRESHOLDS_20, 20, 192, 1, 0))
        with open(ckpt, "w") as fh:
            fh.write(json.dumps({"config_hash": meta["config_hash"]}) + "\n")
            fh.write(json.dumps({"trial": 0, "counts": trial0[1]}) + "\n")
        assert main(args) == EXIT_OK
        assert out.read_bytes() == full
        assert not ckpt.exists()  # cleaned up after a completed run

    @pytest.mark.parametrize("damage", [
        "truncated-tail", "foreign-hash", "non-object-head", "list-record",
        "trial-out-of-range", "string-trial", "short-counts", "float-counts",
        "bad-byte"])
    def test_damaged_checkpoint(self, tmp_path, damage):
        out = tmp_path / "c.csv"
        args = ["count", "--Q", "20", "--trials", "3", "--seed", "2",
                "--workers", "2", "--out", str(out)]
        assert main(args) == EXIT_OK
        full = out.read_bytes()
        meta = json.loads(full.decode().split("\r\n")[0][2:])
        from kglab.cli import _count_trial

        trial0 = _count_trial((SQRT2, THRESHOLDS_20, 20, 192, 2, 0))[1]
        if damage == "truncated-tail":
            # a run killed mid-write: the last record is cut short
            lines = [{"config_hash": meta["config_hash"]},
                     {"trial": 0, "counts": trial0}]
            tail = json.dumps({"trial": 1, "counts": trial0})[:15]
        elif damage == "foreign-hash":
            # another config's checkpoint: its counts must not be used
            lines = [{"config_hash": "0" * 16}] + [
                {"trial": t, "counts": [999] * len(trial0)} for t in range(3)]
            tail = ""
        elif damage == "non-object-head":
            lines, tail = [5, {"trial": 0, "counts": trial0}], ""
        else:
            # a record that is not a finished trial of this run ends the
            # resume; a good record behind it is not used
            bad = {"list-record": [1, 2],
                   "trial-out-of-range": {"trial": 3, "counts": trial0},
                   "string-trial": {"trial": "1", "counts": trial0},
                   "short-counts": {"trial": 1, "counts": trial0[:-1]},
                   "float-counts": {"trial": 1,
                                    "counts": [float(c) for c in trial0]},
                   "bad-byte": None}[damage]
            lines = [{"config_hash": meta["config_hash"]},
                     {"trial": 0, "counts": trial0},
                     *([] if bad is None else [bad]),
                     {"trial": 2, "counts": [999] * len(trial0)}]
            tail = ""
        ckpt = tmp_path / "c.csv.ckpt"
        data = ("".join(json.dumps(x) + "\n" for x in lines) + tail).encode()
        if damage == "bad-byte":
            data = data.replace(b'"trial": 2', b'"trial": \xff2')
        ckpt.write_bytes(data)
        assert main(args) == EXIT_OK
        assert out.read_bytes() == full
        assert not ckpt.exists()

    def test_psi_evaluated_once_per_q(self, tmp_path, monkeypatch):
        # one psi table per run: the kernel thresholds and every report of
        # every trial and every Q read it
        calls = []
        raw = PowerLaw._raw

        def counted(self, q):
            calls.append(q)
            return raw(self, q)

        monkeypatch.setattr(PowerLaw, "_raw", counted)
        code, _ = run(tmp_path, "count", "--Q", "10,30", "--trials", "3",
                      "--workers", "1")
        assert code == EXIT_OK
        assert sorted(calls) == list(range(1, 31))

    def test_jsonl_format(self, tmp_path):
        _, body = run(tmp_path, "count", "--Q", "5", "--trials", "1",
                      "--format", "jsonl")
        lines = body.decode().strip().split("\n")
        assert "meta" in json.loads(lines[0])
        assert json.loads(lines[1])["Q"] == 5


class TestOtherCommands:
    def test_overlap_1d_record(self, tmp_path):
        code, body = run(tmp_path, "overlap", "--set-a", "d=2,t=1/10",
                         "--set-b", "d=1,t=1/10")
        assert code == EXIT_OK
        rec = json.loads(body)["result"]
        assert rec["value"] == "1/10" and rec["status"] == "ok"

    def test_overlap_2d_independent(self, tmp_path):
        code, body = run(tmp_path, "overlap", "--q", "1,0", "--r", "0,1",
                         "--psi", "const:1/10", "--gamma", "sqrt:2",
                         "--resolution", "200")
        assert code == EXIT_OK
        rec = json.loads(body)["result"]
        assert rec["value"] == "1/25" and rec["tag"] == "independent"

    def test_overlap_provably_zero(self, tmp_path):
        code, body = run(tmp_path, "overlap", "--q", "2,130", "--r", "1,65",
                         "--psi", "pow:1/4,1/2", "--gamma", "sqrt:2")
        assert code == EXIT_OK
        rec = json.loads(body)["result"]
        assert rec["parallel_bound_kind"] == "zero" and rec["value"] == "0"

    def test_variance_series(self, tmp_path):
        code, body = run(tmp_path, "variance", "--gamma", "sqrt:2",
                         "--psi", "pow:1/4,1/2", "--Q", "5,10,20")
        assert code == EXIT_OK
        lines = body.decode().strip().split("\n")
        reports = [json.loads(x) for x in lines[1:]]
        sums = [float(r["sum_measures"].split("/")[0]) /
                float(r["sum_measures"].split("/")[1]) for r in reports]
        assert sums == sorted(sums)  # Psi nondecreasing in Q

    def test_variance_window_cli(self, tmp_path):
        code, body = run(tmp_path, "variance", "--gamma", "sqrt:2",
                         "--psi", "const:1/10", "--window", "1,1:1,1")
        assert code == EXIT_OK
        rec = json.loads(body.decode().strip().split("\n")[1])
        assert rec["variance"] == "4/25"  # 1/5 * (1 - 1/5)

    @pytest.mark.parametrize("window", ["-1,1:1,1", "-2,1:2,-3"])
    def test_variance_window_negative_u(self, tmp_path, window):
        # a separate value starting with '-' must not be read as a flag
        argv = ["variance", "--gamma", "sqrt:2", "--psi", "const:1/10"]
        spaced = run(tmp_path, *argv, "--window", window)
        joined = run(tmp_path, *argv, f"--window={window}")
        assert spaced[0] == EXIT_OK
        assert spaced == joined

    @pytest.mark.parametrize("flag, value, argv", [
        ("--q", "-6,3", ["overlap", "--gamma", "sqrt:2", "--psi",
                         "pow:1/4,1/2", "--r", "4,-2"]),
        ("--r", "-4,2", ["overlap", "--gamma", "sqrt:2", "--psi",
                         "pow:1/4,1/2", "--q", "6,-3"]),
        ("--window", "-1,2:3,-4", ["variance", "--psi", "const:1/10"]),
    ])
    def test_negative_value_spaced_or_joined(self, tmp_path, flag, value,
                                             argv):
        # any flag's separate value of the form -<digit>... is its value
        spaced = run(tmp_path, *argv, flag, value)
        joined = run(tmp_path, *argv, f"{flag}={value}")
        assert spaced[0] == EXIT_OK
        assert spaced == joined

    def test_gcdsum_primorials(self, tmp_path):
        code, body = run(tmp_path, "gcdsum", "--primorials", "4", "--k", "2")
        assert code == EXIT_OK
        rows = body.decode().strip().split("\r\n")[2:]
        assert [r.split(",")[0] for r in rows] == ["2", "6", "30", "210"]

    def test_cf_output(self, tmp_path):
        code, body = run(tmp_path, "cf", "--gamma", "sqrt:2", "--terms", "4")
        doc = json.loads(body)
        assert doc["a0"] == 1 and doc["period"] == [2]
        assert doc["convergents"][3] == {"p": "17", "q": "12"}

    def test_hausdorff_output(self, tmp_path):
        code, body = run(tmp_path, "hausdorff", "--exponent", "2",
                         "--probe-limit", "1000")
        doc = json.loads(body)
        assert doc["t"] == "2" and doc["dim"] == "2"

    def test_import_leaves_numpy_and_pool_out(self):
        # a fresh interpreter: importing kglab.cli loads neither numpy nor
        # the process pool; hausdorff then imports numpy on first use
        code = (
            "import sys, kglab.cli\n"
            "lazy = ('numpy', 'concurrent.futures.process')\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "rc = kglab.cli.main(['hausdorff', '--exponent', '2',\n"
            "                     '--probe-limit', '1000', '--out', '-'])\n"
            "print(rc, 'numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert json.loads(lines[-2])["t"] == "2"
        assert lines[-1] == f"{EXIT_OK} True"

    def test_vanishing_sweep_csv(self, tmp_path):
        code, body = run(tmp_path, "lemma3-sweep", "--gamma", "sqrt:2",
                         "--psi", "pow:1/4,1/2", "--Q", "40")
        assert code == EXIT_OK
        lines = body.decode().split("\r\n")
        assert lines[1] == "d,e,r,q,threshold,overlap,bound,status,rel"
        meta = json.loads(lines[0][2:])
        assert meta["summary"]["violations"] == 0


# SHA-256 of the whole output (metadata line included) of each run, recorded
# before the subcommands shared one output path: any byte change fails.
# Runs ending in "--out -" write to stdout; the others get a file.
# variance-*, gcdsum-*, cf-* and hausdorff* were re-recorded when variance
# lost --format and gcdsum/cf/hausdorff lost --scale-bits: only the metadata
# line changed ("format" left the variance config echo, "scale_bits" became
# null), the bodies are the same bytes.  The four *-stdout entries of
# lemma3-sweep, variance and gcdsum were recorded before Output held each
# body as one list of lines.
GOLDEN = {
    "count-csv": (
        "count --Q 10,30 --trials 3 --seed 7 --workers 2",
        "b67c044c69c43e208c49ad0c246201976dd63e68bb57b1df0f0b5f0429a5100e"),
    "count-jsonl": (
        "count --Q 10,30 --trials 3 --seed 7 --workers 2 --format jsonl",
        "94f22a8d2d81fca71156fd3dd5c353de009598e4e0bb13fe698f7a3b4a5228fc"),
    "count-err-empty-csv": (
        "count --psi pow:1/100,1 --Q 3",
        "1af26099efe861efa5deada4209a57d791fee66d6370968c6ebf9efaa36f3c89"),
    "count-err-null-jsonl": (
        "count --psi pow:1/100,1 --Q 3 --format jsonl",
        "9297708bcb597f016900c00d5787d4e7d76591f99c31e9af2865be43a182efd1"),
    "count-config": (
        "count --config {cfg} --trials 3",
        "699dbce1ca67eefdf45e5fc8169b6f211b4d892dd13e6b51366ccd0b6dc2a04f"),
    "count-stdout": (
        "count --Q 5,8 --trials 2 --out -",
        "60d0deec8c4e4a46eb6838aad4816a0570aae6770520cdf738f89070c0f5c562"),
    "overlap-1d": (
        "overlap --set-a d=2,t=1/10,shift=1/12 --set-b d=1,t=1/10",
        "78536397bb7fd10a040c060ee5c653e4e4cef784db7b1379b9dce7339d2d6e36"),
    "overlap-2d-resolution": (
        "overlap --q 1,0 --r 0,1 --psi const:1/10 --gamma sqrt:2 "
        "--resolution 200",
        "c5147d20ebc9151a7df16e59b7b28a95a84a0ef66c45172fab01052be8da61ee"),
    "overlap-zero": (
        "overlap --q 2,130 --r 1,65 --psi pow:1/4,1/2 --gamma sqrt:2",
        "d7c1afd9b02d357d30fa83f13234deb7dfad6fb905960c98cc807b590fa3e6d4"),
    "overlap-stdout": (
        "overlap --set-a d=3,t=1/7 --set-b d=2,t=1/9 --out -",
        "6616cd6b05ec7f9217af58e090a4714868e7493df37f8ff00d20d5b0b3600eed"),
    "variance-q": (
        "variance --gamma sqrt:2 --psi pow:1/4,1/2 --Q 5,10,20",
        "28cc8f4d36e840cdb52887da069f6336b8c352893f30ff2691cd9ea974f5d92a"),
    "variance-window": (
        "variance --psi const:1/10 --window -2,1:2,-3",
        "94f9ea0979146ec1ea00b5e85fb8e2b20509c945984a0e30626efb54bb9b96f7"),
    "gcdsum-primorials": (
        "gcdsum --primorials 5 --k 2",
        "cc76e45cd70a81a5fa697639a5664aef043ffda09edebcd11f93cfad59ed6c05"),
    "gcdsum-qmax-jsonl": (
        "gcdsum --q-max 30 --k 2 --cap 3/4 --format jsonl",
        "4c4b56e99b01b29efb9226df0a8c7c551fc70eeea7045f55c661a72bec769d93"),
    "gcdsum-q": (
        "gcdsum --q 360 --k 3",
        "7dc6912e581f5864da301059a1f9bda964e06ea4221897c639d8ac048e0e7a61"),
    "cf-sqrt2": (
        "cf --gamma sqrt:2 --terms 6",
        "c13042ea977663a8fa619506b17b04459f0e95eefff1ac4f8c8cf875956648fe"),
    "cf-liouville": (
        "cf --gamma liouville:3 --terms 6",
        "650b04b51c9209dc5a1819218f380c81f6d77e717e8b5bdb71daf072392590dd"),
    "cf-stdout": (
        "cf --gamma sqrt:3 --terms 4 --out -",
        "2c519ad11691809869f0ac0d1989c13d1d4860bbd24ed86e1111bb9d6f656eb6"),
    "hausdorff": (
        "hausdorff --exponent 2 --coefficient 8 --probe-limit 1000",
        "5c282c445bd5f5ae82dafb5492f1abeec7727f694fc2b1a33fcacd81864f77cd"),
    "hausdorff-stdout": (
        "hausdorff --exponent 3 --probe-limit 500 --out -",
        "7f57ce8d856db18c73fdd1a05efcf89f45cd4cfeed2caccff19e3074c69da560"),
    "sweep-csv": (
        "lemma3-sweep --gamma sqrt:2 --psi pow:1/4,1/2 --Q 40",
        "af0701f4ee40e6900f9e11da2e85c3c6bcfcb8ee765c35444da8e21de74a0f22"),
    "sweep-jsonl": (
        "lemma3-sweep --gamma sqrt:3 --psi pow:1/100,1/2 --Q 30 --format "
        "jsonl",
        "77c933aaf91a986343141cd0c249912cc6eead775ec2416a73e5225e6c75b4ce"),
    "sweep-zero-csv": (
        "lemma3-sweep --gamma sqrt:2 --psi pow:1/1000,1 --Q 30",
        "ac94a33b0fe3c12acef23e1522211f3fe724530e4cc1bfa712114d7655bbaeee"),
    "sweep-csv-stdout": (
        "lemma3-sweep --gamma sqrt:2 --psi pow:1/4,1/2 --Q 20 --out -",
        "9f910c309ffa6c1323c70077923f1b447a014e1e197b9f001b0eafe25f443cbf"),
    "sweep-jsonl-stdout": (
        "lemma3-sweep --gamma sqrt:5 --psi pow:1/16,1/2 --Q 20 --format "
        "jsonl --out -",
        "dca80478a186737ce9e326c2dd4cd55e732492467acd9f68e8d2670bddd4fcda"),
    "variance-stdout": (
        "variance --psi pow:1/4,1/2 --Q 5,10 --out -",
        "384e34e6a850610e7451cbda618bd4514e0935900852998d1ed71be5499237c5"),
    "gcdsum-stdout": (
        "gcdsum --q-max 20 --k 2 --out -",
        "737bbe0bf536885bc7ac444ec8ccf3c610a4ffa8ac2cd6bd01e5a84350b3752f"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(tmp_path, capsys, name):
    spec, digest = GOLDEN[name]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("Q = 10,20\ntrials = 2\nseed = 5\nformat = jsonl\n")
    argv = spec.replace("{cfg}", str(cfg)).split()
    out = tmp_path / "out.dat"
    if argv[-2:] != ["--out", "-"]:
        argv += ["--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    if out.exists():
        data = out.read_bytes()
    else:
        data = capsys.readouterr().out.encode()
    assert code == EXIT_OK
    assert hashlib.sha256(data).hexdigest() == digest


# Each subcommand's options; --format exists only where CSV or JSONL can be
# chosen, --scale-bits only where a torus shift or mantissa is rounded.
FLAGS = {
    "count": {"--Q", "--config", "--delta-log", "--format", "--gamma",
              "--out", "--psi", "--scale-bits", "--seed", "--trials",
              "--workers"},
    "overlap": {"--config", "--gamma", "--out", "--psi", "--q", "--r",
                "--resolution", "--scale-bits", "--set-a", "--set-b"},
    "variance": {"--Q", "--config", "--gamma", "--out", "--psi",
                 "--scale-bits", "--window"},
    "gcdsum": {"--cap", "--config", "--format", "--k", "--out",
               "--primorials", "--q", "--q-max"},
    "cf": {"--config", "--gamma", "--out", "--terms"},
    "hausdorff": {"--coefficient", "--config", "--exponent", "--out",
                  "--probe-limit"},
    "lemma3-sweep": {"--Q", "--config", "--eta-max", "--format", "--gamma",
                     "--out", "--psi", "--scale-bits"},
}


def test_flag_sets_frozen(capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for o in sp._option_string_actions
                  if o.startswith("--") and o != "--help"}
           for name, sp in sub.choices.items()}
    assert got == FLAGS
    for name in FLAGS:
        assert main([name, "--help"]) == EXIT_OK
    for argv in ("cf --format csv", "variance --format jsonl",
                 "gcdsum --scale-bits 64", "cf --scale-bits 64",
                 "hausdorff --scale-bits 64"):
        assert main(argv.split()) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    "cf --terms -3",
    "hausdorff --probe-limit 0",
    "hausdorff --probe-limit -5",
    "count --Q 5 --workers 0",
    "count --Q 5 --workers -2",
    "gcdsum --primorials 0",
    "gcdsum --q-max 1",
    "gcdsum --q 1",
    "gcdsum --q-max 6 --k 0",
    "gcdsum --q-max 6 --k -1",
    "lemma3-sweep --Q 20 --eta-max 0",
    "lemma3-sweep --Q 20 --eta-max -1",
])
def test_out_of_range_exits_2(tmp_path, argv):
    code, body = run(tmp_path, *argv.split())
    assert code == EXIT_CONFIG
    assert body == b""


@pytest.mark.parametrize("q, message", [("abc", "bad Q 'abc'"),
                                        ("1", "Q must be >= 2 (got '1')")])
def test_sweep_bad_q_names_the_flag(tmp_path, capsys, q, message):
    code, body = run(tmp_path, "lemma3-sweep", "--Q", q)
    assert (code, body) == (EXIT_CONFIG, b"")
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("gamma", ["sqrt:2", "liouville:3"])
@pytest.mark.parametrize("terms, message", [
    ("-3", "terms must be >= 0 (got '-3')"), ("abc", "bad terms 'abc'")])
def test_cf_bad_terms_names_the_flag(tmp_path, capsys, gamma, terms, message):
    code, body = run(tmp_path, "cf", "--gamma", gamma, "--terms", terms)
    assert (code, body) == (EXIT_CONFIG, b"")
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cf_past_period_limit_exits_0(tmp_path):
    # the period of sqrt(100000000000031) is longer than cf_expand's limit,
    # so the period fields are null, but the quotients asked for come out
    gamma = QuadraticSurd.sqrt(100000000000031)
    assert cf_expand(gamma) is None
    code, body = run(tmp_path, "cf", "--gamma", "sqrt:100000000000031",
                     "--terms", "10")
    assert code == EXIT_OK
    doc = json.loads(body)
    a0, *quots = (a for a, _ in itertools.islice(cf_quotients(gamma), 11))
    assert doc["a0"] == a0
    assert doc["quotients"] == [str(a) for a in quots]
    assert doc["convergents"] == [{"p": str(p), "q": str(q)}
                                  for p, q in convergents(a0, quots)]
    assert doc["preperiod"] is None and doc["period"] is None


# gamma with a 120-bit discriminant, and one whose period is too long to
# expand: the sweep parses each without factoring and runs the continued
# fraction only up to its last convergent <= Q
@pytest.mark.parametrize("gamma, Q", [("cf:0;1000000,999999,1000000", "60"),
                                      ("sqrt:100000000000031", "20")])
def test_sweep_large_gamma_exits_0(tmp_path, gamma, Q):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kglab.cli", "lemma3-sweep", "--gamma", gamma,
         "--Q", Q, "--out", str(out)],
        env=src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert out.read_bytes().startswith(b"# {")


# A surd shift rounded at fewer than 64 bits is no longer the shift asked
# for: at 0 bits sqrt(2) becomes 1, and a negative count cannot round.
@pytest.mark.parametrize("argv", [
    "variance --Q 3 --scale-bits 0",
    "variance --Q 3 --scale-bits -1",
    "variance --Q 3 --scale-bits 63",
    "lemma3-sweep --Q 10 --scale-bits 0",
    "lemma3-sweep --Q 10 --scale-bits -1",
    "overlap --q 2,0 --r 1,0 --gamma sqrt:2 --psi pow:1/4,1/2 --scale-bits 0",
    "overlap --q 2,0 --r 1,0 --gamma sqrt:2 --psi pow:1/4,1/2 --scale-bits -1",
])
def test_low_scale_bits_exits_3(tmp_path, argv):
    code, body = run(tmp_path, *argv.split())
    assert code == EXIT_PRECISION
    assert body == b""


class TestOutput:
    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"previous run\r\n")
        out = Output(str(path), "csv", columns=("a",))
        out.row({"a": "\ud800"})  # a lone surrogate cannot be encoded
        with pytest.raises(UnicodeEncodeError):
            out.finish({"tool": "kglab"})
        assert path.read_bytes() == b"previous run\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# Differential test of Output's CSV lines against the csv module, the
# oracle: cells of every type the commands write, and strings made mostly
# of the characters that force quoting, with lone surrogates allowed.
CSV_TEXT = st.text(st.one_of(st.sampled_from(',"\r\n '),
                             st.characters(exclude_categories=())),
                   max_size=8)
CSV_CELL = st.one_of(st.none(), st.integers(), st.floats(), st.fractions(),
                     CSV_TEXT)


def csv_table(n):
    return st.tuples(st.lists(CSV_TEXT, min_size=n, max_size=n),
                     st.lists(st.lists(CSV_CELL, min_size=n, max_size=n),
                              max_size=4))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(csv_table))
@example(([""], [[""], [None], ["x"]]))
@example((["a\rb", 'q"'], [["\r", '"'], [float("inf"), float("nan")]]))
@example(([",", "\n"], [[None, ""], [Fraction(-3, 7), "\ud800"]]))
def test_csv_lines_match_csv_module(table):
    columns, rows = table
    out = Output("-", "csv", columns=columns)
    want = io.StringIO()
    oracle = csv.writer(want, lineterminator="\r\n")
    oracle.writerow(columns)
    for values in rows:
        row = dict(zip(columns, values))
        out.row(row)
        oracle.writerow([row[c] for c in columns])
    assert "".join(out.lines) == want.getvalue()


@pytest.mark.parametrize("argv", ["lemma3-sweep --Q 10",
                                  "count --Q 10 --trials 2 --workers 1"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.csv"
    if target == "directory":
        out = tmp_path / "outdir"
        out.mkdir()
    capsys.readouterr()
    code = main(argv.split() + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"output error: cannot write {out}")
    assert err.count("\n") == 1 and "Traceback" not in err
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert left == (["outdir"] if target == "directory" else [])


def test_unreadable_checkpoint_exits_2(tmp_path, capsys):
    # a directory where count keeps its checkpoint: no trial runs and the
    # output is not written
    out = tmp_path / "x.csv"
    (tmp_path / "x.csv.ckpt").mkdir()
    capsys.readouterr()
    code = main(["count", "--Q", "10", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"output error: cannot write {out}.ckpt")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv.ckpt"]


def test_out_symlink_stays_a_link(tmp_path):
    # the file the link names is replaced, and nothing else is left
    _, want = run(tmp_path, "variance", "--Q", "3")
    (tmp_path / "out.dat").unlink()
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"previous run\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target.name)
    assert main(["variance", "--Q", "3", "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == [link.name,
                                                          target.name]


def test_out_fifo_is_written_not_replaced(tmp_path):
    # a FIFO cannot be renamed over without losing its reader: the body
    # goes through it, and it is still a FIFO afterwards
    _, want = run(tmp_path, "variance", "--Q", "3")
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code = main(["variance", "--Q", "3", "--out", str(fifo)])
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == EXIT_OK
    assert got == [want]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_closed_stdout_exits_2():
    # the reader closes the pipe after a few bytes; the body (over 64 KiB,
    # more than the pipe holds) cannot all be written
    proc = subprocess.Popen(
        [sys.executable, "-m", "kglab.cli", "lemma3-sweep", "--Q", "60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env())
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == EXIT_CONFIG
    assert err == "output error: cannot write stdout: Broken pipe\n"


# Differential test of lemma3-sweep's row writer, which formats every cell
# from integers, against the library's Fraction-valued SweepRows: psi(1) = 1/2
# for pow:1/2,1, and pow:1/1000,1 gives zero-confirmed rows.
SWEEP_Q = 12


def check_sweep_cells(tmp_path, gamma_spec, psi_spec, w):
    """Compare every CSV cell and JSONL field of the run with str() of the
    library's row fields under witness w; return the rows."""
    gamma, psi = parse_gamma(gamma_spec), parse_psi(psi_spec)
    rows, summary = vanishing_bound_sweep(SWEEP_Q, psi, w, gamma)
    argv = ["lemma3-sweep", "--gamma", gamma_spec, "--psi", psi_spec,
            "--Q", str(SWEEP_Q)]
    code, body = run(tmp_path, *argv)
    assert code == (EXIT_OK if summary.ok() else EXIT_FAIL)
    head, _, table = body.decode().partition("\r\n")
    assert json.loads(head[2:])["summary"] == {
        "rows": summary.n_rows, "zero_confirmed": summary.n_zero_confirmed,
        "bound_satisfied": summary.n_bound_satisfied,
        "violations": summary.n_violations,
        "max_bound_ratio": float(summary.max_bound_ratio)}
    header, *cells = csv.reader(io.StringIO(table, newline=""))
    assert tuple(header) == rows[0]._fields
    assert cells == [["" if v is None else str(v) for v in row]
                     for row in rows]

    code, body = run(tmp_path, *argv, "--format", "jsonl")
    assert code == (EXIT_OK if summary.ok() else EXIT_FAIL)
    records = [json.loads(line) for line in body.decode().splitlines()[1:]]
    assert records == [
        {k: v if v is None or type(v) is int else str(v)
         for k, v in row._asdict().items()} for row in rows]
    return rows


@pytest.mark.parametrize("psi_spec", ["pow:1/4,1/2", "pow:1/2,1",
                                      "pow:1/1000,1"])
@pytest.mark.parametrize("gamma_spec", ["sqrt:2", "sqrt:3", "cf:1,3;5"])
def test_sweep_cells_match_library_rows(tmp_path, gamma_spec, psi_spec):
    gamma, psi = parse_gamma(gamma_spec), parse_psi(psi_spec)
    rows = check_sweep_cells(tmp_path, gamma_spec, psi_spec,
                             fit_witness(gamma, psi, SWEEP_Q))
    if psi_spec == "pow:1/1000,1":
        assert any(row.status == "zero-confirmed" for row in rows)


def test_sweep_cells_every_status(tmp_path, monkeypatch):
    """Under a witness that sqrt(2) does not satisfy, rows beyond the
    threshold are zero-confirmed or violations, so the same-sign and
    opposite-sign statuses of one class can differ."""
    w = NonLiouvilleWitness(1, Fraction(1, 4), Fraction(1, 2), Fraction(1),
                            SWEEP_Q, analytic=True)
    monkeypatch.setattr(cli, "fit_witness", lambda *args, **kwargs: w)
    rows = check_sweep_cells(tmp_path, "sqrt:2", "pow:1/16,1/2", w)
    assert {row.status for row in rows} == {"zero-confirmed",
                                            "bound-satisfied", "VIOLATION"}
    assert any(a.status != b.status for a, b in zip(rows[::2], rows[1::2]))


# overlap's Lemma 3 verdict against the lemma3-sweep row of the same class,
# for every parallel pair with |r| < |q| <= 8 at both relative signs, gamma
# sqrt(2) and psi 1/4 q^-1/2.  Under a witness that sqrt(2) does not satisfy
# (c = 1/1000: threshold 1 for every d <= 31) the nonzero overlaps beyond it
# are VANISH-VIOLATIONs; under one no class exceeds, with the bound set to
# 0, every nonzero overlap is a BOUND-VIOLATION.
@pytest.mark.parametrize("w, zero_bound, violation", [
    (NonLiouvilleWitness(1, Fraction(1, 1000), Fraction(1, 2), Fraction(1),
                         12, analytic=True), False, "VANISH-VIOLATION"),
    (NonLiouvilleWitness(1, Fraction(3), Fraction(1, 2), Fraction(1, 2), 12,
                         analytic=True), True, "BOUND-VIOLATION"),
], ids=["vanish", "bound"])
def test_overlap_violations_match_sweep(tmp_path, monkeypatch, w, zero_bound,
                                        violation):
    monkeypatch.setattr(cli, "fit_witness", lambda *args, **kwargs: w)
    if zero_bound:
        monkeypatch.setattr(torus, "lemma3_bound_num", lambda *args: 0)
    psi = PowerLaw(Fraction(1, 4), Fraction(1, 2))
    rows, _ = vanishing_bound_sweep(8, psi, w, SQRT2)
    sweep = {(row.d, row.e, row.r, row.rel): row for row in rows}
    vecs = [LatticeVector(a, b) for a in range(-8, 9) for b in range(-8, 9)
            if a or b]
    statuses = set()
    for qv in vecs:
        for rv in vecs:
            if not (is_parallel(qv, rv) and rv.norm < qv.norm):
                continue
            code, body = run(tmp_path, "overlap", "--q", f"{qv.q1},{qv.q2}",
                             "--r", f"{rv.q1},{rv.q2}", "--psi", "pow:1/4,1/2",
                             "--gamma", "sqrt:2")
            rec = json.loads(body)["result"]
            rel = "same" if qv.q1 * rv.q1 + qv.q2 * rv.q2 > 0 else "opp"
            row = sweep[qv.g, rv.g, rv.norm, rel]
            assert rec["value"] == str(overlap_2d(qv, rv, psi, SQRT2)[0])
            assert rec["value"] == str(row.overlap)
            assert rec["vanish_threshold"] == row.threshold
            assert rec.get("parallel_bound") == (
                None if row.bound is None else str(row.bound))
            ok = row.status != "VIOLATION"
            assert code == (EXIT_OK if ok else EXIT_FAIL)
            assert rec["status"] == ("ok" if ok else violation)
            statuses.add(rec["status"])
    assert statuses == {"ok", violation}


@settings(max_examples=300, deadline=None)
@given(st.integers(-2**300, 2**300), st.integers(1, 2**300))
@example(0, 1)
@example(0, 7)
@example(5, 1)
@example(-12, 4)
@example(3 * 2**200, 2**200)
def test_fraction_text_matches_str_fraction(n, d):
    assert fraction_text(n, d) == str(Fraction(n, d))
    assert fraction_text(n * d, d) == str(n)


# Sweep denominators are a small odd number times a large power of two,
# which fraction_text shifts off before its one gcd.
@settings(max_examples=300, deadline=None)
@given(st.integers(-2**300, 2**300), st.integers(0, 600),
       st.integers(1, 2**200), st.integers(0, 600))
@example(3, 5, 7, 9)            # v2(n) below v2(d)
@example(3, 9, 7, 9)            # equal
@example(3, 12, 7, 9)           # above
@example(0, 0, 5, 3)            # n = 0
@example(0, 600, 1, 600)
@example(-5, 4, 3, 10)          # negative n
@example(-6, 0, 9, 0)           # odd d
@example(5, 3, 7, 0)
@example(3, 4, 1, 600)          # d a pure power of two
@example(-7, 600, 1, 0)         # d = 1
@example(-2**300, 600, 2**200, 600)
def test_fraction_text_two_adic_split(a, j, m, k):
    n, d = a << j, m << k
    assert fraction_text(n, d) == str(Fraction(n, d))
