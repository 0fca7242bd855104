import json

import pytest

from kglab.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PRECISION, Output, main,
                       parse_gamma, parse_psi, parse_qlist, parse_set1d)
from kglab.psifunc import Clamp, PowerLaw, TablePsi, Window
from kglab.surd import QuadraticSurd


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    data = out.read_bytes() if out.exists() else b""
    return code, data


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
        from fractions import Fraction

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

        trial0 = _count_trial(("sqrt:2", "pow:1,3/4", 20, 192, 1, 0))
        with open(ckpt, "w") as fh:
            fh.write(json.dumps({"config_hash": meta["config_hash"]}) + "\n")
            fh.write(json.dumps({"trial": 0, "counts": trial0[1]}) + "\n")
        assert main(args) == EXIT_OK
        assert out.read_bytes() == full
        assert not ckpt.exists()  # cleaned up after a completed run

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

    def test_vanishing_sweep_csv(self, tmp_path):
        code, body = run(tmp_path, "lemma3-sweep", "--gamma", "sqrt:2",
                         "--psi", "pow:1/4,1/2", "--Q", "40")
        assert code == EXIT_OK
        lines = body.decode().split("\r\n")
        assert lines[1] == "d,e,r,q,threshold,overlap,bound,status,rel"
        meta = json.loads(lines[0][2:])
        assert meta["summary"]["violations"] == 0


class TestOutput:
    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"previous run\r\n")
        out = Output(str(path), "csv", {"tool": "kglab"}, columns=("a",))
        out.row(values=["\ud800"])  # a lone surrogate cannot be encoded
        with pytest.raises(UnicodeEncodeError):
            out.finish()
        assert path.read_bytes() == b"previous run\r\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
