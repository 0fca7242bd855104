"""The benchmark scripts still run: a symbol one of them imports cannot be
deleted or renamed without this failing.  The perfbench smoke run checks
every op's output and golden digest, so a change that the benchmark would
reject fails here too."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


COUNT_KEYS = {"table_s", "psi_s", "rest_s", "kernel_s", "report_s"}
VARIANCE_KEYS = {"engine_s", "pairs", "core_pair_us", "variance_full_s",
                 "norm_pairs_s", "window_s", "sweep_rows_s", "sweep_no_rows_s",
                 "sweep_cells", "sweep_cells_s", "sweep_cli_s",
                 "sweep_cli_peak_rss_mib"}
PROVENANCE_KEYS = {"git_revision", "python", "cpu_count", "peak_rss_mib"}


@pytest.mark.parametrize("argv", [
    ["benchmarks/layers.py", "--Q", "50", "--repeats", "1"],
    ["benchmarks/layers.py", "--Q", "200", "--repeats", "1"],
])
def test_benchmark_script_runs(argv, tmp_path):
    """Every layer of both engines is timed and every oracle check passes;
    --json writes one document with a group per engine.  At Q = 50 the
    variance layers run at Q = 5, where the sweep has only a few rows."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    path = tmp_path / "layers.json"
    proc = subprocess.run([sys.executable, *argv, "--json", str(path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(path.read_text())
    assert set(doc) == {"Q", "repeats", "count", "variance", "provenance"}
    assert (doc["Q"], doc["repeats"]) == (int(argv[2]), 1)
    assert set(doc["count"]) == COUNT_KEYS
    assert set(doc["variance"]) == VARIANCE_KEYS
    assert set(doc["provenance"]) == PROVENANCE_KEYS


def test_perfbench_smoke_passes():
    """Three ops of every perfbench workload, untraced and traced, each
    checked against the oracles and golden digests of ``perfbench/``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_provenance_names_the_imported_kglab(tmp_path):
    """The revision is that of the checkout holding the imported kglab, not
    of the script's: a copy of the package outside any checkout has none."""
    shutil.copytree(ROOT / "src" / "kglab", tmp_path / "kglab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = str(tmp_path)  # no checkout above it
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path),
                                         str(ROOT / "benchmarks")])
    code = ("import json, kglab, layers\n"
            "print(kglab.__file__)\n"
            "print(json.dumps(layers.provenance()))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    path, doc = proc.stdout.splitlines()
    assert Path(path).parent == tmp_path / "kglab"
    assert json.loads(doc)["git_revision"] is None
