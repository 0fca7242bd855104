"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks the op generator, that BENCHMARK.json names exactly the metrics
run.py prints, and that a wrong output is counted as a failed op (and so
in fail_rate) instead of passing silently.  Runs a handful of real ops.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kglab.cli  # noqa: E402
from kglab.lattice import shell  # noqa: E402

import run  # noqa: E402
from checks import load_golden  # noqa: E402
from worker import run_loop  # noqa: E402
from workloads import (WHY, WORKLOADS, first_ops, shell_pairs,  # noqa: E402
                       vector_at)


class GeneratorTest(unittest.TestCase):
    def test_vector_at_follows_the_shell_order(self):
        pos = 0
        for n in range(1, 9):
            for v in shell(n):
                self.assertEqual(vector_at(pos), (v.q1, v.q2))
                pos += 1

    def test_streams_depend_only_on_the_seed(self):
        for workload in WORKLOADS:
            def keys(seed):
                return [op.key for op in first_ops(workload, seed, 25)]
            self.assertEqual(keys(7), keys(7))
            self.assertNotEqual(keys(7), keys(8))

    def test_windows_use_the_equals_form(self):
        for op in first_ops("variance", 3, 40):
            if op.kind == "variance-window":
                self.assertTrue(op.argv[1].startswith("--window="))

    def test_pair_counts(self):
        self.assertEqual(shell_pairs(100, 1), 16598)
        self.assertEqual(shell_pairs(200, 1), 66088)
        self.assertEqual(shell_pairs(100, -1), 15634)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         WHY)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.layer_units())


def _alter_file(edit):
    """A CLI call that runs the real op, then rewrites its output."""
    def call(argv):
        rc = kglab.cli.main(argv)
        path = Path(argv[argv.index("--out") + 1])
        path.write_bytes(edit(path.read_bytes()))
        return rc
    return call


class FailureCountingTest(unittest.TestCase):
    def _run(self, workload, seed, n, call=kglab.cli.main):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            return run_loop(iter(first_ops(workload, seed, n)), Path(tmp),
                            load_golden(), max_ops=n, call=call)

    def test_clean_ops_pass_and_hit_the_golden_digests(self):
        res = self._run("variance", 0, 2)
        self.assertEqual((res["attempted"], res["failed"]), (2, 0))
        self.assertEqual(res["golden_checked"], 2)

    def test_altered_body_is_a_failed_op(self):
        # change one digit that no seed-independent check reads
        def edit(data):
            i = data.index(b'"diagonal": "') + len(b'"diagonal": "')
            digit = b"1" if data[i:i + 1] != b"1" else b"2"
            return data[:i] + digit + data[i + 1:]
        res = self._run("variance", 0, 1, _alter_file(edit))
        self.assertEqual((res["attempted"], res["failed"]), (1, 1))
        self.assertIn("golden", res["failures"][0])
        metrics = run.end_to_end(res, [(0.1, 0.001)])
        self.assertEqual(metrics["ok_rate"], 0)

    def test_wrong_n_is_a_failed_op_without_golden(self):
        def edit(data):
            lines = data.split(b"\r\n")
            fields = lines[2].split(b",")  # metadata, header, Q=100 row
            fields[2] = str(int(fields[2]) + 1).encode()
            lines[2] = b",".join(fields)
            return b"\r\n".join(lines)
        res = self._run("count", 1, 2, _alter_file(edit))
        self.assertEqual((res["attempted"], res["failed"]), (2, 2))
        self.assertEqual(res["golden_checked"], 0)
        self.assertIn("count_python", res["failures"][0])

    def test_nonzero_exit_is_a_failed_op(self):
        res = self._run("sweep", 0, 1, lambda argv: 1)
        self.assertEqual(res["failed"], 1)
        self.assertIn("exit code 1", res["failures"][0])


if __name__ == "__main__":
    unittest.main()
