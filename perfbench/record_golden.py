"""Record golden body digests for the default seed's op streams.

    PYTHONPATH=src python3 perfbench/record_golden.py

Runs the first OPS_PER_WORKLOAD ops of seed 0 for every workload, requires
each to pass the seed-independent checks, and writes the SHA-256 of each
output body (metadata line excluded) to golden.json.  Outputs are meant to
stay byte-identical across performance work, so re-record only when an
output format changes on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import GOLDEN_PATH, body_digest, check_op
from workloads import WORKLOADS, first_ops

DEFAULT_SEED = 0
OPS_PER_WORKLOAD = 160


def main() -> int:
    import kglab.cli

    digests: dict[str, dict[str, str]] = {}
    scratch = Path(__file__).resolve().parents[1] / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in WORKLOADS:
            digests[workload] = {}
            for op in first_ops(workload, DEFAULT_SEED, OPS_PER_WORKLOAD):
                path = Path(tmp) / f"op{op.suffix}"
                rc = kglab.cli.main(list(op.argv) + ["--out", str(path)])
                problems, _ = check_op(op, rc, None, path, {})
                if problems:
                    print(f"{op.key}: {problems}", file=sys.stderr)
                    return 1
                digests[workload][op.key] = body_digest(path.read_bytes())
            print(f"{workload}: {len(digests[workload])} distinct ops")
    rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=Path(__file__).parent).stdout.strip()
    GOLDEN_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "ops_per_workload": OPS_PER_WORKLOAD,
         "recorded_at": rev, "digests": digests}, indent=1, sort_keys=True)
        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
