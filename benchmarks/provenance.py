"""Where and on what a benchmark script ran, for its --json output.

Imported by the scripts beside it, which Python runs with this directory
first on sys.path.
"""

import os
import platform
import resource
import subprocess
from pathlib import Path

import kglab


def provenance() -> dict:
    """The git revision of the checkout that holds the imported ``kglab``,
    which need not be this script's (with "-dirty" when the tree has
    uncommitted changes; None outside a git checkout), the Python version,
    the CPU count and this process's peak resident set so far, in MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(kglab.__file__).resolve().parent, capture_output=True,
            text=True, timeout=30)
        revision = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {"git_revision": revision or None,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}
