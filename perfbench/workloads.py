"""Seeded operation streams for the three kglab benchmark workloads.

Each operation is one ``kglab.cli.main(argv)`` call.  The program sees only
the argv built here (plus ``--out``); everything is derived from the
workload seed through ``random.Random``, so a seed always yields the same
stream.

Parameters are drawn uniformly, as ``WHY`` states, from randomly shifted
Kronecker (golden-ratio / R2) sequences: each single draw is uniform, and
any run of consecutive draws covers the parameter range evenly.  This keeps
the cost mix of one run from depending on the seed, so that runs with
different seeds measure the same thing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("count", "variance", "sweep")

WHY = {
    "count": "count at Q=100..400, one trial per op: the counting stack "
             "(shell kernel ~55%, main_term/chi_term ~40%); the overlap "
             "core is never called",
    "variance": "variance --Q q (q in [40,90]) alternating with order "
                "windows of norm <= 100: overlap_1d_core, Fraction class sums "
                "and the shell boundary path; ~2 KB output; no counting stack",
    "sweep": "lemma3-sweep, gamma sqrt:D (D in {2,3,5,6,7}), q in [40,70], "
             "psi 1/16 q^-1/2: every row evaluated, bounded and written "
             "(0.6-2.6 MB CSV); zero-confirmed rows present",
}

# Median op time at the commit that defined the benchmark (2-CPU x86 VM,
# Python 3.11, numpy kernel).  Only used to size the fixed-length traced run.
NOMINAL_OP_S = {"count": 0.30, "variance": 0.25, "sweep": 0.35}

COUNT_Q = (100, 200, 300, 400)
COUNT_PSI = "pow:1,3/4"
VARIANCE_Q = (40, 90)
WINDOW_MAX_NORM = 100
SWEEP_D = (2, 3, 5, 6, 7)
SWEEP_Q = (40, 70)
SWEEP_PSI = "pow:1/16,1/2"
WINDOW_POSITIONS = 4 * WINDOW_MAX_NORM * (WINDOW_MAX_NORM + 1)

# Kronecker steps: 1/golden ratio in one dimension, powers of 1/plastic
# number in two (the R2 sequence).
_STEPS = {1: (0.6180339887498949,),
          2: (0.7548776662466927, 0.5698402909980532)}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``key`` identifies the output independently of --out."""

    kind: str          # count | variance-q | variance-window | sweep
    argv: tuple[str, ...]
    params: tuple      # kind-specific values the checks need

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def suffix(self) -> str:
        return ".csv" if self.kind in ("count", "sweep") else ".jsonl"


def kronecker(rng: random.Random, dims: int):
    """Endless low-discrepancy points of [0, 1)^dims with a random shift."""
    steps = _STEPS[dims]
    shift = [rng.random() for _ in steps]
    k = 0
    while True:
        yield tuple((x + k * a) % 1.0 for x, a in zip(shift, steps))
        k += 1


def _pick(values, u: float):
    return values[int(len(values) * u)]


def vector_at(pos: int) -> tuple[int, int]:
    """The pos-th nonzero vector of Z^2 in the total order (norm, q1, q2)."""
    n = 1
    while pos >= 8 * n:
        pos -= 8 * n
        n += 1
    if pos < 2 * n + 1:
        return -n, -n + pos
    pos -= 2 * n + 1
    if pos < 2 * (2 * n - 1):
        return -n + 1 + pos // 2, n if pos % 2 else -n
    pos -= 2 * (2 * n - 1)
    return n, -n + pos


def window_positions(u: float, w: float) -> tuple[int, int]:
    """Order positions i < j distributed as sorted(rng.sample(range(n), 2))
    for uniform (u, w): j's CDF is x^2, hence the square root, and i is
    uniform below j."""
    j = max(1, min(WINDOW_POSITIONS - 1, int(WINDOW_POSITIONS * u ** 0.5)))
    return int(j * w), j


def _count_ops(rng: random.Random):
    qs = ",".join(str(q) for q in COUNT_Q)
    while True:
        seed = rng.randrange(1 << 32)
        yield Op("count", ("count", "--gamma", "sqrt:2", "--psi", COUNT_PSI,
                           "--Q", qs, "--trials", "1", "--workers", "1",
                           "--seed", str(seed)), (seed,))


def _variance_ops(rng: random.Random):
    qs = range(VARIANCE_Q[0], VARIANCE_Q[1] + 1)
    for (uq,), (u, w) in zip(kronecker(rng, 1), kronecker(rng, 2)):
        q = _pick(qs, uq)
        yield Op("variance-q", ("variance", "--Q", str(q)), (q,))
        (u1, u2), (v1, v2) = (vector_at(p) for p in window_positions(u, w))
        # --window=u:v, not "--window u:v": argparse reads a value that
        # starts with '-' as a flag and exits with code 2 (see NOTES.md)
        yield Op("variance-window",
                 ("variance", f"--window={u1},{u2}:{v1},{v2}"),
                 ((u1, u2), (v1, v2)))


def _sweep_ops(rng: random.Random):
    qs = range(SWEEP_Q[0], SWEEP_Q[1] + 1)
    for ud, uq in kronecker(rng, 2):
        d, q = _pick(SWEEP_D, ud), _pick(qs, uq)
        yield Op("sweep", ("lemma3-sweep", "--gamma", f"sqrt:{d}", "--psi",
                           SWEEP_PSI, "--Q", str(q)), (d, q))


_STREAMS = {"count": _count_ops, "variance": _variance_ops,
            "sweep": _sweep_ops}


def op_stream(workload: str, seed: int):
    """Endless, deterministic stream of Ops for (workload, seed)."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def first_ops(workload: str, seed: int, n: int) -> list[Op]:
    stream = op_stream(workload, seed)
    return [next(stream) for _ in range(n)]


def shell_pairs(Q: int, offset: int) -> int:
    """sum over direction norms n <= Q of m*(m + offset), m = Q // n: the
    overlap evaluations of variance --Q (offset 1) and the rows of
    lemma3-sweep (offset -1)."""
    return sum((Q // n) * (Q // n + offset) for n in range(1, Q + 1))

