"""CPU speed probe, run next to every timed region.

On a shared machine the speed of a core can swing by 2x within seconds (the
neighbours' load moves the clock and the memory bandwidth).  Every timed
region is therefore bracketed by two fixed loops: a pure-Python big-integer
loop and a numpy pass over a few MB, the two kinds of work kglab does.  A
time is reported at reference speed:

    t_ref = t_measured / slowdown around the measurement

The probe does not touch kglab, so a change to the program moves t_ref by
the same factor as the wall time; only the machine's drift is divided out.
Raw wall times are printed next to every reference-speed figure.
"""

from __future__ import annotations

import time

# Probe times on the reference machine (2-CPU x86 VM, Python 3.11, numpy
# 2.4) in its fast state.  Fixed scale factors: changing one rescales every
# reported time.
REF_BIGINT_S = 0.00055
REF_NUMPY_S = 0.0009

_MODULUS = (1 << 192) - 237
_STEP = (0x9E3779B97F4A7C15 << 128) | 0x5851F42D4C957F2D
_NUMPY_WORDS = 64 * 801 * 6  # one chunk of the count kernel's limb arrays


def _bigint() -> float:
    t0 = time.perf_counter()
    acc = 0
    for k in range(3000):
        acc = (acc + _STEP * k) % _MODULUS
    return time.perf_counter() - t0


def _numpy() -> float:
    import numpy as np

    t0 = time.perf_counter()
    v = np.arange(_NUMPY_WORDS, dtype=np.int64)
    v *= 7
    v += 3
    v &= 0xFFFFFFFF
    int((v > 12345).sum())
    return time.perf_counter() - t0


def slowdown(with_numpy: bool = True) -> float:
    """Machine slowdown against the reference state (1.0 = reference).

    Each loop runs twice and the faster run counts, which drops a run that
    an interrupt happened to hit.  ``with_numpy=False`` keeps numpy out of
    a process whose import time is being measured.
    """
    factor = min(_bigint(), _bigint()) / REF_BIGINT_S
    if not with_numpy:
        return factor
    return (factor + min(_numpy(), _numpy()) / REF_NUMPY_S) / 2
