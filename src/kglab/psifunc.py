"""Approximation functions psi: N -> [0, 1/2] and derived scalar data.

Every evaluation is an exact ``Fraction``.  Power laws with non-integer
exponents are rounded *down* at ``GUARD_BITS`` fractional bits, which makes
each membership test conservative in one documented direction and keeps
counts reproducible across platforms.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

log = logging.getLogger(__name__)

GUARD_BITS = 192
HALF = Fraction(1, 2)


def integer_nth_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1 (Newton on big ints).

    Each factor 2 of k is one ``isqrt``, since floor(isqrt(n) ** (1/j)) =
    floor(n ** (1/(2j))); Newton takes only the odd part of k.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0, k >= 1")
    while k % 2 == 0:
        n = isqrt(n)
        k //= 2
    if k == 1 or n == 0:
        return n
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


class ApproxFunction:
    """Base class; subclasses implement ``_raw(q)`` returning a Fraction."""

    def __call__(self, q: int) -> Fraction:
        return eval_psi(self, q)

    def _raw(self, q: int) -> Fraction:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class PowerLaw(ApproxFunction):
    """c0 * q**(-a) with rational a >= 0, rounded down at GUARD_BITS."""

    c0: Fraction
    a: Fraction
    _cap_logged: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.c0 = Fraction(self.c0)
        self.a = Fraction(self.a)
        if self.c0 <= 0:
            raise ValueError("coefficient c0 must be positive")
        if self.a < 0:
            raise ValueError("exponent a must be >= 0")

    def _raw(self, q: int) -> Fraction:
        num, den = self.a.numerator, self.a.denominator
        if den == 1:
            return self.c0 / Fraction(q) ** num
        # q**(-a) ~ T / 2**GUARD with T = floor((2**(G*den) // q**num)**(1/den))
        t = integer_nth_root((1 << (GUARD_BITS * den)) // q ** num, den)
        return Fraction(self.c0.numerator * t,
                        self.c0.denominator << GUARD_BITS)

    def describe(self) -> str:
        return f"pow:{self.c0},{self.a}"


@dataclass
class TablePsi(ApproxFunction):
    """Finite support q -> value; zero outside the table."""

    values: dict[int, Fraction]

    def __post_init__(self) -> None:
        clean = {}
        for q, v in self.values.items():
            q, v = int(q), Fraction(v)
            if q < 1:
                raise ValueError(f"table key q={q} must be >= 1")
            if not 0 <= v <= HALF:
                raise ValueError(f"table value at q={q} outside [0, 1/2]")
            clean[q] = v
        self.values = clean

    @classmethod
    def from_csv(cls, path: str) -> "TablePsi":
        """Two-column CSV (q, value); values in exact decimal or fraction syntax."""
        values: dict[int, Fraction] = {}
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                q, v = int(row[0].strip()), Fraction(row[1].strip())
                values[q] = v
        return cls(values)

    def _raw(self, q: int) -> Fraction:
        return self.values.get(q, Fraction(0))

    def describe(self) -> str:
        if not self.values:
            return "const:0"
        items = ",".join(f"{q}={v}" for q, v in sorted(self.values.items()))
        return f"table:{items}"


@dataclass
class Clamp(ApproxFunction):
    """min{1/(2q), inner(q)}."""

    inner: ApproxFunction

    def _raw(self, q: int) -> Fraction:
        return min(Fraction(1, 2 * q), eval_psi(self.inner, q))

    def describe(self) -> str:
        return f"clamp:{self.inner.describe()}"


@dataclass
class Window(ApproxFunction):
    """inner(q) for lo <= q <= hi, zero outside."""

    inner: ApproxFunction
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError("need 1 <= lo <= hi")

    def _raw(self, q: int) -> Fraction:
        if self.lo <= q <= self.hi:
            return eval_psi(self.inner, q)
        return Fraction(0)

    def describe(self) -> str:
        return f"window:{self.lo},{self.hi},{self.inner.describe()}"


def eval_psi(psi: ApproxFunction, q: int) -> Fraction:
    """Exact rational psi(q), capped at 1/2 (cap logged once per function)."""
    if q < 1:
        raise ValueError(f"psi is defined on q >= 1 only (got q={q})")
    v = psi._raw(q)
    if v > HALF:
        if not getattr(psi, "_cap_logged", True):
            log.info("capping %s at 1/2 (first hit at q=%d)", psi.describe(), q)
            psi._cap_logged = True
        return HALF
    return v


def psi_table(psi: ApproxFunction, q_max: int) -> tuple[list[int], int]:
    """(num, td): psi(q) = num[q]/td for q = 1..q_max, one ``eval_psi``
    per q, with td the lcm of the psi denominators (a power of two for the
    power laws, about lcm(1..q_max) for 1/q) and num[0] = 0."""
    vals = [eval_psi(psi, q) for q in range(1, q_max + 1)]
    td = lcm(*(v.denominator for v in vals))
    return [0] + [v.numerator * (td // v.denominator) for v in vals], td


def psi_mantissas(psi: ApproxFunction, q_max: int, scale_bits: int) -> list[int]:
    """floor(psi(q) * 2**scale_bits) for q = 0..q_max (index 0 unused)."""
    num, td = psi_table(psi, q_max)
    return [(n << scale_bits) // td for n in num]


def unwrap_power_law(psi: ApproxFunction) -> PowerLaw | None:
    """The PowerLaw core of psi, if psi is PowerLaw/Clamp/Window of one."""
    while isinstance(psi, (Clamp, Window)):
        psi = psi.inner
    return psi if isinstance(psi, PowerLaw) else None


def hausdorff_exponent(psi: ApproxFunction) -> tuple[Fraction, Fraction]:
    """Critical exponent t = 1 + 3/(a+1) of the s-series sum q^2 (psi(q)/q)^(s-1),
    together with the dimension value min{t, 2}.

    Requires a pure power law with exponent a > 0; for a = 0 the series
    diverges for every s (t = infinity, dimension 2 by convention) and the
    input is rejected.
    """
    if not isinstance(psi, PowerLaw):
        raise ValueError("hausdorff exponent requires a pure power law")
    if psi.a == 0:
        raise ValueError(
            "exponent a = 0: series diverges for every s (t = infinity, dim = 2)"
        )
    t = 1 + Fraction(3) / (psi.a + 1)
    return t, min(t, Fraction(2))


def hausdorff_partial_sum(psi: ApproxFunction, s: float, q_max: int) -> float:
    """Diagnostic partial sum of q^2 (psi(q)/q)^(s-1) up to q_max, for a
    pure power law (as ``hausdorff_exponent``), psi capped at 1/2.

    Float arithmetic is fine here: the probe only separates bounded partial
    sums from divergent growth and feeds no membership test.
    """
    import numpy as np

    if not isinstance(psi, PowerLaw):
        raise ValueError("partial-sum probe requires a pure power law")
    if q_max < 1:
        raise ValueError("need q_max >= 1")
    q = np.arange(1, q_max + 1, dtype=np.float64)
    vals = np.minimum(float(psi.c0) * q ** (-float(psi.a)), 0.5)
    return float(np.sum(q ** 2 * (vals / q) ** (s - 1.0)))
