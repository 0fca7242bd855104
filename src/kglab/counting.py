"""The counting function N(alpha, Q, gamma), its expected value in both
normalizations, Schmidt's divisor-weighted comparison sum, and normalized
error reports.

The sweep is exact: alpha and gamma enter through their scale_bits
mantissas and every membership decision is an integer comparison (see
``_kernels``).  A boundary tie ||q.alpha - gamma|| = psi = 1/2 yields two
admissible integers p and counts twice; the event is detectable because
the arithmetic is exact, and has probability zero for sampled alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import count_by_shell_raw
from .fixedpoint import DEFAULT_SCALE_BITS, FixedPoint, PrecisionError
from .lattice import divisors, shell_size
from .psifunc import ApproxFunction, eval_psi, psi_mantissas
from .surd import QuadraticSurd, surd_eval

# the fewest scale_bits any rounding may use; count adds the bits of 2Q+1
SCALE_GUARD_BITS = 64


def _gamma_mantissa(gamma, scale_bits: int) -> int:
    one = 1 << scale_bits
    if isinstance(gamma, QuadraticSurd):
        return surd_eval(gamma, 1, scale_bits).mantissa
    if isinstance(gamma, FixedPoint):
        if gamma.scale_bits > scale_bits:
            raise PrecisionError("gamma carries more precision than the sweep scale")
        return (gamma.mantissa << (scale_bits - gamma.scale_bits)) % one
    if isinstance(gamma, (int, Fraction)):
        fr = Fraction(gamma)
        return ((fr.numerator << scale_bits) // fr.denominator) % one
    raise TypeError(f"cannot interpret {type(gamma).__name__} as gamma")


def check_precision_range(Q: int, scale_bits: int) -> None:
    """Sweep values accumulate |q1|+|q2|+1 <= 2Q+1 mantissa terms; require
    SCALE_GUARD_BITS guard bits below the scale."""
    needed = SCALE_GUARD_BITS + (2 * Q + 1).bit_length()
    if scale_bits < needed:
        raise PrecisionError(
            f"Q={Q} needs scale_bits >= {needed}, got {scale_bits}"
        )


def count_by_shell(alpha: tuple[FixedPoint, FixedPoint], Q: int, gamma,
                   psi: ApproxFunction,
                   scale_bits: int | None = None) -> np.ndarray:
    """Shell-indexed counts: entry n is the number of (p, q) solutions with
    |q| = n.  Sum of entries 1..Q is N(alpha, Q, gamma)."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    a1, a2 = alpha
    s = scale_bits or max(a1.scale_bits, a2.scale_bits, DEFAULT_SCALE_BITS)
    check_precision_range(Q, s)
    if a1.scale_bits > s or a2.scale_bits > s:
        raise PrecisionError("alpha carries more precision than the sweep scale")
    m1 = (a1.mantissa << (s - a1.scale_bits)) % (1 << s)
    m2 = (a2.mantissa << (s - a2.scale_bits)) % (1 << s)
    mg = _gamma_mantissa(gamma, s)
    thr = psi_mantissas(psi, Q, s)
    return count_by_shell_raw(m1, m2, mg, s, thr, Q)


def count_solutions(alpha: tuple[FixedPoint, FixedPoint], Q: int, gamma,
                    psi: ApproxFunction, scale_bits: int | None = None) -> int:
    """N(alpha, Q, gamma): solutions of ||q.alpha - gamma|| <= psi(|q|)
    over 0 < |q| <= Q, counting admissible integers p."""
    return int(count_by_shell(alpha, Q, gamma, psi, scale_bits).sum())


def main_term(psi: ApproxFunction, Q: int, mode: str = "exact-shell") -> Fraction:
    """Expected count: sum over shells of |shell(q)| * 2*psi(q).

    'exact-shell' uses the enumerated shell size 8q (so 16*sum q*psi);
    'paper' uses the literature normalization 16*sum q*psi + 8*sum psi,
    which corresponds to a shell size of 8q + 4.  The discrepancy is
    reported in run metadata; see also the shell-count audit test.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    total = Fraction(0)
    for q in range(1, Q + 1):
        v = eval_psi(psi, q)
        if mode == "exact-shell":
            total += shell_size(q) * 2 * v
        elif mode == "paper":
            total += 16 * q * v + 8 * v
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return total


def chi_term(psi: ApproxFunction, Q: int) -> Fraction:
    """Schmidt's comparison sum over 0 < |q| <= Q of psi(|q|)*tau(gcd(q)),
    accumulated per shell: the vectors of norm n and gcd d number
    8*phi(n/d), so shell n weighs sum_{d|n} tau(d)*8*phi(n/d) = 8*sigma(n)
    (tau * phi = 1 * 1 * phi = 1 * id = sigma)."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    total = Fraction(0)
    for n in range(1, Q + 1):
        v = eval_psi(psi, n)
        if v == 0:
            continue
        total += v * 8 * sum(divisors(n))
    return total


_E_UPPER = Fraction(2718281828459046, 10 ** 15)  # > e; conservative guard


def normalized_error(N: int, psi_main: Fraction, delta_log: Fraction) -> float:
    """(N - Psi) / (Psi^(1/2) * (ln Psi)^(3/2 + delta)); report-side float."""
    if psi_main <= _E_UPPER:
        raise ValueError("normalized error needs Psi > e")
    psi_f = float(psi_main)
    denom = math.sqrt(psi_f) * math.log(psi_f) ** (1.5 + float(delta_log))
    return (N - float(psi_main)) / denom


@dataclass(frozen=True)
class CountReport:
    """One (alpha, Q) experiment in both normalizations."""

    seed: int
    Q: int
    N: int
    psi_main_exact: Fraction
    psi_main_paper: Fraction
    chi: Fraction
    normalized_error: float | None
    gamma_id: str
    psi_id: str

    CSV_COLUMNS = ("seed", "Q", "N", "psi_exact", "psi_paper", "chi",
                   "err_norm", "gamma_id", "psi_id")

    def json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "Q": self.Q,
            "N": self.N,
            "psi_exact": str(self.psi_main_exact),
            "psi_paper": str(self.psi_main_paper),
            "chi": str(self.chi),
            "err_norm": self.normalized_error,
            "gamma_id": self.gamma_id,
            "psi_id": self.psi_id,
        }


def make_report(seed: int, shell_counts: np.ndarray, Q: int,
                psi: ApproxFunction, delta_log: Fraction, gamma_id: str,
                psi_id: str) -> CountReport:
    """Assemble a CountReport from per-shell counts (prefix up to Q)."""
    N = int(shell_counts[1:Q + 1].sum())
    psi_exact = main_term(psi, Q, "exact-shell")
    psi_paper = main_term(psi, Q, "paper")
    chi = chi_term(psi, Q)
    err = None
    if psi_exact > _E_UPPER:
        err = normalized_error(N, psi_exact, delta_log)
    return CountReport(seed=seed, Q=Q, N=N, psi_main_exact=psi_exact,
                       psi_main_paper=psi_paper, chi=chi,
                       normalized_error=err, gamma_id=gamma_id, psi_id=psi_id)
