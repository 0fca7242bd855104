"""The counting function N(alpha, Q, gamma), its expected value in both
normalizations, Schmidt's divisor-weighted comparison sum, and normalized
error reports.

The sweep is exact: alpha and gamma enter through their scale_bits
mantissas and every membership decision is an integer comparison (see
``_kernels``).  A boundary tie ||q.alpha - gamma|| = psi = 1/2 yields two
admissible integers p and counts twice; the event is detectable because
the arithmetic is exact, and has probability zero for sampled alpha.

A count run evaluates psi once per q <= Q_max, in one ``CountTable`` built
on ``psi_table``, the integers over one denominator td that the variance
engine reads too; it takes psi as one integer pair per q and makes no
Fraction per q.  The kernel reads its shell thresholds from it, and
every report reads its terms from three integer prefix sums over td:
sum q*psi, sum psi and sum sigma(q)*psi, with sigma from one divisor-sum
sieve.  ``main_term`` and ``chi_term`` sum the same terms from
q = 1 with ``Fraction``s and are kept as the oracles of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import count_by_shell_raw
from .fixedpoint import (DEFAULT_SCALE_BITS, MIN_SCALE_BITS, FixedPoint,
                         PrecisionError)
from .lattice import divisor_sums, divisors, shell_size
from .psifunc import ApproxFunction, eval_psi, psi_mantissas, psi_table
from .torus import as_shift


def _gamma_mantissa(gamma, scale_bits: int) -> int:
    """floor(gamma * 2**scale_bits) mod 2**scale_bits, gamma rounded as a
    torus shift (``as_shift``)."""
    if isinstance(gamma, FixedPoint) and gamma.scale_bits > scale_bits:
        raise PrecisionError("gamma carries more precision than the sweep scale")
    g = as_shift(gamma, scale_bits)
    return ((g.numerator << scale_bits) // g.denominator) % (1 << scale_bits)


def check_precision_range(Q: int, scale_bits: int) -> None:
    """Sweep values accumulate |q1|+|q2|+1 <= 2Q+1 mantissa terms; require
    MIN_SCALE_BITS guard bits below the scale."""
    needed = MIN_SCALE_BITS + (2 * Q + 1).bit_length()
    if scale_bits < needed:
        raise PrecisionError(
            f"Q={Q} needs scale_bits >= {needed}, got {scale_bits}"
        )


def count_by_shell(alpha: tuple[FixedPoint, FixedPoint], Q: int, gamma,
                   psi: ApproxFunction,
                   scale_bits: int | None = None) -> list[int]:
    """Shell-indexed counts as a ``list[int]``: entry n is the number of
    (p, q) solutions with |q| = n.  Sum of entries 1..Q is
    N(alpha, Q, gamma)."""
    a1, a2 = alpha
    s = scale_bits or max(a1.scale_bits, a2.scale_bits, DEFAULT_SCALE_BITS)
    check_precision_range(Q, s)  # before psi is evaluated Q times
    return count_by_thresholds(alpha, Q, gamma, psi_mantissas(psi, Q, s), s)


def count_by_thresholds(alpha: tuple[FixedPoint, FixedPoint], Q: int, gamma,
                        thresholds: list[int], scale_bits: int) -> list[int]:
    """``count_by_shell`` with psi given as its shell thresholds
    thresholds[n] = floor(psi(n) * 2**scale_bits) for n <= Q."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    a1, a2 = alpha
    s = scale_bits
    check_precision_range(Q, s)
    if a1.scale_bits > s or a2.scale_bits > s:
        raise PrecisionError("alpha carries more precision than the sweep scale")
    m1 = (a1.mantissa << (s - a1.scale_bits)) % (1 << s)
    m2 = (a2.mantissa << (s - a2.scale_bits)) % (1 << s)
    mg = _gamma_mantissa(gamma, s)
    return count_by_shell_raw(m1, m2, mg, s, thresholds, Q)


def count_solutions(alpha: tuple[FixedPoint, FixedPoint], Q: int, gamma,
                    psi: ApproxFunction, scale_bits: int | None = None) -> int:
    """N(alpha, Q, gamma): solutions of ||q.alpha - gamma|| <= psi(|q|)
    over 0 < |q| <= Q, counting admissible integers p."""
    return sum(count_by_shell(alpha, Q, gamma, psi, scale_bits))


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


class CountTable:
    """psi(q) for 1 <= q <= max(qs), evaluated once for a whole count run
    by ``psi_table`` as integers num[q] over one denominator td, the lcm of
    the reduced denominators of psi's integer pairs (2**GUARD_BITS for
    q**(-3/4), about lcm(1..Q) for 1/q).

    ``thresholds[q]`` = floor(psi(q) * 2**scale_bits) = (num[q] <<
    scale_bits) // td are the kernel's shell thresholds, the values of
    ``psi_mantissas``.  ``terms[Q]`` for each Q of ``qs`` is (psi_exact,
    psi_paper, chi), the values of ``main_term`` in both modes and of
    ``chi_term``: 16*sum q*psi, that plus 8*sum psi, and 8*sum sigma(q)*psi.
    The three prefix sums run as integers over td and are kept only at the
    Q of ``qs``: a sum per q would hold O(Q**2) bits for 1/q.
    """

    def __init__(self, psi: ApproxFunction, qs: list[int],
                 scale_bits: int) -> None:
        q_max = max(qs)
        nums, td = psi_table(psi, q_max)
        self.thresholds = [(n << scale_bits) // td for n in nums]
        sigma = divisor_sums(q_max)
        wanted = set(qs)
        s_q = s_1 = s_sigma = 0
        self.terms: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
        for q, num in enumerate(nums[1:], 1):
            s_q += q * num
            s_1 += num
            s_sigma += sigma[q] * num
            if q in wanted:
                self.terms[q] = (Fraction(16 * s_q, td),
                                 Fraction(16 * s_q + 8 * s_1, td),
                                 Fraction(8 * s_sigma, td))


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


def make_report(seed: int, shell_counts: list[int], Q: int,
                table: CountTable, delta_log: Fraction, gamma_id: str,
                psi_id: str) -> CountReport:
    """Assemble a CountReport from per-shell counts (prefix up to Q) and
    the run's psi table, which must hold the sums at Q."""
    N = sum(shell_counts[1:Q + 1])
    psi_exact, psi_paper, chi = table.terms[Q]
    err = None
    if psi_exact > _E_UPPER:
        err = normalized_error(N, psi_exact, delta_log)
    return CountReport(seed=seed, Q=Q, N=N, psi_main_exact=psi_exact,
                       psi_main_paper=psi_paper, chi=chi,
                       normalized_error=err, gamma_id=gamma_id, psi_id=psi_id)
