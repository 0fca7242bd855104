"""Z^2 enumeration by sup-norm shells, gcd/primitive structure, and exact
divisor/gcd-sum diagnostics (tau, phi, restricted gcd-power sums).

All counts are exact integers; every multiplicative quantity (tau, phi,
divisors, the (d, phi(n/d)) pairs behind the gcd sums) comes from one
trial-division ``factorize`` (desk scale, lattice-sized arguments only:
surds are normalized without factoring), except sigma(n) for every
n <= Q at once, which ``divisor_sums`` sieves for the count reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd


@dataclass(frozen=True)
class LatticeVector:
    """Nonzero integer vector with its sup-norm and gcd."""

    q1: int
    q2: int

    def __post_init__(self) -> None:
        if self.q1 == 0 and self.q2 == 0:
            raise ValueError("lattice vector must be nonzero")

    @cached_property
    def norm(self) -> int:
        return max(abs(self.q1), abs(self.q2))

    @cached_property
    def g(self) -> int:
        return gcd(abs(self.q1), abs(self.q2))

    def order_key(self) -> tuple[int, int, int]:
        """Total order on Z^2 minus 0: (norm, q1, q2) lexicographically,
        so a smaller norm always sorts first."""
        return (self.norm, self.q1, self.q2)

    def __iter__(self):
        return iter((self.q1, self.q2))


def canonical(q1: int, q2: int) -> tuple[int, tuple[int, int], int]:
    """(g, P, s) with (q1, q2) = s*g*P for a nonzero vector: g = gcd(q1, q2),
    P primitive and lexicographically positive, s = +-1.  Parallel vectors
    share P, and v and -v differ only in s."""
    g = gcd(q1, q2)
    p1, p2 = q1 // g, q2 // g
    if p1 < 0 or (p1 == 0 and p2 < 0):
        return g, (-p1, -p2), -1
    return g, (p1, p2), 1


def shell_coords(n: int) -> list[tuple[int, int]]:
    """(q1, q2) of every vector of sup-norm exactly n, in total-order
    order, without building the vectors."""
    if n < 1:
        raise ValueError("shell index must be >= 1")
    out = [(-n, q2) for q2 in range(-n, n + 1)]
    for q1 in range(1 - n, n):
        out.append((q1, -n))
        out.append((q1, n))
    out.extend((n, q2) for q2 in range(-n, n + 1))
    return out


def shell(n: int) -> list[LatticeVector]:
    """All vectors of sup-norm exactly n, in total-order order."""
    return [LatticeVector(q1, q2) for q1, q2 in shell_coords(n)]


def shell_size(n: int) -> int:
    """|shell(n)| = (2n+1)^2 - (2n-1)^2 = 8n."""
    return 8 * n


# -- multiplicative helpers -------------------------------------------------


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n >= 1, desk scale)."""
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def tau(n: int) -> int:
    """Number of positive divisors."""
    t = 1
    for e in factorize(n).values():
        t *= e + 1
    return t


def phi(n: int) -> int:
    """Euler totient."""
    v = n
    for p in factorize(n):
        v -= v // p
    return v


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def divisor_sums(n_max: int) -> list[int]:
    """sigma(n), the sum of the divisors of n, for n = 0..n_max (index 0
    unused), by one sieve over the multiples of each d."""
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sigma[m] += d
    return sigma


def divisor_phi_pairs(n: int) -> list[tuple[int, int]]:
    """(d, phi(n/d)) for every divisor d of n, built prime by prime from
    one factorization: phi(p^j) = p^j - p^(j-1) for j >= 1."""
    pairs = [(1, 1)]
    for p, e in factorize(n).items():
        powers = [p ** i for i in range(e + 1)]
        phis = [1] + [powers[j] - powers[j - 1] for j in range(1, e + 1)]
        pairs = [(d * powers[i], ph * phis[e - i])
                 for d, ph in pairs for i in range(e + 1)]
    return pairs


def primitive_shell_count(n: int) -> int:
    """Number of primitive vectors of sup-norm n: 8*phi(n).

    Each of the four sides contributes the lattice points (±n, j) or
    (i, ±n) with the off coordinate in [-n, n] coprime to n; corners have
    gcd n and never double count (n = 1 included: all 8 vectors)."""
    return 8 * phi(n)


def count_gcd_shell(n: int, d: int, method: str = "formula") -> int:
    """Number of vectors with sup-norm n and gcd exactly d (d | n).

    'formula' uses 8*phi(n/d) (the gcd-d vectors are d times the primitive
    vectors of norm n/d); 'enumerate' walks the shell, and the test suite
    pins the two against each other.
    """
    if n < 1 or d < 1 or n % d:
        raise ValueError("need d | n with n, d >= 1")
    if method == "enumerate":
        return sum(1 for v in shell(n) if v.g == d)
    if method == "formula":
        return primitive_shell_count(n // d)
    raise ValueError(f"unknown method {method!r}")


def gcd_shell_bound_ok(n: int, d: int) -> tuple[int, Fraction, bool]:
    """Check the claimed bound count <= 4n/d; returns (count, bound, ok).

    The enumerated count is 8*phi(n/d), which exceeds 4n/d whenever
    phi(n/d) > n/(2d); violations are reported verbatim, not asserted away.
    """
    count = count_gcd_shell(n, d)
    bound = Fraction(4 * n, d)
    return count, bound, Fraction(count) <= bound


# -- gcd power sums ----------------------------------------------------------


def _cap_holds(dv: int, q: int, cap: Fraction) -> bool:
    """dv < q**cap with rational cap, decided in integers."""
    return dv ** cap.denominator < q ** cap.numerator


def gcd_power_sum(q: int, k: int, cap: Fraction | None = None,
                  ) -> tuple[int, Fraction]:
    """(S, S/q^k) with S = sum over 1 <= r <= q, gcd(q,r) < q^cap of
    gcd(q, r)^k, computed exactly via sum over divisors d of d^k phi(q/d).

    cap = None means no restriction (the r = q term contributes q^k).
    """
    if q < 2 or k < 1:
        raise ValueError("need q >= 2, k >= 1")
    total = sum(dv ** k * ph for dv, ph in divisor_phi_pairs(q)
                if cap is None or _cap_holds(dv, q, cap))
    return total, Fraction(total, q ** k)


def gcd_power_sum_naive(q: int, k: int, cap: Fraction | None = None) -> int:
    """O(q) oracle for gcd_power_sum."""
    total = 0
    for r in range(1, q + 1):
        g = gcd(q, r)
        if cap is not None and not _cap_holds(g, q, cap):
            continue
        total += g ** k
    return total


def gcd_power_sum_sweep(q_max: int, k: int, cap: Fraction | None = None,
                        ) -> list[tuple[int, int, Fraction]]:
    """(q, S, S/q^k) from gcd_power_sum for all 2 <= q <= q_max."""
    if q_max < 2:
        raise ValueError("need q_max >= 2")
    return [(q, *gcd_power_sum(q, k, cap)) for q in range(2, q_max + 1)]


def primorials(count: int) -> list[int]:
    """First ``count`` primorials 2, 6, 30, 210, ..."""
    if count < 1:
        raise ValueError("need count >= 1")
    out = []
    value, p = 1, 2
    while len(out) < count:
        if factorize(p) == {p: 1}:
            value *= p
            out.append(value)
        p += 1
    return out
