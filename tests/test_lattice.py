from fractions import Fraction
from math import gcd

import pytest

from kglab.lattice import (LatticeVector, canonical, count_gcd_shell,
                           divisor_phi_pairs, divisors, factorize,
                           gcd_power_sum, gcd_power_sum_naive,
                           gcd_power_sum_sweep, gcd_shell_bound_ok, phi,
                           primitive_shell_count, primorials, shell,
                           shell_size, tau)


def brute_shell(n):
    out = []
    for q1 in range(-n, n + 1):
        for q2 in range(-n, n + 1):
            if max(abs(q1), abs(q2)) == n:
                out.append((q1, q2))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_shell_matches_bruteforce(n):
    vecs = shell(n)
    got = [(v.q1, v.q2) for v in vecs]
    assert sorted(got) == sorted(brute_shell(n))
    assert len(got) == shell_size(n) == 8 * n
    # emitted in total order
    assert vecs == sorted(vecs, key=LatticeVector.order_key)


def test_shell_closed_form_up_to_200():
    for n in range(1, 201):
        assert shell_size(n) == (2 * n + 1) ** 2 - (2 * n - 1) ** 2


def test_total_order_separates_shells():
    for n in range(1, 30):
        last = shell(n)[-1]
        first = shell(n + 1)[0]
        assert last.order_key() < first.order_key()


def test_canonical_direction_and_sign():
    # every vector of norm <= 30: v = s*g*P with g = gcd(v), P primitive
    # and lexicographically positive, and -v has the same g and P
    for n in range(1, 31):
        for q1, q2 in brute_shell(n):
            g, (p1, p2), s = canonical(q1, q2)
            assert (s * g * p1, s * g * p2) == (q1, q2)
            assert g == gcd(q1, q2) and gcd(p1, p2) == 1
            assert p1 > 0 or (p1 == 0 and p2 > 0)
            assert s in (1, -1)
            assert canonical(-q1, -q2) == (g, (p1, p2), -s)


def test_count_gcd_shell_formula_vs_enumeration():
    for n in range(1, 61):
        for d in divisors(n):
            enum = count_gcd_shell(n, d, "enumerate")
            assert enum == count_gcd_shell(n, d, "formula")
            assert enum == primitive_shell_count(n // d) == 8 * phi(n // d)


def test_gcd_shell_counts_partition_shell():
    for n in (1, 6, 12, 36):
        assert sum(count_gcd_shell(n, d) for d in divisors(n)) == 8 * n


def test_gcd_shell_claimed_bound_violations_are_reported():
    # the 4q/d bound fails whenever phi(q/d) > q/(2d); record, don't hide
    count, bound, ok = gcd_shell_bound_ok(2, 2)
    assert (count, bound, ok) == (8, Fraction(4), False)
    count, bound, ok = gcd_shell_bound_ok(6, 1)
    assert count == 8 * phi(6) == 16 and ok is True
    seen_violation = any(not gcd_shell_bound_ok(n, d)[2]
                         for n in range(1, 40) for d in divisors(n))
    assert seen_violation


def test_tau_examples():
    assert tau(1) == 1
    assert tau(12) == 6
    assert tau(2 ** 10) == 11


def test_phi_factorize():
    assert phi(1) == 1 and phi(10) == 4 and phi(97) == 96
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_gcd_power_sum_examples():
    total, norm = gcd_power_sum(6, 2)
    assert total == 55 and norm == Fraction(55, 36)
    total, _ = gcd_power_sum(6, 3)
    assert total == 261
    for p in (7, 11, 101):
        total, _ = gcd_power_sum(p, 2)
        assert total == (p - 1) + p ** 2


def test_gcd_power_sum_matches_naive():
    for q in range(2, 1001):
        for k in (1, 2, 3):
            want = gcd_power_sum_naive(q, k)
            assert gcd_power_sum(q, k)[0] == want
    # with a cap
    cap = Fraction(3, 4)
    for q in range(2, 150):
        assert gcd_power_sum(q, 2, cap)[0] == gcd_power_sum_naive(q, 2, cap)


def test_unrestricted_normalized_sum_grows_on_primorials():
    vals = [gcd_power_sum(q, 2)[1] for q in primorials(8)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_restricted_normalized_sum_small_sample():
    cap = Fraction(3, 4)
    for q in range(2, 2000):
        assert gcd_power_sum(q, 2, cap)[1] <= 4


def test_divisor_phi_pairs_bruteforce():
    for n in range(1, 501):
        pairs = divisor_phi_pairs(n)
        assert sorted(d for d, _ in pairs) == \
            [d for d in range(1, n + 1) if n % d == 0]
        for d, ph in pairs:
            m = n // d
            assert ph == sum(1 for j in range(1, m + 1) if gcd(j, m) == 1)


def test_sweep_matches_single():
    # each row against the O(q) single-q oracle, not gcd_power_sum itself
    for k in (1, 2, 3):
        for cap in (None, Fraction(3, 4)):
            rows = gcd_power_sum_sweep(300, k, cap)
            assert [q for q, _, _ in rows] == list(range(2, 301))
            for q, total, norm in rows:
                assert total == gcd_power_sum_naive(q, k, cap)
                assert norm == Fraction(total, q ** k)


def test_cube_sum_bound_sample():
    for q in range(2, 1500):
        below = gcd_power_sum(q, 3)[0] - q ** 3  # drop the r = q term
        assert below <= 2 * q ** 3
