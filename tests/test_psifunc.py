import logging
import random
from fractions import Fraction
from math import lcm

import pytest

from kglab.cli import parse_psi
from kglab.counting import CountTable
from kglab.psifunc import (Clamp, PowerLaw, TablePsi, Window, eval_psi,
                           hausdorff_exponent, hausdorff_partial_sum,
                           integer_nth_root, psi_mantissas, psi_table)

HALF = Fraction(1, 2)


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(2 ** 300, 4) == 2 ** 75
    big = 10 ** 60 + 12345
    r = integer_nth_root(big, 7)
    assert r ** 7 <= big < (r + 1) ** 7


@pytest.mark.parametrize("k", range(1, 9))
def test_integer_nth_root_definition(k):
    # even k goes through nested isqrt, odd parts > 1 through Newton
    rng = random.Random(k)
    ns = {0, 1}
    for x in (2, 3, 10, 2 ** 40 + 1, rng.getrandbits(100)):
        ns |= {x ** k - 1, x ** k, x ** k + 1}
    ns |= {rng.getrandbits(800) | 1 << 799 for _ in range(50)}
    for n in ns:
        r = integer_nth_root(n, k)
        assert r ** k <= n < (r + 1) ** k


def _newton_root(n, k):
    """floor(n ** (1/k)) by Newton alone: the reference for PowerLaw."""
    if n == 0 or k == 1:
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


@pytest.mark.parametrize("a", [Fraction(3, 4), Fraction(5, 6),
                               Fraction(7, 8)])
def test_power_law_roots_match_newton(a):
    c0, g = Fraction(1, 3), 192
    psi = PowerLaw(c0, a)
    for q in range(1, 501):
        t = _newton_root((1 << g * a.denominator) // q ** a.numerator,
                         a.denominator)
        assert eval_psi(psi, q) == min(HALF, c0 * Fraction(t, 1 << g))


def test_power_law_examples():
    # 16^(3/4) = 8
    assert eval_psi(PowerLaw(Fraction(1), Fraction(3, 4)), 16) == Fraction(1, 8)
    assert eval_psi(Clamp(PowerLaw(Fraction(1), Fraction(0))), 4) == Fraction(1, 8)
    assert eval_psi(TablePsi({3: Fraction(1, 5)}), 5) == 0
    assert eval_psi(TablePsi({3: Fraction(1, 5)}), 3) == Fraction(1, 5)


def test_power_law_rounding_direction():
    psi = PowerLaw(Fraction(1), Fraction(1, 2))  # q^(-1/2), uncapped for q >= 5
    for q in (5, 7, 10, 123, 10 ** 6 + 3):
        v = eval_psi(psi, q)
        assert v ** 2 <= Fraction(1, q)                  # rounded down
        assert Fraction(1, q) - v ** 2 < Fraction(1, 2 ** 180)


def test_cap_at_half_logged_once(caplog):
    psi = PowerLaw(Fraction(1), Fraction(3, 4))  # psi(1) = 1 -> capped
    with caplog.at_level(logging.INFO, logger="kglab.psifunc"):
        assert eval_psi(psi, 1) == HALF
        assert eval_psi(psi, 1) == HALF
    assert sum("capping" in r.message for r in caplog.records) == 1


def test_rejects_bad_q():
    with pytest.raises(ValueError):
        eval_psi(PowerLaw(Fraction(1), Fraction(1)), 0)
    with pytest.raises(ValueError):
        eval_psi(PowerLaw(Fraction(1), Fraction(1)), -3)


def test_never_exceeds_half_fuzz():
    rng = random.Random(1)
    funcs = [
        PowerLaw(Fraction(3), Fraction(1, 3)),
        PowerLaw(Fraction(7, 2), Fraction(0)),
        Clamp(PowerLaw(Fraction(2), Fraction(1, 5))),
        Window(PowerLaw(Fraction(5), Fraction(2, 7)), 3, 5000),
        TablePsi({q: Fraction(1, q + 2) for q in range(1, 50)}),
    ]
    for _ in range(100_000):
        f = rng.choice(funcs)
        q = rng.randint(1, 10 ** 6)
        assert 0 <= eval_psi(f, q) <= HALF


def test_window_sum_identity():
    inner = PowerLaw(Fraction(1, 3), Fraction(1, 2))
    w = Window(inner, 10, 40)
    lhs = sum(q * eval_psi(w, q) for q in range(1, 100))
    rhs = sum(q * eval_psi(inner, q) for q in range(10, 41))
    assert lhs == rhs


def test_table_csv_roundtrip(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("# q, value\n3, 1/7\n10, 0.25\n")
    t = TablePsi.from_csv(str(p))
    assert eval_psi(t, 3) == Fraction(1, 7)
    assert eval_psi(t, 10) == Fraction(1, 4)
    assert eval_psi(t, 4) == 0


@pytest.mark.parametrize("a,t", [
    (Fraction(2), Fraction(2)),
    (Fraction(5), Fraction(3, 2)),
    (Fraction(1, 2), Fraction(3)),
    (Fraction(1), Fraction(5, 2)),
])
def test_hausdorff_exponent(a, t):
    got_t, got_dim = hausdorff_exponent(PowerLaw(Fraction(1), a))
    assert got_t == t
    assert got_dim == min(t, Fraction(2))


def test_hausdorff_rejects_a_zero():
    with pytest.raises(ValueError):
        hausdorff_exponent(PowerLaw(Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        hausdorff_exponent(Clamp(PowerLaw(Fraction(1), Fraction(2))))


def test_partial_sum_probe_side_separation():
    # convergent side flattens out, divergent side keeps growing
    psi = PowerLaw(Fraction(1), Fraction(2))
    t = 2.0
    above_small = hausdorff_partial_sum(psi, t + 0.1, 10 ** 4)
    above_big = hausdorff_partial_sum(psi, t + 0.1, 10 ** 5)
    below_small = hausdorff_partial_sum(psi, t - 0.1, 10 ** 4)
    below_big = hausdorff_partial_sum(psi, t - 0.1, 10 ** 5)
    assert above_big - above_small < 0.5
    assert below_big > 1.5 * below_small


def test_partial_sum_requires_a_power_law():
    core = PowerLaw(Fraction(1), Fraction(1, 2))
    for psi in (Clamp(core), Window(core, 1, 10), TablePsi({1: HALF})):
        with pytest.raises(ValueError):
            hausdorff_partial_sum(psi, 1.5, 50)


def test_psi_mantissas():
    psi = PowerLaw(Fraction(1, 4), Fraction(0))
    m = psi_mantissas(psi, 3, 64)
    assert m[1] == m[2] == m[3] == 1 << 62


# one psi of each kind; a table with zeros, the empty table, and
# pow:1,3/4, which is capped at 1/2 at q = 1
KINDS = {
    "pow": PowerLaw(Fraction(1, 4), Fraction(2, 3)),
    "pow-capped": PowerLaw(Fraction(1), Fraction(3, 4)),
    "half-over-q": PowerLaw(HALF, Fraction(1)),
    "const": PowerLaw(Fraction(1, 3), Fraction(0)),
    "table": TablePsi({3: Fraction(1, 7), 5: Fraction(0), 9: Fraction(1, 4),
                       12: Fraction(0), 20: Fraction(1, 9)}),
    "empty-table": TablePsi({}),
    "clamp": Clamp(PowerLaw(Fraction(3, 5), Fraction(1, 2))),
    "window": Window(PowerLaw(Fraction(1, 2), Fraction(1, 3)), 4, 17),
    "window-clamp": Window(Clamp(PowerLaw(Fraction(1), Fraction(1, 4))),
                           2, 15),
}


@pytest.mark.parametrize("name", KINDS)
def test_describe_parses_back(name):
    psi = KINDS[name]
    back = parse_psi(psi.describe())
    assert [eval_psi(back, q) for q in range(1, 21)] == \
        [eval_psi(psi, q) for q in range(1, 21)]


def test_table_describe_syntax():
    assert KINDS["table"].describe() == "table:3=1/7,5=0,9=1/4,12=0,20=1/9"
    assert TablePsi({}).describe() == "const:0"


@pytest.mark.parametrize("name", KINDS)
def test_psi_table_matches_eval_psi(name):
    """psi_table against eval_psi, and the shell thresholds built on it
    (psi_mantissas and CountTable) against the direct floor of each
    Fraction, at every q."""
    psi, q_max = KINDS[name], 60
    num, td = psi_table(psi, q_max)
    vals = [eval_psi(psi, q) for q in range(1, q_max + 1)]
    assert len(num) == q_max + 1 and num[0] == 0
    assert td == lcm(*(v.denominator for v in vals))
    assert [Fraction(n, td) for n in num[1:]] == vals
    for s in (64, 100, 192):
        direct = [0] + [(v.numerator << s) // v.denominator for v in vals]
        assert psi_mantissas(psi, q_max, s) == direct
        assert CountTable(psi, [q_max], s).thresholds == direct
