import ast
import importlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hivekit import INFINITY, RingConfig
from hivekit.ring import _PRIME_BOUND, _texact, _tgcd, _tpoly, _tprem


def test_padic_valuation_examples(p2):
    assert p2.element(12).valuation() == 2
    assert p2.element(Fraction(3, 8)).valuation() == -3
    assert p2.zero.valuation() == INFINITY


def test_unit_part_examples(p2, tadic):
    assert p2.element(12).unit_part() == p2.element(3)
    assert p2.element(Fraction(3, 8)).unit_part() == p2.element(3)
    x = tadic.element("(t^2+t^3)/(1)")
    assert x.unit_part() == tadic.element("(1+t)/(1)")


def test_unit_part_of_zero_rejected(p2, tadic):
    for cfg in (p2, tadic):
        with pytest.raises(ValueError, match="no unit part of zero"):
            cfg.zero.unit_part()


def test_field_ops_examples(p2):
    half = p2.element(Fraction(1, 2))
    assert (half + half) == p2.one
    assert (p2.element(6) * p2.element(Fraction(1, 4))
            == p2.element(Fraction(3, 2)))
    # ultrametric equality can fail when valuations tie
    assert (p2.element(2) + p2.element(2)).valuation() == 2 > 1


def test_division_by_zero(p2):
    with pytest.raises(ZeroDivisionError):
        p2.one / p2.zero


def test_mixed_config_rejected(p2, p3, tadic):
    with pytest.raises(ValueError, match="mixed ring"):
        p2.one + p3.one
    with pytest.raises(ValueError, match="mixed ring"):
        p2.one * tadic.one


def test_composite_p_rejected():
    with pytest.raises(ValueError, match="prime"):
        RingConfig.padic(6)
    with pytest.raises(ValueError, match="prime"):
        RingConfig.padic(1)


def test_primality_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    for p in range(3000):
        if trial(p):
            assert RingConfig.padic(p).p == p
        else:
            with pytest.raises(ValueError, match="prime"):
                RingConfig.padic(p)


def test_large_primes():
    start = time.perf_counter()
    assert RingConfig.padic(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    # 2^61 + 1 is divisible by 3; 399165290221 * 798330580441 is a strong
    # pseudoprime to each of the first 12 prime bases, so only the 13th
    # (41) rejects it
    for bad in (2 ** 61 + 1, 1, 399165290221 * 798330580441):
        with pytest.raises(ValueError, match="prime"):
            RingConfig.padic(bad)
    # Miller-Rabin on the fixed bases is exact only below the bound
    for big in (_PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="below"):
            RingConfig.padic(big)


def test_config_equality_and_json():
    assert RingConfig.padic(2) == RingConfig.padic(2)
    assert RingConfig.padic(2) != RingConfig.padic(3)
    assert RingConfig.padic(2) != RingConfig.tadic()
    for cfg in (RingConfig.padic(5), RingConfig.tadic()):
        assert RingConfig.from_json(cfg.to_json()) == cfg
    assert RingConfig.parse_flag("padic:3") == RingConfig.padic(3)
    assert RingConfig.parse_flag("tadic") == RingConfig.tadic()


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=64)


@given(x=fractions_st, y=fractions_st)
def test_padic_valuation_properties(x, y):
    cfg = RingConfig.padic(2)
    a, b = cfg.element(x), cfg.element(y)
    prod = a * b
    assert prod.valuation() == a.valuation() + b.valuation()
    total = a + b
    assert total.valuation() >= min(a.valuation(), b.valuation())
    if a.valuation() != b.valuation():
        assert total.valuation() == min(a.valuation(), b.valuation())
    if not a.is_zero():
        assert (cfg.one / a).valuation() == -a.valuation()
        t_pow = cfg.uniformizer
        rebuilt = a.unit_part()
        v = a.valuation()
        scale = cfg.one
        for _ in range(abs(v)):
            scale = scale * t_pow
        rebuilt = rebuilt * scale if v >= 0 else rebuilt / scale
        assert rebuilt == a


small_polys = st.lists(st.integers(min_value=-5, max_value=5),
                       min_size=1, max_size=4)


@given(num_a=small_polys, num_b=small_polys, shift=st.integers(0, 2))
def test_tadic_valuation_properties(num_a, num_b, shift):
    cfg = RingConfig.tadic()
    a = cfg.element((tuple(Fraction(v) for v in num_a), (Fraction(1),)))
    b = cfg.element((tuple(Fraction(v) for v in num_b), (Fraction(1),)))
    for _ in range(shift):
        b = b / cfg.uniformizer
    prod = a * b
    if a.is_zero() or b.is_zero():
        assert prod.valuation() == INFINITY
    else:
        assert prod.valuation() == a.valuation() + b.valuation()
    total = a + b
    assert total.valuation() >= min(a.valuation(), b.valuation())
    if not a.is_zero():
        assert (cfg.one / a).valuation() == -a.valuation()


def fraction_valuation(x, p):
    v = 0
    while x.numerator % p == 0:
        x, v = x / p, v + 1
    while x.denominator % p == 0:
        x, v = x * p, v - 1
    return v


@given(x=fractions_st, y=fractions_st, p=st.sampled_from([2, 3]))
def test_padic_element_matches_fraction(x, y, p):
    # the p-adic element is num / den over Python ints; Fraction is the
    # reference for its arithmetic, valuation and JSON form
    cfg = RingConfig.padic(p)
    a, b = cfg.element(x), cfg.element(y)
    results = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)]
    if y:
        results.append((a / b, x / y))
    if x:
        v = fraction_valuation(x, p)
        assert a.valuation() == v
        results.append((a.unit_part(), x / Fraction(p) ** v))
    else:
        assert a.valuation() == INFINITY
    for got, want in results:
        assert (got.num, got.den) == (want.numerator, want.denominator)
        assert cfg.scalar_to_json(got) == str(want)
        assert cfg.parse_scalar(str(want)) == got
        assert got.valuation() == (fraction_valuation(want, p) if want
                                   else INFINITY)


def test_scalar_json_round_trip_padic(p2):
    for raw in ("3/8", "-5", "0", "7/3"):
        x = p2.parse_scalar(raw)
        assert p2.scalar_to_json(x) == raw
        assert p2.parse_scalar(p2.scalar_to_json(x)) == x


def test_scalar_json_round_trip_tadic(tadic):
    for raw in ("(t^2+t)/(1)", "(1)/(2)", "(-3t^2+1)/(t)", "(0)/(1)"):
        x = tadic.parse_scalar(raw)
        again = tadic.parse_scalar(tadic.scalar_to_json(x))
        assert again == x
    half_t = tadic.element("t") / tadic.element(2)
    assert tadic.scalar_to_json(half_t) == "(t)/(2)"


def test_canonical_form_equality(tadic):
    # (t^2+t)/(t) reduces to (t+1)/(1)
    a = tadic.element("(t^2+t)/(t)")
    b = tadic.element("(t+1)/(1)")
    assert a == b and hash(a) == hash(b)


def test_valuation_and_unit_part_methods(p2):
    x = p2.element(12)
    assert x.valuation() == 2
    assert x.unit_part() == p2.element(3)


def test_parse_flag_accepts_exactly_padic_prime_and_tadic():
    assert RingConfig.parse_flag("padic:2") == RingConfig.padic(2)
    assert RingConfig.parse_flag("padic:5") == RingConfig.padic(5)
    for bad in ("padic", "padic3", "padic5", "padicx", "padic:", "padic:x",
                "padic: 3", "padic:3 ", "padic:4", "tadic:2", "TADIC", ""):
        with pytest.raises(ValueError):
            RingConfig.parse_flag(bad)


int_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4)
nonzero_polys = int_polys.filter(lambda p: p[-1])  # len(p) = deg + 1


def times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fraction_gcd(a, b):
    """Monic gcd over Q by Euclid on Fraction coefficient lists."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p
    a, b = trim(list(map(Fraction, a))), trim(list(map(Fraction, b)))
    while b:
        while len(a) >= len(b):
            f, k = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b, k):
                a[i] -= f * y
            trim(a)
        a, b = b, a
    return [x / a[-1] for x in a]


@example(a=[0, 1], b=[1], c=[2])      # (2t)/(2)
@example(a=[1], b=[0, 1], c=[-1])     # (-1)/(-t)
@given(a=int_polys, b=nonzero_polys, c=nonzero_polys)
def test_tadic_canonical_form(a, b, c):
    cfg = RingConfig.tadic()
    x = cfg.element((tuple(a), tuple(b)))
    y = cfg.element((tuple(times(a, c)), tuple(times(b, c))))
    assert x == y and hash(x) == hash(y)
    assert cfg.scalar_to_json(x) == cfg.scalar_to_json(y)
    assert x.den.c[-1] > 0
    assert math.gcd(*x.num.c, *x.den.c) == 1


def test_texact_by_a_power_of_t():
    # division by t^k is a shift of the order, and inexact below it
    assert _texact(_tpoly([0, 0, 3, -1]), _tpoly([0, 1])) == _tpoly([0, 3, -1])
    assert _texact(_tpoly([2, 5]), _tpoly([1])) == _tpoly([2, 5])
    with pytest.raises(ArithmeticError):
        _texact(_tpoly([2, 5]), _tpoly([0, 1]))


@given(f=nonzero_polys, g=nonzero_polys, h=nonzero_polys)
def test_integer_gcd_matches_fraction_euclid(f, g, h):
    a, b = times(f, g), times(f, h)
    d = _tgcd(_tpoly(a), _tpoly(b))
    assert d.c[-1] > 0
    full = [0] * d.v + list(d.c)
    assert [Fraction(x, full[-1]) for x in full] == fraction_gcd(a, b)
    for p in (a, b):
        assert _texact(_tpoly(p), d) * d == _tpoly(p)
    # lc(b)^(deg a - deg b + 1) a - prem(a, b) is a multiple of b
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    r = _tprem(_tpoly(big), _tpoly(small))
    scale = small[-1] ** (len(big) - len(small) + 1)
    assert not r or r.v + len(r.c) < len(small)
    _texact(_tpoly([scale * x for x in big]) - r, _tpoly(small))


def kind_comparisons(tree):
    """The enclosing function's name (None at module level) of each
    comparison with a ``.kind`` operand."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "kind"
                for x in (node.left, *node.comparators)):
            out.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    return out


@pytest.mark.parametrize("name", ["matops", "lattice", "hive", "cli"])
def test_ring_kind_stays_in_ring(name):
    # what differs between the ring kinds lives behind RingConfig.raw:
    # the optimizer's modules and the CLI take only the ring's public
    # types, and only the CLI's p-adic input guard of the oracle command
    # reads the kind
    module = importlib.import_module(f"hivekit.{name}")
    tree = ast.parse(open(module.__file__, encoding="utf-8").read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hivekit") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if (node.level, node.module) in ((1, "ring"), (0, "hivekit.ring")):
                assert names <= {"INFINITY", "RingConfig", "RingElement"}
            elif node.module in (None, "hivekit"):
                assert "ring" not in names
    want = ["cmd_oracle"] if name == "cli" else []
    assert kind_comparisons(tree) == want
