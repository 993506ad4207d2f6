import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hivekit import INFINITY, RingConfig
from hivekit.ring import _texact, _tgcd, _tpoly, _tprem


def test_padic_valuation_examples(p2):
    assert p2.element(12).valuation() == 2
    assert p2.element(Fraction(3, 8)).valuation() == -3
    assert p2.zero.valuation() == INFINITY


def test_unit_part_examples(p2, tadic):
    assert p2.element(12).unit_part().value == 3
    assert p2.element(Fraction(3, 8)).unit_part().value == 3
    x = tadic.element("(t^2+t^3)/(1)")
    assert x.unit_part() == tadic.element("(1+t)/(1)")


def test_unit_part_of_zero_rejected(p2, tadic):
    for cfg in (p2, tadic):
        with pytest.raises(ValueError, match="no unit part of zero"):
            cfg.zero.unit_part()


def test_field_ops_examples(p2):
    half = p2.element(Fraction(1, 2))
    assert (half + half) == p2.one
    assert (p2.element(6) * p2.element(Fraction(1, 4))).value == Fraction(3, 2)
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
    assert x.unit_part().value == 3


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
