"""Exact arithmetic in a discrete valuation ring O and its quotient field K.

Two instantiations are provided:

* ``padic-rational``: K = Q with the p-adic valuation (uniformizer p),
  O = rationals with no p in the denominator.
* ``tadic-ratfunc``: K = Q(t) with the t-adic valuation (uniformizer t),
  O = rational functions regular at t = 0.  An element is a ratio of
  integer polynomials (``_TPoly``) in lowest terms over Z[t]: numerator
  and denominator share no factor, not even a constant one, and the
  denominator has a positive leading coefficient.  So every element of
  Q(t) has one stored form, which is also its JSON form, and its
  valuation is the difference of the two orders at t.

Elements are immutable, stored in canonical reduced form, and carry a
reference to their :class:`RingConfig`; arithmetic across configs is
rejected.  The valuation of zero is ``INFINITY``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

INFINITY = math.inf


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _int_pval(n: int, p: int) -> int:
    # n != 0; at p = 2 the lowest set bit, which two's complement keeps
    # for negative n too
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# integer polynomials for the t-adic case


class _TPoly:
    """An integer polynomial t^v (c[0] + c[1] t + ... + c[d] t^d) with
    c[0] and c[d] nonzero, so v is its order at t.  Zero has c = ().

    The one polynomial type of the package: ``RatFuncElement`` stores its
    numerator and denominator as these, and they are the raw t-adic values
    of the valuation kernel (``matops._raw_entries``).  Immutable.
    """

    __slots__ = ("v", "c")

    def __init__(self, v: int, c: tuple):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("_TPoly is immutable")

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return (isinstance(other, _TPoly)
                and self.v == other.v and self.c == other.c)

    def __hash__(self):
        return hash((self.v, self.c))

    def __neg__(self):
        return _TPoly(self.v, tuple(-x for x in self.c))

    def __mul__(self, other):
        a, b = self.c, other.c
        if not a or not b:
            return _TZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            y = b[0]
            return _TPoly(self.v + other.v, tuple(x * y for x in a))
        # Z is a domain, so the end coefficients of the product are nonzero
        out = [0] * (len(a) + len(b) - 1)
        for j, y in enumerate(b):
            for i, x in enumerate(a, j):
                out[i] += x * y
        return _TPoly(self.v + other.v, tuple(out))

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def _sum(self, other, negate):
        if not other.c:
            return self
        if not self.c:
            return -other if negate else other
        lo = min(self.v, other.v)
        a, b = self.v - lo, other.v - lo
        out = [0] * max(a + len(self.c), b + len(other.c))
        out[a:a + len(self.c)] = self.c
        if negate:
            for i, y in enumerate(other.c, b):
                out[i] -= y
        else:
            for i, y in enumerate(other.c, b):
                out[i] += y
        return _tpoly(out, lo)


_TZERO = _TPoly(0, ())
_TONE = _TPoly(0, (1,))


def _tpoly(coeffs, v=0) -> _TPoly:
    """t^v times the integer polynomial with ascending ``coeffs``."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    if not hi:
        return _TZERO
    lo = 0
    while not coeffs[lo]:
        lo += 1
    return _TPoly(v + lo, tuple(coeffs[lo:hi]))


def _texact(a: _TPoly, b: _TPoly) -> _TPoly:
    """a / b for a nonzero b that divides a in Z[t]; raises ArithmeticError
    if it does not."""
    if not a:
        return _TZERO
    r, bc = list(a.c), b.c
    lead, top = bc[-1], len(bc) - 1
    q = [0] * (len(r) - top)
    for k in range(len(q) - 1, -1, -1):
        x, rest = divmod(r[k + top], lead)
        if rest:
            break
        q[k] = x
        for i, y in enumerate(bc, k):
            r[i] -= x * y
    if not q or a.v < b.v or any(r):
        raise ArithmeticError("inexact polynomial division")
    return _TPoly(a.v - b.v, tuple(q))


def _tprem(a: _TPoly, b: _TPoly) -> _TPoly:
    """The pseudo-remainder of a by a nonzero b: the r of degree below
    b's with lc(b)^(deg a - deg b + 1) a = q b + r for some q in Z[t]
    (r = a when deg a < deg b)."""
    r = [0] * a.v + list(a.c)
    bl = [0] * b.v + list(b.c)
    lead = bl[-1]
    for k in range(len(r) - len(bl), -1, -1):
        # cancel the coefficient of t^(k + deg b)
        f = r.pop()
        r = [lead * x for x in r]
        for i, y in enumerate(bl[:-1], k):
            r[i] -= f * y
    return _tpoly(r)


def _primitive(c: tuple) -> _TPoly:
    g = math.gcd(*c)
    return _TPoly(0, tuple(x // g for x in c))


def _tgcd(a: _TPoly, b: _TPoly) -> _TPoly:
    """The gcd of a and b in Z[t], with a positive leading coefficient
    (zero only when both are zero).

    The t-power part is t^min(ord a, ord b); the rest is the gcd of the
    contents times the gcd of the primitive parts, which a primitive
    pseudo-remainder sequence finds.  Every term of that sequence has a
    nonzero constant term, so the powers of t each remainder picks up can
    be dropped.
    """
    if not a or not b:
        g = a or b
    else:
        x, y = _primitive(a.c), _primitive(b.c)
        if len(x.c) < len(y.c):
            x, y = y, x
        while len(y.c) > 1:
            r = _tprem(x, y)
            if not r:
                break
            x, y = y, _primitive(r.c)
        else:
            y = _TONE
        content = math.gcd(*a.c, *b.c)
        g = _TPoly(min(a.v, b.v), tuple(content * z for z in y.c))
    return -g if g and g.c[-1] < 0 else g


_TERM_RE = re.compile(r"^([+-]?\d*)\*?(t(?:\^(\d+))?)?$")


def _poly_parse(s: str) -> _TPoly:
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"bad polynomial term {chunk!r}")
        cs, tpart, kpart = m.groups()
        if tpart is None:
            if cs in ("", "+", "-"):
                raise ValueError(f"bad polynomial term {chunk!r}")
            k, c = 0, int(cs)
        else:
            k = int(kpart) if kpart else 1
            c = int(cs + "1") if cs in ("", "+", "-") else int(cs)
        coeffs[k] = coeffs.get(k, 0) + c
    return _tpoly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def _poly_str(a: _TPoly) -> str:
    # descending powers, sage-free formatting
    if not a:
        return "0"
    terms = []
    for i in range(len(a.c) - 1, -1, -1):
        c, k = a.c[i], a.v + i
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            tpow = "t" if k == 1 else f"t^{k}"
            body = tpow if abs(c) == 1 else f"{abs(c)}{tpow}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += sign + body
    return out


class RingConfig:
    """A fixed DVR instantiation; all elements point back to one of these."""

    __slots__ = ("kind", "p")

    PADIC = "padic-rational"
    TADIC = "tadic-ratfunc"

    def __init__(self, kind: str, p: int | None = None):
        if kind == self.PADIC:
            if p is None:
                p = 2
            if not _is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
        elif kind == self.TADIC:
            if p is not None:
                raise ValueError("tadic-ratfunc takes no prime parameter")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("RingConfig is immutable")

    @classmethod
    def padic(cls, p: int = 2) -> "RingConfig":
        return cls(cls.PADIC, p)

    @classmethod
    def tadic(cls) -> "RingConfig":
        return cls(cls.TADIC)

    def __eq__(self, other):
        return (isinstance(other, RingConfig)
                and self.kind == other.kind and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == self.PADIC:
            return f"RingConfig.padic({self.p})"
        return "RingConfig.tadic()"

    # -- element factories --------------------------------------------------

    def element(self, value) -> "RingElement":
        """Coerce an int, Fraction, RingElement or JSON scalar string."""
        if isinstance(value, RingElement):
            if value.config != self:
                raise ValueError("mixed ring configurations")
            return value
        if self.kind == self.PADIC:
            return PadicElement(self, Fraction(value))
        if isinstance(value, str):
            return self._parse_ratfunc(value)
        if isinstance(value, tuple) and len(value) == 2:
            # ascending coefficients of num and den, ints or Fractions
            num, den = ([Fraction(c) for c in part] for part in value)
        else:
            num, den = [Fraction(value)], [Fraction(1)]
        s = math.lcm(*(c.denominator for c in num + den))
        return RatFuncElement(self, _tpoly([int(c * s) for c in num]),
                              _tpoly([int(c * s) for c in den]))

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
    def one(self) -> "RingElement":
        return self.element(1)

    @property
    def uniformizer(self) -> "RingElement":
        if self.kind == self.PADIC:
            return self.element(self.p)
        return RatFuncElement(self, _TPoly(1, (1,)), _TONE)

    # -- JSON scalar encoding ------------------------------------------------

    def scalar_to_json(self, x: "RingElement") -> str:
        if x.config != self:
            raise ValueError("mixed ring configurations")
        return x._to_json()

    def parse_scalar(self, s: str) -> "RingElement":
        if not isinstance(s, str):
            raise ValueError(f"scalar must be a string, got {type(s).__name__}")
        try:
            return self.element(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {s!r}") from None

    def _parse_ratfunc(self, s: str) -> "RatFuncElement":
        s = s.strip()
        m = re.match(r"^\((.*)\)/\((.*)\)$", s)
        if m:
            num, den = _poly_parse(m.group(1)), _poly_parse(m.group(2))
        else:
            num, den = _poly_parse(s), _TONE
        return RatFuncElement(self, num, den)

    def to_json(self) -> dict:
        if self.kind == self.PADIC:
            return {"kind": self.PADIC, "p": self.p}
        return {"kind": self.TADIC}

    @classmethod
    def from_json(cls, obj: dict) -> "RingConfig":
        kind = obj.get("kind")
        if kind == cls.PADIC:
            return cls.padic(int(obj["p"]))
        if kind == cls.TADIC:
            return cls.tadic()
        raise ValueError(f"unknown ring config {obj!r}")

    @classmethod
    def parse_flag(cls, text: str) -> "RingConfig":
        """Parse a CLI ring flag: exactly ``padic:<prime>`` or ``tadic``."""
        m = re.fullmatch(r"padic:([0-9]+)", text)
        if m:
            return cls.padic(int(m.group(1)))
        if text == "tadic":
            return cls.tadic()
        raise ValueError(
            f"unknown ring flag {text!r} (expected padic:<prime> or tadic)")


class RingElement:
    """Base class for exact elements of K; immutable value semantics."""

    __slots__ = ("config",)

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.config != self.config:
                raise ValueError("mixed ring configurations")
            return other
        if isinstance(other, (int, Fraction)):
            return self.config.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other._neg())

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._add(self._neg())

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero ring element")
        return self._mul(other._inv())

    def __neg__(self):
        return self._neg()

    def valuation(self):
        """Order k with self = u * t^k, u a unit; INFINITY iff self is zero."""
        raise NotImplementedError

    def unit_part(self) -> "RingElement":
        """The unit u with self = u * t^valuation(); rejects zero."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        raise NotImplementedError

    def __bool__(self):
        return not self.is_zero()


class PadicElement(RingElement):
    __slots__ = ("value", "_val")

    def __init__(self, config: RingConfig, value: Fraction):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_val", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _add(self, other):
        return PadicElement(self.config, self.value + other.value)

    def _mul(self, other):
        return PadicElement(self.config, self.value * other.value)

    def _neg(self):
        return PadicElement(self.config, -self.value)

    def _inv(self):
        return PadicElement(self.config, 1 / self.value)

    def is_zero(self):
        return self.value == 0

    def valuation(self):
        v = self._val
        if v is None:
            if self.value == 0:
                v = INFINITY
            else:
                p = self.config.p
                v = (_int_pval(self.value.numerator, p)
                     - _int_pval(self.value.denominator, p))
            object.__setattr__(self, "_val", v)
        return v

    def unit_part(self):
        if self.value == 0:
            raise ValueError("no unit part of zero")
        return PadicElement(
            self.config, self.value / Fraction(self.config.p) ** self.valuation())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return (isinstance(other, PadicElement)
                and self.config == other.config and self.value == other.value)

    def __hash__(self):
        return hash((self.config, self.value))

    def __repr__(self):
        return f"<{self.value} @ p={self.config.p}>"

    def _to_json(self):
        return str(self.value)


class RatFuncElement(RingElement):
    """num / den for integer polynomials in t (``_TPoly``) in lowest terms
    over Z[t]: no common factor, not even a constant one, and den with a
    positive leading coefficient.  Zero is 0 / 1."""

    __slots__ = ("num", "den")

    def __init__(self, config: RingConfig, num: _TPoly, den: _TPoly):
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _tgcd(num, den)
        if den.c[-1] < 0:
            g = -g
        if g != _TONE:
            num, den = _texact(num, g), _texact(den, g)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _add(self, other):
        num = self.num * other.den + other.num * self.den
        return RatFuncElement(self.config, num, self.den * other.den)

    def _mul(self, other):
        return RatFuncElement(self.config, self.num * other.num,
                              self.den * other.den)

    def _neg(self):
        return RatFuncElement(self.config, -self.num, self.den)

    def _inv(self):
        return RatFuncElement(self.config, self.den, self.num)

    def is_zero(self):
        return not self.num

    def valuation(self):
        return self.num.v - self.den.v if self.num else INFINITY

    def unit_part(self):
        if not self.num:
            raise ValueError("no unit part of zero")
        return RatFuncElement(self.config, _TPoly(0, self.num.c),
                              _TPoly(0, self.den.c))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return (self.num == _tpoly([other.numerator])
                    and self.den == _TPoly(0, (other.denominator,)))
        return (isinstance(other, RatFuncElement) and self.config == other.config
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.config, self.num, self.den))

    def __repr__(self):
        return f"<{self._to_json()}>"

    def _to_json(self):
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"
