"""Exact arithmetic in a discrete valuation ring O and its quotient field K.

Two instantiations are provided:

* ``padic-rational``: K = Q with the p-adic valuation (uniformizer p),
  O = rationals with no p in the denominator.
* ``tadic-ratfunc``: K = Q(t) with the t-adic valuation (uniformizer t),
  O = rational functions regular at t = 0.

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
# polynomial helpers for the t-adic case: coefficient tuples of Fractions,
# ascending degree, trailing zeros trimmed, () is the zero polynomial.

def _ptrim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a: tuple, b: tuple) -> tuple:
    # b != 0; long division over Q
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quo[k] = c
        for i, cb in enumerate(b):
            rem[k + i] -= c * cb
        del rem[-1]
        while rem and rem[-1] == 0:
            del rem[-1]
    return _ptrim(quo), _ptrim(rem)


def _pgcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pmonic(a)


def _pmonic(a: tuple) -> tuple:
    lead = a[-1]
    return tuple(c / lead for c in a)


def _pord(a: tuple) -> int:
    # order at t = 0 of a nonzero polynomial
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("zero polynomial has no order")


def _pshift(a: tuple, k: int) -> tuple:
    # multiply by t^k, k may be negative if a is divisible by t^-k
    if not a:
        return ()
    if k >= 0:
        return (Fraction(0),) * k + a
    return a[-k:]


_TERM_RE = re.compile(r"^([+-]?\d*)\*?(t(?:\^(\d+))?)?$")


def _poly_parse(s: str) -> tuple:
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    coeffs: dict[int, Fraction] = {}
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
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    deg = max(coeffs)
    return _ptrim([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


def _poly_str(a: tuple) -> str:
    # integer coefficients expected; descending powers, sage-free formatting
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        c = int(c)
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
            num, den = value
            return RatFuncElement(self, _ptrim(Fraction(c) for c in num),
                                  _ptrim(Fraction(c) for c in den))
        return RatFuncElement(self, _ptrim((Fraction(value),)), (Fraction(1),))

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
        return RatFuncElement(self, (Fraction(0), Fraction(1)), (Fraction(1),))

    # -- JSON scalar encoding ------------------------------------------------

    def scalar_to_json(self, x: "RingElement") -> str:
        if x.config != self:
            raise ValueError("mixed ring configurations")
        return x._to_json()

    def parse_scalar(self, s: str) -> "RingElement":
        if not isinstance(s, str):
            raise ValueError(f"scalar must be a string, got {type(s).__name__}")
        return self.element(s)

    def _parse_ratfunc(self, s: str) -> "RatFuncElement":
        s = s.strip()
        m = re.match(r"^\((.*)\)/\((.*)\)$", s)
        if m:
            num, den = _poly_parse(m.group(1)), _poly_parse(m.group(2))
        else:
            num, den = _poly_parse(s), (Fraction(1),)
        if not den:
            raise ZeroDivisionError("zero denominator in ratfunc scalar")
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
    """A reduced ratio of polynomials in t over Q, denominator monic."""

    __slots__ = ("num", "den", "_val")

    def __init__(self, config: RingConfig, num: tuple, den: tuple):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = _pgcd(num, den)
            if len(g) > 1 or g[0] != 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = tuple(c / lead for c in num)
                den = tuple(c / lead for c in den)
        else:
            den = (Fraction(1),)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_val", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _add(self, other):
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return RatFuncElement(self.config, num, _pmul(self.den, other.den))

    def _mul(self, other):
        return RatFuncElement(self.config, _pmul(self.num, other.num),
                              _pmul(self.den, other.den))

    def _neg(self):
        return RatFuncElement(self.config, _pneg(self.num), self.den)

    def _inv(self):
        return RatFuncElement(self.config, self.den, self.num)

    def is_zero(self):
        return not self.num

    def valuation(self):
        v = self._val
        if v is None:
            v = INFINITY if not self.num else _pord(self.num) - _pord(self.den)
            object.__setattr__(self, "_val", v)
        return v

    def unit_part(self):
        if not self.num:
            raise ValueError("no unit part of zero")
        return RatFuncElement(self.config, _pshift(self.num, -_pord(self.num)),
                              _pshift(self.den, -_pord(self.den)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.den == (Fraction(1),) and (
                self.num == () if other == 0 else self.num == (Fraction(other),))
        return (isinstance(other, RatFuncElement) and self.config == other.config
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.config, self.num, self.den))

    def __repr__(self):
        return f"<({_poly_str_q(self.num)})/({_poly_str_q(self.den)})>"

    def _to_json(self):
        # clear rational coefficients to the integer-coefficient form
        dens = [c.denominator for c in self.num + self.den]
        scale = 1
        for d in dens:
            scale = scale * d // math.gcd(scale, d)
        num = [c * scale for c in self.num]
        den = [c * scale for c in self.den]
        nums = [int(c) for c in num + den]
        g = 0
        for c in nums:
            g = math.gcd(g, c)
        g = g or 1
        if den[-1] < 0:
            g = -g
        num = _ptrim(Fraction(int(c) // g) for c in num)
        den = _ptrim(Fraction(int(c) // g) for c in den)
        return f"({_poly_str(num)})/({_poly_str(den)})"


def _poly_str_q(a: tuple) -> str:
    if not a:
        return "0"
    return " + ".join(f"{c}*t^{k}" for k, c in enumerate(a) if c)

