"""Exact arithmetic in a discrete valuation ring O and its quotient field K.

Two instantiations are provided:

* ``padic-rational``: K = Q with the p-adic valuation (uniformizer p),
  O = rationals with no p in the denominator.
* ``tadic-ratfunc``: K = Q(t) with the t-adic valuation (uniformizer t),
  O = rational functions regular at t = 0.

Everything that differs between the two lives in one *raw arithmetic*
object per config, ``RingConfig.raw``: ``_IntRaw(p)``, whose raw values
are Python ints with pi = p, or ``_PolyRaw``, whose raw values are
integer polynomials (``_TPoly``) with pi = t.  It holds the valuation
``val`` of a nonzero raw value, the fraction-free row clearing ``step``
of the elimination kernels, ``exact`` division, ``gcd`` and the sign
rule ``negative`` for denominators, ``zero``, ``one`` and ``power(k)``
= pi^k, the content cancellation of ``matops._swap_form`` (p-adic only),
and the parsing (``parse``) and formatting (``format``) of one scalar.

An element (``RingElement``) is num / den for two raw values in lowest
terms: no common factor, not even a constant one, and den not
``negative`` (a positive int, or a polynomial with a positive leading
coefficient).  So every element of K has one stored form, which is also
its JSON form (``str(Fraction)`` for p-adic scalars, ``(num)/(den)``
for t-adic ones), and its valuation is val(num) - val(den).  Elements
are immutable, carry a reference to their :class:`RingConfig`, and
arithmetic across configs is rejected.  The valuation of zero is
``INFINITY``.  The matrix kernels (``matops._raw_entries``) clear one
common denominator and work on the raw values directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter, floordiv

INFINITY = math.inf

# The first 13 primes.  Miller-Rabin on these bases decides primality
# exactly below _PRIME_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015); the first 12 alone are fooled by
# 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for p at or above
    ``_PRIME_BOUND``, where it would not be exact."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be below {_PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for b in _PRIME_BASES:
        if p % b == 0:
            return p == b
    s = _int_pval(p - 1, 2)
    d = (p - 1) >> s
    for b in _PRIME_BASES:
        # p passes base b iff b^d = 1 or b^(d 2^r) = -1 for some r < s
        x = pow(b, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
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

    The one polynomial type of the package: the raw values of the t-adic
    ring (``_PolyRaw``), so a t-adic ``RingElement`` stores its numerator
    and denominator as these.  Immutable.
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
    if b.c == (1,):  # b = t^k: a shift
        if a.v < b.v:
            raise ArithmeticError("inexact polynomial division")
        return _TPoly(a.v - b.v, a.c)
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


# ---------------------------------------------------------------------------
# raw arithmetic, one object per ring kind


class _IntRaw:
    """The raw values of a p-adic ring: Python ints, with pi = p."""

    zero, one = 0, 1
    exact = staticmethod(floordiv)
    gcd = staticmethod(math.gcd)

    def __init__(self, p: int):
        self.p = p
        # v_p of a nonzero int.  The kernels call it on every entry they
        # scan, and a closure costs about half of a keyword ``partial``;
        # at p = 2 it is ``_int_pval``'s lowest-set-bit rule inline
        if p == 2:
            self.val = lambda x: (x & -x).bit_length() - 1
        else:
            self.val = lambda x: _int_pval(x, p)

    def power(self, k: int) -> int:
        return self.p ** k

    @staticmethod
    def negative(x: int) -> bool:
        return x < 0

    def step(self, pivot: int, v: int):
        """The row clearing at a pivot p^v u (``matops._eliminate``):
        row <- u row - (e / p^v) prow."""
        q = self.p ** v
        u = pivot // q

        def clear(row, prow, e):
            f = e // q
            return [u * x - f * y for x, y in zip(row, prow)]
        return clear

    def cancel_content(self, blocks):
        """(blocks / g, v_p(g)) for the gcd g of all the entries of the
        blocks (lists of rows)."""
        g = math.gcd(*(x for rows in blocks for row in rows for x in row))
        return (tuple([[x // g for x in row] for row in rows]
                      for rows in blocks), self.val(g))

    @staticmethod
    def parse(value) -> tuple:
        """(num, den) of an int, Fraction or scalar string, as ``Fraction``
        reads it."""
        f = Fraction(value)
        return f.numerator, f.denominator

    @staticmethod
    def format(num: int, den: int) -> str:
        # str(Fraction(num, den))
        return str(num) if den == 1 else f"{num}/{den}"


class _PolyRaw:
    """The raw values of the t-adic ring: integer polynomials (``_TPoly``),
    with pi = t."""

    zero, one = _TZERO, _TONE
    val = attrgetter("v")
    exact = staticmethod(_texact)
    gcd = staticmethod(_tgcd)

    @staticmethod
    def power(k: int) -> _TPoly:
        return _TPoly(k, (1,))

    @staticmethod
    def negative(x: _TPoly) -> bool:
        return x.c[-1] < 0

    @staticmethod
    def step(pivot: _TPoly, v: int):
        """The row clearing at a pivot t^v u (``matops._eliminate``):
        row <- u row - (e / t^v) prow, both a shift of coefficients."""
        u = _TPoly(0, pivot.c)

        def clear(row, prow, e):
            f = _TPoly(e.v - v, e.c)
            return [u * x - f * y for x, y in zip(row, prow)]
        return clear

    @staticmethod
    def cancel_content(blocks):
        # polynomial contents are left in place
        return blocks, 0

    @staticmethod
    def parse(value) -> tuple:
        """(num, den) of a scalar string ``(num)/(den)`` or ``num``, of
        ascending coefficient sequences (num, den) of ints or Fractions,
        or of an int or Fraction."""
        if isinstance(value, str):
            s = value.strip()
            m = re.match(r"^\((.*)\)/\((.*)\)$", s)
            if m:
                return _poly_parse(m.group(1)), _poly_parse(m.group(2))
            return _poly_parse(s), _TONE
        if isinstance(value, tuple) and len(value) == 2:
            num, den = ([Fraction(c) for c in part] for part in value)
        else:
            num, den = [Fraction(value)], [Fraction(1)]
        s = math.lcm(*(c.denominator for c in num + den))
        return (_tpoly([int(c * s) for c in num]),
                _tpoly([int(c * s) for c in den]))

    @staticmethod
    def format(num: _TPoly, den: _TPoly) -> str:
        return f"({_poly_str(num)})/({_poly_str(den)})"


_POLY_RAW = _PolyRaw()


class RingConfig:
    """A fixed DVR instantiation; all elements point back to one of these.
    ``raw`` is its raw arithmetic (``_IntRaw`` or ``_PolyRaw``)."""

    __slots__ = ("kind", "p", "raw")

    PADIC = "padic-rational"
    TADIC = "tadic-ratfunc"

    def __init__(self, kind: str, p: int | None = None):
        if kind == self.PADIC:
            if p is None:
                p = 2
            if not _is_prime(p):
                raise ValueError(f"p must be prime, got {p}")
            raw = _IntRaw(p)
        elif kind == self.TADIC:
            if p is not None:
                raise ValueError("tadic-ratfunc takes no prime parameter")
            raw = _POLY_RAW
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "raw", raw)

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
        """Coerce an int, Fraction, RingElement or JSON scalar string (or,
        t-adic, a pair of ascending coefficient sequences)."""
        if isinstance(value, RingElement):
            if value.config != self:
                raise ValueError("mixed ring configurations")
            return value
        return RingElement(self, *self.raw.parse(value))

    @property
    def zero(self) -> "RingElement":
        return RingElement(self, self.raw.zero, self.raw.one)

    @property
    def one(self) -> "RingElement":
        return RingElement(self, self.raw.one, self.raw.one)

    @property
    def uniformizer(self) -> "RingElement":
        return RingElement(self, self.raw.power(1), self.raw.one)

    # -- JSON scalar encoding ------------------------------------------------

    def scalar_to_json(self, x: "RingElement") -> str:
        if x.config != self:
            raise ValueError("mixed ring configurations")
        return self.raw.format(x.num, x.den)

    def parse_scalar(self, s: str) -> "RingElement":
        if not isinstance(s, str):
            raise ValueError(f"scalar must be a string, got {type(s).__name__}")
        try:
            return self.element(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {s!r}") from None

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
    """An exact element num / den of K, for raw values num and den of its
    config's ring in lowest terms (see the module docstring); zero is
    0 / 1.  Immutable value semantics."""

    __slots__ = ("config", "num", "den", "_val")

    def __init__(self, config: RingConfig, num, den):
        if not den:
            raise ZeroDivisionError("zero denominator")
        raw = config.raw
        g = raw.gcd(num, den)
        if raw.negative(den):
            g = -g
        if g != raw.one:
            num, den = raw.exact(num, g), raw.exact(den, g)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_val", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.config != self.config:
                raise ValueError("mixed ring configurations")
            return other
        if isinstance(other, (int, Fraction)):
            return self.config.element(other)
        return NotImplemented

    def __add__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return NotImplemented
        return RingElement(self.config,
                           self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return NotImplemented
        return RingElement(self.config,
                           self.num * other.den - other.num * self.den,
                           self.den * other.den)

    def __rsub__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return NotImplemented
        return RingElement(self.config,
                           other.num * self.den - self.num * other.den,
                           self.den * other.den)

    def __mul__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return NotImplemented
        return RingElement(self.config, self.num * other.num,
                           self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := self._coerce(other)) is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero ring element")
        return RingElement(self.config, self.num * other.den,
                           self.den * other.num)

    def __neg__(self):
        return RingElement(self.config, -self.num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def valuation(self):
        """Order k with self = u * pi^k, u a unit; INFINITY iff self is
        zero."""
        v = self._val
        if v is None:
            if not self.num:
                v = INFINITY
            else:
                val = self.config.raw.val
                v = val(self.num) - val(self.den)
            object.__setattr__(self, "_val", v)
        return v

    def unit_part(self) -> "RingElement":
        """The unit u with self = u * pi^valuation(); rejects zero."""
        if not self.num:
            raise ValueError("no unit part of zero")
        raw = self.config.raw
        return RingElement(self.config,
                           raw.exact(self.num, raw.power(raw.val(self.num))),
                           raw.exact(self.den, raw.power(raw.val(self.den))))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.config.element(other)
        return (isinstance(other, RingElement) and self.config == other.config
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.config, self.num, self.den))

    def __repr__(self):
        text = self.config.raw.format(self.num, self.den)
        return f"<{text} @ {self.config!r}>"
