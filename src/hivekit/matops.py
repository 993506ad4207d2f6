"""Exact linear algebra over K with O-structure.

Smith decomposition over a DVR, invariant partitions, matrix norms
(sums of invariant orders), unimodularity tests, and the quotient
invariants used by the lattice optimizers.  All operations are pure
functions of immutable inputs.

Every route shares one pivoting rule (an entry of minimal valuation):

* norms -- ``invariant_partition``, ``matrix_norm``,
  ``unimodular_check`` and the K-rank ``ValuedMatrix.rank`` -- run the
  valuation kernel ``_pivot_valuations``, which carries only the Schur
  complement on raw values and builds no transforms;
  ``lattice.Submodule.contains`` and ``.same_span`` (which is
  ``lattice.Lattice.__eq__``) are norm comparisons too;
* quotient invariants -- ``quotient_free_invariants`` runs
  ``_quotient_valuations``, the same elimination on [S | T] with pivots
  taken only in S's columns, and the lattice layer's max witness
  (``lattice._witness_values``, its one entry) runs it on a chain of
  nested column sets at once, stopping the T part after the pivots it
  needs;
* the min side of the hive -- ``lattice._min_selections`` -- runs
  ``_eliminate`` on [Lambda | N] with pivots only in Lambda's columns,
  reading each pivot row and column, then walks the row sets of the
  reduced N with one pivot of the same rule per set, clearing by the raw
  form's ``step``;
* ``smith_decompose`` builds D together with the transforms P and Q in
  one loop, for the callers that need them: ``lattice.adapted_slice``
  reads P @ D on each call (for the oracle's regression instance), and
  ``cli.cmd_smith`` prints all three.

Elimination on ``RingElement`` entries is left only where a transform is
itself the result: ``smith_decompose``.

The kernels work on raw values (``_raw_entries``): one common scale c is
cleared from all entries, and results are moved back by its valuation
(the form's shift).  p-adic: c is the common denominator, and the raw
values are Python ints with the p-adic valuation.  t-adic: c is the lcm
D(t) of the entries' denominators in Z[t], the raw values are the
integer polynomials (``ring._TPoly``) num (D / den), whose valuation is
their order at t, and the shift is ord_t(D).  Either way elimination is
fraction-free and the same in shape (``_eliminate``).  The adjugate
product of ``_adj_product`` is one more elimination, fraction-free
Gauss-Jordan on [B | L] with exact divisions: det(B) and adj(B) L for
raw B and L, so B^-1 L is never formed as ring elements.  Its pivot is
the first nonzero entry of each column: what it returns is fixed by B
and L, whatever the pivots.  It serves ``_swap_form`` (the raw form of
[A | A C^-1] from that of [A^T | C^T], for the swapped hive's pair and
for ``lattice.max_direct_sum_norm``) and ``lattice.pair_invariant``
(M = adj(B) L / det(B), turned into ring elements once by
``_from_raw``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import attrgetter, floordiv

from .ring import (INFINITY, PadicElement, RatFuncElement, RingConfig,
                   RingElement, _TONE, _TPoly, _TZERO, _int_pval, _texact,
                   _tgcd)


class ValuedMatrix:
    """Dense matrix over K; all entries share one RingConfig."""

    __slots__ = ("config", "rows", "cols", "entries")

    def __init__(self, config: RingConfig, entries):
        # entries already over this config are kept as they are; anything
        # else goes through config.element, which rejects a foreign config
        entries = tuple(
            tuple(e if isinstance(e, RingElement) and e.config is config
                  else config.element(e) for e in row)
            for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ValuedMatrix is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, config: RingConfig, n: int) -> "ValuedMatrix":
        one, zero = config.one, config.zero
        return cls(config, [[one if i == j else zero for j in range(n)]
                            for i in range(n)])

    @classmethod
    def diagonal(cls, config: RingConfig, diag) -> "ValuedMatrix":
        diag = [config.element(d) for d in diag]
        zero = config.zero
        n = len(diag)
        return cls(config, [[diag[i] if i == j else zero for j in range(n)]
                            for i in range(n)])

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key) -> RingElement:
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        return (isinstance(other, ValuedMatrix) and self.config == other.config
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.config, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in row) for row in self.entries)
        return f"ValuedMatrix[{self.rows}x{self.cols}: {body}]"

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "ValuedMatrix") -> "ValuedMatrix":
        if self.config != other.config:
            raise ValueError("mixed ring configurations")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ocols = list(zip(*other.entries))
        out = [[_dot(row, c, self.config) for c in ocols] for row in self.entries]
        return ValuedMatrix(self.config, out)

    def scale(self, s) -> "ValuedMatrix":
        s = self.config.element(s)
        return ValuedMatrix(self.config,
                            [[s * e for e in row] for row in self.entries])

    def transpose(self) -> "ValuedMatrix":
        return ValuedMatrix(self.config, list(zip(*self.entries)))

    def hstack(self, other: "ValuedMatrix") -> "ValuedMatrix":
        if self.config != other.config or self.rows != other.rows:
            raise ValueError("hstack shape mismatch")
        return ValuedMatrix(self.config, [a + b for a, b in
                                          zip(self.entries, other.entries)])

    def select_columns(self, js) -> "ValuedMatrix":
        return ValuedMatrix(self.config,
                            [[row[j] for j in js] for row in self.entries])

    def bottom_rows(self, k) -> "ValuedMatrix":
        return ValuedMatrix(self.config, self.entries[self.rows - k:])

    def rank(self) -> int:
        """K-rank: the pivot count of the valuation kernel."""
        return len(_pivot_valuations(self))

    def min_entry_valuation(self):
        return min(e.valuation() for row in self.entries for e in row)

    # -- JSON ------------------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.config
        return {"rows": self.rows, "cols": self.cols,
                "data": [[cfg.scalar_to_json(e) for e in row]
                         for row in self.entries]}

    @classmethod
    def from_json(cls, config: RingConfig, obj: dict) -> "ValuedMatrix":
        data = obj["data"]
        mat = cls(config, [[config.parse_scalar(s) for s in row] for row in data])
        if mat.rows != obj.get("rows", mat.rows) or mat.cols != obj.get("cols", mat.cols):
            raise ValueError("matrix data does not match declared dimensions")
        return mat


def _dot(row, col, config) -> RingElement:
    acc = config.zero
    for a, b in zip(row, col):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


@dataclass(frozen=True)
class SmithDecomposition:
    """A = P @ D @ Q with P, Q unimodular over O and D diagonal.

    Diagonal entries are pure uniformizer powers with non-increasing
    valuations; rank deficiency shows up as trailing zeros.  Built only by
    ``smith_decompose``, for ``lattice.adapted_slice`` (which reads P @ D
    on each call) and ``cli.cmd_smith``.
    """

    p: ValuedMatrix
    d: ValuedMatrix
    q: ValuedMatrix

    @property
    def diagonal_valuations(self) -> tuple:
        return tuple(self.d[i, i].valuation()
                     for i in range(min(self.d.rows, self.d.cols)))

    @property
    def rank(self) -> int:
        return sum(1 for v in self.diagonal_valuations if v != INFINITY)


def smith_decompose(a: ValuedMatrix) -> SmithDecomposition:
    """Smith decomposition over the DVR: A = P @ D @ Q.

    One loop on D, which starts as A with P = Q = 1: each row operation
    on D is undone on P's columns and each column operation on Q's rows.
    Pivoting picks the entry of minimal valuation (ties: lowest row, then
    lowest column), so every clearing multiplier lies in O and P, Q stay
    unimodular.  The pivots are then made pure uniformizer powers, and one
    permutation of D, P's columns and Q's rows sorts their valuations
    non-increasing (stably, so ties keep identity inputs fixed).  The zero
    matrix yields an all-zero D.  Callers that only need the diagonal
    valuations use ``invariant_partition`` or ``matrix_norm``, which build
    no transforms.
    """
    cfg, m, k = a.config, a.rows, a.cols
    d = [list(row) for row in a.entries]
    p = [list(row) for row in ValuedMatrix.identity(cfg, m).entries]
    q = [list(row) for row in ValuedMatrix.identity(cfg, k).entries]
    rank = 0
    while rank < min(m, k):
        best, i, j = min((d[i][j].valuation(), i, j)
                         for i in range(rank, m) for j in range(rank, k))
        if best == INFINITY:
            break
        d[rank], d[i] = d[i], d[rank]
        for row in p:
            row[rank], row[i] = row[i], row[rank]
        for row in d:
            row[rank], row[j] = row[j], row[rank]
        q[rank], q[j] = q[j], q[rank]
        prow = d[rank]
        pivot = prow[rank]
        for i in range(rank + 1, m):
            e = d[i][rank]
            if not e.is_zero():
                # row i += c row rank; P's column rank -= c column i
                c = -(e / pivot)
                d[i] = [x + c * y for x, y in zip(d[i], prow)]
                for row in p:
                    row[rank] = row[rank] - c * row[i]
        for j in range(rank + 1, k):
            e = prow[j]
            if not e.is_zero():
                # column j += c column rank; Q's row rank -= c row j
                c = -(e / pivot)
                for row in d:
                    row[j] = row[j] + c * row[rank]
                q[rank] = [x - c * y for x, y in zip(q[rank], q[j])]
        rank += 1
    for i in range(rank):
        u = d[i][i].unit_part()
        d[i] = [x / u for x in d[i]]
        for row in p:
            row[i] = row[i] * u
    order = sorted(range(rank), key=lambda i: (-d[i][i].valuation(), i))
    rows, cols = order + list(range(rank, m)), order + list(range(rank, k))
    return SmithDecomposition(
        ValuedMatrix(cfg, [[row[i] for i in rows] for row in p]),
        ValuedMatrix(cfg, [[d[i][j] for j in cols] for i in rows]),
        ValuedMatrix(cfg, [q[j] for j in cols]))


def _tpoly_step(pivot, v):
    u = _TPoly(0, pivot.c)

    def clear(row, prow, e):
        f = _TPoly(e.v - v, e.c)
        return [u * x - f * y for x, y in zip(row, prow)]
    return clear


def _int_step(p, pivot, v):
    q = p ** v
    u = pivot // q

    def clear(row, prow, e):
        f = e // q
        return [u * x - f * y for x, y in zip(row, prow)]
    return clear


def _int_val(p):
    """v_p of a nonzero raw int as a one-argument function.  The kernels
    call it on every entry they scan, and a closure costs about half of a
    keyword ``partial``; at p = 2 it is ``_int_pval``'s lowest-set-bit
    rule inline."""
    if p == 2:
        return lambda x: (x & -x).bit_length() - 1
    return lambda x: _int_pval(x, p)


def _raw_entries(*mats):
    """(rows, val, step, shift): the raw form of one or more matrices over
    one ring.

    ``rows`` holds each matrix's entries as lists of raw values, ``val``
    is their valuation, ``step(pivot, v)`` gives the row clearing of an
    elimination at a pivot of valuation v (see ``_eliminate``), and every
    raw value's valuation exceeds its entry's by ``shift``.

    One common scale c is cleared from all the matrices' entries, so the
    raw values are the entries times c and ``shift`` = v(c).  p-adic: c is
    the common denominator d, the raw values are Python ints and ``val``
    is ``_int_val(p)``.  t-adic: c is the lcm D(t) of the denominators in
    Z[t], the raw value of num / den is the integer polynomial
    num (D / den) (a ``ring._TPoly``), ``val`` is the order at t and
    ``shift`` = ord_t(D).  Scaling by c moves a k-column selection's norm
    (and its pivot sum) by k * shift, and each quotient pivot by shift,
    since sat(c S) = sat(S).
    """
    cfg = mats[0].config
    if cfg.kind == RingConfig.PADIC:
        d = math.lcm(*(e.value.denominator for a in mats
                       for row in a.entries for e in row))
        rows = [[[e.value.numerator * (d // e.value.denominator) for e in row]
                 for row in a.entries] for a in mats]
        return (rows, _int_val(cfg.p), partial(_int_step, cfg.p),
                _int_pval(d, cfg.p))
    d = _TONE
    for den in {e.den for a in mats for row in a.entries for e in row}:
        d = d * _texact(den, _tgcd(d, den))
    rows = [[[e.num * _texact(d, e.den) for e in row] for row in a.entries]
            for a in mats]
    return rows, attrgetter("v"), _tpoly_step, d.v


def _eliminate(rows, width, val, step, pivots=None, limit=None) -> list:
    """Minimal-valuation elimination of raw rows, pivoting only in the
    first ``width`` columns; returns the pivot valuations of the raw values.

    After each pivot its row and column are removed and only the Schur
    complement is kept, in place: on return ``rows`` holds the rows left
    over, without the pivoted columns.  When ``pivots`` is a list, each
    pivot appends (its column's index in the input, its row as it was
    pivoted, without the pivot entry): the row's last entries are the
    columns past ``width``, which no pivot removes.  Each row is cleared
    by the raw form's ``step``, fraction-free for both ring kinds: with
    pivot = pi^v u (pi = p or t), row <- u row - (e / pi^v) prow.  Both
    multipliers are raw values (e / pi^v is an exact division, or an
    exact shift of coefficients), and u is a unit of O, so every row
    operation is unimodular over O and the pivot valuations are the Smith
    invariants of the raw rows.

    The valuations are non-decreasing: a pivot has the least valuation in
    the first ``width`` columns, and a clearing leaves no entry there of
    valuation below it (u x keeps v(x) >= v, and (e / pi^v) y has
    valuation v(e) - v + v(y) >= v(y) >= v).  So the pivot's valuation is
    a floor for the next scan (0 for the first, since raw values are
    integers or integer polynomials), and the scan stops at the first
    entry that reaches the floor: no entry lies below it, so that entry
    is the first of least valuation in row-major order, the one a full
    scan would take.  The columns past ``width`` have no floor; they are
    never scanned.  With ``limit``, the elimination stops after that many
    pivots, which are then the ``limit`` least of the full sequence.
    """
    vals = []
    cols = list(range(width))
    floor = 0
    while rows and len(vals) != limit:
        best, piv = INFINITY, None
        for i, row in enumerate(rows):
            for j in range(width):
                x = row[j]
                if x:
                    v = val(x)
                    if v < best:
                        best, piv = v, (i, j)
                        if v == floor:
                            break
            if best == floor:
                break
        if piv is None:
            break
        vals.append(best)
        floor = best
        prow = rows.pop(piv[0])
        pivot = prow.pop(piv[1])
        col = cols.pop(piv[1])
        if pivots is not None:
            pivots.append((col, prow))
        clear = step(pivot, best)
        for i, row in enumerate(rows):
            e = row.pop(piv[1])
            if e:
                rows[i] = clear(row, prow, e)
        width -= 1
    return vals


def _pivot_valuations(a: ValuedMatrix) -> list:
    """Pivot valuations of minimal-valuation elimination, one per K-rank.

    The pivoting of ``smith_decompose`` without its transforms.  Every
    row operation is unimodular over O, so the pivot valuations are the
    Smith diagonal valuations (in non-decreasing order).
    """
    (rows,), val, step, shift = _raw_entries(a)
    return [v - shift for v in _eliminate(rows, a.cols, val, step)]


def _quotient_valuations(s_rows, t_rows, val, step) -> tuple:
    """(S pivots, quotient pivots) of one elimination on raw [S | T].

    Pivots are taken only in S's columns, so the row operations are
    unimodular and leave S supported on its pivot rows: the S pivot
    valuations are S's invariant orders, and the T rows left over are the
    image of T in O^n modulo the saturation of S's span, whose own pivot
    valuations are the quotient invariants, non-decreasing as every
    ``_eliminate`` sequence is.
    Both are those of the raw values: callers take off the raw form's
    shift.  Raises ValueError when S has K-rank below its column count.
    """
    k = len(s_rows[0])
    rows = [list(s) + list(t) for s, t in zip(s_rows, t_rows)]
    s_vals = _eliminate(rows, k, val, step)
    if len(s_vals) < k:
        raise ValueError("S must have full column rank")
    return s_vals, _eliminate(rows, len(t_rows[0]), val, step)


def _raw_scalars(config):
    """(zero, k -> pi^k) in the ring's raw values: ints with pi = p, or
    integer polynomials (``ring._TPoly``) with pi = t."""
    if config.kind == RingConfig.PADIC:
        return 0, partial(pow, config.p)
    return _TZERO, lambda k: _TPoly(k, (1,))


def _adj_product(b_rows, l_rows, config):
    """(det B, adj(B) L) for a square raw matrix B and raw rows L of the
    same height, so that B^-1 L = adj(B) L / det B.

    One fraction-free Gauss-Jordan elimination on [B | L] (Bareiss): for
    each column k = 0..n-1 the first row at or below k with a nonzero
    entry there is swapped in as the pivot row, of pivot p_k, and every
    other row is cleared as row <- (p_k row - e prow) / p_(k-1), with
    p_(-1) = 1.  The division is exact (``//`` on ints, ``ring._texact``
    on polynomials): every entry is, up to sign, a minor of the row
    swapped [B | L] (Sylvester's identity), so the values stay as small
    as minors.  A cleared pivot column is dropped from every row, and the
    rows end as the right block p_(n-1) B^-1 L, with p_(n-1) = +-det B,
    the sign that of the row permutation.  Raises ValueError when B is
    singular."""
    n = len(b_rows)
    if config.kind == RingConfig.PADIC:
        exact, prev = floordiv, 1
    else:
        exact, prev = _texact, _TONE
    rows = [list(b) + list(l) for b, l in zip(b_rows, l_rows)]
    odd = False
    for k in range(n):
        r = next((i for i in range(k, n) if rows[i][0]), None)
        if r is None:
            raise ValueError("B must be nonsingular")
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            odd = not odd
        pivot, *prow = rows[k]
        rows[k] = prow
        for i, row in enumerate(rows):
            if i != k:
                e = row[0]
                rows[i] = [exact(pivot * x - e * y, prev)
                           for x, y in zip(row[1:], prow)]
        prev = pivot
    if odd:
        return -prev, [[-x for x in row] for row in rows]
    return prev, rows


def _from_raw(config, rows, den) -> ValuedMatrix:
    """The matrix with entries x / den for raw values x and a nonzero raw
    den: the one step from raw values back to ring elements.  Each entry
    is made once, in its canonical form (a reduced ``Fraction``, or a
    ``RatFuncElement`` in lowest terms), so it equals the element that
    any exact route to the same value gives."""
    if config.kind == RingConfig.PADIC:
        return ValuedMatrix(config, [[PadicElement(config, Fraction(x, den))
                                      for x in row] for row in rows])
    return ValuedMatrix(config, [[RatFuncElement(config, x, den)
                                  for x in row] for row in rows])


def _swap_form(form, config):
    """The raw form of [Lambda^T | M^T], M = N^-1 Lambda, from the raw form
    ``form`` of [Lambda | N], made with no division.

    It serves two callers.  ``hive.build_hive`` passes the primary form of
    [Lambda | N] to get the swapped hive's pair.
    ``lattice.max_direct_sum_norm`` passes the form of [A^T | C^T]: then
    M^T = A C^-1, and the result is the raw [A | A C^-1] that the max
    route scans, with no inverse formed.

    With the cleared blocks L and B of ``form`` (raw Lambda and N, scaled
    by c with v(c) = shift), det(B) and adj(B) L come from the one
    elimination of ``_adj_product``, and the form is (X^T, Y^T) with
    X = det(B) L and Y = pi^shift adj(B) L, of shift shift + v(det B).
    X is Lambda scaled by c det(B), and Y = pi^shift det(B) M is M scaled
    by c det(B) times the unit pi^shift / c; scaling a block by a unit
    moves no minor or pivot valuation.  p-adic: the form is divided by the
    gcd of its entries and the shift lowered by that gcd's valuation,
    which keeps its integers as small as those of ``form``.
    """
    (lam_rows, n_rows), val, step, shift = form
    n = len(n_rows)
    det, adj_l = _adj_product(n_rows, lam_rows, config)
    pi_shift = _raw_scalars(config)[1](shift)
    x_t = [[det * row[l] for row in lam_rows] for l in range(n)]
    y_t = [[pi_shift * row[l] for row in adj_l] for l in range(n)]
    shift += val(det)
    if config.kind == RingConfig.PADIC:
        g = math.gcd(*(x for row in x_t + y_t for x in row))
        x_t = [[x // g for x in row] for row in x_t]
        y_t = [[y // g for y in row] for row in y_t]
        shift -= val(g)
    return (x_t, y_t), val, step, shift


def invariant_partition(a: ValuedMatrix) -> tuple:
    """Non-increasing valuations of the Smith diagonal, truncated to K-rank.

    Runs the valuation kernel; no transforms are built.
    """
    return tuple(sorted(_pivot_valuations(a), reverse=True))


def matrix_norm(a: ValuedMatrix):
    """Sum of the invariant orders; INFINITY iff K-rank < column count."""
    vals = _pivot_valuations(a)
    if len(vals) < a.cols:
        return INFINITY
    return sum(vals)


def unimodular_check(p: ValuedMatrix) -> bool:
    """True iff P is square over O with determinant a unit of O."""
    if p.rows != p.cols:
        return False
    if p.min_entry_valuation() < 0:
        return False
    parts = invariant_partition(p)
    return len(parts) == p.rows and sum(parts) == 0


def quotient_free_invariants(t: ValuedMatrix, s: ValuedMatrix) -> tuple:
    """Invariant orders of the free part of T's image modulo the span of S.

    Non-increasing, n - k of them for an n x k S of full column rank (the
    rank of O^n / sat(S)); computed by ``_quotient_valuations`` on raw
    values, with no transforms.
    """
    if t.rows != t.cols:
        raise ValueError("T must be square")
    if s.rows != t.rows or s.config != t.config:
        raise ValueError("S and T must share their rows and ring")
    if t.rank() < t.rows:
        raise ValueError("T must have full rank")
    if s.cols >= t.rows:
        raise ValueError("S must have rank below the ambient dimension")
    (t_rows, s_rows), val, step, shift = _raw_entries(t, s)
    _, quot = _quotient_valuations(s_rows, t_rows, val, step)
    return tuple(sorted((v - shift for v in quot), reverse=True))
