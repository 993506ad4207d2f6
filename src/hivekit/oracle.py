"""Brute-force certification for small parameters.

Exhaustive enumeration of saturated spans (p-adic rings only: residue
enumeration needs a finite residue field), brute minima/maxima of
direct-sum norms, exhaustive Littlewood-Richardson filling enumeration,
and the stabilization protocol that takes a brute value at growing
exponent bounds until a proof shows it exact: the min's value at every
bound is the Cauchy-Binet floor of the two generator matrices, a closed
form, and the max enumerates bound M and stops as soon as a lift bound
shows that no pair at a deeper bound can cost less than bound M's best
(``stabilized_value``).  Only a family about to be built meets the
count cap, so neither proof can refuse a call.

Both brute routes enumerate one kind of candidate: the images of the
saturated coordinate spans of O^n under a lattice's generator matrix.
A rank-r coordinate family holds one span per point of the residue
Grassmannian Gr_r((O/p^(M+1))^n), in its identity-block form on the
first row set whose minor is a unit mod p.  Those forms are generated
directly, row set by row set (the Schubert cells mod p), so no span is
scanned twice and none is filtered out.  A minimizer's coordinate
matrix is built only when it is reported.  Each generator matrix B is
scaled once by a common denominator d, and a norm is the minimum
p-valuation of the integer maximal minors minus (columns) * v(d).  This
minor arithmetic is the oracle's own: the brute routes call neither the
Smith route nor the optimizer's norm kernel, so the oracle can certify
them.

Every span and image is carried by its Plücker vector, the tuple of its
maximal minors, computed once; an image's comes from its span's by
Cauchy-Binet, det (d B U)_R = sum over T of det (d B)_R,T * det U_T,
with no product formed.  A pair's minors come from the block Laplace
expansion det [X | Y]_R = sum of +- det X_R1 * det Y_R2 over the splits
of the row set R; each span's expansion rows are built once per partner
rank, so a pair norm is one integer dot product per row set, and it
stops at the first minor that reaches the Laplace bound
norm[X | Y] >= norm X + norm Y.  Both routes run through one pair scan
(``_scan``) that prunes by that bound, and skips an outer span X whole
when a second bound, shared by every inner span, cannot beat the best
value: each inner span is d B U for one generator matrix B, so by
Cauchy-Binet norm[X | d B U] is at least the least norm[X | (d B)_T] over
the column selections T.  Unless every minimizer is collected, a pair
or span whose bound only ties the best value is skipped too.  Whether
two coordinate spans are jointly a direct summand is read from an int
bitmask per partner rank; it depends only on their reductions mod p, so
the masks are built once per pair of points of Gr(F_p^n) and shared by
every span over them.

Two caches hold everything the scans reuse, each entry a pure function
of its key: ``functools.cache`` on the lattice-independent table of
coordinate spans (``_coord_family``), kept for the process, and
``functools.lru_cache`` on the image families (``_image_family``),
bounded at one trial's entries and keyed by a lattice's integer form
(``_int_lattice``, made once per lattice of a trial, with its minor
floors); their hit and miss counts are in ``cache_info()``.  The count
cap is checked by ``_check_count`` on a span count kept for the process
(``_span_count``), in ``_family`` before either family cache is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, count, product
from operator import mul
from typing import NamedTuple

from .hive import LRFilling
from .lattice import Lattice, Submodule
from .matops import INFINITY, ValuedMatrix
from .ring import RingConfig, _int_pval


class BudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for exhaustive enumeration.

    exponent_bound is M: coordinates are enumerated modulo p^(M+1), and
    ``stabilized_value`` starts there.  A family refuses to be built if
    its span count, [n choose r]_p p^(M r (n - r)) for rank r in O^n,
    exceeds count_cap (``_family``).  ``stabilized_value`` builds no
    family for the min, and for the max none past the round whose value
    ``_lift_settles`` proves.  The default is also ``hivekit oracle``'s
    ``--count-cap`` default.
    """

    exponent_bound: int = 1
    count_cap: int = 500_000

    def __post_init__(self):
        if self.count_cap <= 0:
            raise ValueError("count cap must be positive")
        if self.exponent_bound < 0:
            raise ValueError("exponent bound must be nonnegative")


# ---------------------------------------------------------------------------
# canonical span fingerprints (p-adic)


def _canonical_residue(x: Fraction, e: int, p: int) -> Fraction:
    """Canonical representative of x modulo p^e O in the localization at p."""
    if x == 0:
        return Fraction(0)
    v = _int_pval(x.numerator, p) - _int_pval(x.denominator, p)
    if v >= e:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    if v >= 0:
        num //= p ** v
    else:
        den //= p ** (-v)
    modulus = p ** (e - v)
    r0 = (num * pow(den, -1, modulus)) % modulus
    return Fraction(r0) * Fraction(p) ** v


def span_fingerprint(gens: ValuedMatrix) -> tuple:
    """Canonical form of the O-span of the columns (p-adic rings).

    Column echelon with valuation-minimal pivots (so all clearing
    multipliers lie in O), pivots normalized to pure powers of p, then
    pivot-row entries of the other columns reduced to canonical residues.
    Two generator matrices have equal fingerprints iff their spans agree.
    The brute enumeration does not call it: its families hold one
    canonical form per residue point, so no two of their spans agree.
    """
    cfg = gens.config
    if cfg.kind != RingConfig.PADIC:
        raise ValueError("span fingerprints require a p-adic ring")
    p = cfg.p
    n = gens.rows
    cols = [[gens[i, j].value for i in range(n)] for j in range(gens.cols)]

    def first_nonzero(col):
        return next((i for i, x in enumerate(col) if x != 0), None)

    def pval(x):
        return _int_pval(x.numerator, p) - _int_pval(x.denominator, p)

    echelon = []
    remaining = [c[:] for c in cols]
    while True:
        alive = [(first_nonzero(c), k) for k, c in enumerate(remaining)]
        alive = [(i, k) for i, k in alive if i is not None]
        if not alive:
            break
        rstar = min(i for i, _ in alive)
        cand = [k for i, k in alive if i == rstar]
        kstar = min(cand, key=lambda k: (pval(remaining[k][rstar]), k))
        pivot = remaining.pop(kstar)
        pv = pivot[rstar]
        for col in remaining:
            if col[rstar] != 0:
                f = col[rstar] / pv
                for i in range(rstar, n):
                    col[i] -= f * pivot[i]
        echelon.append((rstar, pivot))

    for rstar, col in echelon:
        v = pval(col[rstar])
        unit = col[rstar] / Fraction(p) ** v
        for i in range(rstar, n):
            col[i] /= unit
    for m, (rm, pm) in enumerate(echelon):
        em = pval(pm[rm])
        for k, (rk, ck) in enumerate(echelon):
            if k == m or rk >= rm:
                continue
            x = ck[rm]
            res = _canonical_residue(x, em, p)
            if x != res:
                q = (x - res) / pm[rm]
                for i in range(rm, n):
                    ck[i] -= q * pm[i]
    return tuple((rstar, tuple(col)) for rstar, col in echelon)



# ---------------------------------------------------------------------------
# integer-cleared minor arithmetic (the oracle's own route, independent of
# the Smith-based matrix_norm used by the optimizers)


def _int_det(rows: list) -> int:
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if k == 0:
        return 1  # the empty minor
    total = 0
    sign = 1
    for j in range(k):
        if rows[0][j]:
            minor = [[row[m] for m in range(k) if m != j] for row in rows[1:]]
            total += sign * rows[0][j] * _int_det(minor)
        sign = -sign
    return total


class _IntLattice(NamedTuple):
    """A lattice's integer form: p, the integer columns (tuples) of
    d * gens for the least common denominator d, d, v_p(d), and floors[r],
    the least r-minor valuation of the columns for r = 0..n.  It fixes
    the generators (gens = cols / d) and hashes as plain ints."""

    p: int
    cols: tuple
    d: int
    dv: int
    floors: tuple


def _int_lattice(lattice: Lattice) -> _IntLattice:
    p, n = lattice.config.p, lattice.n
    ratios = [e.value.as_integer_ratio()
              for row in lattice.gens.entries for e in row]
    d = math.lcm(*[den for _, den in ratios])
    ints = [num * (d // den) for num, den in ratios]
    cols = tuple(tuple(ints[j::n]) for j in range(n))
    floors = tuple(min(_int_norm(sel, n, p) for sel in combinations(cols, r))
                   for r in range(n + 1))
    return _IntLattice(p, cols, d, _int_pval(d, p), floors)


def _plucker(cols: list, n: int) -> tuple:
    """The maximal minors of k <= n integer columns in Z^n, one per row
    set, in ``combinations(range(n), k)`` order: the span's Plücker
    vector."""
    return tuple(_int_det(rows) for rows in combinations(zip(*cols), len(cols)))


def _min_pval(values, p: int):
    """Minimum p-valuation over the nonzero integers, INFINITY if none:
    the p-valuation of their gcd."""
    g = math.gcd(*values)
    return _int_pval(g, p) if g else INFINITY


def _int_norm(cols: list, n: int, p: int):
    """Minimum p-valuation over the maximal minors of integer columns in
    Z^n (INFINITY when they are dependent or more than n): the norm of a
    single block."""
    if len(cols) > n:
        return INFINITY
    return _min_pval(_plucker(cols, n), p)


@cache
def _laplace_terms(n: int, a: int, c: int) -> tuple:
    """Block Laplace expansion of the (a + c)-minors of [X | Y], X with a
    columns and Y with c columns in Z^n: for each row set R, the terms
    (sign, index of R1, index of R2) of

        det [X | Y]_R = sum over R = R1 + R2, |R1| = a, of
                        sign * det X_R1 * det Y_R2,

    indices into the Plücker vectors of X and Y.  A pure function of its
    arguments, cached for the process."""
    index_a = {s: i for i, s in enumerate(combinations(range(n), a))}
    index_c = {s: i for i, s in enumerate(combinations(range(n), c))}
    out = []
    for rows in combinations(range(n), a + c):
        terms = []
        for pos in combinations(range(a + c), a):
            r1 = tuple(rows[i] for i in pos)
            r2 = tuple(r for i, r in enumerate(rows) if i not in pos)
            sign = -1 if (sum(pos) - a * (a - 1) // 2) % 2 else 1
            terms.append((sign, index_a[r1], index_c[r2]))
        out.append(tuple(terms))
    return tuple(out)


def _laplace_rows(px: tuple, n: int, a: int, c: int) -> list:
    """Expansion rows of a rank-a span with Plücker vector px against
    rank-c partners: one row w per row set R, with det [X | Y]_R equal to
    the dot product of w and Y's Plücker vector.  Rows that vanish
    identically are left out."""
    width = math.comb(n, c)
    out = []
    for terms in _laplace_terms(n, a, c):
        w = [0] * width
        for sign, i, j in terms:
            w[j] = px[i] if sign > 0 else -px[i]
        if any(w):
            out.append(w)
    return out


def _pair_norm(rows: list, py: tuple, p: int, floor: int):
    """norm [X | Y] = the minimum p-valuation of the minors det [X | Y]_R,
    from X's expansion rows and Y's Plücker vector; INFINITY when every
    minor vanishes.  ``floor`` is a lower bound on the norm (the Laplace
    bound norm X + norm Y), so the first minor that reaches it ends the
    scan."""
    best = INFINITY
    for w in rows:
        det = sum(map(mul, w, py))
        if det:
            v = _int_pval(det, p)
            if v < best:
                if v <= floor:
                    return v
                best = v
    return best


def _coord_bound(rows: list, coord_pl: tuple, p: int):
    """min over T of norm [X | (d B)_T], from X's expansion rows and the
    Plücker vectors of the column selections (d B)_T: a lower bound on
    norm [X | d B U] for every integer coordinate matrix U (see ``_scan``).
    INFINITY when every such minor vanishes."""
    return _min_pval((sum(map(mul, w, pl)) for w in rows for pl in coord_pl),
                     p)


def _selection_floor(blocks: tuple, n: int, p: int):
    """min over column selections S_i (|S_i| = r_i) of the _int_norm of
    [(X_1)_S_1 | (X_2)_S_2 | ...], for integer column blocks ``blocks`` =
    ((X_1, r_1), (X_2, r_2), ...) of column tuples in Z^n.  By Cauchy-Binet,
    det [X_1 U_1 | X_2 U_2 | ...]_R = sum over the S_i of
    prod det (U_i)_S_i * det [(X_1)_S_1 | ...]_R for integer U_i, so this
    is a lower bound on the norm of every such product, reached at
    U_i = e_S_i.  With one block of r columns it is the least r-minor
    valuation of X, the sum of its r smallest invariants; 0 at r = 0."""
    return min(_int_norm([col for sel in sels for col in sel], n, p)
               for sels in product(*(combinations(cols, r)
                                     for cols, r in blocks)))


# ---------------------------------------------------------------------------
# the cached tables: coordinate spans, lattice images


class _Residue:
    """A point of Gr_r(F_p^n), the reduction mod p of a coordinate
    family's spans: the Plücker vector of its representative (the
    family's identity-block form with entries mod p), the bitmask over
    family indices of the spans that reduce to it, and its summand masks
    (partner rank -> int bitmask, built lazily)."""

    __slots__ = ("pl", "bits", "masks")

    def __init__(self, cols, n):
        self.pl = _plucker(cols, n)
        self.bits = 0
        self.masks = {}


class _Span(NamedTuple):
    """A saturated coordinate span: its integer columns, their Plücker
    vector, from which every image's comes (``_image_family``), and its
    residue class.  Its coordinate matrix is built from ``dom`` only for
    a reported minimizer."""

    dom: list
    pl: tuple
    res: _Residue


class _Image:
    """A coordinate span's image under a lattice's generator matrix B:
    the Plücker vector of the integer columns d * B * coords, the norm
    with the offset rank * v(d) taken off, the span's index in its
    coordinate family, and the expansion rows per partner rank (built
    lazily).  The rank-0 image has no span and Plücker vector (1,), the
    empty minor."""

    __slots__ = ("span", "index", "pl", "norm", "rows", "sub")

    def __init__(self, span, index, pl, norm):
        self.span = span
        self.index = index
        self.pl = pl
        self.norm = norm
        self.rows = {}
        self.sub = None

    def expansion(self, n: int, rank: int, partner: int) -> list:
        rows = self.rows.get(partner)
        if rows is None:
            rows = self.rows[partner] = _laplace_rows(self.pl, n, rank,
                                                      partner)
        return rows

    def submodule(self, gens: ValuedMatrix):
        """The image as a Submodule, gens @ coords (None for rank 0), with
        the coordinate matrix built from the span's integer columns; built
        on first use and kept on the record."""
        if self.span is None:
            return None
        if self.sub is None:
            coords = ValuedMatrix(gens.config, zip(*self.span.dom))
            self.sub = Submodule(gens @ coords)
        return self.sub


@dataclass(frozen=True)
class _Family:
    by_span: list   # _Image records in coordinate-family order
    by_norm: list   # the same records, stably sorted by norm
    offset: int     # rank * v(d)
    coord_pl: tuple  # Plücker vectors of the column selections (d B)_T,
                     # |T| = rank, in combinations order: ((1,),) at rank 0


@cache
def _coord_family(n: int, p: int, r: int, m_bound: int) -> list:
    """Saturated rank-r spans of O^n, one per point of the residue
    Grassmannian Gr_r((O/p^(M+1))^n), as _Span records.

    A saturated span has a unit maximal minor, so it admits a generator
    matrix with an identity block on the first row set R = (R_1 < ... <
    R_r), in ``combinations`` order, whose minor is a unit mod p, and
    that form is unique mod p^(M+1).  Off R, entry (i, j) runs over the
    multiples of p below p^(M+1) when i < R_j, and over all of
    0 .. p^(M+1) - 1 otherwise: the Schubert cell of R mod p.  These are
    exactly the forms with no unit minor on an earlier row set.  A unit
    at such an (i, j) would give a unit minor on R - R_j + i, an earlier
    row set.  Conversely, mod p column j is zero above row R_j, so a row
    set S with a unit minor has S_k >= R_k for every k and does not come
    before R.  That is p^(M r (n - r)) times the Gaussian binomial
    [n choose r]_p spans, with no saturation pass, no span comparison
    and no filter.  Row sets run in ``combinations`` order and the
    entries off R row by row.  The reduction mod p of a form is
    the same form for its point of Gr_r(F_p^n), which keys the span's
    residue class.  The coordinates are integers, so their columns need
    no clearing.  Lattice-independent, so kept for the process; callers
    go through ``_family``, which checks the count cap.
    """
    mod = p ** (m_bound + 1)
    family = []
    residues = {}
    for pivot_rows in combinations(range(n), r):
        others = [i for i in range(n) if i not in pivot_rows]
        cell = [range(0, mod, p) if i < pr else range(mod)
                for i in others for pr in pivot_rows]
        for assignment in product(*cell):
            rows = [[int(i == pr) for pr in pivot_rows] for i in range(n)]
            for k, i in enumerate(others):
                rows[i] = list(assignment[k * r:(k + 1) * r])
            low = tuple(tuple(x % p for x in row) for row in rows)
            res = residues.get(low)
            if res is None:
                res = residues[low] = _Residue(list(zip(*low)), n)
            res.bits |= 1 << len(family)
            dom = [list(col) for col in zip(*rows)]
            family.append(_Span(dom, _plucker(dom, n), res))
    return family


def _summand_mask(span: _Span, c: int, u: int, partners: list, n: int,
                  p: int) -> int:
    """Bit i is set iff the rank-c span + partners[i] (the rank-u family
    of the same n, p and M, in family order) is a direct summand of O^n,
    i.e. some maximal minor of their joint coordinates is a unit.  That
    depends only on the two residue classes, so one minor test mod p per
    pair of classes sets the bits of a whole partner class.  Built on
    first use and kept in the residue record, per partner rank."""
    res = span.res
    mask = res.masks.get(u)
    if mask is None:
        rows = _laplace_rows(res.pl, n, c, u)
        mask = 0
        for other in dict.fromkeys(rec.res for rec in partners):
            if any(sum(map(mul, w, other.pl)) % p for w in rows):
                mask |= other.bits
        res.masks[u] = mask
    return mask


@cache
def _span_count(n: int, p: int, r: int, m_bound: int) -> int:
    """The length of ``_coord_family(n, p, r, M)``, without building it."""
    return (p ** (m_bound * r * (n - r))
            * math.prod(p ** (n - i) - 1 for i in range(r))
            // math.prod(p ** (i + 1) - 1 for i in range(r)))


def _check_count(n: int, p: int, r: int, m_bound: int, count_cap: int):
    """Raise BudgetExceededError when the rank-r family of O^n at bound M
    would hold more than count_cap spans: [n choose r]_p p^(M r (n - r)),
    1 at rank 0 (``_span_count``)."""
    count = _span_count(n, p, r, m_bound)
    if count > count_cap:
        raise BudgetExceededError(
            f"predicted {count} spans (rank {r} in O^{n}, entries below "
            f"{p}^{m_bound + 1}) exceed cap {count_cap}")


def _family(form: _IntLattice, r: int, m_bound: int,
            count_cap: int) -> _Family:
    """The images of the saturated rank-r coordinate spans under the
    generator matrix of a lattice in integer form (``_image_family``);
    rank 0 gives the one empty image and the empty minor.

    A family above the count cap (``_check_count``) raises
    BudgetExceededError before either cache is read, so a warm entry
    cannot lift the cap."""
    if r == 0:
        empty = [_Image(None, 0, (1,), 0)]
        return _Family(empty, empty, 0, ((1,),))
    _check_count(len(form.cols), form.p, r, m_bound, count_cap)
    return _image_family(form, r, m_bound)


# One oracle trial at n = 3 builds only max-route families (the min's
# value is a closed form), Lambda and M at ranks 1 to 3: six per exponent
# bound, nearly always at the first bound alone, and 24 over four; 64
# entries hold one trial.
@lru_cache(maxsize=64)
def _image_family(form: _IntLattice, r: int, m_bound: int) -> _Family:
    """The images of the saturated rank-r coordinate spans under the
    generator matrix of a lattice, keyed by its integer form, r and M:
    ints only, and the form fixes the generators, so a minimizer's
    Submodule kept on a record is theirs.  The family keeps the Plücker
    vectors of the rank-r column selections of the scaled generators
    d B, which bound every pair norm against it (``_scan``).  They are
    the columns of the r-th compound matrix of d B, and by Cauchy-Binet
    an image's Plücker vector is that matrix applied to its span's:
    det (d B U)_R = sum over T of det (d B)_R,T * det U_T."""
    p, cols, _, dv, _ = form
    n = len(cols)
    coord_pl = tuple(_plucker(sel, n) for sel in combinations(cols, r))
    compound = list(zip(*coord_pl))  # row R: det (d B)_R,T over T
    recs = []
    for i, span in enumerate(_coord_family(n, p, r, m_bound)):
        pl = tuple([sum(map(mul, row, span.pl)) for row in compound])
        recs.append(_Image(span, i, pl, _min_pval(pl, p) - r * dv))
    return _Family(recs, sorted(recs, key=lambda rec: rec.norm), r * dv,
                   coord_pl)


# ---------------------------------------------------------------------------
# brute minima and maxima


@dataclass(frozen=True)
class BruteResult:
    value: int
    minimizers: tuple  # pairs (Submodule | None, Submodule | None)


def _scan(outer: list, inner: list, coord_pl: tuple, n: int, a: int, c: int,
          p: int, offset: int, collect: bool, summand=None):
    """The pair scan of both brute routes: the minimum over pairs of
    cost = norm[X | Y] - w(X).

    ``outer`` holds (record X of rank a, weight w) pairs sorted by
    norm X - w; ``inner`` holds records Y of rank c sorted by norm, each
    the image d B U of an integer coordinate matrix U, and ``coord_pl``
    the Plücker vectors of the column selections (d B)_T of their
    family.  ``offset`` is the two families' rank * v(d) shifts.  By the
    Laplace bound norm[X | Y] >= norm X + norm Y, a pair's cost is at
    least norm X + norm Y - w, and both loops stop once that exceeds the
    best cost.  By Cauchy-Binet, det [X | d B U]_R = sum over T of
    det U_T * det [X | (d B)_T]_R with integer det U_T, so every Y gives
    norm[X | Y] >= ``_coord_bound``, and X's inner loop is skipped once
    that bound, less offset and w, exceeds the best cost.  Under
    ``collect=False`` a bound that only ties the best cannot lower it,
    so those pairs and spans are skipped too.  ``summand`` maps X to a
    bitmask over the inner records' ``index``; a pair whose bit is clear
    is not scanned.  The value does not depend on the scan order.

    Returns (best cost, the minimizing record pairs if ``collect``).
    """
    best = INFINITY
    hits = []
    slack = 0 if collect else 1  # int costs: only a bound below best helps
    floor = inner[0].norm
    for rec_x, w in outer:
        if rec_x.norm - w + floor + slack > best:
            break  # outer sorted by norm X - w: no later X can reach best
        rows = rec_x.expansion(n, a, c)
        if _coord_bound(rows, coord_pl, p) - offset - w + slack > best:
            continue  # no Y can reach best
        mask = -1 if summand is None else summand(rec_x)
        for rec_y in inner:
            bound = rec_x.norm + rec_y.norm
            if bound - w + slack > best:
                break  # inner sorted by norm: no later Y can reach best
            if not mask >> rec_y.index & 1:
                continue
            norm = _pair_norm(rows, rec_y.pl, p, bound + offset) - offset
            if norm == INFINITY:
                continue  # X + Y has rank below a + c
            cost = norm - w
            if cost < best:
                best, hits = cost, []
            if collect and cost == best:
                hits.append((rec_x, rec_y))
    return best, hits


def brute_min_direct_sum(a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                         budget: EnumerationBudget,
                         collect: bool = True) -> BruteResult:
    """Exact minimum of the concatenated norm norm[X | Y] over enumerated
    pairs, X of rank a in A and Y of rank c in C.

    Enumeration runs over saturated submodules: saturating a generator
    never raises the concatenated norm, so the minimum is unchanged while
    the families stay finite.  Each side's family holds the images of
    the saturated coordinate spans under the lattice's generator matrix,
    sorted by norm, with their Plücker vectors; ``_scan`` runs the pairs
    with weight 0 and no summand mask.  With collect=True all minimizing
    pairs are returned, as Submodules gens @ coords.
    """
    a_lat.check_ranks(c_lat, a, c)
    n, p = a_lat.n, a_lat.config.p
    m_bound, cap = budget.exponent_bound, budget.count_cap
    fam_a = _family(_int_lattice(a_lat), a, m_bound, cap)
    fam_c = _family(_int_lattice(c_lat), c, m_bound, cap)
    best, hits = _scan([(rec, 0) for rec in fam_a.by_norm], fam_c.by_norm,
                       fam_c.coord_pl, n, a, c, p,
                       fam_a.offset + fam_c.offset, collect)
    if best == INFINITY:
        raise BudgetExceededError("no direct pair found within the budget")
    return BruteResult(int(best), tuple(
        (x.submodule(a_lat.gens), y.submodule(c_lat.gens)) for x, y in hits))


def brute_max_direct_sum(a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                         budget: EnumerationBudget, collect: bool = True,
                         forms=None) -> BruteResult:
    """Exact maximum of norm(C(V)) + norm(A modulo A(V + U)) over
    enumerated pairs of saturated spans V (rank c), U (rank n-a-c) of O^n
    that are jointly a direct summand.

    The quotient norm is |inv A| - norm[A(V) | A(U)], with |inv A| the
    norm of A's own integer columns, so the maximum is |inv A| minus the
    minimum of cost = norm[A(V) | A(U)] - norm(C(V)).  ``_scan`` finds
    that minimum: its outer list is the A-images of the V family with
    weight norm(C(V)), stably sorted by norm(A(V)) - norm(C(V)); its inner
    list is the A-images of the U family sorted by norm.  Whether V + U is
    a direct summand depends only on the coordinate spans, so it is read
    from V's summand mask over the rank-(n-a-c) spans.  Maximizing pairs
    are returned as the coordinate spans (V, U), None for a rank-0 side.
    ``forms`` holds the integer forms of (a_lat, c_lat) when the caller
    has made them (``stabilized_value``); otherwise they are made here.
    """
    a_lat.check_ranks(c_lat, a, c)
    n, p = a_lat.n, a_lat.config.p
    m_bound, cap = budget.exponent_bound, budget.count_cap
    form_a, form_c = forms or (_int_lattice(a_lat), _int_lattice(c_lat))
    size = form_a.floors[n] - n * form_a.dv
    u = n - a - c
    fam_u = _family(form_a, u, m_bound, cap)
    fam_v = _family(form_a, c, m_bound, cap)
    fam_cv = _family(form_c, c, m_bound, cap)
    outer = sorted(zip(fam_v.by_span, (rec.norm for rec in fam_cv.by_span)),
                   key=lambda pair: pair[0].norm - pair[1])
    summand = None
    if c and u:  # with a rank-0 side V + U is saturated
        partners = [rec.span for rec in fam_u.by_span]
        summand = lambda rec: _summand_mask(rec.span, c, u, partners, n, p)
    best, hits = _scan(outer, fam_u.by_norm, fam_u.coord_pl, n, c, u, p,
                       fam_v.offset + fam_u.offset, collect, summand)
    if best == INFINITY:
        raise BudgetExceededError("no summand pair found within the budget")
    return BruteResult(int(size - best), tuple(
        tuple(None if rec.span is None
              else Submodule(ValuedMatrix(a_lat.config, zip(*rec.span.dom)))
              for rec in pair)
        for pair in hits))


def _lift_settles(form_a: _IntLattice, form_c: _IntLattice, a: int, c: int,
                  m_bound: int, count_cap: int, value: int) -> bool:
    """True when no pair of the max route's families at any bound deeper
    than M costs less than b = |inv A| - ``value``, the least cost of
    its scan at bound M (see ``stabilized_value``), read from the
    bound-M families alone.

    Every span of a deeper family reduces mod p^(M+1) to its parent in
    the M-family: the same identity block, the same Schubert cell, so
    the same residue class and summand mask.  A child pair [V | U] is
    its parent [V' | U'] plus p^(M+1) times an integer matrix, so by
    Cauchy-Binet each (c+u)-minor of d A [V | U] is its parent's plus a
    multiple of p^(M+1+alpha_A), alpha_A the least integer norm over the
    (c+u)-column selections of d A; likewise each c-minor of d C V, with
    alpha_C, and each minor det [d A V | (d A)_T]_R, with alpha_A.  In
    the scan's units (off = (c+u) v(d_A) taken off the pair norms,
    c v(d_C) off the weights), let K_A = M+1+alpha_A - off and
    K_C = M+1+alpha_C - c v(d_C).

    * A parent V' of weight w(V') < K_C passes: its children keep that
      weight, so a child pair costs at least
      min(cost(V', U'), K_A - w(V')) >= min(b, K_A - w(V')).  And
      K_A - w(V') >= b: the coordinate pair (e_S1, e_S2) on a selection
      S = S1 + S2 that reaches alpha_A costs alpha_A - off - w(e_S1),
      and w(e_S1) >= K_C - M - 1 > w(V') - M - 1.
    * Any other V' passes when min(``_coord_bound`` of V' - off, K_A) -
      Omega_C >= b: each minor det [d A V | (d A)_T]_R bounds a child
      pair's norm as in ``_scan``, and a child's weight is at most
      Omega_C, the sum of the c largest invariants of C (a saturated V
      has a unit c-minor).

    The argument reads nothing of a child but that congruence, so one
    acceptance at M covers every deeper bound at once, and every
    saturated span of O^n too, which is congruent mod p^(M+1) to its
    truncation.  And the test accepts once M is large enough: a weight
    is at most Omega_C, so once K_C exceeds Omega_C no parent meets the
    second case.  That is M >= Omega_C - alpha_C + c v(d_C), the sum of
    the c largest invariants of C less the sum of its c smallest.

    alpha, Omega and b come from the oracle's integer minors only, the
    minor floors of the integer forms ``form_a`` and ``form_c``."""
    p, cols_a, _, dva, floors_a = form_a
    floors_c = form_c.floors
    n = len(cols_a)
    u = n - a - c
    best = floors_a[n] - n * dva - value
    fam_u = _family(form_a, u, m_bound, count_cap)
    fam_v = _family(form_a, c, m_bound, count_cap)
    fam_cv = _family(form_c, c, m_bound, count_cap)
    offset = fam_v.offset + fam_u.offset
    lift_a = m_bound + 1 + floors_a[c + u] - offset
    lift_c = m_bound + 1 + floors_c[c] - fam_cv.offset
    omega_c = floors_c[n] - fam_cv.offset - floors_c[n - c]
    return all(
        min(_coord_bound(rec_v.expansion(n, c, u), fam_u.coord_pl, p)
            - offset, lift_a) - omega_c >= best
        for rec_v, rec_cv in zip(fam_v.by_span, fam_cv.by_span)
        if rec_cv.norm >= lift_c)


def stabilized_value(kind: str, a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                     budget: EnumerationBudget = EnumerationBudget(),
                     forms=None) -> BruteResult:
    """The brute value, proved exact at a finite exponent bound, from
    ``budget.exponent_bound`` = M_0 on.  Only the families a round builds
    meet the count cap (``_family``): the min builds none and never
    refuses.  The result carries no minimizers.  ``forms`` holds the
    integer forms of (a_lat, c_lat) when the caller has made them;
    otherwise they are made here.

    The families grow with M (an identity-block form with entries below
    p^(M+1) is one below p^(M+2)), so a brute minimum (the min's value,
    the max's least cost) can only fall as M grows.

    Min: at every M the brute minimum equals the Cauchy-Binet floor
    ``_selection_floor`` of the scaled generators (d_A A, a columns;
    d_C C, c columns), less a v(d_A) + c v(d_C).  Every X = d_A A U and
    Y = d_C C U' make det [X | Y]_R = sum over S, T of
    det U_S det U'_T det [(d_A A)_S | (d_C C)_T]_R, so no pair is below
    the floor; the pair (e_S, e_T) of coordinate spans is an identity-
    block form in every family and reaches it.  So the value is the
    floor.

    Max: round M enumerates, from M_0 on, and returns its value as soon
    as ``_lift_settles`` accepts it: then no pair at any deeper bound,
    nor any pair of saturated spans of O^n, costs less than round M's
    least cost b, so |inv A| - b is the value of every deeper round.
    Otherwise round M + 1 enumerates.  The loop ends: ``_lift_settles``
    accepts by the time M reaches the spread of C's invariants (the sum
    of its c largest less the sum of its c smallest), unless a family
    meets the count cap first and raises BudgetExceededError."""
    if kind not in ("min", "max"):
        raise KeyError(kind)
    a_lat.check_ranks(c_lat, a, c)
    forms = form_a, form_c = forms or (_int_lattice(a_lat),
                                       _int_lattice(c_lat))
    if kind == "min":
        floor = _selection_floor(((form_a.cols, a), (form_c.cols, c)),
                                 a_lat.n, form_a.p)
        return BruteResult(floor - a * form_a.dv - c * form_c.dv, ())
    for m_bound in count(budget.exponent_bound):
        value = brute_max_direct_sum(
            a_lat, c_lat, a, c, replace(budget, exponent_bound=m_bound),
            collect=False, forms=forms).value
        if _lift_settles(form_a, form_c, a, c, m_bound, budget.count_cap,
                         value):
            return BruteResult(value, ())


# ---------------------------------------------------------------------------
# Littlewood-Richardson filling enumeration


def _pad(part, n):
    part = tuple(int(v) for v in part)
    return part + (0,) * (n - len(part))


def enumerate_lr_fillings(lam, mu, nu) -> list:
    """All LR fillings of shape lambda/mu with content nu, by backtracking
    over column-strict, ballot-respecting letter counts; the length of the
    result is the Littlewood-Richardson coefficient."""
    n = max(len(lam), len(mu), len(nu))
    lam, mu, nu = _pad(lam, n), _pad(mu, n), _pad(nu, n)
    for name, part in (("lambda", lam), ("mu", mu), ("nu", nu)):
        if any(part[i] < part[i + 1] for i in range(n - 1)) or \
                (part and part[-1] < 0):
            raise ValueError(f"{name} is not a partition")
    if any(m > l for m, l in zip(mu, lam)):
        raise ValueError("mu is not contained in lambda")
    if sum(mu) + sum(nu) != sum(lam):
        raise ValueError("|mu| + |nu| must equal |lambda|")
    if n == 0:
        return [LRFilling((), (), (), ())]

    results = []
    counts = []
    cum = [0] * (n + 2)  # cumulative letter counts through processed rows

    def fill_row(k):
        if k > n:
            if all(cum[i] == nu[i - 1] for i in range(1, n + 1)):
                results.append(LRFilling(
                    lam, mu, nu, [tuple(row) for row in counts]))
            return
        need = lam[k - 1] - mu[k - 1]
        row = [0] * k
        prev_ends = [mu[k - 2]] if k >= 2 else [0]
        if k >= 2:
            running = mu[k - 2]
            for i in range(1, k):
                running += counts[k - 2][i - 1]
                prev_ends.append(running)
        # prev_ends[i] = end of letters <= i in row k-1 (index 0: inner edge)

        def choose(i, placed):
            if i > k:
                if placed == need:
                    counts.append(row[:])
                    for j in range(1, k + 1):
                        cum[j] += row[j - 1]
                    fill_row(k + 1)
                    for j in range(1, k + 1):
                        cum[j] -= row[j - 1]
                    counts.pop()
                return
            cap = need - placed
            if i > 1:
                cap = min(cap, cum[i - 1] - cum[i])  # ballot headroom
            cap = min(cap, nu[i - 1] - cum[i])       # content headroom
            if k >= 2:
                # letters <= i in row k end at or before letters <= i-1 above
                cap = min(cap, prev_ends[i - 1] - (mu[k - 1] + placed))
            for c in range(cap + 1):
                row[i - 1] = c
                choose(i + 1, placed + c)
                row[i - 1] = 0

        choose(1, 0)

    fill_row(1)
    return results
