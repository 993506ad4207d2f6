"""Brute-force certification for small parameters.

Exhaustive enumeration of saturated spans (p-adic rings only: residue
enumeration needs a finite residue field), brute minima/maxima of
direct-sum norms, exhaustive Littlewood-Richardson filling enumeration,
and the stabilization protocol that re-runs an enumeration at a larger
exponent bound until the value settles.

The brute routes run on integer-cleared columns: each lattice matrix is
scaled once by a common denominator d, every candidate is an integer
product with its coordinates, and a norm is the minimum p-valuation of
the integer maximal minors minus (columns) * v(d).  This minor
arithmetic is the oracle's own, independent of the Smith route it
certifies.

Every span is carried by its Plücker vector, the tuple of its maximal
minors, computed once.  A pair's minors come from the block Laplace
expansion det [X | Y]_R = sum of +- det X_R1 * det Y_R2 over the splits
of the row set R; each span's expansion rows are built once per partner
rank, so a pair norm is one integer dot product per row set, and it
stops at the first minor that reaches the Laplace bound
norm[X | Y] >= norm X + norm Y.  Both pair scans also prune by that
bound; a pair whose bound only ties the best value is still scanned
whenever it could change the boundary warning.  Whether two coordinate
spans are jointly a direct summand is read from an int bitmask per span
and partner rank.

One memo (``_Memo``) holds everything the scans reuse, each entry a pure
function of its key: a lattice-independent table of coordinate spans,
kept for the process, and a per-lattice LRU of adapted bases and image
families, bounded at one trial's entries.  The count cap is checked
before either table is read.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from operator import mul

from .hive import LRFilling
from .lattice import Lattice, Submodule, adapted_basis, lattice_invariants
from .matops import INFINITY, ValuedMatrix
from .ring import RingConfig, _int_pval


class BudgetExceededError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for exhaustive enumeration.

    exponent_bound is the largest invariant order explored (None derives
    it from the lattice spread + 1); enumeration refuses to start if the
    predicted candidate count exceeds count_cap.
    """

    max_n: int = 3
    exponent_bound: int | None = None
    count_cap: int = 200_000

    def __post_init__(self):
        if self.max_n <= 0 or self.count_cap <= 0:
            raise ValueError("budget fields must be positive")
        if self.exponent_bound is not None and self.exponent_bound < 0:
            raise ValueError("exponent bound must be nonnegative")


def _derived_bound(*lattices) -> int:
    invs = [v for lat in lattices for v in lattice_invariants(lat)]
    return max(invs) - min(invs) + 1


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
    total = 0
    sign = 1
    for j in range(k):
        if rows[0][j]:
            minor = [[row[m] for m in range(k) if m != j] for row in rows[1:]]
            total += sign * rows[0][j] * _int_det(minor)
        sign = -sign
    return total


def _int_columns(mat: ValuedMatrix):
    """Integer columns of d * mat for one common denominator d, and v_p(d)."""
    denom = math.lcm(*(e.value.denominator for row in mat.entries
                       for e in row))
    cols = [[x.numerator * (denom // x.denominator)
             for x in (e.value for e in col)] for col in zip(*mat.entries)]
    return cols, _int_pval(denom, mat.config.p)


def _plucker(cols: list, n: int) -> tuple:
    """The maximal minors of k <= n integer columns in Z^n, one per row
    set, in ``combinations(range(n), k)`` order: the span's Plücker
    vector."""
    return tuple(_int_det(rows) for rows in combinations(zip(*cols), len(cols)))


def _min_pval(values, p: int):
    """Minimum p-valuation over the nonzero integers, INFINITY if none."""
    best = INFINITY
    for x in values:
        if x:
            if x % p:
                return 0
            v = _int_pval(x, p)
            if v < best:
                best = v
    return best


def _int_norm(cols: list, n: int, p: int):
    """Minimum p-valuation over the maximal minors of integer columns in
    Z^n (INFINITY when they are dependent or more than n): the norm of a
    single block."""
    if len(cols) > n:
        return INFINITY
    return _min_pval(_plucker(cols, n), p)


def _int_image(cols: list, coords: list) -> list:
    """Integer columns of the product (cols as a matrix) @ (coords)."""
    rows = list(zip(*cols))
    return [[sum(map(mul, row, vec)) for row in rows] for vec in coords]


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


# ---------------------------------------------------------------------------
# the memo: coordinate spans, lattice images


class _Span:
    """A saturated coordinate span: its coordinate matrix, its integer
    columns, whether it touches the residue bound, its Plücker vector,
    and its summand masks (partner rank -> int bitmask, built lazily)."""

    __slots__ = ("mat", "dom", "hot", "pl", "masks")

    def __init__(self, mat, dom, hot, n):
        self.mat = mat
        self.dom = dom
        self.hot = hot
        self.pl = _plucker(dom, n)
        self.masks = {}


class _Image:
    """A coordinate span's image under a lattice matrix B: the Plücker
    vector of the integer columns d * B * coords, the norm with the
    offset rank * v(d) taken off, the span's index in its coordinate
    family, and the expansion rows per partner rank (built lazily).  The
    rank-0 image has no span and Plücker vector (1,), the empty minor."""

    __slots__ = ("span", "index", "pl", "norm", "hot", "rows", "sub")

    def __init__(self, span, index, pl, norm):
        self.span = span
        self.index = index
        self.pl = pl
        self.norm = norm
        self.hot = span is not None and span.hot
        self.rows = {}
        self.sub = None  # the min route's Submodule, built on first use

    def expansion(self, n: int, rank: int, partner: int) -> list:
        rows = self.rows.get(partner)
        if rows is None:
            rows = self.rows[partner] = _laplace_rows(self.pl, n, rank,
                                                      partner)
        return rows


@dataclass(frozen=True)
class _Family:
    by_span: list   # _Image records in coordinate-family order
    by_norm: list   # the same records, stably sorted by norm
    offset: int     # rank * v(d)
    basis: ValuedMatrix | None


class _Memo:
    """Everything the brute scans reuse; every entry is a pure function
    of its key, and no table is ever cleared wholesale.

    ``spans`` is lattice-independent: (n, p, r, M) -> the _Span records
    of the saturated rank-r spans, with their Plücker vectors and summand
    masks.  It lives for the process; enumerating it costs about as much
    as a whole n = 3 trial.  ``lattices`` holds what depends on a lattice,
    keyed by its p and generator entries and then by what is held: the
    adapted basis, or an image family of (basis or generators, rank, M).
    It is an LRU of at most ``size`` entries.  One oracle trial at n = 3
    touches Lambda, N and M: two adapted bases and twelve families per
    exponent bound, 26 entries over the two bounds a trial usually needs
    and 50 over four, so 64 entries hold one trial.
    """

    def __init__(self, size: int):
        self.spans: dict = {}
        self.lattices: OrderedDict = OrderedDict()
        self.size = size

    def lattice_entry(self, key, build):
        hit = self.lattices.get(key)
        if hit is None:
            hit = self.lattices[key] = build()
            if len(self.lattices) > self.size:
                self.lattices.popitem(last=False)
        else:
            self.lattices.move_to_end(key)
        return hit


_MEMO = _Memo(64)


def _saturated_coords(cfg: RingConfig, n: int, r: int, m_bound: int,
                      count_cap: int):
    """Saturated rank-r spans of O^n with entries bounded mod p^(M+1).

    Saturated spans admit a generator matrix with an identity block at
    some pivot-row set, so they are enumerated directly (no saturation
    pass needed); an entry with a nonzero top digit marks the candidate
    as touching the bound.  Returns the family's _Span records: the
    coordinates are integers, so their columns need no clearing, and
    each record carries its Plücker vector.  The family lives in the
    memo's lattice-independent table; the count cap is checked before
    the lookup, so a warm entry cannot lift it.
    """
    p = cfg.p
    mod = p ** (m_bound + 1)
    predicted = math.comb(n, r) * mod ** (r * (n - r))
    if predicted > count_cap:
        raise BudgetExceededError(
            f"predicted {predicted} saturated candidates exceed cap {count_cap}")
    key = (n, p, r, m_bound)
    hit = _MEMO.spans.get(key)
    if hit is not None:
        return hit
    seen = {}
    for pivot_rows in combinations(range(n), r):
        others = [i for i in range(n) if i not in pivot_rows]
        for assignment in product(range(mod), repeat=len(others) * r):
            rows = [[0] * r for _ in range(n)]
            for j, pr in enumerate(pivot_rows):
                rows[pr][j] = 1
            it = iter(assignment)
            for i in others:
                for j in range(r):
                    rows[i][j] = next(it)
            mat = ValuedMatrix(cfg, rows)
            fp = span_fingerprint(mat)
            if fp not in seen:
                hot = any(x >= p ** m_bound for i in others for x in rows[i])
                seen[fp] = _Span(mat, [list(col) for col in zip(*rows)],
                                 hot, n)
    family = _MEMO.spans[key] = list(seen.values())
    return family


def _summand_mask(span: _Span, c: int, u: int, partners: list, n: int,
                  p: int) -> int:
    """Bit i is set iff the rank-c span + partners[i] (the rank-u family
    of the same n, p and M) is a direct summand of O^n, i.e. some maximal
    minor of their joint coordinates is a unit.  Built on first use and
    kept in the span record, per partner rank."""
    mask = span.masks.get(u)
    if mask is None:
        rows = _laplace_rows(span.pl, n, c, u)
        mask = 0
        for i, other in enumerate(partners):
            py = other.pl
            for w in rows:
                if sum(map(mul, w, py)) % p:
                    mask |= 1 << i
                    break
        span.masks[u] = mask
    return mask


def _family(lattice: Lattice, r: int, m_bound: int, count_cap: int,
            adapted: bool) -> _Family:
    """The images of the saturated rank-r coordinate spans under the
    lattice's adapted basis (``adapted``) or its generators, from the
    memo's per-lattice table.  Rank 0 gives the one empty image."""
    if r == 0:
        empty = [_Image(None, 0, (1,), 0)]
        return _Family(empty, empty, 0, None)
    cfg, n = lattice.config, lattice.n
    spans = _saturated_coords(cfg, n, r, m_bound, count_cap)
    lat_key = (cfg.p, tuple(tuple(e.value for e in row)
                            for row in lattice.gens.entries))

    def cleared_basis():
        basis = adapted_basis(lattice)
        return (basis, *_int_columns(basis))

    def build():
        if adapted:
            basis, cols, dv = _MEMO.lattice_entry((lat_key, "basis"),
                                                  cleared_basis)
        else:
            basis = None
            cols, dv = _int_columns(lattice.gens)
        recs = []
        for i, span in enumerate(spans):
            pl = _plucker(_int_image(cols, span.dom), n)
            recs.append(_Image(span, i, pl, _min_pval(pl, cfg.p) - r * dv))
        return _Family(recs, sorted(recs, key=lambda rec: rec.norm),
                       r * dv, basis)

    return _MEMO.lattice_entry((lat_key, adapted, r, m_bound), build)


# ---------------------------------------------------------------------------
# brute minima and maxima


@dataclass(frozen=True)
class BruteResult:
    value: int
    minimizers: tuple  # pairs (Submodule | None, Submodule | None)
    boundary_warning: bool


def _brute_rank_args(a_lat, c_lat, a, c, budget):
    if a_lat.n != c_lat.n or a_lat.config != c_lat.config:
        raise ValueError("lattices must share dimension and ring")
    if a < 0 or c < 0 or a + c > a_lat.n:
        raise ValueError(f"ranks ({a},{c}) violate a,c >= 0, a+c <= n")
    if a_lat.n > budget.max_n:
        raise BudgetExceededError(
            f"n={a_lat.n} exceeds budget max_n={budget.max_n}")
    m_bound = budget.exponent_bound
    if m_bound is None:
        m_bound = _derived_bound(a_lat, c_lat)
    return m_bound


def _adapted_submodule(rec: _Image, basis: ValuedMatrix):
    """The min route's Submodule of an image record (None for rank 0)."""
    if rec.span is None:
        return None
    if rec.sub is None:
        rec.sub = Submodule(basis @ rec.span.mat)
    return rec.sub


def brute_min_direct_sum(a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                         budget: EnumerationBudget,
                         collect: bool = True) -> BruteResult:
    """Exact minimum of the concatenated norm over enumerated pairs.

    Enumeration runs over saturated submodules: saturating a generator
    never raises the concatenated norm, so the minimum is unchanged while
    the families stay finite.  Each side's family holds the images of
    the saturated coordinate spans under the lattice's adapted basis,
    sorted by norm, with their Plücker vectors.  A pair's norm is the
    minimum p-valuation of det [X | Y]_R over the row sets R, each one
    dot product of an expansion row of X with Y's Plücker vector.  It is
    bounded below by the sum of the two norms, which prunes the sorted
    pair scan.  With collect=True all minimizing pairs are returned.  The
    boundary flag warns when every minimizer touches the residue bound.
    """
    m_bound = _brute_rank_args(a_lat, c_lat, a, c, budget)
    n, p = a_lat.n, a_lat.config.p
    fam_a = _family(a_lat, a, m_bound, budget.count_cap, True)
    fam_c = _family(c_lat, c, m_bound, budget.count_cap, True)
    offset = fam_a.offset + fam_c.offset
    cs = fam_c.by_norm
    best = INFINITY
    hits = []
    found_calm = False  # a minimizer away from the bound
    nc0 = cs[0].norm
    for rec_a in fam_a.by_norm:
        norm_a, hot_a = rec_a.norm, rec_a.hot
        if norm_a + nc0 > best:
            break  # sorted families: no later pair can be minimizing
        rows = rec_a.expansion(n, a, c)
        for rec_c in cs:
            bound = norm_a + rec_c.norm
            if bound > best:
                break  # families sorted: no later pair can reach best
            hot = hot_a or rec_c.hot
            if bound == best and not collect and (found_calm or hot):
                continue
            val = _pair_norm(rows, rec_c.pl, p, bound + offset) - offset
            if val < best:
                best = val
                found_calm = not hot
                hits = [(rec_a, rec_c)] if collect else []
            elif val == best and val != INFINITY:
                found_calm = found_calm or not hot
                if collect:
                    hits.append((rec_a, rec_c))
    if best == INFINITY:
        raise BudgetExceededError("no direct pair found within the budget")
    return BruteResult(int(best), tuple(
        (_adapted_submodule(x, fam_a.basis), _adapted_submodule(y, fam_c.basis))
        for x, y in hits), not found_calm)


def brute_max_direct_sum(a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                         budget: EnumerationBudget,
                         collect: bool = True) -> BruteResult:
    """Exact maximum of norm(C(V)) + norm(A modulo A(V + U)) over
    enumerated pairs of saturated spans V (rank c), U (rank n-a-c) of O^n
    that are jointly a direct summand.

    The quotient norm is evaluated as |inv A| - norm[A(V) | A(U)].  The
    memo holds each span's A-image (the integer columns d * A * coords)
    as a Plücker vector with its norm, and each V's C-norm; the pair
    norm is one dot product per row set, of an expansion row of A(V)
    with the Plücker vector of A(U).  Whether V + U is a direct summand
    depends only on the coordinate spans, so it is read from V's summand
    mask over the rank-(n-a-c) spans.  Since norm[X | Y] >= norm X +
    norm Y, each pair's value is at most norm(C(V)) + |inv A| -
    norm(A(V)) - norm(A(U)); the U side is scanned in increasing
    norm(A(U)) and left once that bound falls below the best value.  A
    pair whose bound only ties the best is still scanned unless it
    cannot change the boundary flag.  Maximizing pairs are returned as
    (V, U) with None for a rank-0 side.
    """
    m_bound = _brute_rank_args(a_lat, c_lat, a, c, budget)
    n, p = a_lat.n, a_lat.config.p
    cap = budget.count_cap
    size = sum(lattice_invariants(a_lat))
    u = n - a - c
    fam_u = _family(a_lat, u, m_bound, cap, False)
    fam_v = _family(a_lat, c, m_bound, cap, False)
    fam_cv = _family(c_lat, c, m_bound, cap, False)
    offset = fam_v.offset + fam_u.offset
    partners = [rec.span for rec in fam_u.by_span]
    best = -INFINITY
    hits = []
    found_calm = False
    for rec_v, rec_cv in zip(fam_v.by_span, fam_cv.by_span):
        cv = rec_cv.norm
        ceiling = cv + size - rec_v.norm
        # every bit set when one side has rank 0: V + U is then saturated
        mask = (_summand_mask(rec_v.span, c, u, partners, n, p)
                if c and u else -1)
        rows = rec_v.expansion(n, c, u)
        hot_v = rec_v.hot
        for rec_u in fam_u.by_norm:
            bound = ceiling - rec_u.norm
            if bound < best:
                break  # sorted by norm(A(U)): no later U can reach best
            hot = hot_v or rec_u.hot
            if bound == best and not collect and (found_calm or hot):
                continue
            if not mask >> rec_u.index & 1:
                continue  # V + U is not a direct summand of O^n
            reduction = (_pair_norm(rows, rec_u.pl, p,
                                     rec_v.norm + rec_u.norm + offset)
                         - offset)
            if reduction == INFINITY:
                continue
            val = cv + size - reduction
            if val > best:
                best = val
                found_calm = not hot
                hits = [(rec_v, rec_u)] if collect else []
            elif val == best:
                found_calm = found_calm or not hot
                if collect:
                    hits.append((rec_v, rec_u))
    if best == -INFINITY:
        raise BudgetExceededError("no summand pair found within the budget")
    return BruteResult(int(best), tuple(
        tuple(None if rec.span is None else Submodule(rec.span.mat)
              for rec in pair)
        for pair in hits), not found_calm)


def stabilized_value(kind: str, a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                     start_bound: int = 1, max_rounds: int = 4,
                     budget: EnumerationBudget | None = None) -> BruteResult:
    """Re-run a brute enumeration at growing exponent bounds until the
    value repeats without a boundary warning (the adopted evidence
    standard: no a-priori bound on minimizers is available)."""
    fn = {"min": brute_min_direct_sum, "max": brute_max_direct_sum}[kind]
    base = budget or EnumerationBudget(max_n=max(a_lat.n, 3))
    prev = None
    m_bound = start_bound
    result = None
    for _ in range(max_rounds):
        eff = EnumerationBudget(max_n=base.max_n, exponent_bound=m_bound,
                                count_cap=base.count_cap)
        result = fn(a_lat, c_lat, a, c, eff, collect=False)
        if prev is not None and result.value == prev and not result.boundary_warning:
            return result
        prev = result.value
        m_bound += 1
    raise BudgetExceededError(
        f"{kind} value did not stabilize after {max_rounds} rounds")


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
