"""Hives: construction from a lattice pair, rhombus validation, boundary
types, conversion to Littlewood-Richardson fillings, and rendering.

A hive of size n is a triangular integer array h[i][j], 0 <= i <= j <= n,
normalized by h[0][0] = 0, satisfying the right-leaning, left-leaning and
vertical rhombus inequalities.  Each inequality family is evaluated at
every index pair whose four referenced entries exist inside the triangle
(for the vertical family this includes i = 0 and excludes j = n).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .lattice import Lattice, _min_selections, _witness_values
from .matops import _raw_entries, _swap_form

PRIMARY = "primary"
SWAPPED = "swapped"


class DualityError(RuntimeError):
    """At one hive entry the max route's witness value differs from the
    min route's value |lambda| - min.

    (s,t) indexes the hive of ``variant``; for the swapped hive that is
    the entry of the transposed pair (M^T, Lambda^T).  ``jw`` holds the
    witness columns: the selected columns of N (of M^T in the swapped
    hive).  Raised by ``build_hive``.  The witness value is only a lower
    bound on the true max, so the error does not say which route is wrong:
    a witness above the min route's value refutes the min route (or the
    duality), one below it may just be a poor witness.  The oracle decides.
    """

    def __init__(self, s: int, t: int, min_value: int, max_value: int,
                 variant: str, jw: tuple):
        super().__init__(
            f"duality check failed at ({s},{t}) of the {variant} hive: "
            f"min route {min_value}, witness {max_value} "
            f"on columns jw={jw}")
        self.s = s
        self.t = t
        self.min_value = min_value
        self.max_value = max_value
        self.variant = variant
        self.jw = jw


class Hive:
    """Triangular integer array; row j holds h[0][j] .. h[j][j]."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(rows) - 1
        if n < 0 or any(len(row) != j + 1 for j, row in enumerate(rows)):
            raise ValueError("hive rows must have lengths 1, 2, ..., n+1")
        if rows[0][0] != 0:
            raise ValueError("hive normalization requires h00 = 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Hive is immutable")

    def __getitem__(self, key) -> int:
        i, j = key
        return self.rows[j][i]

    def __eq__(self, other):
        return isinstance(other, Hive) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Hive(n={self.n}, rows={self.rows})"

    def to_json(self) -> dict:
        return {"n": self.n, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "Hive":
        # int() in the constructor would truncate 1.5 and read true as 1
        for row in obj["rows"]:
            for v in row:
                if type(v) is not int:
                    raise ValueError(f"hive entry {v!r} is not an integer")
        hive = cls(obj["rows"])
        if "n" in obj and hive.n != obj["n"]:
            raise ValueError("hive size does not match rows")
        return hive


@dataclass(frozen=True)
class RhombusViolation:
    family: str  # "right" | "left" | "vertical"
    i: int
    j: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class RhombusReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class HiveType:
    mu: tuple
    nu: tuple
    lam: tuple


class NotAHiveError(ValueError):
    def __init__(self, report: RhombusReport):
        super().__init__(f"array violates {len(report.violations)} "
                         "rhombus inequalities")
        self.report = report


def check_rhombus(hive: Hive) -> RhombusReport:
    """Evaluate all three rhombus families; empty report iff a hive."""
    h = hive.__getitem__
    n = hive.n
    bad = []
    for j in range(2, n + 1):
        for i in range(1, j):
            lhs = h((i, j)) + h((i - 1, j - 1))
            rhs = h((i - 1, j)) + h((i, j - 1))
            if lhs < rhs:
                bad.append(RhombusViolation("right", i, j, lhs, rhs))
            lhs = h((i, j)) + h((i, j - 1))
            rhs = h((i - 1, j - 1)) + h((i + 1, j))
            if lhs < rhs:
                bad.append(RhombusViolation("left", i, j, lhs, rhs))
    for j in range(1, n):
        for i in range(0, j):
            lhs = h((i, j)) + h((i + 1, j))
            rhs = h((i + 1, j + 1)) + h((i, j - 1))
            if lhs < rhs:
                bad.append(RhombusViolation("vertical", i, j, lhs, rhs))
    return RhombusReport(tuple(bad))


def hive_type(hive: Hive) -> HiveType:
    """Boundary difference partitions (mu, nu, lambda); rejects non-hives."""
    report = check_rhombus(hive)
    if not report.ok:
        raise NotAHiveError(report)
    h = hive.__getitem__
    n = hive.n
    mu = tuple(h((0, k)) - h((0, k - 1)) for k in range(1, n + 1))
    nu = tuple(h((k, n)) - h((k - 1, n)) for k in range(1, n + 1))
    lam = tuple(h((k, k)) - h((k - 1, k - 1)) for k in range(1, n + 1))
    return HiveType(mu, nu, lam)


def build_hive(n_lat: Lattice, lam_lat: Lattice, variant: str = PRIMARY) -> Hive:
    """The hive of a lattice pair (N, Lambda).

    Entry (s,t) is |lambda| minus the minimal direct-sum norm over pairs
    of submodules of Lambda (rank n-t) and of N (rank t-s); the swapped
    variant uses M = pair invariant lattice in place of N.  Every such
    norm is the matrix norm of a column selection of [Lambda | N], and
    ``lattice._min_selections`` gives every minimum of a hive at once.
    One elimination of [Lambda | N] pivoting in Lambda's columns makes
    U Lambda triangular, D = diag(pi^lambda) times an upper unitriangular
    matrix, with U unimodular; with N' = U N, Laplace expansion along D's
    columns gives

        h(s,t) = |lambda| - min over |R| = t-s of
                 norm(N'_R) + (the n-t smallest lambda outside R),

    norm(N'_R) the least valuation of a (t-s)-minor of the rows R.  The
    row sets R are walked depth first, one pivot per set, since the norm
    of nested row sets adds up.  The lattice module docstring derives
    each step.

    All of it runs on one raw form of [Lambda | N] (``matops._raw_entries``:
    integers, or integer polynomials over t), cleared once per hive; lambda
    is read from its Lambda block, and no RingElement arithmetic is made
    after the input checks.  The swapped hive is the primary construction
    on (M^T, Lambda^T), and no inverse is formed for it: with the cleared
    blocks L, B of Lambda and N, M = adj(B) L / det(B), and
    ``matops._swap_form`` builds the raw form of [Lambda^T | M^T] as
    ((det(B) L)^T, (pi^shift adj(B) L)^T), with det(B) and adj(B) L from
    one fraction-free Gauss-Jordan elimination on [B | L].  The
    second block is M scaled by the first block's scale times a unit, and
    scaling a block by a unit moves no minor or pivot valuation.

    Every entry is also evaluated at the max route's witness, and the two
    values must agree; a mismatch raises DualityError.  The witness is
    V = the M^-1-columns of the minimizing N-selection jw that
    ``_min_selections`` returns (the pivot columns of the first minimizing
    row set R in walk order; it need not be the first minimizer of a scan
    over the columns of [Lambda | N]): ``max_direct_sum_norm`` would search
    [Lambda | Lambda M^-1], and Lambda M^-1 = N exactly
    (``tests/test_lattice.py::test_max_scan_matrix_is_n``), so Lambda V is
    the columns N_jw and no inverse is formed.  The witness's value comes
    from ``lattice._witness_values``, the max route's own witness entry,
    on the N_jw columns and the Lambda rows of the original raw form; it
    never reads the min route's values
    (``tests/test_hive.py::test_witness_ignores_minor_table``).  Each
    distinct jw is taken at its largest u = n - t, and the sets, by size,
    are covered by chains, each set joining the first chain whose last
    set it contains.  One elimination serves a chain: each set pivots in
    its new columns, so the running pivot sum is norm(N_jw), and the u
    smallest quotient invariants are the first u pivots of the leftover
    Lambda rows.  Over the p = 2, n = 4 pairs of the benchmark's
    ``hive-p2`` pool, 6.95 distinct jw per hive fall into 2.42 chains.
    The objective's norm(M V) term is 0 because M V is made of unit
    columns.  The witness value is at most the true max = |lambda| - true
    min, so agreement also shows that the min route did not undershoot.
    Agreement shows that a feasible witness attains h(s,t), so the true
    max is at least h(s,t); only the brute-force oracle (acceptance
    criterion 4, ``hivekit oracle``) certifies that the max equals h(s,t).

    The hive moves with the lattice triple (O^n, N, Lambda).  On the
    triangle's coordinates (a, b, c) = (s, t - s, n - t), with |mu|,
    |nu|, |lambda| the sums of the invariants of M, N, Lambda (so
    |lambda| = |mu| + |nu|):

    * rotation: hive(M, N^-1)(a, b, c) = hive(N, Lambda)(c, a, b) - |lambda|
      for the primary variant, and hive(N, Lambda)(b, c, a) - |nu| for the
      swapped one;
    * reversal: hive(M^-1, Lambda^-1)(a, b, c) =
      hive(N, Lambda)(c, b, a) - |lambda| for both variants.

    That the difference is affine in (s, t) is a measured property
    (``tests/test_symmetry.py``); the corners then fix it.  A hive of type
    (mu, nu, lambda) has h(0,0) = 0, h(0,n) = |mu| and h(n,n) = |lambda|
    at (0,0,n), (0,n,0) and (n,0,0), and the swapped hive has type
    (nu, mu, lambda).  The rotated pair (M, N^-1) has |mu'| = -|lambda|,
    |nu'| = |mu|, |lambda'| = -|nu|, and the reversed pair
    (M^-1, Lambda^-1) has |mu''| = -|nu|, |nu''| = -|mu|,
    |lambda''| = -|lambda|.  At each of the three corners the difference
    then reads the same constant, for example 0 - |lambda|,
    -|lambda| - 0 and -|nu| - |mu| for the primary rotation.  An affine
    function that is constant on the three corners is that constant.
    """
    if variant not in (PRIMARY, SWAPPED):
        raise ValueError(f"unknown hive variant {variant!r}")
    if n_lat.n != lam_lat.n or n_lat.config != lam_lat.config:
        raise ValueError("pair lattices must share dimension and ring")
    n = lam_lat.n
    form = _raw_entries(lam_lat.gens, n_lat.gens)
    if variant == SWAPPED:
        # M in place of N, carried out on transposes: Lambda^T = M^T N^T is
        # the valid factorization with the roles exchanged, so the swapped
        # hive is the primary construction on the pair (M^T, Lambda^T), and
        # its type comes out (nu, mu, lambda)
        form = _swap_form(form, n_lat.config)
    lam, best = _min_selections(form)
    lam.sort(reverse=True)
    size = sum(lam)
    witness = {}
    for chain in _witness_chains(best, n):
        for (jw, _), values in zip(chain, _witness_values(form, chain, size)):
            witness[jw] = values
    rows = []
    for t in range(n + 1):
        row = []
        for s in range(t):
            value, jw = best[n - t, t - s]
            hmin = size - value
            hmax = witness[jw][n - t]
            if hmax != hmin:
                raise DualityError(s, t, hmin, hmax, variant, jw)
            row.append(hmin)
        # s = t: with no N side both routes give the t largest invariants
        row.append(sum(lam[:t]))
        rows.append(row)
    return Hive(rows)


def _witness_chains(best, n):
    """The witness column sets of ``best`` (as ``_min_selections`` gives
    it) covered by chains of (jw, u), u the largest n - t at which jw is
    met: by size, each set joins the first chain whose last set it
    contains, or starts a chain of its own."""
    largest = {}
    for t in range(1, n + 1):
        for s in range(t):
            # t rises, so a set is first met at its largest u
            largest.setdefault(best[n - t, t - s][1], n - t)
    chains = []
    for jw in sorted(largest, key=len):
        link = (jw, largest[jw])
        for chain in chains:
            if set(chain[-1][0]).issubset(jw):
                chain.append(link)
                break
        else:
            chains.append([link])
    return chains


# ---------------------------------------------------------------------------
# Littlewood-Richardson fillings


class LRFilling:
    """Skew tableau of shape lambda/mu with content nu, stored as counts.

    counts[k-1][i-1] is the number of letters i in row k (1 <= i <= k).
    """

    __slots__ = ("n", "shape", "inner", "content", "counts")

    def __init__(self, shape, inner, content, counts):
        shape = tuple(int(v) for v in shape)
        inner = tuple(int(v) for v in inner)
        content = tuple(int(v) for v in content)
        counts = tuple(tuple(int(c) for c in row) for row in counts)
        n = len(shape)
        if len(inner) != n or len(content) != n or len(counts) != n:
            raise ValueError("filling components must all have length n")
        if any(len(row) != k + 1 for k, row in enumerate(counts)):
            raise ValueError("counts row k must have k entries")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "content", content)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("LRFilling is immutable")

    def count(self, letter: int, row: int) -> int:
        """Number of letters `letter` in row `row` (both 1-based)."""
        if not (1 <= letter <= row <= self.n):
            return 0
        return self.counts[row - 1][letter - 1]

    def __eq__(self, other):
        return (isinstance(other, LRFilling) and self.shape == other.shape
                and self.inner == other.inner and self.counts == other.counts)

    def __hash__(self):
        return hash((self.shape, self.inner, self.counts))

    def __repr__(self):
        return (f"LRFilling(shape={self.shape}, inner={self.inner}, "
                f"content={self.content})")

    def to_json(self) -> dict:
        return {"n": self.n, "shape": list(self.shape),
                "inner": list(self.inner), "content": list(self.content),
                "counts": [list(row) for row in self.counts]}

    @classmethod
    def from_json(cls, obj: dict) -> "LRFilling":
        return cls(obj["shape"], obj["inner"], obj["content"], obj["counts"])


def hive_to_lr_filling(hive: Hive) -> LRFilling:
    """The linear map from hives to LR fillings.

    c[i][k] = (h[i][k] - h[i-1][k]) - (h[i][k-1] - h[i-1][k-1]), the second
    difference read as 0 when i > k-1.  Nonnegativity of the counts is
    exactly the right-leaning family; shape and content identities hold by
    telescoping.
    """
    typ = hive_type(hive)  # validates the rhombus inequalities
    h = hive.__getitem__
    n = hive.n
    counts = []
    for k in range(1, n + 1):
        row = []
        for i in range(1, k + 1):
            first = h((i, k)) - h((i - 1, k))
            second = h((i, k - 1)) - h((i - 1, k - 1)) if i <= k - 1 else 0
            row.append(first - second)
        counts.append(row)
    return LRFilling(typ.lam, typ.mu, typ.nu, counts)


@dataclass(frozen=True)
class LRValidation:
    ok: bool
    problems: tuple

    def __bool__(self):
        return self.ok


def validate_lr(filling: LRFilling) -> LRValidation:
    """Semistandardness plus the ballot condition, with diagnostics.

    Rows weakly increase by construction of the counts encoding; checks
    nonnegativity, the shape/content identities, strict column increase,
    and the reverse reading word's ballot property, reporting the first
    failure of each kind.
    """
    n = filling.n
    shape, inner, content = filling.shape, filling.inner, filling.content
    problems = []

    def fail(msg):
        if not problems:
            problems.append(msg)

    for k in range(1, n + 1):
        if any(c < 0 for c in filling.counts[k - 1]):
            fail(f"negative letter count in row {k}")
        if inner[k - 1] + sum(filling.counts[k - 1]) != shape[k - 1]:
            fail(f"row {k} length differs from shape")
    for i in range(1, n + 1):
        total = sum(filling.count(i, k) for k in range(1, n + 1))
        if total != content[i - 1]:
            fail(f"letter {i} total differs from content")
    for k in range(2, n + 1):
        for i in range(1, k + 1):
            end_here = inner[k - 1] + sum(filling.count(ii, k)
                                          for ii in range(1, i + 1))
            end_above = inner[k - 2] + sum(filling.count(ii, k - 1)
                                           for ii in range(1, i))
            if end_here > end_above:
                fail(f"column not strictly increasing at row {k}, letter {i}")
                break
    for i in range(1, n):
        seen_next = 0
        seen_this = 0
        for k in range(1, n + 1):
            seen_next += filling.count(i + 1, k)
            if seen_next > seen_this:
                fail(f"ballot violation for letters {i},{i + 1} at row {k}")
                break
            seen_this += filling.count(i, k)
    return LRValidation(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# rendering


def render(hive: Hive, fmt: str = "ascii") -> str:
    if fmt == "ascii":
        return _render_ascii(hive)
    if fmt == "svg":
        return _render_svg(hive)
    if fmt == "json":
        return json.dumps(hive.to_json())
    raise ValueError(f"unknown render format {fmt!r}")


def _render_ascii(hive: Hive) -> str:
    cells = [[str(v) for v in row] for row in hive.rows]
    width = max(len(c) for row in cells for c in row)
    lines = [" ".join(c.rjust(width) for c in row) for row in cells]
    total = len(lines[-1])
    return "\n".join(" " * ((total - len(line)) // 2) + line
                     for line in lines)


def _render_svg(hive: Hive) -> str:
    n = hive.n
    dx, dy, margin = 64, 56, 40
    width = margin * 2 + dx * n
    height = margin * 2 + dy * n
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for j, row in enumerate(hive.rows):
        for i, value in enumerate(row):
            x = margin + i * dx + (n - j) * dx // 2
            y = margin + j * dy
            parts.append(f'<text x="{x}" y="{y}" text-anchor="middle" '
                         f'font-family="monospace">{value}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
