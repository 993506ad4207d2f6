"""Submodules of K^n, with lattices as the full-rank ones, pair
invariants, and the direct-sum-norm extrema of the hive construction.

The minimum of ``norm(A_a (+) C_c)`` over submodule pairs is computed
exactly: by multilinearity every maximal minor of ``[A S | C T]`` with
O-matrices S, T is an O-combination of the minors of plain column
selections, so the minimum over all submodule pairs is attained on column
subsets of the generator matrices (any representatives).  Each selection
norm is the minimal valuation of a maximal minor.  ``_min_selections``
finds every minimum of [X | Y] (in the hive, X = Lambda and Y = N) with
one elimination and then one pivot for each of the 2^n - 1 nonempty row
sets, on the raw form (``matops._raw_entries``: integers, or integer
polynomials over t), and no table of minors:

* Triangular to diagonal.  One ``matops._eliminate`` of [X | Y] pivoting
  in X's columns applies a unimodular U on the left.  In pivot order U X
  is upper triangular, each pivot of least valuation in its remaining
  row, so U X = D' W with D' its diagonal and W upper unitriangular over
  O.  So U X spans the lattice of D = diag(pi^lam), lam the pivot
  valuations, and since any generators serve, the minima are those of
  [D | Y'], Y' = U Y the Y parts of the pivot rows.
* Row sets.  The columns D_S of a set S of pivot rows vanish off S, so a
  maximal minor of [D_S | Y'_J] is pi^(lam_S) times a minor of Y' on
  rows R outside S, and the least norm with |Jx| = kx, |Jy| = ky is

      min over |R| = ky of norm(Y'_R) + (the kx smallest lam outside R),

  norm(Y'_R) the least valuation of a ky-minor of the rows R.  Taking
  the minimum over the columns J first gives norm(Y'_R) (the rows of a
  nonsingular Y' are K-independent); taking it over S disjoint from R
  next gives the kx smallest lam outside R, which are the first kx rows
  outside R, since lam comes non-decreasing.  So hive entry (s, t) is
  |lam| minus that minimum at kx = n - t, ky = t - s.
* The walk.  The row sets R are walked depth first, R + {i} (i past
  every row of R) one step from R: the pivot is row i's entry of least
  valuation among the columns not yet pivoted (the first on ties), and
  ``step`` clears row i's other entries by column operations on the rows
  past i, the only rows R + {i}'s descendants read.  Two facts make it
  exact.  Norms of nested row sets add up, norm(Y'_(R + {i})) =
  norm(Y'_R) + the pivot's valuation: the quotient identity of
  ``_witness_values``, transposed.  And the pivot columns J(R) reach
  norm(Y'_R): on R x J(R) the reduced matrix is triangular, and the
  column operations change that minor only by a unit factor.

Jy is J(R) at the first minimizing R in walk order, in ascending order;
it need not be the first minimizer of a scan over the columns of
[X | Y].  Any minimizing Jy serves as the max route's witness.

The maximum ranges over summand-realized pairs: submodules A(Y), C(V)
where Y and V are jointly a direct summand of O^n under the stored
matrix identifications, with objective ``norm(A(Y)) + norm(C(V))``.
Unrestricted submodules make the maximum infinite (scale by t^k), and
looser domains overshoot the duality identity, so this is the domain the
block-triangular complement construction actually supports.  The value
therefore depends on the stored generator matrices; hive construction
always passes the canonical identification M = N^-1 Lambda.

The two routes prove different things.  The min route is exhaustive, so
its value is exact.  The max route evaluates one feasible witness, so its
value is a lower bound on the maximum: when it equals |inv A| minus the
min route (the check in ``build_hive``), the true maximum is at least
that entry.  Equality is certified only by the brute-force oracle.  The
witness's value is always computed by ``_witness_values``, by its own
elimination on the original raw form and never from the min route's
values, so a min route that undershot would fail that check.
``_witness_values`` is the one witness entry: given the raw form of
[A | A C^-1] and a chain of nested witness column sets jw, it runs one
elimination of [A V | A], A V the chain's columns of A C^-1 taken set by
set, and gives each set's value for every rank of the complement U up to
the one asked.  ``build_hive`` covers its distinct jw by such chains;
``max_direct_sum_norm`` passes a chain of one set.  The
witness V is always made of C.gens^-1 columns, so the norm(C(V)) term of
the objective is identically 0 and is not computed.
``max_direct_sum_norm`` forms no inverse: it takes the raw form of
[A | A C^-1] from ``matops._swap_form`` on the raw form of [A^T | C^T],
through the adjugate of C's cleared block.  In the hive,
A C^-1 = Lambda M^-1 = N exactly, so ``build_hive`` passes the raw form
of [Lambda | N] itself.

Containment and equality are norm comparisons, not solves: for O-modules
S within T of equal K-rank, |inv S| - |inv T| = length(T / S), so A = B
exactly when A + B has the rank and the norm of each (one elimination of
[A | B] in ``Submodule.same_span``, which is ``Lattice.__eq__``).  The
Smith transforms are read only by ``adapted_slice``, which makes them
afresh on each call; its one caller is the greedy diagnostic.
"""

from __future__ import annotations

from itertools import accumulate

from .matops import (INFINITY, ValuedMatrix, _adj_product, _eliminate,
                     _from_raw, _raw_entries, _swap_form,
                     invariant_partition, quotient_free_invariants,
                     smith_decompose)


class Submodule:
    """Rank-k O-module in K^n; the rank always equals the K-rank of gens."""

    __slots__ = ("n", "rank", "gens")

    def __init__(self, gens: ValuedMatrix):
        if gens.rank() < gens.cols:
            raise ValueError(
                f"{type(self).__name__} generators must be K-independent")
        object.__setattr__(self, "n", gens.rows)
        object.__setattr__(self, "rank", gens.cols)
        object.__setattr__(self, "gens", gens)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def config(self):
        return self.gens.config

    @property
    def invariants(self) -> tuple:
        return invariant_partition(self.gens)

    @property
    def norm(self) -> int:
        return sum(self.invariants)

    def contains(self, other: "Submodule") -> bool:
        """Span containment with O-coefficients.

        T = self + other contains self, so other lies in self exactly when
        T has self's K-rank and T = self; for O-modules S within T of
        equal rank |inv S| - |inv T| = length(T / S), so T = self exactly
        when their norms agree.
        """
        inv = invariant_partition(self.gens.hstack(other.gens))
        return len(inv) == self.rank and sum(inv) == self.norm

    def same_span(self, other: "Submodule") -> bool:
        """Equal spans: A + B contains A and B, so A = B exactly when
        rank(A + B) = rank A = rank B and |inv(A + B)| = |inv A| = |inv B|."""
        if self.n != other.n or self.config != other.config:
            return False
        inv = invariant_partition(self.gens.hstack(other.gens))
        return (len(inv) == self.rank == other.rank
                and sum(inv) == self.norm == other.norm)

    def check_ranks(self, other: "Submodule", a: int, c: int):
        """Raise ValueError unless self and ``other`` share n and ring and
        the direct-sum ranks satisfy a, c >= 0, a + c <= n."""
        if self.n != other.n or self.config != other.config:
            raise ValueError("modules must share dimension and ring")
        if a < 0 or c < 0 or a + c > self.n:
            raise ValueError(f"ranks ({a},{c}) violate a,c >= 0, a+c <= n")

    def __repr__(self):
        return f"Submodule(n={self.n}, rank={self.rank}, inv={self.invariants})"

    def to_json(self) -> dict:
        return {"n": self.n, "rank": self.rank, "gens": self.gens.to_json()}

    @classmethod
    def from_json(cls, config, obj: dict) -> "Submodule":
        sub = cls(ValuedMatrix.from_json(config, obj["gens"]))
        if sub.rank != obj.get("rank", sub.rank):
            raise ValueError("submodule rank does not match generators")
        return sub


class Lattice(Submodule):
    """Full-rank O-module in K^n: the square case of a Submodule, with no
    state beyond n, rank and gens."""

    __slots__ = ()

    def __init__(self, gens: ValuedMatrix):
        if gens.rows != gens.cols:
            raise ValueError("lattice generators must be square")
        super().__init__(gens)

    def __eq__(self, other):
        return (self.same_span(other) if isinstance(other, Lattice)
                else NotImplemented)

    __hash__ = None

    def __repr__(self):
        return f"Lattice(n={self.n}, inv={self.invariants})"


# ---------------------------------------------------------------------------
# basic operations


def lattice_invariants(lattice: Lattice) -> tuple:
    return lattice.invariants


def pair_invariant(n_lat: Lattice, lam_lat: Lattice):
    """The orbit invariant of a lattice pair.

    Returns (M, mu) with M.gens = N.gens^-1 @ Lambda.gens and mu = inv(M);
    M is well defined up to unimodular right factors, mu is the invariant.
    No inverse is formed: with B and L the blocks of the raw form of
    [N | Lambda] (both scaled by one common c, which cancels),
    M = adj(B) L / det(B), from the fraction-free Gauss-Jordan
    elimination of ``matops._adj_product``, and each entry of M becomes a
    ring element once (``matops._from_raw``).
    """
    if n_lat.n != lam_lat.n or n_lat.config != lam_lat.config:
        raise ValueError("pair lattices must share dimension and ring")
    (n_rows, lam_rows), *_ = _raw_entries(n_lat.gens, lam_lat.gens)
    det, adj_l = _adj_product(n_rows, lam_rows, n_lat.config)
    m_lat = Lattice(_from_raw(n_lat.config, adj_l, det))
    return m_lat, m_lat.invariants


def adapted_slice(lattice: Lattice, i: int, j: int) -> Submodule:
    """Submodule spanned by invariant-adapted basis vectors i..j (1-based).

    The adapted basis is P @ D of the Smith decomposition: its column k
    is t^(alpha_k) u_k, alpha non-increasing, from a Smith decomposition
    made on each call.
    """
    if not (1 <= i <= j <= lattice.n):
        raise ValueError(f"slice ({i},{j}) out of range for n={lattice.n}")
    dec = smith_decompose(lattice.gens)
    return Submodule((dec.p @ dec.d).select_columns(range(i - 1, j)))


# ---------------------------------------------------------------------------
# minimum of the direct-sum norm


def min_direct_sum_norm(a_lat: Lattice, c_lat: Lattice, a: int, c: int) -> int:
    """Exact min of norm(A_a (+) C_c) over submodule pairs with direct sum.

    Equivalently the matrix norm of the concatenated generators; attained
    on column selections of the generator matrices, and read from
    ``_min_selections`` (see the module docstring).
    """
    a_lat.check_ranks(c_lat, a, c)
    if c == 0:
        return sum(sorted(lattice_invariants(a_lat))[:a])
    if a == 0:
        return sum(sorted(lattice_invariants(c_lat))[:c])
    _, best = _min_selections(_raw_entries(a_lat.gens, c_lat.gens))
    return best[a, c][0]


def _min_selections(form):
    """(lam, best) for the raw form ``form`` of [X | Y], X and Y square of
    full rank n: lam holds X's invariant orders, non-decreasing, and for
    every kx >= 0, ky >= 1 with kx + ky <= n, best[kx, ky] = (the least
    norm of [X_Jx | Y_Jy] with |Jx| = kx and |Jy| = ky, a minimizing Jy in
    ascending order).  The row sets R of Y' are walked depth first, each
    reached from R without its last row by one pivot, and Jy is J(R) at
    the first minimizing R; the module docstring derives the steps.
    Raises ValueError when X or Y is singular.
    """
    (x_rows, y_rows), val, step, shift = form
    n = len(x_rows)
    pivots = []
    lam = _eliminate([list(x) + list(y) for x, y in zip(x_rows, y_rows)],
                     n, val, step, pivots)
    if len(lam) < n:
        raise ValueError("the first block must be nonsingular")
    best = {(kx, ky): (INFINITY, None)
            for kx in range(n) for ky in range(1, n - kx + 1)}

    def walk(start, cols, norm, outside, jr):
        # R's state: norm = norm(Y'_R), jr = J(R) in pivot order, outside =
        # lam at the rows before ``start`` that R leaves out, and cols =
        # (index, entries on the rows start..) for each column of Y' not in
        # J(R), stored as rows so that ``step`` clears them
        for i in range(start, n):
            pos = i - start
            v, piv = INFINITY, None
            for c, (_, col) in enumerate(cols):
                x = col[pos]
                if x:
                    w = val(x)
                    if w < v:
                        v, piv = w, c
                        if not w:  # no raw valuation is below 0
                            break
            if piv is None:
                raise ValueError("the second block must be nonsingular")
            j, prow = cols[piv]
            norm_i, jr_i, out_i = norm + v, jr + (j,), outside + lam[start:i]
            ky = len(jr_i)
            # lam outside R + {i}, non-decreasing, summed kx at a time
            for kx, value in enumerate(accumulate(out_i + lam[i + 1:],
                                                  initial=norm_i)):
                if value < best[kx, ky][0]:
                    best[kx, ky] = (value, tuple(sorted(jr_i)))
            if i + 1 < n:
                clear, tail = step(prow[pos], v), prow[pos + 1:]
                walk(i + 1, [(k, clear(col[pos + 1:], tail, col[pos])
                              if col[pos] else col[pos + 1:])
                             for c, (k, col) in enumerate(cols) if c != piv],
                     norm_i, out_i, jr_i)

    walk(0, [(j, [row[j - n] for _, row in pivots]) for j in range(n)],
         0, [], ())
    return ([v - shift for v in lam],
            {(kx, ky): (value - (kx + ky) * shift, jw)
             for (kx, ky), (value, jw) in best.items()})


def greedy_slice_first_min(a_lat: Lattice, c_lat: Lattice, a: int, c: int,
                           first: str = "C") -> int:
    """Quotient-greedy diagnostic: slice one side, complete on the quotient.

    ``first="C"`` takes the minimal adapted slice of C and adds the a
    smallest free quotient invariants of A; ``first="A"`` mirrors.  Not
    exact (the C-first value overestimates on the regression instance);
    the oracle command logs it only on that fixed instance, beside the
    true minimum, and certifies no hive entry with it.
    """
    a_lat.check_ranks(c_lat, a, c)
    if first == "A":
        a_lat, c_lat, a, c = c_lat, a_lat, c, a
    elif first != "C":
        raise ValueError("first must be 'A' or 'C'")
    n = a_lat.n
    if c == 0:
        return sum(sorted(lattice_invariants(a_lat))[:a])
    slice_c = adapted_slice(c_lat, n - c + 1, n)
    if a == 0:
        return slice_c.norm
    quot = quotient_free_invariants(a_lat.gens, slice_c.gens)
    return slice_c.norm + sum(sorted(quot)[:a])


# ---------------------------------------------------------------------------
# maximum of the direct-sum norm (quotient-reduced semantics)


def max_direct_sum_norm(a_lat: Lattice, c_lat: Lattice, a: int, c: int) -> int:
    """The dual maximum, evaluated at one witness: over rank-c spans V in
    O^n the objective is

        norm(C(V)) + norm(A modulo A(V + U))

    with U a complementary rank-(n-a-c) submodule chosen optimally (its
    optimum is the sum of the n-a-c smallest quotient invariants of A
    relative to A(V)).  This is the reading of the theorem's max that the
    block-triangular identities support: the A-side summand contributes
    through the quotient by the rest of the decomposition, and the value
    depends only on the K-span of V, so saturation is immaterial.

    The witness is V = the C.gens^-1-columns of a minimizing Y-selection
    of the dual minimum, found by this route's own ``_min_selections`` on
    [A | A C^-1]; there C(V) is spanned by unit columns, so the value is
    |inv A| - norm(A(V)) minus the optimal U's quotient invariants
    (``_witness_values``).  Both read the raw form of [A | A C^-1] that
    ``matops._swap_form`` makes from the raw form of [A^T | C^T], as for
    the swapped hive: no inverse is formed.  Its value is the objective at
    one feasible V, so it proves only a lower bound on the maximum;
    ``build_hive`` shows that it reaches |inv A| minus the min route, and
    the brute-force oracle (acceptance criterion 4, ``hivekit oracle``)
    certifies equality.
    """
    a_lat.check_ranks(c_lat, a, c)
    lam = sorted(lattice_invariants(a_lat), reverse=True)
    if c == 0:
        return sum(lam[:a])
    u = a_lat.n - a - c
    form = _swap_form(_raw_entries(a_lat.gens.transpose(),
                                   c_lat.gens.transpose()), a_lat.config)
    _, best = _min_selections(form)
    [values] = _witness_values(form, [(best[u, c][1], u)], sum(lam))
    return values[u]


def _witness_values(form, chain, size):
    """Objective ``norm(C(V)) + norm(A mod A(V + U))`` at the spans V made
    of the C.gens^-1 columns of each set of a chain, given the raw form
    ``form = matops._raw_entries(A.gens, Y)`` of [A | Y], Y = A C^-1 (in
    the hive, Y = N), and ``size`` = |inv A|.

    ``chain`` is a list of (jw, u), each jw containing the one before; the
    result holds, for each, the values at every rank 0..u of U (a list
    indexed by that rank).  C.gens @ V is made of unit columns, so
    norm(C(V)) is identically 0; the value at rank r is |inv A| minus
    norm(A(V)) minus the r smallest quotient invariants of A relative to
    A(V).

    One elimination serves the chain.  The raw rows [Y_J | A] hold the
    columns of Y in the chain's order (each set's new columns after those
    of the set before), and each set pivots in its new columns only.  The
    rows left over span the image of O^n modulo the saturation of the
    columns pivoted so far (``matops._quotient_valuations``), so each
    set's pivots are the invariants of its new columns in the quotient by
    the set before, and their running sum is norm(A(V)): for K-independent
    columns, norm(jw) = norm(jw') + the norm of the rest modulo sat(jw')
    when jw' is contained in jw.  When u > 0 a copy of the leftover A parts
    is eliminated too, stopping after u pivots (``_eliminate``'s
    ``limit``): pivots come non-decreasing, so they are the u smallest
    quotient invariants.  The raw form's shift
    moves each of the k pivots of A V and each quotient pivot by the same
    amount.  The input is the matrices themselves, never the min route's
    values.
    """
    (a_rows, y_rows), val, step, shift = form
    n = len(a_rows)
    order = []
    widths = []
    for jw, _ in chain:
        new = [j for j in jw if j not in order]
        order += new
        widths.append(len(new))
    # with u = 0 throughout no quotient is needed, so A's rows are left out
    tail = a_rows if any(u for _, u in chain) else [()] * n
    rows = [[y[j] for j in order] + list(a) for y, a in zip(y_rows, tail)]
    values = []
    top = size
    for (_, u), width in zip(chain, widths):
        vals = _eliminate(rows, width, val, step)
        if len(vals) < width:
            raise ValueError("witness columns must be K-independent")
        top -= sum(vals) - width * shift
        quot = (_eliminate([row[-n:] for row in rows], n, val, step,
                           limit=u) if u else [])
        values.append([top - q + r * shift
                       for r, q in enumerate(accumulate(quot, initial=0))])
    return values
