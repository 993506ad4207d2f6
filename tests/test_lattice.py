from fractions import Fraction
from itertools import combinations, product

import pytest

from hypothesis import assume, given, settings, strategies as st

from hivekit import (EnumerationBudget, Lattice, RingConfig, Submodule,
                     ValuedMatrix, adapted_slice, brute_max_direct_sum,
                     brute_min_direct_sum, greedy_slice_first_min,
                     lattice_invariants, matrix_norm, max_direct_sum_norm,
                     min_direct_sum_norm, pair_invariant, unimodular_check)
from hivekit.cli import InstanceSpec, random_pair
from hivekit.lattice import _min_selections, _witness_values
from hivekit.matops import _quotient_valuations, _raw_entries, _swap_form

from conftest import (inverse, lat, mat, random_unimodular, ring_entries,
                      seeded)
from complement_reference import complement_min_selections
from minor_table import minor_norms, selection_min


def test_lattice_invariants_examples(p2):
    assert lattice_invariants(lat(p2, [[4, 0], [0, 2]])) == (2, 1)
    assert lattice_invariants(lat(p2, [[2, 0], [2, 2]])) == (1, 1)
    assert lattice_invariants(lat(p2, [[1, 0], [0, 1]])) == (0, 0)


def test_lattice_equality(p2):
    # [[2,0],[2,2]] spans the same lattice as 2*O^2
    assert lat(p2, [[2, 0], [2, 2]]) == lat(p2, [[2, 0], [0, 2]])
    assert lat(p2, [[2, 0], [0, 2]]) != lat(p2, [[4, 0], [0, 1]])
    # distinct lattices of equal norm: a norm match alone is not equality
    assert lat(p2, [[2, 0], [0, 1]]) != lat(p2, [[1, 0], [0, 2]])
    assert lat(p2, [[4, 0], [0, Fraction(1, 2)]]) != lat(p2, [[1, 0], [0, 2]])
    # a lattice is the full-rank Submodule, and == is same_span
    pairs = [(lat(p2, [[1, 1], [0, 2]]), lat(p2, [[1, 3], [0, 2]])),
             (lat(p2, [[1, 1], [0, 2]]), lat(p2, [[1, 0], [1, 2]])),
             (lat(p2, [[Fraction(1, 2), 0], [3, 4]]),
              lat(p2, [[Fraction(1, 2), 0], [7, 4]]))]
    assert [x == y for x, y in pairs] == [True, False, True]
    for x, y in pairs:
        assert isinstance(x, Submodule) and x.rank == x.n == 2
        assert x.same_span(y) == (x == y) == y.same_span(x)
    # other dimension or ring: unequal, not an error
    assert lat(p2, [[1]]) != lat(p2, [[1, 0], [0, 1]])
    assert lat(p2, [[1]]) != lat(RingConfig.padic(3), [[1]])
    assert not lat(p2, [[1]]).same_span(Submodule(mat(p2, [[1], [0]])))


@pytest.mark.parametrize("ring", ["p2", "p3", "tadic"])
def test_lattice_equal_under_unimodular_change(ring, request):
    cfg = request.getfixturevalue(ring)
    t = cfg.uniformizer
    rng = seeded(11)
    for _ in range(8):
        n = rng.choice((2, 3))
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=(-1, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        l, _ = random_pair(spec)
        u = random_unimodular(cfg, n, rng)
        assert l == Lattice(l.gens @ u) and Lattice(l.gens @ u) == l
        # t and t^-1 on two columns keep the norm but change the lattice
        d = ValuedMatrix.diagonal(cfg, [t, cfg.one / t] + [1] * (n - 2))
        assert l != Lattice(l.gens @ u @ d)
        # t on one column: a sublattice of index one
        sub = Lattice(l.gens @ u @ ValuedMatrix.diagonal(
            cfg, [t] + [1] * (n - 1)))
        assert l.contains(sub) and not sub.contains(l) and l != sub
        for other in (Lattice(l.gens @ u), Lattice(l.gens @ u @ d), sub):
            assert l.same_span(other) == (l == other)


def test_lattice_rejects_singular(p2):
    with pytest.raises(ValueError):
        lat(p2, [[1, 2], [2, 4]])


def test_pair_invariant_examples(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    some = lat(p2, [[2, 0], [2, 2]])
    m, mu = pair_invariant(ident, some)
    assert m == some and mu == (1, 1)

    m, mu = pair_invariant(lat(p2, [[2, 0], [0, 1]]), lat(p2, [[4, 0], [0, 1]]))
    assert mu == (1, 0)

    n = lat(p2, [[2, 0], [2, 1]])
    l = lat(p2, [[2, 0], [2, 2]])
    m, mu = pair_invariant(n, l)
    assert m.gens == mat(p2, [[1, 0], [0, 2]])
    assert mu == (1, 0)


@pytest.mark.parametrize("ring,n", [("padic:2", 16), ("padic:3", 12),
                                    ("tadic", 8)])
def test_pair_invariant_at_large_n(ring, n):
    # sizes out of the cofactor route's reach (its C(2n, n) minors took
    # about 1 s at p = 2, n = 12 and 12 s at n = 14): M is checked by
    # RingElement products, N M = Lambda, which share no code with the raw
    # elimination
    spec = InstanceSpec(n=n, ring=RingConfig.parse_flag(ring),
                        exponent_range=(-2, 3), seed=45,
                        unimodular_mix_steps=4)
    n_lat, lam_lat = random_pair(spec)
    m_lat, _ = pair_invariant(n_lat, lam_lat)
    assert n_lat.gens @ m_lat.gens == lam_lat.gens


def test_adapted_slice_examples(p2):
    d41 = lat(p2, [[4, 0], [0, 1]])
    s = adapted_slice(d41, 2, 2)
    assert s.invariants == (0,)
    assert s.same_span(Submodule(mat(p2, [[0], [1]])))
    s = adapted_slice(d41, 1, 1)
    assert s.invariants == (2,)
    assert s.same_span(Submodule(mat(p2, [[4], [0]])))
    s = adapted_slice(lat(p2, [[2, 0], [2, 2]]), 2, 2)
    assert s.rank == 1 and s.norm == 1
    with pytest.raises(ValueError):
        adapted_slice(d41, 0, 1)
    with pytest.raises(ValueError):
        adapted_slice(d41, 1, 3)


def test_adapted_slice_partition(p2):
    rng = seeded(5)
    for _ in range(10):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 3),
                            seed=rng.randrange(10**6), unimodular_mix_steps=5)
        n_lat, _ = random_pair(spec)
        inv = lattice_invariants(n_lat)
        for i in range(1, 4):
            for j in range(i, 4):
                assert adapted_slice(n_lat, i, j).invariants == inv[i - 1:j]


def integral_entries(cfg):
    """Hypothesis strategy for entries of O over cfg, zero included."""
    if cfg.kind == RingConfig.PADIC:
        return st.builds(lambda num, den, k: Fraction(num, den) * cfg.p ** k,
                         st.integers(-6, 6),
                         st.integers(1, 6).filter(lambda d: d % cfg.p),
                         st.integers(0, 3))
    coeffs = st.tuples(*[st.integers(-2, 2).map(Fraction)] * 3)
    dens = st.sampled_from([(1,), (1, 1), (2, 0, 1)])
    return st.builds(
        lambda num, den: cfg.element((num, tuple(map(Fraction, den)))),
        coeffs, dens)


@st.composite
def containment_cases(draw):
    """(S, X, i, j, w): an n x k S of full column rank, 1 <= k < n, over
    p=2, p=3 or t-adic; a k x k X over O with S X of full rank; a position
    (i, j) of X; and a column w outside the K-span of S."""
    cfg = draw(st.sampled_from([RingConfig.padic(2), RingConfig.padic(3),
                                RingConfig.tadic()]))
    n = draw(st.integers(2, 4 if cfg.kind == RingConfig.PADIC else 3))
    k = draw(st.integers(1, n - 1))
    entry = ring_entries(cfg)
    s = ValuedMatrix(cfg, [[draw(entry) for _ in range(k)] for _ in range(n)])
    assume(s.rank() == k)
    coeff = integral_entries(cfg)
    x = ValuedMatrix(cfg, [[draw(coeff) for _ in range(k)] for _ in range(k)])
    assume(x.rank() == k)
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    w = ValuedMatrix(cfg, [[draw(entry)] for _ in range(n)])
    assume(s.hstack(w).rank() == k + 1)
    return s, x, i, j, w


@settings(max_examples=100, deadline=None)
@given(case=containment_cases())
def test_contains_and_same_span(case):
    # S X lies in S for X over O, and spans S exactly when X is unimodular;
    # a coefficient of negative valuation, or a vector outside the K-span,
    # takes the module out of S (S's coordinates are unique)
    s, x, i, j, w = case
    cfg = s.config
    sub = Submodule(s)
    inside = Submodule(s @ x)
    assert sub.contains(inside)
    assert sub.same_span(inside) == unimodular_check(x)
    assert inside.contains(sub) == unimodular_check(x)
    bump = [list(row) for row in x.entries]
    bump[i][j] = bump[i][j] + cfg.one / cfg.uniformizer
    fractional = ValuedMatrix(cfg, bump)
    if fractional.rank() == x.cols:
        assert not sub.contains(Submodule(s @ fractional))
    outside = Submodule(w)
    assert not sub.contains(outside)
    assert not sub.contains(Submodule(s.hstack(w)))
    # S X with its last column replaced by w: rank k, but not in S
    mixed = ValuedMatrix(cfg, [row[:-1] + wrow for row, wrow
                               in zip((s @ x).entries, w.entries)])
    assert not sub.same_span(Submodule(mixed))


def test_min_examples(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    assert min_direct_sum_norm(ident, ident, 1, 1) == 0
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 1]])
    assert min_direct_sum_norm(a, c, 1, 1) == 1
    assert min_direct_sum_norm(a, c, 2, 0) == 2


def test_regression_c_first_greedy(p2):
    # the struck symmetric greedy is refuted here: C-first reports 2, the
    # true minimum is 1
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 1]])
    assert greedy_slice_first_min(a, c, 1, 1, first="C") == 2
    assert greedy_slice_first_min(a, c, 1, 1, first="A") == 1
    assert min_direct_sum_norm(a, c, 1, 1) == 1


def test_max_examples(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    assert max_direct_sum_norm(ident, ident, 1, 1) == 0
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 1]])
    assert max_direct_sum_norm(a, c, 1, 1) == 2
    assert max_direct_sum_norm(a, c, 2, 0) == 2  # = norm(A)


def test_rank_constraint_errors(p2, p3):
    # the optimizer and the brute force share one check
    a = lat(p2, [[1, 0], [0, 1]])
    b = lat(p2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    budget = EnumerationBudget(exponent_bound=1, count_cap=1000)
    routes = (min_direct_sum_norm, max_direct_sum_norm,
              greedy_slice_first_min,
              lambda *args: brute_min_direct_sum(*args, budget),
              lambda *args: brute_max_direct_sum(*args, budget))
    for fn in routes:
        for args in ((a, a, 2, 1), (a, a, -1, 1), (a, a, 1, -1)):
            with pytest.raises(ValueError, match="violate"):
                fn(*args)
        for args in ((a, b, 1, 1), (b, a, 1, 0),
                     (a, lat(p3, [[1, 0], [0, 1]]), 1, 1)):
            with pytest.raises(ValueError, match="share dimension and ring"):
                fn(*args)


def test_min_symmetry(p2):
    rng = seeded(21)
    for _ in range(8):
        s1 = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                          seed=rng.randrange(10**6), unimodular_mix_steps=4)
        s2 = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                          seed=rng.randrange(10**6), unimodular_mix_steps=4)
        a, _ = random_pair(s1)
        c, _ = random_pair(s2)
        for aa, cc in ((1, 1), (1, 2), (2, 1), (0, 2)):
            assert (min_direct_sum_norm(a, c, aa, cc)
                    == min_direct_sum_norm(c, a, cc, aa))


def test_min_monotone_in_rank(p2):
    rng = seeded(29)
    for _ in range(8):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        a, c = random_pair(spec)
        for aa in (1, 2):
            for cc in (0, 1):
                if aa + cc >= 3:
                    continue
                assert (min_direct_sum_norm(a, c, aa, cc)
                        >= min_direct_sum_norm(a, c, aa - 1, cc))


def test_norm_scaling(p2):
    # norm(t V) = norm(V) + rank
    rng = seeded(31)
    for _ in range(10):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        l, _ = random_pair(spec)
        for k in (1, 2, 3):
            v = l.gens.select_columns(range(k))
            assert matrix_norm(v.scale(2)) == matrix_norm(v) + k


def test_additivity_lemma(p2):
    # norm(Lambda U) = norm(N W) + norm(M U) with W the adapted units of M U
    from hivekit import smith_decompose
    rng = seeded(37)
    for _ in range(20):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        t = rng.randint(1, 3)
        u = mat(p2, [[rng.randint(0, 7) for _ in range(t)] for _ in range(3)])
        if u.rank() < t:
            continue
        mu_mat = m_lat.gens @ u
        dec = smith_decompose(mu_mat)
        w = dec.p.select_columns(range(t))
        lhs = matrix_norm(lam_lat.gens @ u)
        rhs = matrix_norm(n_lat.gens @ w) + matrix_norm(mu_mat)
        assert lhs == rhs


def test_duality_small(p2):
    rng = seeded(41)
    for _ in range(6):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        size = sum(lattice_invariants(lam_lat))
        for t in range(4):
            for s in range(t + 1):
                lhs = size - min_direct_sum_norm(lam_lat, n_lat, 3 - t, t - s)
                rhs = max_direct_sum_norm(lam_lat, m_lat, s, t - s)
                assert lhs == rhs


@st.composite
def minor_table_inputs(draw):
    """X, Y of size n x n over p=2, p=3 or t-adic, n in 1..4 (1..3 for
    t-adic), with zero columns and rank-deficient column sets."""
    cfg = draw(st.sampled_from([RingConfig.padic(2), RingConfig.padic(3),
                                RingConfig.tadic()]))
    n = draw(st.integers(1, 4 if cfg.kind == RingConfig.PADIC else 3))
    entry = ring_entries(cfg)
    cols = [[draw(entry) for _ in range(n)] for _ in range(2 * n)]
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, 2 * n - 1))
        kind = draw(st.sampled_from(["zero", "multiple"]))
        if kind == "zero":
            cols[j] = [0] * n
        else:
            # a multiple of another column: every selection holding both
            # is rank deficient
            src, f = draw(st.integers(0, 2 * n - 1)), draw(entry)
            cols[j] = [f * x for x in cols[src]]
    rows = [list(r) for r in zip(*cols)]
    return (ValuedMatrix(cfg, [r[:n] for r in rows]),
            ValuedMatrix(cfg, [r[n:] for r in rows]))


@settings(max_examples=80, deadline=None)
@given(xy=minor_table_inputs())
def test_minor_table_matches_matrix_norm(xy):
    x, y = xy
    n = x.rows
    both = x.hstack(y)
    norms = minor_norms(_raw_entries(x, y))
    sels = [sel for k in range(1, n + 1)
            for sel in combinations(range(2 * n), k)]
    assert sorted(norms) == sorted(sels)
    for sel in sels:
        assert norms[sel] == matrix_norm(both.select_columns(sel)), sel


@pytest.mark.parametrize("ring", ["padic:2", "padic:3", "tadic"])
def test_min_selections_match_minor_table(ring):
    """Every (kx, ky) value of ``_min_selections`` equals the minor
    table's minimum, on the forms of both hive variants, and the returned
    columns jw reach it with some kx columns of the first block (jw need
    not be the table's first minimizer)."""
    cfg = RingConfig.parse_flag(ring)
    for n, exps, mix, seed in product(range(1, 6), ((0, 3), (-2, 3)),
                                      (0, 4), range(6)):
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=exps, seed=seed,
                            unimodular_mix_steps=mix)
        n_lat, lam_lat = random_pair(spec)
        primary = _raw_entries(lam_lat.gens, n_lat.gens)
        for form in (primary, _swap_form(primary, cfg)):
            lam, best = _min_selections(form)
            assert sorted(lam) == sorted(lattice_invariants(lam_lat))
            norms = minor_norms(form)
            assert set(best) == {(kx, ky) for kx in range(n)
                                 for ky in range(1, n - kx + 1)}
            for (kx, ky), (value, jw) in best.items():
                want, _ = selection_min(norms, n, kx, ky)
                assert value == want, (n, exps, mix, seed, kx, ky)
                y_cols = tuple(n + j for j in jw)
                assert min(norms[jx + y_cols] for jx in
                           combinations(range(n), kx)) == want


@pytest.mark.parametrize("ring", ["padic:2", "padic:3", "tadic"])
def test_min_selections_match_complement_route(ring):
    """The row-set walk against the complement-set route it replaced
    (``tests/complement_reference.py``), on the forms of both hive
    variants at n = 1..8, with and without a shift and mixing (t-adic:
    mix-30 pairs too, at n <= 4): the same lam and the same values.  Each
    returned jw reaches its value with some kx columns of X: the least
    norm of [X_Jx | Y_jw] over |Jx| = kx is norm(Y_jw) plus the kx
    smallest invariants of X modulo sat(Y_jw) (``_quotient_valuations``,
    whose quotient pivots come non-decreasing)."""
    cfg = RingConfig.parse_flag(ring)
    cases = list(product(range(1, 9), ((0, 3), (-2, 3)), (0, 4)))
    if cfg.kind == RingConfig.TADIC:
        cases += product(range(1, 5), ((0, 3), (-2, 3)), (30,))
    for n, exps, mix in cases:
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=exps, seed=n,
                            unimodular_mix_steps=mix)
        n_lat, lam_lat = random_pair(spec)
        primary = _raw_entries(lam_lat.gens, n_lat.gens)
        for form in (primary, _swap_form(primary, cfg)):
            lam, best = _min_selections(form)
            want_lam, want = complement_min_selections(form)
            assert lam == want_lam
            assert set(best) == set(want)
            (x_rows, y_rows), val, step, shift = form
            for (kx, ky), (value, jw) in best.items():
                assert value == want[kx, ky][0], (n, exps, mix, kx, ky)
                jw_vals, quot = _quotient_valuations(
                    [[row[j] for j in jw] for row in y_rows], x_rows,
                    val, step)
                assert len(jw) == ky
                assert (sum(jw_vals) + sum(quot[:kx])
                        - (kx + ky) * shift) == value, (n, exps, mix, kx, ky)


def test_min_selections_reject_singular_block(p2):
    # Y = [[1, 2], [2, 4]] has rank 1: its second row has no nonzero entry
    # left once the first is pivoted, so the walk raises instead of
    # leaving (inf, None) entries
    x, y = mat(p2, [[1, 0], [0, 2]]), mat(p2, [[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="second block"):
        _min_selections(_raw_entries(x, y))
    with pytest.raises(ValueError, match="first block"):
        _min_selections(_raw_entries(y, x))


def test_max_scan_matrix_is_n(p2, p3, tadic):
    """Lambda M^-1 = N entrywise for M = N^-1 Lambda, so the max route's
    own scan of [Lambda | Lambda M^-1] is the min route's scan of
    [Lambda | N]; ``build_hive`` relies on this to share the witness."""
    for cfg, n, seeds in ((p2, 4, range(6)), (p2, 3, range(6)),
                          (p3, 3, range(6)), (tadic, 2, range(4)),
                          (tadic, 3, range(2))):
        for seed in seeds:
            spec = InstanceSpec(n=n, ring=cfg, exponent_range=(0, 3),
                                seed=seed, unimodular_mix_steps=4)
            n_lat, lam_lat = random_pair(spec)
            m_lat, _ = pair_invariant(n_lat, lam_lat)
            swapped = (Lattice(m_lat.gens.transpose()),
                       Lattice(lam_lat.gens.transpose()))
            for a_lat, l_lat in ((n_lat, lam_lat), swapped):
                m, _ = pair_invariant(a_lat, l_lat)
                assert l_lat.gens @ inverse(m.gens) == a_lat.gens


@pytest.mark.parametrize("ring,n", [("p3", 3), ("tadic", 3), ("p2", 4)])
def test_max_matches_inverse_route(ring, n, request):
    """max_direct_sum_norm, whose raw [A | A C^-1] comes from the adjugate
    (``matops._swap_form``), against the scan and witness on the raw form
    of A and A @ C^-1, for pairs (A, C) other than the hive's
    (Lambda, M), with negative exponents."""
    cfg = request.getfixturevalue(ring)
    for seed in range(3):
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=(-1, 2),
                            seed=seed, unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        for a_lat, c_lat in ((lam_lat, n_lat), (n_lat, lam_lat),
                             (m_lat, n_lat)):
            form = _raw_entries(a_lat.gens,
                                a_lat.gens @ inverse(c_lat.gens))
            norms = minor_norms(form)
            size = sum(lattice_invariants(a_lat))
            for c in range(1, n + 1):
                for a in range(n + 1 - c):
                    u = n - a - c
                    _, (_, jw) = selection_min(norms, n, u, c)
                    [values] = _witness_values(form, [(jw, u)], size)
                    assert max_direct_sum_norm(a_lat, c_lat, a, c) == \
                        values[u], (seed, a, c)


def test_tadic_pair_and_min(tadic):
    t = tadic.uniformizer
    n = lat(tadic, [[t * t, tadic.zero], [tadic.zero, tadic.one]])
    l = lat(tadic, [[t * t * t * t, tadic.zero], [tadic.zero, tadic.one]])
    m, mu = pair_invariant(n, l)
    assert mu == (2, 0)
    assert min_direct_sum_norm(l, n, 1, 1) == 2
    assert max_direct_sum_norm(l, m, 1, 0) == 4


def test_submodule_rejects_dependent_tadic_generators(tadic):
    t, one = tadic.uniformizer, tadic.one
    x = [t * t, one + t, one / t]
    y = [one, t, t + t]
    Submodule(mat(tadic, [[a, b] for a, b in zip(x, y)]))
    # third column (1 + t) x - y / t is in the K-span of the first two
    z = [(one + t) * a - b / t for a, b in zip(x, y)]
    with pytest.raises(ValueError, match="K-independent"):
        Submodule(mat(tadic, [[a, b, c] for a, b, c in zip(x, y, z)]))
    with pytest.raises(ValueError, match="K-independent"):
        Submodule(mat(tadic, [[a, a * (one + t) / t] for a in x]))


def test_lattice_json_round_trip(p2):
    l = lat(p2, [[Fraction(1, 2), 0], [3, 4]])
    payload = l.to_json()
    assert payload["n"] == payload["rank"] == 2
    again = Lattice.from_json(p2, payload)
    assert isinstance(again, Lattice) and again.gens == l.gens
    # the form without "rank" still loads
    old = Lattice.from_json(p2, {"n": 2, "gens": payload["gens"]})
    assert old.gens == l.gens
    sub = Submodule(mat(p2, [[2], [3]]))
    assert Submodule.from_json(p2, sub.to_json()).gens == sub.gens
