import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest

from hypothesis import assume, given, settings, strategies as st

from hivekit import (INFINITY, RingConfig, ValuedMatrix, invariant_partition,
                     matrix_norm, quotient_free_invariants, smith_decompose,
                     unimodular_check)
from hivekit.matops import _adj_product, _eliminate, _raw_entries
from hivekit.ring import _tpoly

from conftest import (brute_minor_norm, inverse, mat, random_padic_matrix,
                       random_tadic_matrix, random_unimodular, ring_entries,
                       seeded)
from eliminate_reference import full_scan_eliminate
from minor_table import cofactor_adjugate, minor_norms


def check_smith(a):
    dec = smith_decompose(a)
    assert (dec.p @ dec.d) @ dec.q == a
    assert unimodular_check(dec.p)
    assert unimodular_check(dec.q)
    vals = dec.diagonal_valuations
    finite = [v for v in vals if v != INFINITY]
    assert finite == sorted(finite, reverse=True)
    assert all(v == INFINITY for v in vals[len(finite):])
    # off-diagonal zero
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j:
                assert dec.d[i, j].is_zero()
    return dec


def test_smith_examples(p2):
    assert invariant_partition(mat(p2, [[2, 0], [0, 1]])) == (1, 0)
    assert invariant_partition(mat(p2, [[0, 2], [2, 0]])) == (1, 1)
    assert invariant_partition(mat(p2, [[1, 1], [1, 3]])) == (1, 0)
    for rows in ([[2, 0], [0, 1]], [[0, 2], [2, 0]], [[1, 1], [1, 3]]):
        check_smith(mat(p2, rows))


def test_invariant_partition_examples(p2):
    assert invariant_partition(mat(p2, [[4, 0], [0, 2]])) == (2, 1)
    half = Fraction(1, 2)
    assert invariant_partition(mat(p2, [[half, 0], [0, half]])) == (-1, -1)


def test_matrix_norm_examples(p2):
    assert matrix_norm(mat(p2, [[4, 0], [0, 2]])) == 3
    assert matrix_norm(mat(p2, [[2], [2]])) == 1
    assert matrix_norm(mat(p2, [[1, 1], [1, 3]])) == 1


def test_zero_matrix(p2):
    z = mat(p2, [[0, 0], [0, 0]])
    dec = check_smith(z)
    assert all(dec.d[i, i].is_zero() for i in range(2))
    assert invariant_partition(z) == ()
    assert matrix_norm(z) == INFINITY


def test_rank_deficient_norm(p2):
    a = mat(p2, [[1, 2], [2, 4]])  # rank 1
    assert matrix_norm(a) == INFINITY
    assert invariant_partition(a) == (0,)


def test_unimodular_check_examples(p2):
    assert unimodular_check(ValuedMatrix.identity(p2, 3))
    assert not unimodular_check(mat(p2, [[2, 0], [0, 1]]))
    assert unimodular_check(mat(p2, [[1, 1], [1, 2]]))
    assert not unimodular_check(mat(p2, [[1, 1]]).transpose().hstack(
        mat(p2, [[1], [1]])))  # singular square


def test_quotient_free_invariants_examples(p2):
    assert quotient_free_invariants(
        ValuedMatrix.identity(p2, 2), mat(p2, [[1], [0]])) == (0,)
    assert quotient_free_invariants(
        mat(p2, [[4, 0], [0, 2]]), mat(p2, [[1], [0]])) == (1,)
    assert quotient_free_invariants(
        mat(p2, [[2, 0], [0, 2]]), mat(p2, [[1], [1]])) == (1,)


def test_quotient_invariants_reduction_independent(p2):
    # the bottom-block invariants must not depend on which unimodular P
    # realizes the top-row reduction
    rng = seeded(11)
    for _ in range(25):
        t = random_padic_matrix(p2, rng, 3, 3)
        if t.rank() < 3:
            continue
        s = random_padic_matrix(p2, rng, 3, 1)
        if s.rank() < 1:
            continue
        base = quotient_free_invariants(t, s)
        p = inverse(smith_decompose(s).p)
        # an alternative reduction: post-compose with a unimodular matrix
        # fixing the top-supported shape (first column e1)
        b = mat(p2, [[1, 3, 5], [0, 1, 6], [0, 2, 13]])
        assert unimodular_check(b)
        p_alt = b @ p
        assert all((p_alt @ s)[i, 0].is_zero() for i in range(1, 3))
        bottom = (p_alt @ t).bottom_rows(2)
        assert invariant_partition(bottom) == base


@st.composite
def quotient_inputs(draw):
    """(T, S, full): a full-rank n x n T and an n x k S, 1 <= k <= n-1,
    over p=2, p=3 or t-adic; ``full`` says whether S has full column rank
    (otherwise its last column is a multiple of its first, or zero)."""
    cfg = draw(st.sampled_from([RingConfig.padic(2), RingConfig.padic(3),
                                RingConfig.tadic()]))
    n = draw(st.integers(2, 4 if cfg.kind == RingConfig.PADIC else 3))
    k = draw(st.integers(1, n - 1))
    entry = ring_entries(cfg)
    t = ValuedMatrix(cfg, [[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(t.rank() == n)
    data = [[draw(entry) for _ in range(k)] for _ in range(n)]
    full = draw(st.booleans())
    if not full:
        c = draw(entry)
        for row in data:
            row[-1] = c * row[0]
    s = ValuedMatrix(cfg, data)
    assume(full == (s.rank() == k))
    return t, s, full


@settings(max_examples=120, deadline=None)
@given(case=quotient_inputs())
def test_quotient_kernel_matches_smith_route(case):
    # the raw-value kernel against the transform route it replaced
    t, s, full = case
    if not full:
        with pytest.raises(ValueError):
            quotient_free_invariants(t, s)
        return
    n, k = t.rows, s.cols
    smith = invariant_partition(
        (inverse(smith_decompose(s).p) @ t).bottom_rows(n - k))
    assert quotient_free_invariants(t, s) == smith
    assert len(smith) == n - k


@st.composite
def shift_inputs(draw):
    """(T, S, Y, k, c) over p=2, p=3 or t-adic: a full-rank n x n T, an
    n x j S of full column rank, an n x n Y (any rank), and c = pi^k w with
    w a unit carrying non-pi factors above and below the line (t-adic:
    polynomials with nonzero constant terms, such as (1+t)/(2-t))."""
    cfg = draw(st.sampled_from([RingConfig.padic(2), RingConfig.padic(3),
                                RingConfig.tadic()]))
    tadic = cfg.kind == RingConfig.TADIC
    n = draw(st.integers(2, 3 if tadic else 4))
    entry = ring_entries(cfg)
    t = ValuedMatrix(cfg, [[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(t.rank() == n)
    j = draw(st.integers(1, n - 1))
    s = ValuedMatrix(cfg, [[draw(entry) for _ in range(j)] for _ in range(n)])
    assume(s.rank() == j)
    y = ValuedMatrix(cfg, [[draw(entry) for _ in range(n)] for _ in range(n)])
    k = draw(st.integers(-2, 3))
    if tadic:
        # (num, den) coefficient tuples, ascending; t^k moves into one side
        num, den = draw(st.sampled_from([((1, 1), (2, -1)),
                                         ((-3, 0, 1), (2, 3)),
                                         ((5,), (7, 0, 2))]))
        lift = (0,) * abs(k)
        c = cfg.element((lift + num, den) if k >= 0 else (num, lift + den))
        return t, s, y, k, c
    w = draw(st.sampled_from([Fraction(3, 5), Fraction(-5, 7), Fraction(7, 11)]
                             if cfg.p == 2 else
                             [Fraction(2, 5), Fraction(-5, 7), Fraction(7, 4)]))
    return t, s, y, k, Fraction(cfg.p) ** k * w


@settings(max_examples=120, deadline=None)
@given(case=shift_inputs())
def test_scaling_shifts_kernel_values(case):
    # each raw form clears a common scale whose valuation depends on the
    # input; every kernel value must move by exactly k per column under
    # scaling by pi^k times a unit
    t, s, y, k, c = case
    assert invariant_partition(t.scale(c)) == tuple(
        v + k for v in invariant_partition(t))
    assert quotient_free_invariants(t.scale(c), s) == tuple(
        v + k for v in quotient_free_invariants(t, s))
    base = minor_norms(_raw_entries(t, y))
    scaled = minor_norms(_raw_entries(t.scale(c), y.scale(c)))
    assert scaled.keys() == base.keys()
    for sel, v in base.items():
        assert scaled[sel] == v + k * len(sel), sel


def test_valued_matrix_keeps_own_entries_and_rejects_foreign(p2, p3):
    one = p2.one
    assert ValuedMatrix(p2, [[one, 2]])[0, 0] is one
    assert ValuedMatrix(RingConfig.padic(2), [[one]])[0, 0] == one
    with pytest.raises(ValueError, match="mixed ring"):
        ValuedMatrix(p2, [[1, p3.one]])
    with pytest.raises(ValueError, match="mixed ring"):
        ValuedMatrix(RingConfig.tadic(), [[one]])


def test_smith_round_trip_randomized(p2, tadic):
    rng = seeded(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        check_smith(random_padic_matrix(p2, rng, rows, cols))
    for _ in range(12):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        check_smith(random_tadic_matrix(tadic, rng, rows, cols))


def test_invariants_unimodular_invariance(p2):
    rng = seeded(13)
    for _ in range(15):
        a = random_padic_matrix(p2, rng, 3, 3)
        u = random_unimodular(p2, 3, rng, steps=5)
        w = random_unimodular(p2, 3, rng, steps=5)
        assert invariant_partition(u @ a) == invariant_partition(a)
        assert invariant_partition(a @ w) == invariant_partition(a)


def test_norm_equals_min_minor_valuation(p2, tadic):
    rng = seeded(17)
    for cfg, sampler, count in ((p2, random_padic_matrix, 40),
                                (tadic, random_tadic_matrix, 10)):
        for _ in range(count):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, rows)
            a = (sampler(cfg, rng, rows, cols) if sampler is random_tadic_matrix
                 else sampler(cfg, rng, rows, cols))
            assert matrix_norm(a) == brute_minor_norm(a)


@st.composite
def kernel_inputs(draw):
    """Random p=2, p=3 and t-adic matrices, including non-square,
    rank-deficient and zero ones."""
    cfg = draw(st.sampled_from([RingConfig.padic(2), RingConfig.padic(3),
                                RingConfig.tadic()]))
    padic = cfg.kind == RingConfig.PADIC
    rows = draw(st.integers(1, 4 if padic else 3))
    cols = draw(st.integers(1, 4 if padic else 3))
    entry = ring_entries(cfg)
    shape = draw(st.sampled_from(["random", "deficient", "zero"]))
    if shape == "zero":
        return ValuedMatrix(cfg, [[0] * cols for _ in range(rows)])
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if shape == "deficient" and rows > 1:
        # the last row repeats a multiple of the first
        data[-1] = [draw(entry) * x for x in data[0]]
    return ValuedMatrix(cfg, data)


@settings(max_examples=150, deadline=None)
@given(a=kernel_inputs())
def test_kernel_matches_smith_diagonal(a):
    dec = smith_decompose(a)
    smith = tuple(v for v in dec.diagonal_valuations if v != INFINITY)
    parts = invariant_partition(a)
    assert parts == smith
    # rank() runs the same kernel as invariant_partition, so the Smith
    # route is its reference
    assert a.rank() == dec.rank
    full = len(parts) == a.cols
    assert matrix_norm(a) == (sum(parts) if full else INFINITY)
    if a.rows == a.cols:
        assert unimodular_check(a) == (
            a.min_entry_valuation() >= 0 and full and sum(parts) == 0)


def test_matrix_json_round_trip(p2, tadic):
    a = mat(p2, [[Fraction(3, 8), 2], [0, Fraction(-5)]])
    again = ValuedMatrix.from_json(p2, a.to_json())
    assert again == a
    b = random_tadic_matrix(tadic, seeded(3), 2, 2)
    assert ValuedMatrix.from_json(tadic, b.to_json()) == b


def smith_pin_inputs():
    """A fixed seeded set for the Smith pin: p=2, p=3 and t-adic matrices
    of every shape up to 4 x 4 (t-adic up to 3 x 3), each also with a
    repeated row and a repeated column (rank deficient), and zero
    matrices."""
    rng = seeded(2024)
    out = []
    for cfg, sampler, top, count in (
            (RingConfig.padic(2), random_padic_matrix, 4, 24),
            (RingConfig.padic(3), random_padic_matrix, 4, 24),
            (RingConfig.tadic(), random_tadic_matrix, 3, 10)):
        for _ in range(count):
            a = sampler(cfg, rng, rng.randint(1, top), rng.randint(1, top))
            data = [list(row) for row in a.entries]
            out.append(a)
            out.append(ValuedMatrix(cfg, data + [
                [cfg.uniformizer * x for x in data[0]]]))
            out.append(ValuedMatrix(cfg, [row + [row[-1] * 3]
                                          for row in data]))
        out.append(ValuedMatrix(cfg, [[0] * 3 for _ in range(2)]))
        out.append(ValuedMatrix(cfg, [[0]]))
    return out


SMITH_PIN = "3fa22fe47f76e67cabf256481c577b35ef2b64e40551c40a089425e2dac565a7"


def test_smith_decompose_pinned():
    """P, D and Q of ``smith_decompose`` are pinned on a fixed seeded set,
    so a rewrite of its loop must keep the pivot rule, the row and column
    operations and the final order exactly."""
    payload = [[dec.p.to_json(), dec.d.to_json(), dec.q.to_json()]
               for dec in map(smith_decompose, smith_pin_inputs())]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == SMITH_PIN


def raw_value(cfg, rng):
    """A dense raw value: a nonzero int +-u p^k, or a nonzero integer
    polynomial t^k (c0 + c1 t + c2 t^2), with k in 0..2."""
    k = rng.randint(0, 2)
    if cfg.kind == RingConfig.PADIC:
        return rng.choice([1, -1]) * rng.randint(1, 30) * cfg.p ** k
    coeffs = [rng.randint(-3, 3) for _ in range(3)]
    coeffs[0] = coeffs[0] or 1
    return _tpoly(coeffs, k)


def adj_product_inputs(cfg, n, rng):
    """(B, L) raw pairs of size n: dense ones, and ones whose leading
    entries are zero, so that the elimination swaps rows: B's first
    column zero down to its last row, and (n >= 2) B an odd permutation
    of a diagonal."""
    zero = cfg.raw.zero

    def dense(rows):
        return [[raw_value(cfg, rng) for _ in range(n)] for _ in range(rows)]

    out = [(dense(n), dense(n)) for _ in range(6)]
    for _ in range(2):
        b = dense(n)
        for row in b[:-1]:
            row[0] = zero
        out.append((b, dense(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        if n > 1 and not sum(x > y for x, y in combinations(perm, 2)) % 2:
            perm[0], perm[1] = perm[1], perm[0]
        out.append(([[raw_value(cfg, rng) if j == perm[i] else zero
                      for j in range(n)] for i in range(n)], dense(n)))
    return out


def raw_product(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero)
             for col in zip(*b)] for row in a]


@pytest.mark.parametrize("ring,n", [(ring, n) for ring in ("padic:2", "padic:3")
                                    for n in range(1, 8)]
                         + [("tadic", n) for n in range(1, 6)])
def test_adj_product_matches_cofactor_reference(ring, n):
    # the elimination against the cofactors of every (n-1)-minor: the
    # same det B and adj(B) L exactly, and B adj(B) L = det(B) L
    cfg = RingConfig.parse_flag(ring)
    zero, power = cfg.raw.zero, cfg.raw.power
    checked = 0
    for b, l in adj_product_inputs(cfg, n, seeded(4500 + n)):
        det, adj_l = cofactor_adjugate(b, l, zero, power(0))
        if not det:
            continue
        assert _adj_product(b, l, cfg) == (det, adj_l)
        assert raw_product(b, adj_l, zero) == [[det * x for x in row]
                                               for row in l]
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("ring", ["padic:2", "padic:3", "tadic"])
def test_adj_product_rejects_singular(ring):
    cfg = RingConfig.parse_flag(ring)
    zero, power = cfg.raw.zero, cfg.raw.power
    rng = seeded(4510)
    l = [[raw_value(cfg, rng) for _ in range(3)] for _ in range(3)]
    rows = [[raw_value(cfg, rng) for _ in range(3)] for _ in range(2)]
    dependent = rows + [[power(1) * x - y for x, y in zip(*rows)]]
    zero_column = [[zero] + row[1:] for row in rows + rows[:1]]
    for b in (dependent, zero_column, [[zero]]):
        with pytest.raises(ValueError):
            _adj_product(b, l[:len(b)], cfg)


def eliminate_inputs(cfg, rng):
    """(rows, width): dense raw m x c rows, m = 1..6, a fifth of the
    entries zero, with 1 <= width < c; the first ``width`` columns are
    lifted by pi^k, k in 0..2, so the columns past ``width`` may hold lower
    valuations than any the scan reads."""
    zero, power = cfg.raw.zero, cfg.raw.power
    out = []
    for m in range(1, 7):
        for width in range(1, m + 3):
            lift = power(rng.randint(0, 2))
            cols = width + rng.randint(1, 3)
            out.append(([[zero if rng.random() < 0.2 else
                          raw_value(cfg, rng) * (lift if j < width else
                                                 power(0))
                          for j in range(cols)] for _ in range(m)], width))
    return out


@pytest.mark.parametrize("ring", ["padic:2", "padic:3", "tadic"])
def test_eliminate_matches_full_scan(ring):
    # the scan that stops at the previous pivot's valuation against the
    # full scan: the same pivot valuations, pivot columns and rows, and
    # rows left over; a call limited to u pivots gives the first u of them
    cfg = RingConfig.parse_flag(ring)
    _, val, step, _ = _raw_entries(ValuedMatrix.identity(cfg, 1))
    for rows, width in eliminate_inputs(cfg, seeded(4520)):
        want_rows, want_pivots = [list(row) for row in rows], []
        want = full_scan_eliminate(want_rows, width, val, step, want_pivots)
        got_rows, got_pivots = [list(row) for row in rows], []
        assert _eliminate(got_rows, width, val, step, got_pivots) == want
        assert got_pivots == want_pivots and got_rows == want_rows
        for u in range(len(want) + 1):
            got_pivots = []
            assert _eliminate([list(row) for row in rows], width, val, step,
                              got_pivots, limit=u) == want[:u]
            assert got_pivots == want_pivots[:u]
