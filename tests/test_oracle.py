import ast
import hashlib
import re
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from hivekit import (BudgetExceededError, EnumerationBudget, Lattice,
                     RingConfig, Submodule, brute_max_direct_sum,
                     brute_min_direct_sum, enumerate_lr_fillings,
                     lattice_invariants, matrix_norm, max_direct_sum_norm,
                     min_direct_sum_norm, pair_invariant, span_fingerprint,
                     stabilized_value)
from hivekit import build_hive, cli, oracle
from hivekit.cli import InstanceSpec, main, random_pair
from hivekit.matops import INFINITY
from hivekit.oracle import (_coord_bound, _coord_family, _family, _int_det,
                            _int_lattice, _int_norm, _laplace_rows, _min_pval,
                            _pair_norm, _plucker, _selection_floor,
                            _summand_mask)
from hivekit.ring import _int_pval

from conftest import lat, mat, seeded


def budget(m, cap=500_000):
    return EnumerationBudget(exponent_bound=m, count_cap=cap)


def test_span_fingerprint_identifies_spans(p2):
    a = mat(p2, [[2], [1]])
    b = mat(p2, [[6], [3]])  # same span: (6,3) = 3*(2,1), 3 a unit
    c = mat(p2, [[4], [2]])  # strictly smaller span
    assert span_fingerprint(a) == span_fingerprint(b)
    assert span_fingerprint(a) != span_fingerprint(c)
    d = mat(p2, [[1, 0], [0, 1]])
    e = mat(p2, [[1, 1], [1, 2]])  # unimodular: same span as O^2
    assert span_fingerprint(d) == span_fingerprint(e)


def test_brute_min_examples(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    assert brute_min_direct_sum(ident, ident, 1, 1, budget(m=1)).value == 0
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 1]])
    res = brute_min_direct_sum(a, c, 1, 1, budget(m=2))
    assert res.value == 1
    assert res.minimizers  # all minimizing pairs are reported
    for sub_a, sub_c in res.minimizers[:5]:
        concat = sub_a.gens.hstack(sub_c.gens)
        from hivekit import matrix_norm
        assert matrix_norm(concat) == 1
    assert brute_min_direct_sum(a, c, 0, 1, budget(m=1)).value == 0


def test_brute_max_examples(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    assert brute_max_direct_sum(ident, ident, 1, 1, budget(m=1)).value == 0
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 1]])
    assert brute_max_direct_sum(a, c, 1, 1, budget(m=2)).value == 2
    assert brute_max_direct_sum(a, c, 2, 0, budget(m=1)).value == 2  # = |lam|


def _oracle_pair(p, n, seed, max_exp=2, mix_steps=4):
    """The oracle's lattices (Lambda, N, M) for a pair seed."""
    spec = InstanceSpec(n=n, ring=RingConfig.padic(p),
                        exponent_range=(0, max_exp), seed=seed,
                        unimodular_mix_steps=mix_steps)
    n_lat, lam_lat = random_pair(spec)
    m_lat, _ = pair_invariant(n_lat, lam_lat)
    return lam_lat, n_lat, m_lat


def _brute_call(p, n, seed, kind, a, c, m, collect=False):
    """One brute call on the oracle's pair: min on (Lambda, N), max on
    (Lambda, M)."""
    lam_lat, n_lat, m_lat = _oracle_pair(p, n, seed)
    if kind == "min":
        return brute_min_direct_sum(lam_lat, n_lat, a, c, budget(m=m),
                                    collect=collect)
    return brute_max_direct_sum(lam_lat, m_lat, a, c, budget(m=m),
                                collect=collect)


# (p, n, pair seed, kind, a, c, exponent_bound, value),
# recorded with the rational-arithmetic brute routes that preceded the
# integer-only ones
PINNED_BRUTE = [
    (2, 3, 9233, "min", 3, 0, 1, 6),
    (2, 3, 9233, "min", 2, 1, 1, 4),
    (2, 3, 9233, "max", 0, 1, 1, 2),
    (2, 3, 9233, "max", 0, 1, 2, 2),
    (2, 3, 9233, "min", 2, 0, 1, 3),
    (2, 3, 9233, "min", 1, 2, 1, 3),
    (2, 3, 9233, "max", 0, 2, 1, 3),
    (2, 3, 9233, "max", 0, 2, 2, 3),
    (2, 3, 9233, "min", 1, 1, 1, 2),
    (2, 3, 9233, "max", 1, 1, 1, 4),
    (2, 3, 9233, "max", 1, 1, 2, 4),
    (2, 3, 9233, "min", 1, 0, 1, 1),
    (2, 3, 9233, "min", 0, 3, 1, 3),
    (2, 3, 9233, "max", 0, 3, 1, 3),
    (2, 3, 9233, "max", 0, 3, 2, 3),
    (2, 3, 9233, "min", 0, 2, 1, 1),
    (2, 3, 9233, "max", 1, 2, 1, 5),
    (2, 3, 9233, "max", 1, 2, 2, 5),
    (2, 3, 9233, "min", 0, 1, 1, 0),
    (2, 3, 9233, "max", 2, 1, 1, 6),
    (2, 3, 9233, "max", 2, 1, 2, 6),
    (2, 3, 9231, "max", 1, 1, 1, 5),
    (3, 3, 9332, "max", 0, 1, 1, 2),
    (3, 2, 9324, "min", 2, 0, 1, 3),
    (3, 2, 9324, "min", 1, 1, 1, 1),
    (3, 2, 9324, "max", 0, 1, 1, 2),
    (3, 2, 9324, "max", 0, 1, 2, 2),
    (3, 2, 9324, "min", 1, 0, 1, 0),
    (3, 2, 9324, "min", 0, 2, 1, 1),
    (3, 2, 9324, "max", 0, 2, 1, 2),
    (3, 2, 9324, "max", 0, 2, 2, 2),
    (3, 2, 9324, "min", 0, 1, 1, 0),
    (3, 2, 9324, "max", 1, 1, 1, 3),
    (3, 2, 9324, "max", 1, 1, 2, 3),
]


# (p, n, pair seed, kind, a, c, exponent_bound, number of minimizing
# pairs with collect=True) over the families of one span per point of the
# residue Grassmannian; a scan that drops ties reports fewer
PINNED_HITS = [
    (2, 2, 9220, "min", 1, 1, 1, 16),
    (2, 2, 9220, "max", 1, 1, 1, 5),
    (2, 2, 9220, "max", 1, 1, 2, 10),
    (2, 2, 9221, "max", 0, 1, 1, 24),
    (3, 2, 9320, "min", 1, 1, 1, 108),
    (3, 2, 9320, "max", 1, 1, 1, 9),
    (3, 2, 9321, "max", 0, 1, 1, 27),
]


def test_brute_values_pinned():
    for p, n, seed, kind, a, c, m, value in PINNED_BRUTE:
        res = _brute_call(p, n, seed, kind, a, c, m)
        assert res.value == value, (p, n, seed, kind, a, c, m)
    for p, n, seed, kind, a, c, m, count in PINNED_HITS:
        res = _brute_call(p, n, seed, kind, a, c, m, collect=True)
        assert len(res.minimizers) == count, (p, n, seed, kind, a, c, m)


# what the oracle certifies: the Smith route and the optimizer's norm
# kernel, each under its defining module
OPTIMIZER_KERNELS = [("hivekit.lattice", "smith_decompose"),
                     ("hivekit.lattice", "adapted_slice"),
                     ("hivekit.lattice", "lattice_invariants"),
                     ("hivekit.matops", "_pivot_valuations")]


def test_brute_routes_independent_of_optimizer_kernels(monkeypatch):
    # with every optimizer kernel raising, in every hivekit module that
    # holds it, and cold caches, the brute routes still give the pinned
    # values, so a fault in those kernels cannot hide in the oracle too
    pairs = {row[:3]: _oracle_pair(*row[:3]) for row in PINNED_BRUTE}
    oracle._coord_family.cache_clear()
    oracle._image_family.cache_clear()
    for home, name in OPTIMIZER_KERNELS:
        kernel = getattr(sys.modules[home], name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"the oracle called {_name}")

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hivekit":
                for attr, value in list(vars(module).items()):
                    if value is kernel:
                        monkeypatch.setattr(module, attr, refuse)
    # every pinned (kind, a, c), rank-0 sides included, through
    # stabilized_value first, on the coldest caches: its value is the one
    # pinned at the largest bound (for the min, the floor at every bound)
    stabilized = {row[:6]: row[7] for row in PINNED_BRUTE}
    for (p, n, seed, kind, a, c), value in stabilized.items():
        lam_lat, n_lat, m_lat = pairs[p, n, seed]
        other = n_lat if kind == "min" else m_lat
        assert stabilized_value(kind, lam_lat, other, a, c).value == value
    for p, n, seed, kind, a, c, m, value in PINNED_BRUTE:
        lam_lat, n_lat, m_lat = pairs[p, n, seed]
        fn, other = ((brute_min_direct_sum, n_lat) if kind == "min"
                     else (brute_max_direct_sum, m_lat))
        assert fn(lam_lat, other, a, c, budget(m=m),
                  collect=False).value == value


def test_oracle_imports_only_data_types_from_the_optimizer():
    # the import side of the independence above: from the optimizer's
    # modules the oracle takes its data types and nothing that computes
    tree = ast.parse(open(oracle.__file__, encoding="utf-8").read())
    taken = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("hivekit") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "hivekit":
                    continue
                module = module[len("hivekit."):]
            names = {a.name for a in node.names}
            if not module:  # from . import <modules>
                assert not names & {"lattice", "matops"}
            taken.setdefault(module, set()).update(names)
    assert taken["lattice"] == {"Lattice", "Submodule"}
    assert taken["matops"] == {"INFINITY", "ValuedMatrix"}


def test_min_minimizers_lie_in_both_lattices():
    # every collected minimizing pair (X, Y) of an n = 3 entry: X lies in
    # Lambda, Y in N, and norm[X | Y] is the reported minimum
    lam_lat, n_lat, _ = _oracle_pair(2, 3, 9233)
    res = brute_min_direct_sum(lam_lat, n_lat, 1, 1, budget(m=1),
                               collect=True)
    assert res.value == 2 and len(res.minimizers) == 448
    lam_sub, n_sub = Submodule(lam_lat.gens), Submodule(n_lat.gens)
    xs = {id(x): x for x, _ in res.minimizers}
    ys = {id(y): y for _, y in res.minimizers}
    assert all(lam_sub.contains(x) for x in xs.values())
    assert all(n_sub.contains(y) for y in ys.values())
    for x, y in res.minimizers:
        assert matrix_norm(x.gens.hstack(y.gens)) == res.value


@pytest.mark.parametrize("p,n,seed", [(2, 2, 9220), (2, 3, 9233),
                                      (2, 3, 9240)])
def test_collect_modes_agree(p, n, seed):
    # collect=False skips pairs whose bound only ties the best; both modes
    # must report the same value
    for t in range(n + 1):
        for s in range(t + 1):
            a, c = n - t, t - s
            calls = ([("min", a, c)] if a + c else []) + \
                ([("max", s, c)] if c else [])
            for kind, x, y in calls:
                for m in (1, 2):
                    full = _brute_call(p, n, seed, kind, x, y, m, True)
                    fast = _brute_call(p, n, seed, kind, x, y, m, False)
                    assert full.minimizers and not fast.minimizers
                    assert full.value == fast.value


@st.composite
def _column_blocks(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    l = draw(st.integers(1, n - k))
    entry = st.builds(lambda u, e: u * p ** e, st.integers(-9, 9),
                      st.integers(0, 3))
    col = st.lists(entry, min_size=n, max_size=n)
    return (p, n, draw(st.lists(col, min_size=k, max_size=k)),
            draw(st.lists(col, min_size=l, max_size=l)))


@settings(max_examples=300, deadline=None)
@given(_column_blocks())
def test_int_norm_laplace_bound(blocks):
    # the max route's pruning premise: norm[X | Y] >= norm X + norm Y
    p, n, x, y = blocks
    assert _int_norm(x + y, n, p) >= _int_norm(x, n, p) + _int_norm(y, n, p)


@st.composite
def _any_blocks(draw):
    # every block shape a + c <= n, a rank-0 block included; entries with
    # zero columns and repeated columns are drawn as well
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 4))
    a = draw(st.integers(0, n))
    c = draw(st.integers(0, n - a))
    entry = st.builds(lambda u, e: u * p ** e, st.integers(-9, 9),
                      st.integers(0, 3))
    col = st.lists(entry, min_size=n, max_size=n)
    x = draw(st.lists(col, min_size=a, max_size=a))
    y = draw(st.lists(col, min_size=c, max_size=c))
    if a and c and draw(st.booleans()):
        y[0] = x[0]
    return p, n, x, y


def _pl(cols, n):
    return _plucker(cols, n) if cols else (1,)  # the empty minor


@settings(max_examples=400, deadline=None)
@given(_any_blocks())
def test_laplace_rows_match_concatenated_minors(blocks):
    # each expansion row dotted with Y's Plucker vector is the minor of
    # [X | Y] on its row set, so the pair norm is _int_norm of [X | Y],
    # with or without the Laplace floor
    p, n, x, y = blocks
    a, c = len(x), len(y)
    rows = _laplace_rows(_pl(x, n), n, a, c)
    py = _pl(y, n)
    dets = [sum(w[i] * py[i] for i in range(len(py))) for w in rows]
    direct = [_int_det(r) for r in combinations(zip(*(x + y)), a + c)] \
        if a + c else [1]
    assert [d for d in dets if d] == [d for d in direct if d]
    want = _int_norm(x + y, n, p) if a + c else 0
    floor = (_int_norm(x, n, p) if a else 0) + (_int_norm(y, n, p) if c else 0)
    assert _pair_norm(rows, py, p, 0) == want
    if want != float("inf"):
        assert _pair_norm(rows, py, p, floor) == want


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_coordinate_bound_below_every_pair(p, n):
    # the scan's per-X skip: every Y = d B U has norm [X | Y] >= the least
    # norm [X | (d B)_T] over column selections T (Cauchy-Binet), and the
    # bound is reached, since the coordinate spans e_T are in every family
    lam_lat, n_lat, _ = _oracle_pair(p, n, 9000 + 10 * p + n)
    for m in (0, 1):
        for a in range(n + 1):
            for c in range(n - a + 1):
                # the min route's (Lambda, N) and the max route's (A, A)
                for outer_lat, inner_lat in ((lam_lat, n_lat),
                                             (lam_lat, lam_lat)):
                    outer = _family(_int_lattice(outer_lat), a, m, 500_000)
                    inner = _family(_int_lattice(inner_lat), c, m, 500_000)
                    for x in outer.by_span:
                        rows = x.expansion(n, a, c)
                        lb = _coord_bound(rows, inner.coord_pl, p)
                        norms = [_pair_norm(rows, y.pl, p, 0)
                                 for y in inner.by_span]
                        assert min(norms) == lb, (m, a, c, x.index)


# pair seeds of PINNED_BRUTE and a few more, (p, n, seed)
FLOOR_PAIRS = [(2, 3, 9233), (2, 3, 9231), (2, 3, 9234), (2, 3, 9235),
               (3, 2, 9324), (3, 2, 9325), (3, 2, 9326), (3, 3, 9332),
               (3, 3, 9333)]


def _scaled_pairs(a_lat, c_lat, p):
    """(A, C) and (A / p, C / p^2): the second pair has generators with
    denominators, so the scans' offsets (rank * v(d)) are not zero."""
    return [(a_lat, c_lat),
            (Lattice(a_lat.gens.scale(Fraction(1, p))),
             Lattice(c_lat.gens.scale(Fraction(1, p * p))))]


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3) for n in (2, 3, 4)])
def test_image_plucker_vectors_by_cauchy_binet(p, n):
    # an image family takes each image's Plucker vector from its span's
    # through the compound matrix of d B; the reference forms the integer
    # image columns d B U and takes their maximal minors
    lam_lat, _, m_lat = _oracle_pair(p, n, 9000 + 10 * p + n)
    dens = set()
    for a_lat, c_lat in _scaled_pairs(lam_lat, m_lat, p):
        for form in (_int_lattice(a_lat), _int_lattice(c_lat)):
            dens.add(form.d)
            rows = list(zip(*form.cols))
            for m in (0, 1):
                for r in range(1, n + 1):
                    fam = _family(form, r, m, 500_000)
                    spans = _coord_family(n, p, r, m)
                    assert len(fam.by_span) == len(spans)
                    for rec, span in zip(fam.by_span, spans):
                        image = [[sum(x * y for x, y in zip(row, vec))
                                  for row in rows] for vec in span.dom]
                        assert rec.pl == _plucker(image, n), (m, r, rec.index)
                        assert rec.norm == (_int_norm(image, n, p)
                                            - r * form.dv)
    assert max(dens) > 1


@st.composite
def _valued_ints(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    terms = st.tuples(st.integers(-30, 30), st.integers(0, 12))
    return p, [x * p ** k for x, k in draw(st.lists(terms, max_size=6))]


@settings(max_examples=300, deadline=None)
@given(_valued_ints())
@example((2, []))
@example((3, [0, 0, 0]))
@example((5, [0, -250, 0, 75]))
def test_min_pval_is_the_least_entry_valuation(case):
    # the gcd's valuation is the least valuation of a nonzero entry, and
    # INFINITY when there is none; _coord_bound passes a generator
    p, values = case
    want = min((_pval_loop(x, p) for x in values if x), default=INFINITY)
    assert _min_pval(values, p) == want
    assert _min_pval(iter(values), p) == want


@pytest.mark.parametrize("p,n,seed", FLOOR_PAIRS + [(2, 4, 9240)])
def test_minor_floors_match_selection_floor(p, n, seed):
    # an integer form's floors[r] is the one-block Cauchy-Binet floor of
    # its columns at r; floors[n] is their norm
    for lat_ in _oracle_pair(p, n, seed):
        for scaled, _ in _scaled_pairs(lat_, lat_, p):
            form = _int_lattice(scaled)
            assert form.floors == tuple(
                _selection_floor(((form.cols, r),), n, p)
                for r in range(n + 1))
            assert form.floors[n] == _int_norm(form.cols, n, p)


@pytest.mark.parametrize("p,n,seed", FLOOR_PAIRS)
def test_min_floor_equals_enumeration(p, n, seed):
    # stabilized_value("min") returns the Cauchy-Binet floor without
    # enumerating: at every bound the brute minimum must be that value,
    # since the coordinate pair (e_S, e_T) that reaches the floor is in
    # every family
    lam_lat, n_lat, _ = _oracle_pair(p, n, seed)
    for a_lat, c_lat in _scaled_pairs(lam_lat, n_lat, p):
        for m in (0, 1, 2):
            for a in range(n + 1):
                for c in range(n - a + 1):
                    if a + c == 0:
                        continue
                    brute = brute_min_direct_sum(a_lat, c_lat, a, c,
                                                 budget(m=m), collect=False)
                    floor = stabilized_value("min", a_lat, c_lat, a, c,
                                             budget(m=m))
                    assert floor.value == brute.value, (m, a, c)


# (p, n, pair seed, max_exp, mix steps): max calls on which the lift bound
# settles and, on the seeds 600 to 611 pairs, also refuses
LIFT_PAIRS = [(2, 3, 9233, 2, 4), (2, 3, 9231, 2, 4), (3, 2, 9324, 2, 4),
              (3, 3, 9332, 2, 4)] + [(2, 3, seed, 3, 6)
                                     for seed in range(600, 612)]


def test_lift_bound_implies_the_next_round():
    # wherever _lift_settles accepts round M's value, it covers every
    # deeper bound: the enumerations at M + 1 and M + 2 must give that
    # value.  The counts pin the bound's strength, so a looser bound fails
    # too
    settled = refused = 0
    for p, n, seed, max_exp, mix in LIFT_PAIRS:
        lam_lat, _, m_lat = _oracle_pair(p, n, seed, max_exp, mix)
        for a_lat, c_lat in _scaled_pairs(lam_lat, m_lat, p):
            for m in (0, 1):
                for a in range(n + 1):
                    for c in range(n - a + 1):
                        res = brute_max_direct_sum(a_lat, c_lat, a, c,
                                                   budget(m=m), collect=False)
                        if not oracle._lift_settles(
                                _int_lattice(a_lat), _int_lattice(c_lat), a,
                                c, m, 500_000, res.value):
                            refused += 1
                            continue
                        settled += 1
                        for deeper in (m + 1, m + 2):
                            assert brute_max_direct_sum(
                                a_lat, c_lat, a, c, budget(m=deeper),
                                collect=False).value == res.value, \
                                (p, n, seed, m, deeper, a, c)
    assert (settled, refused) == (484, 140)


# (p, n, pair seed, a, c, value at M = 1, value at M = 2): exponents 0..3
# and 6 mix steps, brute_max_direct_sum(Lambda, M, a, c), whose value
# grows from bound 1 to bound 2
LIFT_REFUSALS = [(2, 3, 607, 0, 1, 2, 3), (2, 3, 602, 0, 2, 4, 5),
                 (3, 2, 2025, 1, 1, 5, 6)]


@pytest.mark.parametrize("p,n,seed,a,c,low,high", LIFT_REFUSALS)
def test_lift_bound_refuses_a_growing_value(p, n, seed, a, c, low, high):
    lam_lat, _, m_lat = _oracle_pair(p, n, seed, 3, 6)
    first = brute_max_direct_sum(lam_lat, m_lat, a, c, budget(m=1),
                                 collect=False)
    assert first.value == low
    assert brute_max_direct_sum(lam_lat, m_lat, a, c, budget(m=2),
                                collect=False).value == high
    assert not oracle._lift_settles(_int_lattice(lam_lat),
                                    _int_lattice(m_lat), a, c, 1, 500_000,
                                    low)
    assert stabilized_value("max", lam_lat, m_lat, a, c).value == high


def test_max_rises_after_calm_rounds(p2):
    # the brute max of entries (0, 1), (0, 2) and (1, 3) of this pair sits
    # one below the hive entry at bounds 0 to 2 and reaches it at bound 3,
    # where _lift_settles first accepts: a max that stopped before the lift
    # bound proved it would report the correct hive as failed
    lam_lat = lat(p2, [[16, 0, 0], [0, 4, 0], [0, 0, 2]])
    n_lat = lat(p2, [[2, 0, 1], [0, 1, 0], [0, 0, 1]])
    m_lat, _ = pair_invariant(n_lat, lam_lat)
    hive = build_hive(n_lat, lam_lat, "primary")
    cells = [(0, 1), (0, 2), (1, 3)]
    assert [hive[s, t] for s, t in cells] == [4, 6, 7]
    for m in (0, 1):
        assert [stabilized_value("max", lam_lat, m_lat, s, t - s,
                                 budget(m=m)).value
                for s, t in cells] == [4, 6, 7]
    trial = cli._certify_trial(n_lat, lam_lat, EnumerationBudget())
    assert trial["status"] == "certified"


@pytest.mark.parametrize("p,n,seed", [(2, 3, 9233), (3, 2, 9324),
                                      (3, 3, 9332)])
def test_trial_makes_each_integer_form_once(monkeypatch, p, n, seed):
    # a trial makes the integer forms of Lambda, N and M once and passes
    # them to every stabilized value, which must give the values it gives
    # when it makes them itself
    lam_lat, n_lat, m_lat = _oracle_pair(p, n, seed)
    made = []

    def counted(lattice):
        made.append(lattice)
        return _int_lattice(lattice)

    monkeypatch.setattr(oracle, "_int_lattice", counted)
    monkeypatch.setattr(cli, "_int_lattice", counted)
    trial = cli._certify_trial(n_lat, lam_lat, EnumerationBudget())
    assert trial["status"] == "certified"
    assert len(made) == 3
    monkeypatch.undo()
    for kind, other in (("min", n_lat), ("max", m_lat)):
        forms = (_int_lattice(lam_lat), _int_lattice(other))
        for a in range(n + 1):
            for c in range(n - a + 1):
                assert (stabilized_value(kind, lam_lat, other, a, c,
                                         forms=forms)
                        == stabilized_value(kind, lam_lat, other, a, c)), \
                    (kind, a, c)


@pytest.mark.parametrize("n,p,m", [(3, 2, 1), (2, 3, 2), (3, 3, 1)])
def test_summand_masks_match_int_norm(n, p, m):
    # V + U is a direct summand iff a maximal minor of the joint
    # coordinates is a unit; the mask bits must say exactly that
    cfg = RingConfig.padic(p)
    for c in range(1, n):
        for u in range(1, n - c + 1):
            vs = _coord_family(n, p, c, m)
            us = _coord_family(n, p, u, m)
            for v in vs:
                mask = _summand_mask(v, c, u, us, n, p)
                assert mask == _summand_mask(v, c, u, us, n, p)
                for i, other in enumerate(us):
                    want = _int_norm(v.dom + other.dom, n, p) == 0
                    assert bool(mask >> i & 1) == want, (c, u, i)


def _gaussian_binomial(n, r, q):
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _fingerprint_family(cfg, n, r, m):
    """A reference family: every identity-block matrix with entries below
    p^(M+1), pivot-row sets in combinations order, deduped by exact
    O-span with ``span_fingerprint``; the first of each span is kept with
    the pivot rows it was built on."""
    mod = cfg.p ** (m + 1)
    seen = {}
    for pivot_rows in combinations(range(n), r):
        others = [i for i in range(n) if i not in pivot_rows]
        for assignment in product(range(mod), repeat=len(others) * r):
            rows = [[int(i == pr) for pr in pivot_rows] for i in range(n)]
            it = iter(assignment)
            for i in others:
                rows[i] = [next(it) for _ in range(r)]
            seen.setdefault(span_fingerprint(mat(cfg, rows)),
                            (pivot_rows, rows))
    return list(seen.values())


@pytest.mark.parametrize("p,n,r,m", [
    (p, n, r, m) for p in (2, 3) for n in (2, 3) for r in range(1, n)
    for m in (0, 1)] + [(2, 3, 1, 2), (2, 3, 2, 2)]
    + [(2, 4, r, m) for r in (1, 2, 3) for m in (0, 1)] + [(3, 4, 2, 0)])
def test_saturated_coords_one_span_per_grassmannian_point(p, n, r, m):
    # one span per point of Gr_r((Z/p^(M+1))^n), whose number is
    # p^(M r (n - r)) times the Gaussian binomial [n choose r]_p: the
    # fingerprint-deduped family, in order, cut to the representatives
    # whose identity block sits on the first row set with a unit minor.
    # The family is generated from the Schubert cells directly, so this
    # filter over earlier row sets is the reference it must match.  The
    # count cap counts exactly these spans: a cap of the family's length
    # builds it, one less refuses
    cfg = RingConfig.padic(p)
    family = _coord_family(n, p, r, m)
    assert len(family) == p ** (m * r * (n - r)) * _gaussian_binomial(n, r, p)
    ident = _int_lattice(
        lat(cfg, [[int(i == j) for j in range(n)] for i in range(n)]))
    assert len(_family(ident, r, m, len(family)).by_span) == len(family)
    with pytest.raises(BudgetExceededError,
                       match=f"predicted {len(family)} spans"):
        _family(ident, r, m, len(family) - 1)

    def first_unit_rows(rows):
        return next(rs for rs in combinations(range(n), r)
                    if _int_det([rows[i] for i in rs]) % p)

    want = [rows for pivot_rows, rows in _fingerprint_family(cfg, n, r, m)
            if first_unit_rows(rows) == pivot_rows]
    assert [[list(row) for row in zip(*span.dom)] for span in family] == want


def _pval_loop(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**6, 10**6).filter(bool), st.integers(0, 400))
def test_int_pval_two_matches_division(unit, k):
    x = unit * 2 ** k
    assert _int_pval(x, 2) == _pval_loop(x, 2) == _pval_loop(unit, 2) + k
    assert _int_pval(-x, 2) == _int_pval(x, 2)


def test_oracle_vs_optimizer(p2):
    rng = seeded(47)
    for _ in range(4):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        for t in range(4):
            for s in range(t + 1):
                a, c = 3 - t, t - s
                if a + c:
                    assert (stabilized_value("min", lam_lat, n_lat, a, c).value
                            == min_direct_sum_norm(lam_lat, n_lat, a, c))
                if c:
                    assert (stabilized_value("max", lam_lat, m_lat, s, c).value
                            == max_direct_sum_norm(lam_lat, m_lat, s, c))


def test_oracle_vs_optimizer_odd_p(p3):
    # criterion 4 covers only p=2; odd residue fields must certify too
    p5 = RingConfig.padic(5)
    for ring, count in ((p3, 10), (p5, 3)):
        for seed in range(count):
            spec = InstanceSpec(n=2, ring=ring, exponent_range=(0, 2),
                                seed=seed, unimodular_mix_steps=4)
            n_lat, lam_lat = random_pair(spec)
            m_lat, _ = pair_invariant(n_lat, lam_lat)
            for t in range(3):
                for s in range(t + 1):
                    a, c = 2 - t, t - s
                    if a + c:
                        assert (stabilized_value("min", lam_lat, n_lat, a,
                                                 c).value
                                == min_direct_sum_norm(lam_lat, n_lat, a, c))
                    if c:
                        assert (stabilized_value("max", lam_lat, m_lat, s,
                                                 c).value
                                == max_direct_sum_norm(lam_lat, m_lat, s, c))


def test_duality_certified_by_brute(p2):
    rng = seeded(53)
    for _ in range(3):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=3)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        size = sum(lattice_invariants(lam_lat))
        for t in range(4):
            for s in range(t + 1):
                if t == s and t == 0:
                    continue
                a, c = 3 - t, t - s
                bmin = stabilized_value("min", lam_lat, n_lat, a, c).value \
                    if a + c else 0
                bmax = stabilized_value("max", lam_lat, m_lat, s, c).value \
                    if c else sum(sorted(lattice_invariants(lam_lat),
                                         reverse=True)[:s])
                assert bmin + bmax == size


def test_min_never_meets_the_cap():
    # the min builds no family, so even a cap of one span returns its
    # value: the Cauchy-Binet floor, the enumerated minimum
    lam_lat, n_lat, _ = _oracle_pair(2, 3, 9233)
    for a in range(4):
        for c in range(4 - a):
            res = stabilized_value("min", lam_lat, n_lat, a, c,
                                   budget(m=1, cap=1))
            want = brute_min_direct_sum(lam_lat, n_lat, a, c, budget(m=1),
                                        collect=False)
            assert res.value == want.value


def _enumerated_rounds(kind, a_lat, c_lat, a, c, budget):
    """The stabilization protocol by enumeration: the brute min at bound
    M_0, which gives the floor at every bound
    (``test_min_floor_equals_enumeration``), and the brute max at bounds
    M_0, M_0 + 1, ... until ``_lift_settles`` accepts a round's value."""
    if kind == "min":
        return brute_min_direct_sum(a_lat, c_lat, a, c, budget, collect=False)
    if kind != "max":
        raise KeyError(kind)
    m_bound = budget.exponent_bound
    while True:
        result = brute_max_direct_sum(a_lat, c_lat, a, c,
                                      replace(budget, exponent_bound=m_bound),
                                      collect=False)
        if oracle._lift_settles(_int_lattice(a_lat), _int_lattice(c_lat), a,
                                c, m_bound, budget.count_cap, result.value):
            return result
        m_bound += 1


def _outcome(fn, *args):
    try:
        res = fn(*args)
    except Exception as exc:  # the type and message must agree too
        return type(exc), str(exc)
    return res.value, res.minimizers


def _built_families(monkeypatch, fn, *args):
    """The outcome of fn(*args) and the (rank, bound) of every family it
    asks ``_family`` for, in order."""
    built = []
    family = oracle._family

    def record(form, r, m_bound, count_cap):
        built.append((r, m_bound))
        return family(form, r, m_bound, count_cap)

    monkeypatch.setattr(oracle, "_family", record)
    try:
        return _outcome(fn, *args), built
    finally:
        monkeypatch.setattr(oracle, "_family", family)


# (p, n, pair seed, max_exp, mix steps, budgets as (M_0, count cap)): the
# caps refuse a family of round M_0 (the smaller cap) or of round M_0 + 1;
# at n = 4 the ranks' counts differ, and cap 10 refuses both ranks of
# round M_0 and cap 100 both of round M_0 + 1, so the order shows
PROTOCOL_TRIALS = [
    (2, 3, 9233, 2, 4, [(1, 500_000), (0, 500_000), (1, 20), (1, 100)]),
    (2, 3, 607, 3, 6, [(1, 500_000), (1, 100)]),
    (2, 3, 602, 3, 6, [(1, 500_000), (2, 500_000)]),
    (3, 2, 9324, 2, 4, [(1, 500_000), (0, 500_000), (1, 10), (1, 30)]),
    (3, 3, 9332, 2, 4, [(0, 500_000), (1, 100), (1, 1000)]),
    (2, 4, 9240, 2, 4, [(0, 200), (0, 100), (0, 10)]),
]


@pytest.mark.parametrize("p,n,seed,max_exp,mix,budgets", PROTOCOL_TRIALS)
def test_stabilized_value_matches_four_rounds(monkeypatch, p, n, seed,
                                              max_exp, mix, budgets):
    # the shortcuts change no value, exception type or message: every
    # (kind, a, c) of the pair, rank-0 sides and out-of-range ranks
    # included, against the protocol by enumeration.  Where
    # that protocol meets the cap, stabilized_value meets it only on a
    # family its own route builds: the first one over the cap, each round's
    # in the max route's order (rank n - a - c, then c).  With none over
    # the cap it returns the value of the full budget; so the min, which
    # builds none, never refuses.  The max builds the same families on both
    # sides, so it returns only where the reference returns
    lam_lat, n_lat, m_lat = _oracle_pair(p, n, seed, max_exp, mix)
    calls = [(kind, a, c) for kind in ("min", "max")
             for a in range(n + 1) for c in range(n - a + 1)]
    calls += [("min", n, 1), ("max", -1, 1), ("mean", 1, 1)]
    returned, refused = set(), 0
    for m, cap in budgets:
        for kind, a, c in calls:
            other = n_lat if kind == "min" else m_lat
            args = (kind, lam_lat, other, a, c)
            want = _outcome(_enumerated_rounds, *args, budget(m=m, cap=cap))
            got = _outcome(stabilized_value, *args, budget(m=m, cap=cap))
            if want[0] is not BudgetExceededError or \
                    not want[1].startswith("predicted"):
                assert got == want, (m, cap, kind, a, c)
                continue
            full, built = _built_families(monkeypatch, stabilized_value,
                                          *args, budget(m=m))
            assert full == _outcome(_enumerated_rounds, *args, budget(m=m))
            rounds = sorted({bound for _, bound in built})
            over = [(r, bound) for bound in rounds for r in (n - a - c, c)
                    if len(_coord_family(n, p, r, bound)) > cap]
            if not over:
                returned.add(kind)
                assert got == full, (m, cap, kind, a, c)
                continue
            refused += 1
            r, bound = over[0]
            assert got == (BudgetExceededError, (
                f"predicted {len(_coord_family(n, p, r, bound))} spans "
                f"(rank {r} in O^{n}, entries below {p}^{bound + 1}) "
                f"exceed cap {cap}")), (m, cap, kind, a, c)
    assert returned <= {"min"}
    assert bool(refused) == any(cap < 500_000 for _, cap in budgets)


# ---------------------------------------------------------------------------
# LR enumeration


def test_lr_pieri_example():
    fills = enumerate_lr_fillings((2, 0), (1, 0), (1, 0))
    assert len(fills) == 1
    assert fills[0].counts == ((1,), (0, 0))


def test_lr_empty_content():
    assert len(enumerate_lr_fillings((2, 1), (2, 1), (0, 0))) == 1


def test_lr_small_example():
    assert len(enumerate_lr_fillings((2, 1, 0), (1, 0, 0), (1, 1, 0))) == 1


def test_lr_counts_symmetric():
    cases = [((3, 2, 1), (2, 1, 0), (2, 1, 0)),
             ((4, 2, 1), (2, 1, 0), (3, 1, 0)),
             ((3, 3, 2), (2, 1, 1), (2, 2, 0))]
    for lam, mu, nu in cases:
        assert (len(enumerate_lr_fillings(lam, mu, nu))
                == len(enumerate_lr_fillings(lam, nu, mu)))


def test_lr_known_count():
    # c^{(3,2,1)}_{(2,1),(2,1)} = 2, the classic example
    assert len(enumerate_lr_fillings((3, 2, 1), (2, 1, 0), (2, 1, 0))) == 2


def test_lr_fillings_all_validate():
    from hivekit import validate_lr
    for f in enumerate_lr_fillings((4, 2, 1), (2, 1, 0), (3, 1, 0)):
        assert validate_lr(f).ok


def test_lr_malformed_triples_rejected():
    with pytest.raises(ValueError):
        enumerate_lr_fillings((1, 2), (0, 0), (3, 0))  # not a partition
    with pytest.raises(ValueError):
        enumerate_lr_fillings((2, 0), (3, 0), (1, 0))  # mu not inside lambda
    with pytest.raises(ValueError):
        enumerate_lr_fillings((2, 0), (1, 0), (2, 0))  # size mismatch


def test_realizability_of_pair_types(p2):
    rng = seeded(59)
    for _ in range(6):
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        _, mu = pair_invariant(n_lat, lam_lat)
        nu = lattice_invariants(n_lat)
        lam = lattice_invariants(lam_lat)
        assert len(enumerate_lr_fillings(lam, mu, nu)) >= 1


def test_amalgam_nested_minimizers(p2):
    # Lemma "amalgam": for t <= t', minimizing pairs exist whose C-side
    # submodules are nested, the smaller spanned by the bottom slice of the
    # larger's adapted basis
    a = lat(p2, [[4, 0], [0, 1]])
    c = lat(p2, [[2, 0], [0, 2]])
    small = brute_min_direct_sum(a, c, 1, 1, budget(m=2))
    large = brute_min_direct_sum(a, c, 0, 2, budget(m=2))
    assert _has_nested_chain(small, large)


def _has_nested_chain(small, large):
    for _, c_big in large.minimizers:
        if c_big is None:
            continue
        big_inv = c_big.invariants
        for _, c_small in small.minimizers:
            if c_small is None:
                continue
            t = c_small.rank
            if (c_big.contains(c_small)
                    and c_small.invariants == big_inv[c_big.rank - t:]):
                return True
    return False


def test_coords_cap_holds_on_warm_cache(p2):
    # a warm cache entry must not lift the count cap: the rank-1 family of
    # O^3 at M = 1 holds 28 spans, one per point of P^2(Z/4), and is
    # refused at cap 10 once built
    a = lat(p2, [[4, 0, 0], [0, 2, 0], [0, 0, 1]])
    c = lat(p2, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    form = _int_lattice(a)
    warm = _family(form, 1, 1, 500_000)
    assert len(warm.by_span) == len(_coord_family(3, 2, 1, 1)) == 28
    assert _family(form, 1, 1, 28) is warm
    with pytest.raises(BudgetExceededError, match=re.escape(
            "predicted 28 spans (rank 1 in O^3, entries below 2^2) exceed "
            "cap 10")):
        _family(form, 1, 1, 10)
    # nor can a warm per-lattice entry: both brute routes on a pair whose
    # image families are cached
    for fn in (brute_min_direct_sum, brute_max_direct_sum):
        fn(a, c, 1, 1, budget(m=1))
        with pytest.raises(BudgetExceededError, match="predicted 28 spans"):
            fn(a, c, 1, 1, budget(m=1, cap=10))
    # each route meets the cap in its own order: the min at A's rank a
    # first, the max at the rank n - a - c family first
    with pytest.raises(BudgetExceededError, match=r"\(rank 1 in"):
        brute_min_direct_sum(a, c, 1, 2, budget(m=1, cap=10))
    with pytest.raises(BudgetExceededError, match=r"\(rank 2 in"):
        brute_max_direct_sum(a, c, 0, 1, budget(m=1, cap=10))


# (p, n, pair seed, kind, a, c, exponent_bound): calls whose value and
# minimizer count must not depend on the image cache's state
HISTORY_CALLS = [(2, 2, 9220, "min", 1, 1, 1), (2, 2, 9220, "max", 1, 1, 2),
                 (2, 3, 9233, "max", 1, 1, 2), (3, 2, 9320, "min", 1, 1, 1)]


@pytest.mark.parametrize("call", HISTORY_CALLS)
def test_brute_result_ignores_call_history(call):
    images = oracle._image_family
    images.cache_clear()

    def summary():
        res = _brute_call(*call, collect=True)
        return res.value, len(res.minimizers)

    cold = summary()
    misses = images.cache_info().misses
    assert misses and summary() == cold  # warm
    assert images.cache_info().misses == misses  # served from the cache
    p, n = call[:2]
    seed = 0
    while images.cache_info().misses < misses + images.cache_info().maxsize:
        for kind in ("min", "max"):
            _brute_call(p, n, seed, kind, 1, 1, call[-1])
        assert images.cache_info().currsize <= images.cache_info().maxsize
        seed += 1
        assert seed < 100
    misses = images.cache_info().misses
    assert summary() == cold  # evicted, then rebuilt
    assert images.cache_info().misses > misses


# sha256 of the ``hivekit oracle`` stdout, as ``_emit`` writes it (indent
# 2, one trailing newline).  With the top-level "ring" key dropped, each
# gives back the JSON pinned before the payload named its ring
ORACLE_DIGESTS = [
    ("--ring padic:2 --n 3 --trials 4 --seed 11 --max-exp 2",
     "6625985c997cc47fa225255cd09752605bbe4ff363ef6763eb43b99cf9387da2"),
    ("--ring padic:2 --n 2 --trials 10 --seed 100",
     "0beb82b301d60e6de9ca1986aed5347c102f501c176456f12e2e4de135fff998"),
    ("--ring padic:3 --n 2 --trials 10 --seed 200",
     "de02338de5b21a86d9631f67d385669b38f233361fa83cd605040bfeeb1ef47d"),
    ("--ring padic:3 --n 3 --trials 3 --seed 5 --max-exp 2",
     "ae05dd050d29a12ab909c6fa60da86d70f0f80be9770e27fcd0d3d662c7e8b7d"),
]


@pytest.mark.parametrize("args,digest", ORACLE_DIGESTS)
def test_oracle_payload_pinned(capsys, args, digest):
    assert main(["oracle", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
