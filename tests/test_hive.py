import json
from itertools import accumulate

import pytest

from hypothesis import given, settings, strategies as st

from hivekit import hive as hive_module
from hivekit import (DualityError, Hive, Lattice, LRFilling, RingConfig,
                     RingElement, build_hive, check_rhombus,
                     hive_to_lr_filling, hive_type, lattice_invariants,
                     pair_invariant, render, validate_lr)
from hivekit.hive import NotAHiveError, _witness_chains
from hivekit.lattice import _min_selections, _witness_values
from hivekit.matops import (_quotient_valuations, _raw_entries, _swap_form,
                            smith_decompose)
from hivekit.cli import InstanceSpec, random_pair

from conftest import inverse, lat, seeded
from minor_table import minor_norms, selection_min

PAPER_ROWS = [[0], [21, 27], [34, 44, 48], [40, 54, 64, 67],
              [41, 58, 72, 81, 83]]


@pytest.fixture(scope="module")
def paper_hive():
    return Hive(PAPER_ROWS)


def test_paper_hive_is_a_hive(paper_hive):
    report = check_rhombus(paper_hive)
    assert report.ok and report.violations == ()


def test_paper_hive_type(paper_hive):
    typ = hive_type(paper_hive)
    assert typ.mu == (21, 13, 6, 1)
    assert typ.nu == (17, 14, 9, 2)
    assert typ.lam == (27, 21, 19, 16)


def test_mutated_paper_hive(paper_hive):
    rows = [list(r) for r in PAPER_ROWS]
    rows[2][1] = 30
    bad = Hive(rows)
    report = check_rhombus(bad)
    assert not report.ok
    hit = [v for v in report.violations
           if v.family == "right" and (v.i, v.j) == (1, 2)]
    assert hit and hit[0].lhs == 30 + 21 and hit[0].rhs == 34 + 27
    with pytest.raises(NotAHiveError) as err:
        hive_type(bad)
    assert err.value.report.violations


def test_zero_hive(p2):
    zero = Hive([[0], [0, 0], [0, 0, 0]])
    assert check_rhombus(zero).ok
    typ = hive_type(zero)
    assert typ.mu == typ.nu == typ.lam == (0, 0)


def test_hive_normalization_enforced():
    with pytest.raises(ValueError, match="h00"):
        Hive([[1], [2, 3]])
    with pytest.raises(ValueError):
        Hive([[0], [1, 2, 3]])


def test_build_hive_identity(p2):
    ident = lat(p2, [[1, 0], [0, 1]])
    h = build_hive(ident, ident)
    assert h.rows == ((0,), (0, 0), (0, 0, 0))


def test_build_hive_examples(p2):
    n = lat(p2, [[2, 0], [0, 1]])
    l = lat(p2, [[4, 0], [0, 1]])
    h = build_hive(n, l, "primary")
    assert h.rows == ((0,), (1, 2), (1, 2, 2))
    typ = hive_type(h)
    assert (typ.mu, typ.nu, typ.lam) == ((1, 0), (1, 0), (2, 0))

    n = lat(p2, [[2, 0], [2, 1]])
    l = lat(p2, [[2, 0], [2, 2]])
    h = build_hive(n, l, "primary")
    assert h.rows == ((0,), (1, 1), (1, 2, 2))
    typ = hive_type(h)
    assert (typ.mu, typ.nu, typ.lam) == ((1, 0), (1, 0), (1, 1))
    hs = build_hive(n, l, "swapped")
    typs = hive_type(hs)
    assert (typs.mu, typs.nu, typs.lam) == ((1, 0), (1, 0), (1, 1))


def test_build_hive_type_claim_randomized(p2):
    rng = seeded(43)
    for _ in range(10):
        n_dim = rng.choice([2, 3])
        spec = InstanceSpec(n=n_dim, ring=p2, exponent_range=(0, 2),
                            seed=rng.randrange(10**6), unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, mu = pair_invariant(n_lat, lam_lat)
        nu = lattice_invariants(n_lat)
        lam = lattice_invariants(lam_lat)
        h = build_hive(n_lat, lam_lat, "primary")
        assert check_rhombus(h).ok
        typ = hive_type(h)
        assert (typ.mu, typ.nu, typ.lam) == (mu, nu, lam)
        assert h[(n_dim, n_dim)] == sum(lam)
        assert sum(mu) + sum(nu) == sum(lam)
        hs = build_hive(n_lat, lam_lat, "swapped")
        typs = hive_type(hs)
        assert (typs.mu, typs.nu, typs.lam) == (nu, mu, lam)


def _check_both_variants(n_lat, lam_lat):
    _, mu = pair_invariant(n_lat, lam_lat)
    nu = lattice_invariants(n_lat)
    lam = lattice_invariants(lam_lat)
    for variant, want in (("primary", (mu, nu, lam)),
                          ("swapped", (nu, mu, lam))):
        h = build_hive(n_lat, lam_lat, variant)
        assert check_rhombus(h).ok
        typ = hive_type(h)
        assert (typ.mu, typ.nu, typ.lam) == want


def test_build_hive_tadic_n2(tadic):
    for seed in (0, 1):
        spec = InstanceSpec(n=2, ring=tadic, exponent_range=(0, 3),
                            seed=seed, unimodular_mix_steps=4)
        _check_both_variants(*random_pair(spec))


def test_build_hive_p3_n3(p3):
    for seed in (0, 1):
        spec = InstanceSpec(n=3, ring=p3, exponent_range=(0, 3),
                            seed=seed, unimodular_mix_steps=4)
        _check_both_variants(*random_pair(spec))


@pytest.mark.parametrize("ring", ["padic:2", "padic:3"])
def test_build_hive_n6(ring):
    # entry growth of the fraction-free kernel beyond the benchmark's n=4
    spec = InstanceSpec(n=6, ring=RingConfig.parse_flag(ring),
                        exponent_range=(0, 3), seed=501,
                        unimodular_mix_steps=4)
    _check_both_variants(*random_pair(spec))


# (ring, n, exponent range, mix steps, seed, primary rows, swapped rows),
# recorded from build_hive before it read its entries from one minor table
PINNED_HIVES = [
    ('padic:2', 4, (0, 4), 6, 500,
     ((0,), (2, 6), (4, 8, 12), (6, 10, 14, 17), (8, 12, 16, 19, 22)),
     ((0,), (4, 6), (8, 10, 12), (11, 13, 15, 17), (14, 16, 18, 20, 22))),
    ('padic:2', 4, (0, 4), 6, 501,
     ((0,), (4, 6), (5, 7, 9), (6, 8, 10, 11), (6, 8, 10, 12, 13)),
     ((0,), (2, 6), (4, 8, 9), (6, 10, 11, 11), (7, 11, 12, 13, 13))),
    ('padic:2', 4, (0, 4), 6, 502,
     ((0,), (2, 6), (4, 8, 10), (5, 9, 11, 12), (5, 9, 11, 13, 14)),
     ((0,), (4, 6), (6, 8, 10), (8, 10, 12, 12), (9, 11, 13, 14, 14))),
    ('padic:3', 3, (0, 3), 4, 500,
     ((0,), (3, 6), (6, 9, 11), (7, 10, 13, 15)),
     ((0,), (3, 6), (6, 9, 11), (8, 11, 14, 15))),
    ('padic:3', 3, (0, 3), 4, 501,
     ((0,), (1, 3), (2, 4, 6), (2, 4, 6, 7)),
     ((0,), (2, 3), (4, 5, 6), (5, 6, 7, 7))),
    ('tadic', 2, (0, 3), 4, 500,
     ((0,), (3, 6), (6, 9, 12)),
     ((0,), (3, 6), (6, 9, 12))),
    ('tadic', 2, (0, 3), 4, 501,
     ((0,), (1, 3), (1, 3, 5)),
     ((0,), (2, 3), (4, 5, 5))),
    ('padic:2', 5, (0, 3), 4, 500,
     ((0,), (3, 6), (6, 9, 12), (9, 12, 15, 17), (12, 15, 18, 20, 21),
      (13, 16, 19, 22, 24, 25)),
     ((0,), (3, 6), (6, 9, 12), (9, 12, 15, 17), (11, 14, 17, 20, 21),
      (12, 15, 18, 21, 24, 25))),
    # recorded from build_hive while it still read the minor table
    ('padic:2', 8, (0, 3), 4, 501,
     ((0,), (3, 5), (6, 8, 10), (9, 11, 13, 15), (12, 14, 16, 18, 19),
      (15, 17, 19, 21, 22, 23), (16, 18, 20, 22, 24, 25, 26),
      (17, 19, 21, 23, 25, 27, 28, 29), (17, 19, 21, 23, 25, 27, 29, 30, 31)),
     ((0,), (2, 5), (4, 7, 10), (6, 9, 12, 15), (8, 11, 14, 17, 19),
      (10, 13, 16, 19, 21, 23), (12, 15, 18, 21, 23, 25, 26),
      (13, 16, 19, 22, 25, 27, 28, 29), (14, 17, 20, 23, 26, 29, 30, 31, 31))),
    ('padic:3', 8, (0, 3), 4, 502,
     ((0,), (3, 5), (6, 8, 9), (8, 10, 12, 13), (9, 12, 14, 15, 16),
      (10, 13, 15, 17, 18, 19), (10, 13, 16, 18, 19, 20, 21),
      (10, 13, 16, 18, 20, 21, 22, 22), (10, 13, 16, 18, 20, 21, 22, 22, 22)),
     ((0,), (3, 5), (6, 8, 9), (8, 11, 12, 13), (10, 13, 15, 16, 16),
      (11, 14, 17, 18, 19, 19), (12, 15, 18, 20, 21, 21, 21),
      (12, 15, 18, 20, 21, 22, 22, 22), (12, 15, 18, 20, 21, 22, 22, 22, 22))),
]


@pytest.mark.parametrize("ring,n,exps,mix,seed,primary,swapped", PINNED_HIVES)
def test_build_hive_rows_pinned(ring, n, exps, mix, seed, primary, swapped):
    spec = InstanceSpec(n=n, ring=RingConfig.parse_flag(ring),
                        exponent_range=exps, seed=seed,
                        unimodular_mix_steps=mix)
    n_lat, lam_lat = random_pair(spec)
    assert build_hive(n_lat, lam_lat, "primary").rows == primary
    assert build_hive(n_lat, lam_lat, "swapped").rows == swapped


@pytest.mark.parametrize("ring,n",
                         [(ring, n) for ring in ("padic:2", "padic:3")
                          for n in range(2, 6)]
                         + [("tadic", n) for n in range(2, 5)]
                         + [("padic:2", 12)])
def test_swapped_hive_matches_inverse_route(ring, n):
    # the adjugate swap against the inverse route it replaced: the swapped
    # hive is the primary hive of (M^T, Lambda^T), M = N^-1 Lambda from
    # pair_invariant.  Exponents -2..3 make the raw form's shift and
    # v(det N_r) = |nu| + n * shift nonzero
    spec = InstanceSpec(n=n, ring=RingConfig.parse_flag(ring),
                        exponent_range=(-2, 3), seed=1,
                        unimodular_mix_steps=4)
    n_lat, lam_lat = random_pair(spec)
    *_, shift = _raw_entries(lam_lat.gens, n_lat.gens)
    assert shift and sum(lattice_invariants(n_lat)) + n * shift
    m_lat, _ = pair_invariant(n_lat, lam_lat)
    want = build_hive(Lattice(m_lat.gens.transpose()),
                      Lattice(lam_lat.gens.transpose()), "primary")
    assert build_hive(n_lat, lam_lat, "swapped") == want


@pytest.mark.parametrize("variant", ["primary", "swapped"])
@pytest.mark.parametrize("ring,n", [("padic:2", 4), ("padic:3", 3),
                                    ("tadic", 3)])
def test_build_hive_makes_no_ring_element_arithmetic(monkeypatch, ring, n,
                                                     variant):
    # after input validation build_hive runs on raw integers or integer
    # polynomials only: with every RingElement operator raising it must
    # still give the same hive
    spec = InstanceSpec(n=n, ring=RingConfig.parse_flag(ring),
                        exponent_range=(-2, 3), seed=3,
                        unimodular_mix_steps=4)
    n_lat, lam_lat = random_pair(spec)
    want = build_hive(n_lat, lam_lat, variant)

    def forbidden(*args):
        raise AssertionError("RingElement arithmetic in build_hive")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(RingElement, op, forbidden, raising=False)
    entry = n_lat.gens[0, 0]
    with pytest.raises(AssertionError):
        entry * entry
    assert build_hive(n_lat, lam_lat, variant) == want


@settings(max_examples=40, deadline=None)
@given(ring=st.sampled_from(["padic:2", "padic:3", "tadic"]),
       n=st.integers(2, 3), hi=st.integers(0, 3), mix=st.integers(0, 4),
       seed=st.integers(0, 10**6))
def test_build_hive_properties(ring, n, hi, mix, seed):
    cfg = RingConfig.parse_flag(ring)
    if cfg.kind == RingConfig.TADIC:
        n = min(n, 2)
    spec = InstanceSpec(n=n, ring=cfg, exponent_range=(0, hi), seed=seed,
                        unimodular_mix_steps=mix)
    _check_both_variants(*random_pair(spec))


def test_duality_error_formatting():
    err = DualityError(1, 2, 5, 4, "swapped", (0, 2))
    assert str(err) == ("duality check failed at (1,2) of the swapped hive: "
                        "min route 5, witness 4 on columns jw=(0, 2)")
    assert err.min_value == 5 and err.max_value == 4
    assert err.variant == "swapped" and err.jw == (0, 2)


@pytest.mark.parametrize("variant", ["primary", "swapped"])
@pytest.mark.parametrize("s,t", [(0, 1), (1, 3), (0, 3)])
def test_witness_ignores_minor_table(monkeypatch, p2, variant, s, t):
    # a min route that undershoots by 1 at (s,t) must be caught there: the
    # witness value is computed from the matrices, not from the min
    # route's values (which once came from a table of minors)
    spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 3), seed=7,
                        unimodular_mix_steps=4)
    n_lat, lam_lat = random_pair(spec)
    build_hive(n_lat, lam_lat, variant)  # consistent before the patch

    def undershooting(form):
        lam, best = _min_selections(form)
        n = len(lam)
        value, jw = best[n - t, t - s]
        best[n - t, t - s] = (value - 1, jw)
        return lam, best

    monkeypatch.setattr(hive_module, "_min_selections", undershooting)
    with pytest.raises(DualityError) as err:
        build_hive(n_lat, lam_lat, variant)
    assert (err.value.s, err.value.t, err.value.variant) == (s, t, variant)
    assert err.value.min_value == err.value.max_value + 1


@pytest.mark.parametrize("ring,n", [("padic:2", 2), ("padic:2", 3),
                                    ("padic:2", 4), ("padic:3", 2),
                                    ("padic:3", 3), ("padic:3", 4),
                                    ("tadic", 2), ("tadic", 3)])
def test_witness_value_matches_smith_route(ring, n):
    # _witness_values on the raw kernel against smith_decompose diagonals
    # on RingElements, at every (s,t) with the minor table's first
    # minimizing columns, for the pairs of both variants; negative
    # exponents give the p-adic raw form a nonzero shift (1 or 2 on every
    # p-adic case here)
    cfg = RingConfig.parse_flag(ring)
    spec = InstanceSpec(n=n, ring=cfg, exponent_range=(-2, 2), seed=11,
                        unimodular_mix_steps=4)
    n_lat, lam_lat = random_pair(spec)
    m_lat, _ = pair_invariant(n_lat, lam_lat)

    def smith_sum(a, count=None):
        return sum(sorted(smith_decompose(a).diagonal_valuations)[:count])

    for lam, n_gens in ((lam_lat.gens, n_lat.gens),
                        (lam_lat.gens.transpose(), m_lat.gens.transpose())):
        size = smith_sum(lam)
        form = _raw_entries(lam, n_gens)
        norms = minor_norms(form)
        for t in range(1, n + 1):
            for s in range(t):
                _, (_, jw) = selection_min(norms, n, n - t, t - s)
                n_jw = n_gens.select_columns(jw)
                u = n - t
                want = size - smith_sum(n_jw)
                if u:
                    p_inv = inverse(smith_decompose(n_jw).p)
                    want -= smith_sum((p_inv @ lam).bottom_rows(n - len(jw)),
                                      u)
                [values] = _witness_values(form, [(jw, u)], size)
                assert values[u] == want, (s, t)


def one_set_witness(form, jw, u, size):
    """``_witness_values`` of one set by the route before chains: one
    ``_quotient_valuations`` on [N_jw | Lambda] alone, and the u smallest
    of its quotient pivots, sorted."""
    (lam_rows, n_rows), val, step, shift = form
    n_jw = [[row[j] for j in jw] for row in n_rows]
    jw_vals, quot = _quotient_valuations(n_jw, lam_rows, val, step)
    top = size - sum(jw_vals) + len(jw) * shift
    return [top - q + r * shift
            for r, q in enumerate(accumulate(sorted(quot)[:u], initial=0))]


@pytest.mark.parametrize("ring,n,mix",
                         [("padic:2", n, 4) for n in range(1, 7)]
                         + [("padic:3", n, 4) for n in range(1, 6)]
                         + [("tadic", n, 4) for n in range(1, 5)]
                         + [("tadic", 4, 30)])
def test_chain_witness_matches_one_set_route(ring, n, mix):
    # at every entry of both variants: the chains cover each distinct jw
    # once, at its largest u = n - t, each set containing the one before,
    # and one elimination per chain gives each set's values at every rank
    # 0..u, as the set's own quotient elimination does; at n >= 4 some
    # pair's sets form 3 or more chains
    cfg = RingConfig.parse_flag(ring)
    most = 0
    for seed in range(4):
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=(-1, 3), seed=seed,
                            unimodular_mix_steps=mix)
        n_lat, lam_lat = random_pair(spec)
        primary = _raw_entries(lam_lat.gens, n_lat.gens)
        for form in (primary, _swap_form(primary, cfg)):
            lam, best = _min_selections(form)
            size = sum(lam)
            largest = {}
            for t in range(1, n + 1):
                for s in range(t):
                    jw = best[n - t, t - s][1]
                    largest[jw] = max(largest.get(jw, 0), n - t)
            chains = _witness_chains(best, n)
            links = [link for chain in chains for link in chain]
            assert sorted(links) == sorted(largest.items())
            for chain in chains:
                assert all(set(a).issubset(b)
                           for (a, _), (b, _) in zip(chain, chain[1:]))
                for (jw, u), values in zip(chain, _witness_values(form, chain,
                                                                  size)):
                    assert values == one_set_witness(form, jw, u, size), \
                        (seed, jw)
            most = max(most, len(chains))
    assert most >= (3 if n >= 4 else 1)


# ---------------------------------------------------------------------------
# LR fillings


def test_paper_filling_counts(paper_hive):
    f = hive_to_lr_filling(paper_hive)
    assert f.counts == ((6,), (4, 4), (4, 6, 3), (3, 4, 6, 2))
    assert f.inner == (21, 13, 6, 1)
    assert f.content == (17, 14, 9, 2)
    assert f.shape == (27, 21, 19, 16)
    # shape check from the spec: mu_4 + 15 = 16 = lambda_4
    assert f.inner[3] + sum(f.counts[3]) == 16 == f.shape[3]
    verdict = validate_lr(f)
    assert verdict.ok and not verdict.problems


def test_zero_hive_filling():
    f = hive_to_lr_filling(Hive([[0], [0, 0], [0, 0, 0]]))
    assert all(c == 0 for row in f.counts for c in row)
    assert validate_lr(f).ok


def test_derived_filling(p2):
    h = Hive([[0], [1, 2], [1, 2, 2]])
    f = hive_to_lr_filling(h)
    assert f.counts == ((1,), (0, 0))
    assert validate_lr(f).ok


def test_validate_lr_rejects_column_violation():
    # one box above another filled with the same letter 1
    bad = LRFilling(shape=(1, 1), inner=(0, 0), content=(2, 0),
                    counts=((1,), (1, 0)))
    verdict = validate_lr(bad)
    assert not verdict.ok
    assert "column" in verdict.problems[0]


def test_validate_lr_rejects_ballot_violation():
    # letter 2 appears before any letter 1 in the reading word
    bad = LRFilling(shape=(1, 1), inner=(1, 0), content=(0, 1),
                    counts=((0,), (0, 1)))
    verdict = validate_lr(bad)
    assert not verdict.ok
    assert "ballot" in verdict.problems[0]


def test_counts_nonnegative_iff_right_leaning():
    # mutate the paper hive: a right-leaning violation must show up as a
    # negative count, and a right-leaning-clean array keeps counts >= 0
    rows = [list(r) for r in PAPER_ROWS]
    rows[2][1] = 30  # breaks right-leaning at (1,2)
    h = Hive(rows)
    report = check_rhombus(h)
    assert any(v.family == "right" for v in report.violations)
    typ_free_counts = []
    for k in range(1, h.n + 1):
        for i in range(1, k + 1):
            first = h[(i, k)] - h[(i - 1, k)]
            second = h[(i, k - 1)] - h[(i - 1, k - 1)] if i <= k - 1 else 0
            typ_free_counts.append(first - second)
    assert min(typ_free_counts) < 0

    rows = [list(r) for r in PAPER_ROWS]
    rows[1][1] = 24  # breaks a left-leaning inequality but no right-leaning
    h2 = Hive(rows)
    report2 = check_rhombus(h2)
    assert not report2.ok
    assert all(v.family != "right" for v in report2.violations)
    counts2 = []
    for k in range(1, h2.n + 1):
        for i in range(1, k + 1):
            first = h2[(i, k)] - h2[(i - 1, k)]
            second = h2[(i, k - 1)] - h2[(i - 1, k - 1)] if i <= k - 1 else 0
            counts2.append(first - second)
    assert min(counts2) >= 0


def test_filling_json_round_trip(paper_hive):
    f = hive_to_lr_filling(paper_hive)
    assert LRFilling.from_json(json.loads(json.dumps(f.to_json()))) == f


# ---------------------------------------------------------------------------
# rendering


def test_render_ascii_zero():
    text = render(Hive([[0], [0, 0]]), "ascii")
    lines = text.split("\n")
    assert lines[0].strip() == "0"
    assert lines[1] == "0 0"


def test_render_ascii_paper(paper_hive):
    text = render(paper_hive, "ascii")
    assert text.split("\n")[-1] == "41 58 72 81 83"


def test_render_json_round_trip(paper_hive):
    blob = render(paper_hive, "json")
    assert Hive.from_json(json.loads(blob)) == paper_hive


def test_render_svg_deterministic(paper_hive):
    a = render(paper_hive, "svg")
    b = render(paper_hive, "svg")
    assert a == b
    assert a.startswith("<svg") and a.endswith("</svg>")
    assert ">83<" in a


def test_render_unknown_format(paper_hive):
    with pytest.raises(ValueError):
        render(paper_hive, "png")
