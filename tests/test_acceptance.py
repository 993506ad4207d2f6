"""End-to-end acceptance: the worked size-4 example plus property ensembles
at fixed scales.  Each criterion asserts exactly (no tolerances) and reports
one pass/fail line in the terminal summary."""

import time

from hivekit import (Hive, build_hive, check_rhombus, enumerate_lr_fillings,
                     hive_to_lr_filling, hive_type, lattice_invariants,
                     matrix_norm, max_direct_sum_norm, min_direct_sum_norm,
                     greedy_slice_first_min, pair_invariant, smith_decompose,
                     stabilized_value, unimodular_check, validate_lr)
from hivekit.cli import InstanceSpec, random_pair

from conftest import (brute_minor_norm, lat, mat, random_padic_matrix,
                      random_tadic_matrix, record_criterion, seeded)

PAPER_ROWS = [[0], [21, 27], [34, 44, 48], [40, 54, 64, 67],
              [41, 58, 72, 81, 83]]


def test_criterion_1_paper_example():
    hive = Hive(PAPER_ROWS)
    ok = check_rhombus(hive).ok
    typ = hive_type(hive)
    ok = ok and typ.mu == (21, 13, 6, 1) and typ.nu == (17, 14, 9, 2) \
        and typ.lam == (27, 21, 19, 16)
    # warm up, then time the checks
    best = min(_timed(hive) for _ in range(5))
    ok = ok and best < 0.001
    record_criterion(1, "paper example fidelity", ok)


def _timed(hive):
    start = time.perf_counter()
    check_rhombus(hive)
    hive_type(hive)
    return time.perf_counter() - start


def test_criterion_2_and_3_type_claim_and_duality(p2):
    plan = [(2, 200), (3, 200), (4, 100)]
    ok = True
    duality_fired = False
    count = 0
    for n, trials in plan:
        for i in range(trials):
            spec = InstanceSpec(n=n, ring=p2, exponent_range=(0, 4),
                                seed=20_000 + 97 * n + i,
                                unimodular_mix_steps=6)
            n_lat, lam_lat = random_pair(spec)
            _, mu = pair_invariant(n_lat, lam_lat)
            nu = lattice_invariants(n_lat)
            lam = lattice_invariants(lam_lat)
            try:
                hive = build_hive(n_lat, lam_lat, "primary")
                swapped = build_hive(n_lat, lam_lat, "swapped")
            except Exception:
                duality_fired = True
                ok = False
                break
            if not check_rhombus(hive).ok or not check_rhombus(swapped).ok:
                ok = False
            typ = hive_type(hive)
            if (typ.mu, typ.nu, typ.lam) != (mu, nu, lam):
                ok = False
            typs = hive_type(swapped)
            if (typs.mu, typs.nu, typs.lam) != (nu, mu, lam):
                ok = False
            count += 1
        if not ok:
            break
    record_criterion(2, f"theorem type claim on {count} pairs", ok)
    record_criterion(3, "min/max duality at every entry", not duality_fired)


def test_criterion_4_oracle_equivalence(p2):
    ok = True
    pairs = 0
    for i in range(100):
        n = 2 if i % 2 else 3
        spec = InstanceSpec(n=n, ring=p2, exponent_range=(0, 2),
                            seed=40_000 + i, unimodular_mix_steps=4)
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        for t in range(n + 1):
            for s in range(t + 1):
                a, c = n - t, t - s
                if a + c:
                    opt = min_direct_sum_norm(lam_lat, n_lat, a, c)
                    if stabilized_value("min", lam_lat, n_lat, a, c).value != opt:
                        ok = False
                if c:
                    opt = max_direct_sum_norm(lam_lat, m_lat, s, c)
                    if stabilized_value("max", lam_lat, m_lat, s, c).value != opt:
                        ok = False
        pairs += 1
        if not ok:
            break
    # the regression instance, with the logged greedy diagnostic
    a_lat = lat(p2, [[4, 0], [0, 1]])
    c_lat = lat(p2, [[2, 0], [0, 1]])
    ok = ok and min_direct_sum_norm(a_lat, c_lat, 1, 1) == 1
    ok = ok and greedy_slice_first_min(a_lat, c_lat, 1, 1, first="C") == 2
    record_criterion(4, f"oracle equivalence on {pairs} pairs + regression", ok)


def test_criterion_5_additivity(p2):
    ok = True
    instances = 0
    rng = seeded(71)
    i = 0
    while instances < 1000:
        spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 3),
                            seed=50_000 + i, unimodular_mix_steps=4)
        i += 1
        n_lat, lam_lat = random_pair(spec)
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        for _ in range(4):
            t = rng.randint(1, 3)
            u = mat(p2, [[rng.randint(0, 7) for _ in range(t)]
                         for _ in range(3)])
            if u.rank() < t:
                continue
            mu_mat = m_lat.gens @ u
            w = smith_decompose(mu_mat).p.select_columns(range(t))
            lhs = matrix_norm(lam_lat.gens @ u)
            rhs = matrix_norm(n_lat.gens @ w) + matrix_norm(mu_mat)
            if lhs != rhs:
                ok = False
            instances += 1
    record_criterion(5, f"additivity on {instances} instances", ok)


def test_criterion_6_lr_validity_and_membership(p2):
    ok = True
    hives = 0
    for i in range(60):
        n = 2 if i % 2 else 3
        spec = InstanceSpec(n=n, ring=p2, exponent_range=(0, 3),
                            seed=60_000 + i, unimodular_mix_steps=5)
        n_lat, lam_lat = random_pair(spec)
        _, mu = pair_invariant(n_lat, lam_lat)
        nu = lattice_invariants(n_lat)
        lam = lattice_invariants(lam_lat)
        hive = build_hive(n_lat, lam_lat, "primary")
        filling = hive_to_lr_filling(hive)
        if not validate_lr(filling).ok:
            ok = False
        pool = enumerate_lr_fillings(lam, mu, nu)
        if not pool or filling not in pool:
            ok = False
        hives += 1
    record_criterion(6, f"LR validity and membership on {hives} hives", ok)


def test_criterion_7_smith_round_trip(p2, tadic):
    rng = seeded(73)
    ok = True
    total = 0
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = random_padic_matrix(p2, rng, rows, cols)
        ok = ok and _smith_ok(a)
        total += 1
    for _ in range(500):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        a = random_tadic_matrix(tadic, rng, rows, cols)
        ok = ok and _smith_ok(a)
        total += 1
    record_criterion(7, f"smith round trip on {total} matrices", ok)


def _smith_ok(a):
    dec = smith_decompose(a)
    if (dec.p @ dec.d) @ dec.q != a:
        return False
    if not (unimodular_check(dec.p) and unimodular_check(dec.q)):
        return False
    return matrix_norm(a) == brute_minor_norm(a)


def test_criterion_8_amalgam_nestedness(p2):
    from hivekit import brute_min_direct_sum, EnumerationBudget
    ok = True
    found = 0
    budget = EnumerationBudget(exponent_bound=2, count_cap=500_000)
    rank_pairs = [((1, 1), (1, 2)), ((1, 1), (0, 2)), ((0, 1), (0, 2)),
                  ((2, 1), (1, 2)), ((0, 1), (1, 2))]
    i = 0
    while found < 50 and i < 120:
        n = 3
        spec = InstanceSpec(n=n, ring=p2, exponent_range=(0, 1),
                            seed=80_000 + i, unimodular_mix_steps=2)
        i += 1
        a_lat, c_lat = random_pair(spec)
        for (s, t), (s2, t2) in rank_pairs:
            if s + t > n or s2 + t2 > n:
                continue
            small = brute_min_direct_sum(a_lat, c_lat, s, t, budget)
            large = brute_min_direct_sum(a_lat, c_lat, s2, t2, budget)
            if not _nested_chain_exists(small, large):
                ok = False
            found += 1
            if found >= 50:
                break
    ok = ok and found >= 50
    record_criterion(8, f"amalgam nestedness on {found} instances", ok)


def _nested_chain_exists(small, large):
    # keyed by identity: each oracle image record caches its one
    # Submodule, and a duplicate could not change an existential verdict
    big_sides = {}
    for _, c_big in large.minimizers:
        if c_big is not None:
            big_sides.setdefault(id(c_big), c_big)
    small_sides = {}
    for _, c_small in small.minimizers:
        if c_small is not None:
            small_sides.setdefault(id(c_small), c_small)
    for c_big in big_sides.values():
        tail = c_big.invariants
        for c_small in small_sides.values():
            t = c_small.rank
            if (c_small.invariants == tail[c_big.rank - t:]
                    and c_big.contains(c_small)):
                return True
    return False
