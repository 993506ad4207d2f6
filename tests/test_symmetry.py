"""The hive's symmetries as consistency checks at any n.

A hive lives on a triangle with coordinates (a, b, c) = (s, t - s, n - t),
and the lattice triple (O^n, N, Lambda) is defined up to GL_n(K).  Moving
the triple moves the hive by a symmetry of the triangle plus an affine
function of (s, t):

* rotation: hive(M, N^-1) is hive(N, Lambda) read at (c, a, b), minus
  |lambda|, for the primary variant, and read at (b, c, a), minus |nu|,
  for the swapped one, M = N^-1 Lambda;
* reversal: hive(M^-1, Lambda^-1) is hive(N, Lambda) read at (c, b, a),
  minus |lambda|, for both variants;
* left GL_n(O): hive(g N, g Lambda) = hive(N, Lambda);
* scaling: h(pi^j N, pi^(k+j) Lambda) = h + k t + j s for the primary
  variant and h + j t + k s for the swapped one.

|lambda| and |nu| are the sums of the invariants of Lambda and N.  The
``build_hive`` docstring derives the rotation and reversal constants from
the hive's corners.  These are consistency checks, not a certificate: a
wrong route that is itself symmetric would pass them.
"""

import pytest

from hivekit import (Lattice, RingConfig, ValuedMatrix, build_hive,
                     lattice_invariants, pair_invariant)
from hivekit.cli import InstanceSpec, random_pair

from conftest import random_unimodular, seeded

VARIANTS = ("primary", "swapped")
# (ring flag, dimensions): t-adic hives stop at n = 4 to keep the test
# fast; n = 8 checks the min route beyond the minor table's reach
CASES = [("padic:2", (1, 2, 3, 4, 5, 8)), ("padic:3", (1, 2, 3, 4, 5, 8)),
         ("tadic", (1, 2, 3, 4))]


def rows_at(hive, order):
    """The hive read through a permutation of (a, b, c): entry (s, t) of
    the result is the hive at the point whose coordinates are those of
    (s, t - s, n - t) taken in ``order``; (2, 0, 1) reads it at (c, a, b)."""
    n = hive.n
    out = []
    for t in range(n + 1):
        row = []
        for s in range(t + 1):
            point = (s, t - s, n - t)
            a, c = point[order[0]], point[order[2]]
            row.append(hive[a, n - c])
        out.append(row)
    return out


def shifted(rows, shift):
    return tuple(tuple(x + shift for x in row) for row in rows)


def pi_power(cfg, e):
    x = cfg.one
    for _ in range(abs(e)):
        x = x * cfg.uniformizer
    return x if e >= 0 else cfg.one / x


def inverse(lat):
    # N^-1 as the pair invariant N^-1 O^n of (N, O^n)
    m_lat, _ = pair_invariant(
        lat, Lattice(ValuedMatrix.identity(lat.config, lat.n)))
    return m_lat


def pairs(flag, dims, seed):
    cfg = RingConfig.parse_flag(flag)
    rng = seeded(seed)
    for n in dims:
        spec = InstanceSpec(n=n, ring=cfg, exponent_range=(-1, 2),
                            seed=rng.randrange(10**6),
                            unimodular_mix_steps=4)
        yield cfg, rng, random_pair(spec)


@pytest.mark.parametrize("flag,dims", CASES)
def test_rotation_and_reversal(flag, dims):
    for _, _, (n_lat, lam_lat) in pairs(flag, dims, 31):
        m_lat, _ = pair_invariant(n_lat, lam_lat)
        size_nu = sum(lattice_invariants(n_lat))
        size_lam = sum(lattice_invariants(lam_lat))
        for variant in VARIANTS:
            hive = build_hive(n_lat, lam_lat, variant)
            rotated = build_hive(m_lat, inverse(n_lat), variant)
            if variant == "primary":
                expected = shifted(rows_at(hive, (2, 0, 1)), -size_lam)
            else:
                expected = shifted(rows_at(hive, (1, 2, 0)), -size_nu)
            assert rotated.rows == expected
            reversed_ = build_hive(inverse(m_lat), inverse(lam_lat), variant)
            assert reversed_.rows == shifted(rows_at(hive, (2, 1, 0)),
                                             -size_lam)


@pytest.mark.parametrize("flag,dims", CASES)
def test_left_unimodular_and_scaling(flag, dims):
    for cfg, rng, (n_lat, lam_lat) in pairs(flag, dims, 37):
        n = n_lat.n
        g = random_unimodular(cfg, n, rng)
        j, k = rng.randint(-2, 2), rng.randint(-2, 2)
        moved = Lattice(g @ n_lat.gens), Lattice(g @ lam_lat.gens)
        scaled = (Lattice(n_lat.gens.scale(pi_power(cfg, j))),
                  Lattice(lam_lat.gens.scale(pi_power(cfg, k + j))))
        for variant in VARIANTS:
            hive = build_hive(n_lat, lam_lat, variant)
            assert build_hive(*moved, variant) == hive
            x, y = (k, j) if variant == "primary" else (j, k)
            assert build_hive(*scaled, variant).rows == tuple(
                tuple(hive[s, t] + x * t + y * s for s in range(t + 1))
                for t in range(n + 1))
