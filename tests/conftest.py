import random
from fractions import Fraction
from itertools import combinations

import pytest

from hypothesis import strategies as st

from hivekit import Lattice, RingConfig, ValuedMatrix, pair_invariant
from hivekit.cli import _random_unimodular
from hivekit.matops import _from_raw, _raw_scalars


@pytest.fixture(scope="session")
def p2():
    return RingConfig.padic(2)


@pytest.fixture(scope="session")
def p3():
    return RingConfig.padic(3)


@pytest.fixture(scope="session")
def tadic():
    return RingConfig.tadic()


def mat(cfg, rows):
    return ValuedMatrix(cfg, rows)


def lat(cfg, rows):
    return Lattice(ValuedMatrix(cfg, rows))


def inverse(a):
    """a^-1 for a square a of full rank: the pair invariant
    M = N^-1 Lambda of N = a and Lambda = the identity."""
    m_lat, _ = pair_invariant(
        Lattice(a), Lattice(ValuedMatrix.identity(a.config, a.rows)))
    return m_lat.gens


def random_unimodular(cfg, n, rng, steps=6):
    """A random unimodular n x n matrix as ``random_pair`` makes its
    factors: ``steps`` mixing steps, coefficients up to pi^2."""
    return _from_raw(cfg, _random_unimodular(cfg, n, steps, 2, rng),
                     _raw_scalars(cfg)[1](0))


def random_padic_matrix(cfg, rng, rows, cols, max_exp=3):
    """Entries u * p^k with u a small unit and k in [-1, max_exp]."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.15:
                row.append(0)
                continue
            unit = rng.choice([1, -1, 3, 5, -3])
            k = rng.randint(-1, max_exp)
            row.append(Fraction(unit) * Fraction(cfg.p) ** k)
        out.append(row)
    return ValuedMatrix(cfg, out)


def random_tadic_matrix(cfg, rng, rows, cols):
    """Entries are small integer-coefficient polynomials over t, sometimes
    divided by t."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.2:
                row.append(cfg.zero)
                continue
            coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(3))
            num = cfg.element((coeffs, (Fraction(1),)))
            if num.is_zero():
                num = cfg.one
            if rng.random() < 0.3:
                num = num / cfg.uniformizer
            row.append(num)
        out.append(row)
    return ValuedMatrix(cfg, out)


def ring_entries(cfg):
    """Hypothesis strategy for entries over cfg, zero included: (num/den)
    * p^k with k in -1..3, or a t-adic ratio of small polynomials."""
    if cfg.kind == RingConfig.PADIC:
        return st.builds(lambda num, den, k: Fraction(num, den) * cfg.p ** k,
                         st.integers(-6, 6), st.integers(1, 6),
                         st.integers(-1, 3))
    coeffs = st.tuples(*[st.integers(-2, 2).map(Fraction)] * 3)
    dens = st.sampled_from([(1,), (1, 1), (0, 1), (2, 0, 1)])
    return st.builds(
        lambda num, den: cfg.element((num, tuple(map(Fraction, den)))),
        coeffs, dens)


def brute_minor_norm(a):
    """Independent norm oracle: minimum valuation over maximal minors,
    computed by Laplace expansion over the field."""
    k = a.cols
    if k > a.rows:
        return float("inf")
    best = None
    for rows in combinations(range(a.rows), k):
        det = _det([[a[i, j] for j in range(k)] for i in rows], a.config)
        if not det.is_zero():
            v = det.valuation()
            if best is None or v < best:
                best = v
    return float("inf") if best is None else best


def _det(rows, cfg):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = cfg.zero
    sign = 1
    for j in range(k):
        if not rows[0][j].is_zero():
            minor = [[r[m] for m in range(k) if m != j] for r in rows[1:]]
            term = rows[0][j] * _det(minor, cfg)
            total = total + term if sign > 0 else total - term
        sign = -sign
    return total


def seeded(seed):
    return random.Random(seed)


ACCEPTANCE_LINES = []


def record_criterion(number, name, ok):
    ACCEPTANCE_LINES.append(
        f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
