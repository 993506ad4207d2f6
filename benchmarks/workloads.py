"""Workloads of the hivekit benchmark: instance pools, the seeded order in
which a run visits them, one timed item, and the correctness gate.

An *item* is one unit of user work: on a hive workload one lattice pair
through ``build_hive`` primary and swapped, on an oracle workload one
certification trial through ``hivekit.cli.main(["oracle", ...])``.

Each workload draws its pairs from a fixed pool of ``InstanceSpec`` seeds
whose hive digests are stored in ``expected.json``; a run's ``--seed``
shuffles the pool into the order the run visits it.

hivekit is used only through module attributes (``hive.build_hive``, not
``from hivekit.hive import build_hive``), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from hivekit import cli, hive, lattice, oracle, ring

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "hive" or "oracle"
    ring: str            # CLI ring flag: "padic:<p>" or "tadic"
    n: int
    max_exp: int
    mix_steps: int
    pool_size: int       # pool seeds are 0 .. pool_size - 1
    setup_pairs: int     # pairs one timed set-up generates
    traced_items: int    # items of a traced run, fixed so counts repeat
    count_cap: int = 500_000


# BENCHMARK.json runs hive-p2 and oracle-p2.  hive-tadic is kept for runs
# by hand: its items range from 0.3 to 2 s, and on a shared host its
# median did not hold still enough for the benchmark's bounds.
WORKLOADS = {w.name: w for w in (
    Workload("hive-p2", "hive", "padic:2", n=4, max_exp=4, mix_steps=6,
             pool_size=120, setup_pairs=30, traced_items=8),
    Workload("hive-tadic", "hive", "tadic", n=2, max_exp=4, mix_steps=4,
             pool_size=120, setup_pairs=30, traced_items=10),
    Workload("oracle-p2", "oracle", "padic:2", n=3, max_exp=2, mix_steps=4,
             pool_size=48, setup_pairs=12, traced_items=4),
    # Tiny shapes for the benchmark's own tests; not in BENCHMARK.json.
    Workload("tiny-hive", "hive", "padic:2", n=2, max_exp=2, mix_steps=2,
             pool_size=8, setup_pairs=4, traced_items=3),
    Workload("tiny-oracle", "oracle", "padic:2", n=2, max_exp=1, mix_steps=2,
             pool_size=4, setup_pairs=2, traced_items=2),
)}


class BenchmarkError(RuntimeError):
    """The benchmark's own set-up is wrong; the run cannot be judged."""


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pool_records(workload: Workload, expected: dict) -> list:
    """``[{"seed", "digest"}, ...]`` for the workload's pool."""
    records = expected.get(workload.name, {}).get("instances", [])
    if len(records) != workload.pool_size:
        raise BenchmarkError(
            f"{workload.name}: expected.json holds {len(records)} instances, "
            f"the workload needs {workload.pool_size}")
    return records


def visit_order(records: list, seed: int) -> list:
    """Pool records in the order a run with this seed visits them."""
    return random.Random(seed).sample(records, len(records))


# ---------------------------------------------------------------------------
# instances


def requested_ring(flag: str):
    """The RingConfig a flag asks for, parsed here rather than by hivekit's
    ``RingConfig.parse_flag``, so a flag that hivekit misreads is caught."""
    kind, sep, p = flag.partition(":")
    if kind == "padic" and sep and p.isdigit():
        return ring.RingConfig.padic(int(p))
    if flag == "tadic":
        return ring.RingConfig.tadic()
    raise BenchmarkError(f"ring flag {flag!r} is not 'padic:<p>' or 'tadic'")


@dataclass(frozen=True)
class Instance:
    seed: int
    n_lat: object
    lam_lat: object


def make_instance(workload: Workload, seed: int) -> Instance:
    """The pair ``random_pair`` gives for this seed, checked to carry the
    requested ring."""
    want = requested_ring(workload.ring)
    spec = cli.InstanceSpec(n=workload.n, ring=ring.RingConfig.parse_flag(
                                workload.ring),
                            exponent_range=(0, workload.max_exp), seed=seed,
                            unimodular_mix_steps=workload.mix_steps)
    n_lat, lam_lat = cli.random_pair(spec)
    if n_lat.config != want or lam_lat.config != want:
        raise BenchmarkError(f"{workload.ring} produced a pair over "
                             f"{n_lat.config!r}, not {want!r}")
    return Instance(seed, n_lat, lam_lat)


def expected_types(inst: Instance) -> dict:
    """Hive type per variant as the pair's invariants predict it:
    (mu, nu, lambda) for primary and (nu, mu, lambda) for swapped."""
    _, mu = lattice.pair_invariant(inst.n_lat, inst.lam_lat)
    nu = lattice.lattice_invariants(inst.n_lat)
    lam = lattice.lattice_invariants(inst.lam_lat)
    return {"primary": (tuple(mu), tuple(nu), tuple(lam)),
            "swapped": (tuple(nu), tuple(mu), tuple(lam))}


# ---------------------------------------------------------------------------
# items


def oracle_argv(workload: Workload, seed: int) -> list:
    return ["oracle", "--ring", workload.ring, "--n", str(workload.n),
            "--trials", "1", "--seed", str(seed),
            "--max-exp", str(workload.max_exp),
            "--mix-steps", str(workload.mix_steps),
            "--count-cap", str(workload.count_cap)]


def run_item(workload: Workload, inst: Instance, clock):
    """Do one item; returns (seconds, output, error).

    ``output`` is ``{"primary": rows, "swapped": rows}`` for a hive item
    and ``(exit code, oracle JSON)`` for an oracle item.  A DualityError
    or BudgetExceededError is the item's failure, reported as ``error``.
    """
    start = clock()
    try:
        if workload.kind == "hive":
            out = {variant: hive.build_hive(inst.n_lat, inst.lam_lat, variant)
                   for variant in ("primary", "swapped")}
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(oracle_argv(workload, inst.seed))
    except (hive.DualityError, oracle.BudgetExceededError) as exc:
        return clock() - start, None, f"{type(exc).__name__}: {exc}"
    seconds = clock() - start
    if workload.kind == "hive":
        return seconds, {v: [list(r) for r in h.rows] for v, h in out.items()}, None
    return seconds, (code, json.loads(buf.getvalue())), None


def digest(rows_by_variant: dict) -> str:
    """Digest of the primary and swapped hive rows of one pair."""
    blob = json.dumps([rows_by_variant["primary"], rows_by_variant["swapped"]],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_item(workload: Workload, types: dict, output,
               expected_digest: str | None) -> tuple:
    """The correctness gate for one item: (digest, problems).

    Every hive must satisfy the rhombus inequalities, have the type in
    ``types`` (from ``expected_types``) and match the stored digest; an
    oracle trial must also exit 0 and be certified.
    ``expected_digest=None`` skips only the digest comparison (used when
    the digests are first made).
    """
    problems = []
    if workload.kind == "hive":
        rows = output
    else:
        code, payload = output
        trial = payload["trials"][0]
        if code != 0 or payload.get("all_certified") is not True:
            problems.append(f"oracle exit {code}, status {trial['status']}")
        got = (tuple(trial["mu"]), tuple(trial["nu"]), tuple(trial["lambda"]))
        if got != types["primary"]:
            problems.append(f"oracle invariants {got} != {types['primary']}")
        if "hives" not in trial:  # the trial stopped before building them
            return None, problems
        rows = {v: trial["hives"][v]["rows"] for v in ("primary", "swapped")}
    for variant, want in types.items():
        h = hive.Hive(rows[variant])
        report = hive.check_rhombus(h)
        if not report.ok:
            problems.append(f"{variant}: {len(report.violations)} rhombus "
                            "violations")
            continue
        typ = hive.hive_type(h)
        if (typ.mu, typ.nu, typ.lam) != want:
            problems.append(f"{variant}: type {(typ.mu, typ.nu, typ.lam)} "
                            f"!= {want}")
    got_digest = digest(rows)
    if expected_digest is not None and got_digest != expected_digest:
        problems.append(f"digest {got_digest} != expected {expected_digest}")
    return got_digest, problems
