"""Command-line surface: compute hives, verify hives/fillings, generate
random instances, run oracle certifications, render output.

Exit codes are a stable contract: 0 success, 1 input error, 2 internal
consistency (a duality mismatch, or a built array that is not a hive),
3 validation failure.  All randomness flows from one explicit 64-bit
seed through Python's Mersenne Twister (``random.Random``), so every
command is deterministic in its inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from functools import cache
from operator import mul

from .hive import (DualityError, Hive, NotAHiveError, build_hive,
                   check_rhombus, hive_to_lr_filling, hive_type, render,
                   validate_lr)
from .lattice import (Lattice, greedy_slice_first_min, lattice_invariants,
                      min_direct_sum_norm, pair_invariant)
from .matops import (ValuedMatrix, _from_raw, invariant_partition,
                     smith_decompose)
from .oracle import (BudgetExceededError, EnumerationBudget, _check_count,
                     _int_lattice, enumerate_lr_fillings, stabilized_value)
from .ring import RingConfig

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DUALITY = 2
EXIT_VALIDATION = 3


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for a random lattice pair."""

    n: int
    ring: RingConfig
    exponent_range: tuple
    seed: int
    unimodular_mix_steps: int = 6

    def __post_init__(self):
        lo, hi = self.exponent_range
        if lo > hi:
            raise ValueError("exponent range must satisfy lo <= hi")
        if self.n <= 0 or self.unimodular_mix_steps < 0:
            raise ValueError("bad instance spec")


def _random_unimodular(cfg: RingConfig, n: int, steps: int, hi: int,
                       rng: random.Random) -> list:
    """Rows of a product of ``steps`` random elementary unimodular
    operations, in the raw values of ``cfg.raw``."""
    zero, power = cfg.raw.zero, cfg.raw.power
    rows = [[power(0) if i == j else zero for j in range(n)]
            for i in range(n)]
    if n < 2:  # no two rows to mix; rng is left untouched
        return rows
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        if kind == 0:
            rows[i], rows[j] = rows[j], rows[i]
            continue
        sign = rng.choice((1, -1))
        coeff = power(rng.randint(0, max(hi, 0)))
        if sign < 0:
            coeff = -coeff
        if kind == 1:
            rows[i] = [a + coeff * b for a, b in zip(rows[i], rows[j])]
        else:
            for row in rows:
                row[i] = row[i] + coeff * row[j]
    return rows


def random_pair(spec: InstanceSpec):
    """Sample (N, Lambda): N = P1 D1 Q1, M = P2 D2 Q2, Lambda = N M.

    Diagonal entries are uniformizer powers drawn from the exponent range;
    P, Q are products of random elementary unimodular operations.  A pure
    function of the spec.

    The factors are built on the ring's raw values (``RingConfig.raw``),
    as ``matops._raw_entries`` holds them.  A negative exponent range
    is cleared by one power pi^s, s = -lo, on every diagonal entry, so
    the raw N and Lambda are pi^s N and pi^(2s) Lambda; their entries
    become ring elements once, divided by that power
    (``matops._from_raw``).  The draws are those of the same construction
    in ring arithmetic, in the same order, so the matrices are too.
    """
    rng = random.Random(spec.seed)
    n = spec.n
    lo, hi = spec.exponent_range
    zero, power = spec.ring.raw.zero, spec.ring.raw.power
    shift = max(-lo, 0)

    def matmul(a, b):
        cols = list(zip(*b))
        return [[sum(map(mul, row, col), zero) for col in cols] for row in a]

    def factor():
        diag = [power(rng.randint(lo, hi) + shift) for _ in range(n)]
        steps = spec.unimodular_mix_steps
        p = _random_unimodular(spec.ring, n, steps, hi, rng)
        q = _random_unimodular(spec.ring, n, steps, hi, rng)
        return matmul([[x * d for x, d in zip(row, diag)] for row in p], q)

    n_raw = factor()
    lam_raw = matmul(n_raw, factor())
    return (Lattice(_from_raw(spec.ring, n_raw, power(shift))),
            Lattice(_from_raw(spec.ring, lam_raw, power(2 * shift))))


# ---------------------------------------------------------------------------
# shared I/O helpers


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _hive_payload(hive: Hive) -> dict:
    typ = hive_type(hive)
    payload = hive.to_json()
    payload["type"] = {"mu": list(typ.mu), "nu": list(typ.nu),
                       "lambda": list(typ.lam)}
    return payload


# ---------------------------------------------------------------------------
# commands


def cmd_compute(args) -> int:
    try:
        ring = RingConfig.parse_flag(args.ring)
        n_lat = Lattice(ValuedMatrix.from_json(ring, _load_json(args.n_matrix)))
        lam_lat = Lattice(
            ValuedMatrix.from_json(ring, _load_json(args.lambda_matrix)))
        if n_lat.n != lam_lat.n:
            raise ValueError("N and lambda matrices disagree on dimension")
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.variant == "both":
            payload = {variant: _hive_payload(build_hive(n_lat, lam_lat, variant))
                       for variant in ("primary", "swapped")}
        else:
            payload = _hive_payload(build_hive(n_lat, lam_lat, args.variant))
    except (DualityError, NotAHiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DUALITY
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        hive = Hive.from_json(_load_json(args.hive))
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = check_rhombus(hive)
    payload = {"ok": report.ok,
               "violations": [{"family": v.family, "i": v.i, "j": v.j,
                               "lhs": v.lhs, "rhs": v.rhs}
                              for v in report.violations]}
    code = EXIT_OK
    if report.ok:
        typ = hive_type(hive)
        payload["type"] = {"mu": list(typ.mu), "nu": list(typ.nu),
                           "lambda": list(typ.lam)}
        if args.lr:
            filling = hive_to_lr_filling(hive)
            verdict = validate_lr(filling)
            payload["lr"] = {"ok": verdict.ok,
                             "problems": list(verdict.problems),
                             "filling": filling.to_json()}
            if not verdict.ok:
                payload["ok"] = False
                code = EXIT_VALIDATION
    else:
        code = EXIT_VALIDATION
    _emit(json.dumps(payload, indent=2), args.out)
    return code


def cmd_render(args) -> int:
    try:
        hive = Hive.from_json(_load_json(args.hive))
        text = render(hive, args.format)
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(text, args.out)
    return EXIT_OK


def cmd_smith(args) -> int:
    try:
        ring = RingConfig.parse_flag(args.ring)
        mat = ValuedMatrix.from_json(ring, _load_json(args.matrix))
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    dec = smith_decompose(mat)
    payload = {"P": dec.p.to_json(), "D": dec.d.to_json(),
               "Q": dec.q.to_json(),
               "invariants": list(invariant_partition(mat))}
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def cmd_random(args) -> int:
    try:
        ring = RingConfig.parse_flag(args.ring)
        spec = InstanceSpec(n=args.n, ring=ring,
                            exponent_range=(args.min_exp, args.max_exp),
                            seed=args.seed,
                            unimodular_mix_steps=args.mix_steps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    n_lat, lam_lat = random_pair(spec)
    m_lat, mu = pair_invariant(n_lat, lam_lat)
    payload = {"ring": ring.to_json(), "n": spec.n, "seed": spec.seed,
               "exponent_range": list(spec.exponent_range),
               "mix_steps": spec.unimodular_mix_steps,
               "n_matrix": n_lat.gens.to_json(),
               "lambda_matrix": lam_lat.gens.to_json(),
               "invariants": {"nu": list(lattice_invariants(n_lat)),
                              "lambda": list(lattice_invariants(lam_lat)),
                              "mu": list(mu)}}
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _certify_trial(n_lat: Lattice, lam_lat: Lattice, budget: EnumerationBudget):
    """One oracle trial: both hives, brute-force certification of every
    primary entry, type claims and LR membership.

    ``build_hive`` shows only that a max-route witness attains each entry
    h(s,t), a lower bound on the max.  Here the brute-force stabilized
    values certify equality: min = |lambda| - h(s,t) and max = h(s,t).
    No greedy heuristic or Smith transform is read.  A trial whose first
    round meets the count cap is refused before any entry is computed,
    so its ``entries`` list is empty.  The integer forms of Lambda, N
    and M are made once and shared by every stabilized value.
    """
    n = lam_lat.n
    m_lat, mu = pair_invariant(n_lat, lam_lat)
    nu = lattice_invariants(n_lat)
    lam = lattice_invariants(lam_lat)
    size = sum(lam)
    trial = {"nu": list(nu), "lambda": list(lam), "mu": list(mu),
             "entries": []}
    status = "certified"
    try:
        hives = {}
        built = {}
        for variant, expect in (("primary", (mu, nu, lam)),
                                ("swapped", (nu, mu, lam))):
            hive = built[variant] = build_hive(n_lat, lam_lat, variant)
            typ = hive_type(hive)
            ok = (typ.mu, typ.nu, typ.lam) == expect
            hives[variant] = {"rows": [list(r) for r in hive.rows],
                              "type_ok": ok}
            if not ok:
                status = "failed"
        trial["hives"] = hives
        primary = built["primary"]
        cells = [(s, t) for t in range(n + 1) for s in range(t + 1)]
        # round M_0 of each entry's max always enumerates its families of
        # ranks n - t, then t - s: one over the cap, met in the order of the
        # loop below, refuses the trial here, before any family is built
        for s, t in cells:
            for r in (n - t, t - s):
                _check_count(n, lam_lat.config.p, r, budget.exponent_bound,
                             budget.count_cap)
        form_lam, form_n, form_m = map(_int_lattice, (lam_lat, n_lat, m_lat))
        for s, t in cells:
            a, c = n - t, t - s
            opt_max = primary[s, t]
            opt_min = size - opt_max
            entry = {"s": s, "t": t, "min": opt_min, "max": opt_max}
            if a + c > 0:
                bmin = stabilized_value("min", lam_lat, n_lat, a, c, budget,
                                        forms=(form_lam, form_n))
                bmax = stabilized_value("max", lam_lat, m_lat, s, c, budget,
                                        forms=(form_lam, form_m))
                entry["brute_min"] = bmin.value
                entry["brute_max"] = bmax.value
                entry["min_ok"] = bmin.value == opt_min
                entry["max_ok"] = bmax.value == opt_max
                if not (entry["min_ok"] and entry["max_ok"]):
                    status = "failed"
            trial["entries"].append(entry)
        filling = hive_to_lr_filling(primary)
        verdict = validate_lr(filling)
        trial["lr_valid"] = verdict.ok
        if not verdict.ok:
            status = "failed"
        if n <= 3:
            pool = enumerate_lr_fillings(lam, mu, nu)
            trial["lr_count"] = len(pool)
            trial["lr_member"] = filling in pool
            if not trial["lr_member"] or not pool:
                status = "failed"
    except DualityError as exc:
        status = "failed"
        trial["duality_error"] = str(exc)
    except BudgetExceededError as exc:
        status = "budget_exhausted"
        trial["budget_error"] = str(exc)
    trial["status"] = status
    return trial


def cmd_oracle(args) -> int:
    try:
        ring = RingConfig.parse_flag(args.ring)
        if ring.kind != RingConfig.PADIC:
            raise ValueError("oracle certification requires a p-adic ring")
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        budget = EnumerationBudget(count_cap=args.count_cap)
        specs = [InstanceSpec(n=args.n, ring=ring,
                              exponent_range=(0, args.max_exp),
                              seed=args.seed + i,
                              unimodular_mix_steps=args.mix_steps)
                 for i in range(args.trials)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    trials = []
    all_ok = True
    for spec in specs:
        n_lat, lam_lat = random_pair(spec)
        trial = _certify_trial(n_lat, lam_lat, budget)
        trial["seed"] = spec.seed
        trials.append(trial)
        if trial["status"] != "certified":
            all_ok = False
    tally: dict = {}
    for trial in trials:
        key = "|".join(",".join(str(v) for v in trial[name])
                       for name in ("mu", "nu", "lambda"))
        tally[key] = tally.get(key, 0) + 1
    payload = {"ring": ring.to_json(), "seed": args.seed,
               "trials": trials, "types_seen": dict(sorted(tally.items())),
               "regression": _regression_diagnostic(ring),
               "all_certified": all_ok}
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _regression_diagnostic(ring: RingConfig) -> dict:
    """The fixed instance that refutes the symmetric greedy: the true
    minimum is 1 while the C-first quotient greedy reports 2."""
    a_lat = Lattice(ValuedMatrix.diagonal(ring, [ring.p ** 2, 1]))
    c_lat = Lattice(ValuedMatrix.diagonal(ring, [ring.p, 1]))
    return {"instance": "A=diag(p^2,1), C=diag(p,1), a=c=1",
            "min": min_direct_sum_norm(a_lat, c_lat, 1, 1),
            "greedy_c_first": greedy_slice_first_min(a_lat, c_lat, 1, 1, "C"),
            "greedy_a_first": greedy_slice_first_min(a_lat, c_lat, 1, 1, "A")}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls, so ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="hivekit",
        description="Hives from lattice pairs over discrete valuation rings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="build the hive of a lattice pair")
    p.add_argument("--ring", default="padic:2")
    p.add_argument("--n-matrix", required=True)
    p.add_argument("--lambda-matrix", required=True)
    p.add_argument("--variant", default="primary",
                   choices=("primary", "swapped", "both"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check rhombus inequalities and type")
    p.add_argument("hive")
    p.add_argument("--lr", action="store_true",
                   help="also convert to an LR filling and validate it")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a hive")
    p.add_argument("hive")
    p.add_argument("--format", default="ascii",
                   choices=("ascii", "svg", "json"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("smith", help="Smith decomposition of a matrix")
    p.add_argument("matrix")
    p.add_argument("--ring", default="padic:2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_smith)

    p = sub.add_parser("random", help="emit a random instance")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-exp", type=int, default=2)
    p.add_argument("--min-exp", type=int, default=0)
    p.add_argument("--mix-steps", type=int, default=6)
    p.add_argument("--ring", default="padic:2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("oracle", help="brute-force certification trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-exp", type=int, default=2)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--mix-steps", type=int, default=4)
    p.add_argument("--count-cap", type=int,
                   default=EnumerationBudget.count_cap)
    p.add_argument("--ring", default="padic:2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
