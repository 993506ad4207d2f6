"""One workload process of the hivekit benchmark.

``run.py`` starts this file in a fresh interpreter for every measured or
traced run, and a measured run starts it again for every set-up it times,
so module caches and the allocator start cold each time.  The last line of standard output is a
JSON object with the raw figures; ``run.py`` turns them into metrics.

    python3 benchmarks/worker.py --workload hive-p2 --seed 1 --mode setup
    python3 benchmarks/worker.py --workload hive-p2 --seed 1 --mode run --seconds 55 --setup-reps 11
    python3 benchmarks/worker.py --workload hive-p2 --seed 1 --mode run --items 8 --trace
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

MAX_PROBLEMS = 20  # problems kept in the result; all are counted


class _Untraced:
    """Stands in for a Tracer when tracing is off."""

    item = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def setup(workload, seed, pairs):
    """The visit order and the first ``pairs`` pairs of it; with
    ``pairs=workload.setup_pairs`` this is what ``setup_s`` times after
    interpreter start and import."""
    order = wl.visit_order(wl.pool_records(workload, wl.load_expected()), seed)
    return order, [wl.make_instance(workload, rec["seed"])
                   for rec in order[:pairs]]


def time_setup(workload, seed) -> float:
    """Wall seconds of one set-up in a fresh interpreter."""
    # no timeout: a wait with one polls in steps of up to 50 ms, which
    # would round the time; run.py's deadline ends a set-up that hangs
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload.name, "--seed", str(seed),
                    "--mode", "setup"], stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def run(workload, seed, seconds=None, items=None, trace=False, spans_path=None,
        setup_reps=0):
    """Warm up on the first pair of the visit order, then measure the
    following pairs until ``seconds`` of item time have passed or
    ``items`` are done, then check every item.

    Every pair is generated before the measured phase and every check
    runs after it, so the phase holds only items.  A run measured by
    ``seconds`` also times ``setup_reps`` set-ups, spread evenly over the
    phase (the items' clock stops meanwhile), so that ``setup_s`` sees the
    same stretch of machine speed as the items.  A traced run (``items``
    required, so its counts repeat) generates its pairs inside the tracer
    and adds per-layer figures and the ring microbenchmark to the result.
    """
    if (seconds is None) == (items is None):
        raise ValueError("give exactly one of seconds and items")
    if trace and items is None:
        raise ValueError("a traced run needs a fixed item count")
    clock = time.perf_counter
    tr = tracing.Tracer() if trace else _Untraced()
    with tr:
        order, insts = setup(workload, seed,
                             workload.pool_size if items is None else items + 1)
        if len(insts) <= (items or 0):
            raise wl.BenchmarkError(f"pool too small for {items} items")
        pairs = list(zip(order, insts))
        counts0 = tr.counts if trace else None
        warm = [(*pairs[0], wl.run_item(workload, pairs[0][1], clock))]
        counts1 = tr.counts if trace else None
        done, setup_s, wall = [], [], 0.0
        for rec, inst in pairs[1:]:
            if items is None:
                if wall >= seconds:
                    break
                if len(setup_s) < setup_reps and \
                        wall >= len(setup_s) * seconds / setup_reps:
                    setup_s.append(time_setup(workload, seed))
            start = clock()
            tr.item = len(done)
            done.append((rec, inst, wl.run_item(workload, inst, clock)))
            tr.item = None
            wall += clock() - start
        counts2 = tr.counts if trace else None
        while len(setup_s) < setup_reps:  # the pool ran out first
            setup_s.append(time_setup(workload, seed))
        problems, digests, failed = [], [], 0
        for i, (rec, inst, (_, out, err)) in enumerate(warm + done):
            if err is None:
                types = wl.expected_types(inst)
                tr.item = i - 1 if i else None
                got, bad = wl.check_item(workload, types, out, rec["digest"])
                tr.item = None
            else:
                got, bad = None, [err]
            problems.extend(f"seed {inst.seed}: {p}" for p in bad)
            if i:
                digests.append(got or "-")
                failed += bool(bad)
    result = {
        "item_s": [secs for _, _, (secs, _, _) in done], "wall_s": wall,
        "setup_s": setup_s, "attempted": len(done), "failed": failed,
        "problems": problems[:MAX_PROBLEMS], "n_problems": len(problems),
        "run_digest": hashlib.sha256(
            ",".join(digests).encode()).hexdigest()[:16],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        if spans_path is not None:
            tr.write_spans(spans_path)
        counts = {k: counts2[k] - counts1[k] for k in counts2}
        result["layers"] = tracing.layer_metrics(tr.spans, counts,
                                                 range(len(done)))
        result["layers"]["oracle.fingerprint_calls_warmup"] = (
            counts1["oracle.fingerprint_calls"]
            - counts0["oracle.fingerprint_calls"])
        result["layers"].update(ring_microbench(insts, seed))
    return result


def ring_microbench(instances, seed, ops=1000, reps=5) -> dict:
    """Nanoseconds per add, mul, div and valuation on nonzero entries drawn
    from the run's own generator matrices; median of ``reps`` passes."""
    elems = [x for inst in instances for lat in (inst.n_lat, inst.lam_lat)
             for row in lat.gens.entries for x in row if not x.is_zero()]
    rng = random.Random(seed)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(ops)]
    clock = time.perf_counter_ns
    tests = {
        "ring.add_ns": lambda: [a + b for a, b in pairs],
        "ring.mul_ns": lambda: [a * b for a, b in pairs],
        "ring.div_ns": lambda: [a / b for a, b in pairs],
        "ring.valuation_ns": lambda: [a.valuation() for a, _ in pairs],
    }
    out = {}
    for name, fn in tests.items():
        samples = []
        for _ in range(reps):
            t0 = clock()
            fn()
            samples.append((clock() - t0) / ops)
        out[name] = statistics.median(samples)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--items", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--setup-reps", type=int, default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if args.mode == "setup":
        _, prefetched = setup(workload, args.seed, workload.setup_pairs)
        print(json.dumps({"prefetched": len(prefetched)}))
        return 0
    if (args.seconds is None) == (args.items is None):
        parser.error("give exactly one of --seconds and --items")
    result = run(workload, args.seed, seconds=args.seconds, items=args.items,
                 trace=args.trace, spans_path=args.spans,
                 setup_reps=args.setup_reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
