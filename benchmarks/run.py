"""The hivekit benchmark: one workload, one seed, every metric by name.

    python3 benchmarks/run.py --workload hive-p2 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout that holds ``src/hivekit``.  Every
workload process is a fresh interpreter (``worker.py``):

* ``--trace 0`` measures items for ``--seconds`` and times the set-up
  ``SETUP_REPS`` times in separate processes spread over that phase, and
  reports the end-to-end metrics.
* ``--trace 1`` runs the workload's fixed ``traced_items`` once untraced
  and once traced, and reports the per-layer metrics plus
  ``trace.overhead``, the traced over the untraced wall time of the items.

Every item is checked (hive digests, types, rhombus inequalities, oracle
certification).  The last line of standard output is the JSON result;
a full record with the environment goes to ``.bench_out/``.  The exit
code is 0 when every item was correct, 1 when one was not and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 11
TAIL_BEYOND = 10  # items the tail percentile must leave above it
# the whole command may take --seconds plus this, all processes included
TIME_MARGIN_S = 115

END_TO_END = {"item_s_p50": "s", "item_s_tail": "s", "items_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ring.ops": "count", "ring.add_ns": "ns", "ring.mul_ns": "ns",
    "ring.div_ns": "ns", "ring.valuation_ns": "ns",
    "matops.smith_calls": "count", "matops.smith_s": "s",
    "matops.smith_us_p50": "us", "matops.smith_cells": "count",
    "matops.norm_calls": "count",
    "lattice.min_calls": "count", "lattice.min_s": "s",
    "lattice.min_smith_per_call": "1",
    "lattice.max_calls": "count", "lattice.max_s": "s",
    "lattice.max_smith_per_call": "1", "lattice.pair_invariant_s": "s",
    "hive.primary_s": "s", "hive.swapped_s": "s", "hive.build_self_s": "s",
    "hive.check_s": "s",
    "oracle.stabilized_calls": "count", "oracle.rounds_per_value": "1",
    "oracle.brute_min_s": "s", "oracle.brute_max_s": "s",
    "oracle.fingerprint_calls": "count", "oracle.lr_enum_s": "s",
    "oracle.fingerprint_calls_warmup": "count",
    "cli.random_pair_s": "s", "cli.oracle_self_s": "s",
    "trace.overhead": "1", "fail_ratio": "1",
}


class WorkerFailed(RuntimeError):
    pass


def _worker(args, deadline):
    # a fixed hash seed keeps set iteration, and so the counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    # a session of its own, so a timeout also ends the set-ups it started
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail(times):
    """(value, percentile, items beyond): the highest nearest-rank
    percentile with at least TAIL_BEYOND items above it, or the smallest
    item when there are too few."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def environment(seed) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": commit, "git_dirty": dirty, "seed": seed}


def measure(workload, seed, seconds, deadline) -> tuple:
    """End-to-end metrics and the detail record of an untraced run."""
    res = _worker(["--workload", workload.name, "--seed", str(seed),
                   "--mode", "run", "--seconds", str(seconds),
                   "--setup-reps", str(SETUP_REPS)], deadline)
    times, setup = res["item_s"], res["setup_s"]
    tail_s, pct, beyond = tail(times)
    metrics = {"item_s_p50": statistics.median(times), "item_s_tail": tail_s,
               "items_per_s": len(times) / res["wall_s"],
               "setup_s": statistics.median(setup),
               "peak_rss_mb": res["peak_rss_mb"]}
    detail = {"item_s_tail_percentile": pct, "item_s_tail_beyond": beyond,
              "samples": len(times), "setup_samples_s": setup,
              "runs": {"measured": res}}
    return metrics, detail, [res]


def trace(workload, seed, deadline) -> tuple:
    """Per-layer metrics and the detail record of a traced run."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    base = ["--workload", workload.name, "--seed", str(seed), "--mode", "run",
            "--items", str(workload.traced_items)]
    plain = _worker(base, deadline)
    traced = _worker(base + ["--trace", "--spans", str(spans)], deadline)
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
    detail = {"spans_file": str(spans.relative_to(ROOT)),
              "runs": {"untraced": plain, "traced": traced}}
    return metrics, detail, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hivekit" / "__init__.py").is_file():
        print(f"error: no hivekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    deadline = time.monotonic() + args.seconds + TIME_MARGIN_S
    try:
        if args.trace:
            metrics, detail, runs = trace(workload, args.seed, deadline)
        else:
            metrics, detail, runs = measure(workload, args.seed, args.seconds,
                                            deadline)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    correct = attempted > 0 and failed == 0 and not problems
    if args.trace:
        metrics["fail_ratio"] = failed / attempted if attempted else 1.0
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}

    env = environment(args.seed)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    detail.update(workload=workload.name, trace=args.trace,
                  seconds=args.seconds, fail_ratio=failed / max(attempted, 1),
                  environment=env, result=result)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"items {attempted}  failed {failed}  python {env['python']}  "
          f"nproc {env['nproc']}  load {load_before[0]:.2f}->"
          f"{env['loadavg_after'][0]:.2f}")
    if "item_s_tail_percentile" in detail:
        print(f"item_s_tail is p{detail['item_s_tail_percentile']:.1f} of "
              f"{detail['samples']} items ({detail['item_s_tail_beyond']} above)")
    for name, entry in result["metrics"].items():
        print(f"  {name:28s} {entry['value']:>14.6g} {entry['unit']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
