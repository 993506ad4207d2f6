"""Tests of the benchmark itself, on the tiny-* workloads.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

COUNTS = ("ring.ops", "matops.smith_calls", "matops.smith_cells",
          "matops.norm_calls", "lattice.min_calls",
          "lattice.min_smith_per_call", "lattice.max_calls",
          "lattice.max_smith_per_call", "oracle.stabilized_calls",
          "oracle.rounds_per_value", "oracle.fingerprint_calls",
          "oracle.fingerprint_calls_warmup")


def run_bench(root, workload, trace, seed=5, seconds=0.3):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_names_what_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["hive-p2", "oracle-p2"]
    expected = wl.load_expected()
    for name in ("hive-p2", "hive-tadic", "oracle-p2"):
        workload = wl.WORKLOADS[name]
        assert len(wl.pool_records(workload, expected)) == workload.pool_size


@pytest.mark.parametrize("workload", ["tiny-hive", "tiny-oracle"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines())


def test_changed_hive_entry_trips_the_digest_gate():
    workload = wl.WORKLOADS["tiny-hive"]
    rec = wl.pool_records(workload, wl.load_expected())[0]
    inst = wl.make_instance(workload, rec["seed"])
    _, rows, err = wl.run_item(workload, inst, time.perf_counter)
    assert err is None
    types = wl.expected_types(inst)
    assert wl.check_item(workload, types, rows, rec["digest"])[1] == []
    rows["swapped"][1][0] += 1
    _, problems = wl.check_item(workload, types, rows, rec["digest"])
    assert any(p.startswith("digest") for p in problems)


def test_run_exits_nonzero_on_a_digest_mismatch(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "benchmarks" / "expected.json"
    expected = json.loads(path.read_text())
    for rec in expected["tiny-hive"]["instances"]:
        rec["digest"] = "0" * 16
    path.write_text(json.dumps(expected))
    proc, result = run_bench(tmp_path, "tiny-hive", 0)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench(tmp_path, "tiny-hive", 0)
    assert proc.returncode != 0 and result is None


def test_tracer_restores_every_wrapped_attribute():
    before = tracing.traced_objects()
    assert ("hivekit.lattice", "smith_decompose") in before
    assert ("hivekit.matops", "smith_decompose") in before
    assert ("RingElement", "__add__") in before
    with pytest.raises(KeyError):
        with tracing.Tracer():
            during = tracing.traced_objects()
            assert during.keys() == before.keys()
            assert all(during[k] is not before[k] for k in before)
            raise KeyError("leave the block by an exception")
    after = tracing.traced_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_untraced_run_after_a_traced_one_sees_the_originals():
    workload = wl.WORKLOADS["tiny-hive"]
    before = tracing.traced_objects()
    traced = worker.run(workload, 2, items=workload.traced_items, trace=True)
    plain = worker.run(workload, 2, items=workload.traced_items)
    assert traced["failed"] == plain["failed"] == 0
    assert traced["run_digest"] == plain["run_digest"]
    after = tracing.traced_objects()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", ["tiny-hive", "tiny-oracle"])
def test_counts_repeat_exactly_across_traced_runs(workload):
    first = run_bench(ROOT, workload, 1, seed=7)[1]["metrics"]
    second = run_bench(ROOT, workload, 1, seed=7)[1]["metrics"]
    assert first["matops.smith_calls"]["value"] > 0
    assert {k: first[k]["value"] for k in COUNTS} == \
        {k: second[k]["value"] for k in COUNTS}
