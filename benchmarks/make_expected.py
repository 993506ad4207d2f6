"""Regenerate the stored pool of a workload in ``expected.json``.

For every pool seed this builds the pair, runs the item, checks it
(everything except the digest, which is what is being made) and stores
the hive digest.  Hives must stay bit-identical across versions, so
rerun this only when a workload's shape changes:

    python3 benchmarks/make_expected.py hive-p2 hive-tadic oracle-p2
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads as wl  # noqa: E402


def pool(workload) -> list:
    records = []
    for seed in range(workload.pool_size):
        inst = wl.make_instance(workload, seed)
        _, out, err = wl.run_item(workload, inst, time.perf_counter)
        if err is not None:
            raise wl.BenchmarkError(f"{workload.name} seed {seed}: {err}")
        got, problems = wl.check_item(workload, wl.expected_types(inst), out,
                                      None)
        if problems:
            raise wl.BenchmarkError(f"{workload.name} seed {seed}: {problems}")
        records.append({"seed": seed, "digest": got})
        print(f"{workload.name} seed {seed}: {got}", flush=True)
    return records


def main(names) -> int:
    made = {}
    for name in names:
        workload = wl.WORKLOADS[name]
        made[name] = {"shape": {k: getattr(workload, k) for k in
                                ("ring", "n", "max_exp", "mix_steps")},
                      "instances": pool(workload)}
    try:
        expected = wl.load_expected()
    except FileNotFoundError:
        expected = {}
    expected.update(made)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(expected.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
