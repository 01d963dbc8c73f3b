#!/usr/bin/env python3
"""Write one benchmark baseline file from the checkout's existing harnesses.

Run from anywhere in a checkout:

    python3 scripts/bench_baseline.py --out BENCH_<n>.json

With fixed seeds (``PERFBENCH_SEED`` for every ``perfbench`` run, each as
long as ``run_seconds`` in BENCHMARK.json) it collects, into one JSON
object:

- ``end_to_end``: for each workload of BENCHMARK.json, the metrics of
  ``perfbench/run.py --workload <w> --trace 0`` (host-scaled throughput,
  latencies, set-up time and peak RSS);
- ``per_layer``: for each workload, the metrics of
  ``perfbench/run.py --workload all --trace 1`` (self time per layer and
  op counts per request);
- ``run_bench``: ``minortrace.bench.run_bench`` rows at n = 32, 64, 128
  and 256 (reps 5, seed 0) over Z/(2^61 - 1), Z and GF(65537), each as
  ``serialize.bench_result_to_obj`` writes it.

Each ``perfbench`` run is a subprocess, and its ``correct``, ``attempted``
and ``failed`` fields are kept beside its metrics (under ``runs``).  The
file also records the git revision (and whether the tree had local
changes), the Python version, ``os.cpu_count()``, the seeds and the
seconds per workload.  Timings are for the host the command ran on; a
later change that claims a speedup writes its own file with the same
command and compares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from minortrace.bench import run_bench  # noqa: E402
from minortrace.rings import IntegerRing, ModularRing, PrimeFieldRing  # noqa: E402
from minortrace.serialize import bench_result_to_obj  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
PERFBENCH_SECONDS = _BENCHMARK["run_seconds"]
PERFBENCH_SEED = 1
BENCH_SIZES = [32, 64, 128, 256]
BENCH_RINGS = [ModularRing(2**61 - 1), IntegerRing(), PrimeFieldRing(65537)]
BENCH_REPS = 5
BENCH_SEED = 0


def perfbench(workload: str, trace: int) -> dict:
    """The last stdout line of one perfbench/run.py process, as JSON."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(PERFBENCH_SEED), "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def run_entry(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    args = parser.parse_args()

    end_to_end, runs = {}, {}
    for name in WORKLOADS:
        result = perfbench(name, 0)
        end_to_end[name] = result["metrics"]
        runs[f"trace0/{name}"] = run_entry(result)
    traced = perfbench("all", 1)
    runs["trace1/all"] = run_entry(traced)
    per_layer = {name: {} for name in WORKLOADS}
    for key, value in traced["metrics"].items():
        name, _, metric = key.partition(".")
        per_layer[name][metric] = value
    rows = [bench_result_to_obj(run_bench(n, ring, BENCH_REPS, BENCH_SEED))
            for ring in BENCH_RINGS for n in BENCH_SIZES]

    baseline = {
        "git_revision": git("rev-parse", "HEAD").strip(),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "perfbench": {"seed": PERFBENCH_SEED, "seconds": PERFBENCH_SECONDS, "workloads": WORKLOADS},
        "runs": runs,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "run_bench": {"reps": BENCH_REPS, "seed": BENCH_SEED, "rows": rows},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
