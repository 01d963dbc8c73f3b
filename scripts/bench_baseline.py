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
  ``serialize.bench_result_to_obj`` writes it;
- ``process``: the wall time of a whole ``python3 -m minortrace`` process
  for ``check`` and for ``verify --fast`` on fixed seeded 32x32 files over
  Z/(2^61 - 1) (a structured A, a random B), minus that of ``python3 -c
  pass``, each the least of 15 runs taken in turn with the others.  It is recorded twice: under the
  environment the command runs in (``host_bytecode``; with
  ``PYTHONDONTWRITEBYTECODE`` set, every process compiles every module it
  imports), and with bytecode cached by ``-X pycache_prefix`` in a
  temporary directory, ``PYTHONDONTWRITEBYTECODE`` unset for those runs
  only (``cached_bytecode``).

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
import random
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from minortrace.bench import run_bench  # noqa: E402
from minortrace.rings import IntegerRing, ModularRing, PrimeFieldRing  # noqa: E402
from minortrace.serialize import bench_result_to_obj, dumps, matrix_to_obj  # noqa: E402
from minortrace.structure import gen_structured, random_matrix  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in _BENCHMARK["workloads"]]
PERFBENCH_SECONDS = _BENCHMARK["run_seconds"]
PERFBENCH_SEED = 1
BENCH_SIZES = [32, 64, 128, 256]
BENCH_RINGS = [ModularRing(2**61 - 1), IntegerRing(), PrimeFieldRing(65537)]
BENCH_REPS = 5
BENCH_SEED = 0
PROCESS_N = 32
PROCESS_RING = ModularRing(2**61 - 1)
PROCESS_SEED = 0
PROCESS_RUNS = 15


def perfbench(workload: str, trace: int) -> dict:
    """The last stdout line of one perfbench/run.py process, as JSON."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(PERFBENCH_SEED), "--seconds", str(PERFBENCH_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def min_walls(cmds: list, env: dict) -> list:
    """Each command's least wall time over PROCESS_RUNS rounds; each must exit 0.

    The commands take turns within a round, so a stretch of host noise
    falls on all of them rather than on every run of one.
    """
    best = [float("inf")] * len(cmds)
    for _ in range(PROCESS_RUNS):
        for i, cmd in enumerate(cmds):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, capture_output=True)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def process_rows() -> dict:
    """Seconds a minortrace process takes over python3 -c pass, per bytecode setting."""
    rows = {"n": PROCESS_N, "ring": str(PROCESS_RING), "seed": PROCESS_SEED, "runs": PROCESS_RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(dumps(matrix_to_obj(gen_structured(PROCESS_SEED, PROCESS_RING, PROCESS_N))))
        with open(b, "w", encoding="utf-8") as fh:
            rng = random.Random(PROCESS_SEED)
            fh.write(dumps(matrix_to_obj(random_matrix(rng, PROCESS_RING, PROCESS_N, PROCESS_N))))
        host = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        cached = {k: v for k, v in host.items() if k != "PYTHONDONTWRITEBYTECODE"}
        prefix = ["-X", f"pycache_prefix={os.path.join(tmp, 'pycache')}"]
        for setting, env, flags in (("host_bytecode", host, []), ("cached_bytecode", cached, prefix)):
            python = [sys.executable, *flags]
            if flags:  # fill the cache before timing
                subprocess.run([*python, "-m", "minortrace", "check", a], env=env, check=True,
                               capture_output=True)
            base, check, verify = min_walls(
                [[*python, "-c", "pass"], [*python, "-m", "minortrace", "check", a],
                 [*python, "-m", "minortrace", "verify", a, b, "--fast"]], env)
            rows[setting] = {"python_c_pass_s": base, "check_over_pass_s": check - base,
                             "verify_fast_over_pass_s": verify - base}
    return rows


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
        "process": process_rows(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
