"""The committed BENCH_*.json baselines parse and carry the documented keys.

They are written by scripts/bench_baseline.py.  No timing is asserted:
the numbers belong to the host that wrote them.
"""

import glob
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_BENCH_ROW = {"n", "ring", "reps", "naive_median_s", "fast_median_s", "speedup", "agreement_checked"}
RUN_BENCH_RINGS = [{"kind": "mod", "modulus": str(2**61 - 1)}, {"kind": "int"}, {"kind": "gf", "p": "65537"}]
KEYS = {"git_revision", "git_dirty", "python", "cpu_count", "perfbench", "runs", "end_to_end", "per_layer",
        "run_bench"}
FIRST_WITH_PROCESS = 25  # BENCH_<n>.json files from this n on carry the process section
PROCESS_ROWS = {"python_c_pass_s", "check_over_pass_s", "verify_fast_over_pass_s"}


def number(path):
    return int(os.path.basename(path)[len("BENCH_") : -len(".json")])


def test_a_baseline_is_committed():
    assert BASELINES


def assert_metrics(metrics, names):
    assert set(metrics) == set(names)
    for name in names:
        assert set(metrics[name]) == {"value", "unit"}
        assert isinstance(metrics[name]["value"], (int, float))


@pytest.mark.parametrize("path", BASELINES, ids=os.path.basename)
def test_baseline_has_the_documented_keys(path):
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == (KEYS | {"process"} if number(path) >= FIRST_WITH_PROCESS else KEYS)
    assert len(bench["git_revision"]) == 40 and isinstance(bench["git_dirty"], bool)
    assert bench["python"].count(".") == 2 and bench["cpu_count"] >= 1
    assert bench["perfbench"] == {"seed": 1, "seconds": BENCHMARK["run_seconds"], "workloads": WORKLOADS}
    assert set(bench["runs"]) == {f"trace0/{w}" for w in WORKLOADS} | {"trace1/all"}
    for run in bench["runs"].values():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0

    assert set(bench["end_to_end"]) == set(bench["per_layer"]) == set(WORKLOADS)
    for w in WORKLOADS:
        assert_metrics(bench["end_to_end"][w], [m["name"] for m in BENCHMARK["end_to_end"]])
        assert_metrics(bench["per_layer"][w], [m["name"] for m in BENCHMARK["per_layer"]])

    rb = bench["run_bench"]
    assert (rb["reps"], rb["seed"]) == (5, 0)
    assert [(row["ring"], row["n"]) for row in rb["rows"]] == [
        (ring, n) for ring in RUN_BENCH_RINGS for n in (32, 64, 128, 256)
    ]
    for row in rb["rows"]:
        assert set(row) == RUN_BENCH_ROW and row["reps"] == 5 and row["agreement_checked"]


@pytest.mark.parametrize(
    "path", [p for p in BASELINES if number(p) >= FIRST_WITH_PROCESS], ids=os.path.basename
)
def test_process_section_has_its_rows(path):
    with open(path, encoding="utf-8") as fh:
        process = json.load(fh)["process"]
    assert set(process) == {"n", "ring", "seed", "runs", "host_bytecode", "cached_bytecode"}
    assert (process["n"], process["ring"], process["seed"], process["runs"]) == (32, f"Z/{2**61 - 1}", 0, 15)
    for setting in ("host_bytecode", "cached_bytecode"):
        rows = process[setting]
        assert set(rows) == PROCESS_ROWS
        assert all(isinstance(v, float) for v in rows.values()) and rows["python_c_pass_s"] > 0
