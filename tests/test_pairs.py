"""scripts/pairs.py summarizes parent/change pairs of benchmark result lines.

Only the summary is tested here, on canned result lines: running the
benchmark itself takes minutes.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(ROOT, "scripts", "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def line(rps, p50, correct=True, failed=0):
    """One result line as perfbench/run.py prints it last."""
    return {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"throughput_rps": {"value": rps, "unit": "1/s"},
                    "latency_p50_s": {"value": p50, "unit": "s"}},
    }


def test_the_summary_gives_values_medians_spread_and_wins():
    # quartiles interpolate between the sorted values, as numpy's default
    # percentile does: 98 100 102 104 gives 99.5 and 102.5
    runs = [(line(100, 0.010), line(110, 0.009)),
            (line(104, 0.011), line(103, 0.011)),
            (line(102, 0.012), line(120, 0.010)),
            (line(98, 0.010), line(115, 0.010))]
    lines, ok = pairs.summarize(runs, METRICS)
    assert ok
    assert lines == [
        "throughput_rps [1/s, higher is better]",
        "  parent  100 104 102 98",
        "  change  110 103 120 115",
        "  median  parent 101, change 112.5 (+11.4%); parent IQR 3",
        "  change better in 3 of 4 pairs",
        "  within its bound (25% of the parent's median is 25.2)",
        "latency_p50_s [s, lower is better]",
        "  parent  0.01 0.011 0.012 0.01",
        "  change  0.009 0.011 0.01 0.01",
        # a tie is no win
        "  median  parent 0.0105, change 0.01 (-4.8%); parent IQR 0.00125",
        "  change better in 2 of 4 pairs",
        "  within its bound (25% of the parent's median is 0.00262)",
    ]


def test_a_run_that_failed_or_was_wrong_is_reported():
    runs = [(line(100, 0.010), line(110, 0.009, failed=3)),
            (line(100, 0.010, correct=False), line(110, 0.009))]
    lines, ok = pairs.summarize(runs, METRICS[:1])
    assert not ok
    assert lines[:2] == ["pair 1 change: correct True, 3 of 100 requests failed",
                         "pair 2 parent: correct False, 0 of 100 requests failed"]
    assert lines[-2:] == ["  change better in 2 of 2 pairs",
                          "  within its bound (25% of the parent's median is 25)"]


def test_one_pair_has_no_spread():
    lines, ok = pairs.summarize([(line(100, 0.010), line(90, 0.011))], METRICS[:1])
    assert ok and lines[-3:] == ["  median  parent 100, change 90 (-10.0%); parent IQR 0",
                                 "  change better in 0 of 1 pairs",
                                 "  within its bound (25% of the parent's median is 25)"]


@pytest.mark.parametrize("parent, change, verdict, ok", [
    # 4.5% slower with no spread: well inside a 25% bound
    ([100, 100, 100, 100], [95, 96, 94, 97], "within its bound", True),
    # 30% slower, past the 25% bound
    ([100, 100, 100, 100], [70, 70, 70, 70], "worse beyond its bound", False),
    # 10% slower, but the parent's IQR of 30 is past 25% of its median
    ([40, 100, 100, 160], [90, 90, 90, 90], "unresolved", True),
    # the same spread, but every run of the change beats every run of the parent
    ([40, 100, 100, 160], [170, 180, 170, 180], "within its bound", True),
], ids=["within", "worse", "unresolved", "every-run-better"])
def test_each_metric_gets_a_verdict_against_its_bound(parent, change, verdict, ok):
    runs = [(line(p, 0.010), line(c, 0.010)) for p, c in zip(parent, change)]
    lines, passed = pairs.summarize(runs, METRICS[:1])
    assert passed is ok
    assert lines[-1] == f"  {verdict} (25% of the parent's median is 25)"


def test_a_lower_is_better_metric_is_worse_when_it_rises():
    runs = [(line(100, 0.010), line(100, 0.013))] * 3
    lines, ok = pairs.summarize(runs, METRICS[1:])
    assert not ok
    assert lines[-1] == "  worse beyond its bound (25% of the parent's median is 0.0025)"
