"""scripts/pairs.py summarizes parent/change pairs of benchmark result lines.

Only the summary is tested here, on canned result lines: running the
benchmark itself takes minutes.
"""

import importlib.util
import os

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
    lines, clean = pairs.summarize(runs, METRICS)
    assert clean
    assert lines == [
        "throughput_rps [1/s, higher is better]",
        "  parent  100 104 102 98",
        "  change  110 103 120 115",
        "  median  parent 101, change 112.5 (+11.4%); parent IQR 3",
        "  change better in 3 of 4 pairs",
        "latency_p50_s [s, lower is better]",
        "  parent  0.01 0.011 0.012 0.01",
        "  change  0.009 0.011 0.01 0.01",
        # a tie is no win
        "  median  parent 0.0105, change 0.01 (-4.8%); parent IQR 0.00125",
        "  change better in 2 of 4 pairs",
    ]


def test_a_run_that_failed_or_was_wrong_is_reported():
    runs = [(line(100, 0.010), line(110, 0.009, failed=3)),
            (line(100, 0.010, correct=False), line(110, 0.009))]
    lines, clean = pairs.summarize(runs, METRICS[:1])
    assert not clean
    assert lines[:2] == ["pair 1 change: correct True, 3 of 100 requests failed",
                         "pair 2 parent: correct False, 0 of 100 requests failed"]
    assert lines[-1] == "  change better in 2 of 2 pairs"


def test_one_pair_has_no_spread():
    lines, clean = pairs.summarize([(line(100, 0.010), line(90, 0.011))], METRICS[:1])
    assert clean and lines[-2:] == ["  median  parent 100, change 90 (-10.0%); parent IQR 0",
                                    "  change better in 0 of 1 pairs"]
