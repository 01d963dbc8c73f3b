#!/usr/bin/env python3
"""Compare a parent revision with this checkout in alternating benchmark runs.

Run from anywhere in a checkout:

    python3 scripts/pairs.py --parent REV --workload W --pairs K --seconds S

The parent's committed files are written by ``git archive`` into a
temporary directory, which is removed on every exit, SIGTERM included; the
repository itself is left as it was.  The change is this checkout's
working tree, uncommitted edits and all.  For each of K pairs the script
runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once
in each tree, one process at a time, and swaps which side goes first from
one pair to the next, so a drift of the host falls on both sides.

It then prints, for every end-to-end metric of BENCHMARK.json, each
pair's two values, the two medians and their relative gap, the parent's
interquartile range, in how many pairs the change is better, and a
verdict against the metric's bound, a fraction of the parent's median:
- worse beyond its bound: the change's median is worse than the parent's
  by more than that amount;
- unresolved: the parent's IQR exceeds that amount, and not every run of
  the change beats every run of the parent;
- within its bound: otherwise.
A metric worse beyond its bound, and a run that is not correct or that
failed a request, are reported, and the script exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def end_to_end_metrics() -> list:
    """The end-to-end metrics of BENCHMARK.json, each a dict with name, unit, better and bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def export(rev: str, dest: str) -> None:
    """Write the files committed at rev into dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench/run.py process in tree, as JSON."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summarize(pairs: list, metrics: list) -> tuple[list, bool]:
    """The report lines for pairs of (parent, change) result lines, and whether the change passes.

    A result line is what perfbench/run.py prints last: correct, attempted,
    failed and metrics, each metric a dict with value and unit.  The
    change is better in a pair when its value is strictly better in the
    metric's direction.  It passes when every run was clean and no metric
    is worse beyond its bound.
    """
    lines = []
    ok = True
    for i, pair in enumerate(pairs, 1):
        for side, result in zip(SIDES, pair):
            if not result["correct"] or result["failed"]:
                ok = False
                lines.append(f"pair {i} {side}: correct {result['correct']}, "
                             f"{result['failed']} of {result['attempted']} requests failed")
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        values = [[pair[k]["metrics"][name]["value"] for pair in pairs] for k in range(2)]
        parent, change = values
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        mid = [statistics.median(v) for v in values]
        gap = (mid[1] - mid[0]) / mid[0] if mid[0] else float("nan")
        q1, q3 = 0, 0
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        allowed = bound * mid[0]
        worse_by = (mid[0] - mid[1]) if higher else (mid[1] - mid[0])
        all_better = min(change) > max(parent) if higher else max(change) < min(parent)
        if worse_by > allowed:
            ok = False
            verdict = "worse beyond its bound"
        elif q3 - q1 > allowed and not all_better:
            verdict = "unresolved"
        else:
            verdict = "within its bound"
        lines.append(f"{name} [{metric['unit']}, {metric['better']} is better]")
        for side, v in zip(SIDES, values):
            lines.append(f"  {side:<7} " + " ".join(f"{x:.6g}" for x in v))
        lines.append(f"  median  parent {mid[0]:.6g}, change {mid[1]:.6g} ({gap:+.1%}); "
                     f"parent IQR {q3 - q1:.3g}")
        lines.append(f"  change better in {wins} of {len(pairs)} pairs")
        lines.append(f"  {verdict} ({bound:.0%} of the parent's median is {allowed:.3g})")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    # SIGTERM unwinds like Ctrl-C, so the temporary tree is removed either way
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        export(args.parent, tmp)
        trees = {"parent": tmp, "change": ROOT}
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            got = {}
            for side in order:
                got[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
                tput = got[side]["metrics"]["throughput_rps"]["value"]
                print(f"pair {i + 1} {side}: throughput_rps {tput:.6g}", file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
    lines, ok = summarize(pairs, end_to_end_metrics())
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"parent {args.parent}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
