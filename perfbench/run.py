#!/usr/bin/env python3
"""Benchmark for minortrace: a closed-loop, single-client driver of the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload structured-checked --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

One process sends a seeded cycle of requests through ``minortrace.cli.main``
over JSON files it generated, one request at a time, and checks every
answer.  The program is imported from ``src/`` of the checkout, and nothing
else is accepted in its place.

With ``--trace 0`` the cycle repeats for ``--seconds`` of wall time, with
nothing wrapped, and the set-ups (import plus writing the inputs) are spread
over the same time.  The last line of stdout carries the end-to-end
metrics.  Their times are host-scaled (see ``host_scaled``): a fixed
reference routine runs around each request and set-up, and each time is
divided by it.  Throughput and the median come from each request's median
over its repeats, the tail from all attempts, and setup_s is the median
set-up.  With ``--trace 1`` untraced cycles alternate with cycles run under
the layer wrappers of ``tracing.py``, two more cycles count ring
operations, and the last line carries the per-layer metrics (self time and
counts per request), unscaled.  Summary lines above the last line name
every metric with its unit, the failed fraction, and for traced runs
whether the workload's prediction in ``layer_map.json`` held.  A run exits
0 when it completes; ``"correct"`` is false when any answer or trace check
failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9  # setup_s is the median over this many set-ups, spread over the run
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
COUNT_CYCLES = 2  # op counts of cycle 1 are compared with cycle 2

WORKLOAD_NAMES = ["structured-checked", "dense-oracle", "reject-enumerate"]

# Host speed reference: a fixed pure-Python routine (parse decimal strings,
# a small integer matrix product mod 2^61-1), independent of minortrace.
# Times are reported as seconds on a host where it takes REF_SECONDS.
REF_SECONDS = 0.002
PROBE_SHARE = 0.05  # the reference runs before and after each request for this share of its last time
SETUP_PROBE_SHARE = 0.2  # the same around each set-up, longer since a set-up happens only SETUP_REPEATS times
REF_N = 20
REF_P = (1 << 61) - 1
REF_TEXT = json.dumps([[str((i * 7919 + j * 104729) ** 3 % REF_P) for j in range(REF_N)] for i in range(REF_N)])


def reference_time(span: float) -> float:
    """Mean wall time of a pass of the host speed reference, over passes filling `span` seconds.

    At least one pass runs.
    """
    passes = 0
    t0 = perf_counter()
    while True:
        rows = [[int(x) for x in row] for row in json.loads(REF_TEXT)]
        acc = 0
        for row in rows:
            for j in range(REF_N):
                s = 0
                for k in range(REF_N):
                    s += row[k] * rows[k][j]
                acc = (acc + s) % REF_P
        str(acc)
        passes += 1
        elapsed = perf_counter() - t0
        if elapsed >= span:
            return elapsed / passes


def check_checkout() -> None:
    """Refuse to run without the program's sources in this checkout."""
    init = os.path.join(SRC, "minortrace", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path[:0] = [SRC, HERE]


def import_fresh():
    """Import minortrace (and the benchmark modules built on it) from scratch.

    Earlier imports are dropped from sys.modules first, so each call pays
    the full import of the program.
    """
    for mod in list(sys.modules):
        if mod.split(".")[0] in ("minortrace", "workloads", "tracing"):
            del sys.modules[mod]
    import minortrace.cli  # noqa: F401

    loaded = os.path.abspath(sys.modules["minortrace"].__file__)
    if not loaded.startswith(os.path.join(SRC, "")):
        raise SystemExit(f"error: imported minortrace from {loaded}, not from {SRC}")
    return importlib.import_module("workloads")


class Loop:
    """Latencies, failures and op counts of one closed-loop run."""

    def __init__(self):
        self.latencies: list = []
        self.cycles = 0
        self.failed = Counter()
        self.first_error: dict = {}
        self.bytes_out = 0
        self.ops: list = []  # (mul, add) per request, counting passes only
        self.host: list = []  # reference time around each request, timed runs only

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def record_failure(self, kind: str, why: str) -> None:
        self.failed[kind] += 1
        self.first_error.setdefault(kind, why)


def _call(main, argv):
    try:
        return main(argv), None
    except Exception:  # a crash is a failed request, not a failed benchmark
        return None, traceback.format_exc(limit=3)


def send(req, loop: Loop, tracer=None, counting=False) -> None:
    """Send one request, timing and checking it.

    With a tracer, the request is a root span; with counting, it also runs
    under count_ops() and its (mul, add) counts are kept.
    """
    # imported here because set_up re-imports the program
    from minortrace.cli import main
    from minortrace.rings import count_ops

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            t0 = perf_counter()
            rc, crash = _call(main, req.argv)
            latency = perf_counter() - t0
        else:
            with count_ops() if counting else contextlib.nullcontext() as ops:
                tracer.ops = ops
                span = tracer.begin_request(loop.attempted)
                try:
                    rc, crash = _call(main, req.argv)
                finally:
                    latency = tracer.end_request(span)
            if counting:
                loop.ops.append((ops.mul, ops.add))
    loop.latencies.append(latency)
    text = out.getvalue()
    loop.bytes_out += len(text.encode())
    if crash is not None:
        loop.record_failure(req.kind, crash)
        return
    try:
        why = req.check(rc, text)
    except Exception as exc:  # malformed output fails the check
        why = f"unreadable answer: {exc!r}"
    if why is not None:
        loop.record_failure(req.kind, f"{why}; stderr: {err.getvalue().strip()[:200]}")


def run_cycle(requests, loop: Loop, tracer=None, counting=False) -> None:
    """Send one cycle of requests, one at a time."""
    for req in requests:
        send(req, loop, tracer, counting)
    loop.cycles += 1


def traced_cycle(requests, loop: Loop, tracer, counting=False) -> None:
    tracer.install()
    try:
        run_cycle(requests, loop, tracer, counting)
    finally:
        tracer.uninstall()


def set_up(name: str, seed: int, workdir: str):
    """Import the program afresh and write the workload's inputs; returns (requests, seconds).

    Every set-up starts from the same collected heap, and the objects it
    leaves (the inputs the answer checks keep) are frozen, so they stay out
    of the program's garbage collections.
    """
    gc.unfreeze()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    t0 = perf_counter()
    workloads = import_fresh()
    requests = workloads.build(name, seed, workdir)
    elapsed = perf_counter() - t0
    gc.collect()
    gc.freeze()
    return requests, elapsed


def timed_run(name: str, seed: int, workdir: str, seconds: float):
    """The untraced run: requests in cycles for `seconds`, set-ups spread over it.

    SETUP_REPEATS set-ups are made at even steps of the run, the first
    before any request, so setup_s is a median over the whole run rather
    than over one stretch of it.  Each set-up writes the same files (same
    seed), and its requests replace the last ones in the cycle.  The host
    speed reference runs right before and after each request and set-up,
    for PROBE_SHARE (SETUP_PROBE_SHARE for a set-up) of the time that step
    took last.  The run ends at the
    first request boundary after `seconds`, once every request has run at
    least once.

    Returns the loop, the cycle length, and each set-up's (seconds, mean
    reference time around it).
    """
    t_start = perf_counter()
    setups = []
    requests = None
    loop = Loop()
    while True:
        elapsed = perf_counter() - t_start
        if len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            span = SETUP_PROBE_SHARE * (setups[-1][0] if setups else 0.0)
            requests = None  # the last set-up's inputs are gone before the next is built
            before = reference_time(span)
            requests, took = set_up(name, seed, workdir)
            setups.append((took, (before + reference_time(span)) / 2))
            continue
        if elapsed >= seconds and loop.attempted >= len(requests) and len(setups) == SETUP_REPEATS:
            break
        period = len(requests)
        span = PROBE_SHARE * (loop.latencies[-period] if loop.attempted >= period else 0.0)
        before = reference_time(span)
        send(requests[loop.attempted % period], loop)
        loop.host.append((before + reference_time(span)) / 2)
    loop.cycles = loop.attempted / len(requests)
    return loop, len(requests), setups


def host_scaled(took: float, host: float) -> float:
    """Seconds on a host where the reference takes REF_SECONDS.

    Contention from other work on a shared machine slows the program and
    the reference alike, and it comes and goes in stretches of seconds, so
    dividing by the reference time measured around a step cancels it.
    """
    return took * REF_SECONDS / host


def scaled_latencies(loop: Loop) -> list:
    return [host_scaled(t, h) for t, h in zip(loop.latencies, loop.host)]


def request_times(loop: Loop, period: int) -> list:
    """Each request's median host-scaled latency over its repeats (attempt k is request k % period)."""
    scaled = scaled_latencies(loop)
    return [statistics.median(scaled[i::period]) for i in range(period)]


def median_cycle(loop: Loop, period: int) -> float:
    """Summed median latency of each request (unscaled), over whole cycles."""
    return sum(statistics.median(loop.latencies[i::period]) for i in range(period))


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, period: int, setups: list) -> dict:
    times = request_times(loop, period)
    value, _ = tail(scaled_latencies(loop))
    return {
        "throughput_rps": metric(period / sum(times), "1/s"),
        "latency_p50_s": metric(statistics.median(times), "s"),
        "latency_tail_s": metric(value, "s"),
        "setup_s": metric(statistics.median(host_scaled(t, h) for t, h in setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(requests, seconds: float):
    """Per-request self times and counts, the loops run, and trace problems.

    Untraced and traced cycles alternate until `seconds` of busy time, so
    drift in machine speed hits both sides alike and trace.overhead_frac,
    from each request's median on either side, compares like with like.
    Self times come from the traced cycles, with op counting off.  Counts
    come from a separate pass of COUNT_CYCLES cycles under count_ops(),
    whose cycles must agree exactly.
    """
    from tracing import ROOT, SELF_TIME_LAYERS, Tracer

    plain, timed, counted = Loop(), Loop(), Loop()
    timer, counter = Tracer(), Tracer()
    while timed.cycles == 0 or plain.busy + timed.busy < seconds:
        run_cycle(requests, plain)
        traced_cycle(requests, timed, timer)
    for _ in range(COUNT_CYCLES):
        traced_cycle(requests, counted, counter, counting=True)
    totals, problems = timer.self_times()
    problems += counter.self_times()[1]
    period = len(requests)
    for c in range(1, counted.cycles):
        if counted.ops[c * period:(c + 1) * period] != counted.ops[:period]:
            problems.append(f"ring op counts of cycle {c + 1} differ from cycle 1")

    n, k = timed.attempted, counted.attempted
    counts = counter.counts
    scans = counts["structure.scan_calls"]
    matmuls = counts["matrices.matmul_calls"]
    out = {}
    for layer in SELF_TIME_LAYERS:
        name = "cli.self_s" if layer == ROOT else f"{layer}_s"
        out[name] = metric(totals.get(layer, 0.0) / n, "s")
    out.update({
        "serialize.bytes_in": metric(counts["serialize.bytes_in"] / k, "bytes"),
        "serialize.bytes_out": metric(counted.bytes_out / k, "bytes"),
        "structure.scan_calls": metric(scans / k, "count"),
        "structure.minors_per_scan": metric(counts["structure.minors_examined"] / scans if scans else 0.0, "count"),
        "structure.witness_frac": metric(counts["structure.witnesses"] / scans if scans else 0.0, "ratio"),
        "matrices.matmul_calls": metric(matmuls / k, "count"),
        "matrices.mul_per_matmul": metric(counts["matrices.matmul_muls"] / matmuls if matmuls else 0.0, "count"),
        "rings.mul_count": metric(sum(m for m, _ in counted.ops) / k, "count"),
        "rings.add_count": metric(sum(a for _, a in counted.ops) / k, "count"),
        "oracle.matrices_enumerated": metric(counts["oracle.matrices_enumerated"] / k, "count"),
        "trace.overhead_frac": metric(1.0 - median_cycle(plain, period) / median_cycle(timed, period), "ratio"),
    })
    return out, [plain, timed, counted], timer, problems


def prediction(name: str, metrics: dict) -> str:
    """Whether the workload's predicted leading self times (layer_map.json) lead."""
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        lead = json.load(fh)["workloads"][name]["prediction"]["leading"]
    times = {k: v["value"] for k, v in metrics.items() if k.endswith("_s")}
    top = sorted(times, key=times.get, reverse=True)[: len(lead)]
    busy = sum(times.values())
    shares = ", ".join(f"{k} {100 * times[k] / busy:.1f}%" for k in top)
    held = "held" if set(top) == set(lead) else "FAILED"
    return f"prediction {held}: leading {sorted(lead)}; measured {shares}"


def report(name, seed, loops, metrics: dict, notes):
    attempted = sum(loop.attempted for loop in loops)
    failed = Counter()
    first_error = {}
    for loop in loops:
        failed.update(loop.failed)
        for kind, why in loop.first_error.items():
            first_error.setdefault(kind, why)
    passes = ", ".join(f"{loop.attempted} in {loop.cycles:.4g} cycles" for loop in loops)
    print(f"workload {name} seed {seed}: {attempted} requests ({passes}), "
          f"{sum(failed.values())} failed (failed_frac {sum(failed.values()) / attempted:.4f})")
    for kind, count in sorted(failed.items()):
        print(f"  FAILED {kind} x{count}: {first_error[kind].splitlines()[-1][:300]}")
    for key, m in metrics.items():
        print(f"  {key:<28} {m['value']:<14.6g} {m['unit']}")
    for line in notes:
        print(f"  {line}")
    return attempted, sum(failed.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up, run and report one workload; returns (attempted, failed, metrics, problems)."""
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        if not trace:
            loop, period, setups = timed_run(name, seed, workdir, seconds)
            metrics = end_to_end(loop, period, setups)
            _, pct = tail(scaled_latencies(loop))
            host = statistics.median(loop.host)
            notes = [f"times are host-scaled: seconds on a host where the speed reference takes "
                     f"{REF_SECONDS * 1e3:g} ms; here it took {host * 1e3:.4g} ms (median), "
                     f"{min(loop.host) * 1e3:.4g}-{max(loop.host) * 1e3:.4g} ms",
                     f"unscaled: throughput {loop.attempted / loop.busy:.6g} 1/s, "
                     f"setup {statistics.median(t for t, _ in setups):.6g} s",
                     f"throughput_rps and latency_p50_s use each of the {period} requests' median "
                     f"over its {loop.attempted // period}-{-(-loop.attempted // period)} repeats",
                     f"latency_tail_s is p{pct:.2f} of {loop.attempted} samples, {TAIL_BEYOND} beyond it",
                     f"setup_s is the median of {SETUP_REPEATS} set-ups spread over the run, "
                     "each importing minortrace and writing the inputs"]
            return (*report(name, seed, [loop], metrics, notes), metrics, [])
        requests, _ = set_up(name, seed, workdir)
        metrics, loops, timer, problems = per_layer(requests, seconds)
        timer.write(os.path.join(WORK, f"spans-{name}-seed{seed}.csv.gz"))
        notes = [prediction(name, metrics), f"{len(timer.start)} spans of the timing pass written to .perfbench_work/"]
        notes += [f"TRACE PROBLEM: {p}" for p in problems] or [
            "trace checks passed: spans nest and cover each request; op counts repeat per cycle"]
        return (*report(name, seed, loops, metrics, notes), metrics, problems)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    check_checkout()
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    attempted = failed = 0
    ok = True
    metrics = {}
    for name in names:
        a, f, m, problems = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        ok = ok and not problems
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
