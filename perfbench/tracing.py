"""Span recording from outside the program, for the traced benchmark run.

``Tracer.install`` rebinds the public names that ``minortrace.cli``,
``minortrace.kernels`` and ``minortrace.structure`` call, plus
``Matrix.__matmul__`` and ``Matrix.scale``, to wrappers that record one span
per call: name, start, end, parent span and request id.  Spans live in flat
arrays in memory and are written out after the run.  Only the benchmark
process is affected, and ``uninstall`` restores every original.

Names bound elsewhere are left alone on purpose: ``oracle`` keeps its own
``check_vanishing_minors`` and ``naive_aba``, so the scans and enumeration
inside ``exhaust`` count as ``oracle.exhaust`` self time, while the products
it forms still show up under ``matrices.matmul``.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

from minortrace import cli, kernels, structure
from minortrace.matrices import Matrix

ROOT = "cli"

# (owner, attribute, span name); owner is a module or the Matrix class
TRACED_NAMES = [
    (cli, "loads", "serialize.parse"),
    (cli, "matrix_from_obj", "serialize.parse"),
    (cli, "parse_ring_spec", "serialize.parse"),
    (cli, "dumps", "serialize.emit"),
    (cli, "matrix_to_obj", "serialize.emit"),
    (cli, "verdict_to_obj", "serialize.emit"),
    (cli, "probe_report_to_obj", "serialize.emit"),
    (cli, "factors_to_obj", "serialize.emit"),
    (cli, "equivalence_report_to_obj", "serialize.emit"),
    (cli, "check_vanishing_minors", "structure.scan"),
    (kernels, "check_vanishing_minors", "structure.scan"),
    (structure, "check_vanishing_minors", "structure.scan"),
    (kernels, "trace_of_product", "kernels.trace"),
    (cli, "structured_power", "kernels.power"),
    (cli, "probe_converse", "probe.probe"),
    (cli, "verify_identity", "oracle.verify_identity"),
    (cli, "exhaustive_characterization", "oracle.exhaust"),
    (Matrix, "__matmul__", "matrices.matmul"),
    (Matrix, "scale", "matrices.scale"),
]

SELF_TIME_LAYERS = [
    "serialize.parse",
    "serialize.emit",
    "structure.scan",
    "kernels.trace",
    "kernels.power",
    "matrices.matmul",
    "matrices.scale",
    "probe.probe",
    "oracle.verify_identity",
    "oracle.exhaust",
    ROOT,
]


def _pairs_before(first: int, second: int, size: int) -> int:
    """Index of the pair (first, second), first < second, in lexicographic order."""
    return first * (2 * size - first - 1) // 2 + (second - first - 1)


def minors_examined(a: Matrix, verdict) -> int:
    """How many minors the lexicographic scan evaluated to reach its verdict."""
    col_pairs = a.cols * (a.cols - 1) // 2
    if verdict.structured:
        return a.rows * (a.rows - 1) // 2 * col_pairs
    idx = verdict.witness.index
    return _pairs_before(idx.i, idx.j, a.rows) * col_pairs + _pairs_before(idx.k, idx.l, a.cols) + 1


class Tracer:
    """Spans and counts for one traced run; one request open at a time."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self._stack = [-1]
        self._request = -1
        self.ops = None  # the active count_ops() record, in a counting pass
        self.counts = defaultdict(int)
        self._saved: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def begin_request(self, request_id: int) -> int:
        self._request = request_id
        idx = self._open(ROOT)
        self.start[idx] = perf_counter()
        return idx

    def end_request(self, idx: int) -> float:
        self.end[idx] = perf_counter()
        self._stack.pop()
        return self.end[idx] - self.start[idx]

    def _wrap(self, name, fn, after):
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counts recorded at the layer boundaries ------------------------------

    def _after_loads(self, args, result):
        self.counts["serialize.bytes_in"] += len(args[0].encode())

    def _after_scan(self, args, verdict):
        self.counts["structure.scan_calls"] += 1
        self.counts["structure.minors_examined"] += minors_examined(args[0], verdict)
        self.counts["structure.witnesses"] += not verdict.structured

    def _after_exhaust(self, args, report):
        self.counts["oracle.matrices_enumerated"] += report.total

    def _matmul(self, fn):
        traced = self._wrap("matrices.matmul", fn, None)

        def counted(a, b):
            if self.ops is None:  # timing pass: no op counting
                return traced(a, b)
            before = self.ops.mul
            result = traced(a, b)
            self.counts["matrices.matmul_calls"] += 1
            self.counts["matrices.matmul_muls"] += self.ops.mul - before
            return result

        return counted

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        after = {
            "loads": self._after_loads,
            "check_vanishing_minors": self._after_scan,
            "exhaustive_characterization": self._after_exhaust,
        }
        for owner, attr, name in TRACED_NAMES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if name == "matrices.matmul":
                wrapper = self._matmul(original)
            else:
                wrapper = self._wrap(name, original, after.get(attr))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Total self time per span name, and a list of nesting violations.

        A span's self time is its duration minus its children's.  Every
        non-root span must lie inside its parent and in the same request,
        and no self time may be negative, so the self times of one request
        add up to that request's wall time.
        """
        n = len(self.start)
        start, end, parent, request = self.start, self.end, self.parent, self.request
        child = [0.0] * n
        problems = []
        for idx in range(n):
            p = parent[idx]
            if p < 0:
                if self.names[self.name_id[idx]] != ROOT:
                    problems.append(f"span {idx} has no parent request")
                continue
            if request[p] != request[idx] or start[idx] < start[p] or end[idx] > end[p]:
                problems.append(f"span {idx} is not inside its parent {p}")
            child[p] += end[idx] - start[idx]
        totals = defaultdict(float)
        per_request = defaultdict(float)
        for idx in range(n):
            own = end[idx] - start[idx] - child[idx]
            if own < -1e-9:
                problems.append(f"span {idx} has negative self time {own}")
            totals[self.names[self.name_id[idx]]] += own
            per_request[request[idx]] += own
        for idx in range(n):
            if parent[idx] < 0:
                wall = end[idx] - start[idx]
                if abs(per_request[request[idx]] - wall) > 1e-6 * max(wall, 1.0):
                    problems.append(f"request {request[idx]}: self times do not add up to its wall time")
        return totals, problems[:5]

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: span, parent, request, name, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,request,name,start_s,end_s\n")
            names = self.names
            for idx in range(len(self.start)):
                fh.write(
                    f"{idx},{self.parent[idx]},{self.request[idx]},{names[self.name_id[idx]]},"
                    f"{self.start[idx]!r},{self.end[idx]!r}\n"
                )
