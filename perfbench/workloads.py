"""Seeded request mixes for the benchmark, and an answer check per request.

A workload is a fixed list of CLI requests (one "cycle").  The seed picks
matrix entries, power exponents and the order of the cycle; it never picks
which (ring, size, command) triples are in the cycle, so every seed does the
same amount of work and the figures compare across seeds.

Inputs are built with the public generators (``gen_structured``,
``random_matrix``) and written with ``matrix_to_obj``/``dumps``.  Each
answer is checked with plain Python integer arithmetic on the driver's own
copy of the input, never by calling back into the layer being timed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from minortrace.serialize import dumps, matrix_to_obj, parse_ring_spec
from minortrace.structure import gen_structured, random_matrix

P61 = (1 << 61) - 1
GF_P = 65537


@dataclass
class Request:
    """One CLI invocation and the check its answer must pass."""

    kind: str
    argv: list
    check: Callable[[int, str], str | None]  # returns None, or why it failed


# ---------------------------------------------------------------------------
# Plain arithmetic, written apart from minortrace.rings


class PlainRing:
    """Entry arithmetic on Python ints (or int tuples for poly:int:x)."""

    def __init__(self, spec: str):
        self.poly = spec.startswith("poly:")
        self.modulus = int(spec.split(":")[1]) if spec.startswith(("mod:", "gf:")) else None

    @staticmethod
    def _strip(coeffs) -> tuple:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def zero(self):
        return () if self.poly else 0

    def add(self, x, y):
        if self.poly:
            if len(x) < len(y):
                x, y = y, x
            return self._strip([c + (y[i] if i < len(y) else 0) for i, c in enumerate(x)])
        s = x + y
        return s % self.modulus if self.modulus else s

    def sub(self, x, y):
        if self.poly:
            return self.add(x, tuple(-c for c in y))
        s = x - y
        return s % self.modulus if self.modulus else s

    def mul(self, x, y):
        if self.poly:
            if not x or not y:
                return ()
            out = [0] * (len(x) + len(y) - 1)
            for i, c in enumerate(x):
                for j, d in enumerate(y):
                    out[i + j] += c * d
            return self._strip(out)
        p = x * y
        return p % self.modulus if self.modulus else p

    def decode(self, obj):
        """An element as the CLI prints it (decimal strings) -> plain value."""
        if self.poly:
            return tuple(int(c, 10) for c in obj)
        return int(obj, 10)

    def trace_ab(self, a, b):
        acc = self.zero()
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                acc = self.add(acc, self.mul(x, b[j][i]))
        return acc

    def trace(self, a):
        acc = self.zero()
        for i in range(len(a)):
            acc = self.add(acc, a[i][i])
        return acc

    def scale(self, t, a):
        return [[self.mul(t, x) for x in row] for row in a]

    def minor(self, a, i, j, k, l):
        return self.sub(self.mul(a[i][k], a[j][l]), self.mul(a[i][l], a[j][k]))


# ---------------------------------------------------------------------------
# Answer checks.  Each returns None when the answer is right.


def _rows(plain: PlainRing, mobj, ring_obj):
    if mobj.get("ring") != ring_obj:
        raise ValueError(f"ring {mobj.get('ring')!r}, expected {ring_obj!r}")
    return [[plain.decode(x) for x in row] for row in mobj["rows"]]


def _expect_rc(rc: int, want: int) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_structured_verdict(rc, out):
    return _expect_rc(rc, 0) or (None if json.loads(out) == {"structured": True} else "not structured")


def make_scaled_check(plain, ring_obj, a, scalar_fn, key):
    """Result (under out[key], or the whole output) must equal t*A."""

    def check(rc, out):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(out)
        got = _rows(plain, obj[key] if key else obj, ring_obj)
        return None if got == plain.scale(scalar_fn(), a) else "result is not t*A"

    return check


def make_both_check(plain, ring_obj, a, b):
    def check(rc, out):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(out)
        if obj.get("agree") is not True:
            return "fast and naive do not agree"
        if obj["naive"] != obj["fast"]:
            return "agree reported, but the matrices differ"
        ok = _rows(plain, obj["fast"], ring_obj) == plain.scale(plain.trace_ab(a, b), a)
        return None if ok else "fast result is not Tr(AB)*A"

    return check


def make_naive_check(plain, ring_obj, a, b):
    def check(rc, out):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(out)
        if obj.get("residual_zero") is not True:
            return "residual not zero"
        zero = plain.zero()
        if any(x != zero for row in _rows(plain, obj["residual"], ring_obj) for x in row):
            return "residual_zero reported, but the residual has a nonzero entry"
        ok = _rows(plain, obj["aba"], ring_obj) == plain.scale(plain.trace_ab(a, b), a)
        return None if ok else "ABA is not Tr(AB)*A"

    return check


def make_decompose_check(plain, ring_obj, a):
    def check(rc, out):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        factors = json.loads(out)["factors"]
        col = [r[0] for r in _rows(plain, factors["col"], ring_obj)]
        (row,) = _rows(plain, factors["row"], ring_obj)
        n = len(a)
        if len(col) != n or len(row) != n:
            return "factor shapes do not match A"
        ok = all(plain.mul(col[i], row[j]) == a[i][j] for i in range(n) for j in range(n))
        return None if ok else "col @ row is not A"

    return check


def _minor_at(a, rows, cols):
    (i, j), (k, l) = rows, cols
    n = len(a)
    if not (1 <= i < j <= n and 1 <= k < l <= n):
        raise ValueError(f"minor index out of range: rows {rows}, cols {cols}")
    return i - 1, j - 1, k - 1, l - 1


def make_witness_check(plain, a):
    """A `check` witness must be a nonzero minor; re-evaluated in O(1)."""

    def check(rc, out):
        bad = _expect_rc(rc, 1)
        if bad:
            return bad
        w = json.loads(out)["witness"]
        i, j, k, l = _minor_at(a, w["rows"], w["cols"])
        v = plain.minor(a, i, j, k, l)
        if v == plain.zero() or plain.decode(w["value"]) != v:
            return "witness is not the nonzero minor it names"
        return None

    return check


def make_probe_check(plain, a):
    """A probe witness: nonzero minor, the unit probe it implies, lhs - rhs = -minor."""

    def check(rc, out):
        bad = _expect_rc(rc, 1)
        if bad:
            return bad
        w = json.loads(out)["witness"]
        i, j, k, l = _minor_at(a, w["minor_rows"], w["minor_cols"])
        v = plain.minor(a, i, j, k, l)
        lhs, rhs = plain.decode(w["lhs"]), plain.decode(w["rhs"])
        ok = (
            v != plain.zero()
            and plain.decode(w["minor_value"]) == v
            and (w["unit_row"], w["unit_col"]) == (l + 1, j + 1)
            and (w["entry_row"], w["entry_col"]) == (i + 1, k + 1)
            and lhs == plain.mul(a[i][l], a[j][k])
            and rhs == plain.mul(a[j][l], a[i][k])
            and plain.sub(rhs, lhs) == v
        )
        return None if ok else "probe witness is inconsistent with A"

    return check


def make_exhaust_check(m, n):
    def check(rc, out):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        obj = json.loads(out)
        ok = (
            obj.get("agree") is True
            and obj["total"] == m ** (n * n)
            and obj["set_identity"] == obj["set_minors"]
            and obj["mismatches"] == []
        )
        return None if ok else "exhaust report wrong"

    return check


# ---------------------------------------------------------------------------
# Workloads


class Builder:
    """Generates matrices from the seed and writes them as CLI input files."""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.count = 0

    def write(self, m):
        obj = matrix_to_obj(m)
        path = os.path.join(self.workdir, f"m{self.count}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps(obj))
        return path, obj["ring"]

    def structured(self, spec, n, mode="outer"):
        return gen_structured(self.rng.randrange(1 << 32), parse_ring_spec(spec), n, mode)

    def random(self, spec, n):
        sub = random.Random(self.rng.randrange(1 << 32))
        return random_matrix(sub, parse_ring_spec(spec), n, n)


# (ring spec, generator mode) for the integer-like rings the workloads share
SCALAR_RINGS = [
    (f"mod:{P61}", "outer"),
    ("int", "outer"),
    ("mod:12", "outer"),
    (f"gf:{GF_P}", "outer"),
    ("mod:4", "nilscalar"),
    ("mod:8", "nilscalar"),
]


def _fast_request(b: Builder, spec, mode, n, cmd):
    plain = PlainRing(spec)
    a = b.structured(spec, n, mode)
    path_a, ring_obj = b.write(a)
    if cmd == "check":
        return Request("check", ["check", path_a], check_structured_verdict)
    if cmd == "verify-fast":
        bm = b.random(spec, n)
        path_b, _ = b.write(bm)
        fn = lambda: plain.trace_ab(a.data, bm.data)  # noqa: E731
        return Request(cmd, ["verify", path_a, path_b, "--fast"],
                       make_scaled_check(plain, ring_obj, a.data, fn, "result"))
    if cmd == "power":
        k = b.rng.randint(2, 9)

        def t_power():
            t0 = plain.trace(a.data)
            t = t0
            for _ in range(k - 2):
                t = plain.mul(t, t0)
            return t

        return Request(cmd, ["power", path_a, str(k)],
                       make_scaled_check(plain, ring_obj, a.data, t_power, None))
    if cmd == "decompose":
        return Request(cmd, ["decompose", path_a], make_decompose_check(plain, ring_obj, a.data))
    raise ValueError(cmd)


def structured_checked(b: Builder) -> list:
    """check / verify --fast / power / decompose on structured A, n = 8..32.

    Each answer is "yes", so the precondition scan visits all O(n^4) minors.
    One command per (ring, size), rotating, keeps the cycle short.
    """
    cmds = ["check", "verify-fast", "power"]
    sizes = [8, 12, 16, 24, 32]
    reqs = []
    for ri, (spec, mode) in enumerate(SCALAR_RINGS):
        for si, n in enumerate(sizes):
            reqs.append(_fast_request(b, spec, mode, n, cmds[(ri + si) % 3]))
    # The heaviest request (verify --fast over 2^61-1, n = 32, the last of
    # the first ring's sizes) is sent twice per cycle on the same files, so
    # that for any run of six or more cycles the tail percentile falls among
    # repeats of one request rather than on the step between two requests.
    heaviest = reqs[len(sizes) - 1]
    assert heaviest.kind == "verify-fast"
    reqs.append(heaviest)
    for n in sizes:
        reqs.append(_fast_request(b, f"gf:{GF_P}", "outer", n, "decompose"))
    for n, cmd in zip([4, 6, 8], cmds):
        reqs.append(_fast_request(b, "poly:int:x", "outer", n, cmd))
    return reqs


def _oracle_request(b: Builder, spec, mode, n, cmd):
    plain = PlainRing(spec)
    a = b.structured(spec, n, mode)
    bm = b.random(spec, n)
    (path_a, ring_obj), (path_b, _) = b.write(a), b.write(bm)
    if cmd == "both":
        return Request("verify-both", ["verify", path_a, path_b, "--both"],
                       make_both_check(plain, ring_obj, a.data, bm.data))
    return Request("verify-naive", ["verify", path_a, path_b, "--naive"],
                   make_naive_check(plain, ring_obj, a.data, bm.data))


def dense_oracle(b: Builder) -> list:
    """verify --both / --naive on structured A and random B, n = 32..128.

    No precondition scan runs; the time is in full O(n^3) products and in
    emitting the product matrices.  The heaviest request, --both over
    2^61-1 at n = 128, emits about 700 KB of JSON.
    """
    cmds = ["both", "naive"]
    reqs = []
    for ri, (spec, mode) in enumerate(SCALAR_RINGS):
        for si, n in enumerate([32, 48, 64]):
            reqs.append(_oracle_request(b, spec, mode, n, cmds[(ri + si) % 2]))
    # The heaviest request is sent three times per cycle on the same files,
    # so that for any run of four or more cycles the tail percentile falls
    # among repeats of one request, not between requests of unlike cost.
    heaviest = _oracle_request(b, SCALAR_RINGS[0][0], "outer", 128, "both")
    reqs += [heaviest] * 3
    for spec, mode in SCALAR_RINGS[1:5]:
        reqs.append(_oracle_request(b, spec, mode, 128, "both"))
    for n, cmd in zip([8, 16], cmds):
        reqs.append(_oracle_request(b, "poly:int:x", "outer", n, cmd))
    return reqs


EXHAUST_CONFIGS = [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3)]  # (m, n)


def reject_enumerate(b: Builder) -> list:
    """check / probe on random A, n = 64..256, plus exhaust over Z/2..Z/6.

    The scan stops at the first nonzero minor, so check and probe cost what
    parsing costs; exhaust runs tens of thousands of 2x2 and 3x3 products.
    """
    cmds = ["check", "probe"]
    sizes = [64, 128, 192, 256]
    reqs = []
    for ri, (spec, _mode) in enumerate(SCALAR_RINGS[:4]):
        plain = PlainRing(spec)
        for si, n in enumerate(sizes):
            a = b.random(spec, n)
            path, _ = b.write(a)
            if cmds[(ri + si) % 2] == "check":
                reqs.append(Request("check-reject", ["check", path], make_witness_check(plain, a.data)))
            else:
                reqs.append(Request("probe", ["probe", path], make_probe_check(plain, a.data)))
    for m, n in EXHAUST_CONFIGS:
        reqs.append(Request("exhaust", ["exhaust", "--ring", f"mod:{m}", "--n", str(n)],
                            make_exhaust_check(m, n)))
    return reqs


WORKLOADS = {
    "structured-checked": structured_checked,
    "dense-oracle": dense_oracle,
    "reject-enumerate": reject_enumerate,
}


def build(name: str, seed: int, workdir: str) -> list:
    """The workload's cycle, in a seeded order, with its input files written."""
    b = Builder(seed, workdir)
    reqs = WORKLOADS[name](b)
    b.rng.shuffle(reqs)
    return reqs
