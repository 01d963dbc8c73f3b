"""Shared rings, generators, strategies, and independent oracles for tests."""

from __future__ import annotations

import itertools
import json
import random

from hypothesis import strategies as st

from minortrace import (
    IntegerRing,
    Matrix,
    MinorIndex,
    MinorWitness,
    ModularRing,
    NotSquare,
    PolynomialRing,
    PrimeFieldRing,
    RingElem,
    ShapeMismatch,
    StructureVerdict,
    find_nilpotent_scalar,
    gen_structured,
    verify_identity,
)
from minortrace.cli import _INPUT_ERRORS
from minortrace.oracle import MISMATCH_CAP, EquivalenceReport, _enumerable_values
from minortrace.probe import probe_converse
from minortrace.serialize import (
    SerializeError,
    _parse_int,
    dumps,
    elem_from_obj,
    loads,
    probe_report_to_obj,
    ring_from_obj,
    verdict_to_obj,
)
from minortrace.structure import DEFAULT_ENTRY_BOUND, check_vanishing_minors, random_elem

INT = IntegerRing()
MOD4 = ModularRing(4)
MOD97 = ModularRing(97)
GF5 = PrimeFieldRing(5)
POLY_INT = PolynomialRing(IntegerRing())

ALL_RINGS = [INT, MOD4, MOD97, GF5, POLY_INT]
RING_IDS = ["int", "mod4", "mod97", "gf5", "polyint"]

SCALAR_RINGS = [INT, MOD4, MOD97, GF5]


def raw_values(ring, bound=9):
    """Hypothesis strategy for canonical raw values of a ring."""
    if isinstance(ring, IntegerRing):
        return st.integers(-bound, bound)
    if isinstance(ring, ModularRing):
        return st.integers(0, ring.modulus - 1)
    if isinstance(ring, PrimeFieldRing):
        return st.integers(0, ring.p - 1)
    return st.lists(raw_values(ring.base, bound), max_size=3).map(ring.canon)


@st.composite
def matrices(draw, ring, min_n=1, max_n=4, square=True):
    rows = draw(st.integers(min_n, max_n))
    cols = rows if square else draw(st.integers(min_n, max_n))
    data = [[draw(raw_values(ring)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, data)


def rand_structured(rng: random.Random, ring, n: int, allow_nilscalar=True) -> Matrix:
    """A random matrix with vanishing minors, mixing both generator modes."""
    if (
        allow_nilscalar
        and isinstance(ring, ModularRing)
        and find_nilpotent_scalar(ring) is not None
        and rng.random() < 0.5
    ):
        return gen_structured(rng.getrandbits(32), ring, n, "nilscalar")
    return gen_structured(rng.getrandbits(32), ring, n, "outer")


def random_matrix_per_entry(rng: random.Random, ring, rows: int, cols: int,
                            bound: int = DEFAULT_ENTRY_BOUND) -> Matrix:
    """Reference random_matrix: one random_elem call per entry, in row-major order."""
    return Matrix(
        ring,
        tuple(tuple(random_elem(rng, ring, bound) for _ in range(cols)) for _ in range(rows)),
    )


def all_minors_naive(a: Matrix):
    """Second, independently written minor enumerator (RingElem arithmetic)."""
    out = []
    for i in range(a.rows):
        for j in range(a.rows):
            if i >= j:
                continue
            for k in range(a.cols):
                for l in range(a.cols):
                    if k >= l:
                        continue
                    v = a.entry(i, k) * a.entry(j, l) - a.entry(i, l) * a.entry(j, k)
                    out.append(((i, j, k, l), v))
    return out


def _scan_minors(a: Matrix) -> StructureVerdict:
    """Scan all 2x2 minors in lexicographic order; O(n^4) on a yes answer.

    The independent reference for check_vanishing_minors' verdict and
    witness, and the minor side of the per-matrix exhaust.  It uses ring
    arithmetic and the record classes only, never the certificate it checks.
    """
    ring = a.ring
    zero = ring.zero
    mul, sub = ring.mul, ring.sub
    d = a.data
    for i in range(a.rows - 1):
        ri = d[i]
        for j in range(i + 1, a.rows):
            rj = d[j]
            for k in range(a.cols - 1):
                for l in range(k + 1, a.cols):
                    v = sub(mul(ri[k], rj[l]), mul(ri[l], rj[k]))
                    if v != zero:
                        witness = MinorWitness(MinorIndex(i, j, k, l), RingElem(ring, v))
                        return StructureVerdict(structured=False, witness=witness)
    return StructureVerdict(structured=True, witness=None)


def loads_per_number(text: str):
    """Reference JSON decode: every JSON number goes through _parse_int, so a
    number past the digit limit fails there, with its digit count."""
    decoder = json.JSONDecoder(parse_int=lambda digits: _parse_int(digits, "JSON number"))
    try:
        return decoder.decode(text)
    except (ValueError, RecursionError) as exc:
        raise SerializeError(f"invalid JSON: {exc}") from exc


def matrix_from_obj_per_entry(obj) -> Matrix:
    """Reference decode, one entry at a time: every entry of every row goes
    through elem_from_obj, then ring.canon, and only then is the shape checked."""
    if not isinstance(obj, dict) or "ring" not in obj or "rows" not in obj:
        raise SerializeError('matrix object needs "ring" and "rows"')
    ring = ring_from_obj(obj["ring"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SerializeError('"rows" must be an array of arrays')
    decoded = [[ring.canon(elem_from_obj(ring, x)) for x in r] for r in rows]
    if not decoded:
        raise ShapeMismatch("matrix needs at least one row")
    for r in decoded:
        if not r:
            raise ShapeMismatch("matrix needs at least one column")
        if len(r) != len(decoded[0]):
            raise ShapeMismatch("ragged rows")
    return Matrix(ring, tuple(map(tuple, decoded)))


def check_or_probe_full_decode(command: str, text: str) -> tuple[int, str, str]:
    """Reference `check` / `probe` on a matrix file's text: (exit code, stdout,
    stderr).  The whole file is decoded entry by entry, and the whole matrix
    is decided, before anything is printed."""
    try:
        a = matrix_from_obj_per_entry(loads(text))
        if command == "check":
            verdict = check_vanishing_minors(a)
            out = verdict_to_obj(a.ring, verdict)
            if verdict.structured:
                code, note = 0, "structured: all 2x2 minors vanish"
            else:
                idx = verdict.witness.index
                code = 1
                note = (f"nonzero minor at rows ({idx.i + 1},{idx.j + 1}) "
                        f"cols ({idx.k + 1},{idx.l + 1})")
        else:
            report = probe_converse(a)
            out = probe_report_to_obj(a.ring, report)
            if report.structured:
                code, note = 0, "structured: no probe breaks the identity"
            else:
                w = report.witness
                code = 1
                note = (f"probe with unit at ({w.unit_row + 1},{w.unit_col + 1}) breaks "
                        f"the identity at entry ({w.entry_row + 1},{w.entry_col + 1})")
    except _INPUT_ERRORS as exc:
        return 2, "", f"error: {exc}\n"
    return code, dumps(out) + "\n", note + "\n"


def iter_all_matrices(ring, n: int):
    """Every n x n matrix over a small finite ring, in lexicographic order."""
    values = _enumerable_values(ring, n)
    for entries in itertools.product(values, repeat=n * n):
        yield Matrix(ring, tuple(entries[r * n : (r + 1) * n] for r in range(n)))


def universal_identity_via_probes(a: Matrix) -> bool:
    """Reference for-every-B decision via the n^2 unit probes, one matrix at a time.

    Testing only the unit matrices suffices: the probe at (l, j) reduces to
    col_l(A) @ row_j(A) = a[j][l] * A, and if all of those hold, every minor
    vanishes and the identity follows for arbitrary B.
    """
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    scale_row = a.ring.scale_row
    d = a.data
    n = a.rows
    for l in range(n):
        for j in range(n):
            s = d[j][l]
            dj = d[j]
            # row x of the probe's two sides, a[x][l] * row_j(A) and
            # a[j][l] * row_x(A); at x = j they are the same product
            for x in range(n):
                if x != j and scale_row(d[x][l], dj) != scale_row(s, d[x]):
                    return False
    return True


def universal_identity_per_b(a: Matrix) -> bool:
    """Reference full-B decision: the residual of every B, one B at a time."""
    return all(verify_identity(a, b).is_zero() for b in iter_all_matrices(a.ring, a.rows))


def exhaustive_characterization_per_matrix(ring, n: int, flip=frozenset()) -> EquivalenceReport:
    """Reference exhaust, one matrix at a time: the literal minor scan and the
    unit probes on each A of iter_all_matrices, with the probe decision
    negated at the enumeration indices in flip."""
    total = ident_count = minors_count = 0
    mismatches = []
    for index, a in enumerate(iter_all_matrices(ring, n)):
        structured = _scan_minors(a).structured
        holds = universal_identity_via_probes(a) != (index in flip)
        total += 1
        ident_count += holds
        minors_count += structured
        if holds != structured and len(mismatches) < MISMATCH_CAP:
            mismatches.append(a)
    return EquivalenceReport(
        ring=ring,
        n=n,
        total=total,
        set_identity=ident_count,
        set_minors=minors_count,
        agree=not mismatches and ident_count == minors_count,
        mismatches=tuple(mismatches),
    )


def poly_mul_per_coeff(ring, a, b):
    """Reference polynomial product: one base-ring mul and add per coefficient
    pair, skipping zero coefficients of a, then a strip of trailing zeros."""
    if not a or not b:
        return ()
    base = ring.base
    out = [base.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != base.zero:
            for j, y in enumerate(b):
                out[i + j] = base.add(out[i + j], base.mul(x, y))
    while out and out[-1] == base.zero:
        out.pop()
    return tuple(out)


def poly_add_per_coeff(ring, a, b):
    """Reference polynomial sum: one base-ring add per coefficient of the
    shorter operand, then a strip of trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = ring.base.add(out[i], c)
    while out and out[-1] == ring.base.zero:
        out.pop()
    return tuple(out)
