"""Shared rings, generators, strategies, and independent oracles for tests."""

from __future__ import annotations

import json
import random

from hypothesis import strategies as st

from minortrace import (
    IntegerRing,
    Matrix,
    ModularRing,
    PolynomialRing,
    PrimeFieldRing,
    ShapeMismatch,
    find_nilpotent_scalar,
    gen_structured,
    iter_all_matrices,
    verify_identity,
)
from minortrace.serialize import SerializeError, _parse_int, elem_from_obj, ring_from_obj

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


def universal_identity_per_b(a: Matrix) -> bool:
    """Reference full-B decision: the residual of every B, one B at a time."""
    return all(verify_identity(a, b).is_zero() for b in iter_all_matrices(a.ring, a.rows))


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
