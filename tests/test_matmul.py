"""The packed (Kronecker) matrix product against the plain dot loop.

Ring.matmul on the base class is the reference: the Z, Z/m and GF(p)
overrides must give the same rows and report the same op counts for every
shape, on both sides of the size floor below which they fall back to it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minortrace import IntegerRing, ModularRing, PrimeFieldRing, count_ops
from minortrace import rings
from minortrace.rings import Ring

INT = IntegerRing()
PACKED_RINGS = [
    INT,
    ModularRing(2),
    ModularRing(4),
    ModularRing(12),
    ModularRing(2**61 - 1),
    ModularRing(2**127 - 1),
    PrimeFieldRing(5),
    PrimeFieldRing(65537),
]
PACKED_IDS = ["int", "mod2", "mod4", "mod12", "mod2^61-1", "mod2^127-1", "gf5", "gf65537"]
INT_BOUND = 2**100
MAX_DIM = max(rings._INTEGER_PACKED_FLOOR, rings._RESIDUE_PACKED_FLOOR) + 4


def floor_of(ring):
    if isinstance(ring, IntegerRing):
        return rings._INTEGER_PACKED_FLOOR
    return rings._RESIDUE_PACKED_FLOOR


def entries(ring):
    if isinstance(ring, IntegerRing):
        return st.integers(-INT_BOUND, INT_BOUND)
    return st.integers(0, ring._m - 1)


def random_rows(rng, ring, rows, cols, bound=INT_BOUND):
    if isinstance(ring, IntegerRing):
        return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols)) for _ in range(rows))
    return tuple(tuple(rng.randrange(ring._m) for _ in range(cols)) for _ in range(rows))


def counted(fn, *args):
    with count_ops() as ops:
        out = fn(*args)
    return out, (ops.mul, ops.add)


def assert_matches_loop(ring, a_rows, b_rows):
    got, got_ops = counted(ring.matmul, a_rows, b_rows)
    want, want_ops = counted(Ring.matmul, ring, a_rows, b_rows)
    assert got == want
    assert got_ops == want_ops


@st.composite
def factor_pairs(draw, ring):
    rows, k, cols = (draw(st.integers(1, MAX_DIM)) for _ in range(3))
    cell = entries(ring)
    a = tuple(tuple(draw(cell) for _ in range(k)) for _ in range(rows))
    b = tuple(tuple(draw(cell) for _ in range(cols)) for _ in range(k))
    return a, b


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_product_matches_loop(ring, data):
    a, b = data.draw(factor_pairs(ring))
    assert_matches_loop(ring, a, b)


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_packed_product_shapes_around_the_floor(ring):
    rng = random.Random(2)
    floor = floor_of(ring)
    for k in (1, floor - 1, floor, floor + 5, 40):
        shapes = [
            (1, k, 1),  # row @ col, a dot product
            (k, 1, k),  # col @ row, an outer product
            (1, k, k),  # row @ B, as in trace_product_via_outer
            (k, k, 1),  # B @ col
            (k, k, k),
            (floor, k, floor + 2),
        ]
        for rows, inner, cols in shapes:
            a = random_rows(rng, ring, rows, inner)
            b = random_rows(rng, ring, inner, cols)
            assert_matches_loop(ring, a, b)


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_packed_product_exact_on_every_shape_without_floor(ring, monkeypatch):
    monkeypatch.setattr(rings, "_INTEGER_PACKED_FLOOR", 1)
    monkeypatch.setattr(rings, "_RESIDUE_PACKED_FLOOR", 1)
    rng = random.Random(3)
    for rows in range(1, 5):
        for inner in range(1, 5):
            for cols in range(1, 5):
                a = random_rows(rng, ring, rows, inner)
                b = random_rows(rng, ring, inner, cols)
                assert_matches_loop(ring, a, b)


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=PACKED_IDS)
def test_packed_product_extreme_entries(ring):
    n = MAX_DIM
    top = INT_BOUND if isinstance(ring, IntegerRing) else ring._m - 1
    low = -INT_BOUND if isinstance(ring, IntegerRing) else 0
    for x, y in [(top, top), (low, top), (low, low), (top, low), (0, top), (top, 0)]:
        a = tuple((x,) * n for _ in range(n))
        b = tuple((y,) * n for _ in range(n))
        assert_matches_loop(ring, a, b)


def test_integer_zero_left_factor_with_wide_right_factor():
    # the field width must hold the shifted entries of B, not only the
    # sums, which are all zero here
    rng = random.Random(4)
    n = MAX_DIM
    a = tuple((0,) * n for _ in range(n))
    for bound in (1, 2**64, 2**300):
        b = random_rows(rng, INT, n, n, bound)
        assert_matches_loop(INT, a, b)
        assert_matches_loop(INT, b, a)


def test_integer_mixed_widths():
    rng = random.Random(5)
    n = MAX_DIM
    for bound_a, bound_b in [(1, 2**200), (2**200, 1), (9, 9), (2**64, 2**64)]:
        a = random_rows(rng, INT, n, n, bound_a)
        b = random_rows(rng, INT, n, n, bound_b)
        assert_matches_loop(INT, a, b)

