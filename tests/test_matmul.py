"""The packed (Kronecker) matrix product against the plain dot loop.

Ring.matmul on the base class is the reference: the Z, Z/m and GF(p)
overrides must give the same rows and report the same op counts for every
shape, on both sides of the size floor below which they fall back to it.
The polynomial product must give the same rows and multiplication count,
and as many additions as multiplications.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minortrace import IntegerRing, ModularRing, PolynomialRing, PrimeFieldRing, count_ops
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



@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 9])
def test_packed_native_and_bytes_paths_agree_at_each_width(width, monkeypatch):
    # fields of 1, 2, 4 and 8 bytes pack and unpack through array and
    # memoryview; 3 and 5 round up, 9 keeps the bytes path.  Every sum here
    # reaches a field's ends: 0 and 256^width - 1 unsigned, and +-(half - 1)
    # lifted by offset = half over Z, B shifted by its largest magnitude
    if sys.byteorder == "little":
        assert rings._field_format(width)[0] == {3: 4, 5: 8}.get(width, width)
    rng = random.Random(width)
    top = 256**width - 1
    half = 1 << (8 * width - 1)
    tb = half - 1
    n = 5
    unsigned_a = ((1, 0),) * n
    unsigned_b = ((0, top, 1, top - 1, top), (0,) * n)
    signed_a = ((1, 0), (-1, 0), (0, 1), (0, -1), rng.choice(((1, 0), (0, -1))))
    signed_b = ((tb, -tb, 0, 1, -1), (tb, -tb, tb, -tb, rng.randint(-tb, tb)))
    cases = [
        (unsigned_a, unsigned_b, int, 0, 0),
        (signed_a, signed_b, half.__rsub__, tb, half),
    ]
    for a, b, finish, shift, offset in cases:
        want = Ring.matmul(INT, a, b)
        native = rings._packed_product(a, b, width, finish, shift, offset)
        with monkeypatch.context() as patch:
            patch.setattr(rings, "_WORD_CODES", {})
            assert rings._field_format(width) == (width, None)
            wide = rings._packed_product(a, b, width, finish, shift, offset)
        assert native == wide == want
    # the extremes are reached: unsigned fields 0 and top, signed entries +-(half - 1)
    assert {0, top} <= set(Ring.matmul(INT, unsigned_a, unsigned_b)[0])
    assert max(map(max, want)) == half - 1 and min(map(min, want)) == -(half - 1)


# ---------------------------------------------------------------------------
# Polynomial rings: Kronecker substitution at depth 1, the base loop at depth 2

POLY_RINGS = [
    PolynomialRing(INT),
    PolynomialRing(ModularRing(4)),
    PolynomialRing(PrimeFieldRing(5)),
    PolynomialRing(ModularRing(12)),
    PolynomialRing(PolynomialRing(INT, "x"), "y"),
]
POLY_IDS = ["Zx", "Z4x", "GF5x", "Z12x", "Zxy"]


def poly_entries(ring):
    base = ring.base
    if isinstance(base, IntegerRing):
        coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100))
    elif isinstance(base, PolynomialRing):
        coeff = poly_entries(base)
    else:
        # zero divisors such as 2 mod 4 and 6 mod 12 come up often
        coeff = st.integers(0, base._m - 1)
    return st.lists(st.one_of(st.just(base.zero), coeff), max_size=4).map(ring.canon)


def poly_ops(a_rows, b_rows):
    """The documented count: sum over (i, j, k) of nonzero(a_ik) * len(b_kj)."""
    return sum(
        (len(x) - x.count(0)) * len(y)
        for row in a_rows
        for k, x in enumerate(row)
        for y in b_rows[k]
    )


@pytest.mark.parametrize("ring", POLY_RINGS, ids=POLY_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_polynomial_product_matches_loop(ring, data):
    rows, k, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    cell = poly_entries(ring)
    a = tuple(tuple(data.draw(cell) for _ in range(k)) for _ in range(rows))
    b = tuple(tuple(data.draw(cell) for _ in range(cols)) for _ in range(k))
    got, (muls, adds) = counted(ring.matmul, a, b)
    want, (want_muls, want_adds) = counted(Ring.matmul, ring, a, b)
    assert got == want
    assert muls == want_muls
    if isinstance(ring.base, PolynomialRing):
        assert adds == want_adds  # depth 2 is the loop itself
    else:
        assert muls == adds == poly_ops(a, b)


@pytest.mark.parametrize("ring", POLY_RINGS[:4], ids=POLY_IDS[:4])
def test_polynomial_product_edge_shapes(ring):
    rng = random.Random(7)
    m = ring.base._m if isinstance(ring.base, ModularRing | PrimeFieldRing) else None

    def poly(length):
        coeffs = [rng.randrange(m) if m else rng.randint(-(2**100), 2**100) for _ in range(length)]
        return ring.canon(coeffs)

    for rows, k, cols in [(1, 6, 1), (6, 1, 6), (1, 6, 6), (6, 6, 1), (1, 1, 1), (3, 4, 5)]:
        a = tuple(tuple(poly(rng.randint(0, 3)) for _ in range(k)) for _ in range(rows))
        b = tuple(tuple(poly(rng.randint(0, 3)) for _ in range(cols)) for _ in range(k))
        zeros = tuple(((),) * k for _ in range(rows))
        for left, right in ((a, b), (zeros, b), (a, tuple(((),) * cols for _ in range(k)))):
            got, (muls, adds) = counted(ring.matmul, left, right)
            want, (want_muls, _) = counted(Ring.matmul, ring, left, right)
            assert got == want
            assert muls == want_muls == adds == poly_ops(left, right)


@pytest.mark.parametrize(
    "ring", [PolynomialRing(INT), PolynomialRing(ModularRing(2**67 - 1)), PolynomialRing(ModularRing(4))],
    ids=["Zx", "Z(2^67-1)x", "Z4x"],
)
def test_polynomial_product_extreme_coefficients(ring):
    # every coefficient at the largest magnitude, so each coefficient of the
    # product reaches k * min(la, lb) * max|a| * max|b|.  With 67-bit
    # coefficients that bound sits on a byte boundary, where a field sized
    # without the min(la, lb) factor would be one byte short
    m = ring.base._m if isinstance(ring.base, ModularRing) else None
    top = m - 1 if m else 2**67 - 1
    signs = [(top, top)] if m else [(top, top), (-top, top), (-top, -top)]
    for la, lb in ((1, 1), (4, 4), (8, 8), (8, 2), (2, 8)):
        for k in (1, 3):
            for x, y in signs:
                a = (((x,) * la,) * k,)
                b = (((y,) * lb,),) * k
                got, (muls, adds) = counted(ring.matmul, a, b)
                want, (want_muls, _) = counted(Ring.matmul, ring, a, b)
                assert got == want
                assert muls == want_muls == adds == k * la * lb


def test_polynomial_product_strips_vanished_leading_terms():
    # (2x)(2x) = 4x^2 = 0 over Z/4, and 2x^2 * 2 + 2x * 2x = 8x^2 = 0 too
    ring = PolynomialRing(ModularRing(4))
    assert ring.matmul((((0, 2),),), (((0, 2),),)) == (((),),)
    assert ring.matmul((((0, 0, 2), (0, 2)),), (((2,),), ((0, 2),))) == (((),),)
    # over Z/12: (1 + 6x)(2x) = 2x + 12x^2 = 2x; over Z, sums cancel to zero
    assert PolynomialRing(ModularRing(12)).matmul((((1, 6),),), (((0, 2),),)) == (((0, 2),),)
    zx = PolynomialRing(INT)
    assert zx.matmul((((1, 1), (1, -1)),), (((1, -1),), ((-1, -1),))) == (((),),)
    assert zx.matmul((((0, 1), (0, -1)),), (((2**100, 3),), ((2**100, 3),))) == (((),),)
