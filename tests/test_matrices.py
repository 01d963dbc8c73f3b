import itertools
import random

import pytest
from hypothesis import given, settings

from minortrace import (
    BlockSplit,
    IndexOutOfRange,
    OuterFactors,
    Ring,
    RingElem,
    UnsupportedRing,
    Matrix,
    MinorIndex,
    ModularRing,
    NotSquare,
    PrimeFieldRing,
    RingMismatch,
    ShapeMismatch,
    TooLarge,
    TooSmall,
    block_join,
    cayley_hamilton_2x2,
    count_ops,
    det_small,
    matrix_unit,
    outer,
    random_elem,
    random_matrix,
    trace_of_product,
    universal_identity_by_enumeration,
)
from minortrace.serialize import SerializeError, ring_to_obj
from support import ALL_RINGS, GF5, INT, MOD4, POLY_INT, matrices


def mat(rows, ring=INT):
    return Matrix.from_rows(ring, rows)


def test_matmul_hand_checked_example():
    a = mat([[3, 4], [6, 8]])
    b = mat([[1, 2], [0, 1]])
    # dot products by hand: 3*1+4*0, 3*2+4*1, 6*1+8*0, 6*2+8*1
    assert a @ b == mat([[3, 10], [6, 20]])


def test_matmul_identity_and_zero(ring):
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = random_matrix(rng, ring, n, n)
        assert a @ Matrix.identity(ring, n) == a
        assert Matrix.identity(ring, n) @ a == a
        assert Matrix.zero(ring, n, n) @ a == Matrix.zero(ring, n, n)


def test_matmul_errors():
    a = mat([[1, 2]])
    with pytest.raises(ShapeMismatch):
        a @ a
    with pytest.raises(RingMismatch):
        mat([[1]]) @ Matrix.from_rows(MOD4, [[1]])


def test_from_rows_validation():
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(INT, [])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(INT, [[]])
    with pytest.raises(ShapeMismatch):
        Matrix.from_rows(INT, [[1, 2], [3]])
    with pytest.raises(RingMismatch):
        Matrix.from_rows(INT, [[MOD4.elem(1)]])


def test_from_rows_reports_a_bad_entry_before_a_shape_error():
    # every row is canonicalized before the shape is checked, the order the
    # CLI's decode uses
    with pytest.raises(TypeError):
        Matrix.from_rows(INT, [[1, 2], [3], [True]])
    with pytest.raises(TypeError):
        Matrix.from_rows(MOD4, [[], ["1"]])


def test_from_rows_takes_ring_elements_and_raw_values_per_row():
    a = Matrix.from_rows(MOD4, [[MOD4.elem(5), 6], [7, -1], (2, 3)])
    assert a.data == ((1, 2), (3, 3), (2, 3))
    rows = ((x for x in r) for r in [[MOD4.elem(5), 6], [7, -1], (2, 3)])
    assert Matrix.from_rows(MOD4, rows) == a
    with pytest.raises(RingMismatch):
        Matrix.from_rows(MOD4, [[1, 2], [3, GF5.elem(1)]])
    with pytest.raises(TypeError):
        Matrix.from_rows(MOD4, [[MOD4.elem(1), True]])


SCALE_RINGS = [INT, MOD4, ModularRing(2**61 - 1), PrimeFieldRing(65537), POLY_INT]


@pytest.mark.parametrize("ring", SCALE_RINGS, ids=["int", "mod4", "mod61", "gf65537", "polyint"])
def test_scale_matches_the_per_entry_product_and_its_op_counts(ring):
    rng = random.Random(3)
    for rows, cols in ((1, 1), (3, 5), (16, 16)):
        a = random_matrix(rng, ring, rows, cols)
        t = random_matrix(rng, ring, 1, 1).data[0][0]
        with count_ops() as per_entry:
            want = tuple(tuple(ring.mul(t, x) for x in row) for row in a.data)
        for factor in (ring.elem(t), t):
            with count_ops() as counts:
                got = a.scale(factor)
            assert got.data == want
            assert (counts.mul, counts.add) == (per_entry.mul, per_entry.add)
            if ring is not POLY_INT:  # a polynomial product counts its coefficient ops
                assert (counts.mul, counts.add) == (rows * cols, 0)
        with pytest.raises(RingMismatch):
            a.scale(ModularRing(7).elem(1))


def test_trace_examples():
    assert mat([[3, 4], [6, 8]]).trace().value == 11
    for n in range(1, 7):
        assert Matrix.identity(MOD4, n).trace().value == n % 4
    with pytest.raises(NotSquare):
        mat([[1, 2]]).trace()


def test_trace_of_2x2_product_matches_entry_formula():
    # distinct primes make every term of the expansion visible
    a11, a12, a21, a22 = 2, 3, 5, 7
    b11, b12, b21, b22 = 11, 13, 17, 19
    a = mat([[a11, a12], [a21, a22]])
    b = mat([[b11, b12], [b21, b22]])
    assert (a @ b).trace().value == a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22


def test_trace_cyclicity_bulk(ring):
    rng = random.Random(17)
    for _ in range(10_000):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = random_matrix(rng, ring, n, m)
        b = random_matrix(rng, ring, m, n)
        assert (a @ b).trace() == (b @ a).trace()


def test_minor_index_validation():
    with pytest.raises(ValueError):
        MinorIndex(1, 1, 0, 1)
    with pytest.raises(ValueError):
        MinorIndex(0, 1, 2, 1)
    with pytest.raises(ValueError):
        MinorIndex(-1, 0, 0, 1)


def test_minor2_examples():
    idx = MinorIndex(0, 1, 0, 1)
    assert Matrix.identity(INT, 2).minor2(idx).value == 1
    assert mat([[3, 4], [6, 8]]).minor2(idx).value == 0
    assert mat([[6, 10], [9, 15]]).minor2(idx).value == 0
    with pytest.raises(IndexOutOfRange):
        mat([[1, 2], [3, 4]]).minor2(MinorIndex(0, 2, 0, 1))


def test_minor2_equals_det_for_2x2(ring):
    rng = random.Random(5)
    for _ in range(50):
        a = random_matrix(rng, ring, 2, 2)
        assert a.minor2(MinorIndex(0, 1, 0, 1)) == det_small(a)


def test_block_split_3x3_example():
    a = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = a.block_split()
    assert s.corner == mat([[1, 2], [4, 5]])
    assert s.last_col == mat([[3], [6]])
    assert s.last_row == mat([[7, 8]])
    assert s.pivot.value == 9
    assert block_join(s) == a


def test_block_split_2x2():
    a = mat([[1, 2], [3, 4]])
    s = a.block_split()
    assert s.corner == mat([[1]])
    assert s.last_col == mat([[2]])
    assert s.last_row == mat([[3]])
    assert s.pivot.value == 4


def test_block_split_errors():
    with pytest.raises(NotSquare):
        mat([[1, 2]]).block_split()
    with pytest.raises(TooSmall):
        mat([[1]]).block_split()


@given(a=matrices(INT, min_n=2, max_n=5))
@settings(max_examples=100, deadline=None)
def test_block_join_round_trip(a):
    assert block_join(a.block_split()) == a


def test_det_small_examples():
    assert det_small(mat([[3, 4], [6, 8]])).value == 0
    assert det_small(Matrix.identity(INT, 3)).value == 1
    assert det_small(Matrix.from_rows(MOD4, [[2, 0], [0, 2]])).value == 0
    with pytest.raises(TooLarge):
        det_small(Matrix.identity(INT, 9))
    with pytest.raises(NotSquare):
        det_small(mat([[1, 2]]))


def _det_leibniz(a):
    """Independent determinant: signed sum over all permutations."""
    ring = a.ring
    n = a.rows
    total = ring.elem(ring.zero)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = ring.elem(ring.one)
        for i in range(n):
            term = term * a.entry(i, perm[i])
        total = total + (-term if inversions % 2 else term)
    return total


def test_det_small_matches_leibniz_oracle(ring):
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_matrix(rng, ring, n, n)
        assert det_small(a) == _det_leibniz(a)


def test_det_of_outer_products_vanishes(ring):
    rng = random.Random(13)
    for n in range(2, 9):
        c = random_matrix(rng, ring, n, 1)
        r = random_matrix(rng, ring, 1, n)
        assert det_small(outer(c, r)).is_zero()


def test_cayley_hamilton_examples():
    assert cayley_hamilton_2x2(mat([[1, 2], [3, 4]])).is_zero()
    assert cayley_hamilton_2x2(Matrix.zero(INT, 2, 2)).is_zero()
    a = mat([[3, 4], [6, 8]])  # det 0, so A^2 = Tr(A) A
    assert cayley_hamilton_2x2(a).is_zero()
    assert a @ a == a.scale(a.trace())
    with pytest.raises(ShapeMismatch):
        cayley_hamilton_2x2(Matrix.identity(INT, 3))


def test_cayley_hamilton_random(ring):
    rng = random.Random(19)
    for _ in range(200):
        assert cayley_hamilton_2x2(random_matrix(rng, ring, 2, 2)).is_zero()


def test_matrix_unit_and_accessors():
    e = matrix_unit(INT, 3, 1, 2)
    assert e == mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    a = mat([[1, 2, 3], [4, 5, 6]])
    assert a.entry(1, 2).value == 6
    assert a.row(0) == mat([[1, 2, 3]])
    assert a.col(1) == mat([[2], [5]])
    with pytest.raises(IndexOutOfRange):
        a.entry(2, 0)
    with pytest.raises(IndexOutOfRange):
        matrix_unit(INT, 2, 2, 0)


def test_scalar_requires_1x1():
    assert mat([[7]]).scalar().value == 7
    with pytest.raises(ShapeMismatch):
        mat([[1, 2], [3, 4]]).scalar()


def test_identity_probe_alone_cannot_certify_minors_in_3x3():
    # Search Z/2 for a 3x3 matrix with A^2 = Tr(A) A whose minors do NOT
    # all vanish: its existence shows a single probe at B = I is too weak.
    ring = ModularRing(2)
    found = None
    for entries in itertools.product(range(2), repeat=9):
        a = Matrix.from_rows(ring, [entries[0:3], entries[3:6], entries[6:9]])
        if (a @ a) != a.scale(a.trace()):
            continue
        from minortrace import check_vanishing_minors

        if not check_vanishing_minors(a).structured:
            found = a
            break
    assert found is not None
    # the identity matrix is such a witness: I^2 = I = Tr(I) I over Z/2
    eye = Matrix.identity(ring, 3)
    assert (eye @ eye) == eye.scale(eye.trace())


class BareRing(Ring):
    """A ring no sampler or encoding knows."""

    def __repr__(self):
        return "BareRing()"


A2 = Matrix.from_rows(INT, [[1, 2], [3, 4]])
A2_MOD4 = Matrix.from_rows(MOD4, [[1, 2], [3, 0]])
ROW3 = Matrix.from_rows(INT, [[1, 2, 3]])
SPLIT3 = Matrix.from_rows(INT, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]).block_split()
ERROR_BRANCHES = [
    ("trace-rings", lambda: trace_of_product(A2, A2_MOD4), RingMismatch, "Z vs Z/4"),
    ("trace-shapes", lambda: trace_of_product(A2, ROW3), ShapeMismatch, "trace of 2x2 @ 1x3 is undefined"),
    ("add-rings", lambda: A2 + A2_MOD4, RingMismatch, "Z vs Z/4"),
    ("sub-shapes", lambda: A2 - ROW3, ShapeMismatch, "2x2 vs 1x3"),
    ("add-int", lambda: A2 + 1, TypeError, "unsupported operand type(s) for +: 'Matrix' and 'int'"),
    ("sub-int", lambda: A2 - 1, TypeError, "unsupported operand type(s) for -: 'Matrix' and 'int'"),
    ("matmul-int", lambda: A2 @ 1, TypeError, "unsupported operand type(s) for @: 'Matrix' and 'int'"),
    ("row", lambda: A2.row(2), IndexOutOfRange, "row 2 outside 2x2"),
    ("col", lambda: A2.col(-1), IndexOutOfRange, "col -1 outside 2x2"),
    ("zero", lambda: Matrix.zero(INT, 1, 0), ShapeMismatch, "matrix dimensions must be at least 1x1"),
    ("identity", lambda: Matrix.identity(INT, 0), ShapeMismatch, "matrix dimensions must be at least 1x1"),
    ("unit", lambda: matrix_unit(INT, 0, 0, 0), ShapeMismatch, "matrix dimensions must be at least 1x1"),
    (
        "join-rings",
        lambda: block_join(BlockSplit(SPLIT3.corner, SPLIT3.last_row, SPLIT3.last_col, RingElem(MOD4, 1))),
        RingMismatch,
        "block parts over different rings",
    ),
    (
        "join-row",
        lambda: block_join(BlockSplit(SPLIT3.corner, ROW3, SPLIT3.last_col, SPLIT3.pivot)),
        ShapeMismatch,
        "block parts do not conform",
    ),
    (
        "join-col",
        lambda: block_join(BlockSplit(SPLIT3.corner, SPLIT3.last_row, mat([[1]]), SPLIT3.pivot)),
        ShapeMismatch,
        "block parts do not conform",
    ),
    (
        "enumerate-non-square",
        lambda: universal_identity_by_enumeration(mat([[1, 0, 1]], ModularRing(2))),
        NotSquare,
        "square matrix required, got 1x3",
    ),
    (
        "outer-rings",
        lambda: OuterFactors(col=mat([[1], [2]]), row=mat([[1, 2]], MOD4)),
        RingMismatch,
        "Z vs Z/4",
    ),
    ("sampler", lambda: random_elem(random.Random(0), BareRing()), UnsupportedRing, "no sampler for BareRing()"),
    ("encoding", lambda: ring_to_obj(BareRing()), SerializeError, "no encoding for ring BareRing()"),
    ("elem-plus-int", lambda: RingElem(INT, 1) + 1, TypeError, "RingElem expected, got 1"),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*case[1:], id=case[0]) for case in ERROR_BRANCHES]
)
def test_error_branches(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
