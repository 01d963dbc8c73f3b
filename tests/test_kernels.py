import itertools
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from minortrace import (
    Matrix,
    ModularRing,
    OuterFactors,
    PolynomialRing,
    ShapeMismatch,
    StructurePreconditionFailed,
    check_corollaries,
    check_vanishing_minors,
    count_ops,
    gen_structured,
    naive_aba,
    outer,
    random_matrix,
    structured_aba,
    structured_power,
    trace_of_product,
    trace_product_via_outer,
)
from minortrace.kernels import structured_power_bits
from support import INT, MOD4, rand_structured


def mat(rows, ring=INT):
    return Matrix.from_rows(ring, rows)


A_EX = [[3, 4], [6, 8]]
B_EX = [[1, 2], [0, 1]]


def test_naive_aba_example():
    # two explicit 2x2 products: AB = [[3,10],[6,20]], (AB)A = [[69,92],[138,184]]
    assert naive_aba(mat(A_EX), mat(B_EX)) == mat([[69, 92], [138, 184]])
    a = mat(A_EX)
    assert naive_aba(a, Matrix.zero(INT, 2, 2)).is_zero()
    b = mat(B_EX)
    assert naive_aba(Matrix.identity(INT, 2), b) == b


def test_structured_aba_example():
    a, b = mat(A_EX), mat(B_EX)
    # t = 3*1 + 4*0 + 6*2 + 8*1 = 23
    assert trace_of_product(a, b).value == 23
    assert structured_aba(a, b) == a.scale(23)
    assert structured_aba(a, b) == naive_aba(a, b)
    assert structured_aba(Matrix.zero(INT, 3, 3), Matrix.identity(INT, 3)).is_zero()


def test_structured_aba_mod4_zero_divisor_case():
    ring = ModularRing(4)
    a = Matrix.from_rows(ring, [[2, 0], [0, 2]])
    for entries in itertools.product(range(4), repeat=4):
        b = Matrix.from_rows(ring, [entries[:2], entries[2:]])
        assert structured_aba(a, b) == naive_aba(a, b)


def test_structured_aba_precondition_witness():
    with pytest.raises(StructurePreconditionFailed) as err:
        structured_aba(Matrix.identity(INT, 2), mat(B_EX))
    idx = err.value.witness.index
    assert (idx.i, idx.j, idx.k, idx.l) == (0, 1, 0, 1)
    # with checking off the kernel just computes Tr(AB) * A
    out = structured_aba(Matrix.identity(INT, 2), mat(B_EX), check=False)
    assert out == Matrix.identity(INT, 2).scale(2)


def test_shape_and_ring_guards():
    with pytest.raises(ShapeMismatch):
        naive_aba(mat([[1, 2]]), mat([[1, 2]]))
    with pytest.raises(ShapeMismatch):
        structured_aba(Matrix.identity(INT, 2), Matrix.identity(INT, 3))


def test_agreement_bulk(ring):
    """structured_aba == naive_aba on generator output, 10^4 cases total."""
    rng = random.Random(37)
    max_n = 6 if isinstance(ring, PolynomialRing) else 16
    for _ in range(2_000):
        n = rng.randint(1, max_n)
        a = rand_structured(rng, ring, n)
        b = random_matrix(rng, ring, n, n)
        assert structured_aba(a, b, check=False) == naive_aba(a, b)


def test_structured_power_example():
    a = mat(A_EX)
    assert structured_power(a, 3) == a.scale(121)  # Tr(A)^2 = 11^2
    assert structured_power(a, 3) == naive_aba(a, a)  # A A A
    assert structured_power(a, 1) == a
    with pytest.raises(ValueError):
        structured_power(a, 0)
    with pytest.raises(StructurePreconditionFailed):
        structured_power(Matrix.identity(INT, 2), 2)


def test_structured_power_trace_zero_square_is_zero():
    a = outer(mat([[1], [1]]), mat([[1, -1]]))
    assert a.trace().is_zero()
    assert structured_power(a, 2).is_zero()


def test_structured_power_agreement(ring):
    rng = random.Random(41)
    max_n = 4 if isinstance(ring, PolynomialRing) else 8
    for _ in range(100):
        n = rng.randint(1, max_n)
        a = rand_structured(rng, ring, n)
        k = rng.randint(1, 16)
        expected = a
        for _ in range(k - 1):
            expected = expected @ a
        assert structured_power(a, k) == expected


def test_structured_power_bits_is_a_floor():
    assert structured_power_bits(mat([[2]]), 10) == (2**10).bit_length()
    assert structured_power_bits(mat([[3]]), 5) == 6  # 3^5 = 243 has 8 bits
    assert structured_power_bits(mat([[1, 1], [0, 0]]), 99) == 0  # |Tr(A)| < 2
    assert structured_power_bits(mat([[3]], MOD4), 9) == 0  # not over Z
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = rand_structured(rng, INT, n)
        k = rng.randint(1, 12)
        top = max(abs(x) for row in structured_power(a, k).data for x in row)
        assert structured_power_bits(a, k) <= top.bit_length()


def test_trace_product_via_outer_examples():
    c, r = mat([[1], [2]]), mat([[3, 4]])
    f = OuterFactors(c, r)
    assert trace_product_via_outer(f, Matrix.identity(INT, 2)).value == 11
    assert trace_product_via_outer(f, Matrix.zero(INT, 2, 2)).value == 0
    picks = OuterFactors(mat([[1], [0]]), mat([[1, 0]]))
    b = mat([[5, 6], [7, 8]])
    assert trace_product_via_outer(picks, b).value == 5  # r B c picks entry (0, 0)


def test_trace_product_via_outer_matches_trace(ring):
    rng = random.Random(43)
    for _ in range(1_000):
        n = rng.randint(1, 6)
        c = random_matrix(rng, ring, n, 1)
        r = random_matrix(rng, ring, 1, n)
        b = random_matrix(rng, ring, n, n)
        assert trace_product_via_outer(OuterFactors(c, r), b) == (outer(c, r) @ b).trace()


def test_check_corollaries_examples():
    a = mat(A_EX)
    res = check_corollaries(a, Matrix.identity(INT, 2))
    assert res.all_zero()
    assert check_corollaries(Matrix.zero(INT, 2, 2), mat(B_EX)).all_zero()
    # Tr(ABA) = 69 + 184 = 253 = 23 * 11 = Tr(AB) Tr(A)
    assert naive_aba(a, mat(B_EX)).trace().value == 253
    res = check_corollaries(a, mat(B_EX))
    assert res.all_zero()
    with pytest.raises(StructurePreconditionFailed):
        check_corollaries(Matrix.identity(INT, 2), mat(B_EX))


def test_check_corollaries_random(ring):
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(2, 6)
        a = rand_structured(rng, ring, n)
        b = random_matrix(rng, ring, n, n)
        assert check_corollaries(a, b).all_zero()


def test_zero_trace_product_forces_zero_aba():
    # over Z: the canonical example
    a = outer(mat([[1], [1]]), mat([[1, -1]]))
    assert trace_product_via_outer(OuterFactors(mat([[1], [1]]), mat([[1, -1]])),
                                   Matrix.identity(INT, 2)).is_zero()
    assert naive_aba(a, Matrix.identity(INT, 2)).is_zero()
    # random search: every structured A with Tr(AB) = 0 yields A B A = 0
    rng = random.Random(53)
    hits = 0
    for _ in range(2_000):
        ring = MOD4
        n = rng.randint(2, 4)
        c = random_matrix(rng, ring, n, 1)
        r = random_matrix(rng, ring, 1, n)
        b = random_matrix(rng, ring, n, n)
        if trace_product_via_outer(OuterFactors(c, r), b).is_zero():
            hits += 1
            assert naive_aba(outer(c, r), b).is_zero()
    assert hits > 50  # Z/4 traces vanish often enough for this to mean something


def test_product_square_identity_does_not_imply_structured():
    """(AB)^2 = Tr(AB) AB can hold although A has a nonzero minor.

    Lexicographic search over Z/2 pairs with B nonzero; the first hit is
    frozen below and rechecked from scratch.
    """
    ring = ModularRing(2)
    found = None
    for a_entries in itertools.product(range(2), repeat=4):
        a = Matrix.from_rows(ring, [a_entries[:2], a_entries[2:]])
        if check_vanishing_minors(a).structured:
            continue
        for b_entries in itertools.product(range(2), repeat=4):
            if not any(b_entries):
                continue
            b = Matrix.from_rows(ring, [b_entries[:2], b_entries[2:]])
            ab = a @ b
            if ab @ ab == ab.scale(ab.trace()):
                found = (a, b)
                break
        if found:
            break
    assert found is not None
    a, b = found
    assert a == Matrix.from_rows(ring, [[0, 1], [1, 0]])
    assert b == Matrix.from_rows(ring, [[0, 0], [0, 1]])
    assert not check_vanishing_minors(a).structured
    ab = a @ b
    assert ab @ ab == ab.scale(ab.trace())


def test_operation_count_contract():
    ring = ModularRing(997)
    rng = random.Random(59)
    for n in (4, 8, 16, 32):
        a = gen_structured(rng.getrandbits(32), ring, n, "outer")
        b = random_matrix(rng, ring, n, n)
        with count_ops() as fast:
            structured_aba(a, b, check=False)
        assert fast.mul <= 3 * n * n + 10 * n
        with count_ops() as slow:
            naive_aba(a, b)
        assert slow.mul >= 2 * n**3


def test_kernels_are_thread_safe():
    ring = ModularRing(97)
    rng = random.Random(61)
    a = gen_structured(7, ring, 12, "outer")
    b = random_matrix(rng, ring, 12, 12)
    expected = structured_aba(a, b)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: structured_aba(a, b), range(64)))
    assert all(r == expected for r in results)
