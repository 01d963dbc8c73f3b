import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minortrace import (
    Matrix,
    MinorIndex,
    ModularRing,
    NoNilpotentScalar,
    NotSquare,
    OuterFactors,
    PolynomialRing,
    PrimeFieldRing,
    ShapeMismatch,
    StructureVerdict,
    check_vanishing_minors,
    count_ops,
    decompose,
    find_nilpotent_scalar,
    gen_structured,
    outer,
    random_matrix,
)
from minortrace.structure import _certify
from support import (
    ALL_RINGS,
    GF5,
    INT,
    MOD4,
    RING_IDS,
    _scan_minors,
    all_minors_naive,
    matrices,
    random_matrix_per_entry,
    raw_values,
)


def mat(rows, ring=INT):
    return Matrix.from_rows(ring, rows)


def test_check_examples():
    assert check_vanishing_minors(mat([[3, 4], [6, 8]])).structured
    verdict = check_vanishing_minors(Matrix.identity(INT, 2))
    assert not verdict.structured
    assert verdict.witness.index == MinorIndex(0, 1, 0, 1)
    assert verdict.witness.value.value == 1
    assert check_vanishing_minors(Matrix.from_rows(MOD4, [[2, 0], [0, 2]])).structured


def test_check_degenerate_shapes():
    # no 2x2 submatrix exists, so these are vacuously structured
    assert check_vanishing_minors(mat([[5]])).structured
    assert check_vanishing_minors(mat([[1, 2, 3]])).structured
    assert check_vanishing_minors(mat([[1], [2], [3]])).structured


def test_check_rectangular():
    assert check_vanishing_minors(mat([[1, 2, 3], [2, 4, 6]])).structured
    verdict = check_vanishing_minors(mat([[1, 2, 3], [2, 4, 7]]))
    assert verdict.witness.index == MinorIndex(0, 1, 0, 2)


def test_witness_is_lexicographically_first():
    a = mat([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    verdict = check_vanishing_minors(a)
    assert verdict.witness.index == MinorIndex(1, 2, 1, 2)


@given(a=matrices(MOD4, max_n=4, square=False))
@settings(max_examples=150, deadline=None)
def test_check_agrees_with_independent_enumerator(a):
    values = all_minors_naive(a)
    verdict = check_vanishing_minors(a)
    assert verdict.structured == all(v.is_zero() for _, v in values)
    if not verdict.structured:
        idx = verdict.witness.index
        first = next(pos for pos, v in values if not v.is_zero())
        assert (idx.i, idx.j, idx.k, idx.l) == first


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        StructureVerdict(structured=True, witness="bogus")


def test_outer_examples():
    c = mat([[1], [2]])
    r = mat([[3, 4]])
    assert outer(c, r) == mat([[3, 4], [6, 8]])
    assert outer(Matrix.zero(INT, 2, 1), r) == Matrix.zero(INT, 2, 2)
    e = outer(mat([[1], [0], [0]]), mat([[0, 0, 1]]))
    assert e.entry(0, 2).value == 1 and sum(x != 0 for row in e.data for x in row) == 1
    with pytest.raises(ShapeMismatch):
        outer(mat([[1, 2]]), r)


def test_outer_products_are_structured_bulk(ring):
    rng = random.Random(23)
    # polynomial entries of outer products reach degree 4, which makes the
    # minor scan pricey; keep those vectors linear and a bit smaller
    poly = isinstance(ring, PolynomialRing)
    max_n = 6 if poly else 8

    def vector(rows, cols):
        if poly:
            return Matrix.from_rows(
                ring,
                [
                    [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(cols)]
                    for _ in range(rows)
                ],
            )
        return random_matrix(rng, ring, rows, cols)

    for _ in range(10_000):
        n = rng.randint(1, max_n)
        assert check_vanishing_minors(outer(vector(n, 1), vector(1, n))).structured


def test_decompose_rank1_field_round_trip_example():
    a = Matrix.from_rows(GF5, [[3, 4], [1, 3]])  # minor 3*3 - 4*1 = 5 = 0
    f = decompose(a)
    assert f is not None
    assert f.product() == a


def test_decompose_rank1_field_edges():
    assert decompose(Matrix.identity(PrimeFieldRing(3), 2)) is None
    z = Matrix.zero(GF5, 3, 3)
    f = decompose(z)
    assert f.col.is_zero() and f.row.is_zero() and f.product() == z
    with pytest.raises(NotSquare):
        decompose(Matrix.from_rows(GF5, [[1, 2]]))


def test_decompose_rank1_field_succeeds_iff_structured():
    rng = random.Random(29)
    for _ in range(500):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            a = outer(random_matrix(rng, GF5, n, 1), random_matrix(rng, GF5, 1, n))
        else:
            a = random_matrix(rng, GF5, n, n)
        f = decompose(a)
        if check_vanishing_minors(a).structured:
            assert f is not None and f.product() == a
        else:
            assert f is None


def test_decompose_2x2_gcd_examples():
    f = decompose(mat([[6, 10], [9, 15]]))
    assert f.col == mat([[2], [3]])
    assert f.row == mat([[3, 5]])
    assert f.product() == mat([[6, 10], [9, 15]])

    f = decompose(mat([[0, 0], [3, 5]]))
    assert f.col == mat([[0], [1]])
    assert f.row == mat([[3, 5]])

    f = decompose(Matrix.zero(INT, 2, 2))
    assert f.col.is_zero() and f.row.is_zero()


def test_decompose_2x2_gcd_round_trip_bulk():
    rng = random.Random(31)
    for _ in range(500):
        c = random_matrix(rng, INT, 2, 1, bound=30)
        r = random_matrix(rng, INT, 1, 2, bound=30)
        a = outer(c, r)
        f = decompose(a)
        assert f.product() == a


GF65537 = PrimeFieldRing(65537)


@st.composite
def decomposition_cases(draw, ring):
    """Outer products, perturbed and random matrices with zero rows and columns."""
    n = draw(st.integers(1, 12))
    if ring == INT:
        entry = st.integers(-(2**100), 2**100)
    else:
        entry = st.integers(0, ring.p - 1)
    sparse = st.one_of(st.just(0), st.just(0), entry)

    def vector(length):
        return [draw(sparse) for _ in range(length)]

    kind = draw(st.sampled_from(["outer", "perturbed", "random"]))
    if kind == "random":
        return Matrix.from_rows(ring, [vector(n) for _ in range(n)])
    col, row = vector(n), vector(n)
    rows = [[c * r for r in row] for c in col]
    if kind == "perturbed":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += draw(entry)
    return Matrix.from_rows(ring, rows)


@pytest.mark.parametrize("ring", [INT, GF5, GF65537], ids=["int", "gf5", "gf65537"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_decompose_round_trips_exactly_when_minors_vanish(ring, data):
    a = data.draw(decomposition_cases(ring))
    f = decompose(a)
    has_nonzero_minor = any(not v.is_zero() for _, v in all_minors_naive(a))
    assert (f is None) == has_nonzero_minor
    if f is not None:
        assert f.product() == a
        if ring == INT and not a.is_zero():
            assert math.gcd(*f.row.data[0]) == 1


@pytest.mark.parametrize("ring", [INT, GF65537], ids=["int", "gf65537"])
def test_decompose_refuses_a_late_minor_in_quadratic_time(ring):
    # zero but for a 2x2 identity in the bottom-right corner: the one nonzero
    # minor is the last in scan order, about n^4 / 4 minors away
    n = 64
    a = mat([[int(i == j >= n - 2) for j in range(n)] for i in range(n)], ring)
    with count_ops() as counts:
        assert decompose(a) is None
    assert counts.mul <= 2 * n * n + 10 * n
    # the certificate of a, one of the pair (n - 2, n - 1), and a scan of
    # that pair's minors; a scan of all minors makes about n^4 / 2 products
    with count_ops() as counts:
        verdict = check_vanishing_minors(a)
    assert verdict.witness.index == MinorIndex(n - 2, n - 1, n - 2, n - 1)
    assert counts.mul <= 3 * n * n + 10 * n


def test_witness_over_zero_divisors_in_cubic_time():
    # over Z/4: rows of 2s, then [1, ..., 1] and [1, ..., 1, 3]; every pair
    # with a row of 2s has minors 2 * 2 - 2 * 2 or 2 * 3 - 2 * 1, both 0, so
    # all C(n - 2, 2) + 2 (n - 2) of them are certified before the last pair
    # holds the witness
    n = 32
    a = mat([[2] * n] * (n - 2) + [[1] * n, [1] * (n - 1) + [3]], MOD4)
    with count_ops() as counts:
        verdict = check_vanishing_minors(a)
    assert verdict == _scan_minors(a)
    assert verdict.witness.index == MinorIndex(n - 2, n - 1, 0, n - 1)
    # 9918 products (10 n^2 - 10 n - 2): a sweep of 4 n for each pair with
    # a row of 1s, none for a pair of 2s, which the certificate's gcd step
    # settles in O(n) without one; a scan of all minors makes about 2 C(n, 2)^2
    assert counts.mul <= 10 * n * n


def test_outer_factors_validation():
    with pytest.raises(ShapeMismatch):
        OuterFactors(mat([[1, 2]]), mat([[1, 2]]))


def test_gen_structured_outer(ring):
    for seed in range(10):
        a = gen_structured(seed, ring, 5, "outer")
        assert a.rows == a.cols == 5
        assert check_vanishing_minors(a).structured
    assert gen_structured(7, ring, 5) == gen_structured(7, ring, 5)  # deterministic


def test_gen_structured_nilscalar():
    for seed in range(10):
        a = gen_structured(seed, MOD4, 3, "nilscalar")
        assert check_vanishing_minors(a).structured
        assert all(x in (0, 2) for row in a.data for x in row)
    with pytest.raises(NoNilpotentScalar):
        gen_structured(0, ModularRing(6), 2, "nilscalar")
    with pytest.raises(NoNilpotentScalar):
        gen_structured(0, INT, 2, "nilscalar")
    with pytest.raises(ValueError):
        gen_structured(0, INT, 2, "bogus")


DRAW_CASES = [
    (INT, 0), (INT, 1), (INT, 9), (INT, 100),
    (ModularRing(2), 9), (ModularRing(12), 9), (ModularRing(2**61 - 1), 9),
    (PrimeFieldRing(65537), 9), (PolynomialRing(INT), 9), (PolynomialRing(MOD4), 9),
]
DRAW_IDS = ["int-b0", "int-b1", "int-b9", "int-b100", "mod2", "mod12", "mod2^61-1",
            "gf65537", "polyint", "polymod4"]


@pytest.mark.parametrize("ring,bound", DRAW_CASES, ids=DRAW_IDS)
def test_random_matrix_draws_like_random_elem_per_entry(ring, bound):
    for seed in range(20):
        for rows, cols in [(1, 1), (1, 7), (7, 1), (5, 3), (64, 64)]:
            rng, ref = random.Random(seed), random.Random(seed)
            a = random_matrix(rng, ring, rows, cols, bound)
            want = random_matrix_per_entry(ref, ring, rows, cols, bound)
            assert a == want and a.data == want.data
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ring", [INT, PolynomialRing(INT)], ids=["int", "polyint"])
def test_random_matrix_negative_bound_raises_like_random_elem(ring):
    for bound in (-1, -5):
        with pytest.raises(ValueError) as got:
            random_matrix(random.Random(0), ring, 2, 3, bound)
        with pytest.raises(ValueError) as want:
            random_matrix_per_entry(random.Random(0), ring, 2, 3, bound)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("ring,bound", DRAW_CASES, ids=DRAW_IDS)
def test_gen_structured_draws_like_random_elem_per_entry(ring, bound):
    s = find_nilpotent_scalar(ring)
    for seed in range(20):
        for n in (1, 2, 5, 16):
            rng = random.Random(seed)
            want = outer(random_matrix_per_entry(rng, ring, n, 1, bound),
                         random_matrix_per_entry(rng, ring, 1, n, bound))
            assert gen_structured(seed, ring, n, "outer", bound).data == want.data
            if s is not None:
                want = random_matrix_per_entry(random.Random(seed), ring, n, n, bound).scale(s)
                assert gen_structured(seed, ring, n, "nilscalar", bound).data == want.data


def test_find_nilpotent_scalar():
    assert find_nilpotent_scalar(MOD4) == 2
    assert find_nilpotent_scalar(ModularRing(8)) == 4
    assert find_nilpotent_scalar(ModularRing(9)) == 3
    assert find_nilpotent_scalar(ModularRing(6)) is None  # squarefree
    assert find_nilpotent_scalar(INT) is None


def test_find_nilpotent_scalar_agrees_with_the_residue_loop():
    for m in range(2, 5001):
        want = next((s for s in range(1, m) if s * s % m == 0), None)
        assert find_nilpotent_scalar(ModularRing(m)) == want, m


def test_find_nilpotent_scalar_large_moduli():
    p61 = 2**61 - 1
    start = time.perf_counter()
    assert find_nilpotent_scalar(ModularRing(p61)) is None  # prime
    assert time.perf_counter() - start < 5.0  # the residue loop needs ~2^61 steps
    with pytest.raises(ValueError):
        find_nilpotent_scalar(ModularRing(2**64))
    q = 2**31 - 1  # a prime just above the cube root of q^2 * 3
    assert find_nilpotent_scalar(ModularRing(3 * q * q)) == 3 * q
    assert find_nilpotent_scalar(ModularRing(2**63)) == 2**32
    assert find_nilpotent_scalar(ModularRing(1009**2 * 1013)) == 1009 * 1013


def test_nilscalar_can_produce_scaled_identity_flavor():
    # the Z/4 family includes nonzero matrices like [[2,0],[0,2]] that are
    # structured without being an obvious outer product of small vectors
    a = Matrix.from_rows(MOD4, [[2, 0], [0, 2]])
    assert check_vanishing_minors(a).structured
    assert not a.is_zero()


# ---------------------------------------------------------------------------
# The pivot certificate against the independent enumerator


def assert_matches_naive(a):
    """Verdict and first witness agree with all_minors_naive; the certificate is sound."""
    nonzero = [(pos, v) for pos, v in all_minors_naive(a) if not v.is_zero()]
    verdict = check_vanishing_minors(a)
    assert verdict.structured == (not nonzero)
    if nonzero:
        pos, value = nonzero[0]
        idx = verdict.witness.index
        assert (idx.i, idx.j, idx.k, idx.l) == pos
        assert verdict.witness.value == value
    certified = _certify(a)
    assert not (certified and nonzero)
    return certified, verdict.structured


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (6, 2), (8, 2), (2, 3), (3, 3)])
def test_certificate_exhaustive_small_rings(m, n):
    ring = ModularRing(m)
    for entries in itertools.product(range(m), repeat=n * n):
        a = Matrix(ring, tuple(entries[r * n : (r + 1) * n] for r in range(n)))
        certified, structured = assert_matches_naive(a)
        # over Z/m the certificate decides every yes answer without a scan
        assert certified == structured


def nilpotent_scalar(ring):
    ground = ring
    while isinstance(ground, PolynomialRing):
        ground = ground.base
    s = find_nilpotent_scalar(ground)
    return None if s is None else ring.canon(s)


@st.composite
def certificate_cases(draw, ring):
    """Random, outer, nilscalar, sparse, zero-leading-row and late-witness
    matrices, any shape.  A late witness is an outer or nilscalar matrix
    whose last row is redrawn, so every nonzero minor lies in a pair with
    the last row and the row pairs before it are certified and skipped."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    kind = draw(
        st.sampled_from(["random", "outer", "nilscalar", "sparse", "zero-leading-row", "late-witness"])
    )
    values = raw_values(ring)
    if kind == "sparse":
        values = st.one_of(st.just(ring.zero), st.just(ring.zero), values)

    def grid(r, c):
        return Matrix.from_rows(ring, [[draw(values) for _ in range(c)] for _ in range(r)])

    if kind == "random":
        return grid(rows, cols)
    a = outer(grid(rows, 1), grid(1, cols))
    if kind == "nilscalar" or kind == "late-witness" and draw(st.booleans()):
        s = nilpotent_scalar(ring)
        a = grid(rows, cols).scale(s) if s is not None else a.scale(ring.elem(draw(values)))
    if kind == "late-witness":
        a = Matrix(ring, a.data[:-1] + grid(1, cols).data)
    elif kind == "zero-leading-row":
        if draw(st.booleans()):
            a = grid(rows, cols)
        a = Matrix(ring, ((ring.zero,) * cols,) + a.data[1:])
    return a


MOD6 = ModularRing(6)
MOD72 = ModularRing(72)
POLY_MOD4 = PolynomialRing(MOD4)
POLY_MOD6 = PolynomialRing(MOD6)
POLY_MOD8 = PolynomialRing(ModularRing(8))
POLY_MOD12 = PolynomialRing(ModularRing(12))
POLY_POLY_MOD4 = PolynomialRing(POLY_MOD4, "y")


@pytest.mark.parametrize(
    "ring",
    ALL_RINGS + [MOD6, MOD72, POLY_MOD4, POLY_MOD6, POLY_MOD12, POLY_POLY_MOD4],
    ids=RING_IDS + ["mod6", "mod72", "polymod4", "polymod6", "polymod12", "polypolymod4"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_certificate_agrees_with_independent_enumerator(ring, data):
    a = data.draw(certificate_cases(ring))
    certified, structured = assert_matches_naive(a)
    assert certified == structured


@pytest.mark.parametrize(
    "ring,pivot,other",
    [(MOD6, 2, 3), (ModularRing(12), 3, 4), (PolynomialRing(MOD6), [2], [0, 3])],
    ids=["mod6", "mod12", "polymod6"],
)
def test_certificate_rejects_zero_divisor_pivots(ring, pivot, other):
    # every minor through a[0][0] vanishes, but pivot * other = 0 while
    # other * other != 0, so the minor of the lower corner does not
    zero = ring.zero
    a = Matrix.from_rows(ring, [[pivot, zero, zero], [zero, other, zero], [zero, zero, other]])
    certified, structured = assert_matches_naive(a)
    assert not certified and not structured


def test_certificate_decides_polynomials_mod_m_without_a_regular_pivot():
    # every entry is a multiple of 2 in Z/4[x], so no entry is a pivot; the
    # gcd step takes out g = 2, and g^2 = 0 in Z/4 settles it
    a = Matrix.from_rows(POLY_MOD4, [[[2], [0, 2]], [[0, 2], [2]]])
    assert _certify(a)
    assert check_vanishing_minors(a).structured
    assert_matches_naive(a)


def assert_certificate_matches_scan(ring, entries):
    """Over every 2x2 matrix with entries drawn from entries: the certificate
    decides as the scan does, and check_vanishing_minors gives its witness."""
    for e in itertools.product(entries, repeat=4):
        a = Matrix(ring, (e[:2], e[2:]))
        scan = _scan_minors(a)
        assert _certify(a) == scan.structured, a
        assert check_vanishing_minors(a) == scan, a


def linear_polynomials(ring):
    m = ring.base.modulus
    return sorted({ring.canon([c0, c1]) for c0 in range(m) for c1 in range(m)})


def test_certificate_exhaustive_linear_polynomials_mod_4():
    entries = linear_polynomials(POLY_MOD4)
    assert len(entries) == 16
    assert_certificate_matches_scan(POLY_MOD4, entries)  # 65536 matrices


def test_certificate_exhaustive_linear_zero_divisors_mod_6():
    # the linear polynomials whose content shares a factor with 6 (McCoy);
    # all 36 linear polynomials give about 1.7M matrices
    entries = [p for p in linear_polynomials(POLY_MOD6) if math.gcd(6, *p) > 1]
    assert len(entries) == 12
    assert_certificate_matches_scan(POLY_MOD6, entries)  # 20736 matrices


def test_certificate_without_regular_pivot_uses_quadratic_multiplications():
    # 2 (col row) over Z/8[x]: every entry is a zero divisor, so the gcd step
    # reduces to col row over Z/2[x], whose sweep decides
    n = 32
    rng = random.Random(11)

    def vector(rows, cols):
        coeffs = [[[rng.randrange(8) for _ in range(3)] for _ in range(cols)] for _ in range(rows)]
        return Matrix.from_rows(POLY_MOD8, coeffs)

    a = outer(vector(n, 1), vector(1, n)).scale(2)
    with count_ops() as counts:
        assert check_vanishing_minors(a).structured
    # two products per entry, each of at most 5 x 5 coefficients; a scan of
    # all minors makes 6695401 coefficient multiplications here
    assert counts.mul <= 2 * 25 * n * n


def test_certificate_uses_2n_squared_multiplications():
    n = 32
    a = gen_structured(3, ModularRing(2**61 - 1), n, "outer")
    with count_ops() as counts:
        assert check_vanishing_minors(a).structured
    # the full scan would do 2 * C(n, 2)^2 = 492032 multiplications here;
    # the certificate's own products are counted, in bulk
    assert n * n <= counts.mul <= 2 * n * n + 10 * n
