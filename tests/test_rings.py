import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minortrace import (
    IntegerRing,
    MinorIndex,
    ModularRing,
    PolynomialRing,
    PrimeFieldRing,
    RingMismatch,
    count_ops,
    is_prime,
    random_matrix,
)
from minortrace import rings
from minortrace.rings import Ring
from support import (
    GF5,
    INT,
    MOD4,
    POLY_INT,
    SCALAR_RINGS,
    _scan_minors,
    poly_add_per_coeff,
    poly_mul_per_coeff,
    rand_structured,
    raw_values,
)


def test_add_examples():
    assert (INT.elem(2) + INT.elem(3)).value == 5
    assert (MOD4.elem(2) + MOD4.elem(2)).value == 0
    one_plus_x = POLY_INT.elem([1, 1])
    one_minus_x = POLY_INT.elem([1, -1])
    assert (one_plus_x + one_minus_x).value == (2,)


def test_mul_examples():
    assert (MOD4.elem(2) * MOD4.elem(2)).value == 0
    assert (INT.elem(-3) * INT.elem(4)).value == -12
    x = POLY_INT.elem([0, 1])
    assert (x * x).value == (0, 0, 1)


def test_neg_examples():
    assert (-INT.elem(5)).value == -5
    mod7 = ModularRing(7)
    assert (-mod7.elem(3)).value == 4
    assert (-mod7.elem(0)).value == 0


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        INT.elem(1) + MOD4.elem(1)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ModularRing(1)
    with pytest.raises(ValueError):
        PrimeFieldRing(6)
    PrimeFieldRing(2**61 - 1)  # a Mersenne prime; must pass the check
    # the depth comes from the base ring's, so the cap holds over every ground ring
    for ground in (IntegerRing(), ModularRing(4), PrimeFieldRing(5)):
        PolynomialRing(PolynomialRing(ground, "x"), "y")  # depth 2 is fine
        with pytest.raises(ValueError, match="^polynomial nesting is capped at depth 2$"):
            PolynomialRing(PolynomialRing(PolynomialRing(ground)))
    with pytest.raises(ValueError):
        PolynomialRing(IntegerRing(), "2x")


def test_prime_field_order_is_tested_once_per_p(monkeypatch):
    calls = []
    monkeypatch.setattr(rings, "is_prime", lambda n: calls.append(n) or is_prime(n))
    rings._is_prime_once.cache_clear()
    assert PrimeFieldRing(65537) == PrimeFieldRing(65537)
    assert calls == [65537]


PSI_13 = 3317044064679887385961981  # composite, and a strong probable prime to bases 2..41


@pytest.mark.parametrize(
    "p, message",
    [
        (6, "prime field order must be prime, got 6"),
        (True, "prime field order must be prime, got True"),
        (1, "prime field order must be prime, got 1"),
        ("7", "prime field order must be prime, got '7'"),
        (PSI_13, f"primality is proven only below {PSI_13}, got {PSI_13}"),
    ],
)
def test_prime_field_order_messages_hold_when_cached(p, message):
    for _ in range(2):  # the second construction reads the cached primality
        with pytest.raises(ValueError) as info:
            PrimeFieldRing(p)
        assert str(info.value) == message


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_strong_pseudoprime_to_bases_up_to_37():
    # psi_12, the smallest strong pseudoprime to every prime base 2..37
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    assert is_prime(399165290221) and is_prime(798330580441)


def test_ring_axioms_bulk(ring):
    """Associativity, commutativity, distributivity, inverses: 10^4 triples."""
    rng = random.Random(0xA5)
    from minortrace.structure import random_elem

    zero = ring.elem(ring.zero)
    one = ring.elem(ring.one)
    for _ in range(10_000):
        a = ring.elem(random_elem(rng, ring))
        b = ring.elem(random_elem(rng, ring))
        c = ring.elem(random_elem(rng, ring))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        assert one * a == a


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_idempotence(data):
    for ring in (INT, MOD4, GF5):
        v = ring.canon(data.draw(st.integers(-10**6, 10**6)))
        assert ring.canon(v) == v
    coeffs = data.draw(st.lists(st.integers(-9, 9), max_size=5))
    v = POLY_INT.canon(coeffs)
    assert POLY_INT.canon(v) == v
    if v:
        assert v[-1] != 0  # no trailing zeros in canonical form
    assert POLY_INT.canon(coeffs + [0, 0]) == v


@given(
    a=st.integers(-10**9, 10**9),
    b=st.integers(-10**9, 10**9),
    m=st.integers(2, 50),
)
@settings(max_examples=300, deadline=None)
def test_modular_mul_cross_ring_oracle(a, b, m):
    # independent route: multiply over the integers, then reduce
    ring = ModularRing(m)
    over_z = INT.elem(a) * INT.elem(b)
    assert (ring.elem(a) * ring.elem(b)).value == over_z.value % m


@given(k=st.integers(0, 12), data=st.data())
@settings(max_examples=100, deadline=None)
def test_pow_scalar_matches_repeated_multiplication(k, data):
    for ring in (INT, MOD4, GF5, POLY_INT):
        v = data.draw(raw_values(ring, bound=3))
        expected = ring.one
        for _ in range(k):
            expected = ring.mul(expected, v)
        assert ring.pow_scalar(v, k) == expected


def test_pow_scalar_rejects_negative_exponent():
    with pytest.raises(ValueError):
        INT.pow_scalar(2, -1)


@pytest.mark.parametrize("ring", SCALAR_RINGS, ids=str)
def test_sub_matches_add_of_neg_in_value_and_op_counts(ring, monkeypatch):
    # Matrix.__sub__, the minor scan and minor2 each call ring.sub; the one
    # operation gives what add(a, neg(b)) gives and counts the same one add
    rng = random.Random(71)
    n = 5
    a, b = random_matrix(rng, ring, n, n), random_matrix(rng, ring, n, n)
    structured = rand_structured(rng, ring, n)
    indices = [MinorIndex(i, j, k, l) for i in range(n) for j in range(i + 1, n)
               for k in range(n) for l in range(k + 1, n)]

    def run():
        with count_ops() as ops:
            out = (a - b, _scan_minors(structured), _scan_minors(a), [a.minor2(i) for i in indices])
        return out, (ops.mul, ops.add)

    results, (muls, adds) = run()
    monkeypatch.setattr(type(ring), "sub", Ring.sub)
    assert run() == (results, (muls, adds))
    # n^2 entries, every minor of the structured matrix, every minor2
    assert adds >= n * n + 2 * len(indices)


def test_count_ops_counts_a_dot_product():
    with count_ops() as counts:
        INT.dot((1, 2, 3), (4, 5, 6))
    assert counts.mul == 3
    assert counts.add == 2
    # outside the block nothing is counted
    INT.dot((1, 2), (3, 4))
    assert counts.mul == 3


# Each plain-int ring with its modulus, 0 for Z
PLAIN_INT_RINGS = [(INT, 0), (MOD4, 4), (ModularRing(12), 12), (GF5, 5), (ModularRing(2**61 - 1), 2**61 - 1)]
PLAIN_INT_IDS = ["int", "mod4", "mod12", "gf5", "mod2^61-1"]


@pytest.mark.parametrize("ring, m", PLAIN_INT_RINGS, ids=PLAIN_INT_IDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_plain_int_arithmetic_matches_python_ints(ring, m, data):
    # Z, Z/m and GF(p) share one implementation that reduces mod m, or not at
    # all over Z; every method and its documented op count against plain
    # int arithmetic, on reduced, unreduced, negative and RingElem rows
    def reduce(v):
        return v % m if m else v

    kind = data.draw(st.sampled_from(["reduced", "unreduced", "negative", "elem"]))
    value = {
        "reduced": st.integers(0, m - 1) if m else st.integers(-(2**100), 2**100),
        "unreduced": st.integers(-(2**100), 2**100),
        "negative": st.integers(-(2**100), -1),
        "elem": st.integers(-(2**100), 2**100),
    }[kind]
    n = data.draw(st.integers(0, 6))
    raw = data.draw(st.lists(value, min_size=n, max_size=n))
    want = tuple(map(reduce, raw))
    assert tuple(map(ring.canon, raw)) == want
    row = [ring.elem(x) for x in raw] if kind == "elem" else raw
    with count_ops() as ops:
        xs = ring.canon_row(row)
        assert xs == want
        ys = ring.canon_row(data.draw(st.lists(value, min_size=n, max_size=n)))
    assert (ops.mul, ops.add) == (0, 0)
    t = ring.canon(data.draw(value))

    def counted(fn, *args):
        with count_ops() as ops:
            out = fn(*args)
        return out, (ops.mul, ops.add)

    assert counted(ring.scale_row, t, xs) == (tuple(reduce(t * x) for x in xs), (n, 0))
    assert counted(ring.dot, xs, ys) == (
        reduce(sum(x * y for x, y in zip(xs, ys))),
        (n, n - 1) if n else (0, 0),
    )
    for x, y in zip(xs, ys):
        assert counted(ring.add, x, y) == (reduce(x + y), (0, 1))
        assert counted(ring.sub, x, y) == (reduce(x - y), (0, 1))
        assert counted(ring.neg, x) == (reduce(-x), (0, 0))
        assert counted(ring.mul, x, y) == (reduce(x * y), (1, 0))


def test_poly_zero_divisor_product_strips_leading_zero():
    ring = PolynomialRing(MOD4)
    two_x = ring.elem([0, 2])
    assert (two_x * two_x).value == ()  # 4x^2 = 0 over Z/4
    z12 = PolynomialRing(ModularRing(12))
    assert z12.mul((1, 6), (0, 2)) == (0, 2)  # 12x^2 = 0
    assert z12.mul((0, 4), (3, 3)) == ()  # 12x + 12x^2 = 0
    assert z12.add((1, 2, 5), (0, 1, 7)) == (1, 3)
    assert z12.add((1, 2, 5), (11,)) == (0, 2, 5)


@pytest.mark.parametrize("base", [INT, MOD4, GF5], ids=["int", "mod4", "gf5"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_poly_mul_and_add_match_the_per_coefficient_reference(base, data):
    # values and op counts: the plain-int loops count what the per-coefficient
    # reference does, one bump per call
    ring = PolynomialRing(base)
    coeff = st.integers(-2**70, 2**70) if base is INT else st.integers(0, base._m - 1)
    polys = st.lists(st.one_of(st.just(0), coeff), max_size=5).map(ring.canon)
    a, b = data.draw(polys), data.draw(polys)
    for fast, ref in ((ring.mul, poly_mul_per_coeff), (ring.add, poly_add_per_coeff)):
        with count_ops() as got:
            value = fast(a, b)
        with count_ops() as want:
            expected = ref(ring, a, b)
        assert value == expected
        assert (got.mul, got.add) == (want.mul, want.add)
