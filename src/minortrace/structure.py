"""Vanishing-minor structure: detection, outer products, rank-one factors.

A square matrix whose 2x2 minors all vanish is exactly the kind the trace
kernels accelerate.  This module decides membership (with a witness when the
answer is no), builds members as column-row outer products, recovers the
factors over Z and GF(p) (the domains where vanishing minors imply them),
and generates random members for tests and benchmarks.
"""

from __future__ import annotations

import random
from itertools import chain
from math import gcd, isqrt

from .matrices import Matrix, MinorIndex, NotSquare, ShapeMismatch
from .rings import (
    IntegerRing,
    ModularRing,
    PolynomialRing,
    PrimeFieldRing,
    Ring,
    RingElem,
    RingMismatch,
    UnsupportedRing,
    _Record,
    _ResidueRing,
    _bump,
)


class NoNilpotentScalar(Exception):
    """The ring has no nonzero scalar s with s*s = 0."""


class MinorWitness(_Record):
    """A nonzero 2x2 minor: its index and its value."""

    _fields = ("index", "value")


class StructureVerdict(_Record):
    """Outcome of the vanishing-minor check."""

    _fields = ("structured", "witness")

    def __init__(self, structured: bool, witness: MinorWitness | None):
        if structured == (witness is not None):
            raise ValueError("structured verdicts carry no witness, and vice versa")
        super().__init__(structured, witness)


class OuterFactors(_Record):
    """A column-row factorization col @ row of a rank-at-most-one matrix."""

    _fields = ("col", "row")

    def __init__(self, col: Matrix, row: Matrix):
        if col.ring != row.ring:
            raise RingMismatch(f"{col.ring} vs {row.ring}")
        if col.cols != 1 or row.rows != 1:
            raise ShapeMismatch("factors must be a column and a row")
        super().__init__(col, row)

    def product(self) -> Matrix:
        return self.col @ self.row


def check_vanishing_minors(a: Matrix) -> StructureVerdict:
    """Decide whether all 2x2 minors vanish; report the first nonzero one if not.

    The O(n^2) pivot certificate settles every yes answer, over every ring
    family.  On a no, it decides each row pair (i, j) in lexicographic
    order, skipping zero rows, and the minors (k, l) are scanned only in
    the first pair it refuses.  Over a domain that pair holds the first
    nonzero row, so the search costs O(n^2); over Z/m with zero divisors
    it takes at most O(n^3) pair certificates.  Rectangular matrices are
    allowed, and a single row or column (or a 1x1 matrix) is vacuously
    structured.

    The witness is the first nonzero minor in lexicographic order of
    (i, j, k, l), and every minor in rows (0, 1) comes before every other.
    So when rows 0-1 alone hold a nonzero minor, the witness found on
    those two rows is the witness of any matrix that begins with them.
    On a text that serialize.matrix_rows_from_text takes (every entry
    checked), the CLI decides check and probe that way without converting
    the other rows; any other text is decided whole, with the same witness.
    """
    if _certify(a):
        return StructureVerdict(structured=True, witness=None)
    ring, d = a.ring, a.data
    mul, sub, zero = ring.mul, ring.sub, ring.zero
    for i, ri in enumerate(d):
        if not any(ri):
            continue
        for j in range(i + 1, a.rows):
            rj = d[j]
            # a 2-row a is the pair itself, which _certify has just refused
            if a.rows > 2 and _certify(Matrix(ring, (ri, rj))):
                continue
            for k in range(a.cols - 1):
                for l in range(k + 1, a.cols):
                    v = sub(mul(ri[k], rj[l]), mul(ri[l], rj[k]))
                    if v != zero:
                        witness = MinorWitness(MinorIndex(i, j, k, l), RingElem(ring, v))
                        return StructureVerdict(structured=False, witness=witness)
    raise AssertionError("unreachable: a refused matrix has a refused row pair")


# ---------------------------------------------------------------------------
# Pivot certificate
#
# If c = a[p][q] is not a zero divisor, all 2x2 minors vanish exactly when
# a[i][j] * c == a[i][q] * a[p][j] for every (i, j).  Those equalities are
# the minors through row p and column q; any other minor times c^2 expands
# to zero, and c^2 is not a zero divisor either.  The sweep is division-free
# and costs 2 multiplications per entry.


def _certify(a: Matrix) -> bool:
    """True exactly when every 2x2 minor of a vanishes, in O(n^2) operations.

    The content of an entry is the entry itself over Z, Z/m and GF(p), and
    the gcd of m and its coefficients over their polynomial rings.  By
    McCoy's theorem an entry is a zero divisor exactly when its content
    shares a factor with the ground modulus m, so the pivot is the first
    entry whose content is coprime to m (the first nonzero entry over Z and
    Z[x]).  Without one, either all contents share a factor g of m, and
    A = g A' reduces the question to A' over Z/(m / gcd(g^2, m)); or some
    content's gcd with m splits m into two coprime parts, and the question
    splits with it (CRT).  Neither step factors m.
    """
    if a.rows < 2 or a.cols < 2:
        return True
    rows, ring = a.data, a.ring
    ground, depth = ring, 0
    while isinstance(ground, PolynomialRing):
        ground, depth = ground.base, depth + 1
    m = ground._m
    contents = rows
    if depth and m:
        flat = chain.from_iterable if depth == 2 else iter
        contents = [[gcd(m, *flat(x)) for x in row] for row in rows]
    for p, row in enumerate(contents):
        for q, x in enumerate(row):
            if x and (not m or gcd(x, m) == 1):
                return _pivot_sweep(rows, p, q, ring)
        if p == 0 and m:
            # row 0 holds no pivot; a common factor g > 1 of the contents
            # rules out every other one, so it is taken next, in one C-level
            # call (a regular entry in row 0 would have forced g = 1)
            g = gcd(m, *chain.from_iterable(contents))
            if g > 1:
                m2 = m // gcd(g * g, m)
                return m2 == 1 or _certify(_reduce(rows, g, ring, m2))
    if not m:
        return True  # the zero matrix
    # no regular entry and no common factor: every content shares some
    # prime with m, and some content misses a prime of m (else rad(m) would
    # divide g)
    for x in chain.from_iterable(contents):
        d = gcd(m, x)
        rest = m  # the largest divisor of m coprime to d
        while (t := gcd(rest, d)) > 1:
            rest //= t
        if 1 < rest < m:
            return all(_certify(_reduce(rows, 1, ring, k)) for k in (m // rest, rest))
    raise AssertionError("unreachable: some content splits the modulus")


def _over(ring: Ring, m: int) -> Ring:
    """ring with its ground ring replaced by Z/m."""
    if isinstance(ring, PolynomialRing):
        return PolynomialRing(_over(ring.base, m), ring.var)
    return ModularRing(m)


def _reduce(rows, g: int, ring: Ring, m: int) -> Matrix:
    """The rows divided by g, coefficient by coefficient, over ring on Z/m."""
    ring = _over(ring, m)
    return Matrix(ring, tuple(ring.canon_row(_divide(row, g)) for row in rows))


def _divide(values, g: int) -> list:
    return [x // g if isinstance(x, int) else _divide(x, g) for x in values]


def _pivot_sweep(rows, p: int, q: int, ring: Ring) -> bool:
    """Check a[i][j] * c == a[i][q] * a[p][j] for c = a[p][q], row by row.

    Over Z, Z/m and GF(p) on plain ints, counted in bulk; over polynomial
    rings with ring.mul.
    """
    rp = rows[p]
    c = rp[q]
    if isinstance(ring, PolynomialRing):
        mul = ring.mul
        return all(mul(c, x) == mul(ri[q], y) for ri in rows for x, y in zip(ri, rp))
    m = ring._m
    swept = 0
    for ri in rows:
        swept += 1
        u = ri[q]
        if m:
            broken = any((c * x - u * y) % m for x, y in zip(ri, rp))
        else:
            broken = any(c * x - u * y for x, y in zip(ri, rp))
        if broken:
            break
    _bump(2 * len(rp) * swept, 0)  # the row that breaks counts in full
    return not broken


def outer(col: Matrix, row: Matrix) -> Matrix:
    """The product col @ row; every 2x2 minor of the result vanishes."""
    return OuterFactors(col, row).product()


def decompose(a: Matrix) -> OuterFactors | None:
    """Column-row factors col @ row of a square matrix over Z or GF(p).

    The pivot a[p][q] is the first nonzero entry.  It is not a zero divisor
    here, so the certificate's sweep on it decides in O(n^2): None when
    some 2x2 minor is nonzero.  Otherwise row = row p / d and col_i =
    a[i][q] / row[q], with d the pivot over GF(p) and the content of row p
    over Z.  The Z row is then primitive, and Gauss's lemma makes the
    column division exact.  The zero matrix gets zero factors.

    Over Z/m with m composite, vanishing minors do not give factors:
    diag(2, 2) over Z/4 has the single minor 4 = 0, yet no c r equals it.
    So every other ring raises UnsupportedRing.
    """
    ring = a.ring
    if not isinstance(ring, (IntegerRing, PrimeFieldRing)):
        raise UnsupportedRing(f"no decomposition over {ring}")
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    d = a.data
    pivot = next(((p, q) for p, r in enumerate(d) for q, x in enumerate(r) if x), None)
    if pivot is None:
        return OuterFactors(Matrix.zero(ring, a.rows, 1), Matrix.zero(ring, 1, a.rows))
    p, q = pivot
    if not _pivot_sweep(d, p, q, ring):
        return None
    rp = d[p]
    if isinstance(ring, IntegerRing):
        g = gcd(*rp)
        row = [x // g for x in rp]
        col = [r[q] // row[q] for r in d]
    else:  # row[q] = 1, so the column is column q
        m = ring.p
        inv = pow(rp[q], -1, m)
        row = [x * inv % m for x in rp]
        col = [r[q] for r in d]
    return OuterFactors(Matrix(ring, tuple((c,) for c in col)), Matrix(ring, (tuple(row),)))


# ---------------------------------------------------------------------------
# Random generation (seed-deterministic)

DEFAULT_ENTRY_BOUND = 9  # keeps integer test values hand-checkable


def random_elem(rng: random.Random, ring: Ring, bound: int = DEFAULT_ENTRY_BOUND):
    """A random canonical raw value; integers bounded, residues uniform."""
    if isinstance(ring, IntegerRing):  # before _ResidueRing: Z is Z/0 there
        return rng.randint(-bound, bound)
    if isinstance(ring, _ResidueRing):
        return rng.randrange(ring._m)
    if isinstance(ring, PolynomialRing):
        coeffs = [random_elem(rng, ring.base, bound) for _ in range(rng.randint(1, 3))]
        return ring.canon(coeffs)
    raise UnsupportedRing(f"no sampler for {ring}")


def random_matrix(
    rng: random.Random,
    ring: Ring,
    rows: int,
    cols: int,
    bound: int = DEFAULT_ENTRY_BOUND,
) -> Matrix:
    """A random rows x cols matrix of random_elem values, in row-major order.

    A seed gives the same matrix as random_elem called per entry, and leaves
    rng in the same state.  Over Z, Z/m and GF(p) the ring is resolved once
    and each row is one comprehension over rng._randbelow, the one call that
    randrange(m) and randint(-bound, bound) make per entry.  Polynomial
    rings, and a bound over Z that is negative or not an int, draw per
    entry through random_elem (and raise its errors).
    """
    if rows < 1 or cols < 1:
        raise ShapeMismatch("matrix dimensions must be at least 1x1")
    if isinstance(ring, _ResidueRing) and (ring._m or (isinstance(bound, int) and bound >= 0)):
        below, m = rng._randbelow, ring._m
        if m:
            data = tuple(tuple([below(m) for _ in range(cols)]) for _ in range(rows))
        else:
            width = 2 * bound + 1
            data = tuple(tuple([below(width) - bound for _ in range(cols)]) for _ in range(rows))
        return Matrix(ring, data)
    return Matrix(
        ring,
        tuple(
            tuple(random_elem(rng, ring, bound) for _ in range(cols))
            for _ in range(rows)
        ),
    )


NILSCALAR_MODULUS_BOUND = 2**64  # trial division to the cube root stays fast


def find_nilpotent_scalar(ring: Ring) -> int | None:
    """The smallest nonzero residue s with s*s = 0, or None.

    Over Z/m with m = prod p^e that is s = prod p^ceil(e/2), the smallest s
    with m | s^2; it is a residue below m unless m is squarefree.  Trial
    division runs while p^3 <= the unfactored part r, so every prime left
    in r exceeds its cube root: r is 1, a prime, p*q or p^2, and only p^2
    (found by isqrt) contributes less than all of r.  Moduli of
    NILSCALAR_MODULUS_BOUND and above raise ValueError.
    """
    if not isinstance(ring, ModularRing):
        return None
    m = ring.modulus
    if m >= NILSCALAR_MODULUS_BOUND:
        raise ValueError(
            f"nilpotent scalar search needs a modulus below 2^64, got {m}"
        )
    s, r, p = 1, m, 2
    while p * p * p <= r:
        e = 0
        while r % p == 0:
            r //= p
            e += 1
        s *= p ** ((e + 1) // 2)
        p += 1 if p == 2 else 2
    root = isqrt(r)
    s *= root if root * root == r else r
    return s if s < m else None


def gen_structured(
    seed: int,
    ring: Ring,
    n: int,
    mode: str = "outer",
    bound: int = DEFAULT_ENTRY_BOUND,
) -> Matrix:
    """A random n x n matrix with all 2x2 minors zero; deterministic in seed.

    Mode "outer" multiplies a random column by a random row.  Mode
    "nilscalar" scales a random matrix by a residue s with s*s = 0, which
    kills every minor (they scale by s*s); it needs a modulus that is not
    squarefree, e.g. Z/4.
    """
    rng = random.Random(seed)
    if mode == "outer":
        col = random_matrix(rng, ring, n, 1, bound)
        row = random_matrix(rng, ring, 1, n, bound)
        return outer(col, row)
    if mode == "nilscalar":
        s = find_nilpotent_scalar(ring)
        if s is None:
            raise NoNilpotentScalar(f"{ring} has no nonzero s with s*s = 0")
        return random_matrix(rng, ring, n, n, bound).scale(s)
    raise ValueError(f"unknown mode {mode!r}")
