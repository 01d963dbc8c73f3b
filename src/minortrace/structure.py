"""Vanishing-minor structure: detection, outer products, rank-one factors.

A square matrix whose 2x2 minors all vanish is exactly the kind the trace
kernels accelerate.  This module decides membership (with a witness when the
answer is no), builds members as column-row outer products, recovers the
factors where the ring permits it, and generates random members for tests
and benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    _ResidueRing,
    _bump,
    divexact,
    elem_gcd,
)


class PreconditionViolated(Exception):
    """An operation's stated input contract does not hold."""


class NoNilpotentScalar(Exception):
    """The ring has no nonzero scalar s with s*s = 0."""


@dataclass(frozen=True)
class MinorWitness:
    """A nonzero 2x2 minor: its index and its value."""

    index: MinorIndex
    value: RingElem


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of the vanishing-minor scan."""

    structured: bool
    witness: MinorWitness | None

    def __post_init__(self):
        if self.structured == (self.witness is not None):
            raise ValueError("structured verdicts carry no witness, and vice versa")


@dataclass(frozen=True)
class OuterFactors:
    """A column-row factorization col @ row of a rank-at-most-one matrix."""

    col: Matrix
    row: Matrix

    def __post_init__(self):
        if self.col.ring != self.row.ring:
            raise RingMismatch(f"{self.col.ring} vs {self.row.ring}")
        if self.col.cols != 1 or self.row.rows != 1:
            raise ShapeMismatch("factors must be a column and a row")

    def product(self) -> Matrix:
        return self.col @ self.row


def check_vanishing_minors(a: Matrix) -> StructureVerdict:
    """Decide whether all 2x2 minors vanish; report the first nonzero one if not.

    A yes answer is settled by the O(n^2) pivot certificate alone, except
    over Z/m[x] when every entry is a zero divisor.  The lexicographic scan
    runs only after the certificate has found a nonzero minor (to name the
    first one as the witness) or could not decide.
    Rectangular matrices are allowed, and a single row or column (or a 1x1
    matrix) is vacuously structured.
    """
    if _certify(a):
        return StructureVerdict(structured=True, witness=None)
    return _scan_minors(a)


def _scan_minors(a: Matrix) -> StructureVerdict:
    """Scan all 2x2 minors in lexicographic order; O(n^4) on a yes answer.

    This is the witness finder behind check_vanishing_minors and, called
    directly, the oracle's independent minor-side reference.
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


# ---------------------------------------------------------------------------
# Pivot certificate
#
# If c = a[p][q] is not a zero divisor, all 2x2 minors vanish exactly when
# a[i][j] * c == a[i][q] * a[p][j] for every (i, j).  Those equalities are
# the minors through row p and column q; any other minor times c^2 expands
# to zero, and c^2 is not a zero divisor either.  The sweep is division-free
# and costs 2 multiplications per entry.


def _certify(a: Matrix) -> bool:
    """True when every 2x2 minor of a is proven zero, in O(n^2) operations.

    False means a nonzero minor exists, or (over Z/m[x] only) no entry is a
    usable pivot; either way the scan has the last word.
    """
    if a.rows < 2 or a.cols < 2:
        return True
    ring = a.ring
    if isinstance(ring, IntegerRing):
        return _certify_residues(a.data, None)
    if isinstance(ring, _ResidueRing):
        return _certify_residues(a.data, ring._m)
    if isinstance(ring, PolynomialRing):
        return _certify_polynomials(a.data, ring)
    return False


def _certify_residues(rows, m: int | None) -> bool:
    """The certificate over Z (m is None) or Z/m, on raw integer entries.

    The pivot is the first nonzero entry over Z and the first unit over
    Z/m.  Without a unit, either all entries share a factor g of m, and
    A = g A' reduces the question to A' over Z/(m / gcd(g^2, m)); or some
    entry's gcd with m splits m into two coprime parts, and the question
    splits with it (CRT).  Neither step factors m.
    """
    for p, row in enumerate(rows):
        for q, x in enumerate(row):
            if x and (m is None or gcd(x, m) == 1):
                return _pivot_sweep(rows, p, q, m)
    if m is None:
        return True  # the zero matrix
    g = gcd(m, *chain.from_iterable(rows))
    if g > 1:
        m2 = m // gcd(g * g, m)
        return m2 == 1 or _certify_residues(_reduce(rows, g, m2), m2)
    # no unit and no common factor: every nonzero entry shares some prime
    # with m, and some entry misses a prime of m (else rad(m) would divide g)
    for x in chain.from_iterable(rows):
        d = gcd(m, x)
        rest = m  # the largest divisor of m coprime to d
        while (t := gcd(rest, d)) > 1:
            rest //= t
        if 1 < rest < m:
            part = m // rest
            return _certify_residues(_reduce(rows, 1, part), part) and _certify_residues(
                _reduce(rows, 1, rest), rest
            )
    raise AssertionError("unreachable: some entry splits the modulus")


def _reduce(rows, g: int, m: int) -> list:
    return [[x // g % m for x in row] for row in rows]


def _pivot_sweep(rows, p: int, q: int, m: int | None) -> bool:
    """Check a[i][j] * c == a[i][q] * a[p][j] for c = a[p][q], row by row."""
    rp = rows[p]
    c = rp[q]
    swept = 0
    for ri in rows:
        swept += 1
        u = ri[q]
        if m is None:
            broken = any(c * x - u * y for x, y in zip(ri, rp))
        else:
            broken = any((c * x - u * y) % m for x, y in zip(ri, rp))
        if broken:
            break
    _bump(2 * len(rp) * swept, 0)  # the row that breaks counts in full
    return not broken


def _certify_polynomials(rows, ring: PolynomialRing) -> bool:
    """The certificate over R[x] (and R[x][y]) with ring arithmetic.

    Over Z, GF(p) and their polynomial rings every nonzero entry is a
    pivot.  Over Z/m a polynomial is a zero divisor only if a nonzero
    constant kills it (McCoy), so the pivot must have coefficients whose
    gcd with m is 1; without one, the certificate declines.
    """
    ground = ring.base
    depth = 1
    while isinstance(ground, PolynomialRing):
        ground = ground.base
        depth += 1
    m = ground.modulus if isinstance(ground, ModularRing) else None
    for row in rows:
        for q, x in enumerate(row):
            if x and (m is None or _content_gcd(x, depth, m) == 1):
                mul = ring.mul
                return all(
                    mul(x, v) == mul(ri[q], w) for ri in rows for v, w in zip(ri, row)
                )
    return not any(map(any, rows))  # the zero matrix; else no regular pivot


def _content_gcd(value, depth: int, g: int) -> int:
    """gcd of g and every ground coefficient of a polynomial nested depth deep."""
    for c in value:
        g = gcd(g, c) if depth == 1 else _content_gcd(c, depth - 1, g)
    return g


def outer(col: Matrix, row: Matrix) -> Matrix:
    """The product col @ row; every 2x2 minor of the result vanishes."""
    return OuterFactors(col, row).product()


def decompose_rank1_field(a: Matrix) -> OuterFactors | None:
    """Column-row factors of a square matrix over a prime field.

    Returns zero factors for the zero matrix, factors built from the first
    nonzero column when all 2x2 minors vanish, and None when some minor is
    nonzero (rank >= 2, no such factorization exists).
    """
    ring = a.ring
    if not isinstance(ring, PrimeFieldRing):
        raise UnsupportedRing(f"prime field required, got {ring}")
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    if not check_vanishing_minors(a).structured:
        return None
    n = a.rows
    if a.is_zero():
        return OuterFactors(Matrix.zero(ring, n, 1), Matrix.zero(ring, 1, n))
    q = next(j for j in range(n) if any(a.data[i][j] != 0 for i in range(n)))
    p = next(i for i in range(n) if a.data[i][q] != 0)
    col = a.col(q)
    pivot = a.entry(p, q)
    row_vals = [divexact(a.entry(p, j), pivot) for j in range(n)]
    return OuterFactors(col, Matrix.from_rows(ring, [row_vals]))


def decompose_2x2_gcd(a: Matrix) -> OuterFactors:
    """Column-row factors of a singular 2x2 integer matrix.

    Picks the first nonzero row, divides out its gcd to get a primitive row,
    and recovers the column by exact division; the zero determinant makes
    the divisions exact over the integers.
    """
    ring = a.ring
    if not isinstance(ring, IntegerRing):
        raise UnsupportedRing(f"integer ring required, got {ring}")
    if a.rows != 2 or a.cols != 2:
        raise ShapeMismatch(f"2x2 matrix required, got {a.rows}x{a.cols}")
    d = a.data
    det = d[0][0] * d[1][1] - d[0][1] * d[1][0]
    if det != 0:
        raise PreconditionViolated(f"determinant must be zero, got {det}")
    if a.is_zero():
        return OuterFactors(Matrix.zero(ring, 2, 1), Matrix.zero(ring, 1, 2))
    p = 0 if any(x != 0 for x in d[0]) else 1
    other = 1 - p
    g = elem_gcd(a.entry(p, 0), a.entry(p, 1))
    prim = [divexact(a.entry(p, j), g) for j in range(2)]
    k = 0 if prim[0].value != 0 else 1
    t = divexact(a.entry(other, k), prim[k])
    if (t * prim[1 - k]).value != d[other][1 - k]:
        raise PreconditionViolated("row is not an exact multiple of the primitive row")
    col_vals = [None, None]
    col_vals[p] = g
    col_vals[other] = t
    return OuterFactors(
        Matrix.from_rows(ring, [[col_vals[0]], [col_vals[1]]]),
        Matrix.from_rows(ring, [prim]),
    )


# ---------------------------------------------------------------------------
# Random generation (seed-deterministic)

DEFAULT_ENTRY_BOUND = 9  # keeps integer test values hand-checkable


def random_elem(rng: random.Random, ring: Ring, bound: int = DEFAULT_ENTRY_BOUND):
    """A random canonical raw value; integers bounded, residues uniform."""
    if isinstance(ring, IntegerRing):
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
    if rows < 1 or cols < 1:
        raise ShapeMismatch("matrix dimensions must be at least 1x1")
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
