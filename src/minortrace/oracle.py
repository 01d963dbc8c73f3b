"""Brute-force ground truth over small finite rings.

The decisive cross-check: enumerate every n x n matrix over Z/m, classify
each one by (a) whether A B A = Tr(AB) A holds for every B and (b) whether
all 2x2 minors vanish, and confirm the two classifications coincide.  The
for-every-B side is decided by probing the n^2 unit matrices, which is
provably equivalent to the full quantifier; periodic full-B spot checks
keep that shortcut honest.

A spot check tries every B, but not one at a time: the m^(n(n-1)) matrices
B that share a first row are packed into one n x n integer matrix, one
fixed-width field per B, and a single residual over Z holds all of their
residuals.  Each of those lies in [-n^2 (m-1)^3, n^2 (m-1)^3], so fields of
the smallest of 1, 2, 4 or 8 bytes that holds twice that bound never carry
into each other once an offset lifts them above zero.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .kernels import _square_pair
from .matrices import Matrix, NotSquare, TooSmall
from .rings import IntegerRing, Ring, _ResidueRing
# the literal minor scan, not the certificate: the oracle's minor side must
# stay independent of the fast structure test it cross-checks
from .structure import _scan_minors


class TooLargeToEnumerate(Exception):
    """The ring/order combination exceeds the enumeration budget."""


ENUMERATION_BUDGET = 10**6  # max matrices per exhaustive sweep


def verify_identity(
    a: Matrix, b: Matrix, *, ab: Matrix | None = None, aba: Matrix | None = None
) -> Matrix:
    """Residual A B A - Tr(A @ B) * A; zero iff the identity holds for (A, B).

    Forms A @ B once and (A @ B) @ A from it, two O(n^3) products, unless
    the caller passes in the products it has already formed.
    """
    _square_pair(a, b)
    if ab is None:
        ab = a @ b
    if aba is None:
        aba = ab @ a
    return aba - a.scale(ab.trace())


def universal_identity_via_probes(a: Matrix) -> bool:
    """Decide whether A B A = Tr(AB) A holds for EVERY B, via n^2 probes.

    Testing only the unit matrices suffices: the probe at (l, j) reduces to
    col_l(A) @ row_j(A) = a[j][l] * A, and if all of those hold, every minor
    vanishes and the identity follows for arbitrary B.
    """
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    ring = a.ring
    mul = ring.mul
    d = a.data
    n = a.rows
    for l in range(n):
        for j in range(n):
            s = d[j][l]
            for x in range(n):
                dxl = d[x][l]
                for y in range(n):
                    if mul(dxl, d[j][y]) != mul(s, d[x][y]):
                        return False
    return True


def _enumerable_values(ring: Ring, n: int) -> range:
    if not isinstance(ring, _ResidueRing):
        raise TooLargeToEnumerate(f"{ring} is not a finite enumerable ring")
    m = ring._m
    # m >= 2, so m^k exceeds the budget once k reaches the budget's bit length
    if m ** min(n * n, ENUMERATION_BUDGET.bit_length()) > ENUMERATION_BUDGET:
        raise TooLargeToEnumerate(
            f"{m}^{n * n} matrices exceed the {ENUMERATION_BUDGET} budget"
        )
    return range(m)


def iter_all_matrices(ring: Ring, n: int):
    """Every n x n matrix over a small finite ring, in lexicographic order."""
    values = _enumerable_values(ring, n)
    for entries in itertools.product(values, repeat=n * n):
        yield Matrix(ring, tuple(entries[r * n : (r + 1) * n] for r in range(n)))


_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # field width -> memoryview format


def universal_identity_by_enumeration(a: Matrix) -> bool:
    """Decide the for-every-B question by trying literally every B.

    The B with one first row r are checked together, bit-parallel over Z.
    Lift A to the integers (its entries lie in [0, m)) and pack those
    m^(n(n-1)) matrices into one integer matrix P, one w-byte field per B
    in enumeration order: entry (k, j) of P, k >= 1, holds entry (k, j) of
    each B in its own field, and row 0 is r times the repunit R with one 1
    per field.  The residual A P A - Tr(AP) A is linear in P, so its field t
    is B_t's residual over Z, which reduces mod m to the residual over Z/m.
    Every residual entry lies in [-n^2 (m-1)^3, n^2 (m-1)^3]; with offset the
    least multiple of m at or above that bound and 2 offset < 256^w, adding
    offset * R makes every field nonnegative and below 256^w, so the fields
    decode one by one, and B_t satisfies the identity iff each of its fields
    is 0 mod m.  One verify_identity per first row keeps an early exit.
    """
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    n = a.rows
    values = _enumerable_values(a.ring, n)
    m = len(values)
    offset = -(-n * n * (m - 1) ** 3 // m) * m
    width = next(w for w in _FIELD_FORMATS if 2 * offset < 256**w)
    fmt = _FIELD_FORMATS[width]
    count = m ** (n * (n - 1))  # B per first row
    size = width * count
    from_bytes = int.from_bytes
    fields = [v.to_bytes(width, "little") for v in values]
    repunit = from_bytes((1).to_bytes(width, "little") * count, "little")
    # entry e of rows 1..n-1 (row-major) runs through values in runs of
    # m^(n(n-1)-1-e) fields, the order itertools.product gives
    rest = []
    run = count
    for _ in range(n * (n - 1)):
        run //= m
        rest.append(from_bytes(b"".join(f * run for f in fields) * (count // (run * m)), "little"))
    rest_rows = tuple(tuple(rest[k * n : (k + 1) * n]) for k in range(n - 1))
    integers = IntegerRing()
    a_z = Matrix(integers, a.data)
    lift = offset * repunit
    for first in itertools.product(values, repeat=n):
        p = Matrix(integers, (tuple([x * repunit for x in first]),) + rest_rows)
        for row in verify_identity(a_z, p).data:
            for x in row:
                # native byte order, the order cast reads a field in
                view = memoryview((x + lift).to_bytes(size, sys.byteorder)).cast(fmt)
                if any(map(m.__rmod__, view)):
                    return False
    return True


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-classification of all n x n matrices over a finite ring.

    set_identity counts matrices satisfying the identity for every B;
    set_minors counts matrices with all 2x2 minors zero.  agree means the
    two classifications coincide matrix-by-matrix (so as sets, not merely
    as counts); mismatches lists up to 10 offenders in enumeration order.
    """

    ring: Ring
    n: int
    total: int
    set_identity: int
    set_minors: int
    agree: bool
    mismatches: tuple[Matrix, ...]


MISMATCH_CAP = 10
SPOT_CHECK_EVERY = 100  # probe decisions re-checked by the full-B loop


def exhaustive_characterization(ring: Ring, n: int) -> EquivalenceReport:
    """Enumerate every A over a small finite ring and cross-classify it.

    The for-every-B side runs on the n^2 unit probes, and every
    SPOT_CHECK_EVERY-th matrix (the first included) also runs the full-B
    enumeration, which must agree.
    """
    if n < 2:
        raise TooSmall("exhaustive characterization needs n >= 2")
    total = 0
    ident_count = 0
    minors_count = 0
    mismatches: list[Matrix] = []
    for index, a in enumerate(iter_all_matrices(ring, n)):
        structured = _scan_minors(a).structured
        holds = universal_identity_via_probes(a)
        if index % SPOT_CHECK_EVERY == 0:
            if holds != universal_identity_by_enumeration(a):
                raise RuntimeError(
                    f"probe decision disagrees with full enumeration at {a!r}"
                )
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
