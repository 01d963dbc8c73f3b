"""Fast kernels for matrices whose 2x2 minors all vanish.

For such A the triple product collapses: A B A = Tr(AB) * A for every B.
That turns an O(n^3) computation into an O(n^2) one, since Tr(AB) is a
plain double sum over entries and never needs the product AB itself.
The naive routines are kept alongside as oracles.
"""

from __future__ import annotations

from itertools import chain

from .matrices import Matrix, ShapeMismatch, _square_pair
from .rings import IntegerRing, RingElem, RingMismatch, _Record
from .structure import MinorWitness, OuterFactors, check_vanishing_minors


class StructurePreconditionFailed(Exception):
    """A kernel needed vanishing minors but found a nonzero one."""

    def __init__(self, witness: MinorWitness):
        self.witness = witness
        idx = witness.index
        # the value stays out: its repr fails beyond the int-to-str digit limit
        super().__init__(
            f"nonzero 2x2 minor at rows ({idx.i}, {idx.j}), cols ({idx.k}, {idx.l})"
        )


def require_structured(a: Matrix) -> None:
    """Raise StructurePreconditionFailed unless every 2x2 minor of A vanishes."""
    verdict = check_vanishing_minors(a)
    if not verdict.structured:
        raise StructurePreconditionFailed(verdict.witness)


def naive_aba(a: Matrix, b: Matrix) -> Matrix:
    """(A @ B) @ A by two full products; the O(n^3) oracle."""
    _square_pair(a, b)
    return (a @ b) @ a


def trace_of_product(a: Matrix, b: Matrix) -> RingElem:
    """Tr(A @ B) as the double sum of a[i][j] * b[j][i]; O(n^2), no product."""
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if a.cols != b.rows or a.rows != b.cols:
        raise ShapeMismatch(
            f"trace of {a.rows}x{a.cols} @ {b.rows}x{b.cols} is undefined"
        )
    ring = a.ring
    bcols = tuple(zip(*b.data))
    acc = ring.zero
    for i in range(a.rows):
        acc = ring.add(acc, ring.dot(a.data[i], bcols[i]))
    return RingElem(ring, acc)


def structured_aba(a: Matrix, b: Matrix, *, check: bool = True) -> Matrix:
    """A B A for structured A, as Tr(AB) * A in O(n^2) ring operations.

    With check=True (the default) a nonzero minor raises
    StructurePreconditionFailed.  The check is the pivot certificate of
    check_vanishing_minors, 2n^2 multiplications on a structured A, so it
    costs about as much as the kernel itself and leaves it O(n^2).
    """
    _square_pair(a, b)
    if check:
        require_structured(a)
    return a.scale(trace_of_product(a, b))


def structured_power(a: Matrix, k: int) -> Matrix:
    """A**k for structured A, as Tr(A)**(k-1) * A; k >= 1.

    A nonzero minor raises StructurePreconditionFailed: the pivot
    certificate always runs, since for any other A the formula is wrong.
    The scalar power is square-and-multiply, so the whole thing is
    O(n^2 + log k) ring multiplications.
    """
    if not a.is_square:
        raise ShapeMismatch(f"square matrix required, got {a.rows}x{a.cols}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"exponent must be an integer >= 1, got {k!r}")
    require_structured(a)
    if k == 1:
        return a
    ring = a.ring
    return a.scale(ring.pow_scalar(a.trace().value, k - 1))


def structured_power_bits(a: Matrix, k: int) -> int:
    """A floor on the bit length of the largest entry of A**k over Z, for structured A.

    A**k = Tr(A)**(k-1) * A.  With t = |Tr(A)| >= 2 and M = max |a_ij|,
    t >= 2**(bits(t)-1) and M >= 2**(bits(M)-1), so that entry has at least
    (k-1)(bits(t)-1) + bits(M) bits.  0 over other rings, for non-square A
    and for t < 2.  A is not certified, no power is formed and no ring
    operation is counted: O(n^2) plain integer work.
    """
    if not (isinstance(a.ring, IntegerRing) and a.is_square):
        return 0
    t = abs(sum(a.data[i][i] for i in range(a.rows)))
    if t < 2:
        return 0
    top = max(map(abs, chain.from_iterable(a.data)))
    return (k - 1) * (t.bit_length() - 1) + top.bit_length()


def trace_product_via_outer(factors: OuterFactors, b: Matrix) -> RingElem:
    """Tr(A @ B) for A = col @ row, computed as the scalar row @ B @ col.

    Cycling the trace turns it into a 1x1 product, which costs O(n^2)
    instead of forming A @ B.
    """
    return ((factors.row @ b) @ factors.col).scalar()


class CorollaryResiduals(_Record):
    """Residuals of the three identities that follow for structured A.

    (AB)^2 = Tr(AB) AB,   Tr(ABA) = Tr(AB) Tr(A),   Tr(A^2) = Tr(A)^2.
    """

    _fields = ("product_square", "trace_triple", "trace_square")

    def all_zero(self) -> bool:
        return all(r.is_zero() for r in self._values)


def check_corollaries(a: Matrix, b: Matrix) -> CorollaryResiduals:
    """Compute the three corollary residuals directly for structured A.

    They are zero by the theorem; a nonzero minor of A raises
    StructurePreconditionFailed before any product is formed.
    """
    _square_pair(a, b)
    require_structured(a)
    ab = a @ b
    t = ab.trace()
    ta = a.trace()
    return CorollaryResiduals(
        product_square=(ab @ ab) - ab.scale(t),
        trace_triple=(ab @ a).trace() - t * ta,
        trace_square=(a @ a).trace() - ta * ta,
    )
