"""Fast kernels for matrices whose 2x2 minors all vanish.

For such A the triple product collapses: A B A = Tr(AB) * A for every B.
That turns an O(n^3) computation into an O(n^2) one, since Tr(AB) is a
plain double sum over entries and never needs the product AB itself.
The naive routines are kept alongside as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix, ShapeMismatch
from .rings import RingElem, RingMismatch
from .structure import MinorWitness, OuterFactors, check_vanishing_minors


class StructurePreconditionFailed(Exception):
    """A kernel needed vanishing minors but found a nonzero one."""

    def __init__(self, witness: MinorWitness):
        self.witness = witness
        idx = witness.index
        super().__init__(
            f"nonzero 2x2 minor at rows ({idx.i}, {idx.j}), cols ({idx.k}, {idx.l}): "
            f"{witness.value!r}"
        )


def _square_pair(a: Matrix, b: Matrix) -> None:
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ShapeMismatch(
            f"two n x n matrices required, got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )


def _require_structured(a: Matrix) -> None:
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
        _require_structured(a)
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
    _require_structured(a)
    if k == 1:
        return a
    ring = a.ring
    return a.scale(ring.pow_scalar(a.trace().value, k - 1))


def trace_product_via_outer(factors: OuterFactors, b: Matrix) -> RingElem:
    """Tr(A @ B) for A = col @ row, computed as the scalar row @ B @ col.

    Cycling the trace turns it into a 1x1 product, which costs O(n^2)
    instead of forming A @ B.
    """
    return ((factors.row @ b) @ factors.col).scalar()


@dataclass(frozen=True)
class CorollaryResiduals:
    """Residuals of the three identities that follow for structured A.

    (AB)^2 = Tr(AB) AB,   Tr(ABA) = Tr(AB) Tr(A),   Tr(A^2) = Tr(A)^2.
    """

    product_square: Matrix
    trace_triple: RingElem
    trace_square: RingElem

    def all_zero(self) -> bool:
        return (
            self.product_square.is_zero()
            and self.trace_triple.is_zero()
            and self.trace_square.is_zero()
        )


def check_corollaries(a: Matrix, b: Matrix) -> CorollaryResiduals:
    """Compute the three corollary residuals directly for structured A.

    They are zero by the theorem; a nonzero minor of A raises
    StructurePreconditionFailed before any product is formed.
    """
    _square_pair(a, b)
    _require_structured(a)
    ab = a @ b
    t = ab.trace()
    ta = a.trace()
    return CorollaryResiduals(
        product_square=(ab @ ab) - ab.scale(t),
        trace_triple=(ab @ a).trace() - t * ta,
        trace_square=(a @ a).trace() - ta * ta,
    )
