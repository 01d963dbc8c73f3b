"""Constructive falsifier and block-induction residuals.

If some 2x2 minor of A is nonzero, a single cheap probe exposes a B that
breaks A B A = Tr(AB) A: take the unit matrix with its 1 at (l, j).  Then
A B A is the outer product of column l and row j of A, while Tr(AB) is just
a[j][l], and the two sides already differ at entry (i, k) of the offending
minor.  This module produces that witness, plus the four block residuals
used by the size-induction argument for the forward direction.
"""

from __future__ import annotations

from .matrices import (
    BlockSplit,
    Matrix,
    NotSquare,
    TooSmall,
    _square_pair,
    block_join,
)
from .rings import RingElem, _Record
from .structure import MinorWitness, check_vanishing_minors


class ProbeWitness(_Record):
    """A concrete violation of the triple-product identity.

    The probe matrix B is the unit matrix with a single 1 at
    (unit_row, unit_col); lhs and rhs are the differing entries of
    A @ B @ A and Tr(A @ B) * A at (entry_row, entry_col).  Their
    difference is minus the witnessed minor.
    """

    _fields = ("minor", "minor_value", "unit_row", "unit_col", "entry_row", "entry_col", "lhs", "rhs")


class ProbeReport(_Record):
    """Whether A is structured, and if not the ProbeWitness of its first nonzero minor."""

    _fields = ("structured", "witness")


def probe_converse(a: Matrix) -> ProbeReport:
    """Find the first nonzero minor and the probe entry it breaks."""
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    if a.rows < 2:
        raise TooSmall("probe needs n >= 2")
    verdict = check_vanishing_minors(a)
    if verdict.structured:
        return ProbeReport(structured=True, witness=None)
    return ProbeReport(structured=False, witness=probe_witness(a, verdict.witness))


def probe_witness(a: Matrix, witness: MinorWitness) -> ProbeWitness:
    """The unit probe that a nonzero minor of A breaks, in O(1).

    For the minor at rows (i, j), cols (k, l), the probe B has its 1 at
    (l, j).  A @ B @ A equals col_l(A) @ row_j(A), so its (i, k) entry is
    a[i][l] * a[j][k]; the right side's entry is a[j][l] * a[i][k].  The
    probe is computed from these closed forms without materializing B.
    """
    ring = a.ring
    d = a.data
    idx = witness.index
    i, j, k, l = idx.i, idx.j, idx.k, idx.l
    return ProbeWitness(
        minor=idx,
        minor_value=witness.value,
        unit_row=l,
        unit_col=j,
        entry_row=i,
        entry_col=k,
        lhs=RingElem(ring, ring.mul(d[i][l], d[j][k])),
        rhs=RingElem(ring, ring.mul(d[j][l], d[i][k])),
    )


class InductionResiduals(_Record):
    """Residuals of the four block equalities behind the induction step.

    All four vanish exactly when computed on a matrix A with vanishing
    2x2 minors (any B); a nonzero residual exhibits the failure point.
    """

    _fields = ("r1", "r2", "r3", "r4")

    def all_zero(self) -> bool:
        return all(r.is_zero() for r in self._values)


def _split_pair(a: Matrix, b: Matrix):
    _square_pair(a, b)
    if a.rows < 2:
        raise TooSmall("block equalities need n >= 2")
    return a.block_split(), b.block_split()


def induction_equalities(a: Matrix, b: Matrix) -> InductionResiduals:
    """The four reduced block equalities as residuals (lhs minus rhs).

    Writing A as (corner Ac, last row a1, last column a2, pivot ann) and
    likewise for B, the equalities are:

      (1) a2 b1 Ac + (Ac b2 + a2 bnn) a1 = (b1 a2 + a1 b2 + ann bnn) Ac
      (2) (Ac Bc + a2 b1) a2 + Ac b2 ann = (Tr(Ac Bc) + b1 a2 + a1 b2) a2
      (3) (a1 Bc + ann b1) Ac = (Tr(Ac Bc) + b1 a2) a1
      (4) a1 Bc a2 = Tr(Ac Bc) ann

    Products like b1 a2 and a1 b2 are 1x1 (scalars), while a2 b1 is a full
    (n-1) x (n-1) matrix; the grouping above keeps the two apart.  Each
    equality is what remains of one block of A B A = Tr(AB) A after the
    terms that match unconditionally are cancelled.
    """
    sa, sb = _split_pair(a, b)
    ac, a1, a2, ann = sa.corner, sa.last_row, sa.last_col, sa.pivot
    bc, b1, b2, bnn = sb.corner, sb.last_row, sb.last_col, sb.pivot

    t = (ac @ bc).trace()
    b1a2 = (b1 @ a2).scalar()
    a1b2 = (a1 @ b2).scalar()

    r1 = (a2 @ b1) @ ac + (ac @ b2 + a2.scale(bnn)) @ a1 - ac.scale(b1a2 + a1b2 + ann * bnn)
    r2 = (ac @ bc + a2 @ b1) @ a2 + (ac @ b2).scale(ann) - a2.scale(t + b1a2 + a1b2)
    r3 = (a1 @ bc + b1.scale(ann)) @ ac - a1.scale(t + b1a2)
    r4 = ((a1 @ bc) @ a2).scalar() - t * ann
    return InductionResiduals(r1=r1, r2=r2, r3=r3, r4=r4)


def aba_via_blocks(a: Matrix, b: Matrix) -> Matrix:
    """A @ B @ A assembled from block products; an unconditional identity.

    This is the raw block expansion before any minor hypothesis is used,
    so it must agree with the naive product for every pair of square
    matrices of equal order n >= 2.
    """
    sa, sb = _split_pair(a, b)
    ac, a1, a2, ann = sa.corner, sa.last_row, sa.last_col, sa.pivot
    bc, b1, b2, bnn = sb.corner, sb.last_row, sb.last_col, sb.pivot

    ab_corner = ac @ bc + a2 @ b1
    ab_col = ac @ b2 + a2.scale(bnn)
    ab_row = a1 @ bc + b1.scale(ann)
    ab_pivot = (a1 @ b2).scalar() + ann * bnn

    return block_join(
        BlockSplit(
            corner=ab_corner @ ac + ab_col @ a1,
            last_row=ab_row @ ac + a1.scale(ab_pivot),
            last_col=ab_corner @ a2 + ab_col.scale(ann),
            pivot=(ab_row @ a2).scalar() + ab_pivot * ann,
        )
    )
