"""Dense exact matrices over one commutative ring.

Entries are stored as canonical raw ring values in row-major tuples;
everything is immutable and every operation returns a fresh matrix.
Indices are 0-based throughout the library; the CLI renders them 1-based.
The product ``@`` is the ring's ``matmul``: a packed big-integer product
over Z, Z/m and GF(p) and over polynomial rings in one variable on them,
one dot product per entry over two-variable polynomial rings.
``from_rows`` and ``scale`` work a row at a time, through the ring's
``canon_row`` and ``scale_row``.
"""

from __future__ import annotations

from itertools import repeat

from .rings import Ring, RingElem, RingMismatch, _Record


class MatrixError(Exception):
    """Base class for matrix shape and index errors."""


class ShapeMismatch(MatrixError):
    """Operand shapes do not conform."""


class NotSquare(MatrixError):
    """A square matrix is required."""


class TooSmall(MatrixError):
    """Matrix order below the operation's minimum."""


class TooLarge(MatrixError):
    """Matrix order above the operation's maximum."""


class IndexOutOfRange(MatrixError):
    """Row or column index outside the matrix."""


class TooLargeToEnumerate(Exception):
    """The ring/order combination exceeds the enumeration budget of oracle."""


def _square_pair(a: Matrix, b: Matrix) -> None:
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ShapeMismatch(
            f"two n x n matrices required, got {a.rows}x{a.cols} and {b.rows}x{b.cols}"
        )


class MinorIndex(_Record):
    """Rows i < j and columns k < l selecting a 2x2 submatrix (0-based)."""

    _fields = ("i", "j", "k", "l")

    def __init__(self, i: int, j: int, k: int, l: int):
        if i < 0 or k < 0:
            raise ValueError("minor indices must be nonnegative")
        if not (i < j and k < l):
            raise ValueError("minor indices require i < j and k < l")
        super().__init__(i, j, k, l)


class Matrix:
    """Immutable dense matrix over a single ring."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: Ring, data: tuple):
        # trusts canonical row-major data; use from_rows for arbitrary input
        self.ring = ring
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0])

    @classmethod
    def from_rows(cls, ring: Ring, rows) -> "Matrix":
        """Build a matrix, canonicalizing raw values and then checking shape.

        rows is an iterable of iterables, consumed one row at a time.
        Entries are raw values or RingElems over ring.  The shape needs at
        least one row, no empty row and one width (ShapeMismatch).  Every
        row is canonicalized before the shape is checked, so a bad entry
        anywhere wins over a shape error.
        """
        canon_row = ring.canon_row
        # canon_row may read a row twice
        data = tuple(canon_row(r if isinstance(r, (list, tuple)) else tuple(r)) for r in rows)
        if not data:
            raise ShapeMismatch("matrix needs at least one row")
        width = len(data[0])
        for row in data:
            if not row:
                raise ShapeMismatch("matrix needs at least one column")
            if len(row) != width:
                raise ShapeMismatch("ragged rows")
        return cls(ring, data)

    @classmethod
    def zero(cls, ring: Ring, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeMismatch("matrix dimensions must be at least 1x1")
        z = ring.zero
        return cls(ring, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        if n < 1:
            raise ShapeMismatch("matrix dimensions must be at least 1x1")
        z, o = ring.zero, ring.one
        return cls(ring, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    # -- basic accessors ----------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> RingElem:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return RingElem(self.ring, self.data[i][j])

    def row(self, i: int) -> "Matrix":
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} outside {self.rows}x{self.cols}")
        return Matrix(self.ring, (self.data[i],))

    def col(self, j: int) -> "Matrix":
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"col {j} outside {self.rows}x{self.cols}")
        return Matrix(self.ring, tuple((r[j],) for r in self.data))

    def is_zero(self) -> bool:
        z = self.ring.zero
        return all(x == z for row in self.data for x in row)

    def scalar(self) -> RingElem:
        """The single entry of a 1x1 matrix."""
        if self.rows != 1 or self.cols != 1:
            raise ShapeMismatch(f"scalar() needs 1x1, got {self.rows}x{self.cols}")
        return RingElem(self.ring, self.data[0][0])

    # -- arithmetic ----------------------------------------------------------

    def _conform(self, other: "Matrix") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _entrywise(self, op, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._conform(other)
        rows = zip(self.data, other.data)
        return Matrix(self.ring, tuple(tuple(map(op, ra, rb)) for ra, rb in rows))

    def __add__(self, other):
        return self._entrywise(self.ring.add, other)

    def __sub__(self, other):
        return self._entrywise(self.ring.sub, other)

    def __neg__(self):
        neg = self.ring.neg
        return Matrix(self.ring, tuple(tuple(map(neg, r)) for r in self.data))

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return Matrix(self.ring, self.ring.matmul(self.data, other.data))

    def scale(self, factor) -> "Matrix":
        """factor * self, entrywise; factor is a RingElem or raw value."""
        ring = self.ring
        if isinstance(factor, RingElem):
            if factor.ring != ring:
                raise RingMismatch(f"{factor.ring} vs {ring}")
            t = factor.value
        else:
            t = ring.canon(factor)
        return Matrix(ring, tuple(map(ring.scale_row, repeat(t), self.data)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({list(map(list, self.data))!r} over {self.ring})"

    # -- structure-aware views ------------------------------------------------

    def trace(self) -> RingElem:
        if not self.is_square:
            raise NotSquare(f"trace of {self.rows}x{self.cols}")
        ring = self.ring
        acc = ring.zero
        for i in range(self.rows):
            acc = ring.add(acc, self.data[i][i])
        return RingElem(ring, acc)

    def minor2(self, idx: MinorIndex) -> RingElem:
        """The 2x2 minor a[i][k]*a[j][l] - a[i][l]*a[j][k]."""
        if idx.j >= self.rows or idx.l >= self.cols:
            raise IndexOutOfRange(f"{idx} outside {self.rows}x{self.cols}")
        ring = self.ring
        ri, rj = self.data[idx.i], self.data[idx.j]
        return RingElem(
            ring,
            ring.sub(ring.mul(ri[idx.k], rj[idx.l]), ring.mul(ri[idx.l], rj[idx.k])),
        )

    def block_split(self) -> "BlockSplit":
        """Split off the last row, last column, and corner pivot.

        Returns the (n-1)x(n-1) upper-left corner, the 1x(n-1) final row,
        the (n-1)x1 final column, and the corner entry at (n-1, n-1).
        """
        if not self.is_square:
            raise NotSquare(f"block split of {self.rows}x{self.cols}")
        n = self.rows
        if n < 2:
            raise TooSmall("block split needs n >= 2")
        corner = Matrix(self.ring, tuple(r[: n - 1] for r in self.data[: n - 1]))
        last_col = Matrix(self.ring, tuple((r[n - 1],) for r in self.data[: n - 1]))
        last_row = Matrix(self.ring, (self.data[n - 1][: n - 1],))
        pivot = RingElem(self.ring, self.data[n - 1][n - 1])
        return BlockSplit(corner=corner, last_row=last_row, last_col=last_col, pivot=pivot)


class BlockSplit(_Record):
    """The lossless partition (corner, last row, last column, pivot)."""

    _fields = ("corner", "last_row", "last_col", "pivot")


def block_join(split: BlockSplit) -> Matrix:
    """Reassemble a matrix from its block split; inverse of block_split."""
    corner, last_row, last_col, pivot = (
        split.corner,
        split.last_row,
        split.last_col,
        split.pivot,
    )
    ring = corner.ring
    if last_row.ring != ring or last_col.ring != ring or pivot.ring != ring:
        raise RingMismatch("block parts over different rings")
    m = corner.rows
    if corner.cols != m or last_row.rows != 1 or last_row.cols != m:
        raise ShapeMismatch("block parts do not conform")
    if last_col.cols != 1 or last_col.rows != m:
        raise ShapeMismatch("block parts do not conform")
    data = [corner.data[i] + (last_col.data[i][0],) for i in range(m)]
    data.append(last_row.data[0] + (pivot.value,))
    return Matrix(ring, tuple(data))


def matrix_unit(ring: Ring, n: int, i: int, j: int) -> Matrix:
    """The n x n matrix with a single 1 at (i, j)."""
    if n < 1:
        raise ShapeMismatch("matrix dimensions must be at least 1x1")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"({i}, {j}) outside {n}x{n}")
    z, o = ring.zero, ring.one
    return Matrix(
        ring, tuple(tuple(o if (r, c) == (i, j) else z for c in range(n)) for r in range(n))
    )


def det_small(a: Matrix) -> RingElem:
    """Determinant by cofactor expansion, n <= 8.

    Division-free, so it is valid over any commutative ring; the factorial
    cost is fine at these orders and this routine is only used for checks,
    never inside kernels.
    """
    if not a.is_square:
        raise NotSquare(f"determinant of {a.rows}x{a.cols}")
    if a.rows > 8:
        raise TooLarge("cofactor determinant capped at n = 8")
    ring = a.ring
    zero = ring.zero

    def expand(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = zero
        rest = rows[1:]
        for j, pivot in enumerate(rows[0]):
            if pivot == zero:
                continue
            sub = tuple(r[:j] + r[j + 1 :] for r in rest)
            term = ring.mul(pivot, expand(sub))
            if j % 2:
                term = ring.neg(term)
            total = ring.add(total, term)
        return total

    return RingElem(ring, expand(a.data))


def cayley_hamilton_2x2(a: Matrix) -> Matrix:
    """Residual A^2 - Tr(A)*A + det(A)*I for a 2x2 matrix; always zero."""
    if a.rows != 2 or a.cols != 2:
        raise ShapeMismatch(f"2x2 matrix required, got {a.rows}x{a.cols}")
    t = a.trace()
    d = det_small(a)
    return (a @ a) - a.scale(t) + Matrix.identity(a.ring, 2).scale(d)
