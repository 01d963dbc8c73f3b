"""Exact arithmetic over commutative rings.

Four ring families are provided: the integers, residue rings Z/m (composite
moduli allowed on purpose, zero divisors included), prime fields GF(p), and
univariate polynomial rings over any of these (nesting capped at depth 2).
Every operation is exact; there is no floating point anywhere.

Elements are immutable values in canonical form: residues reduced to [0, m),
polynomial coefficient tuples (lowest degree first) stripped of trailing
zeros, the zero polynomial being the empty tuple.

Matrix products go through ``Ring.matmul``.  Z, Z/m and GF(p) pack each
row of the right factor into one big integer (Kronecker substitution), so
that each output row is a single C-level sum of big-integer products; fields
of up to 8 bytes pack and unpack as machine words through ``array`` and
``memoryview``.  Polynomial rings over Z, Z/m and GF(p) substitute once
more: every entry is evaluated at a power of two, the product runs on the
packed path with one field per coefficient, and the fields are cut back
into coefficients.  Their scalar ``mul`` and ``add`` work on plain int
coefficients in one loop.  A depth-2 polynomial ring keeps the plain dot
loop over its inner ring.  Likewise ``Ring.canon_row`` and
``Ring.scale_row`` canonicalize and scale a whole matrix row: the base
versions call ``canon`` and ``mul`` per entry, while Z, Z/m and GF(p) check
the row's types once and then do the row in one loop with no call per entry.
"""

from __future__ import annotations

import operator
import sys
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain, repeat


class RingError(Exception):
    """Base class for ring arithmetic errors."""


class RingMismatch(RingError):
    """Operands belong to different rings."""


class UnsupportedRing(RingError):
    """Operation not defined for this ring family."""


# ---------------------------------------------------------------------------
# Operation counting (test instrumentation; off unless count_ops is active)

@dataclass
class OpCounts:
    """Ring multiplications and additions performed inside a count_ops block."""

    mul: int = 0
    add: int = 0


_ACTIVE_COUNTS: ContextVar[OpCounts | None] = ContextVar("ring_op_counts", default=None)


@contextmanager
def count_ops():
    """Count ring operations in the enclosed block.

    Context-local, so concurrent counts in different threads do not mix.
    Fused inner loops report their counts in bulk; the totals always equal
    the number of ring operations logically performed.  A matrix product
    over a depth-1 polynomial ring counts what accumulating every
    coefficient product straight into its output coefficient costs: the
    exact coefficient multiplications and as many additions.  The dot loop
    it replaces reports the same multiplications and more additions, since
    it also adds whole partial sums, as many more as their lengths after
    cancellation give.
    """
    counts = OpCounts()
    token = _ACTIVE_COUNTS.set(counts)
    try:
        yield counts
    finally:
        _ACTIVE_COUNTS.reset(token)


def _bump(mul: int, add: int) -> None:
    counts = _ACTIVE_COUNTS.get()
    if counts is not None:
        counts.mul += mul
        counts.add += add


# ---------------------------------------------------------------------------
# Primality (Miller-Rabin on the prime bases 2..41)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # is_prime is exact below this


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with the prime bases 2..41.

    Exact below psi_13 = 3317044064679887385961981 (about 3.3e24), the
    smallest strong pseudoprime to all thirteen bases (Sorenson and
    Webster, Math. Comp. 2017).  Bases 2..37 alone are fooled by
    psi_12 = 318665857834031151167461.  Above psi_13 a True answer means a
    strong probable prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Packed matrix product (Kronecker substitution)

# Products with any dimension below these use the plain dot loop: packing
# costs O(k * cols) and pays off only across many rows, and a single
# output column gains nothing.  Measured crossovers for square products.
_RESIDUE_PACKED_FLOOR = 7
_INTEGER_PACKED_FLOOR = 10

# array typecode for each machine-word field width.  The packed integers are
# little-endian and array items and memoryview casts are native, so the
# word path runs on little-endian hosts only
_WORD_CODES = {array(code).itemsize: code for code in "QLIHB"} if sys.byteorder == "little" else {}


def _field_format(width):
    """The width a packed product uses for fields of width bytes, and its typecode.

    A width of at most 8 bytes rounds up to the next array item size, whose
    fields pack and unpack in C; a wider one stays as it is, typecode None.
    """
    for size in (1, 2, 4, 8):
        if width <= size and size in _WORD_CODES:
            return size, _WORD_CODES[size]
    return width, None


def _packed_fields(a_rows, b_rows, width, shift=0, offset=0):
    """Fields of the rows of a @ b over the integers, one big-integer sum per row.

    Each row of b, every entry raised by shift so that none is negative,
    becomes one integer with entry j in field j, bytes [j * width,
    (j + 1) * width) counted from the low end.  The sum of a[i][k] times
    packed row k then holds entry (i, j) of the product in field j.  The
    shift is taken back and offset added per field in one product with the
    repunit 1 + 2^(8 width) + 2^(16 width) + ..., and the fields of each row
    are yielded as a sequence of nonnegative ints, entry plus offset.  Exact
    when every entry plus offset lies in [0, 2^(8 width)) and every shifted
    b entry fits one field; _field_format may widen the fields first.
    """
    width, code = _field_format(width)
    cols = len(b_rows[0])
    if shift:
        add_shift = shift.__add__
        b_rows = [map(add_shift, row) for row in b_rows]
    from_bytes = int.from_bytes
    if code:
        packed = [from_bytes(array(code, row).tobytes(), "little") for row in b_rows]
    else:
        lengths, order = repeat(width), repeat("little")
        packed = [
            from_bytes(b"".join(map(int.to_bytes, row, lengths, order)), "little") for row in b_rows
        ]
    repunit = from_bytes(b"\x01".ljust(width, b"\x00") * cols, "little")
    size = width * cols
    starts = range(0, size, width)
    for row in a_rows:
        total = sum(map(operator.mul, row, packed))
        if shift or offset:
            total += (offset - shift * sum(row)) * repunit
        buf = total.to_bytes(size, "little")
        if code:
            yield memoryview(buf).cast(code)
        else:
            yield [from_bytes(buf[i : i + width], "little") for i in starts]


def _packed_product(a_rows, b_rows, width, finish, shift=0, offset=0):
    """Rows of a @ b from _packed_fields, finish mapping each field to its entry.

    Reports the logical dot-product op counts to count_ops() in bulk.
    """
    k = len(b_rows)
    cols = len(b_rows[0])
    _bump(len(a_rows) * cols * k, len(a_rows) * cols * (k - 1))
    rows = _packed_fields(a_rows, b_rows, width, shift, offset)
    return tuple(tuple(map(finish, fields)) for fields in rows)


# ---------------------------------------------------------------------------
# Ring descriptors

_INT_ONLY = frozenset((int,))


def all_ints(row) -> bool:
    """Whether every value is exactly an int (a bool is not), in one C-level pass."""
    return _INT_ONLY.issuperset(map(type, row))


class Ring:
    """A commutative ring; methods operate on raw canonical element values.

    Subclasses are immutable descriptors compared structurally, so two
    descriptors of the same family and parameters are the same ring.
    """

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def canon(self, value):
        """Coerce an arbitrary input into canonical raw form."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def canon_row(self, row) -> tuple:
        """canon of every value in a sequence, as a tuple.

        A RingElem over this ring gives its value; one over another ring
        raises RingMismatch.
        """
        vals = []
        for x in row:
            if isinstance(x, RingElem):
                if x.ring != self:
                    raise RingMismatch(f"entry over {x.ring}, matrix over {self}")
                vals.append(x.value)
            else:
                vals.append(self.canon(x))
        return tuple(vals)

    def scale_row(self, t, row) -> tuple:
        """mul(t, x) for every canonical x in a sequence, as a tuple."""
        return tuple(map(self.mul, repeat(t), row))

    def dot(self, xs, ys):
        """Inner product of two equal-length raw-value sequences."""
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc

    def matmul(self, a_rows, b_rows):
        """Rows of the product of two conforming matrices given as rows.

        One dot product per entry.  The integer-valued rings override this
        with a packed product; this loop stays their reference in the tests.
        """
        dot = self.dot
        bcols = tuple(zip(*b_rows))
        return tuple(tuple(dot(row, col) for col in bcols) for row in a_rows)

    def pow_scalar(self, a, k: int):
        """a**k by square-and-multiply; k must be >= 0."""
        if k < 0:
            raise ValueError("negative exponent")
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    def elem(self, value) -> RingElem:
        return RingElem(self, self.canon(value))


@dataclass(frozen=True)
class IntegerRing(Ring):
    """The ring of integers (arbitrary precision)."""

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"integer value expected, got {value!r}")
        return value

    def canon_row(self, row) -> tuple:
        if all_ints(row):
            return tuple(row)
        return super().canon_row(row)

    def scale_row(self, t, row) -> tuple:
        _bump(len(row), 0)
        return tuple([t * x for x in row])

    def add(self, a, b):
        _bump(0, 1)
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        _bump(1, 0)
        return a * b

    def dot(self, xs, ys):
        n = len(xs)
        if n == 0:
            return 0
        _bump(n, n - 1)
        return sum(map(operator.mul, xs, ys))

    def matmul(self, a_rows, b_rows):
        k = len(b_rows)
        if min(len(a_rows), k, len(b_rows[0])) < _INTEGER_PACKED_FLOOR:
            return super().matmul(a_rows, b_rows)
        top_a = max(map(abs, chain.from_iterable(a_rows)))
        top_b = max(map(abs, chain.from_iterable(b_rows)))
        # |sum| < 2^(bits(top_a) + bits(top_b) + bits(k)), one more bit for
        # the sign; b + top_b lies in [0, 2 top_b] and fits as well
        width = (top_a.bit_length() + top_b.bit_length() + k.bit_length() + 8) // 8
        half = 1 << (8 * width - 1)
        return _packed_product(a_rows, b_rows, width, half.__rsub__, top_b, half)

    def __str__(self):
        return "Z"


class _ResidueRing(Ring):
    """Arithmetic shared by Z/m and GF(p): integers reduced into [0, m).

    Subclasses are frozen dataclasses whose __post_init__ validates their
    public field and stores it as ``_m``.  The families stay separate
    classes, unrelated by subclassing, because callers dispatch on them.
    """

    _m: int

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"integer value expected, got {value!r}")
        return value % self._m

    def canon_row(self, row) -> tuple:
        if not all_ints(row):
            return super().canon_row(row)
        m = self._m
        # a row already reduced, as emitted rows are, keeps its ints: no
        # division per entry and no second set of int objects
        if row and 0 <= min(row) and max(row) < m:
            return tuple(row)
        return tuple([x % m for x in row])

    def scale_row(self, t, row) -> tuple:
        _bump(len(row), 0)
        m = self._m
        return tuple([t * x % m for x in row])

    def add(self, a, b):
        _bump(0, 1)
        return (a + b) % self._m

    def neg(self, a):
        return (-a) % self._m

    def mul(self, a, b):
        _bump(1, 0)
        return (a * b) % self._m

    def dot(self, xs, ys):
        # One deferred reduction per dot product; the products are exact
        # integers, so this equals the op-by-op modular result.
        n = len(xs)
        if n == 0:
            return 0
        _bump(n, n - 1)
        return sum(map(operator.mul, xs, ys)) % self._m

    def matmul(self, a_rows, b_rows):
        k = len(b_rows)
        if min(len(a_rows), k, len(b_rows[0])) < _RESIDUE_PACKED_FLOOR:
            return super().matmul(a_rows, b_rows)
        m = self._m
        # every exact sum is below k * (m-1)^2
        width = (2 * (m - 1).bit_length() + k.bit_length() + 7) // 8
        return _packed_product(a_rows, b_rows, width, m.__rmod__)


@dataclass(frozen=True)
class ModularRing(_ResidueRing):
    """The residue ring Z/m; m >= 2, composite moduli welcome."""

    modulus: int

    def __post_init__(self):
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {self.modulus!r}")
        object.__setattr__(self, "_m", self.modulus)

    def __str__(self):
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class PrimeFieldRing(_ResidueRing):
    """The prime field GF(p), p below psi_13, where is_prime is exact."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"prime field order must be prime, got {self.p!r}")
        if self.p >= _PSI_13:
            raise ValueError(f"primality is proven only below {_PSI_13}, got {self.p}")
        object.__setattr__(self, "_m", self.p)

    def __str__(self):
        return f"GF({self.p})"


def _poly_depth(ring: Ring) -> int:
    depth = 0
    while isinstance(ring, PolynomialRing):
        depth += 1
        ring = ring.base
    return depth


def _strip_ints(coeffs) -> tuple:
    """A coefficient list of plain ints as a tuple, trailing zeros dropped."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class PolynomialRing(Ring):
    """Univariate polynomials over a base ring, coefficients low degree first.

    Over Z, Z/m and GF(p) (depth 1) the coefficients are plain ints, and
    mul, add and matmul work on them directly with no call per coefficient;
    a depth-2 ring goes through its base ring's methods.
    """

    base: Ring
    var: str = "x"

    def __post_init__(self):
        if not isinstance(self.var, str) or not self.var.isidentifier():
            raise ValueError(f"variable must be an identifier, got {self.var!r}")
        if _poly_depth(self) > 2:
            raise ValueError("polynomial nesting is capped at depth 2")
        # the plain-int coefficient modulus: 0 over Z, m over Z/m and GF(p),
        # None when the coefficients are polynomials themselves
        base = self.base
        if isinstance(base, IntegerRing):
            modulus = 0
        elif isinstance(base, _ResidueRing):
            modulus = base._m
        else:
            modulus = None
        object.__setattr__(self, "_coeff_mod", modulus)

    @property
    def zero(self):
        return ()

    @property
    def one(self):
        return (self.base.one,)

    def _strip(self, coeffs: list) -> tuple:
        zero = self.base.zero
        n = len(coeffs)
        while n and coeffs[n - 1] == zero:
            n -= 1
        return tuple(coeffs[:n])

    def canon(self, value):
        if isinstance(value, (list, tuple)):
            return self._strip([self.base.canon(c) for c in value])
        # scalars lift to constant polynomials
        return self._strip([self.base.canon(value)])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        m = self._coeff_mod
        if m is None:
            out = list(a)
            base = self.base
            for i, c in enumerate(b):
                out[i] = base.add(out[i], c)
            return self._strip(out)
        _bump(0, len(b))
        out = list(map(operator.add, a, b))
        if m:
            out = [c % m for c in out]
        if len(a) > len(b):
            # a's leading coefficient is untouched, so nothing to strip
            out.extend(a[len(b) :])
            return tuple(out)
        return _strip_ints(out)

    def neg(self, a):
        return tuple(map(self.base.neg, a))

    def mul(self, a, b):
        if not a or not b:
            return ()
        m = self._coeff_mod
        if m is None:
            base = self.base
            zero = base.zero
            out = [zero] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x == zero:
                    continue
                for j, y in enumerate(b):
                    out[i + j] = base.add(out[i + j], base.mul(x, y))
            # leading coefficients can multiply to zero over rings with zero
            # divisors, so the product still needs a strip
            return self._strip(out)
        # the loop above, one multiply-add per nonzero coefficient of a and
        # coefficient of b, on plain ints and counted in one bump
        ops = (len(a) - a.count(0)) * len(b)
        _bump(ops, ops)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                j = i
                for y in b:
                    out[j] += x * y
                    j += 1
        if m:
            # reduce, then strip: zero divisors can kill the leading term
            return _strip_ints([c % m for c in out])
        return tuple(out)

    def matmul(self, a_rows, b_rows):
        """Rows of the product, at depth 1 by Kronecker substitution.

        Every entry is evaluated at x = X = 2^(8 w), so that each entry of
        the product is a polynomial C with C(X) = sum_k a_ik(X) b_kj(X), and
        the integer products come from _packed_fields with one w-byte field
        per coefficient of C.  Coefficient t of C has at most k * min(la,
        lb) terms, la and lb the longest entry lengths of a and b: over Z
        each is at most k min(la, lb) max|a| max|b| in size and the fields
        hold signed digits, lifted by half a field; over Z/m and GF(p) each
        is at most k min(la, lb) (m-1)^2, and the digits are reduced mod m
        and stripped.  Counts the loop's exact multiplications, sum over k of
        (nonzero coefficients of column k of a) * (coefficients of row k of
        b), and as many additions (see count_ops).  Depth 2 keeps the base
        loop, whose inner ring multiplies on plain ints.
        """
        m = self._coeff_mod
        if m is None:
            return super().matmul(a_rows, b_rows)
        nonzero = [sum(len(p) - p.count(0) for p in col) for col in zip(*a_rows)]
        ops = sum(map(operator.mul, nonzero, (sum(map(len, row)) for row in b_rows)))
        _bump(ops, ops)
        cols = len(b_rows[0])
        la = max(map(len, chain.from_iterable(a_rows)))
        lb = max(map(len, chain.from_iterable(b_rows)))
        if not (la and lb):
            return tuple(((),) * cols for _ in a_rows)
        terms = len(b_rows) * min(la, lb)
        if m:
            width = (2 * (m - 1).bit_length() + terms.bit_length() + 7) // 8
        else:
            top_a = max(map(abs, chain.from_iterable(chain.from_iterable(a_rows))))
            top_b = max(map(abs, chain.from_iterable(chain.from_iterable(b_rows))))
            width = (top_a.bit_length() + top_b.bit_length() + terms.bit_length() + 8) // 8
        width = _field_format(width)[0]
        bits = 8 * width
        shift, offset = (0, 0) if m else (top_b, 1 << (bits - 1))

        def at_x(p):
            v = 0
            for c in reversed(p):
                v = (v << bits) + c
            return v

        digits = la + lb - 1
        pad = (0,) * digits
        b_fields = [list(chain.from_iterable([p + pad[len(p) :] for p in row])) for row in b_rows]
        a_vals = [list(map(at_x, row)) for row in a_rows]
        finish = m.__rmod__ if m else offset.__rsub__
        starts = range(0, digits * cols, digits)
        out = []
        for fields in _packed_fields(a_vals, b_fields, width, shift, offset):
            coeffs = list(map(finish, fields))
            out.append(tuple([_strip_ints(coeffs[s : s + digits]) for s in starts]))
        return tuple(out)

    def __str__(self):
        return f"{self.base}[{self.var}]"


# ---------------------------------------------------------------------------
# Elements

class RingElem:
    """An immutable exact element of a described ring.

    The value is stored in canonical raw form; construct through
    ``ring.elem(...)`` unless the value is already canonical.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def is_zero(self) -> bool:
        return self.value == self.ring.zero

    def _coerce(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            raise TypeError(f"RingElem expected, got {other!r}")
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.ring.sub(self.value, other.value))

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.value))

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElem(self.ring, self.ring.mul(self.value, other.value))

    def __pow__(self, k: int):
        return RingElem(self.ring, self.ring.pow_scalar(self.value, k))

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"{self.value!r}:{self.ring}"

