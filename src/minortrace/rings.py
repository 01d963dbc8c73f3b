"""Exact arithmetic over commutative rings.

Four ring families are provided: the integers, residue rings Z/m (composite
moduli allowed on purpose, zero divisors included), prime fields GF(p), and
univariate polynomial rings over any of these (nesting capped at depth 2).
Every operation is exact; there is no floating point anywhere.  Z, Z/m and
GF(p) share one plain-int implementation keyed on the modulus, Z being Z/0:
the same methods reduce mod m, or skip the reduction when m is 0.

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
from functools import lru_cache
from itertools import chain, repeat


class RingError(Exception):
    """Base class for ring arithmetic errors."""


class RingMismatch(RingError):
    """Operands belong to different rings."""


class UnsupportedRing(RingError):
    """Operation not defined for this ring family."""


class _Record:
    """Base of the package's value classes: a frozen dataclass, without its cost to define.

    ``__init__`` takes one value per name in ``_fields``, by position or by
    name (a subclass with checks or defaults wraps it).  Instances are
    immutable, equal when of one class with equal fields, hash by the
    fields and print as ``Name(field=value, ...)``.
    """

    _fields: tuple = ()

    def __init__(self, *values, **named):
        names = self._fields
        if named:
            values += tuple(named.pop(name) for name in names[len(values) :] if name in named)
        if named or len(values) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)  # what __eq__ and __hash__ compare

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Operation counting (test instrumentation; off unless count_ops is active)

class OpCounts:
    """Ring multiplications and additions performed inside a count_ops block."""

    def __init__(self, mul: int = 0, add: int = 0):
        self.mul = mul
        self.add = add

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mul, self.add) == (other.mul, other.add)  # unhashable, as counts change

    def __repr__(self):
        return f"OpCounts(mul={self.mul!r}, add={self.add!r})"


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


@lru_cache
def _is_prime_once(p: int) -> bool:
    """is_prime(p), computed once per p: every GF(p) file read builds a ring."""
    return is_prime(p)


# ---------------------------------------------------------------------------
# Packed fields (Kronecker substitution), one codec shared with the oracle

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
    """The width packed fields of width bytes take, and its typecode.

    A width of at most 8 bytes rounds up to the next array item size, whose
    fields pack and unpack in C; a wider one stays as it is, typecode None.
    """
    for size in (1, 2, 4, 8):
        if width <= size and size in _WORD_CODES:
            return size, _WORD_CODES[size]
    return width, None


def _repunit(width, count):
    """The integer with a 1 in each of count fields of width bytes."""
    return int.from_bytes(b"\x01".ljust(width, b"\x00") * count, "little")


def _unpack(x, width, code, count):
    """The count fields of a nonnegative int x, low field first.

    code is _field_format's typecode for width: the fields are cast in C
    when there is one, and cut from the bytes one by one when it is None.
    """
    buf = x.to_bytes(width * count, "little")
    if code:
        return memoryview(buf).cast(code)
    from_bytes = int.from_bytes
    return [from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]


def _packed_fields(a_rows, b_rows, width, shift=0, offset=0):
    """Fields of the rows of a @ b over the integers, one big-integer sum per row.

    Each row of b, every entry raised by shift so that none is negative,
    becomes one integer with entry j in field j, bytes [j * width,
    (j + 1) * width) counted from the low end.  The sum of a[i][k] times
    packed row k then holds entry (i, j) of the product in field j.  The
    shift is taken back and offset added per field in one product with the
    repunit, and the fields of each row are yielded as a sequence of
    nonnegative ints, entry plus offset.  Exact when every entry plus offset
    lies in [0, 2^(8 width)) and every shifted b entry fits one field;
    _field_format may widen the fields first.
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
    repunit = _repunit(width, cols)
    for row in a_rows:
        total = sum(map(operator.mul, row, packed))
        if shift or offset:
            total += (offset - shift * sum(row)) * repunit
        yield _unpack(total, width, code, cols)


def _packed_layout(m, terms, a_values, b_values):
    """(width, finish, shift, offset) for packed sums of terms products a * b.

    Over Z/m (m > 0) every sum lies in [0, terms (m-1)^2], and finish
    reduces a field mod m.  Over Z (m = 0) |sum| < 2^(bits(max|a|) +
    bits(max|b|) + bits(terms)): b is shifted by max|b| into [0, 2 max|b|],
    and a field holds a signed digit lifted by half a field, one more bit.
    The width is rounded as _field_format rounds it; only Z reads the values.
    """
    if m:
        width = (2 * (m - 1).bit_length() + terms.bit_length() + 7) // 8
        return _field_format(width)[0], m.__rmod__, 0, 0
    top_a = max(map(abs, a_values))
    top_b = max(map(abs, b_values))
    bits = top_a.bit_length() + top_b.bit_length() + terms.bit_length() + 1
    width = _field_format((bits + 7) // 8)[0]
    half = 1 << (8 * width - 1)
    return width, half.__rsub__, top_b, half


# ---------------------------------------------------------------------------
# Ring descriptors

_INT_ONLY = frozenset((int,))


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


class _ResidueRing(Ring, _Record):
    """Arithmetic on plain ints mod m, shared by Z, Z/m and GF(p).

    Values are reduced into [0, m) over Z/m and GF(p).  Z is the residue
    ring Z/0: with ``_m`` 0 every method skips its reduction, and the packed
    product works with signed fields.  ``zero`` and ``one`` are the class
    constants 0 and 1.  Each subclass is an immutable record: IntegerRing
    sets ``_m = 0`` on the class, and ModularRing and PrimeFieldRing
    validate their public field in ``__init__`` and store it as ``_m``.  The
    families stay separate classes, none subclassing another, because
    callers dispatch on them.
    """

    _m: int
    zero = 0
    one = 1

    def canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"integer value expected, got {value!r}")
        m = self._m
        return value % m if m else value

    def canon_row(self, row) -> tuple:
        # every value exactly an int (a bool is not), in one C-level pass
        if not _INT_ONLY.issuperset(map(type, row)):
            return super().canon_row(row)
        m = self._m
        # a row already reduced, as emitted rows are, keeps its ints: no
        # division per entry and no second set of int objects
        if not m or row and 0 <= min(row) and max(row) < m:
            return tuple(row)
        return tuple([x % m for x in row])

    def scale_row(self, t, row) -> tuple:
        _bump(len(row), 0)
        m = self._m
        return tuple([t * x % m for x in row] if m else [t * x for x in row])

    def add(self, a, b):
        _bump(0, 1)
        m = self._m
        return (a + b) % m if m else a + b

    def neg(self, a):
        m = self._m
        return -a % m if m else -a

    def sub(self, a, b):
        _bump(0, 1)
        m = self._m
        return (a - b) % m if m else a - b

    def mul(self, a, b):
        _bump(1, 0)
        m = self._m
        return a * b % m if m else a * b

    def dot(self, xs, ys):
        # One deferred reduction per dot product; the products are exact
        # integers, so this equals the op-by-op modular result.
        n = len(xs)
        if n == 0:
            return 0
        _bump(n, n - 1)
        total = sum(map(operator.mul, xs, ys))
        m = self._m
        return total % m if m else total

    def matmul(self, a_rows, b_rows):
        k = len(b_rows)
        if k == 1:  # an outer product: each row of it is the one row of b, scaled
            scale_row, row = self.scale_row, b_rows[0]
            return tuple([scale_row(r[0], row) for r in a_rows])
        m = self._m
        floor = _RESIDUE_PACKED_FLOOR if m else _INTEGER_PACKED_FLOOR
        cols = len(b_rows[0])
        if min(len(a_rows), k, cols) < floor:
            return super().matmul(a_rows, b_rows)
        _bump(len(a_rows) * cols * k, len(a_rows) * cols * (k - 1))
        flat = chain.from_iterable
        width, finish, shift, offset = _packed_layout(m, k, flat(a_rows), flat(b_rows))
        rows = _packed_fields(a_rows, b_rows, width, shift, offset)
        return tuple(tuple(map(finish, fields)) for fields in rows)


class IntegerRing(_ResidueRing):
    """The ring of integers (arbitrary precision), the residue ring Z/0."""

    _m = 0

    def __str__(self):
        return "Z"


class ModularRing(_ResidueRing):
    """The residue ring Z/m; m >= 2, composite moduli welcome."""

    _fields = ("modulus",)

    def __init__(self, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")
        super().__init__(modulus)
        object.__setattr__(self, "_m", modulus)

    def __str__(self):
        return f"Z/{self.modulus}"


class PrimeFieldRing(_ResidueRing):
    """The prime field GF(p), p below psi_13, where is_prime is exact."""

    _fields = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime_once(p):
            raise ValueError(f"prime field order must be prime, got {p!r}")
        if p >= _PSI_13:
            raise ValueError(f"primality is proven only below {_PSI_13}, got {p}")
        super().__init__(p)
        object.__setattr__(self, "_m", p)

    def __str__(self):
        return f"GF({self.p})"


def _strip(coeffs) -> tuple:
    """A coefficient list as a tuple, trailing zeros (0 or ()) dropped."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class PolynomialRing(Ring, _Record):
    """Univariate polynomials over a base ring, coefficients low degree first.

    ``zero`` is the class constant (), the zero polynomial.  Over Z, Z/m
    and GF(p) (depth 1) the coefficients are plain ints, and mul, add and
    matmul work on them directly with no call per coefficient; a depth-2
    ring goes through its base ring's methods.
    """

    _fields = ("base", "var")

    def __init__(self, base: Ring, var: str = "x"):
        if not isinstance(var, str) or not var.isidentifier():
            raise ValueError(f"variable must be an identifier, got {var!r}")
        super().__init__(base, var)
        depth = 1 + getattr(base, "_depth", 0)
        if depth > 2:
            raise ValueError("polynomial nesting is capped at depth 2")
        object.__setattr__(self, "_depth", depth)
        # the plain-int coefficient modulus (0 over Z), None over polynomials
        object.__setattr__(self, "_coeff_mod", getattr(base, "_m", None))

    zero = ()

    @property
    def one(self):
        return (self.base.one,)

    def canon(self, value):
        if isinstance(value, (list, tuple)):
            return _strip([self.base.canon(c) for c in value])
        # scalars lift to constant polynomials
        return _strip([self.base.canon(value)])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        m = self._coeff_mod
        if m is None:
            out = list(a)
            base = self.base
            for i, c in enumerate(b):
                out[i] = base.add(out[i], c)
            return _strip(out)
        _bump(0, len(b))
        out = list(map(operator.add, a, b))
        if m:
            out = [c % m for c in out]
        if len(a) > len(b):
            # a's leading coefficient is untouched, so nothing to strip
            out.extend(a[len(b) :])
            return tuple(out)
        return _strip(out)

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
            return _strip(out)
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
            return _strip([c % m for c in out])
        return tuple(out)

    def matmul(self, a_rows, b_rows):
        """Rows of the product, at depth 1 by Kronecker substitution.

        Every entry is evaluated at x = X = 2^(8 w), so that each entry of
        the product is a polynomial C with C(X) = sum_k a_ik(X) b_kj(X), and
        the integer products come from _packed_fields with one w-byte field
        per coefficient of C.  Coefficient t of C sums at most k * min(la,
        lb) coefficient products, la and lb the longest entry lengths of a
        and b, so _packed_layout lays out its field as that of a plain-int
        product with that many terms; over Z/m and GF(p) the coefficients
        are then stripped.  Counts the loop's exact multiplications, sum
        over k of (nonzero coefficients of column k of a) * (coefficients of
        row k of b), and as many additions (see count_ops).  Depth 2 keeps
        the base loop, whose inner ring multiplies on plain ints.
        """
        m = self._coeff_mod
        if m is None:
            return super().matmul(a_rows, b_rows)
        nonzero = [sum(len(p) - p.count(0) for p in col) for col in zip(*a_rows)]
        ops = sum(map(operator.mul, nonzero, (sum(map(len, row)) for row in b_rows)))
        _bump(ops, ops)
        cols = len(b_rows[0])
        flat = chain.from_iterable
        la = max(map(len, flat(a_rows)))
        lb = max(map(len, flat(b_rows)))
        if not (la and lb):
            return tuple(((),) * cols for _ in a_rows)
        terms = len(b_rows) * min(la, lb)
        coeffs_a, coeffs_b = flat(flat(a_rows)), flat(flat(b_rows))
        width, finish, shift, offset = _packed_layout(m, terms, coeffs_a, coeffs_b)
        bits = 8 * width

        def at_x(p):
            v = 0
            for c in reversed(p):
                v = (v << bits) + c
            return v

        digits = la + lb - 1
        pad = (0,) * digits
        b_fields = [list(flat([p + pad[len(p) :] for p in row])) for row in b_rows]
        a_vals = [list(map(at_x, row)) for row in a_rows]
        starts = range(0, digits * cols, digits)
        out = []
        for fields in _packed_fields(a_vals, b_fields, width, shift, offset):
            coeffs = list(map(finish, fields))
            out.append(tuple([_strip(coeffs[s : s + digits]) for s in starts]))
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

