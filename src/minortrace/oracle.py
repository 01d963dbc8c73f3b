"""Brute-force ground truth over small finite rings.

The decisive cross-check: enumerate every n x n matrix over Z/m, classify
each one by (a) whether A B A = Tr(AB) A holds for every B and (b) whether
all 2x2 minors vanish, and confirm the two classifications coincide.  The
for-every-B side is decided by probing the n^2 unit matrices, which is
provably equivalent to the full quantifier: the probe with its unit at
(l, j) reduces to col_l(A) row_j(A) = a_jl A, and if all of those hold,
every minor vanishes and the identity follows for arbitrary B.  Periodic
full-B spot checks keep that shortcut honest.

The sweep and its spot checks run bit-parallel over Z: many matrices are
packed into one integer, one fixed-width field per matrix, and a form
linear in the packed entries holds each matrix's value in its own field.
The sweep fixes A's first n-1 rows and packs its last row, one field per
value of that row: no 2x2 minor a_ik a_jl - a_il a_jk and no unit-probe
residual entry a_xl a_jc - a_jl a_xc (x != j) uses the last row twice, so
each is linear in it, with fields in [-(m-1)^2, (m-1)^2].  A spot check
tries every B: the m^(n^2-1) matrices B that share a first entry go into
one n x n integer matrix, and a single residual over Z holds all of their
residuals, with fields in [-n^2 (m-1)^3, n^2 (m-1)^3].  Either way, adding
the least multiple of m at or above the bound lifts every field above zero
without changing it mod m, and fields that hold twice that offset never
carry into each other.  The field width, the repunit and the decode of a
packed integer into its fields come from the packed-field codec in rings.
"""

from __future__ import annotations

import itertools

from .matrices import Matrix, NotSquare, TooLargeToEnumerate, TooSmall, _square_pair
from .rings import IntegerRing, ModularRing, PrimeFieldRing, Ring
from .rings import _Record, _bump, _field_format, _repunit, _unpack


ENUMERATION_BUDGET = 10**6  # max matrices per exhaustive sweep
WORK_BUDGET = 5 * 10**7  # max matrices A plus spot-check B per sweep: a few seconds at most


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


def _enumerable_values(ring: Ring, n: int) -> range:
    if not isinstance(ring, (ModularRing, PrimeFieldRing)):
        raise TooLargeToEnumerate(f"{ring} is not a finite enumerable ring")
    m = ring._m
    # m >= 2, so m^k exceeds the budget once k reaches the budget's bit length
    if m ** min(n * n, ENUMERATION_BUDGET.bit_length()) > ENUMERATION_BUDGET:
        raise TooLargeToEnumerate(
            f"{m}^{n * n} matrices exceed the {ENUMERATION_BUDGET} budget"
        )
    return range(m)


def _packing(bound: int, m: int):
    """(offset, width, typecode) for packed values in [-bound, bound], decided mod m.

    offset is the least multiple of m at or above bound, and the fields hold
    2 offset, so a value plus offset is nonnegative, fits its field, and is
    0 mod m exactly when the value is.
    """
    offset = -(-bound // m) * m
    return (offset, *_field_format(((2 * offset).bit_length() + 7) // 8))


def _packed_digits(m: int, k: int, width: int) -> list[int]:
    """k integers, one width-byte field per tuple of product(range(m), repeat=k).

    Field t of integer e holds entry e of the t-th tuple in that order, the
    order itertools.product gives: entry e runs through 0..m-1 in runs of
    m^(k-1-e) fields.
    """
    count = m**k
    fields = [v.to_bytes(width, "little") for v in range(m)]
    digits = []
    run = count
    for _ in range(k):
        run //= m
        digits.append(int.from_bytes(b"".join(f * run for f in fields) * (count // (run * m)), "little"))
    return digits


def universal_identity_by_enumeration(a: Matrix) -> bool:
    """Decide the for-every-B question by trying literally every B.

    The B with one first entry b are checked together, bit-parallel over Z.
    Lift A to the integers (its entries lie in [0, m)) and pack those
    m^(n^2-1) matrices into one integer matrix P, one field per B in
    enumeration order: every entry of P but (0, 0) holds that entry of each
    B in its own field, and entry (0, 0) is b times the repunit.  The
    residual A P A - Tr(AP) A is linear in P, so its field t is B_t's
    residual over Z, which reduces mod m to the residual over Z/m.  Every
    residual entry lies in [-n^2 (m-1)^3, n^2 (m-1)^3]; lifted as _packing
    describes, the fields decode one by one, and B_t satisfies the identity
    iff each of its fields is 0 mod m.  One verify_identity per first entry
    keeps an early exit.
    """
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    n = a.rows
    values = _enumerable_values(a.ring, n)
    m = len(values)
    count = m ** (n * n - 1)  # B per first entry
    offset, width, code = _packing(n * n * (m - 1) ** 3, m)
    repunit = _repunit(width, count)
    lift = offset * repunit
    rest = _packed_digits(m, n * n - 1, width)
    integers = IntegerRing()
    a_z = Matrix(integers, a.data)
    for first in values:
        entries = [first * repunit, *rest]
        p = Matrix(integers, tuple(tuple(entries[k * n : (k + 1) * n]) for k in range(n)))
        for row in verify_identity(a_z, p).data:
            for x in row:
                if any(map(m.__rmod__, _unpack(x + lift, width, code, count))):
                    return False
    return True


class EquivalenceReport(_Record):
    """Cross-classification of all n x n matrices over a finite ring.

    set_identity counts matrices satisfying the identity for every B;
    set_minors counts matrices with all 2x2 minors zero.  agree means the
    two classifications coincide matrix-by-matrix (so as sets, not merely
    as counts); mismatches lists up to 10 offenders in enumeration order.
    """

    _fields = ("ring", "n", "total", "set_identity", "set_minors", "agree", "mismatches")


MISMATCH_CAP = 10
SPOT_CHECK_EVERY = 100  # probe decisions re-checked by the full-B loop

_ONE_IF_NONZERO = bytes(1) + b"\x01" * 255  # bytes.translate table


def _form_table(n: int) -> tuple:
    """Every form the sweep evaluates at order n, split once per side.

    A form (a, b, c, d, e, f, g, h) stands for r[a][b] r[c][d] - r[e][f] r[g][h]
    on A's rows r.  The for-every-B side has the unit-probe residual
    entries: in row x != j, the residual of the probe with its unit at
    (l, j) is a_xl row_j(A) - a_jl row_x(A), and in row j it is zero.  The
    minor side has the 2x2 minors a_ik a_jl - a_il a_jk.  Each side is a
    pair (forms on the first n-1 rows alone, forms that use the last row).
    """
    pairs = list(itertools.combinations(range(n), 2))
    probes = [(x, l, j, c, j, l, x, c) for l, j, x, c in itertools.product(range(n), repeat=4) if x != j]
    minors = [(i, k, j, l, i, l, j, k) for i, j in pairs for k, l in pairs]
    # a form uses the last row when one of its row indices a, c, e, g is n - 1
    return tuple(
        (tuple(f for f in side if n - 1 not in f[::2]), tuple(f for f in side if n - 1 in f[::2]))
        for side in (probes, minors)
    )


def _block_fails(r, table, decide) -> tuple[bytes, bytes]:
    """Both sides of a block: byte t of each is 1 iff matrix t fails that side.

    r holds A's first n-1 rows as ints and its last row packed.  decide
    turns one side's values, those of its forms on the first rows apart
    from those on the last row, into the block's bytes.  The for-every-B
    side comes first, then the minor side.
    """

    def values(forms):
        return [r[a][b] * r[c][d] - r[e][f] * r[g][h] for a, b, c, d, e, f, g, h in forms]

    return tuple(decide(values(const), values(packed)) for const, packed in table)


def exhaustive_characterization(ring: Ring, n: int) -> EquivalenceReport:
    """Enumerate every A over a small finite ring and cross-classify it.

    The matrices come in blocks of m^n that share their first n-1 rows, in
    enumeration order, and each block is decided on both sides at once: the
    for-every-B side on the n^2 unit probes, the minor side on the minors.
    A form on the first rows alone is one value for the whole block; a form
    on the last row is linear in it, and with that row packed, one field per
    matrix, holds each matrix's value in [-(m-1)^2, (m-1)^2] in its own
    field.  Every SPOT_CHECK_EVERY-th matrix (the first included) also runs
    the full-B enumeration, which must agree with its probe decision.
    """
    if n < 2:
        raise TooSmall("exhaustive characterization needs n >= 2")
    values = _enumerable_values(ring, n)
    m = len(values)
    total = m ** (n * n)
    checks = -(-total // SPOT_CHECK_EVERY)  # each tries every B
    if total + checks * total > WORK_BUDGET:
        raise TooLargeToEnumerate(
            f"{total} matrices and {checks} spot checks of {total} B exceed the {WORK_BUDGET} work budget"
        )
    block = m**n  # matrices per block: A's last row runs through values
    offset, width, code = _packing((m - 1) ** 2, m)
    lift = offset * _repunit(width, block)
    all_fail = b"\x01" * block

    def decide(const, packed):
        # byte t is 1 iff some form is nonzero mod m on matrix t; a const
        # form has one value for the whole block, a packed one a field each
        if any(v % m for v in const):
            return all_fail
        # -x has x's fields negated, so abs(x) decides for both, and a form
        # that is 0 over Z is 0 on every matrix
        forms = set(map(abs, packed))
        forms.discard(0)
        flags = 0
        for x in forms:
            # byte t of flags is field t's residue, which fits a byte: the
            # budget keeps m below 32
            fields = _unpack(x + lift, width, code, block)
            flags |= int.from_bytes(bytes(map(m.__rmod__, fields)), "little")
        return flags.to_bytes(block, "little").translate(_ONE_IF_NONZERO)

    table = _form_table(n)  # two multiplications and a subtraction per form value
    form_values = sum(len(const) + len(packed) * block for const, packed in table)
    last = tuple(_packed_digits(m, n, width))
    all_rows = list(itertools.product(values, repeat=n))
    ident_count = minors_count = 0
    mismatches: list[Matrix] = []
    for index, prefix in enumerate(itertools.product(all_rows, repeat=n - 1)):
        _bump(2 * form_values, form_values)
        fails, unstructured = _block_fails(prefix + (last,), table, decide)
        for t in range(-index * block % SPOT_CHECK_EVERY, block, SPOT_CHECK_EVERY):
            a = Matrix(ring, prefix + (all_rows[t],))
            if (not fails[t]) != universal_identity_by_enumeration(a):
                raise RuntimeError(f"probe decision disagrees with full enumeration at {a!r}")
        ident_count += fails.count(0)
        minors_count += unstructured.count(0)
        if fails != unstructured and len(mismatches) < MISMATCH_CAP:
            wrong = [t for t in range(block) if fails[t] != unstructured[t]]
            for t in wrong[: MISMATCH_CAP - len(mismatches)]:
                mismatches.append(Matrix(ring, prefix + (all_rows[t],)))
    return EquivalenceReport(
        ring=ring,
        n=n,
        total=total,
        set_identity=ident_count,
        set_minors=minors_count,
        agree=not mismatches and ident_count == minors_count,
        mismatches=tuple(mismatches),
    )
