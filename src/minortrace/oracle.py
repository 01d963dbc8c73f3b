"""Brute-force ground truth over small finite rings.

The decisive cross-check: enumerate every n x n matrix over Z/m, classify
each one by (a) whether A B A = Tr(AB) A holds for every B and (b) whether
all 2x2 minors vanish, and confirm the two classifications coincide.  The
for-every-B side is decided by probing the n^2 unit matrices, which is
provably equivalent to the full quantifier: the probe with its unit at
(l, j) reduces to col_l(A) row_j(A) = a_jl A, and if all of those hold,
every minor vanishes and the identity follows for arbitrary B.  Periodic
full-B spot checks keep that shortcut honest.

The sweep fixes A's first n-1 rows and decides the m^n matrices that
share them, one per value of the last row, together.  No 2x2 minor
a_ik a_jl - a_il a_jk and no unit-probe residual entry a_xl a_jc - a_jl a_xc
(x != j) uses the last row twice, so a form that uses it is u v - u2 v2,
with u and u2 on the first rows, fixed for the block, and v and v2 entries
s and s2 of the last row.  A residue table, built once per call, holds for
every residue u and column s an integer residues[u][s] whose byte t is u
times entry s of matrix t's last row, mod m; one byte holds any residue,
as the budget keeps m below 32.  The form is 0 mod m on matrix t exactly
when byte t of residues[u][s] ^ residues[u2][s2] is 0: no field is lifted
or decoded.

A spot check tries every B bit-parallel over Z: the m^(n^2-1) matrices B
that share a first entry go into one n x n integer matrix, one
fixed-width field per B, with the repunit of the packed-field codec in
rings, and a single residual over Z, linear in the packed entries, holds
each B's residual in its own field, in [-n^2 (m-1)^3, n^2 (m-1)^3].
Adding the least multiple of m at or above that bound lifts every field
above zero without changing it mod m, and fields that hold twice that
offset never carry into each other.  No field is decoded either, by a
carry-free rule that sets its own field width.  Let X hold fields f_t in
[0, 2 offset] (offset a multiple of m) of w bytes each, let
b = (2 offset // m).bit_length(), and let m 2^b <= 2^(8w).  Then every
f_t is 0 mod m exactly when m divides X and every field of q = X // m is
below 2^b, that is, q & high == 0 for high the bits b..8w-1 of every
field.  If every f_t = m g_t, then g_t <= 2 offset / m < 2^b and
q = sum g_t 2^(8wt).  Conversely, if X = m q and every field q_t of q is
below 2^b, then m q_t < 2^(8w), so sum (m q_t) 2^(8wt) is X written in
base 2^(8w), and by the uniqueness of those digits f_t = m q_t.  No carry
can occur either way.
"""

from __future__ import annotations

import itertools

from .matrices import Matrix, NotSquare, TooLargeToEnumerate, TooSmall, _square_pair
from .rings import IntegerRing, ModularRing, PrimeFieldRing, Ring
from .rings import _Record, _bump, _repunit


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


def _mask_packing(bound: int, m: int, count: int) -> tuple[int, int, int, int]:
    """(width, repunit, lift, high) for count packed values in [-bound, bound], decided mod m unpacked.

    width is the fewest bytes w with m 2^b <= 2^(8w), b and the offset as
    the module docstring's carry-free rule has them; lift is the offset in
    every field and high the bits b..8w-1 of every field.
    """
    offset = -(-bound // m) * m
    bits = (2 * offset // m).bit_length()
    width = -(-((m << bits) - 1).bit_length() // 8)
    repunit = _repunit(width, count)
    return width, repunit, offset * repunit, ((1 << 8 * width) - (1 << bits)) * repunit


def _residual_vanishes(rows, m: int, lift: int, high: int) -> bool:
    """Whether every field of every packed entry in rows is 0 mod m, lifted by lift.

    The carry-free rule of the module docstring: one division and one mask
    per entry, with no field decoded.
    """
    for row in rows:
        for x in row:
            q, r = divmod(x + lift, m)
            if r or q & high:
                return False
    return True


def _packed_digits(values: range | list[int], k: int, width: int) -> list[int]:
    """k integers, one width-byte field per tuple of product(range(m), repeat=k), m = len(values).

    Field t of integer e holds values[v], for v entry e of the t-th tuple
    in the order itertools.product gives: entry e runs through 0..m-1 in
    runs of m^(k-1-e) fields.
    """
    fields = [v.to_bytes(width, "little") for v in values]
    m = len(fields)
    return [
        int.from_bytes(b"".join(f * m ** (k - 1 - e) for f in fields) * m**e, "little") for e in range(k)
    ]


def _spot_check_packing(m: int, n: int) -> tuple:
    """What every spot check at order n over Z/m shares: (repunit, rest, lift, high).

    The m^(n^2-1) B that share a first entry take one field each, in
    enumeration order: rest holds the packed entries of B but (0, 0), and
    the first entry b is b times the repunit.  lift and high decide the
    residual fields, in [-n^2 (m-1)^3, n^2 (m-1)^3], by the carry-free rule.
    """
    width, repunit, lift, high = _mask_packing(n * n * (m - 1) ** 3, m, m ** (n * n - 1))
    return repunit, _packed_digits(range(m), n * n - 1, width), lift, high


def _every_b_holds(rows: tuple, m: int, packing: tuple) -> bool:
    """Whether A B A = Tr(AB) A over Z/m for every B, A's rows given as ints in [0, m).

    packing is _spot_check_packing(m, n).  One verify_identity per first
    entry of B, in order, so the first failing first entry exits.
    """
    repunit, rest, lift, high = packing
    n = len(rows)
    integers = IntegerRing()
    a_z = Matrix(integers, rows)
    for first in range(m):
        entries = [first * repunit, *rest]
        p = Matrix(integers, tuple(tuple(entries[k * n : (k + 1) * n]) for k in range(n)))
        if not _residual_vanishes(verify_identity(a_z, p).data, m, lift, high):
            return False
    return True


def universal_identity_by_enumeration(a: Matrix) -> bool:
    """Decide the for-every-B question by trying literally every B.

    The B with one first entry b are checked together, bit-parallel over Z.
    Lift A to the integers (its entries lie in [0, m)) and pack those
    m^(n^2-1) matrices into one integer matrix P, one field per B in
    enumeration order: every entry of P but (0, 0) holds that entry of each
    B in its own field, and entry (0, 0) is b times the repunit.  The
    residual A P A - Tr(AP) A is linear in P, so its field t is B_t's
    residual over Z, which reduces mod m to the residual over Z/m.  Every
    residual entry lies in [-n^2 (m-1)^3, n^2 (m-1)^3].  Lifted by an
    offset that is a multiple of m, B_t satisfies the identity iff each of
    its fields is 0 mod m, and the carry-free rule of the module docstring
    decides that for all fields of an entry at once: with q, r =
    divmod(x + lift, m), they all are exactly when r and q & high are 0.
    One verify_identity per first entry keeps an early exit.
    """
    if not a.is_square:
        raise NotSquare(f"square matrix required, got {a.rows}x{a.cols}")
    n = a.rows
    m = len(_enumerable_values(a.ring, n))
    return _every_b_holds(a.data, m, _spot_check_packing(m, n))


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

    The for-every-B side has the unit-probe residual entries: in row x != j,
    the residual of the probe with its unit at (l, j) is
    a_xl row_j(A) - a_jl row_x(A), and in row j it is zero.  The minor side
    has the 2x2 minors a_ik a_jl - a_il a_jk.  Each side is a pair: its
    forms on the first n-1 rows, (a, b, c, d, e, f, g, h) standing for
    r[a][b] r[c][d] - r[e][f] r[g][h] on A's rows r, and its forms that use
    the last row, once in each product, (p, q, s, p2, q2, s2) standing for
    r[p][q] r[n-1][s] - r[p2][q2] r[n-1][s2].
    """
    pairs = list(itertools.combinations(range(n), 2))
    probes = [(x, l, j, c, j, l, x, c) for l, j, x, c in itertools.product(range(n), repeat=4) if x != j]
    minors = [(i, k, j, l, i, l, j, k) for i, j in pairs for k, l in pairs]

    def split(a, b, c, d):
        # r[a][b] r[c][d] as its factor on the first rows and its column on the last row
        return (c, d, b) if a == n - 1 else (a, b, d)

    # a form uses the last row when one of its row indices a, c, e, g is n - 1
    return tuple(
        (tuple(f for f in side if n - 1 not in f[::2]),
         tuple(split(*f[:4]) + split(*f[4:]) for f in side if n - 1 in f[::2]))
        for side in (probes, minors)
    )


def _block_fails(r, table, decide) -> tuple[bytes, bytes]:
    """Both sides of a block: byte t of each is 1 iff matrix t fails that side.

    r holds A's first n-1 rows as ints, then the residue table.  decide
    turns one side's values into the block's bytes: a form on the first
    rows has its value over Z, and a form on the last row the xor of two
    residue table entries, whose byte t is 0 iff the form is 0 mod m on
    matrix t.  The for-every-B side comes first, then the minor side.
    """
    residues = r[-1]
    return tuple(
        decide([r[a][b] * r[c][d] - r[e][f] * r[g][h] for a, b, c, d, e, f, g, h in const],
               [residues[r[p][q]][s] ^ residues[r[p2][q2]][s2] for p, q, s, p2, q2, s2 in last])
        for const, last in table
    )


def exhaustive_characterization(ring: Ring, n: int) -> EquivalenceReport:
    """Enumerate every A over a small finite ring and cross-classify it.

    The matrices come in blocks of m^n that share their first n-1 rows, in
    enumeration order, and each block is decided on both sides at once: the
    for-every-B side on the n^2 unit probes, the minor side on the minors.
    A form on the first rows alone is one value for the whole block; a form
    on the last row compares two bytes of the residue table per matrix, by
    the xor rule of the module docstring.  Every SPOT_CHECK_EVERY-th matrix
    (the first included) also runs the full-B enumeration, which must agree
    with its probe decision.  The residue table and the packing of the spot
    checks are built once per call.
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
    all_fail = b"\x01" * block

    def decide(const, last):
        # byte t is 1 iff some form is nonzero mod m on matrix t; a form on
        # the first rows has one value for the whole block
        if any(v % m for v in const):
            return all_fail
        flags = 0
        for x in last:
            flags |= x
        return flags.to_bytes(block, "little").translate(_ONE_IF_NONZERO)

    table = _form_table(n)  # counted as two multiplications and a subtraction per form value
    form_values = sum(len(const) + len(last) * block for const, last in table)
    # byte t of residues[u][s] is u times entry s of matrix t's last row, mod m
    residues = tuple(_packed_digits([u * v % m for v in values], n, 1) for u in values)
    spot = _spot_check_packing(m, n)
    all_rows = list(itertools.product(values, repeat=n))
    ident_count = minors_count = 0
    mismatches: list[Matrix] = []
    for index, prefix in enumerate(itertools.product(all_rows, repeat=n - 1)):
        _bump(2 * form_values, form_values)
        fails, unstructured = _block_fails(prefix + (residues,), table, decide)
        for t in range(-index * block % SPOT_CHECK_EVERY, block, SPOT_CHECK_EVERY):
            rows = prefix + (all_rows[t],)
            if (not fails[t]) != _every_b_holds(rows, m, spot):
                a = Matrix(ring, rows)
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
