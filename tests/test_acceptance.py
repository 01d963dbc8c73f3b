"""Acceptance sweep: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic, so every tolerance is exact equality; the
bulk criteria additionally pin their case counts and runtime budgets.
Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import random
import time

from minortrace import (
    IntegerRing,
    Matrix,
    ModularRing,
    OuterFactors,
    PolynomialRing,
    PrimeFieldRing,
    cayley_hamilton_2x2,
    check_corollaries,
    check_vanishing_minors,
    count_ops,
    decompose,
    det_small,
    exhaustive_characterization,
    gen_structured,
    induction_equalities,
    matrix_unit,
    naive_aba,
    outer,
    probe_converse,
    random_matrix,
    run_bench,
    structured_aba,
    trace_product_via_outer,
    verify_identity,
)

INT = IntegerRing()
RINGS = [INT, ModularRing(4), ModularRing(97), PrimeFieldRing(5), PolynomialRing(INT)]


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {label}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def _linear_poly_vector(rng, ring, rows, cols):
    # keeps polynomial entries linear so products stay small
    return Matrix.from_rows(
        ring,
        [[[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(cols)] for _ in range(rows)],
    )


def _random_mat(rng, ring, rows, cols):
    if isinstance(ring, PolynomialRing):
        return _linear_poly_vector(rng, ring, rows, cols)
    return random_matrix(rng, ring, rows, cols)


def _structured(rng, ring, n):
    """Outer-mode generation everywhere; nilscalar mixed in where it exists."""
    if isinstance(ring, ModularRing) and ring.modulus == 4 and rng.random() < 0.5:
        return gen_structured(rng.getrandbits(32), ring, n, "nilscalar")
    return outer(_random_mat(rng, ring, n, 1), _random_mat(rng, ring, 1, n))


def test_criterion_1_forward_identity_randomized():
    start = time.perf_counter()
    rng = random.Random(0xC1)
    cases = 0
    failures = 0
    for ring in RINGS:
        for _ in range(2_000):
            n = rng.randint(2, 12)
            a = _structured(rng, ring, n)
            b = _random_mat(rng, ring, n, n)
            if not verify_identity(a, b).is_zero():
                failures += 1
            cases += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "forward identity on structured inputs",
        failures == 0 and cases == 10_000 and elapsed < 60,
        f"{cases} cases, {failures} failures, {elapsed:.1f}s",
    )


def test_criterion_2_exhaustive_equivalence():
    start = time.perf_counter()
    r22 = exhaustive_characterization(ModularRing(2), 2)
    ok = r22.agree and r22.total == 16 and r22.set_identity == 10 and r22.set_minors == 10
    r23 = exhaustive_characterization(ModularRing(2), 3)
    ok = ok and r23.agree and r23.total == 512
    r32 = exhaustive_characterization(ModularRing(3), 2)
    ok = ok and r32.agree and r32.total == 81
    r42 = exhaustive_characterization(ModularRing(4), 2)
    ok = ok and r42.agree and r42.total == 256
    elapsed = time.perf_counter() - start
    _report(
        2,
        "exhaustive identity-vs-minors equivalence",
        ok and elapsed < 120,
        f"Z/2 n=2: {r22.set_identity}/{r22.total}; Z/2 n=3; Z/3 n=2; Z/4 n=2; {elapsed:.1f}s",
    )


def test_criterion_3_probe_soundness_and_completeness():
    checked = 0
    exceptions = 0
    for m in (2, 3):
        ring = ModularRing(m)
        for n in (2, 3):
            for entries in itertools.product(range(m), repeat=n * n):
                a = Matrix(ring, tuple(entries[r * n : (r + 1) * n] for r in range(n)))
                structured = check_vanishing_minors(a).structured
                report = probe_converse(a)
                checked += 1
                if report.structured != structured:
                    exceptions += 1
                    continue
                if report.structured:
                    continue
                w = report.witness
                e = matrix_unit(ring, n, w.unit_row, w.unit_col)
                lhs_m = naive_aba(a, e)
                rhs_m = a.scale((a @ e).trace())
                if lhs_m == rhs_m:
                    exceptions += 1
                elif (
                    lhs_m.entry(w.entry_row, w.entry_col) != w.lhs
                    or rhs_m.entry(w.entry_row, w.entry_col) != w.rhs
                    or w.lhs == w.rhs
                ):
                    exceptions += 1
    _report(
        3,
        "converse probe soundness and completeness",
        exceptions == 0 and checked == 16 + 512 + 81 + 19_683,
        f"{checked} matrices, {exceptions} exceptions",
    )


def test_criterion_4_induction_residuals():
    rng = random.Random(0xC4)
    failures = 0
    cases = 0
    for ring in RINGS:
        for _ in range(2_000):
            n = rng.randint(2, 8)
            a = _structured(rng, ring, n)
            b = _random_mat(rng, ring, n, n)
            if not induction_equalities(a, b).all_zero():
                failures += 1
            cases += 1
    eye = Matrix.identity(INT, 2)
    violation = induction_equalities(eye, eye)
    _report(
        4,
        "block equalities vanish on structured pairs",
        failures == 0 and cases == 10_000 and violation.r4.value == -1,
        f"{cases} cases, identity-matrix r4 = {violation.r4.value}",
    )


def test_criterion_5_outer_trace_shortcut_and_outer_determinants():
    rng = random.Random(0xC5)
    failures = 0
    cases = 0
    for _ in range(10_000):
        ring = RINGS[cases % len(RINGS)]
        n = rng.randint(1, 10)
        c = _random_mat(rng, ring, n, 1)
        r = _random_mat(rng, ring, 1, n)
        b = _random_mat(rng, ring, n, n)
        if trace_product_via_outer(OuterFactors(c, r), b) != (outer(c, r) @ b).trace():
            failures += 1
        cases += 1
    det_failures = 0
    det_cases = 0
    scalar_rings = [r for r in RINGS if not isinstance(r, PolynomialRing)]
    for n in range(1, 9):
        reps = 150 if n <= 6 else (60 if n == 7 else 40)
        rings = RINGS if n <= 4 else scalar_rings
        for i in range(reps):
            ring = rings[i % len(rings)]
            prod = outer(_random_mat(rng, ring, n, 1), _random_mat(rng, ring, 1, n))
            if n >= 2 and not det_small(prod).is_zero():
                det_failures += 1
            det_cases += 1
    _report(
        5,
        "trace shortcut and outer-product determinants",
        failures == 0 and cases == 10_000 and det_failures == 0,
        f"{cases} trace cases, {det_cases} determinant cases",
    )


def test_criterion_6_corollaries_and_converse_caution():
    rng = random.Random(0xC6)
    failures = 0
    cases = 0
    for ring in RINGS:
        for _ in range(2_000):
            n = rng.randint(2, 8) if not isinstance(ring, PolynomialRing) else rng.randint(2, 6)
            a = _structured(rng, ring, n)
            b = _random_mat(rng, ring, n, n)
            if not check_corollaries(a, b).all_zero():
                failures += 1
            cases += 1

    ch_failures = 0
    for i in range(10_000):
        ring = RINGS[i % len(RINGS)]
        if not cayley_hamilton_2x2(_random_mat(rng, ring, 2, 2)).is_zero():
            ch_failures += 1

    # recorded counterexample: (AB)^2 = Tr(AB) AB holds, yet A has minor 1
    ring = ModularRing(2)
    a = Matrix.from_rows(ring, [[0, 1], [1, 0]])
    b = Matrix.from_rows(ring, [[0, 0], [0, 1]])
    ab = a @ b
    counterexample_ok = (
        not check_vanishing_minors(a).structured
        and not b.is_zero()
        and ab @ ab == ab.scale(ab.trace())
    )
    _report(
        6,
        "corollary residuals, Cayley-Hamilton, converse caution",
        failures == 0 and cases == 10_000 and ch_failures == 0 and counterexample_ok,
        f"{cases} corollary cases, 10000 CH cases",
    )


def test_criterion_7_decomposition_round_trips():
    rng = random.Random(0xC7)
    singular = [
        Matrix.zero(INT, 2, 2),
        Matrix.from_rows(INT, [[0, 0], [3, 5]]),
        Matrix.from_rows(INT, [[3, 5], [0, 0]]),
        Matrix.from_rows(INT, [[0, 3], [0, 5]]),
        Matrix.from_rows(INT, [[4, 0], [6, 0]]),
    ]
    while len(singular) < 500:
        c = random_matrix(rng, INT, 2, 1, bound=20)
        r = random_matrix(rng, INT, 1, 2, bound=20)
        singular.append(outer(c, r))
    gcd_failures = sum(
        1 for a in singular if decompose(a).product() != a
    )

    field_failures = 0
    field_cases = 0
    for p in (5, 97):
        ring = PrimeFieldRing(p)
        for _ in range(250):
            n = rng.randint(1, 6)
            a = gen_structured(rng.getrandbits(32), ring, n, "outer")
            f = decompose(a)
            if f is None or f.product() != a:
                field_failures += 1
            field_cases += 1
    _report(
        7,
        "column-row decompositions round-trip",
        gcd_failures == 0 and len(singular) == 500 and field_failures == 0 and field_cases == 500,
        f"500 integer 2x2, {field_cases} prime-field cases",
    )


def test_criterion_8_performance_sign_check():
    start = time.perf_counter()
    n = 256
    result = run_bench(n, reps=5, seed=0)
    ring = ModularRing(2**61 - 1)
    rng = random.Random(0)
    a = outer(random_matrix(rng, ring, n, 1), random_matrix(rng, ring, 1, n))
    b = random_matrix(rng, ring, n, n)
    with count_ops() as fast_counts:
        fast = structured_aba(a, b, check=False)
    with count_ops() as naive_counts:
        slow = naive_aba(a, b)
    elapsed = time.perf_counter() - start
    _report(
        8,
        "O(n^2) kernel beats O(n^3) oracle",
        result.speedup >= 5
        and result.agreement_checked
        and fast == slow
        and fast_counts.mul <= 3 * n * n + 10 * n
        and naive_counts.mul >= 2 * n**3
        and elapsed < 60,
        f"speedup {result.speedup:.0f}x, fast muls {fast_counts.mul} <= {3 * n * n + 10 * n}, "
        f"naive muls {naive_counts.mul} >= {2 * n**3}, {elapsed:.1f}s",
    )


def test_criterion_9_order_one_is_unconditional():
    rng = random.Random(0xC9)
    failures = 0
    cases = 0
    for ring in RINGS:
        for _ in range(200):
            a = _random_mat(rng, ring, 1, 1)
            b = _random_mat(rng, ring, 1, 1)
            if not verify_identity(a, b).is_zero():
                failures += 1
            cases += 1
    _report(9, "n = 1 identity needs no hypothesis", failures == 0 and cases == 1_000,
            f"{cases} cases")
