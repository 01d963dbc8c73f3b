import os
import random
import subprocess
import sys

import pytest

import minortrace
from minortrace import (
    Matrix,
    ModularRing,
    PrimeFieldRing,
    TooLargeToEnumerate,
    TooSmall,
    check_vanishing_minors,
    count_ops,
    exhaustive_characterization,
    iter_all_matrices,
    random_matrix,
    universal_identity_by_enumeration,
    universal_identity_via_probes,
    verify_identity,
)
from minortrace import oracle
from support import INT, rand_structured, universal_identity_per_b


def mat(rows, ring=INT):
    return Matrix.from_rows(ring, rows)


def test_verify_identity_examples():
    assert verify_identity(mat([[3, 4], [6, 8]]), mat([[1, 2], [0, 1]])).is_zero()
    eye = Matrix.identity(INT, 2)
    assert verify_identity(eye, eye) == -eye  # I I I - Tr(I) I = -I over Z


def test_verify_identity_forms_two_products():
    n = 12
    rng = random.Random(97)
    a = random_matrix(rng, INT, n, n)
    b = random_matrix(rng, INT, n, n)
    with count_ops() as ops:
        residual = verify_identity(a, b)
    assert ops.mul == 2 * n**3 + n * n  # A @ B, (A @ B) @ A, then Tr(AB) * A
    ab = a @ b
    assert verify_identity(a, b, ab=ab, aba=ab @ a) == residual


def test_verify_identity_n1_is_always_zero(ring):
    rng = random.Random(83)
    for _ in range(200):
        a = random_matrix(rng, ring, 1, 1)
        b = random_matrix(rng, ring, 1, 1)
        assert verify_identity(a, b).is_zero()


def test_verify_identity_on_structured(ring):
    rng = random.Random(89)
    for _ in range(200):
        n = rng.randint(2, 6)
        a = rand_structured(rng, ring, n)
        b = random_matrix(rng, ring, n, n)
        assert verify_identity(a, b).is_zero()


def test_universal_probes_examples():
    assert universal_identity_via_probes(mat([[3, 4], [6, 8]]))
    assert not universal_identity_via_probes(Matrix.identity(INT, 2))
    assert universal_identity_via_probes(Matrix.zero(INT, 3, 3))


def test_probe_decision_equals_full_enumeration_exhaustively():
    # every A over Z/2 (n = 2, 3), Z/3 and Z/4 (n = 2): the unit probes and
    # the packed full-B check both equal the residual of each B in turn
    for ring, n in ((ModularRing(2), 2), (ModularRing(2), 3), (ModularRing(3), 2), (ModularRing(4), 2)):
        for a in iter_all_matrices(ring, n):
            want = universal_identity_per_b(a)
            assert universal_identity_via_probes(a) == want
            assert universal_identity_by_enumeration(a) == want


@pytest.mark.parametrize("ring", [ModularRing(6), PrimeFieldRing(5)], ids=str)
def test_packed_full_b_check_equals_per_b_on_a_sample(ring):
    rng = random.Random(61)
    sample = [rand_structured(rng, ring, 2) for _ in range(12)]
    sample += [random_matrix(rng, ring, 2, 2) for _ in range(12)]
    sample += [Matrix.zero(ring, 2, 2), Matrix.identity(ring, 2)]
    if ring == ModularRing(6):
        # det -12: minors vanish mod 6 but not over Z; 3 times the all-ones matrix
        sample += [mat([[2, 3], [4, 0]], ring), mat([[3, 3], [3, 3]], ring)]
    for a in sample:
        assert universal_identity_by_enumeration(a) == universal_identity_per_b(a)


def test_packed_full_b_check_at_the_widest_fields():
    # Z/31 at n = 2 is the largest modulus the budget enumerates, so its
    # residual fields, up to 4 * 30^3 in size, need the widest packing
    ring = ModularRing(31)
    assert universal_identity_by_enumeration(mat([[30, 30], [30, 30]], ring))
    # det = 30 * 25 - 29 * 28 = -62: structured mod 31, not over Z
    assert universal_identity_by_enumeration(mat([[30, 29], [28, 25]], ring))
    assert not universal_identity_by_enumeration(mat([[30, 30], [30, 29]], ring))
    assert not universal_identity_by_enumeration(mat([[1, 0], [0, 30]], ring))


def test_packed_full_b_check_multiplication_count():
    # one verify_identity per first row of B: m^n (2n^3 + n^2) multiplications,
    # against m^(n^2) (2n^3 + n^2) = 25920 for one call per B
    ring, n = ModularRing(6), 2
    a = rand_structured(random.Random(67), ring, n)
    with count_ops() as ops:
        assert universal_identity_by_enumeration(a)
    assert ops.mul <= 6**n * (2 * n**3 + n * n) == 720


def test_spot_check_catches_a_wrong_probe_decision(monkeypatch):
    real = oracle.universal_identity_via_probes
    calls = []

    def wrong_on_the_second_spot_check(a):
        calls.append(a)
        holds = real(a)
        return not holds if len(calls) == oracle.SPOT_CHECK_EVERY + 1 else holds

    monkeypatch.setattr(oracle, "universal_identity_via_probes", wrong_on_the_second_spot_check)
    with pytest.raises(RuntimeError, match="disagrees with full enumeration"):
        exhaustive_characterization(ModularRing(4), 2)
    assert len(calls) == oracle.SPOT_CHECK_EVERY + 1


def test_exhaustive_mod2_n2_pinned_counts():
    report = exhaustive_characterization(ModularRing(2), 2)
    # 16 matrices; 6 invertible ones (|GL2(F2)|) are the only minors
    # violators over a field, leaving 10 structured
    assert report.total == 16
    assert report.set_identity == 10
    assert report.set_minors == 10
    assert report.agree
    assert report.mismatches == ()


def test_exhaustive_mod4_n2():
    report = exhaustive_characterization(ModularRing(4), 2)
    assert report.total == 256
    assert report.agree
    # the structured set strictly contains nonzero matrices like [[2,0],[0,2]]
    special = Matrix.from_rows(ModularRing(4), [[2, 0], [0, 2]])
    assert check_vanishing_minors(special).structured
    assert universal_identity_via_probes(special)
    zero_count = 1
    assert report.set_minors > zero_count


def test_exhaustive_is_deterministic():
    a = exhaustive_characterization(ModularRing(3), 2)
    b = exhaustive_characterization(ModularRing(3), 2)
    assert a == b


def test_exhaustive_accepts_prime_fields():
    report = exhaustive_characterization(PrimeFieldRing(2), 2)
    assert report.total == 16 and report.agree


def test_enumeration_guards():
    with pytest.raises(TooLargeToEnumerate):
        exhaustive_characterization(ModularRing(2), 5)  # 2^25 > 10^6
    with pytest.raises(TooLargeToEnumerate):
        exhaustive_characterization(INT, 2)
    with pytest.raises(TooSmall):
        exhaustive_characterization(ModularRing(2), 1)


def test_exhaust_small_rings_script_default_configs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "scripts", "exhaust_small_rings.py")
    src = os.path.dirname(os.path.dirname(minortrace.__file__))
    proc = subprocess.run(
        [sys.executable, script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    configs = ["mod:2,2", "mod:2,3", "mod:3,2", "mod:4,2", "mod:5,2", "gf:3,2", "mod:6,2", "gf:5,2"]
    assert len(lines) == len(configs)
    for config, line in zip(configs, lines):
        spec, _, n = config.rpartition(",")
        assert line.lstrip().startswith(f"{spec} n={n}:") and line.endswith("agree=True")
