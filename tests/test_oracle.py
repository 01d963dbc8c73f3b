import random

import pytest

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
from support import INT, rand_structured


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
    # every A over Z/2 (n = 2, 3) and Z/3 (n = 2)
    for ring, n in ((ModularRing(2), 2), (ModularRing(2), 3), (ModularRing(3), 2)):
        for a in iter_all_matrices(ring, n):
            assert universal_identity_via_probes(a) == universal_identity_by_enumeration(a)


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


def test_exhaustive_probe_and_enumeration_paths_agree():
    for ring in (ModularRing(2), ModularRing(3)):
        for a in iter_all_matrices(ring, 2):
            assert universal_identity_via_probes(a) == universal_identity_by_enumeration(a)


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
