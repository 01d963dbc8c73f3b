import ast
import inspect
import json
import random
import time

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
    random_matrix,
    universal_identity_by_enumeration,
    verify_identity,
)
from minortrace import cli, kernels, oracle, rings, structure
from support import (
    INT,
    exhaustive_characterization_per_matrix,
    iter_all_matrices,
    rand_structured,
    universal_identity_per_b,
    universal_identity_via_probes,
)


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


def test_packed_full_b_check_at_the_widest_fields(monkeypatch):
    # Z/31 at n = 2 is the largest modulus the budget enumerates, so its
    # residual fields, up to 4 * 30^3 in size, need the widest packing: 4
    # bytes with word codes, 3 unrounded bytes cut from the bytes without
    ring = ModularRing(31)
    for word_codes in (True, False):
        with monkeypatch.context() as patch:
            if not word_codes:
                patch.setattr(rings, "_WORD_CODES", {})
            assert universal_identity_by_enumeration(mat([[30, 30], [30, 30]], ring))
            # det = 30 * 25 - 29 * 28 = -62: structured mod 31, not over Z
            assert universal_identity_by_enumeration(mat([[30, 29], [28, 25]], ring))
            assert not universal_identity_by_enumeration(mat([[30, 30], [30, 29]], ring))
            assert not universal_identity_by_enumeration(mat([[1, 0], [0, 30]], ring))


def test_packed_full_b_check_multiplication_count():
    # one verify_identity per first entry of B: m (2n^3 + n^2) multiplications,
    # against m^(n^2) (2n^3 + n^2) = 25920 for one call per B
    ring, n = ModularRing(6), 2
    a = rand_structured(random.Random(67), ring, n)
    with count_ops() as ops:
        assert universal_identity_by_enumeration(a)
    assert ops.mul <= 6 * (2 * n**3 + n * n) == 120


def corrupt_probe_side(monkeypatch, block, flip):
    """Negate the sweep's probe decision at the enumeration indices in flip;
    the sweep decides one block of `block` matrices per call, in order."""
    real = oracle._block_fails
    calls = []

    def corrupted(rows, table, decide):
        base = len(calls) * block
        calls.append(rows)
        fails, unstructured = real(rows, table, decide)
        fails = bytearray(fails)
        for index in flip:
            if base <= index < base + block:
                fails[index - base] ^= 1
        return bytes(fails), unstructured

    monkeypatch.setattr(oracle, "_block_fails", corrupted)
    return calls


def test_spot_check_catches_a_wrong_probe_decision(monkeypatch):
    block = 4**2
    calls = corrupt_probe_side(monkeypatch, block, {oracle.SPOT_CHECK_EVERY})
    with pytest.raises(RuntimeError, match="disagrees with full enumeration"):
        exhaustive_characterization(ModularRing(4), 2)
    assert len(calls) == oracle.SPOT_CHECK_EVERY // block + 1


SWEEP_CONFIGS = [(ModularRing(m), 2) for m in (2, 3, 4, 5, 6, 8, 12)]
SWEEP_CONFIGS += [(PrimeFieldRing(p), 2) for p in (2, 3, 5)]
SWEEP_CONFIGS += [(ModularRing(2), 3), (PrimeFieldRing(2), 3)]
# without word codes the fields are cut from the bytes one by one
NO_WORD_CODES = [(ModularRing(3), 2), (ModularRing(12), 2), (PrimeFieldRing(2), 3)]
SWEEP_PARAMS = [pytest.param(ring, n, True, id=f"{ring}-{n}") for ring, n in SWEEP_CONFIGS]
SWEEP_PARAMS += [
    pytest.param(ring, n, False, id=f"{ring}-{n}-no-word-codes") for ring, n in NO_WORD_CODES
]


@pytest.mark.parametrize("ring, n, word_codes", SWEEP_PARAMS)
def test_sweep_equals_the_per_matrix_reference(ring, n, word_codes, monkeypatch):
    # Z/12's lifted fields take two bytes (2 * 132 >= 256); the others take one
    if not word_codes:
        monkeypatch.setattr(rings, "_WORD_CODES", {})
    assert exhaustive_characterization(ring, n) == exhaustive_characterization_per_matrix(ring, n)


def test_sweep_reports_wrong_probe_decisions_as_mismatches(monkeypatch):
    ring, n = ModularRing(4), 2
    # twelve indices, none a spot-check index, in more than one block
    flip = {3, 17, 18, 40, 41, 99, 101, 150, 199, 201, 230, 255}
    corrupt_probe_side(monkeypatch, 4**n, flip)
    report = exhaustive_characterization(ring, n)
    assert report == exhaustive_characterization_per_matrix(ring, n, flip)
    honest = exhaustive_characterization_per_matrix(ring, n)
    matrices = list(iter_all_matrices(ring, n))
    assert not report.agree
    assert report.set_minors == honest.set_minors
    gained = sum(1 - 2 * universal_identity_via_probes(matrices[i]) for i in flip)
    assert report.set_identity == honest.set_identity + gained
    assert report.mismatches == tuple(matrices[i] for i in sorted(flip)[: oracle.MISMATCH_CAP])


def test_sweep_counts_two_multiplications_and_a_subtraction_per_form_value(monkeypatch):
    # only the zero matrix, the first, is spot-checked, by a stand-in that
    # counts nothing
    monkeypatch.setattr(oracle, "SPOT_CHECK_EVERY", 10**9)
    monkeypatch.setattr(oracle, "universal_identity_by_enumeration", lambda a: a.is_zero())
    for m, n in ((3, 3), (4, 2)):
        # forms per block, counted by hand: minors (i, j, k, l) and probe
        # residual entries (l, j, x, c), x != j; one value per block for a
        # form on the first n - 1 rows, one per matrix for a form on the last
        pairs = n * (n - 1) // 2
        const = (pairs - n + 1) * pairs + (n - 1) * (n - 2) * n * n
        packed = (n - 1) * pairs + 2 * (n - 1) * n * n
        values = m ** (n * (n - 1)) * (const + packed * m**n)
        with count_ops() as ops:
            assert exhaustive_characterization(ModularRing(m), n).agree
        assert (ops.mul, ops.add) == (2 * values, values)


def test_oracle_binds_nothing_of_the_certificate_or_the_kernels():
    # an oracle stays independent of the code it checks: it takes nothing
    # from kernels or structure
    for mod in (structure, kernels):
        own = [v for v in vars(mod).values() if getattr(v, "__module__", None) == mod.__name__]
        bound = {name for name, v in vars(oracle).items() if v is mod or any(v is o for o in own)}
        assert bound == set(), mod.__name__
    # nor does an import inside a function
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        source = getattr(node, "module", None) or ""  # only ImportFrom nodes have one
        assert source.rpartition(".")[2] not in ("structure", "kernels"), source


def rank_at_most_one_count(m, n):
    """n x n matrices over a squarefree Z/m whose 2x2 minors all vanish.

    Over GF(q) they are 0 and the rank-1 matrices u v^T: (q^n - 1)^2 pairs
    of nonzero u and v, q - 1 of them per matrix, so 1 + (q^n - 1)^2 / (q - 1)
    in all; over Z/m, by CRT, the product of that over the primes of m.
    """
    count, q = 1, 2
    while m > 1:
        if m % q == 0:
            m //= q
            assert m % q, "squarefree moduli only"
            count *= 1 + (q**n - 1) ** 2 // (q - 1)
        q += 1
    return count


@pytest.mark.parametrize(
    "ring, n, count",
    [
        (ModularRing(2), 2, 10),
        (ModularRing(3), 2, 33),
        (ModularRing(5), 2, 145),
        (ModularRing(6), 2, 330),
        (PrimeFieldRing(7), 2, 385),
        (ModularRing(10), 2, 1450),
        (ModularRing(2), 3, 50),
    ],
    ids=str,
)
def test_exhaustive_counts_match_the_closed_form(ring, n, count):
    m = ring.modulus if isinstance(ring, ModularRing) else ring.p
    assert rank_at_most_one_count(m, n) == count
    report = exhaustive_characterization(ring, n)
    assert report.set_minors == report.set_identity == count


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


class _SweepStarted(Exception):
    pass


def _refusal(monkeypatch, ring, n):
    """The TooLargeToEnumerate message for (ring, n), or None when the sweep would start."""
    def started(*args):
        raise _SweepStarted

    monkeypatch.setattr(oracle, "_block_fails", started)
    try:
        exhaustive_characterization(ring, n)
    except TooLargeToEnumerate as exc:
        return str(exc)
    except _SweepStarted:
        return None


def test_the_work_budget_refuses_exactly_these_configurations(monkeypatch):
    # every configuration the 10^6 matrix count accepts, and which of them
    # the work of the spot checks refuses: Z/17..Z/31 at n = 2, Z/4 at n = 3
    moved = []
    for n, top in ((2, 31), (3, 4), (4, 2)):
        for m in range(2, top + 1):
            for ring in [ModularRing(m), PrimeFieldRing(m)] if rings.is_prime(m) else [ModularRing(m)]:
                message = _refusal(monkeypatch, ring, n)
                if message is not None:
                    assert message.endswith(f" exceed the {oracle.WORK_BUDGET} work budget")
                    moved.append((str(ring), n))
    want = [(f"Z/{m}", 2) for m in range(17, 32)] + [(f"GF({p})", 2) for p in (17, 19, 23, 29, 31)]
    assert sorted(moved) == sorted(want + [("Z/4", 3)])
    # the matrix count still refuses first, with its own message
    assert _refusal(monkeypatch, ModularRing(32), 2) == "32^4 matrices exceed the 1000000 budget"
    assert _refusal(monkeypatch, ModularRing(5), 3) == "5^9 matrices exceed the 1000000 budget"


@pytest.mark.parametrize("spec, n", [("mod:17", "2"), ("gf:31", "2"), ("mod:4", "3")])
def test_exhaust_past_the_work_budget_exits_2_at_once(capsys, spec, n):
    start = time.perf_counter()
    code = cli.main(["exhaust", "--ring", spec, "--n", n])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and err.endswith(" work budget\n")
    assert elapsed < 0.1


def test_the_slowest_accepted_sweeps_answer_in_seconds():
    # Z/16 at n = 2 and Z/2 at n = 4 do the most work the budget accepts
    for m, n in ((16, 2), (2, 4)):
        start = time.perf_counter()
        report = exhaustive_characterization(ModularRing(m), n)
        elapsed = time.perf_counter() - start
        print(f"exhaust Z/{m} at n = {n}: {elapsed:.2f} s")
        assert report.agree and report.total == m ** (n * n)
        assert elapsed < 60


def test_exhaust_small_rings_script_default_configs(capsys):
    # the configurations of the README's loop over `minortrace exhaust`
    for config in ["mod:2,2", "mod:2,3", "mod:3,2", "mod:4,2", "mod:5,2", "gf:3,2", "mod:6,2", "gf:5,2",
                   "mod:8,2", "mod:10,2"]:
        spec, _, n = config.rpartition(",")
        assert cli.main(["exhaust", "--ring", spec, "--n", n]) == 0, config
        report = json.loads(capsys.readouterr().out)
        m = int(spec.partition(":")[2])
        assert report["agree"] is True and report["total"] == m ** (int(n) ** 2), config
