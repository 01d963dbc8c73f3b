import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import minortrace
from minortrace import Matrix, ModularRing, count_ops
from minortrace.cli import main
from minortrace.serialize import dumps, matrix_from_obj, matrix_to_obj
from support import INT


def write_matrix(path, rows, ring=INT):
    path.write_text(dumps(matrix_to_obj(Matrix.from_rows(ring, rows))))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "a": write_matrix(tmp_path / "a.json", [[3, 4], [6, 8]]),
        "b": write_matrix(tmp_path / "b.json", [[1, 2], [0, 1]]),
        "i2": write_matrix(tmp_path / "i2.json", [[1, 0], [0, 1]]),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_check_structured(files, capsys):
    code, payload, _ = run(capsys, "check", files["a"])
    assert code == 0
    assert payload == {"structured": True}


def test_check_witness_is_one_based(files, capsys):
    code, payload, err = run(capsys, "check", files["i2"])
    assert code == 1
    assert payload["structured"] is False
    assert payload["witness"] == {"rows": [1, 2], "cols": [1, 2], "value": "1"}
    assert "(1,2)" in err


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, payload, err = run(capsys, "check", str(bad))
    assert code == 2 and payload is None and "error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/matrix.json")
    assert code == 2 and "error" in err


def test_check_reads_stdin(files, capsys, monkeypatch):
    text = open(files["a"]).read()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, payload, _ = run(capsys, "check")
    assert code == 0 and payload == {"structured": True}


def test_verify_both_agreement(files, capsys):
    code, payload, _ = run(capsys, "verify", files["a"], files["b"], "--both")
    assert code == 0
    assert payload["agree"] is True
    assert payload["fast"]["rows"] == [["69", "92"], ["138", "184"]]


def test_verify_naive_violation(files, capsys):
    code, payload, _ = run(capsys, "verify", files["i2"], files["i2"], "--naive")
    assert code == 1
    assert payload["residual_zero"] is False
    assert payload["residual"]["rows"] == [["-1", "0"], ["0", "-1"]]


def test_verify_fast_requires_structure(files, capsys):
    code, payload, _ = run(capsys, "verify", files["i2"], files["b"], "--fast")
    assert code == 3
    w = payload["witness"]
    assert w["minor_rows"] == [1, 2] and w["minor_cols"] == [1, 2]
    assert w["unit_row"] == 2 and w["unit_col"] == 2
    assert w["lhs"] == "0" and w["rhs"] == "1"


def test_verify_fast_env_override(files, capsys, monkeypatch):
    # skipping the certificate would print Tr(AB) A, a wrong answer, so no
    # setting of MINORTRACE_CHECK may switch it off
    calls = [["verify", files["i2"], files["b"], "--fast"], ["power", files["i2"], "3"]]
    monkeypatch.delenv("MINORTRACE_CHECK", raising=False)
    unset = [run(capsys, *argv) for argv in calls]
    monkeypatch.setenv("MINORTRACE_CHECK", "0")
    switched_off = [run(capsys, *argv) for argv in calls]
    assert switched_off == unset
    for code, payload, err in switched_off:
        assert code == 3 and payload["witness"]["minor_rows"] == [1, 2]
        assert err.startswith("structure precondition failed")


def test_verify_fast_structured(files, capsys):
    code, payload, _ = run(capsys, "verify", files["a"], files["b"], "--fast")
    assert code == 0
    assert payload["result"]["rows"] == [["69", "92"], ["138", "184"]]


def test_verify_ring_mismatch(files, capsys, tmp_path):
    m = write_matrix(tmp_path / "m.json", [[1, 0], [0, 1]], ModularRing(4))
    code, _, err = run(capsys, "verify", files["a"], m, "--naive")
    assert code == 2 and "error" in err


def test_probe_witness(files, capsys):
    code, payload, _ = run(capsys, "probe", files["i2"])
    assert code == 1
    assert payload["witness"]["entry_row"] == 1 and payload["witness"]["entry_col"] == 1


def test_probe_structured(files, capsys):
    code, payload, _ = run(capsys, "probe", files["a"])
    assert code == 0 and payload == {"structured": True}


def test_power_example(files, capsys):
    code, payload, _ = run(capsys, "power", files["a"], "3")
    assert code == 0
    assert payload["rows"] == [["363", "484"], ["726", "968"]]


def test_power_precondition(files, capsys):
    code, payload, _ = run(capsys, "power", files["i2"], "2")
    assert code == 3 and "witness" in payload


def test_power_bad_exponent(files, capsys):
    code, _, err = run(capsys, "power", files["a"], "0")
    assert code == 2


def test_decompose_integer_2x2(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", [[6, 10], [9, 15]])
    code, payload, _ = run(capsys, "decompose", path)
    assert code == 0
    assert payload["factors"]["col"]["rows"] == [["2"], ["3"]]
    assert payload["factors"]["row"]["rows"] == [["3", "5"]]


def test_decompose_field_full_rank_absent(tmp_path, capsys):
    from minortrace import PrimeFieldRing

    path = write_matrix(tmp_path / "m.json", [[1, 0], [0, 1]], PrimeFieldRing(3))
    code, payload, _ = run(capsys, "decompose", path)
    assert code == 1 and payload == {"factors": None}


def test_decompose_rejects_nonsingular_integer(files, capsys):
    code, _, err = run(capsys, "decompose", files["i2"])
    assert code == 2 and "error" in err


def test_decompose_rejects_unsupported_ring(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", [[0, 0], [0, 0]], ModularRing(4))
    code, _, err = run(capsys, "decompose", path)
    assert code == 2


def test_exhaust_mod2(capsys):
    code, payload, _ = run(capsys, "exhaust", "--ring", "mod:2", "--n", "2")
    assert code == 0
    assert payload["total"] == 16
    assert payload["set_identity"] == 10 and payload["set_minors"] == 10
    assert payload["agree"] is True


def test_exhaust_too_large(capsys):
    code, _, err = run(capsys, "exhaust", "--ring", "mod:2", "--n", "5")
    assert code == 2


def test_gen_then_check_pipeline(tmp_path, capsys, monkeypatch):
    code = main(["gen", "--mode", "outer", "--n", "4", "--seed", "7"])
    generated = capsys.readouterr().out
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(generated))
    code, payload, _ = run(capsys, "check")
    assert code == 0 and payload == {"structured": True}


def test_gen_deterministic_and_byte_canonical(capsys):
    main(["gen", "--n", "3", "--seed", "11", "--ring", "mod:97"])
    first = capsys.readouterr().out
    main(["gen", "--n", "3", "--seed", "11", "--ring", "mod:97"])
    second = capsys.readouterr().out
    assert first == second
    reparsed = dumps(matrix_to_obj(matrix_from_obj(json.loads(first))))
    assert reparsed == first.strip()


def test_gen_nilscalar_requires_nilpotent(capsys):
    code, _, err = run(capsys, "gen", "--ring", "mod:6", "--n", "2", "--mode", "nilscalar")
    assert code == 2 and "error" in err
    code, payload, _ = run(capsys, "gen", "--ring", "mod:4", "--n", "2", "--mode", "nilscalar")
    assert code == 0


def test_bench_small_run(capsys):
    code, payload, _ = run(capsys, "bench", "--n", "16", "--reps", "3", "--ring", "mod:97")
    assert code == 0
    assert payload["agreement_checked"] is True
    assert payload["naive_median_s"] > 0 and payload["fast_median_s"] > 0


def test_bench_param_validation(capsys):
    code, _, err = run(capsys, "bench", "--n", "16", "--reps", "2")
    assert code == 2
    code, _, err = run(capsys, "bench", "--n", "8", "--reps", "3")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def fresh_process(argv):
    src = os.path.dirname(os.path.dirname(minortrace.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "minortrace", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_repeated_main_calls_match_fresh_processes(files, capsys):
    calls = [
        ["check", files["a"]],
        ["verify", files["a"], files["b"], "--naive"],
        ["verify", files["a"]],  # parse error: matrix_b missing
        ["probe", files["i2"]],
        ["power", files["a"], "three"],  # parse error: exponent not an int
        ["verify", files["i2"], files["b"], "--fast"],
        ["exhaust", "--ring", "mod:2", "--n", "2"],
        ["frobnicate"],
        ["power", files["a"], "3"],
    ]
    in_process = []
    for argv in calls:
        code = main(list(argv))
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [c for c, _, _ in in_process] == [0, 0, 2, 1, 2, 3, 0, 2, 0]
    assert in_process == [fresh_process(argv) for argv in calls]


def test_verify_naive_forms_two_products(tmp_path, capsys):
    n = 6
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    a = write_matrix(tmp_path / "a.json", rows)
    b = write_matrix(tmp_path / "b.json", [list(reversed(r)) for r in rows])
    with count_ops() as ops:
        code, payload, _ = run(capsys, "verify", a, b, "--naive")
    assert code in (0, 1) and "residual" in payload
    assert ops.mul == 2 * n**3 + n * n  # A @ B, (A @ B) @ A, then Tr(AB) * A


@pytest.mark.parametrize("mode", ["--naive", "--fast", "--both"])
def test_verify_rejects_non_square_pair_before_any_product(tmp_path, capsys, mode):
    # 2x3 @ 3x2 and back are both defined, so only the pair check stops them
    a = write_matrix(tmp_path / "a.json", [[1, 2, 3], [4, 5, 6]])
    b = write_matrix(tmp_path / "b.json", [[1, 2], [3, 4], [5, 6]])
    with count_ops() as ops:
        code, payload, err = run(capsys, "verify", a, b, mode)
    assert (code, payload, ops.mul) == (2, None, 0)
    assert err == "error: two n x n matrices required, got 2x3 and 3x2\n"


def test_gen_nilscalar_refuses_huge_modulus(capsys):
    code, payload, err = run(
        capsys, "gen", "--ring", f"mod:{2**70}", "--n", "2", "--mode", "nilscalar"
    )
    assert code == 2 and payload is None and "2^64" in err
    code, payload, _ = run(
        capsys, "gen", "--ring", f"mod:{2**61 - 1}", "--n", "2", "--mode", "nilscalar"
    )
    assert code == 2 and payload is None


@pytest.mark.parametrize("n", ["0", "-2"])
def test_gen_rejects_order_below_one(capsys, n):
    code, payload, err = run(capsys, "gen", "--n", n)
    assert (code, payload) == (2, None)
    assert err == "error: matrix dimensions must be at least 1x1\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_json_is_invalid_input(tmp_path, capsys, monkeypatch, source):
    text = "[" * 200_000
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_text(text)
        argv = ["check", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv = ["check", "-"]
    code, payload, err = run(capsys, *argv)
    assert (code, payload) == (2, None)
    assert err.startswith("error: invalid JSON: ")


def test_exhaust_budget_check_builds_no_huge_integer(capsys):
    # 3^(4000^2) has about 25 million bits; deciding the budget must not build it
    tracemalloc.start()
    try:
        code, payload, err = run(capsys, "exhaust", "--ring", "mod:3", "--n", "4000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, payload) == (2, None)
    assert err == "error: 3^16000000 matrices exceed the 1000000 budget\n"
    assert peak < 2**20
