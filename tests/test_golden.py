"""Golden CLI corpus: byte-exact stdout, stderr and exit code of main().

The corpus pins the observable behaviour of every subcommand (bench only
through its argument errors, since its timings vary) on fixed inputs: nine
rings, orders 1 to 32, outer-product, random, zero, almost-structured and
nilpotent-scalar matrices, non-canonical encodings and malformed files.

The inputs are built here from seeded pure-Python arithmetic, independent
of the library; the expected results live in golden_cli.json.  Stdout
longer than STDOUT_INLINE characters is stored as its sha256 and length.

Regenerate the expected file (only when a change of behaviour is intended):

    PYTHONPATH=src python3 tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

CORPUS_PATH = Path(__file__).with_name("golden_cli.json")
STDOUT_INLINE = 96

BIG_PRIME = 2**61 - 1

# (spec, ring JSON, ground modulus or None, polynomial?)
RINGS = {
    "int": ("int", {"kind": "int"}, None, False),
    "mod12": ("mod:12", {"kind": "mod", "modulus": "12"}, 12, False),
    "mod4": ("mod:4", {"kind": "mod", "modulus": "4"}, 4, False),
    "mod8": ("mod:8", {"kind": "mod", "modulus": "8"}, 8, False),
    "modbig": (
        f"mod:{BIG_PRIME}", {"kind": "mod", "modulus": str(BIG_PRIME)}, BIG_PRIME, False
    ),
    "gf65537": ("gf:65537", {"kind": "gf", "p": "65537"}, 65537, False),
    "gf5": ("gf:5", {"kind": "gf", "p": "5"}, 5, False),
    "polyint": (
        "poly:int:x",
        {"kind": "poly", "base": {"kind": "int"}, "var": "x"},
        None,
        True,
    ),
    "polymod4": (
        "poly:mod:4:x",
        {"kind": "poly", "base": {"kind": "mod", "modulus": "4"}, "var": "x"},
        4,
        True,
    ),
}
NILSCALARS = {"mod4": 2, "mod8": 4, "mod12": 6}
ORDERS = (1, 2, 3, 5, 8, 16, 32)
POLY_MAX_ORDER = 8  # polynomial products run the dot loop; keep them small


# ---------------------------------------------------------------------------
# Inputs: plain integers (or coefficient lists) written as matrix JSON


def _sample(rng: random.Random, modulus, poly: bool):
    def scalar():
        return rng.randint(-9, 9) if modulus is None else rng.randrange(modulus)

    if poly:
        return [scalar() for _ in range(rng.randint(1, 3))]
    return scalar()


def _mul(x, y, poly: bool):
    if not poly:
        return x * y
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            out[i + j] += u * v
    return out


def _plus_one(x, poly: bool):
    return [x[0] + 1, *x[1:]] if poly else x + 1


def _encode(x, modulus, poly: bool, rng: random.Random | None = None):
    """JSON form of a value; with rng, a random non-canonical spelling."""
    if poly:
        coeffs = [c if modulus is None else c % modulus for c in x]
        if rng is None:
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        elif rng.random() < 0.2:
            coeffs.append(0)  # a trailing zero coefficient
        return [_encode(c, modulus, False, rng) for c in coeffs]
    if modulus is not None:
        x %= modulus
        if rng is not None and rng.random() < 0.3:
            x += rng.choice((-1, 1, 2)) * modulus
    if rng is not None and rng.random() < 0.25:
        return x  # a JSON number instead of a decimal string
    return str(x)


def _matrix_text(ring_obj, rows) -> str:
    return json.dumps({"ring": ring_obj, "rows": rows})


def build_inputs() -> dict[str, str]:
    """Every input file of the corpus, by name; deterministic."""
    files: dict[str, str] = {}
    for tag, (_, ring_obj, modulus, poly) in RINGS.items():
        for n in ORDERS:
            if poly and n > POLY_MAX_ORDER:
                continue
            rng = random.Random(f"{tag}:{n}")
            col = [_sample(rng, modulus, poly) for _ in range(n)]
            row = [_sample(rng, modulus, poly) for _ in range(n)]
            outer = [[_mul(c, r, poly) for r in row] for c in col]

            def enc(rows, noisy=False):
                spell = rng if noisy else None
                return [[_encode(x, modulus, poly, spell) for x in r] for r in rows]

            files[f"{tag}_outer_{n}.json"] = _matrix_text(ring_obj, enc(outer))
            almost = [list(r) for r in outer]
            i, j = rng.randrange(n), rng.randrange(n)
            almost[i][j] = _plus_one(almost[i][j], poly)
            files[f"{tag}_almost_{n}.json"] = _matrix_text(ring_obj, enc(almost))
            rand = [[_sample(rng, modulus, poly) for _ in range(n)] for _ in range(n)]
            files[f"{tag}_random_{n}.json"] = _matrix_text(ring_obj, enc(rand, noisy=True))
            zero = [[_sample(rng, 1, poly) for _ in range(n)] for _ in range(n)]
            files[f"{tag}_zero_{n}.json"] = _matrix_text(ring_obj, enc(zero))
            b = [[_sample(rng, modulus, poly) for _ in range(n)] for _ in range(n)]
            files[f"{tag}_b_{n}.json"] = _matrix_text(ring_obj, enc(b, noisy=True))
            if tag in NILSCALARS:
                s = NILSCALARS[tag]
                nil = [[s * _sample(rng, modulus, poly) for _ in range(n)] for _ in range(n)]
                files[f"{tag}_nil_{n}.json"] = _matrix_text(ring_obj, enc(nil))
    files.update(_malformed_inputs())
    return files


def _malformed_inputs() -> dict[str, str]:
    int_obj = {"kind": "int"}
    mod5 = {"kind": "mod", "modulus": "5"}
    gf5 = {"kind": "gf", "p": "5"}
    poly_int = {"kind": "poly", "base": int_obj, "var": "x"}
    return {
        "bad_ragged.json": _matrix_text(int_obj, [["1", "2"], ["3"]]),
        "bad_bool.json": _matrix_text(int_obj, [[True, "2"], ["3", "4"]]),
        "bad_bool_mod.json": _matrix_text(mod5, [["1", False], ["3", "4"]]),
        "bad_kind.json": _matrix_text({"kind": "quaternion"}, [["1"]]),
        "bad_nokind.json": _matrix_text({"modulus": "5"}, [["1"]]),
        "bad_truncated.json": _matrix_text(int_obj, [["1", "2"], ["3", "4"]])[:-7],
        "bad_notjson.json": "not json",
        "bad_empty_file.json": "",
        "bad_empty_row.json": _matrix_text(int_obj, [[]]),
        "bad_empty_row_late.json": _matrix_text(int_obj, [["1"], []]),
        "bad_no_rows.json": _matrix_text(int_obj, []),
        "bad_rows_not_lists.json": _matrix_text(int_obj, ["1", "2"]),
        "bad_rows_obj.json": json.dumps({"ring": int_obj, "rows": {"a": 1}}),
        "bad_missing_rows.json": json.dumps({"ring": int_obj}),
        "bad_missing_ring.json": json.dumps({"rows": [["1"]]}),
        "bad_top_list.json": json.dumps([["1"]]),
        "bad_float.json": _matrix_text(int_obj, [[1.5, "2"], ["3", "4"]]),
        "bad_null.json": _matrix_text(int_obj, [[None, "2"], ["3", "4"]]),
        "bad_decimal.json": _matrix_text(int_obj, [["1.0", "2"], ["3", "4"]]),
        "bad_hex.json": _matrix_text(int_obj, [["0x10", "2"], ["3", "4"]]),
        "bad_modulus_zero.json": _matrix_text({"kind": "mod", "modulus": "0"}, [["1"]]),
        "bad_modulus_one.json": _matrix_text({"kind": "mod", "modulus": "1"}, [["1"]]),
        "bad_modulus_neg.json": _matrix_text({"kind": "mod", "modulus": "-3"}, [["1"]]),
        "bad_modulus_float.json": _matrix_text({"kind": "mod", "modulus": 5.0}, [["1"]]),
        "bad_modulus_bool.json": _matrix_text({"kind": "mod", "modulus": True}, [["1"]]),
        "bad_gf_composite.json": _matrix_text({"kind": "gf", "p": "4"}, [["1"]]),
        "bad_gf_missing.json": _matrix_text({"kind": "gf"}, [["1"]]),
        "bad_poly_scalar.json": _matrix_text(poly_int, [["1", "2"], ["3", "4"]]),
        "bad_poly_var.json": _matrix_text({"kind": "poly", "base": int_obj, "var": 3}, [[["1"]]]),
        "bad_poly_depth3.json": _matrix_text(
            {"kind": "poly", "base": {"kind": "poly", "base": poly_int, "var": "y"}, "var": "z"},
            [[[[["1"]]]]],
        ),
        "bad_poly_nobase.json": _matrix_text({"kind": "poly", "var": "x"}, [[["1"]]]),
        "bad_poly_inner_scalar.json": _matrix_text(
            {"kind": "poly", "base": poly_int, "var": "y"}, [[["1", "2"]]]
        ),
        "bad_mixed.json": _matrix_text(int_obj, [["1", 2], [["3"], "4"]]),
        "ok_int_numbers.json": _matrix_text(int_obj, [[3, 4], [6, 8]]),
        "ok_mod5_2.json": _matrix_text(mod5, [["1", "2"], ["2", "4"]]),
        "ok_gf5_2.json": _matrix_text(gf5, [["1", "2"], ["2", "4"]]),
        "ok_gf5_rect.json": _matrix_text(gf5, [["1", "2", "3"], ["2", "4", "1"]]),
        "ok_int_rect.json": _matrix_text(int_obj, [["1", "2", "3"], ["2", "4", "6"]]),
        "ok_int_3.json": _matrix_text(int_obj, [["1", "2", "3"], ["2", "4", "6"], ["3", "6", "9"]]),
        "ok_int_big.json": _matrix_text(int_obj, [[str(10**40), "1"], [str(10**40 - 1), "1"]]),
        "ok_polypoly.json": _matrix_text(
            {"kind": "poly", "base": poly_int, "var": "y"},
            [[[["1"], ["0", "1"]], [["2"]]], [[["2"], ["0", "2"]], [["4"]]]],
        ),
        "ok_spaces.json": '  {"rows" : [ [ "1" , "1" ] , [ "1" , "1" ] ] ,\n "ring" : {"kind":"int"} }',
    }


def build_calls() -> list[tuple[list[str], str | None]]:
    """(argv, stdin file name or None) for every call of the corpus."""
    calls: list[tuple[list[str], str | None]] = []

    def add(*argv, stdin=None):
        calls.append((list(argv), stdin))

    for tag, (spec, _, _, poly) in RINGS.items():
        for n in ORDERS:
            if poly and n > POLY_MAX_ORDER:
                continue
            kinds = ["outer", "almost", "random", "zero"]
            if tag in NILSCALARS:
                kinds.append("nil")
            b = f"{tag}_b_{n}.json"
            for kind in kinds:
                a = f"{tag}_{kind}_{n}.json"
                add("check", a)
                add("probe", a)
                add("decompose", a)
                add("power", a, "1")
                add("power", a, "3")
                add("verify", a, b, "--fast")
                add("verify", a, b, "--naive")
                add("verify", a, b, "--both")
                add("verify", b, a, "--fast")
            add("power", f"{tag}_outer_{n}.json", "0")
            add("power", f"{tag}_outer_{n}.json", "64")
            add("verify", f"{tag}_outer_{n}.json", b)
            add("check", "-", stdin=f"{tag}_almost_{n}.json")
            add("probe", stdin=f"{tag}_outer_{n}.json")
        for n in (1, 2, 3, 5, 8, 16, 32):
            for seed in (0, 1, 7):
                add("gen", "--ring", spec, "--n", str(n), "--seed", str(seed))
            add("gen", "--ring", spec, "--n", str(n), "--mode", "nilscalar", "--bound", "3")
        add("exhaust", "--ring", spec, "--n", "5")  # over the budget, or not enumerable
    for spec in ("mod:2", "mod:3", "mod:4", "mod:6", "gf:2", "gf:3", "gf:5"):
        add("exhaust", "--ring", spec, "--n", "2")
    for spec in ("mod:2", "gf:2"):
        add("exhaust", "--ring", spec, "--n", "3")
    for n in ("1", "0", "5", "100"):
        add("exhaust", "--ring", "mod:2", "--n", n)
    add("exhaust", "--ring", "gf:4", "--n", "2")
    add("exhaust", "--ring", "ring", "--n", "2")
    for bound in ("0", "1", "100", "-5"):
        add("gen", "--ring", "int", "--n", "4", "--seed", "3", "--bound", bound)
    for spec in ("mod:1", "mod:0", "gf:9", "poly:x", "poly:int:", "bad", "mod:abc"):
        add("gen", "--ring", spec, "--n", "3")
    add("gen", "--ring", "poly:poly:int:x:y", "--n", "3", "--seed", "2")
    add("gen", "--ring", "poly:poly:poly:int:x:y:z", "--n", "2")
    add("gen", "--ring", "mod:36", "--n", "3", "--mode", "nilscalar")
    add("gen", "--ring", f"mod:{2**70}", "--n", "2", "--mode", "nilscalar")
    add("bench", "--n", "8")
    add("bench", "--n", "15", "--reps", "3")
    add("bench", "--n", "16", "--reps", "2")
    add("bench", "--n", "16", "--reps", "0")
    add("bench", "--n", "16", "--reps", "3", "--ring", "bad")
    add("bench", "--n", "16", "--reps", "3", "--ring", "mod:1")

    malformed = sorted(name for name in _malformed_inputs() if name.startswith("bad_"))
    for name in malformed:
        add("check", name)
        add("probe", name)
        add("verify", name, "ok_int_numbers.json", "--fast")
        add("verify", "ok_int_numbers.json", name, "--naive")
        add("power", name, "2")
        add("decompose", name)
        add("check", "-", stdin=name)
    ok = sorted(name for name in _malformed_inputs() if name.startswith("ok_"))
    for name in ok:
        add("check", name)
        add("probe", name)
        add("decompose", name)
        add("power", name, "5")
        for mode in ("--fast", "--naive", "--both"):
            add("verify", name, name, mode)
    for a, b in [
        ("ok_int_numbers.json", "ok_mod5_2.json"),
        ("ok_mod5_2.json", "ok_gf5_2.json"),
        ("ok_gf5_2.json", "ok_mod5_2.json"),
        ("int_outer_3.json", "mod4_b_3.json"),
        ("int_outer_3.json", "int_b_5.json"),
        ("ok_int_rect.json", "ok_int_numbers.json"),
        ("ok_int_numbers.json", "ok_int_rect.json"),
        ("polyint_outer_2.json", "polymod4_b_2.json"),
    ]:
        for mode in ("--fast", "--naive", "--both"):
            add("verify", a, b, mode)
    for argv in (
        ["check", "missing.json"],
        ["verify", "missing.json", "ok_int_numbers.json"],
        ["power", "ok_int_numbers.json", "three"],
        ["verify", "ok_int_numbers.json"],
        ["frobnicate"],
        ["exhaust", "--ring", "mod:2"],
        ["gen", "--n", "2", "--mode", "other"],
    ):
        add(*argv)
    add("check", "-", stdin="ok_spaces.json")
    add("decompose", stdin="ok_gf5_2.json")
    return calls


# ---------------------------------------------------------------------------
# Running and recording


def run_call(argv: list[str], stdin_text: str | None):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    from minortrace.cli import main

    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _record(argv, stdin, code, stdout, stderr) -> dict:
    entry = {"argv": argv, "code": code, "stderr": stderr}
    if stdin is not None:
        entry["stdin"] = stdin
    if len(stdout) > STDOUT_INLINE:
        entry["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        entry["stdout_len"] = len(stdout)
    else:
        entry["stdout"] = stdout
    return entry


def run_corpus(directory: Path):
    """Write the inputs into directory and yield one record per call, in order."""
    inputs = build_inputs()
    for name, text in inputs.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv, stdin in build_calls():
            stdin_text = inputs[stdin] if stdin is not None else None
            code, stdout, stderr = run_call(argv, stdin_text)
            yield _record(argv, stdin, code, stdout, stderr)
    finally:
        os.chdir(cwd)


def _write_corpus(records: list[dict]) -> None:
    lines = ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    CORPUS_PATH.write_text("[\n" + lines + "\n]\n", encoding="utf-8")


def test_cli_matches_golden_corpus(tmp_path):
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    assert len(expected) == len(build_calls()) >= 2000
    for index, (want, got) in enumerate(zip(expected, run_corpus(tmp_path))):
        if got != want:
            diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
            detail = "; ".join(f"{k}: expected {want.get(k)!r}, got {got.get(k)!r}" for k in diff)
            raise AssertionError(
                f"call {index} diverged: argv={want['argv']} stdin={want.get('stdin')}: {detail}"
            )


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(f"usage: PYTHONPATH=src python3 {sys.argv[0]} --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        records = list(run_corpus(Path(tmp)))
    _write_corpus(records)
    print(f"wrote {len(records)} calls to {CORPUS_PATH}")
