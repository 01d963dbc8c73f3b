"""Command-line surface.

Every subcommand prints canonical JSON on stdout and a one-line human
summary on stderr.  Exit codes: 0 success / identity holds / structured,
1 witness found / identity violated, 2 parse, shape, or parameter error,
3 structure precondition failed (with the probe witness on stdout).

Matrix files use the JSON layout from the serialize module; "-" reads the
matrix from stdin.  Ring specs: "int", "mod:<m>", "gf:<p>" and
"poly:<base>:<var>", whose base is itself a spec ("poly:mod:4:x").
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from .kernels import (
    StructurePreconditionFailed,
    naive_aba,
    require_structured,
    structured_aba,
    structured_power,
    structured_power_bits,
)
from .matrices import Matrix, MatrixError, TooLargeToEnumerate, _square_pair
from .rings import RingError
from .serialize import (
    SerializeError,
    bench_result_to_obj,
    decode_rows,
    dumps,
    equivalence_report_to_obj,
    factors_to_obj,
    loads,
    matrix_from_obj,
    matrix_rows_from_text,
    matrix_to_obj,
    output_bits_over_limit,
    parse_ring_spec,
    probe_report_to_obj,
    verdict_to_obj,
)
from .structure import (
    DEFAULT_ENTRY_BOUND,
    MinorWitness,
    NoNilpotentScalar,
    StructureVerdict,
    check_vanishing_minors,
    decompose,
    gen_structured,
)

_INPUT_ERRORS = (
    SerializeError,
    RingError,
    MatrixError,
    NoNilpotentScalar,
    TooLargeToEnumerate,
    OSError,
    ValueError,
)


# probe, oracle and bench load with the first subcommand that runs them; the
# traced benchmark wraps these three names of this module, so calls go through them


def probe_converse(a: Matrix):
    from .probe import probe_converse
    return probe_converse(a)


def verify_identity(a: Matrix, b: Matrix, *, ab: Matrix | None = None, aba: Matrix | None = None):
    from .oracle import verify_identity
    return verify_identity(a, b, ab=ab, aba=aba)


def exhaustive_characterization(ring, n: int):
    from .oracle import exhaustive_characterization
    return exhaustive_characterization(ring, n)


def _witness_report(a: Matrix, witness: MinorWitness):
    """The probe report for an A whose nonzero minor is witness."""
    from .probe import ProbeReport, probe_witness
    return ProbeReport(structured=False, witness=probe_witness(a, witness))


def _emit(obj) -> None:
    print(dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _nonzero_minor(idx) -> str:
    """The note naming a nonzero minor, with its indices 1-based."""
    return f"nonzero minor at rows ({idx.i + 1},{idx.j + 1}) cols ({idx.k + 1},{idx.l + 1})"


def _read(path: str):
    """A matrix file's bytes, or stdin's text for "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "rb") as fh:
        return fh.read()


def _text(data) -> str:
    """data as a file opened in text mode reads it: UTF-8, universal newlines."""
    return data if type(data) is str else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def _load_matrix(path: str) -> Matrix:
    data = _read(path)
    return _full_read(data, matrix_rows_from_text(data))


def _full_read(data, parsed, head: tuple = ()) -> Matrix:
    """The matrix in data, parsed being matrix_rows_from_text(data).

    Rows of a text matrix_rows_from_text takes (a rectangle) are converted
    in one decode, but for head, its first rows converted already.  Any
    other text, or one with an entry such as "007", is decoded whole.
    """
    rows = parsed and decode_rows(parsed[2])
    if not rows:
        return matrix_from_obj(loads(_text(data)))
    ring = parsed[0]
    return Matrix(ring, head + tuple(map(ring.canon_row, rows[len(head) :])))


def _load_deciding_head(path: str, square: bool) -> tuple[Matrix, StructureVerdict | None]:
    """The matrix in path, with its verdict when rows 1-2 already decide it.

    On a text of 3 rows or more that matrix_rows_from_text takes (and that
    is square, if square is set), rows 1-2 are converted and checked alone.
    A nonzero minor there is the first witness of the whole matrix (see
    check_vanishing_minors): that verdict comes back with the 2-row matrix.
    Otherwise the full read converts the other rows and gives no verdict.
    """
    data = _read(path)
    parsed = matrix_rows_from_text(data)
    head = ()
    # r rows are r + 1 "[" in the text, and parsed[1] is the width
    if parsed and not (square and parsed[2].count(b"[") - 1 != parsed[1]):
        text = parsed[2]
        cut = text.find(b'"],["', text.find(b'"],["') + 1)  # after row 2, if a row follows
        rows = cut > 0 and decode_rows(text[: cut + 2] + b"]")
        if rows:
            two = Matrix.from_rows(parsed[0], rows)
            verdict = check_vanishing_minors(two)
            if not verdict.structured:
                return two, verdict
            head = two.data
    return _full_read(data, parsed, head), None


def _emit_precondition_witness(a: Matrix, witness: MinorWitness) -> int:
    _emit(probe_report_to_obj(a.ring, _witness_report(a, witness)))
    _note("structure precondition failed: " + _nonzero_minor(witness.index))
    return 3


def _cmd_check(args) -> int:
    a, verdict = _load_deciding_head(args.matrix, square=False)
    if verdict is None:
        verdict = check_vanishing_minors(a)
    _emit(verdict_to_obj(a.ring, verdict))
    if verdict.structured:
        _note("structured: all 2x2 minors vanish")
        return 0
    _note(_nonzero_minor(verdict.witness.index))
    return 1


def _cmd_verify(args) -> int:
    a = _load_matrix(args.matrix_a)
    b = _load_matrix(args.matrix_b)
    if args.mode == "naive":
        _square_pair(a, b)
        ab = a @ b
        aba = ab @ a
        residual = verify_identity(a, b, ab=ab, aba=aba)
        ok = residual.is_zero()
        _emit(
            {
                "aba": matrix_to_obj(aba),
                "residual": matrix_to_obj(residual),
                "residual_zero": ok,
            }
        )
        _note("identity holds" if ok else "identity violated")
        return 0 if ok else 1
    if args.mode == "fast":
        try:
            result = structured_aba(a, b)
        except StructurePreconditionFailed as exc:
            return _emit_precondition_witness(a, exc.witness)
        _emit({"result": matrix_to_obj(result)})
        _note("fast kernel result emitted")
        return 0
    fast = structured_aba(a, b, check=False)
    slow = naive_aba(a, b)
    agree = fast == slow
    fast_obj = matrix_to_obj(fast)
    # when they agree, one object under both keys is converted and written once
    _emit({"fast": fast_obj, "naive": fast_obj if agree else matrix_to_obj(slow), "agree": agree})
    _note("fast and naive agree" if agree else "fast and naive differ")
    return 0 if agree else 1


def _cmd_probe(args) -> int:
    a, verdict = _load_deciding_head(args.matrix, square=True)
    if verdict is None:
        report = probe_converse(a)
    else:
        report = _witness_report(a, verdict.witness)
    _emit(probe_report_to_obj(a.ring, report))
    if report.structured:
        _note("structured: no probe breaks the identity")
        return 0
    w = report.witness
    _note(
        f"probe with unit at ({w.unit_row + 1},{w.unit_col + 1}) breaks the identity "
        f"at entry ({w.entry_row + 1},{w.entry_col + 1})"
    )
    return 1


def _cmd_decompose(args) -> int:
    a = _load_matrix(args.matrix)
    factors = decompose(a)
    _emit(factors_to_obj(factors))
    if factors is None:
        _note("not decomposable: a 2x2 minor is nonzero")
        return 1
    _note("column-row factors emitted")
    return 0


def _cmd_power(args) -> int:
    a = _load_matrix(args.matrix)
    if args.exponent < 1:
        _note("error: exponent must be >= 1")
        return 2
    try:
        refusal = output_bits_over_limit(structured_power_bits(a, args.exponent))
        if refusal is not None:
            require_structured(a)  # an unstructured A still exits 3 with its witness
            raise refusal
        result = structured_power(a, args.exponent)
    except StructurePreconditionFailed as exc:
        return _emit_precondition_witness(a, exc.witness)
    _emit(matrix_to_obj(result))
    _note(f"power {args.exponent} emitted")
    return 0


def _cmd_exhaust(args) -> int:
    ring = parse_ring_spec(args.ring)
    report = exhaustive_characterization(ring, args.n)
    _emit(equivalence_report_to_obj(report))
    _note(
        f"{report.total} matrices over {ring}: identity set {report.set_identity}, "
        f"minor set {report.set_minors}, agree={report.agree}"
    )
    return 0 if report.agree else 1


def _cmd_gen(args) -> int:
    ring = parse_ring_spec(args.ring)
    m = gen_structured(args.seed, ring, args.n, args.mode, args.bound)
    _emit(matrix_to_obj(m))
    _note(f"{args.n}x{args.n} structured matrix over {ring} (mode {args.mode})")
    return 0


def _cmd_bench(args) -> int:
    if args.n < 16:
        _note("error: bench needs --n >= 16")
        return 2
    if args.reps < 3:
        _note("error: bench needs --reps >= 3")
        return 2
    from .bench import run_bench
    ring = None if args.ring is None else parse_ring_spec(args.ring)
    result = run_bench(args.n, ring, args.reps, args.seed)
    _emit(bench_result_to_obj(result))
    _note(
        f"n={result.n}: naive {result.naive_median:.4f}s, fast {result.fast_median:.4f}s, "
        f"speedup {result.speedup:.1f}x"
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    parser = argparse.ArgumentParser(
        prog="minortrace",
        description="Exact triple-product kernels and checks for vanishing-minor matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="scan all 2x2 minors of a matrix")
    p.add_argument("matrix", nargs="?", default="-", help="matrix JSON file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="test A B A = Tr(AB) A on a concrete pair")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", dest="mode", action="store_const", const="fast")
    mode.add_argument("--naive", dest="mode", action="store_const", const="naive")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(func=_cmd_verify, mode="both")

    p = sub.add_parser("probe", help="find a unit-matrix probe that breaks the identity")
    p.add_argument("matrix", nargs="?", default="-")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("decompose", help="column-row factors over Z or GF(p)")
    p.add_argument("matrix", nargs="?", default="-")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("power", help="A**k via the trace kernel")
    p.add_argument("matrix")
    p.add_argument("exponent", type=int)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("exhaust", help="exhaustive classification over a small finite ring")
    p.add_argument("--ring", required=True, help='e.g. "mod:2"')
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_exhaust)

    p = sub.add_parser("gen", help="generate a random structured matrix")
    p.add_argument("--ring", default="int")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["outer", "nilscalar"], default="outer")
    p.add_argument("--bound", type=int, default=DEFAULT_ENTRY_BOUND)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the fast kernel against the naive oracle")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--ring")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    raise SystemExit(main())
