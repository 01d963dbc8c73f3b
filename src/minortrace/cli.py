"""Command-line surface.

Every subcommand prints canonical JSON on stdout and a one-line human
summary on stderr.  Exit codes: 0 success / identity holds / structured,
1 witness found / identity violated, 2 parse, shape, or parameter error,
3 structure precondition failed (with the probe witness on stdout).

Matrix files use the JSON layout from the serialize module; "-" reads the
matrix from stdin.  Ring specs: "int", "mod:<m>", "gf:<p>", "poly:int:x".
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bench import DEFAULT_BENCH_MODULUS, run_bench
from .kernels import (
    StructurePreconditionFailed,
    _square_pair,
    naive_aba,
    structured_aba,
    structured_power,
)
from .matrices import Matrix, MatrixError
from .oracle import TooLargeToEnumerate, exhaustive_characterization, verify_identity
from .probe import ProbeReport, probe_converse, probe_witness
from .rings import IntegerRing, PrimeFieldRing, RingError
from .serialize import (
    SerializeError,
    bench_result_to_obj,
    dumps,
    equivalence_report_to_obj,
    factors_to_obj,
    loads,
    matrix_from_obj,
    matrix_to_obj,
    parse_ring_spec,
    probe_report_to_obj,
    verdict_to_obj,
)
from .structure import (
    MinorWitness,
    NoNilpotentScalar,
    PreconditionViolated,
    check_vanishing_minors,
    decompose_2x2_gcd,
    decompose_rank1_field,
    gen_structured,
)

_INPUT_ERRORS = (
    SerializeError,
    RingError,
    MatrixError,
    PreconditionViolated,
    NoNilpotentScalar,
    TooLargeToEnumerate,
    OSError,
    ValueError,
)


def _emit(obj) -> None:
    print(dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_matrix(path: str) -> Matrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return matrix_from_obj(loads(text))


def _emit_precondition_witness(a: Matrix, witness: MinorWitness) -> int:
    w = probe_witness(a, witness)
    _emit(probe_report_to_obj(a.ring, ProbeReport(structured=False, witness=w)))
    _note(
        "structure precondition failed: nonzero minor at rows "
        f"({w.minor.i + 1},{w.minor.j + 1}) cols ({w.minor.k + 1},{w.minor.l + 1})"
    )
    return 3


def _cmd_check(args) -> int:
    a = _load_matrix(args.matrix)
    verdict = check_vanishing_minors(a)
    _emit(verdict_to_obj(a.ring, verdict))
    if verdict.structured:
        _note("structured: all 2x2 minors vanish")
        return 0
    idx = verdict.witness.index
    _note(
        f"nonzero minor at rows ({idx.i + 1},{idx.j + 1}) cols ({idx.k + 1},{idx.l + 1})"
    )
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
    _emit(
        {
            "fast": matrix_to_obj(fast),
            "naive": matrix_to_obj(slow),
            "agree": agree,
        }
    )
    _note("fast and naive agree" if agree else "fast and naive differ")
    return 0 if agree else 1


def _cmd_probe(args) -> int:
    a = _load_matrix(args.matrix)
    report = probe_converse(a)
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
    if isinstance(a.ring, PrimeFieldRing):
        factors = decompose_rank1_field(a)
    elif isinstance(a.ring, IntegerRing):
        if a.rows != 2 or a.cols != 2:
            _note("error: integer decomposition is defined for 2x2 matrices only")
            return 2
        factors = decompose_2x2_gcd(a)
    else:
        _note(f"error: no decomposition over {a.ring}")
        return 2
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
    ring = parse_ring_spec(args.ring)
    result = run_bench(args.n, ring, args.reps, args.seed)
    _emit(bench_result_to_obj(result))
    _note(
        f"n={result.n}: naive {result.naive_median:.4f}s, fast {result.fast_median:.4f}s, "
        f"speedup {result.speedup:.1f}x"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
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

    p = sub.add_parser("decompose", help="column-row factors (prime field, or integer 2x2)")
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
    p.add_argument("--bound", type=int, default=9)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time the fast kernel against the naive oracle")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--ring", default=f"mod:{DEFAULT_BENCH_MODULUS}")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one per process serves every call
    return build_parser()


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
