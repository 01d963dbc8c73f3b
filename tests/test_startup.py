"""Importing the CLI loads only what every subcommand runs.

The package serves its public names on first use, the CLI imports probe,
oracle and bench with the first subcommand that needs them, and no value
class is a dataclass.  These tests pin what that must not change: which
modules stay unloaded, the package's public names, the names the traced
benchmark wraps in cli, and what the value classes kept from dataclasses.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import minortrace
from minortrace import (
    BlockSplit,
    CorollaryResiduals,
    IntegerRing,
    Matrix,
    MinorIndex,
    MinorWitness,
    ModularRing,
    OpCounts,
    OuterFactors,
    PolynomialRing,
    PrimeFieldRing,
    RingElem,
    StructureVerdict,
    cli,
)
from minortrace.serialize import dumps, matrix_to_obj

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# dir(minortrace) when __init__ imported every library module
PUBLIC_NAMES = [
    "BenchResult", "BlockSplit", "CorollaryResiduals", "EquivalenceReport", "IndexOutOfRange",
    "InductionResiduals", "IntegerRing", "Matrix", "MatrixError", "MinorIndex", "MinorWitness",
    "ModularRing", "NoNilpotentScalar", "NotSquare", "OpCounts", "OuterFactors", "PolynomialRing",
    "PrimeFieldRing", "ProbeReport", "ProbeWitness", "Ring", "RingElem", "RingError",
    "RingMismatch", "ShapeMismatch", "StructurePreconditionFailed", "StructureVerdict", "TooLarge",
    "TooLargeToEnumerate", "TooSmall", "UnsupportedRing", "aba_via_blocks", "bench", "block_join",
    "cayley_hamilton_2x2", "check_corollaries", "check_vanishing_minors", "count_ops",
    "decompose", "det_small", "exhaustive_characterization", "find_nilpotent_scalar",
    "gen_structured", "induction_equalities", "is_prime", "kernels", "matrices", "matrix_unit",
    "naive_aba", "oracle", "outer", "probe", "probe_converse", "probe_witness", "random_elem",
    "random_matrix", "rings", "run_bench", "structure", "structured_aba", "structured_power",
    "trace_of_product", "trace_product_via_outer", "universal_identity_by_enumeration",
    "verify_identity",
]
LIBRARY_MODULES = ["bench", "kernels", "matrices", "oracle", "probe", "rings", "structure"]


def fresh(code: str):
    """What code, run in a new interpreter that imports from src, prints as JSON."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_cli_leaves_out_probe_oracle_bench_and_dataclasses():
    loaded = fresh(
        "before = set(sys.modules)\n"
        "import minortrace.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "minortrace.cli" in loaded
    left_out = ["minortrace.probe", "minortrace.oracle", "minortrace.bench", "dataclasses", "statistics"]
    assert [name for name in left_out if name in loaded] == []


def test_importing_the_package_loads_no_library_module():
    loaded = fresh(
        "import minortrace\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('minortrace.'))))"
    )
    assert loaded == []


def test_the_package_lists_the_same_public_names():
    names = fresh(
        "import minortrace\n"
        "print(json.dumps([n for n in dir(minortrace) if not n.startswith('_')]))"
    )
    assert names == PUBLIC_NAMES
    assert sorted(minortrace.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(set(PUBLIC_NAMES) - set(LIBRARY_MODULES)))
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(minortrace, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("minortrace.")
    assert getattr(module, name) is value


def test_library_modules_are_attributes_of_the_package():
    for name in LIBRARY_MODULES:
        assert getattr(minortrace, name) is sys.modules[f"minortrace.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        minortrace.nonesuch  # noqa: B018


def test_from_imports_work_in_a_new_interpreter():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "minortrace"
        for alias in node.names
    ]
    assert "run_bench" in names and "probe_converse" in names
    imported = fresh(
        f"from minortrace import {', '.join(names)}\n"
        "from minortrace import cli, kernels, structure\n"
        "from minortrace.matrices import Matrix\n"
        "print(json.dumps([cli.__name__, kernels.__name__, structure.__name__, Matrix.__name__]))"
    )
    assert imported == ["minortrace.cli", "minortrace.kernels", "minortrace.structure", "Matrix"]


def test_subcommands_call_the_traced_names_through_cli(monkeypatch, tmp_path, capsys):
    calls = []
    for name in ("probe_converse", "verify_identity", "exhaustive_characterization"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *args, _name=name, _real=real, **kw: calls.append(_name) or _real(*args, **kw)
        )
    a = tmp_path / "a.json"
    a.write_text(dumps(matrix_to_obj(Matrix.from_rows(IntegerRing(), [[1, 2], [3, 4]]))))
    assert cli.main(["probe", str(a)]) == 1
    assert cli.main(["verify", str(a), str(a), "--naive"]) == 1
    assert cli.main(["exhaust", "--ring", "mod:2", "--n", "2"]) == 0
    capsys.readouterr()
    assert calls == ["probe_converse", "verify_identity", "exhaustive_characterization"]


A = Matrix.from_rows(IntegerRing(), [[1, 2], [2, 4]])
ROW = Matrix.from_rows(IntegerRing(), [[1, 2]])
COL = Matrix.from_rows(IntegerRing(), [[1], [2]])
ZERO = RingElem(IntegerRing(), 0)
# each value class on the start-up path, with its fields (in the dataclass order) and values
RECORDS = [
    (IntegerRing, {}),
    (ModularRing, {"modulus": 12}),
    (PrimeFieldRing, {"p": 65537}),
    (PolynomialRing, {"base": ModularRing(4), "var": "y"}),
    (OpCounts, {"mul": 3, "add": 4}),
    (MinorIndex, {"i": 0, "j": 1, "k": 0, "l": 1}),
    (BlockSplit, {"corner": A, "last_row": ROW, "last_col": COL, "pivot": ZERO}),
    (MinorWitness, {"index": MinorIndex(0, 1, 0, 1), "value": ZERO}),
    (StructureVerdict, {"structured": True, "witness": None}),
    (OuterFactors, {"col": COL, "row": ROW}),
    (CorollaryResiduals, {"product_square": A, "trace_triple": ZERO, "trace_square": ZERO}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=lambda x: getattr(x, "__name__", ""))
def test_value_classes_keep_what_dataclasses_gave_them(cls, fields):
    values = tuple(fields.values())
    record = cls(*values)
    assert record == cls(**fields) and tuple(getattr(record, f) for f in fields) == values
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    if cls is OpCounts:  # the one mutable record: counts grow in place, and it is unhashable
        record.mul += 1
        assert record == OpCounts(4, 4) and record != OpCounts(3, 4) and OpCounts.__hash__ is None
        assert OpCounts() == OpCounts(0, 0)
        return
    try:
        expected = hash(values)
    except TypeError:  # a Matrix field, and Matrix is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == expected
    for name in [*fields, "_m"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, f) for f in fields] == list(values)
    with pytest.raises(TypeError):
        cls(*values, None)


def test_equality_knows_the_ring_family():
    assert ModularRing(5) != PrimeFieldRing(5) and ModularRing(5) == ModularRing(5)
    assert PolynomialRing(IntegerRing()) == PolynomialRing(IntegerRing(), "x")
    assert PolynomialRing(ModularRing(5)) != PolynomialRing(PrimeFieldRing(5))
    assert len({ModularRing(5), PrimeFieldRing(5), ModularRing(5)}) == 2
