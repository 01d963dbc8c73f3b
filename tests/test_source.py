"""Checks on the package's source that no test of its behaviour makes.

Every module compiles with warnings turned into errors.
An invalid escape in a string literal, such as b"\\]", compiles with only a
DeprecationWarning, which a test run prints in its summary at most; where
no bytecode is cached, every run compiles the modules again and the
warning is easy to miss.

Every module uses every name it imports, so an import left behind when the
code that used it is deleted fails here instead of lingering unseen.

Every module-level function and class is named somewhere besides its own
definition, in the package, the tests, perfbench or the scripts, so a
helper left behind when its caller inlines it fails here too.

The tests' reference minor scan never names the certificate or the
function it is the reference for, so the two cannot agree by sharing code.
"""

import ast
import re
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "minortrace"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_compiles_without_a_warning(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


@pytest.mark.parametrize(
    "path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), ids=lambda path: path.name
)
def test_every_module_uses_what_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # the base of an attribute (json in json.loads) is itself an ast.Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_module_level_definition_is_named_elsewhere():
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src", "tests", "perfbench", "scripts")
        for path in (ROOT / folder).rglob("*.py")
    )
    unnamed = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # the definition itself is one mention
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2:
                unnamed.append(f"{path.name}: {name}")
    assert unnamed == []


def test_the_reference_scan_names_none_of_the_code_it_checks():
    tree = ast.parse((ROOT / "tests" / "support.py").read_text(encoding="utf-8"))
    (scan,) = (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scan_minors")
    named = set()
    for node in ast.walk(scan):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert sorted(named & {"_certify", "_pivot_sweep", "check_vanishing_minors"}) == []
