"""Checks on the package's source that no test of its behaviour makes.

Every module compiles with warnings turned into errors.
An invalid escape in a string literal, such as b"\\]", compiles with only a
DeprecationWarning, which a test run prints in its summary at most; where
no bytecode is cached, every run compiles the modules again and the
warning is easy to miss.

Every module uses every name it imports, so an import left behind when the
code that used it is deleted fails here instead of lingering unseen.
"""

import ast
import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minortrace"


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
