"""Every module of the package compiles with warnings turned into errors.

An invalid escape in a string literal, such as b"\\]", compiles with only a
DeprecationWarning, which a test run prints in its summary at most; where
no bytecode is cached, every run compiles the modules again and the
warning is easy to miss.
"""

import warnings
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minortrace"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_module_compiles_without_a_warning(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
