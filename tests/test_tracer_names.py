"""The traced benchmark rebinds library names; each one must stay bound.

perfbench/tracing.py looks every entry of TRACED_NAMES up on its owner, so
a refactor that moves or deletes one of those names breaks the traced run.
This test catches that in the ordinary test suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_bound_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED_NAMES
    unbound = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in tracing.TRACED_NAMES
        if attr not in vars(owner)
    ]
    assert unbound == []
