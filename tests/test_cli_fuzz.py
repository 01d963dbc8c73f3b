"""Fuzz matrix JSON through the CLI: every input ends in an exit code, never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minortrace.cli import main
from minortrace.serialize import dumps

SMALL_MODULI = [2, 3, 4, 5, 6, 8, 12, 65537, 2**61 - 1]

moduli = st.one_of(
    st.sampled_from(SMALL_MODULI),
    st.sampled_from(SMALL_MODULI).map(str),
    st.integers(-3, 2**70),
    st.integers(-3, 2**70).map(str),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, "0", "1", "-5", "abc", "", None, [5]]),
)

scalar_rings = st.one_of(
    st.just({"kind": "int"}),
    st.builds(lambda m: {"kind": "mod", "modulus": m}, moduli),
    st.builds(lambda p: {"kind": "gf", "p": p}, moduli),
    st.builds(lambda k: {"kind": k}, st.sampled_from(["quaternion", "", "INT", 5, None])),
    st.sampled_from([{"modulus": "5"}, None, "int", 3, []]),
)


def rings(depth=3):
    """Ring objects, valid and not, with polynomial nesting up to depth."""
    if depth == 0:
        return scalar_rings
    poly = st.builds(
        lambda base, var: {"kind": "poly", "base": base, **var},
        rings(depth - 1),
        st.sampled_from([{"var": "x"}, {"var": "y"}, {}, {"var": 3}, {"var": None}]),
    )
    return st.one_of(scalar_rings, poly)


scalar_elems = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-20, 20),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "x", "1.5", " 7", "0x1", "1_0", "-0"]),
)
elems = st.recursive(scalar_elems, lambda inner: st.lists(inner, max_size=3), max_leaves=6)

# rows of up to 4 x 4: ragged, empty, mixed element types, polynomial arrays
rows = st.one_of(
    st.lists(st.lists(elems, max_size=4), max_size=4),
    st.sampled_from([None, "rows", {}, [1, 2]]),
)


@st.composite
def well_formed(draw):
    """A matrix whose ring and entries mostly fit, so the commands get to run."""
    poly_depth = draw(st.integers(0, 2))
    ring = draw(st.sampled_from([{"kind": "int"}, {"kind": "mod", "modulus": "4"},
                                 {"kind": "mod", "modulus": "12"}, {"kind": "gf", "p": "5"}]))
    for _ in range(poly_depth):
        ring = {"kind": "poly", "base": ring, "var": "x"}
    entry = st.integers(-9, 9).map(str)
    for _ in range(poly_depth):
        entry = st.lists(entry, max_size=3)
    n = draw(st.integers(1, 4))
    shape = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return {"ring": ring, "rows": draw(shape)}


matrix_objects = st.one_of(
    well_formed(),
    st.fixed_dictionaries({"ring": rings(), "rows": rows}),
    st.fixed_dictionaries({}, optional={"ring": rings(), "rows": rows}),
)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(obj=matrix_objects)
def test_matrix_json_never_escapes_main(tmp_path_factory, obj):
    path = tmp_path_factory.getbasetemp() / "fuzz_matrix.json"
    path.write_text(json.dumps(obj))
    for argv in (["check", str(path)], ["probe", str(path)],
                 ["verify", str(path), str(path), "--fast"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        text = out.getvalue()
        if text:
            assert text.count("\n") == 1 and text.endswith("\n"), argv
            assert dumps(json.loads(text)) == text[:-1], argv
