import gc
import json
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minortrace import (
    IntegerRing,
    Matrix,
    ModularRing,
    PolynomialRing,
    PrimeFieldRing,
    check_vanishing_minors,
    decompose,
    exhaustive_characterization,
    probe_converse,
    random_matrix,
)
from minortrace import serialize
from minortrace.matrices import MatrixError
from minortrace.serialize import (
    SerializeError,
    _parse_int,
    decode_rows,
    dumps,
    equivalence_report_to_obj,
    factors_to_obj,
    loads,
    matrix_from_obj,
    matrix_rows_from_text,
    matrix_to_obj,
    parse_ring_spec,
    probe_report_to_obj,
    ring_from_obj,
    ring_to_obj,
    verdict_to_obj,
)
from support import (
    ALL_RINGS,
    INT,
    POLY_INT,
    loads_per_number,
    matrices,
    matrix_from_obj_per_entry,
)


def test_ring_round_trips():
    for ring in ALL_RINGS + [PolynomialRing(ModularRing(7), "y")]:
        assert ring_from_obj(ring_to_obj(ring)) == ring


def test_ring_json_shapes():
    assert ring_to_obj(INT) == {"kind": "int"}
    assert ring_to_obj(ModularRing(4)) == {"kind": "mod", "modulus": "4"}
    assert ring_to_obj(PrimeFieldRing(5)) == {"kind": "gf", "p": "5"}
    assert ring_to_obj(POLY_INT) == {"kind": "poly", "base": {"kind": "int"}, "var": "x"}


def test_ring_from_obj_errors():
    for bad in (
        {"kind": "flubber"},
        {"kind": "mod", "modulus": "one"},
        {"kind": "mod", "modulus": "1"},
        {"kind": "gf", "p": "4"},
        {"no": "kind"},
        "int",
    ):
        with pytest.raises(SerializeError):
            ring_from_obj(bad)


def test_parse_ring_spec():
    assert parse_ring_spec("int") == IntegerRing()
    assert parse_ring_spec("mod:97") == ModularRing(97)
    assert parse_ring_spec("gf:5") == PrimeFieldRing(5)
    assert parse_ring_spec("poly:int:x") == POLY_INT
    assert parse_ring_spec("poly:mod:7:y") == PolynomialRing(ModularRing(7), "y")
    for bad in ("flubber", "mod:x", "gf:4", "poly:", "poly:int"):
        with pytest.raises(SerializeError):
            parse_ring_spec(bad)


@pytest.mark.parametrize("depth", [3, 4, 1200])
def test_a_ring_spec_past_the_depth_cap_is_refused_while_peeled(depth):
    spec = "poly:" * depth + "int" + ":x" * depth
    with pytest.raises(SerializeError, match="^polynomial nesting is capped at depth 2$"):
        parse_ring_spec(spec)


def test_matrix_round_trip_per_ring(ring):
    import random

    from minortrace import random_matrix

    rng = random.Random(97)
    for _ in range(50):
        m = random_matrix(rng, ring, rng.randint(1, 4), rng.randint(1, 4))
        assert matrix_from_obj(matrix_to_obj(m)) == m


@given(m=matrices(POLY_INT, max_n=3, square=False))
@settings(max_examples=50, deadline=None)
def test_polynomial_matrix_round_trip(m):
    assert matrix_from_obj(matrix_to_obj(m)) == m


def test_byte_canonical_round_trip():
    m = Matrix.from_rows(INT, [[3, 4], [6, 8]])
    text = dumps(matrix_to_obj(m))
    again = dumps(matrix_to_obj(matrix_from_obj(loads(text))))
    assert text == again
    assert "\n" not in text and " " not in text


def test_arbitrary_precision_survives():
    big = 2**200 + 17
    m = Matrix.from_rows(INT, [[big, -big], [0, 1]])
    obj = matrix_to_obj(m)
    assert obj["rows"][0][0] == str(big)
    assert matrix_from_obj(obj) == m


def test_residues_are_emitted_reduced():
    m = Matrix.from_rows(ModularRing(4), [[6, -1], [2, 3]])
    assert matrix_to_obj(m)["rows"] == [["2", "3"], ["2", "3"]]


def test_matrix_from_obj_errors():
    with pytest.raises(SerializeError):
        matrix_from_obj({"rows": [["1"]]})
    with pytest.raises(SerializeError):
        matrix_from_obj({"ring": {"kind": "int"}, "rows": "nope"})
    with pytest.raises(SerializeError):
        matrix_from_obj({"ring": {"kind": "int"}, "rows": [["x"]]})
    with pytest.raises(SerializeError):
        matrix_from_obj({"ring": {"kind": "poly", "base": {"kind": "int"}}, "rows": [["1"]]})
    from minortrace import ShapeMismatch

    with pytest.raises(ShapeMismatch):
        matrix_from_obj({"ring": {"kind": "int"}, "rows": [["1", "2"], ["3"]]})


def test_loads_rejects_bad_json():
    with pytest.raises(SerializeError):
        loads("{not json")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def json_texts(draw):
    text = json.dumps(draw(JSON_VALUES))
    if draw(st.booleans()):  # a number past the digit limit, in a list
        sign = draw(st.sampled_from(["", "-"]))
        text = f"[{text}, {sign}{'9' * draw(st.integers(4301, 4400))}]"
    if draw(st.booleans()):  # cut short, so the text may end in a syntax error
        text = text[: draw(st.integers(0, len(text)))]
    return text


@given(text=json_texts())
@settings(max_examples=300, deadline=None)
def test_loads_matches_the_per_number_decode(text):
    def outcome(decode):
        try:
            return repr(decode(text))  # repr tells 1, 1.0 and True apart
        except SerializeError as exc:
            return str(exc)

    assert outcome(loads) == outcome(loads_per_number)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[], ["1_0"]], "element: expected a decimal integer, got '1_0'"),
        ([["1", "2"], ["3"], ["x"]], "element: expected a decimal integer, got 'x'"),
        ([[1, 2], [3], [True]], "element: expected a decimal integer, got True"),
    ],
)
def test_a_bad_entry_wins_over_an_earlier_shape_error(rows, message):
    with pytest.raises(SerializeError) as info:
        matrix_from_obj({"ring": {"kind": "int"}, "rows": rows})
    assert str(info.value) == message


LONG = "9" * 4301  # one digit past the default int/str limit
ENTRY_POOL = [
    "0", "-0", "7", "-7", "007", "12", "-13", "65536", "65537", str(2**61), str(-(2**64) - 3),
    0, 1, -1, 12, 65537, 2**61 - 1, -(2**70),
    "1_0", " 7", "7 ", "+5", "", "-", "--1", "1-2", "1,2", "\u0665", "1\u0662", "\ud800",
    True, False, 1.5, None, [1], ["1"], LONG, "-" + LONG,
]
RING_OBJS = [
    {"kind": "int"},
    {"kind": "mod", "modulus": "12"},
    {"kind": "mod", "modulus": str(2**61 - 1)},
    {"kind": "gf", "p": "65537"},
]


@st.composite
def matrix_objs(draw):
    width = draw(st.integers(0, 4))
    valid = st.sampled_from(ENTRY_POOL[:18])
    strings = st.sampled_from(ENTRY_POOL[:11])
    numbers = st.sampled_from(ENTRY_POOL[11:18])
    anything = st.sampled_from(ENTRY_POOL)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        n = width if draw(st.booleans()) else draw(st.integers(0, 5))
        entries = draw(st.sampled_from([strings, numbers, valid, anything]))
        rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return {"ring": draw(st.sampled_from(RING_OBJS)), "rows": rows}


def _outcome(decode, obj):
    try:
        return decode(obj)
    except Exception as exc:  # the exception's type and text are the outcome
        return type(exc), str(exc)


@given(obj=matrix_objs())
@settings(max_examples=400, deadline=None)
def test_row_decode_matches_the_per_entry_decode(obj):
    assert _outcome(matrix_from_obj, obj) == _outcome(matrix_from_obj_per_entry, obj)


@pytest.mark.parametrize("spec", ["int", f"mod:{2**61 - 1}", "gf:65537"])
def test_decode_peak_memory_is_about_the_matrix_it_returns(spec):
    ring = parse_ring_spec(spec)
    want = random_matrix(random.Random(5), ring, 256, 256)
    obj = loads(dumps(matrix_to_obj(want)))
    gc.collect()
    tracemalloc.start()
    try:
        got = matrix_from_obj(obj)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    # the rows stream into the matrix: no decoded copy of the whole matrix
    assert peak <= 1.1 * size


def _int_takes(row) -> bool:
    try:
        list(map(int, row))
    except ValueError:
        return False
    return True


def _per_entry(row):
    return [_parse_int(x, "element") for x in row]


def _row_decode(row):
    """The one row of a Z matrix object with that row, decoded, as a list."""
    return list(matrix_from_obj({"ring": {"kind": "int"}, "rows": [row]}).data[0])


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_row_check_takes_exactly_the_rows_int_takes(limit):
    """Over rows of digits, minus signs and empty strings, JSON integers
    and True, a row whose every entry int() takes decodes to the ints
    _parse_int gives; the rest raise _parse_int's error for their first
    bad entry.  Long entries sit around the digit limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        around = limit or 4300
        short = st.text(alphabet="-0123456789", max_size=5)
        long = st.builds(
            lambda head, k: head + "7" * k,
            st.sampled_from(["", "-", "--", "7-", "-0"]),
            st.integers(around - 2, around + 1),
        )
        number = st.one_of(st.integers(-(2**64), 2**64), st.just(True))
        rows = st.one_of(
            st.lists(st.one_of(short, short, long), min_size=1, max_size=5),
            st.lists(st.one_of(short, long, number), min_size=1, max_size=5),
        )

        @given(row=rows)
        @settings(max_examples=300, deadline=None)
        def check(row):
            got = _outcome(_row_decode, row)
            assert got == _outcome(_per_entry, row)
            valid = all(type(x) is int or type(x) is str and _int_takes([x]) for x in row)
            assert isinstance(got, list) == valid

        check()
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("filler", ["12345678", "-1234567"])
@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("at", [0, 40, -1])
def test_row_check_at_the_digit_limit(limit, filler, sign, past, at):
    """An entry of exactly the limit's digits decodes and one digit more
    raises, with or without a minus sign, among short entries whose digits
    together pass the limit."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        row = [filler] * (limit // 7 + 1)
        long = sign + "7" * (limit + past)
        row.insert(at % (len(row) + 1), long)
        if past:
            with pytest.raises(SerializeError, match=f"^element: {limit + 1} digits"):
                _row_decode(row)
        else:
            assert _row_decode(row) == _per_entry(row)
    finally:
        sys.set_int_max_str_digits(saved)


def _full_decode(text):
    try:
        return matrix_from_obj(loads(text))
    except (SerializeError, MatrixError):
        return None


def _full_read(text):
    """The byte check and one decode of the rows, as cli's full read runs
    them: a Matrix, or None where it falls back to the full decode."""
    taken = matrix_rows_from_text(text.encode())
    rows = taken and decode_rows(taken[2])
    return rows and Matrix.from_rows(taken[0], rows)


JSON_INTEGER = re.compile("-?(0|[1-9][0-9]*)")


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_the_text_check_takes_exactly_what_the_full_decode_takes(limit):
    """The full read of a canonical text (matrix_rows_from_text, then
    decode_rows) on the text dumps writes over Z, Z/12, Z/(2^61-1) and
    GF(65537): it gives the full decode's Matrix whenever every entry is a
    JSON integer the full decode takes, and on every other text, and every
    text one byte away (a byte inserted, deleted or replaced), it gives
    that Matrix or falls back."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        around = limit or 4300
        valid = st.integers(-999, 999).map(str)
        short = st.text(alphabet="-0123456789", max_size=4)
        long = st.builds(
            lambda head, k: head + "7" * k,
            st.sampled_from(["", "-", "7-"]),
            st.integers(around - 1, around + 1),
        )
        entries = st.one_of(*[valid] * 6, short, long)

        @given(
            width=st.integers(1, 3),
            height=st.integers(1, 3),
            ring=st.sampled_from(RING_OBJS),
            tail=st.sampled_from(["", "\n", " \t\r\n"]),
            data=st.data(),
        )
        @settings(max_examples=150, deadline=None)
        def check(width, height, ring, tail, data):
            rows = data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                      min_size=height, max_size=height))
            text = dumps({"ring": ring, "rows": rows}) + tail
            want, got = _full_decode(text), _full_read(text)
            if want is not None and all(JSON_INTEGER.fullmatch(x) for row in rows for x in row):
                assert got == want
            assert got is None or got == want
            if len(text) > 200:  # a long entry: editing each of its digits shows nothing new
                return
            for at in range(len(text) + 1):
                for byte in '70-",[] ':
                    for edited in (text[:at] + byte + text[at:], text[:at] + byte + text[at + 1 :]):
                        got = _full_read(edited)
                        assert got is None or got == _full_decode(edited)
                edited = text[:at] + text[at + 1 :]
                got = _full_read(edited)
                assert got is None or got == _full_decode(edited)

        check()
    finally:
        sys.set_int_max_str_digits(saved)


def _canonical(text) -> bool:
    """Whether text is in the layout matrix_rows_from_text takes, said plainly.

    An ASCII text whose JSON object has exactly the keys "ring" and "rows",
    that dumps writes byte for byte but for trailing whitespace, over a Z,
    Z/m or GF(p) ring that re-encodes as written, with a nonempty
    rectangle of nonempty rows of strings _parse_int takes.
    """
    if not text.isascii():
        return False
    if isinstance(text, bytes):
        text = text.decode()
    try:
        obj = json.loads(text)
    except ValueError:  # JSONDecodeError, or a JSON number past the digit limit
        return False
    if not (type(obj) is dict and obj.keys() == {"ring", "rows"}):
        return False
    if text.rstrip(" \t\n\r") != _json_dumps(obj):
        return False
    try:
        ring = ring_from_obj(obj["ring"])
    except SerializeError:
        return False
    if isinstance(ring, PolynomialRing) or ring_to_obj(ring) != obj["ring"]:
        return False
    rows = obj["rows"]
    if not (type(rows) is list and rows and all(type(r) is list and r for r in rows)):
        return False
    if any(len(r) != len(rows[0]) for r in rows):
        return False
    entries = [x for r in rows for x in r]
    if not all(type(x) is str for x in entries):
        return False
    try:
        for x in entries:
            _parse_int(x, "element")
    except SerializeError:
        return False
    return True


@st.composite
def edited_matrix_texts(draw, around):
    """dumps of a Z, Z/12, Z/(2^61-1) or GF(65537) matrix, then maybe a bad
    entry, a JSON number entry, a ragged row, a whitespace tail or a
    one-byte edit."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    valid = st.integers(-999, 999).map(str)
    rows = [[draw(valid) for _ in range(width)] for _ in range(height)]
    bad = st.sampled_from(
        ["", "-", "--1", "1-2", "7-", "007", "-0", "-007", " 7", "1_0", "+5", "\u0665", "1.5",
         "7" * around, "-" + "7" * around, "7" * (around + 1), "-" + "7" * (around + 1)]
    )
    for _ in range(draw(st.integers(0, 2))):
        r, c = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        fault = draw(st.sampled_from(["entry", "number", "short", "long", "empty", "none"]))
        if fault == "entry" and c < len(rows[r]):
            rows[r][c] = draw(bad)
        elif fault == "number" and c < len(rows[r]):
            rows[r][c] = draw(st.integers(-999, 999))
        elif fault == "short":
            rows[r] = rows[r][:-1]
        elif fault == "long":
            rows[r] = rows[r] + ["1"]
        elif fault == "empty":
            rows[r] = []
    if draw(st.integers(0, 9)) == 0:
        rows = []
    text = dumps({"ring": draw(st.sampled_from(RING_OBJS)), "rows": rows}).encode()
    text += draw(st.sampled_from([b"", b"\n", b" \t\r\n", b"\x0b", b"\x00", b"x"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(list(b'70-",[]{}: \n') + [0xFF]))
        text = draw(st.sampled_from([
            text[:at] + bytes([byte]) + text[at:],
            text[:at] + bytes([byte]) + text[at + 1 :],
            text[:at] + text[at + 1 :],
        ]))
    return text


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_the_text_check_takes_exactly_the_canonical_texts(limit):
    """matrix_rows_from_text takes a text, as a file's bytes or as stdin's
    str, exactly when the plain reference _canonical calls it canonical,
    and then gives the width of its rows; with square set, exactly when
    also its row count equals that width, and then gives the same."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:

        @given(text=edited_matrix_texts(limit or 4300))
        @settings(max_examples=300, deadline=None)
        def check(text):
            want = _canonical(text)
            rows = json.loads(text)["rows"] if want else None
            for form in (text, text.decode("latin-1")):
                taken = matrix_rows_from_text(form)
                assert (taken is not None) == want
                square = matrix_rows_from_text(form, square=True)
                assert (square is not None) == (want and len(rows) == len(rows[0]))
                if taken:
                    assert taken[1] == len(rows[0])
                if square:
                    assert square == taken

        check()
    finally:
        sys.set_int_max_str_digits(saved)


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


DECIMALS = st.text(alphabet="-0123456789", max_size=4)
ODD_STRINGS = st.text(alphabet='07-"\\\x00\x1f\x7f é \ud800', max_size=3)
ROW_ENTRIES = st.one_of(
    DECIMALS,
    ODD_STRINGS,
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(DECIMALS, max_size=3),  # a polynomial entry
)
ROWS = st.one_of(
    st.lists(st.lists(DECIMALS, min_size=1, max_size=4), max_size=4),
    st.lists(st.lists(DECIMALS | ODD_STRINGS, min_size=1, max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(ROW_ENTRIES, max_size=4), max_size=4),  # empty, ragged and mixed rows
    JSON_VALUES,
)


@st.composite
def emitted_values(draw):
    matrix = {"ring": draw(st.sampled_from(RING_OBJS)), "rows": draw(ROWS)}
    if draw(st.booleans()):
        matrix[draw(st.text(max_size=3))] = draw(JSON_VALUES)
    shape = draw(st.sampled_from(["matrix", "report", "nested", "other"]))
    if shape == "matrix":
        return matrix
    if shape == "report":  # one matrix object under two keys, as verify --both writes it
        keys = draw(st.lists(st.text(max_size=3), min_size=2, max_size=4, unique=True))
        report = {key: draw(JSON_VALUES) for key in keys}
        report[keys[0]] = report[keys[-1]] = matrix
        return report
    if shape == "nested":
        return {"factors": {"col": matrix, "row": matrix}, "mismatches": [matrix]}
    return draw(JSON_VALUES)


@given(value=emitted_values())
@settings(max_examples=500, deadline=None)
def test_dumps_is_byte_identical_to_json_dumps(value):
    assert dumps(value) == _json_dumps(value)


def test_a_matrix_under_two_keys_is_row_joined_once(monkeypatch):
    m = matrix_to_obj(random_matrix(random.Random(3), ModularRing(2**61 - 1), 12, 12))
    report = {"fast": m, "naive": m, "agree": True}
    real = serialize._rows_text
    joined = []
    monkeypatch.setattr(serialize, "_rows_text", lambda rows: joined.append(rows) or real(rows))
    assert dumps(report) == _json_dumps(report)
    assert [rows for rows in joined if rows is m["rows"]] == [m["rows"]]
    assert real(m["rows"]) is not None  # decimal rows take the join


def test_reports_without_a_matrix_at_the_top_are_one_encoder_call(monkeypatch):
    ring = IntegerRing()
    a = Matrix.from_rows(ring, [[1, 2], [3, 4]])
    reports = [
        verdict_to_obj(ring, check_vanishing_minors(a)),  # its witness has "rows" and "cols"
        probe_report_to_obj(ring, probe_converse(a)),
        factors_to_obj(decompose(Matrix.from_rows(ring, [[2, 4], [3, 6]]))),
        equivalence_report_to_obj(exhaustive_characterization(ModularRing(2), 2)),
    ]
    real = serialize._encode
    calls = []
    monkeypatch.setattr(serialize, "_encode", lambda value: calls.append(value) or real(value))
    for report in reports:
        calls.clear()
        assert dumps(report) == _json_dumps(report)
        assert calls == [report]
