"""check and probe decide from rows 1-2 when a minor there is nonzero.

They do so only on a file in the layout serialize.dumps writes, which one
re match checks, entries and all, and which is never decoded whole.  So
every answer, error and exit code must equal that of decoding the whole
file first (support.check_or_probe_full_decode), and only the rows that
decide are converted.  Any other text is decoded and decided whole, each
row converted once, and gives the same answers.
"""

import contextlib
import gc
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minortrace import IntegerRing, ModularRing, gen_structured, random_matrix
from minortrace import cli
from minortrace.cli import main
from minortrace.rings import _ResidueRing
from minortrace.serialize import dumps, matrix_rows_from_text, matrix_to_obj
from support import check_or_probe_full_decode

RING_OBJS = [
    {"kind": "int"},
    {"kind": "mod", "modulus": "12"},
    {"kind": "mod", "modulus": str(2**61 - 1)},
    {"kind": "gf", "p": "65537"},
]
BAD_ENTRIES = [
    "1-2", "-", "", "--1", "1_0", " 7", "+5", "\u0665", True, 1.5, None, ["1"],
    "9" * 4301, "-" + "9" * 4301,
]
values = st.one_of(st.integers(-3, 3), st.integers(-(2**64), 2**64))
spelled = st.one_of(values.map(str), values)  # a decimal string or a JSON number


@st.composite
def head_first_objs(draw):
    """A random head, then later rows that may hold a bad entry or a shape error."""
    width = draw(st.integers(1, 5))
    height = width if draw(st.booleans()) else draw(st.integers(1, 6))
    rows = [draw(st.lists(spelled, min_size=width, max_size=width)) for _ in range(height)]
    if len(rows) >= 2 and draw(st.booleans()):
        # row 2 a multiple of row 1: the minors of rows 1-2 vanish
        t = draw(st.integers(-3, 3))
        rows[1] = [str(t * int(x)) for x in rows[0]]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        r = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["entry", "short", "long", "empty"]))
        if fault == "entry" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
        elif fault == "short":
            rows[r] = rows[r][:-1]
        elif fault == "long":
            rows[r] = rows[r] + ["1"]
        else:
            rows[r] = []
    return {"ring": draw(st.sampled_from(RING_OBJS)), "rows": rows}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(obj=head_first_objs())
def test_check_and_probe_match_the_full_decode(tmp_path_factory, obj):
    # json.dumps writes spaces, so its text is decoded whole; dumps writes
    # the layout the byte passes check
    for write in (json.dumps, dumps):
        text = write(obj)
        path = tmp_path_factory.getbasetemp() / "head_first.json"
        path.write_text(text)
        for command in ("check", "probe"):
            assert run_main([command, str(path)]) == check_or_probe_full_decode(command, text)


@pytest.fixture
def converted(monkeypatch):
    """Every row Ring.canon_row converts over Z, Z/m and GF(p), in order."""
    rows = []
    canon_row = _ResidueRing.canon_row

    def counting(self, row):
        rows.append(tuple(row))
        return canon_row(self, row)

    monkeypatch.setattr(_ResidueRing, "canon_row", counting)
    return rows


HEAD_RINGS = [ModularRing(2**61 - 1), IntegerRing()]


@pytest.mark.parametrize("command", ["check", "probe"])
def test_a_witness_in_rows_1_2_converts_only_those_rows(tmp_path, converted, command):
    for ring in HEAD_RINGS:
        converted.clear()
        a = random_matrix(random.Random(11), ring, 256, 256)
        path = tmp_path / "random.json"
        path.write_text(dumps(matrix_to_obj(a)))
        code, _, _ = run_main([command, str(path)])
        assert code == 1
        assert converted == list(a.data[:2])


@pytest.mark.parametrize("command", ["check", "probe"])
def test_a_structured_matrix_converts_every_row_once(tmp_path, converted, command):
    for ring in HEAD_RINGS:
        converted.clear()
        a = gen_structured(11, ring, 256)
        path = tmp_path / "structured.json"
        path.write_text(dumps(matrix_to_obj(a)))
        code, _, _ = run_main([command, str(path)])
        assert code == 0
        assert converted == list(a.data)


@pytest.mark.parametrize("command", ["check", "probe"])
def test_a_spaced_file_converts_every_row_once(tmp_path, converted, command):
    """json.dumps writes spaces, so the byte check refuses its text: it is
    decoded whole, and answers as the same matrix written by dumps."""
    for ring in HEAD_RINGS:
        a = random_matrix(random.Random(7), ring, 64, 64)
        obj = matrix_to_obj(a)
        path = tmp_path / "random.json"
        path.write_text(json.dumps(obj))
        converted.clear()
        spaced = run_main([command, str(path)])
        assert converted == list(a.data)
        path.write_text(dumps(obj))
        assert spaced == run_main([command, str(path)])
        assert spaced[0] == 1


def _text(rows: str, ring: str = '{"kind":"int"}', tail: str = "") -> str:
    return '{"ring":' + ring + ',"rows":' + rows + "}" + tail


def _last(entry: str) -> str:
    """A 3x3 matrix text whose rows 1-2 are structured and whose last entry is entry."""
    return _text('[["1","2","3"],["2","4","6"],["3","6",' + entry + "]]")


def _first(entry: str) -> str:
    """A 3x3 matrix text whose rows 1-2 are structured once entry is 1."""
    return _text("[[" + entry + ',"2","3"],["2","4","6"],["3","6","9"]]')


BIG = "9" * 5000
# (id, text, whether the byte check takes its layout); a bytes text is
# written as it is
CANONICAL_LOOKING = [
    ("leading-zeros", _last('"007"'), True),
    ("minus-zero", _last('"-0"'), True),
    ("empty", _last('""'), False),
    ("lone-minus", _last('"-"'), False),
    ("double-minus", _last('"--1"'), False),
    ("inner-minus", _last('"1-2"'), False),
    ("json-escape", _last('"\\u0031"'), False),
    ("arabic-indic-digit", _last('"\u0665"'), False),
    ("leading-space", _last('" 7"'), False),
    ("4300-digits", _last('"' + "7" * 4300 + '"'), True),
    ("4301-digits", _last('"' + "7" * 4301 + '"'), False),
    ("minus-4300-digits", _last('"-' + "7" * 4300 + '"'), True),
    ("json-integer", _last("7"), False),
    ("stray-digit-in-a-row", _text('[["1"5,"2"],["3","4"]]'), False),
    ("stray-digit-between-rows", _text('[["1","2"]5,["3","4"]]'), False),
    ("stray-digit-at-the-end", _last('"7"5'), False),
    ("trailing-newline", _last('"7"') + "\n", True),
    ("trailing-crlf", _last('"7"') + "\r\n", True),
    ("trailing-cr", _last('"7"') + "\r", True),
    ("utf-8-bom", "\ufeff" + _last('"7"'), False),
    ("0xff-in-an-entry", _last('"7"').encode().replace(b'"3","6"', b'"3","\xff6"'), False),
    ("0xff-after-the-end", _last('"7"').encode() + b"\xff", False),
    ("nul-tail", _last('"7"') + "\x00", False),
    ("row-1-leading-zeros", _first('"007"'), True),
    ("row-1-minus-leading-zeros", _first('"-007"'), True),
    ("row-1-minus-zero", _first('"-0"'), True),
    ("row-1-4300-digits", _first('"' + "7" * 4300 + '"'), True),
    ("row-1-4301-digits", _first('"' + "7" * 4301 + '"'), False),
    ("stray-digit-after-row-3", _text('[["1","2"],["3","4"],["5","6"]5,["7","8"]]'), False),
    ("empty-entry-after-row-2", _text('[["1","2"],["3","4"],["5",""]]'), False),
    ("bad-entry-after-a-deciding-head", _text('[["1","2"],["3","4"],["5","1-2"]]'), False),
    ("long-entry-after-a-deciding-head", _text('[["1","2"],["3","4"],["5","' + "7" * 4301 + '"]]'), False),
    ("nx1-empty-entry", _text('[["1"],[""],["3"]]'), False),
    ("trailing-garbage", _last('"7"') + "x", False),
    ("duplicate-rows", _text('[["1","2"],["3","4"]],"rows":[["1","2"],["2","4"]]'), False),
    ("swapped-keys", '{"rows":[["1","2"],["3","4"]],"ring":{"kind":"int"}}', False),
    ("extra-key", _text('[["1","2"],["3","4"]],"x":1'), False),
    ("ring-with-a-space", _text('[["1","2"],["3","4"]]', '{"kind": "int"}'), False),
    ("modulus-json-number", _text('[["1","2"],["3","4"]]', '{"kind":"mod","modulus":12}'), False),
    ("modulus-past-the-limit", _text('[["1","2"],["3","4"]]', '{"kind":"mod","modulus":' + BIG + "}"), False),
    ("ring-5000-deep", _text('[["1"]]', '{"base":' * 5000 + '{"kind":"int"}' + "}" * 5000), False),
    ("1x1", _text('[["5"]]'), True),
    ("1xn", _text('[["1","-2","3"]]'), True),
    ("nx1", _text('[["1"],["-2"],["3"]]'), True),
    ("poly", _text('[[["1"],["2"]],[["2"],["4"]]]', '{"base":{"kind":"int"},"kind":"poly","var":"x"}'), False),
]


@pytest.mark.parametrize(
    "text, taken", [case[1:] for case in CANONICAL_LOOKING], ids=[case[0] for case in CANONICAL_LOOKING]
)
def test_canonical_looking_texts_answer_as_the_full_decode(tmp_path, monkeypatch, text, taken):
    """check, probe, verify --fast and --both, power and decompose give the
    same exit code, stdout and stderr as with the byte check switched off,
    which is the decode of the whole file as text mode reads it."""
    assert (matrix_rows_from_text(text) is not None) == taken
    path = tmp_path / "a.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    identity = tmp_path / "i.json"
    identity.write_text(_text('[["1","0","0"],["0","1","0"],["0","0","1"]]'))
    runs = [
        ["check", str(path)],
        ["probe", str(path)],
        ["verify", str(path), str(identity), "--fast"],
        ["verify", str(path), str(identity), "--both"],
        ["power", str(path), "3"],
        ["decompose", str(path)],
    ]
    got = [run_main(argv) for argv in runs]
    monkeypatch.setattr(cli, "matrix_rows_from_text", lambda text: None)
    assert got == [run_main(argv) for argv in runs]
    try:
        read = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        assert got[:2] == [(2, "", f"error: {exc}\n")] * 2
        return
    for command, outcome in zip(("check", "probe"), got):
        assert outcome == check_or_probe_full_decode(command, read)


@pytest.mark.parametrize("command", ["check", "probe"])
@pytest.mark.parametrize("make", ["random", "structured"])
def test_a_canonical_file_is_never_decoded_whole(tmp_path, monkeypatch, command, make):
    for ring in HEAD_RINGS:
        if make == "random":
            a = random_matrix(random.Random(11), ring, 256, 256)
        else:
            a = gen_structured(11, ring, 256)
        text = dumps(matrix_to_obj(a))
        path = tmp_path / "a.json"
        path.write_text(text)
        want = check_or_probe_full_decode(command, text)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "loads", _refuse)
            assert run_main([command, str(path)]) == want
        assert want[0] == (1 if make == "random" else 0)


def _refuse(text):
    raise AssertionError("the whole document was decoded")


@pytest.mark.parametrize("make", ["random", "structured"])
def test_loading_holds_no_whole_file_str(tmp_path, make):
    """Both loaders read the 256x256 Z/(2^61-1) file as bytes: beside the
    matrix they return, their peak holds the file's bytes and at most one
    pass's buffer (the de-quoted rows the decode reads), never also a str
    of the whole file.  Measured: about 1.9 times the file for a read that
    converts every row and 1.0 for rows 1-2, where reading text (a str of
    the file, its bytes again for the check, its rows as strs) took 2.0
    and 3.0."""
    ring = HEAD_RINGS[0]
    a = random_matrix(random.Random(5), ring, 256, 256) if make == "random" else gen_structured(5, ring, 256)
    path = tmp_path / "a.json"
    path.write_text(dumps(matrix_to_obj(a)))
    size = path.stat().st_size
    for load in (cli._load_matrix, lambda p: cli._load_deciding_head(p, False)[0]):
        gc.collect()
        tracemalloc.start()
        try:
            got = load(str(path))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.data == a.data[: got.rows]  # rows 1-2 alone when they hold a witness
        assert peak - kept < (1.5 if got.rows == 2 else 2.5) * size
