"""JSON encodings for rings, elements, matrices, and CLI reports.

Emission is byte-canonical (sorted keys, no whitespace), and integers ride
as decimal strings so arbitrary precision survives any JSON implementation.
Integers in and out are capped at Python's int/str digit limit (4300 by
default); a longer one is a SerializeError that gives its digit count.
Ring encodings:

    {"kind":"int"}
    {"kind":"mod","modulus":"<decimal>"}
    {"kind":"gf","p":"<decimal>"}
    {"kind":"poly","base":<ring>,"var":"x"}

Elements of the integer-like rings are decimal strings; polynomial elements
are arrays of base-ring elements, lowest degree first.  A matrix is
{"ring": <ring>, "rows": [[<elem>, ...], ...]}.  Input integers, in ring
specs too, are JSON integers or plain decimal strings: ASCII digits after
an optional minus, with no plus, space or underscore.

A matrix text in the layout dumps writes for a Z, Z/m or GF(p) matrix is
read as bytes: matrix_rows_from_text matches its rows against one re
pattern, and decode_rows converts rows of it in one JSON decode.  Any
other text, and one with an entry that is no JSON integer ("007"), is
decoded whole by loads and matrix_from_obj, which reads each entry by the
rule ring parameters use.

Matrices are emitted a row at a time: matrix_to_obj turns each row into
decimal strings, and dumps writes a row of decimal strings with one join
instead of one encoder step per entry.  A matrix under two keys of the
value written (verify --both puts one matrix under "fast" and "naive"
when they agree) is written once.
"""

from __future__ import annotations

import json
import math
import re
import sys
from itertools import chain

from .matrices import Matrix
from .rings import (
    IntegerRing,
    ModularRing,
    PolynomialRing,
    PrimeFieldRing,
    Ring,
)
from .structure import OuterFactors, StructureVerdict


class SerializeError(Exception):
    """Malformed or inconsistent serialized input."""


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii  # a str as a JSON string, as _encode writes it
_LIST_ONLY = frozenset([list])
_STR_ONLY = frozenset([str])
_MATRIX_KEYS = frozenset(["ring", "rows"])


def dumps(obj) -> str:
    """Canonical JSON: byte-identical to json.dumps(obj, sort_keys=True, separators=(",", ":")).

    A matrix object (exactly the keys "ring" and "rows") is written with
    its rows joined: rows of decimal strings, as every Z, Z/m and GF(p)
    matrix has, take one join per row instead of one encoder step per
    entry.  Matrices are looked for in two places only: the value itself
    and the values of its keys.  A matrix under two of those keys (the
    same object) is written once and its text reused.  A value with no
    matrix in those places (a verdict, a witness, decompose's factors, an
    exhaust report) is one json.dumps call.
    """
    if _is_matrix(obj):
        return _object_text(obj, _value_text)
    if type(obj) is not dict or not _STR_ONLY.issuperset(map(type, obj)):
        return _encode(obj)
    # keyed by identity, so a matrix under two keys is written once
    texts = {id(v): v for v in obj.values() if _is_matrix(v)}
    if not texts:
        return _encode(obj)
    for key, matrix in texts.items():
        texts[key] = _object_text(matrix, _value_text)
    return _object_text(obj, lambda v: texts.get(id(v)) or _encode(v))


def _is_matrix(obj) -> bool:
    return type(obj) is dict and obj.keys() == _MATRIX_KEYS


def _object_text(obj: dict, value_text) -> str:
    """A str-keyed dict as canonical JSON, each value written by value_text."""
    return "{" + ",".join([f"{_quote(k)}:{value_text(obj[k])}" for k in sorted(obj)]) + "}"


def _value_text(value) -> str:
    return _rows_text(value) or _encode(value)


def _rows_text(rows) -> str | None:
    """A list of rows as JSON, one join per row, or None where that does not apply.

    It applies to a nonempty list of nonempty lists of strings made of
    ASCII digits and minus signs, which JSON writes unescaped.
    """
    if not (type(rows) is list and rows and _LIST_ONLY.issuperset(map(type, rows)) and all(rows)):
        return None
    try:
        entries = "".join(chain.from_iterable(rows))
    except TypeError:  # not all strings
        return None
    # bytes.isdigit accepts exactly 0-9
    if not (entries.isascii() and entries.encode().replace(b"-", b"").isdigit()):
        return None
    return '[["' + '"],["'.join(map('","'.join, rows)) + '"]]'


def _over_limit(what: str, digits) -> SerializeError:
    return SerializeError(
        f"{what}: {digits} digits, above the limit of "
        f"{sys.get_int_max_str_digits()} for a decimal integer"
    )


_DECODER = json.JSONDecoder()
# calls back into Python once per JSON number, so it runs only to name the
# digit count of a number past the int/str digit limit
_DIGIT_COUNT_DECODER = json.JSONDecoder(parse_int=lambda text: _parse_int(text, "JSON number"))


def loads(text: str):
    try:
        try:
            return _DECODER.decode(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # int() refused a JSON number past the digit limit
            return _DIGIT_COUNT_DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise SerializeError(f"invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Rings

def ring_to_obj(ring: Ring) -> dict:
    if isinstance(ring, IntegerRing):
        return {"kind": "int"}
    if isinstance(ring, ModularRing):
        return {"kind": "mod", "modulus": str(ring.modulus)}
    if isinstance(ring, PrimeFieldRing):
        return {"kind": "gf", "p": str(ring.p)}
    if isinstance(ring, PolynomialRing):
        return {"kind": "poly", "base": ring_to_obj(ring.base), "var": ring.var}
    raise SerializeError(f"no encoding for ring {ring!r}")


def _parse_int(value, what: str) -> int:
    """A JSON integer, or a string of ASCII digits after an optional minus."""
    if isinstance(value, str):
        # an ASCII digit is one of 0-9
        if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            try:
                return int(value)
            except ValueError:  # longer than int() converts
                raise _over_limit(what, len(value.lstrip("-"))) from None
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SerializeError(f"{what}: expected a decimal integer, got {value!r}")


def ring_from_obj(obj) -> Ring:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SerializeError(f"ring object expected, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "int":
            return IntegerRing()
        if kind == "mod":
            return ModularRing(_parse_int(obj.get("modulus"), "modulus"))
        if kind == "gf":
            return PrimeFieldRing(_parse_int(obj.get("p"), "p"))
        if kind == "poly":
            var = obj.get("var", "x")
            if not isinstance(var, str):
                raise SerializeError(f"var: expected a string, got {var!r}")
            return PolynomialRing(ring_from_obj(obj.get("base")), var)
    except ValueError as exc:
        raise SerializeError(str(exc)) from exc
    raise SerializeError(f"unknown ring kind {kind!r}")


def parse_ring_spec(spec: str) -> Ring:
    """Ring spec strings: "int", "mod:<m>", "gf:<p>", "poly:<base>:<var>".

    The spec is rewritten into the ring object it spells, and ring_from_obj
    decodes that, so a spec and its object give the same ring or error.
    """
    # "poly:" layers are peeled outermost first, so a spec nested past the
    # depth cap is refused before its core is read
    variables = []
    while spec != "int":
        kind, colon, rest = spec.partition(":")
        if colon and kind in ("mod", "gf"):
            obj = {"kind": kind, "modulus" if kind == "mod" else "p": rest}
            break
        base, _, var = rest.rpartition(":")
        if not (kind == "poly" and base):
            raise SerializeError(f"bad ring spec {spec!r}")
        if len(variables) == 2:
            raise SerializeError("polynomial nesting is capped at depth 2")
        variables.append(var)
        spec = base
    else:
        obj = {"kind": "int"}
    for var in reversed(variables):
        obj = {"kind": "poly", "base": obj, "var": var}
    return ring_from_obj(obj)


# ---------------------------------------------------------------------------
# Elements and matrices

def elem_to_obj(ring: Ring, value):
    if isinstance(ring, PolynomialRing):
        return [elem_to_obj(ring.base, c) for c in value]
    try:
        return str(value)
    except ValueError:  # longer than str() converts
        n = abs(value)
        e = int(math.log10(n))  # floor(log10 n) give or take 1; the comparisons settle it
        raise _over_limit("output integer", e + (n >= 10**e) + (n >= 10 ** (e + 1))) from None


def elem_from_obj(ring: Ring, obj):
    """Decode one element into raw form; Matrix.from_rows canonicalizes it."""
    if isinstance(ring, PolynomialRing):
        if not isinstance(obj, list):
            raise SerializeError(f"polynomial element expects an array, got {obj!r}")
        return [elem_from_obj(ring.base, c) for c in obj]
    return _parse_int(obj, "element")


def matrix_to_obj(m: Matrix) -> dict:
    ring = m.ring
    if isinstance(ring, PolynomialRing):
        rows = [[elem_to_obj(ring, x) for x in row] for row in m.data]
    else:
        try:
            rows = [[str(x) for x in row] for row in m.data]  # measured faster than map(str, row)
        except ValueError:  # past the digit cap; elem_to_obj raises with the digit count
            rows = [[elem_to_obj(ring, x) for x in row] for row in m.data]
    return {"ring": ring_to_obj(ring), "rows": rows}


def matrix_rows_from_text(data) -> tuple[Ring, int, bytes] | None:
    """The ring, the row width c and the bytes of a text in the layout dumps writes, or None.

    data is a file's bytes or stdin's text, in the layout
    {"ring":R,"rows":[["d",...],...]} plus trailing whitespace (the inverse of
    _rows_text): R a Z, Z/m or GF(p) ring as dumps writes it, and the rows
    an r x c matrix, r, c >= 1, whose entries _parse_int takes (ASCII
    digits after an optional minus, at most the int/str digit limit of
    them), checked in one re match with c read off row 1.  Any other text
    gives None.
    """
    if type(data) is str and data.isascii():  # stdin's text
        data = data.encode()
    if not (data.isascii() and data.startswith(b'{"ring":')):
        return None
    key = data.find(b',"rows":[[')
    if key < 8:
        return None
    width = data.count(b",", key + 10, data.find(b"]", key)) + 1
    limit = sys.get_int_max_str_digits()
    entry = rb'"-?+[0-9]' + (b"{1,%d}+" % limit if limit else b"++") + b'"'
    # possessive (a failed match retries nothing) but for the fixed count,
    # which matched faster plain
    row = rb"\[" + entry + rb"(?:," + entry + rb"){%d}\]" % (width - 1)
    rows = rb',"rows":\[' + row + rb"(?:," + row + rb")*+\]\}[ \t\n\r]*+"
    if not re.compile(rows).fullmatch(data, key):
        return None
    # the ring last: a text whose rows are not canonical is not decoded twice
    ring_text = data[8:key].decode()
    try:
        ring = ring_from_obj(loads(ring_text))
    except (SerializeError, RecursionError):
        return None
    if isinstance(ring, PolynomialRing) or _encode(ring_to_obj(ring)) != ring_text:
        return None
    return ring, width, data


def decode_rows(text: bytes) -> list | None:
    """The rows in text, as lists of ints, in one JSON decode.

    text is a text matrix_rows_from_text takes, or its rows 1-2 cut out as
    [[row,row]]; None when an entry has leading zeros ("007", "-00").
    """
    text = text.translate(None, b'"').decode()
    try:
        return _DECODER.raw_decode(text, text.index("[["))[0]
    except ValueError:  # JSONDecodeError
        return None


def matrix_from_obj(obj) -> Matrix:
    """Decode a matrix object entry by entry through elem_from_obj.

    Errors come in order: the ring, then the first bad entry in row order,
    then the shape.
    """
    if not isinstance(obj, dict) or "ring" not in obj or "rows" not in obj:
        raise SerializeError('matrix object needs "ring" and "rows"')
    ring = ring_from_obj(obj["ring"])
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SerializeError('"rows" must be an array of arrays')
    return Matrix.from_rows(ring, ([elem_from_obj(ring, x) for x in r] for r in rows))


def output_bits_over_limit(bits: int) -> SerializeError | None:
    """The digit-cap error for an output integer of at least `bits` bits.

    None when that many bits do not pass the cap; emitting the integer then
    gives its exact digit count.  An integer of b bits is at least
    2**(b-1), so it has more than 0.30102 (b-1) decimal digits.
    """
    limit = sys.get_int_max_str_digits()
    digits = (bits - 1) * 30102 // 100000 + 1
    if not limit or digits <= limit:
        return None
    return _over_limit("output integer", f"at least {digits}")


# ---------------------------------------------------------------------------
# Reports (indices go out 1-based, matching written conventions)

def verdict_to_obj(ring: Ring, verdict: StructureVerdict) -> dict:
    out: dict = {"structured": verdict.structured}
    w = verdict.witness
    if w is not None:
        idx = w.index
        out["witness"] = {
            "rows": [idx.i + 1, idx.j + 1],
            "cols": [idx.k + 1, idx.l + 1],
            "value": elem_to_obj(ring, w.value.value),
        }
    return out


def probe_report_to_obj(ring: Ring, report: ProbeReport) -> dict:
    out: dict = {"structured": report.structured}
    w = report.witness
    if w is not None:
        out["witness"] = {
            "minor_rows": [w.minor.i + 1, w.minor.j + 1],
            "minor_cols": [w.minor.k + 1, w.minor.l + 1],
            "minor_value": elem_to_obj(ring, w.minor_value.value),
            "unit_row": w.unit_row + 1,
            "unit_col": w.unit_col + 1,
            "entry_row": w.entry_row + 1,
            "entry_col": w.entry_col + 1,
            "lhs": elem_to_obj(ring, w.lhs.value),
            "rhs": elem_to_obj(ring, w.rhs.value),
        }
    return out


def factors_to_obj(factors: OuterFactors | None) -> dict:
    if factors is None:
        return {"factors": None}
    return {
        "factors": {
            "col": matrix_to_obj(factors.col),
            "row": matrix_to_obj(factors.row),
        }
    }


def bench_result_to_obj(result: BenchResult) -> dict:
    return {
        "n": result.n,
        "ring": ring_to_obj(result.ring),
        "reps": result.reps,
        "naive_median_s": result.naive_median,
        "fast_median_s": result.fast_median,
        "speedup": result.speedup,
        "agreement_checked": result.agreement_checked,
    }


def equivalence_report_to_obj(report: EquivalenceReport) -> dict:
    return {
        "ring": ring_to_obj(report.ring),
        "n": report.n,
        "total": report.total,
        "set_identity": report.set_identity,
        "set_minors": report.set_minors,
        "agree": report.agree,
        "mismatches": [matrix_to_obj(m) for m in report.mismatches],
    }
