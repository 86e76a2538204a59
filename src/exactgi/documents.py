"""Parsing and rendering of scalar literals and matrix documents.

Scalar literal grammar (whitespace-insensitive at the seams):

    scalar  := sign? part (sign part)?      at most one part carries "i"
    part    := number "i" | "i" | number
    number  := digits "/" digits | digits "." digits | "." digits | digits
    digits  := one or more of the ASCII digits 0-9

Examples: "3", "-5/2", "1/2+3i", "-i", "2-0.5i".  Decimal literals convert
exactly ("-10.5" becomes -21/2).  Rendering produces the same grammar back
in canonical form, so render(parse(text)) round-trips.

A run of digits in a literal, and a JSON integer, may hold at most
MAX_LITERAL_DIGITS digits; a longer one is refused before any conversion.
Below the cap, digits convert in chunks, so neither parsing nor rendering
depends on the interpreter's int/str digit limit.

Matrix documents are JSON objects {"rows": m, "cols": n, "entries": [[...]]}
whose entries are scalar literals (strings) or JSON integers.  JSON floats
are rejected: exactness must survive transport.  CSV input is accepted for
real matrices only.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from typing import Any

from .matrix import ExactMatrix
from .scalar import CHUNK_DIGITS, MAX_LITERAL_DIGITS, ExactScalar, _int_of, int_text


class DocumentError(ValueError):
    """Malformed scalar literal or matrix document."""


class ScalarParseError(DocumentError):
    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        shown = text if len(text) <= 80 else f"{text[:40]}...{text[-20:]}"
        super().__init__(f"invalid scalar {shown!r} at position {position}: {reason}")


# sign-free number: digits, then "." digits or "/" digits; the scan checks
# which parts are empty.  [0-9], not \d: only ASCII digits are digits here.
_NUMBER = re.compile(r"([0-9]*)(?:\.([0-9]*)|/([0-9]*))?")


def _digits_value(digits: str, text: str, start: int) -> int:
    """The value of a digit run of text at start, refused over the cap."""
    if len(digits) <= CHUNK_DIGITS:
        return int(digits)
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ScalarParseError(
            text, start, f"more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits"
        )
    return _int_of(digits)


def _json_int(text: str) -> int:
    if text.startswith("-"):
        return -_digits_value(text[1:], text, 1)
    return _digits_value(text, text, 0)


def _scan_number(text: str, pos: int) -> tuple[Fraction, int]:
    """Scan digits/digits | [digits].digits | digits; return (value, next)."""
    whole, frac, den = _NUMBER.match(text, pos).groups()
    after = pos + len(whole) + 1  # just past a "." or "/"
    if frac is not None:
        if not frac:
            raise ScalarParseError(text, after, "expected digits after decimal point")
        scale = 10 ** len(frac)
        value = _digits_value(whole, text, pos) * scale if whole else 0
        return Fraction(value + _digits_value(frac, text, after), scale), after + len(frac)
    if not whole:
        raise ScalarParseError(text, pos, "expected digits")
    numerator = _digits_value(whole, text, pos)
    if den is None:
        return Fraction(numerator), after - 1
    if not den:
        raise ScalarParseError(text, after, "expected denominator digits")
    denominator = _digits_value(den, text, after)
    if denominator == 0:
        raise ScalarParseError(text, after, "zero denominator")
    return Fraction(numerator, denominator), after + len(den)


def _scan_term(text: str, pos: int) -> tuple[Fraction, bool, int]:
    """Scan sign? (number i | i | number); return (value, imaginary, next)."""
    n = len(text)
    negative = False
    if pos < n and text[pos] in "+-":
        negative = text[pos] == "-"
        pos += 1
    while pos < n and text[pos] == " ":
        pos += 1
    if pos < n and text[pos] == "i":
        return Fraction(-1 if negative else 1), True, pos + 1
    value, pos = _scan_number(text, pos)
    if negative:
        value = -value
    if pos < n and text[pos] == "i":
        return value, True, pos + 1
    return value, False, pos


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar literal into canonical form."""
    if not isinstance(text, str):
        raise ScalarParseError(str(text), 0, "literal must be a string")
    stripped = text.strip()
    if not stripped:
        raise ScalarParseError(text, 0, "empty literal")
    pos = 0
    re_part: Fraction | None = None
    im_part: Fraction | None = None
    value, imag, pos = _scan_term(stripped, pos)
    if imag:
        im_part = value
    else:
        re_part = value
    while pos < len(stripped) and stripped[pos] == " ":
        pos += 1
    if pos < len(stripped):
        if stripped[pos] not in "+-":
            raise ScalarParseError(text, pos, "expected '+' or '-'")
        value, imag, pos = _scan_term(stripped, pos)
        if not imag:
            raise ScalarParseError(text, pos, "second part must be imaginary")
        if im_part is not None:
            raise ScalarParseError(text, pos, "two imaginary parts")
        im_part = value
        while pos < len(stripped) and stripped[pos] == " ":
            pos += 1
        if pos < len(stripped):
            raise ScalarParseError(text, pos, "trailing characters")
    return ExactScalar(re_part or 0, im_part or 0)


def render_scalar(value: ExactScalar) -> str:
    """Canonical literal; parse(render(x)) == x."""
    return str(value)


def _round_fraction(value: Fraction, digits: int) -> str:
    """Correctly rounded fixed-point rendering, ties to even."""
    negative = value < 0
    scaled = abs(value) * 10**digits
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    double = 2 * remainder
    if double > scaled.denominator or (double == scaled.denominator and whole % 2):
        whole += 1
    text = int_text(whole).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if negative and whole else text


def render_scalar_decimal(value: ExactScalar, digits: int) -> str:
    """Decimal rendering for display; never used in computation."""
    if digits < 0:
        raise DocumentError("decimal digit count must be nonnegative")
    re_text = _round_fraction(value.re, digits)
    if value.im == 0:
        return re_text
    # the sign comes from the rounded text, so a part that rounds to zero has none
    im_text = _round_fraction(value.im, digits)
    if value.re == 0:
        return f"{im_text}i"
    return f"{re_text}{'' if im_text[0] == '-' else '+'}{im_text}i"


# -- matrix documents ---------------------------------------------------------


def _entry_from_json(value: Any, where: str) -> ExactScalar:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: booleans are not scalars")
    if isinstance(value, int):
        return ExactScalar(value)
    if isinstance(value, float):
        raise DocumentError(
            f"{where}: JSON floats are not exact; write the entry as a string literal"
        )
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except ScalarParseError as exc:
            raise DocumentError(f"{where}: {exc}") from exc
    raise DocumentError(f"{where}: unsupported entry {value!r}")


def parse_matrix_document(obj: Any) -> ExactMatrix:
    """Validate and convert {"rows": m, "cols": n, "entries": [[...], ...]}."""
    if not isinstance(obj, dict):
        raise DocumentError("matrix document must be a JSON object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise DocumentError(f"matrix document lacks {key!r}")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    # type, not isinstance: JSON true and false are bools, which are ints too
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise DocumentError("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise DocumentError(f"expected {rows} entry rows")
    data: list[list[ExactScalar]] = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"entry row {i} must be a list of {cols} scalars")
        data.append(
            [_entry_from_json(v, f"entry ({i},{j})") for j, v in enumerate(row, 1)]
        )
    return ExactMatrix.from_rows(data)


def parse_csv_matrix(text: str) -> ExactMatrix:
    """CSV input, real entries only."""
    rows: list[list[ExactScalar]] = []
    for line_no, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        row = []
        for col_no, cell in enumerate(record, start=1):
            try:
                value = parse_scalar(cell.strip())
            except ScalarParseError as exc:
                raise DocumentError(f"CSV cell ({line_no},{col_no}): {exc}") from exc
            if value.im != 0:
                raise DocumentError(
                    f"CSV cell ({line_no},{col_no}): CSV carries real matrices only"
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise DocumentError("CSV input is empty")
    return ExactMatrix.from_rows(rows)


def load_matrix(path: str) -> ExactMatrix:
    """Load a matrix from a JSON document, or CSV when the name ends in .csv."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    if path.lower().endswith(".csv"):
        return parse_csv_matrix(text)
    try:
        obj = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix_document(obj)


def matrix_to_document(
    matrix: ExactMatrix, decimal: int | None = None, name: str | None = None
) -> dict:
    render = (
        (lambda e: render_scalar_decimal(e, decimal))
        if decimal is not None
        else render_scalar
    )
    doc: dict[str, Any] = {}
    if name is not None:
        doc["name"] = name
    doc["rows"] = matrix.rows
    doc["cols"] = matrix.cols
    doc["entries"] = [
        [render(e) for e in matrix.row(i)] for i in range(1, matrix.rows + 1)
    ]
    return doc


def poly_to_document(coefficients, decimal: int | None = None) -> dict:
    return {
        "variable": "t",
        "coefficients": [matrix_to_document(c, decimal) for c in coefficients],
    }
