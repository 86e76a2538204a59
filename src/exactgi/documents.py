"""Parsing and rendering of scalar literals and matrix documents.

Scalars travel as literals of the grammar defined, with its reader and its
digit cap MAX_LITERAL_DIGITS, in exactgi.scalar; this module applies it to
documents and re-exports the cap, CHUNK_DIGITS and the two error classes.
A JSON integer obeys the same cap.  Every string entry, CSV cell and
`parse_scalar` text goes through `scalar._scan_scalar`, which strips it,
reads it off one pattern match and gives an error its position in the
stripped text.

Matrix documents are JSON objects {"rows": m, "cols": n, "entries": [[...]]}
whose entries are scalar literals (strings) or JSON integers.  JSON floats
are rejected: exactness must survive transport.  CSV input is accepted for
real matrices only.

Entries parse straight to the matrix's canonical Gaussian-integer image (see
exactgi.matrix): the reader yields each part as an unreduced integer pair
(num, den), and `matrix._from_parts`, the routine that builds the image of
`ExactMatrix(...)` too, brings every part over Q, the lcm of the
denominators, and reduces Q by one gcd pass to the least common
denominator.  Rendering reads
each part x/q off the image and reduces it by one gcd; no Fraction or
ExactScalar is built per entry either way.  How parts join into a literal
is defined once, in exactgi.scalar, and shared with ExactScalar.__str__.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from typing import Any

from .matrix import ExactMatrix, _from_parts, clear_denominators
from .scalar import (  # the cap, CHUNK_DIGITS and the errors are re-exported
    CHUNK_DIGITS,
    MAX_LITERAL_DIGITS,
    DocumentError,
    ExactScalar,
    ScalarParseError,
    _digits_value,
    _scan_scalar,
    int_text,
    join_parts,
    literal,
)


def _json_int(text: str) -> int:
    if text.startswith("-"):
        return -_digits_value(text[1:], text, 1)
    return _digits_value(text, text, 0)


def parse_scalar(text: str) -> ExactScalar:
    """Parse a scalar literal into canonical form."""
    if not isinstance(text, str):
        raise ScalarParseError(str(text), 0, "literal must be a string")
    a, b, c, d = _scan_scalar(text)
    return ExactScalar(Fraction(a, b), Fraction(c, d))


def render_scalar(value: ExactScalar) -> str:
    """Canonical literal; parse(render(x)) == x."""
    return str(value)


def _round(num: int, den: int, digits: int) -> str:
    """num/den, den > 0, correctly rounded to fixed point, ties to even."""
    whole, remainder = divmod(abs(num) * 10**digits, den)
    double = 2 * remainder
    if double > den or (double == den and whole % 2):
        whole += 1
    text = int_text(whole).rjust(digits + 1, "0")
    if digits:
        text = f"{text[:-digits]}.{text[-digits:]}"
    return f"-{text}" if num < 0 and whole else text


def _decimal_literal(a: int, b: int, c: int, d: int, digits: int) -> str:
    re_text = _round(a, b, digits)
    if not c:
        return re_text
    # the sign comes from the rounded text, so a part that rounds to zero has none
    return join_parts(re_text if a else None, _round(c, d, digits))


def _decimal(digits: int) -> Callable[[int, int, int, int], str]:
    """The decimal rendering of a/b + (c/d) i with that many digits."""
    if digits < 0:
        raise DocumentError("decimal digit count must be nonnegative")
    return partial(_decimal_literal, digits=digits)


def render_scalar_decimal(value: ExactScalar, digits: int) -> str:
    """Decimal rendering for display; never used in computation."""
    re, im = value.re, value.im
    return _decimal(digits)(re.numerator, re.denominator, im.numerator, im.denominator)


# -- matrix documents ---------------------------------------------------------


def _entry_parts(value: Any) -> tuple[int, int, int, int]:
    if isinstance(value, str):
        return _scan_scalar(value)
    if isinstance(value, bool):
        raise DocumentError("booleans are not scalars")
    if isinstance(value, int):
        return value, 1, 0, 1
    if isinstance(value, float):
        raise DocumentError("JSON floats are not exact; write the entry as a string literal")
    raise DocumentError(f"unsupported entry {value!r}")


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
    parts = []
    for i, row in enumerate(entries, start=1):
        if not isinstance(row, list) or len(row) != cols:
            raise DocumentError(f"entry row {i} must be a list of {cols} scalars")
        for j, value in enumerate(row, start=1):
            try:
                parts.append(_entry_parts(value))
            except DocumentError as exc:
                raise DocumentError(f"entry ({i},{j}): {exc}") from exc
    return _from_parts(rows, cols, parts)


def parse_csv_matrix(text: str) -> ExactMatrix:
    """CSV input, real entries only."""
    rows: list[list[tuple[int, int, int, int]]] = []
    for line_no, record in enumerate(csv.reader(io.StringIO(text)), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        row = []
        for col_no, cell in enumerate(record, start=1):
            try:
                parts = _scan_scalar(cell)
            except ScalarParseError as exc:
                raise DocumentError(f"CSV cell ({line_no},{col_no}): {exc}") from exc
            if parts[2]:
                raise DocumentError(
                    f"CSV cell ({line_no},{col_no}): CSV carries real matrices only"
                )
            row.append(parts)
        rows.append(row)
    if not rows:
        raise DocumentError("CSV input is empty")
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise DocumentError("all rows must have the same length")
    return _from_parts(len(rows), cols, [entry for row in rows for entry in row])


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


def matrix_to_document(matrix: ExactMatrix, decimal: int | None = None) -> dict:
    text = literal if decimal is None else _decimal(decimal)
    re, im, q = clear_denominators(matrix)
    return {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "entries": [[text(x, q, y, q) for x, y in zip(*rows)] for rows in zip(re, im)],
    }


def poly_to_document(coefficients, decimal: int | None = None) -> dict:
    return {
        "variable": "t",
        "coefficients": [matrix_to_document(c, decimal) for c in coefficients],
    }
