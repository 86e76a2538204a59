"""The step-by-step reader of the scalar literal grammar, kept as a reference.

`scalar._scan_scalar` and `ExactScalar` string parts read the grammar off one
compiled pattern, `scalar._SCALAR`, and one term routine, `scalar._term`.
This module reads it one token at a time, as the library did before.  The
agreement property in test_documents.py compares the two: the same tuple,
or the same error message with the same position, on every input.  No
library module imports it.

The code is the library's former reader as it was, with two changes that the
library made too: an error found on the whole literal quotes the stripped
text, which its position indexes, as an error inside a part always did, and
a digit run converts from its match and group, which place a refusal.
"""

from __future__ import annotations

import re
from fractions import Fraction

from exactgi.scalar import ScalarParseError, _digits_value

# sign-free number: digits, then "." digits or "/" digits; the scan checks
# which parts are empty.  [0-9], not \d: only ASCII digits are digits here.
_NUMBER = re.compile(r"([0-9]*)(?:\.([0-9]*)|/([0-9]*))?")


def _scan_number(text: str, pos: int) -> tuple[int, int, int]:
    """Scan digits/digits | [digits].digits | digits; return (num, den, next),
    den > 0 and not reduced."""
    match = _NUMBER.match(text, pos)
    whole, frac, den = match.groups()
    after = pos + len(whole) + 1  # just past a "." or "/"
    if frac is not None:
        if not frac:
            raise ScalarParseError(text, after, "expected digits after decimal point")
        scale = 10 ** len(frac)
        value = _digits_value(whole, match, 1) * scale if whole else 0
        return value + _digits_value(frac, match, 2), scale, after + len(frac)
    if not whole:
        raise ScalarParseError(text, pos, "expected digits")
    numerator = _digits_value(whole, match, 1)
    if den is None:
        return numerator, 1, after - 1
    if not den:
        raise ScalarParseError(text, after, "expected denominator digits")
    denominator = _digits_value(den, match, 3)
    if denominator == 0:
        raise ScalarParseError(text, after, "zero denominator")
    return numerator, denominator, after + len(den)


def _scan_term(text: str, pos: int) -> tuple[int, int, bool, int]:
    """Scan sign? (number i | i | number); return (num, den, imaginary, next)."""
    n = len(text)
    negative = False
    if pos < n and text[pos] in "+-":
        negative = text[pos] == "-"
        pos += 1
    while pos < n and text[pos] == " ":
        pos += 1
    if pos < n and text[pos] == "i":
        return -1 if negative else 1, 1, True, pos + 1
    num, den, pos = _scan_number(text, pos)
    if negative:
        num = -num
    if pos < n and text[pos] == "i":
        return num, den, True, pos + 1
    return num, den, False, pos


def _scan_steps(text: str) -> tuple[int, int, int, int]:
    """`_scan_scalar` one token at a time, with the error and its position
    for any text outside the grammar, and digit runs of any length."""
    stripped = text.strip()
    if not stripped:
        raise ScalarParseError(stripped, 0, "empty literal")
    num, den, imag, pos = _scan_term(stripped, 0)
    a, b, c, d = (0, 1, num, den) if imag else (num, den, 0, 1)
    while pos < len(stripped) and stripped[pos] == " ":
        pos += 1
    if pos < len(stripped):
        if stripped[pos] not in "+-":
            raise ScalarParseError(stripped, pos, "expected '+' or '-'")
        c, d, second, pos = _scan_term(stripped, pos)
        if not second:
            raise ScalarParseError(stripped, pos, "second part must be imaginary")
        if imag:
            raise ScalarParseError(stripped, pos, "two imaginary parts")
        while pos < len(stripped) and stripped[pos] == " ":
            pos += 1
        if pos < len(stripped):
            raise ScalarParseError(stripped, pos, "trailing characters")
    return a, b, c, d


def part_fraction(value: str) -> Fraction:
    """The string-part check of `scalar._as_fraction`: one real term."""
    num, den, imaginary, end = _scan_term(value, 0)
    # the scan skips spaces after a sign, so a space is refused here
    if imaginary or end < len(value) or " " in value:
        raise ScalarParseError(value, 0, "a part is one real number with no spaces")
    return Fraction(num, den)
