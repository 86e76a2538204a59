"""Gaussian-rational scalars and the scalar literal grammar.

Every value keeps its real and imaginary parts as ``fractions.Fraction``,
which guarantees the canonical form (coprime numerator/denominator, positive
denominator).  All arithmetic is exact, equality is structural, and values
are immutable and hashable.

Numbers enter by their exact type first: a part that is a Fraction is kept
as it is, and an int part between -256 and 256 takes a shared Fraction from
a fixed table, any other int a new one.  Only other types (subclasses of int
and Fraction, strings, and bool, which is refused) take the general checks.
Matrices read the same parts: see `matrix._parts` and `matrix._from_parts`,
the one routine that turns entries into a matrix's image.

Scalar literal grammar:

    scalar  := sign? part (sign part)?      at most one part carries "i"
    part    := number "i" | "i" | number
    number  := digits "/" digits | digits "." digits | "." digits | digits
    digits  := one or more of the ASCII digits 0-9

Any whitespace at either end of a literal is ignored.  Inside it, spaces
(U+0020, and no other whitespace) may follow a sign and may come before the
sign of the second part; nothing else may stand between the tokens.
Examples: "3", "-5/2", "1/2+3i", " 1 + 2i", "-i", "2-0.5i".  Decimal
literals convert exactly ("-10.5" becomes -21/2).  `literal` renders the
grammar back in canonical form, so a rendered literal parses to the value
it came from.
Two readers share the grammar.  `_scan_scalar` takes a whole literal (a
`gi` document entry, see exactgi.documents).  It reads a valid literal
off one match of a compiled pattern, `_LITERAL`, which accepts exactly the
valid literals whose digit runs hold at most CHUNK_DIGITS digits, and
converts each run with one int().  Any other text goes to the step
scanner, `_scan_steps`, which reads one token at a time: a literal outside
the grammar, which it refuses with the error's message and position; a
zero denominator, refused the same way; and a longer digit run, which it
converts in chunks or refuses over MAX_LITERAL_DIGITS.  Both return the
same unreduced parts.  A string part of ExactScalar is one real term,
sign? number, with no whitespace in it, read by the scanner's `_scan_term`.

A run of digits in a literal, and a JSON integer, may hold at most
MAX_LITERAL_DIGITS digits; a longer one is refused before any conversion.
Below the cap, digits convert in chunks, so neither parsing nor rendering
depends on the interpreter's int/str digit limit.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd

RationalLike = int | Fraction

# Decimal digits per chunk when a big integer converts to or from text.  The
# interpreter converts an int of this many digits whatever its int/str digit
# limit (sys.get_int_max_str_digits(); the least it can be set to is 640).
CHUNK_DIGITS = 512

# The most digits one run of digits in a scalar literal (a numerator, a
# denominator, either side of a decimal point) or one JSON integer may hold;
# a longer run is refused before any conversion.
MAX_LITERAL_DIGITS = 100_000


def _int_of(digits: str) -> int:
    # int(digits) for a run of ASCII digits of any length, in halves of at
    # most CHUNK_DIGITS digits at the leaves
    if len(digits) <= CHUNK_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _int_of(digits[:-k]) * 10**k + _int_of(digits[-k:])


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


def _scan_number(text: str, pos: int) -> tuple[int, int, int]:
    """Scan digits/digits | [digits].digits | digits; return (num, den, next),
    den > 0 and not reduced."""
    whole, frac, den = _NUMBER.match(text, pos).groups()
    after = pos + len(whole) + 1  # just past a "." or "/"
    if frac is not None:
        if not frac:
            raise ScalarParseError(text, after, "expected digits after decimal point")
        scale = 10 ** len(frac)
        value = _digits_value(whole, text, pos) * scale if whole else 0
        return value + _digits_value(frac, text, after), scale, after + len(frac)
    if not whole:
        raise ScalarParseError(text, pos, "expected digits")
    numerator = _digits_value(whole, text, pos)
    if den is None:
        return numerator, 1, after - 1
    if not den:
        raise ScalarParseError(text, after, "expected denominator digits")
    denominator = _digits_value(den, text, after)
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


# A whole valid literal whose digit runs hold at most CHUNK_DIGITS digits,
# for the fast path of `_scan_scalar`: sign? then a number with an optional
# "i" or an imaginary second part, or a bare "i".  Each number is (whole,
# denominator, fraction digits), and the lookahead keeps it from being empty.
# [0-9], not \d, as in _NUMBER.
_RUN = f"[0-9]{{1,{CHUNK_DIGITS}}}"
_LITERAL_NUMBER = rf"(?=\.?[0-9])([0-9]{{0,{CHUNK_DIGITS}}})(?:/({_RUN})|\.({_RUN}))?"
_LITERAL = re.compile(
    rf"([+-]?) *(?:{_LITERAL_NUMBER}(?:(i)| *([+-]) *(?:{_LITERAL_NUMBER})?i)?|i)"
)


def _scan_scalar(text: str) -> tuple[int, int, int, int]:
    """Scan a scalar literal; return (a, b, c, d) for a/b + (c/d) i, b, d > 0
    and not reduced.  A valid literal is read off one `_LITERAL` match, each
    digit run by one int(), which converts CHUNK_DIGITS digits whatever the
    interpreter's int/str digit limit.  Any other text, a digit run longer
    than that and a zero denominator go to the step scanner."""
    match = _LITERAL.fullmatch(text.strip())
    if match is not None:
        sign, whole, den, frac, imaginary, sign2, whole2, den2, frac2 = match.groups()
        if whole is None:  # a bare "i"
            return 0, 1, -1 if sign == "-" else 1, 1
        # the two numbers convert inline: a helper call costs more than the int()s
        if den is not None:
            a, b = int(whole), int(den)
        elif frac is not None:
            b = 10 ** len(frac)
            a = int(whole) * b + int(frac) if whole else int(frac)
        else:
            a, b = int(whole), 1
        if sign == "-":
            a = -a
        if b:
            if imaginary:
                return 0, 1, a, b
            if sign2 is None:
                return a, b, 0, 1
            if whole2 is None:
                c, d = 1, 1
            elif den2 is not None:
                c, d = int(whole2), int(den2)
            elif frac2 is not None:
                d = 10 ** len(frac2)
                c = int(whole2) * d + int(frac2) if whole2 else int(frac2)
            else:
                c, d = int(whole2), 1
            if d:
                return a, b, -c if sign2 == "-" else c, d
    return _scan_steps(text)


def _scan_steps(text: str) -> tuple[int, int, int, int]:
    """`_scan_scalar` one token at a time, with the error and its position
    for any text outside the grammar, and digit runs of any length."""
    stripped = text.strip()
    if not stripped:
        raise ScalarParseError(text, 0, "empty literal")
    num, den, imag, pos = _scan_term(stripped, 0)
    a, b, c, d = (0, 1, num, den) if imag else (num, den, 0, 1)
    while pos < len(stripped) and stripped[pos] == " ":
        pos += 1
    if pos < len(stripped):
        if stripped[pos] not in "+-":
            raise ScalarParseError(text, pos, "expected '+' or '-'")
        c, d, second, pos = _scan_term(stripped, pos)
        if not second:
            raise ScalarParseError(text, pos, "second part must be imaginary")
        if imag:
            raise ScalarParseError(text, pos, "two imaginary parts")
        while pos < len(stripped) and stripped[pos] == " ":
            pos += 1
        if pos < len(stripped):
            raise ScalarParseError(text, pos, "trailing characters")
    return a, b, c, d


# Fractions of the small integers, shared by every part that is one: most
# parts of exact input are small integers, and a Fraction is immutable.
_SMALL_MAX = 256
_SMALL = tuple(map(Fraction, range(-_SMALL_MAX, _SMALL_MAX + 1)))


def _as_fraction(value: RationalLike | str) -> Fraction:
    # the exact types first: isinstance against Fraction, a numbers.Rational,
    # goes through the ABC machinery when it fails, as it does for an int
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        if -_SMALL_MAX <= value <= _SMALL_MAX:
            return _SMALL[value + _SMALL_MAX]
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        num, den, imaginary, end = _scan_term(value, 0)
        # the scan skips spaces after a sign, so a space is refused here
        if imaginary or end < len(value) or " " in value:
            raise ScalarParseError(value, 0, "a part is one real number with no spaces")
        return Fraction(num, den)
    raise TypeError(f"cannot build an exact rational from {value!r}")


class ExactScalar:
    """A complex number with Fraction real and imaginary parts.

    Each part is an int, a Fraction or a string that is one real term of the
    scalar literal grammar ("-5/2", "0.5", ".5"); any other string, or a run
    of more than MAX_LITERAL_DIGITS digits, raises ScalarParseError, a
    ValueError, and bool is not a number here (TypeError).  Digit runs of
    any length below the cap convert whatever the interpreter's int/str
    digit limit.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike | str = 0, im: RationalLike | str = 0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @staticmethod
    def zero() -> "ExactScalar":
        return ZERO

    @staticmethod
    def one() -> "ExactScalar":
        return ONE

    def __add__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.re, -self.im)

    def __pos__(self) -> "ExactScalar":
        return self

    def __mul__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        """|z|^2, exact (|z| itself is irrational in general)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.re == coerced.re and self.im == coerced.im

    def __hash__(self) -> int:
        # A real value equals its Fraction (and int), so it must hash alike.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ExactScalar({self})"

    def __str__(self) -> str:
        # Canonical literal, the same grammar the CLI accepts: "0", "-5/2",
        # "1/2+3i", "2-i", "3i".
        re, im = self.re, self.im
        return literal(re.numerator, re.denominator, im.numerator, im.denominator)


@cache
def _pow10(exponent: int) -> int:
    return 10**exponent


def _digits(n: int, width: int) -> str:
    # Decimal digits of n >= 0, zero-padded to width, split at 10^k with k a
    # power-of-two multiple of CHUNK_DIGITS.
    if n < _pow10(CHUNK_DIGITS):
        return str(n).zfill(width)
    k = CHUNK_DIGITS
    while _pow10(2 * k) <= n:
        k *= 2
    high, low = divmod(n, _pow10(k))
    return _digits(high, width - k) + _digits(low, k)


def int_text(n: int) -> str:
    """str(n) for any size, whatever the interpreter's int/str digit limit."""
    # 10^CHUNK_DIGITS = 10^512 > 2^1700, as 512 log2(10) = 1700.8, so an n of
    # at most 1700 bits has at most CHUNK_DIGITS digits
    if n.bit_length() <= 1700:
        return str(n)
    return "-" + _digits(-n, 0) if n < 0 else _digits(n, 0)


def rational_text(num: int, den: int) -> str:
    """The literal of num/den, den > 0, reduced to lowest terms: "3", "-5/2"."""
    g = gcd(num, den)
    if g == den:
        return int_text(num // g)
    return f"{int_text(num // g)}/{int_text(den // g)}"


def join_parts(re_text: str | None, im_text: str | None) -> str:
    """The literal of the scalar grammar (see the module docstring) from the
    texts of its parts; None leaves a part out, never both.  im_text is what
    stands before "i", so a unit imaginary part is "" or "-"."""
    if im_text is None:
        return re_text
    if re_text is None:
        return f"{im_text}i"
    return f"{re_text}{'' if im_text[:1] == '-' else '+'}{im_text}i"


def literal(a: int, b: int, c: int, d: int) -> str:
    """The canonical literal of a/b + (c/d) i, b, d > 0, in any terms."""
    if not c:
        return rational_text(a, b)
    im_text = "" if c == d else "-" if c == -d else rational_text(c, d)
    return join_parts(rational_text(a, b) if a else None, im_text)


def _coerce(value: object) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return ExactScalar(value)
    return NotImplemented


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)
