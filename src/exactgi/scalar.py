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

One reader reads the grammar.  A compiled pattern, `_SCALAR`, splits the
stripped text into at most two parts, each a sign, a digit run, a "." or
"/" run and an "i"; every piece may be empty, so the pattern matches any
text and takes the longest run of each token.  One term routine, `_term`,
reads a part's pieces in the grammar's order: it refuses the first one
that is missing, wrong or over the cap, with the error's position, and
converts a run of at most CHUNK_DIGITS digits with one int() and a longer
one in chunks.  `_scan_scalar` reads a whole literal (a `gi` document
entry, see exactgi.documents) with it, then checks what stands between and
after the parts; its errors quote the stripped text their positions index.
A string part of ExactScalar is one real term, sign? number, with no
whitespace in it, read by the same pattern and routine.

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


def _digits_value(digits: str, text: str, start: int) -> int:
    """The value of a digit run of text at start, refused over the cap."""
    if len(digits) <= CHUNK_DIGITS:
        return int(digits)
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ScalarParseError(
            text, start, f"more than MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits"
        )
    return _int_of(digits)


# One part of a literal, in groups: sign, whole digits, fraction digits after
# a ".", denominator digits after a "/", and "i"; spaces may follow the sign
# and the part.  The second part must start with a sign.  Every piece may be
# empty and every quantifier is greedy, so `match` always succeeds and takes
# the longest run of each token; `_term` refuses what is missing.  [0-9], not
# \d: only ASCII digits are digits here.
_PART = r"([+-]?) *([0-9]*)(?:\.([0-9]*)|/([0-9]*))?(i?) *"
_SCALAR = re.compile(f"{_PART}(?:(?=[+-]){_PART})?")


def _term(
    text: str, match: re.Match, k: int,
    sign: str, whole: str, frac: str | None, den: str | None, imaginary: str,
) -> tuple[int, int]:
    """(num, den) of one part of a `_SCALAR` match of text, den > 0 and not
    reduced.  sign to imaginary are the part's groups, from group k on; the
    caller passes them from its one groups() call, as a second call here
    costs more than the conversions, and the match serves only to place an
    error.  The pieces are read in the grammar's order, and the first one
    missing, wrong or over the cap is refused at its position in text.  A
    run of at most CHUNK_DIGITS digits converts with one int(), whatever the
    interpreter's int/str digit limit."""
    if frac is not None:
        if not frac:
            raise ScalarParseError(
                text, match.end(k + 1) + 1, "expected digits after decimal point"
            )
        d = 10 ** len(frac)
        if not whole:
            n = 0
        elif len(whole) <= CHUNK_DIGITS:
            n = int(whole) * d
        else:
            n = _digits_value(whole, text, match.start(k + 1)) * d
        if len(frac) <= CHUNK_DIGITS:
            n += int(frac)
        else:
            n += _digits_value(frac, text, match.start(k + 2))
    elif not whole:
        if not imaginary or den is not None:
            raise ScalarParseError(text, match.start(k + 1), "expected digits")
        n = d = 1  # a bare "i"
    else:
        if len(whole) <= CHUNK_DIGITS:
            n = int(whole)
        else:
            n = _digits_value(whole, text, match.start(k + 1))
        if den is None:
            d = 1
        elif not den:
            raise ScalarParseError(text, match.start(k + 3), "expected denominator digits")
        else:
            if len(den) <= CHUNK_DIGITS:
                d = int(den)
            else:
                d = _digits_value(den, text, match.start(k + 3))
            if not d:
                raise ScalarParseError(text, match.start(k + 3), "zero denominator")
    return (-n if sign == "-" else n), d


def _scan_scalar(text: str) -> tuple[int, int, int, int]:
    """Scan a scalar literal; return (a, b, c, d) for a/b + (c/d) i, b, d > 0
    and not reduced."""
    stripped = text.strip()
    if not stripped:
        raise ScalarParseError(stripped, 0, "empty literal")
    match = _SCALAR.match(stripped)
    sign, whole, frac, den, imaginary, sign2, whole2, frac2, den2, imaginary2 = match.groups()
    a, b = _term(stripped, match, 1, sign, whole, frac, den, imaginary)
    end = match.end()
    if sign2 is None:
        if end < len(stripped):
            raise ScalarParseError(stripped, end, "expected '+' or '-'")
        return (0, 1, a, b) if imaginary else (a, b, 0, 1)
    c, d = _term(stripped, match, 6, sign2, whole2, frac2, den2, imaginary2)
    if not imaginary2:
        raise ScalarParseError(stripped, match.end(10), "second part must be imaginary")
    if imaginary:
        raise ScalarParseError(stripped, match.end(10), "two imaginary parts")
    if end < len(stripped):
        raise ScalarParseError(stripped, end, "trailing characters")
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
        match = _SCALAR.match(value)
        num, den = _term(value, match, 1, *match.group(1, 2, 3, 4, 5))
        # the pattern takes spaces after a sign, so a space is refused here
        if match[5] or match.end(5) < len(value) or " " in value:
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
