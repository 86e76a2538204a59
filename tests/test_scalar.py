from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exactgi
import exactgi.documents
from exactgi import ExactMatrix, ExactScalar, parse_scalar
from exactgi.matrix import clear_denominators
from exactgi.scalar import MAX_LITERAL_DIGITS, DocumentError, ScalarParseError, int_text

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
scalars = st.builds(ExactScalar, rationals, rationals)


def test_canonical_form_and_equality():
    assert ExactScalar(F(2, 4)) == ExactScalar(F(1, 2))
    assert ExactScalar(F(-3, -6)) == ExactScalar(F(1, 2))
    a = ExactScalar(F(1, 2), 3)
    assert a.re.denominator == 2 and a.re.numerator == 1
    assert hash(a) == hash(ExactScalar(F(2, 4), F(6, 2)))


def test_real_scalars_hash_like_their_rationals():
    assert ExactScalar(3) == 3 and hash(ExactScalar(3)) == hash(3)
    assert len({ExactScalar(3), 3}) == 1
    assert hash(ExactScalar(F(-5, 2))) == hash(F(-5, 2))
    assert {ExactScalar(F(1, 2)): "half"}[F(1, 2)] == "half"
    assert ExactScalar(0, 1) != 0


def test_string_parts_follow_the_literal_grammar():
    assert ExactScalar("-5/2", ".5") == ExactScalar(F(-5, 2), F(1, 2))
    assert ExactScalar("+10.25") == ExactScalar(F(41, 4))


@pytest.mark.parametrize("text", ["1e3", "1_000", " 3 ", "3 ", "1.", "", "+", "1/2i", "0x10"])
def test_string_outside_the_grammar_is_rejected(text):
    with pytest.raises(ValueError):
        ExactScalar(text)
    with pytest.raises(ValueError):
        ExactScalar(0, text)


@given(st.text(alphabet="0123456789+-./i \t\n", max_size=8))
def test_string_part_is_a_real_literal_without_whitespace(text):
    # ExactScalar and parse_scalar read one grammar: a string part is a
    # literal with no "i" and no whitespace, of the same value
    try:
        expected = parse_scalar(text)
    except ScalarParseError:
        expected = None
    if expected is not None and "i" not in text and not any(c in text for c in " \t\n"):
        assert ExactScalar(text) == expected
    else:
        with pytest.raises(ScalarParseError):
            ExactScalar(text)


def test_parse_errors_are_document_and_value_errors():
    assert issubclass(ScalarParseError, DocumentError)
    assert issubclass(DocumentError, ValueError)
    for module in (exactgi, exactgi.documents):
        assert module.ScalarParseError is ScalarParseError
        assert module.DocumentError is DocumentError


def test_zero_denominator_is_a_value_error():
    # the literal grammar admits "1/0"; the value is refused like any bad text
    with pytest.raises(ValueError, match="zero denominator"):
        ExactScalar("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        ExactScalar(0, "-3/0")


def test_bool_is_not_a_scalar():
    with pytest.raises(TypeError):
        ExactScalar(True)
    with pytest.raises(TypeError):
        ExactScalar(1, False)
    with pytest.raises(TypeError):
        ExactScalar(1) + True


def test_basic_arithmetic():
    a = ExactScalar(1, 2)
    b = ExactScalar(3, -1)
    assert a + b == ExactScalar(4, 1)
    assert a - b == ExactScalar(-2, 3)
    assert a * b == ExactScalar(5, 5)
    assert ExactScalar(5, 5) / b == a
    assert -a == ExactScalar(-1, -2)
    assert a * 2 == ExactScalar(2, 4)
    assert 2 * a == a + a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ExactScalar(1) / ExactScalar(0)


def test_conjugate_and_abs_squared():
    a = ExactScalar(F(3, 4), F(-2, 5))
    assert a.conjugate() == ExactScalar(F(3, 4), F(2, 5))
    assert a.abs_squared() == F(3, 4) ** 2 + F(2, 5) ** 2
    assert (a * a.conjugate()).re == a.abs_squared()


def test_predicates():
    assert ExactScalar(0, 0).is_zero()
    assert not ExactScalar(0, 1).is_zero()
    assert ExactScalar(2).is_real()
    assert not ExactScalar(2, 1).is_real()
    assert bool(ExactScalar(0, 1))
    assert not bool(ExactScalar(0))


@given(scalars, scalars, scalars)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a


@given(scalars)
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a


def test_string_forms():
    assert str(ExactScalar(0)) == "0"
    assert str(ExactScalar(F(-5, 2))) == "-5/2"
    assert str(ExactScalar(F(1, 2), 3)) == "1/2+3i"
    assert str(ExactScalar(0, -1)) == "-i"
    assert str(ExactScalar(2, -1)) == "2-i"
    assert str(ExactScalar(0, F(3, 4))) == "3/4i"


# -- string parts past the interpreter's int/str digit limit --------------------------

REPUNIT_5001 = (10**5001 - 1) // 9  # 5001 ones, built without int(str)


def test_5001_digit_string_parts():
    ones = "1" * 5001
    assert ExactScalar(ones) == ExactScalar(REPUNIT_5001)
    assert ExactScalar("-" + ones, f"1/{ones}") == ExactScalar(-REPUNIT_5001, F(1, REPUNIT_5001))
    assert ExactScalar(f"{ones}.{ones}").re == REPUNIT_5001 + F(REPUNIT_5001, 10**5001)
    assert ExactScalar(f".{ones}").re == F(REPUNIT_5001, 10**5001)


def test_string_part_over_the_digit_cap_is_refused():
    for text in ("7" * (MAX_LITERAL_DIGITS + 1), "1/" + "3" * (MAX_LITERAL_DIGITS + 1),
                 "-." + "5" * (MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(ValueError, match="MAX_LITERAL_DIGITS"):
            ExactScalar(text)
    assert ExactScalar("9" * MAX_LITERAL_DIGITS) == ExactScalar(10**MAX_LITERAL_DIGITS - 1)


def test_int_text_either_side_of_the_one_chunk_bound():
    # one str() up to 1700 bits (2^1700 - 1), chunks above: 2^1700,
    # 10^512 - 1 and 10^512 have 1701 bits, 2^1701 has 1702
    for n in (2**1700 - 1, 2**1700, 10**512 - 1, 10**512, 2**1701):
        assert int_text(n) == str(n) and int_text(-n) == str(-n)


# -- how numbers enter a matrix -------------------------------------------------------


class Int(int):
    pass


class Frac(F):
    pass


def _int_entry(value):
    return value, ExactScalar(F(value))


def _ratio_text(num, den):
    return f"{int_text(num)}/{int_text(den)}", ExactScalar(F(num, den))


def _decimal_text(sign, whole, frac):
    value = whole + F(int(frac), 10 ** len(frac))
    return f"{sign}{whole or ''}.{frac}", ExactScalar(-value if sign == "-" else value)


def _long_text(digits, den):
    # a run of sevens of that many digits, built without int(str)
    return "7" * digits + f"/{den}", ExactScalar(F(7 * (10**digits - 1) // 9, den))


# (entry, its value built from Fractions): ints inside the small-int table, at
# its ends and outside it, ints of more than 640 digits, Fractions,
# ExactScalars, subclasses of int and Fraction, and strings of one real term,
# some of 641 to 5001 digits
intake_entries = st.one_of(
    st.sampled_from([-257, -256, -1, 0, 1, 256, 257]).map(_int_entry),
    st.integers(-300, 300).map(_int_entry),
    st.integers(-(10**40), 10**40).map(_int_entry),
    st.builds(lambda digits, sign: _int_entry(sign * (10**digits - 3)),
              st.integers(641, 800), st.sampled_from([1, -1])),
    st.fractions(max_denominator=10**12).map(lambda f: (f, ExactScalar(f))),
    st.builds(ExactScalar, rationals, rationals).map(lambda s: (s, s)),
    st.builds(ExactScalar, st.integers(-(10**40), 10**40), rationals).map(lambda s: (s, s)),
    st.integers(-300, 300).map(lambda v: (Int(v), ExactScalar(v))),
    rationals.map(lambda f: (Frac(f), ExactScalar(f))),
    st.builds(_ratio_text, st.integers(-(10**40), 10**40), st.integers(1, 10**12)),
    st.builds(_decimal_text, st.sampled_from(["", "+", "-"]), st.integers(0, 10**6),
              st.text("0123456789", min_size=1, max_size=6)),
    st.builds(_long_text, st.integers(641, 5001), st.integers(1, 99)),
)


@st.composite
def intake_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = draw(st.lists(intake_entries, min_size=rows * cols, max_size=rows * cols))
    return rows, cols, pairs


@given(intake_matrices())
def test_matrix_intake_property(shape_and_entries):
    rows, cols, pairs = shape_and_entries
    entries = [entry for entry, _ in pairs]
    values = [value for _, value in pairs]
    matrix = ExactMatrix(rows, cols, entries)
    each = ExactMatrix(rows, cols, [e if isinstance(e, ExactScalar) else ExactScalar(e)
                                    for e in entries])
    assert matrix == each and hash(matrix) == hash(each)
    assert matrix.entries == each.entries == tuple(values)
    # the image is the canonical one: over the least common denominator
    re, im, q = clear_denominators(matrix)
    assert q == lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    assert [x for row in re for x in row] == [v.re * q for v in values]
    assert [y for row in im for y in row] == [v.im * q for v in values]


def test_bool_is_not_a_matrix_entry_or_factor():
    with pytest.raises(TypeError):
        ExactMatrix(1, 1, [True])
    with pytest.raises(TypeError):
        ExactMatrix.identity(2).scale(True)


def test_int_and_fraction_subclasses_keep_their_value():
    assert ExactScalar(Int(3), Frac(1, 2)) == ExactScalar(3, F(1, 2))
    assert ExactScalar(Int(10**30)) == ExactScalar(10**30)
    matrix = ExactMatrix(1, 3, [Int(-4), Frac(5, 6), Int(300)])
    assert matrix == ExactMatrix(1, 3, [-4, F(5, 6), 300])
    assert matrix.scale(Int(2)) == matrix.scale(2) == matrix.scale(Frac(2))
