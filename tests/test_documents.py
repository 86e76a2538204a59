import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactgi import (
    DocumentError,
    ExactMatrix,
    ExactScalar,
    ScalarParseError,
    parse_matrix_document,
    parse_scalar,
    render_scalar,
    render_scalar_decimal,
)
import exactgi
from exactgi.documents import (
    CHUNK_DIGITS,
    MAX_LITERAL_DIGITS,
    load_matrix,
    matrix_to_document,
    parse_csv_matrix,
)
from exactgi.matrix import clear_denominators
from exactgi.scalar import _scan_scalar

from cases import mat, sc
from scanner_reference import _scan_steps, part_fraction


def test_parse_scalar_known_forms():
    assert parse_scalar("3") == sc(3)
    assert parse_scalar("-5/2") == sc(F(-5, 2))
    assert parse_scalar("1/2+3i") == sc(F(1, 2), 3)
    assert parse_scalar("-i") == sc(0, -1)
    assert parse_scalar("i") == sc(0, 1)
    assert parse_scalar("2-i") == sc(2, -1)
    assert parse_scalar("-10.5") == sc(F(-21, 2))
    assert parse_scalar("2-0.5i") == sc(2, F(-1, 2))
    assert parse_scalar("3/4i") == sc(0, F(3, 4))
    assert parse_scalar(" 1/2 + 3i ") == sc(F(1, 2), 3)
    assert parse_scalar(".5") == sc(F(1, 2))


def test_parse_scalar_errors_carry_position():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("2//3")
    assert err.value.position == 2
    for bad in ("", "1+2", "i+i", "1/0", "1.", "3i4", "1+2i+3i", "+", "2 3"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_errors_quote_the_stripped_literal_their_position_indexes():
    for text, message in (
        (" 1x", "invalid scalar '1x' at position 1: expected '+' or '-'"),
        ("  1+2", "invalid scalar '1+2' at position 3: second part must be imaginary"),
        (" 1/0", "invalid scalar '1/0' at position 2: zero denominator"),
        ("  \t", "invalid scalar '' at position 0: empty literal"),
    ):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text)
        assert str(err.value) == message


def test_whitespace_rule():
    # any whitespace at the ends; inside, only spaces, after a sign and
    # before the second part's sign
    assert parse_scalar("\t1+2i\t") == parse_scalar("1 + 2i") == sc(1, 2)
    for bad, position, reason in (("1 +\t2i", 3, "expected digits"),
                                  ("1\t+2i", 1, "expected '+' or '-'")):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(bad)
        assert err.value.position == position
        assert str(err.value).endswith(reason)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@given(rationals, rationals)
def test_render_parse_round_trip(re, im):
    value = ExactScalar(re, im)
    assert parse_scalar(render_scalar(value)) == value


def test_decimal_rendering_correctly_rounded():
    assert render_scalar_decimal(sc(F(1, 3)), 4) == "0.3333"
    assert render_scalar_decimal(sc(F(2, 3)), 4) == "0.6667"
    assert render_scalar_decimal(sc(F(-1, 8)), 2) == "-0.12"  # tie -> even
    assert render_scalar_decimal(sc(F(1, 4)), 1) == "0.2"  # tie -> even
    assert render_scalar_decimal(sc(F(3, 4)), 1) == "0.8"
    assert render_scalar_decimal(sc(5), 0) == "5"
    assert render_scalar_decimal(sc(F(1, 2), F(-1, 3)), 3) == "0.500-0.333i"
    assert render_scalar_decimal(sc(0, 2), 2) == "2.00i"
    # a part that rounds to zero loses its sign, imaginary as well as real
    assert render_scalar_decimal(sc(F(-1, 10000)), 2) == "0.00"
    assert render_scalar_decimal(sc(1, F(-1, 10000)), 2) == "1.00+0.00i"
    assert render_scalar_decimal(sc(0, F(-1, 10000)), 2) == "0.00i"
    assert render_scalar_decimal(sc(F(-1, 10000), F(-1, 10000)), 2) == "0.00+0.00i"
    assert render_scalar_decimal(sc(1, F(-1, 200)), 2) == "1.00+0.00i"  # tie -> even
    assert render_scalar_decimal(sc(1, F(-1, 100)), 2) == "1.00-0.01i"
    assert render_scalar_decimal(sc(0, F(-1, 100)), 2) == "-0.01i"


def test_matrix_document_round_trip():
    m = mat([[sc(F(1, 2), 3), sc(-1)], [sc(0, F(-3, 4)), sc(7)]])
    doc = matrix_to_document(m)
    assert doc["rows"] == 2 and doc["cols"] == 2
    assert parse_matrix_document(doc) == m
    assert doc["entries"][0][0] == "1/2+3i"


def test_matrix_document_accepts_integers():
    doc = {"rows": 1, "cols": 2, "entries": [[3, "-i"]]}
    assert parse_matrix_document(doc) == mat([[sc(3), sc(0, -1)]])


def test_matrix_document_rejects_floats_and_bad_shapes():
    with pytest.raises(DocumentError):
        parse_matrix_document({"rows": 1, "cols": 1, "entries": [[0.5]]})
    with pytest.raises(DocumentError):
        parse_matrix_document({"rows": 2, "cols": 1, "entries": [["1"]]})
    with pytest.raises(DocumentError):
        parse_matrix_document({"rows": 1, "cols": 1})
    with pytest.raises(DocumentError):
        parse_matrix_document([1, 2])
    with pytest.raises(DocumentError):
        parse_matrix_document({"rows": 0, "cols": 1, "entries": []})


def test_matrix_document_rejects_boolean_dimensions():
    # JSON true is an int to Python, yet it is no more a dimension than an entry
    for rows, cols in ((True, True), (True, 1), (1, True), (False, 1)):
        with pytest.raises(DocumentError, match="rows and cols"):
            parse_matrix_document({"rows": rows, "cols": cols, "entries": [["1"]]})


def test_csv_real_matrices_only():
    m = parse_csv_matrix("1,2\n-1/2,0.25\n")
    assert m == mat([[1, 2], [F(-1, 2), F(1, 4)]])
    with pytest.raises(DocumentError):
        parse_csv_matrix("1,2i\n")
    with pytest.raises(DocumentError):
        parse_csv_matrix("")


def test_decimal_rendering_validation():
    with pytest.raises(DocumentError):
        render_scalar_decimal(sc(1), -1)


# -- literals past the interpreter's int/str digit limit (4300 by default) ----

REPUNIT_5001 = (10**5001 - 1) // 9  # 5001 ones, built without int(str)


def test_5001_digit_literal_round_trips():
    ones = "1" * 5001
    value = parse_scalar(ones)
    assert value == sc(REPUNIT_5001)
    assert render_scalar(value) == ones
    assert parse_scalar(f"-{ones}.{ones}") == sc(-REPUNIT_5001 - F(REPUNIT_5001, 10**5001))
    mixed = parse_scalar(f"1/{ones}-{ones}i")
    assert mixed == sc(F(1, REPUNIT_5001), -REPUNIT_5001)
    assert parse_scalar(render_scalar(mixed)) == mixed


def test_literal_over_the_digit_cap_is_refused():
    for text in (
        "7" * (MAX_LITERAL_DIGITS + 1),
        "1/" + "3" * (MAX_LITERAL_DIGITS + 1),
        "2+." + "5" * (MAX_LITERAL_DIGITS + 1) + "i",
    ):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text)
        assert f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}" in str(err.value)
        assert len(str(err.value)) < 300  # the literal is elided, not echoed
    assert parse_scalar("9" * MAX_LITERAL_DIGITS) == sc(10**MAX_LITERAL_DIGITS - 1)


def test_json_integers_share_the_cap(tmp_path):
    path = tmp_path / "A.json"
    path.write_text('{"rows": 1, "cols": 2, "entries": [[-%s, "1"]]}' % ("1" * 5001))
    assert load_matrix(str(path)) == mat([[-REPUNIT_5001, 1]])
    path.write_text('{"rows": 1, "cols": 1, "entries": [[%s]]}' % ("1" * (MAX_LITERAL_DIGITS + 1)))
    with pytest.raises(DocumentError, match="MAX_LITERAL_DIGITS"):
        load_matrix(str(path))


def test_huge_values_render_and_parse_back():
    x = 10**5000
    for value in (
        sc(x),
        sc(F(-x - 3, x // 10 + 7), F(x + 1, 3)),
        sc(0, -x),
        sc(F(1, x + 1), 1),
    ):
        assert parse_scalar(render_scalar(value)) == value
    assert render_scalar_decimal(sc(F(x, 3)), 2) == "3" * 5000 + ".33"


def test_digits_convert_whatever_the_interpreter_limit():
    # The interpreter's least allowed limit is 640 digits; parsing and
    # rendering must not depend on it (and must not change it).
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    code = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from exactgi import parse_scalar, render_scalar
ones = "1" * 5001
value = parse_scalar(ones + "/7-" + ones + ".5i")
repunit = (10**5001 - 1) // 9
assert value.re == Fraction(repunit, 7) and value.im == -repunit - Fraction(1, 2)
assert parse_scalar(render_scalar(value)) == value
assert sys.get_int_max_str_digits() == 640
"""
    src = str(Path(exactgi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-c", code, src],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


# -- only ASCII digits are digits ----------------------------------------------------


@pytest.mark.parametrize(
    "text, position",
    [("²", 0), ("1/²", 2), ("1.²", 2), ("٣", 0), ("٣/2", 0), ("1+٣i", 2), ("1/٣", 2)],
)
def test_non_ascii_digits_are_refused(text, position):
    # str.isdigit() takes superscripts and other scripts' digits; int()
    # rejects the first and takes the second, the grammar neither
    with pytest.raises(ScalarParseError) as err:
        parse_scalar(text)
    assert err.value.position == position
    with pytest.raises(DocumentError):
        parse_matrix_document({"rows": 1, "cols": 1, "entries": [[text]]})


# -- documents parse to, and render from, the canonical image -----------------------

# digit runs: short ones with leading and trailing zeros, and runs either side of
# CHUNK_DIGITS, where conversion switches to chunks
_runs = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    st.builds(lambda d, k: d * k, st.sampled_from("0159"),
              st.integers(CHUNK_DIGITS - 1, CHUNK_DIGITS + 40)),
)
_nonzero_runs = _runs.filter(lambda run: run.strip("0"))
_numbers = st.one_of(
    _runs,  # "7", "0004"
    st.builds(lambda a, b: f"{a}/{b}", _runs, _nonzero_runs),  # "6/4", "0/5"
    st.builds(lambda a, b: f"{a}.{b}", _runs, _runs),  # "0.500"
    _runs.map(lambda b: f".{b}"),  # ".25"
)
_signs = st.sampled_from(["", "-", "+"])
_reals = st.builds(lambda s, x: s + x, _signs, _numbers)
_imags = st.builds(lambda s, x: f"{s}{x}i", _signs, st.one_of(st.just(""), _numbers))
_literals = st.one_of(
    _reals,
    _imags,  # "i", "-i", "-.25i"
    st.builds(lambda x, s, y, gap: f"{x}{gap}{s}{gap}{y}i", _reals, st.sampled_from("+-"),
              st.one_of(st.just(""), _numbers), st.sampled_from(["", " "])),
)
_entries = st.one_of(_literals, st.integers(-(10**40), 10**40))


# -- the reader and the step-by-step reference agree ----------------------------------


@st.composite
def _spaced_literals(draw):
    """A valid literal with random spaces after its signs and before the
    second part's sign, and whitespace at its ends."""
    gap = st.text(" ", max_size=3)
    first = draw(st.one_of(_numbers, _numbers.map(lambda x: f"{x}i"), st.just("i")))
    text = draw(_signs) + draw(gap) + first
    if not first.endswith("i") and draw(st.booleans()):
        second = draw(st.one_of(st.just(""), _numbers))
        text += f"{draw(gap)}{draw(st.sampled_from('+-'))}{draw(gap)}{second}i"
    ends = st.sampled_from(["", " ", "\t", "\n "])
    return draw(ends) + text + draw(ends)


def _scanned(scan, text):
    try:
        return scan(text)
    except ScalarParseError as exc:
        return str(exc)


@settings(deadline=None)
@given(st.one_of(
    st.text("0123456789./+-i \t٣je", max_size=12),
    # tokens, so that near misses of the grammar come up often
    st.lists(st.sampled_from(["7", "20", "0", ".", "/", "+", "-", "i", " ", "\t", "٣"]),
             max_size=9).map("".join),
    _spaced_literals(),
))
@example("i+i")
@example("2i+3i")
@example("1/0")
@example("1+2/0i")
@example("-\t1")
@example("1/٣")
@example("1.")
@example(".5")
@example("-.5i")
@example("3/4i")
@example("1 +\t2i")
@example("7" * CHUNK_DIGITS)
@example("7" * (CHUNK_DIGITS + 1))
@example("1/" + "0" * 600)
@example("." + "5" * 520)
@example("4" * CHUNK_DIGITS + "." + "4" * CHUNK_DIGITS + "i")  # over the lowest digit limit
# which cap error comes first: the whole digits before the fraction, the
# numerator before a missing denominator, a run before what follows it, and
# the first part before the second
@example("8" * (MAX_LITERAL_DIGITS + 1) + "." + "9" * (MAX_LITERAL_DIGITS + 2))
@example("8" * (MAX_LITERAL_DIGITS + 1) + "/")
@example("8" * (MAX_LITERAL_DIGITS + 1) + "x")
@example("1+" + "8" * (MAX_LITERAL_DIGITS + 1) + "i")
@example("1/0+" + "8" * (MAX_LITERAL_DIGITS + 1) + "i")
# the cap and the chunked conversion at every other run of a term: the
# denominator, the fraction digits alone and after whole digits
@example("1/" + "7" * (MAX_LITERAL_DIGITS + 1))
@example("." + "7" * (MAX_LITERAL_DIGITS + 1))
@example("1." + "7" * (MAX_LITERAL_DIGITS + 1))
@example("1/" + "7" * (CHUNK_DIGITS + 1))
def test_literal_pattern_agrees_with_the_step_scanner_property(text):
    # `_scan_scalar` and ExactScalar's string parts read the grammar off one
    # pattern and one term routine; the step-by-step reference reads it one
    # token at a time.  The parts, or the error message with its position,
    # must be the reference's.
    assert _scanned(_scan_scalar, text) == _scanned(_scan_steps, text)
    assert _scanned(lambda part: ExactScalar(part).re, text) == _scanned(part_fraction, text)


def test_literal_pattern_parts_are_unreduced():
    assert _scan_scalar(".5") == (5, 10, 0, 1)
    assert _scan_scalar("2.50") == (250, 100, 0, 1)
    assert _scan_scalar(" - 6/4 +  i") == (-6, 4, 1, 1)
    assert _scan_scalar("-.5i") == (0, 1, -5, 10)


def _reference(rows):
    # entry by entry through parse_scalar and the Fraction-based constructor
    return ExactMatrix.from_rows(
        [[ExactScalar(v) if isinstance(v, int) else parse_scalar(v) for v in row] for row in rows]
    )


def _grids(elements):
    return st.integers(1, 4).flatmap(
        lambda cols: st.lists(st.lists(elements, min_size=cols, max_size=cols),
                              min_size=1, max_size=4)
    )


@settings(deadline=None)
@given(_grids(_entries))
@example([["6/4", "0.500"], ["-.25i", 3], ["i", "-i"]])
@example([["0", "0/5"], ["-0.000i", 0]])  # a zero matrix
@example([["1/3", "1/4+5/6i"], ["7/10", "-.125"]])  # mixed denominators
@example([["1" * 4301 + "/7", "2." + "5" * 4400 + "i"], [-(10**5000), "3"]])
def test_matrix_document_matches_entrywise_parse_property(rows):
    doc = {"rows": len(rows), "cols": len(rows[0]), "entries": rows}
    parsed = parse_matrix_document(doc)
    expected = _reference(rows)
    assert parsed == expected and hash(parsed) == hash(expected)
    assert clear_denominators(parsed) == clear_denominators(expected)


@settings(deadline=None)
@given(_grids(st.one_of(_reals, _reals.map(lambda x: f" {x} "))))
@example([["6/4", "0.500"], ["-.25", "0"]])
@example([["1" * 4301 + "/7"]])
def test_csv_matches_entrywise_parse_property(rows):
    text = "\n".join(",".join(row) for row in rows) + "\n"
    parsed = parse_csv_matrix(text)
    expected = _reference([[v.strip() for v in row] for row in rows])
    assert parsed == expected and hash(parsed) == hash(expected)


_parts = st.one_of(
    st.just(F(0)),
    st.sampled_from([F(1), F(-1)]),
    st.fractions(max_denominator=10**6),
    st.builds(F, st.integers(-(10**700), 10**700), st.integers(1, 10**30)),
)


@settings(deadline=None)
@given(_grids(st.builds(ExactScalar, _parts, _parts)), st.integers(0, 6))
@example([[ExactScalar(F(3, 2), 1), ExactScalar(0, -1)], [ExactScalar(0), ExactScalar(F(-1, 4))]], 0)
@example([[ExactScalar(F(10**5000 + 1, 3), F(-1, 10**4400))]], 2)
def test_matrix_document_renders_like_each_entry_property(rows, digits):
    m = ExactMatrix.from_rows(rows)
    assert matrix_to_document(m)["entries"] == [[render_scalar(e) for e in row] for row in rows]
    assert matrix_to_document(m, digits)["entries"] == [
        [render_scalar_decimal(e, digits) for e in row] for row in rows
    ]


def test_bad_entries_name_their_place_and_reason():
    cases = [
        ([["1", "6/4"], ["-.25i", "1/2+3j"]],
         "entry (2,2): invalid scalar '1/2+3j' at position 5: second part must be imaginary"),
        ([["1 + 2i + 3i", "2"], ["3", "4"]],
         "entry (1,1): invalid scalar '1 + 2i + 3i' at position 7: trailing characters"),
        ([["1", 2], [0.5, "i"]],
         "entry (2,1): JSON floats are not exact; write the entry as a string literal"),
        ([["1", True], ["0", "i"]], "entry (1,2): booleans are not scalars"),
    ]
    for rows, message in cases:
        with pytest.raises(DocumentError) as err:
            parse_matrix_document({"rows": 2, "cols": 2, "entries": rows})
        assert str(err.value) == message
    for text, message in [
        ("1,2\n3, 4x\n", "CSV cell (2,2): invalid scalar '4x' at position 1: expected '+' or '-'"),
        ("1,2\n\n0.5,1/0\n", "CSV cell (3,2): invalid scalar '1/0' at position 2: zero denominator"),
        ("1,2i\n", "CSV cell (1,2): CSV carries real matrices only"),
    ]:
        with pytest.raises(DocumentError) as err:
            parse_csv_matrix(text)
        assert str(err.value) == message
