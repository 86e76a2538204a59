import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import exactgi
from exactgi import ExactMatrix, inverse, mp_inverse, parse_matrix_document, parse_scalar
from exactgi.cli import _build_parser, _json_text, main

from cases import (
    AXB_DZ_A,
    AXB_DZ_B,
    AXB_DZ_D,
    AXB_DZ_X,
    DZ_A,
    DZ_XHAT,
    DZ_Y,
    LS_A,
    LS_PINV,
    ODE_A,
    ODE_B,
    mat,
)
from exactgi.documents import matrix_to_document
from exactgi.scalar import MAX_LITERAL_DIGITS


def write(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_document(matrix)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pinv_end_to_end(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    code, out, err = run(capsys, ["pinv", "--in", a_path])
    assert code == 0, err
    doc = json.loads(out)
    assert parse_matrix_document(doc) == LS_PINV
    assert doc["denominator"] == "102060"
    assert doc["rank"] == 3


def test_solve_drazin_end_to_end(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", DZ_A)
    y_path = write(tmp_path, "y.json", DZ_Y)
    code, out, err = run(
        capsys, ["solve", "--kind", "drazin", "--in", a_path, "--rhs", y_path]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert parse_matrix_document(doc) == DZ_XHAT
    assert doc["index"] == 2


def test_solve_lsmin_row_side(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[1, 0], [0, 1], [0, 0]]))
    y_path = write(tmp_path, "y.json", mat([[1, 2]]))
    code, out, err = run(
        capsys,
        ["solve", "--kind", "lsmin", "--side", "right", "--in", a_path, "--rhs", y_path],
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["rows"] == 1 and doc["cols"] == 3


def test_mateq_axb_drazin(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", AXB_DZ_A)
    b_path = write(tmp_path, "B.json", AXB_DZ_B)
    d_path = write(tmp_path, "D.json", AXB_DZ_D)
    code, out, err = run(
        capsys,
        [
            "mateq", "--eq", "axb", "--kind", "drazin",
            "--in", a_path, "--B", b_path, "--rhs", d_path,
        ],
    )
    assert code == 0, err
    doc = json.loads(out)
    assert parse_matrix_document(doc) == AXB_DZ_X
    assert doc["indices"] == [2, 1]


def test_ode_subcommand(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", ODE_A)
    b_path = write(tmp_path, "B.json", ODE_B)
    code, out, err = run(
        capsys, ["ode", "--side", "left", "--in", a_path, "--B", b_path]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["substitution_identity"] is True
    assert len(doc["coefficients"]) == 2
    assert doc["coefficients"][0]["entries"][0][0] == "1/6+1/6i"


def test_proj_and_verify(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    code, out, err = run(capsys, ["proj", "--in", a_path, "--which", "in"])
    assert code == 0, err
    p = parse_matrix_document(json.loads(out))
    assert p @ p == p
    x_path = write(tmp_path, "X.json", LS_PINV)
    code, out, err = run(
        capsys, ["verify", "--kind", "mp", "--in", a_path, "--X", x_path]
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["all_satisfied"] is True
    assert set(doc["equations"]) == {"AXA=A", "XAX=X", "(AX)*=AX", "(XA)*=XA"}


def test_decimal_rendering_flag(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[3, 0], [0, 0]]))
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--decimal", "4"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["entries"][0][0] == "0.3333"


def test_out_file(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[1, 0], [0, 1]]))
    out_path = tmp_path / "result.json"
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--out", str(out_path)])
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["entries"] == [["1", "0"], ["0", "1"]]


def test_out_file_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[1, 0], [0, 1]]))
    out_path = tmp_path / "missing" / "result.json"
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"gi: cannot write {out_path}: ")


def test_csv_input(tmp_path, capsys):
    path = tmp_path / "A.csv"
    path.write_text("1,0\n0,2\n")
    code, out, err = run(capsys, ["pinv", "--in", str(path)])
    assert code == 0, err
    assert json.loads(out)["entries"][1][1] == "1/2"


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": [["2//3", "1"], ["0", "1"]]}')
    code, out, err = run(capsys, ["pinv", "--in", str(path)])
    assert code == 2
    assert "2//3" in err
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, ["pinv", "--in", missing])
    assert code == 2


def test_budget_exceeded_exits_3(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--budget", "5"])
    assert code == 3
    assert "budget" in err


def test_negative_budget_exits_2(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--budget", "-1"])
    assert (code, out) == (2, "")
    assert "--budget" in err
    code, _, _ = run(capsys, ["pinv", "--in", a_path, "--budget", "0"])
    assert code == 3


def test_decimal_out_of_range_exits_2_on_every_command(tmp_path, capsys):
    # checked before any input is read, also where nothing is rendered as
    # decimals (verify), and above the cap before 10**K is formed per entry
    a_path = write(tmp_path, "A.json", LS_A)
    x_path = write(tmp_path, "X.json", LS_PINV)
    verify = ["verify", "--kind", "mp", "--in", a_path, "--X", x_path]
    for argv in (["pinv", "--in", a_path], verify):
        for k in ("-1", str(MAX_LITERAL_DIGITS + 1)):
            code, out, err = run(capsys, argv + ["--decimal", k])
            assert (code, out) == (2, "")
            assert "--decimal" in err
    code, out, err = run(capsys, verify + ["--decimal", "0"])
    assert code == 0, err
    assert json.loads(out)["all_satisfied"] is True
    code, out, err = run(capsys, ["pinv", "--in", write(tmp_path, "I.json", mat([[1]])),
                                  "--decimal", str(MAX_LITERAL_DIGITS)])
    assert code == 0, err
    assert json.loads(out)["entries"] == [["1." + "0" * MAX_LITERAL_DIGITS]]


def test_ode_on_a_nonsingular_matrix_is_budgeted(tmp_path, capsys):
    # a nonsingular A runs the guarded Cramer rule of A^D = A^(-1)
    a_path = write(tmp_path, "A.json", mat([[2, 1], [1, 1]]))
    b_path = write(tmp_path, "B.json", ExactMatrix.identity(2))
    argv = ["ode", "--side", "left", "--in", a_path, "--B", b_path]
    code, out, err = run(capsys, argv + ["--budget", "0"])
    assert (code, out) == (3, "")
    assert "budget" in err
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["coefficients"] == [matrix_to_document(mat([[1, -1], [-1, 2]]))]


def test_wpinv_rejects_row_form(tmp_path, capsys):
    from exactgi import ExactMatrix

    a_path = write(tmp_path, "A.json", mat([[1, 2], [0, 1], [1, 1]]))
    m_path = write(tmp_path, "M.json", ExactMatrix.identity(3))
    n_path = write(tmp_path, "N.json", ExactMatrix.identity(2))
    code, out, err = run(
        capsys,
        ["wpinv", "--in", a_path, "--M", m_path, "--N", n_path, "--form", "row"],
    )
    assert code == 2
    code, out, err = run(
        capsys, ["wpinv", "--in", a_path, "--M", m_path, "--N", n_path]
    )
    assert code == 0, err


def test_wdrazin_solve_rejects_row_side(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[1, 0], [0, 1]]))
    y_path = write(tmp_path, "y.json", mat([[1], [2]]))
    code, _, err = run(
        capsys,
        [
            "solve", "--kind", "wdrazin", "--side", "right",
            "--in", a_path, "--rhs", y_path, "--W", a_path,
        ],
    )
    assert code == 2


def test_group_inverse_error_exits_2(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[0, 1], [0, 0]]))
    code, _, err = run(capsys, ["ginv", "--in", a_path])
    assert code == 2
    assert "index" in err


def test_threads_flag_is_refused(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    with pytest.raises(SystemExit) as exit_info:
        main(["pinv", "--in", a_path, "--threads", "2"])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err


# -- one parser per process ------------------------------------------------------


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_first_call_output_in_a_fresh_process(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", LS_A)
    src = str(Path(exactgi.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from exactgi.cli import main; "
         "sys.exit(main(sys.argv[2:]))",
         src, "pinv", "--in", a_path],
        capture_output=True, text=True,
    )
    assert fresh.returncode == 0, fresh.stderr
    code, row_out, err = run(capsys, ["pinv", "--form", "row", "--in", a_path])
    assert code == 0, err
    assert json.loads(row_out)["representation"] != json.loads(fresh.stdout)["representation"]
    # --form row must not stick to the reused parser
    code, out, err = run(capsys, ["pinv", "--in", a_path])
    assert code == 0, err
    assert out == fresh.stdout


def test_rejected_argv_leaves_the_parser_unchanged(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", DZ_A)
    code, before, err = run(capsys, ["dinv", "--in", a_path])
    assert code == 0, err
    for bad in (["dinv"], ["dinv", "--in", a_path, "--form", "diagonal"], ["nope"]):
        with pytest.raises(SystemExit) as exit_info:
            main(bad)
        assert exit_info.value.code == 2
        capsys.readouterr()
    code, after, err = run(capsys, ["dinv", "--in", a_path])
    assert code == 0, err
    assert after == before


def test_out_does_not_carry_over(tmp_path, capsys):
    a_path = write(tmp_path, "A.json", mat([[2, 0], [0, 4]]))
    b_path = write(tmp_path, "B.json", mat([[1, 0], [0, 1]]))
    out_path = tmp_path / "result.json"
    code, out, err = run(capsys, ["pinv", "--in", a_path, "--out", str(out_path)])
    assert code == 0 and out == "", err
    written = out_path.read_text()
    code, out, err = run(capsys, ["pinv", "--in", b_path])
    assert code == 0, err
    assert json.loads(out)["entries"] == [["1", "0"], ["0", "1"]]
    assert out_path.read_text() == written
    assert json.loads(written)["entries"] == [["1/2", "0"], ["0", "1/4"]]


def test_reimport_releases_old_parsers():
    # The cached parser belongs to its module; re-imports must not pile up.
    code = """
import gc, sys, weakref
sys.path.insert(0, sys.argv[1])
parsers = []
for _ in range(5):
    import exactgi.cli
    parsers.append(weakref.ref(exactgi.cli._build_parser()))
    for name in [n for n in sys.modules if n.split(".")[0] == "exactgi"]:
        del sys.modules[name]
    del exactgi
gc.collect()
alive = sum(ref() is not None for ref in parsers)
assert alive == 0, f"{alive} of 5 parsers are still alive"
"""
    src = str(Path(exactgi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


# -- entries past the interpreter's int/str digit limit ------------------------------


def test_pinv_of_entries_past_the_digit_limit(tmp_path, capsys):
    x = 10**3000
    a = mat([[x * x, 1], [1, x]])
    path = tmp_path / "A.json"
    path.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["1" + "0" * 6000, "1"], ["1", "1" + "0" * 3000]]}
    ))
    code, out, err = run(capsys, ["pinv", "--in", str(path)])
    assert code == 0, err
    doc = json.loads(out)
    assert parse_matrix_document(doc) == inverse(a)
    assert parse_scalar(doc["denominator"]) == mp_inverse(a).denominator


# the leaves of a `gi` document, and values json.dumps takes that the fixed
# layout hands back to it: floats, tuples, dicts with non-str keys, subclasses
class _Text(str):
    pass


class _Count(int):
    pass


_leaves = (st.text() | st.integers(-(10**30), 10**30) | st.booleans() | st.none()
           | st.floats(allow_nan=True) | st.builds(_Text, st.text())
           | st.builds(_Count, st.integers(-5, 5)))
_documents = st.recursive(
    _leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.integers(-3, 3) | st.booleans() | st.none(), inner,
                                     max_size=3)),
    max_leaves=24,
)


@given(_documents)
def test_json_layout_is_json_dumps_indent_2_property(doc):
    # _emit writes through the fixed layout; stdout must stay what
    # json.dumps(doc, indent=2) wrote, byte for byte, at every depth
    assert _json_text(doc) == json.dumps(doc, indent=2)

