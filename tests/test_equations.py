from fractions import Fraction as F
import ast
from pathlib import Path
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactgi
import exactgi.inverses as inverses_module
import exactgi.matrix as matrix_module
import exactgi.minors as minors_module
from exactgi import (
    ExactMatrix,
    ExactScalar,
    drazin_inverse_oracle,
    dz_solve_both,
    dz_solve_left,
    dz_solve_right,
    ls_solve_both,
    ls_solve_left,
    ls_solve_right,
    mp_inverse_oracle,
    principal_minor_sum,
    w_drazin_solve,
)
from exactgi.oracles import column_space_contains, row_space_contains

from cases import (
    AXB_DZ_A,
    AXB_DZ_B,
    AXB_DZ_D,
    AXB_DZ_X,
    AXB_LS_A,
    AXB_LS_B,
    AXB_LS_D,
    AXB_LS_X,
    DZ_A,
    DZ_XHAT,
    DZ_Y,
    LS_A,
    LS_X0,
    LS_Y,
    mat,
    sc,
)
from conftest import rand_index_matrix, rand_low_rank, rand_matrix, rand_unimodular


# -- least squares: AX = B and XA = B ------------------------------------------


def test_ls_left_single_column_matches_vector_solver():
    result = ls_solve_left(LS_A, LS_Y)
    assert result.X == LS_X0
    assert result.case_tag == "rank_deficient"
    assert result.ranks == (3,)


def test_ls_left_identity_and_oracle(rng):
    b = rand_matrix(rng, 3, 2)
    assert ls_solve_left(ExactMatrix.identity(3), b).X == b
    for _ in range(10):
        a = rand_low_rank(rng, 4, 3, rng.randint(0, 3))
        b = rand_matrix(rng, 4, 2)
        assert ls_solve_left(a, b).X == mp_inverse_oracle(a) @ b


def test_ls_right_identity_duality_oracle(rng):
    b = rand_matrix(rng, 2, 3)
    assert ls_solve_right(ExactMatrix.identity(3), b).X == b
    for _ in range(6):
        a = rand_matrix(rng, 4, 3, complex_ok=False)
        b = rand_matrix(rng, 2, 3, complex_ok=False)
        right = ls_solve_right(a, b).X
        left = ls_solve_left(a.transpose(), b.transpose()).X
        assert right == left.transpose()
    for _ in range(10):
        a = rand_low_rank(rng, 4, 3, rng.randint(0, 3))
        b = rand_matrix(rng, 2, 3)
        assert ls_solve_right(a, b).X == b @ mp_inverse_oracle(a)


def test_ls_residual_reported_exactly(rng):
    a = rand_low_rank(rng, 3, 2, 1)
    b = rand_matrix(rng, 3, 2)
    result = ls_solve_left(a, b)
    assert result.residual == b - a @ result.X


# -- least squares: AXB = D -------------------------------------------------------


def test_axb_ls_known_case():
    result = ls_solve_both(AXB_LS_A, AXB_LS_B, AXB_LS_D)
    assert result.case_tag == "i"
    assert result.ranks == (2, 1)
    assert result.X == AXB_LS_X
    gram_a = AXB_LS_A.conj_transpose() @ AXB_LS_A
    gram_b = AXB_LS_B @ AXB_LS_B.conj_transpose()
    assert principal_minor_sum(gram_a, 2) == sc(10)
    assert principal_minor_sum(gram_b, 1) == sc(6)
    oracle = mp_inverse_oracle(AXB_LS_A) @ AXB_LS_D @ mp_inverse_oracle(AXB_LS_B)
    assert result.X == oracle


def test_axb_ls_identity_and_routes(rng):
    d = rand_matrix(rng, 3, 3)
    assert ls_solve_both(ExactMatrix.identity(3), ExactMatrix.identity(3), d).X == d
    for _ in range(8):
        a = rand_low_rank(rng, 3, 2, rng.randint(0, 2))
        b = rand_low_rank(rng, 2, 3, rng.randint(0, 2))
        d = rand_matrix(rng, 3, 3)
        assert ls_solve_both(a, b, d).X == mp_inverse_oracle(a) @ d @ mp_inverse_oracle(b)


def test_axb_ls_all_four_rank_cases(rng):
    seen = {}
    shapes = [
        (rand_low_rank(rng, 4, 2, 1), rand_low_rank(rng, 2, 3, 1)),  # i
        (rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4)),  # likely ii
        (rand_matrix(rng, 4, 2), rand_low_rank(rng, 2, 3, 1)),  # likely iii
        (rand_low_rank(rng, 4, 2, 1), rand_matrix(rng, 2, 4)),  # likely iiii
    ]
    for a, b in shapes:
        d = rand_matrix(rng, a.rows, b.cols)
        result = ls_solve_both(a, b, d)
        oracle = mp_inverse_oracle(a) @ d @ mp_inverse_oracle(b)
        assert result.X == oracle
        seen[result.case_tag] = True
    # rank-degenerate draws can collapse a case; cover them deterministically
    fixed = {
        "i": (mat([[1, 0], [0, 0], [0, 0]]), mat([[1, 0, 0], [1, 0, 0]])),
        "ii": (mat([[1, 0], [0, 1], [1, 1]]), mat([[1, 0, 1], [0, 1, 1]])),
        "iii": (mat([[1, 0], [0, 1], [1, 1]]), mat([[1, 0, 0], [1, 0, 0]])),
        "iiii": (mat([[1, 0], [1, 0], [0, 0]]), mat([[1, 0, 1], [0, 1, 1]])),
    }
    for tag, (a, b) in fixed.items():
        d = rand_matrix(rng, a.rows, b.cols)
        result = ls_solve_both(a, b, d)
        assert result.case_tag == tag
        assert result.X == mp_inverse_oracle(a) @ d @ mp_inverse_oracle(b)


def test_axb_ls_consistent_full_rank_reproduces_rhs(rng):
    a = mat([[1, 0], [0, 1], [1, 1]])  # full column rank
    b = mat([[1, 0, 1], [0, 1, 1]])  # full row rank
    x_true = rand_matrix(rng, 2, 2)
    d = a @ x_true @ b
    result = ls_solve_both(a, b, d)
    assert a @ result.X @ b == d
    assert result.residual == ExactMatrix.zeros(3, 3)


def test_axb_shapes_validated(rng):
    with pytest.raises(ValueError):
        ls_solve_both(rand_matrix(rng, 3, 2), rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3))


# -- Drazin: AX = B, XA = B, AXB = D ---------------------------------------------


def test_dz_left_known_single_column():
    result = dz_solve_left(DZ_A, DZ_Y)
    assert result.X == DZ_XHAT
    assert result.indices == (2,)
    assert result.constraint_satisfied is False


def test_dz_left_nonsingular_and_oracle(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    b = rand_matrix(rng, 3, 2)
    result = dz_solve_left(a, b)
    assert result.X == inverse(a) @ b
    assert result.case_tag == "nonsingular"
    for _ in range(8):
        a = rand_index_matrix(rng, 4, rng.randint(1, 2), 2)
        b = rand_matrix(rng, 4, 2)
        assert dz_solve_left(a, b).X == drazin_inverse_oracle(a) @ b


def test_dz_left_constraint_made_true(rng):
    a = rand_index_matrix(rng, 4, 2, 2)
    k = 2
    b = a.power(k) @ rand_matrix(rng, 4, 2)
    result = dz_solve_left(a, b)
    assert result.constraint_satisfied is True
    assert a @ result.X == b  # exact solution under the range condition


def test_dz_right_identity_duality_oracle(rng):
    b = rand_matrix(rng, 2, 4)
    assert dz_solve_right(ExactMatrix.identity(4), b).X == b
    transposed = dz_solve_right(DZ_A.transpose(), DZ_Y.transpose()).X
    assert transposed == DZ_XHAT.transpose()
    for _ in range(8):
        a = rand_matrix(rng, 3, 3, span=1)
        b = rand_matrix(rng, 2, 3)
        assert dz_solve_right(a, b).X == b @ drazin_inverse_oracle(a)


def test_axb_dz_known_case():
    result = dz_solve_both(AXB_DZ_A, AXB_DZ_B, AXB_DZ_D)
    assert result.indices == (2, 1)
    assert result.ranks == (1, 2)
    assert result.X == AXB_DZ_X
    assert principal_minor_sum(AXB_DZ_B.power(2), 2) == sc(0, -18)
    assert principal_minor_sum(AXB_DZ_A.power(3), 1) == sc(8)
    oracle = (
        drazin_inverse_oracle(AXB_DZ_A) @ AXB_DZ_D @ drazin_inverse_oracle(AXB_DZ_B)
    )
    assert result.X == oracle


def test_axb_dz_nonsingular_and_fuzz(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        if not det(a).is_zero() and not det(b).is_zero():
            break
    d = rand_matrix(rng, 3, 3)
    assert dz_solve_both(a, b, d).X == inverse(a) @ d @ inverse(b)
    for _ in range(6):
        a = rand_index_matrix(rng, 4, 2, 2)
        b = rand_index_matrix(rng, 3, 2, 1)
        d = rand_matrix(rng, 4, 3)
        result = dz_solve_both(a, b, d)
        oracle = drazin_inverse_oracle(a) @ d @ drazin_inverse_oracle(b)
        assert result.X == oracle


def test_dz_both_nilpotent_side_gives_zero(rng):
    nil = mat([[0, 1], [0, 0]])
    b = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 2, 2)
    assert dz_solve_both(nil, b, d).X == ExactMatrix.zeros(2, 2)


def test_intermediates_exposed():
    result = ls_solve_both(AXB_LS_A, AXB_LS_B, AXB_LS_D)
    assert result.intermediates == {
        "D_check": AXB_LS_D @ AXB_LS_B.conj_transpose(),
        "D_hat": AXB_LS_A.conj_transpose() @ AXB_LS_D @ mp_inverse_oracle(AXB_LS_B),
    }
    left = ls_solve_left(LS_A, LS_Y)
    assert left.intermediates["B_hat"] == LS_A.conj_transpose() @ LS_Y


@pytest.mark.parametrize("solver, side", [(dz_solve_left, "column"), (dz_solve_right, "row")])
def test_drazin_solvers_rank_the_core_power_once(rng, monkeypatch, solver, side):
    # the rank profile ranks A and a block of A^2, and that is the only
    # ranking: the range verdict is read off the residual
    a = rand_index_matrix(rng, 5, 3, 1)
    inside = a @ rand_matrix(rng, 5, 2) if side == "column" else rand_matrix(rng, 2, 5) @ a
    outside = rand_matrix(rng, 5, 2) if side == "column" else rand_matrix(rng, 2, 5)
    eliminate = matrix_module._eliminate
    for b, in_range in ((inside, True), (outside, False)):
        calls = []
        monkeypatch.setattr(
            matrix_module, "_eliminate", lambda *args: calls.append(1) or eliminate(*args)
        )
        result = solver(a, b)
        assert (result.ranks, result.indices) == ((3,), (1,))
        assert result.constraint_satisfied is in_range
        assert len(calls) == 2


# -- the range verdict against the rank test -----------------------------------------


def _complex_rational(rng, a):
    # a nonzero scale keeps the ranges, the ranks and the index
    scale = ExactScalar(F(rng.choice([1, -2, 5]), rng.choice([1, 3, 4])), F(rng.randint(0, 1), 2))
    return a.scale(scale)


def _square(rng, n, index):
    """n x n, of index 0 to 3 by construction, or a product of random rank
    (index None) of whatever index it comes out as."""
    if index is None:
        a = rand_low_rank(rng, n, n, rng.randint(0, n))
    elif index == 0:
        a = rand_unimodular(rng, n)
    else:
        k = min(index, n)
        a = rand_index_matrix(rng, n, rng.randint(0, n - k), k)
    return _complex_rational(rng, a)


def _placed(rng, where, rows, cols, left=None, right=None):
    """A rows x cols right-hand side: zero, a random C (mostly outside the
    range), or left C right (inside the column space of left and the row
    space of right)."""
    if where == "zero":
        return ExactMatrix.zeros(rows, cols)
    c = _complex_rational(rng, rand_matrix(rng, rows, cols))
    if where == "inside":
        c = c if left is None else left @ c
        c = c if right is None else c @ right
    return c


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([0, 1, 2, 3, None]),
       st.sampled_from([0, 1, 2, 3, None]), st.sampled_from(["inside", "outside", "zero"]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_range_verdict_matches_the_rank_test_property(n, m, index, index_b, where, one_sided,
                                                      seed):
    # each Drazin solver reads its verdict off the residual; it must equal a
    # rank test on A^n, whose column and row spaces are those of A^k, n >= k.
    # A one-sided D of A X B = D is placed in the column space of A^k only.
    rng = random.Random(seed)
    a, b = _square(rng, n, index), _square(rng, m, index_b)
    core_a, core_b = a.power(n), b.power(m)
    verdicts = []  # (reported, rank test, placed inside both spaces)
    rhs = _placed(rng, where, n, m, left=core_a)
    expected = column_space_contains(core_a, rhs)
    verdicts.append((dz_solve_left(a, rhs).constraint_satisfied, expected, True))
    rhs = _placed(rng, where, n, m, right=core_b)
    expected = row_space_contains(core_b, rhs)
    verdicts.append((dz_solve_right(b, rhs).constraint_satisfied, expected, True))
    rhs = _placed(rng, where, n, m, left=core_a, right=None if one_sided else core_b)
    expected = column_space_contains(core_a, rhs) and row_space_contains(core_b, rhs)
    verdicts.append((dz_solve_both(a, b, rhs).constraint_satisfied, expected, not one_sided))
    # W A W x = y with A m x n and W n x m: y must lie in R((WA)^Ind(WA))
    matrix = _complex_rational(rng, rand_low_rank(rng, m, n, rng.randint(0, min(m, n))))
    weight = rand_matrix(rng, n, m, span=1)
    core_wa = (weight @ matrix).power(n)
    rhs = _placed(rng, where, n, 1, left=core_wa)
    expected = column_space_contains(core_wa, rhs)
    verdicts.append((w_drazin_solve(matrix, weight, rhs).in_prescribed_range, expected, True))
    for verdict, expected, placed in verdicts:
        assert verdict is expected
        assert expected or where == "outside" or not placed


# -- AXB = D as B's row rule, then A's column rule -------------------------------------


def test_axb_runs_one_cramer_ratio_per_side(rng, monkeypatch):
    # X = G_A (D G_B): two `_CramerRule.apply` calls, each one Cramer ratio
    # and no other kernel call; a rank-0 side makes no kernel call at all
    ratio, kernel = inverses_module.cramer_ratio, minors_module._kernel
    calls = []
    monkeypatch.setattr(inverses_module, "cramer_ratio",
                        lambda *args: calls.append("ratio") or ratio(*args))
    monkeypatch.setattr(minors_module, "_kernel",
                        lambda *args: calls.append("kernel") or kernel(*args))
    nil = mat([[0, 1], [0, 0]])
    cases = [
        (ls_solve_both, AXB_LS_A, AXB_LS_B, AXB_LS_D, 2),
        (dz_solve_both, AXB_DZ_A, AXB_DZ_B, AXB_DZ_D, 2),
        (ls_solve_both, ExactMatrix.zeros(*AXB_LS_A.shape), AXB_LS_B, AXB_LS_D, 0),
        (ls_solve_both, AXB_LS_A, ExactMatrix.zeros(*AXB_LS_B.shape), AXB_LS_D, 0),
        (dz_solve_both, nil, rand_matrix(rng, 3, 3), rand_matrix(rng, 2, 3), 0),
        (dz_solve_both, rand_matrix(rng, 3, 3), nil, rand_matrix(rng, 3, 2), 0),
    ]
    for solver, a, b, d, ratios in cases:
        calls.clear()
        solver(a, b, d)
        assert calls == ["ratio", "kernel"] * ratios
    # the kernel's undivided product is left to the tests
    for path in Path(exactgi.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "equations.py":
            assert not any(isinstance(node, ast.ImportFrom) and node.module == "minors"
                           for node in ast.walk(tree))
        if path.name != "minors.py":
            names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
            names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                      for alias in node.names}
            assert "adjugate_product" not in names, path.name

def test_axb_at_full_rank_forms_no_residual_product(rng, monkeypatch):
    # A of full row rank and B of full column rank give A A+ = I and B+ B = I,
    # nonsingular A and B give A A^D = I and B^D B = I: either way D - A X B
    # is zero, and the solve makes only the products of its two rule
    # applications, 2 fewer than forming A X B would
    product = matrix_module.int_matmul
    calls = []
    monkeypatch.setattr(matrix_module, "int_matmul",
                        lambda *args: calls.append(1) or product(*args))
    dz_rule = lambda m, side: inverses_module._drazin_rule(matrix_module.rank_profile(m), side)
    cases = [
        (ls_solve_both, inverses_module._mp_rule, mp_inverse_oracle,
         mat([[1, sc(0, 1), 0], [0, 1, 2]]), mat([[1, 0], [sc(0, 1), 1], [2, -1]])),
        (dz_solve_both, dz_rule, drazin_inverse_oracle,
         mat([[1, 1], [0, sc(1, 1)]]), mat([[2, 1, 0], [1, 1, 0], [0, 3, 1]])),
    ]
    for solver, rule, oracle, a, b in cases:
        d = rand_matrix(rng, a.rows, b.cols)
        calls.clear()
        result = solver(a, b, d)
        solved = len(calls)
        calls.clear()
        rule(a, "column").apply(rule(b, "row").apply(d)[0])
        assert solved == len(calls) > 0
        assert result.residual == ExactMatrix.zeros(*d.shape)
        assert result.X == oracle(a) @ d @ oracle(b)


def _rectangular(rng, rows, cols):
    return _complex_rational(rng, rand_low_rank(rng, rows, cols, rng.randint(0, min(rows, cols))))


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from([0, 1, 2, 3, None]), st.sampled_from([0, 1, 2, 3, None]),
       st.integers(0, 2**32 - 1))
def test_axb_matches_the_oracle_product_property(m, n, p, q, index_a, index_b, seed):
    # X = G_A D G_B, the residual D - A X B, and the two replacement blocks
    # D F_B and F_A (D G_B), with F = A* (LS) or A^k (Drazin)
    rng = random.Random(seed)
    a, b = _rectangular(rng, m, n), _rectangular(rng, p, q)
    d = _complex_rational(rng, rand_matrix(rng, m, q))
    ga, gb = mp_inverse_oracle(a), mp_inverse_oracle(b)
    runs = [(ls_solve_both(a, b, d), a, b, d, ga, gb, a.conj_transpose(), b.conj_transpose())]
    a, b = _square(rng, m, index_a), _square(rng, p, index_b)
    d = _complex_rational(rng, rand_matrix(rng, m, p))
    result = dz_solve_both(a, b, d)
    ka, kb = result.indices
    runs.append((result, a, b, d, drazin_inverse_oracle(a), drazin_inverse_oracle(b),
                 a.power(ka), b.power(kb)))
    for result, a, b, d, ga, gb, fa, fb in runs:
        assert result.X == ga @ d @ gb
        assert result.residual == d - a @ result.X @ b
        if min(result.ranks):
            assert result.intermediates == {"D_check": d @ fb, "D_hat": fa @ (d @ gb)}
        else:
            assert result.intermediates == {}
