import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import exactgi
from exactgi import (
    ExactMatrix,
    drazin_inverse_oracle,
    drazin_solve,
    drazin_solve_row,
    dz_solve_left,
    ls_min_norm_solve,
    ls_min_norm_solve_row,
    ls_solve_left,
    mp_inverse_oracle,
    w_drazin_solve,
)

from cases import DZ_A, DZ_XHAT, DZ_Y, LS_A, LS_X0, LS_Y, sc
from conftest import rand_low_rank, rand_matrix, rand_index_matrix


# -- minimum-norm least squares -----------------------------------------------


def test_ls_known_system():
    report = ls_min_norm_solve(LS_A, LS_Y)
    assert report.solution == LS_X0
    assert report.solution.entry(2, 1) == sc(F(-416, 1701))
    assert report.rank_used == 3
    assert report.residual_norm_sq == sc(F(1, 3))
    assert report.solution == mp_inverse_oracle(LS_A) @ LS_Y


def test_ls_identity():
    y = ExactMatrix.column([sc(4), sc(-1), sc(7)])
    report = ls_min_norm_solve(ExactMatrix.identity(3), y)
    assert report.solution == y
    assert report.residual_norm_sq == sc(0)


def test_ls_zero_matrix():
    y = ExactMatrix.column([sc(1), sc(2)])
    report = ls_min_norm_solve(ExactMatrix.zeros(2, 3), y)
    assert report.solution == ExactMatrix.zeros(3, 1)
    assert report.residual_norm_sq == sc(5)


def test_ls_matches_oracle_and_minimality(rng):
    for _ in range(10):
        a = rand_low_rank(rng, 4, 3, 2)
        y = rand_matrix(rng, 4, 1)
        report = ls_min_norm_solve(a, y)
        x0 = report.solution
        assert x0 == mp_inverse_oracle(a) @ y
        best = (a @ x0 - y).frobenius_norm_sq()
        assert report.residual_norm_sq == sc(best)
        for _ in range(20):
            z = rand_matrix(rng, 3, 1)
            assert (a @ z - y).frobenius_norm_sq() >= best


def test_ls_minimum_norm_among_minimizers(rng):
    from exactgi import projector

    for _ in range(6):
        a = rand_low_rank(rng, 3, 4, 2)
        y = rand_matrix(rng, 3, 1)
        x0 = ls_min_norm_solve(a, y).solution
        p = projector(a, "in")
        eye = ExactMatrix.identity(4)
        for _ in range(10):
            c = rand_matrix(rng, 4, 1)
            other = x0 + (eye - p) @ c
            assert (a @ other - y).frobenius_norm_sq() == (a @ x0 - y).frobenius_norm_sq()
            assert other.frobenius_norm_sq() >= x0.frobenius_norm_sq()


def test_ls_row_identity_and_duality(rng):
    y = ExactMatrix.row_vector([sc(1), sc(2), sc(3)])
    assert ls_min_norm_solve_row(y, ExactMatrix.identity(3)).solution == y
    for _ in range(8):
        a = rand_matrix(rng, 3, 5, complex_ok=False)
        yr = rand_matrix(rng, 1, 5, complex_ok=False)
        row_sol = ls_min_norm_solve_row(yr, a).solution
        col_sol = ls_min_norm_solve(a.transpose(), yr.transpose()).solution
        assert row_sol == col_sol.transpose()


def test_ls_row_matches_oracle(rng):
    for _ in range(8):
        a = rand_low_rank(rng, 3, 5, 2)
        y = rand_matrix(rng, 1, 5)
        assert ls_min_norm_solve_row(y, a).solution == y @ mp_inverse_oracle(a)


# -- Drazin solutions ------------------------------------------------------------


def test_drazin_known_system():
    report = drazin_solve(DZ_A, DZ_Y)
    assert report.solution == DZ_XHAT
    assert report.rank_used == 2 and report.index_used == 2
    # the solution solves the shifted system A^(k+1) x = A^k y exactly
    k = report.index_used
    assert DZ_A.power(k + 1) @ report.solution == DZ_A.power(k) @ DZ_Y


def test_drazin_nonsingular_solves_exactly(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    y = rand_matrix(rng, 3, 1)
    report = drazin_solve(a, y)
    assert report.solution == inverse(a) @ y
    assert report.residual_norm_sq == sc(0)
    assert report.in_prescribed_range is True


def test_drazin_matches_oracle_fuzz(rng):
    for _ in range(10):
        a = rand_index_matrix(rng, 4, rng.randint(1, 2), 2)
        y = rand_matrix(rng, 4, 1)
        report = drazin_solve(a, y)
        assert report.solution == drazin_inverse_oracle(a) @ y
        assert a.power(3) @ report.solution == a.power(2) @ y
        from exactgi.oracles import column_space_contains

        assert column_space_contains(a.power(report.index_used), report.solution)


def test_drazin_row_duality_and_oracle(rng):
    y = ExactMatrix.row_vector([sc(1), sc(2), sc(3), sc(1)])
    assert drazin_solve_row(y, ExactMatrix.identity(4)).solution == y
    transposed = drazin_solve_row(DZ_Y.transpose(), DZ_A.transpose()).solution
    assert transposed == DZ_XHAT.transpose()
    for _ in range(8):
        a = rand_matrix(rng, 3, 3, span=1)
        yr = rand_matrix(rng, 1, 3)
        assert drazin_solve_row(yr, a).solution == yr @ drazin_inverse_oracle(a)


def test_drazin_range_diagnosis():
    report = drazin_solve(DZ_A, DZ_Y)
    assert report.in_prescribed_range is False  # inconsistent singular system
    inside = DZ_A.power(2) @ DZ_Y
    report2 = drazin_solve(DZ_A, inside)
    assert report2.in_prescribed_range is True
    assert DZ_A @ report2.solution == inside  # true solution when y is in range


# -- weighted Drazin solutions -----------------------------------------------------


def test_w_drazin_identity_weight_matches_drazin(rng):
    for _ in range(6):
        a = rand_matrix(rng, 3, 3, span=1)
        y = rand_matrix(rng, 3, 1)
        left = w_drazin_solve(a, ExactMatrix.identity(3), y)
        right = drazin_solve(a, y)
        assert left.solution == right.solution


def test_w_drazin_nonsingular(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    y = rand_matrix(rng, 3, 1)
    report = w_drazin_solve(a, ExactMatrix.identity(3), y)
    assert report.solution == inverse(a) @ y


def test_w_drazin_forced_range_membership(rng):
    from exactgi import rank_profile, w_drazin_inverse

    hits = 0
    for _ in range(20):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        a = rand_matrix(rng, m, n, span=1)
        w = rand_matrix(rng, n, m, span=1)
        wa = rank_profile(w @ a)
        seed = rand_matrix(rng, n, 1)
        y = wa.power(wa.index) @ seed  # forced into the prescribed range
        if y.is_zero():
            continue
        report = w_drazin_solve(a, w, y)
        assert report.in_prescribed_range is True
        assert (w @ a @ w) @ report.solution == y
        assert report.solution == w_drazin_inverse(a, w).inverse @ y
        hits += 1
    assert hits >= 5


def test_w_drazin_residual_is_that_of_w_a_w(rng):
    # rank(A) <= 1, so a random y is mostly outside the prescribed range and
    # W A W x - y is not zero
    nonzero = 0
    for _ in range(12):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a = rand_low_rank(rng, m, n, 1)
        w = rand_matrix(rng, n, m, span=1)
        y = rand_matrix(rng, n, 1)
        report = w_drazin_solve(a, w, y)
        residual = w @ a @ w @ report.solution - y
        assert report.residual_norm_sq == sc(residual.frobenius_norm_sq())
        nonzero += not residual.is_zero()
    assert nonzero >= 10


# -- agreement with the matrix-equation solvers ----------------------------------


def test_single_column_reduction_matches_matrix_equation(rng):
    from exactgi import dz_solve_right, ls_solve_right

    def agrees(report, solution, residual):
        # the whole report: solution, rank, index, residual and range verdict
        assert report.solution == solution.X
        assert report.rank_used == solution.ranks[0]
        assert report.index_used == (solution.indices[0] if solution.indices else 0)
        assert report.residual_norm_sq == sc(residual.frobenius_norm_sq())
        assert report.residual_norm_sq == sc(solution.residual.frobenius_norm_sq())
        assert report.in_prescribed_range == solution.constraint_satisfied

    zero = ExactMatrix.zeros
    for _ in range(6):
        a = rand_low_rank(rng, 4, 3, 2)
        y = rand_matrix(rng, 4, 1)
        assert ls_min_norm_solve(a, y).solution == ls_solve_left(a, y).X
    for a in [rand_low_rank(rng, 4, 3, 2) for _ in range(3)] + [zero(4, 3)]:
        y = rand_matrix(rng, 4, 1)
        report = ls_min_norm_solve(a, y)
        agrees(report, ls_solve_left(a, y), a @ report.solution - y)
    for _ in range(6):
        a = rand_matrix(rng, 3, 3, span=1)
        y = rand_matrix(rng, 3, 1)
        assert drazin_solve(a, y).solution == dz_solve_left(a, y).X
    square = [rand_matrix(rng, 3, 3, span=1), rand_index_matrix(rng, 3, 1, 2)]
    for a in square + [zero(3, 3), rand_index_matrix(rng, 3, 0, 3)]:
        y = rand_matrix(rng, 3, 1)
        report = drazin_solve(a, y)
        agrees(report, dz_solve_left(a, y), a @ report.solution - y)
    for _ in range(6):
        a = rand_low_rank(rng, 3, 4, 2)
        y = rand_matrix(rng, 1, 4)
        assert ls_min_norm_solve_row(y, a).solution == ls_solve_right(a, y).X
    for a in [rand_low_rank(rng, 3, 4, 2) for _ in range(3)] + [zero(3, 4)]:
        y = rand_matrix(rng, 1, 4)
        report = ls_min_norm_solve_row(y, a)
        agrees(report, ls_solve_right(a, y), report.solution @ a - y)
    for _ in range(6):
        a = rand_matrix(rng, 3, 3, span=1)
        y = rand_matrix(rng, 1, 3)
        assert drazin_solve_row(y, a).solution == dz_solve_right(a, y).X
    for a in square + [zero(3, 3), rand_index_matrix(rng, 3, 0, 3)]:
        y = rand_matrix(rng, 1, 3)
        report = drazin_solve_row(y, a)
        agrees(report, dz_solve_right(a, y), report.solution @ a - y)


def test_solver_input_validation(rng):
    with pytest.raises(ValueError):
        ls_min_norm_solve(rand_matrix(rng, 3, 2), ExactMatrix.column([sc(1)] * 2))
    with pytest.raises(ValueError):
        drazin_solve(rand_matrix(rng, 2, 3), ExactMatrix.column([sc(1)] * 2))
    with pytest.raises(ValueError):
        w_drazin_solve(
            rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3), ExactMatrix.column([sc(1)] * 3)
        )


def test_reimport_releases_old_package():
    # A module-level typing alias over the package's classes would sit in
    # typing's cache and keep a re-imported package's old modules alive.
    code = """
import gc, sys, weakref
sys.path.insert(0, sys.argv[1])
import exactgi
old = weakref.ref(exactgi.ExactMatrix)
for name in [n for n in sys.modules if n.split(".")[0] == "exactgi"]:
    del sys.modules[name]
del exactgi
import exactgi
gc.collect()
assert old() is None, "the old ExactMatrix class is still referenced"
"""
    src = str(Path(exactgi.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
