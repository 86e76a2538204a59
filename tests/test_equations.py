import pytest

import exactgi.matrix as matrix_module
from exactgi import (
    ExactMatrix,
    drazin_inverse_oracle,
    dz_solve_both,
    dz_solve_left,
    dz_solve_right,
    ls_solve_both,
    ls_solve_left,
    ls_solve_right,
    mp_inverse_oracle,
    principal_minor_sum,
)

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
from conftest import rand_low_rank, rand_matrix, rand_index_matrix


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
        via_b = ls_solve_both(a, b, d, route="dB")
        via_a = ls_solve_both(a, b, d, route="dA")
        assert via_b.X == via_a.X
        assert via_b.X == mp_inverse_oracle(a) @ d @ mp_inverse_oracle(b)


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
        assert ls_solve_both(a, b, d, route="dA").X == result.X


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
    assert dz_solve_both(AXB_DZ_A, AXB_DZ_B, AXB_DZ_D, route="dA").X == result.X


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
        assert dz_solve_both(a, b, d, route="dA").X == result.X


def test_dz_both_nilpotent_side_gives_zero(rng):
    nil = mat([[0, 1], [0, 0]])
    b = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 2, 2)
    assert dz_solve_both(nil, b, d).X == ExactMatrix.zeros(2, 2)


def test_intermediates_exposed():
    result = ls_solve_both(AXB_LS_A, AXB_LS_B, AXB_LS_D)
    d_tilde = result.intermediates["D_tilde"]
    assert d_tilde == AXB_LS_A.conj_transpose() @ AXB_LS_D @ AXB_LS_B.conj_transpose()
    assert "d_B" in result.intermediates
    left = ls_solve_left(LS_A, LS_Y)
    assert left.intermediates["B_hat"] == LS_A.conj_transpose() @ LS_Y


@pytest.mark.parametrize("solver, side", [(dz_solve_left, "column"), (dz_solve_right, "row")])
def test_drazin_solvers_rank_the_core_power_once(rng, monkeypatch, solver, side):
    # the rank profile ranks A and a block of A^2; the range check joins B to
    # A^k and reuses the profile's rank of A^k instead of ranking A^k again
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
        assert len(calls) == 3
