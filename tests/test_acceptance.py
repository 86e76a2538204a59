"""Acceptance suite.

Each test implements one acceptance criterion end to end, at zero tolerance
(everything is exact), and prints one pass line; run `pytest -s
tests/test_acceptance.py` to see the lines.  The whole suite is expected to
finish in well under a minute.
"""

import random
import time
from fractions import Fraction as F

import pytest

from exactgi import (
    BudgetExceededError,
    ExactMatrix,
    WeightPair,
    char_poly_coeffs,
    drazin_inverse,
    drazin_inverse_oracle,
    drazin_solve,
    dz_solve_both,
    dz_solve_left,
    dz_solve_right,
    index_of,
    ls_min_norm_solve,
    ls_solve_both,
    ls_solve_left,
    ls_solve_right,
    mp_inverse,
    mp_inverse_oracle,
    ode_left_partial,
    principal_minor_sum,
    projector,
    rank,
    substitute_check,
    verify_defining_equations,
    w_drazin_inverse,
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
    DZ_AD,
    DZ_XHAT,
    DZ_Y,
    LS_A,
    LS_PINV,
    LS_X0,
    LS_Y,
    ODE_A,
    ODE_B,
    sc,
)
from conftest import rand_low_rank, rand_matrix


def note(line: str) -> None:
    print(f"\n[acceptance] {line}")


# -- shared fuzz corpus ----------------------------------------------------------

_CORPUS: list[ExactMatrix] | None = None


def corpus() -> list[ExactMatrix]:
    """>= 500 random matrices, m,n <= 5, small Gaussian-integer entries,
    all ranks represented; deterministic across runs."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(987654321)
        matrices: list[ExactMatrix] = []
        for idx in range(520):
            m = rng.randint(1, 5)
            n = m if idx % 5 < 2 else rng.randint(1, 5)
            if idx % 2:
                matrices.append(
                    rand_low_rank(rng, m, n, rng.randint(0, min(m, n)), span=1)
                )
            else:
                matrices.append(rand_matrix(rng, m, n, span=1))
        _CORPUS = matrices
    return _CORPUS


def test_criterion_01_moore_penrose_golden():
    column = mp_inverse(LS_A, form="column")
    row = mp_inverse(LS_A, form="row")
    oracle = mp_inverse_oracle(LS_A)
    assert column.inverse == LS_PINV
    assert row.inverse == LS_PINV
    assert oracle == LS_PINV
    assert column.denominator == sc(102060)
    # rank 3 < 4: both evaluations ran the generic minor-sum path, no
    # full-rank specialization
    assert column.representation == "column_form"
    assert row.representation == "row_form"
    note("criterion 1 PASS: 4x4 rank-3 pseudoinverse, both forms + oracle")


def test_criterion_02_min_norm_ls_golden():
    report = ls_min_norm_solve(LS_A, LS_Y)
    assert report.solution == LS_X0
    second = report.solution.entry(2, 1)
    assert second == sc(F(-24960, 102060))  # the exact reduction, -416/1701
    assert second == sc(F(-416, 1701))
    assert second == (mp_inverse_oracle(LS_A) @ LS_Y).entry(2, 1)
    note("criterion 2 PASS: minimum-norm LS solution with adjudicated component")


def test_criterion_03_drazin_golden():
    assert index_of(DZ_A) == 2
    assert principal_minor_sum(DZ_A.power(3), 2) == sc(8)
    report = drazin_inverse(DZ_A)
    assert report.inverse == DZ_AD
    assert drazin_solve(DZ_A, DZ_Y).solution == DZ_XHAT
    note("criterion 3 PASS: index-2 Drazin inverse and Drazin solution")


def test_criterion_04_axb_least_squares_golden():
    gram_a = AXB_LS_A.conj_transpose() @ AXB_LS_A
    gram_b = AXB_LS_B @ AXB_LS_B.conj_transpose()
    assert principal_minor_sum(gram_a, 2) == sc(10)
    assert principal_minor_sum(gram_b, 1) == sc(6)
    result = ls_solve_both(AXB_LS_A, AXB_LS_B, AXB_LS_D)
    assert result.X == AXB_LS_X
    oracle = mp_inverse_oracle(AXB_LS_A) @ AXB_LS_D @ mp_inverse_oracle(AXB_LS_B)
    assert result.X == oracle
    note("criterion 4 PASS: AXB least squares golden (entry (1,1) oracle-adjudicated)")


def test_criterion_05_axb_drazin_golden():
    assert principal_minor_sum(AXB_DZ_B.power(2), 2) == sc(0, -18)
    result = dz_solve_both(AXB_DZ_A, AXB_DZ_B, AXB_DZ_D)
    assert result.X == AXB_DZ_X
    oracle = (
        drazin_inverse_oracle(AXB_DZ_A) @ AXB_DZ_D @ drazin_inverse_oracle(AXB_DZ_B)
    )
    assert result.X == oracle
    note("criterion 5 PASS: AXB Drazin golden (entry (1,3) oracle-adjudicated)")


def test_criterion_06_ode_golden():
    poly = ode_left_partial(ODE_A, ODE_B)
    expected_terms = {
        (1, 1): (sc(F(1, 6), F(1, 6)),),
        (1, 2): (sc(F(-1, 6), F(-1, 6)), sc(F(1, 2), F(1, 2))),
        (1, 3): (sc(0), sc(1)),
        (2, 1): (sc(F(-1, 6), F(1, 6)),),
        (2, 2): (sc(F(1, 6), F(-1, 6)), sc(F(1, 2), F(1, 2))),
        (2, 3): (sc(0), sc(1)),
        (3, 1): (sc(F(2, 3)),),
        (3, 2): (sc(F(-1, 6), F(1, 2)),),
        (3, 3): (sc(0),),
    }
    for (i, j), terms in expected_terms.items():
        assert poly.entry_terms(i, j) == terms, (i, j)
    ok, _ = substitute_check(poly, ODE_A, ODE_B, "left")
    assert ok
    note("criterion 6 PASS: differential-equation partial solution, all nine entries")


def test_criterion_07_oracle_equivalence_suite():
    matrices = corpus()
    assert len(matrices) >= 500
    square_checked = 0
    for a in matrices:
        expected = mp_inverse_oracle(a)
        assert mp_inverse(a, form="column").inverse == expected
        assert mp_inverse(a, form="row").inverse == expected
        if a.is_square and square_checked < 150:
            dz_expected = drazin_inverse_oracle(a)
            assert drazin_inverse(a, form="column").inverse == dz_expected
            assert drazin_inverse(a, form="row").inverse == dz_expected
            square_checked += 1
    assert square_checked >= 100

    rng = random.Random(24680)
    for _ in range(25):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
        b = rand_matrix(rng, a.rows, rng.randint(1, 3), span=1)
        assert ls_solve_left(a, b).X == mp_inverse_oracle(a) @ b
        c = rand_matrix(rng, rng.randint(1, 3), a.cols, span=1)
        assert ls_solve_right(a, c).X == c @ mp_inverse_oracle(a)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=1)
        b = rand_matrix(rng, n, rng.randint(1, 3), span=1)
        assert dz_solve_left(a, b).X == drazin_inverse_oracle(a) @ b
        c = rand_matrix(rng, rng.randint(1, 3), n, span=1)
        assert dz_solve_right(a, c).X == c @ drazin_inverse_oracle(a)
    for _ in range(15):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(0, 3))
        b = rand_low_rank(rng, rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3))
        d = rand_matrix(rng, a.rows, b.cols, span=1)
        assert ls_solve_both(a, b, d).X == mp_inverse_oracle(a) @ d @ mp_inverse_oracle(b)
    for _ in range(12):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        a = rand_matrix(rng, n1, n1, span=1)
        b = rand_matrix(rng, n2, n2, span=1)
        d = rand_matrix(rng, n1, n2, span=1)
        assert dz_solve_both(a, b, d).X == drazin_inverse_oracle(a) @ d @ drazin_inverse_oracle(b)
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_matrix(rng, m, n, span=1)
        w = rand_matrix(rng, n, m, span=1)
        col = w_drazin_inverse(a, w, form="column").inverse
        assert col == w_drazin_inverse(a, w, form="row").inverse
        wad = drazin_inverse_oracle(w @ a)
        assert col == a @ wad @ wad
    note("criterion 7 PASS: oracle equivalence on >=500-matrix corpus + both forms")


def test_criterion_08_defining_equations_suite():
    matrices = corpus()
    rng = random.Random(13579)
    drazin_checked = 0
    for idx, a in enumerate(matrices):
        x = mp_inverse_oracle(a)
        assert verify_defining_equations(a, x, "mp").all_satisfied
        if idx % 5 == 0:
            from exactgi import weighted_mp_inverse

            m, n = a.shape
            weights = WeightPair(
                _random_diag_hpd(rng, m), _random_diag_hpd(rng, n)
            )
            wx = weighted_mp_inverse(a, weights).inverse
            assert verify_defining_equations(
                a, wx, "weighted_mp", weights=weights
            ).all_satisfied
        if a.is_square and drazin_checked < 120:
            dz = drazin_inverse(a).inverse
            assert verify_defining_equations(a, dz, "drazin").all_satisfied
            drazin_checked += 1
    assert drazin_checked >= 100
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_matrix(rng, m, n, span=1)
        w = rand_matrix(rng, n, m, span=1)
        x = w_drazin_inverse(a, w).inverse
        assert verify_defining_equations(a, x, "w_drazin", weight=w).all_satisfied
    note("criterion 8 PASS: defining equations exact on the fuzz corpus")


def _random_diag_hpd(rng: random.Random, n: int) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [
            [sc(F(rng.randint(1, 5), rng.randint(1, 3)) if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def test_criterion_09_projector_suite():
    matrices = corpus()
    drazin_checked = 0
    for idx, a in enumerate(matrices):
        if idx % 4 == 0:
            p = projector(a, "in")
            q = projector(a, "out")
            assert p @ p == p and p.conj_transpose() == p
            assert q @ q == q and q.conj_transpose() == q
            assert p.trace() == sc(rank(a))
        if a.is_square and drazin_checked < 80:
            left = projector(a, "drazin_left")
            right = projector(a, "drazin_right")
            assert left @ left == left
            assert right @ right == right
            k = index_of(a)
            assert left @ a.power(k) == a.power(k)
            assert a.power(k) @ right == a.power(k)
            drazin_checked += 1
    assert drazin_checked >= 60
    note("criterion 9 PASS: projector identities exact on the fuzz corpus")


def test_criterion_10_minor_sums_match_char_poly():
    rng = random.Random(11223344)
    checked = 0
    for a in corpus():
        if not a.is_square:
            continue
        coeffs = char_poly_coeffs(a)
        for r in range(1, a.rows + 1):
            assert principal_minor_sum(a, r) == coeffs[r - 1]
        checked += 1
    for _ in range(25):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, n, span=2)
        coeffs = char_poly_coeffs(m)
        for r in range(1, n + 1):
            assert principal_minor_sum(m, r) == coeffs[r - 1]
        checked += 1
    assert checked >= 100
    note("criterion 10 PASS: two independent principal-minor-sum algorithms agree")


def test_work_guard_refuses_20x20_rank10():
    rng = random.Random(5554443)
    big = rand_low_rank(rng, 20, 20, 10, span=1)
    assert rank(big) == 10
    started = time.monotonic()
    with pytest.raises(BudgetExceededError):
        mp_inverse(big)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0  # fail fast, not after grinding
    note("work guard PASS: 20x20 rank-10 input rejected at the default budget")
