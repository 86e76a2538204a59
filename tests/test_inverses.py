from fractions import Fraction as F
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactgi import (
    ExactMatrix,
    WeightPair,
    det,
    drazin_inverse,
    drazin_inverse_oracle,
    group_inverse,
    is_hermitian_positive_definite,
    mp_inverse,
    mp_inverse_oracle,
    principal_minor_sum,
    projector,
    rank,
    verify_defining_equations,
    w_drazin_inverse,
    weighted_mp_inverse,
)
from exactgi.inverses import _resolve_form
from exactgi.minors import kernel_work

from cases import DZ_A, DZ_AD, LS_A, LS_PINV, mat, sc
from conftest import rand_low_rank, rand_matrix, rand_index_matrix


# -- Moore-Penrose ------------------------------------------------------------


def test_mp_known_4x4_rank3_both_forms_and_oracle():
    col = mp_inverse(LS_A, form="column")
    row = mp_inverse(LS_A, form="row")
    assert col.inverse == LS_PINV
    assert row.inverse == LS_PINV
    assert mp_inverse_oracle(LS_A) == LS_PINV
    assert col.rank_used == 3 and col.index_used == 0
    assert col.denominator == sc(102060)
    assert col.representation == "column_form"
    assert row.representation == "row_form"


def test_mp_identity_and_diagonal():
    assert mp_inverse(ExactMatrix.identity(3)).inverse == ExactMatrix.identity(3)
    d = mat([[2, 0], [0, 0]])
    assert mp_inverse(d).inverse == mat([[F(1, 2), 0], [0, 0]])


def test_mp_zero_matrix():
    report = mp_inverse(ExactMatrix.zeros(2, 3))
    assert report.inverse == ExactMatrix.zeros(3, 2)
    assert report.rank_used == 0
    assert mp_inverse_oracle(ExactMatrix.zeros(2, 3)) == ExactMatrix.zeros(3, 2)


def test_mp_full_rank_routes_through_adjoint_tag(rng):
    a = mat([[1, 0], [0, 2], [1, 1]])  # rank 2 = n < m
    report = mp_inverse(a, form="column")
    assert report.representation == "full_rank_adjoint"
    assert report.inverse == mp_inverse_oracle(a)
    wide = a.conj_transpose()
    report_row = mp_inverse(wide, form="row")
    assert report_row.representation == "full_rank_adjoint"
    assert report_row.inverse == mp_inverse_oracle(wide)


def test_mp_matches_oracle_fuzz(rng):
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = rand_low_rank(rng, m, n, rng.randint(0, min(m, n)))
        expected = mp_inverse_oracle(a)
        assert mp_inverse(a, form="column").inverse == expected
        assert mp_inverse(a, form="row").inverse == expected


def test_mp_penrose_equations_fuzz(rng):
    for _ in range(15):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
        x = mp_inverse(a).inverse
        assert verify_defining_equations(a, x, "mp").all_satisfied


def test_mp_involution_and_star_commutation(rng):
    for _ in range(10):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
        pinv = mp_inverse(a).inverse
        assert mp_inverse(pinv).inverse == a
        assert mp_inverse(a.conj_transpose()).inverse == pinv.conj_transpose()


def test_mp_denominator_positive_real(rng):
    for _ in range(10):
        a = rand_low_rank(rng, 3, 4, rng.randint(1, 3))
        r = rank(a)
        d = principal_minor_sum(a.conj_transpose() @ a, r)
        assert d.im == 0 and d.re > 0


def test_verify_rejects_wrong_candidate():
    a = mat([[1, 1], [0, 1]])  # non-normal, so A* is not its MP inverse
    report = verify_defining_equations(a, a.conj_transpose(), "mp")
    assert not report.all_satisfied
    assert verify_defining_equations(
        ExactMatrix.identity(2), ExactMatrix.identity(2), "mp"
    ).all_satisfied


def test_auto_form_by_base_order_matches_the_work_estimate():
    # "auto" picks by base order; comparing kernel_work of the two bases, as
    # it once did, gives the same side at every shape and rank up to 64
    for m in range(1, 65):
        for n in range(1, 65):
            by_order = _resolve_form("auto", n, m)
            for r in range(min(m, n) + 1):
                by_work = "column" if kernel_work(n, r, m) <= kernel_work(m, r, n) else "row"
                assert by_order == by_work, (m, n, r)


# -- weighted Moore-Penrose ------------------------------------------------------


def test_weighted_mp_identity_weights_reduce_to_mp(rng):
    for _ in range(8):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_low_rank(rng, m, n, rng.randint(0, min(m, n)))
        weights = WeightPair(ExactMatrix.identity(m), ExactMatrix.identity(n))
        assert weighted_mp_inverse(a, weights).inverse == mp_inverse(a).inverse


def test_weighted_mp_nonsingular_gives_inverse(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    weights = WeightPair(
        mat([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]]),
        mat([[1, 0, 0], [0, 3, 0], [0, 0, 1]]),
    )
    assert weighted_mp_inverse(a, weights).inverse == inverse(a)


def test_weighted_mp_defining_equations(rng):
    for _ in range(8):
        a = rand_low_rank(rng, 3, 4, rng.randint(1, 3))
        weights = WeightPair(
            mat([[rng.randint(1, 4) if i == j else 0 for j in range(3)] for i in range(3)]),
            mat([[rng.randint(1, 4) if i == j else 0 for j in range(4)] for i in range(4)]),
        )
        x = weighted_mp_inverse(a, weights).inverse
        assert verify_defining_equations(a, x, "weighted_mp", weights=weights).all_satisfied


def test_weighted_mp_nondiagonal_weights():
    i = sc(0, 1)
    a = mat([[1, 2, 0], [0, 1, 1]])
    weights = WeightPair(mat([[2, i], [-i, 3]]), mat([[3, 1, 0], [1, 2, 0], [0, 0, 1]]))
    x = weighted_mp_inverse(a, weights).inverse
    assert verify_defining_equations(a, x, "weighted_mp", weights=weights).all_satisfied


@given(st.integers(1, 5), st.sampled_from(["gram", "low_rank_gram", "hermitian", "any"]),
       st.integers(0, 2**32 - 1))
def test_hpd_verdict_matches_the_leading_determinants_property(n, kind, seed):
    # Hermitian with every leading principal minor real and positive
    rng = random.Random(seed)
    m = rand_matrix(rng, n, n, span=1)
    if kind == "gram":
        a = m.conj_transpose() @ m
    elif kind == "low_rank_gram":
        m = rand_low_rank(rng, n, n, rng.randint(0, n))
        a = m.conj_transpose() @ m
    elif kind == "hermitian":
        a = m + m.conj_transpose()
    else:
        a = m
    a = a.scale(F(rng.choice([1, -1, 2, 5]), rng.choice([1, 3, 4])))
    leading = [det(ExactMatrix.from_rows([a.row(i)[:k] for i in range(1, k + 1)]))
               for k in range(1, n + 1)]
    expected = a.is_hermitian() and all(d.im == 0 and d.re > 0 for d in leading)
    assert is_hermitian_positive_definite(a) is expected


def test_weight_pair_validation():
    with pytest.raises(ValueError):
        WeightPair(mat([[0, 0], [0, 1]]), ExactMatrix.identity(2))  # not PD
    with pytest.raises(ValueError):
        WeightPair(mat([[1, 1], [0, 1]]), ExactMatrix.identity(2))  # not Hermitian
    with pytest.raises(ValueError):
        weighted_mp_inverse(
            mat([[1, 2], [3, 4], [5, 6]]),
            WeightPair(ExactMatrix.identity(2), ExactMatrix.identity(2)),
        )


def test_hpd_test_exactness():
    i = sc(0, 1)
    assert is_hermitian_positive_definite(mat([[2, i], [-i, 3]]))
    assert not is_hermitian_positive_definite(mat([[2, i], [-i, F(1, 2)]]))
    assert not is_hermitian_positive_definite(mat([[-1, 0], [0, 1]]))


# -- Drazin / group -----------------------------------------------------------------


def test_drazin_known_index2_case():
    col = drazin_inverse(DZ_A, form="column")
    row = drazin_inverse(DZ_A, form="row")
    assert col.inverse == DZ_AD
    assert row.inverse == DZ_AD
    assert col.index_used == 2 and col.rank_used == 2
    assert col.denominator == sc(8)
    assert drazin_inverse_oracle(DZ_A) == DZ_AD


def test_drazin_nonsingular_is_inverse(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    report = drazin_inverse(a)
    assert report.inverse == inverse(a)
    assert report.index_used == 0
    assert report.representation == "full_rank_adjoint"


def test_drazin_nilpotent_is_zero():
    jordan = mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    report = drazin_inverse(jordan)
    assert report.inverse == ExactMatrix.zeros(3, 3)
    assert report.index_used == 3
    assert drazin_inverse_oracle(jordan) == ExactMatrix.zeros(3, 3)


def test_drazin_matches_oracle_fuzz(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=1)
        expected = drazin_inverse_oracle(a)
        assert drazin_inverse(a, form="column").inverse == expected
        assert drazin_inverse(a, form="row").inverse == expected


def test_drazin_constructed_index_matrices(rng):
    for _ in range(10):
        n = rng.randint(3, 5)
        k = rng.randint(1, 2)
        r = rng.randint(1, n - k)
        a = rand_index_matrix(rng, n, r, k)
        report = drazin_inverse(a)
        assert report.index_used == k
        assert verify_defining_equations(a, report.inverse, "drazin").all_satisfied


def test_group_inverse_idempotent_and_nonsingular(rng):
    from exactgi import det, inverse

    p = mat([[1, 0], [1, 0]])  # idempotent projector
    assert p @ p == p
    assert group_inverse(p).inverse == p
    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    assert group_inverse(a).inverse == inverse(a)


def test_group_inverse_rejects_index_two():
    with pytest.raises(ValueError):
        group_inverse(mat([[0, 1], [0, 0]]))


def test_group_inverse_matches_drazin_when_index_one(rng):
    from cases import ODE_A

    assert group_inverse(ODE_A).inverse == drazin_inverse_oracle(ODE_A)
    for _ in range(8):
        a = rand_index_matrix(rng, 4, rng.randint(1, 3), 1)
        assert group_inverse(a).inverse == drazin_inverse_oracle(a)


# -- weighted Drazin ---------------------------------------------------------------


def test_w_drazin_identity_weight_reduces(rng):
    for _ in range(8):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=1)
        report = w_drazin_inverse(a, ExactMatrix.identity(n))
        assert report.inverse == drazin_inverse(a).inverse


def test_w_drazin_nonsingular_identity_weight(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    assert w_drazin_inverse(a, ExactMatrix.identity(3)).inverse == inverse(a)


def test_w_drazin_rectangular_forms_and_equations(rng):
    for _ in range(12):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_matrix(rng, m, n, span=1)
        w = rand_matrix(rng, n, m, span=1)
        col = w_drazin_inverse(a, w, form="column")
        row = w_drazin_inverse(a, w, form="row")
        assert col.inverse == row.inverse
        assert verify_defining_equations(a, col.inverse, "w_drazin", weight=w).all_satisfied
        # independent construction through the certified Drazin oracle
        wad = drazin_inverse_oracle(w @ a)
        assert col.inverse == a @ wad @ wad


def test_w_drazin_shape_validation(rng):
    with pytest.raises(ValueError):
        w_drazin_inverse(rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3))


# -- projectors -------------------------------------------------------------------


def test_projector_identity_and_zero():
    for which in ("in", "out", "drazin_left", "drazin_right"):
        assert projector(ExactMatrix.identity(3), which) == ExactMatrix.identity(3)
        assert projector(ExactMatrix.zeros(3, 3), which) == ExactMatrix.zeros(3, 3)


def test_projector_matches_products_known_case():
    pinv = mp_inverse_oracle(LS_A)
    assert projector(LS_A, "in") == pinv @ LS_A
    assert projector(LS_A, "out") == LS_A @ pinv


def test_projector_properties_fuzz(rng):
    for _ in range(12):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
        p = projector(a, "in")
        q = projector(a, "out")
        assert p @ p == p and q @ q == q
        assert p.conj_transpose() == p and q.conj_transpose() == q
        assert p.trace() == sc(rank(a))
        pinv = mp_inverse_oracle(a)
        assert p == pinv @ a and q == a @ pinv


def test_drazin_projectors_fuzz(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=1)
        ad = drazin_inverse_oracle(a)
        left = projector(a, "drazin_left")
        right = projector(a, "drazin_right")
        assert left == a @ ad
        assert right == ad @ a
        assert left @ left == left
        k = drazin_inverse(a).index_used
        assert left @ a.power(k) == a.power(k)


def test_projector_validation(rng):
    with pytest.raises(ValueError):
        projector(rand_matrix(rng, 2, 3), "drazin_left")
    with pytest.raises(ValueError):
        projector(rand_matrix(rng, 2, 2), "sideways")


def test_drazin_oracle_verification_gate():
    # the oracle certifies its output; a healthy input must never raise
    drazin_inverse_oracle(DZ_A)
    with pytest.raises(ValueError):
        drazin_inverse_oracle(mat([[1, 2, 3], [4, 5, 6]]))


# -- argument validation ------------------------------------------------------------


NILPOTENT = mat([[0, 1], [0, 0]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: mp_inverse(ExactMatrix.zeros(2, 3), form="diagonal"),
        lambda: drazin_inverse(NILPOTENT, form="diagonal"),
        lambda: w_drazin_inverse(
            ExactMatrix.zeros(2, 3), mat([[1, 0], [0, 1], [1, 1]]), form="diagonal"
        ),
    ],
    ids=["mp_inverse", "drazin_inverse", "w_drazin_inverse"],
)
def test_unknown_form_or_route_is_refused_on_degenerate_inputs(call):
    # rank 0 and nilpotent inputs take the zero exit; the option is checked first
    with pytest.raises(ValueError, match="unknown"):
        call()


@pytest.mark.parametrize(
    "fn, args",
    [
        (mp_inverse, (LS_A,)),
        (weighted_mp_inverse, (LS_A, WeightPair(ExactMatrix.identity(4), ExactMatrix.identity(4)))),
        (drazin_inverse, (DZ_A,)),
        (group_inverse, (ExactMatrix.identity(2),)),
        (w_drazin_inverse, (LS_A, ExactMatrix.identity(4))),
        (projector, (LS_A, "in")),
    ],
    ids=["mp_inverse", "weighted_mp_inverse", "drazin_inverse", "group_inverse",
         "w_drazin_inverse", "projector"],
)
def test_threads_parameter_is_gone(fn, args):
    with pytest.raises(TypeError, match="threads"):
        fn(*args, threads=2)
