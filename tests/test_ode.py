from fractions import Fraction as F
from math import factorial

import pytest

import exactgi.matrix as matrix_module
from exactgi import (
    BudgetExceededError,
    ExactMatrix,
    MatrixPoly,
    det,
    drazin_inverse_oracle,
    dz_solve_left,
    dz_solve_right,
    index_of,
    ode_left_partial,
    ode_right_partial,
    rank_profile,
    substitute_check,
)

from cases import ODE_A, ODE_B, ODE_C0, ODE_C1, mat, sc
from conftest import rand_matrix, rand_index_matrix


def product_construction(a, b, side):
    """Independent build of the same polynomial from certified Drazin products."""
    k = index_of(a)
    ad = drazin_inverse_oracle(a)
    if k == 0:
        from exactgi import inverse

        return MatrixPoly([inverse(a) @ b if side == "left" else b @ inverse(a)])
    coeffs = [ad @ b if side == "left" else b @ ad]
    for j in range(1, k + 1):
        factor = sc(F((-1) ** (j - 1), factorial(j)))
        if side == "left":
            term = a.power(j - 1) @ b - ad @ a.power(j) @ b
        else:
            term = b @ a.power(j - 1) - b @ a.power(j) @ ad
        coeffs.append(term.scale(factor))
    return MatrixPoly(coeffs)


# -- MatrixPoly behaviour -----------------------------------------------------


def test_poly_normalization_and_degree():
    z = ExactMatrix.zeros(2, 2)
    m = mat([[1, 0], [0, 1]])
    p = MatrixPoly([m, z, z])
    assert p.degree == 0
    assert not p.is_zero()
    assert MatrixPoly([z]).is_zero()


def test_poly_derivative_and_eval():
    c0 = mat([[1, 0], [0, 0]])
    c1 = mat([[0, 1], [0, 0]])
    c2 = mat([[0, 0], [2, 0]])
    p = MatrixPoly([c0, c1, c2])
    d = p.derivative()
    assert d.coefficient(0) == c1
    assert d.coefficient(1) == c2.scale(2)
    t = sc(3)
    assert p.eval_at(t) == c0 + c1.scale(3) + c2.scale(9)


def test_poly_shape_validation():
    with pytest.raises(ValueError):
        MatrixPoly([mat([[1]]), mat([[1, 2]])])
    with pytest.raises(ValueError):
        MatrixPoly([])


def test_poly_refuses_a_negative_degree():
    p = MatrixPoly([ExactMatrix.identity(2), ExactMatrix.identity(2).scale(3)])
    with pytest.raises(ValueError):
        p.coefficient(-1)
    assert p.coefficient(2) == ExactMatrix.zeros(2, 2)


def test_poly_arithmetic_with_a_non_polynomial_is_a_type_error():
    # + and - return NotImplemented, so Python consults the other operand
    # and raises TypeError, as it does for ExactMatrix
    p = MatrixPoly([ExactMatrix.identity(2)])
    for other in (1, sc(1), ExactMatrix.identity(2)):
        for op in (lambda: p + other, lambda: p - other, lambda: other + p, lambda: other - p):
            with pytest.raises(TypeError):
                op()

    class Reflected:
        def __radd__(self, left):
            return "radd"

        def __rsub__(self, left):
            return "rsub"

    assert (p + Reflected(), p - Reflected()) == ("radd", "rsub")
    assert (p + p).coefficient(0) == ExactMatrix.identity(2).scale(2)


# -- the known 3x3 index-1 case -----------------------------------------------


def test_left_partial_known_case():
    poly = ode_left_partial(ODE_A, ODE_B)
    assert poly.degree == 1
    assert poly.coefficient(0) == ODE_C0
    assert poly.coefficient(1) == ODE_C1
    assert poly.entry_terms(1, 1) == (sc(F(1, 6), F(1, 6)),)
    assert poly.entry_terms(1, 2) == (sc(F(-1, 6), F(-1, 6)), sc(F(1, 2), F(1, 2)))
    assert poly.entry_terms(1, 3) == (sc(0), sc(1))
    assert poly.entry_terms(2, 3) == (sc(0), sc(1))
    assert poly.entry_terms(3, 1) == (sc(F(2, 3)),)
    assert poly.entry_terms(3, 2) == (sc(F(-1, 6), F(1, 2)),)
    assert poly.entry_terms(3, 3) == (sc(0),)
    ok, residual = substitute_check(poly, ODE_A, ODE_B, "left")
    assert ok and residual.is_zero()


# -- structural cases ---------------------------------------------------------------


def test_nonsingular_gives_constant(rng):
    from exactgi import det, inverse

    while True:
        a = rand_matrix(rng, 3, 3)
        if not det(a).is_zero():
            break
    b = rand_matrix(rng, 3, 3)
    left = ode_left_partial(a, b)
    right = ode_right_partial(a, b)
    assert left.degree == 0 and left.coefficient(0) == inverse(a) @ b
    assert right.degree == 0 and right.coefficient(0) == b @ inverse(a)
    assert substitute_check(left, a, b, "left")[0]
    assert substitute_check(right, a, b, "right")[0]


def test_nilpotent_block_polynomial():
    a = mat([[0, 1], [0, 0]])
    b = ExactMatrix.identity(2)
    poly = ode_left_partial(a, b)
    # X(t) = I t - (1/2) A t^2, and substitution recovers the right side
    assert poly.coefficient(0) == ExactMatrix.zeros(2, 2)
    assert poly.coefficient(1) == b
    assert poly.coefficient(2) == a.scale(F(-1, 2))
    assert substitute_check(poly, a, b, "left")[0]


def test_substitute_check_rejects_wrong_polynomial(rng):
    a = rand_matrix(rng, 2, 2)
    b = mat([[1, 0], [0, 1]])
    zero_poly = MatrixPoly([ExactMatrix.zeros(2, 2)])
    ok, residual = substitute_check(zero_poly, a, b, "left")
    assert not ok
    assert residual.coefficient(0) == -b


def test_substitution_identity_fuzz(rng):
    for _ in range(8):
        n = rng.randint(2, 4)
        k = rng.randint(1, min(2, n - 1))
        a = rand_index_matrix(rng, n, rng.randint(1, n - k), k)
        b = rand_matrix(rng, n, n, span=1)
        left = ode_left_partial(a, b)
        right = ode_right_partial(a, b)
        assert left.degree <= index_of(a)
        assert substitute_check(left, a, b, "left")[0]
        assert substitute_check(right, a, b, "right")[0]


def test_minor_sum_path_matches_product_construction(rng):
    coefficients = []
    for _ in range(6):
        n = rng.randint(2, 4)
        k = rng.randint(1, 2)
        if k >= n:
            continue
        coefficients.append(rand_index_matrix(rng, n, rng.randint(1, n - k), k))
    # index 3, nilpotent, nonsingular and complex coefficients
    coefficients += [rand_index_matrix(rng, n, rng.randint(1, n - 3), 3) for n in (4, 5, 6)]
    coefficients += [rand_index_matrix(rng, 4, 0, 3), mat([[0, 1], [0, 0]])]
    coefficients += [_nonsingular(rng, 3), _nonsingular(rng, 4)]
    coefficients += [rand_index_matrix(rng, 5, 2, 2).scale(sc(1, 1)), ODE_A]
    cases = [(a, rand_matrix(rng, a.rows, a.rows, span=1)) for a in coefficients]
    # rational inputs (q != 1) on both sides of the chain: a rational
    # coefficient of index 3 with an integer and a rational B, and a rational
    # B on a Gaussian-integer coefficient
    scaled = rand_index_matrix(rng, 5, 2, 3).scale(sc(F(2, 3), F(1, 5)))
    cases += [(scaled, rand_matrix(rng, 5, 5, span=1)), (scaled, _rational(rng, 5))]
    cases += [(rand_index_matrix(rng, 4, 1, 3), _rational(rng, 4))]
    for a, b in cases:
        left, right = ode_left_partial(a, b), ode_right_partial(a, b)
        assert left == product_construction(a, b, "left")
        assert right == product_construction(a, b, "right")
        # the constant term is the Drazin solution of A X = B (X A = B)
        assert left.coefficient(0) == dz_solve_left(a, b).X
        assert right.coefficient(0) == dz_solve_right(a, b).X


def _rational(rng, n):
    """An n-by-n Gaussian-rational matrix over mixed small denominators."""
    return ExactMatrix.from_rows([
        [sc(F(rng.randint(-5, 5), rng.choice([2, 3, 7])), F(rng.randint(-5, 5), rng.choice([1, 4])))
         for _ in range(n)]
        for _ in range(n)
    ])


def _nonsingular(rng, n):
    while True:
        a = rand_matrix(rng, n, n)
        if not det(a).is_zero():
            return a


def test_nonsingular_coefficient_is_budgeted(rng):
    # a nonsingular A runs the guarded Cramer rule of A^D = A^(-1)
    a = _nonsingular(rng, 3)
    b = rand_matrix(rng, 3, 3)
    with pytest.raises(BudgetExceededError):
        ode_left_partial(a, b, budget=0)
    with pytest.raises(BudgetExceededError):
        ode_right_partial(a, b, budget=0)


def test_right_left_transpose_duality(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        a = rand_matrix(rng, n, n, span=1, complex_ok=False)
        b = rand_matrix(rng, n, n, span=1, complex_ok=False)
        left = ode_left_partial(a.transpose(), b.transpose())
        right = ode_right_partial(a, b)
        assert right.coefficients == tuple(c.transpose() for c in left.coefficients)


def test_ode_shape_validation(rng):
    with pytest.raises(ValueError):
        ode_left_partial(rand_matrix(rng, 2, 3), rand_matrix(rng, 2, 3))
    with pytest.raises(ValueError):
        ode_left_partial(rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3))
    with pytest.raises(ValueError):
        substitute_check(
            MatrixPoly([ExactMatrix.zeros(2, 2)]),
            rand_matrix(rng, 2, 2),
            rand_matrix(rng, 2, 2),
            "up",
        )


def test_right_chain_builds_no_pack_of_a_the_profile_built(rng, monkeypatch):
    # the chain E A^(j-1) multiplies by A, which keeps the packs of its image
    # that the rank profile built: a width packed there is read, not rebuilt
    built, read = [], []

    class Widths(dict):
        def __setitem__(self, w, packs):
            built.append((self, w))
            super().__setitem__(w, packs)

        def __getitem__(self, w):
            read.append((self, w))
            return super().__getitem__(w)

    class Packing(matrix_module._Packing):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            self.by_width = Widths()

    monkeypatch.setattr(matrix_module, "_Packing", Packing)
    a, b = rand_index_matrix(rng, 10, 2, 8), rand_matrix(rng, 10, 10)
    rank_profile(a)
    of_a = a._kept["packing"].by_width
    profiled = set(of_a)
    built.clear()
    read.clear()
    poly = ode_right_partial(a, b)
    assert substitute_check(poly, a, b, "right")[0]
    assert not [w for packs, w in built if packs is of_a and w in profiled]
    assert [w for packs, w in read if packs is of_a and w in profiled]


def test_left_chain_makes_no_more_products_than_the_right(rng, monkeypatch):
    # A^(j-1) E is the transpose of E^T (A^T)^(j-1), a chain by one fixed
    # factor as E A^(j-1) is, so the left side builds no power of A that the
    # profile does not hold, and both sides make the same products.  A keeps
    # its profile, so each side gets a freshly built equal matrix
    a, b = rand_index_matrix(rng, 10, 2, 8), rand_matrix(rng, 10, 10)
    products = []
    matmul = ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__",
                        lambda x, y: products.append(1) or matmul(x, y))
    counts = {}
    for side, solve in (("left", ode_left_partial), ("right", ode_right_partial)):
        before = len(products)
        poly = solve(ExactMatrix(10, 10, a.entries), b)
        counts[side] = len(products) - before
        assert substitute_check(poly, a, b, side)[0]
        assert poly == product_construction(a, b, side)
    assert counts["left"] == counts["right"]
