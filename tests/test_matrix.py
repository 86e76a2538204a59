import ast
from contextlib import contextmanager
from fractions import Fraction as F
import gc
import importlib.util
from itertools import chain
from math import comb, gcd, lcm
from pathlib import Path
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import exactgi.matrix as matrix_module
import exactgi.minors as minors_module
from exactgi import (
    ExactMatrix,
    ExactScalar,
    char_poly_coeffs,
    conj_transpose,
    det,
    drazin_inverse,
    drazin_inverse_oracle,
    drazin_solve,
    dz_solve_left,
    index_of,
    inverse,
    ls_min_norm_solve,
    ls_min_norm_solve_row,
    ls_solve_both,
    ls_solve_left,
    ls_solve_right,
    mp_inverse,
    ode_left_partial,
    ode_right_partial,
    projector,
    rank,
    rank_profile,
)
from exactgi.matrix import (
    _Packing,
    _trace_recurrence,
    clear_denominators,
    int_adjugate,
    int_det,
    int_matmul,
    int_rank,
)
from exactgi.oracles import column_space_contains, row_space_contains

from cases import DZ_A, DZ_INDEX, LS_A, mat, sc
from conftest import rand_index_matrix, rand_matrix, rand_low_rank, rand_unimodular
import elimination_reference


def reference_matmul(a, b):
    """The textbook triple loop over ExactScalar, the reference for `@`."""
    out = []
    for i in range(1, a.rows + 1):
        for j in range(1, b.cols + 1):
            acc = ExactScalar(0)
            for k in range(1, a.cols + 1):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            out.append(acc)
    return ExactMatrix(a.rows, b.cols, out)


def rand_rational_matrix(rng, rows, cols, complex_ok=True, big=False):
    """Gaussian-rational entries over distinct small denominators, so the
    cleared common denominator is not 1; `big` takes numerators up to 10^40."""
    top = 10**40 if big else 9

    def part(allowed=True):
        if not allowed or rng.random() < 0.25:
            return F(0)
        return F(rng.randint(-top, top), rng.choice([1, 2, 3, 5, 7, 12, 35]))

    return ExactMatrix(
        rows, cols, [ExactScalar(part(), part(complex_ok)) for _ in range(rows * cols)]
    )


def test_construction_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [sc(1)] * 3)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[sc(1), sc(2)], [sc(3)]])
    with pytest.raises(ValueError):
        ExactMatrix(0, 1, [])


def test_zeros_and_identity_match_their_entries():
    for rows, cols in ((1, 1), (1, 4), (3, 2), (5, 5)):
        zeros = ExactMatrix.zeros(rows, cols)
        expected = ExactMatrix(rows, cols, [0] * (rows * cols))
        assert zeros == expected and hash(zeros) == hash(expected)
        assert zeros.entries == expected.entries and zeros.is_zero()
    for n in range(1, 6):
        identity = ExactMatrix.identity(n)
        expected = mat([[int(i == j) for j in range(n)] for i in range(n)])
        assert identity == expected and hash(identity) == hash(expected)
        assert identity.entries == expected.entries
    for bad in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError):
            ExactMatrix.zeros(*bad)
    with pytest.raises(ValueError):
        ExactMatrix.identity(0)


def test_one_based_access():
    m = mat([[1, 2], [3, 4]])
    assert m.entry(1, 2) == sc(2)
    assert m.row(2) == (sc(3), sc(4))
    assert m.col(1) == (sc(1), sc(3))
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 3)


def test_replace_row_and_col():
    m = mat([[1, 2], [3, 4]])
    assert m.replace_col(2, [sc(9), sc(8)]) == mat([[1, 9], [3, 8]])
    assert m.replace_row(1, [sc(7), sc(6)]) == mat([[7, 6], [3, 4]])
    assert m == mat([[1, 2], [3, 4]])  # original untouched


def test_matmul_and_power():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a @ b == mat([[2, 1], [4, 3]])
    assert a.power(0) == ExactMatrix.identity(2)
    assert a.power(3) == a @ a @ a


def test_matmul_associativity_fuzz(rng):
    for _ in range(25):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = rand_matrix(rng, a.cols, rng.randint(1, 4))
        c = rand_matrix(rng, b.cols, rng.randint(1, 4))
        assert (a @ b) @ c == a @ (b @ c)


def test_matmul_matches_reference_on_rationals(rng):
    for complex_ok in (False, True):
        for _ in range(20):
            a = rand_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), complex_ok)
            b = rand_rational_matrix(rng, a.cols, rng.randint(1, 4), complex_ok)
            assert a @ b == reference_matmul(a, b)
    # one real and one complex operand, both orders
    a = rand_rational_matrix(rng, 3, 4, complex_ok=False)
    b = rand_rational_matrix(rng, 4, 2)
    assert a @ b == reference_matmul(a, b)
    assert b.transpose() @ a.transpose() == reference_matmul(b.transpose(), a.transpose())


def test_matmul_matches_reference_on_huge_entries(rng):
    for _ in range(5):
        a = rand_rational_matrix(rng, 3, 3, big=True)
        b = rand_rational_matrix(rng, 3, 2, big=True)
        assert a @ b == reference_matmul(a, b)
    huge = ExactMatrix.from_rows([[10**40, -(10**40)], [F(10**40, 3), 1]])
    assert huge @ huge == reference_matmul(huge, huge)


def test_matmul_edge_shapes(rng):
    for rows, inner, cols in ((1, 1, 1), (1, 4, 1), (4, 1, 4), (1, 3, 4), (4, 3, 1)):
        a = rand_rational_matrix(rng, rows, inner)
        b = rand_rational_matrix(rng, inner, cols)
        product = a @ b
        assert product.shape == (rows, cols)
        assert product == reference_matmul(a, b)
        assert a @ ExactMatrix.zeros(inner, cols) == ExactMatrix.zeros(rows, cols)
        assert ExactMatrix.zeros(rows, inner) @ b == ExactMatrix.zeros(rows, cols)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        mat([[1, 2]]) @ mat([[1, 2]])
    with pytest.raises(ValueError):
        ExactMatrix.zeros(2, 3) @ ExactMatrix.zeros(2, 3)


def test_arithmetic_with_a_non_matrix_is_a_type_error():
    # each operator returns NotImplemented, so Python consults the other
    # operand and raises TypeError, as it does for ==
    m = mat([[1, 2], [3, 4]])
    for other in (1, sc(1), [[1, 2], [3, 4]]):
        for op in (lambda: m + other, lambda: m - other, lambda: m @ other,
                   lambda: other + m, lambda: other - m):
            with pytest.raises(TypeError):
                op()

    class Reflected:
        def __radd__(self, left):
            return "radd"

        def __rmatmul__(self, left):
            return "rmatmul"

    assert (m + Reflected(), m @ Reflected()) == ("radd", "rmatmul")


def test_rank_profile_on_rationals_matches_reference(rng):
    for _ in range(8):
        n = rng.randint(2, 5)
        core = rng.randint(0, n - 2)
        a = rand_index_matrix(rng, n, core, rng.randint(1, n - core)).scale(
            ExactScalar(F(rng.choice([2, 3, 5]), 7), F(1, 3))
        )
        profile = rank_profile(a)
        power = ExactMatrix.identity(n)
        # past A^(k+1), the end of the ranks stored, rank(A^p) is the core rank
        for p in range(2 * profile.index + 3):
            assert profile.power(p) == power
            assert profile.rank_of(p) == rank(power)
            power = reference_matmul(power, a)


_rationals = st.builds(F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 5, 12]))
_gaussian = st.builds(ExactScalar, _rationals, _rationals)


def _matrices(rows, cols):
    return st.lists(_gaussian, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: ExactMatrix(rows, cols, entries)
    )


@given(st.data())
def test_matmul_associative_and_distributive(data):
    p, q, r, s = (data.draw(st.integers(1, 3)) for _ in range(4))
    a = data.draw(_matrices(p, q))
    b, b2 = data.draw(_matrices(q, r)), data.draw(_matrices(q, r))
    c = data.draw(_matrices(r, s))
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + b2) == a @ b + a @ b2
    assert (b + b2) @ c == b @ c + b2 @ c


def test_conj_transpose_involution(rng):
    for _ in range(20):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert conj_transpose(conj_transpose(a)) == a
    assert conj_transpose(ExactMatrix.identity(3)) == ExactMatrix.identity(3)


def test_conj_transpose_known_complex():
    i = sc(0, 1)
    a = mat([[1, i, i], [i, -1, -1], [0, 1, 0], [-1, 0, -i]])
    at = conj_transpose(a)
    assert at.shape == (3, 4)
    assert at.entry(1, 1) == sc(1)
    assert at.entry(1, 2) == -i
    assert at.entry(2, 1) == -i
    assert at.entry(3, 4) == i
    b = mat([[2, 0, 0], [-i, i, i], [-i, -i, -i]])
    bt = conj_transpose(b)
    assert bt.row(1) == (sc(2), i, i)


def test_rank_known_cases():
    assert rank(LS_A) == 3
    assert rank(ExactMatrix.identity(5)) == 5
    assert rank(ExactMatrix.zeros(2, 3)) == 0


def test_rank_agrees_with_gram_ranks(rng):
    for _ in range(25):
        a = rand_low_rank(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3))
        a_star = a.conj_transpose()
        r = rank(a)
        assert rank(a_star) == r
        assert rank(a_star @ a) == r
        assert rank(a @ a_star) == r


def test_rank_agrees_with_independent_elimination(rng):
    # fraction-free elimination vs. the pivots of Gauss-Jordan on ExactScalar
    for _ in range(30):
        a = rand_low_rank(rng, rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4))
        assert rank(a) == len(reference_gauss_jordan(a)[2])


def test_det_matches_char_poly_tail(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        assert det(m) == char_poly_coeffs(m)[-1]


def test_det_known():
    assert det(mat([[1, 2], [3, 4]])) == sc(-2)
    assert det(ExactMatrix.identity(4)) == sc(1)
    i = sc(0, 1)
    assert det(mat([[i, 1], [1, i]])) == sc(-2)


def test_char_poly_identity_binomials():
    for n in range(1, 6):
        coeffs = char_poly_coeffs(ExactMatrix.identity(n))
        assert coeffs == tuple(sc(comb(n, r)) for r in range(1, n + 1))


def test_char_poly_known_gram():
    gram = LS_A.conj_transpose() @ LS_A
    assert char_poly_coeffs(gram)[2] == sc(102060)
    assert char_poly_coeffs(gram)[3] == sc(0)  # rank 3, so d_4 vanishes


def test_index_known_cases():
    assert index_of(DZ_A) == DZ_INDEX
    assert index_of(mat([[1, 1], [0, 1]])) == 0
    assert index_of(mat([[0, 1], [0, 0]])) == 2
    assert index_of(ExactMatrix.zeros(3, 3)) == 1


def test_rank_profile_invariants(rng):
    for _ in range(10):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=1)
        profile = rank_profile(a)
        ranks = profile.rank_of_power
        assert all(x >= y for x, y in zip(ranks, ranks[1:]))
        assert profile.index <= n
        for p in range(2 * profile.index + 2):
            assert profile.power(p) == a.power(p)
        assert profile.core_rank == rank(a.power(profile.index))


def test_inverse_round_trip(rng):
    # up to 8x8; a zero (1,1) entry from n = 2 on makes the elimination swap
    # rows
    for _ in range(10):
        n = rng.randint(1, 8)
        while True:
            a = rand_matrix(rng, n, n)
            if n > 1:
                a = a.replace_row(1, [sc(0), *a.row(1)[1:]])
            if not det(a).is_zero():
                break
        assert a @ inverse(a) == ExactMatrix.identity(n)
        assert inverse(a) @ a == ExactMatrix.identity(n)


def test_inverse_singular_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(mat([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(mat([[1, 2]]))


def test_space_membership():
    a = mat([[1, 0], [0, 0]])
    assert column_space_contains(a, ExactMatrix.column([sc(2), sc(0)]))
    assert not column_space_contains(a, ExactMatrix.column([sc(0), sc(1)]))
    assert row_space_contains(a, ExactMatrix.row_vector([sc(3), sc(0)]))
    assert not row_space_contains(a, ExactMatrix.row_vector([sc(0), sc(3)]))


def test_frobenius_norm_sq():
    m = mat([[sc(1, 1), sc(0, 2)], [sc(F(1, 2)), sc(0)]])
    assert m.frobenius_norm_sq() == F(1) + F(1) + F(4) + F(1, 4)


def test_trace_and_hermitian():
    i = sc(0, 1)
    h = mat([[2, i], [-i, 3]])
    assert h.is_hermitian()
    assert h.trace() == sc(5)
    assert not mat([[2, i], [i, 3]]).is_hermitian()


def test_scale_matches_scalar_loop(rng):
    factors = [
        ExactScalar(F(3, 7), F(-5, 11)),
        ExactScalar(F(-2, 9)),
        ExactScalar(0, F(4, 15)),
        ExactScalar(6),
        ExactScalar(0),
        F(-7, 12),
        5,
    ]
    for _ in range(6):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        # 1/13 in one entry: no entry of rand_rational_matrix has 13 in its
        # denominator, so the cleared denominator q is never 1
        thirteenth = ExactMatrix(rows, cols, [F(1, 13)] + [0] * (rows * cols - 1))
        for big in (False, True):
            m = rand_rational_matrix(rng, rows, cols, big=big) + thirteenth
            assert clear_denominators(m)[2] % 13 == 0
            for factor in factors:
                s = factor if isinstance(factor, ExactScalar) else ExactScalar(factor)
                assert m.scale(factor) == ExactMatrix(rows, cols, [s * e for e in m.entries])


def test_rank_profile_powers_on_demand(rng):
    for _ in range(6):
        n = rng.randint(2, 5)
        core = rng.randint(0, n - 2)
        a = rand_index_matrix(rng, n, core, rng.randint(1, n - core)).scale(F(2, 3))
        profile = rank_profile(a)
        k = profile.index
        # ranking builds A^0..A^k at least; powers lists what is built
        assert len(profile.powers) >= k + 1
        # reads out of order and past 2k+1 extend the same chain
        for e in (k + 1, 0, 2 * k + 4, k, 1, 2 * k + 2):
            assert profile.power(e) == a.power(e)
        assert profile.power(k) is profile.power(k)
        assert profile.power(2 * k + 1) == a.power(2 * k + 1)
        assert profile.powers == tuple(profile.power(e) for e in range(2 * k + 5))
        with pytest.raises(ValueError):
            profile.power(-1)
        with pytest.raises(ValueError):
            profile.rank_of(-1)


# -- the stored Gaussian-integer image -----------------------------------------------


def reference_gauss_jordan(a, b=None, with_det=False):
    """Gauss-Jordan on ExactScalar rows, pivoting in column order: the
    reduced echelon form of a (with b carried along) and the pivot columns,
    and with `with_det` also det(a) of a square a, the signed product of
    the pivots.  The reference for `rank`, `inverse` and the Gaussian-integer
    eliminations."""
    a = a.to_lists()
    b = b.to_lists() if b is not None else [[] for _ in a]
    pivots, det_value = [], ExactScalar(1)
    for col in range(len(a[0])):
        row = len(pivots)
        found = next((r for r in range(row, len(a)) if not a[r][col].is_zero()), None)
        if found is None:
            continue
        if found != row:
            det_value = -det_value
        a[row], a[found], b[row], b[found] = a[found], a[row], b[found], b[row]
        pivot = a[row][col]
        det_value *= pivot
        a[row] = [x / pivot for x in a[row]]
        b[row] = [x / pivot for x in b[row]]
        for r in range(len(a)):
            factor = a[r][col]
            if r != row and not factor.is_zero():
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
                b[r] = [x - factor * y for x, y in zip(b[r], b[row])]
        pivots.append(col + 1)
        if len(pivots) == len(a):
            break
    out = ExactMatrix.from_rows(a), ExactMatrix.from_rows(b) if b[0] else None, tuple(pivots)
    if with_det:
        return *out, det_value if len(pivots) == len(a[0]) == len(a) else ExactScalar(0)
    return out


def assert_same_value(m, reference):
    """Equal, hash-equal, and equal to the matrix rebuilt from its own
    entries, with the entries equal too."""
    assert m == reference and hash(m) == hash(reference)
    rebuilt = ExactMatrix(m.rows, m.cols, m.entries)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert m.entries == reference.entries


_small_rationals = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))
_small_gaussian = st.builds(ExactScalar, _small_rationals, _small_rationals)


def _small_matrices(rows, cols):
    # small parts, so that sums and products cancel and reduce often
    return st.lists(_small_gaussian, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: ExactMatrix(rows, cols, entries)
    )


@given(st.data())
def test_products_and_sums_equal_and_hash_like_entry_built_values(data):
    p, q, r = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = data.draw(_small_matrices(p, q))
    b, b2 = data.draw(_small_matrices(q, r)), data.draw(_small_matrices(q, r))
    assert_same_value(a @ b, reference_matmul(a, b))
    assert_same_value(b + b2, ExactMatrix(q, r, [x + y for x, y in zip(b.entries, b2.entries)]))
    assert_same_value(b - b2, ExactMatrix(q, r, [x - y for x, y in zip(b.entries, b2.entries)]))
    # the sum's denominators cancel back to b's own
    assert_same_value((b + b2) - b2, b)
    assert_same_value(-b, ExactMatrix(q, r, [-x for x in b.entries]))
    assert_same_value(b.transpose(), ExactMatrix(r, q, [e for col in zip(*b.to_lists()) for e in col]))
    assert_same_value(b.conjugate(), ExactMatrix(q, r, [x.conjugate() for x in b.entries]))
    assert_same_value(b.conj_transpose(), b.transpose().conjugate())


@given(st.data())
def test_inverse_matches_the_scalar_elimination(data):
    n = data.draw(st.integers(1, 4))
    square = data.draw(_small_matrices(n, n))
    if rank(square) < n:
        with pytest.raises(ZeroDivisionError):
            inverse(square)
    else:
        _, inv, _ = reference_gauss_jordan(square, ExactMatrix.identity(n))
        assert_same_value(inverse(square), inv)


# Gaussian integers with a content above 1, of each kind the division tells
# apart: real of either sign, with no real part, and with both parts
_with_content = st.sampled_from((2, -3, 12, sc(0, 3), sc(0, -4), sc(2, 2), sc(3, -6), sc(-4, 10)))


@given(st.data())
def test_inverse_divides_like_the_scalars(data):
    # inverse(c U) = U^(-1) / c: det of the image has content |c|^n or more
    n = data.draw(st.integers(1, 4))
    square = data.draw(_small_matrices(n, n))
    if rank(square) < n:
        return
    c = data.draw(_with_content)
    _, inv, _ = reference_gauss_jordan(square, ExactMatrix.identity(n))
    assert_same_value(inverse(square.scale(c)), ExactMatrix(n, n, [e / c for e in inv.entries]))


@given(st.data())
def test_clear_denominators_returns_the_least_q(data):
    rows, cols = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    for m in (data.draw(_small_matrices(rows, cols)), data.draw(_matrices(rows, cols))):
        for value in (m, m @ m.conj_transpose(), m + m, m.scale(F(3, 2))):
            re, im, q = clear_denominators(value)
            parts = [p for e in value.entries for p in (e.re, e.im)]
            assert q == lcm(*(p.denominator for p in parts))
            assert gcd(q, *(x for row in re + im for x in row)) == 1
            assert [F(x, q) for row in re for x in row] == parts[0::2]
            assert [F(y, q) for row in im for y in row] == parts[1::2]


def test_a_returned_image_cannot_change_the_matrix(rng):
    m = rand_rational_matrix(rng, 3, 3) + ExactMatrix.identity(3)
    copy = ExactMatrix(3, 3, m.entries)
    re, im, q = clear_denominators(m)
    assert isinstance(re, tuple) and all(isinstance(row, tuple) for row in re + im)
    with pytest.raises(TypeError):
        re[0][0] = 0
    with pytest.raises(TypeError):
        im[0] = (1, 2, 3)
    # the eliminations and products work on copies of the image
    rank(m), det(m), char_poly_coeffs(m), m @ m, m.power(3)
    if rank(m) == 3:
        inverse(m)
    rank_profile(m).power(3)
    assert clear_denominators(m) == (re, im, q)
    assert m == copy and m.entries == copy.entries


def test_replace_checks_the_index():
    m = mat([[1, 2], [3, 4]])
    with pytest.raises(IndexError):
        m.replace_col(3, [sc(1), sc(1)])
    with pytest.raises(IndexError):
        m.replace_row(0, [sc(1), sc(1)])
    assert m.replace_col(1, [F(1, 2), sc(0, 1)]) == mat([[F(1, 2), 2], [sc(0, 1), 4]])


# -- the integer product and the index profile ---------------------------------------


def schoolbook_matmul(a_re, a_im, b_re, b_im):
    """(a_re + i a_im)(b_re + i b_im) by the triple loop, entry by entry."""
    out_re = [[0] * len(b_re[0]) for _ in a_re]
    out_im = [[0] * len(b_re[0]) for _ in a_re]
    for i, (xr, xi) in enumerate(zip(a_re, a_im)):
        for j in range(len(b_re[0])):
            for k, (yr, yi) in enumerate(zip(b_re, b_im)):
                out_re[i][j] += xr[k] * yr[j] - xi[k] * yi[j]
                out_im[i][j] += xr[k] * yi[j] + xi[k] * yr[j]
    return out_re, out_im


@given(
    st.integers(1, 14), st.integers(1, 14), st.integers(1, 14),
    st.sampled_from(["small", "huge", "extreme", "bound", "zero"]),
    st.integers(0, 2**32),
)
@example(2, 3, 6, "bound", 0)
@example(3, 1, 5, "bound", 1)
# around the packing threshold (7 columns), with M = 10^40 (seed 9) just
# under 2^133 and 2n = 14 just under 2^4: the largest slot value, 2n M^2, is
# above 2^(w-2), so a field one bit narrower overflows
@example(3, 7, 5, "bound", 9)
@example(3, 7, 6, "bound", 9)
@example(3, 7, 7, "bound", 9)
# M = 3 (seed 1): the field width s + t + bitlen(2n) + 1 is 8 at n = 3, the
# narrowest native word, and 9 at n = 4, which rounds up to 16
@example(4, 3, 6, "bound", 1)
@example(4, 4, 6, "bound", 1)
@example(4, 3, 7, "bound", 1)
@example(4, 4, 7, "bound", 1)
def test_int_matmul_matches_schoolbook_property(m, n, p, kind, seed):
    # shapes on both sides of the packing threshold
    a_re, a_im, b_re, b_im = product_operands(m, n, p, kind, seed)
    assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)


def product_operands(m, n, p, kind, seed):
    """An m-by-n and an n-by-p Gaussian-integer matrix as tuples of rows.
    "extreme" makes every entry +-M; "bound" picks the signs so that every
    real part in an even column and every imaginary part in an odd one is
    +-2n M^2, the largest a product of such factors can hold."""
    rng = random.Random(seed)
    top = {"small": 9, "zero": 9}.get(kind, rng.choice([1, 3, 2**20, 10**40]))

    def grid(rows, cols, entry):
        return tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows))

    if kind == "bound":
        signs = [rng.choice([-1, 1]) for _ in range(m)]
        a_re = a_im = grid(m, n, lambda i, k: signs[i] * top)
        b_re = grid(n, p, lambda k, j: top)
        b_im = grid(n, p, lambda k, j: top if j % 2 else -top)
    else:
        def entry(i, j):
            return rng.choice([-top, top]) if kind == "extreme" else rng.randint(-top, top)

        a_re, a_im = grid(m, n, entry), grid(m, n, entry)
        b_re, b_im = grid(n, p, entry), grid(n, p, entry)
        if kind == "zero" and seed % 2:
            b_re = b_im = grid(n, p, lambda k, j: 0)
        elif kind == "zero":
            a_re = a_im = grid(m, n, lambda i, k: 0)
    return a_re, a_im, b_re, b_im


@given(
    st.integers(1, 8), st.integers(1, 14), st.integers(1, 14),
    st.sampled_from(["small", "huge", "extreme", "bound", "zero"]),
    st.integers(0, 2**32),
)
@example(5, 5, 5, "bound", 9)
@example(1, 7, 7, "extreme", 1)
def test_int_matmul_on_row_lists_returns_fresh_row_lists_property(m, n, p, kind, seed):
    # list operands, as the trace recurrence passes B_(k-1); it then adds
    # c_k to the diagonal of the product in place
    operands = [[list(row) for row in rows] for rows in product_operands(m, n, p, kind, seed)]
    expected = schoolbook_matmul(*operands)
    out_re, out_im = int_matmul(*operands)
    assert (out_re, out_im) == expected
    rows = out_re + out_im
    operand_rows = [row for rows in operands for row in rows]
    assert all(type(row) is list for row in rows)
    assert len({id(row) for row in rows + operand_rows}) == len(rows) + len(operand_rows)
    for row in rows:
        row[0] += 1
    assert int_matmul(*operands) == expected


@given(
    st.integers(1, 14), st.integers(7, 48),
    st.sampled_from(["small", "huge", "extreme", "bound", "zero"]),
    st.integers(0, 2**32),
)
@example(7, 7, "bound", 9)
@example(14, 48, "bound", 9)
@example(3, 7, "extreme", 1)
@example(1, 7, "bound", 1)
def test_single_row_product_runs_the_transposed_kernel_property(n, p, kind, seed):
    # a single row with at least `_PACKED_MIN_COLS` columns runs as
    # (B^T x^T)^T on the (n, 1) kernel
    a_re, a_im, b_re, b_im = product_operands(1, n, p, kind, seed)
    assert p >= matrix_module._PACKED_MIN_COLS
    assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)
    assert (n, 1) in matrix_module._KERNELS and (n, p) not in matrix_module._KERNELS


def test_deep_inner_dimension_compiles_and_matches_schoolbook(monkeypatch):
    # one unbroken chain of 3200 terms raises RecursionError when Python
    # 3.10-3.12 compile it; an inner dimension of 1600 runs in blocks of
    # capped kernels, flat sums of at most 2 cap terms whose depth does not
    # grow with the inner dimension
    monkeypatch.setattr(matrix_module, "_KERNELS", {})
    rng = random.Random(1600)
    a_re, a_im = ([[rng.randint(-9, 9) for _ in range(1600)] for _ in range(2)] for _ in "ri")
    b_re, b_im = ([[rng.randint(-9, 9)] for _ in range(1600)] for _ in "ri")
    assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)

    def depth(node):
        return 1 + max(map(depth, ast.iter_child_nodes(node)), default=0)

    cap = matrix_module._MAX_INNER
    assert set(matrix_module._KERNELS) == {(cap, 1)}
    assert depth(ast.parse(matrix_module._kernel_source(cap, 1))) < 2 * cap + 16


def test_long_inner_dimension_runs_in_blocks_of_capped_kernels(monkeypatch):
    # no kernel is generated for an inner dimension above the cap: 5000 and
    # 400 run as sums of products over blocks of at most the cap, one row by
    # 7 columns on the transposes
    monkeypatch.setattr(matrix_module, "_KERNELS", {})
    rng = random.Random(5000)
    for m, n, p in ((1, 5000, 7), (3, 400, 6), (2, 65, 1)):
        a_re, a_im = ([[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)] for _ in "ri")
        b_re, b_im = ([[rng.randint(-99, 99) for _ in range(p)] for _ in range(n)] for _ in "ri")
        assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)
    cap = matrix_module._MAX_INNER
    assert set(matrix_module._KERNELS) == {(cap, 1), (5000 % cap, 1), (cap, 6), (400 % cap, 6), (1, 1)}


def test_one_kernel_is_generated_per_shape(monkeypatch):
    generated = []
    source = matrix_module._kernel_source
    monkeypatch.setattr(matrix_module, "_KERNELS", {})
    monkeypatch.setattr(matrix_module, "_kernel_source",
                        lambda n, p: generated.append((n, p)) or source(n, p))
    a = ((1, 2, 3), (4, 5, 6))
    b = ((1, 0, 2, 1), (0, 1, 1, 2), (3, 1, 0, 1))
    first = int_matmul(a, a, b, b)
    assert generated == [(3, 4)]
    # another row count and other values: the same kernel
    assert int_matmul(a[:1], a[1:], b, b) == schoolbook_matmul(a[:1], a[1:], b, b)
    assert int_matmul(a, a, b, b) == first
    assert generated == [(3, 4)]
    # one row by 7 and by 9 columns both run the (3, 1) kernel
    for p in (7, 9):
        wide = tuple((row * 3)[:p] for row in b)
        assert int_matmul(a[:1], a[1:], wide, wide) == schoolbook_matmul(a[:1], a[1:], wide, wide)
    assert generated == [(3, 4), (3, 1)]


@given(st.sampled_from([8, 16, 32, 64, 65]), st.integers(2, 6), st.integers(1, 15),
       st.integers(matrix_module._PACKED_MIN_COLS, 12), st.integers(0, 2**32))
@example(64, 2, 15, 6, 0)
@example(64, 2, 15, 7, 0)
@example(65, 3, 8, 7, 1)
def test_packed_field_width_boundaries_property(w, m, n, p, seed):
    # entries of A are +-(2^s - 1) and entries of B +-(2^t - 1), with
    # s + t + bitlen(2n) + 1 = w: 8, 16, 32 and 64 are the native words the
    # packed product reads whole, 65 the narrowest field it reads with a
    # shift and a mask.  The signs follow the "bound" pattern, so every real
    # part in an even column and every imaginary part in an odd one is
    # +-2n (2^s - 1)(2^t - 1), at least 2^(w-4): a field of half the width
    # overflows
    rng = random.Random(seed)
    s = rng.randint(1, w - (2 * n).bit_length() - 2)
    t = w - (2 * n).bit_length() - 1 - s
    top_a, top_b = (1 << s) - 1, (1 << t) - 1
    a_re = a_im = tuple((rng.choice([-1, 1]) * top_a,) * n for _ in range(m))
    b_re = ((top_b,) * p,) * n
    b_im = (tuple(top_b if j % 2 else -top_b for j in range(p)),) * n
    assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)
    assert int_matmul(a_re, a_im, b_re, b_im, _Packing()) == schoolbook_matmul(a_re, a_im, b_re, b_im)


@given(st.integers(2, 8), st.integers(matrix_module._PACKED_MIN_COLS, 9), st.integers(0, 2**32))
@example(2, 6, 0)
@example(2, 7, 0)
def test_one_packing_serves_a_chain_property(m, n, seed):
    # twelve products X_(e+1) = X_e B by one B, all given the same
    # `_Packing`, as the trace recurrence passes it.  B = 64 I + E with
    # |E_kj| <= sqrt(2), so each row of X gains a factor of at least
    # 64 - 9 sqrt(2) > 2^5.6 in 1-norm per product: the field width starts
    # at 16 bits and ends past 64, and the packing has to keep B packed at
    # each width
    rng = random.Random(seed)
    unit = (-1, 0, 1)
    b_re = tuple(tuple(64 * (k == j) + rng.choice(unit) for j in range(n)) for k in range(n))
    b_im = tuple(tuple(rng.choice(unit) for _ in range(n)) for _ in range(n))
    x_re = tuple(tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)) for _ in range(m))
    x_im = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
    packing = _Packing()
    for _ in range(12):
        product = int_matmul(x_re, x_im, b_re, b_im, packing)
        assert product == schoolbook_matmul(x_re, x_im, b_re, b_im)
        x_re, x_im = product
    assert min(max(abs(x) for x in chain(*rows)).bit_length() for rows in zip(x_re, x_im)) > 64


def test_a_right_factor_keeps_one_packing_per_width():
    # B is 8x8 with entries below 2^2 and X has entries +-(2^s - 1), so the
    # field width s + 2 + bitlen(16) + 1 = s + 8 is 16 at s = 8 and 7, 28
    # (a 32-bit word) at s = 20, 58 (a 64-bit word) at s = 50, and 68 at
    # s = 60, past the native words, which is rounded up to 128.  B keeps one
    # packing, built on its first packed product, with one pack per native
    # width; a repeated width reuses it, and the 128-bit pack is dropped when
    # its product returns
    rng = random.Random(27)
    n = 8
    b = ExactMatrix(n, n, [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3))
                           for _ in range(n * n)])
    packing, packs = None, {}
    for s, w in ((8, 16), (20, 32), (50, 64), (60, 128), (8, 16), (7, 16), (50, 64)):
        top = (1 << s) - 1
        x = ExactMatrix(3, n, [ExactScalar(rng.choice([-top, top]), rng.choice([-top, top, 0]))
                               for _ in range(3 * n)])
        assert x @ b == reference_matmul(x, b)
        packing = packing or b._kept["packing"]
        assert b._kept["packing"] is packing
        if w > 64:
            assert w not in packing.by_width
        else:
            assert packing.by_width[w][0] is packs.setdefault(w, packing.by_width[w][0])
    assert sorted(packing.by_width) == [16, 32, 64]


def test_a_packed_right_factor_equals_and_hashes_like_a_fresh_one(rng):
    b = rand_rational_matrix(rng, 7, 7)
    rand_rational_matrix(rng, 2, 7) @ b
    assert b._kept["packing"].by_width
    fresh = ExactMatrix(7, 7, b.entries)
    assert fresh._kept is None
    assert_same_value(b, fresh)


def reference_recurrences(re_rows, im_rows):
    """B_0..B_(n-1) and c_1..c_n of B_k = M B_(k-1) + c_k I with
    c_k = -tr(M B_(k-1)) / k, M on the left, by the schoolbook product."""
    n = len(re_rows)
    b = ([[int(i == j) for j in range(n)] for i in range(n)], [[0] * n for _ in range(n)])
    bs, coeffs = [b], []
    for k in range(1, n + 1):
        mb_re, mb_im = schoolbook_matmul(re_rows, im_rows, *b)
        tr_re, tr_im = sum(mb_re[i][i] for i in range(n)), sum(mb_im[i][i] for i in range(n))
        assert tr_re % k == tr_im % k == 0
        c = (-tr_re // k, -tr_im // k)
        coeffs.append(c)
        for i in range(n):
            mb_re[i][i] += c[0]
            mb_im[i][i] += c[1]
        b = (mb_re, mb_im)
        bs.append(b)
    return bs, coeffs


@given(st.integers(1, 10), st.sampled_from(["gaussian", "rational", "zero_diagonal"]),
       st.integers(0, 2**32))
@example(7, "gaussian", 0)
@example(8, "rational", 1)
@example(6, "zero_diagonal", 2)
def test_trace_recurrence_matches_the_left_product_recurrence_property(n, kind, seed):
    # _trace_recurrence forms B_(k-1) M, so that M is packed once; B_(k-1) is
    # a polynomial in M, so that equals M B_(k-1) exactly.  Every r on
    # non-normal Gaussian bases, on the images of rational-scaled bases and
    # on bases with a zero diagonal
    rng = random.Random(seed)
    m = rand_matrix(rng, n, n, span=3)
    if n > 1:
        # entries of modulus 5 sqrt(2) along row 1 and at most 3 sqrt(2) down
        # column 1: row 1 outweighs column 1, so M M* != M* M, whatever the
        # diagonal
        row = [sc(rng.choice([-5, 5]), rng.choice([-5, 5])) for _ in range(n - 1)]
        m = m.replace_row(1, [m.entry(1, 1), *row])
        assert m @ conj_transpose(m) != conj_transpose(m) @ m
    if kind == "rational":
        m = m.scale(sc(F(2, 3), F(1, 5)))
    elif kind == "zero_diagonal":
        m = ExactMatrix.from_rows([[sc(0) if i == j else x for j, x in enumerate(row)]
                                   for i, row in enumerate(m.to_lists())])
    re_rows, im_rows, _ = clear_denominators(m)
    bs, coeffs = reference_recurrences(re_rows, im_rows)
    for r in range(1, n + 1):
        assert _trace_recurrence(re_rows, im_rows, r) == (bs[r - 1], coeffs[:r])


def from_image(re_rows, im_rows):
    """The matrix with real parts re_rows and imaginary parts im_rows."""
    return ExactMatrix.from_rows(
        [[ExactScalar(x, y) for x, y in zip(xr, xi)] for xr, xi in zip(re_rows, im_rows)]
    )


@given(
    st.integers(1, 8), st.integers(1, 8), st.integers(0, 8),
    st.sampled_from(["small", "sparse", "huge"]), st.integers(0, 3), st.booleans(),
    st.integers(0, 2**32),
)
@example(3, 3, 3, "small", 1, True, 0)
@example(5, 5, 5, "sparse", 0, True, 1)
@example(4, 6, 0, "huge", 0, False, 2)
def test_eliminate_consumers_match_the_scalar_elimination_property(
    m, n, r, kind, zero_cols, swap, seed
):
    # int_rank and int_det run Bareiss steps, which update only the columns
    # right of each pivot; int_adjugate runs Gauss-Jordan.  A product of
    # m-by-r and r-by-n factors has rank at most r; "sparse" factors are
    # mostly zero, so pivots go missing mid-way, and "huge" entries reach
    # about 10^40.  The first `zero_cols` columns are zero, and `swap` makes
    # the first row zero at the first pivot column, so a swap is forced.
    rng = random.Random(seed)
    top = {"small": 3, "sparse": 1, "huge": 10**19}[kind]

    def factor_entry():
        if kind == "sparse" and rng.random() < 0.6:
            return 0
        return rng.randint(-top, top)

    r = min(r, m, n)
    left = [[(factor_entry(), factor_entry()) for _ in range(r)] for _ in range(m)]
    right = [[(factor_entry(), factor_entry()) for _ in range(n)] for _ in range(r)]
    cols = [[right[t][j] for t in range(r)] for j in range(n)]
    re = [[sum(a * c - b * d for (a, b), (c, d) in zip(row, col)) for col in cols] for row in left]
    im = [[sum(a * d + b * c for (a, b), (c, d) in zip(row, col)) for col in cols] for row in left]
    for row in re + im:
        row[:zero_cols] = [0] * min(zero_cols, n)
    if swap:
        lead = next((j for j in range(n) if any(row[j] for row in re + im)), None)
        if lead is not None:
            re[0][lead] = im[0][lead] = 0
    re_rows, im_rows = tuple(map(tuple, re)), tuple(map(tuple, im))
    _, _, pivots = reference_gauss_jordan(from_image(re_rows, im_rows))
    assert int_rank(re_rows, im_rows) == len(pivots)
    k = min(m, n)
    block_re, block_im = tuple(row[:k] for row in re_rows[:k]), tuple(row[:k] for row in im_rows[:k])
    _, inv, pivots, det_value = reference_gauss_jordan(
        from_image(block_re, block_im), ExactMatrix.identity(k), with_det=True
    )
    assert int_rank(block_re, block_im) == len(pivots)
    assert int_det(block_re, block_im) == (det_value.re, det_value.im)
    adjugate = int_adjugate(block_re, block_im)
    if len(pivots) < k:
        assert adjugate is None and det_value.is_zero()
    else:
        adj = inv.scale(det_value).to_lists()
        assert adjugate == ([[x.re for x in row] for row in adj], [[x.im for x in row] for row in adj],
                            det_value.re, det_value.im)


def assert_same_elimination(re_rows, im_rows, width, jordan):
    """`_eliminate` against the eager reference: the same pivots, sign, row
    order and last pivot, and the same rows wherever a caller reads them:
    every Gauss-Jordan row, and every Bareiss pivot row from its pivot on."""
    lazy = matrix_module._eliminate(re_rows, im_rows, width, jordan)
    eager = elimination_reference.eliminate(re_rows, im_rows, width, jordan)
    assert lazy[2:] == eager[2:]
    if jordan:
        assert lazy[:2] == eager[:2]
    else:
        for t, col in enumerate(lazy[4]):
            assert lazy[0][t][col:] == eager[0][t][col:]
            assert lazy[1][t][col:] == eager[1][t][col:]


# A stale row swapped up to become the pivot (rows 1 and 2 skip the first
# step, and row 2 is swapped up at the second), and stale rows left when a
# Gauss-Jordan run ends (the rows with a zero in the last pivot column)
STALE_PIVOT = ((2, 1, 0), (0, 0, 1), (0, 3, 0))
STALE_PIVOT_IM = ((1, 0, 0), (0, 0, 2), (0, -1, 0))


@given(
    st.integers(1, 9), st.integers(1, 9),
    st.sampled_from(["sparse", "block", "low_rank", "dense"]), st.booleans(),
    st.integers(0, 2**32),
)
@example(3, 3, "sparse", False, 0)
@example(6, 6, "block", False, 1)
@example(7, 5, "low_rank", False, 2)
@example(5, 7, "dense", True, 3)
def test_lazy_elimination_matches_the_eager_reference_property(m, n, kind, real, seed):
    # sparse: most entries zero; block: Gaussian blocks down the diagonal,
    # rows and columns permuted, so that whole rows skip a step; low_rank:
    # m-by-r times r-by-n, so pivots go missing; dense: every entry drawn
    rng = random.Random(seed)
    top = rng.choice([3, 10**12])

    def entry():
        return 0 if kind == "sparse" and rng.random() < 0.7 else rng.randint(-top, top)

    if kind == "block":
        re, im = [[0] * n for _ in range(m)], [[0] * n for _ in range(m)]
        i = 0
        while i < min(m, n):
            size = rng.randint(1, 3)
            for a in range(i, min(i + size, m)):
                for b in range(i, min(i + size, n)):
                    re[a][b], im[a][b] = entry(), entry()
            i += size
        rows, cols = rng.sample(range(m), m), rng.sample(range(n), n)
        re = [[re[a][b] for b in cols] for a in rows]
        im = [[im[a][b] for b in cols] for a in rows]
    elif kind == "low_rank":
        r = rng.randint(0, min(m, n))
        left = [[(entry(), entry()) for _ in range(r)] for _ in range(m)]
        cols = [[(entry(), entry()) for _ in range(r)] for _ in range(n)]
        re = [[sum(a * c - b * d for (a, b), (c, d) in zip(row, col)) for col in cols]
              for row in left]
        im = [[sum(a * d + b * c for (a, b), (c, d) in zip(row, col)) for col in cols]
              for row in left]
    else:
        re, im = ([[entry() for _ in range(n)] for _ in range(m)] for _ in range(2))
    if real:
        im = [[0] * n for _ in range(m)]
    re_rows, im_rows = tuple(map(tuple, re)), tuple(map(tuple, im))
    assert_same_elimination(re_rows, im_rows, n, False)
    k = min(m, n)
    block_re, block_im = tuple(row[:k] for row in re_rows[:k]), tuple(row[:k] for row in im_rows[:k])
    assert_same_elimination(block_re, block_im, k, False)
    assert_same_elimination(block_re, block_im, k, True)


@pytest.mark.parametrize("im_rows", [((0,) * 3,) * 3, STALE_PIVOT_IM])
@pytest.mark.parametrize("jordan", [False, True])
def test_stale_rows_catch_up_as_the_pivot_and_at_the_end(im_rows, jordan, monkeypatch):
    # the pivot row of the second step was skipped by the first, and so is
    # caught up before it pivots; a Gauss-Jordan run ends with stale rows
    starts = []
    catch_up = matrix_module._catch_up
    monkeypatch.setattr(matrix_module, "_catch_up",
                        lambda xr, xi, start, *rest: starts.append(start)
                        or catch_up(xr, xi, start, *rest))
    assert_same_elimination(STALE_PIVOT, im_rows, 3, jordan)
    if jordan:
        assert starts[0] == 0 and len(starts) > 2
    else:
        assert starts[0] == 1


def core_plus_jordan(rng, n, core, blocks, conjugate=True):
    """An invertible triangular Gaussian-integer core of order `core` and
    nilpotent Jordan blocks of the given sizes, conjugated by unit shears
    unless `conjugate` is false."""
    rows = [[ExactScalar(0)] * n for _ in range(n)]
    for i in range(core):
        rows[i][i] = ExactScalar(rng.choice([-2, -1, 1, 2]), rng.randint(-1, 1))
        for j in range(i):
            rows[i][j] = ExactScalar(rng.randint(-1, 1), rng.randint(-1, 1))
    start = core
    for size in blocks:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = ExactScalar(1)
        start += size
    if not conjugate:
        return ExactMatrix.from_rows(rows)
    shear = rand_unimodular(rng, n)
    return shear @ ExactMatrix.from_rows(rows) @ inverse(shear)


@given(st.sampled_from([1, *range(6, 13)]), st.sampled_from(["mixed", "zero", "nonsingular"]),
       st.booleans(), st.integers(0, 2**32))
def test_rank_profile_matches_full_power_ranks_property(n, kind, rational, seed):
    # the profile ranks each power on a block; every rank up to A^(k+1) must
    # equal the rank of the whole power, and both must follow from the blocks
    rng = random.Random(seed)
    core = {"zero": 0, "nonsingular": n}.get(kind, rng.randint(0, n))
    blocks = [1] * n if kind == "zero" else []
    while sum(blocks) < n - core:
        blocks.append(rng.randint(1, min(8, n - core - sum(blocks))))
    a = ExactMatrix.zeros(n, n) if kind == "zero" else core_plus_jordan(rng, n, core, blocks)
    if rational:
        a = a.scale(ExactScalar(F(rng.choice([1, 2, 5]), rng.choice([3, 4, 7])), F(1, 2)))
    profile = rank_profile(a)
    k = max(blocks, default=0)
    assert profile.index == k
    power = ExactMatrix.identity(n)
    for e in range(1, k + 2):
        power = power @ a
        expected = core + sum(max(size - e, 0) for size in blocks)
        assert profile.rank_of_power[e - 1] == rank(power) == expected
    assert len(profile.rank_of_power) == k + 1


# (core, Jordan blocks) whose rank falls by exactly one at some A^e, e >= 2,
# so that the rest of the rank sequence is forced and read off the core rank
FORCED_TAILS = [
    (2, [8]),  # one long block beside a core: the bench's high-index shape
    (2, [10]),  # the same at n = 12
    (5, [3, 1]),  # drops 2, 1, 1: the square A^4 already shows the core rank
    (3, [4, 1, 1]),
    (0, [7]),  # a single nilpotent block J_n: c = 0
    (0, [12]),
    (4, [2]),  # c = rank(A^2): the tail stops at the first power it forces
    (6, [2, 1]),
    (1, [6]),  # the block of A^7 is A^4 A^2 A, with a middle factor
]


@pytest.mark.parametrize("core, blocks", FORCED_TAILS)
@pytest.mark.parametrize("rational, conjugate", [(False, True), (True, True), (False, False)])
def test_forced_tail_matches_full_power_ranks(core, blocks, rational, conjugate, monkeypatch):
    # the same reference as the property above: every rank up to A^(k+1)
    # against the rank of the whole power, on profiles that take the tail.
    # Unconjugated, a Jordan block's pivot rows and columns differ
    n = core + sum(blocks)
    rng = random.Random(n * 100 + core)
    a = core_plus_jordan(rng, n, core, blocks, conjugate)
    if rational:
        a = a.scale(ExactScalar(F(5, 7), F(-1, 3)))
    tails = []
    core_rank = matrix_module._core_rank
    monkeypatch.setattr(matrix_module, "_core_rank",
                        lambda *args: tails.append(1) or core_rank(*args))
    profile = rank_profile(a)
    k = max(blocks)
    assert profile.index == k
    assert len(tails) == 1
    power = ExactMatrix.identity(n)
    for e in range(1, k + 2):
        power = power @ a
        expected = core + sum(max(size - e, 0) for size in blocks)
        assert profile.rank_of_power[e - 1] == rank(power) == expected
    assert len(profile.rank_of_power) == k + 1
    assert profile.core_rank == core
    for e in range(2 * k + 3):
        assert profile.power(e) == a.power(e)


@pytest.mark.parametrize("core, blocks", [(5, [1]), (0, [1]), (3, [2, 2]), (2, [3, 3]), (4, []),
                                         (1, [2]), (0, [3])])
def test_profile_takes_no_forced_tail_without_a_drop_of_one(core, blocks, monkeypatch):
    # rank n - 1 and index 1 (drops 1, then 0), drops of 2 or more, and a
    # nonsingular matrix: every power up to A^(k+1) is ranked in the chain.
    # So is a fall by one to rank 1, which the next power settles
    n = core + sum(blocks)
    a = core_plus_jordan(random.Random(n), n, core, blocks)
    monkeypatch.setattr(matrix_module, "_core_rank", None)
    profile = rank_profile(a)
    assert profile.index == max(blocks, default=0)
    assert profile.rank_of_power == tuple(
        core + sum(max(size - e, 0) for size in blocks) for e in range(1, profile.index + 2))


def test_forced_tail_reads_its_block_on_the_pivot_columns():
    # [[0, 1], [0, 1]] (core rank 1, left eigenvector (0, 1)) beside J_3:
    # A^2 has its pivots in rows 1, 3 and columns 2, 5, and past the index
    # columns 1 and 3 of every power are zero, so the block of A^4 that
    # gives the core rank must be read on the pivot columns
    a = mat([[0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]])
    profile = rank_profile(a)
    assert (profile.index, profile.rank_of_power) == (3, (3, 2, 1, 1))


def test_forced_tail_stops_at_the_first_square_off_the_slope(monkeypatch):
    # core 15 and blocks 3, 1, 1: the rank falls 3, then 1 at A^2 to 16, and
    # the square A^4, at rank 15 = c above the slope's 14, ends the tail.
    # The profile makes A^2, A^4 and A^3 = A^k, and no square past A^4
    a = core_plus_jordan(random.Random(20), 20, 15, [3, 1, 1])
    product, calls = matrix_module.int_matmul, []
    monkeypatch.setattr(matrix_module, "int_matmul", lambda *rows: calls.append(1) or product(*rows))
    profile = rank_profile(a)
    assert (profile.index, profile.core_rank, len(calls)) == (3, 15, 3)


def test_profile_builds_a_missing_power_from_the_stored_ones(monkeypatch):
    # core 2 beside J_8 keeps A^8 = A^k of the powers its profile formed
    # (A^2, A^4 and A^8); a read builds a missing power from the nearest kept
    # one below and the largest kept one that fits, and keeps the power read
    # but not the steps: A^9 = A^8 A, A^17 = A^9 A^8, A^3 = (A A) A,
    # A^4 = A^3 A and A^2 = A A, and A^0 and a kept power take no product
    a = core_plus_jordan(random.Random(10), 10, 2, [8])
    profile = rank_profile(a)
    assert profile.index == 8
    reads = ((8, 0), (0, 0), (9, 1), (17, 1), (3, 2), (4, 1), (2, 1), (3, 0))
    expected = {e: a.power(e) for e, _ in reads}
    product, calls = matrix_module.int_matmul, []
    monkeypatch.setattr(matrix_module, "int_matmul", lambda *rows: calls.append(1) or product(*rows))
    for e, made in reads:
        calls.clear()
        assert profile.power(e) == expected[e]
        assert len(calls) == made, e


def test_nilpotent_profile_stops_the_chain_at_the_zero_power(rng, monkeypatch):
    # once A^k = 0 its rank is 0 and A^(k+1) = 0 is not formed.  J_2 makes
    # its one chain product, A^2, and the zero matrix none.  J_6, J_5 and J_8
    # fall by one at A^2, so their tails are forced: each makes A^2, the
    # square A^4, ranked on the last block, and one thin product for the
    # block of A^k; A^k = 0 is then stored without a product
    cases = [(rand_index_matrix(rng, n, 0, k), k, products)
             for n, k, products in ((6, 6, 3), (8, 5, 3), (10, 8, 3), (3, 2, 1))]
    cases += [(ExactMatrix.zeros(n, n), 1, 0) for n in (1, 4)]
    product = matrix_module.int_matmul
    for a, k, products in cases:
        calls = []
        monkeypatch.setattr(
            matrix_module, "int_matmul", lambda *rows: calls.append(1) or product(*rows)
        )
        profile = rank_profile(a)
        assert (profile.index, len(calls)) == (k, products)
        assert profile.rank_of_power[-2:] == (0, 0)
        monkeypatch.setattr(matrix_module, "int_matmul", product)
        assert profile.power(k + 1) == ExactMatrix.zeros(a.rows, a.rows)
        assert profile.power(k) == a.power(k)


# -- the rank and the profile a matrix keeps ------------------------------------------


# the record keys of the Moore-Penrose parts, and the Gram base of each side
MP_PARTS = {"A*", "A*A", "AA*"}
GRAM_BASE = {"column": "A*A", "row": "AA*"}


def kept(a):
    """The record of what `a` keeps, empty if it keeps nothing yet."""
    return a._kept or {}


def kept_powers(a):
    """{e: A^e} for the powers `a` keeps."""
    return {e: p for e, p in kept(a).items() if type(e) is int}


@contextmanager
def counting_rankings_and_powers(a):
    """Counts the Bareiss eliminations, which rank, and the products of two
    powers of A (A itself or a power it keeps) made inside the block."""
    eliminate, matmul = matrix_module._eliminate, ExactMatrix.__matmul__
    powers = {id(a)} | {id(p) for p in kept_powers(a).values()}
    counts = {"rankings": 0, "powers": 0}

    def counted_eliminate(re_rows, im_rows, width, jordan):
        counts["rankings"] += not jordan
        return eliminate(re_rows, im_rows, width, jordan)

    def counted_matmul(x, y):
        counts["powers"] += id(x) in powers and id(y) in powers
        return matmul(x, y)

    matrix_module._eliminate, ExactMatrix.__matmul__ = counted_eliminate, counted_matmul
    try:
        yield counts
    finally:
        matrix_module._eliminate, ExactMatrix.__matmul__ = eliminate, matmul


DRAZIN_FAMILY = (
    ("drazin_inverse", lambda a, b: drazin_inverse(a)),
    ("projector_drazin_left", lambda a, b: projector(a, "drazin_left")),
    ("drazin_solve", lambda a, b: drazin_solve(a, b.col(1))),
    ("ode_left_partial", ode_left_partial),
)
MP_FAMILY = (
    ("mp_inverse", lambda a, b: mp_inverse(a)),
    ("projector_out", lambda a, b: projector(a, "out")),
    ("ls_min_norm_solve", lambda a, b: ls_min_norm_solve(a, b.col(1))),
)


@given(st.data())
def test_a_second_call_reads_the_kept_rank_and_profile_property(data):
    # a second call of one rule on one matrix ranks nothing (no Bareiss
    # elimination; a full-order kernel still runs Gauss-Jordan) and forms no
    # power of A, and every call equals the one on a freshly built equal
    # matrix, which keeps nothing yet
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        index = data.draw(st.integers(1, n))
        a = rand_index_matrix(rng, n, data.draw(st.integers(0, n - index)), index)
        m = n
    else:
        m = data.draw(st.integers(1, 6))
        a = rand_low_rank(rng, m, n, data.draw(st.integers(0, min(m, n))))
    b = rand_matrix(rng, m, m)
    family = MP_FAMILY + DRAZIN_FAMILY if a.is_square else MP_FAMILY
    for name, call in data.draw(st.permutations(family)):
        first = call(a, b)
        with counting_rankings_and_powers(a) as counts:
            again = call(a, b)
        assert counts == {"rankings": 0, "powers": 0}, name
        assert first == again == call(ExactMatrix(m, n, a.entries), b), name


def _auto_side(a):
    # the side `form="auto"` takes: the smaller Gram base, A*A on a tie
    return "column" if a.cols <= a.rows else "row"


# each Moore-Penrose-family call on A (and, for AXB = D, on C), with the
# Cramer rules it applies as (matrix, side); D (column side) and E (row
# side) give the right-hand sides
MP_RULE_CALLS = (
    ("mp_inverse", lambda a, c, d, e: mp_inverse(a), lambda a, c: [(a, _auto_side(a))]),
    ("mp_inverse column", lambda a, c, d, e: mp_inverse(a, form="column"),
     lambda a, c: [(a, "column")]),
    ("mp_inverse row", lambda a, c, d, e: mp_inverse(a, form="row"), lambda a, c: [(a, "row")]),
    ("projector_in", lambda a, c, d, e: projector(a, "in"), lambda a, c: [(a, "column")]),
    ("projector_out", lambda a, c, d, e: projector(a, "out"), lambda a, c: [(a, "row")]),
    ("ls_min_norm_solve", lambda a, c, d, e: ls_min_norm_solve(a, d.col(1)),
     lambda a, c: [(a, "column")]),
    ("ls_min_norm_solve_row", lambda a, c, d, e: ls_min_norm_solve_row(e.row(1), a),
     lambda a, c: [(a, "row")]),
    ("ls_solve_left", lambda a, c, d, e: ls_solve_left(a, d), lambda a, c: [(a, "column")]),
    ("ls_solve_right", lambda a, c, d, e: ls_solve_right(a, e),
     lambda a, c: [(a, "row")]),
    ("ls_solve_both", lambda a, c, d, e: ls_solve_both(a, c, d),
     lambda a, c: [(c, "row"), (a, "column")] if rank(a) and rank(c) else []),
)


@contextmanager
def counting_gram_products_and_recurrences(*matrices):
    """Counts the products, made inside the block, of one of `matrices` by
    a matrix equal to its conjugate transpose, in either order, and the
    trace recurrences the kernel runs."""
    matmul, recurrence = ExactMatrix.__matmul__, minors_module._trace_recurrence
    stars = [(a, a.conj_transpose()) for a in matrices]
    counts = {"gram_products": 0, "recurrences": 0}

    def counted_matmul(x, y):
        counts["gram_products"] += any((x is a and y == star) or (y is a and x == star)
                                       for a, star in stars)
        return matmul(x, y)

    def counted_recurrence(*args):
        counts["recurrences"] += 1
        return recurrence(*args)

    ExactMatrix.__matmul__, minors_module._trace_recurrence = counted_matmul, counted_recurrence
    try:
        yield counts
    finally:
        ExactMatrix.__matmul__, minors_module._trace_recurrence = matmul, recurrence


def kept_pack_widths(*matrices):
    """The pack widths of each kept Moore-Penrose part (A*, A*A, AA*)."""
    return [(key, sorted(kept(part)["packing"].by_width) if "packing" in kept(part) else [])
            for a in matrices for key, part in sorted((k, v) for k, v in kept(a).items()
                                                      if k in MP_PARTS)]


@given(st.data())
def test_a_second_moore_penrose_call_forms_no_gram_product_property(data):
    # a matrix keeps A* and the Gram base of each side it has used, so a
    # second call of one Moore-Penrose-family rule forms no Gram product and
    # packs its base at no new width; it still runs the trace recurrence
    # whenever 1 < r < the base order, since no kernel result is kept, and
    # it equals the call on freshly built equal matrices, which keep nothing
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a = rand_low_rank(rng, m, n, data.draw(st.integers(0, min(m, n))))
    # C is (m + 1) x (m + 2), D is m x (m + 2) and E is (n + 1) x n, so no
    # residual product multiplies A or C by a matrix of the shape of its
    # conjugate transpose
    c = rand_low_rank(rng, m + 1, m + 2, data.draw(st.integers(0, m + 1)))
    d, e = rand_matrix(rng, m, m + 2), rand_matrix(rng, n + 1, n)
    for name, call, rules in data.draw(st.permutations(MP_RULE_CALLS)):
        first = call(a, c, d, e)
        widths = kept_pack_widths(a, c)
        with counting_gram_products_and_recurrences(a, c) as counts:
            again = call(a, c, d, e)
        runs = sum(1 < rank(x) < (x.cols if side == "column" else x.rows)
                   for x, side in rules(a, c))
        assert counts == {"gram_products": 0, "recurrences": runs}, name
        assert kept_pack_widths(a, c) == widths, name
        for x, side in rules(a, c):
            order = x.cols if side == "column" else x.rows
            if order >= matrix_module._PACKED_MIN_COLS and 2 < rank(x) < order:
                # the recurrence made packed products by the kept base
                packing = kept(kept(x)[GRAM_BASE[side]]).get("packing")
                assert packing is not None and packing.by_width, name
        fresh = ExactMatrix(m, n, a.entries), ExactMatrix(m + 1, m + 2, c.entries)
        assert first == again == call(*fresh, d, e), name


def test_a_profiled_matrix_is_freed_by_reference_counting(rng):
    # the kept state holds no reference to its own matrix, so dropping a
    # profiled matrix, or one that keeps the Moore-Penrose parts of both
    # sides, leaves no cycle for the collector
    def profiled_matrices():
        shapes = [rand_index_matrix(rng, 8, 2, 5), rand_low_rank(rng, 6, 6, 3),
                  core_plus_jordan(random.Random(10), 10, 2, [8])]
        for a in shapes:
            rank_profile(a)
            drazin_inverse(a)
            mp_inverse(a)
            ode_left_partial(a, a)
        gram = [rand_low_rank(rng, 9, 7, 4), rand_low_rank(rng, 8, 8, 5)]
        for a in gram:
            mp_inverse(a, form="column")
            mp_inverse(a, form="row")
        return shapes, gram

    profiled_matrices()
    gc.collect()
    gc.disable()
    try:
        shapes, gram = profiled_matrices()
        assert all("profile" in kept(a) for a in shapes)
        assert all(kept(a).keys() & MP_PARTS == MP_PARTS for a in gram)
        assert all("packing" in kept(kept(a)[key]) for a in gram for key in MP_PARTS)
        del shapes, gram
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_reading_the_powers_keeps_no_gap():
    # `powers` builds the gaps below the largest power built for the tuple
    # alone: the matrix keeps the exponents it kept before the read
    a = core_plus_jordan(random.Random(10), 10, 2, [8])
    drazin_inverse(a)
    assert sorted(kept_powers(a)) == [8, 9]
    profile = rank_profile(a)
    powers = profile.powers
    assert sorted(kept_powers(a)) == [8, 9]
    assert powers == tuple(profile.power(e) for e in range(10))
    assert powers == tuple(a.power(e) for e in range(10))


def image_ints(a):
    re, im, q = clear_denominators(a)
    return chain(*re, *im, (q,))


def kept_ints(a):
    """The integers `a` keeps: its rank, its ranks and index, the image of
    each matrix it keeps with what that matrix keeps, and every kept pack."""
    for value in kept(a).values():
        if isinstance(value, ExactMatrix):
            yield from image_ints(value)
            yield from kept_ints(value)
        elif isinstance(value, _Packing):
            for packs, bias in value.by_width.values():
                yield from (*packs, bias)
        elif isinstance(value, int):
            yield value
        else:  # the ranks of the powers and the index
            ranks, index = value
            yield from (*ranks, index)


def kept_share(a):
    """The bytes `a` keeps over the bytes of its image (sys.getsizeof)."""
    return sum(map(sys.getsizeof, kept_ints(a))) / sum(map(sys.getsizeof, image_ints(a)))


@pytest.mark.parametrize("n", [16, 32, 48])
def test_a_matrix_keeps_at_most_five_times_its_image(n):
    # a matrix keeps what its rules read again, and packs up to 64 bits
    # wide: after each family of calls, at rank n/2 and at core rank n/2
    # and index 3, what it keeps takes at most 5x its image.  Each side of
    # the Moore-Penrose family runs on its own equal matrix, since each side
    # keeps A* and its own Gram base; the Drazin oracle runs after the
    # Drazin family on the same matrix
    rng, budget = random.Random(n), 10**40
    a = rand_low_rank(rng, n, n, n // 2)
    d = rand_index_matrix(rng, n, n // 2, 3)
    y, b = rand_matrix(rng, n, 1).col(1), rand_matrix(rng, n, 2)
    families = (
        ("Moore-Penrose, column side", ExactMatrix(n, n, a.entries), lambda x: (
            mp_inverse(x, budget=budget), ls_solve_left(x, b, budget), projector(x, "in", budget))),
        ("Moore-Penrose, row side", ExactMatrix(n, n, a.entries), lambda x: (
            mp_inverse(x, "row", budget), ls_solve_right(x, b.transpose(), budget),
            projector(x, "out", budget))),
        ("Drazin", d, lambda x: (
            drazin_inverse(x, budget=budget), drazin_solve(x, y, budget),
            dz_solve_left(x, b, budget), projector(x, "drazin_left", budget),
            projector(x, "drazin_right", budget), ode_left_partial(x, b @ b.transpose(), budget),
            ode_right_partial(x, b @ b.transpose(), budget))),
        ("Drazin, then its oracle", d, drazin_inverse_oracle),
    )
    for name, x, calls in families:
        calls(x)
        assert kept_share(x) <= 5, name


def test_the_high_index_input_keeps_the_two_powers_its_rule_reads():
    # the seed-0 input of the high_index_drazin benchmark, core rank 2 beside
    # J_8: its profile forms A^2, A^4 and A^8, and the matrix keeps A^8 and
    # A^9, the factor and the base of its Drazin rule, after the Drazin
    # inverse and again after the oracle, whose A^17 serves that call alone
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    (item,) = gen.high_index(0)
    a = ExactMatrix.from_rows([[ExactScalar(*e) for e in row] for row in item["a"]])
    assert (index_of(a), rank(a)) == (8, 9)
    drazin_inverse(a)
    assert sorted(kept_powers(a)) == [8, 9]
    drazin_inverse_oracle(a)
    assert sorted(kept_powers(a)) == [8, 9]


def test_assigning_to_a_returned_profile_changes_no_later_result(rng):
    a = rand_index_matrix(rng, 7, 2, 4)
    expected = drazin_inverse(ExactMatrix(7, 7, a.entries))
    profile = rank_profile(a)
    assert (profile.index, profile.rank_of_power) == (4, (5, 4, 3, 2, 2))
    profile.index, profile.rank_of_power = 1, (7, 7)
    assert drazin_inverse(a) == expected
    again = rank_profile(a)
    assert again is not profile
    assert (again.index, again.rank_of_power, again.core_rank) == (4, (5, 4, 3, 2, 2), 2)
