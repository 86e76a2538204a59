from fractions import Fraction as F
from itertools import chain
from math import comb, gcd, lcm
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import exactgi.matrix as matrix_module
from exactgi import (
    ExactMatrix,
    ExactScalar,
    char_poly_coeffs,
    conj_transpose,
    det,
    index_of,
    inverse,
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
# either side of the packing threshold (6 columns), with M = 10^40 (seed 9)
# just under 2^133 and 2n = 14 just under 2^4: the largest slot value,
# 2n M^2, is above 2^(w-2), so a field one bit narrower overflows
@example(3, 7, 5, "bound", 9)
@example(3, 7, 6, "bound", 9)
# M = 3 (seed 1): the field width s + t + bitlen(2n) + 1 is 8 at n = 3, the
# narrowest native word, and 9 at n = 4, which rounds up to 16
@example(4, 3, 6, "bound", 1)
@example(4, 4, 6, "bound", 1)
def test_int_matmul_matches_schoolbook_property(m, n, p, kind, seed):
    # shapes on both sides of the packing threshold.  "extreme" makes every
    # entry +-M; "bound" picks the signs so that every real part in an even
    # column and every imaginary part in an odd one is +-2n M^2, the largest
    # a product of such factors can hold
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
    assert int_matmul(a_re, a_im, b_re, b_im) == schoolbook_matmul(a_re, a_im, b_re, b_im)


@given(st.sampled_from([8, 16, 32, 64, 65]), st.integers(2, 6), st.integers(1, 15),
       st.integers(6, 12), st.integers(0, 2**32))
@example(64, 2, 15, 6, 0)
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


@given(st.integers(2, 8), st.integers(6, 9), st.integers(0, 2**32))
@example(2, 6, 0)
def test_one_packing_serves_a_chain_property(m, n, seed):
    # twelve products X_(e+1) = X_e B by one B, all given the same
    # `_Packing`, as a power chain passes it.  B = 64 I + E with |E_kj| <= sqrt(2), so each
    # row of X gains a factor of at least 64 - 9 sqrt(2) > 2^5.6 in 1-norm
    # per product: the field width starts at 16 bits and ends past 64, and
    # the packing has to keep B packed at each width
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


def core_plus_jordan(rng, n, core, blocks):
    """An invertible triangular Gaussian-integer core of order `core` and
    nilpotent Jordan blocks of the given sizes, conjugated by unit shears."""
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


def test_nilpotent_profile_stops_the_chain_at_the_zero_power(rng, monkeypatch):
    # once A^k = 0 its rank is 0 and A^(k+1) = 0 is not formed, so a nilpotent
    # matrix of index k makes k - 1 chain products and the zero matrix none
    cases = [(rand_index_matrix(rng, n, 0, k), k) for n, k in ((6, 6), (8, 5), (10, 8), (3, 2))]
    cases += [(ExactMatrix.zeros(n, n), 1) for n in (1, 4)]
    product = matrix_module.int_matmul
    for a, k in cases:
        calls = []
        monkeypatch.setattr(
            matrix_module, "int_matmul", lambda *rows: calls.append(1) or product(*rows)
        )
        profile = rank_profile(a)
        assert (profile.index, len(calls)) == (k, k - 1)
        assert profile.rank_of_power[-2:] == (0, 0)
        monkeypatch.setattr(matrix_module, "int_matmul", product)
        assert profile.power(k + 1) == ExactMatrix.zeros(a.rows, a.rows)
        assert profile.power(k) == a.power(k)
