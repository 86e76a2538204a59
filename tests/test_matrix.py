from fractions import Fraction as F
from itertools import islice
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
    clear_denominators,
    column_space_contains,
    int_matmul,
    power_products,
    row_space_contains,
    rref,
)

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


def test_rank_profile_on_rationals_matches_reference(rng):
    for _ in range(8):
        n = rng.randint(2, 5)
        core = rng.randint(0, n - 2)
        a = rand_index_matrix(rng, n, core, rng.randint(1, n - core)).scale(
            ExactScalar(F(rng.choice([2, 3, 5]), 7), F(1, 3))
        )
        profile = rank_profile(a)
        power = ExactMatrix.identity(n)
        for p, cached in enumerate(profile.powers):
            assert cached == power
            if 1 <= p <= len(profile.rank_of_power):
                assert profile.rank_of(p) == rank(power)
            power = reference_matmul(power, a)
        assert len(profile.powers) >= 2 * profile.index + 2


def test_power_products_match_reference(rng):
    for side in ("left", "right"):
        for _ in range(4):
            n = rng.randint(1, 4)
            a = rand_rational_matrix(rng, n, n)
            b = rand_rational_matrix(rng, n, n)
            qa, qb = clear_denominators(a)[2], clear_denominators(b)[2]
            expected = b
            for l, (product, p_re, p_im) in enumerate(islice(power_products(a, b, side), 5)):
                assert product == expected
                # the integer image is A^l B scaled by q_A^l q_B
                q = qa**l * qb
                assert product == ExactMatrix(n, n, [
                    ExactScalar(F(x, q), F(y, q))
                    for row_re, row_im in zip(p_re, p_im)
                    for x, y in zip(row_re, row_im)
                ])
                expected = (
                    reference_matmul(a, expected)
                    if side == "left"
                    else reference_matmul(expected, a)
                )
    with pytest.raises(ValueError):
        next(power_products(a, b, "both"))


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
    # fraction-free full-pivot elimination vs. plain Gauss-Jordan pivots
    for _ in range(30):
        a = rand_low_rank(rng, rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4))
        assert rank(a) == len(rref(a)[1])


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
        assert len(profile.powers) >= 2 * profile.index + 2
        for p, cached in enumerate(profile.powers):
            assert cached == a.power(p)
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


def test_rref_properties():
    reduced, pivots = rref(mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert pivots == (1, 2)
    assert reduced.row(3) == (sc(0), sc(0), sc(0))
    for row_idx, col in enumerate(pivots, start=1):
        assert reduced.entry(row_idx, col) == sc(1)


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
        # reads out of order and past 2k+1 extend the same chain
        for e in (k + 1, 0, 2 * k + 4, k, 1, 2 * k + 2):
            assert profile.power(e) == a.power(e)
        assert profile.power(k) is profile.power(k)
        assert profile.powers[-1] == a.power(2 * k + 1)
        assert profile.powers[1:3] == (a, a.power(2))
        with pytest.raises(IndexError):
            profile.powers[2 * k + 2]
        with pytest.raises(ValueError):
            profile.power(-1)


# -- the stored Gaussian-integer image -----------------------------------------------


def reference_gauss_jordan(a, b=None):
    """Gauss-Jordan on ExactScalar rows, pivoting in column order: the
    reduced echelon form of a (with b carried along) and the pivot columns.
    The reference for `inverse` and `rref`."""
    a = a.to_lists()
    b = b.to_lists() if b is not None else [[] for _ in a]
    pivots = []
    for col in range(len(a[0])):
        row = len(pivots)
        found = next((r for r in range(row, len(a)) if not a[r][col].is_zero()), None)
        if found is None:
            continue
        a[row], a[found], b[row], b[found] = a[found], a[row], b[found], b[row]
        pivot = a[row][col]
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
    return ExactMatrix.from_rows(a), ExactMatrix.from_rows(b) if b[0] else None, tuple(pivots)


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
def test_inverse_and_rref_match_the_scalar_elimination(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(_small_matrices(n, data.draw(st.integers(1, 4))))
    reduced, _, pivots = reference_gauss_jordan(m)
    assert rref(m)[1] == pivots
    assert_same_value(rref(m)[0], reduced)
    square = data.draw(_small_matrices(n, n))
    if rank(square) < n:
        with pytest.raises(ZeroDivisionError):
            inverse(square)
    else:
        _, inv, _ = reference_gauss_jordan(square, ExactMatrix.identity(n))
        assert_same_value(inverse(square), inv)


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
    rank(m), det(m), rref(m), char_poly_coeffs(m), m @ m, m.power(3)
    if rank(m) == 3:
        inverse(m)
    next(islice(power_products(m, m), 1, None))
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
