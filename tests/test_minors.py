from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest
from hypothesis import given
from hypothesis import settings
from hypothesis import strategies as st

from exactgi import (
    BudgetExceededError,
    ExactMatrix,
    IndexSubset,
    char_poly_coeffs,
    drazin_inverse,
    drazin_inverse_oracle,
    enumerate_subsets,
    mp_inverse,
    mp_inverse_oracle,
    principal_minor_sum,
    rank,
    replaced_col_minor_sum,
    replaced_row_minor_sum,
    subset_count,
)
import exactgi.matrix
import exactgi.minors
from exactgi.matrix import _from_int, _trace_recurrence, clear_denominators
from exactgi.minors import adjugate_product, cramer_ratio, kernel_work
from exactgi.scalar import ExactScalar

from cases import AXB_LS_A, AXB_LS_B, AXB_LS_D, DZ_A, mat, sc
from conftest import rand_index_matrix, rand_low_rank, rand_matrix


def perm_expansion_det(matrix: ExactMatrix) -> ExactScalar:
    """Brute-force determinant by signed permutation expansion; the oracle
    shares no code with the elimination path."""
    n = matrix.rows
    total = sc(0)
    for perm in permutations(range(1, n + 1)):
        sign = 1
        seen = [False] * (n + 1)
        for start in range(1, n + 1):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j - 1]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sc(sign)
        for i in range(1, n + 1):
            term = term * matrix.entry(i, perm[i - 1])
        total = total + term
    return total


def brute_principal_sum(matrix: ExactMatrix, r: int) -> ExactScalar:
    total = sc(0)
    for subset in enumerate_subsets(r, matrix.rows):
        sub = ExactMatrix.from_rows(
            [[matrix.entry(a, b) for b in subset] for a in subset]
        )
        total = total + perm_expansion_det(sub)
    return total


def brute_replaced_col_sum(matrix, i, vector, r):
    replaced = matrix.replace_col(i, list(vector))
    total = sc(0)
    for subset in enumerate_subsets(r, matrix.rows, required=i):
        sub = ExactMatrix.from_rows(
            [[replaced.entry(a, b) for b in subset] for a in subset]
        )
        total = total + perm_expansion_det(sub)
    return total


# -- enumeration ---------------------------------------------------------------


def test_enumerate_basic():
    got = [s.indices for s in enumerate_subsets(2, 3)]
    assert got == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_required():
    got = [s.indices for s in enumerate_subsets(2, 3, required=2)]
    assert got == [(1, 2), (2, 3)]


def test_enumerate_counts():
    assert len(list(enumerate_subsets(3, 6, required=4))) == comb(5, 2)
    assert subset_count(3, 6, required=4) == 10


@given(st.integers(0, 7), st.integers(1, 7), st.integers(1, 7))
def test_enumerate_matches_filter_and_is_sorted(k, n, req):
    if k > n or req > n:
        return
    got = [s.indices for s in enumerate_subsets(k, n, required=req)]
    expected = [
        s.indices for s in enumerate_subsets(k, n) if req in s.indices
    ]
    assert got == expected  # lexicographic by construction of the filter
    assert len(got) == subset_count(k, n, req)


def test_enumerate_validation():
    with pytest.raises(ValueError):
        list(enumerate_subsets(4, 3))
    with pytest.raises(ValueError):
        list(enumerate_subsets(-1, 3))
    with pytest.raises(ValueError):
        list(enumerate_subsets(1, 3, required=4))


def test_zero_size_subsets():
    assert [s.indices for s in enumerate_subsets(0, 3)] == [()]
    assert list(enumerate_subsets(0, 3, required=1)) == []


def test_index_subset_invariants():
    with pytest.raises(ValueError):
        IndexSubset((2, 1), 3)
    with pytest.raises(ValueError):
        IndexSubset((1, 4), 3)
    s = IndexSubset((1, 3), 4)
    assert 3 in s and 2 not in s and len(s) == 2


# -- principal minor sums --------------------------------------------------------


def test_principal_sum_identity_binomials():
    for n in range(1, 6):
        for r in range(n + 1):
            assert principal_minor_sum(ExactMatrix.identity(n), r) == sc(comb(n, r))


def test_principal_sum_known_values():
    from cases import AXB_DZ_B

    assert principal_minor_sum(DZ_A.power(3), 2) == sc(8)
    assert principal_minor_sum(AXB_DZ_B.power(2), 2) == sc(0, -18)


def test_principal_sum_r0_is_one(rng):
    m = rand_matrix(rng, 3, 3)
    assert principal_minor_sum(m, 0) == sc(1)


def test_principal_sum_matches_brute_force(rng):
    for _ in range(8):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        for r in range(1, n + 1):
            assert principal_minor_sum(m, r) == brute_principal_sum(m, r)


def test_principal_sum_matches_char_poly(rng):
    for _ in range(8):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n)
        coeffs = char_poly_coeffs(m)
        for r in range(1, n + 1):
            assert principal_minor_sum(m, r) == coeffs[r - 1]


def test_principal_sum_validation():
    with pytest.raises(ValueError):
        principal_minor_sum(mat([[1, 2], [3, 4]]), 3)
    with pytest.raises(ValueError):
        principal_minor_sum(mat([[1, 2, 3], [4, 5, 6]]), 1)


# -- replaced column sums ----------------------------------------------------------


def test_replaced_col_known_value():
    # order-2 column-replaced sum that feeds the index-2 inverse's (1,1) entry
    cube = DZ_A.power(3)
    square = DZ_A.power(2)
    assert replaced_col_minor_sum(cube, 1, square.col(1), 2) == sc(4)


def test_replaced_col_identity_unit_vector():
    for n in (3, 4):
        for r in range(1, n + 1):
            for i in (1, n):
                e_i = [sc(int(j == i)) for j in range(1, n + 1)]
                assert replaced_col_minor_sum(
                    ExactMatrix.identity(n), i, e_i, r
                ) == sc(comb(n - 1, r - 1))


def test_replaced_col_matches_brute_force(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        m = rand_matrix(rng, n, n)
        v = [c for c in rand_matrix(rng, n, 1).col(1)]
        for r in (1, 2, min(n, 3)):
            i = rng.randint(1, n)
            assert replaced_col_minor_sum(m, i, v, r) == brute_replaced_col_sum(
                m, i, v, r
            )


def test_replaced_col_linearity(rng):
    n = 4
    m = rand_matrix(rng, n, n)
    u = rand_matrix(rng, n, 1)
    w = rand_matrix(rng, n, 1)
    alpha, beta = sc(2, 1), sc(-1, 3)
    combo = [alpha * a + beta * b for a, b in zip(u.col(1), w.col(1))]
    for r in (1, 2, 3):
        lhs = replaced_col_minor_sum(m, 2, combo, r)
        rhs = alpha * replaced_col_minor_sum(m, 2, u, r) + beta * replaced_col_minor_sum(
            m, 2, w, r
        )
        assert lhs == rhs


def test_replaced_col_self_replacement(rng):
    # Putting column i back yields the sum of principal minors through i.
    for _ in range(5):
        n = rng.randint(2, 4)
        m = rand_matrix(rng, n, n)
        i = rng.randint(1, n)
        for r in (1, 2):
            direct = sc(0)
            for subset in enumerate_subsets(r, n, required=i):
                sub = ExactMatrix.from_rows(
                    [[m.entry(a, b) for b in subset] for a in subset]
                )
                direct = direct + perm_expansion_det(sub)
            assert replaced_col_minor_sum(m, i, m.col(i), r) == direct


def test_replaced_col_validation(rng):
    m = rand_matrix(rng, 3, 3)
    v = [sc(1)] * 3
    with pytest.raises(ValueError):
        replaced_col_minor_sum(m, 1, v, 0)  # r = 0 family is empty
    with pytest.raises(ValueError):
        replaced_col_minor_sum(m, 0, v, 1)
    with pytest.raises(ValueError):
        replaced_col_minor_sum(m, 1, [sc(1)] * 2, 1)
    with pytest.raises(ValueError):
        replaced_col_minor_sum(rand_matrix(rng, 2, 3), 1, v, 1)


# -- replaced row sums ---------------------------------------------------------------


def test_replaced_row_known_value():
    gram_b = AXB_LS_B @ AXB_LS_B.conj_transpose()
    d_tilde = (
        AXB_LS_A.conj_transpose() @ AXB_LS_D @ AXB_LS_B.conj_transpose()
    )
    assert replaced_row_minor_sum(gram_b, 1, d_tilde.row(1), 1) == sc(1)


def test_replaced_row_identity_unit_vector():
    n = 4
    for r in range(1, n + 1):
        e_2 = [sc(int(j == 2)) for j in range(1, n + 1)]
        assert replaced_row_minor_sum(ExactMatrix.identity(n), 2, e_2, r) == sc(
            comb(n - 1, r - 1)
        )


def test_replaced_row_is_transpose_of_replaced_col(rng):
    for _ in range(6):
        n = rng.randint(2, 4)
        m = rand_matrix(rng, n, n)
        v = rand_matrix(rng, 1, n)
        j = rng.randint(1, n)
        for r in (1, 2):
            assert replaced_row_minor_sum(m, j, v, r) == replaced_col_minor_sum(
                m.transpose(), j, list(v.row(1)), r
            )


# -- work guard -------------------------------------------------------------------


def test_budget_guard_fails_fast():
    big = ExactMatrix.identity(26)
    with pytest.raises(BudgetExceededError) as err:
        principal_minor_sum(big, 13)
    assert err.value.estimate > err.value.budget
    with pytest.raises(BudgetExceededError):
        replaced_col_minor_sum(big, 1, [sc(1)] * 26, 13)


def test_budget_override_allows_and_restricts():
    m = ExactMatrix.identity(4)
    assert principal_minor_sum(m, 2, budget=10**9) == sc(6)
    with pytest.raises(BudgetExceededError):
        principal_minor_sum(m, 2, budget=3)


# -- the adjugate kernel against the enumeration oracle ----------------------------


def small_unit_matrix(rng, rows, cols):
    """Entries in {0, +-1} + {0, +-1}i: many principal submatrices are
    singular."""
    return ExactMatrix.from_rows(
        [[sc(rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))) for _ in range(cols)]
         for _ in range(rows)]
    )


def rational_matrix(rng, rows, cols):
    """Entries over several distinct denominators."""
    def part():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 7)))

    return ExactMatrix.from_rows(
        [[sc(part(), part()) for _ in range(cols)] for _ in range(rows)]
    )


def assert_kernel_matches_enumeration(m, vectors_col, vectors_row):
    n = m.rows
    for r in range(1, n + 1):
        d = principal_minor_sum(m, r)
        product, got_d = adjugate_product(m, r, vectors_col, "column")
        assert got_d == d
        for i in range(1, n + 1):
            for j in range(1, vectors_col.cols + 1):
                assert product.entry(i, j) == replaced_col_minor_sum(
                    m, i, vectors_col.col(j), r
                )
        product, got_d = adjugate_product(m, r, vectors_row, "row")
        assert got_d == d
        for i in range(1, vectors_row.rows + 1):
            for j in range(1, n + 1):
                assert product.entry(i, j) == replaced_row_minor_sum(
                    m, j, vectors_row.row(i), r
                )
        if not d.is_zero():
            ratio, _ = cramer_ratio(m, r, vectors_col, "column")
            assert ratio.entry(1, 1) == replaced_col_minor_sum(
                m, 1, vectors_col.col(1), r
            ) / d


def test_kernel_matches_enumeration_small_entries(rng):
    for _ in range(12):
        n = rng.randint(1, 6)
        s = rng.randint(1, 3)
        m = small_unit_matrix(rng, n, n)
        if rng.random() < 0.5:  # low rank: singular subsets at every order
            k = rng.randint(1, n)
            m = small_unit_matrix(rng, n, k) @ small_unit_matrix(rng, k, n)
        assert_kernel_matches_enumeration(
            m, small_unit_matrix(rng, n, s), small_unit_matrix(rng, s, n)
        )


def test_kernel_matches_enumeration_rational_entries(rng):
    for _ in range(8):
        n = rng.randint(1, 6)
        s = rng.randint(1, 3)
        assert_kernel_matches_enumeration(
            rational_matrix(rng, n, n), rational_matrix(rng, n, s),
            rational_matrix(rng, s, n),
        )


def test_kernel_singular_full_order(rng):
    # r = n: the single subset is the whole matrix.  Rank n-1 leaves a
    # nonzero adjugate; rank n-2 or less makes it vanish.
    for n, k in ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (4, 2), (5, 1)):
        if k:
            m = rational_matrix(rng, n, k) @ rational_matrix(rng, k, n)
        else:
            m = ExactMatrix.zeros(n, n)
        assert_kernel_matches_enumeration(
            m, rational_matrix(rng, n, 2), rational_matrix(rng, 2, n)
        )


def test_kernel_validation(rng):
    m = rand_matrix(rng, 3, 3)
    with pytest.raises(ValueError):
        adjugate_product(m, 0, rand_matrix(rng, 3, 1), "column")
    with pytest.raises(ValueError):
        adjugate_product(m, 2, rand_matrix(rng, 2, 1), "column")
    with pytest.raises(ValueError):
        adjugate_product(m, 2, rand_matrix(rng, 3, 1), "row")
    with pytest.raises(ValueError):
        adjugate_product(m, 2, rand_matrix(rng, 3, 1), "diagonal")


def test_kernel_work_guard_estimate():
    a = ExactMatrix.from_rows(
        [[1, 0, 2, 1], [0, 1, 1, 1], [1, 1, 3, 2], [2, 0, 4, 2], [0, 2, 2, 2]]
    )
    m, n = a.shape
    r = 2
    with pytest.raises(BudgetExceededError) as err:
        mp_inverse(a, budget=1)
    assert err.value.estimate == comb(n, r) * 2 * r**3 + n * n * m
    assert err.value.budget == 1
    assert (err.value.n, err.value.r, err.value.s) == (n, r, m)
    assert err.value.subsets == comb(n, r)
    assert f"n = {n}, r = {r}, s = {m}: C(n, r) = {comb(n, r)} subsets" in str(err.value)


# -- structured bases: zero pivots, rank-deficient blocks, large orders ---------------
#
# Zero diagonal entries and zero leading minors make the r = n elimination
# swap rows, and leave many principal blocks singular at every order r.


def zero_diagonal_blocks(rng, n):
    """Permutation-similar blocks: a conjugated direct sum of 2x2 and 3x3
    blocks with zero diagonal and nonzero off-diagonal entries."""
    rows = [[sc(0)] * n for _ in range(n)]
    start = 0
    while start < n:
        size = min(rng.choice((2, 3)), n - start)
        for i in range(size):
            for j in range(size):
                if i != j:
                    rows[start + i][start + j] = sc(rng.choice((-2, -1, 1, 2)),
                                                    rng.choice((-1, 0, 1)))
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return ExactMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(n)]
                                  for i in range(n)])


def with_zero_lines(rng, m):
    """m with some rows, some columns, or both lines of an index set to zero."""
    rows = m.to_lists()
    n = m.rows
    for z in rng.sample(range(n), rng.randint(1, max(1, n // 2))):
        lines = rng.choice(("row", "column", "both"))
        if lines != "column":
            rows[z] = [sc(0)] * n
        if lines != "row":
            for row in rows:
                row[z] = sc(0)
    return ExactMatrix.from_rows(rows)


def with_repeated_columns(rng, m):
    rows = m.to_lists()
    for j in range(1, m.cols):
        if rng.random() < 0.6:
            src = rng.randrange(j)
            for row in rows:
                row[j] = row[src]
    return ExactMatrix.from_rows(rows)


def test_kernel_zero_diagonal_blocks(rng):
    for n in (2, 3, 4, 5, 6):
        m = zero_diagonal_blocks(rng, n)
        assert_kernel_matches_enumeration(
            m, small_unit_matrix(rng, n, 2), small_unit_matrix(rng, 2, n)
        )


def test_kernel_zero_lines_and_repeated_columns(rng):
    for _ in range(6):
        n = rng.randint(2, 6)
        for m in (with_zero_lines(rng, rational_matrix(rng, n, n)),
                  with_repeated_columns(rng, small_unit_matrix(rng, n, n))):
            assert_kernel_matches_enumeration(
                m, rational_matrix(rng, n, 2), rational_matrix(rng, 2, n)
            )


def test_kernel_core_plus_nilpotent_bases(rng):
    # A^(k+1) of a core-plus-nilpotent matrix, the Drazin base, at every
    # order r, not only at the core rank
    for n, core, index in ((5, 2, 3), (6, 3, 2), (7, 3, 3), (6, 1, 4)):
        a = rand_index_matrix(rng, n, core, index)
        base = a.power(index + 1)
        assert_kernel_matches_enumeration(
            base, rand_matrix(rng, n, 1), rand_matrix(rng, 1, n)
        )


def test_kernel_rank_deficient_blocks_behind_zero_pivots():
    # the (1,1) entry is 0; the principal block {1, 2, 3} has rank 2, so its
    # adjugate is nonzero
    m = mat([[0, 1, 1, 2, 1], [1, 0, 1, -1, 0], [1, 1, 2, 0, 1],
             [1, 0, 2, 1, -1], [0, 1, 1, 1, 2]])
    block = mat([[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    assert rank(block) == 2
    assert not adjugate_product(block, 3, ExactMatrix.identity(3), "column")[0].is_zero()
    # the (1,1) entry is nonzero but the leading 2x2 minor is 0; column 4 =
    # column 1 + column 3 makes {1, 2, 3, 4} rank 3
    rows = [[1, 1, 2, 0, 1, 1], [1, 1, 0, 1, 1, 0], [0, 1, 1, 2, 0, 1],
            [2, 0, 1, 1, 1, 1], [1, 2, 0, 1, 1, 1], [0, 1, 1, 0, 2, 1]]
    for row in rows:
        row[3] = row[0] + row[2]
    deep = mat(rows)
    assert rank(mat([row[:4] for row in rows[:4]])) == 3
    for base in (m, deep):
        n = base.rows
        assert_kernel_matches_enumeration(
            base, mat([[i + 1, 1 - i] for i in range(n)]), mat([list(range(1, n + 1))])
        )


def test_kernel_half_order_n7_to_n9(rng):
    # n = 7..9 at every order, r = n/2 among them, on unit entries and a
    # rank-5 product at n = 8
    for n in (7, 8, 9):
        m = small_unit_matrix(rng, n, n)
        if n == 8:
            m = small_unit_matrix(rng, n, 5) @ small_unit_matrix(rng, 5, n)
        assert_kernel_matches_enumeration(m, rand_matrix(rng, n, 1), rand_matrix(rng, 1, n))


def test_kernel_identity_40_at_order_39():
    # a large order: L_39(I_40) = 39 I and d_39 = C(40, 39) = 40
    n = 40
    m = ExactMatrix.identity(n)
    product, d = adjugate_product(m, n - 1, m, "column")
    assert d == sc(n)
    assert product == ExactMatrix.identity(n).scale(sc(n - 1))


structured = st.sampled_from(("plain", "zero_diagonal", "zero_lines", "repeated"))


@settings(deadline=None)
@given(st.integers(1, 5), structured, st.integers(0, 2**32 - 1))
def test_kernel_structured_bases_match_enumeration_property(n, kind, seed):
    import random

    rng = random.Random(seed)
    m = small_unit_matrix(rng, n, n)
    if kind == "zero_diagonal":
        m = zero_diagonal_blocks(rng, n) if n > 1 else ExactMatrix.zeros(1, 1)
    elif kind == "zero_lines":
        m = with_zero_lines(rng, m)
    elif kind == "repeated":
        m = with_repeated_columns(rng, m)
    assert_kernel_matches_enumeration(
        m, small_unit_matrix(rng, n, 1), small_unit_matrix(rng, 1, n)
    )


def test_cramer_ratio_divides_exactly_and_refuses_zero_denominator(rng):
    for _ in range(4):
        n = rng.randint(2, 5)
        m, v = rational_matrix(rng, n, n), rational_matrix(rng, n, 2)
        for r in range(1, n + 1):
            product, d = adjugate_product(m, r, v, "column")
            if d.is_zero():
                continue
            ratio, got_d = cramer_ratio(m, r, v, "column")
            assert got_d == d
            assert ratio == product.scale(ExactScalar(1) / d)
    with pytest.raises(ZeroDivisionError):
        cramer_ratio(ExactMatrix.zeros(3, 3), 2, rational_matrix(rng, 3, 1), "column")


# d_r(A* D A) = det(D) det(A A*) for an r-by-n A of rank r, and det(A A*) > 0,
# so det(D) sets the kind of the divisor: each kind takes its own branch of
# the exact division (a real divisor of either sign, one with no real part,
# one with both parts and a content above 1)
_DIVISOR_KINDS = {
    "positive": (1, lambda d: d.im == 0 and d.re > 0),
    "negative": (-1, lambda d: d.im == 0 and d.re < 0),
    "imaginary": (sc(0, 1), lambda d: d.re == 0 and d.im != 0),
    "content": (sc(2, 2), lambda d: d.re != 0 and d.im != 0),
}


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from(sorted(_DIVISOR_KINDS)),
       st.sampled_from((1, F(1, 3), F(2, 5))), st.integers(0, 2**32 - 1))
def test_cramer_ratio_is_the_product_over_d_r_property(n, below, kind, scale, seed):
    # the ratio at order r = rank(base) against N / d_r entrywise by ExactScalar
    # division, on both sides; a rational scale puts a denominator on the base
    import random

    rng = random.Random(seed)
    r = max(1, n - below)
    while True:
        a = small_unit_matrix(rng, r, n)
        if rank(a) == r:
            break
    unit, is_kind = _DIVISOR_KINDS[kind]
    d_diag = ExactMatrix.from_rows([[unit if i == j == 0 else int(i == j) for j in range(r)]
                                    for i in range(r)])
    base = (a.conj_transpose() @ d_diag @ a).scale(scale)
    for side, vectors in (("column", rational_matrix(rng, n, 2)),
                          ("row", rational_matrix(rng, 2, n))):
        product, d = adjugate_product(base, r, vectors, side)
        assert is_kind(d)
        ratio, got_d = cramer_ratio(base, r, vectors, side)
        assert got_d == d
        assert ratio == ExactMatrix(product.rows, product.cols, [e / d for e in product.entries])


def test_order_one_rule_takes_no_recurrence_and_no_kernel_product(rng, monkeypatch):
    # L_1 = I and d_1 = tr M: a rank-one A gives A+ = A* / tr(A* A) with no
    # trace recurrence run and no product inside the kernel
    calls = []

    def counted(name, inner):
        def wrapper(*args):
            calls.append(name)
            return inner(*args)
        return wrapper

    monkeypatch.setattr(exactgi.minors, "int_matmul",
                        counted("int_matmul", exactgi.minors.int_matmul))
    monkeypatch.setattr(exactgi.minors, "_trace_recurrence",
                        counted("_trace_recurrence", exactgi.minors._trace_recurrence))
    for m, n in ((1, 1), (3, 1), (1, 4), (4, 5), (6, 6)):
        a = ExactMatrix.zeros(m, n)
        while rank(a) != 1:
            a = rand_low_rank(rng, m, n, 1).scale(sc(F(1, 2), 3))
        ah = a.conj_transpose()
        for form in ("column", "row"):
            report = mp_inverse(a, form=form)
            assert report.rank_used == 1
            assert report.inverse == ah.scale(ExactScalar(1) / (ah @ a).trace())
    assert calls == []


# -- the trace recurrence: polynomial cost where enumeration cannot finish ---------


def test_kernel_finishes_beyond_enumeration(rng):
    # C(24, 12) = 2.7M and C(16, 8) = 12870 subsets: the estimates are far
    # above the default budget, and the kernel still finishes in well under 1 s
    a = rand_low_rank(rng, 24, 24, 12)
    assert rank(a) == 12
    assert mp_inverse(a, budget=10**12).inverse == mp_inverse_oracle(a)
    d = rand_index_matrix(rng, 16, 8, 3)
    report = drazin_inverse(d, budget=10**12)
    assert (report.rank_used, report.index_used) == (8, 3)
    assert report.inverse == drazin_inverse_oracle(d)


def test_recurrence_takes_r_minus_2_products(rng, monkeypatch):
    # r - 2 products in the recurrence plus the contraction with the vectors
    calls = []
    product = exactgi.matrix.int_matmul

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(exactgi.minors, "int_matmul", counted)
    monkeypatch.setattr(exactgi.matrix, "int_matmul", counted)
    for n in (3, 5, 8):
        m = rational_matrix(rng, n, n)
        for r in range(2, n):
            for side, v in (("column", rational_matrix(rng, n, 2)),
                            ("row", rational_matrix(rng, 2, n))):
                calls.clear()
                adjugate_product(m, r, v, side)
                assert 1 <= len(calls) <= r - 1


def test_kernel_work_bounds_the_recurrence():
    # the guard's enumeration estimate stays an upper bound of the
    # recurrence's (r - 2) n^3 + 2n^2 multiply-adds plus the contraction
    for n in range(3, 65):
        for r in range(2, n):
            for s in (1, n):
                assert kernel_work(n, r, s) >= (r - 2) * n**3 + 2 * n * n + n * n * s


bases = st.sampled_from(("complex_rational", "nilpotent", "rank_deficient"))


@settings(deadline=None)
@given(st.integers(1, 6), bases, st.integers(0, 2**32 - 1))
def test_char_poly_matches_enumeration_property(n, kind, seed):
    # two independent algorithms for d_r: the trace recurrence and one
    # determinant per r-subset
    import random

    rng = random.Random(seed)
    if kind == "complex_rational":
        m = rational_matrix(rng, n, n)
    elif kind == "nilpotent":
        m = rand_index_matrix(rng, n, 0, rng.randint(1, n)).scale(sc(F(1, 3), F(1, 2)))
    else:
        m = rand_low_rank(rng, n, n, rng.randint(0, n - 1)) @ rational_matrix(rng, n, n)
    coeffs = char_poly_coeffs(m)
    assert len(coeffs) == n
    for r in range(1, n + 1):
        assert coeffs[r - 1] == principal_minor_sum(m, r)


@settings(deadline=None)
@given(st.integers(1, 10), st.booleans(), st.integers(0, 2**32 - 1))
def test_full_order_adjugate_matches_recurrence_property(n, zero_corner, seed):
    # two independent paths for adj(M) and det(M) of a nonsingular base, past
    # the n <= 6 that enumeration covers: the r = n elimination inside
    # adjugate_product, and the trace recurrence run to its end.  A zero
    # (1,1) entry makes the elimination swap rows.
    import random

    rng = random.Random(seed)
    while True:
        m = rational_matrix(rng, n, n)
        if zero_corner and n > 1:
            m = m.replace_row(1, [sc(0), *m.row(1)[1:]])
        d = char_poly_coeffs(m)[-1]
        if not d.is_zero():
            break
    re_rows, im_rows, q = clear_denominators(m)
    (b_re, b_im), _ = _trace_recurrence(re_rows, im_rows, n)
    sign = (-1) ** (n - 1)  # adj(M_int) = (-1)^(n-1) B_(n-1), adj(M) = that / q^(n-1)
    adj = _from_int([[sign * x for x in row] for row in b_re],
                    [[sign * x for x in row] for row in b_im], q ** (n - 1))
    eye = ExactMatrix.identity(n)
    for side in ("column", "row"):
        assert adjugate_product(m, n, eye, side) == (adj, d)
