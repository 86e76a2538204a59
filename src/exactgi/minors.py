"""Index-subset enumeration, the three minor-sum primitives, and the
generalized-adjugate kernel every Cramer formula runs on.

Everything downstream (generalized inverses, Cramer-style solvers, matrix
equations, the differential-equation coefficients) reduces to three sums of
r-by-r principal minors of some square matrix M:

* the plain principal-minor sum over all r-subsets,
* the same sum restricted to subsets containing a fixed column index i,
  with column i of M replaced by a given vector,
* the row dual (subsets containing a fixed row index j, row j replaced).

The three primitives evaluate these sums literally, one determinant per
subset, and serve as the paper-literal oracle.  Minor determinants run over
Gaussian integers after clearing denominators once per call.  Subsets stream
in lexicographic order, so profiling runs are deterministic; the sums
themselves are order-independent.

The library's operations instead call `adjugate_product`.  By Laplace
expansion along the replaced line, the replaced sums are the entries of
L_r(M) v and v L_r(M), where L_r(M) is the sum over all r-subsets S of
adj(M_S) embedded at the rows and columns S.  The kernel never enumerates
those subsets.  For r < n it runs the trace (Faddeev-LeVerrier) recurrence
of `matrix._trace_recurrence` on the Gaussian-integer image,

    B_0 = I,  c_k = -tr(M B_(k-1)) / k,  B_k = M B_(k-1) + c_k I,

and reads L_r = (-1)^(r-1) B_(r-1) and d_r = (-1)^r c_r (Decell, SIAM
Rev. 7, 1965): r - 2 integer products, each division by k exact because a
Gaussian-integer matrix has Gaussian-integer characteristic coefficients.
At r = n the one subset is M itself.  A nonsingular M takes adj(M) and
det(M) from `matrix.int_adjugate`, the fraction-free Gauss-Jordan
elimination that also serves `inverse`, which is cheaper than running the
recurrence to its end.  A singular M runs the recurrence to B_(n-1), a
nonzero adj(M) at rank n - 1 and zero below; no rule reaches that case,
since each runs at r = rank of its base.

A work guard protects against the intrinsic C(n, r) blow-up of the
enumeration: any call whose estimated cost exceeds the budget fails fast
with BudgetExceededError instead of grinding for hours.  The primitives
count "submatrix entries touched", (number of minors) * r^2.  The kernel
counts entry updates (`kernel_work`): C(n, r) * 2r^3, the cost of
eliminating every r-by-2r block [M_S | I] on its own, plus n^2 * s for the
contraction with s replacement vectors.  That is what the enumeration would
cost, and an upper bound of the kernel's own work: the recurrence makes
(r - 2) n^3 + 2n^2 multiply-adds for 1 < r < n (n^2 at r = 1), and the
elimination about 2n^3 at r = n.  The bound is loose by a factor that
grows like C(n, r), so the guard also refuses inputs the kernel itself
would finish quickly.  It does not bound the recurrence on a singular base
at r = n, which no rule runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .matrix import (
    ExactMatrix,
    _from_int,
    _over,
    _trace_recurrence,
    clear_denominators,
    int_adjugate,
    int_det,
    int_matmul,
)
from .scalar import ONE, ExactScalar

DEFAULT_WORK_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an operation's estimated minor-sum work exceeds the budget.

    A refusal by `adjugate_product` also carries its breakdown: the base
    order n, the minor order r, the number s of replacement vectors and the
    number of r-subsets C(n, r).  These are None for the literal primitives.
    """

    def __init__(
        self,
        estimate: int,
        budget: int,
        n: int | None = None,
        r: int | None = None,
        s: int | None = None,
    ):
        self.estimate = estimate
        self.budget = budget
        self.n = n
        self.r = r
        self.s = s
        self.subsets = None if n is None else comb(n, r)
        detail = (
            ""
            if n is None
            else f" (n = {n}, r = {r}, s = {s}: C(n, r) = {self.subsets} subsets)"
        )
        super().__init__(
            f"estimated work of {estimate} entry operations{detail} exceeds the "
            f"work budget of {budget}; raise the budget to run anyway"
        )


def check_budget(estimate: int, budget: int | None, **breakdown: int) -> None:
    limit = DEFAULT_WORK_BUDGET if budget is None else budget
    if estimate > limit:
        raise BudgetExceededError(estimate, limit, **breakdown)


@dataclass(frozen=True)
class IndexSubset:
    """A strictly increasing tuple of 1-based indices drawn from 1..universe."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        if any(not 1 <= v <= self.universe for v in self.indices):
            raise ValueError(f"indices {self.indices} outside 1..{self.universe}")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices {self.indices} are not strictly increasing")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, value: int) -> bool:
        return value in self.indices


def subset_count(k: int, n: int, required: int | None = None) -> int:
    """C(n, k), or C(n-1, k-1) when one index is pinned."""
    if required is None:
        return comb(n, k)
    return comb(n - 1, k - 1) if k >= 1 else 0


def enumerate_subsets(
    k: int, n: int, required: int | None = None
) -> Iterator[IndexSubset]:
    """All k-subsets of 1..n in lexicographic order, optionally restricted to
    subsets containing `required`."""
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} outside 0..{n}")
    if required is not None and not 1 <= required <= n:
        raise ValueError(f"required index {required} outside 1..{n}")
    if required is None:
        for combo in combinations(range(1, n + 1), k):
            yield IndexSubset(combo, n)
        return
    if k == 0:
        return  # no 0-subset contains a required index
    rest = [v for v in range(1, n + 1) if v != required]
    for combo in combinations(rest, k - 1):
        merged = tuple(sorted((*combo, required)))
        yield IndexSubset(merged, n)


# -- internal evaluation over Gaussian integers --------------------------------


def _sum_minors(
    re_rows: list[list[int]],
    im_rows: list[list[int]],
    q: int,
    r: int,
    required: int | None,
) -> ExactScalar:
    n = len(re_rows)
    total_re = 0
    total_im = 0
    for subset in enumerate_subsets(r, n, required):
        idx = [v - 1 for v in subset.indices]
        sub_re = [[re_rows[a][b] for b in idx] for a in idx]
        sub_im = [[im_rows[a][b] for b in idx] for a in idx]
        dr, di = int_det(sub_re, sub_im)
        total_re += dr
        total_im += di
    scale = Fraction(1, q) ** r
    return ExactScalar(total_re * scale, total_im * scale)


def _as_vector(values: Sequence[ExactScalar] | ExactMatrix, n: int, what: str):
    if isinstance(values, ExactMatrix):
        if values.cols == 1:
            values = values.col(1)
        elif values.rows == 1:
            values = values.row(1)
        else:
            raise ValueError(f"{what} must be a vector, got {values.shape}")
    if len(values) != n:
        raise ValueError(f"{what} has length {len(values)}, expected {n}")
    return list(values)


# -- the three primitives -------------------------------------------------------


def principal_minor_sum(
    matrix: ExactMatrix, r: int, budget: int | None = None
) -> ExactScalar:
    """Sum of all r-by-r principal minors; 1 for r = 0."""
    if not matrix.is_square:
        raise ValueError("principal minors need a square matrix")
    n = matrix.rows
    if not 0 <= r <= n:
        raise ValueError(f"minor order {r} outside 0..{n}")
    if r == 0:
        return ONE
    check_budget(subset_count(r, n) * r * r, budget)
    re_rows, im_rows, q = clear_denominators(matrix)
    return _sum_minors(re_rows, im_rows, q, r, None)


def replaced_col_minor_sum(
    matrix: ExactMatrix,
    i: int,
    vector: Sequence[ExactScalar] | ExactMatrix,
    r: int,
    budget: int | None = None,
) -> ExactScalar:
    """Sum over all r-subsets containing column i of the principal minors of
    M with column i replaced by the vector."""
    if not matrix.is_square:
        raise ValueError("replaced minor sums need a square matrix")
    n = matrix.rows
    if not 1 <= i <= n:
        raise ValueError(f"column index {i} outside 1..{n}")
    if not 1 <= r <= n:
        raise ValueError(f"minor order {r} outside 1..{n}")
    column = _as_vector(vector, n, "replacement column")
    check_budget(subset_count(r, n, i) * r * r, budget)
    replaced = matrix.replace_col(i, column)
    re_rows, im_rows, q = clear_denominators(replaced)
    return _sum_minors(re_rows, im_rows, q, r, i)


def replaced_row_minor_sum(
    matrix: ExactMatrix,
    j: int,
    vector: Sequence[ExactScalar] | ExactMatrix,
    r: int,
    budget: int | None = None,
) -> ExactScalar:
    """Row dual: sum over all r-subsets containing row j of the principal
    minors of M with row j replaced by the vector."""
    if not matrix.is_square:
        raise ValueError("replaced minor sums need a square matrix")
    n = matrix.rows
    if not 1 <= j <= n:
        raise ValueError(f"row index {j} outside 1..{n}")
    if not 1 <= r <= n:
        raise ValueError(f"minor order {r} outside 1..{n}")
    row = _as_vector(vector, n, "replacement row")
    check_budget(subset_count(r, n, j) * r * r, budget)
    replaced = matrix.replace_row(j, row)
    re_rows, im_rows, q = clear_denominators(replaced)
    return _sum_minors(re_rows, im_rows, q, r, j)


# -- the generalized-adjugate kernel --------------------------------------------


def kernel_work(n: int, r: int, s: int) -> int:
    """Entry updates of `adjugate_product` on an n-by-n base at order r with
    s replacement vectors."""
    return comb(n, r) * 2 * r**3 + n * n * s


def _adjugate_sum(re_rows, im_rows, r):
    """L_r (sum over the r-subsets S of adj(M_S) embedded at S) and d_r (sum
    of det(M_S)) of a Gaussian-integer matrix: adj(M) and det(M) at r = n
    when M is nonsingular, otherwise L_r = (-1)^(r-1) B_(r-1) and
    d_r = (-1)^r c_r of the trace recurrence (L_1 = B_0 = I, d_1 = -c_1 the
    trace)."""
    if r == len(re_rows):
        adjugate = int_adjugate(re_rows, im_rows)
        if adjugate is not None:
            return adjugate
    (b_re, b_im), coeffs = _trace_recurrence(re_rows, im_rows, r)
    cr, ci = coeffs[-1]
    if r % 2:
        return b_re, b_im, -cr, -ci
    return [[-x for x in row] for row in b_re], [[-x for x in row] for row in b_im], cr, ci


def _kernel(base, r, vectors, side, budget):
    """N_int, d_int and the denominators q of the base and q_V of the
    vectors: N = N_int / (q^(r-1) q_V), d_r = d_int / q^r."""
    if not base.is_square:
        raise ValueError("the adjugate kernel needs a square base")
    n = base.rows
    if not 1 <= r <= n:
        raise ValueError(f"minor order {r} outside 1..{n}")
    if side not in ("column", "row"):
        raise ValueError(f"unknown side {side!r}")
    inner, s, what = ((vectors.rows, vectors.cols, "rows") if side == "column"
                      else (vectors.cols, vectors.rows, "columns"))
    if inner != n:
        raise ValueError(f"replacement block has {inner} {what}, expected {n}")
    check_budget(kernel_work(n, r, s), budget, n=n, r=r, s=s)
    re_rows, im_rows, q = clear_denominators(base)
    l_re, l_im, d_re, d_im = _adjugate_sum(re_rows, im_rows, r)
    v_re, v_im, qv = clear_denominators(vectors)
    if side == "column":
        n_re, n_im = int_matmul(l_re, l_im, v_re, v_im)
    else:
        n_re, n_im = int_matmul(v_re, v_im, l_re, l_im)
    return n_re, n_im, d_re, d_im, q, qv


def adjugate_product(
    base: ExactMatrix,
    r: int,
    vectors: ExactMatrix,
    side: str,
    budget: int | None = None,
) -> tuple[ExactMatrix, ExactScalar]:
    """The undivided Cramer product and its denominator over one base.

    Returns (N, d_r) with d_r the order-r principal-minor sum of the base and
    N = L_r(base) @ vectors on the "column" side, vectors @ L_r(base) on the
    "row" side, so N[i][j] is replaced_col_minor_sum(base, i, vectors.col(j),
    r) or replaced_row_minor_sum(base, j, vectors.row(i), r).  Callers divide
    by d_r.
    """
    n_re, n_im, d_re, d_im, q, qv = _kernel(base, r, vectors, side, budget)
    # base = M_int / q, so adj(M_S) = adj(M_int_S) / q^(r-1), det / q^r
    product = _from_int(n_re, n_im, q ** (r - 1) * qv)
    return product, ExactScalar(Fraction(d_re, q**r), Fraction(d_im, q**r))


def cramer_ratio(
    base: ExactMatrix,
    r: int,
    vectors: ExactMatrix,
    side: str,
    budget: int | None = None,
) -> tuple[ExactMatrix, ExactScalar]:
    """The Cramer solution N / d_r over one base, and d_r (see
    `adjugate_product`)."""
    n_re, n_im, d_re, d_im, q, qv = _kernel(base, r, vectors, side, budget)
    if not (d_re or d_im):
        raise ZeroDivisionError("division by zero scalar")
    # N / d_r = N_int q / (q_V d_int), divided once per entry
    d = ExactScalar(Fraction(d_re, q**r), Fraction(d_im, q**r))
    return _over(n_re, n_im, d_re, d_im, q, qv), d
