"""The generalized-adjugate kernel every Cramer formula runs on, and the
work guard.

Every operation reduces to sums of r-by-r principal minors of a square base
M: d_r, the plain sum, and the sums over the r-subsets containing column i
(row j) of M with that line replaced by a vector.  `oracles` takes them
literally, one determinant per subset; the operations call `cramer_ratio`
only, through `inverses._CramerRule`.  `adjugate_product` returns the same
kernel's undivided product and d_r, so that the tests can check L_r(M) V
against enumeration at every order, d_r = 0 included, where no ratio
exists.  By Laplace expansion along the replaced line, the replaced sums
are the entries of L_r(M) v and v L_r(M), where L_r(M) is the sum over all
r-subsets S of adj(M_S) embedded at the rows and columns S.  The kernel
never enumerates those subsets.  Order 1 is read in closed form: L_1 = I
and d_1 = tr M, so N is the replacement block itself, with no recurrence
and no product.  For 1 < r < n it runs the trace (Faddeev-LeVerrier)
recurrence of `matrix._trace_recurrence` on the Gaussian-integer image,

    B_0 = I,  c_k = -tr(M B_(k-1)) / k,  B_k = M B_(k-1) + c_k I,

and reads L_r = (-1)^(r-1) B_(r-1) and d_r = (-1)^r c_r (Decell, SIAM
Rev. 7, 1965): r - 2 integer products by M, through the packs the base
keeps as a right factor, each division by k exact because a
Gaussian-integer matrix has Gaussian-integer characteristic coefficients.
No L_r or d_r is kept: each call runs the recurrence for its own block.
At r = n a nonsingular M takes adj(M) and det(M) from `matrix.int_adjugate`,
the Gauss-Jordan elimination behind `inverse`.  A singular M runs the
recurrence to its end; no rule reaches that case, since each runs at
r = rank of its base.

The work guard fails fast with BudgetExceededError when a call's estimate
exceeds the budget.  The kernel counts entry updates (`kernel_work`):
C(n, r) * 2r^3, what eliminating every r-by-2r block [M_S | I] on its own
would cost, plus n^2 * s for the contraction with s replacement vectors.
That bounds the kernel's own work, (r - 2) n^3 + 2n^2 multiply-adds for
1 < r < n and about 2n^3 at r = n, loosely: by a factor that grows like
C(n, r), so the guard also refuses inputs the kernel would finish quickly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .matrix import (
    ExactMatrix,
    _from_int,
    _over,
    _packing_of,
    _trace_recurrence,
    clear_denominators,
    int_adjugate,
    int_matmul,
)
from .scalar import ExactScalar

DEFAULT_WORK_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """Raised when an operation's estimated minor-sum work exceeds the budget.

    A refusal by the kernel (`cramer_ratio`, the one the operations call,
    or `adjugate_product`) also carries its breakdown: the base order n, the
    minor order r, the number s of replacement vectors and the number of
    r-subsets C(n, r).  These are None for the enumeration primitives of
    `oracles`.
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


# -- the generalized-adjugate kernel --------------------------------------------


def kernel_work(n: int, r: int, s: int) -> int:
    """Entry updates of the kernel on an n-by-n base at order r with s
    replacement vectors."""
    return comb(n, r) * 2 * r**3 + n * n * s


def _adjugate_sum(base, r):
    """L_r (sum over the r-subsets S of adj(M_S) embedded at S) and d_r (sum
    of det(M_S)) of the Gaussian-integer image M of the base, r >= 2:
    adj(M) and det(M) at r = n when M is nonsingular, otherwise
    L_r = (-1)^(r-1) B_(r-1) and d_r = (-1)^r c_r of the trace recurrence,
    which multiplies by M through the packs the base keeps."""
    re_rows, im_rows, _ = clear_denominators(base)
    if r == len(re_rows):
        adjugate = int_adjugate(re_rows, im_rows)
        if adjugate is not None:
            return adjugate
    (b_re, b_im), coeffs = _trace_recurrence(re_rows, im_rows, r, _packing_of(base))
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
    v_re, v_im, qv = clear_denominators(vectors)
    if r == 1:
        # L_1 = I and d_1 = tr M: N is the block itself
        return (v_re, v_im, sum(row[i] for i, row in enumerate(re_rows)),
                sum(row[i] for i, row in enumerate(im_rows)), q, qv)
    l_re, l_im, d_re, d_im = _adjugate_sum(base, r)
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
    # N / d_r = N_int q / (q_V d_int), divided once per entry
    d = ExactScalar(Fraction(d_re, q**r), Fraction(d_im, q**r))
    return _over(n_re, n_im, d_re, d_im, q, qv), d
