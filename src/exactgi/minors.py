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
adj(M_S) embedded at the rows and columns S.  One fraction-free elimination
per subset gives adj(M_S) and det(M_S) at once, so a whole block of
replacement vectors costs C(n, r) eliminations instead of one
C(n-1, r-1)-determinant sum per output entry.

A work guard protects against the intrinsic C(n, r) blow-up: any call whose
estimated cost exceeds the budget fails fast with BudgetExceededError instead
of grinding for hours.  The primitives count "submatrix entries touched",
(number of minors) * r^2.  The kernel counts entry updates:
C(n, r) * 2r^3 for the eliminations of the r-by-2r blocks [M_S | I], plus
n^2 * s for the contraction with s replacement vectors (`kernel_work`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .matrix import ExactMatrix, _from_int, clear_denominators, int_det, int_matmul
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


def _subset_adjugate(
    re_rows: list[list[int]], im_rows: list[list[int]], idx: Sequence[int]
) -> tuple[tuple[int, int], list[list[int]] | None, list[list[int]] | None]:
    """det(M_S) and adj(M_S) of the principal submatrix on the 0-based
    indices idx, by fraction-free Gauss-Jordan elimination of [M_S | I] over
    Gaussian integers; the adjugate is None when it is zero.

    Every entry stays a minor of [M_S | I], so each division by the previous
    pivot is exact.  A column without a pivot is skipped.  With none skipped
    the block ends as [D I | T] with D = +-det and T = +-adj.  With one
    skipped, column c (rank r-1), adj(M_S) = sigma u w^T / D: u spans the
    kernel (read off column c), w^T = T[r-1] spans the left kernel and equals
    row c of adj up to the sign sigma.  With two skipped the adjugate is 0.
    """
    r = len(idx)
    ar = [[re_rows[a][b] for b in idx] + [int(a == b) for b in idx] for a in idx]
    ai = [[im_rows[a][b] for b in idx] + [0] * r for a in idx]
    pr, pi = 1, 0
    sign = 1
    free = None
    row = 0
    for col in range(r):
        pivot = next((s for s in range(row, r) if ar[s][col] or ai[s][col]), None)
        if pivot is None:
            if free is not None:
                return (0, 0), None, None
            free = col
            continue
        if pivot != row:
            ar[row], ar[pivot] = ar[pivot], ar[row]
            ai[row], ai[pivot] = ai[pivot], ai[row]
            sign = -sign
        kr, ki = ar[row][col], ai[row][col]
        yr, yi = ar[row], ai[row]
        norm = pr * pr + pi * pi
        for i in range(r):
            if i == row:
                continue
            xr, xi = ar[i], ai[i]
            mr, mi = xr[col], xi[col]
            if pi == 0:
                ar[i] = [(a * kr - b * ki - mr * c + mi * d) // pr
                         for a, b, c, d in zip(xr, xi, yr, yi)]
                ai[i] = [(a * ki + b * kr - mr * d - mi * c) // pr
                         for a, b, c, d in zip(xr, xi, yr, yi)]
                continue
            tr = [a * kr - b * ki - mr * c + mi * d for a, b, c, d in zip(xr, xi, yr, yi)]
            ti = [a * ki + b * kr - mr * d - mi * c for a, b, c, d in zip(xr, xi, yr, yi)]
            ar[i] = [(a * pr + b * pi) // norm for a, b in zip(tr, ti)]
            ai[i] = [(b * pr - a * pi) // norm for a, b in zip(tr, ti)]
        pr, pi = kr, ki
        row += 1
    if free is None:
        adj_r = [[sign * t for t in x[r:]] for x in ar]
        adj_i = [[sign * t for t in x[r:]] for x in ai]
        return (sign * pr, sign * pi), adj_r, adj_i
    # rank r-1: the last row is zero on the left, pr + i*pi is the last pivot
    ur = [-x[free] for x in ar[: r - 1]]
    ui = [-x[free] for x in ai[: r - 1]]
    pivots = [c for c in range(r) if c != free]
    kern_r = [0] * r
    kern_i = [0] * r
    for c, vr, vi in zip(pivots, ur, ui):
        kern_r[c], kern_i[c] = vr, vi
    kern_r[free], kern_i[free] = pr, pi
    sigma = sign * (-1) ** (r - 1 + free)
    wr = [sigma * t for t in ar[r - 1][r:]]
    wi = [sigma * t for t in ai[r - 1][r:]]
    norm = pr * pr + pi * pi
    adj_r: list[list[int]] = []
    adj_i: list[list[int]] = []
    for vr, vi in zip(kern_r, kern_i):
        # (v w_j) / (pr + i*pi) = (v w_j)(pr - i*pi) / norm, exact
        sr, si = vr * pr + vi * pi, vi * pr - vr * pi
        adj_r.append([(sr * a - si * b) // norm for a, b in zip(wr, wi)])
        adj_i.append([(sr * b + si * a) // norm for a, b in zip(wr, wi)])
    return (0, 0), adj_r, adj_i


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
    if not base.is_square:
        raise ValueError("the adjugate kernel needs a square base")
    n = base.rows
    if not 1 <= r <= n:
        raise ValueError(f"minor order {r} outside 1..{n}")
    if side == "column":
        if vectors.rows != n:
            raise ValueError(f"replacement block has {vectors.rows} rows, expected {n}")
        s = vectors.cols
    elif side == "row":
        if vectors.cols != n:
            raise ValueError(f"replacement block has {vectors.cols} columns, expected {n}")
        s = vectors.rows
    else:
        raise ValueError(f"unknown side {side!r}")
    check_budget(kernel_work(n, r, s), budget, n=n, r=r, s=s)
    re_rows, im_rows, q = clear_denominators(base)
    l_re = [[0] * n for _ in range(n)]
    l_im = [[0] * n for _ in range(n)]
    d_re = d_im = 0
    for idx in combinations(range(n), r):
        (dr, di), adj_re, adj_im = _subset_adjugate(re_rows, im_rows, idx)
        d_re += dr
        d_im += di
        if adj_re is None:
            continue
        for a, row_re, row_im in zip(idx, adj_re, adj_im):
            target_re, target_im = l_re[a], l_im[a]
            for b, xr, xi in zip(idx, row_re, row_im):
                target_re[b] += xr
                target_im[b] += xi
    v_re, v_im, qv = clear_denominators(vectors)
    if side == "column":
        n_re, n_im = int_matmul(l_re, l_im, v_re, v_im)
    else:
        n_re, n_im = int_matmul(v_re, v_im, l_re, l_im)
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
    product, d = adjugate_product(base, r, vectors, side, budget)
    return product.scale(ONE / d), d
