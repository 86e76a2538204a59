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
adj(M_S) embedded at the rows and columns S.  A fraction-free Gauss-Jordan
elimination of [M_S | I] gives adj(M_S) and det(M_S) at once, and the kernel
shares those eliminations between subsets: it walks the lexicographic tree
of r-subsets on an explicit stack, a node being a prefix P.  With pivots in
index order, the entries left after eliminating P are bordered minors of M
on P (Sylvester's identity), whatever the rest of S, so a node holds that
state once for every subset below it: the rows P and the later indices
against the later columns and the identity columns of P, an eliminated
column's storage reused for its pivot row's identity column.  A child takes
one pivot step.  The subsets below one node of depth r - 2 share their last
step too, as one trace and one matrix product.  A zero pivot holds its
index: the row and column ride along, and each leaf below finishes them
with row pivoting by a resumable in-place elimination.  That routine takes a
rank-(r-1) leaf's last step on a zero pivot, which no later step divides by,
and drops a leaf of rank r - 2 or less.  Leaves whose shared step would cost
more than the steps it saves go to it directly.

A work guard protects against the intrinsic C(n, r) blow-up: any call whose
estimated cost exceeds the budget fails fast with BudgetExceededError instead
of grinding for hours.  The primitives count "submatrix entries touched",
(number of minors) * r^2.  The kernel counts entry updates
(`kernel_work`): C(n, r) * 2r^3, the cost of eliminating every r-by-2r block
[M_S | I] on its own and an upper bound of the walk's updates, plus n^2 * s
for the contraction with s replacement vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterator, Sequence

from .matrix import ExactMatrix, _from_int, _over, clear_denominators, int_det, int_matmul
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


def _gauss_div(tr: int, ti: int, pr: int, pi: int) -> tuple[int, int]:
    # Exact division in Z[i]; Sylvester's identity guarantees divisibility.
    if pi == 0:
        return tr // pr, ti // pr
    norm = pr * pr + pi * pi
    return (tr * pr + ti * pi) // norm, (ti * pr - tr * pi) // norm


def _step(ar, ai, pivot, col, pr, pi):
    """One fraction-free Gauss-Jordan step in place, on row `pivot` and
    column col; returns the pivot k = y[col].  Every other row x becomes
    (k x - x[col] y) / p, p the previous pivot, exact by Sylvester's
    identity.  Column col then holds the pivot row's identity column: -x[col]
    in the other rows and p in the pivot row."""
    yr, yi = ar[pivot], ai[pivot]
    kr, ki = yr[col], yi[col]
    # (k x - m y) / p = (k' x - m' y) / |p|^2 with k' = k conj(p), m' = m conj(p)
    norm = pr * pr + pi * pi
    ur, ui = kr * pr + ki * pi, ki * pr - kr * pi
    for i, xr, xi in zip(range(len(ar)), ar, ai):
        if i == pivot:
            continue
        mr, mi = xr[col], xi[col]
        if pi == 0:
            nr = [(a * kr - b * ki - mr * c + mi * d) // pr
                  for a, b, c, d in zip(xr, xi, yr, yi)]
            ni = [(a * ki + b * kr - mr * d - mi * c) // pr
                  for a, b, c, d in zip(xr, xi, yr, yi)]
        else:
            vr, vi = mr * pr + mi * pi, mi * pr - mr * pi
            nr = [(a * ur - b * ui - vr * c + vi * d) // norm
                  for a, b, c, d in zip(xr, xi, yr, yi)]
            ni = [(a * ui + b * ur - vr * d - vi * c) // norm
                  for a, b, c, d in zip(xr, xi, yr, yi)]
        nr[col], ni[col] = -mr, -mi
        ar[i], ai[i] = nr, ni
    yr[col], yi[col] = pr, pi
    return kr, ki


def _finish(ar, ai, held, pr, pi, at, l_re, l_im, det):
    """Add det and adj of an r-by-r elimination state, the block of M at the
    indices `at`, to det and L: the elimination resumes in place on the held
    columns, pivoting on the rows not used yet; p is the last pivot taken.

    An eliminated column holds its pivot row's identity column, so tau
    (column -> pivot row) permutes the final [D | T]: det = sgn(tau) D and
    adj[a][b] = sgn(tau) T[tau(a)] at the slot of b's identity column.  A
    column with no pivot left (rank r-1) is eliminated last, on the zero
    pivot of the one unused row: no later step divides by it, so the entries
    are still the minors of [M | I] and adj comes out the same way, with
    D = 0.  A second such column means rank r-2 or less, and adj = 0.
    """
    r = len(ar)
    rows = list(held)
    tau = list(range(r))
    free = None
    for col in held:
        pivot = next((s for s in rows if ar[s][col] or ai[s][col]), None)
        if pivot is None:
            if free is not None:
                return
            free = col
            continue
        rows.remove(pivot)
        tau[col] = pivot
        pr, pi = _step(ar, ai, pivot, col, pr, pi)
    if free is not None:
        tau[free] = rows[0]
        pr, pi = _step(ar, ai, rows[0], free, pr, pi)
    sign = -1 if sum(x > y for i, x in enumerate(tau) for y in tau[i + 1:]) % 2 else 1
    det[0] += sign * pr
    det[1] += sign * pi
    slot = sorted(range(r), key=tau.__getitem__)
    for a, row in zip(at, tau):
        xr, xi, t_re, t_im = ar[row], ai[row], l_re[a], l_im[a]
        for b, j in zip(at, slot):
            t_re[b] += sign * xr[j]
            t_im[b] += sign * xi[j]


def _visit(node, r, l_re, l_im, det):
    """Walk one node: yield the children to descend into, and add the leaves
    finished here to L and det.

    A child takes one pivot step on its next index t, or holds t when the
    pivot is zero.  At depth r - 2 the leaf on (t, c) has prefix block
    (z_cc Z - Z[:, c] Z[c, :]) / x_tt, Z the state after the step on t, so
    the leaves below t sum as one trace and one product; the rest of a leaf
    is row c, column c and x_tt itself, and only those parts of Z are
    formed.  Leaves below a held index or a zero pivot at that depth, and
    leaves whose shared step would cost more than the steps it saves, go to
    `_finish` one by one.
    """
    ar, ai, idx, k, held, pr, pi = node
    size = len(idx)
    m = r - k
    for t in range(k, size - m + 1):
        kr, ki = ar[t][t], ai[t][t]
        later = size - t - 1
        if k < r - 2:
            shared = (k + later) * (k + later + 1) < comb(later, m - 1) * (r - 1) * r
        else:
            shared = later > 1 and not held and (kr or ki)
        if not shared:
            head, unpivoted = [*range(k), t], held + list(range(k, r))
            for rest in combinations(range(t + 1, size), m - 1):
                pos = head + list(rest)
                _finish([[ar[i][j] for j in pos] for i in pos],
                        [[ai[i][j] for j in pos] for i in pos], unpivoted, pr, pi,
                        [idx[i] for i in pos], l_re, l_im, det)
        elif k < r - 2:
            rows = [*range(k), *range(t, size)]
            xs_re = [ar[i][:k] + ar[i][t:] for i in rows]
            xs_im = [ai[i][:k] + ai[i][t:] for i in rows]
            if kr or ki:
                state = (held, *_step(xs_re, xs_im, k, k, pr, pi))
            else:
                state = (held + [k], pr, pi)
            yield (xs_re, xs_im, idx[:k] + idx[t:], k + 1, *state)
        else:
            _last_steps(ar, ai, idx, k, t, pr, pi, l_re, l_im, det)


def _last_steps(ar, ai, idx, k, t, pr, pi, l_re, l_im, det):
    """The leaves (t, c), c > t, below a node of depth k = r - 2 with no held
    index and a nonzero pivot on t (see `_visit`)."""
    size = len(idx)
    below = range(t + 1, size)
    kr, ki = ar[t][t], ai[t][t]
    # the trace: sum over c of (x_tt x_cc - x_ct x_tc) / p
    cr, ci = [ar[c][t] for c in below], [ai[c][t] for c in below]
    gr, gi = ar[t][t + 1:], ai[t][t + 1:]
    xr, xi = sum(ar[c][c] for c in below), sum(ai[c][c] for c in below)
    sr, si = _gauss_div(
        xr * kr - xi * ki - sum(map(mul, cr, gr)) + sum(map(mul, ci, gi)),
        xr * ki + xi * kr - sum(map(mul, cr, gi)) - sum(map(mul, ci, gr)),
        pr, pi,
    )
    det[0] += sr
    det[1] += si
    top_re = [ar[i][:k] + ar[i][t:] for i in [*range(k), t]]
    top_im = [ai[i][:k] + ai[i][t:] for i in [*range(k), t]]
    side_re = [ar[c][:k] + [ar[c][t]] for c in [*below, t]]
    side_im = [ai[c][:k] + [ai[c][t]] for c in [*below, t]]
    _step(top_re, top_im, k, k, pr, pi)
    _step(side_re, side_im, size - t - 1, k, pr, pi)
    del side_re[-1], side_im[-1]
    p_re, p_im = int_matmul([x[k + 1:] for x in top_re], [x[k + 1:] for x in top_im],
                            side_re, side_im)
    pre, post = idx[:k] + [idx[t]], idx[t + 1:]
    for a, x_re, x_im, z_re, z_im in zip(pre, top_re, top_im, p_re, p_im):
        t_re, t_im = l_re[a], l_im[a]
        for b, xr, xi, zr, zi in zip(pre, x_re, x_im, z_re, z_im):
            qr, qi = _gauss_div(xr * sr - xi * si - zr, xr * si + xi * sr - zi, kr, ki)
            t_re[b] += qr
            t_im[b] += qi
        for b, xr, xi in zip(post, x_re[k + 1:], x_im[k + 1:]):
            t_re[b] -= xr
            t_im[b] -= xi
    for c, x_re, x_im in zip(post, side_re, side_im):
        t_re, t_im = l_re[c], l_im[c]
        for b, xr, xi in zip(pre, x_re, x_im):
            t_re[b] += xr
            t_im[b] += xi
        t_re[c] += kr
        t_im[c] += ki


def _adjugate_sum(re_rows, im_rows, r):
    """L_r (sum over the r-subsets S of adj(M_S) embedded at S) and d_r (sum
    of det(M_S)) of a Gaussian-integer matrix, by the subset-tree walk on an
    explicit stack (its depth is at most r)."""
    n = len(re_rows)
    l_re = [[0] * n for _ in range(n)]
    l_im = [[0] * n for _ in range(n)]
    if r == 1:  # adj of a 1-by-1 block is 1, det its entry
        for i in range(n):
            l_re[i][i] = 1
        return (l_re, l_im, sum(row[i] for i, row in enumerate(re_rows)),
                sum(row[i] for i, row in enumerate(im_rows)))
    det = [0, 0]
    root = ([list(row) for row in re_rows], [list(row) for row in im_rows], list(range(n)))
    stack = [_visit((*root, 0, [], 1, 0), r, l_re, l_im, det)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        else:
            stack.append(_visit(node, r, l_re, l_im, det))
    return l_re, l_im, det[0], det[1]


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
