"""Generalized inverses by minor-sum determinantal formulas.

Moore-Penrose, weighted Moore-Penrose, Drazin, group and weighted Drazin
inverses, the four projector formulas, independent oracles built on exact
rank factorization, and the defining-equation verifiers.

Each inverse entry is a ratio of minor sums over a single Gram-like square
matrix, so full-rank inputs route through the same code path (the constrained
subset family degenerates to a singleton and the formula becomes the
classical adjugate ratio).  Rank-0 and nilpotent inputs return the zero
matrix, matching the unique solutions of the defining equations.

Every formula is one call of the generalized-adjugate kernel
(`minors.cramer_ratio`) on its base matrix and replacement block,
divided once by the principal-minor sum d_r.

All functions are pure.  The `threads` parameter is accepted for
compatibility and ignored: evaluation is sequential, because the kernel
works per subset rather than per entry, and threads gave no speedup on
pure-Python arithmetic under the interpreter lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .matrix import (
    ExactMatrix,
    clear_denominators,
    int_det,
    inverse,
    rank,
    rank_profile,
    rref,
)
from .minors import cramer_ratio, kernel_work
from .scalar import ONE, ExactScalar

Form = Literal["auto", "column", "row"]

COLUMN_FORM = "column_form"
ROW_FORM = "row_form"
FULL_RANK_ADJOINT = "full_rank_adjoint"


class VerificationError(RuntimeError):
    """An internally computed result failed its own defining equations."""


@dataclass(frozen=True)
class GiReport:
    """A computed generalized inverse plus the data behind its formula.

    `denominator` is the minor-sum denominator d_r, so callers can render
    entries as (integer combination)/d_r.
    """

    inverse: ExactMatrix
    rank_used: int
    index_used: int
    representation: str
    denominator: ExactScalar


@dataclass(frozen=True)
class WeightPair:
    """Hermitian positive definite weights for the weighted Moore-Penrose
    inverse; M is m-by-m, N is n-by-n."""

    M: ExactMatrix
    N: ExactMatrix

    def __post_init__(self) -> None:
        for name, w in (("M", self.M), ("N", self.N)):
            if not is_hermitian_positive_definite(w):
                raise ValueError(f"weight {name} is not Hermitian positive definite")


def is_hermitian_positive_definite(matrix: ExactMatrix) -> bool:
    """Exact test: Hermitian with all leading principal minors positive."""
    if not matrix.is_hermitian():
        return False
    # the leading minors of the image: q > 0 keeps their signs
    re, im, _ = clear_denominators(matrix)
    for k in range(1, matrix.rows + 1):
        dr, di = int_det([row[:k] for row in re[:k]], [row[:k] for row in im[:k]])
        if di or dr <= 0:
            return False
    return True


def _resolve_form(form: Form, column_cost: int, row_cost: int) -> str:
    if form == "column":
        return "column"
    if form == "row":
        return "row"
    if form != "auto":
        raise ValueError(f"unknown form {form!r}")
    return "column" if column_cost <= row_cost else "row"


# -- Moore-Penrose ---------------------------------------------------------------


def mp_inverse(
    matrix: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
    threads: int = 1,
) -> GiReport:
    """Moore-Penrose inverse by minor sums over A*A (column form) or AA*
    (row form)."""
    m, n = matrix.shape
    r = rank(matrix)
    if r == 0:
        return GiReport(ExactMatrix.zeros(n, m), 0, 0, COLUMN_FORM, ONE)
    chosen = _resolve_form(form, kernel_work(n, r, m), kernel_work(m, r, n))
    a_star = matrix.conj_transpose()
    if chosen == "column":
        x, d = cramer_ratio(a_star @ matrix, r, a_star, "column", budget)
        rep = FULL_RANK_ADJOINT if r == n else COLUMN_FORM
    else:
        x, d = cramer_ratio(matrix @ a_star, r, a_star, "row", budget)
        rep = FULL_RANK_ADJOINT if r == m else ROW_FORM
    return GiReport(x, r, 0, rep, d)


def mp_inverse_oracle(matrix: ExactMatrix) -> ExactMatrix:
    """Independent Moore-Penrose computation via exact rank factorization:
    A = CQ with C the pivot columns and Q the nonzero rows of the reduced
    echelon form, then A+ = Q*(C*AQ*)^(-1)C*."""
    m, n = matrix.shape
    reduced, pivots = rref(matrix)
    r = len(pivots)
    if r == 0:
        return ExactMatrix.zeros(n, m)
    c = ExactMatrix(
        m, r, [matrix.entry(i, j) for i in range(1, m + 1) for j in pivots]
    )
    q = ExactMatrix.from_rows([list(reduced.row(i)) for i in range(1, r + 1)])
    q_star = q.conj_transpose()
    c_star = c.conj_transpose()
    middle = inverse(c_star @ matrix @ q_star)
    return q_star @ middle @ c_star


# -- weighted Moore-Penrose --------------------------------------------------------


def weighted_mp_inverse(
    matrix: ExactMatrix,
    weights: WeightPair,
    budget: int | None = None,
    threads: int = 1,
) -> GiReport:
    """Weighted Moore-Penrose inverse by minor sums over the weighted Gram
    matrix built from N^(-1)A*M.  Only the column-style representation
    exists; there is no row analogue."""
    m, n = matrix.shape
    if weights.M.shape != (m, m) or weights.N.shape != (n, n):
        raise ValueError(
            f"weights must be {m}x{m} and {n}x{n} for a {m}x{n} matrix"
        )
    r = rank(matrix)
    if r == 0:
        return GiReport(ExactMatrix.zeros(n, m), 0, 0, COLUMN_FORM, ONE)
    a_sharp = inverse(weights.N) @ matrix.conj_transpose() @ weights.M
    x, d = cramer_ratio(a_sharp @ matrix, r, a_sharp, "column", budget)
    rep = FULL_RANK_ADJOINT if r == n else COLUMN_FORM
    return GiReport(x, r, 0, rep, d)


# -- Drazin and group -----------------------------------------------------------


def drazin_inverse(
    matrix: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
    threads: int = 1,
) -> GiReport:
    """Drazin inverse by minor sums over A^(k+1) with replacement vectors
    taken from A^k, k = Ind(A)."""
    if not matrix.is_square:
        raise ValueError("the Drazin inverse needs a square matrix")
    profile = rank_profile(matrix)
    n = matrix.rows
    k = profile.index
    r = profile.core_rank
    if r == 0:
        return GiReport(ExactMatrix.zeros(n, n), 0, k, COLUMN_FORM, ONE)
    cost = kernel_work(n, r, n)
    chosen = _resolve_form(form, cost, cost)
    x, d = cramer_ratio(profile.power(k + 1), r, profile.power(k), chosen, budget)
    if r == n:
        rep = FULL_RANK_ADJOINT
    else:
        rep = COLUMN_FORM if chosen == "column" else ROW_FORM
    return GiReport(x, r, k, rep, d)


def drazin_inverse_oracle(matrix: ExactMatrix) -> ExactMatrix:
    """Independent Drazin computation: A^k (A^(2k+1))+ A^k, certified against
    the three defining equations before being returned."""
    if not matrix.is_square:
        raise ValueError("the Drazin inverse needs a square matrix")
    profile = rank_profile(matrix)
    k = profile.index
    if profile.core_rank == 0:
        candidate = ExactMatrix.zeros(matrix.rows, matrix.rows)
    else:
        power_k = profile.power(k)
        candidate = power_k @ mp_inverse_oracle(profile.power(2 * k + 1)) @ power_k
    report = verify_defining_equations(matrix, candidate, "drazin")
    if not report.all_satisfied:
        raise VerificationError(
            f"Drazin oracle failed its defining equations: {report.equations}"
        )
    return candidate


def group_inverse(
    matrix: ExactMatrix, budget: int | None = None, threads: int = 1
) -> GiReport:
    """Group inverse (index at most 1) by minor sums over A^2 with
    replacement vectors from A itself."""
    if not matrix.is_square:
        raise ValueError("the group inverse needs a square matrix")
    profile = rank_profile(matrix)
    if profile.index > 1:
        raise ValueError(
            f"group inverse does not exist: index is {profile.index} > 1"
        )
    n = matrix.rows
    square = profile.power(2)
    r = profile.core_rank  # rank(A^2): the index is at most 1
    if r == 0:
        return GiReport(ExactMatrix.zeros(n, n), 0, profile.index, COLUMN_FORM, ONE)
    x, d = cramer_ratio(square, r, matrix, "column", budget)
    rep = FULL_RANK_ADJOINT if r == n else COLUMN_FORM
    return GiReport(x, r, profile.index, rep, d)


# -- weighted Drazin ---------------------------------------------------------------


def w_drazin_inverse(
    matrix: ExactMatrix,
    weight: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
    threads: int = 1,
) -> GiReport:
    """Weighted Drazin inverse of a rectangular A with respect to W, by minor
    sums over (AW)^(k+2) with columns of (AW)^k A, or over (WA)^(k+2) with
    rows of A(WA)^k; k = max(Ind(AW), Ind(WA))."""
    m, n = matrix.shape
    if weight.shape != (n, m):
        raise ValueError(f"weight must be {n}x{m} for a {m}x{n} matrix")
    aw = rank_profile(matrix @ weight)
    wa = rank_profile(weight @ matrix)
    k = max(aw.index, wa.index)
    r = aw.core_rank  # rank((AW)^k): k >= Ind(AW)
    if r == 0:
        return GiReport(ExactMatrix.zeros(m, n), 0, k, COLUMN_FORM, ONE)
    chosen = _resolve_form(form, kernel_work(m, r, n), kernel_work(n, r, m))
    if chosen == "column":
        x, d = cramer_ratio(aw.power(k + 2), r, aw.power(k) @ matrix, "column", budget)
        rep = FULL_RANK_ADJOINT if r == m else COLUMN_FORM
    else:
        x, d = cramer_ratio(wa.power(k + 2), r, matrix @ wa.power(k), "row", budget)
        rep = FULL_RANK_ADJOINT if r == n else ROW_FORM
    return GiReport(x, r, k, rep, d)


# -- projectors ---------------------------------------------------------------------


ProjectorKind = Literal["in", "out", "drazin_left", "drazin_right"]


def projector(
    matrix: ExactMatrix,
    which: ProjectorKind,
    budget: int | None = None,
    threads: int = 1,
) -> ExactMatrix:
    """Projection matrices computed directly by minor sums, never by
    multiplying inverses; the replacement vectors are the base's own
    columns (or rows):

    * ``in``           A+A   (onto the row space)
    * ``out``          AA+   (onto the column space)
    * ``drazin_left``  AA^D
    * ``drazin_right`` A^D A
    """
    if which in ("in", "out"):
        r = rank(matrix)
        if which == "in":
            base, side = matrix.conj_transpose() @ matrix, "column"
        else:
            base, side = matrix @ matrix.conj_transpose(), "row"
    elif which in ("drazin_left", "drazin_right"):
        if not matrix.is_square:
            raise ValueError("Drazin projectors need a square matrix")
        profile = rank_profile(matrix)
        r = profile.core_rank
        base = profile.power(profile.index + 1)
        side = "row" if which == "drazin_left" else "column"
    else:
        raise ValueError(f"unknown projector kind {which!r}")
    if r == 0:
        return ExactMatrix.zeros(base.rows, base.rows)
    return cramer_ratio(base, r, base, side, budget)[0]


# -- defining-equation verification ---------------------------------------------------


@dataclass(frozen=True)
class EquationReport:
    """Exact boolean verdict per defining equation."""

    kind: str
    equations: dict[str, bool]

    @property
    def all_satisfied(self) -> bool:
        return all(self.equations.values())


def verify_defining_equations(
    matrix: ExactMatrix,
    candidate: ExactMatrix,
    kind: str,
    weights: WeightPair | None = None,
    weight: ExactMatrix | None = None,
) -> EquationReport:
    """Check a candidate inverse against the defining equations of its kind.

    kind is one of 'mp', 'weighted_mp' (needs weights), 'drazin', 'group',
    'w_drazin' (needs weight).  Every check is an exact equality.
    """
    a, x = matrix, candidate
    if kind in ("mp", "weighted_mp"):
        if kind == "weighted_mp" and weights is None:
            raise ValueError("weighted_mp verification needs the weight pair")
        if (x.rows, x.cols) != (a.cols, a.rows):
            raise ValueError("candidate has the wrong shape for an MP inverse")
        ax, xa = a @ x, x @ a
        results = {"AXA=A": ax @ a == a, "XAX=X": xa @ x == x}
        if kind == "mp":
            results["(AX)*=AX"] = ax.conj_transpose() == ax
            results["(XA)*=XA"] = xa.conj_transpose() == xa
        else:
            max_ = weights.M @ ax
            nxa = weights.N @ xa
            results["(MAX)*=MAX"] = max_.conj_transpose() == max_
            results["(NXA)*=NXA"] = nxa.conj_transpose() == nxa
    elif kind in ("drazin", "group"):
        if not a.is_square or x.shape != a.shape:
            raise ValueError("Drazin verification needs square same-size matrices")
        ax, xa = a @ x, x @ a
        if kind == "group":
            results = {"AXA=A": ax @ a == a}
        else:
            profile = rank_profile(a)
            k = profile.index
            results = {"A^(k+1)X=A^k": profile.power(k + 1) @ x == profile.power(k)}
        results["XAX=X"] = xa @ x == x
        results["AX=XA"] = ax == xa
    elif kind == "w_drazin":
        if weight is None:
            raise ValueError("w_drazin verification needs the weight matrix")
        if x.shape != a.shape:
            raise ValueError("candidate has the wrong shape for a weighted Drazin inverse")
        aw, xw = a @ weight, x @ weight
        profile = rank_profile(aw)
        k = max(profile.index, rank_profile(weight @ a).index)
        results = {
            "(AW)^(k+1)XW=(AW)^k": profile.power(k + 1) @ xw == profile.power(k),
            "XWAWX=X": xw @ aw @ x == x,
            "AWX=XWA": aw @ x == xw @ a,
        }
    else:
        raise ValueError(f"unknown inverse kind {kind!r}")
    return EquationReport(kind, results)
