"""Cramer-style solvers for vector systems.

Each component of the solution is a ratio of minor sums, computed without
ever forming the inverse matrix: the minimum-norm least squares solution of
A x = y (and of the row system x A = y), the Drazin solution of a square
singular system, and the weighted Drazin solution of W A W x = y.

The least squares and Drazin solvers are the one-column (or one-row) case of
the matrix-equation solvers in `equations`, whose solutions they repackage
as a `SolveReport`.  The weighted Drazin solver applies the Cramer rule of
the W-weighted Drazin inverse (`inverses._CramerRule`) to y.

Residuals are returned as exact squared norms; the norm itself is irrational
in general.  Range-membership preconditions are reported, never enforced,
because each solution is well defined regardless, and are read off the
residual: A A^D projects onto R(A^k), and W A W A_(d,W) = WA (WA)^D onto
R((WA)^Ind(WA)), so y lies in the range exactly when the residual is zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .equations import EqSolution, dz_solve_left, dz_solve_right, ls_solve_left, ls_solve_right
from .inverses import _w_drazin_rule
from .matrix import ExactMatrix
from .scalar import ExactScalar

# collections.abc, not typing: a typing.Union would sit in typing's cache and
# keep these classes (and a re-imported package's old modules) alive
VectorLike = ExactMatrix | Sequence[ExactScalar]


@dataclass(frozen=True)
class SolveReport:
    """A solved system: the vector, the ranks behind the formula, the exact
    squared residual, and (for Drazin-type systems) whether the right-hand
    side lies in the prescribed range, which holds iff the residual is zero."""

    solution: ExactMatrix
    rank_used: int
    index_used: int
    residual_norm_sq: ExactScalar
    method: str
    in_prescribed_range: bool | None = None


def _as_vector(values: VectorLike, shape: tuple[int, int]) -> ExactMatrix:
    """The right-hand side as a column (shape (n, 1)) or row (shape (1, n))."""
    if not isinstance(values, ExactMatrix):
        values = (ExactMatrix.column if shape[1] == 1 else ExactMatrix.row_vector)(list(values))
    if values.shape != shape:
        raise ValueError(f"right-hand side must be {shape[0]}x{shape[1]}, "
                         f"got {values.rows}x{values.cols}")
    return values


def _report(solution: EqSolution, method: str) -> SolveReport:
    index = solution.indices[0] if solution.indices else 0
    residual_sq = ExactScalar(solution.residual.frobenius_norm_sq())
    return SolveReport(
        solution.X, solution.ranks[0], index, residual_sq, method, solution.constraint_satisfied
    )


def ls_min_norm_solve(
    matrix: ExactMatrix, rhs: VectorLike, budget: int | None = None
) -> SolveReport:
    """Minimum-norm least squares solution of A x = y, componentwise by
    column-replaced minor sums over A*A with the vector A*y."""
    y = _as_vector(rhs, (matrix.rows, 1))
    return _report(ls_solve_left(matrix, y, budget), "ls_min_norm")


def ls_min_norm_solve_row(
    rhs: VectorLike, matrix: ExactMatrix, budget: int | None = None
) -> SolveReport:
    """Minimum-norm least squares solution of the row system x A = y, by
    row-replaced minor sums over AA* with the vector yA*."""
    y = _as_vector(rhs, (1, matrix.cols))
    return _report(ls_solve_right(matrix, y, budget), "ls_min_norm_row")


def drazin_solve(
    matrix: ExactMatrix, rhs: VectorLike, budget: int | None = None
) -> SolveReport:
    """Drazin solution of a square system A x = y, componentwise by
    column-replaced minor sums over A^(k+1) with the vector A^k y."""
    y = _as_vector(rhs, (matrix.rows, 1))
    return _report(dz_solve_left(matrix, y, budget), "drazin")


def drazin_solve_row(
    rhs: VectorLike, matrix: ExactMatrix, budget: int | None = None
) -> SolveReport:
    """Drazin solution of the row system x A = y, by row-replaced minor sums
    over A^(k+1) with the vector y A^k."""
    y = _as_vector(rhs, (1, matrix.rows))
    return _report(dz_solve_right(matrix, y, budget), "drazin_row")


def w_drazin_solve(
    matrix: ExactMatrix,
    weight: ExactMatrix,
    rhs: VectorLike,
    budget: int | None = None,
) -> SolveReport:
    """Weighted Drazin solution of W A W x = y, componentwise by
    column-replaced minor sums over (AW)^(k+2) with the vector (AW)^k A y.

    When y lies in the range of (WA)^Ind(WA) (reported), the solution
    satisfies W A W x = y exactly.
    """
    rule = _w_drazin_rule(matrix, weight, "column")
    y = _as_vector(rhs, (matrix.cols, 1))
    x, _, block = rule.apply(y, budget)
    residual = y if block is None else weight @ (matrix @ (weight @ x)) - y
    residual_sq = ExactScalar(residual.frobenius_norm_sq())
    return SolveReport(x, rule.r, rule.k, residual_sq, "w_drazin", residual.is_zero())
