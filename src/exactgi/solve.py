"""Cramer-style solvers for vector systems.

Each component of the solution is a ratio of minor sums, computed without
ever forming the inverse matrix: the minimum-norm least squares solution of
A x = y (and of the row system x A = y), the Drazin solution of a square
singular system, and the weighted Drazin solution of W A W x = y.

Residuals are returned as exact squared norms; the norm itself is irrational
in general.  Range-membership preconditions are diagnosed exactly and
reported, never enforced, because each solution is well defined regardless.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .matrix import (
    ExactMatrix,
    column_space_contains,
    rank,
    rank_profile,
    row_space_contains,
)
from .minors import cramer_ratio
from .scalar import ExactScalar

# collections.abc, not typing: a typing.Union would sit in typing's cache and
# keep these classes (and a re-imported package's old modules) alive
VectorLike = ExactMatrix | Sequence[ExactScalar]


@dataclass(frozen=True)
class SolveReport:
    """A solved system: the vector, the ranks behind the formula, the exact
    squared residual, and (for Drazin-type systems) whether the right-hand
    side lies in the prescribed range."""

    solution: ExactMatrix
    rank_used: int
    index_used: int
    residual_norm_sq: ExactScalar
    method: str
    in_prescribed_range: bool | None = None


def _as_column(values: VectorLike, length: int, what: str) -> ExactMatrix:
    if isinstance(values, ExactMatrix):
        if values.cols != 1:
            raise ValueError(f"{what} must be a column vector, got {values.shape}")
        vec = values
    else:
        vec = ExactMatrix.column(list(values))
    if vec.rows != length:
        raise ValueError(f"{what} has length {vec.rows}, expected {length}")
    return vec


def _as_row(values: VectorLike, length: int, what: str) -> ExactMatrix:
    if isinstance(values, ExactMatrix):
        if values.rows != 1:
            raise ValueError(f"{what} must be a row vector, got {values.shape}")
        vec = values
    else:
        vec = ExactMatrix.row_vector(list(values))
    if vec.cols != length:
        raise ValueError(f"{what} has length {vec.cols}, expected {length}")
    return vec


def _residual_sq(residual: ExactMatrix) -> ExactScalar:
    return ExactScalar(residual.frobenius_norm_sq())


def ls_min_norm_solve(
    matrix: ExactMatrix, rhs: VectorLike, budget: int | None = None
) -> SolveReport:
    """Minimum-norm least squares solution of A x = y, componentwise by
    column-replaced minor sums over A*A with the vector A*y."""
    m, n = matrix.shape
    y = _as_column(rhs, m, "right-hand side")
    r = rank(matrix)
    if r == 0:
        x = ExactMatrix.zeros(n, 1)
        return SolveReport(x, 0, 0, _residual_sq(y), "ls_min_norm")
    a_star = matrix.conj_transpose()
    x, _ = cramer_ratio(a_star @ matrix, r, a_star @ y, "column", budget)
    return SolveReport(x, r, 0, _residual_sq(matrix @ x - y), "ls_min_norm")


def ls_min_norm_solve_row(
    rhs: VectorLike, matrix: ExactMatrix, budget: int | None = None
) -> SolveReport:
    """Minimum-norm least squares solution of the row system x A = y, by
    row-replaced minor sums over AA* with the vector yA*."""
    m, n = matrix.shape
    y = _as_row(rhs, n, "right-hand side")
    r = rank(matrix)
    if r == 0:
        x = ExactMatrix.zeros(1, m)
        return SolveReport(x, 0, 0, _residual_sq(y), "ls_min_norm_row")
    a_star = matrix.conj_transpose()
    x, _ = cramer_ratio(matrix @ a_star, r, y @ a_star, "row", budget)
    return SolveReport(x, r, 0, _residual_sq(x @ matrix - y), "ls_min_norm_row")


def drazin_solve(
    matrix: ExactMatrix, rhs: VectorLike, budget: int | None = None
) -> SolveReport:
    """Drazin solution of a square system A x = y, componentwise by
    column-replaced minor sums over A^(k+1) with the vector A^k y."""
    if not matrix.is_square:
        raise ValueError("the Drazin solution needs a square matrix")
    n = matrix.rows
    y = _as_column(rhs, n, "right-hand side")
    profile = rank_profile(matrix)
    k = profile.index
    r = profile.core_rank
    in_range = column_space_contains(profile.power(k), y)
    if r == 0:
        x = ExactMatrix.zeros(n, 1)
        return SolveReport(x, 0, k, _residual_sq(y), "drazin", in_range)
    x, _ = cramer_ratio(profile.power(k + 1), r, profile.power(k) @ y, "column", budget)
    return SolveReport(x, r, k, _residual_sq(matrix @ x - y), "drazin", in_range)


def drazin_solve_row(
    rhs: VectorLike, matrix: ExactMatrix, budget: int | None = None
) -> SolveReport:
    """Drazin solution of the row system x A = y, by row-replaced minor sums
    over A^(k+1) with the vector y A^k."""
    if not matrix.is_square:
        raise ValueError("the Drazin solution needs a square matrix")
    n = matrix.rows
    y = _as_row(rhs, n, "right-hand side")
    profile = rank_profile(matrix)
    k = profile.index
    r = profile.core_rank
    in_range = row_space_contains(profile.power(k), y)
    if r == 0:
        x = ExactMatrix.zeros(1, n)
        return SolveReport(x, 0, k, _residual_sq(y), "drazin_row", in_range)
    x, _ = cramer_ratio(profile.power(k + 1), r, y @ profile.power(k), "row", budget)
    return SolveReport(x, r, k, _residual_sq(x @ matrix - y), "drazin_row", in_range)


def w_drazin_solve(
    matrix: ExactMatrix,
    weight: ExactMatrix,
    rhs: VectorLike,
    budget: int | None = None,
) -> SolveReport:
    """Weighted Drazin solution of W A W x = y, componentwise by
    column-replaced minor sums over (AW)^(k+2) with the vector (AW)^k A y.

    When y lies in the range of (WA)^Ind(WA) (diagnosed and reported), the
    solution satisfies W A W x = y exactly.
    """
    m, n = matrix.shape
    if weight.shape != (n, m):
        raise ValueError(f"weight must be {n}x{m} for a {m}x{n} matrix")
    y = _as_column(rhs, n, "right-hand side")
    aw = rank_profile(matrix @ weight)
    wa = rank_profile(weight @ matrix)
    k = max(aw.index, wa.index)
    r = aw.core_rank  # rank((AW)^k): k >= Ind(AW)
    in_range = column_space_contains(wa.power(wa.index), y)
    waw = weight @ matrix @ weight
    if r == 0:
        x = ExactMatrix.zeros(m, 1)
        return SolveReport(x, 0, k, _residual_sq(y), "w_drazin", in_range)
    x, _ = cramer_ratio(aw.power(k + 2), r, aw.power(k) @ matrix @ y, "column", budget)
    return SolveReport(x, r, k, _residual_sq(waw @ x - y), "w_drazin", in_range)
