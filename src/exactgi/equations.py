"""Cramer-style solvers for the matrix equations AX=B, XA=B and AXB=D.

Least squares variants produce the minimum-norm least squares solution
(A+B, BA+, A+DB+); Drazin variants produce A^D B, B A^D and A^D D B^D.
Every entry of X is a ratio of minor sums; no inverse is ever formed.  Each
solver evaluates the Cramer rule of its inverse (`inverses._CramerRule`) on
B.  For AXB=D, X = G_A (D G_B): the row rule of B applied to D, then the
column rule of A applied to that result.  The replacement blocks of the two
stages, D F_B and F_A (D G_B) with F the rule's factor (A* for A+, A^k for
A^D), are the intermediates.

For AXB=D the rank pattern of (A, B) is recorded in `case_tag` for
auditability; every case runs the same two rules (a full-rank side makes the
subset family a singleton, turning the sums into single determinants).

Consistency of the original equation is reported through the exact residual;
the solvers never reject an inconsistent system (least squares semantics).
The Drazin variants report, not enforce, that B lies in the range of A^k
(its row space for XA=B), and read it off the same residual: A A^D projects
onto R(A^k) along N(A^k), so (I - A A^D) B is zero exactly when it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .inverses import _CramerRule, _drazin_rule, _mp_rule
from .matrix import ExactMatrix, rank_profile


@dataclass(frozen=True)
class EqSolution:
    """A solved matrix equation with its audit trail."""

    X: ExactMatrix
    case_tag: str
    ranks: tuple[int, ...]
    indices: tuple[int, ...] | None
    residual: ExactMatrix
    # Drazin variants: B (D) is in the prescribed range, i.e. residual zero
    constraint_satisfied: bool | None = None
    intermediates: dict[str, ExactMatrix] = field(default_factory=dict)


# -- least squares ------------------------------------------------------------------


def _solve_one(rule: _CramerRule, a: ExactMatrix, b: ExactMatrix, budget: int | None):
    """X = G B (column rule) or B G (row rule), the residual of A X = B or
    X A = B, and the replacement block as the intermediate.  When r is A's
    row count (column rule) or column count (row rule), AG = I (GA = I), so
    the residual is zero and no product is formed."""
    x, _, block = rule.apply(b, budget)
    if block is None:  # X = 0
        return x, b, {}
    column = rule.side == "column"
    if rule.r == (a.rows if column else a.cols):
        residual = ExactMatrix.zeros(*b.shape)
    else:
        residual = b - a @ x if column else b - x @ a
    return x, residual, {"B_hat" if column else "B_check": block}


def _check_rhs(a: ExactMatrix, b: ExactMatrix, side: str) -> None:
    if side == "column" and b.rows != a.rows:
        raise ValueError(f"B must have {a.rows} rows, got {b.rows}")
    if side == "row" and b.cols != a.cols:
        raise ValueError(f"B must have {a.cols} columns, got {b.cols}")


def _ls_solve(a: ExactMatrix, b: ExactMatrix, side: str, budget: int | None) -> EqSolution:
    """X = A+ B (side "column") or X = B A+ (side "row")."""
    _check_rhs(a, b, side)
    rule = _mp_rule(a, side)
    r, column = rule.r, side == "column"
    full = r == (a.cols if column else a.rows)
    full_tag = "full_column_rank" if column else "full_row_rank"
    tag = "zero_rank" if r == 0 else full_tag if full else "rank_deficient"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (r,), None, residual, None, inter)


def ls_solve_left(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of A X = B, i.e. X = A+ B."""
    return _ls_solve(a, b, "column", budget)


def ls_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of X A = B, i.e. X = B A+."""
    return _ls_solve(a, b, "row", budget)


def _axb_case_tag(r1: int, n: int, r2: int, p: int) -> str:
    if r1 < n and r2 < p:
        return "i"
    if r1 == n and r2 == p:
        return "ii"
    if r1 == n:
        return "iii"
    return "iiii"


def ls_solve_both(
    a: ExactMatrix, b: ExactMatrix, d_rhs: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of A X B = D, i.e. X = A+ D B+."""
    m, n = a.shape
    p, q = b.shape
    if d_rhs.shape != (m, q):
        raise ValueError(f"D must be {m}x{q}, got {d_rhs.shape}")
    left, right = _mp_rule(a, "column"), _mp_rule(b, "row")
    x, residual, inter = _solve_both(left, right, a, b, d_rhs, budget)
    tag = _axb_case_tag(left.r, n, right.r, p)
    return EqSolution(x, tag, (left.r, right.r), None, residual, None, inter)


def _solve_both(left: _CramerRule, right: _CramerRule, a: ExactMatrix, b: ExactMatrix,
                d_rhs: ExactMatrix, budget: int | None):
    """X = G_A (D G_B) from the column rule of A (`left`) and the row rule
    of B (`right`), the residual of A X B = D, and the replacement blocks
    D F_B and F_A (D G_B) as the intermediates.  When a side has rank 0, X
    is zero, the residual is D, and there are no intermediates.  When r is
    A's row count and B's column count, A G_A = I and G_B B = I, so the
    residual is zero and no product is formed."""
    if left.r == 0 or right.r == 0:
        return ExactMatrix.zeros(left.shape[0], right.shape[1]), d_rhs, {}
    y, _, d_check = right.apply(d_rhs, budget)
    x, _, d_hat = left.apply(y, budget)
    if left.r == a.rows and right.r == b.cols:
        residual = ExactMatrix.zeros(*d_rhs.shape)
    else:
        residual = d_rhs - a @ x @ b
    return x, residual, {"D_check": d_check, "D_hat": d_hat}


# -- Drazin ---------------------------------------------------------------------------


def _dz_solve(a: ExactMatrix, b: ExactMatrix, side: str, budget: int | None) -> EqSolution:
    """X = A^D B (side "column") or X = B A^D (side "row")."""
    if not a.is_square:
        raise ValueError("the Drazin solution needs a square coefficient matrix")
    _check_rhs(a, b, side)
    profile = rank_profile(a)
    k = profile.index
    rule = _drazin_rule(profile, side)
    tag = "nilpotent" if rule.r == 0 else "singular" if k else "nonsingular"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (rule.r,), (k,), residual, residual.is_zero(), inter)


def dz_solve_left(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = A^D B of A X = B for square A."""
    return _dz_solve(a, b, "column", budget)


def dz_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = B A^D of X A = B for square A."""
    return _dz_solve(a, b, "row", budget)


def dz_solve_both(
    a: ExactMatrix, b: ExactMatrix, d_rhs: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = A^D D B^D of A X B = D for square A and B."""
    if not a.is_square or not b.is_square:
        raise ValueError("the Drazin solution needs square coefficient matrices")
    n, m = a.rows, b.rows
    if d_rhs.shape != (n, m):
        raise ValueError(f"D must be {n}x{m}, got {d_rhs.shape}")
    pa, pb = rank_profile(a), rank_profile(b)
    k1, k2 = pa.index, pb.index
    left, right = _drazin_rule(pa, "column"), _drazin_rule(pb, "row")
    x, residual, inter = _solve_both(left, right, a, b, d_rhs, budget)
    tag = "nilpotent" if not inter else "singular" if k1 or k2 else "nonsingular"
    # the residual is D - P D Q with P = A A^D and Q = B^D B idempotent, so
    # it is zero exactly when P D = D and D Q = D
    return EqSolution(x, tag, (left.r, right.r), (k1, k2), residual, residual.is_zero(), inter)
