"""Cramer-style solvers for the matrix equations AX=B, XA=B and AXB=D.

Least squares variants produce the minimum-norm least squares solution
(A+B, BA+, A+DB+); Drazin variants produce A^D B, B A^D and A^D D B^D.
Every entry of X is a ratio of minor sums; no inverse is ever formed.  Each
solver evaluates the Cramer rule of its inverse (`inverses._CramerRule`) on
B, or, for AXB=D, the column rule of A and the row rule of B on D.

For AXB=D the rank pattern of (A, B) picks one of four formula branches.
All four run through the same minor-sum code path (a full-rank side makes
the constrained subset family a singleton, turning the sums into single
determinants); the branch is recorded in `case_tag` for auditability.
Within a branch the two published formulas (contract the B side first into
d^B columns, or the A side first into d^A rows) must agree; `route` selects
one, and tests exercise both.

Consistency of the original equation is reported through the exact residual;
the solvers never reject an inconsistent system (least squares semantics).
The Drazin variants report, not enforce, that B lies in the range of A^k
(its row space for XA=B), and read it off the same residual: A A^D projects
onto R(A^k) along N(A^k), so (I - A A^D) B is zero exactly when it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .inverses import _CramerRule, _drazin_rule, _mp_rule
from .matrix import ExactMatrix, _divided, rank_profile
from .minors import adjugate_product

Route = Literal["auto", "dB", "dA"]


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
    a: ExactMatrix,
    b: ExactMatrix,
    d_rhs: ExactMatrix,
    route: Route = "auto",
    budget: int | None = None,
) -> EqSolution:
    """Minimum-norm least squares solution of A X B = D, i.e. X = A+ D B+."""
    m, n = a.shape
    p, q = b.shape
    if d_rhs.shape != (m, q):
        raise ValueError(f"D must be {m}x{q}, got {d_rhs.shape}")
    left, right = _mp_rule(a, "column"), _mp_rule(b, "row")
    x, inter = _contract_both(left, right, d_rhs, route, budget)
    tag = _axb_case_tag(left.r, n, right.r, p)
    residual = d_rhs - a @ x @ b if inter else d_rhs
    return EqSolution(x, tag, (left.r, right.r), None, residual, None, inter)


def _contract_both(
    left: _CramerRule,
    right: _CramerRule,
    d_rhs: ExactMatrix,
    route: Route,
    budget: int | None,
) -> tuple[ExactMatrix, dict[str, ExactMatrix]]:
    """Shared two-stage contraction for the AXB solvers: X = L1 D~ L2 / (d1 d2)
    with D~ = F1 D F2, from the column rule (L1, d1, F1) of the A side and the
    row rule (L2, d2, F2) of the B side.

    The intermediates are D~ and the first stage's undivided sums; there are
    none when a side has rank 0, and X is zero.
    """
    if route not in ("auto", "dB", "dA"):
        raise ValueError(f"unknown route {route!r}")
    if left.r == 0 or right.r == 0:
        return ExactMatrix.zeros(left.shape[0], right.shape[1]), {}
    left_base, left_factor = left.parts()
    right_base, right_factor = right.parts()
    d_tilde = left_factor @ d_rhs @ right_factor
    if route == "dA":
        d_a, d_left = adjugate_product(left_base, left.r, d_tilde, "column", budget)
        x, d_right = adjugate_product(right_base, right.r, d_a, "row", budget)
        inter = {"d_A": d_a}
    else:
        d_b, d_right = adjugate_product(right_base, right.r, d_tilde, "row", budget)
        x, d_left = adjugate_product(left_base, left.r, d_b, "column", budget)
        inter = {"d_B": d_b}
    inter["D_tilde"] = d_tilde
    return _divided(x, d_left * d_right), inter


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
    a: ExactMatrix,
    b: ExactMatrix,
    d_rhs: ExactMatrix,
    route: Route = "auto",
    budget: int | None = None,
) -> EqSolution:
    """Drazin solution X = A^D D B^D of A X B = D for square A and B."""
    if not a.is_square or not b.is_square:
        raise ValueError("the Drazin solution needs square coefficient matrices")
    n = a.rows
    m = b.rows
    if d_rhs.shape != (n, m):
        raise ValueError(f"D must be {n}x{m}, got {d_rhs.shape}")
    pa = rank_profile(a)
    pb = rank_profile(b)
    k1, k2 = pa.index, pb.index
    left, right = _drazin_rule(pa, "column"), _drazin_rule(pb, "row")
    x, inter = _contract_both(left, right, d_rhs, route, budget)
    tag = "nilpotent" if not inter else "singular" if k1 or k2 else "nonsingular"
    # the residual is D - P D Q with P = A A^D and Q = B^D B idempotent, so
    # it is zero exactly when P D = D and D Q = D
    residual = d_rhs - a @ x @ b if inter else d_rhs
    return EqSolution(x, tag, (left.r, right.r), (k1, k2), residual, residual.is_zero(), inter)
