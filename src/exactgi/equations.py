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
Subspace preconditions of the Drazin variants are diagnosed exactly and
reported, not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .inverses import _CramerRule, _drazin_rule, _mp_rule
from .matrix import ExactMatrix, _divided, _spans, rank_profile
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


def ls_solve_left(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of A X = B, i.e. X = A+ B."""
    m, n = a.shape
    if b.rows != m:
        raise ValueError(f"B must have {m} rows, got {b.rows}")
    rule = _mp_rule(a, "column")
    r = rule.r
    tag = "zero_rank" if r == 0 else "full_column_rank" if r == n else "rank_deficient"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (r,), None, residual, None, inter)


def ls_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of X A = B, i.e. X = B A+."""
    m, n = a.shape
    if b.cols != n:
        raise ValueError(f"B must have {n} columns, got {b.cols}")
    rule = _mp_rule(a, "row")
    r = rule.r
    tag = "zero_rank" if r == 0 else "full_row_rank" if r == m else "rank_deficient"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (r,), None, residual, None, inter)


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


def dz_solve_left(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = A^D B of A X = B for square A."""
    if not a.is_square:
        raise ValueError("the Drazin solution needs a square coefficient matrix")
    n = a.rows
    if b.rows != n:
        raise ValueError(f"B must have {n} rows, got {b.rows}")
    profile = rank_profile(a)
    k = profile.index
    constraint = _spans(profile.power(k), b, "column", profile.core_rank)
    rule = _drazin_rule(profile, "column")
    tag = "nilpotent" if rule.r == 0 else "singular" if k else "nonsingular"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (rule.r,), (k,), residual, constraint, inter)


def dz_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = B A^D of X A = B for square A."""
    if not a.is_square:
        raise ValueError("the Drazin solution needs a square coefficient matrix")
    m = a.rows
    if b.cols != m:
        raise ValueError(f"B must have {m} columns, got {b.cols}")
    profile = rank_profile(a)
    k = profile.index
    constraint = _spans(profile.power(k), b, "row", profile.core_rank)
    rule = _drazin_rule(profile, "row")
    tag = "nilpotent" if rule.r == 0 else "singular" if k else "nonsingular"
    x, residual, inter = _solve_one(rule, a, b, budget)
    return EqSolution(x, tag, (rule.r,), (k,), residual, constraint, inter)


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
    constraint = _spans(pa.power(k1), d_rhs, "column", pa.core_rank) and _spans(
        pb.power(k2), d_rhs, "row", pb.core_rank
    )
    left, right = _drazin_rule(pa, "column"), _drazin_rule(pb, "row")
    x, inter = _contract_both(left, right, d_rhs, route, budget)
    tag = "nilpotent" if not inter else "singular" if k1 or k2 else "nonsingular"
    residual = d_rhs - a @ x @ b if inter else d_rhs
    return EqSolution(x, tag, (left.r, right.r), (k1, k2), residual, constraint, inter)
