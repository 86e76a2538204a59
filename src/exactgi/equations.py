"""Cramer-style solvers for the matrix equations AX=B, XA=B and AXB=D.

Least squares variants produce the minimum-norm least squares solution
(A+B, BA+, A+DB+); Drazin variants produce A^D B, B A^D and A^D D B^D.
Every entry of X is a ratio of minor sums; no inverse is ever formed.

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

from .matrix import (
    ExactMatrix,
    column_space_contains,
    rank,
    rank_profile,
    row_space_contains,
)
from .minors import adjugate_product, cramer_ratio
from .scalar import ONE

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


def ls_solve_left(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of A X = B, i.e. X = A+ B."""
    m, n = a.shape
    if b.rows != m:
        raise ValueError(f"B must have {m} rows, got {b.rows}")
    s = b.cols
    r = rank(a)
    if r == 0:
        x = ExactMatrix.zeros(n, s)
        return EqSolution(x, "zero_rank", (r,), None, b - a @ x)
    a_star = a.conj_transpose()
    b_hat = a_star @ b
    x, _ = cramer_ratio(a_star @ a, r, b_hat, "column", budget)
    tag = "full_column_rank" if r == n else "rank_deficient"
    return EqSolution(x, tag, (r,), None, b - a @ x, None, {"B_hat": b_hat})


def ls_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Minimum-norm least squares solution of X A = B, i.e. X = B A+."""
    m, n = a.shape
    if b.cols != n:
        raise ValueError(f"B must have {n} columns, got {b.cols}")
    s = b.rows
    r = rank(a)
    if r == 0:
        x = ExactMatrix.zeros(s, m)
        return EqSolution(x, "zero_rank", (r,), None, b - x @ a)
    a_star = a.conj_transpose()
    b_check = b @ a_star
    x, _ = cramer_ratio(a @ a_star, r, b_check, "row", budget)
    tag = "full_row_rank" if r == m else "rank_deficient"
    return EqSolution(x, tag, (r,), None, b - x @ a, None, {"B_check": b_check})


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
    r1 = rank(a)
    r2 = rank(b)
    tag = _axb_case_tag(r1, n, r2, p)
    if r1 == 0 or r2 == 0:
        x = ExactMatrix.zeros(n, p)
        return EqSolution(x, tag, (r1, r2), None, d_rhs - a @ x @ b)
    a_star, b_star = a.conj_transpose(), b.conj_transpose()
    gram_a = a_star @ a  # n x n
    gram_b = b @ b_star  # p x p
    d_tilde = a_star @ d_rhs @ b_star  # n x p
    x, inter = _contract_both(gram_a, r1, gram_b, r2, d_tilde, route, budget)
    inter["D_tilde"] = d_tilde
    return EqSolution(x, tag, (r1, r2), None, d_rhs - a @ x @ b, None, inter)


def _contract_both(
    left: ExactMatrix,
    r1: int,
    right: ExactMatrix,
    r2: int,
    d_tilde: ExactMatrix,
    route: Route,
    budget: int | None,
) -> tuple[ExactMatrix, dict[str, ExactMatrix]]:
    """Shared two-stage contraction for the AXB solvers: X = L1 D~ L2 / (d1 d2).

    left is the n x n matrix whose column-replaced sums give the A side,
    right the p x p matrix whose row-replaced sums give the B side.  The
    first stage's undivided sums are returned as the intermediate.
    """
    if route not in ("auto", "dB", "dA"):
        raise ValueError(f"unknown route {route!r}")
    if route == "dA":
        d_a, d_left = adjugate_product(left, r1, d_tilde, "column", budget)
        x, d_right = adjugate_product(right, r2, d_a, "row", budget)
        inter = {"d_A": d_a}
    else:
        d_b, d_right = adjugate_product(right, r2, d_tilde, "row", budget)
        x, d_left = adjugate_product(left, r1, d_b, "column", budget)
        inter = {"d_B": d_b}
    return x.scale(ONE / (d_left * d_right)), inter


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
    s = b.cols
    profile = rank_profile(a)
    k = profile.index
    r = profile.core_rank
    constraint = column_space_contains(profile.power(k), b)
    if r == 0:
        x = ExactMatrix.zeros(n, s)
        return EqSolution(x, "nilpotent", (r,), (k,), b - a @ x, constraint)
    b_hat = profile.power(k) @ b
    x, _ = cramer_ratio(profile.power(k + 1), r, b_hat, "column", budget)
    tag = "nonsingular" if k == 0 else "singular"
    return EqSolution(x, tag, (r,), (k,), b - a @ x, constraint, {"B_hat": b_hat})


def dz_solve_right(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> EqSolution:
    """Drazin solution X = B A^D of X A = B for square A."""
    if not a.is_square:
        raise ValueError("the Drazin solution needs a square coefficient matrix")
    m = a.rows
    if b.cols != m:
        raise ValueError(f"B must have {m} columns, got {b.cols}")
    s = b.rows
    profile = rank_profile(a)
    k = profile.index
    r = profile.core_rank
    constraint = row_space_contains(profile.power(k), b)
    if r == 0:
        x = ExactMatrix.zeros(s, m)
        return EqSolution(x, "nilpotent", (r,), (k,), b - x @ a, constraint)
    b_check = b @ profile.power(k)
    x, _ = cramer_ratio(profile.power(k + 1), r, b_check, "row", budget)
    tag = "nonsingular" if k == 0 else "singular"
    return EqSolution(x, tag, (r,), (k,), b - x @ a, constraint, {"B_check": b_check})


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
    r1, r2 = pa.core_rank, pb.core_rank
    constraint = column_space_contains(pa.power(k1), d_rhs) and row_space_contains(
        pb.power(k2), d_rhs
    )
    if r1 == 0 or r2 == 0:
        x = ExactMatrix.zeros(n, m)
        return EqSolution(x, "nilpotent", (r1, r2), (k1, k2), d_rhs - a @ x @ b, constraint)
    d_tilde = pa.power(k1) @ d_rhs @ pb.power(k2)
    x, inter = _contract_both(
        pa.power(k1 + 1), r1, pb.power(k2 + 1), r2, d_tilde, route, budget
    )
    inter["D_tilde"] = d_tilde
    tag = "nonsingular" if k1 == 0 and k2 == 0 else "singular"
    return EqSolution(x, tag, (r1, r2), (k1, k2), d_rhs - a @ x @ b, constraint, inter)
