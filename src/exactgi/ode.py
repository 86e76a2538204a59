"""Exact polynomial partial solutions of X' + AX = B and X' + XA = B.

With k the index of the (possibly singular) coefficient matrix A, the
partial solution obtained by dropping the free constant of the general
solution is the degree-<=k matrix polynomial

    X(t) = A^D B + sum_{j=1..k} ((-1)^(j-1)/j!) (A^(j-1)B - A^D A^j B) t^j

(mirrored on the right for X' + XA = B).  The Drazin products A^D A^j B
(or B A^j A^D), j = 0..k, are computed together by minor sums over A^(k+1)
with replacement vectors drawn from the power products A^l B (or B A^l),
never by forming A^D itself.  Substituting the polynomial back into the
equation telescopes to B exactly, which `substitute_check` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, lcm
from typing import Literal

from .matrix import (
    ExactMatrix, _from_int, clear_denominators, inverse, power_products, rank_profile,
)
from .minors import cramer_ratio
from .scalar import ExactScalar

Side = Literal["left", "right"]


def _trim(coefficients: list[ExactMatrix]) -> tuple[ExactMatrix, ...]:
    while len(coefficients) > 1 and coefficients[-1].is_zero():
        coefficients.pop()
    return tuple(coefficients)


@dataclass(frozen=True)
class MatrixPoly:
    """A polynomial in t with matrix coefficients, X(t) = sum C_j t^j.

    Trailing zero coefficients are trimmed at construction, so `degree` is
    exact and structural equality is mathematical equality.
    """

    coefficients: tuple[ExactMatrix, ...]

    def __init__(self, coefficients) -> None:
        coeffs = list(coefficients)
        if not coeffs:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        shape = coeffs[0].shape
        if any(c.shape != shape for c in coeffs):
            raise ValueError("all coefficients must share one shape")
        object.__setattr__(self, "coefficients", _trim(coeffs))

    @property
    def shape(self) -> tuple[int, int]:
        return self.coefficients[0].shape

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return len(self.coefficients) == 1 and self.coefficients[0].is_zero()

    def coefficient(self, j: int) -> ExactMatrix:
        if j < len(self.coefficients):
            return self.coefficients[j]
        rows, cols = self.shape
        return ExactMatrix.zeros(rows, cols)

    def entry_terms(self, i: int, j: int) -> tuple[ExactScalar, ...]:
        """The scalar coefficients of entry (i, j), constant term first,
        trailing zeros trimmed."""
        terms = [c.entry(i, j) for c in self.coefficients]
        while len(terms) > 1 and terms[-1].is_zero():
            terms.pop()
        return tuple(terms)

    def derivative(self) -> "MatrixPoly":
        if self.degree == 0:
            rows, cols = self.shape
            return MatrixPoly([ExactMatrix.zeros(rows, cols)])
        return MatrixPoly(
            [c.scale(j) for j, c in enumerate(self.coefficients) if j >= 1]
        )

    def eval_at(self, t: ExactScalar) -> ExactMatrix:
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc.scale(t) + c
        return acc

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        if self.shape != other.shape:
            raise ValueError("shape mismatch between polynomials")
        length = max(len(self.coefficients), len(other.coefficients))
        return MatrixPoly(
            [self.coefficient(j) + other.coefficient(j) for j in range(length)]
        )

    def __sub__(self, other: "MatrixPoly") -> "MatrixPoly":
        if self.shape != other.shape:
            raise ValueError("shape mismatch between polynomials")
        length = max(len(self.coefficients), len(other.coefficients))
        return MatrixPoly(
            [self.coefficient(j) - other.coefficient(j) for j in range(length)]
        )

    def left_mul(self, matrix: ExactMatrix) -> "MatrixPoly":
        return MatrixPoly([matrix @ c for c in self.coefficients])

    def right_mul(self, matrix: ExactMatrix) -> "MatrixPoly":
        return MatrixPoly([c @ matrix for c in self.coefficients])


def ode_left_partial(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> MatrixPoly:
    """Partial solution of X' + AX = B as a polynomial of degree <= Ind(A)."""
    return _ode_partial(a, b, "left", budget)


def ode_right_partial(
    a: ExactMatrix, b: ExactMatrix, budget: int | None = None
) -> MatrixPoly:
    """Partial solution of X' + XA = B as a polynomial of degree <= Ind(A)."""
    return _ode_partial(a, b, "right", budget)


def _ode_partial(
    a: ExactMatrix, b: ExactMatrix, side: Side, budget: int | None
) -> MatrixPoly:
    if not a.is_square or a.shape != b.shape:
        raise ValueError("coefficient and right-hand side must be square, same size")
    n = a.rows
    profile = rank_profile(a)
    k = profile.index
    if k == 0:
        a_inv = inverse(a)
        return MatrixPoly([a_inv @ b if side == "left" else b @ a_inv])
    r = profile.core_rank
    # power products B^(l): A^l B on the left, B A^l on the right, l = 0..2k
    products = [p for p, _, _ in islice(power_products(a, b, side), 2 * k + 1)]
    # drazin[j] = A^D A^j B (left) or B A^j A^D (right), j = 0..k: one kernel
    # call on the blocks B^(k+j) side by side (left) or on top (right)
    sources = products[k:]
    base = profile.power(k + 1)
    if r == 0:
        drazin = [ExactMatrix.zeros(n, n)] * (k + 1)
    else:
        # the blocks on top of each other (right) or, through transposes,
        # side by side (left); the result splits into blocks the same way
        turn = ExactMatrix.transpose if side == "left" else (lambda m: m)
        stacked = turn(_on_top([turn(p) for p in sources]))
        solved = cramer_ratio(base, r, stacked, "column" if side == "left" else "row", budget)
        x_re, x_im, q = clear_denominators(turn(solved[0]))
        drazin = [
            turn(_from_int(x_re[j * n : (j + 1) * n], x_im[j * n : (j + 1) * n], q))
            for j in range(k + 1)
        ]

    # C_j = ((-1)^(j-1)/j!) (B^(j-1) - drazin[j])
    coefficients = [drazin[0]]
    for j in range(1, k + 1):
        coefficients.append(
            (products[j - 1] - drazin[j]).scale(Fraction((-1) ** (j - 1), factorial(j)))
        )
    return MatrixPoly(coefficients)


def _on_top(blocks: list[ExactMatrix]) -> ExactMatrix:
    # the blocks stacked on top of each other, over their common denominator
    q = lcm(*(clear_denominators(block)[2] for block in blocks))
    re: list = []
    im: list = []
    for block in blocks:
        b_re, b_im, qb = clear_denominators(block)
        re += [[x * (q // qb) for x in row] for row in b_re]
        im += [[y * (q // qb) for y in row] for row in b_im]
    return _from_int(re, im, q)


def substitute_check(
    poly: MatrixPoly, a: ExactMatrix, b: ExactMatrix, side: Side
) -> tuple[bool, MatrixPoly]:
    """Substitute X(t) into X' + AX - B (or X' + XA - B) and report whether
    the residual polynomial is identically zero."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if poly.shape != a.shape or a.shape != b.shape:
        raise ValueError("shapes of polynomial, coefficient and right side differ")
    product = poly.left_mul(a) if side == "left" else poly.right_mul(a)
    residual = poly.derivative() + product - MatrixPoly([b])
    return residual.is_zero(), residual
