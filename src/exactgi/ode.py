"""Exact polynomial partial solutions of X' + AX = B and X' + XA = B.

With k the index of the (possibly singular) coefficient matrix A, the
partial solution obtained by dropping the free constant of the general
solution is the degree-<=k matrix polynomial

    X(t) = A^D B + sum_{j=1..k} ((-1)^(j-1)/j!) (A^(j-1)B - A^D A^j B) t^j

(mirrored on the right for X' + XA = B).  Only its constant term needs a
Cramer evaluation: X0 = A^D B is the Drazin solution of A X = B, the Drazin
rule (`inverses._CramerRule`) applied to B, and its residual E = B - A X0
is (I - A A^D) B.  Because A^D commutes with A,

    A^(j-1)B - A^D A^j B = A^(j-1) (B - A A^D B) = A^(j-1) E,

so the higher coefficients C_j = ((-1)^(j-1)/j!) A^(j-1) E, j = 1..k, are
the power chain on E, exactly (E A^(j-1) on the right, with X0 = B A^D and
E = B - X0 A).  A nonsingular A has k = 0 and E = 0, leaving X = A^(-1) B;
a nilpotent one has X0 = 0 and E = B.  Substituting the polynomial back into
the equation telescopes to B exactly, which `substitute_check` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add, sub
from typing import Literal

from .equations import _solve_one
from .inverses import _drazin_rule
from .matrix import ExactMatrix, _Packing, rank_profile
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
        if j < 0:
            raise ValueError("a polynomial has no coefficient of negative degree")
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

    def _combine(self, other: "MatrixPoly", op) -> "MatrixPoly":
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch between polynomials")
        length = max(len(self.coefficients), len(other.coefficients))
        return MatrixPoly(
            [op(self.coefficient(j), other.coefficient(j)) for j in range(length)]
        )

    def __add__(self, other: "MatrixPoly") -> "MatrixPoly":
        return self._combine(other, add)

    def __sub__(self, other: "MatrixPoly") -> "MatrixPoly":
        return self._combine(other, sub)

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
    profile = rank_profile(a)
    rule = _drazin_rule(profile, "column" if side == "left" else "row")
    # X0 = A^D B and E = B - A X0 (left), or X0 = B A^D and E = B - X0 A (right)
    x0, e, _ = _solve_one(rule, a, b, budget)
    # C_j = ((-1)^(j-1)/j!) A^(j-1) E (or E A^(j-1)), j = 1..k.  Both chains
    # multiply by one fixed right factor, packed once: E, by the profile's
    # powers A^(j-1), on the left; A, on the right.
    chain = [e] if rule.k else []
    packing = _Packing()
    for j in range(1, rule.k):
        chain.append(profile.power(j).__matmul__(e, packing) if side == "left"
                     else chain[-1].__matmul__(a, packing))
    return MatrixPoly(
        [x0] + [p.scale(Fraction((-1) ** j, factorial(j + 1))) for j, p in enumerate(chain)]
    )


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
