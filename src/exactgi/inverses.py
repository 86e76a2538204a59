"""Generalized inverses by minor-sum determinantal formulas.

Moore-Penrose, weighted Moore-Penrose, Drazin, group and weighted Drazin
inverses, the four projector formulas, and the defining-equation verifiers.
The independent references they are checked against live in `oracles`.

Every generalized inverse G here is one Cramer rule: the generalized
adjugate L_r of a square base (`minors.cramer_ratio`), applied to a factor
times the block B and divided once by the principal-minor sum d_r,

    G B = L_r(base) (factor B) / d_r      on the column side,
    B G = (B factor) L_r(base) / d_r      on the row side,

and G itself when B is left out.  `_CramerRule` states it once per G for the
inverses, the projectors, the solvers of `solve` and `equations`, and `ode`:

    inverse               column side: base, factor   row side: base, factor
    A+                    A*A, A*                     AA*, A*
    weighted A+ (M, N)    A#A, A# = N^-1 A* M         none
    A^D, k = Ind(A)       A^(k+1), A^k                A^(k+1), A^k
    group (index <= 1)    A^2, A                      none
    W-weighted Drazin     (AW)^(k+2), (AW)^k A        (WA)^(k+2), A (WA)^k

A full-rank input takes the same path (the subset family is a singleton: the
classical adjugate ratio).  Rank-0 and nilpotent inputs give the zero matrix,
the unique solution of the defining equations, building no base or factor.
The projectors A+A, AA+, AA^D and A^D A are the rules of A+ and A^D applied
to A itself; factor A (A factor on the row side) is the base, so the base
serves as its own replacement block.  All functions are pure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .matrix import (
    ExactMatrix,
    RankProfile,
    _eliminate,
    clear_denominators,
    inverse,
    rank,
    rank_profile,
)
from .minors import cramer_ratio
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
    # the leading minors of the image (q > 0 keeps their signs) off one
    # Bareiss run: with no row exchange, pivot k is the leading minor of
    # order k + 1, and a zero leading minor forces an exchange or leaves a
    # column without a pivot
    n = matrix.rows
    re, im, _ = clear_denominators(matrix)
    ar, ai, _, _, pivots, _, orig = _eliminate(re, im, n, False)
    return (orig == list(range(n)) and len(pivots) == n
            and all(ar[k][k] > 0 and not ai[k][k] for k in range(n)))


def _resolve_form(form: Form, column_order: int, row_order: int) -> str:
    # "auto" takes the smaller base, the column side on a tie; at every rank
    # that is also the side with the smaller kernel_work estimate
    if form == "auto":
        return "column" if column_order <= row_order else "row"
    if form not in ("column", "row"):
        raise ValueError(f"unknown form {form!r}")
    return form


class _CramerRule(NamedTuple):
    """The Cramer rule of one generalized inverse G (see the module
    docstring): its side, the order r of the minor sums, the index k, the
    shape of G, and `parts()`, which builds (base, factor), so that a rank-0
    rule builds neither."""

    side: str
    r: int
    k: int
    shape: tuple[int, int]
    parts: Callable[[], tuple[ExactMatrix, ExactMatrix]]

    @property
    def order(self) -> int:
        """The order of the base."""
        return self.shape[0] if self.side == "column" else self.shape[1]

    def apply(self, block: ExactMatrix | None = None, budget: int | None = None):
        """(G B, d_r, factor B) on the column side, (B G, d_r, B factor) on the
        row side, with G in place of G B when `block` is None.  At rank 0 the
        product is zero, d_r is 1 and the replacement block is None."""
        if self.r == 0:
            rows, cols = self.shape
            if block is not None:
                rows, cols = (rows, block.cols) if self.side == "column" else (block.rows, cols)
            return ExactMatrix.zeros(rows, cols), ONE, None
        base, vectors = self.parts()
        if block is not None:
            vectors = vectors @ block if self.side == "column" else block @ vectors
        return (*cramer_ratio(base, self.r, vectors, self.side, budget), vectors)

    def report(self, budget: int | None) -> GiReport:
        x, d, _ = self.apply(None, budget)
        if self.r == self.order:
            rep = FULL_RANK_ADJOINT
        else:
            rep = ROW_FORM if self.side == "row" and self.r else COLUMN_FORM
        return GiReport(x, self.r, self.k, rep, d)


def _mp_rule(matrix: ExactMatrix, form: Form) -> _CramerRule:
    m, n = matrix.shape
    r = rank(matrix)
    side = _resolve_form(form, n, m)  # A*A is n x n, AA* is m x m

    def parts():
        a_star = matrix.conj_transpose()
        return (a_star @ matrix if side == "column" else matrix @ a_star), a_star

    return _CramerRule(side, r, 0, (n, m), parts)


def _drazin_rule(profile: RankProfile, form: Form) -> _CramerRule:
    k = profile.index
    n = profile.matrix.rows
    side = _resolve_form(form, n, n)
    return _CramerRule(
        side, profile.core_rank, k, (n, n), lambda: (profile.power(k + 1), profile.power(k))
    )


def _w_drazin_rule(
    matrix: ExactMatrix, weight: ExactMatrix, form: Form
) -> tuple[_CramerRule, RankProfile]:
    """The rule of the W-weighted Drazin inverse, and the rank profile of WA."""
    m, n = matrix.shape
    if weight.shape != (n, m):
        raise ValueError(f"weight must be {n}x{m} for a {m}x{n} matrix")
    aw = rank_profile(matrix @ weight)
    wa = rank_profile(weight @ matrix)
    k = max(aw.index, wa.index)
    r = aw.core_rank  # rank((AW)^k): k >= Ind(AW)
    side = _resolve_form(form, m, n)  # (AW)^(k+2) is m x m, (WA)^(k+2) n x n

    def parts():
        if side == "column":
            return aw.power(k + 2), aw.power(k) @ matrix
        return wa.power(k + 2), matrix @ wa.power(k)

    return _CramerRule(side, r, k, (m, n), parts), wa


# -- Moore-Penrose ---------------------------------------------------------------


def mp_inverse(
    matrix: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
) -> GiReport:
    """Moore-Penrose inverse by minor sums over A*A (column form) or AA*
    (row form)."""
    return _mp_rule(matrix, form).report(budget)


# -- weighted Moore-Penrose --------------------------------------------------------


def weighted_mp_inverse(
    matrix: ExactMatrix,
    weights: WeightPair,
    budget: int | None = None,
) -> GiReport:
    """Weighted Moore-Penrose inverse by minor sums over the weighted Gram
    matrix built from N^(-1)A*M.  Only the column-style representation
    exists; there is no row analogue."""
    m, n = matrix.shape
    if weights.M.shape != (m, m) or weights.N.shape != (n, n):
        raise ValueError(
            f"weights must be {m}x{m} and {n}x{n} for a {m}x{n} matrix"
        )

    def parts():
        a_sharp = inverse(weights.N) @ matrix.conj_transpose() @ weights.M
        return a_sharp @ matrix, a_sharp

    return _CramerRule("column", rank(matrix), 0, (n, m), parts).report(budget)


# -- Drazin and group -----------------------------------------------------------


def drazin_inverse(
    matrix: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
) -> GiReport:
    """Drazin inverse by minor sums over A^(k+1) with replacement vectors
    taken from A^k, k = Ind(A)."""
    if not matrix.is_square:
        raise ValueError("the Drazin inverse needs a square matrix")
    return _drazin_rule(rank_profile(matrix), form).report(budget)


def group_inverse(matrix: ExactMatrix, budget: int | None = None) -> GiReport:
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
    # core_rank is rank(A^2): the index is at most 1
    return _CramerRule(
        "column", profile.core_rank, profile.index, (n, n), lambda: (profile.power(2), matrix)
    ).report(budget)


# -- weighted Drazin ---------------------------------------------------------------


def w_drazin_inverse(
    matrix: ExactMatrix,
    weight: ExactMatrix,
    form: Form = "auto",
    budget: int | None = None,
) -> GiReport:
    """Weighted Drazin inverse of a rectangular A with respect to W, by minor
    sums over (AW)^(k+2) with columns of (AW)^k A, or over (WA)^(k+2) with
    rows of A(WA)^k; k = max(Ind(AW), Ind(WA))."""
    return _w_drazin_rule(matrix, weight, form)[0].report(budget)


# -- projectors ---------------------------------------------------------------------


ProjectorKind = Literal["in", "out", "drazin_left", "drazin_right"]


def projector(
    matrix: ExactMatrix, which: ProjectorKind, budget: int | None = None
) -> ExactMatrix:
    """Projection matrices computed directly by minor sums, never by
    multiplying inverses: the rule of A+ or A^D applied to A itself, whose
    replacement vectors are the base's own columns (or rows):

    * ``in``           A+A   (onto the row space)
    * ``out``          AA+   (onto the column space)
    * ``drazin_left``  AA^D
    * ``drazin_right`` A^D A
    """
    if which in ("in", "out"):
        rule = _mp_rule(matrix, "column" if which == "in" else "row")
    elif which in ("drazin_left", "drazin_right"):
        if not matrix.is_square:
            raise ValueError("Drazin projectors need a square matrix")
        rule = _drazin_rule(rank_profile(matrix), "row" if which == "drazin_left" else "column")
    else:
        raise ValueError(f"unknown projector kind {which!r}")
    if rule.r == 0:
        return rule.apply(matrix, budget)[0]
    # factor A (A factor on the row side) is the base itself: A*A, AA*, A^(k+1)
    base, _ = rule.parts()
    return cramer_ratio(base, rule.r, base, rule.side, budget)[0]


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
