"""The independent references the operations are checked against.

No operation imports this module.  It shares with them only the matrix
arithmetic, the elimination, the work guard and the defining-equation
verifier.

Enumeration: the paper's minor sums taken literally, one determinant per
r-subset, over Gaussian integers after clearing denominators once per call.
`principal_minor_sum` is the plain sum d_r; `replaced_col_minor_sum` sums
over the subsets containing column i with column i of M replaced by a
vector, and `replaced_row_minor_sum` is its row dual.  Subsets stream in
lexicographic order.  Each call has its own work guard: (number of r-by-r
minors) * r^2 submatrix entries touched.

Rank factorization: `mp_inverse_oracle` and `drazin_inverse_oracle`, which
take no minor sum.  The trace recurrence of `char_poly_coeffs` is the third
path to the same values.

Space membership: `column_space_contains` and `row_space_contains` compare
ranks, the range test the Drazin solvers read off their residuals instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .inverses import VerificationError, verify_defining_equations
from .matrix import (
    ExactMatrix,
    _from_int,
    _spanning_lines,
    clear_denominators,
    int_det,
    int_rank,
    inverse,
    rank,
    rank_profile,
)
from .minors import check_budget
from .scalar import ONE, ExactScalar


@dataclass(frozen=True)
class IndexSubset:
    """A strictly increasing tuple of 1-based indices drawn from 1..universe."""

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        if any(not 1 <= v <= self.universe for v in self.indices):
            raise ValueError(f"indices {self.indices} outside 1..{self.universe}")
        if any(a >= b for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices {self.indices} are not strictly increasing")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, value: int) -> bool:
        return value in self.indices


def _check_subsets(k: int, n: int, required: int | None) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"subset size {k} outside 0..{n}")
    if required is not None and not 1 <= required <= n:
        raise ValueError(f"required index {required} outside 1..{n}")


def subset_count(k: int, n: int, required: int | None = None) -> int:
    """C(n, k), or C(n-1, k-1) when one index is pinned: the length of
    `enumerate_subsets(k, n, required)`, with the same range check."""
    _check_subsets(k, n, required)
    if required is None:
        return comb(n, k)
    return comb(n - 1, k - 1) if k else 0


def enumerate_subsets(
    k: int, n: int, required: int | None = None
) -> Iterator[IndexSubset]:
    """All k-subsets of 1..n in lexicographic order, optionally restricted to
    subsets containing `required`; out-of-range arguments raise at the call."""
    _check_subsets(k, n, required)
    if required is None:
        return (IndexSubset(combo, n) for combo in combinations(range(1, n + 1), k))
    if k == 0:
        return iter(())  # no 0-subset contains a required index
    rest = [v for v in range(1, n + 1) if v != required]
    return (IndexSubset(tuple(sorted((*combo, required))), n)
            for combo in combinations(rest, k - 1))


# -- enumeration over Gaussian integers ---------------------------------------


def _sum_minors(re_rows, im_rows, q: int, r: int, required: int | None) -> ExactScalar:
    n = len(re_rows)
    total_re = 0
    total_im = 0
    for subset in enumerate_subsets(r, n, required):
        idx = [v - 1 for v in subset.indices]
        sub_re = [[re_rows[a][b] for b in idx] for a in idx]
        sub_im = [[im_rows[a][b] for b in idx] for a in idx]
        dr, di = int_det(sub_re, sub_im)
        total_re += dr
        total_im += di
    scale = Fraction(1, q) ** r
    return ExactScalar(total_re * scale, total_im * scale)


def _as_vector(values: Sequence[ExactScalar] | ExactMatrix, n: int, what: str):
    if isinstance(values, ExactMatrix):
        if values.cols == 1:
            values = values.col(1)
        elif values.rows == 1:
            values = values.row(1)
        else:
            raise ValueError(f"{what} must be a vector, got {values.shape}")
    if len(values) != n:
        raise ValueError(f"{what} has length {len(values)}, expected {n}")
    return list(values)


# -- the three primitives -------------------------------------------------------


def principal_minor_sum(matrix: ExactMatrix, r: int, budget: int | None = None) -> ExactScalar:
    """Sum of all r-by-r principal minors; 1 for r = 0."""
    if not matrix.is_square:
        raise ValueError("principal minors need a square matrix")
    n = matrix.rows
    if not 0 <= r <= n:
        raise ValueError(f"minor order {r} outside 0..{n}")
    if r == 0:
        return ONE
    check_budget(subset_count(r, n) * r * r, budget)
    re_rows, im_rows, q = clear_denominators(matrix)
    return _sum_minors(re_rows, im_rows, q, r, None)


def replaced_col_minor_sum(
    matrix: ExactMatrix, i: int, vector: Sequence[ExactScalar] | ExactMatrix, r: int,
    budget: int | None = None,
) -> ExactScalar:
    """Sum over all r-subsets containing column i of the principal minors of
    M with column i replaced by the vector."""
    return _replaced_minor_sum(matrix, i, vector, r, budget, "column")


def replaced_row_minor_sum(
    matrix: ExactMatrix, j: int, vector: Sequence[ExactScalar] | ExactMatrix, r: int,
    budget: int | None = None,
) -> ExactScalar:
    """Row dual: sum over all r-subsets containing row j of the principal
    minors of M with row j replaced by the vector."""
    return _replaced_minor_sum(matrix, j, vector, r, budget, "row")


def _replaced_minor_sum(matrix, index, vector, r, budget, line: str) -> ExactScalar:
    if not matrix.is_square:
        raise ValueError("replaced minor sums need a square matrix")
    n = matrix.rows
    if not 1 <= index <= n:
        raise ValueError(f"{line} index {index} outside 1..{n}")
    if not 1 <= r <= n:
        raise ValueError(f"minor order {r} outside 1..{n}")
    values = _as_vector(vector, n, f"replacement {line}")
    check_budget(subset_count(r, n, index) * r * r, budget)
    replace = matrix.replace_col if line == "column" else matrix.replace_row
    re_rows, im_rows, q = clear_denominators(replace(index, values))
    return _sum_minors(re_rows, im_rows, q, r, index)


# -- rank factorization -----------------------------------------------------------


def mp_inverse_oracle(matrix: ExactMatrix) -> ExactMatrix:
    """Independent Moore-Penrose computation via exact rank factorization.

    One Bareiss run on A finds pivot rows I and pivot columns J
    (`matrix._spanning_lines`).  C = A[:, J] has full column rank,
    F = A[I, :] full row rank, and A = C A[I, J]^(-1) F, so
    A+ = F*(C*AF*)^(-1)C*.  C and F are sliced from the image of A."""
    m, n = matrix.shape
    a_re, a_im, q = clear_denominators(matrix)
    rows, cols = _spanning_lines(a_re, a_im, range(m), range(n))
    if not rows:
        return ExactMatrix.zeros(n, m)
    c = _from_int([[row[j] for j in cols] for row in a_re],
                  [[row[j] for j in cols] for row in a_im], q)
    f = _from_int([a_re[i] for i in rows], [a_im[i] for i in rows], q)
    f_star = f.conj_transpose()
    c_star = c.conj_transpose()
    return f_star @ inverse(c_star @ matrix @ f_star) @ c_star


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


# -- space membership ---------------------------------------------------------------


def column_space_contains(matrix: ExactMatrix, candidate: ExactMatrix) -> bool:
    """Exact membership of candidate's columns in the column space."""
    if candidate.rows != matrix.rows:
        raise ValueError("column counts do not line up for membership test")
    # scaling a block keeps the rank, so the images join as they are
    joined_re = [a + c for a, c in zip(matrix._re, candidate._re)]
    joined_im = [a + c for a, c in zip(matrix._im, candidate._im)]
    return int_rank(joined_re, joined_im) == rank(matrix)


def row_space_contains(matrix: ExactMatrix, candidate: ExactMatrix) -> bool:
    """Exact membership of candidate's rows in the row space."""
    if candidate.cols != matrix.cols:
        raise ValueError("row lengths do not line up for membership test")
    return int_rank(matrix._re + candidate._re, matrix._im + candidate._im) == rank(matrix)
