"""Exact generalized inverses and Cramer-style solvers over Gaussian rationals.

The library computes Moore-Penrose, weighted Moore-Penrose, Drazin, group and
weighted Drazin inverses through minor-sum determinantal formulas, applies
them as componentwise Cramer rules to singular linear systems and to the
matrix equations AX=B, XA=B, AXB=D, and builds exact polynomial partial
solutions of the singular differential equations X'+AX=B and X'+XA=B.

All arithmetic is exact over Gaussian rationals; every identity the library
claims is an equality, never an approximation.
"""

from .scalar import ExactScalar
from .matrix import (
    ExactMatrix,
    RankProfile,
    char_poly_coeffs,
    conj_transpose,
    det,
    index_of,
    inverse,
    rank,
    rank_profile,
)
from .minors import DEFAULT_WORK_BUDGET, BudgetExceededError
from .inverses import (
    EquationReport,
    GiReport,
    VerificationError,
    WeightPair,
    drazin_inverse,
    group_inverse,
    is_hermitian_positive_definite,
    mp_inverse,
    projector,
    verify_defining_equations,
    w_drazin_inverse,
    weighted_mp_inverse,
)
from .oracles import (
    IndexSubset,
    drazin_inverse_oracle,
    enumerate_subsets,
    mp_inverse_oracle,
    principal_minor_sum,
    replaced_col_minor_sum,
    replaced_row_minor_sum,
    subset_count,
)
from .solve import (
    SolveReport,
    drazin_solve,
    drazin_solve_row,
    ls_min_norm_solve,
    ls_min_norm_solve_row,
    w_drazin_solve,
)
from .equations import (
    EqSolution,
    dz_solve_both,
    dz_solve_left,
    dz_solve_right,
    ls_solve_both,
    ls_solve_left,
    ls_solve_right,
)
from .ode import MatrixPoly, ode_left_partial, ode_right_partial, substitute_check
from .documents import (
    DocumentError,
    ScalarParseError,
    parse_matrix_document,
    parse_scalar,
    render_scalar,
    render_scalar_decimal,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_WORK_BUDGET",
    "DocumentError",
    "EqSolution",
    "EquationReport",
    "ExactMatrix",
    "ExactScalar",
    "GiReport",
    "IndexSubset",
    "MatrixPoly",
    "RankProfile",
    "ScalarParseError",
    "SolveReport",
    "VerificationError",
    "WeightPair",
    "char_poly_coeffs",
    "conj_transpose",
    "det",
    "drazin_inverse",
    "drazin_inverse_oracle",
    "drazin_solve",
    "drazin_solve_row",
    "dz_solve_both",
    "dz_solve_left",
    "dz_solve_right",
    "enumerate_subsets",
    "group_inverse",
    "index_of",
    "inverse",
    "is_hermitian_positive_definite",
    "ls_min_norm_solve",
    "ls_min_norm_solve_row",
    "ls_solve_both",
    "ls_solve_left",
    "ls_solve_right",
    "mp_inverse",
    "mp_inverse_oracle",
    "ode_left_partial",
    "ode_right_partial",
    "parse_matrix_document",
    "parse_scalar",
    "principal_minor_sum",
    "projector",
    "rank",
    "rank_profile",
    "render_scalar",
    "render_scalar_decimal",
    "replaced_col_minor_sum",
    "replaced_row_minor_sum",
    "subset_count",
    "substitute_check",
    "verify_defining_equations",
    "w_drazin_inverse",
    "w_drazin_solve",
    "weighted_mp_inverse",
]
