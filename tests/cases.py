"""Frozen golden cases shared across the test suite.

Every expected value here was either taken verbatim from a worked instance or
recomputed with an independent exact method (rank-factorization /
defining-equation oracles); none is a float round-trip.
"""

from fractions import Fraction as F

from exactgi import ExactMatrix, ExactScalar


def sc(re=0, im=0) -> ExactScalar:
    return ExactScalar(F(re), F(im))


def mat(rows) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[e if isinstance(e, ExactScalar) else sc(e) for e in row] for row in rows]
    )


I_ = sc(0, 1)

# -- real 4x4 rank-3 least squares case -----------------------------------------

LS_A = mat(
    [
        [2, 0, -5, 4],
        [7, -4, -9, F(3, 2)],
        [3, -4, 7, F(-13, 2)],
        [1, -4, 12, F(-21, 2)],
    ]
)
LS_Y = ExactMatrix.column([sc(1), sc(2), sc(3), sc(1)])
LS_DENOM = 102060
LS_PINV_NUMERATORS = [
    [25779, -4905, 20742, -5037],
    [-3840, -2880, -4800, -960],
    [28350, -17010, 22680, -5670],
    [39558, -18810, 26484, -13074],
]
LS_PINV = mat([[F(v, LS_DENOM) for v in row] for row in LS_PINV_NUMERATORS])
LS_X0 = ExactMatrix.column(
    [sc(F(12193, 17010)), sc(F(-416, 1701)), sc(F(5, 9)), sc(F(5693, 8505))]
)

# -- 4x4 index-2 Drazin case ------------------------------------------------------

DZ_A = mat(
    [
        [1, -1, 1, 1],
        [0, 1, -1, 1],
        [1, -1, 1, 2],
        [1, -1, 1, 1],
    ]
)
DZ_INDEX = 2
DZ_CORE_RANK = 2
DZ_D2_CUBE = sc(8)  # order-2 principal-minor sum of A^3
DZ_AD = mat(
    [
        [F(1, 2), F(1, 2), F(-1, 2), F(1, 2)],
        [F(7, 4), F(5, 2), F(-5, 2), F(7, 4)],
        [F(5, 4), F(3, 2), F(-3, 2), F(5, 4)],
        [F(1, 2), F(1, 2), F(-1, 2), F(1, 2)],
    ]
)
DZ_Y = ExactMatrix.column([sc(1), sc(2), sc(3), sc(1)])
DZ_XHAT = ExactMatrix.column([sc(F(1, 2)), sc(1), sc(1), sc(F(1, 2))])

# -- complex AXB least squares case ------------------------------------------------

AXB_LS_A = mat([[1, I_, I_], [I_, -1, -1], [0, 1, 0], [-1, 0, -I_]])
AXB_LS_B = mat([[I_, 1, -I_], [-1, I_, 1]])
AXB_LS_D = mat([[1, I_, 1], [I_, 0, 1], [1, I_, 0], [0, 1, I_]])
AXB_LS_GRAM_A_SUM = sc(10)  # order-2 principal minors of A*A
AXB_LS_GRAM_B_SUM = sc(6)  # order-1 principal minors of BB*
# The printed worked answer carries a sign slip in entry (1,1): its own 2x2
# minors sum to +1, and A+ D B+ from the rank-factorization oracle agrees.
AXB_LS_X = mat(
    [
        [sc(F(1, 60)), sc(0, F(-1, 60))],
        [sc(0, F(-1, 30)), sc(F(-1, 30))],
        [sc(0, F(-1, 60)), sc(F(-1, 60))],
    ]
)

# -- complex AXB Drazin case ---------------------------------------------------------

AXB_DZ_A = mat([[2, 0, 0], [-I_, I_, I_], [-I_, -I_, -I_]])
AXB_DZ_B = mat([[1, -1, 1], [I_, -I_, I_], [-1, 1, 2]])
AXB_DZ_D = mat([[1, I_, 1], [I_, 0, 1], [1, I_, 0]])
AXB_DZ_B_SQ_SUM = sc(0, -18)  # order-2 principal minors of B^2
# Entry (1,3): the worked answer's first d^B component is misprinted (exact
# value -24i, not 8), so the entry is 1/6; the Cramer solution and the
# certified Drazin oracle agree.  All other entries match the worked answer.
AXB_DZ_X = mat(
    [
        [sc(F(1, 12), F(1, 12)), sc(F(-1, 12), F(-1, 12)), sc(F(1, 6))],
        [sc(F(1, 12)), sc(F(-1, 12)), sc(F(1, 12), F(-1, 12))],
        [sc(0, F(-1, 12)), sc(0, F(1, 12)), sc(F(-1, 12), F(-1, 12))],
    ]
)

# -- complex ODE case -----------------------------------------------------------------

ODE_A = mat([[1, -1, 1], [I_, -I_, I_], [-1, 1, 2]])
ODE_B = mat([[1, I_, 1], [I_, 0, 1], [1, I_, 0]])
ODE_C0 = mat(
    [
        [sc(F(1, 6), F(1, 6)), sc(F(-1, 6), F(-1, 6)), sc(0)],
        [sc(F(-1, 6), F(1, 6)), sc(F(1, 6), F(-1, 6)), sc(0)],
        [sc(F(2, 3)), sc(F(-1, 6), F(1, 2)), sc(0)],
    ]
)
ODE_C1 = mat(
    [
        [sc(0), sc(F(1, 2), F(1, 2)), sc(1)],
        [sc(0), sc(F(1, 2), F(1, 2)), sc(1)],
        [sc(0), sc(0), sc(0)],
    ]
)
