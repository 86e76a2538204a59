"""Dense matrices over Gaussian rationals, with exact products, rank,
determinant, characteristic-polynomial coefficients and matrix index.

Matrix products, scalings and power chains run on cleared Gaussian
integers, with `ExactScalar` only at their ends.  A product clears each
operand's denominators once (`clear_denominators`), multiplies the integer
images row by column (`int_matmul`) and divides by the product of the two
denominators once per entry; `scale` does the same with the cleared factor.
Power chains (`power_products`, used by `rank_profile` and the ODE
solutions) stay in the integers between steps: A^l B is
A_int^l B_int / (q_A^l q_B), so each new power is one integer product.
`rank_profile` takes each power's rank on its integer image directly and
builds a power as an `ExactMatrix` only when a caller reads it.

Rank and determinant run fraction-free (Bareiss) over Gaussian integers after
clearing denominators, which bounds intermediate bit growth.  The
characteristic-polynomial coefficients come from the trace recurrence
(Faddeev-LeVerrier), an O(n^4) path that never enumerates minors, so it can
serve as an independent cross-check for the minor-sum primitives.

Public matrix indices are 1-based throughout the package; only internal row
lists are 0-based.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import lcm
from operator import mul

from .scalar import ONE, ZERO, ExactScalar, RationalLike

EntryLike = ExactScalar | RationalLike


def _as_scalar(value: EntryLike) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(value)


class ExactMatrix:
    """An immutable dense m-by-n matrix of ExactScalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[EntryLike]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = tuple(_as_scalar(e) for e in entries)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[EntryLike]]) -> "ExactMatrix":
        rows = len(data)
        if rows == 0:
            raise ValueError("matrix needs at least one row")
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise ValueError("all rows must have the same length")
        return cls(rows, cols, [e for r in data for e in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def column(cls, values: Sequence[EntryLike]) -> "ExactMatrix":
        return cls(len(values), 1, list(values))

    @classmethod
    def row_vector(cls, values: Sequence[EntryLike]) -> "ExactMatrix":
        return cls(1, len(values), list(values))

    # -- 1-based access ----------------------------------------------------

    def entry(self, i: int, j: int) -> ExactScalar:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> tuple[ExactScalar, ...]:
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} outside 1..{self.rows}")
        start = (i - 1) * self.cols
        return self.entries[start : start + self.cols]

    def col(self, j: int) -> tuple[ExactScalar, ...]:
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside 1..{self.cols}")
        return self.entries[j - 1 :: self.cols]

    def replace_col(self, j: int, values: Sequence[ExactScalar]) -> "ExactMatrix":
        if len(values) != self.rows:
            raise ValueError("replacement column has the wrong length")
        data = list(self.entries)
        for r in range(self.rows):
            data[r * self.cols + (j - 1)] = _as_scalar(values[r])
        return ExactMatrix(self.rows, self.cols, data)

    def replace_row(self, i: int, values: Sequence[ExactScalar]) -> "ExactMatrix":
        if len(values) != self.cols:
            raise ValueError("replacement row has the wrong length")
        data = list(self.entries)
        data[(i - 1) * self.cols : i * self.cols] = [_as_scalar(v) for v in values]
        return ExactMatrix(self.rows, self.cols, data)

    def to_lists(self) -> list[list[ExactScalar]]:
        return [list(self.row(i)) for i in range(1, self.rows + 1)]

    # -- shape helpers ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_column(self) -> bool:
        return self.cols == 1

    def is_row(self) -> bool:
        return self.rows == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        a_re, a_im, qa = clear_denominators(self)
        b_re, b_im, qb = clear_denominators(other)
        return _from_int(*int_matmul(a_re, a_im, b_re, b_im), qa * qb)

    def scale(self, factor: EntryLike) -> "ExactMatrix":
        # (re + i im)/q times (sr + i si)/qs, in Z[i] and divided once
        s = _as_scalar(factor)
        qs = lcm(s.re.denominator, s.im.denominator)
        sr = s.re.numerator * (qs // s.re.denominator)
        si = s.im.numerator * (qs // s.im.denominator)
        a_re, a_im, q = clear_denominators(self)
        if si:
            out_re = [[x * sr - y * si for x, y in zip(*rows)] for rows in zip(a_re, a_im)]
            out_im = [[x * si + y * sr for x, y in zip(*rows)] for rows in zip(a_re, a_im)]
        else:
            out_re = [[x * sr for x in row] for row in a_re]
            out_im = [[y * sr for y in row] for row in a_im]
        return _from_int(out_re, out_im, q * qs)

    def power(self, exponent: int) -> "ExactMatrix":
        if not self.is_square:
            raise ValueError("matrix power needs a square matrix")
        if exponent < 0:
            raise ValueError("negative powers are not supported here")
        result = ExactMatrix.identity(self.rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return result

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entries[r * self.cols + c] for c in range(self.cols) for r in range(self.rows)],
        )

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [e.conjugate() for e in self.entries])

    def conj_transpose(self) -> "ExactMatrix":
        return self.transpose().conjugate()

    def trace(self) -> ExactScalar:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        acc = ZERO
        for i in range(self.rows):
            acc = acc + self.entries[i * self.cols + i]
        return acc

    def frobenius_norm_sq(self) -> Fraction:
        """Sum of |entry|^2 as an exact rational."""
        total = Fraction(0)
        for e in self.entries:
            total += e.abs_squared()
        return total

    def is_hermitian(self) -> bool:
        return self.is_square and self == self.conj_transpose()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(1, self.rows + 1)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"

    def _check_same_shape(self, other: "ExactMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")


def conj_transpose(matrix: ExactMatrix) -> ExactMatrix:
    """Conjugate transpose; an involution."""
    return matrix.conj_transpose()


# -- Gaussian-integer elimination core ----------------------------------------


def clear_denominators(matrix: ExactMatrix) -> tuple[list[list[int]], list[list[int]], int]:
    """Return integer real/imaginary parts and the common denominator q,
    so that matrix == (re + i*im) / q entrywise."""
    entries = matrix.entries
    q = lcm(*{part.denominator for e in entries for part in (e.re, e.im)})
    if q == 1:
        re = [e.re.numerator for e in entries]
        im = [e.im.numerator for e in entries]
    else:
        re = [e.re.numerator * (q // e.re.denominator) for e in entries]
        im = [e.im.numerator * (q // e.im.denominator) for e in entries]
    cols = matrix.cols
    starts = range(0, len(entries), cols)
    return [re[s : s + cols] for s in starts], [im[s : s + cols] for s in starts], q


def _from_int(re_rows: list[list[int]], im_rows: list[list[int]], q: int) -> ExactMatrix:
    """The matrix (re + i*im) / q; the inverse of `clear_denominators`."""
    entries = []
    for row_re, row_im in zip(re_rows, im_rows):
        for x, y in zip(row_re, row_im):
            if not (x or y):
                entries.append(ZERO)
            elif q == 1:
                entries.append(ExactScalar(x, y))
            else:
                entries.append(ExactScalar(Fraction(x, q), Fraction(y, q)))
    return ExactMatrix(len(re_rows), len(re_rows[0]), entries)


def int_matmul(
    a_re: list[list[int]], a_im: list[list[int]],
    b_re: list[list[int]], b_im: list[list[int]],
) -> tuple[list[list[int]], list[list[int]]]:
    """The product of two Gaussian-integer matrices given as real and
    imaginary parts."""
    cols_re = list(zip(*b_re))
    cols_im = list(zip(*b_im))
    # re = xr.yr - xi.yi and im = xr.yi + xi.yr, each as one dot product of
    # concatenated vectors
    left_re = [xr + [-v for v in xi] for xr, xi in zip(a_re, a_im)]
    left_im = [xr + xi for xr, xi in zip(a_re, a_im)]
    right_re = [yr + yi for yr, yi in zip(cols_re, cols_im)]
    right_im = [yi + yr for yr, yi in zip(cols_re, cols_im)]
    out_re = [[sum(map(mul, x, y)) for y in right_re] for x in left_re]
    out_im = [[sum(map(mul, x, y)) for y in right_im] for x in left_im]
    return out_re, out_im


def power_products(
    a: ExactMatrix, b: ExactMatrix, side: str = "left"
) -> Iterator[tuple[ExactMatrix, list[list[int]], list[list[int]]]]:
    """Yield B, A B, A^2 B, ... (side "left") or B, B A, B A^2, ... (side
    "right"), each with the real and imaginary parts of its cleared image.

    The chain stays in Z[i]: A^l B == A_int^l B_int / (q_A^l q_B), so each
    step is one `int_matmul` and A and B are cleared once."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    a_int = clear_denominators(a)
    b_int = a_int if b is a else clear_denominators(b)
    yield b, b_int[0], b_int[1]
    for p_re, p_im, q in _int_chain(a_int, b_int, side):
        yield _from_int(p_re, p_im, q), p_re, p_im


def _int_chain(a_int, b_int, side: str):
    # The cleared images of A B, A^2 B, ... (or B A, B A^2, ...) with their
    # denominators q_B q_A^l; ExactMatrix appears nowhere.
    a_re, a_im, qa = a_int
    p_re, p_im, q = b_int
    while True:
        if side == "left":
            p_re, p_im = int_matmul(a_re, a_im, p_re, p_im)
        else:
            p_re, p_im = int_matmul(p_re, p_im, a_re, a_im)
        q *= qa
        yield p_re, p_im, q


def _gauss_div(tr: int, ti: int, pr: int, pi: int) -> tuple[int, int]:
    # Exact division in Z[i]; Bareiss guarantees divisibility.
    if pi == 0:
        return tr // pr, ti // pr
    norm = pr * pr + pi * pi
    return (tr * pr + ti * pi) // norm, (ti * pr - tr * pi) // norm


def int_rank(re_rows: list[list[int]], im_rows: list[list[int]]) -> int:
    """Rank of a Gaussian-integer matrix by fraction-free elimination with
    full pivoting."""
    ar = [row[:] for row in re_rows]
    ai = [row[:] for row in im_rows]
    m = len(ar)
    n = len(ar[0]) if m else 0
    pr, pi = 1, 0
    rank_found = 0
    for k in range(min(m, n)):
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if ar[i][j] or ai[i][j]:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi_row, pj_col = pivot
        if pi_row != k:
            ar[k], ar[pi_row] = ar[pi_row], ar[k]
            ai[k], ai[pi_row] = ai[pi_row], ai[k]
        if pj_col != k:
            for row in ar:
                row[k], row[pj_col] = row[pj_col], row[k]
            for row in ai:
                row[k], row[pj_col] = row[pj_col], row[k]
        rank_found += 1
        kr, ki = ar[k][k], ai[k][k]
        for i in range(k + 1, m):
            air, aii = ar[i][k], ai[i][k]
            for j in range(k + 1, n):
                tr = ar[i][j] * kr - ai[i][j] * ki - (air * ar[k][j] - aii * ai[k][j])
                ti = ar[i][j] * ki + ai[i][j] * kr - (air * ai[k][j] + aii * ar[k][j])
                ar[i][j], ai[i][j] = _gauss_div(tr, ti, pr, pi)
            ar[i][k] = ai[i][k] = 0
        pr, pi = kr, ki
    return rank_found


def int_det(ar_in: list[list[int]], ai_in: list[list[int]]) -> tuple[int, int]:
    """Determinant of a Gaussian-integer matrix via Bareiss elimination."""
    ar = [row[:] for row in ar_in]
    ai = [row[:] for row in ai_in]
    n = len(ar)
    if n == 0:
        return 1, 0
    if n == 1:
        return ar[0][0], ai[0][0]
    sign = 1
    pr, pi = 1, 0
    for k in range(n - 1):
        if not (ar[k][k] or ai[k][k]):
            for s in range(k + 1, n):
                if ar[s][k] or ai[s][k]:
                    ar[k], ar[s] = ar[s], ar[k]
                    ai[k], ai[s] = ai[s], ai[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        kr, ki = ar[k][k], ai[k][k]
        for i in range(k + 1, n):
            air, aii = ar[i][k], ai[i][k]
            for j in range(k + 1, n):
                tr = ar[i][j] * kr - ai[i][j] * ki - (air * ar[k][j] - aii * ai[k][j])
                ti = ar[i][j] * ki + ai[i][j] * kr - (air * ai[k][j] + aii * ar[k][j])
                ar[i][j], ai[i][j] = _gauss_div(tr, ti, pr, pi)
            ar[i][k] = ai[i][k] = 0
        pr, pi = kr, ki
    return sign * ar[n - 1][n - 1], sign * ai[n - 1][n - 1]


# -- rank / determinant / characteristic polynomial ---------------------------


def rank(matrix: ExactMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    re_rows, im_rows, _ = clear_denominators(matrix)
    return int_rank(re_rows, im_rows)


def det(matrix: ExactMatrix) -> ExactScalar:
    """Exact determinant via Bareiss elimination."""
    if not matrix.is_square:
        raise ValueError("determinant needs a square matrix")
    re_rows, im_rows, q = clear_denominators(matrix)
    dr, di = int_det(re_rows, im_rows)
    scale = Fraction(1, q) ** matrix.rows
    return ExactScalar(dr * scale, di * scale)


def char_poly_coeffs(matrix: ExactMatrix) -> tuple[ExactScalar, ...]:
    """Coefficients d_1..d_n where d_r is the sum of all principal minors of
    order r, so det(tI - M) = t^n - d_1 t^(n-1) + ... + (-1)^n d_n.

    Computed by the trace recurrence, independent of any minor enumeration.
    """
    if not matrix.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = matrix.rows
    coeffs: list[ExactScalar] = []
    work = ExactMatrix.identity(n)
    c = ONE
    for k in range(1, n + 1):
        work = matrix @ work
        c = (work.trace() * ExactScalar(Fraction(-1, k)))
        # d_k = (-1)^k c_k for det(tI - M) = t^n + c_1 t^(n-1) + ...
        sign = ONE if k % 2 == 0 else -ONE
        coeffs.append(sign * c)
        if k < n:
            shift = ExactMatrix.identity(n).scale(c)
            work = work + shift
    return tuple(coeffs)


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse by Gauss-Jordan elimination.

    Raises ZeroDivisionError if the matrix is singular.
    """
    if not matrix.is_square:
        raise ValueError("inverse needs a square matrix")
    n = matrix.rows
    a = matrix.to_lists()
    b = ExactMatrix.identity(n).to_lists()
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        b[col] = [x / pivot for x in b[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    return ExactMatrix.from_rows(b)


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the 1-based pivot columns."""
    a = matrix.to_lists()
    m, n = matrix.rows, matrix.cols
    pivots: list[int] = []
    row = 0
    for col in range(n):
        pivot_row = None
        for r in range(row, m):
            if not a[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        pivot = a[row][col]
        a[row] = [x / pivot for x in a[row]]
        for r in range(m):
            if r == row or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col + 1)
        row += 1
        if row == m:
            break
    return ExactMatrix.from_rows(a), tuple(pivots)


def column_space_contains(matrix: ExactMatrix, candidate: ExactMatrix) -> bool:
    """Exact membership of candidate's columns in the column space."""
    if candidate.rows != matrix.rows:
        raise ValueError("column counts do not line up for membership test")
    augmented = ExactMatrix(
        matrix.rows,
        matrix.cols + candidate.cols,
        [
            e
            for i in range(1, matrix.rows + 1)
            for e in (*matrix.row(i), *candidate.row(i))
        ],
    )
    return rank(augmented) == rank(matrix)


def row_space_contains(matrix: ExactMatrix, candidate: ExactMatrix) -> bool:
    """Exact membership of candidate's rows in the row space."""
    if candidate.cols != matrix.cols:
        raise ValueError("row lengths do not line up for membership test")
    stacked = ExactMatrix.from_rows(matrix.to_lists() + candidate.to_lists())
    return rank(stacked) == rank(matrix)


# -- index and cached powers ---------------------------------------------------


class RankProfile:
    """Rank history and index of a square matrix A, and its powers A^e.

    The powers come from the integer power chain that found the ranks: the
    profile keeps the cleared images of A^1, ..., A^(k+1), builds an
    `ExactMatrix` power only when `power(e)` or `powers` reads it, and
    extends the chain only as far as a read asks.
    """

    __slots__ = ("matrix", "rank_of_power", "index", "_images", "_chain", "_q", "_built")

    def __init__(self, matrix, rank_of_power, index, images, chain, q):
        self.matrix = matrix
        self.rank_of_power = rank_of_power  # rank(A^1), rank(A^2), ...
        self.index = index
        self._images = images  # images[e - 1] is the cleared image of A^e
        self._chain = chain
        self._q = q
        self._built = {1: matrix}

    def power(self, exponent: int) -> ExactMatrix:
        if exponent < 0:
            raise ValueError("negative powers are not supported here")
        built = self._built.get(exponent)
        if built is None:
            if exponent == 0:
                built = ExactMatrix.identity(self.matrix.rows)
            else:
                while len(self._images) < exponent:
                    self._images.append(next(self._chain)[:2])
                p_re, p_im = self._images[exponent - 1]
                built = _from_int(p_re, p_im, self._q**exponent)
            self._built[exponent] = built
        return built

    @property
    def powers(self) -> "_Powers":
        """A^0, A^1, ..., A^(2k+1), each built when it is read."""
        return _Powers(self)

    def rank_of(self, exponent: int) -> int:
        if exponent == 0:
            return self.matrix.rows
        return self.rank_of_power[exponent - 1]

    @property
    def core_rank(self) -> int:
        """rank(A^k) with k the index; n when the matrix is nonsingular."""
        return self.rank_of(self.index)


class _Powers(Sequence):
    """The powers A^0..A^(2k+1) of a profile; its length builds none."""

    __slots__ = ("_profile",)

    def __init__(self, profile: RankProfile):
        self._profile = profile

    def __len__(self) -> int:
        return 2 * self._profile.index + 2

    def __getitem__(self, item):
        if isinstance(item, slice):
            return tuple(self[e] for e in range(*item.indices(len(self))))
        if not -len(self) <= item < len(self):
            raise IndexError("power index out of range")
        return self._profile.power(item % len(self))


def rank_profile(matrix: ExactMatrix) -> RankProfile:
    if not matrix.is_square:
        raise ValueError("matrix index needs a square matrix")
    n = matrix.rows
    a_int = clear_denominators(matrix)
    chain = _int_chain(a_int, a_int, "right")  # A^2, A^3, ...
    images = [a_int[:2]]
    ranks = [int_rank(*a_int[:2])]
    k = 0
    prev_rank = n
    while ranks[-1] != prev_rank:
        prev_rank = ranks[-1]
        p_re, p_im, _ = next(chain)
        images.append((p_re, p_im))
        ranks.append(int_rank(p_re, p_im))
        k += 1
    # ranks[k] == ranks[k-1] now holds; k is the index.
    return RankProfile(matrix, tuple(ranks), k, images, chain, a_int[2])


def index_of(matrix: ExactMatrix) -> int:
    """Smallest k >= 0 with rank(A^(k+1)) == rank(A^k); 0 iff nonsingular."""
    return rank_profile(matrix).index
