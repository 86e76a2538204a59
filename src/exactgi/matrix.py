"""Dense matrices over Gaussian rationals, with exact products, rank,
determinant, characteristic-polynomial coefficients and matrix index.

An `ExactMatrix` stores one canonical Gaussian-integer image of its value:
integer real and imaginary rows and the least common denominator q, so that
the matrix is (re + i*im) / q entrywise and no smaller q would do.  The rows
are tuples and an image is never changed in place, so `clear_denominators`
returns the stored image itself.  The `ExactScalar` entries are a view built
on first read (`entries`, `entry`, `row`, `col`): a product or a sum that no
caller reads never builds them.  Equal values have equal images, so equality
and the hash compare images.

Numbers enter through one routine.  `ExactMatrix(rows, cols, entries)`
reads each entry's four integer parts once (`_parts`: an int as it is, an
`ExactScalar` off its two Fractions, anything else through
`ExactScalar(value)`, which holds the rules for strings and bool), and
`_from_parts` brings them over the lcm of their denominators and reduces
that to the least one.  The JSON and CSV documents of exactgi.documents
build their images with the same `_from_parts`, and `scale` reads its
factor with the same `_parts`.

Arithmetic runs on the images.  A product is one Gaussian-integer product
(`int_matmul`) over q_A q_B, a sum or difference brings both images to their
common denominator, `scale` multiplies by the cleared factor, and transpose,
conjugation, trace and the Frobenius norm read the image directly.  Each new
image is reduced to its least q by one gcd pass (`_from_int`).  Division by
a Gaussian integer p (`_over`, behind `inverse` and the Cramer ratios of
`minors`) first takes out the content h = gcd(Re p, Im p): a real p only
flips signs and puts |p| into q, and any other p multiplies by conj(p/h)
over h |p/h|^2, which is |p|^2 / h.  A product
A B with at least 2 rows and 6 columns packs each row of B into two integers
with a bit field per real and imaginary part, so that a row of the result is
one dot product of length 2n (`_packed_matmul`); the field width comes from
the largest bit lengths of A and B.  A width of at most 64 bits is rounded
up to a native word, 8, 16, 32 or 64 bits, so that a row of the result is
read back in one pass in C, its bytes cast to signed words; wider fields
are read one by one with a shift and a mask.  A loop of products by one
fixed right factor passes one `_Packing` to each product, which packs the
factor once per field width.  A narrower product sums each entry's
real and imaginary parts in one loop over a row of A and a column of B, and
builds no other vectors.  A power chain is a list of matrices, each the
product of the one before and A, with A packed once per width:
`rank_profile` keeps A^0, A^1, ... in its
`RankProfile` and ranks A^(e+1) on the r-by-r block of the rows and columns
where A^e has its pivots, r = rank(A^e), and forms no product once a power
is zero.

Rank, determinant, adjugate and `inverse` share one fraction-free
elimination on the image (`_eliminate`), which bounds intermediate bit
growth: Bareiss for rank and determinant, Gauss-Jordan for the adjugate.
Both update each row in place in one loop.  A Bareiss step updates only the
columns right of its pivot, the only ones a later step reads; its callers
read only the pivots, the sign and the row order, and `_spanning_lines`
turns these into pivot rows and columns.
Gauss-Jordan runs in place on [M | I] without storing I: the slot of each
eliminated column takes over its pivot row's identity column, so n columns
end as T = p M^(-1), p the last pivot.  `int_adjugate` reads adj(M) and
det(M) off T and p; `inverse` divides the one by the other once, and the
generalized-adjugate kernel of `minors` uses both at full order.  The
characteristic-polynomial coefficients come from the trace recurrence
(Faddeev-LeVerrier) run in Z[i] on the image, n - 2 integer products
B_(k-1) M with M packed once, which
never enumerate minors, so it serves as an independent cross-check for the
enumeration primitives of `oracles`; the same run gives the kernel its
matrices below full order.

Public matrix indices are 1-based throughout the package; only internal row
lists are 0-based.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import lshift, mul, neg

from .scalar import ZERO, ExactScalar, RationalLike

EntryLike = ExactScalar | RationalLike
Rows = tuple[tuple[int, ...], ...]


def _parts(value: EntryLike) -> tuple[int, int, int, int]:
    """(a, b, c, d) with value = a/b + (c/d) i in lowest terms, b, d > 0.
    An int is read as it is; any other value but an ExactScalar goes through
    ExactScalar(value), which holds the rules for strings and bool."""
    if type(value) is int:
        return value, 1, 0, 1
    if not isinstance(value, ExactScalar):
        value = ExactScalar(value)
    re, im = value.re, value.im
    return re.numerator, re.denominator, im.numerator, im.denominator


def _cleared(value: EntryLike) -> tuple[int, int, int]:
    """(x, y, s) with value = (x + i y) / s, s the least such denominator."""
    a, b, c, d = _parts(value)
    s = lcm(b, d)
    return a * (s // b), c * (s // d), s


def _check_shape(rows: int, cols: int) -> None:
    if rows <= 0 or cols <= 0:
        raise ValueError("matrix dimensions must be positive")


def _scalar(x: int, y: int, q: int) -> ExactScalar:
    if not (x or y):
        return ZERO
    if q == 1:
        return ExactScalar(x, y)
    return ExactScalar(Fraction(x, q), Fraction(y, q))


class ExactMatrix:
    """An immutable dense m-by-n matrix over the Gaussian rationals, stored
    as its canonical Gaussian-integer image (see the module docstring)."""

    __slots__ = ("rows", "cols", "_re", "_im", "_q", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[EntryLike]):
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        image = _from_parts(rows, cols, list(map(_parts, entries)))
        self.rows, self.cols, self._entries = rows, cols, None
        self._re, self._im, self._q = image._re, image._im, image._q

    @property
    def entries(self) -> tuple[ExactScalar, ...]:
        """The entries in row-major order, built on first read."""
        if self._entries is None:
            q = self._q
            self._entries = tuple(
                _scalar(x, y, q)
                for row_re, row_im in zip(self._re, self._im)
                for x, y in zip(row_re, row_im)
            )
        return self._entries

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
        zero = cls.zeros(n, n)
        return _image(tuple(r[:i] + (1,) + r[i + 1 :] for i, r in enumerate(zero._re)),
                      zero._im, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        _check_shape(rows, cols)
        zero = ((0,) * cols,) * rows
        return _image(zero, zero, 1)

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

    def replace_col(self, j: int, values: Sequence[EntryLike]) -> "ExactMatrix":
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} outside 1..{self.cols}")
        if len(values) != self.rows:
            raise ValueError("replacement column has the wrong length")
        return _splice(self, ExactMatrix.column(values),
                       lambda a, b: [x[: j - 1] + y + x[j:] for x, y in zip(a, b)])

    def replace_row(self, i: int, values: Sequence[EntryLike]) -> "ExactMatrix":
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} outside 1..{self.rows}")
        if len(values) != self.cols:
            raise ValueError("replacement row has the wrong length")
        return _splice(self, ExactMatrix.row_vector(values), lambda a, b: a[: i - 1] + b + a[i:])

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
        return not (any(map(any, self._re)) or any(map(any, self._im)))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return _combine(self, other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return _combine(self, other, -1)

    def __neg__(self) -> "ExactMatrix":
        return _image(_negated(self._re), _negated(self._im), self._q)

    def __matmul__(self, other: "ExactMatrix", packing: "_Packing | None" = None) -> "ExactMatrix":
        # a loop of products by one right factor passes one `_Packing` to
        # each, so that the factor is packed once (see `int_matmul`)
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return _from_int(*int_matmul(self._re, self._im, other._re, other._im, packing),
                         self._q * other._q)

    def scale(self, factor: EntryLike) -> "ExactMatrix":
        # (re + i im)/q times (sr + i si)/qs, in Z[i] and divided once
        sr, si, qs = _cleared(factor)
        a_re, a_im = self._re, self._im
        if si:
            out_re = [[x * sr - y * si for x, y in zip(*rows)] for rows in zip(a_re, a_im)]
            out_im = [[x * si + y * sr for x, y in zip(*rows)] for rows in zip(a_re, a_im)]
        else:
            out_re = [[x * sr for x in row] for row in a_re]
            out_im = [[y * sr for y in row] for row in a_im]
        return _from_int(out_re, out_im, self._q * qs)

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
        return _image(tuple(zip(*self._re)), tuple(zip(*self._im)), self._q)

    def conjugate(self) -> "ExactMatrix":
        return _image(self._re, _negated(self._im), self._q)

    def conj_transpose(self) -> "ExactMatrix":
        return _image(tuple(zip(*self._re)), _negated(zip(*self._im)), self._q)

    def trace(self) -> ExactScalar:
        if not self.is_square:
            raise ValueError("trace needs a square matrix")
        return _scalar(sum(row[i] for i, row in enumerate(self._re)),
                       sum(row[i] for i, row in enumerate(self._im)), self._q)

    def frobenius_norm_sq(self) -> Fraction:
        """Sum of |entry|^2 as an exact rational."""
        return Fraction(sum(x * x for row in self._re + self._im for x in row), self._q**2)

    def is_hermitian(self) -> bool:
        return self.is_square and self == self.conj_transpose()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._q == other._q and self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._q, self._re, self._im))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(1, self.rows + 1)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: [{body}])"


def conj_transpose(matrix: ExactMatrix) -> ExactMatrix:
    """Conjugate transpose; an involution."""
    return matrix.conj_transpose()


# -- the stored image -----------------------------------------------------------


def _image(re: Rows, im: Rows, q: int) -> ExactMatrix:
    # a matrix from a canonical image with tuple rows, as it is
    matrix = object.__new__(ExactMatrix)
    matrix.rows, matrix.cols = len(re), len(re[0])
    matrix._re, matrix._im, matrix._q, matrix._entries = re, im, q, None
    return matrix


def _negated(rows) -> Rows:
    return tuple(tuple(map(neg, row)) for row in rows)


def clear_denominators(matrix: ExactMatrix) -> tuple[Rows, Rows, int]:
    """The stored image: integer real/imaginary rows and the least common
    denominator q, so that matrix == (re + i*im) / q entrywise."""
    return matrix._re, matrix._im, matrix._q


def _from_int(re_rows, im_rows, q: int) -> ExactMatrix:
    """The matrix (re + i*im) / q, q > 0, reduced by one gcd pass to its
    canonical image; the inverse of `clear_denominators`."""
    g = gcd(q, *chain(*re_rows), *chain(*im_rows)) if q != 1 else 1
    if g == 1:
        return _image(tuple(map(tuple, re_rows)), tuple(map(tuple, im_rows)), q)
    return _image(tuple(tuple(x // g for x in row) for row in re_rows),
                  tuple(tuple(y // g for y in row) for row in im_rows), q // g)


def _from_parts(rows: int, cols: int, parts: list[tuple[int, int, int, int]]) -> ExactMatrix:
    """The matrix whose entries, in row-major order, are a/b + (c/d) i, b, d > 0
    in any terms: `ExactMatrix(...)` and the JSON and CSV documents of
    exactgi.documents build their images here.  Over Q = lcm of the
    denominators the image is integral; the gcd pass of `_from_int` reduces Q
    to the least common denominator, so the image is the canonical one."""
    a, b, c, d = zip(*parts)
    q = lcm(*set(b), *set(d))
    if q == 1:
        re, im = a, c
    else:
        re = [x * (q // y) for x, y in zip(a, b)]
        im = [x * (q // y) for x, y in zip(c, d)]
    starts = range(0, rows * cols, cols)
    return _from_int([re[s : s + cols] for s in starts], [im[s : s + cols] for s in starts], q)


def _over(re_rows, im_rows, pr: int, pi: int, num: int = 1, den: int = 1) -> ExactMatrix:
    """The matrix num (re + i*im) / (den p), p = pr + i*pi, divided once per
    entry.  With h = gcd(pr, pi) the content of p, a real p is applied as
    num sign(p) (re + i*im) / (den h), with no conjugate products, and any
    other p as num (re + i*im) conj(p/h) / (den h |p/h|^2).  p = 0 raises
    ZeroDivisionError."""
    if not (pr or pi):
        raise ZeroDivisionError("division by zero scalar")
    h = gcd(pr, pi)
    if not pi:
        if pr < 0:
            num = -num
        if num != 1:
            re_rows = [[num * x for x in row] for row in re_rows]
            im_rows = [[num * y for y in row] for row in im_rows]
        return _from_int(re_rows, im_rows, den * h)
    pr, pi = pr // h, pi // h
    return _from_int(
        [[num * (x * pr + y * pi) for x, y in zip(*rows)] for rows in zip(re_rows, im_rows)],
        [[num * (y * pr - x * pi) for x, y in zip(*rows)] for rows in zip(re_rows, im_rows)],
        den * h * (pr * pr + pi * pi),
    )


def _combine(a: ExactMatrix, b: ExactMatrix, sign: int) -> ExactMatrix:
    # a + sign * b over the common denominator of the two
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    q = lcm(a._q, b._q)
    fa, fb = q // a._q, sign * (q // b._q)
    return _from_int(
        [[x * fa + y * fb for x, y in zip(*rows)] for rows in zip(a._re, b._re)],
        [[x * fa + y * fb for x, y in zip(*rows)] for rows in zip(a._im, b._im)],
        q,
    )


def _splice(a: ExactMatrix, b: ExactMatrix, join) -> ExactMatrix:
    # join(a part, b part) of the real and the imaginary rows, over the common
    # denominator of the two
    q = lcm(a._q, b._q)
    fa, fb = q // a._q, q // b._q
    re, im = (
        join([[x * fa for x in row] for row in ga], [[x * fb for x in row] for row in gb])
        for ga, gb in ((a._re, b._re), (a._im, b._im))
    )
    return _from_int(re, im, q)


# -- Gaussian-integer elimination core ----------------------------------------


# Products with fewer columns than this, or a single row, keep the dot-product
# loop: replaying the products of the bench/ workloads with the word read,
# packing lost below 5 columns, tied at 5 and won from 6 on.
_PACKED_MIN_COLS = 6

# memoryview formats of the word-aligned field widths
_WORD_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
# the real and the imaginary fields of a row read as native words: slot 0
# is the least significant, which a big-endian machine reads last
if sys.byteorder == "little":
    _RE_WORDS, _IM_WORDS = slice(0, None, 2), slice(1, None, 2)
else:
    _RE_WORDS, _IM_WORDS = slice(None, None, -2), slice(-2, None, -2)


class _Packing:
    """What `_packed_matmul` keeps of one right factor B across a loop of
    products by B: B's largest bit length, and by field width the packs of
    B and the bias."""

    __slots__ = ("bits", "by_width")

    def __init__(self):
        self.bits = None
        self.by_width = {}


def int_matmul(a_re: Rows, a_im: Rows, b_re: Rows, b_im: Rows,
               packing: _Packing | None = None) -> tuple[list, list]:
    """The product of two Gaussian-integer matrices given as real and
    imaginary rows.

    A caller that multiplies many left factors by one right factor B passes
    the same `_Packing()` to each call, so that a packed product packs B
    once per field width."""
    if len(b_re[0]) >= _PACKED_MIN_COLS and len(a_re) > 1:
        return _packed_matmul(a_re, a_im, b_re, b_im,
                              _Packing() if packing is None else packing)
    cols = list(zip(zip(*b_re), zip(*b_im)))
    out_re, out_im = [], []
    for xr, xi in zip(a_re, a_im):
        row_re, row_im = [], []
        for yr, yi in cols:
            sr = si = 0
            for a, b, c, d in zip(xr, xi, yr, yi):
                sr += a * c - b * d
                si += a * d + b * c
            row_re.append(sr)
            row_im.append(si)
        out_re.append(row_re)
        out_im.append(row_im)
    return out_re, out_im


def _packed_matmul(a_re: Rows, a_im: Rows, b_re: Rows, b_im: Rows,
                   packing: _Packing) -> tuple[list, list]:
    """`int_matmul` with each row of B packed into two integers, so that a
    row of the product is one dot product of length 2n.

    Row k of B becomes P_k, holding (re b_kj, im b_kj) in the w-bit slots
    (2j, 2j + 1), and Q_k, holding (-im b_kj, re b_kj) there.  Then
    sum_k re a_ik P_k + im a_ik Q_k holds (re c_ij, im c_ij) in the same
    slots.  With every entry of A below 2^s and every entry of B below 2^t
    in absolute value (s, t the largest bit lengths), each of those is below
    2n 2^(s+t) < 2^(w-1) for w >= s + t + bitlen(2n) + 1, so with 2^(w-1)
    added to every slot no slot borrows from or carries into the next, and
    each reads off exactly.

    A width up to 64 is rounded up to 8, 16, 32 or 64 bits, which only
    widens the slots.  A slot then holds f + 2^(w-1), and XOR with the same
    bias turns it into f in w-bit two's complement, so the row's bytes read
    back as native signed words in one pass.  Wider slots are read one by
    one, with a shift and a mask.  `packing` keeps t and, by width, the
    packs of B and the bias, for the next product by B."""
    n, p = len(b_re), len(b_re[0])
    t = packing.bits
    if t is None:
        t = packing.bits = max(map(int.bit_length, chain(*b_re, *b_im)))
    w = max(map(int.bit_length, chain(*a_re, *a_im))) + t + (2 * n).bit_length() + 1
    if w <= 64:
        w = max(8, 1 << (w - 1).bit_length())
    by_width = packing.by_width
    if w in by_width:
        packs, bias = by_width[w]
    else:
        even = range(0, 2 * p * w, 2 * w)
        packs_re = [sum(map(lshift, row, even)) for row in b_re]
        packs_im = [sum(map(lshift, row, even)) for row in b_im]
        packs = [x + (y << w) for x, y in zip(packs_re, packs_im)]
        packs += [(x << w) - y for x, y in zip(packs_re, packs_im)]
        # 2^(w-1) in each of the 2p slots
        bias = ((1 << (2 * p * w)) - 1) // ((1 << w) - 1) << (w - 1)
        by_width[w] = packs, bias
    out_re, out_im = [], []
    if w <= 64:
        size, fmt = 2 * p * w // 8, _WORD_FORMATS[w]
        for xr, xi in zip(a_re, a_im):
            row = sum(map(mul, (*xr, *xi), packs), bias) ^ bias
            words = memoryview(row.to_bytes(size, sys.byteorder)).cast(fmt).tolist()
            out_re.append(words[_RE_WORDS])
            out_im.append(words[_IM_WORDS])
        return out_re, out_im
    mask, half = (1 << w) - 1, 1 << (w - 1)
    even, odd = range(0, 2 * p * w, 2 * w), range(w, 2 * p * w, 2 * w)
    for xr, xi in zip(a_re, a_im):
        row = sum(map(mul, (*xr, *xi), packs), bias)
        out_re.append([((row >> s) & mask) - half for s in even])
        out_im.append([((row >> s) & mask) - half for s in odd])
    return out_re, out_im


def int_rank(re_rows: Rows, im_rows: Rows) -> int:
    """Rank of a Gaussian-integer matrix by fraction-free elimination."""
    return len(_eliminate(re_rows, im_rows, len(re_rows[0]) if re_rows else 0, False)[4])


def int_det(re_rows: Rows, im_rows: Rows) -> tuple[int, int]:
    """Determinant of a square Gaussian-integer matrix via Bareiss elimination."""
    n = len(re_rows)
    _, _, pr, pi, pivots, sign, _ = _eliminate(re_rows, im_rows, n, False)
    return (sign * pr, sign * pi) if len(pivots) == n else (0, 0)


def int_adjugate(re_rows: Rows, im_rows: Rows):
    """adj(M) and det(M) of a square Gaussian-integer matrix M, as real and
    imaginary row lists and the two parts of det(M), or None when M is
    singular.

    One in-place Gauss-Jordan run turns slot c into column orig[c] of
    T = p M^(-1), p the last pivot, and det(M) = sign p, so
    adj(M) = det(M) M^(-1) = sign T."""
    n = len(re_rows)
    ar, ai, pr, pi, pivots, sign, orig = _eliminate(re_rows, im_rows, n, True)
    if len(pivots) < n:
        return None
    slot = sorted(range(n), key=orig.__getitem__)  # orig[slot[j]] == j
    return ([[sign * row[c] for c in slot] for row in ar],
            [[sign * row[c] for c in slot] for row in ai], sign * pr, sign * pi)


def _eliminate(re_rows: Rows, im_rows: Rows, width: int, jordan: bool):
    """Fraction-free elimination of a Gaussian-integer matrix with row
    pivoting on its first `width` columns in order: Bareiss on the rows below
    each pivot, or Gauss-Jordan (`jordan`) on every other row.

    A step on pivot k (row y) turns each row x it reaches into
    (k x - x[c] y) / p, p the previous pivot, exact by Sylvester's identity:
    each pivot is a leading minor of the row-permuted matrix, the last one
    its determinant when every column has a pivot.  Gauss-Jordan runs in
    place on [M | I] without storing I: once column c is eliminated its
    values are known (k in the pivot row, 0 elsewhere), so slot c holds the
    pivot row's identity column instead, -x[c] in the other rows and p in
    the pivot row, and later steps update it like any other column.  At the
    end every pivot equals the last one, p.  A Bareiss step updates only the
    columns right of its pivot, the only ones a later pivot search reads, so
    in Bareiss mode the returned rows are valid only right of each row's
    pivot (and at it, in the pivot row).  Returns the rows, p, the 0-based
    pivot columns, the sign of the row permutation and `orig`, the input row
    now at each position."""
    ar = [list(row) for row in re_rows]
    ai = [list(row) for row in im_rows]
    m = len(ar)
    orig = list(range(m))
    pr, pi, sign = 1, 0, 1
    pivots: list[int] = []
    for col in range(width):
        row = len(pivots)
        for found in range(row, m):
            if ar[found][col] or ai[found][col]:
                break
        else:
            continue
        if found != row:
            ar[row], ar[found], ai[row], ai[found] = ar[found], ar[row], ai[found], ai[row]
            orig[row], orig[found] = orig[found], orig[row]
            sign = -sign
        yr, yi = ar[row], ai[row]
        kr, ki = yr[col], yi[col]
        # (k x - m y) / p = (k' x - m' y) / |p|^2 with k' = k conj(p), m' = m conj(p)
        if pi:
            norm, ur, ui = pr * pr + pi * pi, kr * pr + ki * pi, ki * pr - kr * pi
        else:
            norm, ur, ui = pr, kr, ki
        # in place, each entry read before it is written; a Bareiss step
        # reaches only the rows below and the columns right of the pivot (the
        # rows below are zero at it and left of it, and no later step reads
        # there, so those entries keep stale values)
        start = 0 if jordan else col + 1
        for i in range(0 if jordan else row + 1, m):
            if i == row:
                continue
            xr, xi = ar[i], ai[i]
            mr, mi = xr[col], xi[col]
            vr, vi = (mr * pr + mi * pi, mi * pr - mr * pi) if pi else (mr, mi)
            j = start
            for a, b, c, d in islice(zip(xr, xi, yr, yi), start, None):
                xr[j] = (a * ur - b * ui - vr * c + vi * d) // norm
                xi[j] = (a * ui + b * ur - vr * d - vi * c) // norm
                j += 1
            if jordan:
                xr[col], xi[col] = -mr, -mi
        if jordan:
            yr[col], yi[col] = pr, pi
        pr, pi = kr, ki
        pivots.append(col)
        if row + 1 == m:
            break
    return ar, ai, pr, pi, pivots, sign, orig


# -- rank / determinant / characteristic polynomial ---------------------------


def rank(matrix: ExactMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    return int_rank(matrix._re, matrix._im)


def det(matrix: ExactMatrix) -> ExactScalar:
    """Exact determinant via Bareiss elimination."""
    if not matrix.is_square:
        raise ValueError("determinant needs a square matrix")
    dr, di = int_det(matrix._re, matrix._im)
    return _scalar(dr, di, matrix._q**matrix.rows)


def char_poly_coeffs(matrix: ExactMatrix) -> tuple[ExactScalar, ...]:
    """Coefficients d_1..d_n where d_r is the sum of all principal minors of
    order r, so det(tI - M) = t^n - d_1 t^(n-1) + ... + (-1)^n d_n.

    Computed by the trace recurrence on the integer image, independent of
    any minor enumeration: M = M_int / q gives d_k(M) = d_k(M_int) / q^k.
    """
    if not matrix.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    _, coeffs = _trace_recurrence(matrix._re, matrix._im, matrix.rows)
    q = matrix._q
    # d_k = (-1)^k c_k for det(tI - M) = t^n + c_1 t^(n-1) + ...
    return tuple(_scalar((-1) ** k * cr, (-1) ** k * ci, q**k)
                 for k, (cr, ci) in enumerate(coeffs, 1))


def _trace_recurrence(re_rows: Rows, im_rows: Rows, r: int):
    """B_(r-1) and c_1..c_r of the trace (Faddeev-LeVerrier) recurrence on a
    Gaussian-integer n-by-n matrix M, 1 <= r <= n: B_0 = I and

        c_k = -tr(M B_(k-1)) / k,    B_k = M B_(k-1) + c_k I,

    so that det(tI - M) = t^n + c_1 t^(n-1) + ... + c_n.  A Gaussian-integer
    matrix has Gaussian-integer characteristic coefficients, so each division
    by k is exact and everything stays in Z[i].  M B_0 is M itself, so B_0
    is built only at r = 1, and c_r is read as a sum of entry products, so
    the run takes r - 2 products.
    B_(k-1) is a polynomial in M, so the run forms M B_(k-1) as B_(k-1) M,
    with M the fixed right factor, packed once (see `int_matmul`).
    Returns B_(r-1) as real and imaginary row lists and the c_k as pairs.
    """
    n = len(re_rows)
    if r == 1:
        b_re = [[int(i == j) for j in range(n)] for i in range(n)]
        b_im = [[0] * n for _ in range(n)]
    coeffs, packing = [], _Packing()
    for k in range(1, r):
        if k == 1:
            b_re, b_im = [list(row) for row in re_rows], [list(row) for row in im_rows]
        else:
            b_re, b_im = int_matmul(b_re, b_im, re_rows, im_rows, packing)
        cr = -sum(row[i] for i, row in enumerate(b_re)) // k
        ci = -sum(row[i] for i, row in enumerate(b_im)) // k
        for i in range(n):
            b_re[i][i] += cr
            b_im[i][i] += ci
        coeffs.append((cr, ci))
    # tr(M B) = sum over i, j of m_ij b_ji, against the columns of B
    tr_re = tr_im = 0
    for mr, mi, br, bi in zip(re_rows, im_rows, zip(*b_re), zip(*b_im)):
        tr_re += sum(map(mul, mr, br)) - sum(map(mul, mi, bi))
        tr_im += sum(map(mul, mr, bi)) + sum(map(mul, mi, br))
    coeffs.append((-tr_re // r, -tr_im // r))
    return (b_re, b_im), coeffs


def inverse(matrix: ExactMatrix) -> ExactMatrix:
    """Exact inverse, q adj(A_int) / det(A_int) for A = A_int / q, by one
    fraction-free Gauss-Jordan elimination.

    Raises ZeroDivisionError if the matrix is singular.
    """
    if not matrix.is_square:
        raise ValueError("inverse needs a square matrix")
    adjugate = int_adjugate(matrix._re, matrix._im)
    if adjugate is None:
        raise ZeroDivisionError("matrix is singular")
    return _over(*adjugate, matrix._q)


# -- index and cached powers ---------------------------------------------------


class RankProfile:
    """Rank history and index of a square matrix A, and its powers A^e.

    The profile holds A^0, A^1, ... as one list of matrices, each the
    product of the one before and A: `rank_profile` extends it while it
    ranks the powers, and `power(e)` extends it further when a read asks
    for a power past its end.
    """

    __slots__ = ("matrix", "rank_of_power", "index", "_powers")

    def __init__(self, matrix, rank_of_power, index, powers):
        self.matrix = matrix
        self.rank_of_power = rank_of_power  # rank(A^1), rank(A^2), ...
        self.index = index
        self._powers = powers  # A^0, A^1, ...

    def power(self, exponent: int) -> ExactMatrix:
        if exponent < 0:
            raise ValueError("negative powers are not supported here")
        powers, packing = self._powers, _Packing()
        while len(powers) <= exponent:
            powers.append(powers[-1].__matmul__(self.matrix, packing))
        return powers[exponent]

    @property
    def powers(self) -> tuple[ExactMatrix, ...]:
        """The powers A^0, A^1, ... built so far."""
        return tuple(self._powers)

    def rank_of(self, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("negative powers are not supported here")
        if exponent == 0:
            return self.matrix.rows
        # rank(A^e) is the core rank for every e >= k, the last one stored
        return self.rank_of_power[min(exponent, len(self.rank_of_power)) - 1]

    @property
    def core_rank(self) -> int:
        """rank(A^k) with k the index; n when the matrix is nonsingular."""
        return self.rank_of(self.index)


def rank_profile(matrix: ExactMatrix) -> RankProfile:
    if not matrix.is_square:
        raise ValueError("matrix index needs a square matrix")
    n = matrix.rows
    powers, packing = [ExactMatrix.identity(n), matrix], _Packing()
    rows, cols = _spanning_lines(matrix._re, matrix._im, range(n), range(n))
    ranks = [n, len(rows)]  # rank(A^0), rank(A^1), ...
    while ranks[-1] != ranks[-2]:
        # A^e = 0 gives A^(e+1) = 0, which power() builds only when read
        if rows:
            powers.append(powers[-1].__matmul__(matrix, packing))
            rows, cols = _spanning_lines(powers[-1]._re, powers[-1]._im, rows, cols)
        ranks.append(len(rows))
    # ranks[k + 1] == ranks[k] now holds; k is the index.
    return RankProfile(matrix, tuple(ranks[1:]), len(ranks) - 2, powers)


def _spanning_lines(re_rows: Rows, im_rows: Rows, rows, cols) -> tuple[list, list]:
    """Rows and columns of A^(e+1) that are bases of its row and column
    spaces, from rows S and columns T of A^e that span A^e's.

    Rows S of A^(e+1) = A^e A span its row space, and columns T of
    A^(e+1) = A A^e span its column space, so rank(A^(e+1)) is the rank of
    the block A^(e+1)[S, T], and the rows and columns of the block's pivots
    are bases.  For A^1, S and T are every row and column."""
    block_re = [[re_rows[i][j] for j in cols] for i in rows]
    block_im = [[im_rows[i][j] for j in cols] for i in rows]
    _, _, _, _, pivots, _, orig = _eliminate(block_re, block_im, len(cols), False)
    return [rows[i] for i in orig[: len(pivots)]], [cols[j] for j in pivots]


def index_of(matrix: ExactMatrix) -> int:
    """Smallest k >= 0 with rank(A^(k+1)) == rank(A^k); 0 iff nonsingular."""
    return rank_profile(matrix).index
