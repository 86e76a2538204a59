"""The eager fraction-free elimination, kept as a reference.

`matrix._eliminate` leaves a row alone while its entry in the pivot column
is zero and catches it up later.  This module updates every row it reaches
at every step, as the library did before.  The agreement property in
test_matrix.py compares the two on the pivots, the sign, the row order, the
last pivot, every Gauss-Jordan row and every Bareiss pivot row from its
pivot on.  No library module imports it.

The loop is the library's former one, unchanged; its docstring is shortened.
"""

from __future__ import annotations

from itertools import islice


def eliminate(re_rows, im_rows, width: int, jordan: bool):
    """Fraction-free elimination of a Gaussian-integer matrix with row
    pivoting on its first `width` columns in order: Bareiss on the rows below
    each pivot, or Gauss-Jordan (`jordan`) on every other row.

    A step on pivot k (row y) turns each row x it reaches into
    (k x - x[c] y) / p, p the previous pivot, exact by Sylvester's identity.
    Gauss-Jordan runs in place on [M | I] without storing I: slot c holds
    the pivot row's identity column once column c is eliminated, -x[c] in
    the other rows and p in the pivot row.  A Bareiss step updates only the
    columns right of its pivot.  Returns the rows, p, the 0-based pivot
    columns, the sign of the row permutation and `orig`, the input row now
    at each position."""
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
