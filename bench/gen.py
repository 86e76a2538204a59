"""Seeded input generators for the benchmark.

Every generator takes the workload seed and returns plain Python data:
matrices are lists of rows whose entries are ``(re, im)`` pairs of ints or
``Fraction``s, and the CLI documents carry their entries as literal strings.
Nothing here imports ``exactgi``, so the library receives only the generated
inputs.  The small exact helpers below (product, rank) let the generators
construct inputs with a known rank and index without asking the library
under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

Pair = tuple  # (re, im) of ints or Fractions
Rows = list  # list[list[Pair]]

ZERO = (0, 0)
ONE = (1, 0)
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
SMALL = tuple((re, im) for re in (-1, 0, 1) for im in (-1, 0, 1))


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent stream per workload and seed; str seeding is stable."""
    return random.Random(f"{workload}:{seed}")


# -- exact Gaussian-rational helpers ---------------------------------------------


def g_add(a: Pair, b: Pair) -> Pair:
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a: Pair, b: Pair) -> Pair:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_div(a: Pair, b: Pair) -> Pair:
    norm = Fraction(b[0] * b[0] + b[1] * b[1])
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                if x != ZERO and y != ZERO:
                    acc = g_add(acc, g_mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def rank(a: Rows) -> int:
    """Exact rank by Gaussian elimination over Q(i)."""
    work = [[(Fraction(re), Fraction(im)) for re, im in row] for row in a]
    found = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(found, len(work)) if work[r][col] != (0, 0)), None
        )
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        head = work[found]
        for r in range(found + 1, len(work)):
            if work[r][col] != (0, 0):
                factor = g_div(work[r][col], head[col])
                work[r] = [
                    g_add(x, g_mul((-factor[0], -factor[1]), y))
                    for x, y in zip(work[r], head)
                ]
        found += 1
    return found


def random_rows(rng: random.Random, m: int, n: int, span: int) -> Rows:
    return [
        [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
        for _ in range(m)
    ]


def full_rank_rows(rng: random.Random, m: int, n: int, span: int) -> Rows:
    """Random m x n Gaussian-integer rows of rank min(m, n)."""
    while True:
        rows = random_rows(rng, m, n, span)
        if rank(rows) == min(m, n):
            return rows


def low_rank_product(rng: random.Random, m: int, n: int, r: int, span: int) -> Rows:
    """m x n of rank exactly r: a product of full-rank m x r and r x n factors."""
    return matmul(full_rank_rows(rng, m, r, span), full_rank_rows(rng, r, n, span))


def unimodular_pair(rng: random.Random, n: int, shears: int) -> tuple[Rows, Rows]:
    """A Gaussian-integer S with unit determinant and its exact inverse,
    built from shears row_i += c * row_j with c a unit."""
    s = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    s_inv = [row[:] for row in s]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(UNITS)
        s[i] = [g_add(x, g_mul(c, y)) for x, y in zip(s[i], s[j])]
        minus_c = (-c[0], -c[1])
        for row in s_inv:
            row[j] = g_add(row[j], g_mul(minus_c, row[i]))
    return s, s_inv


def core_plus_nilpotent(
    rng: random.Random, core: int, blocks: list[int], shears: int
) -> Rows:
    """S diag(C, J_b1, J_b2, ...) S^-1 with C an invertible core of size
    `core` and J_b nilpotent Jordan blocks; the index is max(blocks) and the
    core rank is `core`."""
    n = core + sum(blocks)
    d = [[ZERO] * n for _ in range(n)]
    c = full_rank_rows(rng, core, core, 1)
    for i in range(core):
        d[i][:core] = c[i]
    start = core
    for size in blocks:
        for i in range(start, start + size - 1):
            d[i][i + 1] = ONE
        start += size
    s, s_inv = unimodular_pair(rng, n, shears)
    return matmul(matmul(s, d), s_inv)


# -- small_corpus ---------------------------------------------------------------------


def _in_small_set(row: list) -> bool:
    return all(abs(re) <= 1 and abs(im) <= 1 for re, im in row)


def small_rank_matrix(rng: random.Random, m: int, n: int, r: int) -> Rows:
    """m x n with entries in {-1,0,1}+{-1,0,1}i and rank exactly r: r
    independent rows, the others unit combinations of them that stay in the
    entry set, rows shuffled."""
    if r == 0:
        return [[ZERO] * n for _ in range(m)]
    while True:
        basis = [[rng.choice(SMALL) for _ in range(n)] for _ in range(r)]
        if rank(basis) == r:
            break
    rows = [row[:] for row in basis]
    while len(rows) < m:
        u, v = rng.choice(UNITS), rng.choice(UNITS)
        row = [g_mul(u, x) for x in rng.choice(basis)]
        other = [g_mul(v, x) for x in rng.choice(basis)]
        mixed = [g_add(x, y) for x, y in zip(row, other)]
        rows.append(mixed if rng.random() < 0.5 and _in_small_set(mixed) else row)
    rng.shuffle(rows)
    return rows


def small_corpus(seed: int, max_dim: int = 5) -> list[dict]:
    """One matrix of every shape m, n <= max_dim at every rank 0..min(m, n)
    (80 matrices by default), with the side inputs each operation family
    needs, all entries in {-1,0,1}+{-1,0,1}i."""
    rng = rng_for("small_corpus", seed)
    return [
        _small_item(rng, m, n, r)
        for m in range(1, max_dim + 1)
        for n in range(1, max_dim + 1)
        for r in range(min(m, n) + 1)
    ]


def _small_item(rng: random.Random, m: int, n: int, r: int) -> dict:
    # side-input shapes follow the stratum, so only entries vary with the seed
    a = small_rank_matrix(rng, m, n, r)
    item = {
        "a": a,
        "rank": r,
        # weighted MP: M = diag(wm)^2, N = diag(wn)^2 so the reference is an
        # MP inverse of diag(wm) A diag(wn)^-1
        "wm": [rng.randint(1, 3) for _ in range(m)],
        "wn": [rng.randint(1, 3) for _ in range(n)],
        "w": random_rows(rng, n, m, 1),
        "y_col": random_rows(rng, m, 1, 1),
        "y_row": random_rows(rng, 1, n, 1),
        "y_w": random_rows(rng, n, 1, 1),
        "b_left": random_rows(rng, m, 2, 1),
        "b_right": random_rows(rng, 2, n, 1),
        "b_both": small_rank_matrix(rng, n, m, min(m, n, max(r, 1))),
        "d_both": random_rows(rng, m, m, 1),
    }
    if m == n:
        item["b_sq"] = small_rank_matrix(rng, n, n, (n + 1) // 2)
        item["d_sq"] = random_rows(rng, n, n, 1)
        item["ode_b"] = random_rows(rng, n, n, 1)
        item["index_le_1"] = rank(matmul(a, a)) == rank(a)
    return item


# -- rank_half_ladder ---------------------------------------------------------------


LADDER_RUNGS = (
    # (label, rows, cols, rank): n x n at rank n/2, then a tall rung
    ("n6r3", 6, 6, 3),
    ("n8r4", 8, 8, 4),
    ("n10r5", 10, 10, 5),
    ("12x8r6", 12, 8, 6),
)
LADDER_DRAZIN = ("n9c5k3", 5, [3, 1])  # 9 x 9, core rank 5, index 3


def ladder(seed: int, per_rung: int, rungs=LADDER_RUNGS) -> list[dict]:
    """`per_rung` low-rank products per ladder rung, entries of the factors
    in {-2..2}+{-2..2}i, plus the core-plus-Jordan Drazin rung; each with a
    two-column right-hand side."""
    rng = rng_for("rank_half_ladder", seed)
    items = []
    for label, m, n, r in rungs:
        for _ in range(per_rung):
            items.append({
                "label": label,
                "a": low_rank_product(rng, m, n, r, 2),
                "b": random_rows(rng, m, 2, 2),
                "drazin": False,
            })
    label, core, blocks = LADDER_DRAZIN
    for _ in range(per_rung):
        a = core_plus_nilpotent(rng, core, blocks, core + sum(blocks))
        items.append({
            "label": label,
            "a": a,
            "b": random_rows(rng, len(a), 2, 2),
            "drazin": True,
        })
    return items


def frontier_rungs(seed: int, cap: int) -> list[tuple[int, Rows]]:
    """n x n at rank n/2 for n = 6, 8, ..., cap."""
    rng = rng_for("frontier", seed)
    return [(n, low_rank_product(rng, n, n, n // 2, 2)) for n in range(6, cap + 1, 2)]


# -- high_index_drazin ----------------------------------------------------------------


HIGH_INDEX_SHAPES = (
    # (core rank, nilpotent Jordan block sizes): 10 x 10, index 8
    (2, [8]),
)


def high_index(seed: int, shapes=HIGH_INDEX_SHAPES) -> list[dict]:
    """One square matrix per shape: an invertible core plus nilpotent Jordan
    blocks, conjugated by a unimodular matrix, with a right-hand side
    vector, a two-column right-hand side and an ODE right-hand side."""
    rng = rng_for("high_index_drazin", seed)
    items = []
    for core, blocks in shapes:
        n = core + sum(blocks)
        items.append({
            "a": core_plus_nilpotent(rng, core, blocks, n),
            "y": random_rows(rng, n, 1, 2),
            "b": random_rows(rng, n, 2, 2),
            "ode_b": random_rows(rng, n, n, 1),
        })
    return items


# -- cli_docs ---------------------------------------------------------------------------


def literal(value: Pair) -> str:
    """Render a Gaussian rational in the documented scalar literal grammar."""
    re, im = Fraction(value[0]), Fraction(value[1])
    if im == 0:
        return str(re)
    imag = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re == 0:
        return imag
    return f"{re}{'' if im < 0 else '+'}{imag}"


def _rational_part(rng: random.Random, dens: list[int]) -> tuple[Fraction, str]:
    """A real part and its literal: p/q with q from the matrix's
    denominators, a decimal literal, or a small integer."""
    kind = rng.random()
    if kind < 0.55:
        q = rng.choice(dens)
        value = Fraction(rng.randint(-2 * q, 2 * q), q)
        return value, str(value)
    if kind < 0.8:
        digits = rng.randint(1, 3)
        scale = 10**digits
        k = rng.randint(-9 * scale, 9 * scale)
        sign = "-" if k < 0 else ""
        return Fraction(k, scale), f"{sign}{abs(k) // scale}.{abs(k) % scale:0{digits}d}"
    value = rng.randint(-9, 9)
    return Fraction(value), str(value)


def _doc_entry(rng: random.Random, dens: list[int]) -> tuple[Pair, str]:
    re, re_text = _rational_part(rng, dens)
    im, im_text = _rational_part(rng, dens)
    if im == 0:
        return (re, im), re_text
    return (re, im), f"{re_text}{'' if im < 0 else '+'}{im_text}i"


def rational_rows(rng: random.Random, m: int, n: int) -> tuple[Rows, list]:
    """m x n complex-rational entries over three distinct 3-4 digit
    denominators, decimal literals and small integers.  Returns the exact
    values and the literal texts."""
    dens = rng.sample(range(101, 9999), 3)
    pairs = [[_doc_entry(rng, dens) for _ in range(n)] for _ in range(m)]
    return [[v for v, _ in row] for row in pairs], [[t for _, t in row] for row in pairs]


def rational_matrix(rng: random.Random, m: int, n: int, r: int) -> tuple[Rows, list]:
    """m x n of rank r: r independent rows from `rational_rows`, the rest
    scaled copies of them."""
    while True:
        values, texts = rational_rows(rng, r, n)
        if rank(values) == r:
            break
    while len(values) < m:
        src = rng.randrange(r)
        c = rng.choice(UNITS + ((2, 0), (0, -2), (1, 1)))
        row = [g_mul(c, x) for x in values[src]]
        values.append(row)
        texts.append([literal(x) for x in row])
    order = list(range(m))
    rng.shuffle(order)
    return [values[i] for i in order], [texts[i] for i in order]


CLI_SHAPES = (
    # (rows, cols, rank)
    (4, 4, 2),
    (5, 5, 3),
    (6, 6, 3),
    (6, 4, 3),
    (5, 3, 2),
)


def cli_docs(seed: int, per_shape: int, shapes=CLI_SHAPES) -> list[dict]:
    """Matrix documents for the CLI: each coefficient matrix with a rational
    right-hand side vector and matrix, and for square ones an ODE right-hand
    side."""
    rng = rng_for("cli_docs", seed)
    items = []
    for m, n, r in shapes:
        for _ in range(per_shape):
            a, a_text = rational_matrix(rng, m, n, r)
            item = {
                "a": (a, a_text),
                "y": rational_rows(rng, m, 1),
                "b": rational_rows(rng, m, 2),
            }
            if m == n:
                item["ode_b"] = rational_rows(rng, n, n)
            items.append(item)
    return items
