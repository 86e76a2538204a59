import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from exactgi import ExactMatrix, ExactScalar

# CI searches harder and reproducibly (HYPOTHESIS_PROFILE=ci); a local run
# keeps Hypothesis's default number of examples.
settings.register_profile("ci", max_examples=400, derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rand_scalar(rng: random.Random, span: int = 2, complex_ok: bool = True) -> ExactScalar:
    re = rng.randint(-span, span)
    im = rng.randint(-span, span) if complex_ok else 0
    return ExactScalar(re, im)


def rand_matrix(
    rng: random.Random, rows: int, cols: int, span: int = 2, complex_ok: bool = True
) -> ExactMatrix:
    return ExactMatrix.from_rows(
        [[rand_scalar(rng, span, complex_ok) for _ in range(cols)] for _ in range(rows)]
    )


def rand_low_rank(
    rng: random.Random, rows: int, cols: int, r: int, span: int = 1
) -> ExactMatrix:
    """Product of rows x r and r x cols factors; rank at most r."""
    if r == 0:
        return ExactMatrix.zeros(rows, cols)
    left = rand_matrix(rng, rows, r, span)
    right = rand_matrix(rng, r, cols, span)
    return left @ right


def rand_unimodular(rng: random.Random, n: int, steps: int | None = None) -> ExactMatrix:
    """Random integer matrix with determinant +-1 (product of shears)."""
    rows = [[ExactScalar(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        factor = ExactScalar(rng.choice([-2, -1, 1, 2]))
        rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
    return ExactMatrix.from_rows(rows)


def rand_index_matrix(
    rng: random.Random, n: int, core_rank: int, index: int
) -> ExactMatrix:
    """Integer matrix with prescribed core rank and index: a conjugated block
    diagonal of an invertible core and a nilpotent Jordan block."""
    if core_rank + index > n or index < 1:
        raise ValueError("need core_rank + index <= n and index >= 1")
    rows = [[ExactScalar(0)] * n for _ in range(n)]
    for i in range(core_rank):  # invertible lower-triangular core
        rows[i][i] = ExactScalar(rng.choice([-2, -1, 1, 2]))
        for j in range(i):
            rows[i][j] = ExactScalar(rng.randint(-1, 1))
    for i in range(core_rank, core_rank + index - 1):  # Jordan block, index k
        rows[i][i + 1] = ExactScalar(1)
    block = ExactMatrix.from_rows(rows)
    p = rand_unimodular(rng, n)
    from exactgi import inverse

    return p @ block @ inverse(p)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
