import ast
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactgi
import exactgi.oracles
from exactgi import (
    ExactMatrix,
    ExactScalar,
    enumerate_subsets,
    mp_inverse,
    mp_inverse_oracle,
    subset_count,
    verify_defining_equations,
)

# -- subset helpers ---------------------------------------------------------------

SUBSET_CASES = [
    (k, n, required)
    for n in range(5)
    for k in range(-1, n + 2)
    for required in (None, *range(n + 2))
] + [(2, 4, 9)]


@pytest.mark.parametrize("k, n, required", SUBSET_CASES)
def test_subset_count_is_the_enumeration_length_with_the_same_range_check(k, n, required):
    if 0 <= k <= n and (required is None or 1 <= required <= n):
        assert subset_count(k, n, required) == len(list(enumerate_subsets(k, n, required)))
    else:
        with pytest.raises(ValueError):
            subset_count(k, n, required)
        with pytest.raises(ValueError):
            enumerate_subsets(k, n, required)  # at the call, before any subset


# -- rank factorization from Bareiss pivot lines ------------------------------------

_parts = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
_entries = st.builds(ExactScalar, _parts, _parts)


def _matrices(rows, cols):
    return st.lists(_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: ExactMatrix(rows, cols, entries)
    )


def _lead(lines, kind, t):
    """The lines with the first t zeroed ("zero") or copies of line t
    ("repeat"), so that those lines hold no pivot, or only the first does."""
    if kind == "zero":
        return [[ExactScalar(0)] * len(lines[0])] * t + lines[t:]
    if kind == "repeat":
        return [lines[t]] * t + lines[t:]
    return lines


@settings(deadline=None)
@given(st.data())
def test_pivot_line_factorization_matches_the_kernel_property(data):
    m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    r = data.draw(st.integers(0, min(m, n)))
    a = (ExactMatrix.zeros(m, n) if r == 0
         else data.draw(_matrices(m, r)) @ data.draw(_matrices(r, n)))
    kinds = st.sampled_from(["none", "zero", "repeat"])
    rows = _lead(a.to_lists(), data.draw(kinds), data.draw(st.integers(0, m - 1)))
    cols = _lead([list(c) for c in zip(*rows)], data.draw(kinds), data.draw(st.integers(0, n - 1)))
    a = ExactMatrix.from_rows([list(row) for row in zip(*cols)])
    oracle = mp_inverse_oracle(a)
    assert oracle == mp_inverse(a).inverse
    assert verify_defining_equations(a, oracle, "mp").all_satisfied


# -- the references stay apart from the operations -------------------------------------

OPERATION_MODULES = ("matrix", "minors", "inverses", "solve", "equations", "ode",
                     "documents", "cli")


@pytest.mark.parametrize("module", OPERATION_MODULES)
def test_no_operation_imports_the_oracles(module):
    references = {name for name, value in vars(exactgi.oracles).items()
                  if getattr(value, "__module__", None) == "exactgi.oracles"}
    source = Path(exactgi.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all("oracles" not in alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert "oracles" not in (node.module or "").split(".")
            for alias in node.names:
                assert alias.name != "oracles" and alias.name not in references
