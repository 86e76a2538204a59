"""A recorded transcript of `gi`: every invocation's stdout, byte for byte.

`golden/gi_stdout.jsonl` holds one valid invocation per line: its argv (a
file operand is written "@name"), the input documents by name, the exit code
and stdout.  The inputs cover every subcommand and each --form, ranks 0 to
full on every shape up to 4x4, nilpotent and index-2 matrices, and one entry
of about 700 digits.  The test replays each line in-process.

Re-record, only when a change of output is intended, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import itertools
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from exactgi import ExactMatrix, ExactScalar, inverse, mp_inverse_oracle, rank, rank_profile
from exactgi.cli import main
from exactgi.documents import matrix_to_document

GOLDEN = Path(__file__).parent / "golden" / "gi_stdout.jsonl"


def replay(case: dict, workdir: Path) -> tuple[int, str]:
    for name, doc in case["inputs"].items():
        (workdir / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in case["argv"]]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_gi_stdout_matches_golden_transcript(tmp_path):
    cases = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(cases) > 300
    mismatches = [
        case["argv"] for case in cases
        if replay(case, tmp_path) != (case["exit"], case["stdout"])
    ]
    assert not mismatches, f"{len(mismatches)} invocations differ, first {mismatches[:5]}"


# -- recording ---------------------------------------------------------------------


def _random(rng, rows, cols, span=1):
    return ExactMatrix.from_rows(
        [[ExactScalar(rng.randint(-span, span), rng.randint(-span, span))
          for _ in range(cols)] for _ in range(rows)]
    )


def _of_rank(rng, rows, cols, r):
    if r == 0:
        return ExactMatrix.zeros(rows, cols)
    while True:
        a = _random(rng, rows, r) @ _random(rng, r, cols)
        if rank(a) == r:
            return a.scale(Fraction(1, rng.choice([1, 1, 2, 3])))


def _hpd(rng, n):
    c = _random(rng, n, n)
    return c.conj_transpose() @ c + ExactMatrix.identity(n)


def _jordan_like(rng, n, core, index):
    """P diag(core block, nilpotent Jordan block of size `index`) P^-1."""
    rows = [[0] * n for _ in range(n)]
    for i in range(core):
        rows[i][i] = rng.choice([-2, -1, 1, 2])
    for i in range(core, core + index - 1):
        rows[i][i + 1] = 1
    p = ExactMatrix.identity(n) + ExactMatrix.from_rows(
        [[rng.randint(-1, 1) if j > i else 0 for j in range(n)] for i in range(n)]
    )
    return p @ ExactMatrix.from_rows(rows) @ inverse(p)


def _matrices(rng):
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(min(m, n) + 1):
                yield _of_rank(rng, m, n, r)
    yield _jordan_like(rng, 2, 0, 2)
    yield _jordan_like(rng, 3, 0, 3)
    yield _jordan_like(rng, 3, 1, 2)
    yield _jordan_like(rng, 4, 2, 2)
    yield _jordan_like(rng, 4, 1, 3)


def _invocations(rng, a, idx):
    """(argv, inputs) pairs for matrix `a`.  A zero or nilpotent matrix gets
    every invocation and every --form; any other gets every other invocation,
    one --form, and the optional flags by turns of `idx`."""
    m, n = a.shape
    degenerate = a.is_zero() or (m == n and rank_profile(a).core_rank == 0)
    forms = ["auto", "column", "row"] if degenerate else [["auto", "column", "row"][idx % 3]]
    out = []
    turn = itertools.count(idx)

    def add(argv, **extra):
        if degenerate or next(turn) % 2 == 0:
            inputs = {"A": a, **extra}
            out.append((argv, {k: matrix_to_document(v) for k, v in inputs.items()}))

    for form in forms:
        add(["pinv", "--in", "@A", "--form", form])
    if idx % 3 == 0:
        add(["pinv", "--in", "@A", "--decimal", str(3 + idx % 4)])
    w = _random(rng, n, m)
    for form in forms:
        add(["wdinv", "--in", "@A", "--W", "@W", "--form", form], W=w)
    add(["wpinv", "--in", "@A", "--M", "@M", "--N", "@N", "--form", ["auto", "column"][idx % 2]],
        M=_hpd(rng, m), N=_hpd(rng, n))
    for which in ("in", "out"):
        add(["proj", "--in", "@A", "--which", which])
    add(["solve", "--kind", "lsmin", "--in", "@A", "--rhs", "@y"], y=_random(rng, m, 1, 2))
    add(["solve", "--kind", "lsmin", "--side", "right", "--in", "@A", "--rhs", "@y"],
        y=_random(rng, 1, n, 2))
    add(["solve", "--kind", "wdrazin", "--in", "@A", "--W", "@W", "--rhs", "@y"],
        W=w, y=_random(rng, n, 1, 2))
    add(["mateq", "--eq", "ax", "--kind", "ls", "--in", "@A", "--rhs", "@R"],
        R=_random(rng, m, 2))
    add(["mateq", "--eq", "xa", "--kind", "ls", "--in", "@A", "--rhs", "@R"],
        R=_random(rng, 2, n))
    p, q = 1 + idx % 3, 1 + (idx + 1) % 3
    b = _of_rank(rng, p, q, idx % (min(p, q) + 1))
    add(["mateq", "--eq", "axb", "--kind", "ls", "--in", "@A", "--B", "@B", "--rhs", "@R"],
        B=b, R=_random(rng, m, q))
    add(["verify", "--kind", "mp", "--in", "@A", "--X", "@X"], X=mp_inverse_oracle(a))
    if m != n:
        return out

    profile = rank_profile(a)
    for form in forms:
        add(["dinv", "--in", "@A", "--form", form])
    if profile.index <= 1:
        add(["ginv", "--in", "@A"])
    for which in ("drazin_left", "drazin_right"):
        add(["proj", "--in", "@A", "--which", which])
    add(["solve", "--kind", "drazin", "--in", "@A", "--rhs", "@y"], y=_random(rng, n, 1, 2))
    add(["solve", "--kind", "drazin", "--side", "right", "--in", "@A", "--rhs", "@y"],
        y=_random(rng, 1, n, 2))
    add(["mateq", "--eq", "ax", "--kind", "drazin", "--in", "@A", "--rhs", "@R"],
        R=_random(rng, n, 2))
    add(["mateq", "--eq", "xa", "--kind", "drazin", "--in", "@A", "--rhs", "@R"],
        R=_random(rng, 2, n))
    b = _jordan_like(rng, 2, idx % 3, 2 - idx % 3) if idx % 2 else _of_rank(rng, 2, 2, idx % 3)
    add(["mateq", "--eq", "axb", "--kind", "drazin", "--in", "@A", "--B", "@B", "--rhs", "@R"],
        B=b, R=_random(rng, n, 2))
    add(["ode", "--side", ["left", "right"][idx % 2], "--in", "@A", "--B", "@B"],
        B=_random(rng, n, n))
    add(["verify", "--kind", ["drazin", "group"][idx % 2] if profile.index <= 1 else "drazin",
         "--in", "@A", "--X", "@X"], X=_random(rng, n, n))
    return out


def record() -> None:
    rng = random.Random(20261018)
    cases = []
    for idx, a in enumerate(_matrices(rng)):
        cases += _invocations(rng, a, idx)
    big = ExactMatrix.from_rows([[ExactScalar(10**699 + 7, 0), 1], [2, ExactScalar(0, 3)]])
    for cmd in (["pinv"], ["dinv"]):
        cases.append((cmd + ["--in", "@A"], {"A": matrix_to_document(big)}))
    with tempfile.TemporaryDirectory() as tmp, GOLDEN.open("w") as handle:
        for argv, inputs in cases:
            case = {"argv": argv, "inputs": inputs}
            case["exit"], case["stdout"] = replay(case, Path(tmp))
            assert case["exit"] == 0, argv
            handle.write(json.dumps(case, separators=(",", ":")) + "\n")
    print(f"{len(cases)} invocations, {GOLDEN.stat().st_size} bytes", file=sys.stderr)


if __name__ == "__main__":
    record()
