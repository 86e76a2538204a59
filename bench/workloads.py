"""The four workloads: fixed call lists over the public API of ``exactgi``.

Each workload turns the seeded inputs of ``gen.py`` into a list of `Call`s.
A call runs one public operation (a name in ``exactgi.__all__``, or
``exactgi.cli.main``) with default keyword arguments: no ``threads=``,
``form=`` or ``route=``, no ``--threads``.  Functions are looked up on the
module at call time, so the traced run sees the wrapped versions.

Every call has an exact check that runs outside the timer.  On the first
pass the result is compared with a reference built from the library's
independent oracles (``mp_inverse_oracle``, ``drazin_inverse_oracle``) or,
for the ODE, put through ``substitute_check``; on later passes it must equal
the first pass's checked result.
"""

from __future__ import annotations

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import gen


class Call:
    """One timed operation: `run()` does the work, `verify(result)` says
    whether the result is exactly right."""

    __slots__ = ("op", "label", "run", "verify", "bytes_in")

    def __init__(self, op, label, run, verify, bytes_in=0):
        self.op = op
        self.label = label
        self.run = run
        self.verify = verify
        self.bytes_in = bytes_in


def snapshot(result):
    """The part of a result that later passes must reproduce exactly."""
    for attr in ("inverse", "solution", "X", "coefficients"):
        if hasattr(result, attr):
            return getattr(result, attr)
    return result


class Oracle:
    """Reference inverses from the library's rank-factorization oracles,
    cached per input matrix; `seconds` is the time spent computing them."""

    def __init__(self, gi):
        self.gi = gi
        self.seconds = 0.0
        self._cache = {}

    def _get(self, kind, fn, a):
        key = (kind, id(a))
        if key not in self._cache:
            start = time.perf_counter()
            self._cache[key] = (a, fn(a))
            self.seconds += time.perf_counter() - start
        return self._cache[key][1]

    def mp(self, a):
        return self._get("mp", self.gi.mp_inverse_oracle, a)

    def drazin(self, a):
        return self._get("drazin", self.gi.drazin_inverse_oracle, a)


def to_matrix(gi, rows):
    return gi.ExactMatrix.from_rows(
        [[gi.ExactScalar(re, im) for re, im in row] for row in rows]
    )


def _diag(gi, values):
    n = len(values)
    return gi.ExactMatrix.from_rows(
        [[gi.ExactScalar(values[i] if i == j else 0) for j in range(n)] for i in range(n)]
    )


def _equals(expected):
    return lambda value: snapshot(value) == expected()


def _ode_ok(gi, a, b, side):
    return lambda poly: gi.substitute_check(poly, a, b, side)[0]


# -- small_corpus ------------------------------------------------------------------
#
# Why: the batch or fuzz user, every public operation family on 80 tiny
# matrices (m, n <= 5, entries in {-1,0,1}+{-1,0,1}i, every rank).  Loads:
# `scalar` (Fraction arithmetic under ExactScalar) and per-call overhead in
# `inverses`/`solve`/`equations`/`ode`; the minor sums touch only tiny
# determinants.  Bypass for kernel work: a faster minor-sum or adjugate
# kernel should leave this workload unchanged.


def small_corpus_calls(gi, items, oracle):
    calls = []
    for idx, item in enumerate(items):
        calls.extend(_small_item_calls(gi, idx, item, oracle))
    return calls


def _small_item_calls(gi, idx, item, o):
    a = to_matrix(gi, item["a"])
    m, n = a.shape
    tag = f"#{idx} {m}x{n} r{item['rank']}"
    y_col = to_matrix(gi, item["y_col"])
    y_row = to_matrix(gi, item["y_row"])
    y_w = to_matrix(gi, item["y_w"])
    w = to_matrix(gi, item["w"])
    b_left = to_matrix(gi, item["b_left"])
    b_right = to_matrix(gi, item["b_right"])
    b_both = to_matrix(gi, item["b_both"])
    d_both = to_matrix(gi, item["d_both"])
    weights = gi.WeightPair(
        _diag(gi, [v * v for v in item["wm"]]), _diag(gi, [v * v for v in item["wn"]])
    )
    dm = _diag(gi, item["wm"])
    dn_inv = _diag(gi, [Fraction(1, v) for v in item["wn"]])

    def wmp():
        # M = Dm^2, N = Dn^2:  A+_{M,N} = Dn^-1 (Dm A Dn^-1)+ Dm
        return dn_inv @ o.mp(dm @ a @ dn_inv) @ dm

    def wdz():
        # A_{d,W} = A ((WA)^D)^2
        dwa = o.drazin(w @ a)
        return a @ dwa @ dwa

    pinv = lambda: o.mp(a)  # noqa: E731
    specs = [
        ("mp_inverse", lambda: gi.mp_inverse(a), pinv),
        ("mp_inverse_oracle", lambda: gi.mp_inverse_oracle(a), pinv),
        ("weighted_mp_inverse", lambda: gi.weighted_mp_inverse(a, weights), wmp),
        ("w_drazin_inverse", lambda: gi.w_drazin_inverse(a, w), wdz),
        ("projector_in", lambda: gi.projector(a, "in"), lambda: pinv() @ a),
        ("projector_out", lambda: gi.projector(a, "out"), lambda: a @ pinv()),
        ("ls_min_norm_solve", lambda: gi.ls_min_norm_solve(a, y_col),
         lambda: pinv() @ y_col),
        ("ls_min_norm_solve_row", lambda: gi.ls_min_norm_solve_row(y_row, a),
         lambda: y_row @ pinv()),
        ("w_drazin_solve", lambda: gi.w_drazin_solve(a, w, y_w),
         lambda: wdz() @ y_w),
        ("ls_solve_left", lambda: gi.ls_solve_left(a, b_left),
         lambda: pinv() @ b_left),
        ("ls_solve_right", lambda: gi.ls_solve_right(a, b_right),
         lambda: b_right @ pinv()),
        ("ls_solve_both", lambda: gi.ls_solve_both(a, b_both, d_both),
         lambda: pinv() @ d_both @ o.mp(b_both)),
    ]
    calls = [Call(op, f"{op} {tag}", run, _equals(ref)) for op, run, ref in specs]
    if m != n:
        return calls

    b_sq = to_matrix(gi, item["b_sq"])
    d_sq = to_matrix(gi, item["d_sq"])
    ode_b = to_matrix(gi, item["ode_b"])
    dz = lambda: o.drazin(a)  # noqa: E731
    specs = [
        ("drazin_inverse", lambda: gi.drazin_inverse(a), dz),
        ("drazin_inverse_oracle", lambda: gi.drazin_inverse_oracle(a), dz),
        ("projector_drazin_left", lambda: gi.projector(a, "drazin_left"),
         lambda: a @ dz()),
        ("projector_drazin_right", lambda: gi.projector(a, "drazin_right"),
         lambda: dz() @ a),
        ("drazin_solve", lambda: gi.drazin_solve(a, y_col), lambda: dz() @ y_col),
        ("drazin_solve_row", lambda: gi.drazin_solve_row(y_row, a),
         lambda: y_row @ dz()),
        ("dz_solve_left", lambda: gi.dz_solve_left(a, b_left),
         lambda: dz() @ b_left),
        ("dz_solve_right", lambda: gi.dz_solve_right(a, b_right),
         lambda: b_right @ dz()),
        ("dz_solve_both", lambda: gi.dz_solve_both(a, b_sq, d_sq),
         lambda: dz() @ d_sq @ o.drazin(b_sq)),
    ]
    if item["index_le_1"]:
        specs.append(("group_inverse", lambda: gi.group_inverse(a), dz))
    calls += [Call(op, f"{op} {tag}", run, _equals(ref)) for op, run, ref in specs]
    calls += [
        Call("ode_left_partial", f"ode_left_partial {tag}",
             lambda: gi.ode_left_partial(a, ode_b), _ode_ok(gi, a, ode_b, "left")),
        Call("ode_right_partial", f"ode_right_partial {tag}",
             lambda: gi.ode_right_partial(a, ode_b), _ode_ok(gi, a, ode_b, "right")),
    ]
    return calls


# -- rank_half_ladder -----------------------------------------------------------------
#
# Why: the ROADMAP headline, n x n at rank n/2 for n = 6, 8, 10, a 12 x 8
# rank-6 rung and a 9 x 9 Drazin rung (core rank 5, index 3).  Loads:
# `minors` and `matrix.int_det`, C(n-1, r-1) Bareiss determinants per entry.
# The adjugate/recurrence kernel must show its gain here.  Bypass:
# `high_index_drazin` (small core rank, so few determinants) and
# `small_corpus`.


def ladder_calls(gi, items, oracle):
    calls = []
    for item in items:
        a = to_matrix(gi, item["a"])
        b = to_matrix(gi, item["b"])
        tag = f"{item['label']}"
        pinv = (lambda a=a: oracle.mp(a))
        dz = (lambda a=a: oracle.drazin(a))
        if not item["drazin"]:
            calls.append(Call("mp_inverse", f"mp_inverse {tag}",
                              lambda a=a: gi.mp_inverse(a), _equals(pinv)))
            calls.append(Call("ls_solve_left", f"ls_solve_left {tag}",
                              lambda a=a, b=b: gi.ls_solve_left(a, b),
                              _equals(lambda p=pinv, b=b: p() @ b)))
        if a.is_square:
            calls.append(Call("drazin_inverse", f"drazin_inverse {tag}",
                              lambda a=a: gi.drazin_inverse(a), _equals(dz)))
            calls.append(Call("dz_solve_left", f"dz_solve_left {tag}",
                              lambda a=a, b=b: gi.dz_solve_left(a, b),
                              _equals(lambda d=dz, b=b: d() @ b)))
    return calls


def rung_metric(call):
    """Name of the per-rung timing a ladder call feeds, if any."""
    op, label = call.label.split(" ", 1)
    if op == "mp_inverse":
        return f"inverses.mp_{label}_s"
    if op == "drazin_inverse" and label == gen.LADDER_DRAZIN[0]:
        return f"inverses.drazin_{label}_s"
    return None


# -- high_index_drazin ------------------------------------------------------------------
#
# Why: a small core rank (2) with a high index (8), so the Drazin path builds
# the power profile up to A^(2k+1) and clears denominators per entry, while
# the determinants are tiny.  Loads: `matrix` (matmul, rank_profile,
# clear_denominators, int_rank).  A lazy rank_profile or an integer-core
# matmul should show here.  Bypass: the `mp_inverse` rungs of
# `rank_half_ladder`, which build no powers.


def high_index_calls(gi, items, oracle):
    calls = []
    for item in items:
        calls.extend(_high_index_item_calls(gi, item, oracle))
    return calls


def _high_index_item_calls(gi, item, o):
    a = to_matrix(gi, item["a"])
    y = to_matrix(gi, item["y"])
    b = to_matrix(gi, item["b"])
    ode_b = to_matrix(gi, item["ode_b"])
    tag = f"{a.rows}x{a.cols}"
    dz = lambda: o.drazin(a)  # noqa: E731
    specs = [
        ("drazin_inverse", lambda: gi.drazin_inverse(a), dz),
        ("drazin_solve", lambda: gi.drazin_solve(a, y), lambda: dz() @ y),
        ("dz_solve_left", lambda: gi.dz_solve_left(a, b), lambda: dz() @ b),
        ("projector_drazin_left", lambda: gi.projector(a, "drazin_left"),
         lambda: a @ dz()),
        ("projector_drazin_right", lambda: gi.projector(a, "drazin_right"),
         lambda: dz() @ a),
    ]
    calls = [Call(op, f"{op} {tag}", run, _equals(ref)) for op, run, ref in specs]
    return calls + [
        Call("ode_left_partial", f"ode_left_partial {tag}",
             lambda: gi.ode_left_partial(a, ode_b), _ode_ok(gi, a, ode_b, "left")),
        Call("ode_right_partial", f"ode_right_partial {tag}",
             lambda: gi.ode_right_partial(a, ode_b), _ode_ok(gi, a, ode_b, "right")),
    ]


# -- cli_docs -------------------------------------------------------------------------------
#
# Why: the command-line user, `exactgi.cli.main` in-process on JSON documents
# with complex-rational entries (distinct 3-4 digit denominators, decimal
# literals), default flags.  The only workload that loads `documents`
# (parse/render), argparse, JSON output and the CLI's default thread pool;
# rational entries also drive `clear_denominators` lcm growth.  Bypass for
# document and CLI work: every other workload.


def _write_doc(path, rows_text):
    doc = {"rows": len(rows_text), "cols": len(rows_text[0]), "entries": rows_text}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return os.path.getsize(path)


def _matrix_text(matrix):
    return [[gen.literal((e.re, e.im)) for e in row] for row in matrix.to_lists()]


def invoke_cli(cli, argv):
    """Run `gi` in-process; returns the exit code and what it wrote to
    stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_matrix_ok(gi, expected):
    def verify(result):
        code, text = result
        return code == 0 and gi.parse_matrix_document(json.loads(text)) == expected()
    return verify


def _cli_verify_ok(result):
    code, text = result
    return code == 0 and json.loads(text)["all_satisfied"] is True


def _cli_ode_ok(gi, a, b):
    def verify(result):
        code, text = result
        if code != 0:
            return False
        doc = json.loads(text)
        poly = gi.MatrixPoly([gi.parse_matrix_document(c) for c in doc["coefficients"]])
        return doc["substitution_identity"] is True and gi.substitute_check(
            poly, a, b, "left")[0]
    return verify


def cli_calls(gi, cli, items, oracle, workdir):
    """Writes the documents under `workdir` and returns the CLI calls.  The
    candidate inverses for `verify` come from the oracles."""
    os.makedirs(workdir, exist_ok=True)
    calls = []
    for idx, item in enumerate(items):
        a_values, a_text = item["a"]
        a = to_matrix(gi, a_values)
        y = to_matrix(gi, item["y"][0])
        b = to_matrix(gi, item["b"][0])
        m, n = a.shape
        tag = f"#{idx} {m}x{n}"
        path = lambda name: os.path.join(workdir, f"{name}_{idx}.json")  # noqa: E731
        size = {
            "a": _write_doc(path("a"), a_text),
            "y": _write_doc(path("y"), item["y"][1]),
            "b": _write_doc(path("b"), item["b"][1]),
            "xmp": _write_doc(path("xmp"), _matrix_text(oracle.mp(a))),
        }
        pinv = (lambda a=a: oracle.mp(a))
        specs = [
            ("pinv", ["pinv", "--in", path("a")], ["a"], _cli_matrix_ok(gi, pinv)),
            ("proj_in", ["proj", "--in", path("a"), "--which", "in"], ["a"],
             _cli_matrix_ok(gi, lambda p=pinv, a=a: p() @ a)),
            ("proj_out", ["proj", "--in", path("a"), "--which", "out"], ["a"],
             _cli_matrix_ok(gi, lambda p=pinv, a=a: a @ p())),
            ("solve_lsmin", ["solve", "--kind", "lsmin", "--in", path("a"),
                             "--rhs", path("y")], ["a", "y"],
             _cli_matrix_ok(gi, lambda p=pinv, y=y: p() @ y)),
            ("mateq_ax_ls", ["mateq", "--eq", "ax", "--kind", "ls", "--in", path("a"),
                             "--rhs", path("b")], ["a", "b"],
             _cli_matrix_ok(gi, lambda p=pinv, b=b: p() @ b)),
            ("verify_mp", ["verify", "--kind", "mp", "--in", path("a"),
                           "--X", path("xmp")], ["a", "xmp"], _cli_verify_ok),
        ]
        if m == n:
            ode_b = to_matrix(gi, item["ode_b"][0])
            size["ob"] = _write_doc(path("ob"), item["ode_b"][1])
            size["xdz"] = _write_doc(path("xdz"), _matrix_text(oracle.drazin(a)))
            dz = (lambda a=a: oracle.drazin(a))
            specs += [
                ("dinv", ["dinv", "--in", path("a")], ["a"], _cli_matrix_ok(gi, dz)),
                ("proj_drazin_left", ["proj", "--in", path("a"), "--which", "drazin_left"],
                 ["a"], _cli_matrix_ok(gi, lambda d=dz, a=a: a @ d())),
                ("solve_drazin", ["solve", "--kind", "drazin", "--in", path("a"),
                                  "--rhs", path("y")], ["a", "y"],
                 _cli_matrix_ok(gi, lambda d=dz, y=y: d() @ y)),
                ("mateq_ax_drazin", ["mateq", "--eq", "ax", "--kind", "drazin",
                                     "--in", path("a"), "--rhs", path("b")], ["a", "b"],
                 _cli_matrix_ok(gi, lambda d=dz, b=b: d() @ b)),
                ("ode_left", ["ode", "--side", "left", "--in", path("a"),
                              "--B", path("ob")], ["a", "ob"], _cli_ode_ok(gi, a, ode_b)),
                ("verify_drazin", ["verify", "--kind", "drazin", "--in", path("a"),
                                   "--X", path("xdz")], ["a", "xdz"], _cli_verify_ok),
            ]
        for op, argv, inputs, verify in specs:
            calls.append(Call(op, f"gi {op} {tag}",
                              lambda argv=argv: invoke_cli(cli, argv), verify,
                              sum(size[k] for k in inputs)))
    return calls
