"""Command-line front end.

Reads matrices from JSON (or CSV for real matrices), dispatches to the
library, and writes a result document to stdout or --out.  All computation
is exact; --decimal only affects rendering.

Exit codes: 0 ok, 2 input/validation error, 3 work-budget error.  Any
other exception is an internal fault and propagates with its traceback.

The argument parser is built once per process, on the first `main()` call,
and reused by every later call: its ten sub-parsers cost far more to build
than an argv costs to parse.  Reuse is safe because each `parse_args` fills
a fresh namespace and a rejected argv leaves the parser as it was.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import equations, inverses, ode, solve
from .documents import (
    DocumentError,
    load_matrix,
    matrix_to_document,
    poly_to_document,
    render_scalar,
    render_scalar_decimal,
)
from .inverses import GiReport, WeightPair
from .minors import BudgetExceededError
from .scalar import MAX_LITERAL_DIGITS, ExactScalar

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _scalar_doc(value: ExactScalar, decimal: int | None) -> str:
    if decimal is not None:
        return render_scalar_decimal(value, decimal)
    return render_scalar(value)


def _report_doc(report: GiReport, decimal: int | None) -> dict:
    doc = matrix_to_document(report.inverse, decimal)
    doc["denominator"] = _scalar_doc(report.denominator, decimal)
    doc["rank"] = report.rank_used
    doc["index"] = report.index_used
    doc["representation"] = report.representation
    return doc


def _solve_doc(result: solve.SolveReport, decimal: int | None) -> dict:
    doc = matrix_to_document(result.solution, decimal)
    doc["rank"] = result.rank_used
    doc["index"] = result.index_used
    doc["residual_norm_sq"] = _scalar_doc(result.residual_norm_sq, decimal)
    doc["method"] = result.method
    if result.in_prescribed_range is not None:
        doc["in_prescribed_range"] = result.in_prescribed_range
    return doc


def _eq_doc(result: equations.EqSolution, decimal: int | None) -> dict:
    doc = matrix_to_document(result.X, decimal)
    doc["case"] = result.case_tag
    doc["ranks"] = list(result.ranks)
    if result.indices is not None:
        doc["indices"] = list(result.indices)
    doc["residual"] = matrix_to_document(result.residual, decimal)
    if result.constraint_satisfied is not None:
        doc["constraint_satisfied"] = result.constraint_satisfied
    return doc


_encode_str = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, with `indent` the margin
    of the line the value starts on.  With an indent, json.dumps runs its
    pure-Python encoder; this lays out dicts with str keys, lists, strs,
    ints, bools and None itself and strings through the C string encoder,
    and hands any other value to json.dumps, re-indented to the margin."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is list and value:
        inner = indent + "  "
        return ("[\n" + inner + f",\n{inner}".join(_json_text(v, inner) for v in value)
                + "\n" + indent + "]")
    if kind is dict and value and all(type(k) is str for k in value):
        inner = indent + "  "
        return ("{\n" + inner + f",\n{inner}".join(
            _encode_str(k) + ": " + _json_text(v, inner) for k, v in value.items())
            + "\n" + indent + "}")
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    # strings are escaped, so every newline starts a new line of the layout
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _emit(doc: dict, args: argparse.Namespace) -> None:
    text = _json_text(doc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise DocumentError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)


def _check_options(args: argparse.Namespace) -> None:
    if args.budget is not None and args.budget < 0:
        raise DocumentError("--budget must not be negative")
    # K digits scale every rendered entry by 10**K
    if args.decimal is not None and not 0 <= args.decimal <= MAX_LITERAL_DIGITS:
        raise DocumentError(f"--decimal must be between 0 and {MAX_LITERAL_DIGITS}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gi",
        description="Exact generalized inverses and Cramer-style solvers "
        "over Gaussian rationals.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result document here instead of stdout")
    common.add_argument(
        "--decimal",
        type=int,
        metavar="K",
        help="render entries as decimals with K digits (display only)",
    )
    common.add_argument(
        "--budget",
        type=int,
        help="override the minor-sum work guard (entry operations)",
    )
    form = argparse.ArgumentParser(add_help=False)
    form.add_argument(
        "--form",
        choices=["auto", "column", "row"],
        default="auto",
        help="which determinantal representation to evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", parents=[common, form], help="Moore-Penrose inverse")
    p.add_argument("--in", dest="matrix", required=True, help="matrix file")

    p = sub.add_parser("wpinv", parents=[common, form], help="weighted Moore-Penrose inverse")
    p.add_argument("--in", dest="matrix", required=True)
    p.add_argument("--M", dest="weight_m", required=True, help="HPD weight, m x m")
    p.add_argument("--N", dest="weight_n", required=True, help="HPD weight, n x n")

    p = sub.add_parser("dinv", parents=[common, form], help="Drazin inverse")
    p.add_argument("--in", dest="matrix", required=True)

    p = sub.add_parser("ginv", parents=[common], help="group inverse (index <= 1)")
    p.add_argument("--in", dest="matrix", required=True)

    p = sub.add_parser("wdinv", parents=[common, form], help="weighted Drazin inverse")
    p.add_argument("--in", dest="matrix", required=True)
    p.add_argument("--W", dest="weight", required=True, help="weight matrix, n x m")

    p = sub.add_parser("proj", parents=[common], help="projector by minor sums")
    p.add_argument("--in", dest="matrix", required=True)
    p.add_argument(
        "--which",
        choices=["in", "out", "drazin_left", "drazin_right"],
        required=True,
    )

    p = sub.add_parser("solve", parents=[common], help="vector system solvers")
    p.add_argument("--kind", choices=["lsmin", "drazin", "wdrazin"], required=True)
    p.add_argument("--side", choices=["left", "right"], default="left",
                   help="left: A x = y with y a column; right: x A = y with y a row")
    p.add_argument("--in", dest="matrix", required=True)
    p.add_argument("--rhs", required=True, help="right-hand-side vector file")
    p.add_argument("--W", dest="weight", help="weight matrix (wdrazin only)")

    p = sub.add_parser("mateq", parents=[common], help="matrix equation solvers")
    p.add_argument("--eq", choices=["ax", "xa", "axb"], required=True)
    p.add_argument("--kind", choices=["ls", "drazin"], required=True)
    p.add_argument("--in", dest="matrix", required=True, help="coefficient A")
    p.add_argument("--B", dest="second", help="second coefficient (axb only)")
    p.add_argument("--rhs", required=True, help="right-hand-side matrix file")

    p = sub.add_parser("ode", parents=[common], help="partial solution of X'+AX=B / X'+XA=B")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--in", dest="matrix", required=True, help="coefficient A")
    p.add_argument("--B", dest="second", required=True, help="right-hand side B")

    p = sub.add_parser("verify", parents=[common], help="check defining equations")
    p.add_argument("--kind", choices=["mp", "wmp", "drazin", "group", "wdrazin"],
                   required=True)
    p.add_argument("--in", dest="matrix", required=True)
    p.add_argument("--X", dest="candidate", required=True, help="candidate inverse")
    p.add_argument("--M", dest="weight_m", help="HPD weight (wmp)")
    p.add_argument("--N", dest="weight_n", help="HPD weight (wmp)")
    p.add_argument("--W", dest="weight", help="weight matrix (wdrazin)")
    return parser


def _run(args: argparse.Namespace) -> dict:
    decimal = args.decimal
    budget = args.budget
    _check_options(args)
    a = load_matrix(args.matrix)

    if args.command == "pinv":
        return _report_doc(inverses.mp_inverse(a, args.form, budget), decimal)

    if args.command == "wpinv":
        if args.form == "row":
            raise DocumentError(
                "the weighted Moore-Penrose inverse has no row representation"
            )
        weights = WeightPair(load_matrix(args.weight_m), load_matrix(args.weight_n))
        return _report_doc(
            inverses.weighted_mp_inverse(a, weights, budget), decimal
        )

    if args.command == "dinv":
        return _report_doc(
            inverses.drazin_inverse(a, args.form, budget), decimal
        )

    if args.command == "ginv":
        return _report_doc(inverses.group_inverse(a, budget), decimal)

    if args.command == "wdinv":
        w = load_matrix(args.weight)
        return _report_doc(
            inverses.w_drazin_inverse(a, w, args.form, budget), decimal
        )

    if args.command == "proj":
        return matrix_to_document(
            inverses.projector(a, args.which, budget), decimal
        )

    if args.command == "solve":
        rhs = load_matrix(args.rhs)
        if args.kind == "lsmin":
            result = (
                solve.ls_min_norm_solve(a, rhs, budget)
                if args.side == "left"
                else solve.ls_min_norm_solve_row(rhs, a, budget)
            )
        elif args.kind == "drazin":
            result = (
                solve.drazin_solve(a, rhs, budget)
                if args.side == "left"
                else solve.drazin_solve_row(rhs, a, budget)
            )
        else:
            if args.weight is None:
                raise DocumentError("solve --kind wdrazin needs --W")
            if args.side != "left":
                raise DocumentError("the weighted Drazin solver has no row form")
            result = solve.w_drazin_solve(a, load_matrix(args.weight), rhs, budget)
        return _solve_doc(result, decimal)

    if args.command == "mateq":
        rhs = load_matrix(args.rhs)
        if args.eq == "axb":
            if args.second is None:
                raise DocumentError("mateq --eq axb needs --B")
            b = load_matrix(args.second)
            fn = equations.ls_solve_both if args.kind == "ls" else equations.dz_solve_both
            return _eq_doc(fn(a, b, rhs, budget), decimal)
        if args.eq == "ax":
            fn = equations.ls_solve_left if args.kind == "ls" else equations.dz_solve_left
        else:
            fn = equations.ls_solve_right if args.kind == "ls" else equations.dz_solve_right
        return _eq_doc(fn(a, rhs, budget), decimal)

    if args.command == "ode":
        b = load_matrix(args.second)
        fn = ode.ode_left_partial if args.side == "left" else ode.ode_right_partial
        poly = fn(a, b, budget)
        doc = poly_to_document(poly.coefficients, decimal)
        ok, _ = ode.substitute_check(poly, a, b, args.side)
        doc["substitution_identity"] = ok
        return doc

    if args.command == "verify":
        x = load_matrix(args.candidate)
        kind = {"wmp": "weighted_mp", "wdrazin": "w_drazin"}.get(args.kind, args.kind)
        weights = None
        weight = None
        if kind == "weighted_mp":
            if args.weight_m is None or args.weight_n is None:
                raise DocumentError("verify --kind wmp needs --M and --N")
            weights = WeightPair(load_matrix(args.weight_m), load_matrix(args.weight_n))
        if kind == "w_drazin":
            if args.weight is None:
                raise DocumentError("verify --kind wdrazin needs --W")
            weight = load_matrix(args.weight)
        report = inverses.verify_defining_equations(a, x, kind, weights, weight)
        return {
            "kind": report.kind,
            "equations": report.equations,
            "all_satisfied": report.all_satisfied,
        }

    raise DocumentError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_run(args), args)
    except BudgetExceededError as exc:
        print(f"gi: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (DocumentError, ValueError) as exc:
        print(f"gi: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
