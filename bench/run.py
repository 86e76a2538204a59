"""Benchmark of exactgi: four seeded workloads over the public API.

Usage, from the root of the repository:

    python3 bench/run.py --workload small_corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick            # every workload once, reduced size

Each workload runs in its own process, closed-loop on one thread: one call at
a time from a fixed call list, repeated in passes until ``--seconds`` have
gone by (and at least three passes).  Every call's result is checked exactly,
outside the timer.  Call and set-up times are scaled to a reference machine
speed (see calibration.py); the text output shows the wall times beside
them.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the time runs untraced, then one
pass runs with spans recorded around every layer boundary, and the JSON
carries the per-layer metrics (span times are wall seconds within that
pass).  The lines before it are the same figures for a human reader, with
the run's metadata.

The exit code is 0 when every call was exactly right, 1 when any failed,
and 2 when the library cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
WORK_DIR = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from calibration import Calibration  # noqa: E402

WORKLOADS = ("small_corpus", "rank_half_ladder", "high_index_drazin", "cli_docs")
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_SAMPLES = 10  # distinct calls beyond the tail percentile
PASS_START_LIMIT_S = 120.0  # no pass starts after this, so a run ends within 180 s
FRONTIER_LIMIT_S = 1.0
FRONTIER_CAP = 16

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("call_ms_p50", "ms"),
    ("call_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
RUNG_METRICS = tuple(f"inverses.mp_{label}_s" for label, *_ in gen.LADDER_RUNGS) + (
    f"inverses.drazin_{gen.LADDER_DRAZIN[0]}_s",
)
PER_LAYER = (
    ("scalar.add_ns", "ns"), ("scalar.mul_ns", "ns"), ("scalar.div_ns", "ns"),
    ("scalar.add_calls", "count"), ("scalar.mul_calls", "count"),
    ("scalar.div_calls", "count"),
    ("matrix.int_det_calls", "count"), ("matrix.int_det_s", "s"),
    ("matrix.matmul_calls", "count"), ("matrix.matmul_s", "s"),
    ("matrix.rank_profile_calls", "count"), ("matrix.rank_profile_s", "s"),
    ("matrix.powers_built", "count"),
    ("matrix.int_rank_calls", "count"), ("matrix.int_rank_s", "s"),
    ("matrix.clear_denominators_calls", "count"), ("matrix.clear_denominators_s", "s"),
    ("matrix.max_int_bits", "bits"), ("matrix.char_poly_ms", "ms"),
    ("minors.principal_calls", "count"), ("minors.principal_s", "s"),
    ("minors.replaced_calls", "count"), ("minors.replaced_s", "s"),
    ("minors.dets_per_replaced", "count"), ("minors.nonzero_det_frac", "ratio"),
    ("minors.budget_refusals", "count"),
    ("inverses.calls", "count"), ("inverses.self_s", "s"), ("inverses.fail", "count"),
    ("inverses.oracle_s", "s"),
    ("solve.calls", "count"), ("solve.self_s", "s"), ("solve.fail", "count"),
    ("equations.calls", "count"), ("equations.self_s", "s"), ("equations.fail", "count"),
    ("ode.calls", "count"), ("ode.self_s", "s"), ("ode.fail", "count"),
    *((name, "s") for name in RUNG_METRICS),
    ("frontier_n", "n"),
    ("documents.parse_s", "s"), ("documents.render_s", "s"),
    ("documents.bytes_in", "bytes"), ("documents.bytes_out", "bytes"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.exit_nonzero", "count"),
    ("trace.overhead_frac", "ratio"),
)


# -- loading the library ------------------------------------------------------------


class SetupError(Exception):
    """The library under test cannot be imported from this checkout."""


def fresh_import():
    """Import exactgi from this checkout's src/, dropping any earlier copy
    so that every set-up pays the import."""
    if not (SRC / "exactgi" / "__init__.py").is_file():
        raise SetupError(f"no exactgi package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "exactgi" or n.startswith("exactgi.")]:
        del sys.modules[name]
    gi = importlib.import_module("exactgi")
    cli = importlib.import_module("exactgi.cli")
    if Path(gi.__file__).resolve().parent != (SRC / "exactgi").resolve():
        raise SetupError(f"exactgi imported from {gi.__file__}, not from {SRC}")
    return gi, cli


# -- set-up: inputs, call lists, warm-up ---------------------------------------------------


class Setup:
    """Everything one workload needs: the call list, the warm-up calls and
    the oracle cache the checks share."""

    def __init__(self, workload, gi, cli, seed, quick):
        self.oracle = wl.Oracle(gi)
        if workload == "small_corpus":
            items = gen.small_corpus(seed, 3 if quick else 5)
            self.calls = wl.small_corpus_calls(gi, items, self.oracle)
            warm = self.calls
        elif workload == "rank_half_ladder":
            rungs = gen.LADDER_RUNGS[:1] if quick else gen.LADDER_RUNGS
            items = gen.ladder(seed, 1 if quick else 2, rungs)
            self.calls = wl.ladder_calls(gi, items, self.oracle)
            warm = self.calls
        elif workload == "high_index_drazin":
            shapes = ((1, [3]),) if quick else gen.HIGH_INDEX_SHAPES
            self.calls = wl.high_index_calls(gi, gen.high_index(seed, shapes), self.oracle)
            warm = wl.high_index_calls(gi, gen.high_index(seed, ((1, [2]),)), wl.Oracle(gi))
        elif workload == "cli_docs":
            shapes = gen.CLI_SHAPES[:1] + gen.CLI_SHAPES[-1:] if quick else gen.CLI_SHAPES
            items = gen.cli_docs(seed, 1 if quick else 2, shapes)
            self.calls = wl.cli_calls(gi, cli, items, self.oracle, str(WORK_DIR))
            warm = self.calls
        else:
            raise ValueError(f"unknown workload {workload!r}")
        # warm up: the first call of each operation, result unchecked
        seen = set()
        for call in warm:
            if call.op not in seen:
                seen.add(call.op)
                call.run()


# -- measurement ---------------------------------------------------------------------------


class Book:
    """Attempts, failures and the checked result of every call."""

    def __init__(self, n_calls):
        self.expected = [None] * n_calls
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.exit_nonzero = 0
        self.bytes_out = 0

    def fail(self, label, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def check(self, idx, call, result, error):
        self.attempted += 1
        if error is not None:
            self.fail(call.label, error)
            return
        if isinstance(result, tuple):  # a CLI call: exit code and stdout
            self.exit_nonzero += result[0] != 0
            self.bytes_out += len(result[1].encode())
        value = wl.snapshot(result)
        if self.expected[idx] is not None:
            if value != self.expected[idx]:
                self.fail(call.label, "differs from the checked result of an earlier pass")
            return
        try:
            ok = call.verify(result)
        except Exception as exc:  # a malformed result is a failed call
            self.fail(call.label, f"check raised {type(exc).__name__}: {exc}")
            return
        if ok:
            self.expected[idx] = value
        else:
            self.fail(call.label, "result differs from the reference")


class Pass:
    """One pass over the call list: each call's wall time, and the same
    time scaled to the reference speed by the calibration samples taken
    around that call."""

    def __init__(self, wall, scaled):
        self.wall = wall
        self.scaled = scaled


def run_pass(calls, book, cal, tracer=None):
    """Runs every call once and checks each result outside the timer."""
    spans = []
    for idx, call in enumerate(calls):
        error = result = None
        busy = cal.busy
        start = time.perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # counted as a failed call
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        spans.append((start, end, cal.busy - busy))
        if tracer is None:
            book.check(idx, call, result, error)
        else:
            with tracer.pause():
                book.check(idx, call, result, error)
    return Pass(
        [end - start - busy for start, end, busy in spans],
        [cal.scale(start, end, busy) for start, end, busy in spans],
    )


def measure(calls, book, cal, seconds, min_passes, started):
    """Passes until `seconds` have gone by and `min_passes` are done."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if passes and time.perf_counter() - started > PASS_START_LIMIT_S:
            break
        passes.append(run_pass(calls, book, cal))
        gc.collect()
    return passes


def percentile(sorted_values, p):
    """Linear interpolation between closest ranks, p in [0, 1]."""
    pos = p * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_fraction(n_calls):
    """The highest percentile with TAIL_SAMPLES distinct calls of the list
    beyond it (the pooled samples then have TAIL_SAMPLES per pass beyond
    it), and not below the median.  Repeats of one call across passes are
    not independent inputs, so they do not count towards the ten."""
    return max(0.5, 1 - TAIL_SAMPLES / n_calls)


# -- frontier probe ----------------------------------------------------------------------


class _RungTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _RungTimeout


def frontier(gi, seed, oracle, book, cap):
    """Climb n = 6, 8, ... at r = n/2 under the default budget; stop at the
    first rung that takes over FRONTIER_LIMIT_S or is refused.  An interval
    timer cuts each rung at the limit."""
    reached = 0
    rungs = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for n, rows in gen.frontier_rungs(seed, cap):
            a = wl.to_matrix(gi, rows)
            outcome, result = "finished", None
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, FRONTIER_LIMIT_S)
            try:
                result = gi.mp_inverse(a)
            except _RungTimeout:
                outcome = "over the limit"
            except gi.BudgetExceededError:
                outcome = "refused"
            except Exception as exc:  # counted as a failed call
                outcome = "failed"
                book.fail(f"frontier n={n}", f"raised {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            book.attempted += 1
            if outcome == "finished":
                if result.inverse != oracle.mp(a):
                    book.fail(f"frontier n={n}", "result differs from the reference")
                    outcome = "failed"
                elif elapsed > FRONTIER_LIMIT_S:
                    outcome = "over the limit"
            rungs.append((n, elapsed, outcome))
            if outcome != "finished":
                break
            reached = n
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reached, rungs


# -- traced run ---------------------------------------------------------------------------


def scalar_ns(gi, seed, repeats=5, pairs=2000):
    """ns per ExactScalar add/mul/div on operands sampled from the
    small_corpus and cli_docs inputs, best of `repeats`."""
    rng = gen.rng_for("scalar", seed)
    values = [e for item in gen.small_corpus(seed) for row in item["a"] for e in row]
    for item in gen.cli_docs(seed, 1):
        values += [e for row in item["a"][0] for e in row]
    scalars = [gi.ExactScalar(re, im) for re, im in values]
    operands = [(rng.choice(scalars), rng.choice(scalars)) for _ in range(pairs)]
    divisible = [(a, b) for a, b in operands if b]
    result = {}
    for name, op, data in (
        ("add", lambda a, b: a + b, operands),
        ("mul", lambda a, b: a * b, operands),
        ("div", lambda a, b: a / b, divisible),
    ):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for a, b in data:
                op(a, b)
            samples.append((time.perf_counter() - start) / len(data) * 1e9)
        result[f"scalar.{name}_ns"] = min(samples)
    return result


def char_poly_ms(gi, seed, repeats=3):
    """char_poly_coeffs on the ladder's Gram (A*A) and Drazin base (A^(k+1))
    matrices, summed over the rungs, best of `repeats`."""
    bases = []
    for item in gen.ladder(seed, 1):
        a = wl.to_matrix(gi, item["a"])
        bases.append(a.power(gen.LADDER_DRAZIN[2][0] + 1) if item["drazin"]
                     else a.conj_transpose() @ a)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for base in bases:
            gi.char_poly_coeffs(base)
        samples.append((time.perf_counter() - start) * 1e3)
    return min(samples)


def layer_metrics(summary, tracer, book, calls):
    """Per-layer metrics from the spans of one traced pass."""
    fn, layer = summary["fn"], summary["layer"]
    counts = tracer.counts
    metrics = {
        "scalar.add_calls": counts["add"],
        "scalar.mul_calls": counts["mul"],
        "scalar.div_calls": counts["div"],
        "matrix.powers_built": fn["matrix.rank_profile"]["info"],
        "matrix.max_int_bits": tracer.max_int_bits,
        "minors.budget_refusals": summary["refusals"],
        "documents.parse_s": fn["documents.load_matrix"]["incl_s"]
        + fn["documents.parse_matrix_document"]["incl_s"],
        "documents.render_s": fn["documents.matrix_to_document"]["incl_s"]
        + fn["documents.poly_to_document"]["incl_s"],
        "documents.bytes_in": sum(call.bytes_in for call in calls),
        "documents.bytes_out": book.bytes_out,
        "cli.exit_nonzero": book.exit_nonzero,
    }
    for short in ("int_det", "matmul", "rank_profile", "int_rank", "clear_denominators"):
        metrics[f"matrix.{short}_calls"] = fn[f"matrix.{short}"]["calls"]
        metrics[f"matrix.{short}_s"] = fn[f"matrix.{short}"]["incl_s"]
    principal = fn["minors.principal_minor_sum"]
    replaced = [fn["minors.replaced_col_minor_sum"], fn["minors.replaced_row_minor_sum"]]
    replaced_calls = sum(r["calls"] for r in replaced)
    metrics["minors.principal_calls"] = principal["calls"]
    metrics["minors.principal_s"] = principal["incl_s"]
    metrics["minors.replaced_calls"] = replaced_calls
    metrics["minors.replaced_s"] = sum(r["incl_s"] for r in replaced)
    det_parents = summary["parent_of"]["matrix.int_det"]
    minor_names = [n for n in det_parents if n.startswith("minors.")]
    dets_in_minors = sum(det_parents[n] for n in minor_names)
    dets_in_replaced = sum(det_parents[n] for n in minor_names if "replaced" in n)
    metrics["minors.dets_per_replaced"] = (
        dets_in_replaced / replaced_calls if replaced_calls else 0
    )
    metrics["minors.nonzero_det_frac"] = (
        sum(summary["nonzero"][n] for n in minor_names) / dets_in_minors
        if dets_in_minors else 0
    )
    for name in ("inverses", "solve", "equations", "ode", "cli"):
        stats = layer[name]
        metrics[f"{name}.calls"] = stats["calls"]
        metrics[f"{name}.self_s"] = stats["self_s"]
        if name != "cli":
            metrics[f"{name}.fail"] = stats["fail"]
    return metrics


# The hook each per-layer metric is computed from; when the hook's target is
# missing (tracing.Tracer.absent) the metric is reported as absent.
_NEEDS = {
    "scalar.add_calls": "scalar.__add__",
    "scalar.mul_calls": "scalar.__mul__",
    "scalar.div_calls": "scalar.__truediv__",
    **{f"matrix.{fn}_{kind}": f"matrix.{fn}"
       for fn in ("int_det", "matmul", "rank_profile", "int_rank", "clear_denominators")
       for kind in ("calls", "s")},
    "matrix.powers_built": "matrix.rank_profile",
    "matrix.max_int_bits": "matrix.int_det",
    "minors.principal_calls": "minors.principal_minor_sum",
    "minors.principal_s": "minors.principal_minor_sum",
    "minors.replaced_calls": "minors.replaced_col_minor_sum",
    "minors.replaced_s": "minors.replaced_col_minor_sum",
    "minors.dets_per_replaced": "matrix.int_det",
    "minors.nonzero_det_frac": "matrix.int_det",
    **{f"{layer}.{kind}": layer for layer in tracing.PUBLIC_LAYERS
       for kind in ("calls", "self_s", "fail")},
    "documents.parse_s": "documents.load_matrix",
    "documents.render_s": "documents.matrix_to_document",
    "cli.calls": "cli.main",
    "cli.self_s": "cli.main",
}
# Metrics only one workload produces; elsewhere they read 0.
_ONLY_ON = {
    **{name: "rank_half_ladder" for name in RUNG_METRICS + ("frontier_n",)},
    **{name: "cli_docs" for name, _ in PER_LAYER if name.startswith(("documents.", "cli."))},
}


# -- output -------------------------------------------------------------------------------


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def show(name, value, unit, note=""):
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())


def run_workload(args) -> int:
    started = time.perf_counter()
    setup_times = []
    with Calibration() as cal:
        for _ in range(1 if args.quick else SETUP_REPEATS):
            busy = cal.busy
            start = time.perf_counter()
            gi, cli = fresh_import()
            setup = Setup(args.workload, gi, cli, args.seed, args.quick)
            setup_times.append(cal.scale(start, time.perf_counter(), cal.busy - busy))
        calls = setup.calls
        book = Book(len(calls))
        min_passes = 1 if args.quick else MIN_PASSES
        seconds = 0 if args.quick else args.seconds / 2 if args.trace else args.seconds
        passes = measure(calls, book, cal, seconds, 1 if args.trace else min_passes, started)
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_book = Book(len(calls))
                traced_book.expected = book.expected
                traced_pass = run_pass(calls, traced_book, cal, tracer)
            finally:
                tracer.uninstall()
            book.attempted += traced_book.attempted
            book.failed += traced_book.failed
            book.failures += traced_book.failures
            traced = (tracer, traced_book, sum(traced_pass.scaled))

    run_s = statistics.median(sum(p.scaled) for p in passes)
    pooled = sorted(t for p in passes for t in p.scaled)
    tail_p = tail_fraction(len(calls))
    rung_times = {}
    for idx, call in enumerate(calls):
        metric = wl.rung_metric(call) if args.workload == "rank_half_ladder" else None
        if metric:
            rung_times.setdefault(metric, []).extend(p.scaled[idx] for p in passes)

    reached, rungs = 0, []
    if args.workload == "rank_half_ladder":
        reached, rungs = frontier(gi, args.seed, setup.oracle, book,
                                  8 if args.quick else FRONTIER_CAP)

    print(f"workload {args.workload}: {len(calls)} calls per pass, {len(passes)} passes; "
          f"wall pass time median {statistics.median(sum(p.wall) for p in passes):.4g} s, "
          f"scaled {run_s:.4g} s; calibration kernel median "
          f"{statistics.median(d for _, d in cal.samples) * 1e3:.3f} ms")
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    if rungs:
        print(f"  frontier_n {reached} (r = n/2, limit {FRONTIER_LIMIT_S:g} s): " + ", ".join(
            f"n={n} {elapsed:.3f} s {outcome}" for n, elapsed, outcome in rungs))
    fail_frac = book.failed / max(book.attempted, 1)
    show("fail_frac", fail_frac, "ratio", f"({book.failed} of {book.attempted})")
    for failure in book.failures:
        print(f"  FAILED {failure}", file=sys.stderr)

    if traced is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "call_ms_p50": statistics.median(pooled) * 1e3,
            "call_ms_tail": percentile(pooled, tail_p) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "setup_s": f"(median of {len(setup_times)} set-ups)",
            "run_s": f"(median of {len(passes)} passes)",
            "call_ms_p50": f"({len(pooled)} samples)",
            "call_ms_tail": f"(p{tail_p * 100:.2f}, {len(pooled)} samples, "
            f"{sum(t > metrics['call_ms_tail'] / 1e3 for t in pooled)} beyond)",
        }
        units = dict(END_TO_END)
    else:
        tracer, traced_book, traced_run_s = traced
        metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0)
        metrics.update(layer_metrics(tracing.summarize(tracer.spans), tracer, traced_book, calls))
        metrics.update(scalar_ns(gi, args.seed))
        metrics["matrix.char_poly_ms"] = char_poly_ms(gi, args.seed)
        metrics["inverses.oracle_s"] = setup.oracle.seconds
        for name, times in rung_times.items():
            metrics[name] = statistics.median(times)
        metrics["frontier_n"] = reached
        metrics["trace.overhead_frac"] = traced_run_s / run_s - 1
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.tsv"
        tracer.write(str(spans_path))
        missing = set(tracer.absent)
        notes = {name: "(not measured on this workload)"
                 for name, only in _ONLY_ON.items() if only != args.workload}
        notes.update({name: "(absent: hook target missing)"
                      for name, need in _NEEDS.items() if need in missing})
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        units = dict(PER_LAYER)
    for name, value in metrics.items():
        show(name, value, units[name], notes.get(name, ""))

    correct = book.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after the other."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        print(f"== {workload}", flush=True)
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long to keep making passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: reduced inputs, one pass, checks on")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_workload(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
