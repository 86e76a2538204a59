"""Tracing from outside the library: spans around the calls into each layer.

`Tracer.install` wraps the library's functions at every import site (every
``exactgi`` module attribute that refers to the function) and the hot
methods on their classes.  Each wrapped call records a span (id, parent id,
name, start, end, status, info) in memory; `ExactScalar` arithmetic is only
counted.  A hook whose target no longer exists is listed in `absent` and its
metrics are reported as such, so the benchmark survives refactors that move
or remove functions.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# Span hooks by layer; "Class.method" names patch the class.  The public
# modules inverses/solve/equations/ode get every public function they define.
SPAN_HOOKS = {
    "matrix": ("int_det", "int_rank", "clear_denominators", "rank", "rank_profile",
               "char_poly_coeffs", "inverse", "det", "ExactMatrix.__matmul__"),
    "minors": ("principal_minor_sum", "replaced_col_minor_sum", "replaced_row_minor_sum"),
    "documents": ("load_matrix", "parse_matrix_document", "matrix_to_document",
                  "poly_to_document"),
    "cli": ("main",),
}
PUBLIC_LAYERS = ("inverses", "solve", "equations", "ode")
# ExactScalar arithmetic, counted per group.
COUNT_HOOKS = {
    "add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
}

OK, RAISED, REFUSED = 0, 1, 2


def _max_bits(*grids) -> int:
    top = 0
    for grid in grids:
        for row in grid:
            if row:
                top = max(top, max(row), -min(row))
    return top.bit_length()


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self._thread_counts: list[dict] = []
        self.max_int_bits = 0
        self._bits_lock = threading.Lock()
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    # -- installation -------------------------------------------------------------

    def install(self, package_name: str = "exactgi") -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package_name or name.startswith(package_name + "."))
        ]
        self._local.stack = self._main_stack
        for layer, names in SPAN_HOOKS.items():
            mod = sys.modules.get(f"{package_name}.{layer}")
            for name in names:
                self._hook(modules, mod, layer, name)
        for layer in PUBLIC_LAYERS:
            mod = sys.modules.get(f"{package_name}.{layer}")
            if mod is None:
                self.absent.append(layer)
                continue
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    self._hook(modules, mod, layer, name)
        scalar_mod = sys.modules.get(f"{package_name}.scalar")
        cls = getattr(scalar_mod, "ExactScalar", None)
        for group, names in COUNT_HOOKS.items():
            for name in names:
                original = cls.__dict__.get(name) if cls is not None else None
                if original is None:
                    self.absent.append(f"scalar.{name}")
                    continue
                self._patch(cls, name, original, self._counter(group, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def pause(self):
        """Record nothing inside the block (the checks and oracles)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _hook(self, modules, mod, layer, name) -> None:
        span_name = f"{layer}.{name.split('.')[-1].strip('_')}"
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(mod, cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self.absent.append(span_name)
                return
            self._patch(cls, attr, original, self._span(span_name, original))
            return
        original = getattr(mod, name, None) if mod is not None else None
        if not callable(original):
            self.absent.append(span_name)
            return
        wrapper = self._span(span_name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- wrappers -----------------------------------------------------------------

    @property
    def counts(self) -> dict:
        """ExactScalar operations counted per group, summed over threads."""
        return {
            group: sum(c[group] for c in self._thread_counts) for group in COUNT_HOOKS
        }

    def _counter(self, group, fn):
        tracer = self
        local = self._local

        def counted(a, b):
            if tracer.active:
                counts = getattr(local, "counts", None)
                if counts is None:
                    # one dict per thread, so no increment is lost
                    counts = local.counts = dict.fromkeys(COUNT_HOOKS, 0)
                    tracer._thread_counts.append(counts)
                counts[group] += 1
            return fn(a, b)

        return counted

    def _span(self, name, fn):
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            main = tracer._main_stack
            # a span opened on a worker thread belongs to the span the main
            # thread is waiting in
            parent = stack[-1] if stack else (main[-1] if main else 0)
            sid = next(ids)
            stack.append(sid)
            status, info = OK, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = REFUSED if type(exc).__name__ == "BudgetExceededError" else RAISED
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if status == OK and observe is not None:
                    info = observe(tracer, args, result)
                spans.append((sid, parent, name, start, end, status, info))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart\tend\tstatus\tinfo\n")
            for span in self.spans:
                handle.write("\t".join(str(v) for v in span) + "\n")


def _observe_int_matrix(tracer, args, result):
    bits = _max_bits(*args[:2])
    with tracer._bits_lock:
        tracer.max_int_bits = max(tracer.max_int_bits, bits)
    return int(bool(result[0] or result[1])) if isinstance(result, tuple) else 0


def _observe_profile(tracer, args, result):
    return len(getattr(result, "powers", ()))


_OBSERVERS = {
    "matrix.int_det": _observe_int_matrix,
    "matrix.int_rank": _observe_int_matrix,
    "matrix.rank_profile": _observe_profile,
}


# -- analysis ----------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[tuple]) -> dict:
    """Per-function and per-layer figures from the spans.

    fn[name] = {calls, incl_s, info}: incl_s counts only spans whose parent
    is not the same function.  layer[layer] = {calls, self_s, fail}: calls
    and fail count spans entered from outside the layer; self_s is each
    span's duration minus the part its child spans cover.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list] = defaultdict(list)
    for sid, parent, _name, start, end, _status, _info in spans:
        if parent:
            children[parent].append((start, end))
    fn = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "info": 0})
    layer = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "fail": 0})
    parent_of = defaultdict(lambda: defaultdict(int))  # name -> parent name -> count
    nonzero = defaultdict(int)  # int_det results that were nonzero, by parent name
    refusals = 0
    for sid, parent, name, start, end, status, info in spans:
        parent_span = by_id.get(parent)
        parent_name = parent_span[2] if parent_span else ""
        own_layer = name.split(".")[0]
        entry = fn[name]
        entry["calls"] += 1
        entry["info"] += info
        if parent_name != name:
            entry["incl_s"] += end - start
        parent_of[name][parent_name] += 1
        if name == "matrix.int_det":
            nonzero[parent_name] += info
        stats = layer[own_layer]
        stats["self_s"] += end - start - _covered(start, end, children.get(sid, []))
        if parent_name.split(".")[0] != own_layer:
            stats["calls"] += 1
            stats["fail"] += status != OK
        if status == REFUSED and not parent_span:
            refusals += 1
    return {
        "fn": fn,
        "layer": layer,
        "parent_of": parent_of,
        "nonzero": nonzero,
        "refusals": refusals,
    }
