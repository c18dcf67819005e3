"""Per-layer tracing for one sweep, installed from outside the package.

The tracer replaces each traced function of ``cliffsig`` with a wrapper,
in every ``cliffsig`` module attribute that binds it.  Call sites look
functions up through module globals at call time, so a call made through
``cliffsig.verify.structural_invariants`` is traced as well as one made
through ``cliffsig.oracle.structural_invariants``.

A wrapper records one span per call (name, start, end, parent) in flat
arrays of integer nanoseconds; spans are only written out, by the caller,
when the sweep ends.  ``kernels.blade_mul`` is counted but gets no spans:
it is called hundreds of thousands of times per sweep.

A traced function that no longer exists is reported as absent (its
metrics read 0 and its name is listed), never as a crash.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, function, statistics).  self_s is used where the function's
# children are traced too; total_s elsewhere.
LAYERS = (
    ("oracle", "structural_invariants", ("calls", "self_s")),
    ("oracle", "regular_representation", ("calls", "self_s")),
    ("oracle", "expected_invariants", ("calls", "total_s", "hit_ratio")),
    ("linalg", "symmetric_signature", ("calls", "total_s")),
    ("core", "geometric_product", ("calls", "total_s")),
    ("core", "wedge", ("calls", "total_s")),
    ("core", "left_contraction", ("calls", "total_s")),
    ("core", "right_contraction", ("calls", "total_s")),
    ("sigchange", "vee_alpha", ("calls", "total_s")),
    ("sigchange", "verify_clifford_map", ("calls", "self_s")),
    ("grading", "even_subalgebra_basis", ("calls", "total_s")),
    ("classify", "classify_clifford", ("calls", "total_s")),
    ("classify", "classify_even_part", ("calls", "total_s")),
    ("classify", "classify_even_subalgebra", ("calls", "total_s")),
    ("classify", "classify_complex_clifford", ("calls", "total_s")),
    ("kernels", "blade_mul", ("calls",)),
)
COUNT_ONLY = {"kernels.blade_mul"}
ROOT = "verify.run_suite"
OVERHEAD = "trace.overhead_ratio"

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "hit_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {
        f"{mod}.{fn}.{stat}": UNITS[stat] for mod, fn, stats in LAYERS for stat in stats
    }
    out[OVERHEAD] = "ratio"
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod, fn, _stats in LAYERS:
            name = f"{mod}.{fn}"
            try:
                module = importlib.import_module(f"cliffsig.{mod}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, fn, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self.originals[name] = original
            if name in COUNT_ONLY:
                wrapper = self._counter(name, original)
            else:
                wrapper = self._spanner(name, original)
            self._patch(original, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cliffsig" and not mod_name.startswith("cliffsig."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, name, fn):
        enter, leave = self._span_hooks(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return wrapper

    def _span_hooks(self, name):
        name_id = len(self.names)
        self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack
        )
        clock = time.perf_counter_ns

        def enter() -> int:
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            return idx

        def leave(idx: int) -> None:
            end[idx] = clock()
            stack.pop()

        return enter, leave

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside the root span of the sweep."""
        enter, leave = self._span_hooks(ROOT)
        idx = enter()
        try:
            return fn(*args)
        finally:
            leave(idx)

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this sweep; absent layers read 0."""
        calls, total_s, self_s = span_totals(self.spans())
        out: dict[str, float] = {}
        for mod, fn, stats in LAYERS:
            name = f"{mod}.{fn}"
            for stat in stats:
                if stat == "calls":
                    value = self.counts.get(name, calls.get(name, 0))
                elif stat == "total_s":
                    value = total_s.get(name, 0.0)
                elif stat == "self_s":
                    value = self_s.get(name, 0.0)
                else:
                    value = _hit_ratio(self.originals.get(name))
                out[f"{name}.{stat}"] = value
        return out


def _hit_ratio(cached) -> float:
    info = getattr(cached, "cache_info", None)
    if info is None:
        return 0.0
    info = info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def span_totals(spans: dict):
    """Per name: call count, total seconds, and self seconds, where self
    time is a span's duration minus the time its child spans cover."""
    names, name, start, end, parent = (
        spans["names"], spans["name"], spans["start"], spans["end"], spans["parent"]
    )
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, n in enumerate(name):
        key = names[n]
        dur = end[i] - start[i]
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0) + dur
        own[key] = own.get(key, 0) + dur - covered[i]
    return (
        calls,
        {k: v / 1e9 for k, v in total.items()},
        {k: v / 1e9 for k, v in own.items()},
    )


def tree_problems(spans: dict) -> list[str]:
    """Ways in which a span list is not a well-formed tree: a parent that
    does not precede its child, a child outside its parent's interval, or
    negative self time."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems = []
    covered = [0] * len(start)
    for i, p in enumerate(parent):
        if end[i] < start[i]:
            problems.append(f"span {i} ends before it starts")
        if p < 0:
            continue
        if p >= i:
            problems.append(f"span {i} has parent {p} that does not precede it")
        elif not (start[p] <= start[i] and end[i] <= end[p]):
            problems.append(f"span {i} lies outside its parent {p}")
        covered[p] += end[i] - start[i]
    for i, c in enumerate(covered):
        if end[i] - start[i] - c < 0:
            problems.append(f"span {i} has negative self time")
    return problems
