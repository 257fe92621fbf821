"""Span tracing for the benchmark's traced run.

Spans are recorded from outside the program: `instrument` swaps timing
wrappers in for the public functions and methods of the lowfpr modules, in
every lowfpr namespace that binds them, and puts the originals back on exit.
A few wrappers also record counts that only the call's arguments or result
show (objective calls, bracket-edge hits, sweeps, rows, attainable cells).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Modules whose public functions get a span. `cli` is traced by the caller,
# which opens one root span per command around `lowfpr.cli.main`.
TRACED_MODULES = ("data", "synth", "uncertainty", "rocmetrics", "adjust", "protocol", "analysis")
PATCHED_MODULES = TRACED_MODULES + ("cli",)

EDGE_TOL = 1e-6


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    cmd: str | None


class Tracer:
    """Keeps spans and counters in memory until the run ends.

    A span's parent is the innermost open span on its own thread. A worker
    thread with no open span takes the innermost open span of the main thread,
    which is the call that is waiting for it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.cmd: str | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.cmd))

    def count(self, name: str, n: int | float = 1) -> None:
        with self._lock:
            self.counters[name] += n


@dataclass(frozen=True)
class LayerStats:
    calls: int
    total_ns: int
    self_ns: int


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: (s.end_ns - s.start_ns) - _covered_ns(children.get(s.id, []), s.start_ns, s.end_ns) for s in spans
    }


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, total time and self time per span name."""
    own = self_times(spans)
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end_ns - s.start_ns
        self_ns[s.name] += own[s.id]
    return {name: LayerStats(calls[name], total[name], self_ns[name]) for name in calls}


def _plain_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _brent_wrapper(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        objective = bound.arguments["objective"]

        def traced_objective(x):
            with tracer.span("adjust.objective"):
                return objective(x)

        bound.arguments["objective"] = traced_objective
        with tracer.span(name):
            x, fx = fn(*bound.args, **bound.kwargs)
        lo, hi = bound.arguments["bracket"]
        if x - lo <= EDGE_TOL or hi - x <= EDGE_TOL:
            tracer.count("adjust.brent.edge")
        return x, fx

    return wrapper


def _fit_local_wrapper(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        variant = sig.bind(*args, **kwargs).arguments["variant"]
        label = getattr(variant, "value", variant)  # a Variant or its string value
        with tracer.span(f"{name}.{label}"):
            result = fn(*args, **kwargs)
        tracer.count("adjust.fit_local.sweeps", result.sweeps_used)
        return result

    return wrapper


def _load_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            ds = fn(*args, **kwargs)
        tracer.count("data.load_dataset.rows", len(ds))
        return ds

    return wrapper


def _study_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            rows = fn(*args, **kwargs)
        tracer.count("protocol.cells", len(rows))
        tracer.count("protocol.attainable", sum(1 for r in rows if r.attainable))
        return rows

    return wrapper


_SPECIAL_WRAPPERS = {
    "adjust.brent_minimize": _brent_wrapper,
    "adjust.fit_local": _fit_local_wrapper,
    "data.load_dataset": _load_wrapper,
    "protocol.subsampling_study": _study_wrapper,
}


def _wrap(tracer: Tracer, name: str, fn):
    return _SPECIAL_WRAPPERS.get(name, _plain_wrapper)(tracer, name, fn)


@contextmanager
def instrument(tracer: Tracer):
    """Route every public lowfpr function and method through `tracer`.

    Methods get `<module>.<Class>.<method>` spans; dataset validation
    (`PredictionDataset.__post_init__`) is traced as well, being where the
    constructor spends its time.
    """
    package = importlib.import_module("lowfpr")
    modules = {short: importlib.import_module(f"lowfpr.{short}") for short in PATCHED_MODULES}
    wrapped: dict[int, tuple[object, object]] = {}
    patches: list[tuple[object, str, object]] = []
    try:
        for short in TRACED_MODULES:
            mod = modules[short]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, _wrap(tracer, f"{short}.{name}", obj))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__post_init__"):
                            patches.append((obj, attr, fn))
                            setattr(obj, attr, _wrap(tracer, f"{short}.{name}.{attr}", fn))
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((mod, name, obj))
                    setattr(mod, name, entry[1])
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
