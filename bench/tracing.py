"""Outside-in layer trace for the benchmark.

The tracer wraps the cross-module boundaries of ``gnorm`` as they are bound
today: for each boundary it replaces the module attribute in every ``gnorm``
module that holds it (``certify.enumerate_cycles`` and
``cycles.enumerate_cycles`` alike), so calls made through any import binding
are seen.  No program file is edited.

A span has a name, start, end, parent span and job id.  Spans live in
compact arrays in memory and are written as JSON lines when the run ends.
A generator boundary opens one span per resume, so it is timed only while
the generator runs.  Self time is span time minus the time its child spans
cover.  A boundary whose attribute no longer exists is recorded as absent,
and every metric that depends on it is reported as absent, not as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


class Tracer:
    """Span recorder with per-span counters and distinct-input keys."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.job = -1
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self.job)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        t = self.clock()
        self.end[idx] = t
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.child[p] += t - self.start[idx]

    def stats(self) -> dict[str, "SpanStats"]:
        """Inclusive time, self time and call count per span name."""
        out = {name: SpanStats() for name in self.names}
        for i in range(len(self.start)):
            s = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            s.incl += dur
            s.excl += dur - self.child[i]
            s.calls += 1
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "job": self.job_id[i],
                }, separators=(",", ":")) + "\n")


@dataclass
class SpanStats:
    incl: float = 0.0   # span time
    excl: float = 0.0   # self time: span time not covered by child spans
    calls: int = 0


# -- wrappers -------------------------------------------------------------------


def _span_call(tr: Tracer, name: str, fn, on_args=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if on_args is not None:
            on_args(tr, args, kw)
        idx = tr.begin(name)
        try:
            out = fn(*args, **kw)
        finally:
            tr.finish(idx)
        if on_result is not None:
            on_result(tr, out)
        return out
    return wrapper


def _span_generator(tr: Tracer, name: str, fn, item_counter: str):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        it = fn(*args, **kw)
        while True:
            idx = tr.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tr.finish(idx)
            tr.counts[item_counter] += 1
            yield item
    return wrapper


def _count_call(tr: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        tr.counts[counter] += 1
        return fn(*args, **kw)
    return wrapper


# -- boundary hooks ---------------------------------------------------------------


def _count_true(counter):
    def hook(tr, out):
        if out:
            tr.counts[counter] += 1
    return hook


def _add_len(counter):
    def hook(tr, out):
        tr.counts[counter] += len(out)
    return hook


def _cycle_key(tr, args, kw):
    g = args[0]
    length = args[1] if len(args) > 1 else kw["length"]
    tr.keys["cycles.enumerate"].add((g.left, g.right, g.edges, length))


def _order_key(tr, args, kw):
    scopes, n = args[0], args[1]
    tr.keys["density.elim_order"].add((tuple(tuple(sorted(s)) for s in scopes), n))


def _direct_assignments(tr, args, kw):
    total = 1
    for d in args[2]:
        total *= d
    tr.counts["density.direct_assignments"] += total


def _falsifier_result(tr, out):
    tr.counts["falsify.trials"] += out.trials
    if out.witness is not None:
        tr.counts["falsify.witnesses"] += 1


@dataclass(frozen=True)
class Boundary:
    span: str           # span (or counter) name
    module: str         # defining module
    attr: str           # attribute path in that module, "Class.method" allowed
    kind: str = "call"  # "call", "generator" or "count"
    on_args: Optional[Callable] = None
    on_result: Optional[Callable] = None
    counter: Optional[str] = None


BOUNDARIES = (
    Boundary("symmetry.transitive_filter", "gnorm.symmetry", "_transitive_under",
             on_result=_count_true("symmetry.transitive_accepted")),
    Boundary("symmetry.enumerate", "gnorm.symmetry", "_all_automorphisms",
             on_result=_add_len("symmetry.group_elements")),
    Boundary("symmetry.report", "gnorm.symmetry", "automorphisms"),
    Boundary("symmetry.isomorphic", "gnorm.symmetry", "isomorphic"),
    Boundary("certify.counting_refs", "gnorm.certify", "_counting_refs"),
    Boundary("certify.counting_failures", "gnorm.certify", "_counting_failures"),
    Boundary("certify.shortcut", "gnorm.certify", "_arithmetic_shortcut"),
    Boundary("certify.pipeline", "gnorm.certify", "certify_not_norming"),
    Boundary("graphs.balanced_enum", "gnorm.graphs", "iter_balanced_colourings",
             kind="generator", counter="graphs.balanced_colourings"),
    Boundary("cycles.enumerate", "gnorm.cycles", "enumerate_cycles",
             on_args=_cycle_key, on_result=_add_len("cycles.cycles_found")),
    Boundary("density.direct", "gnorm.density", "_evaluate_direct",
             on_args=_direct_assignments),
    Boundary("density.t_decoration", "gnorm.density", "t_decoration"),
    Boundary("density.eliminate", "gnorm.density", "_evaluate_eliminate"),
    Boundary("density.elim_order", "gnorm.density", "_elimination_order",
             on_args=_order_key),
    Boundary("density.sweep", "gnorm.density", "s_max"),
    Boundary("density.sweep", "gnorm.density", "rho_2m"),
    Boundary("kernels.init", "gnorm.kernels", "StepKernel.__post_init__"),
    Boundary("kernels.array", "gnorm.kernels", "StepKernel.array", kind="count"),
    Boundary("falsify.falsifier", "gnorm.falsify", "triangle_falsifier",
             on_result=_falsifier_result),
    Boundary("falsify.falsifier", "gnorm.falsify", "hatami_random_scan",
             on_result=_falsifier_result),
    Boundary("falsify.check", "gnorm.falsify", "hatami_check"),
)


def _resolve(b: Boundary):
    """(owner object, attribute name, original) or None when absent."""
    try:
        owner = importlib.import_module(b.module)
    except ImportError:
        return None
    *path, name = b.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if orig is None:
        return None
    return owner, name, orig


class Instrumentation:
    """Installs the boundary wrappers on ``gnorm`` and removes them again."""

    def __init__(self, tracer: Tracer, boundaries=BOUNDARIES):
        self.tracer = tracer
        self.boundaries = boundaries
        self.absent = sorted({b.span for b in boundaries if _resolve(b) is None})
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, b: Boundary, fn):
        if b.kind == "generator":
            return _span_generator(self.tracer, b.span, fn, b.counter)
        if b.kind == "count":
            return _count_call(self.tracer, b.span + "_calls", fn)
        return _span_call(self.tracer, b.span, fn, b.on_args, b.on_result)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "gnorm" or k.startswith("gnorm.")) and m is not None]
        for b in self.boundaries:
            found = _resolve(b)
            if found is None:
                continue
            owner, name, orig = found
            wrapper = self._wrap(b, orig)
            if isinstance(owner, type):
                self._saved.append((owner, name, orig))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- per-layer metrics ----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit, better, span it depends on, value from (stats, tracer))
LAYER_METRICS = (
    ("symmetry.transitive_filter_s", "s", "lower", "symmetry.transitive_filter",
     lambda s, t: s.incl),
    ("symmetry.transitive_filter_calls", "count", "lower", "symmetry.transitive_filter",
     lambda s, t: s.calls),
    ("symmetry.transitive_accept_ratio", "ratio", "higher", "symmetry.transitive_filter",
     lambda s, t: _ratio(t.counts["symmetry.transitive_accepted"], s.calls)),
    ("symmetry.enumerate_s", "s", "lower", "symmetry.enumerate", lambda s, t: s.incl),
    ("symmetry.enumerate_calls", "count", "lower", "symmetry.enumerate",
     lambda s, t: s.calls),
    ("symmetry.group_elements", "count", "lower", "symmetry.enumerate",
     lambda s, t: t.counts["symmetry.group_elements"]),
    ("symmetry.report_self_s", "s", "lower", "symmetry.report", lambda s, t: s.excl),
    ("symmetry.isomorphic_s", "s", "lower", "symmetry.isomorphic", lambda s, t: s.incl),
    ("symmetry.isomorphic_calls", "count", "lower", "symmetry.isomorphic",
     lambda s, t: s.calls),
    ("certify.counting_refs_s", "s", "lower", "certify.counting_refs",
     lambda s, t: s.incl),
    ("certify.counting_refs_calls", "count", "lower", "certify.counting_refs",
     lambda s, t: s.calls),
    ("certify.counting_failures_s", "s", "lower", "certify.counting_failures",
     lambda s, t: s.incl),
    ("certify.counting_failures_calls", "count", "lower", "certify.counting_failures",
     lambda s, t: s.calls),
    ("certify.shortcut_s", "s", "lower", "certify.shortcut", lambda s, t: s.incl),
    ("certify.pipeline_self_s", "s", "lower", "certify.pipeline", lambda s, t: s.excl),
    ("graphs.balanced_enum_s", "s", "lower", "graphs.balanced_enum",
     lambda s, t: s.incl),
    ("graphs.balanced_colourings", "count", "lower", "graphs.balanced_enum",
     lambda s, t: t.counts["graphs.balanced_colourings"]),
    ("cycles.enumerate_s", "s", "lower", "cycles.enumerate", lambda s, t: s.incl),
    ("cycles.enumerate_calls", "count", "lower", "cycles.enumerate",
     lambda s, t: s.calls),
    ("cycles.enumerate_repeat_ratio", "ratio", "lower", "cycles.enumerate",
     lambda s, t: _ratio(s.calls, len(t.keys["cycles.enumerate"]))),
    ("cycles.cycles_found", "count", "lower", "cycles.enumerate",
     lambda s, t: t.counts["cycles.cycles_found"]),
    ("density.direct_s", "s", "lower", "density.direct", lambda s, t: s.incl),
    ("density.direct_calls", "count", "lower", "density.direct", lambda s, t: s.calls),
    ("density.direct_assignments", "count", "lower", "density.direct",
     lambda s, t: t.counts["density.direct_assignments"]),
    ("density.direct_bytes", "B", "lower", "density.direct",
     lambda s, t: 16 * t.counts["density.direct_assignments"]),
    ("density.t_decoration_self_s", "s", "lower", "density.t_decoration",
     lambda s, t: s.excl),
    ("density.t_decoration_calls", "count", "lower", "density.t_decoration",
     lambda s, t: s.calls),
    ("density.eliminate_self_s", "s", "lower", "density.eliminate", lambda s, t: s.excl),
    ("density.eliminate_calls", "count", "lower", "density.eliminate",
     lambda s, t: s.calls),
    ("density.elim_order_s", "s", "lower", "density.elim_order", lambda s, t: s.incl),
    ("density.elim_order_calls", "count", "lower", "density.elim_order",
     lambda s, t: s.calls),
    ("density.elim_order_repeat_ratio", "ratio", "lower", "density.elim_order",
     lambda s, t: _ratio(s.calls, len(t.keys["density.elim_order"]))),
    ("density.sweep_self_s", "s", "lower", "density.sweep", lambda s, t: s.excl),
    ("kernels.init_s", "s", "lower", "kernels.init", lambda s, t: s.incl),
    ("kernels.init_calls", "count", "lower", "kernels.init", lambda s, t: s.calls),
    ("kernels.array_calls", "count", "lower", "kernels.array",
     lambda s, t: t.counts["kernels.array_calls"]),
    ("falsify.self_s", "s", "lower", "falsify.falsifier",
     lambda s, t: s.excl + t.stats_of("falsify.check").excl),
    ("falsify.check_calls", "count", "lower", "falsify.check", lambda s, t: s.calls),
    ("falsify.trials", "count", "higher", "falsify.falsifier",
     lambda s, t: t.counts["falsify.trials"]),
    ("falsify.witnesses", "count", "lower", "falsify.falsifier",
     lambda s, t: t.counts["falsify.witnesses"]),
)

OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")


class _View:
    """What a metric formula may read: counters, keys and other spans' stats."""

    def __init__(self, tracer: Tracer, stats: dict[str, SpanStats]):
        self.counts = tracer.counts
        self.keys = tracer.keys
        self._stats = stats

    def stats_of(self, span: str) -> SpanStats:
        return self._stats.get(span, SpanStats())


def layer_metrics(tracer: Tracer, absent=()) -> dict[str, Optional[float]]:
    """Per-layer metrics of the spans the tracer recorded.

    Metrics of an absent boundary are None.
    """
    stats = tracer.stats()
    view = _View(tracer, stats)
    out: dict[str, Optional[float]] = {}
    for name, _unit, _better, span, formula in LAYER_METRICS:
        if span in absent:
            out[name] = None
        else:
            out[name] = formula(stats.get(span, SpanStats()), view)
    return out


def median_metrics(per_pass: list[dict]) -> dict[str, Optional[float]]:
    """Median of each metric over traced passes; absent stays None."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = None if values[0] is None else statistics.median(values)
    return out
