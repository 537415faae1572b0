"""Spans around the public calls into each ``repro`` layer.

The traced run installs wrappers (:func:`install`) around the public
functions and methods of each layer; nothing inside ``src/`` is edited,
and the untraced run installs nothing.  Each wrapper records a
:class:`Span`: a name, start and end (``time.perf_counter``), the span that
caused it, and the operation (sweep, job or verdict) it belongs to.

Parents come from a per-thread stack of open spans.  A span opened on a
thread with an empty stack attaches to the root span of its operation,
which may live on another thread: the sweep service runs a job's shards on
its worker thread while the client thread waits in ``result()``, and the
shard spans still hang under that job.

Spans stay in memory and are written out when the run ends
(:meth:`Tracer.dump`).  :func:`self_times` and :func:`union_length` hold
the interval arithmetic the per-layer metrics are built from.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

#: The root span of one benchmark operation; not a layer.
OP_SPAN = "perfbench.op"
#: Packages whose module-level names :meth:`Installation.replace_function`
#: rebinds.
PATCHED_PACKAGES = ("repro", "perfbench")


@dataclass(eq=False)
class Op:
    """One benchmark operation.  ``name`` may be renamed after the fact
    (a service job learns its job id only when ``submit`` returns)."""

    name: str
    tag: str | None = None


@dataclass(eq=False)
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    op: Op | None
    thread: int
    tag: str | None = None
    end: float | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": None if self.op is None else self.op.name,
            "thread": self.thread,
            "tag": self.tag,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans from every thread of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: dict[int, Span] = {}
        self._bound: dict[int, tuple[weakref.ref, Op]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(span.name == name for span in self._stack())

    def begin(self, name: str, *, op: Op | None = None, tag=None) -> Span:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1].id
            op = op if op is not None else stack[-1].op
        if parent is None and op is not None:
            root = self._roots.get(id(op))
            parent = None if root is None else root.id
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent,
            op=op,
            thread=threading.get_ident(),
            tag=tag,
        )
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def begin_op(self, op: Op) -> Span:
        """Open the root span of an operation on the calling thread."""
        span = self.begin(OP_SPAN, op=op, tag=op.tag)
        self._roots[id(op)] = span
        return span

    def bind(self, obj, op: Op) -> None:
        """Route spans of work on ``obj`` (a plan) to ``op`` on any thread."""
        self._bound[id(obj)] = (weakref.ref(obj), op)

    def bound(self, obj) -> Op | None:
        """The operation ``obj`` was bound to, if it is that same object."""
        ref, op = self._bound.get(id(obj), (None, None))
        return op if ref is not None and ref() is obj else None

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.record()) + "\n")


# -- interval arithmetic ------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def clipped(intervals, lo: float, hi: float):
    """The parts of ``intervals`` inside ``[lo, hi]``."""
    for start, end in intervals:
        start, end = max(start, lo), min(end, hi)
        if end > start:
            yield start, end


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other or run on another thread; the covered
    part is the union of their intervals, clipped to the parent's.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    own = {}
    for span in spans:
        covered = union_length(clipped(children[span.id], span.start, span.end))
        own[span.id] = span.duration - covered
    return own


# -- wrappers -----------------------------------------------------------------


def family(protocol) -> str:
    """The workload family of a protocol, from its name."""
    name = getattr(protocol, "name", "")
    if name.startswith("xor-ring"):
        return "xor_ring"
    if name.startswith("majority-torus"):
        return "majority_torus"
    return "other"


def _spanned(tracer: Tracer, name: str, fn, *, tag=None, after=None):
    """``fn`` wrapped in a span; nested calls of the same name pass through
    (``Simulator.run_with_faults`` reaches ``run_with_faults``, which is
    one engine run, not two)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.open(name):
            return fn(*args, **kwargs)
        span = tracer.begin(name, tag=tag(*args, **kwargs) if tag else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if after is not None:
            after(span, result, *args, **kwargs)
        return result

    return wrapper


def _count_rows(span, reports, *args, **kwargs):
    span.counts["rows"] = len(reports)
    span.counts["row_steps"] = sum(report.steps_executed for report in reports)


def _count_lift(span, _result, simulator, *args, **kwargs):
    span.counts["lifted_ratio"] = len(simulator.lifted_nodes) / simulator.protocol.n
    span.tag = family(simulator.protocol)


def _count_cache_get(span, value, *args, **kwargs):
    span.counts["hit"] = int(value is not None)


def _count_specs(span, plan, *args, **kwargs):
    span.counts["specs"] = len(plan.specs)


def _count_exploration(span, _result, graph, *args, **kwargs):
    stats = graph.stats()
    span.counts.update(
        states=stats.states,
        edges=stats.edges,
        covered_states=stats.covered_states,
        transition_hits=stats.transition_cache_hits,
        transition_misses=stats.transition_cache_misses,
    )


def _iter_shards_wrapper(tracer: Tracer, fn):
    """Spans for a generator: one per resumption, so the time the consumer
    spends between shards is not charged to the executor."""

    @functools.wraps(fn)
    def wrapper(plan, *args, **kwargs):
        shards = fn(plan, *args, **kwargs)
        op = tracer.bound(plan)
        while True:
            span = tracer.begin("service.executor", op=op)
            try:
                progress = next(shards)
            except StopIteration:
                return
            finally:
                tracer.finish(span)
            yield progress

    return wrapper


class Installation:
    """The patches one :func:`install` applied, undone by :meth:`remove`."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def set_item(self, table: dict, key, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def replace_function(self, original, wrapper) -> None:
        """Rebind every module-level name bound to ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(PATCHED_PACKAGES):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap the public calls of every layer in spans recorded by ``tracer``."""
    from repro.analysis import resilience, sweeps
    from repro.core import batch, compiled, engine
    from repro.faults import injection
    from repro.graphs import automorphisms
    from repro.service import cache, executor, jobs, plan
    from repro.stabilization import exploration, model_checker
    from repro.statics import preflight

    patch = Installation()

    def method(cls, attr, name, **options):
        patch.set(cls, attr, _spanned(tracer, name, cls.__dict__[attr], **options))

    def function(original, name, **options):
        patch.replace_function(original, _spanned(tracer, name, original, **options))

    function(compiled.compile_protocol, "core.compiled.compile")
    method(batch.BatchSimulator, "__init__", "core.batch.lift", after=_count_lift)
    method(
        batch.BatchSimulator,
        "run_batch",
        "core.batch.run",
        tag=lambda simulator, *a, **k: family(simulator.protocol),
        after=_count_rows,
    )
    method(
        batch.BatchSimulator,
        "run_batch_with_faults",
        "core.batch.run",
        tag=lambda *a, **k: "resilience",
        after=_count_rows,
    )
    method(batch.BatchSimulator, "step_codes", "core.batch.step_codes")
    method(engine.Simulator, "run", "core.engine.run")
    method(engine.Simulator, "run_with_faults", "core.engine.run")
    function(injection.run_with_faults, "core.engine.run")
    for table in (sweeps.EXECUTORS, resilience.EXECUTORS):
        for key, runner in list(table.items()):
            patch.set_item(
                table, key, _spanned(tracer, "analysis.sweeps.runner", runner)
            )
    method(sweeps.SweepReport, "merge", "analysis.sweeps.merge")
    function(plan.plan_sweep, "service.plan.build", after=_count_specs)
    function(plan.plan_resilience_sweep, "service.plan.build", after=_count_specs)
    method(plan.SweepPlan, "case_fingerprint", "service.fingerprint.case")
    protocol_fp = plan.SweepPlan.__dict__["protocol_fingerprint"]
    traced_fp = functools.cached_property(
        _spanned(tracer, "service.fingerprint.protocol", protocol_fp.func)
    )
    traced_fp.__set_name__(plan.SweepPlan, "protocol_fingerprint")
    patch.set(plan.SweepPlan, "protocol_fingerprint", traced_fp)
    method(cache.ResultCache, "get", "service.cache.get", after=_count_cache_get)
    method(cache.ResultCache, "put", "service.cache.put")
    function(preflight.verify_plan, "statics.preflight.verify_plan")
    method(jobs.SweepService, "submit", "service.jobs.submit")
    method(jobs.SweepService, "result", "service.jobs.result_wait")
    patch.replace_function(
        executor.iter_shards, _iter_shards_wrapper(tracer, executor.iter_shards)
    )
    function(automorphisms.protocol_symmetry_group, "graphs.automorphisms.group")
    method(
        automorphisms.StateCanonicalizer,
        "canonical",
        "graphs.automorphisms.canonical",
    )
    method(
        exploration.ExplorationGraph,
        "__init__",
        "stabilization.exploration.build",
        after=_count_exploration,
    )
    function(
        model_checker.decide_label_r_stabilizing, "stabilization.model_checker.decide"
    )
    return patch
