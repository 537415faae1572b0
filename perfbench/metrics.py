"""The benchmark's metrics: names, units, and how each is computed.

:data:`END_TO_END` are measured with tracing off.  :data:`PER_LAYER` come
from the spans of a traced run and are all per pass: one pass is a
workload's fixed sequence of operations, so counts are exact and times
compare across run lengths.  ``*_s`` is busy time (the summed durations of
the layer's spans) and ``self_s`` is busy time minus the time the span's
children cover.  A traced run reports every per-layer metric on every
workload, so a layer a workload does not reach reads 0.  Both lists are in
the order of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.tracing import OP_SPAN, clipped, self_times, union_length

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
)

#: The verdicts of ``verify_exhaustive``, used as metric suffixes.
VERDICTS = ("k7_quotient", "k6_concrete", "k6r5_quotient", "bad_gadget", "disagree")

#: Time metrics that ``verify_exhaustive`` also reports per verdict.
PER_VERDICT = (
    ("core.batch.step_codes_s", "s"),
    ("graphs.automorphisms.group_s", "s"),
    ("graphs.automorphisms.canonical_calls", "count"),
    ("graphs.automorphisms.canonical_s", "s"),
    ("stabilization.exploration.build_s", "s"),
    ("stabilization.exploration.self_s", "s"),
    ("stabilization.model_checker.self_s", "s"),
    ("stabilization.model_checker.decide_s", "s"),
)

LAYER = (
    ("setup.import_s", "s"),
    ("setup.core.compiled.compile_s", "s"),
    ("setup.core.batch.lift_s", "s"),
    ("core.compiled.compile_s", "s"),
    ("core.batch.lift_s", "s"),
    ("core.batch.lifted_ratio.xor_ring", "ratio"),
    ("core.batch.lifted_ratio.majority_torus", "ratio"),
    ("core.batch.run_s", "s"),
    ("core.batch.run_s.xor_ring", "s"),
    ("core.batch.run_s.majority_torus", "s"),
    ("core.batch.run_s.resilience", "s"),
    ("core.batch.rows", "count"),
    ("core.batch.row_steps", "count"),
    ("core.batch.row_steps.xor_ring", "count"),
    ("core.batch.row_steps_per_s", "1/s"),
    ("core.batch.step_codes_calls", "count"),
    ("core.batch.step_codes_s", "s"),
    ("core.engine.runs", "count"),
    ("core.engine.run_s", "s"),
    ("analysis.sweeps.runner_self_s", "s"),
    ("analysis.sweeps.merge_calls", "count"),
    ("analysis.sweeps.merge_s", "s"),
    ("service.plan.build_s", "s"),
    ("service.plan.specs", "count"),
    ("service.fingerprint.case_calls", "count"),
    ("service.fingerprint.case_s", "s"),
    ("service.fingerprint.protocol_s", "s"),
    ("service.cache.gets", "count"),
    ("service.cache.get_s", "s"),
    ("service.cache.puts", "count"),
    ("service.cache.put_s", "s"),
    ("service.cache.hit_ratio", "ratio"),
    ("statics.preflight.calls", "count"),
    ("statics.preflight.verify_plan_s", "s"),
    ("service.jobs.submit_s", "s"),
    ("service.jobs.result_wait_s", "s"),
    ("service.executor.self_s", "s"),
    ("graphs.automorphisms.group_s", "s"),
    ("graphs.automorphisms.canonical_calls", "count"),
    ("graphs.automorphisms.canonical_s", "s"),
    ("stabilization.exploration.build_s", "s"),
    ("stabilization.exploration.self_s", "s"),
    ("stabilization.exploration.states", "count"),
    ("stabilization.exploration.edges", "count"),
    ("stabilization.exploration.covered_states", "count"),
    ("stabilization.exploration.transition_hit_ratio", "ratio"),
    ("stabilization.model_checker.self_s", "s"),
)

PER_VERDICT_METRICS = tuple(
    (f"{name}.{verdict}", unit) for verdict in VERDICTS for name, unit in PER_VERDICT
)

PER_LAYER = (
    LAYER
    + PER_VERDICT_METRICS
    + (("trace.uncovered_share", "ratio"),)
    + tuple((f"trace.overhead.{name}", unit) for name, unit in END_TO_END)
)

#: Span name -> (busy-time metric, call-count metric, self-time metric).
SPAN_METRICS = {
    "core.compiled.compile": ("core.compiled.compile_s", None, None),
    "core.batch.lift": ("core.batch.lift_s", None, None),
    "core.batch.run": ("core.batch.run_s", None, None),
    "core.batch.step_codes": (
        "core.batch.step_codes_s",
        "core.batch.step_codes_calls",
        None,
    ),
    "core.engine.run": ("core.engine.run_s", "core.engine.runs", None),
    "analysis.sweeps.runner": (None, None, "analysis.sweeps.runner_self_s"),
    "analysis.sweeps.merge": (
        "analysis.sweeps.merge_s",
        "analysis.sweeps.merge_calls",
        None,
    ),
    "service.plan.build": ("service.plan.build_s", None, None),
    "service.fingerprint.case": (
        "service.fingerprint.case_s",
        "service.fingerprint.case_calls",
        None,
    ),
    "service.fingerprint.protocol": ("service.fingerprint.protocol_s", None, None),
    "service.cache.get": ("service.cache.get_s", "service.cache.gets", None),
    "service.cache.put": ("service.cache.put_s", "service.cache.puts", None),
    "statics.preflight.verify_plan": (
        "statics.preflight.verify_plan_s",
        "statics.preflight.calls",
        None,
    ),
    "service.jobs.submit": ("service.jobs.submit_s", None, None),
    "service.jobs.result_wait": ("service.jobs.result_wait_s", None, None),
    "service.executor": (None, None, "service.executor.self_s"),
    "graphs.automorphisms.group": ("graphs.automorphisms.group_s", None, None),
    "graphs.automorphisms.canonical": (
        "graphs.automorphisms.canonical_s",
        "graphs.automorphisms.canonical_calls",
        None,
    ),
    "stabilization.exploration.build": (
        "stabilization.exploration.build_s",
        None,
        "stabilization.exploration.self_s",
    ),
    "stabilization.model_checker.decide": (
        "stabilization.model_checker.decide_s",
        None,
        "stabilization.model_checker.self_s",
    ),
}


def end_to_end(passes, setup: list[float], rss: float, tail: str) -> dict[str, float]:
    """The end-to-end metrics of one phase, from medians where possible.

    ``passes`` holds each pass's operations.  ``throughput`` is the median
    over passes of each pass's work per second.  ``op_tail_s`` is the 90th
    percentile of the operation times when ``tail`` is ``"p90"``, and
    otherwise the median time of the slowest kind of operation (for
    workloads with too few operations for a p90).
    """
    ops = [op for pass_ops in passes for op in pass_ops]
    latencies = [op.seconds for op in ops]
    if tail == "p90":
        tail_s = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    else:
        tail_s = max(
            statistics.median(op.seconds for op in ops if op.kind == kind)
            for kind in {op.kind for op in ops}
        )
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "throughput": statistics.median(
            sum(op.work for op in pass_ops) / seconds
            for pass_ops in passes
            if (seconds := sum(op.seconds for op in pass_ops)) > 0
        ),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _op_of(spans_by_id, span):
    """The operation root a span hangs under (following parents)."""
    while span is not None and span.name != OP_SPAN:
        span = spans_by_id.get(span.parent)
    return span


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Every :data:`LAYER` and per-verdict metric, per pass.

    ``spans`` must all be finished; ``setup.*`` metrics come from the
    setup probes and are filled in by the caller.
    """
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    lifted = defaultdict(list)
    for span in spans:
        names = SPAN_METRICS.get(span.name)
        if names is None:
            continue
        busy, calls, self_ = names
        root = _op_of(by_id, span)
        if root is None:
            continue  # a correctness check between operations, not timed
        verdict = root.tag if root.tag in VERDICTS else None
        updates = {}
        if busy:
            updates[busy] = span.duration
        if calls:
            updates[calls] = 1
        if self_:
            updates[self_] = own[span.id]
        if span.name == "core.batch.run":
            updates[f"core.batch.run_s.{span.tag}"] = span.duration
            updates["core.batch.rows"] = span.counts["rows"]
            updates["core.batch.row_steps"] = span.counts["row_steps"]
            if span.tag == "xor_ring":
                updates["core.batch.row_steps.xor_ring"] = span.counts["row_steps"]
        elif span.name == "core.batch.lift":
            lifted[span.tag].append(span.counts["lifted_ratio"])
        elif span.name == "service.plan.build":
            updates["service.plan.specs"] = span.counts["specs"]
        elif span.name == "service.cache.get":
            updates["service.cache.hits"] = span.counts["hit"]
        elif span.name == "stabilization.exploration.build":
            for key in ("states", "edges", "covered_states"):
                updates[f"stabilization.exploration.{key}"] = span.counts[key]
            updates["transition_hits"] = span.counts["transition_hits"]
            updates["transition_lookups"] = (
                span.counts["transition_hits"] + span.counts["transition_misses"]
            )
        for key, value in updates.items():
            totals[key] += value
            if verdict is not None:
                totals[f"{key}.{verdict}"] += value

    metrics = {name: totals.get(name, 0.0) / passes for name, _ in LAYER}
    metrics.update(
        {name: totals.get(name, 0.0) / passes for name, _ in PER_VERDICT_METRICS}
    )
    for family in ("xor_ring", "majority_torus"):
        values = lifted.get(family, [])
        metrics[f"core.batch.lifted_ratio.{family}"] = (
            sum(values) / len(values) if values else 0.0
        )
    metrics["core.batch.row_steps_per_s"] = _ratio(
        totals["core.batch.row_steps"], totals["core.batch.run_s"]
    )
    metrics["service.cache.hit_ratio"] = _ratio(
        totals["service.cache.hits"], totals["service.cache.gets"]
    )
    metrics["stabilization.exploration.transition_hit_ratio"] = _ratio(
        totals["transition_hits"], totals["transition_lookups"]
    )
    return metrics


def uncovered_share(spans) -> float:
    """Share of the timed operations' wall time that no layer span covers."""
    by_id = {span.id: span for span in spans}
    inside = defaultdict(list)
    for span in spans:
        root = _op_of(by_id, span)
        if root is not None and root is not span:
            inside[root.id].append((span.start, span.end))
    roots = [span for span in spans if span.name == OP_SPAN]
    wall = sum(root.duration for root in roots)
    covered = sum(
        union_length(clipped(inside[root.id], root.start, root.end)) for root in roots
    )
    return _ratio(wall - covered, wall)
