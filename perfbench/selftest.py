"""Tests of the benchmark itself.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the library's own suite, which
collects ``test_*.py``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.metrics import END_TO_END, PER_LAYER, VERDICTS, uncovered_share
from perfbench.tracing import (
    OP_SPAN,
    Op,
    Span,
    Tracer,
    install,
    self_times,
    union_length,
)
from perfbench.workloads import WORKLOADS
from perfbench.workloads.service_mixed import ServiceMixed
from perfbench.workloads.sweep_cold import SweepCold
from perfbench.workloads.verify_exhaustive import VerifyExhaustive

ROOT = Path(__file__).resolve().parent.parent


def tiny(name: str):
    """A workload small enough to run in a second or two."""
    if name == "sweep_cold":
        return SweepCold(
            sizes={
                "xor_ring": (64, 100, 0.9),
                "majority_torus": (64, 200, 0.7),
                "resilience": (32, 300, 0.7),
            },
            sample=16,
        )
    if name == "service_mixed":
        return ServiceMixed(
            sizes={
                "xor_ring": (64, 16, 8, 50, 0.9),
                "majority_torus": (32, 8, 4, 200, 0.7),
            },
            jobs=6,
            sample=8,
        )
    return VerifyExhaustive(verdicts=("k6r5_quotient", "disagree"))


def run_tiny(workload, trace=False):
    return bench.run(workload, seed=7, seconds=0, trace=trace, probes=1)


# -- interval arithmetic -------------------------------------------------------


def span(id_, start, end, parent=None, thread=1, name="layer"):
    return Span(
        id=id_, name=name, start=start, end=end, parent=parent, op=None, thread=thread
    )


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == pytest.approx(4)


def test_self_time_with_overlapping_and_cross_thread_children():
    spans = [
        span(1, 0, 10, name=OP_SPAN),
        span(2, 1, 4, parent=1),  # overlaps span 3
        span(3, 3, 6, parent=1),
        span(4, 5, 9, parent=1, thread=2),  # the worker thread
        span(5, 9.5, 12, parent=1, thread=2),  # runs past its parent
        span(6, 2, 3, parent=2),  # a grandchild: not the root's child
    ]
    own = self_times(spans)
    # The root's children cover [1, 9] and [9.5, 10] of [0, 10].
    assert own[1] == pytest.approx(10 - 8 - 0.5)
    assert own[2] == pytest.approx(3 - 1)
    assert own[4] == pytest.approx(4)
    assert uncovered_share(spans) == pytest.approx(1.5 / 10)


def test_worker_thread_spans_attach_to_their_job():
    tracer = Tracer()
    op = Op("job0")
    plan = threading.Event()  # any object that takes weak references
    root = tracer.begin_op(op)
    tracer.bind(plan, op)

    def worker():
        shard = tracer.begin("service.executor", op=tracer.bound(plan))
        inner = tracer.begin("service.cache.get")
        tracer.finish(inner)
        tracer.finish(shard)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    op.name = "job-1-abc"
    tracer.finish(root)
    by_name = {s.name: s for s in tracer.spans}
    shard, inner = by_name["service.executor"], by_name["service.cache.get"]
    assert shard.parent == root.id and shard.thread != root.thread
    assert inner.parent == shard.id
    assert {s.record()["op"] for s in tracer.spans} == {"job-1-abc"}


def test_install_restores_every_patch():
    from repro.core import Simulator, compile_protocol
    from repro.service import SweepPlan

    before = (
        Simulator.run,
        compile_protocol,
        SweepPlan.__dict__["protocol_fingerprint"],
    )
    patch = install(Tracer())
    from repro.core import compile_protocol as patched

    assert patched is not before[1]
    patch.remove()
    from repro.core import compile_protocol as restored

    after = (Simulator.run, restored, SweepPlan.__dict__["protocol_fingerprint"])
    assert after == before


# -- correctness checks --------------------------------------------------------


def flip_first_label(result):
    values = list(result.final_values)
    values[0] = 1 if values[0] == 0 else 0
    return dataclasses.replace(result, final_values=tuple(values))


def test_a_flipped_final_label_fails_sweep_cold(monkeypatch):
    from perfbench.workloads import sweep_cold

    original = sweep_cold.execute_plan

    def corrupting(plan, **kwargs):
        report = original(plan, **kwargs)
        if kwargs.get("policy") is None:  # the serial check stays honest
            return report
        results = list(report.results)
        target = workload.sweeps["majority_torus"][4][0]
        if plan.protocol is workload.torus and plan.kind == "sweep":
            results[target] = flip_first_label(results[target])
        return type(report)(results=tuple(results))

    workload = tiny("sweep_cold")
    monkeypatch.setattr(sweep_cold, "execute_plan", corrupting)
    record = run_tiny(workload)
    assert record["failed_ratio"] > 0
    assert any("batch != serial" in problem for problem in record["problems"])


def test_a_flipped_final_label_fails_service_mixed(monkeypatch):
    from repro.service import SweepService

    original = SweepService.result

    def corrupting(self, job_id, timeout=None):
        report = original(self, job_id, timeout)
        results = list(report.results)
        results[0] = flip_first_label(results[0])
        return type(report)(results=tuple(results))

    monkeypatch.setattr(SweepService, "result", corrupting)
    record = run_tiny(tiny("service_mixed"))
    assert record["failed_ratio"] == 1


def test_a_wrong_covered_count_fails_verify_exhaustive(monkeypatch):
    from perfbench.workloads import verify_exhaustive

    original = verify_exhaustive.decide_label_r_stabilizing

    def corrupting(*args, **kwargs):
        verdict = original(*args, **kwargs)
        stats = dataclasses.replace(
            verdict.stats, covered_states=verdict.stats.covered_states + 1
        )
        return dataclasses.replace(verdict, stats=stats)

    monkeypatch.setattr(verify_exhaustive, "decide_label_r_stabilizing", corrupting)
    record = run_tiny(tiny("verify_exhaustive"))
    assert record["failed_ratio"] == 1


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run(name):
    record = run_tiny(tiny(name), trace=True)
    assert record["failed"] == 0, record["problems"]
    assert set(record["per_layer"]) == {metric for metric, _ in PER_LAYER}
    assert all(value > 0 for value in record["end_to_end"].values())
    line = json.loads(bench.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    layers = record["per_layer"]
    if name == "sweep_cold":
        idle = ("service.fingerprint.", "service.cache.", "core.engine.")
        assert not any(v for k, v in layers.items() if k.startswith(idle))
        assert layers["core.batch.row_steps.xor_ring"] == 64 * 100
        assert layers["core.batch.lifted_ratio.xor_ring"] == 1
    elif name == "service_mixed":
        assert layers["core.batch.run_s"] == 0
        assert layers["service.cache.gets"] == 4 * 8 + 2 * 4
        assert layers["core.engine.runs"] > 0
    else:
        for metric in ("group_s", "canonical_calls", "canonical_s"):
            assert layers[f"graphs.automorphisms.{metric}.disagree"] == 0
        assert layers["graphs.automorphisms.canonical_calls.k6r5_quotient"] > 0
        assert layers["stabilization.exploration.covered_states"] == 87_124 + 391


def test_seeds_make_the_inputs():
    first, again, other = tiny("sweep_cold"), tiny("sweep_cold"), tiny("sweep_cold")
    for workload, seed in ((first, 1), (again, 1), (other, 2)):
        workload.setup()
        workload.prepare(seed)

    def labelings(workload):
        return [case.labeling.values for case in workload.sweeps["xor_ring"][1]]

    assert labelings(first) == labelings(again)
    assert labelings(first) != labelings(other)


# -- the contract --------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert set(VERDICTS) == set(VerifyExhaustive().verdicts)
