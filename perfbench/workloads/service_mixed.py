"""``service_mixed``: one client submitting a mixed job stream to the service.

A closed loop with one client: it plans a job, submits it to one
``SweepService(workers=1)`` with every default (``InMemoryCache``, the
serial executor, ``preflight="warn"``) and waits on ``result()`` before
planning the next.  One pass is 120 jobs against a fresh service, so the
cache starts empty: early jobs mostly miss and write, later jobs mostly
hit and read.

* Two jobs in three: an xor-ring(16) sweep of 256 cases, 50 steps, cases
  drawn 80% from a hot set of 1,024 and 20% from a pool of 8,192.
* Every third job: a majority-torus(4x4) resilience sweep of 128 cases
  drawn 80% from a hot set of 512 and 20% from a pool of 4,096, with the
  recovery criterion alternating between ``"label"`` and ``"output"`` so
  cache hits are re-judged.

Planning, fingerprinting, the default preflight, cache reads beside cache
writes, and the serial engine on the misses do the work; the batch kernel
does none.  A job's latency runs from the start of planning to the return
of ``result()``.

Every job's report must equal per-case references (computed once per run
on the batch executor and spot-checked against the serial executor) with
index and tag re-attached and re-judged under the job's criterion, and each
pass's cache hits plus misses must equal the cases it submitted.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro import ExecutionPolicy
from repro.analysis import SweepCase
from repro.analysis.resilience import resolve_criterion
from repro.core import Labeling, RandomRFairSchedule, compile_protocol
from repro.service import (
    SweepService,
    execute_plan,
    plan_resilience_sweep,
    plan_sweep,
)

from perfbench.protocols import majority_torus, odd_parity_inputs, xor_ring
from perfbench.workloads.common import OpResult, Timed, fault_plan, first_mismatch

BATCH = ExecutionPolicy(executor="batch")
FAIRNESS = 4

#: family -> (pool, hot set, cases per job, step budget, activation p).
FULL = {
    "xor_ring": (8_192, 1_024, 256, 50, 0.9),
    "majority_torus": (4_096, 512, 128, 200, 0.7),
}
JOBS = 120
HOT_SHARE = 0.8
#: Pool cases per family whose batch reference is re-run on the serial
#: executor.
REFERENCE_SAMPLE = 64


class ServiceMixed:
    name = "service_mixed"
    op = "job"
    #: The workload's own names for the generic end-to-end metrics.
    aliases = {
        "throughput": "jobs_per_s",
        "op_p50_s": "job_p50_s",
        "op_tail_s": "job_p90_s",
    }
    tail = "p90"
    #: Untimed jobs before measuring: both families, both criteria.
    warmup_ops = 6

    def __init__(self, sizes=None, jobs: int = JOBS, sample: int = REFERENCE_SAMPLE):
        self.sizes = dict(FULL if sizes is None else sizes)
        self.jobs = jobs
        self.sample = sample
        self.passes = 0

    def setup(self) -> None:
        """Protocols, their compilation, and one service start."""
        self.protocols = {
            "xor_ring": xor_ring(16),
            "majority_torus": majority_torus(4, 4),
        }
        for protocol in self.protocols.values():
            compile_protocol(protocol)
        SweepService(workers=1).close()

    def prepare(self, seed: int) -> None:
        """Seeded pools, the job sequence, and the per-case references."""
        rng = random.Random(seed)
        self.pools = {}
        self.schedules = {}
        for family, (pool_size, _, _, _, p) in self.sizes.items():
            protocol = self.protocols[family]
            topology = protocol.topology
            space = protocol.label_space.values
            pool = []
            for index in range(pool_size):
                if family == "xor_ring":
                    inputs = odd_parity_inputs(topology.n)
                else:
                    inputs = tuple(rng.randrange(2) for _ in range(topology.n))
                values = tuple(rng.choice(space) for _ in range(topology.m))
                pool.append(SweepCase(inputs, Labeling(topology, values), tag=index))
            self.pools[family] = pool
            self.schedules[family] = RandomRFairSchedule(
                topology.n, r=FAIRNESS, seed=rng.randrange(1 << 30), p=p
            )

        self.job_list = []
        drawn = {family: set() for family in self.sizes}
        torus_jobs = 0
        for job in range(self.jobs):
            if job % 3 == 2:
                family = "majority_torus"
                criterion = "label" if torus_jobs % 2 == 0 else "output"
                torus_jobs += 1
            else:
                family, criterion = "xor_ring", None
            pool_size, hot, per_job, _, _ = self.sizes[family]
            cases = []
            for _ in range(per_job):
                index = rng.randrange(hot if rng.random() < HOT_SHARE else pool_size)
                drawn[family].add(index)
                cases.append(self.pools[family][index])
            self.job_list.append((family, criterion, cases))
        self._references(rng, drawn)

    def plan(self, family: str, cases):
        _, _, _, steps, _ = self.sizes[family]
        protocol = self.protocols[family]
        schedule = self.schedules[family]

        def shared_schedule(_index, _case):
            return schedule

        if family == "majority_torus":
            return plan_resilience_sweep(
                protocol, cases, shared_schedule, fault_plan, max_steps=steps
            )
        return plan_sweep(protocol, cases, shared_schedule, max_steps=steps)

    def _references(self, rng, drawn) -> None:
        """Normalized results of every drawn pool case, keyed by pool index."""
        self.references = {}
        self.reference_problem = ""
        for family, pool in self.pools.items():
            indices = sorted(drawn[family])
            cases = [pool[k] for k in indices]
            batch = execute_plan(self.plan(family, cases), policy=BATCH)
            refs = {
                case.tag: normalize(result)
                for case, result in zip(cases, batch.results, strict=True)
            }
            sample = sorted(rng.sample(indices, min(self.sample, len(indices))))
            serial = execute_plan(self.plan(family, [pool[k] for k in sample]))
            problem = first_mismatch(
                tuple(normalize(result) for result in serial.results),
                tuple(refs[k] for k in sample),
            )
            if problem:
                self.reference_problem = f"{family} reference != serial: {problem}"
            self.references[family] = refs

    def run_pass(self, tracer=None):
        """One pass: every job of the sequence against a fresh service."""
        service = SweepService(workers=1)
        submitted = 0
        try:
            for number, (family, criterion, cases) in enumerate(self.job_list):
                with Timed(tracer, f"job{number}#{self.passes}", family) as timed:
                    plan = self.plan(family, cases)
                    if tracer is not None:
                        tracer.bind(plan, timed.op)
                    job_id = service.submit(plan, recovered=criterion)
                    timed.op.name = job_id
                    report = service.result(job_id)
                submitted += len(cases)
                ok, problem = self.check(family, criterion, cases, report)
                if ok and number == len(self.job_list) - 1:
                    stats = service.cache.stats
                    if stats.hits + stats.misses != submitted:
                        ok = False
                        problem = (
                            f"cache counted {stats.hits} hits + {stats.misses}"
                            f" misses for {submitted} submitted cases"
                        )
                yield OpResult(family, timed.seconds, 1, ok, problem)
        finally:
            service.close()
        self.passes += 1

    def check(self, family, criterion, cases, report) -> tuple[bool, str]:
        if self.reference_problem:
            return False, self.reference_problem
        refs = self.references[family]
        judge = resolve_criterion(criterion) if criterion is not None else None
        expected = []
        for index, case in enumerate(cases):
            result = replace(refs[case.tag], index=index, tag=case.tag)
            if judge is not None:
                result = replace(result, recovered=judge(result))
            expected.append(result)
        problem = first_mismatch(report.results, tuple(expected))
        return not problem, problem


def normalize(result):
    """A result as the cache stores it: no position, tag or verdict."""
    updates = {"index": -1, "tag": None}
    if hasattr(result, "recovered"):
        updates["recovered"] = False
    return replace(result, **updates)
