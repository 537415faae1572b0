"""``sweep_cold``: three cold batch sweeps, one after the other.

A closed loop with one caller.  Each sweep is planned with
``plan_sweep``/``plan_resilience_sweep`` and run by ``execute_plan`` under
``ExecutionPolicy(executor="batch")`` with no result cache:

(a) ``xor_ring``: a 64-node XOR ring with odd input parity, 16,384 cases
    (two ``SWEEP_CHUNK_ROWS`` chunks) x 100 steps under one shared seeded
    ``RandomRFairSchedule(r=4, p=0.9)``.  No stable labeling exists, so
    every row runs the full budget on the ring/XOR route.
(b) ``majority_torus``: the |Sigma|=3 plurality protocol on torus(6,6),
    8,192 cases with random input bits, 200 steps, r=4, p=0.7: the general
    grouped table route, with rows converging (and retiring) at varied
    times.
(c) ``resilience``: the same torus protocol, 4,096 cases, each faulted by
    ``OneShotFault(20, RandomCorruption(0.3, seed=case))``, 300 steps.

``core.batch`` and report building do nearly all the work; fingerprinting,
caching, preflight and the serial engine do none.  Every pass runs the same
inputs.  The first pass is checked against the serial executor on a seeded
sample of each sweep; later passes must equal the first.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro import ExecutionPolicy
from repro.analysis import SweepCase
from repro.core import BatchSimulator, Labeling, RandomRFairSchedule, compile_protocol
from repro.core.convergence import RunOutcome
from repro.service import execute_plan, plan_resilience_sweep, plan_sweep

from perfbench.protocols import majority_torus, odd_parity_inputs, xor_ring
from perfbench.workloads.common import OpResult, Timed, fault_plan, first_mismatch

BATCH = ExecutionPolicy(executor="batch")

#: name -> (cases, step budget, schedule activation probability).
FULL = {
    "xor_ring": (16_384, 100, 0.9),
    "majority_torus": (8_192, 200, 0.7),
    "resilience": (4_096, 300, 0.7),
}
FAIRNESS = 4
SAMPLE = 256


class SweepCold:
    name = "sweep_cold"
    op = "sweep"
    #: The workload's own names for the generic end-to-end metrics.
    aliases = {
        "throughput": "cases_per_s",
        "op_p50_s": "sweep_p50_s",
        "op_tail_s": "slowest_sweep_s",
    }
    #: Three sweeps a pass are too few for a p90.
    tail = "slowest kind"
    #: Untimed operations before measuring: one of each sweep.
    warmup_ops = 3

    def __init__(self, sizes=None, sample: int = SAMPLE):
        self.sizes = dict(FULL if sizes is None else sizes)
        self.sample = sample
        self.passes = 0

    def setup(self) -> None:
        """Protocols, their compilation, and the batch table lift."""
        self.xor = xor_ring(64)
        self.torus = majority_torus(6, 6)
        for protocol in (self.xor, self.torus):
            compile_protocol(protocol)
        BatchSimulator(self.xor, [odd_parity_inputs(self.xor.n)])
        n = self.torus.n
        BatchSimulator(self.torus, [(0,) * n, (1,) * n])

    def prepare(self, seed: int) -> None:
        """Seeded cases, schedules and check samples."""
        rng = random.Random(seed)
        self.sweeps = {}
        for name, (count, steps, p) in self.sizes.items():
            protocol = self.xor if name == "xor_ring" else self.torus
            topology = protocol.topology
            space = protocol.label_space.values
            cases = []
            for index in range(count):
                if name == "xor_ring":
                    inputs = odd_parity_inputs(topology.n)
                else:
                    inputs = tuple(rng.randrange(2) for _ in range(topology.n))
                values = tuple(rng.choice(space) for _ in range(topology.m))
                cases.append(SweepCase(inputs, Labeling(topology, values), tag=index))
            schedule = RandomRFairSchedule(
                topology.n, r=FAIRNESS, seed=rng.randrange(1 << 30), p=p
            )
            sample = sorted(rng.sample(range(count), min(self.sample, count)))
            self.sweeps[name] = (protocol, cases, schedule, steps, sample)
        self.first_reports = {}

    def plan(self, name: str, cases):
        protocol, _, schedule, steps, _ = self.sweeps[name]

        def shared_schedule(_index, _case):
            return schedule

        if name == "resilience":
            return plan_resilience_sweep(
                protocol, cases, shared_schedule, fault_plan, max_steps=steps
            )
        return plan_sweep(protocol, cases, shared_schedule, max_steps=steps)

    def run_pass(self, tracer=None):
        """One pass: the three sweeps, each yielded as an :class:`OpResult`."""
        for name, (_, cases, _, _, _) in self.sweeps.items():
            with Timed(tracer, f"{name}#{self.passes}", name) as timed:
                report = execute_plan(self.plan(name, cases), policy=BATCH)
            yield OpResult(name, timed.seconds, len(cases), *self.check(name, report))
        self.passes += 1

    def check(self, name: str, report) -> tuple[bool, str]:
        first = self.first_reports.get(name)
        if first is not None:
            problem = first_mismatch(report.results, first.results)
            return not problem, problem and f"differs from pass 0: {problem}"
        self.first_reports[name] = report
        _, cases, _, steps, sample = self.sweeps[name]
        if [result.index for result in report.results] != list(range(len(cases))):
            return False, "results are not in case order"
        if name == "xor_ring":
            for result in report.results:
                if result.outcome is not RunOutcome.TIMEOUT or (
                    result.steps_executed != steps
                ):
                    return False, f"xor case {result.index} did not run the full budget"
        serial = execute_plan(self.plan(name, [cases[i] for i in sample]))
        expected = tuple(
            replace(result, index=i)
            for i, result in zip(sample, serial.results, strict=True)
        )
        problem = first_mismatch(tuple(report.results[i] for i in sample), expected)
        return not problem, problem and f"batch != serial: {problem}"
