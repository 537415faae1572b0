"""``verify_exhaustive``: exact r-stabilization verdicts, one after another.

A closed loop with one caller running ``decide_label_r_stabilizing`` from
the ``broadcast_labelings`` initial labelings with the default
``frontier="auto"`` on five cases:

==================  ======================  ===  ==========  =============
verdict             protocol                r    symmetry    stabilizing
==================  ======================  ===  ==========  =============
``k7_quotient``     Example 1 on K_7        4    ``"auto"``  yes
``k6_concrete``     Example 1 on K_6        4    none        yes
``k6r5_quotient``   Example 1 on K_6        5    ``"auto"``  no (witness
                                                             lifted)
``bad_gadget``      BGP BAD GADGET          2    none        no
``disagree``        BGP DISAGREE            2    none        no
==================  ======================  ===  ==========  =============

The symmetry canonicalizer, the exploration core and the SCC/witness
search do the work; the concrete cases never reach the canonicalizer.
The inputs are deterministic by nature, so ``--seed`` changes nothing
for this workload.  Each verdict runs on a freshly built protocol object,
so it pays the per-protocol work a new protocol costs.  Each verdict's
stored, covered and edge counts are pinned, and every witness lasso must
oscillate when replayed on the serial ``Simulator``.
"""

from __future__ import annotations

from repro import ExecutionPolicy
from repro.core import Simulator, compile_protocol, default_inputs
from repro.core.convergence import RunOutcome
from repro.dynamics import bad_gadget, bgp_protocol, disagree
from repro.stabilization import (
    broadcast_labelings,
    decide_label_r_stabilizing,
    example1_protocol,
)

from perfbench.workloads.common import OpResult, Timed

QUOTIENT = ExecutionPolicy(symmetry="auto")

#: verdict -> (protocol key, r, policy, (stabilizing, stored, covered, edges)).
CASES = {
    "k7_quotient": ("k7", 4, QUOTIENT, (True, 475, 132_701, 30_865)),
    "k6_concrete": ("k6", 4, None, (True, 27_634, 27_634, 819_042)),
    "k6r5_quotient": ("k6", 5, QUOTIENT, (False, 667, 87_124, 26_413)),
    "bad_gadget": ("bad_gadget", 2, None, (False, 7_922, 7_922, 73_832)),
    "disagree": ("disagree", 2, None, (False, 391, 391, 1_996)),
}
BUILDERS = {
    "k7": lambda: example1_protocol(7),
    "k6": lambda: example1_protocol(6),
    "bad_gadget": lambda: bgp_protocol(bad_gadget()),
    "disagree": lambda: bgp_protocol(disagree()),
}
#: Steps a witness replay may take to close its cycle.
REPLAY_STEPS = 10_000


class VerifyExhaustive:
    name = "verify_exhaustive"
    op = "verdict"
    #: The workload's own names for the generic end-to-end metrics.
    aliases = {
        "throughput": "covered_states_per_s",
        "op_p50_s": "verdict_p50_s",
        "op_tail_s": "slowest_verdict_s",
    }
    #: Five verdicts a pass are too few for a p90.
    tail = "slowest kind"

    def __init__(self, verdicts=None):
        self.verdicts = tuple(CASES if verdicts is None else verdicts)
        #: Untimed operations before measuring: one of each verdict.
        self.warmup_ops = len(self.verdicts)
        self.passes = 0

    def setup(self) -> None:
        """Protocols and their compilation."""
        keys = {CASES[verdict][0] for verdict in self.verdicts}
        for key in sorted(keys):
            compile_protocol(BUILDERS[key]())

    def prepare(self, seed: int) -> None:
        """Nothing to generate: the inputs are the same for every seed."""

    def run_pass(self, tracer=None):
        """One pass: the five verdicts, each on a freshly built protocol.

        A new protocol object arrives cold, so every verdict pays the
        per-protocol work (compilation, symmetry group, table lift) that
        the library caches on the object; building it and its initial
        labelings happens before the timer starts.
        """
        for verdict in self.verdicts:
            key, r, policy, _ = CASES[verdict]
            protocol = BUILDERS[key]()
            initials = list(
                broadcast_labelings(protocol.topology, protocol.label_space)
            )
            inputs = default_inputs(protocol)
            with Timed(tracer, f"{verdict}#{self.passes}", verdict) as timed:
                result = decide_label_r_stabilizing(
                    protocol, inputs, r, initial_labelings=initials, policy=policy
                )
            yield OpResult(
                verdict,
                timed.seconds,
                result.stats.covered_states,
                *self.check(verdict, protocol, result),
            )
        self.passes += 1

    def check(self, verdict, protocol, result) -> tuple[bool, str]:
        _, _, _, pins = CASES[verdict]
        stats = result.stats
        got = (result.stabilizing, stats.states, stats.covered_states, stats.edges)
        if got != pins:
            return False, (
                f"(stabilizing, stored, covered, edges) = {got}, expected {pins}"
            )
        if result.stabilizing:
            return True, ""
        witness = result.witness
        replay = Simulator(protocol, default_inputs(protocol)).run(
            witness.initial_labeling,
            witness.to_schedule(protocol.n),
            max_steps=REPLAY_STEPS,
        )
        if replay.outcome not in (RunOutcome.OSCILLATING, RunOutcome.OUTPUT_STABLE):
            return False, f"witness replay ended {replay.outcome.value}, not cycling"
        return True, ""
