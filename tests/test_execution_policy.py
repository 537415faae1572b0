"""Tests for the unified :class:`repro.ExecutionPolicy` API.

``policy=`` is the only way to pass a performance knob: every scattered
keyword the policy replaced is a :class:`TypeError` on every entry point
that once accepted it.  The module runs under
``-W error::DeprecationWarning`` (scoped via ``pytestmark``), so no code
path may warn its way around that.

The golden-fingerprint tests pin the policy's cosmetic contract: no policy
field may ever reach a cache key.  If they fail, either a policy field
leaked into fingerprinting (a cache-poisoning bug) or the fingerprint
scheme itself was deliberately revised (update the constants in the same
commit as the scheme).
"""

import dataclasses

import pytest

from repro import DEFAULT_POLICY, ExecutionPolicy
from repro.analysis import SweepCase, run_resilience_sweep, run_sweep
from repro.core import Labeling
from repro.exceptions import ValidationError
from repro.faults import MinimaxAdversarySchedule, exhaustive_worst_case_delay
from repro.faults.schedules import NoFaults
from repro.service import SweepService, execute_plan, iter_shards, plan_sweep
from repro.stabilization import (
    ExplorationGraph,
    StatesGraph,
    decide_label_r_stabilizing,
    decide_output_r_stabilizing,
)
from repro.stabilization.example_clique import example1_protocol

from tests.helpers import random_bit_labeling
from tests.test_service_jobs import _plan, _ring, _sync

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def _cases(protocol, count=6):
    return [
        SweepCase(
            (0,) * protocol.n,
            random_bit_labeling(protocol.topology, seed=s),
            tag=s,
        )
        for s in range(count)
    ]


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy == DEFAULT_POLICY
        assert policy.executor == "serial"
        assert policy.kernel is None
        assert policy.processes is None
        assert policy.symmetry == "none"

    def test_frozen_value_object(self):
        policy = ExecutionPolicy(executor="batch")
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.executor = "serial"
        assert policy == ExecutionPolicy(executor="batch")
        assert hash(policy) == hash(ExecutionPolicy(executor="batch"))

    def test_merged_derives_and_revalidates(self):
        base = ExecutionPolicy(executor="batch")
        derived = base.merged(kernel="numpy", processes=2)
        assert derived.kernel == "numpy"
        assert base.kernel is None  # original untouched
        with pytest.raises(ValidationError, match="executor='batch'"):
            DEFAULT_POLICY.merged(kernel="numpy")

    def test_describe_names_only_the_changed_fields(self):
        assert ExecutionPolicy().describe() == "ExecutionPolicy(defaults)"
        text = ExecutionPolicy(executor="batch", processes=2).describe()
        assert "executor='batch'" in text
        assert "processes=2" in text
        assert "symmetry" not in text

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"executor": "gpu"}, "unknown executor"),
            ({"executor": "batch", "kernel": "metal"}, "unknown kernel"),
            ({"kernel": "numpy"}, "executor='batch'"),
            ({"processes": 0}, "processes"),
        ],
    )
    def test_validation(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            ExecutionPolicy(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            {"frontier": "serial"},
            {"batch_min_rows": 1},
            {"executor": "batch", "chunk_rows": 512},
        ],
    )
    def test_removed_fields_are_a_type_error(self, fields):
        # The staged batch frontier and its row threshold are gone (the
        # exploration core always runs the serial scan), and batch sweeps
        # always slice at SWEEP_CHUNK_ROWS.
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            ExecutionPolicy(**fields)


#: The scattered keywords :class:`ExecutionPolicy` replaced.
LEGACY_KEYWORDS = {
    "processes": 2,
    "executor": "batch",
    "kernel": "numpy",
    "frontier": "serial",
    "symmetry": "auto",
    "spill_dir": None,
    "batch_min_rows": 1,
}


def _exploration_args():
    protocol = example1_protocol(3)
    return protocol, (0,) * 3, random_bit_labeling(protocol.topology, seed=7)


def _call_run_sweep(**keywords):
    protocol = _ring(4)
    run_sweep(protocol, _cases(protocol), _sync, max_steps=60, **keywords)


def _call_run_resilience_sweep(**keywords):
    protocol = _ring(4)
    run_resilience_sweep(
        protocol,
        _cases(protocol),
        _sync,
        lambda index, case: NoFaults(),
        max_steps=60,
        **keywords,
    )


def _call_execute_plan(**keywords):
    execute_plan(_plan()[0], **keywords)


def _call_iter_shards(**keywords):
    list(iter_shards(_plan()[0], **keywords))


def _call_submit(**keywords):
    with SweepService() as service:
        service.submit(_plan()[0], **keywords)


def _call_exploration_graph(**keywords):
    protocol, inputs, labeling = _exploration_args()
    ExplorationGraph(protocol, inputs, 2, [labeling], **keywords)


def _call_states_graph(**keywords):
    protocol, inputs, labeling = _exploration_args()
    StatesGraph(protocol, inputs, r=2, initial_labelings=[labeling], **keywords)


def _call_decide_label(**keywords):
    protocol, inputs, _ = _exploration_args()
    decide_label_r_stabilizing(protocol, inputs, 2, **keywords)


def _call_decide_output(**keywords):
    protocol, inputs, _ = _exploration_args()
    decide_output_r_stabilizing(protocol, inputs, 2, **keywords)


def _call_worst_case_delay(**keywords):
    protocol, inputs, labeling = _exploration_args()
    exhaustive_worst_case_delay(protocol, inputs, labeling, 2, **keywords)


def _call_minimax_schedule(**keywords):
    protocol, inputs, labeling = _exploration_args()
    MinimaxAdversarySchedule(protocol, inputs, labeling, 2, **keywords)


ENTRY_POINTS = {
    "run_sweep": _call_run_sweep,
    "run_resilience_sweep": _call_run_resilience_sweep,
    "execute_plan": _call_execute_plan,
    "iter_shards": _call_iter_shards,
    "SweepService.submit": _call_submit,
    "ExplorationGraph": _call_exploration_graph,
    "StatesGraph": _call_states_graph,
    "decide_label_r_stabilizing": _call_decide_label,
    "decide_output_r_stabilizing": _call_decide_output,
    "exhaustive_worst_case_delay": _call_worst_case_delay,
    "MinimaxAdversarySchedule": _call_minimax_schedule,
}


class TestPolicyOnly:
    """``policy=`` is the one spelling every entry point accepts."""

    @pytest.mark.parametrize(
        "entry, keyword",
        [(entry, keyword) for entry in ENTRY_POINTS for keyword in LEGACY_KEYWORDS],
        ids=[
            f"{entry}-{keyword}"
            for entry in ENTRY_POINTS
            for keyword in LEGACY_KEYWORDS
        ],
    )
    def test_legacy_keyword_is_a_type_error(self, entry, keyword):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            ENTRY_POINTS[entry](**{keyword: LEGACY_KEYWORDS[keyword]})

    def test_entry_points_run_with_only_a_policy(self):
        # Every call helper is valid as written: the TypeError above comes
        # from the legacy keyword alone.
        for call in ENTRY_POINTS.values():
            call(policy=ExecutionPolicy(symmetry="auto"))

    def test_submitted_policy_changes_speed_not_the_report(self):
        plan, _, _ = _plan()
        with SweepService() as service:
            job_id = service.submit(plan, policy=ExecutionPolicy(executor="batch"))
            assert service.result(job_id, timeout=30) == execute_plan(plan)

    def test_plan_attached_policy_needs_no_keywords_at_all(self):
        bare, protocol, cases = _plan()
        plan = plan_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        assert execute_plan(plan) == execute_plan(bare)

    def test_states_graph_accepts_a_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        inits = [random_bit_labeling(protocol.topology, seed=7)]
        plain = StatesGraph(protocol, inputs, r=2, initial_labelings=inits)
        quotient = StatesGraph(
            protocol,
            inputs,
            r=2,
            initial_labelings=inits,
            policy=ExecutionPolicy(symmetry="auto"),
        )
        assert len(quotient.state_keys) <= len(plain.state_keys)

    def test_model_checker_accepts_a_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        plain = decide_label_r_stabilizing(protocol, inputs, 2)
        via_policy = decide_label_r_stabilizing(
            protocol, inputs, 2, policy=ExecutionPolicy(symmetry="auto")
        )
        assert via_policy.stabilizing == plain.stabilizing


class TestFingerprintCosmetics:
    """No policy spelling may ever reach a cache key."""

    #: Fingerprints of the fixed golden plan below, pinned at the current
    #: fingerprint-scheme version.  Only a deliberate scheme revision may
    #: change them — policies must not.
    GOLDEN_PLAN = (
        "cbdcba108627967d8437235397184487ebfb023f69fe4f2475adc8cea195c2ec"
    )
    GOLDEN_CASE = (
        "7ed2f577ecbbfa9f1d6b4be747ff3935c5720b58f84d2faab1b37bc2d517d324"
    )

    def _golden_plan(self, policy=None):
        protocol = _ring(4)
        case = SweepCase(
            (0, 0, 0, 0),
            Labeling(protocol.topology, (1, 0, 1, 0)),
            tag="golden",
        )
        return plan_sweep(
            protocol, [case], _sync, max_steps=32, policy=policy
        )

    @pytest.mark.parametrize(
        "policy",
        [
            None,
            ExecutionPolicy(),
            ExecutionPolicy(executor="batch", kernel="numba", processes=4),
            ExecutionPolicy(symmetry="auto"),
        ],
        ids=["none", "default", "batch-numba-fanout", "exploration-knobs"],
    )
    def test_golden_fingerprints_ignore_every_policy_spelling(self, policy):
        plan = self._golden_plan(policy)
        assert plan.plan_fingerprint == self.GOLDEN_PLAN
        assert plan.case_fingerprints() == [self.GOLDEN_CASE]

    def test_policy_is_excluded_from_plan_equality_and_cache_reuse(self):
        bare = self._golden_plan()
        dressed = dataclasses.replace(
            bare, policy=ExecutionPolicy(executor="batch")
        )
        assert bare == dressed  # compare=False on the policy field
        assert bare.policy is None
        assert dressed.policy == ExecutionPolicy(executor="batch")
        assert dressed.plan_fingerprint == self.GOLDEN_PLAN

    def test_cross_executor_cache_hits(self):
        from repro.service import InMemoryCache

        plan, _, _ = _plan()
        cache = InMemoryCache()
        serial = execute_plan(plan, cache=cache)
        batch = execute_plan(
            plan, cache=cache, policy=ExecutionPolicy(executor="batch")
        )
        assert batch == serial
        assert cache.stats.hits >= len(plan)  # second run fully cache-served
