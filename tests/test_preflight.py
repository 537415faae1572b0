"""Plan preflight and its service integration.

:func:`repro.statics.verify_plan` moves two runtime surprises to submit
time: silent batch-fallback demotion and late fingerprint failure.  These
tests pin the preflight surface itself (offender collection with located
diagnostics, the per-case unhashable-input demotions, record shapes) and
the three places it is wired in: ``SweepService.submit(preflight=)``,
``plan_sweep(..., preflight=True)``, and the upgraded
:class:`~repro.exceptions.StaticAnalysisError` the fingerprint path now
raises instead of a bare, unlocated ``FingerprintError``.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.analysis import SweepCase
from repro.core import Labeling, StatelessProtocol, UniformReaction, binary
from repro.core.schedule import Schedule
from repro.exceptions import (
    FingerprintError,
    StaticAnalysisError,
    ValidationError,
)
from repro.faults.models import FaultModel, RandomCorruption
from repro.faults.schedules import OneShotFault
from repro.graphs import Topology, unidirectional_ring
from repro.service import (
    SweepService,
    fingerprint,
    plan_resilience_sweep,
    plan_sweep,
)
from repro.statics import fingerprint_offenders, verify_plan, verify_protocol
from tests.helpers import random_bit_labeling
from tests.test_service_jobs import _plan, _ring, _sync


def _lambda_ring(n=3):
    """A ring whose reactions close over a lambda — unfingerprintable."""
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), lambda incoming, x: (0, x))
        for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="lambda-ring")


def _cases(protocol, count=2):
    n = protocol.n
    return [
        SweepCase((0,) * n, random_bit_labeling(protocol.topology, seed=s))
        for s in range(count)
    ]


class TestVerifyProtocol:
    def test_small_ring_fully_lifts(self):
        preflight = verify_protocol(_ring(4))
        assert preflight.fully_lifted
        assert preflight.predicted_lifted == (0, 1, 2, 3)
        assert not preflight.is_stateful
        assert "4/4 nodes lift" in preflight.describe()

    def test_record_is_json_able(self):
        record = verify_protocol(_ring(3)).record()
        json.dumps(record)
        assert record["predicted_fallback"] == []
        assert record["space_size"] == 2


class TestFingerprintOffenders:
    def test_clean_protocol_has_no_offenders(self):
        assert fingerprint_offenders(_ring(3)) == ()

    def test_lambda_is_located_at_its_source(self):
        offenders = fingerprint_offenders(_lambda_ring(), "plan.protocol")
        assert offenders, "the lambda must be found"
        assert {d.rule for d in offenders} == {"preflight/lambda"}
        diagnostic = offenders[0]
        assert diagnostic.severity == "error"
        assert diagnostic.path.endswith("test_preflight.py")
        assert diagnostic.line is not None
        assert "plan.protocol" in diagnostic.message

    def test_rng_state_names_the_attribute_path(self):
        class Holder:
            def __init__(self):
                self.rng = random.Random(3)

        (diagnostic,) = fingerprint_offenders(Holder(), "case")
        assert diagnostic.rule == "preflight/rng-state"
        assert "case.rng" in diagnostic.message

    def test_unregistered_opaque_type_is_flagged(self):
        class Opaque:
            __slots__ = ()

        (diagnostic,) = fingerprint_offenders(Opaque())
        assert diagnostic.rule == "preflight/unregistered-type"
        assert "register_fingerprint" in diagnostic.message


class TestVerifyPlan:
    def test_clean_plan_is_ok(self):
        plan, _, _ = _plan(count=3)
        preflight = verify_plan(plan)
        assert preflight.ok
        assert preflight.fingerprint_safe
        assert preflight.kind == "sweep"
        assert preflight.cases == 3
        assert preflight.case_demotions == ()
        assert preflight.protocol.fully_lifted
        json.dumps(preflight.record())

    def test_shared_lambda_is_reported_once(self):
        protocol = _lambda_ring(4)
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        preflight = verify_plan(plan)
        assert not preflight.ok
        assert not preflight.fingerprint_safe
        # 4 reactions x (protocol + 2 specs) all share one lambda: the
        # report collapses them to a single located diagnostic.
        assert len(preflight.errors) == 1
        with pytest.raises(StaticAnalysisError) as excinfo:
            preflight.raise_for_errors()
        assert "preflight/lambda" in str(excinfo.value)

    def test_unhashable_input_demotes_that_case_only(self):
        protocol = _ring(3)
        labeling = random_bit_labeling(protocol.topology, seed=0)
        cases = [
            SweepCase((0, 0, 0), labeling),
            SweepCase((0, [1], 0), labeling),  # a list input: unhashable
        ]
        plan = plan_sweep(protocol, cases, _sync, max_steps=20)
        preflight = verify_plan(plan)
        assert preflight.case_demotions == ((1, 1),)
        assert [d.rule for d in preflight.diagnostics] == [
            "preflight/unhashable-input"
        ]
        # Demotion is a performance warning, not a blocker.
        assert preflight.ok

    def test_record_sits_next_to_admission_shape(self):
        plan, _, _ = _plan(count=2)
        record = verify_plan(plan).record()
        assert record["ok"] is True
        assert set(record) == {
            "ok",
            "kind",
            "cases",
            "fingerprint_safe",
            "protocol",
            "case_demotions",
            "diagnostics",
        }


class TestPlanTimePreflight:
    """``plan_sweep(..., preflight=True)`` fails while the offending
    reaction is still one stack frame away."""

    def test_lambda_reaction_raises_at_plan_time(self):
        protocol = _lambda_ring()
        with pytest.raises(StaticAnalysisError) as excinfo:
            plan_sweep(
                protocol,
                _cases(protocol),
                _sync,
                max_steps=20,
                preflight=True,
            )
        diagnostics = excinfo.value.diagnostics
        assert {d.rule for d in diagnostics} == {"preflight/lambda"}
        assert diagnostics[0].path.endswith("test_preflight.py")

    def test_preflight_off_defers_to_fingerprint_time(self):
        protocol = _lambda_ring()
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        # Planning succeeded; the failure now comes at first fingerprint
        # use — but upgraded to a located StaticAnalysisError rather than
        # the bare FingerprintError canonicalization raises internally.
        with pytest.raises(StaticAnalysisError) as excinfo:
            plan.plan_fingerprint
        assert isinstance(excinfo.value.__cause__, FingerprintError)
        assert "plan.protocol" in str(excinfo.value)
        assert {d.rule for d in excinfo.value.diagnostics} == {
            "preflight/lambda"
        }
        assert excinfo.value.diagnostics[0].line is not None


class TestSubmitPreflight:
    def test_warn_records_preflight_next_to_admission(self, tmp_path):
        plan, _, _ = _plan(count=2)
        with SweepService(records_dir=tmp_path) as service:
            service.result(service.submit(plan), timeout=30)
        (path,) = tmp_path.glob("JOB_*.json")
        entries = json.loads(path.read_text())["entries"]
        assert entries["preflight"]["ok"] is True
        assert entries["preflight"]["kind"] == "sweep"
        assert entries["preflight"]["cases"] == 2
        assert entries["preflight"]["fingerprint_safe"] is True
        assert entries["preflight"]["protocol"]["predicted_fallback"] == []

    def test_off_skips_the_check_and_the_record(self, tmp_path):
        plan, _, _ = _plan(count=2)
        with SweepService(records_dir=tmp_path) as service:
            service.result(service.submit(plan, preflight="off"), timeout=30)
        (path,) = tmp_path.glob("JOB_*.json")
        entries = json.loads(path.read_text())["entries"]
        assert "preflight" not in entries

    def test_strict_rejects_before_enqueue(self):
        protocol = _lambda_ring()
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        with SweepService() as service:
            with pytest.raises(StaticAnalysisError, match="preflight"):
                service.submit(plan, preflight="strict")
            assert service.jobs() == []

    def test_invalid_mode_is_rejected(self):
        plan, _, _ = _plan(count=2)
        with SweepService() as service:
            with pytest.raises(ValidationError, match="preflight"):
                service.submit(plan, preflight="sometimes")


# -- preflight reuses the plan's digests --------------------------------------


class _Opaque:
    """An unregistered type with no instance state: canonicalization and
    the walker both refuse it."""

    __slots__ = ()


class _PickSchedule(Schedule):
    """A schedule whose activation sets come from a stored function."""

    def __init__(self, n, pick):
        super().__init__(n)
        self.pick = pick

    def active(self, t):
        return frozenset(self.pick(t))


def _rng_schedule(index, case):
    n = len(case.inputs)
    rng = random.Random(index)

    def pick(_t):
        return {rng.randrange(n)}

    return _PickSchedule(n, pick)


class _LambdaFault(FaultModel):
    def __init__(self):
        self.keep = lambda values: values

    def apply(self, values, topology, space, step):
        return self.keep(values)


class _RngTopology(Topology):
    """A topology subclass carrying RNG state the digests never read."""

    def __init__(self, topology):
        super().__init__(topology.n, topology.edges)
        self.rng = random.Random(0)


def _tagged(tags):
    protocol = _ring(3)
    labeling = random_bit_labeling(protocol.topology, seed=0)
    cases = [SweepCase((0, 0, 0), labeling, tag=tag) for tag in tags]
    return plan_sweep(protocol, cases, _sync, max_steps=20)


def _shared_rng_tag_plan():
    rng = random.Random(0)
    return _tagged([rng, "plain", rng])


def _rng_topology_plan():
    protocol = _ring(3)
    topology = _RngTopology(protocol.topology)
    cases = [
        SweepCase((0, 0, 0), Labeling(topology, (0, 1, 0))),
        SweepCase((1, 0, 0), Labeling(topology, (1, 1, 0))),
    ]
    return plan_sweep(protocol, cases, _sync, max_steps=20)


def _resilience_plan(fault):
    protocol = _ring(3)
    return plan_resilience_sweep(
        protocol, _cases(protocol, 3), _sync, lambda i, c: fault(), max_steps=20
    )


#: name -> (plan builder, whether the offenders sit only in state no plan
#: digest reads: case tags and the labeling's topology).
PREFLIGHT_PLANS = {
    "clean": (lambda: _plan(count=3)[0], False),
    "clean-resilience": (
        lambda: _resilience_plan(lambda: OneShotFault(2, RandomCorruption())),
        False,
    ),
    "clean-primitive-tags": (lambda: _tagged(["a", 1, None, (2, 3.5)]), False),
    "protocol-lambda": (
        lambda: plan_sweep(
            _lambda_ring(4), _cases(_lambda_ring(4)), _sync, max_steps=20
        ),
        False,
    ),
    "schedule-closure-rng": (
        lambda: plan_sweep(
            _ring(3), _cases(_ring(3), 3), _rng_schedule, max_steps=20
        ),
        False,
    ),
    "fault-plan-lambda": (
        lambda: _resilience_plan(lambda: OneShotFault(2, _LambdaFault())),
        False,
    ),
    "opaque-input": (
        lambda: plan_sweep(
            _ring(3),
            [SweepCase((0, _Opaque(), 0), random_bit_labeling(_ring(3).topology, 0))],
            _sync,
            max_steps=20,
        ),
        False,
    ),
    "tag-lambda": (lambda: _tagged([lambda: 0, lambda: 1]), True),
    "tag-shared-rng": (_shared_rng_tag_plan, True),
    "tag-opaque": (lambda: _tagged([_Opaque(), 0]), True),
    "labeling-topology-rng": (_rng_topology_plan, True),
}


def _walker_only_record(plan) -> dict:
    """``verify_plan(plan).record()`` as the offender walker alone makes it.

    The reference for the digest-first preflight: the walker over the
    protocol and every whole spec, one diagnostic per distinct offender
    (rule, source position and message past the path).
    """
    offenders = list(fingerprint_offenders(plan.protocol, "plan.protocol"))
    for spec in plan.specs:
        offenders.extend(
            fingerprint_offenders(spec, f"plan.specs[{spec.index}]")
        )
    unique, seen = [], set()
    for diagnostic in offenders:
        key = (diagnostic.rule, diagnostic.path, diagnostic.line,
               diagnostic.message.split(": ", 1)[-1])
        if key not in seen:
            seen.add(key)
            unique.append(diagnostic)
    reference = dataclasses.replace(
        verify_plan(plan), fingerprint_diagnostics=tuple(unique)
    )
    return reference.record()


def _computes(*thunks) -> bool:
    try:
        for thunk in thunks:
            thunk()
    except (FingerprintError, StaticAnalysisError):
        return False
    return True


class TestDigestFirstPreflight:
    """``verify_plan`` proves fingerprint safety by computing the plan's
    digests and walks only what they skip; its report must not change."""

    @pytest.mark.parametrize("name", sorted(PREFLIGHT_PLANS))
    def test_record_equals_the_walker_only_report(self, name):
        build, _ = PREFLIGHT_PLANS[name]
        record = verify_plan(build()).record()
        assert record == _walker_only_record(build())
        assert record["fingerprint_safe"] == name.startswith("clean")

    @pytest.mark.parametrize("name", sorted(PREFLIGHT_PLANS))
    def test_fingerprint_safe_iff_the_digests_compute(self, name):
        build, cosmetic_only = PREFLIGHT_PLANS[name]
        plan = build()
        preflight = verify_plan(plan)
        # The walker's domain, digested whole: protocol plus every spec.
        whole = _computes(
            lambda: fingerprint(plan.protocol),
            *(lambda spec=spec: fingerprint(spec) for spec in plan.specs),
        )
        assert preflight.fingerprint_safe == whole
        # The cache keys skip tags and the labeling's topology, so offenders
        # there leave the plan's own digests computable; preflight still
        # reports them, as the walker always did.
        keys = _computes(
            lambda: plan.protocol_fingerprint, plan.case_fingerprints
        )
        assert keys == (preflight.fingerprint_safe or cosmetic_only)
        assert cosmetic_only == (keys and not preflight.fingerprint_safe)

    def test_shared_tag_object_is_reported_once(self):
        preflight = verify_plan(_shared_rng_tag_plan())
        (diagnostic,) = preflight.errors
        assert diagnostic.rule == "preflight/rng-state"
        assert "plan.specs[0].case.tag" in diagnostic.message

    def test_clean_preflight_leaves_the_case_keys_memoized(self, monkeypatch):
        plan = _plan(count=3)[0]
        assert verify_plan(plan).fingerprint_safe
        from repro.service import plan as plan_module

        def refuse(_obj):
            raise AssertionError("case keys were recomputed")

        monkeypatch.setattr(plan_module, "canonical", refuse)
        assert len(plan.case_fingerprints()) == 3
        assert plan.plan_fingerprint
