"""Sweep planning: turn (cases, factories) into an executable plan.

The planner half of the service layer's planner/executor split.  A
:class:`SweepPlan` is a fully materialized description of a sweep or
resilience sweep: one self-describing, picklable :class:`CaseSpec` per case
— inputs, initial labeling, the *realized* schedule, and (for resilience
plans) the fault plan — plus the protocol and the step budget.  Everything a
worker needs ships inside the plan; nothing is re-derived at execution time.

Planning preserves the one-shot runners' reproducibility contract: the
schedule and fault factories are invoked here, in the calling process, in
case order — so stateful seeded factories see exactly the call sequence
they would see in :func:`repro.analysis.sweeps.run_sweep`, and a plan built
twice from the same seeds is the same plan.

Fingerprints are computed lazily (planning costs nothing beyond the factory
calls): :meth:`SweepPlan.case_fingerprint` combines the protocol digest —
computed once per protocol object — with the case's own state, the step
budget, and the engine version salt (:mod:`repro.service.fingerprint`).  Two
cases get the same fingerprint exactly when the engine would produce the
same condensed result for both, which is what makes results
content-addressable.
Cosmetic state (case ``tag``s, case order, protocol names) is excluded.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.resilience import FaultFactory, ResilienceReport
from repro.analysis.sweeps import (
    ScheduleFactory,
    SweepCase,
    SweepReport,
    _coerce_case,
)
from repro.core.engine import DEFAULT_MAX_STEPS
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import (
    FingerprintError,
    StaticAnalysisError,
    ValidationError,
)
from repro.faults.schedules import FaultSchedule
from repro.policy import ExecutionPolicy
from repro.service.fingerprint import (
    ENGINE_VERSION,
    canonical,
    protocol_fingerprint,
)

#: Plan kinds and the report type each aggregates into.
PLAN_KINDS = {"sweep": SweepReport, "resilience": ResilienceReport}


def _located_fingerprint_error(where, obj, error):
    """Upgrade a bare :class:`FingerprintError` into a located one.

    Canonicalization raises on the *first* offender with no pointer to it;
    re-walking the object with the preflight offender collector turns the
    same failure into a :class:`StaticAnalysisError` whose diagnostics name
    the attribute path and (for lambdas) the source position.  Falls back
    to the original error when the walk finds nothing (e.g. exotic state
    only canonicalization's own recursion trips over).
    """
    from repro.statics.preflight import fingerprint_offenders

    diagnostics = fingerprint_offenders(obj, where)
    if not diagnostics:
        return error
    return StaticAnalysisError(
        f"cannot fingerprint {where}: {error}", diagnostics=diagnostics
    )


@dataclass(frozen=True)
class CaseSpec:
    """One unit of planned work: a case plus its realized schedule.

    Self-describing and picklable (given module-level reactions), so specs
    ship to worker processes and serialize into job submissions as-is.
    ``faults`` is ``None`` exactly on plain-sweep plans; resilience plans
    carry a :class:`~repro.faults.schedules.FaultSchedule` (possibly
    :class:`~repro.faults.NoFaults`) per spec.
    """

    index: int
    case: SweepCase
    schedule: Schedule
    faults: FaultSchedule | None = None

    def work_item(self):
        """The per-case payload the sweep runners expect."""
        return self.schedule if self.faults is None else (self.schedule, self.faults)


@dataclass(frozen=True)
class SweepPlan:
    """A materialized sweep: protocol, specs, step budget, and kind.

    ``policy`` (optional) is the plan's *suggested*
    :class:`repro.ExecutionPolicy` — the executor applies it when the call
    passes none of its own.  It is cosmetic: excluded from case and plan
    fingerprints (and from plan equality), because it changes how fast the
    results arrive, never what they are.
    """

    protocol: Protocol
    specs: tuple[CaseSpec, ...]
    kind: str
    max_steps: int = DEFAULT_MAX_STEPS
    policy: ExecutionPolicy | None = field(default=None, compare=False)
    _fingerprints: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValidationError(
                f"unknown plan kind {self.kind!r};"
                f" expected one of {sorted(PLAN_KINDS)}"
            )

    def __getstate__(self):
        # The memo dict is keyed by object ids, which are process-local;
        # a pickled plan must rebuild it from scratch on the other side.
        state = self.__dict__.copy()
        state["_fingerprints"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def report_type(self) -> type[SweepReport]:
        return PLAN_KINDS[self.kind]

    def empty_report(self) -> SweepReport:
        return self.report_type(results=())

    @cached_property
    def protocol_fingerprint(self) -> str:
        """Digest of the protocol's compile-level state (topology, label
        space, reactions) — computed once per protocol object and shared by
        every case key of every plan over it.

        Raises :class:`~repro.exceptions.StaticAnalysisError` with located
        diagnostics when the protocol cannot be fingerprinted (lambda
        reactions, closed-over RNG state, ...), instead of the bare
        :class:`~repro.exceptions.FingerprintError` canonicalization
        produces deep inside its walk.
        """
        try:
            return protocol_fingerprint(self.protocol)
        except FingerprintError as error:
            raise _located_fingerprint_error(
                "plan.protocol", self.protocol, error
            ) from error

    def case_fingerprint(self, spec: CaseSpec) -> str:
        """The content address of one case's condensed result.

        Covers everything the result depends on — protocol digest, inputs,
        initial labeling values, initial outputs, realized schedule, fault
        plan, step budget, plan kind, engine salt — and nothing it does not
        (``tag`` and ``index`` are cosmetic).  Memoized per plan: shared
        schedule objects canonicalize once, not once per case.
        """
        cache_key = id(spec)
        cached = self._fingerprints.get(cache_key)
        if cached is not None:
            return cached
        case = spec.case
        try:
            tree = (
                "case",
                ENGINE_VERSION,
                self.kind,
                self.protocol_fingerprint,
                canonical(case.inputs),
                canonical(case.labeling.values),
                canonical(case.initial_outputs),
                self._component_fingerprint(spec.schedule),
                self._component_fingerprint(spec.faults),
                self.max_steps,
            )
        except FingerprintError as error:
            raise _located_fingerprint_error(
                f"plan.specs[{spec.index}]", spec, error
            ) from error
        digest = hashlib.sha256(repr(tree).encode()).hexdigest()
        self._fingerprints[cache_key] = digest
        return digest

    def _component_fingerprint(self, component) -> object:
        """Canonicalize a (possibly shared) schedule or fault plan once."""
        if component is None:
            return None
        cache_key = id(component)
        cached = self._fingerprints.get(cache_key)
        if cached is None:
            cached = self._fingerprints[cache_key] = canonical(component)
        return cached

    def case_fingerprints(self) -> list[str]:
        """All case fingerprints, in case order."""
        return [self.case_fingerprint(spec) for spec in self.specs]

    @cached_property
    def plan_fingerprint(self) -> str:
        """Digest of the whole plan (used to key per-job records)."""
        tree = (
            "plan",
            ENGINE_VERSION,
            self.kind,
            self.max_steps,
            tuple(self.case_fingerprints()),
        )
        return hashlib.sha256(repr(tree).encode()).hexdigest()

    def describe(self) -> str:
        return (
            f"SweepPlan(kind={self.kind}, cases={len(self.specs)},"
            f" max_steps={self.max_steps})"
        )


def plan_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
    preflight: bool = False,
) -> SweepPlan:
    """Plan a sweep: coerce cases and materialize one schedule per case.

    The factory is invoked here, in the calling process, in case order —
    exactly as :func:`repro.analysis.sweeps.run_sweep` always did — so
    seeded stateful factories produce identical plans no matter how the
    plan is later executed or sharded.  ``policy`` attaches a suggested
    :class:`repro.ExecutionPolicy` to the plan (cosmetic: fingerprints and
    reports are unchanged by it).  ``preflight=True`` runs
    :func:`repro.statics.verify_plan` on the finished plan and raises
    :class:`~repro.exceptions.StaticAnalysisError` — with located
    diagnostics — while the offending reaction is still one stack frame
    away, instead of at first fingerprint use.
    """
    case_list = [_coerce_case(case) for case in cases]
    specs = tuple(
        CaseSpec(index=i, case=case, schedule=schedule_factory(i, case))
        for i, case in enumerate(case_list)
    )
    plan = SweepPlan(
        protocol=protocol,
        specs=specs,
        kind="sweep",
        max_steps=max_steps,
        policy=policy,
    )
    if preflight:
        _preflight_plan(plan)
    return plan


def plan_resilience_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    fault_factory: FaultFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
    preflight: bool = False,
) -> SweepPlan:
    """Plan a resilience sweep: schedules *and* fault plans per case.

    Factory invocation order matches
    :func:`repro.analysis.resilience.run_resilience_sweep`: for each case in
    order, the schedule factory then the fault factory.  ``policy`` and
    ``preflight`` behave as in :func:`plan_sweep`.
    """
    case_list = [_coerce_case(case) for case in cases]
    specs = tuple(
        CaseSpec(
            index=i,
            case=case,
            schedule=schedule_factory(i, case),
            faults=fault_factory(i, case),
        )
        for i, case in enumerate(case_list)
    )
    plan = SweepPlan(
        protocol=protocol,
        specs=specs,
        kind="resilience",
        max_steps=max_steps,
        policy=policy,
    )
    if preflight:
        _preflight_plan(plan)
    return plan


def _preflight_plan(plan: SweepPlan) -> None:
    """Run the static preflight and raise on blocking diagnostics."""
    from repro.statics.preflight import verify_plan

    verify_plan(plan).raise_for_errors()
