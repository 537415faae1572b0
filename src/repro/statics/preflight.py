"""Plan preflight: predict batch liftability and fingerprint-safety early.

Two runtime surprises this module moves to submit time:

* **Silent fallback demotion.**  :class:`repro.core.batch.BatchSimulator`
  decides per node whether to lift it into a lookup table or fall back to
  per-row Python apply (``src/repro/core/batch.py``, ``node_liftable`` and
  ``_assemble``).  The decision is correct either way, but a sweep the
  author believed vectorized can quietly run 100x slower.
  :func:`verify_protocol` reproduces the static part of the gate —
  statefulness, label-space enumerability, the ``|Sigma|**degree`` table
  budget — and :func:`verify_plan` adds the per-case part (unhashable
  private inputs), so the predicted partition is known before any work is
  enqueued.
* **Late fingerprint failure.**  A lambda reaction, a closed-over
  ``random.Random``, or an unregistered type inside a ``CaseSpec`` tree
  only fails once :mod:`repro.service.fingerprint` is deep in
  canonicalization — a bare :class:`~repro.exceptions.FingerprintError`
  with no pointer to the offending object.  :func:`fingerprint_offenders`
  walks the same tree shape canonicalization does, but *collects* located
  diagnostics (lambda source positions, the attribute path that reached the
  RNG) instead of raising on the first one.

The predictions must stay glued to the runtime: ``tests/test_statics.py``
property-tests :func:`verify_plan`'s predicted partition against the
``lifted_nodes`` the assembled :class:`~repro.core.batch.BatchSimulator`
actually reports.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import random
import types
from collections.abc import Mapping, Set
from dataclasses import dataclass

from repro.analysis.sweeps import SweepCase
from repro.core.compiled import compile_protocol
from repro.core.configuration import Labeling
from repro.exceptions import Diagnostic, FingerprintError, StaticAnalysisError
from repro.service.fingerprint import _EXTRACTORS
from repro.service.plan import CaseSpec

try:  # batch.py self-guards its numpy import, but stay importable anywhere.
    from repro.core.batch import DEFAULT_MAX_TABLE_SIZE
except ImportError:  # pragma: no cover - exercised only on broken installs
    DEFAULT_MAX_TABLE_SIZE = 1 << 16

#: Why a node is predicted to land in the batch fallback path.
LIFT_REASONS = {
    "stateful": "the protocol is stateful: reactions read their own"
    " outgoing labels, so no input-only table exists",
    "space": "the label space exceeds the table budget, so no codes are"
    " enumerated at all",
    "table": "|Sigma|**in_degree exceeds max_table_size for this node",
    "unhashable-input": "the case's private input for this node is not"
    " hashable, so no (node, input) table can be cached",
}


@dataclass(frozen=True)
class NodeLift:
    """One node's predicted lift decision and, when demoted, the reason."""

    node: int
    lifted: bool
    reason: str | None = None
    degree: int = 0
    table_rows: int | None = None

    def record(self) -> dict:
        return {
            "node": self.node,
            "lifted": self.lifted,
            "reason": self.reason,
            "degree": self.degree,
            "table_rows": self.table_rows,
        }


@dataclass(frozen=True)
class ProtocolPreflight:
    """Predicted batch partition for one protocol (input-independent part).

    ``space_size`` is the enumerated code population — ``0`` when the label
    space exceeds the table budget, exactly as
    :class:`~repro.core.batch.BatchCompiledProtocol` would see it.
    """

    protocol: str
    is_stateful: bool
    space_size: int
    max_table_size: int
    lifts: tuple

    @property
    def predicted_lifted(self) -> tuple:
        return tuple(lift.node for lift in self.lifts if lift.lifted)

    @property
    def predicted_fallback(self) -> tuple:
        return tuple(lift.node for lift in self.lifts if not lift.lifted)

    @property
    def fully_lifted(self) -> bool:
        return not self.predicted_fallback

    def record(self) -> dict:
        return {
            "protocol": self.protocol,
            "is_stateful": self.is_stateful,
            "space_size": self.space_size,
            "max_table_size": self.max_table_size,
            "predicted_lifted": list(self.predicted_lifted),
            "predicted_fallback": [
                lift.record() for lift in self.lifts if not lift.lifted
            ],
        }

    def describe(self) -> str:
        lifted = len(self.predicted_lifted)
        return (
            f"{self.protocol}: {lifted}/{len(self.lifts)} nodes lift"
            f" (table budget {self.max_table_size})"
        )


@dataclass(frozen=True)
class PlanPreflight:
    """A plan's full preflight: partition, per-case demotions, fingerprints.

    ``case_demotions`` lists ``(case_index, node)`` pairs the plan's own
    inputs demote beyond the protocol-level prediction;
    ``fingerprint_diagnostics`` are the located offenders canonicalization
    would otherwise only reject one at a time, deep in the walk.
    """

    kind: str
    cases: int
    protocol: ProtocolPreflight
    case_demotions: tuple = ()
    fingerprint_diagnostics: tuple = ()
    diagnostics: tuple = ()

    @property
    def fingerprint_safe(self) -> bool:
        return not any(
            d.severity == "error" for d in self.fingerprint_diagnostics
        )

    @property
    def errors(self) -> tuple:
        return tuple(
            d
            for d in (*self.fingerprint_diagnostics, *self.diagnostics)
            if d.severity == "error"
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_for_errors(self) -> None:
        """Raise :class:`StaticAnalysisError` when any error-severity
        diagnostic is present (the ``preflight="strict"`` submit path)."""
        errors = self.errors
        if errors:
            raise StaticAnalysisError(
                f"plan preflight found {len(errors)} blocking problem(s)",
                diagnostics=errors,
            )

    def record(self) -> dict:
        """The JSON-able form stored in JOB records next to admission."""
        return {
            "ok": self.ok,
            "kind": self.kind,
            "cases": self.cases,
            "fingerprint_safe": self.fingerprint_safe,
            "protocol": self.protocol.record(),
            "case_demotions": [list(pair) for pair in self.case_demotions],
            "diagnostics": [
                d.record()
                for d in (*self.fingerprint_diagnostics, *self.diagnostics)
            ],
        }

    def describe(self) -> str:
        safety = "safe" if self.fingerprint_safe else "UNSAFE"
        return (
            f"{self.protocol.describe()}; {len(self.case_demotions)}"
            f" case-level demotions; fingerprints {safety}"
        )


def verify_protocol(
    protocol, max_table_size: int = DEFAULT_MAX_TABLE_SIZE
) -> ProtocolPreflight:
    """Predict the batch lift partition for ``protocol``.

    Mirrors :meth:`repro.core.batch.BatchCompiledProtocol.node_liftable`
    without importing numpy or building any tables: stateful protocols and
    over-budget label spaces demote every node; otherwise each node lifts
    exactly when its ``|Sigma|**in_degree`` table fits ``max_table_size``.
    """
    compiled = compile_protocol(protocol)
    space = protocol.label_space
    space_size = space.size if space.size <= max_table_size else 0
    declared_stateful = bool(protocol.is_stateful)

    lifts = []
    for i in range(compiled.n):
        degree = len(compiled.in_positions[i])
        if declared_stateful:
            lifts.append(NodeLift(node=i, lifted=False, reason="stateful",
                                  degree=degree))
        elif space_size == 0:
            lifts.append(NodeLift(node=i, lifted=False, reason="space",
                                  degree=degree))
        else:
            rows = space_size**degree
            if rows <= max_table_size:
                lifts.append(NodeLift(node=i, lifted=True, degree=degree,
                                      table_rows=rows))
            else:
                lifts.append(NodeLift(node=i, lifted=False, reason="table",
                                      degree=degree, table_rows=rows))
    return ProtocolPreflight(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        is_stateful=declared_stateful,
        space_size=space_size,
        max_table_size=max_table_size,
        lifts=tuple(lifts),
    )


def _lambda_location(fn) -> tuple[str | None, int | None]:
    code = getattr(fn, "__code__", None)
    if code is None:
        return None, None
    return code.co_filename, code.co_firstlineno


def _walk_offenders(obj, where: str, stack: list, out: list) -> None:
    """Collect fingerprint offenders in ``obj``, mirroring the shape of
    :func:`repro.service.fingerprint.canonical`'s recursion."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return

    identity = id(obj)
    if identity in stack:
        out.append(
            Diagnostic(
                rule="preflight/cycle",
                severity="error",
                message=f"{where}: cyclic object graph cannot be"
                f" canonicalized",
            )
        )
        return
    stack.append(identity)
    try:
        if isinstance(obj, (tuple, list)):
            for i, item in enumerate(obj):
                _walk_offenders(item, f"{where}[{i}]", stack, out)
            return
        if isinstance(obj, (Set, frozenset)):
            for item in obj:
                _walk_offenders(item, f"{where}{{...}}", stack, out)
            return
        if isinstance(obj, Mapping):
            for key, value in obj.items():
                _walk_offenders(key, f"{where} key", stack, out)
                _walk_offenders(value, f"{where}[{key!r}]", stack, out)
            return
        if isinstance(obj, enum.Enum):
            return
        if isinstance(obj, types.FunctionType):
            if "<lambda>" in obj.__qualname__:
                path, line = _lambda_location(obj)
                out.append(
                    Diagnostic(
                        rule="preflight/lambda",
                        severity="error",
                        message=f"{where}: lambda reactions cannot be"
                        f" fingerprinted (every lambda in a module shares"
                        f" the qualified name '<lambda>') — use a named"
                        f" function",
                        path=path,
                        line=line,
                    )
                )
                return
            for i, value in enumerate(obj.__defaults__ or ()):
                _walk_offenders(value, f"{where} default[{i}]", stack, out)
            if obj.__closure__:
                for name, cell in zip(
                    obj.__code__.co_freevars, obj.__closure__
                , strict=True):
                    try:
                        contents = cell.cell_contents
                    except ValueError:
                        continue
                    _walk_offenders(
                        contents, f"{where} closure[{name}]", stack, out
                    )
            return
        if isinstance(obj, types.MethodType):
            _walk_offenders(obj.__self__, f"{where}.__self__", stack, out)
            return
        if isinstance(obj, functools.partial):
            _walk_offenders(obj.func, f"{where}.func", stack, out)
            _walk_offenders(obj.args, f"{where}.args", stack, out)
            _walk_offenders(dict(obj.keywords), f"{where}.keywords", stack, out)
            return
        if isinstance(obj, random.Random):
            out.append(
                Diagnostic(
                    rule="preflight/rng-state",
                    severity="error",
                    message=f"{where}: random.Random carries mutable RNG"
                    f" state — fingerprint the seed, not the generator",
                )
            )
            return
        if isinstance(obj, (types.ModuleType, types.GeneratorType)):
            out.append(
                Diagnostic(
                    rule="preflight/process-local",
                    severity="error",
                    message=f"{where}: {type(obj).__name__} state is"
                    f" process-local and cannot be canonicalized",
                )
            )
            return

        extractor = _EXTRACTORS.get(type(obj))
        if extractor is not None:
            _walk_offenders(extractor(obj), where, stack, out)
            return
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for field in dataclasses.fields(obj):
                _walk_offenders(
                    getattr(obj, field.name),
                    f"{where}.{field.name}",
                    stack,
                    out,
                )
            return
        state = dict(getattr(obj, "__dict__", ()) or ())
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                if name != "__dict__" and hasattr(obj, name):
                    state.setdefault(name, getattr(obj, name))
        if not state:
            out.append(
                Diagnostic(
                    rule="preflight/unregistered-type",
                    severity="error",
                    message=f"{where}: {type(obj).__module__}."
                    f"{type(obj).__qualname__} has no registered extractor"
                    f" and no instance attributes (register one with"
                    f" repro.service.register_fingerprint)",
                )
            )
            return
        for name, value in sorted(state.items()):
            _walk_offenders(value, f"{where}.{name}", stack, out)
    finally:
        stack.pop()


def fingerprint_offenders(obj, where: str = "plan") -> tuple:
    """Every object in ``obj``'s tree that canonicalization would refuse.

    Unlike :func:`repro.service.fingerprint.canonical` — which raises on
    the *first* offender with no location — this collects all of them as
    located :class:`~repro.exceptions.Diagnostic` records, with the
    attribute path (``plan.protocol.reactions[2] closure[fn]``) that
    reached each one.
    """
    out: list[Diagnostic] = []
    _walk_offenders(obj, where, [], out)
    return tuple(out)


def _undigested_offenders(plan) -> list:
    """Offenders in the spec fields no plan digest reads.

    Once the protocol and case digests have computed, canonicalization has
    accepted everything they cover, so the walker finds nothing there.  What
    is left is the cosmetic state the digests skip — ``index``, ``case.tag``
    and the labeling's topology — walked at the same paths
    :func:`fingerprint_offenders` would reach them by, each object once.  A
    spec of any other shape is walked whole.
    """
    out: list[Diagnostic] = []
    seen: set[int] = set()

    def walk(obj, where):
        if id(obj) not in seen:
            seen.add(id(obj))
            _walk_offenders(obj, where, [], out)

    for spec in plan.specs:
        where = f"plan.specs[{spec.index}]"
        case = spec.case
        if (
            type(spec) is not CaseSpec
            or type(case) is not SweepCase
            or type(case.labeling) is not Labeling
        ):
            out.extend(fingerprint_offenders(spec, where))
            continue
        walk(spec.index, f"{where}.index")
        walk(case.labeling.topology, f"{where}.case.labeling[0]")
        walk(case.tag, f"{where}.case.tag")
    return out


def verify_plan(
    plan, max_table_size: int | None = None
) -> PlanPreflight:
    """Full preflight of a :class:`~repro.service.plan.SweepPlan`.

    Combines :func:`verify_protocol` (static lift partition, honoring the
    plan policy's ``batch_min_rows``-adjacent ``max_table_size`` default),
    per-case input hashability (the dynamic half of the lift gate), and
    fingerprint safety.

    Fingerprint safety is proven by computing the plan's protocol and case
    digests, which the plan memoizes for the cache keys that follow; the
    offender walker then covers only the state no digest reads.  When a
    digest fails, :func:`fingerprint_offenders` walks the protocol and every
    spec to locate each offender.
    """
    if max_table_size is None:
        max_table_size = DEFAULT_MAX_TABLE_SIZE
    protocol_preflight = verify_protocol(plan.protocol, max_table_size)

    demotions = []
    diagnostics = []
    lifted = set(protocol_preflight.predicted_lifted)
    for spec in plan.specs:
        for node, x in enumerate(spec.case.inputs):
            if node not in lifted:
                continue
            try:
                hash(x)
            except TypeError:
                demotions.append((spec.index, node))
                diagnostics.append(
                    Diagnostic(
                        rule="preflight/unhashable-input",
                        severity="warning",
                        message=f"case {spec.index}, node {node}: private"
                        f" input of type {type(x).__name__} is unhashable —"
                        f" this node falls back to per-row Python apply for"
                        f" this case",
                    )
                )

    try:
        plan.protocol_fingerprint
        plan.case_fingerprints()
    except (FingerprintError, StaticAnalysisError):
        offenders = list(fingerprint_offenders(plan.protocol, "plan.protocol"))
        for spec in plan.specs:
            offenders.extend(
                fingerprint_offenders(spec, f"plan.specs[{spec.index}]")
            )
    else:
        offenders = _undigested_offenders(plan)
    # The same lambda (or RNG) is typically shared by every spec; collapse
    # duplicate findings so the report stays one line per offender.
    unique, seen = [], set()
    for diagnostic in offenders:
        key = (diagnostic.rule, diagnostic.path, diagnostic.line,
               diagnostic.message.split(": ", 1)[-1])
        if key not in seen:
            seen.add(key)
            unique.append(diagnostic)

    return PlanPreflight(
        kind=plan.kind,
        cases=len(plan.specs),
        protocol=protocol_preflight,
        case_demotions=tuple(demotions),
        fingerprint_diagnostics=tuple(unique),
        diagnostics=tuple(diagnostics),
    )
