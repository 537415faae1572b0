"""One execution-policy object for every performance knob in the stack.

The repository grew three performance layers — the compiled engine, the
vectorized batch backend, and the exploration core — and each grew its own
keyword spelling of "how should this run": ``executor=`` and ``kernel=`` and
``processes=`` on the sweep runners, ``symmetry=`` / ``spill_dir=`` on the
exploration graph.  :class:`ExecutionPolicy` unifies those into one frozen
value object accepted everywhere (:func:`repro.analysis.run_sweep`,
:func:`repro.analysis.run_resilience_sweep`, :func:`repro.service.plan_sweep`,
:func:`repro.service.execute_plan`, :meth:`repro.service.SweepService.submit`,
:class:`repro.stabilization.ExplorationGraph`) — and, just as importantly, it
is the input domain of the cost model
(:mod:`repro.analysis.costmodel`): estimation, planning, admission control,
and execution all describe *how a computation runs* with the same object.

A policy is strictly **cosmetic with respect to results and cache keys**:
every field changes how fast an answer is produced, never which answer.
Case fingerprints (:mod:`repro.service.fingerprint`) exclude it by
construction, so identical physics shares cache entries across executors,
kernels, and policy spellings.

Fields that a consumer does not use are ignored (a sweep does not read
``symmetry``; an exploration graph does not read ``processes``), so one
policy value can drive a whole pipeline.

``policy=`` is the only spelling: the scattered keywords it replaced
(``processes=``, ``executor=``, ``kernel=``, ``symmetry=``, ``spill_dir=``)
are not accepted by any entry point and raise :class:`TypeError` like any
unknown keyword.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.exceptions import ValidationError

#: Executors the sweep runners accept.
SWEEP_EXECUTORS = ("serial", "batch")
#: Batch compute kernels (``None`` defers to the batch backend's default).
BATCH_KERNELS = ("numpy", "numba", "auto")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a computation should run — never what it computes.

    * ``executor`` — sweep case backend: ``"serial"`` (one compiled run
      loop per case) or ``"batch"`` (vectorized lockstep, requires numpy).
    * ``kernel`` — batch compute kernel: ``"numpy"``, ``"numba"``, or
      ``"auto"``; requires ``executor="batch"`` (``None`` defers).
    * ``processes`` — ``multiprocessing`` fan-out width for sweeps
      (``None``/``1`` means in-process).
    * ``symmetry`` — exploration quotient: ``"none"``, ``"auto"``, or an
      explicit :class:`~repro.graphs.automorphisms.SymmetryGroup`.
    * ``spill_dir`` — directory for disk-backed (memmap) edge/parent
      arrays in the exploration core; ``None`` keeps them in memory.

    Frozen and value-compared; derive variants with :meth:`merged`.
    """

    executor: str = "serial"
    kernel: str | None = None
    processes: int | None = None
    symmetry: object = "none"
    spill_dir: str | os.PathLike | None = None

    def __post_init__(self):
        if self.executor not in SWEEP_EXECUTORS:
            raise ValidationError(
                f"unknown executor {self.executor!r};"
                f" expected one of {sorted(SWEEP_EXECUTORS)}"
            )
        if self.kernel is not None:
            if self.kernel not in BATCH_KERNELS:
                raise ValidationError(
                    f"unknown kernel {self.kernel!r};"
                    f" expected one of {sorted(BATCH_KERNELS)}"
                )
            if self.executor != "batch":
                raise ValidationError(
                    "kernel= selects a batch compute kernel;"
                    " it requires executor='batch'"
                )
        if self.processes is not None and self.processes < 1:
            raise ValidationError("processes must be >= 1")

    def merged(self, **overrides) -> "ExecutionPolicy":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        changed = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"ExecutionPolicy({changed or 'defaults'})"


#: The do-nothing-special policy every entry point defaults to.
DEFAULT_POLICY = ExecutionPolicy()

