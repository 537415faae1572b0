"""What every workload shares: operation records and the timed call."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.faults import OneShotFault, RandomCorruption

from perfbench.tracing import Op

#: The fault every resilience case takes: a 30% corruption at step 20,
#: seeded by the case's pool index so a case's fault plan (and so its
#: cache key) is the same in every sweep that contains it.
FAULT_TIME = 20
FAULT_FRACTION = 0.3


def fault_plan(_index, case):
    return OneShotFault(FAULT_TIME, RandomCorruption(FAULT_FRACTION, seed=case.tag))


@dataclass
class OpResult:
    """One timed operation (a sweep, a job or a verdict) and its check."""

    kind: str
    seconds: float
    work: int
    ok: bool = True
    problem: str = ""


class Timed:
    """Times one operation; in a traced run, also opens its root span."""

    def __init__(self, tracer, name: str, tag: str | None = None):
        self.tracer = tracer
        self.op = Op(name, tag)
        self.seconds = 0.0
        self._root = None

    def __enter__(self):
        if self.tracer is not None:
            self._root = self.tracer.begin_op(self.op)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self._start
        if self._root is not None:
            self.tracer.finish(self._root)
        return False


def first_mismatch(actual, expected) -> str:
    """A short description of where two result tuples differ ("" if equal)."""
    if len(actual) != len(expected):
        return f"{len(actual)} results, expected {len(expected)}"
    for position, (got, want) in enumerate(zip(actual, expected, strict=True)):
        if got != want:
            return f"result {position} differs: {got!r} != {want!r}"
    return ""
