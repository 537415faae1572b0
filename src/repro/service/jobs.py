"""The sweep job service: submit plans, watch shards land, fetch reports.

:class:`SweepService` wraps the plan executor (:mod:`repro.service.executor`)
in a submit/status/stream/result/cancel lifecycle backed by a small pool of
worker threads.  Each submitted :class:`~repro.service.plan.SweepPlan` runs
shard by shard through :func:`~repro.service.executor.iter_shards` against
the service's shared result cache, so

* a long sweep streams incremental aggregates instead of blocking callers
  until the end (:meth:`SweepService.stream`);
* resubmitting an identical plan is served from the cache — same report,
  bit for bit, at one fingerprint lookup per case;
* overlapping plans (same cases at different positions, tags, or recovery
  criteria) share cached case results.

Threads, not processes, carry the jobs: the simulation kernels release no
GIL, but per-case ``processes=`` fan-out still happens *inside* a job via
the executor, and the thread pool's job is overlap of cache-served jobs
with simulating ones plus a responsive control plane (status/cancel while
running).

Completed jobs can leave a BENCH-style JSON record behind (``records_dir``):
``JOB_<plan-fingerprint prefix>.json`` with the latest run under
``entries`` and every earlier run folded into ``history`` (newest last,
bounded).  It is written through :func:`repro.records.write_record`, the
same atomic, quarantining writer ``benchmarks/_runner.py`` uses for its
``BENCH_*.json`` records, so the same tooling can read both.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import JobError, ValidationError
from repro.policy import UNSET, ExecutionPolicy, resolve_policy
from repro.records import write_record
from repro.service.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    predict_plan_cost,
)
from repro.service.cache import InMemoryCache, ResultCache
from repro.service.executor import ShardProgress, iter_shards
from repro.service.plan import SweepPlan

#: How often a blocked ``result()``/``stream()`` call reprices a queue-held
#: job, in seconds.  The service also reprices after every job it completes
#: itself, but a cache shared with *other* services (or processes) can grow
#: without any local completion — polling keeps held jobs live either way.
HELD_REPRICE_INTERVAL = 0.1


class JobState(enum.Enum):
    """Lifecycle of a submitted job.

    ``PENDING -> RUNNING -> {DONE, FAILED, CANCELLED}``; cancellation can
    also strike a job that never started, and a service with an admission
    policy can move an over-budget submission straight to ``REJECTED`` (or
    hold it in ``PENDING`` until the cache makes its predicted cost fit).
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Refused by the admission policy at submission time (terminal).
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.REJECTED,
        )


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job (safe to hold across updates)."""

    job_id: str
    state: JobState
    kind: str
    total_cases: int
    cases_done: int
    shards_done: int
    total_shards: int | None
    cache_hits: int
    cache_misses: int
    error: str | None = None
    #: Admission verdict (``"accept"``/``"reject"``/``"queue"``), or
    #: ``None`` on services without an admission policy.
    admission: str | None = None

    def describe(self) -> str:
        return (
            f"{self.job_id}: {self.state.value},"
            f" {self.cases_done}/{self.total_cases} cases"
            f" (cache {self.cache_hits} hits / {self.cache_misses} misses)"
        )


@dataclass
class _Job:
    """Mutable per-job record; every field is guarded by the service lock."""

    job_id: str
    plan: SweepPlan
    options: dict
    state: JobState = JobState.PENDING
    progress: list[ShardProgress] = field(default_factory=list)
    report: object = None
    error: str | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    started_at: float | None = None
    finished_at: float | None = None
    #: Latest admission verdict (None without an admission policy).
    admission: AdmissionDecision | None = None
    #: Preflight report (None when submitted with ``preflight="off"``).
    preflight: object = None
    #: True while the job is held back by a "queue" admission verdict.
    held: bool = False


class SweepService:
    """A local sweep job service: worker threads, shared cache, job table.

    ``cache=None`` gives the service its own :class:`InMemoryCache`; pass a
    :class:`~repro.service.cache.SqliteCache` for a cache that survives the
    process.  ``records_dir`` (optional) receives one BENCH-style JSON
    record per completed job.

    ``admission`` (optional :class:`~repro.service.admission.AdmissionPolicy`)
    turns on admission control: every submission's cost is predicted first
    (:func:`~repro.service.admission.predict_plan_cost`, against this
    service's cache — warm cases are discounted), and over-budget plans are
    either REJECTED outright or held PENDING and re-evaluated whenever a
    job finishes (completed jobs warm the cache, so a held plan's predicted
    cost only falls).  The verdict is recorded on the job and in its JSON
    record.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        workers: int = 1,
        records_dir=None,
        admission: AdmissionPolicy | None = None,
    ):
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        self.cache = cache if cache is not None else InMemoryCache()
        self.records_dir = Path(records_dir) if records_dir is not None else None
        self.admission = admission
        self._held: list[str] = []
        self._jobs: dict[str, _Job] = {}
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._updated = threading.Condition(self._lock)
        self._sequence = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"sweep-service-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle ---------------------------------------------------------

    def submit(
        self,
        plan: SweepPlan,
        *,
        policy: ExecutionPolicy | None = None,
        shard_size: int | None = None,
        strict: bool = False,
        processes: int | None = UNSET,
        executor: str = UNSET,
        kernel: str | None = UNSET,
        recovered=None,
        preflight: str = "warn",
    ) -> str:
        """Queue a plan for execution and return its job id.

        The execution options mirror :func:`repro.service.execute_plan`:
        ``policy`` (:class:`repro.ExecutionPolicy`) carries the performance
        knobs, defaulting to the plan's own attached policy; the scattered
        ``processes=`` / ``executor=`` / ``kernel=`` keywords are
        deprecated shims.  The id embeds the plan fingerprint, so identical
        resubmissions are visibly related (``job-3-0f0b5a…`` vs
        ``job-7-0f0b5a…``).

        ``preflight`` runs :func:`repro.statics.verify_plan` on the
        submission: ``"warn"`` (default) records the predicted batch
        partition and fingerprint-safety report on the job — it lands in
        the JSON job record next to the admission decision — ``"strict"``
        additionally raises :class:`~repro.exceptions.StaticAnalysisError`
        before anything is enqueued when the plan carries a blocking
        problem, and ``"off"`` skips the check.

        On a service with an admission policy, an over-budget plan is
        REJECTED (the returned job id stays queryable and the decision is
        recorded) or held PENDING for re-evaluation, per the policy's
        ``over_budget`` action.
        """
        if preflight not in ("off", "warn", "strict"):
            raise ValidationError(
                f"preflight must be 'off', 'warn', or 'strict',"
                f" not {preflight!r}"
            )
        policy = resolve_policy(
            policy,
            {"processes": processes, "executor": executor, "kernel": kernel},
            api="SweepService.submit",
            fallback=plan.policy,
        )
        check = None
        if preflight != "off":
            # Imported here: repro.statics.preflight reaches back into
            # repro.service for the fingerprint extractor registry, so a
            # module-level import would be circular.
            from repro.statics.preflight import verify_plan

            check = verify_plan(plan)
            if preflight == "strict":
                check.raise_for_errors()
        decision = None
        if self.admission is not None:
            estimate = predict_plan_cost(plan, policy, cache=self.cache)
            decision = self.admission.decide(estimate)
        with self._lock:
            if self._closed:
                raise JobError("service is closed")
            job_id = f"job-{next(self._sequence)}-{plan.plan_fingerprint[:12]}"
            job = _Job(
                job_id=job_id,
                plan=plan,
                options={
                    "shard_size": shard_size,
                    "policy": policy,
                    "strict": strict,
                    "recovered": recovered,
                },
                admission=decision,
                preflight=check,
            )
            self._jobs[job_id] = job
            if decision is not None and decision.action == "reject":
                job.error = f"admission rejected: {decision.reason}"
                self._finish(job, JobState.REJECTED)
            elif decision is not None and decision.action == "queue":
                job.held = True
                self._held.append(job_id)
        if job.state is JobState.REJECTED:
            self._write_record(job)
            return job_id
        if not job.held:
            self._queue.put(job_id)
        return job_id

    def status(self, job_id: str) -> JobStatus:
        """A snapshot of the job's state and progress counters."""
        with self._lock:
            job = self._require(job_id)
            latest = job.progress[-1] if job.progress else None
            return JobStatus(
                job_id=job.job_id,
                state=job.state,
                kind=job.plan.kind,
                total_cases=len(job.plan),
                cases_done=len(latest.aggregate) if latest else 0,
                shards_done=len(job.progress),
                total_shards=latest.total_shards if latest else None,
                cache_hits=latest.cache_hits if latest else 0,
                cache_misses=latest.cache_misses if latest else 0,
                error=job.error,
                admission=job.admission.action if job.admission else None,
            )

    def stream(self, job_id: str) -> Iterator[ShardProgress]:
        """Yield the job's shard progress live, catching up from the start.

        Ends when the job reaches a terminal state; raises :class:`JobError`
        if that state is FAILED or CANCELLED (after yielding whatever
        progress the job made).
        """
        seen = 0
        while True:
            with self._updated:
                job = self._require(job_id)
                self._updated.wait_for(
                    lambda: len(job.progress) > seen or job.state.terminal,
                    timeout=HELD_REPRICE_INTERVAL if job.held else None,
                )
                fresh = job.progress[seen:]
                seen += len(fresh)
                state, error = job.state, job.error
                held = job.held
            if held:
                self._review_held()
            yield from fresh
            if state.terminal and seen == len(job.progress):
                if state is JobState.FAILED:
                    raise JobError(f"job {job_id} failed: {error}")
                if state is JobState.CANCELLED:
                    raise JobError(f"job {job_id} was cancelled")
                if state is JobState.REJECTED:
                    raise JobError(f"job {job_id} was rejected: {error}")
                return

    def result(self, job_id: str, timeout: float | None = None):
        """Block until the job finishes and return its report.

        While the job is queue-held, its cost is repriced against the cache
        every :data:`HELD_REPRICE_INTERVAL` seconds, so warmth contributed by
        *other* services sharing the cache releases it too.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._updated:
                job = self._require(job_id)
                if job.state.terminal:
                    if job.state is JobState.FAILED:
                        raise JobError(f"job {job_id} failed: {job.error}")
                    if job.state is JobState.CANCELLED:
                        raise JobError(f"job {job_id} was cancelled")
                    if job.state is JobState.REJECTED:
                        raise JobError(
                            f"job {job_id} was rejected: {job.error}"
                        )
                    return job.report
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise JobError(
                            f"job {job_id} did not finish within {timeout}s"
                        )
                held = job.held
                slice_ = HELD_REPRICE_INTERVAL if held else remaining
                if remaining is not None and slice_ is not None:
                    slice_ = min(slice_, remaining)
                self._updated.wait(timeout=slice_)
            if held:
                self._review_held()

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` if the job will not run to DONE.

        A PENDING job is cancelled outright; a RUNNING one stops at the next
        shard boundary (its partial progress stays readable).  Cancelling a
        terminal job returns ``False``.
        """
        with self._updated:
            job = self._require(job_id)
            if job.state.terminal:
                return False
            job.cancel_event.set()
            if job.state is JobState.PENDING:
                self._finish(job, JobState.CANCELLED)
            return True

    def jobs(self) -> list[JobStatus]:
        """Snapshots of every known job, in submission order."""
        with self._lock:
            ids = list(self._jobs)
        return [self.status(job_id) for job_id in ids]

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and shut the workers down.

        With ``wait=True`` queued jobs finish first; otherwise pending jobs
        are cancelled and only the in-flight ones run to their next shard
        boundary.
        """
        with self._updated:
            if self._closed:
                return
            self._closed = True
            # Admission-held jobs are not in the worker queue and can never
            # finish on their own — cancel them regardless of ``wait``.
            for job_id in self._held:
                job = self._jobs[job_id]
                if not job.state.terminal:
                    job.cancel_event.set()
                    self._finish(job, JobState.CANCELLED)
            self._held.clear()
            if not wait:
                for job in self._jobs.values():
                    if not job.state.terminal:
                        job.cancel_event.set()
                        if job.state is JobState.PENDING:
                            self._finish(job, JobState.CANCELLED)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- internals ---------------------------------------------------------

    def _require(self, job_id: str) -> _Job:
        """Look up a job or raise. Caller holds the lock."""
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id!r}")
        return job

    def _finish(self, job: _Job, state: JobState) -> None:
        """Move a job to a terminal state and wake every waiter.

        Caller holds the lock.
        """
        job.state = state
        job.finished_at = time.time()
        self._updated.notify_all()

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._updated:
                job = self._jobs[job_id]
                if job.state is not JobState.PENDING:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started_at = time.time()
                self._updated.notify_all()
            try:
                self._run(job)
            except Exception as error:  # pragma: no cover - defensive
                with self._updated:
                    job.error = f"{type(error).__name__}: {error}"
                    self._finish(job, JobState.FAILED)
            self._write_record(job)
            # Whatever just ran warmed the cache; held plans may now fit.
            self._review_held()

    def _review_held(self) -> None:
        """Re-admit queue-held jobs whose predicted cost now fits.

        Called after every completed job and by blocked ``result()``/
        ``stream()`` polls: cache entries only accumulate, so a held plan's
        predicted cost is monotonically non-increasing and re-evaluation is
        safe to repeat.  Only the caller that flips ``held`` off enqueues
        the job, so concurrent reviews cannot start it twice.
        """
        if self.admission is None:
            return
        with self._lock:
            candidates = list(self._held)
        for job_id in candidates:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.PENDING:
                    if job_id in self._held:
                        self._held.remove(job_id)
                    continue
            estimate = predict_plan_cost(
                job.plan, job.options["policy"], cache=self.cache
            )
            decision = self.admission.decide(estimate)
            release = decision.action == "accept"
            with self._updated:
                if job.state is not JobState.PENDING or not job.held:
                    continue
                job.admission = decision
                if release:
                    job.held = False
                    if job_id in self._held:
                        self._held.remove(job_id)
                    self._updated.notify_all()
            if release:
                self._queue.put(job_id)

    def _run(self, job: _Job) -> None:
        try:
            shards = iter_shards(job.plan, cache=self.cache, **job.options)
            report = job.plan.empty_report()
            for progress in shards:
                report = progress.aggregate
                with self._updated:
                    job.progress.append(progress)
                    self._updated.notify_all()
                if job.cancel_event.is_set():
                    with self._updated:
                        self._finish(job, JobState.CANCELLED)
                    return
        except Exception as error:
            with self._updated:
                job.error = f"{type(error).__name__}: {error}"
                self._finish(job, JobState.FAILED)
            return
        with self._updated:
            job.report = report
            if job.cancel_event.is_set():
                self._finish(job, JobState.CANCELLED)
            else:
                self._finish(job, JobState.DONE)

    # -- job records -------------------------------------------------------

    def _write_record(self, job: _Job) -> None:
        """Persist one BENCH-style record for a finished job (best effort)."""
        if self.records_dir is None:
            return
        self.records_dir.mkdir(parents=True, exist_ok=True)
        out_path = (
            self.records_dir / f"JOB_{job.plan.plan_fingerprint[:16]}.json"
        )
        record = {
            "job": job.job_id,
            "plan_fingerprint": job.plan.plan_fingerprint,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "entries": self._record_entries(job),
        }
        write_record(out_path, record, ("job", "recorded_at", "entries"))

    def _record_entries(self, job: _Job) -> dict:
        latest = job.progress[-1] if job.progress else None
        elapsed = None
        if job.started_at is not None and job.finished_at is not None:
            elapsed = job.finished_at - job.started_at
        policy = job.options["policy"]
        entries = {
            "state": job.state.value,
            "kind": job.plan.kind,
            "cases": len(job.plan),
            "cases_done": len(latest.aggregate) if latest else 0,
            "max_steps": job.plan.max_steps,
            "executor": policy.executor if policy else "serial",
            "shard_size": job.options["shard_size"],
            "elapsed_s": elapsed,
            "cache_hits": latest.cache_hits if latest else 0,
            "cache_misses": latest.cache_misses if latest else 0,
        }
        if job.admission is not None:
            entries["admission"] = job.admission.record()
        if job.preflight is not None:
            entries["preflight"] = job.preflight.record()
        if job.error is not None:
            entries["error"] = job.error
        if latest is not None:
            entries["outcomes"] = dict(
                Counter(
                    result.outcome.value for result in latest.aggregate.results
                )
            )
            if job.plan.kind == "resilience":
                entries["recovered"] = latest.aggregate.recovered_count
        return entries

