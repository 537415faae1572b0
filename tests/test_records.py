"""Crash-safe JSON run records (:mod:`repro.records`).

``BENCH_*.json`` (``benchmarks/_runner.py``) and ``JOB_*.json``
(:class:`repro.service.SweepService`) are written by one helper: atomically,
through a temporary file renamed over the old record, and a previous record
that will not parse is moved aside to ``<name>.corrupt`` with a
``RuntimeWarning`` — never silently dropped together with its history.
"""

from __future__ import annotations

import json

import pytest

from repro.records import merge_history, write_record
from repro.service import SweepService
from tests.test_bench_history import _record, _runner
from tests.test_service_jobs import _plan


def _torn(path, record):
    """Write the first half of ``record``'s JSON, as a crash mid-write would."""
    text = json.dumps(record, indent=2)
    path.write_text(text[: len(text) // 2])
    return path.read_text()


class TestBenchRecords:
    def test_truncated_record_is_quarantined_loudly(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        previous = _record(2.0)
        previous["history"] = [_record(1.0)]
        torn = _torn(out, previous)
        with pytest.warns(RuntimeWarning, match="does not parse"):
            merged = _runner.write_record(out, _record(3.0))
        assert merged["history"] == []
        corrupt = tmp_path / "BENCH_bench_x.json.corrupt"
        assert corrupt.read_text() == torn
        assert json.loads(out.read_text()) == merged
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_bench_x.json",
            "BENCH_bench_x.json.corrupt",
        ]

    def test_history_restarts_after_quarantine(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        _torn(out, _record(1.0))
        with pytest.warns(RuntimeWarning):
            write_record(out, _record(2.0))
        merged = write_record(out, _record(3.0))
        assert [item["entries"] for item in merged["history"]] == [
            _record(2.0)["entries"]
        ]

    def test_undecodable_bytes_are_quarantined(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        out.write_bytes(b'{"entries": "\xff\xfe')
        with pytest.warns(RuntimeWarning):
            assert merge_history(out, _record(1.0))["history"] == []
        assert (tmp_path / "BENCH_bench_x.json.corrupt").exists()

    def test_failed_write_leaves_the_old_record_whole(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        write_record(out, _record(1.0))
        before = out.read_text()
        unserializable = _record(2.0)
        unserializable["entries"]["test_x"]["kernel_median_s"] = object()
        with pytest.raises(TypeError):
            write_record(out, unserializable)
        assert out.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_bench_x.json"]

    def test_written_record_round_trips(self, tmp_path):
        out = tmp_path / "BENCH_bench_x.json"
        write_record(out, _record(1.0))
        merged = write_record(out, _record(2.0))
        assert json.loads(out.read_text()) == merged
        assert merged["history"] == [
            {"recorded_at": _record(1.0)["recorded_at"],
             "entries": _record(1.0)["entries"]}
        ]


class TestJobRecords:
    def _run(self, plan, records_dir):
        with SweepService(records_dir=records_dir) as service:
            service.result(service.submit(plan), timeout=30)

    def test_truncated_job_record_is_quarantined_loudly(self, tmp_path):
        plan, _, _ = _plan(count=2)
        self._run(plan, tmp_path)
        (path,) = tmp_path.glob("JOB_*.json")
        torn = _torn(path, json.loads(path.read_text()))
        with pytest.warns(RuntimeWarning, match="does not parse"):
            self._run(plan, tmp_path)
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.read_text() == torn
        record = json.loads(path.read_text())
        assert record["entries"]["state"] == "done"
        assert record["history"] == []
        # The fresh record starts the history over; snapshots keep the job.
        self._run(plan, tmp_path)
        (snapshot,) = json.loads(path.read_text())["history"]
        assert set(snapshot) == {"job", "recorded_at", "entries"}
        assert snapshot["job"] == record["job"]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [path.name, corrupt.name]
        )
