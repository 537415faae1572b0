"""JSON run records with a bounded history: ``BENCH_*.json`` and ``JOB_*.json``.

A record keeps the latest run at its top level and folds every earlier run
into a ``history`` list, newest last, so re-recording never discards the
measurements it replaces.  The benchmark runner (``benchmarks/_runner.py``)
and the sweep service (:mod:`repro.service.jobs`) both write records through
:func:`write_record`.

Records are persisted state, so they are written crash-safely and fail
loudly: a new record goes to a temporary file in the same directory and is
renamed over the old one, so a reader never sees a torn file; a previous
record that will not parse is moved aside to ``<name>.corrupt`` with a
:class:`RuntimeWarning` instead of being silently dropped with its history.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path

#: Oldest history snapshots are dropped past this many (newest kept).
HISTORY_LIMIT = 50

#: Top-level keys of a previous record copied into its history snapshot.
SNAPSHOT_KEYS = ("recorded_at", "entries")


def _load_previous(out_path: Path):
    """The parsed record at ``out_path``; quarantines one that won't parse."""
    try:
        text = out_path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        return json.loads(text)
    except ValueError as error:  # JSONDecodeError or UnicodeDecodeError
        quarantine = out_path.with_name(out_path.name + ".corrupt")
        os.replace(out_path, quarantine)
        warnings.warn(
            f"record {out_path} does not parse ({error}); moved it to"
            f" {quarantine.name} and started a fresh history",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


def merge_history(
    out_path: Path, record: dict, snapshot_keys: tuple = SNAPSHOT_KEYS
) -> dict:
    """Fold the previous record at ``out_path`` into ``record["history"]``.

    The previous file's own ``history`` is carried over and its top-level
    run (the ``snapshot_keys`` fields) is appended as one more snapshot —
    skipped when its entries equal the last snapshot's, so migrated records
    do not duplicate their seed entry.  The tail is bounded by
    :data:`HISTORY_LIMIT`.  A previous file that does not parse is moved
    aside (see the module docstring).
    """
    history: list = []
    previous = _load_previous(Path(out_path))
    if isinstance(previous, dict) and previous.get("entries"):
        history = [
            item for item in previous.get("history", []) if isinstance(item, dict)
        ]
        snapshot = {key: previous[key] for key in snapshot_keys if key in previous}
        if not history or history[-1].get("entries") != snapshot["entries"]:
            history.append(snapshot)
    record["history"] = history[-HISTORY_LIMIT:]
    return record


def write_record(
    out_path: Path, record: dict, snapshot_keys: tuple = SNAPSHOT_KEYS
) -> dict:
    """Merge ``record`` with the history at ``out_path`` and replace the file.

    The write is atomic: the JSON goes to a synced temporary file next to
    ``out_path``, which is then renamed over it.  Returns the merged record.
    """
    out_path = Path(out_path)
    record = merge_history(out_path, record, snapshot_keys)
    temporary = out_path.with_name(
        f".{out_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temporary, "w") as stream:
            stream.write(json.dumps(record, indent=2) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temporary, out_path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return record
