"""Shared benchmark harness: run bench entry points, write machine-readable
results.

Each ``benchmarks/bench_*.py`` module exposes pytest-style entry points
``test_*(benchmark)``.  This runner drives them outside pytest with a minimal
stand-in for the pytest-benchmark fixture, records the kernel's median wall
time, and writes ``BENCH_<name>.json`` next to this file — so the performance
trajectory of the repository is machine-readable from this PR on.

Each record keeps that trajectory explicitly: the top-level ``entries`` hold
the latest run (what ``check_regression.py`` gates on), and every earlier
run is appended to a ``history`` list, newest last, so re-recording a
baseline never discards the measurements it replaces.  Records are written
through :func:`repro.records.write_record`: atomically, and a previous record
that does not parse is moved aside to ``BENCH_<name>.json.corrupt`` with a
``RuntimeWarning`` rather than silently losing its history.

A module may set ``BENCH_STEPS`` (engine steps executed per kernel call) to
get a derived ``steps_per_s`` figure in its JSON.  A bench may attach
arbitrary numeric facts to its record via ``benchmark.extra["field"] = v``
(merged into the entry), and declare hard acceptance gates via a module
level ``BENCH_GATES = {entry_name: {"max_kernel_median_s": ..., "min":
{field: floor}}}`` — gates are copied into the record so
``check_regression.py`` enforces them on every run, not just this one.

Usage:
    python benchmarks/_runner.py                  # run every bench
    python benchmarks/_runner.py a02 e10          # substring selection
    python benchmarks/_runner.py --repeats 3 a02
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

# Make `repro` importable without requiring PYTHONPATH=src.
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# ``merge_history`` and ``HISTORY_LIMIT`` are re-exported for the tools and
# tests that read this runner's record conventions.
from repro.records import HISTORY_LIMIT, merge_history, write_record  # noqa: E402, F401


def median_time(fn, repeats: int = 5):
    """Median wall time of ``repeats`` calls, plus the last result.

    Shared by gated benches (a02, a03) so their timing methodology cannot
    drift apart.
    """
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


class TimingBenchmark:
    """Minimal stand-in for pytest-benchmark's ``benchmark`` fixture.

    Calling it runs ``fn`` ``repeats`` times, records each wall time, and
    returns the last result (pytest-benchmark returns the kernel's result,
    which several benches assert on).
    """

    def __init__(self, repeats: int = 5):
        self.repeats = repeats
        self.times: list[float] = []
        #: Extra numeric facts the bench wants in its JSON entry
        #: (e.g. ``quotient_reduction_factor``); merged by the runner.
        self.extra: dict = {}

    def __call__(self, fn, *args, **kwargs):
        result = None
        for _ in range(self.repeats):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.times.append(time.perf_counter() - start)
        return result

    @property
    def median(self) -> float | None:
        return statistics.median(self.times) if self.times else None


def load_bench_module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_entry_points(module):
    """``test_*`` functions taking a ``benchmark`` parameter, in file order."""
    entries = []
    for name in dir(module):
        if not name.startswith("test_"):
            continue
        fn = getattr(module, name)
        if not callable(fn):
            continue
        try:
            parameters = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        if "benchmark" in parameters:
            entries.append((name, fn))
    entries.sort(key=lambda item: item[1].__code__.co_firstlineno)
    return entries


def run_bench_file(path: Path, repeats: int) -> dict:
    module = load_bench_module(path)
    steps_per_call = getattr(module, "BENCH_STEPS", None)
    gates = getattr(module, "BENCH_GATES", None)
    entries = {}
    for name, fn in bench_entry_points(module):
        fixture = TimingBenchmark(repeats=repeats)
        start = time.perf_counter()
        fn(fixture)
        total = time.perf_counter() - start
        entry = {
            "kernel_median_s": fixture.median,
            "kernel_runs": len(fixture.times),
            "total_s": total,
        }
        if steps_per_call and fixture.median:
            entry["steps_per_s"] = steps_per_call / fixture.median
        entry.update(fixture.extra)
        entries[name] = entry
    record = {
        "bench": path.stem,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "entries": entries,
    }
    if gates:
        record["gates"] = gates
    return record


def select_bench_files(patterns: list[str]) -> list[Path]:
    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if not patterns:
        return files
    selected = [
        path for path in files if any(pattern in path.stem for pattern in patterns)
    ]
    missing = [
        pattern
        for pattern in patterns
        if not any(pattern in path.stem for path in files)
    ]
    if missing:
        raise SystemExit(f"no bench file matches: {', '.join(missing)}")
    return selected


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("patterns", nargs="*", help="substring filters on bench names")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    for path in select_bench_files(args.patterns):
        print(f"== {path.stem} ==", flush=True)
        record = run_bench_file(path, args.repeats)
        out_path = BENCH_DIR / f"BENCH_{path.stem}.json"
        record = write_record(out_path, record)
        for name, entry in record["entries"].items():
            line = (
                f"  {name}: kernel median {entry['kernel_median_s']:.6f}s"
                f" over {entry['kernel_runs']} runs"
                f" (total {entry['total_s']:.2f}s)"
            )
            if "steps_per_s" in entry:
                line += f", {entry['steps_per_s']:,.0f} steps/s"
            print(line, flush=True)
        print(f"  -> {out_path.name}", flush=True)


if __name__ == "__main__":
    main()
