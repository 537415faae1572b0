"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 15 --trace 0

The workload runs whole passes (its fixed operation sequence) in a closed
loop until the timed operations add up to ``--seconds``.  Correctness
checks run between operations, outside the timed region, and every
mismatch counts as a failed operation.  ``setup_s`` is the median over
fresh set-up processes, from spawn to ready.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` the run measures once
untraced, then again with spans installed, and the JSON object carries the
per-layer metrics, the uncovered share and the tracing overhead.  A full
record (environment facts, calibration, every metric with its sample
count) goes to ``perfbench/results/``, and the spans of a traced run to a
``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
#: Fresh processes timed for ``setup_s`` in every run.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and insist on it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: repro imported from {where}, not {SRC}")


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- set-up --------------------------------------------------------------------


def setup_probe(name: str, trace: bool) -> None:
    """Child side of a set-up sample: set up, report, exit."""
    from perfbench.workloads import load

    workload_class = load(name)
    import_s = time.perf_counter() - STARTED
    tracer = None
    if trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    workload_class().setup()
    record = {"import_s": import_s}
    if tracer is not None:
        for span_name, metric in (
            ("core.compiled.compile", "compile_s"),
            ("core.batch.lift", "lift_s"),
        ):
            record[metric] = sum(
                span.duration for span in tracer.spans if span.name == span_name
            )
    print(json.dumps(record), flush=True)


def setup_samples(name: str, count: int, trace: bool) -> tuple[list[float], list[dict]]:
    """Spawn-to-ready seconds of ``count`` fresh set-up processes."""
    seconds, records = [], []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--setup-probe",
        "--trace",
        str(int(trace)),
    ]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True
        ) as process:
            line = process.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                process.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                raise
        if process.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with code {process.returncode}")
        seconds.append(elapsed)
        records.append(json.loads(line))
    return seconds, records


# -- the timed loop --------------------------------------------------------------


def warm_up(workload) -> list:
    """The first ``workload.warmup_ops`` operations, untimed.

    They run the first-pass checks and fill the process-wide caches a
    long-lived caller has warm.  Afterwards every object the harness holds
    (inputs, references, the reports later passes are compared against) is
    frozen out of the collector's sight, so the garbage collection an
    operation pays for is its own and not the harness's.
    """
    ops = []
    try:
        for op in workload.run_pass():
            ops.append(op)
            if len(ops) == workload.warmup_ops:
                break
    except Exception as error:  # a failed operation, counted as such
        ops.append(failed_op(error))
    gc.collect()
    gc.freeze()
    return ops


def failed_op(error):
    from perfbench.workloads.common import OpResult

    return OpResult("error", 0.0, 0, False, f"{type(error).__name__}: {error}")


def measure(workload, seconds: float, tracer=None) -> list[list]:
    """Whole passes until the timed operations add up to ``seconds``.

    Each operation starts on a freshly collected heap.
    """
    passes: list[list] = []
    timed = 0.0
    while not passes or timed < seconds:
        ops = []
        passes.append(ops)
        try:
            for op in workload.run_pass(tracer):
                ops.append(op)
                timed += op.seconds
                gc.collect()
        except Exception as error:  # a failed operation ends the phase
            ops.append(failed_op(error))
            return passes
    return passes


def run(
    workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    probes: int = SETUP_PROBES,
    spans_path=None,
) -> dict:
    """Set up, measure (and trace), check; the full record of one run.

    A traced run writes its spans to ``spans_path`` when one is given.
    """
    from perfbench import environment
    from perfbench.metrics import END_TO_END, end_to_end

    name = workload.name
    setup, _ = setup_samples(name, probes, trace=False)
    workload.setup()
    workload.prepare(seed)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "describe": {
            "aliases": workload.aliases,
            "op": workload.op,
            "tail": workload.tail,
        },
        "environment": environment.facts(),
        "calibration": environment.calibrate(),
    }
    warm_ops = warm_up(workload)
    passes = measure(workload, seconds)
    ops = [op for pass_ops in passes for op in pass_ops]
    rss = peak_rss_mib()
    metrics = end_to_end(passes, setup, rss, workload.tail)
    record["end_to_end"] = metrics
    record["samples"] = {
        "setup_s": len(setup),
        "ops": len(ops),
        "passes": len(passes),
    }
    record["op_seconds"] = [[op.kind, op.seconds] for op in ops]
    all_ops = warm_ops + ops
    if trace:
        from perfbench.metrics import layer_metrics, uncovered_share
        from perfbench.tracing import Tracer, install

        traced_setup, probe_records = setup_samples(name, probes, trace=True)
        tracer = Tracer()
        patch = install(tracer)
        try:
            traced_passes = measure(workload, seconds, tracer)
        finally:
            patch.remove()
        traced_ops = [op for pass_ops in traced_passes for op in pass_ops]
        traced = end_to_end(traced_passes, traced_setup, peak_rss_mib(), workload.tail)
        layers = layer_metrics(tracer.spans, len(traced_passes))
        for metric, key in (
            ("setup.import_s", "import_s"),
            ("setup.core.compiled.compile_s", "compile_s"),
            ("setup.core.batch.lift_s", "lift_s"),
        ):
            layers[metric] = statistics.median(probe[key] for probe in probe_records)
        layers["trace.uncovered_share"] = uncovered_share(tracer.spans)
        for metric, _ in END_TO_END:
            layers[f"trace.overhead.{metric}"] = traced[metric] - metrics[metric]
        record["traced_end_to_end"] = traced
        record["per_layer"] = layers
        record["samples"]["traced_ops"] = len(traced_ops)
        record["samples"]["traced_passes"] = len(traced_passes)
        all_ops += traced_ops
        if spans_path is not None:
            tracer.dump(spans_path)
    failed = [op for op in all_ops if not op.ok]
    record["attempted"] = len(all_ops)
    record["failed"] = len(failed)
    record["failed_ratio"] = len(failed) / len(all_ops)
    record["problems"] = [f"{op.kind}: {op.problem}" for op in failed[:10]]
    return record


# -- output ----------------------------------------------------------------------


def report_lines(record: dict) -> list[str]:
    """The human-readable summary printed before the JSON line."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    name = record["workload"]
    describe = record["describe"]
    samples = record["samples"]
    ops = f"{samples['ops']} {describe['op']}s in {samples['passes']} passes"
    counts = {
        "setup_s": f"{samples['setup_s']} processes",
        "peak_rss_mb": "1 process",
        "throughput": ops,
        "op_p50_s": ops,
        "op_tail_s": f"{ops}, {describe['tail']}",
    }
    lines = [f"perfbench {name} seed={record['seed']} seconds={record['seconds']}"]
    lines.append(f"  environment: {json.dumps(record['environment'])}")
    lines.append(f"  calibration: {json.dumps(record['calibration'])}")
    for metric, unit in END_TO_END:
        value = record["end_to_end"][metric]
        alias = describe["aliases"].get(metric, metric)
        lines.append(
            f"  {metric:<12} {value:>14.6g} {unit:<4} ({alias}; n = {counts[metric]})"
        )
    lines.append(
        f"  failed_ratio {record['failed_ratio']:>14.6g} 1    "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    for problem in record["problems"]:
        lines.append(f"  FAILED {problem[:300]}")
    if "per_layer" in record:
        lines.append("  per layer (traced run, per pass):")
        for metric, unit in PER_LAYER:
            value = record["per_layer"][metric]
            lines.append(f"    {metric:<58} {value:>14.6g} {unit}")
    return lines


def result_line(record: dict) -> str:
    """The last line of output: what the run measured, as one JSON object."""
    from perfbench.metrics import END_TO_END, PER_LAYER

    if record["trace"]:
        metrics = {
            metric: {"value": record["per_layer"][metric], "unit": unit}
            for metric, unit in PER_LAYER
        }
    else:
        metrics = {
            metric: {"value": record["end_to_end"][metric], "unit": unit}
            for metric, unit in END_TO_END
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    _import_repro()
    from perfbench.workloads import WORKLOADS, load

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, bool(args.trace))
        return 0
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run(
        load(args.workload)(),
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        spans_path=stem.with_suffix(".spans.jsonl") if args.trace else None,
    )
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n".join(report_lines(record)))
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
