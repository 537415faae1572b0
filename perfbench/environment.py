"""Facts about the machine a run measured on, recorded beside the metrics.

The calibration micro-kernel is fixed: a pure-Python dispatch loop and a
numpy gather, timed in the same run as the workload.  Dividing a metric by
them lets figures from different machines be read against each other.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

CALIBRATION_REPEATS = 5
DISPATCH_CALLS = 200_000
GATHER_ELEMENTS = 1 << 20
GATHER_ROUNDS = 8


def _inc(value):
    return value + 1


def _dec(value):
    return value - 1


def _dispatch_loop() -> int:
    table = {0: _inc, 1: _dec, 2: _inc}
    value = 0
    for i in range(DISPATCH_CALLS):
        value = table[i % 3](value)
    return value


def _gather(np, data, index) -> int:
    total = 0
    for _ in range(GATHER_ROUNDS):
        total += int(np.take(data, index).sum())
    return total


def calibrate() -> dict[str, float]:
    """Median seconds of each calibration kernel over a few repeats."""
    import numpy as np

    rng = np.random.default_rng(0)
    data = np.arange(GATHER_ELEMENTS, dtype=np.int32)
    index = rng.integers(0, GATHER_ELEMENTS, GATHER_ELEMENTS)
    timings: dict[str, list[float]] = {"python_dispatch_s": [], "numpy_gather_s": []}
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        _dispatch_loop()
        timings["python_dispatch_s"].append(time.perf_counter() - start)
        start = time.perf_counter()
        _gather(np, data, index)
        timings["numpy_gather_s"].append(time.perf_counter() - start)
    return {name: statistics.median(values) for name, values in timings.items()}


def facts() -> dict:
    """nproc, interpreter and library versions, and the batch kernel in use."""
    import numpy as np

    from repro.core import BatchSimulator
    from repro.core.batch_kernels import HAVE_NUMBA
    from perfbench.protocols import odd_parity_inputs, xor_ring

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    probe = xor_ring(4)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "repro_have_numba": HAVE_NUMBA,
        "batch_kernel": BatchSimulator(probe, [odd_parity_inputs(4)]).kernel,
        "machine": platform.machine(),
    }
