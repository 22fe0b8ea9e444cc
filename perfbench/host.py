"""Host and environment record, BLAS pinning and calibration loops.

``pin_blas`` must run before numpy is first imported, in the benchmark
process and (through ``child_env``) in every process under test: two
service workers on two cores would otherwise each start a BLAS thread
pool and oversubscribe the host.

The calibration loops time a fixed pure-Python loop and a fixed GEMM.
They show a noisy or throttled host; they are never used to rescale
other metrics.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from typing import Any

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas() -> None:
    """Pin every BLAS thread pool of this process to one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def child_env(src: str) -> dict[str, str]:
    """Environment for a process under test.

    BLAS pinned, ``src`` importable, and the string-hash seed fixed so
    that two runs of one program on one seed give identical answers
    (the digest check relies on it).
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def environment(seed: int) -> dict[str, Any]:
    """nproc, Python, numpy, scipy and BLAS versions, and the seed."""
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def _python_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def calibrate() -> dict[str, float]:
    """Median wall time of the fixed Python loop and the fixed GEMM (ms)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    py, gemm = [], []
    for _ in range(5):
        start = time.perf_counter()
        _python_loop()
        py.append(time.perf_counter() - start)
        start = time.perf_counter()
        for _ in range(8):
            a @ a
        gemm.append(time.perf_counter() - start)
    return {
        "host.calib_py_ms": statistics.median(py) * 1e3,
        "host.calib_gemm_ms": statistics.median(gemm) * 1e3,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
