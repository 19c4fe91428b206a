"""One benchmark process: import echometry, warm up, run one timed pass, check it.

Started by ``run.py`` with the BLAS thread count already set in its
environment.  Prints one JSON object as the last line of its stdout.  Set-up
time is measured from before ``import echometry`` to the end of the warm-up
item, so it covers what a fresh process pays before its first useful result.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import ctypes
import io
import json
import platform
import pstats
import resource
import time
from pathlib import Path

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads_in_effect() -> dict:
    """Thread count reported by each loaded OpenBLAS library, by file name."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return {}
    found = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def software_facts() -> dict:
    import numpy
    import scipy

    import echometry

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "echometry": echometry.__version__,
        "echometry_file": echometry.__file__,
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_effect": blas_threads_in_effect(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true", help="trace the pass per layer")
    parser.add_argument("--setup-only", action="store_true", help="stop after the warm-up item")
    parser.add_argument("--profile", type=int, default=0, help="print the top-k functions by tottime")
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads
    from tracer import Tracer, traced_bindings

    workload = workloads.make(args.workload, args.seed, Path(args.workdir))
    workload.warmup()
    result = {"setup_s": time.perf_counter() - start, "pass": None}

    tracer = Tracer() if args.trace else None
    profiler = cProfile.Profile() if args.profile else None
    if not args.setup_only:
        with tracer or contextlib.nullcontext(), profiler or contextlib.nullcontext():
            start = time.perf_counter()
            outputs, item_seconds = workload.run()
            seconds = time.perf_counter() - start
        verdict = workload.check(outputs)
        result["pass"] = {"seconds": seconds, "item_seconds": item_seconds, **vars(verdict)}

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["facts"] = software_facts()
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["traced_bindings_left"] = traced_bindings()
    if profiler is not None:
        text = io.StringIO()
        pstats.Stats(profiler, stream=text).sort_stats("tottime").print_stats(args.profile)
        result["profile"] = text.getvalue()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
