"""Benchmark of echometry: three workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload qfi_large_n --seed 1 --seconds 36 --trace 1
    python3 perfbench/run.py --workload cfi_large_n --seed 1 --profile 25

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, and ``--profile K`` the cProfile top K by
tottime of one pass.  Every output is checked against the pinned values of
the acceptance gate; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report with the
machine facts goes to ``.perfbench/results/``.  Exit code 0 when every item
passed its check, 1 when any failed, 2 when the benchmark could not run.

The program is imported from ``src/`` of this checkout, in worker processes
whose BLAS thread count this script sets and records.  Each pass runs in a
fresh worker, as a CLI user's run does, so nothing one pass leaves in memory
can speed up the next.

``wall_s`` is the time of one pass with each item at the fastest of its
repetitions in the run.  On a host shared with other tenants the machine's
speed shifts by tens of percent for seconds at a time; the per-item minimum
drops that interference, where a median of two to ten passes follows it.
The median and the tail of whole-pass times are printed beside it and kept in
the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = ROOT / ".perfbench"
PACKAGE_INIT = ROOT / "src" / "echometry" / "__init__.py"

WORKLOADS = ("figures", "qfi_large_n", "cfi_large_n")
SETUP_SAMPLES = 3
BLAS_THREADS = 2
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Traced at 1 BLAS thread as well, so thread scaling shows per layer; the
# propagator's own work is the eigh inside unitary_of_hermitian.
SINGLE_THREAD_METRICS = (
    "circuit.propagator.self_s",
    "circuit.propagator.total_s",
    "spin.unitary_of_hermitian.self_s",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "s"


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    Nearest-rank percentiles from a fixed ladder; with fewer than twenty
    samples no rung qualifies and the slowest sample is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_INIT.parent.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_facts(threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_available": available_cpus(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "blas_threads_set": threads,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Runner:
    """Starts worker processes for one workload and seed, each waited for."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = STATE_DIR / "tmp"

    def worker(self, *extra: str, threads: int) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before starting a worker")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        env["TMPDIR"] = str(self.workdir)
        argv = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--workdir", str(self.workdir),
            *extra,
        ]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ran past the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        loaded = Path(result["facts"]["echometry_file"]).resolve()
        if loaded != PACKAGE_INIT.resolve():
            raise BenchError(f"worker imported echometry from {loaded}, not from this checkout")
        return result

    def measure(self, seconds: float, threads: int) -> tuple[list[dict], list[float]]:
        """One worker per pass for about ``seconds``, and the set-up samples."""
        workers: list[dict] = []
        start = time.monotonic()
        while True:
            workers.append(self.worker(threads=threads))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(workers) > seconds:
                break
        setup = [w["setup_s"] for w in workers]
        while len(setup) < SETUP_SAMPLES:
            setup.append(self.worker("--setup-only", threads=threads)["setup_s"])
        return workers, setup


def end_to_end(workers: list[dict], setup: list[float]) -> tuple[dict, dict]:
    passes = [w["pass"] for w in workers]
    fastest = [min(column) for column in zip(*(p["item_seconds"] for p in passes))]
    wall = sum(fastest)
    times = [p["seconds"] for p in passes]
    pct, tail_value = tail(times)
    metrics = {
        "wall_s": wall,
        "items_per_s": passes[0]["items"] / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }
    detail = {
        "passes": len(passes),
        "pass_seconds": times,
        "pass_median_s": statistics.median(times),
        "pass_tail_s": tail_value,
        "pass_tail_percentile": pct,
        "item_fastest_s": fastest,
        "items_per_pass": passes[0]["items"],
        "setup_samples": setup,
    }
    return metrics, detail


def per_layer(untraced: dict, traced: dict, single: dict) -> tuple[dict, dict]:
    traced_pass = traced["pass"]
    metrics = dict(traced["trace"])
    for name in SINGLE_THREAD_METRICS:
        metrics[f"{name}_1thread"] = single["trace"][name]
    metrics["experiments.csv_bytes"] = traced_pass["csv_bytes"]
    metrics["tracing_overhead_s"] = traced_pass["seconds"] - untraced["pass"]["seconds"]
    detail = {
        "untraced_pass_s": untraced["pass"]["seconds"],
        "traced_pass_s": traced_pass["seconds"],
        "traced_pass_1thread_s": single["pass"]["seconds"],
        "trace_1thread": single["trace"],
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0, help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="K", help="print the cProfile top K of one pass")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not PACKAGE_INIT.is_file():
        print(f"error: no echometry sources at {PACKAGE_INIT.relative_to(ROOT)}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    threads = min(BLAS_THREADS, available_cpus())
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.profile:
            run = runner.worker("--profile", str(args.profile), threads=threads)
            print(run["profile"])
            return 0 if run["pass"]["failed"] == 0 else 1
        if args.trace:
            untraced = runner.worker(threads=threads)
            traced = runner.worker("--trace", threads=threads)
            single = runner.worker("--trace", threads=1)
            workers = [untraced, traced, single]
            metrics, detail = per_layer(untraced, traced, single)
            leftover = traced["traced_bindings_left"] + single["traced_bindings_left"]
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            workers, setup = runner.measure(args.seconds, threads)
            metrics, detail = end_to_end(workers, setup)
            leftover = []
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    passes = [w["pass"] for w in workers if w["pass"] is not None]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if leftover:
        failures.append(f"trace wrappers left installed: {', '.join(leftover)}")
    correct = failed == 0 and not failures

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_facts(threads), **workers[0]["facts"]},
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "detail": detail,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": failures,
    }
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    machine = report["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(
        f"machine: nproc={machine['nproc']} blas_threads={threads} "
        f"in_effect={machine['blas_threads_in_effect']} blas={machine['blas_build']['version']} "
        f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']} "
        f"commit={machine['git_commit']}"
    )
    for name, entry in report["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(
            f"  over {detail['passes']} passes: pass time median {detail['pass_median_s']:.6g} s, "
            f"tail p{detail['pass_tail_percentile']:g} {detail['pass_tail_s']:.6g} s; "
            f"setup_s over {len(detail['setup_samples'])} processes"
        )
    print(f"  fail_ratio = {report['fail_ratio']:.6g} ({failed} failed of {attempted} items)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
