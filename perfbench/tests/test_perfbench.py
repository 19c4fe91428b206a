"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import echometry  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, traced_bindings  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _small_qfi() -> float:
    params = workloads.ZZ
    dim = echometry.EnsembleDim(3)
    probe = echometry.polarized_probe(dim, echometry.optimal_generator(params, dim))
    sched = echometry.conjugate_schedule(echometry.optimal_settings(params).t1, theta=0.1)
    return echometry.qfi_general(probe, echometry.ancilla_state(math.pi / 2), params, sched).value


def _worker(trace=None, item_seconds=(0.25, 0.75), csv_bytes=10) -> dict:
    result = {
        "setup_s": 0.5,
        "peak_rss_mb": 80.0,
        "pass": {
            "seconds": sum(item_seconds),
            "item_seconds": list(item_seconds),
            "items": 4,
            "failed": 0,
            "failures": [],
            "csv_bytes": csv_bytes,
        },
    }
    if trace is not None:
        result["trace"] = trace
    return result


def test_every_benchmark_metric_is_emitted_with_a_valid_name():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS == tuple(workloads.WORKLOADS)

    metrics, detail = run.end_to_end([_worker(), _worker(item_seconds=(0.5, 0.5))], [0.4, 0.5, 0.6])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert metrics["wall_s"] == 0.75  # each item at its fastest repetition
    assert metrics["items_per_s"] == 4 / 0.75
    assert metrics["setup_s"] == 0.5
    assert detail["pass_median_s"] == 1.0

    with Tracer() as tracer:
        _small_qfi()
    trace = tracer.metrics()
    layer, _ = run.per_layer(_worker(), _worker(trace, item_seconds=(1.1,)), _worker(trace))
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    assert all(run.per_layer_unit(m["name"]) == m["unit"] for m in SPEC["per_layer"])
    assert layer["fisher.qfi_general.calls"] == 1
    assert layer["circuit.propagator.distinct_ratio"] == 1.0

    for entry in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.match(entry["name"]), entry["name"]


def test_wrong_expected_value_counts_as_failure(tmp_path):
    good = workloads.Command(
        ("dephasing",), "dephasing_scan", 11, (workloads.Expect("max_abs_gap_to_law", 0.0, 1e-10),)
    )
    wrong_value = workloads.Command(
        ("dephasing",), "dephasing_scan", 11, (workloads.near("max_abs_gap_to_law", 1.0, 1e-10),)
    )
    wrong_rows = workloads.Command(("dephasing",), "dephasing_scan", 12, ())
    figures = workloads.Figures(seed=1, workdir=tmp_path)

    def verdict(expected):
        out = tmp_path / "out"
        results = [
            workloads._cli(["dephasing", "--n", "4", "--out", str(out)]),
            workloads._cli(["validate", "--instances", str(workloads.VALIDATE_INSTANCES), "--seed", "1"]),
        ]
        return figures.check((out, results), expected=(expected,))

    ok = verdict(good)
    assert (ok.items, ok.failed, ok.failures) == (11 + workloads.VALIDATE_INSTANCES, 0, [])
    assert ok.csv_bytes > 0
    for expected in (wrong_value, wrong_rows):
        bad = verdict(expected)
        assert bad.failed == expected.rows
        assert bad.failures

    qfi = workloads.QfiLargeN(seed=1, workdir=tmp_path)
    outputs = [(("zz", "polarized"), 3, 9.0), (("zz", "thermal"), 3, 9.0), (("xz", "polarized"), 3, RuntimeError("x"))]
    result = qfi.check(outputs)
    assert (result.items, result.failed) == (3, 2)


def test_wrappers_are_removed_after_the_traced_run():
    original = echometry.circuit.propagator
    assert traced_bindings() == []
    with Tracer() as tracer:
        assert echometry.circuit.propagator is not original
        assert echometry.fisher.propagator is echometry.circuit.propagator
        assert "echometry.cli.main" in traced_bindings()
        _small_qfi()
    assert traced_bindings() == []
    assert echometry.circuit.propagator is original
    assert echometry.fisher.propagator is original
    calls = tracer.stats["circuit.propagator"].calls
    _small_qfi()
    assert tracer.stats["circuit.propagator"].calls == calls == 1


def test_self_time_excludes_traced_children():
    with Tracer() as tracer:
        _small_qfi()
    qfi = tracer.stats["fisher.qfi_general"]
    prop = tracer.stats["circuit.propagator"]
    assert 0.0 <= qfi.self_time <= qfi.total - prop.total + 1e-9


@pytest.mark.parametrize(
    "n, pct", [(5, 100.0), (19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0)]
)
def test_tail_has_ten_samples_beyond(n, pct):
    samples = [float(k) for k in range(n)]
    got_pct, value = run.tail(samples)
    assert got_pct == pct
    if pct < 100.0:
        assert sum(s > value for s in samples) >= 10


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
