import csv
import warnings

import numpy as np
import pytest

from echometry.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from echometry.experiments import SCENARIOS, run_validation
from echometry.spin import ContractViolation
from conftest import run_python
from test_fisher import run_at_blas_threads


def test_trace_scan_command(tmp_path, capsys):
    for n in ("4", "1000000"):
        out = tmp_path / n
        code = main(["trace-scan", "--n", n, "--out", str(out)])
        assert code == EXIT_OK
        assert len((out / "trace_scan.csv").read_text().splitlines()) == 1 + 2048
        summary = dict(line.split("=", 1) for line in (out / "trace_scan_summary.txt").read_text().splitlines())
        assert abs(float(summary["max_trace"]) - 1.0) <= 1e-9
        assert "trace_scan" in capsys.readouterr().out


def test_qfi_sweep_single_scenario(tmp_path):
    code = main(
        ["qfi-sweep", "--scenario", "heatmap", "--n", "2", "--out", str(tmp_path),
         "--config", "/dev/null"]
    )
    assert code == EXIT_OK
    assert (tmp_path / "qfi_heatmap.csv").exists()


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "# tiny deterministic scan\n"
        "scenario = trace_scan\n"
        "n = 11\n"
        "points = 64\n"
        "gt_max = 12.566370614359172\n"
    )
    out = tmp_path / "out"
    code = main(["trace-scan", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "trace_scan.csv").read_text().strip().splitlines()
    assert len(lines) == 65
    # odd probe: unit trace only at the 2*pi multiples
    peaks = [float(line.split(",")[0]) for line in lines[1:] if float(line.split(",")[1]) >= 1 - 1e-9]
    np.testing.assert_allclose(peaks, [2 * np.pi, 4 * np.pi], atol=1e-12)


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 4\nresolution = 12\n")
    code = main(["trace-scan", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_line_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without a key\n")
    assert main(["trace-scan", "--config", str(cfg)]) == EXIT_CONFIG


def test_scenario_mismatch_is_config_error(tmp_path):
    cfg = tmp_path / "mismatch.cfg"
    cfg.write_text("scenario = cfi_map\n")
    assert main(["trace-scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_scenario_must_agree_with_flag(tmp_path, capsys):
    cfg = tmp_path / "theta0.cfg"
    cfg.write_text("scenario = qfi_theta0\nn_values = 2\ntheta0_points = 2\n")
    argv = ["qfi-sweep", "--config", str(cfg), "--out", str(tmp_path)]
    assert main([*argv, "--scenario", "t1"]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert main([*argv, "--scenario", "theta0"]) == EXIT_OK
    assert [path.name for path in tmp_path.glob("*.csv")] == ["qfi_theta0.csv"]


def test_bad_flag_exits_with_config_code(capsys):
    assert main(["trace-scan", "--interaction", "xy"]) == EXIT_CONFIG
    capsys.readouterr()


def test_thermal_scaling_at_extreme_beta(tmp_path, capsys):
    # e^beta overflows at beta = 1000 and e^beta - 1 rounds to 0 at beta = 1e-300:
    # the first runs, and the second's infinite large-N form is a numerical
    # contract violation, not a traceback
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("beta = 1000\nn_values = 2, 3\n")
    assert main(["qfi-sweep", "--scenario", "scaling", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    cfg.write_text("beta = 1e-300\nn_values = 2, 3\n")
    assert main(["qfi-sweep", "--scenario", "scaling", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert "Fisher information came out as inf" in capsys.readouterr().err


def test_thermal_scaling_past_the_float_range_of_beta_m(tmp_path, capsys):
    # beta = 1e308 lies in the beta > 0 domain, and beta j overflows: the
    # thermal point is the ground state, F_Q = N^2 at the optimum
    cfg = tmp_path / "beta.cfg"
    cfg.write_text("beta = 1e308\nn_values = 2, 4, 20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["qfi-sweep", "--scenario", "scaling", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err
    with open(tmp_path / "qfi_scaling.csv") as f:
        rows = [row for row in csv.DictReader(f) if row["point_label"] in ("D", "D_exact", "D_largeN")]
    assert len(rows) == 9
    for row in rows:
        n = int(row["N"])
        assert abs(float(row["FQ"]) - n * n) <= 1e-12 * n * n


def test_missing_period_is_numerical_error(tmp_path, capsys):
    # the default XZ rates are incommensurable, so period mode cannot find a
    # reversal time and must exit with the numerical-contract code
    code = main(
        ["qfi-sweep", "--scenario", "theta0", "--interaction", "xz", "--mode", "period",
         "--n", "2", "--out", str(tmp_path)]
    )
    assert code == EXIT_NUMERICAL
    assert "contract" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["trace-scan", "--wa", "1e308"],
    ["trace-scan", "--wp", "1e308"],
    ["cfi-map", "--wp", "1e308"],
    ["dephasing", "--wp", "1e308"],
])
def test_phase_past_the_float_range_is_numerical_error(tmp_path, capsys, argv):
    # a finite rate times a time can overflow to inf, and its phase to NaN: the
    # angle is checked as it is formed, with no numpy warning before the report
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical contract violation: ")
    assert "is not finite" in err[0]
    assert not list(tmp_path.rglob("*.csv"))


def test_trace_scan_without_coupling_is_config_error(tmp_path, capsys):
    # the scan's times are gT / g: g = 0 is rejected before any division
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["trace-scan", "--g", "0", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: scenario trace_scan measures time in units of 1/g and needs g > 0, got g = 0.0\n"
    )
    assert not (tmp_path / "out").exists()


def test_weak_xz_qfi_sweep_fails_before_writing(tmp_path, capsys):
    # at the default rates (wp = 3 > g = 1) the XZ optimum does not exist, so the
    # scaling scenario's thermal probe has no unit generator; --scenario all
    # resolves every config before the first scenario writes its CSV
    code = main(["qfi-sweep", "--interaction", "xz", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: scenario qfi_scaling builds a thermal probe, which needs the unit generator "
        "of the XZ optimum (g >= |wp|), got g = 1.0, wp = 3.0\n"
    )
    assert not list(tmp_path.glob("*.csv"))


def test_negative_probe_frequency_below_minus_g_is_weak_xz(tmp_path, capsys):
    # the XZ optimum depends on wp^2 only: wp = -3 runs at the weak-coupling
    # step, and the scaling scenario's thermal probe is a config error as at wp = 3
    argv = ["--interaction", "xz", "--wp", "-3"]
    assert main(["dephasing", *argv, "--out", str(tmp_path / "dephasing")]) == EXIT_OK
    code = main(["qfi-sweep", "--scenario", "scaling", *argv, "--out", str(tmp_path / "scaling")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: scenario qfi_scaling builds a thermal probe, which needs the unit generator "
        "of the XZ optimum (g >= |wp|), got g = 1.0, wp = -3.0\n"
    )
    assert not (tmp_path / "scaling").exists()


def test_package_runs_as_a_module():
    proc = run_python(["-m", "echometry", "--help"], timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "trace-scan" in proc.stdout


def run_fresh(script):
    """Run a Python script in a fresh interpreter on this checkout; returns its stdout."""
    proc = run_python(["-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_and_every_cli_run_leave_scipy_unloaded(tmp_path):
    # scipy serves only inverse iteration for a few probe columns, which no
    # CLI run needs: it is not loaded on import, in a period search (a near
    # period of near-rational rates, and a whole window of irrational ones),
    # by any default CLI scenario, or by validate, whose hand-built probes
    # read out through the recurrence J_x frame
    script = (
        "import contextlib, io, math, sys, echometry as em\n"
        "from echometry.cli import main\n"
        "from echometry.experiments import SCENARIOS\n"
        "loaded = ['scipy' in sys.modules]\n"
        "em.reversal_period(em.ModelParams(3.0, 30.0 * (1 + 1e-6), 1.0), em.EnsembleDim(4), 8.0)\n"
        "try:\n"
        "    em.reversal_period(em.ModelParams(math.sqrt(2.0), 1.0, 1.0), em.EnsembleDim(2000), 64 * math.pi)\n"
        "except em.PeriodNotFound:\n"
        "    loaded.append('scipy' in sys.modules)\n"
        f"out = {str(tmp_path)!r}\n"
        "runs = [[command, '--out', out] for command in dict.fromkeys(spec.command for spec in SCENARIOS.values())]\n"
        "runs.append(['qfi-sweep', '--scenario', 't1', '--mode', 'period', '--out', out])\n"
        "runs.append(['validate', '--seed', '7'])\n"
        "for argv in runs:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "    loaded.append('scipy' in sys.modules)\n"
        "print(len(runs), loaded)\n"
    )
    runs, loaded = run_fresh(script).split(" ", 1)
    assert int(runs) >= 6
    assert loaded.strip() == repr([False] * (int(runs) + 2))
    assert {path.name for path in tmp_path.iterdir()} >= {f"{name}.csv" for name in SCENARIOS}


def test_period_search_over_a_vast_window_in_bounded_memory():
    # the 10^12 window holds about 6e11 recurrences of the widest sector; they
    # are tested a chunk at a time, and the first chunk holds the period
    script = (
        "import math, resource, echometry as em\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "sol = em.reversal_period(em.ModelParams(3.0, 3.0, 1.0), em.EnsembleDim(4), 1e12)\n"
        "print(sol.period == math.pi, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    found, growth = run_fresh(script).split()
    assert found == "True"
    assert 0 <= int(growth) <= 64 * 1024  # ru_maxrss is in KiB


def test_validate_command(capsys):
    code = main(["validate", "--instances", "10", "--seed", "4"])
    assert code == EXIT_OK
    assert "passed=True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["--instances", "0"], ["--instances", "-3"], ["--seed", "-1"]]
)
def test_validate_rejects_empty_runs_and_negative_seeds(capsys, argv):
    # zero instances would report passed=True without checking anything
    assert main(["validate", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "passed=" not in captured.out


def test_run_validation_needs_an_instance():
    with pytest.raises(ContractViolation):
        run_validation(instances=0)


def test_run_validation_checks_its_own_inputs():
    # a fractional count or a negative, fractional or missing seed is a
    # contract violation, not an error from range or numpy; numpy integers
    # are whole numbers
    for kwargs in (dict(instances=1.5), dict(instances="3"), dict(seed=-1), dict(seed=2.5), dict(seed=None)):
        with pytest.raises(ContractViolation, match="validation needs"):
            run_validation(**kwargs)
    assert run_validation(np.int64(2), np.int64(4))["passed"]


def test_dephasing_command_defaults(tmp_path):
    code = main(["dephasing", "--n", "4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    rows = (tmp_path / "dephasing_scan.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 11


def test_explicit_default_mode_changes_nothing(tmp_path):
    for name, extra in (("default", []), ("explicit", ["--mode", "conjugate"])):
        assert main(["dephasing", "--n", "4", "--out", str(tmp_path / name), *extra]) == EXIT_OK
    for path in (tmp_path / "default").iterdir():
        assert (tmp_path / "explicit" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["qfi-sweep", "--scenario", "theta0"], "theta0_points = 0"),
        (["qfi-sweep", "--scenario", "t1"], "gt1_points = 0"),
        (["trace-scan"], "gt_max = nan"),
        (["trace-scan", "--n", "0"], ""),
        (["trace-scan"], "points = 2.5"),
        (["dephasing"], "n_values = 4, 0"),
        (["dephasing"], "x_values = ,"),
        (["deviation"], "deltas = 0.01, inf"),
        (["trace-scan"], "wp = fast"),
        (["xz-scaling"], "ratios = 0"),
        (["xz-scaling"], "ratios = 1, -0.3"),
        (["qfi-sweep", "--scenario", "scaling"], "beta = 0"),
        (["qfi-sweep", "--scenario", "scaling"], "beta = -1"),
        (["dephasing"], "x_values = 2"),
        (["dephasing"], "x_values = 0.5, -0.1"),
        # only the F_Q sweeps read the reversal mode
        (["dephasing", "--mode", "period"], ""),
        (["deviation"], "mode = period"),
        (["xz-scaling", "--mode", "period"], ""),
        (["trace-scan", "--mode", "period"], ""),
        (["cfi-map"], "mode = period"),
        # grids in units of g t need g > 0
        (["trace-scan", "--g", "0"], ""),
        (["qfi-sweep", "--scenario", "t1"], "g = 0"),
        (["qfi-sweep", "--scenario", "t1", "--mode", "period", "--g", "0"], ""),
        (["qfi-sweep", "--scenario", "heatmap", "--g", "0"], ""),
        (["qfi-sweep", "--scenario", "scaling", "--g", "0"], ""),
        (["qfi-sweep"], "g = 0"),
        (["cfi-map", "--interaction", "xz"], "g = 0.0"),
        # so do the runs that start from the optimal settings
        (["deviation", "--g", "0"], ""),
        (["deviation", "--interaction", "xz"], "g = 0"),
        (["dephasing", "--g", "0"], ""),
        (["dephasing", "--interaction", "xz", "--g", "0"], ""),
        (["qfi-sweep", "--scenario", "theta0", "--g", "0"], ""),
        (["qfi-sweep", "--scenario", "theta0", "--interaction", "xz"], "g = 0"),
        # the deviation law is the ZZ one
        (["deviation", "--interaction", "xz"], ""),
        # the XZ scaling builds XZ models only
        (["xz-scaling", "--interaction", "zz"], ""),
        # the deviation law N^2 - N(N-1) m^2 of a unit pattern stays positive only for |m| <= 1
        (["deviation"], "deltas = 1.5"),
    ],
)
def test_invalid_value_is_config_error(tmp_path, capsys, argv, config):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _tiny_grid(key, default, size):
    """Config text for a grid with `size` points on each axis; n stays a probe size of 2."""
    if isinstance(default, tuple):
        items = range(2, 2 + size) if isinstance(default[0], int) else default[:size]
        return ", ".join(str(item) for item in items)
    if isinstance(default, int):
        return "2" if key == "n" else str(size)
    return str(default)


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_scenario_runs_and_is_documented(tmp_path, capsys, name):
    # Every tuple key lists the values along one axis of the sweep, and every
    # int key but the probe size n counts the points along one, so doubling
    # each axis multiplies the rows by 2**axes.
    spec = SCENARIOS[name]
    axes = sum(
        isinstance(default, tuple) or (isinstance(default, int) and key != "n")
        for key, default in spec.defaults.items()
    )
    rows = []
    for size in (1, 2):
        cfg = tmp_path / f"{size}.cfg"
        lines = [f"scenario = {name}"]
        lines += [f"{key} = {_tiny_grid(key, d, size)}" for key, d in spec.defaults.items()]
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / str(size)
        assert main([spec.command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows.append(len((out / f"{name}.csv").read_text().splitlines()) - 1)
        assert f"{name}: {rows[-1]} rows" in capsys.readouterr().out
        # the summary lists every grid key right after the scenario, as resolved
        lines = (out / f"{name}_summary.txt").read_text().splitlines()
        summary = dict(line.split("=", 1) for line in lines)
        assert list(summary)[: 1 + len(spec.defaults)] == ["scenario", *spec.defaults]
        for key, default in spec.defaults.items():
            kind = type(default[0] if isinstance(default, tuple) else default)
            items = [kind(item) for item in _tiny_grid(key, default, size).split(",")]
            assert summary[key] == ";".join(f"{v:.12g}" if kind is float else str(v) for v in items)
    assert rows[0] >= 1
    assert rows[1] == rows[0] * 2**axes
    assert main([spec.command, "--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    assert f"scenario = {name}" in help_text
    assert all(f"    {key} = " in help_text for key in spec.defaults)


def test_scenario_files_independent_of_blas_threads():
    # every scenario at its defaults, and the one figure that solves for
    # reversal periods, writes the same bytes at 1 and at 2 OpenBLAS threads
    commands = [[command] for command in dict.fromkeys(spec.command for spec in SCENARIOS.values())]
    commands.append(["qfi-sweep", "--scenario", "t1", "--mode", "period"])
    script = (
        "import hashlib, pathlib, tempfile\n"
        "from echometry.cli import main\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        f"    for k, argv in enumerate({commands!r}):\n"
        "        assert main([*argv, '--out', f'{tmp}/{k}']) == 0\n"
        "    for path in sorted(pathlib.Path(tmp).rglob('*.*')):\n"
        "        print(path.relative_to(tmp), hashlib.sha256(path.read_bytes()).hexdigest())\n"
    )
    outputs = run_at_blas_threads(script)
    # each of the ten runs prints one line and writes a CSV and a summary
    assert len(outputs[0].splitlines()) == 3 * (len(SCENARIOS) + 1)
    assert outputs[0] == outputs[1]
