import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from echometry.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from echometry.experiments import SCENARIOS, run_validation
from echometry.spin import ContractViolation


def test_trace_scan_command(tmp_path, capsys):
    code = main(["trace-scan", "--n", "4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "trace_scan.csv").exists()
    assert (tmp_path / "trace_scan_summary.txt").exists()
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


def test_missing_period_is_numerical_error(tmp_path, capsys):
    # the default XZ rates are incommensurable, so period mode cannot find a
    # reversal time and must exit with the numerical-contract code
    code = main(
        ["qfi-sweep", "--scenario", "theta0", "--interaction", "xz", "--mode", "period",
         "--n", "2", "--out", str(tmp_path)]
    )
    assert code == EXIT_NUMERICAL
    assert "contract" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_trace_scan_without_coupling_is_numerical_error(tmp_path, capsys):
    # the scan's times are gT / g: with g = 0 they are infinite, not a NaN trace
    code = main(["trace-scan", "--g", "0", "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_package_runs_as_a_module():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "echometry", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "trace-scan" in proc.stdout


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
    ],
)
def test_invalid_value_is_config_error(tmp_path, capsys, argv, config):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config + "\n")
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
    assert rows[0] >= 1
    assert rows[1] == rows[0] * 2**axes
    assert main([spec.command, "--help"]) == EXIT_OK
    help_text = capsys.readouterr().out
    assert f"scenario = {name}" in help_text
    assert all(f"    {key} = " in help_text for key in spec.defaults)
