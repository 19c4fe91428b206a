import math
from dataclasses import replace

import numpy as np
import pytest

import echometry.experiments
import echometry.fisher
import echometry.spin
from echometry.circuit import (
    ModelParams,
    Schedule,
    conjugate_schedule,
    optimal_generator,
    optimal_settings,
    period_schedule,
    reversal_period,
)
from echometry.fisher import cfi, qfi_deviation, qfi_general, qfi_thermal
from echometry.spin import EnsembleDim
from echometry.reference import output_state_derivatives, qfi_sld_oracle
from echometry.states import SpectralProbe, ancilla_state, dephase_ancilla, polarized_probe, thermal_probe
from echometry.experiments import SweepConfig, _argmax_row, fit_quadratic, run_scenario, run_validation
from echometry.spin import ContractViolation
from conftest import run_python

ZZ = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")
STRONG_XZ = ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")


def make_config(scenario, tmp_path, grids=None, params=ZZ, mode="exact_conjugate"):
    return SweepConfig(
        scenario=scenario,
        params=params,
        out_dir=str(tmp_path),
        mode=mode,
        grids=grids or {},
    )


def read_rows(path):
    header, *lines = path.read_text().strip().splitlines()
    return header.split(","), [line.split(",") for line in lines]


# ---------------------------------------------------------------------------
# fitting


def test_fit_quadratic_exact():
    points = [(n, 3.0 * n * n + 2.0 * n) for n in (4, 8, 12, 16)]
    fit = fit_quadratic(points)
    assert abs(fit.a - 3.0) <= 1e-10 and abs(fit.b - 2.0) <= 1e-10
    assert fit.residual_rms <= 1e-9


def test_fit_quadratic_linear_data():
    fit = fit_quadratic([(n, float(n)) for n in (10, 20, 30, 40)])
    assert abs(fit.a) <= 1e-10 and abs(fit.b - 1.0) <= 1e-10


def test_fit_quadratic_needs_three_sizes():
    with pytest.raises(ContractViolation):
        fit_quadratic([(4, 16.0), (4, 16.0), (8, 64.0)])


def test_argmax_row_ignores_rounding_noise():
    # rows 2-4 agree to 12 significant digits; the first of them in grid order wins
    rows = [(1, 0.99999999999), (2, 1.0 - 2e-16), (3, 1.0), (4, 1.0 + 1e-15), (5, 0.5)]
    assert _argmax_row(rows, 1) == rows[1]
    assert _argmax_row(rows[2:], 1) == rows[2]


def test_xz_scaling_summary_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "xz.cfg"
    cfg.write_text("n_values = 10, 20, 30, 40, 50, 60, 70, 80, 90, 100\n")
    outputs = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_python(
            ["-m", "echometry.cli", "xz-scaling", "--config", str(cfg), "--out", str(out)],
            threads, check=True, timeout=300,
        )
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# scenarios


def test_trace_scan_hits_unit_trace_at_pi_multiples(tmp_path):
    cfg = make_config("trace_scan", tmp_path, {"n": 4, "points": 256, "gt_max": 4 * math.pi})
    summary = run_scenario(cfg)
    header, rows = read_rows(tmp_path / "trace_scan.csv")
    assert header == ["gT", "F"]
    assert len(rows) == 256 == summary["rows"]
    peaks = [float(gt) for gt, f in rows if float(f) >= 1.0 - 1e-9]
    np.testing.assert_allclose(peaks, [math.pi, 2 * math.pi, 3 * math.pi, 4 * math.pi], atol=1e-12)


def test_trace_scan_is_deterministic(tmp_path):
    cfg = make_config("trace_scan", tmp_path, {"n": 11, "points": 128})
    run_scenario(cfg)
    first = (tmp_path / "trace_scan.csv").read_bytes()
    run_scenario(cfg)
    assert (tmp_path / "trace_scan.csv").read_bytes() == first


def test_qfi_theta0_grid_shape(tmp_path):
    cfg = make_config("qfi_theta0", tmp_path, {"n_values": [2, 4], "theta0_points": 9})
    summary = run_scenario(cfg)
    header, rows = read_rows(tmp_path / "qfi_theta0.csv")
    assert header == ["N", "theta0", "FQ"]
    assert len(rows) == 2 * 9
    # theta0 = pi/2 sits on the 9-point grid and must reach N^2
    for n in (2, 4):
        peak = max(float(f) for nn, _, f in rows if int(nn) == n)
        assert abs(peak - n * n) <= 1e-8 * n * n
    assert summary["max_FQ"] <= 16 + 1e-8


def test_qfi_t1_peak_at_quarter_period(tmp_path):
    cfg = make_config("qfi_t1", tmp_path, {"n_values": [4], "gt1_points": 9})
    run_scenario(cfg)
    _, rows = read_rows(tmp_path / "qfi_t1.csv")
    best = max(rows, key=lambda r: float(r[2]))
    assert abs(float(best[1]) - math.pi / 2) <= 1e-9  # CSV keeps 12 significant digits
    assert abs(float(best[2]) - 16.0) <= 1e-7


def test_qfi_heatmap_maximum_cell(tmp_path):
    cfg = make_config("qfi_heatmap", tmp_path, {"n": 4, "theta0_points": 9, "gt1_points": 9})
    summary = run_scenario(cfg)
    assert abs(summary["max_FQ_over_N2"] - 1.0) <= 1e-8
    assert abs(summary["argmax_theta0"] - math.pi / 2) <= 1e-12
    assert abs(summary["argmax_gt1"] - math.pi / 2) <= 1e-12
    _, rows = read_rows(tmp_path / "qfi_heatmap.csv")
    assert len(rows) == 81


def test_qfi_scaling_point_a_sticks_to_bound(tmp_path):
    cfg = make_config("qfi_scaling", tmp_path, {"n_values": [2, 5, 8], "beta": 1.0})
    summary = run_scenario(cfg)
    assert summary["max_A_deviation"] <= 1e-8
    _, rows = read_rows(tmp_path / "qfi_scaling.csv")
    assert len(rows) == 3 * 6  # six labelled curves per N
    b_values = {int(n): float(f) for n, label, f in rows if label == "B"}
    # detuned step time: strictly below the bound but still quadratic growth
    assert all(0 < b_values[n] < n * n for n in (2, 5, 8))
    assert b_values[8] / b_values[2] > (8 / 2) ** 1.5


def test_qfi_scaling_point_a_is_the_xz_optimum(tmp_path):
    # point A sits at optimal_settings, whose XZ step time (2.22 here) is not pi / (2 g)
    summary = run_scenario(make_config("qfi_scaling", tmp_path, {"n_values": [2, 7, 20]}, params=STRONG_XZ))
    assert summary["max_A_deviation"] <= 1e-10


def test_cfi_map_peaks_at_optimal_times(tmp_path):
    cfg = make_config("cfi_map", tmp_path, {"n": 5, "gt1_points": 9, "gt2_points": 9})
    summary = run_scenario(cfg)
    assert abs(summary["max_Fc_over_N2"] - 1.0) <= 1e-8
    _, rows = read_rows(tmp_path / "cfi_map.csv")
    assert len(rows) == 81

    def value_at(gt1, gt2):
        for a, b, c in rows:
            if abs(float(a) - gt1) <= 1e-9 and abs(float(b) - gt2) <= 1e-9:
                return float(c)
        raise AssertionError(f"no row at ({gt1}, {gt2})")

    quarter = math.pi / 2
    assert abs(value_at(quarter, quarter) - 1.0) <= 1e-8
    # the reversal-period condition gt2 = 3*pi/2 at gt1 = pi/2 also saturates
    assert abs(value_at(quarter, 3 * quarter) - 1.0) <= 1e-8


def test_xz_scaling_rows_and_fit(tmp_path):
    cfg = make_config(
        "xz_scaling",
        tmp_path,
        {"n_values": list(range(10, 101, 10)), "ratios": [1.0, 0.1]},
        params=ModelParams(3.0, 3.0, 1.0, kind="xz"),
    )
    summary = run_scenario(cfg)
    _, rows = read_rows(tmp_path / "xz_scaling.csv")
    assert len(rows) == 10 * 2
    for n, ratio, _, fq in rows:
        if float(ratio) == 1.0:
            assert abs(float(fq) - int(n) ** 2) <= 1e-6 * int(n) ** 2
    assert 0.03 <= summary["fit_a_0.1"] <= 0.05
    assert 0.91 <= summary["fit_b_0.1"] <= 1.01


def test_deviation_scan_formula_tracks_numeric(tmp_path):
    cfg = make_config("deviation_scan", tmp_path, {"n_values": [4], "deltas": [0.01]})
    summary = run_scenario(cfg)
    _, rows = read_rows(tmp_path / "deviation_scan.csv")
    assert len(rows) == 3  # one magnitude, three deviation patterns
    assert summary["max_abs_gap"] <= 1e-6 + 10.0 * 0.01**3


def test_dephasing_scan_follows_quadratic_law(tmp_path):
    cfg = make_config("dephasing_scan", tmp_path, {"n_values": [4, 20], "x_values": [0.0, 0.5, 1.0]})
    summary = run_scenario(cfg)
    _, rows = read_rows(tmp_path / "dephasing_scan.csv")
    assert len(rows) == 6
    for n, x, fq in rows:
        assert abs(float(fq) - (1 - float(x)) ** 2 * int(n) ** 2) <= 1e-10
    assert summary["max_abs_gap_to_law"] <= 1e-10


def test_period_mode_scenario_matches_conjugate(tmp_path):
    grids = {"n_values": [4], "theta0_points": 5}
    conj = run_scenario(make_config("qfi_theta0", tmp_path / "a", grids))
    per = run_scenario(make_config("qfi_theta0", tmp_path / "b", grids, mode="period"))
    _, rows_a = read_rows(tmp_path / "a" / "qfi_theta0.csv")
    _, rows_b = read_rows(tmp_path / "b" / "qfi_theta0.csv")
    for (_, _, fa), (_, _, fb) in zip(rows_a, rows_b):
        assert abs(float(fa) - float(fb)) <= 1e-8
    assert conj["rows"] == per["rows"]


def per_cell_rows(scenario, grids, mode, params):
    """A scenario's CSV rows from one qfi_general / cfi call per cell, in grid order."""

    def probe_and_gen(n):
        dim = EnsembleDim(n)
        gen = optimal_generator(params, dim)
        return dim, polarized_probe(dim, gen), gen

    def fq(n, theta0, t1, probe=None):
        dim, polarized, _ = probe_and_gen(n)
        if mode == "exact_conjugate":
            sched = conjugate_schedule(t1, 0.0)
        else:
            period = reversal_period(params, dim, t_max=64 * math.pi / params.g).period
            sched = period_schedule(t1 % period, 0.0, period)
        return qfi_general(polarized if probe is None else probe, ancilla_state(theta0), params, sched).value

    if scenario == "deviation_scan":
        opt = optimal_settings(params)
        rows = []
        for n in grids["n_values"]:
            dim, probe, _ = probe_and_gen(n)
            for magnitude in grids["deltas"]:
                for weight_g, weight_wp in echometry.experiments._DEVIATION_PATTERNS:
                    dg, dwp = magnitude * weight_g / opt.t1, magnitude * weight_wp / opt.t1
                    perturbed = replace(params, omega_p=params.omega_p + dwp, g=params.g + dg)
                    numeric = qfi_general(probe, ancilla_state(math.pi / 2), perturbed, conjugate_schedule(opt.t1, 0.0))
                    formula = qfi_deviation(dim, dg, dwp, opt.t1)
                    rows.append((n, magnitude * weight_g, magnitude * weight_wp, formula.value, numeric.value))
        return rows
    if scenario == "dephasing_scan":
        sched = conjugate_schedule(optimal_settings(params).t1, 0.0)
        return [
            (n, x, qfi_general(probe_and_gen(n)[1], dephase_ancilla(ancilla_state(math.pi / 2), x), params, sched).value)
            for n in grids["n_values"]
            for x in grids["x_values"]
        ]
    if scenario == "xz_scaling":
        rows = []
        for ratio in grids["ratios"]:
            model = ModelParams(omega_p=1.0 / ratio, omega_a=1.0 / ratio, g=1.0, kind="xz")
            t1 = optimal_settings(model).t1
            for n in grids["n_values"]:
                dim = EnsembleDim(n)
                probe = polarized_probe(dim, optimal_generator(model, dim))
                fq = qfi_general(probe, ancilla_state(math.pi / 2), model, conjugate_schedule(t1, 0.0))
                rows.append((n, ratio, t1 * model.g, fq.value))
        return rows
    if scenario == "qfi_scaling":
        opt = optimal_settings(params)
        rows = []
        for n in grids["n_values"]:
            dim, _, gen = probe_and_gen(n)
            thermal = thermal_probe(dim, gen, grids["beta"])
            rows += [
                (n, "A", fq(n, opt.theta0, opt.t1)),
                (n, "B", fq(n, opt.theta0, 1.5 * opt.t1)),
                (n, "C", fq(n, opt.theta0 / 4, opt.t1)),
                (n, "D", fq(n, opt.theta0, opt.t1, thermal)),
            ]
            exact, large_n = qfi_thermal(dim, grids["beta"])
            rows += [(n, "D_exact", exact.value), (n, "D_largeN", large_n.value)]
        return rows
    theta0s = np.linspace(0.0, math.pi, grids.get("theta0_points", 1))
    gt1s = np.linspace(0.0, grids.get("gt1_max", math.pi), grids.get("gt1_points", 1))
    if scenario == "qfi_theta0":
        t1 = optimal_settings(ZZ).t1
        return [(n, th, fq(n, th, t1)) for n in grids["n_values"] for th in theta0s]
    if scenario == "qfi_t1":
        return [(n, gt1, fq(n, math.pi / 2, gt1)) for n in grids["n_values"] for gt1 in gt1s]
    n = grids["n"]
    if scenario == "qfi_heatmap":
        return [(th, gt1, fq(n, th, gt1) / n**2) for th in theta0s for gt1 in gt1s]
    _, probe, gen = probe_and_gen(n)
    gt1s = np.linspace(0.0, grids["gt_max"], grids["gt1_points"])
    gt2s = np.linspace(0.0, grids["gt_max"], grids["gt2_points"])
    return [
        (gt1, gt2, cfi(probe, ancilla_state(math.pi / 2), params, Schedule(gt1, gt2, 0.0, "period"), gen).value / n**2)
        for gt1 in gt1s
        for gt2 in gt2s
    ]


_GRID_RUNNER_CASES = [
    ("qfi_theta0", {"n_values": [2, 5], "theta0_points": 3}, "exact_conjugate", ZZ),
    ("qfi_t1", {"n_values": [3, 4], "gt1_points": 5, "gt1_max": 7.0}, "exact_conjugate", ZZ),
    ("qfi_t1", {"n_values": [3, 4], "gt1_points": 5, "gt1_max": 7.0}, "period", ZZ),
    ("qfi_heatmap", {"n": 3, "theta0_points": 3, "gt1_points": 5}, "exact_conjugate", ZZ),
    ("cfi_map", {"n": 3, "gt1_points": 3, "gt2_points": 5, "gt_max": 6.0}, "exact_conjugate", ZZ),
    ("qfi_scaling", {"n_values": [2, 5, 3], "beta": 0.7}, "exact_conjugate", ZZ),
    ("qfi_scaling", {"n_values": [2, 5, 3], "beta": 0.7}, "period", ZZ),
    ("qfi_scaling", {"n_values": [2, 5, 3], "beta": 0.7}, "exact_conjugate", STRONG_XZ),
    # unsorted and repeated sizes on the kernel's size axis
    ("deviation_scan", {"n_values": [5, 2, 5], "deltas": [0.01, -0.02]}, "exact_conjugate", ZZ),
    ("dephasing_scan", {"n_values": [3, 2, 3], "x_values": [0.0, 0.5, 1.0]}, "exact_conjugate", STRONG_XZ),
    ("xz_scaling", {"n_values": [30, 2, 7, 2], "ratios": [1.0, 0.1]}, "exact_conjugate", STRONG_XZ),
]


@pytest.mark.parametrize(
    "scenario, grids, mode, params",
    _GRID_RUNNER_CASES,
    ids=[
        f"{scenario}-grids{i}-{mode}" + ("" if params == ZZ else "-strong_xz")
        for i, (scenario, _, mode, params) in enumerate(_GRID_RUNNER_CASES)
    ],
)
def test_grid_runners_match_a_per_cell_loop_in_grid_order(tmp_path, scenario, grids, mode, params):
    # non-square grids: a transposed or reordered axis changes the rows
    run_scenario(make_config(scenario, tmp_path, grids, params=params, mode=mode))
    _, rows = read_rows(tmp_path / f"{scenario}.csv")
    expected = [
        [f"{v:.12g}" if isinstance(v, float) else str(v) for v in row]
        for row in per_cell_rows(scenario, grids, mode, params)
    ]
    assert rows == expected


# (scenario, mode, params, sizes per call of the F_Q kernel) at
# the default grids: a sweep over N is one call per model, with N = 2..20
# (2..100 for XZ; 4 and 20 for dephasing and deviation) on its size axis;
# the scaling figure's thermal point D keeps one call per size, as its kept
# levels change with N
_KERNEL_CALL_CASES = [
    ("qfi_theta0", "exact_conjugate", ZZ, [19]),
    ("qfi_t1", "exact_conjugate", ZZ, [19]),
    ("qfi_t1", "period", ZZ, [19]),
    ("dephasing_scan", "exact_conjugate", ZZ, [2]),
    ("xz_scaling", "exact_conjugate", STRONG_XZ, [99] * 3),
    ("deviation_scan", "exact_conjugate", ZZ, [2] * 9),
    ("qfi_scaling", "period", ZZ, [19] + [1] * 19),
]


@pytest.mark.parametrize(
    "scenario, mode, params, calls", _KERNEL_CALL_CASES, ids=[f"{case[0]}-{case[1]}" for case in _KERNEL_CALL_CASES]
)
def test_size_sweeps_make_one_kernel_call_per_model(monkeypatch, tmp_path, scenario, mode, params, calls):
    # each call of the kernel makes one propagator call for all of its sizes
    kernel, propagator = echometry.fisher._qfi_cells, echometry.fisher.propagator
    sizes, propagated = [], []
    monkeypatch.setattr(echometry.fisher, "_qfi_cells", lambda *args: sizes.append(args[3].size) or kernel(*args))
    monkeypatch.setattr(echometry.fisher, "propagator", lambda *args: propagated.append(1) or propagator(*args))
    run_scenario(make_config(scenario, tmp_path, params=params, mode=mode))
    assert sizes == calls
    assert len(propagated) == len(calls)


def test_summary_file_is_flat_key_value(tmp_path):
    run_scenario(make_config("trace_scan", tmp_path, {"n": 2, "points": 16}))
    text = (tmp_path / "trace_scan_summary.txt").read_text()
    assert all("=" in line for line in text.strip().splitlines())


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(ContractViolation):
        run_scenario(make_config("qfi_everything", tmp_path))


@pytest.mark.parametrize(
    "scenario, grids, key",
    [
        ("qfi_theta0", {"n_values": [3], "theta0_point": 5}, "theta0_point"),
        ("qfi_theta0", {"n_values": [3], "theta0_points": 0}, "theta0_points"),
        ("qfi_theta0", {"n_values": [3, 0]}, "n_values"),
        ("qfi_theta0", {"n_values": []}, "n_values"),
        ("qfi_theta0", {"n_values": [3], "theta0_points": 2.5}, "theta0_points"),
        ("qfi_theta0", {"n_values": (4.7,)}, "n_values"),
        ("qfi_theta0", {"n_values": [3], "theta0_points": float("inf")}, "theta0_points"),
        # the deviation law N^2 - N(N-1) m^2 of a unit pattern stays positive only for |m| <= 1
        ("deviation_scan", {"n_values": [4], "deltas": [0.01, 1.5]}, "'deltas' values must be in"),
        ("deviation_scan", {"n_values": [4], "deltas": [-1.0000001]}, "'deltas' values must be in"),
    ],
    # the ids of the (grids, key) cases, kept as they were before the scenario column
    ids=[
        "grids0-theta0_point", "grids1-theta0_points", "grids2-n_values", "grids3-n_values",
        "grids4-theta0_points", "grids5-n_values", "grids6-theta0_points", "grids7-deltas", "grids8-deltas",
    ],
)
def test_bad_grid_rejected(tmp_path, scenario, grids, key):
    with pytest.raises(ContractViolation, match=key):
        run_scenario(make_config(scenario, tmp_path, grids))
    assert not (tmp_path / f"{scenario}.csv").exists()


def test_deltas_at_the_domain_edge_run(tmp_path):
    # the law is positive there, though far outside its small-deviation range
    with pytest.warns(UserWarning, match="small-deviation expansion"):
        summary = run_scenario(make_config("deviation_scan", tmp_path, {"n_values": [4], "deltas": [-1.0, 1.0]}))
    assert summary["rows"] == 2 * 3


# ---------------------------------------------------------------------------
# randomized validation


def test_run_validation_passes():
    report = run_validation(instances=50, seed=12)
    assert report["passed"]
    assert report["max_rel_diff"] <= 1e-8
    assert report["crb_violations"] == 0
    assert report["bound_violations"] == 0


def test_validation_solves_one_frame_per_probe_size(monkeypatch, clear_frames):
    # validate reads its probes out a size at a time, so the readout's one
    # kept J_x frame serves every probe of a size: the 200 probes of seed 7
    # come in 19 sizes and solve 19 frames, one per size
    solved = []
    recurrence_frame = echometry.spin._recurrence_frame

    def counted(dim, nz, r):
        solved.append(dim.n_spins)
        return recurrence_frame(dim, nz, r)

    monkeypatch.setattr(echometry.spin, "_recurrence_frame", counted)
    assert run_validation(200, 7)["passed"]
    assert sorted(solved) == list(range(2, 21))


def validation_one_by_one(instances, seed):
    """run_validation's report from one dense reference call per instance, drawn and checked in turn."""
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    crb_violations = 0
    bound_violations = 0
    for _ in range(instances):
        n = int(rng.integers(2, 21))
        dim = EnsembleDim(n)
        kind = "zz" if rng.random() < 0.5 else "xz"
        params = ModelParams(
            omega_p=float(rng.uniform(0.5, 5.0)),
            omega_a=float(rng.uniform(0.5, 5.0)),
            g=1.0,
            kind=kind,
        )
        rank = int(rng.integers(1, 4))
        raw = rng.normal(size=(dim.dim, rank)) + 1j * rng.normal(size=(dim.dim, rank))
        vectors, _ = np.linalg.qr(raw)
        weights = rng.random(rank) + 0.2
        weights /= weights.sum()
        probe = SpectralProbe(dim=dim, weights=weights, vectors=vectors)
        anc = ancilla_state(float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2 * math.pi)))
        t1 = float(rng.uniform(1e-3, math.pi)) / params.g
        sched = conjugate_schedule(t1, theta=0.0)

        general = qfi_general(probe, anc, params, sched).value
        derivatives = output_state_derivatives(probe, anc, params, sched, (0.2, 1.0))
        oracles = [qfi_sld_oracle(rho, drho).value for rho, drho in derivatives]
        for oracle in oracles:
            rel = abs(general - oracle) / max(abs(general), abs(oracle), 1e-9)
            max_rel = max(max_rel, rel)
        classical = cfi(probe, anc, params, sched, theta_eval=0.2).value
        if classical > oracles[0] + 1e-8:
            crb_violations += 1
        if max(general, classical) > n * n + 1e-6:
            bound_violations += 1
    return {
        "instances": instances,
        "seed": seed,
        "max_rel_diff": max_rel,
        "crb_violations": crb_violations,
        "bound_violations": bound_violations,
        "passed": max_rel <= 1e-8 and crb_violations == 0 and bound_violations == 0,
    }


@pytest.mark.parametrize(
    "seed, instances, block, entries", [(7, 40, 256, 4096), (977, 30, 7, 1), (1, 40, 256, 10**6)]
)
def test_run_validation_reports_what_one_instance_at_a_time_reports(monkeypatch, seed, instances, block, entries):
    # the stacked reference, in one block or several, in stacks of one, of a
    # bounded size or of a whole probe size, gives the exact report of one
    # dense reference call per instance in draw order
    monkeypatch.setattr(echometry.experiments, "_VALIDATION_BLOCK", block)
    monkeypatch.setattr(echometry.experiments, "_STACK_ENTRIES", entries)
    assert run_validation(instances=instances, seed=seed) == validation_one_by_one(instances, seed)
