"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them inline);
tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from echometry.circuit import (
    ModelParams,
    Schedule,
    conjugate_schedule,
    normalized_trace,
    optimal_generator,
    optimal_settings,
    reversal_period,
)
from echometry.experiments import fit_quadratic, run_validation
from echometry.fisher import (
    DeviationSpec,
    cfi,
    qfi_deviation,
    qfi_general,
    qfi_thermal,
)
from echometry.spin import EnsembleDim
from echometry.states import ancilla_state, dephase_ancilla, polarized_probe, thermal_probe
from echometry.reference import (
    bch_coefficients,
    circuit_unitary,
    closed_form_unitary,
    global_phase_distance,
    output_state_derivative,
    qfi_sld_oracle,
)

ZZ = ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def optimal_probe_setup(n, params=ZZ):
    dim = EnsembleDim(n)
    settings = optimal_settings(params)
    probe = polarized_probe(dim, optimal_generator(params, dim))
    anc = ancilla_state(settings.theta0)
    sched = conjugate_schedule(settings.t1, theta=0.2)
    return dim, probe, anc, sched


def test_c01_heisenberg_peak():
    worst = 0.0
    for n in (2, 4, 10, 50, 100):
        _, probe, anc, sched = optimal_probe_setup(n)
        value = qfi_general(probe, anc, ZZ, sched).value
        worst = max(worst, abs(value - n * n) / (n * n))
    report("C1 heisenberg-peak", worst <= 1e-8, f"max rel err {worst:.2e}")


def test_c02_period_conditions():
    f_even = normalized_trace(ZZ, EnsembleDim(4), math.pi)
    f_odd = normalized_trace(ZZ, EnsembleDim(11), 2 * math.pi)
    f_broken = normalized_trace(ZZ, EnsembleDim(5), math.pi)
    sol_even = reversal_period(ZZ, EnsembleDim(4), 10.0)
    sol_odd = reversal_period(ZZ, EnsembleDim(11), 10.0)
    ok = (
        abs(f_even - 1.0) <= 1e-9
        and abs(f_odd - 1.0) <= 1e-9
        and abs(f_broken) <= 1e-9
        and sol_even.integers == {"n1": 1, "n2": 1, "n3": 3}
        and sol_odd.integers == {"n1": 2, "n2": 2, "n4": 5}
    )
    report(
        "C2 period-conditions",
        ok,
        f"F4={f_even:.12f} F11={f_odd:.12f} F5={f_broken:.2e} "
        f"ints {sol_even.integers} {sol_odd.integers}",
    )


def test_c03_thermal_qfi():
    exact_100, large_100 = qfi_thermal(EnsembleDim(100), 1.0)
    gap_large = abs(exact_100.value - large_100.value) / exact_100.value

    n, beta = 20, 1.0
    dim = EnsembleDim(n)
    probe = thermal_probe(dim, optimal_generator(ZZ, dim), beta)
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.2)
    general = qfi_general(probe, ancilla_state(math.pi / 2), ZZ, sched).value
    exact_20, _ = qfi_thermal(dim, beta)
    gap_general = abs(general - exact_20.value) / exact_20.value
    ok = gap_large <= 1e-6 and gap_general <= 1e-8
    report("C3 thermal-qfi", ok, f"largeN gap {gap_large:.2e}, general gap {gap_general:.2e}")


def test_c04_cfi_saturation():
    gaps = []
    for n, probe_kind in ((5, "polarized"), (20, "thermal")):
        dim = EnsembleDim(n)
        gen = optimal_generator(ZZ, dim)
        probe = polarized_probe(dim, gen) if probe_kind == "polarized" else thermal_probe(dim, gen, 1.0)
        sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.2)
        anc = ancilla_state(math.pi / 2)
        quantum = qfi_general(probe, anc, ZZ, sched).value
        classical = cfi(probe, anc, ZZ, sched, generator=gen, theta_eval=0.2).value
        gaps.append(abs(classical - quantum) / quantum)

    n = 5
    dim = EnsembleDim(n)
    gen = optimal_generator(ZZ, dim)
    quarter = Schedule(t1=math.pi / 2, t2=math.pi / 2, theta=0.0, mode="period")
    f_quarter = cfi(
        polarized_probe(dim, gen), ancilla_state(math.pi / 2), ZZ, quarter, generator=gen,
        theta_eval=0.2,
    ).value
    ok = max(gaps) <= 1e-8 and abs(f_quarter - 25.0) <= 1e-8 * 25.0
    report("C4 cfi-saturation", ok, f"max gap {max(gaps):.2e}, quarter-period Fc {f_quarter:.9f}")


def test_c05_deviation_law():
    # deviation magnitude v split over (dg, dwp) patterns; remainder bound
    # 1e-6 + 10 v^3 with v the euclidean magnitude of (dg t1, dwp t1)
    t1 = optimal_settings(ZZ).t1
    anc = ancilla_state(math.pi / 2)
    worst_margin = -np.inf
    for n in (4, 20):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(ZZ, dim))
        for v in (0.005, 0.01, 0.02):
            for wg, wp in ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2))):
                spec = DeviationSpec(delta_g=v * wg / t1, delta_omega_p=v * wp / t1)
                perturbed = ModelParams(
                    ZZ.omega_p + spec.delta_omega_p, ZZ.omega_a, ZZ.g + spec.delta_g
                )
                numeric = qfi_general(probe, anc, perturbed, conjugate_schedule(t1, 0.2)).value
                formula = qfi_deviation(dim, spec, t1).value
                margin = abs(numeric - formula) - (1e-6 + 10.0 * v**3)
                worst_margin = max(worst_margin, margin)
    report("C5 deviation-law", worst_margin <= 0.0, f"worst margin {worst_margin:.2e}")


def test_c06_dephasing_law():
    worst_law = 0.0
    worst_oracle = 0.0
    sched = conjugate_schedule(optimal_settings(ZZ).t1, theta=0.2)
    for n in (4, 20):
        dim = EnsembleDim(n)
        gen = optimal_generator(ZZ, dim)
        probe = polarized_probe(dim, gen)
        for x in (0.0, 0.1, 0.5, 0.9):
            anc = dephase_ancilla(ancilla_state(math.pi / 2), x)
            value = qfi_general(probe, anc, ZZ, sched).value
            worst_law = max(worst_law, abs(value - (1.0 - x) ** 2 * n * n))
            rho, drho = output_state_derivative(probe, anc, ZZ, sched)
            oracle = qfi_sld_oracle(rho, drho).value
            worst_oracle = max(worst_oracle, abs(value - oracle) / max(1.0, oracle))
    ok = worst_law <= 1e-10 and worst_oracle <= 1e-8
    report("C6 dephasing-law", ok, f"law gap {worst_law:.2e}, oracle gap {worst_oracle:.2e}")


def test_c07_xz_scaling():
    strong = ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")
    settings = optimal_settings(strong)
    assert abs(settings.t1 * strong.g - math.pi / math.sqrt(2.0)) <= 1e-12
    anc = ancilla_state(math.pi / 2)
    worst = 0.0
    for n in range(2, 101):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(strong, dim))
        value = qfi_general(probe, anc, strong, conjugate_schedule(settings.t1, 0.2)).value
        worst = max(worst, abs(value - n * n) / (n * n))

    weak = ModelParams(omega_p=10.0, omega_a=10.0, g=1.0, kind="xz")
    weak_settings = optimal_settings(weak)
    assert weak_settings.status == "sub_optimal"
    assert abs(weak_settings.t1 * weak.g - math.pi / math.sqrt(101.0)) <= 1e-12
    points = []
    for n in range(10, 101, 10):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(weak, dim))
        points.append(
            (n, qfi_general(probe, anc, weak, conjugate_schedule(weak_settings.t1, 0.2)).value)
        )
    fit = fit_quadratic(points)
    ok = worst <= 1e-6 and 0.03 <= fit.a <= 0.05 and 0.91 <= fit.b <= 1.01
    report("C7 xz-scaling", ok, f"peak rel err {worst:.2e}, fit a={fit.a:.4f} b={fit.b:.4f}")


def test_c08_closed_form_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for kind in ("zz", "xz"):
        for _ in range(100):
            params = ModelParams(
                omega_p=float(rng.uniform(0.2, 5.0)),
                omega_a=float(rng.uniform(0.2, 5.0)),
                g=float(rng.uniform(0.2, 3.0)),
                kind=kind,
            )
            dim = EnsembleDim(int(rng.integers(1, 11)))
            sched = conjugate_schedule(
                t1=float(rng.uniform(0.0, 2 * math.pi)), theta=float(rng.uniform(-math.pi, math.pi))
            )
            dist = global_phase_distance(
                circuit_unitary(params, dim, sched), closed_form_unitary(params, dim, sched)
            )
            worst = max(worst, dist)
    report("C8 closed-form-equivalence", worst <= 1e-10, f"max distance {worst:.2e}")


def test_c09_oracle_equivalence():
    rep = run_validation(instances=200, seed=7)
    ok = rep["max_rel_diff"] <= 1e-8 and rep["crb_violations"] == 0
    report(
        "C9 oracle-equivalence",
        ok,
        f"{rep['instances']} instances, max rel diff {rep['max_rel_diff']:.2e}, "
        f"crb violations {rep['crb_violations']}",
    )


def test_c10_bch_identity_and_fit_consistency():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(
            omega_p=float(rng.uniform(0.05, 10.0)),
            omega_a=1.0,
            g=float(rng.uniform(0.05, 10.0)),
            kind="xz",
        )
        cx, cy, cz = bch_coefficients(params, float(rng.uniform(0.0, 20.0)))
        worst = max(worst, abs(cx * cx + cy * cy + cz * cz - 1.0))

    weak = ModelParams(omega_p=10.0, omega_a=10.0, g=1.0, kind="xz")
    settings = optimal_settings(weak)
    anc = ancilla_state(math.pi / 2)
    points = []
    for n in range(10, 101, 10):
        dim = EnsembleDim(n)
        probe = polarized_probe(dim, optimal_generator(weak, dim))
        points.append(
            (n, qfi_general(probe, anc, weak, conjugate_schedule(settings.t1, 0.2)).value)
        )
    fit = fit_quadratic(points)
    cx_expected = -2.0 * weak.g * weak.omega_p / weak.omega_tilde**2
    gap = abs(fit.a - cx_expected**2)
    ok = worst <= 1e-12 and gap <= 0.005
    report("C10 bch-identity", ok, f"norm dev {worst:.2e}, |a - cx^2| {gap:.2e}")


def test_c11_large_probe_peak_and_saturation():
    # F_Q = F_c = N^2 at N = 800, far beyond the SLD oracle's reach
    n = 800
    worst = 0.0
    for params in (ZZ, ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")):
        _, probe, anc, sched = optimal_probe_setup(n, params)
        gen = optimal_generator(params, probe.dim)
        quantum = qfi_general(probe, anc, params, sched).value
        classical = cfi(probe, anc, params, sched, generator=gen, theta_eval=0.2).value
        worst = max(worst, abs(quantum - n * n) / (n * n), abs(classical - n * n) / (n * n))
    report("C11 large-probe peak", worst <= 1e-8, f"N={n}, max rel err {worst:.2e}")
