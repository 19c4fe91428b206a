"""Scenario runner: deterministic CSV sweeps over the protocol's figures.

Each scenario evaluates a fixed grid and writes one CSV plus a key=value
summary file.  :data:`SCENARIOS` holds each scenario's grid keys, whose
defaults are the parameter ranges behind the reference curves (trace scans,
information versus ancilla angle / step time / probe size, the readout map,
XZ scaling, control deviations, and dephasing) and are fully overridable.
Runs are pure and reseeded, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .circuit import (
    PERIOD_RESIDUAL_TOL,
    ModelParams,
    conjugate_schedule,
    normalized_trace,
    optimal_generator,
    optimal_settings,
    reversal_period,
)
from .fisher import (
    cfi,
    cfi_grid,
    qfi_deviation,
    qfi_general,
    qfi_grid,
    qfi_thermal,
)
from .reference import output_state_derivatives, qfi_sld_oracle
from .spin import ContractViolation, EnsembleDim
from .states import SpectralProbe, ancilla_state, dephase_ancilla, polarized_probe, thermal_probe

__all__ = [
    "SweepConfig",
    "FitResult",
    "Scenario",
    "SCENARIOS",
    "fit_quadratic",
    "run_scenario",
    "run_validation",
]


@dataclass
class SweepConfig:
    """One scenario run: name, model parameters, grids, and output directory.

    ``grids`` sets any of the scenario's grid keys (see :data:`SCENARIOS`);
    the rest keep their defaults.  Construction resolves it into the full,
    coerced grid in the table's key order (see :func:`_resolve_grids`).
    ``mode`` must be one the scenario reads.
    """

    scenario: str
    params: ModelParams
    out_dir: str = "results"
    mode: str = "exact_conjugate"
    grids: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.grids = _resolve_grids(self.scenario, self.grids)
        spec = SCENARIOS[self.scenario]
        if self.mode not in spec.modes:
            accepted = " or ".join(repr(mode) for mode in spec.modes)
            raise ContractViolation(
                f"scenario {self.scenario} accepts mode {accepted}, got {self.mode!r}"
            )
        if spec.needs_g and self.params.g <= 0.0:
            raise ContractViolation(
                f"scenario {self.scenario} {spec.needs_g} and needs g > 0, got g = {self.params.g!r}"
            )
        if self.params.kind not in spec.kinds:
            raise ContractViolation(
                f"scenario {self.scenario} checks a law of interaction {' or '.join(spec.kinds)} only, "
                f"got {self.params.kind!r}"
            )
        if spec.thermal and optimal_settings(self.params).status != "optimal":
            raise ContractViolation(
                f"scenario {self.scenario} builds a thermal probe, which needs the unit generator of "
                f"the XZ optimum (g >= |wp|), got g = {self.params.g!r}, wp = {self.params.omega_p!r}"
            )


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of F = a N^2 + b N (no constant term)."""

    a: float
    b: float
    residual_rms: float


def fit_quadratic(points) -> FitResult:
    """Fit F = a N^2 + b N to (N, F) pairs by least squares.

    Solved by a two-column modified Gram-Schmidt QR in elementwise numpy, so
    the result does not depend on the BLAS library or its thread count.
    """
    pts = [(float(n), float(f)) for n, f in points]
    ns = np.array([p[0] for p in pts])
    fs = np.array([p[1] for p in pts])
    if np.unique(ns).size < 3:
        raise ContractViolation("quadratic fit needs at least three distinct sizes")
    x1, x2 = ns * ns, ns
    r11 = math.sqrt(np.sum(x1 * x1))
    q1 = x1 / r11
    r12 = np.sum(q1 * x2)
    v = x2 - r12 * q1
    r22 = math.sqrt(np.sum(v * v))
    if r22 <= 1e-12 * r11:
        raise ContractViolation("quadratic fit design matrix is rank deficient")
    b = np.sum(v / r22 * fs) / r22
    a = (np.sum(q1 * fs) - r12 * b) / r11
    resid = fs - (a * x1 + b * x2)
    return FitResult(a=float(a), b=float(b), residual_rms=float(np.sqrt(np.mean(resid**2))))


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ";".join(_fmt(item) for item in value)
    if isinstance(value, (float, np.floating)):
        return f"{value:.12g}"
    return str(value)


def _argmax_row(rows: list[tuple], col: int) -> tuple:
    """First row in grid order whose value in ``col`` equals the maximum as written.

    Ties are decided at the CSV's 12 significant digits, so values that
    differ only by rounding noise cannot move the reported argmax.
    """
    best = _fmt(max(r[col] for r in rows))
    return next(r for r in rows if _fmt(r[col]) == best)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, entries: dict) -> None:
    lines = [f"{key}={_fmt(value)}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n")


# Every period-mode F_Q sweep asks for the period of each N it visits:
# `qfi-sweep --mode period` makes 58 lookups for 19 distinct (params, N), so
# the cache saves 39 solves of about 0.2-0.4 ms each.
@lru_cache(maxsize=None)
def _period_for(params: ModelParams, n_spins: int) -> float:
    window = 64.0 * math.pi / params.g
    return reversal_period(params, EnsembleDim(n_spins), t_max=window).period


def _step_times(params: ModelParams, dim: EnsembleDim, t1s, mode: str) -> np.ndarray:
    """First-step durations of the reversal schedules at step times t1s.

    F_Q reads only the first step, so a period-mode schedule (second leg
    T - t1 for a found period T) enters as t1 mod T.
    """
    t1s = np.asarray(t1s, dtype=float)
    if mode == "exact_conjugate":
        return t1s
    return t1s % _period_for(params, dim.n_spins)


def _optimal_probe(params: ModelParams, dim: EnsembleDim) -> SpectralProbe:
    return polarized_probe(dim, optimal_generator(params, dim))


def _qfi_sweep(params: ModelParams, mode: str, n_values, ancillas, t1s) -> np.ndarray:
    """F_Q of the optimal polarized probe, shape (n, ancilla, time), at step times t1s."""
    sweep = []
    for n in n_values:
        dim = EnsembleDim(n)
        steps = _step_times(params, dim, t1s, mode)
        sweep.append(qfi_grid(_optimal_probe(params, dim), ancillas, params, steps))
    return np.stack(sweep)


def _grid_rows(axes, values) -> list[tuple]:
    """Rows (*cell, value) over the product of the axes, in row-major order of ``values``."""
    return [(*cell, value) for cell, value in zip(itertools.product(*axes), np.ravel(values))]


# ---------------------------------------------------------------------------
# scenario runners


def _run_trace_scan(cfg: SweepConfig):
    n, points, gt_max = cfg.grids["n"], cfg.grids["points"], cfg.grids["gt_max"]
    dim = EnsembleDim(n)
    gts = gt_max * np.arange(1, points + 1) / points
    f = normalized_trace(cfg.params, dim, gts / cfg.params.g)
    rows = list(zip(gts, f))
    summary = {"max_trace": float(f.max()), "unit_trace_gt": tuple(gts[f >= 1.0 - PERIOD_RESIDUAL_TOL])}
    return ["gT", "F"], rows, summary


def _run_qfi_theta0(cfg: SweepConfig):
    n_values = cfg.grids["n_values"]
    theta0s = np.linspace(0.0, math.pi, cfg.grids["theta0_points"])
    ancillas = [ancilla_state(theta0) for theta0 in theta0s]
    fq = _qfi_sweep(cfg.params, cfg.mode, n_values, ancillas, [optimal_settings(cfg.params).t1])
    rows = _grid_rows((n_values, theta0s), fq)
    return ["N", "theta0", "FQ"], rows, {"max_FQ": max(r[2] for r in rows)}


def _run_qfi_t1(cfg: SweepConfig):
    n_values = cfg.grids["n_values"]
    gt1s = np.linspace(0.0, cfg.grids["gt1_max"], cfg.grids["gt1_points"])
    fq = _qfi_sweep(cfg.params, cfg.mode, n_values, [ancilla_state(math.pi / 2)], gt1s / cfg.params.g)
    rows = _grid_rows((n_values, gt1s), fq)
    return ["N", "gt1", "FQ"], rows, {"max_FQ": max(r[2] for r in rows)}


def _run_qfi_heatmap(cfg: SweepConfig):
    n = cfg.grids["n"]
    theta0s = np.linspace(0.0, math.pi, cfg.grids["theta0_points"])
    gt1s = np.linspace(0.0, cfg.grids["gt1_max"], cfg.grids["gt1_points"])
    ancillas = [ancilla_state(theta0) for theta0 in theta0s]
    fq = _qfi_sweep(cfg.params, cfg.mode, [n], ancillas, gt1s / cfg.params.g)
    rows = _grid_rows((theta0s, gt1s), fq / n**2)
    best = _argmax_row(rows, 2)
    summary = {
        "max_FQ_over_N2": best[2],
        "argmax_theta0": best[0],
        "argmax_gt1": best[1],
    }
    return ["theta0", "gt1", "FQ_over_N2"], rows, summary


# Working points of the information-versus-size scenario, from the optimum
# (theta0, t1): A is the optimum, B detunes the step time to 1.5 t1, C the
# ancilla angle to theta0 / 4, and D is the thermal probe at the optimum
# (numeric, exact sum, and large-N approximation).
_SCALING_LABELS = ("A", "B", "C", "D", "D_exact", "D_largeN")


def _run_qfi_scaling(cfg: SweepConfig):
    n_values, beta = cfg.grids["n_values"], cfg.grids["beta"]
    settings = optimal_settings(cfg.params)
    ancillas = [ancilla_state(settings.theta0), ancilla_state(settings.theta0 / 4)]
    rows = []
    for n in n_values:
        dim = EnsembleDim(n)
        gen = optimal_generator(cfg.params, dim)
        steps = _step_times(cfg.params, dim, [settings.t1, 1.5 * settings.t1], cfg.mode)
        (a, b), (c, _) = qfi_grid(polarized_probe(dim, gen), ancillas, cfg.params, steps)
        d = qfi_grid(thermal_probe(dim, gen, beta), ancillas[:1], cfg.params, steps[:1])[0, 0]
        exact, large_n = qfi_thermal(dim, beta)
        rows += [(n, label, f) for label, f in zip(_SCALING_LABELS, (a, b, c, d, exact.value, large_n.value))]
    summary = {
        "labels": _SCALING_LABELS,
        "max_A_deviation": max(abs(f / n**2 - 1.0) for n, label, f in rows if label == "A"),
    }
    return ["N", "point_label", "FQ"], rows, summary


def _run_cfi_map(cfg: SweepConfig):
    n, gt_max, theta_eval = cfg.grids["n"], cfg.grids["gt_max"], cfg.grids["theta_eval"]
    dim = EnsembleDim(n)
    gt1s = np.linspace(0.0, gt_max, cfg.grids["gt1_points"])
    gt2s = np.linspace(0.0, gt_max, cfg.grids["gt2_points"])
    gen = optimal_generator(cfg.params, dim)
    probe = polarized_probe(dim, gen)
    anc = ancilla_state(math.pi / 2)
    t1s, t2s = gt1s[:, None] / cfg.params.g, gt2s / cfg.params.g
    fc = cfi_grid(probe, anc, cfg.params, t1s, t2s, "period", generator=gen, theta_eval=theta_eval)
    rows = _grid_rows((gt1s, gt2s), fc / n**2)
    best = _argmax_row(rows, 2)
    summary = {
        "max_Fc_over_N2": best[2],
        "argmax_gt1": best[0],
        "argmax_gt2": best[1],
    }
    return ["gt1", "gt2", "Fc_over_N2"], rows, summary


def _run_xz_scaling(cfg: SweepConfig):
    n_values, ratios = cfg.grids["n_values"], cfg.grids["ratios"]
    anc = ancilla_state(math.pi / 2)
    rows = []
    fits = {}
    for ratio in ratios:
        params = ModelParams(omega_p=1.0 / ratio, omega_a=1.0 / ratio, g=1.0, kind="xz")
        t1 = optimal_settings(params).t1
        fq = _qfi_sweep(params, "exact_conjugate", n_values, [anc], [t1])
        rows.extend(_grid_rows((n_values, [ratio], [t1 * params.g]), fq))
        fit_pts = [(n, f) for n, r, _, f in rows if r == ratio and n >= 10]
        if len({n for n, _ in fit_pts}) >= 3:
            fits[ratio] = fit_quadratic(fit_pts)
    summary = {}
    for ratio, fit in fits.items():
        key = _fmt(ratio)
        summary[f"fit_a_{key}"] = fit.a
        summary[f"fit_b_{key}"] = fit.b
        summary[f"fit_residual_rms_{key}"] = fit.residual_rms
    return ["N", "g_over_wp", "gt1", "FQ"], rows, summary


# Deviation patterns: coupling only, probe frequency only, and both sharing
# the magnitude; (dg, dwp) in units of the scanned magnitude.
_DEVIATION_PATTERNS = ((1.0, 0.0), (0.0, 1.0), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))


def _run_deviation_scan(cfg: SweepConfig):
    n_values, deltas = cfg.grids["n_values"], cfg.grids["deltas"]
    anc = ancilla_state(math.pi / 2)
    settings = optimal_settings(cfg.params)
    rows = []
    worst = 0.0
    for n in n_values:
        dim = EnsembleDim(n)
        probe = _optimal_probe(cfg.params, dim)
        for magnitude in deltas:
            for weight_g, weight_wp in _DEVIATION_PATTERNS:
                dg_t1 = magnitude * weight_g
                dwp_t1 = magnitude * weight_wp
                dg = dg_t1 / settings.t1
                dwp = dwp_t1 / settings.t1
                formula = qfi_deviation(dim, dg, dwp, settings.t1).value
                perturbed = replace(cfg.params, omega_p=cfg.params.omega_p + dwp, g=cfg.params.g + dg)
                numeric = qfi_general(probe, anc, perturbed, conjugate_schedule(settings.t1, 0.0)).value
                worst = max(worst, abs(numeric - formula))
                rows.append((n, dg_t1, dwp_t1, formula, numeric))
    summary = {"patterns": len(_DEVIATION_PATTERNS), "max_abs_gap": worst}
    return ["N", "dg_t1", "dwp_t1", "FQ_formula", "FQ_numeric"], rows, summary


def _run_dephasing_scan(cfg: SweepConfig):
    n_values, x_values = cfg.grids["n_values"], cfg.grids["x_values"]
    ancillas = [dephase_ancilla(ancilla_state(math.pi / 2), x) for x in x_values]
    fq = _qfi_sweep(cfg.params, cfg.mode, n_values, ancillas, [optimal_settings(cfg.params).t1])
    rows = _grid_rows((n_values, x_values), fq)
    worst = max(abs(value - (1.0 - x) ** 2 * n**2) for n, x, value in rows)
    return ["N", "x", "FQ"], rows, {"max_abs_gap_to_law": worst}


@dataclass(frozen=True)
class Scenario:
    """A sweep: its runner, the CLI subcommand that runs it, and its grid keys.

    The type of a key's default (int, float, or a tuple of either) is the
    key's type; see :func:`_resolve_grids`.  Every run's summary lists the
    resolved grid keys in this order, and the runner adds only what it
    computes.  ``modes`` lists the reversal
    modes the runner reads from :attr:`SweepConfig.mode`; a runner that
    builds its own schedules accepts only the default.  ``needs_g`` says why
    a runner needs a positive coupling: its grid measures time in units of
    1/g, or it starts from the optimal settings.  ``thermal`` marks a runner
    that builds a thermal probe of the optimal generator, whose axis is a
    unit vector only for ZZ and for XZ at strong coupling.  ``kinds`` lists the
    interactions a runner accepts, the first being the CLI's default; the
    deviation scan checks a ZZ-only law and the XZ scaling builds XZ models.
    """

    runner: Callable[[SweepConfig], tuple]
    command: str
    defaults: dict
    modes: tuple[str, ...] = ("exact_conjugate",)
    needs_g: str = ""
    thermal: bool = False
    kinds: tuple[str, ...] = ("zz", "xz")


_FIGURE_SIZES = tuple(range(2, 21))
# The F_Q sweeps map their step times with _step_times, which reads the mode.
_BOTH_MODES = ("exact_conjugate", "period")
_G_UNITS = "measures time in units of 1/g"
_OPTIMUM = "starts from the optimal settings"

SCENARIOS = {
    "trace_scan": Scenario(
        _run_trace_scan, "trace-scan", dict(n=4, points=2048, gt_max=4 * math.pi), needs_g=_G_UNITS
    ),
    "qfi_theta0": Scenario(
        _run_qfi_theta0,
        "qfi-sweep",
        dict(n_values=_FIGURE_SIZES, theta0_points=81),
        _BOTH_MODES,
        needs_g=_OPTIMUM,
    ),
    "qfi_t1": Scenario(
        _run_qfi_t1,
        "qfi-sweep",
        dict(n_values=_FIGURE_SIZES, gt1_points=81, gt1_max=math.pi),
        _BOTH_MODES,
        needs_g=_G_UNITS,
    ),
    "qfi_heatmap": Scenario(
        _run_qfi_heatmap,
        "qfi-sweep",
        dict(n=4, theta0_points=65, gt1_points=65, gt1_max=math.pi),
        _BOTH_MODES,
        needs_g=_G_UNITS,
    ),
    "qfi_scaling": Scenario(
        _run_qfi_scaling,
        "qfi-sweep",
        dict(n_values=_FIGURE_SIZES, beta=1.0),
        _BOTH_MODES,
        needs_g=_OPTIMUM,
        thermal=True,
    ),
    "cfi_map": Scenario(
        _run_cfi_map,
        "cfi-map",
        dict(n=5, gt1_points=65, gt2_points=65, gt_max=2 * math.pi, theta_eval=0.2),
        needs_g=_G_UNITS,
    ),
    # builds its own XZ models, one per coupling ratio
    "xz_scaling": Scenario(
        _run_xz_scaling,
        "xz-scaling",
        dict(n_values=tuple(range(2, 101)), ratios=(1.0, 0.3, 0.1)),
        kinds=("xz",),
    ),
    "deviation_scan": Scenario(
        _run_deviation_scan,
        "deviation",
        dict(n_values=(4, 20), deltas=(0.005, 0.01, 0.02)),
        needs_g=_OPTIMUM,
        kinds=("zz",),
    ),
    "dephasing_scan": Scenario(
        _run_dephasing_scan,
        "dephasing",
        dict(n_values=(4, 20), x_values=tuple(k / 10 for k in range(11))),
        needs_g=_OPTIMUM,
    ),
}


# Grid keys whose values must lie in a narrower range than their type allows.
_DOMAINS = {
    "ratios": (lambda v: v > 0.0, "positive"),
    "beta": (lambda v: v > 0.0, "positive"),
    "x_values": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
}


def _coerce(key: str, default, value):
    if isinstance(default, tuple):
        if isinstance(value, str):
            value = [item for item in value.split(",") if item.strip()]
        if not np.iterable(value):
            value = (value,)
        items = tuple(_coerce(key, default[0], item) for item in value)
        if not items:
            raise ContractViolation(f"{key!r} needs a nonempty list of values, got {value!r}")
        return items
    try:
        number = type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(f"bad value for {key!r}: {value!r} ({exc})") from exc
    if isinstance(number, int) and not isinstance(value, str) and number != value:
        raise ContractViolation(f"{key!r} must be a whole number, got {value!r}")
    if not math.isfinite(number) or (isinstance(number, int) and number < 1):
        rule = "at least 1" if isinstance(number, int) else "finite"
        raise ContractViolation(f"{key!r} must be {rule}, got {value!r}")
    if key in _DOMAINS and not _DOMAINS[key][0](number):
        raise ContractViolation(f"{key!r} values must be {_DOMAINS[key][1]}, got {value!r}")
    return number


def _resolve_grids(scenario: str, grids: dict) -> dict:
    """A scenario's full grid: ``grids`` merged over its defaults and coerced.

    Each value takes its default's type: an int at least 1 (a number must be
    whole), a finite float, or a nonempty tuple of either (from text,
    comma-separated; a scalar is a one-element tuple).  ``ratios`` and
    ``beta`` must be positive and ``x_values`` in [0, 1].  Raises
    :class:`ContractViolation` for an unknown scenario, a key the scenario
    does not read, or a bad value.
    """
    if scenario not in SCENARIOS:
        raise ContractViolation(f"unknown scenario {scenario!r}")
    defaults = SCENARIOS[scenario].defaults
    unknown = sorted(set(grids) - set(defaults))
    if unknown:
        raise ContractViolation(f"unknown config key(s) for {scenario}: {', '.join(unknown)}")
    return {
        key: _coerce(key, default, grids.get(key, default)) for key, default in defaults.items()
    }


def run_scenario(cfg: SweepConfig) -> dict:
    """Run one scenario, write its CSV and summary, and return the summary.

    The summary holds the scenario name, its resolved grid (a tuple is
    written as ``;``-joined values), the values the runner computed, the row
    count, the model parameters, the mode and the CSV's name, in that order.
    """
    header, rows, computed = SCENARIOS[cfg.scenario].runner(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{cfg.scenario}.csv"
    _write_csv(csv_path, header, rows)
    summary = {
        "scenario": cfg.scenario,
        **cfg.grids,
        **computed,
        "rows": len(rows),
        "wp": cfg.params.omega_p,
        "wa": cfg.params.omega_a,
        "g": cfg.params.g,
        "interaction": cfg.params.kind,
        "mode": cfg.mode,
        "csv": csv_path.name,
    }
    _write_summary(out / f"{cfg.scenario}_summary.txt", summary)
    return summary


def run_validation(instances: int = 200, seed: int = 7) -> dict:
    """Randomized cross-validation of the two independent information paths.

    Draws random probes (rank <= 3), ancilla angles, interactions, and step
    times; checks that the two-term evaluation agrees with the SLD oracle at
    two phase points and that the readout information at the first of them
    never exceeds the oracle's value there.
    """
    if instances < 1:
        raise ContractViolation(f"validation needs at least one instance, got {instances!r}")
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
