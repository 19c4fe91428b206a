"""The benchmark's workloads: fixed item lists run through echometry's public API.

Each workload has a warm-up item, a pass over its item list (the timed unit,
with each item timed on its own) and a check of that pass's outputs against
the pinned values and tolerances of the acceptance gate.  Checks run outside
the timed and traced regions.

* ``figures``: every CLI scenario at its default grid through
  ``echometry.cli.main``, in process, into a scratch directory.  Thousands of
  small evaluations at N <= 20 (N <= 100 for XZ): per-call overhead, operator
  rebuilds and ``np.kron`` dominate.
* ``qfi_large_n``: ``qfi_general`` at the optimum for ZZ and XZ, polarized and
  thermal probes, at N = 500.  Dense ``eigh`` and matmul on 2(N+1) matrices
  dominate; per-call overhead is negligible.
* ``cfi_large_n``: ``cfi`` with full-system readout at N = 250, ZZ and XZ at
  the optimum plus a detuned ZZ step time.  Propagates the whole output state
  and projects it onto the readout basis.

A large-N warm-up item is the first item at ``N = WARMUP_N``: large enough to
take the BLAS library's first-call cost out of the pass (about 0.8 s at 2
threads), small enough that set-up time measures import and initialisation
rather than a full-size evaluation.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Called through the package namespace, never bound here, so the tracer's
# wrappers on the package bindings see every call the benchmark makes.
import echometry as em
from echometry import cli

ZZ = em.ModelParams(omega_p=3.0, omega_a=3.0, g=1.0, kind="zz")
XZ = em.ModelParams(omega_p=1.0, omega_a=1.0, g=1.0, kind="xz")
PARAMS = {"zz": ZZ, "xz": XZ}

# Relative tolerance of the acceptance gate for F_Q = N^2 and F_c = F_Q.
REL_TOL = 1e-8
WARMUP_N = 100


@dataclass
class Verdict:
    """Outcome of checking one pass: items attempted, items failed, why."""

    items: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    csv_bytes: int = 0

    def add(self, items: int, problems: list[str]) -> None:
        self.items += items
        if problems:
            self.failed += items
            self.failures.extend(problems)


@dataclass(frozen=True)
class Expect:
    """A summary value that must lie in [lo, hi]."""

    key: str
    lo: float
    hi: float

    def problem(self, summary: dict) -> str | None:
        raw = summary.get(self.key)
        try:
            value = float(raw)
        except (TypeError, ValueError):
            return f"{self.key}={raw!r} is not a number"
        if not self.lo <= value <= self.hi:
            return f"{self.key}={value!r} outside [{self.lo!r}, {self.hi!r}]"
        return None


def near(key: str, value: float, tol: float) -> Expect:
    return Expect(key, value - tol, value + tol)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the figure suite: its scenario's rows and pinned values."""

    argv: tuple[str, ...]
    scenario: str
    rows: int
    expects: tuple[Expect, ...]
    subdir: str = ""


PEAK_N20 = near("max_FQ", 400.0, 400.0 * REL_TOL)

# Default grids: N = 2..20 (19 sizes), 81 theta0 / t1 points, a 65 x 65
# heatmap and readout map, XZ at N = 2..100 for three ratios.  The four
# qfi-sweep scenarios run as separate invocations so each is timed on its own.
FIGURE_COMMANDS = (
    Command(("trace-scan",), "trace_scan", 2048, (near("max_trace", 1.0, 1e-9),)),
    Command(("qfi-sweep", "--scenario", "theta0"), "qfi_theta0", 19 * 81, (PEAK_N20,)),
    Command(("qfi-sweep", "--scenario", "t1"), "qfi_t1", 19 * 81, (PEAK_N20,)),
    Command(("qfi-sweep", "--scenario", "heatmap"), "qfi_heatmap", 65 * 65, (near("max_FQ_over_N2", 1.0, REL_TOL),)),
    Command(("qfi-sweep", "--scenario", "scaling"), "qfi_scaling", 19 * 6, (near("max_A_deviation", 0.0, REL_TOL),)),
    # The only figure that solves for reversal periods; F_Q does not depend on
    # the second leg, so the peak is unchanged.
    Command(("qfi-sweep", "--scenario", "t1", "--mode", "period"), "qfi_t1", 19 * 81, (PEAK_N20,), "period"),
    Command(("cfi-map",), "cfi_map", 65 * 65, (near("max_Fc_over_N2", 1.0, REL_TOL),)),
    Command(
        ("xz-scaling",),
        "xz_scaling",
        3 * 99,
        (near("fit_a_1", 1.0, 1e-6), Expect("fit_a_0.1", 0.03, 0.05), Expect("fit_b_0.1", 0.91, 1.01)),
    ),
    Command(("deviation",), "deviation_scan", 2 * 3 * 3, (Expect("max_abs_gap", 0.0, 1e-6 + 10.0 * 0.02**3),)),
    Command(("dephasing",), "dephasing_scan", 2 * 11, (Expect("max_abs_gap_to_law", 0.0, 1e-10),)),
)

VALIDATE_INSTANCES = 200
VALIDATE_EXPECT = (
    near("instances", VALIDATE_INSTANCES, 0.0),
    near("crb_violations", 0.0, 0.0),
    near("bound_violations", 0.0, 0.0),
    Expect("max_rel_diff", 0.0, REL_TOL),
)


def _parse_summary(text: str) -> dict:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {key.strip(): value.strip() for key, value in pairs}


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """Run ``echometry.cli.main`` with its stdout captured; None if it raised."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash counts against the command's items
            return None, f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Figures:
    """Every CLI scenario at its default grid, plus ``validate --seed``."""

    name = "figures"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / "figures"

    def _validate_argv(self, instances: int) -> list[str]:
        return ["validate", "--instances", str(instances), "--seed", str(self.seed)]

    def warmup(self) -> None:
        # One item: a single validation instance.
        _cli(self._validate_argv(1))

    def run(self):
        """((out dir, [(exit code, stdout)]), [seconds per command])."""
        timed = [_timed(_cli, [*c.argv, "--out", str(self.out / c.subdir)]) for c in FIGURE_COMMANDS]
        timed.append(_timed(_cli, self._validate_argv(VALIDATE_INSTANCES)))
        return (self.out, [r for r, _ in timed]), [s for _, s in timed]

    def check(self, outputs, expected=FIGURE_COMMANDS) -> Verdict:
        out, results = outputs
        verdict = Verdict()
        for (code, text), command in zip(results, (*expected, None)):
            if command is None:
                verdict.add(VALIDATE_INSTANCES, self._check_validate(code, text))
            else:
                verdict.add(command.rows, self._check_scenario(command, code, text, out / command.subdir))
        verdict.csv_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return verdict

    @staticmethod
    def _check_scenario(command: Command, code, text, target: Path) -> list[str]:
        where = " ".join(command.argv)
        if code != 0:
            return [f"{where}: exit {code}: {text.strip()[-200:]}"]
        try:
            summary = _parse_summary((target / f"{command.scenario}_summary.txt").read_text())
        except OSError as exc:
            return [f"{where}: no summary ({exc})"]
        problems = [p for p in (e.problem(summary) for e in command.expects) if p]
        if summary.get("rows") != str(command.rows):
            problems.append(f"rows={summary.get('rows')!r}, expected {command.rows}")
        return [f"{where}: {p}" for p in problems]

    @staticmethod
    def _check_validate(code, text) -> list[str]:
        if code != 0:
            return [f"validate: exit {code}: {text.strip()[-200:]}"]
        summary = _parse_summary(text)
        problems = [p for p in (e.problem(summary) for e in VALIDATE_EXPECT) if p]
        if summary.get("passed") != "True":
            problems.append(f"passed={summary.get('passed')!r}")
        return [f"validate: {p}" for p in problems]


class _LargeN:
    """Shared runner of the large-N workloads: one timed Fisher call per item."""

    name: str
    n: int
    cases: tuple

    def warmup(self) -> None:
        self._evaluate(self.cases[0], WARMUP_N)

    def _attempt(self, case):
        try:
            return self._evaluate(case, self.n)
        except Exception as exc:  # a raising item is a failed item
            return exc

    def run(self):
        """([(case, N, value or exception)], [seconds per item])."""
        timed = [_timed(self._attempt, case) for case in self.cases]
        return [(case, self.n, value) for case, (value, _) in zip(self.cases, timed)], [s for _, s in timed]

    def check(self, outputs) -> Verdict:
        verdict = Verdict()
        for case, n, value in outputs:
            where = f"{self.name} {'/'.join(case)} N={n}"
            if isinstance(value, Exception):
                verdict.add(1, [f"{where}: raised {type(value).__name__}: {value}"])
                continue
            problem = self._problem(case, n, value)
            verdict.add(1, [f"{where}: {problem}"] if problem else [])
        return verdict


class QfiLargeN(_LargeN):
    """``qfi_general`` at the optimal settings, polarized and thermal probes."""

    name = "qfi_large_n"
    n = 500
    beta = 1.0
    cases = (("zz", "polarized"), ("zz", "thermal"), ("xz", "polarized"), ("xz", "thermal"))

    def __init__(self, seed: int, workdir: Path) -> None:
        # F_Q does not depend on the encoded phase; the seed only picks it.
        self.theta = float(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi))

    def _evaluate(self, case, n: int) -> float:
        kind, probe_kind = case
        params = PARAMS[kind]
        dim = em.EnsembleDim(n)
        settings = em.optimal_settings(params)
        gen = em.optimal_generator(params, dim)
        if probe_kind == "polarized":
            probe = em.polarized_probe(dim, gen)
        else:
            probe = em.thermal_probe(dim, gen, self.beta)
        sched = em.conjugate_schedule(settings.t1, theta=self.theta)
        return em.qfi_general(probe, em.ancilla_state(settings.theta0), params, sched).value

    def _problem(self, case, n: int, value: float) -> str | None:
        if case[1] == "polarized":
            expected = float(n * n)
        else:
            expected = em.qfi_thermal(em.EnsembleDim(n), self.beta)[0].value
        if abs(value - expected) > REL_TOL * expected:
            return f"F_Q={value!r}, expected {expected!r}"
        return None


class CfiLargeN(_LargeN):
    """``cfi`` with full-system readout: two optima and one detuned step time."""

    name = "cfi_large_n"
    n = 250
    cases = (("zz", "optimal"), ("xz", "optimal"), ("zz", "detuned"))

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        # Readout phase and detuning away from readout nodes; neither changes the cost.
        self.theta_eval = float(rng.uniform(0.1, 0.5))
        self.detune = float(rng.uniform(0.6, 0.9))

    def _schedule(self, case):
        kind, point = case
        t1 = em.optimal_settings(PARAMS[kind]).t1
        return em.conjugate_schedule(t1 * (self.detune if point == "detuned" else 1.0), theta=0.0)

    def _probe(self, params, n: int):
        dim = em.EnsembleDim(n)
        gen = em.optimal_generator(params, dim)
        return em.polarized_probe(dim, gen), gen

    def _evaluate(self, case, n: int) -> float:
        params = PARAMS[case[0]]
        probe, gen = self._probe(params, n)
        anc = em.ancilla_state(em.optimal_settings(params).theta0)
        return em.cfi(probe, anc, params, self._schedule(case), generator=gen, theta_eval=self.theta_eval).value

    def _problem(self, case, n: int, value: float) -> str | None:
        if case[1] == "optimal":
            expected = float(n * n)
            if abs(value - expected) > REL_TOL * expected:
                return f"F_c={value!r}, expected F_Q={expected!r}"
            return None
        params = PARAMS[case[0]]
        probe, _ = self._probe(params, n)
        anc = em.ancilla_state(em.optimal_settings(params).theta0)
        quantum = em.qfi_general(probe, anc, params, self._schedule(case)).value
        if value > quantum * (1.0 + REL_TOL):
            return f"F_c={value!r} exceeds F_Q={quantum!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Figures, QfiLargeN, CfiLargeN)}


def make(name: str, seed: int, workdir: Path):
    return WORKLOADS[name](seed, workdir)
