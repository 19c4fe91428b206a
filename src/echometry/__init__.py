"""Qubit-assisted time-reversal metrology on a collective spin ensemble.

Simulations of the two-step echo protocol: a probe of N spins is jointly
evolved with an ancilla qubit, a phase is encoded by a probe rotation, and
the evolution is reversed before readout.  The package builds the circuit,
finds reversal periods, and evaluates quantum and classical Fisher
information under ideal, deviated, and dephased conditions, plus a CSV sweep
harness and CLI (:mod:`echometry.experiments`, :mod:`echometry.cli`).

Both couplings are diagonal in the ancilla's sigma_z, so production code
works on the two (N+1)-dimensional ancilla-sector blocks.  The dense
2(N+1)-dimensional path and the SLD oracle are the independent reference of
the ``validate`` run and the tests; they live in :mod:`echometry.reference`,
which is not re-exported here.
"""

from .spin import (
    ContractViolation,
    EnsembleDim,
    PhaseGenerator,
    collective_ops,
    phase_generator,
    spin_frame,
)
from .states import (
    AncillaState,
    SpectralProbe,
    ancilla_state,
    dephase_ancilla,
    polarized_probe,
    spectral_decompose,
    thermal_probe,
)
from .circuit import (
    ModelParams,
    OptimalSettings,
    PeriodNotFound,
    PeriodSolution,
    Schedule,
    conjugate_schedule,
    normalized_trace,
    optimal_generator,
    optimal_settings,
    period_schedule,
    propagator,
    reversal_period,
)
from .fisher import (
    FisherResult,
    ProbabilityTable,
    cfi,
    cfi_grid,
    measurement_probs,
    qfi_deviation,
    qfi_general,
    qfi_grid,
    qfi_thermal,
)
from .experiments import FitResult, SweepConfig, fit_quadratic, run_scenario, run_validation

__version__ = "0.1.0"

__all__ = [
    "ContractViolation",
    "EnsembleDim",
    "PhaseGenerator",
    "collective_ops",
    "phase_generator",
    "spin_frame",
    "AncillaState",
    "SpectralProbe",
    "ancilla_state",
    "dephase_ancilla",
    "polarized_probe",
    "spectral_decompose",
    "thermal_probe",
    "ModelParams",
    "OptimalSettings",
    "PeriodNotFound",
    "PeriodSolution",
    "Schedule",
    "conjugate_schedule",
    "normalized_trace",
    "optimal_generator",
    "optimal_settings",
    "period_schedule",
    "propagator",
    "reversal_period",
    "FisherResult",
    "ProbabilityTable",
    "cfi",
    "cfi_grid",
    "measurement_probs",
    "qfi_deviation",
    "qfi_general",
    "qfi_grid",
    "qfi_thermal",
    "FitResult",
    "SweepConfig",
    "fit_quadratic",
    "run_scenario",
    "run_validation",
]
