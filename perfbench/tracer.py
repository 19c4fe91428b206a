"""Per-layer call tracing for echometry, installed from outside the package.

The package modules import each other's functions by name (``from .spin
import collective_ops``), so a function is reachable through several module
bindings.  :class:`Tracer` replaces every binding of each traced function in
every loaded ``echometry`` module with one timing wrapper, and puts the
originals back when its ``with`` block ends.  Self time is a call's duration
minus the part covered by traced calls it made.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (metric prefix, module, function) for every traced function, by layer.
TRACED = (
    ("spin.collective_ops", "echometry.spin", "collective_ops"),
    ("spin.joint_embed", "echometry.spin", "joint_embed"),
    ("spin.eigenbasis", "echometry.spin", "eigenbasis"),
    ("spin.unitary_of_hermitian", "echometry.spin", "unitary_of_hermitian"),
    ("spin.assert_hermitian", "echometry.spin", "assert_hermitian"),
    ("states.ancilla_state", "echometry.states", "ancilla_state"),
    ("states.polarized_probe", "echometry.states", "polarized_probe"),
    ("states.thermal_probe", "echometry.states", "thermal_probe"),
    ("circuit.hamiltonian", "echometry.circuit", "hamiltonian"),
    ("circuit.propagator", "echometry.circuit", "propagator"),
    ("circuit.encoder", "echometry.circuit", "encoder"),
    ("circuit.encoding_generator", "echometry.circuit", "encoding_generator"),
    ("circuit.optimal_generator", "echometry.circuit", "optimal_generator"),
    ("circuit.normalized_trace", "echometry.circuit", "normalized_trace"),
    ("circuit.reversal_period", "echometry.circuit", "reversal_period"),
    ("fisher.qfi_general", "echometry.fisher", "qfi_general"),
    ("fisher.output_state_derivative", "echometry.fisher", "output_state_derivative"),
    ("fisher.cfi", "echometry.fisher", "cfi"),
    ("fisher.qfi_sld_oracle", "echometry.fisher", "qfi_sld_oracle"),
    ("fisher.qfi_dephased", "echometry.fisher", "qfi_dephased"),
    ("experiments.run_scenario", "echometry.experiments", "run_scenario"),
    ("experiments.run_validation", "echometry.experiments", "run_validation"),
    ("experiments.cli_main", "echometry.cli", "main"),
)

# Functions whose distinct argument keys are counted: a low distinct/calls
# ratio means the same operator is rebuilt.
DISTINCT_KEYED = ("spin.collective_ops", "circuit.hamiltonian", "circuit.propagator")

WRAPPED_MARK = "__perfbench_traced__"


def _call_key(args: tuple, kwargs: dict):
    """A hashable key for a call's arguments (their repr if unhashable)."""
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _echometry_modules() -> list[tuple[str, object]]:
    return [
        (name, module) for name, module in list(sys.modules.items())
        if module is not None and (name == "echometry" or name.startswith("echometry."))
    ]


class _Stat:
    __slots__ = ("calls", "total", "self_time", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.keys: set = set()


class Tracer:
    """Context manager that times every traced echometry function."""

    def __init__(self) -> None:
        self.stats = {prefix: _Stat() for prefix, _, _ in TRACED}
        self.period_solves = Counter()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, prefix: str, fn):
        stat = self.stats[prefix]
        keyed = prefix in DISTINCT_KEYED
        is_period = prefix == "circuit.reversal_period"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                stat.keys.add(_call_key(args, kwargs))
            children = [0.0]
            stack.append(children)
            start = clock()
            analytic = False
            try:
                result = fn(*args, **kwargs)
                analytic = is_period and getattr(result, "integers", None) is not None
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
                if is_period:
                    self.period_solves["analytic" if analytic else "other"] += 1

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def __enter__(self) -> "Tracer":
        modules = [module for _, module in _echometry_modules()]
        for prefix, module_name, attr in TRACED:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                continue  # the function is gone from the package; it reports zeros
            wrapper = self._wrap(prefix, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-function calls/total_s/self_s plus the work-to-attempt ratios."""
        out: dict[str, float] = {}
        for prefix, stat in self.stats.items():
            out[f"{prefix}.calls"] = stat.calls
            out[f"{prefix}.total_s"] = stat.total
            out[f"{prefix}.self_s"] = stat.self_time
        for prefix in DISTINCT_KEYED:
            stat = self.stats[prefix]
            out[f"{prefix}.distinct_ratio"] = len(stat.keys) / stat.calls if stat.calls else 0.0
        solves = sum(self.period_solves.values())
        out["circuit.reversal_period.analytic_ratio"] = (
            self.period_solves["analytic"] / solves if solves else 0.0
        )
        return out


def traced_bindings() -> list[str]:
    """Names of echometry module attributes that still hold a trace wrapper."""
    found = []
    for name, module in _echometry_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{attr}")
    return found
