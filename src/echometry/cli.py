"""Command-line front end for the sweep scenarios and the validation suite.

Exit codes: 0 on success, 1 for configuration problems (bad flags, bad config
file, unknown keys), 2 for numerical contract violations (e.g. no reversal
period in the search window, failed cross-validation).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .circuit import ModelParams, PeriodNotFound
from .experiments import SCENARIOS, SweepConfig, run_scenario, run_validation
from .spin import ContractViolation

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class ConfigError(Exception):
    """A configuration file or flag combination is invalid."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this CLI reserves 2 for numerical
    # failures, so flag problems are remapped to the config exit code.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def load_config(path: str) -> dict:
    """Parse a flat key=value config file ('#' starts a comment)."""
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _build_config(scenario: str, args: argparse.Namespace, file_options: dict) -> SweepConfig:
    options = dict(file_options)
    for key in ("out", "wp", "wa", "g", "interaction", "mode"):
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
    if args.n is not None:
        # --n restricts multi-size scenarios to a single probe size.
        options["n" if "n" in SCENARIOS[scenario].defaults else "n_values"] = args.n

    mode = options.pop("mode", "conjugate")
    mode_map = {"conjugate": "exact_conjugate", "period": "period"}
    if mode not in mode_map:
        raise ConfigError(f"mode must be 'period' or 'conjugate', got {mode!r}")
    params = ModelParams(
        omega_p=float(options.pop("wp", 3.0)),
        omega_a=float(options.pop("wa", 3.0)),
        g=float(options.pop("g", 1.0)),
        kind=options.pop("interaction", SCENARIOS[scenario].kinds[0]),
    )
    out_dir = options.pop("out", "results")
    return SweepConfig(
        scenario=scenario,
        params=params,
        out_dir=out_dir,
        mode=mode_map[mode],
        grids=options,
    )


def _command_scenarios(command: str) -> dict[str, str]:
    """A subcommand's scenarios keyed by name less the command's prefix (``t1`` -> ``qfi_t1``)."""
    prefix = command.split("-")[0] + "_"
    names = [name for name, spec in SCENARIOS.items() if spec.command == command]
    return {name.removeprefix(prefix): name for name in names}


def _scenario_help(names) -> str:
    """Each scenario's grid keys with their types and defaults."""
    lines = ["grid keys (set in a --config file) with their defaults:"]
    for name in names:
        lines.append(f"  scenario = {name}")
        for key, value in SCENARIOS[name].defaults.items():
            items = value if isinstance(value, tuple) else (value,)
            shown = [f"{item:.12g}" for item in items]
            if len(shown) > 4:
                shown = shown[:3] + ["..."] + shown[-1:]
            kind = type(items[0]).__name__ + (" list" if isinstance(value, tuple) else "")
            lines.append(f"    {key} = {','.join(shown)}  ({kind})")
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (default: results)")
    parser.add_argument("--n", type=int, help="probe spin count for single-N scenarios")
    parser.add_argument("--wp", type=float, help="probe frequency in units of g (default 3)")
    parser.add_argument("--wa", type=float, help="ancilla frequency in units of g (default 3)")
    parser.add_argument("--g", type=float, help="coupling strength (default 1)")
    parser.add_argument("--interaction", choices=("zz", "xz"), help="coupling type")
    parser.add_argument(
        "--mode", choices=("period", "conjugate"), help="how the reversal leg is realized"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="echometry", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(spec.command for spec in SCENARIOS.values()):
        choices = _command_scenarios(command)
        p = sub.add_parser(
            command,
            epilog=_scenario_help(choices.values()),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        _add_common(p)
        if len(choices) > 1:
            p.add_argument(
                "--scenario",
                choices=(*choices, "all"),
                default="all",
                help="which sweep to run (default: all)",
            )
    validate = sub.add_parser("validate", help="randomized oracle-equivalence suite")
    validate.add_argument("--instances", type=int, default=200)
    validate.add_argument("--seed", type=int, default=7)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "validate":
            if args.instances < 1 or args.seed < 0:
                raise ConfigError("validate needs --instances >= 1 and --seed >= 0")
            report = run_validation(instances=args.instances, seed=args.seed)
            for key, value in report.items():
                print(f"{key}={value}")
            return EXIT_OK if report["passed"] else EXIT_NUMERICAL

        file_options = load_config(args.config) if args.config else {}
        file_scenario = file_options.pop("scenario", None)
        choices = _command_scenarios(args.command)
        names = list(choices.values())
        if getattr(args, "scenario", "all") != "all":
            names = [choices[args.scenario]]
        if file_scenario is not None:
            if file_scenario not in names:
                raise ConfigError(
                    f"config file is for scenario {file_scenario!r}, "
                    f"this run is for {', '.join(names)}"
                )
            names = [file_scenario]
        try:
            configs = [_build_config(name, args, file_options) for name in names]
        except ValueError as exc:  # a bad model or grid value, ContractViolation included
            raise ConfigError(str(exc)) from exc
        for cfg in configs:
            summary = run_scenario(cfg)
            print(f"{cfg.scenario}: {summary['rows']} rows -> {summary['csv']}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolation, PeriodNotFound) as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
