"""Command line interface: run named scenarios and validate config files.

Exit codes: 0 success, 2 config problem (parse or validation, including an
NHSSH_THREADS value that is not a positive integer), 3 simulation failure
(missing edge state, failed propagator fallback, unwritable output).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dynamics import NoEdgeStateError
from .scenarios import (
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    parse_config,
    run_scenario,
    validate_config,
)
from .spectral import NearDefectiveError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhssh",
        description="Quench dynamics in an SSH chain with an embedded "
        "non-Hermitian block of on-site potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its output files")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)
    run.add_argument("--config", type=Path, help="key = value config file")
    run.add_argument("--out", type=Path, help="output directory (default: out)")
    run.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a single config key; may be repeated",
    )

    validate = sub.add_parser("validate", help="parse and validate a config file")
    validate.add_argument("--config", type=Path, required=True)
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = ScenarioConfig()
    if getattr(args, "scenario", None) is not None:
        cfg = replace(cfg, scenario=args.scenario)
    if getattr(args, "overrides", None):
        cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, output_dir=str(args.out))
    validate_config(cfg)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        if cfg.region_start is None:
            region = "none"
        else:
            region = f"{cfg.region_start}..{cfg.region_end}"
        print(f"ok: scenario={cfg.scenario}, {2 * cfg.n_cells} sites, "
              f"region={region}, u=({cfg.u_re:g}, {cfg.u_im:g}), "
              f"v_initial/w={cfg.v_initial:g}")
        return 0

    try:
        written = run_scenario(cfg)
    except (NoEdgeStateError, NearDefectiveError, ZeroDivisionError,
            ValueError, RuntimeError, OSError) as exc:
        print(f"simulation error in scenario {cfg.scenario!r}: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
