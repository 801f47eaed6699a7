"""Command line interface: run named scenarios and validate config files.

Exit codes: 0 success, 2 config problem (a config file that cannot be read
as UTF-8, parse or validation of the keys the scenario reads, a --set of a key
it does not read, an NHSSH_THREADS value that is not a positive integer), 3
simulation failure (missing edge state, a propagator step whose series misses
its tail bound, a ratio-sweep weight that overflowed or lost its digits, an
array too large to allocate, unwritable output).

Importing this module before numpy, as the ``nhssh`` script does, sets
OPENBLAS_NUM_THREADS=1 in the process environment when it is unset; an import
after numpy, or ``import nhssh``, sets nothing. Only ``run`` loads numpy:
``validate`` needs only the standard library.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

# Every scenario runs its BLAS calls on one thread (parallel._one_blas_thread),
# so a CLI process never uses OpenBLAS's thread pool: load it with one thread.
# A value the caller set still wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import (  # noqa: E402
    SCENARIO_KEYS,
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    _parse_lines,
    parse_overrides,
)
from .parallel import thread_count  # noqa: E402


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


def _load_config(args: argparse.Namespace) -> tuple[ScenarioConfig, list[str]]:
    """The config file's config with --scenario, --set and --out applied in one
    step, each beating the one before, so only the final config must be valid,
    and the file's keys its scenario does not read. Raises ConfigError, also
    for a --set of such a key and for a bad NHSSH_THREADS."""
    settings: dict[str, object] = {}
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        settings = _parse_lines(text)
    cfg = ScenarioConfig(**settings)
    changes: dict[str, object] = {}
    if getattr(args, "scenario", None) is not None:
        changes["scenario"] = args.scenario
    overrides = parse_overrides(getattr(args, "overrides", []))
    changes.update(overrides)
    if getattr(args, "out", None) is not None:
        changes["output_dir"] = str(args.out)
    cfg = replace(cfg, **changes)
    keys = SCENARIO_KEYS[cfg.scenario]
    if unread := [key for key in overrides if key not in keys]:
        raise ConfigError(f"scenario {cfg.scenario} does not read --set {', '.join(unread)}")
    try:
        thread_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, [key for key in settings if key not in keys]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, unread = _load_config(args)
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
              f"v_initial/w={cfg.v_initial:g}"
              + (f"; not read by {cfg.scenario}: {', '.join(unread)}" if unread else ""))
        return 0

    from .scenarios import run_scenario

    try:
        written = run_scenario(cfg)
    except (ZeroDivisionError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"simulation error in scenario {cfg.scenario!r}: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
