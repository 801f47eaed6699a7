"""Scenario and chain configurations: parsing and validation.

Config files are flat ``key = value`` text with ``#`` comments; every key has
a default, and the empty config runs the flagship case (220 sites, block on
sites 109-112 with potentials (0.75, -+0.75i), initial v/w = 0.25).

This module imports only the standard library, so ``nhssh validate`` checks a
config without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

__all__ = [
    "ConfigError",
    "LatticeConfig",
    "ScenarioConfig",
    "SCENARIOS",
    "SCENARIO_KEYS",
    "parse_config",
    "parse_overrides",
    "apply_overrides",
    "scenario_lattice",
    "scenario_v_grid",
    "DEFAULT_ZERO_MODE_TOL",
    "DEFAULT_SIDE_THRESHOLD",
]

# The keys each scenario reads, in the order of scenarios._RUNNERS: all read
# the chain and where to write. ScenarioConfig checks only these, and the CLI
# refuses a --set of any other.
_CHAIN_KEYS = "scenario n_cells w region_start region_end u_re u_im output_dir "
SCENARIO_KEYS = {
    scenario: frozenset((_CHAIN_KEYS + keys).split()) for scenario, keys in (
        ("spectrum", "v_grid_start v_grid_stop v_grid_step threshold"),
        ("lightcone", "v_initial v_final side t_max dt zero_mode_tol"),
        ("bipartite", "v_initial v_final side t_max dt zero_mode_tol"),
        ("ratio-sweep", "v_initial v_grid_start v_grid_stop v_grid_step t_sample zero_mode_tol"),
        ("reshuffle", "v_grid_start v_grid_stop v_grid_step threshold"),
    )
}
SCENARIOS = tuple(SCENARIO_KEYS)
DEFAULT_ZERO_MODE_TOL = 1e-3
DEFAULT_SIDE_THRESHOLD = 0.5

# The most points a config's v/w or time grid may have: three orders above the
# largest default grid, 1001 time samples.
_MAX_GRID_POINTS = 10**6
# Per-scenario (start, stop, step) defaults for the v/w grid, and its keys.
_GRID_KEYS = ("v_grid_start", "v_grid_stop", "v_grid_step")
_GRID_DEFAULTS = {
    "spectrum": (0.1, 2.0, 0.01),
    "ratio-sweep": (1.0, 2.0, 0.025),
    "reshuffle": (1.125, 1.5, 0.375),
}


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class LatticeConfig:
    """Full physical specification of one chain instance.

    The intercell hopping ``w`` is the energy unit; scenario defaults fix
    w = 1 and sweep ``v`` so that v/w is the control parameter. The block of
    complex on-site potentials spans sites ``region_start``..``region_end``
    (1-based, inclusive); leaving both unset gives the plain Hermitian chain.
    """

    n_cells: int
    v: float
    w: float = 1.0
    region_start: int | None = None
    region_end: int | None = None
    u_re: float = 0.0
    u_im: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ConfigError(f"n_cells must be >= 1, got {self.n_cells}")
        for key in ("v", "w", "u_re", "u_im"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.v < 0:
            raise ConfigError(f"v must be >= 0, got {self.v}")
        if self.w <= 0:
            raise ConfigError(f"w must be > 0, got {self.w}")
        if (self.region_start is None) != (self.region_end is None):
            raise ConfigError("region_start and region_end must be set together")
        if self.region_start is not None and self.region_end is not None:
            if not 1 <= self.region_start <= self.region_end:
                raise ConfigError(
                    "region_start must satisfy 1 <= region_start <= region_end, "
                    f"got region_start={self.region_start}, region_end={self.region_end}"
                )
            if self.region_end > self.n_sites:
                raise ConfigError(
                    f"region_end must be <= 2*n_cells = {self.n_sites}, "
                    f"got region_end={self.region_end}"
                )

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells

    @property
    def has_region(self) -> bool:
        return self.region_start is not None

    def with_v(self, v: float) -> "LatticeConfig":
        return replace(self, v=v)

    def without_region(self) -> "LatticeConfig":
        return replace(self, region_start=None, region_end=None)


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete scenario description; every field has a runnable default.

    A config that cannot run cannot be made: construction, ``replace``
    included, raises ConfigError naming the offending key. Only the keys its
    scenario reads (``SCENARIO_KEYS``) are checked; the others change nothing.
    """

    scenario: str = "spectrum"
    n_cells: int = 110
    w: float = 1.0
    region_start: int | None = 109
    region_end: int | None = 112
    u_re: float = 0.75
    u_im: float = 0.75
    v_initial: float = 0.25
    v_final: float = 1.5
    v_grid_start: float | None = None
    v_grid_stop: float | None = None
    v_grid_step: float | None = None
    side: str = "both"
    t_max: float = 500.0
    dt: float = 0.5
    # At the flagship geometry the first reflection off the block settles over
    # t in [100, 170] (in 1/w); sampling there, before the transmitted branch
    # re-crosses the block near t = 180, isolates one reflection event.
    t_sample: float = 120.0
    zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL
    threshold: float = DEFAULT_SIDE_THRESHOLD
    output_dir: str = "out"

    def __post_init__(self) -> None:
        # An unknown scenario reads one key, whose rule refuses it.
        keys = SCENARIO_KEYS.get(self.scenario, {"scenario"})
        values = {key: getattr(self, key) for key in _KEY_TYPES if key in keys}
        spans = {"dt": (0.0, self.t_max, self.dt)} if "dt" in keys else {}
        if "v_grid_step" in keys:
            spans["v_grid_step"] = _resolved_grid(self)
            values.update(zip(_GRID_KEYS, spans["v_grid_step"]))
        for key, value in values.items():
            if _KEY_TYPES[key].startswith("float") and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if key in _RULES and not _RULES[key][1](value):
                raise ConfigError(f"{key} must be {_RULES[key][0]}, got {value!r}")
        if "v_grid_step" in keys and values["v_grid_stop"] < values["v_grid_start"]:
            raise ConfigError("v_grid_stop must be >= v_grid_start, got "
                              f"{values['v_grid_start']}..{values['v_grid_stop']}")
        # A point start + k*step carries at most two roundings (product, sum),
        # each within half an ulp of the last point, so a step above two ulps
        # of the last point keeps every point above the one before.
        for key, (start, stop, step) in spans.items():
            count = _grid_count(start, stop, step)
            if count > _MAX_GRID_POINTS:
                raise ConfigError(f"{key} must give at most {_MAX_GRID_POINTS} grid "
                                  f"points, got {count:.6g} for {start}..{stop}")
            if count > 1 and step <= 2 * math.ulp(start + (count - 1) * step):
                raise ConfigError(f"{key} must exceed twice the float spacing at the "
                                  f"last grid point, got {step} for {start}..{stop}")
        scenario_lattice(self, 0.0)
        # The hopping v = (v/w) * w at each ratio read; a grid's first and
        # last points bound the rest.
        ratios = {key: values[key] for key in ("v_initial", "v_final", "v_grid_start")
                  if key in values}
        if "v_grid_step" in keys:
            start, stop, step = spans["v_grid_step"]
            ratios["v_grid_stop"] = start + (_grid_count(start, stop, step) - 1) * step
        for key, ratio in ratios.items():
            if not math.isfinite(ratio * self.w):
                raise ConfigError(f"{key} * w must be finite, got {ratio} * {self.w}")


# Each key's annotation as written ("int", "float | None", "str", ...): the
# one statement of its type, read by the parser and the finiteness check.
_KEY_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_PARSERS = {"int": int, "float": float, "str": str}
# What a key must be, as (requirement, test), where its scenario reads it. The
# v/w grid keys are tested at their resolved values; every float must be finite.
_AT_LEAST_ZERO = (">= 0", lambda value: value >= 0)
_ABOVE_ZERO = ("> 0", lambda value: value > 0)
_RULES = {
    "scenario": (f"one of {', '.join(SCENARIOS)}", lambda value: value in SCENARIO_KEYS),
    "side": ("left, right, or both", lambda value: value in ("left", "right", "both")),
    **dict.fromkeys(("v_initial", "v_final", "t_sample", "v_grid_start"), _AT_LEAST_ZERO),
    **dict.fromkeys(("t_max", "dt", "zero_mode_tol", "threshold", "v_grid_step"), _ABOVE_ZERO),
}


def _coerce(key: str, raw: str, where: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"{where}: unknown key {key!r}")
    raw = raw.strip()
    kind, _, optional = _KEY_TYPES[key].partition(" | ")
    if optional and raw.lower() == "none":
        return None
    try:
        return _PARSERS[kind](raw)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {raw!r} for key {key!r}") from None


def _parse_assignment(line: str, where: str) -> tuple[str, object]:
    if "=" not in line:
        raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
    key, raw = line.split("=", 1)
    key = key.strip()
    return key, _coerce(key, raw, where)


def _parse_lines(text: str) -> dict[str, object]:
    """Typed values of ``key = value`` lines (with ``#`` comments), last wins."""
    settings: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = _parse_assignment(stripped, f"line {lineno}")
        settings[key] = value
    return settings


def parse_config(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines (with ``#`` comments) into a config."""
    return ScenarioConfig(**_parse_lines(text))


def parse_overrides(assignments: list[str]) -> dict[str, object]:
    """Typed values of ``key=value`` strings (CLI --set arguments), last wins."""
    return dict(_parse_assignment(raw, f"--set {raw!r}") for raw in assignments)


def apply_overrides(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply ``key=value`` strings (CLI --set arguments) on top of a config."""
    return replace(cfg, **parse_overrides(assignments))


def scenario_lattice(cfg: ScenarioConfig, v_over_w: float) -> LatticeConfig:
    """Lattice at a given v/w ratio under this scenario's fixed parameters."""
    return LatticeConfig(
        n_cells=cfg.n_cells,
        v=v_over_w * cfg.w,
        w=cfg.w,
        region_start=cfg.region_start,
        region_end=cfg.region_end,
        u_re=cfg.u_re,
        u_im=cfg.u_im,
    )


def _resolved_grid(cfg: ScenarioConfig) -> tuple[float, float, float]:
    return tuple(default if getattr(cfg, key) is None else getattr(cfg, key)
                 for key, default in zip(_GRID_KEYS, _GRID_DEFAULTS[cfg.scenario]))


def _grid_count(start: float, stop: float, step: float) -> float:
    """Number of points start + k*step up to stop, inf if the quotient overflows;
    the 1e-9 keeps a quotient just below a whole number from losing a point."""
    intervals = (stop - start) / step + 1e-9
    return intervals if intervals == math.inf else math.floor(intervals) + 1


def _grid(start: float, stop: float, step: float) -> list[float]:
    return [start + k * step for k in range(_grid_count(start, stop, step))]


def scenario_v_grid(cfg: ScenarioConfig) -> list[float]:
    """The v/w grid of a scenario that reads one, built as start + k*step."""
    return _grid(*_resolved_grid(cfg))
