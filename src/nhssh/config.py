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
    "parse_config",
    "parse_overrides",
    "apply_overrides",
    "scenario_lattice",
    "scenario_v_grid",
    "DEFAULT_ZERO_MODE_TOL",
    "DEFAULT_SIDE_THRESHOLD",
]

# The scenario names, in the order of scenarios._RUNNERS.
SCENARIOS = ("spectrum", "lightcone", "bipartite", "ratio-sweep", "reshuffle")
DEFAULT_ZERO_MODE_TOL = 1e-3
DEFAULT_SIDE_THRESHOLD = 0.5

# Per-scenario (start, stop, step) defaults for the v/w grid.
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
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")
        if self.w <= 0:
            raise ValueError(f"w must be > 0, got {self.w}")
        if (self.region_start is None) != (self.region_end is None):
            raise ValueError("region_start and region_end must be set together")
        if self.region_start is not None and self.region_end is not None:
            if not 1 <= self.region_start <= self.region_end:
                raise ValueError(
                    "region_start must satisfy 1 <= region_start <= region_end, "
                    f"got region_start={self.region_start}, region_end={self.region_end}"
                )
            if self.region_end > self.n_sites:
                raise ValueError(
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
    included, raises ConfigError naming the offending key.
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
        if self.scenario not in SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {', '.join(SCENARIOS)}, got {self.scenario!r}"
            )
        if self.side not in ("left", "right", "both"):
            raise ConfigError(f"side must be left, right, or both, got {self.side!r}")
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if kind.startswith("float") and value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for key, value in (("v_initial", self.v_initial), ("v_final", self.v_final)):
            if value < 0:
                raise ConfigError(f"{key} must be >= 0, got {value}")
        for key, value in (
            ("dt", self.dt),
            ("t_max", self.t_max),
            ("zero_mode_tol", self.zero_mode_tol),
            ("threshold", self.threshold),
        ):
            if value <= 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        if self.t_sample < 0:
            raise ConfigError(f"t_sample must be >= 0, got {self.t_sample}")
        start, stop, step = _resolved_grid(self)
        if start < 0:
            raise ConfigError(f"v_grid_start must be >= 0, got {start}")
        if step <= 0:
            raise ConfigError(f"v_grid_step must be > 0, got {step}")
        if stop < start:
            raise ConfigError(
                f"v_grid_stop must be >= v_grid_start, got {start}..{stop}"
            )
        # Each grid point start + k*step carries at most two roundings, of the
        # product and of the sum, each within half an ulp of the last point.
        # So with a step above two ulps of the last point every point exceeds
        # the one before. An infinite quotient means a step far below that bound.
        intervals = (stop - start) / step + 1e-9
        if intervals >= 1 and (
            intervals == math.inf
            or step <= 2 * math.ulp(start + math.floor(intervals) * step)
        ):
            raise ConfigError(
                f"v_grid_step must exceed twice the float spacing at the last "
                f"grid point, got {step} for {start}..{stop}"
            )
        try:
            scenario_lattice(self, self.v_initial)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# Each key's annotation as written ("int", "float | None", "str", ...): the
# one statement of its type, read by the parser and the finiteness check.
_KEY_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


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


def parse_config(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines (with ``#`` comments) into a config."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = _parse_assignment(stripped, f"line {lineno}")
        overrides[key] = value
    return ScenarioConfig(**overrides)


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
    d_start, d_stop, d_step = _GRID_DEFAULTS.get(cfg.scenario, (1.0, 2.0, 0.025))
    return (
        cfg.v_grid_start if cfg.v_grid_start is not None else d_start,
        cfg.v_grid_stop if cfg.v_grid_stop is not None else d_stop,
        cfg.v_grid_step if cfg.v_grid_step is not None else d_step,
    )


def scenario_v_grid(cfg: ScenarioConfig) -> list[float]:
    """The v/w grid for sweep scenarios, built as start + k*step."""
    start, stop, step = _resolved_grid(cfg)
    count = math.floor((stop - start) / step + 1e-9) + 1
    return [start + k * step for k in range(count)]
