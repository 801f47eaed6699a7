"""Named experiment scenarios over the embedded non-Hermitian chain.

Maps scenario names to deterministic output files: spectrum and reshuffle
tables, light-cone CSVs with graymap heatmaps, bipartite-norm curves, and
reflection-ratio sweeps. Config files are flat ``key = value`` text with
``#`` comments; every key has a default, and the empty config runs the
flagship case (220 sites, block on sites 109-112 with potentials
(0.75, -+0.75i), initial v/w = 0.25).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (
    DEFAULT_ZERO_MODE_TOL,
    Edge,
    QuenchSpec,
    Trajectory,
    edge_states,
    evolve_chebyshev,
    run_quench,
)
from .lattice import LatticeConfig, build_hamiltonian, hamiltonian_bands
from .observables import (
    DEFAULT_SIDE_THRESHOLD,
    bipartite_norms,
    default_split,
)
from .parallel import _one_blas_thread, thread_count
from .spectral import Sweep, match_branches, spectrum_sweep

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "SCENARIOS",
    "parse_config",
    "apply_overrides",
    "scenario_lattice",
    "scenario_v_grid",
    "time_grid",
    "compute_ratio_sweep",
    "ratio_crossing",
    "run_scenario",
]

# Per-scenario (start, stop, step) defaults for the v/w grid.
_GRID_DEFAULTS = {
    "spectrum": (0.1, 2.0, 0.01),
    "ratio-sweep": (1.0, 2.0, 0.025),
    "reshuffle": (1.125, 1.5, 0.375),
}

_CLAMP_PERCENTILE = 99.0
_PGM_MAXVAL = 65535


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete scenario description; every field has a runnable default."""

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
    """Parse ``key = value`` lines (with ``#`` comments) into a validated config."""
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = _parse_assignment(stripped, f"line {lineno}")
        overrides[key] = value
    cfg = ScenarioConfig(**overrides)
    validate_config(cfg)
    return cfg


def apply_overrides(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply ``key=value`` strings (CLI --set arguments) on top of a config."""
    overrides: dict[str, object] = {}
    for raw in assignments:
        key, value = _parse_assignment(raw, f"--set {raw!r}")
        overrides[key] = value
    cfg = replace(cfg, **overrides)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ScenarioConfig) -> None:
    """Reject configs that cannot run; error messages name the offending key."""
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {', '.join(SCENARIOS)}, got {cfg.scenario!r}"
        )
    if cfg.side not in ("left", "right", "both"):
        raise ConfigError(f"side must be left, right, or both, got {cfg.side!r}")
    for key, kind in _KEY_TYPES.items():
        value = getattr(cfg, key)
        if kind.startswith("float") and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    for key, value in (("v_initial", cfg.v_initial), ("v_final", cfg.v_final)):
        if value < 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    for key, value in (
        ("dt", cfg.dt),
        ("t_max", cfg.t_max),
        ("zero_mode_tol", cfg.zero_mode_tol),
        ("threshold", cfg.threshold),
    ):
        if value <= 0:
            raise ConfigError(f"{key} must be > 0, got {value}")
    if cfg.t_sample < 0:
        raise ConfigError(f"t_sample must be >= 0, got {cfg.t_sample}")
    start, stop, step = _resolved_grid(cfg)
    if start < 0:
        raise ConfigError(f"v_grid_start must be >= 0, got {start}")
    if step <= 0:
        raise ConfigError(f"v_grid_step must be > 0, got {step}")
    if stop < start:
        raise ConfigError(
            f"v_grid_stop must be >= v_grid_start, got {start}..{stop}"
        )
    try:
        scenario_lattice(cfg, cfg.v_initial)
        thread_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    steps = int(np.floor(cfg.t_max / cfg.dt + 1e-9))
    return np.array([k * cfg.dt for k in range(steps + 1)])


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------

# 12 significant digits keeps golden files stable across reruns.
_FLOAT_FORMAT = ".12g"
# Rows that _write_table turns into Python values and text at one time.
_TABLE_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FORMAT)


def _write_table(path: Path, columns: dict[str, Sequence]) -> Path:
    """CSV whose header is the keys of ``columns`` and whose rows zip their values.

    Each column holds one kind of value, read from its first entry: floats
    (numpy's too) print with ``_FLOAT_FORMAT``, anything else through ``str``.
    """
    row = ",".join(
        "%" + _FLOAT_FORMAT if len(c) and isinstance(c[0], float) else "%s"
        for c in columns.values()
    ) + "\n"
    width = len(columns)
    rows = len(next(iter(columns.values())))
    # Python values and text exist for one chunk of rows at a time, which goes
    # to the file before the next is built; one % call formats the chunk, its
    # columns interleaved row by row into one flat argument list.
    with path.open("wb") as f:
        f.write((",".join(columns) + "\n").encode("ascii"))
        for start in range(0, rows, _TABLE_CHUNK_ROWS):
            count = min(_TABLE_CHUNK_ROWS, rows - start)
            flat = [None] * (width * count)
            for j, column in enumerate(columns.values()):
                cells = column[start : start + count]
                flat[j::width] = cells.tolist() if isinstance(cells, np.ndarray) else cells
            f.write(((row * count) % tuple(flat)).encode("ascii"))
    return path


def _repeat_each(values: list[str], times: int) -> list[str]:
    return [v for v in values for _ in range(times)]


def _write_sweep(path: Path, sweep: Sweep, branch: np.ndarray | None = None) -> Path:
    """One row per (grid point, eigenvalue); a branch column only with labels."""
    points, n = sweep.eigenvalues.shape
    columns = {
        "v_over_w": _repeat_each([_fmt(v) for v in sweep.v_over_w.tolist()], n),
        "index": [str(i) for i in range(n)] * points,
    }
    if branch is not None:
        columns["branch"] = branch.ravel()
    columns["re_e"] = sweep.eigenvalues.real.ravel()
    columns["im_e"] = sweep.eigenvalues.imag.ravel()
    columns["com"] = sweep.com.ravel()
    columns["side"] = [side.value for side in sweep.side.ravel().tolist()]
    return _write_table(path, columns)


def _write_heatmap(
    pgm_path: Path, sidecar_path: Path, times: np.ndarray, densities: np.ndarray
) -> list[Path]:
    """Binary 16-bit graymap: rows are sites, columns time samples.

    ``densities`` is the (time, site) table of one trajectory. Intensities are
    densities clamped to its 99th percentile so gain spikes do not wash out
    the cone; the clamp is recorded in a sidecar.
    """
    rho_max = float(np.percentile(densities, _CLAMP_PERCENTILE))
    if rho_max > 0.0:
        pixels = densities / rho_max
        np.clip(pixels, 0.0, 1.0, out=pixels)
        np.multiply(pixels, _PGM_MAXVAL, out=pixels)
        np.round(pixels, out=pixels)
    else:
        pixels = np.zeros_like(densities)
    width, height = densities.shape
    header = f"P5\n{width} {height}\n{_PGM_MAXVAL}\n".encode("ascii")
    pgm_path.write_bytes(header + pixels.T.astype(">u2").tobytes())
    sidecar = (
        f"heatmap: {pgm_path.name}\n"
        f"rows: sites 1..{height} (top to bottom)\n"
        f"columns: {width} time samples from t={_fmt(times[0])}"
        f" to t={_fmt(times[-1])}\n"
        f"intensity: site density clamped to [0, rho_max],"
        f" scaled to 0..{_PGM_MAXVAL}\n"
        f"rho_max: {_fmt(rho_max)} ({_fmt(_CLAMP_PERCENTILE)}th percentile"
        f" of the trajectory densities)\n"
    )
    sidecar_path.write_bytes(sidecar.encode("ascii"))
    return [pgm_path, sidecar_path]


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _quench(cfg: ScenarioConfig) -> dict[Edge, Trajectory]:
    """Trajectories of the configured sides on the scenario time grid."""
    spec = QuenchSpec(
        initial_config=scenario_lattice(cfg, cfg.v_initial),
        final_config=scenario_lattice(cfg, cfg.v_final),
        sides=tuple(Edge) if cfg.side == "both" else (Edge(cfg.side),),
        times=time_grid(cfg),
    )
    return run_quench(spec, zero_mode_tol=cfg.zero_mode_tol)


def _run_sweep(cfg: ScenarioConfig, out: Path, *, labeled: bool) -> list[Path]:
    sweep = spectrum_sweep(
        scenario_lattice(cfg, cfg.v_initial),
        scenario_v_grid(cfg),
        threshold=cfg.threshold,
        threads=thread_count(),
    )
    branch = match_branches(sweep) if labeled else None
    return [_write_sweep(out / f"{cfg.scenario}.csv", sweep, branch)]


def _run_lightcone(cfg: ScenarioConfig, out: Path) -> list[Path]:
    trajectories = _quench(cfg)
    times = time_grid(cfg)
    n = 2 * cfg.n_cells
    t_column = _repeat_each([_fmt(t) for t in times.tolist()], n)
    site_column = [str(site) for site in range(1, n + 1)] * times.size
    outputs: list[Path] = []
    for side in tuple(trajectories):
        # Each side's states are dropped once its densities exist.
        densities = trajectories.pop(side).densities
        name = f"lightcone_{side.value}"
        columns = {"t": t_column, "site": site_column, "density": densities.ravel()}
        outputs.append(_write_table(out / f"{name}.csv", columns))
        outputs.extend(_write_heatmap(
            out / f"{name}.pgm", out / f"{name}_clamp.txt", times, densities
        ))
    return outputs


def _run_bipartite(cfg: ScenarioConfig, out: Path) -> list[Path]:
    split = default_split(scenario_lattice(cfg, cfg.v_initial))
    trajectories = _quench(cfg)
    norms = [bipartite_norms(traj.states, split) for traj in trajectories.values()]
    columns = {
        "t": np.concatenate([traj.times for traj in trajectories.values()]),
        "rho_left": np.concatenate([rho_left for rho_left, _ in norms]),
        "rho_right": np.concatenate([rho_right for _, rho_right in norms]),
        "side_init": [side.value for side, traj in trajectories.items() for _ in traj.times],
    }
    return [_write_table(out / "bipartite.csv", columns)]


def compute_ratio_sweep(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Reflection ratio at t_sample for every final v/w on the sweep grid.

    Returns the ``ratio_sweep.csv`` columns as arrays keyed by their header
    names. Both edge states are prepared once from the initial Hamiltonian,
    then the whole grid is evolved in one batched Chebyshev expansion on the
    bands of each final Hamiltonian (``evolve_chebyshev``). ``run_scenario``
    runs it on one BLAS thread, like every scenario, so its bytes depend
    neither on the core count nor on ``OPENBLAS_NUM_THREADS``; a direct call
    uses the caller's BLAS threads. Raises RuntimeError when a state or its
    half-chain weight stops being finite (a growing mode overflowed).
    """
    lattice_initial = scenario_lattice(cfg, cfg.v_initial)
    psi0 = edge_states(build_hamiltonian(lattice_initial), cfg.zero_mode_tol)
    split = default_split(lattice_initial)
    grid = np.array(scenario_v_grid(cfg))
    diagonal, off_diagonal = map(np.array, zip(*(
        hamiltonian_bands(scenario_lattice(cfg, ratio)) for ratio in grid
    )))
    initial = np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])
    states = evolve_chebyshev(
        diagonal, off_diagonal, np.broadcast_to(initial, (grid.size, *initial.shape)),
        cfg.t_sample,
    )
    left, _ = bipartite_norms(states[:, 0], split)
    _, right = bipartite_norms(states[:, 1], split)
    finite = np.isfinite(left) & np.isfinite(right)
    if not finite.all():
        raise RuntimeError(
            f"the evolved edge-state weight at v/w={grid[np.argmin(finite)]:g} "
            f"is not finite at t={cfg.t_sample:g}"
        )
    vanishing = np.flatnonzero(left == 0.0)
    if vanishing.size:
        raise ZeroDivisionError(
            f"left-half norm vanishes at v/w={grid[vanishing[0]]}, t={cfg.t_sample}"
        )
    return {
        "v_over_w": grid,
        "rho_right_init_right_half": right,
        "rho_left_init_left_half": left,
        "ratio": right / left,
    }


def ratio_crossing(v_values: Sequence[float], ratios: Sequence[float]) -> float | None:
    """v/w where the ratio curve crosses 1, linearly interpolated.

    Takes lists or arrays. Returns the first sign change of (ratio - 1); None
    when the curve stays on one side of 1 over the whole grid.
    """
    v_values = np.asarray(v_values, dtype=float).tolist()
    excess = (np.asarray(ratios, dtype=float) - 1.0).tolist()
    for k in range(1, len(excess)):
        a, b = excess[k - 1], excess[k]
        if a == 0.0:
            return v_values[k - 1]
        if a * b < 0.0:
            return v_values[k - 1] + (v_values[k] - v_values[k - 1]) * a / (a - b)
    if excess and excess[-1] == 0.0:
        return v_values[-1]
    return None


def _run_ratio_sweep(cfg: ScenarioConfig, out: Path) -> list[Path]:
    return [_write_table(out / "ratio_sweep.csv", compute_ratio_sweep(cfg))]


_RUNNERS = {
    "spectrum": partial(_run_sweep, labeled=True),
    "lightcone": _run_lightcone,
    "bipartite": _run_bipartite,
    "ratio-sweep": _run_ratio_sweep,
    "reshuffle": partial(_run_sweep, labeled=False),
}
SCENARIOS = tuple(_RUNNERS)


def run_scenario(cfg: ScenarioConfig) -> list[Path]:
    """Run one scenario, returning the paths written (deterministic bytes).

    Every BLAS and LAPACK call of the run is on one BLAS thread, and the
    caller's count is restored after, so the bytes depend neither on the core
    count nor on ``OPENBLAS_NUM_THREADS``.
    """
    validate_config(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _one_blas_thread():
        return _RUNNERS[cfg.scenario](cfg, out)
