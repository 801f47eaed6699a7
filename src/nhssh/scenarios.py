"""Named experiment scenarios over the embedded non-Hermitian chain.

Maps scenario names to deterministic output files: spectrum and reshuffle
tables, light-cone CSVs with graymap heatmaps, bipartite-norm curves, and
reflection-ratio sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# perfbench/test_perfbench.py reads parse_config from here.
from .config import ScenarioConfig, _grid, parse_config, scenario_lattice, scenario_v_grid
from .dynamics import Edge, QuenchSpec, _quench_blocks, edge_states, evolve_chebyshev
from .lattice import build_hamiltonian, hamiltonian_bands
from .observables import bipartite_norms, default_split, site_density
from .parallel import _one_blas_thread, thread_count
from .spectral import Sweep, match_branches, spectrum_sweep

__all__ = [
    "time_grid",
    "compute_ratio_sweep",
    "ratio_crossing",
    "run_scenario",
]

_CLAMP_PERCENTILE = 99.0
_PGM_MAXVAL = 65535


def time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.array(_grid(0.0, cfg.t_max, cfg.dt))


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


@dataclass(frozen=True)
class _TiledLabels(Sequence):
    """A text column of ``rows`` cells, row i holding
    ``labels[i // repeat % labels.size]``, each slice built when it is read."""

    labels: np.ndarray  # of str objects
    repeat: int
    rows: int

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, index):
        rows = range(self.rows)[index]
        if isinstance(rows, range):
            rows = np.arange(rows.start, rows.stop, rows.step)
        return self.labels[rows // self.repeat % self.labels.size]


def _write_sweep(path: Path, sweep: Sweep, branch: np.ndarray | None = None) -> Path:
    """One row per (grid point, eigenvalue); a branch column only with labels."""
    points, n = sweep.eigenvalues.shape
    v_labels = np.array([_fmt(v) for v in sweep.v_over_w.tolist()], dtype=object)
    index_labels = np.array([str(i) for i in range(n)], dtype=object)
    columns = {
        "v_over_w": _TiledLabels(v_labels, n, points * n),
        "index": _TiledLabels(index_labels, 1, points * n),
    }
    if branch is not None:
        columns["branch"] = branch.ravel()
    columns["re_e"] = sweep.eigenvalues.real.ravel()
    columns["im_e"] = sweep.eigenvalues.imag.ravel()
    columns["com"] = sweep.com.ravel()
    columns["side"] = [side.value for side in sweep.side.ravel().tolist()]
    return _write_table(path, columns)


def _clamp(densities: np.ndarray) -> float:
    """``np.percentile(densities, _CLAMP_PERCENTILE)``, bit for bit, for
    densities without NaN: numpy's linear rule on the two order statistics
    around the virtual index, found by one partition of a copy."""
    values = densities.ravel()
    index = (values.size - 1) * (_CLAMP_PERCENTILE / 100.0)
    below = math.floor(index)
    above = min(below + 1, values.size - 1)
    lo, hi = np.partition(values, (below, above))[[below, above]].tolist()
    gamma = index - below
    diff = hi - lo
    return hi - diff * (1.0 - gamma) if gamma >= 0.5 else lo + diff * gamma


def _write_heatmap(
    pgm_path: Path, sidecar_path: Path, times: np.ndarray, densities: np.ndarray
) -> list[Path]:
    """Binary 16-bit graymap: rows are sites, columns time samples.

    ``densities`` is the (time, site) table of one trajectory, which this
    overwrites with the pixel values. Intensities are densities clamped to
    their 99th percentile (``_clamp``) so gain spikes do not wash out the
    cone; the clamp is recorded in a sidecar.
    """
    rho_max = _clamp(densities)
    pixels = densities
    if rho_max > 0.0:
        np.divide(pixels, rho_max, out=pixels)
        np.clip(pixels, 0.0, 1.0, out=pixels)
        np.multiply(pixels, _PGM_MAXVAL, out=pixels)
        np.round(pixels, out=pixels)
    else:
        pixels.fill(0.0)
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

def _quench(
    cfg: ScenarioConfig,
) -> Iterator[tuple[Edge, Iterator[tuple[slice, np.ndarray]]]]:
    """Each configured side with the (rows, states) blocks of its trajectory
    on the scenario time grid (see ``dynamics._quench_blocks``)."""
    spec = QuenchSpec(
        initial_config=scenario_lattice(cfg, cfg.v_initial),
        final_config=scenario_lattice(cfg, cfg.v_final),
        sides=tuple(Edge) if cfg.side == "both" else (Edge(cfg.side),),
        times=time_grid(cfg),
    )
    return _quench_blocks(spec, cfg.zero_mode_tol)


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
    times = time_grid(cfg)
    n = 2 * cfg.n_cells
    # Every side's densities exist before any file is opened, so a state that
    # overflows leaves no output.
    tables: dict[Edge, np.ndarray] = {}
    for side, blocks in _quench(cfg):
        tables[side] = densities = np.empty((times.size, n))
        for rows, states in blocks:
            densities[rows] = site_density(states)
    t_labels = np.array([_fmt(t) for t in times.tolist()], dtype=object)
    site_labels = np.array([str(site) for site in range(1, n + 1)], dtype=object)
    columns = {
        "t": _TiledLabels(t_labels, n, times.size * n),
        "site": _TiledLabels(site_labels, 1, times.size * n),
    }
    outputs: list[Path] = []
    for side, densities in tables.items():
        name = f"lightcone_{side.value}"
        columns["density"] = densities.ravel()
        outputs.append(_write_table(out / f"{name}.csv", columns))
        outputs.extend(_write_heatmap(
            out / f"{name}.pgm", out / f"{name}_clamp.txt", times, densities
        ))
    return outputs


def _run_bipartite(cfg: ScenarioConfig, out: Path) -> list[Path]:
    split = default_split(scenario_lattice(cfg, cfg.v_initial))
    times = time_grid(cfg)
    sides, norms = [], []
    for side, blocks in _quench(cfg):
        sides.append(side)
        norms.extend(bipartite_norms(states, split) for _, states in blocks)
    columns = {
        "t": np.tile(times, len(sides)),
        "rho_left": np.concatenate([rho_left for rho_left, _ in norms]),
        "rho_right": np.concatenate([rho_right for _, rho_right in norms]),
        "side_init": [side.value for side in sides for _ in range(times.size)],
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
    half-chain weight is not finite: a growing mode overflowed, or the
    expansion lost its digits to cancellation and returned NaN.
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
            f"is not finite at t={cfg.t_sample:g} (a growing mode overflowed, or "
            "the Chebyshev sum lost its digits to cancellation)"
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


def run_scenario(cfg: ScenarioConfig) -> list[Path]:
    """Run one scenario, returning the paths written (deterministic bytes).

    Every BLAS and LAPACK call of the run is on one BLAS thread, and the
    caller's count is restored after, so the bytes depend neither on the core
    count nor on ``OPENBLAS_NUM_THREADS``.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with _one_blas_thread():
        return _RUNNERS[cfg.scenario](cfg, out)
