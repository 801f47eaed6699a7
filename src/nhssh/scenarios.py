"""Named experiment scenarios over the embedded non-Hermitian chain.

Maps scenario names to deterministic output files: spectrum and reshuffle
tables, light-cone CSVs with graymap heatmaps, bipartite-norm curves, and
reflection-ratio sweeps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import partial
from pathlib import Path

import numpy as np

# perfbench/test_perfbench.py reads parse_config from here.
from .config import ScenarioConfig, _grid, parse_config, scenario_lattice, scenario_v_grid
from .dynamics import Edge, QuenchSpec, _quench_tables, edge_states, evolve_chebyshev
from .lattice import build_hamiltonian, hamiltonian_bands
from .observables import bipartite_norms, default_split, site_density
from .parallel import _one_blas_thread
from .spectral import match_branches, spectrum_sweep

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
def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# Rows of Python values and text that one block of a table holds.
_BLOCK_ROWS = 4096


def _write_table(path: Path, header: str, blocks: Iterable[tuple[str, list]]) -> Path:
    """CSV of the line ``header``, then ``row_format % tuple(values)`` for each
    ``(row_format, values)`` block, written before the next block is built.

    Creates the output directory: every runner writes a table first, after
    all of its data exist, so a run that fails leaves no directory behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        f.write(f"{header}\n".encode("ascii"))
        for row_format, values in blocks:
            f.write((row_format % tuple(values)).encode("ascii"))
    return path


def _values(columns: Sequence[Sequence], rows: slice) -> list:
    """The cells of ``rows`` of ``columns`` as Python values, row by row and
    each row's cells in column order; the columns share their shape."""
    return np.stack(
        [np.array(column[rows], dtype=object) for column in columns], axis=-1
    ).ravel().tolist()


def _flat_rows(fields: str, *columns: Sequence) -> Iterator[tuple[str, list]]:
    """``_write_table`` blocks of up to ``_BLOCK_ROWS`` rows: row i is
    ``fields``, one ``%`` field per column, of the columns' i-th entries."""
    total = len(columns[0])
    for start in range(0, total, _BLOCK_ROWS):
        count = min(_BLOCK_ROWS, total - start)
        yield (fields + "\n") * count, _values(columns, slice(start, start + count))


def _grid_rows(
    labels: Sequence[str], inner: Sequence, fields: str, *columns: np.ndarray
) -> Iterator[tuple[str, list]]:
    """``_write_table`` blocks of the rows ``label,inner,fields`` for each label,
    then each inner value, ``fields`` of the (label, inner) cells of the
    (len(labels), len(inner)) ``columns``.

    The labels and inner values go into the row formats as text, so they hold
    no ``%``. A block holds the rows of as many labels as fit in
    ``_BLOCK_ROWS``, or of one label.
    """
    pieces = ["", *(f",{i},{fields}\n" for i in inner)]
    per_block = max(1, _BLOCK_ROWS // len(inner))
    for start in range(0, len(labels), per_block):
        rows = slice(start, start + per_block)
        yield "".join(label.join(pieces) for label in labels[rows]), _values(columns, rows)


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

def _quench_spec(cfg: ScenarioConfig) -> QuenchSpec:
    """The quench of the configured sides on the scenario time grid."""
    return QuenchSpec(
        initial_config=scenario_lattice(cfg, cfg.v_initial),
        final_config=scenario_lattice(cfg, cfg.v_final),
        sides=tuple(Edge) if cfg.side == "both" else (Edge(cfg.side),),
        times=time_grid(cfg),
        zero_mode_tol=cfg.zero_mode_tol,
    )


def _run_sweep(cfg: ScenarioConfig, out: Path, *, labeled: bool) -> list[Path]:
    """One row per (grid point, eigenvalue); a branch column only with labels."""
    grid = scenario_v_grid(cfg)
    sweep = spectrum_sweep(scenario_lattice(cfg, grid[0]), grid, threshold=cfg.threshold)
    sides = np.array([[side.value for side in row] for row in sweep.side.tolist()], dtype=object)
    columns = [sweep.eigenvalues.real, sweep.eigenvalues.imag, sweep.com, sides]
    header, fields = "re_e,im_e,com,side", "%.12g,%.12g,%.12g,%s"
    if labeled:
        columns.insert(0, match_branches(sweep))
        header, fields = "branch," + header, "%s," + fields
    labels = [_fmt(v) for v in sweep.v_over_w.tolist()]
    blocks = _grid_rows(labels, range(sweep.eigenvalues.shape[1]), fields, *columns)
    return [_write_table(out / f"{cfg.scenario}.csv", "v_over_w,index," + header, blocks)]


def _run_lightcone(cfg: ScenarioConfig, out: Path) -> list[Path]:
    spec = _quench_spec(cfg)
    # Every side's densities exist before any file is opened, so a state that
    # overflows leaves no output.
    tables = _quench_tables(spec, site_density)
    t_labels = [_fmt(t) for t in spec.times.tolist()]
    outputs: list[Path] = []
    for side, densities in tables.items():
        name = f"lightcone_{side.value}"
        blocks = _grid_rows(t_labels, range(1, densities.shape[1] + 1), "%.12g", densities)
        outputs.append(_write_table(out / f"{name}.csv", "t,site,density", blocks))
        outputs.extend(_write_heatmap(
            out / f"{name}.pgm", out / f"{name}_clamp.txt", spec.times, densities
        ))
    return outputs


def _run_bipartite(cfg: ScenarioConfig, out: Path) -> list[Path]:
    spec = _quench_spec(cfg)
    split = default_split(spec.initial_config)
    tables = _quench_tables(spec, lambda states: np.column_stack(bipartite_norms(states, split)))
    blocks = (
        block for side, norms in tables.items()
        for block in _flat_rows(f"%.12g,%.12g,%.12g,{side.value}", spec.times, *norms.T)
    )
    return [_write_table(out / "bipartite.csv", "t,rho_left,rho_right,side_init", blocks)]


def compute_ratio_sweep(cfg: ScenarioConfig) -> dict[str, np.ndarray]:
    """Reflection ratio at t_sample for every final v/w on the sweep grid.

    Returns the ``ratio_sweep.csv`` columns as arrays keyed by their header
    names. Both edge states are prepared once from the initial Hamiltonian,
    then the whole grid is evolved in one batched Chebyshev expansion on the
    bands of each final Hamiltonian (``evolve_chebyshev``). ``run_scenario``
    runs it on one BLAS thread, like every scenario, so its bytes depend
    neither on the core count nor on ``OPENBLAS_NUM_THREADS``; a direct call
    uses the caller's BLAS threads. Raises RuntimeError at the first grid
    point whose left-half weight or ratio is not finite: a growing mode
    overflowed, the expansion lost its digits to cancellation and returned
    NaN, or the left half's weight vanished.
    """
    lattice_initial = scenario_lattice(cfg, cfg.v_initial)
    psi0 = edge_states(build_hamiltonian(lattice_initial), cfg.zero_mode_tol)
    split = default_split(lattice_initial)
    grid = np.array(scenario_v_grid(cfg))
    # Two lanes per grid point, sharing its bands: the left edge state, then the right.
    lanes = []
    for ratio in grid:
        bands = hamiltonian_bands(scenario_lattice(cfg, ratio))
        lanes += [(*bands, psi0[Edge.LEFT]), (*bands, psi0[Edge.RIGHT])]
    states = evolve_chebyshev(*map(np.array, zip(*lanes)), cfg.t_sample)
    left, right = bipartite_norms(states, split)
    left, right = left[0::2], right[1::2]
    with np.errstate(all="ignore"):
        ratio = right / left
    finite = np.isfinite(left) & np.isfinite(ratio)
    if not finite.all():
        raise RuntimeError(
            f"the evolved edge-state weight or ratio at v/w={grid[np.argmin(finite)]:g} "
            f"is not finite at t={cfg.t_sample:g} (a growing mode overflowed, the "
            "Chebyshev sum lost its digits to cancellation, or the left half's weight vanished)"
        )
    return {
        "v_over_w": grid,
        "rho_right_init_right_half": right,
        "rho_left_init_left_half": left,
        "ratio": ratio,
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
    table = compute_ratio_sweep(cfg)
    blocks = _flat_rows(",".join(["%.12g"] * len(table)), *table.values())
    return [_write_table(out / "ratio_sweep.csv", ",".join(table), blocks)]


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
    with _one_blas_thread():
        return _RUNNERS[cfg.scenario](cfg, Path(cfg.output_dir))
