"""Output checks that do not depend on golden bytes, run in a process of their own.

Each check reads the files one iteration wrote and compares them with values
the benchmark computes itself: eigenvalues from ``np.linalg.eigvals`` and
trajectories from the propagator route, which is independent of the spectral
route the scenarios take. Reference values are computed once per run and kept
in the ``cache`` dict the caller passes. A check raises CheckFailed on the
first mismatch.

Run as a script, this module serves one run of one workload:

    PYTHONPATH=src python3 perfbench/checks.py <workload> <seed>

It first writes one JSON line describing the machine, then answers each output
directory read from stdin with one JSON line, ``{"error": null}`` or
``{"error": "<message>"}``. numpy and nhssh stay in this process, so the
benchmark process that starts the CLI keeps a small memory footprint.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from pathlib import Path

import numpy as np
from nhssh import Edge, LatticeConfig, build_hamiltonian, evolve_propagator, initial_edge_state

from workloads import DT, TIME_SAMPLES, WORKLOADS

N_CELLS = 110
N_SITES = 2 * N_CELLS
REGION = (109, 112)
SPLIT_SITE = (REGION[0] + REGION[1]) // 2  # left half is sites 1..SPLIT_SITE
V_INITIAL = 0.25
# Floats are printed with 12 significant digits.
PRINT_RTOL = 1e-11
ORACLE_TOL = 1e-8
PGM_MAXVAL = 65535


class CheckFailed(Exception):
    """An output file disagrees with the benchmark's own reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _hamiltonian(v_over_w: float) -> np.ndarray:
    return build_hamiltonian(LatticeConfig(
        n_cells=N_CELLS, v=v_over_w, w=1.0, region_start=REGION[0],
        region_end=REGION[1], u_re=0.75, u_im=0.75,
    ))


def _edge_states() -> dict[str, np.ndarray]:
    h_initial = _hamiltonian(V_INITIAL)
    return {side: initial_edge_state(h_initial, Edge(side)) for side in ("left", "right")}


def _propagated(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    return evolve_propagator(h, psi0, times).states


def _samples(seed: int, count: int, extra: int) -> list[int]:
    """First and last index plus ``extra`` interior ones, fixed by the seed."""
    interior = random.Random(f"{seed}-sample").sample(range(1, count - 1), extra)
    return sorted({0, count - 1, *interior})


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float, atol: float) -> bool:
    return bool(np.all(np.abs(actual - expected) <= atol + rtol * np.abs(expected)))


def _table(path: Path, header: str, rows: int, columns: int) -> np.ndarray:
    with path.open(encoding="ascii") as f:
        _require(f.readline().rstrip("\n") == header, f"{path.name}: header is not {header!r}")
        data = np.loadtxt(f, delimiter=",", usecols=range(columns), ndmin=2)
    _require(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, expected {rows}")
    return data


def check_spectrum(inputs, out: Path, cache: dict) -> None:
    grid = np.array(inputs.grid)
    data = _table(out / "spectrum.csv", "v_over_w,index,branch,re_e,im_e,com,side",
                  grid.size * N_SITES, 6).reshape(grid.size, N_SITES, 6)
    _require(_close(data[:, :, 0], grid[:, None], PRINT_RTOL, 0.0), "spectrum: v/w grid differs")
    _require(np.array_equal(data[:, :, 1], np.broadcast_to(np.arange(N_SITES), data.shape[:2])),
             "spectrum: index column is not 0..n-1 at every grid point")
    _require(np.array_equal(np.sort(data[:, :, 2], axis=1),
                            np.broadcast_to(np.arange(N_SITES), data.shape[:2])),
             "spectrum: branch column is not a permutation at every grid point")
    if "eigvals" not in cache:
        picks = _samples(inputs.seed, grid.size, 2)
        cache["eigvals"] = {g: np.linalg.eigvals(_hamiltonian(grid[g])) for g in picks}
    for g, reference in cache["eigvals"].items():
        printed = data[g, :, 3] + 1j * data[g, :, 4]
        distance = np.abs(printed[:, None] - reference[None, :])
        tol = PRINT_RTOL * (1.0 + np.abs(reference).max())
        # Both sets within print precision of each other, in either direction.
        _require(distance.min(axis=1).max() <= tol and distance.min(axis=0).max() <= tol,
                 f"spectrum: eigenvalues at v/w={grid[g]!r} differ from eigvals")


def check_quench_pair(inputs, out: Path, cache: dict) -> None:
    times = np.array([k * DT for k in range(TIME_SAMPLES)])
    picks = _samples(inputs.seed, times.size, 3)
    if "densities" not in cache:
        h_final = _hamiltonian(inputs.v_final)
        cache["densities"] = {
            side: np.abs(_propagated(h_final, psi0, times[picks])) ** 2
            for side, psi0 in _edge_states().items()
        }
    bipartite = _table(out / "bipartite.csv", "t,rho_left,rho_right,side_init",
                       2 * times.size, 3).reshape(2, times.size, 3)
    sides = [line.rsplit(",", 1)[1] for line in
             (out / "bipartite.csv").read_text(encoding="ascii").splitlines()[1:]]
    _require(sides == ["left"] * times.size + ["right"] * times.size,
             "bipartite: side_init column is not left then right")
    for k, side in enumerate(("left", "right")):
        cone = _table(out / f"lightcone_{side}.csv", "t,site,density",
                      times.size * N_SITES, 3).reshape(times.size, N_SITES, 3)
        _require(_close(cone[:, :, 0], times[:, None], PRINT_RTOL, 0.0),
                 f"lightcone_{side}: time column differs")
        _require(np.array_equal(cone[:, :, 1], np.broadcast_to(np.arange(1, N_SITES + 1),
                                                               cone.shape[:2])),
                 f"lightcone_{side}: site column is not 1..n at every time")
        density = cone[:, :, 2]
        reference = cache["densities"][side]
        scale = max(1.0, float(reference.max()))
        _require(_close(density[picks], reference, 0.0, ORACLE_TOL * scale),
                 f"lightcone_{side}: densities differ from the propagator route")
        _require(_close(bipartite[k, :, 0], times, PRINT_RTOL, 0.0),
                 f"bipartite ({side}): time column differs")
        halves = bipartite[k, :, 1] + bipartite[k, :, 2]
        _require(_close(halves, density.sum(axis=1), 10 * PRINT_RTOL, PRINT_RTOL),
                 f"bipartite ({side}): rho_left + rho_right differs from the density sum")
        _require(_close(bipartite[k, picks, 1], reference[:, :SPLIT_SITE].sum(axis=1),
                        0.0, ORACLE_TOL * scale),
                 f"bipartite ({side}): rho_left differs from the propagator route")
        header = f"P5\n{times.size} {N_SITES}\n{PGM_MAXVAL}\n".encode("ascii")
        pgm = (out / f"lightcone_{side}.pgm").read_bytes()
        _require(pgm.startswith(header) and len(pgm) == len(header) + 2 * times.size * N_SITES,
                 f"lightcone_{side}.pgm: wrong header or size")
        _require((out / f"lightcone_{side}_clamp.txt").is_file(),
                 f"lightcone_{side}_clamp.txt is missing")


def check_ratio_sweep(inputs, out: Path, cache: dict) -> None:
    grid = np.array(inputs.grid)
    data = _table(out / "ratio_sweep.csv",
                  "v_over_w,rho_right_init_right_half,rho_left_init_left_half,ratio",
                  grid.size, 4)
    _require(_close(data[:, 0], grid, PRINT_RTOL, 0.0), "ratio_sweep: v/w grid differs")
    _require(bool(np.all(np.isfinite(data[:, 1:]))), "ratio_sweep: non-finite values")
    if "ratios" not in cache:
        psi = _edge_states()
        reference = {}
        for g in _samples(inputs.seed, grid.size, 2):
            h_final = _hamiltonian(grid[g])
            times = np.array([inputs.t_sample])
            right = np.abs(_propagated(h_final, psi["right"], times)[-1]) ** 2
            left = np.abs(_propagated(h_final, psi["left"], times)[-1]) ** 2
            rho_right, rho_left = right[SPLIT_SITE:].sum(), left[:SPLIT_SITE].sum()
            reference[g] = np.array([rho_right, rho_left, rho_right / rho_left])
        cache["ratios"] = reference
    for g, reference in cache["ratios"].items():
        _require(_close(data[g, 1:], reference, ORACLE_TOL, 0.0),
                 f"ratio_sweep: row at v/w={grid[g]!r} differs from the propagator route")


CHECKS = {
    "spectrum-sweep": check_spectrum,
    "quench-pair": check_quench_pair,
    "ratio-sweep": check_ratio_sweep,
    "ratio-sweep-t2": check_ratio_sweep,
}


def _openblas_threads() -> str:
    """Thread count of the OpenBLAS numpy loaded, read without setting it."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return str(getter())
    return "unknown"


def machine() -> dict[str, object]:
    """The machine and settings a result was measured with, as this process sees them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        effective = _openblas_threads()
    except OSError:
        effective = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "openblas_threads_effective": effective,
        "NHSSH_THREADS": os.environ.get("NHSSH_THREADS", "unset"),
    }


def serve(workload: str, seed: int, requests, replies) -> None:
    """Write the machine line, then one reply line per output directory requested."""
    inputs = WORKLOADS[workload].make_inputs(seed)
    check, cache = CHECKS[workload], {}
    replies.write(json.dumps(machine()) + "\n")
    replies.flush()
    for line in requests:
        try:
            check(inputs, Path(line.rstrip("\n")), cache)
            error = None
        except Exception as exc:  # a malformed file can break a check in any way
            error = f"{type(exc).__name__}: {exc}"
        replies.write(json.dumps({"error": error}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]), sys.stdin, sys.stdout)
