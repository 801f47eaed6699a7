"""Edge-state preparation and quench evolution.

Two independent routes compute the same trajectories: expansion in the
biorthogonal eigenbasis (one decomposition, then phases), and repeated
application of an exact step propagator, a scaled-and-squared truncated
power series that raises where it misses its tail bound. The second serves
as the oracle for the first and takes over near exceptional points, where
the eigenbasis is too ill-conditioned to invert. ``_quench_tables`` is the
one place that chooses between them: it decomposes each Hamiltonian once and
writes a caller's reduction of every side's states into one table per side,
in blocks of ``_TIME_BLOCK`` samples on the spectral route and as one block
on the propagator route; ``run_quench`` keeps the states themselves, and
``evolve_spectral`` concatenates the spectral route's blocks.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import DEFAULT_ZERO_MODE_TOL, LatticeConfig
from .lattice import build_hamiltonian
from .observables import site_density
from .spectral import Eigensystem, _checked, _sorted_eig, eigendecompose

__all__ = [
    "Edge",
    "NoEdgeStateError",
    "NearDefectiveError",
    "Trajectory",
    "QuenchSpec",
    "edge_states",
    "initial_edge_state",
    "evolve_spectral",
    "evolve_propagator",
    "run_quench",
    "CONDITION_CEILING",
    "DEFAULT_STEP_TOL",
]

# Largest 1-norm condition of a right-eigenvector matrix that the spectral
# route evolves in; past it (or at NaN or inf) the propagator takes over.
CONDITION_CEILING = 1e10
DEFAULT_STEP_TOL = 1e-12
# Time samples in one block of the spectral route. OpenBLAS's zgemm gives
# every column the bits of the whole-grid product at 64, 128 and 256 columns
# (not at 1, 7, 100 or 500), so the block size is not a free choice.
_TIME_BLOCK = 128

_TAYLOR_MAX_TERMS = 48
_SCALE_TARGET = 0.5


class Edge(Enum):
    LEFT = "left"
    RIGHT = "right"


class NoEdgeStateError(RuntimeError):
    """No pair of near-zero modes to build the edge states from (e.g. v/w > 1)."""


class NearDefectiveError(RuntimeError):
    """Eigenvector matrix too ill-conditioned for the biorthogonal route."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complex amplitudes on a (time, site) grid, with derived densities."""

    times: np.ndarray
    states: np.ndarray

    @property
    def densities(self) -> np.ndarray:
        return site_density(self.states)


@dataclass(frozen=True, eq=False)
class QuenchSpec:
    """A sudden v change for the edge states in ``sides``, the initial H's two
    modes with |E| < ``zero_mode_tol``; the configs differ only in v."""

    initial_config: LatticeConfig
    final_config: LatticeConfig
    sides: tuple[Edge, ...]
    times: np.ndarray
    zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL

    def __post_init__(self) -> None:
        if replace(self.initial_config, v=0.0) != replace(self.final_config, v=0.0):
            raise ValueError("initial and final configs may differ only in v")
        sides = tuple(self.sides)
        if not sides or len(set(sides)) != len(sides) or not set(sides) <= set(Edge):
            raise ValueError(f"sides must be distinct Edge members, got {self.sides!r}")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "times", _checked_times(self.times))


def _checked_times(times: np.ndarray, grid: bool = True) -> np.ndarray:
    """times as a 1-D float array if they are nonempty and finite and, for a
    sample ``grid``, start at t >= 0 and strictly increase; ValueError otherwise."""
    times = np.ravel(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if grid and times[0] < 0:
        raise ValueError("times must start at t >= 0")
    if grid and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def edge_states(
    h_initial: np.ndarray, zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL
) -> dict[Edge, np.ndarray]:
    """Unit-norm edge states on both sides of the chain, from one eigen step.

    The two near-zero eigenvectors are numerically degenerate for small v/w,
    so any individual eigenvector is an arbitrary mixture of the left and
    right modes. Within their orthonormalized span each side gets the unit
    vector with maximal weight on its outermost cell, which makes the
    selection deterministic; the global phase is fixed by making the
    largest-modulus amplitude real and positive. NoEdgeStateError unless
    exactly two |E| lie below zero_mode_tol: a third, such as a block mode
    at an exceptional point at zero energy, could take an edge mode's place.
    """
    if h_initial.shape[0] < 4:
        raise NoEdgeStateError(
            f"edge states need a chain of at least 4 sites, got {h_initial.shape[0]}"
        )
    eigenvalues, right = _sorted_eig(h_initial)
    moduli = np.abs(eigenvalues)
    order = np.argsort(moduli, kind="stable")
    count = np.count_nonzero(moduli < zero_mode_tol)
    if count != 2:
        raise NoEdgeStateError(
            f"edge states need exactly 2 modes with |E| < {zero_mode_tol:g}, found {count}; "
            f"the three smallest |E| are {', '.join(f'{m:.3e}' for m in moduli[order[:3]])}"
        )
    i, j = order[:2]
    q1 = right[:, i]
    q1 = q1 / np.linalg.norm(q1)
    q2 = right[:, j] - (q1.conj() @ right[:, j]) * q1
    norm2 = np.linalg.norm(q2)
    if norm2 == 0.0:
        raise NoEdgeStateError("zero-mode eigenvectors are parallel; span collapsed")
    span = np.column_stack([q1, q2 / norm2])

    n = span.shape[0]
    states = {}
    for side, outer in ((Edge.LEFT, [0, 1]), (Edge.RIGHT, [n - 2, n - 1])):
        block = span[outer, :]
        # Weight on the outer cell is a 2x2 Hermitian form over the span.
        _, vecs = np.linalg.eigh(block.conj().T @ block)
        psi = span @ vecs[:, -1]
        k = int(np.argmax(np.abs(psi)))
        psi = psi * (abs(psi[k]) / psi[k])
        states[side] = psi / np.linalg.norm(psi)
    return states


def initial_edge_state(
    h_initial: np.ndarray,
    side: Edge,
    zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL,
) -> np.ndarray:
    """Unit-norm edge state on the requested side of the chain (see edge_states)."""
    return edge_states(h_initial, zero_mode_tol)[side]


def evolve_spectral(
    es: Eigensystem, psi0: np.ndarray, times: np.ndarray
) -> Trajectory:
    """Evolve by expanding psi0 in the biorthogonal basis.

    psi(t) = sum_n <phi_n|psi0> exp(-i E_n t) |psi_n>; the expansion
    coefficients are computed once and reused for every requested time. Any
    nonempty, finite times, flattened to 1-D, in any order and of any sign.
    """
    times = _checked_times(times, grid=False)
    if not es.condition <= CONDITION_CEILING:
        raise NearDefectiveError(
            f"right-vector condition {es.condition:.3e} exceeds the ceiling; "
            "use evolve_propagator"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (es.dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}, expected ({es.dim},)")
    states = np.concatenate([states for _, states in _spectral_blocks(es, psi0, times)])
    return Trajectory(times=times, states=states)


def _spectral_blocks(
    es: Eigensystem, psi0: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, states) for each block of up to _TIME_BLOCK samples of the
    spectral route, states as a (time, site) view; the caller checks es and psi0."""
    coeff = es.left_vectors.conj().T @ psi0
    for start in range(0, times.size, _TIME_BLOCK):
        rows = slice(start, min(start + _TIME_BLOCK, times.size))
        # One (eigenvalue, time) table, transformed in place. The operands keep
        # the order of -1j * x and coeff * x: a complex product can differ in
        # its last bit when they are swapped.
        phases = np.outer(es.eigenvalues, times[rows])
        np.multiply(-1j, phases, out=phases)
        np.exp(phases, out=phases)
        np.multiply(coeff[:, np.newaxis], phases, out=phases)
        # The block's states take the table's place, so it is not held while
        # the block is read.
        phases = es.right_vectors @ phases
        yield rows, phases.T


def _step_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt): a power series of -i h dt / 2^s, whose 1-norm is at most
    _SCALE_TARGET, squared s times (Moler & Van Loan, SIAM Rev. 45, 3, 2003).
    The series stops when a geometric bound on its tail meets
    DEFAULT_STEP_TOL / (4 2^s), the budget for the squarings; RuntimeError if
    _TAYLOR_MAX_TERMS terms miss it, which takes s >= 216.
    """
    a = -1j * dt * h
    norm_a = np.linalg.norm(a, 1)
    squarings = 0
    if norm_a > _SCALE_TARGET:
        # Capped where 2.0**s overflows; a step that long misses the bound.
        squarings = int(min(np.ceil(np.log2(norm_a / _SCALE_TARGET)), 1023.0))
    b = a / 2.0**squarings
    tol = DEFAULT_STEP_TOL / (4.0 * 2.0**squarings)
    norm_b = np.linalg.norm(b, 1)
    p = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = term @ b / k
        p += term
        ratio = norm_b / (k + 1)
        if ratio < 1.0 and np.linalg.norm(term, 1) * ratio / (1.0 - ratio) <= tol:
            break
    else:
        raise RuntimeError(f"propagator step dt={dt:g}: series misses its tail bound")
    for _ in range(squarings):
        p = p @ p
    return p


def evolve_propagator(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> Trajectory:
    """March psi0 through exact step propagators between the sampled times.

    psi0 is the state at t = 0; the first sample follows after advancing by
    times[0]. Propagators are cached per distinct rounded step t_k - t_{k-1}:
    only a dyadic dt costs one matrix exponential (dt = 0.2 to t = 500 has 12
    distinct steps). Times are checked as QuenchSpec does.
    """
    h = _checked(h)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ValueError(f"psi0 has shape {psi.shape}, expected ({h.shape[0]},)")
    times = _checked_times(times)

    cache: dict[float, np.ndarray] = {}
    states = np.empty((times.size, psi.shape[0]), dtype=complex)
    prev_t = 0.0
    for k, t in enumerate(times):
        dt = float(t - prev_t)
        if dt > 0.0:
            prop = cache.get(dt)
            if prop is None:
                prop = _step_propagator(h, dt)
                cache[dt] = prop
            psi = prop @ psi
        states[k] = psi
        prev_t = float(t)
    return Trajectory(times=times, states=states)


def run_quench(spec: QuenchSpec) -> dict[Edge, Trajectory]:
    """Prepare the edge states of the initial Hamiltonian and evolve the
    requested sides under the final one, each Hamiltonian decomposed once.

    The trajectories are ``_quench_tables``' states, unreduced; RuntimeError
    when a side's state stops being finite (a growing mode overflowed).
    """
    tables = _quench_tables(spec, lambda states: states)
    return {side: Trajectory(times=spec.times, states=states) for side, states in tables.items()}


def _quench_tables(
    spec: QuenchSpec, reduce: Callable[[np.ndarray], np.ndarray]
) -> dict[Edge, np.ndarray]:
    """For each requested side, the table whose rows are ``reduce`` of its
    (time, site) states, row for row, in time order.

    The edge states and the final eigenbasis are prepared, and the route
    chosen, once: the spectral route in blocks of _TIME_BLOCK samples, or the
    step propagator as one block when the 1-norm condition of the final
    eigenbasis exceeds ``CONDITION_CEILING`` (or is not finite). Each block
    is reduced into its side's table before the next exists, and only once it
    is finite; RuntimeError names the side and the first time at which it is
    not (a growing mode overflowed).
    """
    psi0 = edge_states(build_hamiltonian(spec.initial_config), spec.zero_mode_tol)
    h_final = build_hamiltonian(spec.final_config)
    es = eigendecompose(h_final)
    use_propagator = not es.condition <= CONDITION_CEILING
    times = spec.times
    tables: dict[Edge, np.ndarray] = {}
    for side in spec.sides:
        if use_propagator:
            blocks = [(slice(0, times.size), evolve_propagator(h_final, psi0[side], times).states)]
        else:
            blocks = _spectral_blocks(es, psi0[side], times)
        for rows, states in blocks:
            finite = np.isfinite(states).all(axis=1)
            if not finite.all():
                t = times[rows][np.argmin(finite)]
                raise RuntimeError(
                    f"quench evolution of the {side.value} edge state is not finite at t={t:g}"
                )
            reduced = reduce(states)
            if side not in tables:
                tables[side] = np.empty((times.size, *reduced.shape[1:]), reduced.dtype)
            tables[side][rows] = reduced
    return tables
