"""Edge-state preparation and quench evolution.

Two independent routes compute the same trajectories: expansion in the
biorthogonal eigenbasis (one decomposition, then phases), and repeated
application of an exact step propagator built from a norm-controlled,
scaled-and-squared truncated power series. The second serves as the oracle
for the first and takes over near exceptional points, where the eigenbasis
is too ill-conditioned to invert. A third route, a truncated Taylor series
on the bands of a batch of tridiagonal Hamiltonians, evolves a whole sweep
grid to one time without any eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .lattice import LatticeConfig, build_hamiltonian
from .spectral import (
    DEFAULT_CONDITION_CEILING,
    Eigensystem,
    NearDefectiveError,
    _sorted_eig,
    eigendecompose,
    zero_mode_report,
)

__all__ = [
    "Edge",
    "NoEdgeStateError",
    "Trajectory",
    "QuenchSpec",
    "edge_states",
    "initial_edge_state",
    "evolve_spectral",
    "evolve_propagator",
    "evolve_taylor",
    "evolve",
    "evolve_states",
    "run_quench",
    "DEFAULT_ZERO_MODE_TOL",
    "DEFAULT_STEP_TOL",
]

DEFAULT_ZERO_MODE_TOL = 1e-3
DEFAULT_STEP_TOL = 1e-12

_TAYLOR_MAX_TERMS = 48
_SCALE_TARGET = 0.5
_MAX_HALVINGS = 32
# ||H tau||_1 per step of evolve_taylor (about the cheapest total of terms at
# double precision), and its cap on terms per step: theta^j / j! falls below
# 1e-20 by j = 50.
_ACTION_THETA = 7.0
_ACTION_MAX_TERMS = 100


class Edge(Enum):
    LEFT = "left"
    RIGHT = "right"


class NoEdgeStateError(RuntimeError):
    """No near-zero modes to build an edge state from (e.g. v/w > 1)."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Complex amplitudes on a (time, site) grid, with derived densities."""

    times: np.ndarray
    states: np.ndarray

    @property
    def densities(self) -> np.ndarray:
        return np.abs(self.states) ** 2


@dataclass(frozen=True, eq=False)
class QuenchSpec:
    """A sudden v change for the edge states in ``sides``; configs differ only in v."""

    initial_config: LatticeConfig
    final_config: LatticeConfig
    sides: tuple[Edge, ...]
    times: np.ndarray

    def __post_init__(self) -> None:
        if replace(self.initial_config, v=0.0) != replace(self.final_config, v=0.0):
            raise ValueError("initial and final configs may differ only in v")
        sides = tuple(self.sides)
        if not sides or len(set(sides)) != len(sides) or not set(sides) <= set(Edge):
            raise ValueError(f"sides must be distinct Edge members, got {self.sides!r}")
        object.__setattr__(self, "sides", sides)
        times = np.asarray(self.times, dtype=float)
        if times.size == 0:
            raise ValueError("times must be nonempty")
        if times[0] < 0:
            raise ValueError("times must start at t >= 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)


def edge_states(
    h_initial: np.ndarray, zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL
) -> dict[Edge, np.ndarray]:
    """Unit-norm edge states on both sides of the chain, from one eigen step.

    The two near-zero eigenvectors are numerically degenerate for small v/w,
    so any individual eigenvector is an arbitrary mixture of the left and
    right modes. Within their orthonormalized span each side gets the unit
    vector with maximal weight on its outermost cell, which makes the
    selection deterministic; the global phase is fixed by making the
    largest-modulus amplitude real and positive.
    """
    eigenvalues, right = _sorted_eig(h_initial, pt_real=True)
    report = zero_mode_report(eigenvalues)
    if report.min_abs_e >= zero_mode_tol:
        raise NoEdgeStateError(
            f"no zero modes: min |E| = {report.min_abs_e:.3e} >= {zero_mode_tol:g}"
        )
    i, j = report.indices
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
    coefficients are computed once and reused for every requested time.
    """
    if es.near_defective:
        raise NearDefectiveError(
            f"right-vector condition {es.condition:.3e} exceeds the ceiling; "
            "use evolve_propagator"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (es.dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}, expected ({es.dim},)")
    times = np.asarray(times, dtype=float)
    coeff = es.left_vectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(es.eigenvalues, times))
    states = (es.right_vectors @ (coeff[:, np.newaxis] * phases)).T
    return Trajectory(times=times, states=states)


def _taylor_exp(b: np.ndarray, tol: float) -> np.ndarray | None:
    """Truncated power series for exp(b), or None if the tail bound fails."""
    dim = b.shape[0]
    norm_b = np.linalg.norm(b, 1)
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = term @ b / k
        result += term
        ratio = norm_b / (k + 1)
        if ratio < 1.0:
            # Geometric bound on the dropped tail.
            tail = np.linalg.norm(term, 1) * ratio / (1.0 - ratio)
            if tail <= tol:
                return result
    return None


def _step_propagator(
    h: np.ndarray, dt: float, tol: float, depth: int = 0
) -> np.ndarray:
    """exp(-i h dt) by argument scaling, truncated series, repeated squaring."""
    if depth > _MAX_HALVINGS:
        raise RuntimeError("propagator step halving failed to converge")
    a = -1j * dt * h
    norm_a = np.linalg.norm(a, 1)
    squarings = 0
    if norm_a > _SCALE_TARGET:
        squarings = int(np.ceil(np.log2(norm_a / _SCALE_TARGET)))
    # Budget for error growth under the squarings that follow.
    local_tol = tol / (4.0 * 2.0**squarings)
    p = _taylor_exp(a / 2.0**squarings, local_tol)
    if p is None:
        half = _step_propagator(h, dt / 2.0, tol, depth + 1)
        return half @ half
    for _ in range(squarings):
        p = p @ p
    return p


def evolve_propagator(
    h: np.ndarray,
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    step_tol: float = DEFAULT_STEP_TOL,
) -> Trajectory:
    """March psi0 through exact step propagators between the sampled times.

    psi0 is the state at t = 0; the first sample follows after advancing by
    times[0]. Propagators are cached per distinct step size, so uniform grids
    cost a single matrix exponential.
    """
    h = np.asarray(h, dtype=complex)
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix entries must be finite")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ValueError(f"psi0 has shape {psi.shape}, expected ({h.shape[0]},)")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be nonnegative and strictly increasing")

    cache: dict[float, np.ndarray] = {}
    states = np.empty((times.size, psi.shape[0]), dtype=complex)
    prev_t = 0.0
    for k, t in enumerate(times):
        dt = float(t - prev_t)
        if dt > 0.0:
            prop = cache.get(dt)
            if prop is None:
                prop = _step_propagator(h, dt, step_tol)
                cache[dt] = prop
            psi = prop @ psi
        states[k] = psi
        prev_t = float(t)
    return Trajectory(times=times, states=states)


def evolve_taylor(
    diagonal: np.ndarray, off_diagonal: np.ndarray, states: np.ndarray, t: float
) -> np.ndarray:
    """Evolve a batch of state blocks to time t, each under its own tridiagonal H.

    Member g has H_g with complex diagonal ``diagonal[g]`` (n,) and the real
    ``off_diagonal[g]`` (n - 1,) on both sides, as ``hamiltonian_bands`` gives;
    ``states[g]`` is a (k, n) block of states, one per row. Returns
    exp(-i H_g t) states[g] for every g as a (G, k, n) array.

    The action is a truncated Taylor series on the three bands (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 2011): no dense matrix, no LAPACK. Member
    g takes ceil(||H_g||_1 t / theta) equal steps, and within a step it stops
    adding terms once two consecutive terms are below unit roundoff times the
    max |psi| of its state at the step's start; from then on its terms are
    exact zeros. All arithmetic is elementwise on real and imaginary parts, so
    a member's values do not depend on the rest of the batch. At t = 0 the
    states come back unchanged.
    """
    diagonal = np.asarray(diagonal, dtype=complex)
    off_diagonal = np.asarray(off_diagonal, dtype=float)
    states = np.asarray(states, dtype=complex)
    members, n = diagonal.shape
    if off_diagonal.shape != (members, n - 1):
        raise ValueError(
            f"off_diagonal has shape {off_diagonal.shape}, expected ({members}, {n - 1})"
        )
    if states.ndim != 3 or states.shape[0] != members or states.shape[2] != n:
        raise ValueError(f"states has shape {states.shape}, expected ({members}, k, {n})")
    if not (np.all(np.isfinite(diagonal.view(float))) and np.all(np.isfinite(off_diagonal))):
        raise ValueError("band entries must be finite")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t == 0.0:
        return states.copy()

    # ||H||_1 column by column; H = H^T, so it also bounds ||H x||_inf / ||x||_inf.
    column = np.sqrt(diagonal.real * diagonal.real + diagonal.imag * diagonal.imag)
    column[:, :-1] += np.abs(off_diagonal)
    column[:, 1:] += np.abs(off_diagonal)
    steps = np.maximum(1, np.ceil(column.max(axis=1) * t / _ACTION_THETA)).astype(int)

    # A state block lives in a flat (2, (n + 2) * G * k) array: real and
    # imaginary parts, then sites -1..n (the two end sites stay zero), then
    # members and states. The hoppings then act as two shifts of the flat
    # array and the on-site block as one contiguous slab. Reversing the first
    # axis gives (Im, Re), so
    #   -i H tau psi = tau (D_im psi + sign (D_re + E) reversed(psi)),
    # with sign = (+1, -1); tau and sign are folded into the coefficients.
    k = states.shape[1]
    stride = members * k  # one site of every member and state
    sign = np.array([1.0, -1.0])[:, None, None, None]
    tau = (t / steps)[None, None, :, None]
    hops = np.zeros((2, n + 1, members, k))  # bond b joins sites b - 1 and b
    hops[:, 1:n] = sign * tau * off_diagonal.T[None, :, :, None]
    hop_left, hop_right = hops[:, :-1].reshape(2, -1), hops[:, 1:].reshape(2, -1)
    # The on-site block is nonzero on a few sites only: apply it there.
    sites = np.flatnonzero(np.any(diagonal != 0, axis=0))
    block = slice(sites.min(), sites.max() + 1) if sites.size else slice(0, 0)
    on_site_re = sign * tau * diagonal.real.T[None, block, :, None]
    on_site_im = tau * diagonal.imag.T[None, block, :, None]

    def padded() -> tuple[np.ndarray, np.ndarray]:
        flat = np.zeros((2, (n + 2) * stride))
        return flat, flat.reshape(2, n + 2, members, k)[:, 1:-1]

    squares, moduli = np.empty((2, (n + 2) * stride)), np.empty((n + 2) * stride)

    def max_abs2(flat: np.ndarray) -> np.ndarray:
        """Per member, the largest |psi|^2 of a flat block."""
        np.square(flat, out=squares)
        np.add(squares[0], squares[1], out=moduli)
        # Sites first: one max over axes (0, 2) at once is about 30x slower.
        per_state = moduli.reshape(n + 2, stride).max(axis=0)
        return per_state.reshape(members, k).max(axis=1)

    psi_flat, psi = padded()
    psi[0], psi[1] = states.real.transpose(2, 0, 1), states.imag.transpose(2, 0, 1)
    term_flat, term = padded()
    next_flat, next_term = padded()
    scratch = np.empty_like(hop_left)
    tol2 = (np.finfo(float).eps / 2.0) ** 2  # unit roundoff, squared
    for step in range(int(steps.max())):
        live = step < steps
        bound = tol2 * max_abs2(psi_flat)
        np.copyto(term_flat, psi_flat)
        term[:, :, ~live] = 0.0
        small = np.zeros(members, dtype=bool)
        for j in range(1, _ACTION_MAX_TERMS + 1):
            swapped, out = term_flat[::-1], next_flat[:, stride:-stride]
            np.multiply(hop_left, swapped[:, : -2 * stride], out=out)
            np.multiply(hop_right, swapped[:, 2 * stride :], out=scratch)
            out += scratch
            next_term[:, block] += on_site_re * term[::-1, block]
            next_term[:, block] += on_site_im * term[:, block]
            out *= 1.0 / j
            term_flat, next_flat = next_flat, term_flat
            term, next_term = next_term, term
            psi_flat += term_flat
            was_small, small = small, max_abs2(term_flat) <= bound
            stopped = live & small & was_small
            if stopped.any():
                term[:, :, stopped] = 0.0
                live &= ~stopped
                if not live.any():
                    break
        else:
            raise RuntimeError("Taylor series failed to converge within a step")
    result = np.empty(states.shape, dtype=complex)
    result.real, result.imag = psi[0].transpose(1, 2, 0), psi[1].transpose(1, 2, 0)
    return result


def evolve(
    h: np.ndarray, es: Eigensystem, psi0: np.ndarray, times: np.ndarray
) -> Trajectory:
    """Evolve psi0 under h, whose eigensystem is es.

    The spectral route is preferred; when its eigenbasis is flagged as
    near-defective the step-propagator route takes over.
    """
    if es.near_defective:
        return evolve_propagator(h, psi0, times)
    return evolve_spectral(es, psi0, times)


def evolve_states(
    h: np.ndarray,
    states: dict[Edge, np.ndarray],
    times: np.ndarray,
    condition_ceiling: float = DEFAULT_CONDITION_CEILING,
) -> dict[Edge, Trajectory]:
    """Decompose h once and evolve every given state under it, keyed as given."""
    es = eigendecompose(h, condition_ceiling, True)  # pt_real
    return {side: evolve(h, es, psi0, times) for side, psi0 in states.items()}


def run_quench(
    spec: QuenchSpec,
    *,
    zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL,
    condition_ceiling: float = DEFAULT_CONDITION_CEILING,
) -> dict[Edge, Trajectory]:
    """Prepare the edge states of the initial Hamiltonian and evolve the
    requested sides under the final one, each Hamiltonian decomposed once."""
    psi0 = edge_states(build_hamiltonian(spec.initial_config), zero_mode_tol)
    states = {side: psi0[side] for side in spec.sides}
    h_final = build_hamiltonian(spec.final_config)
    return evolve_states(h_final, states, spec.times, condition_ceiling)
