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
``evolve_spectral`` concatenates the spectral route's blocks. A third route,
a Chebyshev expansion on the bands of a batch of tridiagonal Hamiltonians,
evolves a whole sweep grid to one time without any eigendecomposition.
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
    "evolve_chebyshev",
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
# a tau per step of evolve_chebyshev, which bounds its table of J_k(a tau);
# its step count, which bounds its work (a t <= 10^6) as the 10^6-point cap
# bounds the grids; the magnitude at which _bessel_j rescales its recurrence,
# and the x below which J_0(x), J_1(x), J_2(x), ... round to 1, x / 2, 0, ...
_CHEBYSHEV_MAX_ARGUMENT = 1000.0
_CHEBYSHEV_MAX_STEPS = 1000
_MILLER_RESCALE = 2.0**500
_BESSEL_SERIES_BELOW = 2.0**-900
# The largest rounding error relative to a step's sum, estimated as unit
# roundoff times its largest tail term, that evolve_chebyshev returns as a number.
_CHEBYSHEV_ERROR_CEILING = 1e-10
# 2 (-i)^j by j % 4, with the -+i of an odd j left to a swap of Re and Im.
_TERM_FACTOR = (2.0, 2.0, -2.0, -2.0)


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


def _bessel_j(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_k(x_l) for every lane l, as an (L, K) table with K > 1.5 x_l + 200,
    and the index at which each lane's recurrence starts: its table ends there.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started
    from J = 1 at k = ceil(1.5 x_l) + 200 with zeros above, kept in range by
    power-of-two rescalings (which round nothing) and normalised by
    J_0 + 2 sum_k J_2k = 1 (Abramowitz & Stegun 9.1.46). Each lane's start
    depends on its own x alone and every operation is elementwise over
    lanes, so a row does not depend on the rest of the batch. Below
    x = _BESSEL_SERIES_BELOW, where 2k / x could overflow, a row is the
    rounded series instead: J_0 = 1, J_1 = x / 2 and 0 from k = 2 on.
    """
    x = np.asarray(x, dtype=float)
    start = np.ceil(1.5 * x).astype(int) + 200
    series = x < _BESSEL_SERIES_BELOW
    safe_x = np.where(series, 1.0, x)
    table = np.empty((x.size, start.max() + 1))
    j, above, norm = np.zeros(x.size), np.zeros(x.size), np.zeros(x.size)
    for k in range(start.max(), -1, -1):
        j[start == k] = 1.0
        big = np.abs(j) > _MILLER_RESCALE
        if big.any():
            scale = np.ldexp(1.0, -np.frexp(j[big])[1])
            j[big] *= scale
            above[big] *= scale
            norm[big] *= scale
            table[big, k + 1 :] *= scale[:, None]
        table[:, k] = j
        if k % 2 == 0:
            norm += j if k == 0 else 2.0 * j
        j, above = 2.0 * k / safe_x * j - above, j
    table /= norm[:, None]
    table[series] = 0.0
    table[series, 0] = 1.0
    table[series, 1] = x[series] / 2.0
    return table, start


def evolve_chebyshev(
    diagonal: np.ndarray, off_diagonal: np.ndarray, states: np.ndarray, t: float
) -> np.ndarray:
    """Evolve a batch of states to time t, each under its own tridiagonal H.

    Lane l holds the state ``states[l]`` (n,) and H_l, with complex diagonal
    ``diagonal[l]`` (n,) and the real ``off_diagonal[l]`` (n - 1,) on both
    sides, as ``hamiltonian_bands`` gives. Returns exp(-i H_l t) states[l]
    for every lane as an (L, n) array.

    The action is a Chebyshev expansion on the three bands (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967, 1984): no dense matrix, no LAPACK. The
    hoppings are real symmetric, so the spectrum of H_l lies in the rectangle
    of the Gershgorin rows' real parts and [min Im d, max Im d] (field of
    values). Its centre c has the real side's midpoint as Re c and the
    spectrum's centroid, Im tr H / n, as Im c; its half-width a is the largest
    distance from c to a side. A step of length tau is
        exp(-i H tau) psi = exp(-i c tau) sum_j (2 - delta_j0) (-i)^j
                            J_j(a tau) T_j((H - c) / a) psi.
    Lane l takes ceil(a t / 1000) equal steps, all with one table of J_j,
    and at most _CHEBYSHEV_MAX_STEPS = 1000: a t past 10^6 is a ValueError.
    Within a step it stops adding terms once two consecutive terms past
    j = a tau are below unit roundoff times the largest |Re| or |Im| of its
    sum; from then on its terms are exact zeros. A lane whose sum stops
    being finite stops too and comes back non-finite. A lane comes back NaN,
    its digits lost, where its table of J_j ends before its terms stop, or
    where they cancel: unit roundoff times its largest term past j = a tau
    exceeds _CHEBYSHEV_ERROR_CEILING times the largest |Re| or |Im| of a
    step's sum. Past its input checks it raises nothing. All arithmetic is
    elementwise, so a lane does not depend on the rest of the batch. At
    t = 0 the states come back equal (a -0.0 may come back +0.0).
    """
    diagonal = np.asarray(diagonal, dtype=complex)
    off_diagonal = np.asarray(off_diagonal, dtype=float)
    states = np.asarray(states, dtype=complex)
    lanes, n = diagonal.shape
    if off_diagonal.shape != (lanes, n - 1):
        raise ValueError(
            f"off_diagonal has shape {off_diagonal.shape}, expected ({lanes}, {n - 1})"
        )
    if states.shape != (lanes, n):
        raise ValueError(f"states has shape {states.shape}, expected ({lanes}, {n})")
    if not (np.all(np.isfinite(diagonal.view(float))) and np.all(np.isfinite(off_diagonal))):
        raise ValueError("band entries must be finite")
    if not np.all(np.isfinite(states.view(float))):
        raise ValueError("states must be finite")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t}")

    radius = np.zeros((lanes, n))
    radius[:, :-1] += np.abs(off_diagonal)
    radius[:, 1:] += np.abs(off_diagonal)
    re_lo, re_hi = (diagonal.real - radius).min(axis=1), (diagonal.real + radius).max(axis=1)
    # The midpoint of the imaginary side as Im c would put the near-real
    # eigenvalues of a one-site block off the scaled real axis, where T_j
    # grows geometrically. a = 0 only for H = c I, whose series stops at j = 0.
    im = diagonal.imag
    centre_re, centre_im = (re_lo + re_hi) / 2.0, im.mean(axis=1)
    half_width = np.maximum.reduce(
        [(re_hi - re_lo) / 2.0, im.max(axis=1) - centre_im, centre_im - im.min(axis=1)]
    )
    steps = np.maximum(1.0, np.ceil(half_width * t / _CHEBYSHEV_MAX_ARGUMENT))
    if not np.all(steps <= _CHEBYSHEV_MAX_STEPS):
        raise ValueError(f"t = {t:g} needs more than {_CHEBYSHEV_MAX_STEPS} Chebyshev steps")
    steps = steps.astype(int)
    tau = t / steps
    argument = half_width * tau
    bessel, terms = _bessel_j(argument)
    phase = np.exp(tau * (centre_im - 1j * centre_re))  # exp(-i c tau)

    # A batch of states is a (2, n + 2, L) array: real and imaginary part,
    # then padded site -1..n (the two end ones stay zero), then lane. The
    # hoppings then act as two shifts along the site axis and the on-site
    # values as slabs; reversing the part axis gives (Im, Re). 2 / a is
    # folded into the coefficients of H - c.
    scale = 2.0 / np.where(half_width > 0.0, half_width, 1.0)[:, None]

    def per_site(values: np.ndarray) -> np.ndarray:
        """(L, m) per-lane values as (m + 2, L), zero-padded; C order steps twice as fast."""
        return np.pad(np.ascontiguousarray(values.T), ((1, 1), (0, 0)))

    hops = per_site(scale * off_diagonal)  # bond b joins padded site b to b + 1
    on_site_re = per_site(scale * (diagonal.real - centre_re[:, None]))[1:-1]
    # Im(d - c) is often nonzero in a short slab only: apply it there.
    on_site_im = per_site(scale * (diagonal.imag - centre_im[:, None]))
    nonzero = np.flatnonzero(np.any(on_site_im != 0, axis=1))
    block = slice(nonzero.min(), nonzero.max() + 1) if nonzero.size else slice(0, 0)
    on_site_im = np.array([-1.0, 1.0])[:, None, None] * on_site_im[block]
    # One scratch array holds each (-i)^j 2 J_j T_j psi, the products of a
    # step and the magnitudes of a convergence test in turn.
    scratch = np.empty((2, n, lanes))

    def chebyshev_step(current: np.ndarray, previous: np.ndarray) -> None:
        """previous <- 2 (H - c) / a current - previous."""
        out = previous[:, 1:-1]
        np.multiply(hops[:-1], current[:, :-2], out=scratch)
        np.subtract(scratch, out, out=out)
        np.multiply(hops[1:], current[:, 2:], out=scratch)
        out += scratch
        np.multiply(on_site_re, current[:, 1:-1], out=scratch)
        out += scratch
        previous[:, block] += on_site_im * current[::-1, block]

    def max_abs(array: np.ndarray) -> np.ndarray:
        """Per lane, the largest |Re| or |Im| of its state (a square could overflow)."""
        np.abs(array[:, 1:-1], out=scratch)
        return scratch.max(axis=(0, 1))

    psi, acc, current, previous = (np.zeros((2, n + 2, lanes)) for _ in range(4))
    psi[0, 1:-1], psi[1, 1:-1] = states.real.T, states.imag.T
    swap_sign = np.array([1.0, -1.0])[:, None, None]
    unit_roundoff = np.finfo(float).eps / 2.0
    lost = np.zeros(lanes, dtype=bool)
    for step in range(int(steps.max())):
        live = step < steps
        # T_0 psi = psi and T_1 psi = (H - c) psi / a; lanes past their
        # last step keep psi (first coefficient 1, no further terms).
        np.copyto(previous, psi)
        previous[:, :, ~live] = 0.0
        current.fill(0.0)
        chebyshev_step(previous, current)
        current *= 0.5
        np.multiply(np.where(live, bessel[:, 0], 1.0), psi, out=acc)
        active = live.copy()
        small = np.zeros(lanes, dtype=bool)
        largest = np.zeros(lanes)
        for order in range(1, bessel.shape[1]):
            # (-i)^order 2 J_order T_order psi: a real coefficient for even
            # orders; odd ones carry -+i, which swaps Re and Im.
            coefficient = _TERM_FACTOR[order % 4] * bessel[:, order]
            if order % 2 == 0:
                np.multiply(coefficient, current[:, 1:-1], out=scratch)
            else:
                np.multiply(swap_sign * coefficient, current[::-1, 1:-1], out=scratch)
            acc[:, 1:-1] += scratch
            if order > argument[active].min():
                magnitude = max_abs(acc)
                bound = unit_roundoff * magnitude
                term = np.abs(coefficient) * max_abs(current)
                tail = order > argument  # per lane: the batch's minimum is not its own
                np.maximum(largest, np.where(tail, term, 0.0), out=largest)
                was_small = small
                small = tail & (term <= bound)
                stopped = active & ((small & was_small) | ~np.isfinite(bound))
                unconverged = active & ~stopped & (order >= terms)  # end of its J_j table
                lost |= unconverged
                stopped |= unconverged
                if stopped.any():
                    for array in (current, previous):
                        array[:, :, stopped] = 0.0
                    active &= ~stopped
                    if not active.any():
                        break
            chebyshev_step(current, previous)
            current, previous = previous, current
        # Every live lane has stopped, so magnitude is its final sum's.
        lost |= live & (unit_roundoff * largest > _CHEBYSHEV_ERROR_CEILING * magnitude)
        factor = np.where(live, phase, 1.0)
        (psi_re, psi_im), (acc_re, acc_im) = psi[:, 1:-1], acc[:, 1:-1]
        psi_re[...] = factor.real * acc_re - factor.imag * acc_im
        psi_im[...] = factor.real * acc_im + factor.imag * acc_re
    result = np.empty((lanes, n), dtype=complex)
    result.real, result.imag = psi[0, 1:-1].T, psi[1, 1:-1].T
    result[lost] = np.nan
    return result


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
