"""Edge-state preparation and quench evolution.

Two independent routes compute the same trajectories: expansion in the
biorthogonal eigenbasis (one decomposition, then phases), and repeated
application of an exact step propagator, a scaled-and-squared truncated
power series that raises where it misses its tail bound. The second serves
as the oracle for the first and takes over near exceptional points, where
the eigenbasis is too ill-conditioned to invert. ``_quench_blocks`` is the
one place that chooses between them: it decomposes each Hamiltonian once and
yields every side's states in blocks of ``_TIME_BLOCK`` samples, so the
scenarios reduce a block before the next exists; ``run_quench`` and
``evolve_spectral`` assemble those blocks into whole trajectories. A third
route, a Chebyshev expansion on the bands of a batch of tridiagonal
Hamiltonians, evolves a whole sweep grid to one time without any
eigendecomposition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import DEFAULT_ZERO_MODE_TOL, LatticeConfig
from .lattice import build_hamiltonian
from .observables import site_density
from .spectral import Eigensystem, _sorted_eig, eigendecompose, zero_mode_report

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


class Edge(Enum):
    LEFT = "left"
    RIGHT = "right"


class NoEdgeStateError(RuntimeError):
    """No near-zero modes to build an edge state from (e.g. v/w > 1)."""


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
        object.__setattr__(self, "times", _checked_times(self.times))


def _checked_times(times: np.ndarray) -> np.ndarray:
    """times as floats, if they are a sample grid: nonempty, finite, starting
    at t >= 0 and strictly increasing; ValueError otherwise."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("times must be nonempty")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0:
        raise ValueError("times must start at t >= 0")
    if np.any(np.diff(times) <= 0):
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
    largest-modulus amplitude real and positive.
    """
    if h_initial.shape[0] < 4:
        raise NoEdgeStateError(
            f"edge states need a chain of at least 4 sites, got {h_initial.shape[0]}"
        )
    eigenvalues, right = _sorted_eig(h_initial)
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
    times = np.asarray(times, dtype=float)
    states = _stacked(_spectral_blocks(es, psi0, times), (times.size, es.dim))
    return Trajectory(times=times, states=states)


def _spectral_blocks(
    es: Eigensystem, psi0: np.ndarray, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, states) for each block of up to _TIME_BLOCK samples of the
    spectral route, states as a (time, site) view."""
    if not es.condition <= CONDITION_CEILING:
        raise NearDefectiveError(
            f"right-vector condition {es.condition:.3e} exceeds the ceiling; "
            "use evolve_propagator"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (es.dim,):
        raise ValueError(f"psi0 has shape {psi0.shape}, expected ({es.dim},)")
    times = np.ravel(times)
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


def _stacked(blocks: Iterable[tuple[slice, np.ndarray]], shape: tuple[int, int]) -> np.ndarray:
    """The (time, site) array of one trajectory's blocks: a lone block as it
    is, more in a column-major array, the layout of one spectral product."""
    states = np.empty(shape[::-1], dtype=complex).T
    for rows, block in blocks:
        if block.shape == shape:
            return block
        states[rows] = block
    return states


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
    h = np.asarray(h, dtype=complex)
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix entries must be finite")
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


def _bessel_terms(x: np.ndarray) -> np.ndarray:
    """Index at which _bessel_j starts each member's recurrence; its table ends there."""
    return np.ceil(1.5 * x).astype(int) + 200


def _bessel_j(x: np.ndarray) -> np.ndarray:
    """J_k(x_g) for every member g, as a (G, K) table with K > 1.5 x_g + 200.

    Miller's backward recurrence J_{k-1} = (2k / x) J_k - J_{k+1}, started
    from J = 1 at k = ceil(1.5 x_g) + 200 with zeros above, kept in range by
    power-of-two rescalings (which round nothing) and normalised by
    J_0 + 2 sum_k J_2k = 1 (Abramowitz & Stegun 9.1.46). Each member's start
    depends on its own x alone and every operation is elementwise over
    members, so a row does not depend on the rest of the batch. Below
    x = _BESSEL_SERIES_BELOW, where 2k / x could overflow, a row is the
    rounded series instead: J_0 = 1, J_1 = x / 2 and 0 from k = 2 on.
    """
    x = np.asarray(x, dtype=float)
    start = _bessel_terms(x)
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
    return table


def evolve_chebyshev(
    diagonal: np.ndarray, off_diagonal: np.ndarray, states: np.ndarray, t: float
) -> np.ndarray:
    """Evolve a batch of state blocks to time t, each under its own tridiagonal H.

    Member g has H_g with complex diagonal ``diagonal[g]`` (n,) and the real
    ``off_diagonal[g]`` (n - 1,) on both sides, as ``hamiltonian_bands`` gives;
    ``states[g]`` is a (k, n) block of states, one per row. Returns
    exp(-i H_g t) states[g] for every g as a (G, k, n) array.

    The action is a Chebyshev expansion on the three bands (Tal-Ezer &
    Kosloff, J. Chem. Phys. 81, 3967, 1984): no dense matrix, no LAPACK. The
    hoppings are real symmetric, so the spectrum of H_g lies in the rectangle
    of the Gershgorin rows' real parts and [min Im d, max Im d] (field of
    values). Its centre c has the real side's midpoint as Re c and the
    spectrum's centroid, Im tr H / n, as Im c; its half-width a is the largest
    distance from c to a side. A step of length tau is
        exp(-i H tau) psi = exp(-i c tau) sum_j (2 - delta_j0) (-i)^j
                            J_j(a tau) T_j((H - c) / a) psi.
    Member g takes ceil(a t / 1000) equal steps, all with one table of J_j,
    and at most _CHEBYSHEV_MAX_STEPS = 1000: a t past 10^6 is a ValueError.
    Within a step it stops adding terms once two consecutive terms past
    j = a tau are below unit roundoff times the largest |Re| or |Im| of its
    sum; from then on its terms are exact zeros. A member whose sum stops
    being finite stops too and comes back non-finite. So does a member whose
    terms cancel: where unit roundoff times its largest term past j = a tau
    exceeds _CHEBYSHEV_ERROR_CEILING times the largest |Re| or |Im| of a
    step's sum, it comes back NaN, its digits lost. All arithmetic is
    elementwise on real and imaginary parts, so a member's values do not
    depend on the rest of the batch. At t = 0 the states come back unchanged.
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

    radius = np.zeros((members, n))
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
    bessel, terms = _bessel_j(argument), _bessel_terms(argument)
    phase = np.exp(tau * (centre_im - 1j * centre_re))  # exp(-i c tau)

    # A state block is a (2, n + 2, G k) array: real and imaginary part,
    # then padded site -1..n (the two end ones stay zero), then lane (member,
    # then state). The hoppings then act as two shifts along the site axis and
    # the on-site values as slabs; reversing the part axis gives (Im, Re).
    # 2 / a is folded into the coefficients of H - c.
    k = states.shape[1]
    scale = 2.0 / np.where(half_width > 0.0, half_width, 1.0)[:, None]

    def per_site(values: np.ndarray) -> np.ndarray:
        """(G, m) per-member values as (m + 2, G k): repeated per state, zero-padded."""
        return np.pad(np.repeat(values.T, k, axis=1), ((1, 1), (0, 0)))

    hops = per_site(scale * off_diagonal)  # bond b joins padded site b to b + 1
    on_site_re = per_site(scale * (diagonal.real - centre_re[:, None]))[1:-1]
    # Im(d - c) is often nonzero in a short slab only: apply it there.
    on_site_im = per_site(scale * (diagonal.imag - centre_im[:, None]))
    nonzero = np.flatnonzero(np.any(on_site_im != 0, axis=1))
    block = slice(nonzero.min(), nonzero.max() + 1) if nonzero.size else slice(0, 0)
    on_site_im = np.array([-1.0, 1.0])[:, None, None] * on_site_im[block]
    # One scratch block holds each (-i)^j 2 J_j T_j psi, the products of a
    # step and the magnitudes of a convergence test in turn.
    scratch = np.empty((2, n, members * k))

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
        """Per member, the largest |Re| or |Im| of a state block (a square could overflow)."""
        np.abs(array[:, 1:-1], out=scratch)
        # Part and site axes first: one max over all but the member axis is ~30x slower.
        return scratch.max(axis=(0, 1)).reshape(members, k).max(axis=1)

    psi, acc, current, previous = (np.zeros((2, n + 2, members * k)) for _ in range(4))
    psi_view = psi.reshape(2, n + 2, members, k)[:, 1:-1]  # (part, site, member, state)
    psi_view[0], psi_view[1] = states.real.transpose(2, 0, 1), states.imag.transpose(2, 0, 1)
    swap_sign = np.array([1.0, -1.0])[:, None, None]
    unit_roundoff = np.finfo(float).eps / 2.0
    lost = np.zeros(members, dtype=bool)
    for step in range(int(steps.max())):
        live = step < steps
        # T_0 psi = psi and T_1 psi = (H - c) psi / a; members past their
        # last step keep psi (first coefficient 1, no further terms).
        np.copyto(previous, psi)
        previous[:, :, np.repeat(~live, k)] = 0.0
        current.fill(0.0)
        chebyshev_step(previous, current)
        current *= 0.5
        np.multiply(np.repeat(np.where(live, bessel[:, 0], 1.0), k), psi, out=acc)
        active = live.copy()
        small = np.zeros(members, dtype=bool)
        largest = np.zeros(members)
        for order in range(1, bessel.shape[1]):
            # (-i)^order 2 J_order T_order psi: a real coefficient for even
            # orders; odd ones carry -+i, which swaps Re and Im.
            coefficient = np.repeat(2.0 * bessel[:, order], k)
            if order % 4 >= 2:
                coefficient = -coefficient
            if order % 2 == 0:
                np.multiply(coefficient, current[:, 1:-1], out=scratch)
            else:
                np.multiply(swap_sign * coefficient, current[::-1, 1:-1], out=scratch)
            acc[:, 1:-1] += scratch
            if order > argument[active].min():
                magnitude = max_abs(acc)
                bound = unit_roundoff * magnitude
                term = np.abs(2.0 * bessel[:, order]) * max_abs(current)
                tail = order > argument  # per member: the batch's minimum is not its own
                np.maximum(largest, np.where(tail, term, 0.0), out=largest)
                was_small = small
                small = tail & (term <= bound)
                stopped = active & ((small & was_small) | ~np.isfinite(bound))
                if stopped.any():
                    for array in (current, previous):
                        array[:, :, np.repeat(stopped, k)] = 0.0
                    active &= ~stopped
                    if not active.any():
                        break
                if np.any(active & (order >= terms)):
                    raise RuntimeError("Chebyshev series failed to converge within a step")
            chebyshev_step(current, previous)
            current, previous = previous, current
        # Every live member has stopped, so magnitude is its final sum's.
        lost |= live & (unit_roundoff * largest > _CHEBYSHEV_ERROR_CEILING * magnitude)
        factor = np.repeat(np.where(live, phase, 1.0), k)
        (psi_re, psi_im), (acc_re, acc_im) = psi[:, 1:-1], acc[:, 1:-1]
        psi_re[...] = factor.real * acc_re - factor.imag * acc_im
        psi_im[...] = factor.real * acc_im + factor.imag * acc_re
    result = np.empty(states.shape, dtype=complex)
    result.real, result.imag = psi_view.transpose(0, 2, 3, 1)
    result[lost] = np.nan
    return result


def run_quench(
    spec: QuenchSpec, *, zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL
) -> dict[Edge, Trajectory]:
    """Prepare the edge states of the initial Hamiltonian and evolve the
    requested sides under the final one, each Hamiltonian decomposed once.

    The trajectories are ``_quench_blocks``'s, assembled; RuntimeError when
    a side's state stops being finite (a growing mode overflowed).
    """
    shape = (spec.times.size, spec.final_config.n_sites)
    return {
        side: Trajectory(times=spec.times, states=_stacked(blocks, shape))
        for side, blocks in _quench_blocks(spec, zero_mode_tol)
    }


def _quench_blocks(
    spec: QuenchSpec, zero_mode_tol: float = DEFAULT_ZERO_MODE_TOL
) -> Iterator[tuple[Edge, Iterator[tuple[slice, np.ndarray]]]]:
    """(side, blocks) for each requested side in turn, its blocks yielding the
    (rows, states) of its trajectory in time order; read them before the next side.

    The edge states and the final eigenbasis are prepared, and the route
    chosen, once: the spectral route in blocks of _TIME_BLOCK samples, or the
    step propagator as one block when the 1-norm condition of the final
    eigenbasis exceeds ``CONDITION_CEILING`` (or is not finite). A block is
    passed on only once it is finite; RuntimeError names the side and the
    first time at which it is not (a growing mode overflowed).
    """
    psi0 = edge_states(build_hamiltonian(spec.initial_config), zero_mode_tol)
    h_final = build_hamiltonian(spec.final_config)
    es = eigendecompose(h_final)
    use_propagator = not es.condition <= CONDITION_CEILING
    for side in spec.sides:
        if use_propagator:
            states = evolve_propagator(h_final, psi0[side], spec.times).states
            blocks = [(slice(0, spec.times.size), states)]
        else:
            blocks = _spectral_blocks(es, psi0[side], spec.times)
        yield side, _finite_blocks(blocks, side, spec.times)


def _finite_blocks(
    blocks: Iterable[tuple[slice, np.ndarray]], side: Edge, times: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    for rows, states in blocks:
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            t = times[rows][np.argmin(finite)]
            raise RuntimeError(
                f"quench evolution of the {side.value} edge state is not finite at t={t:g}"
            )
        yield rows, states
