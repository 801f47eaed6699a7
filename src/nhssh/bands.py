"""Kernels on the three bands of tridiagonal Hamiltonians, with no dense matrix.

``evolve_chebyshev`` evolves a batch of states, each under its own H, to one
time by a Chebyshev expansion; ``_band_centers`` gives the center of mass of
each eigenvector of H from a twisted factorization. Imports numpy alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["evolve_chebyshev"]

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
# Eigenvalues closer than this, relative to ||H||_1, are numerically equal.
_CLUSTER_TOL = 1e-12
_EPS = np.finfo(float).eps


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


def _band_centers(
    diagonal: np.ndarray, off_diagonal: np.ndarray, eigenvalues: np.ndarray
) -> np.ndarray:
    """Center of mass of the eigenvector of each eigenvalue of the complex
    symmetric tridiagonal H with these bands, in O(n) work per eigenvalue.

    For each eigenvalue E, the forward and backward pivots of H - E (its
    LDL^T factorizations started at the first and at the last site) give
    gamma_k, and the vector z with z_r = 1 at the twist r where |gamma| is
    smallest solves (H - E) z = gamma_r e_r (Parlett & Dhillon, Linear Algebra
    Appl. 267, 247 (1997)). log|z| is summed outward from r, so |z|^2 cannot
    overflow and a zero hopping cuts the chain; a pivot that is exactly zero
    becomes eps^2 ||H||_1. Within a cluster of numerically equal eigenvalues
    (``_CLUSTER_TOL``), where the vectors are a choice of basis, each member
    takes its twist, where it can, outside the sites where an earlier
    member's density reaches eps of its peak: the two zero modes of the
    topological phase land on opposite edges.
    """
    n = diagonal.size
    hops = np.abs(off_diagonal)
    norm = float(np.max(np.abs(diagonal) + np.append(hops, 0.0) + np.append(0.0, hops)))
    # pivots[0, k] is the forward pivot of site k, pivots[1, k] the backward
    # pivot of site n - 1 - k, each computed in place over its diagonal entry
    # of H - E.
    pivots = np.empty((2, n, eigenvalues.size), dtype=complex)
    np.subtract(diagonal[:, np.newaxis], eigenvalues, out=pivots[0])
    pivots[1] = pivots[0, ::-1]
    squares = np.square(off_diagonal)
    squares = np.stack((squares, squares[::-1]))[..., np.newaxis]
    quotient = np.empty((2, eigenvalues.size), dtype=complex)
    floor = _EPS * _EPS * norm
    for k in range(n - 1):
        pivot = pivots[:, k]
        pivot[pivot == 0] = floor
        np.divide(squares[:, k], pivot, out=quotient)
        pivots[:, k + 1] -= quotient
    forward, backward = pivots[0], pivots[1, ::-1]
    with np.errstate(divide="ignore"):
        log_hops = np.log(hops)[:, np.newaxis]
    # Left of the twist z_k = -b_k z_{k+1} / forward_k, right of it
    # z_k = -b_{k-1} z_{k-1} / backward_k: one log|ratio| per bond.
    left, right = np.abs(forward[:-1]), np.abs(backward[1:])
    for ratios in (left, right):
        np.subtract(log_hops, np.log(ratios, out=ratios), out=ratios)
    # gamma_k = forward_k + backward_k - (d_k - E), formed over the forward pivots.
    forward += backward
    forward -= diagonal[:, np.newaxis]
    forward += eigenvalues
    gamma = np.abs(forward)
    # Freed before the densities are built, so the sweep peaks lower than eig did.
    del pivots, pivot, forward, backward
    density = _twisted_density(left, right, np.argmin(gamma, axis=0))
    # The eigenvalues are sorted by (Re E, Im E): those before E_j that lie
    # within tol of it are among first[j]..j-1, the ones within tol in Re E.
    tol = _CLUSTER_TOL * norm
    first = np.searchsorted(eigenvalues.real, eigenvalues.real - tol)
    for j in np.flatnonzero(first < np.arange(eigenvalues.size)):
        near = first[j] + np.flatnonzero(np.abs(eigenvalues[first[j]:j] - eigenvalues[j]) <= tol)
        taken = (density[:, near] >= _EPS).any(axis=1)
        if near.size and not taken.all():
            twist = np.argmin(np.where(taken, np.inf, gamma[:, j]))
            density[:, j] = _twisted_density(left[:, j, None], right[:, j, None], twist)[:, 0]
    return np.arange(1.0, n + 1) @ density / density.sum(axis=0)


def _twisted_density(left: np.ndarray, right: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """|z|^2 / max |z|^2 of each column's twisted vector, from the per-bond
    log ratios of ``_band_centers`` and each column's twist site."""
    bonds = np.arange(left.shape[0])[:, np.newaxis]
    log_z = np.zeros((left.shape[0] + 1, left.shape[1]))
    np.cumsum(np.where(bonds < twist, left, 0.0)[::-1], axis=0, out=log_z[-2::-1])
    right = np.where(bonds >= twist, right, 0.0)
    log_z[1:] += np.cumsum(right, axis=0, out=right)
    log_z -= log_z.max(axis=0)
    log_z *= 2.0
    return np.exp(log_z, out=log_z)
