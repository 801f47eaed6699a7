"""The embedded non-Hermitian SSH Hamiltonian of a chain configuration.

Sites are numbered 1..2N. Odd sites form sublattice A, even sites sublattice B,
so cell n owns sites (2n-1, 2n). An optional contiguous block of sites carries
complex on-site potentials: u = u_re - i*u_im on A sites and the conjugate
u* on B sites, i.e. alternating loss and gain.
"""

from __future__ import annotations

import numpy as np

from .config import LatticeConfig

__all__ = [
    "LatticeConfig",
    "build_hamiltonian",
    "hamiltonian_bands",
    "edge_correction",
    "is_pt_matrix",
]


def hamiltonian_bands(config: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The three bands of the tridiagonal, complex symmetric Hamiltonian.

    Returns (diagonal, off_diagonal): 2N complex on-site potentials, zero
    outside the block, u = u_re - i*u_im on odd (A) sites and the conjugate on
    even (B) sites; and 2N - 1 real hoppings, v on intracell bonds (2n-1, 2n)
    and w on intercell bonds (2n, 2n+1). The off-diagonal serves both sides.
    """
    n = config.n_sites
    diagonal = np.zeros(n, dtype=complex)
    if config.has_region:
        first, last = config.region_start - 1, config.region_end  # 0-based, half-open
        diagonal[first:last] = complex(config.u_re, config.u_im)
        # A sites (odd site numbers) sit at even 0-based indices.
        diagonal[first + first % 2 : last : 2] = complex(config.u_re, -config.u_im)
    off_diagonal = np.empty(n - 1)
    off_diagonal[0::2] = config.v
    off_diagonal[1::2] = config.w
    return diagonal, off_diagonal


def build_hamiltonian(config: LatticeConfig) -> np.ndarray:
    """Dense (2N, 2N) complex Hamiltonian with hamiltonian_bands(config) as its bands."""
    diagonal, off_diagonal = hamiltonian_bands(config)
    n = diagonal.size
    h = np.zeros((n, n), dtype=complex)
    flat = h.reshape(-1)  # entry (i, j) at i * n + j; the bands have step n + 1
    flat[:: n + 1] = diagonal
    flat[1 :: n + 1] = off_diagonal
    flat[n :: n + 1] = off_diagonal
    return h


def edge_correction(config: LatticeConfig, edge_state: np.ndarray) -> complex:
    """First-order energy shift of a unit-norm state from the on-site block.

    Computes sum_s H'_ss |psi_s|^2, the expectation value of the diagonal
    perturbation in the given state.
    """
    psi = np.asarray(edge_state, dtype=complex)
    if psi.shape != (config.n_sites,):
        raise ValueError(
            f"edge_state has dimension {psi.shape}, expected ({config.n_sites},)"
        )
    diag = hamiltonian_bands(config)[0]
    return complex(np.sum(diag * np.abs(psi) ** 2))


def is_pt_matrix(h: np.ndarray) -> bool:
    """True when conj(h)[::-1, ::-1] == h holds exactly, entry by entry.

    Compares the flipped real and imaginary views, so no complex copy is made.
    """
    return bool(
        np.array_equal(h.real[::-1, ::-1], h.real)
        and np.array_equal(h.imag[::-1, ::-1], -h.imag)
    )
