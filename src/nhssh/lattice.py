"""Chain configurations and the embedded non-Hermitian SSH Hamiltonian.

Sites are numbered 1..2N. Odd sites form sublattice A, even sites sublattice B,
so cell n owns sites (2n-1, 2n). An optional contiguous block of sites carries
complex on-site potentials: u = u_re - i*u_im on A sites and the conjugate
u* on B sites, i.e. alternating loss and gain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "LatticeConfig",
    "build_hamiltonian",
    "hamiltonian_bands",
    "perturbation_matrix",
    "edge_correction",
    "is_pt_symmetric",
    "is_pt_matrix",
]


@dataclass(frozen=True)
class LatticeConfig:
    """Full physical specification of one chain instance.

    The intercell hopping ``w`` is the energy unit; scenario defaults fix
    w = 1 and sweep ``v`` so that v/w is the control parameter. The block of
    complex on-site potentials spans sites ``region_start``..``region_end``
    (1-based, inclusive); leaving both unset gives the plain Hermitian chain.
    """

    n_cells: int
    v: float
    w: float = 1.0
    region_start: int | None = None
    region_end: int | None = None
    u_re: float = 0.0
    u_im: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {self.n_cells}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")
        if self.w <= 0:
            raise ValueError(f"w must be > 0, got {self.w}")
        if (self.region_start is None) != (self.region_end is None):
            raise ValueError("region_start and region_end must be set together")
        if self.region_start is not None and self.region_end is not None:
            if not 1 <= self.region_start <= self.region_end:
                raise ValueError(
                    "region_start must satisfy 1 <= region_start <= region_end, "
                    f"got region_start={self.region_start}, region_end={self.region_end}"
                )
            if self.region_end > self.n_sites:
                raise ValueError(
                    f"region_end must be <= 2*n_cells = {self.n_sites}, "
                    f"got region_end={self.region_end}"
                )

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells

    @property
    def has_region(self) -> bool:
        return self.region_start is not None

    def with_v(self, v: float) -> "LatticeConfig":
        return replace(self, v=v)

    def without_region(self) -> "LatticeConfig":
        return replace(self, region_start=None, region_end=None)


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


def perturbation_matrix(config: LatticeConfig) -> np.ndarray:
    """Diagonal-only part of the Hamiltonian: the complex on-site block alone.

    build_hamiltonian(config) decomposes entrywise exactly into the pure-chain
    matrix (empty region) plus this matrix.
    """
    return np.diag(hamiltonian_bands(config)[0])


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


def is_pt_symmetric(config: LatticeConfig) -> bool:
    """True when parity (site-order reversal) plus complex conjugation fixes H.

    build_hamiltonian is exact arithmetic, so the comparison is exact.
    """
    return is_pt_matrix(build_hamiltonian(config))


def is_pt_matrix(h: np.ndarray) -> bool:
    """True when conj(h)[::-1, ::-1] == h holds exactly, entry by entry.

    Compares the flipped real and imaginary views, so no complex copy is made.
    """
    return bool(
        np.array_equal(h.real[::-1, ::-1], h.real)
        and np.array_equal(h.imag[::-1, ::-1], -h.imag)
    )
