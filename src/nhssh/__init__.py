"""Quench dynamics in an SSH chain with an embedded non-Hermitian block."""

from .dynamics import (
    Edge,
    QuenchSpec,
    evolve_propagator,
    initial_edge_state,
    run_quench,
)
from .lattice import LatticeConfig, build_hamiltonian
from .spectral import eigendecompose

__version__ = "0.1.0"
