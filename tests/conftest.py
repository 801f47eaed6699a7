"""Shared fixtures: flagship-scale configs and cached heavy computations."""

from __future__ import annotations

import numpy as np
import pytest

from nhssh import parallel
from nhssh.config import LatticeConfig
from nhssh.lattice import build_hamiltonian
from nhssh.spectral import eigendecompose


def flagship_config(v: float, region=(109, 112), u=(0.75, 0.75)) -> LatticeConfig:
    """220-site chain with the centered four-site block, at a given v (w = 1)."""
    return LatticeConfig(
        n_cells=110,
        v=v,
        region_start=region[0],
        region_end=region[1],
        u_re=u[0],
        u_im=u[1],
    )


def complex_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex eig of h with no real form, sorted ascending by (Re E, Im E):
    the reference for the real form and for the eigenvalue-only sweep."""
    eigenvalues, right = np.linalg.eig(np.asarray(h, dtype=complex))
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    return eigenvalues[order], right[:, order]


@pytest.fixture(scope="session")
def flagship_initial():
    """Flagship chain at v/w = 0.25 with its eigensystem."""
    config = flagship_config(0.25)
    h = build_hamiltonian(config)
    return config, h, eigendecompose(h)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count, which starts the test at 2
    and is restored after it."""
    api = parallel._blas_threads()
    if api is None:
        pytest.skip("numpy's BLAS exports no known OpenBLAS thread-count setter")
    get, set_ = api
    outside = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("numpy's OpenBLAS cannot run on two threads")
        yield api
    finally:
        set_(outside)
