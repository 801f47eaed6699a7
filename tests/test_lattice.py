import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhssh.lattice import (
    LatticeConfig,
    build_hamiltonian,
    edge_correction,
    hamiltonian_bands,
    is_pt_matrix,
)

from conftest import flagship_config


def test_dimerized_limit_spectrum():
    h = build_hamiltonian(LatticeConfig(n_cells=3, v=0.0, w=1.0))
    eigenvalues = np.sort(np.linalg.eigvals(h).real)
    np.testing.assert_allclose(eigenvalues, [-1, -1, 0, 0, 1, 1], atol=1e-12)
    assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-12


def test_hopping_entries_two_cells():
    h = build_hamiltonian(LatticeConfig(n_cells=2, v=0.5, w=1.0))
    assert h[0, 1] == h[1, 0] == 0.5
    assert h[1, 2] == h[2, 1] == 1.0
    assert h[2, 3] == h[3, 2] == 0.5
    assert np.all(np.diagonal(h) == 0)
    mask = np.zeros_like(h, dtype=bool)
    for k in range(3):
        mask[k, k + 1] = mask[k + 1, k] = True
    assert np.all(h[~mask] == 0)


def test_single_cell_dimer_matrix_and_eigenvalues():
    config = LatticeConfig(n_cells=1, v=1.0, region_start=1, region_end=2,
                           u_re=0.75, u_im=0.75)
    h = build_hamiltonian(config)
    np.testing.assert_array_equal(h, [[0.75 - 0.75j, 1.0], [1.0, 0.75 + 0.75j]])
    eigenvalues = np.sort(np.linalg.eigvals(h).real)
    expected = [0.75 - np.sqrt(1.0 - 0.5625), 0.75 + np.sqrt(1.0 - 0.5625)]
    np.testing.assert_allclose(eigenvalues, expected, atol=1e-12)


def test_tridiagonal_structure():
    h = build_hamiltonian(flagship_config(0.7))
    n = h.shape[0]
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                assert h[i, j] == 0
    off_upper = np.diagonal(h, 1)
    off_lower = np.diagonal(h, -1)
    assert np.all(off_upper.imag == 0)
    np.testing.assert_array_equal(off_upper, off_lower)


def test_hermitian_limit_exact():
    config = flagship_config(0.5, u=(0.75, 0.0))
    h = build_hamiltonian(config)
    np.testing.assert_array_equal(h, h.conj().T)


def test_perturbation_empty_region_is_zero():
    hp = np.diag(hamiltonian_bands(LatticeConfig(n_cells=5, v=0.3))[0])
    assert np.all(hp == 0)


def test_perturbation_four_entries():
    hp = np.diag(hamiltonian_bands(flagship_config(0.25))[0])
    nonzero = np.argwhere(hp != 0)
    assert len(nonzero) == 4
    assert all(i == j for i, j in nonzero)
    assert hp[108, 108] == 0.75 - 0.75j  # site 109, sublattice A
    assert hp[109, 109] == 0.75 + 0.75j
    assert hp[110, 110] == 0.75 - 0.75j
    assert hp[111, 111] == 0.75 + 0.75j


@settings(deadline=None, max_examples=40)
@given(
    n_cells=st.integers(1, 12),
    v=st.floats(0.0, 2.0),
    u_re=st.floats(-1.5, 1.5),
    u_im=st.floats(-1.5, 1.5),
    data=st.data(),
)
def test_decomposition_identity(n_cells, v, u_re, u_im, data):
    start = data.draw(st.integers(1, 2 * n_cells))
    end = data.draw(st.integers(start, 2 * n_cells))
    config = LatticeConfig(n_cells=n_cells, v=v, region_start=start,
                           region_end=end, u_re=u_re, u_im=u_im)
    total = build_hamiltonian(config)
    pure = build_hamiltonian(config.without_region())
    np.testing.assert_array_equal(total, pure + np.diag(hamiltonian_bands(config)[0]))


def loop_hamiltonian(config: LatticeConfig) -> np.ndarray:
    """Reference builder: one bond and one block site at a time."""
    n = config.n_sites
    h = np.zeros((n, n), dtype=complex)
    if config.has_region:
        for site in range(config.region_start, config.region_end + 1):
            u_im = -config.u_im if site % 2 == 1 else config.u_im
            h[site - 1, site - 1] = complex(config.u_re, u_im)
    for cell in range(config.n_cells):
        a = 2 * cell
        h[a, a + 1] = h[a + 1, a] = config.v
        if cell + 1 < config.n_cells:
            h[a + 1, a + 2] = h[a + 2, a + 1] = config.w
    return h


@settings(deadline=None, max_examples=40)
@given(
    n_cells=st.integers(1, 12),
    v=st.floats(0.0, 2.0),
    u_re=st.sampled_from([0.0, -0.0, 0.75, -1.2]),
    u_im=st.sampled_from([0.0, -0.0, 0.75, -1.2]),
    data=st.data(),
)
def test_bands_build_the_dense_hamiltonian_bitwise(n_cells, v, u_re, u_im, data):
    start = data.draw(st.integers(1, 2 * n_cells))
    end = data.draw(st.integers(start, 2 * n_cells))
    for config in (
        LatticeConfig(n_cells=n_cells, v=v, region_start=start, region_end=end,
                      u_re=u_re, u_im=u_im),
        LatticeConfig(n_cells=n_cells, v=v),
    ):
        h = build_hamiltonian(config)
        assert h.tobytes() == loop_hamiltonian(config).tobytes()
        diagonal, off_diagonal = hamiltonian_bands(config)
        assert off_diagonal.dtype == float
        assert diagonal.tobytes() == np.diagonal(h).tobytes()
        assert off_diagonal.tobytes() == np.diagonal(h, 1).real.tobytes()


def test_edge_correction_disjoint_support_exactly_zero():
    config = flagship_config(0.25)
    psi = np.zeros(220, dtype=complex)
    psi[0] = 1.0
    assert edge_correction(config, psi) == 0


def test_edge_correction_uniform_state():
    config = flagship_config(0.25)
    psi = np.full(220, 1.0 / np.sqrt(220), dtype=complex)
    value = edge_correction(config, psi)
    assert value.imag == 0.0  # loss/gain contributions cancel pairwise
    np.testing.assert_allclose(value.real, 4 * 0.75 / 220, rtol=1e-12)


def test_edge_correction_geometric_edge_state():
    # Closed-form left edge state: A-sublattice amplitudes (-v/w)^(n-1).
    config = flagship_config(0.25)
    psi = np.zeros(220, dtype=complex)
    psi[0::2] = (-0.25) ** np.arange(110)
    psi /= np.linalg.norm(psi)
    assert abs(edge_correction(config, psi)) < 1e-6


def test_edge_correction_dimension_mismatch():
    with pytest.raises(ValueError):
        edge_correction(flagship_config(0.25), np.ones(10, dtype=complex))


def test_pt_symmetry_examples():
    assert is_pt_matrix(build_hamiltonian(flagship_config(0.25)))
    assert not is_pt_matrix(build_hamiltonian(flagship_config(0.25, region=(107, 110))))
    assert is_pt_matrix(build_hamiltonian(LatticeConfig(n_cells=110, v=0.25)))


def test_pt_predicate_centered_vs_shifted():
    centered = LatticeConfig(n_cells=20, v=0.5, region_start=19, region_end=22,
                             u_re=0.3, u_im=0.4)
    shifted = LatticeConfig(n_cells=20, v=0.5, region_start=17, region_end=20,
                            u_re=0.3, u_im=0.4)
    assert is_pt_matrix(build_hamiltonian(centered))
    assert not is_pt_matrix(build_hamiltonian(shifted))


@settings(deadline=None, max_examples=30)
@given(n_cells=st.integers(1, 12), v=st.floats(0.0, 2.0))
def test_chiral_symmetry_of_pure_chain(n_cells, v):
    h = build_hamiltonian(LatticeConfig(n_cells=n_cells, v=v))
    eigenvalues, vectors = np.linalg.eig(h)
    signs = np.where(np.arange(2 * n_cells) % 2 == 0, -1.0, 1.0)
    for k in range(len(eigenvalues)):
        flipped = signs * vectors[:, k]
        residual = np.linalg.norm(h @ flipped + eigenvalues[k] * flipped)
        assert residual < 1e-10


@pytest.mark.parametrize(
    "kwargs, key",
    [
        (dict(n_cells=0, v=0.5), "n_cells"),
        (dict(n_cells=4, v=-0.1), "v"),
        (dict(n_cells=4, v=0.5, w=0.0), "w"),
        (dict(n_cells=4, v=0.5, region_start=0, region_end=3), "region_start"),
        (dict(n_cells=4, v=0.5, region_start=3, region_end=9), "region_end"),
        (dict(n_cells=4, v=0.5, region_start=5, region_end=3), "region_start"),
        (dict(n_cells=4, v=0.5, region_start=2), "region_start"),
    ],
)
def test_config_validation_names_offending_field(kwargs, key):
    with pytest.raises(ValueError, match=key):
        LatticeConfig(**kwargs)
