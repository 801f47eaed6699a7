import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nhssh.lattice import LatticeConfig
from nhssh.observables import (
    BipartiteSplit,
    Side,
    bipartite_norms,
    center_of_mass,
    classify_side,
    default_split,
    reference_center,
    site_density,
)

from conftest import flagship_config


def test_site_density_point_mass():
    psi = np.zeros(5, dtype=complex)
    psi[2] = 1.0
    np.testing.assert_array_equal(site_density(psi), [0, 0, 1, 0, 0])


def test_site_density_phases_drop_out():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    np.testing.assert_allclose(site_density(psi), [0.5, 0.5])


@settings(deadline=None, max_examples=40)
@given(hnp.arrays(np.complex128, st.integers(2, 40),
                  elements=st.complex_numbers(max_magnitude=5.0,
                                              allow_nan=False,
                                              allow_infinity=False)))
def test_bipartite_norms_additivity(psi):
    split = BipartiteSplit(len(psi) // 2 if len(psi) > 2 else 1)
    rho_left, rho_right = bipartite_norms(psi, split)
    np.testing.assert_allclose(rho_left + rho_right,
                               np.linalg.norm(psi) ** 2, rtol=1e-12, atol=1e-12)
    assert rho_left >= 0 and rho_right >= 0


def test_bipartite_norms_uniform_state():
    psi = np.full(220, 1.0 / np.sqrt(220), dtype=complex)
    rho_left, rho_right = bipartite_norms(psi, BipartiteSplit(110))
    np.testing.assert_allclose((rho_left, rho_right), (0.5, 0.5), rtol=1e-12)


def test_bipartite_norms_left_edge_state():
    psi = np.zeros(220, dtype=complex)
    psi[0::2] = (-0.25) ** np.arange(110)
    psi /= np.linalg.norm(psi)
    rho_left, rho_right = bipartite_norms(psi, BipartiteSplit(110))
    assert rho_right < 1e-6
    assert rho_left > 1 - 1e-6


def test_bipartite_norms_invalid_split():
    psi = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        bipartite_norms(psi, BipartiteSplit(0))
    with pytest.raises(ValueError):
        bipartite_norms(psi, BipartiteSplit(4))


def test_bipartite_norms_block_equals_per_row_calls(rng):
    h = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    _, vectors = np.linalg.eig(h)
    phases = np.exp(-1j * np.outer(rng.normal(size=64), np.linspace(0.0, 5.0, 40)))
    # (time, site) as evolve_spectral returns it: a transposed, column-major view.
    transposed = (vectors @ phases).T
    split = BipartiteSplit(29)
    for block in (transposed, np.ascontiguousarray(transposed), np.asfortranarray(transposed)):
        rho_left, rho_right = bipartite_norms(block, split)
        assert rho_left.shape == rho_right.shape == (40,)
        per_row = [bipartite_norms(psi, split) for psi in block]
        assert all(isinstance(x, float) for pair in per_row for x in pair)
        assert rho_left.tolist() == [left for left, _ in per_row]
        assert rho_right.tolist() == [right for _, right in per_row]


def test_default_split_and_reference_center():
    config = flagship_config(0.25)
    assert default_split(config).split_site == 110
    assert reference_center(config) == 110.5
    odd_sum = flagship_config(0.25, region=(108, 111))
    assert default_split(odd_sum).split_site == 109
    assert reference_center(odd_sum) == 109.5
    pure = LatticeConfig(n_cells=3, v=0.5)
    assert default_split(pure).split_site == 3
    assert reference_center(pure) == 3.5


def test_center_of_mass_point_and_symmetric():
    psi = np.zeros(8, dtype=complex)
    psi[4] = 2.0  # unnormalized on purpose
    assert center_of_mass(psi) == 5.0
    symmetric = np.array([0.3, 0.1, 0.2, 0.2, 0.1, 0.3], dtype=complex)
    np.testing.assert_allclose(center_of_mass(symmetric), 3.5, rtol=1e-12)


def test_center_of_mass_zero_state_rejected():
    with pytest.raises(ValueError):
        center_of_mass(np.zeros(4, dtype=complex))


def test_classify_side_examples():
    assert classify_side(110.2, 110.5, 0.5) is Side.CENTER
    assert classify_side(50.0, 110.5, 0.5) is Side.LEFT
    assert classify_side(200.0, 110.5, 0.5) is Side.RIGHT
    with pytest.raises(ValueError):
        classify_side(1.0, 1.0, 0.0)


@settings(deadline=None, max_examples=60)
@given(com=st.floats(-50, 50), center=st.floats(-50, 50),
       threshold=st.floats(1e-3, 5.0))
def test_classify_side_total_and_consistent(com, center, threshold):
    side = classify_side(com, center, threshold)
    if abs(com - center) < threshold:
        assert side is Side.CENTER
    elif com < center:
        assert side is Side.LEFT
    else:
        assert side is Side.RIGHT


def test_center_of_mass_block_equals_per_column_calls(rng):
    h = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    _, block = np.linalg.eig(h)
    for layout in (block, np.asfortranarray(block), np.ascontiguousarray(block)):
        com = center_of_mass(layout)
        assert com.shape == (30,)
        assert com.tolist() == [center_of_mass(block[:, i]) for i in range(30)]
    with pytest.raises(ValueError):
        center_of_mass(np.column_stack([block[:, 0], np.zeros(30)]))


def test_classify_side_array_equals_scalar_calls():
    com = np.array([50.0, 110.0, 110.5, 111.0, 110.9, 200.0])
    side = classify_side(com, 110.5, 0.5)
    assert side.tolist() == [classify_side(c, 110.5, 0.5) for c in com.tolist()]
    assert side.tolist() == [Side.LEFT, Side.LEFT, Side.CENTER, Side.RIGHT,
                             Side.CENTER, Side.RIGHT]
