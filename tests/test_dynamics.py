import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nhssh import dynamics, spectral
from nhssh.dynamics import (
    Edge,
    NoEdgeStateError,
    QuenchSpec,
    edge_states,
    evolve_propagator,
    evolve_spectral,
    evolve_chebyshev,
    initial_edge_state,
    run_quench,
)
from nhssh.config import LatticeConfig
from nhssh.lattice import build_hamiltonian, hamiltonian_bands
from nhssh.observables import bipartite_norms, default_split, site_density
from nhssh.spectral import eigendecompose

from conftest import complex_eig, flagship_config


def small_pt_config(v: float) -> LatticeConfig:
    # 60 sites, centered four-site block (29 + 32 = 2N + 1).
    return LatticeConfig(n_cells=30, v=v, region_start=29, region_end=32,
                         u_re=0.75, u_im=0.75)


def force_condition_ceiling(monkeypatch, ceiling: float) -> None:
    """Make run_quench judge its final eigenbasis against the given ceiling."""
    monkeypatch.setattr(dynamics, "CONDITION_CEILING", ceiling)


def test_edge_state_dimerized_limit_is_site_one():
    h = build_hamiltonian(LatticeConfig(n_cells=3, v=0.0))
    psi = initial_edge_state(h, Edge.LEFT)
    expected = np.zeros(6, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(psi, expected, atol=1e-12)


def test_edge_state_geometric_decay():
    h = build_hamiltonian(LatticeConfig(n_cells=110, v=0.25))
    psi = initial_edge_state(h, Edge.LEFT)
    assert np.sum(np.abs(psi[1::2]) ** 2) < 1e-12  # no B-sublattice weight
    ratios = psi[2:20:2] / psi[0:18:2]
    np.testing.assert_allclose(ratios, -0.25, rtol=1e-6)
    analytic = np.zeros(220, dtype=complex)
    analytic[0::2] = (-0.25) ** np.arange(110)
    analytic /= np.linalg.norm(analytic)
    assert abs(analytic.conj() @ psi) > 1 - 1e-10


def test_edge_state_phase_and_norm():
    h = build_hamiltonian(small_pt_config(0.25))
    psi = initial_edge_state(h, Edge.RIGHT)
    np.testing.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)
    k = np.argmax(np.abs(psi))
    assert psi[k].imag == pytest.approx(0.0, abs=1e-12)
    assert psi[k].real > 0


def test_edge_state_mirror_pair():
    h = build_hamiltonian(LatticeConfig(n_cells=110, v=0.25))
    psi_left = initial_edge_state(h, Edge.LEFT)
    psi_right = initial_edge_state(h, Edge.RIGHT)
    np.testing.assert_allclose(psi_right, psi_left[::-1], atol=1e-10)


def test_no_edge_state_beyond_transition():
    h = build_hamiltonian(flagship_config(1.5))
    with pytest.raises(NoEdgeStateError):
        initial_edge_state(h, Edge.LEFT)


def test_no_edge_states_where_a_block_mode_sits_at_zero_energy():
    # With u = -+i the block's central bond, w = 1, is an exceptional point at
    # E = 0: four |E| lie below the tolerance (1.3e-16, 3.7e-15 and 3.8e-9
    # twice), and the smallest pair held one edge mode and one block mode.
    with pytest.raises(NoEdgeStateError, match=r"exactly 2 modes .* found 4; .*, 3\.820e-09$"):
        edge_states(build_hamiltonian(flagship_config(0.25, u=(0.0, 1.0))))


def test_run_quench_reads_the_zero_mode_tol_of_its_spec():
    # The three smallest |E| of the flagship's initial H are 8.5e-16, 2.8e-15
    # and 8.3e-2: a tolerance of 0.1 lets a block mode join the edge pair.
    config = flagship_config(0.25)
    spec = QuenchSpec(config, config.with_v(1.5), (Edge.LEFT,), [0.0], zero_mode_tol=0.1)
    with pytest.raises(NoEdgeStateError, match=r"\|E\| < 0\.1, found 3; .*, 8\.299e-02$"):
        run_quench(spec)


def test_spectral_evolution_returns_initial_state_at_t_zero():
    h = build_hamiltonian(small_pt_config(1.3))
    es = eigendecompose(h)
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    traj = evolve_spectral(es, psi0, np.array([0.0]))
    tol = max(1e-12, 10 * es.completeness_residual)
    np.testing.assert_allclose(traj.states[0], psi0, atol=tol)

    # Times are taken flat, in any order and of any sign: the state at t = -1.5
    # evolves back to psi0 in 1.5.
    times = np.array([[2.0, -1.5], [0.0, 7.5]])
    traj = evolve_spectral(es, psi0, times)
    assert traj.times.shape == (4,) and traj.states.shape == (4, psi0.size)
    for t, state in zip(times.ravel(), traj.states):
        np.testing.assert_allclose(state, evolve_spectral(es, psi0, [t]).states[0],
                                   rtol=0, atol=1e-12)
    np.testing.assert_allclose(evolve_propagator(h, traj.states[1], [1.5]).states[0], psi0,
                               atol=tol)
    for times, message in (([], "nonempty"), ([np.nan], "finite"), ([1.0, np.inf], "finite")):
        with pytest.raises(ValueError, match=f"times must be {message}"):
            evolve_spectral(es, psi0, times)


def test_hermitian_evolution_conserves_norm():
    config = LatticeConfig(n_cells=20, v=1.4)
    es = eigendecompose(build_hamiltonian(config))
    psi0 = initial_edge_state(build_hamiltonian(config.with_v(0.25)), Edge.LEFT)
    traj = evolve_spectral(es, psi0, np.arange(0.0, 30.5, 0.5))
    norms = np.sum(traj.densities, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-8)


def test_propagator_zero_hamiltonian():
    h = np.zeros((4, 4), dtype=complex)
    psi0 = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    traj = evolve_propagator(h, psi0, np.array([0.0, 1.0, 2.5]))
    for state in traj.states:
        np.testing.assert_array_equal(state, psi0)


def test_propagator_single_site_absorber():
    g = 0.3
    h = np.array([[-1j * g]])
    psi0 = np.array([1.0 + 0j])
    times = np.array([0.0, 0.7, 1.3, 5.0])
    traj = evolve_propagator(h, psi0, times)
    norms = np.array([np.linalg.norm(s) for s in traj.states])
    np.testing.assert_allclose(norms, np.exp(-g * times), atol=1e-10)


def test_propagator_matches_spectral_route():
    h = build_hamiltonian(small_pt_config(1.3))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    times = np.arange(0.0, 40.5, 0.5)
    traj_s = evolve_spectral(eigendecompose(h), psi0, times)
    traj_p = evolve_propagator(h, psi0, times)
    assert np.max(np.abs(traj_s.densities - traj_p.densities)) < 1e-8


def test_propagator_handles_offset_and_nonuniform_grids():
    h = build_hamiltonian(small_pt_config(1.3))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    times = np.array([2.0, 3.0, 7.5])
    traj_s = evolve_spectral(eigendecompose(h), psi0, times)
    traj_p = evolve_propagator(h, psi0, times)
    assert np.max(np.abs(traj_s.densities - traj_p.densities)) < 1e-10


def test_spectral_route_and_densities_are_bitwise_the_out_of_place_expressions():
    # The flagship quench, both sides, 1001 samples, through the real form as
    # run_quench decomposes it. evolve_spectral and densities work in place;
    # swapping a complex product's operands would change last bits here.
    es = eigendecompose(build_hamiltonian(flagship_config(1.5)))
    times = np.arange(1001) * 0.5
    for psi0 in edge_states(build_hamiltonian(flagship_config(0.25))).values():
        traj = evolve_spectral(es, psi0, times)
        coeff = es.left_vectors.conj().T @ psi0
        phases = np.exp(-1j * np.outer(es.eigenvalues, times))
        expected = (es.right_vectors @ (coeff[:, np.newaxis] * phases)).T
        assert traj.states.tobytes() == expected.tobytes()
        assert traj.densities.tobytes() == (np.abs(expected) ** 2).tobytes()


@settings(deadline=None, max_examples=10)
@given(scale=st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0,
                                allow_nan=False, allow_infinity=False))
def test_evolution_linearity(scale):
    config = small_pt_config(1.2)
    h = build_hamiltonian(config)
    es = eigendecompose(h)
    psi0 = initial_edge_state(build_hamiltonian(config.with_v(0.25)), Edge.RIGHT)
    times = np.array([0.0, 5.0, 11.0])
    base = evolve_spectral(es, psi0, times)
    scaled = evolve_spectral(es, scale * psi0, times)
    np.testing.assert_allclose(scaled.states, scale * base.states,
                               rtol=1e-10, atol=1e-12)


def test_mirror_symmetric_trajectories_for_pure_chain():
    config = LatticeConfig(n_cells=30, v=0.25)
    times = np.arange(0.0, 40.5, 0.5)
    traj = run_quench(QuenchSpec(config, config.with_v(1.5), (Edge.LEFT, Edge.RIGHT), times))
    traj_l, traj_r = traj[Edge.LEFT], traj[Edge.RIGHT]
    assert np.max(np.abs(traj_l.densities - traj_r.densities[:, ::-1])) < 1e-8


def test_run_quench_both_sides_equals_single_side_runs():
    config = small_pt_config(0.25)
    times = np.arange(0.0, 10.5, 0.5)
    both = run_quench(QuenchSpec(config, config.with_v(1.3), (Edge.LEFT, Edge.RIGHT), times))
    assert list(both) == [Edge.LEFT, Edge.RIGHT]
    for side in Edge:
        single = run_quench(QuenchSpec(config, config.with_v(1.3), (side,), times))
        assert list(single) == [side]
        assert np.array_equal(both[side].times, single[side].times)
        assert np.array_equal(both[side].states, single[side].states)


def test_quench_onto_same_config_is_stationary():
    config = small_pt_config(0.25)
    times = np.arange(0.0, 20.5, 0.5)
    traj = run_quench(QuenchSpec(config, config, (Edge.LEFT,), times))[Edge.LEFT]
    assert np.max(np.abs(traj.densities - traj.densities[0])) < 1e-8


def test_run_quench_falls_back_to_propagator(monkeypatch):
    config = small_pt_config(0.25)
    spec = QuenchSpec(config, config.with_v(1.3), (Edge.LEFT,),
                      np.arange(0.0, 10.5, 0.5))
    default_route = run_quench(spec)[Edge.LEFT]
    force_condition_ceiling(monkeypatch, 1.0)
    forced_fallback = run_quench(spec)[Edge.LEFT]
    assert np.max(np.abs(default_route.densities - forced_fallback.densities)) < 1e-8


# 301 samples: two whole blocks of the spectral route and a partial third; the
# propagator route gives each side as one block.
@pytest.mark.parametrize("ceiling, propagator_calls", [(None, 0), (0.0, 2)],
                         ids=["spectral", "propagator"])
def test_quench_table_rows_are_the_reductions_of_the_whole_states(ceiling, propagator_calls,
                                                                   monkeypatch):
    config = small_pt_config(0.25)
    times = np.arange(0.0, 150.25, 0.5)
    assert times.size > 2 * dynamics._TIME_BLOCK
    spec = QuenchSpec(config, config.with_v(1.3), tuple(Edge), times)
    if ceiling is not None:
        force_condition_ceiling(monkeypatch, ceiling)
    calls = []

    def counting_propagator(*args, **kwargs):
        calls.append(args[0].shape)
        return evolve_propagator(*args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_propagator", counting_propagator)
    whole = run_quench(spec)
    assert len(calls) == propagator_calls
    # The whole states are each route's own, called directly.
    psi0 = edge_states(build_hamiltonian(config))
    h_final = build_hamiltonian(spec.final_config)
    for side in Edge:
        if propagator_calls:
            route = evolve_propagator(h_final, psi0[side], times)
        else:
            route = evolve_spectral(eigendecompose(h_final), psi0[side], times)
        assert whole[side].states.tobytes() == route.states.tobytes()
    split = default_split(config)

    def norms(states):
        return np.column_stack(bipartite_norms(states, split))

    for reduce in (site_density, norms):
        tables = dynamics._quench_tables(spec, reduce)
        assert list(tables) == list(Edge)
        for side, table in tables.items():
            reference = reduce(whole[side].states)
            assert table.shape == reference.shape and table.dtype == reference.dtype
            assert table.tobytes() == reference.tobytes()
    assert len(calls) == 3 * propagator_calls


def test_flagship_edge_states_real_form_match_complex_route(monkeypatch):
    h = build_hamiltonian(flagship_config(0.25))
    states = edge_states(h)
    monkeypatch.setattr(dynamics, "_sorted_eig", complex_eig)
    reference = edge_states(h)
    for side in Edge:
        assert np.max(np.abs(states[side] - reference[side])) <= 1e-12


# At v/w = 0.25 a block mode with Im E = 0.46 amplifies the rounding noise of
# either route by exp(0.46 t), so the routes are compared only up to t = 20.
@pytest.mark.parametrize("v, t_max", [(0.25, 20.0), (1.0, 120.0), (1.125, 120.0),
                                      (1.5, 120.0), (2.0, 120.0)])
def test_evolve_states_real_form_matches_complex_route(v, t_max, monkeypatch):
    initial = flagship_config(0.25)
    psi0 = edge_states(build_hamiltonian(initial))
    h = build_hamiltonian(flagship_config(v))
    times = np.linspace(0.0, t_max, 13)
    trajectories = run_quench(QuenchSpec(initial, initial.with_v(v), tuple(Edge), times))
    monkeypatch.setattr(spectral, "is_pt_matrix", lambda a: False)
    es = eigendecompose(h)  # complex eig
    assert es.condition <= dynamics.CONDITION_CEILING
    for side, psi in psi0.items():
        reference = evolve_spectral(es, psi, times)
        assert np.max(np.abs(trajectories[side].states - reference.states)) <= 1e-10


def test_quench_spec_validation():
    config = small_pt_config(0.25)
    other_region = LatticeConfig(n_cells=30, v=1.0, region_start=27,
                                 region_end=30, u_re=0.75, u_im=0.75)
    with pytest.raises(ValueError):
        QuenchSpec(config, other_region, (Edge.LEFT,), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        QuenchSpec(config, config.with_v(1.0), (Edge.LEFT,), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        QuenchSpec(config, config.with_v(1.0), (Edge.LEFT,), np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        QuenchSpec(config, config.with_v(1.0), (Edge.LEFT,), np.array([]))
    for times in ([0.0, np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            QuenchSpec(config, config.with_v(1.0), (Edge.LEFT,), np.array(times))
    for sides in ((), (Edge.LEFT, Edge.LEFT), ("left",)):
        with pytest.raises(ValueError):
            QuenchSpec(config, config.with_v(1.0), sides, np.array([0.0, 1.0]))


def test_propagator_rejects_non_finite_times():
    h = build_hamiltonian(small_pt_config(1.1))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    for times in ([0.0, np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            evolve_propagator(h, psi0, np.array(times))


# 1e300 needs about a thousand squarings; at 1e308 the norm of -i h dt
# overflows, with a warning.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_propagator_step_beyond_its_series_raises():
    h = build_hamiltonian(small_pt_config(1.1))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    for t in (1e300, 1e308):
        with pytest.raises(RuntimeError, match=re.escape(f"dt={t:g}: series misses")):
            evolve_propagator(h, psi0, np.array([t]))


def test_evolution_routes_reject_a_non_finite_matrix_or_a_misshapen_state():
    h = build_hamiltonian(small_pt_config(1.1))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    broken = h.copy()
    broken[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        evolve_propagator(broken, psi0, [1.0])
    es = eigendecompose(h)
    for psi in (psi0[:-1], np.stack([psi0, psi0])):
        with pytest.raises(ValueError, match="psi0 has shape"):
            evolve_propagator(h, psi, [1.0])
        with pytest.raises(ValueError, match="psi0 has shape"):
            evolve_spectral(es, psi, [1.0])


def test_propagator_refuses_a_matrix_that_is_not_square():
    psi0 = np.eye(4, dtype=complex)[0]
    for shape in ((4, 5), (4, 4, 1)):
        with pytest.raises(ValueError, match="expected a square matrix"):
            evolve_propagator(np.zeros(shape), psi0, [1.0])


def test_trajectory_densities_match_states():
    h = build_hamiltonian(small_pt_config(1.1))
    psi0 = initial_edge_state(build_hamiltonian(small_pt_config(0.25)), Edge.LEFT)
    traj = evolve_propagator(h, psi0, np.array([0.0, 4.0]))
    np.testing.assert_array_equal(traj.densities, np.abs(traj.states) ** 2)
    assert np.all(traj.densities >= 0)
    np.testing.assert_array_equal(traj.states[0], psi0)


# ---------------------------------------------------------------------------
# Batched Chebyshev route (evolve_chebyshev) against the spectral and propagator routes
# ---------------------------------------------------------------------------

def chebyshev_batch(configs, states, t):
    """evolve_chebyshev of the same (k, n) block of states under each config,
    one lane per (config, state), as a (configs, k, n) array."""
    diagonal, off_diagonal = map(np.array, zip(*map(hamiltonian_bands, configs)))
    k = len(states)
    evolved = evolve_chebyshev(np.repeat(diagonal, k, axis=0),
                               np.repeat(off_diagonal, k, axis=0),
                               np.tile(states, (len(configs), 1)), t)
    return evolved.reshape(len(configs), k, -1)


def spectral_at(es, block, t):
    return np.array([evolve_spectral(es, psi, [t]).states[0] for psi in block])


def relative_error(states, reference):
    return np.max(np.abs(states - reference)) / np.max(np.abs(reference))


@pytest.fixture(scope="module")
def flagship_edge_block():
    psi0 = edge_states(build_hamiltonian(flagship_config(0.25)))
    return np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])


# The ratio-sweep grid ends and the phase-rigidity dips of the flagship
# spectrum. At v/w = 0.40 a block mode with Im E = 0.37 amplifies rounding
# noise, and the spectral and propagator routes part beyond t = 34.
@pytest.mark.parametrize("v, t", [(1.0, 120.0), (2.0, 120.0), (0.40, 30.0),
                                  (0.90, 120.0), (1.10, 120.0), (1.65, 120.0)])
def test_chebyshev_route_matches_propagator_at_flagship_size(flagship_edge_block, v, t):
    config = flagship_config(v)
    h = build_hamiltonian(config)
    propagated = np.array([evolve_propagator(h, psi, [t]).states[0]
                           for psi in flagship_edge_block])
    spectral = spectral_at(eigendecompose(h), flagship_edge_block, t)
    assert relative_error(spectral, propagated) <= 1e-10
    [chebyshev] = chebyshev_batch([config], flagship_edge_block, t)
    assert relative_error(chebyshev, propagated) <= 1e-10


# Below v/w = 1.4 the stronger block (0.75, 1.0) has a mode with Im E up to
# 0.39 that the edge states barely touch; the spectral route's rounding noise
# in its coefficient grows to 2.5e-5 relative by t = 120, so the test below
# takes the propagator as the oracle there.
@pytest.mark.parametrize("region, u, grid", [
    ((109, 112), (0.75, 0.75), (1.0, 1.5, 2.0)),
    ((109, 112), (0.75, 1.0), (1.4, 1.5, 2.0)),
    ((109, 112), (0.75, 0.25), (1.0, 1.5, 2.0)),
    ((109, 112), (0.0, 0.75), (1.0, 1.5, 2.0)),
    ((107, 110), (0.75, 0.75), (1.0, 1.5, 2.0)),
], ids=["pt", "stronger", "weaker", "pure-imaginary", "off-center"])
def test_chebyshev_route_matches_spectral_route(flagship_edge_block, region, u, grid):
    """The four acceptance blocks and the off-center (not PT-symmetric) one."""
    configs = [flagship_config(v, region=region, u=u) for v in grid]
    chebyshev = chebyshev_batch(configs, flagship_edge_block, 120.0)
    for config, states in zip(configs, chebyshev):
        reference = spectral_at(eigendecompose(build_hamiltonian(config)),
                                flagship_edge_block, 120.0)
        assert relative_error(states, reference) <= 1e-10


def test_chebyshev_route_follows_propagator_past_a_growing_mode(flagship_edge_block):
    config = flagship_config(1.0, u=(0.75, 1.0))
    h = build_hamiltonian(config)
    propagated = np.array([evolve_propagator(h, psi, [120.0]).states[0]
                           for psi in flagship_edge_block])
    [chebyshev] = chebyshev_batch([config], flagship_edge_block, 120.0)
    assert np.max(np.abs(propagated)) > 1e9  # the growing mode dominates
    assert relative_error(chebyshev, propagated) <= 1e-10


def test_chebyshev_route_t_zero_and_members_apart():
    configs = [small_pt_config(v) for v in (0.5, 1.3, 2.0)]
    psi0 = edge_states(build_hamiltonian(small_pt_config(0.25)))
    block = np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])
    unchanged = chebyshev_batch(configs, block, 0.0)
    assert unchanged.tobytes() == np.broadcast_to(block, unchanged.shape).tobytes()
    batch = chebyshev_batch(configs, block, 15.0)
    for config, member in zip(configs, batch):
        [alone] = chebyshev_batch([config], block, 15.0)
        assert np.array_equal(alone, member)
        es = eigendecompose(build_hamiltonian(config))
        assert relative_error(member, spectral_at(es, block, 15.0)) <= 1e-10


def test_chebyshev_route_single_site_gain_and_loss():
    rates = np.array([0.3, -0.1, 0.0])  # loss, gain, neither
    states = evolve_chebyshev((-1j * rates)[:, None], np.zeros((3, 0)),
                              np.ones((3, 1), dtype=complex), 5.0)
    np.testing.assert_allclose(states[:, 0], np.exp(-rates * 5.0), rtol=1e-14)


def test_chebyshev_route_uncoupled_gain_and_loss_sites():
    # No hopping and equal Re d: the enclosure's real side is a point, so the
    # imaginary side sets the half-width.
    diagonal = np.array([[0.5 - 0.3j, 0.5 + 0.2j, 0.5 + 0.0j]])
    states = evolve_chebyshev(diagonal, np.zeros((1, 2)), np.ones((1, 3), dtype=complex), 5.0)
    np.testing.assert_allclose(states[0], np.exp(-1j * diagonal[0] * 5.0), rtol=1e-13)


def test_chebyshev_route_rejects_malformed_input():
    diagonal, off_diagonal = np.zeros((2, 4), dtype=complex), np.ones((2, 3))
    states = np.ones((2, 4), dtype=complex)
    for args in [(diagonal, off_diagonal[:, :2], states, 1.0),
                 (diagonal, off_diagonal, states[:, :3], 1.0),
                 (diagonal, off_diagonal, states[:1], 1.0),
                 (diagonal, off_diagonal, states[:, None], 1.0),
                 (diagonal, off_diagonal * np.inf, states, 1.0),
                 (diagonal, off_diagonal, states, -1.0),
                 (diagonal, off_diagonal, states, np.nan),
                 (diagonal, off_diagonal, states, 1e300)]:
        with pytest.raises(ValueError):
            evolve_chebyshev(*args)


@pytest.mark.parametrize("value", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_chebyshev_route_rejects_a_state_that_is_not_finite(value):
    diagonal, off_diagonal = hamiltonian_bands(LatticeConfig(n_cells=3, v=0.5))
    states = np.ones((1, 6), dtype=complex)
    states[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="states must be finite"):
            evolve_chebyshev(diagonal[None], off_diagonal[None], states, 1.0)


def bessel_by_quadrature(x: float, k: int) -> float:
    """J_k(x) = (1/2pi) int cos(x sin(theta) - k theta) over one period, by the
    trapezoid rule on 2 (x + k) + 64 points; k theta is reduced mod 2 pi exactly."""
    points = int(2 * (x + k)) + 64
    j = np.arange(points)
    phase = 2.0 * np.pi * ((k * j) % points) / points
    return float(np.mean(np.cos(x * np.sin(2.0 * np.pi * j / points) - phase)))


@pytest.mark.parametrize("x", [0.0, 0.5, 30.0, 285.0, 1700.0])
def test_bessel_coefficients_match_the_integral_representation(x):
    [table], _ = dynamics._bessel_j(np.array([x]))
    orders = int(1.5 * x) + 201
    assert table.size >= orders
    reference = np.array([bessel_by_quadrature(x, k) for k in range(orders)])
    assert np.max(np.abs(table[:orders] - reference)) <= 1e-13
    assert table[0] ** 2 + 2.0 * np.sum(table[1:] ** 2) == pytest.approx(1.0, abs=1e-14)


def test_bessel_coefficient_rows_do_not_depend_on_the_batch():
    xs = np.array([1700.0, 0.0, 30.0, 0.5, 285.0])
    batch, _ = dynamics._bessel_j(xs)
    for x, row in zip(xs, batch):
        [alone], _ = dynamics._bessel_j(np.array([x]))
        assert np.array_equal(row[: alone.size], alone)
        assert not row[alone.size :].any()


def test_chebyshev_route_follows_propagator_past_a_band_edge_growing_mode():
    # The strong block's growing mode, E = 2.48 + 0.64i, lies above the bulk
    # band (|Re E| <= 1.8), where the terms of the expansion cancel the most.
    config = LatticeConfig(n_cells=30, v=0.8, region_start=29, region_end=32,
                           u_re=2.2, u_im=0.9)
    psi0 = edge_states(build_hamiltonian(small_pt_config(0.25)))
    block = np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])
    h = build_hamiltonian(config)
    propagated = np.array([evolve_propagator(h, psi, [80.0]).states[0] for psi in block])
    [chebyshev] = chebyshev_batch([config], block, 80.0)
    assert np.max(np.abs(propagated)) > 1e12  # the growing mode dominates
    assert relative_error(chebyshev, propagated) <= 1e-10


def test_chebyshev_route_matches_propagator_over_several_steps(flagship_edge_block):
    config = flagship_config(1.5)
    h = build_hamiltonian(config)
    propagated = np.array([evolve_propagator(h, psi, [500.0]).states[0]
                           for psi in flagship_edge_block])
    [chebyshev] = chebyshev_batch([config], flagship_edge_block, 500.0)
    assert relative_error(chebyshev, propagated) <= 1e-10


def test_chebyshev_route_members_apart_with_different_step_counts():
    # At t = 300, v/w = 1.3 takes one step (a t = 802) and v/w = 2.0 two (1012).
    configs = [small_pt_config(v) for v in (1.3, 2.0)]
    psi0 = edge_states(build_hamiltonian(small_pt_config(0.25)))
    block = np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])
    batch = chebyshev_batch(configs, block, 300.0)
    for config, member in zip(configs, batch):
        [alone] = chebyshev_batch([config], block, 300.0)
        assert np.array_equal(alone, member)
        h = build_hamiltonian(config)
        propagated = np.array([evolve_propagator(h, psi, [300.0]).states[0] for psi in block])
        assert relative_error(member, propagated) <= 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chebyshev_route_returns_an_overflowed_member_non_finite():
    # A pure gain/loss pair on sites 5 and 6 of a 10-site chain: |psi| passes
    # 1e200 by t = 400 and the float range before t = 1000.
    configs = [LatticeConfig(n_cells=5, v=1.0, region_start=5, region_end=6, u_im=u_im)
               for u_im in (2.0, 0.0)]
    block = np.zeros((1, 10), dtype=complex)
    block[0, 4] = 1.0
    overflowed, bounded = chebyshev_batch(configs, block, 1000.0)
    assert not np.isfinite(overflowed).all()
    [alone] = chebyshev_batch(configs[1:], block, 1000.0)
    assert np.array_equal(bounded, alone)
    assert np.linalg.norm(bounded) == pytest.approx(1.0, abs=1e-10)


def test_chebyshev_route_caps_its_step_count(monkeypatch):
    monkeypatch.setattr(dynamics, "_CHEBYSHEV_MAX_STEPS", 2)
    diagonal = np.array([[1.0 + 0j, -1.0]])  # uncoupled, half-width a = 1
    states = np.ones((1, 2), dtype=complex)
    [at_cap] = evolve_chebyshev(diagonal, np.zeros((1, 1)), states, 2000.0)  # two steps
    np.testing.assert_allclose(at_cap, np.exp(-2000j * diagonal[0]), rtol=1e-11)
    with pytest.raises(ValueError, match="more than 2 Chebyshev steps"):
        evolve_chebyshev(diagonal, np.zeros((1, 1)), states, np.nextafter(2000.0, np.inf))


@st.composite
def chain_batches(draw):
    """Bands of 1-5 chains of one length, each with its own v and block (at
    any place, ends included), and 1-3 random states under each: one lane per
    (chain, state), as the lanes' configs and an (L, n) array of states."""
    n_cells = draw(st.integers(2, 12))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(1, 2 * n_cells))
        end = min(2 * n_cells, start + draw(st.integers(0, 3)))
        configs.append(LatticeConfig(
            n_cells=n_cells, v=draw(st.floats(0.0, 2.5)), region_start=start,
            region_end=end, u_re=draw(st.floats(-2.0, 2.0)),
            u_im=draw(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    shape = (len(configs) * k, 2 * n_cells)
    lanes = [config for config in configs for _ in range(k)]
    return lanes, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def unit_states(lanes, n, site):
    states = np.zeros((lanes, n), dtype=complex)
    states[:, site] = 1.0
    return states


# Up to t = 400 a lane with v/w near 2.5 takes two steps, and a strong gain
# site overflows a lane, which must still come back as it does alone. The
# first example is a subnormal a t, where the Bessel recurrence's 2k / (a t)
# overflowed. In the second the first lane's lost-digits estimate is 9.2e-11
# alone; counting terms below its own a tau once the second lane's smaller
# a tau is passed read 1.03e-10 and returned it NaN in the batch. In the
# third a loss site beside a v = 0 bond damps the first lane to ~1e-131,
# whose terms are not below unit roundoff times its sum where its table of
# J_j ends: that raised for the whole batch, and now the lane alone is NaN.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=50, derandomize=True)
@given(batch=chain_batches(), t=st.floats(0.0, 400.0))
@example(batch=([LatticeConfig(n_cells=2, v=0.0, region_start=1, region_end=1)],
                np.ones((1, 4), dtype=complex)), t=2.225073858507e-311)
@example(batch=([LatticeConfig(n_cells=4, v=v, region_start=5, region_end=5, u_re=1.0,
                               u_im=1.0) for v in (1.0, 0.5)], unit_states(2, 8, 6)), t=46.0)
@example(batch=([LatticeConfig(n_cells=3, v=0.0, region_start=1, region_end=1, u_im=1.5),
                 LatticeConfig(n_cells=3, v=1.0)], unit_states(2, 6, 0)), t=200.0)
def test_chebyshev_route_members_match_themselves_alone_and_the_propagator(batch, t):
    configs, states = batch
    diagonal, off_diagonal = map(np.array, zip(*map(hamiltonian_bands, configs)))
    evolved = evolve_chebyshev(diagonal, off_diagonal, states, t)
    for lane, config in enumerate(configs):
        [alone] = evolve_chebyshev(diagonal[lane : lane + 1], off_diagonal[lane : lane + 1],
                                   states[lane : lane + 1], t)
        assert evolved[lane].tobytes() == alone.tobytes()
        if config.u_im == 0.0:
            h = build_hamiltonian(config)
            propagated = evolve_propagator(h, states[lane], [t]).states[0]
            assert relative_error(evolved[lane], propagated) <= 1e-10


@pytest.mark.parametrize("ceiling", [dynamics._CHEBYSHEV_ERROR_CEILING, np.inf])
def test_chebyshev_route_returns_a_lane_that_does_not_converge_nan(ceiling, monkeypatch):
    # The third example above, whose healthy lane the test above checks. Its
    # damped lane's terms also cancel; with the lost-digits check off (an
    # infinite ceiling), the end of its Bessel table alone must give it NaN.
    monkeypatch.setattr(dynamics, "_CHEBYSHEV_ERROR_CEILING", ceiling)
    configs = [LatticeConfig(n_cells=3, v=0.0, region_start=1, region_end=1, u_im=1.5),
               LatticeConfig(n_cells=3, v=1.0)]
    diagonal, off_diagonal = map(np.array, zip(*map(hamiltonian_bands, configs)))
    damped, healthy = evolve_chebyshev(diagonal, off_diagonal, unit_states(2, 6, 0), 200.0)
    assert np.isnan(damped).all() and np.isfinite(healthy).all()


def test_forced_propagator_fallback_matches_spectral_route_at_flagship_size(monkeypatch):
    config = flagship_config(0.25)
    spec = QuenchSpec(config, config.with_v(1.5), tuple(Edge), np.arange(0.0, 500.5, 0.5))
    calls = []

    def counting_propagator(*args, **kwargs):
        calls.append(args[0].shape)
        return evolve_propagator(*args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_propagator", counting_propagator)
    spectral = run_quench(spec)
    assert calls == []
    force_condition_ceiling(monkeypatch, 0.0)
    forced = run_quench(spec)
    assert calls == [(220, 220)] * 2
    for side in Edge:
        error = np.abs(forced[side].states - spectral[side].states).max(axis=1)
        scale = np.abs(spectral[side].states).max(axis=1)
        assert np.all(error <= 1e-10 * scale)


# A real exceptional point at flagship size: at v = 0 the two-site block
# 110-111, u = 0.75 -+ 1.0i, is a dimer with u_im = w, an exact Jordan pair at
# E = 0.75. Its kappa_1 is 3.4e16, so run_quench takes the propagator with the
# ceiling as it is, and the Chebyshev route, which needs no eigenbasis, agrees.
def test_propagator_fallback_runs_unforced_at_a_flagship_size_exceptional_point(monkeypatch):
    initial = flagship_config(0.25, region=(110, 111), u=(0.75, 1.0))
    final = initial.with_v(0.0)
    assert eigendecompose(build_hamiltonian(final)).condition > dynamics.CONDITION_CEILING
    times = np.array([30.0, 120.0, 500.0])
    calls = []

    def counting_propagator(*args, **kwargs):
        calls.append(args[0].shape)
        return evolve_propagator(*args, **kwargs)

    monkeypatch.setattr(dynamics, "evolve_propagator", counting_propagator)
    propagated = run_quench(QuenchSpec(initial, final, tuple(Edge), times))
    assert calls == [(220, 220)] * 2
    psi0 = edge_states(build_hamiltonian(initial))
    block = np.stack([psi0[side] for side in Edge])
    for k, t in enumerate(times):
        [chebyshev] = chebyshev_batch([final], block, t)
        reference = np.stack([propagated[side].states[k] for side in Edge])
        assert relative_error(chebyshev, reference) <= 1e-10


@st.composite
def edge_state_quenches(draw):
    """A chain of 3-12 cells with a block of width 1-4 anywhere, quenched from
    v/w in [0.05, 0.6] to v/w in [0, 2.5]."""
    n_cells = draw(st.integers(3, 12))
    width = draw(st.integers(1, 4))
    start = draw(st.integers(1, 2 * n_cells - width + 1))
    initial = LatticeConfig(
        n_cells=n_cells, v=draw(st.floats(0.05, 0.6)), region_start=start,
        region_end=start + width - 1, u_re=draw(st.floats(0.0, 1.5)),
        u_im=draw(st.floats(0.0, 1.5)))
    return initial, initial.with_v(draw(st.floats(0.0, 2.5)))


# Both edge states through all three routes, with the propagator as the
# oracle: no route may return a finite state off by more than 1e-8. Every
# route puts rounding-level weight on every mode, and a mode with
# gamma = Im E > 0 grows it by exp(gamma t), so a draw counts only where that
# floor, estimated as u n kappa_1 exp(gamma t) over the largest |psi(t)|, is
# within the tolerance. In the first example a gain site beside the edge
# (gamma = 0.73) puts the floor at 1.8e-7: the spectral and propagator routes
# are 7e-9 and 8e-9 off a 50-digit reference and 1.1e-8 apart, so it asserts
# nothing. In the second (floor 9e-15), a Chebyshev centre at the midpoint of
# [min Im d, max Im d] gives a finite state 1.0e-8 off. Before the floor is
# read, run_quench must return the state of the route its kappa_1 rule
# chooses, bit for bit: the spectral route where kappa_1 <= CONDITION_CEILING,
# the propagator otherwise. The third example is an exact EP, the block 6-7
# isolated at v = 0 as a dimer with u_im = w, where kappa_1 = 3.4e16 sends it
# to the propagator.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=200, derandomize=True)
@given(quench=edge_state_quenches(), t=st.floats(0.0, 150.0))
@example(quench=(LatticeConfig(n_cells=5, v=0.25, region_start=2, region_end=2, u_im=1.5),) * 2,
         t=23.0)
@example(quench=(LatticeConfig(n_cells=5, v=0.25, region_start=2, region_end=2, u_im=1.0),
                 LatticeConfig(n_cells=5, v=0.0, region_start=2, region_end=2, u_im=1.0)),
         t=25.0)
@example(quench=(LatticeConfig(n_cells=6, v=0.25, region_start=6, region_end=7, u_re=0.75,
                               u_im=1.0),
                 LatticeConfig(n_cells=6, v=0.0, region_start=6, region_end=7, u_re=0.75,
                               u_im=1.0)),
         t=30.0)
def test_no_route_returns_a_wrong_finite_state(quench, t):
    initial, final = quench
    try:
        psi0 = edge_states(build_hamiltonian(initial))
    except NoEdgeStateError:
        assume(False)
    block = np.stack([psi0[Edge.LEFT], psi0[Edge.RIGHT]])
    h = build_hamiltonian(final)
    propagated = np.array([evolve_propagator(h, psi, [t]).states[0] for psi in block])
    es = eigendecompose(h)
    spectral = spectral_at(es, block, t) if es.condition <= dynamics.CONDITION_CEILING else None
    routed = run_quench(QuenchSpec(initial, final, tuple(Edge), [t]))
    routed = np.stack([routed[side].states[0] for side in Edge])
    assert routed.tobytes() == (propagated if spectral is None else spectral).tobytes()
    gamma = max(0.0, es.eigenvalues.imag.max())
    floor = (np.finfo(float).eps / 2.0 * h.shape[0] * es.condition * np.exp(gamma * t)
             / np.max(np.abs(propagated)))
    assume(floor <= 1e-8)
    if spectral is not None:
        assert relative_error(spectral, propagated) <= 1e-8
    [chebyshev] = chebyshev_batch([final], block, t)
    assert not np.isfinite(chebyshev).all() or relative_error(chebyshev, propagated) <= 1e-8
