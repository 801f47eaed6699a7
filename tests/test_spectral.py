import warnings

import numpy as np
import pytest

from nhssh import spectral
from nhssh.config import LatticeConfig
from nhssh.dynamics import NearDefectiveError
from nhssh.lattice import build_hamiltonian, is_pt_matrix
from nhssh.spectral import (
    EpKind,
    Sweep,
    _greedy_match,
    _sorted_eig,
    eigendecompose,
    ep_locate,
    match_branches,
    spectrum_sweep,
    zero_mode_report,
)
from nhssh.observables import Side, center_of_mass

from conftest import complex_eig, flagship_config


def dimer_config(v: float, u_re=0.75, u_im=0.75) -> LatticeConfig:
    return LatticeConfig(n_cells=1, v=v, region_start=1, region_end=2,
                         u_re=u_re, u_im=u_im)


def test_eigenvalues_sorted_by_real_then_imag():
    es = eigendecompose(build_hamiltonian(flagship_config(1.125)))
    keys = [(e.real, e.imag) for e in es.eigenvalues]
    assert keys == sorted(keys)


def test_right_eigenpair_residuals():
    h = build_hamiltonian(flagship_config(1.125))
    es = eigendecompose(h)
    h_norm = np.linalg.norm(h, 2)
    for k in range(es.dim):
        vec = es.right_vectors[:, k]
        residual = np.linalg.norm(h @ vec - es.eigenvalues[k] * vec)
        assert residual < 1e-8 * h_norm


def test_hermitian_limit_left_vectors_match_right():
    es = eigendecompose(build_hamiltonian(LatticeConfig(n_cells=8, v=0.6)))
    assert es.completeness_residual < 1e-10
    for k in range(es.dim):
        left = es.left_vectors[:, k]
        right = es.right_vectors[:, k]
        overlap = abs(left.conj() @ right) / (np.linalg.norm(left) * np.linalg.norm(right))
        assert overlap > 1 - 1e-10


def test_dimer_real_pair():
    es = eigendecompose(build_hamiltonian(dimer_config(1.0)))
    expected = [0.75 - np.sqrt(0.4375), 0.75 + np.sqrt(0.4375)]
    np.testing.assert_allclose(es.eigenvalues.real, expected, atol=1e-10)
    np.testing.assert_allclose(es.eigenvalues.imag, 0, atol=1e-10)


def test_dimer_conjugate_pair():
    es = eigendecompose(build_hamiltonian(dimer_config(0.5)))
    np.testing.assert_allclose(es.eigenvalues.real, [0.75, 0.75], atol=1e-10)
    np.testing.assert_allclose(
        sorted(es.eigenvalues.imag), [-np.sqrt(0.3125), np.sqrt(0.3125)], atol=1e-10
    )


@pytest.mark.parametrize("v", [1.125, 1.5])
def test_biorthonormality_and_completeness(v):
    es = eigendecompose(build_hamiltonian(flagship_config(v)))
    assert es.condition < 1e8
    gram = es.left_vectors.conj().T @ es.right_vectors
    assert np.max(np.abs(gram - np.eye(es.dim))) < 1e-8
    assert es.completeness_residual < 1e-8


def test_pt_spectrum_closed_under_conjugation():
    es = eigendecompose(build_hamiltonian(flagship_config(1.125)))
    for e in es.eigenvalues:
        assert np.min(np.abs(es.eigenvalues - np.conj(e))) < 1e-8


def test_pure_imaginary_potential_negation_closure():
    es = eigendecompose(build_hamiltonian(flagship_config(1.125, u=(0.0, 0.75))))
    for e in es.eigenvalues:
        assert np.min(np.abs(es.eigenvalues + e)) < 1e-8


def test_near_defective_flag_and_rejection(monkeypatch):
    from nhssh import dynamics
    from nhssh.dynamics import evolve_spectral

    monkeypatch.setattr(dynamics, "CONDITION_CEILING", 1.0)
    es = eigendecompose(build_hamiltonian(dimer_config(1.0)))
    assert not es.condition <= dynamics.CONDITION_CEILING
    with pytest.raises(NearDefectiveError):
        evolve_spectral(es, np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0]))


def test_eigendecompose_rejects_a_non_square_or_non_finite_matrix():
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((2, 3)))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        h = np.eye(3, dtype=complex)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            eigendecompose(h)


def test_eigendecompose_at_an_exact_ep_reports_an_infinite_residual_without_a_warning():
    # At v = 0 sites 10 and 11 form an isolated dimer, joined by w = 1 and
    # carrying -+i: an exact Jordan pair at E = 0. The Frobenius norm of
    # R R^-1 - I overflowed with a RuntimeWarning, which the suite's filter
    # makes an error.
    es = eigendecompose(build_hamiltonian(
        LatticeConfig(n_cells=10, v=0.0, region_start=10, region_end=11, u_im=1.0)))
    assert es.condition > 1e250 and es.completeness_residual == np.inf


def test_eigendecompose_of_an_exactly_singular_basis_falls_back_to_the_pseudoinverse():
    # The 3x3 shift is one Jordan block at E = 0: eig returns a right-vector
    # matrix that inv refuses, so the left vectors come from pinv.
    from nhssh.dynamics import evolve_spectral

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        es = eigendecompose(np.eye(3, k=-1, dtype=complex))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(es.right_vectors)
    assert es.condition == np.inf
    assert es.completeness_residual == np.sqrt(2.0) == 1.4142135623730951
    assert np.all(np.isfinite(es.left_vectors))
    with pytest.raises(NearDefectiveError):
        evolve_spectral(es, np.array([1.0, 0.0, 0.0], dtype=complex), np.array([1.0]))


def test_eigendecompose_needs_no_svd_and_reports_one_norm_condition(monkeypatch):
    try:  # the module whose globals cond and norm look svd up in
        from numpy.linalg import _linalg as impl  # numpy >= 2
    except ImportError:
        from numpy.linalg import linalg as impl
    calls = []

    def counting(original):
        def svd(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)
        return svd

    for module in {np.linalg, impl}:
        monkeypatch.setattr(module, "svd", counting(module.svd))
    es = eigendecompose(build_hamiltonian(flagship_config(1.125)))
    assert calls == []
    right = es.right_vectors
    assert es.condition == np.linalg.norm(right, 1) * np.linalg.norm(np.linalg.inv(right), 1)


# Both sides of the PT transition, the ratio-sweep ends and its crossing region.
REAL_FORM_RATIOS = [0.25, 1.0, 1.125, 1.5, 2.0]


@pytest.mark.parametrize("v", REAL_FORM_RATIOS)
def test_pt_real_form_matches_complex_eig(v, monkeypatch):
    h = build_hamiltonian(flagship_config(v))
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "is_pt_matrix", lambda a: False)
        reference = eigendecompose(h)  # complex eig
    es = eigendecompose(h)
    assert es.eigenvalues.dtype == complex
    # The greedy branch matching is a bijection; pair order may differ.
    match = _greedy_match(reference.eigenvalues, es.eigenvalues)
    assert np.max(np.abs(es.eigenvalues - reference.eigenvalues[match])) <= 1e-12
    right = es.right_vectors
    assert np.linalg.norm(h @ right - right * es.eigenvalues) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(right, axis=0) - 1.0)) <= 1e-14
    assert np.linalg.norm(es.left_vectors.conj().T @ right - np.eye(es.dim)) <= 1e-11
    assert es.completeness_residual <= 1e-11
    assert es.condition == pytest.approx(reference.condition, rel=1e-6)


@pytest.mark.parametrize("v", REAL_FORM_RATIOS)
def test_pt_real_form_conjugate_pairs_are_exact(v):
    eigenvalues, _ = _sorted_eig(build_hamiltonian(flagship_config(v)))
    lower = np.flatnonzero(eigenvalues.imag < 0)
    assert lower.size > 0
    assert np.count_nonzero(eigenvalues.imag > 0) == lower.size
    # Re E is bitwise equal within a pair, so -Im E sorts first.
    partner = eigenvalues[lower + 1]
    assert np.array_equal(partner.real, eigenvalues[lower].real)
    assert np.array_equal(partner.imag, -eigenvalues[lower].imag)


@pytest.mark.parametrize("v", [1.125, 1.5])
def test_eigendecompose_of_a_pt_hamiltonian_gives_exact_conjugate_pairs(v):
    eigenvalues = eigendecompose(build_hamiltonian(flagship_config(v))).eigenvalues
    lower = np.flatnonzero(eigenvalues.imag < 0)
    assert lower.size > 0
    partner = eigenvalues[lower + 1]
    assert np.array_equal(partner.real, eigenvalues[lower].real)
    assert np.array_equal(partner.imag, -eigenvalues[lower].imag)


def test_pt_real_form_falls_back_to_complex_eig(monkeypatch):
    broken = build_hamiltonian(flagship_config(1.5, region=(107, 110)))
    # Real part PT-symmetric, imaginary part not.
    broken_gain_loss = build_hamiltonian(
        flagship_config(1.5, region=(107, 110), u=(0.0, 0.75)))
    perturbed = build_hamiltonian(flagship_config(1.5))
    perturbed[108, 108] += 1e-15  # site 109: PT-symmetric only to 1e-15
    dtypes = []
    real_eig = np.linalg.eig

    def recording_eig(a):
        dtypes.append(a.dtype)
        return real_eig(a)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    assert is_pt_matrix(build_hamiltonian(flagship_config(1.5)))
    for h in (broken, broken_gain_loss, perturbed):
        assert not is_pt_matrix(h)
        eigenvalues, right = _sorted_eig(h)
        reference_eigenvalues, reference_right = complex_eig(h)
        assert np.array_equal(eigenvalues, reference_eigenvalues)
        assert np.array_equal(right, reference_right)
    assert dtypes == [np.dtype(complex)] * 6


def test_sweep_empty_region_all_real():
    sweep = spectrum_sweep(LatticeConfig(n_cells=6, v=0.5), [0.3, 0.6, 0.9])
    assert all(abs(im_e) < 1e-12 for im_e in sweep.eigenvalues.imag.ravel())


def test_sweep_rows_ordering_and_determinism():
    template = LatticeConfig(n_cells=10, v=0.25, region_start=9, region_end=12,
                             u_re=0.75, u_im=0.75)
    grid = [0.5, 1.0, 1.5]
    sweep_a = spectrum_sweep(template, grid)
    sweep_b = spectrum_sweep(template, grid)
    for name in ("v_over_w", "eigenvalues", "com", "side"):
        assert np.array_equal(getattr(sweep_a, name), getattr(sweep_b, name))
    assert sweep_a.v_over_w.tolist() == grid
    for table in (sweep_a.eigenvalues, sweep_a.com, sweep_a.side):
        assert table.shape == (len(grid), 20)
    assert len(sweep_a) == len(grid) * 20


def test_sweep_eigenvalues_match_eigendecompose():
    sweep = spectrum_sweep(flagship_config(0.25), [1.125])
    h = build_hamiltonian(flagship_config(1.125))
    eigenvalues, _ = complex_eig(h)
    # Above order 75 the two solvers may order a pair differently.
    match = _greedy_match(eigenvalues, sweep.eigenvalues[0])
    error = np.max(np.abs(sweep.eigenvalues[0] - eigenvalues[match]))
    assert error <= 1e-12 * np.linalg.norm(h, 1)


def random_chain(rng, n_cells: int, v: float) -> LatticeConfig:
    start = int(rng.integers(1, 2 * n_cells + 1))
    return LatticeConfig(n_cells=n_cells, v=v, w=float(rng.uniform(0.2, 3.0)),
                         region_start=start, region_end=int(rng.integers(start, 2 * n_cells + 1)),
                         u_re=float(rng.normal()), u_im=float(rng.normal()))


def test_eigvals_below_order_75_is_zgeev_bit_for_bit():
    rng = np.random.default_rng(32)
    for n_cells in np.repeat(np.arange(2, 38), 3):
        chain = random_chain(rng, int(n_cells), float(rng.uniform(0.01, 3.0)))
        reference = np.linalg.eigvals(build_hamiltonian(chain))
        assert spectral._eigvals(chain).tobytes() == reference.tobytes()
    # At v = 0 zgeev's balancing isolates the cut ends, which zlahqr deflates
    # itself: the same values, but a pair may come out in the other order.
    for n_cells in (2, 10, 37):
        chain = random_chain(rng, n_cells, 0.0)
        h = build_hamiltonian(chain)
        eigenvalues, reference = spectral._eigvals(chain), np.linalg.eigvals(h)
        match = _greedy_match(reference, eigenvalues)
        assert np.max(np.abs(eigenvalues - reference[match])) <= 1e-12 * np.linalg.norm(h, 1)


@pytest.mark.parametrize("ratio", [0.0, 0.4, 1.125, 1.9])
def test_eigvals_matches_zgeev_at_flagship(ratio):
    # At v = 0 zgeev's balancing isolates sites 1 and 220; zlahqr deflates them.
    h = build_hamiltonian(flagship_config(ratio))
    eigenvalues, reference = spectral._eigvals(flagship_config(ratio)), np.linalg.eigvals(h)
    match = _greedy_match(reference, eigenvalues)
    assert np.max(np.abs(eigenvalues - reference[match])) <= 1e-12 * np.linalg.norm(h, 1)


def test_eigvals_falls_back_to_zgeev(monkeypatch):
    def chain(scale=1.0):
        return LatticeConfig(n_cells=6, v=0.5 * scale, w=scale, region_start=5, region_end=8,
                             u_re=0.75 * scale, u_im=0.75 * scale)

    zgeev, calls = object(), []
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or zgeev)
    zlahqr, index = spectral._lapack()

    def failing_zlahqr(*args):
        zlahqr(*args)
        args[-1].value = 1

    def falls_back(config):
        return (spectral._eigvals(config) is zgeev
                and np.array_equal(calls.pop(), build_hamiltonian(config)) and not calls)

    assert spectral._eigvals(chain()).shape == (12,) and not calls
    # Where zgeev would rescale H, and where zlahqr does not converge.
    assert falls_back(chain(1e-150)) and falls_back(chain(1e150))
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_lapack", lambda: (failing_zlahqr, index))
        assert falls_back(chain())
    # Above the crossover order, and where numpy's OpenBLAS lacks the routine.
    monkeypatch.setattr(spectral, "_ZLAHQR_MAX_ORDER", 11)
    assert falls_back(chain())
    monkeypatch.setattr(spectral, "_ZLAHQR_MAX_ORDER", 12)
    assert spectral._eigvals(chain()) is not zgeev
    monkeypatch.setattr(spectral, "_lapack", lambda: None)
    assert falls_back(chain())


def test_sweep_keeps_the_mirror_and_sublattice_symmetries():
    # M H(u_re, u_im) M = H(u_re, -u_im) with M the site flip, and
    # G H(u_re, u_im) G = -H(-u_re, u_im)* with G = +1 on A and -1 on B sites.
    grid, n = [0.4, 0.8, 1.125, 1.5, 1.9], 220
    sweep = spectrum_sweep(flagship_config(0.25), grid)
    partners = [
        (spectrum_sweep(flagship_config(0.25, u=(0.75, -0.75)), grid), lambda e: e, n + 1.0, -1),
        (spectrum_sweep(flagship_config(0.25, u=(-0.75, 0.75)), grid), lambda e: -e.conj(), 0.0, 1),
    ]
    roundoff = np.finfo(float).eps / 2
    # A backward-stable eigensolver errs by about n u ||H||_1 per run; the
    # factor covers both runs and eigenvalue condition numbers up to five.
    safety = 10
    for g, ratio in enumerate(grid):
        norm = np.linalg.norm(build_hamiltonian(flagship_config(ratio)), 1)
        eigenvalue_bound = safety * n * roundoff * norm
        # An eigenvector whose nearest eigenvalue lies delta away moves by about
        # the eigenvalue error / delta, and a center of mass of n sites by up to
        # n times that; only delta > 1e-3 ||H||_1 is checked.
        com_bound = n * eigenvalue_bound / (1e-3 * norm)
        distance = np.abs(sweep.eigenvalues[g][:, np.newaxis] - sweep.eigenvalues[g])
        np.fill_diagonal(distance, np.inf)
        isolated = distance.min(axis=1) > 1e-3 * norm
        for partner, image, offset, sign in partners:
            eigenvalues = image(partner.eigenvalues[g])
            match = _greedy_match(eigenvalues, sweep.eigenvalues[g])
            assert np.max(np.abs(sweep.eigenvalues[g] - eigenvalues[match])) <= eigenvalue_bound
            com = offset + sign * partner.com[g][match]
            assert np.max(np.abs(sweep.com[g] - com)[isolated]) <= com_bound


# The four criterion blocks of the acceptance suite and its off-centre placement.
CRITERION_BLOCKS = [((109, 112), (0.75, 0.75)), ((109, 112), (0.75, 1.0)),
                    ((109, 112), (0.75, 0.25)), ((109, 112), (0.0, 0.75)),
                    ((107, 110), (0.75, 0.75))]


@pytest.mark.parametrize("region, u", CRITERION_BLOCKS)
def test_sweep_centers_match_complex_eig_vectors(region, u):
    grid = [0.4, 1.125, 1.5]
    sweep = spectrum_sweep(flagship_config(0.25, region=region, u=u), grid)
    for g, ratio in enumerate(grid):
        h = build_hamiltonian(flagship_config(ratio, region=region, u=u))
        norm = np.linalg.norm(h, 1)
        eigenvalues, right = complex_eig(h)
        # Above 75 sites eigvals and eig may order a pair differently.
        match = _greedy_match(eigenvalues, sweep.eigenvalues[g])
        assert np.max(np.abs(sweep.eigenvalues[g] - eigenvalues[match])) <= 1e-12 * norm
        distance = np.abs(eigenvalues[:, np.newaxis] - eigenvalues)
        np.fill_diagonal(distance, np.inf)
        separation = distance.min(axis=1)[match] / norm
        error = np.abs(sweep.com[g] - center_of_mass(right)[match])
        # A center of a near-degenerate eigenvalue depends on the chosen basis.
        assert error[separation > 1e-3].max() <= 1e-8
        assert error[separation > 1e-5].max() <= 1e-6


@pytest.mark.parametrize("grid", [[0.5, 1.0, 1.5], [1.125, 1.5]])
def test_sweep_on_the_golden_grids_is_complex_eig_bit_for_bit(grid):
    """Below order 75, where LAPACK switches to multishift QR, eigenvalue-only
    zgeev returns the bits of zgeev with vectors: the 20-site goldens of
    ``spectrum`` and ``reshuffle`` keep the pair order they pin."""
    template = LatticeConfig(n_cells=10, v=0.1, region_start=9, region_end=12,
                             u_re=0.75, u_im=0.75)
    sweep = spectrum_sweep(template, grid)
    for g, ratio in enumerate(grid):
        eigenvalues, right = complex_eig(build_hamiltonian(template.with_v(ratio)))
        assert sweep.eigenvalues[g].tobytes() == eigenvalues.tobytes()
        np.testing.assert_allclose(sweep.com[g], center_of_mass(right), rtol=0, atol=1e-11)


def test_sweep_puts_the_zero_modes_on_opposite_edges():
    # Their splitting is far below rounding: each is an edge state or a mix.
    grid = [0.1, 0.3, 0.5]
    sweep = spectrum_sweep(flagship_config(0.25), grid)
    for g in range(len(grid)):
        pair = np.argsort(np.abs(sweep.eigenvalues[g]))[:2]
        assert sorted(side.value for side in sweep.side[g][pair]) == ["left", "right"]


def test_sweep_through_v_zero_cuts_the_chain_without_a_warning():
    # At v = 0 sites 1 and 220 are cut off: each holds an exact zero eigenvalue.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep = spectrum_sweep(flagship_config(0.25), [0.0, 0.1, 0.2])
    assert np.all(np.isfinite(sweep.com))
    assert sweep.com.min() >= 1.0 and sweep.com.max() <= 220.0
    pair = np.argsort(np.abs(sweep.eigenvalues[0]))[:2]
    assert sorted(sweep.com[0][pair]) == [1.0, 220.0]


def test_sweep_rejects_bad_grid():
    template = LatticeConfig(n_cells=4, v=0.5)
    with pytest.raises(ValueError):
        spectrum_sweep(template, [])
    with pytest.raises(ValueError):
        spectrum_sweep(template, [0.5, 0.5])


def test_sweep_runs_on_the_threads_nhssh_threads_names(monkeypatch):
    template = LatticeConfig(n_cells=10, v=0.25, region_start=9, region_end=12,
                             u_re=0.75, u_im=0.75)
    grid = [0.5, 0.9, 1.3, 1.7]
    calls = []
    real_thread_map = spectral.thread_map

    def recording_thread_map(fn, items, threads):
        calls.append(threads)
        return real_thread_map(fn, items, threads)

    monkeypatch.setattr(spectral, "thread_map", recording_thread_map)
    sweeps = []
    for threads in ("1", "2"):
        monkeypatch.setenv("NHSSH_THREADS", threads)
        sweeps.append(spectrum_sweep(template, grid))
    assert calls == [1, 2]
    serial, threaded = sweeps
    assert threaded.eigenvalues.tobytes() == serial.eigenvalues.tobytes()
    assert threaded.com.tobytes() == serial.com.tobytes()
    assert threaded.side.tolist() == serial.side.tolist()
    monkeypatch.setenv("NHSSH_THREADS", "0")
    with pytest.raises(ValueError, match="NHSSH_THREADS"):
        spectrum_sweep(template, grid)


def test_flagship_imaginary_trail_collapses_near_gap_closure():
    sweep = spectrum_sweep(flagship_config(0.25), [0.9, 1.2])
    max_im = dict(zip(sweep.v_over_w.tolist(),
                      np.max(np.abs(sweep.eigenvalues.imag), axis=1)))
    assert max_im[0.9] > 0.05
    assert max_im[1.2] < 0.005


def test_small_imaginary_trail_collapses_well_below_closure():
    template = flagship_config(0.25, u=(0.75, 0.25))
    grid = [0.1 + 0.05 * k for k in range(19)]
    result = ep_locate(spectrum_sweep(template, grid))
    assert result.kind is EpKind.MERGED
    assert 0.4 < result.v_star < 0.9


def test_ep_dimer_first_grid_point_after_closed_form():
    grid = [0.1 + 0.01 * k for k in range(191)]
    sweep = spectrum_sweep(dimer_config(0.5, u_re=0.0), grid)
    result = ep_locate(sweep)
    expected = min(g for g in grid if g >= 0.75)
    assert result.kind is EpKind.MERGED
    assert result.v_star == expected


def test_ep_always_real_for_hermitian_chain():
    sweep = spectrum_sweep(LatticeConfig(n_cells=5, v=0.5), [0.4, 0.8, 1.2])
    assert ep_locate(sweep).kind is EpKind.ALWAYS_REAL


def test_ep_never_merges_for_broken_placement():
    template = flagship_config(0.25, region=(107, 110))
    grid = [1.0 + 0.05 * k for k in range(21)]
    assert ep_locate(spectrum_sweep(template, grid)).kind is EpKind.NEVER_MERGES


def _sweep_of(grid, eigenvalues) -> Sweep:
    """Sweep with the given (G, n) eigenvalues and placeholder localization."""
    eigenvalues = np.array(eigenvalues, dtype=complex)
    return Sweep(v_over_w=np.array(grid), eigenvalues=eigenvalues,
                 com=np.ones(eigenvalues.shape),
                 side=np.full(eigenvalues.shape, Side.CENTER, dtype=object))


def test_match_branches_constant_spectrum():
    eigenvalues = [0.1 + 0.2j, 0.5, 0.9 - 0.1j]
    branch = match_branches(_sweep_of([0.1, 0.2, 0.3], [eigenvalues] * 3))
    for labels in branch:
        for index, label in enumerate(labels):
            assert label == index


def _sorted_pair_greedy(prev_e, cur_e, prev_branch):
    """Reference rule: take (distance, previous, current) pairs in order."""
    dim = len(prev_e)
    pairs = sorted((abs(cur_e[j] - prev_e[i]), i, j)
                   for i in range(dim) for j in range(dim))
    used_prev, used_cur, branch = set(), set(), [None] * dim
    for _, i, j in pairs:
        if i not in used_prev and j not in used_cur:
            used_prev.add(i)
            used_cur.add(j)
            branch[j] = prev_branch[i]
    return branch


def test_match_branches_equals_sorted_pair_greedy():
    # Values on a coarse lattice make many distances tie exactly.
    rng = np.random.default_rng(5)
    eigenvalues = (rng.integers(-3, 4, size=(6, 12))
                   + 1j * rng.integers(-2, 3, size=(6, 12))) / 4
    branch = match_branches(_sweep_of(np.arange(6.0), eigenvalues))
    expected = list(range(12))
    for g in range(1, 6):
        expected = _sorted_pair_greedy(eigenvalues[g - 1], eigenvalues[g], expected)
        assert branch[g].tolist() == expected


def test_match_branches_bijection_and_determinism():
    grid = [0.5 + 0.05 * k for k in range(11)]
    sweep = spectrum_sweep(dimer_config(0.5), grid)
    labeled_a = match_branches(sweep)
    labeled_b = match_branches(sweep)
    assert np.array_equal(labeled_a, labeled_b)
    for labels in labeled_a:
        assert sorted(labels.tolist()) == [0, 1]


def test_zero_mode_report_dimerized_limit():
    es = eigendecompose(build_hamiltonian(LatticeConfig(n_cells=3, v=0.0)))
    report = zero_mode_report(es.eigenvalues)
    assert report.min_abs_e < 1e-12
    np.testing.assert_allclose(report.gap_to_bulk, 1.0, atol=1e-12)


def test_zero_mode_report_flagship(flagship_initial):
    _, _, es = flagship_initial
    report = zero_mode_report(es.eigenvalues)
    assert report.min_abs_e < 1e-6
    # The block pulls one localized level into the gap at |E| ~ 0.083; the
    # chain without the block keeps the full gap to the bulk bands.
    np.testing.assert_allclose(report.gap_to_bulk, 0.08299, atol=2e-3)
    pure = eigendecompose(build_hamiltonian(LatticeConfig(n_cells=110, v=0.25)))
    assert zero_mode_report(pure.eigenvalues).gap_to_bulk > 0.1


def test_zero_mode_report_absent_beyond_transition():
    es = eigendecompose(build_hamiltonian(flagship_config(1.5)))
    assert zero_mode_report(es.eigenvalues).min_abs_e > 0.1


def test_zero_mode_report_needs_dimension_four():
    with pytest.raises(ValueError):
        zero_mode_report(eigendecompose(build_hamiltonian(dimer_config(0.5))).eigenvalues)
