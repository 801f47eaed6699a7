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
from nhssh.observables import Side

from conftest import flagship_config


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
    eigenvalues, _ = _sorted_eig(build_hamiltonian(flagship_config(v)), pt_real=True)
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
        eigenvalues, right = _sorted_eig(h, pt_real=True)
        reference_eigenvalues, reference_right = _sorted_eig(h, pt_real=False)
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
    eigenvalues, _ = _sorted_eig(build_hamiltonian(flagship_config(1.125)), pt_real=False)
    assert np.array_equal(sweep.eigenvalues[0], eigenvalues)


def test_sweep_rejects_bad_grid():
    template = LatticeConfig(n_cells=4, v=0.5)
    with pytest.raises(ValueError):
        spectrum_sweep(template, [])
    with pytest.raises(ValueError):
        spectrum_sweep(template, [0.5, 0.5])


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
