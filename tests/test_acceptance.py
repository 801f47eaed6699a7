"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints the measured numbers. The 220-site
reflection-ratio sweeps are shared module-scoped fixtures.
"""

import filecmp
from types import SimpleNamespace

import numpy as np
import pytest

from nhssh.config import LatticeConfig, ScenarioConfig, apply_overrides
from nhssh.dynamics import Edge, QuenchSpec, evolve_propagator, evolve_spectral, \
    initial_edge_state, run_quench
from nhssh.lattice import build_hamiltonian, edge_correction
from nhssh.observables import Side, bipartite_norms, center_of_mass, classify_side
from nhssh.scenarios import compute_ratio_sweep, ratio_crossing, run_scenario
from nhssh.spectral import EpKind, eigendecompose, ep_locate, match_branches, \
    spectrum_sweep, zero_mode_report

from conftest import flagship_config

BROKEN_REGION = (107, 110)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS: {text}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ratio_sweeps():
    """Full reflection-ratio sweeps over v/w in [1.0, 2.0] for four blocks."""
    sweeps = {}
    for u_re, u_im in [(0.75, 0.75), (0.75, 1.0), (0.75, 0.25), (0.0, 0.75)]:
        cfg = ScenarioConfig(scenario="ratio-sweep", u_re=u_re, u_im=u_im)
        sweeps[(u_re, u_im)] = compute_ratio_sweep(cfg)
    return sweeps


@pytest.fixture(scope="module")
def broken_branch_sweep():
    """Branch-labeled sweep of the off-center placement from 1.125 to 1.5,
    one record per (grid point, eigenvalue)."""
    template = flagship_config(0.25, region=BROKEN_REGION)
    grid = [1.125 + 0.025 * k for k in range(16)]
    sweep = spectrum_sweep(template, grid)
    branch = match_branches(sweep)
    return [
        SimpleNamespace(v_over_w=v, branch=b, im_e=e.imag, side=side)
        for g, v in enumerate(sweep.v_over_w.tolist())
        for b, e, side in zip(branch[g].tolist(), sweep.eigenvalues[g].tolist(),
                              sweep.side[g])
    ]


def _ratio_at(sweep, v):
    return next(r for v_over_w, r in zip(sweep["v_over_w"], sweep["ratio"])
                if abs(v_over_w - v) < 1e-9)


def _crossing(sweep, v_min=None):
    v_over_w = sweep["v_over_w"]
    kept = np.full(v_over_w.shape, True) if v_min is None else v_over_w >= v_min - 1e-9
    return ratio_crossing(v_over_w[kept], sweep["ratio"][kept])


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_dimerized_limit_spectrum():
    h = build_hamiltonian(LatticeConfig(n_cells=3, v=0.0, w=1.0))
    eigenvalues = np.linalg.eigvals(h)
    np.testing.assert_allclose(np.sort(eigenvalues.real),
                               [-1, -1, 0, 0, 1, 1], atol=1e-12)
    np.testing.assert_allclose(eigenvalues.imag, 0, atol=1e-12)
    _report(1, "N=3, v=0 spectrum is {-1,-1,0,0,1,1} within 1e-12")


def test_criterion_02_dimer_closed_form_and_ep():
    def dimer(v):
        return LatticeConfig(n_cells=1, v=v, region_start=1, region_end=2,
                             u_re=0.75, u_im=0.75)

    for v in (0.25, 0.75, 1.5):
        es = eigendecompose(build_hamiltonian(dimer(v)))
        root = np.sqrt(complex(v * v - 0.75 * 0.75))
        expected = sorted([0.75 - root, 0.75 + root],
                          key=lambda e: (e.real, e.imag))
        np.testing.assert_allclose(es.eigenvalues, expected, atol=1e-10)

    grid = [0.1 + 0.01 * k for k in range(191)]
    result = ep_locate(spectrum_sweep(dimer(0.5), grid))
    expected_v = min(g for g in grid if g >= 0.75)
    assert result.kind is EpKind.MERGED
    assert result.v_star == expected_v
    _report(2, f"closed form holds at v in {{0.25, 0.75, 1.5}} within 1e-10; "
               f"EP at grid point {result.v_star:.6g}")


@pytest.mark.parametrize("v", [1.125, 1.5])
def test_criterion_03_biorthogonality_and_completeness(v):
    es = eigendecompose(build_hamiltonian(flagship_config(v)))
    gram_residual = float(np.max(np.abs(
        es.left_vectors.conj().T @ es.right_vectors - np.eye(es.dim))))
    assert gram_residual < 1e-8
    assert es.completeness_residual < 1e-8
    _report(3, f"v/w={v}: biorthogonality {gram_residual:.2e}, "
               f"completeness {es.completeness_residual:.2e} (both < 1e-8)")


def test_criterion_04_oracle_equivalence(flagship_initial):
    _, h_initial, _ = flagship_initial
    h_final = build_hamiltonian(flagship_config(1.5))
    es = eigendecompose(h_final)
    times = np.arange(0.0, 240.5, 0.5)
    worst = 0.0
    for side in (Edge.LEFT, Edge.RIGHT):
        psi0 = initial_edge_state(h_initial, side)
        dev = np.max(np.abs(evolve_spectral(es, psi0, times).densities
                            - evolve_propagator(h_final, psi0, times).densities))
        worst = max(worst, float(dev))
    assert worst < 1e-8
    _report(4, f"spectral vs propagator densities agree to {worst:.2e} "
               f"over t in [0, 240]")


def test_criterion_05_hermitian_norm_and_light_cone():
    pure = LatticeConfig(n_cells=110, v=0.25)
    times = np.arange(0.0, 500.5, 0.5)
    traj = run_quench(QuenchSpec(pure, pure.with_v(1.5), (Edge.LEFT,), times))[Edge.LEFT]
    norm_dev = float(np.max(np.abs(np.sum(traj.densities, axis=1) - 1.0)))
    assert norm_dev < 1e-8
    split = 110
    rho_right = np.array([bipartite_norms(s, split)[1] for s in traj.states])
    peak = int(np.argmax(rho_right))
    assert rho_right[0] < 1e-6
    assert 0 < peak < len(times) - 1
    assert rho_right[peak] > 0.5
    assert rho_right[-1] < rho_right[peak] - 0.1
    _report(5, f"norm deviation {norm_dev:.2e}; right-half weight rises to "
               f"{rho_right[peak]:.3f} at t={times[peak]:g} then falls to "
               f"{rho_right[-1]:.3f}")


def test_criterion_06_asymmetry_switch(ratio_sweeps):
    rows = ratio_sweeps[(0.75, 0.75)]
    r1125 = _ratio_at(rows, 1.125)
    r125 = _ratio_at(rows, 1.25)
    r15 = _ratio_at(rows, 1.5)
    crossing = _crossing(rows)
    assert r1125 > 1
    assert 0.8 <= r125 <= 1.25
    assert r15 < 1
    assert crossing is not None and 1.15 <= crossing <= 1.35
    _report(6, f"ratio {r1125:.3f} at 1.125, {r125:.3f} at 1.25, "
               f"{r15:.3f} at 1.5; crossing at v/w={crossing:.4f}")


def test_criterion_07_switch_point_ordering(ratio_sweeps):
    c_base = _crossing(ratio_sweeps[(0.75, 0.75)])
    c_stronger = _crossing(ratio_sweeps[(0.75, 1.0)])
    assert c_base is not None and c_stronger is not None
    assert c_stronger > c_base
    _report(7, f"switch at v/w={c_stronger:.4f} for (0.75, 1) vs "
               f"{c_base:.4f} for (0.75, 0.75)")


def test_criterion_08_no_switch_small_imaginary(ratio_sweeps):
    rows = ratio_sweeps[(0.75, 0.25)]
    # The switch for this block sits below the sweep window: above the gap
    # closure (v/w >= 1.1, past the settling zone at the grid edge) the curve
    # stays on one side of 1 throughout.
    crossing = _crossing(rows, v_min=1.1)
    assert crossing is None
    template = flagship_config(0.25, u=(0.75, 0.25))
    grid = [0.1 + 0.05 * k for k in range(19)]
    result = ep_locate(spectrum_sweep(template, grid))
    assert result.kind is EpKind.MERGED
    assert result.v_star < 0.9
    _report(8, f"no crossing of 1 above the settling zone; imaginary parts "
               f"merge at v/w={result.v_star:g} (< 0.9)")


def test_criterion_09_pure_imaginary_block(ratio_sweeps):
    rows = ratio_sweeps[(0.0, 0.75)]
    assert all(r > 1 for r in rows["ratio"])
    for v in (0.5, 1.125, 1.5):
        es = eigendecompose(build_hamiltonian(flagship_config(v, u=(0.0, 0.75))))
        for e in es.eigenvalues:
            assert np.min(np.abs(es.eigenvalues + e)) < 1e-8
    _report(9, f"ratio stays above 1 (min {min(rows['ratio']):.3f}); "
               f"spectrum closed under E -> -E within 1e-8")


def test_criterion_10_pt_vs_broken_placement(broken_branch_sweep):
    es_pt = eigendecompose(build_hamiltonian(flagship_config(1.5)))
    es_broken = eigendecompose(build_hamiltonian(
        flagship_config(1.5, region=BROKEN_REGION)))
    n_real_pt = int(np.sum(np.abs(es_pt.eigenvalues.imag) < 1e-6))
    n_real_broken = int(np.sum(np.abs(es_broken.eigenvalues.imag) < 1e-6))
    assert n_real_pt > n_real_broken
    # The branches that carried significant imaginary parts before the
    # transition never reach the real axis for the off-center placement.
    first_v = 1.125
    last_v = 1.5
    first = {r.branch: r for r in broken_branch_sweep if r.v_over_w == first_v}
    last = {r.branch: r for r in broken_branch_sweep if r.v_over_w == last_v}
    reshuffled = [b for b, r in first.items() if abs(r.im_e) > 1e-3]
    assert reshuffled
    assert all(abs(last[b].im_e) > 1e-6 for b in reshuffled)
    _report(10, f"eigenvalues with |Im E| < 1e-6 at v/w=1.5: {n_real_pt} (PT) "
                f"vs {n_real_broken} (broken); {len(reshuffled)} reshuffled "
                f"branches keep |Im E| > 1e-6")


def test_criterion_11_localization_sign_correlation():
    es = eigendecompose(build_hamiltonian(flagship_config(1.125)))
    checked = 0
    for k, e in enumerate(es.eigenvalues):
        if abs(e.imag) <= 1e-3:
            continue
        side = classify_side(center_of_mass(es.right_vectors[:, k]), 110.5, 0.5)
        assert side is (Side.RIGHT if e.imag > 0 else Side.LEFT), \
            f"Im E = {e.imag:+.4f} classified {side}"
        checked += 1
    assert checked > 0
    _report(11, f"all {checked} states with |Im E| > 1e-3 localize on the "
                f"side of their imaginary sign")


def test_criterion_12_broken_polarity_reversal(broken_branch_sweep):
    first = {r.branch: r for r in broken_branch_sweep if r.v_over_w == 1.125}
    last = {r.branch: r for r in broken_branch_sweep if r.v_over_w == 1.5}
    right_to_left = [
        b for b, r in first.items()
        if r.im_e > 1e-3 and last[b].im_e > 1e-3
        and r.side is Side.RIGHT and last[b].side is Side.LEFT
    ]
    left_to_right = [
        b for b, r in first.items()
        if r.im_e < -1e-3 and last[b].im_e < -1e-3
        and r.side is Side.LEFT and last[b].side is Side.RIGHT
    ]
    assert right_to_left
    assert left_to_right
    _report(12, f"{len(right_to_left)} branches flip Right->Left (Im > 0), "
                f"{len(left_to_right)} flip Left->Right (Im < 0)")


def test_criterion_13_edge_state_integrity(flagship_initial):
    config, h_initial, es = flagship_initial
    report = zero_mode_report(es.eigenvalues)
    assert report.min_abs_e < 1e-6
    # Bulk gap of the chain the zero modes belong to: the block itself pulls
    # one localized level into the gap (|E| ~ 0.083, pinned in module tests),
    # so the bulk separation is measured on the chain without the block.
    pure = eigendecompose(build_hamiltonian(config.without_region()))
    pure_report = zero_mode_report(pure.eigenvalues)
    assert pure_report.min_abs_e < 1e-6
    assert pure_report.gap_to_bulk > 0.1
    psi_left = initial_edge_state(h_initial, Edge.LEFT)
    com = center_of_mass(psi_left)
    assert abs(com - 1.0) < 1.0
    correction = abs(edge_correction(config, psi_left))
    assert correction < 1e-6 * config.w
    _report(13, f"min |E| = {report.min_abs_e:.2e}, bulk gap "
                f"{pure_report.gap_to_bulk:.3f}, edge c.o.m. {com:.3f}, "
                f"|<psi|H'|psi>| = {correction:.2e}")


REDUCED = {
    "spectrum": ["v_grid_start=1.0", "v_grid_stop=1.3", "v_grid_step=0.1"],
    "lightcone": ["t_max=50"],
    "bipartite": ["t_max=50"],
    "ratio-sweep": ["v_grid_start=1.1", "v_grid_stop=1.3", "v_grid_step=0.1",
                    "t_sample=50"],
    "reshuffle": [],
}


def test_criterion_14_scenario_determinism(tmp_path):
    for scenario, overrides in REDUCED.items():
        cfg = apply_overrides(ScenarioConfig(scenario=scenario), overrides)
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scenario}-{tag}"
            from dataclasses import replace

            runs.append(run_scenario(replace(cfg, output_dir=str(out))))
        assert [f.name for f in runs[0]] == [f.name for f in runs[1]]
        for fa, fb in zip(runs[0], runs[1]):
            assert filecmp.cmp(fa, fb, shallow=False), \
                f"{scenario}: {fa.name} differs between runs"
    _report(14, "two consecutive runs of every scenario are byte-identical")
