"""Quench dynamics in an SSH chain with an embedded non-Hermitian block."""

from .dynamics import (
    Edge,
    NoEdgeStateError,
    QuenchSpec,
    Trajectory,
    evolve,
    evolve_propagator,
    evolve_spectral,
    initial_edge_state,
    run_quench,
)
from .lattice import (
    LatticeConfig,
    build_hamiltonian,
    edge_correction,
    is_pt_symmetric,
    perturbation_matrix,
)
from .observables import (
    BipartiteSplit,
    Side,
    bipartite_norms,
    center_of_mass,
    classify_side,
    default_split,
    reference_center,
    site_density,
)
from .scenarios import (
    ConfigError,
    RatioRow,
    ScenarioConfig,
    compute_ratio_sweep,
    parse_config,
    ratio_crossing,
    run_scenario,
)
from .spectral import (
    Eigensystem,
    EpKind,
    EpResult,
    NearDefectiveError,
    Sweep,
    ZeroModeReport,
    eigendecompose,
    ep_locate,
    match_branches,
    spectrum_sweep,
    zero_mode_report,
)

__version__ = "0.1.0"
