"""Complex non-symmetric eigendecomposition with a biorthogonal left basis,
parameter-space spectrum sweeps, branch tracking, and exceptional-point location.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bands import _EPS, _band_centers
from .config import DEFAULT_SIDE_THRESHOLD, LatticeConfig
from .lattice import build_hamiltonian, hamiltonian_bands, is_pt_matrix
from .observables import classify_side, reference_center
from .parallel import openblas_functions, thread_count, thread_map

__all__ = [
    "Eigensystem",
    "eigendecompose",
    "Sweep",
    "spectrum_sweep",
    "EpKind",
    "EpResult",
    "ep_locate",
    "match_branches",
    "ZeroModeReport",
    "zero_mode_report",
    "DEFAULT_EP_TOL",
]

# At a few-hundred-site scale the post-merge imaginary parts decay smoothly
# through 1e-4..1e-6 over a wide v/w range; 1e-3 separates the collapse of the
# visible imaginary trail from those finite-size tails.
DEFAULT_EP_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class Eigensystem:
    """Right/left eigenpairs of a general complex matrix.

    Column n of ``right_vectors`` is the right eigenvector of eigenvalue
    ``eigenvalues[n]``; column n of ``left_vectors`` is the paired left
    eigenvector, built from the inverse of the right-vector matrix so that
    <phi_m|psi_n> = delta_mn and sum_n |psi_n><phi_n| = I hold by construction.
    Conditioning of that inverse is reported instead of being hidden:
    ``condition`` is the 1-norm condition number ||R||_1 ||R^-1||_1 of the
    right-vector matrix R (inf when R is exactly singular), and
    ``completeness_residual`` is the Frobenius norm of R R^-1 - I, an upper
    bound on its 2-norm (inf where its square overflows). Whether the basis
    is good enough to evolve in is ``dynamics``'s decision, not recorded here.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    completeness_residual: float
    condition: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _checked(h: np.ndarray) -> np.ndarray:
    """h as a complex array, refused unless square with finite entries."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix entries must be finite")
    return h


def _sorted_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and right eigenvectors, sorted ascending by (Re E, Im E).

    An exactly PT-symmetric h (P h* P = h, P the site flip) goes through the
    real M = U^H h U = Re h - (Im h) P, U = (I + iP)/sqrt(2), formed with no
    rounding: real eig is ~3x cheaper, its conjugate pairs are exact (-Im E
    sorts first), and h's right vectors are U r for M's unit right vectors r.
    Any other h takes complex eig.
    """
    h = _checked(h)
    if is_pt_matrix(h):
        eigenvalues, r = np.linalg.eig(h.real - h.imag[:, ::-1])
        eigenvalues = eigenvalues.astype(complex, copy=False)
        # U r = (r + i P r) / sqrt(2), in place and with r freed before the
        # sorted copy below: each extra live matrix raises a sweep's peak RSS.
        right = r[::-1] * 1j
        right += r
        right *= np.sqrt(0.5)
        del r
    else:
        eigenvalues, right = np.linalg.eig(h)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    return eigenvalues[order], right[:, order]


def eigendecompose(h: np.ndarray) -> Eigensystem:
    """Full dense eigendecomposition, sorted ascending by (Re E, Im E), with
    the conditioning of its left basis; a PT-symmetric h goes through its exact
    real form (see ``_sorted_eig``).
    """
    eigenvalues, right = _sorted_eig(h)
    try:
        inverse = np.linalg.inv(right)
        condition = float(np.linalg.norm(right, 1) * np.linalg.norm(inverse, 1))
    except np.linalg.LinAlgError:
        # Exactly singular right-vector matrix (defective to machine precision).
        inverse = np.linalg.pinv(right)
        condition = float(np.inf)
    product = right @ inverse
    product[np.diag_indices_from(product)] -= 1.0
    with np.errstate(over="ignore"):
        completeness = float(np.linalg.norm(product))
    left = np.conjugate(inverse, out=inverse).T
    return Eigensystem(
        eigenvalues=eigenvalues,
        right_vectors=right,
        left_vectors=left,
        completeness_residual=completeness,
        condition=condition,
    )


@dataclass(frozen=True, eq=False)
class Sweep:
    """Eigenvalues, centers of mass and side classes on a v/w grid.

    Row g of each (G, n) array belongs to grid point ``v_over_w[g]``; column n
    is the n-th eigenvalue in ascending (Re E, Im E) order at that point.
    ``side`` holds ``Side`` members. ``len`` counts table rows, G * n.
    """

    v_over_w: np.ndarray
    eigenvalues: np.ndarray
    com: np.ndarray
    side: np.ndarray

    def __len__(self) -> int:
        return self.eigenvalues.size


def spectrum_sweep(
    template: LatticeConfig,
    v_grid: "list[float] | np.ndarray",
    *,
    threshold: float = DEFAULT_SIDE_THRESHOLD,
) -> Sweep:
    """Eigenvalues, centers of mass and side classes across a v/w grid.

    Grid entries are ratios v/w; the template's hoppings other than v are kept.
    Each point takes its eigenvalues from one zlahqr call on the dense H
    (``_eigvals``), sorted ascending by (Re E, Im E), and its centers of mass
    from the bands of H (``_band_centers``): no eigenvector matrix is formed.
    The grid points run on NHSSH_THREADS worker threads (``thread_count``).
    """
    grid = [float(r) for r in v_grid]
    if not grid:
        raise ValueError("v_grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("v_grid must be strictly increasing")
    center = reference_center(template)

    def at(ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        config = template.with_v(ratio * template.w)
        eigenvalues = _eigvals(config)
        eigenvalues = eigenvalues[np.lexsort((eigenvalues.imag, eigenvalues.real))]
        com = _band_centers(*hamiltonian_bands(config), eigenvalues)
        return eigenvalues, com, classify_side(com, center, threshold)

    eigenvalues, com, side = zip(*thread_map(at, grid, thread_count()))
    return Sweep(
        v_over_w=np.array(grid),
        eigenvalues=np.array(eigenvalues),
        com=np.array(com),
        side=np.array(side, dtype=object),
    )


# zgeev runs zlahqr, the small-bulge QR, up to order 75 and multishift QR
# above it; on these chains zlahqr alone is the faster of the two up to about
# order 680, and this is that break-even rounded down.
_ZLAHQR_MAX_ORDER = 600
# zgeev rescales an H whose largest |h_ij| is nonzero and below this or above
# its inverse.
_UNSCALED_MIN = np.sqrt(np.finfo(float).tiny) / _EPS


def _eigvals(config: LatticeConfig) -> np.ndarray:
    """Eigenvalues of the chain's H from one zlahqr call: for v > 0
    ``np.linalg.eigvals``' bits up to order 75, and faster than it up to
    ``_ZLAHQR_MAX_ORDER``.

    zgeev balances H, reduces it to Hessenberg form, then runs zlahqr up to
    order 75 and multishift QR above it (Braman, Byers & Mathias, SIAM J.
    Matrix Anal. Appl. 23, 929 and 948 (2002)), which pays only on larger
    matrices. Its first two steps leave this H as it is: H is tridiagonal and
    equal to its transpose, with real hoppings, so balancing finds equal row
    and column norms and, for v > 0, no site to isolate. At v = 0 zlahqr
    deflates the cut ends itself. Above ``_ZLAHQR_MAX_ORDER``, without the
    LAPACK symbol, where zgeev would rescale H, or where zlahqr does not
    converge, this is ``np.linalg.eigvals(H)``.
    """
    h = _checked(build_hamiltonian(config))
    n = h.shape[0]
    largest = np.abs(h).max()
    lapack = _lapack() if n <= _ZLAHQR_MAX_ORDER else None
    if lapack is None or 0 < largest < _UNSCALED_MIN or largest > 1 / _UNSCALED_MIN:
        return np.linalg.eigvals(h)
    zlahqr, index = lapack
    # H = H^T, so the C-order copy is H in Fortran layout.
    a, eigenvalues = h.copy(), np.empty(n, dtype=complex)
    false, first, order, info = index(0), index(1), index(n), index()
    zlahqr(false, false, order, first, order, a.ctypes.data, order, eigenvalues.ctypes.data,
           first, order, None, order, info)
    return np.linalg.eigvals(h) if info.value > 0 else eigenvalues


@functools.cache
def _lapack() -> tuple | None:
    """(zlahqr, integer type) of numpy's OpenBLAS, bound on the first call, or
    None if it does not export it."""
    import ctypes

    found = openblas_functions("zlahqr_")
    if found is None:
        return None
    (zlahqr,), index = found
    ref, array = ctypes.POINTER(index), ctypes.c_void_p
    # Fortran passes every argument by reference; the two LOGICAL flags are
    # read as 0, false.
    zlahqr.argtypes = [ref, ref, ref, ref, ref, array, ref, array, ref, ref, array, ref, ref]
    zlahqr.restype = None
    return zlahqr, index


class EpKind(Enum):
    MERGED = "merged"
    ALWAYS_REAL = "always_real"
    NEVER_MERGES = "never_merges"


@dataclass(frozen=True)
class EpResult:
    """Outcome of scanning a sweep for the point where imaginary parts vanish."""

    kind: EpKind
    v_star: float | None = None


def ep_locate(sweep: Sweep, tol: float = DEFAULT_EP_TOL) -> EpResult:
    """First grid point, scanning upward in v/w, where max |Im E| drops below tol.

    Returns ALWAYS_REAL when already below tol at the first grid point, and
    NEVER_MERGES when no grid point qualifies.
    """
    below = np.flatnonzero(np.max(np.abs(sweep.eigenvalues.imag), axis=1) < tol)
    if below.size == 0:
        return EpResult(EpKind.NEVER_MERGES)
    if below[0] == 0:
        return EpResult(EpKind.ALWAYS_REAL)
    return EpResult(EpKind.MERGED, v_star=float(sweep.v_over_w[below[0]]))


def _greedy_match(prev_e: np.ndarray, cur_e: np.ndarray) -> np.ndarray:
    """Index at the previous point matched to each current index.

    The greedy rule takes the (distance, previous index, current index) pairs
    in ascending order and keeps each pair whose two ends are both free. A
    pair that is the first of its row and of its column among the free ones
    is kept by that rule, so whole rounds of such mutual nearest pairs are
    taken at once; the result is the same matching.
    """
    dist = np.abs(cur_e[np.newaxis, :] - prev_e[:, np.newaxis])
    rows = np.arange(prev_e.size)
    cols = np.arange(prev_e.size)
    matched = np.empty(prev_e.size, dtype=int)
    while rows.size:
        free = dist[np.ix_(rows, cols)]
        # argmin returns the first minimum: the smaller index wins ties.
        best_col = np.argmin(free, axis=1)
        mutual = np.argmin(free, axis=0)[best_col] == np.arange(rows.size)
        matched[cols[best_col[mutual]]] = rows[mutual]
        rows = rows[~mutual]
        cols = np.delete(cols, best_col[mutual])
    return matched


def match_branches(sweep: Sweep) -> np.ndarray:
    """Continuity branch labels, a (G, n) int array aligned with the sweep.

    Greedy nearest-neighbour matching in the complex eigenvalue plane between
    consecutive grid points; ties resolve by smallest index first, so the
    assignment is a deterministic bijection at every step. Labels at the
    first grid point are the eigenvalue indices.
    """
    eigenvalues = sweep.eigenvalues
    branch = np.empty(eigenvalues.shape, dtype=int)
    branch[0] = np.arange(eigenvalues.shape[1])
    for g in range(1, eigenvalues.shape[0]):
        branch[g] = branch[g - 1][_greedy_match(eigenvalues[g - 1], eigenvalues[g])]
    return branch


@dataclass(frozen=True)
class ZeroModeReport:
    """The two smallest-|E| eigenvalues and their separation from the bulk."""

    min_abs_e: float
    gap_to_bulk: float
    indices: tuple[int, int]


def zero_mode_report(eigenvalues: np.ndarray) -> ZeroModeReport:
    """Locate the near-zero pair: min_abs_e is the larger of the two smallest
    moduli, gap_to_bulk its distance to the third-smallest modulus."""
    moduli = np.abs(np.asarray(eigenvalues))
    if moduli.shape[0] < 4:
        raise ValueError(f"need dimension >= 4, got {moduli.shape[0]}")
    order = np.argsort(moduli, kind="stable")
    i0, i1, i2 = (int(order[k]) for k in range(3))
    return ZeroModeReport(
        min_abs_e=float(moduli[i1]),
        gap_to_bulk=float(moduli[i2] - moduli[i1]),
        indices=(i0, i1),
    )
