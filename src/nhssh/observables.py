"""Derived quantities: site densities, bipartite norms, center of mass, and
localization-side classification."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import DEFAULT_SIDE_THRESHOLD, LatticeConfig

__all__ = [
    "Side",
    "BipartiteSplit",
    "site_density",
    "bipartite_norms",
    "center_of_mass",
    "classify_side",
    "default_split",
    "reference_center",
    "DEFAULT_SIDE_THRESHOLD",
]


class Side(Enum):
    """Which side of the reference center a state's weight sits on."""

    LEFT = "left"
    RIGHT = "right"
    CENTER = "center"


@dataclass(frozen=True)
class BipartiteSplit:
    """Half-chain split: left = sites 1..split_site, right = the rest."""

    split_site: int


def default_split(config: LatticeConfig) -> BipartiteSplit:
    """Split at the reference center, rounded down to a site."""
    return BipartiteSplit(int(reference_center(config)))


def reference_center(config: LatticeConfig) -> float:
    """Midpoint of the on-site block, falling back to the chain midpoint."""
    if config.has_region:
        return (config.region_start + config.region_end) / 2.0
    return (config.n_sites + 1) / 2.0


def site_density(psi: np.ndarray) -> np.ndarray:
    """Probability density |psi_s|^2 on each site."""
    return np.abs(np.asarray(psi)) ** 2


def bipartite_norms(
    psi: np.ndarray, split: BipartiteSplit
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Squared norm on each side of the split; the two add up to ||psi||^2.

    A state gives two floats; a (k, n) block of states, one per row, gives
    two arrays of k norms.
    """
    # One contiguous row per state, so each row is summed as a lone state is;
    # on a column-major block the sum would run across states instead.
    rho = np.ascontiguousarray(site_density(psi))
    if not 1 <= split.split_site < rho.shape[-1]:
        raise ValueError(
            f"split_site must lie in [1, {rho.shape[-1] - 1}], got {split.split_site}"
        )
    rho_left = rho[..., : split.split_site].sum(axis=-1)
    rho_right = rho[..., split.split_site :].sum(axis=-1)
    if rho_left.ndim == 0:
        return float(rho_left), float(rho_right)
    return rho_left, rho_right


def center_of_mass(psi: np.ndarray) -> float | np.ndarray:
    """Density-weighted mean site index (1-based), normalized by the total weight.

    A state gives a float; an (n, k) block of states, one per column, gives
    the k centers as an array.
    """
    # One contiguous row per state, summed and dotted with the sites as a lone
    # state is (a stack of (1, n) @ (n, 1) products is one dot each), so a
    # block gives exactly the per-state values.
    rho = np.ascontiguousarray(site_density(psi).T)
    total = rho.sum(axis=-1)
    if np.any(total == 0.0):
        raise ValueError("center_of_mass is undefined for a zero-norm state")
    sites = np.arange(1, rho.shape[-1] + 1)
    com = (rho[..., np.newaxis, :] @ sites[:, np.newaxis])[..., 0, 0] / total
    return float(com) if com.ndim == 0 else com


def classify_side(
    com: float | np.ndarray,
    reference_center: float,
    threshold: float = DEFAULT_SIDE_THRESHOLD,
) -> Side | np.ndarray:
    """Classify a center of mass relative to a reference point.

    Center wins within the threshold window, otherwise left/right by sign.
    A float gives a ``Side``; an array of centers gives an object array of them.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    com = np.asarray(com, dtype=float)
    side = np.where(
        np.abs(com - reference_center) < threshold,
        Side.CENTER,
        np.where(com < reference_center, Side.LEFT, Side.RIGHT),
    )
    return side[()] if side.ndim == 0 else side
