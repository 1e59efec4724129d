"""Downlink beamformers.

Channel-matched beams for the users, and two radar beams: a plain phased
beam toward the surveillance direction (PBR) and its projection onto the
orthogonal complement of the estimated user-channel subspace (ZFR).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, Direction, steering_vector

__all__ = [
    "RadarBeamKind",
    "BeamformerSet",
    "DegenerateDirectionError",
    "matched_beam",
    "pbr_beam",
    "zfr_beam",
]

RANK_TOL = 1e-10
PROJECTION_TOL = 1e-12


class RadarBeamKind(enum.Enum):
    PBR = "pbr"
    ZFR = "zfr"


class DegenerateDirectionError(ValueError):
    """The surveillance direction lies in the estimated channel span."""


@dataclass(frozen=True)
class BeamformerSet:
    """Unit-norm user beams (K, N_A) plus the radar beam."""

    user_beams: np.ndarray
    radar_beam: np.ndarray
    radar_kind: RadarBeamKind
    radar_direction: Direction

    def __post_init__(self):
        norms = np.linalg.norm(self.user_beams, axis=-1) if self.user_beams.size else np.array([])
        if norms.size and not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("user beams must be unit norm")
        if not np.isclose(np.linalg.norm(self.radar_beam), 1.0, atol=1e-12):
            raise ValueError("radar beam must be unit norm")

    @property
    def n_users(self) -> int:
        return self.user_beams.shape[0]


def matched_beam(h_hat: np.ndarray) -> np.ndarray:
    """Channel-matched beam: the estimate normalized to unit norm."""
    norm = np.linalg.norm(h_hat)
    if norm == 0:
        raise ValueError("cannot match a zero channel estimate")
    return h_hat / norm


def pbr_beam(geom: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Phased beam a(phi, theta) / sqrt(N_A)."""
    return steering_vector(geom, direction) / np.sqrt(geom.n_elements)


def zfr_beam(
    geom: ArrayGeometry,
    direction: Direction,
    estimated_channels: np.ndarray,
) -> np.ndarray:
    """Radar beam forced orthogonal to the estimated user channels.

    Takes (K, N_A) estimates or a stack (..., K, N_A), one beam per instance.
    Builds an orthonormal basis of each estimate span (rank-revealing SVD,
    singular values below RANK_TOL times the largest column norm dropped),
    projects the steering vector onto its orthogonal complement and
    renormalizes.  Requires N_A > K; raises DegenerateDirectionError when a
    projection is numerically zero.
    """
    estimates = np.asarray(estimated_channels, dtype=complex)
    if estimates.ndim < 2:
        raise ValueError("estimated_channels must be (..., K, N_A)")
    n_users, n_a = estimates.shape[-2:]
    if n_a != geom.n_elements:
        raise ValueError("estimate length does not match the array")
    if n_users == 0:
        return np.broadcast_to(pbr_beam(geom, direction), estimates.shape[:-2] + (n_a,)).copy()
    if n_a <= n_users:
        raise ValueError("zero-forcing needs more antennas than users")

    a = steering_vector(geom, direction)
    col_norms = np.linalg.norm(estimates, axis=-1)
    u, s, _ = np.linalg.svd(estimates.swapaxes(-1, -2), full_matrices=False)
    ranks = np.sum(s > RANK_TOL * col_norms.max(axis=-1, keepdims=True), axis=-1)
    projected = np.empty(estimates.shape[:-2] + (n_a,), dtype=complex)
    for rank in np.unique(ranks):
        # Singular values come sorted, so each kept basis is a leading block of
        # u.  Copied column-major per instance, a stack rounds exactly as a loop
        # of single calls.
        sel = ranks == rank
        basis = np.ascontiguousarray(u[sel][..., :rank].swapaxes(-1, -2)).swapaxes(-1, -2)
        coords = basis.conj().swapaxes(-1, -2) @ a
        projected[sel] = a - (basis @ coords[..., None])[..., 0]
    # Summed as np.linalg.norm sums one vector, which it equals bit for bit.
    re, im = projected.real[..., None, :], projected.imag[..., None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    if np.any(norm < PROJECTION_TOL * np.sqrt(geom.n_elements)):
        raise DegenerateDirectionError(
            "surveillance direction lies in the span of the estimated channels"
        )
    return projected / norm
