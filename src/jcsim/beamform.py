"""Downlink beamformers.

Channel-matched beams for the users, and two radar beams: a plain phased
beam toward the surveillance direction (PBR) and its projection onto the
orthogonal complement of the estimated user-channel subspace (ZFR).
:func:`beam_set` builds a deployment's whole set from its estimates.  The
radar beams take ``a``, the (N_A,) steering vector of the surveillance
direction, which the caller builds once per deployment.
"""

import enum

import numpy as np

__all__ = [
    "RadarBeamKind",
    "DegenerateDirectionError",
    "beam_set",
    "pbr_beam",
    "zfr_beam",
    "radar_beam",
]

RANK_TOL = 1e-10
PROJECTION_TOL = 1e-12


class RadarBeamKind(enum.Enum):
    PBR = "pbr"
    ZFR = "zfr"


class DegenerateDirectionError(ValueError):
    """The surveillance direction lies in the estimated channel span."""


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, kept as an axis of length one.

    Summed as np.linalg.norm sums one vector, which it equals bit for bit.
    """
    re, im = vectors.real[..., None, :], vectors.imag[..., None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]


def pbr_beam(a: np.ndarray) -> np.ndarray:
    """Phased beam a(phi, theta) / sqrt(N_A)."""
    return a / np.sqrt(a.size)


def zfr_beam(a: np.ndarray, estimated_channels: np.ndarray) -> np.ndarray:
    """Radar beam forced orthogonal to the estimated user channels.

    Takes (K, N_A) estimates or a stack (..., K, N_A), one beam per instance.
    Builds an orthonormal basis of each estimate span (rank-revealing SVD,
    singular values below RANK_TOL times the largest column norm dropped),
    projects ``a`` onto its orthogonal complement and
    renormalizes.  Requires N_A > K; raises DegenerateDirectionError when a
    projection is numerically zero.
    """
    estimates = np.asarray(estimated_channels, dtype=complex)
    if estimates.ndim < 2:
        raise ValueError("estimated_channels must be (..., K, N_A)")
    n_users, n_a = estimates.shape[-2:]
    if n_a != a.size:
        raise ValueError("estimate length does not match the steering vector")
    if n_users == 0:
        return np.broadcast_to(pbr_beam(a), estimates.shape[:-2] + (n_a,)).copy()
    if n_a <= n_users:
        raise ValueError("zero-forcing needs more antennas than users")

    col_norms = np.linalg.norm(estimates, axis=-1)
    u, s, _ = np.linalg.svd(estimates.swapaxes(-1, -2), full_matrices=False)
    ranks = np.sum(s > RANK_TOL * col_norms.max(axis=-1, keepdims=True), axis=-1)
    projected = np.empty(estimates.shape[:-2] + (n_a,), dtype=complex)
    for rank in set(ranks.flat):
        # Singular values come sorted, so each kept basis is a leading block of
        # u.  Copied column-major per instance, a stack rounds exactly as a loop
        # of single calls.
        sel = ranks == rank
        basis = np.ascontiguousarray(u[sel][..., :rank].swapaxes(-1, -2)).swapaxes(-1, -2)
        coords = basis.conj().swapaxes(-1, -2) @ a
        projected[sel] = a - (basis @ coords[..., None])[..., 0]
    norm = _norms(projected)
    if (norm < PROJECTION_TOL * np.sqrt(n_a)).any():
        raise DegenerateDirectionError(
            "surveillance direction lies in the span of the estimated channels"
        )
    return projected / norm


def radar_beam(
    kind: RadarBeamKind, a: np.ndarray, estimated_channels: np.ndarray | None
) -> np.ndarray:
    """The radar beam of ``kind``: PBR ignores the estimates, ZFR nulls them.

    ``estimated_channels`` is what :func:`zfr_beam` takes; with a stack of
    estimates the PBR beam is the single shared beam.
    """
    if kind is RadarBeamKind.PBR:
        return pbr_beam(a)
    return zfr_beam(a, estimated_channels)


def beam_set(kind: RadarBeamKind, a: np.ndarray, estimates: np.ndarray) -> np.ndarray:
    """Every beam of a deployment, (..., K+1, N_A): the users', then the radar beam.

    User k's beam is its estimate scaled to unit norm (channel matching);
    the radar beam is the ``kind`` beam of steering vector ``a``.  Takes (K, N_A)
    estimates or a stack (..., K, N_A), one set per instance.  Raises
    ValueError on a zero estimate.
    """
    estimates = np.asarray(estimates, dtype=complex)
    norms = _norms(estimates)
    if (norms == 0).any():
        raise ValueError("cannot match a zero channel estimate")
    *stack, n_users, n_a = estimates.shape
    beams = np.empty((*stack, n_users + 1, n_a), dtype=complex)
    np.divide(estimates, norms, out=beams[..., :-1, :])
    beams[..., -1, :] = radar_beam(kind, a, estimates)
    return beams
