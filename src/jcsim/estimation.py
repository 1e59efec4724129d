"""Uplink training and channel estimation.

The base station observes a pilot matrix and correlates it against each
user's pilot sequence.  Both estimators are linear in that statistic,
h_hat_k = A_k^H y_{p,k}: pilot-matched (PM) estimation is A_k = I / sqrt(p_k)
and LMMSE is A_k = sqrt(p_k) R_{y,k}^{-1} Hbar_k.  This module is the one
place that builds the correlation matrices Hbar_k and R_{y,k} and the
filters A_k; the rate bounds and the Monte-Carlo check apply the same
filters.
"""

import enum
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .array import ArrayGeometry
from .channel import ChannelStats, UserChannel, hbar_matrix

__all__ = [
    "Estimator",
    "PilotBook",
    "EstimationOutput",
    "training_observation",
    "correlate",
    "pm_estimate",
    "correlation_matrices",
    "linear_filters",
    "lmmse_matrices",
    "estimate_all",
]

SOLVE_RESIDUAL_TOL = 1e-9


class Estimator(enum.Enum):
    PM = "pm"
    LMMSE = "lmmse"


class EstimationError(RuntimeError):
    """LMMSE linear solve failed the residual check."""


@dataclass(frozen=True)
class PilotBook:
    """Unit-norm pilot sequences and per-user pilot powers.

    ``pilots`` has shape (tau_p, K); column k is user k's sequence.
    """

    pilots: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        pilots = np.asarray(self.pilots)
        powers = np.asarray(self.powers, dtype=float)
        if pilots.ndim != 2:
            raise ValueError("pilots must be a (tau_p, K) matrix")
        if powers.shape != (pilots.shape[1],):
            raise ValueError("one pilot power per user required")
        norms = np.linalg.norm(pilots, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("pilot sequences must have unit norm")
        if np.any(powers <= 0):
            raise ValueError("pilot powers must be positive")
        object.__setattr__(self, "pilots", pilots.astype(complex))
        object.__setattr__(self, "powers", powers)

    @classmethod
    def dft(cls, n_users: int, tau_p: int, power: float = 1.0) -> "PilotBook":
        """Unit-norm DFT pilots, reused cyclically when K > tau_p.

        Cyclic reuse deliberately creates pilot contamination.
        """
        dft = np.fft.fft(np.eye(tau_p)) / np.sqrt(tau_p)
        cols = [dft[:, k % tau_p] for k in range(n_users)]
        return cls(pilots=np.stack(cols, axis=1), powers=np.full(n_users, power))

    @property
    def tau_p(self) -> int:
        return self.pilots.shape[0]

    @property
    def n_users(self) -> int:
        return self.pilots.shape[1]

    def gram(self) -> np.ndarray:
        """Matrix of pilot cross-correlations phi_i^H phi_k."""
        return self.pilots.conj().T @ self.pilots


@dataclass(frozen=True)
class EstimationOutput:
    """Per-user channel estimates plus the linear filters that made them."""

    estimates: np.ndarray  # (K, N_A)
    estimator: Estimator
    e_matrices: np.ndarray  # (K, N_A, N_A), filter A_k with h_hat_k = A_k^H y_{p,k}


def training_observation(
    channels: list[UserChannel] | np.ndarray,
    book: PilotBook,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received uplink pilot matrix, (N_A, tau_p).

    Sum over users of sqrt(power_k) h_k phi_k^H plus i.i.d. complex
    Gaussian noise of variance ``noise_var`` per entry.
    """
    h = np.stack([c.h if isinstance(c, UserChannel) else np.asarray(c) for c in channels])
    if h.shape[0] != book.n_users:
        raise ValueError("channel count does not match pilot book")
    n_a = h.shape[1]
    signal = (np.sqrt(book.powers)[:, None] * h).T @ book.pilots.conj().T
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal((n_a, book.tau_p)) + 1j * rng.standard_normal((n_a, book.tau_p))
    )
    return signal + noise


def correlate(y_pilot: np.ndarray, book: PilotBook, k: int) -> np.ndarray:
    """Pilot-correlated statistic y_{p,k} = Y_p phi_k."""
    if not 0 <= k < book.n_users:
        raise ValueError("user index out of range")
    return y_pilot @ book.pilots[:, k]


def pm_estimate(y_pk: np.ndarray, pilot_power: float) -> np.ndarray:
    """Pilot-matched estimate: correlation rescaled by the pilot amplitude."""
    if pilot_power <= 0:
        raise ValueError("pilot power must be positive")
    return y_pk / np.sqrt(pilot_power)


def correlation_matrices(
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel correlations Hbar_k and pilot-statistic correlations R_{y,k}.

    Both are stacks of shape (K, N_A, N_A).  R_{y,k} collects every user's
    Hbar_i weighted by its pilot power and its squared pilot
    cross-correlation with user k, plus the noise floor.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    hbars = np.stack([hbar_matrix(s, geom) for s in all_stats])
    weights = (book.powers[:, None] * np.abs(book.gram()) ** 2).T  # (k, i)
    ry = np.tensordot(weights, hbars, axes=1)
    ry += noise_var * np.eye(geom.n_elements)
    return hbars, ry


def linear_filters(
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
    estimator: Estimator,
) -> np.ndarray:
    """Per-user filters A_k, shape (K, N_A, N_A), with h_hat_k = A_k^H y_{p,k}.

    PM is I / sqrt(p_k); LMMSE is sqrt(p_k) R_{y,k}^{-1} Hbar_k.
    """
    amplitude = np.sqrt(book.powers)
    if estimator is Estimator.PM:
        return np.eye(geom.n_elements, dtype=complex) / amplitude[:, None, None]
    return _lmmse_filters(*correlation_matrices(book, all_stats, geom, noise_var), amplitude)


def _lmmse_filters(hbars: np.ndarray, ry: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    """Hermitian solves, never an explicit inverse; residuals checked to 1e-9."""
    filters = np.empty_like(hbars)
    for k in range(len(hbars)):
        filters[k] = amplitude[k] * scipy.linalg.solve(ry[k], hbars[k], assume_a="pos")
        residual = np.linalg.norm(ry[k] @ filters[k] - amplitude[k] * hbars[k])
        scale = np.linalg.norm(hbars[k]) * amplitude[k]
        if scale > 0 and residual > SOLVE_RESIDUAL_TOL * max(scale, 1.0):
            raise EstimationError(f"LMMSE solve residual {residual:.3e} for user {k}")
    return filters


def lmmse_matrices(
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-user LMMSE filter E_k and correlation R_{y,k} of y_{p,k}, as lists."""
    hbars, ry = correlation_matrices(book, all_stats, geom, noise_var)
    return list(_lmmse_filters(hbars, ry, np.sqrt(book.powers))), list(ry)


def estimate_all(
    y_pilot: np.ndarray,
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
    estimator: Estimator,
) -> EstimationOutput:
    """Estimate every user's channel from one training observation."""
    filters = linear_filters(book, all_stats, geom, noise_var, estimator)
    y = (y_pilot @ book.pilots).T  # row k is y_{p,k}
    estimates = (y[:, None, :] @ filters.conj())[:, 0, :]
    return EstimationOutput(estimates=estimates, estimator=estimator, e_matrices=filters)
