"""Uplink training and channel estimation.

The base station observes a pilot matrix and projects it onto each
user's pilot sequence,

    y_{p,k} = sum_i sqrt(p_i) (phi_i^H phi_k) h_i + W phi_k,

with W the (N_A, tau_p) receiver noise.  Both estimators are linear in that
statistic, h_hat_k = A_k^H y_{p,k}: pilot-matched (PM) estimation is
A_k = I / sqrt(p_k) and LMMSE is A_k = sqrt(p_k) R_{y,k}^{-1} Hbar_k.
:func:`estimate` runs this training on a batch of channel draws
(:func:`jcsim.channel.draw_channels`); a scenario's own estimate is a batch
of one.

Every matrix of that chain is a scaled identity plus a low-rank term over
one basis, U = [a_1 ... a_K], the users' steering vectors.  They are built
once per deployment, by one :func:`jcsim.array.steering_vector` call on the
users' directions that the channel draws share:

    Hbar_k  = d_k I + e_k a_k a_k^H          (Rayleigh e = 0, LoS d = 0)
    R_{y,k} = s_k I + U D_k U^H,  s_k = sigma^2 + sum_i w_ki d_i,
                                  D_k = diag(w_ki e_i),
    w_ki    = p_i |phi_i^H phi_k|^2,

and so are A_k and the estimate covariance C_k = A_k^H R_{y,k} A_k.
:func:`training_statistics` is the one place that builds these stacks
(:class:`jcsim.lowrank.IdentityPlusLowRank`); the rate bounds and the
Monte-Carlo check take them from there.  The LMMSE filter is a Woodbury
solve with K x K algebra (Bjornson, Hoydis & Sanguinetti, *Massive MIMO
Networks*, Found. Trends Signal Process., 2017, ch. 3), and its residual
R_{y,k} A_k - sqrt(p_k) Hbar_k is checked in the same structured algebra.
The filters are applied in that form too, so no N x N matrix is formed
unless a caller asks for one (:func:`lmmse_matrices`).
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, steering_vector
from .channel import ChannelStats, hbar_weights
from .lowrank import IdentityPlusLowRank

__all__ = [
    "Estimator",
    "PilotBook",
    "TrainingStatistics",
    "EstimationError",
    "training_statistics",
    "lmmse_matrices",
    "estimate",
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
        # Unit norm within an absolute 1e-9 plus a relative 1e-5; NaN fails.
        if not (abs(np.linalg.norm(pilots, axis=0) - 1.0) <= 1e-9 + 1e-5).all():
            raise ValueError("pilot sequences must have unit norm")
        if (powers <= 0).any():
            raise ValueError("pilot powers must be positive")
        object.__setattr__(self, "pilots", pilots.astype(complex))
        object.__setattr__(self, "powers", powers)

    @classmethod
    def dft(cls, n_users: int, tau_p: int, power: float = 1.0) -> "PilotBook":
        """Unit-norm DFT pilots, reused cyclically when K > tau_p.

        Cyclic reuse deliberately creates pilot contamination.
        """
        return cls(pilots=_dft_pilots(n_users, tau_p), powers=np.full(n_users, power))

    @property
    def tau_p(self) -> int:
        return self.pilots.shape[0]

    @property
    def n_users(self) -> int:
        return self.pilots.shape[1]

    def gram(self) -> np.ndarray:
        """Matrix of pilot cross-correlations phi_i^H phi_k."""
        return self.pilots.conj().T @ self.pilots


@functools.cache
def _dft_pilots(n_users: int, tau_p: int) -> np.ndarray:
    """(tau_p, K) unit-norm DFT pilots, column k the (k mod tau_p)-th; built once, read-only."""
    dft = np.fft.fft(np.eye(tau_p)) / np.sqrt(tau_p)
    pilots = dft[:, np.arange(n_users) % tau_p]
    pilots.flags.writeable = False
    return pilots


@dataclass(frozen=True)
class TrainingStatistics:
    """Second-order statistics of one scenario's training, as stacks of K matrices.

    Every stack shares the basis U = [a_1 ... a_K].  ``diffuse`` and
    ``specular`` are the weights d_k, e_k of Hbar_k = d_k I + e_k a_k a_k^H.
    ``book`` holds the pilots and powers the statistics were built from.
    """

    book: PilotBook
    diffuse: np.ndarray  # (K,)
    specular: np.ndarray  # (K,)
    hbar: IdentityPlusLowRank  # Hbar_k = E[h_k h_k^H]
    ry: IdentityPlusLowRank  # R_{y,k} = E[y_{p,k} y_{p,k}^H]
    filters: IdentityPlusLowRank  # A_k, with h_hat_k = A_k^H y_{p,k}

    @functools.cached_property
    def covariances(self) -> IdentityPlusLowRank:
        """C_k = A_k^H R_{y,k} A_k = E[h_hat_k h_hat_k^H]."""
        return self.filters.H @ self.ry @ self.filters


def training_statistics(
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
    estimator: Estimator,
) -> TrainingStatistics:
    """Hbar_k, R_{y,k} and the filters A_k of ``estimator``, all over U.

    R_{y,k} collects every user's Hbar_i weighted by its pilot power and its
    squared pilot cross-correlation with user k, plus the noise floor.
    """
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    n_users = len(all_stats)
    users = np.arange(n_users)
    # One call for all users; C order, as the Gram matmul's bits depend on it.
    basis = np.ascontiguousarray(steering_vector(geom, [s.angles for s in all_stats]).T)
    diffuse, specular = np.array([hbar_weights(s) for s in all_stats], dtype=float).T
    hbar_core = np.zeros((n_users, n_users, n_users), dtype=complex)
    hbar_core[users, users, users] = specular
    hbar = IdentityPlusLowRank.over(basis, diffuse, hbar_core)
    weights = (book.powers[:, None] * np.abs(book.gram()) ** 2).T  # (k, i)
    ry_core = np.zeros_like(hbar_core)
    ry_core[:, users, users] = weights * specular
    ry = IdentityPlusLowRank(noise_var + weights @ diffuse, ry_core, hbar.basis, hbar.gram)
    amplitude = np.sqrt(book.powers)
    if estimator is Estimator.PM:
        zero = np.zeros_like(hbar_core)
        filters = IdentityPlusLowRank(1.0 / amplitude, zero, hbar.basis, hbar.gram)
    else:
        filters = _lmmse_filters(hbar, ry, amplitude)
    return TrainingStatistics(book, diffuse, specular, hbar, ry, filters)


def _lmmse_filters(
    hbar: IdentityPlusLowRank, ry: IdentityPlusLowRank, amplitude: np.ndarray
) -> IdentityPlusLowRank:
    """sqrt(p_k) R_{y,k}^{-1} Hbar_k by Woodbury; residuals checked to 1e-9.

    The residual ||R_{y,k} A_k - sqrt(p_k) Hbar_k||_F is evaluated in the
    structured algebra, relative to ||sqrt(p_k) Hbar_k||_F.
    """
    filters = ry.solve(hbar) * amplitude
    residual = (ry @ filters - hbar * amplitude).frobenius_norm()
    scale = hbar.frobenius_norm() * amplitude
    bad = (scale > 0) & (residual > SOLVE_RESIDUAL_TOL * np.maximum(scale, 1.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise EstimationError(f"LMMSE solve residual {residual[k]:.3e} for user {k}")
    return filters


def lmmse_matrices(
    book: PilotBook,
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    noise_var: float,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-user LMMSE filter E_k and correlation R_{y,k} of y_{p,k}, as dense lists."""
    stats = training_statistics(book, all_stats, geom, noise_var, Estimator.LMMSE)
    return list(stats.filters.dense()), list(stats.ry.dense())


def estimate(
    channels: np.ndarray,
    book: PilotBook,
    noise_var: float,
    filters: IdentityPlusLowRank,
    rng: np.random.Generator,
) -> np.ndarray:
    """Train on a (K, n, N_A) channel batch and estimate; h_hat has the same shape.

    Draws the (n, N_A, tau_p) pilot noise W, forms every y_{p,k} and applies
    the filters A_k of :class:`TrainingStatistics` as h_hat_k = A_k^H y_{p,k}.
    """
    n_users, n, n_a = channels.shape
    if n_users != book.n_users:
        raise ValueError("channel count does not match pilot book")
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal((n, n_a, book.tau_p))
        + 1j * rng.standard_normal((n, n_a, book.tau_p))
    )
    coupling = np.sqrt(book.powers)[:, None] * book.gram()  # sqrt(p_i) phi_i^H phi_k
    y = (coupling.T @ channels.reshape(n_users, n * n_a)).reshape(channels.shape)
    y += np.moveaxis(noise @ book.pilots, -1, 0)
    return filters.H.apply(y)
