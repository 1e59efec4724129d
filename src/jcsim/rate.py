"""Closed-form downlink achievable-rate lower bounds.

The bound treats the mean effective channel as the useful signal and all
fluctuation around it as noise, which makes the per-user SINR a ratio of
linear functions of the transmit powers:

    SINR_k = eta_k * g_k / (sum_j eta_j * xi_kj + eta_R * zeta_k + sigma_z^2)

with g_k the mean-gain coefficient, xi the K x K interference matrix and
zeta_k the radar-beam leakage.

Every coefficient comes from one formula in the estimator's linear filter.
Both estimators give h_hat_j = A_j^H y_{p,j} (see :mod:`jcsim.estimation`),
and C_j = A_j^H R_{y,j} A_j is the covariance of that estimate.  With p_j
the pilot power and Hbar_k = d_k I + e_k a_k a_k^H:

    mean gain   m_j   = sqrt(p_j) Re tr(A_j^H Hbar_j)
    energy      e_j   = tr C_j
    signal      g_j   = m_j^2 / e_j
    interference xi_kj = (tr(C_j Hbar_k) + p_k |phi_k^H phi_j|^2 X_kj) / e_j,
                 less g_k on the diagonal
    leakage     zeta_k = w_R^H Hbar_k w_R = d_k + e_k |a_k^H w_R|^2

where X_kj is the fourth-moment excess of user k's channel seen through
A_j.  All of these come from the K x K cores of the
:class:`jcsim.lowrank.IdentityPlusLowRank` stacks that
:func:`jcsim.estimation.training_statistics` builds: traces are
N x + tr(B G), and tr(C_j Hbar_k) = d_k tr C_j + e_k a_k^H C_j a_k with the
forms a_k^H M a_k on the diagonal of U^H M U.  No N x N matrix is formed.
The imaginary-residue checks (``REAL_TOL``), the clamp of the diagonal
cancellation (``DIAG_CLAMP_TOL``) and the sign check of the leakage run on
those K x K values.  The coefficients are validated elsewhere against a
brute-force Monte-Carlo estimate of the same variance decomposition (see
:mod:`jcsim.validation`).
"""

from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry
from .channel import ChannelStats
from .estimation import Estimator, PilotBook, TrainingStatistics, training_statistics
from .lowrank import IdentityPlusLowRank

__all__ = [
    "RateCoefficients",
    "NumericalConsistencyError",
    "fourth_moment_excess",
    "mean_gain_and_energy",
    "interference_matrix",
    "radar_leakage",
    "build_rate_coefficients",
    "sinr",
    "rate",
]

REAL_TOL = 1e-9
DIAG_CLAMP_TOL = 1e-9
FILTER_RTOL = 1e-9


class NumericalConsistencyError(ArithmeticError):
    """A coefficient that must be (nonnegative) real came out otherwise."""


@dataclass(frozen=True)
class RateCoefficients:
    """Everything that makes the rate a pure function of the powers."""

    signal_gain: np.ndarray  # (K,)
    interference: np.ndarray  # (K, K)
    radar_leakage: np.ndarray  # (K,)
    noise_var: float
    bandwidth: float
    tau_c: int
    tau_p: int

    def __post_init__(self):
        if np.ndim(self.signal_gain) != 1:
            raise ValueError("signal gains must be a vector")
        n_users = len(self.signal_gain)
        if np.shape(self.interference) != (n_users, n_users):
            raise ValueError(
                f"interference must be {n_users} x {n_users}, got {np.shape(self.interference)}"
            )
        if np.shape(self.radar_leakage) != (n_users,):
            raise ValueError(
                f"radar leakage must have shape ({n_users},), got {np.shape(self.radar_leakage)}"
            )
        if np.any(np.asarray(self.signal_gain) <= 0):
            raise ValueError("signal gains must be positive")
        if np.any(np.asarray(self.radar_leakage) < 0):
            raise ValueError("radar leakage must be nonnegative")
        if not 0 < self.tau_p <= self.tau_c:
            raise ValueError("need 0 < tau_p <= tau_c")
        if self.noise_var <= 0 or self.bandwidth <= 0:
            raise ValueError("noise variance and bandwidth must be positive")

    @property
    def tau_d(self) -> int:
        return self.tau_c - self.tau_p

    @property
    def n_users(self) -> int:
        return len(self.signal_gain)


def _real_checked(value, what: str, scale=None) -> np.ndarray:
    """Real part of ``value``; raises if any imaginary residue exceeds REAL_TOL.

    Residues are relative to ``scale`` (elementwise), or to |value| itself.
    """
    value = np.asarray(value)
    scale = np.maximum(np.abs(value) if scale is None else scale, 1e-300)
    residue = np.max(np.abs(value.imag) / scale)
    if residue > REAL_TOL:
        raise NumericalConsistencyError(f"{what} has relative imaginary residue {residue:.3e}")
    return value.real


def fourth_moment_excess(
    diffuse: np.ndarray, specular: np.ndarray, filters: IdentityPlusLowRank
) -> np.ndarray:
    """Excess of E|h_k^H A_j^H h_k|^2 over tr(A_j^H Hbar_k A_j Hbar_k), as X[k, j].

    User k has Hbar_k = d_k I + e_k a_k a_k^H with a_k column k of the
    filters' basis; ``filters`` is the stack of A_j.  This is the pilot
    contamination term of the interference coefficients:

        X_kj = d_k^2 |tr A_j|^2 + 2 d_k e_k Re(a_k^H A_j a_k conj(tr A_j)),

    zero for pure LoS channels (d = 0).
    """
    trace = filters.trace()  # (j,)
    quad = np.diagonal(filters.in_basis(), axis1=-2, axis2=-1).T  # (k, j): a_k^H A_j a_k
    d, e = np.asarray(diffuse)[:, None], np.asarray(specular)[:, None]
    return d**2 * np.abs(trace) ** 2 + 2.0 * d * e * (quad * np.conj(trace)).real


def mean_gain_and_energy(
    statistics: TrainingStatistics, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user mean gain E[h^H h_hat] and mean energy E||h_hat||^2.

    Beams are h_hat normalized to unit average power, so the useful-signal
    coefficient is gain^2 / energy and interference terms are divided by
    the interferer's energy.  For LMMSE the two coincide (orthogonality);
    for PM the estimate carries extra contamination-plus-noise energy, so
    energy > gain.
    """
    trace_ah = (statistics.filters.H @ statistics.hbar).trace()  # tr(A^H Hbar)
    gains = np.sqrt(powers) * _real_checked(trace_ah, "tr(A^H Hbar)")
    energy = _real_checked(statistics.covariances.trace(), "tr(C)")
    return gains, energy


def interference_matrix(book: PilotBook, statistics: TrainingStatistics) -> np.ndarray:
    """K x K interference coefficients xi_kj.

    Row k, column j is the variance (per unit power) that user j's stream
    contributes to user k's effective noise; the diagonal subtracts the
    mean gain, leaving only the gain fluctuation.  Tiny negative values
    from that cancellation are clamped at zero; larger ones raise.
    """
    gains, energy = mean_gain_and_energy(statistics, book.powers)
    useful = gains**2 / energy
    cross = np.abs(book.gram()) ** 2
    covs = statistics.covariances
    quad = np.diagonal(covs.in_basis(), axis1=-2, axis2=-1).T  # (k, j): a_k^H C_j a_k
    d, e = statistics.diffuse[:, None], statistics.specular[:, None]
    base = _real_checked(d * covs.trace() + e * quad, "tr(C Hbar)")
    excess = fourth_moment_excess(statistics.diffuse, statistics.specular, statistics.filters)
    xi = (base + book.powers[:, None] * cross * excess) / energy[None, :]
    xi[np.diag_indices_from(xi)] -= useful

    scale = np.abs(useful)[:, None]
    bad = xi < -DIAG_CLAMP_TOL * scale
    if np.any(bad):
        raise NumericalConsistencyError(
            f"interference coefficients negative beyond tolerance: min {xi.min():.3e}"
        )
    return np.clip(xi, 0.0, None)


def radar_leakage(hbar: IdentityPlusLowRank, radar_beam: np.ndarray) -> np.ndarray:
    """Quadratic forms w_R^H Hbar_k w_R: radar power leaking onto each user."""
    if not np.isclose(np.linalg.norm(radar_beam), 1.0, atol=1e-6):
        raise ValueError("radar beam must be unit norm")
    # The quadratic form can be arbitrarily close to zero (nulled beam), so
    # residues are judged against the matrix scale, not the value itself.
    scale = hbar.trace().real
    value = _real_checked(hbar.quadratic_form(radar_beam), "radar leakage", scale)
    if np.any(value < -REAL_TOL * scale):
        raise NumericalConsistencyError(f"radar leakage negative: {np.min(value):.3e}")
    return np.maximum(value, 0.0)


def _check_filters(e_matrices, filters: IdentityPlusLowRank) -> None:
    """Raise ValueError unless dense filters match the structured ones to FILTER_RTOL."""
    given = np.asarray(e_matrices)
    expected = filters.dense()
    if given.shape != expected.shape:
        raise ValueError(f"e_matrices must have shape {expected.shape}, got {given.shape}")
    error = np.linalg.norm(given - expected, axis=(-2, -1))
    if np.any(error > FILTER_RTOL * np.linalg.norm(expected, axis=(-2, -1))):
        raise ValueError(
            "e_matrices differ from the estimator's filters for these statistics "
            f"(largest difference {error.max():.3e})"
        )


def build_rate_coefficients(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    estimator: Estimator,
    radar_beam: np.ndarray,
    noise_var_ul: float,
    noise_var_dl: float,
    bandwidth: float,
    tau_c: int,
    e_matrices: np.ndarray | tuple | None = None,
    statistics: TrainingStatistics | None = None,
) -> RateCoefficients:
    """Assemble every coefficient of the rate bound for one scenario.

    ``statistics`` are the structured correlations and filters of the
    estimate, as :func:`jcsim.harness.scenario.draw_estimates` returns them;
    when omitted they are built for ``estimator`` from the channel
    statistics.  ``e_matrices``, dense per-user filters A_k as
    :func:`jcsim.estimation.lmmse_matrices` returns them, are only checked: they must match the structured filters to a relative
    1e-9 per user, else ValueError.  The coefficients always come from
    the structured form.
    """
    if statistics is None:
        statistics = training_statistics(book, all_stats, geom, noise_var_ul, estimator)
    elif statistics.estimator is not estimator:
        raise ValueError(
            f"statistics are for {statistics.estimator.value}, not {estimator.value}"
        )
    if e_matrices is not None:
        _check_filters(e_matrices, statistics.filters)
    gains, energy = mean_gain_and_energy(statistics, book.powers)
    return RateCoefficients(
        signal_gain=gains**2 / energy,
        interference=interference_matrix(book, statistics),
        radar_leakage=radar_leakage(statistics.hbar, radar_beam),
        noise_var=noise_var_dl,
        bandwidth=bandwidth,
        tau_c=tau_c,
        tau_p=book.tau_p,
    )


def _unpack_powers(powers) -> tuple[np.ndarray, float]:
    if hasattr(powers, "eta_users"):
        return np.asarray(powers.eta_users, dtype=float), float(powers.eta_radar)
    eta_users, eta_radar = powers
    return np.asarray(eta_users, dtype=float), float(eta_radar)


def sinr(coeffs: RateCoefficients, powers) -> np.ndarray:
    """Per-user SINR of the bound at the given power allocation."""
    eta_users, eta_radar = _unpack_powers(powers)
    if np.any(eta_users < 0) or eta_radar < 0:
        raise ValueError("powers must be nonnegative")
    denom = (
        coeffs.interference @ eta_users
        + eta_radar * coeffs.radar_leakage
        + coeffs.noise_var
    )
    if np.any(denom <= 0):
        raise NumericalConsistencyError("nonpositive SINR denominator")
    return eta_users * coeffs.signal_gain / denom


def rate(coeffs: RateCoefficients, powers) -> np.ndarray:
    """Per-user achievable rate in bit/s."""
    return (
        coeffs.bandwidth
        * (coeffs.tau_d / coeffs.tau_c)
        * np.log2(1.0 + sinr(coeffs, powers))
    )
