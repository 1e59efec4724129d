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
the pilot power:

    mean gain   m_j   = sqrt(p_j) Re tr(A_j^H Hbar_j)
    energy      e_j   = tr C_j
    signal      g_j   = m_j^2 / e_j
    interference xi_kj = (tr(C_j Hbar_k) + p_k |phi_k^H phi_j|^2 X_kj) / e_j,
                 less g_k on the diagonal

where X_kj is the fourth-moment excess of user k's channel seen through
A_j.  The coefficients are validated elsewhere against a brute-force
Monte-Carlo estimate of the same variance decomposition (see
:mod:`jcsim.validation`).
"""

from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, steering_vector
from .channel import ChannelModelKind, ChannelStats
from .estimation import Estimator, PilotBook, correlation_matrices, linear_filters

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
    stats: ChannelStats, geom: ArrayGeometry, filters: np.ndarray
) -> np.ndarray:
    """Excess of E|h^H A^H h|^2 over tr(A^H Hbar A Hbar), per filter A.

    ``filters`` is one N x N filter or a stack of them; the result has the
    stack's shape.  This is the pilot contamination term of the
    interference coefficients.  Zero for pure LoS channels; for Rayleigh
    and Rice it reduces to squared-trace expressions of the filter.
    """
    filters = np.asarray(filters)
    if stats.kind is ChannelModelKind.LOS:
        return np.zeros(filters.shape[:-2])
    k = stats.k_factor if stats.kind is ChannelModelKind.RICE else 0.0
    c = stats.beta / (k + 1.0)
    trace = np.trace(filters, axis1=-2, axis2=-1)
    value = np.abs(trace) ** 2
    if k > 0:
        a = steering_vector(geom, stats.angles)
        quad = (filters @ a) @ a.conj()
        value = value + 2.0 * k * (quad * np.conj(trace)).real
    return c**2 * value


def mean_gain_and_energy(
    hbars: np.ndarray, filters: np.ndarray, covs: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user mean gain E[h^H h_hat] and mean energy E||h_hat||^2.

    Beams are h_hat normalized to unit average power, so the useful-signal
    coefficient is gain^2 / energy and interference terms are divided by
    the interferer's energy.  For LMMSE the two coincide (orthogonality);
    for PM the estimate carries extra contamination-plus-noise energy, so
    energy > gain.
    """
    trace_ah = np.sum(filters.conj() * hbars, axis=(-2, -1))  # tr(A^H Hbar)
    gains = np.sqrt(powers) * _real_checked(trace_ah, "tr(A^H Hbar)")
    energy = _real_checked(np.trace(covs, axis1=-2, axis2=-1), "tr(C)")
    return gains, energy


def interference_matrix(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    hbars: np.ndarray,
    filters: np.ndarray,
    covs: np.ndarray,
) -> np.ndarray:
    """K x K interference coefficients xi_kj.

    Row k, column j is the variance (per unit power) that user j's stream
    contributes to user k's effective noise; the diagonal subtracts the
    mean gain, leaving only the gain fluctuation.  Tiny negative values
    from that cancellation are clamped at zero; larger ones raise.
    """
    gains, energy = mean_gain_and_energy(hbars, filters, covs, book.powers)
    useful = gains**2 / energy
    cross = np.abs(book.gram()) ** 2
    base = _real_checked(
        np.einsum("jab,kba->kj", covs, hbars, optimize=True), "tr(C Hbar)"
    )
    excess = np.stack([fourth_moment_excess(s, geom, filters) for s in all_stats])
    xi = (base + book.powers[:, None] * cross * excess) / energy[None, :]
    xi[np.diag_indices_from(xi)] -= useful

    scale = np.abs(useful)[:, None]
    bad = xi < -DIAG_CLAMP_TOL * scale
    if np.any(bad):
        raise NumericalConsistencyError(
            f"interference coefficients negative beyond tolerance: min {xi.min():.3e}"
        )
    return np.clip(xi, 0.0, None)


def radar_leakage(hbars: np.ndarray, radar_beam: np.ndarray) -> np.ndarray:
    """Quadratic forms w_R^H Hbar_k w_R: radar power leaking onto each user.

    ``hbars`` is one correlation matrix or a stack of them.
    """
    if not np.isclose(np.linalg.norm(radar_beam), 1.0, atol=1e-6):
        raise ValueError("radar beam must be unit norm")
    # The quadratic form can be arbitrarily close to zero (nulled beam), so
    # residues are judged against the matrix scale, not the value itself.
    scale = np.trace(hbars, axis1=-2, axis2=-1).real
    value = _real_checked((hbars @ radar_beam) @ radar_beam.conj(), "radar leakage", scale)
    if np.any(value < -REAL_TOL * scale):
        raise NumericalConsistencyError(f"radar leakage negative: {np.min(value):.3e}")
    return np.maximum(value, 0.0)


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
) -> RateCoefficients:
    """Assemble every coefficient of the rate bound for one scenario.

    ``e_matrices`` are the per-user filters A_k of the estimate, as in
    ``EstimationOutput.e_matrices``; when omitted they are built for
    ``estimator`` from the statistics.
    """
    if e_matrices is None:
        filters = linear_filters(book, all_stats, geom, noise_var_ul, estimator)
    else:
        filters = np.asarray(e_matrices)
    hbars, ry = correlation_matrices(book, all_stats, geom, noise_var_ul)
    covs = np.conj(np.swapaxes(filters, -1, -2)) @ ry @ filters  # C_j = E[h_hat_j h_hat_j^H]
    gains, energy = mean_gain_and_energy(hbars, filters, covs, book.powers)
    return RateCoefficients(
        signal_gain=gains**2 / energy,
        interference=interference_matrix(all_stats, geom, book, hbars, filters, covs),
        radar_leakage=radar_leakage(hbars, radar_beam),
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
