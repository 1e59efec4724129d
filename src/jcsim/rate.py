"""Closed-form downlink achievable-rate lower bounds.

The bound treats the mean effective channel as the useful signal and all
fluctuation around it as noise, which makes the per-user SINR a ratio of
linear functions of the transmit powers:

    SINR_k = eta_k * g_k / (sum_j eta_j * xi_kj + eta_R * zeta_k + sigma_z^2)

with g_k the mean-gain coefficient, xi the K x K interference matrix and
zeta_k the radar-beam leakage.  All coefficients are assembled here from
the channel correlation matrices and the estimator matrices; they are
validated elsewhere against a brute-force Monte-Carlo estimate of the same
variance decomposition (see :mod:`jcsim.validation`).

The Rice fourth-moment coefficients come in two variants.  The default
(MOMENT_MATCHED) carries the exact squared-trace algebra of the quadratic
form's second moment and is the one the Monte-Carlo check confirms.  The
alternative (LINEAR_TRACE) keeps only the first power of the trace, a
reading the Monte-Carlo check rejects; it is retained behind this switch
for comparison only.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, steering_vector
from .channel import ChannelModelKind, ChannelStats, hbar_matrix
from .estimation import Estimator, PilotBook

__all__ = [
    "CoefficientVariant",
    "RateCoefficients",
    "NumericalConsistencyError",
    "fourth_moment_excess",
    "mean_gain_and_energy",
    "signal_gains",
    "interference_matrix",
    "radar_leakage",
    "build_rate_coefficients",
    "sinr",
    "rate",
]

REAL_TOL = 1e-9
DIAG_CLAMP_TOL = 1e-9


class CoefficientVariant(enum.Enum):
    MOMENT_MATCHED = "moment_matched"
    LINEAR_TRACE = "linear_trace"


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


def _real_checked(value: complex, what: str, scale: float | None = None) -> float:
    scale = max(abs(value) if scale is None else scale, 1e-300)
    if abs(value.imag) > REAL_TOL * scale:
        raise NumericalConsistencyError(
            f"{what} has relative imaginary residue {abs(value.imag) / scale:.3e}"
        )
    return float(value.real)


def fourth_moment_excess(
    stats: ChannelStats,
    geom: ArrayGeometry,
    filter_matrix: np.ndarray | None = None,
    variant: CoefficientVariant = CoefficientVariant.MOMENT_MATCHED,
) -> float:
    """Excess of E|h^H A^H h|^2 over tr(A^H Hbar A Hbar).

    ``A`` is the LMMSE filter of the interfering user, or the identity for
    pilot-matched estimation (``filter_matrix=None``).  This is the pilot
    contamination term of the interference coefficients.  Zero for pure
    LoS channels; for Rayleigh and Rice it reduces to squared-trace
    expressions of the filter.
    """
    if stats.kind is ChannelModelKind.LOS:
        return 0.0
    k = stats.k_factor if stats.kind is ChannelModelKind.RICE else 0.0
    c = stats.beta / (k + 1.0)
    n = geom.n_elements
    if filter_matrix is None:
        trace = complex(n)
        quad = complex(n)
    else:
        trace = complex(np.trace(filter_matrix))
        if k > 0:
            a = steering_vector(geom, stats.angles)
            quad = complex(a.conj() @ filter_matrix @ a)
        else:
            quad = 0.0 + 0.0j

    if variant is CoefficientVariant.MOMENT_MATCHED:
        value = abs(trace) ** 2 + 2.0 * k * (quad * np.conj(trace)).real
    else:
        if filter_matrix is None:
            value = n * (n + 2.0 * k)
        else:
            value = _real_checked(trace, "filter trace") + 2.0 * k * (quad * np.conj(trace)).real
    return float(c**2 * value)


def mean_gain_and_energy(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    estimator: Estimator,
    noise_var_ul: float,
    e_matrices: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user mean gain E[h^H h_hat] and mean energy E||h_hat||^2.

    Beams are h_hat normalized to unit average power, so the useful-signal
    coefficient is gain^2 / energy and interference terms are divided by
    the interferer's energy.  For LMMSE the two coincide (orthogonality);
    for PM the estimate carries extra contamination-plus-noise energy, so
    energy > gain.
    """
    hbars = [hbar_matrix(s, geom) for s in all_stats]
    if estimator is Estimator.PM:
        gains = np.array([_real_checked(complex(np.trace(h)), "tr(Hbar)") for h in hbars])
        ry = _assemble_ry(hbars, book, noise_var_ul)
        energy = np.array(
            [
                _real_checked(complex(np.trace(ry[k])), "tr(R_y)") / book.powers[k]
                for k in range(len(all_stats))
            ]
        )
        return gains, energy
    if e_matrices is None:
        raise ValueError("LMMSE gains need the estimation filters")
    gains = np.array(
        [
            np.sqrt(book.powers[k])
            * _real_checked(complex(np.trace(hbars[k] @ e_matrices[k])), "tr(Hbar E)")
            for k in range(len(all_stats))
        ]
    )
    return gains, gains.copy()


def signal_gains(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    estimator: Estimator,
    noise_var_ul: float,
    e_matrices: tuple | None = None,
) -> np.ndarray:
    """Useful-signal coefficient per user: (mean gain)^2 / mean energy."""
    gains, energy = mean_gain_and_energy(
        all_stats, geom, book, estimator, noise_var_ul, e_matrices
    )
    return gains**2 / energy


def _assemble_ry(hbars, book: PilotBook, noise_var: float) -> list[np.ndarray]:
    n = hbars[0].shape[0]
    cross = np.abs(book.gram()) ** 2
    out = []
    for k in range(book.n_users):
        ry = noise_var * np.eye(n, dtype=complex)
        for i in range(book.n_users):
            ry = ry + book.powers[i] * cross[i, k] * hbars[i]
        out.append(ry)
    return out


def interference_matrix(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    estimator: Estimator,
    noise_var_ul: float,
    e_matrices: tuple | None = None,
    ry_matrices: tuple | None = None,
    variant: CoefficientVariant = CoefficientVariant.MOMENT_MATCHED,
) -> np.ndarray:
    """K x K interference coefficients xi_kj.

    Row k, column j is the variance (per unit power) that user j's stream
    contributes to user k's effective noise; the diagonal subtracts the
    mean gain, leaving only the gain fluctuation.  Tiny negative values
    from that cancellation are clamped at zero; larger ones raise.
    """
    n_users = len(all_stats)
    hbars = [hbar_matrix(s, geom) for s in all_stats]
    gains, energy = mean_gain_and_energy(
        all_stats, geom, book, estimator, noise_var_ul, e_matrices
    )
    useful = gains**2 / energy
    cross = np.abs(book.gram()) ** 2

    if estimator is Estimator.PM and ry_matrices is None:
        ry_matrices = _assemble_ry(hbars, book, noise_var_ul)
    if estimator is Estimator.LMMSE and e_matrices is None:
        raise ValueError("LMMSE interference needs the estimation filters")

    xi = np.empty((n_users, n_users))
    for k in range(n_users):
        for j in range(n_users):
            if estimator is Estimator.PM:
                base = _real_checked(
                    complex(np.trace(ry_matrices[j] @ hbars[k])), "tr(R_y Hbar)"
                ) / (book.powers[j] * energy[j])
                excess = fourth_moment_excess(all_stats[k], geom, None, variant)
                value = base + book.powers[k] * excess * cross[k, j] / (
                    book.powers[j] * energy[j]
                )
            else:
                base = (
                    np.sqrt(book.powers[j])
                    * _real_checked(
                        complex(np.trace(hbars[j] @ e_matrices[j] @ hbars[k])),
                        "tr(Hbar E Hbar)",
                    )
                    / energy[j]
                )
                excess = fourth_moment_excess(all_stats[k], geom, e_matrices[j], variant)
                value = base + book.powers[k] * excess * cross[k, j] / energy[j]
            if j == k:
                value -= useful[k]
            xi[k, j] = value

    scale = np.abs(useful)[:, None]
    bad = xi < -DIAG_CLAMP_TOL * scale
    if np.any(bad):
        raise NumericalConsistencyError(
            f"interference coefficients negative beyond tolerance: min {xi.min():.3e}"
        )
    return np.clip(xi, 0.0, None)


def radar_leakage(
    stats: ChannelStats, geom: ArrayGeometry, radar_beam: np.ndarray
) -> float:
    """Quadratic form w_R^H Hbar_k w_R: radar power leaking onto user k."""
    if not np.isclose(np.linalg.norm(radar_beam), 1.0, atol=1e-6):
        raise ValueError("radar beam must be unit norm")
    hbar = hbar_matrix(stats, geom)
    # The quadratic form can be arbitrarily close to zero (nulled beam), so
    # residues are judged against the matrix scale, not the value itself.
    scale = float(np.trace(hbar).real)
    value = _real_checked(
        complex(radar_beam.conj() @ hbar @ radar_beam), "radar leakage", scale
    )
    if value < -REAL_TOL * scale:
        raise NumericalConsistencyError(f"radar leakage negative: {value:.3e}")
    return max(value, 0.0)


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
    e_matrices: tuple | None = None,
    variant: CoefficientVariant = CoefficientVariant.MOMENT_MATCHED,
) -> RateCoefficients:
    """Assemble every coefficient of the rate bound for one scenario."""
    if estimator is Estimator.LMMSE and e_matrices is None:
        from .estimation import lmmse_matrices

        e_list, _ = lmmse_matrices(book, all_stats, geom, noise_var_ul)
        e_matrices = tuple(e_list)
    return RateCoefficients(
        signal_gain=signal_gains(all_stats, geom, book, estimator, noise_var_ul, e_matrices),
        interference=interference_matrix(
            all_stats, geom, book, estimator, noise_var_ul, e_matrices, variant=variant
        ),
        radar_leakage=np.array([radar_leakage(s, geom, radar_beam) for s in all_stats]),
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
