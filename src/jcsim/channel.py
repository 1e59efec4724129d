"""User and target channel models.

Per-user channels come in three flavours: Rayleigh, pure line-of-sight with
a uniform random phase, and Rice (a K-factor mixture of the two).  Each
flavour has a closed-form correlation matrix used by the LMMSE estimator
and the rate bounds.  A point target enters through :func:`target_alpha`,
the magnitude and round-trip delay of its two-way reflection.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, Direction, steering_vector

__all__ = [
    "ChannelModelKind",
    "ChannelStats",
    "LogDistancePathLoss",
    "los_probability",
    "k_factor_from_los_probability",
    "hbar_weights",
    "hbar_matrix",
    "draw_channels",
    "target_alpha",
]

SPEED_OF_LIGHT = 299_792_458.0


class ChannelModelKind(enum.Enum):
    RAYLEIGH = "rayleigh"
    LOS = "los"
    RICE = "rice"


@dataclass(frozen=True)
class ChannelStats:
    """Model-level statistics of one user channel.

    ``beta`` is the linear large-scale gain (path loss plus shadowing),
    ``k_factor`` the linear Ricean factor (0 unless ``kind`` is RICE), and
    ``angles`` the user's azimuth/elevation seen from the array.
    """

    beta: float
    kind: ChannelModelKind
    angles: Direction
    k_factor: float = 0.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.k_factor < 0:
            raise ValueError("k_factor must be nonnegative")


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance large-scale model with optional log-normal shadowing.

    beta_dB = -pl0_db - 10 * exponent * log10(d / ref_distance), plus a
    zero-mean Gaussian shadowing term of ``shadowing_db`` dB std when an rng
    is supplied.
    """

    pl0_db: float = 30.0
    exponent: float = 3.5
    ref_distance: float = 1.0
    shadowing_db: float = 8.0

    @classmethod
    def los(cls) -> "LogDistancePathLoss":
        return cls(pl0_db=30.0, exponent=2.2, ref_distance=1.0, shadowing_db=4.0)

    def sample_beta(self, distance_m: float, rng: np.random.Generator | None = None) -> float:
        if distance_m <= 0:
            raise ValueError("distance must be positive")
        beta_db = -self.pl0_db - 10.0 * self.exponent * np.log10(distance_m / self.ref_distance)
        if rng is not None and self.shadowing_db > 0:
            beta_db += self.shadowing_db * rng.standard_normal()
        return float(10.0 ** (beta_db / 10.0))


def los_probability(d_2d: float, breakpoint_m: float = 18.0, decay_m: float = 63.0) -> float:
    """Urban-macro LoS probability as a function of 2-D distance."""
    if d_2d <= 0:
        raise ValueError("distance must be positive")
    return float(
        min(breakpoint_m / d_2d, 1.0) * (1.0 - np.exp(-d_2d / decay_m))
        + np.exp(-d_2d / decay_m)
    )


def k_factor_from_los_probability(p_los: float) -> float:
    """Linear Ricean K-factor p / (1 - p) from a LoS probability."""
    if not 0.0 <= p_los < 1.0:
        raise ValueError(f"p_los must lie in [0, 1), got {p_los}")
    return p_los / (1.0 - p_los)


def hbar_weights(stats: ChannelStats) -> tuple[float, float]:
    """Weights (d, e) of the correlation E[h h^H] = d I + e a a^H.

    Rayleigh: (beta, 0).  LoS: (0, beta).  Rice: beta/(K+1) times (1, K).
    """
    if stats.kind is ChannelModelKind.RAYLEIGH:
        return stats.beta, 0.0
    if stats.kind is ChannelModelKind.LOS:
        return 0.0, stats.beta
    share = stats.beta / (stats.k_factor + 1.0)
    return share, share * stats.k_factor


def hbar_matrix(stats: ChannelStats, geom: ArrayGeometry) -> np.ndarray:
    """Channel correlation matrix E[h h^H] for the given model, as a dense matrix.

    Rayleigh: beta * I.  LoS: beta * a a^H.  Rice: the K-factor mixture
    beta/(K+1) * (K a a^H + I).  Hermitian PSD with trace beta * N_A in
    every case.  The simulation chain uses the structured form of
    :func:`hbar_weights`; this dense matrix serves checks and callers
    outside the package.
    """
    n = geom.n_elements
    if stats.kind is ChannelModelKind.RAYLEIGH:
        return stats.beta * np.eye(n, dtype=complex)
    a = steering_vector(geom, stats.angles)
    rank1 = np.outer(a, a.conj())
    if stats.kind is ChannelModelKind.LOS:
        return stats.beta * rank1
    k = stats.k_factor
    return stats.beta / (k + 1.0) * (k * rank1 + np.eye(n, dtype=complex))


def draw_channels(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n channel realizations per user, shape (K, n, N_A), consistent with each ``stats``.

    Users draw in order; per user, the LoS phases psi come before the
    diffuse part g.  Then all channels form at once as sqrt(beta / (k + 1))
    (g + c e^{j psi} a), with k the Ricean factor (Rayleigh: k = 0) and
    c = sqrt(k); pure LoS has k = 0, c = 1 and g = 0.
    """
    n_users, n_a = len(all_stats), geom.n_elements
    psi = np.zeros((n_users, n, 1))
    normals = np.zeros((2, n_users, n, n_a))
    for k, stats in enumerate(all_stats):
        if stats.kind is not ChannelModelKind.RAYLEIGH:
            psi[k, :, 0] = rng.uniform(0.0, 2.0 * np.pi, size=n)
        if stats.kind is not ChannelModelKind.LOS:
            rng.standard_normal(out=normals[0, k])
            rng.standard_normal(out=normals[1, k])
    out = (normals[0] + 1j * normals[1]) / np.sqrt(2.0)
    ks = [s.k_factor if s.kind is ChannelModelKind.RICE else 0.0 for s in all_stats]
    if any(stats.kind is not ChannelModelKind.RAYLEIGH for stats in all_stats):
        vectors = steering_vector(geom, [stats.angles for stats in all_stats])
        c = np.sqrt([1.0 if s.kind is ChannelModelKind.LOS else k for s, k in zip(all_stats, ks)])
        out += c[:, None, None] * (np.exp(1j * psi) * vectors[:, None, :])
    out *= np.sqrt([s.beta / (k + 1.0) for s, k in zip(all_stats, ks)])[:, None, None]
    return out


def target_alpha(range_m: float, geom: ArrayGeometry, rcs: float) -> tuple[float, float]:
    """Reflection-plus-path-loss magnitude and round-trip delay of a target of RCS ``rcs``.

    The two-way free-space loss follows the radar range equation,
    L = (4 pi)^3 / lambda^2 * range^4, at the geometry's wavelength lambda,
    and the array contributes its linear broadside gain N_A.  The phase is
    zero; a Swerling-0 target with random phase multiplies the magnitude by
    a uniform unit phase.
    """
    if range_m <= 0:
        raise ValueError("range must be positive")
    if rcs <= 0:
        raise ValueError("rcs must be positive")
    tau = 2.0 * range_m / SPEED_OF_LIGHT
    loss = (4.0 * np.pi) ** 3 / geom.wavelength**2 * range_m**4
    return float(geom.n_elements * np.sqrt(rcs / loss)), float(tau)
