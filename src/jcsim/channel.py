"""User and target channel models.

Per-user channels come in three flavours: Rayleigh, pure line-of-sight with
a uniform random phase, and Rice (a K-factor mixture of the two).  Each
flavour has a closed-form correlation matrix used by the LMMSE estimator
and the rate bounds.  The target channel is a rank-1 two-way reflection
with a delay/Doppler signature.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .array import ArrayGeometry, Direction, steering_vector

__all__ = [
    "ChannelModelKind",
    "ChannelStats",
    "TargetChannel",
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
class TargetChannel:
    """Two-way BS -> target -> BS channel.

    ``two_way_matrix`` is the rank-1 matrix ``alpha * a a^H`` with ``a`` the
    steering vector toward the target.
    """

    alpha: complex
    direction: Direction
    delay: float
    doppler: float
    two_way_matrix: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_geometry(
        cls,
        geom: ArrayGeometry,
        alpha: complex,
        direction: Direction,
        delay: float,
        doppler: float,
    ) -> "TargetChannel":
        a = steering_vector(geom, direction)
        return cls(
            alpha=alpha,
            direction=direction,
            delay=delay,
            doppler=doppler,
            two_way_matrix=alpha * np.outer(a, a.conj()),
        )


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
    def nlos(cls) -> "LogDistancePathLoss":
        return cls(pl0_db=30.0, exponent=3.5, ref_distance=1.0, shadowing_db=8.0)

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


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def draw_channels(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n channel realizations per user, shape (K, n, N_A), consistent with each ``stats``.

    Users draw in order; per user, the LoS phases come before the diffuse part.
    """
    n_a = geom.n_elements
    out = np.empty((len(all_stats), n, n_a), dtype=complex)
    for k, stats in enumerate(all_stats):
        if stats.kind is ChannelModelKind.RAYLEIGH:
            out[k] = np.sqrt(stats.beta) * _complex_normal(rng, (n, n_a))
            continue
        psi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        los = np.exp(1j * psi)[:, None] * steering_vector(geom, stats.angles)
        if stats.kind is ChannelModelKind.LOS:
            out[k] = np.sqrt(stats.beta) * los
            continue
        kf = stats.k_factor
        g = _complex_normal(rng, (n, n_a))
        out[k] = np.sqrt(stats.beta / (kf + 1.0)) * (np.sqrt(kf) * los + g)
    return out


def target_alpha(
    range_m: float,
    geom: ArrayGeometry,
    rcs: float = 0.1253,
    carrier: float = 3e9,
    rng: np.random.Generator | None = None,
) -> tuple[complex, float]:
    """Reflection-plus-path-loss coefficient and round-trip delay.

    The two-way free-space loss follows the radar range equation,
    L = (4 pi)^3 / lambda^2 * range^4, and the array contributes its linear
    broadside gain N_A.  The phase is uniform when an rng is supplied
    (Swerling-0 with random phase), otherwise zero.  The default RCS is
    that of a small UAV.
    """
    if range_m <= 0:
        raise ValueError("range must be positive")
    if rcs <= 0:
        raise ValueError("rcs must be positive")
    wavelength = SPEED_OF_LIGHT / carrier
    tau = 2.0 * range_m / SPEED_OF_LIGHT
    loss = (4.0 * np.pi) ** 3 / wavelength**2 * range_m**4
    magnitude = geom.n_elements * np.sqrt(rcs / loss)
    phase = float(rng.uniform(0.0, 2.0 * np.pi)) if rng is not None else 0.0
    return complex(magnitude * np.exp(1j * phase)), float(tau)
