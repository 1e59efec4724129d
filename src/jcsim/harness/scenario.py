"""Turn a config into concrete geometry, user statistics and noise levels,
and draw a deployment's channel estimates."""

from dataclasses import dataclass

import numpy as np

from ..array import ArrayGeometry, Direction
from ..channel import (
    SPEED_OF_LIGHT,
    ChannelModelKind,
    ChannelStats,
    LogDistancePathLoss,
    draw_channels,
    k_factor_from_los_probability,
    los_probability,
)
from ..estimation import Estimator, PilotBook, TrainingStatistics, estimate, training_statistics
from ..radar import OfdmFrameConfig
from .config import ScenarioConfig

__all__ = [
    "ScenarioRealization",
    "noise_variance",
    "realize_scenario",
    "draw_estimates",
    "draw_scan_direction",
]

KIND_MAP = {
    "rayleigh": ChannelModelKind.RAYLEIGH,
    "los": ChannelModelKind.LOS,
    "rice": ChannelModelKind.RICE,
}
ESTIMATOR_MAP = {"pm": Estimator.PM, "lmmse": Estimator.LMMSE}


@dataclass(frozen=True)
class ScenarioRealization:
    """One deployment: fixed user positions and large-scale statistics."""

    geom: ArrayGeometry
    frame: OfdmFrameConfig
    stats: tuple
    book: PilotBook
    noise_var_ul: float
    noise_var_dl: float
    positions: np.ndarray  # (K, 2) ground-plane coordinates
    estimator: Estimator


def noise_variance(bandwidth: float, noise_figure_db: float, psd_dbm_hz: float = -174.0) -> float:
    """Thermal noise power in watts over the given bandwidth."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return 10.0 ** ((psd_dbm_hz + noise_figure_db) / 10.0) * 1e-3 * bandwidth


def _user_direction(cfg: ScenarioConfig, x: float, y: float) -> tuple[Direction, float, float]:
    """Direction plus 2-D / 3-D distances of a ground user seen from the BS.

    Elevation is the polar angle from the array's vertical axis, so ground
    users sit below pi/2 + depression angle.
    """
    d_2d = float(np.hypot(x, y))
    dz = cfg.bs_height_m - cfg.user_height_m
    d_3d = float(np.hypot(d_2d, dz))
    azimuth = float(np.arctan2(y, x))
    elevation = float(np.pi / 2.0 + np.arctan2(dz, d_2d))
    return Direction(azimuth=azimuth, elevation=elevation), d_2d, d_3d


def realize_scenario(cfg: ScenarioConfig, rng: np.random.Generator) -> ScenarioRealization:
    """Place users and draw their large-scale coefficients."""
    wavelength = SPEED_OF_LIGHT / cfg.carrier_hz
    geom = ArrayGeometry.half_wavelength(cfg.n_y, cfg.n_z, wavelength)
    frame = OfdmFrameConfig(
        n_symbols=cfg.n_symbols,
        n_subcarriers=cfg.n_subcarriers,
        subcarrier_spacing=cfg.subcarrier_spacing_hz,
        cp_duration=cfg.cp_fraction / cfg.subcarrier_spacing_hz,
    )
    kind = KIND_MAP[cfg.channel_model]
    pathloss = LogDistancePathLoss.los() if kind is ChannelModelKind.LOS else LogDistancePathLoss.nlos()
    if cfg.shadowing_db is not None:
        pathloss = LogDistancePathLoss(
            pl0_db=pathloss.pl0_db,
            exponent=pathloss.exponent,
            ref_distance=pathloss.ref_distance,
            shadowing_db=cfg.shadowing_db,
        )

    positions = np.empty((cfg.n_users, 2))
    stats = []
    for k in range(cfg.n_users):
        x = rng.uniform(*cfg.user_x_range_m)
        y_mag = rng.uniform(*cfg.user_y_range_m)
        y = y_mag if rng.uniform() < 0.5 else -y_mag
        positions[k] = (x, y)
        direction, d_2d, d_3d = _user_direction(cfg, x, y)
        beta = pathloss.sample_beta(d_3d, rng)
        k_factor = 0.0
        if kind is ChannelModelKind.RICE:
            p_los = min(los_probability(d_2d), cfg.p_los_cap)
            k_factor = k_factor_from_los_probability(p_los)
        stats.append(ChannelStats(beta=beta, kind=kind, angles=direction, k_factor=k_factor))

    sigma2 = noise_variance(
        cfg.subcarrier_spacing_hz, cfg.noise_figure_db, cfg.noise_psd_dbm_hz
    )
    book = PilotBook.dft(cfg.n_users, cfg.effective_tau_p, power=cfg.pilot_power_w)
    return ScenarioRealization(
        geom=geom,
        frame=frame,
        stats=tuple(stats),
        book=book,
        noise_var_ul=sigma2,
        noise_var_dl=sigma2,
        positions=positions,
        estimator=ESTIMATOR_MAP[cfg.estimator],
    )


def draw_estimates(
    real: ScenarioRealization, rng: np.random.Generator
) -> tuple[TrainingStatistics, np.ndarray]:
    """Training statistics of the deployment and one drawn estimate per user, (K, N_A).

    A batch of one of :func:`jcsim.channel.draw_channels` and
    :func:`jcsim.estimation.estimate`.
    """
    stats = list(real.stats)
    statistics = training_statistics(
        real.book, stats, real.geom, real.noise_var_ul, real.estimator
    )
    channels = draw_channels(stats, real.geom, 1, rng)
    estimates = estimate(channels, real.book, real.noise_var_ul, statistics.filters, rng)
    return statistics, estimates[:, 0]


def draw_scan_direction(cfg: ScenarioConfig, rng: np.random.Generator) -> Direction:
    """Uniform surveillance pointing inside the configured scan sector."""
    azimuth = np.deg2rad(rng.uniform(*cfg.scan_azimuth_deg))
    elevation = np.deg2rad(rng.uniform(*cfg.scan_elevation_deg))
    return Direction(azimuth=float(azimuth), elevation=float(elevation))
