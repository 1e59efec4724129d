"""Turn a config into concrete geometry, user statistics and noise level,
and draw a deployment's channel estimates."""

from dataclasses import dataclass, replace
from functools import cached_property

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

@dataclass(frozen=True)
class ScenarioRealization:
    """One deployment: its users' large-scale statistics, pilots and noise level."""

    geom: ArrayGeometry
    frame: OfdmFrameConfig
    stats: tuple
    book: PilotBook
    noise_var: float  # sigma^2 per subcarrier, at the array and at the users
    estimator: Estimator

    @cached_property
    def statistics(self) -> TrainingStatistics:
        """Second-order statistics and filters of the deployment's training.

        Built on first read; a detection sweep reads it on the calling
        thread before any worker does.
        """
        return training_statistics(
            self.book, list(self.stats), self.geom, self.noise_var, self.estimator
        )


def noise_variance(bandwidth: float, noise_figure_db: float, psd_dbm_hz: float = -174.0) -> float:
    """Thermal noise power in watts over the given bandwidth."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return 10.0 ** ((psd_dbm_hz + noise_figure_db) / 10.0) * 1e-3 * bandwidth


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
    kind = ChannelModelKind(cfg.channel_model)
    pathloss = LogDistancePathLoss.los() if kind is ChannelModelKind.LOS else LogDistancePathLoss()
    if cfg.shadowing_db is not None:
        pathloss = replace(pathloss, shadowing_db=cfg.shadowing_db)

    # Elevation is the polar angle from the array's vertical axis, so ground
    # users sit below pi/2 + depression angle.
    dz = cfg.bs_height_m - cfg.user_height_m
    stats = []
    for _ in range(cfg.n_users):
        x = rng.uniform(*cfg.user_x_range_m)
        y_mag = rng.uniform(*cfg.user_y_range_m)
        y = y_mag if rng.uniform() < 0.5 else -y_mag
        d_2d = float(np.hypot(x, y))
        direction = Direction(
            azimuth=float(np.arctan2(y, x)), elevation=float(np.pi / 2.0 + np.arctan2(dz, d_2d))
        )
        beta = pathloss.sample_beta(float(np.hypot(d_2d, dz)), rng)
        k_factor = 0.0
        if kind is ChannelModelKind.RICE:
            k_factor = k_factor_from_los_probability(min(los_probability(d_2d), cfg.p_los_cap))
        stats.append(ChannelStats(beta=beta, kind=kind, angles=direction, k_factor=k_factor))

    sigma2 = noise_variance(cfg.subcarrier_spacing_hz, cfg.noise_figure_db, cfg.noise_psd_dbm_hz)
    return ScenarioRealization(
        geom=geom, frame=frame, stats=tuple(stats),
        book=PilotBook.dft(cfg.n_users, cfg.effective_tau_p, power=cfg.pilot_power_w),
        noise_var=sigma2, estimator=Estimator(cfg.estimator),
    )


def draw_estimates(real: ScenarioRealization, rng: np.random.Generator) -> np.ndarray:
    """One drawn estimate per user, (K, N_A), through the deployment's filters.

    A batch of one of :func:`jcsim.channel.draw_channels` and
    :func:`jcsim.estimation.estimate`.
    """
    filters = real.statistics.filters
    channels = draw_channels(list(real.stats), real.geom, 1, rng)
    return estimate(channels, real.book, real.noise_var, filters, rng)[:, 0]


def draw_scan_direction(cfg: ScenarioConfig, rng: np.random.Generator) -> Direction:
    """Uniform surveillance pointing inside the configured scan sector."""
    azimuth = np.deg2rad(rng.uniform(*cfg.scan_azimuth_deg))
    elevation = np.deg2rad(rng.uniform(*cfg.scan_elevation_deg))
    return Direction(azimuth=float(azimuth), elevation=float(elevation))
