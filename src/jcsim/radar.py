"""OFDM grid synthesis, target echoes and the delay-Doppler GLRT.

Everything lives on the N x M symbol grid: the transmitted vector per
resource element, the echo with its delay/Doppler phase ramp, and the
detector, which matches the received grid against the transmitted one,
steers the correlation over a uniform delay-Doppler grid and thresholds the
peak of the resulting energy map.
"""

from dataclasses import dataclass

import numpy as np

from .beamform import BeamformerSet
from .channel import TargetChannel
from .poweralloc import PowerAllocation

__all__ = [
    "OfdmFrameConfig",
    "DelayDopplerGrid",
    "DetectionOutcome",
    "qpsk_grid",
    "synthesize_tx_grid",
    "target_echo",
    "statistic_map_from_correlation",
    "glrt_statistic",
    "calibrate_threshold",
    "detection_probability",
]

DEFAULT_CP_FRACTION = 0.07


@dataclass(frozen=True)
class OfdmFrameConfig:
    """CP-OFDM frame: N symbols by M subcarriers.

    The cyclic prefix defaults to 7% of the core symbol duration 1/spacing.
    """

    n_symbols: int
    n_subcarriers: int
    subcarrier_spacing: float
    cp_duration: float | None = None

    def __post_init__(self):
        if self.n_symbols < 1 or self.n_subcarriers < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.subcarrier_spacing <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.cp_duration is None:
            object.__setattr__(
                self, "cp_duration", DEFAULT_CP_FRACTION / self.subcarrier_spacing
            )
        if self.cp_duration <= 0:
            raise ValueError("CP duration must be positive")

    @property
    def core_duration(self) -> float:
        """T_s = 1 / subcarrier spacing."""
        return 1.0 / self.subcarrier_spacing

    @property
    def symbol_duration(self) -> float:
        """T_0 = T_CP + T_s."""
        return self.cp_duration + self.core_duration

    @property
    def bandwidth(self) -> float:
        return self.n_subcarriers * self.subcarrier_spacing

    @property
    def frame_duration(self) -> float:
        return self.n_symbols * self.symbol_duration


@dataclass(frozen=True)
class DelayDopplerGrid:
    """Uniform search grid: delays in [0, T_CP], Dopplers in [-1/(2 T0), 1/(2 T0))."""

    delays: np.ndarray
    dopplers: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        dopplers = np.asarray(self.dopplers, dtype=float)
        if delays.size == 0 or dopplers.size == 0:
            raise ValueError("grid must be non-empty")
        for axis, name in ((delays, "delays"), (dopplers, "dopplers")):
            if axis.size > 1:
                steps = np.diff(axis)
                if not np.allclose(steps, steps[0], rtol=1e-9):
                    raise ValueError(f"{name} must be uniformly spaced")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "dopplers", dopplers)

    @classmethod
    def natural(cls, config: OfdmFrameConfig) -> "DelayDopplerGrid":
        """Resolution-cell spacing: 1/(M df) in delay, 1/(N T0) in Doppler.

        The N Doppler cells are the distinct bins of [-1/(2 T0), 1/(2 T0)).
        """
        delay_step = 1.0 / (config.n_subcarriers * config.subcarrier_spacing)
        n_delays = int(np.floor(config.cp_duration / delay_step)) + 1
        delays = delay_step * np.arange(n_delays)
        doppler_step = 1.0 / (config.n_symbols * config.symbol_duration)
        dopplers = doppler_step * np.arange(-(config.n_symbols // 2), (config.n_symbols + 1) // 2)
        return cls(delays=delays, dopplers=dopplers)


@dataclass(frozen=True)
class DetectionOutcome:
    """GLRT energy map over the search grid and its peak."""

    statistic_map: np.ndarray  # (n_delays, n_dopplers)
    delays: np.ndarray
    dopplers: np.ndarray
    peak_delay: float
    peak_doppler: float
    peak_value: float

    def exceeds(self, threshold: float) -> bool:
        """H1 decision at the given threshold."""
        return self.peak_value > threshold


def qpsk_grid(shape, rng: np.random.Generator) -> np.ndarray:
    """Unit-modulus QPSK symbols: a uniform index into the four points."""
    points = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))
    return points[rng.integers(0, 4, size=shape)]


def synthesize_tx_grid(
    beams: BeamformerSet,
    powers: PowerAllocation,
    data_grids: np.ndarray,
    radar_grid: np.ndarray,
) -> np.ndarray:
    """Transmit vector per resource element, (N_A, N, M).

    Sum of each user's scaled symbol grid through its beam plus the radar
    grid through the radar beam.
    """
    data_grids = np.asarray(data_grids, dtype=complex)
    radar_grid = np.asarray(radar_grid, dtype=complex)
    if data_grids.shape[0] != beams.n_users:
        raise ValueError("one data grid per user required")
    if data_grids.shape[0] and data_grids.shape[1:] != radar_grid.shape:
        raise ValueError("data and radar grids must share the (N, M) shape")
    u = np.einsum(
        "k,ka,knm->anm",
        np.sqrt(powers.eta_users),
        beams.user_beams,
        data_grids,
        optimize=True,
    ) if beams.n_users else 0.0
    return u + np.sqrt(powers.eta_radar) * beams.radar_beam[:, None, None] * radar_grid


def delay_doppler_ramp(
    config: OfdmFrameConfig, delay: float, doppler: float
) -> np.ndarray:
    """Phase ramp exp(j 2 pi nu n T0) exp(-j 2 pi m df tau) on the grid."""
    n = np.arange(config.n_symbols)
    m = np.arange(config.n_subcarriers)
    return np.outer(
        np.exp(2j * np.pi * doppler * n * config.symbol_duration),
        np.exp(-2j * np.pi * m * config.subcarrier_spacing * delay),
    )


def target_echo(
    u: np.ndarray,
    target: TargetChannel | None,
    config: OfdmFrameConfig,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received grid: rank-1 echo with its phase ramp, plus noise.

    ``target=None`` generates the H0 (noise only) hypothesis.  The target
    delay must stay inside the cyclic prefix, otherwise the per-subcarrier
    phase model does not hold.
    """
    n_a = u.shape[0]
    noise = np.sqrt(noise_var / 2.0) * (
        rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    )
    if target is None:
        return noise
    if target.delay > config.cp_duration:
        raise ValueError(
            f"target delay {target.delay:.3e}s exceeds the CP {config.cp_duration:.3e}s"
        )
    ramp = delay_doppler_ramp(config, target.delay, target.doppler)
    echo = np.einsum("ab,bnm->anm", target.two_way_matrix, u) * ramp[None, :, :]
    return echo + noise


def statistic_map_from_correlation(
    corr: np.ndarray, grid: DelayDopplerGrid, config: OfdmFrameConfig
) -> np.ndarray:
    """GLRT energy map from the per-element correlation u^H y.

    ``corr`` is (..., N, M); the result is (..., n_delays, n_dopplers), the
    periodogram |sum_nm exp(-j 2 pi nu n T0) corr[n, m] exp(j 2 pi m df tau)|^2
    as two chained matmuls, which serve any grid.
    """
    n = np.arange(config.n_symbols)
    m = np.arange(config.n_subcarriers)
    doppler_steer = np.exp(
        -2j * np.pi * np.outer(grid.dopplers, n) * config.symbol_duration
    )  # (n_dopplers, N)
    delay_steer = np.exp(
        2j * np.pi * np.outer(m, grid.delays) * config.subcarrier_spacing
    )  # (M, n_delays)
    amplitude = doppler_steer @ (corr @ delay_steer)  # (..., n_dopplers, n_delays)
    return (np.abs(amplitude) ** 2).swapaxes(-1, -2)


def glrt_statistic(
    u: np.ndarray,
    y: np.ndarray,
    grid: DelayDopplerGrid,
    config: OfdmFrameConfig,
) -> DetectionOutcome:
    """Evaluate the GLRT energy statistic over the grid (no threshold)."""
    if u.shape != y.shape:
        raise ValueError("transmitted and received grids must have equal shape")
    corr = np.einsum("anm,anm->nm", u.conj(), y)
    stat = statistic_map_from_correlation(corr, grid, config)
    idx = np.unravel_index(np.argmax(stat), stat.shape)
    return DetectionOutcome(
        statistic_map=stat,
        delays=grid.delays,
        dopplers=grid.dopplers,
        peak_delay=float(grid.delays[idx[0]]),
        peak_doppler=float(grid.dopplers[idx[1]]),
        peak_value=float(stat[idx]),
    )


def calibrate_threshold(
    peak_sampler,
    pfa_target: float,
    n_trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical (1 - Pfa) quantile of the H0 peak statistic.

    ``peak_sampler(n, rng)`` must return n independent H0 peak values.
    """
    if not 0 < pfa_target <= 1:
        raise ValueError("pfa_target must lie in (0, 1]")
    if pfa_target >= 1.0:
        return 0.0
    if n_trials < 100.0 / pfa_target:
        raise ValueError(
            f"{n_trials} trials cannot resolve a {pfa_target} quantile; "
            f"need at least {int(np.ceil(100.0 / pfa_target))}"
        )
    peaks = np.asarray(peak_sampler(n_trials, rng), dtype=float)
    return float(np.quantile(peaks, 1.0 - pfa_target, method="higher"))


def detection_probability(
    peak_sampler,
    threshold: float,
    n_trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of H1 trials whose peak statistic exceeds the threshold."""
    peaks = np.asarray(peak_sampler(n_trials, rng), dtype=float)
    return float(np.mean(peaks > threshold))
