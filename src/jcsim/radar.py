"""OFDM frame, delay-Doppler search grid and the GLRT detector.

The detector works on the N x M symbol grid: it correlates the received
grid with the transmitted one per resource element (u^H y), steers that
correlation over a uniform delay-Doppler grid and thresholds the peak of
the resulting energy map.  The QPSK symbol indices and their pair-product
table feed the scalar simulator of :mod:`jcsim.harness.experiments`.  The
module needs numpy alone; the antenna-domain chain that synthesizes the
transmit grid and its target echo is a test oracle (``tests/oracles.py``).
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "OfdmFrameConfig",
    "DelayDopplerGrid",
    "DetectionOutcome",
    "QPSK_POINTS",
    "qpsk_indices",
    "statistic_map_from_correlation",
    "glrt_statistic",
    "calibrate_threshold",
]

DEFAULT_CP_FRACTION = 0.07

# The four unit-modulus QPSK points exp(j (pi/4 + i pi/2)), i = 0..3.
QPSK_POINTS = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * np.arange(4)))
# Row b holds the four 2-bit fields of the byte value b, low bits first.
_BYTE_FIELDS = ((np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 3).astype(np.int8)


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


def qpsk_indices(shape, rng: np.random.Generator, out=None) -> np.ndarray:
    """Uniform QPSK symbol indices into :data:`QPSK_POINTS`, int8, two raw bits each.

    Index j of the flat draw is ``(w[j // 32] >> 2 * (j % 32)) & 3`` for the words
    ``w = rng.bit_generator.random_raw(ceil(size / 32))``, a stream numpy keeps stable
    across releases (NEP 19).  The little-endian bytes of each 1,024 words, which follow
    the word values on any platform, index the table of their 2-bit fields straight into
    ``out``, a C-contiguous int8 array of ``shape``, through a 64 KiB intp temporary.
    """
    out = np.empty(shape, np.int8) if out is None else out
    if out.dtype != np.int8 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous int8 array")
    flat = out.reshape(-1)
    for lo in range(0, flat.size, 32 * 1024):  # 32 indices a word, 1,024 words a slice
        part = flat[lo : lo + 32 * 1024]
        words = rng.bit_generator.random_raw(-(-part.size // 32))
        fields = words.astype("<u8", copy=False).view(np.uint8)
        n = part.size // 4  # the bytes whose four fields all land in part
        # mode="wrap" never wraps a byte; the default "raise" would buffer out.
        np.take(_BYTE_FIELDS, fields[:n], axis=0, out=part[: 4 * n].reshape(n, 4), mode="wrap")
        part[4 * n :] = _BYTE_FIELDS[fields[n : n + 1]].reshape(-1)[: part.size % 4]
    return out


@cache
def _symbol_pairs(n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices p and q of the pairs p < q of n symbols, ``np.triu_indices`` order, read-only."""
    pairs = np.triu_indices(n_symbols, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _qpsk_pair_table(indices: np.ndarray) -> np.ndarray:
    """Pair products of QPSK symbols as the real table [Re z; Im z], int8.

    ``indices`` (..., P, L) index :data:`QPSK_POINTS`.  For each of the
    P(P-1)/2 pairs p < q (``np.triu_indices`` order), z_pq = conj(x_p) x_q
    = j^((i_q - i_p) mod 4) is one of 1, j, -1, -j.  Returns (..., P(P-1), L):
    the real parts of all pairs, then their imaginary parts.  The entries are
    built in bytes, far cheaper than in floats; the caller casts them once.
    """
    p, q = _symbol_pairs(indices.shape[-2])
    d = (indices[..., q, :] - indices[..., p, :]) & 3
    odd = d & 1
    table = np.empty(d.shape[:-2] + (2 * p.size, d.shape[-1]), dtype=np.int8)
    # Re z = (1 - d)(1 - odd) and Im z = (2 - d) odd for d in 0..3.
    np.multiply(1 - d, 1 - odd, out=table[..., : p.size, :])
    np.multiply(2 - d, odd, out=table[..., p.size :, :])
    return table


def _pair_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form x^H M x of unit-modulus x over the pair table.

    For Hermitian M (..., P, P), x^H M x = tr M + 2 sum_{p<q} Re(M_pq z_pq)
    = tr M + rows @ table with rows = [2 Re M_pq, -2 Im M_pq] matching
    :func:`_qpsk_pair_table`.  Returns rows (..., P(P-1)) and tr M (...).
    """
    p, q = _symbol_pairs(m.shape[-1])
    upper = m[..., p, q]
    rows = np.concatenate([2.0 * upper.real, -2.0 * upper.imag], axis=-1)
    return rows, np.trace(m, axis1=-2, axis2=-1).real


def _phase_axes(config: OfdmFrameConfig, delays, dopplers) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis phases of a delay-Doppler shift on the grid.

    exp(j 2 pi nu n T0) as (n_dopplers, N) and exp(-j 2 pi m df tau) as
    (M, n_delays); their outer product is the ramp of one (tau, nu).
    """
    n = np.arange(config.n_symbols)
    m = np.arange(config.n_subcarriers)
    doppler_phase = np.exp(2j * np.pi * np.outer(dopplers, n) * config.symbol_duration)
    delay_phase = np.exp(-2j * np.pi * np.outer(m, delays) * config.subcarrier_spacing)
    return doppler_phase, delay_phase


def _matched_phases(
    config: OfdmFrameConfig, grid: DelayDopplerGrid
) -> tuple[np.ndarray, np.ndarray]:
    """The matched filter undoes each candidate shift: the conjugate phase pair."""
    doppler_phase, delay_phase = _phase_axes(config, grid.delays, grid.dopplers)
    return doppler_phase.conj(), delay_phase.conj()


def _map_amplitude(corr: np.ndarray, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Matched-filter amplitude of ``corr`` (..., N, M) as (..., n_dopplers, n_delays)."""
    doppler_conj, delay_conj = phases
    # One matmul over every row of the stack, then one per grid.
    by_delay = (corr.reshape(-1, corr.shape[-1]) @ delay_conj).reshape(*corr.shape[:-1], -1)
    return doppler_conj @ by_delay


def statistic_map_from_correlation(
    corr: np.ndarray, grid: DelayDopplerGrid, config: OfdmFrameConfig
) -> np.ndarray:
    """GLRT energy map from the per-element correlation u^H y.

    ``corr`` is (..., N, M); the result is (..., n_delays, n_dopplers), the
    periodogram |sum_nm exp(-j 2 pi nu n T0) corr[n, m] exp(j 2 pi m df tau)|^2
    as two chained matmuls, which serve any grid.
    """
    amplitude = _map_amplitude(corr, _matched_phases(config, grid))
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


def calibrate_threshold(peaks: np.ndarray, pfa_target: float) -> float:
    """Empirical (1 - Pfa) quantile of ``peaks``, at least 100 / Pfa independent H0 peaks."""
    if not 0 < pfa_target <= 1:
        raise ValueError("pfa_target must lie in (0, 1]")
    if pfa_target >= 1.0:
        return 0.0
    peaks = np.asarray(peaks, dtype=float)
    if len(peaks) < 100.0 / pfa_target:
        raise ValueError(
            f"{len(peaks)} trials cannot resolve a {pfa_target} quantile; "
            f"need at least {int(np.ceil(100.0 / pfa_target))}"
        )
    return float(np.quantile(peaks, 1.0 - pfa_target, method="higher"))
