"""Monte-Carlo experiment drivers: rate CDFs and detection probability.

The rate driver replays the full per-scenario chain (placement, training,
estimation, beamforming, coefficient assembly, power allocation) and
collects per-user rates under uniform and max-min allocation.  The
detection driver simulates the GLRT at scale; it works on the scalar
sufficient statistic u^H y per resource element, which has exactly the
same distribution as the full antenna-domain simulation but is two orders
of magnitude cheaper, so tens of thousands of trials per cell run in
seconds.  A sweep makes one simulation pass per hypothesis over all its
(RCR, beam, allocator) cells: each batch of trials is drawn once, from
streams keyed by (seed, stream, batch index), and every cell runs on those
same draws through its own beam and powers, so compared cells are paired
through common random numbers.
"""

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..array import steering_vector
from ..beamform import BeamformerSet, RadarBeamKind, matched_beam, radar_beam
from ..channel import SPEED_OF_LIGHT, draw_channels, target_alpha
from ..estimation import estimate, training_statistics
from ..lowrank import IdentityPlusLowRank
from ..poweralloc import (
    AllocationInfeasibleError,
    PowerAllocation,
    RadarSirCoefficients,
    max_min_allocate,
    uniform_allocate,
)
from ..radar import (
    DelayDopplerGrid,
    calibrate_threshold,
    delay_doppler_ramp,
    qpsk_grid,
    statistic_map_from_correlation,
)
from ..rate import build_rate_coefficients, rate
from .config import ConfigError, ScenarioConfig
from .scenario import ScenarioRealization, draw_estimates, draw_scan_direction, realize_scenario

__all__ = [
    "ExperimentResult",
    "run_rate_experiment",
    "run_detection_experiment",
    "empirical_cdf",
    "binomial_ci",
]

RATE_FIELDS = ["trial", "user", "allocator", "estimator", "channel_model", "rate_bps", "seed"]
PD_FIELDS = [
    "range_m", "beam", "allocator", "rcr_db", "pd", "ci_low", "ci_high",
    "n_trials", "threshold", "seed",
]


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sorted samples with empirical probabilities i/n."""
    values = np.sort(np.asarray(samples, dtype=float))
    if values.size == 0:
        raise ValueError("cannot build a CDF from no samples")
    probs = np.arange(1, values.size + 1) / values.size
    return values, probs


def binomial_ci(p_hat: float, n: int, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation confidence interval for a proportion."""
    half = z * np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


@dataclass
class ExperimentResult:
    """Rows of one experiment plus everything needed to reproduce them."""

    kind: str
    rows: list
    fields: list
    config: dict
    seed: int
    config_hash: str
    failures: list = field(default_factory=list)

    def __post_init__(self):
        for row in self.rows:
            for key, value in row.items():
                if isinstance(value, float) and not np.isfinite(value):
                    raise ArithmeticError(f"non-finite value in result row: {key}={value}")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.fields)
            writer.writeheader()
            writer.writerows(self.rows)

    def write_manifest(self, path) -> None:
        manifest = {
            "kind": self.kind,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "config": self.config,
            "n_rows": len(self.rows),
            "failures": self.failures,
            "versions": {"numpy": np.__version__},
        }
        Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    def column(self, name: str, **filters) -> np.ndarray:
        """Values of one column over rows matching the given equality filters."""
        out = [
            row[name]
            for row in self.rows
            if all(row[key] == val for key, val in filters.items())
        ]
        return np.asarray(out)


def run_rate_experiment(
    cfg: ScenarioConfig, n_scenarios: int | None = None
) -> ExperimentResult:
    """Per-user downlink rates over random deployments, Uni vs max-min."""
    n_scenarios = cfg.n_scenarios if n_scenarios is None else n_scenarios
    beam_kind = RadarBeamKind(cfg.radar_beam)
    rows, failures = [], []
    for trial in range(n_scenarios):
        rng = np.random.default_rng([cfg.seed, trial])
        real = realize_scenario(cfg, rng)
        statistics, estimates = draw_estimates(real, rng)
        radar_dir = draw_scan_direction(cfg, rng)
        user_beams = np.stack([matched_beam(h) for h in estimates])
        w_radar = radar_beam(beam_kind, real.geom, radar_dir, estimates)
        beams = BeamformerSet(
            user_beams=user_beams,
            radar_beam=w_radar,
            radar_kind=beam_kind,
            radar_direction=radar_dir,
        )
        coeffs = build_rate_coefficients(
            list(real.stats),
            real.geom,
            real.book,
            real.estimator,
            w_radar,
            real.noise_var_ul,
            real.noise_var_dl,
            bandwidth=real.frame.bandwidth,
            tau_c=cfg.tau_c,
            statistics=statistics,
        )
        sir = RadarSirCoefficients.from_beams(real.geom, radar_dir, beams)
        uni = uniform_allocate(cfg.p_dl_w, cfg.rcr_linear, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols)
        allocations = {"uniform": uni}
        try:
            allocations["maxmin"] = max_min_allocate(
                coeffs, sir, uni.budget, cfg.effective_rho_star
            )
        except AllocationInfeasibleError as exc:
            failures.append({"trial": trial, "error": str(exc)})
        for allocator, powers in allocations.items():
            user_rates = rate(coeffs, powers)
            for k, value in enumerate(user_rates):
                rows.append(
                    {
                        "trial": trial,
                        "user": k,
                        "allocator": allocator,
                        "estimator": cfg.estimator,
                        "channel_model": cfg.channel_model,
                        "rate_bps": float(value),
                        "seed": f"{cfg.seed}:{trial}",
                    }
                )
    return ExperimentResult(
        kind="rates",
        rows=rows,
        fields=RATE_FIELDS,
        config=cfg.to_dict(),
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        failures=failures,
    )


@dataclass(frozen=True)
class _TargetParams:
    alpha_mag: float
    delay: float
    doppler: float


def simulate_sweep_peaks(
    real: ScenarioRealization,
    cfg: ScenarioConfig,
    grid: DelayDopplerGrid,
    target_direction,
    cells,
    targets: list,
    n_trials: int,
    stream_key: int,
    batch: int = 256,
    filters: IdentityPlusLowRank | None = None,
) -> np.ndarray:
    """Peak GLRT statistics of every cell, shape (len(cells), len(targets), n_trials).

    ``cells`` is a sequence of (RadarBeamKind, PowerAllocation) pairs and
    entries of ``targets`` are _TargetParams or None (H0).  ``filters`` are
    the per-user estimation filters A_k in their structured form
    (``TrainingStatistics.filters``), built from the scenario statistics
    when omitted.  Works on the scalar correlation u^H y: the echo
    contributes alpha |a^H u|^2 times the delay/Doppler ramp and the noise
    contributes a complex Gaussian of variance sigma^2 ||u||^2 per resource
    element, which together are distributed exactly as in the antenna-domain
    model.

    Every cell runs on the same draws, so the sweep pairs its cells through
    common random numbers.  Each batch of trials works on three levels:

    - once per batch, in stream order: channels and estimates
      (:func:`jcsim.channel.draw_channels`, :func:`jcsim.estimation.estimate`),
      the unscaled QPSK symbols x_p, the complex noise normals and the
      target phases;
    - once per distinct beam kind: the radar beam (the ZFR beam by
      :func:`jcsim.beamform.zfr_beam` on the stack of estimates), a^H w_p
      and the (K+1) x (K+1) beam Gram matrix G = [w_p^H w_q];
    - per cell: sqrt(eta) folded into a^H w_p and into diag(sqrt(eta)) G
      diag(sqrt(eta)), so the shared symbols are never scaled or copied,
      then a^H u, ||u||^2, the noise scale, the echo and the maps, written
      into buffers allocated once per batch.

    The N_A-antenna grid is never formed.
    """
    geom, frame, book = real.geom, real.frame, real.book
    a = steering_vector(geom, target_direction)
    if filters is None:
        filters = training_statistics(
            book, list(real.stats), geom, real.noise_var_ul, real.estimator
        ).filters
    kinds = list(dict.fromkeys(kind for kind, _ in cells))
    ramps = [
        None if t is None else t.alpha_mag * delay_doppler_ramp(frame, t.delay, t.doppler)
        for t in targets
    ]
    with_echo = any(r is not None for r in ramps)
    grid_shape = (frame.n_symbols, frame.n_subcarriers)
    n_grid = grid_shape[0] * grid_shape[1]

    peaks = np.empty((len(cells), len(targets), n_trials))
    for batch_idx, start in enumerate(range(0, n_trials, batch)):
        nb = min(batch, n_trials - start)
        rng = np.random.default_rng([cfg.seed, stream_key, batch_idx])
        h = draw_channels(list(real.stats), geom, nb, rng)
        h_hat = estimate(h, book, real.noise_var_ul, filters, rng).swapaxes(0, 1)
        xs = qpsk_grid((nb, book.n_users + 1, n_grid), rng)  # x_p, radar last
        normals = np.empty((nb, *grid_shape), dtype=complex)
        normals.real = rng.standard_normal(normals.shape)
        normals.imag = rng.standard_normal(normals.shape)
        alpha_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=nb))[:, None, None]

        users = h_hat / np.linalg.norm(h_hat, axis=-1, keepdims=True)
        beam_terms = {}
        for kind in kinds:
            radar = np.broadcast_to(
                radar_beam(kind, geom, target_direction, h_hat), (nb, geom.n_elements)
            )
            beams = np.concatenate([users, radar[:, None, :]], axis=1)  # unit-norm w_p
            beam_terms[kind] = (beams @ a.conj(), beams.conj() @ beams.swapaxes(-1, -2))

        gx = np.empty_like(xs)
        products = np.empty((nb, 2 * n_grid))  # Re and Im products, interleaved
        energy = np.empty((nb, n_grid))
        noise = np.empty_like(normals)
        if with_echo:
            v = np.empty((nb, 1, n_grid), dtype=complex)
            echo = np.empty_like(normals)
            corr = np.empty_like(normals)
        for ci, (kind, powers) in enumerate(cells):
            beam_toward, gram = beam_terms[kind]
            amp = np.sqrt(np.concatenate([powers.eta_users, [powers.eta_radar]]))
            # ||u||^2 = ||sum_p sqrt(eta_p) w_p x_p||^2 = Re sum_p conj(x_p) (G_eta x)_p
            np.matmul(amp[:, None] * gram * amp, xs, out=gx)
            np.einsum("bpl,bpl->bl", xs.view(float), gx.view(float), out=products)
            np.add(products[:, 0::2], products[:, 1::2], out=energy)
            # In place: ||u||^2 becomes the noise scale sqrt(sigma^2 ||u||^2 / 2).
            np.clip(energy, 0.0, None, out=energy)
            energy *= real.noise_var_dl / 2.0
            np.sqrt(energy, out=energy)
            np.multiply(normals, energy.reshape(nb, *grid_shape), out=noise)
            if with_echo:
                np.matmul((beam_toward * amp)[:, None, :], xs, out=v)  # a^H u
                # alpha / |alpha| times |a^H u|^2
                np.multiply(alpha_phase, np.abs(v.reshape(nb, *grid_shape)) ** 2, out=echo)
            for ti, ramp in enumerate(ramps):
                if ramp is None:
                    received = noise
                else:
                    received = np.multiply(echo, ramp, out=corr)
                    received += noise
                stat = statistic_map_from_correlation(received, grid, frame)
                peaks[ci, ti, start : start + nb] = stat.max(axis=(-2, -1))
    return peaks


def simulate_peak_statistics(
    real: ScenarioRealization,
    cfg: ScenarioConfig,
    grid: DelayDopplerGrid,
    target_direction,
    beam_kind: RadarBeamKind,
    powers: PowerAllocation,
    targets: list,
    n_trials: int,
    stream_key: int,
    batch: int = 256,
    filters: IdentityPlusLowRank | None = None,
) -> np.ndarray:
    """Peak GLRT statistics of one cell, shape (len(targets), n_trials).

    A one-cell :func:`simulate_sweep_peaks` pass: the cell draws exactly
    what it draws inside any sweep on the same ``stream_key``.
    """
    return simulate_sweep_peaks(
        real, cfg, grid, target_direction, [(beam_kind, powers)], targets, n_trials,
        stream_key, batch=batch, filters=filters,
    )[0]


def _snap(value: float, axis: np.ndarray) -> float:
    return float(axis[np.argmin(np.abs(axis - value))])


def _detection_cells(cfg, real, direction, statistics, estimates):
    """Every (RCR, beam, allocator) cell of a sweep, allocated on one realization.

    Returns the cell labels (rcr_db, beam name, allocator), the matching
    (RadarBeamKind, PowerAllocation) pairs in row order, and one failure
    record per infeasible max-min cell, which gets no entry.
    """
    labels, cells, failures = [], [], []
    for rcr_db in cfg.detection_rcr_db:
        rcr = 10.0 ** (rcr_db / 10.0)
        for beam_kind in (RadarBeamKind.PBR, RadarBeamKind.ZFR):
            w_radar = radar_beam(beam_kind, real.geom, direction, estimates)
            beams = BeamformerSet(
                user_beams=np.stack([matched_beam(h) for h in estimates]),
                radar_beam=w_radar,
                radar_kind=beam_kind,
                radar_direction=direction,
            )
            coeffs = build_rate_coefficients(
                list(real.stats),
                real.geom,
                real.book,
                real.estimator,
                w_radar,
                real.noise_var_ul,
                real.noise_var_dl,
                bandwidth=real.frame.bandwidth,
                tau_c=cfg.tau_c,
                statistics=statistics,
            )
            sir = RadarSirCoefficients.from_beams(real.geom, direction, beams)
            uni = uniform_allocate(
                cfg.p_dl_w, rcr, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols
            )
            cell_allocs = {"uniform": uni}
            try:
                cell_allocs["maxmin"] = max_min_allocate(coeffs, sir, uni.budget, rcr)
            except AllocationInfeasibleError as exc:
                failures.append({"rcr_db": rcr_db, "beam": beam_kind.value, "error": str(exc)})
            for allocator, powers in cell_allocs.items():
                labels.append((rcr_db, beam_kind.value, allocator))
                cells.append((beam_kind, powers))
    return labels, cells, failures


def run_detection_experiment(
    cfg: ScenarioConfig,
    ranges_m=None,
    n_trials: int | None = None,
) -> ExperimentResult:
    """Detection probability vs range per (RCR, beam, allocator) cell.

    Every cell's power allocation is computed first on one reference
    realization; an infeasible max-min cell goes into ``failures``.  Two
    :func:`simulate_sweep_peaks` passes then serve all cells on the same
    draws: the H0 pass on stream 0xCA1 and the H1 pass on stream 0x9D,
    both keyed [seed, stream, batch] as a one-cell run would be.  Each
    cell's threshold is calibrated at the configured false-alarm
    probability on the shared H0 draws through its own beam and powers; its
    Pd trials are the fresh H1 draws.
    """
    ranges_m = tuple(cfg.detection_ranges_m if ranges_m is None else ranges_m)
    n_trials = cfg.n_detection_trials if n_trials is None else n_trials
    if n_trials < 1:
        raise ConfigError(f"detection needs at least one trial per cell, got {n_trials}")
    if not ranges_m:
        raise ConfigError("detection needs at least one target range")
    rng0 = np.random.default_rng([cfg.seed, 0xD0])
    real = realize_scenario(cfg, rng0)
    grid = DelayDopplerGrid.natural(real.frame)
    target_dir = draw_scan_direction(cfg, rng0)
    wavelength = SPEED_OF_LIGHT / cfg.carrier_hz

    targets = []
    for r in ranges_m:
        alpha, delay = target_alpha(r, real.geom, cfg.target_rcs_m2, cfg.carrier_hz)
        if delay > real.frame.cp_duration:
            raise ConfigError(
                f"target range {r} m puts the echo delay beyond the cyclic prefix"
            )
        doppler = 2.0 * cfg.target_speed_mps / wavelength
        if cfg.target_on_grid:
            delay = _snap(delay, grid.delays)
            doppler = _snap(doppler, grid.dopplers)
        targets.append(_TargetParams(alpha_mag=abs(alpha), delay=delay, doppler=doppler))

    # Reference realization for the per-cell power allocation.
    statistics, estimates = draw_estimates(real, rng0)

    labels, cells, failures = _detection_cells(cfg, real, target_dir, statistics, estimates)
    n_calibration = max(n_trials, int(np.ceil(100.0 / cfg.pfa_target)))
    h0_peaks = simulate_sweep_peaks(
        real, cfg, grid, target_dir, cells, [None], n_calibration,
        stream_key=0xCA1, filters=statistics.filters,
    )[:, 0]
    h1_peaks = simulate_sweep_peaks(
        real, cfg, grid, target_dir, cells, targets, n_trials,
        stream_key=0x9D, filters=statistics.filters,
    )
    rows = []
    for (rcr_db, beam, allocator), h0_row, peaks in zip(labels, h0_peaks, h1_peaks):
        threshold = calibrate_threshold(
            lambda _n, _rng: h0_row, cfg.pfa_target, n_calibration, rng0
        )
        for r, peak_row in zip(ranges_m, peaks):
            pd = float(np.mean(peak_row > threshold))
            ci_low, ci_high = binomial_ci(pd, n_trials)
            rows.append(
                {
                    "range_m": r,
                    "beam": beam,
                    "allocator": allocator,
                    "rcr_db": rcr_db,
                    "pd": pd,
                    "ci_low": ci_low,
                    "ci_high": ci_high,
                    "n_trials": n_trials,
                    "threshold": threshold,
                    "seed": f"{cfg.seed}",
                }
            )
    return ExperimentResult(
        kind="detect",
        rows=rows,
        fields=PD_FIELDS,
        config=cfg.to_dict(),
        seed=cfg.seed,
        config_hash=cfg.config_hash(),
        failures=failures,
    )
