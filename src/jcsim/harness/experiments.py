"""Monte-Carlo experiment drivers: rate CDFs and detection probability.

The rate driver replays the full per-scenario chain (placement, training,
estimation, beamforming, coefficient assembly, power allocation) and
collects per-user rates under uniform and max-min allocation.  The
detection driver simulates the GLRT at scale; it works on the scalar
sufficient statistic u^H y per resource element, which has exactly the
same distribution as the full antenna-domain simulation but is two orders
of magnitude cheaper, so tens of thousands of trials per cell run in
seconds.  Trials are paired across compared cells through common random
number streams keyed by (seed, batch index).
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
    """Peak GLRT statistics, shape (len(targets), n_trials).

    Entries of ``targets`` are _TargetParams or None (H0).  ``filters`` are
    the per-user estimation filters A_k in their structured form
    (``TrainingStatistics.filters``), built from the scenario statistics
    when omitted.  Works on the scalar correlation u^H y: the echo
    contributes alpha |a^H u|^2 times the delay/Doppler ramp and the noise
    contributes a complex Gaussian of variance sigma^2 ||u||^2 per resource
    element, which together are distributed exactly as in the antenna-domain
    model.  Each batch of trials draws channels and estimates with
    :func:`jcsim.channel.draw_channels` and :func:`jcsim.estimation.estimate`
    (the chain a scenario's own estimate runs as a batch of one), builds the
    beams (the ZFR beam by :func:`jcsim.beamform.zfr_beam` on the stack of
    estimates), draws QPSK symbols, and gets a^H u and ||u||^2 from batched
    matmuls with the (K+1) x (K+1) beam Gram matrix, never forming the
    N_A-antenna grid.  All randomness is drawn before the per-target loop
    so streams pair across cells.
    """
    geom, frame, book = real.geom, real.frame, real.book
    a = steering_vector(geom, target_direction)
    if filters is None:
        filters = training_statistics(
            book, list(real.stats), geom, real.noise_var_ul, real.estimator
        ).filters
    eta_all = np.concatenate([powers.eta_users, [powers.eta_radar]])
    ramps = [
        None if t is None else t.alpha_mag * delay_doppler_ramp(frame, t.delay, t.doppler)
        for t in targets
    ]
    grid_shape = (frame.n_symbols, frame.n_subcarriers)

    peaks = np.empty((len(targets), n_trials))
    done = 0
    batch_idx = 0
    while done < n_trials:
        nb = min(batch, n_trials - done)
        rng = np.random.default_rng([cfg.seed, stream_key, batch_idx])
        h = draw_channels(list(real.stats), geom, nb, rng)
        h_hat = estimate(h, book, real.noise_var_ul, filters, rng).swapaxes(0, 1)
        radar = np.broadcast_to(
            radar_beam(beam_kind, geom, target_direction, h_hat), (nb, geom.n_elements)
        )
        beams = np.concatenate(
            [h_hat / np.linalg.norm(h_hat, axis=-1, keepdims=True), radar[:, None, :]], axis=1
        )  # (nb, K+1, N_A): unit-norm w_p, the radar beam last
        beam_toward = beams @ a.conj()  # a^H w_p
        gram = beams.conj() @ beams.swapaxes(-1, -2)  # w_p^H w_q
        # sqrt(eta_p) x_p over the flattened grid, scaled in place: one such array per batch.
        xs = qpsk_grid((nb, book.n_users + 1, grid_shape[0] * grid_shape[1]), rng)
        xs *= np.sqrt(eta_all)[:, None]
        v = (beam_toward[:, None, :] @ xs).reshape(nb, *grid_shape)  # a^H u
        # ||u||^2 = ||sum_p w_p x_p||^2 = Re sum_p conj(x_p) (gram x)_p
        gx = gram @ xs
        energy = np.einsum("bpl,bpl->bl", xs.real, gx.real) + np.einsum(
            "bpl,bpl->bl", xs.imag, gx.imag
        )
        noise = np.empty(v.shape, dtype=complex)
        noise.real = rng.standard_normal(v.shape)
        noise.imag = rng.standard_normal(v.shape)
        noise *= np.sqrt(real.noise_var_dl / 2.0 * np.clip(energy, 0.0, None)).reshape(v.shape)
        alpha_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=nb))
        echo = alpha_phase[:, None, None] * np.abs(v) ** 2  # alpha / |alpha| times |a^H u|^2
        for ti, t in enumerate(targets):
            if t is None:
                corr = noise
            else:
                corr = echo * ramps[ti]
                corr += noise
            stat = statistic_map_from_correlation(corr, grid, frame)
            peaks[ti, done : done + nb] = stat.max(axis=(-2, -1))
        done += nb
        batch_idx += 1
    return peaks


def _snap(value: float, axis: np.ndarray) -> float:
    return float(axis[np.argmin(np.abs(axis - value))])


def run_detection_experiment(
    cfg: ScenarioConfig,
    ranges_m=None,
    n_trials: int | None = None,
) -> ExperimentResult:
    """Detection probability vs range per (beam, allocator, RCR) cell.

    The threshold of each cell is calibrated on its own H0 trials at the
    configured false-alarm probability; the Pd trials are fresh.
    """
    ranges_m = tuple(cfg.detection_ranges_m if ranges_m is None else ranges_m)
    n_trials = cfg.n_detection_trials if n_trials is None else n_trials
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

    rows, failures = [], []
    for rcr_db in cfg.detection_rcr_db:
        rcr = 10.0 ** (rcr_db / 10.0)
        for beam_kind in (RadarBeamKind.PBR, RadarBeamKind.ZFR):
            w_radar = radar_beam(beam_kind, real.geom, target_dir, estimates)
            beams = BeamformerSet(
                user_beams=np.stack([matched_beam(h) for h in estimates]),
                radar_beam=w_radar,
                radar_kind=beam_kind,
                radar_direction=target_dir,
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
            sir = RadarSirCoefficients.from_beams(real.geom, target_dir, beams)
            uni = uniform_allocate(
                cfg.p_dl_w, rcr, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols
            )
            cell_allocs = {"uniform": uni}
            try:
                cell_allocs["maxmin"] = max_min_allocate(coeffs, sir, uni.budget, rcr)
            except AllocationInfeasibleError as exc:
                failures.append({"rcr_db": rcr_db, "beam": beam_kind.value, "error": str(exc)})
            n_calibration = max(n_trials, int(np.ceil(100.0 / cfg.pfa_target)))
            for allocator, powers in cell_allocs.items():
                threshold = calibrate_threshold(
                    lambda n, _rng: simulate_peak_statistics(
                        real, cfg, grid, target_dir, beam_kind, powers,
                        [None], n, stream_key=0xCA1, filters=statistics.filters,
                    )[0],
                    cfg.pfa_target,
                    n_calibration,
                    rng0,
                )
                peaks = simulate_peak_statistics(
                    real, cfg, grid, target_dir, beam_kind, powers,
                    targets, n_trials, stream_key=0x9D, filters=statistics.filters,
                )
                for r, peak_row in zip(ranges_m, peaks):
                    pd = float(np.mean(peak_row > threshold))
                    ci_low, ci_high = binomial_ci(pd, n_trials)
                    rows.append(
                        {
                            "range_m": r,
                            "beam": beam_kind.value,
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
