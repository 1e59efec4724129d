"""Monte-Carlo experiment drivers: rate CDFs and detection probability.

The rate driver replays the full per-scenario chain (placement, training,
estimation, beamforming, coefficient assembly, power allocation) and
collects per-user rates under uniform and max-min allocation.  Both
drivers allocate a deployment's (RCR, beam, allocator) cells through one
pipeline, :func:`_cells`, and size a run by its config alone.  The
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
    _matched_phases,
    _pair_form,
    _qpsk_pair_table,
    _statistic_map,
    calibrate_threshold,
    delay_doppler_ramp,
    qpsk_indices,
)
from ..rate import build_rate_coefficients, rate
from .config import ConfigError, ScenarioConfig, hash_config
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

    @classmethod
    def of_run(cls, kind: str, cfg: ScenarioConfig, rows, fields, failures) -> "ExperimentResult":
        """A driver's result, with the config dict and hash of ``cfg``."""
        config = cfg.to_dict()
        return cls(
            kind=kind, rows=rows, fields=fields, config=config, seed=cfg.seed,
            config_hash=hash_config(config), failures=failures,
        )

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


def run_rate_experiment(cfg: ScenarioConfig) -> ExperimentResult:
    """Per-user downlink rates over ``cfg.n_scenarios`` random deployments, Uni vs max-min."""
    rows, failures = [], []
    for trial in range(cfg.n_scenarios):
        rng = np.random.default_rng([cfg.seed, trial])
        real = realize_scenario(cfg, rng)
        statistics, estimates = draw_estimates(real, rng)
        radar_dir = draw_scan_direction(cfg, rng)
        cells, cell_failures = _cells(
            cfg, real, radar_dir, statistics, estimates,
            [RadarBeamKind(cfg.radar_beam)], [cfg.rcr_db],
        )
        failures += [{"trial": trial, "error": f["error"]} for f in cell_failures]
        for (_, _, allocator), coeffs, powers in cells:
            for k, value in enumerate(rate(coeffs, powers)):
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
    return ExperimentResult.of_run("rates", cfg, rows, RATE_FIELDS, failures)


@dataclass(frozen=True)
class _TargetParams:
    alpha_mag: float
    delay: float
    doppler: float


# Trial blocks are sized so that their QPSK pair table stays near this many
# bytes; at the table1 geometry (55 pairs, 7,168 resource elements) a block
# is one trial.
PAIR_TABLE_BYTES = 2 << 20


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

    Both ||u||^2 and |a^H u|^2 are quadratic forms x^H M x in the unit-modulus
    QPSK symbols x_p of one resource element, with M = diag(sqrt(eta)) G
    diag(sqrt(eta)) for the beam Gram matrix G = [w_p^H w_q] and M = c c^H
    for c_p = sqrt(eta_p) a^H w_p.  Each is tr M plus a real row of
    coefficients times the table of pair products conj(x_p) x_q, which is the
    same for every cell (:func:`jcsim.radar._pair_form`).

    Every cell runs on the same draws, so the sweep pairs its cells through
    common random numbers.  Each batch of trials works on three levels:

    - per batch, in stream order: channels and estimates
      (:func:`jcsim.channel.draw_channels`, :func:`jcsim.estimation.estimate`),
      the QPSK indices of x_p (:func:`jcsim.radar.qpsk_indices`), the complex
      noise normals and the target phases; then, once per distinct beam
      kind, the radar beam (the ZFR beam by :func:`jcsim.beamform.zfr_beam`
      on the stack of estimates), a^H w_p and G;
    - per trial block, sized so its pair table stays near
      ``PAIR_TABLE_BYTES``: the real pair table of the block's symbols
      (:func:`jcsim.radar._qpsk_pair_table`) and one batched matmul by the
      coefficient rows of every cell;
    - per cell: its coefficient rows, the energy row always and the echo row
      in H1 passes, whose results give the noise scale, the echo and the
      maps.

    The N_A-antenna grid and the complex symbols are never formed.
    """
    geom, frame, book = real.geom, real.frame, real.book
    a = steering_vector(geom, target_direction)
    if filters is None:
        filters = training_statistics(
            book, list(real.stats), geom, real.noise_var_ul, real.estimator
        ).filters
    kinds = list(dict.fromkeys(kind for kind, _ in cells))
    cell_amps = [
        (kind, np.sqrt(np.concatenate([powers.eta_users, [powers.eta_radar]])))
        for kind, powers in cells
    ]
    ramps = [
        None if t is None else t.alpha_mag * delay_doppler_ramp(frame, t.delay, t.doppler)
        for t in targets
    ]
    with_echo = any(r is not None for r in ramps)
    phases = _matched_phases(frame, grid)
    grid_shape = (frame.n_symbols, frame.n_subcarriers)
    n_grid = grid_shape[0] * grid_shape[1]
    n_beams = book.n_users + 1
    n_cells = len(cells)
    n_rows = 2 * n_cells if with_echo else n_cells  # energy rows, then echo rows
    n_pair_rows = n_beams * (n_beams - 1)
    block = max(1, PAIR_TABLE_BYTES // (n_pair_rows * n_grid * 8))
    # Work buffers, allocated once and reused by every batch.
    size = min(batch, n_trials)
    table = np.empty((min(block, size), n_pair_rows, n_grid))
    forms = np.empty((size, n_rows, n_grid))  # ||u||^2 rows, then |a^H u|^2 rows
    normals, noise = (np.empty((size, *grid_shape), dtype=complex) for _ in range(2))
    if with_echo:
        corr = np.empty((size, *grid_shape), dtype=complex)
        echoes = np.empty((len(targets), size, *grid_shape), dtype=complex)

    peaks = np.empty((n_cells, len(targets), n_trials))
    for batch_idx, start in enumerate(range(0, n_trials, batch)):
        nb = min(batch, n_trials - start)
        rng = np.random.default_rng([cfg.seed, stream_key, batch_idx])
        h = draw_channels(list(real.stats), geom, nb, rng)
        h_hat = estimate(h, book, real.noise_var_ul, filters, rng).swapaxes(0, 1)
        symbols = qpsk_indices((nb, n_beams, n_grid), rng).astype(np.int8)  # radar last
        normal = normals[:nb]
        normal.real = rng.standard_normal(normal.shape)
        normal.imag = rng.standard_normal(normal.shape)
        alpha_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=nb))[:, None, None]

        users = h_hat / np.linalg.norm(h_hat, axis=-1, keepdims=True)
        beam_terms = {}
        for kind in kinds:
            radar = np.broadcast_to(
                radar_beam(kind, geom, target_direction, h_hat), (nb, geom.n_elements)
            )
            beams = np.concatenate([users, radar[:, None, :]], axis=1)  # unit-norm w_p
            beam_terms[kind] = (beams @ a.conj(), beams.conj() @ beams.swapaxes(-1, -2))

        # Each cell's M of ||u||^2 and, in H1 passes, of |a^H u|^2.
        forms_of = [amp[:, None] * beam_terms[kind][1] * amp for kind, amp in cell_amps]
        if with_echo:
            echo_weights = [beam_terms[kind][0] * amp for kind, amp in cell_amps]
            forms_of += [c.conj()[:, :, None] * c[:, None, :] for c in echo_weights]
        coef, trace = _pair_form(np.stack(forms_of, axis=1))
        for lo in range(0, nb, block):
            hi = min(lo + block, nb)
            pairs = table[: hi - lo]
            np.copyto(pairs, _qpsk_pair_table(symbols[lo:hi]))
            np.matmul(coef[lo:hi], pairs, out=forms[lo:hi])
        form = forms[:nb]
        form += trace[:, :, None]
        # In place: ||u||^2 becomes the noise scale sqrt(sigma^2 ||u||^2 / 2).
        scale = form[:, :n_cells]
        np.clip(scale, 0.0, None, out=scale)
        scale *= real.noise_var_dl / 2.0
        np.sqrt(scale, out=scale)
        for ti, ramp in enumerate(ramps):
            if ramp is not None:  # alpha / |alpha| times the ramp, scaled per cell by |a^H u|^2
                np.multiply(alpha_phase, ramp, out=echoes[ti, :nb])

        for ci in range(n_cells):
            np.multiply(normal, scale[:, ci].reshape(nb, *grid_shape), out=noise[:nb])
            for ti, ramp in enumerate(ramps):
                if ramp is None:
                    received = noise[:nb]
                else:
                    received = np.multiply(
                        echoes[ti, :nb], form[:, n_cells + ci].reshape(nb, *grid_shape),
                        out=corr[:nb],
                    )
                    received += noise[:nb]
                stat = _statistic_map(received, phases)
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


def _cells(cfg, real, direction, statistics, estimates, beam_kinds, rcrs_db):
    """Every (RCR, beam, allocator) cell of one deployment, allocated in row order.

    Per beam kind, the beams, the closed-form rate coefficients and the
    radar SIR gains are built once.  Per RCR, each beam gets the uniform
    split and the max-min powers at rho* = ``cfg.rho_star``, else the
    cell's linear RCR.  Returns ((rcr_db, RadarBeamKind, allocator),
    RateCoefficients, PowerAllocation) triples, RCRs outermost, and one
    failure record per infeasible max-min cell, which gets no triple.
    """
    user_beams = np.stack([matched_beam(h) for h in estimates])
    per_beam = []
    for kind in beam_kinds:
        w_radar = radar_beam(kind, real.geom, direction, estimates)
        beams = BeamformerSet(
            user_beams=user_beams, radar_beam=w_radar, radar_kind=kind, radar_direction=direction
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
        per_beam.append((kind, coeffs, sir))
    cells, failures = [], []
    for rcr_db in rcrs_db:
        rcr = 10.0 ** (rcr_db / 10.0)
        rho_star = rcr if cfg.rho_star is None else cfg.rho_star
        uni = uniform_allocate(cfg.p_dl_w, rcr, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols)
        for kind, coeffs, sir in per_beam:
            cells.append(((rcr_db, kind, "uniform"), coeffs, uni))
            try:
                powers = max_min_allocate(coeffs, sir, uni.budget, rho_star)
            except AllocationInfeasibleError as exc:
                failures.append({"rcr_db": rcr_db, "beam": kind.value, "error": str(exc)})
            else:
                cells.append(((rcr_db, kind, "maxmin"), coeffs, powers))
    return cells, failures


def run_detection_experiment(cfg: ScenarioConfig) -> ExperimentResult:
    """Detection probability vs range per (RCR, beam, allocator) cell.

    Every cell's power allocation is computed first on one reference
    realization (:func:`_cells`, both beams at each of
    ``cfg.detection_rcr_db``); an infeasible max-min cell goes into
    ``failures``.  Two :func:`simulate_sweep_peaks` passes then serve all
    cells on the same draws: the H0 pass on stream 0xCA1 and the H1 pass on
    stream 0x9D, both keyed [seed, stream, batch] as a one-cell run would
    be.  Each cell's threshold is calibrated at the configured false-alarm
    probability on the shared H0 draws through its own beam and powers; its
    ``cfg.n_detection_trials`` Pd trials per range are the fresh H1 draws.
    """
    n_trials = cfg.n_detection_trials
    rng0 = np.random.default_rng([cfg.seed, 0xD0])
    real = realize_scenario(cfg, rng0)
    grid = DelayDopplerGrid.natural(real.frame)
    target_dir = draw_scan_direction(cfg, rng0)
    wavelength = SPEED_OF_LIGHT / cfg.carrier_hz

    targets = []
    for r in cfg.detection_ranges_m:
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

    allocated, failures = _cells(
        cfg, real, target_dir, statistics, estimates,
        [RadarBeamKind.PBR, RadarBeamKind.ZFR], cfg.detection_rcr_db,
    )
    cells = [(kind, powers) for (_, kind, _), _, powers in allocated]
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
    for ((rcr_db, kind, allocator), _, _), h0_row, peaks in zip(allocated, h0_peaks, h1_peaks):
        threshold = calibrate_threshold(
            lambda _n, _rng: h0_row, cfg.pfa_target, n_calibration, rng0
        )
        for r, peak_row in zip(cfg.detection_ranges_m, peaks):
            pd = float(np.mean(peak_row > threshold))
            ci_low, ci_high = binomial_ci(pd, n_trials)
            rows.append(
                {
                    "range_m": r,
                    "beam": kind.value,
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
    return ExperimentResult.of_run("detect", cfg, rows, PD_FIELDS, failures)
