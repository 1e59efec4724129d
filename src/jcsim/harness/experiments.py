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

Threading model.  A detection call allocates its cells on the calling
thread, then runs its passes with :func:`_run`, which opens one pool of
:func:`_workers` threads and joins it before it returns.  A task either
draws a batch, consuming that batch's own stream in a fixed order, or
computes a block of a drawn batch's trials, few enough that the block's
work buffers stay within ``BLOCK_BYTES``, writing only those trials' peaks.
Tasks take their work buffers from a module-level free list and give them
back, so a sweep allocates no large array in steady state; up to
``KEEP_BYTES`` of buffers outlive the call, no thread does.  Every batch
reads only its own stream, and a trial's peaks take the same bits whichever
block of trials it falls in, so they do not depend on which thread runs a
block, or when, and no option sets the worker count.
Threads gain only in long native calls: on two vCPUs with BLAS on one
thread, two threads run a 240k-element normals fill or a 400 x 400 matmul
about 2x as fast as one, a 45-trial desk block 1.2-2x, and a 40k-element
``np.multiply`` 0.5x, as short ufuncs contend for the interpreter lock
(two processes keep about 0.9x each).  Workers run only the simulator's
draws and trial blocks; scenario realization, the cell allocation, the
threshold calibration and the whole rate driver run on the calling
thread, so a wrapper around any of those functions sees all its calls there.
"""

import csv
import json
import math
import os
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..array import steering_vector
from ..beamform import RadarBeamKind, beam_set
from ..channel import draw_channels, target_alpha
from ..estimation import estimate
from ..poweralloc import (
    AllocationInfeasibleError,
    RadarSirCoefficients,
    max_min_allocate,
    uniform_allocate,
)
from ..radar import (
    DelayDopplerGrid,
    _map_amplitude,
    _matched_phases,
    _pair_form,
    _phase_axes,
    _qpsk_pair_table,
    calibrate_threshold,
    qpsk_indices,
)
from ..rate import rate, rate_coefficients
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


def binomial_ci(p_hat: float, n: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a proportion.

    Brown, Cai & DasGupta, Statist. Sci. 16(2), 2001.  Unlike the normal
    approximation it has a nonzero width at p_hat = 0 and 1.  Each end is
    p_hat plus an offset whose sign rounding cannot flip (root >= |skew|),
    so the interval contains p_hat, and at p_hat = 0 or 1 its near end is
    exactly p_hat.
    """
    p_hat, z2 = float(p_hat), 1.96**2 / n
    skew = z2 * (0.5 - p_hat)
    root = math.sqrt(z2 * p_hat * (1.0 - p_hat) + z2 * z2 / 4.0)
    return p_hat + (skew - root) / (1.0 + z2), p_hat + (skew + root) / (1.0 + z2)


@dataclass
class ExperimentResult:
    """Rows of one experiment plus everything needed to reproduce them.

    ``config`` is the run's ``ScenarioConfig.to_dict()``; the manifest's seed
    and config hash are read from it.
    """

    kind: str
    rows: list
    fields: list
    config: dict
    failures: list = field(default_factory=list)
    row_filter: dict = field(default_factory=dict)  # column -> value every kept row has

    def __post_init__(self):
        for row in self.rows:
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ArithmeticError(f"non-finite value in result row: {key}={value}")

    def keep_rows(self, **wanted) -> None:
        """Keep only the rows whose columns equal ``wanted``; the manifest records the filter."""
        self.rows = [row for row in self.rows if all(row[k] == v for k, v in wanted.items())]
        self.row_filter = {**self.row_filter, **wanted}

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.fields)
            writer.writeheader()
            writer.writerows(self.rows)

    def write_manifest(self, path) -> None:
        manifest = {
            "kind": self.kind,
            "seed": self.config["seed"],
            "config_hash": hash_config(self.config),
            "config": self.config,
            "n_rows": len(self.rows),
            "failures": self.failures,
            "versions": {"numpy": np.__version__},
        }
        if self.row_filter:
            manifest["row_filter"] = self.row_filter
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
        estimates = draw_estimates(real, rng)
        a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
        cells, cell_failures = _cells(
            cfg, real, a, estimates, [RadarBeamKind(cfg.radar_beam)], [cfg.rcr_db]
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
    return ExperimentResult("rates", rows, RATE_FIELDS, cfg.to_dict(), failures)


@dataclass(frozen=True)
class _TargetParams:
    alpha_mag: float
    delay: float
    doppler: float


# Trials per batch, the unit of the random streams [seed, stream, batch].
BATCH = 256
# A batch splits into even trial blocks, each one task of the sweep's thread
# pool and one step of its work: a block has at most this many trials, so a
# 134-trial batch is two blocks of 67, ...
BLOCK_TRIALS = BATCH // 2
# ... and at most so many that its form and noise buffers stay within this
# many bytes: with 8 cells, 14 H0 or 8 H1 trials at the table1 geometry
# (7,168 resource elements) and 117 or 65 at desk (896).
BLOCK_BYTES = 8 << 20
# Within a block, the QPSK pair table is built for so many trials at a time
# that it stays near this many bytes; at the table1 geometry (55 pairs, 7,168
# resource elements) that is one trial.
PAIR_TABLE_BYTES = 2 << 20
# Most threads in a sweep's pool.  Each worker holds one block's work buffers
# and each batch drawn ahead its draws, so peak memory grows with the pool: a
# table1 detection sweep (8 cells, 10 H0 batches) peaks at about 223, 260-288
# and 408-424 MiB on 1, 2 and 4 workers, mostly batch draws (47 MiB each).
MAX_WORKERS = 4
# Most bytes of work buffers kept between tasks and calls: a desk sweep keeps
# 14-31 MiB on two workers; a table1 block's 14 MiB fit, its batch's 47 do not.
KEEP_BYTES = 32 << 20


class _Workspace(dict):
    """Named flat work buffers of a block or a batch, grown only when a larger one is asked for."""

    def buffer(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        if name not in self or self[name].size < size:
            self[name] = np.empty(size, dtype)
        return self[name][:size].reshape(shape)


# Free workspaces of trial blocks and of batch draws; every task writes a buffer before it reads it.
_kept = {"block": [], "batch": []}
_kept_lock = threading.Lock()


def _take(kind: str) -> _Workspace:
    with _kept_lock:
        return _kept[kind].pop() if _kept[kind] else _Workspace()


def _give_back(kind: str, ws: _Workspace) -> None:
    """Keep ``ws`` for the next task of its kind if all kept stay within ``KEEP_BYTES``."""
    with _kept_lock:
        kept = [ws, *(w for free in _kept.values() for w in free)]
        if sum(b.nbytes for w in kept for b in w.values()) <= KEEP_BYTES:
            _kept[kind].append(ws)


def _workers() -> int:
    """Threads of a sweep's pool: one per CPU this process may run on, at most ``MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


@dataclass(eq=False)
class _Batch:
    """The stream-ordered draws of one batch of trials, read by its trial blocks."""

    start: int  # index of the batch's first trial in the pass
    h_hat: np.ndarray  # (nb, K, N_A) channel estimates
    symbols: np.ndarray  # (nb, K + 1, N M) QPSK indices as int8, radar last
    normals: np.ndarray  # (2, nb, N, M) real, then imaginary noise normals
    alpha_phase: np.ndarray  # (nb, 1, 1) target phases alpha / |alpha|
    workspace: _Workspace  # holds symbols and normals until _run gives it back


class _SweepPass:
    """One hypothesis pass of :func:`simulate_sweep_peaks`, as batch draws and trial blocks.

    Takes the arguments of that function, which says where ``a`` and the grid come from.
    :func:`_run` calls :meth:`draw` per batch and :meth:`compute` per block
    of a drawn batch.  Each block writes only its own trials of ``peaks``.
    """

    def __init__(self, real, seed, a, cells, targets, n_trials, stream_key):
        frame = real.frame
        self.real, self.seed, self.a, self.stream_key = real, seed, a, stream_key
        # Read here, on the calling thread, so no worker builds the statistics.
        self.filters = real.statistics.filters
        self.phases = _matched_phases(frame, DelayDopplerGrid.natural(frame))
        self.with_echo = any(t is not None for t in targets)
        if self.with_echo:  # the folded phase pairs (D diag(d_t), alpha_t diag(e_t) L)
            echoes = [t or _TargetParams(0.0, 0.0, 0.0) for t in targets]  # None: alpha_t = 0
            d, e = _phase_axes(frame, [t.delay for t in echoes], [t.doppler for t in echoes])
            self.echo_doppler = self.phases[0] * d[:, None, :]  # (T, n_dopplers, N)
            alpha_e = e * [t.alpha_mag for t in echoes]  # (M, T)
            # (M, 2 T n_delays) real, Re and Im interleaved: f_c times it views as complex.
            echo_delay = alpha_e[:, :, None] * self.phases[1][:, None, :]
            self.echo_delay = echo_delay.view(float).reshape(frame.n_subcarriers, -1)
        self.grid_shape = (frame.n_symbols, frame.n_subcarriers)
        self.n_grid = frame.n_symbols * frame.n_subcarriers
        self.n_beams = real.book.n_users + 1
        pair_rows = self.n_beams * (self.n_beams - 1)
        self.table_trials = max(1, PAIR_TABLE_BYTES // (pair_rows * self.n_grid * 8))
        form_rows = len(cells) * (2 if self.with_echo else 1)
        self.block_trials = max(1, BLOCK_BYTES // (self.n_grid * (8 * form_rows + 16)))
        self.batches = [
            (index, start, min(BATCH, n_trials - start))
            for index, start in enumerate(range(0, n_trials, BATCH))
        ]
        self.kinds = list(dict.fromkeys(kind for kind, _ in cells))
        self.cell_amps = [
            (kind, np.sqrt(np.concatenate([powers.eta_users, [powers.eta_radar]])))
            for kind, powers in cells
        ]
        self.peaks = np.empty((len(cells), len(targets), n_trials))

    def draw(self, index: int, start: int, nb: int) -> _Batch:
        """Batch ``index``, drawn from stream [seed, stream_key, index] in order:
        channels and estimates, QPSK indices, noise normals, target phases."""
        real = self.real
        rng = np.random.default_rng([self.seed, self.stream_key, index])
        h = draw_channels(list(real.stats), real.geom, nb, rng)
        h_hat = estimate(h, real.book, real.noise_var, self.filters, rng).swapaxes(0, 1)
        ws = _take("batch")
        shape = (nb, self.n_beams, self.n_grid)
        symbols = qpsk_indices(shape, rng, out=ws.buffer("symbols", shape, np.int8))
        normals = ws.buffer("normals", (2, nb, *self.grid_shape))
        for part in normals:
            rng.standard_normal(out=part)
        alpha_phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=nb))[:, None, None]
        return _Batch(start, h_hat, symbols, normals, alpha_phase, ws)

    def blocks(self, batch: _Batch) -> list[tuple[int, int]]:
        """The trial blocks lo:hi of a batch: as even as can be, none above ``BLOCK_TRIALS``
        or the ``block_trials`` whose buffers fit in ``BLOCK_BYTES``."""
        nb = len(batch.h_hat)
        n_blocks = -(-nb // min(BLOCK_TRIALS, self.block_trials))
        edges = [nb * i // n_blocks for i in range(n_blocks + 1)]
        return list(zip(edges[:-1], edges[1:]))

    def compute(self, batch: _Batch, lo: int, hi: int) -> None:
        """Peaks of every cell and target on trials lo:hi of ``batch``, as one step."""
        h_hat, n = batch.h_hat[lo:hi], hi - lo
        beam_terms = {}
        for kind in self.kinds:
            beams = beam_set(kind, self.a, h_hat)  # unit-norm w_p
            beam_terms[kind] = (beams @ self.a.conj(), beams.conj() @ beams.swapaxes(-1, -2))

        # Each cell's M of ||u||^2 and, in H1 passes, of |a^H u|^2.
        forms_of = [amp[:, None] * beam_terms[kind][1] * amp for kind, amp in self.cell_amps]
        if self.with_echo:
            echo_weights = [beam_terms[kind][0] * amp for kind, amp in self.cell_amps]
            forms_of += [c.conj()[:, :, None] * c[:, None, :] for c in echo_weights]
        coef, trace = _pair_form(np.stack(forms_of, axis=1))
        n_cells, (n_symbols, n_subcarriers) = len(self.cell_amps), self.grid_shape
        ws = _take("block")  # work buffers of the block, reused by every cell
        table = ws.buffer("table", (min(self.table_trials, n), coef.shape[-1], self.n_grid))
        form = ws.buffer("form", (n, coef.shape[1], self.n_grid))
        for sub in range(0, n, self.table_trials):
            end = min(sub + self.table_trials, n)
            pairs = table[: end - sub]
            np.copyto(pairs, _qpsk_pair_table(batch.symbols[lo + sub : lo + end]))
            np.matmul(coef[sub:end], pairs, out=form[sub:end])
        form += trace[:, :, None]  # ||u||^2 rows, then |a^H u|^2 rows
        # In place: ||u||^2 becomes the noise scale sqrt(sigma^2 ||u||^2 / 2).
        scale = form[:, :n_cells]
        np.clip(scale, 0.0, None, out=scale)
        scale *= self.real.noise_var / 2.0
        np.sqrt(scale, out=scale)
        noise = ws.buffer("noise", (n, n_symbols, n_subcarriers), complex)
        phi = batch.alpha_phase[lo:hi, :, :, None]
        trials = slice(batch.start + lo, batch.start + hi)
        for ci in range(n_cells):
            for normals, part in zip(batch.normals[:, lo:hi], (noise.real, noise.imag)):
                np.multiply(normals, scale[:, ci].reshape(noise.shape), out=part)
            amplitude = _map_amplitude(noise, self.phases)[:, None]  # serves every target
            if self.with_echo:
                # f_c by every target's delay phases, one trial a matmul: a real matmul's
                # bits may depend on its number of rows, a trial's must not on its block.
                echo = ws.buffer("echo", (n, n_symbols, self.echo_delay.shape[1]))
                f_c = form[:, n_cells + ci].reshape(n, n_symbols, n_subcarriers)
                np.matmul(f_c, self.echo_delay, out=echo)
                by_delay = echo.view(complex).reshape(n, n_symbols, len(self.echo_doppler), -1)
                amplitude = phi * (self.echo_doppler @ by_delay.swapaxes(1, 2)) + amplitude
            self.peaks[ci, :, trials] = (np.abs(amplitude) ** 2).max(axis=(-2, -1)).T
        _give_back("block", ws)


def _run(passes) -> None:
    """Draw and compute every batch of ``passes`` on a pool of :func:`_workers` threads.

    Only the calling thread submits and waits.  Batches go through a window
    of at most one draw per worker: the loop takes a finished draw, submits
    its blocks, waits for the blocks of the batch taken before, gives back
    that batch's workspace and refills the window.  So at most workers + 1
    batches are alive at once, and the next batch's blocks are queued while
    the last ones finish.  The first worker exception re-raises here; the
    queued tasks are then cancelled and the running ones finish before the
    call returns.
    """
    workers = _workers()
    queued = deque((sweep, *spec) for sweep in passes for spec in sweep.batches)
    window, computing = {}, []  # draw future -> pass; (batch, block futures) taken before

    def finish():
        for batch, blocks in computing:
            for future in blocks:
                future.result()
            _give_back("batch", batch.workspace)  # no block of the batch reads it any more

    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="jcsim-sweep")
    try:
        while queued or window:
            while queued and len(window) < workers:
                sweep, *spec = queued.popleft()
                window[pool.submit(sweep.draw, *spec)] = sweep
            done, _ = wait(window, return_when=FIRST_COMPLETED)
            drawn = next(iter(done))
            sweep = window.pop(drawn)
            batch = drawn.result()  # re-raises the worker's exception, as do the blocks'
            blocks = [pool.submit(sweep.compute, batch, lo, hi) for lo, hi in sweep.blocks(batch)]
            finish()
            computing = [(batch, blocks)]
        finish()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def simulate_sweep_peaks(
    real: ScenarioRealization,
    seed: int,
    a: np.ndarray,
    cells,
    targets: list,
    n_trials: int,
    stream_key: int,
) -> np.ndarray:
    """Peak GLRT statistics of every cell, shape (len(cells), len(targets), n_trials).

    ``cells`` is a sequence of (RadarBeamKind, PowerAllocation) pairs and
    entries of ``targets`` are _TargetParams or None (H0); one cell's peaks
    are row 0 of a pass with ``cells = [(kind, powers)]``.  ``a`` is the
    caller's steering vector of the surveillance direction, built once per
    deployment for the beams and a^H w_p.  The estimates go through the
    deployment's filters (``real.statistics``) and the GLRT searches its
    natural grid (``DelayDopplerGrid.natural(real.frame)``).  Works on the
    scalar correlation u^H y: the echo contributes alpha |a^H u|^2 times the
    delay/Doppler ramp and the noise contributes a complex Gaussian of
    variance sigma^2 ||u||^2 per resource element, which together are
    distributed exactly as in the antenna-domain model.

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
      the QPSK indices of x_p, two raw bits each (:func:`jcsim.radar.qpsk_indices`),
      the complex noise normals and the target phases;
    - per trial block of at most ``BLOCK_TRIALS`` trials, and of no more trials
      than keep its form and noise buffers within ``BLOCK_BYTES``: once per
      distinct beam kind, the beams (:func:`jcsim.beamform.beam_set` on the
      stack of estimates), a^H w_p and G, then every cell's M of ||u||^2 and,
      in H1 passes, of |a^H u|^2, and the coefficient rows of those M; then,
      in sub-steps whose pair table stays near ``PAIR_TABLE_BYTES``, the real
      pair table of the symbols (:func:`jcsim.radar._qpsk_pair_table`) and one
      batched matmul by every cell's rows; then the noise scales;
    - per cell: the noise and its map, which serves every target: the map is
      linear, so in H1 passes target t adds phi (D diag(d_t)) f_c (alpha_t
      diag(e_t) L) for the matched phase pair (D, L), t's Doppler and delay
      phases d_t and e_t, and f_c = |a^H u|^2; one real matmul of f_c by every
      target's folded delay phases side by side, then one Doppler matmul.

    Draws and blocks run on the pool of :func:`_run`.  The N_A-antenna grid,
    the complex symbols and the received grid are never formed.
    """
    sweep = _SweepPass(real, seed, a, cells, targets, n_trials, stream_key)
    _run([sweep])
    return sweep.peaks


def _snap(value: float, axis: np.ndarray) -> float:
    return float(axis[np.argmin(np.abs(axis - value))])


def _cells(cfg, real, a, estimates, beam_kinds, rcrs_db):
    """Every (RCR, beam, allocator) cell of one deployment, allocated in row order.

    Per beam kind, the beams of steering vector ``a``, the closed-form rate
    coefficients and the radar SIR gains N_A |a^H w|^2 are built once.  Per
    RCR, each beam gets the uniform split and the max-min powers at rho* =
    ``cfg.rho_star``, else the cell's linear RCR.  Returns ((rcr_db, RadarBeamKind,
    allocator), RateCoefficients, PowerAllocation) triples, RCRs outermost,
    and one failure record per infeasible max-min cell, which gets no triple.
    """
    n_a = real.geom.n_elements
    per_beam = []
    for kind in beam_kinds:
        beams = beam_set(kind, a, estimates)
        w_radar = beams[-1]
        coeffs = rate_coefficients(
            real.statistics, w_radar, real.noise_var, real.frame.bandwidth, cfg.tau_c
        )
        sir = RadarSirCoefficients(
            radar_gain=float(n_a * abs(a.conj() @ w_radar) ** 2),
            user_gains=n_a * np.abs(beams[:-1] @ a.conj()) ** 2,
        )
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

    Every cell's power allocation is computed first, on the calling thread,
    on one reference realization (:func:`_cells`, both beams at each of
    ``cfg.detection_rcr_db``); an infeasible max-min cell goes into
    ``failures``.  Then two :func:`simulate_sweep_peaks` passes serve all
    cells on the same draws, on one pool (:func:`_run`): the H0 pass on
    stream 0xCA1 and the H1 pass on stream 0x9D, both keyed [seed, stream,
    batch] as a one-cell run would be.  Each cell's threshold is calibrated
    at the configured false-alarm probability on the shared H0 draws through
    its own beam and powers; its ``cfg.n_detection_trials`` Pd trials per
    range are the fresh H1 draws.
    """
    n_trials = cfg.n_detection_trials
    rng0 = np.random.default_rng([cfg.seed, 0xD0])
    real = realize_scenario(cfg, rng0)
    grid = DelayDopplerGrid.natural(real.frame)
    a = steering_vector(real.geom, draw_scan_direction(cfg, rng0))
    if real.geom.n_elements <= cfg.n_users:
        raise ConfigError("the sweep's zfr cells need more antennas (n_y * n_z) than users")

    targets = []
    for r in cfg.detection_ranges_m:
        alpha_mag, delay = target_alpha(r, real.geom, cfg.target_rcs_m2)
        if delay > real.frame.cp_duration:
            raise ConfigError(
                f"target range {r} m puts the echo delay beyond the cyclic prefix"
            )
        doppler = 2.0 * cfg.target_speed_mps / real.geom.wavelength
        if cfg.target_on_grid:
            delay = _snap(delay, grid.delays)
            doppler = _snap(doppler, grid.dopplers)
        targets.append(_TargetParams(alpha_mag, delay, doppler))

    # Reference realization for the per-cell power allocation.
    estimates = draw_estimates(real, rng0)
    allocated, failures = _cells(
        cfg, real, a, estimates,
        [RadarBeamKind.PBR, RadarBeamKind.ZFR], cfg.detection_rcr_db,
    )
    cells = [(kind, powers) for (_, kind, _), _, powers in allocated]
    n_calibration = max(n_trials, int(np.ceil(100.0 / cfg.pfa_target)))
    h0 = _SweepPass(real, cfg.seed, a, cells, [None], n_calibration, 0xCA1)
    h1 = _SweepPass(real, cfg.seed, a, cells, targets, n_trials, 0x9D)
    _run([h0, h1])
    rows = []
    for ((rcr_db, kind, allocator), _, _), h0_row, peaks in zip(
        allocated, h0.peaks[:, 0], h1.peaks
    ):
        threshold = calibrate_threshold(h0_row, cfg.pfa_target)
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
    return ExperimentResult("detect", rows, PD_FIELDS, cfg.to_dict(), failures)
