"""The benchmark's workloads: inputs made from a seed, one driver call each, checks.

Every workload is a closed loop of one client: the next call into the
public driver starts when the previous one has returned.  A call gets only
a generated ``ScenarioConfig``.  The checks are invariants that hold for
any correct implementation, whatever its random-draw order, so they keep
working when the chain is rewritten.
"""

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from jcsim.harness.config import ScenarioConfig, desk_preset, table1_preset
from jcsim.harness.experiments import run_detection_experiment, run_rate_experiment

__all__ = ["Outcome", "Workload", "WORKLOADS"]


@dataclass
class Outcome:
    """What one driver call produced, in the units the metrics count."""

    scenarios: int  # deployments realized
    trials: int  # Monte-Carlo trials: scenarios for rates, peak trials for detect
    attempted: int  # scenarios (rates) or cells (detect) attempted
    failed: int  # attempted units that were infeasible or failed a check
    problems: list = field(default_factory=list)  # failed checks, for the record


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool: Callable  # (seed, tiny) -> list of ScenarioConfig, called in order and cycled
    warmup: ScenarioConfig  # input of the untimed warm-up call
    call: Callable  # ScenarioConfig -> ExperimentResult
    check: Callable  # (ScenarioConfig, ExperimentResult or None) -> Outcome


def call_seed(seed: int, index: int) -> int:
    """Seed of the index-th call, mixed from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# --- rates --------------------------------------------------------------------

RATE_VARIANTS = [
    {"channel_model": m, "estimator": e, "radar_beam": b}
    for m, e, b in itertools.product(("rayleigh", "los", "rice"), ("pm", "lmmse"), ("pbr", "zfr"))
]
TABLE1_VARIANT = {"channel_model": "rice", "estimator": "lmmse", "radar_beam": "zfr"}


def _rate_pool(base, variants, size, tiny_size):
    """One scenario per call, variants round-robin, ``size`` inputs in all."""

    def make(seed, tiny):
        return [
            base.replace(seed=call_seed(seed, i), n_scenarios=1, **variants[i % len(variants)])
            for i in range(tiny_size if tiny else size)
        ]

    return make


def check_rates(cfg, result) -> Outcome:
    """Rows for every attempted scenario and allocator but the infeasible ones, rates > 0.

    ``result`` is None when the call raised: every scenario of it failed.
    """
    n, k = cfg.n_scenarios, cfg.n_users
    if result is None:
        return Outcome(scenarios=n, trials=n, attempted=n, failed=n)
    infeasible = {f["trial"] for f in result.failures}
    expected = {
        (t, a) for t in range(n) for a in ("uniform", "maxmin") if a == "uniform" or t not in infeasible
    }
    problems, bad = [], set()
    users: dict = {}
    for row in result.rows:
        users.setdefault((row["trial"], row["allocator"]), []).append(row["user"])
        rate_bps = row["rate_bps"]
        if not (math.isfinite(rate_bps) and rate_bps > 0):
            problems.append(f"trial {row['trial']} {row['allocator']} user {row['user']}: rate {rate_bps}")
            bad.add(row["trial"])
    for trial, allocator in set(users) ^ expected:
        problems.append(f"trial {trial} {allocator}: rows present {(trial, allocator) in users}, expected {(trial, allocator) in expected}")
        bad.add(trial)
    for (trial, allocator), got in users.items():
        if sorted(got) != list(range(k)):
            problems.append(f"trial {trial} {allocator}: users {sorted(got)}")
            bad.add(trial)
    return Outcome(scenarios=n, trials=n, attempted=n, failed=len(infeasible | bad), problems=problems)


# --- detection ----------------------------------------------------------------

# The desk sweep at a trial count where one call takes about a second, so
# that a run times each input many times (see README): each cell calibrates
# on max(n_trials, 100 / pfa) H0 trials, so a coarse Pfa keeps calibration
# about as large as the H1 trials at the four ranges.
DETECT_SIZES = {"n_detection_trials": 32, "pfa_target": 0.75}
DETECT_TINY = {"n_detection_trials": 8, "pfa_target": 0.75}
DETECT_RCR_DB = (3.0, 6.0)


def _detect_pool(seed, tiny):
    sizes = DETECT_TINY if tiny else DETECT_SIZES
    return [
        desk_preset().replace(
            seed=call_seed(seed, i),
            detection_rcr_db=(DETECT_RCR_DB[i % len(DETECT_RCR_DB)],),
            **sizes,
        )
        for i in range(len(DETECT_RCR_DB))
    ]


def check_detection(cfg, result) -> Outcome:
    """Every cell but the infeasible ones has a row per range, CI brackets Pd, threshold > 0.

    Trials are the cell's H0 calibration trials plus its H1 trials.  ``result``
    is None when the call raised: every cell of it failed.
    """
    ranges = list(cfg.detection_ranges_m)
    cells = len(cfg.detection_rcr_db) * 2 * 2  # RCR x beam x allocator
    if result is None:
        return Outcome(scenarios=1, trials=0, attempted=cells, failed=cells)
    calibration = max(cfg.n_detection_trials, math.ceil(100.0 / cfg.pfa_target))
    problems, bad_cells = [], set()
    groups: dict = {}
    for row in result.rows:
        cell = (row["rcr_db"], row["beam"], row["allocator"])
        groups.setdefault(cell, []).append(row)
        pd, lo, hi, thr = row["pd"], row["ci_low"], row["ci_high"], row["threshold"]
        if not (0.0 <= lo <= pd <= hi <= 1.0):
            problems.append(f"{cell} range {row['range_m']}: ci [{lo}, {hi}] around pd {pd}")
            bad_cells.add(cell)
        if not (math.isfinite(thr) and thr > 0):
            problems.append(f"{cell}: threshold {thr}")
            bad_cells.add(cell)
        if row["n_trials"] != cfg.n_detection_trials:
            problems.append(f"{cell}: n_trials {row['n_trials']}")
            bad_cells.add(cell)
    for cell, rows in groups.items():
        if sorted(r["range_m"] for r in rows) != sorted(ranges):
            problems.append(f"{cell}: ranges {[r['range_m'] for r in rows]}")
            bad_cells.add(cell)
    if len(groups) != cells - len(result.failures):
        problems.append(f"{len(groups)} cells, expected {cells} attempted minus {len(result.failures)} failed")
    trials = sum(calibration + sum(r["n_trials"] for r in rows) for rows in groups.values())
    failed = cells - len(groups) + len(bad_cells)
    return Outcome(scenarios=1, trials=trials, attempted=cells, failed=min(failed, cells), problems=problems)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rates-desk",
            why="desk preset over 3 channel models x 2 estimators x 2 radar beams: every rate path at small size, where max-min allocation is about 96% of the time",
            pool=_rate_pool(desk_preset(), RATE_VARIANTS, len(RATE_VARIANTS), len(RATE_VARIANTS)),
            warmup=desk_preset().replace(n_scenarios=1, **RATE_VARIANTS[-1]),
            call=run_rate_experiment,
            check=check_rates,
        ),
        Workload(
            name="rates-table1",
            why="paper table1 deployment (100 antennas, 10 users) with Rice, LMMSE and ZFR: dense NxN estimation and rate algebra is about half the time",
            pool=_rate_pool(table1_preset(), [TABLE1_VARIANT], 4, 2),
            warmup=table1_preset().replace(n_scenarios=1, **TABLE1_VARIANT),
            call=run_rate_experiment,
            check=check_rates,
        ),
        Workload(
            name="detect-desk",
            why="desk detection sweep, both beams x both allocators at off-grid preset ranges: the GLRT map and peak simulation, which the rate sweeps never call",
            pool=_detect_pool,
            warmup=desk_preset().replace(detection_rcr_db=DETECT_RCR_DB[:1], **DETECT_TINY),
            call=run_detection_experiment,
            check=check_detection,
        ),
    )
}
