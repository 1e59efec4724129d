"""Command-line entry point.

Subcommands
-----------
rates      per-user rate samples over random deployments (CSV + manifest)
detect     detection probability vs range per beam/allocator/RCR cell
allocate   solve one power allocation from a coefficients JSON file
validate   Monte-Carlo cross-check of the closed-form rate coefficients

Exit codes: 0 success, 2 configuration error, 3 infeasible allocation,
4 numerical-consistency failure (a failed check or solve, a degenerate
radar direction or a singular linear system).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..beamform import DegenerateDirectionError, RadarBeamKind
from ..estimation import EstimationError, Estimator
from ..poweralloc import (
    AllocationInfeasibleError,
    RadarSirCoefficients,
    SolverError,
    check_problem,
    max_min_allocate,
    uniform_allocate,
)
from ..rate import NumericalConsistencyError, RateCoefficients, rate, sinr
from .config import PRESETS, ConfigError, ScenarioConfig, _check_type, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsim",
        description="Joint communication and sensing link-level simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_rates, p_detect, p_alloc, p_val = (
        sub.add_parser(name, help=summary)
        for name, summary in (
            ("rates", "simulate per-user downlink rates"),
            ("detect", "estimate detection probability vs range"),
            ("allocate", "solve one allocation from coefficients"),
            ("validate", "cross-check rate coefficients by simulation"),
        )
    )
    for p in (p_rates, p_detect, p_alloc, p_val):
        p.add_argument("--config", type=Path, help="JSON config (allocate: problem) file")
        p.add_argument("--out", type=Path, help="output file")
    for p in (p_rates, p_detect, p_val):  # the subcommands that run a scenario
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
        p.add_argument("--estimator", choices=[e.value for e in Estimator])
        p.add_argument("--beam", choices=[b.value for b in RadarBeamKind])
    for p in (p_rates, p_detect, p_alloc):
        p.add_argument("--allocator", choices=("uniform", "maxmin"))
    p_rates.add_argument("--scenarios", type=int, help="number of random deployments")
    p_detect.add_argument("--trials", type=int, help="Monte-Carlo trials per cell")
    p_val.add_argument("--draws", type=int, default=200_000, help="Monte-Carlo draws")
    p_val.add_argument("--rtol", type=float, default=0.03, help="relative tolerance")
    return parser


def _scenario_config(args) -> ScenarioConfig:
    """The preset or ``--config`` file, with every flag that sizes or picks the run folded in."""
    if args.config is not None:
        cfg = load_config(Path(args.config).read_text())
    else:
        cfg = PRESETS[args.preset]()
    flags = {
        "seed": args.seed,
        "estimator": args.estimator,
        "radar_beam": args.beam,
        "n_scenarios": getattr(args, "scenarios", None),
        "n_detection_trials": getattr(args, "trials", None),
    }
    changes = {name: value for name, value in flags.items() if value is not None}
    return cfg.replace(**changes) if changes else cfg


def _write_result(result, out: Path | None, default_name: str) -> Path:
    out = Path(default_name) if out is None else out
    result.write_csv(out)
    result.write_manifest(out.with_suffix(".manifest.json"))
    return out


def _cmd_sweep(args) -> int:
    from .experiments import run_detection_experiment, run_rate_experiment

    cfg = _scenario_config(args)
    if args.command == "rates":
        result, noun, unit = run_rate_experiment(cfg), "rate", "deployments"
    else:
        result, noun, unit = run_detection_experiment(cfg), "detection", "cells"
    # Rate rows carry no beam column: there --beam already picked cfg.radar_beam.
    wanted = {"allocator": args.allocator, "beam": args.beam}
    result.keep_rows(**{k: v for k, v in wanted.items() if v is not None and k in result.fields})
    out = _write_result(result, args.out, f"{args.command}.csv")
    print(f"wrote {len(result.rows)} {noun} rows to {out} "
          f"({len(result.failures)} infeasible {unit} skipped)")
    return EXIT_OK


# The JSON type of each key of an allocation problem but ``interference``, a list
# of number lists, checked as a config field of that annotation is.
_PROBLEM_TYPES = {
    "signal_gain": tuple, "radar_leakage": tuple, "noise_var": float, "bandwidth": float,
    "tau_c": int, "tau_p": int, "budget": float, "rho_star": float, "radar_gain": float,
    "user_gains": tuple,
}


def _load_allocation_problem(path: Path):
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ConfigError("allocation problem must be a JSON object")
    missing = {"interference", *_PROBLEM_TYPES} - set(data)
    if missing:
        raise ConfigError(f"allocation problem is missing keys: {sorted(missing)}")
    for key, annotation in _PROBLEM_TYPES.items():
        _check_type(key, data[key], annotation)
    rows = data["interference"]
    if not isinstance(rows, list):
        raise ConfigError(f"interference must be a list of rows, got {rows!r}")
    for i, row in enumerate(rows):
        _check_type(f"interference row {i}", row, tuple)
    try:
        coeffs = RateCoefficients(
            signal_gain=np.asarray(data["signal_gain"], dtype=float),
            interference=np.asarray(data["interference"], dtype=float),
            radar_leakage=np.asarray(data["radar_leakage"], dtype=float),
            noise_var=float(data["noise_var"]),
            bandwidth=float(data["bandwidth"]),
            tau_c=int(data["tau_c"]),
            tau_p=int(data["tau_p"]),
        )
        sir = RadarSirCoefficients(
            radar_gain=float(data["radar_gain"]),
            user_gains=np.asarray(data["user_gains"], dtype=float),
        )
        budget, rho_star = float(data["budget"]), float(data["rho_star"])
        check_problem(coeffs, sir, budget, rho_star)
    except ValueError as exc:
        raise ConfigError(f"invalid allocation problem: {exc}") from exc
    return coeffs, sir, budget, rho_star


def _cmd_allocate(args) -> int:
    if args.config is None:
        raise ConfigError("allocate needs --config pointing to a coefficients JSON file")
    coeffs, sir, budget, rho_star = _load_allocation_problem(args.config)
    allocator = args.allocator or "maxmin"
    if allocator == "maxmin":
        alloc = max_min_allocate(coeffs, sir, budget, rho_star)
    else:
        # Even split of the budget at the requested radar-to-communication ratio.
        alloc = uniform_allocate(budget / (1.0 + rho_star), rho_star, coeffs.n_users, 1, 1)
    report = {
        "allocator": allocator,
        "eta_users": alloc.eta_users.tolist(),
        "eta_radar": alloc.eta_radar,
        "budget": budget,
        "achieved_min_sinr": float(np.min(sinr(coeffs, alloc))),
        "sinr": sinr(coeffs, alloc).tolist(),
        "rate_bps": rate(coeffs, alloc).tolist(),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out is not None:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    from ..array import steering_vector
    from ..beamform import radar_beam
    from ..rate import rate_coefficients
    from ..validation import compare_terms, monte_carlo_rate_terms
    from .scenario import draw_estimates, draw_scan_direction, realize_scenario

    if args.draws < 1 or not args.rtol > 0:
        raise ConfigError(f"need --draws >= 1 and --rtol > 0, got {args.draws} and {args.rtol}")
    cfg = _scenario_config(args)
    rng = np.random.default_rng([cfg.seed, 0x7A])
    real = realize_scenario(cfg, rng)
    a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
    beam_kind = RadarBeamKind(cfg.radar_beam)
    # Only the ZFR beam needs estimates; for PBR none are drawn.
    estimates = draw_estimates(real, rng) if beam_kind is RadarBeamKind.ZFR else None
    w_radar = radar_beam(beam_kind, a, estimates)

    coeffs = rate_coefficients(
        real.statistics, w_radar, real.noise_var, real.frame.bandwidth, cfg.tau_c
    )
    mc = monte_carlo_rate_terms(
        list(real.stats), real.geom, real.book, real.statistics.filters, w_radar,
        real.noise_var, args.draws, rng,
    )
    report = compare_terms(mc, coeffs, rtol=args.rtol)
    failures = [(name, err) for name, err, ok in report if not ok]
    for name, err, ok in report:
        print(f"{'PASS' if ok else 'FAIL'} {name}: relative error {err:.4f}")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(
            [{"term": n, "rel_err": e, "ok": ok} for n, e, ok in report], indent=2
        ) + "\n")
    if failures:
        print(f"{len(failures)} of {len(report)} terms outside rtol={args.rtol}")
        return EXIT_NUMERICAL
    print(f"all {len(report)} terms within rtol={args.rtol} over {args.draws} draws")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rates": _cmd_sweep,
        "detect": _cmd_sweep,
        "allocate": _cmd_allocate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AllocationInfeasibleError as exc:
        print(f"infeasible allocation: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalConsistencyError, SolverError, ArithmeticError, EstimationError,
            DegenerateDirectionError, np.linalg.LinAlgError) as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
