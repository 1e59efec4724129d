"""Command-line entry point.

Subcommands
-----------
rates      per-user rate samples over random deployments (CSV + manifest)
detect     detection probability vs range per beam/allocator/RCR cell
allocate   solve one power allocation from a coefficients JSON file
validate   Monte-Carlo cross-check of the closed-form rate coefficients

Exit codes: 0 success, 2 configuration error, 3 infeasible allocation,
4 numerical-consistency failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..poweralloc import (
    AllocationInfeasibleError,
    RadarSirCoefficients,
    SolverError,
    check_problem,
    max_min_allocate,
    uniform_allocate,
)
from ..rate import NumericalConsistencyError, RateCoefficients, rate, sinr
from .config import PRESETS, ConfigError, ScenarioConfig, dump_config, load_config

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

    def common(p):
        p.add_argument("--config", type=Path, help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, help="output file")
        p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
        p.add_argument("--estimator", choices=("pm", "lmmse"))
        p.add_argument("--beam", choices=("pbr", "zfr"))
        p.add_argument("--allocator", choices=("uniform", "maxmin"))

    p_rates = sub.add_parser("rates", help="simulate per-user downlink rates")
    common(p_rates)
    p_rates.add_argument("--scenarios", type=int, help="number of random deployments")

    p_detect = sub.add_parser("detect", help="estimate detection probability vs range")
    common(p_detect)
    p_detect.add_argument("--trials", type=int, help="Monte-Carlo trials per cell")

    p_alloc = sub.add_parser("allocate", help="solve one allocation from coefficients")
    common(p_alloc)

    p_val = sub.add_parser("validate", help="cross-check rate coefficients by simulation")
    common(p_val)
    p_val.add_argument("--draws", type=int, default=200_000, help="Monte-Carlo draws")
    p_val.add_argument("--rtol", type=float, default=0.03, help="relative tolerance")
    return parser


def _scenario_config(args) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(Path(args.config).read_text())
    else:
        cfg = PRESETS[args.preset]()
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.estimator is not None:
        changes["estimator"] = args.estimator
    if args.beam is not None:
        changes["radar_beam"] = args.beam
    return cfg.replace(**changes) if changes else cfg


def _write_result(result, out: Path | None, default_name: str) -> Path:
    out = Path(default_name) if out is None else out
    result.write_csv(out)
    result.write_manifest(out.with_suffix(".manifest.json"))
    return out


def _cmd_rates(args) -> int:
    from .experiments import run_rate_experiment

    cfg = _scenario_config(args)
    result = run_rate_experiment(cfg, n_scenarios=args.scenarios)
    if args.allocator is not None:
        result.rows = [r for r in result.rows if r["allocator"] == args.allocator]
    out = _write_result(result, args.out, "rates.csv")
    print(f"wrote {len(result.rows)} rate rows to {out} "
          f"({len(result.failures)} infeasible deployments skipped)")
    return EXIT_OK


def _cmd_detect(args) -> int:
    from .experiments import run_detection_experiment

    cfg = _scenario_config(args)
    result = run_detection_experiment(cfg, n_trials=args.trials)
    if args.allocator is not None:
        result.rows = [r for r in result.rows if r["allocator"] == args.allocator]
    out = _write_result(result, args.out, "detect.csv")
    print(f"wrote {len(result.rows)} detection rows to {out} "
          f"({len(result.failures)} infeasible cells skipped)")
    return EXIT_OK


def _load_allocation_problem(path: Path):
    data = json.loads(path.read_text())
    required = {
        "signal_gain", "interference", "radar_leakage", "noise_var",
        "bandwidth", "tau_c", "tau_p", "budget", "rho_star",
        "radar_gain", "user_gains",
    }
    missing = required - set(data)
    if missing:
        raise ConfigError(f"allocation problem is missing keys: {sorted(missing)}")
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
    from ..beamform import RadarBeamKind, radar_beam
    from ..rate import build_rate_coefficients
    from ..validation import compare_terms, monte_carlo_rate_terms
    from .scenario import draw_estimates, draw_scan_direction, realize_scenario

    cfg = _scenario_config(args)
    rng = np.random.default_rng([cfg.seed, 0x7A])
    real = realize_scenario(cfg, rng)
    direction = draw_scan_direction(cfg, rng)
    beam_kind = RadarBeamKind(cfg.radar_beam)
    # Only the ZFR beam needs estimates; for PBR none are drawn.
    statistics, estimates = (
        draw_estimates(real, rng) if beam_kind is RadarBeamKind.ZFR else (None, None)
    )
    w_radar = radar_beam(beam_kind, real.geom, direction, estimates)

    coeffs = build_rate_coefficients(
        list(real.stats), real.geom, real.book, real.estimator, w_radar,
        real.noise_var_ul, real.noise_var_dl,
        bandwidth=real.frame.bandwidth, tau_c=cfg.tau_c, statistics=statistics,
    )
    mc = monte_carlo_rate_terms(
        list(real.stats), real.geom, real.book, real.estimator, w_radar,
        real.noise_var_ul, args.draws, rng,
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
        "rates": _cmd_rates,
        "detect": _cmd_detect,
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
    except (NumericalConsistencyError, SolverError, ArithmeticError) as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
