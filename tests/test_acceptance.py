"""Acceptance suite: one test per criterion, each reporting a PASS line.

Statistical checks use pinned tolerances stated next to each assertion.
The rate-experiment fixture is shared between the fairness and estimator
ordering criteria so the 50-scenario sweep runs once per combination.
"""

import time

import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.beamform import pbr_beam, zfr_beam
from jcsim.channel import ChannelModelKind, ChannelStats, hbar_matrix
from jcsim.estimation import Estimator, PilotBook, lmmse_matrices
from jcsim.harness.config import desk_preset
from jcsim.harness.experiments import (
    run_detection_experiment,
    run_rate_experiment,
    simulate_sweep_peaks,
)
from jcsim.harness.scenario import draw_scan_direction, realize_scenario
from jcsim.poweralloc import (
    RadarSirCoefficients,
    max_min_allocate,
    uniform_allocate,
)
from jcsim.radar import DelayDopplerGrid, OfdmFrameConfig, calibrate_threshold, glrt_statistic
from jcsim.rate import RateCoefficients, build_rate_coefficients, sinr
from jcsim.validation import compare_terms, monte_carlo_rate_terms
from oracles import grid_search_max_min

MODELS = ("rayleigh", "los", "rice")
ESTIMATORS = ("pm", "lmmse")


@pytest.fixture(scope="module")
def rate_results():
    """Desk-scale 50-scenario rate sweep for every model x estimator pair."""
    out = {}
    for model in MODELS:
        for estimator in ESTIMATORS:
            cfg = desk_preset().replace(channel_model=model, estimator=estimator)
            out[(model, estimator)] = run_rate_experiment(cfg)
    return out


def test_criterion_1_closed_form_bound_validation():
    """Every SINR coefficient matches its Monte-Carlo estimate within 3%
    relative error over 1e5 draws, for all six model x estimator pairs."""
    started = time.monotonic()
    rtol, n_draws = 0.03, 100_000
    worst = 0.0
    for idx, (model, estimator) in enumerate(
        (m, e) for m in MODELS for e in ESTIMATORS
    ):
        cfg = desk_preset().replace(channel_model=model, estimator=estimator)
        rng = np.random.default_rng([cfg.seed, 0xC1, idx])
        real = realize_scenario(cfg, rng)
        radar_beam = pbr_beam(steering_vector(real.geom, draw_scan_direction(cfg, rng)))
        coeffs = build_rate_coefficients(
            list(real.stats), real.geom, real.book, real.estimator, radar_beam,
            real.noise_var, real.noise_var,
            bandwidth=real.frame.bandwidth, tau_c=cfg.tau_c,
        )
        mc = monte_carlo_rate_terms(
            list(real.stats), real.geom, real.book, real.statistics.filters, radar_beam,
            real.noise_var, n_draws, rng,
        )
        report = compare_terms(mc, coeffs, rtol=rtol)
        bad = [(name, err) for name, err, ok in report if not ok]
        assert not bad, f"{model}/{estimator}: terms outside {rtol}: {bad}"
        worst = max(worst, max(err for _, err, _ in report))
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds the 5-minute target"
    print(
        f"\ncriterion 1 PASS: all coefficients within {rtol:.0%} of Monte Carlo "
        f"(worst {worst:.4f}) over {n_draws} draws x 6 pairs in {elapsed:.0f}s"
    )


def test_criterion_2_allocator_matches_grid_search():
    """On 20 random K=3 instances the bisection optimum matches a dense
    grid-search oracle within 10x the pinned 1e-3 relative tolerance, and
    the returned point violates no constraint by more than 1e-6 relative."""
    rng = np.random.default_rng(0xA2)
    tol_eps_rel = 1e-3
    worst_gap = worst_violation = 0.0
    for _ in range(20):
        signal = 10.0 ** rng.uniform(0.0, 2.0, size=3)
        coeffs = RateCoefficients(
            signal_gain=signal,
            interference=rng.uniform(0.1, 1.0, size=(3, 3)),
            radar_leakage=rng.uniform(0.1, 1.0, size=3),
            noise_var=rng.uniform(0.5, 2.0),
            bandwidth=1e6,
            tau_c=200,
            tau_p=3,
        )
        sir = RadarSirCoefficients(
            radar_gain=rng.uniform(1.0, 10.0),
            user_gains=rng.uniform(0.1, 1.0, size=3),
        )
        rho_star = rng.uniform(0.2, 2.0)
        alloc = max_min_allocate(coeffs, sir, budget=1.0, rho_star=rho_star)
        t_grid, _, _ = grid_search_max_min(coeffs, sir, 1.0, rho_star, step=1e-3)
        gap = abs(alloc.achieved_t - t_grid) / alloc.achieved_t
        assert gap <= 10.0 * tol_eps_rel, f"optimum gap {gap:.2e} vs oracle"
        worst_gap = max(worst_gap, gap)

        budget_excess = max(0.0, alloc.total - 1.0)
        sinr_deficit = max(
            0.0,
            float(np.max(alloc.achieved_t - sinr(coeffs, alloc)) / alloc.achieved_t),
        )
        lhs = alloc.eta_radar * sir.radar_gain
        rhs = rho_star * (sir.user_gains @ alloc.eta_users)
        sir_deficit = max(0.0, (rhs - lhs) / max(rhs, 1e-300))
        violation = max(budget_excess, sinr_deficit, sir_deficit)
        assert violation <= 1e-6, f"constraint violation {violation:.2e}"
        worst_violation = max(worst_violation, violation)
    print(
        f"\ncriterion 2 PASS: 20/20 instances within 10x tol (worst gap "
        f"{worst_gap:.2e}, worst constraint violation {worst_violation:.2e})"
    )


def test_criterion_3_fairness_lower_tail(rate_results):
    """The 5th percentile of the pooled per-user rate under max-min
    allocation is at least that under uniform allocation, for every
    channel model and estimator, over 50 paired scenarios."""
    lines = []
    for (model, estimator), result in rate_results.items():
        p5_mm = np.percentile(result.column("rate_bps", allocator="maxmin"), 5)
        p5_uni = np.percentile(result.column("rate_bps", allocator="uniform"), 5)
        assert p5_mm >= p5_uni, (
            f"{model}/{estimator}: max-min p5 {p5_mm:.3e} < uniform p5 {p5_uni:.3e}"
        )
        lines.append(f"{model}/{estimator}: {p5_mm:.3e} >= {p5_uni:.3e}")
    print("\ncriterion 3 PASS: max-min 5th percentile >= uniform for all six "
          "pairs (" + "; ".join(lines) + ")")


def test_criterion_4_estimator_ordering(rate_results):
    """Mean per-user rate under LMMSE estimation is at least that under
    pilot-matched estimation.  Rayleigh is an exact tie by construction,
    so it gets the bisection tolerance 1e-4; LoS may tie within 1%."""
    slack = {"rayleigh": 1e-4, "rice": 1e-4, "los": 0.01}
    lines = []
    for model in MODELS:
        mean_pm = rate_results[(model, "pm")].column("rate_bps").mean()
        mean_lm = rate_results[(model, "lmmse")].column("rate_bps").mean()
        assert mean_lm >= mean_pm * (1.0 - slack[model]), (
            f"{model}: LMMSE mean {mean_lm:.3e} < PM mean {mean_pm:.3e}"
        )
        lines.append(f"{model}: lmmse/pm = {mean_lm / mean_pm:.4f}")
    print("\ncriterion 4 PASS: LMMSE mean rate >= PM mean rate (" + "; ".join(lines) + ")")


def test_criterion_5_zero_forcing_nulls():
    """With perfect CSI the ZFR beam leaks at most 1e-10 onto every user
    channel on 100 random instances, and reduces to PBR with no users."""
    geom = ArrayGeometry.half_wavelength(4, 4, 0.1)
    a = steering_vector(geom, Direction(azimuth=0.3, elevation=1.2))
    rng = np.random.default_rng(0xA5)
    worst = 0.0
    for _ in range(100):
        channels = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
        w = zfr_beam(a, channels)
        worst = max(worst, float(np.max(np.abs(channels.conj() @ w))))
    assert worst <= 1e-10, f"residual leakage {worst:.2e}"
    w_empty = zfr_beam(a, np.zeros((0, 16), dtype=complex))
    np.testing.assert_array_equal(w_empty, pbr_beam(a))
    print(
        f"\ncriterion 5 PASS: worst |h^H w_R| = {worst:.2e} <= 1e-10 over 100 "
        "instances; ZFR == PBR with no users"
    )


def test_criterion_6_false_alarm_calibration():
    """A threshold calibrated at Pfa = 1e-2 yields an empirical false-alarm
    rate inside [0.008, 0.012] on 1e4 fresh noise-only trials."""
    cfg = desk_preset()
    rng = np.random.default_rng([cfg.seed, 0xA6])
    real = realize_scenario(cfg, rng)
    a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
    powers = uniform_allocate(
        cfg.p_dl_w, cfg.rcr_linear, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols
    )
    from jcsim.beamform import RadarBeamKind

    calibration = simulate_sweep_peaks(
        real, cfg.seed, a, [(RadarBeamKind.PBR, powers)],
        [None], 10_000, stream_key=0xCA11B,
    )[0, 0]
    threshold = calibrate_threshold(calibration, cfg.pfa_target)
    fresh = simulate_sweep_peaks(
        real, cfg.seed, a, [(RadarBeamKind.PBR, powers)],
        [None], 10_000, stream_key=0xF4E54,
    )[0, 0]
    pfa = float(np.mean(fresh > threshold))
    assert 0.008 <= pfa <= 0.012, f"empirical Pfa {pfa:.4f} outside [0.008, 0.012]"
    print(f"\ncriterion 6 PASS: empirical Pfa = {pfa:.4f} in [0.008, 0.012]")


def test_criterion_7_detection_trends():
    """Over >= 2e4 paired trials per cell: Pd is nonincreasing in range
    (3-sigma binomial tolerance), PBR detects at least as well as ZFR at
    every range, and RCR = 6 dB at least as well as RCR = 3 dB."""
    started = time.monotonic()
    cfg = desk_preset()
    assert cfg.n_detection_trials >= 20_000
    result = run_detection_experiment(cfg)
    assert not result.failures, f"infeasible cells: {result.failures}"
    n = cfg.n_detection_trials

    def sigma(p1, p2):
        return np.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)

    checks = 0
    for rcr_db in cfg.detection_rcr_db:
        for beam in ("pbr", "zfr"):
            for allocator in ("uniform", "maxmin"):
                pd = [
                    float(result.column(
                        "pd", range_m=r, beam=beam, allocator=allocator, rcr_db=rcr_db
                    )[0])
                    for r in cfg.detection_ranges_m
                ]
                for p_near, p_far in zip(pd, pd[1:]):
                    assert p_far <= p_near + 3.0 * sigma(p_near, p_far), (
                        f"Pd not nonincreasing for {beam}/{allocator}/{rcr_db}dB: {pd}"
                    )
                    checks += 1
    for rcr_db in cfg.detection_rcr_db:
        for allocator in ("uniform", "maxmin"):
            for r in cfg.detection_ranges_m:
                p_pbr = float(result.column(
                    "pd", range_m=r, beam="pbr", allocator=allocator, rcr_db=rcr_db)[0])
                p_zfr = float(result.column(
                    "pd", range_m=r, beam="zfr", allocator=allocator, rcr_db=rcr_db)[0])
                assert p_pbr >= p_zfr - 3.0 * sigma(p_pbr, p_zfr), (
                    f"PBR < ZFR at {r}m/{allocator}/{rcr_db}dB"
                )
                checks += 1
    for beam in ("pbr", "zfr"):
        for allocator in ("uniform", "maxmin"):
            for r in cfg.detection_ranges_m:
                p_hi = float(result.column(
                    "pd", range_m=r, beam=beam, allocator=allocator, rcr_db=6.0)[0])
                p_lo = float(result.column(
                    "pd", range_m=r, beam=beam, allocator=allocator, rcr_db=3.0)[0])
                assert p_hi >= p_lo - 3.0 * sigma(p_hi, p_lo), (
                    f"Pd(6dB) < Pd(3dB) at {r}m/{beam}/{allocator}"
                )
                checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"runtime {elapsed:.0f}s exceeds the 15-minute target"
    print(
        f"\ncriterion 7 PASS: {checks} trend checks hold at 3-sigma over "
        f"{n} paired trials per cell in {elapsed:.0f}s"
    )


def test_criterion_8_structural_exactness():
    """Exact identities: steering norms, correlation traces, Rice limits,
    estimator-specialization agreement, GLRT phase invariance, and
    bit-identical fixed-seed reruns."""
    geom = ArrayGeometry.half_wavelength(4, 4, 0.1)
    rng = np.random.default_rng(0xA8)

    # Steering-vector identities.
    for _ in range(10):
        d = Direction(azimuth=rng.uniform(-np.pi, np.pi), elevation=rng.uniform(0, np.pi))
        a = steering_vector(geom, d)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)
        assert np.isclose(np.linalg.norm(a) ** 2, 16.0, rtol=1e-14)

    # Correlation trace across models, and the Rice limits.
    direction = Direction(azimuth=0.5, elevation=1.3)
    for kind, kf in (
        (ChannelModelKind.RAYLEIGH, 0.0),
        (ChannelModelKind.LOS, 0.0),
        (ChannelModelKind.RICE, 3.0),
    ):
        stats = ChannelStats(beta=0.6, kind=kind, angles=direction, k_factor=kf)
        assert np.isclose(np.trace(hbar_matrix(stats, geom)).real, 0.6 * 16, rtol=1e-12)
    rice0 = ChannelStats(beta=0.6, kind=ChannelModelKind.RICE, angles=direction, k_factor=0.0)
    ray = ChannelStats(beta=0.6, kind=ChannelModelKind.RAYLEIGH, angles=direction)
    np.testing.assert_allclose(hbar_matrix(rice0, geom), hbar_matrix(ray, geom), atol=1e-15)
    rice_inf = ChannelStats(
        beta=0.6, kind=ChannelModelKind.RICE, angles=direction, k_factor=1e6
    )
    a = steering_vector(geom, direction)
    los_ref = 0.6 * np.outer(a, a.conj())
    err = np.linalg.norm(hbar_matrix(rice_inf, geom) - los_ref) / np.linalg.norm(los_ref)
    assert err < 1e-5

    # PM and LMMSE rate specializations coincide for Rayleigh statistics
    # (scalar estimator filters), here in the near-noiseless pilot limit.
    book = PilotBook.dft(3, 3, power=0.1)
    stats = [
        ChannelStats(beta=b, kind=ChannelModelKind.RAYLEIGH, angles=direction)
        for b in (0.5, 1.0, 2.0)
    ]
    noise_ul = 1e-9
    e_list, _ = lmmse_matrices(book, stats, geom, noise_ul)
    beam = pbr_beam(a)
    per_estimator = {}
    for estimator, e_mats in ((Estimator.PM, None), (Estimator.LMMSE, tuple(e_list))):
        coeffs = build_rate_coefficients(
            stats, geom, book, estimator, beam, noise_ul, 1e-3,
            bandwidth=1e6, tau_c=200, e_matrices=e_mats,
        )
        per_estimator[estimator] = sinr(coeffs, (np.full(3, 0.1), 0.05))
    np.testing.assert_allclose(
        per_estimator[Estimator.PM], per_estimator[Estimator.LMMSE], rtol=1e-6
    )

    # GLRT unit-phase invariance.
    frame = OfdmFrameConfig(n_symbols=4, n_subcarriers=64, subcarrier_spacing=30e3)
    grid = DelayDopplerGrid.natural(frame)
    u = rng.standard_normal((4, 4, 64)) + 1j * rng.standard_normal((4, 4, 64))
    y = rng.standard_normal((4, 4, 64)) + 1j * rng.standard_normal((4, 4, 64))
    out1 = glrt_statistic(u, y, grid, frame)
    out2 = glrt_statistic(u, np.exp(1j * 0.917) * y, grid, frame)
    np.testing.assert_allclose(out1.statistic_map, out2.statistic_map, rtol=1e-12)

    # Fixed-seed bit-identical reruns of both experiment drivers.
    cfg = desk_preset().replace(n_scenarios=2)
    assert run_rate_experiment(cfg).rows == run_rate_experiment(cfg).rows
    det_cfg = desk_preset().replace(
        detection_ranges_m=(250.0,), detection_rcr_db=(3.0,),
        pfa_target=0.05, n_detection_trials=200,
    )
    assert run_detection_experiment(det_cfg).rows == run_detection_experiment(det_cfg).rows

    print("\ncriterion 8 PASS: structural identities, limits, specializations, "
          "phase invariance and fixed-seed reruns all exact")
