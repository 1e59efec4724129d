import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jcsim

from jcsim.beamform import RadarBeamKind
from jcsim.channel import SPEED_OF_LIGHT, target_alpha
from jcsim.harness.cli import main as cli_main
from jcsim.harness.config import (
    ConfigError,
    ScenarioConfig,
    desk_preset,
    dump_config,
    load_config,
    table1_preset,
)
from jcsim.harness.experiments import (
    _TargetParams,
    binomial_ci,
    empirical_cdf,
    run_detection_experiment,
    run_rate_experiment,
    simulate_peak_statistics,
)
from jcsim.harness.scenario import (
    draw_estimates,
    draw_scan_direction,
    noise_variance,
    realize_scenario,
)
from jcsim.poweralloc import uniform_allocate
from jcsim.radar import DelayDopplerGrid
from oracles import antenna_domain_peaks, single_shot_estimates_oracle


def small_rate_cfg(**overrides):
    return desk_preset().replace(n_scenarios=3, **overrides)


def small_detect_cfg(**overrides):
    changes = {
        "detection_ranges_m": (250.0,),
        "detection_rcr_db": (3.0,),
        "pfa_target": 0.05,
        "n_detection_trials": 200,
    }
    changes.update(overrides)
    return desk_preset().replace(**changes)


class TestNoiseVariance:
    def test_reference_point(self):
        sigma2 = noise_variance(15.36e6, 9.0, -174.0)
        assert np.isclose(sigma2, 10.0**-16.5 * 15.36e6, rtol=1e-12)

    def test_unit_bandwidth_zero_figure(self):
        assert np.isclose(noise_variance(1.0, 0.0, -174.0), 10.0**-17.4, rtol=1e-12)

    def test_linearity_in_bandwidth(self):
        assert np.isclose(
            noise_variance(2e6, 9.0), 2.0 * noise_variance(1e6, 9.0), rtol=1e-12
        )

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            noise_variance(0.0, 9.0)


class TestEmpiricalCdf:
    def test_single_sample(self):
        values, probs = empirical_cdf([5.0])
        np.testing.assert_allclose(values, [5.0])
        np.testing.assert_allclose(probs, [1.0])

    def test_four_samples(self):
        values, probs = empirical_cdf([3, 1, 4, 2])
        np.testing.assert_allclose(values, [1, 2, 3, 4])
        np.testing.assert_allclose(probs, [0.25, 0.5, 0.75, 1.0])

    def test_uniform_samples_kolmogorov_bound(self):
        rng = np.random.default_rng(0)
        values, probs = empirical_cdf(rng.uniform(size=10_000))
        assert np.max(np.abs(values - probs)) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_binomial_ci_brackets_estimate(self):
        lo, hi = binomial_ci(0.3, 1000)
        assert 0.0 <= lo < 0.3 < hi <= 1.0


class TestConfig:
    def test_round_trip(self):
        cfg = desk_preset()
        assert load_config(dump_config(cfg)) == cfg
        assert load_config(dump_config(cfg)).config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            load_config('{"no_such_knob": 1}')

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(channel_model="nakagami")
        with pytest.raises(ConfigError):
            ScenarioConfig(estimator="ml")
        with pytest.raises(ConfigError):
            ScenarioConfig(pfa_target=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(tau_p=300)

    def test_presets_differ(self):
        desk, table = desk_preset(), table1_preset()
        assert desk.n_users == 4 and table.n_users == 10
        assert table.n_subcarriers == 512
        assert desk.config_hash() != table.config_hash()

    def test_rho_star_defaults_to_linear_rcr(self):
        cfg = ScenarioConfig(rcr_db=3.0)
        assert np.isclose(cfg.effective_rho_star, 10.0**0.3)
        assert ScenarioConfig(rho_star=0.5).effective_rho_star == 0.5

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            load_config("{not json")
        with pytest.raises(ConfigError):
            load_config("[1, 2]")


class TestScenarioRealization:
    def test_user_statistics_and_book(self):
        cfg = desk_preset()
        real = realize_scenario(cfg, np.random.default_rng(0))
        assert len(real.stats) == cfg.n_users
        assert real.book.tau_p == cfg.effective_tau_p
        assert real.geom.n_elements == cfg.n_y * cfg.n_z
        assert all(s.beta > 0 for s in real.stats)

    def test_scan_direction_inside_sector(self):
        cfg = desk_preset()
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = draw_scan_direction(cfg, rng)
            assert np.deg2rad(-60) <= d.azimuth <= np.deg2rad(60)
            assert np.deg2rad(10) <= d.elevation <= np.deg2rad(80)

    @pytest.mark.parametrize("model", ["rayleigh", "los", "rice"])
    @pytest.mark.parametrize("estimator", ["pm", "lmmse"])
    def test_draw_estimates_replays_single_shot_draws(self, model, estimator):
        """A batch of one draws what per-user draws and one pilot-noise matrix drew."""
        cfg = desk_preset().replace(channel_model=model, estimator=estimator)
        real = realize_scenario(cfg, np.random.default_rng([cfg.seed, 0x51]))
        rng, twin = np.random.default_rng(52), np.random.default_rng(52)
        statistics, estimates = draw_estimates(real, rng)
        ref = single_shot_estimates_oracle(real, statistics.filters.dense(), twin)
        assert estimates.shape == (cfg.n_users, real.geom.n_elements)
        np.testing.assert_allclose(estimates, ref, rtol=1e-12, atol=0)
        assert rng.uniform() == twin.uniform()  # both streams consumed alike


class TestRateExperiment:
    def test_runs_without_scipy(self, tmp_path):
        """``import jcsim`` and a desk scenario with scipy blocked from import."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import jcsim\n"
            "from jcsim.harness.config import desk_preset\n"
            "from jcsim.harness.experiments import run_rate_experiment\n"
            "result = run_rate_experiment(desk_preset().replace(n_scenarios=1))\n"
            "result.write_manifest(sys.argv[1])\n"
            "print(len(result.rows))\n"
        )
        src = str(Path(jcsim.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "m.json")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 0
        assert "scipy" not in json.loads((tmp_path / "m.json").read_text())["versions"]

    def test_zero_scenarios_empty(self):
        result = run_rate_experiment(small_rate_cfg(), n_scenarios=0)
        assert result.rows == [] and result.failures == []

    def test_fixed_seed_bit_identical(self):
        a = run_rate_experiment(small_rate_cfg())
        b = run_rate_experiment(small_rate_cfg())
        assert a.rows == b.rows
        assert a.config_hash == b.config_hash

    def test_row_contents(self):
        cfg = small_rate_cfg()
        result = run_rate_experiment(cfg)
        allocators = {row["allocator"] for row in result.rows}
        assert allocators <= {"uniform", "maxmin"}
        assert all(np.isfinite(row["rate_bps"]) and row["rate_bps"] >= 0 for row in result.rows)
        uniform_rows = [r for r in result.rows if r["allocator"] == "uniform"]
        assert len(uniform_rows) == cfg.n_users * 3

    def test_los_lmmse_zfr_scenario_allocates(self):
        # The LP bisection raised SolverError on this scenario.
        cfg = desk_preset().replace(
            seed=4193937569, n_scenarios=1, channel_model="los", estimator="lmmse", radar_beam="zfr"
        )
        result = run_rate_experiment(cfg)
        assert result.failures == []
        maxmin = [r for r in result.rows if r["allocator"] == "maxmin"]
        assert len(maxmin) == cfg.n_users
        assert all(r["rate_bps"] > 0 for r in maxmin)

    def test_massive_array_scenario(self):
        """N_A = 256 (16 x 16) and K = 32 users, Rice, LMMSE, ZFR."""
        cfg = table1_preset().replace(
            n_y=16, n_z=16, n_users=32, channel_model="rice", estimator="lmmse", radar_beam="zfr"
        )
        result = run_rate_experiment(cfg, n_scenarios=1)
        assert result.failures == []
        assert {r["allocator"] for r in result.rows} == {"uniform", "maxmin"}
        assert len(result.rows) == 2 * 32
        rates = result.column("rate_bps")
        assert np.all(np.isfinite(rates)) and np.all(rates > 0)

    def test_csv_and_manifest_round_trip(self, tmp_path):
        result = run_rate_experiment(small_rate_cfg())
        csv_path = tmp_path / "rates.csv"
        result.write_csv(csv_path)
        result.write_manifest(tmp_path / "rates.manifest.json")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",") == result.fields
        assert len(lines) == len(result.rows) + 1
        manifest = json.loads((tmp_path / "rates.manifest.json").read_text())
        assert manifest["config_hash"] == result.config_hash
        assert manifest["n_rows"] == len(result.rows)


class TestDetectionExperiment:
    def test_fixed_seed_bit_identical(self):
        a = run_detection_experiment(small_detect_cfg())
        b = run_detection_experiment(small_detect_cfg())
        assert a.rows == b.rows

    def test_row_structure(self):
        cfg = small_detect_cfg()
        result = run_detection_experiment(cfg)
        # 1 RCR x 2 beams x 2 allocators x 1 range.
        assert len(result.rows) + len(result.failures) * 1 >= 4
        for row in result.rows:
            assert 0.0 <= row["pd"] <= 1.0
            assert row["ci_low"] <= row["pd"] <= row["ci_high"]
            assert row["n_trials"] == cfg.n_detection_trials

    def test_overwhelming_target_always_detected(self):
        cfg = small_detect_cfg(target_rcs_m2=1e9)
        result = run_detection_experiment(cfg)
        assert all(row["pd"] == 1.0 for row in result.rows)

    def test_range_beyond_cp_rejected(self):
        cfg = small_detect_cfg(detection_ranges_m=(5000.0,))
        with pytest.raises(ConfigError):
            run_detection_experiment(cfg)


class TestScalarSimulatorMatchesAntennaDomain:
    """simulate_peak_statistics against synthesize_tx_grid -> target_echo -> glrt_statistic.

    Desk deployment under pilot reuse (rank-deficient estimates), a target
    weak enough that Pd sits mid-range.  The threshold is the scalar
    simulator's H0 quantile at Pfa 0.1; both Pfa and Pd of the antenna-domain
    chain must agree with the simulator within 3 binomial sigma.
    """

    N_SIM = 8000
    N_ANTENNA = 1000

    @pytest.mark.parametrize("beam_kind", [RadarBeamKind.PBR, RadarBeamKind.ZFR])
    def test_pfa_and_pd_agree(self, beam_kind):
        cfg = desk_preset()
        rng = np.random.default_rng([cfg.seed, 0xE9])
        real = realize_scenario(cfg, rng)
        grid = DelayDopplerGrid.natural(real.frame)
        direction = draw_scan_direction(cfg, rng)
        powers = uniform_allocate(
            cfg.p_dl_w, cfg.rcr_linear, cfg.n_users, cfg.n_subcarriers, cfg.n_symbols
        )
        alpha, delay = target_alpha(345.0, real.geom, 2.5e-4, cfg.carrier_hz)
        doppler = 2.0 * cfg.target_speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
        target = _TargetParams(alpha_mag=abs(alpha), delay=delay, doppler=doppler)

        sim_h0, sim_h1 = simulate_peak_statistics(
            real, cfg, grid, direction, beam_kind, powers, [None, target], self.N_SIM,
            stream_key=0xE9,
        )
        pfa = 0.1
        threshold = np.quantile(sim_h0, 1.0 - pfa, method="higher")
        ant_h0 = antenna_domain_peaks(
            real, grid, direction, beam_kind, powers, None, self.N_ANTENNA, rng
        )
        ant_h1 = antenna_domain_peaks(
            real, grid, direction, beam_kind, powers, target, self.N_ANTENNA, rng
        )

        def var(p, n):
            return p * (1.0 - p) / n

        pfa_ant = np.mean(ant_h0 > threshold)
        sigma = np.sqrt(var(pfa, self.N_ANTENNA) + var(pfa, self.N_SIM))
        assert abs(pfa_ant - pfa) <= 3.0 * sigma, f"antenna-domain Pfa {pfa_ant}"
        pd_sim, pd_ant = np.mean(sim_h1 > threshold), np.mean(ant_h1 > threshold)
        assert 0.2 < pd_sim < 0.8, "target must leave Pd mid-range to be a test"
        sigma = np.sqrt(var(pd_sim, self.N_SIM) + var(pd_ant, self.N_ANTENNA))
        assert abs(pd_ant - pd_sim) <= 3.0 * sigma, f"Pd {pd_sim} simulated, {pd_ant} antenna-domain"


class TestCli:
    def test_rates_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = cli_main(
            ["rates", "--preset", "desk", "--scenarios", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".manifest.json").exists()
        assert "rate rows" in capsys.readouterr().out

    def test_rates_allocator_filter(self, tmp_path):
        out = tmp_path / "rates.csv"
        cli_main(
            [
                "rates", "--preset", "desk", "--scenarios", "1",
                "--allocator", "uniform", "--out", str(out),
            ]
        )
        body = out.read_text().strip().splitlines()[1:]
        assert body and all(",uniform," in line for line in body)

    def test_missing_config_is_config_error(self, tmp_path):
        assert cli_main(["rates", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_config_keys_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"bogus_key": 3}')
        assert cli_main(["rates", "--config", str(path)]) == 2

    def test_allocate_round_trip(self, tmp_path, capsys):
        problem = {
            "signal_gain": [4.0, 6.0],
            "interference": [[0.5, 0.2], [0.3, 0.8]],
            "radar_leakage": [0.1, 0.4],
            "noise_var": 1.0,
            "bandwidth": 1e6,
            "tau_c": 200,
            "tau_p": 2,
            "budget": 1.0,
            "rho_star": 0.5,
            "radar_gain": 4.0,
            "user_gains": [0.5, 0.5],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code = cli_main(["allocate", "--config", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["allocator"] == "maxmin"
        total = sum(report["eta_users"]) + report["eta_radar"]
        assert total <= 1.0 + 1e-9
        assert report["achieved_min_sinr"] > 0

    def test_allocate_infeasible_exit_code(self, tmp_path):
        problem = {
            "signal_gain": [4.0],
            "interference": [[0.5]],
            "radar_leakage": [0.1],
            "noise_var": 1.0,
            "bandwidth": 1e6,
            "tau_c": 200,
            "tau_p": 1,
            "budget": 1.0,
            "rho_star": 1.0,
            "radar_gain": 0.0,
            "user_gains": [1.0],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli_main(["allocate", "--config", str(path)]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_var", 0.0),
            ("rho_star", -0.5),
            ("budget", 0.0),
            ("user_gains", [0.5, 0.5, 0.5]),
            ("interference", [[0.5, 0.2, 0.1]]),
            ("radar_leakage", [0.1, 0.4]),
        ],
    )
    def test_allocate_bad_input_is_config_error(self, tmp_path, key, value):
        problem = {
            "signal_gain": [4.0],
            "interference": [[0.5]],
            "radar_leakage": [0.1],
            "noise_var": 1.0,
            "bandwidth": 1e6,
            "tau_c": 200,
            "tau_p": 1,
            "budget": 1.0,
            "rho_star": 0.5,
            "radar_gain": 4.0,
            "user_gains": [0.5],
            key: value,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli_main(["allocate", "--config", str(path)]) == 2

    def test_allocate_uniform_split(self, tmp_path, capsys):
        problem = {
            "signal_gain": [4.0, 6.0, 5.0],
            "interference": [[0.5, 0.2, 0.1], [0.3, 0.8, 0.2], [0.1, 0.1, 0.4]],
            "radar_leakage": [0.1, 0.4, 0.2],
            "noise_var": 1.0,
            "bandwidth": 1e6,
            "tau_c": 200,
            "tau_p": 3,
            "budget": 0.7,
            "rho_star": 1.5,
            "radar_gain": 4.0,
            "user_gains": [0.5, 0.5, 0.2],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        assert cli_main(["allocate", "--config", str(path), "--allocator", "uniform"]) == 0
        report = json.loads(capsys.readouterr().out)
        users = np.asarray(report["eta_users"])
        assert report["allocator"] == "uniform"
        assert np.all(users == users[0])
        assert np.isclose(report["eta_radar"] / users.sum(), 1.5, rtol=1e-12)
        assert abs(users.sum() + report["eta_radar"] - 0.7) <= 1e-12

    def test_allocate_requires_config(self):
        assert cli_main(["allocate"]) == 2

    def test_validate_passes_at_modest_draws(self, capsys):
        code = cli_main(["validate", "--preset", "desk", "--draws", "20000", "--rtol", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
