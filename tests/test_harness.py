import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import jcsim

from jcsim.array import steering_vector
from jcsim.beamform import DegenerateDirectionError, RadarBeamKind
from jcsim.channel import SPEED_OF_LIGHT, target_alpha
from jcsim.estimation import EstimationError
from jcsim.harness import experiments, scenario
from jcsim.harness.cli import _build_parser
from jcsim.harness.cli import main as cli_main
from jcsim.harness.config import (
    ConfigError,
    ScenarioConfig,
    desk_preset,
    dump_config,
    hash_config,
    load_config,
    table1_preset,
)
from jcsim.harness.experiments import (
    ExperimentResult,
    _cells,
    _TargetParams,
    binomial_ci,
    empirical_cdf,
    run_detection_experiment,
    run_rate_experiment,
    simulate_sweep_peaks,
)
from jcsim.harness.scenario import (
    draw_estimates,
    draw_scan_direction,
    noise_variance,
    realize_scenario,
)
from jcsim.lowrank import IdentityPlusLowRank
from jcsim.poweralloc import AllocationInfeasibleError, uniform_allocate
from jcsim.radar import DelayDopplerGrid
from oracles import antenna_domain_peaks, cell_peaks_oracle, single_shot_estimates_oracle


def small_rate_cfg(**overrides):
    return desk_preset().replace(n_scenarios=3, **overrides)


def sweep_cells(cfg, real, a, estimates):
    """The detection sweep's (RadarBeamKind, PowerAllocation) cells and failures."""
    allocated, failures = _cells(
        cfg, real, a, estimates,
        [RadarBeamKind.PBR, RadarBeamKind.ZFR], cfg.detection_rcr_db,
    )
    return [(kind, powers) for (_, kind, _), _, powers in allocated], failures


# Deployments every run rejects: a certain LoS under rice (no finite
# K-factor), a user at the array itself, or at its foot under rice (no LoS
# probability at zero distance), and a ZFR beam with no more antennas than
# users.  Each is a dict of changes to a preset.
DEGENERATE_DEPLOYMENTS = [
    pytest.param(
        {"channel_model": "rice", "p_los_cap": 1.0,
         "user_x_range_m": [1.0, 10.0], "user_y_range_m": [1.0, 10.0]},
        id="rice_certain_los",
    ),
    pytest.param(
        {"user_x_range_m": [0, 0], "user_y_range_m": [0, 0], "user_height_m": 15.0},
        id="user_at_the_array",
    ),
    pytest.param(
        {"user_x_range_m": [0, 0], "user_y_range_m": [0, 0], "channel_model": "rice"},
        id="rice_user_at_the_foot",
    ),
    pytest.param({"n_y": 2, "n_z": 2, "radar_beam": "zfr"}, id="zfr_few_antennas"),
]


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

    @pytest.mark.parametrize("p_hat, n", [(0.3, 1000), (0.0, 200), (1.0, 200), (0.3, 10)])
    def test_binomial_ci_brackets_estimate(self, p_hat, n):
        """The Wilson interval contains p_hat and has width even at p_hat = 0 and 1."""
        lo, hi = binomial_ci(p_hat, n)
        assert type(lo) is float and type(hi) is float
        assert 0.0 <= lo <= p_hat <= hi <= 1.0 and hi > lo
        if (p_hat, n) == (0.3, 10):  # 3 successes in 10: the Wilson interval [0.1078, 0.6032]
            assert (lo, hi) == pytest.approx((0.10778928748621, 0.60322678002043), rel=1e-12)


class TestConfig:
    def test_round_trip(self):
        cfg = desk_preset()
        assert load_config(dump_config(cfg)) == cfg
        assert hash_config(load_config(dump_config(cfg)).to_dict()) == hash_config(cfg.to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            load_config('{"no_such_knob": 1}')

    @pytest.mark.parametrize(
        "data",
        [
            {"user_x_range_m": 10},
            {"n_users": "4"},
            {"n_users": 4.0},
            {"detection_ranges_m": ["150"]},
            {"target_on_grid": 1},
            {"rho_star": "0.5"},
            {"channel_model": 1},
        ],
    )
    def test_wrong_types_rejected(self, data):
        with pytest.raises(ConfigError, match=f"^{next(iter(data))} must be"):
            ScenarioConfig.from_dict(data)

    def test_numbers_fit_float_fields_and_none_fits_optional_ones(self):
        cfg = ScenarioConfig.from_dict({"carrier_hz": 3_000_000_000, "rho_star": None, "tau_p": 2})
        assert cfg.carrier_hz == 3e9 and cfg.rho_star is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(channel_model="nakagami")
        with pytest.raises(ConfigError):
            ScenarioConfig(estimator="ml")
        with pytest.raises(ConfigError):
            ScenarioConfig(pfa_target=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(tau_p=300)

    @pytest.mark.parametrize(
        "make, digest",
        [
            (desk_preset, "01873d8125a79436"),
            (table1_preset, "038154da2c3262c5"),
            (lambda: ScenarioConfig(seed=7, rcr_db=6.0), "31f149e8549ca70b"),
        ],
    )
    def test_dict_and_hash_are_pinned(self, make, digest):
        """to_dict matches dataclasses.asdict with tuples as lists; the hash is pinned."""
        cfg = make()
        reference = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(cfg).items()
        }
        assert json.dumps(cfg.to_dict()) == json.dumps(reference)
        assert hash_config(cfg.to_dict()) == digest

    def test_presets_differ(self):
        desk, table = desk_preset(), table1_preset()
        assert desk.n_users == 4 and table.n_users == 10
        assert table.n_subcarriers == 512
        assert hash_config(desk.to_dict()) != hash_config(table.to_dict())

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
        estimates = draw_estimates(real, rng)
        ref = single_shot_estimates_oracle(real, real.statistics.filters.dense(), twin)
        assert estimates.shape == (cfg.n_users, real.geom.n_elements)
        np.testing.assert_allclose(estimates, ref, rtol=1e-12, atol=0)
        assert rng.uniform() == twin.uniform()  # both streams consumed alike


# run_rate_experiment(preset.replace(n_scenarios=3, channel_model=m, estimator=e,
# radar_beam=b)) at the preset's seed: per scenario, each user's rate under the uniform
# split, then the balanced max-min rate that every user gets.
PINNED_RATES = {
    ("desk", "rice", "lmmse", "zfr"): [
        [1240688.2146971198, 2791368.2195077073, 1628265.5728297422, 639152.9384144414,
         1346740.915845877],
        [2089893.6132828435, 1127176.3562526577, 1940940.0408487173, 1985902.4580917014,
         2108918.560151334],
        [1508704.3913185901, 2041366.451823797, 2892809.572257084, 885330.0291595039,
         1695022.1930196765],
    ],
    ("desk", "rayleigh", "pm", "pbr"): [
        [759097.2084150728, 1228436.428913513, 1045356.904787342, 93235.5700412752,
         653735.104457464],
        [1187275.1874435472, 383795.26425208634, 341465.70310444885, 1178154.3906842899,
         958833.481957908],
        [433319.4192403348, 1178297.8031852753, 1166548.7212835436, 383229.8185643166,
         1076708.1855143006],
    ],
    ("table1", "rice", "lmmse", "zfr"): [
        [28726274.005485762, 40488904.35730499, 34110225.91655508, 31157514.672943536,
         22656336.419219352, 27262417.564303547, 30716390.083719183, 28709978.11553983,
         22801184.38159698, 44660703.88535572, 27864361.274366185],
        [46667430.55678684, 19491761.145141434, 29547529.86038571, 37906609.84199659,
         18750648.837151743, 31769070.882044178, 21697202.737409327, 27992196.24249962,
         23694213.244455572, 18464013.595795244, 25051451.32238206],
        [29382085.478585172, 18526348.784355123, 42843828.325783, 31555390.958290882,
         40739496.49387357, 30030537.29389272, 45394733.0094562, 19193114.196305346,
         62240862.270314336, 38381852.9978003, 21714167.97126639],
    ],
    ("table1", "rayleigh", "pm", "pbr"): [
        [30745583.462569974, 30892874.96551307, 30878565.8531502, 26911688.373754565,
         30765782.30036985, 30211681.29103299, 30864264.495455198, 30807902.51138296,
         30830231.59515102, 30886180.7675158, 49207394.593492426],
        [30890926.344231326, 30785569.285064444, 30657486.583278567, 30882802.80511219,
         30863995.539506212, 30735070.752151053, 28072557.328318123, 30841254.14596077,
         30299387.682495587, 29146452.766274136, 49388155.50973258],
        [30834338.08988518, 30846484.737046715, 30852716.46628433, 30616172.11055888,
         30893254.091548868, 30876844.76954051, 30850645.024414487, 30894621.00776282,
         30891741.26178498, 30602760.02621225, 49958529.72006268],
    ],
}


class TestRateExperiment:
    @pytest.mark.parametrize("preset, model, estimator, beam", list(PINNED_RATES))
    def test_fixed_seed_rate_rows_are_pinned(self, preset, model, estimator, beam):
        """Any change to the rate chain's draws, or to its arithmetic beyond rounding, moves these."""
        cfg = {"desk": desk_preset, "table1": table1_preset}[preset]().replace(
            n_scenarios=3, channel_model=model, estimator=estimator, radar_beam=beam
        )
        result = run_rate_experiment(cfg)
        assert result.failures == []
        expected = []
        for trial, (*uniform, balanced) in enumerate(PINNED_RATES[preset, model, estimator, beam]):
            expected += [(trial, user, "uniform", rate) for user, rate in enumerate(uniform)]
            expected += [(trial, user, "maxmin", balanced) for user in range(len(uniform))]
        keys = [(row["trial"], row["user"], row["allocator"]) for row in result.rows]
        assert keys == [tuple(key) for *key, _ in expected]
        for row, (*_, rate) in zip(result.rows, expected):
            assert row["rate_bps"] == pytest.approx(rate, rel=1e-12, abs=0)

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
        result = run_rate_experiment(small_rate_cfg().replace(n_scenarios=0))
        assert result.rows == [] and result.failures == []

    def test_fixed_seed_bit_identical(self):
        a = run_rate_experiment(small_rate_cfg())
        b = run_rate_experiment(small_rate_cfg())
        assert a.rows == b.rows
        assert hash_config(a.config) == hash_config(b.config)

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
            n_y=16, n_z=16, n_users=32, channel_model="rice", estimator="lmmse", radar_beam="zfr",
            n_scenarios=1,
        )
        result = run_rate_experiment(cfg)
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
        assert manifest["config_hash"] == hash_config(result.config)
        assert manifest["n_rows"] == len(result.rows)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_experiment_result_rejects_a_non_finite_value(value):
    with pytest.raises(ArithmeticError, match="rate_bps"):
        ExperimentResult(
            kind="rates", rows=[{"trial": 0, "rate_bps": value}], fields=["trial", "rate_bps"],
            config={},
        )


@pytest.mark.parametrize(
    "driver, cfg, builds",
    [
        (run_detection_experiment, small_detect_cfg(), 1),
        (run_rate_experiment, small_rate_cfg(), 3),
    ],
    ids=["detect", "rates"],
)
def test_training_statistics_built_once_per_deployment_on_the_calling_thread(
    monkeypatch, driver, cfg, builds
):
    """The estimates, the cells and the sweep's workers all read ``real.statistics``."""
    threads = []
    original = scenario.training_statistics

    def counted(*args):
        threads.append(threading.current_thread())
        return original(*args)

    monkeypatch.setattr(scenario, "training_statistics", counted)
    monkeypatch.setattr(jcsim.rate, "training_statistics", counted)
    driver(cfg)
    assert threads == [threading.current_thread()] * builds


@pytest.mark.parametrize(
    "run, cfg, responses",
    [
        pytest.param(
            run_rate_experiment,
            desk_preset().replace(
                channel_model="rice", estimator="lmmse", radar_beam=beam, n_scenarios=3
            ),
            2 * 3,
            id=f"rates-{beam}",
        )
        for beam in ("pbr", "zfr")
    ] + [
        pytest.param(
            run_detection_experiment,
            desk_preset().replace(
                n_detection_trials=32, pfa_target=0.75, detection_rcr_db=(3.0,)
            ),
            2,
            id="detect",
        ),
    ],
)
def test_two_array_responses_per_deployment(monkeypatch, run, cfg, responses):
    """A deployment evaluates the array response twice: once for its users' stack of
    steering vectors and once for the radar direction's, which every beam, the radar
    SIR gains and the sweep's echo terms share."""
    calls = []
    original = jcsim.array._response

    def counted(*args):
        calls.append(1)  # the sweep's draws run on worker threads: append is atomic
        return original(*args)

    jcsim.array._steering_stack.cache_clear()
    monkeypatch.setattr(jcsim.array, "_response", counted)
    run(cfg)
    assert len(calls) == responses


@pytest.mark.parametrize(
    "run, cfg",
    [
        pytest.param(
            run_rate_experiment,
            table1_preset().replace(
                channel_model="rice", estimator="lmmse", radar_beam="zfr", n_scenarios=1
            ),
            id="rates-table1",
        ),
        pytest.param(
            run_detection_experiment,
            desk_preset().replace(
                n_detection_trials=32, pfa_target=0.75, detection_rcr_db=(3.0,)
            ),
            id="detect-desk",
        ),
    ],
)
def test_filters_form_their_adjoint_once_per_deployment(monkeypatch, run, cfg):
    """The scenario's estimates, the covariances C_k, each beam's mean gains and every
    sweep batch's estimates read one adjoint stack A^H of the deployment's filters."""
    calls = []
    form = vars(IdentityPlusLowRank)["H"].func

    def counted(self):
        calls.append(1)  # the sweep's draws run on worker threads: append is atomic
        return form(self)

    adjoint = functools.cached_property(counted)
    adjoint.__set_name__(IdentityPlusLowRank, "H")
    monkeypatch.setattr(IdentityPlusLowRank, "H", adjoint)
    run(cfg)
    assert len(calls) == 1


# run_detection_experiment(desk_preset().replace(n_detection_trials=200)), 200 trials a
# range: each cell in row order with its threshold and its Pd at 150, 250, 300 and 345 m.
PINNED_DESK_CELLS = [
    ((3.0, "pbr", "uniform"), 5.088103174686316e-14, (1.0, 1.0, 1.0, 1.0)),
    ((3.0, "pbr", "maxmin"), 5.0486391518677214e-14, (1.0, 0.585, 0.29, 0.065)),
    ((3.0, "zfr", "uniform"), 5.0567624028777884e-14, (1.0, 1.0, 1.0, 1.0)),
    ((3.0, "zfr", "maxmin"), 5.064524420242105e-14, (1.0, 0.545, 0.24, 0.05)),
    ((6.0, "pbr", "uniform"), 8.450234213010343e-14, (1.0, 1.0, 1.0, 1.0)),
    ((6.0, "pbr", "maxmin"), 8.44871592256186e-14, (1.0, 1.0, 0.865, 0.33)),
    ((6.0, "zfr", "uniform"), 8.512455171625022e-14, (1.0, 1.0, 1.0, 1.0)),
    ((6.0, "zfr", "maxmin"), 8.406797037764481e-14, (1.0, 1.0, 0.85, 0.265)),
]
# The (ci_low, ci_high) of each pinned Pd at 200 trials.
PINNED_DESK_CI = {
    0.05: (0.02738234902864498, 0.08957905629784384),
    0.065: (0.03837598764975974, 0.10802003749917943),
    0.24: (0.18606526852024677, 0.3037346545572801),
    0.265: (0.20868060011609973, 0.33017702266551113),
    0.29: (0.23153926891257817, 0.3563760535731166),
    0.33: (0.26857320614303304, 0.3978344358691961),
    0.545: (0.47578485036961143, 0.6125190090977397),
    0.585: (0.5157378707263818, 0.6510583082675035),
    0.85: (0.7939430617334483, 0.892864734123727),
    0.865: (0.8107074954488286, 0.9055349202307972),
    1.0: (0.9811539940816791, 1.0),
}


class TestDetectionExperiment:
    def test_fixed_seed_desk_rows_are_pinned(self):
        """Any change to the detection streams or their use moves these rows.

        Pd and its interval are exact; BLAS rounding moves a threshold by about 1e-16.
        """
        cfg = desk_preset().replace(n_detection_trials=200)
        rows = run_detection_experiment(cfg).rows
        expected = [
            (cell, threshold, r, pd)
            for cell, threshold, pds in PINNED_DESK_CELLS
            for r, pd in zip(cfg.detection_ranges_m, pds)
        ]
        assert len(rows) == len(expected)
        for row, ((rcr_db, beam, allocator), threshold, r, pd) in zip(rows, expected):
            assert (row["rcr_db"], row["beam"], row["allocator"], row["range_m"]) == (
                rcr_db, beam, allocator, r
            )
            assert (row["pd"], row["n_trials"]) == (pd, 200)
            assert (row["ci_low"], row["ci_high"]) == PINNED_DESK_CI[pd]
            assert row["threshold"] == pytest.approx(threshold, rel=1e-12, abs=0)

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

    def test_targets_on_the_grid_take_the_nearest_grid_delay_and_doppler(self, monkeypatch):
        passes = []
        original = experiments._SweepPass

        def recorded(*args):
            passes.append(args)
            return original(*args)

        monkeypatch.setattr(experiments, "_SweepPass", recorded)
        cfg = small_detect_cfg(
            detection_ranges_m=(150.0, 250.0), n_detection_trials=20, pfa_target=0.5
        )
        run_detection_experiment(cfg)
        run_detection_experiment(cfg.replace(target_on_grid=True))
        # Each call builds an H0 and then an H1 pass: (real, seed, a, cells,
        # targets, n_trials, stream).
        grid = DelayDopplerGrid.natural(passes[1][0].frame)
        free, snapped = passes[1][4], passes[3][4]
        assert not set(t.delay for t in free) & set(grid.delays)
        for off, on in zip(free, snapped, strict=True):
            assert on.delay == grid.delays[np.argmin(np.abs(grid.delays - off.delay))]
            assert on.doppler == grid.dopplers[np.argmin(np.abs(grid.dopplers - off.doppler))]
            assert on.alpha_mag == off.alpha_mag

    def test_range_beyond_cp_rejected(self):
        cfg = small_detect_cfg(detection_ranges_m=(5000.0,))
        with pytest.raises(ConfigError):
            run_detection_experiment(cfg)

    def test_degenerate_overrides_rejected(self):
        with pytest.raises(ConfigError):
            run_detection_experiment(small_detect_cfg().replace(n_detection_trials=0))
        with pytest.raises(ConfigError):
            run_detection_experiment(small_detect_cfg().replace(detection_ranges_m=()))

    @pytest.mark.parametrize(
        "rho_star, tight",
        [
            pytest.param(0.5, [0.5] * 4, id="0.5"),
            pytest.param(None, [10**0.3] * 2 + [10**0.6] * 2, id="None"),
        ],
    )
    def test_rho_star_is_every_max_min_sir(self, monkeypatch, rho_star, tight):
        """Each max-min cell's radar SIR is tight at cfg.rho_star, else at the cell's own RCR."""
        allocations = []
        original = experiments.max_min_allocate

        def recorded(coeffs, sir, budget, rho_star):
            powers = original(coeffs, sir, budget, rho_star)
            allocations.append((sir, powers))
            return powers

        monkeypatch.setattr(experiments, "max_min_allocate", recorded)
        cfg = small_detect_cfg(
            detection_rcr_db=(3.0, 6.0), rho_star=rho_star, n_detection_trials=20, pfa_target=0.5
        )
        result = run_detection_experiment(cfg)
        assert len(allocations) == 4 and result.failures == []
        # RCRs outermost, then the PBR and ZFR beams.
        for (sir, powers), rho in zip(allocations, tight):
            achieved = powers.eta_radar * sir.radar_gain / (sir.user_gains @ powers.eta_users)
            assert achieved == pytest.approx(rho, rel=1e-9)

    def test_rate_coefficients_once_per_beam(self, monkeypatch):
        """Three RCRs share each beam's coefficients: two builds, not six."""
        calls = []
        original = experiments.rate_coefficients

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "rate_coefficients", counted)
        cfg = small_detect_cfg(
            detection_rcr_db=(0.0, 3.0, 6.0), n_detection_trials=20, pfa_target=0.5
        )
        result = run_detection_experiment(cfg)
        cells = {(r["rcr_db"], r["beam"], r["allocator"]) for r in result.rows}
        assert len(cells) + len(result.failures) == 12
        assert len(calls) == 2

    @pytest.mark.parametrize("rcr_db", [(3.0,), (3.0, 6.0)])
    def test_one_draw_per_batch_whatever_the_cells(self, monkeypatch, rcr_db):
        """Channels and QPSK symbols are drawn once per batch and stream, not per cell."""
        calls = {"draw_channels": [], "qpsk_indices": []}

        def counted(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name].append(1)  # draws run on worker threads: append is atomic
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiments, name, counted(name))
        cfg = small_detect_cfg(detection_rcr_db=rcr_db, n_detection_trials=300, pfa_target=0.25)
        result = run_detection_experiment(cfg)
        cells = {(r["rcr_db"], r["beam"], r["allocator"]) for r in result.rows}
        assert len(cells) + len(result.failures) == 4 * len(rcr_db)
        # H0 on max(300, 100 / Pfa) = 400 trials and H1 on 300, in batches of 256.
        batches = math.ceil(400 / 256) + math.ceil(300 / 256)
        assert {name: len(c) for name, c in calls.items()} == {
            "draw_channels": batches, "qpsk_indices": batches
        }

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (3, 3), (64, experiments.MAX_WORKERS)])
    def test_one_worker_per_usable_cpu_up_to_the_cap(self, monkeypatch, cpus, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert experiments._workers() == workers

    @pytest.mark.parametrize("cpus, workers", [(None, 1), (3, 3), (64, experiments.MAX_WORKERS)])
    def test_workers_fall_back_to_the_cpu_count_without_affinity(self, monkeypatch, cpus, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert experiments._workers() == workers

    @pytest.mark.parametrize("where", ["block", "draw"])
    def test_worker_exception_surfaces_and_no_thread_outlives_the_call(self, monkeypatch, where):
        """A DegenerateDirectionError in a trial block or a draw re-raises in the caller."""
        caller, raised_on = threading.current_thread(), []
        name = "beam_set" if where == "block" else "draw_channels"
        original = getattr(experiments, name)

        def failing(*args):
            # Trial blocks take a stack of estimates; the reference allocation takes one set.
            if where == "draw" or np.ndim(args[2]) == 3:
                raised_on.append(threading.current_thread())
                raise DegenerateDirectionError("injected")
            return original(*args)

        monkeypatch.setattr(experiments, name, failing)
        baseline = threading.active_count()
        with pytest.raises(DegenerateDirectionError, match="injected"):
            run_detection_experiment(small_detect_cfg())
        assert raised_on and caller not in raised_on
        assert threading.active_count() == baseline


@pytest.mark.parametrize("shape", [(1,), (3, 5), (7, 14, 64)])
def test_normals_drawn_into_a_buffer_equal_the_plain_draws(shape):
    """standard_normal(out=) on each half of one float64 buffer, as a batch draws its noise,
    gives the values and the generator state of two plain draws."""
    for seed in range(6):
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        out = np.full((2, *shape), np.nan)
        for part in out:
            ours.standard_normal(out=part)
        np.testing.assert_array_equal(out[0], reference.standard_normal(shape))
        np.testing.assert_array_equal(out[1], reference.standard_normal(shape))
        np.testing.assert_array_equal(ours.uniform(size=5), reference.uniform(size=5))


class TestKeptWorkspaces:
    """Work buffers that blocks and batches keep between sweep calls (``experiments._kept``)."""

    @staticmethod
    def kept():
        return [ws for free in experiments._kept.values() for ws in free]

    @staticmethod
    def nbytes(workspaces):
        return sum(buf.nbytes for ws in workspaces for buf in ws.values())

    def test_poisoned_buffers_give_the_results_of_a_cold_call(self, monkeypatch):
        """After kept buffers are filled with NaN, a call's peaks and rows equal a cold call's.

        On two workers, with one-block batches of 16 trials and blocks slowed
        down, the next draws run while a batch's blocks wait: if the batch's
        buffers went back before its blocks finished, a draw would overwrite them.
        """
        cfg = small_detect_cfg(n_detection_trials=60, pfa_target=0.5)
        real = realize_scenario(cfg, np.random.default_rng(11))
        a = steering_vector(real.geom, draw_scan_direction(cfg, np.random.default_rng(12)))
        estimates = draw_estimates(real, np.random.default_rng(13))
        cells, _ = sweep_cells(cfg, real, a, estimates)
        alpha, delay = target_alpha(250.0, real.geom, cfg.target_rcs_m2)
        targets = [None, _TargetParams(alpha_mag=alpha, delay=delay, doppler=300.0)]

        def run():
            peaks = simulate_sweep_peaks(real, cfg.seed, a, cells, targets, 70, 0x9D)
            return peaks, run_detection_experiment(cfg).rows

        def slow_compute(self, *args):
            time.sleep(0.005)
            compute(self, *args)

        compute = experiments._SweepPass.compute
        monkeypatch.setattr(experiments._SweepPass, "compute", slow_compute)
        monkeypatch.setattr(experiments, "_workers", lambda: 2)
        monkeypatch.setattr(experiments, "BATCH", 16)
        monkeypatch.setattr(experiments, "_kept", {"block": [], "batch": []})
        with monkeypatch.context() as cold:
            cold.setattr(experiments, "KEEP_BYTES", 0)
            cold_peaks, cold_rows = run()
            assert self.kept() == []
        run()
        assert self.kept()
        for ws in self.kept():
            for buf in ws.values():
                buf.fill(np.nan if buf.dtype.kind in "fc" else 99)
        peaks, rows = run()
        np.testing.assert_array_equal(peaks, cold_peaks)
        assert rows == cold_rows

    def test_many_workers_never_share_a_workspace(self, monkeypatch):
        """Six workers on small blocks, switching threads often: every task gets its own
        workspace, so the peaks equal a call that keeps nothing and none is kept twice."""
        cfg = small_detect_cfg(n_detection_trials=40, pfa_target=0.5)
        monkeypatch.setattr(experiments, "_workers", lambda: 6)
        monkeypatch.setattr(experiments, "BATCH", 8)
        monkeypatch.setattr(experiments, "BLOCK_TRIALS", 2)
        monkeypatch.setattr(experiments, "_kept", {"block": [], "batch": []})
        with monkeypatch.context() as cold:
            cold.setattr(experiments, "KEEP_BYTES", 0)
            reference = run_detection_experiment(cfg).rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_detection_experiment(cfg).rows for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [reference] * 3
        kept = self.kept()
        assert len({id(ws) for ws in kept}) == len(kept)
        assert self.nbytes(kept) <= experiments.KEEP_BYTES

    def test_kept_bytes_stay_within_the_bound(self, monkeypatch):
        """A desk sweep keeps at most KEEP_BYTES; below one workspace it keeps nothing."""
        monkeypatch.setattr(experiments, "_workers", lambda: experiments.MAX_WORKERS)
        monkeypatch.setattr(experiments, "_kept", {"block": [], "batch": []})
        baseline = threading.active_count()
        run_detection_experiment(small_detect_cfg())
        kept = self.kept()
        assert kept and self.nbytes(kept) <= experiments.KEEP_BYTES
        assert threading.active_count() == baseline
        # Keeping nothing, every task's workspace is fresh: the smallest is the smallest there is.
        sizes, give_back = [], experiments._give_back

        def recorded(kind, ws):
            sizes.append(self.nbytes([ws]))
            give_back(kind, ws)

        monkeypatch.setattr(experiments, "_give_back", recorded)
        monkeypatch.setattr(experiments, "KEEP_BYTES", 0)
        monkeypatch.setattr(experiments, "_kept", {"block": [], "batch": []})
        run_detection_experiment(small_detect_cfg())
        monkeypatch.setattr(experiments, "KEEP_BYTES", min(sizes) - 1)
        run_detection_experiment(small_detect_cfg())
        assert self.kept() == []
        assert threading.active_count() == baseline

    def test_table1_block_workspace_does_not_grow_with_the_block(self, monkeypatch,
                                                                 table1_sweep):
        """At the table1 geometry the blocks of a 128-trial H1 batch take workspaces of
        the same size, within KEEP_BYTES: the block's buffers, not the batch, size them."""
        cfg, real, a, cells, targets = table1_sweep
        monkeypatch.setattr(experiments, "BATCH", 128)
        sweep_pass = experiments._SweepPass(real, cfg.seed, a, cells, targets, 128, 0x9D)
        batch = sweep_pass.draw(*sweep_pass.batches[0])
        blocks = sweep_pass.blocks(batch)
        sizes = []

        def recorded(_kind, ws):
            sizes.append(self.nbytes([ws]))

        monkeypatch.setattr(experiments, "_give_back", recorded)
        monkeypatch.setattr(experiments, "_kept", {"block": [], "batch": []})
        for lo, hi in blocks:
            sweep_pass.compute(batch, lo, hi)
        assert len(blocks) == 128 // 8 and len(sizes) == len(blocks)
        assert len(set(sizes)) == 1 and sizes[0] <= experiments.KEEP_BYTES


@pytest.fixture(scope="module")
def table1_sweep():
    """The table1 detection sweep's 8 cells and its targets, at a 300 m/s Doppler."""
    cfg = table1_preset()
    rng = np.random.default_rng([cfg.seed, 0xD0])
    real = realize_scenario(cfg, rng)
    a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
    cells, _ = sweep_cells(cfg, real, a, draw_estimates(real, rng))
    assert len(cells) == 8
    targets = []
    for r in cfg.detection_ranges_m:
        alpha, delay = target_alpha(r, real.geom, cfg.target_rcs_m2)
        targets.append(_TargetParams(alpha_mag=alpha, delay=delay, doppler=300.0))
    return cfg, real, a, cells, targets


@pytest.mark.parametrize("hypothesis_name, bound", [("h0", 14), ("h1", 8)])
def test_table1_block_split_stays_within_the_buffers(table1_sweep, hypothesis_name, bound):
    """With 8 cells at the table1 geometry, every batch size splits into even, contiguous
    blocks of at most min(BLOCK_TRIALS, block_trials) trials: 14 in H0 passes, 8 in H1."""
    cfg, real, a, cells, targets = table1_sweep
    targets = [None] if hypothesis_name == "h0" else targets
    sweep_pass = experiments._SweepPass(real, cfg.seed, a, cells, targets, 1, 0x9D)
    assert min(experiments.BLOCK_TRIALS, sweep_pass.block_trials) == bound
    for nb in range(1, experiments.BATCH + 1):
        blocks = sweep_pass.blocks(experiments._Batch(0, np.empty((nb, 0)), *[None] * 4))
        sizes = [hi - lo for lo, hi in blocks]
        assert [lo for lo, _ in blocks] == [0, *np.cumsum(sizes[:-1])] and sum(sizes) == nb
        assert len(blocks) == -(-nb // bound) and max(sizes) - min(sizes) <= 1


class TestSweepPeaks:
    """simulate_sweep_peaks: every cell of a desk sweep on the same draws.

    The cells are PBR/ZFR x uniform/max-min at 3 and 6 dB RCR, simulated
    over two batches on the H0 and the H1 stream.  Each cell's row must match
    a one-cell pass, the antenna-domain replay of its draws
    (``oracles.cell_peaks_oracle``) and the same cells in reverse order.
    """

    N_TRIALS = 150
    BATCH = 96
    MANY_USERS_BATCH = 10

    @pytest.fixture(scope="class", autouse=True)
    def small_batches(self):
        """Batches of ``BATCH`` trials for the whole class, so a pass spans two."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "BATCH", self.BATCH)
            yield

    @pytest.fixture(scope="class")
    def sweep(self):
        cfg = desk_preset()
        rng = np.random.default_rng([cfg.seed, 0xD0])
        real = realize_scenario(cfg, rng)
        grid = DelayDopplerGrid.natural(real.frame)
        direction = draw_scan_direction(cfg, rng)
        a = steering_vector(real.geom, direction)
        cells, failures = sweep_cells(cfg, real, a, draw_estimates(real, rng))
        assert not failures and len(cells) == 8
        targets = []
        for r in (250.0, 345.0):
            alpha, delay = target_alpha(r, real.geom, cfg.target_rcs_m2)
            doppler = 2.0 * cfg.target_speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
            targets.append(_TargetParams(alpha_mag=alpha, delay=delay, doppler=doppler))
        return cfg, real, grid, direction, a, cells, targets

    @pytest.fixture(scope="class", params=["h0", "h1"])
    def hypothesis(self, request, sweep):
        cfg, real, _, _, a, cells, targets = sweep
        targets, stream = ([None], 0xCA1) if request.param == "h0" else (targets, 0x9D)
        peaks = simulate_sweep_peaks(real, cfg.seed, a, cells, targets, self.N_TRIALS, stream)
        return targets, stream, peaks

    def test_shape_and_positive(self, sweep, hypothesis):
        cells = sweep[5]
        targets, _, peaks = hypothesis
        assert peaks.shape == (len(cells), len(targets), self.N_TRIALS)
        assert np.all(np.isfinite(peaks)) and np.all(peaks > 0)

    def test_rows_match_one_cell_passes(self, sweep, hypothesis):
        cfg, real, _, _, a, cells, _ = sweep
        targets, stream, peaks = hypothesis
        for row, (kind, powers) in zip(peaks, cells):
            single = simulate_sweep_peaks(
                real, cfg.seed, a, [(kind, powers)], targets, self.N_TRIALS, stream
            )[0]
            np.testing.assert_allclose(row, single, rtol=1e-12, atol=0)

    def test_rows_match_antenna_domain_replay(self, sweep, hypothesis):
        cfg, real, grid, direction, _, cells, _ = sweep
        targets, stream, peaks = hypothesis
        for row, (kind, powers) in zip(peaks, cells):
            ref = cell_peaks_oracle(
                real, cfg, grid, direction, kind, powers, targets, self.N_TRIALS, stream,
                self.BATCH,
            )
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0)

    @staticmethod
    def many_users_case(hypothesis_name):
        """K = 8 sweep keyword arguments: 14 trials, pair-table steps of 4.

        In batches of ``MANY_USERS_BATCH``, which the caller sets.  Returned
        with the config and the surveillance direction, which the
        antenna-domain replay takes.
        """
        cfg = desk_preset().replace(n_users=8)
        rng = np.random.default_rng([cfg.seed, 0xD0])
        real = realize_scenario(cfg, rng)
        direction = draw_scan_direction(cfg, rng)
        a = steering_vector(real.geom, direction)
        cells, _ = sweep_cells(cfg, real, a, draw_estimates(real, rng))
        if hypothesis_name == "h0":
            targets, stream = [None], 0xCA1
        else:
            alpha, delay = target_alpha(300.0, real.geom, cfg.target_rcs_m2)
            doppler = 2.0 * cfg.target_speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
            targets = [_TargetParams(alpha_mag=alpha, delay=delay, doppler=doppler)]
            stream = 0x9D
        case = dict(
            real=real, seed=cfg.seed, a=a, cells=cells, targets=targets, n_trials=14,
            stream_key=stream,
        )
        return case, cfg, direction

    @pytest.mark.parametrize("hypothesis_name", ["h0", "h1"])
    def test_many_users_match_antenna_domain_replay(self, monkeypatch, hypothesis_name):
        """K = 8: a batch spans several pair-table blocks and ends in a ragged one."""
        case, cfg, direction = self.many_users_case(hypothesis_name)
        real, batch = case["real"], self.MANY_USERS_BATCH
        monkeypatch.setattr(experiments, "BATCH", batch)
        block = experiments.PAIR_TABLE_BYTES // (9 * 8 * real.frame.n_symbols
                                                 * real.frame.n_subcarriers * 8)
        assert 1 < block < batch and batch % block != 0
        peaks = simulate_sweep_peaks(**case)
        for row, (kind, powers) in zip(peaks, case["cells"]):
            ref = cell_peaks_oracle(
                real, cfg, DelayDopplerGrid.natural(real.frame), direction, kind, powers,
                case["targets"], case["n_trials"], case["stream_key"], batch,
            )
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_peaks_do_not_depend_on_the_worker_count(self, sweep, hypothesis, monkeypatch,
                                                     workers):
        cfg, real, _, _, a, cells, _ = sweep
        targets, stream, peaks = hypothesis
        monkeypatch.setattr(experiments, "_workers", lambda: workers)
        again = simulate_sweep_peaks(real, cfg.seed, a, cells, targets, self.N_TRIALS, stream)
        np.testing.assert_array_equal(again, peaks)

    def test_peaks_do_not_depend_on_the_block_split(self, sweep, hypothesis):
        """A drawn batch computed in blocks of 1 or 7 trials or as one block gives the
        peaks of the sweep."""
        cfg, real, _, _, a, cells, _ = sweep
        targets, stream, peaks = hypothesis
        sweep_pass = experiments._SweepPass(
            real, cfg.seed, a, cells, targets, self.BATCH, stream
        )
        batch = sweep_pass.draw(*sweep_pass.batches[0])
        for size in (1, 7, self.BATCH):
            sweep_pass.peaks[:] = np.nan
            for lo in range(0, self.BATCH, size):
                sweep_pass.compute(batch, lo, min(lo + size, self.BATCH))
            np.testing.assert_array_equal(sweep_pass.peaks, peaks[:, :, : self.BATCH])

    @staticmethod
    def peaks_in_blocks_of(monkeypatch, case, size):
        """The peaks of ``simulate_sweep_peaks(**case)`` with ``BLOCK_BYTES`` forced down to
        ``size`` trials of a block's form and noise buffers."""
        rows = len(case["cells"]) * (1 if case["targets"] == [None] else 2)
        n_grid = case["real"].frame.n_symbols * case["real"].frame.n_subcarriers
        monkeypatch.setattr(experiments, "BLOCK_BYTES", size * n_grid * (8 * rows + 16))
        sizes, compute = [], experiments._SweepPass.compute

        def recorded(self, batch, lo, hi):
            sizes.append(hi - lo)  # blocks run on worker threads: append is atomic
            compute(self, batch, lo, hi)

        monkeypatch.setattr(experiments._SweepPass, "compute", recorded)
        peaks = simulate_sweep_peaks(**case)
        assert max(sizes) == size
        return peaks

    @pytest.mark.parametrize("size", [1, 3])
    def test_peaks_do_not_depend_on_the_step_split(self, sweep, hypothesis, monkeypatch, size):
        """A block is one step: blocks of 1 or 3 trials, bounded by their buffers, give the
        peaks of the sweep."""
        cfg, real, _, _, a, cells, _ = sweep
        targets, stream, peaks = hypothesis
        case = dict(
            real=real, seed=cfg.seed, a=a, cells=cells, targets=targets, n_trials=self.N_TRIALS,
            stream_key=stream,
        )
        np.testing.assert_array_equal(self.peaks_in_blocks_of(monkeypatch, case, size), peaks)

    @pytest.mark.parametrize("hypothesis_name", ["h0", "h1"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_many_users_peaks_do_not_depend_on_the_step_split(self, monkeypatch,
                                                              hypothesis_name, size):
        """K = 8: blocks of 1 or 3 trials, bounded by their buffers, below the pair-table
        step of 4."""
        case, _, _ = self.many_users_case(hypothesis_name)
        monkeypatch.setattr(experiments, "BATCH", self.MANY_USERS_BATCH)
        reference = simulate_sweep_peaks(**case)
        blocked = self.peaks_in_blocks_of(monkeypatch, case, size)
        np.testing.assert_array_equal(blocked, reference)

    @pytest.mark.parametrize("hypothesis_name", ["h0", "h1"])
    def test_many_users_peaks_do_not_depend_on_the_worker_count(self, monkeypatch,
                                                                hypothesis_name):
        """K = 8 with trial blocks of at most 3 trials, across the pair-table steps of 4."""
        case, _, _ = self.many_users_case(hypothesis_name)
        monkeypatch.setattr(experiments, "BATCH", self.MANY_USERS_BATCH)
        reference = simulate_sweep_peaks(**case)
        monkeypatch.setattr(experiments, "BLOCK_TRIALS", 3)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(experiments, "_workers", lambda n=workers: n)
            runs.append(simulate_sweep_peaks(**case))
        for peaks in runs[1:]:
            np.testing.assert_array_equal(peaks, runs[0])
        np.testing.assert_allclose(runs[0], reference, rtol=1e-12, atol=0)

    def test_drawn_batches_alive_stay_within_the_bound(self, sweep, monkeypatch):
        """With slow trial blocks the draws run ahead, but at most workers + 1 batches live."""
        cfg, real, _, _, a, cells, _ = sweep
        lock, alive, most = threading.Lock(), [0], [0]

        def released():
            with lock:
                alive[0] -= 1

        def counted_draw(self, *spec):
            batch = draw(self, *spec)
            with lock:
                alive[0] += 1
                most[0] = max(most[0], alive[0])
            weakref.finalize(batch, released)
            return batch

        def slow_compute(self, *args):
            time.sleep(0.005)
            compute(self, *args)

        draw, compute = experiments._SweepPass.draw, experiments._SweepPass.compute
        monkeypatch.setattr(experiments._SweepPass, "draw", counted_draw)
        monkeypatch.setattr(experiments._SweepPass, "compute", slow_compute)
        monkeypatch.setattr(experiments, "_workers", lambda: 2)
        monkeypatch.setattr(experiments, "BATCH", 8)
        peaks = simulate_sweep_peaks(real, cfg.seed, a, cells, [None], 120, 0xCA1)
        assert np.all(peaks > 0)
        assert 2 <= most[0] <= 3
        assert alive[0] == 0

    def test_cell_order_does_not_matter(self, sweep, hypothesis):
        cfg, real, _, _, a, cells, _ = sweep
        targets, stream, peaks = hypothesis
        reverse = simulate_sweep_peaks(
            real, cfg.seed, a, cells[::-1], targets, self.N_TRIALS, stream
        )
        np.testing.assert_allclose(reverse[::-1], peaks, rtol=1e-12, atol=0)


class TestScalarSimulatorMatchesAntennaDomain:
    """A one-cell simulate_sweep_peaks pass against synthesize_tx_grid -> target_echo ->
    glrt_statistic.

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
        alpha, delay = target_alpha(345.0, real.geom, 2.5e-4)
        doppler = 2.0 * cfg.target_speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
        target = _TargetParams(alpha_mag=alpha, delay=delay, doppler=doppler)

        sim_h0, sim_h1 = simulate_sweep_peaks(
            real, cfg.seed, steering_vector(real.geom, direction), [(beam_kind, powers)],
            [None, target], self.N_SIM, stream_key=0xE9,
        )[0]
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


# A feasible one-user allocation problem, as ``jcsim allocate --config`` reads it.
ALLOCATION_PROBLEM = {
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
}


def write_problem(tmp_path, **changes):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**ALLOCATION_PROBLEM, **changes}))
    return path


# jcsim validate --preset desk --draws 2000: the relative error of each term in report
# order (K = 4 signal gains, the 4 x 4 interference terms row by row, 4 leakages).
PINNED_DESK_VALIDATE = [
    0.009285721134075591, 0.0011484857390061424, 0.001959703072549341, 0.009598081946268877,
    0.02871912995009448, 0.046405931542938476, 0.01606933286063336, 0.046405931542938476,
    0.013507895140045282, 0.023810089056375296, 0.013507895140045282, 0.003079599771150999,
    0.0004239528581010831, 0.017771932552748056, 0.0354681649549557, 0.017771932552748056,
    0.008159204323383682, 0.01358559903969882, 0.008159204323383682, 0.03406890516338481,
    0.021069486811266323, 0.007126515136124048, 0.024455287911327592, 0.02714871364749957,
]


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

    def test_detect_beam_filter(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(small_detect_cfg(pfa_target=0.5)))
        out = tmp_path / "detect.csv"
        code = cli_main(
            ["detect", "--config", str(path), "--beam", "zfr", "--trials", "2", "--out", str(out)]
        )
        assert code == 0
        with open(out, newline="") as fh:
            beams = [row["beam"] for row in csv.DictReader(fh)]
        assert beams and set(beams) == {"zfr"}

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("rates", "--scenarios", "2"),
            ("detect", "--trials", "40"),
            ("rates", "--allocator", "uniform"),
            ("detect", "--beam", "zfr"),
        ],
    )
    def test_manifest_config_replays_the_run(self, tmp_path, command, flag, value):
        """A sizing flag lands in the manifest's config and a row filter in its
        ``row_filter``; replayed with both, the run writes the same CSV."""
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(small_detect_cfg(pfa_target=0.25, n_scenarios=3)))
        first = tmp_path / "first.csv"
        assert cli_main([command, "--config", str(path), flag, value, "--out", str(first)]) == 0
        manifest = json.loads(first.with_suffix(".manifest.json").read_text())
        assert manifest["n_rows"] == len(first.read_text().splitlines()) - 1
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps(manifest["config"]))
        filters = [arg for key, val in manifest.get("row_filter", {}).items()
                   for arg in (f"--{key}", val)]
        second = tmp_path / "second.csv"
        assert cli_main([command, "--config", str(replay), *filters, "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "key, value", [("user_x_range_m", 10), ("n_users", "4"), ("target_on_grid", "no")]
    )
    def test_rates_wrong_config_type_is_config_error(self, tmp_path, capsys, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        out = tmp_path / "rates.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, changes, flags",
        [
            pytest.param("detect", {"target_rcs_m2": math.nan}, [], id="detect-target_rcs_m2-nan"),
            pytest.param("rates", {"target_rcs_m2": math.nan}, [], id="rates-target_rcs_m2-nan"),
            pytest.param("rates", {"user_height_m": math.nan}, [], id="rates-user_height_m-nan"),
            pytest.param("detect", {"user_height_m": math.nan}, [], id="detect-user_height_m-nan"),
            pytest.param("rates", {"rcr_db": math.nan}, [], id="rates-rcr_db-nan"),
            pytest.param("detect", {"p_dl_w": math.inf}, [], id="detect-p_dl_w-inf"),
            pytest.param("rates", {"user_x_range_m": [10.0, math.inf]}, [], id="rates-range-inf"),
            *(pytest.param(command, {}, ["--seed", "-1"], id=f"{command}-seed-flag")
              for command in ("rates", "detect", "validate")),
            *(pytest.param(command, {"seed": -3}, [], id=f"{command}-seed-config")
              for command in ("rates", "detect", "validate")),
        ],
    )
    def test_non_finite_number_or_negative_seed_is_config_error(self, tmp_path, capsys,
                                                                command, changes, flags):
        """JSON parses NaN and Infinity; a config holding one, or a negative seed, exits 2."""
        data = json.loads(dump_config(desk_preset().replace(n_scenarios=1, n_detection_trials=8)))
        data.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        sizes = ["--draws", "2000"] if command == "validate" else []
        assert cli_main([command, "--config", str(path), *sizes, *flags, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_detect_pinned_to_one_cpu_writes_the_same_csv(self, tmp_path):
        """A one-CPU process runs the sweep on one worker and writes the same bytes."""
        args = ["detect", "--preset", "desk", "--trials", "20"]
        free = tmp_path / "free.csv"
        assert cli_main([*args, "--out", str(free)]) == 0
        script = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from jcsim.harness import experiments\n"
            "from jcsim.harness.cli import main\n"
            "assert experiments._workers() == 1\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        pinned = tmp_path / "pinned.csv"
        src = str(Path(jcsim.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script, *args, "--out", str(pinned)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert pinned.read_bytes() == free.read_bytes()
        assert (pinned.with_suffix(".manifest.json").read_bytes()
                == free.with_suffix(".manifest.json").read_bytes())

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
        path = write_problem(tmp_path, rho_star=1.0, radar_gain=0.0, user_gains=[1.0])
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
            # JSON types as in a config: numbers, not strings or booleans, integers
            # for tau_c and tau_p, and lists of numbers for the arrays.
            ("tau_c", 200.9),
            ("tau_p", True),
            ("budget", "2"),
            ("noise_var", None),
            ("signal_gain", ["4"]),
            ("user_gains", 0.5),
            ("interference", [[True]]),
            ("interference", [0.5]),
            ("budget", math.inf),  # JSON's Infinity, which no range check rejects
        ],
    )
    def test_allocate_bad_input_is_config_error(self, tmp_path, capsys, key, value):
        assert cli_main(["allocate", "--config", str(write_problem(tmp_path, **{key: value}))]) == 2
        assert "config error: " in capsys.readouterr().err

    def test_allocate_missing_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({k: v for k, v in ALLOCATION_PROBLEM.items() if k != "budget"}))
        assert cli_main(["allocate", "--config", str(path)]) == 2
        assert "missing keys: ['budget']" in capsys.readouterr().err

    def test_allocate_problem_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text("[[1.0]]")
        assert cli_main(["allocate", "--config", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_allocate_out_writes_the_report_it_prints(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(["allocate", "--config", str(write_problem(tmp_path)), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert json.loads(out.read_text())["allocator"] == "maxmin"

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

    def test_detect_zero_trials_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "detect.csv"
        assert cli_main(["detect", "--preset", "desk", "--trials", "0", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "changes",
        [
            pytest.param({"n_detection_trials": 0}, id="n_detection_trials-0"),
            pytest.param({"tau_p": 0}, id="tau_p-0"),
            pytest.param({"detection_ranges_m": []}, id="detection_ranges_m-value2"),
            pytest.param({"detection_rcr_db": []}, id="detection_rcr_db-value3"),
            pytest.param({"n_scenarios": -1}, id="n_scenarios--1"),
            # below the default tau_p = n_users = 4
            pytest.param({"tau_c": 2}, id="tau_c-2"),
            pytest.param({"user_x_range_m": [10.0]}, id="user_x_range_m-value6"),
            pytest.param({"scan_azimuth_deg": [60.0, -60.0]}, id="scan_azimuth_deg-value7"),
            pytest.param({"n_subcarriers": 0}, id="n_subcarriers-0"),
            pytest.param({"n_symbols": 0}, id="n_symbols-0"),
            pytest.param({"cp_fraction": 0}, id="cp_fraction-0"),
            pytest.param({"scan_elevation_deg": [190, 200]}, id="scan_elevation_deg-value11"),
            pytest.param({"scan_azimuth_deg": [-200, -190]}, id="scan_azimuth_deg-value12"),
            pytest.param({"target_rcs_m2": 0}, id="target_rcs_m2-0"),
            pytest.param({"detection_ranges_m": [-5]}, id="detection_ranges_m-value14"),
            *DEGENERATE_DEPLOYMENTS,
            # The sweep runs ZFR cells whatever radar_beam says.
            pytest.param({"n_y": 2, "n_z": 2, "radar_beam": "pbr"}, id="sweep_zfr_few_antennas"),
        ],
    )
    def test_detect_degenerate_config_is_config_error(self, tmp_path, capsys, changes):
        data = json.loads(dump_config(desk_preset().replace(tau_p=None)))
        data.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "detect.csv"
        assert cli_main(["detect", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error", [DegenerateDirectionError, np.linalg.LinAlgError, EstimationError]
    )
    @pytest.mark.parametrize("command", ["rates", "detect", "validate"])
    def test_numerical_failure_exits_4(self, monkeypatch, tmp_path, capsys, command, error):
        """An error of the numerics exits 4 and writes nothing: rates meets it in a scenario's
        rate coefficients, detect in a trial block on a worker thread, validate in the
        coefficients it checks."""
        caller, raised_on = threading.current_thread(), []
        module, name = {
            "rates": (experiments, "rate_coefficients"),
            "detect": (experiments, "beam_set"),
            "validate": (jcsim.rate, "rate_coefficients"),
        }[command]
        original = getattr(module, name)

        def failing(*args):
            # Trial blocks take a stack of estimates; the reference allocation takes one set.
            if command != "detect" or np.ndim(args[2]) == 3:
                raised_on.append(threading.current_thread())
                raise error("injected")
            return original(*args)

        monkeypatch.setattr(module, name, failing)
        out = tmp_path / "out.csv"
        sizes = {"rates": ["--scenarios", "2"], "detect": ["--trials", "8"],
                 "validate": ["--draws", "2000"]}[command]
        assert cli_main([command, "--preset", "desk", *sizes, "--out", str(out)]) == 4
        assert "numerical consistency failure: injected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no CSV, manifest or report
        assert raised_on and (caller not in raised_on) == (command == "detect")

    @pytest.mark.parametrize(
        "changes", [pytest.param({"cp_fraction": 0}, id="cp_fraction-0"), *DEGENERATE_DEPLOYMENTS]
    )
    def test_rates_degenerate_config_is_config_error(self, tmp_path, capsys, changes):
        data = json.loads(dump_config(desk_preset()))
        data.update(changes)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "rates.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_allocate_requires_config(self):
        assert cli_main(["allocate"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--draws", "0"], ["--draws", "2000", "--rtol", "-1"], ["--draws", "2000", "--rtol", "0"]],
    )
    def test_validate_bad_draws_or_rtol_is_config_error(self, capsys, flags):
        assert cli_main(["validate", "--preset", "desk", *flags]) == 2
        assert "config error" in capsys.readouterr().err

    def test_validate_writes_its_report(self, tmp_path, capsys):
        out = tmp_path / "validate.json"
        code = cli_main(
            ["validate", "--preset", "desk", "--draws", "2000", "--rtol", "10", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report) == 4 + 4 * 4 + 4  # K gains, K x K interference terms, K leakages
        assert all(entry["ok"] is True and entry["rel_err"] >= 0 for entry in report)

    def test_validate_passes_at_modest_draws(self, capsys):
        code = cli_main(["validate", "--preset", "desk", "--draws", "20000", "--rtol", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_validate_outside_rtol_is_numerical_failure(self, capsys):
        assert cli_main(["validate", "--preset", "desk", "--draws", "2000", "--rtol", "1e-9"]) == 4
        out = capsys.readouterr().out
        assert "FAIL" in out and "outside rtol=1e-09" in out

    def test_fixed_seed_validate_report_is_pinned(self, tmp_path, capsys):
        """Any change to the oracle's draws or to the check moves these."""
        out = tmp_path / "validate.json"
        # Four terms lie outside the default rtol at so few draws.
        assert cli_main(["validate", "--preset", "desk", "--draws", "2000", "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert [entry["rel_err"] for entry in report] == pytest.approx(
            PINNED_DESK_VALIDATE, rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("beam", ["pbr", "zfr"])
    def test_validate_builds_the_training_statistics_once(self, monkeypatch, capsys, beam):
        """The closed form and the oracle both read the deployment's ``real.statistics``."""
        builds = []
        original = jcsim.estimation.TrainingStatistics

        def counted(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(jcsim.estimation, "TrainingStatistics", counted)
        args = ["validate", "--preset", "desk", "--beam", beam, "--draws", "200", "--rtol", "10"]
        assert cli_main(args) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "beam, draws",
        [
            pytest.param("pbr", "200", id="200"),
            pytest.param("pbr", "20000", id="20000"),
            pytest.param("zfr", "20000", id="zfr-20000"),
        ],
    )
    def test_validate_judges_a_clamped_diagonal_against_the_clamp_scale(
        self, tmp_path, capsys, beam, draws
    ):
        """Noiseless LoS/LMMSE: each closed-form xi_kk is clamped to 0 while the MC
        value is round-off (or an exact 0), which is no failure.  Under ZFR the beam
        nulls every user, so both leakages are round-off too, far below REAL_TOL *
        E||h_k||^2."""
        cfg = desk_preset().replace(
            channel_model="los", estimator="lmmse", radar_beam=beam, noise_psd_dbm_hz=-300.0
        )
        path = tmp_path / "quiet.json"
        path.write_text(dump_config(cfg))
        assert cli_main(["validate", "--config", str(path), "--draws", draws]) == 0
        assert f"all 24 terms within rtol=0.03 over {draws} draws" in capsys.readouterr().out

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        scenario = {"--config", "--seed", "--out", "--preset", "--estimator", "--beam"}
        assert flags == {
            "rates": scenario | {"--allocator", "--scenarios"},
            "detect": scenario | {"--allocator", "--trials"},
            "allocate": {"--config", "--out", "--allocator"},
            "validate": scenario | {"--draws", "--rtol"},
        }
        assert sum(map(len, flags.values())) == 27

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("allocate", "--seed", "1"),
            ("allocate", "--preset", "desk"),
            ("allocate", "--estimator", "pm"),
            ("allocate", "--beam", "pbr"),
            ("validate", "--allocator", "maxmin"),
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_exits_2(
        self, tmp_path, capsys, command, flag, value
    ):
        runs = {
            "allocate": ["--config", str(write_problem(tmp_path))],
            "validate": ["--draws", "2000", "--rtol", "10"],
        }
        with pytest.raises(SystemExit) as exited:
            cli_main([command, *runs[command], flag, value])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_rates_skips_an_infeasible_max_min_cell_and_writes_the_rest(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        original = experiments.max_min_allocate

        def second_infeasible(*args):
            calls.append(args)
            if len(calls) == 2:
                raise AllocationInfeasibleError("injected")
            return original(*args)

        monkeypatch.setattr(experiments, "max_min_allocate", second_infeasible)
        out = tmp_path / "rates.csv"
        assert cli_main(["rates", "--preset", "desk", "--scenarios", "3", "--out", str(out)]) == 0
        assert "(1 infeasible deployments skipped)" in capsys.readouterr().out
        with open(out, newline="") as fh:
            cells = [(int(row["trial"]), row["allocator"]) for row in csv.DictReader(fh)]
        n_users = desk_preset().n_users
        assert cells == [
            (trial, allocator)
            for trial in range(3)
            for allocator in (("uniform",) if trial == 1 else ("uniform", "maxmin"))
            for _ in range(n_users)
        ]
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["failures"] == [{"trial": 1, "error": "injected"}]
