import itertools

import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.beamform import pbr_beam, zfr_beam
from jcsim.channel import ChannelModelKind, ChannelStats, hbar_matrix
from jcsim.estimation import Estimator, PilotBook, lmmse_matrices, training_statistics
from jcsim.harness.config import desk_preset, table1_preset
from jcsim.harness.experiments import run_rate_experiment
from jcsim.harness.scenario import draw_estimates, draw_scan_direction, realize_scenario
from jcsim.rate import (
    RateCoefficients,
    build_rate_coefficients,
    fourth_moment_excess,
    radar_leakage,
    rate,
    rate_coefficients,
    sinr,
)
from jcsim.validation import compare_terms, monte_carlo_rate_terms
from oracles import dense_rate_coefficients

GEOM = ArrayGeometry.half_wavelength(4, 4, 0.1)
DIR = Direction(azimuth=0.3, elevation=1.2)
DIR2 = Direction(azimuth=-0.9, elevation=1.4)


def stats_of(kind, beta=1.0, k_factor=0.0, angles=DIR):
    return ChannelStats(beta=beta, kind=kind, angles=angles, k_factor=k_factor)


def pm_statistics(stats):
    """Structured statistics of ``stats`` with unit-power orthogonal pilots: A = I."""
    book = PilotBook.dft(len(stats), len(stats), power=1.0)
    return training_statistics(book, stats, GEOM, 0.1, Estimator.PM)


def excess_through_identity(stats, factors=(1.0,)):
    """X[0, j] of one user seen through the filters factors[j] * I."""
    t = pm_statistics([stats])
    return fourth_moment_excess(t.diffuse, t.specular, t.filters * np.asarray(factors))[0]


def hbar_of(stats):
    return pm_statistics([stats]).hbar


def coefficients(stats, book, estimator, noise_var, e_matrices=None):
    return build_rate_coefficients(
        stats, GEOM, book, estimator, pbr_beam(steering_vector(GEOM, DIR2)), noise_var, 0.1,
        bandwidth=1e6, tau_c=200, e_matrices=e_matrices,
    )


class TestFourthMomentExcess:
    def test_los_is_zero(self):
        stats = stats_of(ChannelModelKind.LOS, beta=2.0)
        assert excess_through_identity(stats) == 0.0
        assert excess_through_identity(stats, (1.0, 2.0)).tolist() == [0, 0]

    def test_rayleigh_pilot_matched_value(self):
        stats = stats_of(ChannelModelKind.RAYLEIGH, beta=2.0)
        assert np.isclose(excess_through_identity(stats), 4.0 * 256.0, rtol=1e-12)

    def test_rice_zero_factor_equals_rayleigh(self):
        rice = stats_of(ChannelModelKind.RICE, beta=1.3, k_factor=0.0)
        ray = stats_of(ChannelModelKind.RAYLEIGH, beta=1.3)
        assert np.isclose(
            excess_through_identity(rice), excess_through_identity(ray), rtol=1e-12
        )


class TestRadarLeakage:
    def test_rayleigh_equals_beta_for_any_unit_beam(self):
        rng = np.random.default_rng(0)
        stats = stats_of(ChannelModelKind.RAYLEIGH, beta=0.7)
        for _ in range(5):
            w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            w /= np.linalg.norm(w)
            assert np.isclose(radar_leakage(hbar_of(stats), w), 0.7, rtol=1e-12)

    def test_los_nulled_beam_leaks_nothing(self):
        stats = stats_of(ChannelModelKind.LOS, beta=1.0)
        a = steering_vector(GEOM, DIR)
        rng = np.random.default_rng(1)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = w - a * (a.conj() @ w) / (a.conj() @ a)
        w /= np.linalg.norm(w)
        assert radar_leakage(hbar_of(stats), w) <= 1e-12 * 16

    def test_rice_matches_dense_quadratic_form(self):
        stats = stats_of(ChannelModelKind.RICE, beta=0.9, k_factor=2.5)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w /= np.linalg.norm(w)
        hbar = hbar_matrix(stats, GEOM)
        ref = 0.0
        for i in range(16):
            for j in range(16):
                ref += (w[i].conjugate() * hbar[i, j] * w[j]).real
        assert np.isclose(radar_leakage(hbar_of(stats), w), ref, rtol=1e-10)

    def test_requires_unit_norm(self):
        stats = stats_of(ChannelModelKind.RAYLEIGH)
        with pytest.raises(ValueError):
            radar_leakage(hbar_of(stats), np.ones(16, dtype=complex))

    def test_unit_norm_tolerance_is_absolute(self):
        """| ||w|| - 1 | may be 1e-6 at most, with no tolerance relative to the norm."""
        hbar = hbar_of(stats_of(ChannelModelKind.RAYLEIGH))
        with pytest.raises(ValueError, match="unit norm"):
            radar_leakage(hbar, np.full(16, (1.0 + 5e-6) / 4.0, dtype=complex))
        assert np.isclose(radar_leakage(hbar, np.full(16, (1.0 + 5e-7) / 4.0, dtype=complex)), 1.0)


class TestScalarSpecializations:
    """Single-user Rayleigh with an orthogonal pilot: every coefficient has
    a closed scalar form, evaluated here independently of the package."""

    BETA, POWER, NOISE = 1.7, 0.2, 0.05

    def setup_method(self):
        self.book = PilotBook.dft(1, 1, power=self.POWER)
        self.stats = [stats_of(ChannelModelKind.RAYLEIGH, beta=self.BETA)]

    def scalar_signal_gain(self):
        b, p, s = self.BETA, self.POWER, self.NOISE
        return b**2 * GEOM.n_elements * p / (p * b + s)

    def test_pm_signal_gain(self):
        got = coefficients(self.stats, self.book, Estimator.PM, self.NOISE).signal_gain
        assert np.isclose(got[0], self.scalar_signal_gain(), rtol=1e-12)

    def test_lmmse_signal_gain(self):
        e_list, _ = lmmse_matrices(self.book, self.stats, GEOM, self.NOISE)
        got = coefficients(
            self.stats, self.book, Estimator.LMMSE, self.NOISE, tuple(e_list)
        ).signal_gain
        assert np.isclose(got[0], self.scalar_signal_gain(), rtol=1e-12)

    @pytest.mark.parametrize("estimator", [Estimator.PM, Estimator.LMMSE])
    def test_self_interference_is_beta(self, estimator):
        # base + contamination - useful collapses to beta exactly: the
        # gain-fluctuation variance of a normalized Rayleigh matched beam.
        e_matrices = None
        if estimator is Estimator.LMMSE:
            e_list, _ = lmmse_matrices(self.book, self.stats, GEOM, self.NOISE)
            e_matrices = tuple(e_list)
        xi = coefficients(self.stats, self.book, estimator, self.NOISE, e_matrices).interference
        assert np.isclose(xi[0, 0], self.BETA, rtol=1e-10)

    def test_pm_equals_lmmse_for_rayleigh(self):
        # With Rayleigh statistics the LMMSE filter is a positive scalar, so
        # normalized PM and LMMSE beams coincide and so do all coefficients.
        book = PilotBook.dft(3, 2, power=0.1)
        stats = [stats_of(ChannelModelKind.RAYLEIGH, beta=b) for b in (0.5, 1.0, 2.0)]
        e_list, _ = lmmse_matrices(book, stats, GEOM, 0.03)
        pm = coefficients(stats, book, Estimator.PM, 0.03)
        lm = coefficients(stats, book, Estimator.LMMSE, 0.03, tuple(e_list))
        for field in ("signal_gain", "interference"):
            np.testing.assert_allclose(getattr(pm, field), getattr(lm, field), rtol=1e-9)


class TestInterferenceMatrix:
    def test_orthogonal_pilots_kill_contamination_terms(self):
        # Off-diagonal entries carry the fourth-moment excess only through
        # the pilot cross-correlation, so with orthogonal pilots they reduce
        # to the plain trace term, evaluated here directly.
        book = PilotBook.dft(3, 3, power=0.1)
        stats = [
            stats_of(ChannelModelKind.RICE, beta=1.0, k_factor=2.0),
            stats_of(ChannelModelKind.RAYLEIGH, beta=0.5, angles=DIR2),
            stats_of(ChannelModelKind.RICE, beta=2.0, k_factor=0.5, angles=DIR2),
        ]
        e_list, _ = lmmse_matrices(book, stats, GEOM, 0.02)
        xi = coefficients(stats, book, Estimator.LMMSE, 0.02, tuple(e_list)).interference
        hbars = [hbar_matrix(s, GEOM) for s in stats]
        energy = [
            np.sqrt(0.1) * np.trace(hbars[j] @ e_list[j]).real for j in range(3)
        ]
        for k in range(3):
            for j in range(3):
                if j == k:
                    continue
                base = np.sqrt(0.1) * np.trace(
                    hbars[j] @ e_list[j] @ hbars[k]
                ).real / energy[j]
                assert np.isclose(xi[k, j], base, rtol=1e-10)

    def test_nonnegative_entries(self):
        book = PilotBook.dft(4, 2, power=0.1)
        stats = [
            stats_of(ChannelModelKind.RICE, beta=10.0 ** -(k + 1), k_factor=k)
            for k in range(4)
        ]
        xi = coefficients(stats, book, Estimator.PM, 1e-4).interference
        assert np.all(xi >= 0.0)

    def test_monte_carlo_cross_check_small(self):
        book = PilotBook.dft(2, 1, power=0.1)
        stats = [
            stats_of(ChannelModelKind.RICE, beta=1.0, k_factor=1.5),
            stats_of(ChannelModelKind.RAYLEIGH, beta=0.6, angles=DIR2),
        ]
        e_list, _ = lmmse_matrices(book, stats, GEOM, 0.05)
        coeffs = build_rate_coefficients(
            stats, GEOM, book, Estimator.LMMSE, pbr_beam(steering_vector(GEOM, DIR2)), 0.05, 0.05,
            bandwidth=1e6, tau_c=200, e_matrices=tuple(e_list),
        )
        rng = np.random.default_rng(123)
        filters = training_statistics(book, stats, GEOM, 0.05, Estimator.LMMSE).filters
        mc = monte_carlo_rate_terms(
            stats, GEOM, book, filters, pbr_beam(steering_vector(GEOM, DIR2)), 0.05, 40_000, rng
        )
        report = compare_terms(mc, coeffs, rtol=0.05)
        assert all(ok for _, _, ok in report), report


ORACLE_CASES = [
    ("desk", m, e, b)
    for m, e, b in itertools.product(("rayleigh", "los", "rice"), ("pm", "lmmse"), ("pbr", "zfr"))
] + [("table1", "rice", "lmmse", "zfr")]


class TestDenseOracle:
    @pytest.mark.parametrize("preset, model, estimator, beam", ORACLE_CASES)
    def test_matches_dense_per_pair_algebra(self, preset, model, estimator, beam):
        """The filter formula against per-pair dense PM / LMMSE algebra.

        Desk reuses pilots, so the contamination terms are live.
        """
        base = desk_preset() if preset == "desk" else table1_preset()
        cfg = base.replace(channel_model=model, estimator=estimator, radar_beam=beam)
        for seed in range(3 if preset == "desk" else 1):
            rng = np.random.default_rng([cfg.seed, 0x0AC, seed])
            real = realize_scenario(cfg, rng)
            stats = list(real.stats)
            estimates = draw_estimates(real, rng)
            a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
            if beam == "pbr":
                radar_beam = pbr_beam(a)
            else:
                radar_beam = zfr_beam(a, estimates)
            got = build_rate_coefficients(
                stats, real.geom, real.book, real.estimator, radar_beam,
                real.noise_var, real.noise_var, bandwidth=1e6, tau_c=cfg.tau_c,
                e_matrices=real.statistics.filters.dense(),
            )
            useful, xi, leakage = dense_rate_coefficients(
                stats, real.geom, real.book, real.estimator, real.noise_var, radar_beam
            )
            np.testing.assert_allclose(got.signal_gain, useful, rtol=1e-9)
            # Entries that cancel to zero are judged on the scale of the
            # useful signal, the scale the package clamps them on.
            np.testing.assert_allclose(
                got.interference, xi, rtol=1e-9, atol=1e-12 * useful.min()
            )
            # A nulled beam leaks nothing; judge it on the scale of tr(Hbar).
            trace_scale = real.geom.n_elements * max(s.beta for s in stats)
            np.testing.assert_allclose(
                got.radar_leakage, leakage, rtol=1e-9, atol=1e-12 * trace_scale
            )


class TestRateFunction:
    def make_coeffs(self, noise_var=0.1):
        return RateCoefficients(
            signal_gain=np.array([4.0, 6.0]),
            interference=np.array([[0.5, 0.2], [0.3, 0.8]]),
            radar_leakage=np.array([0.1, 0.4]),
            noise_var=noise_var,
            bandwidth=1e6,
            tau_c=200,
            tau_p=2,
        )

    def test_zero_powers_zero_rate(self):
        coeffs = self.make_coeffs()
        np.testing.assert_allclose(rate(coeffs, (np.zeros(2), 0.0)), 0.0)

    def test_rate_vanishes_in_large_noise(self):
        powers = (np.array([1.0, 2.0]), 0.5)
        rates = [rate(self.make_coeffs(nv), powers) for nv in (0.1, 1.0, 10.0, 1e4)]
        for r_lo, r_hi in zip(rates, rates[1:]):
            assert np.all(r_hi < r_lo)
        assert np.all(rates[-1] < 1e-2 * rates[0])

    def test_homogeneity_degree_zero(self):
        coeffs = self.make_coeffs(noise_var=0.1)
        powers = (np.array([1.0, 2.0]), 0.5)
        scaled = RateCoefficients(
            signal_gain=coeffs.signal_gain,
            interference=coeffs.interference,
            radar_leakage=coeffs.radar_leakage,
            noise_var=0.1 * 7.0,
            bandwidth=coeffs.bandwidth,
            tau_c=coeffs.tau_c,
            tau_p=coeffs.tau_p,
        )
        np.testing.assert_allclose(
            rate(coeffs, powers),
            rate(scaled, (powers[0] * 7.0, powers[1] * 7.0)),
            rtol=1e-12,
        )

    def test_sinr_monotonicity(self):
        coeffs = self.make_coeffs()
        base = (np.array([1.0, 2.0]), 0.5)
        s0 = sinr(coeffs, base)
        up_own = sinr(coeffs, (np.array([1.1, 2.0]), 0.5))
        assert up_own[0] > s0[0]
        up_other = sinr(coeffs, (np.array([1.0, 2.2]), 0.5))
        assert up_other[0] < s0[0]
        up_radar = sinr(coeffs, (np.array([1.0, 2.0]), 0.8))
        assert np.all(up_radar < s0)

    def test_prelog_and_frame_fractions(self):
        coeffs = self.make_coeffs()
        assert coeffs.tau_d == 198
        powers = (np.array([1.0, 2.0]), 0.5)
        expected = 1e6 * (198 / 200) * np.log2(1.0 + sinr(coeffs, powers))
        np.testing.assert_allclose(rate(coeffs, powers), expected, rtol=1e-12)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RateCoefficients(
                signal_gain=np.array([0.0]),
                interference=np.zeros((1, 1)),
                radar_leakage=np.zeros(1),
                noise_var=0.1,
                bandwidth=1e6,
                tau_c=200,
                tau_p=2,
            )
        coeffs = self.make_coeffs()
        with pytest.raises(ValueError):
            sinr(coeffs, (np.array([-1.0, 0.0]), 0.0))


class TestTable1LineOfSight:
    @pytest.mark.parametrize("estimator", ["pm", "lmmse"])
    def test_sweep_with_near_orthogonal_users_completes(self, estimator):
        """Table1 LoS sweeps, ZFR, 50 scenarios.

        Trials 7, 14, 19 and 49 hold LoS users nearly orthogonal to the strong
        users' steering vectors; dense traces left imaginary residues up to
        4.9e-6 of tr(C_j Hbar_k) there and the sweep aborted.
        """
        cfg = table1_preset().replace(
            channel_model="los", estimator=estimator, radar_beam="zfr", n_scenarios=50
        )
        result = run_rate_experiment(cfg)
        trials = result.column("trial", allocator="uniform")
        assert sorted(set(trials.tolist())) == list(range(50))
        rates = result.column("rate_bps")
        assert np.all(np.isfinite(rates)) and np.all(rates > 0)


class TestDenseFilterArgument:
    """``e_matrices`` is only checked against the structured filters."""

    NOISE = 0.02

    def setup_method(self):
        self.book = PilotBook.dft(3, 2, power=0.1)
        self.stats = [
            stats_of(ChannelModelKind.RICE, beta=1.0, k_factor=2.0),
            stats_of(ChannelModelKind.LOS, beta=0.5, angles=DIR2),
            stats_of(ChannelModelKind.RAYLEIGH, beta=2.0),
        ]

    def test_matching_filters_give_the_structured_coefficients(self):
        e_list, _ = lmmse_matrices(self.book, self.stats, GEOM, self.NOISE)
        dense = coefficients(self.stats, self.book, Estimator.LMMSE, self.NOISE, tuple(e_list))
        plain = coefficients(self.stats, self.book, Estimator.LMMSE, self.NOISE)
        for field in ("signal_gain", "interference", "radar_leakage"):
            np.testing.assert_array_equal(getattr(dense, field), getattr(plain, field))

    def test_mismatched_filters_rejected(self):
        e_list, _ = lmmse_matrices(self.book, self.stats, GEOM, self.NOISE)
        off = np.stack(e_list)
        off[1] *= 1.0 + 1e-7
        with pytest.raises(ValueError, match="differ"):
            coefficients(self.stats, self.book, Estimator.LMMSE, self.NOISE, off)
        pm_filters = np.broadcast_to(np.eye(16), (3, 16, 16)) / np.sqrt(0.1)
        with pytest.raises(ValueError, match="differ"):
            coefficients(self.stats, self.book, Estimator.LMMSE, self.NOISE, pm_filters)
        with pytest.raises(ValueError, match="shape"):
            coefficients(self.stats, self.book, Estimator.LMMSE, self.NOISE, np.stack(e_list)[:2])


@pytest.mark.parametrize("estimator", ["pm", "lmmse"])
def test_deployment_statistics_give_the_coefficients_of_their_own_book(estimator):
    """A realization's statistics carry its pilot book, so ``rate_coefficients`` of
    them equals ``build_rate_coefficients`` of its channel statistics bit for bit."""
    cfg = desk_preset().replace(channel_model="rice", estimator=estimator)
    real = realize_scenario(cfg, np.random.default_rng([cfg.seed, 0x0AC]))
    assert real.statistics.book is real.book
    beam = pbr_beam(steering_vector(real.geom, DIR2))
    got = rate_coefficients(real.statistics, beam, real.noise_var, 1e6, cfg.tau_c)
    want = build_rate_coefficients(
        list(real.stats), real.geom, real.book, real.estimator, beam,
        real.noise_var, real.noise_var, 1e6, cfg.tau_c,
    )
    for field in ("signal_gain", "interference", "radar_leakage"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert (got.noise_var, got.tau_c, got.tau_p) == (real.noise_var, cfg.tau_c, 2)
