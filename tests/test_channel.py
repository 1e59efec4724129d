import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.channel import (
    SPEED_OF_LIGHT,
    ChannelModelKind,
    ChannelStats,
    LogDistancePathLoss,
    TargetChannel,
    draw_channels,
    hbar_matrix,
    k_factor_from_los_probability,
    los_probability,
    target_alpha,
)

GEOM = ArrayGeometry.half_wavelength(2, 2, 0.1)
DIR = Direction(azimuth=0.6, elevation=1.2)


class TestKFactor:
    def test_half_probability_gives_unit_factor(self):
        assert k_factor_from_los_probability(0.5) == 1.0

    def test_zero_probability_gives_zero_factor(self):
        assert k_factor_from_los_probability(0.0) == 0.0

    def test_rejects_certain_los_and_out_of_range(self):
        with pytest.raises(ValueError):
            k_factor_from_los_probability(1.0)
        with pytest.raises(ValueError):
            k_factor_from_los_probability(-0.1)

    def test_matches_independent_evaluation_at_50m(self):
        d = 50.0
        p_ref = min(18.0 / d, 1.0) * (1.0 - np.exp(-d / 63.0)) + np.exp(-d / 63.0)
        assert np.isclose(los_probability(d), p_ref, rtol=1e-12)
        assert np.isclose(
            k_factor_from_los_probability(los_probability(d)), p_ref / (1.0 - p_ref)
        )


class TestHbarMatrix:
    def test_rayleigh_is_scaled_identity(self):
        stats = ChannelStats(beta=2.0, kind=ChannelModelKind.RAYLEIGH, angles=DIR)
        np.testing.assert_allclose(hbar_matrix(stats, GEOM), 2.0 * np.eye(4))

    def test_rice_at_zero_factor_equals_rayleigh(self):
        rice = ChannelStats(beta=1.7, kind=ChannelModelKind.RICE, angles=DIR, k_factor=0.0)
        ray = ChannelStats(beta=1.7, kind=ChannelModelKind.RAYLEIGH, angles=DIR)
        np.testing.assert_allclose(hbar_matrix(rice, GEOM), hbar_matrix(ray, GEOM))

    def test_rice_matches_direct_formula(self):
        stats = ChannelStats(beta=1.0, kind=ChannelModelKind.RICE, angles=DIR, k_factor=3.0)
        a = steering_vector(GEOM, DIR)
        ref = 1.0 / 4.0 * (3.0 * np.outer(a, a.conj()) + np.eye(4))
        np.testing.assert_allclose(hbar_matrix(stats, GEOM), ref, atol=1e-14)

    @pytest.mark.parametrize(
        "kind,k_factor",
        [
            (ChannelModelKind.RAYLEIGH, 0.0),
            (ChannelModelKind.LOS, 0.0),
            (ChannelModelKind.RICE, 2.5),
        ],
    )
    def test_trace_is_beta_times_elements(self, kind, k_factor):
        stats = ChannelStats(beta=0.37, kind=kind, angles=DIR, k_factor=k_factor)
        hbar = hbar_matrix(stats, GEOM)
        assert np.isclose(np.trace(hbar).real, 0.37 * GEOM.n_elements, rtol=1e-12)
        np.testing.assert_allclose(hbar, hbar.conj().T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(hbar)) >= -1e-12

    def test_rice_large_factor_approaches_los(self):
        stats = ChannelStats(beta=0.8, kind=ChannelModelKind.RICE, angles=DIR, k_factor=1e6)
        a = steering_vector(GEOM, DIR)
        ref = 0.8 * np.outer(a, a.conj())
        err = np.linalg.norm(hbar_matrix(stats, GEOM) - ref) / np.linalg.norm(ref)
        assert err < 1e-5


class TestDraws:
    def test_los_norm_is_deterministic(self):
        stats = ChannelStats(beta=0.9, kind=ChannelModelKind.LOS, angles=DIR)
        rng = np.random.default_rng(3)
        for h in draw_channels([stats], GEOM, 5, rng)[0]:
            assert np.isclose(np.linalg.norm(h) ** 2, 0.9 * GEOM.n_elements, rtol=1e-12)

    def test_rayleigh_sample_covariance(self):
        stats = ChannelStats(beta=1.3, kind=ChannelModelKind.RAYLEIGH, angles=DIR)
        rng = np.random.default_rng(5)
        n = 100_000
        h = draw_channels([stats], GEOM, n, rng)[0]
        cov = np.einsum("na,nb->ab", h, h.conj()) / n
        ref = hbar_matrix(stats, GEOM)
        assert np.linalg.norm(cov - ref) / np.linalg.norm(ref) < 0.02

    @pytest.mark.parametrize("k_factor", [0.0, 4.0])
    def test_rice_second_moment_matches_hbar(self, k_factor):
        stats = ChannelStats(
            beta=1.1, kind=ChannelModelKind.RICE, angles=DIR, k_factor=k_factor
        )
        rng = np.random.default_rng(9)
        n = 100_000
        h = draw_channels([stats], GEOM, n, rng)[0]
        cov = np.einsum("na,nb->ab", h, h.conj()) / n
        ref = hbar_matrix(stats, GEOM)
        assert np.linalg.norm(cov - ref) / np.linalg.norm(ref) < 0.03

    def test_rice_zero_factor_matches_rayleigh_distribution(self):
        # Same beta, zero K: the Rice mixture collapses onto the Rayleigh draw.
        rice = ChannelStats(beta=2.0, kind=ChannelModelKind.RICE, angles=DIR, k_factor=0.0)
        rng = np.random.default_rng(13)
        n = 50_000
        h = draw_channels([rice], GEOM, n, rng)[0]
        cov = np.einsum("na,nb->ab", h, h.conj()) / n
        assert np.linalg.norm(cov - 2.0 * np.eye(4)) / np.linalg.norm(2.0 * np.eye(4)) < 0.03
        assert abs(h.mean()) < 0.05

    def test_users_draw_in_turn(self):
        all_stats = [
            ChannelStats(beta=1.0, kind=ChannelModelKind.RAYLEIGH, angles=DIR),
            ChannelStats(beta=0.5, kind=ChannelModelKind.LOS, angles=DIR),
            ChannelStats(beta=2.0, kind=ChannelModelKind.RICE, angles=DIR, k_factor=3.0),
        ]
        batch = draw_channels(all_stats, GEOM, 7, np.random.default_rng(21))
        assert batch.shape == (3, 7, GEOM.n_elements)
        rng = np.random.default_rng(21)
        one_by_one = np.concatenate([draw_channels([s], GEOM, 7, rng) for s in all_stats])
        np.testing.assert_array_equal(batch, one_by_one)


class TestTarget:
    def test_delay_and_fourth_power_law(self):
        alpha1, tau1 = target_alpha(100.0, GEOM, rcs=0.1253, carrier=3e9)
        alpha2, tau2 = target_alpha(200.0, GEOM, rcs=0.1253, carrier=3e9)
        assert np.isclose(tau1, 2.0 * 100.0 / SPEED_OF_LIGHT, rtol=1e-12)
        assert np.isclose(tau2, 2.0 * tau1, rtol=1e-12)
        assert np.isclose(abs(alpha2), abs(alpha1) / 4.0, rtol=1e-12)

    def test_magnitude_matches_scalar_oracle(self):
        wavelength = 0.1
        geom = ArrayGeometry.half_wavelength(10, 10, wavelength)
        carrier = SPEED_OF_LIGHT / wavelength
        alpha, _ = target_alpha(100.0, geom, rcs=0.1253, carrier=carrier)
        loss = (4.0 * np.pi) ** 3 / wavelength**2 * 100.0**4
        assert np.isclose(abs(alpha), 100 * np.sqrt(0.1253 / loss), rtol=1e-12)

    def test_two_way_matrix_is_rank_one(self):
        rng = np.random.default_rng(17)
        alpha, tau = target_alpha(150.0, GEOM, rng=rng)
        tc = TargetChannel.from_geometry(GEOM, alpha, DIR, tau, doppler=600.0)
        s = np.linalg.svd(tc.two_way_matrix, compute_uv=False)
        assert s[1] < 1e-10 * s[0]
        a = steering_vector(GEOM, DIR)
        np.testing.assert_allclose(
            tc.two_way_matrix, alpha * np.outer(a, a.conj()), atol=1e-14
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            target_alpha(0.0, GEOM)
        with pytest.raises(ValueError):
            target_alpha(100.0, GEOM, rcs=-1.0)


class TestLargeScale:
    def test_log_distance_without_shadowing(self):
        model = LogDistancePathLoss(pl0_db=30.0, exponent=3.5, ref_distance=1.0, shadowing_db=0.0)
        beta = model.sample_beta(100.0)
        assert np.isclose(10.0 * np.log10(beta), -30.0 - 35.0 * 2.0, rtol=1e-12)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            ChannelStats(beta=0.0, kind=ChannelModelKind.RAYLEIGH, angles=DIR)
        with pytest.raises(ValueError):
            ChannelStats(beta=1.0, kind=ChannelModelKind.RICE, angles=DIR, k_factor=-1.0)
