import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.beamform import (
    BeamformerSet,
    DegenerateDirectionError,
    RadarBeamKind,
    matched_beam,
    pbr_beam,
    zfr_beam,
)
from jcsim.channel import draw_channels
from jcsim.estimation import estimate, training_statistics
from jcsim.harness.config import desk_preset
from jcsim.harness.scenario import draw_scan_direction, realize_scenario
from oracles import gram_schmidt_zfr

GEOM = ArrayGeometry.half_wavelength(4, 4, 0.1)
DIR = Direction(azimuth=0.5, elevation=1.1)


def random_channels(rng, k, n_a=None):
    n_a = GEOM.n_elements if n_a is None else n_a
    return rng.standard_normal((k, n_a)) + 1j * rng.standard_normal((k, n_a))


class TestMatchedBeam:
    def test_canonical_vector(self):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 3.0
        np.testing.assert_allclose(matched_beam(e1), np.eye(4)[0])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = matched_beam(random_channels(rng, 1)[0])
            assert np.isclose(np.linalg.norm(w), 1.0, atol=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        h = random_channels(rng, 1)[0]
        alpha = 2.0 * np.exp(1j * 0.7)
        np.testing.assert_allclose(
            matched_beam(alpha * h), np.exp(1j * 0.7) * matched_beam(h), atol=1e-12
        )

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            matched_beam(np.zeros(4, dtype=complex))


class TestPbrBeam:
    def test_full_coherent_gain(self):
        a = steering_vector(GEOM, DIR)
        w = pbr_beam(GEOM, DIR)
        assert np.isclose(abs(a.conj() @ w) ** 2, GEOM.n_elements, rtol=1e-12)

    def test_broadside_all_equal(self):
        w = pbr_beam(GEOM, Direction(azimuth=0.0, elevation=np.pi / 2))
        np.testing.assert_allclose(w, np.full(16, 0.25), atol=1e-14)

    def test_is_scaled_steering_vector(self):
        np.testing.assert_allclose(
            pbr_beam(GEOM, DIR), steering_vector(GEOM, DIR) / 4.0, atol=1e-14
        )


class TestZfrBeam:
    def test_no_users_reduces_to_pbr(self):
        w = zfr_beam(GEOM, DIR, np.zeros((0, GEOM.n_elements), dtype=complex))
        np.testing.assert_allclose(w, pbr_beam(GEOM, DIR), atol=1e-14)
        w = zfr_beam(GEOM, DIR, np.zeros((3, 0, GEOM.n_elements), dtype=complex))
        assert w.shape == (3, GEOM.n_elements)
        np.testing.assert_allclose(w, np.broadcast_to(pbr_beam(GEOM, DIR), w.shape), atol=1e-14)

    def test_nulls_every_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            estimates = random_channels(rng, 4)
            w = zfr_beam(GEOM, DIR, estimates)
            assert np.isclose(np.linalg.norm(w), 1.0, atol=1e-12)
            assert np.max(np.abs(estimates.conj() @ w)) <= 1e-10

    def test_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            estimates = random_channels(rng, 3)
            w = zfr_beam(GEOM, DIR, estimates)
            ref = gram_schmidt_zfr(steering_vector(GEOM, DIR), estimates)
            np.testing.assert_allclose(w, ref, atol=1e-9)

    def test_gain_never_exceeds_pbr(self):
        rng = np.random.default_rng(4)
        a = steering_vector(GEOM, DIR)
        pbr_gain = abs(a.conj() @ pbr_beam(GEOM, DIR)) ** 2
        for _ in range(10):
            w = zfr_beam(GEOM, DIR, random_channels(rng, 5))
            assert abs(a.conj() @ w) ** 2 <= pbr_gain + 1e-9

    def test_invariant_under_span_preserving_recombination(self):
        rng = np.random.default_rng(5)
        estimates = random_channels(rng, 3)
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(np.linalg.det(mix)) > 1e-6
        w1 = zfr_beam(GEOM, DIR, estimates)
        w2 = zfr_beam(GEOM, DIR, mix @ estimates)
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_rank_deficient_estimates_handled(self):
        rng = np.random.default_rng(6)
        base = random_channels(rng, 2)
        estimates = np.vstack([base, base[0] + base[1], 2.0 * base[0]])
        w = zfr_beam(GEOM, DIR, estimates)
        assert np.max(np.abs(estimates.conj() @ w)) <= 1e-9

    @pytest.mark.parametrize("estimator", ["pm", "lmmse"])
    def test_stack_matches_single_calls_under_pilot_reuse(self, estimator):
        cfg = desk_preset().replace(estimator=estimator)
        rng = np.random.default_rng([cfg.seed, 0x2F])
        real = realize_scenario(cfg, rng)
        direction = draw_scan_direction(cfg, rng)
        filters = training_statistics(
            real.book, list(real.stats), real.geom, real.noise_var_ul, real.estimator
        ).filters
        h = draw_channels(list(real.stats), real.geom, 64, rng)
        stack = estimate(h, real.book, real.noise_var_ul, filters, rng).swapaxes(0, 1)
        assert real.book.tau_p < real.book.n_users
        sv = np.linalg.svd(stack, compute_uv=False)
        ranks = np.sum(sv > 1e-10 * sv[:, :1], axis=-1)
        if estimator == "pm":
            assert np.all(ranks == real.book.tau_p)
        w = zfr_beam(real.geom, direction, stack)
        assert w.shape == (64, real.geom.n_elements)
        for est, w_one in zip(stack, w):
            np.testing.assert_allclose(w_one, zfr_beam(real.geom, direction, est), rtol=0, atol=1e-12)
            leakage = np.abs(est.conj() @ w_one) / np.linalg.norm(est, axis=-1)
            assert leakage.max() <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(w, axis=-1), 1.0, atol=1e-12)

    def test_needs_more_antennas_than_users(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            zfr_beam(GEOM, DIR, random_channels(rng, 16))

    def test_degenerate_direction_raises(self):
        a = steering_vector(GEOM, DIR)
        rng = np.random.default_rng(8)
        estimates = np.vstack([a[None, :], random_channels(rng, 2)])
        with pytest.raises(DegenerateDirectionError):
            zfr_beam(GEOM, DIR, estimates)


class TestBeamformerSet:
    def test_invariants_enforced(self):
        rng = np.random.default_rng(9)
        good = np.stack([matched_beam(h) for h in random_channels(rng, 2)])
        BeamformerSet(
            user_beams=good,
            radar_beam=pbr_beam(GEOM, DIR),
            radar_kind=RadarBeamKind.PBR,
            radar_direction=DIR,
        )
        with pytest.raises(ValueError):
            BeamformerSet(
                user_beams=2.0 * good,
                radar_beam=pbr_beam(GEOM, DIR),
                radar_kind=RadarBeamKind.PBR,
                radar_direction=DIR,
            )
        with pytest.raises(ValueError):
            BeamformerSet(
                user_beams=good,
                radar_beam=0.5 * pbr_beam(GEOM, DIR),
                radar_kind=RadarBeamKind.PBR,
                radar_direction=DIR,
            )
