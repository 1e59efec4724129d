import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.beamform import DegenerateDirectionError, RadarBeamKind, beam_set, pbr_beam, zfr_beam
from jcsim.channel import draw_channels
from jcsim.estimation import estimate
from jcsim.harness.config import desk_preset
from jcsim.harness.scenario import draw_scan_direction, realize_scenario
from oracles import gram_schmidt_zfr

GEOM = ArrayGeometry.half_wavelength(4, 4, 0.1)
DIR = Direction(azimuth=0.5, elevation=1.1)
A = steering_vector(GEOM, DIR)


def random_channels(rng, k, n_a=None):
    n_a = GEOM.n_elements if n_a is None else n_a
    return rng.standard_normal((k, n_a)) + 1j * rng.standard_normal((k, n_a))


def matched_beams(estimates):
    """The user rows of ``beam_set``: each estimate matched by a unit-norm beam."""
    return beam_set(RadarBeamKind.PBR, A, estimates)[..., :-1, :]


class TestMatchedBeam:
    def test_canonical_vector(self):
        e1 = np.zeros((1, GEOM.n_elements), dtype=complex)
        e1[0, 0] = 3.0
        np.testing.assert_allclose(matched_beams(e1), np.eye(GEOM.n_elements)[:1])

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = matched_beams(random_channels(rng, 1))[0]
            assert np.isclose(np.linalg.norm(w), 1.0, atol=1e-12)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        h = random_channels(rng, 1)
        alpha = 2.0 * np.exp(1j * 0.7)
        np.testing.assert_allclose(
            matched_beams(alpha * h), np.exp(1j * 0.7) * matched_beams(h), atol=1e-12
        )

    def test_zero_estimate_rejected(self):
        estimates = random_channels(np.random.default_rng(10), 3)
        estimates[1] = 0.0
        with pytest.raises(ValueError):
            matched_beams(estimates)


class TestPbrBeam:
    def test_full_coherent_gain(self):
        a = steering_vector(GEOM, DIR)
        w = pbr_beam(A)
        assert np.isclose(abs(a.conj() @ w) ** 2, GEOM.n_elements, rtol=1e-12)

    def test_broadside_all_equal(self):
        w = pbr_beam(steering_vector(GEOM, Direction(azimuth=0.0, elevation=np.pi / 2)))
        np.testing.assert_allclose(w, np.full(16, 0.25), atol=1e-14)

    def test_is_scaled_steering_vector(self):
        np.testing.assert_allclose(
            pbr_beam(A), steering_vector(GEOM, DIR) / 4.0, atol=1e-14
        )


class TestZfrBeam:
    def test_no_users_reduces_to_pbr(self):
        w = zfr_beam(A, np.zeros((0, GEOM.n_elements), dtype=complex))
        np.testing.assert_allclose(w, pbr_beam(A), atol=1e-14)
        w = zfr_beam(A, np.zeros((3, 0, GEOM.n_elements), dtype=complex))
        assert w.shape == (3, GEOM.n_elements)
        np.testing.assert_allclose(w, np.broadcast_to(pbr_beam(A), w.shape), atol=1e-14)

    def test_nulls_every_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            estimates = random_channels(rng, 4)
            w = zfr_beam(A, estimates)
            assert np.isclose(np.linalg.norm(w), 1.0, atol=1e-12)
            assert np.max(np.abs(estimates.conj() @ w)) <= 1e-10

    def test_matches_gram_schmidt_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            estimates = random_channels(rng, 3)
            w = zfr_beam(A, estimates)
            ref = gram_schmidt_zfr(steering_vector(GEOM, DIR), estimates)
            np.testing.assert_allclose(w, ref, atol=1e-9)

    def test_gain_never_exceeds_pbr(self):
        rng = np.random.default_rng(4)
        a = steering_vector(GEOM, DIR)
        pbr_gain = abs(a.conj() @ pbr_beam(A)) ** 2
        for _ in range(10):
            w = zfr_beam(A, random_channels(rng, 5))
            assert abs(a.conj() @ w) ** 2 <= pbr_gain + 1e-9

    def test_invariant_under_span_preserving_recombination(self):
        rng = np.random.default_rng(5)
        estimates = random_channels(rng, 3)
        mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(np.linalg.det(mix)) > 1e-6
        w1 = zfr_beam(A, estimates)
        w2 = zfr_beam(A, mix @ estimates)
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_rank_deficient_estimates_handled(self):
        rng = np.random.default_rng(6)
        base = random_channels(rng, 2)
        estimates = np.vstack([base, base[0] + base[1], 2.0 * base[0]])
        w = zfr_beam(A, estimates)
        assert np.max(np.abs(estimates.conj() @ w)) <= 1e-9

    @pytest.mark.parametrize(
        "estimator, builder",
        [
            pytest.param("pm", "zfr_beam", id="pm"),
            pytest.param("lmmse", "zfr_beam", id="lmmse"),
            pytest.param("pm", "beam_set", id="pm-beam_set"),
            pytest.param("lmmse", "beam_set", id="lmmse-beam_set"),
        ],
    )
    def test_stack_matches_single_calls_under_pilot_reuse(self, estimator, builder):
        """A stack of 64 estimate sets gives, bit for bit, the beams of 64 single calls.

        ``zfr_beam`` gives the radar beam alone; ``beam_set`` gives the user
        beams with the ZFR beam last.  Either way every beam has unit norm and
        the radar beam nulls every estimate.
        """
        cfg = desk_preset().replace(estimator=estimator)
        rng = np.random.default_rng([cfg.seed, 0x2F])
        real = realize_scenario(cfg, rng)
        a = steering_vector(real.geom, draw_scan_direction(cfg, rng))
        h = draw_channels(list(real.stats), real.geom, 64, rng)
        stack = estimate(h, real.book, real.noise_var, real.statistics.filters, rng)
        stack = stack.swapaxes(0, 1)
        assert real.book.tau_p < real.book.n_users
        sv = np.linalg.svd(stack, compute_uv=False)
        ranks = np.sum(sv > 1e-10 * sv[:, :1], axis=-1)
        if estimator == "pm":
            assert np.all(ranks == real.book.tau_p)

        def build(estimates):  # (..., beams, N_A), the radar beam last
            if builder == "zfr_beam":
                return zfr_beam(a, estimates)[..., None, :]
            return beam_set(RadarBeamKind.ZFR, a, estimates)

        w = build(stack)
        n_beams = 1 if builder == "zfr_beam" else real.book.n_users + 1
        assert w.shape == (64, n_beams, real.geom.n_elements)
        for est, w_one in zip(stack, w):
            np.testing.assert_array_equal(w_one, build(est))
            leakage = np.abs(est.conj() @ w_one[-1]) / np.linalg.norm(est, axis=-1)
            assert leakage.max() <= 1e-10
        np.testing.assert_allclose(np.linalg.norm(w, axis=-1), 1.0, atol=1e-12)

    def test_needs_more_antennas_than_users(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            zfr_beam(A, random_channels(rng, 16))

    def test_degenerate_direction_raises(self):
        a = steering_vector(GEOM, DIR)
        rng = np.random.default_rng(8)
        estimates = np.vstack([a[None, :], random_channels(rng, 2)])
        with pytest.raises(DegenerateDirectionError):
            zfr_beam(A, estimates)
