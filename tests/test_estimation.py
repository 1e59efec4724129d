import dataclasses

import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.channel import ChannelModelKind, ChannelStats, draw_channels, hbar_matrix
from jcsim.estimation import (
    EstimationError,
    Estimator,
    PilotBook,
    _dft_pilots,
    estimate,
    lmmse_matrices,
    training_statistics,
)
from jcsim.harness.config import desk_preset
from jcsim.harness.scenario import realize_scenario
from jcsim.lowrank import IdentityPlusLowRank
from oracles import (
    correlation_matrices_oracle,
    lmmse_filters_oracle,
    pilot_correlation_oracle,
)

GEOM = ArrayGeometry.half_wavelength(4, 4, 0.1)
DIR = Direction(azimuth=0.4, elevation=1.3)


def rayleigh_stats(beta=1.0):
    return ChannelStats(beta=beta, kind=ChannelModelKind.RAYLEIGH, angles=DIR)


class TestPilotBook:
    def test_dft_pilots_unit_norm_and_orthogonal(self):
        book = PilotBook.dft(4, 4, power=0.1)
        np.testing.assert_allclose(np.linalg.norm(book.pilots, axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(book.gram()), np.eye(4), atol=1e-12)

    def test_dft_matrix_is_built_once_and_read_only(self, monkeypatch):
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *args, **kw: calls.append(args) or fft(*args, **kw))
        _dft_pilots.cache_clear()
        first = PilotBook.dft(7, 3, power=0.2)
        second = PilotBook.dft(7, 3, power=0.5)
        assert len(calls) == 1
        assert np.array_equal(second.pilots, first.pilots)
        shared = _dft_pilots(7, 3)
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0

    def test_cyclic_reuse_creates_contamination(self):
        book = PilotBook.dft(4, 2, power=0.1)
        gram = np.abs(book.gram())
        # Users 0/2 and 1/3 share a sequence; the pairs are orthogonal.
        assert np.isclose(gram[0, 2], 1.0) and np.isclose(gram[1, 3], 1.0)
        assert np.isclose(gram[0, 1], 0.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PilotBook(pilots=2.0 * np.eye(2), powers=np.ones(2))
        with pytest.raises(ValueError):
            PilotBook(pilots=np.eye(2), powers=np.array([1.0, 0.0]))

    def test_unit_norm_tolerance_edges(self):
        """A column norm is accepted when |norm - 1| <= 1e-9 + 1e-5."""
        PilotBook(pilots=(1.0 + 5e-6) * np.eye(2), powers=np.ones(2))
        with pytest.raises(ValueError):
            PilotBook(pilots=(1.0 + 2e-5) * np.eye(2), powers=np.ones(2))
        with pytest.raises(ValueError):
            PilotBook(pilots=np.full((2, 1), np.nan), powers=np.ones(1))


def identity_filters(n_users):
    """A_k = I for every user, so ``estimate`` returns y_{p,k} itself."""
    return IdentityPlusLowRank.over(
        np.zeros((GEOM.n_elements, 1)), np.ones(n_users), np.zeros((n_users, 1, 1))
    )


def pm_filters(book, stats):
    """The PM filters I / sqrt(p_k); they do not depend on the noise level."""
    return training_statistics(book, stats, GEOM, 1.0, Estimator.PM).filters


def one_channel(stats, rng):
    return draw_channels([stats], GEOM, 1, rng)[0, 0]


def correlations(channels, book, noise_var, rng):
    """y_{p,k} of a (K, N_A) set of channels, one draw: shape (K, N_A)."""
    channels = np.asarray(channels)[:, None, :]
    return estimate(channels, book, noise_var, identity_filters(book.n_users), rng)[:, 0]


def pilot_noise(seed, n, book, noise_var):
    """The (n, N_A, tau_p) pilot noise ``estimate`` draws from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    shape = (n, GEOM.n_elements, book.tau_p)
    return np.sqrt(noise_var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestTrainingBasis:
    def test_basis_is_the_users_stacked_steering_vectors_in_c_order(self):
        """C order matters: a column-major basis gives the Gram matmul other bits."""
        rng = np.random.default_rng(8)
        geom = ArrayGeometry.half_wavelength(10, 10, 0.1)
        stats = [
            ChannelStats(
                beta=1.0, kind=ChannelModelKind.RICE, k_factor=2.0,
                angles=Direction(rng.uniform(-np.pi, np.pi), rng.uniform(0.0, np.pi)),
            )
            for _ in range(10)
        ]
        book = PilotBook.dft(10, 5, power=0.1)
        basis = training_statistics(book, stats, geom, 0.1, Estimator.LMMSE).hbar.basis
        assert basis.flags.c_contiguous
        assert np.array_equal(basis, np.stack([steering_vector(geom, s.angles) for s in stats], 1))


class TestTrainingObservation:
    def test_noiseless_single_user_canonical_pilot(self):
        rng = np.random.default_rng(0)
        book = PilotBook(pilots=np.eye(3)[:, :1], powers=np.array([0.25]))
        h = one_channel(rayleigh_stats(), rng)
        y = correlations([h], book, noise_var=0.0, rng=rng)
        np.testing.assert_allclose(y[0], 0.5 * h, atol=1e-14)

    def test_zero_channels_pure_noise_variance(self):
        rng = np.random.default_rng(1)
        book = PilotBook.dft(2, 2, power=1.0)
        noise_var = 0.5
        zeros = np.zeros((2, 10_000, GEOM.n_elements), dtype=complex)
        draws = estimate(zeros, book, noise_var, identity_filters(2), rng)
        var = np.mean(np.abs(draws) ** 2)
        assert abs(var - noise_var) / noise_var < 0.05

    def test_mean_matches_signal_term(self):
        rng = np.random.default_rng(2)
        book = PilotBook.dft(3, 3, power=0.4)
        channels = draw_channels([rayleigh_stats()] * 3, GEOM, 1, rng)
        signal = np.sqrt(0.4) * (book.gram().T @ channels[:, 0])  # row k: sum_i (phi_i^H phi_k) h_i
        repeated = np.broadcast_to(channels, (3, 10_000, GEOM.n_elements))
        mean = estimate(repeated, book, 0.2, identity_filters(3), rng).mean(axis=1)
        assert np.linalg.norm(mean - signal) / np.linalg.norm(signal) < 0.02

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        book = PilotBook.dft(3, 3, power=1.0)
        with pytest.raises(ValueError):
            estimate(np.zeros((2, 1, 4), dtype=complex), book, 0.1, identity_filters(3), rng)


class TestCorrelate:
    def test_orthonormal_noiseless_recovers_scaled_channel(self):
        rng = np.random.default_rng(4)
        book = PilotBook.dft(2, 2, power=0.09)
        channels = draw_channels([rayleigh_stats()] * 2, GEOM, 1, rng)[:, 0]
        y = correlations(channels, book, 0.0, rng)
        for k in range(2):
            np.testing.assert_allclose(y[k], 0.3 * channels[k], atol=1e-12)

    def test_identical_pilots_superpose(self):
        rng = np.random.default_rng(5)
        pilot = np.array([[1.0], [0.0]]) / 1.0
        book = PilotBook(
            pilots=np.hstack([pilot, pilot]), powers=np.array([0.25, 0.16])
        )
        channels = draw_channels([rayleigh_stats()] * 2, GEOM, 1, rng)[:, 0]
        y = correlations(channels, book, 0.0, rng)
        np.testing.assert_allclose(
            y[0], 0.5 * channels[0] + 0.4 * channels[1], atol=1e-12
        )

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        book = PilotBook.dft(3, 3, power=1.0)
        channels = draw_channels([rayleigh_stats(b) for b in (0.5, 1.0, 2.0)], GEOM, 4, rng)
        y = estimate(channels, book, 0.3, identity_filters(3), np.random.default_rng(60))
        ref = pilot_correlation_oracle(channels, pilot_noise(60, 4, book, 0.3), book)
        np.testing.assert_allclose(y, ref, atol=1e-12)


class TestPmEstimate:
    def test_noiseless_orthonormal_is_exact(self):
        rng = np.random.default_rng(7)
        book = PilotBook.dft(2, 2, power=0.3)
        stats = [rayleigh_stats()] * 2
        channels = draw_channels(stats, GEOM, 1, rng)
        h_hat = estimate(channels, book, 0.0, pm_filters(book, stats), rng)
        for k in range(2):
            np.testing.assert_allclose(h_hat[k], channels[k], atol=1e-12)

    def test_unit_power_is_identity(self):
        v = np.arange(GEOM.n_elements) + 1j
        book = PilotBook.dft(1, 1, power=1.0)
        filters = pm_filters(book, [rayleigh_stats()])
        np.testing.assert_allclose(filters.H.apply(v[None, None, :])[0, 0], v)

    def test_contaminated_estimate_algebra(self):
        rng = np.random.default_rng(8)
        pilot = np.array([[1.0], [0.0]])
        book = PilotBook(
            pilots=np.hstack([pilot, pilot]), powers=np.array([0.25, 0.09])
        )
        stats = [rayleigh_stats()] * 2
        channels = draw_channels(stats, GEOM, 1, rng)[:, 0]
        h_hat = estimate(channels[:, None, :], book, 0.0, pm_filters(book, stats), rng)[0, 0]
        ref = channels[0] + np.sqrt(0.09 / 0.25) * channels[1]
        np.testing.assert_allclose(h_hat, ref, atol=1e-12)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            PilotBook(pilots=np.eye(2)[:, :1], powers=np.array([0.0]))


class TestLmmse:
    def test_orthonormal_rayleigh_scalar_shrinkage(self):
        beta, power, noise_var = 1.5, 0.2, 0.3
        book = PilotBook.dft(2, 2, power=power)
        stats = [rayleigh_stats(beta), rayleigh_stats(beta)]
        e_list, ry_list = lmmse_matrices(book, stats, GEOM, noise_var)
        shrink = np.sqrt(power) * beta / (power * beta + noise_var)
        for k in range(2):
            np.testing.assert_allclose(
                e_list[k], shrink * np.eye(GEOM.n_elements), atol=1e-12
            )
            np.testing.assert_allclose(
                ry_list[k],
                (power * beta + noise_var) * np.eye(GEOM.n_elements),
                atol=1e-12,
            )

    def test_ry_hermitian_with_noise_floor(self):
        book = PilotBook.dft(4, 2, power=0.1)
        stats = [
            ChannelStats(beta=1.0, kind=ChannelModelKind.RICE, angles=DIR, k_factor=2.0),
            rayleigh_stats(0.5),
            ChannelStats(beta=0.8, kind=ChannelModelKind.LOS, angles=DIR),
            rayleigh_stats(2.0),
        ]
        noise_var = 1e-3
        _, ry_list = lmmse_matrices(book, stats, GEOM, noise_var)
        for ry in ry_list:
            np.testing.assert_allclose(ry, ry.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(ry)) >= noise_var - 1e-9

    def test_orthogonal_pilots_ry_structure(self):
        book = PilotBook.dft(3, 3, power=0.25)
        stats = [rayleigh_stats(b) for b in (0.5, 1.0, 2.0)]
        _, ry_list = lmmse_matrices(book, stats, GEOM, 0.1)
        for k, s in enumerate(stats):
            ref = 0.25 * hbar_matrix(s, GEOM) + 0.1 * np.eye(GEOM.n_elements)
            np.testing.assert_allclose(ry_list[k], ref, atol=1e-12)

    def test_shrinkage_limit_in_noise(self):
        rng = np.random.default_rng(9)
        book = PilotBook.dft(1, 1, power=1.0)
        stats = [rayleigh_stats(1.0)]
        y_pk = correlations([one_channel(stats[0], rng)], book, 0.05, rng)[0]
        norms = [
            np.linalg.norm(lmmse_matrices(book, stats, GEOM, nv)[0][0].conj().T @ y_pk)
            for nv in (0.1, 1.0, 10.0, 100.0, 1e4)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-2 * norms[0]

    def test_lmmse_mse_beats_pm(self):
        rng = np.random.default_rng(10)
        book = PilotBook.dft(2, 2, power=0.05)
        stats = [rayleigh_stats(1.0), rayleigh_stats(0.7)]
        noise_var = 0.2
        e_list, _ = lmmse_matrices(book, stats, GEOM, noise_var)
        n = 10_000
        channels = draw_channels(stats, GEOM, n, rng)
        y0 = estimate(channels, book, noise_var, identity_filters(2), rng)[0]
        mse_pm = np.linalg.norm(y0 / np.sqrt(0.05) - channels[0]) ** 2
        mse_lmmse = np.linalg.norm(y0 @ np.conj(e_list[0]) - channels[0]) ** 2
        assert mse_lmmse < mse_pm

    def test_orthogonality_principle(self):
        rng = np.random.default_rng(11)
        book = PilotBook.dft(2, 2, power=0.1)
        stats = [rayleigh_stats(1.0), rayleigh_stats(0.4)]
        noise_var = 0.3
        e_list, _ = lmmse_matrices(book, stats, GEOM, noise_var)
        acc = np.zeros((GEOM.n_elements, GEOM.n_elements), dtype=complex)
        scale = 0.0
        n = 100_000
        batch = 10_000
        for _ in range(n // batch):
            h = draw_channels(stats, GEOM, batch, rng).swapaxes(0, 1)  # (batch, K, N_A)
            noise = np.sqrt(noise_var / 2.0) * (
                rng.standard_normal((batch, GEOM.n_elements, 2))
                + 1j * rng.standard_normal((batch, GEOM.n_elements, 2))
            )
            y = np.einsum("k,bka,tk->bat", np.sqrt(book.powers), h, book.pilots.conj())
            y = y + noise
            y0 = np.einsum("bat,t->ba", y, book.pilots[:, 0])
            err = y0 @ np.conj(e_list[0]) - h[:, 0, :]
            acc += np.einsum("ba,bc->ac", err, y0.conj())
            scale += np.mean(np.abs(y0) ** 2) * batch
        assert np.linalg.norm(acc / n) < 0.03 * scale / n * GEOM.n_elements

    def test_single_user_pm_lmmse_collinear(self):
        rng = np.random.default_rng(12)
        book = PilotBook.dft(1, 1, power=0.3)
        stats = [rayleigh_stats(1.2)]
        y0 = correlations([one_channel(stats[0], rng)], book, 0.1, rng)[0]
        h_pm = pm_filters(book, stats).H.apply(y0[None, None, :])[0, 0]
        e_list, _ = lmmse_matrices(book, stats, GEOM, 0.1)
        h_lm = e_list[0].conj().T @ y0
        cos = abs(h_pm.conj() @ h_lm) / (np.linalg.norm(h_pm) * np.linalg.norm(h_lm))
        assert np.isclose(cos, 1.0, atol=1e-12)


class TestEstimate:
    def test_pm_and_lmmse_shapes_and_filters(self):
        rng = np.random.default_rng(13)
        book = PilotBook.dft(4, 2, power=0.1)
        stats = [rayleigh_stats(10.0 ** -(k + 1)) for k in range(4)]
        channels = draw_channels(stats, GEOM, 1, rng)
        pm = training_statistics(book, stats, GEOM, 1e-3, Estimator.PM)
        out_pm = estimate(channels, book, 1e-3, pm.filters, np.random.default_rng(14))
        assert out_pm.shape == (4, 1, GEOM.n_elements)
        # PM is the linear filter I / sqrt(p) for every user.
        np.testing.assert_allclose(
            pm.filters.dense(),
            np.broadcast_to(np.eye(GEOM.n_elements) / np.sqrt(0.1), (4, 16, 16)),
            atol=1e-15,
        )
        y = estimate(channels, book, 1e-3, identity_filters(4), np.random.default_rng(14))
        np.testing.assert_allclose(out_pm[0], y[0] / np.sqrt(0.1), rtol=1e-14)
        lmmse = training_statistics(book, stats, GEOM, 1e-3, Estimator.LMMSE)
        out_lm = estimate(channels, book, 1e-3, lmmse.filters, np.random.default_rng(15))
        assert out_lm.shape == (4, 1, GEOM.n_elements)
        assert len(lmmse.filters.dense()) == 4
        # Identical inputs give identical outputs.
        out_again = estimate(channels, book, 1e-3, lmmse.filters, np.random.default_rng(15))
        np.testing.assert_array_equal(out_lm, out_again)

    @pytest.mark.parametrize("estimator", ["pm", "lmmse"])
    def test_matches_dense_filters_on_triple_loop_correlation(self, estimator):
        """h_hat_k = A_k^H y_{p,k} with dense A_k and the loop y_{p,k}, under pilot reuse."""
        cfg = desk_preset().replace(channel_model="rice", estimator=estimator)
        real = realize_scenario(cfg, np.random.default_rng([cfg.seed, 0x3E]))
        assert real.book.tau_p < real.book.n_users
        stats = list(real.stats)
        hbars, ry = correlation_matrices_oracle(real.book, stats, real.geom, real.noise_var)
        if estimator == "pm":
            dense = np.broadcast_to(np.eye(real.geom.n_elements), hbars.shape) / np.sqrt(
                real.book.powers
            )[:, None, None]
        else:
            dense = lmmse_filters_oracle(hbars, ry, real.book.powers)
        filters = training_statistics(
            real.book, stats, real.geom, real.noise_var, real.estimator
        ).filters
        channels = draw_channels(stats, real.geom, 3, np.random.default_rng(16))
        got = estimate(channels, real.book, real.noise_var, filters, np.random.default_rng(17))
        noise = pilot_noise(17, 3, real.book, real.noise_var)
        y = pilot_correlation_oracle(channels, noise, real.book)
        ref = np.einsum("kab,kna->knb", dense.conj(), y)  # rows A_k^H y_{p,k}
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


DIR2 = Direction(azimuth=-0.7, elevation=1.1)
DIR3 = Direction(azimuth=1.2, elevation=1.6)


def channel(kind, beta, angles, k_factor=0.0):
    return ChannelStats(beta=beta, kind=kind, angles=angles, k_factor=k_factor)


def desk_reuse_case():
    cfg = desk_preset().replace(channel_model="rice")
    real = realize_scenario(cfg, np.random.default_rng([cfg.seed, 0x5A]))
    assert real.book.tau_p == 2 < real.book.n_users
    return real.book, list(real.stats), real.geom, real.noise_var


LOS, RAY, RICE = ChannelModelKind.LOS, ChannelModelKind.RAYLEIGH, ChannelModelKind.RICE
STRUCTURE_CASES = {
    "los_only": lambda: (
        PilotBook.dft(3, 2, power=0.1),
        [channel(LOS, 1.0, DIR), channel(LOS, 0.5, DIR2), channel(LOS, 2.0, DIR3)],
        GEOM,
        0.05,
    ),
    "rayleigh_only": lambda: (
        PilotBook.dft(3, 2, power=0.1),
        [channel(RAY, b, d) for b, d in ((0.5, DIR), (1.0, DIR2), (2.0, DIR3))],
        GEOM,
        0.05,
    ),
    # Users 0 and 2 share a pilot and an angle: U^H U is singular.
    "same_angle": lambda: (
        PilotBook.dft(3, 2, power=0.1),
        [channel(LOS, 1.0, DIR), channel(RAY, 0.8, DIR2), channel(RICE, 0.6, DIR, 2.0)],
        GEOM,
        0.05,
    ),
    "desk_pilot_reuse": desk_reuse_case,
    "no_shared_pilot": lambda: (
        PilotBook.dft(3, 3, power=0.2),
        [channel(RICE, 1.0, DIR, 3.0), channel(LOS, 0.4, DIR2), channel(RAY, 1.5, DIR3)],
        GEOM,
        0.02,
    ),
}


def assert_stack_matches(stack, dense, rtol=1e-10):
    """Each matrix of ``stack`` within ``rtol`` of its dense counterpart, in Frobenius norm."""
    error = np.linalg.norm(stack.dense() - dense, axis=(-2, -1))
    assert np.all(error <= rtol * np.linalg.norm(dense, axis=(-2, -1))), error


class TestStructuredAgainstDenseOracle:
    """Hbar_k, R_{y,k}, A_k and C_k of the x I + U B U^H stacks against dense algebra."""

    @pytest.mark.parametrize("estimator", [Estimator.PM, Estimator.LMMSE])
    @pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
    def test_stacks_match_dense(self, case, estimator):
        book, stats, geom, noise_var = STRUCTURE_CASES[case]()
        got = training_statistics(book, stats, geom, noise_var, estimator)
        hbars, ry = correlation_matrices_oracle(book, stats, geom, noise_var)
        if estimator is Estimator.PM:
            filters = np.broadcast_to(np.eye(geom.n_elements), hbars.shape) / np.sqrt(
                book.powers
            )[:, None, None]
        else:
            filters = lmmse_filters_oracle(hbars, ry, book.powers)
        covs = np.conj(np.swapaxes(filters, -1, -2)) @ ry @ filters
        assert_stack_matches(got.hbar, hbars)
        assert_stack_matches(got.ry, ry)
        assert_stack_matches(got.filters, filters)
        assert_stack_matches(got.covariances, covs)

    def test_same_angle_basis_is_rank_deficient(self):
        book, stats, geom, noise_var = STRUCTURE_CASES["same_angle"]()
        gram = training_statistics(book, stats, geom, noise_var, Estimator.LMMSE).hbar.gram
        assert np.linalg.matrix_rank(gram) == 2

    def test_lmmse_matrices_are_the_dense_stacks(self):
        book, stats, geom, noise_var = STRUCTURE_CASES["desk_pilot_reuse"]()
        e_list, ry_list = lmmse_matrices(book, stats, geom, noise_var)
        got = training_statistics(book, stats, geom, noise_var, Estimator.LMMSE)
        np.testing.assert_array_equal(np.stack(e_list), got.filters.dense())
        np.testing.assert_array_equal(np.stack(ry_list), got.ry.dense())

    def test_corrupted_core_trips_residual_check(self, monkeypatch):
        book, stats, geom, noise_var = STRUCTURE_CASES["no_shared_pilot"]()
        training_statistics(book, stats, geom, noise_var, Estimator.LMMSE)
        solve = IdentityPlusLowRank.solve

        def corrupted(self, other):
            out = solve(self, other)
            return dataclasses.replace(out, core=out.core * (1.0 + 1e-6))

        monkeypatch.setattr(IdentityPlusLowRank, "solve", corrupted)
        with pytest.raises(EstimationError, match="residual"):
            training_statistics(book, stats, geom, noise_var, Estimator.LMMSE)
