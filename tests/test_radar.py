import math

import numpy as np
import pytest

from jcsim.array import ArrayGeometry, Direction, steering_vector
from jcsim.beamform import pbr_beam
from jcsim.poweralloc import PowerAllocation
from jcsim.radar import (
    QPSK_POINTS,
    DelayDopplerGrid,
    DetectionOutcome,
    OfdmFrameConfig,
    calibrate_threshold,
    _pair_form,
    _qpsk_pair_table,
    glrt_statistic,
    qpsk_indices,
    statistic_map_from_correlation,
)
from oracles import (
    TargetChannel,
    detection_probability,
    glrt_map_oracle,
    qpsk_grid,
    statistic_map_oracle,
    synthesize_tx_grid,
    target_echo,
)

GEOM = ArrayGeometry.half_wavelength(2, 2, 0.1)
DIR = Direction(azimuth=0.4, elevation=1.3)
FRAME = OfdmFrameConfig(n_symbols=4, n_subcarriers=64, subcarrier_spacing=30e3)


def raw_word_indices(shape, seed):
    """Index j = bits 2j and 2j+1 of the raw words, and a generator past those words."""
    rng = np.random.default_rng(seed)
    size = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-size // 32))
    j = np.arange(size)
    fields = (words[j // 32] >> (2 * (j % 32)).astype(np.uint64)) & np.uint64(3)
    return fields.astype(np.int8).reshape(shape), rng


def make_beams(rng, n_users):
    """(K+1, 4): random unit-norm user beams, then the PBR beam."""
    users = rng.standard_normal((n_users, 4)) + 1j * rng.standard_normal((n_users, 4))
    users /= np.linalg.norm(users, axis=-1, keepdims=True)
    return np.vstack([users, pbr_beam(steering_vector(GEOM, DIR))])


def make_tx(rng, n_users=2, eta_users=None, eta_radar=0.5):
    beams = make_beams(rng, n_users)
    eta_users = np.full(n_users, 0.25) if eta_users is None else np.asarray(eta_users)
    powers = PowerAllocation(
        eta_users=eta_users,
        eta_radar=eta_radar,
        budget=eta_users.sum() + eta_radar,
    )
    data = qpsk_grid((n_users, FRAME.n_symbols, FRAME.n_subcarriers), rng)
    radar = qpsk_grid((FRAME.n_symbols, FRAME.n_subcarriers), rng)
    return synthesize_tx_grid(beams, powers, data, radar), beams, powers, data, radar


class TestFrameConfig:
    def test_derived_durations(self):
        assert np.isclose(FRAME.core_duration, 1.0 / 30e3)
        assert FRAME.symbol_duration > FRAME.core_duration
        assert np.isclose(FRAME.bandwidth, 64 * 30e3)

    def test_default_cp_fraction(self):
        assert np.isclose(FRAME.cp_duration, 0.07 / 30e3)

    def test_validation(self):
        with pytest.raises(ValueError):
            OfdmFrameConfig(n_symbols=0, n_subcarriers=8, subcarrier_spacing=30e3)
        with pytest.raises(ValueError):
            OfdmFrameConfig(n_symbols=4, n_subcarriers=8, subcarrier_spacing=-1.0)


class TestSymbolsAndGrid:
    def test_qpsk_unit_modulus(self):
        rng = np.random.default_rng(0)
        grid = qpsk_grid((4, 8), rng)
        np.testing.assert_allclose(np.abs(grid), 1.0, atol=1e-14)

    def test_qpsk_grid_is_points_at_the_drawn_indices(self):
        indices = qpsk_indices((3, 5), np.random.default_rng(4))
        assert indices.dtype == np.int8 and set(np.unique(indices)) <= {0, 1, 2, 3}
        np.testing.assert_array_equal(
            qpsk_grid((3, 5), np.random.default_rng(4)), QPSK_POINTS[indices]
        )

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (7, 11, 896), (7, 11, 7168)])
    def test_qpsk_int32_draw_equals_the_int64_draw(self, shape):
        """The allocating draw is the two-bit fields of the raw 64-bit words, in int8.

        The name is that of the 32-bit bounded draw this layout replaced.
        """
        for seed in range(6):
            ours = np.random.default_rng(seed)
            expected, reference = raw_word_indices(shape, seed)
            indices = qpsk_indices(shape, ours)
            assert indices.dtype == np.int8 and indices.shape == shape
            np.testing.assert_array_equal(indices, expected)
            np.testing.assert_array_equal(ours.standard_normal(5), reference.standard_normal(5))
            out = np.full(shape, 99, dtype=np.int8)
            assert qpsk_indices(shape, np.random.default_rng(seed), out=out) is out
            np.testing.assert_array_equal(out, indices)

    @pytest.mark.parametrize("shape", [(1,), (3, 5), (40, 5, 896), (3, 11, 7168), (2, 16385)])
    def test_qpsk_chunked_int8_draw_equals_the_int64_draw(self, shape):
        """Drawn into the front of a larger int8 buffer, slice by slice of 1,024 raw words,
        the indices are the two-bit fields of the words and nothing past them is written.

        (40, 5, 896) is a desk batch of 5.5 slices; (2, 16385) ends in a slice of two
        indices.  The name is that of the draw this layout replaced.
        """
        size = math.prod(shape)
        for seed in range(6):
            ours = np.random.default_rng(seed)
            expected, reference = raw_word_indices(shape, seed)
            buffer = np.full(size + 7, 99, dtype=np.int8)
            out = buffer[:size].reshape(shape)
            assert qpsk_indices(shape, ours, out=out) is out
            np.testing.assert_array_equal(out, expected)
            assert np.all(buffer[size:] == 99)
            np.testing.assert_array_equal(ours.standard_normal(5), reference.standard_normal(5))
            np.testing.assert_array_equal(qpsk_indices(shape, np.random.default_rng(seed)), out)

    def test_qpsk_indices_are_uniform_over_a_desk_batch(self):
        """Chi-square of the four index counts over a desk H0 batch, 3 degrees of freedom."""
        indices = qpsk_indices((134, 5, 896), np.random.default_rng(20200))
        counts = np.bincount(indices.reshape(-1), minlength=4)
        expected = indices.size / 4
        assert np.sum((counts - expected) ** 2 / expected) < 16.27  # the 0.1% point

    @pytest.mark.parametrize(
        "out", [np.zeros((4, 8), np.int32), np.zeros((4, 16), np.int8)[:, ::2]]
    )
    def test_qpsk_draw_rejects_an_out_it_cannot_fill_in_place(self, out):
        with pytest.raises(ValueError, match="C-contiguous int8"):
            qpsk_indices((4, 8), np.random.default_rng(0), out=out)

    @pytest.mark.parametrize("n_symbols", [2, 11])
    def test_pair_table_quadratic_forms_match_dense(self, n_symbols):
        """tr M + rows @ table equals x^H M x for random Hermitian M, per element."""
        rng = np.random.default_rng(n_symbols)
        indices = qpsk_indices((3, n_symbols, 40), rng)
        x = QPSK_POINTS[indices]
        m = rng.standard_normal((3, n_symbols, n_symbols, 2)) @ [1.0, 1j]
        m = m + m.conj().swapaxes(-1, -2)
        table = _qpsk_pair_table(indices)
        assert table.shape == (3, n_symbols * (n_symbols - 1), 40)
        np.testing.assert_array_equal(_qpsk_pair_table(indices.astype(np.int64)), table)
        pairs = np.triu_indices(n_symbols, 1)
        z = x.conj()[:, pairs[0]] * x[:, pairs[1]]
        np.testing.assert_allclose(table, np.concatenate([z.real, z.imag], axis=1), atol=1e-15)
        rows, trace = _pair_form(m)
        dense = np.einsum("bpl,bpq,bql->bl", x.conj(), m, x).real
        np.testing.assert_allclose(trace[:, None] + (rows[:, None, :] @ table)[:, 0], dense,
                                   rtol=1e-12, atol=1e-12 * np.abs(m).sum())

    def test_natural_grid_spacing_and_extent(self):
        grid = DelayDopplerGrid.natural(FRAME)
        assert grid.delays[0] == 0.0
        assert grid.delays[-1] <= FRAME.cp_duration
        assert np.isclose(np.diff(grid.delays)[0], 1.0 / FRAME.bandwidth)
        assert np.all(np.abs(grid.dopplers) < FRAME.subcarrier_spacing / 2.0)

    @pytest.mark.parametrize("n_symbols", [1, 4, 7, 14])
    def test_natural_doppler_cells_are_distinct_bins(self, n_symbols):
        frame = OfdmFrameConfig(n_symbols=n_symbols, n_subcarriers=64, subcarrier_spacing=30e3)
        dopplers = DelayDopplerGrid.natural(frame).dopplers
        # One cell per distinct bin of the unambiguous range [-1/(2 T0), 1/(2 T0)).
        assert dopplers.size == n_symbols
        cycles = dopplers * frame.symbol_duration
        assert np.all((cycles >= -0.5) & (cycles < 0.5))
        wrapped = np.mod(cycles, 1.0)
        gaps = np.abs(wrapped[:, None] - wrapped[None, :])
        gaps = np.minimum(gaps, 1.0 - gaps)
        assert np.all(gaps[~np.eye(n_symbols, dtype=bool)] > 1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            DelayDopplerGrid(delays=np.array([]), dopplers=np.array([0.0]))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            DelayDopplerGrid(delays=np.array([0.0, 1.0, 3.0]), dopplers=np.array([0.0]))


class TestSynthesize:
    def test_radar_only_power(self):
        rng = np.random.default_rng(1)
        u, beams, powers, _, radar = make_tx(rng, n_users=0, eta_radar=0.7)
        np.testing.assert_allclose(
            u,
            np.sqrt(0.7) * beams[-1][:, None, None] * radar,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            np.sum(np.abs(u) ** 2, axis=0), 0.7, atol=1e-12
        )

    def test_zero_powers_zero_grid(self):
        rng = np.random.default_rng(2)
        u, *_ = make_tx(rng, n_users=2, eta_users=np.zeros(2), eta_radar=0.0)
        np.testing.assert_allclose(u, 0.0, atol=1e-14)

    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(3)
        u, beams, powers, data, radar = make_tx(rng, n_users=3, eta_users=[0.1, 0.2, 0.3])
        ref = np.sqrt(powers.eta_radar) * beams[-1][:, None, None] * radar
        for k in range(3):
            ref = ref + np.sqrt(powers.eta_users[k]) * beams[k][:, None, None] * data[k]
        np.testing.assert_allclose(u, ref, atol=1e-13)

    def test_mean_power_with_orthonormal_beams(self):
        rng = np.random.default_rng(4)
        beams = np.eye(4, dtype=complex)[[0, 1, 3]]  # two users, then the radar
        powers = PowerAllocation(
            eta_users=np.array([0.2, 0.3]), eta_radar=0.4, budget=1.0
        )
        data = qpsk_grid((2, FRAME.n_symbols, FRAME.n_subcarriers), rng)
        radar = qpsk_grid((FRAME.n_symbols, FRAME.n_subcarriers), rng)
        u = synthesize_tx_grid(beams, powers, data, radar)
        np.testing.assert_allclose(np.sum(np.abs(u) ** 2, axis=0), 0.9, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        beams = make_beams(rng, 2)
        powers = PowerAllocation(eta_users=np.array([0.1, 0.1]), eta_radar=0.1, budget=0.3)
        with pytest.raises(ValueError):
            synthesize_tx_grid(
                beams, powers, qpsk_grid((1, 4, 8), rng), qpsk_grid((4, 8), rng)
            )


class TestTargetEcho:
    def target(self, alpha=1e-3, delay=0.0, doppler=0.0):
        return TargetChannel.from_geometry(GEOM, alpha, DIR, delay, doppler)

    def test_zero_delay_doppler_noiseless(self):
        rng = np.random.default_rng(6)
        u, *_ = make_tx(rng)
        tc = self.target()
        y = target_echo(u, tc, FRAME, noise_var=0.0, rng=rng)
        ref = np.einsum("ab,bnm->anm", tc.two_way_matrix, u)
        np.testing.assert_allclose(y, ref, atol=1e-15)

    def test_zero_alpha_is_pure_noise(self):
        rng = np.random.default_rng(7)
        u, *_ = make_tx(rng)
        tc = self.target(alpha=0.0)
        y1 = target_echo(u, tc, FRAME, 0.25, np.random.default_rng(99))
        y2 = target_echo(u, None, FRAME, 0.25, np.random.default_rng(99))
        np.testing.assert_allclose(y1, y2, atol=1e-15)

    def test_phase_ramp_matches_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        tau, nu = grid.delays[1], grid.dopplers[-1]
        tc = self.target(delay=tau, doppler=nu)
        y = target_echo(u, tc, FRAME, 0.0, rng)
        for n in range(FRAME.n_symbols):
            for m in range(FRAME.n_subcarriers):
                phase = np.exp(2j * np.pi * nu * n * FRAME.symbol_duration) * np.exp(
                    -2j * np.pi * m * FRAME.subcarrier_spacing * tau
                )
                np.testing.assert_allclose(
                    y[:, n, m], tc.two_way_matrix @ u[:, n, m] * phase, atol=1e-15
                )

    def test_delay_beyond_cp_rejected(self):
        rng = np.random.default_rng(9)
        u, *_ = make_tx(rng)
        tc = self.target(delay=2.0 * FRAME.cp_duration)
        with pytest.raises(ValueError):
            target_echo(u, tc, FRAME, 0.0, rng)


class TestGlrt:
    def test_on_grid_peak_location(self):
        rng = np.random.default_rng(10)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        tau, nu = grid.delays[1], grid.dopplers[2]
        tc = TargetChannel.from_geometry(GEOM, 1e-3, DIR, tau, nu)
        y = target_echo(u, tc, FRAME, 0.0, rng)
        out = glrt_statistic(u, y, grid, FRAME)
        assert out.peak_delay == tau
        assert out.peak_doppler == nu

    def test_self_correlation_coherent_sum(self):
        rng = np.random.default_rng(11)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid(delays=np.array([0.0]), dopplers=np.array([0.0]))
        out = glrt_statistic(u, u, grid, FRAME)
        energy = np.sum(np.abs(u) ** 2)
        assert np.isclose(out.peak_value, energy**2, rtol=1e-12)

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(12)
        u, *_ = make_tx(rng)
        y = target_echo(u, None, FRAME, 0.3, rng)
        grid = DelayDopplerGrid.natural(FRAME)
        out = glrt_statistic(u, y, grid, FRAME)
        ref = glrt_map_oracle(
            u, y, grid.delays, grid.dopplers, FRAME.symbol_duration, FRAME.subcarrier_spacing
        )
        np.testing.assert_allclose(out.statistic_map, ref, rtol=1e-10)

    @pytest.mark.parametrize(
        "n_subcarriers, grid_kind",
        [(64, "natural"), (512, "natural"), (64, "off-natural")],
    )
    def test_map_matches_einsum_oracle(self, n_subcarriers, grid_kind):
        frame = OfdmFrameConfig(n_symbols=14, n_subcarriers=n_subcarriers, subcarrier_spacing=30e3)
        grid = DelayDopplerGrid.natural(frame)
        if grid_kind == "off-natural":
            # Finer than the resolution cells, off zero, wider than one bin.
            grid = DelayDopplerGrid(
                delays=np.linspace(1e-8, frame.cp_duration, 11),
                dopplers=np.linspace(-0.8, 0.7, 9) / frame.symbol_duration,
            )
        rng = np.random.default_rng(21)
        corr = rng.standard_normal((3, 2, 14, n_subcarriers)) + 1j * rng.standard_normal(
            (3, 2, 14, n_subcarriers)
        )
        stat = statistic_map_from_correlation(corr, grid, frame)
        ref = statistic_map_oracle(corr, grid, frame)
        assert stat.shape == ref.shape == (3, 2, grid.delays.size, grid.dopplers.size)
        np.testing.assert_allclose(stat, ref, rtol=0.0, atol=1e-12 * ref.max())

    def test_unit_phase_invariance(self):
        rng = np.random.default_rng(13)
        u, *_ = make_tx(rng)
        y = target_echo(u, None, FRAME, 0.3, rng)
        grid = DelayDopplerGrid.natural(FRAME)
        out1 = glrt_statistic(u, y, grid, FRAME)
        out2 = glrt_statistic(u, np.exp(1j * 1.234) * y, grid, FRAME)
        np.testing.assert_allclose(out1.statistic_map, out2.statistic_map, rtol=1e-12)

    def test_noiseless_peak_identity(self):
        rng = np.random.default_rng(14)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        tau, nu = grid.delays[1], grid.dopplers[1]
        tc = TargetChannel.from_geometry(GEOM, 2e-3, DIR, tau, nu)
        y = target_echo(u, tc, FRAME, 0.0, rng)
        out = glrt_statistic(u, y, grid, FRAME)
        direct = abs(
            np.einsum("anm,ab,bnm->", u.conj(), tc.two_way_matrix, u)
        ) ** 2
        assert np.isclose(out.peak_value, direct, rtol=1e-10)

    def test_off_grid_target_lands_in_adjacent_cell(self):
        rng = np.random.default_rng(15)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        d_step = np.diff(grid.delays)[0]
        v_step = np.diff(grid.dopplers)[0]
        tau = grid.delays[1] + 0.3 * d_step
        nu = grid.dopplers[2] + 0.4 * v_step
        tc = TargetChannel.from_geometry(GEOM, 1e-3, DIR, tau, nu)
        y = target_echo(u, tc, FRAME, 0.0, rng)
        out = glrt_statistic(u, y, grid, FRAME)
        assert abs(out.peak_delay - tau) <= d_step
        assert abs(out.peak_doppler - nu) <= v_step

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(16)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        with pytest.raises(ValueError):
            glrt_statistic(u, u[:, :2, :], grid, FRAME)


def _noise_peak_sampler(u, grid, noise_var):
    def sampler(n, rng):
        out = np.empty(n)
        for i in range(n):
            y = target_echo(u, None, FRAME, noise_var, rng)
            out[i] = glrt_statistic(u, y, grid, FRAME).peak_value
        return out

    return sampler


class TestThresholdAndPd:
    def test_degenerate_pfa_gives_zero_threshold(self):
        assert calibrate_threshold(np.ones(10), 1.0) == 0.0

    def test_insufficient_trials_rejected(self):
        with pytest.raises(ValueError):
            calibrate_threshold(np.ones(500), 0.01)

    def test_threshold_scales_quadratically_with_noise_amplitude(self):
        rng = np.random.default_rng(18)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        # Statistic is quadratic in the noise amplitude: doubling the
        # amplitude (4x the variance) scales the threshold by ~4.
        thr1 = calibrate_threshold(
            _noise_peak_sampler(u, grid, 0.1)(2000, np.random.default_rng(42)), 0.05
        )
        thr2 = calibrate_threshold(
            _noise_peak_sampler(u, grid, 0.4)(2000, np.random.default_rng(42)), 0.05
        )
        assert abs(thr2 / thr1 - 4.0) < 0.4

    def test_strong_target_always_detected(self):
        rng = np.random.default_rng(19)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        tc = TargetChannel.from_geometry(GEOM, 1e6, DIR, grid.delays[1], grid.dopplers[1])

        def sampler(n, r):
            return np.array(
                [
                    glrt_statistic(u, target_echo(u, tc, FRAME, 0.1, r), grid, FRAME).peak_value
                    for _ in range(n)
                ]
            )

        thr = calibrate_threshold(
            _noise_peak_sampler(u, grid, 0.1)(2000, np.random.default_rng(43)), 0.05
        )
        assert detection_probability(sampler, thr, 50, rng) == 1.0

    def test_absent_target_detected_at_false_alarm_rate(self):
        rng = np.random.default_rng(20)
        u, *_ = make_tx(rng)
        grid = DelayDopplerGrid.natural(FRAME)
        thr = calibrate_threshold(
            _noise_peak_sampler(u, grid, 0.1)(4000, np.random.default_rng(44)), 0.05
        )
        pfa = detection_probability(_noise_peak_sampler(u, grid, 0.1), thr, 4000, rng)
        assert abs(pfa - 0.05) < 3.0 * np.sqrt(0.05 * 0.95 / 4000)


class TestOutcome:
    def test_exceeds(self):
        out = DetectionOutcome(
            statistic_map=np.array([[1.0]]),
            delays=np.array([0.0]),
            dopplers=np.array([0.0]),
            peak_delay=0.0,
            peak_doppler=0.0,
            peak_value=1.0,
        )
        assert out.exceeds(0.5) and not out.exceeds(1.5)
