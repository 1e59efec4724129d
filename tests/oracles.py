"""Independent reference implementations used only by the tests.

Everything here is deliberately naive -- explicit loops, Gram-Schmidt by
hand, dense grid searches -- so that agreement with the package is a real
cross-check and not a tautology.
"""

import numpy as np
import scipy.linalg

from jcsim.array import steering_vector
from jcsim.beamform import BeamformerSet, RadarBeamKind, matched_beam, pbr_beam, zfr_beam
from jcsim.channel import ChannelModelKind, TargetChannel, hbar_matrix
from jcsim.estimation import Estimator
from jcsim.harness.scenario import draw_estimates
from jcsim.radar import glrt_statistic, qpsk_grid, synthesize_tx_grid, target_echo


def steering_oracle(n_y, n_z, spacing_d, wavelength, azimuth, elevation):
    """Element-by-element evaluation of the planar-array response."""
    k = 2.0 * np.pi / wavelength
    out = np.empty(n_y * n_z, dtype=complex)
    i = 0
    for a_y in range(n_y):
        for a_z in range(n_z):
            phase = k * spacing_d * (
                a_y * np.sin(azimuth) * np.sin(elevation)
                + a_z * np.cos(elevation)
            )
            out[i] = np.exp(-1j * phase)
            i += 1
    return out


def gram_schmidt_zfr(a, estimates, rank_tol=1e-10):
    """Zero-forcing radar beam via explicit modified Gram-Schmidt."""
    a = np.asarray(a, dtype=complex)
    basis = []
    scale = max(np.linalg.norm(v) for v in estimates)
    for v in estimates:
        u = np.asarray(v, dtype=complex).copy()
        for b in basis:
            u = u - (b.conj() @ u) * b
        # Second orthogonalization pass for numerical robustness.
        for b in basis:
            u = u - (b.conj() @ u) * b
        norm = np.linalg.norm(u)
        if norm > rank_tol * scale:
            basis.append(u / norm)
    proj = a.copy()
    for b in basis:
        proj = proj - (b.conj() @ proj) * b
    return proj / np.linalg.norm(proj)


def glrt_map_oracle(u, y, delays, dopplers, symbol_duration, subcarrier_spacing):
    """Quadruple-loop evaluation of the delay-Doppler energy map."""
    _, n_sym, n_sub = u.shape
    out = np.zeros((len(delays), len(dopplers)))
    for ti, tau in enumerate(delays):
        for vi, nu in enumerate(dopplers):
            acc = 0.0 + 0.0j
            for n in range(n_sym):
                for m in range(n_sub):
                    steer = np.exp(-2j * np.pi * nu * n * symbol_duration) * np.exp(
                        2j * np.pi * m * subcarrier_spacing * tau
                    )
                    acc += steer * (u[:, n, m].conj() @ y[:, n, m])
            out[ti, vi] = abs(acc) ** 2
    return out


def statistic_map_oracle(corr, grid, config):
    """GLRT energy map from u^H y as one three-operand einsum over the grid."""
    n = np.arange(config.n_symbols)
    m = np.arange(config.n_subcarriers)
    doppler_steer = np.exp(
        -2j * np.pi * np.outer(grid.dopplers, n) * config.symbol_duration
    )  # (n_dopplers, N)
    delay_steer = np.exp(
        2j * np.pi * np.outer(m, grid.delays) * config.subcarrier_spacing
    )  # (M, n_delays)
    amplitude = np.einsum("un,...nm,mt->...tu", doppler_steer, corr, delay_steer)
    return np.abs(amplitude) ** 2


def antenna_domain_peaks(real, grid, direction, beam_kind, powers, target, n, rng):
    """GLRT peaks of the antenna-domain chain, one trial at a time.

    Each trial trains and estimates the user channels, builds the beams,
    synthesizes the N_A-antenna transmit grid, passes it through the target
    (``target=None``: noise only) and evaluates ``glrt_statistic``.
    """
    shape = (real.frame.n_symbols, real.frame.n_subcarriers)
    peaks = np.empty(n)
    for i in range(n):
        _, estimates = draw_estimates(real, rng)
        if beam_kind is RadarBeamKind.PBR:
            radar = pbr_beam(real.geom, direction)
        else:
            radar = zfr_beam(real.geom, direction, estimates)
        beams = BeamformerSet(
            user_beams=np.stack([matched_beam(h) for h in estimates]),
            radar_beam=radar,
            radar_kind=beam_kind,
            radar_direction=direction,
        )
        u = synthesize_tx_grid(
            beams, powers, qpsk_grid((real.book.n_users,) + shape, rng), qpsk_grid(shape, rng)
        )
        echo = None
        if target is not None:
            alpha = target.alpha_mag * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            echo = TargetChannel.from_geometry(
                real.geom, alpha, direction, target.delay, target.doppler
            )
        y = target_echo(u, echo, real.frame, real.noise_var_dl, rng)
        peaks[i] = glrt_statistic(u, y, grid, real.frame).peak_value
    return peaks


def pilot_correlation_oracle(channels, noise, book):
    """y_{p,k} = Y_p phi_k by explicit loops, shape (K, n, N_A).

    ``channels`` is (K, n, N_A) and ``noise`` the (n, N_A, tau_p) receiver
    noise W; each draw's pilot matrix Y_p = sum_i sqrt(p_i) h_i phi_i^H + W is
    built entry by entry and then projected onto every pilot.
    """
    n_users, n, n_a = channels.shape
    tau_p = book.tau_p
    out = np.zeros(channels.shape, dtype=complex)
    for d in range(n):
        y_pilot = np.array(noise[d], dtype=complex)
        for a in range(n_a):
            for t in range(tau_p):
                for i in range(n_users):
                    y_pilot[a, t] += (
                        np.sqrt(book.powers[i]) * channels[i, d, a] * np.conj(book.pilots[t, i])
                    )
        for k in range(n_users):
            for a in range(n_a):
                for t in range(tau_p):
                    out[k, d, a] += y_pilot[a, t] * book.pilots[t, k]
    return out


def single_shot_estimates_oracle(real, filters, rng):
    """One estimate per user, drawn user by user as a single-shot chain would.

    Each user's channel is drawn on its own (LoS phase first, then the
    diffuse part), then the (N_A, tau_p) pilot noise, and each estimate is
    the dense filter (K, N_A, N_A) applied to Y_p phi_k.  A batch of one of
    the package's chain draws the same numbers in the same order.
    """
    n_a = real.geom.n_elements
    channels = []
    for stats in real.stats:
        if stats.kind is ChannelModelKind.RAYLEIGH:
            g = rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)
            channels.append(np.sqrt(stats.beta / 2.0) * g)
            continue
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        los = phase * steering_vector(real.geom, stats.angles)
        if stats.kind is ChannelModelKind.LOS:
            channels.append(np.sqrt(stats.beta) * los)
            continue
        g = (rng.standard_normal(n_a) + 1j * rng.standard_normal(n_a)) / np.sqrt(2.0)
        k = stats.k_factor
        channels.append(np.sqrt(stats.beta / (k + 1.0)) * (np.sqrt(k) * los + g))
    noise = np.sqrt(real.noise_var_ul / 2.0) * (
        rng.standard_normal((n_a, real.book.tau_p))
        + 1j * rng.standard_normal((n_a, real.book.tau_p))
    )
    pilots = real.book.pilots.T
    y_pilot = noise + sum(
        np.sqrt(p) * np.outer(h, phi.conj())
        for h, p, phi in zip(channels, real.book.powers, pilots)
    )
    return np.stack([f.conj().T @ (y_pilot @ phi) for f, phi in zip(filters, pilots)])


def simplex_grid(n_users, step):
    """All share vectors on the unit simplex with the given resolution."""
    n = int(round(1.0 / step))
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i, j, n - i - j))
    return np.asarray(pts, dtype=float) / n if n_users == 3 else _simplex_nd(n_users, n)


def _simplex_nd(n_users, n):
    def rec(k, remaining):
        if k == 1:
            yield (remaining,)
            return
        for i in range(remaining + 1):
            for rest in rec(k - 1, remaining - i):
                yield (i,) + rest

    return np.asarray(list(rec(n_users, n)), dtype=float) / n


def grid_search_max_min(coeffs, sir, budget, rho_star, step=1e-3):
    """Dense search for the max-min SINR over budget-saturating allocations.

    Two reductions make the search space a simplex of user-power shares:
    every SINR grows under a uniform power upscale (so the optimum saturates
    the budget), and the min-SINR decreases in the radar power (so the radar
    SIR constraint binds at exactly rho_star).
    """
    shares = simplex_grid(coeffs.n_users, step)  # (P, K)
    g = np.asarray(coeffs.signal_gain, dtype=float)
    xi = np.asarray(coeffs.interference, dtype=float)
    zeta = np.asarray(coeffs.radar_leakage, dtype=float)
    # Radar power per unit total user power at the binding SIR constraint.
    ratio = rho_star * (shares @ np.asarray(sir.user_gains, dtype=float)) / sir.radar_gain
    c = budget / (1.0 + ratio)  # total user power at budget saturation
    eta_users = c[:, None] * shares
    eta_radar = c * ratio
    denom = eta_users @ xi.T + eta_radar[:, None] * zeta[None, :] + coeffs.noise_var
    sinr_all = eta_users * g[None, :] / denom
    min_sinr = sinr_all.min(axis=1)
    best = int(np.argmax(min_sinr))
    return float(min_sinr[best]), eta_users[best], float(eta_radar[best])


def correlation_matrices_oracle(book, all_stats, geom, noise_var):
    """Dense Hbar_k and R_{y,k}, each a (K, N_A, N_A) stack.

    R_{y,k} collects every user's Hbar_i weighted by its pilot power and its
    squared pilot cross-correlation with user k, plus the noise floor.
    """
    hbars = np.stack([hbar_matrix(s, geom) for s in all_stats])
    weights = (book.powers[:, None] * np.abs(book.gram()) ** 2).T  # (k, i)
    ry = np.tensordot(weights, hbars, axes=1)
    ry += noise_var * np.eye(geom.n_elements)
    return hbars, ry


def lmmse_filters_oracle(hbars, ry, powers):
    """Dense LMMSE filters sqrt(p_k) R_{y,k}^{-1} Hbar_k by Hermitian solves."""
    return np.stack([
        np.sqrt(p) * scipy.linalg.solve(r, h, assume_a="pos")
        for h, r, p in zip(hbars, ry, powers)
    ])


def fourth_moment_excess_oracle(stats, geom, filter_matrix=None):
    """E|h^H A^H h|^2 - tr(A^H Hbar A Hbar) for one filter; None means A = I."""
    if stats.kind is ChannelModelKind.LOS:
        return 0.0
    k = stats.k_factor if stats.kind is ChannelModelKind.RICE else 0.0
    c = stats.beta / (k + 1.0)
    n = geom.n_elements
    if filter_matrix is None:
        trace, quad = complex(n), complex(n)
    else:
        trace = complex(np.trace(filter_matrix))
        a = steering_vector(geom, stats.angles)
        quad = complex(a.conj() @ filter_matrix @ a)
    return c**2 * (abs(trace) ** 2 + 2.0 * k * (quad * np.conj(trace)).real)


def dense_rate_coefficients(all_stats, geom, book, estimator, noise_var_ul, radar_beam):
    """Signal gains, interference and radar leakage, one dense pair at a time.

    PM and LMMSE are written out separately, each in its own algebra:
    PM from tr(R_y,j Hbar_k) / (p_j energy_j) with energy_j = tr(R_y,j) / p_j;
    LMMSE from sqrt(p_j) tr(Hbar_j E_j Hbar_k) / energy_j with
    E_j = sqrt(p_j) R_y,j^{-1} Hbar_j.  Each R_y is summed user by user.
    """
    n_users, n = len(all_stats), geom.n_elements
    powers = book.powers
    hbars = [hbar_matrix(s, geom) for s in all_stats]
    cross = np.abs(book.pilots.conj().T @ book.pilots) ** 2
    ry = []
    for k in range(n_users):
        acc = noise_var_ul * np.eye(n, dtype=complex)
        for i in range(n_users):
            acc = acc + powers[i] * cross[i, k] * hbars[i]
        ry.append(acc)
    pm = estimator is Estimator.PM
    if pm:
        gains = np.array([np.trace(h).real for h in hbars])
        energy = np.array([np.trace(ry[k]).real / powers[k] for k in range(n_users)])
    else:
        e_mats = [np.sqrt(powers[k]) * np.linalg.solve(ry[k], hbars[k]) for k in range(n_users)]
        gains = np.array(
            [np.sqrt(powers[k]) * np.trace(hbars[k] @ e_mats[k]).real for k in range(n_users)]
        )
        energy = gains.copy()
    useful = gains**2 / energy
    xi = np.empty((n_users, n_users))
    for k in range(n_users):
        for j in range(n_users):
            if pm:
                base = np.trace(ry[j] @ hbars[k]).real / (powers[j] * energy[j])
                excess = fourth_moment_excess_oracle(all_stats[k], geom) / powers[j]
            else:
                base = np.sqrt(powers[j]) * np.trace(hbars[j] @ e_mats[j] @ hbars[k]).real
                base /= energy[j]
                excess = fourth_moment_excess_oracle(all_stats[k], geom, e_mats[j])
            xi[k, j] = base + powers[k] * excess * cross[k, j] / energy[j]
        xi[k, k] -= useful[k]
    leakage = np.array([(radar_beam.conj() @ h @ radar_beam).real for h in hbars])
    return useful, np.clip(xi, 0.0, None), np.clip(leakage, 0.0, None)
