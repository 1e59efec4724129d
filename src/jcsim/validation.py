"""Monte-Carlo validation of the closed-form rate coefficients.

The closed forms in :mod:`jcsim.rate` are traces of correlation and
estimator matrices.  This module estimates the same quantities by brute
force: draw channels and pilot noise, run the actual estimators, form the
mean-gain / gain-variance / interference-power moments of the effective
downlink channel, and compare.  Nothing here reuses the closed-form
algebra; agreement of the two routes is the primary correctness check for
the interference coefficients.

The downlink analysis normalizes each user's beam to unit average power,
dividing the estimate by the square root of its mean squared norm.  The
oracle uses the same convention, estimating that norm from the sample
itself.
"""

from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry, steering_vector
from .channel import ChannelModelKind, ChannelStats
from .estimation import Estimator, PilotBook, training_statistics
from .rate import RateCoefficients

__all__ = ["MonteCarloRateTerms", "monte_carlo_rate_terms", "compare_terms"]


@dataclass(frozen=True)
class MonteCarloRateTerms:
    """Sampled counterparts of the closed-form SINR coefficients."""

    signal_gain: np.ndarray  # (K,)
    interference: np.ndarray  # (K, K)
    radar_leakage: np.ndarray  # (K,)
    n_draws: int


def draw_channel_batch(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n channel realizations per user, shape (K, n, N_A)."""
    n_a = geom.n_elements
    out = np.empty((len(all_stats), n, n_a), dtype=complex)
    for k, stats in enumerate(all_stats):
        if stats.kind is ChannelModelKind.RAYLEIGH:
            g = (rng.standard_normal((n, n_a)) + 1j * rng.standard_normal((n, n_a))) / np.sqrt(2)
            out[k] = np.sqrt(stats.beta) * g
            continue
        a = steering_vector(geom, stats.angles)
        psi = rng.uniform(0.0, 2.0 * np.pi, size=n)
        los = np.exp(1j * psi)[:, None] * a[None, :]
        if stats.kind is ChannelModelKind.LOS:
            out[k] = np.sqrt(stats.beta) * los
            continue
        kf = stats.k_factor
        g = (rng.standard_normal((n, n_a)) + 1j * rng.standard_normal((n, n_a))) / np.sqrt(2)
        out[k] = np.sqrt(stats.beta / (kf + 1.0)) * (np.sqrt(kf) * los + g)
    return out


def estimate_batch(
    channels: np.ndarray,
    book: PilotBook,
    noise_var_ul: float,
    filters: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run the uplink training chain on a (K, n, N_A) channel batch.

    ``filters`` are the per-user estimation filters A_k as dense matrices
    (``training_statistics(...).filters.dense()``); h_hat_k = A_k^H y_{p,k}.
    Applied to a whole batch, one dense matmul beats the structured form
    up to N_A of about 100.
    """
    _, n, n_a = channels.shape
    noise = np.sqrt(noise_var_ul / 2.0) * (
        rng.standard_normal((n, n_a, book.tau_p))
        + 1j * rng.standard_normal((n, n_a, book.tau_p))
    )
    # y_{p,k} = sum_i sqrt(power_i) (phi_i^H phi_k) h_i + W phi_k
    coupling = np.sqrt(book.powers)[:, None] * book.gram()  # (i, k)
    y = np.einsum("ik,ina->kna", coupling, channels)
    y = y + np.einsum("nat,tk->kna", noise, book.pilots)
    return y @ np.conj(filters)


def monte_carlo_rate_terms(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    estimator: Estimator,
    radar_beam: np.ndarray,
    noise_var_ul: float,
    n_draws: int,
    rng: np.random.Generator,
    batch: int = 20_000,
) -> MonteCarloRateTerms:
    """Estimate the SINR coefficients by simulating the training chain.

    For each draw the inner products h_k^H h_hat_j and the estimate norms
    are accumulated; with theta_j = E||h_hat_j||^2 (the beam normalizer)
    the coefficients follow from the first and second moments:

    * signal gain   s_k   = |E[h_k^H h_hat_k]|^2 / theta_k
    * interference  xi_kj = E|h_k^H h_hat_j|^2 / theta_j    for j != k
    * interference  xi_kk = Var(h_k^H h_hat_k)  / theta_k   (gain fluctuation)
    * radar leakage       = E|h_k^H w_R|^2
    """
    n_users = len(all_stats)
    filters = training_statistics(book, all_stats, geom, noise_var_ul, estimator).filters.dense()

    sum_z = np.zeros((n_users, n_users), dtype=complex)
    sum_z2 = np.zeros((n_users, n_users))
    sum_e = np.zeros(n_users)
    sum_r2 = np.zeros(n_users)
    done = 0
    while done < n_draws:
        n = min(batch, n_draws - done)
        h = draw_channel_batch(all_stats, geom, n, rng)
        h_hat = estimate_batch(h, book, noise_var_ul, filters, rng)
        z = np.einsum("kna,jna->kjn", h.conj(), h_hat)
        sum_z += z.sum(axis=-1)
        sum_z2 += (np.abs(z) ** 2).sum(axis=-1)
        sum_e += (np.abs(h_hat) ** 2).sum(axis=(-2, -1))
        sum_r2 += (np.abs(h.conj() @ radar_beam) ** 2).sum(axis=-1)
        done += n

    mean_z = sum_z / n_draws
    second = sum_z2 / n_draws
    theta = sum_e / n_draws
    xi = second / theta[None, :]
    for k in range(n_users):
        xi[k, k] = (second[k, k] - abs(mean_z[k, k]) ** 2) / theta[k]
    return MonteCarloRateTerms(
        signal_gain=np.abs(np.diag(mean_z)) ** 2 / theta,
        interference=xi,
        radar_leakage=sum_r2 / n_draws,
        n_draws=n_draws,
    )


def compare_terms(
    mc: MonteCarloRateTerms, coeffs: RateCoefficients, rtol: float = 0.03
) -> list[tuple[str, float, bool]]:
    """Relative error of every closed-form term against its MC estimate.

    Returns (term name, relative error, within tolerance) triples.
    """
    report = []
    k = coeffs.n_users
    for i in range(k):
        err = abs(coeffs.signal_gain[i] - mc.signal_gain[i]) / abs(mc.signal_gain[i])
        report.append((f"signal_gain[{i}]", float(err), err <= rtol))
    for i in range(k):
        for j in range(k):
            ref = mc.interference[i, j]
            err = abs(coeffs.interference[i, j] - ref) / abs(ref)
            report.append((f"interference[{i},{j}]", float(err), err <= rtol))
    for i in range(k):
        ref = mc.radar_leakage[i]
        err = abs(coeffs.radar_leakage[i] - ref) / abs(ref)
        report.append((f"radar_leakage[{i}]", float(err), err <= rtol))
    return report
