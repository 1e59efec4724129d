"""Monte-Carlo validation of the closed-form rate coefficients.

The closed forms in :mod:`jcsim.rate` are traces of correlation and
estimator matrices.  This module estimates the same quantities by brute
force: draw channels from the model statistics
(:func:`jcsim.channel.draw_channels`, not the closed-form weights), run the
training chain the simulator runs (:func:`jcsim.estimation.estimate` with
the estimator's filters), form the mean-gain / gain-variance /
interference-power moments of the effective downlink channel from the
samples, and compare.  Only the filters are shared; none of the traces,
covariances or fourth-moment terms of the closed forms is reused, so
agreement of the two routes is the primary correctness check for the
interference coefficients.

The downlink analysis normalizes each user's beam to unit average power,
dividing the estimate by the square root of its mean squared norm.  The
oracle uses the same convention, estimating that norm from the sample
itself.
"""

from dataclasses import dataclass

import numpy as np

from .array import ArrayGeometry
from .channel import ChannelStats, draw_channels
from .estimation import Estimator, PilotBook, estimate, training_statistics
from .rate import RateCoefficients

__all__ = ["MonteCarloRateTerms", "monte_carlo_rate_terms", "compare_terms"]


@dataclass(frozen=True)
class MonteCarloRateTerms:
    """Sampled counterparts of the closed-form SINR coefficients."""

    signal_gain: np.ndarray  # (K,)
    interference: np.ndarray  # (K, K)
    radar_leakage: np.ndarray  # (K,)
    n_draws: int


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
    filters = training_statistics(book, all_stats, geom, noise_var_ul, estimator).filters

    sum_z = np.zeros((n_users, n_users), dtype=complex)
    sum_z2 = np.zeros((n_users, n_users))
    sum_e = np.zeros(n_users)
    sum_r2 = np.zeros(n_users)
    done = 0
    while done < n_draws:
        n = min(batch, n_draws - done)
        h = draw_channels(all_stats, geom, n, rng)
        h_hat = estimate(h, book, noise_var_ul, filters, rng)
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
