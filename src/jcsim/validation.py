"""Monte-Carlo validation of the closed-form rate coefficients.

The closed forms in :mod:`jcsim.rate` are traces of correlation and
estimator matrices.  This module estimates the same quantities by brute
force: draw channels from the model statistics
(:func:`jcsim.channel.draw_channels`, not the closed-form weights), run the
training chain the simulator runs (:func:`jcsim.estimation.estimate` with
the deployment's filters), form the mean-gain / gain-variance /
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
from .estimation import PilotBook, estimate
from .lowrank import IdentityPlusLowRank
from .rate import DIAG_CLAMP_TOL, REAL_TOL, RateCoefficients

__all__ = ["MonteCarloRateTerms", "monte_carlo_rate_terms", "compare_terms"]

# Draws per batch.  Channels and estimates are drawn batch by batch, so this
# value fixes the order of the random stream and with it every estimate.
BATCH = 20_000


@dataclass(frozen=True)
class MonteCarloRateTerms:
    """Sampled counterparts of the closed-form SINR coefficients."""

    signal_gain: np.ndarray  # (K,)
    interference: np.ndarray  # (K, K)
    radar_leakage: np.ndarray  # (K,)
    channel_energy: np.ndarray  # (K,) E||h_k||^2, the sampled tr(Hbar_k)
    n_draws: int


def monte_carlo_rate_terms(
    all_stats: list[ChannelStats],
    geom: ArrayGeometry,
    book: PilotBook,
    filters: IdentityPlusLowRank,
    radar_beam: np.ndarray,
    noise_var_ul: float,
    n_draws: int,
    rng: np.random.Generator,
) -> MonteCarloRateTerms:
    """Estimate the SINR coefficients by simulating the training chain.

    ``filters`` is the deployment's stack of estimator filters A_k, as a
    :class:`jcsim.harness.scenario.ScenarioRealization` holds it in
    ``real.statistics.filters``: the one input shared with the closed form.

    For each draw the inner products h_k^H h_hat_j and the estimate norms
    are accumulated; with theta_j = E||h_hat_j||^2 (the beam normalizer)
    the coefficients follow from the first and second moments:

    * signal gain   s_k   = |E[h_k^H h_hat_k]|^2 / theta_k
    * interference  xi_kj = E|h_k^H h_hat_j|^2 / theta_j    for j != k
    * interference  xi_kk = Var(h_k^H h_hat_k)  / theta_k   (gain fluctuation)
    * radar leakage       = E|h_k^H w_R|^2
    """
    n_users = len(all_stats)
    sum_z = np.zeros((n_users, n_users), dtype=complex)
    sum_z2 = np.zeros((n_users, n_users))
    sum_e = np.zeros(n_users)
    sum_r2 = np.zeros(n_users)
    sum_h2 = np.zeros(n_users)
    done = 0
    while done < n_draws:
        n = min(BATCH, n_draws - done)
        h = draw_channels(all_stats, geom, n, rng)
        h_hat = estimate(h, book, noise_var_ul, filters, rng)
        z = np.einsum("kna,jna->kjn", h.conj(), h_hat)
        sum_z += z.sum(axis=-1)
        sum_z2 += (np.abs(z) ** 2).sum(axis=-1)
        sum_e += (np.abs(h_hat) ** 2).sum(axis=(-2, -1))
        sum_r2 += (np.abs(h.conj() @ radar_beam) ** 2).sum(axis=-1)
        sum_h2 += (np.abs(h) ** 2).sum(axis=(-2, -1))
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
        channel_energy=sum_h2 / n_draws,
        n_draws=n_draws,
    )


def compare_terms(
    mc: MonteCarloRateTerms, coeffs: RateCoefficients, rtol: float = 0.03
) -> list[tuple[str, float, bool]]:
    """Relative error of every closed-form term against its MC estimate.

    A diagonal interference term xi_kk is judged against the larger of its
    MC value and DIAG_CLAMP_TOL * g_k, and a radar leakage against the
    larger of its MC value and REAL_TOL * E||h_k||^2: the scales below which
    the closed form treats them as zero, so round-off around a zero (a
    nulled ZFR beam) is no failure.
    Returns (term name, relative error, within tolerance) triples.
    """
    k, gains = coeffs.n_users, coeffs.signal_gain
    pairs = [(f"signal_gain[{i}]", gains[i], mc.signal_gain[i], 0.0) for i in range(k)]
    pairs += [(f"interference[{i},{j}]", coeffs.interference[i, j], mc.interference[i, j],
               DIAG_CLAMP_TOL * gains[i] if i == j else 0.0)
              for i in range(k) for j in range(k)]
    pairs += [(f"radar_leakage[{i}]", coeffs.radar_leakage[i], mc.radar_leakage[i],
               REAL_TOL * mc.channel_energy[i]) for i in range(k)]
    errors = [(name, float(abs(value - ref) / max(abs(ref), floor)))
              for name, value, ref, floor in pairs]
    return [(name, err, err <= rtol) for name, err in errors]
