"""Max-min fairness power allocation under a radar SIR constraint.

Maximizing the minimum user SINR under a total power budget and a radar
SIR floor has an exact solution: with the SIR constraint tight, the
balanced SINR is the reciprocal of the Perron root of a K x K positive
coupling matrix, and the powers follow from its Perron vector (Schubert
& Boche, "Solution of the multiuser downlink beamforming problem with
individual SINR constraints", IEEE TVT 53(1), 2004).  One small
eigenproblem replaces any iterative search.
"""

from dataclasses import dataclass, field

import numpy as np

from .rate import RateCoefficients, sinr

__all__ = [
    "PowerAllocation",
    "RadarSirCoefficients",
    "AllocationInfeasibleError",
    "SolverError",
    "check_problem",
    "max_min_allocate",
    "uniform_allocate",
]

BUDGET_SLACK = 1e-9
PERRON_POLISH_STEPS = 30


class AllocationInfeasibleError(RuntimeError):
    """No positive SINR target is feasible under the given constraints."""


class SolverError(RuntimeError):
    """The eigensolver returned no strictly positive power vector."""


@dataclass(frozen=True)
class PowerAllocation:
    """Per-grid-symbol powers: one per user plus the radar stream."""

    eta_users: np.ndarray
    eta_radar: float
    budget: float
    achieved_t: float | None = None

    def __post_init__(self):
        eta = np.asarray(self.eta_users, dtype=float)
        object.__setattr__(self, "eta_users", eta)
        if (eta < 0).any() or self.eta_radar < 0:
            raise ValueError("powers must be nonnegative")
        total = eta.sum() + self.eta_radar
        if total > self.budget * (1.0 + BUDGET_SLACK):
            raise ValueError(f"total power {total} exceeds budget {self.budget}")

    @property
    def total(self) -> float:
        return float(self.eta_users.sum() + self.eta_radar)


@dataclass(frozen=True)
class RadarSirCoefficients:
    """Beam gains entering the radar SIR constraint.

    ``radar_gain`` is ||a a^H w_R||^2 toward the surveillance direction;
    ``user_gains`` the analogous leakage of each user beam.  Both equal
    N_A |a^H w|^2.
    """

    radar_gain: float
    user_gains: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        gains = np.asarray(self.user_gains, dtype=float)
        object.__setattr__(self, "user_gains", gains)
        if self.radar_gain < 0 or (gains < 0).any():
            raise ValueError("SIR gains must be nonnegative")


def check_problem(
    coeffs: RateCoefficients,
    sir_coeffs: RadarSirCoefficients,
    budget: float,
    rho_star: float,
) -> None:
    """Raise ValueError unless the inputs form a well-posed allocation problem."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if rho_star < 0:
        raise ValueError(f"rho_star must be nonnegative, got {rho_star}")
    shape = sir_coeffs.user_gains.shape
    if shape != (coeffs.n_users,):
        raise ValueError(f"need one SIR user gain per user ({coeffs.n_users}), got shape {shape}")


def max_min_allocate(
    coeffs: RateCoefficients,
    sir_coeffs: RadarSirCoefficients,
    budget: float,
    rho_star: float = 0.0,
) -> PowerAllocation:
    """Max-min SINR powers in closed form, from one Perron eigenvector.

    The radar SIR constraint is tight at the optimum (radar power only adds
    interference), so eta_R = ratio^T eta with ratio = rho_star * u / r.
    Substituting it leaves the coupling B = xi + zeta ratio^T and the single
    weighted budget c^T eta = P with c = 1 + ratio, which the optimum
    saturates.  Writing the noise as sigma^2 c^T eta / P, the balanced SINR
    t and the received useful powers q = g * eta solve

        q / t = (B + sigma^2 / P * 1 c^T) diag(1 / g) q,

    so t = 1 / lambda_max and q is the Perron vector (Schubert & Boche,
    IEEE TVT 53(1), 2004).  This K x K matrix has the nonzero spectrum of
    the (K+1) x (K+1) extended coupling matrix of that paper; its noise
    term makes it strictly positive, so the Perron root is simple and q is
    strictly positive even when B is reducible.  Solving for q rather than
    eta keeps the entries of the eigenvector on one scale when the user
    gains spread over decades.

    The eigensolver's vector loses relative accuracy when the problem is
    badly scaled, so ``PERRON_POLISH_STEPS`` power steps q <- M q / sum(M q)
    polish it, starting from its modulus.  A positive matrix contracts the
    Hilbert projective metric, and the SINR imbalance max/min - 1 is
    exp(d_H(q, M q)) - 1, so no step makes the balance worse (up to
    round-off once it is balanced).
    """
    check_problem(coeffs, sir_coeffs, budget, rho_star)
    g = np.asarray(coeffs.signal_gain, dtype=float)
    weighted_leakage = rho_star * sir_coeffs.user_gains
    if not weighted_leakage.any():
        ratio = np.zeros_like(g)
    elif sir_coeffs.radar_gain == 0:
        raise AllocationInfeasibleError(
            "no strictly positive SINR target is feasible (radar SIR constraint "
            "incompatible with the budget)"
        )
    else:
        ratio = weighted_leakage / sir_coeffs.radar_gain
    c = 1.0 + ratio
    # Every row of 1 c^T is c^T, so the noise term broadcasts over rows.
    noise = coeffs.noise_var / budget * c
    coupling = coeffs.interference + np.outer(coeffs.radar_leakage, ratio) + noise
    matrix = coupling / g
    eigvals, eigvecs = np.linalg.eig(matrix)
    q = np.abs(eigvecs[:, np.argmax(eigvals.real)])
    for _ in range(PERRON_POLISH_STEPS):
        q = matrix.dot(q)
        q /= q.sum()
    eta_users = q / g
    eta_users *= budget / (c @ eta_users)
    if not (np.isfinite(eta_users).all() and (eta_users > 0).all()):
        raise SolverError(f"Perron vector is not strictly positive: {eta_users}")
    eta_radar = float(ratio @ eta_users)
    achieved = float(sinr(coeffs, (eta_users, eta_radar)).min())
    return PowerAllocation(
        eta_users=eta_users, eta_radar=eta_radar, budget=budget, achieved_t=achieved
    )


def uniform_allocate(
    p_dl: float, rcr: float, n_users: int, n_subcarriers: int, n_symbols: int
) -> PowerAllocation:
    """Even split: P_DL/(K M N) per user, RCR * P_DL/(M N) for the radar."""
    if p_dl <= 0:
        raise ValueError("downlink power budget must be positive")
    if rcr < 0:
        raise ValueError("radar-communication ratio must be nonnegative")
    grid = n_subcarriers * n_symbols
    eta_users = np.full(n_users, p_dl / (n_users * grid))
    eta_radar = rcr * p_dl / grid
    return PowerAllocation(
        eta_users=eta_users,
        eta_radar=eta_radar,
        budget=(1.0 + rcr) * p_dl / grid,
    )
