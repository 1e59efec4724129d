import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from jcsim import poweralloc
from jcsim.poweralloc import (
    AllocationInfeasibleError,
    PowerAllocation,
    RadarSirCoefficients,
    SolverError,
    max_min_allocate,
    uniform_allocate,
)
from jcsim.rate import RateCoefficients, sinr
from oracles import grid_search_max_min


def make_coeffs(signal_gain, interference, radar_leakage, noise_var=1.0):
    k = len(signal_gain)
    return RateCoefficients(
        signal_gain=np.asarray(signal_gain, dtype=float),
        interference=np.asarray(interference, dtype=float).reshape(k, k),
        radar_leakage=np.asarray(radar_leakage, dtype=float),
        noise_var=noise_var,
        bandwidth=1e6,
        tau_c=200,
        tau_p=k,
    )


def random_instance(rng, k=3):
    signal = 10.0 ** rng.uniform(0.0, 2.0, size=k)
    xi = rng.uniform(0.1, 1.0, size=(k, k))
    zeta = rng.uniform(0.1, 1.0, size=k)
    coeffs = make_coeffs(signal, xi, zeta, noise_var=rng.uniform(0.5, 2.0))
    sir = RadarSirCoefficients(
        radar_gain=rng.uniform(1.0, 10.0), user_gains=rng.uniform(0.1, 1.0, size=k)
    )
    rho_star = rng.uniform(0.2, 2.0)
    return coeffs, sir, rho_star


@st.composite
def allocation_problems(draw):
    """K = 1..4 instances, with and without an SIR floor and beam leakage."""
    k = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    coeffs = make_coeffs(
        10.0 ** draw(arrays(float, k, elements=st.floats(0.0, 2.0))),
        draw(arrays(float, (k, k), elements=unit)),
        draw(arrays(float, k, elements=unit)),
        noise_var=draw(st.floats(0.01, 2.0)),
    )
    user_gains = draw(st.one_of(st.just(np.zeros(k)), arrays(float, k, elements=unit)))
    sir = RadarSirCoefficients(radar_gain=draw(st.floats(0.1, 10.0)), user_gains=user_gains)
    rho_star = draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0)))
    budget = 10.0 ** draw(st.floats(-3.0, 3.0))
    return coeffs, sir, budget, rho_star


class TestUniformAllocate:
    def test_table_scale_example(self):
        alloc = uniform_allocate(2.0, 1.0, n_users=10, n_subcarriers=512, n_symbols=14)
        np.testing.assert_allclose(alloc.eta_users, 2.0 / 71_680, rtol=1e-12)
        assert np.isclose(alloc.eta_radar, 2.0 / 7168, rtol=1e-12)

    def test_unit_ratio_radar_power(self):
        alloc = uniform_allocate(2.0, 1.0, n_users=4, n_subcarriers=64, n_symbols=14)
        assert np.isclose(alloc.eta_radar, 2.0 / (64 * 14), rtol=1e-12)

    def test_double_ratio_radar_power(self):
        alloc = uniform_allocate(2.0, 2.0, n_users=4, n_subcarriers=64, n_symbols=14)
        assert np.isclose(alloc.eta_radar, 4.0 / (64 * 14), rtol=1e-12)
        assert np.isclose(alloc.total, alloc.budget, rtol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            uniform_allocate(0.0, 1.0, 4, 64, 14)
        with pytest.raises(ValueError):
            uniform_allocate(2.0, -1.0, 4, 64, 14)


class TestMaxMinAllocate:
    def test_symmetric_instance_equal_powers(self):
        xi = np.full((3, 3), 0.2) + 0.3 * np.eye(3)
        coeffs = make_coeffs([5.0, 5.0, 5.0], xi, [0.1, 0.1, 0.1])
        sir = RadarSirCoefficients(radar_gain=1.0, user_gains=np.zeros(3))
        alloc = max_min_allocate(coeffs, sir, budget=1.0, rho_star=0.0)
        np.testing.assert_allclose(
            alloc.eta_users, alloc.eta_users.mean(), rtol=1e-4
        )

    def test_single_user_full_budget(self):
        coeffs = make_coeffs([4.0], [[0.5]], [0.3], noise_var=1.0)
        sir = RadarSirCoefficients(radar_gain=1.0, user_gains=np.array([0.0]))
        budget = 2.0
        alloc = max_min_allocate(coeffs, sir, budget, rho_star=0.0)
        assert alloc.eta_users[0] >= budget * (1.0 - 1e-5)
        t_full = 4.0 * budget / (0.5 * budget + 1.0)
        assert np.isclose(alloc.achieved_t, t_full, rtol=1e-5)

    def test_budget_saturated(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            coeffs, sir, rho = random_instance(rng)
            alloc = max_min_allocate(coeffs, sir, 1.0, rho)
            assert np.isclose(alloc.total, 1.0, rtol=1e-6)

    def test_sir_constraint_holds(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            coeffs, sir, rho = random_instance(rng)
            alloc = max_min_allocate(coeffs, sir, 1.0, rho)
            lhs = alloc.eta_radar * sir.radar_gain
            rhs = rho * (sir.user_gains @ alloc.eta_users)
            assert lhs >= rhs * (1.0 - 1e-6)

    def test_dominates_uniform_min_sinr(self):
        rng = np.random.default_rng(25)
        for _ in range(5):
            coeffs, sir, rho = random_instance(rng)
            alloc = max_min_allocate(coeffs, sir, 1.0, rho)
            # A uniform split honoring the SIR constraint with equality.
            ratio = rho * sir.user_gains.mean() / sir.radar_gain
            eta_u = np.full(3, 1.0 / (3.0 + 3.0 * ratio))
            eta_r = 1.0 - eta_u.sum()
            uni_min = np.min(sinr(coeffs, (eta_u, eta_r)))
            assert alloc.achieved_t >= uni_min * (1.0 - 1e-6)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            coeffs, sir, rho = random_instance(rng)
            alloc = max_min_allocate(coeffs, sir, 1.0, rho)
            t_grid, _, _ = grid_search_max_min(coeffs, sir, 1.0, rho, step=2e-3)
            assert abs(alloc.achieved_t - t_grid) <= 0.01 * alloc.achieved_t

    def test_infeasible_radar_constraint(self):
        coeffs = make_coeffs([1.0], [[0.1]], [0.2])
        sir = RadarSirCoefficients(radar_gain=0.0, user_gains=np.array([1.0]))
        with pytest.raises(AllocationInfeasibleError):
            max_min_allocate(coeffs, sir, budget=1.0, rho_star=1.0)

    @settings(max_examples=100, deadline=None)
    @given(allocation_problems())
    def test_balanced_optimum_property(self, problem):
        coeffs, sir, budget, rho = problem
        alloc = max_min_allocate(coeffs, sir, budget, rho)
        # Every grid point is a feasible allocation, so the oracle is a lower bound.
        t_grid, _, _ = grid_search_max_min(coeffs, sir, budget, rho, step=0.02)
        assert alloc.achieved_t >= t_grid * (1.0 - 1e-9)
        s = sinr(coeffs, alloc)
        np.testing.assert_allclose(s, s.min(), rtol=1e-9)
        np.testing.assert_allclose(
            alloc.eta_radar * sir.radar_gain, rho * (sir.user_gains @ alloc.eta_users), rtol=1e-9
        )
        assert np.isclose(alloc.total, budget, rtol=1e-9, atol=0.0)


class TestPowerAllocation:
    def test_rejects_negative_and_over_budget(self):
        with pytest.raises(ValueError):
            PowerAllocation(eta_users=np.array([-0.1]), eta_radar=0.0, budget=1.0)
        with pytest.raises(ValueError):
            PowerAllocation(eta_users=np.array([0.9]), eta_radar=0.2, budget=1.0)

    def test_sir_gains_validation(self):
        with pytest.raises(ValueError):
            RadarSirCoefficients(radar_gain=-1.0, user_gains=np.array([0.0]))


def badly_scaled_instance(rng):
    """K <= 10, gains over 14 decades, 30% zero couplings, the rest over 16 decades."""
    k = int(rng.integers(1, 11))

    def sparse(shape, low, high):
        values = 10.0 ** rng.uniform(low, high, size=shape)
        return np.where(rng.uniform(size=shape) < 0.3, 0.0, values)

    coeffs = make_coeffs(
        10.0 ** rng.uniform(-14.0, 0.0, size=k),
        sparse((k, k), -18.0, -2.0),
        sparse(k, -18.0, -2.0),
        noise_var=10.0 ** rng.uniform(-16.0, -8.0),
    )
    sir = RadarSirCoefficients(
        radar_gain=10.0 ** rng.uniform(0.0, 2.0), user_gains=sparse(k, -4.0, 1.0)
    )
    return coeffs, sir, 10.0 ** rng.uniform(-6.0, -2.0), 10.0 ** rng.uniform(-1.0, 1.0)


def sinr_imbalance(coeffs, sir, budget, rho_star):
    """max/min - 1 of the allocated SINRs; inf when the solver gives no vector."""
    try:
        values = sinr(coeffs, max_min_allocate(coeffs, sir, budget, rho_star))
    except SolverError:
        return np.inf
    return values.max() / values.min() - 1.0


class TestPerronPolish:
    def test_power_steps_balance_badly_scaled_problems(self, monkeypatch):
        rng = np.random.default_rng(20_000)
        problems = [badly_scaled_instance(rng) for _ in range(3_000)]
        polished = np.array([sinr_imbalance(*p) for p in problems])
        monkeypatch.setattr(poweralloc, "PERRON_POLISH_STEPS", 0)
        raw = np.array([sinr_imbalance(*p) for p in problems])
        assert polished.max() <= 1e-8
        # Near balance both are round-off: a few ulps of 1 either way.
        assert np.all(polished <= np.maximum(raw, 1e-14))
