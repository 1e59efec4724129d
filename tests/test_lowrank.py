import numpy as np
import pytest

from jcsim.lowrank import IdentityPlusLowRank

N, R, STACK = 12, 4, 3


def random_stack(rng, basis):
    core = rng.standard_normal((STACK, R, R)) + 1j * rng.standard_normal((STACK, R, R))
    scale = rng.uniform(0.5, 2.0, STACK) + 1j * rng.uniform(-1.0, 1.0, STACK)
    return IdentityPlusLowRank.over(basis, scale, core)


@pytest.fixture(params=["full_rank", "rank_deficient"])
def basis(request):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((N, R)) + 1j * rng.standard_normal((N, R))
    if request.param == "rank_deficient":
        u[:, -1] = u[:, 0]
    return u


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))


class TestAgainstDenseAlgebra:
    def test_dense_is_scale_plus_low_rank(self, basis):
        m = random_stack(np.random.default_rng(1), basis)
        for k in range(STACK):
            ref = m.scale[k] * np.eye(N) + basis @ m.core[k] @ basis.conj().T
            close(m.dense()[k], ref)

    def test_product_adjoint_difference_and_scaling(self, basis):
        rng = np.random.default_rng(2)
        a, b = random_stack(rng, basis), random_stack(rng, basis)
        factor = rng.standard_normal(STACK)
        close((a @ b).dense(), a.dense() @ b.dense())
        close(a.H.dense(), np.conj(np.swapaxes(a.dense(), -1, -2)))
        close((a - b).dense(), a.dense() - b.dense())
        close((a * factor).dense(), factor[:, None, None] * a.dense())

    def test_traces_forms_and_norms(self, basis):
        rng = np.random.default_rng(3)
        m = random_stack(rng, basis)
        dense = m.dense()
        w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        close(m.trace(), np.trace(dense, axis1=-2, axis2=-1))
        close(m.in_basis(), basis.conj().T @ dense @ basis)
        close(m.quadratic_form(w), np.einsum("i,kij,j->k", w.conj(), dense, w))
        close(m.frobenius_norm(), np.linalg.norm(dense, axis=(-2, -1)))

    def test_apply_to_rows(self, basis):
        rng = np.random.default_rng(4)
        m = random_stack(rng, basis)
        v = rng.standard_normal((STACK, 5, N)) + 1j * rng.standard_normal((STACK, 5, N))
        close(m.apply(v), np.einsum("kij,kmj->kmi", m.dense(), v))

    @pytest.mark.parametrize("singular", [False, True])
    def test_solve_with_singular_core(self, basis, singular):
        rng = np.random.default_rng(5)
        # Hermitian PSD cores keep x I + U B U^H invertible for x > 0.
        core = rng.standard_normal((STACK, R, R)) + 1j * rng.standard_normal((STACK, R, R))
        core = core @ np.conj(np.swapaxes(core, -1, -2))
        if singular:
            core[:, :, -1] = 0.0
            core[:, -1, :] = 0.0
        lhs = IdentityPlusLowRank.over(basis, rng.uniform(0.1, 1.0, STACK), core)
        # A zero scale on the right: the LMMSE case of a LoS channel.
        rhs_core = random_stack(rng, basis).core
        rhs = IdentityPlusLowRank.over(basis, np.array([0.0, 1.0, 0.3]), rhs_core)
        close(lhs.solve(rhs).dense(), np.linalg.solve(lhs.dense(), rhs.dense()))
