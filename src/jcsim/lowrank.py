"""Stacks of N x N matrices x I + U B U^H over one shared N x r basis U.

Every second-order statistic of the training chain has this form with U the
users' steering vectors (see :mod:`jcsim.estimation`).  Products, traces,
quadratic forms, inverse products and matrix-vector products then cost r x r
algebra plus O(N r) per vector, and the N x N matrix is formed only on
request by :meth:`IdentityPlusLowRank.dense`.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["IdentityPlusLowRank"]


@dataclass(frozen=True)
class IdentityPlusLowRank:
    """M = x I + U B U^H for a stack of scales x and r x r cores B.

    ``scale`` has the stack shape S, ``core`` the shape S + (r, r); ``basis``
    is U (N x r) and ``gram`` is U^H U, both shared by the whole stack.  U
    may be rank-deficient and B singular.
    """

    scale: np.ndarray
    core: np.ndarray
    basis: np.ndarray
    gram: np.ndarray

    @classmethod
    def over(cls, basis: np.ndarray, scale, core) -> "IdentityPlusLowRank":
        basis = np.asarray(basis)
        return cls(np.asarray(scale), np.asarray(core), basis, basis.conj().T @ basis)

    def _with(self, scale, core) -> "IdentityPlusLowRank":
        return IdentityPlusLowRank(scale, core, self.basis, self.gram)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def H(self) -> "IdentityPlusLowRank":
        """Conjugate transpose of every matrix of the stack, formed on first read and kept."""
        return self._with(np.conj(self.scale), np.conj(np.swapaxes(self.core, -1, -2)))

    def __matmul__(self, other: "IdentityPlusLowRank") -> "IdentityPlusLowRank":
        x, y = self.scale[..., None, None], other.scale[..., None, None]
        core = x * other.core + y * self.core + self.core @ self.gram @ other.core
        return self._with(self.scale * other.scale, core)

    def __mul__(self, factor) -> "IdentityPlusLowRank":
        """Each matrix times its entry of ``factor`` (an array of the stack shape)."""
        factor = np.asarray(factor)
        return self._with(factor * self.scale, factor[..., None, None] * self.core)

    def __sub__(self, other: "IdentityPlusLowRank") -> "IdentityPlusLowRank":
        return self._with(self.scale - other.scale, self.core - other.core)

    def solve(self, other: "IdentityPlusLowRank") -> "IdentityPlusLowRank":
        """M^{-1} N, by Woodbury: one r x r solve per matrix, never an N x N one.

        With M = x I + U B U^H and N = y I + U C U^H,

            M^{-1} = x^{-1} (I - U B (x I + G B)^{-1} U^H),
            M^{-1} N = (y / x) I + U (x I + B G)^{-1} (C - (y / x) B) U^H,

        where G = U^H U; the second line folds the push-through identity
        B (x I + G B)^{-1} = (x I + B G)^{-1} B into the product, so no term
        cancels when N has no identity part.  Holds for singular B and
        rank-deficient U whenever M is invertible.
        """
        ratio = other.scale / self.scale
        eye = np.eye(self.gram.shape[0])
        lhs = self.scale[..., None, None] * eye + self.core @ self.gram
        core = np.linalg.solve(lhs, other.core - ratio[..., None, None] * self.core)
        return self._with(ratio, core)

    def trace(self) -> np.ndarray:
        """tr M = N x + tr(B G)."""
        return self.n * self.scale + np.einsum("...ab,ba->...", self.core, self.gram)

    def in_basis(self) -> np.ndarray:
        """U^H M U = x G + G B G; its diagonal holds the forms u_i^H M u_i."""
        return self.scale[..., None, None] * self.gram + self.gram @ self.core @ self.gram

    def quadratic_form(self, w: np.ndarray) -> np.ndarray:
        """w^H M w = x ||w||^2 + c^H B c with c = U^H w, for one vector w."""
        c = self.basis.conj().T @ w
        return self.scale * np.vdot(w, w) + np.einsum("a,...ab,b->...", c.conj(), self.core, c)

    def frobenius_norm(self) -> np.ndarray:
        """||M||_F, from tr(M^H M) = N |x|^2 + 2 Re(x* tr(B G)) + sum(conj(G B) * (B G))."""
        right = self.core @ self.gram
        cross = (np.conj(self.scale) * np.trace(right, axis1=-2, axis2=-1)).real
        quartic = np.sum(np.conj(self.gram @ self.core) * right, axis=(-2, -1)).real
        return np.sqrt(np.maximum(self.n * abs(self.scale) ** 2 + 2.0 * cross + quartic, 0.0))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M v for each row v of ``v``, shape S + (m, N): x v + U B (U^H v)."""
        coords = v @ self.basis.conj()  # rows of U^H v
        low_rank = coords @ np.swapaxes(self.core, -1, -2) @ self.basis.T
        return self.scale[..., None, None] * v + low_rank

    def dense(self) -> np.ndarray:
        """The N x N matrices, shape S + (N, N)."""
        low_rank = self.basis @ self.core @ self.basis.conj().T
        return low_rank + self.scale[..., None, None] * np.eye(self.n)
