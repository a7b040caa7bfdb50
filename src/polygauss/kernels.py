"""Polynomial-Gaussian kernels: a polynomial factor times a Gaussian triple."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    GaussianTriple,
    eval_gaussian_grid,
    gaussian_exponent,
    triple_exponent_matrix,
)
from .poly import MultiPoly

__all__ = ["PolyGaussianKernel"]

SELF_ADJOINT_RTOL = 1e-9


@dataclass(frozen=True)
class PolyGaussianKernel:
    """Kernel ``norm * P(x, y) * kappa_G(x, y)`` on R^n x R^n.

    ``poly`` must be self-adjoint (swap of the x/y blocks plus conjugation
    leaves it fixed) and the triple kernel valid, so the kernel defines a
    self-adjoint trace-class integral operator.
    """

    poly: MultiPoly
    triple: GaussianTriple
    norm: float = 1.0

    def __post_init__(self) -> None:
        if self.poly.nvars != 2 * self.triple.n:
            raise ValueError(
                f"polynomial has {self.poly.nvars} variables, triple needs {2 * self.triple.n}"
            )
        if self.poly.is_zero():
            raise ValueError("kernel polynomial must be nonzero")
        if not self.poly.is_self_adjoint(tol=SELF_ADJOINT_RTOL):
            raise ValueError("kernel polynomial is not self-adjoint")
        self.triple.require_kernel_valid()
        if not (np.isfinite(self.norm) and self.norm > 0.0):
            raise ValueError("norm must be a positive real number")

    @classmethod
    def pure_gaussian(cls, triple: GaussianTriple, norm: float = 1.0) -> "PolyGaussianKernel":
        return cls(MultiPoly.constant(2 * triple.n, 1.0), triple, norm)

    @property
    def n(self) -> int:
        return self.triple.n

    def with_norm(self, norm: float) -> "PolyGaussianKernel":
        return replace(self, norm=norm)

    def with_triple(self, triple: GaussianTriple) -> "PolyGaussianKernel":
        return replace(self, triple=triple)

    def exponent_matrix(self) -> np.ndarray:
        """Complex symmetric 2n x 2n matrix M with Gaussian part exp(-z^T M z)."""
        return triple_exponent_matrix(self.triple)

    def evaluate(self, x, y) -> complex:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        expo = gaussian_exponent(self.triple, x, y)
        return complex(self.norm * self.poly.evaluate(x, y) * np.exp(expo))

    def gram(self, points: np.ndarray) -> np.ndarray:
        """Kernel matrix ``K[i, j] = kernel(points[i], points[j])`` (complex).

        A stack of point sets (..., k, n) gives the stack of their matrices.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.norm * self.poly.eval_grid(pts) * eval_gaussian_grid(self.triple, pts)
