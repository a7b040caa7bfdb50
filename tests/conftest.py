"""Shared generators and numerical oracles for the test suite."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from polygauss import numerics
from polygauss.gaussian import GaussianTriple, symplectic_form
from polygauss.kernels import PolyGaussianKernel
from polygauss.poly import MultiPoly
from polygauss.spectral import MercerCertificate, verify_mercer_certificate


def random_kernel_valid_triple(rng: np.random.Generator, n: int, b_scale: float = 1.0) -> GaussianTriple:
    """Random triple with comfortably positive definite A and C."""
    a = rng.normal(size=(n, n))
    a = a @ a.T + (0.5 + n) * np.eye(n)
    c = rng.normal(size=(n, n))
    c = 0.3 * (c @ c.T) + 0.4 * np.eye(n)
    b = b_scale * rng.normal(size=(n, n))
    return GaussianTriple(a, b, c)


def random_gn_triple(rng: np.random.Generator, n: int) -> GaussianTriple:
    """Random element with symmetric A, C of arbitrary sign (general preorder input)."""
    a = rng.normal(size=(n, n))
    c = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    return GaussianTriple(0.5 * (a + a.T), b, 0.5 * (c + c.T))


def random_self_adjoint_poly(
    rng: np.random.Generator, n: int, terms: int = 4, max_deg: int = 3
) -> MultiPoly:
    """Nonzero self-adjoint polynomial: random terms symmetrized with the adjoint."""
    while True:
        tdict: dict[tuple[int, ...], complex] = {}
        for _ in range(terms):
            exps = tuple(int(e) for e in rng.integers(0, max_deg + 1, size=2 * n))
            if sum(exps) > 2 * max_deg:
                continue
            coeff = complex(rng.normal(), rng.normal())
            tdict[exps] = tdict.get(exps, 0j) + coeff
        p = MultiPoly(2 * n, tdict)
        sym = p.hermitized()
        if not sym.is_zero():
            return sym


def random_kernel(
    rng: np.random.Generator, n: int, terms: int = 4, max_deg: int = 2, b_scale: float = 1.0
) -> PolyGaussianKernel:
    return PolyGaussianKernel(
        random_self_adjoint_poly(rng, n, terms, max_deg),
        random_kernel_valid_triple(rng, n, b_scale),
    )


def random_symplectic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random symplectic 2n x 2n matrix built from elementary generators."""
    eye = np.eye(n)
    p = rng.normal(size=(n, n))
    p = 0.5 * (p + p.T)
    q = rng.normal(size=(n, n))
    q = 0.5 * (q + q.T)
    m = rng.normal(size=(n, n)) + 2.0 * eye
    shear_p = np.block([[eye, np.zeros((n, n))], [p, eye]])
    shear_q = np.block([[eye, q], [np.zeros((n, n)), eye]])
    gl = np.block([[m, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(m).T]])
    s = shear_p @ gl @ shear_q
    omega = symplectic_form(n)
    assert np.max(np.abs(s.T @ omega @ s - omega)) < 1e-9
    return s


def gauss_hermite_oracle(prefactor: MultiPoly, quad: np.ndarray, lin: np.ndarray, order: int) -> complex:
    """Tensor Gauss-Hermite quadrature of ``prefactor * exp(-z^T quad z + lin^T z)``.

    The real part of ``quad`` is factored out as the Gaussian weight; the
    residual complex phase and linear term stay in the integrand, where the
    quadrature converges rapidly because they are entire.
    """
    quad = np.asarray(quad, dtype=complex)
    lin = np.asarray(lin, dtype=complex)
    m = quad.shape[0]
    chol = np.linalg.cholesky(0.5 * (quad.real + quad.real.T))
    inv_t = np.linalg.inv(chol).T  # z = inv_t @ u maps the weight to exp(-u.u)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([nodes] * m), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)  # (N, m)
    z = u @ inv_t.T
    s_imag = 1j * quad.imag
    phase = np.exp(-np.einsum("ni,ij,nj->n", z, s_imag, z) + z @ lin)
    poly_vals = np.zeros(len(u), dtype=complex)
    for exps, coeff in prefactor.terms.items():
        mono = np.ones(len(u), dtype=complex)
        for d, e in enumerate(exps):
            if e:
                mono = mono * z[:, d] ** e
        poly_vals += coeff * mono
    wgrids = np.meshgrid(*([weights] * m), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    det_jac = 1.0 / np.prod(np.diag(chol))
    return complex(det_jac * np.sum(w * phase * poly_vals))


def elementary_symmetric_det(moment_values: Sequence[float]) -> np.ndarray:
    """Determinant formulation of Newton's identities (cross-check oracle).

    ``e_k`` is ``1/k!`` times the determinant of the k-by-k matrix with
    ``M_{i-j+1}`` on and below the diagonal and ``i+1`` on the superdiagonal.
    """
    m = np.asarray(moment_values, dtype=float)
    out = np.zeros(m.size)
    for k in range(1, m.size + 1):
        mat = np.zeros((k, k))
        for i in range(k):
            for jcol in range(i + 1):
                mat[i, jcol] = m[i - jcol]
            if i + 1 < k:
                mat[i, i + 1] = i + 1
        out[k - 1] = np.linalg.det(mat) / math.factorial(k)
    return out


def mercer_search_reference(
    kernel: PolyGaussianKernel,
    trials: int = 200,
    points_per_trial: int = 20,
    seed: int = 0,
    cloud_scale: Optional[float] = None,
) -> Optional[MercerCertificate]:
    """Trial-by-trial Mercer search: one Gram build and one ``eigh`` per trial.

    Reference for the blocked ``spectral.mercer_search``, which must return
    the same certificate bit for bit.
    """
    if cloud_scale is None:
        cloud_scale = 0.5 / math.sqrt(max(numerics.min_eigenvalue(kernel.triple.c), 1e-12))
    factors = (1.0, 0.5, 2.0)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        pts = cloud_scale * factors[trial % len(factors)] * rng.standard_normal(
            (points_per_trial, kernel.n)
        )
        gram = kernel.gram(pts)
        gram = 0.5 * (gram + gram.conj().T)
        vals, vecs = np.linalg.eigh(gram)
        scale = max(float(np.abs(np.trace(gram))), float(np.max(np.abs(gram))), 1e-300)
        if vals[0] < -1e-9 * scale:
            coeffs = np.conj(vecs[:, 0])
            value = verify_mercer_certificate(kernel, pts, coeffs)
            if value < -1e-9 * scale:
                return MercerCertificate(pts, coeffs, value, float(vals[0]), trial)
    return None
