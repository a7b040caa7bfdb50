"""Shared generators and numerical oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import mpmath
import numpy as np

from polygauss import numerics, wick
from polygauss.entangle import Bipartition, partial_transpose_triple
from polygauss.gaussian import (
    EQUIV_RTOL,
    GaussianTriple,
    PreorderWitness,
    preorder_leq,
    symplectic_form,
)
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


def sufficient_leq(g0: GaussianTriple, g1: GaussianTriple, rtol: float = EQUIV_RTOL) -> bool:
    """Cheap sufficient condition: A1 - C1 >= A0 - C0 and symmetric B1 - B0."""
    if g0.n != g1.n:
        raise ValueError("triples must have equal dimension")
    scale = max(g0.scale(), g1.scale())
    gap = (g1.a - g1.c) - (g0.a - g0.c)
    db = g1.b - g0.b
    return (
        numerics.min_eigenvalue(gap) >= -rtol * scale
        and float(np.max(np.abs(db - db.T))) <= rtol * scale
    )


@dataclass(frozen=True)
class PropagationRecord:
    """Preorder link between the partial transposes of two Gaussian weights.

    When ``holds``, an NPT certificate for any polynomial factor over the
    second weight transfers to the same polynomial over the first.
    """

    holds: bool
    witness: PreorderWitness


def preorder_npt_propagate(
    g0: GaussianTriple, g1: GaussianTriple, b: Bipartition
) -> PropagationRecord:
    pt0 = partial_transpose_triple(g0, b)
    pt1 = partial_transpose_triple(g1, b)
    holds, witness = preorder_leq(pt0, pt1)
    return PropagationRecord(holds, witness)


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


def elementary_symmetric_from_eigenvalues(
    eigenvalues: Sequence[float], kmax: int
) -> np.ndarray:
    """Direct (e_1, ..., e_kmax) of a finite eigenvalue list."""
    e = np.zeros(kmax + 1)
    e[0] = 1.0
    for lam in eigenvalues:
        for k in range(kmax, 0, -1):
            e[k] += lam * e[k - 1]
    return e[1:]


def universal_point_check(
    p: MultiPoly,
    points: Sequence[Sequence[float]],
    coeffs: Sequence[complex],
    imag_rtol: float = 1e-10,
) -> float:
    """Evaluate the finite positivity form ``sum_{ij} c_i c*_j P(x_i, x_j)``.

    For a self-adjoint polynomial the value is real; a negative result is a
    certified counterexample to the polynomial defining a positive operator
    over every positive Gaussian weight.
    """
    if not p.is_self_adjoint(tol=1e-12):
        raise ValueError("universal point check requires a self-adjoint polynomial")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cs = np.asarray(coeffs, dtype=complex)
    if pts.shape[0] != cs.shape[0] or pts.shape[0] < 1:
        raise ValueError("need matching, nonempty points and coefficients")
    if pts.shape[1] != p.n:
        raise ValueError(f"points must have {p.n} coordinates")
    grid = p.eval_grid(pts)
    value = complex(np.einsum("i,j,ij->", cs, cs.conjugate(), grid))
    scale = float(np.max(np.abs(grid)) * np.sum(np.abs(cs)) ** 2) or 1.0
    if abs(value.imag) > imag_rtol * scale:
        raise ArithmeticError(
            f"positivity form has imaginary residue {value.imag:.3e} (scale {scale:.3e})"
        )
    return value.real


def brute_force_gate(p: MultiPoly) -> tuple[str, Optional[tuple[int, ...]], Optional[int]]:
    """The odd-degree gate by enumerating every zeroed coordinate subset.

    Returns ``(kind, witness, restricted_degree)`` as ``odd_degree_gate``
    reports them: subsets are tried in lexicographic order of their sorted
    index tuples and the first whose restriction has odd degree wins.
    """
    deg = p.degree()
    if deg % 2 == 1:
        return "reject_odd", (), deg
    n = p.n
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(1, n + 1)
        )
    )
    for subset in subsets:
        kept = {}
        for exps, coeff in p.terms.items():
            if all(exps[i] == 0 and exps[n + i] == 0 for i in subset):
                kept[exps] = coeff
        if kept:
            rdeg = max(sum(e) for e in kept)
            if rdeg % 2 == 1:
                return "reject_reducible_odd", subset, rdeg
    return "pass", None, None


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


class WickTableReference:
    """Recursive Isserlis table on tuple keys, one method call per lookup.

    Reference for the compiled programs of ``wick.WickTable``, whose moments
    must equal these bit for bit: same pivot, same ascending ``j``, same sum.
    """

    def __init__(self, cov: np.ndarray) -> None:
        cov = numerics.as_array(cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        self.cov = cov
        self._memo: dict[tuple[int, ...], complex] = {(0,) * cov.shape[0]: 1}

    def moments(self, alphas) -> list:
        """The batched entry point of ``wick.WickTable``, one recursive lookup per term."""
        return [self.moment(alpha) for alpha in alphas]

    def moment(self, alpha: Sequence[int]) -> complex:
        """E[w^alpha] for centered Gaussian w with the stored covariance."""
        cached = self._memo.get(alpha) if type(alpha) is tuple else None
        if cached is not None:
            return cached
        alpha = tuple(int(e) for e in alpha)
        if sum(alpha) % 2:
            return 0
        return self._moment(alpha)

    def _moment(self, alpha: tuple[int, ...]) -> complex:
        cached = self._memo.get(alpha)
        if cached is not None:
            return cached
        i = next(k for k, e in enumerate(alpha) if e > 0)
        beta = list(alpha)
        beta[i] -= 1
        total = 0
        row = self.cov[i]
        for j, bj in enumerate(beta):
            if bj > 0 and row[j]:
                gamma = list(beta)
                gamma[j] -= 1
                total += row[j] * bj * self._moment(tuple(gamma))
        self._memo[alpha] = total
        return total



def family_eks_pointwise(family, kmax: int, delta: float):
    """The family evaluator's former 100-digit route, as a reference.

    Builds the raw trace polynomials ``T_j(gamma)`` on the shared engine in
    ``FAMILY_DPS``-digit mpmath arithmetic, as the evaluator did before its
    exact integer build, and per gamma evaluates them, normalizes
    ``T_j / T_1^j`` and runs Newton's identities
    (``spectral.elementary_symmetric``) on the values.  The returned
    callable gives the ``FAMILY_DPS``-digit values.
    """
    from polygauss.spectral import FAMILY_DPS, chain_form, elementary_symmetric

    n = family.n
    to_mp = np.vectorize(mpmath.mpf, otypes=[object])
    with mpmath.workdps(FAMILY_DPS):
        shift = to_mp(delta * np.eye(n))
        a = to_mp(family.base_triple.a) + shift
        c = to_mp(family.base_triple.c) + shift
        exponent_matrix = np.block([[a + c, c - a], [c - a, a + c]])
        poly = MultiPoly(
            family.poly_gamma.nvars,
            {e: mpmath.mpf(co.real) for e, co in family.poly_gamma.terms.items()},
        )
        traces = []
        for j in range(1, kmax + 1):
            form = chain_form(poly, exponent_matrix, j).integrate(range(j * n))
            traces.append(form.poly * form.scale)

    def eks_at(gamma: float) -> list:
        with mpmath.workdps(FAMILY_DPS):
            g = (mpmath.mpf(gamma),)
            raw = [trace(g) for trace in traces]
            if raw[0] <= 0:
                raise ValueError(f"non-positive trace at gamma={gamma}")
            return list(elementary_symmetric([r / raw[0] ** j for j, r in enumerate(raw, 1)]))

    return eks_at


def horner_coefficients(p: MultiPoly) -> tuple[list[int], int]:
    """``p`` in the family evaluator's coefficient format ``(ints, q)``.

    ``p`` is a one-variable polynomial with binary (mpmath) coefficients,
    so ``p(x) = sum_d ints[d] x^(D - d) / q`` holds exactly with integers
    ``ints`` (highest degree ``D`` first) and a power of two ``q``; the
    format ``spectral._family_eks`` reads.
    """
    deg = p.degree()
    if deg is None:
        return [], 1
    scaled = []
    for d in range(deg, -1, -1):
        c = p.terms.get((d,), 0)
        man, exp = c.man_exp if c else (0, 0)
        scaled.append((-man if c < 0 else man, exp))
    s = min(exp for man, exp in scaled if man)
    ints = [man << (exp - s) for man, exp in scaled]
    return ([c << s for c in ints], 1) if s >= 0 else (ints, 1 << -s)


def z_root_eager(family, k, delta, gamma_range=(0.0, 20.0), samples=64, tol=1e-6):
    """The finite-delta root scan's former route, as a reference.

    Evaluates ``e_k`` on every grid point first, then looks for the first
    sign change (or an exact zero before the last point) and bisects it.
    """
    from polygauss.spectral import ZRootResult

    lo, hi = gamma_range
    eks_at = family.ek_evaluator(k, delta)

    def f(gamma: float) -> float:
        return float(eks_at(gamma)[k - 1])

    grid = np.linspace(lo, hi, max(int(samples), 2))
    values = [f(g) for g in grid]
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return ZRootResult(k, delta, float(grid[i]), (float(grid[i]), float(grid[i])))
        if np.sign(values[i]) != np.sign(values[i + 1]):
            bracket = (float(grid[i]), float(grid[i + 1]))
            return ZRootResult(k, delta, numerics.bracket_root(f, *bracket, tol), bracket)
    raise numerics.BracketError(
        f"e_{k} has no sign change on gamma range [{lo}, {hi}] at delta={delta}"
    )


@dataclass(frozen=True)
class WignerForm:
    """Phase-space image ``scale * poly(x, p) * exp(-(x, p)^T quad (x, p))``."""

    n: int
    poly: MultiPoly  # over (x_1..x_n, p_1..p_n)
    quad: np.ndarray  # real SPD 2n x 2n
    scale: complex

    def evaluate(self, x, p) -> complex:
        v = np.concatenate([np.atleast_1d(x), np.atleast_1d(p)]).astype(float)
        return complex(self.scale * self.poly(v) * np.exp(-(v @ self.quad @ v)))


def wigner_transform(kernel: PolyGaussianKernel) -> WignerForm:
    """Phase-space transform of a kernel.

    Integrates ``(2 pi)^{-n} exp(-i p^T y) kernel(x + y/2, x - y/2)`` over y
    in closed form.  The Gaussian part of the output matches
    :func:`polygauss.gaussian.phase_space_form` and the polynomial part has
    degree at most the kernel polynomial's.
    """
    n = kernel.n
    # Ring layout: [y (internal), x, p].
    nv = 3 * n
    sel = np.zeros((2 * n, nv), dtype=complex)
    for i in range(n):
        sel[i, i] = 0.5  # x_old_i = x_i + y_i / 2
        sel[i, n + i] = 1.0
        sel[n + i, i] = -0.5  # y_old_i = x_i - y_i / 2
        sel[n + i, n + i] = 1.0
    quad = sel.T @ kernel.exponent_matrix() @ sel
    # exp(-i p^T y) contributes the bilinear exponent term -(y^T (i I) p).
    for i in range(n):
        quad[i, 2 * n + i] += 0.5j
        quad[2 * n + i, i] += 0.5j
    poly = kernel.poly.compose_affine(sel)
    scale = kernel.norm * (2.0 * np.pi) ** (-n)
    form = wick.GaussianForm(poly, quad, np.zeros(nv, dtype=complex), 0j, scale)
    reduced = form.integrate(range(n))

    g = reduced.quad
    if float(np.max(np.abs(g.imag))) > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise numerics.IndefiniteMatrixError("phase-space quadratic form came out complex")
    if float(np.max(np.abs(reduced.lin))) > 1e-9:
        raise numerics.IndefiniteMatrixError("phase-space form has a stray linear term")
    scalar = reduced.scale * np.exp(reduced.const)
    return WignerForm(n, reduced.poly, numerics.as_real_symmetric(g.real, rtol=1e-9), scalar)


def wigner_inverse(w: WignerForm) -> PolyGaussianKernel:
    """Invert :func:`wigner_transform` back to a position-representation kernel.

    Integrates ``w((x + y)/2, p) exp(i p^T (x - y))`` over p.
    """
    n = w.n
    # Ring layout: [p (internal), x, y].
    nv = 3 * n
    sel = np.zeros((2 * n, nv), dtype=complex)
    for i in range(n):
        sel[i, n + i] = 0.5  # x-argument = (x_i + y_i) / 2
        sel[i, 2 * n + i] = 0.5
        sel[n + i, i] = 1.0  # p-argument = p_i
    quad = sel.T @ w.quad.astype(complex) @ sel
    # exp(i p^T (x - y)) contributes -(p^T (-i I) x) and -(p^T (i I) y).
    for i in range(n):
        quad[i, n + i] += -0.5j
        quad[n + i, i] += -0.5j
        quad[i, 2 * n + i] += 0.5j
        quad[2 * n + i, i] += 0.5j
    poly = w.poly.compose_affine(sel)
    form = wick.GaussianForm(poly, quad, np.zeros(nv, dtype=complex), 0j, w.scale)
    reduced = form.integrate(range(n))
    return wick._form_to_kernel(reduced, rtol=1e-8)
