"""Trace-moment spectral tests for polynomial-Gaussian operators.

The j-th trace power ``M_j = Tr(K^j)`` of a kernel operator is a cyclic
chain integral over ``j*n`` variables and evaluates in closed form through
the Wick engine.  Newton's identities turn the moments into the elementary
symmetric values ``e_k`` of the eigenvalue sequence; a negative ``e_k``
certifies that the operator is not positive semidefinite, while all-
nonnegative values up to ``kmax`` prove nothing (the report wording keeps
that asymmetry explicit).

The sweep can be sharpened by re-running it on equivalent Gaussian weights
``(A + delta I, B, C + delta I)``: non-positivity of any equivalent kernel
certifies non-positivity of the original.  For one-parameter kernel
families, :func:`z_root` locates the parameter where ``e_k`` changes sign
and :func:`delta_scan` tracks how that threshold improves with ``delta``.

Independent of the moment machinery, :func:`mercer_search` hunts for finite
point-set positivity violations and :func:`nystrom_oracle` approximates the
spectrum by grid discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from . import numerics
from .gaussian import ConsistencyError, GaussianTriple, equiv, shifted_triple
from .kernels import PolyGaussianKernel
from .poly import MultiPoly
from .wick import DEFAULT_DEGREE_CAP, GaussianForm

__all__ = [
    "DeltaScanResult",
    "GammaFamily",
    "MercerCertificate",
    "NystromResult",
    "SpectralReport",
    "ZRootResult",
    "chain_form",
    "delta_scan",
    "delta_shifted_normalized",
    "elementary_symmetric",
    "elementary_symmetric_from_eigenvalues",
    "mercer_search",
    "moment",
    "moments",
    "nystrom_oracle",
    "positivity_sweep",
    "z_root",
]

MAX_MOMENT_ORDER = 8
EK_TOL_BASE = 1e-9  # e_k certificate threshold scales as EK_TOL_BASE * max(1, |e_1|)^k
DELTA_INFINITY_PROXY = 1.0e4
DELTA_INFINITY_CONFIRM = 1.0e5
MERCER_MAX_BLOCK = 128  # trials per stacked Gram build; bounds its memory
# Decimal digits of the family sweep.  Large shifts cluster the eigenvalues
# and drive the true e_k far below double-precision cancellation noise; at
# delta = 1e5 the chain coefficients spread over 23 orders of magnitude.
FAMILY_DPS = 100


# ------------------------------------------------------------ trace moments


def chain_form(
    poly: MultiPoly, exponent_matrix: np.ndarray, j: int, scale=1.0
) -> GaussianForm:
    """Cyclic j-fold product integrand of ``scale * poly * exp(-(x, y)^T M (x, y))``.

    ``M`` is the 2n x 2n exponent matrix.  Block ``i`` of the first ``j * n``
    variables is the i-th integration point; each kernel copy couples
    consecutive blocks and the last copy closes the cycle.  Variables of
    ``poly`` beyond its first 2n are parameters shared by every link; they
    trail the chain variables.  The number type of ``M`` and of the
    coefficients carries through.
    """
    if j < 1:
        raise ValueError("chain order must be at least 1")
    m2 = exponent_matrix
    n = m2.shape[0] // 2
    params = [j * n + p for p in range(poly.nvars - 2 * n)]
    nv = j * n + len(params)
    quad = np.zeros((nv, nv), dtype=m2.dtype)
    pref = None
    for i in range(j):
        var_map = [i * n + d for d in range(n)] + [(i + 1) % j * n + d for d in range(n)]
        if j == 1:  # x and y collapse onto one block
            quad[:n, :n] = (m2[:n, :n] + m2[n:, :n]) + (m2[:n, n:] + m2[n:, n:])
        else:
            quad[np.ix_(var_map, var_map)] += m2
        link = poly.rename_vars(nv, var_map + params)
        pref = link if pref is None else pref * link
    return GaussianForm(pref, quad, np.zeros(nv, dtype=quad.dtype), 0, scale**j)


def moment(
    kernel: PolyGaussianKernel,
    j: int,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    max_order: int = MAX_MOMENT_ORDER,
) -> float:
    """Trace power ``M_j = Tr(K^j)``, a real number."""
    if j > max_order:
        raise ValueError(f"moment order {j} exceeds configured maximum {max_order}")
    deg = kernel.poly.degree() or 0
    if j * deg > degree_cap:
        raise ValueError(
            f"chain prefactor degree {j * deg} exceeds the degree cap {degree_cap}"
        )
    form = chain_form(kernel.poly, kernel.exponent_matrix(), j, kernel.norm)
    return form.integrate(range(form.nvars), degree_cap=degree_cap).real_scalar()


def moments(kernel: PolyGaussianKernel, kmax: int, **kwargs) -> np.ndarray:
    """The vector (M_1, ..., M_kmax)."""
    return np.array([moment(kernel, j, **kwargs) for j in range(1, kmax + 1)])


# ------------------------------------------------- elementary symmetric e_k


def elementary_symmetric(moment_values: Sequence[float]) -> np.ndarray:
    """Newton's identities: (e_1, ..., e_K) from the trace powers (M_1, ..., M_K).

    Float input gives a float array; mpmath input an object array of mpmath
    numbers.
    """
    m = list(moment_values)
    if not m:
        raise ValueError("need at least one moment")
    e = [1]
    for k in range(1, len(m) + 1):
        acc = 0
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * m[j - 1]
        e.append(acc / k)
    return np.array(e[1:])


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


@dataclass(frozen=True)
class SpectralReport:
    """Outcome of an e_k sweep.

    ``first_negative`` is the least k whose ``e_k`` fell below the
    certificate threshold; it certifies non-positivity.  Its absence is
    reported as "consistent up to kmax" and is NOT a positivity proof.
    """

    kmax: int
    moments: np.ndarray
    eks: np.ndarray
    first_negative: Optional[int]
    tolerance: float

    @property
    def certified_not_psd(self) -> bool:
        return self.first_negative is not None

    @property
    def verdict(self) -> str:
        if self.certified_not_psd:
            return f"certified_not_psd(k={self.first_negative})"
        return f"consistent_up_to({self.kmax})"


def positivity_sweep(
    kernel: PolyGaussianKernel,
    kmax: int,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    max_order: int = MAX_MOMENT_ORDER,
) -> SpectralReport:
    """Compute e_1..e_kmax and certify non-positivity at the first negative one."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    m = moments(kernel, kmax, degree_cap=degree_cap, max_order=max_order)
    eks = elementary_symmetric(m)
    first_negative = None
    tol = 0.0
    for k in range(1, kmax + 1):
        tol = EK_TOL_BASE * max(1.0, abs(eks[0])) ** k
        if eks[k - 1] < -tol:
            first_negative = k
            break
    return SpectralReport(kmax, m, eks, first_negative, tol)


def delta_shifted_normalized(kernel: PolyGaussianKernel, delta: float) -> PolyGaussianKernel:
    """Equivalent kernel with Gaussian blocks shifted by delta, renormalized to trace 1."""
    shifted = kernel.with_triple(shifted_triple(kernel.triple, delta))
    tr = moment(shifted.with_norm(1.0), 1)
    if tr <= 0.0:
        raise ValueError("shifted kernel has non-positive trace; cannot normalize")
    return shifted.with_norm(1.0 / tr)


# ------------------------------------------------------ gamma-kernel families


@dataclass(frozen=True)
class GammaFamily:
    """One-parameter kernel family P_gamma(x, y) * kappa_G, trace-normalized.

    ``poly_gamma`` lives on ``2n + 1`` variables with the family parameter
    as the last variable (polynomial dependence).  Shifting ``delta`` moves
    along the Gaussian equivalence class of ``base_triple``; the polynomial
    factor is shared by the whole family.
    """

    poly_gamma: MultiPoly
    base_triple: GaussianTriple

    def __post_init__(self) -> None:
        if self.poly_gamma.nvars != 2 * self.base_triple.n + 1:
            raise ValueError("poly_gamma must have 2n + 1 variables (parameter last)")

    @property
    def n(self) -> int:
        return self.base_triple.n

    def triple(self, delta: float = 0.0) -> GaussianTriple:
        return shifted_triple(self.base_triple, delta)

    def poly_at(self, gamma: float) -> MultiPoly:
        nv = self.poly_gamma.nvars
        lin = np.zeros((nv, nv - 1), dtype=complex)
        lin[: nv - 1, :] = np.eye(nv - 1)
        const = np.zeros(nv, dtype=complex)
        const[nv - 1] = gamma
        return self.poly_gamma.compose_affine(lin, const)

    def kernel(self, gamma: float, delta: float = 0.0) -> PolyGaussianKernel:
        """The trace-one family member at (gamma, delta)."""
        raw = PolyGaussianKernel(self.poly_at(gamma), self.triple(delta), 1.0)
        tr = moment(raw, 1)
        if tr <= 0.0:
            raise ValueError(f"family member at gamma={gamma} has non-positive trace")
        return raw.with_norm(1.0 / tr)

    def ek_evaluator(self, kmax: int, delta: float) -> Callable[[float], np.ndarray]:
        """gamma -> (e_1..e_kmax) map at fixed delta.

        The gamma dependence of every chain integral is polynomial, so the
        moment integrals are carried out once per order, with gamma as a
        parameter variable shared by the chain links, and the sweep reduces
        to polynomial evaluation plus trace normalization and the Newton
        recursion.  Everything runs in ``FAMILY_DPS``-digit mpmath
        arithmetic (the inputs are exact binary floats).
        """
        if np.max(np.abs(self.base_triple.b)) != 0.0:
            raise NotImplementedError(
                "high-precision family sweep requires B = 0 (real chain forms)"
            )
        if any(co.imag != 0.0 for co in self.poly_gamma.terms.values()):
            raise NotImplementedError("family polynomial must have real coefficients")
        n = self.n
        to_mp = np.vectorize(mpmath.mpf, otypes=[object])
        with mpmath.workdps(FAMILY_DPS):
            shift = to_mp(delta * np.eye(n))
            a = to_mp(self.base_triple.a) + shift
            c = to_mp(self.base_triple.c) + shift
            exponent_matrix = np.block([[a + c, c - a], [c - a, a + c]])
            poly = MultiPoly(
                self.poly_gamma.nvars,
                {e: mpmath.mpf(co.real) for e, co in self.poly_gamma.terms.items()},
            )
            # Per order j, Tr(K_gamma^j) before normalization as a polynomial in
            # gamma (the chains carry no linear exponent terms, so const = 0).
            traces = []
            for j in range(1, kmax + 1):
                form = chain_form(poly, exponent_matrix, j).integrate(range(j * n))
                traces.append(form.poly * form.scale)

        def eks_at(gamma: float) -> np.ndarray:
            with mpmath.workdps(FAMILY_DPS):
                g = (mpmath.mpf(gamma),)
                raw = [trace(g) for trace in traces]
                if raw[0] <= 0:
                    raise ValueError(f"non-positive trace at gamma={gamma}")
                eks = elementary_symmetric([r / raw[0] ** j for j, r in enumerate(raw, 1)])
                return np.array([float(v) for v in eks])

        return eks_at


@dataclass(frozen=True)
class ZRootResult:
    """Bracketed root of ``gamma -> e_k(delta, gamma)``."""

    k: int
    delta: float
    gamma_root: float
    bracket: tuple[float, float]


def z_root(
    family: GammaFamily,
    k: int,
    delta: float,
    gamma_range: tuple[float, float] = (0.0, 20.0),
    samples: int = 64,
    tol: float = 1e-6,
) -> ZRootResult:
    """Locate the smallest parameter where ``e_k`` changes sign.

    The range is pre-scanned on a uniform grid and the first sign change is
    bisected; multiple crossings therefore resolve to the smallest one.  An
    infinite ``delta`` is evaluated at a large proxy shift and confirmed at a
    ten-times-larger one.
    """
    if math.isinf(delta):
        proxy = _z_root_finite(family, k, DELTA_INFINITY_PROXY, gamma_range, samples, tol)
        confirm = _z_root_finite(family, k, DELTA_INFINITY_CONFIRM, gamma_range, samples, tol)
        if abs(proxy.gamma_root - confirm.gamma_root) > 1e-3:
            raise ConsistencyError(
                "limit root did not stabilize: "
                f"{proxy.gamma_root} at {DELTA_INFINITY_PROXY:g} vs "
                f"{confirm.gamma_root} at {DELTA_INFINITY_CONFIRM:g}"
            )
        return ZRootResult(k, math.inf, confirm.gamma_root, confirm.bracket)
    return _z_root_finite(family, k, delta, gamma_range, samples, tol)


def _z_root_finite(family, k, delta, gamma_range, samples, tol) -> ZRootResult:
    lo, hi = gamma_range
    if not lo < hi:
        raise ValueError("invalid gamma range")
    eks_at = family.ek_evaluator(k, delta)

    def f(gamma: float) -> float:
        return float(eks_at(gamma)[k - 1])

    grid = np.linspace(lo, hi, max(int(samples), 2))
    values = [f(g) for g in grid]
    bracket = None
    for i in range(len(grid) - 1):
        if values[i] == 0.0:
            return ZRootResult(k, delta, float(grid[i]), (float(grid[i]), float(grid[i])))
        if np.sign(values[i]) != np.sign(values[i + 1]):
            bracket = (float(grid[i]), float(grid[i + 1]))
            break
    if bracket is None:
        raise numerics.BracketError(
            f"e_{k} has no sign change on gamma range [{lo}, {hi}] at delta={delta}"
        )
    root = numerics.bracket_root(f, bracket[0], bracket[1], tol)
    return ZRootResult(k, delta, root, bracket)


@dataclass(frozen=True)
class DeltaScanResult:
    """Roots of e_k across a family of equivalent Gaussian weights."""

    results: tuple[ZRootResult, ...]
    best: ZRootResult
    monotone_decreasing: bool


def delta_scan(
    family: GammaFamily,
    k: int,
    deltas: Sequence[float],
    gamma_range: tuple[float, float] = (0.0, 20.0),
    samples: int = 64,
    tol: float = 1e-6,
) -> DeltaScanResult:
    """Track the e_k sign-change threshold along the Gaussian equivalence class.

    Every shifted weight is checked to be equivalent to the base triple, so a
    certificate at any delta applies to the original kernel.  The smallest
    root across the scan is the sharpened non-positivity threshold.
    """
    if not deltas:
        raise ValueError("need at least one delta")
    results = []
    for d in deltas:
        probe = DELTA_INFINITY_PROXY if math.isinf(d) else d
        if not equiv(family.triple(0.0), family.triple(probe)):
            raise ConsistencyError(f"shift {d} left the Gaussian equivalence class")
        results.append(
            z_root(family, k, d, gamma_range=gamma_range, samples=samples, tol=tol)
        )
    best = min(results, key=lambda r: r.gamma_root)
    by_delta = sorted(results, key=lambda r: r.delta)
    roots = [r.gamma_root for r in by_delta]
    monotone = all(roots[i + 1] <= roots[i] + 1e-9 for i in range(len(roots) - 1))
    return DeltaScanResult(tuple(results), best, monotone)


# ----------------------------------------------------------- Mercer search


@dataclass(frozen=True)
class MercerCertificate:
    """Finite point set witnessing a positivity violation.

    ``value`` is the re-verified quadratic form
    ``sum_ij c_i conj(c_j) kernel(x_i, x_j) < 0``.
    """

    points: np.ndarray
    coeffs: np.ndarray
    value: float
    min_eigenvalue: float
    trial: int


def verify_mercer_certificate(
    kernel: PolyGaussianKernel, points: np.ndarray, coeffs: np.ndarray
) -> float:
    """Direct summation of the positivity form (independent of the search path)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cs = np.asarray(coeffs, dtype=complex)
    total = 0j
    for i in range(pts.shape[0]):
        for j in range(pts.shape[0]):
            total += cs[i] * np.conj(cs[j]) * kernel.evaluate(pts[i], pts[j])
    if abs(total.imag) > 1e-8 * max(1.0, abs(total)):
        raise ConsistencyError(f"positivity form not real: {total!r}")
    return total.real


def mercer_search(
    kernel: PolyGaussianKernel,
    trials: int = 200,
    points_per_trial: int = 20,
    seed: int = 0,
    cloud_scale: Optional[float] = None,
) -> Optional[MercerCertificate]:
    """Randomized search for a finite positivity violation.

    Trial ``t`` samples a Gaussian point cloud from ``default_rng([seed, t])``
    and assembles its Hermitian kernel matrix.  Trials run in blocks of
    doubling size (1, 2, 4, ...): one stacked Gram build and one stacked
    ``eigvalsh`` screen a block, and only trials whose smallest eigenvalue
    falls below half the certificate threshold go on, in trial order, to the
    per-trial ``eigh`` test and the direct-summation re-verification.  The
    screen is looser than that test, so the returned certificate, its
    ``trial`` index included, is the one a trial-by-trial search finds.
    ``None`` means no violation was found within the budget; it is not a
    positivity proof.
    """
    if cloud_scale is None:
        cloud_scale = 0.5 / math.sqrt(max(numerics.min_eigenvalue(kernel.triple.c), 1e-12))
    factors = (1.0, 0.5, 2.0)
    start, size = 0, 1
    while start < trials:
        block = range(start, min(start + size, trials))
        clouds = [
            cloud_scale
            * factors[trial % len(factors)]
            * np.random.default_rng([seed, trial]).standard_normal((points_per_trial, kernel.n))
            for trial in block
        ]
        grams = kernel.gram(np.stack(clouds))
        grams = 0.5 * (grams + np.conj(grams).swapaxes(-1, -2))
        scales = np.maximum(
            np.abs(np.trace(grams, axis1=-2, axis2=-1)), np.max(np.abs(grams), axis=(-2, -1))
        )
        try:
            lowest = np.linalg.eigvalsh(grams)[:, 0]
        except np.linalg.LinAlgError:
            lowest = np.full(len(block), np.nan)  # no screen: every trial is a candidate
        # A trial is dropped only when the screen shows it clear of the
        # threshold; NaN marks stay candidates, as the per-trial test decides them.
        for i in np.flatnonzero(~(lowest >= -0.5e-9 * scales)):
            cert = _mercer_trial(kernel, clouds[i], grams[i], block[i])
            if cert is not None:
                return cert
        start, size = block.stop, min(2 * size, MERCER_MAX_BLOCK)
    return None


def _mercer_trial(
    kernel: PolyGaussianKernel, pts: np.ndarray, gram: np.ndarray, trial: int
) -> Optional[MercerCertificate]:
    """The exact test of one trial's symmetrized kernel matrix."""
    vals, vecs = np.linalg.eigh(gram)
    scale = max(float(np.abs(np.trace(gram))), float(np.max(np.abs(gram))), 1e-300)
    if vals[0] < -1e-9 * scale:
        coeffs = np.conj(vecs[:, 0])
        value = verify_mercer_certificate(kernel, pts, coeffs)
        if value < -1e-9 * scale:
            return MercerCertificate(pts, coeffs, value, float(vals[0]), trial)
    return None


# ---------------------------------------------------------- Nystrom oracle


@dataclass(frozen=True)
class NystromResult:
    """Grid-discretization eigenvalues of a kernel operator (n <= 2).

    ``coarse`` flags a trace mismatch above one percent against the exact
    trace integral, signalling that the grid under-resolves the kernel.
    """

    eigenvalues: np.ndarray
    trace_estimate: float
    trace_reference: float
    grid_points: int
    box_halfwidth: float

    @property
    def coarse(self) -> bool:
        ref = max(abs(self.trace_reference), 1e-300)
        return abs(self.trace_estimate - self.trace_reference) > 0.01 * ref


def nystrom_oracle(
    kernel: PolyGaussianKernel,
    grid_points: int = 160,
    box_halfwidth: Optional[float] = None,
) -> NystromResult:
    """Approximate operator eigenvalues from a uniform-grid kernel matrix.

    Midpoint weights make the weighted Gram matrix Hermitian, so its
    eigenvalues approximate the operator spectrum directly.  Supports one
    and two coordinates (the grid is tensorized).
    """
    n = kernel.n
    if n > 2:
        raise ValueError("grid oracle supports n <= 2 only")
    if box_halfwidth is None:
        cmin = numerics.min_eigenvalue(kernel.triple.c)
        box_halfwidth = 3.0 / math.sqrt(max(2.0 * cmin, 1e-12))
    m = int(grid_points)
    h = 2.0 * box_halfwidth / m
    axis = -box_halfwidth + h * (np.arange(m) + 0.5)
    if n == 1:
        pts = axis[:, None]
        weight = h
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        weight = h * h
    gram = kernel.gram(pts) * weight
    gram = 0.5 * (gram + gram.conj().T)
    vals = np.linalg.eigvalsh(gram)[::-1]
    trace_estimate = float(np.sum(vals))
    trace_reference = moment(kernel, 1)
    return NystromResult(vals, trace_estimate, trace_reference, m, float(box_halfwidth))
