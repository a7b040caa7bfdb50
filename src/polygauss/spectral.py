"""Trace-moment spectral tests for polynomial-Gaussian operators.

The j-th trace power ``M_j = Tr(K^j)`` of a kernel operator is a cyclic
chain integral over ``j*n`` variables and evaluates in closed form through
the Wick engine.  The chain's Gaussian is block-circulant and its
polynomial prefactor is invariant under rotating the j blocks, so the
Wick moments of one rotation orbit are equal: the prefactor is folded onto
one representative per orbit before it is integrated,

    sum_alpha c_alpha E[w^alpha] = sum_orbits (sum_{alpha in O} c_alpha) E[w^rep(O)],

exactly for any n, complex B and any number type (float64 and mpmath
differ only in the rounding of the summed coefficients; Python ints do not
round).  :func:`chain_form` returns that folded integrand from one small
cache, and every trace power (:func:`moment`, the family evaluator)
integrates it.  The unfolded chain, ``chain_integrand(chain_links(...))``,
is built without a cache and serves only as the independent route for
re-checking certificates.

Newton's identities turn the moments into the elementary symmetric values
``e_k`` of the eigenvalue sequence; a negative ``e_k`` certifies that the
operator is not positive semidefinite, while all-nonnegative values up to
``kmax`` prove nothing (the report wording keeps that asymmetry explicit).

The sweep can be sharpened by re-running it on equivalent Gaussian weights
``(A + delta I, B, C + delta I)``: non-positivity of any equivalent kernel
certifies non-positivity of the original.  For one-parameter kernel
families, :func:`z_root` locates the parameter where ``e_k`` changes sign
and :func:`delta_scan` tracks how that threshold improves with ``delta``.
Large shifts drive ``e_k`` far below float64 cancellation noise, so the
family evaluator builds its trace polynomials in exact integer arithmetic
(:meth:`GammaFamily.ek_evaluator`): the inputs are binary floats, and the
only rounding is one irrational scale per trace order, at ``FAMILY_DPS``
digits.

Independent of the moment machinery, :func:`mercer_search` hunts for finite
point-set positivity violations and :func:`nystrom_oracle` approximates the
spectrum by grid discretization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from . import numerics
from .gaussian import ConsistencyError, GaussianTriple, equiv, shifted_triple
from .kernels import PolyGaussianKernel
from .poly import MultiPoly
from .wick import DEFAULT_DEGREE_CAP, GaussianForm, integrate_integer

__all__ = [
    "DeltaScanResult",
    "GammaFamily",
    "MercerCertificate",
    "NystromResult",
    "SpectralReport",
    "ZRootResult",
    "chain_form",
    "chain_integrand",
    "chain_links",
    "delta_scan",
    "delta_shifted_normalized",
    "elementary_symmetric",
    "mercer_search",
    "moment",
    "nystrom_oracle",
    "positivity_sweep",
    "sweep_report",
    "z_root",
]

MAX_MOMENT_ORDER = 8
EK_TOL_BASE = 1e-9  # e_k certificate threshold scales as EK_TOL_BASE * max(1, |e_1|)^k
DELTA_INFINITY_PROXY = 1.0e4
DELTA_INFINITY_CONFIRM = 1.0e5
MERCER_MAX_BLOCK = 128  # trials per stacked Gram build; bounds its memory
MERCER_TOL = 1e-9  # a Mercer certificate needs form / |c|^2 < -MERCER_TOL * scale
# Trial blocks of Mercer draws kept: the eight blocks of a 200-trial search,
# for a few point counts and dimensions.
MERCER_DRAW_CACHE_SIZE = 32
# Decimal digits of the family sweep: the relative precision to which the
# exact integer build rounds each trace order's scale rho_j (the one
# irrational number of a build).  Large shifts cluster the eigenvalues and
# drive the true e_k far below double-precision cancellation noise (e_5 is
# about 1e-57 at delta = 1e5), so the values need far more than 16 digits.
FAMILY_DPS = 100
# Folded chain prefactors kept by chain_form: a kernel's orders with room to spare.
CHAIN_CACHE_SIZE = 16


# ------------------------------------------------------------ trace moments


def chain_form(
    poly: MultiPoly, exponent_matrix: np.ndarray, j: int, scale=1.0
) -> GaussianForm:
    """Orbit-folded cyclic j-fold chain of ``scale * poly * exp(-(x, y)^T M (x, y))``.

    ``M`` is the 2n x 2n exponent matrix.  Block ``i`` of the first ``j * n``
    variables is the i-th integration point; each kernel copy couples
    consecutive blocks and the last copy closes the cycle.  Variables of
    ``poly`` beyond its first 2n are parameters shared by every link; they
    trail the chain variables.  The number type of ``M`` and of the
    coefficients carries through.  The prefactor is the j-link product
    folded over its cyclic orbits (:func:`_chain_orbits`, cached per
    polynomial, n, j and mpmath precision): integrated over all chain
    variables it equals the unfolded chain's integral, but its terms are
    not the chain's own.  :func:`chain_links` and :func:`chain_integrand` build
    the unfolded chain.
    """
    n = exponent_matrix.shape[0] // 2
    terms = poly.terms
    folded = _chain_orbits(
        poly.nvars, tuple(terms.items()), tuple(map(type, terms.values())), n, j, mpmath.mp.prec
    )
    return chain_integrand(folded, exponent_matrix, j, scale)


def chain_links(poly: MultiPoly, n: int, j: int) -> MultiPoly:
    """Product of the j renamed links of ``poly``: the unfolded chain prefactor.

    Link ``i`` maps the x block to chain block ``i`` and the y block to
    block ``i + 1 mod j``; parameter variables beyond 2n trail the chain.
    """
    if j < 1:
        raise ValueError("chain order must be at least 1")
    params = [j * n + p for p in range(poly.nvars - 2 * n)]
    nv = j * n + len(params)
    pref = None
    for i in range(j):
        var_map = [i * n + d for d in range(n)] + [(i + 1) % j * n + d for d in range(n)]
        link = poly.rename_vars(nv, var_map + params)
        pref = link if pref is None else pref * link
    return pref


def chain_integrand(prefactor: MultiPoly, m2: np.ndarray, j: int, scale=1.0) -> GaussianForm:
    """``scale^j * prefactor`` over the block-circulant Gaussian of a j-link chain.

    Link ``i`` adds ``m2`` on blocks ``(i, i + 1 mod j)``, so rotating the
    blocks maps the form onto itself.  Trailing parameter variables of the
    prefactor get no quadratic terms.
    """
    n = m2.shape[0] // 2
    nv = prefactor.nvars
    quad = np.zeros((nv, nv), dtype=m2.dtype)
    if j == 1:  # x and y collapse onto one block
        quad[:n, :n] = (m2[:n, :n] + m2[n:, :n]) + (m2[:n, n:] + m2[n:, n:])
    else:
        for i in range(j):
            var_map = [i * n + d for d in range(n)] + [(i + 1) % j * n + d for d in range(n)]
            quad[np.ix_(var_map, var_map)] += m2
    return GaussianForm(prefactor, quad, np.zeros(nv, dtype=quad.dtype), 0, scale**j)


@functools.lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _chain_orbits(nvars: int, items: tuple, types: tuple, n: int, j: int, prec: int) -> MultiPoly:
    """The j-link product with each cyclic orbit folded onto one term.

    Rotating the chain by whole blocks (n variables at a time) maps both the
    prefactor and the block-circulant Gaussian onto themselves, so
    ``E[w^alpha] = E[w^rot(alpha)]`` and every orbit integrates as one term:
    its representative, the lexicographically smallest rotation of the chain
    exponents (trailing parameter exponents ride along), carrying the sum of
    the orbit's coefficients in product order.  The sums are not pruned.

    The key is the polynomial's terms in their order (which fixes the order
    of every sum), the coefficient types (an mpmath or int coefficient
    equals and hashes like the complex of the same value) and the mpmath
    precision the products round to.  Coefficients compare by value, so two
    polynomials whose coefficients differ only in the sign of a zero real or
    imaginary part share an entry; their products differ at most in those
    signs.
    """
    full = chain_links(MultiPoly._from_terms(nvars, dict(items), False), n, j)
    if j == 1:
        return full
    width = j * n
    folded: dict[tuple[int, ...], complex] = {}
    for exps, coeff in full.terms.items():
        chain = exps[:width]
        key = min(chain[s:] + chain[:s] for s in range(0, width, n)) + exps[width:]
        prev = folded.get(key)
        folded[key] = coeff if prev is None else prev + coeff
    return MultiPoly._from_terms(full.nvars, folded, False)


def moment(kernel: PolyGaussianKernel, j: int) -> float:
    """Trace power ``M_j = Tr(K^j)``, a real number.

    Integrates :func:`chain_form`: the trace is invariant under rotating the
    j integration points, so each orbit of the j-link prefactor contributes
    its summed coefficient times one Wick moment.  The value equals the
    integral of the unfolded chain up to rounding.
    """
    _check_order(kernel, j)
    form = chain_form(kernel.poly, kernel.exponent_matrix(), j, kernel.norm)
    return form.integrate(range(form.nvars)).real_scalar()


def _check_order(kernel: PolyGaussianKernel, j: int) -> None:
    """Raise the error :func:`moment` gives when order j is out of its reach."""
    if j > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {j} exceeds the maximum {MAX_MOMENT_ORDER}")
    deg = kernel.poly.degree() or 0
    if j * deg > DEFAULT_DEGREE_CAP:
        raise ValueError(
            f"chain prefactor degree {j * deg} exceeds the degree cap {DEFAULT_DEGREE_CAP}"
        )


# ------------------------------------------------- elementary symmetric e_k


def elementary_symmetric(moment_values: Sequence[float]) -> np.ndarray:
    """Newton's identities: (e_1, ..., e_K) from the trace powers (M_1, ..., M_K).

    Float input gives a float array; mpmath numbers (the family reference
    route in the tests) give an object array of the same kind.  The family
    evaluator runs the same recursion on integer polynomials, with no
    division (:func:`_factorial_eks`).
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


def positivity_sweep(kernel: PolyGaussianKernel, kmax: int) -> SpectralReport:
    """Compute e_1..e_kmax and certify non-positivity at the first negative one.

    Every order is checked against the moment limits before any moment is
    computed (:func:`check_sweep_reach`), so a sweep beyond them raises at
    once, naming the first order out of reach.
    """
    check_sweep_reach(kernel, kmax)
    return sweep_report([moment(kernel, j) for j in range(1, kmax + 1)])


def check_sweep_reach(kernel: PolyGaussianKernel, kmax: int) -> None:
    """Raise the error :func:`positivity_sweep` gives when an order 1..kmax is out of reach.

    The limits depend on the polynomial factor only, so they hold for every
    shift and renormalisation of the kernel as well.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    for j in range(1, kmax + 1):
        _check_order(kernel, j)


def sweep_report(moment_values: Sequence[float]) -> SpectralReport:
    """Newton's identities and the certificate threshold on ``(M_1, ..., M_kmax)``.

    ``e_k`` certifies when it falls below ``-EK_TOL_BASE * max(1, |e_1|)^k``;
    the sweep stops at the first such k.
    """
    m = np.array(moment_values)
    eks = elementary_symmetric(m)
    first_negative = None
    tol = 0.0
    for k in range(1, len(m) + 1):
        tol = EK_TOL_BASE * max(1.0, abs(eks[0])) ** k
        if eks[k - 1] < -tol:
            first_negative = k
            break
    return SpectralReport(len(m), m, eks, first_negative, tol)


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
        return delta_shifted_normalized(
            PolyGaussianKernel(self.poly_at(gamma), self.base_triple), delta
        )

    def ek_evaluator(self, kmax: int, delta: float) -> Callable[[float], np.ndarray]:
        """gamma -> (e_1..e_kmax) map at fixed delta.

        The gamma dependence of every chain integral is polynomial, so the
        build integrates each order once, with gamma as a parameter variable
        shared by the chain links, into the raw trace polynomial
        ``T_j(gamma) = Tr(K_gamma^j)`` before normalization.  ``e_k`` is
        homogeneous of weight k in the traces, so the e_k of the normalized
        traces ``T_j / T_1^j`` equal ``E_k / T_1^k``, where ``E_k`` is the
        k-th elementary symmetric function of ``T_1..T_kmax``, and they do
        not change when every ``T_j`` is scaled by ``lambda^j``.

        The build is exact integer arithmetic.  The inputs are binary floats,
        so ``A + delta I`` and ``C + delta I`` are integers over ``2^s`` and
        the family coefficients integers over a power of two;
        :func:`chain_form` folds the integer polynomial and builds the
        integer chain block ``N_j``, and :func:`polygauss.wick.integrate_integer`
        gives ``T_j = pi^(j n / 2) 2^(s j n / 2) 2^(-p j) I_j(gamma) /
        (sqrt(det N_j) (2 det N_j)^(o_j))`` with an integer polynomial
        ``I_j`` (``2^p`` is the coefficients' denominator, ``o_j`` the
        order).  The ``lambda^j`` scaling removes pi and the powers of two,
        and leaves one factor per order,
        ``rho_j / (2 det N_j)^(o_j)`` with ``rho_j = sqrt(det(N_1)^j / det(N_j))``,
        which :func:`_trace_scales` rounds once, to at least ``FAMILY_DPS``
        digits.  Newton's identities then run on the integer polynomials
        with ``k! E_k`` in place of ``E_k`` (:func:`_factorial_eks`), so
        nothing divides.  A chain block that is not positive definite raises
        :class:`polygauss.numerics.IndefiniteMatrixError`.

        Each gamma then costs Horner's rule on ``E_1 = T_1`` (which must be
        positive) and on each ``k! E_k``, run exactly on the integer
        coefficients and the integers that represent gamma; every
        ``E_k / T_1^k`` is an exact integer ratio (:func:`_family_eks`),
        turned into the correctly rounded float by one integer division,
        and into a signed infinity beyond the float range.

        Rounding: only the scales round.  Each carries a relative error
        below ``10^-FAMILY_DPS``, and the terms that cancel in ``e_k`` are
        of the size of ``e_1^k = 1``, so a value carries an absolute error
        near ``1e-100`` and keeps about ``100 + log10|e_k|`` correct
        digits: at least 44 for k <= 5 and delta <= 1e5, where e_5 falls to
        about 1e-57, against the 16 that the returned floats carry.
        """
        if np.max(np.abs(self.base_triple.b)) != 0.0:
            raise NotImplementedError(
                "high-precision family sweep requires B = 0 (real chain forms)"
            )
        if any(co.imag != 0.0 for co in self.poly_gamma.terms.values()):
            raise NotImplementedError("family polynomial must have real coefficients")
        if kmax < 1:
            raise ValueError("kmax must be at least 1")
        n = self.n
        entries, s = _dyadic_ints([*self.base_triple.a.flat, *self.base_triple.c.flat, delta])
        a = np.array(entries[: n * n], dtype=object).reshape(n, n)
        c = np.array(entries[n * n : 2 * n * n], dtype=object).reshape(n, n)
        for i in range(n):
            a[i, i] += entries[-1]
            c[i, i] += entries[-1]
        exponent_matrix = np.block([[a + c, c - a], [c - a, a + c]])
        # The coefficients' common denominator 2^p enters T_j as 2^(-p j):
        # a lambda^j factor, dropped with pi.
        terms = self.poly_gamma.terms
        ints, _ = _dyadic_ints([co.real for co in terms.values()])
        poly = MultiPoly._from_terms(self.poly_gamma.nvars, dict(zip(terms, ints)), False)
        traces, dets, orders = zip(*(
            integrate_integer(chain_form(poly, exponent_matrix, j, 1), range(j * n), 1 << s)
            for j in range(1, kmax + 1)
        ))
        scaled = [t * r for t, r in zip(traces, _trace_scales(dets, orders))]
        coeffs = [
            (_descending_coefficients(f), math.factorial(k))
            for k, f in enumerate(_factorial_eks(scaled), 1)
        ]

        def eks_at(gamma: float) -> np.ndarray:
            return np.array([_ratio_to_float(*v) for v in _family_eks(coeffs, gamma)])

        return eks_at


def _dyadic_ints(values: Sequence[float]) -> tuple[list[int], int]:
    """Integers ``m_i`` and ``s >= 0`` with ``values[i] = m_i / 2^s`` exactly, for binary floats."""
    ratios = [float(v).as_integer_ratio() for v in values]
    s = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (s - den.bit_length() + 1) for num, den in ratios], s


def _trace_scales(dets: Sequence[int], orders: Sequence[int]) -> list[int]:
    """The family traces' per-order scales ``r_j``, each rounded once.

    ``r_j = floor(2^(j b) * rho_j / (2 d_j)^(o_j))`` with
    ``rho_j = sqrt(d_1^j / d_j)``, ``d_j = dets[j - 1]`` and
    ``o_j = orders[j - 1]``, computed by one ``math.isqrt`` of an integer
    quotient (``isqrt(floor(x)) = floor(sqrt(x))``).  The common
    ``b >= 0`` is the least that makes every ``r_j`` at least
    ``2^(bits + 1)`` by bit-length bounds, with ``bits`` the binary digits
    of ``FAMILY_DPS`` decimal ones, so each ``r_j`` is within a relative
    ``10^-FAMILY_DPS`` of its exact value; ``2^(j b)`` is a ``lambda^j``
    factor and cancels in ``e_k``.
    """
    bits = math.ceil(FAMILY_DPS * math.log2(10))
    d1 = dets[0]
    dens = [d * (2 * d) ** (2 * o) for d, o in zip(dets, orders)]
    b = max(
        0,
        *(
            -(-(2 * bits + 2 + den.bit_length() - j * (d1.bit_length() - 1)) // (2 * j))
            for j, den in enumerate(dens, 1)
        ),
    )
    return [math.isqrt((d1**j << (2 * j * b)) // den) for j, den in enumerate(dens, 1)]


def _factorial_eks(traces: Sequence[MultiPoly]) -> list[MultiPoly]:
    """``k! E_k`` for k = 1..K from the power sums ``traces``: Newton's identities with no division.

    ``k! E_k = sum_{i=1..k} (-1)^(i-1) ((k-1)! / (k-i)!) ((k-i)! E_(k-i)) T_i``,
    so integer polynomials stay integer.
    """
    f: list[MultiPoly] = []  # f[k - 1] = k! E_k; 0! E_0 = 1
    for k in range(1, len(traces) + 1):
        acc, factor = None, 1  # factor = (k-1)! / (k-i)!
        for i in range(1, k + 1):
            term = traces[i - 1] * factor if i == k else f[k - i - 1] * traces[i - 1] * factor
            acc = term if acc is None else (acc + term if i % 2 else acc - term)
            factor *= k - i
        f.append(acc)
    return f


def _descending_coefficients(p: MultiPoly) -> list[int]:
    """The coefficients of a one-variable polynomial, highest degree first (``[]`` for zero)."""
    deg = p.degree()
    return [] if deg is None else [p.terms.get((d,), 0) for d in range(deg, -1, -1)]


def _family_eks(coeffs: Sequence[tuple[list[int], int]], gamma: float) -> list[tuple[int, int]]:
    """``E_k(gamma) / T_1(gamma)^k`` for k = 1..kmax as exact ratios ``(num, den)``, ``den > 0``.

    ``coeffs[k - 1] = (ints, q)`` stands for ``E_k(x) = sum_d ints[d] x^(D - d) / q``:
    integer coefficients, highest degree ``D`` first, over a positive
    integer divisor ``q``; ``E_1 = T_1``.  ``gamma`` is a binary float
    ``g / 2^r``, so Horner's rule on the integers gives ``q E_k(gamma)``
    exactly, as an integer over a power of two; each ratio is the quotient
    of those integers with the divisors and the powers of two folded into
    its numerator or its denominator.  Nothing is rounded.
    """
    g, den = float(gamma).as_integer_ratio()
    r = den.bit_length() - 1
    values = []
    for ints, q in coeffs:
        acc, shift = (ints[0], 0) if ints else (0, 0)
        for c in ints[1:]:
            shift += r
            acc = acc * g + (c << shift)
        values.append((acc, -shift, q))  # E_k(gamma) = acc * 2^(-shift) / q
    t, t_exp, t_q = values[0]  # E_1 = T_1
    if t <= 0:
        raise ValueError(f"non-positive trace at gamma={gamma}")
    ratios, t_pow, q_pow = [], 1, 1
    for k, (acc, exp, q) in enumerate(values, 1):
        t_pow *= t
        q_pow *= t_q
        e = exp - k * t_exp
        num, den = acc * q_pow, t_pow * q
        ratios.append((num << e, den) if e >= 0 else (num, den << -e))
    return ratios


def _ratio_to_float(num: int, den: int) -> float:
    """``num / den`` (``den > 0``) correctly rounded, or a signed infinity beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


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

    The uniform grid over the range is evaluated in order up to its first
    sign change, which is bisected from the two grid values already in hand;
    multiple crossings therefore resolve to the smallest one, and the grid
    points past it are never evaluated (so a trace that turns non-positive
    only there raises nothing).  A grid point
    where ``e_k`` is exactly zero is the root.  An infinite ``delta`` is
    evaluated at a large proxy shift and confirmed at a ten-times-larger
    one.
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

    grid = [float(g) for g in np.linspace(lo, hi, max(int(samples), 2))]
    prev = f(grid[0])
    for g0, g1 in zip(grid, grid[1:]):
        if prev == 0.0:
            return ZRootResult(k, delta, g0, (g0, g0))
        cur = f(g1)
        if np.sign(prev) != np.sign(cur):
            root = numerics._bracket_root(f, g0, g1, tol, (prev, cur))
            return ZRootResult(k, delta, root, (g0, g1))
        prev = cur
    raise numerics.BracketError(
        f"e_{k} has no sign change on gamma range [{lo}, {hi}] at delta={delta}"
    )


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
    return direct_mercer_form(kernel, points, coeffs)[0]


def direct_mercer_form(
    kernel: PolyGaussianKernel, points: np.ndarray, coeffs: np.ndarray
) -> tuple[float, float]:
    """``sum_ij c_i conj(c_j) kernel(x_i, x_j)`` and the Gram scale, from direct evaluation.

    Each pair is evaluated once with ``kernel.evaluate`` and the form is
    summed pair by pair in row order; the scale is the search's
    ``max(|tr G|, max |G_ij|)`` of the symmetrized matrix of those values.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cs = np.asarray(coeffs, dtype=complex)
    k = pts.shape[0]
    gram = np.empty((k, k), dtype=complex)
    total = 0j
    for i in range(k):
        for j in range(k):
            gram[i, j] = value = kernel.evaluate(pts[i], pts[j])
            total += cs[i] * np.conj(cs[j]) * value
    if abs(total.imag) > 1e-8 * max(1.0, abs(total)):
        raise ConsistencyError(f"positivity form not real: {total!r}")
    return total.real, _gram_scale(0.5 * (gram + gram.conj().T))


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
    doubling size (1, 2, 4, ...), each with one stacked Gram build and a
    two-step screen:

    1. One batched Cholesky factorisation of every matrix shifted by half
       the certificate threshold, ``G + 0.5 * MERCER_TOL * scale * I`` with
       ``scale = max(|tr G|, max |G_ij|)``.  A factor that exists (with a
       finite diagonal) proves ``G`` has no eigenvalue below
       ``-0.5 * MERCER_TOL * scale`` up to Cholesky's backward error, about
       ``k * eps * |G|``, far inside the factor-2 gap to the certificate
       threshold ``-MERCER_TOL * scale``; so no trial of the block can pass
       the per-trial test and the block is dropped.
    2. If any matrix of the block fails to factor, one stacked ``eigvalsh``
       screens that block, and only trials whose smallest eigenvalue falls
       below half the certificate threshold (or is NaN, or all of them if
       the solver raises) go on, in trial order, to the per-trial ``eigh``
       test and the direct-summation re-verification.

    Both steps are looser than that test, so the returned certificate, its
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
        start, size = block.stop, min(2 * size, MERCER_MAX_BLOCK)
        draws = _mercer_draws(seed, block.start, block.stop, points_per_trial, kernel.n)
        clouds = [
            cloud_scale * factors[trial % len(factors)] * draw
            for trial, draw in zip(block, draws)
        ]
        grams = kernel.gram(np.stack(clouds))
        grams = 0.5 * (grams + np.conj(grams).swapaxes(-1, -2))
        scales = np.maximum(
            np.abs(np.trace(grams, axis1=-2, axis2=-1)), np.max(np.abs(grams), axis=(-2, -1))
        )
        if _factors_with_shift(grams, 0.5 * MERCER_TOL * scales):
            continue
        try:
            lowest = np.linalg.eigvalsh(grams)[:, 0]
        except np.linalg.LinAlgError:
            lowest = np.full(len(block), np.nan)  # no screen: every trial is a candidate
        # A trial is dropped only when the screen shows it clear of the
        # threshold; NaN marks stay candidates, as the per-trial test decides them.
        for i in np.flatnonzero(~(lowest >= -0.5 * MERCER_TOL * scales)):
            cert = _mercer_trial(kernel, clouds[i], grams[i], block[i])
            if cert is not None:
                return cert
    return None


@functools.lru_cache(maxsize=MERCER_DRAW_CACHE_SIZE)
def _mercer_draws(seed: int, start: int, stop: int, points: int, n: int) -> np.ndarray:
    """Read-only normal draws of trials ``start..stop-1``, each from ``default_rng([seed, t])``."""
    draws = np.stack(
        [np.random.default_rng([seed, t]).standard_normal((points, n)) for t in range(start, stop)]
    )
    draws.flags.writeable = False
    return draws


def _factors_with_shift(grams: np.ndarray, shifts: np.ndarray) -> bool:
    """True iff every ``grams[t] + shifts[t] * I`` has a Cholesky factor with a finite diagonal.

    ``np.linalg.cholesky`` does not raise on a NaN entry; it returns a factor
    with NaN in it.  A non-finite entry in the lower triangle of a row
    reaches that row's diagonal pivot, and the matrices are Hermitian, so
    the diagonal check keeps a non-finite matrix from counting as factored.
    """
    shifted = grams.copy()
    np.einsum("...ii->...i", shifted)[...] += shifts[:, None]
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(np.einsum("...ii->...i", factor)).all())


def _mercer_trial(
    kernel: PolyGaussianKernel, pts: np.ndarray, gram: np.ndarray, trial: int
) -> Optional[MercerCertificate]:
    """The exact test of one trial's symmetrized kernel matrix."""
    vals, vecs = np.linalg.eigh(gram)
    scale = _gram_scale(gram)
    if vals[0] < -MERCER_TOL * scale:
        coeffs = np.conj(vecs[:, 0])
        value = verify_mercer_certificate(kernel, pts, coeffs)
        if value < -MERCER_TOL * scale:
            return MercerCertificate(pts, coeffs, value, float(vals[0]), trial)
    return None


def _gram_scale(gram: np.ndarray) -> float:
    return max(float(np.abs(np.trace(gram))), float(np.max(np.abs(gram))), 1e-300)


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
