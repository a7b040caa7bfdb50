"""Closed-form integration of polynomial-times-Gaussian integrands.

The central object is a :class:`GaussianForm`,

    scale * P(z) * exp(-z^T Q z + l^T z + c),    z in R^m,

with complex symmetric ``Q`` whose real part is positive definite on the
variables being integrated.  Integrating out a subset of variables is exact:
complete the square, shift the polynomial, and evaluate the centered moments
by Isserlis pairing with covariance ``Q_int^{-1} / 2``.  External variables
(including ones appearing only in the polynomial) pass through, so the same
code path powers traces, trace-power moments, partial traces and the
parameter-dependent moments of kernel families.

One engine serves two number types, and the inputs choose which: complex
float64 arrays and coefficients run in double precision, while numpy object
arrays and coefficients of ``mpmath`` numbers run at the working mpmath
precision (real quadratic forms only).  The type-specific dense operations
are in :mod:`polygauss.numerics`.  :func:`integrate_integer` is the exact
route for forms whose quadratic part and coefficients are Python ints (the
family trace polynomials): it rounds nothing, and leaves the one irrational
factor, the square root of the determinant, to its caller.

Centered moments come from a :class:`WickTable`, and an integration asks
for all of its terms' moments in one call.  Isserlis' recurrence on packed
integer keys (one byte per variable) runs once per key of the multi-indices
of the terms, in order, and the covariance's nonzero pattern, and is kept
as a straight-line program in a bounded LRU (``PLAN_CACHE_SIZE``).  Each
integration replays its program on its own covariance: the pair products
``cov[i, j] * beta_j`` once, then ``total = 0; total += cb * E[...]`` per
moment in the recurrence's order.  The shifted weights of one kernel and
its normalisations share a program, and one program serves float64, mpmath
and Python int covariances alike.  The recurrence fixes the pivot, the
partner order and the summation, so each moment is one well-defined
sequence of float64 or mpmath operations, and an exact integer over an int
covariance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, islice
from operator import add, itemgetter, mul
from typing import Callable, Optional, Sequence

import numpy as np

from . import numerics
from .gaussian import triple_from_exponent_matrix
from .kernels import PolyGaussianKernel
from .poly import MultiPoly

__all__ = [
    "DegreeCapError",
    "GaussianForm",
    "WickTable",
    "gaussian_integral",
    "integrate_integer",
    "integrate_out",
    "poly_gaussian_integral",
]

DEFAULT_DEGREE_CAP = 16
REAL_RTOL = 1e-9  # tolerated relative imaginary residue on must-be-real results
# WickTable packs a multi-index with int.from_bytes: one byte per variable.
FIELD_BITS = 8
MAX_EXPONENT = (1 << FIELD_BITS) - 1
# Compiled Wick programs kept by WickTable.moments, above the distinct
# monomial supports of one benchmark round (37 for `sweep`, 29 for
# `screen`): an LRU smaller than a cyclic schedule's working set thrashes.
PLAN_CACHE_SIZE = 64

logger = logging.getLogger(__name__)


class DegreeCapError(ValueError):
    """Prefactor degree exceeds the configured pairing cap."""


def _picker(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """Function returning the entries of a tuple at ``idx``, as a tuple."""
    if len(idx) == 1:
        i = idx[0]
        return lambda e: (e[i],)
    return itemgetter(*idx) if idx else lambda e: ()


class _Program:
    """Isserlis' recurrence on packed keys, recorded as a straight-line program.

    Slot 0 holds ``E[w^0] = 1`` and slot 1 the ``0`` of an odd multi-index.
    Every later slot is one moment of even degree, pivoting on the lowest
    variable ``i`` with a nonzero exponent:

        E[w^alpha] = sum_j cov[i, j] * beta_j * E[w^(beta - e_j)],  beta = alpha - e_i,

    over the nonzero ``cov[i, j]`` in ascending ``j``.  The slot records
    each term as an entry ``(pair, src)``: ``pair`` indexes the distinct
    triples ``(i, j, beta_j)`` and ``src`` is the earlier slot of
    ``E[w^(beta - e_j)]``.  A multi-index is packed into one int key,
    ``FIELD_BITS`` bits per variable with variable 0 lowest, so the pivot is
    the lowest nonzero field and each step down is one integer subtraction.
    Only the covariance's nonzero pattern enters, so one program serves
    every covariance that shares it.
    """

    def __init__(self, nvars: int, pattern: bytes) -> None:
        self._units = [1 << (FIELD_BITS * i) for i in range(nvars)]
        # Per pivot row: (bit offset of j, key of e_j, j) over the nonzero
        # entries in ascending j.
        self._rows = [
            [(FIELD_BITS * j, self._units[j], j) for j in range(nvars) if pattern[i * nvars + j]]
            for i in range(nvars)
        ]
        self.slots = {0: 0}
        self.pairs: dict[tuple[int, int, int], int] = {}
        self.lengths: list[int] = []  # entries of each slot from slot 2 on
        self.ops: list[int] = []  # pair index of each entry
        self.srcs: list[int] = []  # source slot of each entry

    def slot(self, key: int) -> int:
        """The slot of the even-degree moment under ``key``, compiled if new."""
        slot = self.slots.get(key)
        return self._fill(key) if slot is None else slot

    def _fill(self, key: int) -> int:
        slots, pairs = self.slots, self.pairs
        i = ((key & -key).bit_length() - 1) // FIELD_BITS
        beta = key - self._units[i]
        ops, srcs = [], []
        for shift, step, j in self._rows[i]:
            bj = (beta >> shift) & MAX_EXPONENT
            if bj:
                gamma = beta - step
                src = slots.get(gamma)
                srcs.append(self._fill(gamma) if src is None else src)
                ops.append(pairs.setdefault((i, j, bj), len(pairs)))
        self.lengths.append(len(ops))
        self.ops.extend(ops)
        self.srcs.extend(srcs)
        slots[key] = slot = len(self.lengths) + 1
        return slot


def _compact(values: list) -> Sequence[int]:
    """``values`` as bytes when every one fits in a byte (the usual case), else as a tuple."""
    return bytes(values) if max(values, default=0) <= 0xFF else tuple(values)


def _replay(rows: list, pairs: Sequence[int], lengths, ops, srcs, vals: list) -> None:
    """Append the moment of each compiled slot to ``vals`` for the covariance ``rows``.

    ``cov[i, j] * beta_j`` is formed once per pair; each slot then sums
    ``total = 0; total += (cov[i, j] * beta_j) * vals[src]`` over its
    entries in order, the recurrence's own operations, so float64, mpmath
    and int moments equal the recursion's bit for bit.
    """
    it = iter(pairs)
    cb = [rows[i][j] * b for i, j, b in zip(it, it, it)]
    products = map(mul, map(cb.__getitem__, ops), map(vals.__getitem__, srcs))
    append = vals.append
    for n in lengths:
        append(reduce(add, islice(products, n), 0))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(nvars: int, packed: bytes, pattern: bytes) -> tuple:
    """Program for the multi-indices packed in ``packed``, ``nvars`` bytes each.

    Returns ``(pairs, lengths, ops, srcs, out)``, flat int sequences
    (:func:`_compact`), with ``out`` the slot of each multi-index in order.
    The key is the ordered multi-indices of a polynomial's terms and the
    nonzero pattern of the covariance, so the shifted weights of one
    kernel, its normalisations and every number type replay one program.
    """
    program = _Program(nvars, pattern)
    out = [
        1 if sum(alpha) % 2 else program.slot(int.from_bytes(alpha, "little"))
        for alpha in (packed[start : start + nvars] for start in range(0, len(packed), nvars))
    ]
    pairs = list(chain.from_iterable(program.pairs))  # (i, j, beta_j) in index order
    return tuple(map(_compact, (pairs, program.lengths, program.ops, program.srcs, out)))


def _pack(alphas: Sequence[tuple]) -> bytes:
    """The multi-indices as one byte per exponent."""
    try:
        return b"".join(map(bytes, alphas))
    except ValueError:
        bad = next(a for a in alphas if not all(0 <= e <= MAX_EXPONENT for e in a))
        raise ValueError(f"multi-index {bad} has an exponent outside 0..{MAX_EXPONENT}") from None


class WickTable:
    """Centered Gaussian moments for a fixed covariance.

    The covariance is a complex array or an object array of mpmath numbers
    or of Python ints; moments come out in the same number type (exactly,
    for ints).  :meth:`moments` replays the :class:`_Program` compiled for
    the multi-indices and the covariance's nonzero pattern, cached in
    :func:`_plan`.  A moment of even degree is summed as
    ``total = 0; total += (cov[i, j] * beta_j) * E[...]`` over the nonzero
    ``cov[i, j]`` in ascending ``j``, so it is one well-defined sequence of
    operations.  An exponent above ``MAX_EXPONENT`` raises.
    """

    def __init__(self, cov: np.ndarray) -> None:
        cov = numerics.as_array(cov)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError("covariance must be square")
        self.cov = cov
        self._nvars = cov.shape[0]
        self._rows = cov.tolist()  # Python scalars
        self._pattern = bytes(map(bool, chain.from_iterable(self._rows)))

    def moments(self, alphas: Sequence[Sequence[int]]) -> list:
        """``E[w^alpha]`` for each multi-index, in order, from one cached program."""
        alphas = [a if type(a) is tuple else tuple(int(e) for e in a) for a in alphas]
        if not set(map(len, alphas)) <= {self._nvars}:
            bad = next(a for a in alphas if len(a) != self._nvars)
            raise ValueError(f"multi-index {bad} does not have {self._nvars} entries")
        if not self._nvars:
            return [1] * len(alphas)
        pairs, lengths, ops, srcs, out = _plan(self._nvars, _pack(alphas), self._pattern)
        vals = [1, 0]
        _replay(self._rows, pairs, lengths, ops, srcs, vals)
        return list(map(vals.__getitem__, out))

    def moment(self, alpha: Sequence[int]) -> complex:
        """E[w^alpha] for centered Gaussian w with the stored covariance."""
        return self.moments([alpha])[0]


@dataclass(frozen=True)
class GaussianForm:
    """``scale * poly(z) * exp(-z^T quad z + lin^T z + const)`` over R^nvars."""

    poly: MultiPoly
    quad: np.ndarray
    lin: np.ndarray
    const: complex = 0j
    scale: complex = 1.0 + 0j

    def __post_init__(self) -> None:
        quad = numerics.as_array(self.quad)
        quad = numerics.as_complex_symmetric(quad) if quad.size else quad.reshape(0, 0)
        lin = numerics.as_array(self.lin).reshape(-1)
        if quad.shape != (self.poly.nvars, self.poly.nvars) or lin.shape != (self.poly.nvars,):
            raise ValueError("quad/lin shapes do not match the polynomial variable count")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", numerics.as_number(self.const, quad))
        object.__setattr__(self, "scale", numerics.as_number(self.scale, quad))

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def evaluate(self, z: Sequence[float]) -> complex:
        z = np.asarray(z, dtype=complex).reshape(-1)
        expo = -(z @ self.quad @ z) + self.lin @ z + self.const
        return complex(self.scale * self.poly(z) * np.exp(expo))

    def as_scalar(self) -> complex:
        """Collapse a zero-variable form to a number."""
        if self.nvars != 0:
            raise ValueError("form still has free variables")
        return complex(self.scale * np.exp(self.const) * self.poly(np.empty(0)))

    def real_scalar(self, rtol: float = REAL_RTOL) -> float:
        value = self.as_scalar()
        if abs(value.imag) > rtol * max(abs(value), 1e-300):
            raise numerics.IndefiniteMatrixError(
                f"expected a real value, got imaginary residue {value.imag:.3e}"
            )
        if value.imag:
            logger.debug("dropping imaginary residue: raw value %r", value)
        return value.real

    def integrate(self, internal: Sequence[int]) -> "GaussianForm":
        """Integrate the listed variables over R; the rest become the new ring.

        Requires the real part of the internal quadratic block to be positive
        definite.  The returned form lives on the remaining variables in
        their original order.  The prefactor degree in the internal
        variables may not exceed ``DEFAULT_DEGREE_CAP``; external ones (such
        as family parameters) only ride along.
        """
        internal = sorted(set(int(i) for i in internal))
        if any(i < 0 or i >= self.nvars for i in internal):
            raise ValueError("internal index out of range")
        if not internal:
            return self
        external = [i for i in range(self.nvars) if i not in set(internal)]
        m = len(internal)
        q_int = self.quad[np.ix_(internal, internal)]
        # Raises unless Re(q_int) > 0.
        sqrt_det, q_inv = numerics.sqrt_det_and_inverse(q_int)
        pick_int = _picker(internal)
        deg = max((sum(pick_int(e)) for e in self.poly.terms), default=0)
        if deg > DEFAULT_DEGREE_CAP:
            raise DegreeCapError(f"prefactor degree {deg} exceeds cap {DEFAULT_DEGREE_CAP}")

        cross = self.quad[np.ix_(internal, external)]  # (m, q)
        l_int = self.lin[internal]
        quad_new = self.quad[np.ix_(external, external)]
        lin_new = self.lin[external]
        const_new = self.const
        scale_new = self.scale * numerics.pi(q_int) ** (m / 2.0) / sqrt_det

        poly, pick_ext = self.poly, _picker(external)
        # A block with no linear term and no coupling to the externals (every
        # trace chain) has nothing to complete: its mean is zero.
        if np.any(cross) or np.any(l_int):
            quad_new = quad_new - cross.T @ q_inv @ cross
            lin_new = lin_new - cross.T @ q_inv @ l_int
            const_new = const_new + 0.25 * l_int @ q_inv @ l_int
            # Completed-square mean of the internal block, affine in the
            # externals: mu(e) = q_inv @ (l_int / 2 - cross @ e).
            mu_const = 0.5 * q_inv @ l_int
            mu_lin = -q_inv @ cross  # (m, q)
            if np.any(mu_const != 0) or np.any(mu_lin != 0):
                # Substitute z_int = w + mu(e) onto the ring (w, e); the w
                # block is then centered and pairs by Isserlis.
                q = len(external)
                linear = np.zeros((self.nvars, m + q), dtype=mu_lin.dtype)
                const = np.zeros(self.nvars, dtype=mu_const.dtype)
                for k, i in enumerate(internal):
                    linear[i, k] = 1
                    linear[i, m:] = mu_lin[k]
                    const[i] = mu_const[k]
                for k, v in enumerate(external):
                    linear[v, m + k] = 1
                poly = poly.compose_affine(linear, const)
                pick_int, pick_ext = _picker(range(m)), _picker(range(m, m + q))

        moments = WickTable(0.5 * q_inv).moments([pick_int(e) for e in poly.terms])
        result: dict[tuple[int, ...], complex] = {}
        for (exps, coeff), moment in zip(poly.terms.items(), moments):
            value = coeff * moment
            if value:
                key = pick_ext(exps)
                prev = result.get(key)
                result[key] = value if prev is None else prev + value

        poly_new = MultiPoly._from_terms(len(external), result)
        return GaussianForm(poly_new, quad_new, lin_new, const_new, scale_new)


def integrate_integer(
    form: GaussianForm, internal: Sequence[int], den: int = 1
) -> tuple[MultiPoly, int, int]:
    """Exact integral of an integer form over the listed variables, as ``(poly, det, order)``.

    ``form`` stands for ``scale * poly(z) * exp(-z^T (quad / den) z)``:
    ``quad`` is an object array of Python ints, ``den`` a positive int, the
    coefficients and the scale are ints, there is no linear or constant
    exponent term, and the internal block does not couple to the other
    variables (as in every trace chain).  With ``d`` internal variables and
    ``det`` the determinant of the internal block of ``quad``,

        integral = pi^(d/2) * sqrt(den^d / det) * poly / (2 * det)^order,

    with ``poly`` over the remaining variables, in their order, with int
    coefficients.  The covariance ``(quad / den)^-1 / 2`` is
    ``den * adj / (2 * det)``, so a moment of degree ``2m`` is the
    :class:`WickTable` moment over the integer matrix ``den * adj`` divided
    by ``(2 * det)^m``; ``order`` is the largest ``m`` in the prefactor and
    each term carries the integer ``(2 * det)^(order - m)``.  Nothing is
    rounded.  The block is factored exactly
    (:func:`polygauss.numerics.integer_det_adjugate`), so a block that is not
    positive definite raises :class:`polygauss.numerics.IndefiniteMatrixError`;
    the degree cap is that of :meth:`GaussianForm.integrate`.
    """
    internal = sorted(set(int(i) for i in internal))
    if any(i < 0 or i >= form.nvars for i in internal):
        raise ValueError("internal index out of range")
    external = [i for i in range(form.nvars) if i not in set(internal)]
    quad = form.quad
    if any(quad[np.ix_(internal, external)].flat) or any(form.lin) or form.const:
        raise ValueError("integer integration takes an uncoupled block and no linear terms")
    det, adj = numerics.integer_det_adjugate(quad[np.ix_(internal, internal)])
    pick_int, pick_ext = _picker(internal), _picker(external)
    alphas = [pick_int(e) for e in form.poly.terms]
    deg = max(map(sum, alphas), default=0)
    if deg > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(f"prefactor degree {deg} exceeds cap {DEFAULT_DEGREE_CAP}")
    order = deg // 2
    moments = WickTable(den * adj).moments(alphas)
    # Sum coeff * W per (external monomial, m) first, so each sum meets its
    # large weight (2 det)^(order - m) once.
    sums: dict[tuple, int] = {}
    for (exps, coeff), alpha, value in zip(form.poly.terms.items(), alphas, moments):
        if value:
            key = (pick_ext(exps), sum(alpha) // 2)
            sums[key] = sums.get(key, 0) + coeff * value
    result: dict[tuple[int, ...], int] = {}
    for (key, m), value in sums.items():
        result[key] = result.get(key, 0) + form.scale * (2 * det) ** (order - m) * value
    return MultiPoly._from_terms(len(external), result), det, order


# -------------------------------------------------------------- conveniences


def gaussian_integral(quad: np.ndarray, lin: Optional[np.ndarray] = None) -> complex:
    """Exact ``integral exp(-z^T quad z + lin^T z) dz`` over all variables."""
    quad = numerics.as_complex_symmetric(np.asarray(quad, dtype=complex))
    return poly_gaussian_integral(MultiPoly.constant(quad.shape[0], 1.0), quad, lin)


def poly_gaussian_integral(
    prefactor: MultiPoly,
    quad: np.ndarray,
    lin: Optional[np.ndarray] = None,
) -> complex:
    """Exact ``integral prefactor(z) exp(-z^T quad z + lin^T z) dz``."""
    quad = numerics.as_complex_symmetric(np.asarray(quad, dtype=complex))
    m = quad.shape[0]
    if prefactor.nvars != m:
        raise ValueError("prefactor variable count must match the quadratic form")
    if lin is None:
        lin = np.zeros(m, dtype=complex)
    form = GaussianForm(prefactor, quad, np.asarray(lin, dtype=complex))
    return form.integrate(range(m)).as_scalar()


def _form_to_kernel(form: GaussianForm, rtol: float = REAL_RTOL) -> PolyGaussianKernel:
    """Repackage a self-adjoint form over (x, y) blocks as a kernel."""
    if float(np.max(np.abs(form.lin))) > rtol:
        raise ValueError("kernel forms carry no linear exponent terms")
    triple = triple_from_exponent_matrix(form.quad, rtol=rtol)
    scalar = form.scale * np.exp(form.const)
    poly = form.poly
    if abs(scalar.imag) <= rtol * abs(scalar) and scalar.real > 0:
        norm = scalar.real
    else:
        poly = poly * scalar
        norm = 1.0
    # Engine roundoff can leave a tiny non-self-adjoint residue; project it out.
    sym = poly.hermitized()
    if not poly.is_self_adjoint(tol=1e-7):
        raise numerics.IndefiniteMatrixError("integrated kernel lost self-adjointness")
    return PolyGaussianKernel(sym, triple, norm)


def integrate_out(
    kernel: PolyGaussianKernel,
    coords: Sequence[int],
    diagonal: bool = True,
) -> PolyGaussianKernel:
    """Integrate a coordinate block out of a kernel.

    With ``diagonal=True`` this is the partial trace: substitute
    ``y_i = x_i`` on ``coords`` and integrate those coordinates, which
    preserves both the trace and operator positivity.  With
    ``diagonal=False`` the x and y coordinates on ``coords`` are integrated
    independently (plain marginalization).
    """
    n = kernel.n
    coords = sorted(set(int(i) for i in coords))
    if not coords or len(coords) >= n:
        raise ValueError("coords must be a nonempty proper subset of the coordinates")
    if any(i < 0 or i >= n for i in coords):
        raise ValueError("coordinate index out of range")
    keep = [i for i in range(n) if i not in set(coords)]
    q = len(keep)
    dead = len(coords)

    if diagonal:
        # New ring: [u (collapsed pairs), x_keep, y_keep].
        nvars_new = dead + 2 * q
        var_map = [0] * 2 * n
        for k, i in enumerate(coords):
            var_map[i] = k
            var_map[n + i] = k
        for k, i in enumerate(keep):
            var_map[i] = dead + k
            var_map[n + i] = dead + q + k
        internal = list(range(dead))
    else:
        # New ring: [u_x, u_y, x_keep, y_keep].
        nvars_new = 2 * dead + 2 * q
        var_map = [0] * 2 * n
        for k, i in enumerate(coords):
            var_map[i] = k
            var_map[n + i] = dead + k
        for k, i in enumerate(keep):
            var_map[i] = 2 * dead + k
            var_map[n + i] = 2 * dead + q + k
        internal = list(range(2 * dead))

    t = np.zeros((2 * n, nvars_new))
    for old, new in enumerate(var_map):
        t[old, new] = 1.0
    quad_new = t.T @ kernel.exponent_matrix() @ t
    poly_new = kernel.poly.rename_vars(nvars_new, var_map)
    form = GaussianForm(
        poly_new, quad_new, np.zeros(nvars_new, dtype=complex), 0j, kernel.norm
    )
    reduced = form.integrate(internal)
    return _form_to_kernel(reduced)
