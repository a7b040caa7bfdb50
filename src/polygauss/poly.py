"""Sparse multivariate polynomials with complex or mpmath coefficients.

A :class:`MultiPoly` stores a map from exponent tuples to coefficients.
Coefficients are Python complex numbers unless they are given as mpmath
numbers, which arithmetic keeps as they are.  In
kernel contexts the variable list is split in half: the first ``n``
variables are the "left" block (x) and the last ``n`` the "right" block (y),
and self-adjointness means that swapping the blocks and conjugating the
coefficients reproduces the polynomial.

Structural positivity gates:

* a nonzero polynomial of odd degree can never multiply a Gaussian into a
  positive semidefinite operator, and
* the same holds when zeroing out some coordinate pairs ``x_i = y_i = 0``
  leaves a nonzero polynomial of odd degree.

``odd_degree_gate`` decides both, returning the lexicographically smallest
witness subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .numerics import MP_TYPES, as_array, as_number

__all__ = [
    "MultiPoly",
    "OddGateVerdict",
    "odd_degree_gate",
    "universal_point_check",
]

# Float64 coefficients below PRUNE_RTOL * max|coeff| are dropped after
# arithmetic so the degree stays well defined under cancellation.  mpmath
# coefficients are never pruned: their relative spread legitimately reaches
# far below float64 resolution (1e-23 in the delta-shifted family chains).
PRUNE_RTOL = 1e-14

# Subset enumeration in the odd-degree gate is capped at 2**MAX_GATE_N work.
MAX_GATE_N = 20


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


def _cleaned(terms: dict, prune: bool) -> dict:
    """Drop zero coefficients and, for float64 polynomials, negligible ones."""
    terms = {e: c for e, c in terms.items() if c}
    if prune and terms and not any(isinstance(c, MP_TYPES) for c in terms.values()):
        cmax = max(abs(c) for c in terms.values())
        terms = {e: c for e, c in terms.items() if abs(c) > PRUNE_RTOL * cmax}
    return terms


class MultiPoly:
    """Immutable sparse polynomial over ``nvars`` real variables.

    ``terms`` maps exponent tuples (length ``nvars``, nonnegative ints) to
    nonzero complex or mpmath coefficients.  Do not mutate a returned term
    mapping.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Optional[Mapping[tuple[int, ...], complex]] = None,
        *,
        prune: bool = True,
    ) -> None:
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], complex] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {self.nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = as_number(coeff)
                if c != 0:
                    clean[exps] = clean.get(exps, 0) + c
        self._terms = _cleaned(clean, prune)

    @classmethod
    def _from_terms(cls, nvars: int, terms: dict, prune: bool = True) -> "MultiPoly":
        """Trusted constructor for arithmetic results (exponents already valid)."""
        out = object.__new__(cls)
        out.nvars = nvars
        out._terms = _cleaned(terms, prune)
        return out

    # ---------------------------------------------------------------- basics

    @property
    def terms(self) -> dict[tuple[int, ...], complex]:
        return self._terms

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff: complex = 1.0) -> "MultiPoly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1.0})

    @property
    def n(self) -> int:
        """Half the variable count, for kernel polynomials in (x, y) blocks."""
        if self.nvars % 2:
            raise ValueError("polynomial does not have an even variable count")
        return self.nvars // 2

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> Optional[int]:
        """Total degree, or ``None`` for the zero polynomial."""
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        """Terms in graded lexicographic order (deterministic serialization)."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        if not self._terms:
            return f"MultiPoly({self.nvars}, 0)"
        bits = []
        for exps, coeff in self.sorted_terms()[:8]:
            mono = "*".join(f"z{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"({coeff:.4g})*{mono}")
        more = "" if len(self._terms) <= 8 else f" + <{len(self._terms) - 8} more>"
        return f"MultiPoly({self.nvars}, {' + '.join(bits)}{more})"

    # ------------------------------------------------------------ arithmetic

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            merged[exps] = merged.get(exps, 0) + coeff
        return MultiPoly._from_terms(self.nvars, merged)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._from_terms(self.nvars, {e: -c for e, c in self._terms.items()}, False)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "MultiPoly":
        if np.isscalar(other):
            c = as_number(other)
            return MultiPoly._from_terms(
                self.nvars, {e: c * v for e, v in self._terms.items()}, False
            )
        other = self._coerce(other)
        prod: dict[tuple[int, ...], complex] = {}
        get = prod.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                c = c1 * c2
                prev = get(key)
                prod[key] = c if prev is None else prev + c
        return MultiPoly._from_terms(self.nvars, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base if k > 1 else base
            k >>= 1
        return MultiPoly.constant(self.nvars, 1.0) if out is None else out

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if np.isscalar(other):
            return MultiPoly.constant(self.nvars, other)
        raise TypeError(f"cannot combine MultiPoly with {type(other)!r}")

    # ------------------------------------------------------------ evaluation

    def __call__(self, point: Sequence[float]) -> complex:
        point = np.asarray(point)
        if point.shape != (self.nvars,):
            raise ValueError(f"point has shape {point.shape}, expected ({self.nvars},)")
        total = 0
        for exps, coeff in self._terms.items():
            val = coeff
            for z, e in zip(point, exps):
                if e:
                    val *= z**e
            total += val
        return total

    def evaluate(self, x: Sequence[float], y: Sequence[float]) -> complex:
        """Evaluate a kernel polynomial at the point (x, y)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if x.shape != (self.n,) or y.shape != (self.n,):
            raise ValueError("x and y must each have length n")
        return self(np.concatenate([x, y]))

    def eval_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized ``P(points[i], points[j])`` over all pairs of rows.

        ``points`` has shape (k, n), or (..., k, n) for a stack of point sets;
        the result is a complex (k, k) array, or (..., k, k).  Each slice of a
        stacked call equals the 2-D call on that slice bit for bit.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2 or pts.shape[-1] != self.n:
            raise ValueError("points must have shape (k, n) or (..., k, n)")
        rows = pts.shape[:-1]
        out = np.zeros(rows + rows[-1:], dtype=complex)
        n = self.n
        for exps, coeff in self._terms.items():
            xi = np.ones(rows)
            yj = np.ones(rows)
            for d in range(n):
                if exps[d]:
                    xi = xi * pts[..., d] ** exps[d]
                if exps[n + d]:
                    yj = yj * pts[..., d] ** exps[n + d]
            out += coeff * (xi[..., :, None] * yj[..., None, :])
        return out

    # -------------------------------------------------------- transformations

    def conjugate(self) -> "MultiPoly":
        return MultiPoly._from_terms(
            self.nvars, {e: c.conjugate() for e, c in self._terms.items()}, False
        )

    def adjoint(self) -> "MultiPoly":
        """Swap the x and y blocks and conjugate the coefficients."""
        n = self.n
        swapped = {e[n:] + e[:n]: c.conjugate() for e, c in self._terms.items()}
        return MultiPoly._from_terms(self.nvars, swapped, False)

    def is_self_adjoint(self, tol: float = 0.0) -> bool:
        """True iff the adjoint reproduces the polynomial.

        With ``tol == 0`` the comparison is exact; a positive ``tol`` bounds
        the coefficient mismatch relative to the largest coefficient (for
        polynomials produced by floating-point pipelines).
        """
        diff = self - self.adjoint()
        if diff.is_zero():
            return True
        if tol <= 0.0:
            return False
        scale = max(self.max_abs_coeff(), 1e-300)
        return diff.max_abs_coeff() <= tol * scale

    def hermitized(self) -> "MultiPoly":
        """Average with the adjoint (projects onto the self-adjoint part)."""
        return (self + self.adjoint()) * 0.5

    def rename_vars(self, nvars_new: int, var_map: Sequence[int]) -> "MultiPoly":
        """Map variable ``i`` to variable ``var_map[i]`` of a new ring.

        The map need not be injective: collapsing two variables onto one
        target substitutes the same variable for both.
        """
        if len(var_map) != self.nvars:
            raise ValueError("var_map must assign every variable")
        out: dict[tuple[int, ...], complex] = {}
        for exps, coeff in self._terms.items():
            new = [0] * nvars_new
            for i, e in enumerate(exps):
                if e:
                    new[var_map[i]] += e
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
        return MultiPoly._from_terms(nvars_new, out)

    def compose_affine(self, linear: np.ndarray, const: Optional[np.ndarray] = None) -> "MultiPoly":
        """Substitute ``z_old[i] = sum_j linear[i, j] z_new[j] + const[i]``."""
        linear = as_array(linear)
        if linear.ndim != 2 or linear.shape[0] != self.nvars:
            raise ValueError(f"linear map must have shape ({self.nvars}, nvars_new)")
        nvars_new = linear.shape[1]
        if const is None:
            const = np.zeros(self.nvars, dtype=complex)
        const = as_array(const)
        images: list[MultiPoly] = []
        for i in range(self.nvars):
            t: dict[tuple[int, ...], complex] = {}
            if const[i] != 0:
                t[(0,) * nvars_new] = const[i]
            for j in range(nvars_new):
                if linear[i, j] != 0:
                    exps = [0] * nvars_new
                    exps[j] = 1
                    t[tuple(exps)] = linear[i, j]
            images.append(MultiPoly(nvars_new, t))
        power_cache: dict[tuple[int, int], MultiPoly] = {}

        def img_pow(i: int, e: int) -> MultiPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = images[i] ** e
            return power_cache[key]

        total = MultiPoly.zero(nvars_new)
        for exps, coeff in self._terms.items():
            term = MultiPoly.constant(nvars_new, coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * img_pow(i, e)
            total = total + term
        return total

    def restrict_zero(self, variables: Iterable[int]) -> "MultiPoly":
        """Substitute zero for the given variables (keeps the variable count)."""
        dead = set(variables)
        kept = {
            e: c for e, c in self._terms.items() if all(e[i] == 0 for i in dead)
        }
        return MultiPoly._from_terms(self.nvars, kept, False)

    # ---------------------------------------------------------- serialization

    def to_records(self) -> list[dict]:
        return [
            {"exponents": list(e), "coeff": [c.real, c.imag]}
            for e, c in self.sorted_terms()
        ]

    @classmethod
    def from_records(cls, nvars: int, records: Iterable[Mapping]) -> "MultiPoly":
        terms: dict[tuple[int, ...], complex] = {}
        for rec in records:
            exps = tuple(int(e) for e in rec["exponents"])
            re, im = rec["coeff"]
            terms[exps] = terms.get(exps, 0j) + complex(float(re), float(im))
        return cls(nvars, terms)


@dataclass(frozen=True)
class OddGateVerdict:
    """Outcome of the odd-degree structural gate.

    ``kind`` is one of ``"reject_odd"``, ``"reject_reducible_odd"``,
    ``"pass"`` or ``"skipped"``.  A reject verdict certifies that no Gaussian
    factor can make the polynomial kernel positive semidefinite; ``witness``
    then holds the zeroed coordinate subset (empty for a plain odd degree).
    """

    kind: str
    witness: Optional[tuple[int, ...]] = None
    restricted_degree: Optional[int] = None

    @property
    def rejected(self) -> bool:
        return self.kind in ("reject_odd", "reject_reducible_odd")


def odd_degree_gate(p: MultiPoly, max_n: int = MAX_GATE_N) -> OddGateVerdict:
    """Check for odd total degree, directly or after zeroing coordinate pairs.

    Subsets of coordinates are tried in lexicographic order of their sorted
    index tuples and the first (smallest) hit is reported.  For ``n`` above
    ``max_n`` the subset stage is skipped explicitly rather than silently
    passed.
    """
    if p.is_zero():
        raise ValueError("odd-degree gate is undefined for the zero polynomial")
    deg = p.degree()
    assert deg is not None
    if deg % 2 == 1:
        return OddGateVerdict("reject_odd", witness=(), restricted_degree=deg)
    n = p.n
    if n > max_n:
        return OddGateVerdict("skipped")
    indices = list(range(n))
    subsets = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(indices, r) for r in range(1, n + 1)
        )
    )
    for subset in subsets:
        dead = [i for i in subset] + [n + i for i in subset]
        restricted = p.restrict_zero(dead)
        rdeg = restricted.degree()
        if rdeg is not None and rdeg % 2 == 1:
            return OddGateVerdict(
                "reject_reducible_odd", witness=subset, restricted_degree=rdeg
            )
    return OddGateVerdict("pass")


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
