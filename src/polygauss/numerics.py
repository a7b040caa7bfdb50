"""Dense small-matrix numerical substrate.

Everything here operates on plain ``numpy`` arrays and is sized for the
small (at most a few dozen rows) matrices that arise in kernel exponents,
phase-space forms and trace-moment chains.  All functions are pure.

The exact-integration engine runs on two number types, and the inputs
choose which: complex (or real) float64 arrays, or numpy object arrays of
``mpmath`` numbers.  The few dense operations that differ between the two
(symmetry and positive-definiteness checks, inverse, square root of a
determinant, pi) live here; the mpmath branches of the inverse and the
square-root determinant take real matrices only, and share one Cholesky
factor when both are needed (:func:`sqrt_det_and_inverse`).

Matrices of Python ints have an exact layer: :func:`integer_det_adjugate`
gives the determinant and the adjugate of a symmetric positive definite
integer matrix with no rounding, and proves the definiteness on the way.
"""

from __future__ import annotations

from typing import Callable, Optional

import mpmath
import numpy as np

__all__ = [
    "BracketError",
    "IndefiniteMatrixError",
    "NotSymmetricError",
    "as_array",
    "as_complex_symmetric",
    "as_number",
    "as_real_symmetric",
    "bracket_root",
    "complex_sqrt_det",
    "integer_det_adjugate",
    "inverse",
    "is_exact",
    "is_mp",
    "min_eigenvalue",
    "pi",
    "psd_sqrt",
    "sqrt_det_and_inverse",
    "sym_eig",
]

# Relative asymmetry accepted before an input matrix is rejected instead of
# being symmetrized away.
SYMMETRY_RTOL = 1e-12


class NotSymmetricError(ValueError):
    """Input matrix is asymmetric beyond the accepted tolerance."""


class IndefiniteMatrixError(ValueError):
    """Matrix fails a required (semi)definiteness precondition."""


class BracketError(ValueError):
    """Root bracket is invalid: no sign change on the interval."""


MP_TYPES = (mpmath.mpf, mpmath.mpc)


def is_mp(x) -> bool:
    """True for an mpmath number or a numpy object array (of mpmath numbers)."""
    return isinstance(x, MP_TYPES) or (isinstance(x, np.ndarray) and x.dtype == object)


def is_exact(x) -> bool:
    """True for a Python int or a nonempty numpy object array of Python ints."""
    if type(x) is int:
        return True
    return (
        isinstance(x, np.ndarray)
        and x.dtype == object
        and x.size > 0
        and all(type(v) is int for v in x.flat)
    )


def as_number(x, like=None):
    """``x`` as a Python complex, or as an mpmath number if it is one or ``like`` holds them.

    A Python int stays an int beside an exact ``like`` (:func:`is_exact`).
    """
    if isinstance(x, MP_TYPES):
        return x
    if like is None:
        return complex(x)
    if type(x) is int and is_exact(like):
        return x
    return mpmath.mpmathify(x) if is_mp(like) else complex(x)


def as_array(x) -> np.ndarray:
    """``x`` as a complex array, or unchanged if it is an object (mpmath) array."""
    return x if is_mp(x) else np.asarray(x, dtype=complex)


def pi(like):
    """pi in the number type of ``like``."""
    return +mpmath.pi if is_mp(like) else np.pi


def inverse(m: np.ndarray) -> np.ndarray:
    """Matrix inverse, in the number type of ``m``.

    An mpmath matrix must be real symmetric positive definite, as the
    internal block of :meth:`polygauss.wick.GaussianForm.integrate` is: the
    inverse is ``L^{-T} L^{-1}`` from the Cholesky factor ``L``, the same
    factorisation that :func:`complex_sqrt_det` uses, and comes out exactly
    symmetric.  A float64 matrix is inverted by ``np.linalg.inv``.
    """
    if is_mp(m):
        return _cholesky_inverse(_mp_cholesky(m))
    return np.linalg.inv(m)


def sqrt_det_and_inverse(m: np.ndarray) -> tuple:
    """``(complex_sqrt_det(m), inverse(m))``; an mpmath matrix is factored once for both."""
    if is_mp(m):
        chol = _mp_cholesky(m)
        return _cholesky_sqrt_det(chol), _cholesky_inverse(chol)
    return complex_sqrt_det(m), inverse(m)


def _cholesky_inverse(chol: mpmath.matrix) -> np.ndarray:
    """``L^{-T} L^{-1}`` from a lower Cholesky factor ``L``, as an exactly symmetric object array."""
    low = chol.tolist()
    size = len(low)
    # Forward substitution for the lower-triangular X = L^{-1}, column by column.
    x = [[0] * size for _ in range(size)]
    for j in range(size):
        x[j][j] = 1 / low[j][j]
        for i in range(j + 1, size):
            x[i][j] = -mpmath.fdot((low[i][k], x[k][j]) for k in range(j, i)) / low[i][i]
    out = np.empty((size, size), dtype=object)
    for i in range(size):
        for j in range(i, size):
            out[i, j] = out[j, i] = mpmath.fdot((x[k][i], x[k][j]) for k in range(j, size))
    return out


def _cholesky_sqrt_det(chol: mpmath.matrix):
    """The positive square root of ``det(L L^T)``: the product of the diagonal of ``L``."""
    return mpmath.fprod(chol[i, i] for i in range(chol.rows))


def _mp_cholesky(m: np.ndarray) -> mpmath.matrix:
    """Lower Cholesky factor of a real symmetric mpmath matrix.

    Asymmetry is averaged away or rejected as by :func:`as_complex_symmetric`.
    """
    m = as_complex_symmetric(m)
    if any(mpmath.im(v) for v in m.flat):
        raise NotImplementedError("mpmath factorisation takes real matrices")
    try:
        return mpmath.cholesky(mpmath.matrix(m.tolist()))
    except ValueError:
        raise IndefiniteMatrixError("matrix is not positive definite") from None


def integer_det_adjugate(m) -> tuple[int, np.ndarray]:
    """``(det m, adj m)`` of a symmetric positive definite matrix of Python ints, exactly.

    Fraction-free (Bareiss) elimination of ``[m | I]`` without pivoting
    (E. H. Bareiss, Math. Comp. 22, 1968): the k-th pivot is the k-th
    leading principal minor of ``m``, so every division is exact and the
    last pivot is the determinant.  By Sylvester's criterion a pivot that is
    not positive proves that ``m`` is not positive definite, singular
    included, and raises :class:`IndefiniteMatrixError`.  Back substitution
    of ``m X = det * I`` on the eliminated rows then gives the adjugate, an
    integer matrix, with exact divisions again.  The adjugate comes back as
    an object array of Python ints.
    """
    rows = np.asarray(m, dtype=object)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1] or not rows.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {rows.shape}")
    if not all(type(v) is int for v in rows.flat):
        raise TypeError("integer_det_adjugate takes Python ints")
    if any((rows != rows.T).flat):
        raise NotSymmetricError("matrix is not symmetric")
    size = rows.shape[0]
    aug = [row + [int(i == r) for i in range(size)] for r, row in enumerate(rows.tolist())]
    prev = 1
    for k in range(size):
        top = aug[k]
        pivot = top[k]
        if pivot <= 0:
            raise IndefiniteMatrixError("matrix is not positive definite")
        for row in aug[k + 1:]:
            lead = row[k]
            row[k] = 0
            for j in range(k + 1, 2 * size):
                row[j] = (pivot * row[j] - lead * top[j]) // prev
        prev = pivot
    det = prev
    adj = [[0] * size for _ in range(size)]
    for i in range(size - 1, -1, -1):
        row = aug[i]
        for col in range(size):
            acc = det * row[size + col]
            for k in range(i + 1, size):
                acc -= row[k] * adj[k][col]
            adj[i][col] = acc // row[i]
    out = np.empty((size, size), dtype=object)
    out[:, :] = adj
    return det, out


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def as_real_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate and return ``(m + m.T)/2`` as a float array.

    Small asymmetry (relative to ``norm(m)``) is averaged away; anything
    larger raises :class:`NotSymmetricError`.
    """
    m = _check_square(m)
    if np.iscomplexobj(m):
        if np.max(np.abs(m.imag)) > rtol * max(1.0, np.linalg.norm(m)):
            raise NotSymmetricError("expected a real matrix")
        m = m.real
    m = m.astype(float, copy=False)
    scale = max(1.0, np.linalg.norm(m))
    if np.max(np.abs(m - m.T)) > rtol * scale:
        raise NotSymmetricError("matrix asymmetry exceeds tolerance")
    return 0.5 * (m + m.T)


def as_complex_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Validate and return the complex-symmetric (not Hermitian) average.

    An object (mpmath) array keeps its number type.
    """
    if is_mp(m):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        diff = m - m.T
        if not any(diff.flat):
            return m
        scale = max([1.0] + [abs(v) for v in m.flat])
        asym = max(abs(v) for v in diff.flat)
    else:
        m = _check_square(m).astype(complex, copy=False)
        scale = max(1.0, np.linalg.norm(m))
        asym = np.max(np.abs(m - m.T))
    if asym > rtol * scale:
        raise NotSymmetricError("matrix asymmetry exceeds tolerance")
    return 0.5 * (m + m.T)


def sym_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvector columns ``v``, so ``m == v @ diag(w) @ v.T`` up to roundoff.
    """
    m = as_real_symmetric(m)
    return np.linalg.eigh(m)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix."""
    w, _ = sym_eig(m)
    return float(w[0])


def psd_sqrt(m: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root of a positive semidefinite matrix.

    Eigenvalues below ``-rtol * norm(m)`` raise
    :class:`IndefiniteMatrixError`; tiny negative ones are clamped to zero.
    """
    m = as_real_symmetric(m)
    w, v = np.linalg.eigh(m)
    scale = max(1.0, np.linalg.norm(m))
    if w[0] < -rtol * scale:
        raise IndefiniteMatrixError(
            f"matrix is indefinite: min eigenvalue {w[0]:.3e} < -{rtol:.0e} * scale"
        )
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (root + root.T)


def complex_sqrt_det(m: np.ndarray) -> complex:
    """Branch-safe square root of the determinant of a complex symmetric matrix.

    Requires the real part of ``m`` to be positive definite, which confines
    the eigenvalues to the open right half-plane.  The result is the product
    of the principal (positive-real-part) square roots of the individual
    eigenvalues; unlike a single principal square root of ``det(m)`` it
    varies continuously with ``m`` on this domain.  An mpmath matrix must
    be real, where the product is the positive root of the determinant.
    """
    if is_mp(m):
        return _cholesky_sqrt_det(_mp_cholesky(m))
    m = as_complex_symmetric(m)
    re_min = np.linalg.eigvalsh(0.5 * (m.real + m.real.T))[0]
    if re_min <= 0.0:
        raise IndefiniteMatrixError(
            f"real part is not positive definite (min eigenvalue {re_min:.3e})"
        )
    eigs = np.linalg.eigvals(m)
    roots = np.sqrt(eigs.astype(complex))
    # Principal sqrt maps the right half-plane into itself; flip any root
    # that roundoff pushed across the imaginary axis.
    roots = np.where(roots.real < 0.0, -roots, roots)
    return complex(np.prod(roots))


def bracket_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> float:
    """Bisection root of ``f`` on ``[lo, hi]``; ``f(lo)`` and ``f(hi)`` must differ in sign.

    Deterministic and derivative-free, so it tolerates noisy evaluations of
    ``f``.  Returns the bracket midpoint once the bracket width is below
    ``tol``.
    """
    return _bracket_root(f, lo, hi, tol)


def _bracket_root(f, lo: float, hi: float, tol: float, ends: Optional[tuple] = None) -> float:
    """:func:`bracket_root`, given the end values ``ends = (f(lo), f(hi))`` if they are known.

    A caller that has just evaluated both ends (the grid scan of
    :func:`polygauss.spectral.z_root`) hands them over instead of having
    them evaluated again; the bisection is the same either way.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    flo, fhi = (f(lo), f(hi)) if ends is None else ends
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"no sign change: f({lo})={flo:.3e}, f({hi})={fhi:.3e}")
    max_iter = int(np.ceil(np.log2(max((hi - lo) / tol, 1.0)))) + 4
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return float(mid)
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol:
            break
    return float(0.5 * (lo + hi))
