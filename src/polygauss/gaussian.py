"""Gaussian kernel triples and their positivity machinery.

A triple ``(A, B, C)`` of real n-by-n matrices with ``A`` and ``C``
symmetric parameterizes the Gaussian kernel

    kappa(x, y) = exp(-(x-y)^T A (x-y) - i (x-y)^T B (x+y) - (x+y)^T C (x+y)).

The kernel is square integrable ("kernel valid") exactly when ``A`` and
``C`` are positive definite.  The phase-space picture turns positivity of
the induced integral operator into a spectral statement: the operator is
positive semidefinite iff every symplectic eigenvalue of the phase-space
matrix ``G`` is at most one.

The module also implements the kernel preorder that transfers operator
positivity between Gaussian weights sharing a polynomial factor, and the
induced equivalence (equal ``A - C`` and symmetric ``B`` difference).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import numerics

__all__ = [
    "ConsistencyError",
    "GaussianPositivity",
    "GaussianTriple",
    "PreorderWitness",
    "SymplecticSpectrum",
    "equiv",
    "eval_gaussian",
    "gaussian_exponent",
    "gaussian_positive",
    "phase_space_form",
    "preorder_leq",
    "shifted_triple",
    "sufficient_leq",
    "symplectic_form",
    "symplectic_spectrum",
    "triple_exponent_matrix",
    "triple_from_exponent_matrix",
    "eval_gaussian_grid",
]

POSITIVITY_TOL = 1e-10  # absolute slack on the mu <= 1 boundary
PAIR_RTOL = 1e-8  # relative tolerance for singular-value pairing
EQUIV_RTOL = 1e-12


class ConsistencyError(RuntimeError):
    """Internal numerical cross-check failed (suspect input or algorithm)."""


@dataclass(frozen=True)
class GaussianTriple:
    """Matrices (A, B, C) of a Gaussian kernel exponent; A, C symmetric."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a = numerics.as_real_symmetric(self.a)
        c = numerics.as_real_symmetric(self.c)
        b = np.asarray(self.b, dtype=float)
        if b.shape != a.shape or c.shape != a.shape:
            raise ValueError("A, B, C must share one square shape")
        if not np.all(np.isfinite(b)):
            raise ValueError("B has non-finite entries")
        for name, m in (("a", a), ("b", b), ("c", c)):
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    @classmethod
    def from_scalars(cls, a: float, c: float, b: float = 0.0) -> "GaussianTriple":
        return cls(np.array([[float(a)]]), np.array([[float(b)]]), np.array([[float(c)]]))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def kernel_valid(self) -> bool:
        """True iff A and C are positive definite (square-integrable kernel)."""
        return (
            numerics.min_eigenvalue(self.a) > 0.0
            and numerics.min_eigenvalue(self.c) > 0.0
        )

    def require_kernel_valid(self) -> None:
        if not self.kernel_valid:
            raise ValueError("triple is not kernel valid (A, C must be positive definite)")

    def scale(self) -> float:
        return max(
            1.0,
            np.linalg.norm(self.a),
            np.linalg.norm(self.b),
            np.linalg.norm(self.c),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianTriple):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.a, other.a)
            and np.array_equal(self.b, other.b)
            and np.array_equal(self.c, other.c)
        )


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Williamson eigenvalues mu_k of a positive definite phase-space matrix."""

    mus: np.ndarray

    def __post_init__(self) -> None:
        mus = np.asarray(self.mus, dtype=float)
        if mus.ndim != 1 or mus.size == 0:
            raise ValueError("spectrum must be a nonempty vector")
        if np.any(mus <= 0.0):
            raise ValueError("symplectic eigenvalues must be positive")
        mus = np.sort(mus)[::-1].copy()
        mus.flags.writeable = False
        object.__setattr__(self, "mus", mus)

    @property
    def mu_max(self) -> float:
        return float(self.mus[0])


@dataclass(frozen=True)
class GaussianPositivity:
    """Positivity verdict for a Gaussian operator, with boundary margin."""

    positive: bool
    spectrum: SymplecticSpectrum

    @property
    def mu_max(self) -> float:
        return self.spectrum.mu_max

    @property
    def margin(self) -> float:
        """``1 - mu_max``; nonnegative means positive up to tolerance."""
        return 1.0 - self.mu_max

    @property
    def borderline(self) -> bool:
        return abs(self.margin) <= 10 * POSITIVITY_TOL


@dataclass(frozen=True)
class PreorderWitness:
    """Shifted difference triple whose Gaussian positivity decides the preorder."""

    r: float
    witness_triple: GaussianTriple
    witness_spectrum: SymplecticSpectrum


# --------------------------------------------------------------- evaluation


def gaussian_exponent(triple: GaussianTriple, x: np.ndarray, y: np.ndarray) -> complex:
    """Exponent of the Gaussian kernel at one point pair of float arrays (unchecked)."""
    d = x - y
    s = x + y
    return -(d @ triple.a @ d) - 1j * (d @ triple.b @ s) - (s @ triple.c @ s)


def eval_gaussian(triple: GaussianTriple, x, y) -> complex:
    """Evaluate the Gaussian kernel at one point pair; modulus is at most 1."""
    triple.require_kernel_valid()
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != (triple.n,) or y.shape != (triple.n,):
        raise ValueError("x and y must have length n")
    return complex(np.exp(gaussian_exponent(triple, x, y)))


def eval_gaussian_grid(triple: GaussianTriple, points: np.ndarray) -> np.ndarray:
    """Vectorized kernel values over all row pairs of ``points`` (k, n).

    A stack of point sets (..., k, n) gives a (..., k, k) stack whose slices
    equal the 2-D call on each slice bit for bit.
    """
    triple.require_kernel_valid()
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != triple.n:
        raise ValueError("points must have shape (k, n) or (..., k, n)")
    d = pts[..., :, None, :] - pts[..., None, :, :]
    s = pts[..., :, None, :] + pts[..., None, :, :]
    expo = (
        -np.einsum("...ijk,kl,...ijl->...ij", d, triple.a, d)
        - 1j * np.einsum("...ijk,kl,...ijl->...ij", d, triple.b, s)
        - np.einsum("...ijk,kl,...ijl->...ij", s, triple.c, s)
    )
    return np.exp(expo)


# ----------------------------------------------------- exponent matrix forms


def triple_exponent_matrix(triple: GaussianTriple) -> np.ndarray:
    """Complex symmetric M with kernel = exp(-(x, y)^T M (x, y)).

    Variables are ordered x-block first.  The off-diagonal block carries the
    ``C - A`` symmetric part and the antisymmetric part of ``i B``.
    """
    a, b, c = triple.a, triple.b, triple.c
    s = 0.5 * (b + b.T)
    t = 0.5 * (b - b.T)
    n = triple.n
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    m[:n, :n] = a + c + 1j * s
    m[n:, n:] = a + c - 1j * s
    m[:n, n:] = (c - a) + 1j * t
    m[n:, :n] = (c - a) - 1j * t
    return m


def triple_from_exponent_matrix(m: np.ndarray, rtol: float = 1e-9) -> GaussianTriple:
    """Invert :func:`triple_exponent_matrix`; rejects non-kernel-shaped forms."""
    m = numerics.as_complex_symmetric(m, rtol=1e-7)
    if m.shape[0] % 2:
        raise ValueError("exponent matrix must have even dimension")
    n = m.shape[0] // 2
    mxx, myy, mxy = m[:n, :n], m[n:, n:], m[:n, n:]
    apc = 0.5 * (mxx + myy)
    s = (mxx - myy) / 2j
    cma = 0.5 * (mxy + mxy.T)
    t = 0.5 * (mxy - mxy.T) / 1j
    scale = max(1.0, float(np.max(np.abs(m))))
    resid = max(
        float(np.max(np.abs(apc.imag))),
        float(np.max(np.abs(s.imag))),
        float(np.max(np.abs(cma.imag))),
        float(np.max(np.abs(t.imag))),
    )
    if resid > rtol * scale:
        raise ValueError(
            f"exponent matrix is not of Gaussian-triple shape (residue {resid:.3e})"
        )
    a = 0.5 * (apc.real - cma.real)
    c = 0.5 * (apc.real + cma.real)
    b = s.real + t.real
    return GaussianTriple(a, b, c)


# ------------------------------------------------------------- phase space


def phase_space_form(triple: GaussianTriple) -> tuple[np.ndarray, float]:
    """Phase-space quadratic form G (2n x 2n, SPD) and its scalar prefactor.

    The kernel's phase-space transform is ``c_g * exp(-(x, p)^T G (x, p))``
    with ``c_g = 2^{-n} pi^{-n/2} det(A)^{-1/2}``, as produced by carrying
    out the defining Gaussian integral in closed form.
    """
    triple.require_kernel_valid()
    a, b, c = triple.a, triple.b, triple.c
    n = triple.n
    a_inv = np.linalg.inv(a)
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = 4.0 * c + b.T @ a_inv @ b
    g[:n, n:] = 0.5 * b.T @ a_inv
    g[n:, :n] = 0.5 * a_inv @ b
    g[n:, n:] = 0.25 * a_inv
    g = 0.5 * (g + g.T)
    det_a = float(np.linalg.det(a))
    c_g = 2.0 ** (-n) * np.pi ** (-n / 2.0) / np.sqrt(det_a)
    return g, c_g


def symplectic_form(n: int) -> np.ndarray:
    """The standard 2n x 2n symplectic matrix [[0, I], [-I, 0]]."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplectic_spectrum(g: np.ndarray) -> SymplecticSpectrum:
    """Williamson eigenvalues of a symmetric positive definite matrix.

    Computed as the paired singular values of the skew-symmetric matrix
    ``G^{1/2} Omega G^{1/2}``; the pairing is verified and a mismatch raises
    :class:`ConsistencyError` instead of returning a silent verdict.
    """
    g = numerics.as_real_symmetric(g)
    if g.shape[0] % 2:
        raise ValueError("phase-space matrix must have even dimension")
    n = g.shape[0] // 2
    if numerics.min_eigenvalue(g) <= 0.0:
        raise numerics.IndefiniteMatrixError("phase-space matrix must be positive definite")
    root = numerics.psd_sqrt(g)
    k = root @ symplectic_form(n) @ root
    k = 0.5 * (k - k.T)
    sv = np.linalg.svd(k, compute_uv=False)  # descending, paired
    mus = np.empty(n)
    for i in range(n):
        hi, lo = sv[2 * i], sv[2 * i + 1]
        if hi - lo > PAIR_RTOL * max(hi, 1e-300):
            raise ConsistencyError(
                f"singular values failed to pair: {hi!r} vs {lo!r} at slot {i}"
            )
        mus[i] = 0.5 * (hi + lo)
    return SymplecticSpectrum(mus)


def gaussian_positive(triple: GaussianTriple) -> GaussianPositivity:
    """Decide operator positivity of a Gaussian kernel via its spectrum."""
    g, _ = phase_space_form(triple)
    spectrum = symplectic_spectrum(g)
    return GaussianPositivity(spectrum.mu_max <= 1.0 + POSITIVITY_TOL, spectrum)


# ----------------------------------------------------------------- preorder


def shifted_triple(triple: GaussianTriple, delta: float) -> GaussianTriple:
    """Equivalent triple (A + delta I, B, C + delta I)."""
    eye = np.eye(triple.n)
    return GaussianTriple(triple.a + delta * eye, triple.b, triple.c + delta * eye)


def preorder_leq(
    g0: GaussianTriple,
    g1: GaussianTriple,
    r_shift: float = 0.0,
) -> tuple[bool, PreorderWitness]:
    """Decide whether positivity transfers from weights over ``g0`` to ``g1``.

    The relation holds iff the shifted difference triple
    ``(A1 - A0 + r I, B1 - B0, C1 - C0 + r I)`` is a positive Gaussian for
    some (equivalently, any admissible) ``r >= 0``.  ``r`` is chosen just
    large enough to make both shifted blocks positive definite, plus a unit
    margin; ``r_shift`` adds to it and must not change the verdict.
    """
    if g0.n != g1.n:
        raise ValueError("triples must have equal dimension")
    if r_shift < 0.0:
        raise ValueError("r_shift must be nonnegative")
    da = g1.a - g0.a
    db = g1.b - g0.b
    dc = g1.c - g0.c
    r = max(0.0, -numerics.min_eigenvalue(da), -numerics.min_eigenvalue(dc))
    r += 1.0 + r_shift
    eye = np.eye(g0.n)
    witness_triple = GaussianTriple(da + r * eye, db, dc + r * eye)
    verdict = gaussian_positive(witness_triple)
    witness = PreorderWitness(r, witness_triple, verdict.spectrum)
    if verdict.positive:
        # Necessary condition: the A - C gap cannot shrink along the preorder.
        gap = (g1.a - g1.c) - (g0.a - g0.c)
        if numerics.min_eigenvalue(gap) < -1e-10 * max(g0.scale(), g1.scale()):
            raise ConsistencyError(
                "preorder witness positive but the A - C gap decreased"
            )
    return verdict.positive, witness


def equiv(g0: GaussianTriple, g1: GaussianTriple, rtol: float = EQUIV_RTOL) -> bool:
    """Two-sided preorder equivalence: equal A - C and symmetric B difference."""
    if g0.n != g1.n:
        raise ValueError("triples must have equal dimension")
    scale = max(g0.scale(), g1.scale())
    gap = (g1.a - g1.c) - (g0.a - g0.c)
    db = g1.b - g0.b
    return (
        float(np.max(np.abs(gap))) <= rtol * scale
        and float(np.max(np.abs(db - db.T))) <= rtol * scale
    )


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
