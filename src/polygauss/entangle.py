"""Bipartitions, partial transpose, and NPT entanglement screening.

The partial transpose swaps the x and y coordinates of one partition block.
On the Gaussian exponent this is conjugation by the signature matrix
``Lambda`` (-1 on the transposed block): ``(A, B, C) -> (Lambda A Lambda,
Lambda B, C)``; on the polynomial it swaps the corresponding x/y exponents.
A state whose partial transpose fails to be positive is NPT and therefore
entangled; for Gaussian states with a 1-vs-rest split the converse holds as
well, so NPT exactly characterizes entanglement there.

Because a polynomial-Gaussian operator can only be positive when its
Gaussian part is positive, the cheap Gaussian spectral test applied to the
partially transposed triple certifies NPT for every polynomial factor at
once.  A passing Gaussian gate stays inconclusive for polynomial kernels and
is never reported as separability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import spectral
from .gaussian import (
    GaussianPositivity,
    GaussianTriple,
    PreorderWitness,
    gaussian_positive,
    preorder_leq,
)
from .kernels import PolyGaussianKernel

__all__ = [
    "Bipartition",
    "NptVerdict",
    "PropagationRecord",
    "entangled_fixture",
    "gaussian_separability",
    "npt_gate",
    "partial_transpose",
    "partial_transpose_triple",
    "preorder_npt_propagate",
]

TRACE_TOL = 1e-9


@dataclass(frozen=True)
class Bipartition:
    """Split of the coordinates {0, ..., n-1} into part1 and its complement."""

    n: int
    part1: tuple[int, ...]

    def __post_init__(self) -> None:
        part1 = tuple(sorted(set(int(i) for i in self.part1)))
        if not part1 or len(part1) >= self.n:
            raise ValueError("part1 must be a nonempty proper subset of the coordinates")
        if part1[0] < 0 or part1[-1] >= self.n:
            raise ValueError("part1 index out of range")
        object.__setattr__(self, "part1", part1)

    @property
    def d1(self) -> int:
        return len(self.part1)

    @property
    def d2(self) -> int:
        return self.n - self.d1

    def signature(self) -> np.ndarray:
        """Diagonal matrix with -1 on part1 and +1 elsewhere."""
        d = np.ones(self.n)
        d[list(self.part1)] = -1.0
        return np.diag(d)


def partial_transpose_triple(triple: GaussianTriple, b: Bipartition) -> GaussianTriple:
    if b.n != triple.n:
        raise ValueError("partition dimension mismatch")
    lam = b.signature()
    return GaussianTriple(lam @ triple.a @ lam, lam @ triple.b, triple.c)


def partial_transpose(kernel: PolyGaussianKernel, b: Bipartition) -> PolyGaussianKernel:
    """Swap x and y on part1; an involution that preserves the trace."""
    if b.n != kernel.n:
        raise ValueError("partition dimension mismatch")
    n = kernel.n
    var_map = list(range(2 * n))
    for i in b.part1:
        var_map[i], var_map[n + i] = n + i, i
    poly_t = kernel.poly.rename_vars(2 * n, var_map)
    return PolyGaussianKernel(poly_t, partial_transpose_triple(kernel.triple, b), kernel.norm)


@dataclass(frozen=True)
class NptVerdict:
    """Outcome of the NPT screen.

    ``certified`` means the partially transposed operator is provably not
    positive semidefinite, so the state is entangled.  ``inconclusive``
    covers every other outcome; for polynomial kernels a positive Gaussian
    gate proves nothing about separability.
    """

    certified: bool
    stage: str
    gaussian_verdict: GaussianPositivity
    sweep: Optional[spectral.SpectralReport] = None
    mercer: Optional[spectral.MercerCertificate] = None

    @property
    def verdict(self) -> str:
        return "npt_certified" if self.certified else "inconclusive"


def npt_gate(
    kernel: PolyGaussianKernel,
    b: Bipartition,
    escalate: bool = False,
    kmax: int = 5,
    trials: int = 200,
    points_per_trial: int = 20,
    seed: int = 0,
) -> NptVerdict:
    """Screen a density-operator kernel for NPT entanglement.

    The kernel is trace-normalized, partially transposed, and its Gaussian
    part tested spectrally; failure there certifies NPT for any polynomial
    factor.  With ``escalate=True`` an inconclusive Gaussian gate is followed
    by the e_k sweep and the Mercer search on the transposed kernel, either
    of which can still upgrade the verdict.
    """
    tr = spectral.moment(kernel, 1)
    if tr <= 0.0:
        raise ValueError("kernel is not a density-operator candidate (trace <= 0)")
    if abs(tr - 1.0) > TRACE_TOL:
        kernel = kernel.with_norm(kernel.norm / tr)
    transposed = partial_transpose(kernel, b)
    gv = gaussian_positive(transposed.triple)
    if not gv.positive:
        return NptVerdict(True, "gaussian_gate", gv)
    if not escalate:
        return NptVerdict(False, "gaussian_gate", gv)
    sweep = spectral.positivity_sweep(transposed, kmax)
    if sweep.certified_not_psd:
        return NptVerdict(True, "ek_sweep", gv, sweep=sweep)
    cert = spectral.mercer_search(
        transposed, trials=trials, points_per_trial=points_per_trial, seed=seed
    )
    if cert is not None:
        return NptVerdict(True, "mercer_search", gv, sweep=sweep, mercer=cert)
    return NptVerdict(False, "escalated", gv, sweep=sweep)


def gaussian_separability(triple: GaussianTriple, b: Bipartition) -> str:
    """Separability of a Gaussian state under a bipartition.

    For 1-vs-rest splits a positive partial transpose is equivalent to
    separability, so the answer is exact; for other splits positivity of the
    partial transpose is only necessary and the call reports
    ``"out_of_scope"``.
    """
    if b.n != triple.n:
        raise ValueError("partition dimension mismatch")
    state = gaussian_positive(triple)
    if not state.positive:
        raise ValueError("triple is not a Gaussian state (operator not positive)")
    if b.d1 != 1 and b.d2 != 1:
        return "out_of_scope"
    pt = gaussian_positive(partial_transpose_triple(triple, b))
    return "separable" if pt.positive else "entangled"


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


def entangled_fixture() -> GaussianTriple:
    """Frozen 1+1 entangled Gaussian state.

    Found by scanning symmetric couplings: the state spectrum is
    ``(sqrt(0.7), sqrt(0.3))`` and the partial transpose over either
    coordinate has spectrum ``(sqrt(2.1), sqrt(0.1))``, so the state is NPT
    with a comfortable margin.
    """
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = np.array([[0.6, 0.45], [0.45, 0.6]])
    return GaussianTriple(a, np.zeros((2, 2)), c)
