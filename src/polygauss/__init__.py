"""Positivity and NPT entanglement screening for polynomial-Gaussian integral operators.

A kernel ``norm * P(x, y) * exp(-(x-y)^T A (x-y) - i (x-y)^T B (x+y)
- (x+y)^T C (x+y))`` on ``R^n x R^n`` defines a self-adjoint trace-class
operator.  The package decides and bounds its positivity (symplectic
spectrum of the Gaussian part, odd-degree gates, Mercer point-set search,
trace-moment sweeps amplified along a preorder of Gaussian weights) and
screens bipartite density operators for NPT entanglement.
"""

from .gaussian import (
    GaussianPositivity,
    GaussianTriple,
    PreorderWitness,
    SymplecticSpectrum,
    equiv,
    gaussian_positive,
    phase_space_form,
    preorder_leq,
    symplectic_spectrum,
)
from .kernels import PolyGaussianKernel
from .poly import MultiPoly, odd_degree_gate
from .entangle import Bipartition, gaussian_separability, npt_gate, partial_transpose
from .spectral import (
    GammaFamily,
    delta_scan,
    elementary_symmetric,
    mercer_search,
    moment,
    nystrom_oracle,
    positivity_sweep,
    z_root,
)
from .wick import gaussian_integral, integrate_out, poly_gaussian_integral

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "GammaFamily",
    "GaussianPositivity",
    "GaussianTriple",
    "MultiPoly",
    "PolyGaussianKernel",
    "PreorderWitness",
    "SymplecticSpectrum",
    "delta_scan",
    "elementary_symmetric",
    "equiv",
    "gaussian_integral",
    "gaussian_positive",
    "gaussian_separability",
    "integrate_out",
    "mercer_search",
    "moment",
    "npt_gate",
    "nystrom_oracle",
    "odd_degree_gate",
    "partial_transpose",
    "phase_space_form",
    "poly_gaussian_integral",
    "positivity_sweep",
    "preorder_leq",
    "symplectic_spectrum",
    "z_root",
]
