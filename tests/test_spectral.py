import math

import numpy as np
import pytest
import scipy.integrate

from conftest import elementary_symmetric_det, random_kernel
from polygauss import spectral
from polygauss.families import kappa_gamma_family, kappa_gamma_kernel, kappa_gamma_norm
from polygauss.gaussian import GaussianTriple
from polygauss.kernels import PolyGaussianKernel
from polygauss.numerics import BracketError
from polygauss.poly import MultiPoly


def test_moment_trace_of_pure_gaussian():
    for c in (0.5, 1.0, 2.0):
        k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.5, c))
        assert abs(spectral.moment(k, 1) - math.sqrt(math.pi / (4 * c))) < 1e-12


def test_moment_second_power_quadrature():
    a, c = 1.5, 1.0
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(a, c))
    val = spectral.moment(k, 2)
    assert abs(val - math.pi / (4 * math.sqrt(a * c))) < 1e-12
    ref, _ = scipy.integrate.dblquad(
        lambda y, x: math.exp(-2 * a * (x - y) ** 2 - 2 * c * (x + y) ** 2),
        -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-11,
    )
    assert abs(val - ref) < 1e-8


def test_family_members_have_unit_trace():
    for gamma in (0.0, 1.0, 4.0, 7.0):
        for delta in (0.0, 10.0, 250.0):
            k = kappa_gamma_kernel(gamma, delta)
            assert abs(spectral.moment(k, 1) - 1.0) < 1e-9


def test_family_engine_norm_matches_closed_form():
    fam = kappa_gamma_family()
    for gamma, delta in [(1.0, 0.0), (4.0, 10.0), (7.0, 50.0)]:
        k = fam.kernel(gamma, delta)
        assert abs(k.norm - kappa_gamma_norm(gamma, delta)) < 1e-12 * k.norm


def test_elementary_symmetric_examples():
    lam = 2.0
    e = spectral.elementary_symmetric([lam, lam**2])
    assert np.allclose(e, [lam, 0.0])
    e = spectral.elementary_symmetric([3.0, 5.0, 9.0])  # eigenvalues 1 and 2
    assert np.allclose(e, [3.0, 2.0, 0.0])


def test_elementary_symmetric_geometric_spectrum():
    q = 1.0 / 3.0
    lams = [(1 - q) * q**i for i in range(31)]
    m = [sum(l**j for l in lams) for j in range(1, 4)]
    e = spectral.elementary_symmetric(m)
    direct_e2 = (sum(lams) ** 2 - sum(l * l for l in lams)) / 2.0
    assert abs(e[1] - direct_e2) < 1e-12


def test_newton_matches_determinant_formulation():
    rng = np.random.default_rng(50)
    for _ in range(20):
        m = rng.normal(size=6)
        e1 = spectral.elementary_symmetric(m)
        e2 = elementary_symmetric_det(m)
        assert np.max(np.abs(e1 - e2)) < 1e-10 * max(1.0, np.max(np.abs(e1)))


def test_positivity_sweep_certifies_above_threshold():
    report = spectral.positivity_sweep(kappa_gamma_kernel(7.0), 3)
    assert report.certified_not_psd and report.first_negative == 3
    assert "not_psd" in report.verdict


def test_positivity_sweep_consistent_at_gamma_one():
    report = spectral.positivity_sweep(kappa_gamma_kernel(1.0), 5)
    assert not report.certified_not_psd
    assert np.all(report.eks > 0.0)
    assert "consistent_up_to(5)" == report.verdict


def test_positivity_sweep_pure_gaussian_all_positive():
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.5, 1.0))
    report = spectral.positivity_sweep(k, 5)
    assert np.all(report.eks > 0.0)
    # Oracle: the known geometric eigenvalue structure from the grid solver.
    oracle = spectral.nystrom_oracle(k, grid_points=240, box_halfwidth=6.0)
    ek_oracle = spectral.elementary_symmetric_from_eigenvalues(oracle.eigenvalues, 5)
    assert np.max(np.abs(ek_oracle - report.eks)) < 1e-4


def test_moment_caps():
    k = kappa_gamma_kernel(1.0)
    with pytest.raises(ValueError):
        spectral.moment(k, 9)
    with pytest.raises(ValueError):
        spectral.moment(k, 5, degree_cap=8)


def test_z_root_table_rows():
    fam = kappa_gamma_family()
    for k, delta, expect in [(3, 0.0, 6.10781), (3, 250.0, 4.34880), (5, 10.0, 4.05059)]:
        r = spectral.z_root(fam, k, delta)
        assert abs(r.gamma_root - expect) < 1e-3
        assert r.bracket[0] <= r.gamma_root <= r.bracket[1]


def test_z_root_no_bracket_is_reported():
    fam = kappa_gamma_family()
    with pytest.raises(BracketError):
        spectral.z_root(fam, 3, 0.0, gamma_range=(0.0, 2.0))


def test_delta_scan_decreasing_and_equivalent():
    fam = kappa_gamma_family()
    scan = spectral.delta_scan(fam, 3, [0.0, 10.0, 50.0, 250.0])
    roots = [r.gamma_root for r in scan.results]
    assert np.allclose(roots, [6.10781, 4.43150, 4.36304, 4.34880], atol=1e-3)
    assert scan.monotone_decreasing
    assert abs(scan.best.gamma_root - 4.34880) < 1e-3 and scan.best.delta == 250.0


def test_delta_scan_infinite_limit():
    fam = kappa_gamma_family()
    r3 = spectral.z_root(fam, 3, math.inf)
    assert abs(r3.gamma_root - (2.0 + math.sqrt(5.5))) < 5e-3
    r5 = spectral.z_root(fam, 5, math.inf)
    assert abs(r5.gamma_root - 4.03924) < 5e-3


def test_mercer_search_finds_violation_when_gaussian_fails():
    # C > A operators are never positive, and the finite check sees it.
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.0, 2.0))
    cert = spectral.mercer_search(k, trials=200, seed=1)
    assert cert is not None
    assert cert.value < 0.0
    recheck = spectral.verify_mercer_certificate(k, cert.points, cert.coeffs)
    assert abs(recheck - cert.value) < 1e-10 * max(1.0, abs(cert.value))


def test_mercer_search_product_kernel_never_certifies():
    # E(x) E*(y) kernels are rank one and positive; no cloud can fail.
    k = PolyGaussianKernel.pure_gaussian(
        GaussianTriple(np.eye(1), np.zeros((1, 1)), np.eye(1))
    )
    assert spectral.mercer_search(k, trials=60, seed=2) is None


def test_mercer_search_non_universal_polynomial():
    # x^3 y + x y^3 over the unit product Gaussian is not positive.
    p = MultiPoly(2, {(3, 1): 1.0, (1, 3): 1.0})
    k = PolyGaussianKernel(p, GaussianTriple(np.eye(1), np.zeros((1, 1)), np.eye(1)))
    cert = spectral.mercer_search(k, trials=200, seed=3)
    assert cert is not None and cert.value < 0.0


def test_mercer_search_deterministic():
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.0, 1.7))
    c1 = spectral.mercer_search(k, trials=50, seed=7)
    c2 = spectral.mercer_search(k, trials=50, seed=7)
    assert c1 is not None and c2 is not None
    assert c1.trial == c2.trial and np.array_equal(c1.points, c2.points)


def test_nystrom_trace_example():
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.5, 1.0))
    res = spectral.nystrom_oracle(k, grid_points=200, box_halfwidth=6.0)
    assert abs(res.trace_reference - math.sqrt(math.pi / 4.0)) < 1e-12
    assert abs(res.trace_estimate - res.trace_reference) < 1e-6
    assert not res.coarse


def test_nystrom_flags_coarse_grid():
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.5, 1.0))
    res = spectral.nystrom_oracle(k, grid_points=5, box_halfwidth=40.0)
    assert res.coarse


def test_nystrom_ek_cross_validation():
    k = kappa_gamma_kernel(1.0)
    report = spectral.positivity_sweep(k, 4)
    oracle = spectral.nystrom_oracle(k, grid_points=260, box_halfwidth=6.5)
    ek_oracle = spectral.elementary_symmetric_from_eigenvalues(oracle.eigenvalues, 4)
    assert np.max(np.abs(ek_oracle - report.eks)) < 1e-3


def test_nystrom_sees_negative_eigenvalue_for_non_positive_kernel():
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.0, 2.0))
    res = spectral.nystrom_oracle(k, grid_points=200, box_halfwidth=5.0)
    assert res.eigenvalues[-1] < -1e-4


def test_moment_vs_nystrom_power_sums():
    rng = np.random.default_rng(51)
    for b_scale in (0.0, 1.0):
        for _ in range(3):
            k = random_kernel(rng, 1, terms=3, max_deg=2, b_scale=b_scale)
            res = spectral.nystrom_oracle(k, grid_points=260, box_halfwidth=7.0)
            for j in range(1, 5):
                engine = spectral.moment(k, j)
                grid = float(np.sum(res.eigenvalues**j))
                assert abs(engine - grid) <= 1e-3 * max(1.0, abs(engine))


def test_family_evaluator_matches_float_sweep():
    # Two independent moment pipelines (float64 chains vs the high-precision
    # family profile) must agree where doubles are adequate.
    fam = kappa_gamma_family()
    for gamma, delta in [(1.0, 0.0), (5.5, 0.0), (4.5, 10.0)]:
        eks_mp = fam.ek_evaluator(4, delta)(gamma)
        report = spectral.positivity_sweep(fam.kernel(gamma, delta), 4)
        assert np.max(np.abs(eks_mp - report.eks)) < 1e-10 * max(1.0, np.max(np.abs(report.eks)))
