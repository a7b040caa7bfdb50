import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate

from conftest import (
    elementary_symmetric_det,
    elementary_symmetric_from_eigenvalues,
    family_eks_pointwise,
    horner_coefficients,
    mercer_search_reference,
    random_kernel_valid_triple,
    random_kernel,
    random_self_adjoint_poly,
    z_root_eager,
)
from polygauss import spectral
from polygauss.entangle import entangled_fixture
from polygauss.families import (
    caldeira_kernel,
    kappa_gamma_family,
    kappa_gamma_kernel,
    kappa_gamma_norm,
)
from polygauss.gaussian import GaussianTriple, eval_gaussian_grid
from polygauss.kernels import PolyGaussianKernel
from polygauss.numerics import BracketError, IndefiniteMatrixError
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
    ek_oracle = elementary_symmetric_from_eigenvalues(oracle.eigenvalues, 5)
    assert np.max(np.abs(ek_oracle - report.eks)) < 1e-4


def test_moment_caps():
    k = kappa_gamma_kernel(1.0)
    with pytest.raises(ValueError):
        spectral.moment(k, 9)
    quartic = MultiPoly(2, {(2, 2): 1.0})
    quartic = PolyGaussianKernel(quartic, GaussianTriple.from_scalars(1.5, 1.0))
    with pytest.raises(ValueError):
        spectral.moment(quartic, 5)


def test_positivity_sweep_fails_fast_at_the_degree_cap(monkeypatch):
    quartic = MultiPoly(2, {(2, 2): 1.0})
    quartic = PolyGaussianKernel(quartic, GaussianTriple.from_scalars(1.5, 1.0))
    with pytest.raises(ValueError) as direct:
        spectral.moment(quartic, 5)
    calls = []
    moment = spectral.moment
    monkeypatch.setattr(spectral, "moment", lambda kernel, j: calls.append(j) or moment(kernel, j))
    for kmax in (5, 7):  # the message names the first order over the cap
        with pytest.raises(ValueError, match=f"^{re.escape(str(direct.value))}$"):
            spectral.positivity_sweep(quartic, kmax)
    with pytest.raises(ValueError, match="^moment order 9 exceeds the maximum 8$"):
        spectral.positivity_sweep(kappa_gamma_kernel(1.0), 9)
    assert calls == []
    spectral.positivity_sweep(quartic, 4)
    assert calls == [1, 2, 3, 4]


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


def _assert_same_certificate(got, ref):
    if ref is None:
        assert got is None
        return
    assert got is not None and got.trial == ref.trial
    assert np.array_equal(got.points, ref.points)
    assert np.array_equal(got.coeffs, ref.coeffs)
    assert got.value == ref.value and got.min_eigenvalue == ref.min_eigenvalue


def test_mercer_search_matches_trial_by_trial_reference():
    # kappa at gamma = 4.2 with 4 points certifies at trial 12, inside the
    # fourth block (trials 7..14); the budgets cut before, at and past it.
    k = kappa_gamma_kernel(4.2)
    for budget in (0, 1, 12, 13, 37, 200):
        got = spectral.mercer_search(k, trials=budget, points_per_trial=4, seed=0)
        ref = mercer_search_reference(k, trials=budget, points_per_trial=4, seed=0)
        _assert_same_certificate(got, ref)
        assert (got is None) == (budget <= 12)
    assert got.trial == 12
    cases = [
        # seed 3: trials 15 and 25 of the block 15..30 both certify, and 25
        # has the lower eigenvalue; the search must still report trial 15
        (kappa_gamma_kernel(4.2), 4, 3, 15),
        (kappa_gamma_kernel(6.5), 20, 0, 0),  # the first block of one trial
        (PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.0, 2.0)), 20, 1, 0),  # C > A
        # the rank-one product kernel is positive: no certificate
        (PolyGaussianKernel.pure_gaussian(GaussianTriple(np.eye(1), np.zeros((1, 1)), np.eye(1))), 20, 2, None),
    ]
    spectral._mercer_draws.cache_clear()
    for _ in range(2):  # fresh draws, then the cached read-only ones
        for kernel, points, seed, trial in cases:
            got = spectral.mercer_search(kernel, points_per_trial=points, seed=seed)
            _assert_same_certificate(got, mercer_search_reference(kernel, points_per_trial=points, seed=seed))
            assert (None if got is None else got.trial) == trial
    assert spectral._mercer_draws.cache_info().hits > 0
    assert not spectral._mercer_draws(0, 0, 1, 20, 1).flags.writeable


def test_mercer_search_without_screen_matches_reference(monkeypatch):
    # A stacked eigensolver failure leaves every trial of the block a
    # candidate for the per-trial test, in trial order.
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    k = kappa_gamma_kernel(4.2)
    got = spectral.mercer_search(k, points_per_trial=4, seed=3)
    _assert_same_certificate(got, mercer_search_reference(k, points_per_trial=4, seed=3))
    assert got.trial == 15


def test_mercer_search_without_cholesky_matches_reference(monkeypatch):
    # A block whose shifted Cholesky fails falls back to the eigvalsh screen;
    # with every factorisation failing, that screen alone must give the
    # trial-by-trial certificate.
    def fail(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    k = kappa_gamma_kernel(4.2)
    got = spectral.mercer_search(k, points_per_trial=4, seed=3)
    _assert_same_certificate(got, mercer_search_reference(k, points_per_trial=4, seed=3))
    assert got.trial == 15


def _spy_stacked_eigvalsh(monkeypatch) -> list:
    """Record the shape of every stacked ``np.linalg.eigvalsh`` call."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        if a.ndim == 3:
            shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def test_mercer_search_on_psd_kernels_never_runs_the_stacked_eigensolver(monkeypatch):
    # Every Gram matrix of a PSD kernel factors after the half-threshold
    # shift, the rank-one ones of an oscillator eigenstate included, so no
    # block reaches the stacked eigvalsh screen or the per-trial test.
    stacked, trials = _spy_stacked_eigvalsh(monkeypatch), []
    trial = spectral._mercer_trial
    monkeypatch.setattr(
        spectral, "_mercer_trial", lambda *args: trials.append(args[3]) or trial(*args)
    )
    psd = (caldeira_kernel(2, 1.3), PolyGaussianKernel.pure_gaussian(entangled_fixture()))
    for kernel in psd:
        assert spectral.mercer_search(kernel, trials=200) is None
    assert stacked == [] and trials == []


def test_mercer_screen_boundaries_are_half_the_certificate_threshold(monkeypatch):
    # Synthetic Gram stacks with one eigenvalue placed relative to
    # scale = max(|tr G|, max |G_ij|): at -0.4e-9 * scale the shifted
    # Cholesky clears the block, so eigvalsh never sees it; at -1.2e-9 * scale
    # (past the certificate threshold) the block goes to eigvalsh and the
    # trial to the per-trial test.
    rng = np.random.default_rng(8)
    k = 20
    unitary, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    placed = {4: -0.4e-9, 9: -1.2e-9}
    next_trial = [0]

    def synthetic(self, points):  # one Gram matrix per point cloud, trials in order
        out = []
        for _ in points:
            vals = np.ones(k)
            vals[-1] = placed.get(next_trial[0], 1.0) * (k - 1)  # scale = |tr G| ~ k - 1
            out.append((unitary * vals) @ unitary.conj().T)
            next_trial[0] += 1
        return np.array(out)

    stacked, trials = _spy_stacked_eigvalsh(monkeypatch), []
    monkeypatch.setattr(PolyGaussianKernel, "gram", synthetic)
    monkeypatch.setattr(spectral, "_mercer_trial", lambda *args: trials.append(args[3]))
    assert spectral.mercer_search(caldeira_kernel(0, 1.0), trials=16) is None
    assert stacked == [(8, k, k)] and trials == [9]


def test_mercer_search_keeps_a_non_finite_trial_a_candidate(monkeypatch):
    # A NaN in one Gram slice makes the Cholesky screen inconclusive for its
    # block (numpy's factorisation does not raise on NaN; the non-finite
    # pivot is what shows it), so the per-trial test still sees that trial.
    kernel = caldeira_kernel(1, 0.9)
    gram = PolyGaussianKernel.gram

    def poisoned(self, points):
        out = gram(self, points)
        if out.ndim == 3 and out.shape[0] == 8:  # the block of trials 7..14
            out[3, 2, 1] = np.nan
        return out

    seen = []
    monkeypatch.setattr(PolyGaussianKernel, "gram", poisoned)
    monkeypatch.setattr(spectral, "_mercer_trial", lambda *args: seen.append(args[3]))
    assert spectral.mercer_search(kernel, trials=30) is None
    assert 10 in seen

    clean = np.stack([np.eye(3, dtype=complex)] * 2)
    assert spectral._factors_with_shift(clean, np.zeros(2))
    for bad in (np.nan, np.inf):
        dirty = clean.copy()
        dirty[1, 2, 0] = dirty[1, 0, 2] = bad
        assert not spectral._factors_with_shift(dirty, np.zeros(2))
        dirty = clean.copy()
        dirty[1, 1, 1] = bad
        assert not spectral._factors_with_shift(dirty, np.zeros(2))


def test_stacked_grid_evaluators_match_per_slice_calls():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        # B with a nonzero symmetric part and, for n > 1, antisymmetric part
        upper = np.triu(np.ones((n, n)), 1)
        b = 0.7 * np.eye(n) + 0.4 * (upper - upper.T)
        triple = random_kernel_valid_triple(rng, n)
        triple = GaussianTriple(triple.a, b, triple.c)
        quartic = {(2,) + (0,) * (n - 1) + (2,) + (0,) * (n - 1): 1.0}
        poly = random_self_adjoint_poly(rng, n, terms=4, max_deg=2) + MultiPoly(2 * n, quartic)
        assert poly.degree() == 4
        kernel = PolyGaussianKernel(poly, triple)
        stack = rng.standard_normal((5, 7, n))
        for evaluate in (poly.eval_grid, lambda p: eval_gaussian_grid(triple, p), kernel.gram):
            stacked = evaluate(stack)
            assert stacked.shape == (5, 7, 7)
            for i in range(5):
                assert np.array_equal(stacked[i], evaluate(stack[i]))
            assert evaluate(stack[None, :2]).shape == (1, 2, 7, 7)
            flat = evaluate(stack[0])
            assert flat.shape == (7, 7) and flat.dtype == complex
            with pytest.raises(ValueError):
                evaluate(stack[0, :, :-1] if n > 1 else np.ones((7, 2)))
        for i, j in ((0, 0), (1, 4)):
            x, y = stack[0, i], stack[0, j]
            assert np.isclose(poly.eval_grid(stack[0])[i, j], poly.evaluate(x, y), rtol=1e-12)
            assert np.isclose(kernel.gram(stack[0])[i, j], kernel.evaluate(x, y), rtol=1e-12)
        with pytest.raises(ValueError):
            poly.eval_grid(stack[0, 0])
        with pytest.raises(ValueError):
            eval_gaussian_grid(triple, stack[0, 0])
        assert kernel.gram(stack[0, 0]).shape == (1, 1)  # one point, as np.atleast_2d reads it


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
    ek_oracle = elementary_symmetric_from_eigenvalues(oracle.eigenvalues, 4)
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


def _chain_prefactor_reference(poly: MultiPoly, n: int, j: int) -> MultiPoly:
    """The j renamed links multiplied in order, with no cache."""
    params = [j * n + p for p in range(poly.nvars - 2 * n)]
    nv = j * n + len(params)
    pref = None
    for i in range(j):
        var_map = [i * n + d for d in range(n)] + [(i + 1) % j * n + d for d in range(n)]
        link = poly.rename_vars(nv, var_map + params)
        pref = link if pref is None else pref * link
    return pref


def test_chain_links_matches_uncached_reference():
    kernel = random_kernel(np.random.default_rng(70), 2, terms=5, max_deg=2)
    for j in range(1, 6):
        ref = _chain_prefactor_reference(kernel.poly, 2, j)
        links = spectral.chain_links(kernel.poly, 2, j)
        assert list(links.terms.items()) == list(ref.terms.items())
    # A polynomial with the same terms in another order gives another
    # product: the order fixes the order of every sum.
    reordered = MultiPoly(4, dict(reversed(list(kernel.poly.terms.items()))))
    assert list(spectral.chain_links(reordered, 2, 3).terms.items()) == list(
        _chain_prefactor_reference(reordered, 2, 3).terms.items()
    )
    with pytest.raises(ValueError):
        spectral.chain_links(kernel.poly, 2, 0)


def test_chain_form_serves_the_cached_orbit_fold():
    spectral._chain_orbits.cache_clear()
    kernel = random_kernel(np.random.default_rng(71), 2, terms=5, max_deg=2)
    m2 = kernel.exponent_matrix()
    for j in range(1, 6):
        first = spectral.chain_form(kernel.poly, m2, j, kernel.norm)
        again = spectral.chain_form(kernel.poly, 2.0 * m2, j, kernel.norm)
        folded = _orbits_uncached(kernel.poly, 2, j)
        assert list(first.poly.terms.items()) == list(folded.terms.items())
        assert again.poly is first.poly  # a hit, served with its own quadratic form
        assert np.array_equal(again.quad, 2.0 * first.quad)
        links = _chain_prefactor_reference(kernel.poly, 2, j)
        full = spectral.chain_integrand(links, m2, j, kernel.norm)
        assert np.array_equal(first.quad, full.quad) and first.scale == full.scale
    assert spectral._chain_orbits.cache_info().hits == 5


def _full_chain_moment(kernel: PolyGaussianKernel, j: int) -> float:
    links = spectral.chain_links(kernel.poly, kernel.n, j)
    form = spectral.chain_integrand(links, kernel.exponent_matrix(), j, kernel.norm)
    return form.integrate(range(form.nvars)).real_scalar()


def _schur_degree4_kernel(rng: np.random.Generator, n: int) -> PolyGaussianKernel:
    """``q(x) conj(q(y))`` with q quadratic, over a B = 0 Gaussian."""
    q = MultiPoly(n, {
        tuple(int(e) for e in rng.multinomial(2, [1.0 / n] * n)): complex(*rng.normal(size=2))
        for _ in range(3)
    })
    q = q + MultiPoly.constant(n, 0.7)
    left = q.rename_vars(2 * n, range(n))
    right = q.conjugate().rename_vars(2 * n, range(n, 2 * n))
    return PolyGaussianKernel(left * right, random_kernel_valid_triple(rng, n, b_scale=0.0))


def test_folded_moment_matches_full_chain_integral():
    rng = np.random.default_rng(81)
    kernels = [caldeira_kernel(level, 1.3) for level in (0, 1, 2)]
    kernels += [kappa_gamma_kernel(1.0), kappa_gamma_kernel(4.5)]
    kernels += [_schur_degree4_kernel(rng, n) for n in (2, 3)]
    kernels += [random_kernel(rng, n, terms=4, max_deg=2) for n in (1, 2, 3)]
    assert any(np.any(k.triple.b != 0.0) for k in kernels)
    full_terms = folded_terms = 0
    for kernel in kernels:
        deg = kernel.poly.degree()
        for j in range(1, min(5, 16 // max(deg, 1)) + 1):
            full = _full_chain_moment(kernel, j)
            folded = spectral.moment(kernel, j)
            assert abs(folded - full) <= 1e-12 * abs(full), (kernel.n, deg, j)
            full_terms += len(spectral.chain_links(kernel.poly, kernel.n, j).terms)
            form = spectral.chain_form(kernel.poly, kernel.exponent_matrix(), j)
            folded_terms += len(form.poly.terms)
    assert folded_terms < full_terms  # the two routes integrate different terms


def _block_rotations(exps: tuple, width: int, n: int) -> list[tuple]:
    chain, params = exps[:width], exps[width:]
    return [chain[s:] + chain[:s] + params for s in range(0, width, n)]


def test_chain_orbits_fold_the_full_product_by_block_rotation():
    rng = np.random.default_rng(82)
    cases = [(random_kernel(rng, n, terms=4, max_deg=2).poly, n) for n in (1, 2, 3)]
    cases.append((kappa_gamma_family().poly_gamma, 1))  # a trailing parameter
    for poly, n in cases:
        items = tuple(poly.terms.items())
        types = tuple(map(type, poly.terms.values()))
        for j in range(1, 5):
            full = spectral.chain_links(poly, n, j)
            folded = spectral._chain_orbits(poly.nvars, items, types, n, j, mpmath.mp.prec)
            width = j * n
            assert folded.nvars == full.nvars
            for key in folded.terms:
                assert key == min(_block_rotations(key, width, n))
            sums: dict = {}
            for exps, coeff in full.terms.items():
                rep = min(_block_rotations(exps, width, n))
                sums[rep] = sums[rep] + coeff if rep in sums else coeff
            assert list(folded.terms.items()) == [(e, c) for e, c in sums.items() if c]
            if j == 1:
                assert folded.terms == full.terms
            if j > 1 and n > 1:
                assert len(folded.terms) < len(full.terms)


def _full_links(nvars, items, types, n, j, prec):
    """A stand-in for ``_chain_orbits`` that builds the unfolded j-link product."""
    return spectral.chain_links(MultiPoly._from_terms(nvars, dict(items), False), n, j)


def test_family_evaluator_matches_full_chain_build(monkeypatch):
    fam = kappa_gamma_family()
    gammas = np.linspace(0.0, 12.0, 13)
    for k in (3, 4, 5):
        for delta in (0.0, 250.0, 1e4, 1e5):
            folded = fam.ek_evaluator(k, delta)
            with monkeypatch.context() as m:
                m.setattr(spectral, "_chain_orbits", _full_links)
                full = fam.ek_evaluator(k, delta)
            for gamma in gammas:
                assert np.array_equal(folded(gamma), full(gamma)), (k, delta, gamma)


def test_family_evaluator_matches_pointwise_newton_route(monkeypatch):
    # The compiled evaluator (Newton's identities once, on the trace
    # polynomials, then exact Horner per gamma) against Newton's identities run
    # per gamma on the normalized trace values.  The terms that cancel in
    # e_k are of the size of e_1^k = 1, so both routes carry an absolute
    # error near 1e-100; e_5 at delta = 1e5 is about 1e-57 and keeps only
    # some 45 correct digits either way, so the 100-digit values are
    # compared on the scale e_1^k, and the returned floats bit for bit.  The
    # compiled values are exact ratios, read here at 100 digits.
    exact = []
    compiled = spectral._family_eks

    def recorded(coeffs, gamma):
        exact.append(compiled(coeffs, gamma))
        return exact[-1]

    monkeypatch.setattr(spectral, "_family_eks", recorded)
    fam = kappa_gamma_family()
    root = 2.0 + math.sqrt(5.5)  # the k = 3 threshold as delta -> infinity
    near = [root - 1e-6, np.nextafter(root, 0.0), root, np.nextafter(root, 20.0), root + 1e-6]
    gammas = list(np.linspace(0.0, 12.0, 13)) + near
    for k in (3, 4, 5):
        for delta in (0.0, 250.0, 1e4, 1e5):
            evaluator = fam.ek_evaluator(k, delta)
            reference = family_eks_pointwise(fam, k, delta)
            for gamma in gammas:
                exact.clear()
                got = evaluator(gamma)
                want = reference(gamma)
                assert np.array_equal(got, np.array([float(v) for v in want])), (k, delta, gamma)
                (ratios,) = exact
                assert ratios[0][0] == ratios[0][1] and want[0] == 1
                with mpmath.workdps(spectral.FAMILY_DPS):
                    for v, w in zip(map(_mp_ratio, ratios), want):
                        assert abs(v - w) <= mpmath.mpf("1e-90"), (k, delta, gamma)


def test_exact_family_build_matches_the_100_digit_reference_bit_for_bit():
    # The integer build against the 100-digit mpmath route it replaced,
    # on the 64-point zscan grid and around each (k, delta) root.
    fam = kappa_gamma_family()
    rng = np.random.default_rng(91)
    deltas = [0.0, 10.0, 50.0, 250.0, 1e4, 1e5] + list(rng.uniform(0.0, 1000.0, 3))
    grid = [float(g) for g in np.linspace(0.0, 20.0, 64)]
    for k in (3, 4, 5):
        for delta in deltas:
            evaluator = fam.ek_evaluator(k, delta)
            reference = family_eks_pointwise(fam, k, delta)
            root = spectral.z_root(fam, k, delta).gamma_root
            near = [root - 1e-6, np.nextafter(root, 0.0), root, np.nextafter(root, 20.0)]
            for gamma in grid + near + [root + 1e-6]:
                want = np.array([float(v) for v in reference(gamma)])
                assert np.array_equal(evaluator(gamma), want), (k, delta, gamma)


def test_exact_family_build_matches_the_reference_on_a_two_mode_family():
    # Dense A and C, so the chain blocks couple the two modes.
    rng = np.random.default_rng(94)
    a = rng.normal(size=(2, 2))
    c = rng.normal(size=(2, 2))
    triple = GaussianTriple(
        a @ a.T + 2.5 * np.eye(2), np.zeros((2, 2)), 0.3 * c @ c.T + 0.4 * np.eye(2)
    )
    terms = {(0, 0, 0, 0, 0): 1.0, (1, 0, 1, 0, 1): 0.75, (0, 1, 0, 1, 0): -0.5,
             (2, 0, 0, 0, 1): 0.25, (0, 0, 2, 0, 1): 0.25, (1, 1, 0, 0, 0): 0.125,
             (0, 0, 1, 1, 0): 0.125}
    fam = spectral.GammaFamily(MultiPoly(5, terms), triple)
    for k, delta in ((2, 0.0), (3, 3.7), (3, 250.0)):
        evaluator = fam.ek_evaluator(k, delta)
        reference = family_eks_pointwise(fam, k, delta)
        for gamma in np.linspace(-0.5, 3.0, 8):
            want = np.array([float(v) for v in reference(gamma)])
            assert np.array_equal(evaluator(gamma), want), (k, delta, gamma)


def _recorded_traces(monkeypatch, fam, k, delta, orbits=None):
    """The exact ``(trace, det, order)`` of every order of one family build."""
    parts = []
    integrate = spectral.integrate_integer

    def recorded(form, internal, den):
        parts.append(integrate(form, internal, den))
        return parts[-1]

    with monkeypatch.context() as m:
        m.setattr(spectral, "integrate_integer", recorded)
        if orbits is not None:
            m.setattr(spectral, "_chain_orbits", orbits)
        fam.ek_evaluator(k, delta)
    return [(list(p.terms.items()), det, order) for p, det, order in parts]


def test_folded_and_unfolded_chains_give_identical_exact_traces(monkeypatch):
    fam = kappa_gamma_family()
    for k, delta in ((3, 0.0), (4, 37.125), (5, 1e5), (5, float(np.pi))):
        folded = _recorded_traces(monkeypatch, fam, k, delta)
        full = _recorded_traces(monkeypatch, fam, k, delta, _full_links)
        assert len(folded) == k and folded == full, (k, delta)
        assert all(type(c) is int for terms, _, _ in folded for _, c in terms)


def test_family_trace_scales_are_rounded_once_to_family_precision():
    # r_j = floor(2^(j b) rho_j / (2 d_j)^o_j) for one common b: against
    # 200-digit values, r_j / x_j = 2^(j b) (r_1 / x_1)^j up to the rounding.
    rng = np.random.default_rng(92)
    bits = math.ceil(spectral.FAMILY_DPS * math.log2(10))
    for _ in range(20):
        kmax = int(rng.integers(1, 7))
        dets = [int(v) for v in rng.integers(1, 2**62, size=kmax)]
        dets = [d << int(rng.integers(0, 200)) for d in dets]
        orders = [int(v) for v in rng.integers(0, 9, size=kmax)]
        scales = spectral._trace_scales(dets, orders)
        with mpmath.workdps(200):
            exact = [mpmath.sqrt(mpmath.mpf(dets[0]) ** j / dets[j - 1])
                     / (2 * mpmath.mpf(dets[j - 1])) ** orders[j - 1]
                     for j in range(1, kmax + 1)]
            unit = scales[0] / exact[0]  # 2^b up to the rounding of r_1
            b = round(mpmath.log(unit, 2))
            for j, (r, x) in enumerate(zip(scales, exact), 1):
                assert r >= 2 ** (bits + 1), j
                err = abs(r - x * mpmath.mpf(2) ** (j * b)) / (x * mpmath.mpf(2) ** (j * b))
                assert err < mpmath.mpf(10) ** -spectral.FAMILY_DPS, j


def _int_value(p: MultiPoly, x: int) -> int:
    return sum(c * x ** e for (e,), c in p.terms.items())


def test_factorial_eks_are_newtons_identities_without_division():
    rng = np.random.default_rng(93)
    for _ in range(10):
        kmax = int(rng.integers(1, 7))
        traces = [
            MultiPoly._from_terms(1, {
                (d,): int(rng.integers(-10**18, 10**18)) * 10**40 + 1 for d in range(j + 1)
            })
            for j in range(1, kmax + 1)
        ]
        got = spectral._factorial_eks(traces)
        assert all(type(c) is int for f in got for c in f.terms.values())
        for x in (-3, 0, 2, 7):
            values = [Fraction(_int_value(t, x)) for t in traces]
            want = spectral.elementary_symmetric(values)
            for k, (f, e) in enumerate(zip(got, want), 1):
                assert Fraction(_int_value(f, x), math.factorial(k)) == e, (k, x)


def test_family_evaluator_rejects_a_chain_block_that_is_not_positive_definite():
    fam = kappa_gamma_family()  # (A, C) = (3/2, 1)
    for delta in (-1.0, -1.2, -2.0):
        with pytest.raises(IndefiniteMatrixError):
            fam.ek_evaluator(3, delta)
    assert fam.ek_evaluator(3, -0.999)(1.0)[0] == 1.0
    # A + delta < 0 < C + delta: the one-point block 4 (C + delta) is
    # positive, the two-point chain block is not.
    other = spectral.GammaFamily(fam.poly_gamma, GaussianTriple.from_scalars(0.5, 1.0))
    assert other.ek_evaluator(1, -0.7)(1.0)[0] == 1.0
    with pytest.raises(IndefiniteMatrixError):
        other.ek_evaluator(3, -0.7)


def _mp_ratio(ratio: tuple[int, int]) -> mpmath.mpf:
    num, den = ratio
    return mpmath.mpf(num) / den


def test_exact_horner_matches_pointwise_polynomial_values():
    with mpmath.workdps(spectral.FAMILY_DPS):
        third = mpmath.mpf(1) / 3
        polys = [
            MultiPoly(1, {(0,): 1 + third, (1,): mpmath.mpf(2)}),
            # a zero linear coefficient and a tiny one between large ones
            MultiPoly(1, {(0,): -third, (2,): mpmath.mpf("1e-30"), (3,): mpmath.mpf(7)}),
            MultiPoly.zero(1),
        ]
        coeffs = [horner_coefficients(p) for p in polys]
        for gamma in (0.0, -0.5, 0.1, 2.75, 1e5):
            got = [_mp_ratio(v) for v in spectral._family_eks(coeffs, gamma)]
            g = (mpmath.mpf(gamma),)
            t = polys[0](g)
            for k, (p, v) in enumerate(zip(polys, got), 1):
                ref = p(g) / t**k
                assert abs(v - ref) <= mpmath.mpf("1e-95") * abs(ref), (k, gamma)
        with pytest.raises(ValueError, match="non-positive trace"):
            spectral._family_eks(coeffs, -1.0)


def _exact(c) -> Fraction:
    """An mpmath binary number as an exact fraction (``man_exp`` holds |mantissa|)."""
    man, exp = c.man_exp if c else (0, 0)
    return (-1 if c < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def test_family_eks_are_exact_ratios_rounded_once():
    with mpmath.workdps(spectral.FAMILY_DPS):
        third = mpmath.mpf(1) / 3
        polys = [
            MultiPoly(1, {(0,): 3 + third, (1,): mpmath.mpf(2)}),
            MultiPoly(1, {(0,): -third, (2,): mpmath.mpf("1e-30"), (3,): mpmath.mpf(7)}),
            MultiPoly.zero(1),
            MultiPoly(1, {(1,): mpmath.mpf(-5) / 7, (4,): mpmath.mpf("1e-40")}),
        ]
        coeffs = [horner_coefficients(p) for p in polys]
    for gamma in (0.0, -0.5, -1.25, 0.1, 2.75, 1e5, 2.0**-60):
        g = Fraction(gamma)
        values = [sum(_exact(c) * g ** e[0] for e, c in p.terms.items()) for p in polys]
        ratios = spectral._family_eks(coeffs, gamma)
        for k, ((num, den), value) in enumerate(zip(ratios, values), 1):
            assert den > 0
            assert Fraction(num, den) == value / values[0] ** k, (k, gamma)
            assert spectral._ratio_to_float(num, den) == float(Fraction(num, den)), (k, gamma)
    assert spectral._family_eks(coeffs, 0.0)[2][0] == 0


def test_family_evaluator_returns_the_exact_ratios_correctly_rounded(monkeypatch):
    exact = []
    compiled = spectral._family_eks

    def recorded(coeffs, gamma):
        exact.append(compiled(coeffs, gamma))
        return exact[-1]

    monkeypatch.setattr(spectral, "_family_eks", recorded)
    fam = kappa_gamma_family()
    for k, delta in ((3, 0.0), (5, 250.0), (4, 1e5)):
        evaluator = fam.ek_evaluator(k, delta)
        for gamma in (-1.5, 0.0, 4.3, 12.0, 1e5):
            exact.clear()
            got = evaluator(gamma)
            want = [float(Fraction(num, den)) for num, den in exact[0]]
            assert got.dtype == np.float64 and list(got) == want, (k, delta, gamma)


def test_ratio_to_float_gives_signed_infinity_and_zero_beyond_the_float_range():
    huge = 10**400
    assert spectral._ratio_to_float(huge, 3) == math.inf
    assert spectral._ratio_to_float(-huge, 3) == -math.inf
    assert spectral._ratio_to_float(1, huge) == 0.0
    tiny = spectral._ratio_to_float(-1, huge)
    assert tiny == 0.0 and math.copysign(1.0, tiny) == -1.0
    assert spectral._ratio_to_float(3, 10**320) == float(Fraction(3, 10**320)) > 0.0


class _CountingFamily:
    """A family whose evaluator counts its calls; ``e_k`` comes from ``fn``."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def ek_evaluator(self, kmax, delta):
        def eks_at(gamma):
            self.calls += 1
            return np.array([1.0] * (kmax - 1) + [self.fn(gamma)])

        return eks_at


def test_lazy_root_scan_matches_the_eager_scan_with_fewer_evaluations():
    fam = kappa_gamma_family()
    for k, delta in ((3, 0.0), (4, 10.0), (5, 250.0), (3, 1e4)):
        evaluator = fam.ek_evaluator(k, delta)
        lazy, eager = (_CountingFamily(lambda g: evaluator(g)[k - 1]) for _ in range(2))
        got = spectral.z_root(lazy, k, delta)
        assert got == z_root_eager(eager, k, delta), (k, delta)
        assert got == spectral.z_root(fam, k, delta)
        assert lazy.calls < eager.calls, (k, delta)


def test_lazy_root_scan_keeps_the_exact_zero_and_the_bracket_error():
    # On linspace(0, 20, 5) = 0, 5, 10, 15, 20: an exact zero on the first
    # point is the root; a zero on a later point ends a bracket; a NaN is a
    # sign change; no sign change on the grid raises.
    cases = [
        lambda g: g,
        lambda g: g - 5.0,
        lambda g: g - 20.0,
        lambda g: math.nan if g > 12.0 else 1.0,
        lambda g: g - 25.0,
    ]
    for fn in cases:
        lazy, eager = _CountingFamily(fn), _CountingFamily(fn)
        try:
            want = z_root_eager(eager, 3, 0.0, samples=5)
        except BracketError as exc:
            with pytest.raises(BracketError, match=re.escape(str(exc))):
                spectral.z_root(lazy, 3, 0.0, samples=5)
        else:
            assert spectral.z_root(lazy, 3, 0.0, samples=5) == want
        assert lazy.calls <= eager.calls
    spy = _CountingFamily(lambda g: g)
    assert spectral.z_root(spy, 3, 0.0, samples=5) == spectral.ZRootResult(3, 0.0, 0.0, (0.0, 0.0))
    assert spy.calls == 1
    spy = _CountingFamily(lambda g: g - 5.0)
    assert spectral.z_root(spy, 3, 0.0, samples=5) == spectral.ZRootResult(3, 0.0, 5.0, (0.0, 5.0))
    assert spy.calls == 2  # two grid points; the bisection reuses their values


def test_family_evaluator_rejects_non_positive_trace():
    # The raw trace is proportional to 2 + 2 delta + gamma.
    evaluator = kappa_gamma_family().ek_evaluator(3, 0.0)
    assert evaluator(-1.5)[0] == 1.0
    with pytest.raises(ValueError, match="non-positive trace"):
        evaluator(-2.5)


def _orbit_key(poly: MultiPoly, n: int, j: int) -> tuple:
    terms = poly.terms
    return poly.nvars, tuple(terms.items()), tuple(map(type, terms.values())), n, j, mpmath.mp.prec


def _orbits(poly: MultiPoly, n: int, j: int) -> MultiPoly:
    return spectral._chain_orbits(*_orbit_key(poly, n, j))


def _orbits_uncached(poly: MultiPoly, n: int, j: int) -> MultiPoly:
    return spectral._chain_orbits.__wrapped__(*_orbit_key(poly, n, j))


def test_chain_orbits_cache_keys_on_types_and_precision():
    spectral._chain_orbits.cache_clear()
    terms = {(0, 0): 1.5, (1, 1): -2.0, (2, 0): 0.25, (0, 2): 0.25}
    folded = _orbits(MultiPoly(2, terms), 1, 3)
    assert all(type(c) is complex for c in folded.terms.values())
    mp_folded = _orbits(MultiPoly(2, {e: mpmath.mpf(c) for e, c in terms.items()}), 1, 3)
    assert mp_folded is not folded
    assert all(isinstance(c, mpmath.mpf) for c in mp_folded.terms.values())

    with mpmath.workdps(100):
        poly = MultiPoly(2, {(0, 0): mpmath.mpf(1) / 3, (1, 1): mpmath.mpf(2) / 7})
    built = {}
    for dps in (15, 100, 15):
        with mpmath.workdps(dps):
            folded = _orbits(poly, 1, 4)
            ref = _orbits_uncached(poly, 1, 4)
        assert list(folded.terms.items()) == list(ref.terms.items())
        built.setdefault(dps, folded)
    assert built[15].terms != built[100].terms
    assert built[15] is _orbits(poly, 1, 4)  # a hit
    assert spectral._chain_orbits.cache_info().maxsize == spectral.CHAIN_CACHE_SIZE


# The three tests below check the chain cache through ``chain_form``, the
# entry point that the sweep and the family evaluator call.


def test_chain_prefactor_cache_keeps_number_types_apart():
    spectral._chain_orbits.cache_clear()
    terms = {(0, 0): 1.5, (1, 1): -2.0, (2, 0): 0.25, (0, 2): 0.25}
    m2 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    float_form = spectral.chain_form(MultiPoly(2, terms), m2, 3)
    assert all(type(c) is complex for c in float_form.poly.terms.values())
    # Same values at the same precision: only the coefficient types differ.
    mp_poly = MultiPoly(2, {e: mpmath.mpf(c) for e, c in terms.items()})
    mp_form = spectral.chain_form(mp_poly, np.array(m2.tolist(), dtype=object), 3)
    assert mp_form.poly is not float_form.poly
    assert all(isinstance(c, mpmath.mpf) for c in mp_form.poly.terms.values())


def test_chain_prefactor_cache_keys_on_precision():
    spectral._chain_orbits.cache_clear()
    m2 = np.array([[2.0, -1.0], [-1.0, 2.0]], dtype=object)
    with mpmath.workdps(100):
        poly = MultiPoly(2, {(0, 0): mpmath.mpf(1) / 3, (1, 1): mpmath.mpf(2) / 7})
    built = {}
    for dps in (15, 100, 15):
        with mpmath.workdps(dps):
            form = spectral.chain_form(poly, m2, 4)
            ref = _orbits_uncached(poly, 1, 4)
        assert list(form.poly.terms.items()) == list(ref.terms.items())
        built.setdefault(dps, form.poly)
    assert built[15].terms != built[100].terms  # the precision changes the products


def test_chain_prefactor_cache_is_bounded():
    spectral._chain_orbits.cache_clear()
    m2 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    for c in range(2 * spectral.CHAIN_CACHE_SIZE):
        spectral.chain_form(MultiPoly(2, {(0, 0): 1.0, (1, 1): 0.1 * (c + 1)}), m2, 2)
    info = spectral._chain_orbits.cache_info()
    assert info.maxsize == spectral.CHAIN_CACHE_SIZE
    assert info.currsize == spectral.CHAIN_CACHE_SIZE
