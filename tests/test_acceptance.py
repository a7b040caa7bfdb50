"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines (they are also emitted into the captured output otherwise).
"""

import itertools
import math
import time

import numpy as np
import scipy.integrate

from conftest import (
    elementary_symmetric_det,
    elementary_symmetric_from_eigenvalues,
    gauss_hermite_oracle,
    random_kernel,
)
from polygauss import entangle, gaussian, spectral, wick
from polygauss.cli import main
from polygauss.entangle import Bipartition, entangled_fixture
from polygauss.families import caldeira_kernel, kappa_gamma_family, kappa_gamma_kernel
from polygauss.gaussian import GaussianTriple
from polygauss.kernels import PolyGaussianKernel
from polygauss.numerics import bracket_root, min_eigenvalue
from polygauss.poly import MultiPoly, odd_degree_gate


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_table(tmp_path, capsys):
    targets = {
        (3, 0.0): 6.10781, (3, 10.0): 4.43150, (3, 50.0): 4.36304, (3, 250.0): 4.34880,
        (4, 0.0): 5.07931, (4, 250.0): 4.34708,
        (5, 0.0): 4.25293, (5, 250.0): 4.03973,
    }
    worst = 0.0
    t_start = time.perf_counter()
    timings = {}
    for k in (3, 4, 5):
        deltas = sorted({d for (kk, d) in targets if kk == k})
        out = tmp_path / f"scan{k}.csv"
        t0 = time.perf_counter()
        rc = main(["zscan", "--k", str(k), "--deltas", ",".join(str(d) for d in deltas),
                   "--format", "csv", "--out", str(out)])
        timings[k] = time.perf_counter() - t0
        capsys.readouterr()
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        for row in rows:
            key = (int(row[0]), float(row[1]))
            err = abs(float(row[2]) - targets[key])
            worst = max(worst, err)
    total = time.perf_counter() - t_start
    ok = worst < 1e-3 and timings[3] + timings[4] < 60.0 and timings[5] < 600.0
    _report(1, ok, f"table max err {worst:.2e}; k=3,4 in {timings[3] + timings[4]:.1f}s, "
                   f"k=5 in {timings[5]:.1f}s (total {total:.1f}s)")


def test_criterion_02_limit_values():
    fam = kappa_gamma_family()
    # Exact limit thresholds, encoded as root-finding fixtures.
    z34_limit = bracket_root(lambda g: g**3 - 2.5 * g**2 - 7.5 * g - 2.25, 3.0, 5.0, 1e-12)
    assert abs(z34_limit - (2.0 + math.sqrt(5.5))) < 1e-9
    z5_limit = bracket_root(lambda g: 16 * g**3 - 34 * g**2 - 120 * g - 15, 3.0, 5.0, 1e-12)
    errs = []
    for k, limit in ((3, z34_limit), (4, z34_limit), (5, z5_limit)):
        r = spectral.z_root(fam, k, 1.0e4)
        errs.append(abs(r.gamma_root - limit))
    ok = max(errs) < 5e-3
    _report(2, ok, f"limit roots at shift 1e4 within {max(errs):.2e} of exact values "
                   f"({z34_limit:.6f}, {z5_limit:.6f})")


def test_criterion_03_one_dimensional_gaussian_rule():
    rng = np.random.default_rng(1003)
    disagreements = 0
    checked = 0
    for _ in range(1000):
        a = float(rng.uniform(0.02, 4.0))
        c = float(rng.uniform(0.02, 4.0))
        b = float(rng.normal(scale=2.0))
        if abs(a - c) <= 1e-10 * max(a, c):
            continue  # boundary band excluded by the criterion
        checked += 1
        verdict = gaussian.gaussian_positive(GaussianTriple.from_scalars(a, c, b))
        if verdict.positive != (a >= c):
            disagreements += 1
    ok = disagreements == 0 and checked >= 990
    _report(3, ok, f"{checked} random 1-D triples, {disagreements} disagreements with A >= C rule")


def test_criterion_04_gaussian_gate_implies_mercer_violation():
    rng = np.random.default_rng(1004)
    shapes = [
        MultiPoly.constant(2, 1.0),
        MultiPoly(2, {(1, 1): 1.0}),
        MultiPoly(2, {(1, 1): 1.0, (0, 0): 1.0}),
        MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0, (0, 0): 0.5}),
        MultiPoly(2, {(2, 2): 1.0, (0, 0): 1.0}),
    ]
    failures = []
    for i in range(50):
        a = float(rng.uniform(0.2, 1.5))
        c = a * float(rng.uniform(1.05, 2.5))  # C > A: Gaussian part not positive
        triple = GaussianTriple.from_scalars(a, c)
        assert not gaussian.gaussian_positive(triple).positive
        for j, shape in enumerate(shapes):
            kernel = PolyGaussianKernel(shape, triple)
            cert = spectral.mercer_search(kernel, trials=200, points_per_trial=16, seed=i)
            if cert is None:
                failures.append((i, j))
            else:
                recheck = spectral.verify_mercer_certificate(kernel, cert.points, cert.coeffs)
                if not recheck < 0.0:
                    failures.append((i, j))
    ok = not failures
    _report(4, ok, f"250 seeded non-positive kernels, violations found and re-verified "
                   f"({len(failures)} misses)")


def test_criterion_05_odd_gate_exhaustive():
    rng = np.random.default_rng(1005)
    mismatches = 0
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 5))
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=2 * n))
            if sum(exps) > 5:
                continue
            terms[exps] = complex(rng.normal(), rng.normal())
        p = MultiPoly(2 * n, terms)
        if p.is_zero():
            continue
        checked += 1
        verdict = odd_degree_gate(p)
        # Independent brute force over all zeroed coordinate subsets.
        deg = p.degree()
        expected, expected_witness = ("reject_odd", ()) if deg % 2 else (None, None)
        if expected is None:
            expected = "pass"
            for subset in sorted(
                itertools.chain.from_iterable(
                    itertools.combinations(range(n), r) for r in range(1, n + 1)
                )
            ):
                dead = list(subset) + [n + i for i in subset]
                restricted = p.restrict_zero(dead)
                if not restricted.is_zero() and restricted.degree() % 2 == 1:
                    expected, expected_witness = "reject_reducible_odd", subset
                    break
        if verdict.kind != expected:
            mismatches += 1
        elif expected == "reject_reducible_odd" and verdict.witness != expected_witness:
            mismatches += 1
    ok = mismatches == 0
    _report(5, ok, f"odd-degree gate vs brute force on 500 polynomials, {mismatches} mismatches")


def test_criterion_06_wick_oracle_equivalence():
    rng = np.random.default_rng(1006)
    worst = 0.0
    count = 0
    for case in range(100):
        m = 1 if case < 50 else (2 if case < 85 else 3)
        re = rng.normal(size=(m, m))
        quad = re @ re.T + m * np.eye(m)
        if case % 2:
            im = rng.normal(size=(m, m))
            quad = quad + 0.35j * (im + im.T)
        lin = rng.normal(size=m) + (1j * rng.normal(size=m) if case % 3 else 0.0)
        terms = {}
        for _ in range(4):
            exps = tuple(int(e) for e in rng.integers(0, 4, size=m))
            if sum(exps) <= 6:
                terms[exps] = complex(rng.normal(), rng.normal())
        if not terms:
            terms[(0,) * m] = 1.0
        p = MultiPoly(m, terms)
        engine = wick.poly_gaussian_integral(p, quad, lin)
        if m == 1:
            f = lambda x: p(np.array([x])) * np.exp(-quad[0, 0] * x * x + lin[0] * x)
            re_val, _ = scipy.integrate.quad(lambda x: f(x).real, -np.inf, np.inf,
                                             epsabs=1e-12, limit=200)
            im_val, _ = scipy.integrate.quad(lambda x: f(x).imag, -np.inf, np.inf,
                                             epsabs=1e-12, limit=200)
            oracle = re_val + 1j * im_val
        else:
            oracle = gauss_hermite_oracle(p, quad, lin, order=48)
            confirm = gauss_hermite_oracle(p, quad, lin, order=64)
            assert abs(oracle - confirm) <= 1e-8 * max(1.0, abs(oracle))
        err = abs(engine - oracle) / max(1.0, abs(oracle))
        worst = max(worst, err)
        count += 1
    ok = worst < 1e-7 and count == 100
    _report(6, ok, f"100 integrands (m <= 3, degree <= 6, complex forms): "
                   f"worst relative error {worst:.2e}")


def test_criterion_07_spectral_cross_validation():
    rng = np.random.default_rng(1007)
    # Newton recursion vs determinant formulation.
    worst_det = 0.0
    for _ in range(50):
        m = rng.normal(size=6) * rng.uniform(0.1, 3.0)
        e_newton = spectral.elementary_symmetric(m)
        e_det = elementary_symmetric_det(m)
        scale = max(1.0, float(np.max(np.abs(e_newton))))
        worst_det = max(worst_det, float(np.max(np.abs(e_newton - e_det))) / scale)
    # Engine moments vs grid-oracle eigenvalues on 1-D fixtures.
    worst_ek = 0.0
    for kernel in (kappa_gamma_kernel(1.0), kappa_gamma_kernel(4.0), caldeira_kernel(1, 1.0)):
        report = spectral.positivity_sweep(kernel, 4)
        oracle = spectral.nystrom_oracle(kernel, grid_points=260, box_halfwidth=7.0)
        ek_oracle = elementary_symmetric_from_eigenvalues(oracle.eigenvalues, 4)
        worst_ek = max(worst_ek, float(np.max(np.abs(ek_oracle - report.eks))))
    ok = worst_det < 1e-10 and worst_ek < 1e-3
    _report(7, ok, f"newton vs determinant {worst_det:.2e}; engine vs grid e_k {worst_ek:.2e}")


def test_criterion_08_trace_identities():
    rng = np.random.default_rng(1008)
    # moment(1) vs the diagonal integral, on every fixture family.
    worst_diag = 0.0
    fixtures = [caldeira_kernel(n, 1.0) for n in (0, 1, 2)]
    fixtures += [kappa_gamma_kernel(g, d) for g in (0.0, 1.0, 7.0) for d in (0.0, 10.0)]
    for kernel in fixtures:
        engine = spectral.moment(kernel, 1)
        diag, _ = scipy.integrate.quad(
            lambda x: kernel.evaluate([x], [x]).real, -np.inf, np.inf, epsabs=1e-13
        )
        worst_diag = max(worst_diag, abs(engine - diag))
    # Partial trace preserves the trace on random 2-D kernels.
    worst_pt = 0.0
    for _ in range(10):
        k = random_kernel(rng, 2, terms=3, max_deg=2)
        before = spectral.moment(k, 1)
        after = spectral.moment(wick.integrate_out(k, [int(rng.integers(0, 2))]), 1)
        worst_pt = max(worst_pt, abs(before - after) / max(1.0, abs(before)))
    # The shifted family fixtures are normalized to unit trace.
    worst_norm = 0.0
    for g in (0.0, 1.0, 4.0, 7.0):
        for d in (0.0, 10.0, 250.0):
            worst_norm = max(worst_norm, abs(spectral.moment(kappa_gamma_kernel(g, d), 1) - 1.0))
    ok = worst_diag < 1e-9 and worst_pt < 1e-9 and worst_norm < 1e-9
    _report(8, ok, f"diagonal-integral {worst_diag:.2e}; partial-trace {worst_pt:.2e}; "
                   f"family normalization {worst_norm:.2e}")


def test_criterion_09_preorder_axioms():
    rng = np.random.default_rng(1009)
    counterexamples = 0

    def gn(n):
        a = rng.normal(size=(n, n))
        c = rng.normal(size=(n, n))
        return GaussianTriple(0.5 * (a + a.T), rng.normal(size=(n, n)), 0.5 * (c + c.T))

    def leq_step(g, n):
        bump = rng.normal(size=(n, n))
        bump = bump @ bump.T
        db = rng.normal(size=(n, n))
        db = 0.5 * (db + db.T)
        dc = rng.normal(size=(n, n))
        dc = 0.5 * (dc + dc.T)
        return GaussianTriple(g.a + bump + dc, g.b + db, g.c + dc)

    for _ in range(100):
        n = int(rng.integers(1, 4))
        g0 = gn(n)
        g1 = leq_step(g0, n)
        g2 = leq_step(g1, n)
        # Reflexivity and r-invariance.
        ok0, _ = gaussian.preorder_leq(g0, g0)
        okr = all(gaussian.preorder_leq(g0, g1, r_shift=s)[0] for s in (0.0, 1.0, 10.0))
        # Transitivity along the chain.
        ok01, _ = gaussian.preorder_leq(g0, g1)
        ok12, _ = gaussian.preorder_leq(g1, g2)
        ok02, _ = gaussian.preorder_leq(g0, g2)
        # Necessary condition on a random (possibly unrelated) pair.
        h = gn(n)
        okh, _ = gaussian.preorder_leq(g0, h)
        gap_ok = True
        if okh:
            gap = (h.a - h.c) - (g0.a - g0.c)
            gap_ok = min_eigenvalue(gap) >= -1e-10 * max(g0.scale(), h.scale())
        # Equivalence iff two-sided preorder.
        shift = rng.normal(size=(n, n))
        shift = 0.5 * (shift + shift.T)
        db = rng.normal(size=(n, n))
        db = 0.5 * (db + db.T)
        ge = GaussianTriple(g0.a + shift, g0.b + db, g0.c + shift)
        equiv_ok = (
            gaussian.equiv(g0, ge)
            and gaussian.preorder_leq(g0, ge)[0]
            and gaussian.preorder_leq(ge, g0)[0]
        )
        two_sided_h = gaussian.preorder_leq(g0, h)[0] and gaussian.preorder_leq(h, g0)[0]
        equiv_match = two_sided_h == gaussian.equiv(g0, h, rtol=1e-9)
        if not (ok0 and okr and ok01 and ok12 and ok02 and gap_ok and equiv_ok and equiv_match):
            counterexamples += 1
    ok = counterexamples == 0
    _report(9, ok, f"100 random chains: reflexivity, r-invariance, transitivity, "
                   f"gap condition, equivalence ({counterexamples} counterexamples)")


def test_criterion_10_entanglement_fixtures():
    rng = np.random.default_rng(1010)
    t = entangled_fixture()
    b = Bipartition(2, (0,))
    sep = entangle.gaussian_separability(t, b)
    polys = [
        MultiPoly.constant(4, 1.0),
        MultiPoly(4, {(1, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}),
        MultiPoly(4, {(0, 1, 0, 1): 1.0, (1, 0, 1, 0): 0.5, (0, 0, 0, 0): 1.0}),
    ]
    npt_ok = all(
        entangle.npt_gate(PolyGaussianKernel(p, t), b).certified for p in polys
    )
    worst_tr = 0.0
    involution_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 4))
        k = random_kernel(rng, n, terms=3, max_deg=2)
        part = Bipartition(n, (int(rng.integers(0, n)),))
        kt = entangle.partial_transpose(k, part)
        back = entangle.partial_transpose(kt, part)
        involution_ok &= (
            back.poly == k.poly
            and np.array_equal(back.triple.a, k.triple.a)
            and np.array_equal(back.triple.b, k.triple.b)
            and np.array_equal(back.triple.c, k.triple.c)
        )
        tr0 = spectral.moment(k, 1)
        tr1 = spectral.moment(kt, 1)
        worst_tr = max(worst_tr, abs(tr0 - tr1) / max(1.0, abs(tr0)))
    ok = sep == "entangled" and npt_ok and involution_ok and worst_tr < 1e-10
    _report(10, ok, f"fixture separability={sep}, npt certified for {len(polys)} polynomials; "
                    f"200 kernels: involution exact, trace drift {worst_tr:.2e}")
