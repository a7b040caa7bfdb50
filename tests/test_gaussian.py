import numpy as np
import pytest

from conftest import random_gn_triple, random_kernel_valid_triple, random_symplectic, sufficient_leq
from polygauss import gaussian
from polygauss.gaussian import GaussianTriple
from polygauss.numerics import min_eigenvalue


def test_eval_gaussian_examples():
    t = GaussianTriple(np.eye(1), np.zeros((1, 1)), np.eye(1))
    assert gaussian.eval_gaussian(t, [0.0], [0.0]) == 1.0
    t = GaussianTriple.from_scalars(1.5, 1.0)
    assert abs(gaussian.eval_gaussian(t, [1.0], [0.0]) - np.exp(-2.5)) < 1e-15


def test_eval_gaussian_self_adjoint_and_bounded():
    rng = np.random.default_rng(20)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        t = random_kernel_valid_triple(rng, n)
        x, y = rng.normal(size=n), rng.normal(size=n)
        v_xy = gaussian.eval_gaussian(t, x, y)
        v_yx = gaussian.eval_gaussian(t, y, x)
        assert abs(v_yx - np.conj(v_xy)) < 1e-14
        assert abs(v_xy) <= 1.0 + 1e-15


def test_eval_gaussian_grid_matches_per_pair_evaluation():
    # The grid assembles its exponent from per-point forms and broadcast
    # products; it must agree with the direct d/s form at every pair, also
    # when A and C differ by three orders of magnitude (either way round) and
    # B has symmetric and antisymmetric parts.
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        upper = np.triu(np.ones((n, n)), 1)
        b_full = 0.6 * np.eye(n) + 0.9 * (upper - upper.T)
        for ratio in (1e3, 1e-3):
            base = random_kernel_valid_triple(rng, n)
            a, c = (ratio * base.c, base.c) if ratio > 1 else (base.c, base.c / ratio)
            assert np.isclose(min_eigenvalue(a) / min_eigenvalue(c), ratio)
            spread = 0.5 / np.sqrt(min_eigenvalue(c))  # the Mercer search's cloud scale
            pts = spread * rng.standard_normal((3, 9, n)) * np.array([1.0, 0.5, 2.0])[:, None, None]
            for b in (np.zeros((n, n)), 0.5 * (b_full + b_full.T), b_full):
                t = GaussianTriple(a, b, c)
                grid = gaussian.eval_gaussian_grid(t, pts)
                assert grid.dtype == complex
                direct = np.array([
                    [[gaussian.eval_gaussian(t, x, y) for y in cloud] for x in cloud]
                    for cloud in pts
                ])
                assert np.max(np.abs(grid - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_phase_space_form_examples():
    g, _ = gaussian.phase_space_form(GaussianTriple.from_scalars(1.0, 1.0))
    assert np.allclose(g, np.diag([4.0, 0.25]))
    g, _ = gaussian.phase_space_form(GaussianTriple.from_scalars(1.5, 1.0))
    assert np.allclose(g, np.diag([4.0, 1.0 / 6.0]))


def test_phase_space_form_positive_definite_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        t = random_kernel_valid_triple(rng, n)
        g, c_g = gaussian.phase_space_form(t)
        assert min_eigenvalue(g) > 0.0
        assert c_g > 0.0


def test_symplectic_spectrum_examples():
    # Diagonal case reduces to a 2x2 eigenproblem with mu = sqrt(C/A).
    a, c = 2.0, 0.5
    g = np.diag([4.0 * c, 1.0 / (4.0 * a)])
    mus = gaussian.symplectic_spectrum(g).mus
    assert abs(mus[0] - np.sqrt(c / a)) < 1e-12
    # The triple (1/(4 mu), 0, mu/4) has spectrum {mu}.
    for mu in (0.3, 1.0, 2.5):
        t = GaussianTriple.from_scalars(1.0 / (4.0 * mu), mu / 4.0)
        verdict = gaussian.gaussian_positive(t)
        assert abs(verdict.mu_max - mu) < 1e-10
        assert verdict.positive == (mu <= 1.0 + 1e-10)
    # Identity phase-space matrix: all mu = 1.
    mus = gaussian.symplectic_spectrum(np.eye(6)).mus
    assert np.allclose(mus, 1.0)


def test_symplectic_spectrum_conjugation_invariance():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        t = random_kernel_valid_triple(rng, n)
        g, _ = gaussian.phase_space_form(t)
        s = random_symplectic(rng, n)
        mus1 = gaussian.symplectic_spectrum(g).mus
        mus2 = gaussian.symplectic_spectrum(s.T @ g @ s).mus
        assert np.max(np.abs(mus1 - mus2)) < 1e-7 * max(1.0, mus1[0])


def test_symplectic_spectrum_matches_nonsymmetric_eigensolve():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        t = random_kernel_valid_triple(rng, n)
        g, _ = gaussian.phase_space_form(t)
        mus = gaussian.symplectic_spectrum(g).mus
        eigs = np.linalg.eigvals(g @ gaussian.symplectic_form(n))
        ref = np.sort(np.abs(eigs.imag))[::-1][::2]
        assert np.max(np.abs(mus - np.sort(ref)[::-1])) < 1e-8 * max(1.0, mus[0])


def test_gaussian_positive_examples():
    v = gaussian.gaussian_positive(GaussianTriple.from_scalars(1.5, 1.0))
    assert v.positive and abs(v.mu_max - np.sqrt(2.0 / 3.0)) < 1e-12
    v = gaussian.gaussian_positive(GaussianTriple.from_scalars(1.0, 2.0))
    assert not v.positive and abs(v.mu_max - np.sqrt(2.0)) < 1e-12
    v = gaussian.gaussian_positive(GaussianTriple(np.eye(2), np.zeros((2, 2)), np.eye(2)))
    assert v.positive and abs(v.mu_max - 1.0) < 1e-12 and v.borderline


def test_one_dimensional_criterion_attained():
    # In one dimension positivity is exactly A >= C > 0, for any B.
    rng = np.random.default_rng(24)
    for _ in range(1000):
        a = float(rng.uniform(0.05, 3.0))
        c = float(rng.uniform(0.05, 3.0))
        b = float(rng.normal())
        if abs(a - c) < 1e-8:
            continue  # skip the boundary band
        verdict = gaussian.gaussian_positive(GaussianTriple.from_scalars(a, c, b))
        assert verdict.positive == (a >= c)


def test_antisymmetric_b_breaks_positivity():
    # (I, B, I) can only be positive for symmetric B.
    for t in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        b = np.array([[0.0, t], [-t, 0.0]])
        trip = GaussianTriple(np.eye(2), b, np.eye(2))
        verdict = gaussian.gaussian_positive(trip)
        assert not verdict.positive
        # Closed form for this family: mu_max = (t + sqrt(4 + t^2)) / 2.
        assert abs(verdict.mu_max - 0.5 * (t + np.sqrt(4.0 + t * t))) < 1e-9
    sym = GaussianTriple(np.eye(2), np.array([[0.3, 0.7], [0.7, -0.2]]), np.eye(2))
    assert gaussian.gaussian_positive(sym).positive


def test_preorder_examples():
    eye = GaussianTriple(np.eye(2), np.zeros((2, 2)), np.eye(2))
    rng = np.random.default_rng(25)
    # (I, 0, I) precedes every positive triple (symmetric-B samples included).
    hits = 0
    for _ in range(20):
        t = random_kernel_valid_triple(rng, 2, b_scale=0.0)
        if rng.uniform() < 0.5:
            b = rng.normal(size=(2, 2))
            t = GaussianTriple(t.a, 0.5 * (b + b.T), t.c)
        if not gaussian.gaussian_positive(t).positive:
            continue
        hits += 1
        ok, _ = gaussian.preorder_leq(eye, t)
        assert ok
    assert hits >= 3
    ok, _ = gaussian.preorder_leq(
        GaussianTriple.from_scalars(1.5, 1.0), GaussianTriple.from_scalars(11.5, 11.0)
    )
    assert ok
    ok, _ = gaussian.preorder_leq(
        GaussianTriple.from_scalars(1.0, 1.0), GaussianTriple.from_scalars(1.0, 2.0)
    )
    assert not ok


def test_preorder_reflexive_and_r_invariant():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g0 = random_gn_triple(rng, n)
        ok, witness = gaussian.preorder_leq(g0, g0)
        assert ok and witness.r >= 1.0
        for shift in (1.0, 10.0):
            ok2, _ = gaussian.preorder_leq(g0, g0, r_shift=shift)
            assert ok2


def _leq_pair(rng, n):
    """Random pair guaranteed to satisfy the preorder via the sufficient test."""
    g0 = random_gn_triple(rng, n)
    bump = rng.normal(size=(n, n))
    bump = bump @ bump.T  # PSD increment to A - C
    db = rng.normal(size=(n, n))
    db = 0.5 * (db + db.T)
    dc = rng.normal(size=(n, n))
    dc = 0.5 * (dc + dc.T)
    g1 = GaussianTriple(g0.a + bump + dc, g0.b + db, g0.c + dc)
    return g0, g1


def test_preorder_transitive_on_random_chains():
    rng = np.random.default_rng(27)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        g0, g1 = _leq_pair(rng, n)
        _, g2 = _leq_pair(rng, n)
        g2 = GaussianTriple(g1.a + (g2.a - g2.c), g1.b, g1.c)  # keep a controlled chain
        ok01, _ = gaussian.preorder_leq(g0, g1)
        ok12, _ = gaussian.preorder_leq(g1, g2)
        if ok01 and ok12:
            ok02, _ = gaussian.preorder_leq(g0, g2)
            assert ok02


def test_preorder_necessary_condition():
    rng = np.random.default_rng(28)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        g0 = random_gn_triple(rng, n)
        g1 = random_gn_triple(rng, n)
        ok, _ = gaussian.preorder_leq(g0, g1)
        if ok:
            gap = (g1.a - g1.c) - (g0.a - g0.c)
            assert min_eigenvalue(gap) >= -1e-10 * max(g0.scale(), g1.scale())


def test_sufficient_condition_implies_preorder():
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        g0, g1 = _leq_pair(rng, n)
        assert sufficient_leq(g0, g1)
        ok, _ = gaussian.preorder_leq(g0, g1)
        assert ok
    # Antisymmetric B difference defeats the sufficient test.
    base = GaussianTriple(np.eye(2), np.zeros((2, 2)), np.eye(2))
    other = GaussianTriple(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    assert not sufficient_leq(base, other)


def test_equiv_examples_and_two_sided_preorder():
    t0 = GaussianTriple.from_scalars(1.5, 1.0)
    assert gaussian.equiv(t0, t0)
    for delta in (-0.5, 0.1, 10.0, 250.0):
        assert gaussian.equiv(t0, gaussian.shifted_triple(t0, delta))
    assert not gaussian.equiv(
        GaussianTriple.from_scalars(1.0, 1.0), GaussianTriple.from_scalars(2.0, 1.0)
    )
    rng = np.random.default_rng(30)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        g0 = random_gn_triple(rng, n)
        g1 = random_gn_triple(rng, n)
        two_sided = gaussian.preorder_leq(g0, g1)[0] and gaussian.preorder_leq(g1, g0)[0]
        assert two_sided == gaussian.equiv(g0, g1, rtol=1e-9)
        # Constructed equivalent pairs agree both ways.
        db = rng.normal(size=(n, n))
        db = 0.5 * (db + db.T)
        shift = rng.normal(size=(n, n))
        shift = 0.5 * (shift + shift.T)
        g2 = GaussianTriple(g0.a + shift, g0.b + db, g0.c + shift)
        assert gaussian.equiv(g0, g2)
        assert gaussian.preorder_leq(g0, g2)[0] and gaussian.preorder_leq(g2, g0)[0]


def test_triple_exponent_matrix_round_trip():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        t = random_kernel_valid_triple(rng, n)
        m = gaussian.triple_exponent_matrix(t)
        back = gaussian.triple_from_exponent_matrix(m)
        assert np.allclose(back.a, t.a) and np.allclose(back.b, t.b) and np.allclose(back.c, t.c)
        # The matrix reproduces the kernel exponent pointwise.
        x, y = rng.normal(size=n), rng.normal(size=n)
        z = np.concatenate([x, y])
        direct = gaussian.eval_gaussian(t, x, y)
        assert abs(np.exp(-(z @ m @ z)) - direct) < 1e-12


def test_dimension_mismatch_errors():
    t1 = GaussianTriple.from_scalars(1.0, 1.0)
    t2 = GaussianTriple(np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        gaussian.preorder_leq(t1, t2)
    with pytest.raises(ValueError):
        gaussian.equiv(t1, t2)
    with pytest.raises(ValueError):
        gaussian.eval_gaussian(t1, [1.0, 2.0], [0.0, 0.0])
