import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from conftest import (
    WickTableReference,
    gauss_hermite_oracle,
    random_kernel,
    random_kernel_valid_triple,
    wigner_inverse,
    wigner_transform,
)
from polygauss import gaussian, wick
from polygauss.gaussian import GaussianTriple
from polygauss.kernels import PolyGaussianKernel
from polygauss.numerics import IndefiniteMatrixError
from polygauss.poly import MultiPoly


def test_gaussian_integral_examples():
    assert abs(wick.gaussian_integral(np.array([[1.0]])) - math.sqrt(math.pi)) < 1e-14
    # 2-D coupled form with determinant 3.
    val = wick.gaussian_integral(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(val - math.pi / math.sqrt(3.0)) < 1e-12
    # Completed square: integral of exp(-x^2 + 2x) is sqrt(pi) e.
    val = wick.gaussian_integral(np.array([[1.0]]), np.array([2.0]))
    assert abs(val - math.sqrt(math.pi) * math.e) < 1e-12


def test_gaussian_integral_2d_quadrature_cross_check():
    quad = np.array([[2.0, 1.0], [1.0, 2.0]])
    ref, _ = scipy.integrate.dblquad(
        lambda y, x: math.exp(-(2 * x * x + 2 * x * y + 2 * y * y)),
        -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-10,
    )
    assert abs(wick.gaussian_integral(quad).real - ref) < 1e-8


def test_poly_gaussian_integral_examples():
    x2 = MultiPoly(1, {(2,): 1.0})
    assert abs(wick.poly_gaussian_integral(x2, np.array([[1.0]])) - math.sqrt(math.pi) / 2) < 1e-13
    x4 = MultiPoly(1, {(4,): 1.0})
    assert abs(wick.poly_gaussian_integral(x4, np.array([[1.0]])) - 0.75 * math.sqrt(math.pi)) < 1e-13
    # (x - y)^2 against exp(-2(x-y)^2 - 2(x+y)^2) integrates to pi/16.
    pref = MultiPoly(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0})
    quad = np.array([[4.0, 0.0], [0.0, 4.0]])  # expanded difference/sum form
    val = wick.poly_gaussian_integral(pref, quad)
    assert abs(val - math.pi / 16.0) < 1e-12
    ref, _ = scipy.integrate.dblquad(
        lambda y, x: (x - y) ** 2 * math.exp(-2 * (x - y) ** 2 - 2 * (x + y) ** 2),
        -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-12,
    )
    assert abs(val.real - ref) < 1e-9


def test_prefactor_one_reduces_to_gaussian_integral():
    rng = np.random.default_rng(40)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        re = rng.normal(size=(m, m))
        quad = re @ re.T + m * np.eye(m) + 1j * 0.3 * (lambda s: s + s.T)(rng.normal(size=(m, m)))
        lin = rng.normal(size=m) + 1j * rng.normal(size=m)
        one = MultiPoly.constant(m, 1.0)
        assert abs(
            wick.poly_gaussian_integral(one, quad, lin) - wick.gaussian_integral(quad, lin)
        ) == 0.0


def test_linearity_in_prefactor():
    rng = np.random.default_rng(41)
    quad = np.array([[1.5, 0.2], [0.2, 1.0]]) + 1j * np.array([[0.1, 0.05], [0.05, -0.2]])
    for _ in range(5):
        p1 = MultiPoly(2, {tuple(rng.integers(0, 3, size=2)): complex(rng.normal()) for _ in range(3)})
        p2 = MultiPoly(2, {tuple(rng.integers(0, 3, size=2)): complex(rng.normal()) for _ in range(3)})
        lhs = wick.poly_gaussian_integral(p1 + p2, quad)
        rhs = wick.poly_gaussian_integral(p1, quad) + wick.poly_gaussian_integral(p2, quad)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_odd_moments_vanish():
    rng = np.random.default_rng(42)
    for _ in range(10):
        m = int(rng.integers(1, 4))
        re = rng.normal(size=(m, m))
        quad = re @ re.T + m * np.eye(m)
        exps = rng.integers(0, 4, size=m)
        if sum(exps) % 2 == 0:
            exps[0] += 1
        p = MultiPoly(m, {tuple(int(e) for e in exps): 1.0})
        val = wick.poly_gaussian_integral(p, quad)
        scale = abs(wick.gaussian_integral(quad))
        assert abs(val) <= 1e-12 * max(1.0, scale)


def test_wick_double_factorial_count():
    # E[w^(2d)] for the standard weight exp(-x^2): moments (2d-1)!! 2^(-d).
    table = wick.WickTable(np.array([[0.5]]))
    for d in range(1, 7):
        expect = math.prod(range(1, 2 * d, 2)) * 0.5**d
        assert abs(table.moment((2 * d,)) - expect) < 1e-12 * expect


def _multi_indices(m: int, max_degree: int):
    return [a for a in itertools.product(range(max_degree + 1), repeat=m) if sum(a) <= max_degree]


def _same_bits(a, b) -> bool:
    """Equal values, and for float64 the same bits (signed zeros included); ints exactly."""
    if isinstance(a, mpmath.mpf) or isinstance(b, mpmath.mpf):
        return a == b
    if type(a) is int or type(b) is int:
        return type(a) is type(b) and a == b
    return np.complex128(a).tobytes() == np.complex128(b).tobytes()


def _assert_tables_agree(cov, m: int, max_degree: int = 16) -> None:
    # moment() compiles one multi-index at a time; moments() replays the
    # batch's program, cold and then cached, and in reverse term order.
    alphas = _multi_indices(m, max_degree)
    new, ref = wick.WickTable(cov), WickTableReference(cov)
    want = [ref.moment(alpha) for alpha in alphas]
    for alpha, expect in zip(alphas, want):
        value = new.moment(alpha)
        assert _same_bits(value, expect), alpha
        if sum(alpha) % 2:
            assert value == 0
    reordered = alphas[::-1]
    for batch in (alphas, alphas, reordered):
        got = wick.WickTable(cov).moments(batch)
        expect = want if batch is alphas else want[::-1]
        assert len(got) == len(batch)
        assert all(_same_bits(g, w) for g, w in zip(got, expect))


def test_wick_table_bit_identical_dense_complex():
    rng = np.random.default_rng(60)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    _assert_tables_agree(0.5 * np.linalg.inv(g @ g.T + 4 * np.eye(4)), 4)


def test_wick_table_bit_identical_with_zero_covariances():
    # Zero entries, a variable coupled to no other, and a negative zero
    # imaginary part: the skipped pairs must be exactly the reference's.
    cov = np.array(
        [
            [0.7, 0.0, 0.2 - 0.1j, 0.0],
            [0.0, 1.3, 0.0, 0.0],
            [0.2 - 0.1j, 0.0, 0.5, complex(0.3, -0.0)],
            [0.0, 0.0, complex(0.3, -0.0), 0.9],
        ]
    )
    _assert_tables_agree(cov, 4)


def test_wick_table_bit_identical_mpmath():
    with mpmath.workdps(100):
        g = mpmath.matrix([[2, 1, 0.5], [1, 3, 0.25], [0.5, 0.25, 1.5]])
        cov = 0.5 * np.array(mpmath.inverse(g).tolist(), dtype=object)
        _assert_tables_agree(cov, 3)
        assert isinstance(wick.WickTable(cov).moment((2, 2, 2)), mpmath.mpf)


def test_wick_table_bit_identical_python_ints():
    # The exact route: an int covariance gives exact int moments.
    cov = np.array([[6, -2, 0, 1], [-2, 5, 3, 0], [0, 3, 7, -4], [1, 0, -4, 9]], dtype=object)
    _assert_tables_agree(cov, 4)
    assert type(wick.WickTable(cov).moments([(8, 8, 0, 0)])[0]) is int


def test_wick_plan_cache_is_bounded_and_evicts():
    wick._plan.cache_clear()
    cov = np.array([[0.7, 0.2], [0.2, 0.9]])
    batches = [[(2 * d, 0), (0, 2), (1, 1)] for d in range(wick.PLAN_CACHE_SIZE + 1)]
    for batch in batches:
        wick.WickTable(cov).moments(batch)
    info = wick._plan.cache_info()
    assert info.maxsize == wick.PLAN_CACHE_SIZE
    assert info.currsize == wick.PLAN_CACHE_SIZE and info.misses == len(batches)
    wick.WickTable(2 * cov).moments(batches[-1])  # the newest plan, for another covariance
    wick.WickTable(cov).moments(batches[0])  # the oldest was evicted: compiled anew
    info = wick._plan.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, len(batches) + 1, wick.PLAN_CACHE_SIZE)


def test_wick_plans_are_not_shared_across_nvars_or_pattern():
    wick._plan.cache_clear()
    alphas = [(2, 2), (4, 0), (1, 3), (3, 1)]
    # A diagonal covariance first: its plan pairs x only with x, so the
    # dense covariance after it, with the same indices, needs its own plan.
    for cov in ([[0.5, 0.0], [0.0, 0.75]], [[0.5, 0.25], [0.25, 0.75]]):
        table, ref = wick.WickTable(np.array(cov)), WickTableReference(np.array(cov))
        assert all(_same_bits(g, ref.moment(a)) for a, g in zip(alphas, table.moments(alphas)))
    assert wick._plan.cache_info().misses == 2
    # The same exponent bytes, b"\x02\x02", as one 2-variable index and as
    # two 1-variable ones.
    two = wick.WickTable(np.array([[0.5, 0.25], [0.25, 0.75]]))
    one = wick.WickTable(np.array([[0.5]]))
    assert _same_bits(two.moments([(2, 2)])[0], WickTableReference(two.cov).moment((2, 2)))
    assert one.moments([(2,), (2,)]) == [0.5 + 0j, 0.5 + 0j]
    assert wick._plan.cache_info().misses == 4


def test_integrate_takes_its_moments_in_one_call(monkeypatch):
    calls = []
    moments = wick.WickTable.moments

    def recording(self, alphas):
        calls.append(len(alphas))
        return moments(self, alphas)

    monkeypatch.setattr(wick.WickTable, "moments", recording)
    monkeypatch.setattr(wick.WickTable, "moment", None)
    pref = MultiPoly(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 2): 1.0, (0, 0): 0.5})
    wick.poly_gaussian_integral(pref, np.array([[4.0, 0.5], [0.5, 4.0]]))
    form = _integer_form([[4, 1], [1, 4]], {(2, 0): 3, (1, 1): -2, (0, 4): 1})
    wick.integrate_integer(form, [0, 1], 2)
    assert calls == [4, 3]


def test_wick_table_list_input():
    cov = [[0.8, 0.3], [0.3, 0.6]]
    new, ref = wick.WickTable(cov), WickTableReference(np.array(cov))
    for alpha in _multi_indices(2, 16):
        assert _same_bits(new.moment(list(alpha)), ref.moment(alpha))
        assert _same_bits(new.moment(np.array(alpha)), ref.moment(alpha))


def test_wick_table_exponent_beyond_the_field_raises():
    table = wick.WickTable(np.array([[0.5, 0.1], [0.1, 0.5]]))
    assert table.moment((0, 2)) != 0  # memoized under the key that (512, 0) would spill into
    for alpha in [(512, 0), (256, 0), (257, 1), (0, 256), (-2, 2)]:
        with pytest.raises(ValueError, match="exponent"):
            table.moment(alpha)
    with pytest.raises(ValueError, match="entries"):
        table.moment((2,))
    one = wick.WickTable(np.array([[0.5]]))
    assert one.moment((wick.MAX_EXPONENT - 1,)) == WickTableReference(np.array([[0.5]])).moment(
        (wick.MAX_EXPONENT - 1,)
    )


def test_degree_cap_enforced():
    p = MultiPoly(1, {(18,): 1.0})
    with pytest.raises(wick.DegreeCapError):
        wick.poly_gaussian_integral(p, np.array([[1.0]]))


def test_rejects_non_positive_real_part():
    with pytest.raises(IndefiniteMatrixError):
        wick.gaussian_integral(np.array([[-1.0 + 0j]]))


def test_oracle_equivalence_small_corpus():
    # Randomized complex forms against adaptive quadrature (m = 1) and
    # order-doubled Gauss-Hermite (m = 2, 3).
    rng = np.random.default_rng(43)
    for trial in range(12):
        m = 1 + trial % 3
        re = rng.normal(size=(m, m))
        quad = re @ re.T + m * np.eye(m)
        quad = quad + 1j * 0.4 * (lambda s: s + s.T)(rng.normal(size=(m, m)))
        lin = rng.normal(size=m) + 1j * rng.normal(size=m)
        terms = {}
        for _ in range(4):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=m))
            terms[exps] = complex(rng.normal(), rng.normal())
        p = MultiPoly(m, terms)
        engine = wick.poly_gaussian_integral(p, quad, lin)
        if m == 1:
            f = lambda x: p(np.array([x])) * np.exp(-quad[0, 0] * x * x + lin[0] * x)
            re_val, _ = scipy.integrate.quad(lambda x: f(x).real, -np.inf, np.inf, epsabs=1e-12)
            im_val, _ = scipy.integrate.quad(lambda x: f(x).imag, -np.inf, np.inf, epsabs=1e-12)
            oracle = re_val + 1j * im_val
        else:
            oracle = gauss_hermite_oracle(p, quad, lin, order=48)
            confirm = gauss_hermite_oracle(p, quad, lin, order=64)
            assert abs(oracle - confirm) < 1e-9 * max(1.0, abs(oracle))
        assert abs(engine - oracle) < 1e-7 * max(1.0, abs(oracle))


def test_integrate_out_product_kernel():
    # Tracing a product kernel over its second coordinate multiplies the
    # first factor by the trace of the second.
    a = np.diag([1.5, 2.0])
    c = np.diag([1.0, 0.7])
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple(a, np.zeros((2, 2)), c))
    eta = wick.integrate_out(k, [1], diagonal=True)
    assert eta.n == 1
    assert np.allclose(eta.triple.a, [[1.5]]) and np.allclose(eta.triple.c, [[1.0]])
    assert abs(eta.norm - math.sqrt(math.pi / (4 * 0.7))) < 1e-12


def test_integrate_out_preserves_trace_random():
    from polygauss import spectral

    rng = np.random.default_rng(44)
    for _ in range(10):
        k = random_kernel(rng, 2, terms=3, max_deg=2)
        tr_before = spectral.moment(k, 1)
        eta = wick.integrate_out(k, [int(rng.integers(0, 2))], diagonal=True)
        tr_after = spectral.moment(eta, 1)
        assert abs(tr_before - tr_after) <= 1e-9 * max(1.0, abs(tr_before))


def test_integrate_out_involution_structures():
    # Marginalization (diagonal=False) also lands on a valid kernel.
    rng = np.random.default_rng(45)
    k = random_kernel(rng, 2, terms=3, max_deg=2)
    eta = wick.integrate_out(k, [0], diagonal=False)
    assert eta.n == 1
    assert eta.poly.is_self_adjoint(tol=1e-8)


def test_integrate_out_preserves_positivity_spot_check():
    from polygauss import spectral
    from polygauss.families import caldeira_kernel

    # Product of two manifestly positive one-coordinate kernels.
    k1 = caldeira_kernel(1, 1.0)
    k0 = caldeira_kernel(0, 1.3)
    poly = MultiPoly(
        4,
        {
            (i, 0, j, 0): c
            for (i, j), c in k1.poly.terms.items()
        },
    )
    a = np.diag([k1.triple.a[0, 0], k0.triple.a[0, 0]])
    c = np.diag([k1.triple.c[0, 0], k0.triple.c[0, 0]])
    prod = PolyGaussianKernel(poly, GaussianTriple(a, np.zeros((2, 2)), c), k1.norm * k0.norm)
    eta = wick.integrate_out(prod, [1], diagonal=True)
    oracle = spectral.nystrom_oracle(eta, grid_points=220, box_halfwidth=7.0)
    assert not oracle.coarse
    assert oracle.eigenvalues[-1] > -1e-8


def test_wigner_transform_matches_phase_space_form():
    rng = np.random.default_rng(46)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        t = random_kernel_valid_triple(rng, n)
        k = PolyGaussianKernel.pure_gaussian(t)
        w = wigner_transform(k)
        g_ref, c_ref = gaussian.phase_space_form(t)
        assert np.max(np.abs(w.quad - g_ref)) < 1e-9 * max(1.0, np.max(np.abs(g_ref)))
        assert abs(w.scale - c_ref) < 1e-9 * c_ref
        assert w.poly.degree() == 0


def test_wigner_polynomial_degree_and_oscillator_case():
    p = MultiPoly(2, {(1, 1): 1.0})
    k = PolyGaussianKernel(p, GaussianTriple.from_scalars(1.0, 1.0))
    w = wigner_transform(k)
    assert w.poly.degree() == 2
    # Cross-check against direct numerical evaluation of the defining
    # oscillatory integral at a few phase-space points.
    for x, pp in [(0.3, 0.5), (0.0, 1.1), (-0.7, 0.2)]:
        def integrand(y):
            return k.evaluate([x + y / 2], [x - y / 2]) * np.exp(-1j * pp * y)

        re_val, _ = scipy.integrate.quad(lambda y: integrand(y).real, -np.inf, np.inf, epsabs=1e-12)
        im_val, _ = scipy.integrate.quad(lambda y: integrand(y).imag, -np.inf, np.inf, epsabs=1e-12)
        ref = (re_val + 1j * im_val) / (2 * np.pi)
        assert abs(w.evaluate([x], [pp]) - ref) < 1e-9 * max(1.0, abs(ref))


def test_wigner_round_trip():
    rng = np.random.default_rng(47)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        k = random_kernel(rng, n, terms=3, max_deg=2)
        back = wigner_inverse(wigner_transform(k))
        for _ in range(4):
            x, y = rng.normal(size=n), rng.normal(size=n)
            v1, v2 = k.evaluate(x, y), back.evaluate(x, y)
            assert abs(v1 - v2) < 1e-8 * max(1.0, abs(v1))


def test_uncoupled_block_integrates_with_a_parameter_riding_along():
    # A trace chain's shape: the internal block has no linear term and no
    # coupling to the external (parameter) variable, so the result keeps the
    # external quadratic and linear parts and is a polynomial in the parameter.
    quad = [[1.5, 0.25, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 0.0]]
    terms = {(2, 0, 0): 1.0, (1, 1, 1): -0.5, (0, 2, 2): 2.0, (0, 0, 1): 3.0}
    for number, dtype in ((complex, complex), (mpmath.mpf, object)):
        with mpmath.workdps(30):
            q = np.array([[number(v) for v in row] for row in quad], dtype=dtype)
            p = MultiPoly(3, {e: number(c) for e, c in terms.items()})
            lin = np.array([number(0)] * 3, dtype=dtype)
            form = wick.GaussianForm(p, q, lin).integrate([0, 1])
            assert form.nvars == 1 and form.quad[0, 0] == 0 and form.lin[0] == 0
            assert form.const == 0
            for g in (-1.0, 0.5, 2.0):
                at_g = MultiPoly(2, {(a, b): c * g**e for (a, b, e), c in terms.items()})
                want = wick.poly_gaussian_integral(at_g, np.array(quad)[:2, :2])
                got = complex(form.scale * form.poly((number(g),)))
                assert abs(got - want) <= 1e-12 * abs(want), (number, g)


def _integer_form(quad, terms, scale=1):
    nv = len(quad)
    return wick.GaussianForm(
        MultiPoly._from_terms(nv, dict(terms)),
        np.array(quad, dtype=object),
        np.zeros(nv, dtype=object),
        0,
        scale,
    )


def test_integer_integration_matches_the_mpmath_engine():
    # exp(-z^T (N / 8) z) over (z0, z1), a parameter z2 riding along; odd,
    # even and constant terms in the integrated variables.
    quad = [[6, 1, 0], [1, 3, 0], [0, 0, 0]]
    terms = {(2, 0, 0): 3, (1, 1, 1): -2, (0, 2, 2): 5, (0, 0, 1): 7, (4, 0, 0): 1,
             (1, 0, 0): 9, (3, 3, 1): -4}
    form = _integer_form(quad, terms, scale=3)
    assert type(form.const) is int and type(form.scale) is int
    poly, det, order = wick.integrate_integer(form, [0, 1], 8)
    assert det == 17 and order == 3 and poly.nvars == 1
    assert all(type(c) is int for c in poly.terms.values())
    with mpmath.workdps(60):
        mp_quad = np.array([[mpmath.mpf(v) / 8 for v in row] for row in quad], dtype=object)
        mp_poly = MultiPoly(3, {e: mpmath.mpf(c) for e, c in terms.items()})
        ref = wick.GaussianForm(mp_poly, mp_quad, np.array([mpmath.mpf(0)] * 3, dtype=object),
                                0, 3).integrate([0, 1])
        for g in (-1.5, 0.0, 0.25, 3.0):
            x = (mpmath.mpf(g),)
            got = mpmath.pi * mpmath.sqrt(mpmath.mpf(8) ** 2 / det) * poly(x) / (2 * det) ** order
            want = ref.scale * ref.poly(x)
            assert abs(got - want) <= mpmath.mpf("1e-55") * abs(want), g


def test_integer_integration_rejects_what_it_cannot_integrate():
    with pytest.raises(IndefiniteMatrixError):
        wick.integrate_integer(_integer_form([[1, 2], [2, 1]], {(2, 0): 1}), [0, 1])
    with pytest.raises(ValueError, match="uncoupled"):
        wick.integrate_integer(_integer_form([[2, 1], [1, 2]], {(2, 0): 1}), [0])
    with pytest.raises(wick.DegreeCapError):
        wick.integrate_integer(_integer_form([[2]], {(18,): 1}), [0])
