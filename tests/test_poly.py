import mpmath
import numpy as np
import pytest

from conftest import brute_force_gate, random_self_adjoint_poly, universal_point_check
from polygauss.pipeline import run_pipeline, verify_certificate
from polygauss.poly import MultiPoly, odd_degree_gate
from polygauss.specio import parse_kernel_spec


def test_evaluate_examples():
    p = MultiPoly(2, {(1, 1): 1.0})  # x*y
    assert p.evaluate([2.0], [3.0]) == 6.0
    p = MultiPoly(2, {(2, 0): 1.0, (0, 2): 1.0})
    assert p.evaluate([1.0], [1.0]) == 2.0
    # gamma (x+y)^2 - (x-y)^2 + 1 at gamma=1, (x, y) = (1, 0)
    p = MultiPoly(2, {(2, 0): 0.0, (1, 1): 4.0, (0, 2): 0.0, (0, 0): 1.0})
    assert p.evaluate([1.0], [0.0]) == 1.0


def test_evaluate_dimension_mismatch():
    p = MultiPoly(2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        p.evaluate([1.0, 2.0], [3.0, 4.0])


def test_ring_axioms_at_random_points():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = random_self_adjoint_poly(rng, n, terms=5, max_deg=3)
        q = random_self_adjoint_poly(rng, n, terms=5, max_deg=3)
        v = rng.normal(size=2 * n)
        scale = max(abs(p(v)), abs(q(v)), 1.0)
        assert abs((p + q)(v) - (p(v) + q(v))) < 1e-10 * scale
        assert abs((p * q)(v) - p(v) * q(v)) < 1e-10 * scale**2


def test_zero_polynomial_has_no_degree():
    z = MultiPoly.zero(4)
    assert z.is_zero() and z.degree() is None
    cancel = MultiPoly(2, {(1, 0): 1.0}) - MultiPoly(2, {(1, 0): 1.0})
    assert cancel.is_zero()


def test_pruning_keeps_degree_well_defined():
    big = MultiPoly(2, {(4, 4): 1.0, (0, 0): 1.0})
    tiny = MultiPoly(2, {(4, 4): 1.0, (0, 0): 1.0 - 1e-16})
    diff = big - tiny
    assert diff.degree() == 0  # the 1e-16 residue at (0,0) survives, (4,4) cancels


def test_mpmath_coefficients_keep_their_type_and_are_never_pruned():
    with mpmath.workdps(50):
        tiny = mpmath.mpf("1e-25")
        p = MultiPoly(2, {(1, 0): mpmath.mpf(1), (0, 1): tiny})
        q = MultiPoly(2, {(0, 0): mpmath.mpf(2), (1, 0): mpmath.mpf(3)})
        for r in (p, p + q, p * q, p.rename_vars(3, [2, 0])):
            assert all(isinstance(c, mpmath.mpf) for c in r.terms.values())
        assert p.terms[(0, 1)] == tiny
        assert (p + q).terms[(0, 1)] == tiny
        assert (p * q).terms[(0, 1)] == 2 * tiny
        assert p.rename_vars(3, [2, 0]).terms == {(0, 0, 1): 1, (1, 0, 0): tiny}


def test_int_coefficients_stay_exact_and_are_never_pruned():
    # (1e15 x + y - 3)(x + 1e16): coefficients from 1 to about 1e31, so a
    # float64 product would prune the x*y term below 1e-14 of the largest.
    p = MultiPoly._from_terms(2, {(1, 0): 10**15, (0, 1): 1, (0, 0): -3})
    q = MultiPoly._from_terms(2, {(1, 0): 1, (0, 0): 10**16})
    want = {
        (2, 0): 10**15,
        (1, 0): 10**31 - 3,
        (1, 1): 1,
        (0, 1): 10**16,
        (0, 0): -3 * 10**16,
    }
    for r in (p * q, q * p):
        assert r.terms == want
        assert all(type(c) is int for c in r.terms.values())
    for r in (p + q, p - q, 3 * p, p * -2, p.rename_vars(3, [2, 0]), (p * q) ** 2):
        assert all(type(c) is int for c in r.terms.values())
    assert (p * 3).terms == {e: 3 * c for e, c in p.terms.items()}
    as_complex = MultiPoly(2, p.terms) * MultiPoly(2, q.terms)
    assert (1, 1) not in as_complex.terms  # the float64 product prunes it


def _call_on_numpy_scalars(p: MultiPoly, point) -> complex:
    """``MultiPoly.__call__``'s expression evaluated on numpy scalars."""
    total = 0
    for exps, coeff in p.terms.items():
        val = coeff
        for z, e in zip(np.asarray(point), exps):
            if e:
                val *= z**e
        total += val
    return total


def test_call_is_exact_on_ints_and_bit_identical_on_floats():
    # Coefficients above 2^63 at an integer point: int64 scalars would overflow.
    p = MultiPoly._from_terms(1, {(3,): 2**70, (0,): 1}, False)
    assert p([-3]) == -27 * 2**70 + 1
    assert type(p([-3])) is int
    q = MultiPoly._from_terms(2, {(2, 1): 3**50, (0, 5): -(2**64), (1, 0): 7})
    value = q(np.array([-5, 4]))
    assert value == 3**50 * 25 * 4 - 2**64 * 4**5 - 35 and type(value) is int
    rng = np.random.default_rng(71)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        poly = random_self_adjoint_poly(rng, n, terms=6, max_deg=4)
        for point in (rng.normal(size=2 * n), rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)):
            got, want = poly(point), _call_on_numpy_scalars(poly, point)
            assert np.complex128(got).tobytes() == np.complex128(want).tobytes()


def test_scalar_factors_and_divisors_keep_the_coefficient_type():
    with mpmath.workdps(50):
        p = MultiPoly(1, {(0,): mpmath.mpf(3), (2,): mpmath.mpf("0.5")})
        for r in (2 * p, p * -1, p * 2.0, p / 3, p / 2.0):
            assert all(type(c) is mpmath.mpf for c in r.terms.values())
        assert (p / 3).terms[(0,)] == 1
        assert (p / 3).terms[(2,)] == mpmath.mpf("0.5") / 3
        assert (p * 1j).terms[(0,)] == mpmath.mpc(0, 3)
    q = MultiPoly(2, {(1, 0): 3 + 1j, (0, 1): 0.1, (1, 1): -2.5j})
    for s in (3, -1, 0.7, 1.5 + 2j):
        assert (q * s).terms == {e: s * c for e, c in q.terms.items()}
        assert all(type(c) is complex for c in (s * q).terms.values())
        assert (q / s).terms == {e: c / s for e, c in q.terms.items()}
    with pytest.raises(TypeError):
        q / q


def test_self_adjointness_examples():
    assert MultiPoly(2, {(1, 1): 1.0}).is_self_adjoint()
    assert MultiPoly(2, {(1, 0): 1j, (0, 1): -1j}).is_self_adjoint()
    assert not MultiPoly(2, {(1, 0): 1.0}).is_self_adjoint()


def test_self_adjoint_implies_real_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = random_self_adjoint_poly(rng, n, terms=6, max_deg=3)
        for _ in range(5):
            x = rng.normal(size=n)
            val = p.evaluate(x, x)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))


def test_odd_degree_gate_examples():
    v = odd_degree_gate(MultiPoly(2, {(1, 0): 1.0, (0, 1): 1.0}))  # x + y
    assert v.kind == "reject_odd" and v.witness == ()
    v = odd_degree_gate(MultiPoly(2, {(1, 1): 1.0}))  # x*y: the only restriction kills it
    assert v.kind == "pass"
    # n=2: x1 y1 + x2 + y2; zeroing pair 1 leaves the odd x2 + y2
    p = MultiPoly(4, {(1, 0, 1, 0): 1.0, (0, 1, 0, 0): 1.0, (0, 0, 0, 1): 1.0})
    v = odd_degree_gate(p)
    assert v.kind == "reject_reducible_odd" and v.witness == (0,)


def _unit(n: int, i: int, e: int = 1) -> tuple[int, ...]:
    return tuple(e if d == i else 0 for d in range(n))


def _reducible_odd_terms(n: int) -> dict:
    """``1 + x1 + y1 + xn yn + xn^2 yn^2``: odd once pair n is zeroed but not pair 1."""
    zero = (0,) * n
    return {
        zero + zero: 1.0,
        _unit(n, 0) + zero: 0.7,
        zero + _unit(n, 0): 0.7,
        _unit(n, n - 1) + _unit(n, n - 1): 1.1,
        _unit(n, n - 1, 2) + _unit(n, n - 1, 2): 1.3,
    }


def test_odd_degree_gate_zero_and_cap():
    """The gate has no size cap: it decides n = 24 and n = 40 like n = 3."""
    with pytest.raises(ValueError):
        odd_degree_gate(MultiPoly.zero(2))
    wide = MultiPoly(6, {(2, 0, 0, 0, 0, 0): 1.0, (0, 0, 0, 2, 0, 0): 1.0})
    assert odd_degree_gate(wide).kind == "pass"
    for n in (24, 40):
        v = odd_degree_gate(MultiPoly(2 * n, _reducible_odd_terms(n)))
        assert v.kind == "reject_reducible_odd"
        assert v.witness == tuple(range(1, n)) and v.restricted_degree == 1
    # Every odd term x_i + y_i is outranked by x_i^2 y_i^2 of the same pair.
    n = 40
    zero = (0,) * n
    terms = {
        zero + zero: 1.0,
        _unit(n, 0) + _unit(n, n - 1): 0.5,
        _unit(n, n - 1) + _unit(n, 0): 0.5,
    }
    for i in range(n):
        terms[_unit(n, i) + zero] = terms[zero + _unit(n, i)] = 0.3
        terms[_unit(n, i, 2) + _unit(n, i, 2)] = 1.0
    assert odd_degree_gate(MultiPoly(2 * n, terms)).kind == "pass"


def test_pipeline_certifies_reducible_odd_kernel_at_large_n():
    n = 24
    doc = {
        "n": n,
        "a": np.eye(n).ravel().tolist(),
        "b": [0.0] * (n * n),
        "c": (0.3 * np.eye(n)).ravel().tolist(),
        "poly": [
            {"exponents": list(e), "coeff": [c, 0.0]} for e, c in _reducible_odd_terms(n).items()
        ],
    }
    spec = parse_kernel_spec(doc)
    report = run_pipeline(spec)
    assert report.certificate_stage == "odd_degree_gate"
    assert report.certificate == {
        "kind": "odd_degree",
        "witness_subset": list(range(2, n + 1)),
        "restricted_degree": 1,
    }
    assert verify_certificate(spec, report.certificate)


def test_odd_degree_gate_matches_brute_force_corpus():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 5))
        nterms = int(rng.integers(1, 7))
        terms = {}
        for _ in range(nterms):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=2 * n))
            if sum(exps) > 5:
                continue
            terms[exps] = complex(rng.normal(), rng.normal())
        p = MultiPoly(2 * n, terms)
        if p.is_zero():
            continue
        checked += 1
        kind, witness, _ = brute_force_gate(p)
        verdict = odd_degree_gate(p)
        assert verdict.kind == kind
        if kind == "reject_reducible_odd":
            assert verdict.witness == witness
    assert checked == 500


def test_odd_degree_gate_matches_brute_force_on_sparse_supports():
    """Kind, witness and restricted degree agree with enumeration up to n = 7."""
    rng = np.random.default_rng(18)
    kinds = {"reject_odd": 0, "reject_reducible_odd": 0, "pass": 0}
    for _ in range(5000):
        n = int(rng.integers(1, 8))
        terms = {}
        for _ in range(int(rng.integers(1, 12))):
            exps = [0] * (2 * n)
            for i in rng.choice(n, size=min(int(rng.integers(0, 4)), n), replace=False):
                exps[i], exps[n + i] = (int(v) for v in rng.integers(0, 3, size=2))
                if exps[i] == exps[n + i] == 0:
                    exps[i] = 1
            terms[tuple(exps)] = complex(rng.normal(), rng.normal())
        p = MultiPoly(2 * n, terms)
        v = odd_degree_gate(p)
        assert (v.kind, v.witness, v.restricted_degree) == brute_force_gate(p)
        kinds[v.kind] += 1
    assert kinds["reject_reducible_odd"] >= 1000 and kinds["pass"] >= 1000


def test_universal_point_check_symmetric_power_is_nonnegative():
    # x^l y^m + x^m y^l with l == m passes every finite check.
    p = MultiPoly(2, {(1, 1): 2.0})
    rng = np.random.default_rng(13)
    for _ in range(20):
        pts = rng.normal(size=(4, 1))
        cs = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert universal_point_check(p, pts, cs) >= -1e-12


def test_universal_point_check_asymmetric_power_counterexample():
    # x^3 y + x y^3 at points (1, lambda) with coefficients (2, -1):
    # the form equals 2 (lambda^3 - 2)(lambda - 2) and is negative at 1.3.
    p = MultiPoly(2, {(3, 1): 1.0, (1, 3): 1.0})
    lam = 1.3
    value = universal_point_check(p, [[1.0], [lam]], [2.0, -1.0])
    expected = 2.0 * (lam**3 - 2.0) * (lam - 2.0)
    assert abs(value - expected) < 1e-12
    assert value < 0.0


def test_universal_point_check_single_point_is_diagonal():
    rng = np.random.default_rng(14)
    p = random_self_adjoint_poly(rng, 2, terms=5, max_deg=3)
    x = rng.normal(size=2)
    value = universal_point_check(p, [x], [1.0])
    assert abs(value - p.evaluate(x, x).real) < 1e-12


def test_universal_point_check_randomized_search_finds_violation():
    # For l != m a short random search over (lambda, coeffs (2, -1)) succeeds.
    rng = np.random.default_rng(15)
    for l, m in [(3, 1), (2, 0), (4, 2)]:
        p = MultiPoly(2, {(l, m): 1.0, (m, l): 1.0})
        found = False
        for _ in range(100):
            lam = rng.uniform(0.1, 3.0)
            val = universal_point_check(p, [[1.0], [lam]], [2.0, -1.0])
            if val < -1e-12:
                found = True
                break
        assert found, (l, m)


def test_universal_point_check_requires_self_adjoint():
    with pytest.raises(ValueError):
        universal_point_check(MultiPoly(2, {(1, 0): 1.0}), [[0.0]], [1.0])


def test_records_round_trip_and_ordering():
    rng = np.random.default_rng(16)
    p = random_self_adjoint_poly(rng, 2, terms=6, max_deg=3)
    q = MultiPoly.from_records(p.nvars, p.to_records())
    assert q == p
    degrees = [sum(r["exponents"]) for r in p.to_records()]
    assert degrees == sorted(degrees)


def test_compose_affine_matches_pointwise():
    rng = np.random.default_rng(17)
    p = random_self_adjoint_poly(rng, 2, terms=5, max_deg=3)
    lin = rng.normal(size=(4, 3))
    const = rng.normal(size=4)
    q = p.compose_affine(lin, const)
    for _ in range(5):
        z = rng.normal(size=3)
        expected = p(lin @ z + const)
        assert abs(q(z) - expected) < 1e-9 * max(1.0, abs(expected))


def test_rename_vars_collapses_pairs():
    p = MultiPoly(2, {(2, 1): 3.0})  # x^2 y
    q = p.rename_vars(1, [0, 0])  # x = y = u
    assert q.terms == {(3,): 3.0 + 0j}


def test_odd_degree_certificate_rejects_out_of_range_and_repeated_pairs():
    # The reducible-odd shape ``1 + c1 (x1 + y1) + c2 x4 y4 + c3 x4^2 y4^2``:
    # zeroing pair 4 but not pair 1 leaves degree 1.
    n = 4
    rng = np.random.default_rng(83)
    c1, c2, c3 = rng.uniform(0.5, 1.5, size=3)
    terms = {(0,) * 8: 1.0, (1, 0, 0, 0, 0, 0, 0, 0): c1, (0, 0, 0, 0, 1, 0, 0, 0): c1,
             (0, 0, 0, 1, 0, 0, 0, 1): c2, (0, 0, 0, 2, 0, 0, 0, 2): c3}
    doc = {
        "n": n,
        "a": np.eye(n).ravel().tolist(),
        "b": [0.0] * (n * n),
        "c": (0.3 * np.eye(n)).ravel().tolist(),
        "poly": [{"exponents": list(e), "coeff": [float(c), 0.0]} for e, c in terms.items()],
    }
    spec = parse_kernel_spec(doc)
    report = run_pipeline(spec)
    assert report.certificate["witness_subset"] == [2, 3, 4]
    assert verify_certificate(spec, report.certificate)
    for witness in ([0], [0, 2, 3], [n + 1], [2, 4, 4], [-3]):
        assert not verify_certificate(spec, {**report.certificate, "witness_subset": witness})
    assert verify_certificate(spec, {**report.certificate, "witness_subset": [4]})
