import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polygauss import numerics


def test_sym_eig_examples():
    w, _ = numerics.sym_eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    w, _ = numerics.sym_eig(np.diag([1.5, 1.0]))
    assert np.allclose(w, [1.0, 1.5])
    w, _ = numerics.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0])


def test_sym_eig_reconstruction_and_order():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        m = m + m.T
        w, v = numerics.sym_eig(m)
        assert np.all(np.diff(w) >= -1e-12)
        resid = np.linalg.norm(m - v @ np.diag(w) @ v.T)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(m))


def test_sym_eig_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.normal(size=(5, 5))
        m = m + m.T
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        w1, _ = numerics.sym_eig(m)
        w2, _ = numerics.sym_eig(q @ m @ q.T)
        assert np.max(np.abs(w1 - w2)) < 1e-9 * (1.0 + np.linalg.norm(m))


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(numerics.NotSymmetricError):
        numerics.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_psd_sqrt_examples():
    assert np.allclose(numerics.psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(numerics.psd_sqrt(np.diag([4.0, 0.25])), np.diag([2.0, 0.5]))
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    r = numerics.psd_sqrt(m)
    assert np.linalg.norm(r @ r - m) <= 1e-9 * (1.0 + np.linalg.norm(m))
    w, _ = numerics.sym_eig(r)
    assert np.allclose(w, [1.0, np.sqrt(3.0)])


def test_psd_sqrt_idempotent_under_squaring():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.normal(size=(4, 4))
        r0 = numerics.psd_sqrt(m @ m.T)
        assert np.linalg.norm(numerics.psd_sqrt(r0 @ r0) - r0) < 1e-8 * (1 + np.linalg.norm(r0))


def test_psd_sqrt_clamps_and_rejects():
    r = numerics.psd_sqrt(np.diag([1.0, -1e-14]))
    assert np.all(np.diag(r) >= 0.0)
    with pytest.raises(numerics.IndefiniteMatrixError):
        numerics.psd_sqrt(np.diag([1.0, -1e-3]))


def test_complex_sqrt_det_examples():
    assert abs(numerics.complex_sqrt_det(np.eye(4, dtype=complex)) - 1.0) < 1e-12
    assert abs(numerics.complex_sqrt_det(np.diag([4.0, 9.0]).astype(complex)) - 6.0) < 1e-12
    # det [[2, 1], [1, 2]] = 3 by cofactor expansion
    val = numerics.complex_sqrt_det(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
    assert abs(val - np.sqrt(3.0)) < 1e-12


def _random_right_half_plane(rng, m):
    re = rng.normal(size=(m, m))
    re = re @ re.T + m * np.eye(m)
    im = rng.normal(size=(m, m))
    return re + 1j * (im + im.T)


def test_complex_sqrt_det_squares_to_det():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = _random_right_half_plane(rng, int(rng.integers(1, 6)))
        val = numerics.complex_sqrt_det(m)
        det = np.linalg.det(m)
        assert abs(val * val - det) < 1e-8 * abs(det)


def test_complex_sqrt_det_continuity():
    # Small perturbations move the value a little; in particular the sign of
    # the real part cannot flip through a branch jump.
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = _random_right_half_plane(rng, 4)
        base = numerics.complex_sqrt_det(m)
        dm = rng.normal(size=(4, 4))
        dm = dm + dm.T
        for eps in (1e-7, 1e-9):
            moved = numerics.complex_sqrt_det(m + eps * dm)
            assert abs(moved - base) < 1e-4 * abs(base)


def test_complex_sqrt_det_rejects_left_half_plane():
    with pytest.raises(numerics.IndefiniteMatrixError):
        numerics.complex_sqrt_det(np.diag([-1.0 + 0j, 1.0]))


def _mp_matrix(a: np.ndarray) -> np.ndarray:
    return np.array([[mpmath.mpf(v) for v in row] for row in a], dtype=object)


def test_mp_inverse_matches_lu_inverse():
    rng = np.random.default_rng(5)
    with mpmath.workdps(100):
        for size in range(1, 7):
            for _ in range(3):
                g = rng.normal(size=(size, size))
                m = _mp_matrix(g @ g.T + 0.5 * np.eye(size))
                got = numerics.inverse(m)
                ref = mpmath.inverse(mpmath.matrix(m.tolist()))
                scale = max(abs(ref[i, j]) for i in range(size) for j in range(size))
                for i in range(size):
                    for j in range(size):
                        assert type(got[i, j]) is mpmath.mpf
                        assert got[i, j] == got[j, i]
                        assert abs(got[i, j] - ref[i, j]) <= mpmath.mpf("1e-90") * scale


def test_mp_inverse_rejects_a_matrix_that_is_not_positive_definite():
    with mpmath.workdps(100):
        for a in ([[1.0, 2.0], [2.0, 1.0]], [[-1.0]], [[1.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(numerics.IndefiniteMatrixError):
                numerics.inverse(_mp_matrix(np.array(a)))


def test_float_inverse_is_numpy_inverse():
    rng = np.random.default_rng(6)
    for size in range(1, 7):
        m = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        m = m + m.T + 2 * size * np.eye(size)
        assert np.array_equal(numerics.inverse(m), np.linalg.inv(m))
        assert np.array_equal(numerics.inverse(m.real), np.linalg.inv(m.real))


def test_sqrt_det_and_inverse_factor_an_mpmath_block_once(monkeypatch):
    rng = np.random.default_rng(8)
    factored = []
    cholesky = numerics._mp_cholesky

    def counted(m):
        factored.append(m)
        return cholesky(m)

    with mpmath.workdps(100):
        for size in range(1, 6):
            g = rng.normal(size=(size, size))
            m = _mp_matrix(g @ g.T + 0.5 * np.eye(size))
            want = numerics.complex_sqrt_det(m), numerics.inverse(m)
            factored.clear()
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "_mp_cholesky", counted)
                sqrt_det, inv = numerics.sqrt_det_and_inverse(m)
            assert len(factored) == 1
            assert sqrt_det == want[0]
            assert all(a == b for a, b in zip(inv.flat, want[1].flat))
        with pytest.raises(numerics.IndefiniteMatrixError):
            numerics.sqrt_det_and_inverse(_mp_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    m = np.array([[2.0, 0.5j], [0.5j, 3.0]])
    sqrt_det, inv = numerics.sqrt_det_and_inverse(m)
    assert sqrt_det == numerics.complex_sqrt_det(m)
    assert np.array_equal(inv, np.linalg.inv(m))


def _dyadic_int_matrix(m: np.ndarray) -> list[list[int]]:
    """A float matrix times the least power of two that makes it integral."""
    s = max(Fraction(float(v)).denominator.bit_length() - 1 for v in m.flat)
    return [[int(Fraction(float(v)) * 2**s) for v in row] for row in m]


def _fraction_det_inverse(m: list[list[int]]) -> tuple[Fraction, list[list[Fraction]]]:
    """Determinant and inverse by Gauss-Jordan elimination on fractions, with row pivoting."""
    size = len(m)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == r)) for i in range(size)]
           for r, row in enumerate(m)]
    det = Fraction(1)
    for k in range(size):
        p = next(i for i in range(k, size) if aug[i][k] != 0)
        if p != k:
            aug[k], aug[p] = aug[p], aug[k]
            det = -det
        det *= aug[k][k]
        aug[k] = [v / aug[k][k] for v in aug[k]]
        for i in range(size):
            if i != k and aug[i][k] != 0:
                aug[i] = [a - aug[i][k] * b for a, b in zip(aug[i], aug[k])]
    return det, [row[size:] for row in aug]


def test_integer_det_adjugate_matches_fraction_gauss_jordan():
    rng = np.random.default_rng(11)
    for size in range(1, 7):
        for scale in (1.0, 1e-3, 1e5):
            g = rng.normal(size=(size, size))
            m = _dyadic_int_matrix(scale * (g @ g.T + 0.1 * np.eye(size)))
            det, adj = numerics.integer_det_adjugate(np.array(m, dtype=object))
            ref_det, ref_inv = _fraction_det_inverse(m)
            assert type(det) is int and det == ref_det > 0
            assert adj.dtype == object and adj.shape == (size, size)
            for i in range(size):
                for j in range(size):
                    assert type(adj[i, j]) is int and adj[i, j] == ref_det * ref_inv[i][j]
    # Nested lists are accepted too.
    det, adj = numerics.integer_det_adjugate([[2, 1], [1, 3]])
    assert det == 5 and adj.tolist() == [[3, -1], [-1, 2]]


def test_integer_det_adjugate_rejects_what_is_not_positive_definite():
    for m in (
        [[0]],
        [[-2]],
        [[1, 2], [2, 4]],  # singular
        [[1, 0], [0, -3]],
        [[2, 3], [3, 2]],  # indefinite, positive diagonal
        [[4, 2, 0], [2, 1, 0], [0, 0, 5]],  # singular leading 2 x 2 block
        [[-1, 0], [0, -1]],
    ):
        with pytest.raises(numerics.IndefiniteMatrixError):
            numerics.integer_det_adjugate(m)
    with pytest.raises(numerics.NotSymmetricError):
        numerics.integer_det_adjugate([[2, 1], [0, 2]])
    with pytest.raises(TypeError):
        numerics.integer_det_adjugate([[2.0]])
    with pytest.raises(ValueError):
        numerics.integer_det_adjugate(np.empty((0, 0), dtype=object))


def test_exact_numbers_stay_ints_beside_integer_arrays():
    ints = np.array([[2, 1], [1, 3]], dtype=object)
    assert numerics.is_exact(ints) and numerics.is_exact(7)
    assert not numerics.is_exact(np.array([[2.0]])) and not numerics.is_exact(True)
    assert not numerics.is_exact(np.array([[mpmath.mpf(2)]], dtype=object))
    assert type(numerics.as_number(3, ints)) is int
    assert type(numerics.as_number(3, 5)) is int
    assert type(numerics.as_number(3.0, ints)) is mpmath.mpf
    assert type(numerics.as_number(3, np.array([[mpmath.mpf(2)]], dtype=object))) is mpmath.mpf
    assert type(numerics.as_number(3)) is complex


def test_bracket_root_linear():
    assert abs(numerics.bracket_root(lambda x: x - 2.0, 0.0, 5.0, 1e-10) - 2.0) < 1e-9


def test_bracket_root_cubic_fixtures():
    # Exact root of the first cubic: 2 + sqrt(11/2).
    root = numerics.bracket_root(
        lambda g: g**3 - 2.5 * g**2 - 7.5 * g - 2.25, 3.0, 5.0, 1e-10
    )
    assert abs(root - (2.0 + np.sqrt(5.5))) < 1e-8
    root = numerics.bracket_root(
        lambda g: 16 * g**3 - 34 * g**2 - 120 * g - 15, 3.0, 5.0, 1e-10
    )
    assert abs(root - 4.03924) < 1e-5


def test_bracket_root_requires_sign_change():
    with pytest.raises(numerics.BracketError):
        numerics.bracket_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)
    with pytest.raises(ValueError):
        numerics.bracket_root(lambda x: x, 1.0, -1.0, 1e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_bracket_root_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        numerics.bracket_root(lambda x: x, -1.0, 1.0, tol)


def test_bracket_root_reuses_known_end_values():
    calls = []

    def f(x):
        calls.append(x)
        return x - 2.0

    want = numerics.bracket_root(f, 0.0, 5.0, 1e-10)
    assert calls[:2] == [0.0, 5.0]
    evaluated = calls[2:]
    calls.clear()
    assert numerics._bracket_root(f, 0.0, 5.0, 1e-10, (-2.0, 3.0)) == want
    assert calls == evaluated
    assert numerics._bracket_root(f, 0.0, 5.0, 1e-10, (0.0, 3.0)) == 0.0
    with pytest.raises(numerics.BracketError):
        numerics._bracket_root(f, 0.0, 5.0, 1e-10, (1.0, 3.0))
    with pytest.raises(ValueError):
        numerics._bracket_root(f, 5.0, 0.0, 1e-10, (3.0, -2.0))
