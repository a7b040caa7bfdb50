import math

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
