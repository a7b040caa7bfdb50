import numpy as np
import pytest

from conftest import random_kernel
from polygauss import entangle, gaussian, spectral
from polygauss.entangle import Bipartition, entangled_fixture
from polygauss.gaussian import GaussianTriple
from polygauss.kernels import PolyGaussianKernel
from polygauss.pipeline import PipelineConfig, run_pipeline
from polygauss.poly import MultiPoly
from polygauss.specio import parse_kernel_spec, serialize_kernel_spec


def _product_state_triple() -> GaussianTriple:
    a = np.diag([1.5, 2.0])
    c = np.diag([0.8, 0.6])
    return GaussianTriple(a, np.zeros((2, 2)), c)


def test_bipartition_validation():
    b = Bipartition(3, (2, 0))
    assert b.part1 == (0, 2) and b.d1 == 2 and b.d2 == 1
    with pytest.raises(ValueError):
        Bipartition(2, ())
    with pytest.raises(ValueError):
        Bipartition(2, (0, 1))
    with pytest.raises(ValueError):
        Bipartition(2, (5,))


def test_partial_transpose_involution_and_trace():
    rng = np.random.default_rng(60)
    b = Bipartition(2, (0,))
    for _ in range(25):
        k = random_kernel(rng, 2, terms=3, max_deg=2)
        kt = entangle.partial_transpose(k, b)
        back = entangle.partial_transpose(kt, b)
        assert back.poly == k.poly
        assert np.allclose(back.triple.a, k.triple.a)
        assert np.allclose(back.triple.b, k.triple.b)
        assert np.allclose(back.triple.c, k.triple.c)
        tr_k = spectral.moment(k, 1)
        tr_t = spectral.moment(kt, 1)
        assert abs(tr_k - tr_t) <= 1e-10 * max(1.0, abs(tr_k))


def test_partial_transpose_diagonal_triple_invariant():
    t = GaussianTriple(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.diag([0.5, 0.25]))
    kt = entangle.partial_transpose_triple(t, Bipartition(2, (0,)))
    assert np.allclose(kt.a, t.a) and np.allclose(kt.c, t.c)


def test_partial_transpose_of_product_state_stays_positive():
    t = _product_state_triple()
    assert gaussian.gaussian_positive(t).positive
    pt = entangle.partial_transpose_triple(t, Bipartition(2, (1,)))
    assert gaussian.gaussian_positive(pt).positive


def test_partial_transpose_of_block_diagonal_symmetric_b_state():
    # Block-diagonal (with respect to the split) triples describe product
    # kernels; their partial transpose keeps a Gaussian-positive triple.
    a = np.diag([2.0, 1.8, 1.6])
    c = np.diag([0.9, 0.8, 0.7])
    b = np.diag([0.4, -0.3, 0.2])  # symmetric, block-diagonal
    t = GaussianTriple(a, b, c)
    assert gaussian.gaussian_positive(t).positive
    for part1 in [(0,), (1, 2), (0, 2)]:
        pt = entangle.partial_transpose_triple(t, Bipartition(3, part1))
        assert gaussian.gaussian_positive(pt).positive


def test_partial_transpose_swaps_polynomial_blocks():
    # P = x1 y1^2 -> swapping coordinate 1 gives y1 x1^2.
    p = MultiPoly(4, {(1, 0, 2, 0): 1.0, (2, 0, 1, 0): 1.0})
    k = PolyGaussianKernel(p, _product_state_triple())
    kt = entangle.partial_transpose(k, Bipartition(2, (0,)))
    assert kt.poly == p  # this particular P is symmetric under the swap
    q = MultiPoly(4, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 0.5})
    k2 = PolyGaussianKernel(q, _product_state_triple())
    k2t = entangle.partial_transpose(k2, Bipartition(2, (1,)))
    assert k2t.poly.terms == {(1, 0, 1, 0): 1.0 + 0j, (0, 1, 0, 1): 0.5 + 0j}


def test_entangled_fixture_spectra():
    t = entangled_fixture()
    state = gaussian.gaussian_positive(t)
    assert state.positive
    assert np.allclose(state.spectrum.mus, [np.sqrt(0.7), np.sqrt(0.3)], atol=1e-12)
    pt = entangle.partial_transpose_triple(t, Bipartition(2, (0,)))
    after = gaussian.gaussian_positive(pt)
    assert not after.positive
    assert np.allclose(after.spectrum.mus, [np.sqrt(2.1), np.sqrt(0.1)], atol=1e-12)


def test_npt_gate_certifies_fixture_for_any_polynomial():
    t = entangled_fixture()
    b = Bipartition(2, (0,))
    polys = [
        MultiPoly.constant(4, 1.0),
        MultiPoly(4, {(1, 0, 1, 0): 1.0, (0, 0, 0, 0): 0.5}),
        MultiPoly(4, {(0, 1, 0, 1): 2.0, (1, 0, 1, 0): 1.0, (0, 0, 0, 0): 1.0}),
        MultiPoly(4, {(2, 0, 2, 0): 1.0, (0, 0, 0, 0): 1.0}),
    ]
    mus = []
    for p in polys:
        verdict = entangle.npt_gate(PolyGaussianKernel(p, t), b)
        assert verdict.certified and verdict.stage == "gaussian_gate"
        mus.append(verdict.gaussian_verdict.mu_max)
    # The Gaussian-gate verdict depends only on the triple, never on P.
    assert np.allclose(mus, mus[0])


def test_npt_gate_product_state_inconclusive():
    k = PolyGaussianKernel.pure_gaussian(_product_state_triple())
    verdict = entangle.npt_gate(k, Bipartition(2, (0,)))
    assert not verdict.certified and verdict.verdict == "inconclusive"


def test_npt_gate_escalation_runs_clean_on_separable_state():
    k = PolyGaussianKernel.pure_gaussian(_product_state_triple())
    verdict = entangle.npt_gate(k, Bipartition(2, (0,)), escalate=True, kmax=3, trials=30)
    assert not verdict.certified and verdict.stage == "escalated"
    assert verdict.sweep is not None and not verdict.sweep.certified_not_psd


def test_escalated_npt_forwards_points_per_trial(monkeypatch):
    seen = []
    search = spectral.mercer_search

    def recording(kernel, **kwargs):
        seen.append(kwargs.get("points_per_trial"))
        return search(kernel, **kwargs)

    monkeypatch.setattr(spectral, "mercer_search", recording)
    k = PolyGaussianKernel.pure_gaussian(_product_state_triple())
    b = Bipartition(2, (0,))
    entangle.npt_gate(k, b, escalate=True, kmax=3, trials=5, points_per_trial=7)
    assert seen == [7]
    spec = parse_kernel_spec(serialize_kernel_spec(k, b))
    run_pipeline(spec, PipelineConfig(kmax=3, trials=5, points_per_trial=7, escalate_npt=True))
    assert seen == [7, 7, 7]  # the pipeline's own search, then the escalated NPT one


def test_gaussian_separability_verdicts():
    assert entangle.gaussian_separability(_product_state_triple(), Bipartition(2, (0,))) == "separable"
    assert entangle.gaussian_separability(entangled_fixture(), Bipartition(2, (0,))) == "entangled"
    a4 = np.eye(4) * 2.0
    c4 = np.eye(4) * 0.5
    t4 = GaussianTriple(a4, np.zeros((4, 4)), c4)
    assert entangle.gaussian_separability(t4, Bipartition(4, (0, 1))) == "out_of_scope"
    with pytest.raises(ValueError):
        entangle.gaussian_separability(GaussianTriple.from_scalars(1.0, 2.0), Bipartition(1, ()))


def test_gaussian_separability_matches_grid_oracle_sign():
    b = Bipartition(2, (0,))
    for t, expected in [(_product_state_triple(), "separable"), (entangled_fixture(), "entangled")]:
        verdict = entangle.gaussian_separability(t, b)
        assert verdict == expected
        pt = entangle.partial_transpose_triple(t, b)
        res = spectral.nystrom_oracle(
            PolyGaussianKernel.pure_gaussian(pt), grid_points=26, box_halfwidth=5.0
        )
        if expected == "entangled":
            assert res.eigenvalues[-1] < -1e-6
        else:
            assert res.eigenvalues[-1] > -1e-6


def test_preorder_npt_propagation():
    t = entangled_fixture()
    b = Bipartition(2, (0,))
    rec = entangle.preorder_npt_propagate(t, t, b)
    assert rec.holds
    shifted = gaussian.shifted_triple(t, 5.0)
    rec = entangle.preorder_npt_propagate(t, shifted, b)
    assert rec.holds  # PT images stay in one equivalence class under the shift
    bigger_gap = GaussianTriple(t.a + np.eye(2), t.b, t.c)
    rec = entangle.preorder_npt_propagate(bigger_gap, t, b)
    assert not rec.holds  # the A - C gap would have to shrink


def test_npt_gate_rejects_unnormalizable_kernel():
    # Diagonal integrand x1 + y1 is odd, so the trace vanishes: not a
    # density-operator candidate.
    p = MultiPoly(4, {(1, 0, 0, 0): 1.0, (0, 0, 1, 0): 1.0})
    k = PolyGaussianKernel(p, _product_state_triple())
    with pytest.raises(ValueError):
        entangle.npt_gate(k, Bipartition(2, (0,)))
