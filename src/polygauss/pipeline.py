"""Ordered positivity pipeline with machine-checkable certificates.

Stages run cheapest first and short-circuit on the first certificate of
non-positivity:

1. self-adjointness of the polynomial factor (a positive operator must be
   self-adjoint),
2. the odd-degree gate (odd degree, directly or after zeroing coordinate
   pairs, rules positivity out),
3. the Gaussian spectral gate (a non-positive Gaussian part rules out every
   polynomial factor at once),
4. seeded Mercer point-set search,
5. the e_k trace-moment sweep,
6. the same sweep over shift-equivalent Gaussian weights.

No stage can certify positivity; a clean run is reported as "undecided".
Every certificate carries the data needed to re-verify it standalone via
:func:`verify_certificate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import spectral
from .entangle import npt_gate
from .gaussian import equiv, gaussian_positive, shifted_triple
from .poly import MultiPoly, odd_degree_gate
from .specio import ParsedSpec, jsonable
from .wick import DEFAULT_DEGREE_CAP

__all__ = ["PipelineConfig", "PipelineReport", "StageResult", "run_pipeline", "verify_certificate"]


@dataclass(frozen=True)
class PipelineConfig:
    kmax: int = 5
    trials: int = 200
    points_per_trial: int = 20
    seed: int = 0
    deltas: Sequence[float] = (10.0, 100.0, 1000.0)
    escalate_npt: bool = False


@dataclass(frozen=True)
class StageResult:
    name: str
    status: str  # "passed" | "certificate" | "skipped" | "info"
    elapsed: float
    payload: dict


@dataclass(frozen=True)
class PipelineReport:
    checksum: str
    kmax: int
    stages: tuple[StageResult, ...] = field(default_factory=tuple)
    certificate_stage: Optional[str] = None
    certificate: Optional[dict] = None
    npt: Optional[dict] = None

    @property
    def not_psd(self) -> bool:
        return self.certificate is not None

    @property
    def verdict(self) -> str:
        if self.not_psd:
            return f"not_psd({self.certificate_stage})"
        return f"undecided(kmax={self.kmax}); no stage can certify positivity"

    def to_dict(self) -> dict:
        return jsonable(
            {
                "checksum": self.checksum,
                "verdict": "not_psd" if self.not_psd else "undecided",
                "kmax": self.kmax,
                "certificate_stage": self.certificate_stage,
                "certificate": self.certificate,
                "npt": self.npt,
                "stages": [
                    {
                        "name": s.name,
                        "status": s.status,
                        "elapsed_s": round(s.elapsed, 6),
                        **s.payload,
                    }
                    for s in self.stages
                ],
            }
        )


def _self_adjoint_witness(poly: MultiPoly) -> Optional[dict]:
    diff = poly - poly.adjoint()
    if diff.is_zero():
        return None
    exps, coeff = max(diff.terms.items(), key=lambda kv: abs(kv[1]))
    return {"exponents": list(exps), "mismatch": coeff}


def run_pipeline(
    spec: ParsedSpec, config: PipelineConfig = PipelineConfig()
) -> PipelineReport:
    stages: list[StageResult] = []
    certificate: Optional[dict] = None
    certificate_stage: Optional[str] = None
    npt: Optional[dict] = None
    for name, run in _stage_table(spec, config):
        t0 = time.perf_counter()
        status, payload = run()
        stages.append(StageResult(name, status, time.perf_counter() - t0, payload))
        if status == "certificate":
            certificate, certificate_stage = payload, name
            break
        if status == "info":
            npt = jsonable(payload)
    return PipelineReport(
        spec.checksum, config.kmax, tuple(stages), certificate_stage, certificate, npt
    )


def _stage_table(spec: ParsedSpec, config: PipelineConfig):
    """Yield ``(name, run)`` per stage in order; ``run()`` gives ``(status, payload)``.

    The kernel is built only once the polynomial is known to be self-adjoint.
    """
    yield "self_adjoint", lambda: _self_adjoint_stage(spec.poly)
    kernel = spec.kernel()
    yield "odd_degree_gate", lambda: _odd_degree_stage(spec.poly)
    yield "gaussian_gate", lambda: _gaussian_stage(spec.triple)
    yield "mercer_search", lambda: _mercer_stage(kernel, config)
    yield "ek_sweep", lambda: _ek_stage(kernel, config.kmax)
    for delta in config.deltas:
        yield f"delta_sweep(delta={delta:g})", partial(_ek_stage, kernel, config.kmax, delta)
    # Informational NPT stage (does not affect the positivity verdict).
    if spec.partition is not None:
        yield "npt", lambda: _npt_stage(kernel, spec.partition, config)


def _self_adjoint_stage(poly: MultiPoly) -> tuple[str, dict]:
    witness = _self_adjoint_witness(poly)
    if witness is None:
        return "passed", {}
    return "certificate", {"kind": "not_self_adjoint", **witness}


def _odd_degree_stage(poly: MultiPoly) -> tuple[str, dict]:
    gate = odd_degree_gate(poly)
    if gate.rejected:
        return "certificate", {
            "kind": "odd_degree",
            "witness_subset": [i + 1 for i in (gate.witness or ())],
            "restricted_degree": gate.restricted_degree,
        }
    return "passed", {"gate": gate.kind}


def _gaussian_stage(triple) -> tuple[str, dict]:
    gv = gaussian_positive(triple)
    if gv.positive:
        return "passed", {"mu_max": gv.mu_max, "spectrum": gv.spectrum.mus}
    return "certificate", {
        "kind": "gaussian_gate",
        "mu_max": gv.mu_max,
        "spectrum": gv.spectrum.mus,
        "borderline": gv.borderline,
    }


def _mercer_stage(kernel, config: PipelineConfig) -> tuple[str, dict]:
    cert = spectral.mercer_search(
        kernel, trials=config.trials, points_per_trial=config.points_per_trial, seed=config.seed
    )
    if cert is None:
        return "passed", {"trials": config.trials, "seed": config.seed}
    return "certificate", {
        "kind": "mercer",
        "points": cert.points,
        "coeffs": cert.coeffs,
        "value": cert.value,
        "trial": cert.trial,
    }


def _ek_stage(kernel, kmax: int, delta: Optional[float] = None) -> tuple[str, dict]:
    """The e_k sweep on the kernel itself, or on its delta-shifted equivalent.

    The sweep's order limits are checked first: they do not depend on the
    shift, so a kernel over the degree cap skips every e_k stage without
    computing a shifted trace.
    """
    try:
        spectral.check_sweep_reach(kernel, kmax)
        if delta is not None:
            shifted = spectral.delta_shifted_normalized(kernel, delta)
            if not equiv(kernel.triple, shifted.triple):
                return "skipped", {"reason": "shift left the equivalence class"}
            kernel = shifted
        report = spectral.positivity_sweep(kernel, kmax)
    except ValueError as exc:
        return "skipped", {"reason": str(exc)}
    if report.certified_not_psd:
        return "certificate", _ek_payload(delta or 0.0, report)
    if delta is not None:
        return "passed", {"eks": report.eks}
    return "passed", {"eks": report.eks, "moments": report.moments}


def _npt_stage(kernel, partition, config: PipelineConfig) -> tuple[str, dict]:
    verdict = npt_gate(
        kernel,
        partition,
        escalate=config.escalate_npt,
        kmax=config.kmax,
        trials=config.trials,
        points_per_trial=config.points_per_trial,
        seed=config.seed,
    )
    payload = {
        "verdict": verdict.verdict,
        "stage": verdict.stage,
        "pt_mu_max": verdict.gaussian_verdict.mu_max,
    }
    if verdict.sweep_kmax is not None:
        payload["ek_kmax"] = verdict.sweep_kmax
    return "info", payload


def _ek_payload(delta: float, report: spectral.SpectralReport) -> dict:
    k = report.first_negative
    return {
        "kind": "ek_sweep",
        "delta": delta,
        "k": k,
        "ek_value": report.eks[k - 1],
        "moments": report.moments,
        "eks": report.eks,
        "tolerance": report.tolerance,
    }


def verify_certificate(spec: ParsedSpec, certificate: dict) -> bool:
    """Re-check a NotPSD certificate from its serialized payload alone."""
    kind = certificate["kind"]
    if kind == "not_self_adjoint":
        witness = _self_adjoint_witness(spec.poly)
        return witness is not None
    if kind == "odd_degree":
        subset = [int(i) - 1 for i in certificate["witness_subset"]]
        n = spec.poly.n
        if len(set(subset)) != len(subset) or not all(0 <= i < n for i in subset):
            return False  # witness pairs are distinct and 1-based
        dead = subset + [n + i for i in subset]
        restricted = spec.poly.restrict_zero(dead)
        deg = restricted.degree()
        return deg is not None and deg % 2 == 1
    if kind == "gaussian_gate":
        return not gaussian_positive(spec.triple).positive
    if kind == "mercer":
        return _recheck_mercer(spec.kernel(), certificate["points"], certificate["coeffs"])
    if kind == "ek_sweep":
        return _recheck_ek(spec.kernel(), float(certificate["delta"]), int(certificate["k"]))
    raise ValueError(f"unknown certificate kind {kind!r}")


def _recheck_mercer(kernel, points, coeffs) -> bool:
    """Re-check a Mercer claim by direct summation against the producer's threshold.

    The claim must hold one finite point of width n per finite coefficient,
    at least one of each; anything else is rejected.  The form
    ``sum_ij c_i conj(c_j) kernel(x_i, x_j)`` is summed directly and must
    fall below ``-MERCER_TOL * scale * |c|^2``, the search's certificate
    threshold, with ``scale`` taken from the same direct ``kernel.evaluate``
    values (:func:`spectral.direct_mercer_form`) rather than from the
    stacked Gram route that produced the claim.
    """
    try:
        pts = np.asarray(points, dtype=float)
        cs = np.asarray(
            [complex(*v) if isinstance(v, (list, tuple)) else complex(v) for v in coeffs]
        )
    except (TypeError, ValueError, IndexError):
        return False
    if pts.ndim != 2 or pts.shape[1] != kernel.n or not 0 < len(pts) == len(cs):
        return False
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(cs))):
        return False
    norm2 = float(np.vdot(cs, cs).real)
    if not norm2 > 0.0:
        return False
    value, scale = spectral.direct_mercer_form(kernel, pts, cs)
    return bool(value / norm2 < -spectral.MERCER_TOL * scale)


def _recheck_ek(kernel, delta: float, k: int) -> bool:
    """Re-derive an e_k certificate from the full, unfolded chain integrands.

    The producing sweep integrates orbit-folded chains (:func:`spectral.moment`);
    this re-check integrates every term of ``chain_integrand(chain_links(...))``,
    built without the sweep's cache, then applies the same Newton recursion
    and threshold.  A k that no sweep can reach is rejected.
    """
    deg = kernel.poly.degree() or 0
    if not 1 <= k <= spectral.MAX_MOMENT_ORDER or k * deg > DEFAULT_DEGREE_CAP:
        return False

    def full_moment(kern, j: int) -> float:
        links = spectral.chain_links(kern.poly, kern.n, j)
        form = spectral.chain_integrand(links, kern.exponent_matrix(), j, kern.norm)
        return form.integrate(range(form.nvars)).real_scalar()

    if delta:
        kernel = kernel.with_triple(shifted_triple(kernel.triple, delta)).with_norm(1.0)
        tr = full_moment(kernel, 1)
        if tr <= 0.0:
            return False
        kernel = kernel.with_norm(1.0 / tr)
    report = spectral.sweep_report([full_moment(kernel, j) for j in range(1, k + 1)])
    return report.first_negative == k
