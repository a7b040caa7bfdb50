import itertools
import json
import re

import numpy as np
import pytest

from conftest import WickTableReference
from polygauss import specio, spectral, wick
from polygauss.cli import main
from polygauss.gaussian import GaussianTriple
from polygauss.entangle import Bipartition, entangled_fixture
from polygauss.families import caldeira_kernel, kappa_gamma_kernel
from polygauss.kernels import PolyGaussianKernel
from polygauss.poly import MultiPoly
from polygauss.pipeline import PipelineConfig, run_pipeline, verify_certificate
from polygauss.specio import SpecError, parse_kernel_spec, serialize_kernel_spec


def _write_spec(tmp_path, kernel, partition=None, name="spec.json"):
    doc = serialize_kernel_spec(kernel, partition)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_spec_round_trip(tmp_path):
    kernel = kappa_gamma_kernel(3.0, 10.0)
    doc = serialize_kernel_spec(kernel, Bipartition(1, ()) if False else None)
    parsed = parse_kernel_spec(json.dumps(doc))
    doc2 = serialize_kernel_spec(parsed.kernel())
    assert doc == doc2
    assert parsed.checksum == specio.spec_checksum(doc2)


def test_spec_round_trip_with_partition(tmp_path):
    kernel = PolyGaussianKernel.pure_gaussian(entangled_fixture())
    doc = serialize_kernel_spec(kernel, Bipartition(2, (1,)))
    parsed = parse_kernel_spec(json.dumps(doc))
    assert parsed.partition is not None and parsed.partition.part1 == (1,)
    assert serialize_kernel_spec(parsed.kernel(), parsed.partition) == doc


def test_spec_errors_name_the_field():
    with pytest.raises(SpecError, match="'n'"):
        parse_kernel_spec({"a": [1.0]})
    with pytest.raises(SpecError, match="'a'"):
        parse_kernel_spec({"n": 1, "a": [1.0, 2.0], "b": [0.0], "c": [1.0], "poly": []})
    with pytest.raises(SpecError, match="positive definite"):
        parse_kernel_spec(
            {"n": 1, "a": [-1.0], "b": [0.0], "c": [1.0],
             "poly": [{"exponents": [0, 0], "coeff": [1.0, 0.0]}]}
        )
    with pytest.raises(SpecError, match="line 1"):
        parse_kernel_spec("{broken")
    with pytest.raises(SpecError, match="partition"):
        parse_kernel_spec(
            {"n": 2, "a": [1, 0, 0, 1], "b": [0, 0, 0, 0], "c": [0.5, 0, 0, 0.5],
             "poly": [{"exponents": [0, 0, 0, 0], "coeff": [1.0, 0.0]}],
             "partition": {"part1": [3]}}
        )


def test_pipeline_certificates_reverify(tmp_path):
    # Odd-degree certificate.
    doc = {
        "n": 1, "a": [1.0], "b": [0.0], "c": [0.5],
        "poly": [{"exponents": [1, 0], "coeff": [1.0, 0.0]},
                  {"exponents": [0, 1], "coeff": [1.0, 0.0]}],
    }
    spec = parse_kernel_spec(doc)
    report = run_pipeline(spec)
    assert report.not_psd and report.certificate_stage == "odd_degree_gate"
    assert verify_certificate(spec, report.certificate)

    # Gaussian-gate certificate.
    doc = {
        "n": 1, "a": [1.0], "b": [0.0], "c": [2.0],
        "poly": [{"exponents": [0, 0], "coeff": [1.0, 0.0]}],
    }
    spec = parse_kernel_spec(doc)
    report = run_pipeline(spec)
    assert report.not_psd and report.certificate_stage == "gaussian_gate"
    assert verify_certificate(spec, report.certificate)

    # Self-adjointness certificate.
    doc = {
        "n": 1, "a": [1.0], "b": [0.0], "c": [0.5],
        "poly": [{"exponents": [1, 0], "coeff": [1.0, 0.0]},
                  {"exponents": [0, 1], "coeff": [2.0, 0.0]}],
    }
    spec = parse_kernel_spec(doc)
    report = run_pipeline(spec)
    assert report.not_psd and report.certificate_stage == "self_adjoint"
    assert verify_certificate(spec, report.certificate)


def test_pipeline_mercer_or_ek_certificate_reverifies():
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(7.0)))
    report = run_pipeline(spec, PipelineConfig(kmax=3))
    assert report.not_psd
    assert report.certificate_stage in ("mercer_search", "ek_sweep")
    assert verify_certificate(spec, report.certificate)
    # The serialized (JSON round-tripped) certificate re-verifies too.
    round_tripped = json.loads(json.dumps(report.to_dict()))
    assert verify_certificate(spec, round_tripped["certificate"])


def test_pipeline_ek_stage_fires_when_mercer_disabled():
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(7.0)))
    report = run_pipeline(spec, PipelineConfig(kmax=3, trials=0))
    assert report.certificate_stage == "ek_sweep"
    assert report.certificate["k"] == 3
    assert verify_certificate(spec, report.certificate)


def test_pipeline_delta_stage_sharpens(tmp_path):
    # gamma = 5 lies between the shifted threshold (~4.35) and the direct
    # one (~6.1): only the shifted sweep can certify it at kmax = 3.
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(5.0)))
    report = run_pipeline(spec, PipelineConfig(kmax=3, trials=0, deltas=(50.0,)))
    assert report.not_psd and report.certificate_stage == "delta_sweep(delta=50)"
    assert verify_certificate(spec, report.certificate)


def test_pipeline_undecided_on_positive_kernel():
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(1.0)))
    report = run_pipeline(spec, PipelineConfig(kmax=4, trials=40, deltas=(10.0,)))
    assert not report.not_psd
    assert "undecided" in report.verdict
    names = [s.name for s in report.stages]
    assert names[:4] == ["self_adjoint", "odd_degree_gate", "gaussian_gate", "mercer_search"]


def test_cli_check_exit_codes(tmp_path):
    bad = _write_spec(tmp_path, kappa_gamma_kernel(7.0), name="bad.json")
    good = _write_spec(tmp_path, kappa_gamma_kernel(1.0), name="good.json")
    assert main(["check", str(bad), "--kmax", "3", "--out", str(tmp_path / "r1.json")]) == 1
    assert main(["check", str(good), "--kmax", "3", "--trials", "40",
                 "--deltas", "10", "--out", str(tmp_path / "r2.json")]) == 0
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["verdict"] == "not_psd"


@pytest.mark.parametrize(
    "argv, option",
    [
        (["check", "SPEC", "--kmax", "0"], "--kmax"),
        (["check", "SPEC", "--kmax", "9"], "--kmax"),
        (["check", "SPEC", "--trials", "-3"], "--trials"),
        (["check", "SPEC", "--seed", "-1"], "--seed"),
        (["check", "SPEC", "--deltas", "nan"], "--deltas"),
        (["check", "SPEC", "--deltas", "10,inf"], "--deltas"),
        (["npt", "SPEC", "--kmax", "9"], "--kmax"),
        (["npt", "SPEC", "--trials", "-1"], "--trials"),
        (["zscan", "--k", "0"], "--k"),
        (["zscan", "--k", "9"], "--k"),
        (["zscan", "--tol", "nan"], "--tol"),
        (["zscan", "--tol", "0"], "--tol"),
        (["zscan", "--samples", "1"], "--samples"),
        (["zscan", "--deltas", "nan"], "--deltas"),
        (["zscan", "--deltas=-inf"], "--deltas"),
        (["zscan", "--gamma-range", "0:inf"], "--gamma-range"),
        (["zscan", "--gamma-range", "5:5"], "--gamma-range"),
        (["zscan", "--gamma-range", "5"], "--gamma-range"),
    ],
)
def test_cli_rejects_out_of_range_options(tmp_path, capsys, argv, option):
    spec = _write_spec(tmp_path, kappa_gamma_kernel(7.0))
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}:" in captured.err


def test_cli_accepts_the_boundary_values(tmp_path, capsys):
    spec = _write_spec(tmp_path, kappa_gamma_kernel(7.0))
    assert main(["check", str(spec), "--trials", "0", "--kmax", "1", "--deltas", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "undecided"
    assert main(["zscan", "--k", "3", "--deltas", "inf", "--samples", "2",
                 "--gamma-range", "4:5"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["delta"] == "inf"


def test_cli_reuses_one_parser_with_fresh_results(tmp_path, capsys):
    # One parser serves every main call of the process; consecutive commands,
    # with a rejected argv between them, print what fresh parsers print.
    from polygauss import cli

    spec = _write_spec(tmp_path, kappa_gamma_kernel(7.0), name="a.json")
    other = _write_spec(tmp_path, kappa_gamma_kernel(1.0, 50.0), name="b.json")
    runs = [
        ["zscan", "--k", "3", "--deltas", "10"],
        ["check", str(spec), "--trials", "0", "--kmax", "3"],
        ["check", str(spec), "--kmax", "0"],
        ["gauss", str(other)],
        ["preorder", str(spec), str(other)],
        ["zscan", "--k", "4", "--deltas", "250", "--format", "csv"],
        ["check", str(other), "--trials", "10", "--deltas", "10"],
    ]

    def outputs(fresh: bool) -> list:
        out = []
        for argv in runs:
            if fresh:
                cli._parser.cache_clear()
            rc = main(argv)
            captured = capsys.readouterr()
            out.append((rc, re.sub(r'"elapsed_s": [^,\n]+', "", captured.out), captured.err))
        return out

    kept = outputs(fresh=False)
    assert cli._parser.cache_info().currsize == 1
    assert [rc for rc, _, _ in kept] == [0, 1, 2, 0, 0, 0, 0]
    assert kept == outputs(fresh=True)


def test_cli_determinism(tmp_path, capsys):
    spec = _write_spec(tmp_path, kappa_gamma_kernel(7.0))
    assert main(["check", str(spec), "--seed", "5", "--kmax", "3"]) == 1
    out1 = capsys.readouterr().out
    assert main(["check", str(spec), "--seed", "5", "--kmax", "3"]) == 1
    out2 = capsys.readouterr().out
    r1, r2 = json.loads(out1), json.loads(out2)
    for r in (r1, r2):
        for s in r["stages"]:
            s.pop("elapsed_s")
    assert r1 == r2


def test_cli_gauss(tmp_path):
    pos = _write_spec(tmp_path, PolyGaussianKernel.pure_gaussian(
        GaussianTriple.from_scalars(1.5, 1.0)), name="pos.json")
    neg = _write_spec(tmp_path, PolyGaussianKernel.pure_gaussian(
        GaussianTriple.from_scalars(1.0, 2.0)), name="neg.json")
    assert main(["gauss", str(pos), "--out", str(tmp_path / "g1.json")]) == 0
    assert main(["gauss", str(neg), "--out", str(tmp_path / "g2.json")]) == 1
    doc = json.loads((tmp_path / "g2.json").read_text())
    assert abs(doc["mu_max"] - np.sqrt(2.0)) < 1e-9


def test_cli_preorder(tmp_path, capsys):
    a = _write_spec(tmp_path, kappa_gamma_kernel(1.0, 0.0), name="a.json")
    b = _write_spec(tmp_path, kappa_gamma_kernel(1.0, 50.0), name="b.json")
    assert main(["preorder", str(a), str(b)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["relation"] == "equivalent" and doc["equiv_formula"] is True


def test_cli_zscan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["zscan", "--k", "3", "--deltas", "0,10", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,delta,gamma_root,bracket_lo,bracket_hi"
    rows = [line.split(",") for line in lines[1:]]
    assert abs(float(rows[0][2]) - 6.10781) < 1e-3
    assert abs(float(rows[1][2]) - 4.43150) < 1e-3


def test_cli_zscan_order_six(capsys):
    # The k = 6 chain prefactor has degree 12 in the integrated variables and
    # 18 with the family parameter; only the former counts against the cap.
    assert main(["zscan", "--k", "6", "--deltas", "250"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["rows"][0]["gamma_root"] - 4.0395) < 1e-3


def test_cli_npt(tmp_path):
    ent = _write_spec(
        tmp_path,
        PolyGaussianKernel.pure_gaussian(entangled_fixture()),
        Bipartition(2, (0,)),
        name="ent.json",
    )
    assert main(["npt", str(ent), "--out", str(tmp_path / "npt.json")]) == 1
    doc = json.loads((tmp_path / "npt.json").read_text())
    assert doc["verdict"] == "npt_certified"
    no_part = _write_spec(tmp_path, kappa_gamma_kernel(1.0), name="nopart.json")
    assert main(["npt", str(no_part)]) == 2


def test_escalated_npt_and_check_at_the_default_kmax_on_a_degree_4_state(tmp_path, capsys):
    # psi = (1 + x1 x2) exp(-|x|^2): its degree-4 density kernel reaches
    # e_4 under the degree cap, below the default --kmax 5.
    poly = MultiPoly(4, {(0, 0, 0, 0): 1.0, (1, 1, 0, 0): 1.0, (0, 0, 1, 1): 1.0, (1, 1, 1, 1): 1.0})
    kernel = PolyGaussianKernel(poly, GaussianTriple(0.5 * np.eye(2), np.zeros((2, 2)), 0.5 * np.eye(2)))
    spec = _write_spec(tmp_path, kernel, Bipartition(2, (0,)))
    assert main(["npt", str(spec), "--escalate"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["stage"], doc["ek_kmax"], len(doc["ek_sweep"]["eks"])) == ("ek_sweep", 4, 4)
    assert main(["check", str(spec), "--escalate", "--trials", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in doc["stages"]][3:] == [
        "mercer_search", "ek_sweep", "delta_sweep(delta=10)", "delta_sweep(delta=100)",
        "delta_sweep(delta=1000)", "npt",
    ]
    assert doc["npt"] == {
        "verdict": "npt_certified", "stage": "ek_sweep",
        "pt_mu_max": doc["npt"]["pt_mu_max"], "ek_kmax": 4,
    }


def test_cli_fixture_round_trip(tmp_path, capsys):
    for name in ("caldeira-n0", "caldeira-n1", "caldeira-n2"):
        out = tmp_path / f"{name}.json"
        assert main(["fixture", name, "--beta", "1.3", "--out", str(out)]) == 0
        parsed = parse_kernel_spec(out)
        assert abs(spectral.moment(parsed.kernel(), 1) - 1.0) < 1e-9
    assert main(["fixture", "kappa-gamma-delta", "--gamma", "2.0", "--delta", "5.0",
                 "--out", str(tmp_path / "kg.json")]) == 0
    parsed = parse_kernel_spec(tmp_path / "kg.json")
    assert abs(spectral.moment(parsed.kernel(), 1) - 1.0) < 1e-9


def test_cli_check_positive_pure_gaussian(tmp_path):
    k = PolyGaussianKernel.pure_gaussian(GaussianTriple.from_scalars(1.5, 1.0))
    spec = _write_spec(tmp_path, k, name="pure.json")
    out = tmp_path / "pure_report.json"
    assert main(["check", str(spec), "--trials", "40", "--deltas", "10", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "undecided"
    gate = next(s for s in doc["stages"] if s["name"] == "gaussian_gate")
    assert gate["status"] == "passed" and abs(gate["mu_max"] - np.sqrt(2 / 3)) < 1e-9


def test_cli_internal_consistency_exit_code(tmp_path, monkeypatch, capsys):
    # A fixture whose self-check trace comes out wrong must exit with code 3.
    import polygauss.cli as cli_mod

    monkeypatch.setattr(cli_mod.spectral, "moment", lambda *a, **k: 2.0)
    assert main(["fixture", "caldeira-n0"]) == 3
    assert "consistency" in capsys.readouterr().err


def test_fixture_caldeira_passes_odd_gate_and_pipeline():
    k = caldeira_kernel(1, 1.0)
    assert k.poly.degree() == 2
    spec = parse_kernel_spec(serialize_kernel_spec(k))
    report = run_pipeline(spec, PipelineConfig(kmax=3, trials=30, deltas=(10.0,)))
    assert not report.not_psd  # eigenstate projections are positive operators


def _schur_kernel(rng, n, support):
    """PSD kernel ``q(x) conj(q(y))`` over a B = 0 Gaussian with A - C positive definite."""

    def pd(scale, floor):
        g = rng.normal(size=(n, n))
        return scale * (g @ g.T) + floor * np.eye(n)

    c = pd(0.3, 0.4)
    a = c + pd(0.3, 0.3)
    q = {e: complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())) for e in support}
    terms = {}
    for (ea, ca), (eb, cb) in itertools.product(q.items(), repeat=2):
        terms[ea + eb] = terms.get(ea + eb, 0j) + ca * cb.conjugate()
    return PolyGaussianKernel(MultiPoly(2 * n, terms), GaussianTriple(a, np.zeros((n, n)), c))


def test_check_output_identical_to_reference_wick_engine(tmp_path, capsys, monkeypatch):
    # One kernel per class of the benchmark's trace-moment workload
    # (``check --trials 0``): the report must not move by a single bit when
    # the compiled Wick programs and the cached orbit folds replace the
    # recursive tuple-keyed table and per-call fold builds, whether the
    # programs are compiled in the run or replayed from the cache.  With
    # this seed, summing the Wick recurrence in descending j changes the
    # reports of two of the Schur kernels.
    rng = np.random.default_rng(123)
    cases = [
        (caldeira_kernel(0, 1.3), None),
        (caldeira_kernel(1, 0.8), None),
        (caldeira_kernel(2, 1.7), None),
        (kappa_gamma_kernel(4.5), None),
        (_schur_kernel(rng, 1, [(0,), (1,)]), None),
        (_schur_kernel(rng, 2, [(0, 0), (1, 0)]), None),
        (_schur_kernel(rng, 2, [(0, 0), (1, 1)]), "4"),
        (_schur_kernel(rng, 3, [(0, 0, 0), (1, 1, 0)]), "4"),
        (_schur_kernel(rng, 2, [(0, 0), (2, 0), (0, 2)]), "4"),
    ]
    argvs = []
    for i, (kernel, kmax) in enumerate(cases):
        path = _write_spec(tmp_path, kernel, name=f"k{i}.json")
        argvs.append(["check", str(path), "--trials", "0"] + (["--kmax", kmax] if kmax else []))

    def reports():
        out = []
        for argv in argvs:
            main(argv)
            out.append(re.sub(r'"elapsed_s": [^,\n]*', '"elapsed_s": 0', capsys.readouterr().out))
        return out

    with monkeypatch.context() as m:
        m.setattr(wick, "WickTable", WickTableReference)
        m.setattr(wick, "_plan", None)  # the reference run compiles no program
        m.setattr(spectral, "_chain_orbits", spectral._chain_orbits.__wrapped__)
        reference = reports()
    spectral._chain_orbits.cache_clear()
    wick._plan.cache_clear()
    assert reports() == reference
    assert wick._plan.cache_info().misses > 0
    assert reports() == reference
    docs = [json.loads(text) for text in reference]
    assert [d["certificate_stage"] for d in docs].count(None) == len(cases) - 1
    assert all(len(d["stages"]) == 8 for d in docs if d["certificate_stage"] is None)


def test_ek_certificate_reverifies_without_the_orbit_fold(monkeypatch):
    # The producing sweep integrates orbit-folded chains; verify_certificate
    # must reach the same verdict from the full chain integrands alone.
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(4.5)))
    report = run_pipeline(spec, PipelineConfig(trials=0))
    assert report.certificate_stage == "ek_sweep"
    cert = json.loads(json.dumps(report.to_dict()))["certificate"]
    shifted_spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(5.0)))
    shifted = run_pipeline(shifted_spec, PipelineConfig(kmax=3, trials=0, deltas=(50.0,)))
    assert shifted.certificate_stage == "delta_sweep(delta=50)"

    def unavailable(*args):
        raise AssertionError("verify_certificate used the orbit-folded prefactor")

    monkeypatch.setattr(spectral, "_chain_orbits", unavailable)
    assert verify_certificate(spec, cert)
    assert verify_certificate(shifted_spec, shifted.certificate)
    for k in range(1, 8):
        if k != cert["k"]:
            assert not verify_certificate(spec, {**cert, "k": k}), k
    assert not verify_certificate(shifted_spec, {**shifted.certificate, "k": 2})


def test_ek_certificate_with_an_unreachable_k_is_rejected():
    # A claim whose k no sweep can reach (outside 1..MAX_MOMENT_ORDER, or a
    # chain over the degree cap) is malformed: it verifies False, not raise.
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(4.5)))
    report = run_pipeline(spec, PipelineConfig(trials=0))
    cert = json.loads(json.dumps(report.to_dict()))["certificate"]
    assert cert["kind"] == "ek_sweep" and verify_certificate(spec, cert)
    for k in (0, -1, 9):
        assert verify_certificate(spec, {**cert, "k": k}) is False, k
    quartic = _schur_kernel(np.random.default_rng(5), 2, [(0, 0), (1, 1)])
    assert quartic.poly.degree() == 4
    quartic_spec = parse_kernel_spec(serialize_kernel_spec(quartic))
    assert verify_certificate(quartic_spec, {**cert, "k": 5}) is False


def test_degree_capped_kernel_skips_every_ek_stage_without_a_moment(monkeypatch):
    # The order limits do not depend on the shift, so a degree-4 kernel at
    # kmax 5 skips the e_k stage and all three delta stages before any
    # (shifted) trace is integrated.
    quartic = _schur_kernel(np.random.default_rng(5), 2, [(0, 0), (1, 1)])
    spec = parse_kernel_spec(serialize_kernel_spec(quartic))
    calls = []
    moment = spectral.moment
    monkeypatch.setattr(spectral, "moment", lambda kernel, j: calls.append(j) or moment(kernel, j))
    report = run_pipeline(spec, PipelineConfig(kmax=5, trials=0))
    assert calls == []
    sweeps = report.stages[4:]
    assert [s.name for s in sweeps] == [
        "ek_sweep", "delta_sweep(delta=10)", "delta_sweep(delta=100)", "delta_sweep(delta=1000)"
    ]
    for stage in sweeps:
        assert stage.status == "skipped"
        assert stage.payload == {"reason": "chain prefactor degree 20 exceeds the degree cap 16"}
    run_pipeline(spec, PipelineConfig(kmax=4, trials=0, deltas=(10.0,)))
    assert calls == [1, 2, 3, 4, 1, 1, 2, 3, 4]  # the delta stage normalises by M_1 first


def _mercer_claim():
    spec = parse_kernel_spec(serialize_kernel_spec(kappa_gamma_kernel(6.5)))
    report = run_pipeline(spec, PipelineConfig(kmax=3))
    assert report.certificate_stage == "mercer_search"
    return spec, json.loads(json.dumps(report.to_dict()))["certificate"]


def test_mercer_certificate_recheck_rejects_malformed_claims(monkeypatch):
    spec, cert = _mercer_claim()
    assert verify_certificate(spec, cert) is True
    points, coeffs = cert["points"], cert["coeffs"]
    assert len(points) == len(coeffs) == 20
    nan_point = [list(p) for p in points]
    nan_point[3][0] = float("nan")
    malformed = [
        {"coeffs": coeffs[:-1]},  # 19 coefficients for 20 points
        {"points": points[:-1]},
        {"points": [], "coeffs": []},
        {"points": []},
        {"points": [p + p for p in points]},  # width 2 for n = 1
        {"points": [p[0] for p in points]},  # a flat list is not a point set
        {"points": nan_point},
        {"points": [[float("inf")]] + points[1:]},
        {"coeffs": [[float("nan"), 0.0]] + coeffs[1:]},
        {"coeffs": [[0.0, float("inf")]] + coeffs[1:]},
        {"coeffs": [[0.0, 0.0]] * 20},
        {"coeffs": [[1.0, 0.0, 2.0]] + coeffs[1:]},
        {"coeffs": ["x"] + coeffs[1:]},
    ]
    def unreachable(*args):
        raise AssertionError("a malformed claim reached the kernel")

    monkeypatch.setattr(PolyGaussianKernel, "evaluate", unreachable)
    for change in malformed:  # rejected before any kernel value is computed
        assert verify_certificate(spec, {**cert, **change}) is False, change


def test_mercer_certificate_recheck_applies_the_search_threshold(monkeypatch):
    # The re-check demands value / |c|^2 < -1e-9 * scale, the threshold the
    # search certified against, with the scale from direct kernel values; a
    # rescaled coefficient vector makes the same claim.
    spec, cert = _mercer_claim()
    cert = {**cert, "coeffs": [[3.0 * re, 3.0 * im] for re, im in cert["coeffs"]]}
    assert verify_certificate(spec, cert) is True
    pts = np.asarray(cert["points"])
    cs = np.array([complex(*v) for v in cert["coeffs"]])
    gram = np.array([[spec.kernel().evaluate(x, y) for y in pts] for x in pts])
    gram = 0.5 * (gram + gram.conj().T)
    scale = max(abs(np.trace(gram)), np.max(np.abs(gram)))
    assert spectral.direct_mercer_form(spec.kernel(), pts, cs)[1] == scale
    norm2 = float(np.vdot(cs, cs).real)
    for factor, expected in ((0.5, False), (2.0, True)):
        value = -factor * 1e-9 * scale * norm2
        monkeypatch.setattr(spectral, "direct_mercer_form", lambda *args: (value, scale))
        assert verify_certificate(spec, cert) is expected, factor
