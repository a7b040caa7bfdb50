"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _build(tmp_path: Path, workload: str, seed: int, tag: str):
    root = tmp_path / tag
    warm, timed = corpus.build(workload, seed, root)
    return warm, timed, root


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_is_byte_identical_for_a_seed(tmp_path, workload):
    warm1, timed1, root1 = _build(tmp_path, workload, 7, "a")
    warm2, timed2, root2 = _build(tmp_path, workload, 7, "b")
    assert [op.argv[2:] for op in warm1 + timed1] == [op.argv[2:] for op in warm2 + timed2]
    assert [op.expect for op in timed1] == [op.expect for op in timed2]
    files1 = sorted(p.name for p in root1.iterdir())
    assert files1 == sorted(p.name for p in root2.iterdir())
    for name in files1:
        assert (root1 / name).read_bytes() == (root2 / name).read_bytes()
    _, timed3, root3 = _build(tmp_path, workload, 8, "c")
    if workload == "zscan":
        assert [op.argv for op in timed3] != [op.argv for op in timed1]
    else:
        assert (root3 / files1[0]).read_bytes() != (root1 / files1[0]).read_bytes()


def _schur_specs(tmp_path):
    _, timed, _ = _build(tmp_path, "sweep", 3, "schur")
    return [json.loads(Path(op.spec).read_text()) for op in timed if op.cls.startswith("schur_")]


def test_schur_gaussian_has_c_below_a(tmp_path):
    rng = np.random.default_rng(0)
    pairs = [corpus.schur_gaussian(rng, n) for n in (1, 2, 3, 5) for _ in range(20)]
    for doc in _schur_specs(tmp_path):
        n = doc["n"]
        assert doc["b"] == [0.0] * (n * n)
        pairs.append((np.reshape(doc["a"], (n, n)), np.reshape(doc["c"], (n, n))))
    for a, c in pairs:
        assert np.array_equal(a, a.T) and np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c)[0] > 0.0
        assert np.linalg.eigvalsh(a - c)[0] > 0.0


def test_schur_polynomial_is_self_adjoint(tmp_path):
    for doc in _schur_specs(tmp_path):
        n = doc["n"]
        terms = {tuple(t["exponents"]): complex(*t["coeff"]) for t in doc["poly"]}
        for exps, coeff in terms.items():
            swapped = exps[n:] + exps[:n]
            assert terms[swapped] == coeff.conjugate()


def test_metric_names_are_valid_and_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = list(run.END_TO_END_UNITS)
    per_layer = list(run.per_layer_units())
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(per_layer)) == len(per_layer)
    assert [m["name"] for m in doc["end_to_end"]] == end_to_end
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in doc["per_layer"]] == per_layer
    assert [m["unit"] for m in doc["per_layer"]] == list(run.per_layer_units().values())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def _snapshot():
    """Every attribute of every polygauss module and of the patched classes."""
    mods = {k: dict(vars(m)) for k, m in sys.modules.items() if k.startswith("polygauss")}
    classes = {}
    for mod_name, attr in spans.TARGETS:
        if "." in attr:
            cls = getattr(sys.modules[f"polygauss.{mod_name}"], attr.split(".")[0])
            classes[cls] = dict(vars(cls))
    return mods, classes


def test_tracer_restores_the_original_functions(tmp_path):
    from polygauss import cli, spectral

    before_mods, before_classes = _snapshot()
    original_main = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not original_main
        assert spectral.moment is not before_mods["polygauss.spectral"]["moment"]
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps(corpus.kappa(6.5)))
        ops = [corpus.Op("kappa", ["check", str(spec), "--trials", "0"], str(spec), "not_psd"),
               corpus.zscan_op(3, 10.0)]
        results, _ = run.run_loop(cli, ops, [0, 1], tracer=tracer)
    finally:
        tracer.uninstall()
    after_mods, after_classes = _snapshot()
    assert cli.main is original_main
    for key, attrs in before_mods.items():
        for name, value in attrs.items():
            assert after_mods[key][name] is value, f"{key}.{name} not restored"
    for cls, attrs in before_classes.items():
        assert after_classes[cls].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after_classes[cls][name] is value, f"{cls.__name__}.{name} not restored"

    assert [r.rc for r in results] == [1, 0]
    assert run.check_spans(tracer, results) == []
    names = set(tracer.names)
    assert {"spectral.positivity_sweep", "wick.WickTable.moment", spans.EK_EVAL} <= names
    assert tracer.counters["spectral.moment.j1.calls"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
