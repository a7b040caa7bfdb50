#!/usr/bin/env python3
"""End-to-end benchmark of the ``polygauss`` command line, run in process.

    python3 bench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

* ``screen``: ``polygauss check SPEC`` with the default configuration over
  a mixed corpus of known-PSD and known-non-PSD kernels;
* ``sweep``: ``polygauss check SPEC --trials 0``, so the exact trace-moment
  sweep decides;
* ``zscan``: one row of ``polygauss zscan --k K --deltas D`` per op.

One closed-loop client issues each op when the previous one returns.  The
inputs come only from ``--seed``; they are written as spec files under
``.bench_work/`` next to the ``bench`` directory and the program sees only
those files.  Outputs are checked after the timed pass.  With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it runs the same
ops once untraced and once with every public function of the package
wrapped in spans, and reports per-layer metrics.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the matrices are tiny and the machine is shared.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Iterable, Optional  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".bench_work"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("screen", "sweep", "zscan")
# Reference ``speed_probe`` time, a round figure near its median on the
# 2-vCPU host the benchmark was tuned on; op times are reported as if every
# probe had taken this long.
PROBE_REF_S = 5.0e-3
_PROBE_RNG = np.random.default_rng(0)
_PROBE_TABLE = {(i % 97, i % 89, i // 97): float(i) for i in range(60000)}
_PROBE_KEYS = list(_PROBE_TABLE)
_PROBE_KEYS = [_PROBE_KEYS[j] for j in _PROBE_RNG.permutation(len(_PROBE_KEYS))[:4000]]
_PROBE_ARRAY = np.arange(200000, dtype=float)
_PROBE_INDEX = _PROBE_RNG.integers(0, 200000, size=20000)
_PROBE_MATRIX = np.eye(12) + 0.01 * np.add.outer(np.arange(12), np.arange(12))
SETUP_REPEATS = 5
PIPELINE_STAGES = (
    "self_adjoint", "odd_degree_gate", "gaussian_gate", "mercer_search",
    "ek_sweep", "delta_sweep", "npt",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polygauss.cli, polygauss.pipeline; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "certified_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Result:
    """Outcome of one op in one pass."""

    index: int
    rc: Optional[int]
    stdout: str
    latency: float
    error: str = ""
    failure: str = ""
    certified: bool = False
    report: Optional[dict] = field(default=None, repr=False)
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        """Latency at the reference speed (see ``speed_probe``)."""
        return self.latency * self.scale


# ---------------------------------------------------------------- set-up


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def corpus_digest(root: Path, ops: list[corpus.Op]) -> str:
    """Hash of the spec files and of the op list, with paths relative to ``root``."""
    h = hashlib.sha256()
    for path in sorted(root.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    for op in ops:
        argv = [Path(a).name if a.startswith(str(root)) else a for a in op.argv]
        h.update(repr((op.cls, argv, op.truth, op.expect)).encode())
    return h.hexdigest()


def set_up(workload: str, seed: int, work: Path):
    """Import and build the corpus SETUP_REPEATS times each.

    Returns (warm-up ops, timed ops, raw set-up seconds, scaled set-up
    seconds): the median import time plus the median build time, raw and at
    the reference speed.  Every build must be byte-identical to the first.
    """
    imports, builds, digests, probes, result = [], [], [], [speed_probe()], None
    for rep in range(SETUP_REPEATS):
        imports.append(import_seconds())
        probes.append(speed_probe())
        root = work / f"corpus{rep}"
        if root.exists():
            shutil.rmtree(root)
        t0 = time.perf_counter()
        ops = corpus.build(workload, seed, root)
        builds.append(time.perf_counter() - t0)
        probes.append(speed_probe())
        digests.append(corpus_digest(root, ops[0] + ops[1]))
        result = result or ops
    if len(set(digests)) != 1:
        raise RuntimeError("corpus is not byte-identical across builds of one seed")
    for rep in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"corpus{rep}")
    raw = statistics.median(imports) + statistics.median(builds)
    return result[0], result[1], raw, raw * PROBE_REF_S / statistics.median(probes)


# ------------------------------------------------------------- the loop


def speed_probe() -> float:
    """Seconds taken by a fixed slice of interpreter, numpy and mpmath work.

    The host's speed drifts by up to 1.7x over seconds to minutes (other
    tenants share the hardware).  A probe next to each op measures that
    drift so that op times can be reported at one reference speed.  Like
    the ops, it mixes dict and tuple work over a few-MB table, small dense
    linear algebra and 100-digit arithmetic.
    """
    t0 = time.perf_counter()
    total = 0.0
    for key in _PROBE_KEYS:
        total += _PROBE_TABLE[key]
    acc: dict[tuple[int, int, int], float] = {}
    for i in range(1000):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, 0.0) + 0.5 * i
    total += float(_PROBE_ARRAY[_PROBE_INDEX].sum())
    for _ in range(6):
        np.linalg.eigvalsh(_PROBE_MATRIX)
    with mpmath.workdps(100):
        x = mpmath.mpf(2)
        for _ in range(40):
            x = x * x / (x + 1)
    return time.perf_counter() - t0


def run_op(cli, op: corpus.Op, index: int, tracer: Optional[spans.Tracer] = None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    error = ""
    rc = None
    t0 = time.perf_counter()
    root = tracer.begin_op(index) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception:  # an op that raises is a failed op, not a failed run
        error = traceback.format_exc(limit=3)
    if tracer:
        tracer.end_op(root)
    latency = time.perf_counter() - t0
    return Result(index, rc, out.getvalue(), latency, error or err.getvalue())


def run_loop(cli, ops: list[corpus.Op], schedule: Iterable[int], seconds: float = math.inf,
             tracer: Optional[spans.Tracer] = None) -> tuple[list[Result], float]:
    """Closed loop over ``schedule`` until it ends or ``seconds`` have passed.

    A speed probe runs before the first op and after every op, outside the
    op's timed region.  Each result's ``scale`` is ``PROBE_REF_S`` over the
    median of the probes around it.  Returns the results and the wall time.
    """
    results, probes = [], [speed_probe()]
    t0 = time.perf_counter()
    for i in schedule:
        if time.perf_counter() - t0 >= seconds:
            break
        results.append(run_op(cli, ops[i], i, tracer))
        probes.append(speed_probe())
    wall = time.perf_counter() - t0
    for k, res in enumerate(results):
        res.scale = PROBE_REF_S / statistics.median(probes[max(0, k - 2):k + 4])
    return results, wall


# ------------------------------------------------------------ checking


class Checker:
    """Checks op outputs against the known truth, outside the timed region."""

    def __init__(self) -> None:
        from polygauss.pipeline import verify_certificate
        from polygauss.specio import parse_kernel_spec

        self.verify_certificate = verify_certificate
        self.parse_kernel_spec = parse_kernel_spec
        self._verified: dict[str, bool] = {}

    def check(self, op: corpus.Op, res: Result) -> None:
        if res.rc is None:
            res.failure = f"raised: {res.error.strip().splitlines()[-1] if res.error else '?'}"
            return
        try:
            res.report = json.loads(res.stdout)
        except json.JSONDecodeError:
            res.failure = f"exit {res.rc}, no JSON report: {res.error.strip()[:200]}"
            return
        if op.argv[0] == "zscan":
            self._check_zscan(op, res)
        else:
            self._check_check(op, res)

    def _check_check(self, op, res) -> None:
        report = res.report
        cert = report.get("certificate")
        if res.rc not in (0, 1) or (res.rc == 1) != (cert is not None):
            res.failure = f"exit code {res.rc} with certificate {cert is not None}"
            return
        if cert is not None:
            if op.truth == "psd":
                res.failure = f"certified a known-PSD kernel at {report['certificate_stage']}"
                return
            ok = self._verified.get(op.spec)
            if ok is None:
                spec = self.parse_kernel_spec(Path(op.spec))
                ok = self._verified[op.spec] = bool(self.verify_certificate(spec, cert))
            if not ok:
                res.failure = f"certificate at {report['certificate_stage']} fails verification"
                return
            res.certified = True
        kind = op.expect.get("kind")
        if kind is not None and (cert is None or cert["kind"] != kind):
            res.failure = f"expected a {kind} certificate, got {report['certificate_stage']}"
        elif "witness" in op.expect and cert["witness_subset"] != op.expect["witness"]:
            res.failure = f"odd-gate witness {cert['witness_subset']} != {op.expect['witness']}"
        elif "npt" in op.expect and (report.get("npt") or {}).get("verdict") != op.expect["npt"]:
            res.failure = f"npt verdict {report.get('npt')} != {op.expect['npt']}"

    def _check_zscan(self, op, res) -> None:
        if res.rc != 0:
            res.failure = f"zscan exit code {res.rc}: {res.error.strip()[:200]}"
            return
        row = res.report["rows"][0]
        root = float(row["gamma_root"])
        if not float(row["bracket_lo"]) <= root <= float(row["bracket_hi"]):
            res.failure = f"root {root} outside its bracket"
            return
        ref = op.expect.get("reference")
        if ref is not None and abs(root - ref) > op.expect["tol"]:
            res.failure = f"root {root:.6f} misses reference {ref:.6f} by more than {op.expect['tol']}"
            return
        res.certified = True


def check_monotone(ops: list[corpus.Op], results: list[Result]) -> None:
    """Finite-delta zscan roots of one k must not rise as delta grows."""
    by_k: dict[int, dict[int, Result]] = {}
    for res in results:
        op = ops[res.index]
        if op.argv[0] == "zscan" and not res.failure and not math.isinf(op.expect["delta"]):
            by_k.setdefault(op.expect["k"], {})[res.index] = res
    for rows in by_k.values():
        ordered = sorted(rows.values(), key=lambda r: ops[r.index].expect["delta"])
        for prev, cur in zip(ordered, ordered[1:]):
            r0 = float(prev.report["rows"][0]["gamma_root"])
            r1 = float(cur.report["rows"][0]["gamma_root"])
            if r1 > r0 + corpus.ZSCAN_MONOTONE_SLACK:
                cur.failure = (f"root {r1:.7f} at delta {ops[cur.index].expect['delta']} "
                               f"rises above {r0:.7f} at a smaller delta")


def check_all(checker: Checker, ops, results) -> None:
    for res in results:
        checker.check(ops[res.index], res)
    check_monotone(ops, results)


# ------------------------------------------------------------- metrics


def end_to_end(ops, results, setup_s) -> dict[str, float]:
    """End-to-end metrics; times are at the reference speed."""
    lat = [r.scaled for r in results]
    known = [r for r in results if ops[r.index].truth == "not_psd" or ops[r.index].argv[0] == "zscan"]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "latency_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "certified_frac": sum(r.certified for r in known) / max(len(known), 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def raw_times(results, wall, setup_raw) -> str:
    lat = [r.latency for r in results]
    return (f"ops_per_s={len(lat) / wall:.6g} latency_p50_ms={1e3 * np.percentile(lat, 50):.6g} "
            f"latency_p90_ms={1e3 * np.percentile(lat, 90):.6g} setup_s={setup_raw:.6g} "
            f"speed_index={statistics.median(r.scale for r in results):.4f}")


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in spans.SPAN_NAMES:
        units.update({f"{name}.calls": "calls/op", f"{name}.busy_s": "s/op",
                      f"{name}.self_s": "s/op"})
    units["spectral.mercer_search.trials"] = "trials/op"
    units["spectral.mercer_search.useful_ratio"] = "ratio"
    for j in spans.MOMENT_ORDERS:
        units[f"spectral.moment.j{j}.calls"] = "calls/op"
    units["wick.integrate.terms_in"] = "terms/op"
    for stage in PIPELINE_STAGES:
        units.update({f"pipeline.{stage}.busy_s": "s/op", f"pipeline.{stage}.certified": "certs/op"})
    units.update({"trace.ops_per_s_untraced": "1/s", "trace.ops_per_s_traced": "1/s",
                  "trace.overhead_frac": "fraction", "trace.spans_per_op": "spans/op"})
    return units


def pipeline_layers(results) -> dict[str, float]:
    """Per-op stage time (at the reference speed) and certificates, from the reports."""
    out = dict.fromkeys((f"pipeline.{s}.{m}" for s in PIPELINE_STAGES
                         for m in ("busy_s", "certified")), 0.0)
    for res in results:
        for stage in (res.report or {}).get("stages") or []:
            name = stage["name"].split("(")[0]
            out[f"pipeline.{name}.busy_s"] += stage["elapsed_s"] * res.scale
            out[f"pipeline.{name}.certified"] += stage["status"] == "certificate"
    return {k: v / max(len(results), 1) for k, v in out.items()}


def check_spans(tracer: spans.Tracer, results: list[Result]) -> list[str]:
    """Each op's root span must match its latency and its self times must sum to it."""
    a = tracer.arrays()
    problems = []
    inner = a["parent"] >= 0
    par = a["parent"][inner]
    if np.any(a["start"][inner] < a["start"][par]) or np.any(a["end"][inner] > a["end"][par]):
        problems.append("a span leaves its parent's interval")
    if np.any(a["self"] < -1e-9):
        problems.append("negative self time")
    roots = np.flatnonzero(a["name"] == 0)
    if len(roots) != len(results):
        problems.append(f"{len(roots)} root spans for {len(results)} ops")
        return problems
    self_sum = np.zeros(len(roots))
    np.add.at(self_sum, np.searchsorted(roots, np.arange(len(a["name"])), side="right") - 1, a["self"])
    for k, (root, res) in enumerate(zip(roots, results)):
        dur = a["dur"][root]
        if abs(res.latency - dur) > 5e-5 + 1e-3 * res.latency:
            problems.append(f"op {res.index}: root span {dur:.6f}s vs latency {res.latency:.6f}s")
        if abs(self_sum[k] - dur) > 1e-6:
            problems.append(f"op {res.index}: self times sum to {self_sum[k]:.9f}s, root {dur:.9f}s")
    return problems


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    """Per-op layer metrics from the traced pass; stage times from the untraced one.

    Span times are scaled by their op's ``scale``, like the end-to-end times.
    """
    a = tracer.arrays()
    n = max(len(traced), 1)
    roots = np.flatnonzero(a["name"] == 0)
    op_of = np.searchsorted(roots, np.arange(len(a["name"])), side="right") - 1
    scale = np.array([r.scale for r in traced])[op_of]
    calls = np.bincount(a["name"], minlength=len(tracer.names))
    busy = np.bincount(a["name"], weights=a["dur"] * scale, minlength=len(tracer.names))
    own = np.bincount(a["name"], weights=a["self"] * scale, minlength=len(tracer.names))
    out: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        nid = tracer.names.index(name) if name in tracer.names else None
        for key, arr in (("calls", calls), ("busy_s", busy), ("self_s", own)):
            out[f"{name}.{key}"] = float(arr[nid]) / n if nid is not None else 0.0
    c = tracer.counters
    mercer_calls = out["spectral.mercer_search.calls"] * n
    out["spectral.mercer_search.trials"] = c.get("spectral.mercer_search.trials", 0.0) / n
    out["spectral.mercer_search.useful_ratio"] = (
        c.get("spectral.mercer_search.certificates", 0.0) / mercer_calls if mercer_calls else 0.0)
    for j in spans.MOMENT_ORDERS:
        out[f"spectral.moment.j{j}.calls"] = c.get(f"spectral.moment.j{j}.calls", 0.0) / n
    out["wick.integrate.terms_in"] = c.get("wick.integrate.terms_in", 0.0) / n
    out.update(pipeline_layers(untraced))
    untraced_rate = len(untraced) / sum(r.scaled for r in untraced)
    traced_rate = len(traced) / sum(r.scaled for r in traced)
    out["trace.ops_per_s_untraced"] = untraced_rate
    out["trace.ops_per_s_traced"] = traced_rate
    out["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    out["trace.spans_per_op"] = len(a["name"]) / n
    return out


# ---------------------------------------------------------------- main


def machine_context() -> str:
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"blas_threads={BLAS_THREADS} python={platform.python_version()} "
            f"numpy={np.__version__} mpmath={mpmath.__version__}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polygauss" / "__init__.py").is_file():
        print(f"error: no polygauss sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(SRC))
    from polygauss import cli

    warm, ops, setup_raw, setup_s = set_up(args.workload, args.seed, work)
    checker = Checker()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"{machine_context()}")

    warm_results, _ = run_loop(cli, warm, range(len(warm)))
    check_all(checker, warm, warm_results)

    seconds = args.seconds / 2 if args.trace else args.seconds
    results, wall = run_loop(cli, ops, itertools.cycle(range(len(ops))), seconds)
    check_all(checker, ops, results)
    problems = [f"warm-up op {r.index} ({warm[r.index].cls}): {r.failure}"
                for r in warm_results if r.failure]
    problems += [f"op {r.index} ({ops[r.index].cls}): {r.failure}" for r in results if r.failure]

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = run_loop(cli, ops, [r.index for r in results], tracer=tracer)
        finally:
            tracer.uninstall()
        check_all(checker, ops, traced)
        problems += [f"traced op {r.index} ({ops[r.index].cls}): {r.failure}"
                     for r in traced if r.failure]
        for before, after in zip(results, traced):
            if before.rc != after.rc:
                problems.append(f"op {before.index}: exit {after.rc} traced, {before.rc} untraced")
        problems += check_spans(tracer, traced)
        tracer.write(work / "spans.npz")
        values = per_layer(tracer, results, traced)
        units = per_layer_units()
    else:
        values = end_to_end(ops, results, setup_s)
        units = END_TO_END_UNITS
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    shutil.rmtree(work / "corpus0", ignore_errors=True)
    (work / "ops.json").write_text(json.dumps(
        [{"index": r.index, "class": ops[r.index].cls, "latency_s": r.latency,
          "scale": r.scale, "exit": r.rc, "failure": r.failure} for r in results]) + "\n")
    failed = sum(bool(r.failure) for r in results)
    for line in problems[:20]:
        print(f"# FAIL {line}")
    print(f"# attempted={len(results)} (the latency sample count) failed={failed} "
          f"failed_frac={failed / len(results):.4f}")
    print(f"# raw wall-clock: {raw_times(results, wall, setup_raw)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    doc = {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
