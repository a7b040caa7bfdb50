#!/usr/bin/env python3
"""Trace whole schedule rounds of a benchmark workload in two checkouts.

    python3 tools/trace_round.py --workload zscan --seed 1 \\
        --parent PARENT_CHECKOUT --change . --out BENCH_<n>.json

``bench/run.py --trace 1`` traces however many ops fit in half of its
``--seconds``, so a faster tree averages its per-op counters over a longer
prefix of the op schedule than a slower one.  This script runs exactly one
round instead: the workload's warm-up ops, then every timed op of the
schedule once untraced and once traced, in each checkout, with the
benchmark's own functions (``corpus.build``, ``run_loop``, ``Checker``,
``spans.Tracer``, ``check_spans`` and ``per_layer``) taken from that
checkout's ``bench/``.  Both trees run the same ops, so their per-op
figures compare directly.  Times are per op, at the speed probe's
reference speed.

Each checkout runs in its own interpreter (``--one CHECKOUT`` prints that
run's JSON), parent first.  The output holds both runs in full and, under
``summary``, the ``SUMMARY`` metrics side by side.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SUMMARY = (
    "spectral.GammaFamily.ek_evaluator.eval.calls",
    "spectral.GammaFamily.ek_evaluator.eval.busy_s",
    "spectral.GammaFamily.ek_evaluator.busy_s",
    "spectral.chain_form.busy_s",
    "wick.GaussianForm.integrate.busy_s",
    "wick.WickTable.moment.busy_s",
    "wick.integrate.terms_in",
    "spectral.moment.busy_s",
    "pipeline.ek_sweep.busy_s",
    "pipeline.delta_sweep.busy_s",
    "spectral.z_root.busy_s",
    "numerics.bracket_root.calls",
    "cli.main.self_s",
    "cli.main.busy_s",
    "trace.ops_per_s_untraced",
)


def trace_one(checkout: Path, workload: str, seed: int) -> dict:
    """One traced round of ``workload`` in ``checkout``; imports that checkout's code.

    ``bench/run.py`` sets single-threaded BLAS before numpy loads.
    """
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import corpus
    import run
    import spans
    from polygauss import cli

    with tempfile.TemporaryDirectory(prefix="trace-round-") as tmp:
        warm, ops = corpus.build(workload, seed, Path(tmp))
        checker = run.Checker()
        warm_results, _ = run.run_loop(cli, warm, range(len(warm)))
        run.check_all(checker, warm, warm_results)
        untraced, _ = run.run_loop(cli, ops, range(len(ops)))
        run.check_all(checker, ops, untraced)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, _ = run.run_loop(cli, ops, range(len(ops)), tracer=tracer)
        finally:
            tracer.uninstall()
        run.check_all(checker, ops, traced)

    problems = [f"warm-up op {r.index}: {r.failure}" for r in warm_results if r.failure]
    problems += [f"op {r.index}: {r.failure}" for r in untraced if r.failure]
    problems += [f"traced op {r.index}: {r.failure}" for r in traced if r.failure]
    problems += [f"op {a.index}: exit {b.rc} traced, {a.rc} untraced"
                 for a, b in zip(untraced, traced) if a.rc != b.rc]
    spans_problems = run.check_spans(tracer, traced)
    return {
        "ops": len(ops),
        "warm_up_ops": len(warm),
        "correct": not problems,
        "problems": problems[:20],
        # Gaps between an op's root span and its latency come from host
        # scheduling; they are listed but do not make a round incorrect.
        "span_problems": spans_problems[:20],
        "per_layer": run.per_layer(tracer, untraced, traced),
        "units": run.per_layer_units(),
        "host": run.machine_context(),
    }


def git_commit(checkout: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("screen", "sweep", "zscan"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--one", type=Path, help="trace one checkout and print its JSON")
    p.add_argument("--parent", type=Path, help="parent checkout")
    p.add_argument("--change", type=Path, help="changed checkout")
    p.add_argument("--out", type=Path, help="where to write the comparison JSON")
    args = p.parse_args(argv)

    if args.one is not None:
        print(json.dumps(trace_one(args.one.resolve(), args.workload, args.seed)))
        return 0
    if args.parent is None or args.change is None or args.out is None:
        p.error("--parent, --change and --out are required without --one")

    runs = {}
    for label, checkout in (("parent", args.parent), ("change", args.change)):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--one", str(checkout.resolve())],
            capture_output=True, text=True, check=True,
        )
        runs[label] = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"{label}: {runs[label]['ops']} ops, correct={runs[label]['correct']}",
              file=sys.stderr)

    units = runs["change"]["units"]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "parent_commit": git_commit(args.parent),
        "host": runs["change"]["host"],
        "method": __doc__.split("\n\n")[2].replace("\n", " ").strip(),
        "summary": {
            name: {"parent": runs["parent"]["per_layer"].get(name),
                   "change": runs["change"]["per_layer"].get(name),
                   "unit": units.get(name)}
            for name in SUMMARY
        },
    }
    for label, result in runs.items():
        doc[label] = {k: v for k, v in result.items() if k not in ("units", "host")}
    doc["units"] = units
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
