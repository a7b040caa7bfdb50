"""Command-line front end.

Commands (exit codes: 0 undecided/positive, 1 certified not-PSD or NPT or
entangled, 2 input error, 3 internal consistency failure):

    polygauss check SPEC.json       ordered positivity pipeline
    polygauss gauss SPEC.json       symplectic spectrum of the Gaussian part
    polygauss preorder A.json B.json   preorder/equivalence relation report
    polygauss zscan --k 3 --deltas 0,10,50,250   e_k threshold sweep (CSV/JSON)
    polygauss npt SPEC.json         NPT screen (spec must carry a partition)
    polygauss fixture NAME          emit a generated kernel spec
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import families, spectral
from .entangle import npt_gate
from .gaussian import ConsistencyError, equiv, gaussian_positive, preorder_leq
from .numerics import BracketError
from .pipeline import PipelineConfig, run_pipeline
from .specio import ParsedSpec, SpecError, jsonable, parse_kernel_spec, serialize_kernel_spec

EXIT_OK = 0
EXIT_CERTIFIED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _delta_list(allow_inf: bool) -> Callable[[str], list[float]]:
    """argparse type: comma-separated finite shifts, and ``inf`` (the limit) if allowed."""

    def parse(text: str) -> list[float]:
        out = []
        for piece in text.split(","):
            piece = piece.strip()
            if piece:
                out.append(math.inf if piece.lower() in ("inf", "infinity") else float(piece))
        if not out:
            raise ValueError("empty list")
        if not all(math.isfinite(d) or (allow_inf and d == math.inf) for d in out):
            kinds = "finite or inf" if allow_inf else "finite"
            raise argparse.ArgumentTypeError(f"shifts must be {kinds}, got {text!r}")
        return out

    parse.__name__ = "delta list"
    return parse


def _int_in(lo: int, hi: Optional[int] = None) -> Callable[[str], int]:
    """argparse type: an integer in ``lo..hi``, or at least ``lo`` if ``hi`` is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo or (hi is not None and value > hi):
            bounds = f"between {lo} and {hi}" if hi is not None else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _gamma_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise argparse.ArgumentTypeError(f"must be LO:HI with finite LO < HI, got {text!r}")
    return lo, hi


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _load_spec(path: str) -> ParsedSpec:
    p = Path(path)
    if not p.exists():
        raise SpecError(f"spec file not found: {path}")
    return parse_kernel_spec(p)


def _emit(doc, args, summary: str) -> None:
    """Write the report (JSON, or CSV rows for tabular docs) to --out or stdout."""
    if getattr(args, "format", "json") == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(jsonable(doc), indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(summary)
    else:
        print(text)


def _to_csv(doc) -> str:
    if isinstance(doc, dict) and "rows" in doc:
        rows = doc["rows"]
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[h]) for h in header))
        return "\n".join(lines)
    flat = _flatten(jsonable(doc))
    return "\n".join(["key,value"] + [f"{k},{_csv_cell(v)}" for k, v in flat])


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (list, dict)):
        return '"' + json.dumps(jsonable(v)).replace('"', '""') + '"'
    return str(v)


def _flatten(doc, prefix="") -> list[tuple[str, object]]:
    out = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.extend(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(doc, list) and doc and isinstance(doc[0], dict):
        for i, v in enumerate(doc):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix[:-1], doc))
    return out


# ------------------------------------------------------------------ commands


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    config = PipelineConfig(
        kmax=args.kmax,
        trials=args.trials,
        seed=args.seed,
        deltas=tuple(args.deltas),
        escalate_npt=args.escalate,
    )
    report = run_pipeline(spec, config)
    _emit(report.to_dict(), args, f"check: {report.verdict}")
    return EXIT_CERTIFIED if report.not_psd else EXIT_OK


def cmd_gauss(args) -> int:
    spec = _load_spec(args.spec)
    verdict = gaussian_positive(spec.triple)
    doc = {
        "checksum": spec.checksum,
        "verdict": "positive" if verdict.positive else "not_positive",
        "mu_max": verdict.mu_max,
        "margin": verdict.margin,
        "borderline": verdict.borderline,
        "spectrum": verdict.spectrum.mus,
    }
    _emit(doc, args, f"gauss: {doc['verdict']} (mu_max={verdict.mu_max:.6g})")
    return EXIT_OK if verdict.positive else EXIT_CERTIFIED


def cmd_preorder(args) -> int:
    spec_a = _load_spec(args.spec_a)
    spec_b = _load_spec(args.spec_b)
    if spec_a.n != spec_b.n:
        raise SpecError("the two specs have different dimensions")
    ab, wit_ab = preorder_leq(spec_a.triple, spec_b.triple)
    ba, wit_ba = preorder_leq(spec_b.triple, spec_a.triple)
    relation = {
        (True, True): "equivalent",
        (True, False): "leq",
        (False, True): "geq",
        (False, False): "incomparable",
    }[(ab, ba)]
    doc = {
        "checksum_a": spec_a.checksum,
        "checksum_b": spec_b.checksum,
        "relation": relation,
        "equiv_formula": equiv(spec_a.triple, spec_b.triple),
        "forward": {"holds": ab, "r": wit_ab.r, "witness_mu_max": wit_ab.witness_spectrum.mu_max},
        "backward": {"holds": ba, "r": wit_ba.r, "witness_mu_max": wit_ba.witness_spectrum.mu_max},
    }
    _emit(doc, args, f"preorder: {relation}")
    return EXIT_OK


def cmd_zscan(args) -> int:
    scan = spectral.delta_scan(
        families.kappa_gamma_family(),
        args.k,
        args.deltas,
        gamma_range=args.gamma_range,
        samples=args.samples,
        tol=args.tol,
    )
    rows = [
        {
            "k": r.k,
            "delta": "inf" if math.isinf(r.delta) else r.delta,
            "gamma_root": r.gamma_root,
            "bracket_lo": r.bracket[0],
            "bracket_hi": r.bracket[1],
        }
        for r in scan.results
    ]
    best = scan.best
    doc = {
        "rows": rows,
        "best_gamma_root": best.gamma_root,
        "best_delta": "inf" if math.isinf(best.delta) else best.delta,
    }
    _emit(doc, args, f"zscan: best root {best.gamma_root:.6f} at delta={doc['best_delta']}")
    return EXIT_OK


def cmd_npt(args) -> int:
    spec = _load_spec(args.spec)
    if spec.partition is None:
        raise SpecError("field 'partition': required for the npt command")
    verdict = npt_gate(
        spec.kernel(),
        spec.partition,
        escalate=args.escalate,
        kmax=args.kmax,
        trials=args.trials,
        seed=args.seed,
    )
    doc = {
        "checksum": spec.checksum,
        "verdict": verdict.verdict,
        "stage": verdict.stage,
        "pt_mu_max": verdict.gaussian_verdict.mu_max,
        "pt_spectrum": verdict.gaussian_verdict.spectrum.mus,
    }
    if verdict.mercer is not None:
        doc["mercer"] = {
            "points": verdict.mercer.points,
            "coeffs": verdict.mercer.coeffs,
            "value": verdict.mercer.value,
        }
    if verdict.sweep_kmax is not None:
        doc["ek_kmax"] = verdict.sweep_kmax
    if verdict.sweep is not None:
        doc["ek_sweep"] = {"eks": verdict.sweep.eks, "verdict": verdict.sweep.verdict}
    _emit(doc, args, f"npt: {verdict.verdict} at {verdict.stage}")
    return EXIT_CERTIFIED if verdict.certified else EXIT_OK


FIXTURES = ("caldeira-n0", "caldeira-n1", "caldeira-n2", "kappa-gamma-delta")


def cmd_fixture(args) -> int:
    if args.name.startswith("caldeira-n"):
        level = int(args.name.rsplit("n", 1)[1])
        kernel = families.caldeira_kernel(level, args.beta)
    else:
        kernel = families.kappa_gamma_kernel(args.gamma, args.delta)
    trace = spectral.moment(kernel, 1)
    if abs(trace - 1.0) > 1e-9:
        raise ConsistencyError(f"generated fixture has trace {trace!r}, expected 1")
    doc = serialize_kernel_spec(kernel)
    _emit(doc, args, f"fixture: {args.name} written (trace={trace:.12f})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygauss",
        description="Positivity and NPT entanglement screening for polynomial-Gaussian kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    moment_order = _int_in(1, spectral.MAX_MOMENT_ORDER)
    count = _int_in(0)

    def common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("check", help="run the ordered positivity pipeline")
    p.add_argument("spec")
    p.add_argument("--kmax", type=moment_order, default=5)
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--seed", type=count, default=0)
    p.add_argument("--deltas", type=_delta_list(allow_inf=False), default="10,100,1000")
    p.add_argument("--escalate", action="store_true", help="escalate the NPT info stage")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gauss", help="symplectic spectrum and positivity of the Gaussian part")
    p.add_argument("spec")
    common(p)
    p.set_defaults(fn=cmd_gauss)

    p = sub.add_parser("preorder", help="preorder/equivalence relation of two Gaussian parts")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    common(p)
    p.set_defaults(fn=cmd_preorder)

    p = sub.add_parser("zscan", help="e_k sign-change thresholds of the built-in quadratic family")
    p.add_argument("--k", type=moment_order, default=3)
    p.add_argument("--deltas", type=_delta_list(allow_inf=True), default="0,10,50,250")
    p.add_argument("--gamma-range", type=_gamma_range, default="0:20")
    p.add_argument("--samples", type=_int_in(2), default=64)
    p.add_argument("--tol", type=_positive_float, default=1e-6)
    common(p)
    p.set_defaults(fn=cmd_zscan)

    p = sub.add_parser("npt", help="NPT entanglement screen (spec must carry a partition)")
    p.add_argument("spec")
    p.add_argument("--escalate", action="store_true")
    p.add_argument("--kmax", type=moment_order, default=5)
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--seed", type=count, default=0)
    common(p)
    p.set_defaults(fn=cmd_npt)

    p = sub.add_parser("fixture", help="emit a generated kernel spec")
    p.add_argument("name", choices=FIXTURES)
    p.add_argument("--beta", type=float, default=1.0, help="inverse width (oscillator fixtures)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    common(p)
    p.set_defaults(fn=cmd_fixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SpecError, BracketError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
