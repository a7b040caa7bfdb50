"""Known-truth inputs for the benchmark workloads.

Every kernel is built here from numpy alone and written as a spec file, so
its label (known PSD, known not PSD) never depends on the code under test:

* Schur-product kernels ``sum_i q_i(x) conj(q_i(y))`` over a ``B = 0``
  Gaussian with ``A - C`` positive definite are PSD by construction: the
  Gaussian factor is ``exp(-x'(A+C)x - y'(A+C)y + 2x'(A-C)y)``, a PSD kernel
  when ``A - C`` is PSD, and a Schur product of PSD kernels is PSD.  The
  oscillator eigenstate kernels ``psi(x) psi(y)`` and the entangled
  fixture times ``1 + s1 x1y1 + s2 x2y2`` are PSD for the same reason.
* ``kappa-gamma-delta`` members with ``gamma`` above 4.3488 (the k = 3,
  delta = 250 threshold), kernels of odd total degree, kernels that turn
  odd after zeroing a coordinate subset, and Gaussians with ``C`` not below
  ``A`` are not PSD.

Each workload repeats a fixed pattern of classes; the seed only draws the
parameters inside a class, so every seed gives the same mix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# The k = 3, delta = 250 row of the threshold table: every family member
# above it is certified not PSD.
KAPPA_THRESHOLD = 4.34880

# Acceptance criterion 1: (k, delta) -> gamma root.
ZSCAN_REFERENCE = {
    (3, 0.0): 6.10781, (3, 10.0): 4.43150, (3, 50.0): 4.36304, (3, 250.0): 4.34880,
    (4, 0.0): 5.07931, (4, 250.0): 4.34708,
    (5, 0.0): 4.25293, (5, 250.0): 4.03973,
}
ZSCAN_REFERENCE_TOL = 1e-3
ZSCAN_LIMIT_DELTA = 1.0e4
ZSCAN_LIMIT_TOL = 5e-3
# zscan bisects to --tol 1e-6, so two roots may differ by that much in either
# direction; a rise larger than this breaks monotonicity.
ZSCAN_MONOTONE_SLACK = 1e-6


def _real_root_in(coeffs, lo: float, hi: float) -> float:
    roots = [r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-12 and lo < r.real < hi]
    if len(roots) != 1:
        raise RuntimeError(f"expected one real root of {coeffs} in ({lo}, {hi})")
    return float(roots[0])


# Acceptance criterion 2: exact delta -> infinity thresholds.
ZSCAN_LIMIT = {
    3: 2.0 + math.sqrt(5.5),
    4: 2.0 + math.sqrt(5.5),
    5: _real_root_in([16.0, -34.0, -120.0, -15.0], 3.0, 5.0),
}


@dataclass
class Op:
    """One benchmark operation: a ``polygauss`` command line plus its truth.

    ``truth`` is ``"psd"``, ``"not_psd"`` or ``None`` (zscan rows).  For
    ``check`` ops, ``expect`` may pin the certificate kind, the odd-gate
    witness or the NPT verdict; for zscan rows it holds ``k``, ``delta`` and
    an optional ``reference`` root with its tolerance.
    """

    cls: str
    argv: list[str]
    spec: Optional[str] = None
    truth: Optional[str] = None
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------------ helpers


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _pd(rng: np.random.Generator, n: int, scale: float, floor: float) -> np.ndarray:
    g = rng.normal(size=(n, n))
    return _sym(scale * (g @ g.T) + floor * np.eye(n))


def _spec(a: np.ndarray, c: np.ndarray, terms: dict, norm: float = 1.0,
          partition: Optional[list[int]] = None) -> dict:
    """Spec document with B = 0."""
    n = a.shape[0]
    doc = {
        "n": n,
        "a": [float(v) for v in a.ravel()],
        "b": [0.0] * (n * n),
        "c": [float(v) for v in c.ravel()],
        "poly": [
            {"exponents": list(e), "coeff": [float(complex(v).real), float(complex(v).imag)]}
            for e, v in terms.items()
        ],
        "norm": float(norm),
    }
    if partition is not None:
        doc["partition"] = {"part1": partition}
    return doc


def _unit(n: int, i: int, e: int = 1) -> tuple[int, ...]:
    out = [0] * n
    out[i] = e
    return tuple(out)


def schur_poly(q_list: list[dict]) -> dict:
    """Terms of ``sum_i q_i(x) conj(q_i(y))``; each ``q_i`` maps exponents to coefficients."""
    terms: dict[tuple[int, ...], complex] = {}
    for q in q_list:
        for (ea, ca), (eb, cb) in itertools.product(q.items(), repeat=2):
            key = tuple(ea) + tuple(eb)
            terms[key] = terms.get(key, 0j) + complex(ca) * complex(cb).conjugate()
    return terms


def schur_gaussian(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, C)`` with both positive definite and ``A - C`` positive definite."""
    c = _pd(rng, n, 0.3, 0.4)
    d = _pd(rng, n, 0.3, 0.3)
    return _sym(c + d), c


def _coeffs(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.5, 1.5, size=count) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=count))


# ------------------------------------------------------------ kernel classes


def caldeira(rng: np.random.Generator, level: int) -> dict:
    """Oscillator eigenstate kernel at a seeded inverse width (PSD, trace 1)."""
    beta = float(rng.uniform(0.6, 2.0))
    h = np.polynomial.hermite.herm2poly([0.0] * level + [1.0])
    terms = {}
    for i, hi in enumerate(h):
        for j, hj in enumerate(h):
            if hi != 0.0 and hj != 0.0:
                terms[(i, j)] = float(hi * hj * beta ** (i + j))
    quarter = np.array([[beta * beta / 4.0]])
    norm = math.sqrt(beta**2 / math.pi) / (2.0**level * math.factorial(level))
    return _spec(quarter, quarter, terms, norm)


def schur(rng: np.random.Generator, n: int, monomials: list[tuple[int, ...]]) -> dict:
    """PSD kernel ``q(x) conj(q(y))`` over a Schur Gaussian.

    ``monomials`` fixes the support of ``q`` (and so the cost of every
    stage); the seed draws its coefficients and the Gaussian.
    """
    a, c = schur_gaussian(rng, n)
    q = dict(zip(monomials, _coeffs(rng, len(monomials))))
    return _spec(a, c, schur_poly([q]))


def entangled(rng: np.random.Generator, with_partition: bool) -> dict:
    """The entangled two-mode fixture times ``1 + s1 x1y1 + s2 x2y2`` (PSD, NPT)."""
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = np.array([[0.6, 0.45], [0.45, 0.6]])
    s1, s2 = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    terms = {(0, 0, 0, 0): 1.0, (1, 0, 1, 0): s1, (0, 1, 0, 1): s2}
    return _spec(a, c, terms, partition=[1] if with_partition else None)


def kappa(gamma: float) -> dict:
    """``kappa-gamma-delta`` at delta = 0: ``(gamma (x+y)^2 - (x-y)^2 + 1)`` over (3/2, 0, 1)."""
    if not gamma > KAPPA_THRESHOLD:
        raise ValueError(f"gamma {gamma} is not above {KAPPA_THRESHOLD}: not known to be non-PSD")
    terms = {(2, 0): gamma - 1.0, (1, 1): 2.0 * gamma + 2.0, (0, 2): gamma - 1.0, (0, 0): 1.0}
    norm = 4.0 / (math.sqrt(math.pi) * (2.0 + gamma))
    return _spec(np.array([[1.5]]), np.array([[1.0]]), terms, norm)


def odd_direct(rng: np.random.Generator, n: int) -> dict:
    """Self-adjoint polynomial of total degree 3 (not PSD for any Gaussian)."""
    a, c = schur_gaussian(rng, n)
    i = int(rng.integers(n))
    c0, c1, c2 = (float(v) for v in rng.uniform(0.5, 1.5, size=3))
    xi, yi = _unit(n, i) + (0,) * n, (0,) * n + _unit(n, i)
    terms = {
        (0,) * (2 * n): c0,
        xi: c1,
        yi: c1,
        _unit(n, i, 2) + _unit(n, i): c2,
        _unit(n, i) + _unit(n, i, 2): c2,
    }
    return _spec(a, c, terms)


def odd_reducible(rng: np.random.Generator, n: int) -> tuple[dict, list[int]]:
    """Even-degree kernel that turns odd once coordinate n is zeroed.

    ``1 + c1 (x1 + y1) + c2 xn yn + c3 xn^2 yn^2``: zeroing a subset S leaves
    an odd top degree exactly when n is in S and 1 is not, so the
    lexicographically least witness is ``(2, ..., n)`` (1-based), reached
    after about half of all subsets.
    """
    a = _pd(rng, n, 0.1, 1.0)
    c = _pd(rng, n, 0.1, 0.5)
    c1, c2, c3 = (float(v) for v in rng.uniform(0.5, 1.5, size=3))
    last = n - 1
    terms = {
        (0,) * (2 * n): 1.0,
        _unit(n, 0) + (0,) * n: c1,
        (0,) * n + _unit(n, 0): c1,
        _unit(n, last) + _unit(n, last): c2,
        _unit(n, last, 2) + _unit(n, last, 2): c3,
    }
    return _spec(a, c, terms), list(range(2, n + 1))


def gauss_fail(rng: np.random.Generator, n: int) -> dict:
    """Even polynomial over a Gaussian with ``C - A`` positive definite (not PSD)."""
    a = _pd(rng, n, 0.3, 0.4)
    c = _sym(a + _pd(rng, n, 0.2, 0.3))
    q = {(0,) * n: 1.0, _unit(n, int(rng.integers(n))): complex(_coeffs(rng, 1)[0])}
    return _spec(a, c, schur_poly([q]))


# ---------------------------------------------------------------- workloads

# Monomial supports of q for the Schur classes: (n, support).
_Q_N1_D1 = (1, [(0,), (1,)])
_Q_N2_D1 = (2, [(0, 0), (1, 0)])
_Q_N2_D2 = (2, [(0, 0), (1, 1)])
_Q_N3_D2 = (3, [(0, 0, 0), (1, 1, 0)])
_Q_N2_D2_WIDE = (2, [(0, 0), (2, 0), (0, 2)])

# Each pattern is built so that the median and the 90th percentile of the
# op latencies fall inside one class, away from the edges between classes:
# a quantile on an edge jumps between two classes from run to run.
#
# screen, by latency: 30% cheap gates and Mercer certificates (odd_direct,
# gauss_fail, kappa, odd_reducible), 30% caldeira0/1 (the median), then
# caldeira2, the n = 1 and n = 2 Schur kernels, and 15% entangled (the p90).
SCREEN_PATTERN = (
    "odd_direct", "caldeira0", "kappa", "schur_n1_d2", "caldeira1",
    "entangled_npt", "gauss_fail", "caldeira0", "kappa", "schur_n2_d2",
    "caldeira1", "entangled", "odd_reducible", "caldeira0", "kappa",
    "schur_n2_d4", "caldeira2", "schur_n1_d2", "caldeira1", "entangled_npt",
)

# sweep, by latency: 31% caldeira and kappa, 6% n = 1 Schur, 25% n = 2
# degree-2 Schur (the median), 12% n = 2 and n = 3 degree-4 Schur, and 25%
# wide n = 2 degree-4 Schur (the p90, and most of the time).
SWEEP_PATTERN = (
    "caldeira0", "schur_n2_d2", "kappa_sweep", "schur_n2_d4_wide", "caldeira1",
    "schur_n2_d2", "schur_n1_d2", "schur_n2_d4_wide", "kappa_sweep", "schur_n2_d4",
    "caldeira2", "schur_n2_d2", "schur_n2_d4_wide", "schur_n3_d4", "schur_n2_d2",
    "schur_n2_d4_wide",
)

ZSCAN_KS = (3, 4, 5)

SCREEN_ROUNDS = 16   # 320 distinct screen ops; the schedule repeats after them
SWEEP_ROUNDS = 21    # 336 distinct sweep ops
ZSCAN_ROWS = 900


class CorpusWriter:
    """Writes spec files into ``root`` and builds the op list for one workload."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.count = 0

    def _write(self, doc: dict) -> str:
        path = self.root / f"k{self.count:05d}.json"
        self.count += 1
        path.write_text(json.dumps(doc) + "\n")
        return str(path)

    def check_op(self, rng: np.random.Generator, cls: str, extra: list[str]) -> Op:
        expect: dict = {}
        kmax: Optional[str] = None
        if cls.startswith("caldeira"):
            doc, truth = caldeira(rng, int(cls[-1])), "psd"
        elif cls.startswith("schur_"):
            (n, support), kmax = {
                "schur_n1_d2": (_Q_N1_D1, None),
                "schur_n2_d2": (_Q_N2_D1, None),
                "schur_n2_d4": (_Q_N2_D2, "4"),
                "schur_n3_d4": (_Q_N3_D2, "4"),
                "schur_n2_d4_wide": (_Q_N2_D2_WIDE, "4"),
            }[cls]
            doc, truth = schur(rng, n, support), "psd"
        elif cls.startswith("entangled"):
            with_partition = cls == "entangled_npt"
            doc, truth = entangled(rng, with_partition), "psd"
            if with_partition:
                expect["npt"] = "npt_certified"
        elif cls == "kappa":
            doc, truth = kappa(float(rng.uniform(4.5, 20.0))), "not_psd"
        elif cls == "kappa_sweep":
            doc, truth = kappa(float(rng.choice([4.5, 6.5]))), "not_psd"
        elif cls == "odd_direct":
            doc, truth = odd_direct(rng, int(rng.integers(1, 4))), "not_psd"
            expect.update(kind="odd_degree", witness=[])
        elif cls == "odd_reducible":
            doc, witness = odd_reducible(rng, int(rng.integers(10, 13)))
            truth = "not_psd"
            expect.update(kind="odd_degree", witness=witness)
        elif cls == "gauss_fail":
            doc, truth = gauss_fail(rng, int(rng.integers(1, 4))), "not_psd"
            expect["kind"] = "gaussian_gate"
        else:
            raise ValueError(f"unknown kernel class {cls!r}")
        path = self._write(doc)
        argv = ["check", path, *extra] + (["--kmax", kmax] if kmax else [])
        return Op(cls, argv, spec=path, truth=truth, expect=expect)


def zscan_op(k: int, delta: float, reference: Optional[float] = None,
             tol: Optional[float] = None) -> Op:
    text = "inf" if math.isinf(delta) else repr(float(delta))
    expect = {"k": k, "delta": delta}
    if reference is not None:
        expect.update(reference=reference, tol=tol)
    return Op(f"zscan_k{k}", ["zscan", "--k", str(k), "--deltas", text], expect=expect)


def zscan_fixed_rows() -> list[Op]:
    """Criterion-1 table rows, then the delta = 1e4 and inf rows against the limits."""
    rows = [zscan_op(k, d, ref, ZSCAN_REFERENCE_TOL) for (k, d), ref in ZSCAN_REFERENCE.items()]
    for k in ZSCAN_KS:
        rows.append(zscan_op(k, ZSCAN_LIMIT_DELTA, ZSCAN_LIMIT[k], ZSCAN_LIMIT_TOL))
        rows.append(zscan_op(k, math.inf, ZSCAN_LIMIT[k], ZSCAN_LIMIT_TOL))
    return rows


def build(workload: str, seed: int, root: Path) -> tuple[list[Op], list[Op]]:
    """Write the workload's inputs under ``root``; return (warm-up ops, timed ops)."""
    root.mkdir(parents=True, exist_ok=True)
    writer = CorpusWriter(root)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    if workload == "screen":
        pattern, rounds, extra = SCREEN_PATTERN, SCREEN_ROUNDS, []
    elif workload == "sweep":
        pattern, rounds, extra = SWEEP_PATTERN, SWEEP_ROUNDS, ["--trials", "0"]
    elif workload == "zscan":
        warm = [zscan_op(k, float(rng.uniform(0.0, 1000.0))) for k in ZSCAN_KS]
        timed = zscan_fixed_rows() + [
            zscan_op(ZSCAN_KS[i % len(ZSCAN_KS)], float(rng.uniform(0.0, 1000.0)))
            for i in range(ZSCAN_ROWS)
        ]
        return warm, timed
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warm = [writer.check_op(rng, cls, extra) for cls in pattern]
    timed = [writer.check_op(rng, cls, extra) for _ in range(rounds) for cls in pattern]
    return warm, timed
