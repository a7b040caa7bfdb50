"""Span tracing around the public functions of ``polygauss`` modules.

The tracer patches functions from outside the package: every module
attribute that refers to a wrapped function (including names imported into
other ``polygauss`` modules) and every wrapped class attribute is replaced
while the tracer is installed, and restored exactly on ``uninstall``.  Spans
(name, start, end, parent, op id) are kept in flat in-memory arrays and
written out once when the run ends.

A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

PACKAGE = "polygauss"
ROOT = "bench.op"

# (module, attribute path) of every wrapped function; the layer is the
# module name.  ``spectral.GammaFamily.ek_evaluator`` additionally wraps the
# callable it returns as ``spectral.GammaFamily.ek_evaluator.eval``.
TARGETS = (
    ("cli", "main"),
    ("specio", "parse_kernel_spec"),
    ("pipeline", "run_pipeline"),
    ("poly", "odd_degree_gate"),
    ("poly", "MultiPoly.__mul__"),
    ("poly", "MultiPoly.eval_grid"),
    ("gaussian", "gaussian_positive"),
    ("gaussian", "symplectic_spectrum"),
    ("numerics", "complex_sqrt_det"),
    ("numerics", "bracket_root"),
    ("kernels", "PolyGaussianKernel.gram"),
    ("kernels", "PolyGaussianKernel.evaluate"),
    ("spectral", "mercer_search"),
    ("spectral", "verify_mercer_certificate"),
    ("spectral", "positivity_sweep"),
    ("spectral", "delta_shifted_normalized"),
    ("spectral", "moment"),
    ("spectral", "chain_form"),
    ("spectral", "GammaFamily.ek_evaluator"),
    ("spectral", "z_root"),
    ("wick", "GaussianForm.integrate"),
    ("wick", "WickTable.moment"),
    ("entangle", "npt_gate"),
)
EK_EVAL = "spectral.GammaFamily.ek_evaluator.eval"
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS) + (EK_EVAL,)
MOMENT_ORDERS = (1, 2, 3, 4, 5)


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = {}

    # ----------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self._open(0)

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self._op_id = -1

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """Span-recording wrapper; a hook that returns a value replaces the result."""
        nid = self._id(name)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if hook is not None:
                replaced = hook(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    # ------------------------------------------------------ patching

    def _hooks(self) -> dict[str, Callable]:
        from polygauss import spectral

        mercer_sig = inspect.signature(spectral.mercer_search)

        def mercer(args, kwargs, cert):
            bound = mercer_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.count("spectral.mercer_search.trials",
                       cert.trial + 1 if cert is not None else bound.arguments["trials"])
            self.count("spectral.mercer_search.certificates", cert is not None)

        def moment(args, kwargs, _):
            j = kwargs["j"] if "j" in kwargs else args[1]
            self.count(f"spectral.moment.j{j}.calls")

        def integrate(args, kwargs, _):
            self.count("wick.integrate.terms_in", len(args[0].poly.terms))

        def ek_evaluator(args, kwargs, evaluator):
            return self.wrap(evaluator, EK_EVAL)

        return {
            "spectral.mercer_search": mercer,
            "spectral.moment": moment,
            "wick.GaussianForm.integrate": integrate,
            "spectral.GammaFamily.ek_evaluator": ek_evaluator,
        }

    def install(self) -> None:
        """Wrap every target; names imported into other modules are wrapped too."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        modules = [m for k, m in sys.modules.items()
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            name = f"{mod_name}.{attr}"
            hook = hooks.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(original, name, hook))
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(original, name, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.start)
        end = np.frombuffer(self.end, dtype=float, count=n)
        start = np.frombuffer(self.start, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n).astype(np.int64)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).astype(np.int64),
            "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).astype(np.int64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path: Path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"],
                 op=a["op"], start=a["start"], end=a["end"])
