"""Span tracer that wraps the package's public functions from outside.

``Tracer`` rebinds every copy of each traced function for the duration of a
``with`` block and restores all of them on exit.  A name imported with
``from .algebra import op_norm`` is a separate binding in each importing
module, so every ``neveukit`` module attribute that *is* the original object
gets the wrapper.  numpy/scipy entry points are counted only when the package
calls them: each ``neveukit`` module's ``np`` and ``scipy`` globals are
swapped for overlays whose ``linalg`` attribute holds the wrappers, so calls
made inside numpy and scipy themselves are not counted.

Spans are aggregated in memory (calls, total time, self time); self time is
the span's duration minus the time covered by child spans, kept with a span
stack.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass

import numpy
import scipy.linalg

# (span name, module, attribute path); a dotted path names a method.
PACKAGE_SPANS = (
    ("algebra.TracialAlgebra.__eq__", "neveukit.algebra", "TracialAlgebra.__eq__"),
    ("algebra.Projection.__init__", "neveukit.algebra", "Projection.__init__"),
    ("algebra.op_norm", "neveukit.algebra", "op_norm"),
    ("algebra.trace_norm", "neveukit.algebra", "trace_norm"),
    ("algebra.abs_op", "neveukit.algebra", "abs_op"),
    ("algebra.support", "neveukit.algebra", "support"),
    ("maps.dual", "neveukit.maps", "dual"),
    ("maps.SuperOperator.__call__", "neveukit.maps", "SuperOperator.__call__"),
    ("maps.from_kraus", "neveukit.maps", "from_kraus"),
    ("maps.check_contraction", "neveukit.maps", "check_contraction"),
    ("maps.check_commuting", "neveukit.maps", "check_commuting"),
    ("maps.check_lamperti", "neveukit.maps", "check_lamperti"),
    ("dynamics.SemigroupAction.__init__", "neveukit.dynamics", "SemigroupAction.__init__"),
    ("dynamics.average", "neveukit.dynamics", "average"),
    ("dynamics.average_super", "neveukit.dynamics", "average_super"),
    ("dynamics.continuous_average_super", "neveukit.dynamics", "continuous_average_super"),
    ("neveu.fixed_space", "neveukit.neveu", "fixed_space"),
    ("neveu.mean_ergodic_projection", "neveukit.neveu", "mean_ergodic_projection"),
    ("neveu.invariant_state", "neveukit.neveu", "invariant_state"),
    ("neveu.weakly_wandering_certificate", "neveukit.neveu", "weakly_wandering_certificate"),
    ("neveu.neveu_decompose", "neveukit.neveu", "neveu_decompose"),
    ("convergence.measure_certify", "neveukit.convergence", "measure_certify"),
    ("convergence.bau_certify", "neveukit.convergence", "bau_certify"),
    ("convergence.stochastic_run", "neveukit.convergence", "stochastic_run"),
    ("convergence.corner_compatibility", "neveukit.convergence", "corner_compatibility"),
    ("scenarios.scenario_from_dict", "neveukit.scenarios", "scenario_from_dict"),
    ("scenarios.run", "neveukit.scenarios", "run"),
    ("scenarios.emit", "neveukit.scenarios", "emit"),
    ("scenarios.Report.canonical_bytes", "neveukit.scenarios", "Report.canonical_bytes"),
    ("cli.main", "neveukit.cli", "main"),
)

NUMPY_LINALG_SPANS = ("norm", "svd", "eigh", "eigvalsh", "eig")
SCIPY_LINALG_SPANS = ("schur", "solve_sylvester", "expm")

SPAN_NAMES = tuple(name for name, _, _ in PACKAGE_SPANS) + tuple(
    f"linalg.{f}" for f in NUMPY_LINALG_SPANS + SCIPY_LINALG_SPANS
)
# Bytes of report text written by ``emit``.
REPORT_BYTES = "scenarios.report_bytes"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Overlay:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPAN_NAMES}
        self.report_bytes = 0
        self._stack = []  # child time accumulated per open span
        self._undo = []

    def _wrap(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_emitted(self, out_path):
        self.report_bytes += os.path.getsize(out_path)

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self):
        for _, modname, _ in PACKAGE_SPANS:
            importlib.import_module(modname)
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "neveukit" or n.startswith("neveukit."))
        ]
        try:
            for name, modname, path in PACKAGE_SPANS:
                owner = sys.modules[modname]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                after = self._count_emitted if name == "scenarios.emit" else None
                wrapper = self._wrap(name, original, after)
                if cls_path:
                    self._set(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            np_linalg = _Overlay(
                numpy.linalg,
                **{f: self._wrap(f"linalg.{f}", getattr(numpy.linalg, f))
                   for f in NUMPY_LINALG_SPANS},
            )
            sp_linalg = _Overlay(
                scipy.linalg,
                **{f: self._wrap(f"linalg.{f}", getattr(scipy.linalg, f))
                   for f in SCIPY_LINALG_SPANS},
            )
            np_overlay = _Overlay(numpy, linalg=np_linalg)
            sp_overlay = _Overlay(sys.modules["scipy"], linalg=sp_linalg)
            for mod in modules:
                if vars(mod).get("np") is numpy:
                    self._set(mod, "np", np_overlay)
                if vars(mod).get("scipy") is sys.modules["scipy"]:
                    self._set(mod, "scipy", sp_overlay)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def __exit__(self, *exc):
        self._restore()
        return False

    def metrics(self):
        """Flat ``{name: value}`` table of every span's calls and self time."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        out[REPORT_BYTES] = self.report_bytes
        return out
