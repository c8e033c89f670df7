"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions of each fracham module and
rebinds every name under which a fracham module holds them, so calls
between layers (``variational`` calling ``fracnum.apply``, ``solver``
calling ``build_operator``) pass through the wrappers too. Each wrapper
records one span: its calls, its inclusive time and its self time, which
is the inclusive time minus that of the wrapped calls it made. Functions
that a later version of the library no longer has are skipped.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

SIZES = (256, 512, 1024, 2048, 4096)


def _build_args(args, kwargs):
    kind, order, grid = args + tuple(kwargs[k] for k in ("kind", "order", "grid")[len(args):])
    return kind, float(getattr(order, "value", order)), grid


def _grid_n(args, kwargs):
    return _build_args(args, kwargs)[2].n


def _problem_n(args, kwargs):
    return (kwargs.get("problem") or args[0]).grid.n


VARIATIONAL = ("evaluate_functional", "el_residual", "transversality_terms",
               "hamiltonian", "hamilton_residuals", "equivalence_gap")

# (span name, module, attribute, size of the call or None)
TARGETS = [
    ("kernels.caputo_l1", "fracham._kernels", "caputo_l1", None),
    ("kernels.int_weights", "fracham._kernels", "int_weights", None),
    ("fracnum.build_operator", "fracham.fracnum", "build_operator", _grid_n),
    ("fracnum.apply", "fracham.fracnum", "apply", None),
    *((f"variational.{fn}", "fracham.variational", fn, None) for fn in VARIATIONAL),
    ("solver.assemble", "fracham.solver", "assemble", _problem_n),
    ("solver.solve", "fracham.solver", "solve", _problem_n),
    ("solver.convergence_study", "fracham.solver", "convergence_study", None),
    ("cli.main", "fracham.cli", "main", None),
]


class _Span:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0

    def add(self, total: float, self_time: float) -> None:
        self.calls += 1
        self.total += total
        self.self += self_time


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: dict[str, _Span] = defaultdict(_Span)
        self._children: list[float] = []  # wrapped time inside each open span
        self._variational_depth = 0
        self.applies_in_variational = 0
        self._built: set = set()          # build_operator argument keys seen
        self.repeat_builds = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "fracham" or name.startswith("fracham.")]
        for span, module, attr, size_of in TARGETS:
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                continue
            traced = self._wrap(span, fn, size_of)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, traced)

    def _wrap(self, span: str, fn, size_of):
        variational = span.startswith("variational.")
        is_apply = span == "fracnum.apply"
        is_build = span == "fracnum.build_operator"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if is_apply and self._variational_depth:
                self.applies_in_variational += 1
            if is_build:
                key = _build_args(args, kwargs)
                first = key not in self._built
                self._built.add(key)
                self.repeat_builds += not first
            self._variational_depth += variational
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - t0
                child = self._children.pop()
                self._variational_depth -= variational
                if self._children:
                    self._children[-1] += total
                self.spans[span].add(total, total - child)
                if size_of is not None:
                    n = size_of(args, kwargs)
                    self.spans[f"{span}.n{n}"].add(total, total - child)
                    if is_build and first:
                        self.spans[f"{span}.n{n}.first"].add(total, total - child)

        traced.__wrapped__ = fn
        return traced

    def metrics(self, ops: int, applies_in_variational: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; absent layers read 0."""
        s = self.spans
        out: dict[str, tuple[float, str]] = {}

        def per_call(key, attr):
            sp = s.get(key)
            return 1e3 * getattr(sp, attr) / sp.calls if sp and sp.calls else 0.0

        for span, *_ in TARGETS:
            sp = s.get(span) or _Span()
            out[f"{span}.calls"] = (sp.calls, "count")
            out[f"{span}.self_ms"] = (1e3 * sp.self, "ms")
        build = s.get("fracnum.build_operator")
        out["fracnum.build_operator.repeat_ratio"] = (
            self.repeat_builds / build.calls if build and build.calls else 0.0, "ratio")
        for n in SIZES:
            out[f"fracnum.build_operator.n{n}.ms_per_build"] = (
                per_call(f"fracnum.build_operator.n{n}.first", "total"), "ms")
            out[f"solver.assemble.n{n}.self_ms_per_call"] = (
                per_call(f"solver.assemble.n{n}", "self"), "ms")
            out[f"solver.solve.n{n}.self_ms_per_call"] = (
                per_call(f"solver.solve.n{n}", "self"), "ms")
            out[f"solver.solve.n{n}.ms_per_call"] = (
                per_call(f"solver.solve.n{n}", "total"), "ms")
        out["variational.applies_per_query"] = (applies_in_variational / ops, "count")
        return out
