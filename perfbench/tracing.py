"""Span and count tracing of the program's public functions.

Spans are recorded from the benchmark's side: every module binding of a
traced function is replaced by a wrapper for the length of a ``Tracer``
context and restored on exit, so ``cli.solve`` and ``directional.solve``,
two bindings of ``variational.solve``, both land in the span
``variational.solve``.  Spans (name, start, end, parent) stay in memory;
self time is a span's length minus the time its child spans cover.

Lagrangian evaluations are counted in a separate ``LagrangianCounter``
pass, because a wrapper on every evaluation would inflate the self times
of the layers that evaluate.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

import deltanabla
from deltanabla import (
    cli,
    directional,
    expressions,
    identities,
    problemfile,
    timescale,
    variational,
)

MODULES = (deltanabla, cli, directional, expressions, identities, problemfile, timescale, variational)

CALCULUS = (
    timescale.delta_derivative,
    timescale.nabla_derivative,
    timescale.delta_integral,
    timescale.nabla_integral,
    timescale.shift_sigma,
    timescale.shift_rho,
)

# span name -> the functions it covers
SPANS: dict[str, tuple] = {
    "cli.main": (cli.main,),
    "problemfile.load_problem": (problemfile.load_problem,),
    "expressions.parse": (expressions.parse,),
    "expressions.differentiate": (expressions.differentiate,),
    "expressions.compile_expr": (expressions.compile_expr,),
    "variational.solve": (variational.solve,),
    "variational.gradient": (variational.gradient,),
    "variational.certify": (variational.certify,),
    "variational.objective": (variational.objective,),
    "variational.el_residual": (variational.el_residual_1, variational.el_residual_2),
    "variational.local_min_probe": (variational.local_min_probe,),
    "directional.solve_directional": (directional.solve_directional,),
    "directional.directional_el_residual": (directional.directional_el_residual,),
    "timescale.variation_constraint_matrix": (timescale.variation_constraint_matrix,),
    "timescale.calculus": CALCULUS,
    "identities.identity_suite": (identities.identity_suite,),
    "identities.check_trial": (identities.check_trial,),
}


class NewtonLedger:
    """Sorts the gradient calls of one solve into the start point, the
    finite-difference Hessian probes (one coordinate off the current
    iterate) and the line-search trials (everything else)."""

    def __init__(self):
        self.start = self.probes = self.trials = 0
        self._center = None
        self._last_trial = None

    @staticmethod
    def _one_off(a: np.ndarray, b: np.ndarray) -> bool:
        return int(np.count_nonzero(a != b)) == 1

    def observe(self, x: np.ndarray) -> None:
        if self._center is None:
            self._center = x
            self.start += 1
        elif self._one_off(x, self._center):
            self.probes += 1
        elif self._last_trial is not None and self._one_off(x, self._last_trial):
            # the previous trial was accepted; this probes the new iterate
            self._center, self._last_trial = self._last_trial, None
            self.probes += 1
        else:
            self._last_trial = x
            self.trials += 1


class Tracer:
    """Context manager that wraps every binding of the functions in SPANS.
    It may be entered again after it exits; spans and counts accumulate."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.ledgers: list[NewtonLedger] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if name == "variational.solve":
                self.ledgers.append(NewtonLedger())
            elif name == "variational.gradient" and self.ledgers:
                self.ledgers[-1].observe(np.array(args[1].values[1:-1]))
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        names = {id(fn): name for name, fns in SPANS.items() for fn in fns}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in names:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, self._wrap(names[id(value)], value))
        init = timescale.GridFunction.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["timescale.GridFunction"] += 1
            init(obj, *args, **kwargs)

        self._saved.append((timescale.GridFunction, "__init__", init))
        timescale.GridFunction.__init__ = counted_init
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANS}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return out


class LagrangianCounter:
    """Counts evaluations of every expression Lagrangian built while active:
    its value, its y partial (d2) and its v partial (d3)."""

    SLOTS = (("_fn", "value"), ("_d2", "d2"), ("_d3", "d3"))

    def __init__(self):
        self.counts: Counter = Counter()
        self._saved = None

    def _counting(self, key: str, fn):
        counts = self.counts

        def counted(t, y, v):
            counts[key] += 1
            return fn(t, y, v)

        return counted

    def __enter__(self) -> "LagrangianCounter":
        Lagrangian = variational.Lagrangian
        self._saved = Lagrangian.__dict__["from_expression"]
        build = Lagrangian.from_expression

        def from_expression(cls, src):
            lag = build(src)
            for slot, key in self.SLOTS:
                setattr(lag, slot, self._counting(key, getattr(lag, slot)))
            return lag

        Lagrangian.from_expression = classmethod(from_expression)
        return self

    def __exit__(self, *exc) -> None:
        variational.Lagrangian.from_expression = self._saved
