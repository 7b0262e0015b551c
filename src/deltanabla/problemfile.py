"""Loading and validating JSON problem files.

Schema (all keys at the top level unless nested):

    timescale:   {"points": [t0, t1, ...]}            explicit finite scale
                 or {"interval": {"a": .., "b": .., "n": ..}}  uniform sampling
    kind:        "delta-nabla" | "directional"
    gamma1, gamma2:      weights (delta-nabla problems)
    u:                   nonzero direction (directional problems)
    lagrangian_delta, lagrangian_nabla:  expression strings over t, y, v
    lagrangian:          expression string (directional problems)
    boundary:    {"alpha": .., "beta": ..}
    solver:      {"tol": .., "max_iter": ..}   optional

Validation failures raise ProblemFileError carrying the offending key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import DomainError, ExpressionSyntaxError, ProblemFileError
from .directional import DirectionalProblem
from .timescale import TimeScale
from .variational import DeltaNablaProblem, Lagrangian

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


@dataclass
class LoadedProblem:
    kind: str
    problem: DeltaNablaProblem | DirectionalProblem
    tol: float
    max_iter: int
    meta: dict


def _require(data: dict, key: str) -> Any:
    if key not in data:
        raise ProblemFileError(key, "missing")
    return data[key]


def _number(data: dict, key: str) -> float:
    return _finite(_require(data, key), key)


def _finite(value: Any, key: str) -> float:
    """value as a float, when it is a finite JSON number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(key, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ProblemFileError(key, f"expected a finite number, got {value!r}")
    return x


def _build_scale(data: dict) -> tuple[TimeScale, dict]:
    spec = _require(data, "timescale")
    if not isinstance(spec, dict):
        raise ProblemFileError("timescale", "expected an object")
    if "points" in spec:
        pts = spec["points"]
        if not isinstance(pts, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in pts
        ):
            raise ProblemFileError("timescale.points", "expected a list of numbers")
        try:
            ts = TimeScale(pts)
        except DomainError as exc:
            raise ProblemFileError("timescale.points", str(exc)) from None
        meta = {"source": "points", "points": [float(x) for x in ts.points]}
        return ts, meta
    if "interval" in spec:
        iv = spec["interval"]
        if not isinstance(iv, dict):
            raise ProblemFileError("timescale.interval", "expected an object")
        try:
            a = _number(iv, "a")
            b = _number(iv, "b")
            n = _require(iv, "n")
        except ProblemFileError as exc:
            raise ProblemFileError(f"timescale.interval.{exc.key}", "missing or invalid") from None
        if isinstance(n, bool) or not isinstance(n, int):
            raise ProblemFileError("timescale.interval.n", "expected an integer")
        try:
            ts = TimeScale.sampled_interval(a, b, n)
        except DomainError as exc:
            raise ProblemFileError("timescale.interval", str(exc)) from None
        meta = {
            "source": "interval",
            "interval": {"a": a, "b": b, "n": n},
            "points": [float(x) for x in ts.points],
        }
        return ts, meta
    raise ProblemFileError("timescale", "needs either 'points' or 'interval'")


def _parse_lagrangian(data: dict, key: str) -> Lagrangian:
    src = _require(data, key)
    if not isinstance(src, str):
        raise ProblemFileError(key, f"expected an expression string, got {src!r}")
    try:
        return Lagrangian.from_expression(src)
    except ExpressionSyntaxError as exc:
        raise ProblemFileError(key, str(exc)) from None


def load_problem_dict(data: dict) -> LoadedProblem:
    """Validate a parsed problem dictionary and build the problem object."""
    if not isinstance(data, dict):
        raise ProblemFileError("<root>", "problem file must hold a JSON object")
    ts, ts_meta = _build_scale(data)
    if len(ts) < 3:
        raise ProblemFileError(
            "timescale", "the scale needs at least one interior point"
        )

    boundary = _require(data, "boundary")
    if not isinstance(boundary, dict):
        raise ProblemFileError("boundary", "expected an object")
    try:
        alpha = _number(boundary, "alpha")
        beta = _number(boundary, "beta")
    except ProblemFileError as exc:
        raise ProblemFileError(f"boundary.{exc.key}", "missing or not a finite number") from None
    kind = _require(data, "kind")
    meta: dict = {"timescale": ts_meta}

    solver = data.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemFileError("solver", "expected an object")
    tol = _finite(solver.get("tol", DEFAULT_TOL), "solver.tol")
    if tol <= 0:
        raise ProblemFileError("solver.tol", "must be positive")
    max_iter = solver.get("max_iter", DEFAULT_MAX_ITER)
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise ProblemFileError("solver.max_iter", f"expected an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ProblemFileError("solver.max_iter", "must be at least 1")

    if kind == "delta-nabla":
        gamma1 = _number(data, "gamma1")
        gamma2 = _number(data, "gamma2")
        if gamma1 == 0.0 and gamma2 == 0.0:
            raise ProblemFileError("gamma1", "gamma1 and gamma2 cannot both be zero")
        L_delta = _parse_lagrangian(data, "lagrangian_delta")
        L_nabla = _parse_lagrangian(data, "lagrangian_nabla")
        problem = DeltaNablaProblem(ts, gamma1, gamma2, L_delta, L_nabla, alpha, beta)
        meta.update(
            {
                "gamma1": gamma1,
                "gamma2": gamma2,
                "lagrangian_delta": data["lagrangian_delta"],
                "lagrangian_nabla": data["lagrangian_nabla"],
            }
        )
    elif kind == "directional":
        u = _number(data, "u")
        if u == 0.0:
            raise ProblemFileError("u", "must be nonzero")
        L = _parse_lagrangian(data, "lagrangian")
        problem = DirectionalProblem(ts, u, L, alpha, beta)
        meta.update({"u": u, "lagrangian": data["lagrangian"]})
    else:
        raise ProblemFileError("kind", f"expected 'delta-nabla' or 'directional', got {kind!r}")

    meta["boundary"] = {"alpha": alpha, "beta": beta}
    meta["solver"] = {"tol": tol, "max_iter": max_iter}
    return LoadedProblem(kind=kind, problem=problem, tol=tol, max_iter=max_iter, meta=meta)


def load_problem(path: str | Path) -> LoadedProblem:
    """Read, parse, and validate a problem file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError("<file>", f"invalid JSON: {exc}") from None
    return load_problem_dict(data)
