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

Each kind is one row of the table ``_KINDS``: its problem class and the keys
of its numbers and Lagrangians, which one generic block reads and validates.

Validation failures raise ProblemFileError carrying the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import DomainError, ExpressionSyntaxError, ProblemFileError
from .directional import DirectionalProblem
from .timescale import TimeScale, _real
from .variational import DEFAULT_MAX_ITER, DEFAULT_TOL, DeltaNablaProblem, Lagrangian

__all__ = [
    "LoadedProblem",
    "load_problem",
    "load_problem_dict",
]

# One row per kind: its problem class, its number keys and Lagrangian keys
# in constructor order, and the error on the first number key when every
# number is zero.
_KINDS = {
    "delta-nabla": (DeltaNablaProblem, ("gamma1", "gamma2"), ("lagrangian_delta", "lagrangian_nabla"),
                    "gamma1 and gamma2 cannot both be zero"),
    "directional": (DirectionalProblem, ("u",), ("lagrangian",), "must be nonzero"),
}


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
    """value as a float, by ``_real``'s rule, with its refusal keyed."""
    try:
        return _real(value, key)
    except DomainError:
        raise ProblemFileError(key, f"expected a finite number, got {value!r}") from None


def _build_scale(data: dict) -> tuple[TimeScale, dict]:
    spec = _require(data, "timescale")
    if not isinstance(spec, dict):
        raise ProblemFileError("timescale", "expected an object")
    if "points" in spec:
        pts = spec["points"]
        if not isinstance(pts, list):
            raise ProblemFileError("timescale.points", "expected a list of numbers")
        pts = [_finite(x, "timescale.points") for x in pts]
        key, meta, build, args = "timescale.points", {"source": "points"}, TimeScale, (pts,)
    elif "interval" in spec:
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
        key, meta = "timescale.interval", {"source": "interval", "interval": {"a": a, "b": b, "n": n}}
        build, args = TimeScale.sampled_interval, (a, b, n)
    else:
        raise ProblemFileError("timescale", "needs either 'points' or 'interval'")
    try:
        ts = build(*args)
    except DomainError as exc:
        raise ProblemFileError(key, str(exc)) from None
    meta["points"] = ts.points.tolist()
    return ts, meta


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

    if not isinstance(kind, str) or kind not in _KINDS:
        raise ProblemFileError("kind", f"expected {' or '.join(map(repr, _KINDS))}, got {kind!r}")
    cls, number_keys, lagrangian_keys, all_zero = _KINDS[kind]
    numbers = [_number(data, key) for key in number_keys]
    if not any(numbers):
        raise ProblemFileError(number_keys[0], all_zero)
    lagrangians = [_parse_lagrangian(data, key) for key in lagrangian_keys]
    problem = cls(ts, *numbers, *lagrangians, alpha, beta)
    meta.update(zip(number_keys, numbers))
    meta.update((key, data[key]) for key in lagrangian_keys)

    meta["boundary"] = {"alpha": alpha, "beta": beta}
    meta["solver"] = {"tol": tol, "max_iter": max_iter}
    return LoadedProblem(kind=kind, problem=problem, tol=tol, max_iter=max_iter, meta=meta)


def load_problem(path: str | Path) -> LoadedProblem:
    """Read, parse, and validate a problem file."""
    try:
        data = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise ProblemFileError("<file>", f"not readable as text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError("<file>", f"invalid JSON: {exc}") from None
    return load_problem_dict(data)
