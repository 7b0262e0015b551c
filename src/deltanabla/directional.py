"""Variational problems driven by a direction u.

A nonzero real direction unifies the forward and backward calculi: the
measure d_u t scales the delta integral for u > 0 and the nabla integral
for u < 0, the shifted composition u * (y o sigma) or u * (y o rho) feeds
the state slot, and the derivative slot carries the one-sided directional
derivative of the trajectory's piecewise-linear extension, which is
u * y^Delta or u * y^nabla.  Each sign therefore reduces to a plain
single-term problem, which is how these problems are solved here.  The
directional Euler-Lagrange residual is computed on its own from the inner
L, on the same two-point stencil as the variational terms, at
(t_e, u * y_s, u * slope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .timescale import (
    GridFunction,
    TimeScale,
    delta_integral,
    nabla_integral,
    shift_rho,
    shift_sigma,
)
from .variational import (
    Lagrangian,
    Solution,
    Term,
    TermSumProblem,
    _nan_outside_domain,
    _stencil,
    objective,
    solve,
)

__all__ = [
    "DirectionalProblem",
    "DirectionalSolution",
    "d_u_integral",
    "shifted_composition",
    "reduced_lagrangian",
    "reduced_problem",
    "directional_objective",
    "directional_el_residual",
    "solve_directional",
]


def d_u_integral(f: GridFunction, u: float) -> float:
    """u times the delta integral of f over [a, b] for u >= 0, u times the
    nabla integral for u <= 0 (0 for u = 0, where both branches agree)."""
    if u == 0.0:
        return 0.0
    if u > 0.0:
        return u * delta_integral(f)
    return u * nabla_integral(f)


def shifted_composition(y: GridFunction, u: float) -> GridFunction:
    """u * (y o sigma) for u >= 0, u * (y o rho) for u <= 0."""
    if u >= 0.0:
        return u * shift_sigma(y)
    return u * shift_rho(y)


class DirectionalProblem:
    """Extremize the d_u integral of L(t, (y o xi_u)(t), D ybar(t)(u)) with
    fixed endpoint values."""

    def __init__(self, scale: TimeScale, u: float, L: Lagrangian, alpha: float, beta: float):
        if u == 0.0:
            raise DomainError("direction u must be nonzero; for u = 0 there is nothing to extremize")
        if len(scale) < 3:
            raise DomainError("the scale needs at least one interior point")
        self.scale = scale
        self.u = float(u)
        self.L = L
        self.alpha = float(alpha)
        self.beta = float(beta)


def reduced_lagrangian(L: Lagrangian, u: float) -> Lagrangian:
    """The integrand of the sign-reduced problem: (t, s, w) -> u * L(t, u*s, u*w).

    Its slot partials are u^2 times those of L at the scaled arguments.
    """
    uu = u * u
    return Lagrangian(
        lambda t, s, w: u * L(t, u * s, u * w),
        d2=lambda t, s, w: uu * L.d2(t, u * s, u * w),
        d3=lambda t, s, w: uu * L.d3(t, u * s, u * w),
        source=L.source,
    )


def _kind(u: float) -> str:
    """The term kind a nonzero direction reduces to."""
    return "delta" if u > 0 else "nabla"


def reduced_problem(p: DirectionalProblem) -> TermSumProblem:
    """The single-term delta (u > 0) or nabla (u < 0) problem the
    directional problem reduces to."""
    return TermSumProblem(
        p.scale, [Term(1.0, reduced_lagrangian(p.L, p.u), _kind(p.u))], p.alpha, p.beta
    )


def directional_objective(p: DirectionalProblem, y: GridFunction) -> float:
    """Value of the directional functional at a trajectory; equals the
    objective of the sign-reduced problem by construction."""
    return objective(reduced_problem(p), y)


def directional_el_residual(p: DirectionalProblem, y: GridFunction, strict: bool = False) -> GridFunction:
    """Pointwise defect of the directional Euler-Lagrange equation.

    Builds g(t) = d3 L(t, (y o xi_u)(t), D ybar(t)(u)), applies the
    directional derivative to its extension, and subtracts
    u * d2 L(t, ...).  The residual lives on the twice-truncated side
    matching the sign of u; ``strict=True`` intersects both twice-truncated
    domains (which can be empty on very small scales, raising DomainError).
    """
    ts = p.scale
    if len(ts) < 3:
        raise DomainError("the residual needs at least three scale points")
    if y.scale != ts:
        raise DomainError("trajectory scale differs from the problem scale")
    u = p.u
    e, s, slope = _stencil(_kind(u), ts, y.values)
    t_e = ts.points[e]
    d2, d3 = p.L.partials(t_e, u * y.values[s], u * slope)
    # u times the delta (u > 0) or nabla (u < 0) derivative of d3 along the
    # points t_e, minus u * d2; it lives on t_e truncated once more
    resid = u * (np.diff(d3) / np.diff(t_e)) - u * d2[e]
    wide = GridFunction(TimeScale(t_e[e]), resid)

    if not strict:
        return wide
    strict_lo, strict_hi = 2, len(ts) - 3  # both twice-truncated domains intersected
    if strict_hi < strict_lo:
        raise DomainError("the doubly-truncated intersection is empty on this scale")
    strict_points = ts.points[strict_lo : strict_hi + 1]
    strict_vals = [wide.value_at(t) for t in strict_points]
    return GridFunction(TimeScale(strict_points), strict_vals)


@dataclass
class DirectionalSolution(Solution):
    """Solution of the reduced problem plus the directional residual
    (max-abs over the wide domain, and over the strict intersection when
    that is nonempty)."""

    residual_directional: float = 0.0
    residual_directional_strict: float | None = None


def solve_directional(
    p: DirectionalProblem,
    tol: float = 1e-10,
    max_iter: int = 200,
    init: GridFunction | None = None,
) -> DirectionalSolution:
    """Solve by reduction to the delta (u > 0) or nabla (u < 0) problem.

    Like ``solve``, it reports a trajectory outside the Lagrangian's domain
    and does not raise: the directional residuals are then NaN.
    """
    sol = solve(reduced_problem(p), tol=tol, max_iter=max_iter, init=init)

    def max_abs(strict: bool) -> float:
        return float(np.max(np.abs(directional_el_residual(p, sol.y, strict).values)))

    try:
        strict_max = _nan_outside_domain(lambda: max_abs(True))
    except DomainError:
        strict_max = None
    return DirectionalSolution(
        **vars(sol),
        residual_directional=_nan_outside_domain(lambda: max_abs(False)),
        residual_directional_strict=strict_max,
    )
