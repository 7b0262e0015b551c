"""Variational problems driven by a direction u.

A nonzero real direction unifies the forward and backward calculi: the
measure d_u t scales the delta integral for u > 0 and the nabla integral
for u < 0, the shifted composition u * (y o sigma) or u * (y o rho) feeds
the state slot, and the derivative slot carries the one-sided directional
derivative of the trajectory's piecewise-linear extension, which is
u * y^Delta or u * y^nabla.  A directional problem therefore is a plain
one-term problem: the delta term (u > 0) or the nabla term (u < 0) of the
integrand u * L(t, u*s, u*w), and it is solved as one.  The directional
Euler-Lagrange residual is computed on its own from the inner L, on the
same two-point stencil as the variational terms, at (t_e, u * y_s,
u * slope).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .extension import _direction
from .timescale import (
    _STENCIL,
    GridFunction,
    TimeScale,
    _integral,
    _slopes,
    shift_rho,
    shift_sigma,
)
from .variational import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    HESSIAN,
    Lagrangian,
    Solution,
    Term,
    TermSumProblem,
    _check_scales,
    _max_abs_residual,
    _stream,
    solve,
)

__all__ = [
    "DirectionalProblem",
    "DirectionalSolution",
    "d_u_integral",
    "shifted_composition",
    "reduced_lagrangian",
    "directional_el_residual",
    "solve_directional",
]


def d_u_integral(f: GridFunction, u: float) -> float:
    """u times the delta integral of f over [a, b] for u >= 0, u times the
    nabla integral for u < 0 (0 for u = 0, where both kinds agree)."""
    kind = _direction(u)
    if u == 0.0:
        return 0.0
    return u * _integral(f, None, None, kind)


def shifted_composition(y: GridFunction, u: float) -> GridFunction:
    """u * (y o sigma) for u >= 0, u * (y o rho) for u < 0."""
    return u * {"delta": shift_sigma, "nabla": shift_rho}[_direction(u)](y)


def reduced_lagrangian(L: Lagrangian, u: float) -> Lagrangian:
    """The integrand of a directional problem's one term: (t, s, w) -> u * L(t, u*s, u*w).

    Its slot partials are u^2 times those of L at the scaled arguments,
    and its second partials u^3 times L's.  On arrays its fast pass scales
    the arguments as arrays and the results by those factors: for the
    value and the partials it streams L's raw scalar functions, which
    gives the bits of the scalar closures below, and on a fault the
    closures name it, sample by sample; for the Hessian it makes one array
    call of ``L.hessian``, L's compiled second partials for an expression
    and L's own central differences for a callable, whose error names the
    failing sample.
    """
    if not isinstance(L, Lagrangian):
        raise ConfigurationError(f"a directional problem needs a Lagrangian, got {type(L).__name__}")
    uu = u * u
    reduced = Lagrangian(
        lambda t, s, w: u * L(t, u * s, u * w),
        d2=lambda t, s, w: uu * L.d2(t, u * s, u * w),
        d3=lambda t, s, w: uu * L.d3(t, u * s, u * w),
    )
    factor = {"L": u, "d2": uu, "d3": uu, **dict.fromkeys(HESSIAN, u**3)}

    def fast(keys, t, s, w):
        s, w = (u * np.asarray(a, float) for a in (s, w))
        inner = L.hessian(t, s, w) if keys == HESSIAN else _stream([L._raw(key) for key in keys], t, s, w)
        return tuple(factor[key] * a for key, a in zip(keys, inner))

    reduced._fast = fast
    reduced.source = L.source
    return reduced


class DirectionalProblem(TermSumProblem):
    """Extremize the d_u integral of L(t, (y o xi_u)(t), D ybar(t)(u)) with
    fixed endpoint values: the one-term problem whose term is the delta
    (u > 0) or nabla (u < 0) integral of ``reduced_lagrangian(L, u)``.
    ``u`` and the inner ``L`` are kept for the directional residual."""

    def __init__(self, scale: TimeScale, u: float, L: Lagrangian, alpha: float, beta: float):
        kind = _direction(u)
        if u == 0.0:
            raise DomainError("direction u must be nonzero; for u = 0 there is nothing to extremize")
        self.u = float(u)
        self.L = L
        term = Term(1.0, reduced_lagrangian(L, self.u), kind)
        super().__init__(scale, [term], alpha, beta)


def directional_el_residual(p: DirectionalProblem, y: GridFunction, strict: bool = False) -> GridFunction:
    """Pointwise defect of the directional Euler-Lagrange equation.

    Builds g(t) = d3 L(t, (y o xi_u)(t), D ybar(t)(u)), applies the
    directional derivative to its extension, and subtracts
    u * d2 L(t, ...).  The residual lives on the twice-truncated side
    matching the sign of u; ``strict=True`` intersects both twice-truncated
    domains (which can be empty on very small scales, raising DomainError).
    """
    _check_scales(p, y)
    ts = p.scale
    u = p.u
    e, s, tag = _STENCIL[p.terms[0].kind]
    slope = _slopes(ts, y.values)
    ts_e = ts.truncated(tag)
    d2, d3 = p.L.partials(ts_e.points, u * y.values[s], u * slope)
    # u times the delta (u > 0) or nabla (u < 0) derivative of d3 along the
    # points t_e, minus u * d2; it lives on t_e truncated once more
    resid = u * _slopes(ts_e, d3) - u * d2[e]
    if not strict:
        return GridFunction(ts_e.truncated(tag), resid)
    # both twice-truncated domains intersected: drop two more points on the
    # side opposite to u, the side that slice s drops
    if len(ts) < 5:
        raise DomainError("the doubly-truncated intersection is empty on this scale")
    return GridFunction(TimeScale(ts.points[2:-2]), resid[s][s])


@dataclass
class DirectionalSolution(Solution):
    """Solution of the one-term problem plus the directional residual
    (max-abs over the wide domain, and over the strict intersection when
    that is nonempty)."""

    residual_directional: float
    residual_directional_strict: float | None


def solve_directional(
    p: DirectionalProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: GridFunction | None = None,
) -> DirectionalSolution:
    """Solve the one-term delta (u > 0) or nabla (u < 0) problem.

    Like ``solve``, it reports a trajectory outside the Lagrangian's domain,
    or one where the residual overflows, and does not raise: the
    directional residuals are then NaN, by ``solve``'s domain rule.
    """
    sol = solve(p, tol=tol, max_iter=max_iter, init=init)
    try:
        strict_max = _max_abs_residual(directional_el_residual, p, sol.y, True)
    except DomainError:  # the strict intersection is empty
        strict_max = None
    return DirectionalSolution(
        **vars(sol),
        residual_directional=_max_abs_residual(directional_el_residual, p, sol.y),
        residual_directional_strict=strict_max,
    )
