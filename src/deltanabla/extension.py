"""Piecewise-linear extension of grid functions and directional derivatives.

A grid function f on a finite time scale extends to a function on the whole
real interval [a, b] by linear interpolation across each gap.  The epigraph
of the extension is the convexification of the graph data, so convexity of
f, of the extension, and of that set are all the same condition, and the
one-sided directional derivative of the extension at a scale point is
u * f^Delta(t) to the right and u * f^nabla(t) to the left.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .timescale import GridFunction

__all__ = [
    "PLExtension",
    "extend",
    "directional_derivative",
    "epigraph_contains",
    "is_convex",
    "secant_slopes",
]

CONVEXITY_TOL = 1e-12  # slope decreases within this, relative to the slope magnitude, count as noise


class PLExtension:
    """The piecewise-linear function on [a, b] induced by a grid function.

    Evaluation uses the convex combination
    value = alpha * f(s) + beta * f(sigma(s)) for t = alpha*s + beta*sigma(s)
    in the gap (s, sigma(s)), and returns the stored value exactly when t is
    a scale point.
    """

    __slots__ = ("base",)

    def __init__(self, base: GridFunction):
        self.base = base

    def __call__(self, t: float) -> float:
        pts = self.base.scale.points
        vals = self.base.values
        if t < pts[0] or t > pts[-1]:
            raise DomainError(f"t={t!r} outside [{pts[0]!r}, {pts[-1]!r}]")
        i = int(np.searchsorted(pts, t))
        if i < pts.size and pts[i] == t:
            return float(vals[i])
        s, nxt = pts[i - 1], pts[i]
        beta = (t - s) / (nxt - s)
        alpha = 1.0 - beta
        return float(alpha * vals[i - 1] + beta * vals[i])


def extend(f: GridFunction) -> PLExtension:
    """The piecewise-linear extension of f to [a, b]."""
    return PLExtension(f)


def directional_derivative(
    f: GridFunction,
    t: float,
    u: float,
    method: str = "closed",
    h: float | None = None,
) -> float:
    """One-sided derivative of the extension of f at t in direction u.

    Requires t strictly between a and b (both neighbours must exist).  The
    closed form is u * f^Delta(t) for u >= 0 and u * f^nabla(t) for u <= 0;
    u = 0 gives 0.  ``method="quotient"`` instead evaluates the defining
    limit quotient (fbar(t + h*u) - fbar(t)) / h with an h small enough that
    t + h*u stays inside the adjacent gap, where the extension is affine and
    the quotient is exact.
    """
    ts = f.scale
    i = ts.index(t)
    if i == 0 or i == len(ts) - 1:
        raise DomainError(f"t={t!r} must be interior to the scale")
    if u == 0.0:
        return 0.0
    if method == "closed":
        vals = f.values
        if u > 0:
            return u * float((vals[i + 1] - vals[i]) / (ts.points[i + 1] - ts.points[i]))
        return u * float((vals[i] - vals[i - 1]) / (ts.points[i] - ts.points[i - 1]))
    if method == "quotient":
        if h is None:
            h = min(ts.mu(t), ts.nu(t)) / (8.0 * max(1.0, abs(u)))
        fbar = extend(f)
        return (fbar(t + h * u) - fbar(t)) / h
    raise ValueError(f"method must be 'closed' or 'quotient', got {method!r}")


def epigraph_contains(f: GridFunction, point: tuple[float, float]) -> bool:
    """Membership of (t, lam) in the convexified graph set of f.

    The set is never materialized: a point belongs to it exactly when
    lam >= fbar(t), where fbar(t) is the convex combination
    alpha * f(s) + beta * f(sigma(s)) over the gap containing t.
    """
    t, lam = point
    return lam >= extend(f)(t)


def secant_slopes(f: GridFunction) -> np.ndarray:
    """Slopes of consecutive segments of the extension."""
    return np.diff(f.values) / f.scale.gaps()


def is_convex(f: GridFunction) -> bool:
    """Whether f (equivalently its extension, equivalently the convexified
    graph set) is convex: consecutive secant slopes must be nondecreasing.

    ``CONVEXITY_TOL`` absorbs floating-point noise, relative to the slope
    magnitude.
    """
    if len(f.scale) < 2:
        raise DomainError("convexity needs at least two points")
    slopes = secant_slopes(f)
    if slopes.size < 2:
        return True
    allowance = CONVEXITY_TOL * max(1.0, float(np.max(np.abs(slopes))))
    return bool(np.all(np.diff(slopes) >= -allowance))
