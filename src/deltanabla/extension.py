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
from .timescale import GridFunction, _derivative, _one_function, _real, _slopes

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
        _one_function(self.base, "an extended function")
        pts = self.base.scale.points
        vals = self.base.values
        if not pts[0] <= _real(t, "t") <= pts[-1]:
            raise DomainError(f"t={t!r} outside [{float(pts[0])!r}, {float(pts[-1])!r}]")
        i = int(np.searchsorted(pts, t))
        if i < pts.size and pts[i] == t:
            return float(vals[i])
        s, nxt = pts[i - 1], pts[i]
        beta = (t - s) / (nxt - s)
        alpha = 1.0 - beta
        return float(alpha * vals[i - 1] + beta * vals[i])


def _direction(u: float) -> str:
    """The kind that the direction u picks: "delta" for u >= 0, "nabla" for
    u < 0.  u must be a finite real number, by ``_real``'s rule."""
    return "delta" if _real(u, "direction u") >= 0.0 else "nabla"


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
    closed form is u * f^Delta(t) for u >= 0 and u * f^nabla(t) for u < 0;
    u = 0 gives 0.  ``method="quotient"`` instead evaluates the defining
    limit quotient (fbar(t + h*u) - fbar(t)) / h.  h must be a positive real
    with h*|u| at most the gap on u's side of t (mu(t) for u > 0, nu(t) for
    u < 0), where the extension is affine and the quotient exact; it
    defaults to min(mu(t), nu(t)) / (8 * max(1, |u|)).
    """
    _one_function(f, "directional_derivative's f")
    kind = _direction(u)
    ts = f.scale
    i = ts.index(t)
    if i == 0 or i == len(ts) - 1:
        raise DomainError(f"t={t!r} must be interior to the scale")
    if u == 0.0:
        return 0.0
    if method == "closed":
        return u * _derivative(f, kind).value_at(t)
    if method == "quotient":
        if h is None:
            h = min(ts.mu(t), ts.nu(t)) / (8.0 * max(1.0, abs(u)))
        elif not 0.0 < _real(h, "h") * abs(u) <= {"delta": ts.mu, "nabla": ts.nu}[kind](t):
            raise DomainError(f"h must be positive with h*|u| at most the gap on u's side of t, got {h!r}")
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
    return _real(lam, "lam") >= extend(f)(t)


def secant_slopes(f: GridFunction) -> np.ndarray:
    """Slopes of consecutive segments of the extension."""
    return _slopes(f.scale, f.values)


def is_convex(f: GridFunction) -> bool:
    """Whether f (equivalently its extension, equivalently the convexified
    graph set) is convex: consecutive secant slopes must be nondecreasing.

    ``CONVEXITY_TOL`` absorbs floating-point noise, relative to the slope
    magnitude.
    """
    _one_function(f, "is_convex's f")
    if len(f.scale) < 2:
        raise DomainError("convexity needs at least two points")
    slopes = secant_slopes(f)
    if slopes.size < 2:
        return True
    allowance = CONVEXITY_TOL * max(1.0, float(np.max(np.abs(slopes))))
    return bool(np.all(np.diff(slopes) >= -allowance))
