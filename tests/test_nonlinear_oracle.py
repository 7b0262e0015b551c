"""``solve`` against a 40-digit root of the discrete stationarity equations,
for Lagrangians that are not quadratic.

sympy parses the same expression text that the solver parses and
differentiates it; its partials are evaluated by mpmath at 40 digits.  The
gradient of the discrete functional is written out here from the
definitions of the two integrals, and Newton's method with a 40-digit
central-difference Jacobian, started from ``solve``'s answer, drives it
below 1e-25.  Nothing is shared with the package's stencil, expressions or
``Lagrangian``.
"""

import numpy as np
import pytest

from deltanabla import (
    DeltaNablaProblem,
    DirectionalProblem,
    Lagrangian,
    TimeScale,
    solve,
    solve_directional,
)

sympy = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath").mp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations  # noqa: E402

DELTA = "t*v^2 + y^4 + sin(t)*y"
NABLA = "exp(y/4)*v^2/2 + cos(t)*y"
DIGITS = 40
GRADIENT_TOL = "1e-25"
STEP = "1e-15"  # central-difference step of the Jacobian
T, Y, V = sympy.symbols("t y v")


def partials(text, u=None):
    """d2 and d3 of the text's expression at 40 digits; with a direction u,
    those of the reduced integrand u * L(t, u*s, u*w)."""
    expr = parse_expr(text, local_dict={"t": T, "y": Y, "v": V},
                      transformations=standard_transformations + (convert_xor,))
    if u is not None:
        expr = u * expr.subs({Y: u * Y, V: u * V}, simultaneous=True)
    return tuple(sympy.lambdify((T, Y, V), sympy.diff(expr, x), "mpmath") for x in (Y, V))


def gradient(points, terms, y):
    """The interior gradient of the sum over terms (weight, kind, d2, d3) of
    weight times the kind's integral.  Over the gap [t_i, t_{i+1}] of length
    h, with slope w = (y_{i+1} - y_i) / h, the delta integral adds
    h * L(t_i, y_{i+1}, w) and the nabla integral adds h * L(t_{i+1}, y_i, w)."""
    g = [mp.mpf(0)] * len(points)
    for i in range(len(points) - 1):
        h = points[i + 1] - points[i]
        w = (y[i + 1] - y[i]) / h
        for weight, kind, d2, d3 in terms:
            at, state = (i, i + 1) if kind == "delta" else (i + 1, i)
            t, s = points[at], y[state]
            momentum = weight * d3(t, s, w)
            g[i] -= momentum
            g[i + 1] += momentum
            g[state] += weight * h * d2(t, s, w)
    return g[1:-1]


def root(points, terms, start):
    """Newton's method at 40 digits from the float trajectory start.  The
    gradient at an interior point reads only the point and its two
    neighbours, so the central differences perturb every third point at once."""
    points = [mp.mpf(float(x)) for x in points]
    y = [mp.mpf(float(x)) for x in start]
    step, m = mp.mpf(STEP), len(y) - 2
    for _ in range(6):
        g = gradient(points, terms, y)
        if max(abs(x) for x in g) < mp.mpf(GRADIENT_TOL):
            return np.array([float(x) for x in y])
        jac = mp.zeros(m, m)
        for c in range(3):
            plus, minus = list(y), list(y)
            for j in range(1 + c, m + 1, 3):
                plus[j] += step
                minus[j] -= step
            for k, (a, b) in enumerate(zip(gradient(points, terms, plus), gradient(points, terms, minus))):
                j = k - 1 + (c - k + 1) % 3  # the perturbed column among k - 1, k, k + 1
                if 0 <= j < m:
                    jac[k, j] = (a - b) / (2 * step)
        dy = mp.lu_solve(jac, mp.matrix(g))
        y[1:-1] = [a - b for a, b in zip(y[1:-1], dy)]
    raise AssertionError(f"no 40-digit root: |g| = {max(abs(x) for x in g)}")


def draw(seed):
    """A seeded scale of 12-40 points from 1 to 2, and boundary values."""
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.0, int(rng.integers(12, 41)) - 1)
    ts = TimeScale(1.0 + np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()]))
    alpha, beta = rng.uniform(-1.0, 1.0, 2)
    return rng, ts, float(alpha), float(beta)


def assert_matches_root(sol, points, terms):
    assert sol.converged
    with mp.workdps(DIGITS):
        expected = root(points, terms, sol.y.values)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(sol.y.values - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("seed", range(4))
def test_solve_matches_the_40_digit_root(seed):
    rng, ts, alpha, beta = draw(seed)
    g1, g2 = (float(g) for g in rng.uniform(0.2, 2.0, 2))
    problem = DeltaNablaProblem(
        ts, g1, g2, Lagrangian.from_expression(DELTA), Lagrangian.from_expression(NABLA), alpha, beta
    )
    terms = [(g1, "delta", *partials(DELTA)), (g2, "nabla", *partials(NABLA))]
    assert_matches_root(solve(problem), ts.points, terms)


def test_solve_directional_matches_the_40_digit_root():
    u = -2
    _, ts, alpha, beta = draw(4)
    problem = DirectionalProblem(ts, float(u), Lagrangian.from_expression(DELTA), alpha, beta)
    terms = [(1, "nabla", *partials(DELTA, sympy.Integer(u)))]
    assert_matches_root(solve_directional(problem), ts.points, terms)
