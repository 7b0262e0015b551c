"""``solve`` against an exact discrete oracle on arbitrary finite scales.

For L = p(t) v^2 + q(t) y^2 + r(t) y the discrete functional is quadratic
in the trajectory values, so its stationary point solves a linear system.
The oracle assembles that system here from plain numpy functions of t, on
the definitions of the two integrals alone, and solves it densely.  It
shares no code with the solver: no ``Lagrangian`` evaluation, no gradient,
no expression compiler and no stencil table.
"""

import numpy as np
import pytest

from deltanabla import (
    DeltaNablaProblem,
    DirectionalProblem,
    Lagrangian,
    random_scale,
    solve,
    solve_directional,
)

# (p, q, r) of each kind's Lagrangian: as expression text for the solver and
# as numpy functions of t for the oracle
DELTA = ("1 + t^2", "t/2", "sin(t)"), (lambda t: 1 + t**2, lambda t: t / 2, np.sin)
NABLA = ("2 + cos(t)", "1", "t"), (lambda t: 2 + np.cos(t), lambda t: np.ones_like(t), lambda t: t)


def lagrangian(texts) -> Lagrangian:
    p, q, r = texts
    return Lagrangian.from_expression(f"({p})*v^2 + ({q})*y^2 + ({r})*y")


def oracle(points, terms, alpha, beta):
    """The stationary trajectory of the sum over terms (weight, kind, (p, q, r))
    of weight times the kind's integral of p v^2 + q y^2 + r y, with y fixed
    to alpha and beta at the ends.

    Over the gap [t_i, t_{i+1}] of length h, with slope (y_{i+1} - y_i) / h,
    the delta integral adds h * L(t_i, y_{i+1}, slope), from y^sigma and
    y^Delta at t_i, and the nabla integral adds h * L(t_{i+1}, y_i, slope),
    from y^rho and y^nabla at t_{i+1}.  The functional is then
    y.A.y / 2 + b.y + const, and its gradient A y + b vanishes at the
    interior points.
    """
    n = len(points)
    h = np.diff(points)
    i = np.arange(n - 1)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for weight, kind, (p, q, r) in terms:
        at, state = (i, i + 1) if kind == "delta" else (i + 1, i)
        t = points[at]
        c = 2.0 * weight * p(t) / h  # the Hessian of weight * p * (y_{i+1} - y_i)^2 / h
        A[i, i] += c
        A[i + 1, i + 1] += c
        A[i, i + 1] -= c
        A[i + 1, i] -= c
        A[state, state] += 2.0 * weight * h * q(t)
        b[state] += weight * h * r(t)
    y = np.empty(n)
    y[0], y[-1] = alpha, beta
    inner = slice(1, -1)
    rhs = -b[inner] - A[inner, 0] * alpha - A[inner, -1] * beta
    y[inner] = np.linalg.solve(A[inner, inner], rhs)
    return y


MODES = ["delta", "nabla", "sum", "directional"]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", MODES)
def test_solve_matches_the_exact_discrete_oracle(mode, seed):
    rng = np.random.default_rng([seed, MODES.index(mode)])
    ts = random_scale(rng, min_points=25, max_points=103, min_gap=0.01, max_gap=0.5)
    alpha, beta = rng.uniform(-2.0, 2.0, 2)
    if mode == "directional":
        # u * L(t, u*s, u*w) = u^3 (p w^2 + q s^2 + (r/u) s): again quadratic,
        # one delta (u > 0) or nabla (u < 0) term
        u = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        texts, (p, q, r) = DELTA
        sol = solve_directional(DirectionalProblem(ts, u, lagrangian(texts), alpha, beta))
        kind = "delta" if u > 0 else "nabla"
        terms = [(u**3, kind, (p, q, lambda t: r(t) / u))]
    else:
        g1, g2 = rng.uniform(0.2, 2.0, 2)
        g1, g2 = {"delta": (g1, 0.0), "nabla": (0.0, g2), "sum": (g1, g2)}[mode]
        L_delta, L_nabla = lagrangian(DELTA[0]), lagrangian(NABLA[0])
        sol = solve(DeltaNablaProblem(ts, g1, g2, L_delta, L_nabla, alpha, beta))
        terms = [(g1, "delta", DELTA[1]), (g2, "nabla", NABLA[1])]
    expected = oracle(ts.points, terms, alpha, beta)
    assert sol.converged
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(sol.y.values - expected)) <= 1e-12 * scale
