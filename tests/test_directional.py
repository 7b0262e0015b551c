"""Direction-driven problems: the unified integral, shifted composition,
directional Euler-Lagrange residual, and solution as the one-term delta or
nabla problem."""

import itertools
import math

import numpy as np
import pytest

from deltanabla import (
    DirectionalProblem,
    DirectionalSolution,
    DomainError,
    GridFunction,
    Lagrangian,
    ScaleMismatchError,
    Term,
    TermSumProblem,
    TimeScale,
    d_u_integral,
    delta_integral,
    directional_derivative,
    directional_el_residual,
    el_residual_1,
    el_residual_2,
    gradient,
    nabla_integral,
    objective,
    reduced_lagrangian,
    shift_rho,
    shift_sigma,
    shifted_composition,
    solve,
    solve_directional,
)

T134 = TimeScale([1.0, 3.0, 4.0])
L_TV2 = Lagrangian.from_expression("t*v^2")


# ---------------------------------------------------------------------------
# d_u integral and shifted composition
# ---------------------------------------------------------------------------


def test_d_u_integral_branches():
    ts = TimeScale([0.0, 1.0, 2.0])
    one = GridFunction.constant(ts, 1.0)
    assert d_u_integral(one, 1.0) == delta_integral(one)
    assert d_u_integral(one, -1.0) == -nabla_integral(one)
    assert d_u_integral(one, -2.0) == -4.0  # -2 * (b - a) for f = 1
    assert d_u_integral(one, 0.0) == 0.0


def test_d_u_integral_continuous_at_zero():
    rng = np.random.default_rng(0)
    ts = TimeScale(np.sort(rng.uniform(0, 5, 6)))
    f = GridFunction(ts, rng.uniform(-1, 1, 6))
    for u in (1e-9, -1e-9):
        assert abs(d_u_integral(f, u)) <= 1e-8


@pytest.mark.parametrize(
    "call",
    [
        lambda f: d_u_integral(f, math.nan),
        lambda f: directional_derivative(f, 1.0, math.nan),
        lambda f: directional_derivative(f, 1.0, math.inf),
        lambda f: shifted_composition(f, math.nan),
    ],
    ids=["d_u_integral-nan", "directional_derivative-nan", "directional_derivative-inf", "shifted_composition-nan"],
)
def test_direction_must_be_finite(call):
    f = GridFunction(TimeScale([0.0, 1.0, 2.0, 3.0]), [0.0, 1.0, 4.0, 9.0])
    with pytest.raises(DomainError, match=r"^direction u must be finite, got (nan|inf)$"):
        call(f)


def test_shifted_composition_branches():
    y = GridFunction(T134, [10.0, 20.0, 30.0])
    assert np.array_equal(shifted_composition(y, 1.0).values, shift_sigma(y).values)
    assert np.array_equal(shifted_composition(y, -1.0).values, (-1.0 * shift_rho(y)).values)
    assert np.all(shifted_composition(y, 0.0).values == 0.0)
    assert np.array_equal(shifted_composition(y, 2.0).values, 2.0 * shift_sigma(y).values)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_zero_direction_rejected():
    with pytest.raises(DomainError):
        DirectionalProblem(T134, 0.0, L_TV2, 0.0, 1.0)


def test_interior_required():
    with pytest.raises(DomainError):
        DirectionalProblem(TimeScale([0.0, 1.0]), 1.0, L_TV2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_directional_objective_unit_directions_hand_values():
    # hand expansion for y = (0, y1, 1) on {1,3,4} with L = t*v^2:
    # u = +1 gives the delta sum, u = -1 gives -1 times the nabla sum
    for y1 in (0.0, 0.3, 0.9):
        y = GridFunction(T134, [0.0, y1, 1.0])
        delta_term = 2 * 1 * (y1 / 2) ** 2 + 1 * 3 * (1 - y1) ** 2
        nabla_term = 2 * 3 * (y1 / 2) ** 2 + 1 * 4 * (1 - y1) ** 2
        p_plus = DirectionalProblem(T134, 1.0, L_TV2, 0.0, 1.0)
        p_minus = DirectionalProblem(T134, -1.0, L_TV2, 0.0, 1.0)
        assert objective(p_plus, y) == pytest.approx(delta_term, abs=1e-13)
        assert objective(p_minus, y) == pytest.approx(-nabla_term, abs=1e-13)


def test_directional_objective_general_direction_hand_sum():
    # u = 2: value is u * sum of mu * L(t, u*y^sigma, u*y^Delta)
    u = 2.0
    y = GridFunction(T134, [0.0, 0.4, 1.0])
    p = DirectionalProblem(T134, u, L_TV2, 0.0, 1.0)
    d = np.diff(y.values) / T134.gaps()
    hand = u * (
        2.0 * (1.0 * (u * d[0]) ** 2) + 1.0 * (3.0 * (u * d[1]) ** 2)
    )
    assert objective(p, y) == pytest.approx(hand, abs=1e-12)


def test_directional_objective_constant_trajectory_vanishes():
    L = Lagrangian.from_expression("v^2")
    for u in (0.5, 1.0, -1.0, -3.2):
        p = DirectionalProblem(T134, u, L, 1.0, 1.0)
        assert objective(p, GridFunction.constant(T134, 1.0)) == 0.0


def test_directional_objective_equals_reduced_objective():
    rng = np.random.default_rng(1)
    for u in (0.7, 2.0, -0.7, -2.0):
        p = DirectionalProblem(T134, u, L_TV2, 0.0, 1.0)
        kind = "delta" if u > 0 else "nabla"
        red = TermSumProblem(T134, [Term(1.0, reduced_lagrangian(L_TV2, u), kind)], 0.0, 1.0)
        for _ in range(25):
            y = GridFunction(T134, rng.uniform(-1, 1, 3))
            assert objective(p, y) == objective(red, y)


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def _inner_residual(ts, L, y, u):
    """Differential-form residual of the sign-reduced problem in terms of
    the inner Lagrangian: derivative of d3 along the scale minus d2."""
    pts, vals, gaps = ts.points, y.values, ts.gaps()
    M = len(ts) - 1
    if u > 0:
        shifted = u * vals[1:]
        slope = u * np.diff(vals) / gaps
        p3 = np.array([L.d3(pts[i], shifted[i], slope[i]) for i in range(M)])
        p2 = np.array([L.d2(pts[i], shifted[i], slope[i]) for i in range(M)])
        return np.array([(p3[i + 1] - p3[i]) / gaps[i] - p2[i] for i in range(M - 1)])
    shifted = u * vals[:-1]
    slope = u * np.diff(vals) / gaps
    p3 = np.array([L.d3(pts[i], shifted[i - 1], slope[i - 1]) for i in range(1, M + 1)])
    p2 = np.array([L.d2(pts[i], shifted[i - 1], slope[i - 1]) for i in range(1, M + 1)])
    return np.array([(p3[i] - p3[i - 1]) / gaps[i] - p2[i] for i in range(1, M)])


def test_residual_is_u_times_reduced_residual():
    rng = np.random.default_rng(2)
    ts = TimeScale([0.0, 0.5, 1.25, 2.0, 3.0])
    L = Lagrangian.from_expression("t*v^2 + y^2")
    for u in (1.0, 2.5, -1.0, -0.6):
        p = DirectionalProblem(ts, u, L, 0.0, 1.0)
        for _ in range(5):
            y = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
            r = directional_el_residual(p, y)
            inner = _inner_residual(ts, L, y, u)
            assert np.allclose(r.values, u * inner, atol=1e-11)


@pytest.mark.parametrize("u", [1.0, -1.0])
def test_foreign_scale_trajectory_is_a_scale_mismatch(u):
    p = DirectionalProblem(T134, u, L_TV2, 0.0, 1.0)
    foreign = GridFunction(TimeScale([1.0, 2.0, 4.0]), [0.0, 0.5, 1.0])
    checks = [objective, gradient, el_residual_1, el_residual_2, directional_el_residual,
              lambda p, y: directional_el_residual(p, y, strict=True)]
    for check in checks:
        with pytest.raises(ScaleMismatchError):
            check(p, foreign)


def test_residual_domains():
    y = GridFunction(T134, [0.0, 0.5, 1.0])
    r_plus = directional_el_residual(DirectionalProblem(T134, 1.0, L_TV2, 0.0, 1.0), y)
    assert list(r_plus.scale.points) == [1.0]  # twice-truncated from the right
    r_minus = directional_el_residual(DirectionalProblem(T134, -1.0, L_TV2, 0.0, 1.0), y)
    assert list(r_minus.scale.points) == [4.0]


def test_strict_domain_empty_on_three_points():
    y = GridFunction(T134, [0.0, 0.5, 1.0])
    p = DirectionalProblem(T134, 1.0, L_TV2, 0.0, 1.0)
    with pytest.raises(DomainError):
        directional_el_residual(p, y, strict=True)


def test_strict_domain_on_larger_scale():
    # the strict residual is the wide one on the points 2 .. n-3, whichever
    # side of the scale the sign of u truncates
    for n, u in itertools.product((5, 6), (1.0, 2.5, -1.0, -0.6)):
        ts = TimeScale(np.arange(float(n)))
        y = GridFunction(ts, np.linspace(0, 1, n) ** 2)
        p = DirectionalProblem(ts, u, L_TV2, 0.0, 1.0)
        wide = directional_el_residual(p, y)
        strict = directional_el_residual(p, y, strict=True)
        assert list(strict.scale.points) == list(ts.points[2:-2])
        for t in strict.scale.points:
            assert strict.value_at(t) == wide.value_at(t)


# ---------------------------------------------------------------------------
# solve as the one-term problem
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("u", [0.5, 2.0, -0.5, -2.0])
def test_directional_problem_is_its_one_term_problem(u):
    ts = TimeScale([0.0, 0.7, 1.5, 2.2, 3.0])
    p = DirectionalProblem(ts, u, Lagrangian.from_expression("v^2 + y^2 + 0.5*y*v"), 0.0, 1.0)
    assert isinstance(p, TermSumProblem)
    (term,) = p.terms
    assert (term.weight, term.kind) == (1.0, "delta" if u > 0 else "nabla")
    assert np.array_equal(solve_directional(p).y.values, solve(p).y.values)


@pytest.mark.parametrize("u,expected", [(1.0, 6 / 7), (-1.0, 8 / 11)])
def test_solve_directional_unit_examples(u, expected):
    p = DirectionalProblem(T134, u, L_TV2, 0.0, 1.0)
    sol = solve_directional(p)
    assert isinstance(sol, DirectionalSolution)
    assert sol.converged
    assert sol.y.values[1] == pytest.approx(expected, abs=1e-9)
    assert sol.residual_directional <= 1e-9
    assert sol.residual_directional_strict is None  # empty intersection here


def test_solve_directional_scaled_direction_straight_line():
    # u = 2 with L = v^2: the reduced integrand is 2*(2*v)^2, minimized by
    # the straight line; cross-checked by a dense scan of the one interior value
    ts = TimeScale([0.0, 1.0, 3.0])
    L = Lagrangian.from_expression("v^2")
    p = DirectionalProblem(ts, 2.0, L, 0.0, 1.0)
    sol = solve_directional(p)
    xs = np.arange(-0.5, 1.5, 1e-6)
    vals = 2.0 * (1.0 * (2 * (xs - 0.0) / 1.0) ** 2 + 2.0 * (2 * (1.0 - xs) / 2.0) ** 2)
    best = xs[np.argmin(vals)]
    assert sol.converged
    assert sol.y.values[1] == pytest.approx(best, abs=2e-6)
    assert sol.y.values[1] == pytest.approx(1 / 3, abs=1e-9)


def test_solve_directional_residual_necessity():
    rng = np.random.default_rng(3)
    ts = TimeScale([0.0, 0.7, 1.5, 2.2, 3.0])
    L = Lagrangian.from_expression("v^2 + y^2 + 0.5*y*v")
    for u in (1.0, 0.5, 2.0, -1.0, -0.5, -2.0):
        p = DirectionalProblem(ts, u, L, 0.0, 1.0)
        sol = solve_directional(p)
        assert sol.converged
        assert sol.residual_directional <= 1e-8


@pytest.mark.parametrize("u", [1.0, -1.0])
def test_solve_directional_reports_a_start_point_outside_the_domain(u):
    # the linear start from -1 to 1 passes through y = 0, where log(y) fails
    L = Lagrangian.from_expression("v^2 + log(y)")
    sol = solve_directional(DirectionalProblem(TimeScale.sampled_interval(0, 1, 7), u, L, -1.0, 1.0))
    assert not sol.converged and sol.iterations == 0
    assert np.isnan(sol.residual_directional) and np.isnan(sol.residual_directional_strict)


@pytest.mark.parametrize("u", [0.5, -1.0])
def test_solve_directional_reports_an_overflowing_residual(u):
    # the inner d3 = 1.6e308*cos(4*v + 9*t) + 2*v is finite; its slope
    # along the scale, in the directional residual, is not
    L = Lagrangian.from_expression("4e307*sin(4*v + 9*t) + v^2")
    sol = solve_directional(DirectionalProblem(TimeScale.sampled_interval(0, 1, 7), u, L, 0.0, 1.0))
    assert not sol.converged
    assert np.isnan(sol.residual_directional)
