"""Delta-nabla problems: objective, Euler-Lagrange residuals, solver,
certificates, and the local-minimizer probe."""

import warnings
from pathlib import Path

import numpy as np
import pytest

from deltanabla import (
    Certificate,
    ConfigurationError,
    DeltaNablaProblem,
    DirectionalProblem,
    DomainError,
    EvaluationError,
    GridFunction,
    Lagrangian,
    ScaleMismatchError,
    Term,
    TermSumProblem,
    TimeScale,
    certify,
    directional_el_residual,
    el_residual_1,
    el_residual_2,
    first_variation,
    gradient,
    hat_variation,
    linear_interpolant,
    load_problem,
    local_min_probe,
    norm_1_inf,
    objective,
    random_scale,
    solve,
)
from deltanabla import expressions as ex
from deltanabla.variational import _central, _fd_step
from conftest import random_expression, well_behaved_sample

T134 = TimeScale([1.0, 3.0, 4.0])
L_TV2 = Lagrangian.from_expression("t*v^2")


def example_problem(g1: float, g2: float) -> DeltaNablaProblem:
    return DeltaNablaProblem(T134, g1, g2, L_TV2, L_TV2, 0.0, 1.0)


def example_extremal(g1: float, g2: float) -> GridFunction:
    return GridFunction(T134, [0.0, (6 * g1 + 8 * g2) / (7 * g1 + 11 * g2), 1.0])


def hand_objective(g1: float, g2: float, y1: float) -> float:
    # term-by-term expansion of both sums for y = (0, y1, 1) on {1,3,4}
    delta_term = 2 * 1 * (y1 / 2) ** 2 + 1 * 3 * (1 - y1) ** 2
    nabla_term = 2 * 3 * (y1 / 2) ** 2 + 1 * 4 * (1 - y1) ** 2
    return g1 * delta_term + g2 * nabla_term


# ---------------------------------------------------------------------------
# Lagrangian
# ---------------------------------------------------------------------------


def test_lagrangian_sources():
    assert L_TV2.source == "analytic"
    numeric = Lagrangian.from_callables(lambda t, y, v: t * v * v)
    assert numeric.source == "numeric"
    for t, y, v in [(1.0, 0.2, 0.7), (3.0, -1.0, 2.0)]:
        assert numeric.d3(t, y, v) == pytest.approx(L_TV2.d3(t, y, v), rel=1e-8)
        assert numeric.d2(t, y, v) == pytest.approx(0.0, abs=1e-8)


def test_lagrangian_analytic_partials_match_fd():
    L = Lagrangian.from_expression("exp(y)*v^2 + sin(t)*y")
    rng = np.random.default_rng(0)
    for _ in range(25):
        t, y, v = rng.uniform(-1, 1, 3)
        h = 1e-6
        fd2 = (L(t, y + h, v) - L(t, y - h, v)) / (2 * h)
        fd3 = (L(t, y, v + h) - L(t, y, v - h)) / (2 * h)
        assert L.d2(t, y, v) == pytest.approx(fd2, rel=1e-6, abs=1e-6)
        assert L.d3(t, y, v) == pytest.approx(fd3, rel=1e-6, abs=1e-6)


def test_lagrangian_requires_callable_and_fd_opt_out():
    with pytest.raises(ConfigurationError):
        Lagrangian("not callable")  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        Lagrangian(lambda t, y, v: 0.0, allow_fd=False)


def test_lagrangian_nan_raises_evaluation_error():
    from deltanabla import EvaluationError

    bad = Lagrangian.from_callables(lambda t, y, v: float("nan"))
    with pytest.raises(EvaluationError):
        bad(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# evaluation on arrays: values, first and second partials
# ---------------------------------------------------------------------------


def _sympy(e, sp, names):
    """An expression tree as a sympy expression, node by node."""
    if isinstance(e, ex.Num):
        return sp.Float(e.value)
    if isinstance(e, ex.Var):
        return names[e.name]
    if isinstance(e, ex.Neg):
        return -_sympy(e.arg, sp, names)
    if isinstance(e, ex.Call):
        return getattr(sp, e.fn)(_sympy(e.arg, sp, names))
    ops = {ex.Add: sp.Add, ex.Sub: lambda a, b: a - b, ex.Mul: sp.Mul,
           ex.Div: lambda a, b: a / b, ex.Pow: sp.Pow}
    left, right = vars(e).values()
    return ops[type(e)](_sympy(left, sp, names), _sympy(right, sp, names))


def _random_cases(seed: int, count: int):
    """(Lagrangian, t, y, v) for random expressions at well-behaved samples."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        tree = random_expression(rng)
        point = well_behaved_sample(rng, tree)
        if point is not None:
            cases.append((Lagrangian.from_expression(ex.to_source(tree)), *point))
    return cases


def test_hessian_matches_sympy_second_derivatives():
    sp = pytest.importorskip("sympy")
    names = dict(zip("tyv", sp.symbols("t y v")))
    _, y, v = names.values()
    for L, *point in _random_cases(seed=21, count=60):
        expr = _sympy(ex.parse(L.text), sp, names)
        subs = dict(zip(names.values(), point))
        exact = [float(sp.diff(expr, *wrt).evalf(30, subs=subs)) for wrt in ((y, y), (y, v), (v, v))]
        got = L.hessian(*(np.array([x]) for x in point))
        for h, ref in zip(got, exact):
            assert h.shape == (1,)
            assert abs(h[0] - ref) <= 1e-12 * max(1.0, abs(ref)), (L.text, point)


def test_hessian_matches_central_differences():
    # arrays of samples on the exact path, central differences of the
    # partials sample by sample on the callable path, which has no trees
    for L, t, y, v in _random_cases(seed=22, count=60):
        C = Lagrangian.from_callables(L, L.d2, L.d3)
        ts, ys, vs = np.array([t]), np.array([y, y + 0.01])[:, None], np.array([v, v - 0.01])
        exact = L.hessian(ts, ys, vs)
        fd = C.hessian(ts, ys, vs)
        assert [h.shape for h in fd] == [(2, 2)] * 3
        for j, (h_exact, h_fd) in enumerate(zip(exact, fd)):
            assert h_exact.shape == (2, 2)
            assert np.allclose(h_fd, h_exact, rtol=1e-5, atol=1e-5), (L.text, j)
        hy, hv = _fd_step(y), _fd_step(v)
        yv = 0.5 * (_central(C.d2, t, y, v, 0.0, hv) + _central(C.d3, t, y, v, hy, 0.0))
        assert tuple(h[0, 0] for h in fd) == (_central(C.d2, t, y, v, hy, 0.0), yv, _central(C.d3, t, y, v, 0.0, hv))


def test_hessian_fails_where_ieee_arithmetic_hides_a_domain_fault():
    # at t = 0 the inner 1/t divides by zero; IEEE arithmetic carries on
    # through inf to a finite Hessian, the domain rules do not
    L = Lagrangian.from_expression("v^2*(1 + 1/(1 + 1/t))")
    t, y, v = np.zeros(3), np.ones(3), np.ones(3)
    with np.errstate(all="ignore"):
        vv = ex.compile_expr(L._trees["vv"], arrays=True)(t, y, v)
    assert np.all(vv == 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"division by zero in '1\.0/t'"):
            L.hessian(t, y, v)


def test_array_evaluation_matches_the_scalar_functions():
    # one numpy call per tree over several samples, against the compiled
    # scalar functions sample by sample
    rng = np.random.default_rng(23)
    for L, *point in _random_cases(seed=23, count=60):
        draws = (well_behaved_sample(rng, L._trees["L"]) for _ in range(8))
        samples = [point] + [s for s in draws if s is not None]
        t, y, v = np.array(samples).T
        for got, scalar in zip((L.values(t, y, v), *L.partials(t, y, v)), (L, L.d2, L.d3)):
            ref = np.array([scalar(*s) for s in samples])
            assert got.shape == t.shape
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), L.text


def test_first_partials_match_sympy():
    sp = pytest.importorskip("sympy")
    names = dict(zip("tyv", sp.symbols("t y v")))
    for L, *point in _random_cases(seed=24, count=60):
        expr = _sympy(ex.parse(L.text), sp, names)
        subs = dict(zip(names.values(), point))
        exact = [float(sp.diff(expr, names[x]).evalf(30, subs=subs)) for x in "yv"]
        got = L.partials(*(np.array([x]) for x in point))
        for d, ref in zip(got, exact):
            assert abs(d[0] - ref) <= 1e-12 * max(1.0, abs(ref)), (L.text, point)


PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


def _as_callables(L: Lagrangian) -> Lagrangian:
    return Lagrangian.from_callables(L, L.d2, L.d3)


@pytest.mark.parametrize("name", ["directional_backward", "mixed_weights", "sampled_interval"])
def test_expression_and_callable_lagrangians_agree_on_the_demo_problems(name):
    # the same integrands on the array path and sample by sample through
    # guarded scalar calls; a directional file is checked on its inner L
    loaded = load_problem(PROBLEMS / f"{name}.json")
    prob = loaded.problem
    if loaded.kind == "directional":
        terms = [Term(1.0, prob.L, "delta" if prob.u > 0 else "nabla")]
    else:
        terms = prob.terms
    exprs = TermSumProblem(prob.scale, terms, prob.alpha, prob.beta)
    calls = TermSumProblem(
        prob.scale, [Term(t.weight, _as_callables(t.lagrangian), t.kind) for t in terms], prob.alpha, prob.beta
    )
    y = GridFunction(prob.scale, np.random.default_rng(25).uniform(0.5, 1.5, len(prob.scale)))
    assert objective(calls, y) == pytest.approx(objective(exprs, y), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(gradient(calls, y), gradient(exprs, y), rtol=1e-12, atol=1e-12)
    if loaded.kind == "directional":
        wrapped = DirectionalProblem(prob.scale, prob.u, _as_callables(prob.L), prob.alpha, prob.beta)
        np.testing.assert_allclose(
            directional_el_residual(wrapped, y).values,
            directional_el_residual(prob, y).values,
            rtol=1e-12,
            atol=1e-12,
        )


CONVEX_DELTA, CONVEX_NABLA = "t*v^2 + y^2", "v^2/2 + exp(y)"
BASELINE_DELTA, BASELINE_NABLA = "t*v^2 + y^2", "exp(y)*v^2/2 + sin(t)*y"


@pytest.mark.parametrize(
    "scale, L_delta, L_nabla, alpha, beta, expected",
    [
        (T134, "t*v^2", "t*v^2", 0.0, 1.0, Certificate.GLOBAL_MIN),
        (T134, "-v^2", "-v^2", 0.0, 1.0, Certificate.GLOBAL_MAX),
        (T134, "y*v", "t*v^2", 0.0, 1.0, Certificate.LOCAL_ONLY),
        (T134, "v^2 + y^1.5", "v^2 + y^1.5", 0.1, 2.0, Certificate.LOCAL_ONLY),
        (TimeScale.sampled_interval(1, 2, 11), BASELINE_DELTA, BASELINE_NABLA, 0.0, 1.0,
         Certificate.LOCAL_ONLY),
        (TimeScale.sampled_interval(1, 2, 11), CONVEX_DELTA, CONVEX_NABLA, 0.0, 1.0,
         Certificate.GLOBAL_MIN),
    ],
    ids=["tv2", "neg-v2", "yv", "box-leaves-domain", "baseline", "convex"],
)
def test_certify_verdict_same_for_expressions_and_callables(scale, L_delta, L_nabla, alpha, beta, expected):
    exprs = [Lagrangian.from_expression(src) for src in (L_delta, L_nabla)]
    calls = [Lagrangian.from_callables(L, L.d2, L.d3) for L in exprs]
    p = DeltaNablaProblem(scale, 1.0, 1.0, *exprs, alpha, beta)
    sol = solve(p)
    assert sol.converged
    assert certify(p, sol) is expected
    assert certify(DeltaNablaProblem(scale, 1.0, 1.0, *calls, alpha, beta), sol) is expected


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------


def test_problem_rejects_zero_weights():
    with pytest.raises(DomainError):
        DeltaNablaProblem(T134, 0.0, 0.0, L_TV2, L_TV2, 0.0, 1.0)


def test_problem_requires_interior_point():
    with pytest.raises(DomainError):
        DeltaNablaProblem(TimeScale([0.0, 1.0]), 1.0, 0.0, L_TV2, L_TV2, 0.0, 1.0)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g1,g2", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0)])
def test_objective_hand_expansion(g1, g2):
    p = example_problem(g1, g2)
    for y1 in (0.0, 0.3, 0.777, 1.2):
        y = GridFunction(T134, [0.0, y1, 1.0])
        assert objective(p, y) == pytest.approx(hand_objective(g1, g2, y1), abs=1e-12)


def test_objective_gamma2_zero_reduces_to_delta_term():
    p = example_problem(2.0, 0.0)
    y = GridFunction(T134, [0.0, 0.4, 1.0])
    assert objective(p, y) == pytest.approx(2.0 * (2 * (0.2) ** 2 + 3 * (0.6) ** 2), abs=1e-13)


def test_objective_zero_for_constant_trajectory():
    L = Lagrangian.from_expression("v^2")
    p = DeltaNablaProblem(T134, 1.0, 1.0, L, L, 0.0, 0.0)
    y = GridFunction.constant(T134, 0.0)
    assert objective(p, y) == 0.0


@pytest.mark.parametrize(
    "fn, src, match",
    [
        (objective, "v^2 + 1/y", r"division by zero in '1\.0/y'"),
        (gradient, "v^2 + 1/y", r"division by zero in '-1\.0/y\^2\.0'"),
        (el_residual_1, "v^2 + 1/y", r"division by zero in '-1\.0/y\^2\.0'"),
        # non-finite without any exception: an overflow, and d3 folded to inf
        (objective, "1e200*y*1e200", r"non-finite result in '1e\+200\*y\*1e\+200'"),
        (gradient, "1e200*v*1e200", r"non-finite result in 'inf'"),
    ],
    ids=["objective", "gradient", "el_residual_1", "objective-overflow", "gradient-folded-inf"],
)
def test_evaluation_errors_name_the_subexpression(fn, src, match):
    # the integrand and its partials are evaluated on arrays; any failure is
    # re-evaluated on its expression tree, sample by sample, which names the
    # failing subexpression, and no numpy warning escapes
    L = Lagrangian.from_expression(src)
    p = DeltaNablaProblem(T134, 1.0, 1.0, L, L, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=match):
            fn(p, GridFunction(T134, [0.0, 0.0, 1.0]))


@pytest.mark.parametrize("fn", [objective, gradient, el_residual_2])
def test_evaluation_fails_where_ieee_arithmetic_hides_a_domain_fault(fn):
    # at t = 0 the inner 1/t divides by zero; IEEE arithmetic carries on
    # through inf to a finite value, the domain rules do not
    L = Lagrangian.from_expression("v^2*(1 + 1/(1 + 1/t))")
    ts = TimeScale.sampled_interval(0.0, 1.0, 5)
    p = DeltaNablaProblem(ts, 1.0, 1.0, L, L, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"division by zero in '1\.0/t'"):
            fn(p, linear_interpolant(p))


def test_time_reversal_swaps_delta_and_nabla():
    # a delta term on ts equals a nabla term with L(-t, y, -v) on the
    # reflected scale, evaluated along the reversed trajectory
    rng = np.random.default_rng(6)
    L = Lagrangian.from_expression("exp(y)*v^2/2 + sin(t)*y + t*y*v")
    L_rev = Lagrangian.from_expression("exp(y)*(-v)^2/2 + sin(-t)*y + (-t)*y*(-v)")
    for _ in range(10):
        ts = random_scale(rng, min_points=3, max_points=30, min_gap=0.05, max_gap=2.0)
        rev = TimeScale(-ts.points[::-1])
        y = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
        y_rev = GridFunction(rev, y.values[::-1])
        fwd = TermSumProblem(ts, [Term(1.5, L, "delta")], 0.0, 1.0)
        back = TermSumProblem(rev, [Term(1.5, L_rev, "nabla")], 1.0, 0.0)
        assert objective(back, y_rev) == pytest.approx(objective(fwd, y), rel=1e-12)
        assert np.allclose(gradient(back, y_rev), gradient(fwd, y)[::-1], rtol=1e-12, atol=1e-12)


def test_objective_scale_mismatch():
    p = example_problem(1.0, 1.0)
    other = GridFunction(TimeScale([0.0, 1.0, 2.0]), [0.0, 0.5, 1.0])
    with pytest.raises(ScaleMismatchError):
        objective(p, other)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g1,g2", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (5.0, 1.0)])
def test_residuals_vanish_at_extremal(g1, g2):
    p = example_problem(g1, g2)
    y = example_extremal(g1, g2)
    assert np.max(np.abs(el_residual_1(p, y).values)) <= 1e-10
    assert np.max(np.abs(el_residual_2(p, y).values)) <= 1e-10


def test_residual_domains():
    p = example_problem(1.0, 1.0)
    y = example_extremal(1.0, 1.0)
    r1 = el_residual_1(p, y)
    r2 = el_residual_2(p, y)
    assert list(r1.scale.points) == [3.0, 4.0]  # scale minus its minimum
    assert list(r2.scale.points) == [1.0, 3.0]  # scale minus its maximum


def test_straight_line_stationary_for_v_squared():
    L = Lagrangian.from_expression("v^2")
    rng = np.random.default_rng(1)
    for _ in range(10):
        # moderate gaps: computing the line's per-gap slopes loses ~1e-16/gap
        ts = random_scale(rng, min_points=3, max_points=20, min_gap=0.05)
        alpha, beta = rng.uniform(-2, 2, 2)
        p = DeltaNablaProblem(ts, 1.0, 1.0, L, L, alpha, beta)
        frac = (ts.points - ts.a) / (ts.b - ts.a)
        line = GridFunction(ts, alpha + (beta - alpha) * frac)
        assert np.max(np.abs(el_residual_1(p, line).values)) <= 1e-12
        assert np.max(np.abs(el_residual_2(p, line).values)) <= 1e-12


def test_perturbed_extremal_has_nonzero_residual():
    p = example_problem(1.0, 1.0)
    y = example_extremal(1.0, 1.0)
    bumped = GridFunction(T134, y.values + np.array([0.0, 0.05, 0.0]))
    assert np.max(np.abs(el_residual_1(p, bumped).values)) > 1e-3
    assert np.max(np.abs(el_residual_2(p, bumped).values)) > 1e-3


def test_el2_matches_worked_constancy_equation():
    # for L = t*v^2 both state partials vanish, so the second form reduces to
    # 2*g1*t*y^Delta(t) + 2*g2*sigma(t)*y^nabla(sigma(t)) up to a constant
    rng = np.random.default_rng(2)
    for g1, g2 in [(1.0, 1.0), (2.0, 3.0), (1.0, 0.0)]:
        p = example_problem(g1, g2)
        for _ in range(5):
            y = GridFunction(T134, [0.0, float(rng.uniform(-1, 2)), 1.0])
            d = np.diff(y.values) / T134.gaps()
            hand = np.array(
                [
                    2 * g1 * 1.0 * d[0] + 2 * g2 * 3.0 * d[0],
                    2 * g1 * 3.0 * d[1] + 2 * g2 * 4.0 * d[1],
                ]
            )
            hand -= hand.mean()
            assert np.allclose(el_residual_2(p, y).values, hand, atol=1e-12)


def test_first_variation_matches_central_difference():
    rng = np.random.default_rng(3)
    L1 = Lagrangian.from_expression("v^2 + y^2*t")
    L2 = Lagrangian.from_expression("exp(y/4)*v^2")
    for _ in range(10):
        ts = random_scale(rng, min_points=3, max_points=12, min_gap=0.1, max_gap=2.0)
        p = DeltaNablaProblem(ts, 1.3, 0.7, L1, L2, -0.5, 0.8)
        y = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
        eta_vals = np.zeros(len(ts))
        eta_vals[1:-1] = rng.uniform(-1, 1, len(ts) - 2)
        eta = GridFunction(ts, eta_vals)
        h = 1e-6
        fd = (
            objective(p, GridFunction(ts, y.values + h * eta_vals))
            - objective(p, GridFunction(ts, y.values - h * eta_vals))
        ) / (2 * h)
        fv = first_variation(p, y, eta)
        assert abs(fv - fd) <= 1e-5 * max(1.0, abs(fv))


def test_gradient_equals_first_variation_on_hats():
    rng = np.random.default_rng(4)
    ts = random_scale(rng, min_points=4, max_points=10)
    L = Lagrangian.from_expression("v^2 + sin(y)")
    p = DeltaNablaProblem(ts, 1.0, 2.0, L, L, 0.0, 1.0)
    y = GridFunction(ts, rng.uniform(-1, 1, len(ts)))
    g = gradient(p, y)
    for j in range(1, len(ts) - 1):
        fv = first_variation(p, y, hat_variation(ts, j))
        assert g[j - 1] == pytest.approx(fv, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("g1,g2", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_solve_example(g1, g2):
    sol = solve(example_problem(g1, g2))
    assert sol.converged
    assert sol.y.values[0] == 0.0 and sol.y.values[-1] == 1.0
    assert sol.y.values[1] == pytest.approx((6 * g1 + 8 * g2) / (7 * g1 + 11 * g2), abs=1e-9)
    assert max(sol.residual_el1, sol.residual_el2) <= 1e-10


def test_solve_equal_weights_against_dense_scan():
    # independent oracle: evaluate the hand-expanded objective on a 1e-6 grid
    sol = solve(example_problem(1.0, 1.0))
    xs = np.arange(0.0, 1.0, 1e-6)
    vals = hand_objective(1.0, 1.0, xs)
    best = xs[np.argmin(vals)]
    assert sol.y.values[1] == pytest.approx(best, abs=2e-6)
    assert sol.y.values[1] == pytest.approx(7 / 9, abs=1e-9)


def test_solve_quadratic_in_two_iterations_from_any_start():
    rng = np.random.default_rng(5)
    ts = TimeScale([0.0, 0.4, 1.1, 2.0, 3.0])
    L = Lagrangian.from_expression("v^2 + 2*y^2 + y*v + t*y")
    p = DeltaNablaProblem(ts, 1.0, 1.5, L, L, 0.0, 1.0)
    for _ in range(5):
        start_vals = np.concatenate([[p.alpha], rng.uniform(-5, 5, len(ts) - 2), [p.beta]])
        sol = solve(p, init=GridFunction(ts, start_vals))
        assert sol.converged
        assert sol.iterations <= 2


def test_solve_weight_scaling():
    base = solve(example_problem(1.0, 2.0))
    scaled = solve(example_problem(3.0, 6.0))
    assert np.allclose(base.y.values, scaled.y.values, atol=1e-10)
    assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-12)


def test_solve_reduction_consistency_bitwise():
    # zero-weight terms drop out, so the mixed problem with gamma2 = 0 takes
    # exactly the pure-delta path
    pure = TermSumProblem(T134, [Term(2.0, L_TV2, "delta")], 0.0, 1.0)
    mixed = DeltaNablaProblem(T134, 2.0, 0.0, L_TV2, L_TV2, 0.0, 1.0)
    s1, s2 = solve(pure), solve(mixed)
    assert np.array_equal(s1.y.values, s2.y.values)
    assert s1.objective == s2.objective
    assert s1.residual_el1 == s2.residual_el1


def test_term_sum_reproduces_delta_nabla():
    terms = TermSumProblem(
        T134, [Term(1.0, L_TV2, "delta"), Term(1.0, L_TV2, "nabla")], 0.0, 1.0
    )
    two = example_problem(1.0, 1.0)
    y = GridFunction(T134, [0.0, 0.37, 1.0])
    assert objective(terms, y) == objective(two, y)
    assert np.array_equal(el_residual_1(terms, y).values, el_residual_1(two, y).values)
    assert np.array_equal(solve(terms).y.values, solve(two).y.values)


def test_solve_nonconvergence_is_reported_not_raised():
    L = Lagrangian.from_expression("sin(10*y)*v^2 + v^2 + y^2")
    ts = TimeScale([0.0, 0.5, 1.0, 1.5, 2.0])
    p = DeltaNablaProblem(ts, 1.0, 1.0, L, L, 0.0, 1.0)
    sol = solve(p, max_iter=1)
    assert not sol.converged
    assert sol.certificate is Certificate.NONE
    assert sol.iterations == 1


@pytest.mark.parametrize(
    "src, converged, certificate",
    [
        # a line-search trial takes y^0.5 to negative y
        ("v^2 - 30*y^2 + y^0.5", True, Certificate.LOCAL_ONLY),
        # stationary at y < 0, where the partials exist but log(y) does not
        ("v^2 - 30*y^2 + log(y)", False, Certificate.NONE),
    ],
)
def test_solve_reports_a_trajectory_that_leaves_the_domain(src, converged, certificate):
    L = Lagrangian.from_expression(src)
    p = DeltaNablaProblem(TimeScale.sampled_interval(0, 1, 7), 1, 1, L, L, 1, 1)
    sol = solve(p)
    assert sol.converged is converged
    assert sol.certificate is certificate
    assert sol.residual_el1 == sol.residual_el2 <= 1e-10
    assert np.isnan(sol.objective) == (not converged)


def test_solve_steps_downhill_when_a_hessian_probe_leaves_the_domain():
    # at y[3] = 5e-7 the probe y[3] - 1e-6 is negative, where log(y) fails;
    # the step is then steepest descent, as for a singular Hessian
    L = Lagrangian.from_expression("v^2 + y*log(y)")
    ts = TimeScale.sampled_interval(0, 1, 7)
    p = DeltaNablaProblem(ts, 1, 1, L, L, 1, 1)
    init = np.ones(7)
    init[3] = 5e-7
    sol = solve(p, init=GridFunction(ts, init))
    assert sol.converged and sol.iterations > 0
    assert np.all(sol.y.values > 0)


def test_solve_reports_a_start_point_outside_the_domain():
    # the linear start from -1 to 1 passes through y = 0, where d2 = 1/y fails
    L = Lagrangian.from_expression("v^2 + log(y)")
    p = DeltaNablaProblem(TimeScale.sampled_interval(0, 1, 7), 1, 1, L, L, -1, 1)
    sol = solve(p)
    assert not sol.converged
    assert sol.iterations == 0
    assert sol.certificate is Certificate.NONE
    assert np.isnan(sol.objective)
    assert not np.isfinite(sol.residual_el1) and not np.isfinite(sol.residual_el2)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certify_example_global_min():
    for g1, g2 in [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (2.0, 3.0)]:
        sol = solve(example_problem(g1, g2))
        assert sol.certificate is Certificate.GLOBAL_MIN


def test_certify_concave_global_max():
    L_neg = Lagrangian.from_expression("-v^2")
    p = DeltaNablaProblem(T134, 1.0, 0.0, L_neg, L_TV2, 0.0, 1.0)
    sol = solve(p)
    assert sol.converged
    assert sol.certificate is Certificate.GLOBAL_MAX


def test_certify_indefinite_local_only():
    L_yv = Lagrangian.from_expression("y*v")
    p = DeltaNablaProblem(T134, 1.0, 0.0, L_yv, L_TV2, 0.0, 1.0)
    sol = solve(p)
    if sol.converged:
        assert sol.certificate is Certificate.LOCAL_ONLY


def test_certify_negative_weight_local_only():
    p = DeltaNablaProblem(T134, 1.0, -0.2, L_TV2, L_TV2, 0.0, 1.0)
    sol = solve(p)
    if sol.converged:
        assert certify(p, sol) is Certificate.LOCAL_ONLY


def test_sign_mixed_weights_solve_but_stay_uncertified():
    # stationarity still has the closed form when 7*g1 + 11*g2 != 0, but
    # with a negative weight no global statement is available
    sol = solve(example_problem(2.0, -1.0))
    assert sol.converged
    assert sol.y.values[1] == pytest.approx((6 * 2 - 8) / (7 * 2 - 11), abs=1e-9)
    assert sol.certificate is Certificate.LOCAL_ONLY


def test_certify_box_leaving_the_domain_local_only():
    # jointly convex on y > 0, but the inflated sample box reaches y < 0,
    # where the partial 1.5*y^0.5 is undefined
    L = Lagrangian.from_expression("v^2 + y^1.5")
    p = DeltaNablaProblem(T134, 1.0, 1.0, L, L, 0.1, 2.0)
    sol = solve(p)
    assert sol.converged
    assert certify(p, sol) is Certificate.LOCAL_ONLY


def test_certify_unconverged_none():
    sol = solve(example_problem(1.0, 1.0))
    sol.converged = False
    assert certify(example_problem(1.0, 1.0), sol) is Certificate.NONE


# ---------------------------------------------------------------------------
# local minimizer probe and trajectory norm
# ---------------------------------------------------------------------------


def test_norm_1_inf_hand_value():
    y = GridFunction(T134, [0.0, 7 / 9, 1.0])
    # sup over the single interior point: |y^sigma|=1, |y^rho|=0,
    # |y^Delta|=2/9 (gap 1... slope (1-7/9)/1), |y^nabla|=7/18
    assert norm_1_inf(y) == pytest.approx(1.0 + 0.0 + 2 / 9 + 7 / 18, abs=1e-14)
    with pytest.raises(DomainError):
        norm_1_inf(GridFunction(TimeScale([0.0, 1.0]), [0.0, 1.0]))


def test_probe_passes_at_convex_solution():
    p = example_problem(1.0, 1.0)
    sol = solve(p)
    assert local_min_probe(p, sol, n_trials=200)


def test_probe_epsilon_zero_is_equality():
    p = example_problem(1.0, 1.0)
    sol = solve(p)
    base = objective(p, sol.y)
    assert objective(p, GridFunction(T134, sol.y.values + 0.0)) == base


def test_probe_fails_at_non_stationary_point():
    p = example_problem(1.0, 1.0)
    fake = solve(p)
    fake.y = GridFunction(T134, [0.0, 0.2, 1.0])  # far from the extremal
    assert not local_min_probe(p, fake, n_trials=200)
