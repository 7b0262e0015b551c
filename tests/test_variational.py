"""Delta-nabla problems: objective, Euler-Lagrange residuals, solver,
certificates, and the local-minimizer probe."""

import functools
import math
import operator
import tracemalloc
import warnings
from collections import Counter
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
    Solution,
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
    reduced_lagrangian,
    solve,
    solve_directional,
)
from deltanabla import expressions as ex
from deltanabla import variational
from deltanabla.variational import (
    _backtrack,
    _central,
    _difference_band,
    _fd_step,
    _objectives,
    _solve_band,
)
from conftest import nested_array_function, random_expression, well_behaved_sample

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
    numeric = Lagrangian(lambda t, y, v: t * v * v)
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


def test_lagrangian_requires_callable():
    # a partial that cannot be called fails here, not in the first solve
    for args in [("not callable",), (L_TV2, 1.0), (L_TV2, L_TV2.d2, 1.0)]:
        with pytest.raises(ConfigurationError):
            Lagrangian(*args)  # type: ignore[arg-type]


def test_lagrangian_nan_raises_evaluation_error():
    from deltanabla import EvaluationError

    bad = Lagrangian(lambda t, y, v: float("nan"))
    with pytest.raises(EvaluationError):
        bad(0.0, 0.0, 0.0)


# 1e308*y^2 + v^2: its y partial, 2e308*y, overflows at y = 1 whoever computes it
OVERFLOWING_PARTIAL = {
    "difference": Lagrangian(lambda t, y, v: 1e308 * y * y + v * v),
    "explicit": Lagrangian(
        lambda t, y, v: 1e308 * y * y + v * v, lambda t, y, v: 1e308 * (2 * y), lambda t, y, v: 2 * v
    ),
    "expression": Lagrangian.from_expression("1e308*y*y + v*v"),
}


def test_a_difference_partial_is_guarded_like_a_given_one():
    L = OVERFLOWING_PARTIAL["difference"]
    with pytest.raises(EvaluationError, match=r"^d2\(0\.5, 1\.0, 0\.0\) is not finite$"):
        L.d2(0.5, 1.0, 0.0)
    with pytest.raises(EvaluationError, match=r"^d2\(0\.0, 1\.0, 0\.0\) is not finite$"):
        L.partials(0.0, 1.0, 0.0)
    assert L.d2(0.5, 1e-300, 0.0) == _central(L, 0.5, 1e-300, 0.0, _fd_step(1e-300), 0.0)


def test_an_overflowing_partial_is_reported_alike_by_every_form():
    ts = TimeScale.sampled_interval(0, 1, 5)
    fields = []
    for L in OVERFLOWING_PARTIAL.values():
        p = TermSumProblem(ts, [Term(1.0, L, "delta")], 1.0, 1.0)
        with pytest.raises(EvaluationError):
            gradient(p, linear_interpolant(p))
        sol = solve(p)  # reported, not raised
        fields.append((sol.y.values, sol.converged, sol.iterations, sol.objective,
                       sol.residual_el1, sol.residual_el2, sol.certificate))
    assert fields[0][1:4] == (False, 0, 1e308)
    assert np.isnan(fields[0][4])
    for other in fields[1:]:
        np.testing.assert_equal(other, fields[0])


def test_arrays_of_a_callable_are_finite_or_raise():
    # every scalar function of a callable passes the one guard, a difference
    # partial too, so its arrays never carry an overflow through
    rng = np.random.default_rng(0)
    t, y, v = np.linspace(0.5, 2.0, 4)[:, None], np.linspace(-2.0, 2.0, 5), 0.3
    for _ in range(300):
        E = ex.compile_expr(random_expression(rng))
        for s in (1.0, 1e300, 1e305, 1e306, 1e307):
            L = Lagrangian(lambda t, y, v, E=E, s=s: s * E(t, y, v))
            for method in (L.values, L.partials, L.hessian):
                try:
                    out = method(t, y, v)
                except EvaluationError:
                    continue
                assert np.isfinite(out).all()  # one array, or a tuple of equal shapes


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


def test_reduced_hessian_is_u_cubed_times_sympy_second_derivatives():
    # u * L(t, u*s, u*w) has second partials u^3 times L's at (t, u*s, u*w);
    # s = y / u and w = v / u put the inner L at its well-behaved sample
    sp = pytest.importorskip("sympy")
    names = dict(zip("tyv", sp.symbols("t y v")))
    _, y, v = names.values()
    rng = np.random.default_rng(27)
    for L, t, y0, v0 in _random_cases(seed=27, count=60):
        u = float(rng.choice(DIRECTIONS))
        expr = _sympy(ex.parse(L.text), sp, names)
        subs = dict(zip(names.values(), (t, u * (y0 / u), u * (v0 / u))))
        exact = [u**3 * float(sp.diff(expr, *wrt).evalf(30, subs=subs)) for wrt in ((y, y), (y, v), (v, v))]
        got = reduced_lagrangian(L, u).hessian(np.array([t]), np.array([y0 / u]), np.array([v0 / u]))
        for h, ref in zip(got, exact):
            assert h.shape == (1,)
            assert abs(h[0] - ref) <= 1e-12 * max(1.0, abs(ref)), (L.text, u)


def _hessian_by_sample(C: Lagrangian, t: float, y: float, v: float) -> tuple[float, float, float]:
    """A callable Lagrangian's Hessian at one sample, written out: central
    differences of d2 and d3, the mixed partial symmetrized."""
    hy, hv = _fd_step(y), _fd_step(v)
    yv = 0.5 * (_central(C.d2, t, y, v, 0.0, hv) + _central(C.d3, t, y, v, hy, 0.0))
    return _central(C.d2, t, y, v, hy, 0.0), yv, _central(C.d3, t, y, v, 0.0, hv)


def test_hessian_matches_central_differences():
    # arrays of samples on the exact path; on the callable path central
    # differences of the partials, equal bit for bit to the per-sample
    # formula at every sample, for explicit partials and a value-only
    # Lagrangian; a directional reduced integrand's is u^3 times the inner
    # L's at the scaled arguments, bit for bit
    for L, t, y, v in _random_cases(seed=22, count=60):
        C = Lagrangian(L, L.d2, L.d3)
        y_samples, v_samples = [y, y + 0.01], [v, v - 0.01]
        ts, ys, vs = np.array([t]), np.array(y_samples)[:, None], np.array(v_samples)
        exact = L.hessian(ts, ys, vs)
        fd = C.hessian(ts, ys, vs)
        assert [h.shape for h in fd] == [(2, 2)] * 3
        for j, (h_exact, h_fd) in enumerate(zip(exact, fd)):
            assert h_exact.shape == (2, 2)
            assert np.allclose(h_fd, h_exact, rtol=1e-5, atol=1e-5), (L.text, j)
        for M in (C, Lagrangian(L)):
            ref = np.array([[_hessian_by_sample(M, t, y_, v_) for v_ in v_samples] for y_ in y_samples])
            assert np.all(np.stack(M.hessian(ts, ys, vs)) == np.moveaxis(ref, -1, 0)), L.text
        for u in (0.5, 2.0, -0.5, -2.0):
            ref = u**3 * np.stack(L.hessian(ts, u * ys, u * vs))
            assert np.all(np.stack(reduced_lagrangian(L, u).hessian(ts, ys, vs)) == ref), (L.text, u)


def test_callable_hessian_makes_four_d2_and_four_d3_calls_per_sample():
    calls = Counter()

    def counted(key, f):
        def g(t, y, v):
            calls[key] += 1
            return f(t, y, v)

        return g

    L = Lagrangian.from_expression("exp(y)*v^2 + sin(t)*y")
    t = np.array([1.0, 2.0, 3.0])[:, None, None]
    y = np.linspace(0.0, 1.0, 4)[:, None]
    v = np.linspace(-1.0, 1.0, 5)
    samples = 3 * 4 * 5
    Lagrangian(counted("L", L), counted("d2", L.d2), counted("d3", L.d3)).hessian(t, y, v)
    assert calls == {"d2": 4 * samples, "d3": 4 * samples}
    calls.clear()
    Lagrangian(counted("L", L)).hessian(t, y, v)  # each difference of d2 or d3 takes two values
    assert calls == {"L": 16 * samples}
    # a reduced integrand takes the inner L's compiled second partials and
    # calls none of its scalar functions: not even slots rebound after the
    # reduction, as a counter rebinds them, which its partials do call
    calls.clear()
    R = reduced_lagrangian(L, -2.0)
    for slot, key in (("_fn", "L"), ("_d2", "d2"), ("_d3", "d3")):
        setattr(L, slot, counted(key, getattr(L, slot)))
    R.hessian(t, y, v)
    assert calls == {}
    R.partials(t, y, v)
    assert calls == {"d2": samples, "d3": samples}


def _arrays_or_error(f, *args):
    """f(*args) as the shape and bytes of each array it returns, or as the
    type and text of the error it raises."""
    try:
        out = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.shape, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def _by_sample(fns, t, y, v):
    """Each scalar function at every sample of the broadcast arrays t, y
    and v: function after function, sample after sample, in C order."""
    t, y, v = np.broadcast_arrays(*(np.asarray(a, float) for a in (t, y, v)))
    samples = list(zip(t.ravel().tolist(), y.ravel().tolist(), v.ravel().tolist()))
    return tuple(np.array([f(*s) for s in samples], float).reshape(t.shape) for f in fns)


def _hessian_of_samples(M, t, y, v):
    """A callable Lagrangian's Hessian as ``Lagrangian.hessian`` takes it,
    central differences of the stacked partials, with every partial taken
    sample by sample."""
    y, v = np.asarray(y, float), np.asarray(v, float)

    def d23(t, y, v):
        return np.stack(_by_sample((M.d2, M.d3), t, y, v))

    hy, hv = (variational.FD_STEP * np.maximum(1.0, np.abs(x)) for x in (y, v))
    yy, d3y = _central(d23, t, y, v, hy, 0.0)
    d2v, vv = _central(d23, t, y, v, 0.0, hv)
    return yy, 0.5 * (d2v + d3y), vv


def _scaled_hessian_of_samples(L, u, t, y, v):
    """The Hessian of ``reduced_lagrangian(L, u)`` written out sample by
    sample, in C order: u^3 times L's Hessian at (t, u*y, u*v), the scaling
    and the product under the domain rules, raising the first failing
    sample's error, L's own or one naming the sample."""
    t, y, v = np.broadcast_arrays(*(np.asarray(a, float) for a in (t, y, v)))
    rows = []
    for s in zip(t.ravel().tolist(), y.ravel().tolist(), v.ravel().tolist()):
        try:
            with np.errstate(all="raise", under="ignore"):
                inner = L.hessian(np.array([s[0]]), u * np.array([s[1]]), u * np.array([s[2]]))
                rows.append([(u**3 * h)[0] for h in inner])
        except FloatingPointError as exc:
            raise EvaluationError(f"yy/yv/vv{s!r}: {exc}") from None
    return tuple(np.array(col, float).reshape(t.shape) for col in zip(*rows))


def _same_as_by_sample(M, t, y, v, reduced_from=None):
    """M's arrays, or its error, equal those taken sample by sample; for
    M = reduced_lagrangian(L, u), reduced_from is (L, u)."""
    if reduced_from is None:
        hessian = functools.partial(_hessian_of_samples, M)
    else:
        hessian = functools.partial(_scaled_hessian_of_samples, *reduced_from)
    return (
        _arrays_or_error(M.values, t, y, v) == _arrays_or_error(_by_sample, (M,), t, y, v)
        and _arrays_or_error(M.partials, t, y, v) == _arrays_or_error(_by_sample, (M.d2, M.d3), t, y, v)
        and _arrays_or_error(M.hessian, t, y, v) == _arrays_or_error(hessian, t, y, v)
    )


DIRECTIONS = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)


@pytest.mark.parametrize("u", DIRECTIONS)
def test_reduced_arrays_equal_the_closures_sample_by_sample(u):
    # the reduced integrand streams the inner L's scalar functions at
    # arguments scaled as arrays: the same bits, and the same first error,
    # as its closures sample by sample, where L's numpy kernels would differ
    # in the last bit; its Hessian, u^3 times the inner L's, is the inner
    # Hessian sample by sample times u^3; on samples of shape (k,) around
    # each case and, for one case in six, on certify's broadcast
    # (b, 1, 1) x (21, 1) x (1, 21)
    rng = np.random.default_rng(26)
    for i, (L, t, y, v) in enumerate(_random_cases(seed=26, count=60)):
        R = reduced_lagrangian(L, u)
        k = 8
        ys, vs = y + rng.uniform(-1, 1, k), v + rng.uniform(-1, 1, k)
        assert _same_as_by_sample(R, np.full(k, t), ys, vs, (L, u)), L.text
        if i % len(DIRECTIONS) == DIRECTIONS.index(u):
            ts = np.array([t, t + 0.5])[:, None, None]
            ys = np.linspace(y - 1.0, y + 1.0, 21)[:, None]
            vs = np.linspace(v - 1.0, v + 1.0, 21)[None, :]
            assert _same_as_by_sample(R, ts, ys, vs, (L, u)), L.text


def _inf_at_3(t, y, v):
    return math.inf if y == 3.0 else y


def _inf_at_3_raise_at_5(t, y, v):
    if y == 5.0:
        raise RuntimeError("sample 5")
    return _inf_at_3(t, y, v)


@pytest.mark.parametrize(
    "M, y, v",
    [
        # (L, u) stands for reduced_lagrangian(L, u)
        # the inner log(y) at a negative scaled state, and 1/y at 0
        ((Lagrangian.from_expression("v^2 + log(y)"), -0.5), [-4.0, -2.0, 2.0, 0.0], 1.0),
        # u^2 * d2 = 4e308 overflows at the first sample, before the inner
        # d2 = 1e308 + 1/y divides by zero at the second
        ((Lagrangian.from_expression("1e308*y + log(y)"), 2.0), [0.5, 0.0], 1.0),
        # a plain callable, non-finite at sample 3 and raising at sample 5
        (Lagrangian(_inf_at_3_raise_at_5, _inf_at_3_raise_at_5, _inf_at_3_raise_at_5), np.arange(8.0), 0.0),
        # and one that only returns a non-finite value
        (Lagrangian(_inf_at_3, _inf_at_3, _inf_at_3), np.arange(8.0), 0.0),
        # u^3 * yy = 8 * (1e308 - 1) overflows at the first sample, before
        # the inner yy = 1e308 - 1/y^2 divides by zero at the second
        ((Lagrangian.from_expression("5e307*y^2 + log(y)"), 2.0), [0.5, 0.0], 1.0),
    ],
)
def test_array_errors_are_the_first_failing_samples(M, y, v):
    reduced_from = M if isinstance(M, tuple) else None
    if reduced_from:
        M = reduced_lagrangian(*reduced_from)
    t = np.zeros(len(y))
    assert _arrays_or_error(M.values, t, y, v)[0] is EvaluationError
    assert _same_as_by_sample(M, t, y, v, reduced_from)


def test_hessian_fails_where_ieee_arithmetic_hides_a_domain_fault():
    # at t = 0 the inner 1/t divides by zero; IEEE arithmetic carries on
    # through inf to a finite Hessian, the domain rules do not
    L = Lagrangian.from_expression("v^2*(1 + 1/(1 + 1/t))")
    t, y, v = np.zeros(3), np.ones(3), np.ones(3)
    with np.errstate(all="ignore"):
        vv = ex.compile_kernel((L._trees["vv"],))(t, y, v)[0]
    assert np.all(vv == 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=r"division by zero in '1\.0/t'"):
            L.hessian(t, y, v)


def test_expression_arrays_take_python_floats():
    # d3 = 2*v and yv = 0 come out of their kernels as bare Python floats
    L = Lagrangian.from_expression("v^2 + log(y)")
    assert L.values(0.0, 2.0, 1.0) == pytest.approx(1.0 + math.log(2.0), rel=1e-15)
    assert L.partials(0.0, 2.0, 1.0) == (0.5, 2.0)
    assert L.hessian(0.0, 2.0, 1.0) == (-0.25, 0.0, 2.0)


def test_callable_hessian_that_overflows_leaves_the_domain():
    # d2 = 2e308*y is finite on the box, its central difference in y,
    # about 2e308, is not: local-only, with no warning
    L = Lagrangian(
        lambda t, y, v: 1e308 * y * y + v * v, lambda t, y, v: 1e308 * (2 * y), lambda t, y, v: 2 * v
    )
    ts = TimeScale.sampled_interval(1.0, 2.0, 9)
    p = TermSumProblem(ts, [Term(1.0, L, "delta")], 0.0, 0.1)
    sol = Solution(GridFunction(ts, np.linspace(0.0, 0.1, 9)), 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify(p, sol) is Certificate.LOCAL_ONLY
        fault = r"^yy/yv/vv\(1\.0, 0\.05, 0\.1\): overflow encountered in divide$"
        with pytest.raises(EvaluationError, match=fault):
            L.hessian(1.0, 0.05, 0.1)


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
    return Lagrangian(L, L.d2, L.d3)


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
    calls = [Lagrangian(L, L.d2, L.d3) for L in exprs]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problems_reject_non_finite_numbers(bad):
    # each one names the argument; none reaches the solver
    cases = [
        (lambda: DeltaNablaProblem(T134, bad, 1.0, L_TV2, L_TV2, 0.0, 1.0), "weight of term 0"),
        (lambda: DeltaNablaProblem(T134, 1.0, bad, L_TV2, L_TV2, 0.0, 1.0), "weight of term 1"),
        (lambda: DeltaNablaProblem(T134, 1.0, 1.0, L_TV2, L_TV2, bad, 1.0), "alpha"),
        (lambda: DeltaNablaProblem(T134, 1.0, 1.0, L_TV2, L_TV2, 0.0, bad), "beta"),
        (lambda: TermSumProblem(T134, [Term(bad, L_TV2, "nabla")], 0.0, 1.0), "weight of term 0"),
        (lambda: DirectionalProblem(T134, bad, L_TV2, 0.0, 1.0), "direction u"),
    ]
    for build, name in cases:
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {bad!r}$"):
            build()


def test_term_rejects_a_lagrangian_that_is_not_one():
    # an expression string is named here, not as an AttributeError in solve
    with pytest.raises(ConfigurationError, match="^a term needs a Lagrangian, got str$"):
        DeltaNablaProblem(T134, 1.0, 1.0, "v^2", "v^2", 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="got function$"):
        Term(1.0, lambda t, y, v: v * v, "delta")


def test_term_names_an_unknown_kind():
    with pytest.raises(ValueError, match="^kind must be 'delta' or 'nabla', got 'foo'$"):
        Term(1.0, L_TV2, "foo")


def test_directional_problem_rejects_a_lagrangian_that_is_not_one():
    # named like Term's, not as an AttributeError from the reduced integrand
    with pytest.raises(ConfigurationError, match="^a directional problem needs a Lagrangian, got str$"):
        DirectionalProblem(T134, 1.0, "v^2", 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="got function$"):
        reduced_lagrangian(lambda t, y, v: v * v, -0.5)


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


def _reference_gradient(p: TermSumProblem, y: GridFunction) -> np.ndarray:
    """The gradient written term by term: each term's np.diff slope and
    partials, each partial's tree compiled as one nested expression,
    scattered into a zeroed full-length array and weighted into g."""
    ts = p.scale
    g = np.zeros(len(ts) - 2)
    for term in p.terms:
        if term.weight == 0.0:
            continue
        left, right = slice(None, -1), slice(1, None)
        e, s = (left, right) if term.kind == "delta" else (right, left)
        slope = np.diff(y.values) / ts.gaps()
        t, ys = ts.points[e], y.values[s]
        d2, d3 = (nested_array_function(term.lagrangian._trees[key])(t, ys, slope) for key in ("d2", "d3"))
        full = np.zeros(len(ts))
        full[s] += ts.gaps() * d2
        full[1:] += d3
        full[:-1] -= d3
        g += term.weight * full[1:-1]
    return g


def test_gradient_is_the_term_by_term_scatter_bit_for_bit():
    # random expression Lagrangians, both kinds, weights from {1, 2.5, -1, 0}
    # and random scales and trajectories, compared bit for bit (signed
    # zeros too) with the scatter written out term by term
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 50:
        ts = random_scale(rng, min_points=3, max_points=12, min_gap=0.05, max_gap=2.0)
        terms = [
            Term(float(rng.choice([1.0, 2.5, -1.0, 0.0])),
                 Lagrangian.from_expression(ex.to_source(random_expression(rng))),
                 str(rng.choice(["delta", "nabla"])))
            for _ in range(int(rng.integers(1, 4)))
        ]
        if all(term.weight == 0.0 for term in terms):
            continue
        p = TermSumProblem(ts, terms, 0.0, 1.0)
        y = GridFunction(ts, rng.uniform(0.5, 2.5, len(ts)))
        with np.errstate(all="ignore"):
            ref = _reference_gradient(p, y)
        try:
            got = gradient(p, y)
        except EvaluationError:  # the draw left a Lagrangian's domain
            continue
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), [t.lagrangian.text for t in terms]
        checked += 1


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


LOG_EXTREMAL = ("t*v^2", lambda t: np.log(t) / np.log(2.0))
SINH_EXTREMAL = ("v^2 + y^2", lambda t: np.sinh(t - 1.0) / np.sinh(1.0))


def _bessel_extremal(t):
    """A*I0(2 sqrt t) + B*K0(2 sqrt t) through (1, 0) and (2, 1)."""
    special = pytest.importorskip("scipy.special")
    ends = 2.0 * np.sqrt([1.0, 2.0])
    A, B = np.linalg.solve(np.column_stack([special.i0(ends), special.k0(ends)]), [0.0, 1.0])
    s = 2.0 * np.sqrt(t)
    return A * special.i0(s) + B * special.k0(s)


BESSEL_EXTREMAL = ("t*v^2 + y^2", _bessel_extremal)


@pytest.mark.parametrize(
    "src, exact, g1, g2, order",
    [
        (*LOG_EXTREMAL, 1.0, 0.0, 1),
        (*LOG_EXTREMAL, 0.0, 1.0, 1),
        (*LOG_EXTREMAL, 1.0, 3.0, 1),
        (*LOG_EXTREMAL, 1.0, 1.0, 2),
        (*SINH_EXTREMAL, 1.0, 0.0, 2),
        (*SINH_EXTREMAL, 0.0, 1.0, 2),
        (*SINH_EXTREMAL, 1.0, 1.0, 2),
        (*SINH_EXTREMAL, 1.0, 3.0, 2),
        (*BESSEL_EXTREMAL, 1.0, 0.0, 1),
        (*BESSEL_EXTREMAL, 0.0, 1.0, 1),
        (*BESSEL_EXTREMAL, 1.0, 1.0, 2),
    ],
    ids=[
        "delta", "nabla", "1-3", "1-1", "sinh-delta", "sinh-nabla", "sinh-1-1", "sinh-1-3",
        "bessel-delta", "bessel-nabla", "bessel-1-1",
    ],
)
def test_solve_converges_to_the_continuous_extremal(src, exact, g1, g2, order):
    # independent oracles: on [1, 2] with y(1) = 0 and y(2) = 1 the extremal
    # of t*v^2 is y = ln t / ln 2, and that of v^2 + y^2, whose Euler-Lagrange
    # equation is y'' = y, is sinh(t - 1) / sinh(1).  Each doubling of the
    # sampled interval divides the max error by 2^order.  For t*v^2 the
    # one-sided stencils are first order, and equal delta and nabla weights
    # average to a second-order scheme.  v^2 + y^2 has constant
    # coefficients, so every weighting is second order; unlike t*v^2, its
    # d2 is not zero, so its gap * d2 lands on y^sigma and y^rho.  The
    # extremal of t*v^2 + y^2 solves t*y'' + y' - y = 0, so it is
    # A*I0(2 sqrt t) + B*K0(2 sqrt t), with scipy's modified Bessel
    # functions; it has both a t-dependent coefficient and a nonzero d2.
    # Its weighting (1, 3) reads 1.054 * 2 from n = 11 to 21, outside the
    # band, so it is left out.
    L = Lagrangian.from_expression(src)
    errors = []
    for n in (11, 21, 41, 81):
        ts = TimeScale.sampled_interval(1.0, 2.0, n)
        sol = solve(DeltaNablaProblem(ts, g1, g2, L, L, 0.0, 1.0))
        assert sol.converged
        errors.append(np.max(np.abs(sol.y.values - exact(ts.points))))
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.95 * 2**order <= coarse / fine <= 1.05 * 2**order, errors


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


@pytest.mark.parametrize("kind", ["delta", "nabla"])
def test_solve_one_hessian_serves_a_newton_and_a_chord_step(kind):
    # the full Newton step more than halves max|g| without reaching gtol, so
    # the chord step on the same difference Hessian finishes the solve;
    # iterations counts Hessians, and max_iter bounds them, not the chord
    L = Lagrangian.from_expression("t*v^2 + y^2")
    p = TermSumProblem(TimeScale.sampled_interval(1.0, 2.0, 161), [Term(1.0, L, kind)], 0.0, 1.0)
    for sol in (solve(p), solve(p, max_iter=1)):
        assert sol.converged and sol.iterations == 1
        assert sol.certificate is Certificate.GLOBAL_MIN


@pytest.mark.parametrize(
    "kwargs, argument",
    [
        ({"tol": math.inf}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
    ],
)
@pytest.mark.parametrize("solver", [solve, solve_directional])
def test_solvers_reject_a_bad_tolerance_or_iteration_cap(solver, kwargs, argument):
    # unchecked, tol=inf reports converged after no step, a negative or NaN
    # tol can never converge, and max_iter=-1 runs no step
    L = Lagrangian.from_expression("v^2 + y^2")
    ts = TimeScale.sampled_interval(0, 1, 9)
    if solver is solve:
        p = DeltaNablaProblem(ts, 1, 1, L, L, 0, 1)
    else:
        p = DirectionalProblem(ts, 1.0, L, 0, 1)
    with pytest.raises(DomainError, match=f"^{argument} "):
        solver(p, **kwargs)
    assert solver(p, tol=1e-10, max_iter=np.int64(200)).converged


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


@pytest.mark.parametrize("slopes", [None, [0.0, 1.0, 0.0, 1.0, 0.0]])
def test_solve_reports_an_overflow_like_leaving_the_domain(slopes):
    # d3 = 1.6e308*cos(4*v) + 2*v is finite; on the straight line the
    # gradient vanishes and the mean of the Euler-Lagrange form overflows,
    # and a start whose slopes alternate between 0 and pi/4, where d3 flips
    # sign, overflows the gradient itself
    L = Lagrangian.from_expression("4e307*sin(4*v) + v^2")
    ts = TimeScale.sampled_interval(0, 1, 7)
    p = DeltaNablaProblem(ts, 1, 0, L, L, 0, 1)
    init = None
    if slopes is not None:
        init = GridFunction(ts, np.concatenate([[0.0], np.cumsum(slopes) * math.pi / 24, [1.0]]))
    sol = solve(p, init=init)
    assert not sol.converged and sol.iterations == 0
    assert sol.certificate is Certificate.NONE
    assert np.isnan(sol.residual_el1) and np.isnan(sol.residual_el2)
    assert np.isfinite(sol.objective)


OVERFLOW_STEP = TermSumProblem(
    TimeScale([0.0, 1.0, 2.0]), [Term(1.0, Lagrangian.from_expression("1e307*y + 0.01*v^2"), "delta")], 0.0, 0.0
)


def test_solve_reports_an_overflowing_newton_step():
    # g = 1e307 and H = 0.04 make the Newton step -2.5e308, which is -inf
    # without a floating-point exception; it counts as singular, and the
    # steepest-descent steps that follow run into the overflow and stop
    sol = solve(OVERFLOW_STEP)
    assert not sol.converged and sol.certificate is Certificate.NONE
    assert 0 < sol.iterations < 200
    assert np.isfinite(sol.y.values).all()


def test_backtrack_rejects_a_trial_that_is_not_finite():
    x = np.zeros(1)
    g = gradient(OVERFLOW_STEP, GridFunction(OVERFLOW_STEP.scale, np.zeros(3)))
    assert _backtrack(OVERFLOW_STEP, x, float(np.max(np.abs(g))), np.array([-np.inf])) is None


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 160])
def test_solve_band_matches_a_dense_solve(n):
    # seeded symmetric systems: indefinite, diagonally dominant, and with a
    # zero first pivot, which elimination can only pass by a row swap
    rng = np.random.default_rng(n)
    for case in range(30):
        diag, off, rhs = rng.standard_normal(n), rng.standard_normal(n - 1), rng.standard_normal(n)
        if case % 3 == 1:
            diag = np.sign(diag) * (np.abs(np.pad(off, 1)[:-1]) + np.abs(np.pad(off, 1)[1:]) + 0.5)
        elif case % 3 == 2 and n > 1:
            diag[0] = 0.0
        A = _tridiagonal(diag, off)
        x, expected = _solve_band(diag, off, rhs), np.linalg.solve(A, rhs)
        size = np.max(np.abs(A)) * np.max(np.abs(x)) + np.max(np.abs(rhs))
        assert np.max(np.abs(A @ x - rhs)) <= 1e-13 * n * size
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.linalg.cond(A, np.inf) * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "diag, off",
    [
        ([0.0], []),
        ([0.0, 1.0], [0.0]),
        ([1.0, 1.0], [1.0]),
        ([1.0, 2.0, 1.0], [1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0]),  # singular after a row swap
    ],
)
def test_solve_band_raises_on_a_singular_system(diag, off):
    assert np.linalg.matrix_rank(_tridiagonal(diag, off)) < len(diag)
    with pytest.raises(np.linalg.LinAlgError):
        _solve_band(np.array(diag), np.array(off), np.ones(len(diag)))


def _dense_difference_hessian(p, x):
    """Every column j of the central-difference Hessian, from gradients at
    x +- h_j e_j, in an n x n array."""
    H = np.empty((x.size, x.size))
    h = variational.FD_STEP * np.maximum(1.0, np.abs(x))
    for j in range(x.size):
        g = []
        for moved in (x[j] + h[j], x[j] - h[j]):
            y = np.concatenate([[p.alpha], x, [p.beta]])
            y[j + 1] = moved
            g.append(gradient(p, GridFunction(p.scale, y)))
        H[:, j] = (g[0] - g[1]) / (2.0 * h[j])
    return H


def _exact_hessian(p, texts, x):
    """sympy's Hessian of the discrete objective at the interior values x:
    over the gap [t_i, t_{i+1}] of length h, with slope w, the delta
    integral adds h * L(t_i, y_{i+1}, w) and the nabla integral
    h * L(t_{i+1}, y_i, w)."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

    t, y, v = sympy.symbols("t y v")
    xs = sympy.symbols(f"x1:{x.size + 1}")
    values = [sympy.Float(p.alpha), *xs, sympy.Float(p.beta)]
    points = p.scale.points.tolist()
    total = 0
    for term, text in zip(p.terms, texts):
        L = parse_expr(text, local_dict={"t": t, "y": y, "v": v},
                       transformations=standard_transformations + (convert_xor,))
        for i in range(len(points) - 1):
            gap = points[i + 1] - points[i]
            at, state = (i, i + 1) if term.kind == "delta" else (i + 1, i)
            slope = (values[i + 1] - values[i]) / gap
            total += term.weight * gap * L.subs({t: points[at], y: values[state], v: slope}, simultaneous=True)
    return np.array(sympy.lambdify(xs, sympy.hessian(total, xs), "mpmath")(*x.tolist()).tolist(), float)


@pytest.mark.parametrize(
    "texts, weights, kinds",
    [
        # the ROADMAP baseline pair, whose exp(y)*v^2/2 couples y and v
        (("t*v^2 + y^2", "exp(y)*v^2/2 + sin(t)*y"), (1.0, 1.0), ("delta", "nabla")),
        # a negative-weight nabla term
        (("t*v^2 + exp(y)", "0.2*v^2 + 0.2*y^2"), (1.0, -0.7), ("delta", "nabla")),
    ],
)
def test_difference_band_is_the_difference_hessian(texts, weights, kinds):
    terms = [Term(w, Lagrangian.from_expression(s), k) for s, w, k in zip(texts, weights, kinds)]
    p = TermSumProblem(TimeScale.sampled_interval(1.0, 2.0, 9), terms, 0.0, 1.0)
    x = linear_interpolant(p).values[1:-1] + np.random.default_rng(3).uniform(-0.5, 0.5, 7)
    diag, off = _difference_band(p, x)
    H = _dense_difference_hessian(p, x)
    assert not np.triu(H, 2).any() and not np.tril(H, -2).any()
    H = 0.5 * (H.T + H)
    assert np.array_equal(diag, np.diag(H))
    assert np.array_equal(off, np.diag(H, 1)) and np.array_equal(off, np.diag(H, -1))
    exact = _exact_hessian(p, texts, x)
    assert np.max(np.abs(_tridiagonal(diag, off) - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_solve_memory_is_linear_in_the_scale():
    # a dense 639 x 639 Hessian alone would take 3.3 MB
    L_delta, L_nabla = (Lagrangian.from_expression(s) for s in ("t*v^2 + y^2", "exp(y)*v^2/2 + sin(t)*y"))
    p = DeltaNablaProblem(TimeScale.sampled_interval(1.0, 2.0, 641), 1.0, 1.0, L_delta, L_nabla, 0.0, 1.0)
    tracemalloc.start()
    try:
        sol = solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < 1_000_000


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


def test_certify_constant_trajectory_global_min():
    # y = 1 and y^Delta = 0 everywhere: both sample boxes are degenerate and
    # span 1 to either side of the value
    L = Lagrangian.from_expression("v^2")
    p = DeltaNablaProblem(TimeScale.sampled_interval(0, 1, 5), 1.0, 1.0, L, L, 1.0, 1.0)
    sol = solve(p)
    assert sol.converged
    assert np.array_equal(sol.y.values, np.ones(5))
    assert variational._sample_box(sol.y.values) == (0.0, 2.0)
    assert certify(p, sol) is Certificate.GLOBAL_MIN


def test_certify_unconverged_none():
    sol = solve(example_problem(1.0, 1.0))
    sol.converged = False
    assert certify(example_problem(1.0, 1.0), sol) is Certificate.NONE


def full_sweep_certificate(p: TermSumProblem, y: GridFunction) -> Certificate:
    """The sampled certificate from every sample at once: the 2x2 Hessian of
    each active term at every scale point and every point of the
    CERTIFY_GRID x CERTIFY_GRID box, its eigenvalues by ``eigvalsh``, with
    no blocks and no early exit."""
    if any(term.weight < 0.0 for term in p.active_terms):
        return Certificate.LOCAL_ONLY
    points = p.scale.points

    def axis(x):
        lo, hi = np.min(x), np.max(x)
        half = 0.5 * (hi - lo) * (1.0 + variational.CERTIFY_INFLATE) or 1.0
        return np.linspace(0.5 * (lo + hi) - half, 0.5 * (lo + hi) + half, variational.CERTIFY_GRID)

    ys = axis(y.values)[:, None]
    vs = axis(np.diff(y.values) / np.diff(points))[None, :]
    eigs = []
    for term in p.active_terms:
        try:
            if isinstance(p, DirectionalProblem):  # u^3 times the inner L's, not the code under test
                u = p.u
                with np.errstate(all="raise", under="ignore"):
                    a, b, c = (u**3 * h for h in p.L.hessian(points[:, None, None], u * ys, u * vs))
            else:
                a, b, c = term.lagrangian.hessian(points[:, None, None], ys, vs)
        except (EvaluationError, FloatingPointError):
            return Certificate.LOCAL_ONLY
        H = np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)
        eigs.append(np.linalg.eigvalsh(H).ravel())
    eigs = np.concatenate(eigs)
    if eigs.min() >= -variational.CERTIFY_EIG_TOL:
        return Certificate.GLOBAL_MIN
    if eigs.max() <= variational.CERTIFY_EIG_TOL:
        return Certificate.GLOBAL_MAX
    return Certificate.LOCAL_ONLY


CERTIFY_FIXED = ("t*v^2 + y^2", "v^2 - 30*y^2", "-(v^2) - y^2", "exp(y)*v^2/2 + sin(t)*y",
                 "v^2 + (y - 1.3)^1.5", "v^2 + (y + 0.5 - t)^1.5")


def test_certify_equals_a_full_sweep():
    # random and fixed integrands, delta-nabla and directional, at random
    # trajectories; the box's lower edge, at y <= 1.25, leaves the domain
    # of (y - 1.3)^1.5 at every t and that of (y + 0.5 - t)^1.5 for t >= 1.75,
    # in a later block, and a negative weight caps the verdict
    rng = np.random.default_rng(16)
    seen = Counter()
    for k in range(48):
        n = (21, 161)[k % 2]
        # directional: one case in four at n = 21, two at n = 161
        directional = k % 4 == 2 if n == 21 else k in (3, 27)
        ts = TimeScale.sampled_interval(1.0, 2.0, n)
        srcs = [ex.to_source(random_expression(rng)) if rng.uniform() < 0.6
                else str(rng.choice(CERTIFY_FIXED)) for _ in range(2)]
        L_delta, L_nabla = (Lagrangian.from_expression(src) for src in srcs)
        if not directional:
            weights = [float(w) for w in rng.choice([1.0, 0.5, 0.0, -1.0], 2, p=[0.4, 0.3, 0.2, 0.1])]
            if weights == [0.0, 0.0]:
                weights[0] = 1.0
            p = DeltaNablaProblem(ts, *weights, L_delta, L_nabla, 1.5, 2.5)
        else:
            p = DirectionalProblem(ts, float(rng.choice([0.5, -0.5, 2.0, -2.0])), L_delta, 1.5, 2.5)
        y = GridFunction(ts, np.linspace(1.5, 2.5, n) + np.pad(0.2 * rng.uniform(-1, 1, n - 2), 1))
        sol = Solution(y, 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
        expected = full_sweep_certificate(p, y)
        assert certify(p, sol) is expected, (k, srcs)
        seen[expected] += 1
    assert seen.keys() == {Certificate.GLOBAL_MIN, Certificate.GLOBAL_MAX, Certificate.LOCAL_ONLY}


# linear in y and free of v: every second partial vanishes
L_LINEAR = Lagrangian.from_expression("2.446/1.994/(0.142/y)/(t - 2.72 + sin(0.297))")


def test_directional_certificate_of_a_linear_integrand():
    # the exact Hessian is 0; a central difference of the reduced
    # integrand's partials reads noise of about -2.4e-9 in yy, below
    # -CERTIFY_EIG_TOL, where the verdict turns
    ts = TimeScale.sampled_interval(1.0, 2.0, 21)
    sol = Solution(GridFunction(ts, np.linspace(1.5, 2.5, 21)), 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
    one_term = TermSumProblem(ts, [Term(1.0, L_LINEAR, "delta")], 1.5, 2.5)
    assert certify(DirectionalProblem(ts, 1.0, L_LINEAR, 1.5, 2.5), sol) is certify(one_term, sol)
    for u in DIRECTIONS:
        assert certify(DirectionalProblem(ts, u, L_LINEAR, 1.5, 2.5), sol) is Certificate.GLOBAL_MIN, u


def test_directional_certificate_of_an_overflowing_hessian_is_local_only():
    # the inner yy = 1e308 is finite; u^3 * yy = 8e308 overflows, which
    # leaves the domain: local-only, with no warning
    ts = TimeScale.sampled_interval(1.0, 2.0, 21)
    p = DirectionalProblem(ts, 2.0, Lagrangian.from_expression("5e307*y^2 + v^2"), 0.0, 0.1)
    sol = Solution(GridFunction(ts, np.linspace(0.0, 0.1, 21)), 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify(p, sol) is Certificate.LOCAL_ONLY
    with pytest.raises(EvaluationError, match=r"^yy/yv/vv\(1\.0, 0\.0, 0\.0\): overflow"):
        p.terms[0].lagrangian.hessian(ts.points[:1], np.zeros(1), np.zeros(1))


def hessian_samples(monkeypatch) -> list[int]:
    """The sample count of every ``Lagrangian.hessian`` call from now on."""
    samples = []
    hessian = Lagrangian.hessian

    def counted(self, t, y, v):
        samples.append(np.broadcast(t, y, v).size)
        return hessian(self, t, y, v)

    monkeypatch.setattr(Lagrangian, "hessian", counted)
    return samples


@pytest.mark.parametrize("n", [21, 161])
def test_certify_stops_once_local_only_is_settled(monkeypatch, n):
    # the nabla term is indefinite in every block, so block 0 of each term
    # settles local-only: the convex delta term sweeps no further block
    ts = TimeScale.sampled_interval(1.0, 2.0, n)
    L_convex, L_saddle = (Lagrangian.from_expression(src) for src in ("t*v^2 + y^2", "v^2 - y^2"))
    p = DeltaNablaProblem(ts, 1.0, 1.0, L_convex, L_saddle, 0.0, 1.0)
    sol = solve(p)
    assert sol.converged and sol.certificate is Certificate.LOCAL_ONLY
    samples = hessian_samples(monkeypatch)
    assert certify(p, sol) is Certificate.LOCAL_ONLY
    block = variational.CERTIFY_BLOCK // variational.CERTIFY_GRID**2 * variational.CERTIFY_GRID**2
    assert samples == [block, block]


def test_certify_sweeps_every_block_for_a_global_verdict(monkeypatch):
    ts = TimeScale.sampled_interval(1.0, 2.0, 41)
    L = Lagrangian.from_expression("t*v^2 + y^2")
    p = DeltaNablaProblem(ts, 1.0, 1.0, L, L, 0.0, 1.0)
    sol = solve(p)
    samples = hessian_samples(monkeypatch)
    assert certify(p, sol) is Certificate.GLOBAL_MIN
    assert sum(samples) == 2 * 41 * variational.CERTIFY_GRID**2


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


def test_stacked_objective_sums_each_row_left_to_right():
    # with L = y on unit gaps the delta term's gap * L values are y[1:]:
    # left to right, 1e16 + 1.0 rounds to 1e16 and the 1.0 is lost, where a
    # compensated sum (Python's sum from 3.12 on, math.fsum) keeps it and
    # numpy's pairwise np.sum (eight partial sums from ten values on) may
    ts = TimeScale(np.arange(11.0))
    p = TermSumProblem(ts, [Term(1.0, Lagrangian.from_expression("y"), "delta")], 0.0, 0.0)
    values = [1e16] + [1.0] * 8 + [-1e16]
    rng = np.random.default_rng(3)
    rows = np.array([[0.0] + values] + [[0.0, *rng.permutation(values)] for _ in range(11)])
    stacked = _objectives(p, rows)
    left_to_right = [functools.reduce(operator.add, (ts.gaps() * row[1:]).tolist(), 0.0) for row in rows]
    for row, value, expected in zip(rows, stacked, left_to_right):
        assert value == objective(p, GridFunction(ts, row))
        assert value == expected
    assert stacked[0] == 0.0
    # the rows tell the three orders apart
    assert any(math.fsum(row) != expected for row, expected in zip(rows, left_to_right))
    assert any(np.sum(row) != expected for row, expected in zip(rows, left_to_right))


def reference_probe(p, sol, n_trials, delta, seed, slack=1e-12):
    """The probe as a plain loop that draws and evaluates one trial at a
    time."""
    rng = np.random.default_rng(seed)
    base = objective(p, sol.y)
    ts = p.scale
    for _ in range(n_trials):
        eta = np.zeros(len(ts))
        eta[1:-1] = rng.standard_normal(len(ts) - 2)
        size = norm_1_inf(GridFunction(ts, eta))
        if size == 0.0:
            continue
        eps = rng.uniform(0.0, 1.0) * delta / (2.0 * size)
        if objective(p, GridFunction(ts, sol.y.values + eps * eta)) < base - slack:
            return False
    return True


class SometimesZeroNormals:
    """A generator whose normal draws are all zero whenever the first of
    them exceeds 1, so that some trials are skipped."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, size):
        draw = self._rng.standard_normal(size)
        return np.zeros(size) if draw[0] > 1.0 else draw

    def uniform(self, low, high):
        return self._rng.uniform(low, high)


def _outcome(probe, *args):
    try:
        return probe(*args)
    except EvaluationError as exc:
        return "error", str(exc)


PROBE_TS = TimeScale.sampled_interval(0.0, 1.0, 9)


@pytest.mark.parametrize(
    "src, delta, kinds",
    [
        ("t*v^2 + y^2", 0.1, {True}),
        ("v^2 - 40*y^2", 0.1, {True, False}),
        # the larger perturbations reach y <= -1, where log(y + 1) fails;
        # seed 5 fails at trial 32 and leaves the domain at trial 44
        ("v^2 - 40*y^2 + 1e-9*log(y + 1)", 40.0, {True, False, "error"}),
    ],
    ids=["convex", "saddle", "domain"],
)
@pytest.mark.parametrize("zero_draws", [False, True], ids=["normal", "zero-draws"])
def test_probe_matches_a_trial_by_trial_loop(monkeypatch, src, delta, kinds, zero_draws):
    # blocks of 16 trials on 9 points; counts below, at and past a block
    monkeypatch.setattr(variational, "CERTIFY_BLOCK", 16 * len(PROBE_TS))
    monkeypatch.setattr(variational, "PROBE_DELTA", delta)
    if zero_draws:
        monkeypatch.setattr(np.random, "default_rng", SometimesZeroNormals)
    # the convex case probes its solution from 0 to 1, the others y = 0
    convex = src.startswith("t")
    L = Lagrangian.from_expression(src)
    p = DeltaNablaProblem(PROBE_TS, 1.0, 1.0, L, L, 0.0, 1.0 if convex else 0.0)
    y = solve(p).y if convex else GridFunction.constant(PROBE_TS, 0.0)
    sol = Solution(y, 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
    seen = set()
    for seed in range(8):
        for n_trials in (1, 15, 16, 60):
            expected = _outcome(reference_probe, p, sol, n_trials, delta, seed)
            got = _outcome(local_min_probe, p, sol, n_trials, seed)
            assert got == expected, (seed, n_trials)
            seen.add(expected if isinstance(expected, bool) else expected[0])
    if not zero_draws:  # every outcome the case is built for shows
        assert seen == kinds


def test_probe_rejects_a_negative_trial_count():
    p = example_problem(1.0, 1.0)
    with pytest.raises(DomainError, match="n_trials must be nonnegative, got -3"):
        local_min_probe(p, solve(p), n_trials=-3)




@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_trials": 2.5}, "n_trials must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": -1}, "seed must be nonnegative, got -1"),
    ],
)
def test_probe_names_a_count_or_seed_that_is_not_a_nonnegative_integer(kwargs, message):
    p = example_problem(1.0, 1.0)
    sol = solve(p)
    with pytest.raises(DomainError) as err:
        local_min_probe(p, sol, **kwargs)
    assert str(err.value) == message
    assert local_min_probe(p, sol, n_trials=np.int64(20), seed=np.uint8(3))
