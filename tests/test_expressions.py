"""Parsing, printing, evaluation, and symbolic differentiation."""

import math

import numpy as np
import pytest

from deltanabla import EvaluationError, ExpressionSyntaxError
from deltanabla import expressions as ex
from conftest import random_expression, well_behaved_sample


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_example_shape():
    tree = ex.parse("t*v^2")
    assert tree == ex.Mul(ex.Var("t"), ex.Pow(ex.Var("v"), ex.Num(2.0)))


def test_parse_precedence_mul_before_sub():
    tree = ex.parse("y*v - sin(t)")
    assert tree == ex.Sub(ex.Mul(ex.Var("y"), ex.Var("v")), ex.Call("sin", ex.Var("t")))


def test_parse_power_right_associative():
    assert ex.parse("2^3^2") == ex.Pow(ex.Num(2.0), ex.Pow(ex.Num(3.0), ex.Num(2.0)))


def test_parse_unary_minus_binds_looser_than_power():
    assert ex.parse("-t^2") == ex.Neg(ex.Pow(ex.Var("t"), ex.Num(2.0)))
    assert ex.parse("t^-2") == ex.Pow(ex.Var("t"), ex.Neg(ex.Num(2.0)))


def test_parse_constants():
    assert ex.parse("pi") == ex.Num(math.pi)
    assert ex.parse("e") == ex.Num(math.e)


def test_parse_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse("t*(")
    assert err.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse("t + q")
    assert err.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        ex.parse("t ? 2")
    assert err.value.offset == 2
    with pytest.raises(ExpressionSyntaxError):
        ex.parse("sin t")
    with pytest.raises(ExpressionSyntaxError, match="overflows") as err:
        ex.parse("v + 1e999")
    assert err.value.offset == 4


def test_left_associativity():
    assert ex.parse("1-2-3") == ex.Sub(ex.Sub(ex.Num(1.0), ex.Num(2.0)), ex.Num(3.0))
    assert ex.parse("8/4/2") == ex.Div(ex.Div(ex.Num(8.0), ex.Num(4.0)), ex.Num(2.0))


# ---------------------------------------------------------------------------
# printing round-trip
# ---------------------------------------------------------------------------

CORPUS = [
    "t*v^2",
    "y*v - sin(t)",
    "-t^2 + 3*y",
    "t^-2",
    "1-2-3",
    "t*(y + v)",
    "exp(y)/(1 + v^2)",
    "log(t) * cos(v) - e",
    "2^3^2",
    "-(y - v)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_corpus(src):
    tree = ex.parse(src)
    assert ex.parse(ex.to_source(tree)) == tree


@pytest.mark.parametrize(
    "src, printed",
    [
        ("1-(2-3)", "1.0 - (2.0 - 3.0)"),
        ("(t+y)*v", "(t + y)*v"),
        ("8/(4/2)", "8.0/(4.0/2.0)"),
        ("(-t)^2", "(-t)^2.0"),
        ("t^-2", "t^-2.0"),
        ("t - -y", "t - -y"),
        ("exp(y)*v^2/2 + sin(t)*y", "exp(y)*v^2.0/2.0 + sin(t)*y"),
    ],
)
def test_to_source_spelling(src, printed):
    assert ex.to_source(ex.parse(src)) == printed


def test_round_trip_random():
    rng = np.random.default_rng(99)
    for _ in range(200):
        tree = random_expression(rng)
        assert ex.parse(ex.to_source(tree)) == tree


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_simple():
    assert ex.evaluate(ex.parse("y"), 0.0, 5.0, 0.0) == 5.0
    y1 = 0.3
    assert ex.evaluate(ex.parse("t*v^2"), 3.0, 0.0, 1 - y1) == pytest.approx(3 * (1 - y1) ** 2)


def test_evaluate_division_by_zero():
    with pytest.raises(EvaluationError) as err:
        ex.evaluate(ex.parse("1/(t-1)"), 1.0, 0.0, 0.0)
    assert "division by zero" in str(err.value)


def test_evaluate_domain_violations():
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse("log(y)"), 0.0, -1.0, 0.0)
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse("(0-2)^0.5"), 0.0, 0.0, 0.0)
    with pytest.raises(EvaluationError):
        ex.evaluate(ex.parse("t^-1"), 0.0, 0.0, 0.0)
    with pytest.raises(EvaluationError) as err:
        ex.evaluate(ex.parse("exp(exp(t))"), 100.0, 0.0, 0.0)
    assert "exp" in str(err.value)


def test_evaluate_deterministic():
    tree = ex.parse("sin(t)*exp(y) - v/3 + t^3")
    a = ex.evaluate(tree, 1.1, 2.2, 3.3)
    b = ex.evaluate(tree, 1.1, 2.2, 3.3)
    assert a == b


def test_compiled_matches_evaluate():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        tree = random_expression(rng)
        point = well_behaved_sample(rng, tree)
        if point is None:
            continue
        fn = ex.compile_expr(tree)
        assert fn(*point) == ex.evaluate(tree, *point)
        checked += 1


def test_array_compilation_matches_scalar_and_broadcasts():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        tree = random_expression(rng)
        point = well_behaved_sample(rng, tree)
        if point is None:
            continue
        axes = [x + np.array([0.0, 0.01]) for x in point]
        grid = (axes[0][:, None, None], axes[1][:, None], axes[2])
        out = ex.compile_expr(tree, arrays=True)(*grid)
        scalar = ex.compile_expr(tree)
        expected = [[[scalar(t, y, v) for v in axes[2]] for y in axes[1]] for t in axes[0]]
        assert out.shape == (2, 2, 2)
        assert np.allclose(out, expected, rtol=1e-13, atol=1e-13), ex.to_source(tree)
        checked += 1
    constant = ex.compile_expr(ex.parse("2"), arrays=True)(np.zeros(3), 0.0, np.zeros((2, 1)))
    assert constant.shape == (2, 3) and np.all(constant == 2.0)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_differentiate_examples():
    tree = ex.parse("t*v^2")
    d3 = ex.differentiate(tree, "v")
    for t, v in [(1.0, 0.5), (3.0, 2.0), (4.0, -1.0)]:
        assert ex.evaluate(d3, t, 0.0, v) == pytest.approx(2 * t * v, abs=1e-13)
    assert ex.differentiate(tree, "y") == ex.Num(0.0)
    dsin = ex.differentiate(ex.parse("sin(t)*y"), "t")
    for t, y in [(0.3, 1.5), (2.0, -0.5)]:
        assert ex.evaluate(dsin, t, y, 0.0) == pytest.approx(math.cos(t) * y, abs=1e-13)


def test_differentiate_quotient_and_chain():
    tree = ex.parse("exp(y)/(1 + v^2)")
    dy = ex.differentiate(tree, "y")
    dv = ex.differentiate(tree, "v")
    y, v = 0.7, 1.3
    assert ex.evaluate(dy, 0.0, y, v) == pytest.approx(math.exp(y) / (1 + v * v), rel=1e-12)
    expected_dv = -math.exp(y) * 2 * v / (1 + v * v) ** 2
    assert ex.evaluate(dv, 0.0, y, v) == pytest.approx(expected_dv, rel=1e-12)


def test_differentiate_nonconstant_exponent():
    tree = ex.parse("t^y")
    dy = ex.differentiate(tree, "y")
    t, y = 2.0, 1.5
    assert ex.evaluate(dy, t, y, 0.0) == pytest.approx(t**y * math.log(t), rel=1e-12)


def test_differentiate_log_derivative_errors_only_at_evaluation():
    dlog = ex.differentiate(ex.parse("log(y)"), "y")  # fine symbolically
    assert ex.evaluate(dlog, 0.0, 2.0, 0.0) == pytest.approx(0.5)
    with pytest.raises(EvaluationError):
        ex.evaluate(dlog, 0.0, 0.0, 0.0)


def _central_fd(tree, var, t, y, v):
    point = {"t": t, "y": y, "v": v}
    h = 1e-6 * max(1.0, abs(point[var]))
    hi = dict(point)
    lo = dict(point)
    hi[var] += h
    lo[var] -= h
    return (ex.evaluate(tree, **hi) - ex.evaluate(tree, **lo)) / (2 * h)


def test_symbolic_partials_match_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 150:
        tree = random_expression(rng)
        point = well_behaved_sample(rng, tree)
        if point is None:
            continue
        t, y, v = point
        for var in ("y", "v"):
            sym = ex.evaluate(ex.differentiate(tree, var), t, y, v)
            fd = _central_fd(tree, var, t, y, v)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))
        checked += 1
