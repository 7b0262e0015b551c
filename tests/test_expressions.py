"""Parsing, printing, evaluation, and symbolic differentiation."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from deltanabla import EvaluationError, ExpressionSyntaxError
from deltanabla import expressions as ex
from deltanabla.variational import Lagrangian
from conftest import nested_array_function, random_expression, reference_source, well_behaved_sample


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
    for src, offset in (("y )", 2), (")", 0)):
        with pytest.raises(ExpressionSyntaxError, match=r"^unexpected token '\)' \(offset \d\)$") as err:
            ex.parse(src)
        assert err.value.offset == offset


def test_parse_ignores_trailing_space():
    assert ex.parse("y ") == ex.Var("y")


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


def test_binary_nodes_compare_hash_and_print_by_their_own_class():
    a, b = ex.Var("t"), ex.Num(1.0)
    nodes = [ex.Add(a, b), ex.Sub(a, b), ex.Mul(a, b), ex.Div(a, b)]
    assert len(set(nodes)) == 4
    assert nodes[0] == ex.Add(ex.Var("t"), ex.Num(1.0)) and nodes[0] != nodes[1]
    assert all(hash(n) == hash((a, b)) for n in nodes)
    assert repr(nodes[3]) == "Div(left=Var(name='t'), right=Num(value=1.0))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        nodes[2].left = b


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
        out = ex.compile_kernel((tree,))(*grid)[0]
        scalar = ex.compile_expr(tree)
        expected = [[[scalar(t, y, v) for v in axes[2]] for y in axes[1]] for t in axes[0]]
        assert out.shape == (2, 2, 2)
        assert np.allclose(out, expected, rtol=1e-13, atol=1e-13), ex.to_source(tree)
        checked += 1
    constant = ex.compile_kernel((ex.parse("2"),))(np.zeros(3), 0.0, np.zeros((2, 1)))[0]
    assert constant.shape == (2, 3) and np.all(constant == 2.0)


def test_compiled_source_is_the_fully_parenthesized_reference_as_python_syntax(monkeypatch):
    # compile_expr parenthesizes only where precedence or associativity
    # needs it: its source parses to the AST of the reference that puts
    # every compound node in its own parentheses, so it compiles to the
    # same code and computes the same bits
    sources = []
    monkeypatch.setattr(ex, "eval", lambda src, namespace: sources.append(src), raising=False)
    rng = np.random.default_rng(12)
    trees = [random_expression(rng) for _ in range(400)]
    trees += [ex.parse(src) for src in CORPUS + ["t - (y - v)", "t/(y*v)", "(t^2)^3", "-(-t)", "(-t)^2", "-2*-y"]]
    trees += [ex.Neg(ex.Num(-2.0)), ex.Sub(ex.Var("t"), ex.Num(-2.0)), ex.Pow(ex.Num(-2.0), ex.Var("v"))]
    for tree in trees:
        for e in (tree, ex.differentiate(tree, "y"), ex.differentiate(tree, "v")):
            ex.compile_expr(e)
            reference = ast.parse(f"lambda t, y, v: {reference_source(e)}")
            assert ast.dump(ast.parse(sources.pop())) == ast.dump(reference), ex.to_source(e)


# each family at the largest size that loaded when every compound node was
# compiled in its own parentheses, and a sum of 300 terms
DEEP = {
    "sum": " + ".join(["v^2"] * 300),
    "product": "*".join(["v"] * 101),
    "negations": "-" * 198 + "v^2",
    "parentheses": "(" * 197 + "v" + ")" * 197,
    "power chain": "^".join(["v"] * 67),
    "nested calls": "sin(" * 99 + "v" + ")" * 99,
}


def test_long_and_deeply_nested_expressions_load():
    # in a fresh interpreter, with the stack of a top-level call: the
    # parentheses case loads only while the parser spends at most five
    # frames per level of nesting
    script = "import sys\nfrom deltanabla.variational import Lagrangian\n" \
             "for src in sys.stdin.read().splitlines(): Lagrangian.from_expression(src)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(ex.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], input="\n".join(DEEP.values()), env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_lagrangian_that_loads_names_its_fault_from_a_deeper_stack():
    # naming a fault walks the tree with fewer frames per level than
    # differentiating it did, so the longest sum that loads still names
    # its fault when evaluated further down the stack, as solve does
    def load(n):
        try:
            return Lagrangian.from_expression("log(y) + " + " + ".join(["v^2"] * n))
        except RecursionError:
            return None

    loads, fails = 1, 1000
    while fails - loads > 1:
        mid = (loads + fails) // 2
        loads, fails = (mid, fails) if load(mid) else (loads, mid)
    lagrangian = load(loads)

    def deeper(k):
        return deeper(k - 1) if k else lagrangian(0.0, -1.0, 1.0)

    with pytest.raises(EvaluationError, match=r"^log of non-positive value -1\.0 in 'log\(y\)'$"):
        deeper(30)


def test_kernel_matches_one_tree_functions_bit_for_bit():
    # one fused kernel per key set of a Lagrangian, against one-tree kernels and
    # the nested one-expression source of each tree, key by key; random
    # expressions and constant trees, on gradient-like arrays of one shape
    # and on certify's broadcast shapes (k, 1, 1) x (21, 1) x (1, 21)
    rng = np.random.default_rng(6)
    trees = [random_expression(rng) for _ in range(60)]
    trees += [ex.parse(src) for src in ("2", "-pi", "2*3 - 1/4", "2^0.5")]
    shapes = [((7,), (7,), (7,)), ((3, 1, 1), (21, 1), (1, 21))]
    key_sets = []
    for tree in trees:
        d2, d3 = ex.differentiate(tree, "y"), ex.differentiate(tree, "v")
        yy, yv, vv = ex.differentiate(d2, "y"), ex.differentiate(d2, "v"), ex.differentiate(d3, "v")
        key_sets += [(tree,), (d2, d3), (yy, yv, vv)]
    # equal as trees (0.0 == -0.0), yet not one subtree: v*-0.0 is -0.0
    key_sets.append((ex.Mul(ex.Var("v"), ex.Num(0.0)), ex.Mul(ex.Var("v"), ex.Num(-0.0))))
    for key_set in key_sets:
        kernel = ex.compile_kernel(key_set)
        for shape in shapes:
            t, y, v = (rng.uniform(0.5, 2.5, s) for s in shape)
            with np.errstate(all="ignore"):
                fused = kernel(t, y, v)
                alone = [ex.compile_kernel((e,))(t, y, v)[0] for e in key_set]
                nested = [nested_array_function(e)(t, y, v) for e in key_set]
            assert len(fused) == len(key_set)
            for got, one, ref, e in zip(fused, alone, nested, key_set):
                assert got.shape == one.shape == ref.shape == np.broadcast_shapes(*shape)
                assert got.tobytes() == one.tobytes() == ref.tobytes(), ex.to_source(e)


def test_kernel_raises_the_first_fault_of_tree_by_tree_evaluation():
    # the shared 1/y is evaluated once; the first tree's fault comes first
    a, b = ex.parse("log(y - 2) + 1/y"), ex.parse("1/y + exp(v)")
    y = np.array([1.0, 0.0])
    for trees, match in (((a, b), "invalid value"), ((b, a), "divide by zero")):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError, match=match):
            ex.compile_kernel(trees)(np.ones(2), y, np.ones(2))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_differentiate_examples():
    tree = ex.parse("t*v^2")
    d3 = ex.differentiate(tree, "v")
    for t, v in [(1.0, 0.5), (3.0, 2.0), (4.0, -1.0)]:
        assert ex.evaluate(d3, t, 0.0, v) == pytest.approx(2 * t * v, abs=1e-13)
    assert ex.differentiate(tree, "y") == ex.Num(0.0)
    with pytest.raises(ValueError, match=r"^var must be one of \('t', 'y', 'v'\), got 'x'$"):
        ex.differentiate(tree, "x")
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


def _nodes(e):
    yield e
    for child in vars(e).values():
        if not isinstance(child, (str, float)):  # a subtree, not a name or a value
            yield from _nodes(child)


def test_differentiate_folds_constant_powers():
    # the quotient rule squares the constant denominator: 2.0^2.0 is 4.0
    for var in ("y", "v"):
        d = ex.differentiate(ex.parse("exp(y)*v^2/2"), var)
        assert not any(isinstance(n, ex.Pow) and isinstance(n.base, ex.Num) and isinstance(n.exponent, ex.Num)
                       for n in _nodes(d))
    assert ex.to_source(ex.differentiate(ex.parse("v^2/2"), "v")) == "2.0*v*2.0/4.0"


def test_constant_powers_that_fault_stay_nodes_and_fault_when_evaluated():
    # a square that overflows keeps its node, and evaluation names it
    d = ex.differentiate(ex.parse("v/1e200"), "v")
    assert ex.Pow(ex.Num(1e200), ex.Num(2.0)) in set(_nodes(d))
    with pytest.raises(EvaluationError, match=r"^overflow in '1e\+200\^2\.0'$"):
        ex.evaluate(d, 0.0, 0.0, 0.0)
    # a negative base with a fractional exponent raises in math.pow
    invalid = ex._pow_node(ex.Num(-8.0), ex.Num(0.5))
    assert invalid == ex.Pow(ex.Num(-8.0), ex.Num(0.5))
    with pytest.raises(EvaluationError, match=r"^invalid power -8\.0 \^ 0\.5 in "):
        ex.evaluate(invalid, 0.0, 0.0, 0.0)
    assert ex._pow_node(ex.Num(10.0), ex.Num(400.0)) == ex.Pow(ex.Num(10.0), ex.Num(400.0))
    assert ex._pow_node(ex.Num(3.0), ex.Num(2.0)) == ex.Num(9.0)


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
