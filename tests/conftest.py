"""Shared generators for randomized tests, and the hypothesis profile."""

import numpy as np

from deltanabla import expressions as ex

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, no timing flakes on a slow machine,
    # and no example database written into the checkout
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


def random_expression(rng: np.random.Generator, depth: int = 0) -> "ex.Expr":
    """A random expression over t, y, v from the supported grammar.

    Exponents are kept to small integer constants so that random sample
    points stay far from domain boundaries.
    """
    if depth >= 3 or rng.uniform() < 0.3:
        roll = rng.uniform()
        if roll < 0.55:
            return ex.Var(str(rng.choice(["t", "y", "v"])))
        # nonnegative literal: the parser spells negative constants as Neg(Num)
        return ex.Num(round(float(rng.uniform(0.0, 3.0)), 3))
    roll = rng.uniform()
    if roll < 0.22:
        return ex.Add(random_expression(rng, depth + 1), random_expression(rng, depth + 1))
    if roll < 0.44:
        return ex.Sub(random_expression(rng, depth + 1), random_expression(rng, depth + 1))
    if roll < 0.70:
        return ex.Mul(random_expression(rng, depth + 1), random_expression(rng, depth + 1))
    if roll < 0.78:
        return ex.Div(random_expression(rng, depth + 1), random_expression(rng, depth + 1))
    if roll < 0.86:
        return ex.Pow(random_expression(rng, depth + 1), ex.Num(float(rng.integers(0, 4))))
    if roll < 0.90:
        return ex.Neg(random_expression(rng, depth + 1))
    fn = str(rng.choice(["sin", "cos", "exp", "log"]))
    return ex.Call(fn, random_expression(rng, depth + 1))


def well_behaved_sample(rng: np.random.Generator, tree, bound: float = 1e3):
    """Draw a point where the expression and its y/v partials evaluate to
    moderate finite values; returns None when the draw lands near a
    singularity."""
    t = float(rng.uniform(0.5, 2.5))
    y = float(rng.uniform(0.5, 2.5))
    v = float(rng.uniform(0.5, 2.5))
    try:
        val = ex.evaluate(tree, t, y, v)
        d2 = ex.evaluate(ex.differentiate(tree, "y"), t, y, v)
        d3 = ex.evaluate(ex.differentiate(tree, "v"), t, y, v)
    except Exception:
        return None
    if max(abs(val), abs(d2), abs(d3)) > bound:
        return None
    return t, y, v


def reference_source(tree) -> str:
    """Python source of a tree with every compound node in its own
    parentheses and a power as ``_pow(base, exponent)``: the reference
    spelling of a compiled tree, written apart from the package's printer."""
    if isinstance(tree, ex.Num):
        return repr(tree.value)
    if isinstance(tree, ex.Var):
        return tree.name
    if isinstance(tree, ex.Neg):
        return f"(-{reference_source(tree.arg)})"
    if isinstance(tree, ex.Pow):
        return f"(_pow({reference_source(tree.base)}, {reference_source(tree.exponent)}))"
    if isinstance(tree, ex.Call):
        return f"({tree.fn}({reference_source(tree.arg)}))"
    spelling = {ex.Add: " + ", ex.Sub: " - ", ex.Mul: "*", ex.Div: "/"}[type(tree)]
    return f"({reference_source(tree.left)}{spelling}{reference_source(tree.right)})"


def nested_array_function(tree):
    """A tree compiled for arrays as one nested Python expression, with no
    subtree shared: the reference a fused kernel must match bit for bit."""
    return eval(f"lambda t, y, v: _broadcast({reference_source(tree)}, t, y, v)", ex._ARRAY_NAMESPACE)
