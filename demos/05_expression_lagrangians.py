"""The expression language behind text-based Lagrangians.

Integrands are written over the variables t, y, v with +, -, *, /, ^,
unary minus, sin, cos, exp, log, and the constants pi and e.  Parsed
expressions are immutable trees with exact symbolic partial derivatives,
which is what makes the Euler-Lagrange residuals analytic.

Run:  python demos/05_expression_lagrangians.py
"""

from deltanabla import ExpressionSyntaxError, Lagrangian
from deltanabla import expressions as ex

# Parsing follows the usual precedence: ^ binds tightest (right
# associative), then unary minus, then * /, then + -.
for src in ["t*v^2", "y*v - sin(t)", "-t^2", "2^3^2"]:
    tree = ex.parse(src)
    print(f"  {src!r:18} -> {tree}")
print()

# Syntax errors carry the byte offset of the fault.
for bad in ["t*(", "t + q", "sin t"]:
    try:
        ex.parse(bad)
    except ExpressionSyntaxError as err:
        print(f"  {bad!r:10} rejected: {err}")
print()

# Symbolic partial derivatives, locally simplified.
tree = ex.parse("t*v^2")
print("d/dv t*v^2 =", ex.to_source(ex.differentiate(tree, "v")))
print("d/dy t*v^2 =", ex.to_source(ex.differentiate(tree, "y")))
print("d/dt sin(t)*y =", ex.to_source(ex.differentiate(ex.parse("sin(t)*y"), "t")))
print()

# Printing round-trips: the printed source parses back to the same tree.
printed = ex.to_source(tree)
print(f"round trip: {printed!r} parses back equal:", ex.parse(printed) == tree)
print()

# Evaluation guards its domain and names the offending subexpression.
try:
    ex.evaluate(ex.parse("1/(t-1)"), t=1.0, y=0.0, v=0.0)
except Exception as err:
    print("domain guard:", err)
print()

# A Lagrangian built from an expression carries analytic partials; one
# built from a bare callable falls back to central finite differences.
analytic = Lagrangian.from_expression("exp(y)*v^2")
numeric = Lagrangian(lambda t, y, v: 2.718281828459045**y * v * v)
point = (0.0, 0.5, 1.5)
print(f"analytic d2 at {point}: {analytic.d2(*point):.12f}  (source: {analytic.source})")
print(f"numeric  d2 at {point}: {numeric.d2(*point):.12f}  (source: {numeric.source})")
