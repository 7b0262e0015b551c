"""The direction-driven formulation that unifies the two calculi.

A nonzero direction u turns one problem statement into either a forward
(delta) or a backward (nabla) problem: the measure d_u t, the shifted
composition u*(y o sigma) or u*(y o rho), and the directional derivative
u*y^Delta or u*y^nabla all dispatch on the sign of u.  With u = +1 and
u = -1 the solver lands exactly on the pure delta and pure nabla answers
of the weighted problem from demo 03.

Run:  python demos/04_directional_problem.py
"""

from deltanabla import (
    DirectionalProblem,
    GridFunction,
    Lagrangian,
    TimeScale,
    d_u_integral,
    directional_el_residual,
    objective,
    shifted_composition,
    solve_directional,
)

ts = TimeScale([1.0, 3.0, 4.0])
L = Lagrangian.from_expression("t*v^2")

# The unified integral scales the delta integral for u >= 0 and the nabla
# integral for u <= 0.
one = GridFunction.constant(TimeScale([0.0, 1.0, 2.0]), 1.0)
for u in (1.0, 0.5, 0.0, -0.5, -2.0):
    print(f"  d_u integral of 1 over [0,2] with u={u:+.1f}: {d_u_integral(one, u):+g}")
print()

# The shifted composition picks the forward or backward neighbour.
y = GridFunction(ts, [10.0, 20.0, 30.0])
print("y o xi_u for u=+1:", shifted_composition(y, 1.0).values)
print("y o xi_u for u=-1:", shifted_composition(y, -1.0).values)
print()

# Unit directions reproduce the two classical problems.
for u, label in [(1.0, "forward (delta) problem"), (-1.0, "backward (nabla) problem")]:
    p = DirectionalProblem(ts, u, L, alpha=0.0, beta=1.0)
    sol = solve_directional(p)
    print(f"u={u:+g} -> {label}: y(3) = {sol.y.values[1]:.12f}, "
          f"directional residual {sol.residual_directional:.2e}")
print("compare 6/7 =", 6 / 7, "and 8/11 =", 8 / 11)
print()

# A scaled direction rescales the integrand but not the stationary
# trajectory: with L = v^2 every direction leaves the straight line optimal.
line_ts = TimeScale([0.0, 1.0, 3.0])
Lv = Lagrangian.from_expression("v^2")
for u in (2.0, -3.0):
    p = DirectionalProblem(line_ts, u, Lv, alpha=0.0, beta=1.0)
    sol = solve_directional(p)
    print(f"u={u:+g}, L=v^2: interior value {sol.y.values[1]:.12f} (straight line gives 1/3)")
print()

# The directional Euler-Lagrange residual measures the defect of
# D(d3 L)(u) = u * d2 L pointwise; it vanishes at the solution.
p = DirectionalProblem(ts, 1.0, L, 0.0, 1.0)
sol = solve_directional(p)
resid = directional_el_residual(p, sol.y)
print("directional residual grid:", dict(zip(resid.scale.points, resid.values)))
print("objective at the solution:", objective(p, sol.y))
