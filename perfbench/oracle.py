"""Independent checks of the program's outputs.

The oracle evaluates the two-point stencil sum over gap * L(t_e, y_s, dy/gap)
in numpy from the hand-written partials of ``problems.BLOCKS``; it shares no
code with the program.  For a delta term (e, s) = (i, i+1), for a nabla term
(e, s) = (i+1, i).
"""

from __future__ import annotations

import numpy as np

from problems import Instance

OBJECTIVE_RTOL = 1e-9
# a stationary point within the solve tolerance tol has |gradient| <= 2 tol,
# since each gradient entry is a difference of two Euler-Lagrange values
GRADIENT_FACTOR = 4.0
DR_ATOL = 1e-12


def _stencil(t: np.ndarray, y: np.ndarray, kind: str):
    gaps = np.diff(t)
    v = np.diff(y) / gaps
    if kind == "delta":
        return gaps, t[:-1], y[1:], v
    return gaps, t[1:], y[:-1], v


def objective(inst: Instance, y: np.ndarray) -> float:
    t = inst.points
    total = 0.0
    for weight, lag, kind in inst.terms:
        gaps, te, ys, v = _stencil(t, y, kind)
        total += weight * float(np.sum(gaps * lag.value(te, ys, v)))
    return total


def gradient(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Gradient of the objective with respect to the interior values."""
    t = inst.points
    g = np.zeros(len(t))
    for weight, lag, kind in inst.terms:
        gaps, te, ys, v = _stencil(t, y, kind)
        ly = weight * gaps * lag.dy(te, ys, v)
        lv = weight * lag.dv(te, ys, v)
        if kind == "delta":
            g[1:] += ly
        else:
            g[:-1] += ly
        g[1:] += lv
        g[:-1] -= lv
    return g[1:-1]


def stationary(inst: Instance, tol: float = 1e-12, max_iter: int = 50) -> np.ndarray:
    """A stationary trajectory found by Newton on the oracle gradient with a
    central-difference Jacobian; used to prepare inputs for ``check``."""
    t = inst.points
    b = inst.data["boundary"]
    y = b["alpha"] + (b["beta"] - b["alpha"]) * (t - t[0]) / (t[-1] - t[0])
    for _ in range(max_iter):
        g = gradient(inst, y)
        if np.max(np.abs(g)) <= tol:
            return y
        n = g.size
        jac = np.empty((n, n))
        for j in range(n):
            h = 1e-6 * max(1.0, abs(y[j + 1]))
            yp, ym = y.copy(), y.copy()
            yp[j + 1] += h
            ym[j + 1] -= h
            jac[:, j] = (gradient(inst, yp) - gradient(inst, ym)) / (2 * h)
        y = y.copy()
        y[1:-1] -= np.linalg.solve(0.5 * (jac + jac.T), g)
    raise RuntimeError(f"{inst.name}: oracle Newton did not reach |g| <= {tol:g}")


def solve_faults(inst: Instance, rc: int, report: dict | None, tol: float = 1e-10) -> list[str]:
    """Reasons to reject one CLI solve; empty when it is verified."""
    if rc != 0:
        return [f"exit code {rc}"]
    if report is None:
        return ["no report"]
    faults = []
    if not report.get("converged"):
        faults.append("not converged")
    res = report["residuals"]
    if max(res["el1_max"], res["el2_max"]) > tol:
        faults.append(f"residuals {res['el1_max']:.2e}, {res['el2_max']:.2e} above tol")
    if not np.allclose(report["trajectory"]["t"], inst.points, rtol=0, atol=1e-12):
        faults.append("trajectory is not on the problem scale")
        return faults
    y = np.asarray(report["trajectory"]["y"], dtype=float)
    b = inst.data["boundary"]
    if y[0] != b["alpha"] or y[-1] != b["beta"]:
        faults.append("boundary values not kept")
    obj = objective(inst, y)
    if abs(obj - report["objective"]) > OBJECTIVE_RTOL * max(1.0, abs(obj)):
        faults.append(f"objective {report['objective']!r} != oracle {obj!r}")
    gmax = float(np.max(np.abs(gradient(inst, y))))
    if gmax > GRADIENT_FACTOR * tol:
        faults.append(f"oracle gradient {gmax:.2e} does not vanish")
    if report["certificate"] != inst.expected:
        faults.append(f"certificate {report['certificate']} != expected {inst.expected}")
    return faults


def constraint_matrix(n_points: int) -> np.ndarray:
    """Closed form of ``variation_constraint_matrix`` for either kind: the
    hat at interior point j pairs with domain values j-1 (+1) and j (-1),
    because the hat's difference quotient times the gap is +-1."""
    m = np.zeros((n_points - 2, n_points - 1))
    rows = np.arange(n_points - 2)
    m[rows, rows] = 1.0
    m[rows, rows + 1] = -1.0
    return m


def constraint_faults(matrix: np.ndarray, n_points: int) -> list[str]:
    """Reasons to reject a constraint matrix: it must equal the closed form
    and its null space must be exactly the constants."""
    expected = constraint_matrix(n_points)
    if matrix.shape != expected.shape:
        return [f"shape {matrix.shape} != {expected.shape}"]
    faults = []
    if np.max(np.abs(matrix - expected)) > DR_ATOL:
        faults.append("matrix differs from the closed-form bidiagonal rows")
    if np.linalg.matrix_rank(matrix) != n_points - 2:
        faults.append("null space is larger than the constants")
    if np.max(np.abs(matrix @ np.ones(n_points - 1))) > DR_ATOL:
        faults.append("constants are not in the null space")
    return faults
