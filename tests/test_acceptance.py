"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
fixed here and are not to be loosened.
"""

import itertools
import time

import numpy as np
import pytest

from deltanabla import (
    Certificate,
    DeltaNablaProblem,
    DirectionalProblem,
    GridFunction,
    Lagrangian,
    TimeScale,
    delta_derivative,
    directional_derivative,
    dubois_reymond_probe,
    el_residual_1,
    el_residual_2,
    epigraph_contains,
    extend,
    identity_suite,
    is_convex,
    local_min_probe,
    nabla_derivative,
    objective,
    random_grid_function,
    random_scale,
    solve,
    solve_directional,
    variation_constraint_matrix,
)
from deltanabla import expressions as ex
from deltanabla.identities import FAMILIES
from conftest import random_expression, well_behaved_sample

T134 = TimeScale([1.0, 3.0, 4.0])
L_TV2 = "t*v^2"

GAMMA_PAIRS = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 3.0), (5.0, 1.0)]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _example_problem(g1: float, g2: float) -> DeltaNablaProblem:
    L = Lagrangian.from_expression(L_TV2)
    return DeltaNablaProblem(T134, g1, g2, L, L, 0.0, 1.0)


def test_criterion_01_example_reproduction():
    start = time.perf_counter()
    worst = 0.0
    for g1, g2 in GAMMA_PAIRS:
        sol = solve(_example_problem(g1, g2))
        expected = (6 * g1 + 8 * g2) / (7 * g1 + 11 * g2)
        assert sol.converged
        worst = max(worst, abs(float(sol.y.values[1]) - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, ok, f"max |y(3) - closed form| = {worst:.2e}, runtime {elapsed:.3f}s")


def test_criterion_02_el_equivalence():
    worst = 0.0
    for g1, g2 in GAMMA_PAIRS:
        p = _example_problem(g1, g2)
        sol = solve(p)
        r1 = float(np.max(np.abs(el_residual_1(p, sol.y).values)))
        r2 = float(np.max(np.abs(el_residual_2(p, sol.y).values)))
        worst = max(worst, r1, r2)
    _report(2, worst <= 1e-9, f"max mean-subtracted residual (both forms) = {worst:.2e}")


def test_criterion_03_identity_suite():
    start = time.perf_counter()
    worst_by_name = identity_suite(trials=200, seed=2024)
    elapsed = time.perf_counter() - start
    required = (
        FAMILIES["integration_by_parts"]
        + FAMILIES["derivative_conversion"]
        + FAMILIES["integral_conversion"]
        + FAMILIES["endpoint_splitting"]
    )
    worst = max(worst_by_name[name] for name in required)
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(3, ok, f"12 identities, 200 scales: max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_dubois_reymond():
    rng = np.random.default_rng(404)
    ok = True
    detail = ""
    for trial in range(100):
        ts = random_scale(rng, min_points=3, max_points=40)
        kind = "delta" if trial % 2 == 0 else "nabla"
        # (a) constants pass every basis-variation integral
        rep = dubois_reymond_probe(GridFunction.constant(ts, float(rng.uniform(-5, 5))), kind)
        if not (rep.all_vanish and rep.constant):
            ok, detail = False, f"constant rejected on {ts!r} ({kind})"
            break
        # (b) the constraint matrix annihilates exactly the constants
        M = variation_constraint_matrix(ts, kind)
        n_domain = M.shape[1]
        rank = int(np.linalg.matrix_rank(M))
        ones_residual = float(np.max(np.abs(M @ np.ones(n_domain))))
        if rank != n_domain - 1 or ones_residual > 1e-12:
            ok, detail = False, f"rank {rank} of {n_domain - 1}, |M 1| = {ones_residual:.1e}"
            break
    if ok:
        detail = "100 scales: constants pass, null space = constants (rank checked)"
    _report(4, ok, detail)


def test_criterion_05_sufficiency_certificate():
    certs = []
    probes = []
    for g1, g2 in GAMMA_PAIRS:
        p = _example_problem(g1, g2)
        sol = solve(p)
        certs.append(sol.certificate is Certificate.GLOBAL_MIN)
        probes.append(local_min_probe(p, sol, n_trials=1000, seed=5))
    ok = all(certs) and all(probes)
    _report(5, ok, f"global-min certificates {sum(certs)}/5, probes {sum(probes)}/5 (1000 trials)")


def test_criterion_06_directional_reductions():
    L = Lagrangian.from_expression(L_TV2)
    worst_val = 0.0
    worst_res = 0.0
    for u, expected in [(1.0, 6 / 7), (-1.0, 8 / 11)]:
        sol = solve_directional(DirectionalProblem(T134, u, L, 0.0, 1.0))
        assert sol.converged
        worst_val = max(worst_val, abs(float(sol.y.values[1]) - expected))
        worst_res = max(worst_res, sol.residual_directional)
    ok = worst_val <= 1e-9 and worst_res <= 1e-9
    _report(6, ok, f"u=+1/-1: |y(3) - expected| = {worst_val:.2e}, residual = {worst_res:.2e}")


def test_criterion_07_directional_derivative_bridge():
    rng = np.random.default_rng(707)
    worst_quotient = 0.0
    worst_unit = 0.0
    checked = 0
    while checked < 500:
        ts = random_scale(rng, min_points=3, max_points=20, min_gap=0.01, max_gap=2.0)
        f = random_grid_function(rng, ts, lo=-5.0, hi=5.0)
        t = float(rng.choice(ts.interior_points))
        u = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        closed = directional_derivative(f, t, u)
        quotient = directional_derivative(f, t, u, method="quotient")
        worst_quotient = max(
            worst_quotient, abs(closed - quotient) / max(1.0, abs(closed))
        )
        fd = delta_derivative(f).value_at(t)
        fn = nabla_derivative(f).value_at(t)
        worst_unit = max(
            worst_unit,
            abs(directional_derivative(f, t, 1.0) - fd) / max(1.0, abs(fd)),
            abs(directional_derivative(f, t, -1.0) + fn) / max(1.0, abs(fn)),
        )
        checked += 1
    ok = worst_quotient <= 1e-10 and worst_unit <= 1e-14
    _report(
        7,
        ok,
        f"500 draws: closed vs in-gap quotient {worst_quotient:.2e}, unit identities {worst_unit:.2e}",
    )


# -- criterion 8 helpers ------------------------------------------------------


def _random_convex_coeffs(rng):
    a = float(rng.uniform(0.3, 1.5))
    b = float(rng.uniform(0.3, 1.5))
    c = float(rng.uniform(-1.0, 1.0)) * np.sqrt(0.8 * 4 * a * b)
    d = float(rng.uniform(-1.0, 1.0))
    e = float(rng.uniform(-1.0, 1.0))
    f = float(rng.uniform(0.0, 0.5))
    g = float(rng.uniform(-1.0, 1.0))
    return a, b, float(c), d, e, f, g


def _coeff_expression(coeffs) -> str:
    a, b, c, d, e, f, g = coeffs
    return f"{a}*v^2 + {b}*y^2 + {c}*y*v + {d}*y + {e}*v + {f}*exp({g}*y)"


def _batched_objective(ts, terms, alpha, beta, interior_batch):
    """Independent vectorized objective from the raw coefficient tuples.

    interior_batch has shape (B, n_interior); returns shape (B,).
    """
    B = interior_batch.shape[0]
    Y = np.empty((B, len(ts)))
    Y[:, 0] = alpha
    Y[:, -1] = beta
    Y[:, 1:-1] = interior_batch
    gaps = ts.gaps()
    pts = ts.points
    total = np.zeros(B)

    def L_vec(coeffs, t, yv, vv):
        a, b, c, d, e, f, g = coeffs
        return (
            a * vv**2 + b * yv**2 + c * yv * vv + d * yv + e * vv + f * np.exp(g * yv)
        )

    for weight, coeffs, kind in terms:
        if kind == "delta":
            for i in range(len(pts) - 1):
                vv = (Y[:, i + 1] - Y[:, i]) / gaps[i]
                total += weight * gaps[i] * L_vec(coeffs, pts[i], Y[:, i + 1], vv)
        else:
            for i in range(1, len(pts)):
                vv = (Y[:, i] - Y[:, i - 1]) / gaps[i - 1]
                total += weight * gaps[i - 1] * L_vec(coeffs, pts[i], Y[:, i - 1], vv)
    return total


def _grid_search(ts, terms, alpha, beta, n_interior, half=6.0, n=11, target=1e-8):
    """Multiresolution exhaustive grid search.

    Each level evaluates the full n^d grid over the current box and
    recenters on the best point with the box shrunk to +-2 cells.  The cell
    size passes through 1e-4 and continues down to ``target``; for a convex
    objective this visits the same minimizer a single flat scan would.
    """
    frac = (ts.points - ts.a) / (ts.b - ts.a)
    center = (alpha + (beta - alpha) * frac)[1:-1].copy()
    cell = 2 * half / (n - 1)
    best_val = np.inf
    best_x = center
    while True:
        axes = [np.linspace(c - half, c + half, n) for c in center]
        grid = np.array(list(itertools.product(*axes)))
        vals = _batched_objective(ts, terms, alpha, beta, grid)
        k = int(np.argmin(vals))
        best_val = float(vals[k])
        best_x = grid[k]
        if cell <= target:
            return best_x, best_val
        center = best_x
        half = 2 * cell
        cell = 2 * half / (n - 1)


def test_criterion_08_brute_force_oracle():
    rng = np.random.default_rng(808)
    worst = 0.0
    for trial in range(20):
        n_interior = int(rng.integers(1, 5))
        pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.5, n_interior + 1))])
        ts = TimeScale(pts)
        alpha, beta = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        cd, cn = _random_convex_coeffs(rng), _random_convex_coeffs(rng)
        g1, g2 = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))
        p = DeltaNablaProblem(
            ts,
            g1,
            g2,
            Lagrangian.from_expression(_coeff_expression(cd)),
            Lagrangian.from_expression(_coeff_expression(cn)),
            alpha,
            beta,
        )
        sol = solve(p)
        assert sol.converged, f"trial {trial} did not converge"
        terms = [(g1, cd, "delta"), (g2, cn, "nabla")]
        _, oracle_val = _grid_search(ts, terms, alpha, beta, n_interior)
        newton_val = float(
            _batched_objective(ts, terms, alpha, beta, sol.y.values[None, 1:-1])[0]
        )
        # same-formula comparison, plus library objective agreement
        assert abs(newton_val - sol.objective) <= 1e-9 * max(1.0, abs(newton_val))
        worst = max(worst, abs(newton_val - oracle_val))
    _report(8, worst <= 1e-7, f"20 convex problems: max objective gap {worst:.2e}")


def test_criterion_09_expression_partials():
    rng = np.random.default_rng(909)
    worst = 0.0
    checked = 0
    while checked < 500:
        tree = random_expression(rng)
        point = well_behaved_sample(rng, tree)
        if point is None:
            continue
        t, y, v = point
        for var in ("y", "v"):
            sym = ex.evaluate(ex.differentiate(tree, var), t, y, v)
            h = 1e-6 * max(1.0, abs({"y": y, "v": v}[var]))
            if var == "y":
                fd = (ex.evaluate(tree, t, y + h, v) - ex.evaluate(tree, t, y - h, v)) / (2 * h)
            else:
                fd = (ex.evaluate(tree, t, y, v + h) - ex.evaluate(tree, t, y, v - h)) / (2 * h)
            worst = max(worst, abs(sym - fd) / max(1.0, abs(sym)))
        checked += 1
    _report(9, worst <= 1e-6, f"500 expression/point pairs: max rel deviation {worst:.2e}")


# -- criterion 10 helpers -----------------------------------------------------


def _midpoint_convex(f, rng):
    ts = f.scale
    fbar = extend(f)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    pts = list(ts.points)
    probes = [(pts[i - 1], pts[i], pts[i + 1]) for i in range(1, len(pts) - 1)]
    for _ in range(40):
        x, z = np.sort(rng.uniform(ts.a, ts.b, 2))
        lam = rng.uniform(0, 1)
        probes.append((float(x), float(lam * x + (1 - lam) * z), float(z)))
    for x, m, z in probes:
        if x == z or not (x <= m <= z):
            continue
        lam = (z - m) / (z - x)
        chord = lam * fbar(float(x)) + (1 - lam) * fbar(float(z))
        if chord < fbar(float(m)) - 1e-12 * scale:
            return False
    return True


def _graph_set_convex(f, rng):
    # segments between graph points must stay inside the convexified set
    ts = f.scale
    fbar = extend(f)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    pts = list(ts.points)
    pairs = [(pts[i - 1], pts[i + 1], pts[i]) for i in range(1, len(pts) - 1)]
    for _ in range(40):
        x, z = np.sort(rng.uniform(ts.a, ts.b, 2))
        lam = rng.uniform(0, 1)
        pairs.append((float(x), float(z), float(lam * x + (1 - lam) * z)))
    for x, z, m in pairs:
        if x == z or not (x <= m <= z):
            continue
        lam = (z - m) / (z - x)
        chord = lam * fbar(float(x)) + (1 - lam) * fbar(float(z))
        if not epigraph_contains(f, (m, chord + 1e-12 * scale)):
            return False
    return True


def test_criterion_10_convexity_equivalence():
    rng = np.random.default_rng(1010)
    agreements = 0
    for k in range(200):
        ts = random_scale(rng, min_points=3, max_points=12, min_gap=0.1, max_gap=3.0)
        if k % 2 == 0:
            f = random_grid_function(rng, ts)
        else:
            slopes = np.cumsum(rng.uniform(0.1, 1.0, len(ts) - 1))
            vals = np.concatenate([[rng.uniform(-1, 1)], np.cumsum(slopes * ts.gaps())])
            f = GridFunction(ts, vals)
        a = is_convex(f)
        b = _midpoint_convex(f, rng)
        c = _graph_set_convex(f, rng)
        assert a == b == c, f"disagreement on sample {k}: {a} {b} {c}"
        agreements += 1
    _report(10, agreements == 200, f"{agreements}/200 samples: three convexity routes agree")
