"""Piecewise-linear extension, directional derivatives, epigraph, convexity."""

import math

import numpy as np
import pytest

from deltanabla import (
    DomainError,
    GridFunction,
    TimeScale,
    delta_derivative,
    directional_derivative,
    epigraph_contains,
    extend,
    is_convex,
    nabla_derivative,
    random_grid_function,
    random_scale,
    secant_slopes,
)

T134 = TimeScale([1.0, 3.0, 4.0])
TENT = GridFunction(T134, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------


def test_extension_midpoint():
    assert extend(TENT)(2.0) == 0.5


def test_extension_agrees_at_scale_points_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ts = random_scale(rng, min_points=2, max_points=20)
        f = random_grid_function(rng, ts, lo=-100, hi=100)
        fbar = extend(f)
        for t, v in zip(ts.points, f.values):
            assert fbar(float(t)) == v


def test_affine_function_is_its_own_extension():
    ts = TimeScale([0.0, 0.7, 2.0, 5.0])
    f = GridFunction.sample(ts, lambda t: 2 * t + 1)
    fbar = extend(f)
    for t in np.linspace(0.0, 5.0, 37):
        assert fbar(float(t)) == pytest.approx(2 * t + 1, abs=1e-13)


def test_extension_outside_domain_errors():
    fbar = extend(TENT)
    with pytest.raises(DomainError):
        fbar(0.999)
    with pytest.raises(DomainError):
        fbar(4.001)
    with pytest.raises(DomainError, match="^t must be finite, got nan$"):
        fbar(float("nan"))
    with pytest.raises(DomainError, match="^t must be finite, got nan$"):
        epigraph_contains(TENT, (float("nan"), 0.0))


def test_extension_range_error_names_plain_floats():
    # the bounds read the same under every numpy, never np.float64(...)
    fbar = extend(GridFunction(TimeScale([0, 1, 2, 3]), [0, 1, 4, 9]))
    with pytest.raises(DomainError, match=r"^t=5\.0 outside \[0\.0, 3\.0\]$"):
        fbar(5.0)


def test_extension_linearity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ts = random_scale(rng, min_points=2, max_points=15)
        f = random_grid_function(rng, ts)
        g = random_grid_function(rng, ts)
        a, b = rng.uniform(-3, 3, 2)
        combo = extend(a * f + b * g)
        fbar, gbar = extend(f), extend(g)
        for t in rng.uniform(ts.a, ts.b, 25):
            lhs = combo(float(t))
            rhs = a * fbar(float(t)) + b * gbar(float(t))
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs), abs(rhs))


def test_both_scattered_forms_agree_in_gaps():
    # right-scattered form through (s, f(s)) and left-scattered form through
    # (sigma(s), f(sigma(s))) describe the same affine segment
    rng = np.random.default_rng(2)
    for _ in range(20):
        ts = random_scale(rng, min_points=2, max_points=15)
        f = random_grid_function(rng, ts)
        pts, vals = ts.points, f.values
        for i in range(len(ts) - 1):
            s, nxt = pts[i], pts[i + 1]
            mu = nxt - s
            for t in rng.uniform(s, nxt, 5):
                right = vals[i] + (vals[i + 1] - vals[i]) / mu * (t - s)
                left = vals[i + 1] + (vals[i + 1] - vals[i]) / mu * (t - nxt)
                assert abs(right - left) <= 1e-13 * max(1.0, abs(right))
                assert extend(f)(float(t)) == pytest.approx(right, abs=1e-13)


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------


def test_unit_directions_reduce_to_delta_and_nabla():
    rng = np.random.default_rng(3)
    for _ in range(40):
        ts = random_scale(rng, min_points=3, max_points=20)
        f = random_grid_function(rng, ts)
        fd = delta_derivative(f)
        fn = nabla_derivative(f)
        for t in ts.interior_points:
            t = float(t)
            assert abs(directional_derivative(f, t, 1.0) - fd.value_at(t)) <= 1e-14 * max(
                1.0, abs(fd.value_at(t))
            )
            assert abs(directional_derivative(f, t, -1.0) + fn.value_at(t)) <= 1e-14 * max(
                1.0, abs(fn.value_at(t))
            )


def test_zero_direction_and_domain():
    assert directional_derivative(TENT, 3.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        directional_derivative(TENT, 1.0, 1.0)
    with pytest.raises(DomainError):
        directional_derivative(TENT, 4.0, -1.0)


def test_unknown_method_is_named():
    with pytest.raises(ValueError, match="^method must be 'closed' or 'quotient', got 'bogus'$"):
        directional_derivative(TENT, 3.0, 1.0, method="bogus")


def test_hand_value_scaled_direction():
    # tent on {1,3,4}: slope right of 3 is -1, so direction u=2 gives -2
    assert directional_derivative(TENT, 3.0, 2.0) == -2.0


def test_positive_homogeneity_per_sign():
    rng = np.random.default_rng(4)
    for _ in range(30):
        ts = random_scale(rng, min_points=3, max_points=15)
        f = random_grid_function(rng, ts)
        t = float(rng.choice(ts.interior_points))
        for u in (0.7, -0.7):
            base = directional_derivative(f, t, u)
            for lam in (0.5, 2.0, 3.25):
                scaled = directional_derivative(f, t, lam * u)
                assert abs(scaled - lam * base) <= 1e-12 * max(1.0, abs(scaled))


def test_quotient_mode_exact_within_gap_and_converges():
    rng = np.random.default_rng(5)
    for _ in range(30):
        ts = random_scale(rng, min_points=3, max_points=12, min_gap=0.05, max_gap=2.0)
        f = random_grid_function(rng, ts, lo=-2, hi=2)
        t = float(rng.choice(ts.interior_points))
        u = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        closed = directional_derivative(f, t, u)
        # default h keeps t + h*u inside the adjacent gap: quotient is exact
        quotient = directional_derivative(f, t, u, method="quotient")
        assert abs(closed - quotient) <= 1e-10 * max(1.0, abs(closed))
        # shrinking h keeps it exact; the error never grows
        gap = ts.mu(t) if u > 0 else ts.nu(t)
        errs = []
        for h in (gap / (2 * abs(u)), gap / (8 * abs(u)), gap / (64 * abs(u))):
            q = directional_derivative(f, t, u, method="quotient", h=h)
            errs.append(abs(closed - q))
        assert errs[-1] <= 1e-9 * max(1.0, abs(closed))


@pytest.mark.parametrize(
    "u, h",
    [(1.0, -0.1), (1.0, 0.0), (1.0, 2.5), (-1.0, 1.5), (0.5, 4.5), (1.0, math.nan), (1.0, math.inf)],
)
def test_quotient_step_must_keep_t_plus_hu_in_the_gap_on_us_side(u, h):
    # on {0, 1, 3, 6} the gap right of t = 1 is 2 and the gap left of it 1;
    # a step past the gap reads the next segment's slope, a negative step
    # the other side's, and h = 0 divides by zero
    f = GridFunction(TimeScale([0.0, 1.0, 3.0, 6.0]), [0.0, 1.0, 9.0, 36.0])
    with pytest.raises(DomainError, match="^h must be "):
        directional_derivative(f, 1.0, u, method="quotient", h=h)


@pytest.mark.parametrize("u, h", [(1.0, 2.0), (1.0, 1.5), (-1.0, 1.0), (0.5, 4.0), (-2.0, 0.5)])
def test_quotient_step_up_to_the_gap_on_us_side_is_exact(u, h):
    f = GridFunction(TimeScale([0.0, 1.0, 3.0, 6.0]), [0.0, 1.0, 9.0, 36.0])
    assert directional_derivative(f, 1.0, u, method="quotient", h=h) == directional_derivative(f, 1.0, u)


# ---------------------------------------------------------------------------
# epigraph
# ---------------------------------------------------------------------------


def test_epigraph_boundary_cases():
    fbar = extend(TENT)
    for t in (1.0, 1.7, 2.0, 3.0, 3.5, 4.0):
        assert epigraph_contains(TENT, (t, fbar(t)))
        assert not epigraph_contains(TENT, (t, fbar(t) - 1.0))
    with pytest.raises(DomainError):
        epigraph_contains(TENT, (0.0, 10.0))


def test_epigraph_matches_extension_for_random_points():
    rng = np.random.default_rng(6)
    ts = random_scale(rng, min_points=4, max_points=12)
    f = random_grid_function(rng, ts)
    fbar = extend(f)
    n_checked = 0
    for _ in range(1000):
        t = float(rng.uniform(ts.a, ts.b))
        offset = float(rng.uniform(-1.0, 1.0))
        if abs(offset) < 1e-9:
            continue
        lam = fbar(t) + offset
        assert epigraph_contains(f, (t, lam)) == (lam >= fbar(t))
        n_checked += 1
    assert n_checked > 900


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def test_convexity_simple_cases():
    sq = GridFunction.sample(TimeScale([0.0, 1.0, 2.0, 3.0]), lambda t: t * t)
    assert is_convex(sq)
    assert not is_convex(TENT)


def test_convexity_on_the_smallest_scales():
    # one point has no segment; two points have one, which is convex
    with pytest.raises(DomainError, match="at least two points"):
        is_convex(GridFunction(TimeScale([1.0]), [2.0]))
    assert is_convex(GridFunction(TimeScale([1.0, 3.0]), [2.0, -5.0]))


def _midpoint_convex(f, rng, n_random=60):
    # oracle: sample chords of the extension, including every breakpoint triple
    ts = f.scale
    fbar = extend(f)
    scale = max(1.0, float(np.max(np.abs(f.values))))
    pts = list(ts.points)
    triples = [(pts[i - 1], pts[i], pts[i + 1]) for i in range(1, len(pts) - 1)]
    for _ in range(n_random):
        x, z = sorted(rng.uniform(ts.a, ts.b, 2))
        lam = rng.uniform(0.0, 1.0)
        triples.append((x, lam * x + (1 - lam) * z, z))
    for x, m, z in triples:
        if not (x <= m <= z) or x == z:
            continue
        lam = (z - m) / (z - x)
        chord = lam * fbar(float(x)) + (1 - lam) * fbar(float(z))
        if chord < fbar(float(m)) - 1e-12 * scale:
            return False
    return True


def test_convexity_equivalent_to_midpoint_probe():
    rng = np.random.default_rng(7)
    for k in range(60):
        ts = random_scale(rng, min_points=3, max_points=10, min_gap=0.1, max_gap=3.0)
        if k % 2 == 0:
            f = random_grid_function(rng, ts)
        else:
            # genuinely convex data: integrate strictly increasing slopes
            slopes = np.cumsum(rng.uniform(0.1, 1.0, len(ts) - 1))
            vals = np.concatenate([[rng.uniform(-1, 1)], np.cumsum(slopes * ts.gaps())])
            f = GridFunction(ts, vals)
        assert is_convex(f) == _midpoint_convex(f, rng)


def test_secant_slopes():
    assert list(secant_slopes(TENT)) == [0.5, -1.0]
