"""Core finite-scale calculus: jump operators, derivatives, integrals,
conversion identities, and the Dubois-Reymond probe."""

import math
import operator

import numpy as np
import pytest

from deltanabla import (
    DeltaNablaProblem,
    DirectionalProblem,
    DomainError,
    DomainTag,
    GridFunction,
    Lagrangian,
    ScaleMismatchError,
    TimeScale,
    delta_derivative,
    delta_integral,
    directional_derivative,
    directional_el_residual,
    dubois_reymond_probe,
    el_residual_1,
    el_residual_2,
    epigraph_contains,
    extend,
    first_variation,
    gradient,
    is_convex,
    hat_variation,
    identity_suite,
    nabla_derivative,
    nabla_integral,
    norm_1_inf,
    objective,
    random_grid_function,
    random_scale,
    shift_rho,
    shift_sigma,
    solve,
    solve_directional,
    variation_constraint_matrix,
)

T134 = TimeScale([1.0, 3.0, 4.0])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_rejects_unsorted():
    with pytest.raises(DomainError):
        TimeScale([1.0, 3.0, 2.0])


def test_constructor_rejects_duplicates():
    with pytest.raises(DomainError):
        TimeScale([1.0, 1.0, 2.0])


def test_constructor_rejects_nonfinite():
    with pytest.raises(DomainError):
        TimeScale([0.0, np.inf])


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize(
    "points",
    [[0.0, np.nan, 1.0], [1.0, 3.0, 2.0], [1.0, 1.0, 2.0], [[0.0, 1.0], [2.0, 3.0]], []],
    ids=["nan", "decreasing", "duplicate", "2-d", "empty"],
)
def test_constructor_rejects_invalid_points(points, as_array):
    with pytest.raises(DomainError):
        TimeScale(np.array(points) if as_array else points)


def test_constructor_takes_generators_and_copies_arrays():
    assert TimeScale(t for t in (0.0, 0.5, 2.0)) == TimeScale([0.0, 0.5, 2.0])
    source = np.array([0.0, 0.5, 2.0])
    ts = TimeScale(source)
    source[1] = 1.0
    assert ts.points.tolist() == [0.0, 0.5, 2.0]
    assert ts.gaps().tolist() == [0.5, 1.5]


@pytest.mark.parametrize("points", [[2.0], [1.0, 2.5], [0.0, 0.3, 1.0], [-1.0, 0.1, 0.7, 5.0]])
def test_truncations_equal_freshly_built_scales(points):
    ts = TimeScale(points)
    for tag in DomainTag:
        for cut in (ts.truncated(tag), ts.truncated(DomainTag.KAPPA).truncated(tag)):
            fresh = TimeScale(cut.points.tolist())
            assert cut.points.tobytes() == fresh.points.tobytes()
            assert cut.gaps().tobytes() == fresh.gaps().tobytes()
            assert cut == fresh and hash(cut) == hash(fresh)


def test_points_and_gaps_are_read_only():
    ts = TimeScale([0.0, 0.3, 1.0, 1.5])
    for scale in (ts, ts.truncated(DomainTag.KAPPA_BOTH)):
        for array in (scale.points, scale.gaps()):
            with pytest.raises(ValueError):
                array[0] = 9.0
    assert ts.gaps() is ts.gaps()
    assert ts == ts


def test_single_point_scale_constructible_but_ops_rejected():
    ts = TimeScale([2.0])
    f = GridFunction(ts, [1.0])
    for op in (delta_derivative, nabla_derivative, delta_integral, nabla_integral):
        with pytest.raises(DomainError):
            op(f)


def test_sampled_interval():
    ts = TimeScale.sampled_interval(0.0, 1.0, 5)
    assert np.allclose(ts.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(DomainError):
        TimeScale.sampled_interval(1.0, 0.0, 5)
    with pytest.raises(DomainError):
        TimeScale.sampled_interval(0.0, 1.0, 1)
    # checked before linspace, whose warning filterwarnings = error would raise
    for a, b in [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(DomainError, match="finite a and b"):
            TimeScale.sampled_interval(a, b, 5)


def test_grid_function_validation():
    with pytest.raises(DomainError):
        GridFunction(T134, [1.0, 2.0])
    with pytest.raises(DomainError):
        GridFunction(T134, [1.0, np.nan, 2.0])


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_grid_functions_on_different_scales_do_not_combine(op):
    f = GridFunction(T134, [1.0, 2.0, 3.0])
    g = GridFunction(TimeScale([1.0, 2.0, 4.0]), [1.0, 2.0, 3.0])
    with pytest.raises(ScaleMismatchError, match="different scales"):
        op(f, g)


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_grid_function_and_a_number_do_not_add(op):
    # NotImplemented from both sides gives Python's own TypeError
    f = GridFunction(T134, [1.0, 2.0, 3.0])
    for left, right in ((f, 1.0), (1.0, f)):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(left, right)


@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5)])
def test_grid_function_shape_error_names_shape_and_rule(shape):
    ts = TimeScale([0.0, 1.0, 2.0, 3.0, 4.0])
    rule = "one function of shape (5,) or a stack of shape (k, 5)"
    with pytest.raises(DomainError) as err:
        GridFunction(ts, np.zeros(shape))
    assert rule in str(err.value) and f"got shape {shape}" in str(err.value)


# ---------------------------------------------------------------------------
# jump operators and graininess
# ---------------------------------------------------------------------------


def test_sigma_examples():
    assert T134.sigma(1.0) == 3.0
    assert T134.sigma(4.0) == 4.0  # boundary fixed point
    ts = TimeScale([0.0, 0.5, 2.0, 7.0])
    assert ts.sigma(0.5) == 2.0


def test_rho_examples():
    assert T134.rho(4.0) == 3.0
    assert T134.rho(1.0) == 1.0
    ts = TimeScale([0.0, 0.5, 2.0, 7.0])
    assert ts.rho(2.0) == 0.5


def test_jump_operator_rejects_foreign_point():
    with pytest.raises(DomainError):
        T134.sigma(2.0)
    with pytest.raises(DomainError):
        T134.mu(2.5)


def test_jumps_and_graininess_are_python_floats():
    ts = TimeScale([0.1, 0.35, 1.0, 2.7])
    for t in ts.points:  # np.float64, a subclass of float
        for op in (ts.sigma, ts.rho, ts.mu, ts.nu):
            assert type(op(t)) is float
        assert ts.mu(t) == ts.sigma(t) - t
        assert ts.nu(t) == t - ts.rho(t)


def test_graininess_hand_values():
    assert [T134.mu(t) for t in (1.0, 3.0, 4.0)] == [2.0, 1.0, 0.0]
    assert [T134.nu(t) for t in (1.0, 3.0, 4.0)] == [0.0, 2.0, 1.0]
    uniform = TimeScale([0.0, 1.0, 2.0, 3.0])
    assert uniform.mu(1.0) == uniform.nu(1.0) == 1.0


def test_domain_truncations():
    ts = TimeScale([0.0, 1.0, 2.0, 3.0, 4.0])
    assert list(ts.truncated(DomainTag.KAPPA).points) == [0, 1, 2, 3]
    assert list(ts.truncated(DomainTag.KAPPA_SUB).points) == [1, 2, 3, 4]
    assert list(ts.truncated(DomainTag.KAPPA_BOTH).points) == [1, 2, 3]
    assert list(ts.truncated(DomainTag.KAPPA_SQUARED).points) == [0, 1, 2]
    assert list(ts.truncated(DomainTag.KAPPA_SUB_SQUARED).points) == [2, 3, 4]
    # truncation stops at a single point
    tiny = TimeScale([0.0, 1.0])
    assert list(tiny.truncated(DomainTag.KAPPA_SQUARED).points) == [0.0]


def _truncated_reference(points: list[float], tag: DomainTag) -> list[float]:
    """Drop the right endpoint drop_right times, then the left endpoint
    drop_left times, each only while more than one point remains."""
    points = list(points)
    for _ in range(tag.drop_right):
        if len(points) > 1:
            points.pop()
    for _ in range(tag.drop_left):
        if len(points) > 1:
            points.pop(0)
    return points


@pytest.mark.parametrize("n", range(1, 7))
def test_truncated_matches_drop_by_drop_reference(n):
    points = [0.5 * k * k - 1.0 for k in range(n)]
    ts = TimeScale(points)
    for tag in DomainTag:
        expected = _truncated_reference(points, tag)
        cut = ts.truncated(tag)
        assert cut.points.tolist() == expected, tag
        assert cut.gaps().tolist() == np.diff(expected).tolist(), tag


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("y1", [0.0, 0.3, 6 / 7, 1.5])
def test_delta_derivative_hand_values(y1):
    f = GridFunction(T134, [0.0, y1, 1.0])
    d = delta_derivative(f)
    assert d.value_at(1.0) == pytest.approx(y1 / 2, abs=1e-15)
    assert d.value_at(3.0) == pytest.approx(1.0 - y1, abs=1e-15)
    with pytest.raises(DomainError):
        d.value_at(4.0)  # excluded from the delta domain


@pytest.mark.parametrize("y1", [0.0, 0.3, 6 / 7, 1.5])
def test_nabla_derivative_hand_values(y1):
    f = GridFunction(T134, [0.0, y1, 1.0])
    d = nabla_derivative(f)
    assert d.value_at(3.0) == pytest.approx(y1 / 2, abs=1e-15)
    assert d.value_at(4.0) == pytest.approx(1.0 - y1, abs=1e-15)
    with pytest.raises(DomainError):
        d.value_at(1.0)


def test_derivative_of_constant_and_identity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        ts = random_scale(rng, min_points=2, max_points=12)
        c = GridFunction.constant(ts, 3.7)
        assert np.all(delta_derivative(c).values == 0.0)
        assert np.all(nabla_derivative(c).values == 0.0)
        ident = GridFunction.sample(ts, lambda t: t)
        assert np.allclose(delta_derivative(ident).values, 1.0, atol=1e-14)
        assert np.allclose(nabla_derivative(ident).values, 1.0, atol=1e-14)


def test_derivative_conversions_random():
    # f^nabla = (f^Delta) o rho on the nabla domain, and the mirror image
    rng = np.random.default_rng(11)
    for _ in range(50):
        ts = random_scale(rng, min_points=2, max_points=30)
        f = random_grid_function(rng, ts)
        fd = delta_derivative(f)
        fn = nabla_derivative(f)
        for i, t in enumerate(fn.scale.points):
            assert fn.value_at(t) == fd.value_at(ts.rho(t))
        for t in fd.scale.points:
            assert fd.value_at(t) == fn.value_at(ts.sigma(t))


def test_derivatives_are_linear():
    rng = np.random.default_rng(3)
    ts = random_scale(rng, min_points=4, max_points=20)
    f = random_grid_function(rng, ts)
    g = random_grid_function(rng, ts)
    lhs = delta_derivative(2.5 * f + (-1.25) * g)
    rhs = 2.5 * delta_derivative(f) + (-1.25) * delta_derivative(g)
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)
    lhs_n = nabla_derivative(2.5 * f + (-1.25) * g)
    rhs_n = 2.5 * nabla_derivative(f) + (-1.25) * nabla_derivative(g)
    assert np.allclose(lhs_n.values, rhs_n.values, atol=1e-13)


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------


def test_shift_examples():
    f = GridFunction(T134, [10.0, 20.0, 30.0])
    assert list(shift_sigma(f).values) == [20.0, 30.0, 30.0]
    assert list(shift_rho(f).values) == [10.0, 10.0, 20.0]
    assert shift_sigma(f).value_at(4.0) == f.value_at(4.0)  # sigma(b) = b
    c = GridFunction.constant(T134, 5.0)
    assert np.all(shift_sigma(c).values == 5.0)
    assert np.all(shift_rho(c).values == 5.0)


def test_shift_recovery_formulas():
    # f(sigma(t)) = f(t) + mu(t) f^Delta(t); f(rho(t)) = f(t) - nu(t) f^nabla(t)
    rng = np.random.default_rng(5)
    for _ in range(30):
        ts = random_scale(rng, min_points=2, max_points=30)
        f = random_grid_function(rng, ts)
        fd = delta_derivative(f)
        fn = nabla_derivative(f)
        for t in fd.scale.points:
            lhs = f.value_at(ts.sigma(t))
            rhs = f.value_at(t) + ts.mu(t) * fd.value_at(t)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))
        for t in fn.scale.points:
            lhs = f.value_at(ts.rho(t))
            rhs = f.value_at(t) - ts.nu(t) * fn.value_at(t)
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


def test_delta_integral_hand_value():
    # integrand t * (y^Delta)^2 for y = (0, y1, 1) on {1,3,4}:
    # 2*1*(y1/2)^2 + 1*3*(1-y1)^2 = y1^2/2 + 3(1-y1)^2
    for y1 in (0.0, 0.25, 6 / 7):
        y = GridFunction(T134, [0.0, y1, 1.0])
        d = delta_derivative(y)
        integrand = GridFunction(T134, [1.0 * d.value_at(1.0) ** 2, 3.0 * d.value_at(3.0) ** 2, 0.0])
        val = delta_integral(integrand)
        assert val == pytest.approx(y1**2 / 2 + 3 * (1 - y1) ** 2, abs=1e-13)


def test_nabla_integral_hand_value():
    # 2*3*(y1/2)^2 + 1*4*(1-y1)^2 = (3/2) y1^2 + 4 (1-y1)^2
    for y1 in (0.0, 0.25, 8 / 11):
        y = GridFunction(T134, [0.0, y1, 1.0])
        d = nabla_derivative(y)
        integrand = GridFunction(T134, [0.0, 3.0 * d.value_at(3.0) ** 2, 4.0 * d.value_at(4.0) ** 2])
        val = nabla_integral(integrand)
        assert val == pytest.approx(1.5 * y1**2 + 4 * (1 - y1) ** 2, abs=1e-13)


def test_empty_range_and_bad_range():
    f = GridFunction(T134, [1.0, 2.0, 3.0])
    assert delta_integral(f, 1.0, 1.0) == 0.0
    assert nabla_integral(f, 3.0, 3.0) == 0.0
    with pytest.raises(DomainError):
        delta_integral(f, 4.0, 1.0)
    with pytest.raises(DomainError):
        nabla_integral(f, 3.0, 1.0)


def test_integral_additivity_and_linearity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ts = random_scale(rng, min_points=3, max_points=25)
        f = random_grid_function(rng, ts)
        g = random_grid_function(rng, ts)
        mid = float(rng.choice(ts.points[1:-1]))
        a, b = ts.a, ts.b
        assert delta_integral(f) == pytest.approx(
            delta_integral(f, a, mid) + delta_integral(f, mid, b), abs=1e-12
        )
        assert nabla_integral(f) == pytest.approx(
            nabla_integral(f, a, mid) + nabla_integral(f, mid, b), abs=1e-12
        )
        lin = delta_integral(2.0 * f + 3.0 * g)
        assert lin == pytest.approx(2 * delta_integral(f) + 3 * delta_integral(g), abs=1e-12)


def test_fundamental_theorem():
    rng = np.random.default_rng(17)
    for _ in range(30):
        ts = random_scale(rng, min_points=2, max_points=30)
        f = random_grid_function(rng, ts)
        fd = delta_derivative(f)
        total = delta_integral(GridFunction(ts, np.append(fd.values, 0.0)))
        assert total == pytest.approx(f.values[-1] - f.values[0], abs=1e-13)
        fn = nabla_derivative(f)
        total = nabla_integral(GridFunction(ts, np.concatenate([[0.0], fn.values])))
        assert total == pytest.approx(f.values[-1] - f.values[0], abs=1e-13)


# ---------------------------------------------------------------------------
# stacks of grid functions
# ---------------------------------------------------------------------------


def test_stack_validation():
    stack = GridFunction(T134, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert stack.values.shape == (2, 3)
    assert list(stack.value_at(3.0)) == [2.0, 5.0]
    assert GridFunction(T134, np.zeros((0, 3))).values.shape == (0, 3)
    for bad in ([[1.0, 2.0], [3.0, 4.0]], np.zeros((1, 2, 3)), 1.0):
        with pytest.raises(DomainError):
            GridFunction(T134, bad)
    with pytest.raises(DomainError):
        GridFunction(T134, [[1.0, 2.0, 3.0], [4.0, np.inf, 6.0]])


def test_stacked_operations_equal_row_by_row_exactly():
    # up to 300 points, so the sums cross numpy's pairwise-summation blocks
    rng = np.random.default_rng(31)
    for n in (2, 3, 8, 9, 127, 128, 129, 255, 256, 300, *rng.integers(2, 301, 12)):
        ts = random_scale(rng, min_points=n, max_points=n)
        rows = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 40)), n))
        stack = GridFunction(ts, rows)
        ones = [GridFunction(ts, row) for row in rows]
        for op in (delta_derivative, nabla_derivative, shift_sigma, shift_rho):
            stacked = op(stack)
            assert stacked.values.shape == rows.shape[:1] + stacked.scale.points.shape
            for row, one in zip(stacked.values, ones):
                result = op(one)
                assert result.scale == stacked.scale
                assert np.array_equal(row, result.values)
        i, j = sorted(rng.integers(0, n, 2))
        ranges = ((None, None), (ts.points[i], ts.points[j]), (ts.points[i], None))
        for integral in (delta_integral, nabla_integral):
            for lo, hi in ranges:
                stacked = integral(stack, lo, hi)
                assert stacked.shape == rows.shape[:1]
                assert list(stacked) == [integral(one, lo, hi) for one in ones]
                assert all(type(integral(one, lo, hi)) is float for one in ones)


T5 = TimeScale([0.0, 1.0, 2.0, 3.0, 4.0])
STACK5 = GridFunction(T5, np.zeros((2, 5)))
ONE5 = GridFunction(T5, np.zeros(5))
L_V2 = Lagrangian.from_expression("v^2")
P5 = DeltaNablaProblem(T5, 1.0, 1.0, L_V2, L_V2, 0.0, 1.0)
DP5 = DirectionalProblem(T5, -2.0, L_V2, 0.0, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gradient(P5, STACK5),
        lambda: objective(P5, STACK5),
        lambda: el_residual_1(P5, STACK5),
        lambda: el_residual_2(P5, STACK5),
        lambda: first_variation(P5, STACK5, ONE5),
        lambda: first_variation(P5, ONE5, STACK5),
        lambda: solve(P5, init=STACK5),
        lambda: solve_directional(DP5, init=STACK5),
        lambda: directional_el_residual(DP5, STACK5),
        lambda: norm_1_inf(STACK5),
        lambda: dubois_reymond_probe(STACK5, "nabla"),
        lambda: directional_derivative(STACK5, 2.0, 1.0),
        lambda: directional_derivative(STACK5, 2.0, -1.0, method="quotient"),
        lambda: extend(STACK5)(2.5),
        lambda: epigraph_contains(STACK5, (2.5, 0.0)),
        lambda: is_convex(STACK5),
    ],
    ids=["gradient", "objective", "el_residual_1", "el_residual_2", "first_variation-y",
         "first_variation-eta", "solve", "solve_directional", "directional_el_residual",
         "norm_1_inf", "dubois_reymond_probe", "directional_derivative",
         "directional_derivative-quotient", "extension", "epigraph_contains", "is_convex"],
)
def test_one_function_arguments_reject_a_stack(call):
    # only derivatives, shifts and integrals take a stack; every other
    # function names the stack's shape instead of failing inside numpy
    with pytest.raises(DomainError, match=r"must be one function of shape \(5,\), got a stack of shape \(2, 5\)"):
        call()


def test_identity_suite_gate():
    # the acceptance suite runs 200 trials; keep a fast sentinel here
    worst = identity_suite(trials=25, seed=42)
    assert max(worst.values()) <= 1e-12


def test_derivative_conversion_catches_a_misplaced_derivative(monkeypatch):
    # a nabla derivative placed on the scale minus b has the right values
    # index by index but the wrong points, which both conversions must see
    from deltanabla import identities

    def misplaced(f):
        return GridFunction(f.scale.truncated(DomainTag.KAPPA), nabla_derivative(f).values)

    rng = np.random.default_rng(9)
    ts = random_scale(rng, min_points=4, max_points=10)
    f, g = random_grid_function(rng, ts), random_grid_function(rng, ts)
    assert identities.check_trial(ts, f, g)["nabla_from_delta"] <= 1e-12
    monkeypatch.setattr(identities, "nabla_derivative", misplaced)
    errs = identities.check_trial(ts, f, g)
    assert errs["nabla_from_delta"] > 1e-3
    assert errs["delta_from_nabla"] > 1e-3


# ---------------------------------------------------------------------------
# Dubois-Reymond probes
# ---------------------------------------------------------------------------


def test_probe_constant_passes():
    for kind in ("delta", "nabla"):
        rep = dubois_reymond_probe(GridFunction.constant(T134, 2.5), kind)
        assert rep.all_vanish and rep.constant and rep.witness is None


def test_probe_nonconstant_has_nonzero_integral():
    # explicit hand sum for the hat at t=3 on {1,3,4} with f = (1, 2, x):
    # integral of f * eta^Delta = f(1) - f(3) = -1
    f = GridFunction(T134, [1.0, 2.0, 9.0])
    rep = dubois_reymond_probe(f, "delta")
    assert not rep.all_vanish and not rep.constant
    assert rep.integrals[0] == pytest.approx(-1.0, abs=1e-14)
    rep_n = dubois_reymond_probe(GridFunction(T134, [9.0, 2.0, 1.0]), "nabla")
    # nabla integral against the hat is f(3) - f(4) = 1
    assert rep_n.integrals[0] == pytest.approx(1.0, abs=1e-14)


def test_probe_projection_oracle():
    # projecting a random f onto the null space of the constraint matrix
    # must give a constant (the lemma's finite-scale content)
    rng = np.random.default_rng(23)
    for kind in ("delta", "nabla"):
        for _ in range(20):
            ts = random_scale(rng, min_points=3, max_points=30)
            M = variation_constraint_matrix(ts, kind)
            n = M.shape[1]
            f_dom = rng.uniform(-1, 1, n)
            # null-space projector via SVD
            _, _, vt = np.linalg.svd(M)
            null = vt[np.linalg.matrix_rank(M) :].T
            proj = null @ (null.T @ f_dom)
            assert np.max(proj) - np.min(proj) <= 1e-12
            if kind == "delta":
                full = GridFunction(ts, np.append(proj, 0.0))
            else:
                full = GridFunction(ts, np.concatenate([[0.0], proj]))
            rep = dubois_reymond_probe(full, kind)
            assert rep.all_vanish and rep.constant


def test_probe_needs_interior():
    two = TimeScale([0.0, 1.0])
    with pytest.raises(DomainError):
        dubois_reymond_probe(GridFunction(two, [1.0, 2.0]), "delta")
    with pytest.raises(DomainError):
        variation_constraint_matrix(two, "nabla")


def test_constraint_matrix_names_an_unknown_kind():
    with pytest.raises(ValueError, match="^kind must be 'delta' or 'nabla', got 'foo'$"):
        variation_constraint_matrix(TimeScale([0.0, 1.0, 2.0]), "foo")


def _dr_scales():
    rng = np.random.default_rng(31)
    scales = [TimeScale([1.0, 3.0, 4.0]), TimeScale.sampled_interval(1, 2, 161)]
    scales += [random_scale(rng, min_points=3, max_points=200) for _ in range(40)]
    return scales


def test_constraint_matrix_equals_hat_by_hat_definition():
    # the definition, one hat at a time: the gaps times the hat's derivative
    for ts in _dr_scales():
        gaps = ts.gaps()
        for kind, derivative in (("delta", delta_derivative), ("nabla", nabla_derivative)):
            rows = [gaps * derivative(hat_variation(ts, j)).values for j in range(1, len(ts) - 1)]
            assert np.array_equal(variation_constraint_matrix(ts, kind), np.array(rows))


def test_hat_basis_rows_are_the_hats():
    from deltanabla.timescale import _hat_basis

    for ts in _dr_scales():
        stack = _hat_basis(ts)
        assert stack.scale is ts and stack.values.shape == (len(ts) - 2, len(ts))
        for j in range(1, len(ts) - 1):
            assert np.array_equal(stack.values[j - 1], hat_variation(ts, j).values)


def test_hat_variation_shape():
    ts = TimeScale([0.0, 1.0, 2.0, 4.0])
    eta = hat_variation(ts, 2)
    assert list(eta.values) == [0.0, 0.0, 1.0, 0.0]
    with pytest.raises(DomainError):
        hat_variation(ts, 0)
    with pytest.raises(DomainError):
        hat_variation(ts, 3)
    assert list(hat_variation(ts, np.int64(1)).values) == [0.0, 1.0, 0.0, 0.0]
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(DomainError, match="^interior_index must be an integer"):
            hat_variation(ts, bad)
