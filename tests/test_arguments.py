"""One rule per kind of argument, at every public count and real.

A count, seed or index is an integer that is not a bool; a real, a time
point among them, is a finite real number that is not a bool.  A bool, a
numpy bool or a numeric string raises a DomainError whose text starts with
the argument's name, and numpy integers (and, for reals, numpy floats)
pass.
"""

import numpy as np
import pytest

from deltanabla import (
    DeltaNablaProblem,
    DirectionalProblem,
    DomainError,
    GridFunction,
    Lagrangian,
    Term,
    TermSumProblem,
    TimeScale,
    d_u_integral,
    delta_integral,
    directional_derivative,
    epigraph_contains,
    extend,
    hat_variation,
    identity_suite,
    local_min_probe,
    nabla_integral,
    random_scale,
    shifted_composition,
    solve,
    solve_directional,
)

L = Lagrangian.from_expression("v^2 + y^2")
TS = TimeScale([0.0, 0.5, 1.0, 1.5, 2.0])
P = DeltaNablaProblem(TS, 1.0, 1.0, L, L, 0.0, 1.0)
SOL = solve(P)
DP = DirectionalProblem(TS, 1.0, L, 0.0, 1.0)
F = GridFunction(TimeScale([0.0, 1.0, 2.0, 3.0]), [0.0, 1.0, 4.0, 9.0])


def rng():
    return np.random.default_rng(0)


# (name in the error, call with the argument set to x, a valid value)
COUNTS = {
    "hat_variation-interior_index": ("interior_index", lambda x: hat_variation(TS, x), 1),
    "sampled_interval-n": ("n", lambda x: TimeScale.sampled_interval(0.0, 1.0, x), 3),
    "identity_suite-trials": ("trials", lambda x: identity_suite(trials=x), 2),
    "identity_suite-seed": ("seed", lambda x: identity_suite(trials=1, seed=x), 1),
    "local_min_probe-n_trials": ("n_trials", lambda x: local_min_probe(P, SOL, n_trials=x), 5),
    "local_min_probe-seed": ("seed", lambda x: local_min_probe(P, SOL, n_trials=5, seed=x), 1),
    "solve-max_iter": ("max_iter", lambda x: solve(P, max_iter=x), 50),
    "solve_directional-max_iter": ("max_iter", lambda x: solve_directional(DP, max_iter=x), 50),
    "random_scale-min_points": ("min_points", lambda x: random_scale(rng(), min_points=x), 2),
    "random_scale-max_points": ("max_points", lambda x: random_scale(rng(), max_points=x), 5),
}
REALS = {
    "sampled_interval-a": ("a", lambda x: TimeScale.sampled_interval(x, 2.0, 3), 1),
    "sampled_interval-b": ("b", lambda x: TimeScale.sampled_interval(0.0, x, 3), 1),
    "DeltaNablaProblem-gamma1": ("weight of term 0", lambda x: DeltaNablaProblem(TS, x, 1.0, L, L, 0.0, 1.0), 1),
    "DeltaNablaProblem-gamma2": ("weight of term 1", lambda x: DeltaNablaProblem(TS, 1.0, x, L, L, 0.0, 1.0), 1),
    "TermSumProblem-weight": ("weight of term 0", lambda x: TermSumProblem(TS, [Term(x, L, "nabla")], 0.0, 1.0), 1),
    "alpha": ("alpha", lambda x: DeltaNablaProblem(TS, 1.0, 1.0, L, L, x, 1.0), 1),
    "beta": ("beta", lambda x: DeltaNablaProblem(TS, 1.0, 1.0, L, L, 0.0, x), 1),
    "solve-tol": ("tol", lambda x: solve(P, tol=x), 1),
    "solve_directional-tol": ("tol", lambda x: solve_directional(DP, tol=x), 1),
    "DirectionalProblem-u": ("direction u", lambda x: DirectionalProblem(TS, x, L, 0.0, 1.0), 1),
    "d_u_integral-u": ("direction u", lambda x: d_u_integral(F, x), 1),
    "shifted_composition-u": ("direction u", lambda x: shifted_composition(F, x), 1),
    "directional_derivative-u": ("direction u", lambda x: directional_derivative(F, 1.0, x), 1),
    "directional_derivative-h": ("h", lambda x: directional_derivative(F, 1.0, 1.0, method="quotient", h=x), 1),
    "random_scale-min_gap": ("min_gap", lambda x: random_scale(rng(), min_gap=x), 1),
    "random_scale-max_gap": ("max_gap", lambda x: random_scale(rng(), max_gap=x), 1),
    "GridFunction.constant-c": ("c", lambda x: GridFunction.constant(TS, x), 2),
    "GridFunction.__mul__-factor": ("factor", lambda x: F * x, 2),
    "epigraph_contains-lam": ("lam", lambda x: epigraph_contains(F, (1.5, x)), 1),
    # a time point: looked up in the scale, or placed in [a, b] by the extension
    "sigma-t": ("t", lambda x: F.scale.sigma(x), 1),
    "rho-t": ("t", lambda x: F.scale.rho(x), 1),
    "value_at-t": ("t", lambda x: F.value_at(x), 1),
    "delta_integral-lo": ("t", lambda x: delta_integral(F, x), 1),
    "nabla_integral-hi": ("t", lambda x: nabla_integral(F, None, x), 1),
    "directional_derivative-t": ("t", lambda x: directional_derivative(F, x, 1.0), 1),
    "PLExtension-t": ("t", lambda x: extend(F)(x), 1),
}
NOT_ARGUMENTS = [True, np.bool_(True), "1"]


@pytest.mark.parametrize("bad", NOT_ARGUMENTS, ids=repr)
@pytest.mark.parametrize("name, call, good", COUNTS.values(), ids=COUNTS)
def test_a_count_is_an_integer_that_is_not_a_bool(name, call, good, bad):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {bad!r}$"):
        call(bad)
    call(good)
    call(np.int64(good))


@pytest.mark.parametrize("bad", NOT_ARGUMENTS, ids=repr)
@pytest.mark.parametrize("name, call, good", REALS.values(), ids=REALS)
def test_a_real_is_a_finite_number_that_is_not_a_bool(name, call, good, bad):
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got {bad!r}$"):
        call(bad)
    # an int too large for a float counts as not finite, as in problem files
    with pytest.raises(DomainError, match=f"^{name} must be finite, got 1000"):
        call(10**400)
    call(good)
    call(np.int64(good))
    call(np.float64(good))


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", 10**400, float("nan"), 1.5, 4.0])
def test_a_time_point_outside_the_rule_or_the_scale_is_not_in_it(bad):
    # membership answers through index: False wherever index raises
    assert bad not in F.scale
    assert 1 in F.scale and np.float64(2.0) in F.scale and 3.0 in F.scale


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_points": 0},
        {"min_points": -3, "max_points": 5},
        {"min_points": 6, "max_points": 5},
        {"min_gap": 0.0},
        {"min_gap": -1.0},
        {"min_gap": 2.0, "max_gap": 1.0},
    ],
)
def test_random_scale_needs_at_least_one_point_and_positive_ordered_gaps(kwargs):
    with pytest.raises(DomainError, match=r"^random_scale needs 1 <= min_points <= max_points and 0 < min_gap <= max_gap, got "):
        random_scale(rng(), **kwargs)
    # the edges of the rule pass: one point, and equal gaps
    assert len(random_scale(rng(), min_points=1, max_points=1)) == 1
    assert np.allclose(random_scale(rng(), min_gap=0.5, max_gap=0.5).gaps(), 0.5)
