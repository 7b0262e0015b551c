"""The randomized identity suite: exact agreement with a one-identity-at-a-
time reference and with its own trials one at a time, argument validation,
and sensitivity to a faulty integral."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from deltanabla import (
    DomainError,
    GridFunction,
    ScaleMismatchError,
    TimeScale,
    delta_derivative,
    delta_integral,
    identity_suite,
    nabla_derivative,
    nabla_integral,
    random_grid_function,
    random_scale,
    shift_rho,
    shift_sigma,
)
from deltanabla import identities
from deltanabla.identities import IDENTITY_NAMES


def _rel(lhs, rhs):
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    err = float(np.max(np.abs(lhs - rhs) / scale))
    return err if math.isfinite(err) else math.inf


def _reference_trial(ts: TimeScale, f: GridFunction, g: GridFunction) -> dict:
    """Every identity on its own, from one-function operations."""
    fd, gd = delta_derivative(f), delta_derivative(g)
    fn, gn = nabla_derivative(f), nabla_derivative(g)
    fs, gs, fr, gr = shift_sigma(f), shift_sigma(g), shift_rho(f), shift_rho(g)
    gaps, a, b = ts.gaps(), ts.a, ts.b

    def delta_of(vals):  # vals on the scale minus b
        return delta_integral(GridFunction(ts, np.append(vals, 0.0)))

    def nabla_of(vals):  # vals on the scale minus a
        return nabla_integral(GridFunction(ts, np.concatenate([[0.0], vals])))

    f_, g_ = f.values, g.values
    boundary = f_[-1] * g_[-1] - f_[0] * g_[0]
    return {
        "ibp_sigma_delta": _rel(
            delta_of(fs.values[:-1] * gd.values), boundary - delta_of(fd.values * g_[:-1])
        ),
        "ibp_plain_delta": _rel(
            delta_of(f_[:-1] * gd.values), boundary - delta_of(fd.values * gs.values[:-1])
        ),
        "ibp_rho_nabla": _rel(
            nabla_of(fr.values[1:] * gn.values), boundary - nabla_of(fn.values * g_[1:])
        ),
        "ibp_plain_nabla": _rel(
            nabla_of(f_[1:] * gn.values), boundary - nabla_of(fn.values * gr.values[1:])
        ),
        "nabla_from_delta": _rel(fn.values, [fd.value_at(ts.rho(t)) for t in fn.scale]),
        "delta_from_nabla": _rel(fd.values, [fn.value_at(ts.sigma(t)) for t in fd.scale]),
        "delta_to_nabla": _rel(delta_integral(f), nabla_integral(fr)),
        "nabla_to_delta": _rel(nabla_integral(f), delta_integral(fs)),
        "split_delta_at_b": _rel(
            delta_integral(f),
            delta_integral(f, a, ts.rho(b)) + (b - ts.rho(b)) * f.value_at(ts.rho(b)),
        ),
        "split_delta_at_a": _rel(
            delta_integral(f),
            (ts.sigma(a) - a) * f.value_at(a) + delta_integral(f, ts.sigma(a), b),
        ),
        "split_nabla_at_b": _rel(
            nabla_integral(f),
            nabla_integral(f, a, ts.rho(b)) + (b - ts.rho(b)) * f.value_at(b),
        ),
        "split_nabla_at_a": _rel(
            nabla_integral(f),
            (ts.sigma(a) - a) * f.value_at(ts.sigma(a)) + nabla_integral(f, ts.sigma(a), b),
        ),
        "sigma_from_delta": _rel(fs.values[:-1], f_[:-1] + gaps * fd.values),
        "rho_from_nabla": _rel(fr.values[1:], f_[1:] - gaps * fn.values),
        "ftc_delta": _rel(delta_of(fd.values), f_[-1] - f_[0]),
        "ftc_nabla": _rel(nabla_of(fn.values), f_[-1] - f_[0]),
    }


def _reference_suite(trials, seed, **scale_args):
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(IDENTITY_NAMES, 0.0)
    for _ in range(trials):
        ts = random_scale(rng, **scale_args)
        f, g = random_grid_function(rng, ts), random_grid_function(rng, ts)
        for name, err in _reference_trial(ts, f, g).items():
            worst[name] = max(worst[name], err)
    return worst


@pytest.mark.parametrize(
    "seed, scale_args",
    [
        (0, {}),
        (5, {}),
        (2024, {}),
        (11, {"min_points": 2, "max_points": 2}),
        (12, {"min_points": 100, "max_points": 300}),
        (13, {"min_gap": 1e-6, "max_gap": 1e3}),
        (0, {"min_points": 2, "max_points": 2, "min_gap": 1.0, "max_gap": 1.0}),
    ],
)
def test_suite_equals_one_identity_at_a_time(monkeypatch, seed, scale_args):
    # the suite draws random_scale's default shape; the other shapes reach
    # it through the module's own random_scale
    monkeypatch.setattr(identities, "random_scale", functools.partial(random_scale, **scale_args))
    expected = _reference_suite(60, seed, **scale_args)
    worst = identity_suite(60, seed)
    assert worst == expected
    assert list(worst) == list(IDENTITY_NAMES)
    assert max(worst.values()) <= 1e-12


def test_check_trial_equals_reference_trial():
    rng = np.random.default_rng(3)
    for _ in range(40):
        ts = random_scale(rng)
        f, g = random_grid_function(rng, ts), random_grid_function(rng, ts)
        assert identities.check_trial(ts, f, g) == _reference_trial(ts, f, g)


def test_check_trial_rejects_a_function_off_its_scale():
    ts = TimeScale([0, 1, 2, 3, 4])
    on = GridFunction(ts, [0.3, -0.2, 0.9, 0.1, -0.7])
    off = GridFunction(TimeScale([0, 1, 2.5, 3, 4]), on.values)
    for f, g in ((off, on), (on, off)):
        with pytest.raises(ScaleMismatchError):
            identities.check_trial(ts, f, g)
    stack = GridFunction(ts, (on.values, on.values))
    with pytest.raises(DomainError, match=r"got a stack of shape \(2, 5\)"):
        identities.check_trial(ts, on, stack)


@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["1", "block-1", "block", "block+1", "2block+1"],
)
def test_suite_equals_the_worst_check_trial_over_the_same_draws(blocks, extra):
    trials, seed = blocks * identities._BLOCK + extra, 17
    rng = np.random.default_rng(seed)
    expected = dict.fromkeys(IDENTITY_NAMES, 0.0)
    for _ in range(trials):
        ts = random_scale(rng)
        f, g = random_grid_function(rng, ts), random_grid_function(rng, ts)
        for name, err in identities.check_trial(ts, f, g).items():
            expected[name] = max(expected[name], err)
    assert identity_suite(trials, seed) == expected


def test_suite_holds_one_block_of_sides_at_a_time():
    # all 200 trials' sides at once peaked at about 1.7 MB
    tracemalloc.start()
    try:
        identity_suite(200, 1001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


DELTA_INTEGRAL_IDENTITIES = {
    "ibp_sigma_delta", "ibp_plain_delta", "delta_to_nabla", "nabla_to_delta",
    "split_delta_at_b", "split_delta_at_a", "ftc_delta",
}
NABLA_INTEGRAL_IDENTITIES = {
    "ibp_rho_nabla", "ibp_plain_nabla", "delta_to_nabla", "nabla_to_delta",
    "split_nabla_at_b", "split_nabla_at_a", "ftc_nabla",
}


@pytest.mark.parametrize(
    "name, affected",
    [("delta_integral", DELTA_INTEGRAL_IDENTITIES), ("nabla_integral", NABLA_INTEGRAL_IDENTITIES)],
)
def test_suite_sees_an_integral_off_by_one_part_in_a_billion(monkeypatch, name, affected):
    exact = getattr(identities, name)

    def skewed(f, lo=None, hi=None):
        return exact(f, lo, hi) * (1.0 + 1e-9)

    monkeypatch.setattr(identities, name, skewed)
    worst = identity_suite(trials=50, seed=1)
    assert {key for key, err in worst.items() if err > 1e-12} == affected


@pytest.mark.parametrize(
    "kwargs, argument",
    [({"trials": -3}, "trials"), ({"seed": -1}, "seed"), ({"trials": 2.5}, "trials"), ({"seed": 1.5}, "seed")],
)
def test_suite_rejects_bad_arguments_up_front(kwargs, argument):
    with pytest.raises(DomainError, match=f"^{argument} "):
        identity_suite(**kwargs)


def test_suite_boundary_arguments_are_valid():
    assert identity_suite(trials=0) == dict.fromkeys(IDENTITY_NAMES, 0.0)
    assert identity_suite(trials=np.int64(2), seed=np.uint8(1)) == identity_suite(trials=2, seed=1)


@pytest.mark.parametrize(
    "call, affected",
    [
        (0, DELTA_INTEGRAL_IDENTITIES),  # the stack of full-range integrands
        (1, {"split_delta_at_b"}),  # the integral over [a, rho(b))
        (2, {"split_delta_at_a"}),  # the integral over [sigma(a), b)
    ],
)
def test_a_nan_in_one_trial_fails_exactly_the_identities_that_read_it(monkeypatch, call, affected):
    # a trial makes three delta_integral calls; spoil one call of trial 40,
    # in the second block
    trial, calls = 40, []
    exact = identities.delta_integral

    def spoiled(f, lo=None, hi=None):
        calls.append(None)
        value = exact(f, lo, hi)
        return value * math.nan if len(calls) == 3 * trial + call + 1 else value

    monkeypatch.setattr(identities, "delta_integral", spoiled)
    worst = identity_suite(trials=2 * identities._BLOCK + 1, seed=4)
    assert {name for name, err in worst.items() if err == math.inf} == affected
    assert max(err for name, err in worst.items() if name not in affected) <= 1e-12
