"""Randomized checks of the exact finite-scale calculus identities.

Every identity here is an algebraic rearrangement of the same finite sums,
so it holds to floating-point accuracy on any finite scale.  The suite
draws random scales and random grid functions, evaluates both sides of
each identity through the public operations, and reports the worst
relative error per identity.  It backs the ``identities`` CLI command and
the acceptance tests.
"""

from __future__ import annotations

import math

import numpy as np

from .timescale import (
    GridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    shift_rho,
    shift_sigma,
)

FAMILIES: dict[str, tuple[str, ...]] = {
    "integration_by_parts": (
        "ibp_sigma_delta",
        "ibp_plain_delta",
        "ibp_rho_nabla",
        "ibp_plain_nabla",
    ),
    "derivative_conversion": ("nabla_from_delta", "delta_from_nabla"),
    "integral_conversion": ("delta_to_nabla", "nabla_to_delta"),
    "endpoint_splitting": (
        "split_delta_at_b",
        "split_delta_at_a",
        "split_nabla_at_b",
        "split_nabla_at_a",
    ),
    "shift_recovery": ("sigma_from_delta", "rho_from_nabla"),
    "fundamental_theorem": ("ftc_delta", "ftc_nabla"),
}

IDENTITY_NAMES: tuple[str, ...] = tuple(
    name for names in FAMILIES.values() for name in names
)


def random_scale(
    rng: np.random.Generator,
    min_points: int = 2,
    max_points: int = 50,
    min_gap: float = 1e-3,
    max_gap: float = 10.0,
) -> TimeScale:
    """A random finite scale with log-uniform gaps."""
    n = int(rng.integers(min_points, max_points + 1))
    gaps = np.exp(rng.uniform(np.log(min_gap), np.log(max_gap), n - 1))
    start = rng.uniform(-5.0, 5.0)
    return TimeScale(start + np.concatenate([[0.0], np.cumsum(gaps)]))


def random_grid_function(
    rng: np.random.Generator, ts: TimeScale, lo: float = -1.0, hi: float = 1.0
) -> GridFunction:
    return GridFunction(ts, rng.uniform(lo, hi, len(ts)))


def _rel(lhs, rhs) -> float:
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    err = float(np.max(np.abs(lhs - rhs) / scale))
    return err if math.isfinite(err) else math.inf  # NaN must not pass


def _at_jump(ts: TimeScale, f: GridFunction, t: np.ndarray, step: int) -> np.ndarray:
    """f at sigma(t) (step 1) or rho(t) (step -1) for points t of ts, looked
    up in one pass; NaN where the jumped point is off f's domain."""
    jumped = ts.points[np.clip(np.searchsorted(ts.points, t) + step, 0, len(ts) - 1)]
    pts = f.scale.points
    i = np.minimum(np.searchsorted(pts, jumped), len(pts) - 1)
    return np.where(pts[i] == jumped, f.values[i], np.nan)


def _pad_kappa(ts: TimeScale, vals: np.ndarray) -> GridFunction:
    """Lift values on the delta-derivative domain back to the full scale
    (the padding value at b is never touched by a delta integral)."""
    return GridFunction(ts, np.append(vals, 0.0))


def _pad_kappa_sub(ts: TimeScale, vals: np.ndarray) -> GridFunction:
    return GridFunction(ts, np.concatenate([[0.0], vals]))


def _boundary_term(f: GridFunction, g: GridFunction) -> float:
    return f.values[-1] * g.values[-1] - f.values[0] * g.values[0]


def check_trial(ts: TimeScale, f: GridFunction, g: GridFunction) -> dict[str, float]:
    """Relative error of every identity for one scale and one pair f, g."""
    fd = delta_derivative(f)
    gd = delta_derivative(g)
    fn = nabla_derivative(f)
    gn = nabla_derivative(g)
    fs = shift_sigma(f)
    fr = shift_rho(f)
    gs = shift_sigma(g)
    gr = shift_rho(g)
    gaps = ts.gaps()
    a, b = ts.a, ts.b
    boundary = _boundary_term(f, g)
    errs: dict[str, float] = {}

    errs["ibp_sigma_delta"] = _rel(
        delta_integral(_pad_kappa(ts, fs.values[:-1] * gd.values)),
        boundary - delta_integral(_pad_kappa(ts, fd.values * g.values[:-1])),
    )
    errs["ibp_plain_delta"] = _rel(
        delta_integral(_pad_kappa(ts, f.values[:-1] * gd.values)),
        boundary - delta_integral(_pad_kappa(ts, fd.values * gs.values[:-1])),
    )
    errs["ibp_rho_nabla"] = _rel(
        nabla_integral(_pad_kappa_sub(ts, fr.values[1:] * gn.values)),
        boundary - nabla_integral(_pad_kappa_sub(ts, fn.values * g.values[1:])),
    )
    errs["ibp_plain_nabla"] = _rel(
        nabla_integral(_pad_kappa_sub(ts, f.values[1:] * gn.values)),
        boundary - nabla_integral(_pad_kappa_sub(ts, fn.values * gr.values[1:])),
    )

    # f^nabla(t) = f^Delta(rho(t)) and f^Delta(t) = f^nabla(sigma(t)), each
    # over the points of the left-hand derivative's own domain
    errs["nabla_from_delta"] = _rel(fn.values, _at_jump(ts, fd, fn.scale.points, -1))
    errs["delta_from_nabla"] = _rel(fd.values, _at_jump(ts, fn, fd.scale.points, 1))

    errs["delta_to_nabla"] = _rel(delta_integral(f), nabla_integral(fr))
    errs["nabla_to_delta"] = _rel(nabla_integral(f), delta_integral(fs))

    errs["split_delta_at_b"] = _rel(
        delta_integral(f),
        delta_integral(f, a, ts.rho(b)) + (b - ts.rho(b)) * f.value_at(ts.rho(b)),
    )
    errs["split_delta_at_a"] = _rel(
        delta_integral(f),
        (ts.sigma(a) - a) * f.value_at(a) + delta_integral(f, ts.sigma(a), b),
    )
    errs["split_nabla_at_b"] = _rel(
        nabla_integral(f),
        nabla_integral(f, a, ts.rho(b)) + (b - ts.rho(b)) * f.value_at(b),
    )
    errs["split_nabla_at_a"] = _rel(
        nabla_integral(f),
        (ts.sigma(a) - a) * f.value_at(ts.sigma(a)) + nabla_integral(f, ts.sigma(a), b),
    )

    errs["sigma_from_delta"] = _rel(fs.values[:-1], f.values[:-1] + gaps * fd.values)
    errs["rho_from_nabla"] = _rel(fr.values[1:], f.values[1:] - gaps * fn.values)

    errs["ftc_delta"] = _rel(
        delta_integral(_pad_kappa(ts, fd.values)), f.values[-1] - f.values[0]
    )
    errs["ftc_nabla"] = _rel(
        nabla_integral(_pad_kappa_sub(ts, fn.values)), f.values[-1] - f.values[0]
    )
    return errs


def identity_suite(
    trials: int = 200,
    seed: int = 0,
    min_points: int = 2,
    max_points: int = 50,
    min_gap: float = 1e-3,
    max_gap: float = 10.0,
) -> dict[str, float]:
    """Worst relative error per identity over random scales and functions."""
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in IDENTITY_NAMES}
    for _ in range(trials):
        ts = random_scale(rng, min_points, max_points, min_gap, max_gap)
        f = random_grid_function(rng, ts)
        g = random_grid_function(rng, ts)
        for name, err in check_trial(ts, f, g).items():
            if err > worst[name]:
                worst[name] = err
    return worst
