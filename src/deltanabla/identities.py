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
from typing import Iterable

import numpy as np

from .errors import DomainError
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


def _rel_errors(sides: Iterable[tuple]) -> np.ndarray:
    """The worst relative error |lhs - rhs| / max(1, |lhs|, |rhs|) of each
    pair of equal-length sequences, all in one numpy pass; NaN must not
    pass, so it counts as inf."""
    lhs, rhs = zip(*sides)
    starts = np.cumsum([0] + [len(side) for side in lhs[:-1]])
    lhs, rhs = np.concatenate(lhs), np.concatenate(rhs)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    err = np.maximum.reduceat(np.abs(lhs - rhs) / scale, starts)
    return np.where(np.isnan(err), math.inf, err)


def _at_jump(ts: TimeScale, f: GridFunction, t: np.ndarray, step: int) -> np.ndarray:
    """f at sigma(t) (step 1) or rho(t) (step -1) for points t of ts, looked
    up in one pass along the last axis; NaN where the jumped point is off
    f's domain."""
    i = ts.points.searchsorted(t) + step
    jumped = ts.points[np.minimum(np.maximum(i, 0), len(ts) - 1)]
    pts = f.scale.points
    i = np.minimum(pts.searchsorted(jumped), len(pts) - 1)
    return np.where(pts[i] == jumped, f.values[..., i], np.nan)


def check_trial(ts: TimeScale, f: GridFunction, g: GridFunction) -> dict[str, float]:
    """Relative error of every identity for one scale and one pair f, g.

    The pair is differentiated and shifted as one stack.  The full-range
    delta integrands are integrated as one stack, zero at b where a delta
    integral does not read them, and the nabla integrands likewise, zero
    at a.
    """
    fg = GridFunction(ts, (f.values, g.values))
    d = delta_derivative(fg)
    n = nabla_derivative(fg)
    (fs, gs), (fr, gr) = shift_sigma(fg).values, shift_rho(fg).values
    (fv, gv), (fd, gd), (fn, gn) = fg.values, d.values, n.values
    gaps = ts.gaps()
    a, b = ts.a, ts.b
    sa, rb = ts.sigma(a), ts.rho(b)
    boundary = fv[-1] * gv[-1] - fv[0] * gv[0]

    # both sides of the two integrations by parts, then f, its shift and
    # its derivative
    delta_rows = np.zeros((7, len(ts)))
    delta_rows[:, :-1] = (
        fs[:-1] * gd, fd * gv[:-1], fv[:-1] * gd, fd * gs[:-1], fv[:-1], fs[:-1], fd
    )
    nabla_rows = np.zeros((7, len(ts)))
    nabla_rows[:, 1:] = (
        fr[1:] * gn, fn * gv[1:], fv[1:] * gn, fn * gr[1:], fv[1:], fr[1:], fn
    )
    di = delta_integral(GridFunction(ts, delta_rows))
    ni = nabla_integral(GridFunction(ts, nabla_rows))

    # the two sides of each identity: one-value lists, or one value per point
    sides = {
        "ibp_sigma_delta": ([di[0]], [boundary - di[1]]),
        "ibp_plain_delta": ([di[2]], [boundary - di[3]]),
        "ibp_rho_nabla": ([ni[0]], [boundary - ni[1]]),
        "ibp_plain_nabla": ([ni[2]], [boundary - ni[3]]),
        # f^nabla(t) = f^Delta(rho(t)) and f^Delta(t) = f^nabla(sigma(t)),
        # each over the points of the left-hand derivative's own domain
        "nabla_from_delta": (fn, _at_jump(ts, d, n.scale.points, -1)[0]),
        "delta_from_nabla": (fd, _at_jump(ts, n, d.scale.points, 1)[0]),
        "delta_to_nabla": ([di[4]], [ni[5]]),
        "nabla_to_delta": ([ni[4]], [di[5]]),
        "split_delta_at_b": ([di[4]], [delta_integral(f, a, rb) + (b - rb) * f.value_at(rb)]),
        "split_delta_at_a": ([di[4]], [(sa - a) * f.value_at(a) + delta_integral(f, sa, b)]),
        "split_nabla_at_b": ([ni[4]], [nabla_integral(f, a, rb) + (b - rb) * f.value_at(b)]),
        "split_nabla_at_a": ([ni[4]], [(sa - a) * f.value_at(sa) + nabla_integral(f, sa, b)]),
        "sigma_from_delta": (fs[:-1], fv[:-1] + gaps * fd),
        "rho_from_nabla": (fr[1:], fv[1:] - gaps * fn),
        "ftc_delta": ([di[6]], [fv[-1] - fv[0]]),
        "ftc_nabla": ([ni[6]], [fv[-1] - fv[0]]),
    }
    return dict(zip(sides, _rel_errors(sides.values()).tolist()))


def identity_suite(trials: int = 200, seed: int = 0) -> dict[str, float]:
    """Worst relative error per identity over random scales and functions,
    each scale drawn by ``random_scale`` with its default shape.  Its points
    stay below 5 + 49 * 10 in magnitude, where four float spacings come to
    4.4e-13, far under the least gap 1e-3, so they stay strictly increasing."""
    if trials < 0:
        raise DomainError(f"trials must be nonnegative, got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in IDENTITY_NAMES}
    for _ in range(trials):
        ts = random_scale(rng)
        f = random_grid_function(rng, ts)
        g = random_grid_function(rng, ts)
        for name, err in check_trial(ts, f, g).items():
            if err > worst[name]:
                worst[name] = err
    return worst
