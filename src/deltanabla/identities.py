"""Randomized checks of the exact finite-scale calculus identities.

Every identity here is an algebraic rearrangement of the same finite sums,
so it holds to floating-point accuracy on any finite scale.  The suite
draws random scales and random grid functions, evaluates both sides of
each identity through the public operations, and reports the worst
relative error per identity.  It backs the ``identities`` CLI command and
the acceptance tests.

Each trial only collects its sides; the suite turns them into errors a
block of trials at a time, in one elementwise pass and one segmented max.
Max is exact, so the suite's worst errors are the per-trial errors of
``check_trial`` on the same draws, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ScaleMismatchError
from .timescale import (
    GridFunction,
    TimeScale,
    _integer,
    _one_function,
    _real,
    delta_derivative,
    delta_integral,
    nabla_derivative,
    nabla_integral,
    shift_rho,
    shift_sigma,
)

__all__ = [
    "FAMILIES",
    "IDENTITY_NAMES",
    "identity_suite",
    "random_grid_function",
    "random_scale",
]

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

# ``_sides`` gives the twelve identities with one value a side in
# ``IDENTITY_NAMES`` order, then these four, with one value per point of a
# derivative's domain.  ``_TO_NAMES`` maps that order to ``IDENTITY_NAMES``.
_POINTWISE = ("nabla_from_delta", "delta_from_nabla", "sigma_from_delta", "rho_from_nabla")
_SIDE_ORDER = tuple(name for name in IDENTITY_NAMES if name not in _POINTWISE) + _POINTWISE
_TO_NAMES = np.array([_SIDE_ORDER.index(name) for name in IDENTITY_NAMES])

# Trials whose sides are held and reduced at once: enough to spread the
# reduction's fixed cost, few enough to keep the suite's memory small.
_BLOCK = 32


def random_scale(
    rng: np.random.Generator,
    min_points: int = 2,
    max_points: int = 50,
    min_gap: float = 1e-3,
    max_gap: float = 10.0,
) -> TimeScale:
    """A random finite scale of min_points to max_points points, with log-uniform gaps in [min_gap, max_gap]."""
    lo, hi = _integer(min_points, "min_points"), _integer(max_points, "max_points")
    small, large = _real(min_gap, "min_gap"), _real(max_gap, "max_gap")
    if not (1 <= lo <= hi and 0.0 < small <= large):
        raise DomainError("random_scale needs 1 <= min_points <= max_points and 0 < min_gap <= max_gap, "
                          f"got {lo}, {hi}, {small!r} and {large!r}")
    n = int(rng.integers(lo, hi + 1))
    gaps = np.exp(rng.uniform(np.log(small), np.log(large), n - 1))
    start = rng.uniform(-5.0, 5.0)
    points = np.zeros(n)
    np.cumsum(gaps, out=points[1:])
    points += start
    return TimeScale(points)


def random_grid_function(
    rng: np.random.Generator, ts: TimeScale, lo: float = -1.0, hi: float = 1.0
) -> GridFunction:
    return GridFunction(ts, rng.uniform(lo, hi, len(ts)))


def _at_jump(ts: TimeScale, f: GridFunction, t: np.ndarray, step: int) -> np.ndarray:
    """f at sigma(t) (step 1) or rho(t) (step -1) for points t of ts, looked
    up in one pass along the last axis; NaN where the jumped point is off
    f's domain."""
    i = ts.points.searchsorted(t) + step
    jumped = ts.points[np.minimum(np.maximum(i, 0), len(ts) - 1)]
    pts = f.scale.points
    i = np.minimum(pts.searchsorted(jumped), len(pts) - 1)
    return np.where(pts[i] == jumped, f.values[..., i], np.nan)


def _sides(ts: TimeScale, f: GridFunction, g: GridFunction) -> tuple[list, list]:
    """Both sides of every identity for one scale and one pair f, g, in
    ``_SIDE_ORDER``: a left list and a right list, each the twelve
    one-value sides as one array followed by the four pointwise sides.

    The pair is differentiated and shifted as one stack.  The full-range
    delta integrands are integrated as one stack, zero at b where a delta
    integral does not read them, and the nabla integrands likewise, zero
    at a.
    """
    for h, what in ((f, "check_trial's f"), (g, "check_trial's g")):
        _one_function(h, what)
        if h.scale != ts:
            raise ScaleMismatchError(f"{what} lives on {h.scale!r}, not on {ts!r}")
    fg = GridFunction(ts, (f.values, g.values))
    d = delta_derivative(fg)
    n = nabla_derivative(fg)
    (fs, gs), (fr, gr) = shift_sigma(fg).values, shift_rho(fg).values
    (fv, gv), (fd, gd), (fn, gn) = fg.values, d.values, n.values
    gaps = ts.gaps()
    (a, sa), (rb, b) = ts.points[:2].tolist(), ts.points[-2:].tolist()
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

    # f at a, sigma(a), rho(b) and b is fv[0], fv[1], fv[-2] and fv[-1]
    one_value = (
        (di[0], boundary - di[1]),  # ibp_sigma_delta
        (di[2], boundary - di[3]),  # ibp_plain_delta
        (ni[0], boundary - ni[1]),  # ibp_rho_nabla
        (ni[2], boundary - ni[3]),  # ibp_plain_nabla
        (di[4], ni[5]),  # delta_to_nabla
        (ni[4], di[5]),  # nabla_to_delta
        (di[4], delta_integral(f, a, rb) + (b - rb) * fv[-2]),  # split_delta_at_b
        (di[4], (sa - a) * fv[0] + delta_integral(f, sa, b)),  # split_delta_at_a
        (ni[4], nabla_integral(f, a, rb) + (b - rb) * fv[-1]),  # split_nabla_at_b
        (ni[4], (sa - a) * fv[1] + nabla_integral(f, sa, b)),  # split_nabla_at_a
        (di[6], fv[-1] - fv[0]),  # ftc_delta
        (ni[6], fv[-1] - fv[0]),  # ftc_nabla
    )
    lhs, rhs = np.array(one_value).T
    # f^nabla(t) = f^Delta(rho(t)) and f^Delta(t) = f^nabla(sigma(t)), each
    # over the points of the left-hand derivative's own domain, then the
    # shifts recovered from the derivatives
    return (
        [lhs, fn, fd, fs[:-1], fr[1:]],
        [
            rhs,
            _at_jump(ts, d, n.scale.points, -1)[0],
            _at_jump(ts, n, d.scale.points, 1)[0],
            fv[:-1] + gaps * fd,
            fv[1:] - gaps * fn,
        ],
    )


def _worst(block: list[tuple[list, list]]) -> np.ndarray:
    """The worst relative error |lhs - rhs| / max(1, |lhs|, |rhs|) of each
    identity over a block of trials' sides, in ``IDENTITY_NAMES`` order:
    one elementwise pass over every side of the block, one segmented max
    per identity and trial, then a max over the trials.  NaN must not
    pass, so it counts as inf."""
    lhs = np.concatenate([side for left, _ in block for side in left])
    rhs = np.concatenate([side for _, right in block for side in right])
    lengths = np.ones((len(block), len(_SIDE_ORDER)), dtype=np.intp)
    lengths[:, -len(_POINTWISE):] = [[len(left[1])] for left, _ in block]
    starts = np.cumsum(lengths) - lengths.ravel()
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    err = np.maximum.reduceat(np.abs(lhs - rhs) / scale, starts)
    err = err.reshape(lengths.shape).max(axis=0)[_TO_NAMES]
    return np.where(np.isnan(err), math.inf, err)


def check_trial(ts: TimeScale, f: GridFunction, g: GridFunction) -> dict[str, float]:
    """Relative error of every identity for one scale and one pair f, g of
    functions on it.  An f or g on another scale raises a
    ScaleMismatchError, and a stack a DomainError."""
    return dict(zip(IDENTITY_NAMES, _worst([_sides(ts, f, g)]).tolist()))


def identity_suite(trials: int = 200, seed: int = 0) -> dict[str, float]:
    """Worst relative error per identity over random scales and functions,
    each scale drawn by ``random_scale`` with its default shape.  Its points
    stay below 5 + 49 * 10 in magnitude, where four float spacings come to
    4.4e-13, far under the least gap 1e-3, so they stay strictly increasing.
    The sides are reduced ``_BLOCK`` trials at a time."""
    trials = _integer(trials, "trials", nonnegative=True)
    rng = np.random.default_rng(_integer(seed, "seed", nonnegative=True))
    worst = np.zeros(len(IDENTITY_NAMES))
    for first in range(0, trials, _BLOCK):
        block = []
        for _ in range(min(_BLOCK, trials - first)):
            ts = random_scale(rng)
            f = random_grid_function(rng, ts)
            g = random_grid_function(rng, ts)
            block.append(_sides(ts, f, g))
        worst = np.maximum(worst, _worst(block))
    return dict(zip(IDENTITY_NAMES, worst.tolist()))
