"""Finite time scales and the delta/nabla calculus on them.

A time scale is represented by its finite, strictly increasing set of points
t_0 < t_1 < ... < t_M.  On such a set every delta and nabla derivative is an
exact difference quotient and every integral is a finite weighted sum, so the
classical identities (integration by parts, derivative and integral
conversions, endpoint splitting, the fundamental theorem) hold exactly and
can be checked numerically to machine precision.

Conventions: sigma(b) = b and rho(a) = a at the endpoints, hence mu(b) = 0
and nu(a) = 0.  Truncated domains are ordinary time scales again: the delta
derivative of f lives on the scale with the last point removed, the nabla
derivative on the scale with the first point removed.

Both kinds share one two-point stencil on the gaps, and this module's
``_STENCIL`` table is the one place where they differ: which end of a gap
a quantity is read at, which end holds the state, and the derivative's
domain.  Derivatives, integrals, the Dubois-Reymond probe and, in the
other modules, the variational terms, the directional residual and the
extension's slopes all read that table and the one slope ``_slopes``.

A grid function may hold a stack of functions on one scale, one per row of
a (k, len(scale)) array.  Derivatives and shifts act along the last axis,
integrals reduce along it, and each row of a stacked result equals, bit
for bit, the result for that row on its own.  Every other function takes
one function and rejects a stack with a DomainError naming its shape.

The Dubois-Reymond constraint matrix has one row per hat variation: the
gaps times the hat's delta or nabla derivative, which is +1 and -1 (up to
rounding) next to the hat's point and 0 elsewhere.  The hats form one
stack, so the matrix is one derivative call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, ScaleMismatchError


class DomainTag(Enum):
    """Named truncations of a time scale.

    FULL is the scale itself; KAPPA drops the maximum (domain of the delta
    derivative), KAPPA_SUB drops the minimum (domain of the nabla
    derivative), KAPPA_BOTH drops both, and the SQUARED variants apply the
    same truncation twice (domains of second-order quantities).
    """

    FULL = (0, 0)
    KAPPA = (0, 1)
    KAPPA_SUB = (1, 0)
    KAPPA_BOTH = (1, 1)
    KAPPA_SQUARED = (0, 2)
    KAPPA_SUB_SQUARED = (2, 0)

    @property
    def drop_left(self) -> int:
        return self.value[0]

    @property
    def drop_right(self) -> int:
        return self.value[1]


class TimeScale:
    """A finite strictly increasing set of real time points.

    The points and their gaps are computed once, validated and stored
    read-only.
    """

    __slots__ = ("points", "_gaps")

    def __init__(self, points: Iterable[float]):
        pts = np.array(points if isinstance(points, np.ndarray) else list(points), dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise DomainError("a time scale needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise DomainError("time scale points must be finite")
        gaps = np.diff(pts)
        if not np.all(gaps > 0):
            raise DomainError("time scale points must be strictly increasing")
        pts.setflags(write=False)
        gaps.setflags(write=False)
        self.points = pts
        self._gaps = gaps

    @classmethod
    def sampled_interval(cls, a: float, b: float, n: int) -> "TimeScale":
        """Uniform n-point sampling of the real interval [a, b].

        This is the only bridge to genuinely continuous domains: a dense
        interval is replaced by a uniform grid of spacing h = (b - a)/(n - 1).
        A solved trajectory approximates the continuous extremal to O(h)
        for a single delta or nabla term or unequal weights, and to O(h^2)
        for equal delta and nabla weights, which average the one-sided
        stencils into a centred one (measured on t*v^2 over [1, 2]).
        """
        if n < 2:
            raise DomainError("sampled_interval needs n >= 2")
        if not (math.isfinite(a) and math.isfinite(b)):  # before linspace warns on them
            raise DomainError(f"sampled_interval needs finite a and b, got {a!r} and {b!r}")
        if not b > a:
            raise DomainError("sampled_interval needs a < b")
        return cls(np.linspace(a, b, n))

    # -- basic queries ----------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return int(self.points.size)

    def __iter__(self):
        return iter(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t:g}" for t in self.points[:6])
        if len(self) > 6:
            inner += f", ... ({len(self)} points)"
        return f"TimeScale({{{inner}}})"

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, TimeScale):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self) -> int:
        return hash(self.points.tobytes())

    def index(self, t: float) -> int:
        """Index of t in the point set; exact comparison, no tolerance."""
        i = int(self.points.searchsorted(t))
        if i < len(self) and self.points[i] == t:
            return i
        raise DomainError(f"t={t!r} is not a point of {self!r}")

    def __contains__(self, t: float) -> bool:
        i = int(self.points.searchsorted(t))
        return i < len(self) and self.points[i] == t

    # -- jump operators and graininess ------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump: the next point of the scale, with sigma(b) = b."""
        i = self.index(t)
        return float(self.points[min(i + 1, len(self) - 1)])

    def rho(self, t: float) -> float:
        """Backward jump: the previous point, with rho(a) = a."""
        i = self.index(t)
        return float(self.points[max(i - 1, 0)])

    def mu(self, t: float) -> float:
        """Forward graininess mu(t) = sigma(t) - t (zero at b)."""
        return float(self.sigma(t) - t)

    def nu(self, t: float) -> float:
        """Backward graininess nu(t) = t - rho(t) (zero at a)."""
        return float(t - self.rho(t))

    # -- truncations -------------------------------------------------------

    def truncated(self, tag: DomainTag) -> "TimeScale":
        """The time scale restricted to the domain named by ``tag``.

        A truncation only removes an endpoint while more than one point
        remains (a one-point scale is its own truncation, matching
        sigma(b) = b and rho(a) = a).  The result shares this scale's
        points and gaps: a contiguous slice of them is valid as it stands.
        """
        n = self.points.size
        right = min(tag.drop_right, n - 1)
        left = min(tag.drop_left, n - 1 - right)
        ts = object.__new__(TimeScale)
        ts.points, ts._gaps = self.points[left : n - right], self._gaps[left : n - 1 - right]
        return ts

    @property
    def interior_points(self) -> np.ndarray:
        """Points strictly between a and b."""
        return self.points[1:-1]

    def gaps(self) -> np.ndarray:
        """Consecutive point spacings, length len(self) - 1: one read-only
        array, computed when the scale is built."""
        return self._gaps


class GridFunction:
    """Real values attached to the points of a time scale: one function, of
    shape (len(scale),), or a stack of k functions, of shape
    (k, len(scale))."""

    __slots__ = ("scale", "values")

    def __init__(self, scale: TimeScale, values: Iterable[float]):
        vals = np.array(values, dtype=float)
        if vals.ndim > 2 or vals.shape[-1:] != scale.points.shape:
            n = len(scale)
            raise DomainError(
                f"expected one function of shape ({n},) or a stack of shape (k, {n}) "
                f"for {scale!r}, got shape {vals.shape}"
            )
        if np.count_nonzero(np.isfinite(vals)) != vals.size:
            raise DomainError("grid function values must be finite")
        vals.setflags(write=False)
        self.scale = scale
        self.values = vals

    @classmethod
    def sample(cls, scale: TimeScale, fn: Callable[[float], float]) -> "GridFunction":
        return cls(scale, [fn(float(t)) for t in scale.points])

    @classmethod
    def constant(cls, scale: TimeScale, c: float) -> "GridFunction":
        return cls(scale, np.full(len(scale), float(c)))

    def value_at(self, t: float) -> float | np.ndarray:
        """The value at t: a float, or one value per row of a stack."""
        return _per_row(self.values[..., self.scale.index(t)])

    def __repr__(self) -> str:
        return f"GridFunction({self.scale!r}, {np.array2string(self.values, precision=6)})"

    # Pointwise vector-space operations, used throughout the variational code.

    def _check_same_scale(self, other: "GridFunction") -> None:
        if self.scale != other.scale:
            raise ScaleMismatchError("grid functions live on different scales")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        self._check_same_scale(other)
        return GridFunction(self.scale, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if not isinstance(other, GridFunction):
            return NotImplemented
        self._check_same_scale(other)
        return GridFunction(self.scale, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.scale, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.scale, -self.values)


# ---------------------------------------------------------------------------
# Derivatives, shifts, integrals
# ---------------------------------------------------------------------------


# Gap i joins points i and i+1 with slope (y_{i+1} - y_i) / gap_i.  A
# quantity of either kind reads the slope at t_e with the state y_s, where
# (e, s) = (i, i+1) for delta and (i+1, i) for nabla: each kind's slices e
# and s over the scale points, and the tag of e's points, which is the
# domain of the kind's derivative.
_STENCIL = {
    "delta": (slice(None, -1), slice(1, None), DomainTag.KAPPA),
    "nabla": (slice(1, None), slice(None, -1), DomainTag.KAPPA_SUB),
}


def _slopes(ts: TimeScale, y: np.ndarray) -> np.ndarray:
    """The stencil's slope of every gap, differenced along the last axis of
    y, so a stack gets one row of slopes each: the delta derivative's
    values and the nabla derivative's alike.  The slicing difference is
    ``np.diff``'s, bit for bit."""
    return (y[..., 1:] - y[..., :-1]) / ts.gaps()


def _one_function(f: GridFunction, what: str) -> None:
    """Reject a stack where only one function is meaningful."""
    if f.values.ndim != 1:
        raise DomainError(
            f"{what} must be one function of shape ({len(f.scale)},), "
            f"got a stack of shape {f.values.shape}"
        )


def _per_row(x: np.ndarray) -> float | np.ndarray:
    """A float for one function's 0-d result, the array for a stack's."""
    return float(x) if x.ndim == 0 else x


def _require_two_points(ts: TimeScale, what: str) -> None:
    if len(ts) < 2:
        raise DomainError(f"{what} needs a scale with at least two points")


def _derivative(f: GridFunction, kind: str) -> GridFunction:
    _require_two_points(f.scale, f"{kind}_derivative")
    return GridFunction(f.scale.truncated(_STENCIL[kind][2]), _slopes(f.scale, f.values))


def delta_derivative(f: GridFunction) -> GridFunction:
    """Forward difference quotient (f(sigma(t)) - f(t)) / mu(t).

    The result lives on the scale with the last point removed; asking it
    for a value at b raises a DomainError.
    """
    return _derivative(f, "delta")


def nabla_derivative(f: GridFunction) -> GridFunction:
    """Backward difference quotient (f(t) - f(rho(t))) / nu(t), on the scale
    with the first point removed."""
    return _derivative(f, "nabla")


def shift_sigma(f: GridFunction) -> GridFunction:
    """The composite f(sigma(t)); total, since sigma(b) = b."""
    v = f.values
    return GridFunction(f.scale, np.concatenate([v[..., 1:], v[..., -1:]], axis=-1))


def shift_rho(f: GridFunction) -> GridFunction:
    """The composite f(rho(t)); total, since rho(a) = a."""
    v = f.values
    return GridFunction(f.scale, np.concatenate([v[..., :1], v[..., :-1]], axis=-1))


def _integral(f: GridFunction, lo: float | None, hi: float | None, kind: str):
    """Sum of gap_i * f(t_e) over the gaps i between lo and hi, along the
    last axis."""
    _require_two_points(f.scale, f"{kind}_integral")
    ts = f.scale
    i_lo = 0 if lo is None else ts.index(lo)
    i_hi = len(ts) - 1 if hi is None else ts.index(hi)
    if i_lo > i_hi:
        raise DomainError("integration range has lo > hi")
    weighted = ts._gaps[i_lo:i_hi] * f.values[..., _STENCIL[kind][0]][..., i_lo:i_hi]
    return _per_row(np.add.reduce(weighted, axis=-1))


def delta_integral(
    f: GridFunction, lo: float | None = None, hi: float | None = None
) -> float | np.ndarray:
    """Sum of mu(t) * f(t) over [lo, hi) intersected with the scale.

    Exact on finite scales; defaults to the full range [a, b].  A float
    for one function, one value per row for a stack.
    """
    return _integral(f, lo, hi, "delta")


def nabla_integral(
    f: GridFunction, lo: float | None = None, hi: float | None = None
) -> float | np.ndarray:
    """Sum of nu(t) * f(t) over (lo, hi] intersected with the scale; a
    float for one function, one value per row for a stack."""
    return _integral(f, lo, hi, "nabla")


# ---------------------------------------------------------------------------
# Dubois-Reymond lemma as an executable probe
# ---------------------------------------------------------------------------


def hat_variation(ts: TimeScale, interior_index: int) -> GridFunction:
    """The variation that is 1 at one interior point and 0 elsewhere.

    These hats span every variation vanishing at both endpoints, so testing
    a linear condition against all of them tests it against the whole class.
    """
    try:
        i = operator.index(interior_index)
    except TypeError:
        raise DomainError(f"interior_index must be an integer, got {interior_index!r}") from None
    if not 1 <= i <= len(ts) - 2:
        raise DomainError(f"index {i} is not interior to {ts!r}")
    v = np.zeros(len(ts))
    v[i] = 1.0
    return GridFunction(ts, v)


def _hat_basis(ts: TimeScale) -> GridFunction:
    """Every hat variation as one stack: row j - 1 is ``hat_variation(ts, j)``."""
    n = len(ts)
    return GridFunction(ts, np.eye(n - 2, n, k=1))


def variation_constraint_matrix(ts: TimeScale, kind: str) -> np.ndarray:
    """Matrix of the linear functionals f -> integral of f * eta' over the
    hat-variation basis.

    Row j holds the coefficients of the j-th hat variation against the
    values of f on the derivative's domain (the scale minus b for "delta",
    minus a for "nabla"): the gaps times the hat's derivative, which is +1
    and -1 (up to rounding) on the two gaps next to the hat's point and 0
    elsewhere.  All hats are differentiated at once, as one stack.  The
    lemma's finite-scale content is that the null space of this matrix is
    exactly the constants.
    """
    if len(ts) < 3:
        raise DomainError("no interior points, so no admissible variations")
    if kind not in _STENCIL:
        raise ValueError(f"kind must be 'delta' or 'nabla', got {kind!r}")
    return ts.gaps() * _derivative(_hat_basis(ts), kind).values


@dataclass(frozen=True)
class DuboisReymondReport:
    """Outcome of probing the Dubois-Reymond lemma on one grid function."""

    kind: str
    integrals: np.ndarray
    all_vanish: bool
    constant: bool
    witness: str | None


DUBOIS_REYMOND_TOL = 1e-10  # integrals and spread within this, relative to max(1, max |f|), count as zero


def dubois_reymond_probe(f: GridFunction, kind: str) -> DuboisReymondReport:
    """Check the Dubois-Reymond lemma constructively.

    Computes the integral of f against the derivative of every hat
    variation vanishing at the endpoints.  If all of them vanish, the lemma
    forces f to be constant on the derivative's domain; a non-constant f
    passing all integrals would falsify this implementation (not the
    lemma) and is reported through ``witness``.
    """
    _one_function(f, "dubois_reymond_probe's f")
    ts = f.scale
    matrix = variation_constraint_matrix(ts, kind)
    domain_values = f.values[_STENCIL[kind][0]]
    integrals = matrix @ domain_values
    scale = max(1.0, float(np.max(np.abs(domain_values))))
    all_vanish = bool(np.max(np.abs(integrals)) <= DUBOIS_REYMOND_TOL * scale)
    spread = float(np.max(domain_values) - np.min(domain_values))
    constant = spread <= DUBOIS_REYMOND_TOL * scale

    witness = None
    if all_vanish and not constant:
        witness = (
            "all variation integrals vanish but values spread by "
            f"{spread:.3e}; implementation inconsistent"
        )
    elif not all_vanish:
        j = int(np.argmax(np.abs(integrals)))
        t_j = ts.points[j + 1]
        witness = f"variation at t={t_j:g} gives integral {integrals[j]:.3e}"
    return DuboisReymondReport(kind, integrals, all_vanish, constant, witness)
