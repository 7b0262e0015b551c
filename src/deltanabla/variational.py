"""Weighted delta-nabla variational problems on finite time scales.

A problem extremizes a weighted sum of a delta integral of
L_delta(t, y^sigma, y^Delta) and a nabla integral of
L_nabla(t, y^rho, y^nabla) over trajectories with fixed endpoint values.
On a finite scale the functional is a smooth function of the interior
trajectory values, so stationary points are found by a damped Newton
method on the gradient, and both integral forms of the Euler-Lagrange
condition can be evaluated exactly as "deviation from constancy"
residuals.  Jointly convex integrands with nonnegative weights upgrade a
stationary point to a global minimizer; a sampled Hessian check issues
that certificate, on numpy arrays of exact second partials for expression
Lagrangians.

Each Newton iteration probes one difference Hessian.  Every gradient row
reads only its own point and its two neighbours, so that Hessian is
tridiagonal: it is kept as its diagonal and off-diagonal and solved in
O(n) by elimination with partial pivoting.  It serves the Newton step and
at most one chord step, taken only after a full-length Newton step that
at least halved max|g|, and never when max|g| is already within the
gradient tolerance, nor when the chord step is a rounding-level move of
the trajectory, nor after a steepest-descent step.  A solution's
``iterations`` counts Hessians, and ``solve``'s max_iter bounds them.
The stopping rule on max|g| is the one without chord steps, so how far a
solution lands below tol moves case by case with the path.  The
trajectories ``solve`` builds itself, each probe (a new copy of the
iterate with one entry moved), each line-search trial and each iterate,
are new finite arrays that it owns: they become read-only grid functions
as they stand, not copied and checked again as a caller's are.

Every delta term and every nabla term is one two-point stencil,
sum_i gap_i * L(t_e, y_s, (y_{i+1} - y_i) / gap_i), with (e, s) = (i, i+1)
for delta and (i+1, i) for nabla, read off the stencil table of
``timescale``.  A problem lays out each active term's stencil row once,
when it is built: the term, its slices e and s, the points t_e and the
gaps at e.  The objective, the gradient, the first variation and the
Euler-Lagrange forms all read those rows, so the two kinds differ in
that table alone.  The first Euler-Lagrange form at sigma(t)
equals the second at t: both forms hold the same values on shifted
domains, and ``residual_el1 == residual_el2``.

The machinery is written for an arbitrary finite list of weighted terms;
the two-term delta-nabla problem is the m = 2 case, and a directional
problem (``directional.DirectionalProblem``) the m = 1 case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    EvaluationError,
    ScaleMismatchError,
)
from . import expressions
from .timescale import _STENCIL, DomainTag, GridFunction, TimeScale, _integer, _one_function, _real, _slopes

__all__ = [
    "Certificate",
    "DeltaNablaProblem",
    "Lagrangian",
    "Solution",
    "Term",
    "TermSumProblem",
    "certify",
    "el_residual_1",
    "el_residual_2",
    "first_variation",
    "gradient",
    "linear_interpolant",
    "local_min_probe",
    "norm_1_inf",
    "objective",
    "solve",
]

FD_STEP = 1e-6  # central-difference step factor, times max(1, |x|)
CHORD_FLOOR = 4.0  # no chord step d unless max|d| > this * eps * max(1, max|x|)
HESSIAN = ("yy", "yv", "vv")  # the keys of the second partials in Lagrangian._on_arrays


def _fd_step(x: float) -> float:
    return FD_STEP * max(1.0, abs(x))


def _central(f: Callable, t, y, v, hy, hv):
    """Central difference of f(t, y, v) in y (step hy, hv = 0) or in v (hv, hy = 0),
    on floats or on arrays."""
    return (f(t, y + hy, v + hv) - f(t, y - hy, v - hv)) / (2.0 * (hy + hv))


class Lagrangian:
    """An integrand L(t, y, v) with partial derivatives in slots 2 and 3.

    Partials are analytic when the Lagrangian comes from a parsed
    expression (or is given explicit derivative callables); a partial not
    given is a central difference of the guarded integrand, checked like
    a given one.  ``source`` records which: "analytic" when ``d2`` is
    given, "numeric" when it is not.
    The value and the partials take Python floats.  ``values``,
    ``partials`` and ``hessian`` take arrays, and all three follow one
    rule, whatever built the Lagrangian: one unchecked fast pass over
    every sample under the domain rule, checked once, and on a fault a
    naming pass that raises the error of the first failing sample (see
    ``_on_arrays``).
    """

    __slots__ = ("_fn", "_d2", "_d3", "_fast", "_trees", "source", "text")

    def __init__(
        self,
        fn: Callable[[float, float, float], float],
        d2: Callable[[float, float, float], float] | None = None,
        d3: Callable[[float, float, float], float] | None = None,
    ):
        if not callable(fn):
            raise ConfigurationError("Lagrangian needs a callable integrand")
        if not all(f is None or callable(f) for f in (d2, d3)):
            raise ConfigurationError("Lagrangian needs callable partials d2 and d3, or None")
        self._fn = fn
        self._d2 = d2 if d2 is not None else lambda t, y, v: _central(self, t, y, v, _fd_step(y), 0.0)
        self._d3 = d3 if d3 is not None else lambda t, y, v: _central(self, t, y, v, 0.0, _fd_step(v))
        self.source = "analytic" if d2 is not None else "numeric"
        # the fast array pass (keys, t, y, v) -> arrays; trees and text: an expression's
        self._fast = self._by_scalars
        self._trees = self.text = None

    @classmethod
    def from_expression(cls, src: str) -> "Lagrangian":
        """Parse an expression over t, y, v and differentiate it symbolically,
        twice for the second partials of ``hessian``."""
        tree = expressions.parse(src)
        diff = expressions.differentiate
        d2, d3 = diff(tree, "y"), diff(tree, "v")
        trees = {"L": tree, "d2": d2, "d3": d3,
                 "yy": diff(d2, "y"), "yv": diff(d2, "v"), "vv": diff(d3, "v")}
        lag = cls(*(expressions.compile_expr(trees[key]) for key in ("L", "d2", "d3")))
        kernels = {
            keys: expressions.compile_kernel([trees[key] for key in keys])
            for keys in (("L",), ("d2", "d3"), HESSIAN)
        }
        lag._fast = lambda keys, t, y, v: kernels[keys](t, y, v)
        lag._trees = trees
        lag.text = src
        return lag

    def _guard(self, raw: Callable, t: float, y: float, v: float, what: str) -> float:
        try:
            out = raw(t, y, v)
            if math.isfinite(out):
                return out
            why = " is not finite"
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            why = f": {exc}"
        if self._trees is not None:  # any failure: the tree of ``what`` names its cause
            expressions.evaluate(self._trees[what], t, y, v)
        raise EvaluationError(f"{what}({t!r}, {y!r}, {v!r}){why}")

    def __call__(self, t: float, y: float, v: float) -> float:
        return self._guard(self._fn, t, y, v, "L")

    def d2(self, t: float, y: float, v: float) -> float:
        """Partial derivative with respect to the second slot."""
        return self._guard(self._d2, t, y, v, "d2")

    def d3(self, t: float, y: float, v: float) -> float:
        """Partial derivative with respect to the third slot."""
        return self._guard(self._d3, t, y, v, "d3")

    def _raw(self, key: str) -> Callable[[float, float, float], float]:
        """The unchecked scalar function of ``key``, L, d2 or d3: the
        callable in its slot, read now so that a rebound slot is the one
        called."""
        return {"L": self._fn, "d2": self._d2, "d3": self._d3}[key]

    def _by_scalars(self, keys: tuple[str, ...], t, y, v) -> tuple[np.ndarray, ...]:
        """The fast pass of a Lagrangian built from callables: the raw
        scalar function of each key streamed over the samples, and for
        ``HESSIAN`` one central difference of the stacked ``partials`` in y
        and one in v, the mixed partial symmetrized."""
        if keys != HESSIAN:
            return _stream([self._raw(key) for key in keys], t, y, v)
        y, v = np.asarray(y, float), np.asarray(v, float)

        def d23(t, y, v):
            return np.stack(self.partials(t, y, v))

        hy, hv = (FD_STEP * np.maximum(1.0, np.abs(x)) for x in (y, v))
        yy, d3y = _central(d23, t, y, v, hy, 0.0)
        d2v, vv = _central(d23, t, y, v, 0.0, hv)
        return yy, 0.5 * (d2v + d3y), vv

    def _on_arrays(self, keys: tuple[str, ...], t, y, v) -> tuple[np.ndarray, ...]:
        """The functions named by ``keys``, ``("L",)``, ``("d2", "d3")`` or
        ``HESSIAN``, at every sample of the broadcast arrays t, y and v, one
        array of the broadcast shape each.

        The fast pass ``_fast`` evaluates them without per-sample checks:
        a parsed expression's kernel compiled for ``keys``, a reduced
        directional integrand's scaled pass, or ``_by_scalars`` for a
        Lagrangian built from callables.  It runs under the domain rules of
        ``expressions.evaluate``: a floating-point fault other than
        underflow fails even where IEEE arithmetic would carry on to a
        finite result, and so does a non-finite entry.  On any failure a
        naming pass takes the samples one at a time, so the error raised
        is the first failing sample's: on a parsed expression's trees,
        which name the failing subexpression; for L, d2 and d3 of any other
        Lagrangian through the guarded scalar functions, whose result it
        returns when none raises; for its Hessian through the fast pass on
        each sample as arrays of shape (1,), which raises that sample's own
        ``EvaluationError`` (an inner Lagrangian's passes through) or a new
        one naming the keys, the sample and the fault.
        """
        try:
            with np.errstate(all="raise", under="ignore"):
                out = self._fast(keys, t, y, v)
            if all(np.count_nonzero(np.isfinite(a)) == a.size for a in out):
                return out
            fault = "a non-finite result"
        except Exception as exc:  # whatever a raw callable raises, the naming pass raises in order
            fault = exc
        what = "/".join(keys)
        if self._trees is not None:
            for s in zip(*_samples(t, y, v)[1]):
                for key in keys:
                    expressions.evaluate(self._trees[key], *s)
            raise EvaluationError(f"{what} of {self.text!r}: {fault}")
        if keys != HESSIAN:
            return _stream([self if key == "L" else getattr(self, key) for key in keys], t, y, v)
        shape, columns = _samples(t, y, v)
        if math.prod(shape) == 1:  # the one sample: its own error, or one that names it
            if isinstance(fault, EvaluationError):
                raise fault
            raise EvaluationError(f"{what}({', '.join(repr(c[0]) for c in columns)}): {fault}")
        for sample in zip(*(np.asarray(c)[:, None] for c in columns)):
            self._on_arrays(keys, *sample)
        raise EvaluationError(f"{what}: {fault}")

    def values(self, t, y, v) -> np.ndarray:
        """L at every sample of the broadcast arrays t, y and v."""
        (out,) = self._on_arrays(("L",), t, y, v)
        return out

    def partials(self, t, y, v) -> tuple[np.ndarray, np.ndarray]:
        """(d2, d3) at every sample of the broadcast arrays t, y and v."""
        return self._on_arrays(("d2", "d3"), t, y, v)

    def hessian(self, t, y, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second partials (yy, yv, vv) at every sample of the broadcast
        arrays t, y and v, under the rule of ``values``: exact for a parsed
        expression; u^3 times the inner L's at (t, u*y, u*v) for
        ``directional.reduced_lagrangian(L, u)``; for a Lagrangian built
        from callables one central difference of the stacked partials in y
        and one in v, the mixed partial symmetrized."""
        return self._on_arrays(HESSIAN, t, y, v)


def _samples(t, y, v) -> tuple[tuple[int, ...], list[list[float]]]:
    """The broadcast shape of t, y and v, and each flattened to a column,
    one list of Python floats."""
    arrays = [np.asarray(a, float) for a in (t, y, v)]
    if not arrays[0].shape == arrays[1].shape == arrays[2].shape:
        arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [a.ravel().tolist() for a in arrays]


def _stream(fns: Sequence[Callable], t, y, v) -> tuple[np.ndarray, ...]:
    """Each scalar function of fns at every sample of the broadcast arrays
    t, y and v, one array of the broadcast shape each: function after
    function, each over the samples in order, on Python floats read once
    for them all."""
    shape, columns = _samples(t, y, v)
    count = math.prod(shape)
    return tuple(
        np.fromiter(itertools.starmap(fn, zip(*columns)), float, count=count).reshape(shape)
        for fn in fns
    )


@dataclass(frozen=True)
class Term:
    """One weighted integral term: delta or nabla kind."""

    weight: float
    lagrangian: Lagrangian
    kind: str  # "delta" or "nabla"

    def __post_init__(self):
        if not isinstance(self.lagrangian, Lagrangian):
            raise ConfigurationError(
                f"a term needs a Lagrangian, got {type(self.lagrangian).__name__}"
            )
        if self.kind not in _STENCIL:
            raise ValueError(f"kind must be 'delta' or 'nabla', got {self.kind!r}")


class TermSumProblem:
    """Extremize a finite sum of weighted delta/nabla integral terms with
    fixed endpoint values y(a) = alpha, y(b) = beta."""

    def __init__(self, scale: TimeScale, terms: Sequence[Term], alpha: float, beta: float):
        if len(scale) < 3:
            raise DomainError("the scale needs at least one interior point")
        self.terms = tuple(terms)
        for i, term in enumerate(self.terms):
            _real(term.weight, f"weight of term {i}")
        self.alpha, self.beta = _real(alpha, "alpha"), _real(beta, "beta")
        self.active_terms = tuple(term for term in self.terms if term.weight != 0.0)
        if not self.active_terms:
            raise DomainError("all term weights vanish; nothing to extremize")
        self.scale = scale
        # each active term's stencil row: the term, its slices e and s, the
        # points t_e and the gaps at e, which weigh d2 at the interior points
        self._stencils = tuple(
            (term, e, s, scale.points[e], scale.gaps()[e])
            for term in self.active_terms
            for e, s, _ in [_STENCIL[term.kind]]
        )


class DeltaNablaProblem(TermSumProblem):
    """The two-term problem: gamma1 times the delta term plus gamma2 times
    the nabla term."""

    def __init__(
        self,
        scale: TimeScale,
        gamma1: float,
        gamma2: float,
        L_delta: Lagrangian,
        L_nabla: Lagrangian,
        alpha: float,
        beta: float,
    ):
        super().__init__(
            scale,
            [Term(gamma1, L_delta, "delta"), Term(gamma2, L_nabla, "nabla")],
            alpha,
            beta,
        )


# ---------------------------------------------------------------------------
# Functional evaluation
# ---------------------------------------------------------------------------


def _check_scales(p: TermSumProblem, y: GridFunction) -> None:
    _one_function(y, "a trajectory")
    if y.scale != p.scale:
        raise ScaleMismatchError("trajectory scale differs from the problem scale")


def _term_partials(
    p: TermSumProblem, y: GridFunction
) -> Iterator[tuple[Term, slice, slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Check y's scale, then yield each active term with its stencil slices
    e and s, its gaps at e, and its partials d2 and d3 at y, one value per
    gap."""
    _check_scales(p, y)
    values = y.values
    slope = _slopes(p.scale, values)
    for term, e, s, t_e, gaps_e in p._stencils:
        d2, d3 = term.lagrangian.partials(t_e, values[s], slope)
        yield term, e, s, gaps_e, d2, d3


def _objectives(p: TermSumProblem, ys: np.ndarray) -> np.ndarray:
    """The objective at every trajectory of ys, a stack of value arrays on
    the problem's scale along its last axis: one call per term for the
    whole stack.  Each row's gap * L sum is accumulated left to right by
    ``np.cumsum``, whatever the Python and the numpy, never pairwise or
    compensated."""
    gaps = p.scale.gaps()
    total = np.zeros(ys.shape[:-1])
    slope = _slopes(p.scale, ys)
    for term, _, s, t_e, _ in p._stencils:
        values = term.lagrangian.values(t_e, ys[..., s], slope)
        total += term.weight * np.cumsum(gaps * values, axis=-1)[..., -1]
    return total


def objective(p: TermSumProblem, y: GridFunction) -> float:
    """Value of the functional at an arbitrary trajectory on the problem's
    scale (boundary values need not match the problem's): the one-row case
    of the stacked objective, so each term's gap * L values are summed
    left to right."""
    _check_scales(p, y)
    return float(_objectives(p, y.values))


def _el_form(p: TermSumProblem, y: GridFunction) -> np.ndarray:
    """The mean-subtracted Euler-Lagrange form, one value per gap.

    Each term contributes d3 minus the running integral of d2 up to t_e,
    which is a delta integral up to t (delta) or a nabla integral up to
    sigma(t) (nabla), for the gap starting at t.
    """
    ts = p.scale
    F = np.zeros(len(ts) - 1)
    for term, e, _, _, d2, d3 in _term_partials(p, y):
        prefix = np.concatenate([[0.0], np.cumsum(ts.gaps() * d2)])
        F += term.weight * (d3 - prefix[e])
    return F - np.mean(F)


def el_residual_1(p: TermSumProblem, y: GridFunction) -> GridFunction:
    """First Euler-Lagrange form, as deviation from constancy on the scale
    minus its minimum.

    Each delta term contributes d3 at rho(t) minus the delta integral of d2
    up to rho(t); each nabla term contributes d3 at t minus the nabla
    integral of d2 up to t.  At an extremizer the sum is constant, so the
    mean-subtracted values vanish.  At sigma(t) this form equals the second
    form at t, so both share one array.
    """
    return GridFunction(p.scale.truncated(DomainTag.KAPPA_SUB), _el_form(p, y))


def el_residual_2(p: TermSumProblem, y: GridFunction) -> GridFunction:
    """Second Euler-Lagrange form, mean-subtracted, on the scale minus its
    maximum.

    Delta terms contribute d3 at t minus the delta integral of d2 up to t;
    nabla terms contribute d3 at sigma(t) minus the nabla integral of d2 up
    to sigma(t).
    """
    return GridFunction(p.scale.truncated(DomainTag.KAPPA), _el_form(p, y))


def first_variation(p: TermSumProblem, y: GridFunction, eta: GridFunction) -> float:
    """Derivative at 0 of epsilon -> objective(y + epsilon * eta), assembled
    from the partials (d2 against the shifted eta, d3 against its derivative)."""
    _check_scales(p, eta)
    ts = p.scale
    ev = eta.values
    total = 0.0
    for term, _, s, _, d2, d3 in _term_partials(p, y):
        total += term.weight * float(ts.gaps() * d2 @ ev[s] + d3 @ np.diff(ev))
    return total


def gradient(p: TermSumProblem, y: GridFunction) -> np.ndarray:
    """Gradient of the functional with respect to the interior trajectory
    values; stationarity of these is exactly constancy of both
    Euler-Lagrange forms."""
    g = np.zeros(len(p.scale) - 2)
    for term, e, _, gaps_e, d2, d3 in _term_partials(p, y):
        # gap * d2 lands on the state point, which is interior for the gaps
        # that e picks, all but the gap that ends (delta) or starts (nabla)
        # at an endpoint; d3 enters each gap's right end and leaves its left
        # end.  At each interior point the three are summed in this order
        interior = gaps_e * d2[e] + d3[:-1]
        interior -= d3[1:]
        g += term.weight * interior
    return g


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


class Certificate(str, Enum):
    NONE = "none"
    GLOBAL_MIN = "global-min"
    GLOBAL_MAX = "global-max"
    LOCAL_ONLY = "local-only"


@dataclass
class Solution:
    """A stationary trajectory with diagnostics.

    ``residual_el1`` and ``residual_el2`` are the max-abs of the two
    mean-subtracted Euler-Lagrange forms, which hold the same values and so
    are equal; ``converged`` is ``_verdict``'s: they are within the solve
    tolerance and the objective is finite.  ``iterations`` counts the
    difference Hessians ``solve`` probed, not its chord steps.
    """

    y: GridFunction
    objective: float
    residual_el1: float
    residual_el2: float
    certificate: Certificate
    iterations: int
    converged: bool


def linear_interpolant(p: TermSumProblem) -> GridFunction:
    """Straight line between (a, alpha) and (b, beta); the default start."""
    ts = p.scale
    frac = (ts.points - ts.a) / (ts.b - ts.a)
    return GridFunction(ts, p.alpha + (p.beta - p.alpha) * frac)


def _full(p: TermSumProblem, interior: np.ndarray) -> np.ndarray:
    """The interior values with alpha and beta at the ends, a new array."""
    vals = np.empty(interior.size + 2)
    vals[0], vals[1:-1], vals[-1] = p.alpha, interior, p.beta
    return vals


def _owned(ts: TimeScale, values: np.ndarray) -> GridFunction:
    """A GridFunction on ts holding values, a new finite array of ts's shape
    that nothing else holds, as ``solve`` builds them: marked read-only and
    kept, not copied and checked again as ``GridFunction`` does."""
    values.setflags(write=False)
    y = object.__new__(GridFunction)
    y.scale, y.values = ts, values
    return y


def _assemble(p: TermSumProblem, interior: np.ndarray) -> GridFunction:
    """The trajectory of finite interior values, alpha and beta at the ends."""
    return _owned(p.scale, _full(p, interior))


def _in_domain(f: Callable, *args):
    """f(*args) under the domain rule of ``Lagrangian._on_arrays``: an overflow
    or an invalid operation raises ``FloatingPointError``, underflow passes."""
    with np.errstate(all="raise", under="ignore"):
        return f(*args)


def _nan_outside_domain(f: Callable, *args):
    """f(*args), or NaN where it leaves the domain under ``_in_domain``."""
    try:
        return _in_domain(f, *args)
    except (EvaluationError, FloatingPointError):
        return math.nan


def _max_abs_residual(form: Callable[..., GridFunction], p, y: GridFunction, *args) -> float:
    """The max-abs of the residual form(p, y, *args), NaN where it leaves the domain."""
    return _nan_outside_domain(lambda: float(np.max(np.abs(form(p, y, *args).values))))


def _verdict(p: TermSumProblem, y: GridFunction, tol: float) -> tuple[float, float, bool]:
    """(objective, residual, stationary) at y, the test behind ``solve``'s ``converged``
    and ``check``'s verdict: the Euler-Lagrange form (both forms hold the same values)
    is within tol and the objective is finite, either NaN where it leaves the domain."""
    r = _max_abs_residual(el_residual_2, p, y)
    value = _nan_outside_domain(objective, p, y)
    return value, r, r <= tol and not math.isnan(value)


def _backtrack(
    p: TermSumProblem, x: np.ndarray, gnorm: float, step: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The first trial x + lam * step, lam = 1, 1/2, ..., 2^-30, whose
    gradient's max-abs falls below gnorm * (1 - 1e-4 * lam), as (lam, trial,
    its gradient), or None.  A trial that is not finite, or whose gradient
    leaves the Lagrangian's domain, is rejected like one that does not
    descend."""
    lam = 1.0
    while lam >= 2.0**-30:
        try:
            x_trial = x + lam * step
            if not np.isfinite(x_trial).all():
                raise FloatingPointError("the trial is not finite")
            g_trial = gradient(p, _assemble(p, x_trial))
        except (EvaluationError, FloatingPointError):  # the trial left the domain
            g_trial = np.full(x.size, math.inf)
        if float(np.max(np.abs(g_trial))) < gnorm * (1.0 - 1e-4 * lam):
            return lam, x_trial, g_trial
        lam *= 0.5
    return None


def _difference_band(p: TermSumProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized central-difference Hessian of the gradient at the
    interior values x, as (diagonal, off-diagonal).

    Column j is (g(x + h_j e_j) - g(x - h_j e_j)) / (2 h_j), two gradient
    calls, each on a new copy of alpha, x, beta with one entry moved.  A
    gradient row reads only its point and its two neighbours, so the
    column is zero off rows j - 1, j and j + 1, and only those three
    entries are kept.  The off-diagonal is the mean of the entry below the
    diagonal in one column and the entry above it in the next.  A probe
    that is not finite raises ``FloatingPointError``, as one that
    overflows does."""
    n = x.size
    h = FD_STEP * np.maximum(1.0, np.abs(x))
    x_plus, x_minus = x + h, x - h
    if not (np.isfinite(x_plus).all() and np.isfinite(x_minus).all()):
        raise FloatingPointError("a probe is not finite")
    center = _full(p, x)
    # rows j - 1, j and j + 1 of column j; the two clipped at the ends are never read
    near = np.clip(np.arange(n)[:, None] + np.arange(-1, 2), 0, n - 1)
    plus, minus = np.empty((n, 3)), np.empty((n, 3))
    for j in range(n):
        for moved, out in ((x_plus, plus), (x_minus, minus)):
            probe = center.copy()
            probe[j + 1] = moved[j]
            out[j] = gradient(p, _owned(p.scale, probe))[near[j]]
    cols = (plus - minus) / (2.0 * h)[:, None]
    return cols[:, 1], 0.5 * (cols[:-1, 2] + cols[1:, 0])


def _solve_band(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of the symmetric tridiagonal system with diagonal diag
    and off-diagonal off for the right-hand side rhs, in O(n): LAPACK
    dgtsv's Gaussian elimination with partial pivoting (Higham, Accuracy
    and Stability of Numerical Algorithms, section 9.6), which an
    indefinite matrix needs.  An exactly zero pivot raises
    ``np.linalg.LinAlgError``.  The arithmetic is on Python floats, so an
    overflow gives an infinite or NaN entry, never an exception."""
    n = diag.size
    d, b, sub = diag.tolist(), rhs.tolist(), off.tolist()
    sup = sub + [0.0]  # the superdiagonal, which row swaps change
    sup2 = [0.0] * n  # the second superdiagonal, which row swaps fill in
    for i in range(n - 1):
        if abs(d[i]) < abs(sub[i]):  # swap rows i and i + 1
            fact = d[i] / sub[i]
            d[i], d[i + 1], sup[i] = sub[i], sup[i] - fact * d[i + 1], d[i + 1]
            sup2[i], sup[i + 1] = sup[i + 1], -fact * sup[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
        else:  # a NaN pivot takes this branch, and gives a NaN solution
            if d[i] == 0.0:
                raise np.linalg.LinAlgError(f"zero pivot in row {i}")
            fact = sub[i] / d[i]
            d[i + 1] -= fact * sup[i]
            b[i + 1] -= fact * b[i]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError(f"zero pivot in row {n - 1}")
    x = b + [0.0, 0.0]
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - sup[i] * x[i + 1] - sup2[i] * x[i + 2]) / d[i]
    return np.array(x[:n])


DEFAULT_TOL = 1e-10  # solve's tol, and a problem file's when it gives none
DEFAULT_MAX_ITER = 200  # solve's max_iter, and a problem file's when it gives none


def solve(
    p: TermSumProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    init: GridFunction | None = None,
) -> Solution:
    """Find a stationary trajectory by damped Newton on the gradient.

    Each iteration probes one Hessian by central differences of the
    gradient, 2(n - 2) gradient calls on an n-point scale, and keeps it as
    the tridiagonal matrix it is (``_difference_band``), solved in O(n)
    time and memory (``_solve_band``).  When it is singular, a probe
    x +- h leaves the Lagrangian's domain, or the solved step is not
    finite, the step is steepest descent.  Steps backtrack on the gradient
    norm, and a trial step that is not finite, or whose gradient leaves the
    Lagrangian's domain, is rejected like one that does not descend.  An
    overflow or an invalid operation in the gradient, the Euler-Lagrange
    form or the objective counts as leaving the domain.
    The same Hessian serves at most one more step, a chord step (Shamanskii's
    method), d = -H^-1 times the gradient at the new point, backtracked
    alike.  It is taken after a Newton step that the line search accepted
    at full length and that at least halved max|g|, unless max|g| is
    already within gtol, or d is a rounding-level move of x:
    max|d| <= ``CHORD_FLOOR`` * eps * max(1, max|x|).  A steepest-descent
    step is never followed by one.  A chord step that finds no descent is
    dropped, and the next iteration probes a new Hessian at the last
    accepted point.  ``iterations`` counts Hessians, and max_iter bounds
    them, not the chord steps.  The solve stops where
    max|g| <= gtol = tol / (2 (n - 2)), as without chord steps, so how far
    below tol it lands moves case by case with the path.
    Non-convergence is reported in the returned Solution, never raised: a
    stationary point where the objective itself cannot be evaluated gives
    ``converged=False`` and ``objective=nan``, with its residuals, and a
    start point where the gradient cannot be evaluated gives no iterations
    and NaN for the objective and residuals it cannot evaluate.  The
    certificate is filled by ``certify`` when the solve converged.

    tol must be finite and positive, and max_iter an integer of at least 1,
    as in a problem file; anything else raises a DomainError naming it.
    """
    tol, max_iter = _real(tol, "tol"), _integer(max_iter, "max_iter")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise DomainError(f"max_iter must be at least 1, got {max_iter!r}")
    if init is None:
        x = linear_interpolant(p).values[1:-1].copy()
    else:
        _check_scales(p, init)
        x = init.values[1:-1].copy()

    n = x.size
    gtol = tol / (2.0 * max(1, n))
    floor = CHORD_FLOOR * np.finfo(float).eps
    iterations = 0
    # one errstate for the whole solve: per gradient call it would cost more
    with np.errstate(all="raise", under="ignore"):
        try:
            g = gradient(p, _assemble(p, x))
        except (EvaluationError, FloatingPointError):  # the start point leaves the domain
            max_iter = 0
        for _ in range(max_iter):
            gnorm = float(np.max(np.abs(g)))
            if gnorm <= gtol:
                break
            try:
                band = _difference_band(p, x)
                step = _solve_band(*band, -g)
                newton = bool(np.isfinite(step).all())  # an overflowing step counts as singular
            except (np.linalg.LinAlgError, EvaluationError, FloatingPointError):
                newton = False  # singular, or a probe left the domain
            if not newton:
                step = -g
            iterations += 1
            found = _backtrack(p, x, gnorm, step)
            if found is None:
                break
            lam, x, g = found
            # the chord step: H once more, after a full Newton step that at
            # least halved max|g| and left it above gtol, unless the step
            # would move x only at its rounding level
            gnew = float(np.max(np.abs(g)))
            if newton and lam == 1.0 and gtol < gnew <= 0.5 * gnorm:
                chord = _solve_band(*band, -g)
                if float(np.max(np.abs(chord))) > floor * max(1.0, float(np.max(np.abs(x)))):
                    found = _backtrack(p, x, gnew, chord)
                    if found is not None:  # else the next Hessian is probed at x
                        _, x, g = found

    y = _assemble(p, x)
    value, r, converged = _verdict(p, y, tol)
    sol = Solution(
        y=y,
        objective=value,
        residual_el1=r,
        residual_el2=r,
        certificate=Certificate.NONE,
        iterations=iterations,
        converged=converged,
    )
    if converged:
        sol.certificate = certify(p, sol)
    return sol


# ---------------------------------------------------------------------------
# Optimality certificates
# ---------------------------------------------------------------------------


CERTIFY_BLOCK = 4096  # samples per block; bounds the arrays of certify and local_min_probe
CERTIFY_INFLATE = 0.5  # the sample box spans the trajectory's range inflated by 50%
CERTIFY_GRID = 21  # samples per axis of the (y, v) box
CERTIFY_EIG_TOL = 1e-9  # eigenvalues within this of 0 count as semidefinite


def _sample_box(values: np.ndarray) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + CERTIFY_INFLATE)
    if half == 0.0:
        half = 1.0
    return mid - half, mid + half


def certify(p: TermSumProblem, sol: Solution) -> Certificate:
    """Sample-based joint-convexity certificate for a stationary solution.

    Samples the (y, v) Hessian of every active integrand over a box around
    the trajectory (range inflated by ``CERTIFY_INFLATE``) at every scale
    point, ``Lagrangian.hessian`` taking one block of scale points with
    their ``CERTIFY_GRID`` x ``CERTIFY_GRID`` samples at a time.  Those
    Hessians are exact for an expression, and for a directional problem's
    reduced integrand u^3 times its inner L's, so an integrand linear in
    y and v reads exactly 0, not difference noise.
    All Hessians positive semidefinite with nonnegative weights certifies a
    global minimizer; the negative-semidefinite analogue a global
    maximizer; anything else, or any negative weight, gives local-only, as
    does a box where ``hessian`` fails by the domain rule of every
    Lagrangian's arrays, a callable's overflowing central difference
    included.  The check samples; it is evidence, not a proof.

    Blocks are swept until the verdict is settled: block k of every active
    term before block k + 1, stopping at local-only as soon as one sampled
    eigenvalue lies below ``-CERTIFY_EIG_TOL`` and one above
    ``CERTIFY_EIG_TOL``, since no later sample, nor a later domain error,
    can change that verdict.  Both global verdicts sweep every block.  A
    block of ``CERTIFY_BLOCK`` samples holds 9 scale points, so an
    indefinite integrand stops after a few points; much larger blocks would
    hold most of a small scale in the first block and raise peak memory.
    """
    if not sol.converged:
        return Certificate.NONE
    actives = p.active_terms
    if any(term.weight < 0.0 for term in actives):
        return Certificate.LOCAL_ONLY

    slopes = _slopes(sol.y.scale, sol.y.values)
    y_lo, y_hi = _sample_box(sol.y.values)
    v_lo, v_hi = _sample_box(slopes)
    ys = np.linspace(y_lo, y_hi, CERTIFY_GRID)[:, None]
    vs = np.linspace(v_lo, v_hi, CERTIFY_GRID)[None, :]

    points = p.scale.points
    block = max(1, CERTIFY_BLOCK // CERTIFY_GRID**2)
    min_eig = math.inf
    max_eig = -math.inf
    for start, term in itertools.product(range(0, len(points), block), actives):
        t = points[start : start + block, None, None]
        try:
            a, b, c = term.lagrangian.hessian(t, ys, vs)
        except EvaluationError:  # the box leaves the domain
            return Certificate.LOCAL_ONLY
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        min_eig = min(min_eig, float(np.min(mid - rad)))
        max_eig = max(max_eig, float(np.max(mid + rad)))
        if min_eig < -CERTIFY_EIG_TOL and max_eig > CERTIFY_EIG_TOL:  # settled
            return Certificate.LOCAL_ONLY
    # unsettled after every block: min_eig >= -CERTIFY_EIG_TOL or max_eig <= CERTIFY_EIG_TOL
    return Certificate.GLOBAL_MIN if min_eig >= -CERTIFY_EIG_TOL else Certificate.GLOBAL_MAX


# ---------------------------------------------------------------------------
# Weak-local-minimizer probe
# ---------------------------------------------------------------------------


def _norms(ts: TimeScale, etas: np.ndarray) -> np.ndarray:
    """``norm_1_inf`` of every trajectory of etas, a stack of value arrays
    on ts along its last axis."""
    if len(ts) < 3:
        raise DomainError("the norm needs at least one interior point")
    M = len(ts) - 1
    slopes = _slopes(ts, etas)  # y^Delta on [a, b), y^nabla on (a, b]

    def sup(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a), axis=-1)

    return (sup(etas[..., 2 : M + 1]) + sup(etas[..., : M - 1])
            + sup(slopes[..., 1:M]) + sup(slopes[..., : M - 1]))


def norm_1_inf(y: GridFunction) -> float:
    """Sum of the sup norms of y^sigma, y^rho, y^Delta, y^nabla, each taken
    over the interior points: the one-row case of the stacked norm."""
    _one_function(y, "norm_1_inf's y")
    return float(_norms(y.scale, y.values))


PROBE_DELTA = 0.1  # radius of the trials' ball in the trajectory norm
PROBE_SLACK = 1e-12  # a trial within this of the objective at y passes


def _probe_objectives(p: TermSumProblem, y: GridFunction, n_trials: int, seed: int) -> Iterator[float]:
    """The objective at each of n_trials variations of y that vanish at
    both endpoints, scaled into the ``PROBE_DELTA``-ball of the trajectory
    norm, each under ``_in_domain``; the caller holds the objective at y
    itself.  A trial draws its interior values (skipped when all are zero)
    and then its step factor.  Stacks of up to
    ``CERTIFY_BLOCK // len(p.scale)`` trials are evaluated at once; a stack
    that fails is evaluated again lazily, one trial at a time, so each
    trial's error is raised when the caller reaches it, as if alone."""
    rng = np.random.default_rng(seed)
    ts = p.scale
    n = len(ts)
    block = max(1, CERTIFY_BLOCK // n)
    for start in range(0, n_trials, block):
        interiors, factors = [], []
        for _ in range(min(block, n_trials - start)):
            eta = rng.standard_normal(n - 2)
            if eta.any():
                interiors.append(eta)
                factors.append(rng.uniform(0.0, 1.0))
        etas = np.pad(np.reshape(interiors, (len(interiors), n - 2)), ((0, 0), (1, 1)))
        eps = np.array(factors) * PROBE_DELTA / (2.0 * _norms(ts, etas))
        ys = y.values + eps[:, None] * etas
        try:  # a trajectory that is not finite fails in GridFunction below, as on its own
            trials = _in_domain(_objectives, p, ys) if np.isfinite(ys).all() else None
        except (EvaluationError, FloatingPointError):
            trials = None
        if trials is None:
            trials = (_in_domain(objective, p, GridFunction(ts, row)) for row in ys)
        yield from trials


def local_min_probe(p: TermSumProblem, sol: Solution, n_trials: int = 1000, seed: int = 0) -> bool:
    """Random-perturbation check that sol.y is a weak local minimizer: no
    trial of ``_probe_objectives`` may fall below the objective at sol.y
    by more than ``PROBE_SLACK``.  The verdict, or the error raised, is the
    first failing trial's."""
    n_trials = _integer(n_trials, "n_trials", nonnegative=True)
    seed = _integer(seed, "seed", nonnegative=True)
    base = _in_domain(objective, p, sol.y)
    return not any(trial < base - PROBE_SLACK for trial in _probe_objectives(p, sol.y, n_trials, seed))
