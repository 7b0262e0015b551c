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

Every delta term and every nabla term is one two-point stencil,
sum_i gap_i * L(t_e, y_s, (y_{i+1} - y_i) / gap_i), with (e, s) = (i, i+1)
for delta and (i+1, i) for nabla.  The objective, the gradient, the first
variation and the Euler-Lagrange forms are all built from it, so the two
kinds differ in one place.  The first Euler-Lagrange form at sigma(t)
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
from .timescale import DomainTag, GridFunction, TimeScale

FD_STEP = 1e-6  # central-difference step factor, times max(1, |x|)
HESSIAN = ("yy", "yv", "vv")  # the second partials, as keys of Lagrangian._trees


def _fd_step(x: float) -> float:
    return FD_STEP * max(1.0, abs(x))


def _central(f: Callable, t: float, y: float, v: float, hy: float, hv: float) -> float:
    """Central difference of f(t, y, v) in y (step hy, hv = 0) or in v (hv, hy = 0)."""
    return (f(t, y + hy, v + hv) - f(t, y - hy, v - hv)) / (2.0 * (hy + hv))


class Lagrangian:
    """An integrand L(t, y, v) with partial derivatives in slots 2 and 3.

    Partials are analytic when the Lagrangian comes from a parsed
    expression (or is given explicit derivative callables) and fall back
    to central finite differences otherwise; ``source`` records which:
    "analytic" when ``d2`` is given, "numeric" when it is not.
    The value and the partials take Python floats.  ``values``,
    ``partials`` and ``hessian`` take arrays: a parsed expression evaluates
    each of its trees on them in one call, any other Lagrangian makes its
    guarded scalar calls sample by sample.
    """

    __slots__ = ("_fn", "_d2", "_d3", "_arrays", "_trees", "source", "text")

    def __init__(
        self,
        fn: Callable[[float, float, float], float],
        d2: Callable[[float, float, float], float] | None = None,
        d3: Callable[[float, float, float], float] | None = None,
    ):
        if not callable(fn):
            raise ConfigurationError("Lagrangian needs a callable integrand")
        self._fn = fn
        self._d2 = d2
        self._d3 = d3
        self.source = "analytic" if d2 is not None else "numeric"
        self._trees = self._arrays = self.text = None  # an expression's, set by from_expression

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
        lag._trees = trees
        lag._arrays = {key: expressions.compile_expr(e, arrays=True) for key, e in trees.items()}
        lag.text = src
        return lag

    @classmethod
    def from_callables(
        cls,
        fn: Callable[[float, float, float], float],
        d2: Callable[[float, float, float], float] | None = None,
        d3: Callable[[float, float, float], float] | None = None,
    ) -> "Lagrangian":
        return cls(fn, d2, d3)

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
        if self._d2 is not None:
            return self._guard(self._d2, t, y, v, "d2")
        return _central(self, t, y, v, _fd_step(y), 0.0)

    def d3(self, t: float, y: float, v: float) -> float:
        """Partial derivative with respect to the third slot."""
        if self._d3 is not None:
            return self._guard(self._d3, t, y, v, "d3")
        return _central(self, t, y, v, 0.0, _fd_step(v))

    def _on_arrays(self, keys: tuple[str, ...], scalars: Sequence[Callable], t, y, v) -> tuple[np.ndarray, ...]:
        """The functions named by ``keys`` (keys of ``_trees``) at every
        sample of the broadcast arrays t, y and v, one array of the
        broadcast shape each.

        A parsed expression evaluates each tree in one call, under the
        domain rules of ``expressions.evaluate``: a floating-point fault
        other than underflow fails even where IEEE arithmetic would carry on
        to a finite result, and so does a non-finite entry.  The samples are
        then evaluated again on the trees, one at a time, so the
        EvaluationError names the failing subexpression.  Any other
        Lagrangian streams ``scalars``, one guarded scalar function per key,
        over the samples.
        """
        if self._arrays is None:
            shape, columns = _samples(t, y, v)
            return tuple(
                np.fromiter(itertools.starmap(f, zip(*columns)), float, count=math.prod(shape)).reshape(shape)
                for f in scalars
            )
        try:
            with np.errstate(all="raise", under="ignore"):
                out = tuple(self._arrays[key](t, y, v) for key in keys)
            if all(np.isfinite(a).all() for a in out):
                return out
            why = "a non-finite result"
        except ArithmeticError as exc:  # numpy's FloatingPointError, or a constant's
            why = str(exc)
        for s in zip(*_samples(t, y, v)[1]):
            for key in keys:
                expressions.evaluate(self._trees[key], *s)
        raise EvaluationError(f"{'/'.join(keys)} of {self.text!r}: {why}")

    def values(self, t, y, v) -> np.ndarray:
        """L at every sample of the broadcast arrays t, y and v."""
        (out,) = self._on_arrays(("L",), (self,), t, y, v)
        return out

    def partials(self, t, y, v) -> tuple[np.ndarray, np.ndarray]:
        """(d2, d3) at every sample of the broadcast arrays t, y and v."""
        return self._on_arrays(("d2", "d3"), (self.d2, self.d3), t, y, v)

    def hessian(self, t, y, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Second partials (yy, yv, vv) at every sample of the broadcast
        arrays t, y and v: exact for a parsed expression, central
        differences of the partials for any other Lagrangian."""
        return self._on_arrays(HESSIAN, (self._fd_yy, self._fd_yv, self._fd_vv), t, y, v)

    def _fd_yy(self, t: float, y: float, v: float) -> float:
        return _central(self.d2, t, y, v, _fd_step(y), 0.0)

    def _fd_yv(self, t: float, y: float, v: float) -> float:
        """The mixed second partial, symmetrized."""
        return 0.5 * (_central(self.d2, t, y, v, 0.0, _fd_step(v)) + _central(self.d3, t, y, v, _fd_step(y), 0.0))

    def _fd_vv(self, t: float, y: float, v: float) -> float:
        return _central(self.d3, t, y, v, 0.0, _fd_step(v))


def _samples(t, y, v) -> tuple[tuple[int, ...], list[memoryview]]:
    """The broadcast shape of t, y and v, and each flattened to a column
    that iterates as Python floats."""
    arrays = [np.asarray(a, float) for a in (t, y, v)]
    if not arrays[0].shape == arrays[1].shape == arrays[2].shape:
        arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [memoryview(a.ravel()) for a in arrays]


@dataclass(frozen=True)
class Term:
    """One weighted integral term: delta or nabla kind."""

    weight: float
    lagrangian: Lagrangian
    kind: str  # "delta" or "nabla"

    def __post_init__(self):
        if self.kind not in ("delta", "nabla"):
            raise ValueError(f"kind must be 'delta' or 'nabla', got {self.kind!r}")


class TermSumProblem:
    """Extremize a finite sum of weighted delta/nabla integral terms with
    fixed endpoint values y(a) = alpha, y(b) = beta."""

    def __init__(self, scale: TimeScale, terms: Sequence[Term], alpha: float, beta: float):
        if len(scale) < 3:
            raise DomainError("the scale needs at least one interior point")
        terms = tuple(terms)
        if not terms or all(term.weight == 0.0 for term in terms):
            raise DomainError("all term weights vanish; nothing to extremize")
        self.scale = scale
        self.terms = terms
        self.alpha = float(alpha)
        self.beta = float(beta)

    @property
    def active_terms(self) -> tuple[Term, ...]:
        return tuple(term for term in self.terms if term.weight != 0.0)


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
    if y.scale != p.scale:
        raise ScaleMismatchError("trajectory scale differs from the problem scale")


def _stencil(kind: str, ts: TimeScale, y: np.ndarray) -> tuple[slice, slice, np.ndarray]:
    """The two-point stencil that every delta and nabla term shares.

    Gap i joins points i and i+1, and a term evaluates its integrand at
    (t_e, y_s, (y_{i+1} - y_i) / gap_i) with (e, s) = (i, i+1) for a delta
    term and (e, s) = (i+1, i) for a nabla term.  Returns the slices e and s
    over the scale points and the slopes, one per gap, differenced along
    the last axis of y, so a stack of trajectories gets one row of slopes
    each.  This is the only place where the two kinds differ.
    """
    left, right = slice(None, -1), slice(1, None)
    e, s = (left, right) if kind == "delta" else (right, left)
    return e, s, np.diff(y, axis=-1) / ts.gaps()


def _term_partials(
    p: TermSumProblem, y: GridFunction
) -> Iterator[tuple[Term, slice, slice, np.ndarray, np.ndarray]]:
    """Check y's scale, then yield each active term with its stencil slices
    e and s and its partials d2 and d3 at y, one value per gap."""
    _check_scales(p, y)
    ts = p.scale
    for term in p.active_terms:
        e, s, slope = _stencil(term.kind, ts, y.values)
        d2, d3 = term.lagrangian.partials(ts.points[e], y.values[s], slope)
        yield term, e, s, d2, d3


def _objectives(p: TermSumProblem, ys: np.ndarray) -> np.ndarray:
    """The objective at every trajectory of ys, a stack of value arrays on
    the problem's scale along its last axis: one call per term for the
    whole stack.  Each row's gap * L sum is accumulated left to right by
    ``np.cumsum``, whatever the Python and the numpy, never pairwise or
    compensated."""
    ts = p.scale
    total = np.zeros(ys.shape[:-1])
    for term in p.active_terms:
        e, s, slope = _stencil(term.kind, ts, ys)
        values = term.lagrangian.values(ts.points[e], ys[..., s], slope)
        total += term.weight * np.cumsum(ts.gaps() * values, axis=-1)[..., -1]
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
    for term, e, _, d2, d3 in _term_partials(p, y):
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
    for term, _, s, d2, d3 in _term_partials(p, y):
        total += term.weight * float(ts.gaps() * d2 @ ev[s] + d3 @ np.diff(ev))
    return total


def gradient(p: TermSumProblem, y: GridFunction) -> np.ndarray:
    """Gradient of the functional with respect to the interior trajectory
    values; stationarity of these is exactly constancy of both
    Euler-Lagrange forms."""
    ts = p.scale
    g = np.zeros(len(ts) - 2)
    for term, _, s, d2, d3 in _term_partials(p, y):
        # gap * d2 lands on the state point; d3 enters each gap's right end
        # and leaves its left end
        full = np.zeros(len(ts))
        full[s] += ts.gaps() * d2
        full[1:] += d3
        full[:-1] -= d3
        g += term.weight * full[1:-1]
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
    are equal; ``converged`` is true exactly when they are within the solve
    tolerance.
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


def _assemble(p: TermSumProblem, interior: np.ndarray) -> GridFunction:
    vals = np.concatenate([[p.alpha], interior, [p.beta]])
    return GridFunction(p.scale, vals)


def _nan_outside_domain(f: Callable[[], float]) -> float:
    """f(), or NaN when it leaves the Lagrangian's domain."""
    try:
        return f()
    except EvaluationError:
        return math.nan


def solve(
    p: TermSumProblem,
    tol: float = 1e-10,
    max_iter: int = 200,
    init: GridFunction | None = None,
) -> Solution:
    """Find a stationary trajectory by damped Newton on the gradient.

    The Hessian is taken by central differences of the gradient; when it is
    singular, or a probe x +- h leaves the Lagrangian's domain, the step is
    steepest descent.  Steps backtrack on the gradient norm, and a trial
    step whose gradient leaves the Lagrangian's domain is rejected like one
    that does not descend.
    Non-convergence is reported in the returned Solution, never raised: a
    stationary point where the objective itself cannot be evaluated gives
    ``converged=False`` and ``objective=nan``, with its residuals, and a
    start point where the gradient cannot be evaluated gives no iterations
    and NaN for the objective and residuals it cannot evaluate.  The
    certificate is filled by ``certify`` when the solve converged.
    """
    if init is None:
        x = linear_interpolant(p).values[1:-1].copy()
    else:
        _check_scales(p, init)
        x = init.values[1:-1].copy()

    n = x.size
    gtol = tol / (2.0 * max(1, n))
    iterations = 0
    try:
        g = gradient(p, _assemble(p, x))
    except EvaluationError:  # the start point leaves the Lagrangian's domain
        max_iter = 0
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= gtol:
            break
        H = np.empty((n, n))
        try:
            for j in range(n):
                h = _fd_step(x[j])
                xp = x.copy()
                xm = x.copy()
                xp[j] += h
                xm[j] -= h
                H[:, j] = (gradient(p, _assemble(p, xp)) - gradient(p, _assemble(p, xm))) / (2.0 * h)
            H = 0.5 * (H + H.T)
            step = np.linalg.solve(H, -g)
        except (np.linalg.LinAlgError, EvaluationError):  # singular, or a probe left the domain
            step = -g
        # backtrack on the gradient norm
        lam = 1.0
        accepted = False
        while lam >= 2.0**-30:
            x_trial = x + lam * step
            try:
                g_trial = gradient(p, _assemble(p, x_trial))
            except EvaluationError:  # the trial left the Lagrangian's domain
                g_trial = np.full(n, math.inf)
            if float(np.max(np.abs(g_trial))) < gnorm * (1.0 - 1e-4 * lam):
                x, g = x_trial, g_trial
                accepted = True
                break
            lam *= 0.5
        iterations += 1
        if not accepted:
            break

    y = _assemble(p, x)
    # the second form's residual equals the first form's
    r = _nan_outside_domain(lambda: float(np.max(np.abs(el_residual_2(p, y).values))))
    value = _nan_outside_domain(lambda: objective(p, y))
    converged = r <= tol and not math.isnan(value)
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
    their ``CERTIFY_GRID`` x ``CERTIFY_GRID`` samples at a time.
    All Hessians positive semidefinite with nonnegative weights certifies a
    global minimizer; the negative-semidefinite analogue a global
    maximizer; anything else, or any negative weight, gives local-only, as
    does a box that leaves the Lagrangian's domain.  The check samples; it
    is evidence, not a proof.
    """
    if not sol.converged:
        return Certificate.NONE
    actives = p.active_terms
    if any(term.weight < 0.0 for term in actives):
        return Certificate.LOCAL_ONLY

    _, _, slopes = _stencil("delta", sol.y.scale, sol.y.values)  # y^Delta and y^nabla alike
    y_lo, y_hi = _sample_box(sol.y.values)
    v_lo, v_hi = _sample_box(slopes)
    ys = np.linspace(y_lo, y_hi, CERTIFY_GRID)[:, None]
    vs = np.linspace(v_lo, v_hi, CERTIFY_GRID)[None, :]

    points = p.scale.points
    block = max(1, CERTIFY_BLOCK // CERTIFY_GRID**2)
    min_eig = math.inf
    max_eig = -math.inf
    for term, start in itertools.product(actives, range(0, len(points), block)):
        t = points[start : start + block, None, None]
        try:
            a, b, c = term.lagrangian.hessian(t, ys, vs)
        except EvaluationError:  # the box leaves the domain
            return Certificate.LOCAL_ONLY
        mid = 0.5 * (a + c)
        rad = np.hypot(0.5 * (a - c), b)
        min_eig = min(min_eig, float(np.min(mid - rad)))
        max_eig = max(max_eig, float(np.max(mid + rad)))
    if min_eig >= -CERTIFY_EIG_TOL:
        return Certificate.GLOBAL_MIN
    if max_eig <= CERTIFY_EIG_TOL:
        return Certificate.GLOBAL_MAX
    return Certificate.LOCAL_ONLY


# ---------------------------------------------------------------------------
# Weak-local-minimizer probe
# ---------------------------------------------------------------------------


def _norms(ts: TimeScale, etas: np.ndarray) -> np.ndarray:
    """``norm_1_inf`` of every trajectory of etas, a stack of value arrays
    on ts along its last axis."""
    if len(ts) < 3:
        raise DomainError("the norm needs at least one interior point")
    M = len(ts) - 1
    _, _, slopes = _stencil("delta", ts, etas)  # y^Delta on [a, b), y^nabla on (a, b]

    def sup(a: np.ndarray) -> np.ndarray:
        return np.max(np.abs(a), axis=-1)

    return (sup(etas[..., 2 : M + 1]) + sup(etas[..., : M - 1])
            + sup(slopes[..., 1:M]) + sup(slopes[..., : M - 1]))


def norm_1_inf(y: GridFunction) -> float:
    """Sum of the sup norms of y^sigma, y^rho, y^Delta, y^nabla, each taken
    over the interior points: the one-row case of the stacked norm."""
    return float(_norms(y.scale, y.values))


def local_min_probe(
    p: TermSumProblem,
    sol: Solution,
    n_trials: int = 1000,
    delta: float = 0.1,
    seed: int = 0,
    slack: float = 1e-12,
) -> bool:
    """Random-perturbation check that sol.y is a weak local minimizer.

    Draws admissible variations vanishing at both endpoints, scales each
    into the delta-ball of the trajectory norm, and requires the objective
    not to drop by more than ``slack``.  Each trial draws its interior
    values, skipped when all are zero (its norm is then zero), and then
    its step factor.  The trials are evaluated as stacks of up to
    ``CERTIFY_BLOCK // len(p.scale)`` trajectories.  A stack that fails to
    evaluate is evaluated again one trial at a time, so the verdict, or
    the error raised, is the first failing trial's, as if every trial
    were evaluated on its own.
    """
    if n_trials < 0:
        raise DomainError(f"n_trials must be nonnegative, got {n_trials}")
    rng = np.random.default_rng(seed)
    base = objective(p, sol.y)
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
        eps = np.array(factors) * delta / (2.0 * _norms(ts, etas))
        ys = sol.y.values + eps[:, None] * etas
        try:  # a trajectory that is not finite fails in GridFunction below, as on its own
            trials = _objectives(p, ys) if np.isfinite(ys).all() else None
        except EvaluationError:
            trials = None
        if trials is None:
            trials = (objective(p, GridFunction(ts, row)) for row in ys)
        if any(trial < base - slack for trial in trials):
            return False
    return True
