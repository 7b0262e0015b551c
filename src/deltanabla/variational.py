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
for delta and (i+1, i) for nabla, read off the stencil table of
``timescale``.  The objective, the gradient, the first variation and the
Euler-Lagrange forms are all built from it, so the two kinds differ in
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
from .timescale import _STENCIL, DomainTag, GridFunction, TimeScale, _one_function, _slopes

FD_STEP = 1e-6  # central-difference step factor, times max(1, |x|)
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
    expression (or is given explicit derivative callables) and fall back
    to central finite differences otherwise; ``source`` records which:
    "analytic" when ``d2`` is given, "numeric" when it is not.
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
        self._d2 = d2
        self._d3 = d3
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
        if self._d2 is not None:
            return self._guard(self._d2, t, y, v, "d2")
        return _central(self, t, y, v, _fd_step(y), 0.0)

    def d3(self, t: float, y: float, v: float) -> float:
        """Partial derivative with respect to the third slot."""
        if self._d3 is not None:
            return self._guard(self._d3, t, y, v, "d3")
        return _central(self, t, y, v, 0.0, _fd_step(v))

    def _raw(self, key: str) -> Callable[[float, float, float], float]:
        """The unchecked scalar function of ``key``, L, d2 or d3: the
        callable in its slot, read now so that a rebound slot is the one
        called, or the finite-difference method standing in for a missing
        partial."""
        fn = {"L": self._fn, "d2": self._d2, "d3": self._d3}[key]
        return fn if fn is not None else getattr(self, key)

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


def _samples(t, y, v) -> tuple[tuple[int, ...], list[memoryview]]:
    """The broadcast shape of t, y and v, and each flattened to a column
    that iterates as Python floats."""
    arrays = [np.asarray(a, float) for a in (t, y, v)]
    if not arrays[0].shape == arrays[1].shape == arrays[2].shape:
        arrays = np.broadcast_arrays(*arrays)
    return arrays[0].shape, [memoryview(a.ravel()) for a in arrays]


def _stream(fns: Sequence[Callable], t, y, v) -> tuple[np.ndarray, ...]:
    """Each scalar function of fns at every sample of the broadcast arrays
    t, y and v, one array of the broadcast shape each: function after
    function, each over the samples in order, on Python floats."""
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
        numbers = [(f"weight of term {i}", term.weight) for i, term in enumerate(self.terms)]
        for name, x in numbers + [("alpha", alpha), ("beta", beta)]:
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {x!r}")
        self.active_terms = tuple(term for term in self.terms if term.weight != 0.0)
        if not self.active_terms:
            raise DomainError("all term weights vanish; nothing to extremize")
        self.scale = scale
        self.alpha = float(alpha)
        self.beta = float(beta)


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
) -> Iterator[tuple[Term, slice, slice, np.ndarray, np.ndarray]]:
    """Check y's scale, then yield each active term with its stencil slices
    e and s and its partials d2 and d3 at y, one value per gap."""
    _check_scales(p, y)
    ts = p.scale
    slope = _slopes(ts, y.values)
    for term in p.active_terms:
        e, s, _ = _STENCIL[term.kind]
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
    slope = _slopes(ts, ys)
    for term in p.active_terms:
        e, s, _ = _STENCIL[term.kind]
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
    gaps = p.scale.gaps()
    g = np.zeros(len(gaps) - 1)
    for term, e, _, d2, d3 in _term_partials(p, y):
        # gap * d2 lands on the state point, which is interior for the gaps
        # that e picks, all but the gap that ends (delta) or starts (nabla)
        # at an endpoint; d3 enters each gap's right end and leaves its left
        # end.  At each interior point the three are summed in this order
        interior = gaps[e] * d2[e] + d3[:-1]
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
    tolerance and the objective is finite.
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
    vals = np.empty(interior.size + 2)
    vals[0], vals[1:-1], vals[-1] = p.alpha, interior, p.beta
    return GridFunction(p.scale, vals)


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
    that does not descend.  An overflow or an invalid operation in the
    gradient, the Euler-Lagrange form or the objective counts as leaving
    the domain.
    Non-convergence is reported in the returned Solution, never raised: a
    stationary point where the objective itself cannot be evaluated gives
    ``converged=False`` and ``objective=nan``, with its residuals, and a
    start point where the gradient cannot be evaluated gives no iterations
    and NaN for the objective and residuals it cannot evaluate.  The
    certificate is filled by ``certify`` when the solve converged.

    tol must be finite and positive, and max_iter an integer of at least 1,
    as in a problem file; anything else raises a DomainError naming it.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise DomainError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if init is None:
        x = linear_interpolant(p).values[1:-1].copy()
    else:
        _check_scales(p, init)
        x = init.values[1:-1].copy()

    n = x.size
    gtol = tol / (2.0 * max(1, n))
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
            H = np.empty((n, n))
            h = FD_STEP * np.maximum(1.0, np.abs(x))
            x_plus, x_minus = x + h, x - h
            probe = x.copy()  # x with one coordinate moved, restored after its row
            try:
                for j in range(n):
                    probe[j] = x_plus[j]
                    g_plus = gradient(p, _assemble(p, probe))
                    probe[j] = x_minus[j]
                    g_minus = gradient(p, _assemble(p, probe))
                    probe[j] = x[j]
                    H[j] = (g_plus - g_minus) / (2.0 * h[j])
                H = 0.5 * (H.T + H)  # row j holds column j of the difference Hessian
                step = np.linalg.solve(H, -g)
            except (np.linalg.LinAlgError, EvaluationError, FloatingPointError):
                step = -g  # singular, or a probe left the domain
            # backtrack on the gradient norm
            lam = 1.0
            accepted = False
            while lam >= 2.0**-30:
                try:
                    x_trial = x + lam * step
                    g_trial = gradient(p, _assemble(p, x_trial))
                except (EvaluationError, FloatingPointError):  # the trial left the domain
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
    if n_trials < 0:
        raise DomainError(f"n_trials must be nonnegative, got {n_trials}")
    base = _in_domain(objective, p, sol.y)
    return not any(trial < base - PROBE_SLACK for trial in _probe_objectives(p, sol.y, n_trials, seed))
