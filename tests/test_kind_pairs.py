"""The delta and nabla case of each kind-pair function, bit for bit against
the two cases written out on their own: a difference quotient with each
kind's domain tag, an integral with each kind's index offset, a closed
directional derivative with one branch per side and a directional residual
with the tag picked by the sign of u.  Compared by ``tobytes`` on seeded
random scales, for one function and for a stack."""

import numpy as np
import pytest

from deltanabla import (
    DirectionalProblem,
    DomainTag,
    GridFunction,
    Lagrangian,
    TimeScale,
    delta_derivative,
    delta_integral,
    directional_derivative,
    directional_el_residual,
    nabla_derivative,
    nabla_integral,
    random_scale,
)

KINDS = {"delta": (delta_derivative, delta_integral, DomainTag.KAPPA, 0),
         "nabla": (nabla_derivative, nabla_integral, DomainTag.KAPPA_SUB, 1)}


def _cases(seed: int, count: int, min_points: int = 2):
    """(scale, values) on seeded random scales, the values one function or
    a stack, spread over several orders of magnitude."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        ts = random_scale(rng, min_points=min_points, max_points=40)
        shape = (len(ts),) if k % 2 else (int(rng.integers(1, 5)), len(ts))
        yield rng, ts, rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def _same(a, b) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_derivative_is_the_difference_quotient_on_its_tag(kind):
    derivative, _, tag, _ = KINDS[kind]
    for _, ts, v in _cases(11, 200):
        d = derivative(GridFunction(ts, v))
        assert d.scale == ts.truncated(tag)
        assert _same(d.values, np.diff(v) / ts.gaps())


@pytest.mark.parametrize("kind", KINDS)
def test_integral_is_the_offset_sum(kind):
    _, integral, _, offset = KINDS[kind]
    for rng, ts, v in _cases(12, 200):
        f = GridFunction(ts, v)
        i, j = sorted(int(x) for x in rng.integers(0, len(ts), 2))
        for i_lo, i_hi in ((0, len(ts) - 1), (i, j), (i, len(ts) - 1), (0, j)):
            expected = np.add.reduce(
                ts.gaps()[i_lo:i_hi] * v[..., i_lo + offset : i_hi + offset], axis=-1
            )
            got = integral(f, ts.points[i_lo], ts.points[i_hi])
            assert _same(got, expected)
            assert isinstance(got, float) == (v.ndim == 1)


def test_closed_directional_derivative_is_the_quotient_on_u_side():
    for _, ts, v in _cases(13, 200, min_points=3):
        if v.ndim != 1:
            continue
        f, pts = GridFunction(ts, v), ts.points
        for i in range(1, len(ts) - 1):
            for u in (1.0, -2.5, 0.3, 1e-3, -7.0, 0.0):
                if u > 0:
                    expected = u * float((v[i + 1] - v[i]) / (pts[i + 1] - pts[i]))
                elif u < 0:
                    expected = u * float((v[i] - v[i - 1]) / (pts[i] - pts[i - 1]))
                else:
                    expected = 0.0
                assert _same(directional_derivative(f, pts[i], u), expected)


@pytest.mark.parametrize("strict", [False, True], ids=["wide", "strict"])
def test_directional_residual_is_the_sign_picked_stencil(strict):
    L = Lagrangian.from_expression("t*v^2 + y^2 + sin(y)*v")
    for rng, ts, v in _cases(14, 120, min_points=5):
        y = v if v.ndim == 1 else v[0]
        pts = ts.points
        for u in (1.0, 2.0, -0.7, -3.0):
            e, s = (slice(None, -1), slice(1, None)) if u > 0 else (slice(1, None), slice(None, -1))
            t_e = pts[e]
            d2, d3 = L.partials(t_e, u * y[s], u * (np.diff(y) / ts.gaps()))
            resid = u * (np.diff(d3) / np.diff(t_e)) - u * d2[e]
            if strict:
                scale, expected = TimeScale(pts[2:-2]), resid[2:] if u > 0 else resid[:-2]
            else:
                tag = DomainTag.KAPPA_SQUARED if u > 0 else DomainTag.KAPPA_SUB_SQUARED
                scale, expected = ts.truncated(tag), resid
            p = DirectionalProblem(ts, u, L, 0.0, 1.0)
            got = directional_el_residual(p, GridFunction(ts, y), strict)
            assert got.scale == scale
            assert _same(got.values, expected)
