"""Seeded problem generators with hand-written partials.

Every Lagrangian the benchmark generates is a sum of terms from ``BLOCKS``.
Each block carries its expression text (what the program parses) and numpy
forms of its value and its y and v partials (what the oracle evaluates), so
the oracle never reuses the program's parser, differentiator or stencil.

Families fix the certificate the program must issue:

* ``convex``: jointly convex integrands with positive weights, ``global-min``
  (certify samples its whole grid);
* ``baseline``: the ROADMAP baseline's integrands, whose ``exp(y)*v^2/2`` is
  not jointly convex, ``local-only`` after the full sampling;
* ``negweight``: a convex pair with a negative nabla weight, ``local-only``
  (certify returns before sampling);
* directional ``convex``: ``global-min`` for u > 0 and ``global-max`` for
  u < 0, since the reduced Hessian is u^3 times the Lagrangian's;
* directional ``expy``: ``exp(y)*v^2/2 + sin(t)*y``, ``local-only``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# name -> (expression text, L, L_y, L_v), all numpy-vectorised in (t, y, v)
BLOCKS = {
    "tv2": ("t*v^2", lambda t, y, v: t * v**2, lambda t, y, v: 0 * y, lambda t, y, v: 2 * t * v),
    "v2": ("v^2", lambda t, y, v: v**2, lambda t, y, v: 0 * y, lambda t, y, v: 2 * v),
    "y2": ("y^2", lambda t, y, v: y**2, lambda t, y, v: 2 * y, lambda t, y, v: 0 * v),
    "expy": ("exp(y)", lambda t, y, v: np.exp(y), lambda t, y, v: np.exp(y), lambda t, y, v: 0 * v),
    "expyv2": (
        "exp(y)*v^2/2",
        lambda t, y, v: np.exp(y) * v**2 / 2,
        lambda t, y, v: np.exp(y) * v**2 / 2,
        lambda t, y, v: np.exp(y) * v,
    ),
    "sinty": ("sin(t)*y", lambda t, y, v: np.sin(t) * y, lambda t, y, v: np.sin(t), lambda t, y, v: 0 * v),
}

SCALE = {"dn-large": (1.0, 2.0, 161), "dir-small": (1.0, 2.0, 41), "audit": (1.0, 2.0, 161)}
BASELINE = (("tv2", 1.0), ("y2", 1.0)), (("expyv2", 1.0), ("sinty", 1.0))
DIRECTIONS = (0.5, -0.5, 1.0, -1.0, 2.0, -2.0)
# instance i >= 1 of dn-large takes DN_ROTATION[(i - 1) % 3]; instance 0 is the baseline
DN_ROTATION = ("convex", "baseline", "negweight")
DIR_ROTATION = ("convex", "expy")


@dataclass(frozen=True)
class Lag:
    """A Lagrangian as a sum of coefficient-weighted blocks."""

    terms: tuple[tuple[str, float], ...]

    @property
    def text(self) -> str:
        return " + ".join(
            BLOCKS[b][0] if c == 1.0 else f"{c!r}*{BLOCKS[b][0]}" for b, c in self.terms
        )

    def _sum(self, slot: int, t, y, v):
        return sum(c * BLOCKS[b][slot](t, y, v) for b, c in self.terms)

    def value(self, t, y, v):
        return self._sum(1, t, y, v)

    def dy(self, t, y, v):
        return self._sum(2, t, y, v)

    def dv(self, t, y, v):
        return self._sum(3, t, y, v)


@dataclass(frozen=True)
class Instance:
    """One generated problem: its file contents plus what the oracle needs."""

    name: str
    family: str
    expected: str  # certificate value
    data: dict
    terms: tuple[tuple[float, Lag, str], ...]  # (weight, Lagrangian, kind) after reduction

    @property
    def points(self) -> np.ndarray:
        iv = self.data["timescale"]["interval"]
        return np.linspace(iv["a"], iv["b"], iv["n"])

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.data, sort_keys=True, indent=1) + "\n")
        return path


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _scale_json(workload: str) -> dict:
    a, b, n = SCALE[workload]
    return {"interval": {"a": a, "b": b, "n": n}}


def delta_nabla(name: str, family: str, g1: float, g2: float, ld: Lag, ln: Lag,
                alpha: float, beta: float, workload: str = "dn-large") -> Instance:
    data = {
        "kind": "delta-nabla",
        "timescale": _scale_json(workload),
        "gamma1": g1,
        "gamma2": g2,
        "lagrangian_delta": ld.text,
        "lagrangian_nabla": ln.text,
        "boundary": {"alpha": alpha, "beta": beta},
    }
    expected = {"convex": "global-min", "baseline": "local-only", "negweight": "local-only"}[family]
    return Instance(name, family, expected, data, ((g1, ld, "delta"), (g2, ln, "nabla")))


def dn_instance(rng: np.random.Generator, i: int, workload: str = "dn-large",
                family: str | None = None) -> Instance:
    """Instance i of the delta-nabla family rotation; instance 0 is the
    ROADMAP baseline exactly."""
    name = f"{workload}-{i:03d}"
    if i == 0 and family is None:
        return delta_nabla(name, "baseline", 1.0, 1.0, Lag(BASELINE[0]), Lag(BASELINE[1]),
                           0.0, 1.0, workload)
    family = family or DN_ROTATION[(i - 1) % len(DN_ROTATION)]
    alpha, beta = _coef(rng, -0.2, 0.2), _coef(rng, 0.8, 1.2)
    if family == "convex":
        ld = Lag((("tv2", _coef(rng, 0.8, 1.2)), ("y2", _coef(rng, 0.8, 1.2))))
        ln = Lag((("v2", _coef(rng, 0.4, 0.6)), ("expy", _coef(rng, 0.8, 1.2))))
        return delta_nabla(name, family, _coef(rng, 0.5, 2.0), _coef(rng, 0.5, 2.0), ld, ln,
                           alpha, beta, workload)
    if family == "baseline":
        ld = Lag((("tv2", _coef(rng, 0.8, 1.2)), ("y2", _coef(rng, 0.8, 1.2))))
        ln = Lag((("expyv2", _coef(rng, 0.8, 1.2)), ("sinty", _coef(rng, 0.8, 1.2))))
        return delta_nabla(name, family, _coef(rng, 0.8, 1.2), _coef(rng, 0.8, 1.2), ld, ln,
                           alpha, beta, workload)
    # negweight: the delta term dominates, so the weighted sum stays convex
    # and Newton converges, but certify must stop at the negative weight
    ld = Lag((("tv2", _coef(rng, 0.8, 1.2)), ("expy", _coef(rng, 0.8, 1.2))))
    ln = Lag((("v2", _coef(rng, 0.1, 0.3)), ("y2", _coef(rng, 0.1, 0.3))))
    return delta_nabla(name, family, _coef(rng, 0.8, 1.2), -_coef(rng, 0.5, 1.0), ld, ln,
                       alpha, beta, workload)


def dir_instance(rng: np.random.Generator, i: int) -> Instance:
    """Instance i of the directional rotation: the family alternates and u
    walks through DIRECTIONS, so twelve consecutive instances cover every
    (family, u) pair."""
    family = DIR_ROTATION[i % len(DIR_ROTATION)]
    u = DIRECTIONS[(i // len(DIR_ROTATION)) % len(DIRECTIONS)]
    if family == "convex":
        lag = Lag((("v2", _coef(rng, 0.5, 1.5)), ("y2", _coef(rng, 0.5, 1.5)),
                   ("expy", _coef(rng, 0.2, 0.6))))
        expected = "global-min" if u > 0 else "global-max"
    else:
        lag = Lag((("expyv2", _coef(rng, 0.8, 1.2)), ("sinty", _coef(rng, 0.8, 1.2))))
        expected = "local-only"
    data = {
        "kind": "directional",
        "timescale": _scale_json("dir-small"),
        "u": u,
        "lagrangian": lag.text,
        "boundary": {"alpha": _coef(rng, -0.2, 0.2), "beta": _coef(rng, 0.8, 1.2)},
    }
    kind = "delta" if u > 0 else "nabla"
    reduced = ReducedLag(lag, u)
    return Instance(f"dir-small-{i:03d}", family, expected, data, ((1.0, reduced, kind),))


@dataclass(frozen=True)
class ReducedLag:
    """(t, s, w) -> u * L(t, u*s, u*w), the sign-reduced directional integrand."""

    base: Lag
    u: float

    def value(self, t, y, v):
        return self.u * self.base.value(t, self.u * y, self.u * v)

    def dy(self, t, y, v):
        return self.u**2 * self.base.dy(t, self.u * y, self.u * v)

    def dv(self, t, y, v):
        return self.u**2 * self.base.dv(t, self.u * y, self.u * v)


def generate(workload: str, seed: int, count: int) -> list[Instance]:
    """The workload's first ``count`` instances for ``seed``."""
    rng = np.random.default_rng([seed, sorted(SCALE).index(workload)])
    if workload == "dn-large":
        return [dn_instance(rng, i) for i in range(count)]
    if workload == "dir-small":
        return [dir_instance(rng, i) for i in range(count)]
    if workload == "audit":
        return [dn_instance(rng, i + 1, "audit", family="convex") for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def family_shares(instances: list[Instance]) -> dict[str, float]:
    shares: dict[str, float] = {}
    for inst in instances:
        key = inst.family if inst.data["kind"] == "delta-nabla" else f"{inst.family} u={inst.data['u']:g}"
        shares[key] = shares.get(key, 0.0) + 1.0 / len(instances)
    return {k: round(v, 4) for k, v in sorted(shares.items())}
