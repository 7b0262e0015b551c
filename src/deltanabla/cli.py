"""Command-line front end.

    deltanabla solve PROBLEM.json [--out traj.csv] [--report report.json]
    deltanabla identities [--seed N] [--trials N]
    deltanabla check PROBLEM.json TRAJECTORY.csv [--probe-trials N] [--seed N]

Exit codes: 0 success, 1 input or validation error (a malformed command
line too), 2 numerical failure (non-convergence, identity failure, or a
trajectory that is not stationary).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .directional import (
    DirectionalSolution,
    directional_el_residual,
    solve_directional,
)
from .errors import DomainError, EvaluationError, ProblemFileError
from .identities import FAMILIES, identity_suite
from .problemfile import LoadedProblem, load_problem
from .timescale import GridFunction, _integer, delta_derivative
from .variational import (
    PROBE_SLACK,
    Solution,
    _max_abs_residual,
    _nan_outside_domain,
    _probe_objectives,
    _verdict,
    el_residual_2,
    solve,
)

IDENTITY_GATE = 1e-12

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


def _write_trajectory_csv(path: str, loaded: LoadedProblem, sol: Solution) -> None:
    slopes = delta_derivative(sol.y).values  # y^Delta(t_i) = y^nabla(t_{i+1})
    # the first form holds the same values; NaN where they leave the domain
    r = np.broadcast_to(_nan_outside_domain(lambda: el_residual_2(loaded.problem, sol.y).values), slopes.shape)
    # each column formatted at once; "" where a domain excludes the point
    t, y, slope, r = ([repr(x) for x in a.tolist()] for a in (sol.y.scale.points, sol.y.values, slopes, r))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "y_delta", "y_nabla", "residual_el1", "residual_el2"])
        writer.writerows(zip(t, y, slope + [""], [""] + slope, [""] + r, r + [""]))


def _json_number(x: float | None) -> float | None:
    """x, or None (JSON null) where strict JSON has no number for it."""
    return x if x is not None and math.isfinite(x) else None


def _write_report(path: str, loaded: LoadedProblem, sol: Solution) -> None:
    residuals = {"el1_max": sol.residual_el1, "el2_max": sol.residual_el2}
    if isinstance(sol, DirectionalSolution):
        residuals["directional_max"] = sol.residual_directional
        residuals["directional_strict_max"] = sol.residual_directional_strict
    report = {
        "kind": loaded.kind,
        "problem": loaded.meta,
        "objective": _json_number(sol.objective),
        "certificate": sol.certificate.value,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "residuals": {key: _json_number(r) for key, r in residuals.items()},
        "trajectory": {
            "t": sol.y.scale.points.tolist(),
            "y": sol.y.values.tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_solve(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    if loaded.kind == "delta-nabla":
        sol: Solution = solve(loaded.problem, tol=loaded.tol, max_iter=loaded.max_iter)
    else:
        sol = solve_directional(loaded.problem, tol=loaded.tol, max_iter=loaded.max_iter)
    if args.out:
        _write_trajectory_csv(args.out, loaded, sol)
    if args.report:
        _write_report(args.report, loaded, sol)
    status = "converged" if sol.converged else "NOT converged"
    print(
        f"{status}: objective={sol.objective:.12g} certificate={sol.certificate.value} "
        f"iterations={sol.iterations}"
    )
    print(
        f"residuals: el1={sol.residual_el1:.3e} el2={sol.residual_el2:.3e} (tol={loaded.tol:g})"
    )
    for t, v in zip(sol.y.scale.points.tolist(), sol.y.values.tolist()):
        print(f"  y({t:g}) = {v!r}")
    return EXIT_OK if sol.converged else EXIT_NUMERICAL


def cmd_identities(args: argparse.Namespace) -> int:
    if args.trials == 0:
        print("warning: --trials 0 checks nothing; vacuous pass")
        return EXIT_OK
    worst = identity_suite(trials=args.trials, seed=args.seed)
    all_ok = True
    print(f"identity suite: {args.trials} random scales, seed {args.seed}")
    for family, names in FAMILIES.items():
        print(f"{family}:")
        for name in names:
            err = worst[name]
            ok = err <= IDENTITY_GATE
            all_ok &= ok
            print(f"  {name:<22} max rel err {err:.3e}  {'PASS' if ok else 'FAIL'}")
    print("all identities PASS" if all_ok else "some identities FAIL")
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def _csv_number(row: dict, key: str, i: int) -> float:
    """The finite number in column key of data row i."""
    text = row[key]
    if text is None:
        raise ProblemFileError("trajectory", f"row {i}: no {key!r} field")
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ProblemFileError("trajectory", f"row {i}: {key!r} is not a finite number: {text!r}")
    return x


def _read_trajectory_csv(path: str, loaded: LoadedProblem) -> GridFunction:
    ts = loaded.problem.scale
    rows = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "t" not in reader.fieldnames or "y" not in reader.fieldnames:
                raise ProblemFileError("trajectory", "CSV needs 't' and 'y' columns")
            for i, row in enumerate(reader, start=1):
                rows.append((_csv_number(row, "t", i), _csv_number(row, "y", i)))
    except UnicodeDecodeError as exc:
        raise ProblemFileError("trajectory", f"not readable as text: {exc}") from None
    if len(rows) != len(ts):
        raise ProblemFileError(
            "trajectory", f"has {len(rows)} rows but the scale has {len(ts)} points"
        )
    for (t_csv, _), t_scale in zip(rows, ts.points):
        if not abs(t_csv - t_scale) <= 1e-12 * max(1.0, abs(t_scale)):
            raise ProblemFileError("trajectory", f"point {t_csv!r} not on the problem scale")
    y = GridFunction(ts, [v for _, v in rows])
    p = loaded.problem
    if abs(y.values[0] - p.alpha) > 1e-12 * max(1.0, abs(p.alpha)):
        raise ProblemFileError("trajectory", f"y(a)={float(y.values[0])!r} does not match boundary alpha={p.alpha!r}")
    if abs(y.values[-1] - p.beta) > 1e-12 * max(1.0, abs(p.beta)):
        raise ProblemFileError("trajectory", f"y(b)={float(y.values[-1])!r} does not match boundary beta={p.beta!r}")
    return y


def cmd_check(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    y = _read_trajectory_csv(args.trajectory, loaded)
    p = loaded.problem
    value, r, ok = _verdict(p, y, loaded.tol)  # solve's converged; value is the probe's base
    print(f"residuals: el1={r:.3e} el2={r:.3e} (tol={loaded.tol:g})")
    if loaded.kind == "directional":  # shown, not judged: solve does not ask it to be within tol
        print(f"directional residual: {_max_abs_residual(directional_el_residual, p, y):.3e}")
    if math.isnan(value):
        print("objective=nan: no probe")
    else:
        if args.probe_trials == 0:
            print("warning: --probe-trials 0 checks nothing; vacuous pass")
        # one pass for both verdicts: a trial is evaluated while either is open
        is_min = is_max = True
        for trial in _probe_objectives(p, y, args.probe_trials, args.seed):
            is_min = is_min and not trial < value - PROBE_SLACK
            is_max = is_max and not trial > value + PROBE_SLACK
            if not (is_min or is_max):
                break
        kind = "maximum" if is_max and not is_min else "minimum"
        verdict = "pass" if is_min or is_max else "FAIL"
        print(f"local-{kind} probe ({args.probe_trials} trials): {verdict}")
    print("stationary within tolerance" if ok else "NOT stationary within tolerance")
    return EXIT_OK if ok else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors; subparsers share its class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """The value of --seed, --trials or --probe-trials: what ``int`` reads, if at least 0."""
    try:
        return _integer(int(text), "count", nonnegative=True)
    except ValueError:  # int's, or _integer's DomainError: one usage error
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltanabla",
        description="Solve and audit delta-nabla variational problems on finite time scales.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    p_solve.add_argument("--out", help="write the trajectory table as CSV")
    p_solve.add_argument("--report", help="write a JSON report")
    p_solve.set_defaults(fn=cmd_solve)

    p_ident = sub.add_parser("identities", help="run the calculus identity suite")
    p_ident.add_argument("--seed", type=_count, default=0)
    p_ident.add_argument("--trials", type=_count, default=200)
    p_ident.set_defaults(fn=cmd_identities)

    p_check = sub.add_parser("check", help="audit a trajectory against a problem")
    p_check.add_argument("problem", help="path to a JSON problem file")
    p_check.add_argument("trajectory", help="CSV with t and y columns")
    p_check.add_argument("--probe-trials", type=_count, default=200)
    p_check.add_argument("--seed", type=_count, default=0)
    p_check.set_defaults(fn=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ProblemFileError, DomainError, EvaluationError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
