"""Problem files and the command-line interface."""

import csv
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from deltanabla import (
    Certificate,
    DomainError,
    EvaluationError,
    GridFunction,
    ProblemFileError,
    Solution,
    Term,
    TermSumProblem,
    el_residual_2,
    load_problem_dict,
    local_min_probe,
    objective,
    random_scale,
    solve,
    variational,
)
from deltanabla import expressions as ex
from deltanabla.cli import main
from deltanabla.variational import _probe_objectives
from conftest import random_expression

EXAMPLE = {
    "timescale": {"points": [1, 3, 4]},
    "kind": "delta-nabla",
    "gamma1": 1.0,
    "gamma2": 1.0,
    "lagrangian_delta": "t*v^2",
    "lagrangian_nabla": "t*v^2",
    "boundary": {"alpha": 0.0, "beta": 1.0},
}


DEMO_PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def test_load_valid_delta_nabla():
    loaded = load_problem_dict(EXAMPLE)
    assert loaded.kind == "delta-nabla"
    assert loaded.tol == 1e-10 and loaded.max_iter == 200
    assert loaded.meta["timescale"]["points"] == [1.0, 3.0, 4.0]


def test_load_valid_directional():
    data = {
        "timescale": {"points": [1, 3, 4]},
        "kind": "directional",
        "u": -1.0,
        "lagrangian": "t*v^2",
        "boundary": {"alpha": 0.0, "beta": 1.0},
        "solver": {"tol": 1e-9, "max_iter": 50},
    }
    loaded = load_problem_dict(data)
    assert loaded.kind == "directional"
    assert loaded.tol == 1e-9 and loaded.max_iter == 50


def test_load_interval_sampling_recorded():
    data = dict(EXAMPLE)
    data["timescale"] = {"interval": {"a": 0.0, "b": 1.0, "n": 5}}
    loaded = load_problem_dict(data)
    assert loaded.meta["timescale"]["source"] == "interval"
    assert len(loaded.meta["timescale"]["points"]) == 5


@pytest.mark.parametrize(
    "mutate,key",
    [
        (lambda d: d["boundary"].pop("beta"), "boundary.beta"),
        (lambda d: d["boundary"].pop("alpha"), "boundary.alpha"),
        (lambda d: d.pop("gamma1"), "gamma1"),
        (lambda d: d.update(gamma1=0.0, gamma2=0.0), "gamma1"),
        (lambda d: d.update(timescale={"points": [3, 1, 4]}), "timescale.points"),
        (lambda d: d.update(timescale={"points": [1, 1, 4]}), "timescale.points"),
        (lambda d: d.update(lagrangian_delta="t*(")  , "lagrangian_delta"),
        (lambda d: d.update(lagrangian_nabla="1e999*v"), "lagrangian_nabla"),
        (lambda d: d.update(kind="mystery"), "kind"),
        pytest.param(lambda d: d.update(solver={"tol": "abc"}), "solver.tol", id="tol-string"),
        pytest.param(lambda d: d.update(solver={"tol": None}), "solver.tol", id="tol-null"),
        pytest.param(lambda d: d.update(solver={"tol": True}), "solver.tol", id="tol-bool"),
        pytest.param(lambda d: d.update(solver={"tol": math.nan}), "solver.tol", id="tol-nan"),
        pytest.param(lambda d: d.update(solver={"max_iter": "x"}), "solver.max_iter", id="max_iter-string"),
        pytest.param(lambda d: d.update(solver={"max_iter": 2.7}), "solver.max_iter", id="max_iter-float"),
        pytest.param(lambda d: d.update(solver={"max_iter": True}), "solver.max_iter", id="max_iter-bool"),
        pytest.param(lambda d: d.update(kind="directional", u=math.nan, lagrangian="t*v^2"), "u", id="u-nan"),
        pytest.param(lambda d: d.update(gamma1=math.nan), "gamma1", id="gamma1-nan"),
        pytest.param(lambda d: d["boundary"].update(beta=math.inf), "boundary.beta", id="beta-inf"),
        pytest.param(lambda d: d.update(gamma2=10**400), "gamma2", id="gamma2-huge-int"),
        pytest.param(lambda d: d.update(timescale={"points": [1, 3, 10**400]}), "timescale.points",
                     id="points-huge-int"),
    ],
)
def test_validation_names_offending_key(mutate, key):
    data = json.loads(json.dumps(EXAMPLE))  # deep copy
    mutate(data)
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(data)
    assert err.value.key == key
    assert key in str(err.value)


def test_zero_direction_named():
    data = {
        "timescale": {"points": [1, 3, 4]},
        "kind": "directional",
        "u": 0.0,
        "lagrangian": "t*v^2",
        "boundary": {"alpha": 0.0, "beta": 1.0},
    }
    with pytest.raises(ProblemFileError) as err:
        load_problem_dict(data)
    assert err.value.key == "u"


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------


def test_cmd_solve_writes_outputs(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    out_csv = str(tmp_path / "traj.csv")
    out_json = str(tmp_path / "report.json")
    code = main(["solve", problem, "--out", out_csv, "--report", out_json])
    assert code == 0

    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["t"] for row in rows] == ["1.0", "3.0", "4.0"]
    assert float(rows[1]["y"]) == pytest.approx(7 / 9, abs=1e-9)
    assert rows[0]["y_nabla"] == "" and rows[0]["residual_el1"] == ""
    assert rows[2]["y_delta"] == "" and rows[2]["residual_el2"] == ""

    with open(out_json) as fh:
        report = json.load(fh)
    assert report["converged"] is True
    assert report["certificate"] == "global-min"
    assert report["residuals"]["el1_max"] <= 1e-10
    assert report["trajectory"]["y"][1] == pytest.approx(7 / 9, abs=1e-9)


def test_cmd_solve_directional_file(tmp_path):
    data = {
        "timescale": {"points": [1, 3, 4]},
        "kind": "directional",
        "u": 1.0,
        "lagrangian": "t*v^2",
        "boundary": {"alpha": 0.0, "beta": 1.0},
    }
    problem = write_problem(tmp_path, data)
    report = tmp_path / "r.json"
    assert main(["solve", problem, "--report", str(report)]) == 0
    loaded = json.loads(report.read_text())
    assert loaded["trajectory"]["y"][1] == pytest.approx(6 / 7, abs=1e-9)
    assert loaded["residuals"]["directional_max"] <= 1e-9


def test_cmd_solve_missing_beta_exit_1(tmp_path, capsys):
    data = json.loads(json.dumps(EXAMPLE))
    data["boundary"].pop("beta")
    code = main(["solve", write_problem(tmp_path, data)])
    assert code == 1
    assert "boundary.beta" in capsys.readouterr().err


def test_cmd_solve_invalid_solver_tol_exit_1(tmp_path, capsys):
    problem = write_problem(tmp_path, dict(EXAMPLE, solver={"tol": "abc"}))
    assert main(["solve", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver.tol: ")
    assert "Traceback" not in err


def test_cmd_solve_missing_file_exit_1(tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == 1


def test_cmd_solve_nonconverged_exit_2(tmp_path):
    data = json.loads(json.dumps(EXAMPLE))
    data["timescale"] = {"points": [0.0, 0.5, 1.0, 1.5, 2.0]}
    data["lagrangian_delta"] = "sin(10*y)*v^2 + v^2 + y^2"
    data["lagrangian_nabla"] = "sin(10*y)*v^2 + v^2 + y^2"
    data["solver"] = {"max_iter": 1}
    report = tmp_path / "report.json"
    code = main(["solve", write_problem(tmp_path, data), "--report", str(report)])
    assert code == 2
    assert json.loads(report.read_text())["converged"] is False


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cmd_solve_stationary_outside_the_domain_exit_2(tmp_path, capsys):
    # Newton reaches a stationary point at y < 0, where log(y) is undefined
    data = json.loads(json.dumps(EXAMPLE))
    data["timescale"] = {"interval": {"a": 0.0, "b": 1.0, "n": 7}}
    data["lagrangian_delta"] = data["lagrangian_nabla"] = "v^2 - 30*y^2 + log(y)"
    data["boundary"] = {"alpha": 1.0, "beta": 1.0}
    report = str(tmp_path / "report.json")
    code = main(["solve", write_problem(tmp_path, data), "--report", report])
    assert code == 2
    assert capsys.readouterr().out.startswith("NOT converged: objective=nan certificate=none")
    loaded = json.loads((tmp_path / "report.json").read_text(), parse_constant=_raise_on_constant)
    assert loaded["objective"] is None
    assert loaded["residuals"]["el1_max"] <= 1e-10


def test_cmd_solve_start_outside_the_domain_exit_2(tmp_path, capsys):
    # the linear start from -1 to 1 passes through y = 0, where log(y) and
    # its partial 1/y fail; the report stays strict JSON
    data = json.loads(json.dumps(EXAMPLE))
    data["timescale"] = {"interval": {"a": 0.0, "b": 1.0, "n": 7}}
    data["lagrangian_delta"] = data["lagrangian_nabla"] = "v^2 + log(y)"
    data["boundary"] = {"alpha": -1.0, "beta": 1.0}
    out_csv, out_json = str(tmp_path / "traj.csv"), str(tmp_path / "report.json")
    code = main(["solve", write_problem(tmp_path, data), "--out", out_csv, "--report", out_json])
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "NOT converged: objective=nan certificate=none iterations=0\nresiduals: el1=nan el2=nan"
    )
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_raise_on_constant)
    assert report["objective"] is None
    assert report["residuals"] == {"el1_max": None, "el2_max": None}
    assert report["trajectory"]["y"][3] == 0.0


def test_cmd_solve_overflow_exit_2(tmp_path, capsys):
    # the partials are finite, the mean of the Euler-Lagrange form overflows
    data = json.loads(json.dumps(EXAMPLE))
    data["timescale"] = {"interval": {"a": 0.0, "b": 1.0, "n": 7}}
    data["gamma2"] = 0.0
    data["lagrangian_delta"] = "4e307*sin(4*v) + v^2"
    out_csv, out_json = str(tmp_path / "traj.csv"), str(tmp_path / "report.json")
    code = main(["solve", write_problem(tmp_path, data), "--out", out_csv, "--report", out_json])
    assert code == 2
    assert capsys.readouterr().out.startswith("NOT converged: ")
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_raise_on_constant)
    assert report["certificate"] == "none"
    assert report["residuals"] == {"el1_max": None, "el2_max": None}


def test_cmd_check_overflow_exit_2(tmp_path, capsys):
    # check reads the overflow above in the trajectory solve wrote as solve
    # does: a NaN residual and exit 2, with no warning and no input error
    data = json.loads(json.dumps(EXAMPLE))
    data["timescale"] = {"interval": {"a": 0.0, "b": 1.0, "n": 7}}
    data["gamma2"] = 0.0
    data["lagrangian_delta"] = "4e307*sin(4*v) + v^2"
    problem, out_csv = write_problem(tmp_path, data), str(tmp_path / "traj.csv")
    assert main(["solve", problem, "--out", out_csv]) == 2
    capsys.readouterr()
    code = main(["check", problem, out_csv])
    out, err = capsys.readouterr()
    assert (code, err) == (2, "")
    assert out.splitlines()[0] == "residuals: el1=nan el2=nan (tol=1e-10)"
    assert out.splitlines()[-1] == "NOT stationary within tolerance"


LOG_DIRECTIONAL = {
    "kind": "directional",
    "timescale": {"interval": {"a": 0.0, "b": 1.0, "n": 9}},
    "u": -0.5,
    "lagrangian": "v^2 + log(y)",
    "boundary": {"alpha": 1.0, "beta": 2.0},
}
OVERFLOW_OBJECTIVE = {
    "kind": "delta-nabla",
    "timescale": {"points": [0, 2, 4]},
    "gamma1": 1.0,
    "gamma2": 0.0,
    "lagrangian_delta": "1e308 + v^2",
    "lagrangian_nabla": "v^2",
    "boundary": {"alpha": 0.0, "beta": 0.0},
}


@pytest.mark.parametrize(
    "data, residual_lines",
    [
        # with u < 0 the inner log(y) leaves its domain at the scaled state
        (LOG_DIRECTIONAL, ["residuals: el1=4.492e-14 el2=4.492e-14 (tol=1e-10)",
                           "directional residual: 3.446e-13"]),
        # each gap's 2 * 1e308 overflows; the residuals are exact zeros
        (OVERFLOW_OBJECTIVE, ["residuals: el1=0.000e+00 el2=0.000e+00 (tol=1e-10)"]),
    ],
    ids=["log", "overflow"],
)
def test_cmd_check_objective_outside_the_domain_exit_2(tmp_path, capsys, data, residual_lines):
    # solve and check share one verdict: the objective at the trajectory
    # solve wrote is NaN, so neither calls it stationary, and check runs no
    # probe; no input error, no warning
    problem, out_csv = write_problem(tmp_path, data), str(tmp_path / "traj.csv")
    assert main(["solve", problem, "--out", out_csv]) == 2
    assert capsys.readouterr().out.startswith("NOT converged: objective=nan")
    for n_trials in ["200", "0"]:
        assert main(["check", problem, out_csv, "--probe-trials", n_trials]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == residual_lines + [
            "objective=nan: no probe", "NOT stationary within tolerance"
        ]


def test_cmd_check_trial_overflow_is_an_input_error(tmp_path, capsys):
    # the objective at y = 0 is 0; at any trial L is near 1e308 on each gap
    # and the sum overflows, reported like a trial that leaves the domain
    data = dict(OVERFLOW_OBJECTIVE, lagrangian_delta="1e308*y^2/(1e-20 + y^2) + v^2")
    data["timescale"] = {"points": [0, 1, 2, 3]}
    problem = write_problem(tmp_path, data)
    traj = write_trajectory(tmp_path, [0, 1, 2, 3], [0.0, 0.0, 0.0, 0.0])
    assert main(["check", problem, traj]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert out.splitlines() == ["residuals: el1=0.000e+00 el2=0.000e+00 (tol=1e-10)"]


def test_csv_and_report_deterministic(tmp_path):
    problem = write_problem(tmp_path, EXAMPLE)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", problem, "--out", str(a_csv), "--report", str(a_json)]) == 0
    assert main(["solve", problem, "--out", str(b_csv), "--report", str(b_json)]) == 0
    assert a_csv.read_text() == b_csv.read_text()
    assert a_json.read_text() == b_json.read_text()


# ---------------------------------------------------------------------------
# identities command
# ---------------------------------------------------------------------------


def test_cmd_identities_default_passes(capsys):
    assert main(["identities", "--trials", "40"]) == 0
    out = capsys.readouterr().out
    assert "all identities PASS" in out


def test_cmd_identities_zero_trials_warns(capsys):
    assert main(["identities", "--trials", "0"]) == 0
    assert "warning" in capsys.readouterr().out


def test_cmd_identities_seed_reproducible(capsys):
    assert main(["identities", "--trials", "25", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["identities", "--trials", "25", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cmd_identities_negative_trials_is_an_input_error(capsys):
    assert main(["identities", "--trials", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --trials must be nonnegative\n"
    assert captured.out == ""


def test_cmd_identities_negative_seed_is_an_input_error(capsys):
    assert main(["identities", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be nonnegative\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# check command
# ---------------------------------------------------------------------------


def write_trajectory(tmp_path, points, values, name="traj.csv"):
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y"])
        for t, v in zip(points, values):
            writer.writerow([repr(float(t)), repr(float(v))])
    return str(path)


def test_cmd_check_extremal_passes(tmp_path):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.0, 7 / 9, 1.0])
    assert main(["check", problem, traj]) == 0


def test_cmd_check_straight_line_fails(tmp_path):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.0, 2 / 3, 1.0])
    assert main(["check", problem, traj]) == 2


def test_cmd_check_constant_trajectory_y_independent(tmp_path):
    data = json.loads(json.dumps(EXAMPLE))
    data["boundary"] = {"alpha": 1.0, "beta": 1.0}
    problem = write_problem(tmp_path, data)
    traj = write_trajectory(tmp_path, [1, 3, 4], [1.0, 1.0, 1.0])
    assert main(["check", problem, traj]) == 0


def test_cmd_check_length_mismatch(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3], [0.0, 1.0])
    assert main(["check", problem, traj]) == 1
    assert "trajectory" in capsys.readouterr().err


def test_cmd_check_boundary_mismatch(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.5, 0.7, 1.0])
    assert main(["check", problem, traj]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("time,y\n1,0\n3,0.7\n4,1\n", "CSV needs 't' and 'y' columns"),
        ("t,value\n1,0\n3,0.7\n4,1\n", "CSV needs 't' and 'y' columns"),
        ("", "CSV needs 't' and 'y' columns"),
        ("t,y\n1,0\n3.5,0.7\n4,1\n", "point 3.5 not on the problem scale"),
        ("t,y\n0.5,0\n3,0.7\n4,1\n", "point 0.5 not on the problem scale"),
        ("t,y\n1,0.25\n3,0.7\n4,1\n", "y(a)=0.25 does not match boundary alpha=0.0"),
        ("t,y\n1,0\n3,0.7\n4,0.5\n", "y(b)=0.5 does not match boundary beta=1.0"),
    ],
    ids=["no-t", "no-y", "empty", "off-scale", "off-scale-a", "alpha", "beta"],
)
def test_cmd_check_names_a_bad_trajectory(tmp_path, capsys, text, message):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = tmp_path / "traj.csv"
    traj.write_text(text)
    assert main(["check", problem, str(traj)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: trajectory: {message}\n"
    assert captured.out == ""


def test_solve_then_check_round_trip(tmp_path):
    problem = write_problem(tmp_path, EXAMPLE)
    out_csv = str(tmp_path / "sol.csv")
    assert main(["solve", problem, "--out", out_csv]) == 0
    assert main(["check", problem, out_csv]) == 0


def test_cmd_check_negative_probe_trials_is_an_input_error(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.0, 7 / 9, 1.0])
    assert main(["check", problem, traj, "--probe-trials", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --probe-trials must be nonnegative\n"
    assert captured.out == ""


def test_cmd_check_zero_probe_trials_warns(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.0, 7 / 9, 1.0])
    assert main(["check", problem, traj, "--probe-trials", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "warning: --probe-trials 0 checks nothing; vacuous pass" in out
    assert "stationary within tolerance" in out


def test_cmd_check_negative_seed_is_an_input_error(tmp_path, capsys):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = write_trajectory(tmp_path, [1, 3, 4], [0.0, 7 / 9, 1.0])
    assert main(["check", problem, traj, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be nonnegative\n"
    assert captured.out == ""


def test_cmd_check_maximizer_passes_the_local_maximum_probe(tmp_path, capsys):
    # u < 0 with a convex L: the one-term integrand is concave and solve
    # certifies a global maximizer
    problem = str(DEMO_PROBLEMS / "directional_backward.json")
    traj = str(tmp_path / "traj.csv")
    assert main(["solve", problem, "--out", traj]) == 0
    assert "certificate=global-max" in capsys.readouterr().out
    assert main(["check", problem, traj]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "local-maximum probe (200 trials): pass" in out
    assert not any("local-minimum" in line for line in out)


@pytest.mark.parametrize(
    "row, message",
    [
        ("3.0,", "row 2: 'y' is not a finite number: ''"),
        ("3.0,abc", "row 2: 'y' is not a finite number: 'abc'"),
        ("3.0", "row 2: no 'y' field"),
        ("nan,0.5", "row 2: 't' is not a finite number: 'nan'"),
        ("inf,0.5", "row 2: 't' is not a finite number: 'inf'"),
        ("3.0,nan", "row 2: 'y' is not a finite number: 'nan'"),
    ],
    ids=["blank-y", "not-a-number", "short-row", "nan-t", "inf-t", "nan-y"],
)
def test_cmd_check_names_the_row_of_a_bad_field(tmp_path, capsys, row, message):
    problem = write_problem(tmp_path, EXAMPLE)
    traj = tmp_path / "traj.csv"
    traj.write_text(f"t,y\n1.0,0.0\n{row}\n4.0,1.0\n")
    assert main(["check", problem, str(traj)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: trajectory: {message}\n"
    assert captured.out == ""


# ---------------------------------------------------------------------------
# check's two probe verdicts against two separate probes
# ---------------------------------------------------------------------------


def two_probe_line(p, y, n_trials, seed):
    """The probe line check prints, or its error line, as the local-minimum
    probe of p followed by the local-minimum probe of p with every weight
    negated, whose local minimizers are p's local maximizers.  An objective
    at y that leaves the domain or overflows gives no probe."""
    try:
        with np.errstate(all="raise", under="ignore"):
            objective(p, y)
    except (EvaluationError, FloatingPointError):
        return "objective=nan: no probe"
    sol = Solution(y, 0.0, 0.0, 0.0, Certificate.NONE, 0, True)
    terms = [Term(-term.weight, term.lagrangian, term.kind) for term in p.terms]
    negated = TermSumProblem(p.scale, terms, p.alpha, p.beta)
    try:
        if local_min_probe(p, sol, n_trials, seed=seed):
            return f"local-minimum probe ({n_trials} trials): pass"
        if local_min_probe(negated, sol, n_trials, seed=seed):
            return f"local-maximum probe ({n_trials} trials): pass"
        return f"local-minimum probe ({n_trials} trials): FAIL"
    except (DomainError, EvaluationError) as exc:  # the errors check reports
        return f"error: {exc}"


def check_line(tmp_path, capsys, data, y, n_trials, seed):
    """The probe line of ``deltanabla check``, or its error line."""
    problem = write_problem(tmp_path, data)
    traj = write_trajectory(tmp_path, y.scale.points, y.values)
    rc = main(["check", problem, traj, "--probe-trials", str(n_trials), "--seed", str(seed)])
    out, err = capsys.readouterr()
    if rc == 1:
        return err.rstrip("\n")
    (line,) = [line for line in out.splitlines() if " probe (" in line or line.endswith("no probe")]
    if line.endswith("no probe"):  # and the verdict is not stationary
        assert (rc, out.splitlines()[-1]) == (2, "NOT stationary within tolerance")
    return line


def _check_cases(seed: int, count: int):
    """(problem data, trajectory) on random scales with random weights, some
    of them negative or zero: random expressions at random trajectories,
    and quadratics a*v^2 + b*y^2 (minimizers, maximizers and saddles) at
    or near their solutions, a third of them with a 1e-9*log term whose
    domain ends just below the trajectory.  Only cases whose residuals
    evaluate, so that check reaches the probe."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        ts = random_scale(rng, min_points=3, max_points=10, min_gap=0.05, max_gap=2.0)
        gammas = [float(g) for g in rng.choice([1.0, 2.5, -1.0, -3.0, 0.0], 2)]
        family = rng.choice(["expression", "quadratic", "edge"])
        if family == "expression":
            srcs = [ex.to_source(random_expression(rng)) for _ in range(2)]
        else:
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            srcs = [f"{a!r}*v^2 + {float(rng.uniform(-40.0, 40.0))!r}*y^2"] * 2
        ends = rng.uniform(0.5, 2.5, 2)
        data = {
            "timescale": {"points": [float(t) for t in ts.points]},
            "kind": "delta-nabla",
            "gamma1": gammas[0],
            "gamma2": gammas[1],
            "lagrangian_delta": srcs[0],
            "lagrangian_nabla": srcs[1],
            "boundary": {"alpha": float(ends[0]), "beta": float(ends[1])},
        }
        try:
            p = load_problem_dict(data).problem
        except ProblemFileError:  # both weights zero, or a constant fault
            continue
        if family == "expression":
            y = np.interp(ts.points, ts.points[[0, -1]], ends)
            noise = rng.choice([0.0, 1e-6, 1e-2, 0.3])
        else:
            y = solve(p).y.values
            noise = rng.choice([0.0, 1e-9, 1e-3])
        y = np.concatenate([y[:1], y[1:-1] + noise * rng.standard_normal(len(ts) - 2), y[-1:]])
        if family == "edge":
            c = float(10 ** rng.uniform(-6, -3) - np.min(y))
            data["lagrangian_delta"] += f" + 1e-9*log(y + {c!r})"
            p = load_problem_dict(data).problem
        try:
            el_residual_2(p, GridFunction(ts, y))
        except (EvaluationError, ValueError):
            continue
        cases.append((data, GridFunction(ts, y)))
    return cases


def _kind(line: str) -> str:
    if line.startswith(("error", "objective=nan")):
        return line.split(":")[0]
    return line.split(" probe")[0] + line.split(":")[-1]


def test_check_verdict_equals_two_separate_probes(tmp_path, capsys, monkeypatch):
    # blocks of 64 // n trials, so that counts fall below, at and past a block
    monkeypatch.setattr(variational, "CERTIFY_BLOCK", 64)
    seen = Counter()
    for k, (data, y) in enumerate(_check_cases(seed=31, count=80)):
        n_trials, seed = [(0, 0), (1, k), (9, k), (40, k)][k % 4]
        expected = two_probe_line(load_problem_dict(data).problem, y, n_trials, seed)
        assert check_line(tmp_path, capsys, data, y, n_trials, seed) == expected, (k, data)
        seen[_kind(expected)] += 1
    assert set(seen) == {
        "local-minimum pass", "local-maximum pass", "local-minimum FAIL", "error", "objective=nan"
    }


EDGE = {
    "timescale": {"points": [0, 1, 2, 3, 4, 5]},
    "kind": "delta-nabla",
    "gamma1": 1.0,
    "gamma2": 0.0,
    "lagrangian_nabla": "v^2",
    "boundary": {"alpha": 0.0, "beta": 0.0},
}


@pytest.mark.parametrize(
    "src, kind",
    [
        # trial 1 closes the minimum verdict; the maximum is open at trial 23
        ("-(v^2) + 1e-9*log(y + 0.01)", "error"),
        # trials 1 and 2 close both verdicts before trial 23
        ("v^2 - 2*y^2 + 1e-9*log(y + 0.01)", "local-minimum FAIL"),
        # the minimum is open at trial 23
        ("v^2 + 1e-9*log(y + 0.01)", "error"),
    ],
    ids=["maximum-open", "both-closed", "minimum-open"],
)
def test_check_raises_a_trial_error_only_while_a_verdict_is_open(tmp_path, capsys, src, kind):
    # with seed 0 on this scale, trial 23 of 40 takes y below -0.01
    data = dict(EDGE, lagrangian_delta=src)
    p = load_problem_dict(data).problem
    y = GridFunction.constant(p.scale, 0.0)
    with pytest.raises(EvaluationError, match="log of non-positive"):
        list(_probe_objectives(p, y, 40, 0))
    expected = two_probe_line(p, y, 40, 0)
    assert _kind(expected) == kind
    assert check_line(tmp_path, capsys, data, y, 40, 0) == expected
