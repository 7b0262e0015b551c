"""Problem files and the command-line interface."""

import csv
import json

import pytest

from deltanabla import ProblemFileError, load_problem_dict
from deltanabla.cli import main

EXAMPLE = {
    "timescale": {"points": [1, 3, 4]},
    "kind": "delta-nabla",
    "gamma1": 1.0,
    "gamma2": 1.0,
    "lagrangian_delta": "t*v^2",
    "lagrangian_nabla": "t*v^2",
    "boundary": {"alpha": 0.0, "beta": 1.0},
}


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


def test_solve_then_check_round_trip(tmp_path):
    problem = write_problem(tmp_path, EXAMPLE)
    out_csv = str(tmp_path / "sol.csv")
    assert main(["solve", problem, "--out", out_csv]) == 0
    assert main(["check", problem, out_csv]) == 0
