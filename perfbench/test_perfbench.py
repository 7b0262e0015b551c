"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import problems  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deltanabla import DeltaNablaProblem, Lagrangian, TimeScale, cli, timescale, variational  # noqa: E402


def _files(tmp: Path, workload: str, seed: int, count: int) -> list[bytes]:
    tmp.mkdir()
    return [inst.write(tmp).read_bytes() for inst in problems.generate(workload, seed, count)]


@pytest.mark.parametrize("workload", ["dn-large", "dir-small", "audit"])
def test_seed_makes_byte_identical_files(tmp_path, workload):
    first = _files(tmp_path / "a", workload, 7, 6)
    assert first == _files(tmp_path / "b", workload, 7, 6)
    assert first != _files(tmp_path / "c", workload, 8, 6)


def test_instance_zero_is_the_roadmap_baseline():
    data = problems.generate("dn-large", 123, 1)[0].data
    assert data["lagrangian_delta"] == "t*v^2 + y^2"
    assert data["lagrangian_nabla"] == "exp(y)*v^2/2 + sin(t)*y"
    assert (data["gamma1"], data["gamma2"], data["boundary"]) == (1.0, 1.0, {"alpha": 0.0, "beta": 1.0})
    assert data["timescale"] == {"interval": {"a": 1.0, "b": 2.0, "n": 161}}


def test_oracle_gradient_matches_the_program():
    inst = problems.generate("dn-large", 3, 2)[1]
    lag = [Lagrangian.from_expression(inst.data[k]) for k in ("lagrangian_delta", "lagrangian_nabla")]
    p = DeltaNablaProblem(TimeScale(inst.points), inst.data["gamma1"], inst.data["gamma2"], *lag, 0.0, 1.0)
    y = np.random.default_rng(0).uniform(0, 1, len(inst.points))
    g = variational.gradient(p, timescale.GridFunction(p.scale, y))
    assert np.allclose(oracle.gradient(inst, y), g, rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    (inst,) = problems.generate("dir-small", 5, 1)
    op = workloads.SolveOp(inst, inst.write(tmp_path_factory.mktemp("solve")))
    (outcome,) = op()
    return inst, outcome


def test_oracle_accepts_a_verified_solve(solved):
    inst, outcome = solved
    assert outcome.faults == []
    assert oracle.solve_faults(inst, 0, outcome.report) == []


def test_oracle_rejects_a_perturbed_trajectory(solved):
    inst, outcome = solved
    report = copy.deepcopy(outcome.report)
    report["trajectory"]["y"][len(inst.points) // 2] += 1e-6
    assert any("gradient" in f for f in oracle.solve_faults(inst, 0, report))


def test_oracle_rejects_a_wrong_certificate(solved):
    inst, outcome = solved
    report = copy.deepcopy(outcome.report)
    report["certificate"] = "local-only" if inst.expected != "local-only" else "global-min"
    assert any("certificate" in f for f in oracle.solve_faults(inst, 0, report))


def test_oracle_rejects_a_wrong_constraint_matrix():
    ts = TimeScale.sampled_interval(1.0, 2.0, 12)
    m = timescale.variation_constraint_matrix(ts, "nabla")
    assert oracle.constraint_faults(m, 12) == []
    bad = m.copy()
    bad[3, 3] = 0.0
    assert oracle.constraint_faults(bad, 12)


def test_audit_and_dr_lemma_operations_pass(tmp_path):
    (cycle,) = workloads.Workload("audit", 4, tmp_path).ops(1)
    outcomes = cycle() + workloads.DrLemmaOp(12)()
    assert [o.faults for o in outcomes] == [[]] * 4


def _traced(ops):
    with tracing.Tracer() as tracer:
        results = [op() for op in ops]
    return tracer, results


@pytest.fixture(scope="module")
def dir_ops(tmp_path_factory):
    return workloads.Workload("dir-small", 2, tmp_path_factory.mktemp("dir")).ops(4)


def test_two_traced_runs_give_identical_counts(dir_ops):
    runs = [_traced(dir_ops) for _ in range(2)]
    calls = [{k: v["calls"] for k, v in tracer.summary().items()} for tracer, _ in runs]
    assert calls[0] == calls[1]
    assert calls[0]["variational.gradient"] > 0
    assert runs[0][0].counts == runs[1][0].counts
    ledgers = [[(l.start, l.probes, l.trials) for l in tracer.ledgers] for tracer, _ in runs]
    assert ledgers[0] == ledgers[1]


def test_lagrangian_counts_repeat(dir_ops):
    counts = []
    for _ in range(2):
        with tracing.LagrangianCounter() as counter:
            for op in dir_ops[:2]:
                op()
        counts.append(dict(counter.counts))
    assert counts[0] == counts[1] and counts[0]["d2"] > 0


def _gradient_identity(tracer, solves):
    """gradient calls == sum over solves of 1 + it * (2 (n - 2) + 1) + backtracks"""
    expected = sum(1 + it * (2 * (n - 2) + 1) + (ledger.trials - it)
                   for (n, it), ledger in zip(solves, tracer.ledgers))
    return tracer.summary()["variational.gradient"]["calls"], expected


def test_gradient_calls_match_newton_iterations(dir_ops):
    tracer, results = _traced(dir_ops)
    solves = [(o.n_points, o.report["iterations"]) for r in results for o in r]
    calls, expected = _gradient_identity(tracer, solves)
    assert calls == expected


def test_gradient_identity_with_backtracking():
    lag = [Lagrangian.from_expression(s) for s in ("exp(2*v) + y^2", "exp(y)")]
    p = DeltaNablaProblem(TimeScale.sampled_interval(0.0, 1.0, 9), 1.0, 1.0, *lag, 0.0, 4.0)
    with tracing.Tracer() as tracer:
        sol = cli.solve(p)
    assert sol.converged and tracer.ledgers[0].trials > sol.iterations
    calls, expected = _gradient_identity(tracer, [(9, sol.iterations)])
    assert calls == expected


def _bindings():
    owners = list(tracing.MODULES) + [variational.Lagrangian, timescale.GridFunction]
    return [dict(vars(owner)) for owner in owners]


def test_wrappers_are_removed(dir_ops):
    before = _bindings()
    _traced(dir_ops[:1])
    with tracing.LagrangianCounter():
        dir_ops[0]()
    after = _bindings()
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after))


def test_wrappers_are_removed_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(), tracing.LagrangianCounter():
            raise RuntimeError("inside the traced block")
    after = _bindings()
    assert all(all(a[k] is b[k] for k in a) for a, b in zip(before, after))

