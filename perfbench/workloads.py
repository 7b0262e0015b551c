"""The benchmark's workloads: seeded inputs, verified operations and the
closed loop that times them.

Every operation goes through the program's public entry points in-process
(``deltanabla.cli.main`` with stdout captured, or
``timescale.variation_constraint_matrix``); the oracle checks each result
after its timer stops.  One client, one process: an operation starts when
the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import problems
from deltanabla import cli, timescale

# operations per seed; the loop cycles through them (dir-small holds every
# (family, u) pair twice; audit cycles differ only in the identity seed;
# dr-lemma repeats one operation)
LOOP_COUNT = {"dn-large": 12, "dir-small": 24, "audit": 8, "dr-lemma": 1}
# the traced run's fixed passes: one rotation of each
TRACE_COUNT = {"dn-large": 4, "dir-small": 12, "audit": 1, "dr-lemma": 1}
IDENTITY_TRIALS = 200
PROBE_TRIALS = 200
SETUP_LAUNCHES = 10  # spread over a run
REFERENCE_SHARE = 0.2  # reference time per second of operation time
# about the reference computation's mean on the machine the baseline was
# recorded on (2 vCPU Xeon, Python 3.11, numpy 2.4)
REFERENCE_NOMINAL_S = 0.018


@dataclass
class Outcome:
    kind: str
    seconds: float
    faults: list[str]
    report: dict | None = None
    n_points: int = 0


def op_seconds(outcomes: list[Outcome]) -> float:
    """Wall time of one operation: a solve, an audit cycle or a matrix."""
    return sum(o.seconds for o in outcomes)


def _cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns exit code, stdout, seconds."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - start


@dataclass
class SolveOp:
    inst: problems.Instance
    path: Path

    def __call__(self) -> list[Outcome]:
        out, rep = self.path.with_suffix(".csv"), self.path.with_suffix(".report.json")
        rep.unlink(missing_ok=True)
        rc, _, seconds = _cli(["solve", str(self.path), "--out", str(out), "--report", str(rep)])
        report = json.loads(rep.read_text()) if rep.exists() else None
        faults = oracle.solve_faults(self.inst, rc, report)
        return [Outcome("solve", seconds, faults, report, len(self.inst.points))]


@dataclass
class AuditCycle:
    """check on a prepared stationary trajectory, then the identity suite."""

    problem: Path
    trajectory: Path
    identity_seed: int

    def check(self) -> Outcome:
        rc, text, seconds = _cli(["check", str(self.problem), str(self.trajectory),
                                  "--probe-trials", str(PROBE_TRIALS)])
        faults = [] if rc == 0 else [f"exit code {rc}"]
        for line in (f"local-minimum probe ({PROBE_TRIALS} trials): pass",
                     "stationary within tolerance"):
            if line not in text.splitlines():
                faults.append(f"check did not print {line!r}")
        return Outcome("check", seconds, faults)

    def identities(self) -> Outcome:
        rc, text, seconds = _cli(["identities", "--trials", str(IDENTITY_TRIALS),
                                  "--seed", str(self.identity_seed)])
        lines = text.splitlines()
        faults = [] if rc == 0 else [f"exit code {rc}"]
        if lines[-1:] != ["all identities PASS"] or any(line.endswith("FAIL") for line in lines):
            faults.append("identities did not all pass")
        return Outcome("identities", seconds, faults)

    def __call__(self) -> list[Outcome]:
        return [self.check(), self.identities()]


@dataclass
class DrLemmaOp:
    """The Dubois-Reymond constraint matrices of both kinds, each checked
    against its closed form and for a null space of exactly the constants.
    Both kinds in one operation keep every operation alike, so that the
    mean does not shift with the number of operations a run holds."""

    n_points: int

    def __call__(self) -> list[Outcome]:
        ts = timescale.TimeScale.sampled_interval(1.0, 2.0, self.n_points)
        outcomes = []
        for kind in ("delta", "nabla"):
            start = time.perf_counter()
            matrix = timescale.variation_constraint_matrix(ts, kind)
            seconds = time.perf_counter() - start
            outcomes.append(Outcome(f"dr_lemma_{kind}", seconds, oracle.constraint_faults(matrix, self.n_points)))
        return outcomes


def _write_trajectory(path: Path, t: np.ndarray, y: np.ndarray) -> None:
    rows = ["t,y"] + [f"{ti!r},{yi!r}" for ti, yi in zip(t.tolist(), y.tolist())]
    path.write_text("\n".join(rows) + "\n")


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    setup_file: Path | None = None  # the first problem file, set by ops()

    def ops(self, count: int | None = None) -> list:
        """The workload's operations in loop order: the first ``count``
        (default: LOOP_COUNT) solves, audit cycles or constraint matrices."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        count = count or LOOP_COUNT[self.name]
        if self.name in ("audit", "dr-lemma"):
            # one n = 161 convex problem: audit checks its stationary
            # trajectory, dr-lemma builds the matrices on the same grid;
            # both load it for set-up
            (inst,) = problems.generate("audit", self.seed, 1)
            self.setup_file = inst.write(self.workdir)
            n = len(inst.points)
            if self.name == "dr-lemma":
                return [DrLemmaOp(n)] * count
            trajectory = self.workdir / "stationary.csv"
            _write_trajectory(trajectory, inst.points, oracle.stationary(inst))
            return [AuditCycle(self.setup_file, trajectory, self.seed * 1000 + k) for k in range(count)]
        instances = problems.generate(self.name, self.seed, count)
        paths = [inst.write(self.workdir) for inst in instances]
        self.setup_file = paths[0]
        return [SolveOp(inst, path) for inst, path in zip(instances, paths)]


@dataclass
class Setup:
    """Cold starts: a fresh interpreter, with this process's environment,
    imports the CLI and loads one problem file."""

    problem: Path
    seconds: list[float] = field(default_factory=list)

    def launch(self) -> None:
        code = "import sys\nfrom deltanabla.cli import load_problem\nload_problem(sys.argv[1])"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(self.problem)], check=True)
        self.seconds.append(time.perf_counter() - start)


@dataclass
class Reference:
    """A fixed computation that does not use the program, timed between
    operations: the machine's speed over the same stretch of time.

    The machines this runs on are shared, and their speed jumps between
    levels as far as 1.6 apart, within seconds or after minutes; a plain
    Python loop plus small numpy solves, like the program's own mix, slows
    down with them.  Samples are taken in proportion to operation time, so
    their mean, like the mean operation time, weighs each level by the
    time spent in it; medians of the two can land on different levels."""

    seconds: list[float] = field(default_factory=list)
    _matrix: np.ndarray = field(default_factory=lambda: np.random.default_rng(0).standard_normal((60, 60)))

    def sample(self) -> None:
        start = time.perf_counter()
        x = 0.0
        for i in range(100_000):
            x += i * 0.5
        for _ in range(200):
            np.exp(np.linalg.solve(self._matrix, self._matrix[0]))
        self.seconds.append(time.perf_counter() - start)

    def speed(self) -> float:
        """Machine speed relative to the recording machine's: > 1 is faster."""
        return REFERENCE_NOMINAL_S / statistics.mean(self.seconds)


def closed_loop(ops: list, seconds: float, setup: Setup, reference: Reference) -> list[list[Outcome]]:
    """Run ops in order, cycling, for ``seconds`` of operation time; the
    operation running at the deadline completes and counts.  Set-up
    launches and reference samples are spread over the run between
    operations, and their time extends the deadline, so that they sample
    the same stretch of machine time as the operations without taking any
    from them."""
    setup.launch()  # warm-up, not counted: compiles bytecode caches
    setup.seconds.clear()
    reference.sample()
    reference.seconds.clear()
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline + sum(setup.seconds) + sum(reference.seconds):
        results.append(ops[len(results) % len(ops)]())
        op_total = sum(map(op_seconds, results))
        if len(setup.seconds) < SETUP_LAUNCHES * op_total / seconds:
            setup.launch()
        while sum(reference.seconds) < REFERENCE_SHARE * op_total:
            reference.sample()
    while len(setup.seconds) < 3:
        setup.launch()
    return results
