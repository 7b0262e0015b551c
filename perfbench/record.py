"""Run the benchmark over several seeds and record its numbers.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For each workload, in each of two sets: one untraced run of BENCHMARK.json's
``run_seconds`` per seed, with
the median, quartiles and spread (interquartile distance over median) of
every end-to-end metric; after the first set, one traced run at the first
seed, with its per-layer metrics and the tracing overhead.  ``set_drift``
is the second set's median relative to the first.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import problems  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

WHY = {
    "dn-large": "Delta-nabla solves at n = 161: the finite-difference Hessian "
                "(958 gradient calls per solve) and certify do almost all the work.",
    "dir-small": "Directional solves at n = 41 with u in +-{0.5, 1, 2}: certify dominates, "
                 "the Hessian is small, and the reduced-Lagrangian closures are on the path.",
    "audit": "check on a stationary n = 161 trajectory and the identity suite: no Newton "
             "step and no certify, so solver changes must leave it unchanged.",
    "dr-lemma": "The Dubois-Reymond constraint matrices of both kinds at n = 161: "
                "the timescale calculus alone, untouched by the solver.",
}
SETS = 2  # two sets of the same code must agree within the bounds
ROADMAP_N161 = {"solve_s": 2.76, "certify_s": 1.18}
OP_LINE = re.compile(r"(\w+): median (\S+) s over \d+ operations$")
SPEED_LINE = re.compile(r"unscaled: operation (\S+) s .* set-up (\S+) s .* machine speed (\S+) from")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its result line, plus the per-kind operation
    medians it prints (check and identities on audit, one per kind on
    dr-lemma), and its times before scaling with the machine speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["per_kind_s"] = {m[1]: float(m[2]) for m in map(OP_LINE.match, lines) if m}
    speed = next(filter(None, map(SPEED_LINE.match, lines)), None)
    if speed:
        result["unscaled"] = dict(zip(("op_mean_s", "setup_s", "machine_speed"), map(float, speed.groups())))
    return result


def _stats(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def _machine() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        caches[f"L{level} {kind}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches_per_core": caches,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _instance_zero(trace: dict) -> dict:
    """The ROADMAP baseline solve (dn-large instance 0) in the traced run:
    untraced CLI wall time, and the traced solve and certify spans."""
    spans = trace["spans_of_first_pass"]
    top = next(i for i, s in enumerate(spans) if s[0] == "cli.main" and s[3] == -1)

    def under(i: int) -> bool:
        while i >= 0:
            if i == top:
                return True
            i = spans[i][3]
        return False

    def span_s(name: str) -> float:
        return sum(s[2] - s[1] for i, s in enumerate(spans) if s[0] == name and under(i))

    solve_s, certify_s = span_s("variational.solve"), span_s("variational.certify")
    return {
        "cli_solve_s": statistics.median(times[0] for times in trace["untraced_op_s"]),
        "traced_solve_s": solve_s,
        "traced_certify_s": certify_s,
        "certify_share": certify_s / solve_s,
        "roadmap_single_run": {**ROADMAP_N161, "certify_share": ROADMAP_N161["certify_s"] / ROADMAP_N161["solve_s"]},
    }


def _family_shares(name: str, seed: int) -> dict:
    """Shares of the problem families in one rotation; audit and dr-lemma
    use one convex problem."""
    if name in ("audit", "dr-lemma"):
        return problems.family_shares(problems.generate("audit", seed, 1))
    return problems.family_shares(problems.generate(name, seed, workloads.LOOP_COUNT[name]))


def _set(name: str, seeds: list[int], seconds: int) -> dict:
    runs = [_run(name, seed, seconds, 0) for seed in seeds]
    metrics = {m: _stats([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
    for m, s in metrics.items():
        print(f"{name:10s} {m:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"spread {s['spread']:.3f}", flush=True)
    return {
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "end_to_end": metrics,
        "per_kind_s": {k: _stats([r["per_kind_s"][k] for r in runs]) for k in runs[0]["per_kind_s"]},
        "unscaled": {k: _stats([r["unscaled"][k] for r in runs]) for k in runs[0]["unscaled"]},
    }


def _traced(name: str, seed: int, seconds: int) -> dict:
    traced = _run(name, seed, seconds, 1)
    trace = json.loads((ROOT / ".bench_work" / f"trace-{name}-{seed}.json").read_text())
    entry = {
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        "traced_failed": traced["failed"],
        "counts_repeat": trace["counts_repeat"],
    }
    if name == "dn-large":
        entry["instance_zero"] = _instance_zero(trace)
    print(f"{name:10s} tracing overhead {entry['per_layer']['trace.overhead_pct']:.2f} %", flush=True)
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"machine": _machine(), "seeds": seeds, "run_seconds": seconds,
              "workloads": {name: {"why": WHY[name], "family_shares": _family_shares(name, seeds[0]),
                                   "sets": []} for name in WORKLOADS}}
    for k in range(SETS):
        for name, entry in record["workloads"].items():
            entry["sets"].append(_set(name, seeds, seconds))
            if k == 0:
                entry.update(_traced(name, seeds[0], seconds))
    for entry in record["workloads"].values():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["set_drift"] = {m: second[m]["median"] / first[m]["median"] - 1 for m in first}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
