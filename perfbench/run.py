"""deltanabla benchmark.

    python3 perfbench/run.py --workload {dn-large,dir-small,audit,dr-lemma} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  End-to-end times
are means scaled to the speed of the machine the baseline was recorded
on, as a reference computation run between the operations measures it;
the lines above the result give them unscaled.  Spans and counts of a
traced run are written to ``.bench_work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dn-large", "dir-small", "audit", "dr-lemma")

# (span name, metric suffix): seconds of one traced pass, as self time, or
# for file loading and expression handling as whole spans including the
# layers they call.  A layer a workload bypasses reads 0 s there.
SECONDS = (
    ("cli.main", "self_s"),
    ("problemfile.load_problem", "s"),
    ("expressions.parse", "s"),
    ("expressions.differentiate", "s"),
    ("expressions.compile_expr", "s"),
    ("variational.gradient", "self_s"),
    ("variational.solve", "self_s"),
    ("variational.certify", "self_s"),
    ("variational.objective", "self_s"),
    ("variational.el_residual", "self_s"),
    ("variational.local_min_probe", "self_s"),
    ("directional.solve_directional", "self_s"),
    ("directional.directional_el_residual", "self_s"),
    ("timescale.variation_constraint_matrix", "self_s"),
    ("timescale.calculus", "self_s"),
    ("identities.identity_suite", "self_s"),
)
CALLS = (
    "variational.gradient",
    "variational.certify",
    "variational.objective",
    "timescale.calculus",
    "identities.check_trial",
)


def _set_environment() -> None:
    """Run BLAS on one thread, and let child interpreters import the
    program; numpy must not be loaded yet.  On a shared 2-vCPU Xeon, two
    OpenBLAS threads made a dn-large solve about 20% slower than one, and
    its repeats less steady."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image.  VmHWM starts afresh at
    exec; ru_maxrss would also count the parent that launched us."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# The benchmark's own modules import numpy, so they are imported inside
# the functions below, after _set_environment has set BLAS threads.


def untraced(workload, seconds: float) -> tuple[dict, list]:
    import workloads as wl

    ops = workload.ops()
    setup, reference = wl.Setup(workload.setup_file), wl.Reference()
    results = wl.closed_loop(ops, seconds, setup, reference)
    op_s = statistics.mean(map(wl.op_seconds, results))
    setup_s, speed = statistics.median(setup.seconds), reference.speed()
    print(f"unscaled: operation {op_s} s over {len(results)}, set-up {setup_s} s over {len(setup.seconds)}; "
          f"machine speed {speed} from {len(reference.seconds)} reference samples")
    # times at the recording machine's speed: what a change to the program
    # does, without the drift of a shared machine
    metrics = {
        "op_mean_s": _metric(op_s * speed, "s"),
        "setup_s": _metric(setup_s * speed, "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
    }
    return metrics, results


def _layer_metrics(summary: dict, lagrangian: dict, ledgers, results) -> dict:
    m = {}
    for name, key in SECONDS:
        m[f"{name}.{key}"] = _metric(summary[name][key], "s")
    for name in CALLS:
        m[f"{name}.calls"] = _metric(summary[name]["calls"], "count")
    iterations = sum(o.report["iterations"] for r in results for o in r if o.report)
    trials = sum(ledger.trials for ledger in ledgers)
    m["variational.newton.iterations"] = _metric(iterations, "count")
    m["variational.linesearch.backtracks"] = _metric(trials - iterations, "count")
    per_iter = summary["variational.gradient"]["calls"] / iterations if iterations else 0.0
    m["variational.gradient.calls_per_iteration"] = _metric(per_iter, "calls/iter")
    for key in ("value", "d2", "d3"):
        m[f"variational.Lagrangian.{key}.calls"] = _metric(lagrangian[key], "count")
    return m


@dataclass
class TracedPass:
    summary: dict
    counts: dict
    ledgers: list
    results: list


def traced(workload, seconds: float, trace_path: Path) -> tuple[dict, list]:
    """Fixed passes over the workload's first rotation, each operation run
    once untraced and once traced, until ``seconds`` have passed (at least
    one pass), then one count-only pass for the Lagrangian.  The untraced
    passes give the tracing overhead on the same operations; counts must
    repeat exactly from traced pass to traced pass."""
    import workloads as wl
    from tracing import LagrangianCounter, Tracer

    ops = workload.ops(wl.TRACE_COUNT[workload.name])
    plain, passes, spans = [], [], None
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer, untraced, results = Tracer(), [], []
        for j, op in enumerate(ops):
            # each operation runs untraced and traced back to back, in
            # alternating order, so that drift in machine speed favours
            # neither side of the overhead
            untraced_first = (len(passes) + j) % 2 == 0
            if untraced_first:
                untraced.append(op())
            with tracer:
                results.append(op())
            if not untraced_first:
                untraced.append(op())
        plain.append(untraced)
        # keep the spans of one pass; the others only as their summary
        spans = spans or tracer.spans
        passes.append(TracedPass(tracer.summary(), dict(tracer.counts), tracer.ledgers, results))
    with LagrangianCounter() as lagrangian:
        count_results = [op() for op in ops]

    per_pass = [_layer_metrics(p.summary, lagrangian.counts, p.ledgers, p.results) for p in passes]
    layer = {}
    for name, first in per_pass[0].items():
        value = first["value"]
        if first["unit"] == "s":
            value = statistics.median(m[name]["value"] for m in per_pass)
        layer[name] = _metric(value, first["unit"])
    counts = [{k: v for k, v in m.items() if v["unit"] != "s"} for m in per_pass]
    repeat = all(c == counts[0] for c in counts) and all(p.counts == passes[0].counts for p in passes)
    layer["timescale.GridFunction.calls"] = _metric(passes[0].counts["timescale.GridFunction"], "count")
    op_s = [[wl.op_seconds(r) for r in p.results] for p in passes]
    untraced_op_s = [[wl.op_seconds(r) for r in results] for results in plain]
    traced_p50 = statistics.median(x for xs in op_s for x in xs)
    untraced_p50 = statistics.median(x for xs in untraced_op_s for x in xs)
    layer["trace.op_p50_s"] = _metric(traced_p50, "s")
    layer["trace.untraced_op_p50_s"] = _metric(untraced_p50, "s")
    ratios = [t / u for ts, us in zip(op_s, untraced_op_s) for t, u in zip(ts, us)]
    layer["trace.overhead_pct"] = _metric(100.0 * (statistics.median(ratios) - 1.0), "%")

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": workload.seed,
        "counts_repeat": repeat,
        "untraced_op_s": untraced_op_s,
        "passes": [{"op_s": t, "summary": p.summary, "counts": p.counts} for t, p in zip(op_s, passes)],
        "spans_of_first_pass": spans,
        "lagrangian": dict(lagrangian.counts),
        "metrics": layer,
    }) + "\n")
    results = [r for rs in plain for r in rs] + [r for p in passes for r in p.results] + count_results
    if not repeat:
        results.append([wl.Outcome("trace", 0.0, ["counts differ between traced passes"])])
    return layer, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "deltanabla" / "__init__.py").is_file():
        print(f"error: no deltanabla sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _set_environment()
    import workloads as wl

    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = wl.Workload(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, results = traced(workload, args.seconds,
                                      work / f"trace-{args.workload}-{args.seed}.json")
        else:
            metrics, results = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for r in results for o in r]
    failed = [o for o in outcomes if o.faults]
    for o in failed[:10]:
        print(f"FAILED {o.kind}: {'; '.join(o.faults)}", file=sys.stderr)
    kinds = sorted({o.kind for o in outcomes})
    for kind in kinds:
        times = [o.seconds for o in outcomes if o.kind == kind]
        print(f"{kind}: median {statistics.median(times)} s over {len(times)} operations")
    print(f"failed_ratio: {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.4f}")
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
