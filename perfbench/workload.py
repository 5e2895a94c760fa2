"""One workload in a fresh interpreter: set up, warm up, timed rounds, checks.

Started by ``run.py``; prints ``READY`` once its inputs are ready (the end of
set-up) and, unless ``--setup-only`` is given, one JSON line with the
outcome when it is done.
"""
from __future__ import annotations

import argparse
import json
import math
import pickle
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

import indefstring as ind  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# peak_rss_mb is read after this many timed rounds (or at the end of a
# shorter run), so it covers the same work in every run: finite-sweep loads
# a new document per round, and its peak grows with the number of rounds.
RSS_ROUNDS = 2


def build(name, data, ref, workdir, runner):
    if name == "halfline-weyl":
        return workloads.halfline_tasks(ind, data, ref, workdir)
    if name == "finite-sweep":
        return workloads.finite_tasks(ind, data, ref, workdir)
    if name == "inverse-spectral":
        return workloads.inverse_tasks(ind, data, ref, workdir)
    return workloads.cli_tasks(ind, data, ref, workdir, runner)


def tail(durations, percentile: int) -> float:
    """Nearest-rank percentile: the value with (100 - percentile)% of the tasks above it."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cli = args.workload == "cli-files"
    span_dir = workdir / "spans" if (args.trace and cli) else None
    if span_dir is not None:
        span_dir.mkdir(exist_ok=True)
    runner = workloads.CliRunner(workdir, span_dir)
    with open(workdir.parent / "refs.pkl", "rb") as fh:
        ref = pickle.load(fh)
    data = inputs.make_inputs(args.workload, args.seed)
    tasks, warmup = build(args.workload, data, ref, workdir, runner)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    order = np.random.default_rng([args.seed, 1000]).permutation(len(tasks))
    tracer = None
    if args.trace and not cli:
        tracer = tracing.Tracer()
        tracer.install()
    warmup()
    speed.warm()
    misses_before = tracer.view_misses() if tracer is not None else 0
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    peak_mib = None
    records = []
    # probes[k] runs just before task k and just after task k - 1 (speed.py).
    probes = [speed.probe()]
    rounds = 0
    begin = perf_counter()
    while True:
        for i in order:
            task = tasks[i]
            if tracer is not None:
                tracer.task = (rounds, int(i))
            first_proc = runner.count + 1
            t0 = perf_counter()
            try:
                out = task.run(rounds)
            except Exception as exc:  # a failed operation; reported below
                out = exc
                print(f"perfbench: {task.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            records.append((rounds, int(i), perf_counter() - t0, out, first_proc, runner.count))
            probes.append(speed.probe())
        rounds += 1
        if rounds == RSS_ROUNDS:
            peak_mib = resource.getrusage(who).ru_maxrss / 1024.0
        # Whole rounds only, until --seconds have passed.
        if rounds >= data.get("max_rounds", math.inf) or perf_counter() - begin >= args.seconds:
            break
    timed = perf_counter() - begin
    if tracer is not None:
        tracer.task = None
    if peak_mib is None:
        peak_mib = resource.getrusage(who).ru_maxrss / 1024.0

    attempted = failed = 0
    correct = True
    worst = 0.0
    for r, i, _, out, _, _ in records:
        task = tasks[i]
        attempted += task.ops
        if isinstance(out, Exception):
            outcomes = [workloads.Outcome(False, math.inf, repr(out))] * task.ops
        else:
            try:
                outcomes = task.check(out)
            except Exception as exc:
                print(f"perfbench: checking {task.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
                outcomes = [workloads.Outcome(False, math.inf, repr(exc))] * task.ops
            if len(outcomes) != task.ops:
                raise RuntimeError(f"{task.name}: {len(outcomes)} outcomes for {task.ops} operations")
        for k, o in enumerate(outcomes):
            if o.passed:
                worst = max(worst, o.err)
                continue
            failed += 1
            if not task.known_fault:
                correct = False
            if r == 0:
                print(f"perfbench: FAILED {task.name} op {k}: err {o.err:.3g} {o.note}", file=sys.stderr)

    walls = [rec[2] for rec in records]
    durations = speed.scaled(walls, probes)
    summary = {
        "task_p50_s": statistics.median(durations),
        "task_tail_s": tail(durations, workloads.TAIL_PERCENTILE[args.workload]),
        "tasks_per_s": len(records) / sum(durations),
        "peak_rss_mb": peak_mib,
        "accuracy_digits": -math.log10(max(worst, 1e-17)),
    }
    by_task: dict = {}
    for (_, i, *_), dt in zip(records, durations):
        by_task.setdefault(tasks[i].name, []).append(dt)
    info = {"rounds": rounds, "tasks": len(records), "tasks_per_round": len(tasks),
            "timed_s": timed, "tail_percentile": workloads.TAIL_PERCENTILE[args.workload],
            "wall": {"task_p50_s": statistics.median(walls),
                     "task_tail_s": tail(walls, workloads.TAIL_PERCENTILE[args.workload]),
                     "tasks_per_s": len(records) / sum(walls)},
            "probe_median_s": statistics.median(probes),
            "task_wall_s": walls, "probes_s": probes, "task_names": [tasks[rec[1]].name for rec in records],
            "worst_err": worst, "task_median_s": {k: statistics.median(v) for k, v in by_task.items()}}
    per_layer = None
    if args.trace:
        if cli:
            spans, startups, misses = [], [], 0
            for r, i, _, _, first, last in records:
                for k in range(first, last + 1):
                    path = span_dir / f"proc-{k:06d}.tsv"
                    spans += tracing.read_spans(path, f"p{k}.", (r, i))
                    startup, view_misses = path.with_suffix(".head").read_text().split()
                    startups.append(float(startup))
                    misses += int(view_misses)
        else:
            spans = tracer.finished_spans()
            startups, misses = (), tracer.view_misses() - misses_before
        per_layer = tracing.per_layer(spans, rounds, misses, startups)
        views = sum(1 for sp in spans if sp[5] is not None and sp[1] == "coefficients.coefficient_view")
        info["coefficient_view_calls_per_round"] = views / rounds
        out_dir = HERE.parent / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracing.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz", spans)
        info["spans"] = len(spans)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "summary": summary, "per_layer": per_layer, "info": info}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
