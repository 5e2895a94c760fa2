"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Computes the references for the seeded inputs, times the set-up in several
fresh interpreters, runs the workload in one more fresh interpreter and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or the per-layer ones
with ``--trace 1``).  A second line to stderr, prefixed ``perfbench-info``,
carries the run's counts, its raw wall times and the traced run's
end-to-end figures.  Times in the metrics are scaled to a reference host
speed by the calibration probes of ``speed.py``.
See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
# Probes between two set-ups; their median is that gap's probe.
GAP_PROBES = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy_digits", "digits"),
)

# One BLAS thread: the runs share 2 CPUs, and --jobs 2 already uses both.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}


def _child(args, workdir: Path, setup_only: bool) -> subprocess.Popen:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **CHILD_ENV}
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)


def _gap_probe() -> float:
    return statistics.median(speed.probe() for _ in range(GAP_PROBES))


def _until_ready(proc: subprocess.Popen, t0: float) -> float:
    for line in proc.stdout:
        if line.strip() == "READY":
            return perf_counter() - t0
    proc.wait()
    raise RuntimeError(f"workload process exited with {proc.returncode} before its inputs were ready")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "indefstring" / "__init__.py").is_file():
        print(f"perfbench: no indefstring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench" / f"work-{os.getpid()}"
    base.mkdir(parents=True)
    proc = None
    try:
        data = inputs.make_inputs(args.workload, args.seed)
        ref = workloads.REFERENCES[args.workload](data)
        with open(base / "refs.pkl", "wb") as fh:
            pickle.dump(ref, fh)

        speed.warm()
        setups, probes = [], [_gap_probe()]
        for k in range(SETUP_SAMPLES):
            t0 = perf_counter()
            proc = _child(args, base / f"setup-{k}", setup_only=True)
            setups.append(_until_ready(proc, t0))
            proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited with {proc.returncode}")
            proc = None
            probes.append(_gap_probe())

        proc = _child(args, base / "main", setup_only=False)
        _until_ready(proc, perf_counter())
        lines = proc.communicate(timeout=CHILD_TIMEOUT_S)[0].strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload process exited with {proc.returncode}")
        proc = None
        result = json.loads(lines[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()
        shutil.rmtree(base, ignore_errors=True)

    summary = {"setup_s": statistics.median(speed.scaled(setups, probes)), **result["summary"]}
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    result["info"]["wall"]["setup_s"] = statistics.median(setups)
    info = {**result["info"], "setup_samples_s": setups, "setup_probes_s": probes, "end_to_end": summary}
    print("perfbench-info " + json.dumps(info), file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
