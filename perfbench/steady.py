"""Run-to-run spread of the benchmark.

    python3 perfbench/steady.py --workloads halfline-weyl finite-sweep \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 20] [--trace 0] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric the median, the quartiles and the interquartile range as a share
of the median, plus the share of failed operations.  ``--out`` keeps every
run's result line and info line as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    info = [line for line in proc.stderr.splitlines() if line.startswith("perfbench-info ")]
    return {"workload": workload, "seed": seed, "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "info": json.loads(info[-1][len("perfbench-info "):]) if info else None}


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        mine = [r["result"] for r in runs if r["workload"] == workload]
        shares = sorted({r["failed"] / r["attempted"] for r in mine})
        print(f"== {workload}: {len(mine)} runs, all correct: {all(r['correct'] for r in mine)}, "
              f"failed share(s): {shares}")
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            print(f"   {name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {rel:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
