"""Run workloads over several seeds and report each metric's median and spread.

    python3 bench/repeat.py                          # every workload, seeds 1-10
    python3 bench/repeat.py --workloads cv-svm --seeds 1-5
    python3 bench/repeat.py --trace 1 --seeds 1      # per-layer metrics

Each run is a separate `bench/run.py` process, one at a time. For every
metric the summary gives the median of the runs, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
(Q3 - Q1) / median. The per-operation figures each run prints (for example
cv_linear_svm_s) are summarised the same way from the run records in
.bench_out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv-svm", "cv-multitask", "cli-pipeline", "stats-schedule")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(name: str, values: list[float], unit: str, bound=None) -> str:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    verdict = ""
    if bound is not None:
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        verdict = f"  bound {bound:.2f} -> {verdict}"
    return (f"  {name:<40} median {med:12.4f} {unit:<5} q1 {q1:10.4f} q3 {q3:10.4f} "
            f"spread {100 * spread:6.2f}%{verdict}")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        results, operations = [], []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                status = 1
                continue
            result = json.loads(lines[-1])
            results.append(result)
            record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            operations.append(record["operations"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()
                             if not args.trace), flush=True)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed share(s): {shares}")
        for name, entry in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            print(summarise(name, values, entry["unit"], None if args.trace else bounds.get(name)))
        if not args.trace:
            for name in operations[0]:
                print(summarise(name, [ops[name] for ops in operations], "s"))
    return status


if __name__ == "__main__":
    sys.exit(main())
