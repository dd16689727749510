"""Steadiness mode: run one workload N times and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload serve-hot --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload train --runs 5 --traced

Each run is ``perfbench/run.py`` in its own process with its own seed
(``first-seed``, ``first-seed + 1``, ...).  For every end-to-end metric the
tool prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median`` next to the metric's bound from
``BENCHMARK.json``; a spread under a third of the bound is steady.  With
``--traced`` one more run, traced, gives the tracing overhead: the traced
run's value of each end-to-end metric against the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a child process; returns result and report."""
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"run failed (seed {seed}, exit "
                           f"{completed.returncode}):\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return {"result": json.loads(lines[-1]), "report": report}


def spread_table(values: dict, bounds: dict) -> dict:
    """Median, quartiles and relative spread of each metric's values."""
    table = {}
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        table[name] = {"median": median, "q1": q1, "q3": q3,
                       "spread": spread, "bound": bound,
                       "steady": bound is not None and spread < bound / 3,
                       "values": series}
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run and report tracing overhead")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values: dict = {}
    runs = []
    for offset in range(args.runs):
        seed = args.first_seed + offset
        outcome = run_once(args.workload, seed, seconds, 0)
        result = outcome["result"]
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"]})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{n}={m['value']:.4g}"
                         for n, m in result["metrics"].items()), flush=True)

    table = spread_table(values, bounds)
    print(f"\n{args.workload}: {args.runs} runs, {seconds}s each")
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
          f"{'bound':>8}  steady")
    for name, row in table.items():
        print(f"{name:<18}{row['median']:>12.4f}{row['q1']:>12.4f}"
              f"{row['q3']:>12.4f}{row['spread']:>9.4f}"
              f"{row['bound'] if row['bound'] is not None else 'n/a':>8}  "
              f"{'yes' if row['steady'] else 'NO'}")

    overhead = None
    if args.traced:
        traced = run_once(args.workload, args.first_seed, seconds, 1)
        overhead = {}
        for name, row in table.items():
            value = traced["report"]["e2e"][name]
            change = value / row["median"] - 1.0 if row["median"] else 0.0
            worse = change if better.get(name) == "lower" else -change
            overhead[name] = {"traced": value, "untraced_median": row["median"],
                              "worse_by": worse}
            print(f"tracing overhead {name}: {worse:+.2%} "
                  f"(traced {value:.4f} vs untraced median {row['median']:.4f})")
        print("self-time reconciled:",
              traced["report"]["self_time"]["reconciled"])
    print("steady " + json.dumps({"workload": args.workload, "runs": runs,
                                  "metrics": table, "overhead": overhead}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
