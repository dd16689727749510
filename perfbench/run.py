"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``serve-hot``, ``serve-miss``, ``retrieve-200k``
(see ``perfbench/README.md``).  With ``--trace 0`` the last line of
standard output is one JSON object whose ``metrics`` are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the program's layers are
wrapped in timing spans and ``metrics`` are the per-layer metrics.  The
line before it (prefixed ``report``) holds the full report: the meta
block, the workload's own figures with units and sample counts, the output
checks and, when traced, the self-time table.  Spans and the report are
also written under ``.perfbench/`` in the checkout.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")

# End-to-end metrics, as declared in BENCHMARK.json.
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s",
             "p50_ms": "ms"}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Exits with status 2 when the checkout holds no program, or when
    ``repro`` would come from anywhere but this checkout.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.stderr.write(f"perfbench: no program at {source}/repro\n")
        sys.exit(2)
    sys.path.insert(0, source)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        sys.stderr.write(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {source}\n")
        sys.exit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "serve-hot", "serve-miss",
                                 "retrieve-200k"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        sys.stderr.write("perfbench: --seconds must be >= 1\n")
        return 2
    import_program()
    sys.path.insert(0, ROOT)
    from perfbench import common, trace, workloads

    meta = common.meta(ROOT, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    tracer = trace.Tracer() if args.trace else None
    outcome = workloads.run(workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        tracer=tracer))
    meta["loadavg_end"] = list(os.getloadavg())

    os.makedirs(OUTPUT_DIR, exist_ok=True)
    stem = os.path.join(OUTPUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {"meta": meta, "e2e": outcome.e2e, "figures": outcome.figures,
              "checks": outcome.checks, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "error_rate": outcome.failed / max(1, outcome.attempted),
              **outcome.extra}
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
        report["layers"] = outcome.layers
        print(trace.format_table(outcome.extra["self_time"]))
    with open(stem + ".report.json", "w") as handle:
        json.dump(report, handle, indent=1, default=float)

    for name, figure in outcome.figures.items():
        print(f"{name:<22}{figure['value']:>14.4f} {figure['unit']:<10}"
              f"n={figure['n']}")
    for check in outcome.checks:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" {check['detail']}")
    print("report " + json.dumps(report, default=float))
    if tracer is not None:
        metrics = {name: {"value": float(outcome.layers[name]), "unit": unit}
                   for name, unit in workloads.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": float(outcome.e2e[name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": outcome.correct,
                      "attempted": max(1, outcome.attempted),
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
