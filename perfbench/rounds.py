"""Interleaved rounds of the benchmark, to check that its figures are steady.

Usage, from the root of a checkout::

    python3 perfbench/rounds.py --seeds 10 --seconds 30 [--trace 0]

Round ``i`` runs every workload once with seed ``first_seed + i``, in
the order given, so a slow stretch of the machine hits every workload
instead of one. Afterwards, for each workload and metric, it prints the
median of the rounds and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median. Every run's result line is appended to
``.perfbench_out/rounds.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, OUT_DIR, ROOT
from workloads import WORKLOADS


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    values: dict[str, dict[str, list[float]]] = {
        w: {} for w in args.workloads
    }
    log = os.path.join(OUT_DIR, "rounds.jsonl")
    for i in range(args.seeds):
        seed = args.first_seed + i
        for workload in args.workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"workload": workload, "seed": seed, **result}
                ) + "\n")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"round {i} seed {seed} {workload} done", flush=True)
    for workload, metrics in values.items():
        print(f"\n{workload}")
        for name, vals in metrics.items():
            spread_txt = (
                f"{100 * spread(vals):6.2f}%" if len(vals) > 1 else "   n/a"
            )
            print(f"  {name:32s} median {statistics.median(vals):14.6g}"
                  f"  spread {spread_txt}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
