"""Regenerate ``pins.json``: each workload's witness for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 16

A pin fixes the witness digest, answer count and mean error that
``run.py`` requires for that seed. Regenerate only when a change is
meant to alter what the program answers, and say so in its description.
"""

from __future__ import annotations

import argparse
import json
import os

from run import OUT_DIR, PINS_PATH, run_session
from workloads import WORKLOADS

PINNED = ("digest", "answers", "mean_error_m")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=16,
                        help="pin seeds 0 .. N-1")
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    pins: dict = {}
    for workload in sorted(WORKLOADS):
        pins[workload] = {}
        for seed in range(args.seeds):
            record = run_session(workload, seed, 0)
            pins[workload][str(seed)] = {k: record[k] for k in PINNED}
            print(workload, seed, record["digest"][:16], record["answers"],
                  flush=True)
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
