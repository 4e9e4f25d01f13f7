"""Print every end-to-end metric of every workload, one line each.

    python3 perfbench/report.py [--seed N] [--seconds S]

``--seconds`` defaults to BENCHMARK.json's ``run_seconds``. Runs
``run.py --trace 0`` once per workload, each in its own process so
that ``peak_rss_mib`` is per workload, and prefixes each metric line with
the workload's name. Exits 1 if any workload's outputs were not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])
    args = parser.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=RUN.parent.parent, capture_output=True, text=True, check=True)
        *lines, last = done.stdout.splitlines()
        for line in lines:
            print(f"{workload} {line}")
        all_correct &= json.loads(last)["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
