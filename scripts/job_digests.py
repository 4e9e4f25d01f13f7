#!/usr/bin/env python3
"""Print the manifest digest of each job of a benchmark workload.

Usage:
    python scripts/job_digests.py --workload W --seed S [--jobs N]

Generates the workload's job list with perfbench/workloads.py (read, not
changed), runs the first N jobs (all by default) one by one with the
package under this checkout's src/ (PYTHONPATH is not needed), each into
its own temporary directory, and prints one line per job:

    <index> <kind> <sha256 of the job's manifest.txt>

Two checkouts that print the same lines write the same bytes for every
job, since a manifest lists the sha256 of each file the run wrote. A job
that fails prints its exit code or error in place of the digest. The
exit code is 1 if any job failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# this checkout's program first, so the digests are of its source and not of
# an installed copy or one on PYTHONPATH
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import presliding  # noqa: E402

if Path(presliding.__file__).resolve().parent != ROOT / "src" / "presliding":
    sys.exit(f"presliding imported from {presliding.__file__}, not {ROOT / 'src'}")

from workloads import WORKLOADS, generate  # noqa: E402

from presliding.cli import config_from_dict, run_experiment  # noqa: E402


def job_digest(job: dict, out: Path) -> str:
    """sha256 of manifest.txt after running job into out, or why there is none."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # validate prints its checks
            code, _ = run_experiment(config_from_dict(dict(job, output_dir=str(out))))
    except Exception as exc:  # reported on stderr and in the job's line; the next job runs
        traceback.print_exc()
        return f"error:{type(exc).__name__}"
    if code != 0:
        return f"exit:{code}"
    return hashlib.sha256((out / "manifest.txt").read_bytes()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=None, help="first N jobs (default: all)")
    args = parser.parse_args()

    jobs = generate(args.workload, args.seed)[: args.jobs]
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, job in enumerate(jobs):
            digest = job_digest(job, Path(tmp) / f"job{i}")
            failed |= len(digest) != 64  # a sha256 hex digest, or why there is none
            print(f"{i} {job['kind']} {digest}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
