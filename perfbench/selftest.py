"""Self-test of the benchmark, on a few jobs per workload.

    python3 perfbench/selftest.py

For every workload it checks that the outputs pass, that every metric
named in BENCHMARK.json is reported, that each span the workload must
reach recorded at least one span (so a refactor that moves an import
cannot silently drop a layer), and that every count metric and the run
digest repeat exactly across two traced runs with the same seed. Exits 1
on any problem.
"""

from __future__ import annotations

import json
import sys

import run

TINY_JOBS = {"sim-sweep": 2, "closed-form": 5, "validate": 1}
COUNT_UNITS = ("count", "B")


def main() -> int:
    run._import_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload, jobs in TINY_JOBS.items():
        plain = run.run_workload(workload, seed=1, seconds=0, trace=False, max_jobs=jobs)
        traced = [run.run_workload(workload, seed=1, seconds=0, trace=True, max_jobs=jobs)
                  for _ in range(2)]
        env = plain["info"]["environment"]
        print(f"{workload}: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}")
        for result in (plain, *traced):
            if not result["correct"]:
                problems.append(f"{workload}: failures {result['info']['failures']}")
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json")
        if any(v <= 0 for v, _ in plain["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric is not positive")
        first, second = traced
        if set(first["metrics"]) != per_layer:
            problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        for key in ("missing_spans", "unpatched"):
            if first["info"][key]:
                problems.append(f"{workload}: {key} {first['info'][key]}")
        for name, (value, unit) in first["metrics"].items():
            if unit in COUNT_UNITS and second["metrics"][name][0] != value:
                problems.append(f"{workload}: count {name} differs across runs with one seed")
        digests = {r["info"]["run_digest"]["sha256"] for r in (plain, *traced)}
        if len(digests) != 1:
            problems.append(f"{workload}: run digest differs across runs with one seed")
    for line in problems:
        print(f"FAIL {line}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
