"""presliding benchmark: seeded CLI workloads, job-level metrics, per-module trace.

Run from the repository root:

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 15 --trace 0

Each job is what a CLI user runs: ``cli.config_from_dict(<generated dict>)``
then ``cli.run_experiment``, in a closed loop from one client in one
process with no extra threads. Each job writes into its own temporary
directory under ``perfbench/tmp``; its outputs are checked and the
directory deleted outside the timed interval. Workloads are described in
``workloads.py``.

``--trace 0`` measures the end-to-end metrics. Every timing is reported
at nominal host speed: each job's wall time (and each interpreter
start's) is divided by the host slowness that a reference kernel timed
just before and just after it measures (``hostspeed.py``). The raw wall
values and the mean slowness are printed and recorded beside them.

- ``setup_s``: a fresh interpreter's start until ``presliding.cli`` is
  imported, median of several fresh interpreters;
- ``jobs_per_s``: jobs completed per second of job wall time, over at
  least one whole block of the workload's job mix;
- ``job_p50_s``: median job latency;
- ``job_tail_s``: latency at the highest percentile that leaves at least
  ten samples above it (the 11th slowest job);
- ``peak_rss_mib``: ``ru_maxrss`` of this process.

``--trace 1`` runs a stretch of jobs untraced, the same jobs again with
the tracer of ``spans.py`` installed, and reports the per-layer metrics
plus ``trace.overhead`` (traced over untraced time on the same jobs),
all at nominal host speed like the end-to-end timings.

Lines on standard output name each metric with its unit; the last line
is one JSON object. Everything else (job list and its sha256, run digest,
failures, versions) goes to ``perfbench/out/<workload>-trace<k>.json``
and the traced run's spans to ``perfbench/out/<workload>-spans.csv.gz``.
The exit code is 0 when the run completed, whether or not outputs were
correct, and 2 when the program could not be found or started.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hostspeed import NOMINAL_S, HostSpeed
from spans import Tracer, layer_metrics, missing_spans
from workloads import SEED_USED, WORKLOADS, block_size, generate, jobs_sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
SETUP_REPS = 9


def measure_setup_s(speed: HostSpeed) -> tuple[float, float]:
    """Median time from a fresh interpreter's start to ``presliding.cli``
    imported: raw, and at nominal host speed.

    The child prints its monotonic clock once the import is done; the
    clock is system-wide, so the difference to the parent's clock at
    spawn time is the set-up time without interpreter teardown. One
    unrecorded first start fills the bytecode and page caches, as on any
    repeated CLI use. Host speed is sampled alongside, as for jobs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import presliding.cli, time; print(repr(time.perf_counter()))"]
    spawns = []
    # the child inherits one CPU with the parent, so that the speed samples
    # taken here describe the CPU the import runs on
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
    except OSError:
        pass  # unpinned, the samples describe the child's CPU less well
    try:
        for _ in range(SETUP_REPS + 1):
            speed.sample()
            t0 = time.perf_counter()
            done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=60)
            spawns.append((t0, float(done.stdout) - t0))
        speed.sample()
    finally:
        os.sched_setaffinity(0, cpus)
    return (statistics.median(t for _, t in spawns[1:]),
            statistics.median(speed.adjust(*s) for s in spawns[1:]))


class Runner:
    """Runs, checks and cleans up jobs of one workload."""

    def __init__(self, cli, check_job, jobs: list[dict]):
        self.cli = cli
        self.check_job = check_job
        self.jobs = jobs
        self.tmp = BENCH / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.manifests: dict[int, bytes] = {}  # job id -> manifest.txt bytes
        self.out_bytes: dict[int, int] = {}  # job id -> bytes of all outputs
        self.tracer = None
        self.csv_bytes: dict[int, int] = {}  # write_csv span index -> file size
        self.speed = HostSpeed()
        self.starts: list[float] = []  # clock at the start of each loop job

    def run(self, i: int) -> tuple[float, bool]:
        """Run job i; returns its wall time and whether it passed its checks."""
        job = self.jobs[i % len(self.jobs)]
        work = Path(tempfile.mkdtemp(prefix=f"job{i}-", dir=self.tmp))
        out = work / "out"
        config = dict(job, output_dir=str(out))
        captured = io.StringIO()
        cli, tracer = self.cli, self.tracer
        self.attempted += 1
        elapsed = 0.0
        try:
            root = tracer.begin_job(i) if tracer else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured):
                    code, paths = cli.run_experiment(cli.config_from_dict(config))
            finally:
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.end_job(root)
                    self._record_csv_sizes()
            problems = self.check_job(job, out, code, paths, captured.getvalue())
            if not problems:
                self.manifests.setdefault(i, (out / "manifest.txt").read_bytes())
                self.out_bytes[i] = sum(p.stat().st_size for p in out.iterdir())
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(work)
        if problems:
            self.failures.append(f"job {i} ({job['kind']}): {'; '.join(problems)}")
        return elapsed, not problems

    def _record_csv_sizes(self) -> None:
        paths = self.tracer.csv_paths
        for k, path in paths.items():
            if os.path.exists(path):
                self.csv_bytes[k] = os.path.getsize(path)
        paths.clear()

    def loop(self, seconds: float, min_jobs: int, max_jobs: int | None) -> list[float | None]:
        """Run jobs 0, 1, ... until `seconds` of job time and `min_jobs` jobs,
        or exactly `max_jobs` jobs when that is given. Returns each job's
        wall time, None for a failed job. Failing jobs still spend time, and
        a wall-clock cap ends a run whose checks take far longer than its jobs.
        Host speed is sampled before, between and after the jobs."""
        times: list[float | None] = []
        spent = 0.0
        deadline = time.perf_counter() + 5 * seconds + 30
        self.speed.sample()
        while (len(times) < max_jobs) if max_jobs else (
                (spent < seconds or len(times) < min_jobs) and time.perf_counter() < deadline):
            start = time.perf_counter()
            elapsed, ok = self.run(len(times))
            self.speed.after(elapsed)
            self.starts.append(start)
            times.append(elapsed if ok else None)
            spent += elapsed
        self.speed.sample()
        return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above) of the 11th slowest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def job_timings(latencies: list[float]) -> dict[str, float]:
    """jobs_per_s, job_p50_s and job_tail_s of the passing jobs' latencies."""
    if not latencies:
        return dict.fromkeys(("jobs_per_s", "job_p50_s", "job_tail_s"), 0.0)
    return {"jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail(latencies)[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_jobs: int | None = None) -> dict:
    """Measure one workload; returns the full result record."""
    # these import the program, so only after _import_program put it on the path
    from checks import check_job
    from presliding import cli

    jobs = generate(workload, seed)
    block = block_size(workload)
    runner = Runner(cli, check_job, jobs)
    count_jobs = block if max_jobs is None else max_jobs  # the prefix counts and digest cover
    metrics: dict[str, tuple[float, str]] = {}
    info: dict = {}

    if not trace:
        setup_raw, setup_s = measure_setup_s(runner.speed)
        for i in range(len(set(j["kind"] for j in jobs[:block]))):  # warm-up, untimed
            runner.run(i)
        runner.manifests.clear()
        times = runner.loop(seconds, block, max_jobs)
        raw = [t for t in times if t is not None]
        adjusted = [runner.speed.adjust(s, t) for s, t in zip(runner.starts, times) if t is not None]
        for name, value in job_timings(adjusted).items():
            metrics[name] = (value, "1/s" if name == "jobs_per_s" else "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        info["raw_wall"] = {**job_timings(raw), "setup_s": setup_raw}
        info["host_slowness"] = {"mean": runner.speed.slowness(), "samples": len(runner.speed.samples),
                                 "nominal_kernel_s": NOMINAL_S}
        info["job_seconds"] = times
        if adjusted:
            _, pct, above = tail(adjusted)
            info["job_tail"] = {"percentile": pct, "samples": len(adjusted), "samples_above": above}
    else:
        untraced = runner.loop(seconds / 3, block, max_jobs)
        n = len(untraced)
        runner.manifests.clear()
        runner.tracer = tracer = Tracer()
        tracer.install()
        try:
            traced = runner.loop(0.0, 0, n)
        finally:
            tracer.uninstall()
        # job times at nominal host speed: first the untraced, then the traced pass
        at_nominal = [None if t is None else runner.speed.adjust(s, t)
                      for s, t in zip(runner.starts, untraced + traced)]
        pairs = [(u, t) for u, t in zip(at_nominal[:n], at_nominal[n:])
                 if u is not None and t is not None]
        overhead = sum(t for _, t in pairs) / sum(u for u, _ in pairs) if pairs else 0.0
        # each traced job's spans are scaled by that job's host-speed factor
        job_scale = [1.0 if t is None else a / t for t, a in zip(traced, at_nominal[n:])]
        out_bytes = [runner.out_bytes.get(i, 0) for i in range(count_jobs)]
        metrics = layer_metrics(tracer, runner.csv_bytes, count_jobs, job_scale,
                                float(np.mean(out_bytes)), overhead)
        info["traced_jobs"] = n
        info["missing_spans"] = missing_spans(tracer, workload)
        info["unpatched"] = tracer.missing
        info["tracer_cost_us"] = {"inside_span": tracer.overhead_in * 1e6,
                                  "in_parent": tracer.overhead_out * 1e6}
        BENCH.joinpath("out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"{workload}-spans.csv.gz")

    digest = hashlib.sha256(b"".join(runner.manifests.get(i, b"") for i in range(count_jobs)))
    failed = len(runner.failures)
    info.update({
        "workload": workload,
        "seed": seed,
        "seed_used": SEED_USED[workload],
        "seconds": seconds,
        "trace": int(trace),
        "failed_frac": failed / runner.attempted,
        "run_digest": {"jobs": count_jobs, "sha256": digest.hexdigest()},
        "jobs_sha256": jobs_sha256(jobs),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "failures": runner.failures[:20],
        "jobs": jobs,
    })
    return {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
            "metrics": metrics, "info": info}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the package from it."""
    if not (SRC / "presliding" / "__init__.py").is_file():
        raise ImportError(f"no presliding package under {SRC}")
    sys.path.insert(0, str(SRC))
    import presliding

    if Path(presliding.__file__).resolve().parent != SRC / "presliding":
        raise ImportError(f"presliding imported from {presliding.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result["info"]
    BENCH.joinpath("out").mkdir(exist_ok=True)
    record = BENCH / "out" / f"{args.workload}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} (used: {info['seed_used']}) "
          f"jobs_sha256 {info['jobs_sha256'][:16]}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    if "raw_wall" in info:
        print(f"host slowness {info['host_slowness']['mean']:.4g} "
              f"(raw: {', '.join(f'{k} {v:.6g}' for k, v in info['raw_wall'].items())})")
    if "job_tail" in info:
        t = info["job_tail"]
        print(f"job_tail_s is p{t['percentile']:.4g} of {t['samples']} jobs "
              f"({t['samples_above']} above)")
    print(f"failed_frac {info['failed_frac']:.6g} (of {result['attempted']} jobs)")
    print(f"run_digest {info['run_digest']['sha256'][:16]} (first {info['run_digest']['jobs']} jobs)")
    for line in info["failures"][:5]:
        print(f"failure: {line}", file=sys.stderr)
    if info.get("missing_spans"):
        print(f"warning: no spans for {info['missing_spans']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
