"""Outside-in tracing of the presliding modules, from the benchmark's files.

The tracer wraps each traced public function at every name its callers
look up. The package imports with ``from .x import f``, so a function has
one binding per importing module (``cli.simulate``, ``validation.simulate``)
plus its own module's binding for internal calls (``oscillator.step``);
each of those is patched separately. ``dahl_rate`` is deliberately not
wrapped: it runs four times per RK4 step, and a wrapper there multiplies
the traced run time. Its cost shows inside ``oscillator.step``.

A span is (name, start, end, parent span, job id). Spans live in compact
in-memory arrays while jobs run and are reduced and written out after the
last job.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

VALIDATION_CHECKS = (
    "check_max_potential_energy",
    "check_quadrature_equivalence",
    "check_form_consistency",
    "check_stop_spring_conservative",
    "check_clockwise_dissipation",
    "check_energy_balance",
    "check_equal_areas",
    "check_chain_vs_simulation",
    "check_series_convergence",
    "check_monotone_decay",
    "check_reversal_frequency_trend",
    "check_approx_forms",
    "check_omega_envelope",
    "check_determinism",
)
FIGURE_BUILDERS = (
    "fig3_table",
    "fig4_table",
    "fig5_tables",
    "fig6_table",
    "fig7_energy_magnitude",
    "fig7_envelope",
)


def _table_rows(result) -> int:
    return len(result[1])


def _tables_rows(result) -> int:
    return sum(len(rows) for _, _, rows in result)


# span name -> (modules whose binding callers look up, extract a count
# from the result or None)
TARGETS = {
    "cli.config_from_dict": (("cli",), None),
    "cli.run_experiment": (("cli",), None),
    "oscillator.simulate": (("cli", "validation"), None),
    "oscillator.step": (("oscillator",), None),
    "oscillator.locate_reversal": (("oscillator",), None),
    "hysteresis.loop_dissipation": (("validation",), None),
    "reversal.reversal_chain": (("cli", "figures", "validation"), len),
    "reversal.next_reversal_exact": (("reversal", "figures", "validation"), None),
    "oracle.integrate": (("hysteresis", "validation"), lambda r: r.evaluations),
    "validation.run_all": (("cli",), None),
    **{f"validation.{c}": (("validation",), None) for c in VALIDATION_CHECKS},
    # figures is listed for validate's determinism check, which imports
    # fig3_table inside the function body
    **{f"figures.{b}": (("cli", "figures"), _tables_rows if b == "fig5_tables" else _table_rows)
       for b in FIGURE_BUILDERS},
    "_csv.write_csv": (("cli", "oscillator", "reversal"), lambda n: n),
}
ROOT = "job"  # the benchmark's own span around one job

# span names that must record spans on each workload (self-test guard)
REACHES = {
    "sim-sweep": ["cli.config_from_dict", "cli.run_experiment", "oscillator.simulate",
                  "oscillator.step", "oscillator.locate_reversal",
                  "figures.fig7_energy_magnitude", "figures.fig7_envelope", "_csv.write_csv"],
    "closed-form": ["cli.config_from_dict", "cli.run_experiment", "reversal.reversal_chain",
                    "reversal.next_reversal_exact", "figures.fig3_table", "figures.fig4_table",
                    "figures.fig5_tables", "figures.fig6_table", "_csv.write_csv"],
    "validate": ["cli.config_from_dict", "cli.run_experiment", "oscillator.simulate",
                 "oscillator.step", "oscillator.locate_reversal",
                 "hysteresis.loop_dissipation", "reversal.reversal_chain",
                 "reversal.next_reversal_exact", "oracle.integrate", "validation.run_all",
                 *(f"validation.{c}" for c in VALIDATION_CHECKS), "_csv.write_csv"],
}


class Tracer:
    """Records spans of the wrapped functions while installed.

    Each wrapped call costs the tracer some time, part of it inside the
    span's own interval and the rest in its parent's. ``install`` measures
    both parts on a wrapped no-op, and the analysis subtracts them, so
    self times describe the program rather than the tracer.
    """

    def __init__(self):
        self.names = [ROOT, *TARGETS]
        self.columns = {"id": array("i"), "name": array("i"), "parent": array("i"),
                        "job": array("i"), "start": array("d"), "end": array("d")}
        self.counts: dict[int, int] = {}  # span id -> count taken from its result
        self.csv_paths: dict[int, str] = {}  # write_csv span id -> path written
        self.overhead_in = self.overhead_out = 0.0  # seconds per wrapped call
        self.missing: list[str] = []
        self._job = -1
        self._log: list[tuple[int, int, int, float, float]] = []  # spans of the running job
        self._ids = itertools.count()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, count, is_csv: bool):
        ids, stack, log_append = self._ids, self._stack, self._log.append
        counts, csv_paths, clock = self.counts, self.csv_paths, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = next(ids)
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                log_append((i, name_id, parent, t0, t1))
            if count is not None:
                counts[i] = count(result)
            if is_csv:
                csv_paths[i] = str(args[0])
            return result

        return wrapper

    def _calibrate(self, calls: int = 20000, batches: int = 5) -> None:
        def noop():
            return None

        wrapped = self._wrap(0, noop, None, False)
        inside, outside = [], []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t0
            self._log.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            total = time.perf_counter() - t0
            in_spans = sum(t1 - t0 for *_, t0, t1 in self._log)
            inside.append(max(in_spans - bare, 0.0) / calls)
            outside.append((total - bare) / calls - inside[-1])
        self.overhead_in = statistics.median(inside)
        self.overhead_out = statistics.median(outside)
        self._log.clear()
        self._ids = itertools.count()

    def install(self) -> None:
        self._calibrate()
        for name_id, name in enumerate(self.names[1:], start=1):
            mod_name, func = name.split(".")
            sites, count = TARGETS[name]
            home = importlib.import_module(f"presliding.{mod_name}")
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name_id, original, count, name == "_csv.write_csv")
            for site in sites:
                mod = importlib.import_module(f"presliding.{site}")
                if getattr(mod, func, None) is not original:
                    self.missing.append(f"{site}.{func}")
                    continue
                setattr(mod, func, wrapper)
                self._patched.append((mod, func, original))

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()

    def begin_job(self, job: int) -> tuple[int, float]:
        self._job = job
        i = next(self._ids)
        self._stack.append(i)
        return i, time.perf_counter()

    def end_job(self, token: tuple[int, float]) -> None:
        """Close the job's root span and move the job's spans to the arrays."""
        t1 = time.perf_counter()
        self._stack.pop()
        i, t0 = token
        self._log.append((i, 0, -1, t0, t1))
        cols = self.columns
        for i, name_id, parent, t0, t1 in self._log:
            cols["id"].append(i)
            cols["name"].append(name_id)
            cols["parent"].append(parent)
            cols["job"].append(self._job)
            cols["start"].append(t0)
            cols["end"].append(t1)
        self._log.clear()

    def write(self, path: Path) -> None:
        """Write every span, in id order, as gzipped CSV: id,name,start_us,end_us,parent,job."""
        cols = self.columns
        order = sorted(range(len(cols["id"])), key=cols["id"].__getitem__)
        t_ref = min(cols["start"], default=0.0)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_us,end_us,parent,job\n")
            for k in order:
                fh.write(f"{cols['id'][k]},{self.names[cols['name'][k]]},"
                         f"{(cols['start'][k] - t_ref) * 1e6:.3f},{(cols['end'][k] - t_ref) * 1e6:.3f},"
                         f"{cols['parent'][k]},{cols['job'][k]}\n")


class _Spans:
    """Numpy columns of a tracer's spans, indexed by span id, with the
    tracer's calibrated cost taken out of durations and self times, and
    each job's durations scaled by its factor."""

    def __init__(self, tr: Tracer, csv_bytes: dict[int, int], job_scale: np.ndarray):
        self.names = tr.names
        cols = {k: np.array(v) for k, v in tr.columns.items()}
        order = np.argsort(cols["id"])
        n = len(order)
        if not np.array_equal(cols["id"][order], np.arange(n)):
            raise ValueError("span ids are not contiguous")
        self.nid = cols["name"][order]
        self.parent = cols["parent"][order]
        self.jobs = cols["job"][order]
        dur = cols["end"][order] - cols["start"][order]
        has_parent = self.parent >= 0
        self.parent_nid = np.full(n, -1, dtype=self.nid.dtype)
        self.parent_nid[has_parent] = self.nid[self.parent[has_parent]]
        # descendants per span; a parent always has a smaller id than its children
        desc = [0] * n
        parents = self.parent.tolist()
        for i in range(n - 1, -1, -1):
            if parents[i] >= 0:
                desc[parents[i]] += 1 + desc[i]
        wrapped = (self.nid != 0).astype(float)
        self.dur = (dur - tr.overhead_in * wrapped
                    - np.array(desc) * (tr.overhead_in + tr.overhead_out)) * job_scale[self.jobs]
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        self.count = np.zeros(n)
        for i, c in tr.counts.items():
            self.count[i] = c
        self.csv_bytes = np.zeros(n)
        for i, b in csv_bytes.items():
            self.csv_bytes[i] = b

    def mask(self, name: str, in_jobs: np.ndarray, parent: str | None = None) -> np.ndarray:
        m = (self.nid == self.names.index(name)) & in_jobs
        if parent is not None:
            m &= self.parent_nid == self.names.index(parent)
        return m


def _ratio(a: float, b: float) -> float:
    return float(a / b) if b else 0.0


def layer_metrics(tr: Tracer, csv_bytes: dict[int, int], count_jobs: int, job_scale: list[float],
                  manifest_bytes_per_job: float, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans.

    Times use every traced job, each job's spans multiplied by its entry
    in ``job_scale``; counts use only the first ``count_jobs`` jobs, a
    prefix fixed by the workload, so they repeat exactly for a seed
    however long the run was.
    """
    sp = _Spans(tr, csv_bytes, np.asarray(job_scale))
    t_jobs = sp.jobs >= 0
    c_jobs = sp.jobs < count_jobs
    out: dict[str, tuple[float, str]] = {}

    def n(name, jobs, parent=None) -> int:
        return int(sp.mask(name, jobs, parent).sum())

    def total(name, jobs=t_jobs, parent=None, attr="dur") -> float:
        return float(getattr(sp, attr)[sp.mask(name, jobs, parent)].sum())

    def mean_us(name) -> float:
        return _ratio(total(name) * 1e6, n(name, t_jobs))

    out["cli.config_from_dict.us"] = (mean_us("cli.config_from_dict"), "us")
    out["cli.run_experiment.self_ms"] = (
        _ratio(total("cli.run_experiment", attr="self_time") * 1e3, n("cli.run_experiment", t_jobs)), "ms")
    out["cli.manifest.bytes_per_job"] = (manifest_bytes_per_job, "B")

    steps = n("oscillator.step", t_jobs, parent="oscillator.simulate")
    out["oscillator.simulate.us_per_step"] = (_ratio(total("oscillator.simulate") * 1e6, steps), "us")
    out["oscillator.simulate.self_us_per_step"] = (
        _ratio(total("oscillator.simulate", attr="self_time") * 1e6, steps), "us")
    out["oscillator.simulate.steps_per_reversal"] = (
        _ratio(n("oscillator.step", c_jobs, parent="oscillator.simulate"),
               n("oscillator.locate_reversal", c_jobs, parent="oscillator.simulate")), "count")
    out["oscillator.step.us"] = (mean_us("oscillator.step"), "us")
    out["oscillator.step.calls_per_job"] = (_ratio(n("oscillator.step", c_jobs), count_jobs), "count")
    out["oscillator.locate_reversal.us"] = (mean_us("oscillator.locate_reversal"), "us")
    out["oscillator.locate_reversal.steps_per_call"] = (
        _ratio(n("oscillator.step", c_jobs, parent="oscillator.locate_reversal"),
               n("oscillator.locate_reversal", c_jobs)), "count")

    out["hysteresis.loop_dissipation.us"] = (mean_us("hysteresis.loop_dissipation"), "us")

    halfcycles = total("reversal.reversal_chain", attr="count")
    out["reversal.reversal_chain.us_per_halfcycle"] = (
        _ratio(total("reversal.reversal_chain") * 1e6, halfcycles), "us")
    out["reversal.reversal_chain.self_us_per_halfcycle"] = (
        _ratio(total("reversal.reversal_chain", attr="self_time") * 1e6, halfcycles), "us")
    out["reversal.next_reversal_exact.us"] = (mean_us("reversal.next_reversal_exact"), "us")
    out["reversal.next_reversal_exact.calls_per_job"] = (
        _ratio(n("reversal.next_reversal_exact", c_jobs), count_jobs), "count")

    out["oracle.integrate.us"] = (mean_us("oracle.integrate"), "us")
    out["oracle.integrate.evals_per_call"] = (
        _ratio(total("oracle.integrate", c_jobs, attr="count"), n("oracle.integrate", c_jobs)), "count")

    runs = n("validation.run_all", t_jobs)
    for check in VALIDATION_CHECKS:
        out[f"validation.{check}.ms"] = (_ratio(total(f"validation.{check}") * 1e3, runs), "ms")
    out["validation.run_all.self_ms"] = (
        _ratio(total("validation.run_all", attr="self_time") * 1e3, runs), "ms")

    for builder in FIGURE_BUILDERS:
        name = f"figures.{builder}"
        out[f"{name}.us_per_row"] = (_ratio(total(name) * 1e6, total(name, attr="count")), "us")

    rows = total("_csv.write_csv", attr="count")
    out["csv.write_csv.us_per_row"] = (_ratio(total("_csv.write_csv") * 1e6, rows), "us")
    out["csv.write_csv.rows_per_job"] = (
        _ratio(total("_csv.write_csv", c_jobs, attr="count"), count_jobs), "count")
    out["csv.write_csv.mb_per_s"] = (
        _ratio(total("_csv.write_csv", attr="csv_bytes") / 1e6, total("_csv.write_csv")), "MB/s")

    job_time = float(sp.dur[(sp.nid == 0) & t_jobs].sum())
    modules = {name.split(".")[0] for name in TARGETS}
    for module in sorted(modules):
        in_module = np.isin(sp.nid, [k for k, nm in enumerate(sp.names) if nm.startswith(module + ".")])
        share = _ratio(float(sp.self_time[in_module & t_jobs].sum()), job_time)
        out[f"{module.lstrip('_')}.self_share"] = (share, "share")
    out["untraced.self_share"] = (_ratio(float(sp.self_time[(sp.nid == 0) & t_jobs].sum()), job_time),
                                  "share")
    out["trace.overhead"] = (overhead, "x")
    return out


def missing_spans(tr: Tracer, workload: str) -> list[str]:
    """Span names this workload must reach but recorded no span for."""
    seen = set(tr.columns["name"])
    return [name for name in REACHES[workload] if tr.names.index(name) not in seen]
