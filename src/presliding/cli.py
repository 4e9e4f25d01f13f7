"""Command-line front end.

One parser takes the experiment kind as a positional argument and the
same flags for every kind, before or after it:

    presliding <kind> [--config cfg.json] [--out DIR] [--override k.path=v ...]

Kinds: simulate, chain, fig3..fig7, validate. Configs are JSON with
nested keys (schema documented in the README); every kind has complete
built-in defaults, so --config is optional. Runs are fully deterministic:
identical configs produce byte-identical CSVs, and every run writes a
manifest.txt listing filename, data row count and sha256 of each produced
file.

A run builds its files in memory and writes them all once it has
finished, manifest.txt last, so a run that fails writes nothing.

Exit codes: 0 success, 1 validation failure, 2 configuration error, 3 a
run that failed (a step rejected, a solver that did not converge, an
overflow, an output directory that cannot be written).
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import typing
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from ._csv import encode_csv
from .errors import ConfigError, ConvergenceError, DomainError, StepRejectionError
from .figures import (
    CHAIN_HEADER,
    DEFAULT_SWEEPS,
    FIG7_README,
    _columns,
    fig3_table,
    fig4_table,
    fig5_tables,
    fig6_table,
    fig7_energy_magnitude,
    fig7_envelope,
    reversals_table,
    trajectory_table,
)
from .hysteresis import FrictionParams
from .oscillator import SimConfig, simulate
from .reversal import _scales, reversal_chain

__all__ = [
    "KINDS",
    "ExperimentConfig",
    "ChainSettings",
    "default_config",
    "load_config",
    "run_experiment",
    "main",
]

# kinds that write files per sweep entry, named with the entry's suffix
_PER_ENTRY_KINDS = ("simulate", "chain", "fig7")

# Largest chain.n_steps (chain and fig6 build each chain in memory): 10**6
# steps took 6.3 s and 317 MiB peak RSS for one chain (99 MB of CSV), and
# 16.8 s and 938 MiB for fig6's three default ratios (310 MB), each in a
# fresh process (resource.getrusage) on a 2-vCPU host.
MAX_CHAIN_STEPS = 10**6


class ChainSettings(NamedTuple):
    """Reversal-chain fields exposed to experiment configs."""

    f0_over_fc: float = -1.0
    n_steps: int = 20
    mode: str = "exact"


class ExperimentConfig(NamedTuple):
    kind: str
    sim: SimConfig  # at the unswept base params (default params for a kind that does not simulate)
    chain: ChainSettings
    output_dir: Path
    # (file-name suffix, sweep value, params) per entry; ("", None, params) without a sweep
    runs: tuple[tuple[str, Optional[float], FrictionParams], ...]


def default_config(kind: str) -> dict:
    """Built-in config dict for a kind (the documented schema)."""
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return {
        "kind": kind,
        "params": {"f_c": 1.0, "sigma": 1.0, **FrictionParams._field_defaults},
        "sweep": list(DEFAULT_SWEEPS.get(kind, [])) or None,
        "sim": dict(SimConfig._field_defaults),
        "chain": ChainSettings()._asdict(),
        "output_dir": "out",
    }


def apply_overrides(data: dict, overrides: Sequence[str]) -> dict:
    """Apply repeatable `key.path=value` overrides onto a config dict.

    A value is parsed as JSON, or else taken as the raw string.
    """
    import json

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        node = data
        parts = key.split(".")
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"{'.'.join(parts[:i + 1])}: expected an object, got {node!r}")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
        except RecursionError as exc:
            raise ConfigError(f"override {key}: value nests too deeply to parse") from exc
    return data


@functools.cache
def _numeric_fields(cls) -> dict[str, tuple[type, bool]]:
    """Number fields of cls: name -> (float or int, whether None is allowed)."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        accepted = set(typing.get_args(hint)) or {hint}
        kind = float if float in accepted else int if int in accepted else None
        if kind is not None:
            out[name] = (kind, type(None) in accepted)
    return out


def _check_number(value, where: str, kind: type = float):
    """A config number as a float, or as is for kind int.

    Raises ConfigError naming where for a bool, a non-number, or an int
    beyond the float range in a float field.
    """
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        expected = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    if kind is int:
        return value
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_record(cls, data: dict, path: str, **fixed):
    """cls(**data, **fixed); the fixed fields are not config fields."""
    known = set(cls._fields) - set(fixed)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {sorted(unknown, key=str)}")
    for name, (kind, nullable) in _numeric_fields(cls).items():
        value = data.get(name)
        if name in data and not (value is None and nullable):
            _check_number(value, f"{path}.{name}", kind)  # the field keeps the value as given
    try:
        return cls(**data, **fixed)
    except (ConfigError, DomainError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kind = data.pop("kind", None)
    if kind not in KINDS:
        raise ConfigError(f"kind: expected one of {KINDS}, got {kind!r}")
    defaults = default_config(kind)
    merged = dict(defaults)
    for key in ("params", "sim", "chain"):
        if key in data:
            section = data.pop(key)
            if not isinstance(section, dict):
                raise ConfigError(f"{key}: expected an object, got {section!r}")
            merged[key] = {**defaults[key], **section}
    for key in ("sweep", "output_dir"):
        if key in data:
            merged[key] = data.pop(key)
    if data:
        raise ConfigError(f"unknown top-level field(s) {sorted(data, key=str)}")
    if not isinstance(merged["output_dir"], str):
        raise ConfigError(f"output_dir: expected a string, got {merged['output_dir']!r}")

    params = _build_record(FrictionParams, merged["params"], "params")
    chain = _build_record(ChainSettings, merged["chain"], "chain")
    if chain.mode not in ("exact", "approx"):
        raise ConfigError(f"chain.mode: expected 'exact' or 'approx', got {chain.mode!r}")
    if not 1 <= chain.n_steps <= MAX_CHAIN_STEPS:
        raise ConfigError(f"chain.n_steps: expected 1 to {MAX_CHAIN_STEPS}, got {chain.n_steps}")
    if not -1.0 <= chain.f0_over_fc < 0.0:
        raise ConfigError(
            f"chain.f0_over_fc: expected a number in [-1, 0), got {chain.f0_over_fc!r}"
        )
    # checked on the built records, so a bool has been rejected before True == 1.0
    reads = _KINDS[kind][1]
    swept = None if merged["sweep"] is None else "params.f_c" if kind == "fig5" else "params.sigma"
    fields = [(f"{key}.{name}", merged[key][name], default)
              for key in ("params", "sim", "chain") for name, default in defaults[key].items()]
    for where, value, default in fields + [("sweep", merged["sweep"], defaults["sweep"])]:
        read = where != swept and (where in reads or where.partition(".")[0] in reads)
        if not read and value != default:
            raise ConfigError(
                f"{where}: kind {kind!r} does not read it"
                f"{' with a sweep' if where == swept else ''}; "
                f"expected the default {default!r}, got {value!r}"
            )

    sweep = merged["sweep"]
    if sweep is None and kind in DEFAULT_SWEEPS:
        raise ConfigError(f"sweep: kind {kind!r} needs a list of values")
    if sweep is not None:
        if not isinstance(sweep, (list, tuple)):
            raise ConfigError(f"sweep: expected a list, got {sweep!r}")
        if len(sweep) == 0:
            raise ConfigError("sweep: must not be empty")
        sweep = tuple(_check_number(v, f"sweep[{i}]") for i, v in enumerate(sweep))
        if not all(0 < v < math.inf for v in sweep):
            raise ConfigError("sweep: entries must be positive and finite")

    # a kind that does not simulate builds it at the default params: the default dt
    # of params it never simulates must not stop its closed-form scale check
    sim = _build_record(SimConfig, merged["sim"], "sim",
                        params=params if "sim" in reads else FrictionParams(**defaults["params"]))

    # one pass per entry: its file suffix, then its params (fig5 sweeps f_c,
    # every other kind sigma/f_c), the swept run's sim and its closed-form scales
    runs = ()
    first: dict[str, int] = {}  # suffix -> index of the first entry with it
    span = ", 2*f_c/sigma" if kind == "fig5" else ""
    for i, value in enumerate((None,) if sweep is None else sweep):
        sfx = "" if value is None else f"_ratio{value:g}"
        if kind in _PER_ENTRY_KINDS and sfx in first:
            raise ConfigError(
                f"sweep[{first[sfx]}] and sweep[{i}] both name their files {sfx!r} "
                f"(the suffix keeps 6 significant digits)"
            )
        first.setdefault(sfx, i)
        try:
            p = (params if value is None else params._replace(f_c=value) if kind == "fig5"
                 else params._replace(sigma=value * params.f_c))
            if value is not None and "sim" in reads:  # a swept run's default dt
                sim._replace(params=p)
            if "params" not in reads:  # the closed-form kinds, and validate's default params
                # the closed forms scale by these, fig5's curve spans about 1.59*f_c/sigma:
                # an inf scale writes inf or nan cells, a zero one zeros every energy or length
                x_scale, e_scale = _scales(p)
                if not all(0.0 < s < math.inf for s in (p.ratio, x_scale, e_scale,
                                                        (2.0 if span else 1.0) * x_scale)):
                    raise ConfigError(
                        f"f_c={p.f_c!r} and sigma={p.sigma!r} overflow or underflow a "
                        f"closed-form scale: sigma/f_c, f_c/sigma{span} and f_c**2/sigma must "
                        f"be finite and nonzero"
                    )
        except (ConfigError, DomainError) as exc:
            raise ConfigError(f"{'params' if value is None else f'sweep[{i}]'}: {exc}") from exc
        runs += ((sfx, value, p),)
    return ExperimentConfig(kind, sim, chain, Path(merged["output_dir"]), runs)


def load_config(
    kind: str,
    config_path: Optional[str],
    overrides: Sequence[str],
    out_dir: Optional[str],
) -> ExperimentConfig:
    """Load a config file (or defaults) for a kind and apply overrides."""
    if config_path is None:
        data = default_config(kind)
    else:
        import json

        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError: bad JSON or not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        data.setdefault("kind", kind)
    apply_overrides(data, overrides)
    if data["kind"] != kind:
        raise ConfigError(f"kind: {data['kind']!r} does not match the command line's {kind!r}")
    if out_dir is not None:
        data["output_dir"] = out_dir
    return config_from_dict(data)


def _commit(out_dir: Path, files: dict[str, tuple[bytes, int]]) -> list[Path]:
    """Write a finished run's files into out_dir, manifest.txt last.

    files maps each name to (bytes, data row count). Any old manifest goes
    before the first write, so no manifest ever lists bytes it does not
    describe. Returns the written paths, the manifest last.
    """
    lines = ["filename,rows,sha256"]
    for name in sorted(files):
        data, rows = files[name]
        lines.append(f"{name},{rows},{hashlib.sha256(data).hexdigest()}")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.txt"
    manifest.unlink(missing_ok=True)
    for name, (data, _) in files.items():
        (out_dir / name).write_bytes(data)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return [out_dir / name for name in files] + [manifest]


# A runner puts one kind's files, name -> (bytes, data row count), into
# `files` and returns the exit code; None stands for 0.


def _run_simulate(cfg: ExperimentConfig, files: dict) -> None:
    for sfx, _, p in cfg.runs:
        traj = simulate(cfg.sim._replace(params=p))
        files[f"trajectory{sfx}.csv"] = encode_csv(*trajectory_table(traj))
        files[f"reversals{sfx}.csv"] = encode_csv(*reversals_table(traj))


def _run_chain(cfg: ExperimentConfig, files: dict) -> None:
    c = cfg.chain
    for sfx, _, p in cfg.runs:
        chain = reversal_chain(c.f0_over_fc * p.f_c, c.n_steps, p, mode=c.mode)
        files[f"chain{sfx}.csv"] = encode_csv(CHAIN_HEADER, chain)


def _run_fig7(cfg: ExperimentConfig, files: dict) -> None:
    for sfx, _, p in cfg.runs:
        traj = simulate(cfg.sim._replace(params=p))
        files[f"fig7_traj{sfx}.csv"] = encode_csv(*fig7_energy_magnitude(traj))
        files[f"fig7_envelope{sfx}.csv"] = encode_csv(*fig7_envelope(traj))
    files["README.txt"] = (FIG7_README.encode("utf-8"), 0)


def _run_validate(cfg: ExperimentConfig, files: dict) -> int:
    # imported here: at module level, validation's import time (a few ms)
    # would be added to the start of every other kind
    from . import validation

    checks, audit_rows = validation.run_all()
    report = [(c.name, "pass" if c.passed else "FAIL", c.measured, c.tolerance, c.detail)
              for c in checks]
    files["validation_report.csv"] = encode_csv(
        ["check", "status", "measured", "tolerance", "detail"], _columns(report, 5)
    )
    header = validation.AUDIT_HEADER
    files["approx_audit.csv"] = encode_csv(header, _columns(audit_rows, len(header)))
    for name, status, measured, tolerance, detail in report:
        print(f"[{status}] {name}: measured={measured:.6g} tolerance={tolerance:.6g}"
              + (f" ({detail})" if detail else ""))
    return 0 if all(c.passed for c in checks) else 1


# Each kind's runner, and the config values it reads: a section name stands
# for all its fields. A given sweep replaces params.sigma (fig5: params.f_c),
# which is then not read. The closed forms hold for gamma == 1 and need no
# mass, so the kinds built on them name their params one by one.
_KINDS = {
    "simulate": (_run_simulate, {"params", "sim", "sweep"}),
    "chain": (_run_chain, {"params.f_c", "params.sigma", "chain", "sweep"}),
    "fig3": (lambda cfg, files: files.update({"fig3.csv": encode_csv(*fig3_table(cfg.runs))}),
             {"params.f_c", "sweep"}),
    "fig4": (lambda cfg, files: files.update({"fig4.csv": encode_csv(*fig4_table(cfg.runs))}),
             {"params.f_c", "sweep"}),
    "fig5": (lambda cfg, files: files.update(
        {name: encode_csv(header, columns) for name, header, columns in fig5_tables(cfg.runs)}
    ), {"params.sigma", "sweep"}),
    "fig6": (lambda cfg, files: files.update({"fig6.csv": encode_csv(*fig6_table(
        cfg.runs, cfg.chain.f0_over_fc, cfg.chain.n_steps, cfg.chain.mode
    ))}), {"params.f_c", "chain", "sweep"}),
    "fig7": (_run_fig7, {"params", "sim", "sweep"}),
    "validate": (_run_validate, set()),  # validation.run_all builds its own cases
}
KINDS = tuple(_KINDS)


def run_experiment(cfg: ExperimentConfig) -> tuple[int, list[Path]]:
    """Execute one experiment config; returns (exit_code, written_paths).

    Every file is built in memory and written only once the run has
    finished, manifest.txt last: a run that raises writes nothing, and an
    earlier run's files and manifest in the output directory stay whole.
    """
    files: dict[str, tuple[bytes, int]] = {}
    code = _KINDS[cfg.kind][0](cfg, files) or 0
    return code, _commit(cfg.output_dir, files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="presliding",
        description="Pre-sliding friction hysteresis experiments and validation.",
    )
    parser.add_argument("kind", choices=KINDS, help="the experiment to run")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override with dotted key path (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.kind, args.config, args.override, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        code, paths = run_experiment(cfg)
    except (StepRejectionError, ConvergenceError, DomainError, ArithmeticError, OSError) as exc:
        print(f"run error: {cfg.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(f"wrote {path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
