"""Tests of the CLI: configs, overrides, datasets, manifests, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from presliding.errors import ConfigError, DomainError
from presliding.hysteresis import FrictionParams
from presliding.oscillator import SimConfig, simulate
from presliding.cli import (
    KINDS,
    MAX_CHAIN_STEPS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    default_config,
    load_config,
    main,
    run_experiment,
)
from presliding.figures import fig3_table
from presliding.reversal import reversal_chain
import presliding.cli as cli
import presliding.oscillator as oscillator
import presliding.reversal as reversal

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "tests" / "data"


def sweep_values(cfg):
    return [value for _, value, _ in cfg.runs]


def run_kind(kind, out_dir, **top):
    data = default_config(kind)
    data.update(top)
    data["output_dir"] = str(out_dir)
    return run_experiment(config_from_dict(data))


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_default_config_roundtrips():
    for kind in ("simulate", "chain", "fig3", "fig7", "validate"):
        cfg = config_from_dict(default_config(kind))
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.kind == kind


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"kind": "fig9"})
    with pytest.raises(ConfigError):
        default_config("fig9")


def test_unknown_fields_reported_with_path():
    data = default_config("fig3")
    data["params"]["sigmma"] = 2.0
    with pytest.raises(ConfigError, match="params"):
        config_from_dict(data)
    data2 = default_config("fig3")
    data2["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        config_from_dict(data2)
    # the sim section holds every SimConfig field but params
    data3 = default_config("simulate")
    data3["sim"]["params"] = {"f_c": 1.0, "sigma": 1.0}
    with pytest.raises(ConfigError, match=r"sim: unknown field\(s\) \['params'\]"):
        config_from_dict(data3)
    # a Python caller's keys need not be strings, nor of one type
    with pytest.raises(ConfigError, match=r"^unknown top-level field\(s\) \[1, 'x'\]$"):
        config_from_dict({"kind": "fig3", 1: 2, "x": 1})
    with pytest.raises(ConfigError, match=r"^params: unknown field\(s\) \[1, 'a'\]$"):
        config_from_dict({"kind": "fig3", "params": {1: 2, "a": 3}})
    with pytest.raises(ConfigError, match=r"^unknown top-level field\(s\) \['ab', 'zz'\]$"):
        config_from_dict({"kind": "fig3", "zz": 1, "ab": 2})
    # a section that is not an object is reported before an unknown top-level field
    with pytest.raises(ConfigError, match=r"^params: expected an object, got None$"):
        config_from_dict({"kind": "fig3", "params": None, "zz": 1})


def test_invalid_params_reported_with_path():
    data = default_config("fig3")
    data["params"]["sigma"] = -1.0
    with pytest.raises(ConfigError, match="params"):
        config_from_dict(data)


def test_empty_sweep_rejected():
    data = default_config("fig3")
    data["sweep"] = []
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict(data)


def test_invalid_sim_rejected_at_parse_time():
    data = default_config("simulate")
    data["sim"]["v0"] = 0.0
    with pytest.raises(ConfigError, match="sim"):
        config_from_dict(data)


@pytest.mark.parametrize(
    "kind, override, path",
    [
        ("chain", "params.gamma=2", "params.gamma"),
        ("fig3", "params.gamma=2", "params.gamma"),
        ("fig4", "params.gamma=0.5", "params.gamma"),
        ("fig5", "params.gamma=2", "params.gamma"),
        ("fig6", "params.gamma=0", "params.gamma"),
        ("chain", "chain.f0_over_fc=0.5", "chain.f0_over_fc"),
        ("chain", "chain.f0_over_fc=0", "chain.f0_over_fc"),
        ("chain", "chain.f0_over_fc=-1.5", "chain.f0_over_fc"),
        ("chain", "chain.f0_over_fc=NaN", "chain.f0_over_fc"),
        ("chain", "chain.n_steps=2.5", "chain.n_steps"),
        ("fig6", "chain.n_steps=2.5", "chain.n_steps"),
        ("simulate", "sim.v0=NaN", "sim"),
        ("simulate", "sim.x0=Infinity", "sim"),
        ("simulate", "sim.f0=NaN", "sim"),
        ("simulate", "sim.dt=Infinity", "sim"),
        ("simulate", "sim.t_max=Infinity", "sim"),
        ("simulate", "sim.stop_energy=Infinity", "sim"),
        ("simulate", "params.sigma=Infinity", "params"),
        ("fig3", "params.f_c=Infinity", "params"),
        ("fig7", "params.mass=Infinity", "params"),
        ("chain", "sweep=[Infinity]", "sweep"),
        ("fig3", "sweep=[Infinity]", "sweep"),
        ("fig6", "sweep=[NaN]", "sweep"),
        ("fig3", "sweep=null", "sweep"),
        ("fig4", "sweep=null", "sweep"),
        ("fig5", "sweep=null", "sweep"),
        ("fig6", "sweep=null", "sweep"),
        ("fig7", "sweep=null", "sweep"),
        ("simulate", 'sim.v0="abc"', "sim.v0"),
        ("simulate", 'params.sigma="x"', "params.sigma"),
        ("simulate", 'sim.max_reversals="3"', "sim.max_reversals"),
        ("simulate", "sim.max_reversals=2.5", "sim.max_reversals"),
        ("fig7", "params.gamma=true", "params.gamma"),
        ("fig3", "params.f_c=null", "params.f_c"),
        ("chain", 'chain.f0_over_fc="-0.5"', "chain.f0_over_fc"),
    ],
)
def test_closed_form_misuse_rejected_at_parse_time(tmp_path, capsys, kind, override, path):
    out = tmp_path / "out"
    assert main([kind, "--out", str(out), "--override", override]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not out.exists()


# the config values each kind reads (README, config schema): a section name
# stands for all its fields, and a given sweep replaces params.sigma (fig5:
# params.f_c)
READ_SETS = {
    "simulate": {"params", "sim", "sweep"},
    "chain": {"params.f_c", "params.sigma", "chain", "sweep"},
    "fig3": {"params.f_c", "sweep"},
    "fig4": {"params.f_c", "sweep"},
    "fig5": {"params.sigma", "sweep"},
    "fig6": {"params.f_c", "chain", "sweep"},
    "fig7": {"params", "sim", "sweep"},
    "validate": set(),
}

SECTIONS = ("params", "sim", "chain")
# every config path below the kind: each section's fields, and sweep
LEAVES = ["sweep"] + [f"{key}.{name}" for key in SECTIONS for name in default_config("fig3")[key]]


def other_value(default):
    """A value for a config leaf that is valid for every kind and not its default."""
    if default is None:
        return 0.01  # sim.dt, sim.stop_energy
    if isinstance(default, str):
        return "approx"  # chain.mode
    return default + (1 if isinstance(default, int) else 0.5)


def read_rule_cases():
    """(kind, sweep, path, value): each leaf at a non-default value, with and
    without a sweep where the kind allows both."""
    for kind in KINDS:
        data = default_config(kind)
        sweeps = ([data["sweep"]] if data["sweep"] is not None
                  else [None, [3.0]] if "sweep" in READ_SETS[kind] else [None])
        for sweep in sweeps:
            for path in LEAVES:
                if path == "sweep":
                    if sweep == sweeps[0]:
                        yield pytest.param(kind, sweep, path, [3.0], id=f"{kind}-sweep")
                    continue
                key, name = path.split(".")
                yield pytest.param(kind, sweep, path, other_value(data[key][name]),
                                   id=f"{kind}-{path}-{'swept' if sweep else 'unswept'}")


@pytest.mark.parametrize("kind, sweep, path, value", read_rule_cases())
def test_a_value_the_kind_does_not_read_must_keep_its_default(kind, sweep, path, value):
    data = default_config(kind)
    data["sweep"] = sweep
    apply_overrides(data, [f"{path}={json.dumps(value)}"])
    swept = sweep is not None and path == ("params.f_c" if kind == "fig5" else "params.sigma")
    reads = READ_SETS[kind]
    if not swept and (path in reads or path.split(".")[0] in reads):
        assert isinstance(config_from_dict(data), ExperimentConfig)
    else:
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert str(info.value).startswith(f"{path}: kind {kind!r} does not read it")


def test_read_sets_cover_the_kinds_and_name_schema_paths():
    for _, reads in cli._KINDS.values():
        assert reads <= set(LEAVES) | set(SECTIONS)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.text(max_size=6)
    | st.floats()  # nan, inf and subnormals included
    | st.sampled_from([1e308, -1e308, 5e-324, 10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS),
       changes=st.lists(st.tuples(st.sampled_from(LEAVES), JSON_VALUES), max_size=4))
# an int whose float squares past the float range, which the integers rarely draw
@example(kind="simulate", changes=[("sim.v0", 10**160)])
# a default step that overflows to inf, as mass/sigma does
@example(kind="simulate", changes=[("params.mass", 1e300), ("params.sigma", 1e-10)])
def test_config_from_dict_returns_a_config_or_raises_config_error(kind, changes):
    data = default_config(kind)
    for path, value in changes:
        key, _, name = path.partition(".")
        if name:
            data[key][name] = value
        else:
            data[key] = value
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_sweep_kinds_writing_one_file_accept_repeated_entries():
    # fig3 puts every entry into one table, so no file names collide
    data = default_config("fig3")
    data["sweep"] = [10, 10.0000001]
    assert sweep_values(config_from_dict(data)) == [10.0, 10.0000001]


def test_simulation_kinds_accept_any_gamma():
    for kind in ("simulate", "fig7"):
        data = default_config(kind)
        data["params"]["gamma"] = 0.5
        assert all(run.params.gamma == 0.5 for _, _, run in config_from_dict(data).runs)


def test_overrides_nested_and_typed():
    data = default_config("simulate")
    apply_overrides(data, ["params.sigma=2.5", "sim.max_reversals=null", "output_dir=elsewhere"])
    cfg = config_from_dict(data)
    (_, _, run), = cfg.runs
    assert run.params.sigma == 2.5
    assert run.max_reversals is None
    assert str(cfg.output_dir) == "elsewhere"
    data = default_config("fig3")
    apply_overrides(data, ["sweep=[1,10]"])
    assert sweep_values(config_from_dict(data)) == [1.0, 10.0]


def test_scale_check_spares_the_simulation_kinds():
    # simulate and fig7 use no closed form, so no closed-form scale is checked;
    # the step is given, as the default one overflows to inf at this sigma
    data = default_config("simulate")
    data["params"]["sigma"] = 1e-320
    data["sim"]["dt"] = 1e-3
    assert config_from_dict(data).runs[0][2].params.sigma == 1e-320
    data = default_config("fig7")
    data["sweep"] = [1e-320]
    data["sim"]["dt"] = 1e-3
    assert config_from_dict(data).runs[0][2].params.sigma == 1e-320


# log10 of f_c and of sigma/f_c, across the positive float range
LOG_SCALE = st.floats(-320.0, 308.0)


@settings(max_examples=300, deadline=None)
@given(log_f_c=LOG_SCALE, log_ratio=LOG_SCALE, n_steps=st.integers(1, 5))
def test_scale_check_accepts_only_configs_with_finite_cells(log_f_c, log_ratio, n_steps):
    # chain takes sigma = ratio*f_c, fig3 a one-entry sweep of the ratio: an
    # accepted config builds only finite cells, a rejected one names where
    f_c, ratio = 10.0**log_f_c, 10.0**log_ratio
    for kind, changes in [("chain", {"params": {"f_c": f_c, "sigma": ratio * f_c},
                                     "chain": {"n_steps": n_steps}}),
                          ("fig3", {"params": {"f_c": f_c}, "sweep": [ratio]})]:
        try:
            cfg = config_from_dict({"kind": kind, **changes})
        except ConfigError as exc:
            assert str(exc).startswith(("params:", "sweep[0]:")), exc
            continue
        if kind == "chain":
            c = cfg.chain
            segments = [reversal_chain(c.f0_over_fc * p.f_c, c.n_steps, p, c.mode)
                        for _, _, p in cfg.runs]
        else:
            segments = fig3_table(cfg.runs)[1]
        # every cell of every segment: a single cell, or each cell of a sequence
        cells = [cell for segment in segments for column in segment
                 for cell in (column if isinstance(column, list) else [column])]
        assert all(math.isfinite(cell) for cell in cells), (kind, f_c, ratio)


def test_override_requires_key_value():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["nonsense"])


def test_load_config_kind_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "fig3"}))
    with pytest.raises(ConfigError, match="does not match"):
        load_config("fig4", str(path), [], None)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("fig3", "no/such/file.json", [], None)


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config("fig3", str(path), [], None)


# ---------------------------------------------------------------------------
# experiment outputs
# ---------------------------------------------------------------------------

def test_fig3_dataset(tmp_path):
    code, paths = run_kind("fig3", tmp_path)
    assert code == 0
    table = np.genfromtxt(tmp_path / "fig3.csv", delimiter=",", names=True)
    assert table.dtype.names == ("F_i_over_Fc", "ratio", "E_p")
    assert len(table) == 4 * 100
    assert set(np.unique(table["ratio"])) == {1.0, 10.0, 100.0, 1000.0}
    assert np.all(table["E_p"] > 0.0)
    # each series spans the full admissible force range
    sub = table[table["ratio"] == 10.0]
    assert sub["F_i_over_Fc"][0] == pytest.approx(0.01)
    assert sub["F_i_over_Fc"][-1] == pytest.approx(1.0)


def test_fig3_table_keeps_callers_gamma():
    # the closed forms hold for gamma = 1 only; a builder must not swap it in
    with pytest.raises(DomainError):
        fig3_table([("", 10.0, FrictionParams(1.0, 10.0, gamma=2.0))])


def test_fig3_rows_take_the_plain_float_path():
    # encode_csv gives a column of plain floats the %.17g spec; an int
    # sweep entry or a numpy scalar in a cell sends its column of the block
    # through format_value instead, and would write a single cell as an int
    data = default_config("fig3")
    data["sweep"] = [10, 100.0]
    header, segments = fig3_table(config_from_dict(data).runs)
    assert len(segments) == 2
    for segment in segments:
        assert len(segment) == len(header)
        assert [set(map(type, col if isinstance(col, list) else [col])) for col in segment] == [
            {float}] * len(header)


def test_fig4_dataset(tmp_path):
    run_kind("fig4", tmp_path)
    table = np.genfromtxt(tmp_path / "fig4.csv", delimiter=",", names=True)
    assert table.dtype.names == ("ratio", "F_i_over_Fc", "x", "omega", "omega_star")
    assert set(np.unique(table["ratio"])) == {1.0, 2.0, 8.0}
    assert set(np.round(np.unique(table["F_i_over_Fc"]), 10)) == {0.2, 0.4, 0.6, 0.8, 1.0}
    # both factors anchored at 1 at the reversal frame origin
    at0 = table[table["x"] == 0.0]
    assert np.all(at0["omega"] == 1.0)
    assert np.all(at0["omega_star"] == 1.0)


def test_fig5_dataset(tmp_path):
    run_kind("fig5", tmp_path)
    curves = np.genfromtxt(tmp_path / "fig5.csv", delimiter=",", names=True)
    preds = np.genfromtxt(tmp_path / "fig5_predictions.csv", delimiter=",", names=True)
    assert set(np.unique(curves["F_c"])) == {1.0, 1.5, 2.0}
    assert len(preds) == 3
    # exact predictions are finite; printed-form entries may be nan
    assert np.all(np.isfinite(preds["x_next_exact"]))
    # curve forces stay within each friction level
    for f_c in (1.0, 1.5, 2.0):
        sub = curves[curves["F_c"] == f_c]
        assert np.all(np.abs(sub["F"]) <= f_c * (1 + 1e-12))
        assert sub["F"][0] == pytest.approx(-f_c)


def test_fig5_predictions_match_the_approx_audit(tmp_path, capsys):
    # both files take the three next-reversal predictions from one evaluation:
    # a fig5 row is the fc-sweep audit row (sigma = 1, ratio 1/f_c) at F_i/f_c = 1
    run_kind("fig5", tmp_path / "fig5")
    run_kind("validate", tmp_path / "validate")
    with open(tmp_path / "fig5" / "fig5_predictions.csv", newline="") as fh:
        preds = list(csv.DictReader(fh))
    with open(tmp_path / "validate" / "approx_audit.csv", newline="") as fh:
        audit = [row for row in csv.DictReader(fh)
                 if row["grid"] == "fc-sweep" and float(row["F_i_over_Fc"]) == 1.0]
    assert len(preds) == len(audit) == 3
    cells = ["x_next_exact", "x_next_printed", "x_next_rederived"]
    for pred, row in zip(preds, audit):
        assert float(row["ratio"]) == 1.0 / float(pred["F_c"])
        assert [pred[c] for c in cells] == [row[c] for c in cells]
    assert preds[2]["F_c"] == "2" and preds[2]["x_next_printed"] == "nan"


def test_fig6_dataset(tmp_path):
    run_kind("fig6", tmp_path)
    table = np.genfromtxt(tmp_path / "fig6.csv", delimiter=",", names=True)
    assert table.dtype.names == ("ratio", "n", "F_n", "x_n", "E_p", "E_d")
    for ratio in (10.0, 100.0, 1000.0):
        sub = table[table["ratio"] == ratio]
        assert len(sub) == 20
        assert np.all(np.diff(sub["E_p"]) < 0.0)


def test_fig6_seeds_at_chain_f0_over_fc(tmp_path):
    run_kind("fig6", tmp_path, params={"f_c": 2.0}, chain={"f0_over_fc": -0.5})
    table = np.genfromtxt(tmp_path / "fig6.csv", delimiter=",", names=True)
    for ratio in (10.0, 100.0, 1000.0):
        first = table[table["ratio"] == ratio][0]
        assert first["n"] == 0
        assert abs(first["F_n"]) == 0.5 * 2.0


def test_fig7_dataset(tmp_path):
    run_kind("fig7", tmp_path)
    readme = (tmp_path / "README.txt").read_text()
    assert "energy_magnitude" in readme
    for ratio in (10, 100, 1000):
        traj = np.genfromtxt(
            tmp_path / f"fig7_traj_ratio{ratio}.csv", delimiter=",", names=True
        )
        env = np.genfromtxt(
            tmp_path / f"fig7_envelope_ratio{ratio}.csv", delimiter=",", names=True
        )
        assert traj.dtype.names == ("t", "energy_magnitude")
        assert env.dtype.names == ("i", "t_i", "E_p")
        assert np.all(np.diff(env["t_i"]) > 0.0)
        assert np.all(np.diff(env["E_p"]) < 0.0)
        # envelope dominates the signal tail near each of its instants
        assert env["E_p"][0] <= traj["energy_magnitude"].max() * (1 + 1e-12)


def test_fig7_envelope_matches_direct_simulation(tmp_path):
    run_kind("fig7", tmp_path, sweep=[10])
    env = np.genfromtxt(tmp_path / "fig7_envelope_ratio10.csv", delimiter=",", names=True)
    p = FrictionParams(f_c=1.0, sigma=10.0)
    traj = simulate(SimConfig(params=p))
    assert len(env) == len(traj.reversals)
    for row, rec in zip(env, traj.reversals):
        assert row["E_p"] == rec.e_p


def test_simulate_and_chain_kinds(tmp_path):
    run_kind("simulate", tmp_path / "s", sim={"max_reversals": 3})
    rev = np.genfromtxt(tmp_path / "s" / "reversals.csv", delimiter=",", names=True)
    assert len(rev) == 3
    run_kind("chain", tmp_path / "c", chain={"n_steps": 7, "mode": "approx"})
    ch = np.genfromtxt(tmp_path / "c" / "chain.csv", delimiter=",", names=True)
    assert len(ch) == 7


def test_long_approx_chain_writes_only_finite_cells(tmp_path):
    # phi underflows to 0 near step 2034 and stays 0 from there on
    assert run_kind("chain", tmp_path, chain={"n_steps": 5000, "mode": "approx"})[0] == 0
    ch = np.genfromtxt(tmp_path / "chain.csv", delimiter=",", names=True)
    assert len(ch) == 5000
    assert all(np.isfinite(ch[name]).all() for name in ch.dtype.names)


def test_manifest_lists_every_file_with_true_digests(tmp_path):
    run_kind("fig5", tmp_path)
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    assert lines[0] == "filename,rows,sha256"
    listed = {}
    for line in lines[1:]:
        name, rows, digest = line.split(",")
        listed[name] = (int(rows), digest)
    produced = {p.name for p in tmp_path.iterdir()} - {"manifest.txt"}
    assert set(listed) == produced
    for name, (rows, digest) in listed.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        assert rows == len(data.splitlines()) - 1


def test_chain_runs_where_only_the_square_of_f_c_overflows(tmp_path):
    # f_c**2 overflows, while f_c/sigma = 1 and f_c*(f_c/sigma) = 1e200 are finite
    args = ["chain", "--override", "params.f_c=1e200", "--override", "params.sigma=1e200"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    _, *rows = (tmp_path / "chain.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 20
    assert all(math.isfinite(float(cell)) for row in rows for cell in row.split(","))


@pytest.mark.parametrize("kind, ints", [
    # 2**53 + 3 names the float 2**53 + 4, which f_0 = -1.0*f_c reaches
    *[pytest.param(kind, {"params.f_c": 2**53 + 3}, id=kind)
      for kind in ("chain", "fig3", "fig4", "fig6")],
    # mass and f_c of 10**300, whose int product 10**600 has no float, run as 1e300;
    # the step is given, as the default one, about 5e147, is far above t_max here
    pytest.param("simulate", {"params.mass": 10**300, "params.f_c": 10**300, "sim.dt": 1},
                 id="simulate"),
])
def test_an_int_config_number_runs_as_its_float(tmp_path, kind, ints):
    manifests = []
    for side, values in (("int", ints), ("float", {k: float(v) for k, v in ints.items()})):
        overrides = [f"{path}={json.dumps(value)}" for path, value in values.items()]
        params = [getattr(run, "params", run)
                  for _, _, run in load_config(kind, None, overrides, None).runs]
        assert all(type(value) is float for p in params for value in p)
        args = [kind, "--out", str(tmp_path / side)]
        assert main(args + [word for item in overrides for word in ("--override", item)]) == 0
        manifests.append((tmp_path / side / "manifest.txt").read_bytes())
    assert manifests[0] == manifests[1]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def test_main_success(tmp_path, capsys):
    out = tmp_path / "a" / "b"  # the missing parents are created
    assert main(["fig3", "--out", str(out), "--override", "sweep=[1]"]) == 0
    assert "fig3.csv" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["fig3.csv", "manifest.txt"]


def test_main_config_error(tmp_path, capsys):
    assert main(["fig3", "--out", str(tmp_path), "--override", "sweep=[]"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        # gamma < 1: the Dahl rate is not Lipschitz at saturation and the
        # fixed-step force overshoots the band
        ["params.gamma=0.5", "params.sigma=20"],
        ["sim.dt=0.5", "params.sigma=1000"],
    ],
    ids=["gamma0.5", "dt_too_large"],
)
def test_main_runtime_error_exit_code(tmp_path, capsys, overrides):
    args = ["simulate", "--out", str(tmp_path)]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error: simulate: StepRejectionError: ")
    assert err.count("\n") == 1


# the work one fuzzed run of main may take: chain steps per chain, and
# simulation steps, t_max/dt summed over the runs
CHAIN_STEP_CAP = 10**4
SIM_STEP_BUDGET = 2 * 10**4


def plausible_values(path):
    """Values of the type of the path's default and near its range, so that runs get past
    the config checks."""
    if path == "sweep":
        return st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3)
    key, name = path.split(".")
    default = default_config("fig3")[key][name]
    if isinstance(default, str):
        return st.sampled_from(["exact", "approx"])
    return st.integers(-2, 100) if isinstance(default, int) else st.floats(-1.0, 1e3)


@st.composite
def main_arguments(draw):
    """(kind, overrides): 1-3 JSON values, most at paths the kind reads, bounded in work."""
    kind = draw(st.sampled_from([k for k in KINDS if k != "validate"]))
    reads = [leaf for leaf in LEAVES if {leaf, leaf.split(".")[0]} & READ_SETS[kind]]
    overrides = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(reads if draw(st.integers(0, 3)) else LEAVES))
        value = draw(JSON_VALUES | plausible_values(path))
        if path == "chain.n_steps" and type(value) is int:
            value = min(value, CHAIN_STEP_CAP)
        overrides.append(f"{path}={json.dumps(value)}")
    try:
        cfg = load_config(kind, None, overrides, None)
    except ConfigError:
        return kind, overrides
    if "sim" in READ_SETS[kind]:
        rate = sum(1.0 / run.effective_dt() for _, _, run in cfg.runs)
        if cfg.runs[0][2].t_max * rate > SIM_STEP_BUDGET:  # a t_max of 0 after an inf rate exits 2
            overrides.append(f"sim.t_max={json.dumps(SIM_STEP_BUDGET / rate)}")
    return kind, overrides


@settings(max_examples=300, deadline=None)
@given(args=main_arguments())
@example(args=("simulate", [f"sim.v0={10**160}"]))
def test_main_exits_0_2_or_3_and_writes_parseable_csv(args):
    kind, overrides = args
    argv = [kind] + [word for item in overrides for word in ("--override", item)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3)
        if code:
            text = err.getvalue()
            assert text.startswith(("config error: ", f"run error: {kind}: "))
            assert text.count("\n") == 1 and text.endswith("\n") and "Traceback" not in text
            return
        for path in out.glob("*.csv"):
            with path.open(newline="") as handle:
                header, *rows = csv.reader(handle)
            assert all(len(row) == len(header) for row in rows), path.name


_SCALE_ERROR = ("config error: {}: f_c={!r} and sigma={!r} overflow or underflow a closed-form "
                "scale: ")

# one row per probed input: arguments, exit code, start of the one stderr line
PROBES = {
    # sigma = ratio * f_c overflows to inf for this entry only
    "sweep_entry_sigma_overflows": (
        ["fig3", "--override", "sweep=[1e308]", "--override", "params.f_c=10"],
        2, "config error: sweep[0]: sigma must be finite",
    ),
    # entries whose %g suffixes collide would overwrite each other's files
    "simulate_suffix_collision": (
        ["simulate", "--override", "sweep=[10,10.0000001]"],
        2, "config error: sweep[0] and sweep[1] both name their files '_ratio10' ",
    ),
    "chain_suffix_collision": (
        ["chain", "--override", "sweep=[20,5,5]"],
        2, "config error: sweep[1] and sweep[2] both name their files '_ratio5' ",
    ),
    "fig7_suffix_collision": (
        ["fig7", "--override", "sweep=[100,100.00001]"],
        2, "config error: sweep[0] and sweep[1] both name their files '_ratio100' ",
    ),
    # a closed-form scale sigma/f_c, f_c/sigma or f_c**2/sigma overflows:
    # f_c**2 raises OverflowError, and an infinite scale writes inf or nan cells
    "fig5_overflow": (
        ["fig5", "--override", "sweep=[1e200]"], 2, _SCALE_ERROR.format("sweep[0]", 1e200, 1.0),
    ),
    "chain_f_c_squared_overflows": (
        ["chain", "--override", "params.f_c=1e200"], 2, _SCALE_ERROR.format("params", 1e200, 1.0),
    ),
    "chain_sigma_subnormal": (
        ["chain", "--override", "params.sigma=1e-320"],
        2, _SCALE_ERROR.format("params", 1.0, 1e-320),
    ),
    # only f_c/sigma overflows
    "chain_length_scale_overflows": (
        ["chain", "--override", "params.f_c=1e-10", "--override", "params.sigma=1e-319"],
        2, _SCALE_ERROR.format("params", 1e-10, 1e-319),
    ),
    "fig3_energy_scale_overflows": (
        ["fig3", "--override", "sweep=[1e-320]"], 2, _SCALE_ERROR.format("sweep[0]", 1.0, 1e-320),
    ),
    "fig4_length_scale_overflows": (
        ["fig4", "--override", "sweep=[1,1e-320]"],
        2, _SCALE_ERROR.format("sweep[1]", 1.0, 1e-320),
    ),
    # fig5 sweeps f_c: sigma/f_c overflows
    "fig5_ratio_overflows": (
        ["fig5", "--override", "sweep=[1e-320]"], 2, _SCALE_ERROR.format("sweep[0]", 1e-320, 1.0),
    ),
    "fig6_energy_scale_overflows": (
        ["fig6", "--override", "sweep=[1e-309]"], 2, _SCALE_ERROR.format("sweep[0]", 1.0, 1e-309),
    ),
    # f_c**2/sigma underflows to 0, which would zero every E_p and E_d cell
    "chain_energy_scale_underflows": (
        ["chain", "--override", "params.f_c=1e-150", "--override", "params.sigma=1e150"],
        2, _SCALE_ERROR.format("params", 1e-150, 1e150),
    ),
    "fig3_energy_scale_underflows": (
        ["fig3", "--override", "params.f_c=1e-150", "--override", "sweep=[1,1e300]"],
        2, _SCALE_ERROR.format("sweep[1]", 1e-150, 1e150),
    ),
    "fig6_energy_scale_underflows": (
        ["fig6", "--override", "params.f_c=1e-150", "--override", "sweep=[1e300]"],
        2, _SCALE_ERROR.format("sweep[0]", 1e-150, 1e150),
    ),
    # f_c/sigma underflows to 0 while f_c**2/sigma does too: no length scale
    "chain_length_scale_underflows": (
        ["chain", "--override", "params.f_c=1e-200", "--override", "params.sigma=1e200"],
        2, _SCALE_ERROR.format("params", 1e-200, 1e200),
    ),
    # sweep entries are numbers, as every other number field
    "sweep_entry_bool": (
        ["fig3", "--override", "sweep=[true]"],
        2, "config error: sweep[0]: expected a number, got True",
    ),
    "sweep_entry_numeric_string": (
        ["fig3", "--override", 'sweep=[1, "10"]'],
        2, "config error: sweep[1]: expected a number, got '10'",
    ),
    "sweep_entry_padded_string": (
        ["chain", "--override", 'sweep=[" 1e1 "]'],
        2, "config error: sweep[0]: expected a number, got ' 1e1 '",
    ),
    "sweep_entry_underscored_string": (
        ["fig6", "--override", 'sweep=["1_000"]'],
        2, "config error: sweep[0]: expected a number, got '1_000'",
    ),
    "sweep_entry_int_beyond_float": (
        ["fig3", "--override", f"sweep=[{10**400}]"],
        2, "config error: sweep[0]: int too large to convert to float",
    ),
    # number fields take the same check as sweep entries
    "sim_v0_int_beyond_float": (
        ["simulate", "--override", f"sim.v0={10**400}"],
        2, "config error: sim.v0: int too large to convert to float",
    ),
    "params_f_c_int_beyond_float": (
        ["simulate", "--override", f"params.f_c={10**400}"],
        2, "config error: params.f_c: int too large to convert to float",
    ),
    # fig5's curve spans about 1.59*f_c/sigma, which overflows here while
    # f_c/sigma stays finite
    "fig5_curve_span_overflows": (
        ["fig5", "--override", "params.sigma=6.7e-309", "--override", "sweep=[1]"],
        2, _SCALE_ERROR.format("sweep[0]", 1.0, 6.7e-309),
    ),
    # the peak Dahl slope sigma*2**gamma overflows
    "simulate_gamma_overflow": (
        ["simulate", "--override", "params.gamma=1e300", "--override", "params.sigma=10"],
        2, "config error: params: gamma=1e+300 overflows the peak Dahl slope",
    ),
    "simulate_sigma_overflow": (
        ["simulate", "--override", "params.sigma=1e308"],
        2, "config error: params: sigma=1e+308 overflows the peak Dahl slope",
    ),
    # a stage force leaves the band: the message names the setting to change
    "simulate_band_escape": (
        ["simulate", "--override", "sim.dt=0.5", "--override", "params.sigma=1000"],
        3, "run error: simulate: StepRejectionError: force escaped the band inside a step "
           "of dt=0.5: |f|=125.0 escaped the admissible band f_c=1.0; "
           "reduce sim.dt for sigma/f_c=1000.0\n",
    ),
    # for gamma < 1 the force saturates in finite travel: a smaller step does not help
    "simulate_gamma_below_one": (
        ["simulate", "--override", "params.gamma=0.5", "--override", "params.sigma=20"],
        3, "run error: simulate: StepRejectionError: force escaped the band inside a step "
           "of dt=0.001118033988749895: |f|=1.0000030185254618 escaped the admissible band "
           "f_c=1.0; at gamma=0.5 < 1 the force reaches saturation in finite travel, which "
           "no step size resolves; lower sim.v0 or raise params.gamma\n",
    ),
    "simulate_sweep_gamma_overflow": (
        ["simulate", "--override", "params.gamma=1023.5", "--override", "sweep=[0.5,10]"],
        2, "config error: sweep[1]: gamma=1023.5 overflows the peak Dahl slope",
    ),
    # the initial kinetic energy 0.5*mass*v0**2 overflows
    "simulate_energy_overflow": (
        ["simulate", "--override", "sim.x0=1e308", "--override", "sim.v0=1e308"],
        2, "config error: sim: v0=1e+308 overflows the initial kinetic energy",
    ),
    "simulate_v0_energy_overflow": (
        ["simulate", "--override", "sim.v0=1e200"],
        2, "config error: sim: v0=1e+200 overflows the initial kinetic energy",
    ),
    # an int in a float field is checked as the float it names
    "simulate_int_v0_energy_overflow": (
        ["simulate", "--override", f"sim.v0={10**160}"],
        2, "config error: sim: v0=1e+160 overflows the initial kinetic energy 0.5*m*v0**2\n",
    ),
    "fig7_int_v0_energy_overflow": (
        ["fig7", "--override", f"sim.v0={10**160}"],
        2, "config error: sim: v0=1e+160 overflows the initial kinetic energy 0.5*m*v0**2\n",
    ),
    # an override must not switch the kind the command line runs
    "kind_override": (
        ["fig3", "--override", "kind=validate"],
        2, "config error: kind: 'validate' does not match the command line's 'fig3'\n",
    ),
    "output_dir_number": (
        ["fig3", "--override", "output_dir=5"],
        2, "config error: output_dir: expected a string, got 5",
    ),
    "output_dir_null": (
        ["fig3", "--override", "output_dir=null"],
        2, "config error: output_dir: expected a string, got None",
    ),
    "output_dir_list": (
        ["fig3", "--override", "output_dir=[1]"],
        2, "config error: output_dir: expected a string, got [1]",
    ),
    # a section is an object; null is not an empty one
    "params_null": (
        ["simulate", "--override", "params=null"],
        2, "config error: params: expected an object, got None\n",
    ),
    "sim_null": (
        ["simulate", "--override", "sim=null"],
        2, "config error: sim: expected an object, got None\n",
    ),
    "chain_null": (
        ["chain", "--override", "chain=null"],
        2, "config error: chain: expected an object, got None\n",
    ),
    "params_list": (
        ["simulate", "--override", "params=[]"],
        2, "config error: params: expected an object, got []\n",
    ),
    # a dotted override does not replace a section that is not an object
    "override_into_params_number": (
        ["chain", "--override", "params=5", "--override", "params.sigma=2"],
        2, "config error: params: expected an object, got 5\n",
    ),
    "override_into_params_list_from_file": (
        ["chain", "--config", str(DATA / "params_list.json"), "--override", "params.sigma=2"],
        2, "config error: params: expected an object, got [1, 2]\n",
    ),
    "override_into_nested_number": (
        ["chain", "--override", "params.sigma.x=2"],
        2, "config error: params.sigma: expected an object, got 1.0\n",
    ),
    # the default step 0.005*sqrt(mass/sigma) underflows to 0
    "simulate_default_dt_underflows": (
        ["simulate", "--override", "params.mass=1e-300", "--override", "params.sigma=1e30"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) underflows to 0 "
           "at mass=1e-300 and sigma=1e+30; set sim.dt\n",
    ),
    # the default step overflows to inf: mass/sigma is past the float range
    "simulate_default_dt_overflows": (
        ["simulate", "--override", "params.mass=1e300", "--override", "params.sigma=1e-10"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) overflows to inf "
           "at mass=1e+300 and sigma=1e-10; set sim.dt\n",
    ),
    # the step holds no unit of force: a small f_c does not bring it back into range
    "simulate_default_dt_overflows_at_small_f_c": (
        ["simulate", "--override", "params.mass=1e300", "--override", "params.f_c=1e-10",
         "--override", "params.sigma=1e-10"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) overflows to inf "
           "at mass=1e+300 and sigma=1e-10; set sim.dt\n",
    ),
    # sweep[0]'s step of t_max is 1.0 saturation times, inside the band
    "fig7_default_dt_overflows": (
        ["fig7", "--override", "params.mass=1e300", "--override", "sweep=[0.01,1e-10]"],
        2, "config error: sweep[1]: the default dt (1/200)*sqrt(mass/sigma) overflows "
           "to inf at mass=1e+300 and sigma=1e-10; set sim.dt\n",
    ),
    # entries are checked in order: sweep[1] would overflow the peak Dahl slope; the
    # first run's record is built from the sim section, which its errors name
    "fig7_reports_the_first_bad_entry": (
        ["fig7", "--override", "params.mass=1e-300", "--override", "sweep=[1e30,1e308]"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) underflows to 0 "
           "at mass=1e-300 and sigma=1e+30; set sim.dt\n",
    ),
    # at gamma = 1 a default first step past 1.2957 saturation times f_c/(sigma*|v0|)
    # leaves the band: a step of t_max = 200 at sigma/f_c = 100, g = 10000
    "simulate_default_step_past_the_band": (
        ["simulate", "--override", "params.mass=1e300", "--override", "params.f_c=1e10",
         "--override", "params.sigma=1e12"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) takes a first step of "
           "200.0, 10000 times the saturation time f_c/(sigma*|v0|), past 1.2957 at gamma=1, "
           "where RK4 leaves the band; set sim.dt\n",
    ),
    "fig7_default_step_past_the_band": (
        ["fig7", "--override", "params.mass=1e300", "--override", "sweep=[10]"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) takes a first step of "
           "200.0, 1000 times the saturation time",
    ),
    "fig7_default_step_past_the_band_in_a_later_entry": (
        ["fig7", "--override", "params.mass=1e300", "--override", "sweep=[0.01,10]"],
        2, "config error: sweep[1]: the default dt (1/200)*sqrt(mass/sigma) takes a first "
           "step of 200.0, 1000 times the saturation time",
    ),
    "simulate_default_step_just_past_the_band": (
        ["simulate", "--override", "params.sigma=100", "--override", "sim.v0=26"],
        2, "config error: sim: the default dt (1/200)*sqrt(mass/sigma) takes a first step of "
           "0.0005, 1.3 times the saturation time",
    ),
    # the rule holds at gamma = 1 only: at gamma = 2 this step of 0.65 saturation times
    # escapes from f0/f_c = -0.99, where the same step at gamma = 1 stays in the band
    "simulate_gamma_2_band_escape_is_not_refused": (
        ["simulate", "--override", "params.sigma=100", "--override", "sim.v0=13",
         "--override", "params.gamma=2", "--override", "sim.f0=-0.99"],
        3, "run error: simulate: StepRejectionError: force escaped the band inside a step "
           "of dt=0.0005: ",
    ),
    "fig7_default_dt_underflows": (
        ["fig7", "--override", "params.mass=1e-300", "--override", "sweep=[10,1e30]"],
        2, "config error: sweep[1]: the default dt (1/200)*sqrt(mass/sigma) underflows "
           "to 0 at mass=1e-300 and sigma=1e+30; set sim.dt\n",
    ),
    # chains above the bound would run for minutes and hold gigabytes
    "chain_n_steps_above_bound": (
        ["chain", "--override", "chain.n_steps=100000000000"],
        2, "config error: chain.n_steps: expected 1 to 1000000, got ",
    ),
    "fig6_n_steps_above_bound": (
        ["fig6", "--override", "chain.n_steps=1000001"],
        2, "config error: chain.n_steps: expected 1 to 1000000, got ",
    ),
    # a step this long carries the undamped spring across two reversals
    "simulate_consecutive_reversals": (
        ["simulate", "--override", "params.gamma=0", "--override", "params.sigma=0.1",
         "--override", "sim.dt=7.9", "--override", "sim.v0=0.01", "--override", "sim.t_max=50"],
        3, "run error: simulate: StepRejectionError: consecutive reversals inside one step "
           "at t=5.0357",
    ),
    # a value the kind does not read must keep its default: validate runs a
    # fixed suite and reads none
    "validate_params_gamma": (
        ["validate", "--override", "params.gamma=2"],
        2, "config error: params.gamma: kind 'validate' does not read it; "
           "expected the default 1.0, got 2\n",
    ),
    "validate_sweep": (
        ["validate", "--override", "sweep=[10]"],
        2, "config error: sweep: kind 'validate' does not read it; "
           "expected the default None, got [10]\n",
    ),
    "fig3_sim_v0": (["fig3", "--override", "sim.v0=0.9"], 2, "config error: sim.v0: "),
    "chain_sim_dt": (["chain", "--override", "sim.dt=0.1"], 2, "config error: sim.dt: "),
    "simulate_chain_n_steps": (
        ["simulate", "--override", "chain.n_steps=5"], 2, "config error: chain.n_steps: ",
    ),
    "fig5_chain_mode": (
        ["fig5", "--override", "chain.mode=approx"], 2, "config error: chain.mode: ",
    ),
    # the closed forms need no mass
    "chain_params_mass": (
        ["chain", "--override", "params.mass=2"], 2, "config error: params.mass: ",
    ),
    "fig6_params_mass": (
        ["fig6", "--override", "params.mass=3"], 2, "config error: params.mass: ",
    ),
    # the sweep sets sigma (fig5: f_c) of every run
    "fig5_params_f_c": (
        ["fig5", "--override", "params.f_c=2"],
        2, "config error: params.f_c: kind 'fig5' does not read it with a sweep; "
           "expected the default 1.0, got 2\n",
    ),
    "fig3_params_sigma": (
        ["fig3", "--override", "params.sigma=5"], 2, "config error: params.sigma: ",
    ),
    "fig7_params_sigma": (
        ["fig7", "--override", "params.sigma=7"], 2, "config error: params.sigma: ",
    ),
    # an unread value equal to its default (False == 0.0, True == 1.0,
    # 20.0 == 20) passes the read rule, but building the record rejects its type
    "fig3_unread_x0_false": (
        ["fig3", "--override", "sim.x0=false"],
        2, "config error: sim.x0: expected a number, got False\n",
    ),
    "chain_unread_mass_true": (
        ["chain", "--override", "params.mass=true"],
        2, "config error: params.mass: expected a number, got True\n",
    ),
    "validate_unread_n_steps_float": (
        ["validate", "--override", "chain.n_steps=20.0"],
        2, "config error: chain.n_steps: expected an integer, got 20.0\n",
    ),
    # a list is JSON; the text 10,100 is not, and stays a string
    "fig3_comma_list": (
        ["fig3", "--override", "sweep=10,100"],
        2, "config error: sweep: expected a list, got '10,100'\n",
    ),
    "override_nested_too_deep": (
        ["fig3", "--override", "params.f_c=" + "[" * 5000 + "]" * 5000],
        2, "config error: override params.f_c: ",
    ),
}


@pytest.mark.parametrize("args, code, err_start", PROBES.values(), ids=PROBES.keys())
def test_probed_inputs_exit_with_one_line(tmp_path, monkeypatch, capsys, args, code, err_start):
    # the runs write to the default output directory "out", inside tmp_path
    monkeypatch.chdir(tmp_path)
    assert main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(err_start)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# each step of these runs stays under 1.2957 saturation times f_c/(sigma*|v0|), or
# starts on the edge of the band the force relaxes to, so the default-step rule spares them
@pytest.mark.parametrize("kind, overrides", [
    ("simulate", ["params.sigma=100", "sim.v0=25.8"]),  # g = 1.29
    # g = 0.25 at the run's sigma = 0.01; at the unswept sigma = 1, which no run uses, 2.5
    ("fig7", ["params.mass=1e6", "sweep=[0.01]"]),
    # g = 1.3 and 2, each starting at the saturated force, where a step of any length stays
    ("simulate", ["params.sigma=100", "sim.v0=26", "sim.f0=1"]),
    ("simulate", ["params.sigma=100", "sim.v0=-40", "sim.f0=-1"]),
    # a t_max below the default dt is the one step: 1.04 saturation times
    ("simulate", ["params.sigma=100", "sim.v0=26", "sim.t_max=0.0004"]),
], ids=["g1.29", "fig7_run_sigma", "saturated_start", "saturated_start_negative_v0",
        "t_max_below_dt"])
def test_the_default_step_rule_spares_a_step_the_band_holds(tmp_path, capsys, kind, overrides):
    args = [kind, "--out", str(tmp_path)]
    assert main(args + [word for item in overrides for word in ("--override", item)]) == 0
    assert capsys.readouterr().err == ""


def test_each_simulated_run_is_one_record_built_at_its_params(tmp_path, monkeypatch):
    assert "sim" not in ExperimentConfig._fields
    built = []
    new = SimConfig.__new__
    monkeypatch.setattr(SimConfig, "__new__",
                        lambda cls, *args, **kwargs: built.append(1) or new(cls, *args, **kwargs))
    received = []
    monkeypatch.setattr(cli, "simulate", lambda run: received.append(run) or simulate(run))
    data = default_config("fig7")
    data["sweep"] = [10, 100]
    data["sim"]["max_reversals"] = 3
    data["output_dir"] = str(tmp_path)
    cfg = config_from_dict(data)
    runs = [run for _, _, run in cfg.runs]
    assert [type(run) for run in runs] == [SimConfig, SimConfig]
    assert [run.params.sigma for run in runs] == [10.0, 100.0]
    assert run_experiment(cfg)[0] == 0
    assert len(received) == 2 and all(a is b for a, b in zip(received, runs))
    assert len(built) == 2  # one per run: none at the unswept sigma, none in the runner


@pytest.mark.parametrize(
    "content, reason",
    [(b"\xff\xfe{}", "is not valid JSON: "),
     (b"[" * 100000 + b"]" * 100000, "is not valid JSON: "),
     (b"[1, 2]", "must hold a JSON object\n")],
    ids=["not_utf8", "nested_too_deep", "json_array"],
)
def test_malformed_config_file_exits_2_naming_it(tmp_path, capsys, content, reason):
    path = tmp_path / "c.json"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} {reason}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unlocalized_reversal_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oscillator, "_MAX_BISECTIONS", 2)
    assert main(["simulate", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error: simulate: ConvergenceError: reversal not localized")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_validation_exits_1_and_still_writes_its_report(tmp_path, monkeypatch, capsys):
    # a 1e-6 relative error in the branch displacement moves only the exact
    # predictor enough for a check to see it
    branch_x = reversal._branch_x
    monkeypatch.setattr(reversal, "_branch_x", lambda s, x_scale: branch_x(s, x_scale) * (1 + 1e-6))
    assert main(["validate", "--out", str(tmp_path)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] exact-predictor-vs-oracle:")
    with open(tmp_path / "validation_report.csv", newline="", encoding="utf-8") as fh:
        report = list(csv.reader(fh))
    assert [row[0] for row in report if row[1] == "FAIL"] == ["exact-predictor-vs-oracle"]
    assert {p.name for p in tmp_path.iterdir()} >= {
        "approx_audit.csv", "validation_report.csv", "manifest.txt"}


def test_stalled_force_ratio_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reversal, "_HALLEY_MAX_ITER", 0)
    out = tmp_path / "out"
    assert main(["chain", "--out", str(out), "--override", "chain.f0_over_fc=-0.5"]) == 3
    err = capsys.readouterr().err
    assert err == ("run error: chain: ConvergenceError: Halley iteration for the next "
                   "force ratio stalled at phi=0.5\n")
    assert list(tmp_path.iterdir()) == []
    # a seed below the phi < 1e-6 shortcut needs no iteration
    assert main(["chain", "--out", str(out), "--override", "chain.f0_over_fc=-1e-7"]) == 0
    assert (out / "chain.csv").is_file()


def test_consecutive_reversals_inside_one_step_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["simulate"]
    for item in ("params.sigma=100", "sim.v0=1e-12", "sim.dt=0.5", "sim.t_max=5",
                 "sim.max_reversals=4"):
        args += ["--override", item]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "run error: simulate: StepRejectionError: consecutive reversals inside one step"
    )
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_simulate_past_the_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    # nothing but the step budget stops this run; the real budget would take
    # seconds, so a small one stands in for it
    monkeypatch.setattr(oscillator, "MAX_STEPS", 1000)
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "--override", "sim.t_max=1e300", "--override",
            "sim.max_reversals=null", "--override", "sim.stop_energy=0"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("run error: simulate: StepRejectionError: no stop within MAX_STEPS=1000")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_chain_steps_bound_is_inclusive():
    data = default_config("chain")
    data["chain"]["n_steps"] = MAX_CHAIN_STEPS
    assert config_from_dict(data).chain.n_steps == MAX_CHAIN_STEPS
    data["chain"]["n_steps"] = MAX_CHAIN_STEPS + 1
    with pytest.raises(ConfigError, match=r"^chain\.n_steps: "):
        config_from_dict(data)


FAILING_RUNS = {
    # fails on its first step
    "dt_too_large": ["sim.dt=0.5", "params.sigma=1000"],
    # writes the ratio-10 files, then fails on ratio 1000
    "sweep_fails_late": ["sweep=[10,1000]", "sim.dt=0.02"],
}


@pytest.mark.parametrize("overrides", FAILING_RUNS.values(), ids=FAILING_RUNS.keys())
def test_failed_run_leaves_no_files(tmp_path, capsys, overrides):
    # the directories the run creates go too, once empty
    out = tmp_path / "new" / "out"
    args = ["simulate", "--out", str(out)]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("overrides", FAILING_RUNS.values(), ids=FAILING_RUNS.keys())
def test_failed_run_keeps_existing_directory(tmp_path, capsys, overrides):
    (tmp_path / "notes.txt").write_text("kept")
    args = ["simulate", "--out", str(tmp_path)]
    for item in overrides:
        args += ["--override", item]
    assert main(args) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]
    assert (tmp_path / "notes.txt").read_text() == "kept"


def test_failed_run_keeps_an_earlier_runs_outputs(tmp_path, capsys):
    # a run that fails in a directory holding an earlier run's outputs
    # leaves those files and their manifest as they were
    args = ["simulate", "--out", str(tmp_path), "--override", "sim.dt=0.02"]
    assert main(args + ["--override", "sweep=[10,20]"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(args + ["--override", "sweep=[10,1000]"]) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    lines = (tmp_path / "manifest.txt").read_text().splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        name, _, digest = line.split(",")
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "out, error",
    [("file", "FileExistsError"), ("file/sub", "NotADirectoryError")],
    ids=["out_is_a_file", "out_below_a_file"],
)
def test_unwritable_output_directory_exit_code(tmp_path, capsys, out, error):
    (tmp_path / "file").write_text("kept")
    assert main(["fig3", "--out", str(tmp_path / out), "--override", "sweep=[1]"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"run error: fig3: {error}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def test_main_reads_config_file(tmp_path, capsys):
    cfg = {"kind": "chain", "chain": {"n_steps": 4}, "output_dir": str(tmp_path)}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    assert main(["chain", "--config", str(path)]) == 0
    assert (tmp_path / "chain.csv").exists()


def test_python_m_runs_the_cli(tmp_path, monkeypatch):
    # `python -m presliding.cli chain --out DIR`, in process as runpy runs it;
    # the module is already imported here, which runpy warns about
    monkeypatch.setattr(sys, "argv", ["presliding.cli", "chain", "--out", str(tmp_path)])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as info:
            runpy.run_module("presliding.cli", run_name="__main__", alter_sys=True)
    assert info.value.code == 0
    assert (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("kind", KINDS)
def test_kinds_run_without_numpy(tmp_path, kind):
    # numpy is a test dependency only: with it blocked, any import of it
    # raises ImportError, so loading the CLI and running every kind must succeed
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import presliding.cli as cli\n"
        f"sys.exit(cli.main([{kind!r}, '--config', {str(REPO / 'configs' / f'{kind}.json')!r},"
        f" '--out', {str(tmp_path)!r}]))\n"
    )
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "manifest.txt").exists()
    if kind == "validate":
        with open(tmp_path / "validation_report.csv", newline="") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        assert statuses == ["pass"] * 21
