"""Tests of the package's public surface: each module's __all__ and the package imports."""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import presliding
from presliding import (
    BranchState,
    ConfigError,
    DomainError,
    FrictionParams,
    ReversalRecord,
    SimConfig,
    Trajectory,
)
from presliding.cli import ChainSettings, ExperimentConfig
from presliding.oracle import QuadResult
from presliding.validation import CheckResult

MODULES = sorted(m.name for m in pkgutil.iter_modules(presliding.__path__))
REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"presliding.{name}")
    missing = [a for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing


def test_package_imports_only_names_in_all():
    # a name the package re-exports stays listed in its module's __all__, so
    # removing it from one place and not the other fails here
    imports = [
        node for node in ast.walk(ast.parse(inspect.getsource(presliding)))
        if isinstance(node, ast.ImportFrom)
    ]
    assert imports
    for node in imports:
        assert node.level == 1, node.module
        public = importlib.import_module(f"presliding.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module


def referenced_names(tree: ast.AST) -> set[str]:
    """Every bare name and attribute name in the code of tree (docstrings are not code)."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def library_example() -> ast.Module:
    """The python block under README's "Library example" heading."""
    section = (REPO / "README.md").read_text().split("## Library example", 1)[1]
    return ast.parse(section.split("```python\n", 1)[1].split("```", 1)[0])


def test_every_package_export_has_a_consumer():
    # a name the package root imports is used by another package module or by
    # README's library example, or types a field of a public class in its own
    # module (ReversalRecord is reached only as Trajectory.reversals)
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"presliding.{name}")))
             for name in MODULES}
    example = referenced_names(library_example())
    unused = []
    for node in ast.parse(inspect.getsource(presliding)).body:
        if not isinstance(node, ast.ImportFrom):
            continue
        fields = set()
        for cls in trees[node.module].body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign):
                        fields |= referenced_names(stmt.annotation)
        used = example | fields
        for name, tree in trees.items():
            if name != node.module:
                used |= referenced_names(tree)
        unused += [a.name for a in node.names if a.name not in used]
    assert unused == []


# (module, name) of each retired name: the linear decay factor is a plain
# slope, and the branch force is dahl_branch(b, p)(x); the zero crossing is
# x_i - reversal_coordinate(f_i, p), and the largest recoverable energy is
# potential_energy(-p.f_c, p); a reversal chain is five columns under
# figures.CHAIN_HEADER; the branch work f_c*x + (f_c**2/sigma)*expm1(-(sigma/f_c)*x)
# had no caller; the pointwise branch forces are the prepared maps
# dahl_branch and stop_spring, and the stop spring reads sigma and f_c of
# FrictionParams; check_omega_envelope computes its own deviation
REMOVED_NAMES = [
    (module, name)
    for module in ("presliding", "presliding.reversal")
    for name in ("OmegaApprox", "next_reversal_force", "zero_crossing", "potential_energy_bound",
                 "ReversalChainEntry", "energy_antiderivative")
] + [
    (module, name)
    for module in ("presliding", "presliding.hysteresis")
    for name in ("dahl_branch_force", "stop_spring_force", "LinearSpringParams")
] + [
    ("presliding.validation", "omega_envelope_deviation"),
    ("presliding.figures", "chain_table"),
]


def test_removed_closed_form_names_stay_gone():
    for module, name in REMOVED_NAMES:
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"


def import_nodes(source: str) -> list[ast.stmt]:
    """Every import statement in the source, function bodies included."""
    return [n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.Import, ast.ImportFrom))]


def package_imports(name: str) -> set[str]:
    """Package modules that presliding.<name> imports anywhere in its source."""
    found = set()
    for node in import_nodes(inspect.getsource(importlib.import_module(f"presliding.{name}"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "presliding":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x, from presliding import x
                found.update(a.name for a in node.names)
        else:
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "presliding" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_oracle_and_simulator_stay_independent():
    # the oracle certifies the analytic modules, so it must not reuse them,
    # and the simulator never calls a closed form
    assert package_imports("oracle") <= {"errors"}
    assert package_imports("oscillator").isdisjoint({"reversal", "figures", "validation", "cli"})
    # the walk sees imports in function bodies too
    assert "validation" in package_imports("cli")


def imported_roots() -> dict[str, set[str]]:
    """Top-level names of the absolute imports of each package source file."""
    files = sorted(Path(presliding.__file__).parent.glob("*.py"))
    assert "__init__.py" in [f.name for f in files]
    out = {}
    for path in files:
        roots = out[path.name] = set()
        for node in import_nodes(path.read_text()):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif node.level == 0:
                roots.add(node.module.split(".")[0])
    return out


def test_no_module_imports_numpy():
    # numpy is a test dependency only, so the package must run without it
    for name, roots in imported_roots().items():
        assert "numpy" not in roots, name


def test_no_module_imports_dataclasses():
    # every CLI run starts with the import of presliding.cli; dataclasses,
    # with the inspect it pulls in and the methods it generates per class,
    # was about a sixth of it, so the records are NamedTuples
    for name, roots in imported_roots().items():
        assert "dataclasses" not in roots, name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the static scan above misses a transitive import; -S keeps site's .pth
    # files, which are not the package's, out of sys.modules. argparse and
    # json serve main and the config file only, and validation serves only
    # the validate kind, so a library import loads none of them
    script = ("import sys, presliding.cli\n"
              "print(sorted({'dataclasses', 'inspect', 'argparse', 'json',\n"
              "              'presliding.validation'} & set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "[]\n"


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    test_extra = project["optional-dependencies"]["test"]
    assert "numpy" in [re.match(r"[\w.-]+", req).group() for req in test_extra]


REQUIRED = inspect.Parameter.empty

# (parameter, default) of each record's constructor, in order, as they were
# when the records were dataclasses
SIGNATURES = {
    FrictionParams: [("f_c", REQUIRED), ("sigma", REQUIRED), ("gamma", 1.0), ("mass", 1.0)],
    BranchState: [("x_rev", REQUIRED), ("f_rev", REQUIRED), ("direction", REQUIRED)],
    SimConfig: [("params", REQUIRED), ("x0", 0.0), ("v0", 0.5), ("f0", 0.0), ("dt", None),
                ("t_max", 200.0), ("max_reversals", 12), ("stop_energy", None)],
    ReversalRecord: [("index", REQUIRED), ("t_i", REQUIRED), ("x_i", REQUIRED),
                     ("f_i", REQUIRED), ("e_p", REQUIRED), ("e_d_halfcycle", REQUIRED)],
    Trajectory: [("t", REQUIRED), ("x", REQUIRED), ("v", REQUIRED), ("f", REQUIRED),
                 ("e_f_cum", REQUIRED), ("reversals", REQUIRED), ("config", REQUIRED)],
    QuadResult: [("value", REQUIRED), ("evaluations", REQUIRED)],
    CheckResult: [("name", REQUIRED), ("passed", REQUIRED), ("measured", REQUIRED),
                  ("tolerance", REQUIRED), ("detail", "")],
    ChainSettings: [("f0_over_fc", -1.0), ("n_steps", 20), ("mode", "exact")],
    ExperimentConfig: [("kind", REQUIRED), ("sim", REQUIRED), ("chain", REQUIRED),
                       ("output_dir", REQUIRED), ("runs", REQUIRED)],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signature_is_unchanged(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


P = FrictionParams(1.0, 10.0)
VALID = {
    FrictionParams: {"f_c": 1.0, "sigma": 10.0},
    BranchState: {"x_rev": 0.0, "f_rev": 0.5, "direction": 1},
    SimConfig: {"params": P},
}

# (class, bad fields, error, message): the first failing check's message, raised
# from the constructor and from _replace on a valid instance alike
INVALID = [
    (FrictionParams, {"f_c": 0.0}, DomainError, "f_c must be finite and > 0, got 0.0"),
    (FrictionParams, {"sigma": -1.0}, DomainError, "sigma must be finite and > 0, got -1.0"),
    (FrictionParams, {"f_c": math.inf, "sigma": -1.0}, DomainError,
     "f_c must be finite and > 0, got inf"),
    (FrictionParams, {"gamma": -1.0}, DomainError, "gamma must be finite and >= 0, got -1.0"),
    (FrictionParams, {"sigma": 1e308}, DomainError,
     "sigma=1e+308 overflows the peak Dahl slope sigma*2**gamma"),
    (FrictionParams, {"gamma": 1023.5}, DomainError,
     "gamma=1023.5 overflows the peak Dahl slope sigma*2**gamma"),
    (FrictionParams, {"mass": 0.0}, DomainError, "mass must be finite and > 0, got 0.0"),
    (BranchState, {"direction": 0}, DomainError, "direction must be +1 or -1, got 0"),
    (SimConfig, {"x0": math.nan}, ConfigError, "x0 must be finite, got nan"),
    (SimConfig, {"v0": 0.0}, ConfigError, "v0 must be nonzero (the motion starts mid-swing)"),
    (SimConfig, {"v0": 0.0, "dt": -1.0}, ConfigError,
     "v0 must be nonzero (the motion starts mid-swing)"),
    (SimConfig, {"v0": 1e200}, ConfigError,
     "v0=1e+200 overflows the initial kinetic energy 0.5*m*v0**2"),
    (SimConfig, {"f0": -2.0}, ConfigError, "|f0|=2.0 exceeds the friction level f_c=1.0"),
    (SimConfig, {"dt": 0.0}, ConfigError, "dt must be finite and > 0, got 0.0"),
    (SimConfig, {"t_max": math.inf}, ConfigError, "t_max must be finite and > 0, got inf"),
    (SimConfig, {"max_reversals": 0}, ConfigError, "max_reversals must be >= 1, got 0"),
    (SimConfig, {"stop_energy": -1.0}, ConfigError,
     "stop_energy must be finite and >= 0, got -1.0"),
]


@pytest.mark.parametrize("build", ["constructor", "_replace"])
@pytest.mark.parametrize("cls, bad, error, message", INVALID,
                         ids=[f"{row[0].__name__}-{'-'.join(row[1])}" for row in INVALID])
def test_validated_records_reject_bad_fields(build, cls, bad, error, message):
    # _replace goes through _make, which builds the tuple without the
    # constructor unless the class routes it there
    with pytest.raises(error) as exc:
        if build == "constructor":
            cls(**{**VALID[cls], **bad})
        else:
            cls(**VALID[cls])._replace(**bad)
    assert type(exc.value) is error
    assert str(exc.value) == message


RECORDS = [
    P, BranchState(0.0, 0.5, 1), SimConfig(P),
    ReversalRecord(0, 1.0, 0.5, -0.5, 0.1, 0.0), QuadResult(1.0, 3),
    CheckResult("check", True, 0.0, 1.0), ChainSettings(),
    ExperimentConfig("chain", SimConfig(P), ChainSettings(), Path("out"), ()),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    assert [name for name, _ in SIGNATURES[type(record)]] == list(record._fields)
    assert record == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
