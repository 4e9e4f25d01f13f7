"""Tests of the package's public surface: each module's __all__ and the package imports."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import presliding

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
# dahl_branch and stop_spring; check_omega_envelope computes its own deviation
REMOVED_NAMES = [
    (module, name)
    for module in ("presliding", "presliding.reversal")
    for name in ("OmegaApprox", "next_reversal_force", "zero_crossing", "potential_energy_bound",
                 "ReversalChainEntry", "energy_antiderivative")
] + [
    (module, name)
    for module in ("presliding", "presliding.hysteresis")
    for name in ("dahl_branch_force", "stop_spring_force")
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


def test_no_module_imports_numpy():
    # numpy is a test dependency only, so the package must run without it
    files = sorted(Path(presliding.__file__).parent.glob("*.py"))
    assert "__init__.py" in [f.name for f in files]
    for path in files:
        roots = set()
        for node in import_nodes(path.read_text()):
            if isinstance(node, ast.Import):
                roots.update(a.name.split(".")[0] for a in node.names)
            elif node.level == 0:
                roots.add(node.module.split(".")[0])
        assert "numpy" not in roots, path.name


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    test_extra = project["optional-dependencies"]["test"]
    assert "numpy" in [re.match(r"[\w.-]+", req).group() for req in test_extra]
