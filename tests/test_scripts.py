"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path}, cwd=cwd, capture_output=True, text=True,
    )


def test_decay_study_runs(tmp_path):
    proc = run_script("decay_study.py", "--reversals", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # a header line, the column names and one row per reversal
    assert len(proc.stdout.splitlines()) == 2 + 3


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    proc = run_script("reproduce_figures.py", "--out", str(out), cwd=out)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("kind", ["fig3", "fig4", "fig5", "fig6", "fig7", "validate"])
def test_reproduce_figures_matches_golden_manifests(reproduced, kind):
    golden = REPO / "tests" / "data" / "manifests" / f"{kind}.txt"
    assert (reproduced / kind / "manifest.txt").read_bytes() == golden.read_bytes()
