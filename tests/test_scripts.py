"""Smoke tests of the scripts under scripts/, run as a user runs them."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_pins import SHIPPED, manifest_text

REPO = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path}, cwd=cwd, capture_output=True, text=True,
    )


@pytest.mark.parametrize("workload", ["sim-sweep", "closed-form", "validate"])
def test_job_digests_repeat(tmp_path, workload):
    runs = [run_script("job_digests.py", "--workload", workload, "--seed", "3", "--jobs", "3",
                       cwd=tmp_path) for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2"]
    assert runs[1].stdout == runs[0].stdout
    if workload == "validate":
        # a validate job is the default config, which writes the shipped config's pinned bytes
        pinned = manifest_text(SHIPPED["configs/validate.json"]["manifest"]).encode()
        assert lines[0] == f"0 validate {hashlib.sha256(pinned).hexdigest()}"


def test_linecov_prints_the_lines_that_never_ran(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"
        "    return 1\n"
    )
    (tmp_path / "test_mod.py").write_text(
        "from mod import sign\n\n\ndef test_positive():\n    assert sign(2) == 1\n"
    )
    # without Hypothesis' plugin, whose import takes most of a second
    proc = run_script("linecov.py", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
                      "test_mod.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout
    assert [line for line in proc.stdout.splitlines() if line.startswith("src")] == ["src/mod.py:3"]
