"""Smoke tests of the script under scripts/, run as a user runs it."""

import hashlib
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


@pytest.mark.parametrize("workload", ["sim-sweep", "closed-form", "validate"])
def test_job_digests_repeat(tmp_path, workload):
    runs = [run_script("job_digests.py", "--workload", workload, "--seed", "3", "--jobs", "3",
                       cwd=tmp_path) for _ in range(2)]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "1", "2"]
    assert runs[1].stdout == runs[0].stdout
    if workload == "validate":
        # a validate job is the default config, whose manifest is golden
        golden = REPO / "tests" / "data" / "manifests" / "validate.txt"
        assert lines[0] == f"0 validate {hashlib.sha256(golden.read_bytes()).hexdigest()}"
