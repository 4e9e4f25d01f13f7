"""The byte pins: each pinned run's config and the manifest it writes, in one table.

Each row of tests/data/pins.json names a run, gives its config, either a
shipped config path (loaded as the CLI loads it) or a config dict, and
lists the filename,rows,sha256 lines of the manifest.txt that the run
writes. A change that moves output bytes on purpose replaces the lines
that moved with those the run now writes; the failing row names each
file that moved.
"""

import csv
import json
from pathlib import Path

import pytest

from presliding.cli import config_from_dict, default_config, load_config, run_experiment

REPO = Path(__file__).resolve().parents[1]
PINS = json.loads((REPO / "tests" / "data" / "pins.json").read_text(encoding="utf-8"))
ROWS = {row["name"]: row for row in PINS}
SHIPPED = {row["config"]: row for row in PINS if isinstance(row["config"], str)}


def manifest_text(lines):
    """The manifest.txt that lists these filename,rows,sha256 lines."""
    return "\n".join(["filename,rows,sha256", *lines, ""])


def assert_writes(cfg, lines):
    """cfg's run passes and writes the manifest.txt of these lines; compared
    line by line, so that a failure names each file that moved."""
    assert run_experiment(cfg)[0] == 0
    written = (cfg.output_dir / "manifest.txt").read_bytes().decode("utf-8")
    assert written.split("\n") == manifest_text(lines).split("\n")


def test_pin_rows_are_named_once_and_cover_every_shipped_config():
    assert len(ROWS) == len(PINS)
    assert set(SHIPPED) == {f"configs/{path.name}" for path in (REPO / "configs").glob("*.json")}


@pytest.mark.parametrize("name", ROWS)
def test_pinned_run_writes_its_manifest(tmp_path, name):
    """The run writes its pinned manifest byte for byte, and every CSV it
    writes parses to rows of the header's width."""
    config = ROWS[name]["config"]
    if isinstance(config, str):
        cfg = load_config(Path(config).stem, str(REPO / config), [], str(tmp_path))
    else:
        cfg = config_from_dict({**config, "output_dir": str(tmp_path)})
    assert_writes(cfg, ROWS[name]["manifest"])
    for path in tmp_path.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert {len(row) for row in rows} <= {len(header)}, path.name


# simulate's and chain's shipped configs set sigma=10 and n_steps=40, so
# their built-in defaults write other bytes than the shipped configs
@pytest.mark.parametrize("kind", ["fig3", "fig4", "fig5", "fig6", "fig7", "validate"])
def test_default_config_writes_the_shipped_configs_bytes(tmp_path, kind):
    cfg = config_from_dict({**default_config(kind), "output_dir": str(tmp_path)})
    assert_writes(cfg, SHIPPED[f"configs/{kind}.json"]["manifest"])
