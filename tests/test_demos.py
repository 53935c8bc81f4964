"""Demos and README: the API they name exists, every demo runs and prints its tables, and
the demo scenario runs through the command line."""

import ast
import dataclasses
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bccsim
from bccsim import Scenario, load_scenario
from bccsim.cli import main, parse_csv

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_uses_existing_api(path):
    tree = ast.parse(path.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "bccsim"
                for alias in node.names]
    assert imported
    assert [name for name in imported if not hasattr(bccsim, name)] == []
    # attributes read off a variable named ``scenario`` are Scenario fields
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "scenario"}
    assert read <= {field.name for field in dataclasses.fields(Scenario)}


def test_weak_group_scenario_loads():
    scenario = load_scenario(DEMOS / "weak_group.yaml")
    assert len(scenario.nodes) == 7
    assert scenario.n_t == (50,)
    assert scenario.power_sweep_dbm == tuple(float(p) for p in range(-10, 31, 5))


# The first column of each table a demo prints: channel names, powers in dBm or n_t.
NAMES = [f"f{i}" for i in range(1, 10)]
DEMO_TABLES = {
    "channel_models.py": [NAMES] * 3,
    "single_node_detection.py": [[str(p) for p in range(-20, 31, 5)]],
    "distributed_reception.py": [[str(p) for p in range(-10, 31, 5)]] * 3,
    "training_length.py": [["10", "20", "50", "100", "200", "500", "1000"]],
}


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # a table is a run of rows that start with a channel name or an integer
    tables = [[line.split()[0] for line in block.splitlines()
               if re.match(r"\s*(f\d|-?\d+) ", line)]
              for block in result.stdout.split("\n\n")]
    assert [rows for rows in tables if rows] == DEMO_TABLES[name]


def test_weak_group_runs_from_the_command_line(capsys):
    # as README runs it, on a smaller budget: 9 powers x 3 techniques
    assert main(["run", "--config", str(DEMOS / "weak_group.yaml"), "--symbols", "2000"]) == 0
    points = parse_csv(capsys.readouterr().out)
    assert len(points) == 27 and {p.symbol_count for p in points} == {2000}


def test_readme_lower_level_names_exist():
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"Lower-level pieces are exposed too:(.*?)\.\s", readme, re.S).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert len(names) >= 10
    for name in names:
        operator.attrgetter(name)(bccsim)  # AttributeError names a missing one
