"""Demos and README: the API they name exists; the simulating demos are not run,
since each simulates 10^5+ symbols per point."""

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


def test_channel_models_demo_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(DEMOS / "channel_models.py")], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    registry, quantiles, fidelity = result.stdout.split("\n\n")[:3]
    for table in (registry, quantiles, fidelity):
        rows = [line.split()[0] for line in table.splitlines() if re.match(r"f\d ", line)]
        assert rows == [f"f{i}" for i in range(1, 10)]


def test_readme_lower_level_names_exist():
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"Lower-level pieces are exposed too:(.*?)\.\s", readme, re.S).group(1)
    names = re.findall(r"`([^`]+)`", sentence)
    assert len(names) >= 10
    for name in names:
        operator.attrgetter(name)(bccsim)  # AttributeError names a missing one
