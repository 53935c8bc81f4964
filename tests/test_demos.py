"""Demos: checked without running them, since each simulates 10^5+ symbols per point."""

import ast
import dataclasses
from pathlib import Path

import pytest

import bccsim
from bccsim import Scenario, load_scenario

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
