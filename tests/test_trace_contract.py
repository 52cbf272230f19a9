"""The benchmark's contract with proxopt (perfbench/ is read, never edited).

The tracer wraps proxopt attributes by name (perfbench/spans.py). A traced run
drops its per-layer metrics when one of those names is gone, so every name it
lists must exist on the imported module. The benchmark's output check calls
kinematics' single-state placement functions, so it must still run.
"""

import ast
import importlib
import importlib.util
import math
import pathlib
import sys

import pytest

from proxopt.scene_io import load_scene
from proxopt.trajopt import default_trajectory, validate
from conftest import scene_text

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no ENTRY_POINTS")


def test_every_traced_entry_point_exists():
    entries = _entry_points()
    assert entries
    missing = [
        f"{module}.{attr} ({span})"
        for module, attr, span in entries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its file without adding perfbench to sys.path."""
    path = SPANS.parent / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["two_box_swap", "arm7_box"])
def test_benchmark_exact_clearance_runs_on_default_trajectories(name):
    # the benchmark's exact clearance check places every step through
    # kinematics.link_frames(robot, RobotState) and kinematics.place_on_robot
    workloads = _perfbench_workloads()
    scene = load_scene(scene_text(name))
    traj = default_trajectory(scene)
    exact = workloads.exact_min_clearance(scene, traj.states)
    assert math.isfinite(exact)
    assert exact >= validate(scene, traj).worst_clearance - 1e-9
