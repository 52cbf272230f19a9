"""The arm7_plan benchmark workload solves to its committed fingerprint.

perfbench/ is read, never edited: its workloads module is loaded from its
file, and the plan it builds for seed 0 is solved with trajopt.solve and
compared with perfbench/fingerprints/arm7_plan.json. This workload is where
the line search rejects trials on their cheap terms and on their collision
floor, so a change there that moves the trajectory shows here.
"""

import importlib.util
import json
import pathlib
import sys

import numpy as np

from proxopt.trajopt import solve

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its file without adding perfbench to sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arm7_plan_seed_0_matches_its_fingerprint():
    scene = _perfbench_workloads().load_plan("arm7_plan", 0)
    traj, report = solve(scene)
    fingerprint = json.loads((PERFBENCH / "fingerprints" / "arm7_plan.json").read_text())
    assert report.num_iterations == fingerprint["outer_iterations"] == 45
    # The fingerprint predates the adjoint lane gradient, which rounds
    # differently from the dt/dx chain it replaced and moved these states by
    # 4.3e-8; 1e-7 still catches any change to the plan itself.
    assert np.abs(traj.states - np.array(fingerprint["states"])).max() <= 1e-7
    assert sum(stats.cheap_rejects for stats in report.iterations) > 0
    assert sum(stats.bound_rejects for stats in report.iterations) > 0
