"""Print a bitwise digest of 23 plans, one JSON line per plan.

The plans are the three planning scenes of tests/scenes (two_sphere_swap,
two_box_swap, arm7_box) and seeds 0-9 of the benchmark's arm7_plan and
box_swap_plan scenes, built by perfbench/workloads.py (loaded from its file,
read only). Each line holds the solve's iteration count and stop reason, the
final objective as float.hex, the SHA-256 of the final states' bytes and the
SHA-256 of validate's per-step minimum clearances and clearance and limit
violations. A change that must not move any plan leaves the output identical:

    OPENBLAS_NUM_THREADS=1 python tools/plan_digest.py > after.jsonl

run in the parent checkout and in the changed one, then diff the two files.
The script imports proxopt from the src directory of its own checkout.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from proxopt.scene_io import load_scene  # noqa: E402
from proxopt.trajopt import solve, validate  # noqa: E402

SCENES = ("two_sphere_swap", "two_box_swap", "arm7_box")
WORKLOADS = ("arm7_plan", "box_swap_plan")
SEEDS = range(10)


def _workloads():
    """perfbench/workloads.py, loaded from its file without adding perfbench to sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(name: str, scene) -> dict:
    traj, report = solve(scene)
    audit = validate(scene, traj)
    records = [
        np.asarray(audit.min_clearance_per_step, dtype=float).tobytes().hex(),
        [(v.step, v.pair, v.clearance.hex()) for v in audit.violations],
        [(v.step, v.robot, v.label, v.amount.hex()) for v in audit.limit_violations],
    ]
    return {
        "plan": name,
        "iterations": report.num_iterations,
        "reason": report.reason,
        "final_objective": report.final_objective.hex(),
        "states_sha256": _sha256(np.ascontiguousarray(traj.states).tobytes()),
        "validate_sha256": _sha256(json.dumps(records).encode()),
    }


def main() -> int:
    plans = [(name, load_scene((ROOT / "tests" / "scenes" / f"{name}.json").read_text())) for name in SCENES]
    workloads = _workloads()
    plans += [(f"{w}/{seed}", workloads.load_plan(w, seed)) for w in WORKLOADS for seed in SEEDS]
    for name, scene in plans:
        print(json.dumps(digest(name, scene)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
