"""Write the trajectory fingerprint of the plan workloads.

    python3 perfbench/fingerprint.py [arm7_plan] [box_swap_plan]

Solves each plan workload at seed 0 and writes its final states to
perfbench/fingerprints/<workload>.json. Every benchmark run reports the
largest absolute deviation of its own final states from this file, so a
change that alters trajectories shows; it is reported, not gated. Rewrite the
file only in a change that explains why the trajectories moved.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv) -> int:
    for workload in argv or list(workloads.PLAN_SCENES):
        result = workloads.plan_op(workloads.load_plan(workload, 0))
        if result.error:
            print(f"{workload}: {result.error}", file=sys.stderr)
            return 1
        doc = {
            "workload": workload,
            "seed": 0,
            "outer_iterations": result.iterations,
            "final_objective": result.objective,
            "states": result.states.tolist(),
        }
        workloads.fingerprint_path(workload).write_text(json.dumps(doc) + "\n")
        print(f"{workload}: {result.iterations} iterations, objective {float(result.objective)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
