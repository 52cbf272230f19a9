import pathlib

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from proxopt import trajopt

SCENES = pathlib.Path(__file__).parent / "scenes"


@pytest.fixture
def scenes_dir():
    return SCENES


def scene_text(name: str) -> str:
    return (SCENES / f"{name}.json").read_text()


def solved_lanes(scene, states, warm=None):
    """The solved lanes of `states`, built as a line-search trial builds them.

    One placement, the scene's broad phase, and every kept lane solved from
    its entry in `warm` (all cold if None). A failed lane is marked in
    `solved`, not raised: the collision term raises for it.
    """
    placement = trajopt.place_states(scene, states)
    kept = trajopt.broad_phase_rows(scene, placement, scene.outer.broad_phase_slack)
    if warm is None:
        warm = trajopt._cold_starts(scene, len(states))
    return trajopt._Lanes(scene, placement, kept, warm).solve(scene)


def exact_distance(pair) -> float:
    """Exact hard box-constrained distance between two world primitives.

    The difference of the two parameterized points is affine in the combined
    parameter vector, so the minimum is a bounded linear least-squares
    problem. lsq_linear's active-set method (bvls) solves it exactly up to
    rounding, independently of the Newton pipeline under test; its trf method
    can stop ~1e-10 above the minimum of d^2.
    """
    a, b = pair
    base = a.anchor - b.anchor
    if a.num_params + b.num_params == 0:
        return float(np.linalg.norm(base))
    m = np.vstack([a.vectors, -b.vectors]).T
    res = lsq_linear(m, -base, bounds=(0.0, 1.0), method="bvls", tol=1e-14)
    return float(np.linalg.norm(m @ res.x + base))
