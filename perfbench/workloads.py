"""Inputs, operations and output checks of the three benchmark workloads.

Everything here calls proxopt through module attributes (`trajopt.solve`,
`distance.solve_inner`, ...) so that a traced run, which swaps those
attributes, sees the calls. The checks use an exact bounded least-squares
oracle that shares no code with proxopt's Newton solver or its grid oracle.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from proxopt import distance, kinematics, pairs, scene_io, sensitivity, trajopt

HERE = Path(__file__).resolve().parent

PLAN_SCENES = {"arm7_plan": "arm7_box.json", "box_swap_plan": "two_box_swap.json"}
WORKLOADS = ("arm7_plan", "box_swap_plan", "pair_queries")

# Seeds other than 0 translate the whole scene rigidly by up to this much per
# axis (metres).
SHIFT_M = 0.25
PENETRATION_TOL = 1e-3
PAIRS_PER_KIND = 200


# -- inputs -----------------------------------------------------------------


def scene_shift(workload: str, seed: int) -> np.ndarray:
    """The rigid translation applied to a plan workload's scene at `seed`."""
    if seed == 0:
        return np.zeros(3)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return rng.uniform(-SHIFT_M, SHIFT_M, 3)


def plan_document(workload: str, seed: int) -> dict:
    """The frozen scene of a plan workload, translated by `scene_shift`.

    Targets, obstacles and robot bases all move by the same offset, so every
    input number changes while the planning problem stays the same one in
    exact arithmetic. Seed 0 is the frozen scene unchanged.
    """
    doc = json.loads((HERE / "scenes" / PLAN_SCENES[workload]).read_text())
    shift = scene_shift(workload, seed)
    if seed == 0:
        return doc

    def moved(values):
        return (np.asarray(values, dtype=float) + shift).tolist()

    for robot in doc["robots"]:
        base = robot.setdefault("base", {})
        base["translation"] = moved(base.get("translation", [0.0, 0.0, 0.0]))
        limits = robot.get("base_limits")
        if isinstance(limits, dict):
            limits = [dict(limits) for _ in range(6)]
        for axis, spec in enumerate(limits[:3] if limits else []):
            for key in ("lower", "upper"):
                if spec.get(key) is not None:
                    spec[key] += shift[axis]
        if limits:
            robot["base_limits"] = limits
    objectives = doc.get("objectives", {})
    for target in objectives.get("ee_targets", []):
        target["target"] = moved(target["target"])
    for target in objectives.get("state_targets", []):
        target["value"][:3] = moved(target["value"][:3])
    for obstacle in doc.get("obstacles", []):
        obstacle["p"] = moved(obstacle["p"])
    return doc


def load_plan(workload: str, seed: int):
    return scene_io.load_scene(json.dumps(plan_document(workload, seed)))


def pair_pool(seed: int) -> list:
    """PAIRS_PER_KIND placed pairs of every kind combination, kinds interleaved.

    Each entry is (world pair, placement Jacobians), so a query only solves
    and differentiates.
    """
    per_kind = []
    for combo, kinds in enumerate(pairs.KIND_PAIRS):
        rng = np.random.default_rng([seed, WORKLOADS.index("pair_queries"), combo])
        entries = []
        for _ in range(PAIRS_PER_KIND):
            pair, x = pairs.random_pair(kinds, rng)
            entries.append((pairs.place_pair(pair, x), pairs.pair_jacobians(pair, x)))
        per_kind.append(entries)
    return [kind[k] for k in range(PAIRS_PER_KIND) for kind in per_kind]


# -- operations ---------------------------------------------------------------


@dataclass
class PlanResult:
    solve_s: float = math.nan
    validate_s: float = math.nan
    states: np.ndarray | None = None
    iterations: int = 0
    objective: float = math.nan
    error: str = ""


def plan_op(scene) -> PlanResult:
    """One operation: trajopt.solve then trajopt.validate, each timed."""
    out = PlanResult()
    t0 = time.perf_counter()
    try:
        traj, report = trajopt.solve(scene)
    except trajopt.SolveError as exc:
        out.error = f"SolveError: {exc}"
        return out
    t1 = time.perf_counter()
    trajopt.validate(scene, traj)
    t2 = time.perf_counter()
    out.solve_s, out.validate_s = t1 - t0, t2 - t1
    out.states = traj.states
    out.iterations = report.num_iterations
    out.objective = report.final_objective
    if not report.converged:
        out.error = f"not converged ({report.reason})"
    return out


@dataclass
class PassResult:
    """One pass over the pair pool."""

    solve_s: np.ndarray
    derivs_s: np.ndarray
    d_sq: np.ndarray
    steps: np.ndarray
    failed: np.ndarray
    t_star: list = field(default_factory=list)


def pair_pass(pool) -> PassResult:
    """Cold solve_inner then pair_derivatives for every pool entry, each timed.

    Convergence and finiteness are checked between queries, outside the
    timed intervals.
    """
    n = len(pool)
    out = PassResult(np.empty(n), np.zeros(n), np.empty(n), np.empty(n, dtype=int), np.zeros(n, dtype=bool))
    clock = time.perf_counter
    for k, (world, jacobians) in enumerate(pool):
        t0 = clock()
        res = distance.solve_inner(world)
        t1 = clock()
        out.solve_s[k] = t1 - t0
        out.d_sq[k] = res.d_sq
        out.steps[k] = res.newton_steps
        out.t_star.append(res.t_star)
        if not res.converged:
            out.failed[k] = True
            continue
        ders = sensitivity.pair_derivatives(world, jacobians, res)
        out.derivs_s[k] = clock() - t1
        out.failed[k] = not (
            math.isfinite(res.d_sq)
            and np.isfinite(ders.dt_dx).all()
            and np.isfinite(ders.grad_x).all()
            and np.isfinite(ders.hess_xx).all()
        )
    return out


# -- checks -------------------------------------------------------------------


def exact_distance(a, b) -> float:
    """Hard box-constrained distance between two world primitives (no margins).

    The point difference is affine in the stacked parameters, so this is a
    bounded linear least-squares problem.
    """
    from scipy.optimize import lsq_linear

    m = np.vstack([a.vectors, -b.vectors]).T
    base = a.anchor - b.anchor
    if m.shape[1] == 0:
        return float(np.linalg.norm(base))
    res = lsq_linear(m, -base, bounds=(0.0, 1.0), method="trf", tol=1e-14)
    return float(np.linalg.norm(m @ res.x + base))


def exact_min_clearance(scene, states: np.ndarray) -> float:
    """Smallest clearance over every candidate pair at every step.

    Placement goes through kinematics' own functions, so a traced run does
    not count these calls.
    """
    refs = scene.primitive_refs()
    candidates = scene.candidate_pairs()
    worst = math.inf
    for row in states:
        robot_states = [scene.robot_state(row, r) for r in range(len(scene.robots))]
        frames = [kinematics.link_frames(robot, s) for robot, s in zip(scene.robots, robot_states)]
        world = []
        for ref in refs:
            if ref.owner is None:
                world.append(scene.obstacles[ref.index].world)
            else:
                robot = scene.robots[ref.owner]
                world.append(
                    kinematics.place_on_robot(
                        robot, robot_states[ref.owner], robot.primitives[ref.index], frames[ref.owner]
                    )
                )
        for a, b in candidates:
            clearance = exact_distance(world[a], world[b]) - refs[a].margin - refs[b].margin
            worst = min(worst, clearance)
    return worst


def distance_matches(d_sq: float, oracle: float) -> bool:
    """The oracle-equivalence tolerance of the acceptance criteria, made scale-aware.

    Separated pairs compare distances; in the contact band the square root
    amplifies the soft constraints' bias, so squared distances are compared.
    The soft box constraints let t* leave [0, 1] by about |d| |v| / w_con, so
    the error grows in proportion to the distance: the 1e-3 of the acceptance
    criteria, which sample pairs about a metre apart, is applied relative to
    the distance beyond one metre.
    """
    if oracle >= 0.01:
        return abs(math.sqrt(d_sq) - oracle) <= 1e-3 * max(1.0, oracle)
    return abs(d_sq - oracle * oracle) <= 1e-3


def fingerprint_path(workload: str) -> Path:
    return HERE / "fingerprints" / f"{workload}.json"


def fingerprint_deviation(workload: str, seed: int, scene, states: np.ndarray) -> float | None:
    """Max absolute deviation from the committed seed-0 final states.

    The seed's rigid translation is taken off every robot's base translation
    first, so the deviation measures how much the planned motion changed.
    """
    path = fingerprint_path(workload)
    if not path.exists():
        return None
    reference = np.asarray(json.loads(path.read_text())["states"], dtype=float)
    if reference.shape != states.shape:
        return None
    states = states.copy()
    for off in scene.robot_offsets:
        states[:, off : off + 3] -= scene_shift(workload, seed)
    return float(np.abs(states - reference).max())
