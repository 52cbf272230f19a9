"""Benchmarks: inner-solver behavior per primitive-kind pair, and the
accuracy/cost trade-off of approximating a box with many simpler primitives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .distance import DEFAULT_INNER, solve_inner
from .kinematics import RobotModel, RobotState
from .pairs import KIND_PAIRS, place_pair, random_pair
from .poses import Pose
from .primitives import Kind, Primitive, WorldPrimitive, place
from .trajopt import Objectives, Obstacle, OuterSettings, Scene, StateTarget, solve


def bench_pairs(reps: int = 1000, seed: int = 0) -> list[dict]:
    """Newton step counts and mean solve time per kind combination."""
    rows = []
    for combo, kinds in enumerate(KIND_PAIRS):
        rng = np.random.default_rng([seed, combo])
        steps_min, steps_max = math.inf, 0
        failures = 0
        start = time.perf_counter()
        for _ in range(reps):
            pair, x = random_pair(kinds, rng)
            res = solve_inner(place_pair(pair, x), DEFAULT_INNER)
            steps_min = min(steps_min, res.newton_steps)
            steps_max = max(steps_max, res.newton_steps)
            failures += not res.converged
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "kind_a": kinds[0].value,
                "kind_b": kinds[1].value,
                "solves": reps,
                "min_steps": int(steps_min),
                "max_steps": int(steps_max),
                "failures": failures,
                "mean_time_us": elapsed / reps * 1e6,
            }
        )
    return rows


def _balanced_factors(k: int) -> tuple[int, int, int]:
    best = (k, 1, 1)
    for a in range(1, k + 1):
        if k % a:
            continue
        for b in range(1, k // a + 1):
            if (k // a) % b:
                continue
            c = k // (a * b)
            dims = tuple(sorted((a, b, c), reverse=True))
            if max(dims) / min(dims) < max(best) / min(best):
                best = dims
    return best


def sphere_approximation(k: int, side: float = 1.0) -> list[Primitive]:
    """k spheres on a balanced grid, each circumscribing its cell of the cube."""
    n1, n2, n3 = _balanced_factors(k)
    cell = np.array([side / n1, side / n2, side / n3])
    radius = 0.5 * float(np.linalg.norm(cell))
    prims = []
    for i in range(n1):
        for j in range(n2):
            for l in range(n3):
                center = -0.5 * side + cell * (np.array([i, j, l]) + 0.5)
                prims.append(Primitive(Kind.SPHERE, center, margin=radius, attachment=0))
    return prims


def capsule_approximation(k: int, side: float = 1.0) -> list[Primitive]:
    """k capsules with axes along y on a balanced x-z grid."""
    n1 = next(a for a in range(int(math.isqrt(k)), 0, -1) if k % a == 0)
    n3 = k // n1
    cell = np.array([side / n1, side / n3])
    radius = 0.5 * float(np.linalg.norm(cell))
    half = max(0.5 * side - radius, 0.05)
    prims = []
    for i in range(n1):
        for l in range(n3):
            cx = -0.5 * side + cell[0] * (i + 0.5)
            cz = -0.5 * side + cell[1] * (l + 0.5)
            anchor = np.array([cx, -half, cz])
            prims.append(
                Primitive(Kind.CAPSULE, anchor, np.array([[0.0, 2 * half, 0.0]]), radius, attachment=0)
            )
    return prims


def box_approximation(side: float = 1.0) -> list[Primitive]:
    return [
        Primitive(
            Kind.BOX,
            np.full(3, -0.5 * side),
            np.eye(3) * side,
            margin=0.0,
            attachment=0,
        )
    ]


def _point_to_primitive(points: np.ndarray, prim: WorldPrimitive) -> np.ndarray:
    """Distance from points to a dilated primitive with orthogonal vectors (clamped projection)."""
    rel = points - prim.anchor
    if prim.num_params:
        sq = (prim.vectors * prim.vectors).sum(axis=1)
        t = np.clip((rel @ prim.vectors.T) / sq, 0.0, 1.0)
        rel = rel - t @ prim.vectors
    return np.linalg.norm(rel, axis=1) - prim.margin


def _cube_surface_samples(side: float, n: int = 24) -> np.ndarray:
    u = np.linspace(-0.5 * side, 0.5 * side, n)
    g1, g2 = np.meshgrid(u, u, indexing="ij")
    faces = []
    for axis in range(3):
        for sign in (-0.5 * side, 0.5 * side):
            face = np.empty((n * n, 3))
            other = [a for a in range(3) if a != axis]
            face[:, axis] = sign
            face[:, other[0]] = g1.ravel()
            face[:, other[1]] = g2.ravel()
            faces.append(face)
    return np.concatenate(faces)


def _primitive_surface_samples(prim: WorldPrimitive, rng: np.random.Generator, n: int = 400) -> np.ndarray:
    """Points on the dilated surface: random core point plus margin-length normal."""
    t = rng.uniform(0.0, 1.0, (n, prim.num_params))
    core = prim.anchor + t @ prim.vectors
    if prim.margin > 0.0:
        normals = rng.normal(size=(n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        # Push to the boundary of the dilation along the sampled direction.
        return core + prim.margin * normals
    # Margin-free box/rectangle: project samples to the nearest face.
    t_face = t.copy()
    idx = rng.integers(0, max(prim.num_params, 1), n)
    t_face[np.arange(n), idx] = np.round(t_face[np.arange(n), idx])
    return prim.anchor + t_face @ prim.vectors


def hausdorff_to_cube(prims: list[WorldPrimitive], side: float, seed: int = 0) -> float:
    """Symmetric Hausdorff distance between a cube and a primitive union (sampled)."""
    rng = np.random.default_rng(seed)
    cube_pts = _cube_surface_samples(side)
    d_union = np.min(
        np.stack([_point_to_primitive(cube_pts, p) for p in prims]), axis=0
    )
    forward = float(np.maximum(d_union, 0.0).max())
    backward = 0.0
    half = 0.5 * side
    for prim in prims:
        pts = _primitive_surface_samples(prim, rng)
        outside = np.linalg.norm(np.maximum(np.abs(pts) - half, 0.0), axis=1)
        backward = max(backward, float(outside.max()))
    return max(forward, backward)


def _approx_scene(prims: list[Primitive], side: float, num_steps: int = 20) -> Scene:
    robot = RobotModel(name="body", primitives=tuple(prims))
    start = RobotState(Pose([-2.0, 0.15, 0.0], [0.0, 0.0, 0.0]))
    goal = np.array([2.0, 0.15, 0.0, 0.0, 0.0, 0.0])
    obstacle = Obstacle(
        "block",
        place(
            Primitive(Kind.BOX, np.full(3, -0.5 * side), np.eye(3) * side, 0.0),
            Pose.identity(),
        ),
    )
    objectives = Objectives(
        state_targets=[
            StateTarget(1, 0, start.to_vector(), 1e6),
            StateTarget(num_steps, 0, goal, 10.0),
        ],
        w_smooth=0.05,
        w_collision=1e3,
    )
    return Scene(
        robots=[robot],
        initial_states=[start],
        obstacles=[obstacle],
        objectives=objectives,
        num_steps=num_steps,
        h=0.1,
    )


def bench_approx(seed: int = 0, counts=range(1, 13), iters: int = 8) -> list[dict]:
    """Hausdorff error and per-iteration plan time for box-vs-box scenes where one
    box is approximated by k spheres, k capsules, or one box primitive."""
    side = 1.0
    configs = [("box", 1, box_approximation(side))]
    for k in counts:
        configs.append(("spheres", k, sphere_approximation(k, side)))
        configs.append(("capsules", k, capsule_approximation(k, side)))

    rows = []
    for label, count, prims in configs:
        world = [place(p, Pose.identity()) for p in prims]
        err = hausdorff_to_cube(world, side, seed)
        scene = _approx_scene(prims, side)
        scene.outer = OuterSettings(max_outer_iters=iters, grad_tol=1e-14, ftol=1e-16)
        start = time.perf_counter()
        _, report = solve(scene)
        elapsed = time.perf_counter() - start
        iters_run = max(report.num_iterations, 1)
        rows.append(
            {
                "approximation": label,
                "count": count,
                "pairs": len(prims),
                "hausdorff": err,
                "time_per_iteration_s": elapsed / iters_run,
            }
        )
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
