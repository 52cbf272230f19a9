"""Free-floating primitive pairs: placement, derivatives and random sampling.

A free pair treats each primitive as attached to its own 6-DoF pose; the outer
variable is the stacked 12-vector (translation_a, euler_a, translation_b,
euler_b). This is the smallest setting in which the full derivative pipeline
can be exercised and is what the benchmarks and gradient audits run on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DEFAULT_INNER, InnerSettings, ProximityResult, solve_inner
from .poses import Pose
from .primitives import VECTOR_COUNT, Kind, PlacementJacobian, Primitive, WorldPrimitive, place, placement_jacobian

ALL_KINDS = (Kind.SPHERE, Kind.CAPSULE, Kind.RECTANGLE, Kind.BOX)
KIND_PAIRS = [(a, b) for i, a in enumerate(ALL_KINDS) for b in ALL_KINDS[i:]]


@dataclass(frozen=True)
class FreePair:
    prim_a: Primitive
    prim_b: Primitive


def unpack_state(x: np.ndarray) -> tuple[Pose, Pose]:
    x = np.asarray(x, dtype=float)
    if x.shape != (12,):
        raise ValueError("free pair state must have 12 entries")
    return Pose(x[0:3], x[3:6]), Pose(x[6:9], x[9:12])


def place_pair(pair: FreePair, x: np.ndarray) -> tuple[WorldPrimitive, WorldPrimitive]:
    pose_a, pose_b = unpack_state(x)
    return place(pair.prim_a, pose_a), place(pair.prim_b, pose_b)


def pair_jacobians(pair: FreePair, x: np.ndarray) -> tuple[PlacementJacobian, PlacementJacobian]:
    pose_a, pose_b = unpack_state(x)
    ja = placement_jacobian(pair.prim_a, pose_a).embed(0, 12)
    jb = placement_jacobian(pair.prim_b, pose_b).embed(6, 12)
    return ja, jb


def solve_pair(
    pair: FreePair,
    x: np.ndarray,
    settings: InnerSettings = DEFAULT_INNER,
    warm_start: np.ndarray | None = None,
) -> ProximityResult:
    return solve_inner(place_pair(pair, x), settings, warm_start)


def random_primitive(kind: Kind, rng: np.random.Generator, scale: float = 1.0) -> Primitive:
    """A unit-scale primitive with well-conditioned vectors."""
    num = VECTOR_COUNT[kind]
    anchor = rng.uniform(-0.3, 0.3, 3) * scale
    while True:
        vectors = rng.uniform(-1.0, 1.0, (num, 3)) * scale
        norms = np.linalg.norm(vectors, axis=1)
        if np.all(norms > 0.2 * scale):
            if num < 2:
                break
            gram = vectors @ vectors.T
            if np.linalg.det(gram) > 1e-3 * np.prod(np.diag(gram)):
                break
    margin = float(rng.uniform(0.05, 0.3)) * scale
    return Primitive(kind=kind, anchor=anchor, vectors=vectors, margin=margin)


def random_state(rng: np.random.Generator, spread: float = 1.5) -> np.ndarray:
    x = np.empty(12)
    x[0:3] = rng.uniform(-spread, spread, 3)
    x[3:6] = rng.uniform(-np.pi, np.pi, 3)
    x[6:9] = rng.uniform(-spread, spread, 3)
    x[9:12] = rng.uniform(-np.pi, np.pi, 3)
    return x


def random_pair(
    kinds: tuple[Kind, Kind], rng: np.random.Generator, scale: float = 1.0
) -> tuple[FreePair, np.ndarray]:
    pair = FreePair(
        random_primitive(kinds[0], rng, scale), random_primitive(kinds[1], rng, scale)
    )
    return pair, random_state(rng, 1.5 * scale)


def near_parallel_capsules(
    rng: np.random.Generator, angle: float = 1e-6
) -> tuple[WorldPrimitive, WorldPrimitive]:
    """Two world capsules whose axes differ in direction by at most `angle` rad."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    # A unit vector at exactly `angle` from direction.
    ortho = np.cross(direction, rng.normal(size=3))
    ortho /= np.linalg.norm(ortho)
    tilted = np.cos(angle) * direction + np.sin(angle) * ortho
    len_a = rng.uniform(0.5, 2.0)
    len_b = rng.uniform(0.5, 2.0)
    a = WorldPrimitive(rng.uniform(-1, 1, 3), (len_a * direction)[None, :], float(rng.uniform(0.05, 0.2)))
    b = WorldPrimitive(rng.uniform(-1, 1, 3), (len_b * tilted)[None, :], float(rng.uniform(0.05, 0.2)))
    return a, b
