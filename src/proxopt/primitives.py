"""Convex collision primitives parameterized as an anchor point plus scaled vectors.

A primitive is the convex set {p + sum_l t_l v_l : 0 <= t_l <= 1}, dilated by a
safety margin. Sphere/capsule/rectangle/box correspond to 0/1/2/3 vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .poses import Pose, euler_matrix_derivatives


class Kind(enum.Enum):
    SPHERE = "sphere"
    CAPSULE = "capsule"
    RECTANGLE = "rectangle"
    BOX = "box"


VECTOR_COUNT = {Kind.SPHERE: 0, Kind.CAPSULE: 1, Kind.RECTANGLE: 2, Kind.BOX: 3}

WORLD = "world"


@dataclass(frozen=True)
class Primitive:
    """A collision primitive in the local frame of the body it is attached to."""

    kind: Kind
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(3))
    vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    margin: float = 0.0
    attachment: object = WORLD  # link index within a robot, or "world"
    name: str = ""

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=float)
        if anchor.shape != (3,):
            raise ValueError(f"anchor must have 3 entries, got shape {anchor.shape}")
        object.__setattr__(self, "anchor", anchor)
        vectors = np.asarray(self.vectors, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "vectors", vectors)
        expected = VECTOR_COUNT[self.kind]
        if len(vectors) != expected:
            raise ValueError(
                f"{self.kind.value} requires {expected} vectors, got {len(vectors)}"
            )
        if self.kind in (Kind.SPHERE, Kind.CAPSULE):
            if self.margin <= 0.0:
                raise ValueError(f"{self.kind.value} margin must be positive (it is the radius)")
        elif self.margin < 0.0:
            raise ValueError("margin must be non-negative")
        if expected >= 2:
            gram = vectors @ vectors.T
            scale = np.prod(np.diag(gram))
            if np.linalg.det(gram) <= 1e-10 * scale:
                raise ValueError(f"{self.kind.value} vectors must be linearly independent")

    @property
    def num_params(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class WorldPrimitive:
    """A primitive placed in the world frame."""

    anchor: np.ndarray
    vectors: np.ndarray
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "anchor", np.asarray(self.anchor, dtype=float))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float).reshape(-1, 3))

    @property
    def num_params(self) -> int:
        return len(self.vectors)


def place(primitive: Primitive, pose: Pose) -> WorldPrimitive:
    """Rigidly place a primitive: the anchor transforms, the vectors only rotate."""
    r = pose.matrix()
    return WorldPrimitive(
        anchor=pose.translation + r @ primitive.anchor,
        vectors=primitive.vectors @ r.T,
        margin=primitive.margin,
    )


def point_on(primitive: WorldPrimitive, t: np.ndarray) -> np.ndarray:
    """Point on the primitive for parameters t (t may lie slightly outside [0, 1])."""
    t = np.asarray(t, dtype=float)
    if t.shape != (primitive.num_params,):
        raise ValueError(f"expected {primitive.num_params} parameters, got {t.shape}")
    return primitive.anchor + t @ primitive.vectors


def point_jacobian_t(primitive: WorldPrimitive) -> np.ndarray:
    """Derivative of point_on w.r.t. t; column l is vector l. Shape (3, L)."""
    return primitive.vectors.T.copy()


def point_jacobian_x(primitive: Primitive, pose: Pose, t: np.ndarray) -> np.ndarray:
    """Derivative of the world point w.r.t. the 6 pose coordinates. Shape (3, 6).

    Columns 0:3 are the translation block (identity); columns 3:6 differentiate
    the rotated local offset w.r.t. the Euler angles.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (primitive.num_params,):
        raise ValueError(f"expected {primitive.num_params} parameters, got {t.shape}")
    local = primitive.anchor + t @ primitive.vectors
    jac = np.zeros((3, 6))
    jac[:, :3] = np.eye(3)
    dr = euler_matrix_derivatives(pose.rotation)
    for k in range(3):
        jac[:, 3 + k] = dr[k] @ local
    return jac


def placement_jacobian(primitive: Primitive, pose: Pose) -> "PlacementJacobian":
    """World-point Jacobians of anchor and vectors w.r.t. the 6 pose coordinates."""
    dr = euler_matrix_derivatives(pose.rotation)
    danchor = np.zeros((3, 6))
    danchor[:, :3] = np.eye(3)
    dvectors = np.zeros((primitive.num_params, 3, 6))
    for k in range(3):
        danchor[:, 3 + k] = dr[k] @ primitive.anchor
        for l in range(primitive.num_params):
            dvectors[l, :, 3 + k] = dr[k] @ primitive.vectors[l]
    return PlacementJacobian(danchor, dvectors)


@dataclass(frozen=True)
class PlacementJacobian:
    """Derivatives of a placed primitive's world anchor and vectors w.r.t. outer variables.

    danchor has shape (3, n_x); dvectors has shape (L, 3, n_x).
    """

    danchor: np.ndarray
    dvectors: np.ndarray

    @property
    def n_x(self) -> int:
        return self.danchor.shape[1]

    def embed(self, offset: int, n_total: int) -> "PlacementJacobian":
        """Zero-pad into a larger variable vector starting at column `offset`."""
        danchor = np.zeros((3, n_total))
        danchor[:, offset : offset + self.n_x] = self.danchor
        dvectors = np.zeros((self.dvectors.shape[0], 3, n_total))
        dvectors[:, :, offset : offset + self.n_x] = self.dvectors
        return PlacementJacobian(danchor, dvectors)

    @staticmethod
    def zero(num_params: int, n_x: int) -> "PlacementJacobian":
        """For primitives that do not depend on the outer variables (static obstacles)."""
        return PlacementJacobian(np.zeros((3, n_x)), np.zeros((num_params, 3, n_x)))


def bounding_center_radius(primitive: WorldPrimitive) -> tuple[np.ndarray, float]:
    """Conservative bounding sphere of the dilated primitive."""
    center = primitive.anchor + 0.5 * primitive.vectors.sum(axis=0)
    radius = 0.5 * np.linalg.norm(primitive.vectors, axis=1).sum() + primitive.margin
    return center, float(radius)
