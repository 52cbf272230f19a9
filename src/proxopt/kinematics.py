"""Floating-base kinematic chains with hinge joints.

A robot state packs (base translation, base Euler angles, joint angles) into a
vector of length n + 6. Link 0 is the base; joint k drives link k + 1, whose
frame is parent_frame * fixed_offset * rotation(axis, q_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .poses import Pose, axis_angle_matrix, euler_matrix_derivatives
from .primitives import PlacementJacobian, Primitive, WorldPrimitive


@dataclass(frozen=True)
class LimitSpec:
    """Box bounds on a coordinate plus symmetric velocity/acceleration bounds."""

    lower: Optional[float] = None
    upper: Optional[float] = None
    velocity: Optional[float] = None
    acceleration: Optional[float] = None

    def __post_init__(self):
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class Joint:
    parent: int  # link index (0 = base)
    offset: Pose
    axis: np.ndarray
    limits: Optional[LimitSpec] = None

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or not np.isfinite(norm) or norm == 0.0:
            raise ValueError(f"joint axis must be a nonzero finite 3-vector, got {axis.tolist()}")
        if abs(norm - 1.0) > 1e-12:
            axis = axis / norm
        object.__setattr__(self, "axis", axis)


@dataclass(frozen=True)
class RobotModel:
    name: str
    joints: tuple[Joint, ...] = ()
    base_limits: tuple[Optional[LimitSpec], ...] = (None,) * 6
    primitives: tuple[Primitive, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "primitives", tuple(self.primitives))
        base_limits = tuple(self.base_limits)
        if len(base_limits) != 6:
            raise ValueError("base_limits must have 6 entries")
        object.__setattr__(self, "base_limits", base_limits)
        for k, joint in enumerate(self.joints):
            if not (0 <= joint.parent <= k):
                raise ValueError(f"joint {k} has invalid parent {joint.parent}")
        for prim in self.primitives:
            if prim.attachment == "world" or not (0 <= int(prim.attachment) <= len(self.joints)):
                raise ValueError(f"primitive attached to unknown link {prim.attachment!r}")

    @property
    def n(self) -> int:
        return len(self.joints)

    @property
    def dim(self) -> int:
        return self.n + 6

    @property
    def num_links(self) -> int:
        return self.n + 1

    def link_parent(self, link: int) -> int:
        if link == 0:
            raise ValueError("base link has no parent")
        return self.joints[link - 1].parent


@dataclass(frozen=True)
class RobotState:
    base: Pose
    joint_angles: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "joint_angles", np.asarray(self.joint_angles, dtype=float))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.base.translation, self.base.rotation, self.joint_angles])

    @staticmethod
    def from_vector(x: np.ndarray) -> "RobotState":
        x = np.asarray(x, dtype=float)
        return RobotState(Pose(x[0:3], x[3:6]), x[6:])


class _Frames(NamedTuple):
    rotations: np.ndarray  # (num_links, 3, 3) world rotation per link
    origins: np.ndarray  # (num_links, 3) world origin per link
    joint_axes: np.ndarray  # (n, 3) world hinge axis per joint
    joint_origins: np.ndarray  # (n, 3) world hinge origin per joint


def link_frames(robot: RobotModel, state: RobotState) -> _Frames:
    n = robot.n
    rotations = np.empty((n + 1, 3, 3))
    origins = np.empty((n + 1, 3))
    joint_axes = np.empty((n, 3))
    joint_origins = np.empty((n, 3))
    rotations[0] = state.base.matrix()
    origins[0] = state.base.translation
    for k, joint in enumerate(robot.joints):
        rp, op = rotations[joint.parent], origins[joint.parent]
        r_pre = rp @ joint.offset.matrix()
        o_pre = op + rp @ joint.offset.translation
        joint_axes[k] = r_pre @ joint.axis
        joint_origins[k] = o_pre
        rotations[k + 1] = r_pre @ axis_angle_matrix(joint.axis, state.joint_angles[k])
        origins[k + 1] = o_pre
    return _Frames(rotations, origins, joint_axes, joint_origins)


def _check_link(robot: RobotModel, link: int):
    if not (0 <= link <= robot.n):
        raise ValueError(f"unknown link {link} (robot has links 0..{robot.n})")


def _ancestor_joints(robot: RobotModel, link: int) -> list[int]:
    joints = []
    while link > 0:
        joints.append(link - 1)
        link = robot.joints[link - 1].parent
    return joints


def forward_kinematics(
    robot: RobotModel, state: RobotState, link: int, local: np.ndarray
) -> np.ndarray:
    """World position of a point given in the local frame of `link`."""
    _check_link(robot, link)
    frames = link_frames(robot, state)
    return frames.origins[link] + frames.rotations[link] @ np.asarray(local, dtype=float)


def fk_jacobian(
    robot: RobotModel,
    state: RobotState,
    link: int,
    local: np.ndarray,
    frames: Optional[_Frames] = None,
) -> np.ndarray:
    """Derivative of the world point w.r.t. the packed state, shape (3, n + 6)."""
    _check_link(robot, link)
    if frames is None:
        frames = link_frames(robot, state)
    p_world = frames.origins[link] + frames.rotations[link] @ np.asarray(local, dtype=float)
    jac = np.zeros((3, robot.dim))
    jac[:, :3] = np.eye(3)
    dr = euler_matrix_derivatives(state.base.rotation)
    in_base = frames.rotations[0].T @ (p_world - frames.origins[0])
    for m in range(3):
        jac[:, 3 + m] = dr[m] @ in_base
    for j in _ancestor_joints(robot, link):
        jac[:, 6 + j] = np.cross(frames.joint_axes[j], p_world - frames.joint_origins[j])
    return jac


def fk_vector_jacobian(
    robot: RobotModel,
    state: RobotState,
    link: int,
    local_vector: np.ndarray,
    frames: Optional[_Frames] = None,
) -> np.ndarray:
    """Derivative of a rotated (free) vector w.r.t. the state; no translation part."""
    _check_link(robot, link)
    if frames is None:
        frames = link_frames(robot, state)
    v_world = frames.rotations[link] @ np.asarray(local_vector, dtype=float)
    jac = np.zeros((3, robot.dim))
    dr = euler_matrix_derivatives(state.base.rotation)
    in_base = frames.rotations[0].T @ v_world
    for m in range(3):
        jac[:, 3 + m] = dr[m] @ in_base
    for j in _ancestor_joints(robot, link):
        jac[:, 6 + j] = np.cross(frames.joint_axes[j], v_world)
    return jac


def place_on_robot(
    robot: RobotModel, state: RobotState, prim: Primitive, frames: Optional[_Frames] = None
) -> WorldPrimitive:
    if frames is None:
        frames = link_frames(robot, state)
    link = int(prim.attachment)
    r, o = frames.rotations[link], frames.origins[link]
    return WorldPrimitive(o + r @ prim.anchor, prim.vectors @ r.T, prim.margin)


def robot_placement_jacobian(
    robot: RobotModel, state: RobotState, prim: Primitive, frames: Optional[_Frames] = None
) -> PlacementJacobian:
    """World anchor/vector Jacobians of an attached primitive w.r.t. the robot state."""
    if frames is None:
        frames = link_frames(robot, state)
    link = int(prim.attachment)
    danchor = fk_jacobian(robot, state, link, prim.anchor, frames)
    dvectors = np.stack(
        [fk_vector_jacobian(robot, state, link, v, frames) for v in prim.vectors]
    ) if prim.num_params else np.zeros((0, 3, robot.dim))
    return PlacementJacobian(danchor, dvectors)


class LimitValue(NamedTuple):
    label: str  # e.g. "joint2/velocity" or "base3/position"
    value: float
    lower: Optional[float]
    upper: Optional[float]
    coord: int  # index into the robot's state vector
    order: int  # 0 position, 1 velocity, 2 acceleration


def _coordinate_limits(robot: RobotModel):
    for c in range(6):
        spec = robot.base_limits[c]
        if spec is not None:
            yield c, f"base{c}", spec
    for k, joint in enumerate(robot.joints):
        if joint.limits is not None:
            yield 6 + k, f"joint{k}", joint.limits


def limit_values(
    robot: RobotModel, states: np.ndarray, h: float, step: int
) -> list[LimitValue]:
    """Position, velocity and acceleration limit entries at a 1-based step.

    Velocities and accelerations use backward finite differences; entries whose
    stencil reaches before the first step are omitted rather than padded.
    """
    if not (1 <= step <= len(states)):
        raise ValueError(f"step {step} out of range 1..{len(states)}")
    x = states[step - 1]
    out = []
    for coord, name, spec in _coordinate_limits(robot):
        if spec.lower is not None or spec.upper is not None:
            out.append(LimitValue(f"{name}/position", float(x[coord]), spec.lower, spec.upper, coord, 0))
        if spec.velocity is not None and step >= 2:
            v = (x[coord] - states[step - 2][coord]) / h
            out.append(LimitValue(f"{name}/velocity", float(v), -spec.velocity, spec.velocity, coord, 1))
        if spec.acceleration is not None and step >= 3:
            a = (x[coord] - 2.0 * states[step - 2][coord] + states[step - 3][coord]) / h**2
            out.append(
                LimitValue(f"{name}/acceleration", float(a), -spec.acceleration, spec.acceleration, coord, 2)
            )
    return out
