"""Floating-base kinematic chains with hinge joints.

A robot state packs (base translation, base Euler angles, joint angles) into a
vector of length n + 6. Link 0 is the base; joint k drives link k + 1, whose
frame is parent_frame * fixed_offset * rotation(axis, q_k).

`link_frames` computes the frames of one state, or of N stacked states in one
vectorized pass per joint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .poses import Pose, euler_matrix_derivatives
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

    @cached_property
    def _chain(self) -> "_Chain":
        """The joints' constant offsets and axes, built on first use."""
        axes = np.array([j.axis for j in self.joints]).reshape(-1, 3)
        cross = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]] for x, y, z in axes]).reshape(-1, 3, 3)
        return _Chain(
            tuple(j.parent for j in self.joints),
            np.array([j.offset.matrix() for j in self.joints]).reshape(-1, 3, 3),
            np.array([j.offset.translation for j in self.joints]).reshape(-1, 3),
            axes,
            cross,
            cross @ cross,
        )


class _Chain(NamedTuple):
    """Per-joint constants of a RobotModel, stacked over the joints."""

    parents: tuple[int, ...]
    offset_rotations: np.ndarray  # (n, 3, 3)
    offset_translations: np.ndarray  # (n, 3)
    axes: np.ndarray  # (n, 3) unit hinge axes
    cross: np.ndarray  # (n, 3, 3) cross-product matrix K of each axis
    cross_sq: np.ndarray  # (n, 3, 3) K @ K


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
    """Link frames of one state, or of N states with a leading step axis."""

    rotations: np.ndarray  # ([N,] num_links, 3, 3) world rotation per link
    origins: np.ndarray  # ([N,] num_links, 3) world origin per link
    joint_axes: np.ndarray  # ([N,] n, 3) world hinge axis per joint
    joint_origins: np.ndarray  # ([N,] n, 3) world hinge origin per joint

    def step(self, i: int) -> "_Frames":
        """The frames of step i of stacked frames."""
        return _Frames(self.rotations[i], self.origins[i], self.joint_axes[i], self.joint_origins[i])


def _euler_matrices(angles: np.ndarray) -> np.ndarray:
    """poses.euler_to_matrix over a leading axis: (N, 3) angles to (N, 3, 3)."""
    n = len(angles)
    ca, cb, cc = np.cos(angles).T
    sa, sb, sc = np.sin(angles).T
    rx = np.zeros((n, 3, 3))
    ry = np.zeros((n, 3, 3))
    rz = np.zeros((n, 3, 3))
    rx[:, 0, 0] = ry[:, 1, 1] = rz[:, 2, 2] = 1.0
    rx[:, 1, 1], rx[:, 1, 2], rx[:, 2, 1], rx[:, 2, 2] = ca, -sa, sa, ca
    ry[:, 0, 0], ry[:, 0, 2], ry[:, 2, 0], ry[:, 2, 2] = cb, sb, -sb, cb
    rz[:, 0, 0], rz[:, 0, 1], rz[:, 1, 0], rz[:, 1, 1] = cc, -sc, sc, cc
    return rx @ ry @ rz


def link_frames(robot: RobotModel, state) -> _Frames:
    """World frames of every link for a RobotState, or for (N, n + 6) packed states.

    Stacked states give frames with a leading step axis. They are computed in
    one pass over the joints in topological order (a joint's parent is an
    earlier link), each joint handling all N steps at once with the same
    products as a single state, so step i's frames equal those of state i.
    """
    if isinstance(state, RobotState):
        return link_frames(robot, state.to_vector()[None]).step(0)
    x = np.asarray(state, dtype=float)
    steps, n = len(x), robot.n
    chain = robot._chain
    rotations = np.empty((steps, n + 1, 3, 3))
    origins = np.empty((steps, n + 1, 3))
    joint_axes = np.empty((steps, n, 3))
    joint_origins = np.empty((steps, n, 3))
    rotations[:, 0] = _euler_matrices(x[:, 3:6])
    origins[:, 0] = x[:, 0:3]
    q = x[:, 6 : 6 + n]
    sin_q = np.sin(q)[:, :, None, None]
    vers_q = (1.0 - np.cos(q))[:, :, None, None]
    eye = np.eye(3)
    for k, parent in enumerate(chain.parents):
        rp = rotations[:, parent]
        r_pre = rp @ chain.offset_rotations[k]
        origins[:, k + 1] = joint_origins[:, k] = origins[:, parent] + rp @ chain.offset_translations[k]
        joint_axes[:, k] = r_pre @ chain.axes[k]
        hinge = eye + sin_q[:, k] * chain.cross[k] + vers_q[:, k] * chain.cross_sq[k]
        np.matmul(r_pre, hinge, out=rotations[:, k + 1])
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
