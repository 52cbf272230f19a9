"""Rigid-body poses using XYZ-intrinsic Euler angles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def euler_to_matrix(angles: np.ndarray) -> np.ndarray:
    """Rotation matrix for XYZ-intrinsic Euler angles (Rx @ Ry @ Rz)."""
    a, b, c = angles
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    return rx @ ry @ rz


def euler_matrix_derivatives(angles: np.ndarray) -> np.ndarray:
    """dR/d(angle_k) for XYZ-intrinsic Euler angles, shape (3, 3, 3)."""
    a, b, c = angles
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, ca, -sa], [0.0, sa, ca]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz = np.array([[cc, -sc, 0.0], [sc, cc, 0.0], [0.0, 0.0, 1.0]])
    drx = np.array([[0.0, 0.0, 0.0], [0.0, -sa, -ca], [0.0, ca, -sa]])
    dry = np.array([[-sb, 0.0, cb], [0.0, 0.0, 0.0], [-cb, 0.0, -sb]])
    drz = np.array([[-sc, -cc, 0.0], [cc, -sc, 0.0], [0.0, 0.0, 0.0]])
    out = np.empty((3, 3, 3))
    out[0] = drx @ ry @ rz
    out[1] = rx @ dry @ rz
    out[2] = rx @ ry @ drz
    return out


def axis_angle_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: translation plus XYZ-intrinsic Euler orientation (radians)."""

    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        if self.translation.shape != (3,) or self.rotation.shape != (3,):
            raise ValueError("Pose requires 3-vector translation and rotation")

    def matrix(self) -> np.ndarray:
        return euler_to_matrix(self.rotation)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.translation + self.matrix() @ np.asarray(point, dtype=float)

    def compose(self, other: "Pose") -> "Pose":
        """self after other is applied first: (self ∘ other)(p) = self(other(p))."""
        r = self.matrix() @ other.matrix()
        return Pose(self.apply(other.translation), matrix_to_euler(r))

    @staticmethod
    def identity() -> "Pose":
        return Pose()


def matrix_to_euler(r: np.ndarray) -> np.ndarray:
    """Inverse of euler_to_matrix (XYZ-intrinsic). Gimbal lock maps to a = 0."""
    sb = np.clip(r[0, 2], -1.0, 1.0)
    b = np.arcsin(sb)
    cb = np.cos(b)
    if cb > 1e-9:
        a = np.arctan2(-r[1, 2], r[2, 2])
        c = np.arctan2(-r[0, 1], r[0, 0])
    else:
        a = 0.0
        c = np.arctan2(r[1, 0], r[1, 1])
    return np.array([a, b, c])
