import numpy as np
import pytest

from proxopt.kinematics import (
    Joint,
    LimitSpec,
    RobotModel,
    RobotState,
    fk_jacobian,
    fk_vector_jacobian,
    forward_kinematics,
    link_frames,
    place_on_robot,
    robot_placement_jacobian,
)
from proxopt.poses import Pose
from proxopt.primitives import Kind, Primitive
from proxopt.trajopt import Scene, Trajectory, _stencil_values, validate


def _chain(n, rng=None):
    """Serial chain with alternating hinge axes and small fixed offsets."""
    joints = []
    for k in range(n):
        axis = [0, 0, 1] if k % 2 == 0 else [0, 1, 0]
        joints.append(Joint(parent=k, offset=Pose([0.0, 0.0, 0.3]), axis=np.array(axis, dtype=float)))
    return RobotModel(name="chain", joints=tuple(joints))


def test_model_validation():
    with pytest.raises(ValueError):
        RobotModel(name="bad", joints=(Joint(parent=1, offset=Pose(), axis=np.array([0, 0, 1.0])),))
    with pytest.raises(ValueError):
        RobotModel(
            name="bad",
            primitives=(Primitive(Kind.SPHERE, margin=0.1, attachment=3),),
        )
    with pytest.raises(ValueError):
        RobotModel(name="bad", base_limits=(None,) * 5)
    with pytest.raises(ValueError):
        LimitSpec(lower=1.0, upper=-1.0)


def test_state_vector_round_trip():
    state = RobotState(Pose([1, 2, 3], [0.1, 0.2, 0.3]), np.array([0.4, 0.5]))
    back = RobotState.from_vector(state.to_vector())
    assert np.allclose(back.base.translation, [1, 2, 3])
    assert np.allclose(back.base.rotation, [0.1, 0.2, 0.3])
    assert np.allclose(back.joint_angles, [0.4, 0.5])


def test_fk_zero_angles_composes_offsets():
    robot = _chain(3)
    state = RobotState(Pose.identity(), np.zeros(3))
    p = forward_kinematics(robot, state, 3, [0.0, 0.0, 0.0])
    assert np.allclose(p, [0.0, 0.0, 0.9], atol=1e-12)


def test_fk_single_hinge():
    robot = RobotModel(
        name="one",
        joints=(Joint(parent=0, offset=Pose(), axis=np.array([0.0, 0.0, 1.0])),),
    )
    state = RobotState(Pose.identity(), np.array([np.pi / 2]))
    p = forward_kinematics(robot, state, 1, [1.0, 0.0, 0.0])
    assert np.allclose(p, [0.0, 1.0, 0.0], atol=1e-12)


def test_fk_base_translation_shifts_points():
    robot = _chain(2)
    q = np.array([0.3, -0.4])
    p0 = forward_kinematics(robot, RobotState(Pose.identity(), q), 2, [0.1, 0.0, 0.2])
    p1 = forward_kinematics(robot, RobotState(Pose([1.0, 0.0, 0.0], [0, 0, 0]), q), 2, [0.1, 0.0, 0.2])
    assert np.allclose(p1 - p0, [1.0, 0.0, 0.0], atol=1e-12)


def test_fk_jacobian_blocks():
    robot = RobotModel(
        name="one",
        joints=(Joint(parent=0, offset=Pose(), axis=np.array([0.0, 0.0, 1.0])),),
    )
    state = RobotState(Pose.identity(), np.zeros(1))
    jac = fk_jacobian(robot, state, 1, [1.0, 0.0, 0.0])
    assert np.allclose(jac[:, :3], np.eye(3))
    assert np.allclose(jac[:, 6], [0.0, 1.0, 0.0])  # z x (1,0,0)


def test_fk_jacobian_matches_fd():
    rng = np.random.default_rng(30)
    eps = 1e-6
    for n in (1, 3, 7):
        robot = _chain(n)
        for _ in range(5):
            x = np.concatenate(
                [rng.uniform(-1, 1, 3), rng.uniform(-1.2, 1.2, 3), rng.uniform(-np.pi, np.pi, n)]
            )
            local = rng.uniform(-0.3, 0.3, 3)
            link = int(rng.integers(0, n + 1))
            jac = fk_jacobian(robot, RobotState.from_vector(x), link, local)
            for k in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[k] += eps
                xm[k] -= eps
                fd = (
                    forward_kinematics(robot, RobotState.from_vector(xp), link, local)
                    - forward_kinematics(robot, RobotState.from_vector(xm), link, local)
                ) / (2 * eps)
                assert np.allclose(jac[:, k], fd, atol=1e-6)


def test_fk_vector_jacobian_matches_fd():
    rng = np.random.default_rng(31)
    eps = 1e-6
    robot = _chain(4)
    x = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1.2, 1.2, 3), rng.uniform(-np.pi, np.pi, 4)])
    v = rng.uniform(-1, 1, 3)
    link = 4
    jac = fk_vector_jacobian(robot, RobotState.from_vector(x), link, v)
    assert np.allclose(jac[:, :3], 0.0)  # free vectors ignore translation
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        fp = link_frames(robot, RobotState.from_vector(xp))
        fm = link_frames(robot, RobotState.from_vector(xm))
        fd = (fp.rotations[link] @ v - fm.rotations[link] @ v) / (2 * eps)
        assert np.allclose(jac[:, k], fd, atol=1e-6)


def test_robot_placement_jacobian_matches_fd():
    rng = np.random.default_rng(32)
    eps = 1e-6
    robot = RobotModel(
        name="arm",
        joints=_chain(3).joints,
        primitives=(Primitive(Kind.CAPSULE, [0.05, 0.0, 0.1], [[0.0, 0.0, 0.3]], 0.05, attachment=3),),
    )
    prim = robot.primitives[0]
    x = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-1.2, 1.2, 3), rng.uniform(-np.pi, np.pi, 3)])
    jac = robot_placement_jacobian(robot, RobotState.from_vector(x), prim)
    for k in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        wp = place_on_robot(robot, RobotState.from_vector(xp), prim)
        wm = place_on_robot(robot, RobotState.from_vector(xm), prim)
        assert np.allclose(jac.danchor[:, k], (wp.anchor - wm.anchor) / (2 * eps), atol=1e-6)
        assert np.allclose(jac.dvectors[0, :, k], (wp.vectors[0] - wm.vectors[0]) / (2 * eps), atol=1e-6)


def _limited_robot():
    return RobotModel(
        name="lim",
        joints=(
            Joint(
                parent=0,
                offset=Pose(),
                axis=np.array([0.0, 0.0, 1.0]),
                limits=LimitSpec(lower=-1.0, upper=1.0, velocity=2.0, acceleration=10.0),
            ),
        ),
    )


def _limit_values(robot, states, h):
    """Every limited stencil value of a one-robot trajectory, by label, over the steps it reaches."""
    scene = Scene([robot], [RobotState(Pose())], num_steps=len(states), h=h)
    values = {}
    for order, (columns, _, _, names) in enumerate(scene._limit_index):
        v = _stencil_values(states, order, columns, h)
        for c, (_, label) in enumerate(names):
            values[label] = v[:, c]
    return values


def _limit_report(robot, states, h):
    scene = Scene([robot], [RobotState(Pose())], num_steps=len(states), h=h)
    return [(v.step, v.robot, v.label, v.amount) for v in validate(scene, Trajectory(states, h)).limit_violations]


def test_limit_values_constant_trajectory():
    robot = _limited_robot()
    states = np.tile(np.concatenate([np.zeros(6), [0.5]]), (5, 1))
    values = _limit_values(robot, states, 0.1)
    assert values["joint0/position"].tolist() == [0.5] * 5
    assert values["joint0/velocity"].tolist() == [0.0] * 4
    assert values["joint0/acceleration"].tolist() == [0.0] * 3
    assert _limit_report(robot, states, 0.1) == []


def test_limit_values_linear_trajectory():
    robot = _limited_robot()
    steps = np.arange(6)
    states = np.zeros((6, 7))
    states[:, 6] = 0.3 * steps
    h = 0.1
    values = _limit_values(robot, states, h)
    assert np.allclose(values["joint0/velocity"], 3.0)
    assert np.allclose(values["joint0/acceleration"], 0.0)
    # the velocity bound 2 is exceeded from step 2 on, the position bound 1 at steps 5 and 6
    report = _limit_report(robot, states, h)
    expected = [(i, "joint0/velocity", 1.0) for i in range(2, 7)]
    expected[3:3] = [(5, "joint0/position", 0.2)]
    expected[5:5] = [(6, "joint0/position", 0.5)]
    assert [(step, label) for step, _, label, _ in report] == [(step, label) for step, label, _ in expected]
    assert all(robot_name == "lim" for _, robot_name, _, _ in report)
    assert np.allclose([amount for *_, amount in report], [amount for *_, amount in expected])


def test_limit_values_quadratic_trajectory():
    robot = _limited_robot()
    steps = np.arange(8)
    a = 0.01
    states = np.zeros((8, 7))
    states[:, 6] = a * steps**2
    h = 0.2
    values = _limit_values(robot, states, h)
    assert len(values["joint0/acceleration"]) == 6
    assert np.allclose(values["joint0/acceleration"], 2 * a / h**2)


def test_limit_values_omits_boundary_stencils():
    robot = _limited_robot()
    values = _limit_values(robot, np.zeros((4, 7)), 0.1)
    assert [len(values[f"joint0/{kind}"]) for kind in ("position", "velocity", "acceleration")] == [4, 3, 2]
    # every stencil that exists violates its bound; validate lists them by step, then order
    states = np.zeros((4, 7))
    states[:, 6] = [5.0, -5.0, 5.0, -5.0]
    labels = [(step, label.split("/")[1]) for step, _, label, _ in _limit_report(robot, states, 0.1)]
    assert labels == [
        (1, "position"),
        (2, "position"), (2, "velocity"),
        (3, "position"), (3, "velocity"), (3, "acceleration"),
        (4, "position"), (4, "velocity"), (4, "acceleration"),
    ]
