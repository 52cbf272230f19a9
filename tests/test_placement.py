"""The batched placement path against a per-step reference.

`link_frames` and `place_states` place all N steps in one array pass, the
broad phase tests all steps at once and `limit_penalty` evaluates each stencil
order over all limited columns and steps, the values `validate` reads. The FK Jacobians take one cross product over all ancestor
joints, and the smoothness and limit terms add straight into the Hessian's
upper band. The reference functions below do the same work one step, one
joint, one block and one entry at a time, as the solver did before, on a
dense Hessian.
"""

import math
import tracemalloc

import numpy as np
import pytest

from proxopt import trajopt
from proxopt.kinematics import (
    Joint,
    LimitSpec,
    RobotModel,
    RobotState,
    fk_jacobian,
    fk_vector_jacobian,
    link_frames,
    place_on_robot,
)
from proxopt.poses import euler_matrix_derivatives
from proxopt.poses import Pose, axis_angle_matrix
from proxopt.primitives import Kind, Primitive, WorldPrimitive, bounding_center_radius, place
from proxopt.scene_io import load_scene
from proxopt.trajopt import (
    Obstacle,
    Objectives,
    Scene,
    Trajectory,
    broad_phase_rows,
    limit_penalty,
    place_states,
)
from conftest import scene_text


# -- per-step reference ------------------------------------------------------


def _reference_frames(robot, state):
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
    return rotations, origins, joint_axes, joint_origins


def _reference_world(scene, row):
    """Every ref's world primitive at one step, one primitive at a time."""
    states = [scene.robot_state(row, r) for r in range(len(scene.robots))]
    frames = [_reference_frames(robot, s) for robot, s in zip(scene.robots, states)]
    world = []
    for ref in scene.primitive_refs():
        if ref.owner is None:
            world.append(scene.obstacles[ref.index].world)
        else:
            prim = scene.robots[ref.owner].primitives[ref.index]
            rotations, origins, _, _ = frames[ref.owner]
            r, o = rotations[ref.link], origins[ref.link]
            world.append(WorldPrimitive(o + r @ prim.anchor, prim.vectors @ r.T, prim.margin))
    return world, frames


def _reference_broad_phase(scene, world, slack):
    bounds = [bounding_center_radius(w) for w in world]
    kept = []
    for i, j in scene.candidate_pairs():
        (ci, ri), (cj, rj) = bounds[i], bounds[j]
        if np.linalg.norm(ci - cj) <= ri + rj + slack:
            kept.append((i, j))
    return kept


def _bound_penalty(v, lo, hi):
    if hi is not None and v > hi:
        e = v - hi
        return e * e, 2.0 * e, 2.0
    if lo is not None and v < lo:
        e = v - lo
        return e * e, 2.0 * e, 2.0
    return 0.0, 0.0, 0.0


def _reference_limit_penalty(scene, states, grad, hess):
    """Every limit entry at every step, visited one at a time; adds into grad and hess."""
    w, h = scene.objectives.w_limit, scene.h
    n, dim = states.shape
    value = 0.0
    stencils = {
        0: ((0, 1.0),),
        1: ((0, 1.0 / h), (-1, -1.0 / h)),
        2: ((0, 1.0 / h**2), (-1, -2.0 / h**2), (-2, 1.0 / h**2)),
    }
    for r, robot in enumerate(scene.robots):
        off = scene.robot_offsets[r]
        for coord, _name, spec in trajopt._coordinate_limits(robot):
            col = off + coord
            checks = []
            if spec.lower is not None or spec.upper is not None:
                checks.append((0, spec.lower, spec.upper))
            if spec.velocity is not None:
                checks.append((1, -spec.velocity, spec.velocity))
            if spec.acceleration is not None:
                checks.append((2, -spec.acceleration, spec.acceleration))
            for order, lo, hi in checks:
                stencil = stencils[order]
                for i in range(order, n):
                    v = sum(c * states[i + d, col] for d, c in stencil)
                    phi, dphi, ddphi = _bound_penalty(v, lo, hi)
                    if phi == 0.0:
                        continue
                    value += w * phi
                    for d, c in stencil:
                        grad[i + d, col] += w * dphi * c
                    for da, ca in stencil:
                        for db, cb in stencil:
                            blk = np.zeros((dim, dim))
                            blk[col, col] = w * ddphi * ca * cb
                            hess[(i + da) * dim : (i + da + 1) * dim, (i + db) * dim : (i + db + 1) * dim] += blk
    return value


def _reference_limit_violations(scene, states, h):
    """validate's limit violations one step, robot, coordinate and order at a
    time, with the velocity and acceleration written as differences over h."""
    out = []
    for i, x in enumerate(states):
        for r, robot in enumerate(scene.robots):
            off = scene.robot_offsets[r]
            for coord, name, spec in trajopt._coordinate_limits(robot):
                col = off + coord
                checks = []
                if spec.lower is not None or spec.upper is not None:
                    checks.append(("position", x[col], spec.lower, spec.upper))
                if spec.velocity is not None and i >= 1:
                    v = (x[col] - states[i - 1, col]) / h
                    checks.append(("velocity", v, -spec.velocity, spec.velocity))
                if spec.acceleration is not None and i >= 2:
                    a = (x[col] - 2.0 * states[i - 1, col] + states[i - 2, col]) / h**2
                    checks.append(("acceleration", a, -spec.acceleration, spec.acceleration))
                for kind, value, lo, hi in checks:
                    over = max(0.0 if hi is None else value - hi, 0.0 if lo is None else lo - value)
                    if over > 0.0:
                        out.append((i + 1, robot.name, f"{name}/{kind}", over))
    return out


def _reference_smoothness(states, h, w_s, grad, hess):
    """The smoothness term's derivatives one stencil and one (d, d) block at a time."""
    n, dim = states.shape
    if n < 3:
        return
    inv_h2 = 1.0 / h**2
    acc_rows = (states[2:] - 2.0 * states[1:-1] + states[:-2]) * inv_h2
    coeffs = (inv_h2, -2.0 * inv_h2, inv_h2)
    eye = np.eye(dim)
    for i in range(2, n):
        r = acc_rows[i - 2]
        for da, ca in zip((0, -1, -2), coeffs):
            grad[i + da] += 2.0 * w_s * ca * r
            for db, cb in zip((0, -1, -2), coeffs):
                rows = slice((i + da) * dim, (i + da + 1) * dim)
                cols = slice((i + db) * dim, (i + db + 1) * dim)
                hess[rows, cols] += (2.0 * w_s * ca * cb) * eye


def _upper_band(hess, bandwidth):
    """The upper band of a dense matrix in solveh_banded's layout (entries past the matrix are 0)."""
    n = hess.shape[0]
    band = np.zeros((bandwidth + 1, n))
    for k in range(min(bandwidth, n - 1) + 1):
        band[bandwidth - k, k:] = np.diagonal(hess, k)
    return band


def _seeded_accumulator(num_steps, dim, seed):
    """An accumulator whose gradient and band hold random values, plus the dense
    matrix of the same upper entries, so that the order of later additions
    shows in the sums."""
    rng = np.random.default_rng(seed)
    acc = trajopt._Accumulator(num_steps, dim, True)
    acc.grad[:] = rng.normal(size=acc.grad.shape)
    hess = rng.normal(size=(num_steps * dim, num_steps * dim))
    acc.band[:] = _upper_band(hess, acc.bandwidth)
    assert acc.band.any()
    return acc, acc.grad.copy(), hess


def _reference_fk_jacobians(robot, state, link, local, frames):
    """fk_jacobian and fk_vector_jacobian of `local`, one cross product per ancestor joint."""
    p_world = frames.origins[link] + frames.rotations[link] @ local
    v_world = frames.rotations[link] @ local
    dr = euler_matrix_derivatives(state.base.rotation)
    point, vector = np.zeros((3, robot.dim)), np.zeros((3, robot.dim))
    point[:, :3] = np.eye(3)
    for m in range(3):
        point[:, 3 + m] = dr[m] @ (frames.rotations[0].T @ (p_world - frames.origins[0]))
        vector[:, 3 + m] = dr[m] @ (frames.rotations[0].T @ v_world)
    j = link
    while j > 0:
        j -= 1
        point[:, 6 + j] = np.cross(frames.joint_axes[j], p_world - frames.joint_origins[j])
        vector[:, 6 + j] = np.cross(frames.joint_axes[j], v_world)
        j = robot.joints[j].parent
    return point, vector


# -- scenes ------------------------------------------------------------------


def _branching_robot(name="tree"):
    # joint parents 0, 1, 1, 0, 4, 2: two branches leave link 1 and a third the base
    parents = (0, 1, 1, 0, 4, 2)
    axes = ([0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1])
    limits = LimitSpec(lower=-1.0, upper=1.2, velocity=3.0, acceleration=40.0)
    joints = tuple(
        Joint(parent=p, offset=Pose([0.05 * k, 0.0, 0.2], [0.1 * k, -0.2, 0.3]), axis=np.asarray(a, float), limits=limits)
        for k, (p, a) in enumerate(zip(parents, axes))
    )
    prims = (
        Primitive(Kind.SPHERE, [0.0, 0.0, 0.1], margin=0.08, attachment=0),
        Primitive(Kind.CAPSULE, [0.0, 0.0, 0.0], [[0.0, 0.0, 0.2]], 0.05, attachment=2),
        Primitive(Kind.RECTANGLE, [0.0, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, 0.15, 0.0]], 0.01, attachment=3),
        Primitive(Kind.BOX, [0.0, 0.0, 0.0], [[0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]], 0.0, attachment=5),
        Primitive(Kind.CAPSULE, [0.0, 0.0, 0.0], [[0.1, 0.1, 0.0]], 0.04, attachment=6),
    )
    base_limits = (LimitSpec(lower=-0.5, upper=0.5, velocity=2.0),) * 3 + (None,) * 3
    return RobotModel(name=name, joints=joints, base_limits=base_limits, primitives=prims)


def _branching_scene(num_steps):
    robot = _branching_robot()
    return Scene(
        robots=[robot],
        initial_states=[RobotState(Pose.identity(), np.zeros(robot.n))],
        obstacles=[Obstacle("ball", place(Primitive(Kind.SPHERE, [0.3, 0.0, 0.4], margin=0.1), Pose.identity()))],
        objectives=Objectives(w_limit=250.0),
        num_steps=num_steps,
        h=0.05,
    )


def _two_robot_scene(num_steps):
    arm = load_scene(scene_text("arm7_box"))
    tree = _branching_robot("tree")
    return Scene(
        robots=[arm.robots[0], tree],
        initial_states=[arm.initial_states[0], RobotState(Pose([0.4, 0.2, 0.0]), np.zeros(tree.n))],
        obstacles=arm.obstacles,
        objectives=Objectives(w_limit=1e3),
        num_steps=num_steps,
        h=0.05,
    )


def _arm7_scene(num_steps):
    scene = load_scene(scene_text("arm7_box"))
    return Scene(
        robots=scene.robots,
        initial_states=scene.initial_states,
        obstacles=scene.obstacles,
        objectives=Objectives(w_limit=scene.objectives.w_limit),
        num_steps=num_steps,
        h=scene.h,
    )


SCENES = {"arm7_box": _arm7_scene, "branching": _branching_scene, "two_robots": _two_robot_scene}


def _random_states(scene, seed, num_steps):
    rng = np.random.default_rng(seed)
    base = np.tile(scene.initial_row(), (num_steps, 1))
    # a random walk, so that velocities and accelerations cross their limits too
    return base + np.cumsum(rng.normal(0.0, 0.08, base.shape), axis=0) + rng.uniform(-0.6, 0.6, base.shape)


# -- tests -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENES))
def test_batched_frames_and_placement_match_per_step(name):
    num_steps = 40
    scene = SCENES[name](num_steps)
    states = _random_states(scene, 7, num_steps)
    placement = place_states(scene, states)
    for i, row in enumerate(states):
        world, frames = _reference_world(scene, row)
        for r, robot in enumerate(scene.robots):
            single = link_frames(robot, scene.robot_state(row, r))
            for ref_part, batched_part, single_part in zip(frames[r], placement.frames[r], single):
                assert np.abs(batched_part[i] - ref_part).max(initial=0.0) <= 1e-12
                assert np.abs(single_part - ref_part).max(initial=0.0) <= 1e-12
        one_step = place_states(scene, row[None])
        for p, ref in enumerate(scene.primitive_refs()):
            anchor, vectors = world[p].anchor, world[p].vectors
            num_params = world[p].num_params
            assert np.abs(placement.anchors[i, p] - anchor).max() <= 1e-12
            assert np.abs(placement.vectors[i, p, :num_params] - vectors).max(initial=0.0) <= 1e-12
            assert not placement.vectors[i, p, num_params:].any()
            for view in (placement.world(i, p), one_step.world(0, p)):
                assert view.num_params == num_params and view.margin == ref.margin
                assert np.abs(view.anchor - anchor).max() <= 1e-12
                assert np.abs(view.vectors - vectors).max(initial=0.0) <= 1e-12
            if ref.owner is not None:
                robot = scene.robots[ref.owner]
                single = place_on_robot(robot, scene.robot_state(row, ref.owner), robot.primitives[ref.index])
                assert np.abs(single.anchor - anchor).max() <= 1e-12
                assert np.abs(single.vectors - vectors).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", sorted(SCENES))
def test_batched_broad_phase_keeps_the_same_pairs(name):
    num_steps = 60
    scene = SCENES[name](num_steps)
    states = _random_states(scene, 11, num_steps)
    kept_any = culled_any = False
    for slack in (0.0, 0.1, 0.5):
        batched = broad_phase_rows(scene, place_states(scene, states), slack)
        assert batched.shape == (num_steps, len(scene.candidate_pairs()))
        for i, row in enumerate(states):
            world, _ = _reference_world(scene, row)
            expected = _reference_broad_phase(scene, world, slack)
            assert [scene.candidate_pairs()[c] for c in np.flatnonzero(batched[i])] == expected
            kept_any |= bool(expected)
            culled_any |= len(expected) < len(scene.candidate_pairs())
    assert kept_any and culled_any


def test_broad_phase_spheres_are_bounding_center_radius():
    scene = _branching_scene(5)
    states = _random_states(scene, 3, 5)
    placement = place_states(scene, states)
    refs = scene.primitive_refs()
    for i in range(5):
        for p in range(len(refs)):
            center, radius = bounding_center_radius(placement.world(i, p))
            vectors = placement.vectors[i, p]
            assert np.array_equal(center, placement.anchors[i, p] + 0.5 * vectors.sum(axis=0))
            assert radius == 0.5 * np.sqrt((vectors * vectors).sum(axis=1)).sum() + refs[p].margin


@pytest.mark.parametrize("name", sorted(SCENES))
def test_batched_limit_penalty_is_bitwise_the_per_entry_loop(name):
    num_steps = 50
    scene = SCENES[name](num_steps)
    states = _random_states(scene, 5, num_steps)
    value, grad, hess = limit_penalty(Trajectory(states, scene.h), scene)
    ref_grad, ref_hess = np.zeros(grad.shape), np.zeros(hess.shape)
    ref_value = _reference_limit_penalty(scene, states, ref_grad.reshape(num_steps, -1), ref_hess)
    assert value > 0.0
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(hess, ref_hess)


@pytest.mark.parametrize("num_steps", [1, 2, 3, 50])
def test_limit_penalty_adds_in_the_per_entry_order(num_steps):
    # the terms before the limit term leave arbitrary values in the gradient
    # and the band, so the order of the additions shows in the result
    scene = _two_robot_scene(num_steps)
    scene.h = 0.037
    states = _random_states(scene, 9, num_steps) * 2.0
    acc, ref_grad, ref_hess = _seeded_accumulator(num_steps, states.shape[1], 10)
    value, worst = trajopt._limit_penalty(scene, states, acc)
    assert value == _reference_limit_penalty(scene, states, ref_grad, ref_hess)
    assert math.isfinite(value) and worst > 0.0
    assert np.array_equal(acc.grad, ref_grad)
    assert np.array_equal(acc.band, _upper_band(ref_hess, acc.bandwidth))


@pytest.mark.parametrize("num_steps", [1, 2, 3, 50])
def test_validate_limit_violations_follow_the_per_step_order(num_steps):
    # validate reads the planner's stencil values, so amounts round differently
    # from the differences over h, but the list and its order are the same
    scene = _two_robot_scene(num_steps)
    states = _random_states(scene, 9, num_steps) * 2.0
    report = trajopt.validate(scene, Trajectory(states, 0.037))
    expected = _reference_limit_violations(scene, states, 0.037)
    assert len(expected) > 0
    assert [(v.step, v.robot, v.label) for v in report.limit_violations] == [e[:3] for e in expected]
    for v, (*_, amount) in zip(report.limit_violations, expected):
        assert abs(v.amount - amount) <= 1e-12 * amount


@pytest.mark.parametrize("num_steps", [1, 2, 3, 50])
def test_smoothness_band_is_bitwise_the_per_step_loop(num_steps):
    scene = _two_robot_scene(num_steps)
    states = _random_states(scene, 12, num_steps) * 2.0
    h, w_s = 0.037, 0.3
    # added onto random values, the order of the additions shows in the result
    acc, ref_grad, ref_hess = _seeded_accumulator(num_steps, states.shape[1], 13)
    trajopt._smoothness(states, h, w_s, acc)
    _reference_smoothness(states, h, w_s, ref_grad, ref_hess)
    assert np.array_equal(acc.grad, ref_grad)
    assert np.array_equal(acc.band, _upper_band(ref_hess, acc.bandwidth))
    # from zero, the public term's dense matrix is the reference's, both triangles
    value, grad, hess = trajopt.smoothness_term(Trajectory(states, h), w_s)
    ref_grad, ref_hess = np.zeros(grad.shape), np.zeros(hess.shape)
    _reference_smoothness(states, h, w_s, ref_grad.reshape(num_steps, -1), ref_hess)
    assert (value > 0.0) == (num_steps >= 3)
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(hess, ref_hess)


def test_derivative_evaluation_allocates_no_dense_hessian():
    # arm7_box's dense Hessian would be (160 * 13)^2 floats = 34.6 MB
    scene = load_scene(scene_text("arm7_box"))
    states = trajopt.default_trajectory(scene).states
    slack = scene.outer.broad_phase_slack
    warm = trajopt._cold_starts(scene, len(states))
    trajopt._evaluate(scene, states, trajopt._lanes_at(scene, states, slack, warm), True)  # builds the lazy indices
    tracemalloc.start()
    try:
        trajopt._evaluate(scene, states, trajopt._lanes_at(scene, states, slack, warm), True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("name", ["arm7_box", "branching"])
def test_fk_jacobians_are_bitwise_the_per_joint_loop(name):
    scene = SCENES[name](6)
    robot = scene.robots[0]
    rng = np.random.default_rng(14)
    states = _random_states(scene, 15, 6)
    for row in states:
        state = scene.robot_state(row, 0)
        frames = link_frames(robot, state)
        for link in range(robot.num_links):
            local = rng.normal(size=3)
            point, vector = _reference_fk_jacobians(robot, state, link, local, frames)
            assert np.array_equal(fk_jacobian(robot, state, link, local, frames), point)
            assert np.array_equal(fk_vector_jacobian(robot, state, link, local, frames), vector)
