import dataclasses
import json
import math
import re

import numpy as np
import pytest

from proxopt.distance import brute_force_distance, solve_inner
from proxopt.kinematics import Joint, LimitSpec, RobotModel, RobotState
from proxopt.poses import Pose
from proxopt.primitives import Kind, Primitive, place
from proxopt import trajopt
from proxopt.scene_io import load_scene, scene_from_dict
from proxopt.trajopt import (
    Objectives,
    Obstacle,
    OuterSettings,
    Scene,
    StateTarget,
    EETarget,
    Trajectory,
    _evaluate,
    broad_phase,
    broad_phase_rows,
    collision_penalty,
    place_states,
    default_trajectory,
    goal_terms,
    limit_penalty,
    smoothness_term,
    solve,
    validate,
)
from conftest import exact_distance, scene_text


def _sphere_robot(name, margin=0.25):
    return RobotModel(name=name, primitives=(Primitive(Kind.SPHERE, margin=margin, attachment=0),))


def _two_sphere_scene(pos_a, pos_b, margin=0.25, num_steps=1, w_collision=1e3):
    return Scene(
        robots=[_sphere_robot("a", margin), _sphere_robot("b", margin)],
        initial_states=[
            RobotState(Pose(np.asarray(pos_a, dtype=float), np.zeros(3))),
            RobotState(Pose(np.asarray(pos_b, dtype=float), np.zeros(3))),
        ],
        objectives=Objectives(w_collision=w_collision),
        num_steps=num_steps,
    )


def test_scene_validation():
    scene = _two_sphere_scene([0, 0, 0], [1, 0, 0])
    assert scene.dim_total == 12
    assert scene.robot_offsets == [0, 6]
    with pytest.raises(ValueError):
        Scene(robots=[_sphere_robot("a")], initial_states=[])
    with pytest.raises(ValueError):
        Scene(
            robots=[_sphere_robot("a")],
            initial_states=[RobotState(Pose.identity())],
            objectives=Objectives(state_targets=[StateTarget(5, 0, np.zeros(6))]),
            num_steps=2,
        )


def test_outer_settings_reject_zero_damping_and_negative_slack():
    # from a zero damping the damping never grows, so the outer loop would not end;
    # a negative slack would cull penetrating pairs from the collision term
    for bad in ({"damping_init": 0}, {"damping_init": -1e-3}, {"damping_init": math.nan}):
        with pytest.raises(ValueError, match="^damping_init must be positive"):
            OuterSettings(**bad)
    for bad in (-0.5, math.nan):
        with pytest.raises(ValueError, match="^broad_phase_slack must be non-negative"):
            OuterSettings(broad_phase_slack=bad)
    assert OuterSettings(broad_phase_slack=0.0).broad_phase_slack == 0.0


def test_candidate_pairs_exclusions():
    # primitives on the same or adjacent links never form pairs; neither do two obstacles
    arm = RobotModel(
        name="arm",
        joints=tuple(
            Joint(parent=k, offset=Pose([0, 0, 0.3]), axis=np.array([0.0, 0.0, 1.0])) for k in range(3)
        ),
        primitives=(
            Primitive(Kind.SPHERE, margin=0.1, attachment=1),
            Primitive(Kind.SPHERE, margin=0.1, attachment=2),
            Primitive(Kind.SPHERE, margin=0.1, attachment=3),
        ),
    )
    obstacle = Obstacle("o1", place(Primitive(Kind.SPHERE, [5, 0, 0], margin=0.1), Pose.identity()))
    obstacle2 = Obstacle("o2", place(Primitive(Kind.SPHERE, [6, 0, 0], margin=0.1), Pose.identity()))
    scene = Scene(
        robots=[arm],
        initial_states=[RobotState(Pose.identity(), np.zeros(3))],
        obstacles=[obstacle, obstacle2],
    )
    pairs = scene.candidate_pairs()
    assert (0, 1) not in pairs and (1, 2) not in pairs  # adjacent links
    assert (0, 2) in pairs  # skip-one links interact
    assert (3, 4) not in pairs  # obstacle-obstacle
    for k in range(3):
        assert (k, 3) in pairs and (k, 4) in pairs


def test_smoothness_trivial_trajectories():
    scene = _two_sphere_scene([0, 0, 0], [1, 0, 0], num_steps=6)
    const = Trajectory(np.tile(scene.initial_row(), (6, 1)), 0.1)
    value, grad, hess = smoothness_term(const, 0.1)
    assert value == 0.0 and not grad.any()

    ramp = np.outer(np.arange(6), np.ones(12)) * 0.3
    value, grad, _ = smoothness_term(Trajectory(ramp, 0.1), 0.1)
    assert abs(value) < 1e-20 and np.allclose(grad, 0.0)


def test_smoothness_single_kink():
    scene = _two_sphere_scene([0, 0, 0], [1, 0, 0], num_steps=5)
    h, w_s, d = 0.1, 0.7, 0.2
    states = np.zeros((5, 12))
    states[2, 0] = d  # one coordinate kinked at the middle step
    value, grad, hess = smoothness_term(Trajectory(states, h), w_s)
    # the kink enters three acceleration stencils: (+d, -2d, +d)/h^2
    expected = w_s * ((d / h**2) ** 2 + (2 * d / h**2) ** 2 + (d / h**2) ** 2)
    assert np.isclose(value, expected)
    # quadratic form consistency: value = 0.5 x^T H x, grad = H x
    x = states.ravel()
    assert np.isclose(value, 0.5 * x @ hess @ x)
    assert np.allclose(grad, hess @ x)


def test_goal_terms_state_targets():
    scene = _two_sphere_scene([0, 0, 0], [1, 0, 0], num_steps=3)
    target = np.array([0.5, 0, 0, 0, 0, 0])
    scene.objectives.state_targets.append(StateTarget(2, 0, target, weight=4.0))
    states = np.tile(scene.initial_row(), (3, 1))
    states[1, :6] = target
    value, grad, _ = goal_terms(Trajectory(states, 0.1), scene)
    assert value == 0.0 and not grad.any()

    states[1, :6] = target + np.array([0.1, 0, 0, 0, 0, 0])
    value, _, _ = goal_terms(Trajectory(states, 0.1), scene)
    assert np.isclose(value, 4.0 * 0.01)


def test_ee_target_gradient_matches_fd():
    arm = RobotModel(
        name="arm",
        joints=tuple(
            Joint(parent=k, offset=Pose([0, 0, 0.3]), axis=np.array([0.0, 1.0, 0.0]) if k % 2 else np.array([0.0, 0.0, 1.0]))
            for k in range(3)
        ),
    )
    rng = np.random.default_rng(40)
    scene = Scene(
        robots=[arm],
        initial_states=[RobotState(Pose.identity(), np.zeros(3))],
        objectives=Objectives(
            ee_targets=[EETarget(1, 0, 3, [0.1, 0.0, 0.2], [0.5, 0.2, 0.4], weight=2.0)]
        ),
    )
    x = rng.uniform(-0.5, 0.5, 9)
    states = x[None, :]
    value, grad, _ = goal_terms(Trajectory(states, 0.1), scene)
    eps = 1e-6
    for k in range(9):
        xp, xm = x.copy(), x.copy()
        xp[k] += eps
        xm[k] -= eps
        vp, _, _ = goal_terms(Trajectory(xp[None, :], 0.1), scene)
        vm, _, _ = goal_terms(Trajectory(xm[None, :], 0.1), scene)
        assert abs(grad[k] - (vp - vm) / (2 * eps)) < 1e-5


def test_broad_phase_culling():
    scene = _two_sphere_scene([0, 0, 0], [100, 0, 0])
    traj = Trajectory(scene.initial_row()[None, :], 0.1)
    assert broad_phase(scene, traj, 1, 1.0) == []

    near = _two_sphere_scene([0, 0, 0], [0.3, 0, 0])
    traj = Trajectory(near.initial_row()[None, :], 0.1)
    assert broad_phase(near, traj, 1, 1.0) == [(0, 1)]


def test_broad_phase_is_conservative():
    rng = np.random.default_rng(41)
    slack = 0.2
    kinds = [Kind.SPHERE, Kind.CAPSULE, Kind.BOX]
    for _ in range(200):
        prims = []
        states = []
        for name in ("a", "b"):
            kind = kinds[int(rng.integers(len(kinds)))]
            num = {Kind.SPHERE: 0, Kind.CAPSULE: 1, Kind.BOX: 3}[kind]
            vectors = rng.uniform(-0.6, 0.6, (num, 3))
            while num >= 1 and np.linalg.det(vectors @ vectors.T) < 1e-3:
                vectors = rng.uniform(-0.6, 0.6, (num, 3))
            prims.append(
                RobotModel(
                    name=name,
                    primitives=(
                        Primitive(kind, rng.uniform(-0.2, 0.2, 3), vectors, float(rng.uniform(0.05, 0.2)), attachment=0),
                    ),
                )
            )
            states.append(RobotState(Pose(rng.uniform(-1.2, 1.2, 3), rng.uniform(-np.pi, np.pi, 3))))
        scene = Scene(robots=prims, initial_states=states)
        kept = broad_phase_rows(scene, place_states(scene, scene.initial_row()[None]), slack)[0]
        if not kept.any():
            world = [
                place(r.primitives[0], s.base) for r, s in zip(prims, states)
            ]
            d_sq = brute_force_distance((world[0], world[1]), 8, passes=6)
            margins = prims[0].primitives[0].margin + prims[1].primitives[0].margin
            clearance = math.sqrt(d_sq) - margins
            assert clearance >= slack / 2


def test_evaluate_places_each_step_once(monkeypatch):
    # the broad phase, the collision term and the end-effector target share one
    # placement of all steps, made with one link_frames call per robot, and the
    # scene's pair lists are built once
    scene = load_scene(scene_text("arm7_box"))
    calls = []
    original = trajopt.link_frames

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(trajopt, "link_frames", counted)
    states = default_trajectory(scene).states
    lanes = trajopt._lanes_at(scene, states, scene.outer.broad_phase_slack, trajopt._cold_starts(scene, len(states)))
    _evaluate(scene, states, lanes, True)
    assert len(lanes.step)  # the collision term has pairs to solve
    assert len(calls) == len(scene.robots) == 1
    assert scene.primitive_refs() is scene.primitive_refs()
    assert scene.candidate_pairs() is scene.candidate_pairs()


def test_collision_penalty_separated_pairs():
    scene = _two_sphere_scene([0, 0, 0], [3, 0, 0])
    traj = Trajectory(scene.initial_row()[None, :], 0.1)
    value, grad, hess = collision_penalty(traj, scene, [[(0, 1)]])
    assert value == 0.0 and not grad.any() and not hess.any()
    # a pair that is not a candidate pair of the scene is an error, not skipped
    with pytest.raises(ValueError, match=re.escape("not candidate pairs of the scene: [(1, 0)]")):
        collision_penalty(traj, scene, [[(1, 0)]])


def test_collision_penalty_two_spheres():
    w = 1e3
    scene = _two_sphere_scene([0, 0, 0], [0.8, 0, 0], margin=0.5, w_collision=w)
    traj = Trajectory(scene.initial_row()[None, :], 0.1)
    value, grad, _ = collision_penalty(traj, scene, [[(0, 1)]])
    assert np.isclose(value, w * (0.64 - 1.0) ** 2)
    # descent pushes the centers apart
    assert grad[0] > 0.0 and grad[6] < 0.0


def test_collision_penalty_gradient_matches_fd():
    scene = load_scene(scene_text("capsule_box"))
    rng = np.random.default_rng(42)
    row = scene.initial_row() + rng.uniform(-0.1, 0.1, scene.dim_total)
    row[6] = 0.5  # crate pulled close enough that margins overlap but cores do not
    active = [scene.candidate_pairs()]
    value, grad, _ = collision_penalty(Trajectory(row[None, :], scene.h), scene, active)
    assert value > 0.0
    assert np.linalg.norm(grad) > 1.0  # penalty is active, not at a flat spot
    eps = 1e-6
    fd = np.empty_like(grad)
    for k in range(len(row)):
        rp, rm = row.copy(), row.copy()
        rp[k] += eps
        rm[k] -= eps
        vp, _, _ = collision_penalty(Trajectory(rp[None, :], scene.h), scene, active)
        vm, _, _ = collision_penalty(Trajectory(rm[None, :], scene.h), scene, active)
        fd[k] = (vp - vm) / (2 * eps)
    assert np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd)) < 1e-3


def _limited_scene(num_steps=4, velocity=None, acceleration=None):
    robot = RobotModel(
        name="r",
        joints=(
            Joint(
                parent=0,
                offset=Pose(),
                axis=np.array([0.0, 0.0, 1.0]),
                limits=LimitSpec(lower=-1.0, upper=1.0, velocity=velocity, acceleration=acceleration),
            ),
        ),
        primitives=(Primitive(Kind.SPHERE, margin=0.1, attachment=0),),
    )
    return Scene(
        robots=[robot],
        initial_states=[RobotState(Pose.identity(), np.zeros(1))],
        objectives=Objectives(w_limit=100.0),
        num_steps=num_steps,
    )


def test_limit_penalty_within_bounds_is_zero():
    scene = _limited_scene()
    states = np.zeros((4, 7))
    value, grad, hess = limit_penalty(Trajectory(states, 0.1), scene)
    assert value == 0.0 and not grad.any() and not hess.any()


def test_limit_penalty_single_violation():
    scene = _limited_scene()
    states = np.zeros((4, 7))
    states[2, 6] = 1.1  # 0.1 over the upper bound at one step
    value, _, _ = limit_penalty(Trajectory(states, 0.1), scene)
    assert np.isclose(value, 100.0 * 0.01)


def test_limit_penalty_gradient_matches_fd():
    scene = _limited_scene(num_steps=5, velocity=1.0, acceleration=5.0)
    rng = np.random.default_rng(43)
    states = rng.uniform(-1.6, 1.6, (5, 7))
    value, grad, _ = limit_penalty(Trajectory(states, 0.1), scene)
    assert value > 0.0
    eps = 1e-6
    flat = states.ravel()
    fd = np.empty(flat.size)
    for k in range(flat.size):
        fp, fm = flat.copy(), flat.copy()
        fp[k] += eps
        fm[k] -= eps
        vp, _, _ = limit_penalty(Trajectory(fp.reshape(5, 7), 0.1), scene)
        vm, _, _ = limit_penalty(Trajectory(fm.reshape(5, 7), 0.1), scene)
        fd[k] = (vp - vm) / (2 * eps)
    assert np.linalg.norm(grad - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))


def test_default_trajectory_interpolates_targets():
    scene = _two_sphere_scene([0, 0, 0], [1, 0, 0], num_steps=5)
    goal = np.array([2.0, 0, 0, 0, 0, 0])
    scene.objectives.state_targets.append(StateTarget(5, 0, goal, 1.0))
    traj = default_trajectory(scene)
    assert np.allclose(traj.states[0, :6], [0, 0, 0, 0, 0, 0])
    assert np.allclose(traj.states[2, :6], [1.0, 0, 0, 0, 0, 0])
    assert np.allclose(traj.states[4, :6], goal)
    # the second robot has no targets and stays put
    assert np.allclose(traj.states[:, 6], 1.0)


def test_solve_unobstructed_matches_dense_quadratic_solve():
    robot = _sphere_robot("free", margin=0.1)
    start = np.zeros(6)
    goal = np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0])
    scene = Scene(
        robots=[robot],
        initial_states=[RobotState(Pose.identity())],
        objectives=Objectives(
            state_targets=[StateTarget(1, 0, start, 10.0), StateTarget(10, 0, goal, 10.0)],
            w_smooth=0.1,
        ),
        num_steps=10,
        h=0.1,
    )
    rng = np.random.default_rng(44)
    t0 = default_trajectory(scene)
    t0.states += rng.uniform(-0.3, 0.3, t0.states.shape)
    traj, report = solve(scene, initial=Trajectory(t0.states, scene.h))
    assert report.converged

    # endpoint residuals and interior accelerations vanish at the optimum
    assert np.linalg.norm(traj.states[0] - start) < 1e-3
    assert np.linalg.norm(traj.states[-1] - goal) < 1e-3
    acc = traj.states[2:] - 2 * traj.states[1:-1] + traj.states[:-2]
    assert np.abs(acc / scene.h**2).max() < 1e-6

    # the objective is quadratic: one dense Newton solve gives the exact optimum
    v1, g1, h1 = smoothness_term(t0, scene.objectives.w_smooth)
    v2, g2, h2 = goal_terms(t0, scene)
    exact = t0.states.ravel() + np.linalg.solve(h1 + h2 + 1e-12 * np.eye(60), -(g1 + g2))
    assert np.allclose(traj.states.ravel(), exact, atol=1e-5)


def test_solve_two_sphere_conflict_resolves_clearance():
    scene = load_scene(scene_text("two_sphere_swap"))
    traj, report = solve(scene)
    assert report.converged
    centers_a = traj.states[:, 0:3]
    centers_b = traj.states[:, 6:9]
    dist = np.linalg.norm(centers_a - centers_b, axis=1)
    assert dist.min() >= 0.5 - 1e-3


def test_validate_reports_collisions_at_correct_steps():
    scene = _two_sphere_scene([0, 0, 0], [2, 0, 0], num_steps=5)
    states = np.tile(scene.initial_row(), (5, 1))
    states[2, 0] = 1.9  # robot a rams robot b at step 3
    report = validate(scene, Trajectory(states, 0.1))
    assert [v.step for v in report.violations] == [3]
    assert report.min_clearance_per_step[2] < -0.3
    assert report.worst_clearance == report.min_clearance_per_step[2]


def test_validate_far_pair_reports_true_clearance():
    # 2 m between the centres of two 0.1 m spheres: the clearance is 1.8, not
    # the distance between the cores
    scene = _two_sphere_scene([0, 0, 0], [2, 0, 0], margin=0.1)
    report = validate(scene, Trajectory(scene.initial_row()[None, :], 0.1))
    assert abs(report.min_clearance_per_step[0] - 1.8) <= 1e-9


def test_validate_is_sound_when_inner_solves_stop_early():
    doc = json.loads(scene_text("two_box_swap"))
    doc["settings"] = {"inner_max_iters": 1}
    scene = scene_from_dict(doc)
    traj = default_trajectory(scene)
    report = validate(scene, traj)
    refs = scene.primitive_refs()
    not_converged = 0
    placement = place_states(scene, traj.states)
    for i in range(traj.num_steps):
        exact = math.inf
        for a, b in scene.candidate_pairs():
            pair = (placement.world(i, a), placement.world(i, b))
            not_converged += not solve_inner(pair, scene.inner).converged
            d = exact_distance(pair)
            exact = min(exact, d - refs[a].margin - refs[b].margin)
        assert report.min_clearance_per_step[i] <= exact + 1e-12
    assert not_converged > 0
    assert report.worst_clearance < 0.0  # the straight-line swap collides


def test_validate_empty_scene():
    scene = Scene(
        robots=[_sphere_robot("only")],
        initial_states=[RobotState(Pose.identity())],
        num_steps=2,
    )
    report = validate(scene, Trajectory(np.tile(scene.initial_row(), (2, 1)), 0.1))
    assert report.violations == [] and report.limit_violations == []
    assert report.worst_clearance == math.inf


def test_solve_respects_max_iters():
    scene = load_scene(scene_text("two_box_swap"))
    traj, report = solve(scene, settings=OuterSettings(max_outer_iters=1))
    assert not report.converged
    assert report.reason == "max_iters"
    assert report.num_iterations == 1


def test_solve_stops_with_damping_overflow():
    # the Newton systems are too ill conditioned for any damping up to DAMPING_MAX
    doc = json.loads(scene_text("two_sphere_swap"))
    doc["weights"] = {"smoothness": 1e150}
    _, report = solve(scene_from_dict(doc))
    assert not report.converged
    assert report.reason == "damping_overflow"
    assert report.num_iterations == 1
    assert report.iterations[0].damping > trajopt.DAMPING_MAX


def test_solve_stops_with_line_search_failure(monkeypatch):
    # no trial step at all, and the first raise of the damping passes DAMPING_MAX
    monkeypatch.setattr(trajopt, "LS_MAX_HALVINGS", 0)
    monkeypatch.setattr(trajopt, "DAMPING_MAX", 1e-8)
    scene = load_scene(scene_text("two_sphere_swap"))
    traj, report = solve(scene)
    assert not report.converged
    assert report.reason == "line_search_failure"
    assert report.num_iterations == 1
    assert np.array_equal(traj.states, default_trajectory(scene).states)


def _nan_sphere_swap():
    """two_sphere_swap with robot a's sphere anchored at (NaN, 0, 0), built past the loader."""
    scene = load_scene(scene_text("two_sphere_swap"))
    robot = scene.robots[0]
    prim = dataclasses.replace(robot.primitives[0], anchor=np.array([math.nan, 0.0, 0.0]))
    return dataclasses.replace(scene, robots=[dataclasses.replace(robot, primitives=(prim,)), scene.robots[1]])


def test_nan_pair_is_a_collision_not_a_clear_plan():
    scene = _nan_sphere_swap()
    traj = default_trajectory(scene)
    report = validate(scene, traj)
    # every step's only pair is certified as colliding: lower bound 0 on d^2
    assert len(report.violations) == scene.num_steps
    assert report.min_clearance_per_step == [-0.5] * scene.num_steps
    assert report.worst_clearance == -0.5
    # the broad phase keeps the pair instead of culling it on a NaN comparison
    kept = broad_phase_rows(scene, place_states(scene, traj.states), scene.outer.broad_phase_slack)
    assert scene.candidate_pairs() == ((0, 1),)
    assert kept.shape == (scene.num_steps, 1) and kept.all()
    with pytest.raises(trajopt.SolveError, match="a_sphere:b_sphere at step 1"):
        solve(scene)


def test_validate_counts_a_nan_clearance_as_a_violation():
    scene = _two_sphere_scene([0, 0, 0], [2, 0, 0], num_steps=2)
    robot = scene.robots[0]
    prim = dataclasses.replace(robot.primitives[0], margin=math.nan)
    scene = dataclasses.replace(scene, robots=[dataclasses.replace(robot, primitives=(prim,)), scene.robots[1]])
    report = validate(scene, Trajectory(np.tile(scene.initial_row(), (2, 1)), 0.1))
    assert len(report.violations) == 2
    assert all(math.isnan(c) for c in report.min_clearance_per_step)
    assert math.isnan(report.worst_clearance)
