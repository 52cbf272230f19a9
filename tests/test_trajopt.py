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
from conftest import exact_distance, scene_text, solved_lanes


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


@pytest.mark.parametrize("h", [1e-300, 1e-160, 1e200, math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_scene_and_trajectory_reject_a_time_step_the_stencils_cannot_use(h):
    # h² underflows to 0 (a ZeroDivisionError in the smoothness term), 2/h²
    # overflows (an infinite stencil weight), h² overflows (h**2 raises), or h
    # is not a positive number (a NaN objective): the scene is refused up front
    scene = load_scene(scene_text("two_sphere_swap"))
    with pytest.raises(ValueError, match="^time step h must be positive"):
        dataclasses.replace(scene, h=h)
    with pytest.raises(ValueError, match="^time step h must be positive"):
        Trajectory(default_trajectory(scene).states, h)
    assert Trajectory(default_trajectory(scene).states, 1e-150).h == 1e-150


def test_outer_settings_reject_zero_damping_and_negative_slack():
    # a solve of no iterations plans nothing, and a negative tolerance never stops one
    for bad in (0, -3):
        with pytest.raises(ValueError, match="^max_outer_iters must be at least 1"):
            OuterSettings(max_outer_iters=bad)
    for name in ("grad_tol", "ftol"):
        for bad in (-1.0, -1e-300, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be non-negative"):
                OuterSettings(**{name: bad})
    assert OuterSettings(max_outer_iters=1, grad_tol=0.0, ftol=0.0).max_outer_iters == 1
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


def test_broad_phase_rejects_a_step_outside_the_trajectory():
    # two steps: robot a's sphere is clear of b's at step 1 and touches it at
    # step 2; step -1 must not read step N - 1 as states[-2:-1] does
    scene = _two_sphere_scene([0, 0, 0], [0.3, 0, 0], num_steps=2)
    states = np.tile(scene.initial_row(), (2, 1))
    states[0, 0] = -100.0
    traj = Trajectory(states, 0.1)
    assert broad_phase(scene, traj, 1, 1.0) == [] and broad_phase(scene, traj, 2, 1.0) == [(0, 1)]
    for step in (0, -1, 3):
        with pytest.raises(ValueError, match=re.escape(f"step {step} outside 1..2")):
            broad_phase(scene, traj, step, 1.0)


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
    # the broad phase and the collision term share one placement of all steps,
    # made with one batched link_frames call per robot; a derivative
    # evaluation makes no link_frames call of its own: each end-effector
    # target reads its step's frames from that placement; the scene's pair
    # lists are built once
    scene = load_scene(scene_text("arm7_box"))
    calls = []
    original = trajopt.link_frames

    def counted(robot, state):
        calls.append("row" if isinstance(state, RobotState) else len(state))
        return original(robot, state)

    monkeypatch.setattr(trajopt, "link_frames", counted)
    states = default_trajectory(scene).states
    lanes = solved_lanes(scene, states)
    _evaluate(scene, states, lanes, True)
    assert len(lanes.step)  # the collision term has pairs to solve
    assert len(scene.robots) == len(scene.objectives.ee_targets) == 1
    assert calls == [len(states)]
    assert scene.primitive_refs() is scene.primitive_refs()
    assert scene.candidate_pairs() is scene.candidate_pairs()


@pytest.mark.parametrize("name,rejects", [("arm7_box", True), ("two_box_swap", False), ("two_sphere_swap", False)])
def test_solve_places_each_trial_once_and_tests_its_cheap_terms_first(name, rejects, monkeypatch):
    # Over a whole solve, the cheap terms run once per trial (the start is a
    # trial that cannot be rejected) and once per derivative evaluation; they
    # read only the states. A trial is placed, with one batched link_frames
    # call per robot, and its broad phase runs once on that placement, only
    # once it passes its cheap test. Its lanes are solved, one solve_lanes
    # call per (La, Lb) group it keeps, and it has one value-only evaluation,
    # only once it also passes its collision floor. A derivative evaluation
    # solves no lane: it reads those of the trial that placed its states. So
    # does the report: nothing is evaluated after the last iteration, and the
    # report's objective and clearance are those of the last evaluation of
    # the returned states. On arm7_box, smoothness + goal + limit alone
    # reject some trials; on the swap scenes the collision term decides every
    # trial. On every scene the floor rejects some trials.
    scene = load_scene(scene_text(name))
    calls = {"link_frames": 0, "broad_phase_rows": 0, "_limit_penalty": 0, "solve_lanes": 0, "value_only": 0}
    groups = []  # the (La, Lb) groups each built set of lanes keeps
    evaluated = []  # every evaluation's states, value and minimum clearance
    in_derivs = [False]
    for attr in ("link_frames", "broad_phase_rows", "_limit_penalty", "solve_lanes"):
        original = getattr(trajopt, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            # the end-effector targets' single-row frames are not placements
            calls[_attr] += not (_attr == "link_frames" and isinstance(args[1], RobotState))
            assert not (_attr == "solve_lanes" and in_derivs[0]), "a derivative evaluation solved lanes"
            return _original(*args, **kwargs)

        monkeypatch.setattr(trajopt, attr, counted)
    pack, evaluate = trajopt._pack_lanes, trajopt._evaluate

    def counted_pack(scene, kept):
        groups.append(len(set(scene._lane_index[0][kept.slot].tolist())))
        return pack(scene, kept)

    def counted_evaluate(scene, states, lanes, need_derivs, *rest):
        in_derivs[0] = need_derivs
        calls["value_only"] += not need_derivs
        try:
            result = evaluate(scene, states, lanes, need_derivs, *rest)
        finally:
            in_derivs[0] = False
        evaluated.append((states.copy(), result[0], result[2]))
        return result

    monkeypatch.setattr(trajopt, "_pack_lanes", counted_pack)
    monkeypatch.setattr(trajopt, "_evaluate", counted_evaluate)
    traj, report = solve(scene)
    trials = sum(stats.trials for stats in report.iterations)
    cheap_rejects = sum(stats.cheap_rejects for stats in report.iterations)
    bound_rejects = sum(stats.bound_rejects for stats in report.iterations)
    last = next(ev for ev in reversed(evaluated) if np.array_equal(ev[0], traj.states))
    assert (report.final_objective, report.min_clearance) == last[1:]
    assert calls["link_frames"] == len(scene.robots) * (1 + trials - cheap_rejects)
    assert calls["broad_phase_rows"] == 1 + trials - cheap_rejects
    assert len(groups) == calls["value_only"] == 1 + trials - cheap_rejects - bound_rejects
    assert calls["solve_lanes"] == sum(groups) > 0
    assert calls["_limit_penalty"] == 1 + trials + report.num_iterations
    assert (cheap_rejects > 0) == rejects and bound_rejects > 0
    assert all(0 <= stats.cheap_rejects + stats.bound_rejects <= stats.trials for stats in report.iterations)


@pytest.mark.parametrize("lam", [1e-8, 1e3])
@pytest.mark.parametrize("name", ["two_sphere_swap", "two_box_swap", "arm7_box"])
def test_banded_solve_in_place_is_bitwise_scipys_default(name, lam):
    # solveh_banded factors _to_banded's Fortran-ordered copy in place; the
    # direction is bitwise that of scipy's default call on a C-ordered copy,
    # and the assembled band is left as it was for a retry at another damping
    from scipy.linalg import solveh_banded as scipy_solveh_banded

    scene = load_scene(scene_text(name))
    states = default_trajectory(scene).states
    _, acc, _, _ = _evaluate(scene, states, solved_lanes(scene, states), True)
    assembled = acc.band.copy()
    rhs = -acc.grad.ravel()
    ab = trajopt._to_banded(acc.band, lam)
    assert ab.flags.f_contiguous
    damped = ab.copy()
    direction = trajopt.solveh_banded(ab, rhs, lower=False)
    c_ordered = assembled.copy(order="C")
    c_ordered[-1] += lam
    assert c_ordered.flags.c_contiguous and np.array_equal(c_ordered, damped)
    expected = scipy_solveh_banded(c_ordered, rhs, lower=False)
    assert np.array_equal(direction, expected)
    assert not np.array_equal(ab, damped)  # the copy now holds the factor
    assert np.array_equal(acc.band, assembled)
    assert np.array_equal(rhs, -acc.grad.ravel())


def test_banded_solve_faults_few_pages_per_iteration():
    # the outer step factors its band in the copy _to_banded makes, so a warm
    # solve maps almost no fresh pages: about 10 minor faults per outer
    # iteration on arm7_box, where an extra copy of the (39, 2080) band per
    # Newton step took over 300
    resource = pytest.importorskip("resource")
    scene = load_scene(scene_text("arm7_box"))
    solve(scene)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, report = solve(scene)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100 * report.num_iterations


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


@pytest.mark.parametrize("columns", [12, 15])
def test_validate_rejects_a_trajectory_of_the_wrong_width(columns):
    # arm7_box has 13 columns: 12 used to end in an IndexError from the
    # kinematics, and 15 were certified with the extra columns ignored
    scene = load_scene(scene_text("arm7_box"))
    assert scene.dim_total == 13
    states = np.zeros((scene.num_steps, columns))
    states[:, : min(columns, 13)] = default_trajectory(scene).states[:, : min(columns, 13)]
    with pytest.raises(ValueError, match=f"trajectory has {columns} columns, the scene 13"):
        validate(scene, Trajectory(states, scene.h))


@pytest.mark.parametrize("rows", [1, 51])
def test_collision_penalty_takes_one_list_of_pairs_per_step(rows):
    # a single row used to evaluate step 1 only (and return 0.0 on this
    # scene), and 51 rows ended in an IndexError
    scene = load_scene(scene_text("two_box_swap"))
    traj = default_trajectory(scene)
    assert traj.num_steps == 50
    with pytest.raises(ValueError, match=f"one list of active pairs per step \\(50\\), got {rows}"):
        collision_penalty(traj, scene, [list(scene.candidate_pairs())] * rows)


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


def test_a_trial_rejected_on_its_cheap_terms_never_solves_its_lanes(monkeypatch):
    # Every lane solve after the first derivative evaluation fails. arm7_box's
    # first trials are rejected on smoothness + goal + limit alone, so they
    # are not placed and raise nothing; solve raises SolveError in the
    # value-only evaluation of the first trial that passes its cheap test,
    # the only one that is placed and whose lanes are solved.
    scene = load_scene(scene_text("arm7_box"))
    events = []
    evaluate, solve_lanes, place_states_ = trajopt._evaluate, trajopt.solve_lanes, trajopt.place_states
    cheap_terms = trajopt._cheap_terms

    def traced_evaluate(scene, states, lanes, need_derivs, *rest):
        events.append("derivs" if need_derivs else "value")
        return evaluate(scene, states, lanes, need_derivs, *rest)

    def failing_lanes(*args):
        events.append("lanes")
        res = solve_lanes(*args)
        if "derivs" in events:
            res.converged[:] = False
        return res

    def traced_place(*args):
        events.append("place")
        return place_states_(*args)

    def traced_cheap(*args):
        events.append("cheap")
        return cheap_terms(*args)

    monkeypatch.setattr(trajopt, "_cheap_terms", traced_cheap)
    monkeypatch.setattr(trajopt, "_evaluate", traced_evaluate)
    monkeypatch.setattr(trajopt, "solve_lanes", failing_lanes)
    monkeypatch.setattr(trajopt, "place_states", traced_place)
    with pytest.raises(trajopt.SolveError, match="^inner solve failed"):
        solve(scene)
    # the start's cheap terms, placement, lanes and value, its derivative
    # evaluation (which sums the cheap terms again), then trials whose cheap
    # terms reject them before any placement, until one passes, is placed,
    # solves its lanes and raises in its value-only evaluation
    first = events.index("derivs")
    assert events[:2] == ["cheap", "place"] and events[first - 1 : first + 2] == ["value", "derivs", "cheap"]
    assert set(events[2 : first - 1]) == {"lanes"}
    trials = events[first + 2 :]
    k = trials.index("place")
    assert trials[:k] == ["cheap"] * k and k >= 2  # >= 1 cheap rejection
    assert set(trials[k + 1 : -1]) == {"lanes"} and trials[-1] == "value"


def test_the_cheap_terms_place_nothing(monkeypatch):
    # smoothness, goal and limit read only the states: a trial rejected on
    # them is never placed, nor are the states of the public goal_terms; a
    # trial that passes is placed once
    scene = load_scene(scene_text("arm7_box"))
    placed = []
    place_states_ = trajopt.place_states

    def counted(*args):
        placed.append(1)
        return place_states_(*args)

    monkeypatch.setattr(trajopt, "place_states", counted)
    traj = default_trajectory(scene)
    slack, cold = scene.outer.broad_phase_slack, trajopt._cold_starts(scene, traj.num_steps)
    value, lanes, rejected = trajopt._line_search_trial(scene, traj.states, 0.0, slack, cold)
    assert lanes is None and rejected == "cheap" and value > 0.0  # the end-effector target is missed
    goal_value, _, _ = goal_terms(traj, scene)
    assert goal_value > 0.0 and placed == []
    _, lanes, rejected = trajopt._line_search_trial(scene, traj.states, math.inf, slack, cold)
    assert lanes is not None and rejected is None and placed == [1]


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
