"""The lane kernel against the scalar inner solver it replaces in the planner.

`solve_lanes` solves many pairs of one (La, Lb) shape at once and must give
every lane exactly what `solve_inner` gives that pair: the same t*, d_sq,
closest points, step count and convergence flag, to the bit. The planner's
collision term solves all (step, pair) lanes of an evaluation with it; the
reference below is the per-lane loop over `solve_inner` and `pair_derivatives`
that the planner ran before, and `_evaluate` must match it through a solve,
including the evaluations that reuse the lanes of an accepted line-search
trial: bitwise in everything but the gradient and the Hessian band. Its
warm starts come from a tuple-keyed map updated where the planner keeps t*
(after a derivative evaluation and after an accepted trial), which the
planner's warm-start store must mirror entry for entry. The gradient and band
come from the adjoint `_lane_gradient`, which is mathematically equal to the
reference's `dt/dx` chain but rounds differently, so they must agree to
1e-10 of their largest entry.
"""

import dataclasses
import math

import numpy as np
import pytest

from proxopt import distance, kinematics, primitives, sensitivity, trajopt
from proxopt.distance import DEFAULT_INNER, InnerSettings, solve_inner, solve_lanes
from proxopt.gradcheck import _ref_jacobian
from proxopt.pairs import KIND_PAIRS, place_pair, random_pair
from proxopt.scene_io import load_scene
from proxopt.sensitivity import pair_derivatives
from proxopt.trajopt import (
    SolveError,
    _Accumulator,
    _goal_terms,
    _limit_penalty,
    _smoothness,
    broad_phase_rows,
    place_states,
    solve,
)
from conftest import scene_text
from test_placement import SCENES, _random_states


def _lanes(world_pairs, starts):
    n = len(world_pairs)
    la, lb = world_pairs[0][0].num_params, world_pairs[0][1].num_params
    starts = [np.full(la + lb, 0.5) if s is None else s for s in starts]
    return (
        np.array([a.anchor for a, _ in world_pairs]),
        np.array([a.vectors for a, _ in world_pairs]).reshape(n, la, 3),
        np.array([b.anchor for _, b in world_pairs]),
        np.array([b.vectors for _, b in world_pairs]).reshape(n, lb, 3),
        np.array(starts).reshape(n, la + lb),
    )


def _assert_lanes_equal_scalar(world_pairs, starts, settings):
    res = solve_lanes(*_lanes(world_pairs, starts), settings)
    for k, (pair, start) in enumerate(zip(world_pairs, starts)):
        ref = solve_inner(pair, settings, start)
        assert res.d_sq[k] == ref.d_sq
        assert np.array_equal(res.t_star[k], ref.t_star)
        assert np.array_equal(res.closest_a[k], ref.closest_a)
        assert np.array_equal(res.closest_b[k], ref.closest_b)
        assert res.newton_steps[k] == ref.newton_steps
        assert res.converged[k] == ref.converged
    return res


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_solve_lanes_equals_solve_inner_bitwise(kinds, monkeypatch):
    rng = np.random.default_rng([7, KIND_PAIRS.index(kinds)])
    world = [place_pair(*random_pair(kinds, rng)) for _ in range(120)]
    dim = world[0][0].num_params + world[0][1].num_params
    cold = [None] * len(world)
    # warm starts far outside the unit box overshoot barrier kinks, which
    # sends lanes through the exact line search
    warm = [rng.uniform(-3.0, 4.0, dim) for _ in world]
    near = [solve_inner(pair).t_star + rng.normal(0.0, 1e-3, dim) for pair in world]

    searches = []
    original = distance._exact_line_search

    def counted(*args):
        searches.append(1)
        return original(*args)

    for starts in (cold, warm, near):
        monkeypatch.setattr(distance, "_exact_line_search", counted)
        res = solve_lanes(*_lanes(world, starts), DEFAULT_INNER)
        monkeypatch.setattr(distance, "_exact_line_search", original)
        _assert_lanes_equal_scalar(world, starts, DEFAULT_INNER)
        assert res.converged.all()
        if dim == 0:
            assert not res.newton_steps.any()
    if dim:
        assert searches  # the kernel took the line-search branch
    # stopped by max_iters: some lanes end unconverged, exactly as the scalar loop does
    res = _assert_lanes_equal_scalar(world, warm, InnerSettings(max_iters=1))
    if dim:
        assert not res.converged.all()
        assert (res.newton_steps <= 1).all()
    # a tolerance below the gradient's rounding noise: lanes end by stalling
    for starts in (cold, warm):
        res = _assert_lanes_equal_scalar(world, starts, InnerSettings(grad_tol=1e-300))
        assert res.converged.all()


def test_solve_lanes_handles_empty_and_single_lanes():
    rng = np.random.default_rng(3)
    for kinds in KIND_PAIRS:
        pair = place_pair(*random_pair(kinds, rng))
        _assert_lanes_equal_scalar([pair], [None], DEFAULT_INNER)
        dim = pair[0].num_params + pair[1].num_params
        res = solve_lanes(
            np.zeros((0, 3)), np.zeros((0, pair[0].num_params, 3)),
            np.zeros((0, 3)), np.zeros((0, pair[1].num_params, 3)),
            np.zeros((0, dim)),
        )
        assert res.t_star.shape == (0, dim) and res.d_sq.shape == (0,)


def test_solve_lanes_reports_non_finite_lanes_as_failed():
    rng = np.random.default_rng(4)
    for kinds in KIND_PAIRS:
        world = [place_pair(*random_pair(kinds, rng)) for _ in range(3)]
        a, va, b, vb, starts = _lanes(world, [None] * 3)
        a[1, 0] = math.nan
        bad = [1]
        if va.shape[1]:
            va[2, 0, 0] = math.inf
            bad.append(2)
        res = solve_lanes(a, va, b, vb, starts)
        ok = res.converged & np.isfinite(res.d_sq)
        assert ok.tolist() == [k not in bad for k in range(3)]


# -- the planner's collision term against the per-lane scalar loop ------------


def _reference_collision_penalty(scene, states, placement, kept, warm, acc):
    """The collision term as one solve_inner call per kept (step, pair), in (step, pair) order.

    `warm` maps (step, (a, b)) to a lane's start; the returned new_warm maps
    every solved lane to its t*.
    """
    w_ca = scene.objectives.w_collision
    refs = scene.primitive_refs()
    value = 0.0
    new_warm = {}
    min_clearance = math.inf
    max_violation = 0.0
    active = [[scene.candidate_pairs()[c] for c in np.flatnonzero(row)] for row in kept]
    for i, pairs in enumerate(active):
        for key in pairs:
            a, b = key
            pair = (placement.world(i, a), placement.world(i, b))
            res = solve_inner(pair, scene.inner, warm.get((i, key)))
            if not res.converged:
                raise SolveError(
                    f"inner solve failed for pair {refs[a].name}:{refs[b].name} at step {i + 1}"
                )
            new_warm[(i, key)] = res.t_star
            margin_sum = refs[a].margin + refs[b].margin
            clearance = math.sqrt(res.d_sq) - margin_sum
            min_clearance = min(min_clearance, clearance)
            m2 = margin_sum * margin_sum
            if res.d_sq >= m2:
                continue
            max_violation = max(max_violation, -clearance)
            e = res.d_sq - m2
            value += w_ca * e * e
            if acc.need_derivs:
                frames = placement.step_frames(i)
                ja = _ref_jacobian(scene, states[i], refs[a], frames, pair[0].num_params)
                jb = _ref_jacobian(scene, states[i], refs[b], frames, pair[1].num_params)
                ders = pair_derivatives(pair, (ja, jb), res, scene.inner)
                acc.grad[i] += (2.0 * w_ca * e) * ders.grad_x
                acc.add_block(i, (2.0 * w_ca) * np.outer(ders.grad_x, ders.grad_x))
    return value, new_warm, min_clearance, max_violation


def _reference_evaluate(scene, states, warm, need_derivs, slack):
    placement = place_states(scene, states)
    kept = broad_phase_rows(scene, placement, slack)
    acc = _Accumulator(len(states), states.shape[1], need_derivs)
    value = _smoothness(states, scene.h, scene.objectives.w_smooth, acc)
    value += _goal_terms(scene, states, placement, acc)
    lim_value, lim_worst = _limit_penalty(scene, states, acc)
    value += lim_value
    col = _reference_collision_penalty(scene, states, placement, kept, warm, acc)
    value += col[0]
    return value, acc, col[1], col[2], max(col[3], lim_worst), kept


def _lane_starts(scene, lanes):
    """The t of every lane of `lanes` (after an evaluation, its t*), keyed (step, (a, b))."""
    pairs = scene.candidate_pairs()
    return {
        (int(lanes.step[k]), pairs[lanes.slot[k]]): group.t[row]
        for group in lanes.groups
        for row, k in enumerate(group.lanes.tolist())
    }


def _store_of(scene, warm):
    """The warm-start store that holds the starts of the tuple-keyed map `warm`, and 0.5 everywhere else."""
    store = np.full((scene.num_steps, len(scene.candidate_pairs()), 6), 0.5)
    for (i, pair), start in warm.items():
        store[i, scene.candidate_pairs().index(pair), : len(start)] = start
    return store


def _assert_close(got, ref, rel=1e-10):
    """|got − ref| <= rel · max|ref|, entry by entry."""
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= rel * np.abs(ref).max(initial=0.0)


@pytest.mark.parametrize("name,iters", [("arm7_box", 6), ("two_box_swap", 4), ("two_sphere_swap", 4)])
def test_evaluate_equals_per_lane_reference_through_a_solve(name, iters, monkeypatch):
    # Every _evaluate call of a short solve, including those that reuse the
    # accepted trial's lanes, is checked against a fresh per-lane evaluation
    # from a tuple-keyed warm-start map. The map takes a derivative
    # evaluation's t* after it, and a trial's t* only once the trial is
    # accepted (its lanes are the next evaluation's); at every evaluation the
    # solver's store must hold exactly the map's starts, and 0.5 elsewhere,
    # so a rejected trial's t* never reaches it.
    scene = load_scene(scene_text(name))
    scene.outer.max_outer_iters = iters
    slack = scene.outer.broad_phase_slack
    original, original_cold = trajopt._evaluate, trajopt._cold_starts
    stores = []
    warm = {}
    last_trial = [None, None]  # the latest value-only evaluation's lanes and t*
    seen = {"derivs": 0, "handed": 0, "trials": 0, "accepted": 0}

    def cold(scene, num_steps):
        stores.append(original_cold(scene, num_steps))
        return stores[-1]

    def checked(scene, states, lanes, need_derivs):
        handed = lanes is last_trial[0]
        if handed:  # the trial was accepted
            warm.update(last_trial[1])
            seen["accepted"] += 1
        assert len(stores) == 1 and np.array_equal(stores[0], _store_of(scene, warm))
        ref = _reference_evaluate(scene, states, dict(warm), need_derivs, slack)
        got = original(scene, states, lanes, need_derivs)
        assert got[0] == ref[0]
        if need_derivs:
            _assert_close(got[1].grad, ref[1].grad)
            _assert_close(got[1].band, ref[1].band)
            seen["derivs"] += 1
            seen["handed"] += handed
        got_starts = _lane_starts(scene, lanes)
        assert got_starts.keys() == ref[2].keys()
        assert all(np.array_equal(got_starts[key], ref[2][key]) for key in ref[2])
        assert got[2:] == ref[3:5]
        step, slot = np.nonzero(ref[5])
        assert np.array_equal(lanes.step, step) and np.array_equal(lanes.slot, slot)
        if need_derivs:
            warm.update(ref[2])
        else:
            last_trial[:] = lanes, ref[2]
            seen["trials"] += 1
        return got

    monkeypatch.setattr(trajopt, "_cold_starts", cold)
    monkeypatch.setattr(trajopt, "_evaluate", checked)
    _, report = solve(scene)
    assert report.num_iterations == iters or report.converged
    # every derivative evaluation after the first reuses the accepted trial's lanes
    assert seen["derivs"] >= 2 and seen["handed"] == seen["derivs"] - 1
    # some trials were rejected (the final evaluation is value-only too, and no trial)
    assert seen["trials"] - 1 - seen["accepted"] > 0


def test_failed_lane_raises_for_the_first_lane_in_step_pair_order():
    scene = load_scene(scene_text("two_box_swap"))
    scene = dataclasses.replace(scene, inner=InnerSettings(max_iters=1))
    states = trajopt.default_trajectory(scene).states
    slack = scene.outer.broad_phase_slack
    with pytest.raises(SolveError) as ref:
        _reference_evaluate(scene, states, {}, False, slack)
    lanes = trajopt._lanes_at(scene, states, slack, trajopt._cold_starts(scene, len(states)))
    with pytest.raises(SolveError) as got:
        trajopt._evaluate(scene, states, lanes, False)
    assert str(got.value) == str(ref.value)


# -- the adjoint lane gradient -------------------------------------------------


def _hit_kinds(scene, states, active):
    """(kind, La, Lb) of every lane whose penalty is active; kind is self, cross or obstacle."""
    refs = scene.primitive_refs()
    placement = place_states(scene, states)
    kinds = set()
    for i, pairs in enumerate(active):
        for a, b in pairs:
            res = solve_inner((placement.world(i, a), placement.world(i, b)), scene.inner)
            margin_sum = refs[a].margin + refs[b].margin
            if res.d_sq < margin_sum * margin_sum:
                ra, rb = refs[a], refs[b]
                kind = "obstacle" if rb.owner is None else ("self" if ra.owner == rb.owner else "cross")
                kinds.add((kind, ra.num_params, rb.num_params))
    return kinds


def test_collision_gradient_equals_the_pair_derivatives_reference():
    # self, cross-robot and obstacle lanes, with every L from 0 to 3 on a side;
    # every candidate pair at every step is a lane
    kinds = set()
    for name, seed in (("branching", 21), ("two_robots", 18), ("two_robots", 26)):
        num_steps = 40
        scene = SCENES[name](num_steps)
        states = _random_states(scene, seed, num_steps)
        active = [list(scene.candidate_pairs()) for _ in range(num_steps)]
        kept = np.ones((num_steps, len(scene.candidate_pairs())), dtype=bool)
        kinds |= _hit_kinds(scene, states, active)
        cold = trajopt._cold_starts(scene, num_steps)
        lanes = trajopt._pack_lanes(scene, place_states(scene, states), kept, cold)
        acc = _Accumulator(num_steps, states.shape[1], True)
        got = trajopt._collision_penalty(scene, states, lanes, acc)
        ref_acc = _Accumulator(num_steps, states.shape[1], True)
        ref = _reference_collision_penalty(scene, states, place_states(scene, states), kept, {}, ref_acc)
        assert got[0] == ref[0] and got[0] > 0.0
        assert got[1:] == ref[2:]
        _assert_close(acc.grad, ref_acc.grad)
        _assert_close(acc.band, ref_acc.band)
    assert {kind for kind, _, _ in kinds} == {"self", "cross", "obstacle"}
    assert {la for _, la, _ in kinds} | {lb for _, _, lb in kinds} == {0, 1, 2, 3}


def test_collision_penalty_gradient_matches_finite_differences():
    # two robots with non-zero base Euler angles and an active cross-robot pair
    walk = SCENES["two_robots"](40)
    scene = dataclasses.replace(walk, num_steps=1, inner=InnerSettings(grad_tol=1e-13, max_iters=80))
    pairs = list(scene.candidate_pairs())
    row = next(
        r
        for r in _random_states(walk, 18, 40)
        if any(kind == "cross" for kind, _, _ in _hit_kinds(scene, r[None], [pairs]))
    )
    for off in scene.robot_offsets:
        assert np.abs(row[off + 3 : off + 6]).min() > 1e-3
    traj = trajopt.Trajectory(row[None], scene.h)
    value, grad, hess = trajopt.collision_penalty(traj, scene, [pairs])
    assert value > 0.0 and np.allclose(hess, hess.T)
    eps = 1e-6
    fd = np.empty_like(grad)
    for k in range(len(row)):
        up, down = row.copy(), row.copy()
        up[k] += eps
        down[k] -= eps
        f_up = trajopt.collision_penalty(trajopt.Trajectory(up[None], scene.h), scene, [pairs])[0]
        f_down = trajopt.collision_penalty(trajopt.Trajectory(down[None], scene.h), scene, [pairs])[0]
        fd[k] = (f_up - f_down) / (2 * eps)
    assert np.abs(grad - fd).max() <= 1e-5 * np.abs(fd).max()


def test_solve_computes_no_dt_dx_placement_jacobian_or_pair_hessian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called inside solve")

    for module, name in (
        (trajopt, "pair_derivatives"),
        (trajopt, "robot_placement_jacobian"),
        (sensitivity, "pair_derivatives"),
        (sensitivity, "sensitivity_matrix"),
        (sensitivity, "distance_hessian"),
        (kinematics, "robot_placement_jacobian"),
        (primitives.PlacementJacobian, "embed"),
    ):
        monkeypatch.setattr(module, name, refuse)
    scene = load_scene(scene_text("arm7_box"))
    _, report = solve(scene)
    assert report.converged
    # some derivative evaluations had penetrating (hit) lanes, so collision gradients were taken
    assert any(stats.min_clearance < 0.0 for stats in report.iterations)
