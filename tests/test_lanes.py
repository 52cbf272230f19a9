"""The lane kernel against the scalar inner solver it replaces in the planner.

`solve_lanes` solves many pairs of one (La, Lb) shape at once and must give
every lane exactly what `solve_inner` gives that pair: the same t*, d_sq,
closest points, step count and convergence flag, to the bit. The planner
solves all (step, pair) lanes of a placed state with it when it builds them,
and `validate` certifies every (step, pair) on cold lanes, which must match
the per-pair loop over `certified_distance` to the bit. Both certify through
`certify_lanes`, which must give every lane, alone or in a group, exactly
the bounds of the scalar certification it replaced, kept below as its
reference. The reference for the planner is the per-lane loop over `solve_inner` and
`pair_derivatives` that the planner ran before, and `_evaluate` must match it
through a solve, including the derivative evaluations, which solve nothing
and read the lanes of the accepted line-search trial: bitwise in everything
but the gradient and the Hessian band. Its warm starts come from a
tuple-keyed map updated where the planner keeps t* (after the start and
after an accepted trial), which the planner's warm-start store must mirror
entry for entry; its derivative evaluations solve the lanes again, warm from
the kept t*. The gradient and band
come from the adjoint `_lane_gradient`, which is mathematically equal to the
reference's `dt/dx` chain but rounds differently, so they must agree to
1e-10 of their largest entry. A line-search trial whose cheap terms, or
cheap terms plus collision floor, already fail the Armijo bound skips
`_evaluate`; its full reference value must fail the bound too, and on every
trial that reaches its lanes the floor is at most the collision term.
"""

import dataclasses
import math

import numpy as np
import pytest

from proxopt import distance, kinematics, primitives, sensitivity, trajopt
from proxopt.distance import DEFAULT_INNER, InnerSettings, solve_inner, solve_lanes
from proxopt.gradcheck import _ref_jacobian
from proxopt.pairs import KIND_PAIRS, place_pair, random_pair
from proxopt.primitives import Kind, WorldPrimitive
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
from conftest import scene_text, solved_lanes
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


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_lane_objective_is_eval_U_and_bounds_the_solved_d_sq(kinds):
    # at starts inside and outside the unit box, U matches eval_U's value to
    # rounding, and no lane solved from a start ends with d_sq above U there
    rng = np.random.default_rng([11, KIND_PAIRS.index(kinds)])
    world = [place_pair(*random_pair(kinds, rng)) for _ in range(60)]
    dim = world[0][0].num_params + world[0][1].num_params
    starts = [rng.uniform(-1.0, 2.0, dim) for _ in world]
    args = _lanes(world, starts)
    u = distance.lane_objective(*args)
    ref = np.array([distance.eval_U(pair, start)[0] for pair, start in zip(world, starts)])
    assert np.allclose(u, ref, rtol=1e-12, atol=0.0)
    assert (solve_lanes(*args).d_sq <= u * (1.0 + 1e-9)).all()


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
    value += _goal_terms(scene, states, acc)
    lim_value, lim_worst = _limit_penalty(scene, states, acc)
    value += lim_value
    col = _reference_collision_penalty(scene, states, placement, kept, warm, acc)
    value += col[0]
    return value, acc, col[1], col[2], max(col[3], lim_worst), kept


def _lane_starts(scene, lanes):
    """The t* of every lane of `lanes`, keyed (step, (a, b))."""
    pairs = scene.candidate_pairs()
    refs = scene.primitive_refs()
    keys = [pairs[c] for c in lanes.slot.tolist()]
    return {
        (int(i), (a, b)): lanes.t[k, : refs[a].num_params + refs[b].num_params]
        for k, (i, (a, b)) in enumerate(zip(lanes.step, keys))
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
    # Every _evaluate call of a short solve, including the derivative
    # evaluations that read the accepted trial's lanes, is checked against a
    # fresh per-lane evaluation from a tuple-keyed warm-start map. The map
    # takes a trial's t* only once the trial is accepted (its lanes are the
    # next evaluation's; the start is a trial too); at every evaluation the
    # solver's store must hold exactly the map's starts, and 0.5 elsewhere,
    # so a rejected trial's t* never reaches it. A derivative evaluation's
    # reference solves its lanes again, warm from the kept t*, and must give
    # the trial's solutions. A trial rejected on its cheap terms or on its
    # collision floor never reaches _evaluate; its full reference value must
    # fail the same Armijo bound.
    scene = load_scene(scene_text(name))
    scene.outer.max_outer_iters = iters
    slack = scene.outer.broad_phase_slack
    original, original_cold = trajopt._evaluate, trajopt._cold_starts
    original_trial = trajopt._line_search_trial
    stores = []
    warm = {}
    last_trial = [None, None]  # the latest value-only evaluation's lanes and t*
    seen = {"derivs": 0, "handed": 0, "trials": 0, "cheap": 0, "bound": 0}

    def cold(scene, num_steps):
        stores.append(original_cold(scene, num_steps))
        return stores[-1]

    def trial(scene, states, bound, slack, warm_store):
        value, lanes, rejected = original_trial(scene, states, bound, slack, warm_store)
        assert (lanes is None) == (rejected is not None)
        if lanes is None:
            assert value > bound
            assert not _reference_evaluate(scene, states, dict(warm), False, slack)[0] <= bound
            seen[rejected] += 1
        return value, lanes, rejected

    def checked(scene, states, lanes, need_derivs, cheap=None):
        handed = lanes is last_trial[0]
        if handed:  # the trial was accepted
            warm.update(last_trial[1])
        assert len(stores) == 1 and np.array_equal(stores[0], _store_of(scene, warm))
        ref = _reference_evaluate(scene, states, dict(warm), need_derivs, slack)
        got = original(scene, states, lanes, need_derivs, cheap)
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
        if not need_derivs:
            last_trial[:] = lanes, ref[2]
            seen["trials"] += 1
        return got

    monkeypatch.setattr(trajopt, "_cold_starts", cold)
    monkeypatch.setattr(trajopt, "_evaluate", checked)
    monkeypatch.setattr(trajopt, "_line_search_trial", trial)
    _, report = solve(scene)
    assert report.num_iterations == iters or report.converged
    # every derivative evaluation reads the accepted trial's lanes
    assert seen["derivs"] >= 2 and seen["handed"] == seen["derivs"]
    # some trials were rejected, on their cheap terms, on their collision
    # floor or after their lanes (the start is value-only too, and no
    # line-search trial)
    accepted = sum(stats.alpha > 0.0 for stats in report.iterations)
    assert seen["trials"] - 1 - accepted + seen["cheap"] + seen["bound"] > 0
    assert seen["cheap"] == sum(stats.cheap_rejects for stats in report.iterations)
    assert seen["bound"] == sum(stats.bound_rejects for stats in report.iterations)


@pytest.mark.parametrize("name", ["two_sphere_swap", "two_box_swap", "arm7_box"])
def test_the_collision_floor_is_a_lower_bound_on_every_trial(name, monkeypatch):
    # Through a whole solve, every trial that passes its cheap terms is also
    # placed, culled, solved and evaluated in full from a copy of the same
    # warm-start store. A trial rejected on its floor must fail the same
    # Armijo bound in full; on a trial that reaches its lanes, the floor must
    # be at or below the collision term (on two_sphere_swap every lane is a
    # sphere lane, where the floor's U(t0) and the kernel's d_sq are equal
    # in exact arithmetic).
    scene = load_scene(scene_text(name))
    slack = scene.outer.broad_phase_slack
    original = trajopt._line_search_trial
    seen = {"bound": 0, "tight": 0}

    def trial(scene, states, bound, slack, warm):
        no_derivs = _Accumulator(len(states), states.shape[1], False)
        cheap = trajopt._cheap_terms(scene, states, no_derivs)
        got = original(scene, states, bound, slack, warm)
        if got[2] == "cheap":
            return got
        placement = place_states(scene, states)
        kept = broad_phase_rows(scene, placement, slack)
        gathered = trajopt._KeptLanes(scene, placement, kept, warm)
        floor = trajopt._collision_floor(scene, gathered)
        lanes = trajopt._pack_lanes(scene, gathered)
        collision = trajopt._collision_penalty(scene, states, lanes, no_derivs)[0]
        full = trajopt._evaluate(scene, states, lanes, False, cheap)[0]
        if got[2] == "bound":
            assert got[0] == cheap[0] + floor > bound
            assert full > bound
            seen["bound"] += 1
        else:
            assert got[0] == full and 0.0 <= floor <= collision
            seen["tight"] += floor > 0.0
        return got

    monkeypatch.setattr(trajopt, "_line_search_trial", trial)
    _, report = solve(scene)
    assert seen["bound"] == sum(stats.bound_rejects for stats in report.iterations) > 0
    assert seen["tight"] > 0  # the floor ≤ collision check saw a positive floor


def test_a_non_finite_trial_is_not_rejected_on_its_collision_floor():
    # two_sphere_swap's default trajectory drives the spheres through each
    # other, so its collision floor alone rejects it against a bound at its
    # cheap terms. Without the smoothness term the cheap terms read only the
    # last step, so a NaN coordinate in a step where the spheres collide
    # leaves them finite and makes only the floor NaN: the trial is not
    # rejected on it, reaches its lanes and raises SolveError there.
    scene = load_scene(scene_text("two_sphere_swap"))
    scene.objectives.w_smooth = 0.0
    states = trajopt.default_trajectory(scene).states
    slack = scene.outer.broad_phase_slack
    warm = trajopt._cold_starts(scene, len(states))
    cheap = trajopt._cheap_terms(scene, states, _Accumulator(len(states), states.shape[1], False))[0]
    value, lanes, rejected = trajopt._line_search_trial(scene, states, cheap, slack, warm)
    assert rejected == "bound" and lanes is None and value > cheap
    step = int(np.argmax(np.abs(states[:, 0] - states[:, scene.robot_offsets[1]]) < 0.1))
    states[step, 0] = math.nan
    assert trajopt._cheap_terms(scene, states, _Accumulator(len(states), states.shape[1], False))[0] == cheap
    with pytest.raises(SolveError, match=f"at step {step + 1}$"):
        trajopt._line_search_trial(scene, states, cheap, slack, warm)


def test_failed_lane_raises_for_the_first_lane_in_step_pair_order():
    scene = load_scene(scene_text("two_box_swap"))
    scene = dataclasses.replace(scene, inner=InnerSettings(max_iters=1))
    states = trajopt.default_trajectory(scene).states
    slack = scene.outer.broad_phase_slack
    with pytest.raises(SolveError) as ref:
        _reference_evaluate(scene, states, {}, False, slack)
    # building the lanes keeps a failed lane, marked unsolved; the collision
    # term, which every evaluation and collision_penalty run, raises for it
    lanes = solved_lanes(scene, states)
    assert not lanes.solved.all()
    with pytest.raises(SolveError) as got:
        trajopt._collision_penalty(scene, states, lanes, _Accumulator(len(states), states.shape[1], False))
    assert str(got.value) == str(ref.value)


# -- certify_lanes against the scalar certification it replaced ---------------


def _certify_reference(base, rows, t_soft):
    """The scalar certification that certify_lanes replaced, kept unchanged as its reference: one lane.

    base is a pair's anchor difference, rows its signed vectors (a's, then b's
    negated) and t_soft a soft minimizer (unread if L = 0 or a coordinate is
    not finite). Returns (lower_sq, upper_sq) as Python floats.
    """
    jt = rows.T  # (3, L): columns +v_a, -v_b
    dim = jt.shape[1]
    # A pair with a non-finite coordinate is a certified collision: (0, inf).
    if dim == 0:
        d_sq = float(base @ base)
        return (d_sq, d_sq) if math.isfinite(d_sq) else (0.0, math.inf)
    if not math.isfinite(base.sum() + jt.sum()):
        return 0.0, math.inf

    t = np.clip(t_soft, 0.0, 1.0)
    fixed = (t == 0.0) | (t == 1.0)
    for _ in range(dim + 2):
        free = ~fixed
        if free.any():
            step = np.linalg.lstsq(jt[:, free], -(base + jt @ t), rcond=None)[0]
            t_free = t[free]
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step > 0.0, (1.0 - t_free) / step, np.where(step < 0.0, -t_free / step, np.inf))
            block = int(np.argmin(room))
            if room[block] < 1.0:
                t_free += room[block] * step
                t_free[block] = 1.0 if step[block] > 0.0 else 0.0
                t[free] = np.clip(t_free, 0.0, 1.0)
                fixed[np.flatnonzero(free)[block]] = True
                continue
            t[free] = np.clip(t_free + step, 0.0, 1.0)
        grad = 2.0 * ((base + jt @ t) @ jt)
        # A coordinate fixed at 0 (1) may leave its bound if the gradient is negative (positive).
        wrong_sign = np.where(fixed, np.where(t == 0.0, -grad, grad), 0.0)
        release = int(np.argmax(wrong_sign))
        if wrong_sign[release] <= 0.0:
            break
        fixed[release] = False

    r = base + jt @ t
    upper_sq = float(r @ r)
    # A finite pair whose f(t) overflows (or whose polished t is not finite) is a collision too.
    if not math.isfinite(upper_sq):
        return 0.0, math.inf
    grad = 2.0 * (r @ jt)
    lower_sq = upper_sq + float(np.minimum(grad, 0.0).sum()) - float(grad @ t)
    return max(0.0, lower_sq), upper_sq


def _bits(lower, upper):
    """Bounds as float.hex pairs, which tell 0.0 from -0.0."""
    return [(float(lo).hex(), float(up).hex()) for lo, up in zip(lower, upper)]


def _assert_certify_equals_reference(base, rows, t_soft):
    """certify_lanes over all lanes at once, and over each lane alone, equals the reference lane by lane, to the bit."""
    got = distance.certify_lanes(base, rows, t_soft)
    assert got[0].shape == got[1].shape == (len(base),)
    ref = [_certify_reference(base[k], rows[k], t_soft[k].copy()) for k in range(len(base))]
    assert _bits(*got) == [(lo.hex(), up.hex()) for lo, up in ref]
    alone = [distance.certify_lanes(base[k : k + 1], rows[k : k + 1], t_soft[k : k + 1]) for k in range(len(base))]
    assert [pair for lo, up in alone for pair in _bits(lo, up)] == _bits(*got)
    return got


def _certify_arrays(world_pairs):
    """(base (n, 3), rows (n, L, 3)) of pairs of one (La, Lb) shape."""
    n = len(world_pairs)
    dim = world_pairs[0][0].num_params + world_pairs[0][1].num_params
    base = np.array([a.anchor - b.anchor for a, b in world_pairs]).reshape(n, 3)
    rows = np.array([np.concatenate([a.vectors, -b.vectors], axis=0) for a, b in world_pairs]).reshape(n, dim, 3)
    return base, rows


@pytest.mark.parametrize("kinds", KIND_PAIRS, ids=lambda k: f"{k[0].value}-{k[1].value}")
def test_certify_lanes_equals_the_scalar_certification_bitwise(kinds):
    # rotated random pairs, spread out and overlapping, from soft minimizers
    # of converged and one-step solves, from random points inside and
    # outside the unit box, and from coordinates exactly 0.0, -0.0 and 1.0
    rng = np.random.default_rng([23, KIND_PAIRS.index(kinds)])
    world = [place_pair(*random_pair(kinds, rng, scale)) for scale in (1.0, 0.2) for _ in range(60)]
    base, rows = _certify_arrays(world)
    n, dim = rows.shape[:2]
    edges = rng.choice(np.array([0.0, -0.0, 1.0, 0.5]), size=(n, dim))
    starts = (
        np.array([solve_inner(pair).t_star for pair in world]).reshape(n, dim),
        np.array([solve_inner(pair, InnerSettings(max_iters=1)).t_star for pair in world]).reshape(n, dim),
        rng.uniform(0.0, 1.0, (n, dim)),
        rng.uniform(-1.0, 2.0, (n, dim)),
        edges,
        np.where(rng.random((n, dim)) < 0.5, edges, rng.uniform(-0.5, 1.5, (n, dim))),
    )
    for t_soft in starts:
        lower, upper = _assert_certify_equals_reference(base, rows, t_soft)
        assert np.isfinite(upper).all()
    if dim == 0:  # a sphere pair's bounds are its squared distance
        assert np.array_equal(lower, upper)


def test_certify_lanes_of_non_finite_and_overflowing_pairs_are_collisions():
    # a lane with a NaN or infinite coordinate is (0, inf) whatever its t,
    # and so is one whose f(t) overflows (a rectangle at 1e200 spanning
    # 1e200, against a sphere), among finite lanes
    rng = np.random.default_rng(29)
    box = WorldPrimitive(np.array([1e200, 0.0, 0.0]), np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]), 0.1)
    for kinds in KIND_PAIRS:
        world = [place_pair(*random_pair(kinds, rng)) for _ in range(8)]
        base, rows = _certify_arrays(world)
        n, dim = rows.shape[:2]
        t_soft = rng.uniform(-0.5, 1.5, (n, dim))
        spoiled = [0, 3, 5]
        for k, bad in zip(spoiled, (math.nan, math.inf, -math.inf)):
            if dim and k != 0:
                rows[k, -1, 1] = bad
                t_soft[k] = math.nan  # unread
            else:
                base[k, 2] = bad
        lower, upper = _assert_certify_equals_reference(base, rows, t_soft)
        assert _bits(lower[spoiled], upper[spoiled]) == [(0.0.hex(), math.inf.hex())] * 3
        assert np.isfinite(np.delete(upper, spoiled)).all()
    sphere = WorldPrimitive(np.zeros(3), np.zeros((0, 3)), 0.1)
    for pair in ((box, sphere), (sphere, box)):
        base, rows = _certify_arrays([pair, place_pair(*random_pair((Kind.RECTANGLE, Kind.SPHERE), rng))])
        lower, upper = _assert_certify_equals_reference(base, rows, rng.uniform(0.0, 1.0, (2, 2)))
        assert (lower[0], upper[0]) == (0.0, math.inf) and math.isfinite(upper[1])
    # two spheres 1e200 apart: L = 0, and the squared distance overflows
    far = WorldPrimitive(np.array([1e200, 0.0, 0.0]), np.zeros((0, 3)), 0.1)
    base, rows = _certify_arrays([(far, sphere), (sphere, sphere)])
    lower, upper = _assert_certify_equals_reference(base, rows, np.zeros((2, 0)))
    assert _bits(lower, upper) == [(0.0.hex(), math.inf.hex()), (0.0.hex(), 0.0.hex())]


def test_certify_lanes_takes_no_lanes():
    for dim in (0, 1, 3, 6):
        lower, upper = distance.certify_lanes(np.zeros((0, 3)), np.zeros((0, dim, 3)), np.zeros((0, dim)))
        assert lower.shape == upper.shape == (0,)


def test_certify_lanes_with_a_nan_soft_minimizer_on_a_finite_pair_follows_the_reference():
    # a NaN t on a finite pair: the same bounds as the reference, or the same exception
    rng = np.random.default_rng(31)
    for kinds in KIND_PAIRS:
        world = [place_pair(*random_pair(kinds, rng)) for _ in range(4)]
        base, rows = _certify_arrays(world)
        n, dim = rows.shape[:2]
        if dim == 0:
            continue
        t_soft = rng.uniform(0.0, 1.0, (n, dim))
        t_soft[1, 0] = math.nan
        t_soft[3] = math.nan
        try:
            ref = [_certify_reference(base[k], rows[k], t_soft[k].copy()) for k in range(n)]
        except Exception as exc:  # noqa: BLE001 - whatever the reference raises, certify_lanes must too
            with pytest.raises(type(exc)):
                distance.certify_lanes(base, rows, t_soft)
        else:
            assert _bits(*distance.certify_lanes(base, rows, t_soft)) == [(lo.hex(), up.hex()) for lo, up in ref]


@pytest.mark.parametrize("name", ["two_sphere_swap", "two_box_swap", "arm7_box"])
def test_certify_lanes_equals_the_reference_on_every_lane_of_the_scenes(name):
    # validate's groups, on the solved plan and on the default trajectory
    # after one inner Newton step (unconverged lanes), certified per group
    scene = load_scene(scene_text(name))
    solved, _ = solve(scene)
    one_step = dataclasses.replace(scene, inner=InnerSettings(max_iters=1))
    unconverged = 0
    for scene, states in ((scene, solved.states), (one_step, trajopt.default_trajectory(scene).states)):
        every_pair = np.ones((len(states), len(scene.candidate_pairs())), dtype=bool)
        kept = trajopt._KeptLanes(scene, place_states(scene, states), every_pair, trajopt._cold_starts(scene, len(states)))
        lanes = trajopt._pack_lanes(scene, kept)
        unconverged += int((~lanes.solved).sum())
        for group, la, lb, anchor_a, vectors_a, anchor_b, vectors_b in kept.groups:
            rows = np.concatenate([vectors_a, -vectors_b], axis=1)
            _assert_certify_equals_reference(anchor_a - anchor_b, rows, lanes.t[group, : la + lb])
    assert unconverged > 0 or name == "two_sphere_swap"  # sphere lanes take no Newton step


# -- validate on cold lanes against the per-pair certified_distance loop -------


def _reference_validate(scene, states):
    """validate's per-step minima and violations, as .hex() strings, from one
    cold certified_distance call per (step, pair), in (step, pair) order."""
    refs = scene.primitive_refs()
    placement = place_states(scene, states)
    per_step, violations = [], []
    for i in range(len(states)):
        step_min = math.inf
        for a, b in scene.candidate_pairs():
            lower_sq, _ = distance.certified_distance((placement.world(i, a), placement.world(i, b)), scene.inner)
            clearance = math.sqrt(lower_sq) - refs[a].margin - refs[b].margin
            if clearance < step_min or math.isnan(clearance):
                step_min = clearance
            if not clearance >= 0.0:
                violations.append((i + 1, (refs[a].name, refs[b].name), float(clearance).hex()))
        per_step.append(float(step_min).hex())
    return per_step, violations


def _assert_validate_equals_reference(scene, states):
    report = trajopt.validate(scene, trajopt.Trajectory(states, scene.h))
    per_step, violations = _reference_validate(scene, states)
    assert [float(c).hex() for c in report.min_clearance_per_step] == per_step
    assert [(v.step, v.pair, float(v.clearance).hex()) for v in report.violations] == violations
    return report


@pytest.mark.parametrize("name", ["two_sphere_swap", "two_box_swap", "arm7_box"])
def test_validate_equals_the_per_pair_certified_reference(name):
    # the default and the solved trajectory, and the default one with a NaN
    # row, whose pairs are all certified collisions
    scene = load_scene(scene_text(name))
    default = trajopt.default_trajectory(scene).states
    solved, _ = solve(scene)
    for states in (default, solved.states):
        _assert_validate_equals_reference(scene, states)
    states = default.copy()
    states[7] = math.nan
    report = _assert_validate_equals_reference(scene, states)
    assert sum(v.step == 8 for v in report.violations) == len(scene.candidate_pairs())


@pytest.mark.parametrize("name", ["two_box_swap", "arm7_box"])
def test_validate_certifies_lanes_that_do_not_converge(name):
    # after one Newton step some lanes have not converged: validate certifies
    # them from where they stopped instead of raising
    scene = dataclasses.replace(load_scene(scene_text(name)), inner=InnerSettings(max_iters=1))
    states = trajopt.default_trajectory(scene).states
    kept = np.ones((len(states), len(scene.candidate_pairs())), dtype=bool)
    lanes = trajopt._pack_lanes(
        scene, trajopt._KeptLanes(scene, place_states(scene, states), kept, trajopt._cold_starts(scene, len(states)))
    )
    assert not lanes.solved.all()
    _assert_validate_equals_reference(scene, states)


def test_validate_calls_no_solve_inner(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_inner called inside validate")

    for module in (distance, trajopt):
        monkeypatch.setattr(module, "solve_inner", refuse)
    scene = load_scene(scene_text("two_box_swap"))
    states = trajopt.default_trajectory(scene).states
    assert trajopt.validate(scene, trajopt.Trajectory(states, scene.h)).violations  # the straight-line swap collides
    placement = place_states(scene, states)
    with pytest.raises(AssertionError, match="inside validate"):  # the per-pair path would have raised
        distance.certified_distance((placement.world(0, 0), placement.world(0, 1)))
    scene = load_scene(scene_text("arm7_box"))
    trajopt.validate(scene, trajopt.default_trajectory(scene))


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
        lanes = trajopt._pack_lanes(scene, trajopt._KeptLanes(scene, place_states(scene, states), kept, cold))
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
