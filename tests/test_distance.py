import math

import numpy as np
import pytest

from proxopt.distance import (
    DEFAULT_INNER,
    InnerSettings,
    barrier_minus,
    barrier_plus,
    brute_force_distance,
    certified_distance,
    eval_D,
    eval_R,
    eval_U,
    solve_inner,
)
from proxopt.pairs import KIND_PAIRS, near_parallel_capsules, place_pair, random_pair
from proxopt.poses import Pose
from proxopt.primitives import Kind, Primitive, WorldPrimitive, place
from conftest import exact_distance


def _sphere(center, radius=0.1):
    return place(Primitive(Kind.SPHERE, center, margin=radius), Pose.identity())


def _capsule(anchor, vector, radius=0.1):
    return place(Primitive(Kind.CAPSULE, anchor, [vector], margin=radius), Pose.identity())


CROSSING = (_capsule([0, 0, 0], [2, 0, 0]), _capsule([1, -1, 1], [0, 2, 0]))


def test_eval_D_simple_cases():
    pair = (_sphere([0, 0, 0]), _sphere([3, 0, 0]))
    assert eval_D(pair, np.zeros(0)) == 9.0
    pair = (_sphere([1, 2, 3]), _sphere([1, 2, 3]))
    assert eval_D(pair, np.zeros(0)) == 0.0
    # perpendicular crossing capsules with a unit z gap
    assert np.isclose(eval_D(CROSSING, np.array([0.5, 0.5])), 1.0)


def test_barriers():
    assert barrier_plus(0.5, 1.0) == 0.0
    assert np.isclose(barrier_plus(1.2, 1.0), 0.04)
    assert np.isclose(barrier_minus(-0.1, 0.0), 0.01)
    assert barrier_minus(0.3, 0.0) == 0.0


def test_regularizer():
    assert eval_R(np.array([0.5, 0.5])) == 0.0
    assert np.isclose(eval_R(np.array([0.0, 1.0])), 0.5)
    assert eval_R(np.zeros(0)) == 0.0


def test_eval_U_sphere_pair_reduces_to_D():
    pair = (_sphere([0, 0, 0]), _sphere([3, 0, 0]))
    value, grad, hess = eval_U(pair, np.zeros(0))
    assert value == 9.0
    assert grad.shape == (0,) and hess.shape == (0, 0)


def test_eval_U_gradient_matches_fd():
    rng = np.random.default_rng(10)
    eps = 1e-6
    worst = 0.0
    for kinds in KIND_PAIRS:
        for _ in range(5):
            pair, x = random_pair(kinds, rng)
            world = place_pair(pair, x)
            dim = world[0].num_params + world[1].num_params
            t = rng.uniform(-0.2, 1.2, dim)
            _, grad, _ = eval_U(world, t)
            for l in range(dim):
                tp, tm = t.copy(), t.copy()
                tp[l] += eps
                tm[l] -= eps
                fd = (eval_U(world, tp)[0] - eval_U(world, tm)[0]) / (2 * eps)
                worst = max(worst, abs(grad[l] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-7


def test_eval_U_hessian_is_positive_definite():
    rng = np.random.default_rng(11)
    count = 0
    while count < 10_000:
        kinds = KIND_PAIRS[count % len(KIND_PAIRS)]
        pair, x = random_pair(kinds, rng)
        world = place_pair(pair, x)
        dim = world[0].num_params + world[1].num_params
        t = rng.uniform(-0.3, 1.3, dim)
        _, _, hess = eval_U(world, t)
        np.linalg.cholesky(hess + 0.0)  # raises if not PD
        count += 1
    # near-parallel capsules stay PD thanks to the regularizer
    for _ in range(100):
        a, b = near_parallel_capsules(rng)
        _, _, hess = eval_U((a, b), rng.uniform(0, 1, 2))
        np.linalg.cholesky(hess)


def test_solve_inner_parallel_capsules():
    a = _capsule([0, 0, 0], [1, 0, 0])
    b = _capsule([0, 0, 1], [1, 0, 0])
    res = solve_inner((a, b))
    assert res.converged
    assert np.allclose(res.t_star, [0.5, 0.5], atol=1e-6)
    assert np.isclose(res.d_sq, 1.0, atol=1e-6)


def test_solve_inner_sphere_pair_takes_zero_steps():
    res = solve_inner((_sphere([0, 0, 0]), _sphere([3, 0, 0])))
    assert res.converged and res.newton_steps == 0
    assert res.d_sq == 9.0


def test_solve_inner_soft_constraint_overshoot():
    # Unregularized box-constrained optimum is t=(1, 0.5) with D=1; the soft
    # solve lets t1 exceed 1 slightly, bringing D slightly below 1.
    sphere = _sphere([3, 1, 0], 0.1)
    rect = place(
        Primitive(Kind.RECTANGLE, np.zeros(3), [[2.0, 0, 0], [0, 2.0, 0]], margin=0.0),
        Pose.identity(),
    )
    res = solve_inner((rect, sphere))
    assert res.converged
    assert 1.0 < res.t_star[0] < 1.001
    assert np.isclose(res.t_star[1], 0.5, atol=1e-4)
    assert 0.99 < res.d_sq < 1.0


def test_solve_inner_t_star_stays_near_box():
    rng = np.random.default_rng(12)
    for kinds in KIND_PAIRS:
        for _ in range(50):
            pair, x = random_pair(kinds, rng)
            res = solve_inner(place_pair(pair, x))
            assert res.converged
            assert np.all(res.t_star >= -0.05) and np.all(res.t_star <= 1.05)


def test_solve_inner_warm_start_validation():
    with pytest.raises(ValueError):
        solve_inner(CROSSING, warm_start=np.zeros(5))


def test_inner_settings_validation():
    with pytest.raises(ValueError):
        InnerSettings(w_reg=0.0)
    with pytest.raises(ValueError):
        InnerSettings(max_iters=0)


def test_brute_force_simple_cases():
    pair = (_sphere([0, 0, 0]), _sphere([3, 0, 0]))
    for resolution in (2, 8, 33):
        assert np.isclose(brute_force_distance(pair, resolution), 9.0)
    assert np.isclose(brute_force_distance(CROSSING, 64, passes=2), 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        brute_force_distance(CROSSING, 1)


def test_brute_force_self_consistency():
    # refined coarse grids agree with finer grids (the integrand is convex in t)
    rng = np.random.default_rng(13)
    for _ in range(10):
        pair, x = random_pair((Kind.CAPSULE, Kind.CAPSULE), rng)
        world = place_pair(pair, x)
        lo = brute_force_distance(world, 128, passes=2)
        hi = brute_force_distance(world, 256, passes=2)
        assert abs(lo - hi) < 1e-6
    for _ in range(5):
        pair, x = random_pair((Kind.BOX, Kind.BOX), rng)
        world = place_pair(pair, x)
        lo = brute_force_distance(world, 8, passes=7)
        hi = brute_force_distance(world, 12, passes=7)
        assert abs(lo - hi) < 1e-6


def test_solver_matches_oracle():
    rng = np.random.default_rng(14)
    res_by_dim = {0: 2, 1: 512, 2: 128, 3: 24, 4: 16, 5: 12, 6: 10}
    for kinds in KIND_PAIRS:
        for _ in range(20):
            pair, x = random_pair(kinds, rng)
            world = place_pair(pair, x)
            dim = world[0].num_params + world[1].num_params
            exact = exact_distance(world)
            # every grid sample is an exact evaluation, so the grid search can
            # only overestimate the true minimum
            grid = np.sqrt(brute_force_distance(world, res_by_dim[dim], passes=6))
            assert exact <= grid + 1e-9
            res = solve_inner(world)
            if exact >= 0.01:
                # soft constraints let t overshoot the box in proportion to the
                # separation, hence the scale-aware tolerance
                assert abs(np.sqrt(res.d_sq) - exact) < 1e-3 * (1.0 + exact)
            else:
                # near contact the sqrt is ill conditioned; compare squares
                assert abs(res.d_sq - exact * exact) < 1e-3


def test_solve_inner_reaches_reference_stationary_point():
    # The loop runs on Python floats; the numpy reference gradient at its
    # answer must still vanish, from cold starts and from warm starts whose
    # every coordinate lies outside the unit box.
    rng = np.random.default_rng(15)
    worst = 0.0
    for kinds in KIND_PAIRS:
        for _ in range(300):
            pair, x = random_pair(kinds, rng)
            world = place_pair(pair, x)
            dim = world[0].num_params + world[1].num_params
            below = rng.random(dim) < 0.5
            outside = np.where(below, -rng.uniform(0.05, 1.0, dim), rng.uniform(1.05, 2.0, dim))
            for warm in (None, outside):
                res = solve_inner(world, warm_start=warm)
                assert res.converged
                _, grad, _ = eval_U(world, res.t_star)
                worst = max(worst, float(np.linalg.norm(grad)))
    assert worst <= DEFAULT_INNER.grad_tol


def test_certified_distance_brackets_exact_distance():
    rng = np.random.default_rng(16)
    for kinds in KIND_PAIRS:
        for _ in range(100):
            pair, x = random_pair(kinds, rng)
            world = place_pair(pair, x)
            exact_sq = exact_distance(world) ** 2
            lower_sq, upper_sq = certified_distance(world)
            assert lower_sq <= exact_sq + 1e-12
            assert upper_sq >= exact_sq - 1e-12
            assert upper_sq - lower_sq <= 1e-9


def test_certified_distance_holds_without_inner_convergence():
    # the gap bound holds at any feasible point, so a one-step inner solve that
    # stops far from the minimizer still gives sound (if looser) bounds
    rng = np.random.default_rng(17)
    one_step = InnerSettings(max_iters=1)
    not_converged = open_gaps = 0
    for kinds in KIND_PAIRS:
        for _ in range(50):
            pair, x = random_pair(kinds, rng)
            world = place_pair(pair, x)
            not_converged += not solve_inner(world, one_step).converged
            exact_sq = exact_distance(world) ** 2
            lower_sq, upper_sq = certified_distance(world, one_step)
            assert 0.0 <= lower_sq <= exact_sq + 1e-12
            assert upper_sq >= exact_sq - 1e-12
            open_gaps += upper_sq - lower_sq > 1e-9
    assert not_converged > 0
    # the active-set polish closes the gap from most one-step starts (5 of
    # these 500 stay open; 60 if released coordinates leave the wrong way)
    assert open_gaps <= 10


@pytest.mark.parametrize("dim_a", [0, 1, 2, 3])
def test_certified_distance_of_a_non_finite_pair_is_a_collision(dim_a):
    rng = np.random.default_rng(dim_a)
    other = WorldPrimitive(np.zeros(3), rng.normal(size=(1, 3)), 0.1)
    vectors = rng.normal(size=(dim_a, 3))
    for bad in (np.nan, np.inf, -np.inf):
        anchor = np.array([bad, 0.0, 0.0])
        assert certified_distance((WorldPrimitive(anchor, vectors, 0.1), other)) == (0.0, math.inf)
        assert certified_distance((other, WorldPrimitive(anchor, vectors, 0.1))) == (0.0, math.inf)
        if dim_a:
            spoiled = vectors.copy()
            spoiled[-1, 1] = bad
            assert certified_distance((WorldPrimitive(np.zeros(3), spoiled, 0.1), other)) == (0.0, math.inf)
    sphere = WorldPrimitive(np.array([np.nan, 0.0, 0.0]), np.zeros((0, 3)), 0.1)
    assert certified_distance((sphere, WorldPrimitive(np.zeros(3), np.zeros((0, 3)), 0.1))) == (0.0, math.inf)


def test_certified_distance_of_an_overflowing_pair_is_a_collision():
    # every coordinate is finite, but the squared distance overflows
    box = WorldPrimitive(np.array([1e200, 0.0, 0.0]), np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]]), 0.1)
    sphere = WorldPrimitive(np.zeros(3), np.zeros((0, 3)), 0.1)
    assert certified_distance((box, sphere)) == (0.0, math.inf)
    assert certified_distance((sphere, box)) == (0.0, math.inf)
