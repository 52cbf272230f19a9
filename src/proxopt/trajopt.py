"""Collision-free multi-robot trajectory optimization.

The outer problem stacks all robot states over N steps and minimizes goal,
smoothness, limit and collision terms with a damped Newton method plus
backtracking line search. Collision terms chain the differentiable inner
distance solve through forward kinematics; pairs are culled each iteration by
a conservative bounding-sphere broad phase and warm-started from the previous
iteration's minimizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distance import DEFAULT_INNER, InnerSettings, certified_distance, solve_inner
# Not called here: perfbench traces its grid-oracle layer through this name.
from .distance import brute_force_distance  # noqa: F401
from .kinematics import (
    RobotModel,
    RobotState,
    _coordinate_limits,
    link_frames,
    fk_jacobian,
    place_on_robot,
    robot_placement_jacobian,
)
from .primitives import PlacementJacobian, WorldPrimitive, bounding_center_radius
from .sensitivity import pair_derivatives


class SolveError(RuntimeError):
    pass


def solveh_banded(ab, b, lower=False):
    """scipy.linalg.solveh_banded, with scipy.linalg imported on first use.

    Importing scipy.linalg adds about 30 MB and 0.3 s to a process. Only the
    outer Newton step needs it, so processes that use just the distance and
    sensitivity layers never load it.
    """
    from scipy.linalg import solveh_banded as banded

    return banded(ab, b, lower=lower)


@dataclass(frozen=True)
class Obstacle:
    name: str
    world: WorldPrimitive


@dataclass(frozen=True)
class StateTarget:
    step: int  # 1-based
    robot: int
    value: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))


@dataclass(frozen=True)
class EETarget:
    step: int  # 1-based
    robot: int
    link: int
    local: np.ndarray
    target: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "local", np.asarray(self.local, dtype=float))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))


@dataclass
class Objectives:
    state_targets: list[StateTarget] = field(default_factory=list)
    ee_targets: list[EETarget] = field(default_factory=list)
    w_smooth: float = 0.1
    w_collision: float = 1e3
    w_limit: float = 1e3


@dataclass
class OuterSettings:
    max_outer_iters: int = 500
    grad_tol: float = 1e-6
    ftol: float = 1e-10
    ls_backtrack: float = 0.5
    ls_max_halvings: int = 20
    ls_sufficient_decrease: float = 1e-4
    damping_init: float = 1e-8
    damping_factor: float = 10.0
    damping_min: float = 1e-10
    damping_max: float = 1e12
    broad_phase_slack: float = 0.1


@dataclass(frozen=True)
class PrimitiveRef:
    """Identifies one primitive in the scene: either on a robot or a static obstacle."""

    owner: Optional[int]  # robot index, None for world obstacles
    index: int
    name: str
    link: Optional[int]
    margin: float


@dataclass
class Trajectory:
    states: np.ndarray  # (N, dim_total)
    h: float

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.h <= 0 or len(self.states) < 1:
            raise ValueError("trajectory requires N >= 1 and h > 0")

    @property
    def num_steps(self) -> int:
        return len(self.states)


@dataclass
class Scene:
    robots: list[RobotModel]
    initial_states: list[RobotState]
    obstacles: list[Obstacle] = field(default_factory=list)
    objectives: Objectives = field(default_factory=Objectives)
    num_steps: int = 1
    h: float = 0.1
    inner: InnerSettings = DEFAULT_INNER
    outer: OuterSettings = field(default_factory=OuterSettings)

    def __post_init__(self):
        if len(self.robots) != len(self.initial_states):
            raise ValueError("one initial state per robot required")
        for tgt in self.objectives.state_targets:
            if not (1 <= tgt.step <= self.num_steps):
                raise ValueError(f"state target step {tgt.step} outside 1..{self.num_steps}")
            if not (0 <= tgt.robot < len(self.robots)):
                raise ValueError(f"state target references unknown robot {tgt.robot}")
            if tgt.value.shape != (self.robots[tgt.robot].dim,):
                raise ValueError("state target dimension mismatch")
        for tgt in self.objectives.ee_targets:
            if not (1 <= tgt.step <= self.num_steps):
                raise ValueError(f"ee target step {tgt.step} outside 1..{self.num_steps}")
            if not (0 <= tgt.robot < len(self.robots)):
                raise ValueError(f"ee target references unknown robot {tgt.robot}")
            if not (0 <= tgt.link <= self.robots[tgt.robot].n):
                raise ValueError(f"ee target references unknown link {tgt.link}")
        # Nothing changes the robots or obstacles of a built scene, so the
        # offsets, refs and candidate pairs are computed once, here.
        self._robot_offsets = [sum(r.dim for r in self.robots[:k]) for k in range(len(self.robots))]
        refs = []
        for r, robot in enumerate(self.robots):
            for k, prim in enumerate(robot.primitives):
                name = prim.name or f"{robot.name}.{prim.attachment}.{k}"
                refs.append(PrimitiveRef(r, k, name, int(prim.attachment), prim.margin))
        for k, obs in enumerate(self.obstacles):
            refs.append(PrimitiveRef(None, k, obs.name or f"obstacle{k}", None, obs.world.margin))
        self._refs = tuple(refs)
        pairs = []
        for i in range(len(refs)):
            for j in range(i + 1, len(refs)):
                a, b = refs[i], refs[j]
                if a.owner is None and b.owner is None:
                    continue  # two static obstacles never produce a gradient
                if a.owner is not None and a.owner == b.owner:
                    la, lb = a.link, b.link
                    if la == lb:
                        continue
                    robot = self.robots[a.owner]
                    if (la > 0 and robot.link_parent(la) == lb) or (
                        lb > 0 and robot.link_parent(lb) == la
                    ):
                        continue
                pairs.append((i, j))
        self._pairs = tuple(pairs)

    @property
    def robot_offsets(self) -> list[int]:
        return self._robot_offsets

    @property
    def dim_total(self) -> int:
        return sum(robot.dim for robot in self.robots)

    def primitive_refs(self) -> tuple[PrimitiveRef, ...]:
        return self._refs

    def candidate_pairs(self) -> tuple[tuple[int, int], ...]:
        """All primitive pairs except same/adjacent links and obstacle-obstacle."""
        return self._pairs

    def robot_state(self, x_row: np.ndarray, robot: int) -> RobotState:
        off = self.robot_offsets[robot]
        return RobotState.from_vector(x_row[off : off + self.robots[robot].dim])

    def initial_row(self) -> np.ndarray:
        return np.concatenate([s.to_vector() for s in self.initial_states]) if self.robots else np.zeros(0)


def _place_step(scene: Scene, x_row: np.ndarray):
    """World primitives for every ref at one step, plus per-robot frames."""
    states = [scene.robot_state(x_row, r) for r in range(len(scene.robots))]
    frames = [link_frames(robot, state) for robot, state in zip(scene.robots, states)]
    world = []
    for ref in scene.primitive_refs():
        if ref.owner is None:
            world.append(scene.obstacles[ref.index].world)
        else:
            robot = scene.robots[ref.owner]
            world.append(place_on_robot(robot, states[ref.owner], robot.primitives[ref.index], frames[ref.owner]))
    return world, frames


def _ref_jacobian(scene: Scene, x_row, ref: PrimitiveRef, frames, num_params: int) -> PlacementJacobian:
    if ref.owner is None:
        return PlacementJacobian.zero(num_params, scene.dim_total)
    robot = scene.robots[ref.owner]
    jac = robot_placement_jacobian(
        robot, scene.robot_state(x_row, ref.owner), robot.primitives[ref.index], frames[ref.owner]
    )
    return jac.embed(scene.robot_offsets[ref.owner], scene.dim_total)


def broad_phase(scene: Scene, traj: Trajectory, step: int, slack: float) -> list[tuple[int, int]]:
    """Pairs whose bounding spheres are within `slack` of touching at a 1-based step."""
    world, _ = _place_step(scene, traj.states[step - 1])
    return broad_phase_rows(scene, world, slack)


def _bound_penalty(v: float, lo: Optional[float], hi: Optional[float]):
    """One-sided quadratic barriers toward [lo, hi]: value, d/dv, d2/dv2."""
    if hi is not None and v > hi:
        e = v - hi
        return e * e, 2.0 * e, 2.0
    if lo is not None and v < lo:
        e = v - lo
        return e * e, 2.0 * e, 2.0
    return 0.0, 0.0, 0.0


class _Accumulator:
    """Flat gradient and dense Hessian over the stacked trajectory (or value only)."""

    def __init__(self, num_steps: int, dim: int, need_derivs: bool):
        self.num_steps = num_steps
        self.dim = dim
        self.grad = np.zeros((num_steps, dim)) if need_derivs else None
        self.hess = np.zeros((num_steps * dim, num_steps * dim)) if need_derivs else None

    @property
    def need_derivs(self) -> bool:
        return self.grad is not None

    def add_block(self, step_a: int, step_b: int, block: np.ndarray):
        d = self.dim
        self.hess[step_a * d : (step_a + 1) * d, step_b * d : (step_b + 1) * d] += block


def _smoothness(states, h, w_s, acc: _Accumulator) -> float:
    n = len(states)
    if n < 3 or w_s == 0.0:
        return 0.0
    inv_h2 = 1.0 / h**2
    acc_rows = (states[2:] - 2.0 * states[1:-1] + states[:-2]) * inv_h2
    value = w_s * float((acc_rows * acc_rows).sum())
    if acc.need_derivs:
        coeffs = (inv_h2, -2.0 * inv_h2, inv_h2)  # weights of x_i, x_{i-1}, x_{i-2}
        eye = np.eye(acc.dim)
        for i in range(2, n):
            r = acc_rows[i - 2]
            for da, ca in zip((0, -1, -2), coeffs):
                acc.grad[i + da] += 2.0 * w_s * ca * r
                for db, cb in zip((0, -1, -2), coeffs):
                    acc.add_block(i + da, i + db, (2.0 * w_s * ca * cb) * eye)
    return value


def _goal_terms(scene: Scene, states, placed, acc: _Accumulator) -> float:
    value = 0.0
    offsets = scene.robot_offsets
    for tgt in scene.objectives.state_targets:
        robot = scene.robots[tgt.robot]
        off = offsets[tgt.robot]
        i = tgt.step - 1
        e = states[i, off : off + robot.dim] - tgt.value
        value += tgt.weight * float(e @ e)
        if acc.need_derivs:
            acc.grad[i, off : off + robot.dim] += 2.0 * tgt.weight * e
            block = np.zeros((acc.dim, acc.dim))
            idx = np.arange(off, off + robot.dim)
            block[idx, idx] = 2.0 * tgt.weight
            acc.add_block(i, i, block)
    for tgt in scene.objectives.ee_targets:
        robot = scene.robots[tgt.robot]
        off = offsets[tgt.robot]
        i = tgt.step - 1
        state = scene.robot_state(states[i], tgt.robot)
        frames = placed[i][1][tgt.robot]
        p = frames.origins[tgt.link] + frames.rotations[tgt.link] @ tgt.local
        e = p - tgt.target
        value += tgt.weight * float(e @ e)
        if acc.need_derivs:
            jac = fk_jacobian(robot, state, tgt.link, tgt.local, frames)
            acc.grad[i, off : off + robot.dim] += 2.0 * tgt.weight * (e @ jac)
            block = np.zeros((acc.dim, acc.dim))
            block[off : off + robot.dim, off : off + robot.dim] = 2.0 * tgt.weight * (jac.T @ jac)
            acc.add_block(i, i, block)
    return value


def _limit_penalty(scene: Scene, states, acc: _Accumulator) -> tuple[float, float]:
    """Returns (weighted value, worst raw bound violation)."""
    w = scene.objectives.w_limit
    h = scene.h
    n = len(states)
    value = 0.0
    worst = 0.0
    stencils = {
        0: ((0, 1.0),),
        1: ((0, 1.0 / h), (-1, -1.0 / h)),
        2: ((0, 1.0 / h**2), (-1, -2.0 / h**2), (-2, 1.0 / h**2)),
    }
    for r, robot in enumerate(scene.robots):
        off = scene.robot_offsets[r]
        for coord, _name, spec in _coordinate_limits(robot):
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
                    worst = max(worst, math.sqrt(phi))
                    if acc.need_derivs:
                        for d, c in stencil:
                            acc.grad[i + d, col] += w * dphi * c
                        for da, ca in stencil:
                            for db, cb in stencil:
                                blk = np.zeros((acc.dim, acc.dim))
                                blk[col, col] = w * ddphi * ca * cb
                                acc.add_block(i + da, i + db, blk)
    return value, worst


def _collision_penalty(
    scene: Scene,
    states,
    placed,
    active: list[list[tuple[int, int]]],
    warm: dict,
    acc: _Accumulator,
):
    """Soft collision penalty over all active pairs at every step.

    Returns (value, new_warm, min_clearance, max_violation). The warm-start map
    is not mutated; the caller merges new_warm once the step is accepted.
    """
    w_ca = scene.objectives.w_collision
    refs = scene.primitive_refs()
    value = 0.0
    new_warm = {}
    min_clearance = math.inf
    max_violation = 0.0
    for i, pairs in enumerate(active):
        if not pairs:
            continue
        world, frames = placed[i]
        for key in pairs:
            a, b = key
            pair = (world[a], world[b])
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
                ja = _ref_jacobian(scene, states[i], refs[a], frames, pair[0].num_params)
                jb = _ref_jacobian(scene, states[i], refs[b], frames, pair[1].num_params)
                ders = pair_derivatives(pair, (ja, jb), res, scene.inner)
                acc.grad[i] += (2.0 * w_ca * e) * ders.grad_x
                # Gauss-Newton model: e < 0 whenever the penalty is active, so
                # the curvature term e * hess_xx is negative semidefinite and
                # only degrades the Newton direction; keep the PSD part.
                block = (2.0 * w_ca) * np.outer(ders.grad_x, ders.grad_x)
                acc.add_block(i, i, block)
    return value, new_warm, min_clearance, max_violation


def smoothness_term(traj: Trajectory, w_smooth: float):
    """Acceleration penalty with the three-point stencil; quadratic, constant Hessian."""
    acc = _Accumulator(traj.num_steps, traj.states.shape[1], True)
    value = _smoothness(traj.states, traj.h, w_smooth, acc)
    return value, acc.grad.ravel(), acc.hess


def goal_terms(traj: Trajectory, scene: Scene):
    acc = _Accumulator(traj.num_steps, traj.states.shape[1], True)
    placed = [_place_step(scene, row) for row in traj.states]
    value = _goal_terms(scene, traj.states, placed, acc)
    return value, acc.grad.ravel(), acc.hess


def limit_penalty(traj: Trajectory, scene: Scene):
    acc = _Accumulator(traj.num_steps, traj.states.shape[1], True)
    value, _ = _limit_penalty(scene, traj.states, acc)
    return value, acc.grad.ravel(), acc.hess


def collision_penalty(
    traj: Trajectory,
    scene: Scene,
    active: list[list[tuple[int, int]]],
    warm: Optional[dict] = None,
):
    acc = _Accumulator(traj.num_steps, traj.states.shape[1], True)
    placed = [_place_step(scene, row) for row in traj.states]
    value, _, _, _ = _collision_penalty(scene, traj.states, placed, active, warm or {}, acc)
    return value, acc.grad.ravel(), acc.hess


def _evaluate(scene: Scene, states, warm, need_derivs: bool, slack: float):
    """Objective over the stacked trajectory.

    The broad phase is recomputed here so the value is exact regardless of how
    the states moved: culled pairs have bounding separation > slack >= 0, hence
    positive clearance and zero penalty. Freezing the pair set across a line
    search would make candidate values incomparable and can cycle.
    """
    placed = [_place_step(scene, row) for row in states]
    active = [broad_phase_rows(scene, world, slack) for world, _ in placed]
    acc = _Accumulator(len(states), states.shape[1], need_derivs)
    value = _smoothness(states, scene.h, scene.objectives.w_smooth, acc)
    value += _goal_terms(scene, states, placed, acc)
    lim_value, lim_worst = _limit_penalty(scene, states, acc)
    value += lim_value
    col_value, new_warm, min_clear, max_viol = _collision_penalty(scene, states, placed, active, warm, acc)
    value += col_value
    return value, acc, new_warm, min_clear, max(max_viol, lim_worst), active


def _to_banded(hess: np.ndarray, bandwidth: int) -> np.ndarray:
    n = hess.shape[0]
    bw = min(bandwidth, n - 1)
    ab = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        ab[bw - k, k:] = np.diagonal(hess, k)
    return ab


@dataclass
class IterationStats:
    objective: float
    grad_inf: float
    damping: float
    alpha: float
    min_clearance: float
    max_violation: float
    active_pairs: int


@dataclass
class SolveReport:
    iterations: list[IterationStats]
    converged: bool
    reason: str
    final_objective: float
    min_clearance: float

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)


def default_trajectory(scene: Scene) -> Trajectory:
    """Piecewise-linear interpolation through each robot's state targets.

    The initial state anchors step 1; segments between consecutive targets are
    linear, before/after the anchor range the state is held constant.
    """
    n = scene.num_steps
    states = np.empty((n, scene.dim_total))
    for r, robot in enumerate(scene.robots):
        off = scene.robot_offsets[r]
        anchors = {1: scene.initial_states[r].to_vector()}
        for tgt in sorted(scene.objectives.state_targets, key=lambda t: t.step):
            if tgt.robot == r:
                anchors[tgt.step] = tgt.value
        steps = sorted(anchors)
        for i in range(1, n + 1):
            if i <= steps[0]:
                row = anchors[steps[0]]
            elif i >= steps[-1]:
                row = anchors[steps[-1]]
            else:
                hi = next(s for s in steps if s >= i)
                lo = max(s for s in steps if s <= i)
                if lo == hi:
                    row = anchors[lo]
                else:
                    f = (i - lo) / (hi - lo)
                    row = (1.0 - f) * anchors[lo] + f * anchors[hi]
            states[i - 1, off : off + robot.dim] = row
    return Trajectory(states, scene.h)


def solve(
    scene: Scene,
    initial: Optional[Trajectory] = None,
    settings: Optional[OuterSettings] = None,
) -> tuple[Trajectory, SolveReport]:
    """Damped Newton with backtracking line search over the stacked trajectory.

    Every evaluation recomputes the broad-phase pair set, so the objective is
    exact and accepted steps never increase it. Damping follows a trust-region
    policy driven by the accepted step length.
    """
    s = settings or scene.outer
    traj = initial if initial is not None else default_trajectory(scene)
    states = traj.states.copy()
    if states.shape != (scene.num_steps, scene.dim_total):
        raise ValueError("initial trajectory dimensions do not match the scene")

    n_flat = states.size
    bandwidth = 3 * scene.dim_total - 1
    lam = s.damping_init
    warm: dict = {}
    history: list[IterationStats] = []
    reason = "max_iters"
    converged = False
    value = math.nan
    min_clear = math.inf

    for _ in range(s.max_outer_iters):
        value, acc, new_warm, min_clear, max_viol, active = _evaluate(
            scene, states, warm, True, s.broad_phase_slack
        )
        warm.update(new_warm)
        grad_flat = acc.grad.ravel()
        grad_inf = float(np.abs(grad_flat).max()) if n_flat else 0.0
        num_active = sum(len(p) for p in active)

        if grad_inf <= s.grad_tol:
            history.append(IterationStats(value, grad_inf, lam, 0.0, min_clear, max_viol, num_active))
            converged, reason = True, "grad_tol"
            break

        accepted = False
        alpha = 0.0
        while not accepted:
            ab = _to_banded(acc.hess, bandwidth)
            ab[-1, :] += lam
            try:
                direction = solveh_banded(ab, -grad_flat, lower=False)
            except np.linalg.LinAlgError:
                lam *= s.damping_factor
                if lam > s.damping_max:
                    history.append(IterationStats(value, grad_inf, lam, 0.0, min_clear, max_viol, num_active))
                    return Trajectory(states, scene.h), SolveReport(
                        history, False, "damping_overflow", value, min_clear
                    )
                continue
            slope = float(grad_flat @ direction)
            if slope >= 0.0:
                lam *= s.damping_factor
                if lam > s.damping_max:
                    history.append(IterationStats(value, grad_inf, lam, 0.0, min_clear, max_viol, num_active))
                    return Trajectory(states, scene.h), SolveReport(
                        history, False, "damping_overflow", value, min_clear
                    )
                continue

            alpha = 1.0
            for _ in range(s.ls_max_halvings):
                cand = states + alpha * direction.reshape(states.shape)
                cand_value, _, cand_warm, _, _, _ = _evaluate(
                    scene, cand, warm, False, s.broad_phase_slack
                )
                if cand_value <= value + s.ls_sufficient_decrease * alpha * slope:
                    states = cand
                    warm.update(cand_warm)
                    accepted = True
                    break
                alpha *= s.ls_backtrack
            if not accepted:
                lam *= s.damping_factor
                if lam > s.damping_max:
                    history.append(IterationStats(value, grad_inf, lam, 0.0, min_clear, max_viol, num_active))
                    return Trajectory(states, scene.h), SolveReport(
                        history, False, "line_search_failure", value, min_clear
                    )

        history.append(IterationStats(value, grad_inf, lam, alpha, min_clear, max_viol, num_active))
        # Trust-region style damping update: only relax when the full step was
        # good; a step accepted after heavy backtracking means the quadratic
        # model is poor, so stiffen instead.
        if alpha >= 1.0:
            lam = max(lam / s.damping_factor, s.damping_min)
        elif alpha < 0.25:
            lam = min(lam * s.damping_factor, s.damping_max)
        # Stall check on the accepted candidate value.
        value_after = cand_value
        if abs(value - value_after) <= s.ftol * max(1.0, abs(value_after)):
            converged, reason = True, "ftol"
            break

    final_value, _, _, final_clear, _, _ = _evaluate(scene, states, warm, False, s.broad_phase_slack)
    return Trajectory(states, scene.h), SolveReport(history, converged, reason, final_value, final_clear)


def broad_phase_rows(scene: Scene, world: list[WorldPrimitive], slack: float) -> list[tuple[int, int]]:
    """broad_phase on one step's placed primitives (the world list of _place_step)."""
    bounds = [bounding_center_radius(w) for w in world]
    kept = []
    for i, j in scene.candidate_pairs():
        (ci, ri), (cj, rj) = bounds[i], bounds[j]
        if np.linalg.norm(ci - cj) <= ri + rj + slack:
            kept.append((i, j))
    return kept


@dataclass
class ClearanceRecord:
    step: int  # 1-based
    pair: tuple[str, str]
    clearance: float


@dataclass
class LimitViolation:
    step: int
    robot: str
    label: str
    amount: float


@dataclass
class ValidationReport:
    min_clearance_per_step: list[float]
    violations: list[ClearanceRecord]
    limit_violations: list[LimitViolation]

    @property
    def worst_clearance(self) -> float:
        finite = [c for c in self.min_clearance_per_step if math.isfinite(c)]
        return min(finite) if finite else math.inf


def validate(scene: Scene, traj: Trajectory) -> ValidationReport:
    """Post-hoc audit: certified clearances for every pair, plus all limit values.

    Every candidate pair at every step gets certified_distance's lower bound
    on its squared distance, so each reported clearance is at or below the true
    clearance (up to rounding), whether or not the pair's inner solve converged.
    """
    from .kinematics import limit_values

    refs = scene.primitive_refs()
    per_step = []
    violations = []
    limit_viols = []
    for i in range(traj.num_steps):
        world, _ = _place_step(scene, traj.states[i])
        step_min = math.inf
        for a, b in scene.candidate_pairs():
            lower_sq, _ = certified_distance((world[a], world[b]), scene.inner)
            clearance = math.sqrt(lower_sq) - refs[a].margin - refs[b].margin
            step_min = min(step_min, clearance)
            if clearance < 0.0:
                violations.append(ClearanceRecord(i + 1, (refs[a].name, refs[b].name), clearance))
        per_step.append(step_min)
        for r, robot in enumerate(scene.robots):
            off = scene.robot_offsets[r]
            block = traj.states[:, off : off + robot.dim]
            for entry in limit_values(robot, block, traj.h, i + 1):
                over = 0.0
                if entry.upper is not None and entry.value > entry.upper:
                    over = entry.value - entry.upper
                if entry.lower is not None and entry.value < entry.lower:
                    over = max(over, entry.lower - entry.value)
                if over > 0.0:
                    limit_viols.append(LimitViolation(i + 1, robot.name, entry.label, over))
    return ValidationReport(per_step, violations, limit_viols)
