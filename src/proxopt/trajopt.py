"""Collision-free multi-robot trajectory optimization.

The outer problem stacks all robot states over N steps and minimizes goal,
smoothness, limit and collision terms with a damped Newton method plus
backtracking line search. Collision terms chain the differentiable inner
distance solve through forward kinematics; pairs are culled each iteration by
a conservative bounding-sphere broad phase and warm-started from the previous
iteration's minimizers.

Every primitive is an anchor plus 0-3 vectors, so `place_states` places all
primitives at all N steps into fixed-shape arrays in one pass, and the broad
phase tests all steps and candidate pairs in one array operation. Every kept
(step, pair) is then one lane of the same small minimization. One `_Lanes`
object gathers a placed state's lanes by (La, Lb) shape, and its `solve`
runs one `distance.solve_lanes` call per shape, writing each t* in place.
Each state the solver places is evaluated, and its lanes solved, once: the
line-search trial that placed it (the start counts as one) hands its solved
lanes to the derivative evaluation and the report. A lane whose penalty is
active gets its gradient from one small adjoint solve, taken back through
its robot's chain as a wrench (`_lane_gradient`). `validate` certifies every
(step, pair) on cold lanes, with one `distance.certify_lanes` call per
(La, Lb) group.

A line-search trial is rejected as soon as a lower bound on its value fails
the Armijo test: first its smoothness, goal and limit terms, before it is
placed, then those plus a collision floor, before its lanes are solved. The
floor takes each kept lane's inner objective U at its warm start, which
bounds the lane's d_sq from above (`_collision_floor`), with a relative
slack of FLOOR_SLACK on U and on the sum against rounding. The floor reads
the starts of the trial's `_Lanes` before `_Lanes.solve` overwrites them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .distance import DEFAULT_INNER, InnerSettings, _newton_step, certify_lanes, lane_objective, solve_lanes
# Not called here: perfbench traces its grid-oracle and scalar inner-solve layers through these names.
from .distance import brute_force_distance, solve_inner  # noqa: F401
from .kinematics import (
    RobotModel,
    RobotState,
    _ancestor_joints,
    _coordinate_limits,
    _Frames,
    link_frames,
    fk_jacobian,
)
# Not called here: perfbench traces its per-primitive placement, placement
# Jacobian and pair-derivative layers through these names.
from .kinematics import place_on_robot, robot_placement_jacobian  # noqa: F401
from .primitives import WorldPrimitive
from .sensitivity import pair_derivatives  # noqa: F401


class SolveError(RuntimeError):
    pass


def solveh_banded(ab, b):
    """scipy.linalg.solveh_banded, factoring `ab` in place, with scipy.linalg imported on first use.

    `ab` is overwritten by its Cholesky factor. Its one caller passes the
    private Fortran-ordered copy that _to_banded makes, which LAPACK then
    factors without scipy copying it again (finiteness is still checked).
    Importing scipy.linalg adds about 30 MB and 0.3 s to a process. Only the
    outer Newton step needs it, so processes that use just the distance and
    sensitivity layers never load it.
    """
    from scipy.linalg import solveh_banded as banded

    return banded(ab, b, overwrite_ab=True)


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


# solve's backtracking line search (Armijo) and damping schedule
LS_BACKTRACK = 0.5
LS_MAX_HALVINGS = 20
LS_SUFFICIENT_DECREASE = 1e-4
DAMPING_FACTOR = 10.0
DAMPING_MIN = 1e-10
DAMPING_MAX = 1e12
# relative slack of the collision floor (_collision_floor) against rounding
FLOOR_SLACK = 1e-9


@dataclass
class OuterSettings:
    max_outer_iters: int = 500
    grad_tol: float = 1e-6
    ftol: float = 1e-10
    damping_init: float = 1e-8
    broad_phase_slack: float = 0.1

    def __post_init__(self):
        # A solve of no iterations plans nothing, and a negative tolerance
        # never stops one. From a zero damping, `lam *= DAMPING_FACTOR` never
        # reaches DAMPING_MAX; a negative slack culls penetrating pairs, which
        # _evaluate reads as clear.
        if not self.max_outer_iters >= 1:
            raise ValueError(f"max_outer_iters must be at least 1, got {self.max_outer_iters}")
        for name in ("grad_tol", "ftol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not self.damping_init > 0:
            raise ValueError(f"damping_init must be positive, got {self.damping_init}")
        if not self.broad_phase_slack >= 0:
            raise ValueError(f"broad_phase_slack must be non-negative, got {self.broad_phase_slack}")


@dataclass(frozen=True)
class PrimitiveRef:
    """Identifies one primitive in the scene: either on a robot or a static obstacle."""

    owner: Optional[int]  # robot index, None for world obstacles
    index: int
    name: str
    link: Optional[int]
    margin: float
    num_params: int  # L, the primitive's vector count


def _time_step_ok(h: float) -> bool:
    """Whether the stencils can use time step h: h > 0, with h² and the weight 2/h² finite.

    h² is taken as h * h, which rounds as h**2 does but gives inf where h**2
    raises OverflowError; an h² that underflows to 0 fails too.
    """
    h2 = h * h
    return h > 0.0 and 0.0 < h2 < math.inf and math.isfinite(2.0 / h2)


@dataclass
class Trajectory:
    states: np.ndarray  # (N, dim_total)
    h: float

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(self.states) < 1:
            raise ValueError("trajectory requires N >= 1")
        if not _time_step_ok(self.h):
            raise ValueError(f"time step h must be positive with h² and 2/h² finite, got {self.h!r}")

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
        if not _time_step_ok(self.h):
            raise ValueError(f"time step h must be positive with h² and 2/h² finite, got {self.h!r}")
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
                refs.append(PrimitiveRef(r, k, name, int(prim.attachment), prim.margin, prim.num_params))
        for k, obs in enumerate(self.obstacles):
            refs.append(
                PrimitiveRef(None, k, obs.name or f"obstacle{k}", None, obs.world.margin, obs.world.num_params)
            )
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

    @cached_property
    def _bounds_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ref's margin, and the first and second ref of every candidate pair."""
        pairs = np.array(self._pairs, dtype=np.intp).reshape(-1, 2)
        return np.array([ref.margin for ref in self._refs]), pairs[:, 0], pairs[:, 1]

    @cached_property
    def _lane_index(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Every candidate pair's (La, Lb) group, and each group's (La, Lb)."""
        shape_of = [(self._refs[a].num_params, self._refs[b].num_params) for a, b in self._pairs]
        shapes = sorted(set(shape_of))
        return np.array([shapes.index(shape) for shape in shape_of], dtype=np.intp), shapes

    @cached_property
    def _chain_index(self) -> tuple[Optional[tuple[int, int, np.ndarray]], ...]:
        """Every ref's robot, that robot's state offset and the joints that move
        the ref's link (None for obstacles)."""
        return tuple(
            None
            if ref.owner is None
            else (
                ref.owner,
                self._robot_offsets[ref.owner],
                np.array(_ancestor_joints(self.robots[ref.owner], ref.link), dtype=np.intp),
            )
            for ref in self._refs
        )

    @cached_property
    def _limit_index(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, tuple], ...]:
        """For each stencil order (0 position, 1 velocity, 2 acceleration): the
        stacked columns it limits, in ascending order, their lower and upper
        bounds (±inf where a bound is absent) and each column's (robot, label)."""
        table = ([], [], [])
        for r, robot in enumerate(self.robots):
            for coord, name, spec in _coordinate_limits(robot):
                col = self._robot_offsets[r] + coord
                if spec.lower is not None or spec.upper is not None:
                    table[0].append((col, spec.lower, spec.upper, (r, f"{name}/position")))
                for order, rate, kind in ((1, spec.velocity, "velocity"), (2, spec.acceleration, "acceleration")):
                    if rate is not None:
                        table[order].append((col, -rate, rate, (r, f"{name}/{kind}")))
        return tuple(
            (
                np.array([col for col, _, _, _ in entries], dtype=np.intp),
                np.array([-math.inf if lo is None else lo for _, lo, _, _ in entries], dtype=float),
                np.array([math.inf if hi is None else hi for _, _, hi, _ in entries], dtype=float),
                tuple(label for _, _, _, label in entries),
            )
            for entries in table
        )

    def robot_state(self, x_row: np.ndarray, robot: int) -> RobotState:
        off = self.robot_offsets[robot]
        return RobotState.from_vector(x_row[off : off + self.robots[robot].dim])

    def initial_row(self) -> np.ndarray:
        return np.concatenate([s.to_vector() for s in self.initial_states]) if self.robots else np.zeros(0)


class Placement:
    """Every primitive ref of a scene placed at N steps, in fixed-shape arrays.

    anchors[i, p] is ref p's world anchor at step i and vectors[i, p, :L] its
    L world vectors (rows past L are zero). frames[r] holds robot r's link
    frames with a leading step axis. `world(i, p)` builds the WorldPrimitive
    view of ref p at step i that the library's single-pair functions take.
    """

    def __init__(self, scene: Scene, anchors: np.ndarray, vectors: np.ndarray, frames: list[_Frames]):
        self.scene = scene
        self.anchors = anchors
        self.vectors = vectors
        self.frames = frames

    def world(self, i: int, p: int) -> WorldPrimitive:
        ref = self.scene.primitive_refs()[p]
        return WorldPrimitive(self.anchors[i, p], self.vectors[i, p, : ref.num_params], ref.margin)

    def step_frames(self, i: int) -> list[_Frames]:
        """Every robot's link frames at step i."""
        return [frames.step(i) for frames in self.frames]


def place_states(scene: Scene, states: np.ndarray) -> Placement:
    """Place every primitive ref at every row of `states` (N, dim_total).

    Link frames come from one link_frames call per robot; each robot
    primitive is then placed at all N steps with one product per primitive.
    """
    states = np.asarray(states, dtype=float)
    refs = scene.primitive_refs()
    anchors = np.zeros((len(states), len(refs), 3))
    vectors = np.zeros((len(states), len(refs), 3, 3))
    frames = []
    for r, robot in enumerate(scene.robots):
        off = scene.robot_offsets[r]
        frames.append(link_frames(robot, states[:, off : off + robot.dim]))
    for p, ref in enumerate(refs):
        if ref.owner is None:
            world = scene.obstacles[ref.index].world
            anchors[:, p] = world.anchor
            vectors[:, p, : ref.num_params] = world.vectors
            continue
        prim = scene.robots[ref.owner].primitives[ref.index]
        rot = frames[ref.owner].rotations[:, ref.link]
        anchors[:, p] = frames[ref.owner].origins[:, ref.link] + rot @ prim.anchor
        vectors[:, p, : ref.num_params] = prim.vectors @ rot.transpose(0, 2, 1)
    return Placement(scene, anchors, vectors, frames)


class _Lanes:
    """The kept lanes of one placed state array: gathered when built, then solved in place by `solve`.

    Lane k is candidate pair slot[k] at step[k], in (step, slot) order: that
    of np.nonzero over the broad phase's kept mask, and margin_sum[k] is the
    sum of its two margins. t[k] starts as its entry in the warm-start store
    (a copy), which the collision floor reads, and `solve` writes its t* into
    t[k, :La + Lb]. `groups` holds (group, la, lb, anchor_a, vectors_a,
    anchor_b, vectors_b) for each non-empty (La, Lb) group: `group` indexes
    its lanes, and the four arrays, read straight from the placement arrays,
    are solve_lanes' first four arguments for those lanes. After `solve`,
    d_sq[k] is the lane's squared distance, closest_a[k] and closest_b[k] its
    closest points, solved[k] whether it converged to a finite d_sq and
    clearance[k] its distance minus margin_sum[k]. (A plain class, not a
    dataclass, so that importing the package does not pay for generating
    its methods.)
    """

    __slots__ = (
        "placement", "step", "slot", "margin_sum", "groups",
        "t", "d_sq", "closest_a", "closest_b", "solved", "clearance",
    )

    def __init__(self, scene: Scene, placement: Placement, kept: np.ndarray, warm: np.ndarray):
        margins, first, second = scene._bounds_index
        group_of, shapes = scene._lane_index
        step, slot = np.nonzero(kept)
        self.placement, self.step, self.slot = placement, step, slot
        self.margin_sum = margins[first[slot]] + margins[second[slot]]
        self.t = warm[step, slot]  # (n, 6)
        gid = group_of[slot]
        self.groups = []
        for g, (la, lb) in enumerate(shapes):
            group = np.flatnonzero(gid == g)
            if not len(group):
                continue
            i, a, b = step[group], first[slot[group]], second[slot[group]]
            self.groups.append((
                group, la, lb,
                placement.anchors[i, a], placement.vectors[i, a, :la],
                placement.anchors[i, b], placement.vectors[i, b, :lb],
            ))

    def solve(self, scene: Scene) -> _Lanes:
        """Solve every lane from its start, with one solve_lanes call per (La, Lb) group.

        A failed lane is marked in `solved`, and _collision_penalty raises for it.
        """
        n = len(self.step)
        self.d_sq, self.closest_a, self.closest_b = np.empty(n), np.empty((n, 3)), np.empty((n, 3))
        self.solved = np.empty(n, dtype=bool)
        for group, la, lb, *pair in self.groups:
            res = solve_lanes(*pair, self.t[group, : la + lb], scene.inner)
            self.t[group, : la + lb] = res.t_star
            self.d_sq[group], self.closest_a[group], self.closest_b[group] = res.d_sq, res.closest_a, res.closest_b
            self.solved[group] = res.converged & np.isfinite(res.d_sq)
        self.clearance = np.sqrt(self.d_sq) - self.margin_sum
        return self

    @property
    def min_clearance(self) -> float:
        return float(self.clearance.min()) if len(self.clearance) else math.inf

    def keep_starts(self, warm: np.ndarray):
        """Write every lane's t* into the warm-start store, where the next solve of its (step, slot) starts."""
        warm[self.step, self.slot] = self.t


def _cold_starts(scene: Scene, num_steps: int) -> np.ndarray:
    """The warm-start store, all cold (t = 0.5): [i, c, :La + Lb] starts candidate pair c at step i; La + Lb <= 6."""
    return np.full((num_steps, len(scene.candidate_pairs()), 6), 0.5)


def _collision_floor(scene: Scene, lanes: _Lanes) -> float:
    """A lower bound on the collision term of unsolved lanes, from their starts in `lanes.t`, with no Newton step.

    A lane's inner solve starts at its warm entry t0 and minimizes
    U(t) = d²(t) + w_reg·‖t − ½‖² + w_con·barrier(t), whose last two terms
    are >= 0, so its d_sq <= U(t*) <= U(t0) and its penalty is at least
    w_collision·max(0, m² − U(t0))². U(t0) takes one lane_objective pass
    per (La, Lb) group. It and the kernel's d_sq round differently: on
    sphere lanes the two are equal in exact arithmetic, and d_sq can come
    out an ulp above U(t0). So U(t0) is scaled up by 1 + FLOOR_SLACK, which
    covers the rounding where U(t0) is near m², and the sum down by
    1 − FLOOR_SLACK, which covers it where U(t0) << m². A NaN U(t0) makes
    the floor NaN, which rejects nothing: the lane's solve reports it.
    """
    u = np.empty(len(lanes.step))
    for group, la, lb, *pair in lanes.groups:
        u[group] = lane_objective(*pair, lanes.t[group, : la + lb], scene.inner)
    m = lanes.margin_sum
    gap = np.maximum(m * m - (1.0 + FLOOR_SLACK) * u, 0.0)
    return (1.0 - FLOOR_SLACK) * scene.objectives.w_collision * float((gap * gap).sum())


def _lane_gradient(
    scene: Scene,
    placement: Placement,
    x_row: np.ndarray,
    i: int,
    a: int,
    b: int,
    t_star: np.ndarray,
    closest_a: np.ndarray,
    closest_b: np.ndarray,
    settings: InnerSettings,
) -> np.ndarray:
    """Gradient of a solved lane's d_sq w.r.t. its step's stacked state, shape (dim_total,).

    The lane is refs a and b at step i of `placement`, `x_row` is step i's
    state, and t_star (its first La + Lb entries), closest_a and closest_b
    are its converged inner solution under `settings`. Take the signed rows
    r_l (a's vectors, then b's negated), d = closest_a − closest_b, and the
    inner Hessian H at t* (the matrix sensitivity_matrix factors). By the
    implicit function theorem dD/dx = ∂D/∂x − λᵀ ∂²U/∂t∂x, where
    H λ = ∂D/∂t = 2 R d, so one L×L solve
    against a vector stands in for dt/dx (the adjoint form). With
    e = d − Σ λ_l r_l, a's anchor takes the world force 2e and b's anchor −2e,
    and row l takes g_l = 2(t_l e − λ_l d), whose torques r_l × g_l add up
    per side. Each side's chain then takes its force and torque back as a
    wrench (_add_wrench).
    """
    refs = scene.primitive_refs()
    la, lb = refs[a].num_params, refs[b].num_params
    rows = placement.vectors[i, a, :la].tolist() + (-placement.vectors[i, b, :lb]).tolist()
    dx, dy, dz = (closest_a - closest_b).tolist()
    ex, ey, ez = dx, dy, dz
    torques = ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    if rows:
        hess = [[2.0 * (xi * xj + yi * yj + zi * zj) for xj, yj, zj in rows] for xi, yi, zi in rows]
        reg, con = 2.0 * settings.w_reg, 2.0 * settings.w_con
        t = t_star[: la + lb].tolist()
        diag = [hess[l][l] + reg + (con if tl > 1.0 or tl < 0.0 else 0.0) for l, tl in enumerate(t)]
        # _newton_step solves H λ = −(its last argument)
        lam = _newton_step(hess, diag, [-2.0 * (x * dx + y * dy + z * dz) for x, y, z in rows])
        for lam_l, (x, y, z) in zip(lam, rows):
            ex -= lam_l * x
            ey -= lam_l * y
            ez -= lam_l * z
        for l, (tl, lam_l, (x, y, z)) in enumerate(zip(t, lam, rows)):
            gx = 2.0 * (tl * ex - lam_l * dx)
            gy = 2.0 * (tl * ey - lam_l * dy)
            gz = 2.0 * (tl * ez - lam_l * dz)
            tau = torques[l >= la]
            tau[0] += y * gz - z * gy
            tau[1] += z * gx - x * gz
            tau[2] += x * gy - y * gx
    grad = np.zeros(scene.dim_total)
    _add_wrench(scene, placement, x_row, i, a, (2.0 * ex, 2.0 * ey, 2.0 * ez), torques[0], grad)
    _add_wrench(scene, placement, x_row, i, b, (-2.0 * ex, -2.0 * ey, -2.0 * ez), torques[1], grad)
    return grad


def _add_wrench(scene: Scene, placement: Placement, x_row, i: int, p: int, force, torque, grad: np.ndarray):
    """Add to `grad` the state gradient of a world force at ref p's anchor P plus a torque on its link.

    The force is the gradient w.r.t. P and the torque collects each world
    vector's r × (gradient w.r.t. r). A coordinate that turns the link by a
    unit rate about axis ω through point o moves P by ω × (P − o) and each
    vector by ω × r, so it gets ω · ((P − o) × force + torque): a hinge j
    with its world axis and origin, and base Euler angle m with
    ω_m = (e_x, Rx(α)·e_y, Rx(α)·Ry(β)·e_z) through the base origin. The base
    translation gets the force itself; an obstacle gets nothing.
    """
    chain = scene._chain_index[p]
    if chain is None:
        return
    r, off, joints = chain
    frames = placement.frames[r]
    fx, fy, fz = force
    anchor = placement.anchors[i, p]
    ux, uy, uz = (anchor - frames.origins[i, 0]).tolist()
    mx = uy * fz - uz * fy + torque[0]
    my = uz * fx - ux * fz + torque[1]
    mz = ux * fy - uy * fx + torque[2]
    alpha, beta = x_row[off + 3 : off + 5].tolist()
    ca, sa, cb, sb = math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta)
    grad[off : off + 6] += (fx, fy, fz, mx, ca * my + sa * mz, sb * mx - sa * cb * my + ca * cb * mz)
    if len(joints):
        # (P − o_j) × force is (P − o_j) @ [force]×
        cross = np.array([[0.0, -fz, fy], [fz, 0.0, -fx], [-fy, fx, 0.0]])
        moments = (anchor - frames.joint_origins[i, joints]) @ cross + torque
        grad[off + 6 + joints] += (frames.joint_axes[i, joints] * moments).sum(axis=1)


def broad_phase(scene: Scene, traj: Trajectory, step: int, slack: float) -> list[tuple[int, int]]:
    """Pairs whose bounding spheres are within `slack` of touching at a 1-based step."""
    if not 1 <= step <= traj.num_steps:
        raise ValueError(f"step {step} outside 1..{traj.num_steps}")
    kept = broad_phase_rows(scene, place_states(scene, traj.states[step - 1 : step]), slack)[0]
    return [scene.candidate_pairs()[c] for c in np.flatnonzero(kept).tolist()]


class _Accumulator:
    """Flat gradient and upper-banded Hessian over the stacked trajectory (or value only).

    Every term couples steps at most two apart, so the Hessian's upper band
    of `bandwidth` = 3·d − 1 diagonals (at most N·d − 1) holds all of it.
    `band` stores it as solveh_banded takes it: entry (r, c), r <= c, is
    band[bandwidth + r − c, c]. It is Fortran-ordered, as LAPACK reads it,
    so _to_banded's copy is the matrix that solveh_banded factors in place.
    """

    def __init__(self, num_steps: int, dim: int, need_derivs: bool):
        self.num_steps = num_steps
        self.dim = dim
        self.bandwidth = max(min(3 * dim, num_steps * dim) - 1, 0)
        self.grad = np.zeros((num_steps, dim)) if need_derivs else None
        self.band = np.zeros((num_steps * dim, self.bandwidth + 1)).T if need_derivs else None

    @property
    def need_derivs(self) -> bool:
        return self.grad is not None

    def add_block(self, step: int, block: np.ndarray, offset: int = 0):
        """Add the upper triangle of a square block to one step's diagonal block, at coordinate `offset`."""
        p, q = np.triu_indices(len(block))
        self.band[self.bandwidth + p - q, step * self.dim + offset + q] += block[p, q]


def _smoothness(states, h, w_s, acc: _Accumulator) -> float:
    n = len(states)
    if n < 3 or w_s == 0.0:
        return 0.0
    inv_h2 = 1.0 / h**2
    acc_rows = (states[2:] - 2.0 * states[1:-1] + states[:-2]) * inv_h2
    value = w_s * float((acc_rows * acc_rows).sum())
    if acc.need_derivs:
        d, u = acc.dim, acc.bandwidth
        coeffs = (inv_h2, -2.0 * inv_h2, inv_h2)  # weights of x_i, x_{i-1}, x_{i-2}
        # Stencil i adds (2·w·ca·cb)·I to the block of steps (i + da, i + db).
        # Its upper part is one stretch of band row u − (db − da)·d, so each
        # (da, db) adds to all stencils at once; in this loop order every
        # gradient and band entry gets its terms in ascending i, as a loop
        # over the stencils would add them.
        for da, ca in zip((0, -1, -2), coeffs):
            acc.grad[2 + da : n + da] += (2.0 * w_s * ca) * acc_rows
            for db, cb in zip((0, -1, -2), coeffs):
                if da <= db:
                    acc.band[u - (db - da) * d, (2 + db) * d : (n + db) * d] += 2.0 * w_s * ca * cb
    return value


def _goal_terms(scene: Scene, states, acc: _Accumulator, placement: Optional[Placement] = None) -> float:
    """State and end-effector targets.

    An end-effector target reads its link frames from `placement` (that of
    `states`) when given, and otherwise makes one single-row link_frames call
    on its own step; the two are bitwise equal.
    """
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
            acc.band[-1, i * acc.dim + off : i * acc.dim + off + robot.dim] += 2.0 * tgt.weight
    for tgt in scene.objectives.ee_targets:
        robot = scene.robots[tgt.robot]
        off = offsets[tgt.robot]
        i = tgt.step - 1
        state = scene.robot_state(states[i], tgt.robot)
        frames = link_frames(robot, state) if placement is None else placement.frames[tgt.robot].step(i)
        p = frames.origins[tgt.link] + frames.rotations[tgt.link] @ tgt.local
        e = p - tgt.target
        value += tgt.weight * float(e @ e)
        if acc.need_derivs:
            jac = fk_jacobian(robot, state, tgt.link, tgt.local, frames)
            acc.grad[i, off : off + robot.dim] += 2.0 * tgt.weight * (e @ jac)
            acc.add_block(i, 2.0 * tgt.weight * (jac.T @ jac), off)
    return value


def _stencil(order: int, h: float) -> tuple[float, ...]:
    """The weights of x_i, x_{i−1}, x_{i−2} in the backward difference of `order` over step h."""
    return ((1.0,), (1.0 / h, -1.0 / h), (1.0 / h**2, -2.0 / h**2, 1.0 / h**2))[order]


def _stencil_values(states, order: int, columns: np.ndarray, h: float) -> np.ndarray:
    """Position (order 0), velocity (1) or acceleration (2) of `columns` at 0-based steps order..N−1.

    Row k is c0·x_{k+order} + c1·x_{k+order−1} (+ c2·x_{k+order−2}) with the
    weights of _stencil, so a stencil that reaches before the first step is
    omitted rather than padded. Shape (N − order, len(columns)).
    """
    x = states[:, columns]
    n = len(x)
    coeffs = _stencil(order, h)
    v = coeffs[0] * x[order:]
    for back, c in enumerate(coeffs[1:], 1):
        v = v + c * x[order - back : n - back]
    return v


def _limit_excess(scene: Scene, states, h: float):
    """Yields (order, columns, labels, e) for each stencil order of scene._limit_index that limits columns.

    e[k, i], at column k and 0-based step i + order, is the stencil value over
    `h` minus the bound it passes: 0 within the bounds or at NaN; the upper bound wins.
    """
    for order, (columns, lower, upper, labels) in enumerate(scene._limit_index):
        if len(columns):
            v = _stencil_values(states, order, columns, h).T  # (column, step)
            lo, hi = lower[:, None], upper[:, None]
            yield order, columns, labels, np.where(v > hi, v - hi, np.where(v < lo, v - lo, 0.0))


def _limit_penalty(scene: Scene, states, acc: _Accumulator) -> tuple[float, float]:
    """Returns (weighted value, worst raw bound violation).

    One-sided quadratic barriers on each stencil order's _limit_excess at
    scene.h, at all its columns and steps at once. The value adds the
    violating entries in (column, order, step) order with np.add.accumulate,
    and each gradient or band element receives its contributions order by
    order and stencil entry by stencil entry, so the sums round exactly as a
    loop over every entry would.
    """
    w = scene.objectives.w_limit
    dim = states.shape[1]
    worst = 0.0
    hit_columns, terms = [], []
    for order, columns, _, e in _limit_excess(scene, states, scene.h):
        phi = e * e
        hit = phi != 0.0
        k, i = np.nonzero(hit)
        if not len(k):
            continue
        phi, e, steps, col = phi[hit], e[hit], i + order, columns[k]
        hit_columns.append(col)
        terms.append(w * phi)
        worst = max(worst, float(np.sqrt(phi.max())))
        if acc.need_derivs:
            coeffs = _stencil(order, scene.h)
            slope = w * (2.0 * e)
            for back, c in enumerate(coeffs):
                acc.grad[steps - back, col] += slope * c
            for back_a, ca in enumerate(coeffs):
                for back_b, cb in enumerate(coeffs):
                    if back_a >= back_b:
                        row = acc.bandwidth + (back_b - back_a) * dim
                        acc.band[row, (steps - back_b) * dim + col] += w * 2.0 * ca * cb
    if not terms:
        return 0.0, worst
    # The hits come in (order, column, step) order; a stable sort by column
    # makes it (column, order, step). One order's hits are in that order.
    if len(terms) == 1:
        terms = terms[0]
    else:
        terms = np.concatenate(terms)[np.argsort(np.concatenate(hit_columns), kind="stable")]
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1]), worst


def _collision_penalty(scene: Scene, states, lanes: _Lanes, acc: _Accumulator):
    """Soft collision penalty over every solved lane.

    Returns (value, min_clearance, max_violation), summed in (step, slot)
    order. SolveError names the first failed lane in that order, if any.
    """
    w_ca = scene.objectives.w_collision
    pairs = scene.candidate_pairs()
    if not lanes.solved.all():
        k = int(np.argmin(lanes.solved))
        a, b = (scene.primitive_refs()[p].name for p in pairs[lanes.slot[k]])
        raise SolveError(f"inner solve failed for pair {a}:{b} at step {lanes.step[k] + 1}")
    d_sq, clearance = lanes.d_sq, lanes.clearance
    m2 = lanes.margin_sum * lanes.margin_sum
    value = 0.0
    max_violation = 0.0
    for k in np.flatnonzero(d_sq < m2).tolist():
        max_violation = max(max_violation, -float(clearance[k]))
        e = float(d_sq[k]) - float(m2[k])
        value += w_ca * e * e
        if acc.need_derivs:
            i = int(lanes.step[k])
            a, b = pairs[lanes.slot[k]]
            grad = _lane_gradient(
                scene, lanes.placement, states[i], i, a, b,
                lanes.t[k], lanes.closest_a[k], lanes.closest_b[k], scene.inner,
            )
            acc.grad[i] += (2.0 * w_ca * e) * grad
            # Gauss-Newton model: e < 0 whenever the penalty is active, so
            # the curvature term e * d²(d_sq)/dx² is negative semidefinite
            # and only degrades the Newton direction; keep the PSD part.
            block = (2.0 * w_ca) * np.outer(grad, grad)
            acc.add_block(i, block)
    return value, lanes.min_clearance, max_violation


def _dense_term(traj: Trajectory, add) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, flat gradient, dense symmetric Hessian) of the term `add(acc)` adds to a fresh accumulator over `traj`."""
    acc = _Accumulator(traj.num_steps, traj.states.shape[1], True)
    value = add(acc)
    n, u = acc.band.shape[1], acc.bandwidth
    hess = np.zeros((n, n))
    for k in range(min(u, n - 1) + 1):
        r = np.arange(n - k)
        hess[r, r + k] = hess[r + k, r] = acc.band[u - k, k:]
    return value, acc.grad.ravel(), hess


def smoothness_term(traj: Trajectory, w_smooth: float):
    """Acceleration penalty with the three-point stencil; quadratic, constant Hessian."""
    return _dense_term(traj, lambda acc: _smoothness(traj.states, traj.h, w_smooth, acc))


def goal_terms(traj: Trajectory, scene: Scene):
    return _dense_term(traj, lambda acc: _goal_terms(scene, traj.states, acc))


def limit_penalty(traj: Trajectory, scene: Scene):
    return _dense_term(traj, lambda acc: _limit_penalty(scene, traj.states, acc)[0])


def collision_penalty(traj: Trajectory, scene: Scene, active: list[list[tuple[int, int]]]):
    """The collision term over the candidate pairs listed in active[i] at each step i, all started cold."""
    if len(active) != traj.num_steps:
        raise ValueError(f"expected one list of active pairs per step ({traj.num_steps}), got {len(active)}")
    unknown = {pair for row in active for pair in row} - set(scene.candidate_pairs())
    if unknown:
        raise ValueError(f"not candidate pairs of the scene: {sorted(unknown)}")
    kept = np.array([[pair in row for pair in scene.candidate_pairs()] for row in active], dtype=bool)
    placement = place_states(scene, traj.states)
    lanes = _Lanes(scene, placement, kept, _cold_starts(scene, traj.num_steps)).solve(scene)
    return _dense_term(traj, lambda acc: _collision_penalty(scene, traj.states, lanes, acc)[0])


def _cheap_terms(scene: Scene, states, acc: _Accumulator, placement: Optional[Placement] = None) -> tuple[float, float]:
    """Smoothness + goal + limit, added in that order: (partial value, worst raw limit violation).

    Every term is a non-negative penalty, and adding a non-negative number
    never lowers a float sum, so the objective is at least this partial sum.
    `placement`, if given, is that of `states`, and the goal term reads its
    frames (_goal_terms).
    """
    value = _smoothness(states, scene.h, scene.objectives.w_smooth, acc)
    value += _goal_terms(scene, states, acc, placement)
    lim_value, lim_worst = _limit_penalty(scene, states, acc)
    return value + lim_value, lim_worst


def _evaluate(scene: Scene, states, lanes: _Lanes, need_derivs: bool, cheap: Optional[tuple[float, float]] = None):
    """Objective over the stacked trajectory; returns (value, acc, min_clearance, max_violation).

    `lanes` are the solved lanes of `states` (_Lanes.solve), whose broad phase
    makes the value exact: culled pairs have bounding separation
    > slack >= 0, hence positive clearance and zero penalty. (A pair set
    frozen across a line search would make trial values incomparable and can
    cycle.) Nothing is solved or placed here: a derivative evaluation reads
    the solutions and link frames of the trial that placed `states`.
    `cheap` is _cheap_terms' result at `states` when a value-only caller has
    it already; the collision term is then added to it.
    """
    acc = _Accumulator(len(states), states.shape[1], need_derivs)
    value, lim_worst = cheap if cheap is not None else _cheap_terms(scene, states, acc, lanes.placement)
    col_value, min_clear, max_viol = _collision_penalty(scene, states, lanes, acc)
    value += col_value
    return value, acc, min_clear, max(max_viol, lim_worst)


def _line_search_trial(scene: Scene, states, bound: float, slack: float, warm: np.ndarray):
    """The value of a line-search trial at `states` and its solved lanes, or why it was rejected before them.

    Returns (value, lanes, rejected). Smoothness + goal + limit read only the
    states. If their sum is already above the Armijo `bound`, the full value
    is too, so the trial is rejected with its partial sum, lanes None and
    `rejected` "cheap": it is not placed, and no lanes are culled, gathered
    or solved. Otherwise the trial is placed once and its lanes are culled
    and gathered into one _Lanes, and the partial sum plus their collision
    floor (a lower bound on the collision term from their warm starts,
    _collision_floor) is tested the same way: above `bound`, the trial is
    rejected with that sum, lanes None and `rejected` "bound", before any
    lane is solved. (A NaN sum is not above the bound and goes on.)
    Otherwise _Lanes.solve solves the lanes in place, _evaluate adds the
    collision term to the partial sum, and `rejected` is None. With `bound`
    inf, the trial cannot be rejected.
    """
    cheap = _cheap_terms(scene, states, _Accumulator(len(states), states.shape[1], False))
    if cheap[0] > bound:
        return cheap[0], None, "cheap"
    placement = place_states(scene, states)
    lanes = _Lanes(scene, placement, broad_phase_rows(scene, placement, slack), warm)
    lower = cheap[0] + _collision_floor(scene, lanes)
    if lower > bound:
        return lower, None, "bound"
    return _evaluate(scene, states, lanes.solve(scene), False, cheap)[0], lanes, None


def _to_banded(band: np.ndarray, lam: float) -> np.ndarray:
    """The damped Newton matrix for solveh_banded: a copy of the assembled band plus lam on its diagonal.

    The copy is Fortran-ordered, and solveh_banded factors it in place, so
    `band` is left as it was for a retry at another damping.
    """
    ab = band.copy(order="F")
    ab[-1] += lam
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
    trials: int  # line-search trials, over all damping retries
    cheap_rejects: int  # of those, rejected on smoothness + goal + limit alone
    bound_rejects: int  # of those, rejected on that sum plus the collision floor, before their lane solves


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

    The initial state anchors step 1 and each target its step (the last given
    wins). Segments between consecutive anchors are linear, one array pass
    each, and the last anchor is held from its step on.
    """
    states = np.empty((scene.num_steps, scene.dim_total))
    for r, robot in enumerate(scene.robots):
        off = scene.robot_offsets[r]
        anchors = {1: scene.initial_states[r].to_vector()}
        anchors.update((tgt.step, tgt.value) for tgt in scene.objectives.state_targets if tgt.robot == r)
        steps = sorted(anchors)
        block = states[:, off : off + robot.dim]
        block[steps[-1] - 1 :] = anchors[steps[-1]]
        for lo, hi in zip(steps, steps[1:]):
            f = ((np.arange(lo, hi) - lo) / (hi - lo))[:, None]
            block[lo - 1 : hi - 1] = (1.0 - f) * anchors[lo] + f * anchors[hi]
            block[lo - 1] = anchors[lo]
    return Trajectory(states, scene.h)


def solve(scene: Scene, initial: Optional[Trajectory] = None) -> tuple[Trajectory, SolveReport]:
    """Damped Newton with backtracking line search over the stacked trajectory, under scene.outer's settings.

    To cap a solve, set scene.outer. Every evaluation recomputes the
    broad-phase pair set, so the objective is exact and accepted steps never
    increase it. Damping follows a trust-region policy driven by the accepted
    step length. A line-search trial whose
    smoothness + goal + limit terms alone exceed the Armijo bound is rejected
    before it is placed (_line_search_trial): the collision term is
    non-negative, so it could not pass. A trial whose partial sum plus its
    collision floor exceeds the bound is rejected after its broad phase and
    before its lane solves: the floor, w_collision·max(0, m² − U(t0))² per
    kept lane with U(t0) the lane's inner objective at its warm start, is at
    most the collision term, because the inner solve never raises U. It keeps
    a relative slack of FLOOR_SLACK on U(t0) and on the sum against rounding.
    A rejected trial's t* is never kept, and it cannot raise SolveError.
    IterationStats counts both kinds of reject. The start is evaluated
    as a trial that cannot be rejected, and each placed state's lanes are
    solved once, by its trial: the derivative evaluation at accepted states
    and the report read that trial's solutions.
    """
    s = scene.outer
    traj = initial if initial is not None else default_trajectory(scene)
    states = traj.states.copy()
    if states.shape != (scene.num_steps, scene.dim_total):
        raise ValueError("initial trajectory dimensions do not match the scene")

    lam = s.damping_init
    # each lane's t* at its last accepted states, where it starts next
    warm = _cold_starts(scene, len(states))
    history: list[IterationStats] = []
    reason = "max_iters"
    converged = False
    # `value` and `lanes` are those of `states`, from the trial that placed
    # them; so each accepted state is placed and its lanes solved once.
    value, lanes, _ = _line_search_trial(scene, states, math.inf, s.broad_phase_slack, warm)
    lanes.keep_starts(warm)

    for _ in range(s.max_outer_iters):
        value, acc, min_clear, max_viol = _evaluate(scene, states, lanes, True)
        grad_flat = acc.grad.ravel()
        grad_inf = float(np.abs(grad_flat).max()) if grad_flat.size else 0.0
        # the line search counts its trials here; damping and alpha are set when the iteration ends
        stats = IterationStats(value, grad_inf, lam, 0.0, min_clear, max_viol, len(lanes.step), 0, 0, 0)
        history.append(stats)
        if grad_inf <= s.grad_tol:
            converged, reason = True, "grad_tol"
            break

        # scipy rejects a non-finite system, and no damping makes it finite
        finite = bool(np.isfinite(grad_flat).all() and np.isfinite(acc.band).all())
        accepted = False
        while not accepted:
            # A failed factorization, a non-finite system or a non-descent
            # direction raises the damping; so does a failed line search.
            slope, failure = math.nan, "damping_overflow"
            if finite:
                try:
                    direction = solveh_banded(_to_banded(acc.band, lam), -grad_flat)
                except np.linalg.LinAlgError:
                    pass
                else:
                    slope = float(grad_flat @ direction)
            if slope < 0.0:
                failure = "line_search_failure"
                alpha = 1.0
                for _ in range(LS_MAX_HALVINGS):
                    cand = states + alpha * direction.reshape(states.shape)
                    bound = value + LS_SUFFICIENT_DECREASE * alpha * slope
                    cand_value, cand_lanes, rejected = _line_search_trial(
                        scene, cand, bound, s.broad_phase_slack, warm
                    )
                    stats.trials += 1
                    # a rejected trial's cand_value is a lower bound on its value, above `bound`
                    stats.cheap_rejects += rejected == "cheap"
                    stats.bound_rejects += rejected == "bound"
                    if cand_value <= bound:
                        states, lanes = cand, cand_lanes
                        lanes.keep_starts(warm)
                        accepted = True
                        break
                    alpha *= LS_BACKTRACK
            if not accepted:
                lam *= DAMPING_FACTOR
                if lam > DAMPING_MAX:
                    stats.damping = lam
                    return Trajectory(states, scene.h), SolveReport(history, False, failure, value, min_clear)

        stats.damping, stats.alpha = lam, alpha
        # Trust-region style damping update: only relax when the full step was
        # good; a step accepted after heavy backtracking means the quadratic
        # model is poor, so stiffen instead.
        if alpha >= 1.0:
            lam = max(lam / DAMPING_FACTOR, DAMPING_MIN)
        elif alpha < 0.25:
            lam = min(lam * DAMPING_FACTOR, DAMPING_MAX)
        # Stall check on the accepted candidate value.
        stalled = abs(value - cand_value) <= s.ftol * max(1.0, abs(cand_value))
        value = cand_value
        if stalled:
            converged, reason = True, "ftol"
            break

    return Trajectory(states, scene.h), SolveReport(history, converged, reason, value, lanes.min_clearance)


def broad_phase_rows(scene: Scene, placement: Placement, slack: float) -> np.ndarray:
    """broad_phase at every placed step: the (N, C) mask of kept candidate pairs.

    kept[i, c] is True where candidate pair c (scene.candidate_pairs()[c]) is
    kept at step i. The bounding sphere of each placed primitive is that of
    primitives.bounding_center_radius; all steps and candidate pairs are
    tested in one array operation.
    """
    margins, first, second = scene._bounds_index
    vectors = placement.vectors
    centers = placement.anchors + 0.5 * vectors.sum(axis=2)
    radii = 0.5 * np.sqrt((vectors * vectors).sum(axis=3)).sum(axis=2) + margins
    gap = centers[:, first] - centers[:, second]
    reach = radii[:, first] + radii[:, second] + slack
    # A NaN distance or reach keeps the pair, so the inner solve reports it.
    return ~(np.sqrt((gap * gap).sum(axis=2)) > reach)


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
    certified_pairs: int  # the (step, pair) lanes certified: every candidate pair at every step

    @property
    def worst_clearance(self) -> float:
        """The lowest step clearance; NaN if any step's is NaN, inf if no step has a pair."""
        if any(math.isnan(c) for c in self.min_clearance_per_step):
            return math.nan
        return min(self.min_clearance_per_step, default=math.inf)


def validate(scene: Scene, traj: Trajectory) -> ValidationReport:
    """Post-hoc audit: certified clearances for every pair, plus every limit violation.

    Every candidate pair at every step is a cold lane of one _Lanes, solved
    by _Lanes.solve. certify_lanes turns the t* of each of its (La, Lb)
    groups, in one call, into certified lower bounds on their squared
    distances, which keep each reported clearance at or below the true one
    (up to rounding), converged or not. A clearance is the bound's square
    root minus one margin, then the other. A step's minimum is its first
    lowest clearance in pair order, or its first NaN one, and every
    clearance below 0 or NaN is a violation. The limit violations are the
    nonzero entries of _limit_excess at traj.h, the excess that the planner's
    limit term penalizes, each with its magnitude as the amount.
    """
    if traj.states.shape[1] != scene.dim_total:
        raise ValueError(f"trajectory has {traj.states.shape[1]} columns, the scene {scene.dim_total}")
    refs = scene.primitive_refs()
    pairs = scene.candidate_pairs()
    placement = place_states(scene, traj.states)
    every_pair = np.ones((traj.num_steps, len(pairs)), dtype=bool)
    lanes = _Lanes(scene, placement, every_pair, _cold_starts(scene, traj.num_steps)).solve(scene)
    lower_sq = np.empty(len(lanes.step))
    for group, la, lb, anchor_a, vectors_a, anchor_b, vectors_b in lanes.groups:
        rows = np.concatenate([vectors_a, -vectors_b], axis=1)
        lower_sq[group] = certify_lanes(anchor_a - anchor_b, rows, lanes.t[group, : la + lb])[0]
    margins, first, second = scene._bounds_index
    clearance = np.sqrt(lower_sq) - margins[first[lanes.slot]] - margins[second[lanes.slot]]
    # every pair at every step: lane i·C + c is pair c at step i
    by_step = clearance.reshape(traj.num_steps, len(pairs))
    per_step = [math.inf] * traj.num_steps
    if len(pairs):
        per_step = by_step[np.arange(traj.num_steps), np.argmin(by_step, axis=1)].tolist()
    bad = np.flatnonzero(~(clearance >= 0.0))  # a NaN clearance is a violation too
    violations = [
        ClearanceRecord(i + 1, (refs[pairs[c][0]].name, refs[pairs[c][1]].name), value)
        for i, c, value in zip(lanes.step[bad].tolist(), lanes.slot[bad].tolist(), clearance[bad].tolist())
    ]
    # The planner's limit excess over traj.h; each nonzero entry, keyed by
    # (step, column, order): step, then robot and coordinate, then order.
    entries = []
    for order, columns, labels, e in _limit_excess(scene, traj.states, traj.h):
        k, i = np.nonzero(e)
        for step, c, amount in zip((i + order).tolist(), k.tolist(), np.abs(e[k, i]).tolist()):
            entries.append((step, columns[c], order, labels[c], amount))
    entries.sort(key=lambda entry: entry[:3])
    limit_viols = [
        LimitViolation(step + 1, scene.robots[r].name, label, amount) for step, _, _, (r, label), amount in entries
    ]
    return ValidationReport(per_step, violations, limit_viols, len(lanes.step))
