"""Finite-difference audits of the analytic derivative pipeline.

Three quantities are checked on randomly perturbed scene states: the inner
objective gradient, the sensitivity of the inner minimizer, and the full
distance gradient chained through placement/kinematics (the inner problem is
re-solved at every perturbed state). The distance gradient audited is the one
the planner uses, trajopt's adjoint `_lane_gradient`; the sensitivity is
`sensitivity.sensitivity_matrix` on the placement Jacobians of `_ref_jacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sensitivity as _sens
from .distance import InnerSettings, eval_U, solve_inner
from .kinematics import robot_placement_jacobian
from .primitives import PlacementJacobian
from .trajopt import PrimitiveRef, Scene, _lane_gradient, place_states

AUDIT_INNER = InnerSettings(grad_tol=1e-13, max_iters=80)


@dataclass
class SectionResult:
    name: str
    worst_rel_error: float
    checked: int
    skipped: Optional[str] = None

    def passed(self, tol: float) -> bool:
        return self.skipped is not None or self.worst_rel_error <= tol


@dataclass
class GradcheckReport:
    seed: int
    tol: float
    sections: list[SectionResult]

    @property
    def passed(self) -> bool:
        return all(s.passed(self.tol) for s in self.sections)

    def failures(self) -> list[str]:
        return [s.name for s in self.sections if not s.passed(self.tol)]


def _rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    scale = max(1.0, float(np.linalg.norm(reference)))
    return float(np.linalg.norm(analytic - reference)) / scale


def _ref_jacobian(scene: Scene, x_row, ref: PrimitiveRef, frames, num_params: int) -> PlacementJacobian:
    """A ref's world anchor and vector Jacobians w.r.t. the stacked state of one step."""
    if ref.owner is None:
        return PlacementJacobian.zero(num_params, scene.dim_total)
    robot = scene.robots[ref.owner]
    jac = robot_placement_jacobian(
        robot, scene.robot_state(x_row, ref.owner), robot.primitives[ref.index], frames[ref.owner]
    )
    return jac.embed(scene.robot_offsets[ref.owner], scene.dim_total)


def _solve_at_row(scene: Scene, row: np.ndarray, key, inner, warm=None):
    placement = place_states(scene, np.asarray(row, dtype=float)[None])
    a, b = key
    pair = (placement.world(0, a), placement.world(0, b))
    return pair, placement, solve_inner(pair, inner, warm)


def run_gradcheck(
    scene: Scene, seed: int = 0, tol: float = 1e-3, samples: int = 10, eps: float = 1e-6
) -> GradcheckReport:
    rng = np.random.default_rng(seed)
    inner = AUDIT_INNER
    refs = scene.primitive_refs()
    pairs = scene.candidate_pairs()
    n_x = scene.dim_total

    worst_inner = 0.0
    worst_sens = 0.0
    worst_grad = 0.0
    n_inner = n_sens = n_grad = 0
    base_row = scene.initial_row()

    for _ in range(samples):
        row = base_row + rng.uniform(-0.3, 0.3, n_x)
        for key in pairs:
            pair, placement, res = _solve_at_row(scene, row, key, inner)
            dim_t = pair[0].num_params + pair[1].num_params

            # Inner objective gradient at a random point.
            t = rng.uniform(-0.1, 1.1, dim_t)
            _, grad_t, _ = eval_U(pair, t, inner)
            fd = np.empty(dim_t)
            for l in range(dim_t):
                tp, tm = t.copy(), t.copy()
                tp[l] += eps
                tm[l] -= eps
                fd[l] = (eval_U(pair, tp, inner)[0] - eval_U(pair, tm, inner)[0]) / (2 * eps)
            worst_inner = max(worst_inner, _rel_error(grad_t, fd))
            n_inner += 1

            if not res.converged:
                continue
            a, b = key
            frames = placement.step_frames(0)
            ja = _ref_jacobian(scene, row, refs[a], frames, pair[0].num_params)
            jb = _ref_jacobian(scene, row, refs[b], frames, pair[1].num_params)
            dt_dx = _sens.sensitivity_matrix(pair, (ja, jb), res, inner)
            grad_x = _lane_gradient(scene, placement, row, 0, a, b, res.t_star, res.closest_a, res.closest_b, inner)

            dt_fd = np.empty((dim_t, n_x))
            d_fd = np.empty(n_x)
            for k in range(n_x):
                rp, rm = row.copy(), row.copy()
                rp[k] += eps
                rm[k] -= eps
                _, _, res_p = _solve_at_row(scene, rp, key, inner, res.t_star)
                _, _, res_m = _solve_at_row(scene, rm, key, inner, res.t_star)
                if dim_t:
                    dt_fd[:, k] = (res_p.t_star - res_m.t_star) / (2 * eps)
                d_fd[k] = (res_p.d_sq - res_m.d_sq) / (2 * eps)
            if dim_t:
                worst_sens = max(worst_sens, _rel_error(dt_dx, dt_fd))
                n_sens += 1
            worst_grad = max(worst_grad, _rel_error(grad_x, d_fd))
            n_grad += 1

    sections = [
        SectionResult("inner_gradient", worst_inner, n_inner),
        SectionResult(
            "sensitivity",
            worst_sens,
            n_sens,
            skipped=None if n_sens else "empty parameter space, skipped",
        ),
        SectionResult("distance_gradient", worst_grad, n_grad),
    ]
    return GradcheckReport(seed=seed, tol=tol, sections=sections)
