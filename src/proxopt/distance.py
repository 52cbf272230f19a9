"""Shortest-distance computation between two primitives.

The squared distance is the minimum over the stacked parameters t = (t_a, t_b)
of ||P_a(t_a) - P_b(t_b)||^2, subject to 0 <= t <= 1. The box constraints are
softened with one-sided quadratic barriers and a small centering regularizer
||t - 0.5||^2 keeps the problem strongly convex (parallel capsules and friends
stay well-conditioned). The resulting unconstrained problem is solved with
Newton's method: solve_inner for one pair, solve_lanes for many pairs of one
shape in one array pass with the same rounding. certify_lanes turns the soft
minimizers of many pairs of one shape into certified bounds on their hard
squared distances, in array passes: it clips each, polishes it by active-set
steps, with one least-squares call per lane and round, and bounds it by the
Frank-Wolfe duality gap. certified_distance is its one-pair form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primitives import WorldPrimitive


@dataclass(frozen=True)
class InnerSettings:
    """Weights and stopping rule for the inner Newton solve.

    Defaults assume a characteristic scene length of ~1 m; both weights scale
    with (scene length)^2.
    """

    w_reg: float = 1e-4
    w_con: float = 1e4
    grad_tol: float = 1e-10
    max_iters: int = 50

    def __post_init__(self):
        if self.w_reg <= 0 or self.w_con <= 0 or self.grad_tol <= 0 or self.max_iters < 1:
            raise ValueError("invalid inner settings")


DEFAULT_INNER = InnerSettings()


@dataclass(frozen=True)
class ProximityResult:
    d_sq: float
    t_star: np.ndarray
    closest_a: np.ndarray
    closest_b: np.ndarray
    newton_steps: int
    converged: bool


def eval_D(pair: tuple[WorldPrimitive, WorldPrimitive], t: np.ndarray) -> float:
    """Squared distance between the parameterized points, before minimization."""
    a, b = pair
    la = a.num_params
    t = np.asarray(t, dtype=float)
    if t.shape != (la + b.num_params,):
        raise ValueError(f"expected {la + b.num_params} parameters, got {t.shape}")
    d = (a.anchor + t[:la] @ a.vectors) - (b.anchor + t[la:] @ b.vectors)
    return float(d @ d)


def barrier_plus(t: float, l: float) -> float:
    """One-sided quadratic penalty for t > l."""
    return (t - l) ** 2 if t > l else 0.0


def barrier_minus(t: float, l: float) -> float:
    """One-sided quadratic penalty for t < l."""
    return (t - l) ** 2 if t < l else 0.0


def eval_R(t: np.ndarray) -> float:
    """Centering regularizer ||t - 0.5||^2."""
    t = np.asarray(t, dtype=float)
    d = t - 0.5
    return float(d @ d)


def eval_U(
    pair: tuple[WorldPrimitive, WorldPrimitive],
    t: np.ndarray,
    settings: InnerSettings = DEFAULT_INNER,
):
    """Regularized soft-constrained objective with exact gradient and Hessian in t."""
    a, b = pair
    la = a.num_params
    t = np.asarray(t, dtype=float)
    if t.shape != (la + b.num_params,):
        raise ValueError(f"expected {la + b.num_params} parameters, got {t.shape}")

    d = (a.anchor + t[:la] @ a.vectors) - (b.anchor + t[la:] @ b.vectors)
    # Columns of jt: +v_l for A's parameters, -v_l for B's.
    jt = np.concatenate([a.vectors, -b.vectors], axis=0).T

    e = np.maximum(t - 1.0, 0.0) + np.minimum(t, 0.0)  # barrier excess: sum_l S+_1(t_l) + S-_0(t_l) = |e|^2
    tc = t - 0.5
    value = float(d @ d) + settings.w_reg * float(tc @ tc) + settings.w_con * float(e @ e)
    grad = 2.0 * (d @ jt) + 2.0 * settings.w_reg * tc + settings.w_con * (2.0 * e)
    hess = 2.0 * (jt.T @ jt)
    idx = np.arange(len(t))
    hess[idx, idx] += 2.0 * settings.w_reg + settings.w_con * np.where((t > 1.0) | (t < 0.0), 2.0, 0.0)
    return value, grad, hess


def _exact_line_search(t, dt, slope0: float, curvature: float, w_con: float) -> float:
    """Minimize the piecewise quadratic objective along t + alpha*dt, alpha in (0, 1].

    The directional derivative phi'(alpha) is continuous, piecewise linear and
    nondecreasing (convexity), with kinks where a coordinate crosses 0 or 1.
    In closed form it is slope0 + alpha*curvature + 2*w_con*e(t + alpha*dt).dt,
    where slope0 and curvature are the first and second directional
    derivatives of the barrier-free part and e is the barrier excess. Walk the
    kink intervals and interpolate the root of phi'.
    """
    breaks = [0.0]
    for tl, dl in zip(t, dt):
        if dl != 0.0:
            for bound in (0.0, 1.0):
                alpha = (bound - tl) / dl
                if 0.0 < alpha < 1.0:
                    breaks.append(alpha)
    breaks.append(1.0)
    breaks.sort()

    def slope(alpha):
        s = slope0 + alpha * curvature
        for tl, dl in zip(t, dt):
            x = tl + alpha * dl
            if x > 1.0:
                s += 2.0 * w_con * (x - 1.0) * dl
            elif x < 0.0:
                s += 2.0 * w_con * x * dl
        return s

    prev_alpha, prev_slope = 0.0, slope(0.0)
    for alpha in breaks[1:]:
        s = slope(alpha)
        if s >= 0.0:
            if s > prev_slope:
                return prev_alpha + (alpha - prev_alpha) * (-prev_slope) / (s - prev_slope)
            return alpha
        prev_alpha, prev_slope = alpha, s
    return 1.0


def _newton_step(hess, diag, grad):
    """Solve H @ dt = -grad by Cholesky, for the small SPD matrix H with the
    strict lower triangle of `hess` and the diagonal `diag` (lists of floats)."""
    low = []  # rows of the lower factor
    for hess_i, pivot in zip(hess, diag):
        row = []
        for low_j in low:
            s = hess_i[len(row)]
            for lk, ljk in zip(row, low_j):
                s -= lk * ljk
            row.append(s / low_j[-1])
        for lk in row:
            pivot -= lk * lk
        if not pivot > 0.0:  # impossible for w_reg > 0
            raise RuntimeError("inner Hessian factorization failed")
        row.append(math.sqrt(pivot))
        low.append(row)
    dt = []
    for row, g in zip(low, grad):
        s = -g
        for lk, yk in zip(row, dt):
            s -= lk * yk
        dt.append(s / row[-1])
    for i in range(len(dt) - 1, -1, -1):
        s = dt[i]
        for k in range(i + 1, len(dt)):
            s -= low[k][i] * dt[k]
        dt[i] = s / low[i][i]
    return dt


def solve_inner(
    pair: tuple[WorldPrimitive, WorldPrimitive],
    settings: InnerSettings = DEFAULT_INNER,
    warm_start: np.ndarray | None = None,
) -> ProximityResult:
    """Newton's method on the soft inner problem.

    Starts from the regularizer's minimum t = 0.5 unless a warm start is given.
    The objective is piecewise quadratic with a positive definite Hessian, so
    the full Newton step is exact within one barrier activation set and is
    accepted whenever it decreases the value. If it overshoots across a barrier
    kink (degenerate, nearly-flat geometries), the step length is instead
    minimized exactly along the direction, which keeps the value strictly
    decreasing and rules out activation-set cycling.
    """
    a, b = pair
    la = a.num_params
    dim = la + b.num_params
    if warm_start is not None:
        t_star = np.array(warm_start, dtype=float)
        if t_star.shape != (dim,):
            raise ValueError(f"warm start must have length {dim}")
    else:
        t_star = np.full(dim, 0.5)

    if dim == 0:
        diff = a.anchor - b.anchor
        return ProximityResult(
            d_sq=float(diff @ diff),
            t_star=t_star,
            closest_a=a.anchor.copy(),
            closest_b=b.anchor.copy(),
            newton_steps=0,
            converged=True,
        )

    # This loop dominates the planner's runtime. With at most six parameters a
    # numpy call costs more than its arithmetic, so the loop runs on Python
    # floats, and everything that does not change across iterations is hoisted.
    rows = a.vectors.tolist() + (-b.vectors).tolist()  # row l = signed v_l
    bx, by, bz = (a.anchor - b.anchor).tolist()
    w_reg, w_con = settings.w_reg, settings.w_con
    grad_tol = settings.grad_tol
    # Barrier-free Hessian 2 J J^T + 2 w_reg I (J's rows are `rows`): its strict
    # lower triangle is read from hess_base, its diagonal from diag_base.
    hess_base = [
        [2.0 * (xi * xj + yi * yj + zi * zj) for xj, yj, zj in rows] for xi, yi, zi in rows
    ]
    diag_base = [hess_base[l][l] + 2.0 * w_reg for l in range(dim)]

    def evaluate(t):
        dx, dy, dz = bx, by, bz
        for tl, (vx, vy, vz) in zip(t, rows):
            dx += tl * vx
            dy += tl * vy
            dz += tl * vz
        reg = bar = 0.0
        grad = []
        e = []
        for tl, (vx, vy, vz) in zip(t, rows):
            el = tl - 1.0 if tl > 1.0 else (tl if tl < 0.0 else 0.0)
            tc = tl - 0.5
            reg += tc * tc
            bar += el * el
            grad.append(2.0 * (vx * dx + vy * dy + vz * dz) + 2.0 * w_reg * tc + 2.0 * w_con * el)
            e.append(el)
        value = (dx * dx + dy * dy + dz * dz) + w_reg * reg + w_con * bar
        return value, grad, e

    t = t_star.tolist()
    steps = 0
    converged = False
    value, grad, e = evaluate(t)
    for _ in range(settings.max_iters):
        if math.sqrt(sum([g * g for g in grad])) <= grad_tol:
            converged = True
            break
        diag = [h + 2.0 * w_con if el != 0.0 else h for h, el in zip(diag_base, e)]
        dt = _newton_step(hess_base, diag, grad)
        t_new = [tl + dl for tl, dl in zip(t, dt)]
        value_new, grad_new, e_new = evaluate(t_new)
        if value_new > value:
            # Slope at 0 and curvature of the barrier-free part along dt;
            # the curvature is 2 |J^T dt|^2 + 2 w_reg |dt|^2.
            slope0 = 0.0
            ux = uy = uz = dd = 0.0
            for g, el, dl, (vx, vy, vz) in zip(grad, e, dt, rows):
                slope0 += (g - 2.0 * w_con * el) * dl
                ux += dl * vx
                uy += dl * vy
                uz += dl * vz
                dd += dl * dl
            curvature = 2.0 * (ux * ux + uy * uy + uz * uz) + 2.0 * w_reg * dd
            alpha = _exact_line_search(t, dt, slope0, curvature, w_con)
            t_new = [tl + alpha * dl for tl, dl in zip(t, dt)]
            value_new, grad_new, e_new = evaluate(t_new)
        stalled = all(abs(tn - tl) <= 1e-14 * max(1.0, abs(tl)) for tn, tl in zip(t_new, t))
        t, value, grad, e = t_new, value_new, grad_new, e_new
        steps += 1
        if stalled:
            # The update no longer changes t beyond rounding: we are at the
            # numerical stationary point even if grad_tol is below the noise
            # floor of the gradient evaluation.
            converged = True
            break
    if not converged:
        converged = math.sqrt(sum([g * g for g in grad])) <= grad_tol

    t_star = np.array(t)
    closest_a = a.anchor + t_star[:la] @ a.vectors
    closest_b = b.anchor + t_star[la:] @ b.vectors
    diff = closest_a - closest_b
    return ProximityResult(
        d_sq=float(diff @ diff),
        t_star=t_star,
        closest_a=closest_a,
        closest_b=closest_b,
        newton_steps=steps,
        converged=converged,
    )


class LaneResults:
    """solve_lanes' answers for n lanes: row k holds lane k's ProximityResult fields.

    A plain class rather than a dataclass, so that importing the package
    does not pay for generating its methods.
    """

    __slots__ = ("d_sq", "t_star", "closest_a", "closest_b", "newton_steps", "converged")

    def __init__(self, d_sq, t_star, closest_a, closest_b, newton_steps, converged):
        self.d_sq = d_sq  # (n,)
        self.t_star = t_star  # (n, La + Lb)
        self.closest_a = closest_a  # (n, 3)
        self.closest_b = closest_b  # (n, 3)
        self.newton_steps = newton_steps  # (n,)
        self.converged = converged  # (n,)


def solve_lanes(
    anchor_a: np.ndarray,
    vectors_a: np.ndarray,
    anchor_b: np.ndarray,
    vectors_b: np.ndarray,
    starts: np.ndarray,
    settings: InnerSettings = DEFAULT_INNER,
) -> LaneResults:
    """solve_inner on n pairs ("lanes") of one shape at once, bitwise equal per lane.

    Lane k is the pair with anchors anchor_a[k], anchor_b[k] (n, 3), vectors
    vectors_a[k] (n, La, 3), vectors_b[k] (n, Lb, 3), started from starts[k]
    (n, La + Lb). Every lane runs solve_inner's float operations in the same
    order, element-wise across lanes: sums over the <= 6 coordinates are
    explicit loops (no np.sum, no matmul, no LAPACK, which would round
    differently), a lane that converged or stalled is frozen, and a lane whose
    full step raises the value calls the scalar _exact_line_search. The
    closest points and d_sq come from stacked matmuls, which make the same
    BLAS calls as solve_inner's per-pair `@`. A lane whose Hessian
    factorization fails (only possible for non-finite input) is returned as
    not converged instead of raising.
    """
    la, lb = vectors_a.shape[1], vectors_b.shape[1]
    t_star = np.array(starts, dtype=float).reshape(len(anchor_a), la + lb)
    steps = np.zeros(len(t_star), dtype=np.intp)
    converged = np.ones(len(t_star), dtype=bool)
    if la + lb == 0:
        diff = anchor_a - anchor_b
        return LaneResults(
            np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0],
            t_star, anchor_a.copy(), anchor_b.copy(), steps, converged,
        )
    rows = np.concatenate([vectors_a, -vectors_b], axis=1)  # row l = signed v_l
    with np.errstate(all="ignore"):
        _newton_lanes(rows, anchor_a - anchor_b, t_star, steps, converged, settings)
    closest_a = anchor_a + np.matmul(t_star[:, None, :la], vectors_a)[:, 0]
    closest_b = anchor_b + np.matmul(t_star[:, None, la:], vectors_b)[:, 0]
    diff = closest_a - closest_b
    d_sq = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    return LaneResults(d_sq, t_star, closest_a, closest_b, steps, converged)


def lane_objective(
    anchor_a: np.ndarray,
    vectors_a: np.ndarray,
    anchor_b: np.ndarray,
    vectors_b: np.ndarray,
    t: np.ndarray,
    settings: InnerSettings = DEFAULT_INNER,
) -> np.ndarray:
    """The soft objective U (eval_U's value) of n lanes of one shape at t, in one array pass, shape (n,).

    The lanes are solve_lanes' (anchors (n, 3), vectors (n, La, 3) and
    (n, Lb, 3)) and t is (n, La + Lb). The difference of the two points is
    formed as solve_lanes forms it from its closest points; the sums are
    numpy sums. In exact arithmetic no Newton iterate raises U and its last
    two terms are >= 0, so a lane solved from t ends with
    d_sq <= U(t*) <= U(t); with rounding, only up to a few ulps of the
    coordinates.
    """
    la = vectors_a.shape[1]
    d = (anchor_a + np.matmul(t[:, None, :la], vectors_a)[:, 0]) - (
        anchor_b + np.matmul(t[:, None, la:], vectors_b)[:, 0]
    )
    tc = t - 0.5
    e = np.maximum(t - 1.0, 0.0) + np.minimum(t, 0.0)
    return (d * d).sum(axis=1) + (settings.w_reg * (tc * tc) + settings.w_con * (e * e)).sum(axis=1)


def _newton_lanes(rows, base, t_out, steps, converged, settings: InnerSettings):
    """solve_inner's Newton loop over lanes; writes t_out, steps and converged in place.

    Every expression below is solve_inner's (and _newton_step's) with each
    float replaced by an (m,) array over the m lanes still iterating; sums
    over coordinates stay loops in the scalar order. Finished lanes are
    written out and dropped.
    """
    dim = rows.shape[1]
    w_reg, w_con = settings.w_reg, settings.w_con
    two_reg, two_con = 2.0 * w_reg, 2.0 * w_con
    grad_tol = settings.grad_tol
    prods = rows[:, :, None, :] * rows[:, None, :, :]
    hess = 2.0 * (prods[..., 0] + prods[..., 1] + prods[..., 2])  # (n, L, L)
    diag_base = hess[:, np.arange(dim), np.arange(dim)] + two_reg

    def evaluate(t, rows, base):
        d = base
        for l in range(dim):
            d = d + t[:, l, None] * rows[:, l]
        e = np.where(t > 1.0, t - 1.0, np.where(t < 0.0, t, 0.0))
        tc = t - 0.5
        tc2, e2 = tc * tc, e * e
        reg, bar = tc2[:, 0], e2[:, 0]
        for l in range(1, dim):
            reg = reg + tc2[:, l]
            bar = bar + e2[:, l]
        dv = rows * d[:, None, :]
        grad = 2.0 * (dv[..., 0] + dv[..., 1] + dv[..., 2]) + two_reg * tc + two_con * e
        d2 = d * d
        value = (d2[:, 0] + d2[:, 1] + d2[:, 2]) + w_reg * reg + w_con * bar
        return value, grad, e

    def below_tol(grad):
        # solve_inner's sum() adds the squares in order before Python 3.12;
        # later versions compensate it, which moves the norm by at most an
        # ulp and so changes the answer only at a tie with grad_tol.
        g2 = grad * grad
        total = g2[:, 0]
        for l in range(1, dim):
            total = total + g2[:, l]
        return np.sqrt(total) <= grad_tol

    def newton_step(hess, diag, grad):
        low = []  # low[i][j]: the lower factor's (m,) entries
        ok = np.ones(len(grad), dtype=bool)
        for i in range(dim):
            row = []
            pivot = diag[:, i]
            for j in range(i):
                s = hess[:, i, j]
                for k in range(j):
                    s = s - row[k] * low[j][k]
                row.append(s / low[j][j])
            for lk in row:
                pivot = pivot - lk * lk
            ok &= pivot > 0.0
            row.append(np.sqrt(pivot))
            low.append(row)
        dt = []
        for i in range(dim):
            s = -grad[:, i]
            for k in range(i):
                s = s - low[i][k] * dt[k]
            dt.append(s / low[i][i])
        for i in range(dim - 1, -1, -1):
            s = dt[i]
            for k in range(i + 1, dim):
                s = s - low[k][i] * dt[k]
            dt[i] = s / low[i][i]
        return np.stack(dt, axis=1), ok

    live = np.arange(len(t_out))
    t = t_out
    value, grad, e = evaluate(t, rows, base)
    finished = below_tol(grad)
    for _ in range(settings.max_iters):
        if finished.any():
            t_out[live[finished]] = t[finished]
            keep = ~finished
            live, t, value, grad, e, rows, base, hess, diag_base = (
                x[keep] for x in (live, t, value, grad, e, rows, base, hess, diag_base)
            )
        if not len(live):
            return
        diag = np.where(e != 0.0, diag_base + two_con, diag_base)
        dt, ok = newton_step(hess, diag, grad)
        # A failed factorization leaves the lane where it is: it stalls and ends unconverged.
        converged[live[~ok]] = False
        dt[~ok] = 0.0
        t_new = t + dt
        value_new, grad_new, e_new = evaluate(t_new, rows, base)
        up = np.flatnonzero(value_new > value)
        if len(up):
            # Slope at 0 and curvature of the barrier-free part along dt, as in solve_inner.
            g, el, dl, v = grad[up], e[up], dt[up], rows[up]
            slope0 = ux = uy = uz = dd = np.zeros(len(up))
            for l in range(dim):
                slope0 = slope0 + (g[:, l] - two_con * el[:, l]) * dl[:, l]
                ux = ux + dl[:, l] * v[:, l, 0]
                uy = uy + dl[:, l] * v[:, l, 1]
                uz = uz + dl[:, l] * v[:, l, 2]
                dd = dd + dl[:, l] * dl[:, l]
            curvature = 2.0 * (ux * ux + uy * uy + uz * uz) + two_reg * dd
            alpha = np.array([
                _exact_line_search(tk, dk, s0, c, w_con)
                for tk, dk, s0, c in zip(t[up].tolist(), dl.tolist(), slope0.tolist(), curvature.tolist())
            ])
            t_new[up] = t[up] + alpha[:, None] * dl
            value_new[up], grad_new[up], e_new[up] = evaluate(t_new[up], v, base[up])
        stalled = (np.abs(t_new - t) <= 1e-14 * np.maximum(1.0, np.abs(t))).all(axis=1)
        t, value, grad, e = t_new, value_new, grad_new, e_new
        steps[live] += 1
        # A stalled lane has converged (solve_inner's rule); the others are
        # checked against grad_tol, as solve_inner does before its next step
        # or after its last.
        finished = stalled | below_tol(grad)
    t_out[live] = t
    converged[live] &= finished


def certified_distance(
    pair: tuple[WorldPrimitive, WorldPrimitive],
    settings: InnerSettings = DEFAULT_INNER,
) -> tuple[float, float]:
    """certify_lanes' bounds on the hard squared distance of one pair, from solve_inner (cold)."""
    a, b = pair
    rows = np.concatenate([a.vectors, -b.vectors], axis=0)
    base = a.anchor - b.anchor
    # no soft minimizer is read for L = 0 or a non-finite pair, on which solve_inner may raise
    needed = len(rows) > 0 and math.isfinite(base.sum() + rows.T.sum())
    t_soft = solve_inner(pair, settings).t_star if needed else np.zeros(len(rows))
    lower_sq, upper_sq = certify_lanes(base[None], rows[None], t_soft[None])
    return float(lower_sq[0]), float(upper_sq[0])


@np.errstate(all="ignore")
def certify_lanes(base: np.ndarray, rows: np.ndarray, t_soft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified bounds (lower_sq, upper_sq), each (n,), on the hard box-constrained squared distance of n lanes.

    Lane k is a pair with anchor difference base[k] (n, 3), signed vectors
    rows[k] (n, L, 3: a's, then b's negated) and soft minimizer t_soft[k]
    (n, L), which is not read if L = 0 (the bounds are then the squared
    anchor distance) or a coordinate of the pair is not finite (a certified
    collision, (0, inf)). t_soft is
    clipped into [0, 1]^L and polished by at most L + 2 rounds of primal
    active-set steps on f(t) = ||base + J t||^2 over the box (J = rows.T):
    least squares on the free coordinates, a ratio test that fixes the first
    coordinate to reach a bound, and release of the fixed coordinate whose
    multiplier has the wrong sign until the KKT conditions hold. At the
    resulting feasible t, upper_sq = f(t), and the Frank-Wolfe duality gap
    min_{s in [0,1]^L} g.(s - t), with g = grad f(t), gives by convexity
    lower_sq = f(t) + sum_l min(g_l, 0) - g.t <= min f, from any soft start.
    A finite pair whose f(t) overflows is a collision too.

    Each lane gets the float operations it would get alone, element-wise
    across lanes: the products with J are stacked matmuls, which make the
    per-lane BLAS calls, and a lane's step is padded to length L with an
    infinite room at its fixed coordinates, so the ratio test blocks on the
    same coordinate. Only the least squares stay per lane: one
    np.linalg.lstsq call per lane with free coordinates per round, in lane
    order. Overflow and NaN are expected, and end as collisions, so numpy
    does not warn of them here.
    """
    n, dim = rows.shape[:2]
    if dim == 0:
        d_sq = np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0]
        finite = np.isfinite(d_sq)
        return np.where(finite, d_sq, 0.0), np.where(finite, d_sq, math.inf)
    lower_sq, upper_sq = np.zeros(n), np.full(n, math.inf)
    finite = np.flatnonzero(np.isfinite(base.sum(axis=1) + rows.reshape(n, 3 * dim).sum(axis=1)))
    base, rows = base[finite], rows[finite]
    t = np.clip(t_soft[finite], 0.0, 1.0)
    fixed = (t == 0.0) | (t == 1.0)
    live = np.arange(len(t))  # the lanes still polishing
    for _ in range(dim + 2):
        if not len(live):
            break
        t_live, free, b, jt = t[live], ~fixed[live], base[live], rows[live].transpose(0, 2, 1)
        rhs = -(b + np.matmul(jt, t_live[:, :, None])[:, :, 0])
        step = np.zeros_like(t_live)
        for k in np.flatnonzero(free.any(axis=1)).tolist():
            step[k, free[k]] = np.linalg.lstsq(jt[k][:, free[k]], rhs[k], rcond=None)[0]
        room = np.where(step > 0.0, (1.0 - t_live) / step, np.where(step < 0.0, -t_live / step, np.inf))
        # the first minimum (or NaN), as on the free coordinates alone; a fixed one's step is 0, its room inf
        block = np.argmin(room, axis=1)
        reach = room[np.arange(len(live)), block]
        blocked = reach < 1.0
        # a blocked lane moves by reach·step, with its blocking coordinate set on its bound; the others by step
        moved = t_live + np.where(blocked, reach, 1.0)[:, None] * step
        hit = np.flatnonzero(blocked)
        moved[hit, block[hit]] = np.where(step[hit, block[hit]] > 0.0, 1.0, 0.0)
        t_live = np.where(free, np.clip(moved, 0.0, 1.0), t_live)
        t[live] = t_live
        fixed[live[hit], block[hit]] = True
        # a lane that was not blocked releases its fixed coordinate of the most wrong-signed multiplier:
        # one fixed at 0 (1) may leave its bound if the gradient is negative (positive)
        rest = np.flatnonzero(~blocked)
        t_rest, jt = t_live[rest], jt[rest]
        r = b[rest] + np.matmul(jt, t_rest[:, :, None])[:, :, 0]
        grad = 2.0 * np.matmul(r[:, None, :], jt)[:, 0]
        wrong_sign = np.where(fixed[live[rest]], np.where(t_rest == 0.0, -grad, grad), 0.0)
        release = np.argmax(wrong_sign, axis=1)
        # a lane stops once no multiplier is wrong-signed (<= 0); a NaN one is released
        released = ~(wrong_sign[np.arange(len(rest)), release] <= 0.0)
        fixed[live[rest[released]], release[released]] = False
        goes_on = blocked.copy()  # a blocked lane polishes on, and so does one that released a coordinate
        goes_on[rest[released]] = True
        live = live[goes_on]
    jt = rows.transpose(0, 2, 1)
    r = base + np.matmul(jt, t[:, :, None])[:, :, 0]
    upper = np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]
    grad = 2.0 * np.matmul(r[:, None, :], jt)[:, 0]
    lower = upper + np.minimum(grad, 0.0).sum(axis=1) - np.matmul(grad[:, None, :], t[:, :, None])[:, 0, 0]
    # max(0, lower), which takes a NaN lower to 0
    ok = np.isfinite(upper)
    lower_sq[finite] = np.where(ok & (lower > 0.0), lower, 0.0)
    upper_sq[finite] = np.where(ok, upper, math.inf)
    return lower_sq, upper_sq


def _grid_points(prim: WorldPrimitive, lo: np.ndarray, hi: np.ndarray, resolution: int):
    """All primitive points on a per-axis grid over [lo, hi]. Returns (T, P)."""
    if prim.num_params == 0:
        return np.zeros((1, 0)), prim.anchor[None, :]
    axes = [np.linspace(lo[l], hi[l], resolution) for l in range(prim.num_params)]
    grids = np.meshgrid(*axes, indexing="ij")
    t = np.stack([g.ravel() for g in grids], axis=1)
    return t, prim.anchor[None, :] + t @ prim.vectors


def brute_force_distance(
    pair: tuple[WorldPrimitive, WorldPrimitive], resolution: int, passes: int = 1
) -> float:
    """Grid-search oracle for the hard box-constrained squared distance.

    Evaluates eval_D on a uniform grid over [0, 1]^(La+Lb), then refines by
    re-gridding a one-cell neighborhood around the best sample. `passes` extra
    refinement rounds shrink the neighborhood geometrically; the default single
    pass matches the basic oracle, more passes tighten it for testing.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    a, b = pair
    la, lb = a.num_params, b.num_params
    if la + lb == 0:
        d = a.anchor - b.anchor
        return float(d @ d)

    lo_a, hi_a = np.zeros(la), np.ones(la)
    lo_b, hi_b = np.zeros(lb), np.ones(lb)
    best = np.inf
    for _ in range(1 + passes):
        ta, pa = _grid_points(a, lo_a, hi_a, resolution)
        tb, pb = _grid_points(b, lo_b, hi_b, resolution)
        sq = (
            (pa * pa).sum(axis=1)[:, None]
            + (pb * pb).sum(axis=1)[None, :]
            - 2.0 * (pa @ pb.T)
        )
        ia, ib = np.unravel_index(np.argmin(sq), sq.shape)
        best = min(best, float(max(sq[ia, ib], 0.0)))
        cell_a = (hi_a - lo_a) / (resolution - 1)
        cell_b = (hi_b - lo_b) / (resolution - 1)
        lo_a = np.clip(ta[ia] - cell_a, 0.0, 1.0)
        hi_a = np.clip(ta[ia] + cell_a, 0.0, 1.0)
        lo_b = np.clip(tb[ib] - cell_b, 0.0, 1.0)
        hi_b = np.clip(tb[ib] + cell_b, 0.0, 1.0)
    return best
