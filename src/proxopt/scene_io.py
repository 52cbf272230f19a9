"""Declarative scene files (JSON) and trajectory export.

Units are meters, radians and seconds throughout. Top-level keys: `robots`,
`obstacles`, `objectives`, `horizon`, `weights`, `settings`. See the README
for a complete schema description and an example.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import asdict
from typing import Optional

import numpy as np

from .distance import InnerSettings
from .kinematics import Joint, LimitSpec, RobotModel, RobotState
from .poses import Pose
from .primitives import Kind, Primitive, WorldPrimitive, place
from .trajopt import (
    EETarget,
    Objectives,
    Obstacle,
    OuterSettings,
    Scene,
    StateTarget,
    Trajectory,
)


class SceneError(ValueError):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise SceneError(message)


def _section(obj: dict, key: str, default, where: str = ""):
    """obj[key], or `default` if absent; it must have the JSON type of `default`."""
    value = obj.get(key, default)
    kind = "an object" if isinstance(default, dict) else "a list"
    _require(isinstance(value, type(default)), f"{where}{key} must be {kind}")
    return value


def _number(value, name: str, integer: bool = False):
    """A scalar field as a finite float, or as an int if `integer`.

    Anything else (a string, null, a list, a boolean, NaN, an infinity or, for
    an integer, a fraction) raises SceneError naming the field.
    """
    kind = "an integer" if integer else "a finite number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SceneError(f"{name} must be {kind}, got {json.dumps(value, default=repr)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number) or (integer and not number.is_integer()):
        raise SceneError(f"{name} must be {kind}, got {value!r}")
    return int(value) if integer else number


def _field(obj: dict, key: str, context: str):
    """A required entry of a target object."""
    _require(key in obj, f"{context}: missing {key!r}")
    return obj[key]


def _parse_pose(obj, context: str) -> Pose:
    if obj is None:
        return Pose.identity()
    _require(isinstance(obj, dict), f"{context}: pose must be an object")
    translation = obj.get("translation", [0.0, 0.0, 0.0])
    rotation = obj.get("rotation", [0.0, 0.0, 0.0])
    _require(len(translation) == 3 and len(rotation) == 3, f"{context}: pose needs 3+3 numbers")
    return Pose(translation, rotation)


def _parse_limits(obj, context: str) -> Optional[LimitSpec]:
    if obj is None:
        return None
    _require(isinstance(obj, dict), f"{context}: limits must be an object")
    bounds = {
        key: None if obj.get(key) is None else _number(obj[key], f"{context}: limits.{key}")
        for key in ("lower", "upper", "velocity", "acceleration")
    }
    try:
        return LimitSpec(**bounds)
    except ValueError as exc:
        raise SceneError(f"{context}: {exc}") from exc


def _parse_primitive(obj, attachment, context: str) -> Primitive:
    _require(isinstance(obj, dict) and "kind" in obj, f"{context}: primitive needs a kind")
    try:
        kind = Kind(obj["kind"])
    except ValueError:
        raise SceneError(f"{context}: unknown primitive kind {obj['kind']!r}") from None
    try:
        return Primitive(
            kind=kind,
            anchor=obj.get("p", [0.0, 0.0, 0.0]),
            vectors=obj.get("v", []),
            margin=_number(obj.get("margin", 0.0), f"{context}: margin"),
            attachment=attachment,
            name=obj.get("name", ""),
        )
    except ValueError as exc:
        raise SceneError(f"{context}: {exc}") from exc


def _parse_robot(obj, context: str) -> tuple[RobotModel, RobotState]:
    _require(isinstance(obj, dict) and "name" in obj, f"{context}: robot needs a name")
    name = obj["name"]
    try:
        joints = []
        for k, jobj in enumerate(obj.get("joints", [])):
            ctx = f"joint {k}"
            _require("axis" in jobj, f"{ctx}: missing axis")
            parent = _number(jobj.get("parent", k), f"{ctx}: parent", integer=True)
            _require(0 <= parent <= k, f"{ctx}: parent {parent} is not an earlier link")
            joints.append(
                Joint(
                    parent=parent,
                    offset=_parse_pose(jobj.get("offset"), ctx),
                    axis=np.asarray(jobj["axis"], dtype=float),
                    limits=_parse_limits(jobj.get("limits"), ctx),
                )
            )
        base_limits_obj = obj.get("base_limits")
        if base_limits_obj is None:
            base_limits = (None,) * 6
        elif isinstance(base_limits_obj, list):
            _require(len(base_limits_obj) == 6, "base_limits list must have 6 entries")
            base_limits = tuple(_parse_limits(b, "base_limits") for b in base_limits_obj)
        else:
            shared = _parse_limits(base_limits_obj, "base_limits")
            base_limits = (shared,) * 6
        primitives = []
        for k, pobj in enumerate(obj.get("primitives", [])):
            ctx = f"primitive {k}"
            link = _number(pobj.get("link", 0), f"{ctx}: link", integer=True)
            _require(0 <= link <= len(joints), f"{ctx}: unknown link {link}")
            primitives.append(_parse_primitive(pobj, link, ctx))
        model = RobotModel(name=name, joints=tuple(joints), base_limits=base_limits, primitives=tuple(primitives))
    except ValueError as exc:
        raise SceneError(f"robot {name!r}: {exc}") from exc
    q = np.asarray(obj.get("q", [0.0] * model.n), dtype=float)
    _require(q.shape == (model.n,), f"robot {name!r}: q must have {model.n} entries")
    state = RobotState(_parse_pose(obj.get("base"), f"robot {name!r} base"), q)
    return model, state


def load_scene(text: str) -> Scene:
    """Parse and fully validate a scene document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scene_from_dict(doc)


def scene_from_dict(doc) -> Scene:
    """Build a validated scene from a parsed JSON object."""
    _require(isinstance(doc, dict), "top level must be an object")

    robots, states = [], []
    names = {}
    for k, robj in enumerate(_section(doc, "robots", [])):
        model, state = _parse_robot(robj, f"robots[{k}]")
        _require(model.name not in names, f"duplicate robot name {model.name!r}")
        names[model.name] = k
        robots.append(model)
        states.append(state)

    obstacles = []
    for k, oobj in enumerate(_section(doc, "obstacles", [])):
        ctx = f"obstacles[{k}]"
        prim = _parse_primitive(oobj, "world", ctx)
        pose = _parse_pose(oobj.get("pose"), ctx)
        obstacles.append(Obstacle(oobj.get("name", f"obstacle{k}"), place(prim, pose)))

    horizon = _section(doc, "horizon", {})
    num_steps = _number(horizon.get("steps", 1), "horizon.steps", integer=True)
    h = _number(horizon.get("h", 0.1), "horizon.h")
    _require(num_steps >= 1 and h > 0, "horizon requires steps >= 1 and h > 0")

    weights = _section(doc, "weights", {})
    objectives = Objectives(
        w_smooth=_number(weights.get("smoothness", 0.1), "weights.smoothness"),
        w_collision=_number(weights.get("collision", 1e3), "weights.collision"),
        w_limit=_number(weights.get("limit", 1e3), "weights.limit"),
    )

    def robot_index(ref, ctx):
        if isinstance(ref, int):
            _require(0 <= ref < len(robots), f"{ctx}: unknown robot {ref}")
            return ref
        _require(ref in names, f"{ctx}: unknown robot {ref!r}")
        return names[ref]

    objs = _section(doc, "objectives", {})
    for k, tobj in enumerate(_section(objs, "state_targets", [], "objectives.")):
        ctx = f"objectives.state_targets[{k}]"
        _require(isinstance(tobj, dict), f"{ctx}: must be an object")
        r = robot_index(tobj.get("robot"), ctx)
        value = np.asarray(_field(tobj, "value", ctx), dtype=float)
        _require(value.shape == (robots[r].dim,), f"{ctx}: value must have {robots[r].dim} entries")
        step = _number(_field(tobj, "step", ctx), f"{ctx}.step", integer=True)
        _require(1 <= step <= num_steps, f"{ctx}: step {step} outside 1..{num_steps}")
        weight = _number(tobj.get("weight", 1.0), f"{ctx}.weight")
        objectives.state_targets.append(StateTarget(step, r, value, weight))
    for k, tobj in enumerate(_section(objs, "ee_targets", [], "objectives.")):
        ctx = f"objectives.ee_targets[{k}]"
        _require(isinstance(tobj, dict), f"{ctx}: must be an object")
        r = robot_index(tobj.get("robot"), ctx)
        link = _number(_field(tobj, "link", ctx), f"{ctx}.link", integer=True)
        _require(0 <= link <= robots[r].n, f"{ctx}: unknown link {link}")
        step = _number(_field(tobj, "step", ctx), f"{ctx}.step", integer=True)
        _require(1 <= step <= num_steps, f"{ctx}: step {step} outside 1..{num_steps}")
        weight = _number(tobj.get("weight", 1.0), f"{ctx}.weight")
        objectives.ee_targets.append(
            EETarget(step, r, link, tobj.get("local", [0, 0, 0]), _field(tobj, "target", ctx), weight)
        )

    settings = _section(doc, "settings", {})
    w_reg = _number(weights.get("regularization", 1e-4), "weights.regularization")
    w_con = _number(weights.get("penalty", 1e4), "weights.penalty")
    inner_grad_tol = _number(settings.get("inner_grad_tol", 1e-10), "settings.inner_grad_tol")
    inner_max_iters = _number(settings.get("inner_max_iters", 50), "settings.inner_max_iters", integer=True)
    try:
        inner = InnerSettings(w_reg=w_reg, w_con=w_con, grad_tol=inner_grad_tol, max_iters=inner_max_iters)
    except ValueError as exc:
        raise SceneError(str(exc)) from exc
    outer = OuterSettings(
        max_outer_iters=_number(settings.get("max_outer_iters", 500), "settings.max_outer_iters", integer=True),
        grad_tol=_number(settings.get("grad_tol", 1e-6), "settings.grad_tol"),
        ftol=_number(settings.get("ftol", 1e-10), "settings.ftol"),
        broad_phase_slack=_number(settings.get("broad_phase_slack", 0.1), "settings.broad_phase_slack"),
        damping_init=_number(settings.get("damping_init", 1e-8), "settings.damping_init"),
    )

    try:
        scene = Scene(
            robots=robots,
            initial_states=states,
            obstacles=obstacles,
            objectives=objectives,
            num_steps=num_steps,
            h=h,
            inner=inner,
            outer=outer,
        )
    except ValueError as exc:
        raise SceneError(str(exc)) from exc

    # Pin the first state to the provided initial configuration unless disabled.
    if settings.get("pin_initial", True):
        pin_weight = _number(settings.get("pin_weight", 1e6), "settings.pin_weight")
        for r in range(len(robots)):
            scene.objectives.state_targets.append(
                StateTarget(1, r, states[r].to_vector(), pin_weight)
            )
    return scene


def scene_to_dict(scene: Scene) -> dict:
    """Canonical JSON-compatible representation (used for save and round-trip tests)."""

    def pose_dict(pose: Pose):
        return {"translation": list(pose.translation), "rotation": list(pose.rotation)}

    def limits_dict(spec: Optional[LimitSpec]):
        if spec is None:
            return None
        return {k: v for k, v in asdict(spec).items() if v is not None}

    robots = []
    for model, state in zip(scene.robots, scene.initial_states):
        joints = []
        for joint in model.joints:
            jd = {
                "parent": joint.parent,
                "offset": pose_dict(joint.offset),
                "axis": list(joint.axis),
            }
            if joint.limits is not None:
                jd["limits"] = limits_dict(joint.limits)
            joints.append(jd)
        prims = []
        for prim in model.primitives:
            pd = {
                "link": int(prim.attachment),
                "kind": prim.kind.value,
                "p": list(prim.anchor),
                "v": [list(v) for v in prim.vectors],
                "margin": prim.margin,
            }
            if prim.name:
                pd["name"] = prim.name
            prims.append(pd)
        rd = {
            "name": model.name,
            "base": pose_dict(state.base),
            "q": list(state.joint_angles),
            "joints": joints,
            "primitives": prims,
        }
        if any(b is not None for b in model.base_limits):
            rd["base_limits"] = [limits_dict(b) for b in model.base_limits]
        robots.append(rd)

    obstacles = []
    for obs in scene.obstacles:
        kind = {0: "sphere", 1: "capsule", 2: "rectangle", 3: "box"}[obs.world.num_params]
        obstacles.append(
            {
                "name": obs.name,
                "kind": kind,
                "p": list(obs.world.anchor),
                "v": [list(v) for v in obs.world.vectors],
                "margin": obs.world.margin,
            }
        )

    # The step-1 pin targets are re-added on load; strip them from the canonical form.
    initial_rows = [s.to_vector() for s in scene.initial_states]
    state_targets = []
    for tgt in scene.objectives.state_targets:
        if tgt.step == 1 and np.array_equal(tgt.value, initial_rows[tgt.robot]) and tgt.weight >= 1e5:
            continue
        state_targets.append(
            {
                "step": tgt.step,
                "robot": scene.robots[tgt.robot].name,
                "value": list(tgt.value),
                "weight": tgt.weight,
            }
        )
    ee_targets = [
        {
            "step": tgt.step,
            "robot": scene.robots[tgt.robot].name,
            "link": tgt.link,
            "local": list(tgt.local),
            "target": list(tgt.target),
            "weight": tgt.weight,
        }
        for tgt in scene.objectives.ee_targets
    ]

    return {
        "robots": robots,
        "obstacles": obstacles,
        "objectives": {"state_targets": state_targets, "ee_targets": ee_targets},
        "horizon": {"steps": scene.num_steps, "h": scene.h},
        "weights": {
            "smoothness": scene.objectives.w_smooth,
            "collision": scene.objectives.w_collision,
            "limit": scene.objectives.w_limit,
            "regularization": scene.inner.w_reg,
            "penalty": scene.inner.w_con,
        },
        "settings": {
            "inner_grad_tol": scene.inner.grad_tol,
            "inner_max_iters": scene.inner.max_iters,
            "max_outer_iters": scene.outer.max_outer_iters,
            "grad_tol": scene.outer.grad_tol,
            "ftol": scene.outer.ftol,
            "broad_phase_slack": scene.outer.broad_phase_slack,
            "damping_init": scene.outer.damping_init,
        },
    }


def save_scene(scene: Scene) -> str:
    return json.dumps(scene_to_dict(scene), indent=2)


def _coordinate_names(scene: Scene) -> list[str]:
    max_joints = max((r.n for r in scene.robots), default=0)
    names = ["base_x", "base_y", "base_z", "base_rx", "base_ry", "base_rz"]
    names += [f"q{k + 1}" for k in range(max_joints)]
    return names


def export_trajectory(traj: Trajectory, scene: Scene, format: str = "csv", clearances=None) -> str:
    """Serialize a trajectory; one record per (step, robot).

    CSV columns: step, time, robot, then coordinate values at full float
    precision (shorter robots leave trailing columns empty). The structured
    format is JSON and can embed a per-step clearance report.
    """
    if traj.states.shape != (scene.num_steps, scene.dim_total):
        raise ValueError("trajectory dimensions do not match the scene")
    if format == "csv":
        names = _coordinate_names(scene)
        out = io.StringIO()
        out.write("step,time,robot," + ",".join(names) + "\n")
        for i in range(traj.num_steps):
            t = (i) * traj.h
            for r, robot in enumerate(scene.robots):
                off = scene.robot_offsets[r]
                row = traj.states[i, off : off + robot.dim]
                cells = [format_float(v) for v in row] + [""] * (len(names) - robot.dim)
                out.write(f"{i + 1},{format_float(t)},{robot.name}," + ",".join(cells) + "\n")
        return out.getvalue()
    if format in ("structured", "json"):
        doc = {
            "h": traj.h,
            "steps": traj.num_steps,
            "robots": [r.name for r in scene.robots],
            "states": [
                {
                    scene.robots[r].name: list(
                        traj.states[i, scene.robot_offsets[r] : scene.robot_offsets[r] + scene.robots[r].dim]
                    )
                    for r in range(len(scene.robots))
                }
                for i in range(traj.num_steps)
            ],
        }
        if clearances is not None:
            doc["min_clearance_per_step"] = [
                (c if math.isfinite(c) else None) for c in clearances
            ]
        return json.dumps(doc, indent=2)
    raise ValueError(f"unknown export format {format!r}")


def format_float(v: float) -> str:
    return repr(float(v))


def parse_trajectory_csv(text: str, scene: Scene) -> Trajectory:
    """Inverse of the CSV export (exact decimal round trip)."""
    lines = [line for line in text.splitlines() if line.strip()]
    by_name = {r.name: k for k, r in enumerate(scene.robots)}
    rows: dict[int, np.ndarray] = {}
    for line in lines[1:]:
        cells = line.split(",")
        step = int(cells[0])
        r = by_name[cells[2]]
        robot = scene.robots[r]
        values = [float(c) for c in cells[3 : 3 + robot.dim]]
        row = rows.setdefault(step, np.zeros(scene.dim_total))
        off = scene.robot_offsets[r]
        row[off : off + robot.dim] = values
    states = np.stack([rows[s] for s in sorted(rows)])
    return Trajectory(states, scene.h)
