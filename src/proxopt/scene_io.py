"""Declarative scene files (JSON) and trajectory export.

Units are meters, radians and seconds throughout. `_SCENE` is the schema of a
scene document: every key with its type, shape, default and range. The README
lists it, with an example.
"""

from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from .distance import InnerSettings
from .kinematics import Joint, LimitSpec, RobotModel, RobotState
from .poses import Pose
from .primitives import WORLD, Kind, Primitive, place
from .trajopt import EETarget, Objectives, Obstacle, OuterSettings, Scene, StateTarget, Trajectory


class SceneError(ValueError):
    pass


# -- the checker ----------------------------------------------------------------

_REQUIRED, _ABSENT = object(), object()  # the default of a key that must be given; the value of a missing key
_NUMBER, _INTEGER, _BOOLEAN, _STRING = "a finite number", "an integer", "a boolean", "a string"
_ROBOT_REF, _VECTOR, _NUMBERS = "a robot name or index", "3 finite numbers", "finite numbers"  # arrays: (nested) lists


class _Field(NamedTuple):
    kind: object  # one of the kinds above, or the tuple of the strings allowed
    default: object = _REQUIRED  # None: the builder fills in an absent key
    min: float = -math.inf  # numbers: the least value allowed,
    strict: bool = False  # or a bound the value must exceed
    null: bool = False  # whether null stands for the default
    check: Optional[Callable] = None  # a constructor that holds the field's range


class _Object(NamedTuple):  # an object with only these keys; build(values, path) makes its value
    keys: dict
    build: Optional[Callable] = None  # None: the value is the dict of checked values
    default: object = {}
    null: bool = False


class _List(NamedTuple):
    item: object
    size: Optional[int] = None
    default: object = ()
    null: bool = False
    shared: bool = False  # whether one object may stand for all `size` entries


def _fail(path: tuple, message: str):
    """Raise a SceneError that starts with the JSON path of the key, e.g. robots[0].joints[2].axis."""
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")
    raise SceneError(f"{where or 'top level'}: {message}")


def _show(value) -> str:
    return json.dumps(value, default=repr)


def _check(spec, value, path: tuple):
    """`value` checked against `spec` and built; a SceneError names the JSON path of a fault."""
    if value is _ABSENT or (value is None and spec.null):
        if spec.default is _REQUIRED:
            _fail(path, "required key is missing")
        if spec.default is None:
            return None  # the builder fills it in
        value = spec.default
    if isinstance(spec, _Object):
        if not isinstance(value, dict):
            _fail(path, f"must be an object, got {_show(value)}")
        for key in value:
            if key not in spec.keys:
                _fail(path + (key,), f"unknown key; the keys allowed here are {', '.join(spec.keys)}")
        values = {key: _check(sub, value.get(key, _ABSENT), path + (key,)) for key, sub in spec.keys.items()}
        return spec.build(values, path) if spec.build else values
    if isinstance(spec, _List):
        if spec.shared and isinstance(value, dict):
            return [_check(spec.item, value, path)] * spec.size
        if not isinstance(value, (list, tuple)):
            _fail(path, f"must be a list, got {_show(value)}")
        if spec.size is not None and len(value) != spec.size:
            _fail(path, f"must have {spec.size} entries, got {len(value)}")
        return [_check(spec.item, item, path + (k,)) for k, item in enumerate(value)]
    return _field(spec, value, path)


def _field(spec: _Field, value, path: tuple):
    kind = spec.kind
    if kind in (_VECTOR, _NUMBERS):
        return _array(value, path, 3 if kind == _VECTOR else None)
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        _fail(path, f"must be one of {', '.join(kind)}, got {_show(value)}")
    if kind in (_STRING, _ROBOT_REF) and isinstance(value, str):
        return value
    if kind == _BOOLEAN and isinstance(value, (bool, np.bool_)):
        return bool(value)
    if kind in (_NUMBER, _INTEGER, _ROBOT_REF) and isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and (kind == _NUMBER or number.is_integer()):
            number = number if kind == _NUMBER else int(value)
            if not (number > spec.min if spec.strict else number >= spec.min):
                _fail(path, f"must be {'>' if spec.strict else '>='} {spec.min:g}, got {number}")
            if spec.check:
                _make(path, spec.check, number)
            return number
    _fail(path, f"must be {kind}, got {_show(value)}")


def _array(value, path: tuple, size: Optional[int]) -> np.ndarray:
    # A boolean is no number here, although np.asarray would turn [true, 0, 0] into [1, 0, 0].
    array = None
    if isinstance(value, (list, tuple, np.ndarray)):
        cells = np.asarray(value, dtype=object)
        if all(isinstance(c, numbers.Real) and not isinstance(c, bool) for c in cells.flat):
            try:
                array = cells.astype(float)
            except OverflowError:
                pass
    if array is None or not np.isfinite(array).all():
        _fail(path, f"must be finite numbers, got {_show(value)}")
    return array if size is None else _sized(array, size, path)


def _sized(array: np.ndarray, size: int, path: tuple) -> np.ndarray:
    if array.shape != (size,):
        _fail(path, f"must have {size} entries, got {_show(array.tolist())}")
    return array


# -- the schema: builders of the checked values, then the table of every key ------


def _make(path: tuple, make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError raised again as a SceneError under `path`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _joint(v: dict, path: tuple) -> Joint:
    k = path[-1]
    parent = k if v["parent"] is None else v["parent"]
    if not 0 <= parent <= k:
        _fail(path + ("parent",), f"must be an earlier link, in 0..{k}, got {parent}")
    return _make(path, Joint, parent=parent, offset=v["offset"], axis=v["axis"], limits=v["limits"])


def _primitive(v: dict, path: tuple) -> Primitive:
    return _make(path, Primitive, kind=Kind(v["kind"]), anchor=v["p"], vectors=v["v"], margin=v["margin"],
                 attachment=v.get("link", WORLD), name=v["name"] or "")


def _obstacle(v: dict, path: tuple) -> Obstacle:
    name = f"obstacle{path[-1]}" if v["name"] is None else v["name"]
    return Obstacle(name, place(_primitive(v, path), v["pose"]))


def _robot(v: dict, path: tuple) -> tuple[RobotModel, RobotState]:
    joints, primitives = v["joints"], v["primitives"]
    for k, prim in enumerate(primitives):
        if not 0 <= prim.attachment <= len(joints):
            _fail(path + ("primitives", k, "link"), f"must be a link, in 0..{len(joints)}, got {prim.attachment}")
    model = _make(path, RobotModel, name=v["name"], joints=joints, base_limits=v["base_limits"], primitives=primitives)
    q = np.zeros(model.n) if v["q"] is None else _sized(v["q"], model.n, path + ("q",))
    return model, RobotState(v["base"], q)


def _scene(v: dict, path: tuple) -> Scene:
    robots, states = [model for model, _ in v["robots"]], [state for _, state in v["robots"]]
    index = {}  # a target names its robot, or gives its index
    for k, model in enumerate(robots):
        if model.name in index:
            _fail(("robots", k, "name"), f"duplicate robot name {model.name!r}")
        index[model.name] = index[k] = k
    steps, weights, settings = v["horizon"]["steps"], v["weights"], v["settings"]
    objectives = Objectives(w_smooth=weights["smoothness"], w_collision=weights["collision"], w_limit=weights["limit"])
    for key, targets in v["objectives"].items():
        for k, t in enumerate(targets):
            where = ("objectives", key, k)
            r = index.get(t["robot"])
            if r is None:
                _fail(where + ("robot",), f"unknown robot {t['robot']!r}")
            if not 1 <= t["step"] <= steps:
                _fail(where + ("step",), f"must be in 1..{steps}, got {t['step']}")
            if key == "state_targets":
                value = _sized(t["value"], robots[r].dim, where + ("value",))
                objectives.state_targets.append(StateTarget(t["step"], r, value, t["weight"]))
            elif not 0 <= t["link"] <= robots[r].n:
                _fail(where + ("link",), f"must be a link of that robot, in 0..{robots[r].n}, got {t['link']}")
            else:
                objectives.ee_targets.append(EETarget(t["step"], r, t["link"], t["local"], t["target"], t["weight"]))
    inner = InnerSettings(w_reg=weights["regularization"], w_con=weights["penalty"],
                          grad_tol=settings["inner_grad_tol"], max_iters=settings["inner_max_iters"])
    outer = OuterSettings(**{key: settings[key] for key in ("max_outer_iters", "grad_tol", "ftol",
                                                            "broad_phase_slack", "damping_init")})
    scene = _make(path, Scene, robots=robots, initial_states=states, obstacles=v["obstacles"], objectives=objectives,
                  num_steps=steps, h=v["horizon"]["h"], inner=inner, outer=outer)
    # Pin the first state to the provided initial configuration unless disabled.
    if settings["pin_initial"]:
        for r, state in enumerate(states):
            scene.objectives.state_targets.append(StateTarget(1, r, state.to_vector(), settings["pin_weight"]))
    return scene


def _setting(cls, name: str, kind: str = _NUMBER) -> _Field:
    """The key of field `name` of a settings class, whose default and range the class holds."""
    return _Field(kind, getattr(cls, name), check=lambda value: cls(**{name: value}))


def _time_step(h: float) -> None:
    # The acceleration stencil weighs x_{i-1} by -2/h²; an infinite weight makes the objective NaN.
    if not (h**2 > 0.0 and math.isfinite(2.0 / h**2)):
        raise ValueError(f"must be large enough that 2/h² is finite, got {h!r}")


_ZERO = (0.0, 0.0, 0.0)
_POSE = _Object({"translation": _Field(_VECTOR, _ZERO), "rotation": _Field(_VECTOR, _ZERO)},
                lambda v, path: Pose(v["translation"], v["rotation"]), null=True)
_BOUND, _RATE = _Field(_NUMBER, None, null=True), _Field(_NUMBER, None, min=0, null=True)
_LIMITS = _Object({"lower": _BOUND, "upper": _BOUND, "velocity": _RATE, "acceleration": _RATE},
                  lambda v, path: _make(path, LimitSpec, **v), default=None, null=True)
_PRIMITIVE = {
    "kind": _Field(tuple(kind.value for kind in Kind)),
    "p": _Field(_VECTOR, _ZERO),
    "v": _Field(_NUMBERS, ()),  # one 3-vector per parameter; the kind sets how many
    "margin": _Field(_NUMBER, 0.0),
    "name": _Field(_STRING, ""),
}
_JOINT = {"parent": _Field(_INTEGER, None), "offset": _POSE, "axis": _Field(_VECTOR), "limits": _LIMITS}
_ROBOT = {
    "name": _Field(_STRING),
    "base": _POSE,
    "base_limits": _List(_LIMITS, size=6, default=(None,) * 6, null=True, shared=True),
    "q": _Field(_NUMBERS, None),
    "joints": _List(_Object(_JOINT, _joint)),
    "primitives": _List(_Object({**_PRIMITIVE, "link": _Field(_INTEGER, 0)}, _primitive)),
}
_TARGET = {"robot": _Field(_ROBOT_REF), "step": _Field(_INTEGER), "weight": _Field(_NUMBER, 1.0, min=0)}
_OBJECTIVES = {
    "state_targets": _List(_Object({**_TARGET, "value": _Field(_NUMBERS)})),
    "ee_targets": _List(
        _Object({**_TARGET, "link": _Field(_INTEGER), "local": _Field(_VECTOR, _ZERO), "target": _Field(_VECTOR)})
    ),
}
_HORIZON = {"steps": _Field(_INTEGER, Scene.num_steps, min=1),
            "h": _Field(_NUMBER, Scene.h, min=0, strict=True, check=_time_step)}
_WEIGHTS = {
    "smoothness": _Field(_NUMBER, Objectives.w_smooth, min=0),
    "collision": _Field(_NUMBER, Objectives.w_collision, min=0),
    "limit": _Field(_NUMBER, Objectives.w_limit, min=0),
    "regularization": _setting(InnerSettings, "w_reg"),
    "penalty": _setting(InnerSettings, "w_con"),
}
_SETTINGS = {
    "max_outer_iters": _setting(OuterSettings, "max_outer_iters", _INTEGER),
    "grad_tol": _setting(OuterSettings, "grad_tol"),
    "ftol": _setting(OuterSettings, "ftol"),
    "broad_phase_slack": _setting(OuterSettings, "broad_phase_slack"),
    "damping_init": _setting(OuterSettings, "damping_init"),
    "inner_grad_tol": _setting(InnerSettings, "grad_tol"),
    "inner_max_iters": _setting(InnerSettings, "max_iters", _INTEGER),
    "pin_initial": _Field(_BOOLEAN, True),
    "pin_weight": _Field(_NUMBER, 1e6, min=0),
}
_SECTIONS = {
    "robots": _List(_Object(_ROBOT, _robot)),
    "obstacles": _List(_Object({**_PRIMITIVE, "name": _Field(_STRING, None), "pose": _POSE}, _obstacle)),
    "horizon": _Object(_HORIZON),
    "objectives": _Object(_OBJECTIVES),
    "weights": _Object(_WEIGHTS),
    "settings": _Object(_SETTINGS),
}
_SCENE = _Object(_SECTIONS, _scene)


def load_scene(text: str) -> Scene:
    """Parse and fully validate a scene document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return scene_from_dict(doc)


def scene_from_dict(doc) -> Scene:
    """Build a validated scene from a parsed JSON object."""
    return _check(_SCENE, doc, ())


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

    state_targets = [
        {
            "step": tgt.step,
            "robot": scene.robots[tgt.robot].name,
            "value": list(tgt.value),
            "weight": tgt.weight,
        }
        for tgt in scene.objectives.state_targets
    ]
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
            # every state target is written above, the step-1 pins included
            "pin_initial": False,
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
