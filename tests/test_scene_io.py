import json
import math
import pathlib
import re

import numpy as np
import pytest

from proxopt import scene_io
from proxopt.kinematics import Joint, LimitSpec
from proxopt.poses import Pose
from proxopt.primitives import Kind, Primitive
from proxopt.scene_io import (
    SceneError,
    export_trajectory,
    load_scene,
    parse_trajectory_csv,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)
from proxopt.trajopt import Trajectory
from conftest import scene_text


def test_load_minimal_scene():
    scene = load_scene(scene_text("minimal"))
    assert [r.name for r in scene.robots] == ["ball"]
    assert scene.dim_total == 6
    assert scene.num_steps == 10 and scene.h == 0.1
    assert scene.robots[0].primitives[0].name == "ball_sphere"
    assert np.allclose(scene.initial_states[0].base.translation, 0.0)
    # two explicit targets plus the automatic step-1 pin
    assert len(scene.objectives.state_targets) == 3
    pin = scene.objectives.state_targets[-1]
    assert pin.step == 1 and pin.weight >= 1e5
    assert np.allclose(pin.value, scene.initial_states[0].to_vector())


def test_pin_initial_can_be_disabled():
    doc = json.loads(scene_text("minimal"))
    doc["settings"] = {"pin_initial": False}
    scene = scene_from_dict(doc)
    assert len(scene.objectives.state_targets) == 2


def test_load_full_scene_fields():
    scene = load_scene(scene_text("arm7_box"))
    robot = scene.robots[0]
    assert robot.n == 7 and robot.dim == 13
    assert scene.num_steps == 160
    assert len(scene.obstacles) == 1 and scene.obstacles[0].name == "block"
    assert len(scene.objectives.ee_targets) == 1
    assert scene.objectives.w_collision == 1000.0
    # base is clamped via shared base limits
    assert all(b is not None for b in robot.base_limits)
    assert robot.joints[0].limits is not None


def test_syntax_error_reports_position():
    with pytest.raises(SceneError, match="syntax error at line"):
        load_scene(scene_text("malformed"))


def test_semantic_errors():
    base = json.loads(scene_text("minimal"))

    doc = json.loads(json.dumps(base))
    doc["robots"][0]["primitives"][0]["kind"] = "cylinder"
    with pytest.raises(SceneError, match=re.escape("robots[0].primitives[0].kind: must be one of")):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["robots"].append(doc["robots"][0])
    with pytest.raises(SceneError, match=re.escape("robots[1].name: duplicate robot name")):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["step"] = 99
    with pytest.raises(SceneError, match=re.escape("objectives.state_targets[0].step: must be in 1..10")):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["robot"] = "nope"
    with pytest.raises(SceneError, match=re.escape("objectives.state_targets[0].robot: unknown robot")):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["value"] = [0.0, 0.0]
    with pytest.raises(SceneError, match=re.escape("objectives.state_targets[0].value: must have 6 entries")):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["horizon"]["steps"] = 0
    with pytest.raises(SceneError, match=re.escape("horizon.steps: must be >= 1")):
        scene_from_dict(doc)


def test_box_requires_three_vectors():
    doc = json.loads(scene_text("minimal"))
    doc["robots"][0]["primitives"][0] = {
        "kind": "box",
        "v": [[1, 0, 0], [0, 1, 0]],
        "margin": 0.1,
    }
    with pytest.raises(SceneError):
        scene_from_dict(doc)


def test_joint_rejects_zero_or_non_finite_axis():
    for axis in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="joint axis"):
            Joint(parent=0, offset=Pose(), axis=axis)


def test_primitive_rejects_bad_anchor_shape():
    for anchor in ([0.0, 0.0], [[0.0, 0.0, 0.0]]):
        with pytest.raises(ValueError, match="anchor must have 3 entries"):
            Primitive(Kind.SPHERE, anchor, margin=0.1)
    doc = json.loads(scene_text("minimal"))
    doc["robots"][0]["primitives"][0]["p"] = [0.0, 0.0]
    with pytest.raises(SceneError, match=re.escape("robots[0].primitives[0].p: must have 3 entries")):
        scene_from_dict(doc)


def test_loader_rejects_zero_joint_axis():
    doc = json.loads(scene_text("arm7_box"))
    doc["robots"][0]["joints"][2]["axis"] = [0, 0, 0]
    with pytest.raises(SceneError, match=re.escape("robots[0].joints[2]: joint axis")):
        scene_from_dict(doc)


def test_scalar_fields_accept_numpy_numbers():
    # a document built in Python may hold numpy scalars, which are not int/float subclasses
    doc = json.loads(scene_text("minimal"))
    doc["horizon"] = {"steps": np.int64(12), "h": np.float32(0.25)}
    doc["settings"] = {"max_outer_iters": np.int32(7)}
    scene = scene_from_dict(doc)
    assert scene.num_steps == 12 and scene.h == 0.25 and scene.outer.max_outer_iters == 7


def test_round_trip_is_identity():
    for name in ("minimal", "arm7_box", "capsule_box", "two_box_swap"):
        scene = load_scene(scene_text(name))
        text = save_scene(scene)
        again = load_scene(text)
        assert scene_to_dict(again) == scene_to_dict(scene)


@pytest.mark.parametrize("settings, count", [({"pin_initial": False}, 2), ({"pin_weight": 1000}, 3)])
def test_round_trip_keeps_the_state_targets(settings, count):
    doc = json.loads(scene_text("minimal"))
    doc["settings"] = settings
    scene = scene_from_dict(doc)
    again = load_scene(save_scene(scene))
    targets = [(t.step, t.robot, t.value.tolist(), t.weight) for t in scene.objectives.state_targets]
    assert len(targets) == count
    assert [(t.step, t.robot, t.value.tolist(), t.weight) for t in again.objectives.state_targets] == targets


def test_export_csv_single_step():
    scene = load_scene(scene_text("spheres_static"))
    traj = Trajectory(scene.initial_row()[None, :], scene.h)
    csv = export_trajectory(traj, scene, "csv")
    lines = csv.strip().splitlines()
    assert lines[0].startswith("step,time,robot,base_x")
    assert len(lines) == 3  # header + one row per robot
    assert lines[1].startswith("1,0.0,a,")
    assert lines[2].startswith("1,0.0,b,3.0,")


def test_export_csv_times_and_parse_back():
    scene = load_scene(scene_text("minimal"))
    rng = np.random.default_rng(50)
    states = rng.standard_normal((scene.num_steps, scene.dim_total))
    traj = Trajectory(states, scene.h)
    csv = export_trajectory(traj, scene, "csv")
    lines = csv.strip().splitlines()
    times = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(times, np.arange(10) * 0.1)
    back = parse_trajectory_csv(csv, scene)
    assert np.array_equal(back.states, states)  # exact decimal round trip
    assert back.h == scene.h
    # a comma, a quote or a line break in a robot name is quoted, so the name stays one cell
    for name in ("a,x", 'say "hi"', "two\nlines", ' ,"\n'):
        doc = json.loads(scene_text("minimal"))
        doc["robots"][0]["name"] = name
        for target in doc["objectives"]["state_targets"]:
            target["robot"] = name
        named = scene_from_dict(doc)
        back = parse_trajectory_csv(export_trajectory(traj, named, "csv"), named)
        assert np.array_equal(back.states, states), name


def test_a_robot_name_with_a_bare_carriage_return_round_trips():
    # The csv writer quotes a line feed but not a bare carriage return, which
    # the reader then takes for a line end; that robot's rows are quoted
    # whole, and every other row is byte-identical to a plain name's export.
    doc = json.loads(scene_text("two_box_swap"))
    plain = scene_from_dict(doc)
    doc["robots"][0]["name"] = "a\rb"
    for target in doc["objectives"]["state_targets"]:
        if target["robot"] == "a":
            target["robot"] = "a\rb"
    named = load_scene(json.dumps(doc))
    assert named.robots[0].name == "a\rb"
    rng = np.random.default_rng(51)
    traj = Trajectory(rng.standard_normal((named.num_steps, named.dim_total)), named.h)
    text = export_trajectory(traj, named, "csv")
    back = parse_trajectory_csv(text, named)
    assert np.array_equal(back.states, traj.states)
    lines = text.split("\n")[:-1]  # every row ends in a line feed, and no cell holds one
    plain_lines = export_trajectory(traj, plain, "csv").split("\n")[:-1]
    # after the header, robot a's rows are the odd lines and robot b's the even ones
    kept = [line for k, line in enumerate(plain_lines) if k % 2 == 0]
    assert [line for line in lines if "a\rb" not in line] == kept
    assert sum("a\rb" in line for line in lines) == named.num_steps


def test_export_structured_with_clearances():
    scene = load_scene(scene_text("spheres_static"))
    traj = Trajectory(scene.initial_row()[None, :], scene.h)
    doc = json.loads(export_trajectory(traj, scene, "structured", clearances=[1.5]))
    assert doc["robots"] == ["a", "b"]
    assert doc["steps"] == 1
    assert doc["states"][0]["b"][0] == 3.0
    assert doc["min_clearance_per_step"] == [1.5]

    doc = json.loads(export_trajectory(traj, scene, "structured", clearances=[float("inf")]))
    assert doc["min_clearance_per_step"] == [None]


def test_export_validates_shape_and_format():
    scene = load_scene(scene_text("spheres_static"))
    with pytest.raises(ValueError):
        export_trajectory(Trajectory(np.zeros((1, 5)), 0.1), scene)
    traj = Trajectory(scene.initial_row()[None, :], scene.h)
    with pytest.raises(ValueError):
        export_trajectory(traj, scene, "yaml")


@pytest.mark.parametrize("bad", [math.nan, math.inf, "x", None, [1.0], True, False])
def test_array_fields_reject_non_finite_and_non_numeric_entries(bad):
    # (path to the array in arm7_box, the array with one bad entry, what the error names)
    cases = [
        (("robots", 0, "base", "translation"), [bad, 0, 0], "robots[0].base.translation"),
        (("robots", 0, "base", "rotation"), [0, bad, 0], "robots[0].base.rotation"),
        (("robots", 0, "joints", 1, "axis"), [0, 0, bad], "robots[0].joints[1].axis"),
        (("robots", 0, "primitives", 0, "p"), [bad, 0, 0], "robots[0].primitives[0].p"),
        (("robots", 0, "primitives", 1, "v"), [[0, bad, 0.2]], "robots[0].primitives[1].v"),
        (("robots", 0, "q"), [0, 0, bad, 0, 0, 0, 0], "robots[0].q"),
        (("obstacles", 0, "p"), [bad, 0, 0], "obstacles[0].p"),
        (("objectives", "ee_targets", 0, "local"), [bad, 0, 0], "objectives.ee_targets[0].local"),
        (("objectives", "ee_targets", 0, "target"), [0, bad, 0], "objectives.ee_targets[0].target"),
    ]
    for path, value, named in cases:
        doc = json.loads(scene_text("arm7_box"))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SceneError, match="^" + re.escape(named + ": must be finite numbers")):
            scene_from_dict(doc)
    doc = json.loads(scene_text("arm7_box"))
    doc["objectives"]["state_targets"] = [{"robot": 0, "step": 2, "value": [0] * 12 + [bad]}]
    with pytest.raises(SceneError, match="^" + re.escape("objectives.state_targets[0].value: must be finite numbers")):
        scene_from_dict(doc)


@pytest.mark.parametrize(
    "name, keys, value, message",
    [
        ("arm7_box", ("robots", 0, "joints", 2), 5, "robots[0].joints[2]: must be an object"),
        ("arm7_box", ("robots", 0, "primitives", 1), "wrist", "robots[0].primitives[1]: must be an object"),
        ("two_sphere_swap", ("robots", 1, "name"), ["b"], "robots[1].name: must be a string"),
        (
            "two_sphere_swap",
            ("objectives", "state_targets", 0, "robot"),
            ["a"],
            "objectives.state_targets[0].robot: must be a robot name or index",
        ),
        ("arm7_box", ("obstacles", 0, "name"), ["block"], "obstacles[0].name: must be a string"),
        ("minimal", ("settings", "max_outer_iter"), 1, "settings.max_outer_iter: unknown key"),
        ("two_sphere_swap", ("settings", "broad_phase_slack"), -0.5, "settings.broad_phase_slack: "),
        ("two_sphere_swap", ("settings", "damping_init"), 0, "settings.damping_init: "),
        ("minimal", ("weights", "penalty"), 0, "weights.penalty: "),
        ("minimal", ("weights", "smoothness"), -1, "weights.smoothness: must be >= 0"),
        ("minimal", ("objectives", "state_targets", 1, "weight"), -10, "objectives.state_targets[1].weight: must be >= 0"),
        ("minimal", ("settings", "pin_weight"), -1, "settings.pin_weight: must be >= 0"),
        ("minimal", ("settings", "pin_initial"), 0, "settings.pin_initial: must be a boolean"),
        ("arm7_box", ("robots", 0, "joints", 0, "limits", "velocity"), -1, "robots[0].joints[0].limits.velocity: must be >= 0"),
        ("arm7_box", ("robots", 0, "base_limits", "acceleration"), -1, "robots[0].base_limits.acceleration: must be >= 0"),
        ("arm7_box", ("robots", 0, "joints", 3, "limits", "lower"), 9, "robots[0].joints[3].limits: lower bound exceeds"),
        ("arm7_box", ("robots", 0, "primitives", 0, "margin"), 0, "robots[0].primitives[0]: capsule margin must be positive"),
        ("arm7_box", ("robots", 0, "primitives", 1, "link"), 8, "robots[0].primitives[1].link: must be a link"),
        ("arm7_box", ("robots", 0, "joints", 4, "parent"), 5, "robots[0].joints[4].parent: must be an earlier link"),
        ("arm7_box", ("objectives", "ee_targets", 0, "link"), 8, "objectives.ee_targets[0].link: must be a link"),
        # h² underflows to 0, or 2/h² overflows: the stencils would divide by zero or weigh by inf
        ("arm7_box", ("horizon", "h"), 1e-300, "horizon.h: must be large enough that 2/h² is finite"),
        ("arm7_box", ("horizon", "h"), 1e-160, "horizon.h: must be large enough that 2/h² is finite"),
        # h² overflows, where h**2 raises OverflowError
        ("arm7_box", ("horizon", "h"), 1e200, "horizon.h: must be large enough that 2/h² is finite and small enough"),
        # a solve of no iterations plans nothing, and a negative tolerance never stops one
        ("minimal", ("settings", "max_outer_iters"), 0, "settings.max_outer_iters: max_outer_iters must be at least 1"),
        ("minimal", ("settings", "max_outer_iters"), -3, "settings.max_outer_iters: max_outer_iters must be at least 1"),
        ("minimal", ("settings", "grad_tol"), -1, "settings.grad_tol: grad_tol must be non-negative"),
        ("minimal", ("settings", "ftol"), -1, "settings.ftol: ftol must be non-negative"),
        # a pair is named by its primitives' names, so they are unique
        ("two_sphere_swap", ("robots", 1, "primitives", 0, "name"), "a_sphere",
         "robots[1].primitives[0].name: duplicate primitive name 'a_sphere'"),
        ("capsule_box", ("obstacles", 0, "name"), "stick_capsule",
         "obstacles[0].name: duplicate primitive name 'stick_capsule'"),
    ],
)
def test_a_rejected_field_is_named_by_its_json_path(name, keys, value, message):
    doc = json.loads(scene_text(name))
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[keys[-1]] = value
    with pytest.raises(SceneError, match="^" + re.escape(message)):
        scene_from_dict(doc)


def test_a_given_name_may_not_repeat_a_generated_one():
    # robot a's unnamed sphere is a.0.0, and the second unnamed obstacle obstacle1
    doc = json.loads(scene_text("two_sphere_swap"))
    del doc["robots"][0]["primitives"][0]["name"]
    doc["robots"][1]["primitives"][0]["name"] = "a.0.0"
    with pytest.raises(SceneError, match="^" + re.escape("robots[1].primitives[0].name: duplicate primitive name 'a.0.0'")):
        scene_from_dict(doc)
    doc = json.loads(scene_text("capsule_box"))
    doc["obstacles"] = [{**doc["obstacles"][0], "name": "obstacle1"}, {"kind": "sphere", "margin": 0.1}]
    with pytest.raises(SceneError, match="^" + re.escape("obstacles[1].name: duplicate primitive name 'obstacle1'")):
        scene_from_dict(doc)
    del doc["obstacles"][0]["name"]
    assert [ref.name for ref in scene_from_dict(doc).primitive_refs()][-2:] == ["obstacle0", "obstacle1"]


def test_unknown_key_lists_the_allowed_keys():
    doc = json.loads(scene_text("arm7_box"))
    doc["robots"][0]["joints"][1]["axes"] = [0, 0, 1]
    with pytest.raises(SceneError) as info:
        scene_from_dict(doc)
    assert str(info.value) == (
        "robots[0].joints[1].axes: unknown key; the keys allowed here are parent, offset, axis, limits"
    )


def test_base_limits_as_one_object_or_a_list_of_six():
    doc = json.loads(scene_text("arm7_box"))
    shared = scene_from_dict(doc).robots[0].base_limits
    doc["robots"][0]["base_limits"] = [{"lower": 0.0, "upper": 0.0}] * 3 + [None, None, {}]
    listed = scene_from_dict(doc).robots[0].base_limits
    assert shared == (LimitSpec(0.0, 0.0),) * 6
    assert listed == (LimitSpec(0.0, 0.0),) * 3 + (None, None, LimitSpec())
    doc["robots"][0]["base_limits"] = [None] * 5
    with pytest.raises(SceneError, match=re.escape("robots[0].base_limits: must have 6 entries")):
        scene_from_dict(doc)


README = pathlib.Path(__file__).parent.parent / "README.md"


def _schema_keys(spec):
    if isinstance(spec, scene_io._List):
        return _schema_keys(spec.item)
    if isinstance(spec, scene_io._Object):
        return set(spec.keys).union(*(_schema_keys(sub) for sub in spec.keys.values()))
    return set()


def test_readme_scene_format_matches_the_loader():
    section = README.read_text().split("## Scene format", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert load_scene(example).num_steps == 10
    undocumented = {key for key in _schema_keys(scene_io._SCENE) if f"`{key}`" not in section}
    assert not undocumented
