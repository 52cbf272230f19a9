import json
import math

import numpy as np
import pytest

from proxopt.kinematics import Joint
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
    with pytest.raises(SceneError, match="unknown primitive kind"):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["robots"].append(doc["robots"][0])
    with pytest.raises(SceneError, match="duplicate robot name"):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["step"] = 99
    with pytest.raises(SceneError, match="outside 1..10"):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["robot"] = "nope"
    with pytest.raises(SceneError, match="unknown robot"):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["objectives"]["state_targets"][0]["value"] = [0.0, 0.0]
    with pytest.raises(SceneError, match="must have 6 entries"):
        scene_from_dict(doc)

    doc = json.loads(json.dumps(base))
    doc["horizon"]["steps"] = 0
    with pytest.raises(SceneError, match="steps >= 1"):
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
    with pytest.raises(SceneError, match="anchor must have 3 entries"):
        scene_from_dict(doc)


def test_loader_rejects_zero_joint_axis():
    doc = json.loads(scene_text("arm7_box"))
    name = doc["robots"][0]["name"]
    doc["robots"][0]["joints"][2]["axis"] = [0, 0, 0]
    with pytest.raises(SceneError, match=f"robot '{name}': joint axis"):
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
