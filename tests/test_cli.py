import json
import math

import numpy as np
import pytest

from proxopt import gradcheck as gradcheck_mod
from proxopt.cli import main
from proxopt.distance import brute_force_distance
from proxopt.scene_io import load_scene, parse_trajectory_csv
from proxopt.trajopt import place_states, solve, validate
from conftest import SCENES, scene_text


def _scene_path(name):
    return str(SCENES / f"{name}.json")


def test_plan_writes_trajectory_and_report(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["plan", _scene_path("minimal"), "-o", str(out)])
    assert code == 0
    assert "converged" in capsys.readouterr().err

    scene = load_scene(scene_text("minimal"))
    traj = parse_trajectory_csv(out.read_text(), scene)
    assert traj.states.shape == (10, 6)
    # the plan respects both state targets
    assert np.linalg.norm(traj.states[0]) < 1e-3
    assert abs(traj.states[-1, 0] - 1.0) < 1e-3

    report = json.loads((tmp_path / "traj.csv.report.json").read_text())
    assert report["converged"] is True
    assert report["num_iterations"] >= 1
    assert len(report["min_clearance_per_step"]) == 10
    # a single-robot sphere scene has no pairs: clearances are null (infinite)
    assert all(c is None for c in report["min_clearance_per_step"])
    assert (report["certified_pairs"], report["clearance_violations"], report["limit_violations"]) == (0, 0, 0)
    history = report["objective_history"]
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_plan_structured_output(tmp_path):
    out = tmp_path / "traj.json"
    code = main(["plan", _scene_path("minimal"), "-o", str(out), "--format", "json"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["robots"] == ["ball"] and doc["steps"] == 10


def test_plan_input_errors(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    assert main(["plan", _scene_path("malformed"), "-o", out]) == 1
    assert main(["plan", str(tmp_path / "missing.json"), "-o", out]) == 1
    for bad in (
        "bogus",
        "weights.smoothness=abc",
        "horizon.steps.x=1",
        "horizon=5",
        "weights=[1]",
        'objectives.state_targets=[{"robot":0}]',
        'horizon.steps="abc"',
        "weights.smoothness=null",
        "settings.max_outer_iters=[1]",
        'objectives.state_targets=[{"robot":0,"value":[0,0,0,0,0,0],"step":"x"}]',
        "weights.smoothness=NaN",
        'objectives.state_targets=[{"robot":["a"],"value":[0,0,0,0,0,0],"step":2}]',
        'robots=[{"name":["a"]}]',
        "settings.max_outer_iter=1",
        "settings.broad_phase_slack=-0.5",
        "horizon.h=1e-300",
        "horizon.h=1e-160",
        "settings.max_outer_iters=-3",
        "settings.grad_tol=-1",
        "settings.ftol=-1",
    ):
        assert main(["plan", _scene_path("minimal"), "-o", out, "--set", bad]) == 1
        assert bad.split("=")[0] in capsys.readouterr().err
    # a NaN or an infinity in an array field is an input error naming the field
    nan_p = json.loads(scene_text("two_sphere_swap"))
    nan_p["robots"][0]["primitives"][0]["p"] = [math.nan, 0, 0]
    inf_base = json.loads(scene_text("minimal"))
    inf_base["robots"][0]["base"]["translation"] = [math.inf, 0.0, 0.0]
    # so is a boolean mixed into numbers, which would otherwise load as 0 or 1
    bool_p = json.loads(scene_text("two_sphere_swap"))
    bool_p["robots"][0]["primitives"][0]["p"] = [True, 0, 0]
    for name, doc, named in (
        ("nan_p", nan_p, "robots[0].primitives[0].p"),
        ("inf_base", inf_base, "robots[0].base.translation"),
        ("bool_p", bool_p, "robots[0].primitives[0].p"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path), "-o", out]) == 1
        assert named in capsys.readouterr().err
    nan_target = 'objectives.state_targets=[{"robot":0,"value":[NaN,0,0,0,0,0],"step":2}]'
    assert main(["plan", _scene_path("minimal"), "-o", out, "--set", nan_target]) == 1
    assert "objectives.state_targets[0].value" in capsys.readouterr().err


def test_plan_report_exports_iteration_stats_as_strict_json(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["plan", _scene_path("two_box_swap"), "-o", str(out)]) == 0

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "t.csv.report.json").read_text(), parse_constant=reject)
    scene = load_scene(scene_text("two_box_swap"))
    _, solved = solve(scene)
    assert report["num_iterations"] == solved.num_iterations == len(report["iterations"])
    for row, stats in zip(report["iterations"], solved.iterations):
        assert set(row) == {
            "objective", "grad_inf", "damping", "alpha", "min_clearance", "max_violation", "active_pairs",
            "trials", "cheap_rejects", "bound_rejects",
        }
        for name, value in row.items():
            expected = getattr(stats, name)
            assert value == (expected if math.isfinite(expected) else None)
    assert report["objective_history"] == [row["objective"] for row in report["iterations"]]


def test_plan_report_with_no_pairs_writes_null_clearances(tmp_path):
    # a single sphere has no pairs, so every clearance in the report is infinite
    out = tmp_path / "t.csv"
    assert main(["plan", _scene_path("minimal"), "-o", str(out)]) == 0

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "t.csv.report.json").read_text(), parse_constant=reject)
    assert all(row["min_clearance"] is None for row in report["iterations"])


def test_plan_report_clearances_are_validate_bounds(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["plan", _scene_path("two_box_swap"), "-o", str(out)]) == 0
    report = json.loads((tmp_path / "t.csv.report.json").read_text())
    scene = load_scene(scene_text("two_box_swap"))
    traj, _ = solve(scene)
    audit = validate(scene, traj)
    assert report["min_clearance_per_step"] == audit.min_clearance_per_step
    # every candidate pair at every step is certified: 1 pair over 50 steps
    assert report["certified_pairs"] == audit.certified_pairs == 50
    assert report["clearance_violations"] == len(audit.violations) > 0
    assert report["limit_violations"] == len(audit.limit_violations)


def test_plan_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        ["plan", _scene_path("two_box_swap"), "-o", str(out), "--set", "settings.max_outer_iters=1"]
    )
    assert code == 2
    # the trajectory and report are still written
    report = json.loads((tmp_path / "t.csv.report.json").read_text())
    assert report["converged"] is False and report["num_iterations"] == 1
    assert len(report["iterations"]) == 1
    assert out.exists()


def test_plan_with_a_failed_inner_solve_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(["plan", _scene_path("two_box_swap"), "-o", str(out), "--set", "settings.inner_max_iters=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: inner solve failed for pair a_box:b_box at step 13\n"
    assert not out.exists() and not (tmp_path / "t.csv.report.json").exists()


@pytest.mark.parametrize("output", ["missing/t.csv", "."])
def test_plan_to_an_unwritable_output_is_an_input_error(tmp_path, capsys, output):
    # a missing directory or a directory: found when the solved plan is written
    code = main(["plan", _scene_path("minimal"), "-o", str(tmp_path / output)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, named",
    [
        ([], "required: command"),
        (["plan", _scene_path("minimal")], "required: -o/--output"),
        (["plan", _scene_path("minimal"), "-o", "t.csv", "--format", "yaml"], "argument --format"),
        (["bench", "pairs", "--reps", "0"], "argument --reps: must be finite and >= 1, got '0'"),
        (["bench", "pairs", "--reps", "-5"], "argument --reps: must be finite and >= 1, got '-5'"),
        (["bench", "pairs", "--seed", "-1"], "argument --seed: must be finite and >= 0, got '-1'"),
        (["bench", "approx", "--seed", "-1"], "argument --seed: must be finite and >= 0, got '-1'"),
        (["bench", "approx", "--seed", "x"], "argument --seed: invalid number value: 'x'"),
        (["gradcheck", _scene_path("minimal"), "--seed", "-1"], "argument --seed: must be finite and >= 0"),
        (["gradcheck", _scene_path("minimal"), "--tol", "nan"], "argument --tol: must be finite and >= 0.0"),
        (["gradcheck", _scene_path("minimal"), "--tol", "inf"], "argument --tol: must be finite and >= 0.0"),
        (["gradcheck", _scene_path("minimal"), "--tol=-1e-3"], "argument --tol: must be finite and >= 0.0"),
    ],
)
def test_usage_errors_are_input_errors(argv, named, capsys):
    # argparse exits 2, which here means "did not converge"
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert "error: " in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("weight", ["smoothness", "collision"])
def test_plan_with_a_non_finite_newton_system_exits_2(tmp_path, capsys, weight):
    out = tmp_path / "t.csv"
    code = main(["plan", _scene_path("two_sphere_swap"), "-o", str(out), "--set", f"weights.{weight}=1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "damping_overflow" in err
    report = json.loads((tmp_path / "t.csv.report.json").read_text())
    assert report["reason"] == "damping_overflow" and report["num_iterations"] == 1
    assert out.exists()


def test_distance_static_spheres(capsys):
    code = main(["distance", _scene_path("spheres_static"), "--pair", "a_sphere:b_sphere"])
    assert code == 0
    text = capsys.readouterr().out
    assert "d_sq:         9" in text
    assert "distance:     3" in text
    assert "clearance:    1.5" in text
    assert "newton_steps: 0" in text


def test_distance_machine_output(capsys):
    code = main(
        ["distance", _scene_path("parallel_capsules"), "--pair", "a_capsule:b_capsule", "--machine"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert abs(doc["distance"] - 1.0) < 1e-6
    assert abs(doc["clearance"] - 0.8) < 1e-6
    assert np.allclose(doc["t_star"], [0.5, 0.5], atol=1e-6)
    assert np.allclose(np.subtract(doc["closest_b"], doc["closest_a"]), [0, 0, 1], atol=1e-6)


def test_distance_matches_oracle(capsys):
    code = main(["distance", _scene_path("capsule_box"), "--pair", "stick_capsule:crate_box", "--machine"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    scene = load_scene(scene_text("capsule_box"))
    placement = place_states(scene, scene.initial_row()[None])
    oracle = brute_force_distance((placement.world(0, 0), placement.world(0, 1)), 16, passes=6)
    assert abs(math.sqrt(doc["d_sq"]) - math.sqrt(oracle)) < 1e-3


def test_distance_unknown_pair(capsys):
    code = main(["distance", _scene_path("spheres_static"), "--pair", "a_sphere:nothing"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown pair" in err and "b_sphere" in err


def test_distance_rejects_an_obstacle_name_that_is_not_a_string(tmp_path, capsys):
    doc = json.loads(scene_text("capsule_box"))
    doc["obstacles"][0]["name"] = ["pillar"]
    path = tmp_path / "listed_name.json"
    path.write_text(json.dumps(doc))
    assert main(["distance", str(path), "--pair", "stick_capsule:crate_box"]) == 1
    assert capsys.readouterr().err.startswith("error: obstacles[0].name: must be a string")


def test_distance_rejects_a_repeated_primitive_name(tmp_path, capsys):
    # with both spheres named a_sphere, the pair a_sphere:a_sphere would be b's sphere against itself
    doc = json.loads(scene_text("two_sphere_swap"))
    doc["robots"][1]["primitives"][0]["name"] = "a_sphere"
    path = tmp_path / "twins.json"
    path.write_text(json.dumps(doc))
    assert main(["distance", str(path), "--pair", "a_sphere:a_sphere"]) == 1
    assert capsys.readouterr().err.startswith("error: robots[1].primitives[0].name: duplicate primitive name")


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", _scene_path("capsule_box"), "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "inner_gradient" in out and "sensitivity" in out and "distance_gradient" in out
    assert "FAIL" not in out


def test_gradcheck_skips_empty_parameter_space(capsys):
    code = main(["gradcheck", _scene_path("spheres_static")])
    assert code == 0
    assert "sensitivity: empty parameter space, skipped" in capsys.readouterr().out


def test_gradcheck_detects_wrong_gradient(monkeypatch, capsys):
    # the distance gradient gradcheck audits is the planner's (trajopt._lane_gradient)
    original = gradcheck_mod._lane_gradient

    def flipped(*args, **kwargs):
        return -original(*args, **kwargs)

    monkeypatch.setattr(gradcheck_mod, "_lane_gradient", flipped)
    code = main(["gradcheck", _scene_path("capsule_box")])
    assert code == 3
    captured = capsys.readouterr()
    assert "distance_gradient" in captured.err
    assert "inner_gradient" not in captured.err  # only the broken quantity is named


def test_bench_pairs_csv(capsys):
    code = main(["bench", "pairs", "--reps", "5", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1].startswith("kind_a,kind_b,solves,min_steps,max_steps,failures")
    assert len(lines) == 12  # header lines + 10 kind combinations
    for line in lines[2:]:
        cells = line.split(",")
        assert int(cells[2]) == 5 and int(cells[5]) == 0
