"""Seeded mutation fuzzing of the scene loader over the scenes in tests/scenes/.

Each mutant drops a key, changes a value's type, puts NaN or an infinity into
an array, gives a list the wrong length, or adds an unknown key. The loader
must accept it or raise SceneError; what it accepts must round-trip and plan
(a short solve may raise SolveError, nothing else, and its plan must
validate), and what it rejects must end the CLI with exit 1 and a one-line
error.
"""

import copy
import dataclasses
import json
import math
import random

import pytest

from proxopt.cli import main
from proxopt.scene_io import SceneError, load_scene, save_scene, scene_from_dict, scene_to_dict
from proxopt.trajopt import SolveError, solve, validate
from conftest import SCENES

NAMES = sorted(path.stem for path in SCENES.glob("*.json") if path.stem != "malformed")
MUTANTS_PER_SCENE = 300
CLI_SAMPLE = 10  # rejected mutants of each scene run through `proxopt plan`
PLAN_SAMPLE = 10  # accepted mutants of each scene solved for PLAN_ITERS iterations and validated
PLAN_ITERS = 3
RETYPED = ("text", None, True, [], {})


def _entries(node):
    """Every (container, key) pair in a JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in list(keys):
        yield node, key
        yield from _entries(node[key])


def _is_numbers(value):
    return isinstance(value, list) and all(isinstance(v, (int, float)) or _is_numbers(v) for v in value)


def _mutate(doc, rng: random.Random) -> str:
    """Apply one random mutation to `doc` in place and say which."""
    entries = list(_entries(doc))
    kind = rng.choice(("drop", "retype", "nonfinite", "length", "unknown"))
    if kind == "drop":
        container, key = rng.choice([(c, k) for c, k in entries if isinstance(c, dict)])
        del container[key]
    elif kind == "retype":
        container, key = rng.choice(entries)
        container[key] = copy.deepcopy(rng.choice([v for v in RETYPED if type(v) is not type(container[key])]))
    elif kind == "nonfinite":
        arrays = [c[k] for c, k in entries if _is_numbers(c[k]) and c[k]]
        if not arrays:
            return _mutate(doc, rng)
        array = rng.choice(arrays)
        while isinstance(array[0], list):
            array = rng.choice(array)
        array[rng.randrange(len(array))] = rng.choice((math.nan, math.inf, -math.inf))
    elif kind == "length":
        array = rng.choice([c[k] for c, k in entries if isinstance(c[k], list) and c[k]])
        if rng.random() < 0.5:
            array.pop()
        else:
            array.append(copy.deepcopy(array[-1]))
    else:
        objects = [doc] + [c[k] for c, k in entries if isinstance(c[k], dict)]
        rng.choice(objects)["bogus_key"] = 1
    return kind


@pytest.mark.parametrize("name", NAMES)
def test_mutated_scenes_load_or_raise_scene_error(name, tmp_path, capsys):
    rng = random.Random(f"scene-fuzz-{name}")
    original = json.loads((SCENES / f"{name}.json").read_text())
    rejected, accepted = [], []
    for _ in range(MUTANTS_PER_SCENE):
        doc = copy.deepcopy(original)
        kind = _mutate(doc, rng)
        text = json.dumps(doc)
        try:
            scene = scene_from_dict(json.loads(text))
        except SceneError:
            rejected.append(text)
            continue
        again = load_scene(save_scene(scene))
        assert scene_to_dict(again) == scene_to_dict(scene), (kind, text)
        accepted.append(scene)
    assert rejected, "no mutant was rejected"

    out = str(tmp_path / "plan.csv")
    for k, text in enumerate(rng.sample(rejected, min(CLI_SAMPLE, len(rejected)))):
        path = tmp_path / f"mutant{k}.json"
        path.write_text(text)
        assert main(["plan", str(path), "-o", out]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (text, err)

    for scene in rng.sample(accepted, min(PLAN_SAMPLE, len(accepted))):
        try:
            scene.outer = dataclasses.replace(scene.outer, max_outer_iters=PLAN_ITERS)
            traj, _ = solve(scene)
        except SolveError:
            continue
        validate(scene, traj)
