"""Command-line interface.

Exit codes: 0 success, 1 input error (usage, scene or output file), 2
non-convergence (trajectory and report written) or a failed inner solve
(nothing written), 3 derivative-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bench as bench_mod
from . import gradcheck as gradcheck_mod
from .distance import solve_inner
from .scene_io import SceneError, export_trajectory, parse_scene_text, scene_from_dict
from .trajopt import Scene, SolveError, place_states, solve, validate


def _load_scene_file(path: str, overrides: list[str]) -> Scene:
    with open(path) as f:
        doc = parse_scene_text(f.read())
    for item in overrides:
        if "=" not in item:
            raise SceneError(f"override {item!r} must look like section.key=value")
        key, raw = item.split("=", 1)
        *path, last = key.split(".")
        node = doc
        for part in path:
            node = node.setdefault(part, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise SceneError(f"override {key!r}: {'.'.join(path) or 'the scene'} is not an object")
        try:
            node[last] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SceneError(f"override {key!r}: {raw!r} is not a JSON value") from exc
    return scene_from_dict(doc)


def _finite(value):
    """A number for strict JSON: NaN and the infinities become None (null)."""
    return value if math.isfinite(value) else None


def cmd_plan(args) -> int:
    scene = _load_scene_file(args.scene, args.set or [])
    try:
        traj, report = solve(scene)
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    audit = validate(scene, traj)
    clearances = audit.min_clearance_per_step
    text = export_trajectory(traj, scene, args.format, clearances=clearances)
    with open(args.output, "w") as f:
        f.write(text)
    run_report = {
        "converged": report.converged,
        "reason": report.reason,
        "num_iterations": report.num_iterations,
        "final_objective": _finite(report.final_objective),
        "objective_history": [_finite(it.objective) for it in report.iterations],
        "iterations": [
            {name: _finite(value) for name, value in dataclasses.asdict(it).items()} for it in report.iterations
        ],
        "min_clearance_per_step": [_finite(c) for c in clearances],
        "certified_pairs": audit.certified_pairs,
        "clearance_violations": len(audit.violations),
        "limit_violations": len(audit.limit_violations),
    }
    with open(args.output + ".report.json", "w") as f:
        json.dump(run_report, f, indent=2, allow_nan=False)
    print(
        f"{'converged' if report.converged else 'not converged'} ({report.reason}) "
        f"after {report.num_iterations} iterations, objective {report.final_objective:.6g}",
        file=sys.stderr,
    )
    return 0 if report.converged else 2


def cmd_distance(args) -> int:
    scene = _load_scene_file(args.scene, args.set or [])
    name_a, _, name_b = args.pair.partition(":")
    refs = scene.primitive_refs()
    by_name = {r.name: k for k, r in enumerate(refs)}
    if name_a not in by_name or name_b not in by_name:
        known = ", ".join(sorted(by_name))
        raise SceneError(f"unknown pair {args.pair!r}; primitives are: {known}")
    placement = place_states(scene, scene.initial_row()[None])
    a, b = by_name[name_a], by_name[name_b]
    res = solve_inner((placement.world(0, a), placement.world(0, b)), scene.inner)
    dist = math.sqrt(res.d_sq)
    clearance = dist - refs[a].margin - refs[b].margin
    if args.machine:
        print(
            json.dumps(
                {
                    "pair": [name_a, name_b],
                    "d_sq": res.d_sq,
                    "distance": dist,
                    "clearance": clearance,
                    "t_star": list(res.t_star),
                    "closest_a": list(res.closest_a),
                    "closest_b": list(res.closest_b),
                    "newton_steps": res.newton_steps,
                    "converged": res.converged,
                }
            )
        )
    else:
        print(f"pair:         {name_a} : {name_b}")
        print(f"d_sq:         {res.d_sq:.12g}")
        print(f"distance:     {dist:.12g}")
        print(f"clearance:    {clearance:.12g}")
        print(f"t_star:       {np.array2string(res.t_star, precision=8)}")
        print(f"closest_a:    {np.array2string(res.closest_a, precision=8)}")
        print(f"closest_b:    {np.array2string(res.closest_b, precision=8)}")
        print(f"newton_steps: {res.newton_steps}")
    return 0


def cmd_gradcheck(args) -> int:
    scene = _load_scene_file(args.scene, args.set or [])
    report = gradcheck_mod.run_gradcheck(scene, seed=args.seed, tol=args.tol)
    print(f"seed: {report.seed}  tolerance: {report.tol:g}")
    for section in report.sections:
        if section.skipped:
            print(f"{section.name}: {section.skipped}")
        else:
            status = "ok" if section.passed(report.tol) else "FAIL"
            print(
                f"{section.name}: worst relative error {section.worst_rel_error:.3e} "
                f"over {section.checked} checks [{status}]"
            )
    if not report.passed:
        print(f"failing quantities: {', '.join(report.failures())}", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args) -> int:
    if args.mode == "pairs":
        rows = bench_mod.bench_pairs(reps=args.reps, seed=args.seed)
    else:
        rows = bench_mod.bench_approx(seed=args.seed)
    sys.stdout.write(f"# seed={args.seed}\n")
    sys.stdout.write(bench_mod.rows_to_csv(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as input errors; argparse's own 2 means non-convergence here. Subparsers share the class."""

    def error(self, message):
        self.exit(1, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _at_least(lowest, convert):
    """An argparse type: a finite number, read by `convert`, of at least `lowest`."""

    def number(text: str):
        value = convert(text)
        if not lowest <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {lowest}, got {text!r}")
        return value

    return number


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="proxopt",
        description="Differentiable primitive distances and collision-free trajectory optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve a scene and export the trajectory")
    p_plan.add_argument("scene")
    p_plan.add_argument("-o", "--output", required=True)
    p_plan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_plan.set_defaults(func=cmd_plan)

    p_dist = sub.add_parser("distance", help="distance query between two primitives")
    p_dist.add_argument("scene")
    p_dist.add_argument("--pair", required=True, metavar="A:B")
    p_dist.add_argument("--machine", action="store_true", help="emit JSON")
    p_dist.set_defaults(func=cmd_distance)

    p_grad = sub.add_parser("gradcheck", help="audit analytic derivatives against finite differences")
    p_grad.add_argument("scene")
    p_grad.add_argument("--tol", type=_at_least(0.0, float), default=1e-3)
    p_grad.add_argument("--seed", type=_at_least(0, int), default=0)
    p_grad.set_defaults(func=cmd_gradcheck)

    for p in (p_plan, p_dist, p_grad):
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a scene entry, e.g. weights.smoothness=0.2")

    p_bench = sub.add_parser("bench", help="benchmarks (CSV on stdout)")
    p_bench.add_argument("mode", choices=["pairs", "approx"])
    p_bench.add_argument("--reps", type=_at_least(1, int), default=1000)
    p_bench.add_argument("--seed", type=_at_least(0, int), default=0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
