"""One run of one workload, in a process of its own.

run.py starts this script with single-threaded BLAS. It prints one JSON
record as its last line of output. `--spawned-at` is the CLOCK_MONOTONIC time
at which the parent started the process, so set-up time includes interpreter
start-up and imports. With `--setup-only` the script stops once its inputs
are ready and prints only its set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import proxopt  # noqa: E402
from proxopt import distance, scene_io, sensitivity, trajopt  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = {
    "proxopt.scene_io": scene_io,
    "proxopt.trajopt": trajopt,
    "proxopt.distance": distance,
    "proxopt.sensitivity": sensitivity,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


# -- checks and metrics per workload kind --------------------------------------


def check_plans(workload: str, seed: int, scene, results) -> dict:
    """Exact-oracle clearance of every output, the fingerprint and the failures."""
    failures = []
    clearance_of = {}
    for k, res in enumerate(results):
        if res.error:
            failures.append(f"op {k}: {res.error}")
        if res.states is None:
            continue
        key = hashlib.sha256(res.states.tobytes()).hexdigest()
        if key not in clearance_of:
            clearance_of[key] = workloads.exact_min_clearance(scene, res.states)
        if clearance_of[key] < -workloads.PENETRATION_TOL and not res.error:
            failures.append(f"op {k}: penetration {-clearance_of[key]:.3e} m")
    done = [r for r in results if r.states is not None]
    return {
        "failed": len(failures),
        "failures": failures,
        "exact_min_clearance_m": min(clearance_of.values()) if clearance_of else None,
        "distinct_outputs": len(clearance_of),
        "fingerprint_max_abs_dev": workloads.fingerprint_deviation(workload, seed, scene, done[0].states) if done else None,
    }


def first_quartile(values) -> float:
    return float(np.percentile(values, 25.0))


def plan_metrics(results) -> dict:
    """First quartiles over the repeated, identical operations (see README, Steadiness)."""
    done = [r for r in results if r.states is not None]
    if not done:
        return {}
    op = first_quartile([r.solve_s + r.validate_s for r in done])
    return {
        "solve_s": first_quartile([r.solve_s for r in done]),
        "validate_s": first_quartile([r.validate_s for r in done]),
        "outer_iterations": done[0].iterations,
        "final_objective": done[0].objective,
        "queries_per_s": 1.0 / op,
        "query_p50_us": op * 1e6,
        "query_p99_us": op * 1e6,
        "samples": len(done),
    }


def check_pairs(pool, passes) -> dict:
    oracle = [workloads.exact_distance(*world) for world, _ in pool]
    failures = []
    failed = 0
    for p, res in enumerate(passes):
        for k in range(len(pool)):
            wrong = not res.failed[k] and not workloads.distance_matches(res.d_sq[k], oracle[k])
            if res.failed[k] or wrong:
                failed += 1
                if len(failures) < 10:
                    what = "distance differs from the exact oracle" if wrong else "not converged or non-finite"
                    failures.append(f"pass {p} pair {k}: {what}")
    return {"failed": failed, "failures": failures}


def pair_metrics(pool, passes) -> dict:
    """Each query's fastest time over the repeated, identical passes (see README, Steadiness)."""
    solve = np.min([p.solve_s for p in passes], axis=0)
    derivs = np.min([p.derivs_s for p in passes], axis=0)
    queries = np.min([p.solve_s + p.derivs_s for p in passes], axis=0)
    first = passes[0]
    objective = [distance.eval_U(world, t)[0] for (world, _), t in zip(pool, first.t_star)]
    return {
        "solve_s": float(solve.mean()),
        "validate_s": float(derivs.mean()),
        "outer_iterations": float(first.steps.mean()),
        "final_objective": float(np.mean(objective)),
        "queries_per_s": len(pool) / float(queries.sum()),
        "query_p50_us": float(np.median(queries)) * 1e6,
        "query_p99_us": float(np.percentile(queries, 99.0)) * 1e6,
        "samples": len(queries),
    }


# -- the run -----------------------------------------------------------------


def run(args) -> dict:
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(MODULES, only=("scene_io.load_scene",))
    if args.workload == "pair_queries":
        scene, pool = None, workloads.pair_pool(args.seed)
        unit = lambda: workloads.pair_pass(pool)  # noqa: E731
    else:
        scene, pool = workloads.load_plan(args.workload, args.seed), None
        unit = lambda: workloads.plan_op(scene)  # noqa: E731
    if tracer:
        tracer.uninstall()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}

    # Closed loop, one caller: the next unit starts when the previous ends,
    # as long as it is expected to end within the budget.
    budget = args.seconds / 2 if args.trace else args.seconds
    results, walls = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + walls[-1] <= budget:
        t0 = time.perf_counter()
        results.append(unit())
        walls.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "seed": args.seed,
        "setup_s": setup_s,
        "environment": environment(),
        "units": len(results),
        "unit_walls_s": walls,
    }
    if tracer:
        # The same number of units again, traced, after the untraced pass.
        tracer.install(MODULES)
        traced_walls = []
        for _ in range(len(walls)):
            with tracer.span("benchmark.unit") as span:
                results.append(unit())
            traced_walls.append(tracer.end[span] - tracer.start[span])
        tracer.uninstall()
        units = len(traced_walls)
        candidates = len(scene.candidate_pairs()) if scene is not None else 0
        values, not_measured = spans.layer_metrics(tracer, units, candidates)
        untraced = sum(walls) / units
        traced = sum(traced_walls) / units
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced
        values["trace.overhead_s"] = traced - untraced
        layer_self = {k: v for k, v in values.items() if k.endswith(".self_s") and not k.startswith("scene_io.")}
        record["not_measured"] = not_measured
        record["self_within_untraced_wall"] = max(layer_self.values(), default=0.0) <= untraced
        record["sum_layer_self_s"] = sum(layer_self.values())
        record["metrics"] = values
    if scene is not None:
        checks = check_plans(args.workload, args.seed, scene, results)
        attempted = len(results)
        e2e = plan_metrics(results[: len(walls)])
    else:
        checks = check_pairs(pool, results)
        attempted = len(results) * len(pool)
        e2e = pair_metrics(pool, results[: len(walls)])
    record.update(checks)
    record["attempted"] = attempted
    record["samples"] = e2e.pop("samples", 0)
    if not tracer:
        e2e["peak_rss_mb"] = peak_rss_mb
        e2e["ok_ratio"] = 1.0 - checks["failed"] / attempted
        record["metrics"] = e2e
    record["failed_ratio"] = checks["failed"] / attempted
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if not Path(proxopt.__file__).resolve().is_relative_to(src):
        print(f"proxopt imported from {proxopt.__file__}, not from {src}", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
