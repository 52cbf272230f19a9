"""proxopt benchmark: one run of one workload.

    python3 perfbench/run.py --workload arm7_plan --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. Workloads: arm7_plan, box_swap_plan,
pair_queries (see perfbench/README.md). The workload runs in a fresh worker
process with single-threaded BLAS; with `--trace 0` two more fresh processes
only set up before it and two after it, and `setup_s` is the median of the
five set-up times.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with `--trace 0`, its per-layer metrics with `--trace 1`. The lines before it
repeat every metric with its unit, plus the failure ratio, the checks and the
environment. The full record is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes on each side of the worker, so that the five set-up times
# span the run rather than one moment of the host's speed.
SETUP_PROBES_EACH_SIDE = 2
WORKER_TIMEOUT_S = 160
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(args, extra=()) -> dict:
    """Run the worker in a fresh process and return its JSON record."""
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proxopt" / "__init__.py").is_file():
        raise BenchError(f"no proxopt sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")

    probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    setup = [spawn(args, ["--setup-only"])["setup_s"] for _ in range(probes)]
    record = spawn(args)
    setup.append(record["setup_s"])
    setup += [spawn(args, ["--setup-only"])["setup_s"] for _ in range(probes)]
    record["setup_samples_s"] = setup
    produced = dict(record["metrics"], setup_s=statistics.median(setup))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in produced}
    not_measured = [m["name"] for m in wanted if m["name"] not in produced]
    record["metrics"] = metrics

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  units {record['units']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {fmt(m['value']):>14s} {m['unit']}")
    for name in not_measured:
        print(f"  {name:40s} {'not measured':>14s}")
    print(f"  {'failed_ratio':40s} {fmt(record['failed_ratio']):>14s} ratio "
          f"({record['failed']} of {record['attempted']})")
    for key in ("samples", "exact_min_clearance_m", "fingerprint_max_abs_dev", "distinct_outputs",
                "self_within_untraced_wall", "sum_layer_self_s"):
        if key in record:
            print(f"  {key:40s} {fmt(record[key]):>14s}")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  environment {json.dumps(record['environment'], sort_keys=True)}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if not_measured and not args.trace:
        # Only possible when no operation succeeded; the failures are above.
        raise BenchError(f"end-to-end metrics not produced: {', '.join(not_measured)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
