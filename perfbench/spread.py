"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pair_queries --seeds 10 [--sets 2]

Runs perfbench/run.py once per seed (seeds 1..N) and prints, for every
end-to-end metric, the median, the quartiles as `statistics.quantiles(n=4)`
gives them, the spread (third minus first quartile, as a share of the median)
and the metric's bound from BENCHMARK.json. With `--sets 2` the seeds run
twice and the drift of the second set's median from the first is printed too.
Nothing here is part of a benchmark run; it is the check that the benchmark is
steady enough for its bounds. The summary is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# Fields of the run record that must repeat exactly for the same seed.
EXACT = ("failed_ratio", "fingerprint_max_abs_dev", "exact_min_clearance_m")


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    """The result line, the exact-repeat fields and the wall time of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.monotonic() - start
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), {k: record.get(k) for k in EXACT}, wall


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload:
        sets, exact, walls = [], [], []
        for _ in range(args.sets):
            runs = [one_run(workload, seed, args.seconds) for seed in range(1, args.seeds + 1)]
            ok = ok and all(r["correct"] for r, _, _ in runs)
            sets.append({name: [r["metrics"][name]["value"] for r, _, _ in runs] for name in bounds})
            exact.append([fields for _, fields, _ in runs])
            walls += [wall for _, _, wall in runs]
        print(f"{workload}: {args.seeds} seeds x {args.sets} set(s), all correct: {ok}, "
              f"longest run {max(walls):.1f} s")
        if len(exact) == 2:
            print(f"  {', '.join(EXACT)} repeat exactly: {exact[0] == exact[1]}")
        summary = {"exact_fields": exact, "run_walls_s": walls}
        for name, m in bounds.items():
            stats = [summarize(s[name]) for s in sets]
            line = {"bound": m["bound"], "sets": stats}
            flag = "" if name == "setup_s" or stats[0]["spread"] < m["bound"] / 3 else "  SPREAD >= bound/3"
            text = (f"  {name:18s} median {stats[0]['median']:<12.6g} q1 {stats[0]['q1']:<12.6g} "
                    f"q3 {stats[0]['q3']:<12.6g} spread {stats[0]['spread']:.4f} bound {m['bound']}")
            if len(stats) == 2:
                drift = (stats[1]["median"] - stats[0]["median"]) / abs(stats[0]["median"])
                worse = drift if m["better"] == "lower" else -drift
                line["drift"] = drift
                text += f"  spread2 {stats[1]['spread']:.4f}  drift {drift:+.4f}"
                text += "  DRIFT > bound" if worse > m["bound"] else ""
            print(text + flag)
            summary[name] = line
        (out / f"spread-{workload}.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
