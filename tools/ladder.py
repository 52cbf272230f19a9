"""Print criterion 8's ladder: time per outer iteration at 1, 2, 4, 8 and 12 spheres.

Criterion 8 (tests/test_acceptance.py::test_criterion_8_approximation_benchmark)
requires the time per iteration of the 1-, 4- and 12-sphere approximation
solves to rise strictly. Each ladder printed here is that test's own
statistic: for each sphere count, the fastest of three
bench_approx(seed=0, counts=[1, 2, 4, 8, 12], iters=6) runs. A change to the
solve path quotes the ladder before and after:

    python tools/ladder.py --repeat 5

run in the parent checkout and in the changed one. The first line gives the
BLAS thread setting of the process (the environment variables OpenBLAS, OpenMP
and MKL read); then each repeat prints one line, in milliseconds, with the
criterion's 1 < 4 < 12 check. The script imports proxopt from the src
directory of its own checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from proxopt.bench import bench_approx  # noqa: E402

COUNTS = (1, 2, 4, 8, 12)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ladder() -> dict[int, float]:
    """Seconds per iteration at each sphere count, the fastest of three runs, as the criterion takes it."""
    runs = [
        {r["count"]: r["time_per_iteration_s"] for r in bench_approx(seed=0, counts=list(COUNTS), iters=6)
         if r["approximation"] == "spheres"}
        for _ in range(3)
    ]
    return {k: min(run[k] for run in runs) for k in COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="ladders to print (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    setting = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    print(f"BLAS threads: {setting}; {os.cpu_count()} CPUs")
    print("spheres: " + " / ".join(str(k) for k in COUNTS) + " (ms per iteration)")
    for _ in range(args.repeat):
        times = ladder()
        ok = times[1] < times[4] < times[12]
        print(" / ".join(f"{1e3 * times[k]:.2f}" for k in COUNTS) + f"  criterion 8 {'passes' if ok else 'FAILS'}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
