"""Calibrate the time limit of the ``queries`` workload's limited query.

    python3 perfbench/calibrate_limit.py [--seed 1] [--reps 5]

Runs ``q5_local_supplier_revenue``, a query that does finish (a join chain
over the same tables), through the same second-driver path as the limited
``join_revenue_by_nation`` and prints its seconds from ``ready`` to exit.
``workloads.LIMIT_S`` is set to LIMIT_FACTOR times their median, so a
join that works like the other joins finishes well inside the limit.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

CALIBRATION_QUERY = "q5_local_supplier_revenue"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    import inputs
    from harness import median, nproc
    from workloads import LIMIT_FACTOR, LIMIT_S, Run, _limited

    run_dir = os.path.join(ROOT, ".perfbench_run", "runs", "calibrate")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run("queries", args.seed, 0, False, 1.0, ROOT, run_dir, nproc())
    times = []
    try:
        run.session.start()
        run.warm_up()
        tables = inputs.query_tables(run.cache, args.seed)
        for i in range(args.reps):
            ok, el = _limited(run, tables, run.out_dir(i), CALIBRATION_QUERY, limit=120)
            if not ok:
                print(f"{CALIBRATION_QUERY} did not finish; see {run_dir}", file=sys.stderr)
                return 1
            times.append(el)
            print(f"rep {i}: {el:.2f} s", flush=True)
            run.warm_up()
    finally:
        run.session.stop()
    print(f"median {median(times):.2f} s; x{LIMIT_FACTOR} = "
          f"{LIMIT_FACTOR * median(times):.2f} s (LIMIT_S is {LIMIT_S})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
