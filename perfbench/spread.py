"""Run one workload over several seeds and print each metric's median and
quartile spread (as a share of the median), the way the bounds in
BENCHMARK.json are checked.

    python3 perfbench/spread.py --workload kg_build --seeds 1-10 [--seconds 10] [--trace 0]

Runs are sequential; each run's wall-clock time is printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict = {}
    shares = set()
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, cwd=os.path.dirname(HERE),
        )
        el = time.perf_counter() - t0
        if p.returncode:
            print(f"seed {seed}: exit {p.returncode} after {el:.1f}s\n{p.stderr[-2000:]}")
            return 1
        lines = p.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        host = [ln[5:] for ln in lines if ln.startswith("host ")]
        shares.add((res["failed"], res["attempted"]))
        print(f"seed {seed}: {el:.1f}s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"host={host[0] if host else '?'}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"failed/attempted per run: {sorted(shares)}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = float("nan")
        print(f"{k:45s} median {med:12.4f}  spread {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
