"""Benchmark entry point.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Workloads: kg_build, kg_delta, queries
(see perfbench/README.md). Standard output carries only the report: one
line with the machine facts, one with the CPU time the host stole during
the timed parts (``host``), then, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). Everything else the
run produces (Ray Data's log lines, a fuller report.json and, traced, the
spans in trace.json) goes to ``.perfbench_run/runs/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["kg_build", "kg_delta", "queries"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (1 = the measured size; smaller for smoke runs)")
    return ap.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "entity_extractor_ray", "__init__.py")):
        print(f"perfbench: no entity_extractor_ray package under {ROOT}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT]
    # Ray workers import the engine themselves and see only PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    from harness import become_subreaper, environment, nproc
    from workloads import WORKLOADS, Run

    # every process the run starts is waited for before it exits, also
    # Ray's workers, which outlive their raylet, and also when terminated
    become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.scale != 1:
        tag += f"-x{args.scale:g}"
    run_dir = os.path.join(ROOT, ".perfbench_run", "runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    num_cpus = nproc()
    env = environment(num_cpus)

    # stdout is the report; the run's own chatter (Ray, the engine's
    # loggers, any print) goes to run.log, including that of the processes
    # Ray starts, which inherit these descriptors
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    log_fd = os.open(os.path.join(run_dir, "run.log"), os.O_WRONLY | os.O_CREAT, 0o644)
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
              ROOT, run_dir, num_cpus)
    error = None
    try:
        WORKLOADS[args.workload](run)
        result = run.result()
    except BaseException:  # noqa: BLE001 - reported below, then exit 1
        error = traceback.format_exc()
    finally:
        try:
            run.session.stop()
        except BaseException:  # noqa: BLE001 - a process outlived the run
            error = (error or "") + traceback.format_exc()
        run.tracer.write(os.path.join(run_dir, "trace.json"))
        sys.stdout.flush()
        sys.stderr.flush()
        os.dup2(saved[0], 1)
        os.dup2(saved[1], 2)
    if error:
        print(error, file=sys.stderr)
        print(f"perfbench: {args.workload} failed; log in {run_dir}/run.log", file=sys.stderr)
        return 1
    if run.problems:
        print("perfbench: output check failed:\n  " + "\n  ".join(run.problems[:20]),
              file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "params": {"n_buckets": run.n_buckets, "num_join_partitions": run.n_join,
                         "setups": run.setups},
              "session_ends": run.session.ends,
              "host": run.host(),
              "ops": [{k: o[k] for k in ("wall", "steal_s", "disturbed", "traced",
                                        "disk_mb", "parts", "secs", "runs")
                       if k in o} for o in run.ops],
              "problems": run.problems, **result}
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("env " + json.dumps(env, sort_keys=True))
    print("host " + json.dumps(report["host"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
