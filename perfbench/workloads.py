"""The three workloads. Each one sets up, runs whole operations until the
measuring time is used up, then checks every operation's outputs.

An operation is timed with nothing else in the driver: outputs go to disk
and are read back for checking only after the last operation, so the
checks' memory and time stay out of ``wall_s`` and ``peak_rss_mb``.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import pyarrow as pa
from entity_extractor_ray.stats import meter_snapshot, snapshot_delta

from harness import RaySession, RssSampler, Tracer, code_key, dir_mb, median, steal_s

import checks
import inputs

# per-scale input sizes; scale 1 is what the benchmark measures
KG_CONVS = 1500
DELTA_PRIOR, DELTA_NEW = 1200, 80
SETUP_REPS = 2
MIN_OPS = 2  # whole operations per run; queries: rounds of QUERY_PASSES passes
# An operation or set-up repetition is disturbed when the hypervisor stole
# more than STEAL_SHARE of its wall time in CPU time (summed over the VM's
# CPUs); its time says more about the host than about the program. Calm
# operations measured 1-2%, steal phases 7% to over 100%.
STEAL_SHARE = 0.05
# at most MAX_REDO more operations replace disturbed ones, and one is only
# added within REDO_WINDOW_S after ``--seconds``: a queries round (over
# 20 s) is never repeated, and a run through a long steal phase, whose
# operations are slow, adds none
MAX_REDO = 1
REDO_WINDOW_S = 5.0
WARMUP_CONVS = 20

# the oracled query mix, and the tables each query reads (for rows_per_s)
QUERY_MIX = {
    "q1_pricing_summary": ["lineitem"],
    "q5_local_supplier_revenue": ["lineitem", "orders", "customer", "supplier",
                                  "nation", "region"],
    "events_hourly": ["events"],
    "exact_dedup": ["documents"],
    "minhash_dedup": ["documents"],
    "duplicate_ngram_spans": ["documents"],
    "knn_cosine": ["embeddings"],
}
# passes over the mix per round: a round pays the limited query's second
# driver once, so a second pass halves that cost per timed query
QUERY_PASSES = 2
# run in a second driver under a time limit: its Dataset.join starts
# HashShuffleAggregator actors that never all get a CPU in a 1-CPU session
LIMITED_QUERY = "join_revenue_by_nation"
# LIMIT_FACTOR times the median seconds of a query that finishes (q5, a
# join chain) through the same second-driver path: calibrate_limit.py
LIMIT_FACTOR = 2
LIMIT_S = 4.5  # 2 x 2.22 s, measured on the reference machine (README)
READY_TIMEOUT_S = 60.0

KG_STAGES = ["records", "chem_mapping", "linked", "chem_status", "edges",
             "triples", "nodes", "manufacturers", "lineage", "errors"]
EXCHANGE_STAGES = ["records", "chem_mapping", "linked", "chem_status", "edges", "nodes"]
DELTA_OUTPUTS = ["nodes", "edges", "triples", "lineage", "manufacturers", "errors"]


def per_layer_names() -> List[str]:
    names = [f"stage.{s}.s" for s in KG_STAGES]
    names += ["stage.nodes.ids.s", "stage.nodes.status.s", "stage.gap.s"]
    names += [f"stage.{s}.exchange_mb" for s in EXCHANGE_STAGES]
    names += ["exchange.mb", "exchange.rows", "kernel.extract.turns_per_s",
              "kernel.bucket.rows_per_s", "checkpoint.files", "checkpoint.resume_s",
              "delta.prepare.s"]
    names += [f"delta.{o}.s" for o in DELTA_OUTPUTS]
    for q in list(QUERY_MIX) + [LIMITED_QUERY]:
        names += [f"query.{q}.s", f"query.{q}.exchange_mb"]
    names += ["setup.ray_init_s", "setup.warmup_s", "trace.wall_s",
              "trace.overhead_s", "trace.coverage", "host.steal_s", "host.disturbed"]
    return names


class Run:
    """One benchmark invocation: directories, session, tracer, counters."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 scale: float, root: str, run_dir: str, num_cpus: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.scale, self.root, self.run_dir = trace, scale, root, run_dir
        self.num_cpus = num_cpus
        self.n_buckets = 4 * num_cpus
        self.n_join = 2 * num_cpus
        # a queries round already times each query QUERY_PASSES times
        self.min_ops = 1 if workload == "queries" and not trace else MIN_OPS
        run_root = os.path.join(root, ".perfbench_run")
        tag = f"s{seed}" if scale == 1 else f"s{seed}-x{scale}"
        cache_root = os.path.join(run_root, "cache")
        key = code_key(root)
        # inputs and checkpoints cached by other code are stale: drop them
        for old in os.listdir(cache_root) if os.path.isdir(cache_root) else ():
            if old != key:
                shutil.rmtree(os.path.join(cache_root, old), ignore_errors=True)
        self.cache = os.path.join(cache_root, key, f"{workload}-{tag}")
        self.warm_cache = os.path.join(cache_root, key, "warmup")
        os.makedirs(self.cache, exist_ok=True)
        self.session = RaySession(num_cpus, run_root, os.path.join(run_dir, "ray-data.log"))
        self.tracer = Tracer(trace, os.path.basename(run_dir))
        self.out_root = os.path.join(run_dir, "out")
        os.makedirs(self.out_root)
        self.ops: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.layer: Dict[str, float] = {n: 0.0 for n in per_layer_names()}
        self.setups: List[dict] = []
        self.init_s: List[float] = []
        self.warm_s: List[float] = []
        self.rss = RssSampler()

    def size(self, n: int) -> int:
        return max(1, int(round(n * self.scale)))

    # -------------------------------------------------------------- set-up
    def set_up(self, prepare: Optional[Callable] = None,
               load: Optional[Callable] = None) -> None:
        """SETUP_REPS times: start a Ray session, warm it up and load the
        workload's state; the last session stays up for the measurement.
        ``prepare`` (seeded inputs, cached across runs) runs once, untimed,
        inside the first session. Each repetition's stolen CPU time is
        recorded; all of them count towards ``setup_s``."""
        for rep in range(SETUP_REPS):
            if rep:
                self.session.stop()
            steal0 = steal_s()
            with self.tracer.span("setup", rep=rep):
                t_init = self.session.start()
                t0 = time.perf_counter()
                self.warm_up()
                t_warm = time.perf_counter() - t0
            steal = steal_s() - steal0
            if rep == 0 and prepare is not None:
                with self.tracer.span("prepare"):
                    prepare()
            t_load = 0.0
            if load is not None:
                steal0 = steal_s()
                with self.tracer.span("setup.load", rep=rep):
                    t0 = time.perf_counter()
                    load()
                    t_load = time.perf_counter() - t0
                steal += steal_s() - steal0
            self.init_s.append(t_init)
            self.warm_s.append(t_warm)
            self.setups.append({"wall": t_init + t_warm + t_load, "steal_s": steal})
        self.layer["setup.ray_init_s"] = median(self.init_s)
        self.layer["setup.warmup_s"] = median(self.warm_s)

    def warm_up(self) -> None:
        """Pay the session's one-time costs before the first operation: a
        small execution through the read and extract operators (worker
        start-up, engine import) and the engine's exchange-meter actor,
        which the first shuffle would otherwise start."""
        import ray.data as rd

        from entity_extractor_ray.stages.extract import extract_records

        corpus = inputs.turn_corpus(self.warm_cache, 0, WARMUP_CONVS, n_files=1)
        rd.read_parquet(corpus).map_batches(
            extract_records, batch_format="pyarrow").materialize()
        meter_snapshot()

    # -------------------------------------------------------------- loop
    def measure(self, op: Callable[[int, bool], dict]) -> None:
        """Whole operations until ``seconds`` have passed and enough of them
        ran undisturbed by the host: ``min_ops``, or in a traced run (which
        alternates untraced and traced operations) one of each kind. At
        most MAX_REDO operations are added for disturbed ones, and none
        after REDO_WINDOW_S past ``seconds``."""
        t_end = time.perf_counter() + self.seconds
        i = 0
        while True:
            traced = self.trace and i % 2 == 1
            self.rss.armed = True
            steal0 = steal_s()
            with self.tracer.span("op", index=i, traced=traced):
                rec = op(i, traced)
            # an operation with untimed parts measures its own steal
            rec.setdefault("steal_s", steal_s() - steal0)
            self.rss.armed = False
            rec["traced"] = traced
            rec["disturbed"] = disturbed(rec)
            self.ops.append(rec)
            i += 1
            if time.perf_counter() < t_end or i < self.min_ops:
                continue
            kinds = (False, True) if self.trace else (False,)
            enough = all(len([o for o in self.ops if o["traced"] == k and not o["disturbed"]])
                         >= self.need(k) for k in kinds)
            late = time.perf_counter() >= t_end + REDO_WINDOW_S
            if enough or late or i >= self.min_ops + MAX_REDO:
                break

    def need(self, traced: bool) -> int:
        return 1 if self.trace else self.min_ops

    def pick(self, traced: bool) -> List[dict]:
        """The operations the metrics are taken from: the undisturbed ones
        of the kind, or, if too few, the ``need`` least disturbed."""
        ops = [o for o in self.ops if o["traced"] == traced]
        calm = [o for o in ops if not o["disturbed"]]
        if len(calm) >= self.need(traced):
            return calm
        return sorted(ops, key=lambda o: o["steal_s"] / o["wall"])[:self.need(traced)]

    def walls(self, traced: bool) -> List[float]:
        return [o["wall"] for o in self.pick(traced)]

    def host(self) -> dict:
        """How much the host disturbed this run: CPU time stolen from the
        VM during the timed operations and set-up repetitions, and how
        many of them were disturbed."""
        timed = self.ops + self.setups
        return {"steal_s": sum(o["steal_s"] for o in timed),
                "disturbed": sum(disturbed(o) for o in timed),
                "timed": len(timed)}

    def out_dir(self, i: int) -> str:
        return os.path.join(self.out_root, f"op{i}")

    # -------------------------------------------------------------- result
    def result(self) -> dict:
        base = self.walls(False)
        host = self.host()
        self.layer["host.steal_s"] = host["steal_s"]
        self.layer["host.disturbed"] = host["disturbed"]
        if self.trace:
            traced = self.walls(True)
            self.layer["trace.wall_s"] = median(traced)
            self.layer["trace.overhead_s"] = median(traced) - median(base)
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in self.layer.items()}
        else:
            wall = median(base)
            rows = self.ops[0]["rows"]
            metrics = {
                "setup_s": {"value": median([x["wall"] for x in self.setups]), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "rows_per_s": {"value": rows / wall, "unit": "rows/s"},
                "peak_rss_mb": {"value": self.rss.peak, "unit": "MB"},
                "disk_mb": {"value": median([o["disk_mb"] for o in self.ops]), "unit": "MB"},
            }
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def disturbed(rec: dict) -> bool:
    return rec["steal_s"] > STEAL_SHARE * rec["wall"]


def _unit(name: str) -> str:
    if name.endswith("_mb") or name.endswith(".mb"):
        return "MB"
    if name.endswith("turns_per_s"):
        return "turns/s"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith(".rows") or name.endswith(".files") or name == "host.disturbed":
        return "count"
    if name == "trace.coverage":
        return "ratio"
    return "s"


def _turns(path: str) -> pa.Table:
    return checks.read_dir(path).select(["conv_id", "turn_idx", "text"])


def _meter_delta(run: "Run", before, after) -> tuple:
    """(MB, rows) the engine's shuffles exchanged between two snapshots,
    also added to the trace's counts."""
    d = snapshot_delta(before, after)
    mb, rows = (d["exchange_bytes"] / 1e6, d["exchange_rows"]) if d else (0.0, 0)
    run.tracer.count("exchange.mb", mb)
    run.tracer.count("exchange.rows", rows)
    return mb, rows


def _kernel_rate(fn, batches, min_s: float = 0.5) -> float:
    """Rows per second of ``fn`` over every batch, repeated for ``min_s``."""
    rows, t0 = 0, time.perf_counter()
    while True:
        for b in batches:
            fn(b)
            rows += b.num_rows
        el = time.perf_counter() - t0
        if el >= min_s:
            return rows / el


def _kernels(run: Run, table: pa.Table, key: str, extract: bool) -> None:
    from entity_extractor_ray.stages.shuffle import stable_bucket_array

    batches = table.to_batches(max_chunksize=8192)
    batches = [pa.Table.from_batches([b]) for b in batches]
    with run.tracer.span("kernel.bucket"):
        run.layer["kernel.bucket.rows_per_s"] = _kernel_rate(
            lambda b: stable_bucket_array(b, [key], run.n_buckets), batches)
    if extract:
        from entity_extractor_ray.stages.extract import extract_records

        with run.tracer.span("kernel.extract"):
            run.layer["kernel.extract.turns_per_s"] = _kernel_rate(extract_records, batches)


def _stage_layers(run: Run, traced_ops: List[dict]) -> None:
    """Median over traced builds of each stage's seconds, gaps and exchange."""
    def med(key):
        return median([o["stages"].get(key, 0.0) for o in traced_ops])

    for s in KG_STAGES + ["nodes.ids", "nodes.status", "gap"]:
        run.layer[f"stage.{s}.s"] = med(f"{s}.s")
    for s in EXCHANGE_STAGES:
        run.layer[f"stage.{s}.exchange_mb"] = med(f"{s}.exchange_mb")
    run.layer["trace.coverage"] = median([o["coverage"] for o in traced_ops])


def _stage_record(run: Run, metrics: List[dict], t_call: float, wall: float) -> dict:
    """Per-stage seconds from ``KGResult.metrics``, with the stages laid out
    as spans back to back from the call (gap, then stage)."""
    st: Dict[str, float] = {"gap.s": 0.0}
    at = t_call
    covered = 0.0
    for m in metrics:
        dur = m["duration_ms"] / 1000
        if m["partition_id"] == -2:
            st[f"{m['stage']}.s"] = st.get(f"{m['stage']}.s", 0.0) + dur
            continue
        gap = m.get("gap_ms", 0.0) / 1000
        st["gap.s"] += gap
        run.tracer.add("stage.gap", at, at + gap)
        run.tracer.add(f"stage.{m['stage']}", at + gap, at + gap + dur, rows=m["rows_out"])
        run.tracer.count(f"stage.{m['stage']}.rows", m["rows_out"])
        at += gap + dur
        covered += gap + dur
        st[f"{m['stage']}.s"] = dur
        if m.get("exchange_mb") is not None:
            st[f"{m['stage']}.exchange_mb"] = m["exchange_mb"]
    return {"stages": st, "coverage": covered / wall}


# ------------------------------------------------------------------ kg_build

def kg_build(run: Run) -> None:
    from entity_extractor_ray.pipelines.kg_build import build_kg

    state: dict = {}

    def prepare():
        state["corpus"] = inputs.turn_corpus(run.cache, run.seed, run.size(KG_CONVS))
        state["turns"] = _turns(state["corpus"])

    def op(i: int, traced: bool) -> dict:
        out = run.out_dir(i)
        m0 = meter_snapshot() if traced else None
        t_call = run.tracer.now()
        t0 = time.perf_counter()
        res = build_kg(state["corpus"], out_dir=out, n_buckets=run.n_buckets,
                       num_join_partitions=run.n_join)
        wall = time.perf_counter() - t0
        rec = {"wall": wall, "rows": state["turns"].num_rows, "out": out,
               "disk_mb": dir_mb(out)}
        if traced:
            rec["exchange"] = _meter_delta(run, m0, meter_snapshot())
            rec.update(_stage_record(run, res.metrics, t_call, wall))
        return rec

    with run.rss:
        run.set_up(prepare=prepare)
        run.measure(op)
    run.attempted = len(run.ops)
    if run.trace:
        traced = run.pick(True)
        _stage_layers(run, traced)
        run.layer["exchange.mb"] = median([o["exchange"][0] for o in traced])
        run.layer["exchange.rows"] = median([o["exchange"][1] for o in traced])
        last = run.ops[-1]["out"]
        run.layer["checkpoint.files"] = sum(len(f) for _, _, f in os.walk(last))
        with run.tracer.span("checkpoint.resume"):
            t0 = time.perf_counter()
            build_kg(state["corpus"], out_dir=last, n_buckets=run.n_buckets,
                     num_join_partitions=run.n_join)
            run.layer["checkpoint.resume_s"] = time.perf_counter() - t0
        _kernels(run, state["turns"], "conv_id", extract=True)
    run.session.stop()

    with run.tracer.span("check"):
        records = checks.conversation_records(state["turns"])
        want = checks.expected_triples(records)
        for o in run.ops:
            out = {n: checks.read_dir(os.path.join(o["out"], n)) for n in checks.KG_OUTPUTS}
            run.problems += checks.check_triples(out["triples"], want)
            run.problems += checks.check_graph(out, records)


# ------------------------------------------------------------------ kg_delta

def kg_delta(run: Run) -> None:
    from entity_extractor_ray.pipelines.kg_build import build_kg, ingest_delta

    kw = {"n_buckets": run.n_buckets, "num_join_partitions": run.n_join}
    state: dict = {}

    def prepare():
        paths = inputs.delta_corpora(run.cache, run.seed, run.size(DELTA_PRIOR),
                                     run.size(DELTA_NEW))
        state.update(paths)
        state["prior_kg"] = os.path.join(run.cache, "prior_kg")
        state["full_kg"] = os.path.join(run.cache, "full_kg")
        # both builds resume from their committed stages on a cached seed
        build_kg(paths["prior"], out_dir=state["prior_kg"], **kw)
        build_kg(paths["union"], out_dir=state["full_kg"], **kw)
        state["delta_rows"] = _turns(paths["delta"]).num_rows

    def load():
        # what every run pays: resume the cached prior checkpoint
        build_kg(state["prior"], out_dir=state["prior_kg"], **kw)

    def op(i: int, traced: bool) -> dict:
        out = run.out_dir(i)
        m0 = meter_snapshot() if traced else None
        parts: Dict[str, float] = {}
        t0 = time.perf_counter()
        with run.tracer.span("delta.prepare"):
            res = ingest_delta(state["delta"], state["prior_kg"], **kw)
        parts["prepare"] = time.perf_counter() - t0
        for name in DELTA_OUTPUTS:
            t1 = time.perf_counter()
            with run.tracer.span(f"delta.{name}"):
                getattr(res, name).write_parquet(os.path.join(out, name))
            parts[name] = time.perf_counter() - t1
        wall = time.perf_counter() - t0
        rec = {"wall": wall, "rows": state["delta_rows"], "out": out,
               "disk_mb": dir_mb(out), "parts": parts}
        if traced:
            rec["exchange"] = _meter_delta(run, m0, meter_snapshot())
        return rec

    with run.rss:
        run.set_up(prepare=prepare, load=load)
        run.measure(op)
    run.attempted = len(run.ops)
    if run.trace:
        traced = run.pick(True)
        run.layer["delta.prepare.s"] = median([o["parts"]["prepare"] for o in traced])
        for name in DELTA_OUTPUTS:
            run.layer[f"delta.{name}.s"] = median([o["parts"][name] for o in traced])
        run.layer["exchange.mb"] = median([o["exchange"][0] for o in traced])
        run.layer["exchange.rows"] = median([o["exchange"][1] for o in traced])
        run.layer["checkpoint.resume_s"] = median(
            [x["wall"] - i - w for x, i, w in zip(run.setups, run.init_s, run.warm_s)])
        run.layer["trace.coverage"] = median(
            [sum(o["parts"].values()) / o["wall"] for o in traced])
        _kernels(run, _turns(state["delta"]), "conv_id", extract=True)
    run.session.stop()

    with run.tracer.span("check"):
        want = {n: checks.read_dir(os.path.join(state["full_kg"], n))
                for n in checks.KG_OUTPUTS}
        for o in run.ops:
            got = {n: checks.read_dir(os.path.join(o["out"], n)) for n in checks.KG_OUTPUTS}
            run.problems += checks.check_same_outputs(got, want)


# ------------------------------------------------------------------ queries

def _consume(result, path: str) -> None:
    """Write a query result to ``path`` (a Dataset executes here)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    os.makedirs(path, exist_ok=True)  # an empty Dataset writes no file
    if isinstance(result, rd.Dataset):
        result.write_parquet(path)
        return
    if isinstance(result, pd.DataFrame):
        result = pa.Table.from_pandas(result, preserve_index=False)
    pq.write_table(result, os.path.join(path, "part-0.parquet"))


def _limited(run: Run, tables: str, out: str, name: str = LIMITED_QUERY,
             limit: float = None) -> tuple:
    """Run ``name`` in a second driver attached to this session; kill it
    (and with it every actor it started) ``limit`` seconds after it is
    ready. Returns (finished, seconds from ready to exit)."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "limited_query.py")
    warm = inputs.turn_corpus(run.warm_cache, 0, WARMUP_CONVS, n_files=1)
    log = open(os.path.join(run.run_dir, "limited_query.log"), "a")
    p = subprocess.Popen(
        [sys.executable, child, run.session.gcs_address(), name, tables, out, warm],
        stdout=subprocess.PIPE, stderr=log, text=True, cwd=run.root,
    )
    try:
        # the child prints only "ready"; give up if it cannot attach
        ready = bool(select.select([p.stdout], [], [], READY_TIMEOUT_S)[0]) and \
            p.stdout.readline().strip() == "ready"
        t0 = time.perf_counter()
        if ready:
            try:
                p.wait(timeout=LIMIT_S if limit is None else limit)
            except subprocess.TimeoutExpired:
                pass
        el = time.perf_counter() - t0
        finished = ready and p.poll() == 0
    finally:
        if p.poll() is None:
            p.kill()
        p.wait()
        p.stdout.close()
        log.close()
    return finished, el


def queries(run: Run) -> None:
    import duckdb

    import __ray_entry__ as entry

    state: dict = {}

    def prepare():
        tables = inputs.query_tables(run.cache, run.seed, run.scale)
        state["tables"] = tables
        rows = {}
        import pyarrow.parquet as pq

        for f in os.listdir(tables):
            if f.endswith(".parquet"):
                rows[f[:-8]] = pq.ParquetFile(os.path.join(tables, f)).metadata.num_rows
        state["rows"] = sum(rows[t] for ts in QUERY_MIX.values() for t in ts)
        state["fns"] = entry.queries()

    def op(i: int, traced: bool) -> dict:
        if i:
            # while the last round's second driver ran, Ray retired this
            # driver's idle worker; start it again before timing anything
            with run.tracer.span("rewarm"):
                run.warm_up()
        out = run.out_dir(i)
        runs: Dict[str, List[dict]] = {n: [] for n in QUERY_MIX}
        ex: Dict[str, tuple] = {n: (0.0, 0) for n in QUERY_MIX}
        for k in range(QUERY_PASSES):
            for name in QUERY_MIX:
                m0 = meter_snapshot() if traced else None
                steal0 = steal_s()
                t0 = time.perf_counter()
                with run.tracer.span(f"query.{name}", rep=k):
                    _consume(state["fns"][name](state["tables"]),
                             os.path.join(out, f"pass{k}", name))
                runs[name].append({"wall": time.perf_counter() - t0,
                                   "steal_s": steal_s() - steal0})
                if traced:
                    mb, rows = _meter_delta(run, m0, meter_snapshot())
                    ex[name] = (ex[name][0] + mb / QUERY_PASSES,
                                ex[name][1] + rows / QUERY_PASSES)
        # per query, the mean of its undisturbed executions, else its least
        # disturbed one
        secs: Dict[str, float] = {}
        stolen = 0.0
        for name, rs in runs.items():
            use = [r for r in rs if not disturbed(r)] or \
                [min(rs, key=lambda r: r["steal_s"] / r["wall"])]
            secs[name] = sum(r["wall"] for r in use) / len(use)
            stolen += sum(r["steal_s"] for r in use) / len(use)
        # the second driver is the benchmark's own process, not the engine's
        run.rss.armed = False
        with run.tracer.span(f"query.{LIMITED_QUERY}"):
            finished, secs[LIMITED_QUERY] = _limited(
                run, state["tables"], os.path.join(out, LIMITED_QUERY))
        run.rss.armed = True
        run.attempted += QUERY_PASSES * len(QUERY_MIX) + 1
        run.failed += 0 if finished else 1
        run.tracer.count("query.failed", 0 if finished else 1)
        wall = sum(secs[n] for n in QUERY_MIX)  # one pass over the mix
        return {"wall": wall, "runs": runs, "steal_s": stolen, "rows": state["rows"], "out": out, "secs": secs,
                "ex": ex, "limited_ok": finished, "disk_mb": dir_mb(out)}

    with run.rss:
        run.set_up(prepare=prepare)
        run.measure(op)
    if run.trace:
        traced = run.pick(True)
        for name in list(QUERY_MIX) + [LIMITED_QUERY]:
            run.layer[f"query.{name}.s"] = median([o["secs"][name] for o in traced])
        for name in QUERY_MIX:
            run.layer[f"query.{name}.exchange_mb"] = median([o["ex"][name][0] for o in traced])
        run.layer["exchange.mb"] = median(
            [sum(v[0] for v in o["ex"].values()) for o in traced])
        run.layer["exchange.rows"] = median(
            [sum(v[1] for v in o["ex"].values()) for o in traced])
        run.layer["trace.coverage"] = 1.0  # wall_s is the sum of the query spans
        import pyarrow.parquet as pq

        li = pq.read_table(os.path.join(state["tables"], "lineitem.parquet"))
        _kernels(run, li, "l_orderkey", extract=False)
    run.session.stop()

    with run.tracer.span("check"):
        con = duckdb.connect()
        checks.duckdb_tables(con, state["tables"])
        sqls = entry.oracle_sql()
        want = {n: con.execute(sqls[n]).df() for n in QUERY_MIX if n in sqls}
        want[LIMITED_QUERY] = con.execute(sqls[LIMITED_QUERY]).df()
        import pyarrow.parquet as pq

        docs = pq.read_table(os.path.join(state["tables"], "documents.parquet"))
        for o in run.ops:
            if o["limited_ok"]:
                g = checks.read_dir(os.path.join(o["out"], LIMITED_QUERY)).to_pandas()
                run.problems += checks.check_query(LIMITED_QUERY, g, want[LIMITED_QUERY])
            for k in range(QUERY_PASSES):
                got = {name: checks.read_dir(os.path.join(o["out"], f"pass{k}", name)).to_pandas()
                       for name in QUERY_MIX}
                for name in QUERY_MIX:
                    if name in want:
                        run.problems += checks.check_query(name, got[name], want[name])
                run.problems += checks.check_minhash(
                    got["minhash_dedup"], docs, len(got["exact_dedup"]))


WORKLOADS = {"kg_build": kg_build, "kg_delta": kg_delta, "queries": queries}
