"""Benchmark harness (driver contract).

Prints ONE JSON line:
  {"metric": "kg_build_sec", "value": <headline seconds>, "unit": "sec",
   "queries": {...per-query seconds...}, "sf": <sf tag>, "num_cpus": N,
   "turns": T, "turns_per_sec": r}

Headline = full KG-construction pipeline (turns parquet -> triples/nodes/
edges/lineage parquet) over a deterministic ~1M-turn synthetic transcript
corpus (the engine's real input shape), plus a timed subset of the
relational/dedup/similarity operator surface over $GRAFT_SF_DIR.

  python bench.py             # one run at $RAY_GRAFT_CPUS (default 32)
  python bench.py --scaling   # fresh subprocesses at 8 and 32 CPUs on the
                              # same input; reports throughput + efficiency
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)
# Workers inherit PYTHONPATH, not sys.path — required when bench runs from
# another cwd (stage callables deserialize by module reference on workers).
if REPO not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    _pp = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = REPO + (os.pathsep + _pp if _pp else "")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_CONVS = int(os.environ.get("GRAFT_BENCH_CONVS", "120000"))
CORPUS_DIR = f"/tmp/eer_bench_corpus_{BENCH_CONVS}"

# Host-weather canary (VERDICT r3 #1): this sandbox VM has multi-hour slow
# phases where every stage runs 2-3x its quiet-window time (BASELINE.md
# "Measurement variance note"), which round 3's official bench landed in.
# Before the headline measurement, a fixed 8-CPU mini-build (6k convs) runs
# in a fresh subprocess; if it exceeds the best-known quiet-host time by
# >25% it retries once, and a persistent excess is recorded as a LOUD
# weather flag in the bench JSON so a slow headline is never mistaken for a
# code regression. Quiet reference calibrated from the fastest observed
# sample (override with GRAFT_CANARY_QUIET after recalibration).
CANARY_CONVS = 6000
CANARY_QUIET_SEC = float(os.environ.get("GRAFT_CANARY_QUIET", "12.0"))
CANARY_TOLERANCE = 1.25


def _run_canary() -> dict:
    def probe() -> float:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS="8",
            GRAFT_SKIP_QUERIES="1",
            GRAFT_NO_CANARY="1",
            GRAFT_BENCH_CONVS=str(CANARY_CONVS),
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True, cwd=REPO,
        ).stdout
        return float(json.loads(out.strip().splitlines()[-1])["value"])

    sec = probe()
    retried = False
    if sec > CANARY_QUIET_SEC * CANARY_TOLERANCE:
        time.sleep(20)
        sec, retried = probe(), True
    flagged = sec > CANARY_QUIET_SEC * CANARY_TOLERANCE
    result = {
        "canary_sec": round(sec, 2),
        "quiet_sec": CANARY_QUIET_SEC,
        "retried": retried,
        "weather_flag": flagged,
    }
    if flagged:
        print(
            f"WEATHER: canary mini-build {sec:.1f}s exceeds quiet-host "
            f"{CANARY_QUIET_SEC:.1f}s by >{int((CANARY_TOLERANCE - 1) * 100)}% — "
            "headline numbers below are weather-inflated, not code",
            file=sys.stderr,
        )
    return result


def _prepare_corpus() -> str:
    from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, write_turns

    return write_turns(CORPUS_DIR, TurnCorpusSpec(n_convs=BENCH_CONVS, seed=42),
                       num_files=32)


def _count_turns(path: str) -> int:
    import glob

    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in glob.glob(path + "/*.parquet"))


def run_once() -> dict:
    import ray

    # canary BEFORE the session: the probe is its own subprocess; skipped
    # for scaling legs (they are already interleaved-pair instruments) and
    # inside the canary itself
    weather = None
    if not (os.environ.get("GRAFT_NO_CANARY") or os.environ.get("GRAFT_SKIP_QUERIES")):
        weather = _run_canary()

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    # drop Ray's content-free empty-filler-block schema warning (real schema
    # divergences still print) — see entity_extractor_ray/raylog.py
    from entity_extractor_ray.raylog import install_empty_schema_filter

    install_empty_schema_filter()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    corpus = _prepare_corpus()
    n_turns = _count_turns(corpus)

    # warm the page cache so we measure compute+shuffle, not first disk read
    import ray.data as rd

    rd.read_parquet(corpus).count()

    from entity_extractor_ray.pipelines.kg_build import build_kg

    out_dir = f"/tmp/eer_bench_kg_{NUM_CPUS}"
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    t0 = time.perf_counter()
    # partitioning is sized to the DATA, never to the CPU count: deriving
    # n_buckets from NUM_CPUS made the two scaling legs run DIFFERENT plans
    # (the 32-CPU leg paid 2x the partition overhead on dimension-sized
    # stages — measured 0.36x on nodes.status), conflating plan change with
    # resource change. Fixed plan, variable executor width.
    res = build_kg(corpus, out_dir=out_dir, n_buckets=64,
                   num_join_partitions=32)
    n_nodes = res.nodes.count()
    headline = time.perf_counter() - t0
    assert n_nodes > 0

    # object-store evidence for the scaling instrument (VERDICT r4 #6):
    # spill/restore totals + plasma usage after the build, so a flatlining
    # stage can be attributed (or not) to object-store pressure with data
    def _object_store_stats() -> dict:
        # memory_summary needs grpc (absent here); the raylet log carries
        # cumulative "Spilled N MiB, M objects" / "Restored ..." lines —
        # the LAST occurrence is the session total. No lines = no spilling.
        try:
            import re as _re

            session = ray._private.worker._global_node.get_session_dir_path()
            txt = open(os.path.join(session, "logs", "raylet.out"),
                       errors="replace").read()
            def last(pat):
                hits = _re.findall(pat, txt)
                return float(hits[-1]) if hits else 0.0

            return {
                "spilled_mb": last(r"Spilled (\d+) MiB"),
                "spilled_objects": last(r"Spilled \d+ MiB, (\d+) objects"),
                "restored_mb": last(r"Restored (\d+) MiB"),
            }
        except Exception:
            return {}

    obj_stats = _object_store_stats()

    # operator-surface subset over the sf dir
    from entity_extractor_ray.pipelines import analytics as ana
    from entity_extractor_ray.pipelines import relational as rel
    from entity_extractor_ray.stages import dedup as dd
    from entity_extractor_ray.stages import similarity as sim

    from entity_extractor_ray.sources.cleanscan import read_parquet_clean as _rpc

    def _docs():
        return _rpc(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])

    def _embs():
        return _rpc(f"{SF_DIR}/embeddings.parquet")

    def _consume(result):
        if hasattr(result, "count"):
            result.count()
        else:
            len(result)

    stages = [
        {
            "stage": m["stage"],
            "duration_s": round(m["duration_ms"] / 1000, 2),
            "gap_s": round(m.get("gap_ms", 0) / 1000, 2),
            "rows": m["rows_out"],
            "exchange_mb": m.get("exchange_mb"),
        }
        for m in res.metrics
    ]

    if os.environ.get("GRAFT_SKIP_QUERIES"):
        ray.shutdown()
        return {
            "metric": "kg_build_sec",
            "value": round(headline, 3),
            "unit": "sec",
            "queries": {},
            "sf": os.path.basename(os.path.normpath(SF_DIR)),
            "num_cpus": NUM_CPUS,
            "turns": n_turns,
            "turns_per_sec": round(n_turns / headline, 1),
            "stages": stages,
            "object_store": obj_stats,
            "weather": weather,
        }

    from entity_extractor_ray.pipelines import mining
    from entity_extractor_ray.stages import decontam, samples
    from entity_extractor_ray.stages import profile as prof
    from entity_extractor_ray.stages import sketches as sk
    from entity_extractor_ray.stages import textstats as ts

    query_fns = {
        "q1_pricing_summary": lambda: rel.q1_pricing_summary(SF_DIR),
        "join_revenue_by_nation": lambda: rel.join_revenue_by_nation(SF_DIR),
        "events_hourly": lambda: rel.events_hourly(SF_DIR),
        "events_sliding": lambda: rel.events_sliding(SF_DIR),
        "topk_orders": lambda: rel.topk_orders(SF_DIR),
        "keyword_search_documents": lambda: rel.keyword_search_documents(SF_DIR),
        "exact_dedup": lambda: dd.exact_dedup(_docs()),
        "minhash_dedup": lambda: dd.minhash_dedup(_docs()),
        "knn_cosine": lambda: sim.knn_cosine(_embs(), query_ids=[0, 1, 2], k=10),
        "bm25_scores": lambda: ts.bm25_scores(_docs(), "window merge join"),
        "events_lag_lead": lambda: rel.events_lag_lead(SF_DIR),
        "approx_distinct_users": lambda: rel.approx_distinct_users(SF_DIR),
        "top_tokens": lambda: sk.frequent_tokens(_docs(), top_n=20),
        "q17_small_quantity": lambda: rel.q17_small_quantity_revenue(SF_DIR),
        "duplicate_ngram_spans": lambda: dd.duplicate_ngram_spans(_docs()),
        "curate_documents": lambda: ts.curate_by_quality(
            _rpc(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text", "lang"])
        ),
        "profile_orders": lambda: prof.profile_table(_rpc(f"{SF_DIR}/orders.parquet")),
        "q5_local_supplier_revenue": lambda: ana.q5_local_supplier_revenue(SF_DIR),
        "events_funnel": lambda: ana.events_funnel(SF_DIR),
        "embedding_centroids": lambda: ana.embedding_centroids(SF_DIR),
        "customers_fuzzy_pairs": lambda: ana.customers_fuzzy_pairs(SF_DIR),
        "basket_pair_lift": lambda: mining.basket_pair_lift(SF_DIR),
        "supplier_jaccard": lambda: mining.supplier_jaccard(SF_DIR),
        # round-5 continuation additions (both map-only; the broadcast
        # index / per-batch top-k shapes should stay flat vs corpus size)
        "fuzzy_decontaminate_docs": lambda: decontam.fuzzy_decontaminate(_docs()),
        "weighted_reservoir_docs": lambda: samples.weighted_reservoir_sample(
            _rpc(f"{SF_DIR}/documents.parquet", columns=["doc_id", "n_chars"]),
            weight_col="n_chars", k=100,
        ),
        # final-continuation additions: the all-nodes kNN graph (broadcast
        # matmul, map-only under the gate), embedding decontamination
        # (broadcast eval side + one keyed reduce), and the zero-shuffle
        # epoch upsampler
        "knn_graph": lambda: sim.knn_graph(_embs(), k=5),
        "embedding_decontaminate": lambda: sim.embedding_decontaminate(
            _embs(), eval_mod=20, threshold=0.35
        ),
        "upsample_sources": lambda: samples.upsample_sources(
            _rpc(f"{SF_DIR}/documents.parquet", columns=["doc_id", "source"])
        ),
    }
    queries = {}
    for name, fn in query_fns.items():
        tq = time.perf_counter()
        _consume(fn())
        queries[name] = round(time.perf_counter() - tq, 3)

    ray.shutdown()
    return {
        "metric": "kg_build_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "turns": n_turns,
        "turns_per_sec": round(n_turns / headline, 1),
        "object_store": obj_stats,
        "weather": weather,
    }


def run_scaling() -> dict:
    """Same input, fresh subprocess per (cpus, repeat); headline KG build
    only, at 2x the default corpus so compute dominates fixed per-stage
    costs.

    The sandbox host shows 20-100% run-to-run wall-clock swings for
    identical code (BASELINE.md, round-2 repeats), so a single lo/hi pair
    is not evidence of anything: repeats run INTERLEAVED (lo,hi,lo,hi,...)
    so slow-host drift hits both levels equally, and the reported
    efficiency is the median-of-pairs. GRAFT_SCALING_PAIRS sets the repeat
    count (default 1 for the per-round driver run; use 3+ for a citable
    number), GRAFT_SCALING_LEVELS picks the two parallelism levels
    (default "8,32")."""
    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SKIP_QUERIES="1",
            GRAFT_BENCH_CONVS=os.environ.get("GRAFT_SCALING_CONVS", str(BENCH_CONVS * 2)),
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True, cwd=REPO,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = (int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "8,32").split(","))
    n_pairs = int(os.environ.get("GRAFT_SCALING_PAIRS", "1"))
    pairs = []
    runs_lo, runs_hi = [], []
    for _ in range(n_pairs):
        r_lo, r_hi = run(lo), run(hi)
        runs_lo.append(r_lo)
        runs_hi.append(r_hi)
        pairs.append(
            {
                "sec_lo": r_lo["value"],
                "sec_hi": r_hi["value"],
                "eff": round((r_lo["value"] / r_hi["value"]) / (hi / lo), 3),
            }
        )
    effs = sorted(p["eff"] for p in pairs)
    med_eff = effs[len(effs) // 2]
    med_pair = next(p for p in pairs if p["eff"] == med_eff)
    r_lo = runs_lo[pairs.index(med_pair)]
    r_hi = runs_hi[pairs.index(med_pair)]
    # per-stage speedups (median pair): compute-bound stages should approach
    # hi/lo while shuffle-bound stages flatline on one memory bus — the
    # evidence for the single-box bandwidth ceiling (BASELINE.md scaling)
    lo_stages = {s["stage"]: s["duration_s"] for s in r_lo.get("stages", [])}
    stages = [
        {
            "stage": s["stage"],
            f"sec_{lo}": lo_stages.get(s["stage"]),
            f"sec_{hi}": s["duration_s"],
            "speedup": round(lo_stages[s["stage"]] / s["duration_s"], 2)
            if lo_stages.get(s["stage"]) and s["duration_s"] else None,
            "exchange_mb": s.get("exchange_mb"),
        }
        for s in r_hi.get("stages", [])
    ]
    return {
        "metric": "scaling_efficiency",
        "value": med_eff,
        "unit": "ratio",
        "levels": [lo, hi],
        "pairs": pairs,
        f"sec_{lo}": med_pair["sec_lo"],
        f"sec_{hi}": med_pair["sec_hi"],
        f"turns_per_sec_{lo}": r_lo["turns_per_sec"],
        f"turns_per_sec_{hi}": r_hi["turns_per_sec"],
        f"object_store_{lo}": r_lo.get("object_store"),
        f"object_store_{hi}": r_hi.get("object_store"),
        "turns": r_hi["turns"],
        "sf": r_hi["sf"],
        "stages": stages,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_once()))
