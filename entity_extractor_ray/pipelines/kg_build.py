"""The flagship pipeline: transcript turns -> knowledge graph.

The KG DAG is declared ONCE, as data: ``STAGES`` lists every stage in run
order with its name, its build function and its resume grain. One runner
(``_Run``) executes that list for both entry points — ``build_kg`` and
``ingest_delta`` differ only in their records source and their
ingest-errors feeds (SURVEY.md §7.1, all Ray Data):

    records       extract -> assemble (conv bucket) -> J1 guard dedup
    chem_mapping  distinct-key groupby + union-find canonicalization
    linked        bucket/broadcast join of chem mentions on probe_key
    chem_status   bucketed ordered status fold
    edges         J4 dedup of CONTAINS + MADE_BY in one (src, dst) shuffle
    triples       map-only over records
    nodes         material identities + status rollup + node assembly
    manufacturers the vendor dimension from the same identity shuffle
    lineage       map-only over linked
    errors        record drops + fold coercions + ingest-invalid rows

With ``out_dir`` every stage checkpoints under ``out_dir/<stage>/`` and a
rerun skips committed stages through their commit-last ``_SUCCESS``
manifests (state/checkpoint.py). Inside a stage, the grain says what a
rerun keeps:

    stage   the build's Dataset commits in one write; all or nothing
    bucket  the build commits one part per hash bucket into the stage dir
            (the records stage's assemble shuffle does the same into
            ``records_assemble/``); a rerun rebuilds only missing buckets
    shard   map-only stages: one part per source file of each feed; a
            rerun rebuilds only missing parts, with no shuffle

Without ``out_dir`` the runner materializes the interior stages (each has
several consumers) and leaves the terminal ones lazy, so they fuse into
the caller's sink. Either way each stage emits ONE metrics record — the
same dict feeds ``KGResult.metrics``, ``metrics.parquet`` and the
``progress`` callback.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import time
from typing import Callable, List, Optional

import pyarrow as pa

from ..stages.assemble import RECORD_SCHEMA, assemble_bucket, dedup_records
from ..stages.extract import RecordExtractor
from ..stages.graph import (
    EDGES_SCHEMA,
    assemble_nodes,
    build_material_identities,
    edge_candidates,
    edge_pick_last,
    lineage_rows,
    manufacturer_table,
    rollup_status,
)
from ..stages.linking import (
    build_chemical_mapping,
    fold_chemical_states,
    link_chem_mentions,
)
from ..stages.triples import explode_chem_mentions, explode_triples
from ..state.checkpoint import CheckpointManager, write_shards

ERRORS_SCHEMA = pa.schema(
    [
        ("stage", pa.string()),  # ingest | assemble | dedup | status_fold
        ("key", pa.string()),  # conv_id (ingest/assemble/dedup) or entity_id
        ("reason", pa.string()),
    ]
)

# one row per stage (partition_id -1) or nodes sub-step (-2). rows_out is
# null where nothing was counted: on every sub-step, and on the terminal
# stages of an in-memory run (build_kg without out_dir, every ingest_delta),
# which stay lazy — counting them would execute them. Consumers of
# KGResult.metrics must accept a null rows_out on -1 rows too.
METRICS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("stage", pa.string()),
        ("rows_out", pa.int64()),
        ("duration_ms", pa.float64()),
        ("gap_ms", pa.float64()),
        ("exchange_mb", pa.float64()),
    ]
)

# a re-read checkpoint's FILE COUNT caps every downstream scan's
# parallelism (Ray's parquet reader never splits a file across read tasks),
# so interior stages commit many small files sized to keep 4x the join
# partitions in flight; terminal outputs (nothing re-reads them
# in-pipeline) keep the large default for cheap commits
REREAD_FILE_OPTS = {"min_rows_per_file": 2048, "max_rows_per_file": 8192}

_log = logging.getLogger("entity_extractor_ray.kg_build")


@dataclasses.dataclass
class KGResult:
    triples: "ray.data.Dataset"  # noqa: F821
    nodes: "ray.data.Dataset"  # noqa: F821
    edges: "ray.data.Dataset"  # noqa: F821
    lineage: "ray.data.Dataset"  # noqa: F821
    metrics: List[dict]
    # errors side-channel (ERRORS_SCHEMA): the reference surfaces per-document
    # failures as run-state rows / failed.lock files
    # (file_analysis_service.py:190-207) and aborts documents on impossible
    # transitions (artifact_ingestor_service.py:1244-1248); the engine keeps
    # the job alive and emits one auditable row per drop/coercion instead
    errors: "ray.data.Dataset" = None  # noqa: F821
    # the reference's separate `manufacturer` dimension table
    # (MANUFACTURERS_SCHEMA): name + geo attributes of the CREATING record
    manufacturers: "ray.data.Dataset" = None  # noqa: F821


def _expand(path: str) -> List[str]:
    """A directory's parquet files (sorted), or the path itself."""
    import glob

    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, "*.parquet")))
    return [path]


def _read_turns(turns, columns):
    import ray.data as rd

    if isinstance(turns, str):
        return rd.read_parquet(turns, columns=columns)
    if isinstance(turns, list):
        # read_parquet takes one directory, or a list of FILES
        return rd.read_parquet([f for p in turns for f in _expand(p)], columns=columns)
    return turns.select_columns(columns)


def _empty_result(metrics) -> KGResult:
    import ray.data as rd

    from ..stages.graph import (
        LINEAGE_SCHEMA, MANUFACTURERS_SCHEMA, NODES_SCHEMA,
    )
    from ..stages.triples import TRIPLES_SCHEMA

    return KGResult(
        triples=rd.from_arrow(TRIPLES_SCHEMA.empty_table()),
        nodes=rd.from_arrow(NODES_SCHEMA.empty_table()),
        edges=rd.from_arrow(EDGES_SCHEMA.empty_table()),
        lineage=rd.from_arrow(LINEAGE_SCHEMA.empty_table()),
        metrics=metrics,
        errors=rd.from_arrow(ERRORS_SCHEMA.empty_table()),
        manufacturers=rd.from_arrow(MANUFACTURERS_SCHEMA.empty_table()),
    )


TURNS_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("text", pa.string())]
)


def validate_turns(batch: pa.Table):
    """Ingest-time request validation (reference M14: DTO validation before
    any processing): cast to the contract schema (int64 turn_idx from wider
    readers narrows; incompatible types raise loudly here, not five stages
    later) and split off rows missing a key (null conv_id / turn_idx) as
    INVALID_ROW error rows instead of letting them corrupt grouping."""
    import pyarrow.compute as pc

    t = batch.select(TURNS_SCHEMA.names).cast(TURNS_SCHEMA)
    valid = pc.and_(
        pc.is_valid(t.column("conv_id")), pc.is_valid(t.column("turn_idx"))
    )
    return t.filter(valid), t.filter(pc.invert(valid))


def _invalid_error_rows(batch: pa.Table) -> pa.Table:
    """Ingest-error scan body — reads only (conv_id, turn_idx), never text."""
    import pyarrow.compute as pc

    valid = pc.and_(
        pc.is_valid(batch.column("conv_id")), pc.is_valid(batch.column("turn_idx"))
    )
    bad = batch.filter(pc.invert(valid))
    n = bad.num_rows
    key = pc.fill_null(bad.column("conv_id"), "<null-conv>")
    return pa.table(
        {
            "stage": pa.array(["ingest"] * n, pa.string()),
            "key": key,
            "reason": pa.array(["INVALID_ROW"] * n, pa.string()),
        },
        schema=ERRORS_SCHEMA,
    )


def _only_clean(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    return t.filter(pc.is_null(t.column("drop_reason")))


def _record_error_rows(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    errs = t.filter(pc.is_valid(t.column("drop_reason")))
    reason = errs.column("drop_reason")
    stage = pc.if_else(
        pc.equal(reason, "MATERIAL_ALREADY_INGESTED"),
        pa.scalar("dedup", pa.string()),
        pa.scalar("assemble", pa.string()),
    )
    return pa.table(
        {"stage": stage, "key": errs.column("conv_id"), "reason": reason},
        schema=ERRORS_SCHEMA,
    )


def _fold_error_rows(t: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    errs = t.filter(pc.greater(t.column("n_coerced"), 0))
    keys: List[str] = []
    for eid, n in zip(
        errs.column("entity_id").to_pylist(), errs.column("n_coerced").to_pylist()
    ):
        keys.extend([eid] * int(n))  # one error row per skipped transition
    k = len(keys)
    return pa.table(
        {
            "stage": pa.array(["status_fold"] * k, pa.string()),
            "key": pa.array(keys, pa.string()),
            "reason": pa.array(["IMPOSSIBLE_TRANSITION"] * k, pa.string()),
        },
        schema=ERRORS_SCHEMA,
    )


def _extraction(turns, batch_size, extractor="rules", concurrency=None,
                model_kwargs=None):
    """Turns -> extraction rows. M14 ingest validation (schema cast +
    key-null split) fuses into the extract map."""
    turns_ds = _read_turns(turns, ["conv_id", "turn_idx", "text"]).map_batches(
        lambda b: validate_turns(b)[0], batch_format="pyarrow"
    )
    if extractor == "gliner":
        # heavy span model: ALWAYS a fixed actor pool (one warm model per
        # actor), never the elastic task path; small batches by default
        # (transformer inference memory)
        from ..stages.adapters import ModelRecordExtractor

        kw = dict(model_kwargs)
        ex_concurrency = kw.pop("concurrency", concurrency or 2)
        ex_num_gpus = kw.pop("num_gpus", 0)
        ex_batch = kw.pop("batch_size", min(batch_size, 256))
        return turns_ds.map_batches(
            ModelRecordExtractor,
            fn_constructor_kwargs=kw,
            batch_format="pyarrow",
            batch_size=ex_batch,
            concurrency=ex_concurrency,
            num_gpus=ex_num_gpus or None,
        )
    if concurrency is None:
        # task pool + per-process singleton: elastic, no actor startup (the
        # rule extractor's state is just compiled patterns)
        from ..stages.extract import extract_records

        return turns_ds.map_batches(
            extract_records, batch_format="pyarrow", batch_size=batch_size
        )
    # an explicit concurrency gets a fixed actor pool
    return turns_ds.map_batches(
        RecordExtractor,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def _ingest_rows(t: pa.Table) -> pa.Table:
    """A prior run's persisted ingest-invalid rows (old raw turns are not
    re-read)."""
    import pyarrow.compute as pc

    return t.filter(pc.equal(t.column("stage"), "ingest"))


def _triple_rows(t: pa.Table) -> pa.Table:
    return explode_triples(_only_clean(t))


def _log_progress(stage, rows, seconds):
    _log.info("stage %s: %d rows in %.1fs", stage, rows, seconds)


# ------------------------------------------------------------------ stages

def _clean(r) -> "ray.data.Dataset":  # noqa: F821
    # lazy per-batch filter — fuses into each consumer's execution
    return r.out["records"].map_batches(_only_clean, batch_format="pyarrow")


def _chem_mentions(r):
    return _clean(r).map_batches(explode_chem_mentions, batch_format="pyarrow")


def _branches(r, ids, status):
    """Branch staging is WIDTH-AWARE. Measured in-pipeline on 2.53M turns,
    same fixed plan: at 32 CPUs two driver-thread streaming executors
    thrash each other late in a wide session (ids+status 57.5s concurrent vs
    13.3s sequential) — the driver-side per-block work of two executors
    shares one GIL and grows with in-flight width. At 8 CPUs the opposite
    holds (11.7s concurrent vs 30.8s sequential): each branch is too small
    to fill the machine. At ONE CPU the two executors cannot overlap any
    task (measured: no gain, BASELINE.md). So: concurrent from 2 to 15
    driver-visible CPUs, sequential otherwise."""
    import ray

    try:
        width = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        width = 0
    if not 1 < width < 16:
        return r.sub("ids", ids), r.sub("status", status)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as ex:
        futures = [ex.submit(r.sub, "ids", ids), ex.submit(r.sub, "status", status)]
        return tuple(f.result() for f in futures)


def _nodes(r):
    """The nodes inputs are staged, not fused: fusing the shuffle-bearing
    branches plus the node-assembly joins into ONE streaming plan makes
    every all-to-all share one resource budget and thrashed the single
    memory bus (measured 68s fused vs 16s staged at 32 CPUs, 2.4M turns).
    The branches are entity-dimension-sized, so materializing them (object
    store, spillable) is bounded. One 3-column projection of chem_status is
    materialized ONCE and feeds both the rollup join and the chem-node join
    (each would otherwise re-execute it at its own to_arrow_refs)."""
    n, j = r.n_buckets, r.num_join_partitions
    chem_slim = r.sub("chem_slim", lambda: r.out["chem_status"].select_columns(
        ["entity_id", "pfas_status", "pfas_information_source"]
    ).materialize())
    ids_all, material_status = r.sub("branches", lambda: _branches(
        r,
        lambda: build_material_identities(_clean(r), n).materialize(),
        lambda: rollup_status(r.out["edges"], chem_slim, n, j).materialize(),
    ))
    # one shuffle produced BOTH dimension tables (row_kind MAT | MFR); the
    # manufacturers stage reuses it
    r.out["material_identities"] = ids_all
    return assemble_nodes(
        ids_all.filter(expr="row_kind == 'MAT'").select_columns(
            ["material_id", "name", "manufacturer"]),
        material_status, r.out["chem_mapping"], chem_slim,
        ids_all.filter(expr="row_kind == 'MFR'").select_columns(["manufacturer"]),
        j,
    )


def _manufacturers(r):
    # recomputes the identity shuffle only when resume skipped nodes
    ids_all = r.out.get("material_identities")
    if ids_all is None:
        ids_all = build_material_identities(_clean(r), r.n_buckets)
    return manufacturer_table(ids_all.filter(expr="row_kind == 'MFR'"))


def _ingest_feed(turns):
    # ingest-invalid rows: a second, lazy scan of the raw input pruned to
    # the two key columns (never re-reads text)
    src = [turns] if isinstance(turns, str) else turns
    return ("ing", src, _invalid_error_rows, ["conv_id", "turn_idx"])


def _error_feeds(r):
    # a shard stage's build returns its feeds: (part tag, source, per-file
    # transform, columns read); the source is a stage name, a list of
    # parquet paths or a Dataset (no source shards: a stage-level commit)
    return [
        ("rec", "records", _record_error_rows, ["conv_id", "drop_reason"]),
        ("fold", "chem_status", _fold_error_rows, ["entity_id", "n_coerced"]),
    ] + r.ingest_feeds


@dataclasses.dataclass(frozen=True)
class Stage:
    name: str
    build: Callable  # (run) -> Dataset; a shard stage returns its feeds
    grain: str = "stage"  # stage | bucket | shard
    terminal: bool = False  # only the caller consumes it: lazy in memory


STAGES = [
    Stage("records", lambda r: r.records_source(r)),
    Stage("chem_mapping", lambda r: build_chemical_mapping(
        _chem_mentions(r), r.n_buckets)),
    Stage("linked", lambda r: link_chem_mentions(
        _chem_mentions(r), r.out["chem_mapping"], r.num_join_partitions)),
    Stage("chem_status", lambda r: fold_chemical_states(r.out["linked"], r.n_buckets)),
    Stage("edges", lambda r: r.buckets(
        "edges", edge_candidates(r.out["linked"], _clean(r)), ["src", "dst"],
        edge_pick_last, EDGES_SCHEMA), grain="bucket"),
    Stage("triples", lambda r: [("", "records", _triple_rows, None)],
          grain="shard", terminal=True),
    Stage("nodes", _nodes, terminal=True),
    Stage("manufacturers", _manufacturers, terminal=True),
    Stage("lineage", lambda r: [("", "linked", functools.partial(
        lineage_rows, n_buckets=r.n_buckets), None)], grain="shard", terminal=True),
    Stage("errors", _error_feeds, grain="shard", terminal=True),
]


def _records_source(extraction, prior_files=None):
    """The records stage: assemble the extraction rows per conversation
    bucket, then the J1 guard — over the prior run's records too when
    ``prior_files`` is given (prior winners keep their min order, prior
    losers pass through on their error key)."""

    def build(r):
        records = r.buckets("records_assemble", extraction, ["conv_id"],
                            lambda t, b: assemble_bucket(t), RECORD_SCHEMA)
        if prior_files:
            import ray.data as rd

            records = rd.read_parquet(prior_files).union(records)
        # reread_safe: parts-backed assemble output lets the dedup decision
        # pass and the apply pass each re-read parquet instead of re-running
        # extraction
        return dedup_records(records, r.n_buckets, reread_safe=r.ckpt is not None)

    return build


class _Run:
    """One execution of ``STAGES``: stage outputs by name plus one metrics
    record per stage. The in-memory vs checkpointed choice is ``ckpt``."""

    def __init__(self, records_source, ingest_feeds, n_buckets, num_join_partitions,
                 ckpt: Optional[CheckpointManager] = None, progress=None):
        self.records_source = records_source
        self.ingest_feeds = ingest_feeds
        self.n_buckets = n_buckets
        self.num_join_partitions = num_join_partitions
        self.ckpt = ckpt
        self.progress = progress or _log_progress
        self.out: dict = {}
        self.metrics: List[dict] = []
        self._stage = ""
        self._last_end = time.perf_counter()

    def buckets(self, name, ds, keys, fn, schema):
        """Apply ``fn(bucket, bucket_id)`` per hash bucket of ``keys``; with
        a checkpoint each bucket commits its own part under ``name``, keyed
        also by the committed files of every stage before it."""
        from ..stages import shuffle

        if self.ckpt is None:
            return shuffle.bucket_group_apply(ds, keys, fn, self.n_buckets)
        parts = self.ckpt.parts_dir(name, [self.ckpt.stage_dir(s) for s in self.out])
        return shuffle.bucket_group_apply_partitioned(
            ds, keys, fn, self.n_buckets, parts, schema,
        )

    def sub(self, name, fn):
        """Time one step inside the running stage as a sub-row
        (partition_id -2; the stage gauge surfaces ignore them)."""
        t0 = time.perf_counter()
        res = fn()
        self._record(-2, f"{self._stage}.{name}", None, t0, 0.0, None)
        return res

    def _record(self, partition_id, stage, rows, t0, gap_s, ex_bytes):
        self.metrics.append(
            {
                "partition_id": partition_id,
                "stage": stage,
                "rows_out": rows,
                "duration_ms": (time.perf_counter() - t0) * 1000,
                "gap_ms": gap_s * 1000,
                "exchange_mb": None if ex_bytes is None else round(ex_bytes / 1e6, 2),
            }
        )

    def _source(self, src, columns):
        return self.out[src] if isinstance(src, str) else _read_turns(src, columns)

    def _files(self, src):
        if isinstance(src, str):
            return _expand(self.ckpt.stage_dir(src))
        return [f for p in src for f in _expand(p)] if isinstance(src, list) else None

    def _lazy(self, st: Stage):
        if st.grain != "shard":
            return st.build(self)
        parts = [self._source(src, cols).map_batches(fn, batch_format="pyarrow")
                 for _, src, fn, cols in st.build(self)]
        return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def _commit(self, st: Stage):
        ck = self.ckpt
        if st.grain == "bucket":
            def write_buckets():
                st.build(self)  # commits its own bucket parts

            return ck.run(st.name, write_buckets)
        if st.grain == "shard":
            feeds = [(tag, self._files(src), fn, cols)
                     for tag, src, fn, cols in st.build(self)]
            # a Dataset input has no source shards: stage-level commit
            if all(files is not None for _, files, _, _ in feeds):
                sources = [f for _, files, _, _ in feeds for f in files]
                return ck.run(st.name, lambda: write_shards(
                    ck.parts_dir(st.name, sources), feeds))
        return ck.run(st.name, lambda: self._lazy(st),
                      **({} if st.terminal else REREAD_FILE_OPTS))

    def stage(self, st: Stage) -> None:
        """Run one stage: checkpoint it, or materialize it unless it is
        terminal; then emit its record. gap_ms is the wall time since the
        previous stage ended — construction-time executions (broadcast
        probes etc.) show up there."""
        self._stage = st.name
        t0 = time.perf_counter()
        if self.ckpt is not None:
            ds = self._commit(st)
            m = self.ckpt.manifest(st.name)
            rows, ex_bytes = m["rows"], m.get("exchange_bytes")
        else:
            from ..stats import meter_snapshot, snapshot_delta

            snap0 = meter_snapshot()
            ds, rows = self._lazy(st), None
            if not st.terminal:
                ds = ds.materialize()
                rows = ds.count()
            ex = snapshot_delta(snap0, meter_snapshot())
            ex_bytes = ex["exchange_bytes"] if ex else None
        self.out[st.name] = ds
        self._record(-1, st.name, rows, t0, t0 - self._last_end, ex_bytes)
        self._last_end = time.perf_counter()
        if rows is not None:
            self.progress(st.name, rows, self._last_end - t0)

    def result(self) -> KGResult:
        # Cold-build log hygiene (VERDICT r4 #4): Ray's sort/groupby reduces
        # emit zero-column filler blocks for empty partitions that no UDF
        # ever sees, so they cannot be typed at any projection site; the
        # narrow driver-side filter (raylog.py — drops ONLY the empty-filler
        # variant, real schema divergences stay loud) is installed wherever
        # the build runs, not just in bench.
        from ..raylog import install_empty_schema_filter

        install_empty_schema_filter()
        for st in STAGES:
            self.stage(st)
            if st.name == "records" and self.metrics[-1]["rows_out"] == 0:
                return _empty_result(self.metrics)
        if self.ckpt is not None:
            # persist the metrics table next to the data (A6 rollup surface)
            import pyarrow.parquet as pq

            metrics_dir = os.path.join(self.ckpt.root, "metrics")
            os.makedirs(metrics_dir, exist_ok=True)
            pq.write_table(pa.Table.from_pylist(self.metrics, schema=METRICS_SCHEMA),
                           os.path.join(metrics_dir, "metrics.parquet"))
        outputs = ("triples", "nodes", "edges", "lineage", "errors", "manufacturers")
        return KGResult(metrics=self.metrics, **{n: self.out[n] for n in outputs})


def build_kg(
    turns,
    out_dir: Optional[str] = None,
    n_buckets: int = 32,
    num_join_partitions: int = 16,
    extract_concurrency: Optional[int] = None,
    batch_size: int = 8192,
    progress=None,
    extractor: str = "rules",
    extractor_kwargs: Optional[dict] = None,
) -> KGResult:
    """Run the full KG build.

    turns: parquet path(s) or a ray.data.Dataset with the input_hint schema.
    out_dir: when set, pinned stages + outputs checkpoint to
      ``out_dir/<stage>/``; a rerun skips completed stages (stage-level
      resume with per-partition files inside each stage dir).
    n_buckets: hash-bucket count for the wide stages — scale with cluster
      size (rule of thumb: 2-4x total cores).
    progress: optional callable(stage_name, rows, seconds) invoked as each
      stage commits or materializes — the live progress surface (reference
      A8 stage gauges); defaults to a logging.info line per stage.
    extractor: "rules" (default — the deterministic vectorized regex
      extractor) or "gliner" (stages/adapters.ModelRecordExtractor: a warm
      GLiNER span model per actor, record assembly by span order — same
      EXTRACTION_SCHEMA, so every downstream stage is unchanged). When
      "gliner" is requested but the package is absent and no
      ``model_factory`` is injected via extractor_kwargs, the build LOGS a
      warning and falls back to rules (auto-fallback, VERDICT r4 #7).
    extractor_kwargs: forwarded to the model extractor stage —
      model_name, labels, model_factory (tests), concurrency, num_gpus.
    """
    extractor_kwargs = extractor_kwargs or {}
    if extractor == "gliner":
        from ..stages.adapters import gliner_available

        if "model_factory" not in extractor_kwargs and not gliner_available():
            _log.warning(
                "extractor='gliner' requested but the gliner package is not "
                "installed and no model_factory was injected; falling back "
                "to the rule-based extractor"
            )
            extractor = "rules"
    elif extractor != "rules":
        raise ValueError(f"unknown extractor {extractor!r}")
    if out_dir:
        from ..state.checkpoint import input_fingerprint

        # fingerprint = params + INPUT identity (file sizes/mtimes) so stale
        # checkpoints from a previous input never masquerade as current
        in_fp = (
            input_fingerprint(turns)
            if isinstance(turns, (str, list))
            else "ds"  # Dataset input: identity unknowable without executing;
            # callers passing a Dataset + out_dir own invalidation
        )
        # extractor choice is part of stage identity: a rules checkpoint
        # must never masquerade as a model-extracted build
        ex_fp = "" if extractor == "rules" else f"_x{extractor}"
        ckpt = CheckpointManager(
            out_dir,
            params_fingerprint=f"b{n_buckets}_j{num_join_partitions}_{in_fp}{ex_fp}",
        )
    else:
        ckpt = None
    extraction = _extraction(turns, batch_size, extractor, extract_concurrency,
                             extractor_kwargs)
    return _Run(_records_source(extraction), [_ingest_feed(turns)], n_buckets,
                num_join_partitions, ckpt, progress).result()


def ingest_delta(
    new_turns,
    prior_dir: str,
    n_buckets: int = 32,
    num_join_partitions: int = 16,
    batch_size: int = 8192,
) -> KGResult:
    """Incremental ingest — the reference's actual operating mode (a queue
    of NEW documents arriving against an existing graph,
    processors/queue.py:157-201), as a batch delta over the same ``STAGES``
    as ``build_kg``, with two different sources:

      * records: extraction + assembly run ONLY on the new turns (the
        expensive per-turn NLP is never repeated for old data); the prior
        run's checkpointed ``records`` stage (per-conversation extraction
        output — orders of magnitude smaller than the turns it came from)
        replays through the J1 dedup guard together with the new records,
        so a delta conversation re-describing an existing material is
        dropped with MATERIAL_ALREADY_INGESTED exactly as a live probe
        would have done;
      * ingest errors: the new turns' scan plus the prior run's persisted
        ``stage == 'ingest'`` rows.

    Linking, the status fold, edge dedup and rollup recompute over the
    UNION of records — dimension-sized work keyed by the same deterministic
    order keys the full build uses. Because every rule is order-keyed (not
    arrival-keyed), the result is EXACTLY ``build_kg(prior_turns ++
    new_turns)`` on every output table — including the hard case where a
    delta mention merges two previously-distinct entities (canonicalization
    re-runs over the union, so the merged cluster's winner and the
    re-folded status match the full build bit-for-bit). Pinned by
    tests/test_delta_ingest.py.

    ``prior_dir`` must be a ``build_kg(out_dir=...)`` checkpoint directory.
    The delta runs like ``build_kg`` without ``out_dir`` (lazy outputs, one
    metrics record per stage); write it to a NEW directory to make it the
    next delta's prior."""
    import glob

    rec_files = sorted(glob.glob(os.path.join(prior_dir, "records", "*.parquet")))
    if not rec_files:
        raise FileNotFoundError(
            f"ingest_delta: no records checkpoint under {prior_dir!r} — the "
            f"prior run must have used build_kg(out_dir=...)"
        )
    extraction = _extraction(new_turns, batch_size)
    feeds = [_ingest_feed(new_turns)]
    err_files = sorted(glob.glob(os.path.join(prior_dir, "errors", "*.parquet")))
    if err_files:
        feeds.append(("prior", err_files, _ingest_rows, None))
    return _Run(_records_source(extraction, rec_files), feeds, n_buckets,
                num_join_partitions).result()
