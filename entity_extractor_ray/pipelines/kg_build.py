"""The flagship pipeline: transcript turns -> knowledge graph.

Logical DAG (SURVEY.md §7.1), all Ray Data:

    read_parquet(turns: conv_id, turn_idx, role, text, tool, ts)
      -> map_batches(RecordExtractor)            [vectorized RE2, stateless]
      -> assemble_records + J1 guard dedup       [groupby conv/material bucket]
      -> explode triples / chem mentions         [map_batches]
      -> build_chemical_mapping                  [distinct-key groupby + union-find]
      -> link_chem_mentions                      [bucket hash join on probe_key]
      -> fold_chemical_states                    [bucketed ordered fold]
      -> material identities / edges / rollup    [pre-aggregated groupbys]
      -> nodes / edges / lineage                 [Parquet sinks]

Execution discipline: a stage is PINNED (checkpointed to Parquet when
``out_dir`` is set, materialized otherwise) only when MULTIPLE downstream
branches consume it — everything else stays lazy so Ray's streaming executor
fuses it into its consumer and the stage count (fixed scheduling overhead)
stays low. Pinned stages: deduped records, chemical mapping, linked
mentions, chemical status, edges. Outputs (triples, nodes, edges, lineage)
are written under ``out_dir`` and resumable; reruns skip completed stages
via commit-last manifests (state/checkpoint.py).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import List, Optional

import pyarrow as pa

from ..stages.assemble import assemble_records, dedup_records
from ..stages.extract import RecordExtractor
from ..stages.graph import (
    assemble_nodes,
    dedup_edges,
    dedup_edges_partitioned,
    build_material_identities,
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
from ..state.checkpoint import CheckpointManager

ERRORS_SCHEMA = pa.schema(
    [
        ("stage", pa.string()),  # assemble | dedup | status_fold
        ("key", pa.string()),  # conv_id (assemble/dedup) or entity_id
        ("reason", pa.string()),
    ]
)

METRICS_SCHEMA = pa.schema(
    [
        ("partition_id", pa.int32()),
        ("stage", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        ("matched_count", pa.int64()),
        ("duration_ms", pa.float64()),
    ]
)


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
        EDGES_SCHEMA, LINEAGE_SCHEMA, MANUFACTURERS_SCHEMA, NODES_SCHEMA,
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


def _validate_split(batch: pa.Table) -> pa.Table:
    ok, _bad = validate_turns(batch)
    return ok


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
      pinned stage commits — the live progress surface (reference A8 stage
      gauges); defaults to a logging.info line per stage.
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
    # Cold-build log hygiene (VERDICT r4 #4): Ray's sort/groupby reduces
    # emit zero-column filler blocks for empty partitions that no UDF ever
    # sees, so they cannot be typed at any projection site; the narrow
    # driver-side filter (raylog.py — drops ONLY the empty-filler variant,
    # real schema divergences stay loud) is installed wherever the build
    # runs, not just in bench.
    from ..raylog import install_empty_schema_filter

    install_empty_schema_filter()
    extractor_kwargs = dict(extractor_kwargs or {})
    if extractor == "gliner":
        from ..stages.adapters import gliner_available

        if "model_factory" not in extractor_kwargs and not gliner_available():
            import logging

            logging.getLogger("entity_extractor_ray.kg_build").warning(
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
    if progress is None:
        import logging

        _plog = logging.getLogger("entity_extractor_ray.kg_build")

        def progress(stage, rows, seconds):  # noqa: F811
            _plog.info("stage %s: %d rows in %.1fs", stage, rows, seconds)

    metrics: List[dict] = []
    last_end = [time.perf_counter()]

    # a re-read checkpoint's FILE COUNT caps every downstream scan's
    # parallelism (Ray's parquet reader never splits a file across read
    # tasks), so interior stages commit many small files sized to keep
    # 4x the join partitions in flight; terminal outputs (nothing re-reads
    # them in-pipeline) keep the large default for cheap commits
    reread_file_opts = {"min_rows_per_file": 2048, "max_rows_per_file": 8192}

    def pin(name, build, terminal: bool = False, partitioned: bool = False):
        """Checkpoint (out_dir mode) or materialize a multi-consumer stage.
        partitioned=True: ``build(stage_dir)`` commits its own per-bucket
        parts (ckpt.run_partitioned; only valid with out_dir). gap_ms = wall
        time since the previous pin ended — construction-time executions
        (broadcast probes etc.) show up there."""
        t0 = time.perf_counter()
        if ckpt is not None:
            if partitioned:
                ds = ckpt.run_partitioned(name, build)
            else:
                ds = ckpt.run(name, build, **({} if terminal else reread_file_opts))
            m = ckpt.manifest(name)
            rows = m["rows"]
            ex_bytes = m.get("exchange_bytes")
        else:
            from ..stats import meter_snapshot, snapshot_delta

            snap0 = meter_snapshot()
            ds = build().materialize()
            rows = ds.count()
            ex = snapshot_delta(snap0, meter_snapshot())
            ex_bytes = ex["exchange_bytes"] if ex else None
        now = time.perf_counter()
        metrics.append(
            {
                "partition_id": -1,
                "stage": name,
                "rows_in": -1,
                "rows_out": rows,
                "matched_count": -1,
                "duration_ms": (now - t0) * 1000,
                "gap_ms": (t0 - last_end[0]) * 1000,
                "exchange_mb": (
                    round(ex_bytes / 1e6, 2) if ex_bytes is not None else None
                ),
            }
        )
        last_end[0] = now
        progress(name, rows, (now - t0))
        return ds

    def pin_sharded(name, src_stage, transform, read_columns=None):
        """Terminal map-only sink with PER-INPUT-SHARD resume: one output
        part per upstream checkpoint file (state/checkpoint.run_sharded) —
        a died terminal write restarts from its finished parts, and the
        resume key needs no repartition because the upstream files are
        deterministic."""
        import glob as _glob
        import os as _os

        t0 = time.perf_counter()
        files = sorted(
            _glob.glob(_os.path.join(out_dir, src_stage, "*.parquet"))
        )
        ds = ckpt.run_sharded(name, files, transform, read_columns)
        rows = ckpt.manifest(name)["rows"]
        now = time.perf_counter()
        metrics.append(
            {
                "partition_id": -1,
                "stage": name,
                "rows_in": -1,
                "rows_out": rows,
                "matched_count": -1,
                "duration_ms": (now - t0) * 1000,
                "gap_ms": (t0 - last_end[0]) * 1000,
            }
        )
        last_end[0] = now
        progress(name, rows, (now - t0))
        return ds

    raw_turns = _read_turns(turns, ["conv_id", "turn_idx", "text"])
    # M14 ingest validation: schema cast + key-null split (lazy; fuses into
    # the extract stage)
    turns_ds = raw_turns.map_batches(_validate_split, batch_format="pyarrow")

    if extractor == "gliner":
        # heavy span model: ALWAYS a fixed actor pool (one warm model per
        # actor), never the elastic task path; small batches by default
        # (transformer inference memory)
        from ..stages.adapters import ModelRecordExtractor

        ex_concurrency = extractor_kwargs.pop(
            "concurrency", extract_concurrency or 2
        )
        ex_num_gpus = extractor_kwargs.pop("num_gpus", 0)
        ex_batch = extractor_kwargs.pop("batch_size", min(batch_size, 256))
        extraction = turns_ds.map_batches(
            ModelRecordExtractor,
            fn_constructor_kwargs=extractor_kwargs,
            batch_format="pyarrow",
            batch_size=ex_batch,
            concurrency=ex_concurrency,
            num_gpus=ex_num_gpus or None,
        )
    elif extract_concurrency is None:
        # task pool + per-process singleton: elastic, no actor startup
        # (the rule extractor's state is just compiled patterns); pass an
        # explicit concurrency to get a fixed actor pool for heavy models
        from ..stages.extract import extract_records

        extraction = turns_ds.map_batches(
            extract_records, batch_format="pyarrow", batch_size=batch_size
        )
    else:
        extraction = turns_ds.map_batches(
            RecordExtractor,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=extract_concurrency,
        )
    # extract -> assemble -> J1-guard dedup fused into ONE pinned execution;
    # the pinned table carries BOTH surviving records (drop_reason null) and
    # audited error rows, so resume keeps the error channel too. With an
    # out_dir, the assemble shuffle commits PER-BUCKET part files
    # (assemble_records_partitioned): a death mid-records resumes from the
    # finished buckets instead of restarting the stage from zero.
    if ckpt is not None:
        from ..stages.assemble import assemble_records_partitioned

        parts_dir = os.path.join(out_dir, "records_assemble")
        records = pin(
            "records",
            # reread_safe: the assemble output is parts-backed on disk, so
            # the dedup decision pass and the apply pass each re-read
            # parquet instead of re-running extraction
            lambda: dedup_records(
                assemble_records_partitioned(
                    extraction, parts_dir, n_buckets, fingerprint=ckpt.fingerprint
                ),
                n_buckets,
                reread_safe=True,
            ),
        )
    else:
        records = pin(
            "records",
            lambda: dedup_records(assemble_records(extraction, n_buckets), n_buckets),
        )
    if records.count() == 0:
        return _empty_result(metrics)

    import pyarrow.compute as pc  # noqa: F401

    # lazy per-batch filters — they fuse into each consumer's execution
    clean = records.map_batches(_only_clean, batch_format="pyarrow")

    chem_mentions = clean.map_batches(explode_chem_mentions, batch_format="pyarrow")
    mapping = pin("chem_mapping", lambda: build_chemical_mapping(chem_mentions, n_buckets))
    linked = pin(
        "linked", lambda: link_chem_mentions(chem_mentions, mapping, num_join_partitions)
    )
    chem_status = pin("chem_status", lambda: fold_chemical_states(linked, n_buckets))
    # J4 dedup of BOTH edge families (CONTAINS + MADE_BY) in one bucket
    # shuffle; with an out_dir the bucket parts commit directly into the
    # stage dir (per-bucket resume, no second write)
    if ckpt is not None:
        edges = pin(
            "edges",
            lambda d: dedup_edges_partitioned(
                linked, clean, d, n_buckets, fingerprint=ckpt.fingerprint
            ),
            partitioned=True,
        )
    else:
        edges = pin("edges", lambda: dedup_edges(linked, clean, n_buckets))

    # ingest-invalid rows are a second (lazy) scan of the raw input — Ray
    # Data operators are single-output, so a rare-row side-channel costs a
    # re-read IF AND ONLY IF the errors dataset is actually consumed; the
    # scan is pruned to the two key columns (never re-reads text)
    ingest_errors = _read_turns(turns, ["conv_id", "turn_idx"]).map_batches(
        _invalid_error_rows, batch_format="pyarrow"
    )
    errors = (
        records.map_batches(_record_error_rows, batch_format="pyarrow")
        .union(chem_status.map_batches(_fold_error_rows, batch_format="pyarrow"))
        .union(ingest_errors)
    )

    # single-consumer branches stay lazy (fused into their sink's execution)
    triples = clean.map_batches(explode_triples, batch_format="pyarrow")

    def _build_nodes():
        # the nodes inputs are staged, not fused: fusing the shuffle-bearing
        # branches plus the node-assembly joins into ONE streaming plan
        # makes every all-to-all share one resource budget and thrashed the
        # single memory bus (measured 68s fused vs 16s staged at 32 CPUs,
        # 2.4M turns). The branches are entity-dimension-sized, so
        # materializing them (object store, spillable) is bounded. Round 3:
        # the two independent branches materialize CONCURRENTLY (each
        # driver thread drives its own streaming executor) — sequential
        # staging serialized work that is individually too small to fill
        # the machine, making nodes the inverse-scaling stage (31s@8 ->
        # 42s@32, r2 BASELINE.md). distinct_manufacturers now derives from
        # the materialized material identities (vendor-dimension input)
        # instead of a third full-table groupby over records.
        from concurrent.futures import ThreadPoolExecutor

        def sub(name, t0):
            # sub-stage breakdown rows (partition_id -2 marks them as
            # informational; the stage gauge surface ignores them)
            now = time.perf_counter()
            metrics.append(
                {
                    "partition_id": -2,
                    "stage": f"nodes.{name}",
                    "rows_in": -1,
                    "rows_out": -1,
                    "matched_count": -1,
                    "duration_ms": (now - t0) * 1000,
                }
            )
            return now

        t = time.perf_counter()
        # one 3-column projection of chem_status, materialized ONCE and fed
        # to both consumers (rollup join + chem-node join) — each would
        # otherwise re-execute the projection at its own to_arrow_refs
        chem_slim = chem_status.select_columns(
            ["entity_id", "pfas_status", "pfas_information_source"]
        ).materialize()
        t = sub("chem_slim", t)

        def timed(name, fn):
            s = time.perf_counter()
            r = fn()
            metrics.append(
                {
                    "partition_id": -2,
                    "stage": f"nodes.{name}",
                    "rows_in": -1,
                    "rows_out": -1,
                    "matched_count": -1,
                    "duration_ms": (time.perf_counter() - s) * 1000,
                }
            )
            return r

        _ids = lambda: build_material_identities(clean, n_buckets).materialize()  # noqa: E731
        _status = lambda: rollup_status(  # noqa: E731
            edges, chem_slim, n_buckets, num_join_partitions
        ).materialize()
        # Branch staging is WIDTH-AWARE. Measured in-pipeline on 2.53M
        # turns, same fixed plan: at 32 CPUs two driver-thread streaming
        # executors thrash each other late in a wide session (ids+status
        # 57.5s concurrent vs 13.3s sequential) — the driver-side per-block
        # work of two executors shares one GIL and grows with in-flight
        # width. At 8 CPUs the opposite holds (11.7s concurrent vs 30.8s
        # sequential): each branch is too small to fill the machine. At
        # ONE CPU the two executors cannot overlap any task (measured: no
        # gain, BASELINE.md). So: concurrent from 2 to 15 driver-visible
        # CPUs, sequential otherwise.
        import ray as _ray

        try:
            width = int(_ray.cluster_resources().get("CPU", 0))
        except Exception:
            width = 0
        if not 1 < width < 16:
            ids_all = timed("ids", _ids)
            material_status = timed("status", _status)
        else:
            with ThreadPoolExecutor(max_workers=2) as ex:
                f_ids = ex.submit(timed, "ids", _ids)
                f_status = ex.submit(timed, "status", _status)
                ids_all = f_ids.result()
                material_status = f_status.result()
        t = sub("branches", t)
        _ids_holder["ids_all"] = ids_all
        # one shuffle produced BOTH dimension tables (row_kind MAT | MFR)
        material_ids = ids_all.filter(expr="row_kind == 'MAT'").select_columns(
            ["material_id", "name", "manufacturer"]
        )
        manufacturers = ids_all.filter(expr="row_kind == 'MFR'").select_columns(
            ["manufacturer"]
        )
        return assemble_nodes(
            material_ids, material_status, mapping, chem_slim, manufacturers,
            num_join_partitions,
        )

    _ids_holder: dict = {}

    def _build_manufacturers():
        # reuses the identity shuffle _build_nodes already ran; recomputes it
        # only when resume skipped the nodes stage this session
        ids_all = _ids_holder.get("ids_all")
        if ids_all is None:
            ids_all = build_material_identities(clean, n_buckets)
        return manufacturer_table(ids_all.filter(expr="row_kind == 'MFR'"))

    lineage = linked.map_batches(
        lineage_rows, fn_kwargs={"n_buckets": n_buckets}, batch_format="pyarrow"
    )

    if ckpt is not None:
        # map-only terminal sinks resume per INPUT SHARD (one part per
        # upstream checkpoint file, no repartition)
        triples = pin_sharded(
            "triples", "records",
            lambda t: explode_triples(_only_clean(t)),
        )
        # branch materializes skip on resume
        nodes = pin("nodes", _build_nodes, terminal=True)
        manufacturers = pin("manufacturers", _build_manufacturers, terminal=True)
        lineage = pin_sharded(
            "lineage", "linked",
            lambda t: lineage_rows(t, n_buckets=n_buckets),
        )
        if isinstance(turns, (str, list)):
            # errors resume PER SOURCE SHARD across its three map-only
            # feeds (record drops / fold coercions / ingest scan) — one
            # stage dir, parts tagged by feed; a death mid-errors-stage
            # rebuilds only the missing shards (VERDICT r4 #8). Columns
            # pruned per feed (the ingest scan never re-reads text).
            import glob as _glob
            import os as _os

            in_files = [
                f
                for p in ([turns] if isinstance(turns, str) else turns)
                for f in _expand(p)
            ]
            t0e = time.perf_counter()
            errors = ckpt.run_sharded_multi(
                "errors",
                [
                    ("rec",
                     sorted(_glob.glob(_os.path.join(out_dir, "records", "*.parquet"))),
                     _record_error_rows, ["conv_id", "drop_reason"]),
                    ("fold",
                     sorted(_glob.glob(_os.path.join(out_dir, "chem_status", "*.parquet"))),
                     _fold_error_rows, ["entity_id", "n_coerced"]),
                    ("ing", in_files, _invalid_error_rows,
                     ["conv_id", "turn_idx"]),
                ],
            )
            e_rows = ckpt.manifest("errors")["rows"]
            now_e = time.perf_counter()
            metrics.append(
                {
                    "partition_id": -1,
                    "stage": "errors",
                    "rows_in": -1,
                    "rows_out": e_rows,
                    "matched_count": -1,
                    "duration_ms": (now_e - t0e) * 1000,
                    "gap_ms": (t0e - last_end[0]) * 1000,
                }
            )
            last_end[0] = now_e
            progress("errors", e_rows, now_e - t0e)
        else:
            # Dataset input: source shards unknowable — stage-level commit
            errors = pin("errors", lambda ds=errors: ds, terminal=True)
    else:
        nodes = _build_nodes()
        manufacturers = _build_manufacturers()

    if ckpt is not None:
        # persist the metrics table next to the data (A6 rollup surface)
        import pyarrow.parquet as pq

        metrics_dir = os.path.join(out_dir, "metrics")
        os.makedirs(metrics_dir, exist_ok=True)
        pq.write_table(
            pa.table(
                {
                    "partition_id": pa.array([m["partition_id"] for m in metrics], pa.int32()),
                    "stage": pa.array([m["stage"] for m in metrics], pa.string()),
                    "rows_in": pa.array([m["rows_in"] for m in metrics], pa.int64()),
                    "rows_out": pa.array([m["rows_out"] for m in metrics], pa.int64()),
                    "matched_count": pa.array([m["matched_count"] for m in metrics], pa.int64()),
                    "duration_ms": pa.array([m["duration_ms"] for m in metrics], pa.float64()),
                },
                schema=METRICS_SCHEMA,
            ),
            os.path.join(metrics_dir, "metrics.parquet"),
        )

    return KGResult(
        triples=triples, nodes=nodes, edges=edges, lineage=lineage,
        metrics=metrics, errors=errors, manufacturers=manufacturers,
    )


def ingest_delta(
    new_turns,
    prior_dir: str,
    n_buckets: int = 32,
    num_join_partitions: int = 16,
    batch_size: int = 8192,
) -> KGResult:
    """Incremental ingest — the reference's actual operating mode (a queue
    of NEW documents arriving against an existing graph,
    processors/queue.py:157-201), as a batch delta:

      * extraction + assembly run ONLY on the new turns (the expensive
        per-turn NLP is never repeated for old data);
      * the prior run's checkpointed ``records`` stage (per-conversation
        extraction output — orders of magnitude smaller than the turns it
        came from) replays through the J1 dedup guard together with the new
        records, so a delta conversation re-describing an existing material
        is dropped with MATERIAL_ALREADY_INGESTED exactly as a live probe
        would have done;
      * linking, the status fold, edge dedup and rollup recompute over the
        UNION of records — dimension-sized work keyed by the same
        deterministic order keys the full build uses.

    Because every downstream stage recomputes from the merged records and
    every rule is order-keyed (not arrival-keyed), the result is EXACTLY
    ``build_kg(prior_turns ++ new_turns)`` on every output table — including
    the hard case where a delta mention merges two previously-distinct
    entities (canonicalization re-runs over the union, so the merged
    cluster's winner and the re-folded status match the full build
    bit-for-bit). Pinned by tests/test_delta_ingest.py.

    ``prior_dir`` must be a ``build_kg(out_dir=...)`` checkpoint directory.
    The delta result is returned lazily/materialized (no out_dir mode yet);
    write it to a NEW directory to make it the next delta's prior."""
    import glob
    import os

    import ray.data as rd

    from ..raylog import install_empty_schema_filter

    install_empty_schema_filter()  # same cold-run hygiene as build_kg

    rec_files = sorted(glob.glob(os.path.join(prior_dir, "records", "*.parquet")))
    if not rec_files:
        raise FileNotFoundError(
            f"ingest_delta: no records checkpoint under {prior_dir!r} — the "
            f"prior run must have used build_kg(out_dir=...)"
        )
    prior_records = rd.read_parquet(rec_files)

    raw_turns = _read_turns(new_turns, ["conv_id", "turn_idx", "text"])
    turns_ds = raw_turns.map_batches(_validate_split, batch_format="pyarrow")
    from ..stages.extract import extract_records

    extraction = turns_ds.map_batches(
        extract_records, batch_format="pyarrow", batch_size=batch_size
    )
    # re-dedup over (prior winners+losers ∪ delta): winners keep min order,
    # prior losers pass through on their error key — composable with the
    # prior run's own dedup, so the merged table equals the full build's
    records = dedup_records(
        prior_records.union(assemble_records(extraction, n_buckets)), n_buckets
    ).materialize()
    if records.count() == 0:
        return _empty_result([])

    clean = records.map_batches(_only_clean, batch_format="pyarrow")
    chem_mentions = clean.map_batches(explode_chem_mentions, batch_format="pyarrow")
    mapping = build_chemical_mapping(chem_mentions, n_buckets).materialize()
    linked = link_chem_mentions(
        chem_mentions, mapping, num_join_partitions
    ).materialize()
    chem_status = fold_chemical_states(linked, n_buckets).materialize()
    edges = dedup_edges(linked, clean, n_buckets).materialize()

    from ..stages.graph import rollup_status as _rollup

    chem_slim = chem_status.select_columns(
        ["entity_id", "pfas_status", "pfas_information_source"]
    ).materialize()
    ids_all = build_material_identities(clean, n_buckets).materialize()
    material_status = _rollup(edges, chem_slim, n_buckets, num_join_partitions)
    material_ids = ids_all.filter(expr="row_kind == 'MAT'").select_columns(
        ["material_id", "name", "manufacturer"]
    )
    mfr_rows = ids_all.filter(expr="row_kind == 'MFR'")
    nodes = assemble_nodes(
        material_ids, material_status, mapping, chem_slim,
        mfr_rows.select_columns(["manufacturer"]), num_join_partitions,
    )
    manufacturers = manufacturer_table(mfr_rows)

    triples = clean.map_batches(explode_triples, batch_format="pyarrow")
    lineage = linked.map_batches(
        lineage_rows, fn_kwargs={"n_buckets": n_buckets}, batch_format="pyarrow"
    )

    # errors: merged-record drops + re-folded coercions + NEW ingest scan +
    # the prior run's persisted ingest-invalid rows (old raw turns are not
    # re-read)
    errors = records.map_batches(_record_error_rows, batch_format="pyarrow").union(
        chem_status.map_batches(_fold_error_rows, batch_format="pyarrow")
    ).union(
        _read_turns(new_turns, ["conv_id", "turn_idx"]).map_batches(
            _invalid_error_rows, batch_format="pyarrow"
        )
    )
    err_files = sorted(glob.glob(os.path.join(prior_dir, "errors", "*.parquet")))
    if err_files:
        prior_ingest = rd.read_parquet(err_files).filter(expr="stage == 'ingest'")
        errors = errors.union(prior_ingest)

    return KGResult(
        triples=triples, nodes=nodes, edges=edges, lineage=lineage,
        metrics=[], errors=errors, manufacturers=manufacturers,
    )
