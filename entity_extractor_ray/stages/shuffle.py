"""Bucketed grouped-apply: the engine's standard wide-operation shape.

``ds.groupby(key).map_groups(fn)`` calls Python once per key — ruinous when
there are millions of tiny groups (one per conversation / entity). Instead we
shuffle ONCE on ``bucket = stable_hash64(key) % n_buckets`` and hand each
*bucket* (thousands of keys) to one vectorized call as an Arrow table; a
bucket function that computes in pandas converts once on its first line.
Properties:

  * one all-to-all exchange, n_buckets output partitions (tune to cluster);
  * hot KEYS don't skew the shuffle as long as per-key work was pre-reduced
    (callers pre-aggregate before applying when a key's row count is
    unbounded — see linking.py's distinct-key reduction);
  * bucket ids double as deterministic output partition ids for lineage,
    metrics and resumable writes.

``_apply_buckets`` holds the engine's only ``map_groups``: the one bucket
apply ``bucket_group_apply``, its per-bucket-commit form
``bucket_group_apply_partitioned`` and ``bucket_hash_join`` all run through
it. Grouped SUM/COUNT/MIN/MAX and DISTINCT go through ``group_aggregate``:
one Arrow group-by partial per batch, then one bucket-apply combine. The
engine calls no Ray-native ``groupby(...).aggregate()``: on the pandas
blocks ``exact_dedup`` aggregates, that operator took 1.4-2.1 s per query
where ``group_aggregate`` takes 0.2-0.3 s (perfbench ``queries``, 1 CPU).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

BUCKET_COL = "__bucket"


def stable_bucket_array(batch: pa.Table, key_cols: Sequence[str], n_buckets: int) -> np.ndarray:
    """Vectorized, process-stable bucket assignment: concatenate the key
    columns (null -> "") and siphash them with pandas' fixed-key hasher
    (deterministic across processes, unlike builtin hash())."""
    import pyarrow.compute as pc

    parts = []
    has_binary = False
    for c in key_cols:
        col = batch.column(c)
        if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            # packed-id exchange columns (arrowutil.hex_to_bin) stay binary:
            # a cast to string would utf8-validate raw digest bytes and raise
            has_binary = True
        elif not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
            col = pc.cast(col, pa.string())
        parts.append(col)
    if has_binary:
        parts = [
            pc.cast(p, pa.binary())
            if not (pa.types.is_binary(p.type) or pa.types.is_large_binary(p.type))
            else p
            for p in parts
        ]
        parts = [pc.fill_null(p, b"") for p in parts]
        sep: object = b"\x1f"
    else:
        parts = [pc.fill_null(p, "") for p in parts]
        sep = "\x1f"
    if len(parts) == 1:
        joined = parts[0]
    else:
        joined = pc.binary_join_element_wise(*parts, sep)
    series = joined.to_pandas()
    hashed = pd.util.hash_pandas_object(series, index=False).to_numpy()
    return (hashed % np.uint64(n_buckets)).astype(np.int64)


def _add_bucket(batch: pa.Table, key_cols: Sequence[str], n_buckets: int) -> pa.Table:
    # exchange-volume accounting: every engine all-to-all passes through
    # here, so one fire-and-forget meter call per batch gives the driver
    # per-stage shuffled bytes via snapshot deltas (stats.py; never raises)
    from ..stats import meter_add

    meter_add(",".join(key_cols), batch.nbytes, batch.num_rows)
    buckets = stable_bucket_array(batch, key_cols, n_buckets)
    # Strip parquet-embedded pandas metadata before the shuffle: a pa.Schema
    # with a metadata dict is UNHASHABLE, which defeats Ray's schema-dedup
    # fast path in every downstream sort/reduce ("Failed to hash the schemas"
    # warnings in BENCH_r03's tail) and makes schema comparisons fall back to
    # the slow path. append_column would otherwise carry the scan's metadata
    # through the whole exchange. Zero-copy (schema swap only).
    if batch.schema.metadata:
        batch = batch.replace_schema_metadata(None)
    return batch.append_column(BUCKET_COL, pa.array(buckets, pa.int64()))


def _bucketed(ds, key_cols: Sequence[str], n_buckets: int):
    return ds.map_batches(
        _add_bucket,
        fn_kwargs={"key_cols": list(key_cols), "n_buckets": n_buckets},
        batch_format="pyarrow",
    )


def _apply_buckets(bucketed, fn: Callable[[pa.Table, int], pa.Table]):
    """The engine's one exchange: group ``bucketed`` on its bucket column
    and call ``fn(rows_without_the_bucket_column, bucket_id)`` per bucket."""

    def run(group: pa.Table) -> pa.Table:
        bucket_id = int(group.column(BUCKET_COL)[0].as_py())
        return fn(group.drop_columns([BUCKET_COL]), bucket_id)

    return bucketed.groupby(BUCKET_COL).map_groups(run, batch_format="pyarrow")


def bucket_group_apply(
    ds,
    key_cols: Sequence[str],
    bucket_fn: Callable[[pa.Table, int], pa.Table],
    n_buckets: int = 64,
):
    """Apply ``bucket_fn(bucket, bucket_id) -> pa.Table`` to each hash
    bucket of ``key_cols``; ``bucket`` is an Arrow table. All rows of any
    single key land in exactly one bucket. ``bucket_fn`` must return an
    Arrow table with a fixed schema."""
    return _apply_buckets(_bucketed(ds, key_cols, n_buckets), bucket_fn)


# combine buckets of every grouped aggregate (tests patch it)
_AGG_BUCKETS = 16
# partial op -> the op that combines its partials across batches
_COMBINE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _grouped(t: pa.Table, keys: Sequence[str], calls: list) -> pa.Table:
    """``t.group_by(keys).aggregate(calls)`` as keys + one column per call,
    in call order (pyarrow's own output names collide when two calls share
    a column and op)."""
    r = t.group_by(keys, use_threads=False).aggregate(calls)
    nk = len(keys)
    key_first = r.column_names[:nk] == list(keys)
    key_cols = r.columns[:nk] if key_first else r.columns[len(calls):]
    agg_cols = r.columns[nk:] if key_first else r.columns[:len(calls)]
    return pa.table(list(key_cols) + list(agg_cols),
                    names=list(keys) + [f"__a{i}" for i in range(len(calls))])


def _agg_partial(t: pa.Table, keys: Sequence[str], specs: list) -> pa.Table:
    calls = [([], "count_all") if op == "count" else (col, op) for _, op, col in specs]
    return _grouped(t, keys, calls)


def _agg_combine(t: pa.Table, bucket_id: int, keys: Sequence[str], specs: list) -> pa.Table:
    """Partials of one bucket -> final rows: int64 counts and sums of
    integer columns, float64 sums of float columns (Ray's types), min/max
    in the input type."""
    r = _grouped(t, keys, [(f"__a{i}", _COMBINE_OP[op]) for i, (_, op, _c) in enumerate(specs)])
    cols = {k: r.column(k) for k in keys}
    for i, (name, op, _) in enumerate(specs):
        col = r.column(f"__a{i}")
        if op in ("sum", "count"):
            if pa.types.is_integer(col.type) or pa.types.is_boolean(col.type):
                col = col.cast(pa.int64())
            elif pa.types.is_floating(col.type):
                col = col.cast(pa.float64())
        cols[name] = col
    return pa.table(cols)


def _one_chunk(t: pa.Table) -> pa.Table:
    return t.combine_chunks()


def group_aggregate(ds, keys, aggs: dict):
    """Grouped SUM / COUNT / MIN / MAX: the engine's replacement for Ray's
    ``groupby(keys).aggregate(...)``; with ``aggs={}`` it is a DISTINCT
    over ``keys``.

    ``aggs`` maps each output column to ``(op, column)``: op is "sum",
    "min", "max" or "count" (rows; column None). Every batch becomes one
    Arrow group-by partial (pandas blocks are converted once, by the
    pyarrow batch format), and one ``bucket_group_apply`` shuffle
    over ``_AGG_BUCKETS`` buckets combines them per key in the same
    execution: sum of sums, sum of counts, min of mins, max of maxes.
    Output: the key columns, then ``aggs`` in order, one Arrow chunk per
    block, in no particular row order (sort explicitly where order
    matters). Nulls follow SQL and Ray: null keys form one group,
    sum/min/max skip nulls and are null for an all-null group. An empty
    input yields an empty result with no schema, as Ray's aggregate does:
    Ray hands a map's empty input on as schema-less blocks, so typing it
    would take one more execution of every input."""
    import functools

    keys = [keys] if isinstance(keys, str) else list(keys)
    specs = [(name, op, col) for name, (op, col) in aggs.items()]
    partials = ds.map_batches(
        _agg_partial, fn_kwargs={"keys": keys, "specs": specs}, batch_format="pyarrow")
    combine = functools.partial(_agg_combine, keys=keys, specs=specs)
    out = bucket_group_apply(partials, keys, combine, _AGG_BUCKETS)
    # map_groups concatenates a block's bucket outputs chunk by chunk;
    # one chunk keeps a written block at one parquet row group
    return out.map_batches(_one_chunk, batch_format="pyarrow", batch_size=None)


def bucket_group_apply_partitioned(
    ds,
    key_cols: Sequence[str],
    bucket_fn: Callable[[pa.Table, int], pa.Table],
    n_buckets: int,
    parts_dir: str,
    empty_schema: pa.Schema,
):
    """``bucket_group_apply`` with PER-BUCKET resumable commits (the
    reference resumes mid-document at page granularity,
    file_analysis_service.py:212-253; the batch analog is a per-bucket
    commit inside a stage): each bucket task writes its own
    ``part-<bucket>.parquet`` atomically (tmp + rename) as it completes. A
    rerun lists committed parts, filters the shuffle input to MISSING
    buckets only, and rebuilds just those — a stage dying at 95% restarts
    from 95%. The caller owns staleness: ``parts_dir`` must hold only parts
    of the current parameters and input (CheckpointManager.parts_dir).
    Buckets that received zero rows commit an explicit empty part with
    ``empty_schema``. Returns a Dataset reading the committed parts.
    parts_dir must be on storage shared by all workers (single node here;
    a real cluster points it at shared storage)."""
    import glob as _glob
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    os.makedirs(parts_dir, exist_ok=True)

    def part_path(b: int) -> str:
        return os.path.join(parts_dir, f"part-{b:05d}.parquet")

    missing = [b for b in range(n_buckets) if not os.path.exists(part_path(b))]
    if missing:
        bucketed = _bucketed(ds, key_cols, n_buckets)
        if len(missing) < n_buckets:
            mset = pa.array(missing, pa.int64())

            def keep_missing(t: pa.Table) -> pa.Table:
                return t.filter(pc.is_in(t.column(BUCKET_COL), value_set=mset))

            bucketed = bucketed.map_batches(keep_missing, batch_format="pyarrow")

        def apply_and_commit(t: pa.Table, b: int) -> pa.Table:
            table = bucket_fn(t, b)
            tmp = part_path(b) + f".tmp-{os.getpid()}"
            pq.write_table(table, tmp)
            os.replace(tmp, part_path(b))  # atomic per-bucket commit
            return pa.table(
                {"bucket": pa.array([b], pa.int64()),
                 "rows": pa.array([table.num_rows], pa.int64())}
            )

        _apply_buckets(bucketed, apply_and_commit).materialize()
        # zero-row buckets never reach a group task; commit explicit empty
        # parts so they read as done, not missing
        for b in missing:
            if not os.path.exists(part_path(b)):
                pq.write_table(empty_schema.empty_table(), part_path(b))

    return rd.read_parquet(
        sorted(_glob.glob(os.path.join(parts_dir, "part-*.parquet")))
    )


SIDE_COL = "__side"


def _as_pa_type(t) -> pa.DataType:
    """Ray's Schema.types are Arrow DataTypes for arrow-backed datasets but
    numpy/python/pandas-extension types for pandas-backed ones
    (from_pandas inputs); normalize so the join's declared output schema
    is always Arrow. object dtype is assumed to hold strings — the one
    ambiguity pandas dtypes can't resolve (bytes/list payloads must come
    in as Arrow-backed datasets, which preserve exact types)."""
    if isinstance(t, pa.DataType):
        return t
    if isinstance(t, pd.CategoricalDtype):
        return _as_pa_type(t.categories.dtype)
    if isinstance(t, pd.api.extensions.ExtensionDtype):
        # nullable extension dtypes (Int64, boolean, Float64, ...): let
        # Arrow derive the type from an empty typed array
        return pa.array(pd.array([], dtype=t)).type
    try:
        dt = np.dtype(t)
    except TypeError:
        return pa.string()
    if dt == np.dtype("O"):
        return pa.string()
    return pa.from_numpy_dtype(dt)


def arrow_schema(schema) -> pa.Schema:
    """A Ray ``Dataset.schema()`` as an Arrow schema (see _as_pa_type)."""
    return pa.schema([(n, _as_pa_type(t)) for n, t in zip(schema.names, schema.types)])


def _with_schema(ds):
    """(dataset, Arrow schema) with no ``limit(1)`` probe: the schema the
    plan already knows, else ``ds`` executed once (``materialize_blocks``)
    and returned as its blocks."""
    known = ds.schema(fetch_if_missing=False)
    if known is not None:
        return ds, arrow_schema(known)
    blocks = materialize_blocks(ds)
    out = blocks.dataset()
    if blocks.schema is not None:
        return out, blocks.schema
    # no row-bearing block: the first block's label, as Dataset.schema() reads it
    return out, arrow_schema(out.schema())


PAYLOAD_COL = "__payload"


def _pack_side(t: pa.Table, key: str, side: int, n_buckets: int, meter_key: str) -> pa.Table:
    """One row per bucket: this batch's rows of that bucket as one Arrow
    IPC payload. Empty buckets get a payload too, so every bucket task
    reads this side's schema even where none of its rows hashed."""
    from ..stats import meter_add

    meter_add(meter_key, t.nbytes, t.num_rows)
    if t.schema.metadata:
        t = t.replace_schema_metadata(None)
    buckets = stable_bucket_array(t, [key], n_buckets)
    ends = np.cumsum(np.bincount(buckets, minlength=n_buckets))
    t = t.take(np.argsort(buckets, kind="stable"))
    # all payloads written back to back into one buffer: one copy of the
    # rows, and the binary column's offsets are the stream positions
    sink = pa.BufferOutputStream()
    offsets, start = [0], 0
    for end in ends:
        with pa.ipc.new_stream(sink, t.schema) as writer:
            writer.write_table(t.slice(start, end - start))
        offsets.append(sink.tell())
        start = end
    payload = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n_buckets,
        [None, pa.py_buffer(np.array(offsets, np.int64)), sink.getvalue()])
    return pa.table({
        BUCKET_COL: pa.array(np.arange(n_buckets), pa.int64()),
        SIDE_COL: pa.array(np.full(n_buckets, side, np.int8)),
        PAYLOAD_COL: payload,
    })


def bucket_hash_join(
    left,
    right,
    key: str,
    right_key: str = None,
    how: str = "inner",
    n_buckets: int = 32,
    suffix: str = "_r",
    left_distinct: bool = False,
    unique_right: bool = False,
):
    """Task-based distributed hash join: tag + union both sides, ONE shuffle
    on the key's hash bucket, pandas merge within each bucket.

    ``unique_right=True`` asserts right-key uniqueness: each bucket's merge
    runs with ``validate="m:1"``, so a violated assertion raises
    pandas.errors.MergeError inside the bucket task instead of silently
    multiplying output rows — the distributed backstop for lookup_join's
    asserted fast path when the right side exceeds the broadcast gates.

    Compared to Dataset.join (which spins up an aggregator actor pool per
    call), this reuses the plain sort-shuffle machinery — no actor startup,
    so it wins for pipelines that chain several joins. Hot join keys are the
    caller's responsibility (pre-reduce or salt before joining).

    Output columns: all left columns + right columns (right key dropped;
    name clashes suffixed). ``how``: "inner", "left" or "outer" (FULL
    OUTER — the key column is coalesced across sides, unmatched columns
    null), plus the existence variants "semi" (left rows WITH a right
    match) and "anti" (left rows WITHOUT one) — those emit LEFT columns
    only and ship just the right KEY column through the shuffle.

    NULL join keys follow SQL: they never match (not even each other) —
    inner/semi drop them, left/outer/anti keep them unmatched.

    ``left_distinct=True`` dedups the LEFT rows (full-row distinct,
    per-batch before the shuffle + per-bucket after) inside the join's own
    exchange — EXCEPT/INTERSECT-style set ops get global distinctness
    without a separate groupby shuffle.

    The right side executes once first (``_with_schema``), for its
    schema; the left side stays lazy and streams into the exchange. Each
    batch of either side crosses as one Arrow IPC payload per bucket
    (``_pack_side``), so the exchange has one schema whatever the sides',
    and each bucket task learns the left schema from the payloads it
    reads. A left side that yields no batch at all leaves its columns
    unknown: the join is then empty with no schema, and a FULL OUTER join
    keeps only the key and the right columns.
    """
    right_key = right_key or key
    existence = how in ("semi", "anti")
    right, r_schema = _with_schema(right)
    r_names = (
        [] if existence else [n for n in r_schema.names if n != right_key]
    )
    r_types = {n: _as_pa_type(t) for n, t in zip(r_schema.names, r_schema.types)}
    r_empty = pa.schema([(n, r_types[n]) for n in [right_key] + r_names]).empty_table()

    if existence:
        # map-side combiner: only DISTINCT right keys matter for existence,
        # so collapse duplicates per batch before the shuffle (a hot key
        # ships once per batch, not once per row)
        import pyarrow.compute as _pc

        def _key_distinct(t: pa.Table) -> pa.Table:
            return pa.table({right_key: _pc.unique(t.column(right_key))})

        right = right.select_columns([right_key]).map_batches(
            _key_distinct, batch_format="pyarrow"
        )

    if left_distinct:
        # map-side combiner: full-row distinct per batch shrinks the
        # exchange; the per-bucket drop_duplicates below finishes the job
        # (all copies of a row hash to the same bucket)
        left = left.map_batches(
            lambda df: df.drop_duplicates(), batch_format="pandas"
        )

    packed = left.map_batches(
        _pack_side, batch_format="pyarrow",
        fn_kwargs={"key": key, "side": 0, "n_buckets": n_buckets, "meter_key": key},
    ).union(right.map_batches(
        _pack_side, batch_format="pyarrow",
        fn_kwargs={"key": right_key, "side": 1, "n_buckets": n_buckets, "meter_key": key},
    ))

    def unpack(group: pa.Table, side: int):
        tables = [
            pa.ipc.open_stream(p.as_buffer()).read_all()
            for s, p in zip(group.column(SIDE_COL).to_pylist(), group.column(PAYLOAD_COL))
            if s == side
        ]
        return pa.concat_tables(tables, promote_options="default") if tables else None

    def join_bucket(group: pa.Table, bucket_id: int) -> pa.Table:
        rt = unpack(group, 1)
        rt = r_empty if rt is None else rt
        lt = unpack(group, 0)
        if lt is None:
            if how != "outer":
                return pa.table({})
            lt = pa.table({key: r_empty.column(right_key)})
        l_names = lt.column_names
        l_types = dict(zip(l_names, lt.schema.types))
        r_out = {n: (n + suffix if n in l_names else n) for n in r_names}
        r_out_cols = [r_out[n] for n in r_names]
        out_fields = [(n, l_types[n]) for n in l_names] + [
            (r_out[n], r_types[n]) for n in r_names
        ]
        # both sides widened to one schema (left columns, then right
        # columns, then the side tag) and merged as one pandas frame
        wide_l = {n: lt.column(n) for n in l_names}
        wide_r = {}
        for n in l_names:
            wide_r[n] = pa.nulls(rt.num_rows, l_types[n])
        rkey = rt.column(right_key)
        if rkey.type != l_types[key] and not pa.types.is_null(l_types[key]):
            # e.g. an empty pandas-made right side whose key came out double
            rkey = rkey.cast(l_types[key])
        wide_r[key] = rkey
        for n in r_names:
            wide_l[r_out[n]] = pa.nulls(lt.num_rows, r_types[n])
            wide_r[r_out[n]] = rt.column(n)
        wide_l[SIDE_COL] = pa.array(np.zeros(lt.num_rows, dtype=np.int8))
        wide_r[SIDE_COL] = pa.array(np.ones(rt.num_rows, dtype=np.int8))
        df = pa.concat_tables(
            [pa.table(wide_l), pa.table(wide_r)], promote_options="default"
        ).to_pandas()

        lhs = df[df[SIDE_COL] == 0][l_names]
        rhs = df[df[SIDE_COL] == 1][[key] + r_out_cols]
        if left_distinct:
            lhs = lhs.drop_duplicates()
        # SQL NULL-key semantics: a null key matches NOTHING (pandas merge
        # and isin would happily pair NaN with NaN)
        lnull = lhs[key].isna()
        rnull_rows = rhs[rhs[key].isna()]
        rhs = rhs[rhs[key].notna()]
        if existence:
            # semi: null-key rows have no match; anti: NOT EXISTS holds,
            # so ~mask keeps them
            mask = lhs[key].isin(rhs[key].unique()) & ~lnull
            merged = lhs[mask if how == "semi" else ~mask]
        else:
            merged = lhs[~lnull].merge(
                rhs, on=key, how=how,
                validate="m:1" if unique_right else None,
            )
            if how in ("left", "outer") and lnull.any():
                # unmatched-by-definition left rows, null right columns
                merged = pd.concat([merged, lhs[lnull]], ignore_index=True)
            if how == "outer" and len(rnull_rows):
                # FULL OUTER also keeps null-keyed RIGHT rows, left side null
                merged = pd.concat([merged, rnull_rows], ignore_index=True)
        arrays = {
            name: pa.array(merged[name], type=typ, from_pandas=True)
            for name, typ in out_fields
        }
        return pa.table(arrays, schema=pa.schema(out_fields))

    return _apply_buckets(packed, join_bucket)


# ------------------------------------------------------------ bloom pruning

BLOOM_BITS_PER_KEY = 10  # ~1% false-positive rate at k=7 hash probes
BLOOM_K_HASHES = 7
BLOOM_MAX_BITS = 1 << 31  # 256 MB filter cap — beyond this, skip pruning


def _bloom_hashes(values: np.ndarray):
    """Two derived 64-bit hash streams (double hashing: h1 + i*h2) from one
    vectorized, process-stable pandas hash pass."""
    h = pd.util.hash_pandas_object(pd.Series(values), index=False).to_numpy()
    h1 = h
    h2 = (h >> np.uint64(33)) | (h << np.uint64(31))
    # h2 must be odd so the double-hash probe sequence cycles the whole table
    h2 = h2 | np.uint64(1)
    return h1, h2


def build_bloom(keys: np.ndarray, bits_per_key: int = BLOOM_BITS_PER_KEY,
                k: int = BLOOM_K_HASHES):
    """(bit array as uint8 bytes, m_bits, k) Bloom filter over ``keys``."""
    n = max(len(keys), 1)
    m = min(int(n * bits_per_key), BLOOM_MAX_BITS)
    m = max(m, 64)
    bits = np.zeros((m + 7) // 8, dtype=np.uint8)
    if len(keys):
        h1, h2 = _bloom_hashes(keys)
        for i in range(k):
            idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
            np.bitwise_or.at(bits, (idx >> np.uint64(3)).astype(np.int64),
                             np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))
    return bits, m, k


def bloom_contains(bits: np.ndarray, m: int, k: int,
                   values: np.ndarray) -> np.ndarray:
    """Vectorized maybe-membership mask (false positives possible, false
    negatives never)."""
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    h1, h2 = _bloom_hashes(values)
    mask = np.ones(len(values), dtype=bool)
    for i in range(k):
        idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
        byte = bits[(idx >> np.uint64(3)).astype(np.int64)]
        mask &= (byte & (np.uint8(1) << (idx & np.uint64(7)).astype(np.uint8))) != 0
    return mask


# ------------------------------------------------------ materialized blocks


@dataclasses.dataclass
class Blocks:
    """A dataset executed ONCE, as its row-bearing blocks.

    ``refs`` and ``metas`` run in parallel: each block's object ref and Ray
    Data's own metadata for it (rows, bytes), so counting and sizing cost
    no task. ``schema`` is the row-bearing blocks' Arrow schema, None when
    there are none; ``first`` is the first block Ray labelled with a
    non-empty schema (ref, metadata, schema), kept so an all-empty result
    still has one. A block is Arrow unless the map that produced it
    returned pandas; readers normalize with ``as_arrow``."""

    refs: list
    metas: list
    schema: Optional[pa.Schema]
    first: Optional[tuple]

    @property
    def num_rows(self) -> int:
        return sum(m.num_rows for m in self.metas)

    @property
    def size_bytes(self) -> int:
        return sum(m.size_bytes for m in self.metas)

    def dataset(self):
        """A Dataset over these blocks that never re-runs the source plan.
        An all-empty source keeps its first block, so its schema survives."""
        if not self.refs and self.first is not None:
            ref, meta, schema = self.first
            return dataset_of_blocks([ref], [meta], schema)
        return dataset_of_blocks(self.refs, self.metas, self.schema)

    def column(self, name: str) -> pa.ChunkedArray:
        """One column of every block, pulled by one whole-CPU task per block;
        only that column's bytes reach the driver."""
        import ray
        from ray.data._internal.remote_fn import cached_remote_fn

        pull = cached_remote_fn(_select_column)
        cols = ray.get([pull.remote(r, name) for r in self.refs])
        return pa.chunked_array(cols)


def as_arrow(block) -> pa.Table:
    """A block as an Arrow table: blocks arrive in their native format, a
    pandas DataFrame when the producing map returned pandas. Ray's own
    accessor converts; the pandas metadata blob the conversion attaches
    makes the schema unhashable downstream, so it is stripped."""
    if isinstance(block, pa.Table):
        return block
    from ray.data.block import BlockAccessor

    tbl = BlockAccessor.for_block(block).to_arrow()
    return tbl.replace_schema_metadata(None) if tbl.schema.metadata else tbl


def _select_column(block, name: str) -> pa.Array:
    return as_arrow(block).column(name).combine_chunks()


def _block_schema(block) -> pa.Schema:
    return as_arrow(block).schema


def materialize_blocks(ds) -> Blocks:
    """Execute ``ds`` once and keep its row-bearing blocks.

    Rows and bytes come from the block metadata Ray Data returns with each
    output bundle, so the driver runs no task to learn them. The zero-row
    filler blocks that Ray's sort/shuffle reduce emits for empty partitions
    are dropped: map operators forward those without calling the UDF, so
    they carry stale pre-projection schemas. Ray keeps ONE schema label per
    operator output: once a bundle with a non-empty schema has passed,
    every later bundle whose schema differs is relabelled with that one's
    (``dedupe_schemas_with_validation``). So the label is trusted only when
    that first labelled block bears rows; otherwise one whole-CPU task
    reads the schema of the first row-bearing block. ``first`` is that
    first non-empty-labelled block (or the first block), the block
    ``Dataset.schema()`` would read its schema from."""
    import ray
    from ray.data._internal.remote_fn import cached_remote_fn
    from ray.data.block import _is_empty_schema

    refs, metas, first = [], [], None
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if first is None or (
                _is_empty_schema(first[2]) and not _is_empty_schema(bundle.schema)
            ):
                first = (ref, meta, bundle.schema)
            if meta.num_rows != 0:
                refs.append(ref)
                metas.append(meta)
    schema = None
    if refs:
        if first[0] == refs[0] and isinstance(first[2], pa.Schema):
            schema = first[2]
        else:
            schema = ray.get(cached_remote_fn(_block_schema).remote(refs[0]))
    return Blocks(refs, metas, schema, first)


def dataset_of_blocks(refs, metas, schema):
    """A MaterializedDataset over existing block refs with known metadata,
    built the way ``Dataset.materialize`` builds its own: no task runs."""
    from ray.data._internal.execution.interfaces import RefBundle
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.input_data_operator import InputData
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    bundles = [
        RefBundle(((r, m),), owns_blocks=False, schema=schema)
        for r, m in zip(refs, metas)
    ]
    ctx = DataContext.get_current().copy()
    plan = ExecutionPlan(DatasetStats(metadata={}, parent=None), ctx)
    return MaterializedDataset(plan, LogicalPlan(InputData(bundles), ctx))


def compact_blocks(ds):
    """Materialize ``ds`` and rebuild it from only its row-bearing blocks
    (``materialize_blocks``: one execution, no task unless the schema
    label is stale). Drops the zero-row filler blocks Ray's sort/shuffle
    reduce emits for empty partitions — map operators forward those
    WITHOUT invoking the UDF, so they carry stale pre-projection schemas
    through the rest of the plan (the mixed-schema RefBundle warnings).
    Use at small materialization boundaries (e.g. the verified near-dup
    pair list), never on a raw fact table: the dataset stops streaming
    here."""
    return materialize_blocks(ds).dataset()


def _bloom_prefilter(left, key: str, keys: pa.ChunkedArray):
    """Map-side Bloom pruning before a bucket-join shuffle: left rows whose
    key cannot exist on the right never enter the exchange. Sound ONLY for
    inner/semi (every surviving row is re-verified by the real join, so
    false positives are harmless; left/outer/anti must keep non-matching
    lefts)."""
    import ray

    bits, m, k = build_bloom(keys.to_numpy(zero_copy_only=False))
    bloom_ref = ray.put((bits, m, k))

    def prune(t: pa.Table) -> pa.Table:
        b, mm, kk = ray.get(bloom_ref)
        vals = t.column(key).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(bloom_contains(b, mm, kk, vals)))

    return left.map_batches(prune, batch_format="pyarrow")


def lookup_join(
    left,
    right,
    key: str,
    right_key: str = None,
    how: str = "inner",
    n_buckets: int = 32,
    suffix: str = "_r",
    broadcast_limit: int = 3_000_000,
    broadcast_bytes_limit: int = 256 * 1024 * 1024,
    unique_right: bool = False,
):
    """Join with automatic strategy choice: when the right side is small
    enough — BOTH under ``broadcast_limit`` rows AND under
    ``broadcast_bytes_limit`` Arrow bytes (a row gate alone would replicate
    a few-rows-of-huge-documents table multi-GB per worker) — BROADCAST it
    (block refs once, per-batch index lookup on the left — zero shuffle,
    the map-side hash join); otherwise fall back to the task-based
    bucket_hash_join. The broadcast path requires UNIQUE right keys —
    verified up front (a duplicate-keyed pd.Index only fails later, at
    get_indexer probe time, with an opaque InvalidIndexError) — and
    non-unique right sides fall back to bucket_hash_join, which handles
    multiplicity. This mirrors the guide's rule: broadcast dimension-sized
    sides, shuffle fact-sized ones.

    The right side executes exactly ONCE (``materialize_blocks``): the
    gates read rows and bytes from Ray Data's block metadata, the broadcast
    ships the row-bearing block refs, and the bucket fallback reads the
    same blocks instead of re-running the right-side plan. Only
    the key column crosses to the driver, and only when it is needed: for
    the uniqueness probe and for the Bloom filter that prunes the left side
    of an inner/semi bucket join.

    ``unique_right=True`` asserts the right keys are STRUCTURALLY unique
    (a groupby output, a primary-keyed dimension), which skips the
    uniqueness probe: zero key bytes cross to the driver on the broadcast
    path. A false assertion fails LOUDLY — InvalidIndexError at probe time
    on the broadcast path, MergeError (validate="m:1") inside the bucket
    fallback — never silently."""
    import pyarrow.compute as pc

    right_key = right_key or key
    blocks = materialize_blocks(right)
    right_mat = blocks.dataset()
    n_rows = blocks.num_rows
    fits = n_rows <= broadcast_limit and blocks.size_bytes <= broadcast_bytes_limit
    keys = None
    if fits and n_rows > 0 and not unique_right:
        keys = blocks.column(right_key)
        # non-unique right keys: the broadcast index would mis-probe; the
        # bucket join's pandas merge handles multiplicity correctly
        fits = pc.count_distinct(keys).as_py() == n_rows
    if not fits:
        if how in ("inner", "semi"):
            # too big to broadcast whole — but its ~10-bits/key Bloom filter
            # is not: prune the left map-side so only maybe-matching rows
            # shuffle
            keys = keys if keys is not None else blocks.column(right_key)
            left = _bloom_prefilter(left, key, keys)
        return bucket_hash_join(left, right_mat, key, right_key, how, n_buckets,
                                suffix, unique_right=unique_right)

    right_schema = blocks.schema
    if right_schema is None:
        # zero-row right side: recover its schema so the join still emits
        # the right-hand columns (as nulls for "left", empty for "inner")
        right_schema = arrow_schema(right_mat.schema())
    # the right key takes the left key's name (a right column already named
    # like it always clashes); other clashes are suffixed per batch in
    # ``probe``, where the left columns are known without executing the left
    renamed_names = [
        key if n == right_key else (n + suffix if n == key else n)
        for n in right_schema.names
    ]
    # broadcast as block REFS (zero driver copy; on one node the worker's
    # ray.get is a local zero-copy plasma read); each WORKER builds the
    # keyed lookup index ONCE and reuses it across batches via a
    # per-process cache — per-batch probe cost is O(batch), not O(right)
    empty_tbl = pa.schema(
        list(zip(renamed_names, [right_schema.field(n).type for n in right_schema.names]))
    ).empty_table()
    refs_tuple = tuple(blocks.refs)
    r_names = [n for n in renamed_names if n != key]

    def probe(t: pa.Table) -> pa.Table:
        index, r_cols = _broadcast_index(refs_tuple, key, renamed_names, empty_tbl)
        keys = t.column(key).to_numpy(zero_copy_only=False)
        pos = index.get_indexer(keys)
        if how == "inner":
            hit = pos >= 0
            if not hit.all():
                t = t.filter(pa.array(hit))
                pos = pos[hit]
            take_idx = pa.array(pos, pa.int64())
        else:  # left: misses become null right-hand values (mask= nulls the
            # negative positions without a per-row Python pass)
            miss = pos < 0
            take_idx = pa.array(
                pos, pa.int64(), mask=miss if miss.any() else None
            )
        taken = r_cols.take(take_idx)
        l_names = set(t.column_names)
        out = t
        for n in r_names:
            out = out.append_column(
                n + suffix if n in l_names else n, taken.column(n)
            )
        return out

    return left.map_batches(probe, batch_format="pyarrow")


_BROADCAST_INDEX_CACHE: dict = {}


def _broadcast_index(refs, key: str, renamed_names, empty_tbl):
    """Per-worker-process cache: block-ref tuple -> (pandas Index over the
    key, Arrow table of the non-key columns). The row-bearing Arrow blocks
    are fetched zero-copy from the local plasma store, concatenated and
    renamed PER WORKER — the driver never holds the right side. Only the
    key hash index costs per-worker build time (once)."""
    import ray

    cache_key = tuple(r.hex() for r in refs)
    got = _BROADCAST_INDEX_CACHE.pop(cache_key, None)
    if got is None:
        if refs:
            tbl = pa.concat_tables([as_arrow(b) for b in ray.get(list(refs))])
            tbl = tbl.combine_chunks()
            tbl = tbl.rename_columns(renamed_names)
        else:
            tbl = empty_tbl
        index = pd.Index(tbl.column(key).to_numpy(zero_copy_only=False))
        got = (index, tbl.drop_columns([key]).combine_chunks())
        # bound worker memory: 2 entries (the active join + one overlapping
        # neighbor); entries are <= lookup_join's broadcast_bytes_limit each,
        # and LRU order (dict insertion + re-insert on hit) evicts the oldest
        if len(_BROADCAST_INDEX_CACHE) >= 2:
            _BROADCAST_INDEX_CACHE.pop(next(iter(_BROADCAST_INDEX_CACHE)))
    _BROADCAST_INDEX_CACHE[cache_key] = got
    return got
