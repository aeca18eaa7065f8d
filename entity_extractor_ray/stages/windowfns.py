"""Partitioned window functions as ONE bucket shuffle + vectorized kernels.

SQL window functions (``row_number/rank/dense_rank/lag/lead`` and running
aggregates ``OVER (PARTITION BY p ORDER BY o)``) generalize several reference
patterns — the per-conversation ordering that feeds record assembly
(reference chat_transcript_processor.py's turn-order walk) and the
first-result-wins limit (A9, global_node_repository.py:158) are both
``row_number() = 1`` specializations. This module gives them to callers
directly, engine-shaped:

  * ONE all-to-all exchange on ``hash(partition_key) % n_buckets`` — the
    same ``bucket_group_apply`` shape every wide operator here uses; all
    rows of a partition land in one bucket task, as one Arrow table that
    the kernel converts to pandas once.
  * Inside a bucket: a single stable lexsort over (partition, order)
    columns, then every window column is computed VECTORIZED — numpy
    boundary masks for row_number/rank/dense_rank, pandas grouped
    shift/cumsum (C kernels) for lag/lead/running sums. No Python loop
    touches rows.
  * Output is row-per-input-row, so the exchange is inherently O(rows) —
    there is no combiner to push (unlike top-k/quantiles); what matters at
    100 TB is that it is exactly ONE shuffle and per-bucket memory is
    bounded by the largest partition, not the corpus. A single partition
    key hotter than a bucket's memory is the caller's contract to pre-split
    (same contract as groupby everywhere else in the engine).

Tie semantics match SQL: ``rank``/``dense_rank`` group ties over the FULL
(partition + order) key tuple. Order columns are assumed NON-NULL (SQL
treats NULL order keys as equal in a tie; numpy's ``NaN != NaN`` would
split them) — callers with nullable order keys must fill or filter first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import (
    arrow_schema, as_arrow, bucket_group_apply, dataset_of_blocks, materialize_blocks,
)

# spec kinds -> required fields:
#   ("row_number", None, out)         1-based position within partition
#   ("rank", None, out)               SQL RANK() (gaps after ties)
#   ("dense_rank", None, out)         SQL DENSE_RANK()
#   ("lag", src, out)                 previous row's src within partition
#   ("lead", src, out)                next row's src within partition
#   ("running_sum", src, out)         cumulative sum of src (rows unbounded
#                                     preceding .. current row)
#   ("ntile", n, out)                 SQL NTILE(n): n buckets per partition,
#                                     sizes differ by <=1, larger first
#   ("first_value", src, out)         partition's first src in sort order
#   ("last_value", src, out)          partition's last src (full frame —
#                                     SQL default-frame last_value is just
#                                     "current row"; this is the ROWS
#                                     BETWEEN UNBOUNDED .. UNBOUNDED form)
#   ("percent_rank", None, out)       (rank-1)/(c-1), 0.0 for c == 1
#   ("cume_dist", None, out)          rows-with-order-key-<=-current / c
WINDOW_KINDS = (
    "row_number", "rank", "dense_rank", "lag", "lead", "running_sum",
    "ntile", "first_value", "last_value", "percent_rank", "cume_dist",
)


def _ntile(rn: np.ndarray, part_id: np.ndarray, part_start: np.ndarray,
           n_rows: int, n: int) -> np.ndarray:
    """SQL NTILE: with c rows, the first c%n buckets get c//n+1 rows."""
    sizes = np.diff(np.append(part_start, n_rows))  # rows per partition
    c = sizes[part_id].astype(np.int64)
    small = c // n
    r = c % n  # number of big buckets
    big = small + 1
    pos = rn - 1  # 0-based position within partition
    in_big = pos < r * big
    # small == 0 (c < n) means every row is in a big bucket; guard the
    # then-unused small divisor (big = small+1 >= 1 needs no guard)
    small_safe = np.where(small == 0, 1, small)
    tile_big = pos // big + 1
    tile_small = r + (pos - r * big) // small_safe + 1
    return np.where(in_big, tile_big, tile_small)


def _change_mask(df: pd.DataFrame, cols: Sequence[str], base: np.ndarray | None) -> np.ndarray:
    """Boolean mask: True where row i differs from row i-1 on any of cols
    (row 0 always True). ``base`` seeds the mask (partition changes force
    tie-group changes)."""
    n = len(df)
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    if base is not None:
        mask |= base
    for c in cols:
        v = df[c].to_numpy()
        mask[1:] |= v[1:] != v[:-1]
    return mask


def partitioned_window(
    ds,
    by: Sequence[str],
    order_by: Sequence[str],
    specs: Sequence[tuple],
    descending: Sequence[bool] | None = None,
    out_schema: pa.Schema | None = None,
    keep_cols: Sequence[str] | None = None,
    n_buckets: int = 64,
):
    """Compute window columns ``specs`` over ``PARTITION BY by ORDER BY
    order_by`` and return keep_cols + the window columns.

    ``out_schema`` declares the FULL output schema (keep_cols first, then
    one field per spec, in order) so every bucket emits identical Arrow
    types regardless of its data.
    """
    by = list(by)
    order_by = list(order_by)
    desc = list(descending) if descending is not None else [False] * len(order_by)
    keep = list(keep_cols) if keep_cols is not None else None
    for kind, _src, _out in specs:
        if kind not in WINDOW_KINDS:
            raise ValueError(f"unknown window kind {kind!r}")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        asc = [True] * len(by) + [not d for d in desc]
        df = df.sort_values(by + order_by, ascending=asc, kind="mergesort").reset_index(
            drop=True
        )
        n = len(df)
        part_change = _change_mask(df, by, None)
        part_id = np.cumsum(part_change) - 1  # 0-based partition ordinal
        idx = np.arange(n)
        part_start = idx[part_change]
        rn = idx - part_start[part_id] + 1  # 1-based row_number

        need_tie = any(
            k in ("rank", "dense_rank", "percent_rank", "cume_dist")
            for k, _, _ in specs
        )
        if need_tie:
            tie_change = _change_mask(df, order_by, part_change)
            tie_id = np.cumsum(tie_change) - 1
            rank = rn[tie_change][tie_id]  # first rn of each tie group
            dense_global = np.cumsum(tie_change)
            dense = dense_global - dense_global[part_change][part_id] + 1
        if any(k in ("percent_rank", "cume_dist") for k, _, _ in specs):
            part_sizes = np.diff(np.append(part_start, n))
            csize = part_sizes[part_id].astype(np.float64)
            tie_sizes = np.bincount(tie_id)
            last_rn = rank + tie_sizes[tie_id] - 1  # rn of the tie's last row

        grouped = df.groupby(part_id, sort=False) if any(
            k in ("lag", "lead", "running_sum", "first_value", "last_value")
            for k, _, _ in specs
        ) else None

        keep_here = keep if keep is not None else [c for c in df.columns]
        cols: dict[str, object] = {}
        for c in keep_here:
            typ = out_schema.field(c).type if out_schema is not None else None
            cols[c] = pa.array(df[c], type=typ, from_pandas=True)
        for kind, src, out in specs:
            typ = out_schema.field(out).type if out_schema is not None else None
            if kind == "row_number":
                cols[out] = pa.array(rn, pa.int64())
            elif kind == "rank":
                cols[out] = pa.array(rank, pa.int64())
            elif kind == "dense_rank":
                cols[out] = pa.array(dense, pa.int64())
            elif kind == "lag":
                cols[out] = pa.array(grouped[src].shift(1), type=typ, from_pandas=True)
            elif kind == "lead":
                cols[out] = pa.array(grouped[src].shift(-1), type=typ, from_pandas=True)
            elif kind == "running_sum":
                cols[out] = pa.array(grouped[src].cumsum(), type=typ, from_pandas=True)
            elif kind == "ntile":
                cols[out] = pa.array(
                    _ntile(rn, part_id, part_start, n, int(src)), pa.int64()
                )
            elif kind == "first_value":
                cols[out] = pa.array(
                    grouped[src].transform("first"), type=typ, from_pandas=True
                )
            elif kind == "last_value":
                cols[out] = pa.array(
                    grouped[src].transform("last"), type=typ, from_pandas=True
                )
            elif kind == "percent_rank":
                pr = np.where(csize > 1, (rank - 1) / np.maximum(csize - 1, 1), 0.0)
                cols[out] = pa.array(pr, pa.float64())
            elif kind == "cume_dist":
                cols[out] = pa.array(last_rn / csize, pa.float64())
        return pa.table(cols, schema=out_schema) if out_schema is not None else pa.table(cols)

    return bucket_group_apply(ds, by, bucket_fn, n_buckets=n_buckets)


# ------------------------------------------------------- global ordered scan


def _column_sums(block, cols) -> list:
    import pyarrow.compute as pc

    block = as_arrow(block)
    return [pc.sum(block.column(c)).as_py() or 0 for c in cols]


def _scan_block(block, specs, out_schema: pa.Schema, row_offset: int,
                sum_offsets) -> tuple:
    """(nbytes, table): one sorted block with its window columns, offset by
    the rows and sums of every block before it."""
    block = as_arrow(block)
    n = block.num_rows
    cols = [block.column(c) for c in out_schema.names[: len(out_schema) - len(specs)]]
    for (kind, src, _out), s_off in zip(specs, sum_offsets):
        if kind == "row_number":
            cols.append(pa.array(row_offset + 1 + np.arange(n, dtype=np.int64)))
        else:  # running_sum
            v = block.column(src).to_numpy(zero_copy_only=False)
            dt = np.int64 if np.issubdtype(v.dtype, np.integer) else np.float64
            cols.append(pa.array(s_off + np.cumsum(v.astype(dt))))
    out = pa.table(cols, schema=out_schema)
    return out.nbytes, out


def global_scan(
    ds,
    order_by: Sequence[str],
    specs: Sequence[tuple],
    descending: Sequence[bool] | bool = False,
    keep_cols: Sequence[str] | None = None,
):
    """Window functions over a GLOBAL order (no PARTITION BY) — SQL
    ``row_number()/SUM(x) OVER (ORDER BY ...)`` on the whole relation, i.e.
    the distributed zipWithIndex / prefix-sum primitive.

    Shape: ONE global sort (Ray's range-partitioned all-to-all — the
    unavoidable exchange for a total order), materialized once
    (``shuffle.materialize_blocks``). Block row counts come from Ray Data's
    block metadata; a running sum adds one whole-CPU task per block for the
    block sums. The driver computes exclusive prefix offsets, and per-block
    tasks append the window columns with those offsets. Block payloads
    never cross the driver, so the post-sort cost is O(n_blocks) driver work
    + one vectorized cumsum per block. Supported specs: ``("row_number",
    None, out)`` and ``("running_sum", src, out)`` (ROWS UNBOUNDED
    PRECEDING — deterministic only under a tie-free order key, same
    contract as partitioned_window). Ties: include a unique column in
    ``order_by``.
    """
    import ray
    import ray.data as rd
    from ray.data._internal.remote_fn import cached_remote_fn
    from ray.data.block import BlockMetadata

    for kind, _src, _out in specs:
        if kind not in ("row_number", "running_sum"):
            raise ValueError(f"global_scan supports row_number/running_sum, got {kind}")
    blocks = materialize_blocks(ds.sort(list(order_by), descending=descending))

    # Ray's sort of an EMPTY dataset loses the schema; fall back to the
    # input's — it is what keep/the typed empty output must mirror anyway
    base_schema = blocks.schema or arrow_schema(ds.schema())
    keep = list(keep_cols) if keep_cols is not None else list(base_schema.names)
    fields = [base_schema.field(n) for n in keep]
    for kind, src, out in specs:
        # running_sum over an integer src stays int64 (the cumsum's dtype
        # rule); anything else sums as float64
        is_f = kind == "running_sum" and not pa.types.is_integer(
            base_schema.field(src).type)
        fields.append(pa.field(out, pa.float64() if is_f else pa.int64()))
    out_schema = pa.schema(fields)
    if not blocks.refs:
        return rd.from_arrow(out_schema.empty_table())

    sum_cols = [src for kind, src, _ in specs if kind == "running_sum"]
    sums = [[]] * len(blocks.refs)
    if sum_cols:
        summer = cached_remote_fn(_column_sums)
        sums = ray.get([summer.remote(r, sum_cols) for r in blocks.refs])
    apply = cached_remote_fn(_scan_block, num_returns=2)
    specs_ser = [tuple(s) for s in specs]
    sizes, out_refs = [], []
    row_off = 0
    sum_off = [0] * len(sum_cols)
    for ref, meta, block_sums in zip(blocks.refs, blocks.metas, sums):
        it = iter(sum_off)
        offs = [next(it) if k == "running_sum" else 0 for k, _, _ in specs]
        nbytes, out = apply.remote(ref, specs_ser, out_schema, row_off, offs)
        sizes.append(nbytes)
        out_refs.append(out)
        row_off += meta.num_rows
        sum_off = [a + b for a, b in zip(sum_off, block_sums)]
    metas = [
        BlockMetadata(num_rows=m.num_rows, size_bytes=b, input_files=None,
                      exec_stats=None)
        for m, b in zip(blocks.metas, ray.get(sizes))
    ]
    return dataset_of_blocks(out_refs, metas, out_schema)
