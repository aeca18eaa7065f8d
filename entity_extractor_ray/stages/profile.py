"""One-pass distributed table profiler — the data-quality census every
ingest runs before a 100-TB job: per column, row/null counts, distinct
cardinality, and typed min/max, computed from MERGEABLE map-side partials
(one tiny row per column per batch) and one dimension-sized reduce.

Shapes and honesty rules follow the sketches module:
  * the distinct count is a KMV bottom-k union — each batch ships at most k
    hashes per column, and the merged count is EXACT whenever no batch
    truncated (the ``exact`` flag; the SQL oracle rides that regime at test
    scale) and a ~1/sqrt(k-2) estimate beyond, never silently;
  * min/max are exact lattice merges (min-of-mins / max-of-maxs);
  * means are deliberately ABSENT: float sums are accumulation-order
    dependent, so a hash-compared oracle cannot pin them — use the
    cents-exact aggregate queries for money columns instead.

Timestamps profile as epoch microseconds (both engines compute the same
integer), numerics as float64, strings lexicographically.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import bucket_group_apply, group_aggregate
from .sketches import hash63

logger = logging.getLogger("entity_extractor_ray.profile")

PROFILE_K = 65536


def profile_table(ds, columns=None, k: int = PROFILE_K, n_buckets: int = 4):
    """Profile ``columns`` (default: every column) of a Dataset.

    Output, one row per column:
      (col, n_rows, n_null, n_distinct int64, exact bool,
       min_num float64|null, max_num float64|null,   -- numeric/timestamp
       min_str string|null,  max_str string|null)    -- string columns
    """
    if columns is None:
        columns = list(ds.schema().names)

    def partial(t: pa.Table) -> pa.Table:
        rows = {key: [] for key in (
            "col", "n_rows", "n_null", "kmv", "trunc",
            "min_num", "max_num", "min_str", "max_str",
        )}
        for c in columns:
            arr = t.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            typ = arr.type
            valid = arr.drop_null()
            min_num = max_num = None
            min_str = max_str = None
            if len(valid):
                if pa.types.is_timestamp(typ):
                    mm = pc.min_max(pc.cast(valid, pa.int64()))
                    min_num, max_num = float(mm["min"].as_py()), float(mm["max"].as_py())
                elif pa.types.is_integer(typ) or pa.types.is_floating(typ):
                    mm = pc.min_max(valid)
                    min_num, max_num = float(mm["min"].as_py()), float(mm["max"].as_py())
                elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
                    mm = pc.min_max(valid)
                    min_str, max_str = mm["min"].as_py(), mm["max"].as_py()
                else:
                    raise ValueError(
                        f"profile_table: unsupported column type {typ} for {c!r}"
                    )
            uniq = pc.unique(valid)
            hs = np.unique(hash63(uniq.to_pylist()))
            trunc = len(hs) > k
            if trunc:
                logger.warning(
                    "profile_table: column %r batch has %d distinct > k=%d; "
                    "count degrades to a KMV estimate", c, len(hs), k,
                )
                hs = hs[:k]
            rows["col"].append(c)
            rows["n_rows"].append(len(arr))
            rows["n_null"].append(arr.null_count)
            rows["kmv"].append(hs)
            rows["trunc"].append(trunc)
            rows["min_num"].append(min_num)
            rows["max_num"].append(max_num)
            rows["min_str"].append(min_str)
            rows["max_str"].append(max_str)
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n_rows": pa.array(rows["n_rows"], pa.int64()),
                "n_null": pa.array(rows["n_null"], pa.int64()),
                "kmv": pa.array(rows["kmv"], pa.list_(pa.uint64())),
                "trunc": pa.array(rows["trunc"], pa.bool_()),
                "min_num": pa.array(rows["min_num"], pa.float64()),
                "max_num": pa.array(rows["max_num"], pa.float64()),
                "min_str": pa.array(rows["min_str"], pa.string()),
                "max_str": pa.array(rows["max_str"], pa.string()),
            }
        )

    pre = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        out = {key: [] for key in (
            "col", "n_rows", "n_null", "n_distinct", "exact",
            "min_num", "max_num", "min_str", "max_str",
        )}
        for col, g in df.groupby("col", sort=False):
            merged = np.unique(np.concatenate([np.asarray(v, np.uint64)
                                               for v in g["kmv"]]))
            trunc_any = bool(g["trunc"].any())
            if not trunc_any:
                n_distinct, exact = len(merged), True
            else:
                # union of bottom-k sets contains the union's true bottom-k
                merged = merged[:k]
                theta = float(merged[k - 1]) / float(1 << 63)
                n_distinct, exact = int(round((k - 1) / theta)), False
            out["col"].append(col)
            out["n_rows"].append(int(g["n_rows"].sum()))
            out["n_null"].append(int(g["n_null"].sum()))
            out["n_distinct"].append(n_distinct)
            out["exact"].append(exact)
            out["min_num"].append(g["min_num"].min(skipna=True))
            out["max_num"].append(g["max_num"].max(skipna=True))
            mn = g["min_str"].dropna()
            mx = g["max_str"].dropna()
            out["min_str"].append(mn.min() if len(mn) else None)
            out["max_str"].append(mx.max() if len(mx) else None)
        def _f(vals):
            return pa.array([None if v is None or (isinstance(v, float) and np.isnan(v))
                             else float(v) for v in vals], pa.float64())
        return pa.table(
            {
                "col": pa.array(out["col"], pa.string()),
                "n_rows": pa.array(out["n_rows"], pa.int64()),
                "n_null": pa.array(out["n_null"], pa.int64()),
                "n_distinct": pa.array(out["n_distinct"], pa.int64()),
                "exact": pa.array(out["exact"], pa.bool_()),
                "min_num": _f(out["min_num"]),
                "max_num": _f(out["max_num"]),
                "min_str": pa.array(out["min_str"], pa.string()),
                "max_str": pa.array(out["max_str"], pa.string()),
            }
        )

    return bucket_group_apply(pre, ["col"], bucket_fn, n_buckets=n_buckets)


def profile_table_sql(table: str, num_cols=(), ts_cols=(), str_cols=()) -> str:
    """Exact-regime oracle: one UNION ALL arm per profiled column."""
    arms = []

    def arm(c, min_expr, max_expr, as_num: bool):
        null_num = "CAST(NULL AS DOUBLE)"
        null_str = "CAST(NULL AS VARCHAR)"
        min_num = min_expr if as_num else null_num
        max_num = max_expr if as_num else null_num
        min_str = null_str if as_num else min_expr
        max_str = null_str if as_num else max_expr
        return f"""
        SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(count(*) - count({c}) AS BIGINT) AS n_null,
               CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,
               TRUE AS exact,
               {min_num} AS min_num, {max_num} AS max_num,
               {min_str} AS min_str, {max_str} AS max_str
        FROM {table}"""

    for c in num_cols:
        arms.append(arm(c, f"CAST(min({c}) AS DOUBLE)", f"CAST(max({c}) AS DOUBLE)", True))
    for c in ts_cols:
        arms.append(arm(c, f"CAST(epoch_us(min({c})) AS DOUBLE)",
                        f"CAST(epoch_us(max({c})) AS DOUBLE)", True))
    for c in str_cols:
        arms.append(arm(c, f"min({c})", f"max({c})", False))
    return " UNION ALL ".join(arms)


# --------------------------------------------------- snapshot diff (CDC)


def snapshot_diff(a_ds, b_ds, key_col: str, content_col: str, n_buckets: int = 16):
    """Corpus-version diff: which keys were added / removed / modified
    between snapshot A and snapshot B — the change-data-capture step an
    incremental ingest runs before reprocessing anything. Both sides map
    to (key, 16-byte md5-of-content, side) so the ONE key-bucketed
    exchange never carries document payloads (the decision-shuffle
    discipline of the records dedup guard); inside a bucket one lexsort +
    run-boundary scan classifies every key vectorized. Unchanged keys are
    dropped in-bucket, so output is diff-sized, not corpus-sized. 128-bit
    content hashes make a false 'unchanged' verdict a 2^-64 birthday
    event even at 10^12 keys."""
    import hashlib

    from ..functions.arrowutil import hex_to_bin

    def tagged(side_code: int):
        def to_rows(t: pa.Table) -> pa.Table:
            vals = t.column(content_col).to_pylist()
            hexes = pa.array(
                [hashlib.md5((v or "").encode()).hexdigest() for v in vals],
                pa.string(),
            )
            return pa.table(
                {
                    key_col: t.column(key_col),
                    "h": hex_to_bin(hexes),
                    "side": pa.array(
                        np.full(t.num_rows, side_code, np.int8), pa.int8()
                    ),
                }
            )

        return to_rows

    both = a_ds.map_batches(tagged(0), batch_format="pyarrow").union(
        b_ds.map_batches(tagged(1), batch_format="pyarrow")
    )

    def classify(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        key = df[key_col].to_numpy()
        side = df["side"].to_numpy()
        h = df["h"].to_numpy()
        order = np.lexsort((side, key))
        key, side, h = key[order], side[order], h[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        width = ends - starts
        # width 1: present on one side only; width 2: sorted (side0, side1)
        one = width == 1
        added = one & (side[starts] == 1)
        removed = one & (side[starts] == 0)
        # snapshot keys must be unique per side; a duplicate would classify
        # garbage silently — fail loudly instead (engine discipline)
        if (width > 2).any():
            bad = key[starts[width > 2]][:5]
            raise ValueError(f"snapshot_diff: duplicate keys within a side: {bad}")
        two = width == 2
        modified = np.zeros(len(starts), dtype=bool)
        if two.any():
            s2 = starts[two]
            if (side[s2] != 0).any() or (side[s2 + 1] != 1).any():
                bad = key[s2[(side[s2] != 0) | (side[s2 + 1] != 1)]][:5]
                raise ValueError(
                    f"snapshot_diff: duplicate keys within a side: {bad}"
                )
            modified[two] = h[s2] != h[s2 + 1]
        change = np.full(len(starts), "", dtype=object)
        change[added] = "added"
        change[removed] = "removed"
        change[modified] = "modified"
        keep = added | removed | modified
        return pa.table(
            {
                key_col: pa.array(key[starts][keep], pa.int64()),
                "change": pa.array(change[keep].astype(object), pa.string()),
            }
        )

    return bucket_group_apply(both, [key_col], classify, n_buckets=n_buckets)


def corpus_diff(docs_ds, n_buckets: int = 16):
    """snapshot_diff demo over the documents table: snapshot B is derived
    DETERMINISTICALLY from snapshot A by md5(doc_id) prefix — h2 < '10'
    also appears as a NEW doc (key + 1e6), h2 < '20' is dropped from B,
    ['20','40') is modified — so both engines can build the identical B
    and the FULL-OUTER-join oracle pins the classification."""
    from .samples import md5_hex_array

    def make_b(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = [x or "" for x in t.column("text").to_pylist()]
        h2 = np.array([h[:2] for h in md5_hex_array(ids)], dtype=object)
        ids_np = np.asarray(ids, dtype=np.int64)
        keep = h2 >= "20"
        mod = keep & (h2 < "40")
        kept_texts = [
            txt + " [rev2]" if m else txt
            for txt, k, m in zip(texts, keep, mod) if k
        ]
        new = h2 < "10"
        return pa.table(
            {
                "doc_id": pa.array(
                    np.r_[ids_np[keep], ids_np[new] + 1_000_000], pa.int64()
                ),
                "text": pa.array(
                    kept_texts + [t + " [new]" for t, n in zip(texts, new) if n],
                    pa.string(),
                ),
            }
        )

    def norm_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "text": pc.coalesce(t.column("text"), ""),
            }
        )

    a = docs_ds.map_batches(norm_a, batch_format="pyarrow")
    b = docs_ds.map_batches(make_b, batch_format="pyarrow")
    return snapshot_diff(a, b, key_col="doc_id", content_col="text",
                         n_buckets=n_buckets)


CORPUS_DIFF_SQL = """
WITH a AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents),
h AS (SELECT doc_id, text,
             substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) AS h2 FROM a),
b AS (
  SELECT doc_id,
         CASE WHEN h2 < '40' THEN text || ' [rev2]' ELSE text END AS text
  FROM h WHERE h2 >= '20'
  UNION ALL
  SELECT doc_id + 1000000 AS doc_id, text || ' [new]' AS text
  FROM h WHERE h2 < '10'
),
j AS (
  SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id, a.text AS ta, b.text AS tb
  FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
)
SELECT doc_id,
       CASE WHEN ta IS NULL THEN 'added'
            WHEN tb IS NULL THEN 'removed'
            ELSE 'modified' END AS change
FROM j
WHERE ta IS NULL OR tb IS NULL OR ta <> tb
"""


# ------------------------------------------------------- PSI drift audit


def psi_drift(ds, value_col: str = "n_chars", key_col: str = "doc_id",
              bin_width: int = 100, n_bins: int = 10):
    """Population Stability Index between two halves of a table (side A =
    even keys, side B = odd keys — the snapshot-pair stand-in): the
    standard ML-ops drift audit for "has this feature's distribution
    moved between corpus versions". Values bin into ``n_bins`` fixed
    integer buckets (``min(value // bin_width, n_bins-1)``); per bin,
    psi_term = (p - q) * ln(p / q) with p, q the bin's share of each
    side. Bins empty on EITHER side are emitted with NULL psi_term (the
    log is undefined; the standard epsilon fudge is a modeling choice
    this engine refuses to bake in silently). Total PSI = sum of non-NULL
    terms; the conventional read: <0.1 stable, >0.25 shifted.

    Parity discipline: bin ids and counts are exact integers; p, q are
    IEEE divisions of exact integers; psi_term is ONE identical double
    expression floored to 6dp on both engines (token_pmi's ln-of-ratio
    class). Scale shape: one map-side (bin, side) count partial per batch
    -> one n_bins-sized aggregate; the finalizer sees 2*n_bins rows."""
    def partial(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy()
        k = t.column(key_col).to_numpy()
        bins = np.minimum(v // bin_width, n_bins - 1).astype(np.int64)
        side = (k % 2).astype(np.int64)
        key = bins * 2 + side
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "bin_id": pa.array(uk // 2, pa.int64()),
                "side": pa.array(uk % 2, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    sums = group_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), ["bin_id", "side"],
        {"n": ("sum", "n")},
    )

    def finalize(df: pd.DataFrame) -> pa.Table:
        na = np.zeros(n_bins, np.int64)
        nb = np.zeros(n_bins, np.int64)
        for b, s, n in zip(df["bin_id"], df["side"], df["n"]):
            (na if s == 0 else nb)[int(b)] = int(n)
        ta, tb = na.sum(), nb.sum()
        psi = np.full(n_bins, np.nan)
        both = (na > 0) & (nb > 0)
        if ta > 0 and tb > 0 and both.any():
            p = na[both] / ta
            q = nb[both] / tb
            psi[both] = np.floor((p - q) * np.log(p / q) * 1e6) / 1e6
        return pa.table(
            {
                "bin_id": pa.array(np.arange(n_bins, dtype=np.int64)),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "psi_term": pa.array(
                    [None if np.isnan(x) else float(x) for x in psi],
                    pa.float64(),
                ),
            }
        )

    # 2*n_bins rows: one block, one finalizer batch
    return sums.repartition(1).map_batches(
        finalize, batch_size=None, batch_format="pandas"
    )


def psi_drift_sql(value_col: str = "n_chars", key_col: str = "doc_id",
                  bin_width: int = 100, n_bins: int = 10,
                  table: str = "documents") -> str:
    return f"""
    WITH binned AS (
      SELECT least({value_col} // {bin_width}, {n_bins - 1}) AS bin_id,
             {key_col} % 2 AS side
      FROM {table}
    ), c AS (
      SELECT bin_id, side, CAST(count(*) AS BIGINT) AS n
      FROM binned GROUP BY 1, 2
    ), bins AS (
      SELECT unnest(range({n_bins})) AS bin_id
    ), wide AS (
      SELECT b.bin_id,
             COALESCE((SELECT n FROM c WHERE c.bin_id = b.bin_id AND side = 0), 0) AS n_a,
             COALESCE((SELECT n FROM c WHERE c.bin_id = b.bin_id AND side = 1), 0) AS n_b
      FROM bins b
    ), tot AS (
      SELECT sum(n_a) AS ta, sum(n_b) AS tb FROM wide
    )
    SELECT bin_id, n_a, n_b,
           CASE WHEN n_a > 0 AND n_b > 0 THEN
             floor((n_a * 1.0 / ta - n_b * 1.0 / tb)
                   * ln((n_a * 1.0 / ta) / (n_b * 1.0 / tb)) * 1000000) / 1000000
           ELSE NULL END AS psi_term
    FROM wide CROSS JOIN tot
    """
