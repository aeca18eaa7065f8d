"""Deterministic sampling operators (Bernoulli and stratified per-group).

A 100-TB training-data pipeline samples constantly — eval holdouts, quality
audits, per-language balancing. Random sampling is useless there unless it
is DETERMINISTIC (re-runs and resumed runs must pick the same rows) and
PUSHABLE (a filter, not a shuffle). Both operators key on ``md5(key)``:

  * ``bernoulli_sample_hash`` — keep rows whose md5-hex prefix falls below a
    threshold. Pure map-side filter: zero shuffle, streams at read speed,
    and the SAME rows survive on every run and every engine (the DuckDB
    oracle applies the identical predicate). Lowercase-hex comparison is
    monotone in the hash value, so a 2-char prefix gives 1/256 granularity.
  * ``stratified_sample`` — per group, the k rows with the SMALLEST
    (md5(key), key) — a uniform-without-replacement draw per group whose
    result is order-independent. Same combiner shape as grouped top-k
    (relational.topk_docs_per_lang): each batch keeps its local bottom-k
    per group BEFORE the shuffle, so exchange volume is O(k x groups x
    batches) regardless of corpus size.

md5 is not the fastest hash, but it is the one both sides of the
correctness gate share bit-for-bit (hashlib here, ``md5()`` in DuckDB);
hashing is per-row C work either way. Rows are hashed via a comprehension
over the key column — O(rows) C-speed digest calls, the same cost profile
any engine pays for a hash-based sample.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import bucket_group_apply, group_aggregate


def md5_hex_array(values) -> np.ndarray:
    """Lowercase md5 hexdigest of str(v) for each value (matches DuckDB's
    ``md5(CAST(v AS VARCHAR))`` for integer/string columns)."""
    return np.array(
        [hashlib.md5(str(v).encode()).hexdigest() for v in values], dtype=object
    )


def bernoulli_sample_hash(ds, key_col: str, hex_prefix_lt: str = "1a"):
    """Deterministic ~(int(hex_prefix_lt,16)/16^len)-rate sample: keep rows
    where md5(str(key)) starts below ``hex_prefix_lt``. Map-side only."""
    n = len(hex_prefix_lt)

    def keep(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        hexes = md5_hex_array(keys)
        mask = np.array([h[:n] < hex_prefix_lt for h in hexes], dtype=bool)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(
    ds,
    group_col: str,
    key_col: str,
    k: int,
    keep_cols: Sequence[str],
    n_buckets: int = 8,
):
    """Per group, the k rows with smallest (md5(str(key)), key). Map-side
    bottom-k combiner, then one group shuffle finalizes."""
    keep_cols = list(keep_cols)

    def local_bottomk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(__h=md5_hex_array(df[key_col].to_numpy()))
        df = df.sort_values([group_col, "__h", key_col], kind="mergesort")
        return df.groupby(group_col, sort=False).head(k)

    pre = ds.map_batches(local_bottomk, batch_format="pandas")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        top = (
            df.sort_values([group_col, "__h", key_col], kind="mergesort")
            .groupby(group_col, sort=False)
            .head(k)
        )
        return pa.table({c: pa.array(top[c], from_pandas=True) for c in keep_cols})

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


# ------------------------------------------------------------ data mixing

MIX_WEIGHTS = {"src0": 3, "src1": 2, "src2": 1, "src3": 1}


def rebalance_sources(
    ds,
    weights: dict | None = None,
    key_col: str = "doc_id",
    group_col: str = "source",
    n_buckets: int = 8,
):
    """Deterministic domain-mixture resampling (the data-mixing pass of a
    training pipeline, DoReMi/The-Pile style fixed mixtures): downsample each
    source to an INTEGER-RATIO target mixture. With weights {A:3, B:1} the
    output holds exactly 3 A-docs per B-doc, as large as availability allows:

        units    = min over weighted sources present of (n_s // w_s)
        quota_s  = w_s * units        (all integer arithmetic — float-exact
                                       boundaries cannot exist)

    and each source keeps its quota_s docs with the SMALLEST
    (md5(str(key)), key) — the stratified_sample draw, so the selection is
    uniform-without-replacement, re-run-stable and engine-independent.
    Sources without a weight are dropped (weight 0). Two cheap exchanges:
    a per-source count (map-side combined by group_aggregate) whose result is
    DIMENSION-sized and closes over the filter as a broadcast, then the
    bottom-quota selection with a per-batch combiner — exchange volume
    O(quota x batches), never the corpus."""
    weights = dict(MIX_WEIGHTS if weights is None else weights)
    counts = {
        r[group_col]: r["n"]
        for r in group_aggregate(ds, group_col, {"n": ("count", None)}).take_all()
    }
    avail = [counts[s] // w for s, w in weights.items() if w > 0 and s in counts]
    units = min(avail) if avail else 0
    quotas = {s: w * units for s, w in weights.items() if w > 0}

    def local_bottomq(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[group_col].isin(quotas)]
        if not len(df):
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=np.int64),
                    group_col: pd.Series([], dtype=object),
                    "__h": pd.Series([], dtype=object),
                }
            )
        df = df.assign(__h=md5_hex_array(df[key_col].to_numpy()))
        df = df.sort_values([group_col, "__h", key_col], kind="mergesort")
        rank = df.groupby(group_col, sort=False).cumcount()
        gate = df[group_col].map(quotas).to_numpy(np.int64)
        return df.loc[rank.to_numpy() < gate, [key_col, group_col, "__h"]]

    pre = ds.select_columns([key_col, group_col]).map_batches(
        local_bottomq, batch_format="pandas"
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, "__h", key_col], kind="mergesort")
        rank = df.groupby(group_col, sort=False).cumcount()
        gate = df[group_col].map(quotas).to_numpy(np.int64)
        kept = df.loc[rank.to_numpy() < gate]
        return pa.table(
            {
                key_col: pa.array(kept[key_col].to_numpy(), pa.int64()),
                group_col: pa.array(kept[group_col], pa.string()),
            }
        )

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


def rebalance_sources_sql(
    weights: dict | None = None,
    key_col: str = "doc_id",
    group_col: str = "source",
    table: str = "documents",
) -> str:
    weights = dict(MIX_WEIGHTS if weights is None else weights)
    vals = ", ".join(f"('{s}', {w})" for s, w in sorted(weights.items()) if w > 0)
    return f"""
    WITH cnt AS (
      SELECT {group_col}, count(*) AS n FROM {table} GROUP BY {group_col}
    ), w AS (
      SELECT * FROM (VALUES {vals}) AS t({group_col}, wgt)
    ), u AS (
      SELECT COALESCE(min(n // wgt), 0) AS units FROM cnt JOIN w USING ({group_col})
    ), quota AS (
      SELECT {group_col}, wgt * units AS quota FROM w CROSS JOIN u
    ), ranked AS (
      SELECT d.{key_col}, d.{group_col},
             row_number() OVER (PARTITION BY d.{group_col}
               ORDER BY md5(CAST(d.{key_col} AS VARCHAR)), d.{key_col}) AS rn
      FROM {table} d
    )
    SELECT r.{key_col}, r.{group_col}
    FROM ranked r JOIN quota q USING ({group_col})
    WHERE r.rn <= q.quota
    """


# ------------------------------------------------------------ train/val/test

def assign_splits(ds, key_col: str = "doc_id",
                  train_lt: str = "cc", val_lt: str = "e6"):
    """Deterministic train/val/test assignment — the split every training
    pipeline needs to be STABLE across re-runs, resumes and engines: the
    first md5-hex byte of the key partitions rows ~80/10/10 (train <
    0xcc, val < 0xe6, else test). Pure map-side: zero shuffle, no stored
    split table to drift out of sync with the corpus."""
    n = 2

    def assign(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        h2 = np.array([h[:n] for h in md5_hex_array(keys)], dtype=object)
        split = np.where(
            h2 < train_lt, "train", np.where(h2 < val_lt, "val", "test")
        )
        return pa.table(
            {
                key_col: t.column(key_col),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def assign_splits_sql(key_col: str = "doc_id", table: str = "documents",
                      train_lt: str = "cc", val_lt: str = "e6") -> str:
    h = f"substr(md5(CAST({key_col} AS VARCHAR)), 1, 2)"
    return f"""
    SELECT {key_col},
           CASE WHEN {h} < '{train_lt}' THEN 'train'
                WHEN {h} < '{val_lt}' THEN 'val'
                ELSE 'test' END AS split
    FROM {table}
    """


# ------------------------------------------------ group-aware (leakage-safe)


def assign_splits_grouped(ds, group_col: str = "source", key_col: str = "doc_id",
                          train_lt: str = "cc", val_lt: str = "e6"):
    """GroupShuffleSplit: the train/val/test draw keyed on the GROUP column
    instead of the row key, so every row of one group lands in the same
    split — the leakage-safe split a training pipeline needs when groups
    encode provenance (same crawl/site/book) or near-dup clusters that
    must not straddle the train/eval boundary. Same pure map-side zero-
    shuffle shape as assign_splits; pass a dedup cluster id as group_col
    to make the split near-dup-safe."""

    def assign(t: pa.Table) -> pa.Table:
        groups = t.column(group_col).to_pylist()
        h2 = np.array([h[:2] for h in md5_hex_array(groups)], dtype=object)
        split = np.where(
            h2 < train_lt, "train", np.where(h2 < val_lt, "val", "test")
        )
        return pa.table(
            {
                key_col: t.column(key_col),
                group_col: t.column(group_col),
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def assign_splits_grouped_sql(group_col: str = "source", key_col: str = "doc_id",
                              table: str = "documents", train_lt: str = "cc",
                              val_lt: str = "e6") -> str:
    h = f"substr(md5(CAST({group_col} AS VARCHAR)), 1, 2)"
    return f"""
    SELECT {key_col}, {group_col},
           CASE WHEN {h} < '{train_lt}' THEN 'train'
                WHEN {h} < '{val_lt}' THEN 'val'
                ELSE 'test' END AS split
    FROM {table}
    """


# ------------------------------------------------ deterministic global order


def shuffle_rank(ds, key_col: str = "doc_id"):
    """Deterministic training-order shuffle: every row gets a dense global
    rank under the md5(key) order — the reproducible corpus permutation a
    trainer consumes instead of an RNG shuffle (stable across re-runs,
    resumes and engines). ONE global sort (the unavoidable exchange for a
    total order) + the metadata-offset rank pass of
    windowfns.global_scan; block payloads never cross the driver."""
    from .windowfns import global_scan

    def keyed(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_pylist()
        return pa.table(
            {
                key_col: t.column(key_col),
                "shuffle_key": pa.array(md5_hex_array(keys), pa.string()),
            }
        )

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow")
    return global_scan(
        keyed_ds,
        order_by=["shuffle_key", key_col],
        specs=[("row_number", None, "shuffle_rank")],
        keep_cols=[key_col],
    )


def shuffle_rank_sql(key_col: str = "doc_id", table: str = "documents") -> str:
    h = f"md5(CAST({key_col} AS VARCHAR))"
    return f"""
    SELECT {key_col},
           CAST(row_number() OVER (ORDER BY {h}, {key_col}) AS BIGINT)
             AS shuffle_rank
    FROM {table}
    """


# ------------------------------------------------ token-budget selection


def select_token_budget(ds, budget: int, key_col: str = "doc_id"):
    """Greedy corpus selection under a GLOBAL token budget: docs ordered by
    a deterministic priority (longest first, key tiebreak) are kept while
    the running token total stays within ``budget`` — the
    fixed-token-count corpus assembly step of a pretraining data pipeline.
    One map pass counts tokens (the BPE-ish pretoken regex token_counts
    uses), one global sort + metadata-offset prefix sum
    (windowfns.global_scan) yields each doc's cumulative position, and a
    final map-side filter keeps the prefix — no driver-side data pull.
    Priority is a pluggable ORDER; swap in a model quality score column
    upstream for quality-ordered selection."""
    import re as _re

    from .textstats import TOKEN_PATTERN
    from .windowfns import global_scan

    tok_re = _re.compile(TOKEN_PATTERN)

    def counts(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        n_tok = [len(tok_re.findall(x or "")) for x in texts]
        return pa.table(
            {
                key_col: t.column(key_col),
                "n_tokens": pa.array(n_tok, pa.int64()),
            }
        )

    counted = ds.map_batches(counts, batch_format="pyarrow")
    scanned = global_scan(
        counted,
        order_by=["n_tokens", key_col],
        descending=[True, False],
        specs=[("running_sum", "n_tokens", "cum_tokens")],
        keep_cols=[key_col, "n_tokens"],
    )

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.less_equal(t.column("cum_tokens"), budget))

    return scanned.map_batches(keep, batch_format="pyarrow")


def select_token_budget_sql(budget: int, key_col: str = "doc_id",
                            table: str = "documents") -> str:
    from .textstats import TOKEN_PATTERN

    return f"""
    WITH c AS (
      SELECT {key_col},
             CAST(length(regexp_extract_all(COALESCE(text, ''),
                  '{TOKEN_PATTERN}')) AS BIGINT) AS n_tokens
      FROM {table}
    ), s AS (
      SELECT {key_col}, n_tokens,
             CAST(sum(n_tokens) OVER (ORDER BY n_tokens DESC, {key_col}
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_tokens
      FROM c
    )
    SELECT {key_col}, n_tokens, cum_tokens FROM s WHERE cum_tokens <= {budget}
    """


def assign_splits_dedup_safe(docs_ds, threshold: float = None):
    """Near-dup-safe train/val/test split: the GroupShuffleSplit draw keyed
    on the MinHash-LSH near-dup CLUSTER id, so a document and its
    near-duplicates can never straddle the train/eval boundary — the
    composition (dedup clusters -> grouped split) that closes the classic
    eval-contamination hole a row-keyed split leaves open. Cluster ids are
    model output (union-find over verified pairs), so this is rows-only;
    the straddle-freedom property is pinned in tests/test_global_scan.py."""
    from .dedup import minhash_dedup

    kwargs = {} if threshold is None else {"threshold": threshold}
    clusters = minhash_dedup(docs_ds, **kwargs)  # (doc_id, cluster_id)
    return assign_splits_grouped(clusters, group_col="cluster_id",
                                 key_col="doc_id")


# ------------------------------------- weighted reservoir (A-ES) top-k

_U64_SCALE = 18446744073709551616.0  # 2^64


def _md5_lower64(values) -> np.ndarray:
    """Little-endian uint64 of md5 digest bytes 8..16 of str(v) — the exact
    arithmetic of DuckDB's ``md5_number_lower(CAST(v AS VARCHAR))``, so the
    per-row uniform draw is bit-identical on both engines."""
    import hashlib

    return np.array(
        [
            int.from_bytes(hashlib.md5(str(v).encode()).digest()[8:16], "little")
            for v in values
        ],
        dtype=np.uint64,
    )


def weighted_reservoir_sample(ds, weight_col: str, k: int,
                              key_col: str = "doc_id"):
    """Weighted sample WITHOUT replacement of exactly ``k`` rows — the
    Efraimidis-Spirakis (2006) reservoir: each row draws a deterministic
    uniform u from md5(key) and ranks by ``u^(1/w)``; the global top-k by
    that key is distributed per inclusion probability proportional to
    weight (A-ES theorem 1), with NO global weight total needed. Ranking
    uses the monotone-equivalent ``ln(u)/w`` (largest wins); rows with
    w <= 0 never qualify. Returns (key_col, weight_col, es_key) with
    es_key floor-truncated to 6dp.

    Scale shape: pure MAP-SIDE top-k — every batch keeps its k best rows,
    one k-sized single-block merge finishes (the frequent_tokens combine
    discipline); no shuffle, no global RNG state, partition-invariant by
    construction (the draw depends only on the row's key)."""

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].to_numpy().astype(np.float64)
        keep = w > 0
        df = df[keep]
        w = w[keep]
        if len(df) == 0:
            return df.assign(__es=np.zeros(0, np.float64))[
                [key_col, weight_col, "__es"]
            ]
        u = _md5_lower64(df[key_col].to_numpy()).astype(np.float64) / _U64_SCALE
        with np.errstate(divide="ignore"):
            es = np.log(u) / w
        order = np.lexsort((df[key_col].to_numpy(), -es))[:k]
        return df.assign(__es=es).iloc[order][[key_col, weight_col, "__es"]]

    local = ds.map_batches(local_topk, batch_format="pandas")

    def final_topk(df: pd.DataFrame) -> pa.Table:
        es = df["__es"].to_numpy()
        order = np.lexsort((df[key_col].to_numpy(), -es))[:k]
        d = df.iloc[order]
        return pa.table(
            {
                key_col: pa.array(d[key_col].to_numpy(), pa.int64()),
                weight_col: pa.array(d[weight_col].to_numpy(), pa.int64()),
                "es_key": pa.array(
                    np.floor(d["__es"].to_numpy() * 1e6) / 1e6, pa.float64()
                ),
            }
        )

    # batch_size=None => whole-block batch; repartition(1) guarantees ONE
    return local.repartition(1).map_batches(
        final_topk, batch_size=None, batch_format="pandas"
    )


def weighted_reservoir_sample_sql(weight_col: str, k: int,
                                  key_col: str = "doc_id",
                                  table: str = "documents") -> str:
    return f"""
    WITH keyed AS (
      SELECT {key_col}, {weight_col},
             ln(CAST(md5_number_lower(CAST({key_col} AS VARCHAR)) AS DOUBLE)
                / {_U64_SCALE:.1f}) / {weight_col} AS es
      FROM {table} WHERE {weight_col} > 0
    )
    SELECT {key_col}, {weight_col},
           floor(es * 1000000) / 1000000 AS es_key
    FROM keyed ORDER BY es DESC, {key_col} LIMIT {k}
    """


def temperature_rebalance(ds, budget: int, key_col: str = "doc_id",
                          group_col: str = "source", n_buckets: int = 8):
    """Temperature-based mixture resampling (the multilingual-training
    alpha-sampling rule, p_s ~ n_s^alpha with alpha = 0.5): allocate a
    global ``budget`` of documents across sources proportionally to
    sqrt(source size) — upweighting tails relative to raw proportions
    without flattening to uniform — then keep each source's quota docs by
    the smallest (md5(key), key), the rebalance_sources draw.

    Parity discipline: quotas are INTEGER arithmetic end-to-end —
    r_s = floor(sqrt(n_s) * 1e6) (IEEE sqrt is correctly rounded, so both
    engines agree bit-for-bit), R = sum r_s (exact BIGINT), quota_s =
    (budget * r_s) // R — no float sum whose accumulation order could
    differ between numpy and DuckDB. A source whose quota exceeds its
    size just keeps everything (rn <= quota on both engines).

    Scale shape: one dimension-sized count aggregate (map-side combined),
    quotas close over the selection as a broadcast, then the bottom-quota
    draw with a per-batch combiner — exchange volume O(quota x batches),
    identical to rebalance_sources."""
    import math

    counts = {
        r[group_col]: r["n"]
        for r in group_aggregate(ds, group_col, {"n": ("count", None)}).take_all()
    }
    r_s = {s: math.floor(math.sqrt(n) * 1e6) for s, n in counts.items()}
    total = sum(r_s.values())
    quotas = (
        {s: (budget * r) // total for s, r in r_s.items()} if total else {}
    )

    def local_bottomq(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[group_col].isin(quotas)]
        if not len(df):
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=np.int64),
                    group_col: pd.Series([], dtype=object),
                    "__h": pd.Series([], dtype=object),
                }
            )
        df = df.assign(__h=md5_hex_array(df[key_col].to_numpy()))
        df = df.sort_values([group_col, "__h", key_col], kind="mergesort")
        rank = df.groupby(group_col, sort=False).cumcount()
        gate = df[group_col].map(quotas).to_numpy(np.int64)
        return df.loc[rank.to_numpy() < gate, [key_col, group_col, "__h"]]

    pre = ds.select_columns([key_col, group_col]).map_batches(
        local_bottomq, batch_format="pandas"
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, "__h", key_col], kind="mergesort")
        rank = df.groupby(group_col, sort=False).cumcount()
        gate = df[group_col].map(quotas).to_numpy(np.int64)
        kept = df.loc[rank.to_numpy() < gate]
        return pa.table(
            {
                key_col: pa.array(kept[key_col].to_numpy(), pa.int64()),
                group_col: pa.array(kept[group_col], pa.string()),
            }
        )

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


def temperature_rebalance_sql(budget: int, key_col: str = "doc_id",
                              group_col: str = "source",
                              table: str = "documents") -> str:
    return f"""
    WITH cnt AS (
      SELECT {group_col}, CAST(count(*) AS BIGINT) AS n
      FROM {table} GROUP BY {group_col}
    ), r AS (
      SELECT {group_col},
             CAST(floor(sqrt(CAST(n AS DOUBLE)) * 1000000) AS BIGINT) AS rs
      FROM cnt
    ), quota AS (
      SELECT {group_col},
             ({budget} * rs) // (SELECT sum(rs) FROM r) AS quota
      FROM r
    ), ranked AS (
      SELECT d.{key_col}, d.{group_col},
             row_number() OVER (PARTITION BY d.{group_col}
               ORDER BY md5(CAST(d.{key_col} AS VARCHAR)), d.{key_col}) AS rn
      FROM {table} d
    )
    SELECT rk.{key_col}, rk.{group_col}
    FROM ranked rk JOIN quota q USING ({group_col})
    WHERE rk.rn <= q.quota
    """


# ------------------------------------------------------------- epoch upsample

# Default epoch multiplicities in 4096ths: src0 sees 2.5 epochs, src1 1.5,
# src2 exactly 1, src3 0.5 (an under-one weight downsamples — the same
# operator covers both directions of a mixture adjustment).
UPSAMPLE_W4096 = {"src0": 10240, "src1": 6144, "src2": 4096, "src3": 2048}


def upsample_sources(ds, weights: dict | None = None, key_col: str = "doc_id",
                     group_col: str = "source"):
    """Epoch-weighted mixture resampling WITH REPLACEMENT — the up-weighting
    half of a training-data recipe (LLaMA/Pile style "source X is seen 2.5
    epochs"): each document from source s appears floor(e_s) times plus one
    extra copy for a deterministic fraction frac(e_s) of its docs.
    ``weights`` maps source -> epochs in integer 4096ths (10240 = 2.5
    epochs), so the boundary is exact on both engines:

        copies = w // 4096 + (1 if md5(str(key))[:3] < hex3(w % 4096))

    — the 3-hex-digit prefix is a uniform draw on [0, 4096) and the
    comparison is plain string order, the assign_splits/bernoulli idiom.
    Sources without a weight are dropped; e_s < 1 downsamples (floor = 0,
    only the fractional draw keeps a copy).

    Shape: pure map-side — one vectorized multiplicity computation and one
    np.repeat per batch, ZERO shuffle, output streamed (never a driver
    list); at 100 TB this is the cheapest possible mixing pass. Output:
    (key, group, copy_idx) with copy_idx in [0, copies) so repeated rows
    are distinguishable and the result is a well-defined multiset."""
    w = dict(UPSAMPLE_W4096 if weights is None else weights)

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[group_col].isin(w)]
        if not len(df):
            return pd.DataFrame(
                {
                    key_col: pd.Series([], dtype=np.int64),
                    group_col: pd.Series([], dtype=object),
                    "copy_idx": pd.Series([], dtype=np.int64),
                }
            )
        w4096 = df[group_col].map(w).to_numpy(np.int64)
        whole = w4096 // 4096
        frac = w4096 % 4096
        h3 = np.array(
            [h[:3] for h in md5_hex_array(df[key_col].to_numpy())], dtype=object
        )
        thr = np.array([format(int(f), "03x") for f in frac], dtype=object)
        m = whole + (h3 < thr).astype(np.int64)
        keep = m > 0
        ids = df[key_col].to_numpy()[keep]
        srcs = df[group_col].to_numpy()[keep]
        mm = m[keep]
        total = int(mm.sum())
        rep_ids = np.repeat(ids, mm)
        rep_src = np.repeat(srcs, mm)
        starts = np.cumsum(mm) - mm
        copy_idx = np.arange(total, dtype=np.int64) - np.repeat(starts, mm)
        return pd.DataFrame(
            {
                key_col: pd.Series(rep_ids, dtype=np.int64),
                group_col: pd.Series(rep_src, dtype=object),
                "copy_idx": pd.Series(copy_idx, dtype=np.int64),
            }
        )

    return ds.map_batches(expand, batch_format="pandas")


def upsample_sources_sql(weights: dict | None = None, key_col: str = "doc_id",
                         group_col: str = "source",
                         table: str = "documents") -> str:
    w = dict(UPSAMPLE_W4096 if weights is None else weights)
    vals = ", ".join(f"('{s}', {v})" for s, v in sorted(w.items()))
    return f"""
    WITH w AS (
      SELECT * FROM (VALUES {vals}) AS t({group_col}, w4096)
    ), base AS (
      SELECT d.{key_col}, d.{group_col},
             (w.w4096 // 4096)
             + CASE WHEN substr(md5(CAST(d.{key_col} AS VARCHAR)), 1, 3)
                         < printf('%03x', w.w4096 % 4096)
                    THEN 1 ELSE 0 END AS m
      FROM {table} d JOIN w USING ({group_col})
    )
    SELECT {key_col}, {group_col},
           CAST(unnest(generate_series(0, m - 1)) AS BIGINT) AS copy_idx
    FROM base WHERE m > 0
    """
