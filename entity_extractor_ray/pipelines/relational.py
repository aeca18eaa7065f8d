"""Relational operator surface over the driver's TPC-H-ish tables.

Re-expresses the reference's query patterns (SURVEY.md §2.4-2.5: J5-J8
joins/lookups, A6-A7 rollups/distincts, M2 keyword search, M12-M14 filters)
as Ray Data pipelines, each paired with the exact DuckDB SQL the driver runs
side-by-side. Float discipline for hash parity: SUMS are computed on integer
cents (round(x*100)) and divided once at the end — bit-identical between
numpy/Arrow and DuckDB; raw column passthroughs are safe as-is.

Registry: QUERIES maps name -> callable(sf_dir) -> Dataset/DataFrame;
ORACLE_SQL maps the same name -> SQL string (absent => rows-only check).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cleanscan import read_parquet_clean as _rpc
from ..stages.shuffle import group_aggregate


def _read(sf_dir: str, table: str, columns=None):
    from ..sources.cleanscan import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    return pc.cast(pc.round(pc.multiply(col, 100)), pa.int64())


# ------------------------------------------------------------------ q1

def q1_pricing_summary(sf_dir: str):
    """Pricing summary (A6-style rollup with batch-level pre-aggregation):
    per (l_returnflag, l_linestatus) over shipdate <= 1998-09-02."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount", "l_shipdate"])

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t.column("l_shipdate"), cutoff))
        ep = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        qty = pc.cast(pc.round(t.column("l_quantity")), pa.int64())
        disc_price = pc.multiply(ep, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "qty": qty,
                "ep_cents": ep,
                "disc_cents": disc,
                "disc_price": disc_price,
            }
        )

    agg = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty_i": ("sum", "qty"),
            "sum_base_i": ("sum", "ep_cents"),
            "sum_disc_i": ("sum", "disc_price"),
            "sum_discount_i": ("sum", "disc_cents"),
            "n_rows": ("count", None),
        },
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "sum_qty": t.column("sum_qty_i"),
                "sum_base_price": pc.divide(pc.cast(t.column("sum_base_i"), pa.float64()), 100.0),
                "sum_disc_price": pc.divide(pc.cast(t.column("sum_disc_i"), pa.float64()), 10000.0),
                "sum_discount": pc.divide(pc.cast(t.column("sum_discount_i"), pa.float64()), 100.0),
                "n_rows": t.column("n_rows"),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)) / 100.0 AS sum_base_price,
       sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l_discount*100) AS BIGINT))) / 10000.0 AS sum_disc_price,
       sum(CAST(round(l_discount*100) AS BIGINT)) / 100.0 AS sum_discount,
       count(*) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ------------------------------------------------------------------ q6-style revenue filter

def q6_revenue_filter(sf_dir: str):
    """Vectorized predicate + single global aggregate (M12/J7 + A6). The
    DATE window also pushes down into the parquet scan (row-group pruning
    at 100 TB; timestamp comparison is exact, so the pushdown is a safe
    superset of the per-batch mask, which stays authoritative for the
    rounded-cents discount and quantity terms)."""
    import ray.data as rd

    lo = pa.scalar(pd.Timestamp("1995-01-01"), pa.timestamp("us"))
    hi = pa.scalar(pd.Timestamp("1996-01-01"), pa.timestamp("us"))
    ds = _rpc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    )

    def prep(t: pa.Table) -> pa.Table:
        disc = _cents(t.column("l_discount"))
        mask = pc.and_(
            pc.and_(pc.greater_equal(t.column("l_shipdate"), lo),
                    pc.less(t.column("l_shipdate"), hi)),
            pc.and_(pc.and_(pc.greater_equal(disc, 5), pc.less_equal(disc, 7)),
                    pc.less(t.column("l_quantity"), 24.0)),
        )
        t2 = t.filter(mask)
        rev = pc.multiply(_cents(t2.column("l_extendedprice")),
                          _cents(t2.column("l_discount")))
        return pa.table({"rev": rev})

    revenue = (ds.map_batches(prep, batch_format="pyarrow").sum("rev") or 0) / 10000.0
    return pd.DataFrame({"revenue": [revenue]})


Q6_SQL = """
SELECT sum(CAST(round(l_extendedprice*100) AS BIGINT)
           * CAST(round(l_discount*100) AS BIGINT)) / 10000.0 AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1995-01-01' AND l_shipdate < TIMESTAMP '1996-01-01'
  AND CAST(round(l_discount*100) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


# ------------------------------------------------------------------ filtered projection (J7)

def filter_scan_orders(sf_dir: str):
    """Multi-predicate filtered scan with projection — raw column
    passthrough. The full predicate pushes down into the parquet scan
    (row-group pruning; every term is an exact value comparison, identical
    in the scanner and in the per-batch mask kept as the authority)."""
    import ray.data as rd

    lo = pa.scalar(pd.Timestamp("1995-01-01"), pa.timestamp("us"))
    ds = _rpc(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
                 "o_orderdate"],
        filter=(pc.field("o_orderstatus") == "O")
        & (pc.field("o_orderdate") >= lo)
        & (pc.field("o_totalprice") > 100000.0),
    )

    def f(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(t.column("o_orderstatus"), "O"),
            pc.and_(pc.greater_equal(t.column("o_orderdate"), lo),
                    pc.greater(t.column("o_totalprice"), 100000.0)),
        )
        return t.filter(mask).select(["o_orderkey", "o_custkey", "o_totalprice"])

    return ds.map_batches(f, batch_format="pyarrow")


FILTER_SCAN_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders
WHERE o_orderstatus = 'O' AND o_orderdate >= TIMESTAMP '1995-01-01'
  AND o_totalprice > 100000
"""


# ------------------------------------------------------------------ joins (J5/J6)

def join_revenue_by_nation(sf_dir: str):
    """customer ⋈ orders ⋈ nation: the small dimension (nation) is a
    driver-side LUT, customer attaches by lookup_join (broadcast at
    dimension size, bucket join past its gates; SURVEY.md J5 semantics)."""
    import ray

    from ..stages.shuffle import lookup_join

    nation = {
        r["n_nationkey"]: r["n_name"]
        for r in _read(sf_dir, "nation", ["n_nationkey", "n_name"]).take_all()
    }
    nation_ref = ray.put(nation)

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep_orders(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": t.column("o_custkey"),
             "price_cents": _cents(t.column("o_totalprice"))}
        )

    # c_custkey is the customer primary key. Ray's Dataset.join would start
    # hash-shuffle actors that never all get a CPU in a 1-CPU session
    joined = lookup_join(
        orders.map_batches(prep_orders, batch_format="pyarrow"), cust,
        key="o_custkey", right_key="c_custkey", unique_right=True,
    )

    def add_nation(t: pa.Table) -> pa.Table:
        # vectorized dim lookup: nationkey is a dense small-int key, so a
        # numpy object LUT take replaces the per-row dict probe
        nmap = ray.get(nation_ref)
        keys = t.column("c_nationkey").to_numpy(zero_copy_only=False)
        lut = np.empty(max(nmap) + 1, dtype=object)
        for k, v in nmap.items():
            lut[k] = v
        return pa.table(
            {"n_name": pa.array(lut[keys], pa.string()),
             "price_cents": t.column("price_cents")}
        )

    agg = group_aggregate(
        joined.map_batches(add_nation, batch_format="pyarrow"), "n_name",
        {"cents": ("sum", "price_cents"), "n_orders": ("count", None)},
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": t.column("n_name"),
                "total_revenue": pc.divide(pc.cast(t.column("cents"), pa.float64()), 100.0),
                "n_orders": t.column("n_orders"),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


JOIN_REVENUE_SQL = """
SELECT n.n_name,
       sum(CAST(round(o.o_totalprice*100) AS BIGINT)) / 100.0 AS total_revenue,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def provenance_distinct(sf_dir: str):
    """3-table join + DISTINCT projection (J6 reporting semantics):
    distinct (c_mktsegment, o_orderpriority) for open orders."""
    from ..stages.shuffle import lookup_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_orderpriority"])

    def f(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("o_orderstatus"), "O")).select(
            ["o_custkey", "o_orderpriority"]
        )

    joined = lookup_join(
        orders.map_batches(f, batch_format="pyarrow"), cust,
        key="o_custkey", right_key="c_custkey", unique_right=True,
    )
    return group_aggregate(
        joined, ["c_mktsegment", "o_orderpriority"], {"n": ("count", None)}
    ).select_columns(["c_mktsegment", "o_orderpriority"])


PROVENANCE_SQL = """
SELECT DISTINCT c.c_mktsegment, o.o_orderpriority
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
WHERE o.o_orderstatus = 'O'
"""


# ------------------------------------------------------------------ top-k (J8)

def topk_orders(sf_dir: str):
    """Global top-10 orders by totalprice (deterministic tie-break on key)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


TOPK_SQL = """
SELECT o_orderkey, o_totalprice FROM orders
ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10
"""


def topk_docs_per_lang(sf_dir: str, k: int = 3):
    """Grouped top-k: the k longest documents PER language (desc n_chars,
    tie-break doc_id asc), with a dense per-group rank column.

    100-TB shape: a map-side combiner keeps only the per-batch top-k per
    group BEFORE the shuffle, so exchange volume is O(k x groups x batches)
    regardless of corpus size — the grouped analog of the reference's
    first-result-wins limit (A9, global_node_repository.py:158), generalized
    to k results per key."""
    import pandas as pd

    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def _local_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        return df.groupby("lang", sort=False).head(k)

    pre = ds.map_batches(_local_topk, batch_format="pandas")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        top = _local_topk(df).copy()
        top["rnk"] = top.groupby("lang", sort=False).cumcount() + 1
        return pa.table(
            {
                "doc_id": pa.array(top["doc_id"].to_numpy(), pa.int64()),
                "lang": pa.array(top["lang"].to_numpy(), pa.string()),
                "n_chars": pa.array(top["n_chars"].to_numpy(), pa.int64()),
                "rnk": pa.array(top["rnk"].to_numpy(), pa.int64()),
            }
        )

    return bucket_group_apply(pre, ["lang"], bucket_fn, n_buckets=8)


TOPK_PER_LANG_SQL = """
SELECT doc_id, lang, n_chars, rnk FROM (
  SELECT doc_id, lang, n_chars,
         row_number() OVER (
           PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC
         ) AS rnk
  FROM documents
) WHERE rnk <= 3
"""


# ------------------------------------------------------------ anti / semi joins

def orders_without_big_items(sf_dir: str):
    """Distributed ANTI join (the standalone form of the reference's J1
    MATERIAL_ALREADY_INGESTED guard, artifact_ingestor_service.py:979-989):
    orders with NO lineitem above the price floor, as one hash-bucket
    shuffle where the right side ships only per-batch-distinct keys."""
    from ..stages.shuffle import bucket_hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("l_extendedprice"), 90000.0))

    return bucket_hash_join(
        orders, items.map_batches(big, batch_format="pyarrow"),
        key="o_orderkey", right_key="l_orderkey", how="anti", n_buckets=16,
    )


ORDERS_WITHOUT_BIG_ITEMS_SQL = """
SELECT o_orderkey, o_totalprice FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_extendedprice > 90000
)
"""


# ------------------------------------------------------------ grouped quantiles

def doc_length_quantiles(sf_dir: str):
    """EXACT grouped quantiles (median + p90 of document length per
    language) with bounded state: a map-side (lang, n_chars) histogram
    pre-reduction collapses the corpus to its per-group VALUE DISTRIBUTION
    before the shuffle, then each group walks its cumulative histogram —
    state is O(distinct lengths per group), never O(rows per group), so the
    operator survives billion-row groups where a collect-and-sort grouped
    quantile would not. Quantile rule matches DuckDB quantile_disc:
    sorted[ceil(q*n) - 1]."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def histogram(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "n_chars"], sort=False).size().reset_index(name="cnt")
        return g

    pre = ds.map_batches(histogram, batch_format="pandas")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        out = {"lang": [], "n_docs": [], "median_chars": [], "p90_chars": []}
        merged = df.groupby(["lang", "n_chars"], sort=False)["cnt"].sum().reset_index()
        for lang, g in merged.groupby("lang", sort=False):
            g = g.sort_values("n_chars", kind="mergesort")
            cum = g["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            vals = g["n_chars"].to_numpy()
            med = vals[np.searchsorted(cum, int(np.ceil(0.5 * n)))]
            p90 = vals[np.searchsorted(cum, int(np.ceil(0.9 * n)))]
            out["lang"].append(lang)
            out["n_docs"].append(n)
            out["median_chars"].append(int(med))
            out["p90_chars"].append(int(p90))
        return pa.table(
            {
                "lang": pa.array(out["lang"], pa.string()),
                "n_docs": pa.array(out["n_docs"], pa.int64()),
                "median_chars": pa.array(out["median_chars"], pa.int64()),
                "p90_chars": pa.array(out["p90_chars"], pa.int64()),
            }
        )

    return bucket_group_apply(pre, ["lang"], bucket_fn, n_buckets=4)


DOC_LENGTH_QUANTILES_SQL = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       quantile_disc(n_chars, 0.5) AS median_chars,
       quantile_disc(n_chars, 0.9) AS p90_chars
FROM documents GROUP BY lang
"""


def doc_length_quantiles_cont(sf_dir: str):
    """INTERPOLATED grouped quantiles (quantile_cont semantics: value at
    fractional rank h=(n-1)q, linear between neighbors) from the same
    map-side histogram pre-reduction as doc_length_quantiles. The
    quantiles are DYADIC (0.5, 0.75), so h, its fractional part and the
    interpolation products are all exact in float64 — bit-identical to
    DuckDB regardless of either engine's interpolation formula order."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def histogram(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["lang", "n_chars"], sort=False).size().reset_index(name="cnt")

    pre = ds.map_batches(histogram, batch_format="pandas")

    def _cont(vals: np.ndarray, cum: np.ndarray, n: int, q: float) -> float:
        h = (n - 1) * q
        lo_i = int(np.floor(h))
        hi_i = int(np.ceil(h))
        lo = float(vals[np.searchsorted(cum, lo_i + 1)])
        hi = float(vals[np.searchsorted(cum, hi_i + 1)])
        return lo + (hi - lo) * (h - lo_i)

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        out = {"lang": [], "p50_chars": [], "p75_chars": []}
        merged = df.groupby(["lang", "n_chars"], sort=False)["cnt"].sum().reset_index()
        for lang, g in merged.groupby("lang", sort=False):
            g = g.sort_values("n_chars", kind="mergesort")
            cum = g["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            vals = g["n_chars"].to_numpy()
            out["lang"].append(lang)
            out["p50_chars"].append(_cont(vals, cum, n, 0.5))
            out["p75_chars"].append(_cont(vals, cum, n, 0.75))
        return pa.table(
            {
                "lang": pa.array(out["lang"], pa.string()),
                "p50_chars": pa.array(out["p50_chars"], pa.float64()),
                "p75_chars": pa.array(out["p75_chars"], pa.float64()),
            }
        )

    return bucket_group_apply(pre, ["lang"], bucket_fn, n_buckets=4)


DOC_LENGTH_QUANTILES_CONT_SQL = """
SELECT lang, quantile_cont(n_chars, 0.5) AS p50_chars,
       quantile_cont(n_chars, 0.75) AS p75_chars
FROM documents GROUP BY lang
"""


def orders_with_big_items(sf_dir: str):
    """Distributed SEMI join: orders having at least one lineitem above a
    price floor — existence probe only, no fact-fact row multiplication."""
    import ray.data as rd  # noqa: F401

    from ..stages.shuffle import bucket_hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("l_extendedprice"), 90000.0))

    return bucket_hash_join(
        orders, items.map_batches(big, batch_format="pyarrow"),
        key="o_orderkey", right_key="l_orderkey", how="semi", n_buckets=16,
    )


ORDERS_WITH_BIG_ITEMS_SQL = """
SELECT o_orderkey, o_totalprice FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_extendedprice > 90000
)
"""


# ------------------------------------------------------------------ distinct / counts (A7)

def count_by_status(sf_dir: str):
    ds = _read(sf_dir, "orders", ["o_orderstatus"])
    return group_aggregate(ds, "o_orderstatus", {"n_orders": ("count", None)})


COUNT_BY_STATUS_SQL = """
SELECT o_orderstatus, count(*) AS n_orders FROM orders GROUP BY o_orderstatus
"""


def distinct_returnflags(sf_dir: str):
    ds = _read(sf_dir, "lineitem", ["l_returnflag"])
    return group_aggregate(ds, "l_returnflag", {"n": ("count", None)}).select_columns(
        ["l_returnflag"]
    )


DISTINCT_RETURNFLAG_SQL = "SELECT DISTINCT l_returnflag FROM lineitem"


# ------------------------------------------------------------------ events windows

def events_hourly(sf_dir: str):
    """Tumbling-window grouped aggregate over the event stream table:
    per (event_type, hour): count + value sum (cents-exact)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": hour,
                "value_cents": _cents(t.column("value")),
            }
        )

    agg = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["event_type", "hour"],
        {"n_events": ("count", None), "cents": ("sum", "value_cents")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": t.column("hour"),
                "n_events": t.column("n_events"),
                "total_value": pc.divide(pc.cast(t.column("cents"), pa.float64()), 100.0),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


EVENTS_HOURLY_SQL = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       count(*) AS n_events,
       sum(CAST(round(value*100) AS BIGINT)) / 100.0 AS total_value
FROM events GROUP BY event_type, date_trunc('hour', ts)
"""


def events_sliding(sf_dir: str, window_hours: int = 3):
    """SLIDING-window aggregate over the event stream (the windowed-streaming
    surface beyond tumbling events_hourly / session events_sessionize): per
    (event_type, hour-with-events), the event count over the window of the
    current + preceding (window_hours-1) hours.

    Scale shape: ONE tumbling pre-aggregate (the only pass over the raw
    stream) shrinks the data to (type x hour) partials; the sliding sum then
    runs per type over that dimension-sized series — prefix sums +
    searchsorted, never a self-join of raw events."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(t.column("ts"), unit="hour")
        return pa.table({"event_type": t.column("event_type"), "hour": hour})

    # map-side combine: per-batch (type, hour) partial counts pre-shrink the
    # shuffle (same pattern as the linking distinct combiner)
    def partial_counts(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["event_type", "hour"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "hour": pa.array(g["hour"]),
                "n": pa.array(g["n"].to_numpy(), pa.int64()),
            }
        )

    partial = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        partial_counts, batch_format="pyarrow"
    )

    win_us = np.int64(window_hours) * 3_600_000_000

    def sliding_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        out_type, out_hour, out_n = [], [], []
        for etype, g in df.groupby("event_type", sort=False):
            g = g.groupby("hour", sort=True)["n"].sum().reset_index()
            hours = g["hour"].to_numpy().astype("datetime64[us]").astype(np.int64)
            ns = g["n"].to_numpy()
            csum = np.concatenate([[0], np.cumsum(ns)])
            # window (hour - window + 1h epsilon... inclusive of hours >
            # hour - window): left index of first in-window hour
            left = np.searchsorted(hours, hours - win_us, side="right")
            n_window = csum[np.arange(1, len(ns) + 1)] - csum[left]
            out_type.extend([etype] * len(ns))
            out_hour.extend(g["hour"].tolist())
            out_n.extend(n_window.tolist())
        return pa.table(
            {
                "event_type": pa.array(out_type, pa.string()),
                "hour": pa.array(out_hour, pa.timestamp("us")),
                "n_window": pa.array(out_n, pa.int64()),
            }
        )

    return bucket_group_apply(partial, ["event_type"], sliding_bucket, 16)


def events_late(sf_dir: str, lateness_sec: int = 600):
    """Event-time WATERMARK semantics over the arrival-ordered stream: per
    user, the watermark is max(event time over previously-ARRIVED events,
    by event_id) minus the allowed lateness; an event whose own ts falls
    below the watermark is LATE and is emitted to this side-output instead
    of silently joining its window (the streaming late-data contract).

    Scale shape: one bucket shuffle on user_id; per user a sort by arrival
    id + a running-max (vectorized accumulate) — state per key is one
    timestamp, the canonical watermark implementation."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    late_us = np.int64(lateness_sec) * 1_000_000

    def late_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        out_user, out_id, out_ts, out_wm = [], [], [], []
        for user, g in df.groupby("user_id", sort=False):
            g = g.sort_values("event_id", kind="mergesort")
            ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            if len(ts) < 2:
                continue
            prior_max = np.maximum.accumulate(ts)[:-1]  # max over ids < cur
            wm = prior_max - late_us
            late = ts[1:] < wm
            if late.any():
                ids = g["event_id"].to_numpy()[1:][late]
                out_user.extend([user] * int(late.sum()))
                out_id.extend(ids.tolist())
                out_ts.extend(ts[1:][late].tolist())
                out_wm.extend(wm[late].tolist())
        return pa.table(
            {
                "user_id": pa.array(out_user, pa.int64()),
                "event_id": pa.array(out_id, pa.int64()),
                "ts": pa.array(np.array(out_ts, np.int64), pa.timestamp("us")),
                "watermark": pa.array(np.array(out_wm, np.int64), pa.timestamp("us")),
            }
        )

    return bucket_group_apply(ds, ["user_id"], late_bucket, 16)


EVENTS_LATE_SQL = """
WITH w AS (
  SELECT user_id, event_id, ts,
         max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS max_prior
  FROM events
)
SELECT user_id, event_id, ts, max_prior - INTERVAL 600 SECOND AS watermark
FROM w
WHERE max_prior IS NOT NULL AND ts < max_prior - INTERVAL 600 SECOND
"""


def events_watermark(sf_dir: str, lateness_sec: int = 600):
    """Per-user watermark summary: final watermark (max event time minus
    allowed lateness) and the count of LATE arrivals (events whose ts fell
    below the watermark at their arrival position). The synthetic stream is
    perfectly in-order, so n_late is 0 there — the late-detection logic is
    exercised by the planted out-of-order test (tests/test_stages.py),
    which compares against the SAME SQL on the planted table."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    late_us = np.int64(lateness_sec) * 1_000_000

    def wm_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        users, wms, lates = [], [], []
        for user, g in df.groupby("user_id", sort=False):
            g = g.sort_values("event_id", kind="mergesort")
            ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
            n_late = 0
            if len(ts) > 1:
                prior_max = np.maximum.accumulate(ts)[:-1]
                n_late = int((ts[1:] < prior_max - late_us).sum())
            users.append(user)
            wms.append(int(ts.max() - late_us))
            lates.append(n_late)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "watermark": pa.array(np.array(wms, np.int64), pa.timestamp("us")),
                "n_late": pa.array(lates, pa.int64()),
            }
        )

    return bucket_group_apply(ds, ["user_id"], wm_bucket, 16)


EVENTS_WATERMARK_SQL = """
WITH w AS (
  SELECT user_id, event_id, ts,
         max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS max_prior
  FROM events
)
SELECT user_id,
       max(ts) - INTERVAL 600 SECOND AS watermark,
       CAST(sum(CASE WHEN max_prior IS NOT NULL
                     AND ts < max_prior - INTERVAL 600 SECOND
                THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY user_id
"""


EVENTS_SLIDING_SQL = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS hour, count(*) AS n
  FROM events GROUP BY 1, 2
)
SELECT a.event_type, a.hour, CAST(sum(b.n) AS BIGINT) AS n_window
FROM h a
JOIN h b ON b.event_type = a.event_type
        AND b.hour > a.hour - INTERVAL 3 HOUR AND b.hour <= a.hour
GROUP BY 1, 2
"""


def events_asof_click(sf_dir: str):
    """AS-OF JOIN instance (an operator Ray Data lacks — stages/windows.py):
    every event annotated with the user's most recent STRICTLY-EARLIER
    'click' event (LEFT semantics: nulls before the first click). asof_join
    ENFORCES unique right-side (user, ts) pairs, so the click side is
    deduped here first (keep max event_id per (user_id, ts)) — two clicks
    sharing a timestamp would otherwise be an engine-vs-oracle parity break
    (DuckDB ASOF picks an arbitrary tie); the DuckDB oracle is a native
    ASOF LEFT JOIN."""
    from ..stages.shuffle import bucket_group_apply
    from ..stages.windows import asof_join

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    left = ds.select_columns(["user_id", "event_id", "ts"])
    clicks = ds.filter(expr="event_type == 'click'").select_columns(
        ["user_id", "event_id", "ts"]
    )

    def dedup_ties(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        d = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        d = d.drop_duplicates(["user_id", "ts"], keep="last")
        return pa.table(
            {
                "user_id": pa.array(d["user_id"].to_numpy(), pa.int64()),
                "event_id": pa.array(d["event_id"].to_numpy(), pa.int64()),
                "ts": pa.array(d["ts"].astype("datetime64[us]"), pa.timestamp("us")),
            }
        )

    right = bucket_group_apply(clicks, ["user_id"], dedup_ties, 16)
    return asof_join(
        left, right, by="user_id", on="ts",
        right_cols={"event_id": "click_event_id", "ts": "click_ts"},
    )


EVENTS_ASOF_SQL = """
SELECT l.user_id, l.event_id, l.ts, r.event_id AS click_event_id, r.ts AS click_ts
FROM events l
ASOF LEFT JOIN (
  SELECT user_id, event_id, ts FROM events WHERE event_type = 'click'
) r ON l.user_id = r.user_id AND l.ts > r.ts
"""


SIZE_BANDS = ((1, 10, "small"), (11, 25, "medium"), (26, 50, "large"))


def parts_size_bands(sf_dir: str):
    """RANGE JOIN instance (stages/windows.py range_join): parts banded by
    size against a broadcast interval table, then a per-band rollup.
    Interval side ships once via ray.put; every batch resolves its band
    with a vectorized searchsorted — no shuffle for the join itself."""
    from ..stages.windows import range_join

    parts = _read(sf_dir, "part", ["p_size", "p_retailprice"])
    bands = pa.table(
        {
            "lo": pa.array([b[0] for b in SIZE_BANDS], pa.int64()),
            "hi": pa.array([b[1] for b in SIZE_BANDS], pa.int64()),
            "band": pa.array([b[2] for b in SIZE_BANDS], pa.string()),
        }
    )

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {"band": t.column("band"), "cents": _cents(t.column("p_retailprice"))}
        )

    agg = group_aggregate(
        range_join(parts, bands, on="p_size").map_batches(prep, batch_format="pyarrow"),
        "band", {"n_parts": ("count", None), "c": ("sum", "cents")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "band": t.column("band"),
                "n_parts": t.column("n_parts"),
                "total_price": pc.divide(
                    pc.cast(t.column("c"), pa.float64()), 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


PARTS_SIZE_BANDS_SQL = """
WITH bands(lo, hi, band) AS (
  VALUES (1, 10, 'small'), (11, 25, 'medium'), (26, 50, 'large')
)
SELECT band, count(*) AS n_parts,
       sum(CAST(round(p_retailprice * 100) AS BIGINT)) / 100.0 AS total_price
FROM part JOIN bands ON p_size BETWEEN lo AND hi
GROUP BY band
"""


def events_user_stats(sf_dir: str):
    """Per-user event rollup (A6-style metrics): n_events, n_types, last_ts —
    one bucketed grouped apply (all three aggregates in a single shuffle)."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def per_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        g = df.groupby("user_id", sort=False).agg(
            n_events=("event_type", "size"),
            last_ts=("ts", "max"),
            n_types=("event_type", "nunique"),
        ).reset_index()
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].tolist(), pa.int64()),
                "n_events": pa.array(g["n_events"].tolist(), pa.int64()),
                "last_ts": pa.array(g["last_ts"].astype("datetime64[us]"), pa.timestamp("us")),
                "n_types": pa.array(g["n_types"].tolist(), pa.int64()),
            }
        )

    return bucket_group_apply(ds, ["user_id"], per_bucket, n_buckets=16)


EVENTS_USER_SQL = """
SELECT user_id, count(*) AS n_events, max(ts) AS last_ts,
       count(DISTINCT event_type) AS n_types
FROM events GROUP BY user_id
"""


# ------------------------------------------------------------------ keyword search (M2)

SEARCH_KEYWORDS = ("spark", "table", "stream")


def keyword_search_documents(sf_dir: str):
    """The reference's keyword/regex search per page (M2,
    file_analysis_service.py:68-121) over the documents table: per doc the
    total matched-word count and the distinct-keyword count; match rule is
    word-boundary-regex OR substring, case-insensitive — for single-word
    keywords over a word list this is exact-match OR containment."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        # fully vectorized: explode words ONCE (Arrow list offsets), one
        # match_substring kernel per keyword over the flat word array, then
        # per-doc sums via bincount on the parent indices — replaces the
        # round-2 O(rows x keywords x words) interpreted double loop
        # (containment subsumes equality, so `w == kw or kw in w` is just
        # substring match per word)
        text = pc.utf8_lower(pc.fill_null(batch.column("text"), ""))
        words = pc.split_pattern(text, pattern=" ")
        flat = pc.list_flatten(words).combine_chunks()
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        matched = np.zeros(n, np.int64)
        unique = np.zeros(n, np.int64)
        for kw in SEARCH_KEYWORDS:
            hit = pc.match_substring(flat, kw).to_numpy(zero_copy_only=False)
            if hit.any():
                cnt = np.bincount(parent[hit], minlength=n)
                matched += cnt
                unique += cnt > 0
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "matched_keywords_count": pa.array(matched, pa.int64()),
                "unique_matched_keywords_count": pa.array(unique, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def keyword_search_sql() -> str:
    per_kw_counts = " + ".join(
        f"length(list_filter(string_split(lower(text), ' '), x -> x = '{kw}' OR contains(x, '{kw}')))"
        for kw in SEARCH_KEYWORDS
    )
    per_kw_uniq = " + ".join(
        "CASE WHEN length(list_filter(string_split(lower(text), ' '), "
        f"x -> x = '{kw}' OR contains(x, '{kw}'))) > 0 THEN 1 ELSE 0 END"
        for kw in SEARCH_KEYWORDS
    )
    return f"""
    SELECT doc_id,
           CAST({per_kw_counts} AS BIGINT) AS matched_keywords_count,
           CAST({per_kw_uniq} AS BIGINT) AS unique_matched_keywords_count
    FROM documents
    """


# ------------------------------------------------------------------ sessions

SESSION_GAP_MIN = 30


def events_sessionize(sf_dir: str):
    """Session windows over the event log (the streaming-shaped operator the
    reference lacks — ray_guide pattern: partition by key, order by ts inside
    the group, cut sessions at >30min gaps). One bucketed shuffle on user_id;
    per-session rollup (session_idx, n_events, start/end)."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def per_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        gap = pd.Timedelta(minutes=SESSION_GAP_MIN)
        new_user = df["user_id"] != df["user_id"].shift()
        new_session = new_user | ((df["ts"] - df["ts"].shift()) > gap)
        session_idx = new_session.groupby(df["user_id"], sort=False).cumsum() - 1
        g = df.assign(session_idx=session_idx).groupby(
            ["user_id", "session_idx"], sort=False
        ).agg(
            n_events=("event_type", "size"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
        ).reset_index()
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].tolist(), pa.int64()),
                "session_idx": pa.array(g["session_idx"].astype("int64"), pa.int64()),
                "n_events": pa.array(g["n_events"].tolist(), pa.int64()),
                "session_start": pa.array(
                    g["session_start"].astype("datetime64[us]"), pa.timestamp("us")
                ),
                "session_end": pa.array(
                    g["session_end"].astype("datetime64[us]"), pa.timestamp("us")
                ),
            }
        )

    return bucket_group_apply(ds, ["user_id"], per_bucket, n_buckets=16)


EVENTS_SESSIONIZE_SQL = f"""
WITH marked AS (
  SELECT user_id, ts, event_type,
         CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                   > INTERVAL {SESSION_GAP_MIN} MINUTE
              OR lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
              THEN 1 ELSE 0 END AS is_new
  FROM events
), numbered AS (
  SELECT user_id, ts, event_type,
         CAST(sum(is_new) OVER (PARTITION BY user_id ORDER BY ts
                                ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx
  FROM marked
)
SELECT user_id, session_idx,
       count(*) AS n_events,
       min(ts) AS session_start,
       max(ts) AS session_end
FROM numbered GROUP BY user_id, session_idx
"""


def like_scan_parts(sf_dir: str):
    """LIKE-substring scan (reference find_material_by_name_substring,
    global_node_repository.py:55-63) over part names."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_name", "p_type"])

    def f(t: pa.Table) -> pa.Table:
        mask = pc.match_substring(t.column("p_name"), "ol")
        return t.filter(mask).select(["p_partkey", "p_name"])

    return ds.map_batches(f, batch_format="pyarrow")


LIKE_SCAN_SQL = "SELECT p_partkey, p_name FROM part WHERE p_name LIKE '%ol%'"


def regex_extract_documents(sf_dir: str):
    """Vectorized regex extraction over document text (the M4 extraction
    pattern applied to the secondary corpus): all 'sp...'-prefixed tokens per
    doc, comma-joined in match order."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        import re

        pat = re.compile(r"sp[a-z]+")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "matches": batch["text"].fillna("").map(
                    lambda t: ",".join(pat.findall(t))
                ),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


REGEX_EXTRACT_SQL = """
SELECT doc_id,
       COALESCE(array_to_string(regexp_extract_all(text, 'sp[a-z]+'), ','), '') AS matches
FROM documents
"""


def concat_by_lang(sf_dir: str):
    """Ordered grouped concatenation (the reference's per-file page-text
    concat M3, file_analysis_service.py:556-564, generalized): doc ids per
    language in ascending order, space-joined."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def per_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        g = (
            df.sort_values("doc_id")
            .groupby("lang", sort=False)["doc_id"]
            .agg(lambda s: " ".join(str(v) for v in s))
            .reset_index(name="doc_ids")
        )
        n_docs = df.groupby("lang", sort=False)["doc_id"].size().reset_index(name="n_docs")
        merged = g.merge(n_docs, on="lang")
        return pa.table(
            {
                "lang": pa.array(merged["lang"], pa.string()),
                "doc_ids": pa.array(merged["doc_ids"], pa.string()),
                "n_docs": pa.array(merged["n_docs"], pa.int64()),
            }
        )

    return bucket_group_apply(ds, ["lang"], per_bucket, n_buckets=8)


CONCAT_BY_LANG_SQL = """
SELECT lang,
       string_agg(CAST(doc_id AS VARCHAR), ' ' ORDER BY doc_id) AS doc_ids,
       count(*) AS n_docs
FROM documents GROUP BY lang
"""


# ------------------------------------------------------------------ registry

# ------------------------------------------------------------ chained 3-way join

def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped chained join: BUILDING-segment customers ⋈ orders
    before the cutoff ⋈ lineitems shipped after it, top-10 orders by
    cents-exact revenue. Shape: the customer side collapses to DISTINCT
    keys and semi-joins orders (one existence shuffle); lineitem revenue
    is PRE-AGGREGATED per (batch, orderkey) before the order join, so the
    fact-fact exchange carries partial sums, not raw items; the final
    groupby runs over order-grain rows."""
    from ..stages.shuffle import bucket_hash_join, lookup_join

    cutoff = pa.scalar(pd.Timestamp("1997-06-01"), pa.timestamp("us"))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def building_keys(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t.column("c_mktsegment"), "BUILDING"))
        return pa.table({"c_custkey": pc.unique(kept.column("c_custkey"))})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"])

    def early(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t.column("o_orderdate"), cutoff))

    open_orders = bucket_hash_join(
        orders.map_batches(early, batch_format="pyarrow"),
        cust.map_batches(building_keys, batch_format="pyarrow"),
        key="o_custkey", right_key="c_custkey", how="semi", n_buckets=8,
    )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def late_revenue(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), cutoff))
        ep = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        rev = pc.multiply(ep, pc.subtract(pa.scalar(100, pa.int64()), disc))
        # per-batch partial aggregation: the join and groupby downstream see
        # one row per (batch, orderkey), never raw lineitems
        part = pa.table({"l_orderkey": t.column("l_orderkey"), "rev_units": rev})
        return (
            part.group_by("l_orderkey").aggregate([("rev_units", "sum")])
            .rename_columns(["l_orderkey", "rev_units"])
        )

    # batch_size >> orderkey cardinality per batch, else the per-batch
    # combine emits one partial per raw lineitem (the q17 lesson)
    joined = lookup_join(
        li.map_batches(late_revenue, batch_format="pyarrow", batch_size=131072),
        open_orders.select_columns(["o_orderkey", "o_orderdate", "o_orderpriority"]),
        key="l_orderkey", right_key="o_orderkey", how="inner",
    )
    top = (
        group_aggregate(joined, ["l_orderkey", "o_orderdate", "o_orderpriority"],
                        {"rev_units": ("sum", "rev_units")})
        .sort(["rev_units", "l_orderkey"], descending=[True, False])
        .limit(10)
    )

    def finalize(t: pa.Table) -> pa.Table:
        rev = pc.divide(pc.cast(t.column("rev_units"), pa.float64()), 10000.0)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "revenue": rev,
                "o_orderdate": t.column("o_orderdate"),
                "o_orderpriority": t.column("o_orderpriority"),
            }
        )

    return top.map_batches(finalize, batch_format="pyarrow")


Q3_SQL = """
SELECT l.l_orderkey,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
           * (100 - CAST(round(l.l_discount*100) AS BIGINT))) / 10000.0 AS revenue,
       o.o_orderdate, o.o_orderpriority
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1997-06-01'
  AND l.l_shipdate > TIMESTAMP '1997-06-01'
GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY sum(CAST(round(l.l_extendedprice*100) AS BIGINT)
             * (100 - CAST(round(l.l_discount*100) AS BIGINT))) DESC,
         l.l_orderkey ASC
LIMIT 10
"""


def part_qty_partials(li, combine_batch_size=None, n_coalesce: int = 8):
    """Two-level map-side combine of lineitem (pk, qty) sufficient
    statistics, robust to part-key cardinality (VERDICT r3 #2).

    LEVEL 1 combines per batch; ``combine_batch_size=None`` makes the batch
    the WHOLE BLOCK, so the combine scope tracks the block size instead of
    a fixed row constant that a larger key space silently outgrows (the
    round-3 version pinned 131072, which stops shrinking anything once
    distinct parts per batch ≈ batch rows — the exchange then carries ~the
    whole fact table). LEVEL 2 coalesces the partial blocks
    (``repartition(n_coalesce)`` without shuffle = adjacent-block concat,
    NOT an all-to-all) and re-combines, bounding the rows that enter the
    keyed exchange at ≤ n_coalesce × distinct_keys whatever the
    cardinality; when level 1 already reduced well, the partials are tiny
    and the coalesce pass costs ~nothing. Pinned by
    tests/test_q17_combine.py on a planted key space ≫ batch size."""

    def partial_stats(t: pa.Table) -> pa.Table:
        qty = pc.cast(pc.round(t.column("l_quantity")), pa.int64())
        tt = pa.table({"pk": t.column("l_partkey"), "q": qty})
        agg = tt.group_by("pk").aggregate([("q", "sum"), ("q", "count")])
        return pa.table(
            {
                "pk": agg.column("pk"),
                "sq": agg.column("q_sum"),
                "cnt": pc.cast(agg.column("q_count"), pa.int64()),
            }
        )

    def merge_partials(t: pa.Table) -> pa.Table:
        agg = t.group_by("pk").aggregate([("sq", "sum"), ("cnt", "sum")])
        return pa.table(
            {
                "pk": agg.column("pk"),
                "sq": agg.column("sq_sum"),
                "cnt": agg.column("cnt_sum"),
            }
        )

    pre = li.map_batches(
        partial_stats, batch_format="pyarrow", batch_size=combine_batch_size
    )
    return pre.repartition(n_coalesce).map_batches(
        merge_partials, batch_format="pyarrow", batch_size=None
    )


def q17_small_quantity_revenue(sf_dir: str):
    """Decorrelated correlated aggregate (TPC-H Q17 shape): lineitems whose
    quantity is below 20% of their part's average quantity, rolled up to
    revenue per brand. The per-row correlated subquery (`l_quantity <
    0.2 * avg(qty) of the same part`) decorrelates into ONE aggregate pass
    over the fact table — a two-level map-side combine (part_qty_partials)
    feeding one part-keyed merge — joined back to the same fact; never a
    per-row re-scan. The predicate is evaluated in integer arithmetic
    (5*qty*cnt < sum_qty ⟺ qty < 0.2*avg) so boundary membership is
    bit-exact in both engines."""
    from ..stages.shuffle import bucket_group_apply, lookup_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    # the task-based bucket shuffle merges partials ~4x cheaper than Ray's
    # sort-based groupby at this shape
    pre = part_qty_partials(li)

    def merge_stats(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        g = (
            df.groupby("pk", sort=False)
            .agg(sq=("sq", "sum"), cnt=("cnt", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "pk": pa.array(g["pk"].to_numpy(), pa.int64()),
                "sq": pa.array(g["sq"].to_numpy(), pa.int64()),
                "cnt": pa.array(g["cnt"].to_numpy(), pa.int64()),
            }
        )

    stats = bucket_group_apply(pre, ["pk"], merge_stats, n_buckets=8)

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "q": pc.cast(pc.round(t.column("l_quantity")), pa.int64()),
                "price_cents": _cents(t.column("l_extendedprice")),
            }
        )

    j = lookup_join(
        li.map_batches(prep, batch_format="pyarrow"), stats,
        key="l_partkey", right_key="pk",
    )

    def small_only(t: pa.Table) -> pa.Table:
        lhs = pc.multiply(
            pc.multiply(t.column("q"), pa.scalar(5, pa.int64())), t.column("cnt")
        )
        return t.filter(pc.less(lhs, t.column("sq"))).select(
            ["l_partkey", "price_cents"]
        )

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    jb = lookup_join(
        j.map_batches(small_only, batch_format="pyarrow"), part,
        key="l_partkey", right_key="p_partkey",
    )

    # group_aggregate combines each batch to brand grain (~25 rows), so the
    # exchange carries partials, never the joined fact
    agg = group_aggregate(
        jb, "p_brand", {"price_cents": ("sum", "price_cents"), "n_small": ("count", None)}
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": t.column("p_brand"),
                "n_small": pc.cast(t.column("n_small"), pa.int64()),
                "revenue": pc.divide(
                    pc.cast(t.column("price_cents"), pa.float64()), 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


Q17_SMALL_QUANTITY_SQL = """
WITH pq AS (
  SELECT l_partkey AS pk,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sq,
         CAST(count(*) AS BIGINT) AS cnt
  FROM lineitem GROUP BY l_partkey
)
SELECT p.p_brand,
       CAST(count(*) AS BIGINT) AS n_small,
       sum(CAST(round(l.l_extendedprice*100) AS BIGINT)) / 100.0 AS revenue
FROM lineitem l
JOIN pq ON l.l_partkey = pq.pk
JOIN part p ON p.p_partkey = l.l_partkey
WHERE 5 * CAST(round(l.l_quantity) AS BIGINT) * pq.cnt < pq.sq
GROUP BY p.p_brand
"""


def suppliers_per_region(sf_dir: str):
    """Two chained dimension joins (supplier ⋈ nation ⋈ region — both
    right sides are dimension-sized, so both ride lookup_join's broadcast
    path with zero shuffles) + a cents-exact per-region rollup. Also the
    coverage query for the two smallest catalog tables."""
    from ..stages.shuffle import lookup_join

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"])
    nat = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_nationkey": t.column("s_nationkey"),
                "bal_cents": _cents(t.column("s_acctbal")),
            }
        )

    j1 = lookup_join(
        sup.map_batches(prep, batch_format="pyarrow"), nat,
        key="s_nationkey", right_key="n_nationkey",
    )
    j2 = lookup_join(j1, reg, key="n_regionkey", right_key="r_regionkey")
    agg = group_aggregate(
        j2, "r_name", {"n_suppliers": ("count", None), "bal_cents": ("sum", "bal_cents")}
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "r_name": t.column("r_name"),
                "n_suppliers": pc.cast(t.column("n_suppliers"), pa.int64()),
                "total_acctbal": pc.divide(
                    pc.cast(t.column("bal_cents"), pa.float64()), 100.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


SUPPLIERS_PER_REGION_SQL = """
SELECT r.r_name, CAST(count(*) AS BIGINT) AS n_suppliers,
       sum(CAST(round(s.s_acctbal*100) AS BIGINT)) / 100.0 AS total_acctbal
FROM supplier s
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


# ------------------------------------------------------------ window functions

def events_lag_lead(sf_dir: str):
    """SQL window functions over the event stream: per user (ordered by
    ts, event_id) row_number, previous/next event timestamp, and the exact
    microsecond gap to the previous event. One bucket shuffle on user_id,
    vectorized kernels per bucket (stages/windowfns.py)."""
    from ..stages.windowfns import partitioned_window

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("user_id", pa.int64()),
            ("ts", pa.timestamp("us")),
            ("rn", pa.int64()),
            ("prev_ts", pa.timestamp("us")),
            ("next_ts", pa.timestamp("us")),
        ]
    )
    win = partitioned_window(
        ds,
        by=["user_id"],
        order_by=["ts", "event_id"],
        specs=[
            ("row_number", None, "rn"),
            ("lag", "ts", "prev_ts"),
            ("lead", "ts", "next_ts"),
        ],
        out_schema=schema,
        keep_cols=["event_id", "user_id", "ts"],
        n_buckets=16,
    )

    def gap(t: pa.Table) -> pa.Table:
        gap_us = pc.cast(pc.subtract(t.column("ts"), t.column("prev_ts")), pa.int64())
        return t.append_column("gap_us", gap_us)

    return win.map_batches(gap, batch_format="pyarrow")


EVENTS_LAG_LEAD_SQL = """
SELECT event_id, user_id, ts,
       CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS rn,
       lag(ts)  OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts,
       lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_ts,
       date_diff('microsecond',
                 lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                 ts) AS gap_us
FROM events
"""


def orders_running_total(sf_dir: str):
    """Running (cumulative) spend per customer ordered by order date —
    SUM OVER (... ROWS UNBOUNDED PRECEDING). Cents-integer discipline for
    hash parity; the cumsum is a pandas grouped C kernel per bucket."""
    from ..stages.windowfns import partitioned_window

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_orderdate": t.column("o_orderdate"),
                "price_cents": _cents(t.column("o_totalprice")),
            }
        )

    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("rn", pa.int64()),
            ("run_cents", pa.int64()),
        ]
    )
    win = partitioned_window(
        ds.map_batches(prep, batch_format="pyarrow"),
        by=["o_custkey"],
        order_by=["o_orderdate", "o_orderkey"],
        specs=[("row_number", None, "rn"), ("running_sum", "price_cents", "run_cents")],
        out_schema=schema,
        keep_cols=["o_orderkey", "o_custkey", "o_orderdate"],
        n_buckets=16,
    )

    def finalize(t: pa.Table) -> pa.Table:
        spend = pc.divide(pc.cast(t.column("run_cents"), pa.float64()), 100.0)
        idx = t.schema.get_field_index("run_cents")
        return t.remove_column(idx).append_column("running_spend", spend)

    return win.map_batches(finalize, batch_format="pyarrow")


ORDERS_RUNNING_TOTAL_SQL = """
SELECT o_orderkey, o_custkey, o_orderdate,
       CAST(row_number() OVER w AS BIGINT) AS rn,
       CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) OVER w AS BIGINT) / 100.0
         AS running_spend
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
             ROWS UNBOUNDED PRECEDING)
"""


def orders_price_rank(sf_dir: str):
    """RANK / DENSE_RANK per customer by descending order price — the tie
    semantics that row_number cannot express (equal prices share a rank)."""
    from ..stages.windowfns import partitioned_window

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("o_totalprice", pa.float64()),
            ("price_rank", pa.int64()),
            ("price_dense_rank", pa.int64()),
        ]
    )
    return partitioned_window(
        ds,
        by=["o_custkey"],
        order_by=["o_totalprice"],
        descending=[True],
        specs=[("rank", None, "price_rank"), ("dense_rank", None, "price_dense_rank")],
        out_schema=schema,
        keep_cols=["o_orderkey", "o_custkey", "o_totalprice"],
        n_buckets=16,
    )


ORDERS_PRICE_RANK_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice,
       CAST(rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC) AS BIGINT)
         AS price_rank,
       CAST(dense_rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC) AS BIGINT)
         AS price_dense_rank
FROM orders
"""


def orders_quartiles(sf_dir: str):
    """NTILE(4) + first_value/last_value per customer in order-date order —
    the remaining SQL window shapes (bucketing a partition into equal-size
    tiles; anchoring each row to its partition's first/last value)."""
    from ..stages.windowfns import partitioned_window

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("quartile", pa.int64()),
            ("first_price", pa.float64()),
            ("last_price", pa.float64()),
        ]
    )
    return partitioned_window(
        ds,
        by=["o_custkey"],
        order_by=["o_orderdate", "o_orderkey"],
        specs=[
            ("ntile", 4, "quartile"),
            ("first_value", "o_totalprice", "first_price"),
            ("last_value", "o_totalprice", "last_price"),
        ],
        out_schema=schema,
        keep_cols=["o_orderkey", "o_custkey"],
        n_buckets=16,
    )


ORDERS_QUARTILES_SQL = """
SELECT o_orderkey, o_custkey,
       CAST(ntile(4) OVER w AS BIGINT) AS quartile,
       first_value(o_totalprice) OVER w AS first_price,
       last_value(o_totalprice) OVER (
         PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_price
FROM orders
WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
"""


def orders_price_dist(sf_dir: str):
    """PERCENT_RANK / CUME_DIST per customer by descending price — the
    normalized-rank windows (both are single-division float64 of integer
    rank/count terms, so they hash-match SQL exactly)."""
    from ..stages.windowfns import partitioned_window

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_custkey", pa.int64()),
            ("pct_rank", pa.float64()),
            ("cume", pa.float64()),
        ]
    )
    return partitioned_window(
        ds,
        by=["o_custkey"],
        order_by=["o_totalprice"],
        descending=[True],
        specs=[("percent_rank", None, "pct_rank"), ("cume_dist", None, "cume")],
        out_schema=schema,
        keep_cols=["o_orderkey", "o_custkey"],
        n_buckets=16,
    )


ORDERS_PRICE_DIST_SQL = """
SELECT o_orderkey, o_custkey,
       percent_rank() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC)
         AS pct_rank,
       cume_dist() OVER (PARTITION BY o_custkey ORDER BY o_totalprice DESC)
         AS cume
FROM orders
"""


# ------------------------------------------------------------ full outer join

def cust_orders_outer(sf_dir: str):
    """FULL OUTER join: high-balance customers vs per-customer open-order
    counts — rows survive from BOTH unmatched sides (customers with no
    open orders, open-order customers below the balance floor), key
    coalesced. Same one-shuffle bucket join as inner/left/semi/anti."""
    from ..stages.shuffle import bucket_hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def rich(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("c_acctbal"), 9000.0))

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def open_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("o_orderstatus"), "O")).select(["o_custkey"])

    n_open = group_aggregate(
        orders.map_batches(open_only, batch_format="pyarrow"), "o_custkey",
        {"n_open": ("count", None)},
    )
    return bucket_hash_join(
        cust.map_batches(rich, batch_format="pyarrow"),
        n_open,
        key="c_custkey",
        right_key="o_custkey",
        how="outer",
        n_buckets=8,
    )


CUST_ORDERS_OUTER_SQL = """
SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey, c.c_acctbal, o.n_open
FROM (SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > 9000) c
FULL OUTER JOIN (
  SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_open
  FROM orders WHERE o_orderstatus = 'O' GROUP BY o_custkey) o
ON c.c_custkey = o.o_custkey
"""


# ------------------------------------------------------------ rollup lattice

# a coarser grouping set from the fine (type, day) aggregate
_SUMS = {"n_events": ("sum", "n_events"), "cents": ("sum", "cents")}


def events_rollup(sf_dir: str):
    """GROUP BY ROLLUP(event_type, day): fine counts + per-type subtotals +
    grand total, with each COARSER level derived from the already-tiny
    finer aggregate (types x days rows) — the corpus is scanned exactly
    once; the rolled-up dimensions are NULL exactly as SQL emits them."""
    import ray.data as rd

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "day": pc.floor_temporal(t.column("ts"), unit="day"),
                "cents": _cents(t.column("value")),
            }
        )

    # the ONE corpus-wide aggregate; materialized because three consumers
    # derive from it and it is dimension-sized (types x days)
    fine = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"), ["event_type", "day"],
        {"n_events": ("count", None), "cents": ("sum", "cents")},
    ).materialize()
    sub = group_aggregate(fine, "event_type", _SUMS).materialize()

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.timestamp("us")),
            ("n_events", pa.int64()),
            ("value_sum", pa.float64()),
        ]
    )

    def shape(t: pa.Table, null_day: bool = False, null_type: bool = False) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "event_type": pa.nulls(n, pa.string()) if null_type else t.column("event_type"),
                "day": pa.nulls(n, pa.timestamp("us")) if null_day else t.column("day"),
                "n_events": pc.cast(t.column("n_events"), pa.int64()),
                "value_sum": pc.divide(pc.cast(t.column("cents"), pa.float64()), 100.0),
            },
            schema=out_schema,
        )

    level0 = fine.map_batches(shape, batch_format="pyarrow")
    level1 = sub.map_batches(
        lambda t: shape(t, null_day=True), batch_format="pyarrow"
    )
    # grand total: a scalar fold of the tiny per-type table
    tot = sub.sum(["n_events", "cents"])
    total_tbl = pa.table(
        {
            "event_type": pa.nulls(1, pa.string()),
            "day": pa.nulls(1, pa.timestamp("us")),
            "n_events": pa.array([int(tot["sum(n_events)"])], pa.int64()),
            "value_sum": pa.array([tot["sum(cents)"] / 100.0], pa.float64()),
        },
        schema=out_schema,
    )
    return level0.union(level1).union(rd.from_arrow(total_tbl))


EVENTS_ROLLUP_SQL = """
SELECT event_type, CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
       CAST(count(*) AS BIGINT) AS n_events,
       sum(CAST(round(value*100) AS BIGINT)) / 100.0 AS value_sum
FROM events GROUP BY ROLLUP(event_type, day)
"""


def events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, day): the full grouping-set lattice —
    ROLLUP's levels plus the per-day subtotal. Same one-scan plan as
    events_rollup: the fine (type, day) aggregate is computed ONCE and
    every coarser grouping set is derived from that dimension-sized
    result, so adding grouping sets costs no extra corpus passes."""
    import ray.data as rd

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "day": pc.floor_temporal(t.column("ts"), unit="day"),
                "cents": _cents(t.column("value")),
            }
        )

    fine = group_aggregate(
        ds.map_batches(prep, batch_format="pyarrow"), ["event_type", "day"],
        {"n_events": ("count", None), "cents": ("sum", "cents")},
    ).materialize()
    by_type = group_aggregate(fine, "event_type", _SUMS).materialize()
    by_day = group_aggregate(fine, "day", _SUMS)

    out_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("day", pa.timestamp("us")),
            ("n_events", pa.int64()),
            ("value_sum", pa.float64()),
        ]
    )

    def shape(t: pa.Table, null_day: bool = False, null_type: bool = False) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "event_type": pa.nulls(n, pa.string()) if null_type else t.column("event_type"),
                "day": pa.nulls(n, pa.timestamp("us")) if null_day else t.column("day"),
                "n_events": pc.cast(t.column("n_events"), pa.int64()),
                "value_sum": pc.divide(pc.cast(t.column("cents"), pa.float64()), 100.0),
            },
            schema=out_schema,
        )

    level0 = fine.map_batches(shape, batch_format="pyarrow")
    level_type = by_type.map_batches(
        lambda t: shape(t, null_day=True), batch_format="pyarrow"
    )
    level_day = by_day.map_batches(
        lambda t: shape(t, null_type=True), batch_format="pyarrow"
    )
    tot = by_type.sum(["n_events", "cents"])
    total_tbl = pa.table(
        {
            "event_type": pa.nulls(1, pa.string()),
            "day": pa.nulls(1, pa.timestamp("us")),
            "n_events": pa.array([int(tot["sum(n_events)"])], pa.int64()),
            "value_sum": pa.array([tot["sum(cents)"] / 100.0], pa.float64()),
        },
        schema=out_schema,
    )
    return level0.union(level_type).union(level_day).union(rd.from_arrow(total_tbl))


EVENTS_CUBE_SQL = """
SELECT event_type, CAST(date_trunc('day', ts) AS TIMESTAMP) AS day,
       CAST(count(*) AS BIGINT) AS n_events,
       sum(CAST(round(value*100) AS BIGINT)) / 100.0 AS value_sum
FROM events GROUP BY CUBE(event_type, day)
"""


def lineitem_qty_moments(sf_dir: str):
    """Grouped variance/stddev via SUFFICIENT STATISTICS (the mergeable
    moments pattern): per l_returnflag, var_pop and stddev_pop of
    l_quantity from (n, Σq, Σq²) partials — map-side per-batch moment
    combine, one tiny group aggregate, one finalize division. Never a
    second pass for the mean. Quantities are small integers, so all three
    statistics stay exact in int64 and the final float expression
    (n·Σq² − (Σq)²) / n² is written identically in the SQL — bit-exact
    parity without relying on either engine's streaming-variance kernel."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def moments(t: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(t.column("l_quantity")), pa.int64())
        return pa.table(
            {"l_returnflag": t.column("l_returnflag"), "q": q, "q2": pc.multiply(q, q)}
        )

    sums = group_aggregate(
        ds.map_batches(moments, batch_format="pyarrow"), "l_returnflag",
        {"n": ("count", None), "sq": ("sum", "q"), "sq2": ("sum", "q2")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.float64)
        sq = t.column("sq").to_numpy().astype(np.float64)
        sq2 = t.column("sq2").to_numpy().astype(np.float64)
        var = (n * sq2 - sq * sq) / (n * n)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "n": pc.cast(t.column("n"), pa.int64()),
                "var_qty": pa.array(var, pa.float64()),
                "std_qty": pa.array(np.sqrt(var), pa.float64()),
            }
        )

    return sums.map_batches(finalize, batch_format="pyarrow")


LINEITEM_QTY_MOMENTS_SQL = """
WITH s AS (
  SELECT l_returnflag,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sq,
         CAST(sum(CAST(round(l_quantity) AS BIGINT) * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sq2
  FROM lineitem GROUP BY l_returnflag
)
SELECT l_returnflag, n,
       (CAST(n AS DOUBLE) * CAST(sq2 AS DOUBLE) - CAST(sq AS DOUBLE) * CAST(sq AS DOUBLE))
         / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) AS var_qty,
       sqrt((CAST(n AS DOUBLE) * CAST(sq2 AS DOUBLE) - CAST(sq AS DOUBLE) * CAST(sq AS DOUBLE))
         / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))) AS std_qty
FROM s
"""


def part_unpivot(sf_dir: str):
    """UNPIVOT / melt: the wide part attributes (size, retailprice) turned
    into tall (p_partkey, attr, val) rows — a pure map-only flat reshape
    (each batch emits 2N rows, no shuffle anywhere), the inverse of
    events_pivot_types."""
    ds = _read(sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"])

    def melt(t: pa.Table) -> pa.Table:
        n = t.num_rows
        keys = t.column("p_partkey")
        return pa.table(
            {
                "p_partkey": pa.concat_arrays(
                    [keys.combine_chunks(), keys.combine_chunks()]
                ),
                "attr": pa.array(["size"] * n + ["retailprice"] * n, pa.string()),
                "val": pa.concat_arrays(
                    [
                        pc.cast(t.column("p_size"), pa.float64()).combine_chunks(),
                        pc.cast(t.column("p_retailprice"), pa.float64()).combine_chunks(),
                    ]
                ),
            }
        )

    return ds.map_batches(melt, batch_format="pyarrow")


PART_UNPIVOT_SQL = """
SELECT p_partkey, attr, val
FROM (
  SELECT p_partkey, CAST(p_size AS DOUBLE) AS size,
         CAST(p_retailprice AS DOUBLE) AS retailprice
  FROM part
) UNPIVOT (val FOR attr IN (size, retailprice))
"""


# ------------------------------------------------------------ sampling

def sample_documents_hash(sf_dir: str):
    """Deterministic ~10.2% Bernoulli sample of documents keyed on
    md5(doc_id) — a pure map-side filter, identical row set on every
    run/engine (stages/samples.py)."""
    from ..stages.samples import bernoulli_sample_hash

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return bernoulli_sample_hash(ds, "doc_id", hex_prefix_lt="1a")


SAMPLE_DOCS_SQL = """
SELECT doc_id, lang, n_chars FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 2) < '1a'
"""


def stratified_sample_docs(sf_dir: str):
    """Deterministic 20-per-language document sample (smallest md5(doc_id)
    per group) — per-batch bottom-k combiner, one group shuffle."""
    from ..stages.samples import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(ds, "lang", "doc_id", k=20,
                             keep_cols=["doc_id", "lang"], n_buckets=4)


STRATIFIED_SAMPLE_SQL = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
  FROM documents) WHERE rn <= 20
"""


# ------------------------------------------------------------ set operations

def _distinct_status_keys(sf_dir: str, status: str):
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])

    def keys(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t.column("o_orderstatus"), status))
        return pa.table({"o_custkey": pc.unique(kept.column("o_custkey"))})

    return orders.map_batches(keys, batch_format="pyarrow")


def cust_finished_except_open(sf_dir: str):
    """SQL EXCEPT as an ANTI bucket join with in-join left distinctness:
    customers with a finished order but NO open order. ONE shuffle total —
    both sides ship per-batch-distinct keys, and the join's own bucket
    task finishes the left dedup (left_distinct), so no separate
    groupby exchange is paid."""
    from ..stages.shuffle import bucket_hash_join

    return bucket_hash_join(
        _distinct_status_keys(sf_dir, "F"), _distinct_status_keys(sf_dir, "O"),
        key="o_custkey", how="anti", n_buckets=8, left_distinct=True,
    )


CUST_EXCEPT_SQL = """
SELECT o_custkey FROM orders WHERE o_orderstatus = 'F'
EXCEPT
SELECT o_custkey FROM orders WHERE o_orderstatus = 'O'
"""


def cust_finished_intersect_open(sf_dir: str):
    """SQL INTERSECT as a SEMI bucket join with in-join left distinctness
    (one shuffle, same shape as the EXCEPT above)."""
    from ..stages.shuffle import bucket_hash_join

    return bucket_hash_join(
        _distinct_status_keys(sf_dir, "F"), _distinct_status_keys(sf_dir, "O"),
        key="o_custkey", how="semi", n_buckets=8, left_distinct=True,
    )


CUST_INTERSECT_SQL = """
SELECT o_custkey FROM orders WHERE o_orderstatus = 'F'
INTERSECT
SELECT o_custkey FROM orders WHERE o_orderstatus = 'O'
"""


# ------------------------------------------------------------ pivot / filtered aggregate

PIVOT_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def orders_left_bigitem_counts(sf_dir: str):
    """LEFT join coverage: every order with its count of expensive
    lineitems, zero (not absent) when it has none. The right side is
    pre-aggregated to order grain before the join — the exchange carries
    one count row per order, never raw lineitems — and unmatched lefts
    surface as nulls coalesced to 0."""
    from ..stages.shuffle import bucket_hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice"])

    def big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("l_extendedprice"), 50000.0))

    counts = group_aggregate(
        li.map_batches(big, batch_format="pyarrow"), "l_orderkey", {"n_big": ("count", None)}
    )

    orders = _read(sf_dir, "orders", ["o_orderkey"])
    j = bucket_hash_join(
        orders, counts, key="o_orderkey", right_key="l_orderkey",
        how="left", n_buckets=16,
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "n_big": pc.coalesce(
                    pc.cast(t.column("n_big"), pa.int64()),
                    pa.scalar(0, pa.int64()),
                ),
            }
        )

    return j.map_batches(finalize, batch_format="pyarrow")


ORDERS_LEFT_BIGITEM_SQL = """
SELECT o.o_orderkey, COALESCE(c.n_big, 0) AS n_big
FROM orders o LEFT JOIN (
  SELECT l_orderkey, CAST(count(*) AS BIGINT) AS n_big
  FROM lineitem WHERE l_extendedprice > 50000 GROUP BY l_orderkey
) c ON o.o_orderkey = c.l_orderkey
"""


def events_user_mode(sf_dir: str):
    """Grouped MODE (argmax-of-count): each user's most frequent event
    type, ties broken by ascending type name — A9's first-result-wins
    generalized from "first row" to "highest count". Shape: map-side
    (user, type) partial counts shrink each batch to its distinct pairs,
    then ONE user-keyed bucket shuffle sums partials and picks the
    per-user argmax vectorized — the exchange carries (users × types)
    rows, never raw events."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": agg.column("user_id"),
                "event_type": agg.column("event_type"),
                "n": pc.cast(agg.column("count_all"), pa.int64()),
            }
        )

    pre = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        merged = (
            df.groupby(["user_id", "event_type"], sort=False)["n"].sum().reset_index()
        )
        # argmax per user with (count DESC, type ASC) tie-break: sort once,
        # keep the first row per user
        merged = merged.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = merged.drop_duplicates("user_id", keep="first")
        return pa.table(
            {
                "user_id": pa.array(top["user_id"].to_numpy(), pa.int64()),
                "top_type": pa.array(top["event_type"].tolist(), pa.string()),
                "n": pa.array(top["n"].to_numpy(), pa.int64()),
            }
        )

    return bucket_group_apply(pre, ["user_id"], bucket_fn, n_buckets=16)


EVENTS_USER_MODE_SQL = """
SELECT user_id, event_type AS top_type, n FROM (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n,
         row_number() OVER (
           PARTITION BY user_id ORDER BY count(*) DESC, event_type ASC
         ) AS rn
  FROM events GROUP BY user_id, event_type
) WHERE rn = 1
"""


def events_user_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution — the
    info-theoretic behavioral feature a training pipeline derives per
    entity. Same scale shape as events_user_mode: map-side (user, type)
    partial counts, ONE user-keyed bucket shuffle, fully vectorized
    -Σ p·ln(p) inside the bucket. Floor-truncated to 6 dp (half-even vs
    half-away rounding never agrees; floor does — memory: tf-idf/BM25 ln
    parity under the same truncation)."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": agg.column("user_id"),
                "event_type": agg.column("event_type"),
                "n": pc.cast(agg.column("count_all"), pa.int64()),
            }
        )

    pre = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        merged = (
            df.groupby(["user_id", "event_type"], sort=False)["n"].sum().reset_index()
        )
        tot = merged.groupby("user_id", sort=False)["n"].transform("sum").to_numpy()
        p = merged["n"].to_numpy() / tot
        merged["plogp"] = p * np.log(p)
        ent = merged.groupby("user_id", sort=False)["plogp"].sum()
        vals = np.floor(-ent.to_numpy() * 1e6) / 1e6
        # -0.0 from single-type users must print as 0.0 in both engines
        vals = vals + 0.0
        return pa.table(
            {
                "user_id": pa.array(ent.index.to_numpy(), pa.int64()),
                "entropy": pa.array(vals, pa.float64()),
            }
        )

    return bucket_group_apply(pre, ["user_id"], bucket_fn, n_buckets=16)


EVENTS_USER_ENTROPY_SQL = """
WITH c AS (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY user_id, event_type
), t AS (
  SELECT user_id, CAST(sum(n) AS BIGINT) AS tot FROM c GROUP BY user_id
)
SELECT c.user_id,
       floor(-sum((CAST(c.n AS DOUBLE) / t.tot) * ln(CAST(c.n AS DOUBLE) / t.tot)) * 1e6) / 1e6
         AS entropy
FROM c JOIN t ON c.user_id = t.user_id
GROUP BY c.user_id
"""


def events_pivot_types(sf_dir: str):
    """PIVOT / conditional aggregation: one row per user with a count
    column per event type + total — the wide per-entity feature shape a
    training pipeline feeds downstream. Indicator columns are built
    vectorized per batch; group_aggregate pre-combines per block, so the
    shuffle carries one partial row per (user, block), never raw events."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def indicators(t: pa.Table) -> pa.Table:
        cols = {"user_id": t.column("user_id")}
        for ty in PIVOT_EVENT_TYPES:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t.column("event_type"), ty), pa.int64())
        return pa.table(cols)

    aggs = {f"n_{ty}": ("sum", f"n_{ty}") for ty in PIVOT_EVENT_TYPES}
    aggs["n_total"] = ("count", None)
    return group_aggregate(ds.map_batches(indicators, batch_format="pyarrow"), "user_id", aggs)


EVENTS_PIVOT_SQL = """
SELECT user_id,
       CAST(count(*) FILTER (WHERE event_type = 'click')    AS BIGINT) AS n_click,
       CAST(count(*) FILTER (WHERE event_type = 'error')    AS BIGINT) AS n_error,
       CAST(count(*) FILTER (WHERE event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(count(*) FILTER (WHERE event_type = 'signup')   AS BIGINT) AS n_signup,
       CAST(count(*) FILTER (WHERE event_type = 'view')     AS BIGINT) AS n_view,
       CAST(count(*) AS BIGINT) AS n_total
FROM events GROUP BY user_id
"""


# ------------------------------------------------------------ sketch aggregate

def approx_distinct_users(sf_dir: str):
    """Distinct users per event type via the mergeable bottom-k (KMV)
    sketch (stages/sketches.py). EXACT below k distinct per group — hence
    the COUNT(DISTINCT) oracle — and a bounded-error estimate
    (exact=false) beyond, where the exact aggregate's shuffle would ship
    every distinct value of a hot group. k=65536 here so every driver
    tier (sf0.001-sf1, <= ~15k users) sits deep in the exact regime with
    the estimate path pinned by unit tests; sketch state is still only
    64k hashes per group."""
    from ..stages.sketches import approx_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return approx_distinct_by(ds, "event_type", "user_id", k=65536,
                              out_col="n_users", n_buckets=4)


APPROX_DISTINCT_USERS_SQL = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       TRUE AS "exact"
FROM events GROUP BY event_type
"""


def hll_distinct_users(sf_dir: str):
    """Distinct users per event type via HyperLogLog (stages/sketches.py
    hll_distinct_by) — the constant-state counterpart to the KMV query
    above: per-batch state is ONE 4 KiB register blob per group however
    many values the batch holds, merged by elementwise max, so the
    exchange stays flat when a group has 10^9 distinct users (where KMV
    still ships 64k hashes). Rows-only driver check (the estimate is not
    SQL-expressible); the estimator itself is pinned in
    test_samples_sketches.py: serial-reference register equality,
    <=3*1.04/sqrt(m) relative error vs exact, and split-merge
    associativity."""
    from ..stages.sketches import hll_distinct_by

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_distinct_by(ds, "event_type", "user_id",
                           out_col="n_users_est", n_buckets=4)


# ----------------------------------------------------------- outlier events

def events_value_outliers(sf_dir: str):
    """Per-user z-score anomaly detection — flag events whose value sits
    more than 3 sample standard deviations from the user's mean. The
    monitoring-pipeline staple, built scale-shaped:

      1. per-user sufficient statistics (n, Σv, Σv²) in integer cents —
         map-side partials, one tiny user-keyed aggregate;
      2. stats join back onto the stream (lookup_join: broadcast when the
         user dimension is small, bucket join beyond);
      3. the 3-sigma test evaluated WITHOUT computing a float sigma:
         (v·n − S)²·(n−1) > 9·n·(n·Q − S²) — all integer, so the decision
         boundary cannot float-diverge from the HUGEINT SQL oracle. The
         engine screens rows in float64 and re-checks only near-boundary
         candidates with Python bignums (exact), so no int64 overflow and
         no O(rows) bignum work."""
    from ..stages.shuffle import lookup_join

    ds = _read(sf_dir, "events", ["event_id", "user_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        v = _cents(t.column("value"))
        v2 = pc.multiply(v, v)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "value": t.column("value"),
                "v": v,
                "v2": v2,
            }
        )

    cents = ds.map_batches(to_cents, batch_format="pyarrow")
    stats = group_aggregate(
        cents, "user_id", {"n": ("count", None), "s": ("sum", "v"), "q": ("sum", "v2")}
    )
    joined = lookup_join(cents, stats, key="user_id", n_buckets=8)

    def flag(t: pa.Table) -> pa.Table:
        v = t.column("v").to_numpy().astype(np.float64)
        n = t.column("n").to_numpy().astype(np.float64)
        s = t.column("s").to_numpy().astype(np.float64)
        q = t.column("q").to_numpy().astype(np.float64)
        lhs = (v * n - s) ** 2 * (n - 1)
        rhs = 9.0 * n * (n * q - s * s)
        keep = (n >= 3) & (lhs > rhs)
        # float64 loses exactness past 2^53: re-decide near-boundary rows
        # with Python integers (exact); 'near' = within 1e-9 relative
        scale = np.maximum(np.abs(lhs), np.abs(rhs)) + 1.0
        border = np.flatnonzero((np.abs(lhs - rhs) / scale < 1e-9) & (n >= 3))
        if len(border):
            vi = t.column("v").to_pylist()
            ni = t.column("n").to_pylist()
            si = t.column("s").to_pylist()
            qi = t.column("q").to_pylist()
            for i in border:
                d = vi[i] * ni[i] - si[i]
                keep[i] = ni[i] >= 3 and d * d * (ni[i] - 1) > 9 * ni[i] * (
                    ni[i] * qi[i] - si[i] * si[i]
                )
        mask = pa.array(keep)
        kept = t.filter(mask)
        return pa.table(
            {
                "event_id": kept.column("event_id"),
                "user_id": kept.column("user_id"),
                "value": kept.column("value"),
            }
        )

    return joined.map_batches(flag, batch_format="pyarrow")


EVENTS_VALUE_OUTLIERS_SQL = """
WITH c AS (
  SELECT event_id, user_id, value,
         CAST(round(value * 100) AS HUGEINT) AS v
  FROM events
), s AS (
  SELECT user_id, CAST(count(*) AS HUGEINT) AS n,
         sum(v) AS sv, sum(v * v) AS q
  FROM c GROUP BY user_id
)
SELECT c.event_id, c.user_id, c.value
FROM c JOIN s USING (user_id)
WHERE n >= 3
  AND (c.v * n - sv) * (c.v * n - sv) * (n - 1) > 9 * n * (n * q - sv * sv)
"""


# ------------------------------------------------------------ argmin join

def cheapest_supplier_per_part(sf_dir: str):
    """Grouped ARGMIN join (the TPC-H Q2 core shape): per part, the supplier
    offering the minimum extended price, deterministic tie-break
    (price, suppkey). Map-side per-batch argmin combine — one candidate row
    per (part, batch) reaches the shuffle — then one part-keyed reduce.
    Cents-exact prices so the boundary cannot float-diverge."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])

    def local_argmin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            c=np.round(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        )
        df = df.sort_values(
            ["l_partkey", "c", "l_suppkey"], kind="mergesort"
        )
        return df.groupby("l_partkey", sort=False).head(1)[
            ["l_partkey", "l_suppkey", "c"]
        ]

    pre = ds.map_batches(local_argmin, batch_format="pandas")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        df = df.sort_values(["l_partkey", "c", "l_suppkey"], kind="mergesort")
        top = df.groupby("l_partkey", sort=False).head(1)
        return pa.table(
            {
                "l_partkey": pa.array(top["l_partkey"].to_numpy(), pa.int64()),
                "l_suppkey": pa.array(top["l_suppkey"].to_numpy(), pa.int64()),
                "min_price": pa.array(
                    top["c"].to_numpy().astype(np.float64) / 100.0, pa.float64()
                ),
            }
        )

    return bucket_group_apply(pre, ["l_partkey"], bucket_fn, n_buckets=8)


CHEAPEST_SUPPLIER_SQL = """
WITH r AS (
  SELECT l_partkey, l_suppkey,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS c,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY CAST(round(l_extendedprice * 100) AS BIGINT),
                                     l_suppkey) AS rn
  FROM lineitem
)
SELECT l_partkey, l_suppkey, c / 100.0 AS min_price FROM r WHERE rn = 1
"""


def relational_queries():
    return {
        "q1_pricing_summary": q1_pricing_summary,
        "q6_revenue_filter": q6_revenue_filter,
        "filter_scan_orders": filter_scan_orders,
        "join_revenue_by_nation": join_revenue_by_nation,
        "provenance_distinct": provenance_distinct,
        "topk_orders": topk_orders,
        "topk_docs_per_lang": topk_docs_per_lang,
        "orders_without_big_items": orders_without_big_items,
        "doc_length_quantiles": doc_length_quantiles,
        "orders_with_big_items": orders_with_big_items,
        "count_by_status": count_by_status,
        "distinct_returnflags": distinct_returnflags,
        "events_hourly": events_hourly,
        "events_user_stats": events_user_stats,
        "keyword_search_documents": keyword_search_documents,
        "events_sessionize": events_sessionize,
        "events_sliding": events_sliding,
        "events_watermark": events_watermark,
        "events_asof_click": events_asof_click,
        "parts_size_bands": parts_size_bands,
        "like_scan_parts": like_scan_parts,
        "regex_extract_documents": regex_extract_documents,
        "concat_by_lang": concat_by_lang,
        "events_lag_lead": events_lag_lead,
        "orders_running_total": orders_running_total,
        "orders_price_rank": orders_price_rank,
        "cust_orders_outer": cust_orders_outer,
        "events_rollup": events_rollup,
        "sample_documents_hash": sample_documents_hash,
        "stratified_sample_docs": stratified_sample_docs,
        "cust_finished_except_open": cust_finished_except_open,
        "cust_finished_intersect_open": cust_finished_intersect_open,
        "approx_distinct_users": approx_distinct_users,
        "hll_distinct_users": hll_distinct_users,
        "events_pivot_types": events_pivot_types,
        "q3_shipping_priority": q3_shipping_priority,
        "orders_quartiles": orders_quartiles,
        "orders_price_dist": orders_price_dist,
        "suppliers_per_region": suppliers_per_region,
        "doc_length_quantiles_cont": doc_length_quantiles_cont,
        "q17_small_quantity": q17_small_quantity_revenue,
        "events_user_mode": events_user_mode,
        "events_cube": events_cube,
        "lineitem_qty_moments": lineitem_qty_moments,
        "part_unpivot": part_unpivot,
        "orders_left_bigitem_counts": orders_left_bigitem_counts,
        "events_user_entropy": events_user_entropy,
        "cheapest_supplier_per_part": cheapest_supplier_per_part,
        "events_value_outliers": events_value_outliers,
    }


def relational_oracle_sql():
    return {
        "q1_pricing_summary": Q1_SQL,
        "q6_revenue_filter": Q6_SQL,
        "filter_scan_orders": FILTER_SCAN_SQL,
        "join_revenue_by_nation": JOIN_REVENUE_SQL,
        "provenance_distinct": PROVENANCE_SQL,
        "topk_orders": TOPK_SQL,
        "topk_docs_per_lang": TOPK_PER_LANG_SQL,
        "orders_without_big_items": ORDERS_WITHOUT_BIG_ITEMS_SQL,
        "doc_length_quantiles": DOC_LENGTH_QUANTILES_SQL,
        "orders_with_big_items": ORDERS_WITH_BIG_ITEMS_SQL,
        "count_by_status": COUNT_BY_STATUS_SQL,
        "distinct_returnflags": DISTINCT_RETURNFLAG_SQL,
        "events_hourly": EVENTS_HOURLY_SQL,
        "events_user_stats": EVENTS_USER_SQL,
        "keyword_search_documents": keyword_search_sql(),
        "events_sessionize": EVENTS_SESSIONIZE_SQL,
        "events_sliding": EVENTS_SLIDING_SQL,
        "events_watermark": EVENTS_WATERMARK_SQL,
        "events_asof_click": EVENTS_ASOF_SQL,
        "parts_size_bands": PARTS_SIZE_BANDS_SQL,
        "like_scan_parts": LIKE_SCAN_SQL,
        "regex_extract_documents": REGEX_EXTRACT_SQL,
        "concat_by_lang": CONCAT_BY_LANG_SQL,
        "events_lag_lead": EVENTS_LAG_LEAD_SQL,
        "orders_running_total": ORDERS_RUNNING_TOTAL_SQL,
        "orders_price_rank": ORDERS_PRICE_RANK_SQL,
        "cust_orders_outer": CUST_ORDERS_OUTER_SQL,
        "events_rollup": EVENTS_ROLLUP_SQL,
        "sample_documents_hash": SAMPLE_DOCS_SQL,
        "stratified_sample_docs": STRATIFIED_SAMPLE_SQL,
        "cust_finished_except_open": CUST_EXCEPT_SQL,
        "cust_finished_intersect_open": CUST_INTERSECT_SQL,
        "approx_distinct_users": APPROX_DISTINCT_USERS_SQL,
        "events_pivot_types": EVENTS_PIVOT_SQL,
        "q3_shipping_priority": Q3_SQL,
        "orders_quartiles": ORDERS_QUARTILES_SQL,
        "orders_price_dist": ORDERS_PRICE_DIST_SQL,
        "suppliers_per_region": SUPPLIERS_PER_REGION_SQL,
        "doc_length_quantiles_cont": DOC_LENGTH_QUANTILES_CONT_SQL,
        "q17_small_quantity": Q17_SMALL_QUANTITY_SQL,
        "events_user_mode": EVENTS_USER_MODE_SQL,
        "events_cube": EVENTS_CUBE_SQL,
        "lineitem_qty_moments": LINEITEM_QTY_MOMENTS_SQL,
        "part_unpivot": PART_UNPIVOT_SQL,
        "orders_left_bigitem_counts": ORDERS_LEFT_BIGITEM_SQL,
        "events_user_entropy": EVENTS_USER_ENTROPY_SQL,
        "cheapest_supplier_per_part": CHEAPEST_SUPPLIER_SQL,
        "events_value_outliers": EVENTS_VALUE_OUTLIERS_SQL,
    }
