"""Remaining TPC-H query shapes, adapted to the testdata star schema (which
has no partsupp table and no l_shipmode/l_commitdate/l_receiptdate columns —
each adaptation states what stands in): Q4 (EXISTS semi over a correlated
date predicate), Q8 (market share — two-level conditional ratio over a
6-table join), Q9 (product profit by nation × year), Q11 (group sums gated
by a global-scalar HAVING), Q15 (argmax-of-aggregate view), Q16
(count-distinct suppliers per part class), Q20 (semi-join + grouped HAVING),
Q21 (multi-supplier orders whose unique latest shipper "kept it waiting").

Parity discipline as in relational.py/analytics.py: money stays integer
cents until ONE final division written identically in the SQL oracle; wide
steps are map-side partials into a keyed groupby, or a lookup_join whose
small side broadcasts (bucket path with Bloom pruning past the byte gate).
Reference semantics analog: these generalize the reference's SQLAlchemy
report queries (e.g. /root/reference/app/modules/keyword_analysis — filter +
join + grouped rollup shapes) to distributed Ray Data plans.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.cleanscan import read_parquet_clean as _rpc
from ..stages.shuffle import group_aggregate
# ONE _cents implementation engine-wide: its rounding mode must stay
# bit-identical to the SQL oracles' round() (review finding: a third copy
# here could silently drift from analytics/relational on a future fix)
from .analytics import _cents, _read


CENTS_SQL = "CAST(round({c}*100) AS BIGINT)"
REV_CENTS_SQL = (
    "CAST(round(l.l_extendedprice*100) AS BIGINT)"
    " * (100 - CAST(round(l.l_discount*100) AS BIGINT))"
)


# ------------------------------------------------------------------ Q4 shape

def q4_order_priority(sf_dir: str):
    """TPC-H Q4 shape — priority census of orders that have at least one
    late line. Without l_commitdate/l_receiptdate the 'late' predicate is
    adapted to the correlated ``l_shipdate > o_orderdate`` (ship happened
    after the order was placed — true lateness needs the per-ORDER date, so
    the EXISTS stays genuinely correlated, the point of the Q4 shape).

    Plan: the date window prunes orders in the scan; lineitem (2 columns)
    lookup_joins against the filtered orders (broadcast now, Bloom-pruned
    bucket exchange past the gate), the correlated predicate filters
    map-side, and EXISTS = per-batch pair dedup -> one order-cardinality
    groupby. Priority strings ride as int codes through the shuffles."""
    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), pa.timestamp("us"))
    orders = _rpc(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    )
    # tiny domain (5 values) — derived from data, not hardcoded
    pris = sorted(orders.unique("o_orderpriority"))

    def o_encode(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi),
        )
        t = t.filter(keep)
        codes = pc.index_in(
            t.column("o_orderpriority"), value_set=pa.array(pris, pa.string())
        )
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_orderdate": t.column("o_orderdate"),
                "pri": pc.cast(codes, pa.int32()),
            }
        )

    from ..stages.shuffle import lookup_join

    orders_e = orders.map_batches(o_encode, batch_format="pyarrow")
    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    joined = lookup_join(items, orders_e, key="l_orderkey", right_key="o_orderkey")

    def late_pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), t.column("o_orderdate")))
        return t.select(["l_orderkey", "pri"])

    per_order = group_aggregate(
        joined.map_batches(late_pairs, batch_format="pyarrow"), "l_orderkey",
        {"pri": ("max", "pri")},
    )
    counts = group_aggregate(per_order, "pri", {"order_count": ("count", None)})

    names = np.array(pris, dtype=object)

    def finalize(t: pa.Table) -> pa.Table:
        codes = t.column("pri").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "o_orderpriority": pa.array(names[codes], pa.string()),
                "order_count": pc.cast(t.column("order_count"), pa.int64()),
            }
        )

    return counts.map_batches(finalize, batch_format="pyarrow")


Q4_ORDER_PRIORITY_SQL = """
SELECT o.o_orderpriority,
       count(*) AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate <  TIMESTAMP '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate)
GROUP BY o.o_orderpriority
"""


# ------------------------------------------------------------------ Q8 shape

def q8_market_share(sf_dir: str, target_nation: str = "NATION_7",
                    market_region: str = "EUROPE", part_type: str = "PROMO"):
    """TPC-H Q8 shape — per-year share of a market region's revenue (for one
    part type) captured by suppliers of one nation. Six tables: the two
    true dimensions (nation, region) collapse to a driver LUT; filtered
    part and the window+region-filtered orders attach via lookup_join
    (broadcast now, Bloom-pruned bucket past the gate); lineitem is the only
    fact scanned in full and it is pre-filtered map-side by partkey before
    any exchange. Numerator/denominator stay integer cents until the final
    float division, written identically in the oracle."""
    import ray
    from ..stages.shuffle import lookup_join

    nat = {
        r["n_nationkey"]: (r["n_name"], r["n_regionkey"])
        for r in _read(sf_dir, "nation").take_all()
    }
    region_keys = {
        r["r_regionkey"]
        for r in _read(sf_dir, "region").take_all()
        if r["r_name"] == market_region
    }
    market_nations = sorted(
        k for k, (_, rk) in nat.items() if rk in region_keys
    )
    target_keys = sorted(k for k, (n, _) in nat.items() if n == target_nation)
    lut_ref = ray.put((market_nations, target_keys))

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"), pa.timestamp("us"))
    orders = _rpc(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi),
    )

    def o_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("o_orderdate"), lo),
            pc.less(t.column("o_orderdate"), hi),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_custkey": t.column("o_custkey"),
                "o_year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
            }
        )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    orders_c = lookup_join(
        orders.map_batches(o_prep, batch_format="pyarrow"),
        cust, key="o_custkey", right_key="c_custkey",
    )

    def o_market(t: pa.Table) -> pa.Table:
        mkts, _ = ray.get(lut_ref)
        keep = pc.is_in(
            pc.cast(t.column("c_nationkey"), pa.int64()),
            value_set=pa.array(mkts, pa.int64()),
        )
        return t.filter(keep).select(["o_orderkey", "o_year"])

    orders_m = orders_c.map_batches(o_market, batch_format="pyarrow")

    part = _rpc(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_type"],
        filter=pc.field("p_type") == part_type,
    ).map_batches(
        lambda t: t.filter(pc.equal(t.column("p_type"), part_type)).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )

    items = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def l_prep(t: pa.Table) -> pa.Table:
        ext = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_partkey": t.column("l_partkey"),
                "l_suppkey": t.column("l_suppkey"),
                "rev": pc.multiply(ext, pc.subtract(pa.scalar(100, pa.int64()), disc)),
            }
        )

    items_p = lookup_join(
        items.map_batches(l_prep, batch_format="pyarrow"),
        part, key="l_partkey", right_key="p_partkey",
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    items_ps = lookup_join(items_p, supp, key="l_suppkey", right_key="s_suppkey")
    joined = lookup_join(items_ps, orders_m, key="l_orderkey", right_key="o_orderkey")

    def split_rev(t: pa.Table) -> pa.Table:
        _, tkeys = ray.get(lut_ref)
        is_t = pc.is_in(
            pc.cast(t.column("s_nationkey"), pa.int64()),
            value_set=pa.array(tkeys, pa.int64()),
        )
        rev = t.column("rev")
        zero = pa.scalar(0, pa.int64())
        return pa.table(
            {
                "o_year": t.column("o_year"),
                "rev": rev,
                "rev_t": pc.if_else(is_t, rev, zero),
            }
        )

    agg = group_aggregate(
        joined.map_batches(split_rev, batch_format="pyarrow"), "o_year",
        {"rev": ("sum", "rev"), "rev_t": ("sum", "rev_t")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        num = pc.cast(t.column("rev_t"), pa.float64())
        den = pc.cast(t.column("rev"), pa.float64())
        return pa.table(
            {
                "o_year": t.column("o_year"),
                "mkt_share": pc.divide(num, den),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


Q8_MARKET_SHARE_SQL = f"""
SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CASE WHEN sn.n_name = 'NATION_7' THEN {REV_CENTS_SQL} ELSE 0 END) AS DOUBLE)
       / CAST(sum({REV_CENTS_SQL}) AS DOUBLE) AS mkt_share
FROM lineitem l
JOIN part p     ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation sn  ON sn.n_nationkey = s.s_nationkey
JOIN orders o   ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation cn  ON cn.n_nationkey = c.c_nationkey
JOIN region r   ON r.r_regionkey = cn.n_regionkey
WHERE r.r_name = 'EUROPE'
  AND p.p_type = 'PROMO'
  AND o.o_orderdate >= TIMESTAMP '1996-01-01'
  AND o.o_orderdate <  TIMESTAMP '1998-01-01'
GROUP BY 1
"""


# ------------------------------------------------------------------ Q9 shape

def q9_product_profit(sf_dir: str, name_token: str = "gear"):
    """TPC-H Q9 shape — profit by supplier nation × order year for parts
    whose name contains a token. No partsupp table here, so unit cost is
    adapted to the part's retail price: profit = revenue − retail·quantity
    (both carried in the same 10^-4-dollar integer unit: cents × percent).
    orders attaches via lookup_join — broadcast while under the gates,
    bucket exchange past them (Q9 has no order-side filter, the one
    genuinely fact-fact edge in this family)."""
    from ..stages.shuffle import lookup_join

    nat = {
        r["n_nationkey"]: r["n_name"] for r in _read(sf_dir, "nation").take_all()
    }
    name_lut = np.empty(max(nat) + 1, dtype=object)
    for k, n in nat.items():
        name_lut[k] = n

    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])

    def p_prep(t: pa.Table) -> pa.Table:
        keep = pc.match_substring(t.column("p_name"), name_token)
        t = t.filter(keep)
        return pa.table(
            {
                "p_partkey": t.column("p_partkey"),
                "retail_c": _cents(t.column("p_retailprice")),
            }
        )

    items = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    )
    items_p = lookup_join(
        items, part.map_batches(p_prep, batch_format="pyarrow"),
        key="l_partkey", right_key="p_partkey",
    )

    def profit_prep(t: pa.Table) -> pa.Table:
        ext = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        rev = pc.multiply(ext, pc.subtract(pa.scalar(100, pa.int64()), disc))
        qty = pc.cast(t.column("l_quantity"), pa.int64())
        cost = pc.multiply(
            pc.multiply(t.column("retail_c"), qty), pa.scalar(100, pa.int64())
        )
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "l_suppkey": t.column("l_suppkey"),
                "profit": pc.subtract(rev, cost),
            }
        )

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    items_s = lookup_join(
        items_p.map_batches(profit_prep, batch_format="pyarrow"),
        supp, key="l_suppkey", right_key="s_suppkey",
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_year": pc.cast(pc.year(t.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = lookup_join(items_s, orders, key="l_orderkey", right_key="o_orderkey")

    def key_prep(t: pa.Table) -> pa.Table:
        keys = pc.cast(t.column("s_nationkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "n_name": pa.array(name_lut[keys], pa.string()),
                "o_year": t.column("o_year"),
                "profit": t.column("profit"),
            }
        )

    agg = group_aggregate(
        joined.map_batches(key_prep, batch_format="pyarrow"), ["n_name", "o_year"],
        {"profit_c": ("sum", "profit")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_name": t.column("n_name"),
                "o_year": t.column("o_year"),
                "profit": pc.divide(
                    pc.cast(t.column("profit_c"), pa.float64()), 10000.0
                ),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow")


Q9_PRODUCT_PROFIT_SQL = f"""
SELECT n.n_name,
       CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum({REV_CENTS_SQL}
                - CAST(round(p.p_retailprice*100) AS BIGINT)
                  * CAST(l.l_quantity AS BIGINT) * 100) AS DOUBLE)
       / 10000.0 AS profit
FROM lineitem l
JOIN part p     ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n   ON n.n_nationkey = s.s_nationkey
JOIN orders o   ON o.o_orderkey = l.l_orderkey
WHERE p.p_name LIKE '%gear%'
GROUP BY 1, 2
"""


# ------------------------------------------------------------------ Q11 shape

def q11_important_parts(sf_dir: str):
    """TPC-H Q11 shape — groups whose aggregate exceeds a fraction of the
    GLOBAL aggregate (HAVING vs a scalar subquery). Adapted from partsupp
    stock value to lineitem revenue per part; the spec scales its fraction
    by SF, mirrored here as a scale-free threshold: keep parts whose revenue
    exceeds 1.2× the average part revenue. The comparison stays exact
    integer arithmetic: 5·n_parts·cents > 6·total_cents. Plan: per-batch
    partial sums → one part-keyed groupby → total and count are a second
    tiny aggregate over the group sums (driver sees TWO scalars)."""
    items = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def l_prep(t: pa.Table) -> pa.Table:
        ext = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        rev = pc.multiply(ext, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({"l_partkey": t.column("l_partkey"), "rev": rev})

    per_part = group_aggregate(
        items.map_batches(l_prep, batch_format="pyarrow"), "l_partkey",
        {"cents": ("sum", "rev")},
    ).materialize()  # part-cardinality; reused by the sum AND the filter
    total = per_part.sum("cents")
    n_parts = per_part.count()
    if not n_parts:  # empty lineitem: mirror the oracle's empty result
        import ray.data as rd

        return rd.from_arrow(
            pa.schema([("l_partkey", pa.int64()),
                       ("value", pa.float64())]).empty_table()
        )

    def finalize(t: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(t.column("cents"), pa.scalar(5 * int(n_parts), pa.int64())),
            pa.scalar(6 * int(total), pa.int64()),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "value": pc.divide(pc.cast(t.column("cents"), pa.float64()), 10000.0),
            }
        )

    return per_part.map_batches(finalize, batch_format="pyarrow")


Q11_IMPORTANT_PARTS_SQL = f"""
WITH pv AS (
  SELECT l.l_partkey, sum({REV_CENTS_SQL}) AS cents
  FROM lineitem l
  GROUP BY 1
)
SELECT l_partkey, CAST(cents AS DOUBLE) / 10000.0 AS value
FROM pv
WHERE cents * 5 * (SELECT count(*) FROM pv) > 6 * (SELECT sum(cents) FROM pv)
"""


# ------------------------------------------------------------------ Q15 shape

def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 shape — the revenue 'view' (supplier totals over a quarter)
    filtered to its own maximum (ties all kept, as in the spec). The max is
    ONE driver scalar off the supplier-cardinality aggregate; s_name
    attaches to the (usually single-row) winner set by broadcast."""
    from ..stages.shuffle import lookup_join

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"), pa.timestamp("us"))
    items = _rpc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    )

    def l_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi),
        )
        t = t.filter(keep)
        ext = _cents(t.column("l_extendedprice"))
        disc = _cents(t.column("l_discount"))
        rev = pc.multiply(ext, pc.subtract(pa.scalar(100, pa.int64()), disc))
        return pa.table({"l_suppkey": t.column("l_suppkey"), "rev": rev})

    per_supp = group_aggregate(
        items.map_batches(l_prep, batch_format="pyarrow"), "l_suppkey",
        {"cents": ("sum", "rev")},
    ).materialize()  # supplier-cardinality; reused by max AND filter
    best = per_supp.max("cents")
    if best is None:  # no lineitem in the window: oracle returns 0 rows
        import ray.data as rd

        return rd.from_arrow(
            pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string()),
                       ("total_rev", pa.float64())]).empty_table()
        )

    winners = per_supp.map_batches(
        lambda t: t.filter(pc.equal(t.column("cents"), pa.scalar(int(best), pa.int64()))),
        batch_format="pyarrow",
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = lookup_join(winners, supp, key="l_suppkey", right_key="s_suppkey")

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": pc.cast(t.column("l_suppkey"), pa.int64()),
                "s_name": t.column("s_name"),
                "total_rev": pc.divide(pc.cast(t.column("cents"), pa.float64()), 10000.0),
            }
        )

    return named.map_batches(finalize, batch_format="pyarrow")


Q15_TOP_SUPPLIER_SQL = f"""
WITH revenue AS (
  SELECT l.l_suppkey AS s_key, sum({REV_CENTS_SQL}) AS cents
  FROM lineitem l
  WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
    AND l.l_shipdate <  TIMESTAMP '1996-04-01'
  GROUP BY 1
)
SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey,
       s.s_name,
       CAST(r.cents AS DOUBLE) / 10000.0 AS total_rev
FROM revenue r
JOIN supplier s ON s.s_suppkey = r.s_key
WHERE r.cents = (SELECT max(cents) FROM revenue)
"""


# ------------------------------------------------------------------ Q16 shape

def q16_supplier_counts(sf_dir: str):
    """TPC-H Q16 shape — distinct suppliers per part class with exclusion
    predicates. No partsupp table, so lineitem stands in as the
    part↔supplier relation. Plan: part filters broadcast into a lineitem
    semi-join; per-batch (class, suppkey) dedup bounds the exchange; the
    count-distinct is groupby(class ∪ suppkey) → groupby(class) Count —
    two keyed shuffles on deduped pairs, never on raw lineitem."""
    from ..stages.shuffle import lookup_join

    sizes = [1, 5, 9, 14, 23, 36, 45, 49]
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type", "p_size"])

    def p_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.not_equal(t.column("p_brand"), "Brand#3"),
                pc.not_equal(t.column("p_type"), "PROMO"),
            ),
            pc.is_in(
                pc.cast(t.column("p_size"), pa.int64()),
                value_set=pa.array(sizes, pa.int64()),
            ),
        )
        return t.filter(keep)

    items = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    joined = lookup_join(
        items, part.map_batches(p_prep, batch_format="pyarrow"),
        key="l_partkey", right_key="p_partkey",
    )

    def class_pairs(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_brand": t.column("p_brand"),
                "p_type": t.column("p_type"),
                "p_size": pc.cast(t.column("p_size"), pa.int64()),
                "l_suppkey": pc.cast(t.column("l_suppkey"), pa.int64()),
            }
        )

    distinct = group_aggregate(
        joined.map_batches(class_pairs, batch_format="pyarrow"),
        ["p_brand", "p_type", "p_size", "l_suppkey"], {"_n": ("count", None)},
        # drop the count payload so only the 4 key columns ride the second
        # keyed exchange (the count's only job was forcing the dedup)
    ).select_columns(["p_brand", "p_type", "p_size", "l_suppkey"])
    counts = group_aggregate(
        distinct, ["p_brand", "p_type", "p_size"], {"supplier_cnt": ("count", None)}
    )
    return counts.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("supplier_cnt"),
            "supplier_cnt",
            pc.cast(t.column("supplier_cnt"), pa.int64()),
        ).select(["p_brand", "p_type", "p_size", "supplier_cnt"]),
        batch_format="pyarrow",
    )


Q16_SUPPLIER_COUNTS_SQL = """
SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
       count(DISTINCT l.l_suppkey) AS supplier_cnt
FROM part p
JOIN lineitem l ON l.l_partkey = p.p_partkey
WHERE p.p_brand <> 'Brand#3'
  AND p.p_type <> 'PROMO'
  AND p.p_size IN (1, 5, 9, 14, 23, 36, 45, 49)
GROUP BY 1, 2, 3
"""


# ------------------------------------------------------------------ Q20 shape

def q20_heavy_suppliers(sf_dir: str, qty_floor: int = 150):
    """TPC-H Q20 shape — suppliers who moved more than a threshold quantity
    of a part family within a year (the spec's '>50% of stock' becomes an
    absolute floor — no partsupp availqty here). Plan: prefix-filtered part
    broadcasts into the date-pruned lineitem scan; per-batch partial sums →
    one supplier-keyed groupby; the HAVING filters the supplier-cardinality
    aggregate; names attach by broadcast."""
    from ..stages.shuffle import lookup_join

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), pa.timestamp("us"))
    part = _read(sf_dir, "part", ["p_partkey", "p_name"]).map_batches(
        lambda t: t.filter(pc.starts_with(t.column("p_name"), "small")).select(
            ["p_partkey"]
        ),
        batch_format="pyarrow",
    )
    items = _rpc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    )

    def l_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "l_suppkey": t.column("l_suppkey"),
                "qty": pc.cast(t.column("l_quantity"), pa.int64()),
            }
        )

    joined = lookup_join(
        items.map_batches(l_prep, batch_format="pyarrow"),
        part, key="l_partkey", right_key="p_partkey",
    )

    per_supp = group_aggregate(joined, "l_suppkey", {"total_qty": ("sum", "qty")})
    heavy = per_supp.map_batches(
        lambda t: t.filter(
            pc.greater(t.column("total_qty"), pa.scalar(qty_floor, pa.int64()))
        ),
        batch_format="pyarrow",
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = lookup_join(heavy, supp, key="l_suppkey", right_key="s_suppkey")
    return named.map_batches(
        lambda t: pa.table(
            {
                "s_suppkey": pc.cast(t.column("l_suppkey"), pa.int64()),
                "s_name": t.column("s_name"),
                "total_qty": pc.cast(t.column("total_qty"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


Q20_HEAVY_SUPPLIERS_SQL = """
SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey,
       s.s_name,
       CAST(sum(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS total_qty
FROM lineitem l
JOIN part p     ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
WHERE p.p_name LIKE 'small%'
  AND l.l_shipdate >= TIMESTAMP '1996-01-01'
  AND l.l_shipdate <  TIMESTAMP '1997-01-01'
GROUP BY 1, 2
HAVING sum(CAST(l.l_quantity AS BIGINT)) > 150
"""


# ------------------------------------------------------------------ Q21 shape

def q21_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape — suppliers who 'kept the order waiting': among
    orders touched by ≥2 distinct suppliers, credit the UNIQUE supplier
    whose lines shipped last (no receipt/commit dates here, so 'late' is
    the order's max shipdate; ties disqualify the order, mirroring the
    spec's 'only this supplier failed'). Plan: one (order, supplier)
    pre-maxed pair shuffle off raw lineitem; every later stage is
    order-cardinality (per-order stats via groupby, attach via lookup_join
    — broadcast here, bucket exchange past the gate); the final census is
    supplier-sized."""
    from ..stages.shuffle import lookup_join

    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    def pair_ship(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ok": pc.cast(t.column("l_orderkey"), pa.int64()),
                "sk": pc.cast(t.column("l_suppkey"), pa.int64()),
                "ship": pc.cast(t.column("l_shipdate"), pa.int64()),
            }
        )

    pairs = group_aggregate(
        items.map_batches(pair_ship, batch_format="pyarrow"), ["ok", "sk"],
        {"ship": ("max", "ship")},
    ).materialize()  # reused for per-order stats AND the argmax filter
    per_order = group_aggregate(
        pairs, "ok", {"max_ship": ("max", "ship"), "n_supp": ("count", None)}
    )
    joined = lookup_join(pairs, per_order, key="ok", right_key="ok")

    def at_max(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("n_supp"), pa.scalar(2, pa.int64())),
            pc.equal(t.column("ship"), t.column("max_ship")),
        )
        return t.filter(keep).select(["ok", "sk"])

    late = joined.map_batches(at_max, batch_format="pyarrow")
    uniq = group_aggregate(late, "ok", {"n_at_max": ("count", None), "sk": ("min", "sk")})

    def sole(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(t.column("n_at_max"), pa.scalar(1, pa.int64()))
        ).select(["sk"])

    counts = group_aggregate(
        uniq.map_batches(sole, batch_format="pyarrow"), "sk", {"numwait": ("count", None)}
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = lookup_join(counts, supp, key="sk", right_key="s_suppkey")
    return named.map_batches(
        lambda t: pa.table(
            {
                "s_suppkey": t.column("sk"),
                "s_name": t.column("s_name"),
                "numwait": pc.cast(t.column("numwait"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


Q21_WAITING_SUPPLIERS_SQL = """
WITH sm AS (
  SELECT CAST(l_orderkey AS BIGINT) AS ok,
         CAST(l_suppkey AS BIGINT) AS sk,
         max(l_shipdate) AS ship
  FROM lineitem GROUP BY 1, 2
),
om AS (
  SELECT ok, max(ship) AS max_ship, count(*) AS n_supp FROM sm GROUP BY 1
),
late AS (
  SELECT sm.ok, sm.sk
  FROM sm JOIN om ON sm.ok = om.ok
  WHERE om.n_supp >= 2 AND sm.ship = om.max_ship
),
uniq AS (
  SELECT ok, min(sk) AS sk FROM late GROUP BY ok HAVING count(*) = 1
)
SELECT CAST(s.s_suppkey AS BIGINT) AS s_suppkey, s.s_name,
       count(*) AS numwait
FROM uniq u JOIN supplier s ON s.s_suppkey = u.sk
GROUP BY 1, 2
"""


# ------------------------------------------------------------------ Q2 shape

def q2_min_cost_supplier(sf_dir: str, market_region: str = "EUROPE",
                         part_type: str = "PROMO", size_lo: int = 10,
                         size_hi: int = 30, top_n: int = 100):
    """TPC-H Q2 shape — minimum-cost supplier per part, restricted to one
    market region, ranked by supplier account balance. The schema has no
    partsupp table, so the part-supplier cost relation is lineitem's
    (l_partkey, l_suppkey, l_extendedprice) — the same stand-in
    cheapest_supplier_per_part uses — and the correlated MIN(ps_supplycost)
    subquery becomes a grouped argmin whose candidate set is pre-filtered
    to region suppliers, exactly as Q2's subquery correlates on region.

    Plan: region/nation collapse to a driver LUT; the region's suppliers
    and the size/type-filtered parts are dimension-sized lookup_join sides
    (broadcast now, Bloom-pruned bucket past the gate), so lineitem — the
    only fact — is scanned once with 3 columns, pruned map-side by both
    semis, then reduced by a per-batch local argmin (one candidate row per
    (part, batch) reaches the exchange) and ONE part-keyed bucket reduce.
    Winners re-attach supplier/part attributes dimension-side; the final
    ORDER BY ... LIMIT sorts only the part-cardinality winner table.
    Prices and balances ride as integer cents; ties break (cost, suppkey)
    inside the argmin and (acctbal DESC, n_name, s_name, p_partkey) in the
    output — both written identically in the oracle."""
    import pandas as pd
    import ray

    from ..stages.shuffle import bucket_group_apply, lookup_join

    nat = {
        r["n_nationkey"]: (r["n_name"], r["n_regionkey"])
        for r in _read(sf_dir, "nation").take_all()
    }
    region_keys = {
        r["r_regionkey"]
        for r in _read(sf_dir, "region").take_all()
        if r["r_name"] == market_region
    }
    nation_name = {k: n for k, (n, rk) in nat.items() if rk in region_keys}
    lut_ref = ray.put(nation_name)

    supp = _read(
        sf_dir, "supplier", ["s_suppkey", "s_name", "s_nationkey", "s_acctbal"]
    )

    def s_prep(t: pa.Table) -> pa.Table:
        lut = ray.get(lut_ref)
        keys = pa.array(sorted(lut), pa.int64())
        t = t.filter(
            pc.is_in(pc.cast(t.column("s_nationkey"), pa.int64()), value_set=keys)
        )
        nk = t.column("s_nationkey").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s_suppkey": t.column("s_suppkey"),
                "s_name": t.column("s_name"),
                "n_name": pa.array([lut[int(k)] for k in nk], pa.string()),
                "bal": _cents(t.column("s_acctbal")),
            }
        )

    supp_r = supp.map_batches(s_prep, batch_format="pyarrow")

    parts = _rpc(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
        filter=(pc.field("p_type") == part_type)
        & (pc.field("p_size") >= size_lo) & (pc.field("p_size") < size_hi),
    )

    def p_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(t.column("p_type"), part_type),
            pc.and_(
                pc.greater_equal(t.column("p_size"), size_lo),
                pc.less(t.column("p_size"), size_hi),
            ),
        )
        return t.filter(keep).select(["p_partkey", "p_brand"])

    parts_f = parts.map_batches(p_prep, batch_format="pyarrow")

    items = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    # semi to region suppliers (keys only — no payload crosses the fact scan)
    items_s = lookup_join(
        items,
        supp_r.map_batches(lambda t: t.select(["s_suppkey"]),
                           batch_format="pyarrow"),
        key="l_suppkey", right_key="s_suppkey", unique_right=True,
    )
    items_sp = lookup_join(
        items_s,
        parts_f.map_batches(lambda t: t.select(["p_partkey"]),
                            batch_format="pyarrow"),
        key="l_partkey", right_key="p_partkey", unique_right=True,
    )

    def to_cents(t: pa.Table) -> pa.Table:
        # cents via the ONE engine-wide _cents (file-header rule): an
        # inline np.round copy here could silently drift from the oracle
        # on a future rounding-mode fix
        return pa.table(
            {
                "l_partkey": t.column("l_partkey"),
                "l_suppkey": t.column("l_suppkey"),
                "c": _cents(t.column("l_extendedprice")),
            }
        )

    def local_argmin(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["l_partkey", "c", "l_suppkey"], kind="mergesort")
        return df.groupby("l_partkey", sort=False).head(1)[
            ["l_partkey", "l_suppkey", "c"]
        ]

    pre = items_sp.map_batches(to_cents, batch_format="pyarrow").map_batches(
        local_argmin, batch_format="pandas"
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas().sort_values(["l_partkey", "c", "l_suppkey"], kind="mergesort")
        top = df.groupby("l_partkey", sort=False).head(1)
        return pa.table(
            {
                "l_partkey": pa.array(top["l_partkey"].to_numpy(), pa.int64()),
                "l_suppkey": pa.array(top["l_suppkey"].to_numpy(), pa.int64()),
                "c": pa.array(top["c"].to_numpy(), pa.int64()),
            }
        )

    winners = bucket_group_apply(pre, ["l_partkey"], bucket_fn, n_buckets=8)
    # winner table is part-cardinality: attach dimension attributes back
    winners = lookup_join(
        winners, supp_r, key="l_suppkey", right_key="s_suppkey",
        unique_right=True,
    )
    winners = lookup_join(
        winners, parts_f, key="l_partkey", right_key="p_partkey",
        unique_right=True,
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_acctbal": pc.divide(pc.cast(t.column("bal"), pa.float64()),
                                       100.0),
                "s_name": t.column("s_name"),
                "n_name": t.column("n_name"),
                "p_partkey": t.column("l_partkey"),
                "p_brand": t.column("p_brand"),
                "min_price": pc.divide(pc.cast(t.column("c"), pa.float64()),
                                       100.0),
                "bal": t.column("bal"),
            }
        )

    top = (
        winners.map_batches(finalize, batch_format="pyarrow")
        .sort(["bal", "n_name", "s_name", "p_partkey"],
              descending=[True, False, False, False])
        .limit(top_n)
    )
    return top.map_batches(
        lambda t: t.select(
            ["s_acctbal", "s_name", "n_name", "p_partkey", "p_brand",
             "min_price"]
        ),
        batch_format="pyarrow",
    )


Q2_MIN_COST_SUPPLIER_SQL = """
WITH rs AS (
  SELECT s.s_suppkey, s.s_name, n.n_name,
         CAST(round(s.s_acctbal*100) AS BIGINT) AS bal
  FROM supplier s
  JOIN nation n ON n.n_nationkey = s.s_nationkey
  JOIN region r ON r.r_regionkey = n.n_regionkey
  WHERE r.r_name = 'EUROPE'
), fp AS (
  SELECT p_partkey, p_brand FROM part
  WHERE p_type = 'PROMO' AND p_size >= 10 AND p_size < 30
), best AS (
  SELECT l.l_partkey, l.l_suppkey,
         CAST(round(l.l_extendedprice*100) AS BIGINT) AS c,
         row_number() OVER (
             PARTITION BY l.l_partkey
             ORDER BY CAST(round(l.l_extendedprice*100) AS BIGINT),
                      l.l_suppkey) AS rn
  FROM lineitem l
  JOIN rs ON rs.s_suppkey = l.l_suppkey
  JOIN fp ON fp.p_partkey = l.l_partkey
)
SELECT rs.bal / 100.0 AS s_acctbal, rs.s_name, rs.n_name,
       b.l_partkey AS p_partkey, fp.p_brand, b.c / 100.0 AS min_price
FROM best b
JOIN rs ON rs.s_suppkey = b.l_suppkey
JOIN fp ON fp.p_partkey = b.l_partkey
WHERE b.rn = 1
ORDER BY rs.bal DESC, rs.n_name, rs.s_name, b.l_partkey
LIMIT 100
"""


# ----------------------------------------------------------------- Q12 shape

def q12_line_priority(sf_dir: str):
    """TPC-H Q12 shape — per shipping class, how many late lines belonged
    to high- vs low-priority orders in one year. The schema has no
    l_shipmode/l_commitdate/l_receiptdate: l_linestatus stands in as the
    shipping class and lateness is the correlated ``l_shipdate >
    o_orderdate`` (the same adaptation q4 states) — the point of the Q12
    shape, a correlated join predicate feeding a two-way conditional
    census, survives intact.

    Plan: the ship-date year prunes lineitem in the scan (3 columns);
    orders (3 columns, date-pruned to < the window's end since a late line
    needs o_orderdate < l_shipdate) attaches via lookup_join; the
    correlated predicate and the priority split are one vectorized
    map-side pass emitting int partials, and the final groupby touches a
    2-row domain."""
    from ..stages.shuffle import lookup_join

    lo = pa.scalar(np.datetime64("1996-01-01", "us"), pa.timestamp("us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"), pa.timestamp("us"))
    items = _rpc(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
        filter=(pc.field("l_shipdate") >= lo) & (pc.field("l_shipdate") < hi),
    )

    def l_prep(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column("l_shipdate"), lo),
            pc.less(t.column("l_shipdate"), hi),
        )
        return t.filter(keep)

    orders = _rpc(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=pc.field("o_orderdate") < hi,
    )

    def o_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t.column("o_orderdate"), hi))
        high = pc.is_in(
            t.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"], pa.string()),
        )
        return pa.table(
            {
                "o_orderkey": t.column("o_orderkey"),
                "o_orderdate": t.column("o_orderdate"),
                "is_high": pc.cast(high, pa.int64()),
            }
        )

    joined = lookup_join(
        items.map_batches(l_prep, batch_format="pyarrow"),
        orders.map_batches(o_prep, batch_format="pyarrow"),
        key="l_orderkey", right_key="o_orderkey", unique_right=True,
    )

    def late_lines(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t.column("l_shipdate"), t.column("o_orderdate")))
        hi_c = t.column("is_high")
        lo_c = pc.subtract(pa.scalar(1, pa.int64()), hi_c)
        return pa.table(
            {
                "l_linestatus": t.column("l_linestatus"),
                "high": hi_c,
                "low": lo_c,
            }
        )

    counts = group_aggregate(
        joined.map_batches(late_lines, batch_format="pyarrow"), "l_linestatus",
        {"high_line_count": ("sum", "high"), "low_line_count": ("sum", "low")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_linestatus": t.column("l_linestatus"),
                "high_line_count": pc.cast(t.column("high_line_count"),
                                           pa.int64()),
                "low_line_count": pc.cast(t.column("low_line_count"),
                                          pa.int64()),
            }
        )

    return counts.map_batches(finalize, batch_format="pyarrow").sort(
        "l_linestatus"
    )


Q12_LINE_PRIORITY_SQL = """
SELECT l.l_linestatus,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT','2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT','2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate >= TIMESTAMP '1996-01-01'
  AND l.l_shipdate <  TIMESTAMP '1997-01-01'
  AND l.l_shipdate >  o.o_orderdate
GROUP BY 1
ORDER BY 1
"""


def tpch_extra_queries():
    return {
        "q2_min_cost_supplier": q2_min_cost_supplier,
        "q4_order_priority": q4_order_priority,
        "q12_line_priority": q12_line_priority,
        "q8_market_share": q8_market_share,
        "q9_product_profit": q9_product_profit,
        "q11_important_parts": q11_important_parts,
        "q15_top_supplier": q15_top_supplier,
        "q16_supplier_counts": q16_supplier_counts,
        "q20_heavy_suppliers": q20_heavy_suppliers,
        "q21_waiting_suppliers": q21_waiting_suppliers,
    }


def tpch_extra_oracle_sql():
    return {
        "q2_min_cost_supplier": Q2_MIN_COST_SUPPLIER_SQL,
        "q4_order_priority": Q4_ORDER_PRIORITY_SQL,
        "q12_line_priority": Q12_LINE_PRIORITY_SQL,
        "q8_market_share": Q8_MARKET_SHARE_SQL,
        "q9_product_profit": Q9_PRODUCT_PROFIT_SQL,
        "q11_important_parts": Q11_IMPORTANT_PARTS_SQL,
        "q15_top_supplier": Q15_TOP_SUPPLIER_SQL,
        "q16_supplier_counts": Q16_SUPPLIER_COUNTS_SQL,
        "q20_heavy_suppliers": Q20_HEAVY_SUPPLIERS_SQL,
        "q21_waiting_suppliers": Q21_WAITING_SUPPLIERS_SQL,
    }
