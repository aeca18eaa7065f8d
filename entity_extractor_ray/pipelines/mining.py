"""Pattern-mining and econometric operators beyond the reference surface.

Operator families a large-scale training-data / analytics pipeline needs
that the reference (a per-record extraction service) never had. Besides
the four below: ``supplier_jaccard`` (bipartite-projection similarity
join), ``distinctive_terms_llr`` (Dunning log-likelihood keywords per
group), ``rrf_retrieval`` (reciprocal-rank fusion of the kNN and BM25
legs), ``fd_audit`` (functional-dependency census), ``events_user_ewma``
(recency-weighted user state). Every multi-million-row pair-count reduce
is one ``group_aggregate`` (kind, a, b) -> n, never Ray's multi-key sort
aggregate (~27x at sf0.1).

- ``regression_by_flag`` — grouped ordinary-least-squares (slope,
  intercept, R²) from ONE pass of mergeable integer sufficient statistics
  (the lineitem_corr_by_flag discipline extended to the regression
  closed form). Exact-int partials, one double expression mirrored
  verbatim in the SQL oracle.
- ``basket_pair_lift`` — market-basket co-occurrence mining: unordered
  part pairs co-purchased in the same order, with support counts and
  lift, via an order-bucketed shuffle (pairs generated inside the bucket
  by the pair kernel, functions/pairs.py — no self-join of the fact table).
- ``events_band_join`` — keyed interval/band join: for every purchase
  event, the count and cents-exact value sum of SAME-USER click events in
  the half-open window [ts-30min, ts). As-of (events_asof_click) returns
  the single nearest predecessor; this returns ALL matches in a band —
  the range-join class. One user-bucketed shuffle, then per-user
  vectorized binary search (no composite-key overflow risk).
- ``bpe_merges`` — byte-pair-encoding merge-table training (Sennrich et
  al. 2016): the corpus-scale pass is ONE word-count groupby; each merge
  round is a vocab-sized pair-count reduce (driver sees exactly one row)
  plus a vectorized map-side merge application. Non-SQL-expressible
  (iterative argmax); pinned against a serial reference implementation in
  tests/test_mining.py including overlap ('aaaa') greedy-leftmost cases.
- ``bpe_encode`` — the paired tokenizer APPLICATION: broadcast merge
  table, per-batch unique-word vectorized encode, scatter back by
  searchsorted. Rows-only; pinned against a serial per-word encoder.
- ``events_ohlc`` — per-(type, day) open/high/low/close bars: grouped
  argmin/argmax-BY a composite (ts, event_id) order key carried through
  MERGEABLE per-batch partials, so facts never shuffle.
- ``events_minmax_norm`` — per-type min-max feature scaling: map-side
  (type, lo, hi) partials -> driver dict broadcast -> map-only normalize.
- ``inverted_index`` — term -> posting-list build with an exact df and a
  deterministic first-K ascending postings cap (hot-list bound).

Reference parity note: these generalize SURVEY §2 families A6/A7
(metric rollups), J8 (retrieval scoring), and M15/M16 (tokenizer-adjacent
preprocessing) to the mining shapes the reference's downstream consumers
run outside the engine; reference has no analog (service code only).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrowutil import rename_agg
from ..functions.pairs import capped_members, group_pairs, group_starts
from ..stages.shuffle import group_aggregate
from .analytics import _cents, _read

# ------------------------------------------------------------- grouped OLS


def regression_by_flag(sf_dir: str):
    """Grouped simple linear regression price ~ quantity per returnflag.

    Same exact-integer sufficient statistics as lineitem_corr_by_flag
    (qty rounded to int, price to whole dollars via cents // 100 — tie-free
    integer division on both engines); slope/intercept/r2 are each ONE
    double expression written identically in REGRESSION_SQL, so parity is
    bit-exact without trusting either engine's regr_* kernels."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"])

    def products(t: pa.Table) -> pa.Table:
        x = pc.cast(pc.round(t.column("l_quantity")), pa.int64())
        y = pc.divide(_cents(t.column("l_extendedprice")), pa.scalar(100, pa.int64()))
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "x": x,
                "y": y,
                "xx": pc.multiply(x, x),
                "yy": pc.multiply(y, y),
                "xy": pc.multiply(x, y),
            }
        )

    sums = group_aggregate(
        ds.map_batches(products, batch_format="pyarrow"), "l_returnflag",
        {"n": ("count", None), **{"s" + c: ("sum", c) for c in ("x", "y", "xx", "yy", "xy")}},
    )

    def finalize(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.float64)
        sx = t.column("sx").to_numpy().astype(np.float64)
        sy = t.column("sy").to_numpy().astype(np.float64)
        sxx = t.column("sxx").to_numpy().astype(np.float64)
        syy = t.column("syy").to_numpy().astype(np.float64)
        sxy = t.column("sxy").to_numpy().astype(np.float64)
        num = n * sxy - sx * sy
        dxx = n * sxx - sx * sx
        dyy = n * syy - sy * sy
        slope = num / dxx
        intercept = (sy - slope * sx) / n
        r2 = (num * num) / (dxx * dyy)
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "n": pc.cast(t.column("n"), pa.int64()),
                "slope": pa.array(slope, pa.float64()),
                "intercept": pa.array(intercept, pa.float64()),
                "r2": pa.array(r2, pa.float64()),
            }
        )

    return sums.map_batches(finalize, batch_format="pyarrow")


REGRESSION_SQL = """
WITH s AS (
  SELECT l_returnflag,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sx,
         CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT) // 100) AS BIGINT) AS sy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT) * CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sxx,
         CAST(sum((CAST(round(l_extendedprice*100) AS BIGINT) // 100)
                  * (CAST(round(l_extendedprice*100) AS BIGINT) // 100)) AS BIGINT) AS syy,
         CAST(sum(CAST(round(l_quantity) AS BIGINT)
                  * (CAST(round(l_extendedprice*100) AS BIGINT) // 100)) AS BIGINT) AS sxy
  FROM lineitem GROUP BY l_returnflag
), d AS (
  SELECT l_returnflag, n,
         CAST(n AS DOUBLE) AS nf, CAST(sx AS DOUBLE) AS sxf, CAST(sy AS DOUBLE) AS syf,
         CAST(sxx AS DOUBLE) AS sxxf, CAST(syy AS DOUBLE) AS syyf, CAST(sxy AS DOUBLE) AS sxyf
  FROM s
)
SELECT l_returnflag, n,
       (nf*sxyf - sxf*syf) / (nf*sxxf - sxf*sxf) AS slope,
       (syf - ((nf*sxyf - sxf*syf) / (nf*sxxf - sxf*sxf)) * sxf) / nf AS intercept,
       ((nf*sxyf - sxf*syf) * (nf*sxyf - sxf*syf))
         / ((nf*sxxf - sxf*sxf) * (nf*syyf - syf*syf)) AS r2
FROM d
"""


# --------------------------------------------------------- basket pair lift

POSTING_CAP = 1000  # pairs per key bounded by C(cap, 2); far above TPC-H fanout


def basket_pair_lift(sf_dir: str, min_pairs: int = 3,
                     basket_cap: int = POSTING_CAP):
    """Market-basket mining over orders: unordered part pairs (p1 < p2)
    co-occurring in the same order, with pair support, per-item support,
    and lift = n_orders * pair_n / (n_p1 * n_p2).

    Scale shape: ONE order-bucketed shuffle of the 2-column (orderkey,
    partkey) projection co-locates each basket; inside the bucket the
    distinct (order, part) set and the within-basket pairs both come from
    the pair kernel (``functions/pairs.py``: vectorized, never a self-join
    of the fact table). A degenerate mega-basket wider than ``basket_cap``
    is uniformly truncated by the kernel (hash order, drop counted +
    logged) before pair generation, so one hot order can never go
    quadratic; per-part and per-order supports stay exact. Pair counts, per-part order counts and the distinct
    order count ride ONE tagged (kind, a, b) ``group_aggregate`` sum
    — the exchange carries pre-reduced partials only. Item supports broadcast back onto
    the pair relation via lookup_join (part-dimension-sized). All counts
    are exact int64; lift is one double expression floor-truncated to 6 dp
    (the vocab_stats discipline) identically in BASKET_LIFT_SQL.
    n_orders * pair_n stays far inside int64 (n_orders ≤ ~1e10 even at
    100 TB; pair_n ≤ n_orders)."""
    from ..stages.shuffle import bucket_group_apply, lookup_join

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    EMPTY = pa.schema(
        [("kind", pa.int64()), ("a", pa.int64()), ("b", pa.int64()),
         ("partial", pa.int64())]
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        # distinct (order, part): an order can hold the same part on several
        # lines; distinct-set semantics for support counts
        keep = capped_members([ok], pk, None, "basket_pair_lift", bucket_id)
        ok, pk = ok[keep], pk[keep]
        if len(ok) == 0:
            return EMPTY.empty_table()
        # mega-baskets: the kernel caps them to basket_cap members before
        # pair generation (support counts below stay exact from the FULL arrays)
        ia, ib = group_pairs([ok], pk, basket_cap, "basket_pair_lift", bucket_id)
        rows = [
            # kind=2: distinct orders seen by this bucket (orders never
            # straddle buckets — the shuffle key IS the order key)
            pa.table(
                {
                    "kind": pa.array([2], pa.int64()),
                    "a": pa.array([-1], pa.int64()),
                    "b": pa.array([-1], pa.int64()),
                    "partial": pa.array([len(group_starts([ok]))], pa.int64()),
                }
            )
        ]
        # kind=1: per-part order support (deduped above, so count_all works)
        item = pa.TableGroupBy(pa.table({"a": pa.array(pk, pa.int64())}), "a").aggregate(
            [([], "count_all")]
        )
        rows.append(
            pa.table(
                {
                    "kind": pa.array(np.ones(item.num_rows, dtype=np.int64)),
                    "a": item.column("a"),
                    "b": pa.array(np.full(item.num_rows, -1), pa.int64()),
                    "partial": pc.cast(item.column("count_all"), pa.int64()),
                }
            )
        )
        if len(ia):
            raw = pa.table(
                {
                    "a": pa.array(pk[ia], pa.int64()),
                    "b": pa.array(pk[ib], pa.int64()),
                }
            )
            pair = pa.TableGroupBy(raw, ["a", "b"]).aggregate([([], "count_all")])
            rows.append(
                pa.table(
                    {
                        "kind": pa.array(np.zeros(pair.num_rows, dtype=np.int64)),
                        "a": pair.column("a"),
                        "b": pair.column("b"),
                        "partial": pc.cast(pair.column("count_all"), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(rows)

    counts = group_aggregate(
        bucket_group_apply(ds, ["l_orderkey"], bucket_fn, n_buckets=64),
        ["kind", "a", "b"], {"n": ("sum", "partial")},
    ).materialize()  # reused three ways below (pair/item/order splits)

    n_orders = int(
        counts.filter(expr="kind == 2").sum("n")  # single tagged scalar row
    )

    items = counts.filter(expr="kind == 1").map_batches(
        lambda t: pa.table({"pk": t.column("a"), "item_n": t.column("n")}),
        batch_format="pyarrow",
    )

    pairs = counts.filter(expr="kind == 0").map_batches(
        lambda t: (
            lambda kept: pa.table(
                {"p1": kept.column("a"), "p2": kept.column("b"), "pair_n": kept.column("n")}
            )
        )(t.filter(pc.greater_equal(t.column("n"), min_pairs))),
        batch_format="pyarrow",
    )

    j1 = lookup_join(pairs, items, key="p1", right_key="pk", unique_right=True)
    j2 = lookup_join(
        j1.map_batches(
            lambda t: t.rename_columns(
                ["p1", "p2", "pair_n", "n1"]
            ),
            batch_format="pyarrow",
        ),
        items,
        key="p2",
        right_key="pk",
        unique_right=True,
    )

    def finalize(t: pa.Table) -> pa.Table:
        pair_n = t.column("pair_n").to_numpy()
        n1 = t.column("n1").to_numpy()
        n2 = t.column("item_n").to_numpy()
        lift = (
            np.floor(
                1e6 * ((n_orders * pair_n).astype(np.float64) / (n1 * n2).astype(np.float64))
            )
            / 1e6
        )
        return pa.table(
            {
                "p1": t.column("p1"),
                "p2": t.column("p2"),
                "pair_n": pair_n,
                "lift": pa.array(lift, pa.float64()),
            }
        )

    return j2.map_batches(finalize, batch_format="pyarrow")


def basket_lift_sql(min_pairs: int = 3) -> str:
    return f"""
    WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    t AS (SELECT CAST(count(DISTINCT l_orderkey) AS BIGINT) AS n_orders FROM op),
    ic AS (SELECT l_partkey, CAST(count(*) AS BIGINT) AS item_n FROM op GROUP BY 1),
    pc AS (
      SELECT a.l_partkey AS p1, b.l_partkey AS p2, CAST(count(*) AS BIGINT) AS pair_n
      FROM op a JOIN op b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2
      HAVING count(*) >= {min_pairs}
    )
    SELECT p1, p2, pair_n,
           floor(1e6 * (CAST(t.n_orders * pair_n AS DOUBLE)
                        / CAST(ia.item_n * ib.item_n AS DOUBLE))) / 1e6 AS lift
    FROM pc, t
    JOIN ic ia ON ia.l_partkey = pc.p1
    JOIN ic ib ON ib.l_partkey = pc.p2
    """


# ---------------------------------------------------------- keyed band join


BAND_US = 30 * 60 * 1_000_000  # 30 minutes in microseconds


def _grouped_searchsorted_left(g_keys: np.ndarray, g_vals: np.ndarray,
                               q_keys: np.ndarray, q_vals: np.ndarray) -> np.ndarray:
    """Vectorized per-group ``np.searchsorted(..., side='left')``: for each
    query (q_key, q_val), the GLOBAL insertion position into the
    (g_keys, g_vals)-lexsorted array restricted to its own key's segment —
    i.e. the count of g rows strictly before it in (key, val) order.

    One merge-lexsort of the concatenated arrays replaces the per-key
    Python loop (VERDICT r4 #5): queries sort BEFORE equal-valued g rows
    (the 'left' tie rule), so the running count of g rows at each query's
    sorted position IS its insertion index. No composite key×span
    arithmetic anywhere, so no int64-overflow risk at cluster scale.
    Queries whose key has no g rows land on their key's empty boundary
    (lo == hi downstream)."""
    n_g = len(g_vals)
    keys = np.concatenate([g_keys, q_keys])
    vals = np.concatenate([g_vals, q_vals])
    is_g = np.zeros(len(keys), dtype=np.int64)
    is_g[:n_g] = 1
    order = np.lexsort((is_g, vals, keys))
    is_g_sorted = is_g[order]
    cum_g = np.cumsum(is_g_sorted)
    q_pos_sorted = np.flatnonzero(is_g_sorted == 0)
    out = np.empty(len(q_keys), dtype=np.int64)
    out[order[q_pos_sorted] - n_g] = cum_g[q_pos_sorted]
    return out


def events_band_join(sf_dir: str):
    """Keyed interval (band) join: for EVERY purchase event, the count and
    cents-exact value sum of same-user click events in [ts-30min, ts).

    The range-join class (join on equi-key AND a time band) — distinct
    from events_asof_click, which keeps only the single nearest
    predecessor. Scale shape: one user-bucketed shuffle of the filtered
    4-column projection (both event families land in the same bucket by
    key, the partitioning assumption this operator relies on); inside the
    bucket, clicks are sorted by (user, ts) once and BOTH window bounds
    come from _grouped_searchsorted_left — a single merge-lexsort per
    bound that yields every purchase's grouped 'left' insertion position
    at once (no per-user Python loop, and no composite user*span+ts key
    whose int64 product could overflow at cluster scale); the value
    rollup is a click-prefix-sum difference. Purchases with zero
    in-window clicks are preserved (LEFT semantics), matching
    BAND_JOIN_SQL's LEFT JOIN."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def prefilter(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("event_type"), value_set=pa.array(["purchase", "click"]))
        return t.filter(m)

    EMPTY = pa.schema(
        [("purchase_id", pa.int64()), ("n_clicks", pa.int64()),
         ("click_cents", pa.int64())]
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        cents = _cents(t.column("value")).to_numpy(zero_copy_only=False)

        is_p = et == "purchase"
        if not is_p.any():
            return EMPTY.empty_table()
        is_c = et == "click"

        p_uid, p_ts, p_eid = uid[is_p], ts[is_p], eid[is_p]
        co = np.lexsort((ts[is_c], uid[is_c]))
        c_uid, c_ts = uid[is_c][co], ts[is_c][co]
        c_psum = np.r_[0, np.cumsum(cents[is_c][co])]

        # fully vectorized band probe: both window bounds are grouped
        # 'left' insertion positions into the (user, ts)-sorted clicks —
        # one merge-lexsort each, zero per-user Python
        lo = _grouped_searchsorted_left(c_uid, c_ts, p_uid, p_ts - BAND_US)
        hi = _grouped_searchsorted_left(c_uid, c_ts, p_uid, p_ts)
        n_clicks = hi - lo
        c_sum = c_psum[hi] - c_psum[lo]
        return pa.table(
            {
                "purchase_id": pa.array(p_eid, pa.int64()),
                "n_clicks": pa.array(n_clicks, pa.int64()),
                "click_cents": pa.array(c_sum, pa.int64()),
            }
        )

    filtered = ds.map_batches(prefilter, batch_format="pyarrow")
    return bucket_group_apply(filtered, ["user_id"], bucket_fn, n_buckets=32)


BAND_JOIN_SQL = f"""
SELECT p.event_id AS purchase_id,
       CAST(count(c.event_id) AS BIGINT) AS n_clicks,
       CAST(COALESCE(sum(CAST(round(c.value*100) AS BIGINT)), 0) AS BIGINT) AS click_cents
FROM events p
LEFT JOIN events c
  ON c.user_id = p.user_id
 AND c.event_type = 'click'
 AND c.ts >= p.ts - INTERVAL 30 MINUTE
 AND c.ts <  p.ts
WHERE p.event_type = 'purchase'
GROUP BY p.event_id
"""


# --------------------------------------------------------------- BPE merges


def _apply_merge_np(flat: np.ndarray, offsets: np.ndarray, left: str, right: str):
    """Greedy leftmost-first application of ONE merge (left,right)->leftright
    over a flattened symbol array with word offsets. Vectorized: match
    positions that fall in consecutive runs (the 'aaaa' overlap case) keep
    alternating members starting at each run head — exactly the serial
    left-to-right scan's choice. Returns (new_flat, new_offsets)."""
    n = len(flat)
    if n < 2:
        return flat, offsets
    widths = np.diff(offsets)
    word_idx = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
    match = (flat[:-1] == left) & (flat[1:] == right) & (word_idx[:-1] == word_idx[1:])
    pos = np.flatnonzero(match)
    if len(pos) == 0:
        return flat, offsets
    # consecutive positions form runs; keep run head, then every other one
    run_id = pos - np.arange(len(pos))
    _, run_start_idx = np.unique(run_id, return_index=True)
    run_start = np.repeat(pos[run_start_idx], np.diff(np.r_[run_start_idx, len(pos)]))
    kept = pos[(pos - run_start) % 2 == 0]

    merged = left + right
    out = flat.copy()
    out[kept] = merged
    drop = np.zeros(n, dtype=bool)
    drop[kept + 1] = True
    new_flat = out[~drop]
    removed_per_word = np.bincount(word_idx[kept], minlength=len(widths))
    new_offsets = np.r_[0, np.cumsum(widths - removed_per_word)]
    return new_flat, new_offsets


def _top_pair(t: pa.Table) -> pa.Table:
    return t.sort_by([("n", "descending"), ("l", "ascending"), ("r", "ascending")]).slice(0, 1)


def bpe_merges(sf_dir: str, n_merges: int = 20, min_pair: int = 2):
    """Byte-pair-encoding merge-table training (Sennrich et al. 2016) over
    the documents corpus — the tokenizer-training step of an LLM data
    pipeline.

    Scale shape: the only corpus-scale pass is the word-frequency groupby
    (pre-reduced per batch). Every merge round then runs over the VOCAB
    dataset (unique words — sublinear in corpus size): a per-batch
    adjacent-pair count weighted by word frequency (offsets shift trick,
    no row loops), a (l, r)-keyed Sum, and a per-block top-1 whose rows
    (one per block) are all the driver sees; the merge itself is a
    vectorized map-side rewrite (_apply_merge_np) with greedy-leftmost
    overlap semantics. The
    vocab is re-materialized per round to keep the lazy plan flat (20
    rounds × vocab-sized blocks). Returns the learned merge table
    (rank, left, right, pair_n) — inherently driver-sized (n_merges
    rows). Non-SQL-expressible (iterative argmax); pinned against a
    serial reference in tests/test_mining.py."""
    docs = _read(sf_dir, "documents", ["text"])

    def words(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("text"), pattern=" ")
        return pa.table({"word": parts.combine_chunks().flatten()})

    vocab_words = group_aggregate(
        docs.map_batches(words, batch_format="pyarrow"), "word", {"cnt": ("count", None)}
    )

    def to_symbols(t: pa.Table) -> pa.Table:
        words = t.column("word").to_pylist()
        # vocab-sized one-time char split (unique words, not the corpus)
        syms = [list(w) for w in words]
        return pa.table(
            {
                "syms": pa.array(syms, pa.list_(pa.string())),
                "cnt": t.column("cnt"),
            }
        )

    vocab = vocab_words.map_batches(to_symbols, batch_format="pyarrow").materialize()

    def pair_partial(t: pa.Table) -> pa.Table:
        lists = t.column("syms").combine_chunks()
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = lists.flatten().to_numpy(zero_copy_only=False)
        cnt = t.column("cnt").to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        word_idx = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
        if len(flat) < 2:
            return pa.table(
                {"l": pa.array([], pa.string()), "r": pa.array([], pa.string()),
                 "partial": pa.array([], pa.int64())}
            )
        same = word_idx[:-1] == word_idx[1:]
        raw = pa.table(
            {
                "l": pa.array(flat[:-1][same], pa.string()),
                "r": pa.array(flat[1:][same], pa.string()),
                "w": pa.array(cnt[word_idx[:-1][same]], pa.int64()),
            }
        )
        agg = pa.TableGroupBy(raw, ["l", "r"]).aggregate([("w", "sum")])
        return pa.table(
            {"l": agg.column("l"), "r": agg.column("r"),
             "partial": agg.column("w_sum")}
        )

    merges = []
    for rank in range(n_merges):
        # argmax with the (n desc, l, r) tiebreak: each block's best row,
        # then the best of those; no second exchange
        top = sorted(
            group_aggregate(vocab.map_batches(pair_partial, batch_format="pyarrow"),
                            ["l", "r"], {"n": ("sum", "partial")})
            .map_batches(_top_pair, batch_format="pyarrow")
            .take_all(),
            key=lambda r: (-r["n"], r["l"], r["r"]),
        )
        if not top or int(top[0]["n"]) < min_pair:
            break
        left, right, pair_n = top[0]["l"], top[0]["r"], int(top[0]["n"])
        merges.append((rank, left, right, pair_n))

        def apply_merge(t: pa.Table, left=left, right=right) -> pa.Table:
            lists = t.column("syms").combine_chunks()
            offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            flat = lists.flatten().to_numpy(zero_copy_only=False)
            new_flat, new_offs = _apply_merge_np(flat, offs, left, right)
            return pa.table(
                {
                    "syms": pa.ListArray.from_arrays(
                        pa.array(new_offs, pa.int32()), pa.array(new_flat, pa.string())
                    ),
                    "cnt": t.column("cnt"),
                }
            )

        vocab = vocab.map_batches(apply_merge, batch_format="pyarrow").materialize()

    return pa.table(
        {
            "rank": pa.array([m[0] for m in merges], pa.int64()),
            "left": pa.array([m[1] for m in merges], pa.string()),
            "right": pa.array([m[2] for m in merges], pa.string()),
            "pair_n": pa.array([m[3] for m in merges], pa.int64()),
        }
    )


def bpe_merges_serial(word_counts: dict, n_merges: int = 20, min_pair: int = 2):
    """Serial reference: classic dict-based BPE training with greedy
    leftmost-first merge application. Used only by tests to pin
    bpe_merges; deterministic tiebreak (max count, then lexicographic
    (l, r))."""
    vocab = {w: list(w) for w in word_counts}
    merges = []
    for rank in range(n_merges):
        pair_counts: dict = {}
        for w, syms in vocab.items():
            c = word_counts[w]
            for i in range(len(syms) - 1):
                k = (syms[i], syms[i + 1])
                pair_counts[k] = pair_counts.get(k, 0) + c
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        (left, right), n = best
        if n < min_pair:
            break
        merges.append((rank, left, right, n))
        merged = left + right
        for w, syms in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return merges


# ------------------------------------------------- bipartite Jaccard pairs


def supplier_jaccard(sf_dir: str, min_common: int = 2,
                     posting_cap: int = POSTING_CAP):
    """Supplier similarity by shared parts: the bipartite-projection
    similarity join (who supplies like whom), jaccard = |A∩B| / |A∪B|
    over each supplier's distinct part set.

    Scale shape: the inverted-index pair generation — ONE part-bucketed
    shuffle of the deduped (part, supplier) projection; pairs (s1 < s2)
    are generated per part posting list by the pair kernel
    (``functions/pairs.py``), so the candidate count is
    Σ C(min(fanout, posting_cap), 2): posting lists wider than
    ``posting_cap`` are uniformly truncated (hash order, drop counted +
    logged) before pair generation, never a supplier self-join and never
    quadratic in one hot part's fanout.
    Set sizes stay exact; intersections touching a truncated list
    undercount (the bounded-candidate policy).
    Intersection counts and per-supplier set sizes ride one tagged
    ``group_aggregate`` sum; sizes broadcast back via lookup_join (supplier-dimension
    sized). All counts exact int64; jaccard is one double division
    floor-truncated to 6 dp identically in SUPPLIER_JACCARD_SQL."""
    from ..stages.shuffle import bucket_group_apply, lookup_join

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    EMPTY = pa.schema(
        [("kind", pa.int64()), ("a", pa.int64()), ("b", pa.int64()),
         ("partial", pa.int64())]
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False)
        keep = capped_members([pk], sk, None, "supplier_jaccard", bucket_id)
        pk, sk = pk[keep], sk[keep]
        if len(pk) == 0:
            return EMPTY.empty_table()
        # hot posting lists: the kernel caps them to posting_cap suppliers
        # before pair generation (set sizes below stay exact from the FULL
        # arrays; intersection counts for truncated parts undercount — the
        # bounded-candidate policy, identical to material_comentions)
        ia, ib = group_pairs([pk], sk, posting_cap, "supplier_jaccard", bucket_id)
        rows = []
        sizes = pa.TableGroupBy(pa.table({"a": pa.array(sk, pa.int64())}), "a").aggregate(
            [([], "count_all")]
        )
        rows.append(
            pa.table(
                {
                    "kind": pa.array(np.ones(sizes.num_rows, dtype=np.int64)),
                    "a": sizes.column("a"),
                    "b": pa.array(np.full(sizes.num_rows, -1), pa.int64()),
                    "partial": pc.cast(sizes.column("count_all"), pa.int64()),
                }
            )
        )
        if len(ia):
            raw = pa.table(
                {
                    "a": pa.array(sk[ia], pa.int64()),
                    "b": pa.array(sk[ib], pa.int64()),
                }
            )
            inter = pa.TableGroupBy(raw, ["a", "b"]).aggregate([([], "count_all")])
            rows.append(
                pa.table(
                    {
                        "kind": pa.array(np.zeros(inter.num_rows, dtype=np.int64)),
                        "a": inter.column("a"),
                        "b": inter.column("b"),
                        "partial": pc.cast(inter.column("count_all"), pa.int64()),
                    }
                )
            )
        return pa.concat_tables(rows)

    counts = group_aggregate(
        bucket_group_apply(ds, ["l_partkey"], bucket_fn, n_buckets=64),
        ["kind", "a", "b"], {"n": ("sum", "partial")},
    ).materialize()  # reused: sizes + intersections

    sizes = counts.filter(expr="kind == 1").map_batches(
        lambda t: pa.table({"sk": t.column("a"), "set_n": t.column("n")}),
        batch_format="pyarrow",
    )
    inter = counts.filter(expr="kind == 0").map_batches(
        lambda t: (
            lambda kept: pa.table(
                {"s1": kept.column("a"), "s2": kept.column("b"),
                 "inter_n": kept.column("n")}
            )
        )(t.filter(pc.greater_equal(t.column("n"), min_common))),
        batch_format="pyarrow",
    )

    j1 = lookup_join(inter, sizes, key="s1", right_key="sk", unique_right=True)
    j2 = lookup_join(
        j1.map_batches(
            lambda t: t.rename_columns(["s1", "s2", "inter_n", "n1"]),
            batch_format="pyarrow",
        ),
        sizes,
        key="s2",
        right_key="sk",
        unique_right=True,
    )

    def finalize(t: pa.Table) -> pa.Table:
        inter_n = t.column("inter_n").to_numpy()
        n1 = t.column("n1").to_numpy()
        n2 = t.column("set_n").to_numpy()
        jac = (
            np.floor(1e6 * (inter_n.astype(np.float64) / (n1 + n2 - inter_n).astype(np.float64)))
            / 1e6
        )
        return pa.table(
            {
                "s1": t.column("s1"),
                "s2": t.column("s2"),
                "inter_n": inter_n,
                "jaccard": pa.array(jac, pa.float64()),
            }
        )

    return j2.map_batches(finalize, batch_format="pyarrow")


def supplier_jaccard_sql(min_common: int = 2) -> str:
    return f"""
    WITH sp AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
    sz AS (SELECT l_suppkey, CAST(count(*) AS BIGINT) AS n FROM sp GROUP BY 1),
    ix AS (
      SELECT a.l_suppkey AS s1, b.l_suppkey AS s2, CAST(count(*) AS BIGINT) AS inter_n
      FROM sp a JOIN sp b
        ON a.l_partkey = b.l_partkey AND a.l_suppkey < b.l_suppkey
      GROUP BY 1, 2
      HAVING count(*) >= {min_common}
    )
    SELECT s1, s2, inter_n,
           floor(1e6 * (CAST(inter_n AS DOUBLE)
                        / CAST(za.n + zb.n - inter_n AS DOUBLE))) / 1e6 AS jaccard
    FROM ix
    JOIN sz za ON za.l_suppkey = ix.s1
    JOIN sz zb ON zb.l_suppkey = ix.s2
    """


# -------------------------------------------------- reciprocal-rank fusion


RRF_K = 60
RRF_QUERY = "window merge join"
RRF_VEC_QUERY = 0


def rrf_retrieval(sf_dir: str, k_each: int = 50, top_n: int = 20):
    """Hybrid retrieval via reciprocal-rank fusion (Cormack et al. 2009):
    fuse the dense ranking (exact cosine kNN for query vector RRF_VEC_QUERY
    over the embeddings table) with the sparse ranking (BM25 for RRF_QUERY
    over documents) by rrf = Σ 1/(60 + rank), the standard RAG two-tower
    merge. Ids are fused on the shared vec_id/doc_id key space of the
    synthetic tables.

    Scale shape: both legs end in a global top-``k_each`` (kNN's per-batch
    heap merge; BM25's sort+limit), so the fusion itself is a k-sized
    driver merge — never a corpus join. Ranks derive from each leg's
    ALREADY hash-verified truncated scores with id tiebreaks, the fused
    score is two exact double terms added in a fixed order and
    floor-truncated to 6 dp, and the final top-``top_n`` orders by
    (truncated rrf desc, id asc) — all mirrored in RRF_SQL."""
    from ..sources.cleanscan import read_parquet_clean
    from ..stages import similarity as sim
    from ..stages import textstats as ts

    embs = read_parquet_clean(f"{sf_dir}/embeddings.parquet")
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    knn = sim.knn_cosine(embs, query_ids=[RRF_VEC_QUERY], k=k_each)
    if not hasattr(knn, "sort_values"):  # Dataset/Table -> DataFrame
        knn = knn.to_pandas()
    knn_df = knn.sort_values(
        ["cos_sim", "vec_id"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    bm = ts.bm25_scores(docs, RRF_QUERY)
    bm_df = (
        bm.sort(["score", "doc_id"], descending=[True, False])
        .limit(k_each)
        .to_pandas()
    )

    scores: dict[int, float] = {}
    for rank, vid in enumerate(knn_df["vec_id"], start=1):
        scores[int(vid)] = scores.get(int(vid), 0.0) + 1.0 / (RRF_K + rank)
    for rank, did in enumerate(bm_df["doc_id"], start=1):
        scores[int(did)] = scores.get(int(did), 0.0) + 1.0 / (RRF_K + rank)

    ids = sorted(scores)
    rrf = np.floor(1e6 * np.array([scores[i] for i in ids], dtype=np.float64)) / 1e6
    order = np.lexsort((ids, -rrf))[:top_n]
    return pa.table(
        {
            "id": pa.array(np.array(ids, dtype=np.int64)[order], pa.int64()),
            "rrf_score": pa.array(rrf[order], pa.float64()),
        }
    )


def rrf_sql(k_each: int = 50, top_n: int = 20) -> str:
    from ..stages.similarity import knn_cosine_sql
    from ..stages.textstats import bm25_scores_sql

    return f"""
    WITH knn AS ({knn_cosine_sql(query_ids=[RRF_VEC_QUERY], k=k_each)}),
    knn_r AS (
      SELECT vec_id AS id,
             row_number() OVER (ORDER BY cos_sim DESC, vec_id ASC) AS r
      FROM knn
    ),
    bm AS ({bm25_scores_sql(RRF_QUERY)}),
    bm_r AS (
      SELECT id, r FROM (
        SELECT doc_id AS id,
               row_number() OVER (ORDER BY score DESC, doc_id ASC) AS r
        FROM bm
      ) WHERE r <= {k_each}
    ),
    f AS (
      SELECT COALESCE(k.id, b.id) AS id,
             floor(1e6 * (COALESCE(1.0 / ({RRF_K} + k.r), 0.0)
                          + COALESCE(1.0 / ({RRF_K} + b.r), 0.0))) / 1e6 AS rrf_score
      FROM knn_r k FULL OUTER JOIN bm_r b ON k.id = b.id
    )
    SELECT id, rrf_score FROM f ORDER BY rrf_score DESC, id ASC LIMIT {top_n}
    """


# --------------------------------------------- distinctive terms per group


def distinctive_terms_llr(sf_dir: str, min_count: int = 10, top_k: int = 15):
    """Dunning (1993) log-likelihood-ratio keyword extraction: for each
    language, the top-k terms most over/under-represented vs the rest of
    the corpus — the corpus-linguistics 'distinctive vocabulary' operator.

    All contingency cells (a = term-in-lang, b = term-elsewhere, c =
    other-terms-in-lang, d = rest) are exact int64 from ONE (lang, word)
    groupby; per-lang and per-word totals are vocab-sized reduces joined
    back via broadcast lookup_join. The statistic uses the
    well-conditioned per-cell form 2·Σ O·ln(O·N / (rowtot·coltot)) —
    each ln argument is a ratio near 1, so cross-engine libm ulp noise
    stays ~1e-10 — and is floor-truncated at 3 dp (not 6: the 9-term
    expression carries more float noise than a single-ln PMI) identically
    in DISTINCTIVE_LLR_SQL. Ranking ties break on (llr desc, word asc);
    the final per-lang top-k runs in one bucket apply keyed on lang over
    vocab-sized rows."""
    from ..stages.shuffle import bucket_group_apply, lookup_join

    docs = _read(sf_dir, "documents", ["lang", "text"])

    def lang_words(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column("text"), pattern=" ").combine_chunks()
        offs = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        words = parts.flatten()
        widths = np.diff(offs)
        langs = pc.take(
            t.column("lang"),
            pa.array(np.repeat(np.arange(len(widths), dtype=np.int64), widths)),
        )
        return pa.table({"lang": langs, "word": words})

    lw = group_aggregate(
        docs.map_batches(lang_words, batch_format="pyarrow"), ["lang", "word"],
        {"a": ("count", None)},
    ).materialize()  # reused: totals + the scored relation

    lang_tot = group_aggregate(lw, "lang", {"t": ("sum", "a")})
    word_tot = group_aggregate(lw, "word", {"g": ("sum", "a")})
    n_total = int(lw.sum("a") or 0)

    j1 = lookup_join(
        lw.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("a"), min_count)),
            batch_format="pyarrow",
        ),
        lang_tot, key="lang", unique_right=True,
    )
    j2 = lookup_join(j1, word_tot, key="word", unique_right=True)

    def score(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy().astype(np.float64)
        tt = t.column("t").to_numpy().astype(np.float64)
        g = t.column("g").to_numpy().astype(np.float64)
        n = float(n_total)
        b = g - a
        c = tt - a
        d = n - g - tt + a

        def term(o, row, col):
            with np.errstate(divide="ignore", invalid="ignore"):
                v = o * np.log(o * n / (row * col))
            return np.where(o == 0.0, 0.0, v)

        llr = 2.0 * (
            term(a, tt, g) + term(b, n - tt, g) + term(c, tt, n - g) + term(d, n - tt, n - g)
        )
        return pa.table(
            {
                "lang": t.column("lang"),
                "word": t.column("word"),
                "a": t.column("a"),
                "llr": pa.array(np.floor(1e3 * llr) / 1e3, pa.float64()),
            }
        )

    scored = j2.map_batches(score, batch_format="pyarrow")

    def topk(t: pa.Table, bucket_id: int) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("lang", "ascending"), ("llr", "descending"), ("word", "ascending")]))
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(lang[1:] != lang[:-1]) + 1]
        rank = np.arange(len(lang)) - np.repeat(starts, np.diff(np.r_[starts, len(lang)]))
        return t.filter(pa.array(rank < top_k))

    return bucket_group_apply(scored, ["lang"], topk, n_buckets=8)


def distinctive_llr_sql(min_count: int = 10, top_k: int = 15) -> str:
    def term(o, row, col):
        return (
            f"CASE WHEN {o} = 0 THEN 0.0 ELSE CAST({o} AS DOUBLE) * "
            f"ln(CAST({o} AS DOUBLE) * nf / (CAST({row} AS DOUBLE) * CAST({col} AS DOUBLE))) END"
        )

    return f"""
    WITH w AS (
      SELECT lang, unnest(string_split(text, ' ')) AS word FROM documents
    ),
    lw AS (SELECT lang, word, CAST(count(*) AS BIGINT) AS a FROM w GROUP BY 1, 2),
    lt AS (SELECT lang, CAST(sum(a) AS BIGINT) AS t FROM lw GROUP BY 1),
    wt AS (SELECT word, CAST(sum(a) AS BIGINT) AS g FROM lw GROUP BY 1),
    nn AS (SELECT CAST(sum(a) AS BIGINT) AS n FROM lw),
    x AS (
      SELECT lw.lang, lw.word, lw.a, lt.t, wt.g, nn.n,
             CAST(nn.n AS DOUBLE) AS nf,
             wt.g - lw.a AS b, lt.t - lw.a AS c, nn.n - wt.g - lt.t + lw.a AS d
      FROM lw JOIN lt USING (lang) JOIN wt USING (word), nn
      WHERE lw.a >= {min_count}
    ),
    scored AS (
      SELECT lang, word, a,
             floor(1e3 * (2.0 * ({term('a', 't', 'g')}
                                 + {term('b', 'n - t', 'g')}
                                 + {term('c', 't', 'n - g')}
                                 + {term('d', 'n - t', 'n - g')}))) / 1e3 AS llr
      FROM x
    ),
    ranked AS (
      SELECT *, row_number() OVER (PARTITION BY lang ORDER BY llr DESC, word ASC) AS rn
      FROM scored
    )
    SELECT lang, word, a, llr FROM ranked WHERE rn <= {top_k}
    """


# ------------------------------------------------------------- FD audit


FD_CANDIDATES = (
    ("orders", "o_orderkey", "o_custkey"),      # PK -> attr: must hold
    ("orders", "o_custkey", "o_orderpriority"),  # expected violated
    ("lineitem", "l_partkey", "l_suppkey"),      # expected violated
)


def fd_audit(sf_dir: str):
    """Functional-dependency audit (the profiling companion to
    fk_integrity_audit): for each candidate LHS -> RHS, the number of
    distinct LHS values and how many of them map to MORE than one RHS
    (violations). A data-quality gate a pipeline runs before trusting a
    column as a join/dedup key.

    Scale shape per candidate: per-batch distinct (lhs, rhs) projection
    cuts the exchange toward the distinct-pair relation, ONE lhs-bucketed
    shuffle co-locates every lhs (so the per-bucket Arrow census —
    distinct pairs → rhs-count per lhs → two scalars — is EXACT and
    final), and the driver sums one 2-int row per bucket. No Ray
    multi-key sort aggregate anywhere.
    Counts exact int64; mirrored in FD_AUDIT_SQL as UNION ALL of
    per-candidate census blocks."""
    from ..stages.shuffle import bucket_group_apply

    rows = []
    for table, lhs, rhs in FD_CANDIDATES:
        dedup = _read(sf_dir, table, [lhs, rhs]).map_batches(
            lambda t, lhs=lhs, rhs=rhs: pa.TableGroupBy(
                t.select([lhs, rhs]), [lhs, rhs]
            ).aggregate([]),
            batch_format="pyarrow",
        )

        def census(t: pa.Table, bucket_id: int, lhs=lhs, rhs=rhs) -> pa.Table:
            distinct = pa.TableGroupBy(t.select([lhs, rhs]), [lhs, rhs]).aggregate([])
            per_l = pa.TableGroupBy(distinct, [lhs]).aggregate([([], "count_all")])
            viol = int(
                pc.sum(
                    pc.cast(pc.greater(per_l.column("count_all"), 1), pa.int64())
                ).as_py()
                or 0
            )
            return pa.table(
                {
                    "n_lhs": pa.array([per_l.num_rows], pa.int64()),
                    "viol": pa.array([viol], pa.int64()),
                }
            )

        g = bucket_group_apply(dedup, [lhs], census, n_buckets=16).sum(
            ["n_lhs", "viol"]
        ) or {}  # None on an empty candidate relation
        rows.append(
            (f"{table}.{lhs}->{rhs}", int(g.get("sum(n_lhs)") or 0),
             int(g.get("sum(viol)") or 0))
        )
    return pa.table(
        {
            "dependency": pa.array([r[0] for r in rows], pa.string()),
            "n_lhs": pa.array([r[1] for r in rows], pa.int64()),
            "n_violating": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def fd_audit_sql() -> str:
    blocks = []
    for table, lhs, rhs in FD_CANDIDATES:
        blocks.append(f"""
        SELECT '{table}.{lhs}->{rhs}' AS dependency,
               CAST(count(*) AS BIGINT) AS n_lhs,
               CAST(sum(CASE WHEN c > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating
        FROM (
          SELECT {lhs}, count(*) AS c
          FROM (SELECT DISTINCT {lhs}, {rhs} FROM {table})
          GROUP BY {lhs}
        )""")
    return " UNION ALL ".join(blocks)


# ----------------------------------------------------------- per-user EWMA


EWMA_ALPHA = 0.25


def events_user_ewma(sf_dir: str, alpha: float = EWMA_ALPHA):
    """Final exponentially-weighted moving average of event value per user
    (events in ts order, recursive form s_i = α·x_i + (1-α)·s_{i-1},
    s_0 = x_0 — pandas ewm(adjust=False) semantics), the online
    feature-engineering staple (recency-weighted user state).

    Scale shape: one user-bucketed shuffle; inside the bucket the whole
    batch is ONE weighted reduction — sort by (user, ts), build
    segment-relative positions, and compute s = Σ x_i·w_i per user via
    np.add.reduceat, where w_i = α(1-α)^(n-1-i) except w_0 = (1-α)^(n-1)
    — no per-row recurrence, no per-user Python loop. Weights use exact
    float exponent arithmetic; rows-only (a float recurrence has no
    deterministic SQL twin — DuckDB's sum order is unspecified), pinned
    against pandas ewm on planted and real slices in tests/test_mining.py.
    Events deeper than ~1500 positions from the end contribute below
    double precision; the power underflows to 0 harmlessly."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    EMPTY = pa.schema(
        [("user_id", pa.int64()), ("n_events", pa.int64()), ("ewma", pa.float64())]
    )

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        val = t.column("value").to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        if len(uid) == 0:
            return EMPTY.empty_table()
        # event_id tiebreak: the bucket shuffle does not preserve row order,
        # so equal-ts rows need a total order for a deterministic result
        order = np.lexsort((eid, ts, uid))
        uid, val = uid[order], val[order]
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        widths = np.diff(np.r_[starts, len(uid)])
        # position from segment END: n-1-i
        idx = np.arange(len(uid), dtype=np.int64)
        from_end = np.repeat(starts + widths, widths) - 1 - idx
        w = alpha * np.power(1.0 - alpha, from_end.astype(np.float64))
        # first element of each segment: weight (1-a)^(n-1), not a*(1-a)^(n-1)
        w[starts] = np.power(1.0 - alpha, (widths - 1).astype(np.float64))
        s = np.add.reduceat(val * w, starts)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_events": pa.array(widths, pa.int64()),
                "ewma": pa.array(s, pa.float64()),
            }
        )

    return bucket_group_apply(ds, ["user_id"], bucket_fn, n_buckets=32)


# ------------------------------------------------ CMS probe query wrapper

CMS_PROBES = (
    "the", "and", "data", "window", "merge", "join", "of", "to", "a", "zzzznever"
)


def _cms_query(sf_dir: str):
    """Count-Min estimates for a fixed probe list. The oracle is EXACT
    counts: at the test tiers the corpus vocabulary is far below the
    8192-column width, and the md5 hash is fixed, so collision-freedom for
    these probes is a deterministic property of the corpus (verified by the
    parity gate itself) — the same 'exact below k, estimate beyond'
    discipline the KMV sketch documents. At 100-TB vocabularies the SAME
    operator degrades gracefully to a bounded overestimate."""
    from ..sources.cleanscan import read_parquet_clean
    from ..stages.sketches import cms_token_estimates

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return cms_token_estimates(docs, CMS_PROBES)


def cms_probe_sql() -> str:
    vals = ", ".join(f"('{t}')" for t in CMS_PROBES)
    return f"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS t
      FROM documents
    ),
    c AS (SELECT t, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY 1)
    SELECT p.token, CAST(COALESCE(c.n, 0) AS BIGINT) AS est_count
    FROM (VALUES {vals}) p(token)
    LEFT JOIN c ON c.t = p.token
    """


# ------------------------------------------------------------- OHLC bars


def events_ohlc(sf_dir: str):
    """Per-(event_type, day) OHLC bars — the time-series downsampling
    aggregate (open/high/low/close under the deterministic (ts, event_id)
    order). The new shape vs first/last-per-user: argmin/argmax-BY a
    composite order key carried through a MERGEABLE partial — each batch
    reduces to one row per (type, day) holding its endpoint candidates
    (value + its order key), so the facts never shuffle; only the
    day-dimension-sized partials do (n_types x n_days x n_batches rows).
    Exact integer cents end to end; one final division mirrored in
    EVENTS_OHLC_SQL's first()/last() ORDER BY aggregates."""
    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "events", ["event_type", "ts", "event_id", "value"])

    PARTIAL = pa.schema(
        [("event_type", pa.string()), ("day", pa.string()),
         ("o_ts", pa.int64()), ("o_eid", pa.int64()), ("o_c", pa.int64()),
         ("c_ts", pa.int64()), ("c_eid", pa.int64()), ("c_c", pa.int64()),
         ("lo", pa.int64()), ("hi", pa.int64()), ("n", pa.int64())]
    )

    def _group_runs(et, day):
        """Run boundaries of the (et, day) composite under ANY ordering that
        sorts by it — callers lexsort first. Returns (starts, ends_excl)."""
        changed = np.r_[True, (et[1:] != et[:-1]) | (day[1:] != day[:-1])]
        starts = np.flatnonzero(changed)
        return starts, np.r_[starts[1:], len(et)]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return PARTIAL.empty_table()
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        ts = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        day = pc.strftime(t.column("ts"), format="%Y-%m-%d").to_numpy(
            zero_copy_only=False
        )
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        cents = _cents(t.column("value")).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, day, et))
        et, ts, day, eid, cents = (a[order] for a in (et, ts, day, eid, cents))
        s, e = _group_runs(et, day)
        return pa.table(
            {
                "event_type": pa.array(et[s], pa.string()),
                "day": pa.array(day[s], pa.string()),
                "o_ts": pa.array(ts[s], pa.int64()),
                "o_eid": pa.array(eid[s], pa.int64()),
                "o_c": pa.array(cents[s], pa.int64()),
                "c_ts": pa.array(ts[e - 1], pa.int64()),
                "c_eid": pa.array(eid[e - 1], pa.int64()),
                "c_c": pa.array(cents[e - 1], pa.int64()),
                "lo": pa.array(np.minimum.reduceat(cents, s), pa.int64()),
                "hi": pa.array(np.maximum.reduceat(cents, s), pa.int64()),
                "n": pa.array(e - s, pa.int64()),
            },
            schema=PARTIAL,
        )

    def merge_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        day = t.column("day").to_numpy(zero_copy_only=False)
        cols = {c: t.column(c).to_numpy(zero_copy_only=False) for c in
                ("o_ts", "o_eid", "o_c", "c_ts", "c_eid", "c_c", "lo", "hi", "n")}
        # open endpoint: row with the MIN (o_ts, o_eid) per group
        oo = np.lexsort((cols["o_eid"], cols["o_ts"], day, et))
        s, e = _group_runs(et[oo], day[oo])
        open_c = cols["o_c"][oo][s]
        # close endpoint: row with the MAX (c_ts, c_eid) per group
        co = np.lexsort((cols["c_eid"], cols["c_ts"], day, et))
        s2, e2 = _group_runs(et[co], day[co])
        close_c = cols["c_c"][co][e2 - 1]
        lo = np.minimum.reduceat(cols["lo"][oo], s)
        hi = np.maximum.reduceat(cols["hi"][oo], s)
        n = np.add.reduceat(cols["n"][oo], s)
        return pa.table(
            {
                "event_type": pa.array(et[oo][s], pa.string()),
                "day": pa.array(day[oo][s], pa.string()),
                "open": pa.array(open_c / 100.0, pa.float64()),
                "high": pa.array(hi / 100.0, pa.float64()),
                "low": pa.array(lo / 100.0, pa.float64()),
                "close": pa.array(close_c / 100.0, pa.float64()),
                "n": pa.array(n, pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bucket_group_apply(partials, ["event_type", "day"], merge_bucket,
                              n_buckets=16)


EVENTS_OHLC_SQL = """
WITH s AS (
  SELECT event_type, strftime(ts, '%Y-%m-%d') AS day, ts, event_id,
         CAST(round(value*100) AS BIGINT) AS cents
  FROM events
)
SELECT event_type, day,
       CAST(first(cents ORDER BY ts, event_id) AS DOUBLE) / 100.0 AS open,
       CAST(max(cents) AS DOUBLE) / 100.0 AS high,
       CAST(min(cents) AS DOUBLE) / 100.0 AS low,
       CAST(last(cents ORDER BY ts, event_id) AS DOUBLE) / 100.0 AS close,
       CAST(count(*) AS BIGINT) AS n
FROM s GROUP BY event_type, day
"""


# ------------------------------------------------- min-max feature scaling


def events_minmax_norm(sf_dir: str):
    """Per-type min-max normalization of event values — the feature-scaling
    pass before model training. Two-phase broadcast pattern: a map-side
    (type, min, max) partial (one row per type per batch), a driver-side
    reduce of that type-dimension-sized relation into a plain dict, then a
    map-only vectorized normalize — the fact table is scanned twice but
    never shuffled. Exact cents in the partials; the (cents-lo)/(hi-lo)
    integer-over-integer double division is written identically in
    MINMAX_NORM_SQL, so parity is bit-exact."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table(
            {"event_type": t.column("event_type"), "cents": _cents(t.column("value"))}
        )
        agg = pa.TableGroupBy(tt, "event_type").aggregate(
            [("cents", "min"), ("cents", "max")]
        )
        return rename_agg(
            agg, {"event_type": "event_type", "cents_min": "lo", "cents_max": "hi"}
        )

    # type-dimension-sized: rows = n_types x n_batches
    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    bounds: dict = {}
    for r in rows:
        lo, hi = bounds.get(r["event_type"], (None, None))
        bounds[r["event_type"]] = (
            r["lo"] if lo is None else min(lo, r["lo"]),
            r["hi"] if hi is None else max(hi, r["hi"]),
        )
    los = {k: v[0] for k, v in bounds.items()}
    his = {k: v[1] for k, v in bounds.items()}

    def normalize(t: pa.Table) -> pa.Table:
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        cents = _cents(t.column("value")).to_numpy(zero_copy_only=False)
        # type-dimension-sized lookup, then one vectorized scatter
        u, inv = np.unique(et, return_inverse=True)
        lo_v = np.array([los[x] for x in u], dtype=np.int64)[inv]
        hi_v = np.array([his[x] for x in u], dtype=np.int64)[inv]
        span = hi_v - lo_v
        norm = np.where(span == 0, 0.0, (cents - lo_v) / np.where(span == 0, 1, span))
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "event_type": t.column("event_type"),
                "norm_value": pa.array(norm, pa.float64()),
            }
        )

    return ds.map_batches(normalize, batch_format="pyarrow")


MINMAX_NORM_SQL = """
WITH s AS (
  SELECT event_id, event_type, CAST(round(value*100) AS BIGINT) AS cents
  FROM events
),
m AS (SELECT event_type, min(cents) AS lo, max(cents) AS hi FROM s GROUP BY event_type)
SELECT s.event_id, s.event_type,
       CASE WHEN hi = lo THEN 0.0
            ELSE CAST(s.cents - lo AS DOUBLE) / CAST(hi - lo AS DOUBLE) END AS norm_value
FROM s JOIN m USING (event_type)
"""


# ------------------------------------------------------- inverted index


def inverted_index(sf_dir: str, max_postings: int = 100):
    """Term -> posting-list index build over the documents corpus (the
    retrieval-index construction step). Each batch emits DISTINCT
    (token, doc_id) pairs (a doc is one row, so per-batch distinct is
    globally distinct); one token-bucketed shuffle then assembles df and
    the FIRST max_postings doc_ids per term (ascending — deterministic
    truncation, the hot-posting-list cap that keeps one stopword's row
    bounded at web scale; df stays exact). postings is a comma-joined
    string so the relation stays flat for the hash compare."""
    import re as _re

    from ..stages.shuffle import bucket_group_apply

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    word_re = _re.compile(r"[a-z]+")

    def pairs(t: pa.Table) -> pa.Table:
        docs = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        out_tok: list = []
        out_doc: list = []
        for d, x in zip(docs, texts):
            toks = sorted(set(word_re.findall((x or "").lower())))
            out_tok.extend(toks)
            out_doc.extend([d] * len(toks))
        return pa.table(
            {"token": pa.array(out_tok, pa.string()),
             "doc_id": pa.array(out_doc, pa.int64())}
        )

    def assemble(t: pa.Table, bucket_id: int) -> pa.Table:
        tok = t.column("token").to_numpy(zero_copy_only=False)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, tok))
        tok, doc = tok[order], doc[order]
        starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
        ends = np.r_[starts[1:], len(tok)]
        df = ends - starts
        toks_u, posts, n_posts = [], [], []
        for s, e in zip(starts, ends):
            k = min(int(e - s), max_postings)
            toks_u.append(tok[s])
            n_posts.append(k)
            posts.append(",".join(str(d) for d in doc[s:s + k]))
        return pa.table(
            {
                "token": pa.array(toks_u, pa.string()),
                "df": pa.array(df, pa.int64()),
                "n_postings": pa.array(n_posts, pa.int64()),
                "postings": pa.array(posts, pa.string()),
            }
        )

    p = ds.map_batches(pairs, batch_format="pyarrow")
    return bucket_group_apply(p, ["token"], assemble, n_buckets=16)


def inverted_index_sql(max_postings: int = 100) -> str:
    return f"""
    WITH t AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+')) AS token
      FROM documents
    ), p AS (SELECT DISTINCT token, doc_id FROM t),
    r AS (
      SELECT token, doc_id,
             row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn,
             count(*) OVER (PARTITION BY token) AS df
      FROM p
    )
    SELECT token, CAST(max(df) AS BIGINT) AS df,
           CAST(count(*) FILTER (WHERE rn <= {max_postings}) AS BIGINT) AS n_postings,
           string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
             FILTER (WHERE rn <= {max_postings}) AS postings
    FROM r GROUP BY token
    """


# ----------------------------------------------------------- BPE encode


def bpe_encode(sf_dir: str, n_merges: int = 20):
    """Apply a trained BPE merge table to the corpus — the tokenizer
    APPLICATION step that pairs with bpe_merges (train). The merge table is
    driver-sized (n_merges rows) and ships by closure; each batch encodes
    only its UNIQUE whitespace words (vocab-local work) with the same
    vectorized greedy-leftmost kernel the trainer uses (_apply_merge_np),
    then scatters per-word token counts back to docs with one searchsorted
    — no per-character Python in the merge loop and no corpus-scale
    shuffle anywhere. Rows-only (the trained table is an iterative argmax);
    pinned against a serial word-by-word encoder in tests/test_mining.py."""
    m = bpe_merges(sf_dir, n_merges=n_merges)
    merges = list(zip(m.column("left").to_pylist(), m.column("right").to_pylist()))

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def encode(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        words_per_doc = [(x or "").split(" ") for x in texts]
        uniq = sorted({w for ws in words_per_doc for w in ws})
        if uniq:
            flat = np.array([c for w in uniq for c in w], dtype=object)
            offs = np.r_[0, np.cumsum([len(w) for w in uniq])].astype(np.int64)
            for left, right in merges:
                flat, offs = _apply_merge_np(flat, offs, left, right)
            tok_counts = np.diff(offs)
        else:
            tok_counts = np.array([], dtype=np.int64)
        uniq_arr = np.array(uniq, dtype=object)
        n_tokens = [
            int(tok_counts[np.searchsorted(uniq_arr, np.array(ws, dtype=object))].sum())
            if ws else 0
            for ws in words_per_doc
        ]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bpe_tokens": pa.array(n_tokens, pa.int64()),
            }
        )

    return ds.map_batches(encode, batch_format="pyarrow")


def bpe_encode_serial(text: str, merges) -> int:
    """Serial reference encoder for tests: greedy leftmost-first merge
    application per word, returns the doc's BPE token count."""
    total = 0
    for w in (text or "").split(" "):
        syms = list(w)
        for left, right in merges:
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        total += len(syms)
    return total


def mining_queries():
    return {
        "regression_by_flag": regression_by_flag,
        "basket_pair_lift": basket_pair_lift,
        "events_band_join": events_band_join,
        "bpe_merges": bpe_merges,
        "supplier_jaccard": supplier_jaccard,
        "distinctive_terms_llr": distinctive_terms_llr,
        "rrf_retrieval": rrf_retrieval,
        "cms_token_counts": _cms_query,
        "events_user_ewma": events_user_ewma,
        "fd_audit": fd_audit,
        "events_ohlc": events_ohlc,
        "events_minmax_norm": events_minmax_norm,
        "inverted_index": inverted_index,
        "bpe_encode": bpe_encode,
    }


def mining_oracle_sql():
    return {
        "regression_by_flag": REGRESSION_SQL,
        "basket_pair_lift": basket_lift_sql(),
        "events_band_join": BAND_JOIN_SQL,
        "supplier_jaccard": supplier_jaccard_sql(),
        "distinctive_terms_llr": distinctive_llr_sql(),
        "rrf_retrieval": rrf_sql(),
        "cms_token_counts": cms_probe_sql(),
        "fd_audit": fd_audit_sql(),
        "events_ohlc": EVENTS_OHLC_SQL,
        "events_minmax_norm": MINMAX_NORM_SQL,
        "inverted_index": inverted_index_sql(),
        # bpe_merges / bpe_encode: rows-only (the merge table is an
        # iterative argmax, non-SQL-expressible); both pinned vs serial
        # references in tests/test_mining.py
    }
