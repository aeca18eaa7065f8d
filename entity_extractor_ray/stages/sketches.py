"""KMV (bottom-k minimum values) distinct-count sketch as a grouped aggregate.

``COUNT(DISTINCT x) GROUP BY g`` is the classic scale trap: exact answers
need every distinct value of a group co-located, so a hot group ships its
whole value set through the shuffle. The KMV estimator caps that: hash each
value to a uniform 63-bit point, keep only the k SMALLEST per group, and
estimate ``(k-1) / theta`` where theta is the k-th smallest hash scaled to
(0,1]. Standard error is ~1/sqrt(k-2) (~1.6% at k=4096). The engine already
trusts this estimator for its linking skew gate (linking.py's bottom-k
refinement); this module exposes it as a first-class aggregate.

Two properties make it engine-shaped:

  * MERGEABLE map-side state: each batch contributes at most k hashes per
    group, so shuffle volume is O(k x groups x batches) no matter how hot a
    group is — union-of-bottom-k sets always contains the true bottom-k of
    the union.
  * EXACT below k: if the merged distinct-hash count of a group is < k, no
    batch can have truncated (truncation only happens at exactly k kept),
    so the merged set IS the full distinct set and the reported count is
    exact (modulo 63-bit hash collisions, ~n^2/2^64). That is why the
    driver's DuckDB ``COUNT(DISTINCT)`` oracle hash-matches at test scale
    (hundreds of users, k=4096) while the SAME operator degrades gracefully
    to a ±1.6% estimate on a 100-TB corpus — documented, not silent: the
    output carries an ``exact`` flag column.

Hashing uses md5 (via samples.md5_hex_array's digest discipline) so the
sketch is process- and platform-stable — resumed runs merge cleanly.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import bucket_group_apply, group_aggregate

logger = logging.getLogger("entity_extractor_ray.sketches")

MASK63 = (1 << 63) - 1


def hash63(values) -> np.ndarray:
    """Stable uniform 63-bit hash of str(v) (first 8 md5 bytes, top bit
    cleared)."""
    return np.array(
        [
            int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big") & MASK63
            for v in values
        ],
        dtype=np.uint64,
    )


def approx_distinct_by(
    ds,
    group_col: str,
    value_col: str,
    k: int = 4096,
    out_col: str = "n_distinct",
    n_buckets: int = 8,
):
    """Per group of ``group_col``: KMV distinct-count of ``value_col``.
    Output: (group_col, out_col int64, exact bool)."""

    def local_sketch(df: pd.DataFrame) -> pd.DataFrame:
        # distinct (group, value) pairs in this batch, hashed once each
        pairs = df[[group_col, value_col]].drop_duplicates()
        pairs = pairs.assign(__h=hash63(pairs[value_col].to_numpy()).astype(np.uint64))
        pairs = pairs.sort_values([group_col, "__h"], kind="mergesort")
        kept = pairs.groupby(group_col, sort=False).head(k)
        return kept[[group_col, "__h"]]

    pre = ds.map_batches(local_sketch, batch_format="pandas")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        groups, counts, exacts = [], [], []
        merged = df.drop_duplicates([group_col, "__h"]).sort_values(
            [group_col, "__h"], kind="mergesort"
        )
        for g, sub in merged.groupby(group_col, sort=False):
            h = sub["__h"].to_numpy()
            if len(h) < k:
                groups.append(g)
                counts.append(len(h))
                exacts.append(True)
            else:
                theta = float(h[k - 1]) / float(1 << 63)
                groups.append(g)
                counts.append(int(round((k - 1) / theta)))
                exacts.append(False)
        return pa.table(
            {
                group_col: pa.array(groups),
                out_col: pa.array(counts, pa.int64()),
                "exact": pa.array(exacts, pa.bool_()),
            }
        )

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


# ------------------------------------------------------ approximate quantiles

def _compact_bins(vals: np.ndarray, cnts: np.ndarray, k: int):
    """Merge adjacent histogram bins (smallest combined count first, ties by
    value) until at most ``k`` bins remain — the Ben-Haim & Tom-Tov streaming
    decision-tree histogram's compaction, made deterministic. Inputs must be
    sorted ascending by value with positive counts; the merged bin sits at
    the count-weighted mean of its parents, so total mass and value bounds
    are preserved and the rank error of any quantile read off the compacted
    histogram is at most the largest bin's mass (~2n/k for smallest-first
    merging)."""
    import heapq

    m = len(vals)
    if m <= k:
        return vals, cnts
    vals = vals.astype(np.float64).copy()
    cnts = cnts.astype(np.int64).copy()
    nxt = np.arange(1, m + 1, dtype=np.int64)
    nxt[m - 1] = -1
    prv = np.arange(-1, m - 1, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    ver = np.zeros(m, dtype=np.int64)
    heap = [
        (int(cnts[i] + cnts[i + 1]), float(vals[i]), i, 0, 0) for i in range(m - 1)
    ]
    heapq.heapify(heap)
    n_bins = m
    while n_bins > k and heap:
        _, _, i, vi, vj = heapq.heappop(heap)
        j = nxt[i]
        if not alive[i] or j == -1 or ver[i] != vi or ver[j] != vj:
            continue  # stale entry (one endpoint already merged)
        tot = cnts[i] + cnts[j]
        vals[i] = (vals[i] * cnts[i] + vals[j] * cnts[j]) / tot
        cnts[i] = tot
        alive[j] = False
        nxt[i] = nxt[j]
        if nxt[j] != -1:
            prv[nxt[j]] = i
        ver[i] += 1
        n_bins -= 1
        if nxt[i] != -1:
            heapq.heappush(
                heap,
                (int(cnts[i] + cnts[nxt[i]]), float(vals[i]), i,
                 int(ver[i]), int(ver[nxt[i]])),
            )
        if prv[i] != -1:
            p = prv[i]
            heapq.heappush(
                heap,
                (int(cnts[p] + cnts[i]), float(vals[p]), int(p),
                 int(ver[p]), int(ver[i])),
            )
    return vals[alive], cnts[alive]


def _q_col(q: float) -> str:
    return f"p{int(round(q * 100))}"


def approx_quantiles_by(
    ds,
    group_col: str,
    value_col: str,
    qs=(0.5, 0.9),
    k: int = 4096,
    n_buckets: int = 8,
):
    """Per group: approximate quantiles of ``value_col`` from a MERGEABLE
    capped histogram (at most ``k`` bins per group per batch leave the map
    side, regardless of group size — the exact grouped-quantile operator's
    O(distinct values) state bounded to O(k)).

    Like the KMV sketch above, the estimator is EXACT below its cap: when no
    batch ever exceeded k distinct values for a group and the merged
    histogram still fits, the histogram IS the full value distribution and
    the reported quantiles follow DuckDB's quantile_disc rule bit-for-bit
    (hence the SQL oracle at test scale); beyond the cap, bins compact to
    count-weighted means (rank error <= max bin mass ~ 2n/k) and the
    ``exact`` flag flips to false — documented, never silent. Exact-regime
    results are partition-invariant; approx-regime results are deterministic
    given the batch layout (compaction order depends on which values share a
    batch), the same caveat class as the Misra-Gries partials below.

    Output: (group_col, n int64, p<q> float64 per q, exact bool).
    """
    q_cols = [_q_col(q) for q in qs]

    def local_hist(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df[[group_col, value_col]]
            .dropna()
            .groupby([group_col, value_col], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        parts = []
        for grp, sub in g.groupby(group_col, sort=False):
            sub = sub.sort_values(value_col, kind="mergesort")
            vals = sub[value_col].to_numpy(np.float64)
            cnts = sub["cnt"].to_numpy(np.int64)
            comp = len(vals) > k
            if comp:
                logger.warning(
                    "approx_quantiles_by: group %r batch has %d distinct values"
                    " > k=%d; compacting (quantiles become ~2n/k-rank-error"
                    " estimates)", grp, len(vals), k,
                )
                vals, cnts = _compact_bins(vals, cnts, k)
            parts.append(
                pd.DataFrame(
                    {group_col: grp, "__v": vals, "__c": cnts, "__comp": comp}
                )
            )
        if not parts:
            return pd.DataFrame(
                {
                    group_col: pd.Series([], dtype=g[group_col].dtype),
                    "__v": pd.Series([], dtype=np.float64),
                    "__c": pd.Series([], dtype=np.int64),
                    "__comp": pd.Series([], dtype=bool),
                }
            )
        return pd.concat(parts, ignore_index=True)

    pre = ds.map_batches(local_hist, batch_format="pandas")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        out: dict = {group_col: [], "n": [], "exact": []}
        for c in q_cols:
            out[c] = []
        for grp, sub in df.groupby(group_col, sort=False):
            m = sub.groupby("__v", sort=True)["__c"].sum().reset_index()
            vals = m["__v"].to_numpy(np.float64)
            cnts = m["__c"].to_numpy(np.int64)
            exact = not bool(sub["__comp"].any())
            if len(vals) > k:
                vals, cnts = _compact_bins(vals, cnts, k)
                exact = False
            cum = cnts.cumsum()
            n = int(cum[-1])
            out[group_col].append(grp)
            out["n"].append(n)
            out["exact"].append(exact)
            for q, c in zip(qs, q_cols):
                # DuckDB quantile_disc rule: sorted[ceil(q*n) - 1]
                out[c].append(float(vals[np.searchsorted(cum, int(np.ceil(q * n)))]))
        tbl = {
            group_col: pa.array(out[group_col]),
            "n": pa.array(out["n"], pa.int64()),
        }
        for c in q_cols:
            tbl[c] = pa.array(out[c], pa.float64())
        tbl["exact"] = pa.array(out["exact"], pa.bool_())
        return pa.table(tbl)

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


def approx_quantiles_sql(
    table: str, group_col: str, value_col: str, qs=(0.5, 0.9)
) -> str:
    """Oracle for the EXACT regime (every group below k distinct values —
    the test tiers): quantile_disc per group plus the always-true exact flag."""
    cols = ", ".join(
        f"CAST(quantile_disc({value_col}, {q}) AS DOUBLE) AS {_q_col(q)}" for q in qs
    )
    return (
        f"SELECT {group_col}, CAST(count(*) AS BIGINT) AS n, {cols}, "
        f"TRUE AS exact FROM {table} WHERE {value_col} IS NOT NULL "
        f"GROUP BY {group_col}"
    )


# ------------------------------------------------------------ heavy hitters

def frequent_tokens(docs_ds, top_n: int = 20, k: int = 65536):
    """Corpus-wide most-frequent tokens (heavy hitters) with Misra-Gries
    map-side state: each batch counts its tokens exactly, and if the batch
    vocabulary exceeds ``k`` counters it MG-decrements (drop the tail,
    subtract the (k+1)-th count from the survivors — counts become lower
    bounds with error <= the LOGGED decrement; nothing is silently
    approximate). The shuffle then carries at most k rows per batch, one
    term-keyed exchange sums the partials, and the global top-n is a
    per-block top-n combine + tiny sort. Below k distinct per batch — every
    test tier; token vocabularies are Zipfian, so real corpora sit here too
    for any reasonable k — the result is EXACT, hence the SQL oracle.

    Uses the same [a-z0-9]+ pretokenizer as vocab_stats/BM25 so all corpus
    statistics agree on what a token is."""
    from collections import Counter

    from .textstats import _VOCAB_RE

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column("text").to_pylist():
            c.update(_VOCAB_RE.findall((text or "").lower()))
        if len(c) > k:
            items = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
            thresh = items[k][1]
            kept = [(t, n - thresh) for t, n in items[:k] if n > thresh]
            logger.warning(
                "frequent_tokens: batch vocab %d > k=%d; MG-decremented by %d "
                "(partial counts become lower bounds)", len(c), k, thresh,
            )
            c = Counter(dict(kept))
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    sums = group_aggregate(
        docs_ds.map_batches(partial, batch_format="pyarrow"), "token", {"n": ("sum", "n")}
    )

    def local_topn(t: pa.Table) -> pa.Table:
        # per-block combiner: only top_n candidates per block reach the sort
        idx = pa.compute.sort_indices(
            t, sort_keys=[("n", "descending"), ("token", "ascending")]
        )
        return t.take(idx[: top_n])

    return (
        sums.map_batches(local_topn, batch_format="pyarrow")
        .sort(["n", "token"], descending=[True, False])
        .limit(top_n)
    )


def frequent_tokens_sql(top_n: int = 20) -> str:
    return f"""
    WITH toks AS (
      SELECT unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS token
      FROM documents
    )
    SELECT token, CAST(count(*) AS BIGINT) AS n
    FROM toks GROUP BY token
    ORDER BY n DESC, token ASC LIMIT {top_n}
    """


# -------------------------------------------------------- Count-Min sketch


CMS_WIDTH = 8192
CMS_DEPTH = 4


def _cms_cols(tokens, depth: int, width: int) -> np.ndarray:
    """(depth, n_tokens) column indices: row d uses the md5-stable hash of
    'd:token'. Called on per-batch DISTINCT tokens only (vocab-sized, the
    BPE to_symbols discipline), never per occurrence."""
    return np.stack(
        [hash63([f"{d}:{t}" for t in tokens]) % np.uint64(width) for d in range(depth)]
    ).astype(np.int64)


def cms_token_estimates(
    docs_ds,
    probe_tokens,
    width: int = CMS_WIDTH,
    depth: int = CMS_DEPTH,
):
    """Count-Min sketch (Cormode & Muthukrishnan 2005) frequency estimates
    for ``probe_tokens`` over the corpus token stream — the bounded-memory
    point-query companion to the KMV (distinct) and Misra-Gries (top-k)
    sketches.

    Properties the tests pin: estimates NEVER undercount (min over depth
    rows of non-negative sums), est <= exact + eps*N with prob 1-delta for
    eps = e/width, delta = e^-depth, and the sketch is MERGEABLE — triples
    summed across any batch split equal the single-pass sketch, which is
    what makes it an engine aggregate.

    Scale shape: each batch counts its tokens exactly (vectorized split +
    TableGroupBy), hashes only the batch-distinct tokens, and emits
    pre-summed sparse (row, col, cnt) triples; ONE (row, col)-keyed Sum
    bounds the exchange at depth*width rows per batch; the driver pulls at
    most the depth*width dense sketch (256 KB at defaults) plus the probe
    lookups. rows-only as a query (an estimator by construction); pinned
    by unit tests in tests/test_cms.py."""
    import pyarrow.compute as pc
    probe_tokens = list(probe_tokens)

    def partial(batch: pa.Table) -> pa.Table:
        # [a-z0-9]+ extraction (the _VOCAB_RE pretokenizer all corpus stats
        # share) expressed as its complement split so it stays in Arrow
        flat = pc.list_flatten(
            pc.split_pattern_regex(
                pc.utf8_lower(pc.coalesce(batch.column("text"), pa.scalar(""))),
                pattern="[^a-z0-9]+",
            )
        )
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        if len(flat) == 0:
            return pa.table(
                {"row": pa.array([], pa.int64()), "col": pa.array([], pa.int64()),
                 "cnt": pa.array([], pa.int64())}
            )
        agg = pa.TableGroupBy(pa.table({"t": flat}), "t").aggregate([([], "count_all")])
        toks = agg.column("t").to_pylist()
        cnts = agg.column("count_all").to_numpy(zero_copy_only=False).astype(np.int64)
        cols = _cms_cols(toks, depth, width)  # (depth, vocab)
        rows = np.repeat(np.arange(depth, dtype=np.int64), len(toks))
        tri = pa.table(
            {
                "row": pa.array(rows, pa.int64()),
                "col": pa.array(cols.ravel(), pa.int64()),
                "cnt": pa.array(np.tile(cnts, depth), pa.int64()),
            }
        )
        out = pa.TableGroupBy(tri, ["row", "col"]).aggregate([("cnt", "sum")])
        return pa.table(
            {"row": out.column("row"), "col": out.column("col"),
             "cnt": out.column("cnt_sum")}
        )

    triples = group_aggregate(
        docs_ds.map_batches(partial, batch_format="pyarrow"), ["row", "col"],
        {"cnt": ("sum", "cnt")},
    ).take_all()  # bounded: <= depth*width rows by construction
    dense = np.zeros((depth, width), dtype=np.int64)
    for r in triples:
        dense[r["row"], r["col"]] = r["cnt"]

    pcols = _cms_cols(probe_tokens, depth, width)
    est = dense[np.arange(depth)[:, None], pcols].min(axis=0)
    return pa.table(
        {
            "token": pa.array(probe_tokens, pa.string()),
            "est_count": pa.array(est, pa.int64()),
        }
    )


# ------------------------------------------------------------- HyperLogLog

HLL_P = 12  # 2^12 registers -> 1.04/sqrt(m) ~ 1.6% relative std error


def _bit_length(v: np.ndarray) -> np.ndarray:
    """floor(log2(v)) for v >= 1, EXACT via a shift cascade — float log2 is
    a trap here: log2(2^k - 1) rounds to k in float64 once k is large,
    which would over-count one leading zero on near-boundary hashes."""
    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(shift))
        bl[m] += shift
        v[m] >>= np.uint64(shift)
    return bl


def _hll_partial(values, p: int = HLL_P) -> np.ndarray:
    """One uint8[2^p] register array from raw values: md5-derived 63-bit
    hash, top p bits pick the register, rho = leading-zero count of the
    remaining 63-p bits + 1. Register arrays merge by elementwise max —
    associative/commutative/idempotent, so partials survive any batch
    split or reduce order (same contract as the KMV/CMS partials)."""
    reg = np.zeros(1 << p, dtype=np.uint8)
    if len(values) == 0:
        return reg
    h = hash63(values)
    idx = (h >> np.uint64(63 - p)).astype(np.int64)
    rest = h & np.uint64((1 << (63 - p)) - 1)
    rho = np.full(h.size, 64 - p, dtype=np.uint8)  # rest==0: all w bits zero
    nz = rest > 0
    rho[nz] = np.uint8(63 - p) - _bit_length(rest[nz])
    np.maximum.at(reg, idx, rho)
    return reg


def _hll_estimate(reg: np.ndarray) -> int:
    """Flajolet et al. 2007 estimator: raw harmonic mean with alpha bias
    correction; linear counting below 2.5m when empty registers remain (the
    regime where the raw estimator biases high). No 2^32 large-range term —
    the hash is 63-bit."""
    m = float(reg.size)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / float(np.sum(np.ldexp(1.0, -reg.astype(np.int64))))
    zeros = int(np.count_nonzero(reg == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return int(round(est))


def hll_distinct_by(
    ds,
    group_col: str,
    value_col: str,
    p: int = HLL_P,
    out_col: str = "n_distinct_est",
    n_buckets: int = 8,
):
    """Per group of ``group_col``: HyperLogLog distinct-count estimate of
    ``value_col``. Output: (group_col, out_col int64).

    Scale shape: each batch collapses to ONE (group, 2^p-byte register
    blob) row per distinct group — fixed-size state independent of batch
    cardinality, the property KMV lacks (its k-item sketch still ships k
    hashes) — then one group-keyed shuffle of blobs and an elementwise-max
    merge per group. Estimates are deterministic (md5 value hashing), so
    reruns and resume hash-stably; accuracy is the textbook
    1.04/sqrt(2^p). Complements approx_distinct_by: prefer KMV when most
    groups are small (it is exact below k), HLL when groups are huge and
    the exchange must stay flat."""

    def local_sketch(df: pd.DataFrame) -> pd.DataFrame:
        groups, blobs = [], []
        for g, sub in df.groupby(group_col, sort=False):
            vals = sub[value_col].drop_duplicates().to_numpy()
            groups.append(g)
            blobs.append(_hll_partial(vals, p).tobytes())
        return pd.DataFrame({group_col: groups, "__reg": blobs})

    pre = ds.map_batches(local_sketch, batch_format="pandas")

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        groups, ests = [], []
        for g, sub in df.groupby(group_col, sort=False):
            reg = np.zeros(1 << p, dtype=np.uint8)
            for blob in sub["__reg"]:
                np.maximum(reg, np.frombuffer(blob, dtype=np.uint8), out=reg)
            groups.append(g)
            ests.append(_hll_estimate(reg))
        return pa.table(
            {
                group_col: pa.array(groups),
                out_col: pa.array(ests, pa.int64()),
            }
        )

    return bucket_group_apply(pre, [group_col], bucket_fn, n_buckets=n_buckets)


def frequent_bigrams(docs_ds, top_n: int = 50, k: int = 65536):
    """Corpus-wide most-frequent adjacent-token BIGRAMS — frequent_tokens'
    shape (Misra-Gries map-side state, one term-keyed exchange, per-block
    top-n combine + tiny global sort) over word pairs instead of words.
    The training-data use: ubiquitous bigrams expose template/boilerplate
    phrases that unigram counts hide. Same [a-z0-9]+ pretokenizer; exact
    (hence the SQL oracle) while per-batch bigram vocab stays below ``k``,
    MG-decremented with a logged bound beyond it."""
    from collections import Counter

    from .textstats import _VOCAB_RE

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column("text").to_pylist():
            ws = _VOCAB_RE.findall((text or "").lower())
            c.update(map(" ".join, zip(ws, ws[1:])))
        if len(c) > k:
            items = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
            thresh = items[k][1]
            kept = [(t, n - thresh) for t, n in items[:k] if n > thresh]
            logger.warning(
                "frequent_bigrams: batch vocab %d > k=%d; MG-decremented by "
                "%d (partial counts become lower bounds)", len(c), k, thresh,
            )
            c = Counter(dict(kept))
        return pa.table(
            {
                "bigram": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    sums = group_aggregate(
        docs_ds.map_batches(partial, batch_format="pyarrow"), "bigram", {"n": ("sum", "n")}
    )

    def local_topn(t: pa.Table) -> pa.Table:
        idx = pa.compute.sort_indices(
            t, sort_keys=[("n", "descending"), ("bigram", "ascending")]
        )
        return t.take(idx[: top_n])

    return (
        sums.map_batches(local_topn, batch_format="pyarrow")
        .sort(["n", "bigram"], descending=[True, False])
        .limit(top_n)
    )


def frequent_bigrams_sql(top_n: int = 50) -> str:
    return f"""
    WITH w AS (
      SELECT regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+') AS ws
      FROM documents
    ), b AS (
      SELECT ws[i] || ' ' || ws[i + 1] AS bigram
      FROM w
      JOIN (SELECT unnest(range(1, (SELECT CAST(COALESCE(max(len(ws)), 0) AS BIGINT) + 1 FROM w))) AS i) s
        ON i <= len(ws) - 1
      WHERE len(ws) > 1
    )
    SELECT bigram, CAST(count(*) AS BIGINT) AS n
    FROM b GROUP BY 1
    ORDER BY n DESC, bigram ASC LIMIT {top_n}
    """
