"""Text-analysis operators over a documents table: token counting, quality
scoring, language-ID heuristic, fingerprinting.

These are the training-data-pipeline operators layered on the engine
(task contract) — all vectorized map_batches stages. Every formula is chosen
to be EXACTLY re-expressible in ANSI SQL (DuckDB) so the driver's
queries()/oracle_sql() parity check can hash-compare values:

  * counts are integers;
  * ratios are IEEE-double divisions of those integers, rounded to 6 dp —
    bit-identical between numpy float64 and DuckDB DOUBLE.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .shuffle import group_aggregate

# token = letter-run | digit-run | single non-space symbol (BPE-ish pretokenizer)
TOKEN_PATTERN = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"
WORD_PATTERN = r"[A-Za-z]+"
STOPWORDS = ("the", "a", "of", "and", "to")

_TOKEN_RE = re.compile(TOKEN_PATTERN)
_WORD_RE = re.compile(WORD_PATTERN)
_STOP_SET = set(STOPWORDS)


def token_counts(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, n_tokens — count of BPE-ish pretokens."""
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": batch["text"].map(lambda t: len(_TOKEN_RE.findall(t or ""))).astype("int64"),
        }
    )


def quality_features(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, n_chars, n_words, n_stop, stop_ratio, quality_score.

    quality_score = round(0.5 * min(n_words, 200)/200 + 0.5 * stop_ratio, 6)
    with stop_ratio = round(n_stop / max(n_words, 1), 6). A length+stopword
    quality heuristic in the spirit of C4/Gopher text-quality rules."""
    texts = batch["text"].fillna("")
    words = texts.map(lambda t: _WORD_RE.findall(t.lower()))
    n_words = words.map(len).astype("int64")
    n_stop = words.map(lambda ws: sum(1 for w in ws if w in _STOP_SET)).astype("int64")
    n_chars = texts.map(len).astype("int64")
    raw_ratio = n_stop.to_numpy() / np.maximum(n_words.to_numpy(), 1)
    # floor-truncate to 6dp instead of rounding: round() is half-even in
    # numpy but half-away in SQL engines, so exact-halfway ratios (n/128...)
    # would diverge; floor is unambiguous in both.
    stop_ratio = np.floor(raw_ratio * 1e6) / 1e6
    quality = np.floor(
        (0.5 * np.minimum(n_words.to_numpy(), 200) / 200.0 + 0.5 * raw_ratio) * 1e6
    ) / 1e6
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_chars": n_chars,
            "n_words": n_words,
            "n_stop": n_stop,
            "stop_ratio": stop_ratio,
            "quality_score": quality,
        }
    )


def lang_id(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, en_score, predicted_lang — an n-gram/stopword language-ID
    heuristic: English-stopword ratio thresholded at 0.02 ('en' vs 'und')."""
    q = quality_features(batch)
    predicted = np.where(q["stop_ratio"].to_numpy() >= 0.02, "en", "und")
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "en_score": q["stop_ratio"],
            "predicted_lang": predicted,
        }
    )


def exact_fingerprints(batch: pd.DataFrame) -> pd.DataFrame:
    """doc_id, fingerprint — md5 of the raw text (exact-dup key)."""
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "fingerprint": batch["text"].map(
                lambda t: hashlib.md5((t or "").encode("utf-8")).hexdigest()
            ),
        }
    )


def curate_by_quality(docs_ds, q: float = 0.2, n_buckets: int = 4):
    """Percentile-gated quality curation — the composed training-data
    filtering pass: score every document (quality_features), find each
    language's q-th score percentile, keep documents scoring AT OR ABOVE
    their language's threshold. Two streaming passes over the corpus (the
    BM25 stats-then-score shape):

      pass 1: map-side (lang, score) histogram pre-reduction -> one tiny
              lang-keyed shuffle -> per-lang quantile_disc threshold. The
              threshold table is DIMENSION-sized (one row per language), so
              pulling it to the driver and closing over it is a broadcast,
              not a materialization.
      pass 2: pure map-side filter against the broadcast thresholds.

    Threshold rule is DuckDB quantile_disc (sorted[ceil(q*n)-1]) over the
    floor-truncated 6dp score both engines compute identically, so the >=
    gate is float-exact. Output: (doc_id, lang, quality_score) survivors."""
    import numpy as np

    from .shuffle import bucket_group_apply

    def scored_ds():
        def feats(batch: pd.DataFrame) -> pd.DataFrame:
            f = quality_features(batch)
            return pd.DataFrame(
                {
                    "doc_id": f["doc_id"],
                    "lang": batch["lang"],
                    "quality_score": f["quality_score"],
                }
            )

        return docs_ds.map_batches(feats, batch_format="pandas")

    def histogram(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["lang", "quality_score"], sort=False)
            .size()
            .reset_index(name="cnt")
        )

    def thr_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        langs, thrs = [], []
        merged = df.groupby(["lang", "quality_score"], sort=False)["cnt"].sum().reset_index()
        for lang, g in merged.groupby("lang", sort=False):
            g = g.sort_values("quality_score", kind="mergesort")
            cum = g["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            langs.append(lang)
            thrs.append(
                float(g["quality_score"].to_numpy()[np.searchsorted(cum, int(np.ceil(q * n)))])
            )
        return pa.table(
            {"lang": pa.array(langs, pa.string()), "thr": pa.array(thrs, pa.float64())}
        )

    pre = scored_ds().map_batches(histogram, batch_format="pandas")
    thr_rows = bucket_group_apply(pre, ["lang"], thr_bucket, n_buckets).take_all()
    thr = {r["lang"]: r["thr"] for r in thr_rows}

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        gates = df["lang"].map(thr).to_numpy(np.float64)
        return df[df["quality_score"].to_numpy() >= gates]

    return scored_ds().map_batches(keep, batch_format="pandas")


def curate_by_quality_sql(q: float = 0.2) -> str:
    stop_list = ", ".join(f"'{s}'" for s in STOPWORDS)
    return f"""
    WITH w AS (
      SELECT doc_id, lang,
             regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+') AS words
      FROM documents
    ), c AS (
      SELECT doc_id, lang,
             CAST(length(words) AS BIGINT) AS n_words,
             CAST(length(list_filter(words, x -> x IN ({stop_list}))) AS BIGINT) AS n_stop
      FROM w
    ), scored AS (
      SELECT doc_id, lang,
             floor((0.5 * least(n_words, 200) / 200.0
                   + 0.5 * (n_stop / greatest(n_words, 1))) * 1000000) / 1000000
               AS quality_score
      FROM c
    ), thr AS (
      SELECT lang, quantile_disc(quality_score, {q}) AS thr
      FROM scored GROUP BY lang
    )
    SELECT s.doc_id, s.lang, s.quality_score
    FROM scored s JOIN thr USING (lang)
    WHERE s.quality_score >= thr.thr
    """


def winnow_fingerprints(batch: pd.DataFrame) -> pa.Table:
    """doc_id, fingerprints(list<int64>), n_fingerprints — winnowing-style
    rolling-hash document fingerprint (functions/textnorm.rolling_fingerprint).

    NOT SQL-expressible (why no oracle entry): the hash is uint64
    WRAPAROUND arithmetic — `h * 0x9E3779B97F4A7C15 mod 2^64` multiplies two
    64-bit values, whose 128-bit intermediate overflows DuckDB's signed
    HUGEINT (max 2^127 - 1), and DuckDB's UBIGINT ops error on overflow
    rather than wrapping; there is no mod-2^64 multiply to emulate the
    xorshift-multiply mix. Checked rows-only by the driver; exact behavior
    is pinned by unit tests instead."""
    from ..functions.textnorm import rolling_fingerprint

    fps = [rolling_fingerprint(t or "") for t in batch["text"]]
    return pa.table(
        {
            "doc_id": pa.array(batch["doc_id"].tolist(), pa.int64()),
            "fingerprints": pa.array(fps, pa.list_(pa.int64())),
            "n_fingerprints": pa.array([len(f) for f in fps], pa.int64()),
        }
    )


def token_counts_sql() -> str:
    # COALESCE(text, '') mirrors the Python side's null -> "" mapping so the
    # contract survives null-bearing corpora (SQL length(NULL) is NULL).
    return f"""
    SELECT doc_id, CAST(length(regexp_extract_all(COALESCE(text, ''), '{TOKEN_PATTERN}')) AS BIGINT) AS n_tokens
    FROM documents
    """


def quality_features_sql() -> str:
    stop_list = ", ".join(f"'{s}'" for s in STOPWORDS)
    return f"""
    WITH w AS (
      SELECT doc_id,
             CAST(length(COALESCE(text, '')) AS BIGINT) AS n_chars,
             regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+') AS words
      FROM documents
    ), c AS (
      SELECT doc_id, n_chars,
             CAST(length(words) AS BIGINT) AS n_words,
             CAST(length(list_filter(words, x -> x IN ({stop_list}))) AS BIGINT) AS n_stop
      FROM w
    )
    SELECT doc_id, n_chars, n_words, n_stop,
           floor((n_stop / greatest(n_words, 1)) * 1000000) / 1000000 AS stop_ratio,
           floor((0.5 * least(n_words, 200) / 200.0
                 + 0.5 * (n_stop / greatest(n_words, 1))) * 1000000) / 1000000 AS quality_score
    FROM c
    """


def lang_id_sql() -> str:
    stop_list = ", ".join(f"'{s}'" for s in STOPWORDS)
    return f"""
    WITH w AS (
      SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-z]+') AS words
      FROM documents
    ), c AS (
      SELECT doc_id,
             CAST(length(words) AS BIGINT) AS n_words,
             CAST(length(list_filter(words, x -> x IN ({stop_list}))) AS BIGINT) AS n_stop
      FROM w
    )
    SELECT doc_id,
           floor((n_stop / greatest(n_words, 1)) * 1000000) / 1000000 AS en_score,
           CASE WHEN floor((n_stop / greatest(n_words, 1)) * 1000000) / 1000000 >= 0.02
                THEN 'en' ELSE 'und' END AS predicted_lang
    FROM c
    """


def exact_fingerprints_sql() -> str:
    return "SELECT doc_id, md5(COALESCE(text, '')) AS fingerprint FROM documents"


# ------------------------------------------------------- repetition filters

def repetition_features(batch: pa.Table) -> pa.Table:
    """doc_id, n_words, n_dup_words, dup_word_frac, top_word_frac —
    Gopher-style repetition quality signals (Rae et al. 2021 use
    duplicate-line and top-n-gram fractions; this corpus is single-line
    word streams, so the word-level analogs): the fraction of words that
    are repeats of an earlier word, and the frequency share of the single
    most common word. High values flag degenerate/boilerplate documents
    for a pre-training quality filter.

    Fully vectorized: one Arrow split per batch, doc index from the list
    OFFSETS (never a per-row Python loop), pd.factorize over the flat word
    array, np.unique over combined (doc, word) int keys for per-doc distinct
    and top counts. Fractions floor-truncated to 6dp (half-even vs half-away
    rounding divergence — see quality_features)."""
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    words = pc.split_pattern(text, pattern=" ")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    offsets = words.offsets.to_numpy(zero_copy_only=False)
    n_words = np.diff(offsets).astype(np.int64)
    n_docs = len(n_words)
    # Arrow-native factorize: dictionary_encode stays zero-copy-ish inside
    # Arrow (no pandas object-dtype materialization of every word)
    enc = pc.dictionary_encode(words.flatten())
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    n_uniq = np.int64(len(enc.dictionary) + 1)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), n_words)
    keys = doc_idx * n_uniq + codes
    ukeys, cnts = np.unique(keys, return_counts=True)
    udoc = (ukeys // n_uniq).astype(np.int64)
    n_distinct = np.bincount(udoc, minlength=n_docs).astype(np.int64)
    top = np.zeros(n_docs, dtype=np.int64)
    np.maximum.at(top, udoc, cnts)
    nw = np.maximum(n_words, 1)
    dup = n_words - n_distinct
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words, pa.int64()),
            "n_dup_words": pa.array(dup, pa.int64()),
            "dup_word_frac": pa.array(np.floor(1e6 * dup / nw) / 1e6, pa.float64()),
            "top_word_frac": pa.array(np.floor(1e6 * top / nw) / 1e6, pa.float64()),
        }
    )


def repetition_features_sql() -> str:
    # same expression tree: counts as BIGINT, 1e6*x/y multiplied-then-divided
    return """
    WITH w AS (
      SELECT doc_id, unnest(string_split(COALESCE(text, ''), ' ')) AS word
      FROM documents
    ), c AS (
      SELECT doc_id, word, count(*) AS cnt FROM w GROUP BY doc_id, word
    ), a AS (
      SELECT doc_id,
             CAST(sum(cnt) AS BIGINT) AS n_words,
             CAST(count(*) AS BIGINT) AS n_distinct,
             CAST(max(cnt) AS BIGINT) AS top_cnt
      FROM c GROUP BY doc_id
    )
    SELECT doc_id, n_words,
           n_words - n_distinct AS n_dup_words,
           floor(1000000.0 * (n_words - n_distinct) / greatest(n_words, 1)) / 1000000 AS dup_word_frac,
           floor(1000000.0 * top_cnt / greatest(n_words, 1)) / 1000000 AS top_word_frac
    FROM a
    """


# ------------------------------------------------------- term redaction

# The shape of a PII scrub stage (emails/phones/ids masked before training):
# the synthetic corpus carries no PII, so a term list stands in. Both engines
# run RE2 (pyarrow.compute and DuckDB), so match/replace semantics align
# exactly — \b word boundaries, non-overlapping leftmost matches.
REDACT_PATTERN = r"\b(hash|join|merge)\b"
REDACT_TOKEN = "<OP>"


def redact_terms(batch: pa.Table) -> pa.Table:
    """doc_id, n_redactions, text_redacted — vectorized regex masking
    (pc.replace_substring_regex + pc.count_substring_regex, zero Python in
    the row path)."""
    import pyarrow.compute as pc

    text = pc.fill_null(batch.column("text"), "")
    n = pc.count_substring_regex(text, REDACT_PATTERN)
    red = pc.replace_substring_regex(text, REDACT_PATTERN, REDACT_TOKEN)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_redactions": pc.cast(n, pa.int64()),
            "text_redacted": red,
        }
    )


def redact_terms_sql() -> str:
    return f"""
    SELECT doc_id,
           CAST(length(regexp_extract_all(COALESCE(text, ''), '{REDACT_PATTERN}')) AS BIGINT) AS n_redactions,
           regexp_replace(COALESCE(text, ''), '{REDACT_PATTERN}', '{REDACT_TOKEN}', 'g') AS text_redacted
    FROM documents
    """


# ------------------------------------------------------- tf-idf / BM25

_VOCAB_RE = re.compile(r"[a-z0-9]+")


def vocab_stats(docs_ds, min_df: int = 2):
    """Corpus vocabulary statistics: (term, df, idf) for terms appearing in
    >= min_df documents; idf = ln((N+1)/(df+1)) + 1 (smoothed,
    sklearn-style), floor-truncated to 6 dp for SQL hash parity.

    Scale shape: per-batch distinct (doc, term) collapses to term->partial-df
    BEFORE the one term-keyed shuffle (map-side combine); N comes from
    parquet metadata (count is metadata-only on unfiltered reads)."""
    n_docs = docs_ds.count()

    def partial_df(batch: pd.DataFrame) -> pa.Table:
        counts: dict = {}
        for text in batch["text"]:
            for term in set(_VOCAB_RE.findall((text or "").lower())):
                counts[term] = counts.get(term, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(counts.keys()), pa.string()),
                "partial": pa.array(list(counts.values()), pa.int64()),
            }
        )

    df_table = group_aggregate(
        docs_ds.map_batches(partial_df, batch_format="pandas"), "term",
        {"df": ("sum", "partial")},
    )

    def finalize(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        keep = pc2.greater_equal(t.column("df"), min_df)
        t = t.filter(keep)
        df = t.column("df").to_numpy()
        idf = np.floor((np.log((n_docs + 1.0) / (df + 1.0)) + 1.0) * 1e6) / 1e6
        return pa.table(
            {
                "term": t.column("term"),
                "df": t.column("df"),
                "idf": pa.array(idf, pa.float64()),
            }
        )

    return df_table.map_batches(finalize, batch_format="pyarrow")


def vocab_stats_sql(min_df: int = 2) -> str:
    return f"""
    WITH t AS (
      SELECT DISTINCT doc_id,
             unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS term
      FROM documents
    ), d AS (
      SELECT term, count(*) AS df FROM t GROUP BY 1
    )
    SELECT term, df,
           floor((ln(((SELECT count(*) FROM documents) + 1.0) / (df + 1.0)) + 1.0) * 1000000) / 1000000 AS idf
    FROM d WHERE df >= {min_df}
    """


BM25_K1 = 1.2
BM25_B = 0.75


def bm25_scores(docs_ds, query: str, k1: float = BM25_K1, b: float = BM25_B):
    """BM25 relevance of every document against ``query`` (docs with score
    > 0 only; score floor-truncated to 6 dp). Classic Robertson idf with
    +1 smoothing: idf = ln(1 + (N - df + 0.5)/(df + 0.5)).

    Scale shape: ONE stats pass (doc length + per-query-term tf columns,
    materialized — doc-dimension-sized), ONE tiny aggregate for global
    df/avgdl, then a broadcast-constant scoring map. The query side is a
    handful of terms — never a corpus-sized join."""
    terms = sorted(set(_VOCAB_RE.findall(query.lower())))
    if not terms:
        raise ValueError("query has no indexable terms")
    tf_cols = [f"tf_{i}" for i in range(len(terms))]

    def stats(batch: pd.DataFrame) -> pa.Table:
        from collections import Counter

        dls, tfs = [], [[] for _ in terms]
        for text in batch["text"]:
            ws = _VOCAB_RE.findall((text or "").lower())
            dls.append(len(ws))
            c = Counter(ws)
            for i, term in enumerate(terms):
                tfs[i].append(c.get(term, 0))
        cols = {"doc_id": pa.array(batch["doc_id"].tolist(), pa.int64()),
                "dl": pa.array(dls, pa.int64())}
        for i, col in enumerate(tf_cols):
            cols[col] = pa.array(tfs[i], pa.int64())
        return pa.table(cols)

    stat_ds = docs_ds.map_batches(stats, batch_format="pandas").materialize()

    def indicators(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2

        cols = {"dl": t.column("dl")}
        for col in tf_cols:
            cols["has_" + col] = pc2.cast(
                pc2.greater(t.column(col), 0), pa.int64()
            )
        return pa.table(cols)

    g = stat_ds.map_batches(indicators, batch_format="pyarrow").sum(
        ["dl"] + ["has_" + col for col in tf_cols]
    )
    n_docs = stat_ds.count()
    avgdl = g["sum(dl)"] / n_docs
    df = {col: g[f"sum(has_{col})"] for col in tf_cols}
    idf = {
        col: float(np.log(1.0 + (n_docs - df[col] + 0.5) / (df[col] + 0.5)))
        for col in tf_cols
    }

    def score(t: pa.Table) -> pa.Table:
        dl = t.column("dl").to_numpy().astype(np.float64)
        s = np.zeros(len(dl))
        for col in tf_cols:
            tf = t.column(col).to_numpy().astype(np.float64)
            s += idf[col] * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        keep = s > 0
        s = np.floor(s[keep] * 1e6) / 1e6
        return pa.table(
            {
                "doc_id": pa.array(t.column("doc_id").to_numpy()[keep], pa.int64()),
                "score": pa.array(s, pa.float64()),
            }
        )

    return stat_ds.map_batches(score, batch_format="pyarrow")


def bm25_scores_sql(query: str, k1: float = BM25_K1, b: float = BM25_B) -> str:
    terms = sorted(set(_VOCAB_RE.findall(query.lower())))
    tf_exprs = ",\n             ".join(
        f"CAST(length(list_filter(ws, x -> x = '{t}')) AS BIGINT) AS tf_{i}"
        for i, t in enumerate(terms)
    )
    score_terms = " + ".join(
        f"(ln(1.0 + ((SELECT count(*) FROM s) - df_{i} + 0.5) / (df_{i} + 0.5))"
        f" * tf_{i} * ({k1} + 1.0)"
        f" / (tf_{i} + {k1} * (1.0 - {b} + {b} * dl / avgdl)))"
        for i in range(len(terms))
    )
    return f"""
    WITH w AS (
      SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+') AS ws
      FROM documents
    ), s AS (
      SELECT doc_id, CAST(len(ws) AS BIGINT) AS dl,
             {tf_exprs}
      FROM w
    ), g AS (
      SELECT CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl,
             {", ".join(f"CAST(sum(CASE WHEN tf_{i} > 0 THEN 1 ELSE 0 END) AS BIGINT) AS df_{i}" for i in range(len(terms)))}
      FROM s
    )
    SELECT doc_id, floor(({score_terms}) * 1000000) / 1000000 AS score
    FROM s, g
    WHERE ({score_terms}) > 0
    """


# ------------------------------------------------------------ sequence packing

PACK_BUDGET = 4096


def pack_documents(docs_ds, budget: int = PACK_BUDGET):
    """Sequence packing (the concat-and-chunk trainer feed): per language,
    documents are laid end-to-end in doc_id order and each doc is assigned
    the bin its FIRST token lands in — bin = exclusive-prefix-sum(n_tokens)
    // budget. This is the standard streaming pack (a doc may straddle a
    boundary; it belongs to its starting bin), not NP-hard bin packing.

    Shape: token counts are computed map-side; ONE lang-keyed bucket
    shuffle orders each language's docs and takes a vectorized cumsum —
    the prefix sum is per-language sequential by definition, so the
    partitioning assumption (one language's docs co-located) is the
    operator's documented requirement; shard further by (lang, doc_id
    range) with per-range base offsets if one language outgrows a task."""
    from .shuffle import bucket_group_apply

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_tokens": batch["text"]
                .map(lambda t: len(_TOKEN_RE.findall(t or "")))
                .astype("int64"),
            }
        )

    pre = docs_ds.map_batches(prep, batch_format="pandas")

    def bucket_fn(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        df = df.sort_values("doc_id", kind="mergesort")
        parts = []
        for lang, g in df.groupby("lang", sort=False):
            nt = g["n_tokens"].to_numpy()
            excl = np.concatenate(([0], np.cumsum(nt)[:-1]))
            parts.append(
                pa.table(
                    {
                        "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
                        "lang": pa.array([lang] * len(g), pa.string()),
                        "n_tokens": pa.array(nt, pa.int64()),
                        "bin": pa.array(excl // budget, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts) if parts else pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "lang": pa.array([], pa.string()),
                "n_tokens": pa.array([], pa.int64()),
                "bin": pa.array([], pa.int64()),
            }
        )

    return bucket_group_apply(pre, ["lang"], bucket_fn, n_buckets=8)


def pack_documents_sql(budget: int = PACK_BUDGET) -> str:
    return f"""
    WITH tc AS (
      SELECT doc_id, lang,
             CAST(length(regexp_extract_all(COALESCE(text, ''), '{TOKEN_PATTERN}')) AS BIGINT) AS n_tokens
      FROM documents
    )
    SELECT doc_id, lang, n_tokens,
           CAST(COALESCE(sum(n_tokens) OVER (
                  PARTITION BY lang ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                ), 0) AS BIGINT) // {budget} AS bin
    FROM tc
    """


# ---------------------------------------------------------- LM quality score

LM_MAX_VOCAB = 50_000
LM_MAX_BIGRAMS = 200_000


def lm_quality_scores(docs_ds, max_vocab: int = LM_MAX_VOCAB,
                      max_bigrams: int = LM_MAX_BIGRAMS):
    """CCNet-style language-model quality scoring: fit a corpus bigram LM in
    one statistics pass, then score every document by its mean token
    log-probability — the classic "does this read like the corpus" filter
    (Wenzek et al. 2020 use a KenLM 5-gram; the engine's 2-gram keeps the
    same pipeline shape with a dependency-free model).

    Shape: pass 1 emits map-side (token / bigram, count) partials (Counter
    per batch — dimension-sized rows, never per-token rows), one groupby sum,
    then the top-``max_*`` rows by (count, key) pull to the driver and
    broadcast via ray.put — the model is CAPPED state, documented, with
    out-of-vocabulary mass handled by add-alpha interpolation rather than
    silently dropped. Pass 2 is a pure map: per doc,
        score = mean_i log2( 0.7 * P(w_i | w_{i-1}) + 0.3 * P(w_i) )
    with add-one-smoothed unigrams and ABSOLUTE DISCOUNTING on the bigram
    term (P(w|v) = max(c(v,w) - 0.75, 0) / c(v), the Kneser-Ney discount):
    without it a singleton chain — each token seen once, followed
    deterministically — scores a perfect 1.0 per step, so unseen gibberish
    would OUTSCORE real text (the classic MLE-on-singletons failure; the
    planted test pins this case). Output (doc_id, n_tokens, lm_score);
    higher = more corpus-like. rows-only (floating aggregate of a fitted
    model is not SQL-hashable); behavior pinned by planted tests."""
    from collections import Counter

    import ray
    def grams(batch: pd.DataFrame) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for text in batch["text"]:
            toks = _VOCAB_RE.findall((text or "").lower())
            uni.update(toks)
            bi.update(zip(toks, toks[1:]))
        keys = ["u\x1f" + t for t in uni] + [f"b\x1f{a}\x1f{b}" for a, b in bi]
        vals = list(uni.values()) + list(bi.values())
        return pa.table(
            {"k": pa.array(keys, pa.string()), "n": pa.array(vals, pa.int64())}
        )

    sums = group_aggregate(
        docs_ds.map_batches(grams, batch_format="pandas"), "k", {"n": ("sum", "n")}
    )

    def top_rows(prefix: str, cap: int):
        # exact top-cap by (count desc, key asc): per-block combiner + sort
        def local_top(t: pa.Table) -> pa.Table:
            t = t.filter(
                pa.compute.starts_with(t.column("k"), prefix + "\x1f")
            )
            idx = pa.compute.sort_indices(
                t, sort_keys=[("n", "descending"), ("k", "ascending")]
            )
            return t.take(idx[:cap])

        return (
            sums.map_batches(local_top, batch_format="pyarrow")
            .sort(["n", "k"], descending=[True, False])
            .limit(cap)
            .take_all()
        )

    uni_rows = top_rows("u", max_vocab)
    bi_rows = top_rows("b", max_bigrams)
    uni = {r["k"].split("\x1f", 1)[1]: r["n"] for r in uni_rows}
    bi = {tuple(r["k"].split("\x1f")[1:]): r["n"] for r in bi_rows}
    total = sum(uni.values())
    v = max(len(uni), 1)
    model_ref = ray.put((uni, bi, total, v))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        uni_c, bi_c, tot, vocab = ray.get(model_ref)
        out_n, out_s = [], []
        for text in batch["text"]:
            toks = _VOCAB_RE.findall((text or "").lower())
            out_n.append(len(toks))
            if len(toks) < 2:
                out_s.append(0.0)
                continue
            lp = 0.0
            for a, b in zip(toks, toks[1:]):
                p_uni = (uni_c.get(b, 0) + 1.0) / (tot + vocab)
                ca = uni_c.get(a, 0)
                p_bi = max(bi_c.get((a, b), 0) - 0.75, 0.0) / ca if ca else 0.0
                lp += np.log2(0.7 * p_bi + 0.3 * p_uni)
            out_s.append(round(lp / (len(toks) - 1), 6))
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pd.Series(out_n, dtype="int64", index=batch.index),
                "lm_score": pd.Series(out_s, dtype="float64", index=batch.index),
            }
        )

    return docs_ds.map_batches(score, batch_format="pandas")


# ------------------------------------------------------------------ skipgrams

def skipgram_pairs(docs_ds, window: int = 3, min_count: int = 5):
    """Windowed co-occurrence (skip-gram) pair counts — the word2vec /
    collocation-mining preprocessing step: ordered pairs (w1, w2) with w2
    at most ``window`` positions after w1 in the same document, counted
    corpus-wide, filtered to >= min_count.

    Scale shape: pair generation is pure array shifting on the flattened
    word array (offsets buffer gives doc boundaries — no per-row Python,
    no join); per-batch pre-count collapses the exchange to distinct pairs
    per batch before the ONE pair-keyed groupby."""
    import pyarrow.compute as pc2
    def pairs_partial(t: pa.Table) -> pa.Table:
        parts = pc2.split_pattern(t.column("text"), pattern=" ").combine_chunks()
        offs = parts.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        words = parts.flatten().to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        doc_idx = np.repeat(np.arange(len(widths), dtype=np.int64), widths)
        w1_parts, w2_parts = [], []
        n = len(words)
        for d in range(1, window + 1):
            if n <= d:
                break
            same = doc_idx[:-d] == doc_idx[d:]
            w1_parts.append(words[:-d][same])
            w2_parts.append(words[d:][same])
        if not w1_parts:
            return pa.table(
                {"w1": pa.array([], pa.string()), "w2": pa.array([], pa.string()),
                 "partial": pa.array([], pa.int64())}
            )
        raw = pa.table(
            {
                "w1": pa.array(np.concatenate(w1_parts), pa.string()),
                "w2": pa.array(np.concatenate(w2_parts), pa.string()),
            }
        )
        agg = pa.TableGroupBy(raw, ["w1", "w2"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "w1": agg.column("w1"),
                "w2": agg.column("w2"),
                "partial": pc2.cast(agg.column("count_all"), pa.int64()),
            }
        )

    counts = group_aggregate(
        docs_ds.map_batches(pairs_partial, batch_format="pyarrow"), ["w1", "w2"],
        {"n": ("sum", "partial")},
    )
    return counts.map_batches(
        lambda t: t.filter(
            pa.compute.greater_equal(t.column("n"), min_count)
        ),
        batch_format="pyarrow",
    )


def skipgram_pairs_sql(window: int = 3, min_count: int = 5) -> str:
    return f"""
    WITH p AS (SELECT doc_id, string_split(text, ' ') AS parts FROM documents),
    w AS (
      SELECT doc_id,
             CAST(unnest(generate_series(1, len(parts))) AS BIGINT) AS pos,
             unnest(parts) AS word
      FROM p
    )
    SELECT a.word AS w1, b.word AS w2, count(*) AS n
    FROM w a
    JOIN w b ON a.doc_id = b.doc_id
            AND b.pos - a.pos BETWEEN 1 AND {window}
    GROUP BY 1, 2
    HAVING count(*) >= {min_count}
    """


def token_pmi(docs_ds, window: int = 3, min_count: int = 5):
    """Pointwise mutual information of skipgram pairs: pmi = ln(P(w1,w2) /
    (P(w1)·P(w2))) with P from pair / unigram occurrence counts. All counts
    stay exact integers; the single float is ln of one exact-integer ratio,
    floor-truncated to 6 dp for cross-engine hash parity (the vocab_stats
    discipline). Unigram totals ride a broadcast lookup_join (vocab-sized
    right side); scalar totals are two driver aggregates."""
    import pyarrow.compute as pc2
    from .shuffle import lookup_join

    def words(t: pa.Table) -> pa.Table:
        parts = pc2.split_pattern(t.column("text"), pattern=" ")
        return pa.table({"word": parts.combine_chunks().flatten()})

    unigrams = group_aggregate(
        docs_ds.map_batches(words, batch_format="pyarrow"), "word", {"cnt": ("count", None)}
    ).materialize()  # reused: total + two joins
    n_words = int(unigrams.sum("cnt") or 0)

    pairs = skipgram_pairs(docs_ds, window=window, min_count=0).materialize()
    n_pairs = int(pairs.sum("n") or 0)
    kept = pairs.map_batches(
        lambda t: t.filter(pc2.greater_equal(t.column("n"), min_count)),
        batch_format="pyarrow",
    )

    j1 = lookup_join(
        kept,
        unigrams.map_batches(
            lambda t: t.rename_columns(["w1", "c1"]), batch_format="pyarrow"
        ),
        key="w1",
    )
    j2 = lookup_join(
        j1,
        unigrams.map_batches(
            lambda t: t.rename_columns(["w2", "c2"]), batch_format="pyarrow"
        ),
        key="w2",
    )

    def finalize(t: pa.Table) -> pa.Table:
        n12 = t.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        c1 = t.column("c1").to_numpy(zero_copy_only=False).astype(np.float64)
        c2 = t.column("c2").to_numpy(zero_copy_only=False).astype(np.float64)
        ratio = (n12 * float(n_words) * float(n_words)) / (
            float(n_pairs) * c1 * c2
        )
        pmi = np.floor(np.log(ratio) * 1e6) / 1e6
        return pa.table(
            {
                "w1": t.column("w1"),
                "w2": t.column("w2"),
                "n": t.column("n"),
                "pmi": pa.array(pmi, pa.float64()),
            }
        )

    return j2.map_batches(finalize, batch_format="pyarrow")


def token_pmi_sql(window: int = 3, min_count: int = 5) -> str:
    return f"""
    WITH p AS (SELECT doc_id, string_split(text, ' ') AS parts FROM documents),
    w AS (
      SELECT doc_id,
             CAST(unnest(generate_series(1, len(parts))) AS BIGINT) AS pos,
             unnest(parts) AS word
      FROM p
    ),
    uni AS (SELECT word, count(*) AS cnt FROM w GROUP BY 1),
    nw AS (SELECT sum(cnt) AS total FROM uni),
    pr AS (
      SELECT a.word AS w1, b.word AS w2, count(*) AS n
      FROM w a
      JOIN w b ON a.doc_id = b.doc_id
              AND b.pos - a.pos BETWEEN 1 AND {window}
      GROUP BY 1, 2
    ),
    np AS (SELECT sum(n) AS total FROM pr)
    SELECT pr.w1, pr.w2, pr.n,
           floor(ln((CAST(pr.n AS DOUBLE) * CAST(nw.total AS DOUBLE)
                     * CAST(nw.total AS DOUBLE))
                    / (CAST(np.total AS DOUBLE)
                       * CAST(u1.cnt AS DOUBLE) * CAST(u2.cnt AS DOUBLE)))
                 * 1e6) / 1e6 AS pmi
    FROM pr
    CROSS JOIN nw
    CROSS JOIN np
    JOIN uni u1 ON u1.word = pr.w1
    JOIN uni u2 ON u2.word = pr.w2
    WHERE pr.n >= {min_count}
    """


# ------------------------------------------------------------------ tf-idf keywords

def doc_tfidf_topk(docs_ds, k: int = 3, min_df: int = 2):
    """Per-document keyword extraction: the top-k terms by tf·idf (ties
    broken by term asc — deterministic across engines). idf is the smoothed
    sklearn-style value from ``vocab_stats`` (already floor-truncated to
    6 dp, so the product tf·idf is bit-identical in both engines).

    Scale shape: tf is computed ENTIRELY map-side (a document is one row —
    its term counts never cross a shuffle); the only exchange is the
    vocabulary df groupby that vocab_stats already performs; idf broadcasts
    (vocab-sized, ray.put once) and the top-k selection happens inside the
    same map over documents. One shuffle total, O(k) output rows per doc."""
    import ray

    idf_tbl = vocab_stats(docs_ds, min_df=min_df).materialize()

    def to_map(t: pa.Table) -> dict:
        return dict(
            zip(t.column("term").to_pylist(),
                t.column("idf").to_numpy(zero_copy_only=False))
        )

    idf_map: dict = {}
    for batch in idf_tbl.iter_batches(batch_format="pyarrow"):
        idf_map.update(to_map(batch))
    idf_ref = ray.put(idf_map)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        idf = ray.get(idf_ref)
        out_doc, out_term, out_tf, out_score, out_rank = [], [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            counts: dict = {}
            for term in _VOCAB_RE.findall((text or "").lower()):
                counts[term] = counts.get(term, 0) + 1
            scored = [
                (-(tf * idf[term]), term, tf)
                for term, tf in counts.items()
                if term in idf
            ]
            scored.sort()
            for rank, (neg, term, tf) in enumerate(scored[:k], start=1):
                out_doc.append(doc_id)
                out_term.append(term)
                out_tf.append(tf)
                out_score.append(-neg)
                out_rank.append(rank)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_doc, dtype="int64"),
                "term": pd.Series(out_term, dtype="object"),
                "tf": pd.Series(out_tf, dtype="int64"),
                "score": pd.Series(out_score, dtype="float64"),
                "rank": pd.Series(out_rank, dtype="int64"),
            }
        )

    return docs_ds.map_batches(score, batch_format="pandas")


def doc_tfidf_topk_sql(k: int = 3, min_df: int = 2) -> str:
    return f"""
    WITH tok AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS term
      FROM documents
    ),
    tf AS (
      SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2
    ),
    d AS (
      SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY 1
    ),
    idf AS (
      SELECT term,
             floor((ln(((SELECT count(*) FROM documents) + 1.0) / (df + 1.0)) + 1.0)
                   * 1000000) / 1000000 AS idf
      FROM d WHERE df >= {min_df}
    ),
    scored AS (
      SELECT tf.doc_id, tf.term, tf.tf,
             tf.tf * idf.idf AS score,
             row_number() OVER (PARTITION BY tf.doc_id
                                ORDER BY tf.tf * idf.idf DESC, tf.term) AS rank
      FROM tf JOIN idf ON idf.term = tf.term
    )
    SELECT doc_id, term, tf, score, CAST(rank AS BIGINT) AS rank
    FROM scored WHERE rank <= {k}
    """


# ------------------------------------------------------- Zipf slope fit


def _exact_int_sum(a: np.ndarray) -> int:
    """Exact big-int sum of an int64 array: chunked int64 partials (each
    chunk bounded well below 2**63 for microlog-grid magnitudes), combined
    with Python's arbitrary-precision ints. The Ray-side mirror of DuckDB's
    sum(BIGINT) -> HUGEINT, so OLS sufficient statistics stay EXACT at any
    vocabulary size instead of silently overflowing int64."""
    if a.size == 0:
        return 0
    return sum(int(s) for s in np.add.reduceat(a, np.arange(0, a.size, 1 << 14)))


def zipf_slope_by_source(docs_ds):
    """Per-source Zipf rank-frequency fit: the OLS slope of ln(count) on
    ln(rank) over the source's full term-frequency table (ranks ordered by
    count desc, term asc — tie-free and deterministic). A corpus-health
    statistic for training-data pipelines: natural text sits near -1;
    boilerplate-heavy or deduplicated-to-death sources drift away from it.
    Output: (source, vocab_size, zipf_slope).

    Parity discipline (the regression_by_flag convention, mining.py:63):
    both engines put each log term on an integer MICROLOG grid
    (floor(ln(x)*1e6) as BIGINT), so the OLS sufficient statistics are
    exact integers (HUGEINT in DuckDB, chunked Python ints here) and the
    slope is ONE double expression written identically on both sides —
    bit-exact parity without trusting either engine's regr_slope kernel.

    Scale shape: stage 1 is the vocab_stats map-side combine (per-batch
    Counter -> one (source, term)-keyed exchange); stage 2 buckets by
    SOURCE (dimension-sized key), ranks each source's vocabulary in one
    task (a 10^7-term vocab is ~200 MB of int64 columns — one task's
    work), and emits one row per source."""
    from .shuffle import bucket_group_apply

    from collections import Counter

    def partial(batch: pd.DataFrame) -> pa.Table:
        c: Counter = Counter()
        for source, text in zip(batch["source"], batch["text"]):
            toks = _VOCAB_RE.findall((text or "").lower())
            c.update(zip([source] * len(toks), toks))
        keys = list(c.keys())
        return pa.table(
            {
                "source": pa.array([k[0] for k in keys], pa.string()),
                "term": pa.array([k[1] for k in keys], pa.string()),
                "partial": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = group_aggregate(
        docs_ds.map_batches(partial, batch_format="pandas"), ["source", "term"],
        {"cnt": ("sum", "partial")},
    )

    def slope_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        srcs: list = []
        sizes: list = []
        slopes: list = []
        for src, g in df.groupby("source", sort=False):
            cnt = g["cnt"].to_numpy().astype(np.int64)
            term = g["term"].to_numpy()
            order = np.lexsort((term, -cnt))
            cnt = cnt[order]
            v = cnt.size
            rnk = np.arange(1, v + 1, dtype=np.int64)
            lx = np.floor(np.log(rnk) * 1e6).astype(np.int64)
            ly = np.floor(np.log(cnt) * 1e6).astype(np.int64)
            sx = _exact_int_sum(lx)
            sy = _exact_int_sum(ly)
            sxx = _exact_int_sum(lx * lx)
            sxy = _exact_int_sum(lx * ly)
            num = v * sxy - sx * sy
            den = v * sxx - sx * sx
            srcs.append(src)
            sizes.append(v)
            slopes.append(float(num) / float(den) if den != 0 else None)
        return pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "vocab_size": pa.array(sizes, pa.int64()),
                "zipf_slope": pa.array(slopes, pa.float64()),
            }
        )

    return bucket_group_apply(counts, ["source"], slope_bucket, n_buckets=8)


ZIPF_SLOPE_SQL = """
WITH t AS (
  SELECT source,
         unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS term
  FROM documents
), c AS (
  SELECT source, term, CAST(count(*) AS BIGINT) AS cnt FROM t GROUP BY 1, 2
), r AS (
  SELECT source, cnt,
         row_number() OVER (PARTITION BY source ORDER BY cnt DESC, term) AS rnk
  FROM c
), m AS (
  SELECT source,
         CAST(floor(ln(rnk) * 1000000) AS BIGINT) AS lx,
         CAST(floor(ln(cnt) * 1000000) AS BIGINT) AS ly
  FROM r
), s AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n,
         sum(lx) AS sx, sum(ly) AS sy,
         sum(lx * lx) AS sxx, sum(lx * ly) AS sxy
  FROM m GROUP BY 1
)
SELECT source, n AS vocab_size,
       CASE WHEN n * sxx - sx * sx = 0 THEN NULL
            ELSE CAST(n * sxy - sx * sy AS DOUBLE)
                 / CAST(n * sxx - sx * sx AS DOUBLE) END AS zipf_slope
FROM s
"""
