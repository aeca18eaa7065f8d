"""Similarity search over an embedding column (list<float>).

Brute-force cosine top-k is the baseline (numpy matmul per batch against a
broadcast query matrix — the reference's k-NN retrieval J8,
common/repositories/vector_repository.py:56-67, re-expressed without
pgvector); an IVF-style coarse-quantizer variant is the scale path.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa


def list_column_to_matrix(col) -> np.ndarray:
    """list<float> column -> (n, d) float64 matrix by flattening the Arrow
    values buffer and reshaping via the offsets — never a Python
    list-of-lists (to_pylist on a 3072-dim embedding column materializes
    n×d boxed floats; this path is one buffer view + one astype). Ragged
    or null-bearing columns fall back to the object path."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if col.null_count == 0 and hasattr(col, "offsets"):
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        d = int(widths[0])
        if (widths == d).all():
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return flat.astype(np.float64, copy=False).reshape(n, d)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _to_matrix(batch: pa.Table):
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    mat = list_column_to_matrix(batch.column("embedding"))
    return ids, mat


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _fetch_rows_by_ids(embeddings_ds, wanted: List[int]):
    """Vectorized id-set fetch: pc.is_in mask inside map_batches (NOT a
    per-row Python filter over the dataset)."""
    import pyarrow.compute as pc

    value_set = pa.array(sorted(set(wanted)), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("vec_id"), value_set=value_set))

    return embeddings_ds.map_batches(pick, batch_format="pyarrow").take_all()


def _collect_matrix(ds):
    """Driver-side (ids, matrix) collection WITHOUT boxing: stream Arrow
    batches and reshape each embedding column via its values buffer
    (list_column_to_matrix) — take_all() + a per-row list comprehension
    would materialize n*d boxed Python floats on the driver, the exact
    anti-pattern that helper exists to avoid. Gate row counts BEFORE
    calling this."""
    ids_parts, mat_parts = [], []
    proj = ds.map_batches(
        lambda b: b.select(["vec_id", "embedding"]), batch_format="pyarrow"
    )
    for t in proj.iter_batches(batch_format="pyarrow", batch_size=8192):
        i, m = _to_matrix(t)
        if len(i):
            ids_parts.append(np.asarray(i, dtype=np.int64))
            mat_parts.append(m)
    if not ids_parts:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    return np.concatenate(ids_parts), np.vstack(mat_parts)


def knn_cosine(embeddings_ds, query_ids: List[int], k: int = 10,
               filter_col: str = None, filter_values: List = None):
    """Exact top-k by cosine for each query id, excluding self.

    Shape: broadcast the (tiny) query matrix via ray.put; each batch scores
    its rows against all queries (one matmul) and emits its LOCAL top-k per
    query; a driver-side heap merge of per-batch top-ks gives the global
    top-k — no global sort, no all-pairs. Ties broken by ascending vec_id on
    the ROUNDED score so the result is engine-independent.

    ``filter_col`` / ``filter_values`` scope the CANDIDATE set with an
    IN-list metadata predicate, applied vectorized inside each batch before
    scoring — the reference's retrieval is always scoped this way
    (vector_repository.py:56-67 filters by file_id before the L2 order).
    Queries are looked up in the unfiltered table; an id that is not in it
    yields no rows (the SQL join's semantics)."""
    import pyarrow.compute as pc

    import ray

    qrows = _fetch_rows_by_ids(embeddings_ds, query_ids)
    if not qrows:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "vec_id": pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})
    qids = np.asarray([r["vec_id"] for r in qrows])
    qmat = _normalize(np.asarray([r["embedding"] for r in qrows], dtype=np.float64))
    ref = ray.put((qids, qmat))
    filter_set = (
        pa.array(sorted(set(filter_values))) if filter_values is not None else None
    )

    def local_topk(batch: pa.Table) -> pd.DataFrame:
        q_ids, q_mat = ray.get(ref)
        if filter_set is not None:
            batch = batch.filter(pc.is_in(batch.column(filter_col), value_set=filter_set))
            if batch.num_rows == 0:
                return pd.DataFrame(
                    {
                        "query_id": pd.array([], dtype="int64"),
                        "vec_id": pd.array([], dtype="int64"),
                        "cos_sim": pd.array([], dtype="float64"),
                    }
                )
        ids, mat = _to_matrix(batch)
        sims = q_mat @ _normalize(mat).T  # (n_query, n_batch)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            order = np.argsort(-sims[qi])
            taken = 0
            for j in order:
                if ids[j] == q_ids[qi]:
                    continue
                out_q.append(int(q_ids[qi]))
                out_v.append(int(ids[j]))
                out_s.append(round(float(sims[qi, j]), 6))
                taken += 1
                if taken >= k:
                    break
        return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "cos_sim": out_s})

    partials = embeddings_ds.map_batches(local_topk, batch_format="pyarrow").take_all()

    # driver-side merge (rows: n_queries * k * n_blocks — tiny)
    best = {}
    for r in partials:
        best.setdefault(r["query_id"], []).append((-r["cos_sim"], r["vec_id"], r))
    rows = []
    for qid in sorted(best):
        for _, _, r in heapq.nsmallest(k, best[qid]):
            rows.append(r)
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "cos_sim"])


def knn_cosine_sql(query_ids: List[int], k: int = 10,
                   filter_col: str = None, filter_values: List = None) -> str:
    ids = ", ".join(str(q) for q in query_ids)
    pred = ""
    if filter_values is not None:
        vals = ", ".join(str(v) for v in sorted(set(filter_values)))
        pred = f"AND e.{filter_col} IN ({vals})"
    return f"""
    SELECT query_id, vec_id, cos_sim FROM (
      SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
             round(list_cosine_similarity(
                 CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])), 6) AS cos_sim,
             row_number() OVER (
                 PARTITION BY q.vec_id
                 ORDER BY round(list_cosine_similarity(
                     CAST(q.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])), 6) DESC,
                 e.vec_id ASC) AS rn
      FROM embeddings q JOIN embeddings e ON e.vec_id != q.vec_id
      WHERE q.vec_id IN ({ids}) {pred}
    ) WHERE rn <= {k}
    """


class IvfIndex:
    """IVF-style coarse quantizer: deterministic-seed k-means-lite centroids
    (one Lloyd iteration over a sample), assign each vector to its nearest
    centroid, probe only the closest `n_probe` lists at query time.
    Approximate; the 100TB-shaped ANN path (bucket-local scoring only)."""

    def __init__(self, n_lists: int = 16, n_probe: int = 6, seed: int = 13):
        self.n_lists = n_lists
        self.n_probe = n_probe
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None

    def fit(self, sample: np.ndarray):
        rng = np.random.RandomState(self.seed)
        n = sample.shape[0]
        idx = rng.choice(n, size=min(self.n_lists, n), replace=False)
        cents = sample[idx].copy()
        # one Lloyd refinement pass
        assign = np.argmax(_normalize(sample) @ _normalize(cents).T, axis=1)
        for c in range(cents.shape[0]):
            members = sample[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        self.centroids = _normalize(cents)
        return self

    def assign(self, mat: np.ndarray) -> np.ndarray:
        return np.argmax(_normalize(mat) @ self.centroids.T, axis=1)


def knn_cosine_ivf(embeddings_ds, query_ids: List[int], k: int = 10,
                   n_lists: int = 16, n_probe: int = 6):
    """ANN top-k: assign vectors to IVF lists (one shuffle), score queries
    only against their n_probe closest lists."""
    import ray

    # corpus-wide deterministic stratified sample for the centroid fit:
    # `take(2048)` saw only the FIRST blocks (biased when vectors arrive
    # clustered); vec_id-modulo picks ~2048 rows spread across every block
    # in one vectorized filter pass
    n_total = embeddings_ds.count()
    stride = max(1, n_total // 2048)

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % stride == 0))

    sample_rows = embeddings_ds.map_batches(pick, batch_format="pyarrow").take_all()
    sample = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    index = IvfIndex(n_lists=n_lists, n_probe=n_probe).fit(sample)

    qrows = [r for r in sample_rows if r["vec_id"] in set(query_ids)]
    missing = set(query_ids) - {r["vec_id"] for r in qrows}
    if missing:
        # vectorized is_in fetch (a per-row Python ds.filter would scan the
        # whole dataset through the row interface)
        qrows += _fetch_rows_by_ids(embeddings_ds, list(missing))
    qids = np.asarray([r["vec_id"] for r in qrows])
    qmat = _normalize(np.asarray([r["embedding"] for r in qrows], dtype=np.float64))
    probe_lists = np.argsort(-(qmat @ index.centroids.T), axis=1)[:, :n_probe]
    ref = ray.put((qids, qmat, probe_lists, index.centroids))

    def local(batch: pa.Table) -> pd.DataFrame:
        q_ids, q_mat, probes, cents = ray.get(ref)
        ids, mat = _to_matrix(batch)
        nm = _normalize(mat)
        assign = np.argmax(nm @ cents.T, axis=1)
        out_q, out_v, out_s = [], [], []
        for qi in range(len(q_ids)):
            mask = np.isin(assign, probes[qi]) & (ids != q_ids[qi])
            if not mask.any():
                continue
            sims = q_mat[qi] @ nm[mask].T
            sel_ids = ids[mask]
            order = np.argsort(-sims)[:k]
            for j in order:
                out_q.append(int(q_ids[qi]))
                out_v.append(int(sel_ids[j]))
                out_s.append(round(float(sims[j]), 6))
        return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "cos_sim": out_s})

    partials = embeddings_ds.map_batches(local, batch_format="pyarrow").take_all()
    best = {}
    for r in partials:
        best.setdefault(r["query_id"], []).append((-r["cos_sim"], r["vec_id"], r))
    rows = []
    for qid in sorted(best):
        for _, _, r in heapq.nsmallest(k, best[qid]):
            rows.append(r)
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "cos_sim"])


# ------------------------------------------------------- RAG section context

SECTION_CONTEXT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("section", pa.string()),
        ("rank", pa.int32()),
        ("chunk_idx", pa.int64()),
        ("chunk_text", pa.string()),
        ("l2_distance", pa.float64()),
    ]
)


def retrieve_section_context(chunks_ds, section_queries: dict, k: int = 5,
                             dim: Optional[int] = None, seed: int = 17,
                             n_buckets: int = 32):
    """The reference's pgvector RAG side-channel, doc-scoped: for each
    extraction section, embed the section's query string and rank THAT
    DOCUMENT'S OWN chunks by L2 distance to it, keeping the top k — the
    context rows fed to the per-section LLM chain
    (vector_repository.retrieve_relevant_documents: file_id filter +
    l2_distance order + limit 5, vector_repository.py:56-67; the section
    chains at llm_invoker.py:85-110).

    Scale shape: the query matrix is tiny (one row per section) and rides a
    single ray.put; every chunk block scores vectorized (one matmul) and
    emits only its LOCAL top-k per (doc, section) — so the one doc-bucket
    shuffle moves <= k * n_sections rows per doc, never the corpus. Chunk
    embeddings are L2-normalized (HashingEmbedder), so l2 = sqrt(2 - 2*cos)
    is exact and monotone with cosine.

    chunks_ds columns: doc_id, chunk_idx, chunk_text, embedding."""
    import pyarrow.compute as pc
    import ray

    from .chunk import EMBED_DIM, HashingEmbedder
    from .shuffle import bucket_group_apply_arrow

    names = sorted(section_queries)
    embedder = HashingEmbedder(dim=dim or EMBED_DIM, seed=seed)
    qmat = embedder.encode_texts([section_queries[n] for n in names])
    ref = ray.put(qmat.astype(np.float64))

    def local_topk(batch: pa.Table) -> pa.Table:
        q = ray.get(ref)  # (s, dim)
        if batch.num_rows == 0:
            return SECTION_CONTEXT_SCHEMA.empty_table().drop_columns(["rank"])
        docs = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        cidx = batch.column("chunk_idx").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = list_column_to_matrix(batch.column("embedding"))
        sims = mat @ q.T  # (n, s); rows are unit vectors
        l2 = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * sims))
        out = []
        for si, section in enumerate(names):
            d = np.round(l2[:, si], 9)  # rounded: engine-independent ties
            order = np.lexsort((cidx, d, docs))  # by doc, then dist, then idx
            od, odist = docs[order], d[order]
            starts = np.concatenate(([0], np.flatnonzero(od[1:] != od[:-1]) + 1))
            within = np.arange(len(od)) - np.repeat(starts, np.diff(np.concatenate((starts, [len(od)]))))
            keep = order[within < k]
            out.append(
                pa.table(
                    {
                        "doc_id": pa.array(docs[keep], pa.int64()),
                        "section": pa.array([section] * len(keep), pa.string()),
                        "chunk_idx": pa.array(cidx[keep], pa.int64()),
                        "chunk_text": pc.take(batch.column("chunk_text"), pa.array(keep)),
                        "l2_distance": pa.array(d[keep], pa.float64()),
                    }
                )
            )
        return pa.concat_tables(out)

    partials = chunks_ds.map_batches(local_topk, batch_format="pyarrow")

    def pick_global(t: pa.Table, bucket_id: int) -> pa.Table:
        order = pc.sort_indices(
            t,
            sort_keys=[("doc_id", "ascending"), ("section", "ascending"),
                       ("l2_distance", "ascending"), ("chunk_idx", "ascending")],
        )
        s = t.take(order)
        docs = s.column("doc_id").to_numpy()
        secs = np.asarray(s.column("section").to_pylist())
        key_change = np.concatenate(
            ([True], (docs[1:] != docs[:-1]) | (secs[1:] != secs[:-1]))
        )
        starts = np.flatnonzero(key_change)
        grp = np.cumsum(key_change) - 1
        within = np.arange(len(docs)) - starts[grp]
        keep = within < k
        kept = s.filter(pa.array(keep))
        return pa.table(
            {
                "doc_id": kept.column("doc_id"),
                "section": kept.column("section"),
                "rank": pa.array(within[keep].astype(np.int32), pa.int32()),
                "chunk_idx": kept.column("chunk_idx"),
                "chunk_text": kept.column("chunk_text"),
                "l2_distance": kept.column("l2_distance"),
            },
            schema=SECTION_CONTEXT_SCHEMA,
        )

    return bucket_group_apply_arrow(partials, ["doc_id"], pick_global, n_buckets)


# ------------------------------------------------------------ product quantization

def pq_fit(embeddings_ds, m: int = 8, k_cent: int = 16, n_iter: int = 8,
           seed: int = 13, sample_cap: int = 8192) -> np.ndarray:
    """Fit product-quantization codebooks (Jégou et al. 2011): split the
    d-dim space into ``m`` subspaces and run Lloyd's independently in each
    (euclidean, on the NORMALIZED vectors so inner products approximate
    cosine at query time). Fit rides the same deterministic stride sample
    as the IVF/k-means fits — O(sample × d) driver memory, one pass.
    Returns (m, k_cent, d/m) codebooks."""
    from .cluster import _stride_sample

    _, sample = _stride_sample(embeddings_ds, "vec_id", sample_cap)
    sample = _normalize(sample)
    n, d = sample.shape
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    rng = np.random.RandomState(seed)
    books = np.empty((m, k_cent, sub), dtype=np.float64)
    for s in range(m):
        X = sample[:, s * sub:(s + 1) * sub]
        cents = X[rng.choice(n, size=min(k_cent, n), replace=False)].copy()
        for _ in range(n_iter):
            d2 = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            assign = d2.argmin(axis=1)
            for c in range(len(cents)):
                mem = X[assign == c]
                if len(mem):
                    cents[c] = mem.mean(axis=0)
        books[s, :len(cents)] = cents
        if len(cents) < k_cent:  # degenerate tiny sample: repeat last centroid
            books[s, len(cents):] = cents[-1]
    return books


def _pq_codes(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) float matrix -> (n, m) uint8 codes: per subspace, argmin
    squared distance to the codebook, expanded as x²−2x·c+c² so the whole
    batch scores against all centroids in one matmul per subspace."""
    n, d = mat.shape
    m, k_cent, sub = books.shape
    codes = np.empty((n, m), dtype=np.uint8)
    for s in range(m):
        X = mat[:, s * sub:(s + 1) * sub]
        C = books[s]
        d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
        codes[:, s] = d2.argmin(axis=1).astype(np.uint8)
    return codes


def pq_encode(embeddings_ds, books: np.ndarray):
    """Map-only encode: every vector compresses to m uint8 codes (a 64-dim
    float32 vector becomes 8 bytes — the 32× memory cut that lets a 100 TB
    embedding corpus live in cluster RAM). Returns (vec_id, codes)."""
    import ray

    ref = ray.put(books)

    def enc(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        ids, mat = _to_matrix(batch)
        codes = _pq_codes(_normalize(mat), b)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "codes": pa.array(list(codes), pa.list_(pa.uint8())),
            }
        )

    return embeddings_ds.map_batches(enc, batch_format="pyarrow")


def knn_pq(embeddings_ds, query_ids: List[int], k: int = 10, m: int = 8,
           k_cent: int = 16, books: "np.ndarray" = None, codes_ds=None):
    """ANN top-k via PQ asymmetric distance (ADC): each query precomputes
    an (m, k_cent) inner-product table against the codebooks ONCE; every
    corpus vector then scores as m table lookups + a sum — no float matmul
    against the corpus at query time. Per-batch local top-k, driver merges
    only n_blocks × queries × k rows (same shape as knn_cosine). Scores are
    approximate (quantized) cosines; recall is pinned by a planted test.

    Encode-once serving path: pass ``books`` (from pq_fit) and ``codes_ds``
    (from pq_encode, persisted as the compressed index) and the full
    embedding column is never touched at query time — only the 8-byte code
    rows stream; queries still fetch their own raw vectors by id."""
    import ray

    if (books is None) != (codes_ds is None):
        raise ValueError("pass books and codes_ds together (or neither)")
    if books is None:
        books = pq_fit(embeddings_ds, m=m, k_cent=k_cent)
    qrows = _fetch_rows_by_ids(embeddings_ds, list(query_ids))
    qids = np.asarray([r["vec_id"] for r in qrows])
    qmat = _normalize(np.asarray([r["embedding"] for r in qrows], dtype=np.float64))
    mm, kc, sub = books.shape
    # ADC tables: T[q, s, c] = q_s · books[s, c]
    tables = np.einsum("qsd,scd->qsc", qmat.reshape(len(qids), mm, sub), books)
    ref = ray.put((qids, tables, books))

    def _score_codes(ids: np.ndarray, codes: np.ndarray, q_ids, T, mm_):
        out_q, out_v, out_s = [], [], []
        col = np.arange(mm_)
        for qi in range(len(q_ids)):
            sc = T[qi][col[None, :], codes].sum(axis=1)  # (n,)
            sel = np.flatnonzero(ids != q_ids[qi])
            order = sel[np.argsort(-sc[sel])[:k]]
            out_q.extend([int(q_ids[qi])] * len(order))
            out_v.extend(ids[order].astype(int).tolist())
            out_s.extend(np.round(sc[order], 6).tolist())
        return pd.DataFrame({"query_id": out_q, "vec_id": out_v, "score": out_s})

    def local(batch: pa.Table) -> pd.DataFrame:
        q_ids, T, b = ray.get(ref)
        ids, mat = _to_matrix(batch)
        codes = _pq_codes(_normalize(mat), b)  # (n, m)
        return _score_codes(ids, codes, q_ids, T, b.shape[0])

    def local_precoded(batch: pa.Table) -> pd.DataFrame:
        q_ids, T, b = ray.get(ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        col_ = batch.column("codes")
        if isinstance(col_, pa.ChunkedArray):
            col_ = col_.combine_chunks()
        codes = (
            col_.flatten().to_numpy(zero_copy_only=False)
            .reshape(len(ids), b.shape[0])
        )
        return _score_codes(ids, codes, q_ids, T, b.shape[0])

    scored = (
        codes_ds.map_batches(local_precoded, batch_format="pyarrow")
        if codes_ds is not None
        else embeddings_ds.map_batches(local, batch_format="pyarrow")
    )
    partials = scored.take_all()
    best: dict = {}
    for r in partials:
        best.setdefault(r["query_id"], []).append((r["score"], r["vec_id"]))
    rows_q, rows_v, rows_s, rows_r = [], [], [], []
    for q in sorted(best):
        top = sorted(best[q], key=lambda t: (-t[0], t[1]))[:k]
        for rank, (s, v) in enumerate(top, 1):
            rows_q.append(q); rows_v.append(v); rows_s.append(s); rows_r.append(rank)
    import ray.data as rd

    return rd.from_arrow(
        pa.table(
            {
                "query_id": pa.array(rows_q, pa.int64()),
                "vec_id": pa.array(rows_v, pa.int64()),
                "score": pa.array(rows_s, pa.float64()),
                "rank": pa.array(rows_r, pa.int64()),
            }
        )
    )


def triplet_mining(embeddings_ds, anchor_mod: int = 50,
                   label_col: str = "label"):
    """Contrastive-training triplet mining: for every ANCHOR vector
    (``vec_id % anchor_mod == 0``), the POSITIVE is its most-similar
    same-label vector (excluding itself) and the HARD NEGATIVE its
    most-similar other-label vector — the FaceNet/SimCLR-style hardest-
    negative rule that makes triplet losses converge, expressed as one
    corpus scan. Ranking follows the knn_cosine convention: cosine
    ROUNDED to 6dp descending, then vec_id ascending, so the selection is
    engine-independent. Anchors missing either side (no same-label or no
    other-label vector exists) are dropped on both engines (oracle JOIN).

    Scale shape: the anchor matrix is broadcast via ``ray.put``; each
    batch computes one (n_anchors x batch) matmul and emits its local
    best positive/negative PER ANCHOR (two rows max per anchor per
    batch); the driver folds #batches x anchors candidate rows — no
    all-pairs, no shuffle. Output: (anchor_id, pos_id, pos_cos, neg_id,
    neg_cos)."""
    import ray

    def anchor_rows(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy()
        return t.filter(pa.array(ids % anchor_mod == 0))

    a_parts = embeddings_ds.map_batches(
        anchor_rows, batch_format="pyarrow"
    ).take_all()
    if not a_parts:
        return pd.DataFrame(
            {
                "anchor_id": pd.Series([], dtype=np.int64),
                "pos_id": pd.Series([], dtype=np.int64),
                "pos_cos": pd.Series([], dtype=np.float64),
                "neg_id": pd.Series([], dtype=np.int64),
                "neg_cos": pd.Series([], dtype=np.float64),
            }
        )
    a_ids = np.asarray([r["vec_id"] for r in a_parts], dtype=np.int64)
    a_labels = np.asarray([r[label_col] for r in a_parts])
    a_mat = _normalize(
        np.asarray([r["embedding"] for r in a_parts], dtype=np.float64)
    )
    ref = ray.put((a_ids, a_labels, a_mat))

    def local_best(batch: pa.Table) -> pd.DataFrame:
        aid, alab, amat = ray.get(ref)
        ids, mat = _to_matrix(batch)
        labels = batch.column(label_col).to_numpy()
        sims = np.round(amat @ _normalize(mat).T, 6)  # (n_anchor, n_batch)
        rows = {"anchor_id": [], "cand_id": [], "cos": [], "is_pos": []}
        for qi in range(aid.size):
            not_self = ids != aid[qi]
            for is_pos, side in ((1, labels == alab[qi]),
                                 (0, labels != alab[qi])):
                m = side & not_self
                if not m.any():
                    continue
                c = sims[qi][m]
                cand = ids[m]
                best = np.lexsort((cand, -c))[0]
                rows["anchor_id"].append(int(aid[qi]))
                rows["cand_id"].append(int(cand[best]))
                rows["cos"].append(float(c[best]))
                rows["is_pos"].append(int(is_pos))
        return pd.DataFrame(
            {
                "anchor_id": pd.Series(rows["anchor_id"], dtype=np.int64),
                "cand_id": pd.Series(rows["cand_id"], dtype=np.int64),
                "cos": pd.Series(rows["cos"], dtype=np.float64),
                "is_pos": pd.Series(rows["is_pos"], dtype=np.int64),
            }
        )

    partials = embeddings_ds.map_batches(local_best, batch_format="pyarrow").take_all()
    best: dict = {}
    for r in partials:
        k = (r["anchor_id"], r["is_pos"])
        cur = best.get(k)
        cand = (-r["cos"], r["cand_id"])
        if cur is None or cand < cur:
            best[k] = cand
    rows = []
    for aidv in sorted({k[0] for k in best}):
        p = best.get((aidv, 1))
        n = best.get((aidv, 0))
        if p is None or n is None:
            continue  # oracle JOIN drops one-sided anchors too
        rows.append((aidv, p[1], -p[0], n[1], -n[0]))
    return pd.DataFrame(
        rows, columns=["anchor_id", "pos_id", "pos_cos", "neg_id", "neg_cos"]
    ).astype(
        {
            "anchor_id": "int64", "pos_id": "int64", "pos_cos": "float64",
            "neg_id": "int64", "neg_cos": "float64",
        }
    )


def triplet_mining_sql(anchor_mod: int = 50, label_col: str = "label") -> str:
    def ranked(cmp: str, name: str) -> str:
        return f"""
      SELECT a.vec_id AS anchor_id, e.vec_id AS cand_id,
             round(list_cosine_similarity(
                 CAST(a.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])), 6) AS c,
             row_number() OVER (
                 PARTITION BY a.vec_id
                 ORDER BY round(list_cosine_similarity(
                     CAST(a.embedding AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])), 6) DESC,
                 e.vec_id ASC) AS rn
      FROM embeddings a JOIN embeddings e
        ON e.vec_id != a.vec_id AND e.{label_col} {cmp} a.{label_col}
      WHERE a.vec_id % {anchor_mod} = 0"""

    return f"""
    WITH pos AS ({ranked('=', 'pos')}), neg AS ({ranked('!=', 'neg')})
    SELECT p.anchor_id, p.cand_id AS pos_id, p.c AS pos_cos,
           n.cand_id AS neg_id, n.c AS neg_cos
    FROM (SELECT * FROM pos WHERE rn = 1) p
    JOIN (SELECT * FROM neg WHERE rn = 1) n USING (anchor_id)
    """


# ------------------------------------------------------- kNN graph (all nodes)

KNN_GRAPH_MAX_ROWS = 200_000


def knn_graph(embeddings_ds, k: int = 5,
              max_exact_rows: int = KNN_GRAPH_MAX_ROWS,
              allow_approx: bool = False):
    """EXACT k-nearest-neighbour GRAPH: top-k cosine neighbours for EVERY
    vector (not just a query list) — the building block of SemDeDup-style
    semantic dedup, NN-descent/kNN-graph clustering and UMAP-class
    manifold methods. Output: (src_id, nn_rank, dst_id, cos_sim).

    Shape: the (id-sorted, normalized) corpus matrix is broadcast ONCE via
    ``ray.put``; each batch computes one (n_batch x N) matmul and emits its
    rows' FINAL top-k directly — map-only, zero shuffle, no driver merge
    (every candidate is in the broadcast). That is O(N) driver state and
    O(N^2) scoring, the declared verification-scale method: inputs larger
    than ``max_exact_rows`` RAISE unless ``allow_approx=True`` routes them
    to the banded-LSH variant (knn_graph_lsh) with a logged notice — an
    operator named exact must not silently return approximate results
    (same contract as embedding_cosine_pairs).

    Ranking follows the knn_cosine convention: cosine ROUNDED to 6dp
    descending, ties by ascending dst vec_id (the corpus columns are
    pre-sorted by vec_id, so a STABLE argsort of -rounded realizes the
    tie-break without a composite key)."""
    import ray

    n_rows = embeddings_ds.count()
    if n_rows > max_exact_rows:
        if not allow_approx:
            raise ValueError(
                f"knn_graph is EXACT (O(N^2) scoring, O(N) driver state) "
                f"and gated at {max_exact_rows} rows; the input has "
                f"{n_rows}. Pass allow_approx=True to fall back to "
                f"knn_graph_lsh (approximate), or call it directly."
            )
        import logging

        logging.getLogger(__name__).warning(
            "knn_graph: %d rows exceeds the exact-path gate (%d); routing "
            "to banded hyperplane LSH (approximate).", n_rows, max_exact_rows,
        )
        return knn_graph_lsh(embeddings_ds, k=k)

    all_ids, all_mat = _collect_matrix(embeddings_ds)
    order = np.argsort(all_ids, kind="stable")
    all_ids = all_ids[order]
    all_mat = _normalize(all_mat[order])
    ref = ray.put((all_ids, all_mat))

    def local(batch: pa.Table) -> pd.DataFrame:
        c_ids, c_mat = ray.get(ref)
        ids, mat = _to_matrix(batch)
        sims = np.round(_normalize(mat) @ c_mat.T, 6)  # (n_batch, N)
        # exclude self by id (not by position: the batch is a corpus slice)
        sims[c_ids[None, :] == ids[:, None]] = -2.0
        # columns are id-ascending, so a stable sort of -sims breaks rounded
        # ties by ascending dst id
        top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        n = len(ids)
        kk = top.shape[1]
        rows = np.repeat(np.arange(n), kk)
        flat = top.ravel()
        keep = sims[rows, flat] > -2.0  # degenerate N<=1 guard
        return pd.DataFrame(
            {
                "src_id": pd.Series(np.repeat(ids, kk)[keep], dtype=np.int64),
                "nn_rank": pd.Series(
                    np.tile(np.arange(1, kk + 1), n)[keep], dtype=np.int64
                ),
                "dst_id": pd.Series(c_ids[flat][keep], dtype=np.int64),
                "cos_sim": pd.Series(sims[rows, flat][keep], dtype=np.float64),
            }
        )

    return embeddings_ds.map_batches(local, batch_format="pyarrow")


def knn_graph_sql(k: int = 5) -> str:
    return f"""
    SELECT src_id, nn_rank, dst_id, cos_sim FROM (
      SELECT a.vec_id AS src_id, b.vec_id AS dst_id,
             round(list_cosine_similarity(
                 CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])), 6) AS cos_sim,
             row_number() OVER (
                 PARTITION BY a.vec_id
                 ORDER BY round(list_cosine_similarity(
                     CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])), 6) DESC,
                 b.vec_id ASC) AS nn_rank
      FROM embeddings a JOIN embeddings b ON b.vec_id != a.vec_id
    ) WHERE nn_rank <= {k}
    """


def knn_graph_lsh(embeddings_ds, k: int = 5, n_bands: int = 24,
                  bits_per_band: int = 6, seed: int = 11,
                  bucket_cap: int = 2000, n_buckets: int = 32):
    """APPROXIMATE kNN graph — the 100 TB-shaped variant. Multi-band
    hyperplane LSH (same banding structure as dedup.embedding_lsh_pairs):
    each vector gets ``n_bands`` sign-bit keys; within every (band, key)
    bucket each member scores only its bucket peers and emits a LOCAL
    top-k candidate list; one (src_id)-keyed reduce merges candidates
    across bands (dedup dst, re-rank, cut to k). No N^2 term anywhere:
    bucket population shrinks geometrically in bits_per_band, recall is
    recovered across bands, oversized buckets truncate at ``bucket_cap``
    via seeded-hash uniform sampling with a LOGGED drop count (the
    comentions hot-key policy). Recall vs the exact graph is pinned in
    tests/test_knn_graph.py. Output schema == knn_graph."""
    import logging

    import ray

    from .shuffle import bucket_group_apply

    logger = logging.getLogger(__name__)

    import ray.data as rd

    first = embeddings_ds.take(1)
    if not first:
        return rd.from_arrow(pa.table({
            "src_id": pa.array([], pa.int64()),
            "nn_rank": pa.array([], pa.int64()),
            "dst_id": pa.array([], pa.int64()),
            "cos_sim": pa.array([], pa.float64()),
        }))
    dim = len(first[0]["embedding"])
    rng = np.random.RandomState(seed)
    planes_ref = ray.put(rng.normal(size=(n_bands, bits_per_band, dim)))
    weights = 1 << np.arange(bits_per_band, dtype=np.int64)

    from .dedup import cap_bucket_members, make_hyperplane_bucketizer

    # normalize=True: bucket_local_topk dots the carried rows raw (the
    # band keys are scale-invariant either way)
    bucketed = embeddings_ds.map_batches(
        make_hyperplane_bucketizer(planes_ref, n_bands, weights,
                                   normalize=True),
        batch_format="pyarrow",
    )

    def bucket_local_topk(df: pd.DataFrame, bucket_id: int) -> pa.Table:
        src_o, dst_o, sim_o = [], [], []
        n_truncated = 0
        for _, g in df.groupby(["band_id", "band_key"], sort=False):
            if len(g) < 2:
                continue
            g, dropped = cap_bucket_members(g, bucket_cap)
            n_truncated += dropped
            ids = g["vec_id"].to_numpy()
            mat = np.asarray(g["embedding"].tolist(), dtype=np.float64)
            sims = np.round(mat @ mat.T, 6)  # rows pre-normalized in bucketize
            np.fill_diagonal(sims, -2.0)
            kk = min(k, len(ids) - 1)
            top = np.argsort(-sims, axis=1, kind="stable")[:, :kk]
            rows = np.repeat(np.arange(len(ids)), kk)
            flat = top.ravel()
            src_o.append(ids[rows])
            dst_o.append(ids[flat])
            sim_o.append(sims[rows, flat])
        if n_truncated:
            logger.warning(
                "knn_graph_lsh bucket %d: %d vectors dropped by bucket_cap=%d",
                bucket_id, n_truncated, bucket_cap,
            )
        if not src_o:
            return pa.table({
                "src_id": pa.array([], pa.int64()),
                "dst_id": pa.array([], pa.int64()),
                "cos_sim": pa.array([], pa.float64()),
            })
        return pa.table({
            "src_id": pa.array(np.concatenate(src_o), pa.int64()),
            "dst_id": pa.array(np.concatenate(dst_o), pa.int64()),
            "cos_sim": pa.array(np.concatenate(sim_o), pa.float64()),
        })

    cands = bucket_group_apply(
        bucketed, ["band_id", "band_key"], bucket_local_topk, n_buckets
    )

    def merge_per_src(t: pa.Table, bucket_id: int) -> pa.Table:
        src = t.column("src_id").to_numpy(zero_copy_only=False)
        dst = t.column("dst_id").to_numpy(zero_copy_only=False)
        sim = t.column("cos_sim").to_numpy(zero_copy_only=False)
        # dedup (src, dst) hits repeated across bands KEYED, keeping the
        # max sim: the same pair's cosine comes from different matmuls per
        # band, so a value within float error of a 0.5e-6 boundary can
        # round to two different 6dp sims — an adjacency-only dedup after
        # a (src, -sim, dst) sort would let both survive. Sort by the
        # PAIR first, best sim first within it, mask first occurrences,
        # then re-rank per src.
        order = np.lexsort((-sim, dst, src))
        src, dst, sim = src[order], dst[order], sim[order]
        pair_new = np.ones(len(src), dtype=bool)
        if len(src) > 1:
            pair_new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst, sim = src[pair_new], dst[pair_new], sim[pair_new]
        order = np.lexsort((dst, -sim, src))
        src, dst, sim = src[order], dst[order], sim[order]
        grp_start = np.ones(len(src), dtype=bool)
        if len(src) > 1:
            grp_start[1:] = src[1:] != src[:-1]
        idx = np.arange(len(src))
        rank = idx - np.maximum.accumulate(np.where(grp_start, idx, 0)) + 1
        keep = rank <= k
        return pa.table({
            "src_id": pa.array(src[keep], pa.int64()),
            "nn_rank": pa.array(rank[keep], pa.int64()),
            "dst_id": pa.array(dst[keep], pa.int64()),
            "cos_sim": pa.array(sim[keep], pa.float64()),
        })

    from .shuffle import bucket_group_apply_arrow

    return bucket_group_apply_arrow(cands, ["src_id"], merge_per_src, n_buckets)


# ------------------------------------------------- MMR diversified retrieval


def mmr_diversify(embeddings_ds, query_ids: List[int], k: int = 10,
                  pool: int = 50, lam: float = 0.7):
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998) diversified
    retrieval: greedily pick k results from a pool of ``pool`` cosine
    candidates, each pick maximizing
        lam * sim(query, d)  -  (1 - lam) * max_{s in picked} sim(d, s)
    — the standard redundancy-penalized reranking RAG stacks run after
    dense retrieval. First pick is the plain top-1.

    Shape: the candidate pool comes from knn_cosine (distributed corpus
    scan, local top-pool per batch + driver heap merge); the greedy loop
    itself is DRIVER-SIDE on the pool x pool similarity matrix — pool and
    k are interface-sized (<=100s), never corpus-sized, so this is
    dimension-table work by construction. All similarities ROUNDED to 6dp
    before comparison, ties by ascending vec_id (engine-independent).
    Output: (query_id, mmr_rank, vec_id, mmr_score)."""
    cand = knn_cosine(embeddings_ds, query_ids=query_ids, k=pool)
    need = sorted(set(cand["vec_id"]).union(query_ids))
    rows = _fetch_rows_by_ids(embeddings_ds, need)
    vecs = {
        r["vec_id"]: v
        for r, v in zip(
            rows,
            _normalize(np.asarray([r["embedding"] for r in rows], dtype=np.float64)),
        )
    }
    out = {"query_id": [], "mmr_rank": [], "vec_id": [], "mmr_score": []}
    for qid in sorted(set(query_ids)):
        sub = cand[cand["query_id"] == qid]
        if sub.empty:
            continue
        ids = sub["vec_id"].to_numpy(dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        qsim = np.round(sub["cos_sim"].to_numpy(dtype=np.float64)[order], 6)
        mat = np.stack([vecs[i] for i in ids])
        cross = np.round(mat @ mat.T, 6)  # (pool, pool)
        picked: list = []
        avail = np.ones(len(ids), dtype=bool)
        # -inf so the first np.maximum replaces it with cross[:, j] exactly
        # (cosines can be negative; a zero floor would clamp them). penalty
        # only reads it once picked is non-empty, i.e. once it is finite.
        max_to_picked = np.full(len(ids), -np.inf)
        for rank in range(1, min(k, len(ids)) + 1):
            penalty = max_to_picked if picked else np.zeros(len(ids))
            score = np.round(lam * qsim - (1.0 - lam) * penalty, 6)
            score[~avail] = -np.inf
            # argmax with ties by ascending vec_id: ids are sorted ascending,
            # np.argmax returns the first (lowest-id) maximal entry
            j = int(np.argmax(score))
            picked.append(j)
            avail[j] = False
            max_to_picked = np.maximum(max_to_picked, cross[:, j])
            out["query_id"].append(int(qid))
            out["mmr_rank"].append(rank)
            out["vec_id"].append(int(ids[j]))
            out["mmr_score"].append(float(score[j]))
    return pd.DataFrame(out).astype(
        {
            "query_id": "int64", "mmr_rank": "int64",
            "vec_id": "int64", "mmr_score": "float64",
        }
    )


# --------------------------------------------------- embedding decontamination

DECONTAM_MAX_EVAL_ROWS = 200_000


def embedding_decontaminate(embeddings_ds, eval_mod: int = 20,
                            threshold: float = 0.35,
                            max_eval_rows: int = DECONTAM_MAX_EVAL_ROWS):
    """Embedding-space eval/train decontamination — the semantic complement
    of the n-gram scans (decontam.py): for every EVAL vector, its single
    nearest TRAIN vector by cosine and a contamination flag (cos >=
    threshold). Catches paraphrased leakage that token overlap misses.
    Membership is deterministic from the id (vec_id % eval_mod == 0 is
    eval) so the query is fully SQL-oracle-able; a production call passes
    a real eval table the same way knn_cosine passes query_ids.

    Shape: the EVAL side is interface-sized by construction (an eval set,
    not a corpus) — gated at ``max_eval_rows`` with a loud raise, the
    knn_graph contract — and broadcast ONCE via ray.put; the TRAIN corpus
    streams through one map-only scan emitting each batch's LOCAL best
    train candidate per eval vector (one matmul + one argmax per batch,
    n_eval rows out per batch), and ONE eval-keyed reduce keeps the
    global max — no all-pairs, no corpus shuffle. Ranking: cosine ROUNDED
    to 6dp descending, ties by ascending train vec_id (stable argsort
    over id-sorted columns). Output: (eval_vec_id, train_vec_id, cos_sim,
    contaminated)."""
    import ray

    from .shuffle import bucket_group_apply_arrow

    mod_ = int(eval_mod)

    def eval_only(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(ids % mod_ == 0))

    ev = embeddings_ds.map_batches(eval_only, batch_format="pyarrow")
    n_eval = ev.count()
    if n_eval > max_eval_rows:
        raise ValueError(
            f"embedding_decontaminate broadcasts the eval side; "
            f"{n_eval} eval rows exceed the {max_eval_rows} gate. Shrink "
            f"the eval set or raise max_eval_rows explicitly."
        )
    e_ids, e_mat = _collect_matrix(ev)
    if not len(e_ids):
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "eval_vec_id": pa.array([], pa.int64()),
            "train_vec_id": pa.array([], pa.int64()),
            "cos_sim": pa.array([], pa.float64()),
            "contaminated": pa.array([], pa.bool_()),
        }))
    order = np.argsort(e_ids, kind="stable")
    e_ids = e_ids[order]
    e_mat = _normalize(e_mat[order])
    ref = ray.put((e_ids, e_mat))
    mod = int(eval_mod)

    def local_best(batch: pa.Table) -> pa.Table:
        eids, emat = ray.get(ref)
        ids, mat = _to_matrix(batch)
        train = ids % mod != 0
        ids, mat = ids[train], mat[train]
        if not len(ids):
            return pa.table({
                "eval_vec_id": pa.array([], pa.int64()),
                "train_vec_id": pa.array([], pa.int64()),
                "cos_sim": pa.array([], pa.float64()),
            })
        # sort the batch's train columns by id so the stable argmax below
        # breaks rounded ties by ascending train vec_id
        o = np.argsort(ids, kind="stable")
        ids, mat = ids[o], _normalize(mat[o])
        sims = np.round(emat @ mat.T, 6)  # (n_eval, n_batch_train)
        best = np.argmax(sims, axis=1)  # first (lowest-id) maximal entry
        rng = np.arange(len(eids))
        return pa.table({
            "eval_vec_id": pa.array(eids, pa.int64()),
            "train_vec_id": pa.array(ids[best], pa.int64()),
            "cos_sim": pa.array(sims[rng, best], pa.float64()),
        })

    cands = embeddings_ds.map_batches(local_best, batch_format="pyarrow")

    thr = round(float(threshold), 6)

    def merge_best(t: pa.Table, bucket_id: int) -> pa.Table:
        ev_c = t.column("eval_vec_id").to_numpy(zero_copy_only=False)
        tr = t.column("train_vec_id").to_numpy(zero_copy_only=False)
        sim = t.column("cos_sim").to_numpy(zero_copy_only=False)
        order2 = np.lexsort((tr, -sim, ev_c))
        ev_c, tr, sim = ev_c[order2], tr[order2], sim[order2]
        first = np.ones(len(ev_c), dtype=bool)
        if len(ev_c) > 1:
            first[1:] = ev_c[1:] != ev_c[:-1]
        return pa.table({
            "eval_vec_id": pa.array(ev_c[first], pa.int64()),
            "train_vec_id": pa.array(tr[first], pa.int64()),
            "cos_sim": pa.array(sim[first], pa.float64()),
            "contaminated": pa.array(sim[first] >= thr, pa.bool_()),
        })

    return bucket_group_apply_arrow(cands, ["eval_vec_id"], merge_best, 8)


def embedding_decontaminate_sql(eval_mod: int = 20,
                                threshold: float = 0.35) -> str:
    return f"""
    WITH e AS (
      SELECT vec_id, embedding FROM embeddings WHERE vec_id % {eval_mod} = 0
    ), t AS (
      SELECT vec_id, embedding FROM embeddings WHERE vec_id % {eval_mod} != 0
    ), pairs AS (
      SELECT e.vec_id AS eval_vec_id, t.vec_id AS train_vec_id,
             round(list_cosine_similarity(
                 CAST(e.embedding AS DOUBLE[]),
                 CAST(t.embedding AS DOUBLE[])), 6) AS cos_sim,
             row_number() OVER (
                 PARTITION BY e.vec_id
                 ORDER BY round(list_cosine_similarity(
                     CAST(e.embedding AS DOUBLE[]),
                     CAST(t.embedding AS DOUBLE[])), 6) DESC,
                 t.vec_id ASC) AS rn
      FROM e JOIN t ON true
    )
    SELECT eval_vec_id, train_vec_id, cos_sim,
           (cos_sim >= {round(float(threshold), 6)}) AS contaminated
    FROM pairs WHERE rn = 1
    """
