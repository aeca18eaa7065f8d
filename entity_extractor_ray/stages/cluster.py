"""Distributed k-means over an embedding column and SemDeDup-style
semantic deduplication built on top of it.

The reference has no clustering stage — this is part of the
training-data-pipeline family (like dedup.py / similarity.py): cluster a
corpus of embeddings, then prune semantic near-duplicates *within* each
cluster (Abbas et al., "SemDeDup", 2023 — cluster-then-local-pairwise, so
the quadratic term is bounded by cluster size, never corpus size).

Scale shape:
  * FIT is iterative BSP: per iteration, one ``map_batches`` pass emits a
    tiny (<= k rows per batch) partial table of per-cluster (count, sum)
    sufficient statistics; the driver reduces k x d floats and re-broadcasts
    centroids via ``ray.put``. State on the driver is O(k*d), never O(n).
    Each iteration re-reads the input (the classic MapReduce k-means shape —
    the input is Parquet, the scan streams); callers fitting many iterations
    over slow storage should pass a pre-materialized sample instead
    (``kmeans_fit_sample``).
  * ASSIGNMENT is one stateless vectorized pass (matmul per batch against
    the broadcast centroid matrix).
  * SEMANTIC DEDUP shuffles each row once, keyed by cluster id; the
    within-cluster pairwise cosine is blocked in row-chunks so peak memory
    is chunk x cluster, and oversized clusters are truncated by the pair
    kernel's hot-group cap (functions/pairs.py: hash order, LOGGED drop
    count — the policy every blocking stage uses).

Spherical k-means (cosine assignment, renormalized centroids) because the
embedding operators in this engine (similarity.py, dedup.py) are all
cosine-metric. Determinism: centroid init is a vec_id-stride sample (the
same block-layout-independent sample similarity.knn_cosine_ivf uses) and the
partial reduce sorts partials before accumulation, so repeated runs over the
same blocks are bit-identical; different block layouts can differ by float
summation order only (documented; the planted tests use separated blobs so
assignments are layout-invariant).
"""

from __future__ import annotations

import logging
from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.pairs import capped_members, group_starts
from .similarity import list_column_to_matrix

logger = logging.getLogger(__name__)

# per-cluster row cap for the within-cluster pairwise stage; beyond it the
# cluster is truncated (functions/pairs.py: hash order, logged) — a cluster
# this large means k was chosen far too small for the corpus
CLUSTER_PAIR_CAP = 50_000


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _stride_sample(embeddings_ds, id_col: str, cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic, block-layout-independent sample: keep ids where
    ``id % stride == 0`` (one vectorized filter pass), never ``take(n)``
    (which sees only the first blocks)."""
    import pyarrow.compute as pc

    n_total = embeddings_ds.count()
    stride = max(1, n_total // cap)

    def pick(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(ids % stride == 0))

    rows = embeddings_ds.map_batches(pick, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: r[id_col])
    ids = np.asarray([r[id_col] for r in rows], dtype=np.int64)
    mat = np.asarray([r["embedding"] for r in rows], dtype=np.float64)
    return ids, mat


def _init_centroids(sample: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k-means++-style greedy init over the (already deterministic) sample:
    first centroid = seeded choice, each next = the sample row farthest
    (min-cos) from the chosen set. Fully deterministic given the sample."""
    rng = np.random.RandomState(seed)
    nm = _normalize(sample)
    n = nm.shape[0]
    k = min(k, n)
    first = int(rng.randint(n))
    chosen = [first]
    best_cos = nm @ nm[first]
    for _ in range(1, k):
        nxt = int(np.argmin(best_cos))
        chosen.append(nxt)
        best_cos = np.maximum(best_cos, nm @ nm[nxt])
    return _normalize(sample[chosen].copy())


def _lloyd_local(mat: np.ndarray, centroids: np.ndarray, n_iter: int) -> np.ndarray:
    """Serial spherical Lloyd's on an in-memory matrix (the sample-fit path
    and the test oracle)."""
    nm = _normalize(mat)
    cents = centroids.copy()
    for _ in range(n_iter):
        assign = np.argmax(nm @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            members = mat[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
        cents = _normalize(cents)
    return cents


def kmeans_fit_sample(embeddings_ds, k: int = 10, n_iter: int = 10,
                      seed: int = 13, id_col: str = "vec_id",
                      sample_cap: int = 65_536) -> np.ndarray:
    """Fit centroids on a bounded stride sample, iterated driver-side —
    the default path when the sample represents the corpus (O(sample x d)
    driver memory, zero extra cluster passes)."""
    _, sample = _stride_sample(embeddings_ds, id_col, sample_cap)
    return _lloyd_local(sample, _init_centroids(sample, k, seed), n_iter)


def kmeans_fit(embeddings_ds, k: int = 10, n_iter: int = 8, seed: int = 13,
               id_col: str = "vec_id", init_sample_cap: int = 4096,
               tol: float = 1e-6) -> np.ndarray:
    """Distributed BSP Lloyd's over the FULL dataset: one map_batches pass
    per iteration emitting per-cluster (count, sum) partials (<= k rows per
    batch), reduced driver-side to the next k x d centroid matrix. Stops
    early when the max centroid shift drops below ``tol``."""
    import ray

    _, sample = _stride_sample(embeddings_ds, id_col, init_sample_cap)
    centroids = _init_centroids(sample, k, seed)
    k = centroids.shape[0]

    for it in range(n_iter):
        ref = ray.put(centroids)

        def partial(batch: pa.Table) -> pa.Table:
            cents = ray.get(ref)
            mat = list_column_to_matrix(batch.column("embedding"))
            assign = np.argmax(_normalize(mat) @ cents.T, axis=1)
            out_c, out_n, out_s = [], [], []
            for c in np.unique(assign):
                members = mat[assign == c]
                out_c.append(int(c))
                out_n.append(len(members))
                out_s.append(members.sum(axis=0))
            return pa.table(
                {
                    "cluster": pa.array(out_c, pa.int64()),
                    "cnt": pa.array(out_n, pa.int64()),
                    "vec_sum": pa.array([s.tolist() for s in out_s],
                                        pa.list_(pa.float64())),
                }
            )

        rows = embeddings_ds.map_batches(partial, batch_format="pyarrow").take_all()
        # sort partials before accumulating so the float reduction order is
        # deterministic given the same set of partial rows
        rows.sort(key=lambda r: (r["cluster"], r["cnt"], tuple(r["vec_sum"][:2])))
        sums = np.zeros_like(centroids)
        counts = np.zeros(k, dtype=np.int64)
        for r in rows:
            c = r["cluster"]
            counts[c] += r["cnt"]
            sums[c] += np.asarray(r["vec_sum"])
        new = centroids.copy()  # empty clusters keep their old centroid
        nonempty = counts > 0
        new[nonempty] = _normalize(sums[nonempty] / counts[nonempty, None])
        shift = float(np.abs(new - centroids).max())
        centroids = new
        if shift < tol:
            logger.info("kmeans_fit converged at iteration %d (shift %.2e)", it, shift)
            break
    return centroids


ASSIGN_SCHEMA = pa.schema(
    [("vec_id", pa.int64()), ("cluster", pa.int64()), ("cos_sim", pa.float64())]
)


def kmeans_assign(embeddings_ds, centroids: np.ndarray, id_col: str = "vec_id",
                  keep_embedding: bool = False):
    """One stateless assignment pass: argmax cosine against the broadcast
    centroid matrix; cos rounded to 6dp (engine-independent ties)."""
    import ray

    ref = ray.put(_normalize(centroids))

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(ref)
        ids = batch.column(id_col).cast(pa.int64())
        mat = list_column_to_matrix(batch.column("embedding"))
        sims = _normalize(mat) @ cents.T
        best = np.argmax(sims, axis=1)
        cols = {
            "vec_id": ids,
            "cluster": pa.array(best.astype(np.int64), pa.int64()),
            "cos_sim": pa.array(
                np.round(sims[np.arange(len(best)), best], 6), pa.float64()
            ),
        }
        if keep_embedding:
            cols["embedding"] = batch.column("embedding")
        return pa.table(cols)

    return embeddings_ds.map_batches(assign, batch_format="pyarrow")


def kmeans_embeddings(embeddings_ds, k: int = 10, n_iter: int = 8,
                      seed: int = 13, distributed: bool = True):
    """End-to-end: fit (distributed BSP by default) + one assignment pass.
    Returns a Dataset of (vec_id, cluster, cos_sim)."""
    fit = kmeans_fit if distributed else kmeans_fit_sample
    centroids = fit(embeddings_ds, k=k, n_iter=n_iter, seed=seed)
    return kmeans_assign(embeddings_ds, centroids)


SEMDEDUP_SCHEMA = pa.schema(
    [
        ("vec_id", pa.int64()),
        ("cluster", pa.int64()),
        ("keep", pa.bool_()),
        ("dup_of", pa.int64()),
        ("max_cos", pa.float64()),
    ]
)


def _semdedup_cluster(ids: np.ndarray, mat: np.ndarray, threshold: float,
                      chunk: int = 2048):
    """Within one cluster (rows sorted by id ascending): a row is a
    duplicate iff some EARLIER (lower-id) row has cosine >= threshold with
    it; dup_of = the lowest such id (deterministic keep-first-id rule, the
    same rule exact_dedup uses). Pairwise matmul is chunked (peak memory
    chunk x n) and the strictly-lower-triangle restriction is a vectorized
    mask — no per-row Python."""
    n = len(ids)
    nm = _normalize(mat)
    keep = np.ones(n, dtype=bool)
    dup_of = np.full(n, -1, dtype=np.int64)
    max_cos = np.full(n, -1.0)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        sims = nm[lo:hi] @ nm[:hi].T  # (hi-lo, hi)
        # mask out self and later-or-equal ids (strict lower triangle)
        col = np.arange(hi)
        strict = col[None, :] < np.arange(lo, hi)[:, None]
        sims = np.where(strict, sims, -np.inf)
        has_prev = strict.any(axis=1)
        row_max = sims.max(axis=1, initial=-np.inf)
        max_cos[lo:hi][has_prev] = row_max[has_prev]
        over = sims >= threshold
        is_dup = over.any(axis=1)
        first_over = np.argmax(over, axis=1)  # first True = lowest id
        rows = np.flatnonzero(is_dup) + lo
        keep[rows] = False
        dup_of[rows] = ids[first_over[is_dup]]
    return keep, dup_of, np.round(max_cos, 6)


def semantic_dedup(embeddings_ds, threshold: float = 0.95, k: int = 10,
                   n_iter: int = 8, seed: int = 13,
                   centroids: Optional[np.ndarray] = None,
                   n_buckets: int = 16, cluster_cap: int = CLUSTER_PAIR_CAP):
    """SemDeDup: cluster the embeddings, then flag within-cluster semantic
    near-duplicates (cos >= threshold to a lower-id row in the same
    cluster). One shuffle total (rows keyed by cluster id); the quadratic
    pairwise term is bounded by cluster size and CLUSTER_PAIR_CAP.

    Returns a Dataset of (vec_id, cluster, keep, dup_of, max_cos) —
    ``keep`` is the dedup survivor flag, ``dup_of`` the id of the earliest
    near-duplicate (or -1), ``max_cos`` the similarity to the closest
    earlier same-cluster row (-1.0 when the row is its cluster's first)."""
    from .shuffle import bucket_group_apply

    if centroids is None:
        centroids = kmeans_fit(embeddings_ds, k=k, n_iter=n_iter, seed=seed)
    assigned = kmeans_assign(embeddings_ds, centroids, keep_embedding=True)

    def bucket_fn(t: pa.Table, bucket_id: int) -> pa.Table:
        clusters = t.column("cluster").to_numpy(zero_copy_only=False)
        all_ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        mat = list_column_to_matrix(t.column("embedding"))
        rows = capped_members([clusters], all_ids, cluster_cap, "semantic_dedup", bucket_id)
        out = []
        for sel in np.split(rows, group_starts([clusters[rows]])[1:]):
            if not len(sel):
                continue
            c = clusters[sel[0]]
            keep, dup_of, max_cos = _semdedup_cluster(
                all_ids[sel], mat[sel], threshold
            )
            out.append(
                pa.table(
                    {
                        "vec_id": pa.array(all_ids[sel], pa.int64()),
                        "cluster": pa.array(np.full(len(sel), int(c)), pa.int64()),
                        "keep": pa.array(keep, pa.bool_()),
                        "dup_of": pa.array(dup_of, pa.int64()),
                        "max_cos": pa.array(max_cos, pa.float64()),
                    },
                    schema=SEMDEDUP_SCHEMA,
                )
            )
        if not out:
            return SEMDEDUP_SCHEMA.empty_table()
        return pa.concat_tables(out)

    return bucket_group_apply(assigned, ["cluster"], bucket_fn, n_buckets)


# ------------------------------------------------------------------ PCA

def pca_fit(embeddings_ds, n_components: int = 2, col: str = "embedding",
            id_col: str = "vec_id"):
    """Distributed PCA fit from ONE streaming pass of mergeable sufficient
    statistics: each batch contributes a single (n, sum_x, sum_xx^T) row
    (d + d^2 floats — for d=64 that is 4 KB per batch, regardless of batch
    size), the driver reduces the DIMENSION-sized partial table and runs the
    d x d eigendecomposition locally. The covariance path (not a distributed
    SVD) is the right scale shape while d^2 fits in one task — the same
    sufficient-statistics discipline as lineitem_qty_moments.

    Determinism: partials are summed in ascending min-vec_id order, so
    repeated runs over the same blocks are bit-identical; different block
    layouts differ by float summation order only (documented, tested to
    1e-6). Component signs are canonicalized (largest-|loading| coordinate
    positive) so eigh's sign ambiguity cannot flip outputs between runs.

    Returns (mean d-vector, components [n_components x d],
    explained_variance_ratio [n_components])."""

    def partial(batch: pa.Table) -> pa.Table:
        mat = list_column_to_matrix(batch.column(col)).astype(np.float64)
        sx = mat.sum(axis=0)
        sxx = mat.T @ mat
        return pa.table(
            {
                "n": pa.array([mat.shape[0]], pa.int64()),
                "min_id": pa.array(
                    [int(pa.compute.min(batch.column(id_col)).as_py())], pa.int64()
                ),
                "sx": pa.array([sx], pa.list_(pa.float64())),
                "sxx": pa.array([sxx.ravel()], pa.list_(pa.float64())),
            }
        )

    parts = embeddings_ds.map_batches(partial, batch_format="pyarrow").take_all()
    parts.sort(key=lambda r: (r["min_id"], r["n"]))
    n = sum(r["n"] for r in parts)
    d = len(parts[0]["sx"])
    sx = np.zeros(d)
    sxx = np.zeros((d, d))
    for r in parts:
        sx += np.asarray(r["sx"])
        sxx += np.asarray(r["sxx"]).reshape(d, d)
    mu = sx / n
    cov = (sxx - n * np.outer(mu, mu)) / max(n - 1, 1)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T
    # canonical sign: largest-|loading| coordinate positive
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    total_var = float(np.trace(cov))
    ratio = evals[order] / total_var if total_var > 0 else np.zeros(len(order))
    return mu, comps, ratio


def pca_project(embeddings_ds, mean: np.ndarray, components: np.ndarray,
                col: str = "embedding", id_col: str = "vec_id"):
    """Map-only projection onto broadcast components: (id, pc1..pcC)."""
    import ray

    mu_ref = ray.put(np.asarray(mean))
    comp_ref = ray.put(np.asarray(components))

    def project(batch: pa.Table) -> pa.Table:
        mu = ray.get(mu_ref)
        comps = ray.get(comp_ref)
        mat = list_column_to_matrix(batch.column(col)).astype(np.float64)
        proj = (mat - mu) @ comps.T
        out = {id_col: batch.column(id_col)}
        for i in range(comps.shape[0]):
            out[f"pc{i + 1}"] = pa.array(proj[:, i], pa.float64())
        return pa.table(out)

    return embeddings_ds.map_batches(project, batch_format="pyarrow")


def pca_embeddings(embeddings_ds, n_components: int = 2,
                   col: str = "embedding", id_col: str = "vec_id"):
    """Fit + project. rows-only driver entry (eigendecomposition is not
    ANSI-SQL expressible); recovery/equality pinned by tests/test_cluster.py
    (planted low-rank structure vs serial numpy PCA, partition invariance,
    sign canonicalization)."""
    mu, comps, _ = pca_fit(embeddings_ds, n_components, col=col, id_col=id_col)
    return pca_project(embeddings_ds, mu, comps, col=col, id_col=id_col)


# ------------------------------------------ greedy k-center coreset


def kcenter_coreset(embeddings_ds, k: int = 16, id_col: str = "vec_id",
                    vec_col: str = "embedding"):
    """Greedy k-CENTER data selection (Gonzalez 1985 farthest-point
    traversal — the coreset rule of Sener & Savarese 2018 active
    learning): pick the point maximizing the distance to the nearest
    already-chosen center, k times. The chosen set 2-approximates the
    optimal k-center cover, i.e. it is the maximally SPREAD subset —
    the diversity-selection complement of the density-seeking k-means
    family. Deterministic: the seed is the point with the largest L2
    norm (ties -> min id), every argmax ties -> min id.

    Scale shape: k BSP rounds; each round is one MAP-ONLY pass — the
    chosen centers (a (r, d) float64 matrix, r <= k) are broadcast via
    ``ray.put``, every batch computes its points' min-distance-to-centers
    with one matmul and emits ONE (max_dist, id) candidate row; the
    driver folds #batches rows. Distances in float64 via the stable
    ||x||^2 + ||c||^2 - 2x.c expansion, clamped at 0. Returns a
    (k, 3) pandas frame (rank, id, dist) where dist is the coverage
    radius at selection time (weakly decreasing).

    Rows-only query (iterative argmax is not ANSI-SQL); pinned against a
    serial numpy reference incl. tie cases in tests/test_cluster.py."""
    import ray

    from .similarity import list_column_to_matrix

    _EMPTY = pa.table({"m": pa.array([], pa.float64()),
                       "id": pa.array([], pa.int64()),
                       "v": pa.array([], pa.binary())})

    def seed_cand(t: pa.Table) -> pa.Table:
        x = list_column_to_matrix(t.column(vec_col))
        ids = t.column(id_col).to_numpy()
        if x.shape[0] == 0:
            return _EMPTY
        nrm = (x * x).sum(axis=1)
        best = np.lexsort((ids, -nrm))[0]
        return pa.table({"m": pa.array([nrm[best]], pa.float64()),
                         "id": pa.array([ids[best]], pa.int64()),
                         "v": pa.array([x[best].tobytes()], pa.binary())})

    def fold(rows):
        # driver fold of per-batch candidates: max value, ties -> min id;
        # the winning VECTOR rides along, so each round is ONE corpus pass
        best_v, best_id, best_vec = -np.inf, None, None
        for r in rows:
            if r["m"] > best_v or (r["m"] == best_v and
                                   (best_id is None or r["id"] < best_id)):
                best_v, best_id = r["m"], r["id"]
                best_vec = np.frombuffer(r["v"], dtype=np.float64)
        return best_v, best_id, best_vec

    _, seed_id, seed_vec = fold(embeddings_ds.map_batches(
        seed_cand, batch_format="pyarrow").take_all())
    if seed_id is None:
        return pd.DataFrame({"rank": pd.Series([], dtype=np.int64),
                             id_col: pd.Series([], dtype=np.int64),
                             "dist": pd.Series([], dtype=np.float64)})

    chosen_ids = [int(seed_id)]
    chosen_vecs = [seed_vec]
    dists = [0.0]  # the seed has no prior cover; reported as 0 by convention

    for _ in range(1, k):
        centers_ref = ray.put(np.stack(chosen_vecs))

        def cand(t: pa.Table) -> pa.Table:
            c = ray.get(centers_ref)
            x = list_column_to_matrix(t.column(vec_col))
            ids = t.column(id_col).to_numpy()
            if x.shape[0] == 0:
                return _EMPTY
            d2 = np.maximum(
                (x * x).sum(axis=1)[:, None]
                + (c * c).sum(axis=1)[None, :]
                - 2.0 * (x @ c.T),
                0.0,
            ).min(axis=1)
            # already-chosen points have d2 == 0; they never win argmax
            best = np.lexsort((ids, -d2))[0]
            return pa.table({"m": pa.array([d2[best]], pa.float64()),
                             "id": pa.array([ids[best]], pa.int64()),
                             "v": pa.array([x[best].tobytes()], pa.binary())})

        best_v, best_id, best_vec = fold(embeddings_ds.map_batches(
            cand, batch_format="pyarrow").take_all())
        if best_id is None or best_v <= 0.0:
            break  # fewer distinct points than k: stop, never emit dups
        chosen_ids.append(int(best_id))
        chosen_vecs.append(best_vec)
        dists.append(float(np.sqrt(best_v)))

    return pd.DataFrame(
        {
            "rank": np.arange(len(chosen_ids), dtype=np.int64),
            id_col: np.asarray(chosen_ids, dtype=np.int64),
            "dist": np.asarray(dists, dtype=np.float64),
        }
    )
