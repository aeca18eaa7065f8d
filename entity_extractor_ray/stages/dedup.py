"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine — the large-scale training-data-pipeline dedup family.

Scale shapes:
  * exact:      hash per doc (map_batches) -> groupby(hash) keep min id.
  * MinHash-LSH: signature per doc -> explode to (band_id, band_hash, doc_id)
                 rows -> groupby(band) buckets -> candidate pairs -> verify
                 Jaccard -> min-label connected components. Only bucket
                 contents ever co-locate; no all-pairs stage.
  * SimHash:    64-bit signature, blocked on 4x16-bit sub-bands (pigeonhole:
                 any pair within Hamming distance 3 shares a clean sub-band
                 ... guaranteed only for <=3 differing bits across distinct
                 bands; standard SimHash blocking).
  * n-gram Jaccard: exact word-3-gram Jaccard verification over LSH buckets.
  * embedding:  brute-force cosine (small side / verification) and a
                 hyperplane-LSH bucketed variant (the scale path).
"""

from __future__ import annotations

import logging
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions import textnorm
from ..functions.pairs import capped_members, group_pairs, group_starts
from .shuffle import group_aggregate
from .similarity import list_column_to_matrix as _list_matrix

logger = logging.getLogger("entity_extractor_ray.dedup")

# ------------------------------------------------------------------ exact

def exact_dedup(docs_ds):
    """One surviving doc per distinct text: (fingerprint, doc_id=min).
    Reduction is a groupby over md5 keys — skew-free, fully parallel."""
    from .textstats import exact_fingerprints

    fp = docs_ds.map_batches(exact_fingerprints, batch_format="pandas")
    return group_aggregate(fp, "fingerprint", {"doc_id": ("min", "doc_id")})


def exact_dedup_sql() -> str:
    return """
    SELECT md5(COALESCE(text, '')) AS fingerprint, min(doc_id) AS doc_id
    FROM documents GROUP BY md5(COALESCE(text, ''))
    """


# ------------------------------------------------------------------ minhash

NUM_PERM = 64
NUM_BANDS = 16
SHINGLE_K = 5
JACCARD_THRESHOLD = 0.6

_MINHASH_A, _MINHASH_B = textnorm.make_minhash_params(NUM_PERM)


class MinHashSignatures:
    """doc batch -> (band_id, band_hash, doc_id) rows, ONE numpy pass per
    batch (textnorm.minhash_signatures_batch / minhash_band_hashes_batch).
    Used as a TASK-pool stage via the module singleton below: an actor pool
    sized near the CPU count would reserve every slot and starve the
    read/shuffle operators (observed deadlock at num_cpus=4); the signature
    state is cheap to build once per worker process."""

    def __init__(self, num_perm: int = NUM_PERM, num_bands: int = NUM_BANDS):
        self.a, self.b = textnorm.make_minhash_params(num_perm)
        self.num_bands = num_bands

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = textnorm.minhash_signatures_batch(
            batch["text"].tolist(), self.a, self.b, SHINGLE_K
        )
        bands = textnorm.minhash_band_hashes_batch(sigs, self.num_bands)
        n, num_bands = bands.shape
        return pd.DataFrame(
            {
                "doc_id": np.repeat(batch["doc_id"].to_numpy(), num_bands),
                "band_id": np.tile(np.arange(num_bands, dtype=np.int64), n),
                "band_hash": bands.astype(np.int64).ravel(),
            }
        )


BUCKET_PAIR_CAP = 1000


def _pairs_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
    """One hash bucket of (band_id, band_hash) groups -> candidate pairs
    (id_a < id_b). Pathological groups (a band value shared by
    >BUCKET_PAIR_CAP docs — i.e. boilerplate) are capped by the pair
    kernel, and the drop is counted and logged, never silent."""
    keys = [t.column(c).to_numpy() for c in ("band_id", "band_hash")]
    ids = t.column("doc_id").to_numpy()
    ia, ib = group_pairs(keys, ids, BUCKET_PAIR_CAP, "minhash LSH", bucket_id)
    return pa.table(
        {"id_a": pa.array(ids[ia], pa.int64()), "id_b": pa.array(ids[ib], pa.int64())}
    )


_MINHASH_SINGLETON: "MinHashSignatures | None" = None


def _minhash_rows(batch: pd.DataFrame) -> pd.DataFrame:
    global _MINHASH_SINGLETON
    if _MINHASH_SINGLETON is None:
        _MINHASH_SINGLETON = MinHashSignatures()
    return _MINHASH_SINGLETON(batch)


def minhash_candidate_pairs(docs_ds, concurrency: int = None, n_buckets: int = 32):
    """docs -> distinct LSH candidate pairs (one shuffle + one dedup groupby).
    ``concurrency`` is accepted for API compatibility; signatures run as
    elastic tasks with a per-process singleton."""
    from .shuffle import bucket_group_apply, compact_blocks

    bands = docs_ds.map_batches(_minhash_rows, batch_format="pandas")
    pairs = bucket_group_apply(bands, ["band_id", "band_hash"], _pairs_bucket, n_buckets)
    # distinct pairs (group_aggregate with no aggregate). compact_blocks
    # drops the empty stale-schema filler blocks both exchanges emit — the
    # pair list is tiny, so this natural materialization boundary costs
    # nothing and every downstream join/verify plan sees only row-bearing
    # Arrow blocks.
    return compact_blocks(group_aggregate(pairs, ["id_a", "id_b"], {}))


def verify_jaccard_pairs(pairs_ds, docs_ds, threshold: float = JACCARD_THRESHOLD,
                         use_words: bool = False, keep_jaccard: bool = True):
    """Keep candidate pairs whose TRUE Jaccard >= threshold.
    ``keep_jaccard=False`` projects to (id_a, id_b) INSIDE the verify map —
    batches that filter to zero rows then still carry the final 2-column
    schema, instead of riding a downstream Project op unprojected (empty
    blocks skip map operators, which mixes schemas in the bundle stream).

    Fully distributed: the candidate pairs JOIN the docs table on each side
    (shuffle.lookup_join auto-broadcasts a dimension-sized docs table and
    falls back to a task-based bucket hash join at scale) — no driver-side
    doc_id->text map, no O(N) driver state. Shingle sets are cached per
    batch keyed on doc_id, so a doc occurring in many pairs of one batch is
    shingled once."""
    from .shuffle import lookup_join

    docs = docs_ds.select_columns(["doc_id", "text"])
    joined = lookup_join(
        pairs_ds, docs.rename_columns({"text": "text_a"}), key="id_a", right_key="doc_id"
    )
    joined = lookup_join(
        joined, docs.rename_columns({"text": "text_b"}), key="id_b", right_key="doc_id"
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        cache: dict = {}

        def shingles(doc_id, text):
            got = cache.get(doc_id)
            if got is None:
                got = (
                    textnorm.word_ngrams(text or "", 3)
                    if use_words
                    else textnorm.char_shingles(text or "", SHINGLE_K)
                )
                cache[doc_id] = got
            return got

        sims = [
            round(textnorm.jaccard(shingles(a, ta), shingles(b_, tb)), 6)
            for a, b_, ta, tb in zip(
                batch["id_a"], batch["id_b"], batch["text_a"], batch["text_b"]
            )
        ]
        out = batch[["id_a", "id_b"]].copy()
        out["jaccard"] = sims
        out = out[out["jaccard"] >= threshold]
        return out if keep_jaccard else out[["id_a", "id_b"]]

    return joined.map_batches(verify, batch_format="pandas")


def _driver_union_find_labels(pairs_ds):
    """Union-find over a BOUNDED verified-pair set (gated by the caller) ->
    Dataset(node, label) with label = component min. State is O(#pairs)."""
    import ray.data as rd

    parent: Dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != root:
            parent[x], x = root, parent[x]
        return root

    seen: set = set()
    for batch in pairs_ds.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for a, b in zip(batch.column("id_a").to_pylist(), batch.column("id_b").to_pylist()):
            seen.add(a)
            seen.add(b)
            ra, rb = find(a), find(b)
            if ra != rb:
                # larger root points at smaller -> component label == min id
                parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(seen)
    labels = [find(n) for n in nodes]
    return rd.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()), "label": pa.array(labels, pa.int64())})
    )


LABELS_SCHEMA = pa.schema(
    [("node", pa.int64()), ("label", pa.int64()), ("changed", pa.int64())]
)


def propagate_min_labels(pairs_ds, n_buckets: int = 32, max_rounds: int = 50):
    """Distributed connected components over (id_a, id_b) edges -> one
    (node, label) row per node appearing in any pair, label = component min.

    Iterative min-label propagation as groupby rounds (the scale replacement
    for driver-side union-find): each round joins the edge list against the
    current labels (broadcast while small, bucket join at scale), takes the
    per-node min over {own label} ∪ {neighbor labels}, and stops when no
    label changed. Rounds needed = component diameter (near-dup clusters are
    shallow); labels materialize per round and stay O(#nodes-in-pairs) —
    never O(corpus)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from .shuffle import lookup_join

    def both_dirs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"node": pa.array([], pa.int64()), "nbr": pa.array([], pa.int64())}
            )
        a = t.column("id_a").combine_chunks()
        b = t.column("id_b").combine_chunks()
        return pa.table(
            {
                "node": pa.chunked_array([a, b]).combine_chunks(),
                "nbr": pa.chunked_array([b, a]).combine_chunks(),
            }
        )

    edges = pairs_ds.map_batches(both_dirs, batch_format="pyarrow").materialize()
    if edges.count() == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())})
        )

    def relabel(t: pa.Table) -> pa.Table:
        # per node: new label = min(min candidate, current label "old");
        # changed = the label dropped
        label = pc.min_element_wise(t.column("cand"), t.column("old"))
        changed = pc.cast(pc.less(label, t.column("old")), pa.int64())
        return pa.table([t.column("node"), label, changed], schema=LABELS_SCHEMA)

    def min_labels(rows, aggs):
        return group_aggregate(rows, ["node"], aggs).map_batches(
            relabel, batch_format="pyarrow").materialize()

    # init: label(node) = min(node, min neighbor) — fuses round 1
    labels = min_labels(edges, {"cand": ("min", "nbr"), "old": ("min", "node")})

    converged = False
    for _ in range(max_rounds):
        changed = labels.sum("changed")
        if not changed:
            converged = True
            break
        nbr_labels = labels.select_columns(["node", "label"]).rename_columns(
            {"node": "nbr", "label": "cand"}
        )
        cand_edges = lookup_join(edges, nbr_labels, key="nbr", n_buckets=n_buckets).map_batches(
            lambda t: pa.table(
                {"node": t.column("node"), "cand": t.column("cand"), "old": pa.nulls(t.num_rows, pa.int64())}
            ),
            batch_format="pyarrow",
        )
        own = labels.map_batches(
            lambda t: pa.table(
                {"node": t.column("node"), "cand": t.column("label"), "old": t.column("label")}
            ),
            batch_format="pyarrow",
        )
        # old is null on neighbor rows; min skips nulls, and every node has
        # exactly one own-row carrying its current label
        labels = min_labels(cand_edges.union(own),
                            {"cand": ("min", "cand"), "old": ("min", "old")})

    if not converged:
        # a component whose diameter exceeds max_rounds would otherwise ship
        # PARTIALLY-propagated labels — one true component silently split
        # into inconsistent clusters. Fail loud instead.
        still = labels.sum("changed")
        if still:
            raise RuntimeError(
                f"propagate_min_labels did not converge after {max_rounds} "
                f"rounds ({still} labels still changing): a connected "
                f"component's diameter exceeds max_rounds — raise max_rounds"
            )

    return labels.select_columns(["node", "label"])


DRIVER_CLUSTER_PAIR_LIMIT = 1_000_000


def minhash_dedup(docs_ds, threshold: float = JACCARD_THRESHOLD,
                  concurrency: int = None, n_buckets: int = 32,
                  driver_cluster_limit: int = DRIVER_CLUSTER_PAIR_LIMIT):
    """Full near-dup pipeline -> Dataset(doc_id, cluster_id); cluster rep =
    min doc_id of the connected component. LSH candidates -> join-based
    Jaccard verification -> connected components; docs outside any verified
    pair keep their own id via a LEFT join (no take_all of the corpus).

    Clustering strategy is PAIR-COUNT gated: verified near-dup pairs are a
    tiny fraction of the corpus, so up to ``driver_cluster_limit`` pairs a
    single in-memory union-find (state O(#pairs), never O(corpus)) beats
    the iterative min-label rounds' per-round scheduling floor; larger pair
    sets run the fully distributed propagation."""
    import pyarrow.compute as pc

    from .shuffle import lookup_join

    from .shuffle import compact_blocks

    # compact_blocks doubles as the materialization: it drops zero-row
    # filler blocks so the clustering paths see only row-bearing Arrow
    # blocks; keep_jaccard=False projects inside the verify map (no Project
    # op for empty filtered batches to skip)
    pairs = compact_blocks(
        verify_jaccard_pairs(
            minhash_candidate_pairs(docs_ds, concurrency, n_buckets),
            docs_ds, threshold, keep_jaccard=False,
        )
    )
    n_pairs = pairs.count()
    if n_pairs <= driver_cluster_limit:
        labels = _driver_union_find_labels(pairs)
    else:
        labels = propagate_min_labels(pairs, n_buckets)
    ids = docs_ds.select_columns(["doc_id"])
    joined = lookup_join(
        ids,
        labels.rename_columns({"node": "doc_id", "label": "cluster_id"}),
        key="doc_id",
        how="left",
    )

    def fill_singletons(t: pa.Table) -> pa.Table:
        cluster = pc.coalesce(t.column("cluster_id"), t.column("doc_id"))
        return pa.table(
            {"doc_id": t.column("doc_id"), "cluster_id": pc.cast(cluster, pa.int64())}
        )

    return joined.map_batches(fill_singletons, batch_format="pyarrow")


# ------------------------------------------------- exact n-gram Jaccard pairs

NGRAM_N = 3


def _gram_rows(batch: pd.DataFrame, n: int = NGRAM_N) -> pd.DataFrame:
    """doc -> one row per DISTINCT word-n-gram: (gram_hash, doc_id, n_grams).
    The doc's gram count rides along so the pair stage needs no size join.
    Gram hashing = pandas' fixed-key siphash (vectorized, process-stable)."""
    out_gram: List[str] = []
    out_doc: List[int] = []
    out_n: List[int] = []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        grams = textnorm.word_ngrams(text or "", n)
        out_gram.extend(grams)
        out_doc.extend([doc_id] * len(grams))
        out_n.extend([len(grams)] * len(grams))
    hashes = pd.util.hash_pandas_object(pd.Series(out_gram, dtype=object), index=False)
    return pd.DataFrame(
        {
            "gram": hashes.to_numpy().astype(np.int64),
            "doc_id": np.asarray(out_doc, dtype=np.int64),
            "n_grams": np.asarray(out_n, dtype=np.int64),
        }
    )


def _posting_pairs(t: pa.Table, bucket_id: int, key: str, size: str,
                   weight: str = None) -> pa.Table:
    """One bucket of posting rows (key, doc_id, size[, weight]) -> one row
    per doc pair sharing a key: id_a < id_b and both docs' sizes, plus with
    ``weight`` the pair's weight product ``dot``. Uncapped: the queries that
    use it are exact. Callers count or sum the rows per pair with
    ``group_aggregate``."""
    ids = t.column("doc_id").to_numpy()
    ia, ib = group_pairs([t.column(key).to_numpy()], ids, None, key, bucket_id)
    ns = t.column(size).to_numpy()
    cols = {"id_a": ids[ia], "id_b": ids[ib], "n_a": ns[ia], "n_b": ns[ib]}
    if weight:
        w = t.column(weight).to_numpy()
        cols["dot"] = w[ia] * w[ib]
    return pa.table({c: pa.array(v, pa.int64()) for c, v in cols.items()})


def _pair_counts(docs_ds, n: int, n_buckets: int):
    """(id_a, id_b, n_a, n_b, inter): every doc pair sharing a word n-gram,
    with both docs' distinct-gram counts and the shared-gram count — ONE
    gram-keyed posting shuffle, then one pair-keyed count."""
    import functools

    from .shuffle import bucket_group_apply

    grams = docs_ds.map_batches(_gram_rows, fn_kwargs={"n": n}, batch_format="pandas")
    posting = functools.partial(_posting_pairs, key="gram", size="n_grams")
    pairs = bucket_group_apply(grams, ["gram"], posting, n_buckets)
    return group_aggregate(pairs, ["id_a", "id_b", "n_a", "n_b"], {"inter": ("count", None)})


def ngram_jaccard_pairs(docs_ds, n: int = NGRAM_N, threshold: float = 0.3,
                        n_buckets: int = 32):
    """EXACT all-pairs word-n-gram Jaccard >= threshold — the distributed
    inverted-index shape (no LSH approximation, so it admits a true SQL
    oracle; see ngram_jaccard_pairs_sql):

      1. map-side: distinct n-gram hashes per doc, gram count carried;
      2. ONE shuffle keyed on gram; per posting list, co-occurring pairs
         (``_posting_pairs``);
      3. ONE pair-keyed ``group_aggregate`` counts them (per-block partial
         counts, then one combine): intersection = the count, jaccard =
         inter / (n_a + n_b - inter), floor-truncated to 6dp (floor, not
         round: numpy is half-even, SQL half-away).

    Skew note: a gram shared by k docs emits O(k^2) pair rows; at corpus
    scale, drop ubiquitous grams first (document-frequency filter) — exact
    semantics here keeps every gram because the oracle must match."""

    def jaccard(t: pa.Table) -> pa.Table:
        inter = t.column("inter").to_numpy().astype(np.float64)
        raw = inter / (t.column("n_a").to_numpy() + t.column("n_b").to_numpy() - inter)
        keep = pa.array(raw >= threshold)
        return pa.table({"id_a": t.column("id_a").filter(keep),
                         "id_b": t.column("id_b").filter(keep),
                         "jaccard": pa.array(np.floor(raw * 1e6) / 1e6).filter(keep)})

    return _pair_counts(docs_ds, n, n_buckets).map_batches(jaccard, batch_format="pyarrow")


def ngram_jaccard_prefix(docs_ds, n: int = NGRAM_N, threshold: float = 0.3,
                         n_buckets: int = 32):
    """EXACT all-pairs word-n-gram Jaccard >= threshold via PREFIX FILTERING
    (the Chaudhuri/Bayardo prefix-filter lemma in the MapReduce shape of
    Vernica et al., SIGMOD 2010) — same output, same SQL oracle as
    ngram_jaccard_pairs, but the pair-generating index holds only each
    doc's PREFIX instead of its whole gram set:

      order every doc's grams by ascending GLOBAL document frequency
      (rarest first, gram-hash tiebreak — one total order shared by all
      docs); for Jaccard >= t, any qualifying pair must share a gram
      inside both docs' first ``|x| - ceil(t*|x|) + 1`` grams of that
      order (valid because the length filter ``min/max >= t`` bounds the
      required overlap below by ceil(t*|x|)). Posting lists shrink to the
      prefix entries — the common grams that dominate the all-grams
      index's O(k^2) pair blowup carry the HIGHEST df, so they land in
      almost no prefixes.

    Stages: (1) gram-keyed shuffle attaches each gram's exact global df;
    (2) doc-keyed shuffle packs each doc's df-ordered gram set into one
    binary blob (survives every Arrow<->pandas hop, unlike list columns);
    (3) map-side prefix explode — no shuffle; (4) gram-keyed shuffle over
    prefix postings emits candidate pairs, length-filtered map-side; (5)
    pair-keyed distinct (``group_aggregate``); (6) two blob lookups
    (broadcast under the gate, Bloom-pruned bucket join past it) + a
    vectorized sorted-set intersection verify each candidate exactly.
    False negatives: none (lemma above); false positives: killed by
    verification, so the result is bit-equal to the exhaustive variant."""
    import functools

    from .shuffle import bucket_group_apply, lookup_join

    grams = docs_ds.map_batches(_gram_rows, fn_kwargs={"n": n}, batch_format="pandas")

    def df_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        # bucket holds EVERY row of its grams, so posting size == exact df
        dfreq = df.groupby("gram", sort=False)["doc_id"].transform("size")
        return pa.table(
            {
                "gram": pa.array(df["gram"].to_numpy(), pa.int64()),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "n_grams": pa.array(df["n_grams"].to_numpy(), pa.int64()),
                "df": pa.array(dfreq.to_numpy(), pa.int64()),
            }
        )

    withdf = bucket_group_apply(grams, ["gram"], df_bucket, n_buckets)

    def set_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        doc = t.column("doc_id").to_numpy()
        gram = t.column("gram").to_numpy()
        dfreq = t.column("df").to_numpy()
        ng = t.column("n_grams").to_numpy()
        order = np.lexsort((gram, dfreq, doc))
        doc_s = doc[order]
        gram_s = gram[order].astype("<i8")
        uniq, starts = np.unique(doc_s, return_index=True)
        ends = np.append(starts[1:], doc_s.size)
        blobs = [gram_s[s:e].tobytes() for s, e in zip(starts, ends)]
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "n_grams": pa.array(ng[order][starts], pa.int64()),
                "set_blob": pa.array(blobs, pa.binary()),
            }
        )

    sets = bucket_group_apply(withdf, ["doc_id"], set_bucket, n_buckets)

    def prefix_rows(df: pd.DataFrame, t: float) -> pd.DataFrame:
        ng = df["n_grams"].to_numpy()
        p = ng - np.ceil(t * ng).astype(np.int64) + 1
        parts = [
            np.frombuffer(blob, dtype="<i8", count=int(pi))
            for blob, pi in zip(df["set_blob"], p)
        ]
        return pd.DataFrame(
            {
                "gram": np.concatenate(parts) if parts else np.array([], np.int64),
                "doc_id": np.repeat(df["doc_id"].to_numpy(), p),
                "n_grams": np.repeat(ng, p),
            }
        )

    prefix = sets.map_batches(prefix_rows, fn_kwargs={"t": threshold},
                              batch_format="pandas")

    def length_filter(t: pa.Table) -> pa.Table:
        # jaccard <= min/max, so min >= t*max is necessary. 1e-9 slack errs
        # toward KEEPING borderline pairs (verification is exact); a float
        # rounding drop here would be a missed true pair.
        na, nb = t.column("n_a").to_numpy(), t.column("n_b").to_numpy()
        return t.filter(pa.array(np.minimum(na, nb) >= threshold * np.maximum(na, nb) - 1e-9))

    posting = functools.partial(_posting_pairs, key="gram", size="n_grams")
    cands = bucket_group_apply(prefix, ["gram"], posting, n_buckets).map_batches(
        length_filter, batch_format="pyarrow")
    # a pair found via several prefix grams is made globally unique before
    # the (more expensive) blob verification
    uniq_cands = group_aggregate(cands, ["id_a", "id_b", "n_a", "n_b"], {})

    # per-side renamed blob projections: lookup_join only suffixes clashes
    # it can SEE (lazy left schemas are assumed disjoint), so disjoint
    # names by construction keep both joins unambiguous
    def _keep_blob(t: pa.Table, out_name: str) -> pa.Table:
        return pa.table({"doc_id": t.column("doc_id"), out_name: t.column("set_blob")})

    blobs_a = sets.map_batches(_keep_blob, fn_kwargs={"out_name": "blob_a"},
                               batch_format="pyarrow")
    blobs_b = sets.map_batches(_keep_blob, fn_kwargs={"out_name": "blob_b"},
                               batch_format="pyarrow")
    joined = lookup_join(uniq_cands, blobs_a, key="id_a", right_key="doc_id",
                         unique_right=True, n_buckets=n_buckets)
    joined = lookup_join(joined, blobs_b, key="id_b", right_key="doc_id",
                         unique_right=True, n_buckets=n_buckets)

    def verify(df: pd.DataFrame, t: float) -> pa.Table:
        na = df["n_a"].to_numpy()
        nb = df["n_b"].to_numpy()
        inter = np.fromiter(
            (
                np.intersect1d(
                    np.frombuffer(a, dtype="<i8"),
                    np.frombuffer(b, dtype="<i8"),
                    assume_unique=True,
                ).size
                for a, b in zip(df["blob_a"], df["blob_b"])
            ),
            dtype=np.int64,
            count=len(df),
        )
        union = (na + nb - inter).astype(np.float64)
        raw = inter / union
        keep = raw >= t
        jacc = np.floor(raw[keep] * 1e6) / 1e6
        return pa.table(
            {
                "id_a": pa.array(df["id_a"].to_numpy()[keep], pa.int64()),
                "id_b": pa.array(df["id_b"].to_numpy()[keep], pa.int64()),
                "jaccard": pa.array(jacc, pa.float64()),
            }
        )

    return joined.map_batches(verify, fn_kwargs={"t": threshold},
                              batch_format="pandas")


DUP_NGRAM_K = 13


def _gram_pos_rows(batch: pd.DataFrame, k: int = DUP_NGRAM_K) -> pd.DataFrame:
    """doc -> one row per k-token-gram POSITION: (gram hash, doc_id, pos).
    Unlike _gram_rows (distinct grams for Jaccard), every position is kept —
    span recovery needs to know WHERE each duplicated gram sits. Tokenizer is
    the corpus-statistics [a-z0-9]+ pretokenizer so dedup agrees with
    vocab_stats/BM25/top_tokens on what a token is. Gram hashing = pandas'
    fixed-key siphash (vectorized, process-stable; the same 64-bit-collision
    discipline as ngram_jaccard_pairs)."""
    from .textstats import _VOCAB_RE

    out_gram: List[str] = []
    out_doc: List[int] = []
    out_pos: List[int] = []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        toks = _VOCAB_RE.findall((text or "").lower())
        m = len(toks) - k + 1
        if m <= 0:
            continue
        out_gram.extend(" ".join(toks[i : i + k]) for i in range(m))
        out_doc.extend([doc_id] * m)
        out_pos.extend(range(m))
    hashes = pd.util.hash_pandas_object(pd.Series(out_gram, dtype=object), index=False)
    return pd.DataFrame(
        {
            "gram": hashes.to_numpy().astype(np.int64),
            "doc_id": np.asarray(out_doc, dtype=np.int64),
            "pos": np.asarray(out_pos, dtype=np.int64),
        }
    )


def duplicate_ngram_spans(docs_ds, k: int = DUP_NGRAM_K, min_count: int = 2,
                          n_buckets: int = 32):
    """Repeated-substring spans: maximal token ranges covered by k-token
    grams that occur >= min_count times ANYWHERE in the corpus (within- or
    cross-document) — the exact-substring-dedup semantics of Lee et al. 2021
    ("Deduplicating Training Data Makes Language Models Better"), re-expressed
    as two bounded shuffles instead of a monolithic suffix array:

      1. map-side: one (gram_hash, doc_id, pos) row per k-gram position;
      2. ONE gram-keyed shuffle; positions of grams with corpus count >=
         min_count survive (a linear filter per posting list — never a pair
         explosion, so hot boilerplate grams cost O(occurrences));
      3. ONE doc-keyed shuffle; per doc the surviving positions sort once and
         merge into maximal spans (gap > k starts a new span; [p, p+k) and
         [p', p'+k) merge when p' - p <= k, adjacency included).

    Output: (doc_id, start_tok int64, end_tok int64 exclusive, n_grams) —
    downstream trimming drops tokens [start_tok, end_tok). Shuffle volume is
    one row per token position (the inverted-index bound); at 100 TB, front
    it with a document-frequency Bloom/HLL prune if min_count > 2 is
    acceptable."""
    from .shuffle import bucket_group_apply

    grams = docs_ds.map_batches(
        _gram_pos_rows, fn_kwargs={"k": k}, batch_format="pandas"
    )

    def dup_positions(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        cnt = df.groupby("gram", sort=False)["gram"].transform("size")
        kept = df[cnt.to_numpy() >= min_count]
        return pa.table(
            {
                "doc_id": pa.array(kept["doc_id"].to_numpy(), pa.int64()),
                "pos": pa.array(kept["pos"].to_numpy(), pa.int64()),
            }
        )

    dups = bucket_group_apply(grams, ["gram"], dup_positions, n_buckets)

    def spans_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        if not t.num_rows:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "start_tok": pa.array([], pa.int64()),
                    "end_tok": pa.array([], pa.int64()),
                    "n_grams": pa.array([], pa.int64()),
                }
            )
        doc = t.column("doc_id").to_numpy()
        pos = t.column("pos").to_numpy()
        order = np.lexsort((pos, doc))
        doc, pos = doc[order], pos[order]
        new_span = np.ones(len(doc), dtype=bool)
        if len(doc) > 1:
            same_doc = doc[1:] == doc[:-1]
            near = (pos[1:] - pos[:-1]) <= k
            new_span[1:] = ~(same_doc & near)
        starts = np.flatnonzero(new_span)
        ends = np.concatenate([starts[1:], [len(doc)]])
        return pa.table(
            {
                "doc_id": pa.array(doc[starts], pa.int64()),
                "start_tok": pa.array(pos[starts], pa.int64()),
                "end_tok": pa.array(pos[ends - 1] + k, pa.int64()),
                "n_grams": pa.array(ends - starts, pa.int64()),
            }
        )

    return bucket_group_apply(dups, ["doc_id"], spans_bucket, n_buckets)


def duplicate_ngram_spans_sql(k: int = DUP_NGRAM_K, min_count: int = 2) -> str:
    """DuckDB oracle: same [a-z0-9]+ tokens, same k-gram positions, same
    >= min_count corpus filter, same gap->span merge (gaps-and-islands via
    lag + running sum)."""
    return f"""
    WITH toks AS (
      SELECT doc_id,
             regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+') AS ts
      FROM documents
    ), grams AS (
      SELECT doc_id, i - 1 AS pos, array_to_string(ts[i:i+{k}-1], ' ') AS gram
      FROM (SELECT doc_id, ts,
                   unnest(range(1, greatest(len(ts) - {k} + 2, 1))) AS i
            FROM toks)
    ), dup AS (
      SELECT gram FROM grams GROUP BY gram HAVING count(*) >= {min_count}
    ), pos AS (
      SELECT g.doc_id, g.pos FROM grams g JOIN dup USING (gram)
    ), isl AS (
      SELECT doc_id, pos,
             CASE WHEN pos - COALESCE(lag(pos) OVER (PARTITION BY doc_id
                    ORDER BY pos), -{k + 1}) > {k} THEN 1 ELSE 0 END AS brk
      FROM pos
    ), grp AS (
      SELECT doc_id, pos,
             sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS isl
      FROM isl
    )
    SELECT doc_id, CAST(min(pos) AS BIGINT) AS start_tok,
           CAST(max(pos) + {k} AS BIGINT) AS end_tok,
           CAST(count(*) AS BIGINT) AS n_grams
    FROM grp GROUP BY doc_id, isl
    """


def ngram_jaccard_pairs_sql(n: int = NGRAM_N, threshold: float = 0.3) -> str:
    """DuckDB oracle for ngram_jaccard_pairs: same grams (\\w+ over lowered
    text, <n-word docs fold to one joined gram, empty docs emit none), same
    inverted-index join, same floor-truncated 6dp jaccard."""
    concat = " || ' ' || ".join(f"ws[i + {j}]" for j in range(n))
    return f"""
    WITH w AS (
      SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '\\w+') AS ws
      FROM documents
    ), g AS (
      SELECT DISTINCT doc_id,
             CASE WHEN len(ws) < {n} THEN array_to_string(ws, ' ')
                  ELSE {concat} END AS gram
      FROM w
      JOIN (SELECT unnest(range(1, (SELECT CAST(COALESCE(max(len(ws)), 0) AS BIGINT) + 1 FROM w))) AS i) s
        ON i <= CASE WHEN len(ws) < {n} THEN 1 ELSE len(ws) - {n} + 1 END
      WHERE len(ws) > 0
    ), sz AS (
      SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id
    ), inter AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter
      FROM g a JOIN g b ON a.gram = b.gram AND b.doc_id > a.doc_id
      GROUP BY 1, 2
    )
    SELECT id_a, id_b,
           floor((i.inter * 1.0 / (sa.n_grams + sb.n_grams - i.inter)) * 1000000) / 1000000 AS jaccard
    FROM inter i
    JOIN sz sa ON sa.doc_id = i.id_a
    JOIN sz sb ON sb.doc_id = i.id_b
    WHERE i.inter * 1.0 / (sa.n_grams + sb.n_grams - i.inter) >= {threshold}
    """


# ------------------------------------------------------------------ simhash

SIMHASH_BANDS = 4
HAMMING_MAX = 3


def simhash_rows(batch: pd.DataFrame) -> pd.DataFrame:  # stateless task fn
    """doc -> 4 rows (band_id, band_value, doc_id, simhash)."""
    doc_ids, band_ids, band_vals, sims = [], [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        sh = textnorm.simhash64(text or "")
        for band in range(SIMHASH_BANDS):
            doc_ids.append(doc_id)
            band_ids.append(band)
            band_vals.append((sh >> (band * 16)) & 0xFFFF)
            sims.append(sh)
    return pd.DataFrame(
        {
            "doc_id": doc_ids,
            "band_id": band_ids,
            "band_value": band_vals,
            "simhash": [s - (1 << 63) for s in sims],  # store as signed int64
        }
    )


def simhash_near_pairs(docs_ds, hamming_max: int = HAMMING_MAX, concurrency: int = None,
                       n_buckets: int = 32):
    """Pairs within Hamming distance <= hamming_max, via sub-band blocking."""
    from .shuffle import bucket_group_apply

    rows = docs_ds.map_batches(simhash_rows, batch_format="pandas")

    def bucket_pairs(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        a_out: List[int] = []
        b_out: List[int] = []
        d_out: List[int] = []
        for _, group in df.groupby(["band_id", "band_value"], sort=False):
            if len(group) < 2:
                continue
            g = group.drop_duplicates("doc_id").sort_values("doc_id")
            ids = g["doc_id"].tolist()
            sims = [s + (1 << 63) for s in g["simhash"].tolist()]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = textnorm.hamming64(sims[i], sims[j])
                    if d <= hamming_max:
                        a_out.append(ids[i])
                        b_out.append(ids[j])
                        d_out.append(d)
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "hamming": pa.array(d_out, pa.int64()),
            }
        )

    pairs = bucket_group_apply(rows, ["band_id", "band_value"], bucket_pairs, n_buckets)

    return group_aggregate(pairs, ["id_a", "id_b"], {"hamming": ("min", "hamming")})


# ------------------------------------------------------------------ embeddings

def _normalized_matrix(embeddings_ds):
    from .similarity import list_column_to_matrix

    ids, mats = [], []
    for b in embeddings_ds.iter_batches(batch_size=8192, batch_format="pyarrow"):
        ids.extend(b.column("vec_id").to_pylist())
        mats.append(list_column_to_matrix(b.column("embedding")))
    mat = np.vstack(mats) if mats else np.zeros((0, 0), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.asarray(ids), mat / norms


EXACT_COSINE_MAX_ROWS = 200_000


def embedding_cosine_pairs(embeddings_ds, threshold: float = 0.95,
                           max_exact_rows: int = EXACT_COSINE_MAX_ROWS,
                           allow_approx: bool = False):
    """Exact all-pairs cosine near-dup pairs (id_a < id_b, cos >= threshold).

    Brute force per batch against the broadcast matrix (numpy matmul) — the
    DECLARED verification-scale method: O(N) driver materialization and
    O(N^2) scoring. A row-count gate stops it from running unbounded: inputs
    larger than ``max_exact_rows`` RAISE by default — an operator named
    "exact" must not silently return approximate results. Pass
    ``allow_approx=True`` to route oversized inputs to the multi-band LSH
    variant (embedding_lsh_pairs) with a logged notice instead."""
    import ray

    n_rows = embeddings_ds.count()
    if n_rows > max_exact_rows:
        if not allow_approx:
            raise ValueError(
                f"embedding_cosine_pairs is EXACT (O(N^2) scoring, O(N) "
                f"driver state) and gated at {max_exact_rows} rows; the "
                f"input has {n_rows}. Pass allow_approx=True to fall back "
                f"to embedding_lsh_pairs (approximate), or call "
                f"embedding_lsh_pairs directly."
            )
        logger.warning(
            "embedding_cosine_pairs: %d rows exceeds the exact-path gate "
            "(%d); routing to multi-band hyperplane LSH (approximate).",
            n_rows, max_exact_rows,
        )
        return embedding_lsh_pairs(embeddings_ds, threshold=threshold)

    ids, mat = _normalized_matrix(embeddings_ds)
    ref = ray.put((ids, mat))

    def score(batch: pa.Table) -> pd.DataFrame:
        all_ids, all_mat = ray.get(ref)
        q_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        q = _list_matrix(batch.column("embedding"))
        qn = np.linalg.norm(q, axis=1, keepdims=True)
        qn[qn == 0] = 1.0
        sims = (q / qn) @ all_mat.T
        rows_a, rows_b, rows_s = [], [], []
        for qi in range(len(q_ids)):
            mask = (sims[qi] >= threshold) & (all_ids > q_ids[qi])
            for j in np.flatnonzero(mask):
                rows_a.append(int(q_ids[qi]))
                rows_b.append(int(all_ids[j]))
                rows_s.append(round(float(sims[qi, j]), 6))
        return pd.DataFrame(
            {
                "id_a": pd.array(rows_a, dtype="int64"),
                "id_b": pd.array(rows_b, dtype="int64"),
                "cos_sim": pd.array(rows_s, dtype="float64"),
            }
        )

    return embeddings_ds.map_batches(score, batch_format="pyarrow")


def embedding_cosine_pairs_sql(threshold: float = 0.95) -> str:
    return f"""
    SELECT a.vec_id AS id_a, b.vec_id AS id_b,
           round(list_cosine_similarity(
               CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])), 6) AS cos_sim
    FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
    WHERE list_cosine_similarity(
        CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= {threshold}
    """


LSH_BUCKET_CAP = 2000


def lsh_plan(threshold: float, target_recall: float = 0.95,
             band_hit_rate: float = 0.2) -> tuple:
    """(n_bands, bits_per_band) for a cosine threshold, from the hyperplane
    collision model p_bit = 1 - arccos(t)/pi:
      bits  = largest b with p_bit^b >= band_hit_rate (bucket discrimination),
      bands = enough that 1 - (1 - p_bit^bits)^bands >= target_recall.
    Low thresholds genuinely need more bands/fewer bits — the cost of ANN at
    weak similarity is the model, not this implementation."""
    t = float(np.clip(threshold, -1.0, 1.0))
    p_bit = 1.0 - np.arccos(t) / np.pi
    p_bit = float(np.clip(p_bit, 1e-6, 1 - 1e-9))
    bits = max(2, int(np.floor(np.log(band_hit_rate) / np.log(p_bit))))
    p_band = p_bit ** bits
    bands = int(np.ceil(np.log(1.0 - target_recall) / np.log(1.0 - p_band)))
    return max(1, min(bands, 32)), bits


def make_hyperplane_bucketizer(planes_ref, n_bands: int, weights,
                               normalize: bool = False):
    """Shared band-key machinery for the hyperplane-LSH family
    (embedding_lsh_pairs here, knn_graph_lsh in similarity.py): explode
    each vector into ``n_bands`` (band_id, band_key, embedding) rows,
    keys from the sign pattern of random-plane projections. ``normalize``
    pre-normalizes rows for consumers that dot raw matrices in-bucket —
    sign(proj) is scale-invariant, so the keys are identical either way.
    ONE implementation so a banding-policy fix cannot silently miss a
    copy (review finding)."""

    def bucketize(batch: pa.Table) -> pd.DataFrame:
        import ray

        pl = ray.get(planes_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        mat = _list_matrix(batch.column("embedding"))
        if normalize:
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            mat = mat / norms
        n = len(ids)
        # (n, n_bands, bits) sign bits -> (n, n_bands) int keys
        proj = np.einsum("nd,bkd->nbk", mat, pl) > 0
        keys = (proj * np.asarray(weights)[None, None, :]).sum(axis=2)
        return pd.DataFrame(
            {
                "vec_id": np.repeat(ids, n_bands),
                "band_id": np.tile(np.arange(n_bands, dtype=np.int64), n),
                "band_key": keys.astype(np.int64).ravel(),
                "embedding": [mat[i] for i in range(n) for _ in range(n_bands)],
            }
        )

    return bucketize


def embedding_lsh_pairs(embeddings_ds, threshold: float = 0.9, seed: int = 11,
                        concurrency: int = None, n_bands: int = None,
                        bits_per_band: int = None,
                        bucket_cap: int = LSH_BUCKET_CAP, n_buckets: int = 32):
    """MULTI-BAND hyperplane-LSH near-dup pairs — the 100TB-shaped variant.

    Each vector gets ``n_bands`` independent sign-bit keys of
    ``bits_per_band`` random hyperplanes (a pair collides if ANY band
    matches — same banding recall structure as the MinHash path above, vs
    the single-key variant whose 2^8 buckets degenerated to O(N^2/256)
    all-pairs inside one map_groups task). Band/bit counts default to
    lsh_plan(threshold) (~0.95 recall at the threshold). Bucket population
    shrinks geometrically in bits_per_band, pair recall is recovered across
    bands, and oversized buckets are capped at ``bucket_cap`` with a LOGGED
    truncation count. Exact cosine is verified in-bucket only; duplicate
    pair hits across bands fold in one final groupby."""
    import ray
    from .shuffle import bucket_group_apply

    auto_bands, auto_bits = lsh_plan(threshold)
    n_bands = n_bands or auto_bands
    bits_per_band = bits_per_band or auto_bits

    def make_planes(dim):
        rng = np.random.RandomState(seed)
        return rng.normal(size=(n_bands, bits_per_band, dim))

    first = embeddings_ds.take(1)[0]
    planes = make_planes(len(first["embedding"]))
    planes_ref = ray.put(planes)
    weights = 1 << np.arange(bits_per_band, dtype=np.int64)

    bucketed = embeddings_ds.map_batches(
        make_hyperplane_bucketizer(planes_ref, n_bands, weights),
        batch_format="pyarrow",
    )

    def band_bucket_pairs(t: pa.Table, bucket_id: int) -> pa.Table:
        keys = [t.column(c).to_numpy() for c in ("band_id", "band_key")]
        vec_ids = t.column("vec_id").to_numpy()
        rows = capped_members(keys, vec_ids, bucket_cap, "embedding LSH", bucket_id)
        mat_all = _list_matrix(t.column("embedding"))
        a_out: List[int] = []
        b_out: List[int] = []
        s_out: List[float] = []
        for g in np.split(rows, group_starts([k[rows] for k in keys])[1:]):
            if len(g) < 2:
                continue
            ids, mat = vec_ids[g], mat_all[g]
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            sims = (mat / norms) @ (mat / norms).T
            iu, ju = np.triu_indices(len(ids), k=1)
            hit = sims[iu, ju] >= threshold
            a_out.extend(ids[iu[hit]].tolist())
            b_out.extend(ids[ju[hit]].tolist())
            s_out.extend(np.round(sims[iu[hit], ju[hit]], 6).tolist())
        return pa.table(
            {
                "id_a": pa.array(a_out, pa.int64()),
                "id_b": pa.array(b_out, pa.int64()),
                "cos_sim": pa.array(s_out, pa.float64()),
            }
        )

    pairs = bucket_group_apply(bucketed, ["band_id", "band_key"], band_bucket_pairs, n_buckets)
    # a pair found in several bands reports the same rounded cosine; Min is a
    # deterministic dedup fold
    return group_aggregate(pairs, ["id_a", "id_b"], {"cos_sim": ("min", "cos_sim")})


# ----------------------------------------- tf-idf cosine all-pairs (APSS)


def tfidf_cosine_pairs(docs_ds, threshold: float = 0.8, min_df: int = 2,
                       max_df: int = None, n_buckets: int = 32):
    """EXACT all-pairs tf-idf COSINE similarity >= threshold — the weighted
    complement of the n-gram Jaccard family (the all-pairs similarity
    search problem of Bayardo/Ma/Srikant, WWW 2007): near-duplicates by
    shared RARE vocabulary, where set-overlap measures miss rewordings
    that keep the distinctive terms.

    Parity discipline (the zipf_slope microlog convention): each doc-term
    weight is the exact integer ``tf * idf_micro`` with
    ``idf_micro = floor((ln((N+1)/(df+1)) + 1) * 1e6)`` (sklearn-smoothed
    idf on a 1e-6 grid), so dot products and squared norms are EXACT
    integers on both engines (HUGEINT in DuckDB, guarded int64 here) and
    ``cos = dot / (sqrt(na) * sqrt(nb))`` is one identical IEEE expression
    (sqrt is correctly rounded) — bit-exact parity, threshold on the raw
    value, output floored to 6dp.

    Stages (the ngram_jaccard_prefix skeleton): term-keyed
    bucket attaches each term's exact global df (and drops terms outside
    [min_df, max_df] — a df-1 term cannot pair, and ``max_df`` is the
    standard APSS hot-term guard: at corpus scale ubiquitous terms carry
    near-zero idf weight but O(k^2) pair cost, so exclude them IN BOTH
    ENGINES); doc-keyed bucket computes weights + the doc's squared norm;
    term-keyed posting bucket emits per-pair weight products
    (``_posting_pairs``); a pair-keyed ``group_aggregate`` sums them and a
    map thresholds. Weights are
    guarded below 2^31 so per-term products fit int64 exactly; corpora
    beyond that need a coarser idf grid (the guard raises loudly rather
    than overflowing silently)."""
    import functools

    from .shuffle import bucket_group_apply
    from .textstats import _VOCAB_RE

    n_docs = docs_ds.count()

    def tf_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out_term: List[str] = []
        out_doc: List[int] = []
        out_tf: List[int] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            counts: dict = {}
            for t in _VOCAB_RE.findall((text or "").lower()):
                counts[t] = counts.get(t, 0) + 1
            out_term.extend(counts.keys())
            out_doc.extend([doc_id] * len(counts))
            out_tf.extend(counts.values())
        return pd.DataFrame(
            {
                "term": pd.Series(out_term, dtype=object),
                "doc_id": np.asarray(out_doc, dtype=np.int64),
                "tf": np.asarray(out_tf, dtype=np.int64),
            }
        )

    tf = docs_ds.map_batches(tf_rows, batch_format="pandas")

    def df_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        # the bucket holds EVERY row of its terms, so group size == exact df
        dfreq = df.groupby("term", sort=False)["doc_id"].transform("size").to_numpy()
        keep = dfreq >= min_df
        if max_df is not None:
            keep &= dfreq <= max_df
        idf_micro = np.floor(
            (np.log((n_docs + 1.0) / (dfreq[keep] + 1.0)) + 1.0) * 1e6
        ).astype(np.int64)
        return pa.table(
            {
                "term": pa.array(df["term"].to_numpy()[keep], pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy()[keep], pa.int64()),
                "w": pa.array(df["tf"].to_numpy()[keep] * idf_micro, pa.int64()),
            }
        )

    weighted = bucket_group_apply(tf, ["term"], df_bucket, n_buckets)

    def norm_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        w = df["w"].to_numpy()
        if w.size and w.max() >= (1 << 31):
            raise ValueError(
                "tfidf_cosine_pairs: a weight exceeds 2^31; per-term products "
                "would overflow int64 — use a coarser idf grid for this corpus"
            )
        norm = (
            df.assign(__w2=w * w)
            .groupby("doc_id", sort=False)["__w2"]
            .transform("sum")
            .to_numpy()
        )
        return pa.table(
            {
                "term": pa.array(df["term"].to_numpy(), pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "w": pa.array(w, pa.int64()),
                "norm": pa.array(norm, pa.int64()),
            }
        )

    normed = bucket_group_apply(weighted, ["doc_id"], norm_bucket, n_buckets)

    posting = functools.partial(_posting_pairs, key="term", size="norm", weight="w")
    pairs = bucket_group_apply(normed, ["term"], posting, n_buckets)
    dots = group_aggregate(pairs, ["id_a", "id_b", "n_a", "n_b"], {"dot": ("sum", "dot")})

    def cosine(t: pa.Table) -> pa.Table:
        raw = t.column("dot").to_numpy().astype(np.float64) / (
            np.sqrt(t.column("n_a").to_numpy().astype(np.float64))
            * np.sqrt(t.column("n_b").to_numpy().astype(np.float64))
        )
        keep = pa.array(raw >= threshold)
        return pa.table({"id_a": t.column("id_a").filter(keep),
                         "id_b": t.column("id_b").filter(keep),
                         "cosine": pa.array(np.floor(raw * 1e6) / 1e6).filter(keep)})

    return dots.map_batches(cosine, batch_format="pyarrow")


def tfidf_cosine_pairs_sql(threshold: float = 0.8, min_df: int = 2,
                           max_df: int = None) -> str:
    """DuckDB oracle: identical integer weights (tf * microgrid idf), exact
    HUGEINT dots/norms, the same single IEEE cosine expression."""
    max_df_pred = f"AND df <= {max_df}" if max_df is not None else ""
    return f"""
    WITH tf AS (
      SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
      FROM (
        SELECT doc_id,
               unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9]+')) AS term
        FROM documents
      ) GROUP BY 1, 2
    ), dfreq AS (
      SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
    ), w AS (
      SELECT tf.doc_id, tf.term,
             tf.tf * CAST(floor((ln(((SELECT count(*) FROM documents) + 1.0)
                                    / (df + 1.0)) + 1.0) * 1000000) AS BIGINT) AS w
      FROM tf JOIN dfreq USING (term)
      WHERE df >= {min_df} {max_df_pred}
    ), nrm AS (
      SELECT doc_id, sum(w * w) AS norm FROM w GROUP BY 1
    ), dots AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b, sum(a.w * b.w) AS dot
      FROM w a JOIN w b ON a.term = b.term AND b.doc_id > a.doc_id
      GROUP BY 1, 2
    )
    SELECT id_a, id_b,
           floor((CAST(dot AS DOUBLE)
                  / (sqrt(CAST(na.norm AS DOUBLE)) * sqrt(CAST(nb.norm AS DOUBLE))))
                 * 1000000) / 1000000 AS cosine
    FROM dots
    JOIN nrm na ON na.doc_id = id_a
    JOIN nrm nb ON nb.doc_id = id_b
    WHERE CAST(dot AS DOUBLE)
          / (sqrt(CAST(na.norm AS DOUBLE)) * sqrt(CAST(nb.norm AS DOUBLE))) >= {threshold}
    """


def ngram_containment_pairs(docs_ds, n: int = NGRAM_N, threshold: float = 0.5,
                            n_buckets: int = 32):
    """EXACT directed n-gram CONTAINMENT pairs: (id_sub, id_super, inter /
    |grams(sub)| >= threshold, sub != super). The asymmetric complement of
    ngram_jaccard_pairs — Jaccard misses a short document quoted inside a
    much longer one (the union is dominated by the long doc), containment
    is exactly the quote/superset detector training-data dedup needs
    (Broder's containment from the original resemblance paper, SEQUENCES
    1997). Both directions of every co-occurring pair are evaluated; a
    mutual near-copy emits two rows.

    Scale shape: identical to ngram_jaccard_pairs (the same ``_pair_counts``
    — one gram-keyed posting shuffle, one pair-keyed count — and the same
    skew note applies: cap or df-filter ubiquitous grams past oracle
    scale); the only change is the finalizer emitting per-direction
    ratios. Ratio floor-truncated to 6dp, threshold on the raw value."""

    def containment(t: pa.Table) -> pa.Table:
        inter = t.column("inter").to_numpy().astype(np.float64)
        ia = t.column("id_a").to_numpy()
        ib = t.column("id_b").to_numpy()
        ca = inter / t.column("n_a").to_numpy()          # a contained in b
        cb = inter / t.column("n_b").to_numpy()          # b contained in a
        ka = ca >= threshold
        kb = cb >= threshold
        sub = np.concatenate([ia[ka], ib[kb]])
        sup = np.concatenate([ib[ka], ia[kb]])
        cont = np.concatenate([ca[ka], cb[kb]])
        return pa.table(
            {
                "id_sub": pa.array(sub, pa.int64()),
                "id_super": pa.array(sup, pa.int64()),
                "containment": pa.array(np.floor(cont * 1e6) / 1e6, pa.float64()),
            }
        )

    return _pair_counts(docs_ds, n, n_buckets).map_batches(containment, batch_format="pyarrow")


def ngram_containment_pairs_sql(n: int = NGRAM_N, threshold: float = 0.5) -> str:
    """DuckDB oracle: same grams as ngram_jaccard_pairs_sql, both directed
    ratios via UNION ALL, same raw threshold + 6dp floor."""
    concat = " || ' ' || ".join(f"ws[i + {j}]" for j in range(n))
    return f"""
    WITH w AS (
      SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '\\w+') AS ws
      FROM documents
    ), g AS (
      SELECT DISTINCT doc_id,
             CASE WHEN len(ws) < {n} THEN array_to_string(ws, ' ')
                  ELSE {concat} END AS gram
      FROM w
      JOIN (SELECT unnest(range(1, (SELECT CAST(COALESCE(max(len(ws)), 0) AS BIGINT) + 1 FROM w))) AS i) s
        ON i <= CASE WHEN len(ws) < {n} THEN 1 ELSE len(ws) - {n} + 1 END
      WHERE len(ws) > 0
    ), sz AS (
      SELECT doc_id, count(*) AS n_grams FROM g GROUP BY doc_id
    ), inter AS (
      SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS inter
      FROM g a JOIN g b ON a.gram = b.gram AND b.doc_id > a.doc_id
      GROUP BY 1, 2
    ), directed AS (
      SELECT i.id_a AS id_sub, i.id_b AS id_super,
             i.inter * 1.0 / sa.n_grams AS c
      FROM inter i JOIN sz sa ON sa.doc_id = i.id_a
      UNION ALL
      SELECT i.id_b AS id_sub, i.id_a AS id_super,
             i.inter * 1.0 / sb.n_grams AS c
      FROM inter i JOIN sz sb ON sb.doc_id = i.id_b
    )
    SELECT id_sub, id_super, floor(c * 1000000) / 1000000 AS containment
    FROM directed WHERE c >= {threshold}
    """


# --------------------------------------- corpus-level MinHash overlap


def corpus_minhash_signature(docs_ds, num_perm: int = NUM_PERM,
                             k: int = SHINGLE_K) -> np.ndarray:
    """Merged MinHash signature of a WHOLE corpus's shingle set: the
    signature of a union is the elementwise minimum of the members'
    signatures, so each batch contributes one num_perm-row partial
    (constant state, fully mergeable — the HLL register discipline) and
    the driver folds #batches partials. uint64[num_perm]; an empty corpus
    yields the MERSENNE61 sentinel row."""
    a, b = textnorm.make_minhash_params(num_perm)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        sigs = textnorm.minhash_signatures_batch(batch["text"].tolist(), a, b, k)
        return pd.DataFrame({"sig": [sigs.min(axis=0).tobytes()]})

    rows = docs_ds.map_batches(partial, batch_format="pandas").take_all()
    if not rows:
        return np.full(num_perm, textnorm.MERSENNE61, dtype=np.uint64)
    return np.stack(
        [np.frombuffer(r["sig"], dtype=np.uint64) for r in rows]
    ).min(axis=0)


def corpus_overlap_minhash(docs_a, docs_b, num_perm: int = NUM_PERM,
                           k: int = SHINGLE_K):
    """Corpus-vs-corpus shingle-set resemblance WITHOUT pairwise work: one
    streaming pass per side building a merged MinHash signature, then the
    Broder estimator jaccard ~= matching components / num_perm (standard
    error 1/sqrt(num_perm)). The dataset-diff primitive for "how much does
    snapshot B overlap snapshot A?" at 100 TB — each side is a map-only
    scan with constant merge state; no shuffle, no pair generation, and
    the two sides never need to be co-located. One-row pandas result:
    (num_perm, n_match, jaccard_est). Empty-side guard: if either side has
    no shingles the estimate is NULL (all-sentinel signatures would
    otherwise fake a perfect match)."""
    sa = corpus_minhash_signature(docs_a, num_perm, k)
    sb = corpus_minhash_signature(docs_b, num_perm, k)
    sent = np.uint64(textnorm.MERSENNE61)
    if (sa == sent).all() or (sb == sent).all():
        return pd.DataFrame(
            {"num_perm": [num_perm], "n_match": [0],
             "jaccard_est": [None]}
        ).astype({"num_perm": "int64", "n_match": "int64", "jaccard_est": "float64"})
    n_match = int((sa == sb).sum())
    return pd.DataFrame(
        {
            "num_perm": np.array([num_perm], np.int64),
            "n_match": np.array([n_match], np.int64),
            "jaccard_est": np.array([n_match / num_perm], np.float64),
        }
    )


def dedup_reweight(docs_ds, **kwargs):
    """Distribution-preserving near-dup removal: one REPRESENTATIVE per
    MinHash cluster, carrying ``weight`` = cluster size — the standard
    fix for dedup skewing the training mixture (a 500-copy boilerplate
    family collapses to one doc; reweighting lets the sampler keep the
    family's original mass if it wants to, instead of silently
    down-weighting popular content). Representative = the cluster id
    itself (minhash_dedup's cluster rep is the component's min doc_id).
    One dimension-sized aggregate on top of the dedup pipeline; rows-only
    (cluster ids are model output), planted-size pins in tests."""
    import pyarrow.compute as pc

    clusters = minhash_dedup(docs_ds, **kwargs)
    w = group_aggregate(clusters, "cluster_id", {"weight": ("count", None)})

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("cluster_id"),
                "weight": pc.cast(t.column("weight"), pa.int64()),
            }
        )

    return w.map_batches(fin, batch_format="pyarrow")


# --------------------------------------------- incremental (delta) dedup


def minhash_index_rows(docs_ds):
    """docs -> the persistent LSH index rows (band_id, band_hash, doc_id):
    write these once per corpus snapshot (e.g. ``write_partitioned_by`` on
    band_id) and later feed them to minhash_dedup_delta so an ingest batch
    never recomputes or re-pairs the existing corpus."""
    return docs_ds.map_batches(_minhash_rows, batch_format="pandas")


def _delta_pairs_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
    """One hash bucket of tagged band rows (band_id, band_hash, doc_id,
    is_new) -> the candidate pairs touching a new doc (id_a < id_b):
    new-new pairs from the pair kernel and the new-old cross product, each
    side capped at BUCKET_PAIR_CAP by the kernel. Almost every band group
    is old-only (that is the whole point of the delta pass), so one
    transform drops them before any pairing."""
    df = t.to_pandas()
    band = ["band_id", "band_hash"]
    df = df[df.groupby(band, sort=False)["is_new"].transform("max") == 1]
    new, old = (
        side.iloc[capped_members([side[c].to_numpy() for c in band],
                                 side["doc_id"].to_numpy(), BUCKET_PAIR_CAP,
                                 "minhash delta", bucket_id)]
        for side in (df[df["is_new"] == 1], df[df["is_new"] == 0])
    )
    new_ids = new["doc_id"].to_numpy()
    ia, ib = group_pairs([new[c].to_numpy() for c in band], new_ids, None,
                         "minhash delta", bucket_id)
    # new-old pairs: the per-group cross product, normalized id_a < id_b
    cross = new[band + ["doc_id"]].merge(old[band + ["doc_id"]], on=band)
    gn, go = cross["doc_id_x"].to_numpy(), cross["doc_id_y"].to_numpy()
    a = np.concatenate([new_ids[ia], np.minimum(gn, go)])
    b = np.concatenate([new_ids[ib], np.maximum(gn, go)])
    return pa.table(
        {"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())}
    )


def minhash_dedup_delta(old_bands, new_docs_ds, union_docs_ds,
                        threshold: float = JACCARD_THRESHOLD,
                        n_buckets: int = 32):
    """Incremental near-dup detection: verified Jaccard pairs INVOLVING the
    new ingest batch — new-vs-old and new-vs-new — without ever pairing
    the old corpus against itself. THE production dedup pattern at 100 TB:
    a full re-dedup per snapshot re-emits O(sum C(bucket, 2)) candidate
    work every time, while the delta pass only generates pairs where at
    least one side is new, so steady-state ingest cost tracks the BATCH
    size, not the corpus (old-old boilerplate buckets that dominate a
    full run's candidate volume emit nothing here).

    ``old_bands`` = the existing corpus's LSH index rows (minhash_index_rows
    output, typically read back from parquet); ``union_docs_ds`` must cover
    the text of every doc id that can appear in a pair (old + new) — the
    exact verification joins it per side. Band rows for the new batch are
    computed here (map-only). Same banding/threshold/cap semantics as
    minhash_dedup; pinned in tests against the full run on the union
    restricted to pairs touching new ids."""
    from .shuffle import bucket_group_apply, compact_blocks

    def tag(side: int):
        def f(df: pd.DataFrame, _s=side) -> pd.DataFrame:
            df = df.copy()
            df["is_new"] = np.int8(_s)
            return df
        return f

    new_bands = new_docs_ds.map_batches(_minhash_rows, batch_format="pandas") \
                           .map_batches(tag(1), batch_format="pandas")
    old_tagged = old_bands.map_batches(tag(0), batch_format="pandas")
    bands = old_tagged.union(new_bands)

    pairs = bucket_group_apply(bands, ["band_id", "band_hash"], _delta_pairs_bucket,
                               n_buckets)
    cands = compact_blocks(group_aggregate(pairs, ["id_a", "id_b"], {}))
    return verify_jaccard_pairs(cands, union_docs_ds, threshold=threshold,
                                use_words=True)


def dedup_keep_best(docs_ds, threshold: float = JACCARD_THRESHOLD,
                    n_buckets: int = 32, **kwargs):
    """Quality-aware near-dup removal: keep the HIGHEST-QUALITY member of
    every MinHash cluster instead of the arbitrary min-id representative —
    what production corpus curation actually wants (when a press release
    appears 40 times, keep the cleanest copy, not the first-crawled one).
    Quality = textstats.quality_features' quality_score (length+stopword
    heuristic, floor-truncated to 6dp); ties break to the LOWEST doc_id so
    the selection is deterministic and engine-independent.

    Shape: clusters from minhash_dedup (banded LSH, verified pairs, gated
    clustering), quality from one map-only corpus pass; ONE bucket join on
    doc_id lines the two up and ONE cluster_id-bucketed reduce picks each
    cluster's argmax — per-bucket work is a single lexsort + first-
    occurrence mask, no Python loop. Output: (cluster_id, keep_doc_id,
    quality_score, n_members), one row per cluster. Rows-only as a query
    (cluster ids are model output); pinned vs a serial pandas reference in
    tests/test_keep_best.py."""
    from .shuffle import bucket_group_apply, bucket_hash_join
    from .textstats import quality_features

    clusters = minhash_dedup(docs_ds, threshold=threshold,
                             n_buckets=n_buckets, **kwargs)
    quality = docs_ds.map_batches(
        quality_features, batch_format="pandas",
        fn_kwargs={}, zero_copy_batch=True,
    ).select_columns(["doc_id", "quality_score"])
    joined = bucket_hash_join(
        clusters, quality, key="doc_id", n_buckets=n_buckets,
        unique_right=True,
    )

    def best_per_cluster(t: pa.Table, bucket_id: int) -> pa.Table:
        cl = t.column("cluster_id").to_numpy(zero_copy_only=False)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        q = t.column("quality_score").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -q, cl))  # cluster asc, quality desc, id asc
        cl, ids, q = cl[order], ids[order], q[order]
        first = np.ones(len(cl), dtype=bool)
        if len(cl) > 1:
            first[1:] = cl[1:] != cl[:-1]
        sizes = np.diff(np.append(np.flatnonzero(first), len(cl)))
        return pa.table(
            {
                "cluster_id": pa.array(cl[first], pa.int64()),
                "keep_doc_id": pa.array(ids[first], pa.int64()),
                "quality_score": pa.array(q[first], pa.float64()),
                "n_members": pa.array(sizes, pa.int64()),
            }
        )

    return bucket_group_apply(
        joined, ["cluster_id"], best_per_cluster, n_buckets
    )
