"""Entity linking + canonicalization (the reference's J1-J3 re-expressed).

Reference semantics (/root/reference/app/modules/artifact_ingestor/...):
  * chemical linking is a 2-tier probe per mention against a mutable DB:
    by (cas_number, manufacturer_id), falling back to (name, manufacturer_id),
    create on miss (artifact_ingestor_service.py:1027-1084; exact-name SQL at
    global_node_repository.py:65-101);
  * material identity is (replace(lower(name),' ',''), manufacturer) —
    normalized-name + manufacturer equality (global_node_repository.py:139-158);
  * manufacturer identity is exact name (manufacturer_repository find_by_name).

A parallel engine can't probe a mutable shared index row-at-a-time
(SURVEY.md §7.5), so linking is re-expressed as blocking + union-find:

  1. pre-reduce mentions to DISTINCT (manufacturer, name, cas) keys — this
     collapses hot-entity skew before any wide operation;
  2. block by manufacturer and union-find within the block: members sharing
     a non-null CAS or sharing an exact name collapse into one cluster.
     Because every observed (name, cas) pair is itself a member that unions
     its name-key with its cas-key, MAPPING CONSISTENCY is preserved: a
     mention's CAS and name always resolve to the same cluster.

     DOCUMENTED DIVERGENCE (cluster granularity): union-find is coarser than
     the reference's order-dependent two-tier probe. In a chain
     (A,X), (B,X), (B,Y) the reference — probing a mutable store in arrival
     order — keeps TWO nodes (the (B,Y) mention probes CAS Y first, misses,
     then hits name B), while union-find transitively collapses all three
     keys into ONE cluster. The engine intentionally picks the
     order-independent transitive closure: it is deterministic under any
     parallel schedule, whereas the reference's granularity depends on
     ingestion order (a (B,Y)-before-(B,X) arrival produces different nodes).
     Pinned by tests/test_linking_chains.py;
  3. the cluster winner is the member with the MINIMUM (conv_id, turn_idx)
     order key — the deterministic stand-in for the reference's
     "first-created node wins" arrival-order semantics; canonical CAS is the
     LAST mention's cas (the reference overwrites node.cas_number on every
     re-link, :1081);
  4. mentions join the (probe_key -> entity_id) mapping with a distributed
     hash join; per-entity (status, source) state is folded in order with
     the A4 transition tables (functions/decision_tables.py).

Scale note: the status fold is order-dependent but its state space is tiny
(status x source); it composes as a finite-state transition function.
``fold_chemical_states`` uses that: each sorted block pre-composes its
mentions into per-entity segment summaries, and only those summaries are
composed per entity, so no entity's mention rows have to meet in one group.
``fold_chemical_states_simple`` is the per-row reference fold it must equal.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.decision_tables import (
    fold_chemical_mentions_total,
    normalize_name_key,
)
from ..functions.arrowutil import bin_to_hex, try_hex_to_bin
from ..functions.pairs import group_pairs
from ..functions.textnorm import stable_id
from .shuffle import bucket_group_apply, group_aggregate, stable_bucket_array

MAPPING_SCHEMA = pa.schema(
    [
        ("row_kind", pa.string()),  # PROBE | NODE
        ("probe_key", pa.int64()),  # stable 63-bit hash of (tier, mfr, key)
        ("entity_id", pa.string()),
        ("name", pa.string()),
        ("cas", pa.string()),
        ("manufacturer", pa.string()),
    ]
)


from ..functions.textnorm import stable_hash64 as _stable_hash64


def probe_hash(tier: str, mfr: str, value: str) -> int:
    """Stable 63-bit probe key. Int keys keep the broadcast lookup index
    ~10x cheaper to build per worker than long composite strings; blake2
    collision odds at 2^63 are negligible for any realistic entity count."""
    return _stable_hash64(tier + "\x1f" + mfr + "\x1f" + value) >> 1

CHEM_NODE_STATE_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("pfas_status", pa.string()),
        ("pfas_information_source", pa.string()),
        ("n_mentions", pa.int64()),
        # errors side-channel: count of impossible (source, source) transitions
        # that were skipped during the fold (the reference RAISES and aborts
        # the document, artifact_ingestor_service.py:1244-1248; the engine
        # holds the existing state and reports the coercion)
        ("n_coerced", pa.int64()),
    ]
)


def order_key_array(batch: pa.Table, idx_col: str = "turn_idx") -> pa.Array:
    """Sortable string key '<conv_id>|<idx zero-padded>' — the engine's
    deterministic replacement for the reference's arrival order. For chem
    mention rows pass ``idx_col='pos'``: the reference processes a record's
    chemicals in A1-dedup dict order (first-occurrence position), NOT in
    turn order — the two differ when name-variants of one entity recur in a
    conversation (oracle.py ingest loop; triples.CHEM_MENTION_SCHEMA)."""
    idx = pc.cast(batch.column(idx_col), pa.string())
    padded = pc.utf8_lpad(idx, 8, "0")
    return pc.binary_join_element_wise(batch.column("conv_id"), padded, "|")


def chem_link_keys(batch: pa.Table) -> pa.Table:
    """chem mention rows -> (manufacturer, name, cas ["" if null], order_key).
    Order = (conv asc, A1-dedup position within conv): the oracle's node
    CREATION order, which decides cluster winners and canonical CAS."""
    cas = pc.fill_null(batch.column("cas"), "")
    return pa.table(
        {
            "manufacturer": batch.column("manufacturer"),
            "name": batch.column("name"),
            "cas": cas,
            "order_key": order_key_array(batch, "pos"),
        }
    )


def _name_candidate_pairs(
    names: List[str],
    threshold: float = 0.7,
    shingle_k: int = 3,
    num_perm: int = 32,
    num_bands: int = 8,
) -> List[tuple]:
    """Near-duplicate NAME candidate pairs within one manufacturer block
    (the SURVEY §7.1 name-canonicalization generalization): MinHash-LSH
    banding over the char-shingle sets of NORMALIZED names (the reference's
    identity normalization, replace(lower(name),' ','') at
    global_node_repository.py:139-158), then an exact shingle-Jaccard
    verification so banding false positives never merge. Returns verified
    (i, j) index pairs into ``names``. O(n) signatures + per-band buckets —
    never an all-pairs pass — so a vendor block with many distinct names
    stays cheap."""
    from ..functions import textnorm

    n = len(names)
    if n < 2:
        return []
    norm = [normalize_name_key(nm) for nm in names]
    a, b = textnorm.make_minhash_params(num_perm)
    sigs = textnorm.minhash_signatures_batch(norm, a, b, shingle_k)
    bands = textnorm.minhash_band_hashes_batch(sigs, num_bands)
    # every (band, band hash) bucket's member pairs, deduped across bands
    member = np.repeat(np.arange(n), bands.shape[1])
    ia, ib = group_pairs([np.tile(np.arange(bands.shape[1]), n), bands.ravel()],
                         member, None, "name blocking", 0)
    cand = set(zip(member[ia].tolist(), member[ib].tolist()))
    shingle_sets = [textnorm.char_shingles(s, shingle_k) for s in norm]
    return [
        (i, j)
        for i, j in cand
        if textnorm.jaccard(shingle_sets[i], shingle_sets[j]) >= threshold
    ]


def _emit_cluster(out: Dict[str, List], mfr, names, cass, min_orders, max_orders,
                  members) -> None:
    """One chemical cluster (row indices ``members`` of one manufacturer)
    -> its NODE row and its deduped N/C PROBE rows. The winner name is the
    first-created member and the canonical CAS the last-created member's,
    ties by (name, cas) — shared by the in-bucket union-find and the
    component path, so both emit identical rows."""
    winner = min(members, key=lambda i: (min_orders[i], names[i], cass[i]))
    last = max(members, key=lambda i: (max_orders[i], names[i], cass[i]))
    entity_id = stable_id("CHEMICAL", mfr, names[winner])
    rows = [("NODE", None, entity_id, names[winner], cass[last] or None, mfr)]
    seen_probes = set()
    for i in members:
        for probe in [probe_hash("N", mfr, names[i])] + (
            [probe_hash("C", mfr, cass[i])] if cass[i] else []
        ):
            if probe not in seen_probes:
                seen_probes.add(probe)
                rows.append(("PROBE", probe, entity_id, None, None, None))
    for row in rows:
        for name, value in zip(MAPPING_SCHEMA.names, row):
            out[name].append(value)


def _mapping_table(out: Dict[str, List]) -> pa.Table:
    return pa.table(
        {name: pa.array(out[name], MAPPING_SCHEMA.field(name).type) for name in MAPPING_SCHEMA.names},
        schema=MAPPING_SCHEMA,
    )


def _union_find_bucket(t: pa.Table, bucket_id: int,
                       name_blocking: bool = False,
                       name_jaccard: float = 0.7) -> pa.Table:
    """One hash bucket of manufacturers; per manufacturer, union-find over the
    distinct (name, cas) members. df columns: manufacturer, name, cas,
    min_order, max_order.

    ``name_blocking=True`` additionally unions members whose NORMALIZED
    names are shingle-Jaccard near-duplicates (LSH-banded candidates, exact
    verify) — "Acme Chemical Co" / "AcmeChemicalCo." collapse into one
    canonical node. Default OFF: exact-equality linking matches the
    reference's SQL identity semantics bit-for-bit."""
    out: Dict[str, List] = {n: [] for n in MAPPING_SCHEMA.names}

    # merge per-batch partials: same (mfr, name, cas) key from different
    # batches folds to global min/max order (vectorized lexsort merge)
    df = _merge_distinct_keys(t.to_pandas())

    # FAST PATH: a cluster of size >= 2 requires a shared name or shared
    # non-empty cas within the manufacturer, so keys involved in neither
    # duplication are singleton clusters — emit them without union-find.
    # With name blocking the premise fails (near-dup names can merge keys
    # that share NO exact value), so every key routes through union-find.
    dup_name = df.duplicated(["manufacturer", "name"], keep=False)
    cas_nonempty = df["cas"] != ""
    dup_cas = cas_nonempty & df.duplicated(["manufacturer", "cas"], keep=False)
    involved = (dup_name | dup_cas) if not name_blocking else pd.Series(
        True, index=df.index
    )
    singles = df[~involved]
    if not singles.empty:
        # block-emit the singleton majority: one NODE + one N-probe per key,
        # plus a C-probe when a CAS exists — column lists built wholesale
        # instead of 6 appends per row
        s_mfr = singles["manufacturer"].to_numpy().tolist()
        s_name = singles["name"].to_numpy().tolist()
        s_cas = singles["cas"].to_numpy().tolist()
        k = len(s_mfr)
        ids = [stable_id("CHEMICAL", m, nm) for m, nm in zip(s_mfr, s_name)]
        out["row_kind"].extend(["NODE"] * k)
        out["probe_key"].extend([None] * k)
        out["entity_id"].extend(ids)
        out["name"].extend(s_name)
        out["cas"].extend([c or None for c in s_cas])
        out["manufacturer"].extend(s_mfr)
        out["row_kind"].extend(["PROBE"] * k)
        out["probe_key"].extend(
            [probe_hash("N", m, nm) for m, nm in zip(s_mfr, s_name)]
        )
        out["entity_id"].extend(ids)
        out["name"].extend([None] * k)
        out["cas"].extend([None] * k)
        out["manufacturer"].extend([None] * k)
        with_cas = [i for i in range(k) if s_cas[i]]
        out["row_kind"].extend(["PROBE"] * len(with_cas))
        out["probe_key"].extend(
            [probe_hash("C", s_mfr[i], s_cas[i]) for i in with_cas]
        )
        out["entity_id"].extend([ids[i] for i in with_cas])
        out["name"].extend([None] * len(with_cas))
        out["cas"].extend([None] * len(with_cas))
        out["manufacturer"].extend([None] * len(with_cas))
    df = df[involved]

    for mfr, g in df.groupby("manufacturer", sort=False):
        names = g["name"].to_numpy()
        cass = g["cas"].to_numpy()
        min_orders = g["min_order"].to_numpy()
        max_orders = g["max_order"].to_numpy()
        n = len(names)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        by_name: Dict[str, int] = {}
        by_cas: Dict[str, int] = {}
        for i in range(n):
            if names[i] in by_name:
                union(by_name[names[i]], i)
            else:
                by_name[names[i]] = i
            if cass[i]:
                if cass[i] in by_cas:
                    union(by_cas[cass[i]], i)
                else:
                    by_cas[cass[i]] = i

        if name_blocking and len(by_name) > 1:
            # optional candidate generator: near-dup normalized names union
            # their exact-name representatives (LSH-banded + verified)
            distinct_names = list(by_name)
            for i, j in _name_candidate_pairs(
                distinct_names, threshold=name_jaccard
            ):
                union(by_name[distinct_names[i]], by_name[distinct_names[j]])

        clusters: Dict[int, List[int]] = {}
        for i in range(n):
            clusters.setdefault(find(i), []).append(i)

        for members in clusters.values():
            _emit_cluster(out, mfr, names, cass, min_orders, max_orders, members)

    return _mapping_table(out)


def _string_rank(values) -> np.ndarray:
    """Ordinal rank of each string under byte-lexicographic order (== Python
    str order for ASCII; non-ASCII raises UnicodeEncodeError for the
    caller's pandas fallback). One C-speed byte-string argsort."""
    s = np.asarray(np.asarray(values, dtype=object), dtype="S")
    order = np.argsort(s)
    rank = np.empty(len(s), np.int64)
    rank[order] = np.arange(len(s))
    return rank


def _distinct_minmax(codes: np.ndarray, rank_min: np.ndarray, rank_max: np.ndarray):
    """Vectorized replacement for a multi-string-column pandas groupby-agg
    (measured 40+s per 200k rows — pandas object-key groupby with object
    min/max is the single slowest kernel in the engine). Grouping key =
    factorized int codes; string ordering = precomputed ordinal ranks, so
    every sort here is int-only. Returns (min_row_idx, max_row_idx): per
    distinct code (ascending), the row index holding the min rank_min and
    the row index holding the max rank_max."""
    idx = np.lexsort((rank_min, codes))
    sc = codes[idx]
    first = np.ones(len(sc), dtype=bool)
    first[1:] = sc[1:] != sc[:-1]
    min_row_idx = idx[first]

    idx2 = np.lexsort((rank_max, codes))
    sc2 = codes[idx2]
    last = np.ones(len(sc2), dtype=bool)
    last[:-1] = sc2[1:] != sc2[:-1]
    max_row_idx = idx2[last]
    return min_row_idx, max_row_idx


def _assert_nonnull_keys(df: pd.DataFrame, cols=("manufacturer", "name", "cas")):
    """Null group-key guard: pd.factorize maps every NaN to the single
    sentinel code -1, so ANY null in the concatenated key would silently
    collapse all null-bearing distinct keys into one merged row. cas is
    ''-filled upstream (chem_link_keys); name/manufacturer are contract
    non-null — a future null-bearing caller must fail loud, not mis-merge."""
    for c in cols:
        if df[c].isna().any():
            raise ValueError(
                f"linking key column {c!r} contains nulls; fill or drop them "
                f"upstream (null keys collapse under factorize)"
            )


def _merge_distinct_keys(df: pd.DataFrame,
                         keys=("manufacturer", "name", "cas")) -> pd.DataFrame:
    """``keys`` distinct with min(min_order)/max(max_order) fold over a
    frame that already has min_order/max_order columns."""
    n = len(df)
    if n == 0:
        return df
    _assert_nonnull_keys(df)
    keys = list(keys)
    try:
        composite = df[keys[0]].astype(str)
        for k in keys[1:]:
            composite = composite + "\x1f" + df[k].astype(str)
        codes = pd.factorize(composite.to_numpy())[0]
        rank_min = _string_rank(df["min_order"].to_numpy())
        rank_max = _string_rank(df["max_order"].to_numpy())
    except (UnicodeEncodeError, SystemError):
        return (
            df.groupby(keys, sort=False)
            .agg(min_order=("min_order", "min"), max_order=("max_order", "max"))
            .reset_index()
        )
    min_idx, max_idx = _distinct_minmax(codes, rank_min, rank_max)
    cols = [df.columns.get_loc(c) for c in keys]
    out = df.iloc[min_idx, cols].copy()
    out["min_order"] = df["min_order"].to_numpy()[min_idx]
    out["max_order"] = df["max_order"].to_numpy()[max_idx]
    return out.reset_index(drop=True)


def _local_distinct_keys(batch: pa.Table) -> pa.Table:
    """Map-side combiner: per-batch (manufacturer, name, cas) distinct with
    min/max order fold — hot entities collapse to one row per batch BEFORE
    the shuffle, so skew never amplifies exchange volume. Vectorized via
    byte-array lexsort (see _distinct_minmax)."""
    for c in ("manufacturer", "name", "cas"):
        if batch.column(c).null_count:
            raise ValueError(
                f"linking key column {c!r} contains nulls; fill or drop them "
                f"upstream (null keys collapse under factorize)"
            )
    comp_arr = pc.binary_join_element_wise(
        batch.column("manufacturer"), batch.column("name"), batch.column("cas"),
        "\x1f",
    )
    order_col = batch.column("order_key")
    try:
        codes = pd.factorize(comp_arr.to_numpy(zero_copy_only=False))[0]
        rank = _string_rank(order_col.to_numpy(zero_copy_only=False))
    except (UnicodeEncodeError, SystemError):
        df = batch.to_pandas()
        agg = (
            df.groupby(["manufacturer", "name", "cas"], sort=False)["order_key"]
            .agg(["min", "max"])
            .reset_index()
        )
        return pa.table(
            {
                "manufacturer": pa.array(agg["manufacturer"], pa.string()),
                "name": pa.array(agg["name"], pa.string()),
                "cas": pa.array(agg["cas"], pa.string()),
                "min_order": pa.array(agg["min"], pa.string()),
                "max_order": pa.array(agg["max"], pa.string()),
            }
        )
    min_idx, max_idx = _distinct_minmax(codes, rank, rank)
    min_pa, max_pa = pa.array(min_idx), pa.array(max_idx)
    return pa.table(
        {
            "manufacturer": batch.column("manufacturer").take(min_pa),
            "name": batch.column("name").take(min_pa),
            "cas": batch.column("cas").take(min_pa),
            "min_order": order_col.take(min_pa),
            "max_order": order_col.take(max_pa),
        }
    )


# gate unit = DISTINCT KEYS per manufacturer. 1M distinct keys is the
# comfort ceiling for shipping one manufacturer into a single union-find
# task (~100MB pandas block); anything larger goes distributed. The gate is
# two-stage: a cheap partial-row count (per-batch distinct, so a key seen in
# k batches counts k times — a guaranteed OVERcount, measured ~5x on hot
# keys) nominates candidates, then a merged k-minimum-values sketch refines
# each candidate to an estimated true distinct count (exact below _KMV_K,
# ~13% relative error above), so duplicate-heavy-but-small manufacturers are
# not needlessly routed to the distributed path.
SKEW_KEY_THRESHOLD = 1_000_000

_KMV_K = 64


def _kmv_estimate(hashes: "np.ndarray", k: int = _KMV_K) -> float:
    """Distinct-count estimate from the k minimum values of a uniform 64-bit
    hash (the KMV / bottom-k sketch): exact when fewer than k distinct
    hashes were observed, else (k-1) * 2^64 / h_(k). Merging per-batch
    bottom-k sets preserves the global bottom-k, so the estimate is
    shuffle-order independent."""
    u = np.unique(np.asarray(hashes, dtype=np.uint64))
    if len(u) < k:
        return float(len(u))
    return (k - 1) * (2.0 ** 64) / (float(u[k - 1]) + 1.0)


def _refine_hot_manufacturers(partial_ds, candidates, threshold: int,
                              n_buckets: int = 8, k: int = _KMV_K):
    """Second gate stage: for candidate manufacturers (partial-row count
    exceeded ``threshold``), estimate the TRUE distinct (name, cas) key
    count with a merged bottom-k hash sketch and keep only those whose
    estimate still exceeds ``threshold``. Cost: one pruned re-scan of the
    materialized partial table emitting <= k sketch rows per (batch,
    candidate) + one dimension-sized bucket apply — never a shuffle of the
    candidate's full key set."""
    from .shuffle import bucket_group_apply

    cand_set = pa.array(sorted(candidates), pa.string())

    def sketch_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("manufacturer"), value_set=cand_set))
        if t.num_rows == 0:
            return pa.table(
                {"manufacturer": pa.array([], pa.string()),
                 "h": pa.array([], pa.uint64())}
            )
        key = pc.binary_join_element_wise(t.column("name"), t.column("cas"), "\x1f")
        df = pd.DataFrame(
            {
                "manufacturer": t.column("manufacturer").to_numpy(zero_copy_only=False),
                "h": pd.util.hash_pandas_object(key.to_pandas(), index=False).to_numpy(),
            }
        )
        kept = df.sort_values("h", kind="mergesort").groupby(
            "manufacturer", sort=False
        ).head(k)
        return pa.table(
            {
                "manufacturer": pa.array(kept["manufacturer"].to_numpy(), pa.string()),
                "h": pa.array(kept["h"].to_numpy(), pa.uint64()),
            }
        )

    def estimate_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        est = df.groupby("manufacturer", sort=False)["h"].apply(
            lambda s: _kmv_estimate(s.to_numpy(), k)
        )
        return pa.table(
            {
                "manufacturer": pa.array(est.index.to_numpy(), pa.string()),
                "est": pa.array(est.to_numpy(), pa.float64()),
            }
        )

    sketches = partial_ds.map_batches(sketch_rows, batch_format="pyarrow")
    estimates = bucket_group_apply(
        sketches, ["manufacturer"], estimate_bucket, n_buckets
    )
    return [
        r["manufacturer"] for r in estimates.iter_rows() if r["est"] > threshold
    ]


def build_chemical_mapping(chem_mentions_ds, n_buckets: int = 64,
                           skew_threshold: int = SKEW_KEY_THRESHOLD,
                           name_blocking: bool = False,
                           name_jaccard: float = 0.7):
    """chem mention rows -> union-find mapping table (MAPPING_SCHEMA).

    Shuffle profile: map-side combine to per-batch distinct keys, then ONE
    bucket shuffle keyed on manufacturer; cross-batch duplicates merge
    in-bucket before union-find.

    HOT-KEY HANDLING: the manufacturer block is the union-find unit, so a
    pathological manufacturer owning millions of distinct chemicals would
    ship its whole key set into one task. Manufacturers whose distinct-key
    row count exceeds ``skew_threshold`` (an upper bound — per-batch partials
    may double-count a key) are routed to a fully distributed
    connected-component path (_component_mapping: name<->cas edges +
    min-label propagation + per-component reduce) whose largest task is one
    COMPONENT, not one manufacturer. Both paths emit identical NODE/PROBE
    rows for the same input. Pass ``skew_threshold=None`` to disable the
    gate (single in-task path).

    ``name_blocking=True`` adds MinHash-LSH near-duplicate NAME
    canonicalization inside each manufacturer block (_name_candidate_pairs):
    alias variants like "Acme Chemical Co" / "AcmeChemicalCo." collapse to
    one canonical node. Default OFF — exact-equality linking matches the
    reference's SQL identity semantics. The distributed hot-key path links
    exactly (its merge relation is the exact name<->cas bipartite edge
    list); a hot manufacturer under name_blocking logs a warning."""
    import functools

    bucket_fn = (
        functools.partial(
            _union_find_bucket, name_blocking=True, name_jaccard=name_jaccard
        )
        if name_blocking
        else _union_find_bucket
    )
    keys = chem_mentions_ds.map_batches(chem_link_keys, batch_format="pyarrow")
    partial = keys.map_batches(_local_distinct_keys, batch_format="pyarrow")
    if skew_threshold is None:
        return bucket_group_apply(partial, ["manufacturer"], bucket_fn, n_buckets)

    # distinct-key vocabulary: bounded by entity count, not mention count —
    # safe to materialize (spills if large); consumed by the count gate and
    # by whichever path(s) run
    partial = partial.materialize()

    # no manufacturer holds more keys than the whole table, so a table of
    # at most skew_threshold rows (block metadata: no task) nominates none
    if partial.count() <= skew_threshold:
        return bucket_group_apply(partial, ["manufacturer"], bucket_fn, n_buckets)
    # gate counts: per-batch partials summed in a TINY shuffle — never a
    # groupby over the full key table
    counts = group_aggregate(partial, "manufacturer", {"n": ("count", None)})
    candidates = [
        r["manufacturer"] for r in counts.iter_rows() if r["n"] > skew_threshold
    ]
    if not candidates:
        return bucket_group_apply(partial, ["manufacturer"], bucket_fn, n_buckets)
    # candidates are nominated by an OVERcount; refine with a bottom-k
    # distinct sketch so duplicate-heavy small manufacturers stay in-task
    hot = _refine_hot_manufacturers(partial, candidates, skew_threshold)
    if not hot:
        return bucket_group_apply(partial, ["manufacturer"], bucket_fn, n_buckets)

    if name_blocking:
        import logging

        logging.getLogger(__name__).warning(
            "name_blocking is not applied to %d oversized manufacturer "
            "block(s) routed to the distributed component path; those link "
            "on exact name/CAS equality only", len(hot),
        )
    hot_set = pa.array(sorted(hot), pa.string())

    def split(batch: pa.Table, keep_hot: bool) -> pa.Table:
        mask = pc.is_in(batch.column("manufacturer"), value_set=hot_set)
        return batch.filter(mask if keep_hot else pc.invert(mask))

    cold = partial.map_batches(split, fn_kwargs={"keep_hot": False}, batch_format="pyarrow")
    hot_rows = partial.map_batches(split, fn_kwargs={"keep_hot": True}, batch_format="pyarrow")
    cold_mapping = bucket_group_apply(cold, ["manufacturer"], bucket_fn, n_buckets)
    return cold_mapping.union(_component_mapping(hot_rows, n_buckets))


def _component_mapping(rows_ds, n_buckets: int = 64):
    """Distributed equivalent of _union_find_bucket for oversized
    manufacturer blocks: the merge relation (shared exact name OR shared
    non-empty CAS within a manufacturer) becomes a bipartite edge list
    name_node <-> cas_node (node ids = the probe keys themselves), connected
    components come from min-label propagation (stages/dedup.py), and the
    NODE/PROBE emission reduces per COMPONENT — components are entity-sized,
    so no task ever holds a whole manufacturer."""
    from .dedup import propagate_min_labels
    from .shuffle import lookup_join

    def edge_rows(batch: pa.Table) -> pa.Table:
        mfr = batch.column("manufacturer").to_pylist()
        name = batch.column("name").to_pylist()
        cas = batch.column("cas").to_pylist()
        a, b = [], []
        for m, nm, c in zip(mfr, name, cas):
            if c:
                a.append(probe_hash("N", m, nm))
                b.append(probe_hash("C", m, c))
        return pa.table(
            {"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())}
        )

    edges = rows_ds.map_batches(edge_rows, batch_format="pyarrow")
    labels = propagate_min_labels(edges, n_buckets)

    def add_name_node(batch: pa.Table) -> pa.Table:
        mfr = batch.column("manufacturer").to_pylist()
        name = batch.column("name").to_pylist()
        nodes = [probe_hash("N", m, nm) for m, nm in zip(mfr, name)]
        return batch.append_column("name_node", pa.array(nodes, pa.int64()))

    keyed = rows_ds.map_batches(add_name_node, batch_format="pyarrow")
    joined = lookup_join(
        keyed,
        labels.rename_columns({"node": "name_node", "label": "comp"}),
        key="name_node",
        how="left",
        n_buckets=n_buckets,
    )

    def fill_comp(batch: pa.Table) -> pa.Table:
        comp = pc.coalesce(
            pc.cast(batch.column("comp"), pa.int64()), batch.column("name_node")
        )
        idx = batch.schema.get_field_index("comp")
        return batch.set_column(idx, "comp", comp)

    labeled = joined.map_batches(fill_comp, batch_format="pyarrow")

    def comp_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        out: Dict[str, List] = {n: [] for n in MAPPING_SCHEMA.names}
        # cross-batch duplicates of one (mfr, name, cas) key merge here, same
        # as _union_find_bucket's in-bucket pre-merge
        df = _merge_distinct_keys(t.to_pandas(), ["comp", "manufacturer", "name", "cas"])
        for _, g in df.groupby("comp", sort=False):
            names = g["name"].to_numpy()
            mfr = g["manufacturer"].iloc[0]  # node ids embed the mfr: 1 per comp
            _emit_cluster(out, mfr, names, g["cas"].to_numpy(), g["min_order"].to_numpy(),
                          g["max_order"].to_numpy(), range(len(names)))
        return _mapping_table(out)

    slim = labeled.select_columns(
        ["comp", "manufacturer", "name", "cas", "min_order", "max_order"]
    )
    return bucket_group_apply(slim, ["comp"], comp_bucket, n_buckets)


def add_probe_and_material_keys(batch: pa.Table) -> pa.Table:
    """Per chem-mention row: the 2-tier probe key (CAS first, else name) plus
    the deterministic material/manufacturer entity ids (computable without a
    join: material id = hash(MATERIAL, norm_name, manufacturer) per J1;
    manufacturer id = hash(MANUFACTURER, name) per J3)."""
    mfr = batch.column("manufacturer").to_pylist()
    name = batch.column("name").to_pylist()
    cas = batch.column("cas").to_pylist()
    mat = batch.column("material_name").to_pylist()
    n = batch.num_rows
    probe = [
        probe_hash("C", mfr[i], cas[i]) if cas[i] else probe_hash("N", mfr[i], name[i])
        for i in range(n)
    ]
    mat_ids = [stable_id("MATERIAL", normalize_name_key(mat[i]), mfr[i]) for i in range(n)]
    mfr_ids = [stable_id("MANUFACTURER", mfr[i]) for i in range(n)]
    t = batch.append_column("probe_key", pa.array(probe, pa.int64()))
    t = t.append_column("material_id", pa.array(mat_ids, pa.string()))
    t = t.append_column("manufacturer_id", pa.array(mfr_ids, pa.string()))
    # processing order for the fold + edge last-wins = (conv, A1 position)
    return t.append_column("order_key", order_key_array(batch, "pos"))


def link_chem_mentions(chem_mentions_ds, mapping_ds, num_partitions: int = 16):
    """Distributed hash join: mention probe_key -> canonical entity_id.
    Task-based bucket join (see shuffle.bucket_hash_join) — no per-join actor
    pool; probe keys are pre-hashed uniform so no salting needed."""
    from .shuffle import lookup_join

    probes = chem_mentions_ds.map_batches(add_probe_and_material_keys, batch_format="pyarrow")

    # one Arrow fn with a declared schema instead of Filter->Project: the
    # split chain emits schema-divergent bundles (projected vs source) that
    # trip the executor's RefBundle schema check — the bench-log hygiene
    # rule every bucket kernel follows
    _PROBE_MAP_SCHEMA = pa.schema([("probe_key", pa.int64()), ("entity_id", pa.string())])

    def _probe_rows(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t.column("row_kind"), "PROBE"))
        return pa.table(
            {"probe_key": kept.column("probe_key"), "entity_id": kept.column("entity_id")},
            schema=_PROBE_MAP_SCHEMA,
        )

    probe_map = mapping_ds.map_batches(_probe_rows, batch_format="pyarrow")
    # probe keys are unique by construction: union-find merges any shared
    # (mfr, name/cas) key into ONE component, and emission dedups within a
    # component (seen_probes above) — so the driver-side uniqueness probe
    # (a serial O(right) term measured at ~flat 8-vs-32 cost in the linked
    # stage) is skipped; a violation fails loudly at probe time
    return lookup_join(probes, probe_map, key="probe_key",
                       n_buckets=num_partitions, unique_right=True)


def _fold_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
    """Per-entity ordered fold of (tag, source) mention streams into the
    final (status, source) — fold_chemical_mentions over (conv, turn) order.
    Verification-scale reference path (ships every mention of an entity into
    one group); the production path is the associative segment composition
    in fold_chemical_states."""
    df = t.to_pandas().sort_values("order_key", kind="mergesort")
    ids, statuses, sources, counts, coerced = [], [], [], [], []
    for entity_id, g in df.groupby("entity_id", sort=False):
        status, source, n_coerced = fold_chemical_mentions_total(
            list(zip(g["tag"].to_numpy(), g["source"].to_numpy()))
        )
        ids.append(entity_id)
        statuses.append(status)
        sources.append(source)
        counts.append(len(g))
        coerced.append(n_coerced)
    return pa.table(
        {
            "entity_id": pa.array(ids, pa.string()),
            "pfas_status": pa.array(statuses, pa.string()),
            "pfas_information_source": pa.array(sources, pa.string()),
            "n_mentions": pa.array(counts, pa.int64()),
            "n_coerced": pa.array(coerced, pa.int64()),
        },
        schema=CHEM_NODE_STATE_SCHEMA,
    )


def fold_chemical_states_simple(linked_ds, n_buckets: int = 64):
    """Reference shape: one bucket shuffle, whole entity history per group."""
    slim = linked_ds.select_columns(["entity_id", "order_key", "tag", "source"])
    return bucket_group_apply(slim, ["entity_id"], _fold_bucket, n_buckets)


# ---------------------------------------------- associative segment fold
#
# The (status, source) fold is order-dependent but its state space is FINITE
# (3 statuses x a small source alphabet), so any contiguous mention segment
# composes into one transfer function state -> (state', n_coerced) — a
# monoid. The production fold therefore:
#   1. range-sorts mentions by (entity_id, order_key) — Ray's sort range-
#      partitions, so a hot entity SPANS blocks instead of landing on one
#      task;
#   2. per sorted batch, collapses each entity run into ONE segment row
#      (lead result + dense transfer vectors over the state alphabet);
#   3. groups the per-entity segment rows (tiny: one per batch the entity
#      touches) and composes them in min_order order.
# Exchange volume for the final group is O(entities x segments), never
# O(mentions-of-hottest-entity).

_CANON_SOURCES = ("OPENAI", "MANUAL", "OECD", "NONE", "VAI")


def _build_fold_tables(input_sources: List[str]):
    """Dense transfer tables over the dynamic alphabet.

    States: STATUSES x (canonical sources + any observed non-canonical ones
    — the fold's total extension can hold an arbitrary input source as
    existing state, so observed sources are part of the closure).
    Mention types: STATUSES x observed input sources."""
    from ..functions.decision_tables import (
        STATUSES,
        TransitionError,
        final_source,
        final_status,
    )

    state_sources = list(_CANON_SOURCES) + sorted(
        set(input_sources) - set(_CANON_SOURCES)
    )
    in_sources = sorted(set(input_sources))
    states = [(st, src) for st in STATUSES for src in state_sources]
    mtypes = [(st, src) for st in STATUSES for src in in_sources]
    state_idx = {s: i for i, s in enumerate(states)}
    mtype_idx = {m: i for i, m in enumerate(mtypes)}

    n_s, n_m = len(states), len(mtypes)
    step = np.zeros((n_s, n_m), np.int16)
    coer = np.zeros((n_s, n_m), np.int8)
    for si, (est, esrc) in enumerate(states):
        for mi, (nst, nsrc) in enumerate(mtypes):
            try:
                src = final_source(esrc, nsrc)
                status = final_status(esrc, nsrc, est, nst)
                step[si, mi] = state_idx[(status, src)]
            except TransitionError:
                step[si, mi] = si
                coer[si, mi] = 1
    # a mention type as the FIRST mention initializes state directly
    init = np.array(
        [state_idx[(st, src)] for st, src in mtypes], np.int16
    )
    return states, state_idx, mtype_idx, step, coer, init


SEGMENT_SCHEMA_NAMES = (
    "entity_id", "min_order", "n_mentions", "lead_state", "lead_coerced",
    "vec_state", "vec_coerced",
)

SEGMENT_SCHEMA = pa.schema(
    [
        ("entity_id", pa.binary()),  # packed stable id (hex_to_bin)
        ("min_order", pa.string()),
        ("n_mentions", pa.int64()),
        ("lead_state", pa.int16()),
        ("lead_coerced", pa.int64()),
        ("vec_state", pa.list_(pa.int16())),
        ("vec_coerced", pa.list_(pa.int64())),
    ]
)


def _encode_mentions_fn(mtype_idx):
    """(tag, source) string pair -> dense int16 mention-type code, applied
    BEFORE the range sort so the sort exchanges (entity_id, order_key,
    int16) instead of two extra string columns — the sort is chem_status's
    dominant shuffle, so its payload width is the lever. The per-row work is
    one dictionary_encode; only the FEW DISTINCT pairs go through Python."""
    from ..functions.decision_tables import pfas_status_from_tag

    def encode(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            t.column("tag"), t.column("source"), "\x1f"
        )
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        enc = pc.dictionary_encode(key)
        lut = np.empty(len(enc.dictionary), np.int16)
        for i, pair in enumerate(enc.dictionary.to_pylist()):
            tag, _, src = pair.partition("\x1f")
            lut[i] = mtype_idx[(pfas_status_from_tag(tag), src)]
        mt = lut[enc.indices.to_numpy(zero_copy_only=False)]
        # entity_id rides the range sort AND the segment shuffle as 16-byte
        # binary when it is a stable-id column (every engine pipeline; the
        # id is the widest field of both exchanges); arbitrary string ids —
        # a public-API possibility — pass through unpacked. Hex is minted
        # back once, in compose_bucket's output.
        ent = try_hex_to_bin(t.column("entity_id"))
        if ent is None:
            ent = t.column("entity_id")
        return pa.table(
            {
                "entity_id": ent,
                "order_key": t.column("order_key"),
                "mtype": pa.array(mt, pa.int16()),
            }
        )

    return encode


def _segment_summary_fn(fold_tables):
    states, state_idx, mtype_idx, step, coer, init = fold_tables
    n_s = len(states)

    def summarize(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            # entity_id is binary (packed stable ids) or string (arbitrary
            # ids) — the empty block must match the populated blocks' type
            return SEGMENT_SCHEMA.set(
                0, pa.field("entity_id", t.schema.field("entity_id").type)
            ).empty_table()
        ent = t.column("entity_id").combine_chunks()
        mt = t.column("mtype").to_numpy(zero_copy_only=False).astype(np.int64)
        diff = pc.not_equal(ent.slice(0, n - 1), ent.slice(1)).to_numpy(
            zero_copy_only=False
        )
        starts = np.r_[0, np.flatnonzero(diff) + 1]
        lens = np.diff(np.r_[starts, n])
        n_runs = len(starts)

        # lead scan, LOCKSTEP-VECTORIZED across runs: advance position j of
        # every still-active run with one gather per step instead of a
        # per-mention Python loop (the round-3 hot spot). Runs are processed
        # longest-first so the active set is a shrinking prefix; total
        # gather work is exactly sum(lens) - n_runs.
        order = np.argsort(-lens, kind="stable")
        slens = lens[order]
        sstarts = starts[order]
        slead = init[mt[sstarts]].astype(np.int64)
        slead_c = np.zeros(n_runs, np.int64)
        for j in range(1, int(slens[0])):
            cnt = int(np.searchsorted(-slens, -j, side="left"))
            if cnt == 0:
                break
            m = mt[sstarts[:cnt] + j]
            lc = slead[:cnt]
            slead_c[:cnt] += coer[lc, m]
            slead[:cnt] = step[lc, m]
        lead = np.empty(n_runs, np.int64)
        lead_c = np.zeros(n_runs, np.int64)
        lead[order] = slead
        lead_c[order] = slead_c

        # transfer vectors are only consulted for NON-FIRST segments of a
        # block-spanning entity; an entity can span blocks only if its run
        # touches this batch's edge, so interior runs skip the vector build
        # (and its list-serialization cost) entirely
        vec_state = [None] * n_runs
        vec_coerced = [None] * n_runs
        for bi in {0, n_runs - 1}:
            lo, hi = int(starts[bi]), int(starts[bi] + lens[bi])
            v = np.arange(n_s, dtype=np.int64)
            c = np.zeros(n_s, np.int64)
            for m in mt[lo:hi]:
                c += coer[v, m]
                v = step[v, m]
            vec_state[bi] = v.tolist()
            vec_coerced[bi] = c.tolist()

        starts_idx = pa.array(starts, pa.int64())
        return pa.table(
            {
                "entity_id": ent.take(starts_idx),
                "min_order": t.column("order_key").combine_chunks().take(starts_idx),
                "n_mentions": pa.array(lens, pa.int64()),
                "lead_state": pa.array(lead.astype(np.int16), pa.int16()),
                "lead_coerced": pa.array(lead_c, pa.int64()),
                "vec_state": pa.array(vec_state, pa.list_(pa.int16())),
                "vec_coerced": pa.array(vec_coerced, pa.list_(pa.int64())),
            }
        )

    return summarize


def fold_chemical_states(linked_ds, n_buckets: int = 64):
    """linked mention rows -> per-entity folded (status, source), via the
    associative segment composition (see block comment above). Output is
    identical to fold_chemical_states_simple (pinned by
    tests/test_fold_associative.py and the e2e-exact oracle suite)."""
    slim = linked_ds.select_columns(["entity_id", "order_key", "tag", "source"])
    # alphabet discovery: per-batch unique partials (≤ |alphabet| rows per
    # batch) collected by the driver in ONE execution, with no exchange
    src_partials = slim.select_columns(["source"]).map_batches(
        lambda t: pa.table({"source": t.column("source").unique()}),
        batch_format="pyarrow",
    )
    input_sources = sorted({r["source"] for r in src_partials.iter_rows()} - {None})
    fold_tables = _build_fold_tables(input_sources)
    states = fold_tables[0]
    mtype_idx = fold_tables[2]

    # encode (tag, source) -> int16 BEFORE the sort (narrow exchange), then
    # whole-block batches (batch_size=None) so entities split across the
    # fewest possible segment boundaries
    encoded = slim.map_batches(_encode_mentions_fn(mtype_idx), batch_format="pyarrow")
    segs = encoded.sort(["entity_id", "order_key"]).map_batches(
        _segment_summary_fn(fold_tables), batch_format="pyarrow", batch_size=None
    )

    status_by_state = np.array([st for st, _ in states], dtype=object)
    source_by_state = np.array([src for _, src in states], dtype=object)

    def compose_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        df = t.to_pandas()
        # FAST PATH: almost every entity fits inside one sorted block, so it
        # has exactly ONE segment — its answer IS the lead result, decoded
        # vectorized. Only block-spanning entities need composition.
        multi_mask = df["entity_id"].duplicated(keep=False).to_numpy()
        singles = df[~multi_mask]
        ids = singles["entity_id"].to_numpy().tolist()
        lead_states = singles["lead_state"].to_numpy()
        statuses = status_by_state[lead_states].tolist()
        sources = source_by_state[lead_states].tolist()
        counts = singles["n_mentions"].to_numpy().tolist()
        coerced = singles["lead_coerced"].to_numpy().tolist()

        multi = df[multi_mask]
        if len(multi):
            multi = multi.sort_values(["entity_id", "min_order"], kind="mergesort")
            for entity_id, g in multi.groupby("entity_id", sort=False):
                lead = g["lead_state"].to_numpy()
                lead_c = g["lead_coerced"].to_numpy()
                vs = g["vec_state"].to_numpy()
                vc = g["vec_coerced"].to_numpy()
                state = int(lead[0])
                n_coerced = int(lead_c[0])
                for k in range(1, len(g)):
                    n_coerced += int(vc[k][state])
                    state = int(vs[k][state])
                status, source = states[state]
                ids.append(entity_id)
                statuses.append(status)
                sources.append(source)
                counts.append(int(g["n_mentions"].sum()))
                coerced.append(n_coerced)
        if ids and isinstance(ids[0], (bytes, bytearray)):
            ent_out = bin_to_hex(pa.array(ids, pa.binary()))
        else:
            ent_out = pa.array(ids, pa.string())
        return pa.table(
            {
                "entity_id": ent_out,
                "pfas_status": pa.array(statuses, pa.string()),
                "pfas_information_source": pa.array(sources, pa.string()),
                "n_mentions": pa.array(counts, pa.int64()),
                "n_coerced": pa.array(coerced, pa.int64()),
            },
            schema=CHEM_NODE_STATE_SCHEMA,
        )

    return bucket_group_apply(segs, ["entity_id"], compose_bucket, n_buckets)
