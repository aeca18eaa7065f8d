"""Graph materialization + status rollup.

Produces the FIXTURES.md F2 golden tables:
  nodes (entity_id, name, node_type, cas_number, pfas_status,
         pfas_information_source)
  edges (src, dst, pred, weight) — exact-dedup on (src, dst, pred),
         last-weight-wins (reference J4 edge upsert,
         artifact_ingestor_service.py:1086-1106)
  lineage (entity_id, conv_id, turn_idx, extractor, partition_id)

Status rollup (A2/A3/A5): the reference recomputes every parent material's
PFAS resolution from its child chemicals after each write
(update_the_material_based_on_chemical_status_and_source,
artifact_ingestor_service.py:1259-1282, propagation loop :1131-1144). Here it
is one grouped aggregate: because parent_pfas_resolution depends only on the
MULTISET of child (status, source) pairs, we pre-count per
(parent, status, source) — an associative, skew-proof reduction — and resolve
each parent from its <=15 count rows. The reference hierarchy is depth-2
(MATERIAL -> CHEMICAL) so one pass reaches the fixed point; `rollup_status`
exposes the single pass and callers may iterate for deeper graphs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.decision_tables import (
    NODE_CHEMICAL,
    NODE_MANUFACTURER,
    NODE_MATERIAL,
    SRC_NONE,
    parent_pfas_resolution,
)
from ..functions.arrowutil import bin_to_hex, hex_to_bin, rename_agg, try_hex_to_bin
from ..functions.pairs import group_pairs
from ..functions.textnorm import stable_id
from .linking import order_key_array
from .shuffle import bucket_group_apply, group_aggregate, stable_bucket_array

NODES_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("name", pa.string()),
        ("node_type", pa.string()),
        ("cas_number", pa.string()),
        ("pfas_status", pa.string()),
        ("pfas_information_source", pa.string()),
    ]
)

# the reference's separate `manufacturer` table (models/manufacturer.py:6-18)
# — geo attributes live HERE, not on nodes (GlobalNode carries none)
MANUFACTURERS_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("name", pa.string()),
        ("address", pa.string()),
        ("postal_code", pa.string()),
        ("city", pa.string()),
        ("state", pa.string()),
        ("country", pa.string()),
        ("region", pa.string()),
    ]
)

EDGES_SCHEMA = pa.schema(
    [
        ("src", pa.string()),
        ("dst", pa.string()),
        ("pred", pa.string()),
        ("weight", pa.string()),
    ]
)

LINEAGE_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("extractor", pa.string()),
        ("partition_id", pa.int32()),
    ]
)


# ------------------------------------------------------------------ materials

def material_key_rows(batch: pa.Table) -> pa.Table:
    """records -> (material_id, name, manufacturer, order_key) candidate rows."""
    from ..functions.decision_tables import normalize_name_key

    mat = batch.column("material_name").to_pylist()
    mfr = batch.column("manufacturer").to_pylist()
    ids = [
        stable_id("MATERIAL", normalize_name_key(m), f) for m, f in zip(mat, mfr)
    ]
    return pa.table(
        {
            "material_id": pa.array(ids, pa.string()),
            "name": batch.column("material_name"),
            "manufacturer": batch.column("manufacturer"),
            "geo": batch.column("geo"),
            "order_key": order_key_array(batch),
        }
    )


def _material_pick_first(t: pa.Table, bucket_id: int) -> pa.Table:
    """Per material_id keep the display name of the FIRST mention (the
    deterministic stand-in for the reference's first-created-node-wins) —
    PLUS one MFR row per distinct manufacturer in the bucket. The bucket
    key is manufacturer, so manufacturer-distinct is exact per bucket with
    no cross-bucket duplicates: one shuffle yields both dimension tables
    (folding away the separate distinct_manufacturers stage — r2's third
    full-table groupby in the nodes build)."""
    from .extract import GEO_TYPE

    df = t.to_pandas().sort_values("order_key", kind="mergesort")
    firsts = df.drop_duplicates("material_id", keep="first")
    mat_ids = firsts["material_id"].tolist()
    mat_names = firsts["name"].tolist()
    mat_mfrs = firsts["manufacturer"].tolist()
    # MFR row = the FIRST record per manufacturer (order_key-sorted), whose
    # geo the created Manufacturer keeps forever — later records never
    # back-fill (save_manufacturer only creates, never updates:
    # artifact_ingestor_service.py:992-1008)
    mfr_firsts = df.drop_duplicates("manufacturer", keep="first")
    mfrs = mfr_firsts["manufacturer"].tolist()
    mfr_geos = [g if isinstance(g, dict) else None for g in mfr_firsts["geo"]]
    n_mat, n_mfr = len(mat_ids), len(mfrs)
    return pa.table(
        {
            "row_kind": pa.array(["MAT"] * n_mat + ["MFR"] * n_mfr, pa.string()),
            "material_id": pa.array(mat_ids + [None] * n_mfr, pa.string()),
            "name": pa.array(mat_names + [None] * n_mfr, pa.string()),
            "manufacturer": pa.array(mat_mfrs + mfrs, pa.string()),
            "geo": pa.array([None] * n_mat + mfr_geos, GEO_TYPE),
        }
    )


def build_material_identities(records_ds, n_buckets: int = 64):
    """records -> one row per canonical material (row_kind MAT: material_id,
    name, manufacturer) plus one row per distinct manufacturer (row_kind
    MFR). ONE bucket shuffle keyed on MANUFACTURER — every material's rows
    still co-locate (material_id embeds the manufacturer), and the key
    doubles as the exact manufacturer-distinct partition. Per-key
    multiplicity is the J1-deduped material count per vendor (bounded)."""
    rows = records_ds.map_batches(material_key_rows, batch_format="pyarrow")
    return bucket_group_apply(rows, ["manufacturer"], _material_pick_first, n_buckets)


def manufacturer_table(mfr_rows_ds):
    """row_kind=MFR identity rows -> the reference's `manufacturer` table
    (MANUFACTURERS_SCHEMA): stable id from the exact name (link-or-create key,
    manufacturer_repository.py find_by_name) + the creating record's geo
    attributes unpacked from the struct (nulls when that record carried
    none)."""
    from .extract import GEO_FIELDS

    def to_rows(t: pa.Table) -> pa.Table:
        names = t.column("manufacturer").to_pylist()
        ids = [stable_id("MANUFACTURER", f) for f in names]
        geo = t.column("geo")
        if isinstance(geo, pa.ChunkedArray):
            geo = geo.combine_chunks()
        cols = {
            "entity_id": pa.array(ids, pa.string()),
            "name": pa.array(names, pa.string()),
        }
        for f in GEO_FIELDS:
            # struct_field on a null struct row yields null — first-wins nulls
            # survive as nulls
            cols[f] = pc.struct_field(geo, f) if len(geo) else pa.nulls(0, pa.string())
        return pa.table(cols, schema=MANUFACTURERS_SCHEMA)

    return mfr_rows_ds.map_batches(to_rows, batch_format="pyarrow")


# ------------------------------------------------------------------ edges

# edge-exchange packing (round-5 scaling work): candidates cross the J4
# shuffle with src/dst as 16-byte binary (arrowutil.hex_to_bin — the hex
# string form is minted back only in the bucket finalizer) and pred as an
# int8 code; the two id columns were the dominant payload of the edges
# exchange (72.7 of 72.7 MB at the 120k-conv instrument), so this cuts the
# stage's shuffled bytes ~40% with zero semantic change.
_PRED_NAMES = pa.array(["CONTAINS", "MADE_BY"], pa.string())
_PRED_CONTAINS, _PRED_MADE_BY = 0, 1


def contains_edge_rows(linked_batch: pa.Table) -> pa.Table:
    """linked chem mentions -> CONTAINS edge candidates (packed exchange
    layout: binary ids + int8 pred)."""
    n = linked_batch.num_rows
    return pa.table(
        {
            "src": hex_to_bin(linked_batch.column("material_id")),
            "dst": hex_to_bin(linked_batch.column("entity_id")),
            "pred": pa.array(np.full(n, _PRED_CONTAINS, np.int8), pa.int8()),
            "weight": pc.cast(linked_batch.column("composition"), pa.string()),
            "order_key": linked_batch.column("order_key"),
        }
    )


def _last_per_edge_key(t: pa.Table) -> pa.Table:
    """Vectorized J4 pick-last: per (src, dst, pred) keep the row with the
    max order_key. One Arrow kernel chain — element-wise key join, one
    sort_indices, adjacent-compare run boundaries — replacing the pandas
    sort_values + drop_duplicates pair that object-converted every string
    column per batch (the map-side combiner runs over the RAW candidate
    volume, so this is the hot path of the edges stage)."""
    n = t.num_rows
    if n == 0:
        return t
    idx = pc.sort_indices(
        t,
        sort_keys=[
            ("src", "ascending"),
            ("dst", "ascending"),
            ("pred", "ascending"),
            ("order_key", "ascending"),
        ],
    )
    s = t.take(idx)

    def _neq(name: str) -> np.ndarray:
        c = s.column(name).combine_chunks()
        return pc.not_equal(c.slice(0, n - 1), c.slice(1)).to_numpy(
            zero_copy_only=False
        )

    last_of_run = np.r_[_neq("src") | _neq("dst") | _neq("pred"), True]
    return s.filter(pa.array(last_of_run))


def edge_pick_last(t: pa.Table, bucket_id: int) -> pa.Table:
    """J4 upsert of BOTH edge families, one bucket of a (src, dst)
    shuffle over ``edge_candidates``: per (src, dst, pred) the
    LAST-processed weight wins (artifact_ingestor_service.py:1086-1106).
    Per-key multiplicity is bounded by the J1 guard, so no
    pre-aggregation is needed. The body stays in Arrow: the bucket never
    converts to pandas object dtype."""
    lasts = _last_per_edge_key(t)
    return pa.table(
        {
            "src": bin_to_hex(lasts.column("src")),
            "dst": bin_to_hex(lasts.column("dst")),
            "pred": _PRED_NAMES.take(lasts.column("pred").combine_chunks()),
            "weight": pc.cast(lasts.column("weight"), pa.string()),
        },
        schema=EDGES_SCHEMA,
    )


def made_by_edge_rows(records_batch: pa.Table) -> pa.Table:
    """records -> MADE_BY edge candidates, same 5-column layout as
    contains_edge_rows so both families union into ONE shuffle. order_key is
    "" — all duplicates of a MADE_BY key are identical rows, so the J4
    pick-last degenerates to distinct and needs no real order."""
    from ..functions.decision_tables import normalize_name_key
    from ..functions.textnorm import stable_id_bytes

    mat = records_batch.column("material_name").to_pylist()
    mfr = records_batch.column("manufacturer").to_pylist()
    src = [stable_id_bytes("MATERIAL", normalize_name_key(m), f) for m, f in zip(mat, mfr)]
    dst = [stable_id_bytes("MANUFACTURER", f) for f in mfr]
    n = records_batch.num_rows
    return pa.table(
        {
            "src": pa.array(src, pa.binary()),
            "dst": pa.array(dst, pa.binary()),
            "pred": pa.array(np.full(n, _PRED_MADE_BY, np.int8), pa.int8()),
            "weight": pa.nulls(n, pa.string()),
            "order_key": pa.array([""] * n, pa.string()),
        }
    )


def _edge_local_last(t: pa.Table) -> pa.Table:
    """Map-side J4 combiner: within a batch, keep only the max-order_key
    row per (src, dst, pred) BEFORE the shuffle. Safe because order_key
    (conv_id|pos) is unique per duplicate set — one linked row per
    (record, entity) — so the bucket-side pick-last over batch winners
    selects the same global winner; the exchange then carries one row per
    (key, batch) instead of one per raw candidate. Arrow-kernel path —
    no pandas object conversion on the raw candidate volume."""
    out = _last_per_edge_key(t)
    return out.select(["src", "dst", "pred", "weight", "order_key"])


def edge_candidates(linked_ds, records_ds):
    """CONTAINS (from linked chem mentions) ∪ MADE_BY (from records)
    candidates — one dataset so the J4 dedup pays ONE all-to-all instead of
    two. The key namespaces are disjoint (dst is a chemical id vs a
    manufacturer id) and pred is part of the dedup key regardless. Both
    families pre-reduce per batch (_edge_local_last) before the union."""
    cont = linked_ds.map_batches(contains_edge_rows, batch_format="pyarrow").map_batches(
        _edge_local_last, batch_format="pyarrow"
    )
    made = records_ds.map_batches(made_by_edge_rows, batch_format="pyarrow").map_batches(
        _edge_local_last, batch_format="pyarrow"
    )
    return cont.union(made)


# ------------------------------------------------------------------ rollup

_ROLLUP_AGGS = [
    ("r", "max"), ("pp0", "min"), ("po0", "min"),
    ("pp1", "min"), ("po1", "min"), ("pp2", "min"), ("po2", "min"),
]
# by-name mapping from the aggregate's output names (rename_agg: positional
# rename assumed keys-first ordering — version-fragile, ADVICE r4)
_ROLLUP_MAP = {"src": "src", "r_max": "r"}
_ROLLUP_MAP.update(
    {f"{c}_min": c for c in ("pp0", "po0", "pp1", "po1", "pp2", "po2")}
)
_ROLLUP_SCHEMA = pa.schema(
    [("entity_id", pa.string()), ("pfas_status", pa.string()),
     ("pfas_information_source", pa.string())]
)
# index_in order: OECD→0, VAI→1, MANUAL→2, unlisted/null→3
# preference rank per (parent PENDING?, source): lower = preferred;
# unlisted sources never win the vote (rank 99)
_PP_LUT = np.array([0, 1, 2, 99], dtype=np.int8)   # PENDING parent: OECD, VAI, MANUAL
_PO_LUT = np.array([1, 0, 2, 99], dtype=np.int8)   # other parents: VAI, OECD, MANUAL
_SRC_SET = pa.array(["OECD", "VAI", "MANUAL"], pa.string())
_STATUS_SET = pa.array(["NO", "PENDING", "YES"], pa.string())


def _rollup_partial(t: pa.Table) -> pa.Table:
    """Map-side mergeable sufficient statistics of the parent resolution:
    per (parent, child-rank r∈{NO,PENDING,YES}) only the MIN preference
    under each of the two source tables matters (the winner's NAME is
    recovered from the rank-matched inverse table), and the parent's status
    is the MAX rank — all max/min, hence combinable per batch before the
    shuffle. Exchange rows drop from one-per-CONTAINS-edge to
    one-per-distinct-parent-per-batch, and the strings shrink to int8s."""
    import pyarrow.compute as pc2

    r = pc2.fill_null(
        pc2.cast(pc2.index_in(t.column("pfas_status"), value_set=_STATUS_SET),
                 pa.int8()),
        1,  # unknown/null status counts as PENDING (reference semantics)
    )
    idx = pc2.fill_null(
        pc2.cast(
            pc2.index_in(t.column("pfas_information_source"), value_set=_SRC_SET),
            pa.int8(),
        ),
        3,
    ).to_numpy(zero_copy_only=False)
    pp = _PP_LUT[idx]
    po = _PO_LUT[idx]
    r_np = r.to_numpy(zero_copy_only=False)
    # src travels the parent shuffle as 16-byte binary when it is a stable-id
    # column (always, in the engine pipelines — the hex string was ~84% of
    # the partial row's payload); arbitrary test ids pass through as string.
    # Decoded back in the merge bucket by type.
    src = try_hex_to_bin(t.column("src"))
    if src is None:
        src = t.column("src")
    cols: dict = {"src": src, "r": r}
    for rank in (0, 1, 2):
        mask = r_np == rank
        cols[f"pp{rank}"] = pa.array(np.where(mask, pp, 99), pa.int8())
        cols[f"po{rank}"] = pa.array(np.where(mask, po, 99), pa.int8())
    part = pa.table(cols)
    return rename_agg(
        pa.TableGroupBy(part, "src").aggregate(_ROLLUP_AGGS), _ROLLUP_MAP
    )


def _rollup_merge_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
    """Merge the per-batch partials of one parent-hash bucket and decode:
    status = inverse of the max rank; source = the rank-matched min
    preference through the parent-state-specific inverse table (99 = no
    listed source voted → SRC_NONE)."""
    if t.num_rows == 0:
        return _ROLLUP_SCHEMA.empty_table()
    agg = rename_agg(pa.TableGroupBy(t, "src").aggregate(_ROLLUP_AGGS), _ROLLUP_MAP)
    r = agg.column("r").to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(r)
    pp = np.stack(
        [agg.column(f"pp{k}").to_numpy(zero_copy_only=False) for k in (0, 1, 2)],
        axis=1,
    )
    po = np.stack(
        [agg.column(f"po{k}").to_numpy(zero_copy_only=False) for k in (0, 1, 2)],
        axis=1,
    )
    rows = np.arange(n)
    pref = np.where(r == 1, pp[rows, r], po[rows, r]).astype(np.int64)
    status_lut = np.array(["NO", "PENDING", "YES"], dtype=object)
    inv_pend = np.full(100, SRC_NONE, dtype=object)
    inv_pend[:3] = ["OECD", "VAI", "MANUAL"]
    inv_oth = np.full(100, SRC_NONE, dtype=object)
    inv_oth[:3] = ["VAI", "OECD", "MANUAL"]
    source = np.where(r == 1, inv_pend[pref], inv_oth[pref])
    src_col = agg.column("src")
    ent_out = (
        bin_to_hex(src_col)
        if pa.types.is_binary(src_col.type)
        else pc.cast(src_col, pa.string())
    )
    return pa.table(
        {
            "entity_id": ent_out,
            "pfas_status": pa.array(status_lut[r], pa.string()),
            "pfas_information_source": pa.array(source, pa.string()),
        }
    )


def rollup_status(edges_ds, child_status_ds, n_buckets: int = 64, num_partitions: int = 16,
                  child_unique: bool = True):
    """One rollup pass: parent status from child (status, source) multisets.

    edges_ds: (src, dst, pred) with pred == CONTAINS rows used;
    child_status_ds: (entity_id, pfas_status, pfas_information_source).
    Returns (entity_id, pfas_status, pfas_information_source) for parents.

    Round 4: the resolution now travels as mergeable max/min sufficient
    statistics (``_rollup_partial``) combined map-side per batch BEFORE the
    parent shuffle — semantics identical to the row-level
    ``functions.decision_tables.parent_pfas_resolution`` (equality pinned
    against a row-level spec by tests/test_rollup_partials.py, and by
    tests/test_rollup_fixed_point.py and the kg e2e oracle tests)."""
    from .shuffle import bucket_group_apply, lookup_join

    contains = edges_ds.filter(expr="pred == 'CONTAINS'").select_columns(["src", "dst"])
    child = child_status_ds.select_columns(
        ["entity_id", "pfas_status", "pfas_information_source"]
    )
    # child_unique: the per-entity fold emits ONE row per entity_id, so the
    # main pipeline skips the driver-side uniqueness probe; rollup_fixed_point
    # passes False because its leaves ∪ parents union may legitimately carry
    # an entity twice in deep DAGs
    joined = lookup_join(contains, child, key="dst", right_key="entity_id",
                         n_buckets=num_partitions, unique_right=child_unique)
    # children-per-parent is bounded (distinct chemicals of one material),
    # and the map-side partial combine bounds the exchange at one int8-row
    # per distinct parent per batch regardless.
    slim = joined.select_columns(["src", "pfas_status", "pfas_information_source"])
    partials = slim.map_batches(_rollup_partial, batch_format="pyarrow")
    return bucket_group_apply(partials, ["src"], _rollup_merge_bucket, n_buckets)


def _status_checksum(status_ds) -> int:
    """Order-free checksum of an (entity_id, status, source) dataset — one
    int64 per batch summed by Ray; used as the fixed-point terminator."""
    import pyarrow.compute as pc2

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([0], pa.int64())})
        joined = pc2.binary_join_element_wise(
            t.column("entity_id"),
            pc2.fill_null(t.column("pfas_status"), ""),
            pc2.fill_null(t.column("pfas_information_source"), ""),
            "\x1f",
        )
        hashed = pd.util.hash_pandas_object(joined.to_pandas(), index=False).to_numpy()
        return pa.table({"h": pa.array([int(hashed.sum(dtype=np.uint64) >> np.uint64(1))], pa.int64())})

    out = status_ds.map_batches(partial, batch_format="pyarrow").sum("h")
    return int(out or 0)


def rollup_fixed_point(edges_ds, leaf_status_ds, n_buckets: int = 32,
                       num_partitions: int = 16, max_iters: int = 8):
    """Iterate the grouped rollup to a fixed point for hierarchies deeper
    than the reference's 2 levels (A5 generality): each round recomputes
    every parent's resolution from the CURRENT statuses of its children,
    terminating when the parent-status checksum stops changing (graph-depth
    rounds for a DAG). Returns the parent status dataset of the final round."""
    current = leaf_status_ds
    parent = None
    prev_sum = None
    for _ in range(max_iters):
        parent = rollup_status(edges_ds, current, n_buckets, num_partitions,
                               child_unique=False).materialize()
        check = _status_checksum(parent)
        if check == prev_sum:
            break
        prev_sum = check
        # children for the next round: leaves + freshly rolled parents
        current = leaf_status_ds.select_columns(
            ["entity_id", "pfas_status", "pfas_information_source"]
        ).union(parent)
    return parent


# ------------------------------------------------------------------ nodes

def assemble_nodes(material_ids_ds, material_status_ds, chem_mapping_ds, chem_status_ds,
                   manufacturer_ds, num_partitions: int = 16):
    """Final nodes table: materials (identity ⋈ rolled-up status), chemicals
    (union-find NODE rows ⋈ folded status), manufacturers (no PFAS fields —
    the reference Manufacturer ORM has none, models/manufacturer.py:6-18)."""
    from .shuffle import lookup_join

    # material_status is a rollup output (one row per parent) — structurally
    # unique, so both assembly joins skip the driver uniqueness probe
    mat = lookup_join(
        material_ids_ds, material_status_ds, key="material_id",
        right_key="entity_id", how="left", n_buckets=num_partitions,
        unique_right=True,
    )

    def mat_nodes(t: pa.Table) -> pa.Table:
        n = t.num_rows
        status = pc.fill_null(t.column("pfas_status"), "PENDING")
        source = pc.fill_null(t.column("pfas_information_source"), SRC_NONE)
        return pa.table(
            {
                "entity_id": t.column("material_id"),
                "name": t.column("name"),
                "node_type": pa.array([NODE_MATERIAL] * n, pa.string()),
                "cas_number": pa.nulls(n, pa.string()),
                "pfas_status": status,
                "pfas_information_source": source,
            },
            schema=NODES_SCHEMA,
        )

    mat_nodes_ds = mat.map_batches(mat_nodes, batch_format="pyarrow")

    # one Arrow fn with a declared schema instead of Filter->Project (the
    # split chain emits schema-divergent RefBundles; see linking._probe_rows)
    _CHEM_BASE_SCHEMA = pa.schema(
        [("entity_id", pa.string()), ("name", pa.string()), ("cas", pa.string())]
    )

    def _node_rows(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t.column("row_kind"), "NODE"))
        return pa.table(
            {"entity_id": kept.column("entity_id"), "name": kept.column("name"),
             "cas": kept.column("cas")},
            schema=_CHEM_BASE_SCHEMA,
        )

    chem_base = chem_mapping_ds.map_batches(_node_rows, batch_format="pyarrow")
    chem = lookup_join(
        chem_base,
        chem_status_ds.select_columns(["entity_id", "pfas_status", "pfas_information_source"]),
        key="entity_id",
        n_buckets=num_partitions,
        unique_right=True,  # per-entity fold output: one row per entity_id
    )

    def chem_nodes(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "entity_id": t.column("entity_id"),
                "name": t.column("name"),
                "node_type": pa.array([NODE_CHEMICAL] * n, pa.string()),
                "cas_number": t.column("cas"),
                "pfas_status": t.column("pfas_status"),
                "pfas_information_source": t.column("pfas_information_source"),
            },
            schema=NODES_SCHEMA,
        )

    chem_nodes_ds = chem.map_batches(chem_nodes, batch_format="pyarrow")

    def mfr_nodes(t: pa.Table) -> pa.Table:
        names = t.column("manufacturer").to_pylist()
        ids = [stable_id("MANUFACTURER", f) for f in names]
        n = t.num_rows
        return pa.table(
            {
                "entity_id": pa.array(ids, pa.string()),
                "name": pa.array(names, pa.string()),
                "node_type": pa.array([NODE_MANUFACTURER] * n, pa.string()),
                "cas_number": pa.nulls(n, pa.string()),
                "pfas_status": pa.nulls(n, pa.string()),
                "pfas_information_source": pa.array([SRC_NONE] * n, pa.string()),
            },
            schema=NODES_SCHEMA,
        )

    mfr_nodes_ds = manufacturer_ds.map_batches(mfr_nodes, batch_format="pyarrow")
    return mat_nodes_ds.union(chem_nodes_ds).union(mfr_nodes_ds)


# manufacturer-distinct is folded into build_material_identities (row_kind
# MFR rows of the same bucket shuffle) — no separate stage.


# ------------------------------------------------------------------ lineage

def lineage_rows(linked_batch: pa.Table, n_buckets: int = 64) -> pa.Table:
    """linked chem mentions -> lineage rows for chemical + material entities.
    Zero-copy: the id/conv/turn columns pass through as Arrow arrays (one
    sub-table per extractor, concatenated) — no to_pylist round-trip."""
    part = stable_bucket_array(linked_batch, ["entity_id"], n_buckets)
    part_mat = stable_bucket_array(linked_batch, ["material_id"], n_buckets)
    n = linked_batch.num_rows
    conv = linked_batch.column("conv_id")
    turn = pc.cast(linked_batch.column("turn_idx"), pa.int32())

    def half(id_col, extractor, buckets):
        return pa.table(
            {
                "entity_id": pc.cast(id_col, pa.string()),
                "conv_id": conv,
                "turn_idx": turn,
                "extractor": pa.array([extractor] * n, pa.string()),
                "partition_id": pa.array(buckets.astype("int32"), pa.int32()),
            },
            schema=LINEAGE_SCHEMA,
        )

    return pa.concat_tables(
        [
            half(linked_batch.column("entity_id"), "chemical_linker", part),
            half(linked_batch.column("material_id"), "material_linker", part_mat),
        ]
    ).combine_chunks()


# ------------------------------------------------------------ J5 traversal

def chemicals_of_material(nodes_ds, edges_ds, num_partitions: int = 8):
    """1-hop KG traversal over the engine's OWN outputs: every material with
    its contained chemicals and their PFAS state (reference
    global_node_repository.py:197-219 — get_chemicals_of_a_material /
    get_materials_of_a_chemical reporting queries).

    Shape: CONTAINS edges join the dimension-sized node table twice via
    lookup_join (broadcast while small, bucket join at scale)."""
    contains = edges_ds.filter(expr="pred == 'CONTAINS'").select_columns(
        ["src", "dst", "weight"]
    )
    mats = (
        nodes_ds.filter(expr="node_type == 'MATERIAL'")
        .select_columns(["entity_id", "name"])
        .rename_columns({"name": "material_name"})
    )
    chems = (
        nodes_ds.filter(expr="node_type == 'CHEMICAL'")
        .select_columns(["entity_id", "name", "cas_number", "pfas_status"])
        .rename_columns({"name": "chemical_name"})
    )
    from .shuffle import lookup_join

    j = lookup_join(contains, mats, key="src", right_key="entity_id",
                    n_buckets=num_partitions)
    j = lookup_join(j, chems, key="dst", right_key="entity_id",
                    n_buckets=num_partitions)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "material_id": t.column("src"),
                "material_name": t.column("material_name"),
                "chemical_id": t.column("dst"),
                "chemical_name": t.column("chemical_name"),
                "cas_number": t.column("cas_number"),
                "pfas_status": t.column("pfas_status"),
                "weight": t.column("weight"),
            }
        )

    return j.map_batches(finalize, batch_format="pyarrow")


def materials_of_chemical(nodes_ds, edges_ds, num_partitions: int = 8):
    """The reverse J5 traversal (get_materials_of_a_chemical,
    global_node_repository.py:197-219): every chemical with the materials
    that contain it and the material's rolled-up status."""
    contains = edges_ds.filter(expr="pred == 'CONTAINS'").select_columns(
        ["src", "dst", "weight"]
    )
    chems = (
        nodes_ds.filter(expr="node_type == 'CHEMICAL'")
        .select_columns(["entity_id", "name"])
        .rename_columns({"name": "chemical_name"})
    )
    mats = (
        nodes_ds.filter(expr="node_type == 'MATERIAL'")
        .select_columns(["entity_id", "name", "pfas_status"])
        .rename_columns({"name": "material_name"})
    )
    from .shuffle import lookup_join

    j = lookup_join(contains, chems, key="dst", right_key="entity_id",
                    n_buckets=num_partitions)
    j = lookup_join(j, mats, key="src", right_key="entity_id",
                    n_buckets=num_partitions)

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "chemical_id": t.column("dst"),
                "chemical_name": t.column("chemical_name"),
                "material_id": t.column("src"),
                "material_name": t.column("material_name"),
                "material_pfas_status": t.column("pfas_status"),
                "weight": t.column("weight"),
            }
        )

    return j.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------ co-mention pairs

COMENTION_PAIR_CAP = 1000


def material_comentions(edges_ds, n_buckets: int = 32,
                        pair_cap: int = COMENTION_PAIR_CAP):
    """2-hop graph analytics over the produced KG: pairs of materials that
    share at least one chemical (CONTAINS co-occurrence), with the shared
    count — the classic derived-edge query a compliance analyst runs on
    the reference graph (one hop past global_node_repository.py:197-219's
    chemicals-of-material traversal).

    Shape: ONE chemical-keyed bucket shuffle; per chemical, the material
    pairs come from the pair kernel (``functions/pairs.py``), which caps a
    chemical contained by more than ``pair_cap`` materials to a
    hash-UNIFORM sample of the cap with the drop COUNTED and LOGGED (hot
    keys would otherwise go quadratic); then one pair-keyed aggregate sums
    n_shared. Output: (mat_a, mat_b, n_shared), mat_a < mat_b."""

    def contains_only(t: pa.Table) -> pa.Table:
        kept = t.filter(pc.equal(t.column("pred"), "CONTAINS"))
        return kept.select(["src", "dst"])

    slim = edges_ds.map_batches(contains_only, batch_format="pyarrow")

    def pairs_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        ids = t.column("src").to_numpy(zero_copy_only=False)
        ia, ib = group_pairs([t.column("dst").to_numpy(zero_copy_only=False)], ids,
                             pair_cap, "material_comentions", bucket_id)
        return pa.table(
            {"mat_a": pa.array(ids[ia], pa.string()), "mat_b": pa.array(ids[ib], pa.string())}
        )

    pairs = bucket_group_apply(slim, ["dst"], pairs_bucket, n_buckets)
    return group_aggregate(pairs, ["mat_a", "mat_b"], {"n_shared": ("count", None)})


# ------------------------------------------------------------------ pagerank

def pagerank(edges_ds, damping: float = 0.85, n_iters: int = 5,
             n_buckets: int = 16):
    """PageRank over the produced KG's directed edges (src -> dst) — the
    iterative bulk-synchronous graph-analytics staple, the third iterative
    shape in the engine next to min-label propagation (dedup connected
    components) and the status-rollup fixed point.

    Per iteration (the BSP round):
      1. contributions: edges ⋈ ranks on src (lookup_join — broadcast when
         ranks are dimension-sized, bucket shuffle otherwise), each edge
         carries rank(src)/out_deg(src);
      2. inflow: ONE dst-keyed aggregate of contributions;
      3. update: new_rank = (1-d)/N + d*(inflow + dangling_mass/N), where
         dangling_mass = 1 - Σcontributions (nodes without out-edges leak
         their rank to everyone — computed as a scalar, never a join).

    Ranks materialize once per round (node-dimension-sized, same policy as
    rollup_fixed_point); edges stream through every round unchanged, so at
    scale the same src-partitioning is reused across iterations. Returns
    (node, rank) with rank rounded to 9 dp for engine-independent output.
    """
    from .shuffle import lookup_join

    slim = edges_ds.map_batches(
        lambda t: t.select(["src", "dst"]), batch_format="pyarrow"
    ).materialize()

    # node universe = distinct src ∪ dst; out-degree per src — both once
    def batch_nodes(t: pa.Table) -> pa.Table:
        both = pa.concat_arrays(
            [
                t.column("src").combine_chunks().cast(pa.string()),
                t.column("dst").combine_chunks().cast(pa.string()),
            ]
        )
        return pa.table({"node": both.unique()})

    nodes = (
        group_aggregate(slim.map_batches(batch_nodes, batch_format="pyarrow"), "node",
                        {"n": ("count", None)})
        .select_columns(["node"])
        .materialize()
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table({"node": pa.array([], pa.string()),
                                "rank": pa.array([], pa.float64())}),
            batch_format="pyarrow",
        )

    out_deg = group_aggregate(slim, "src", {"out_deg": ("count", None)}).materialize()

    base = (1.0 - damping) / n_nodes
    ranks = nodes.map_batches(
        lambda t: pa.table(
            {
                "node": t.column("node"),
                "rank": pa.array(
                    np.full(t.num_rows, 1.0 / n_nodes), pa.float64()
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(n_iters):
        # rank/out_deg per source node, shipped along each edge
        src_rate = lookup_join(
            out_deg, ranks, key="src", right_key="node"
        ).map_batches(
            lambda t: pa.table(
                {
                    "src": t.column("src"),
                    "rate": pc.divide(
                        t.column("rank"),
                        pc.cast(t.column("out_deg"), pa.float64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        contrib = lookup_join(slim, src_rate, key="src").map_batches(
            lambda t: pa.table({"dst": t.column("dst"), "c": t.column("rate")}),
            batch_format="pyarrow",
        )
        inflow = group_aggregate(contrib, "dst", {"inflow": ("sum", "c")}).materialize()
        total_contrib = inflow.sum("inflow") or 0.0
        dangling = max(0.0, 1.0 - float(total_contrib)) / n_nodes

        joined = lookup_join(nodes, inflow, key="node", right_key="dst", how="left")

        def update(t: pa.Table, _base=base, _dangling=dangling) -> pa.Table:
            inf = pc.coalesce(t.column("inflow"), pa.scalar(0.0, pa.float64()))
            new = pc.add(
                pa.scalar(_base + damping * _dangling, pa.float64()),
                pc.multiply(pa.scalar(damping, pa.float64()), inf),
            )
            return pa.table({"node": t.column("node"), "rank": new})

        ranks = joined.map_batches(update, batch_format="pyarrow").materialize()

    def finalize(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t.column("node"),
                "rank": pc.round(t.column("rank"), ndigits=9),
            }
        )

    return ranks.map_batches(finalize, batch_format="pyarrow")


# ------------------------------------------------------------------ triangles

def triangle_count(pairs_ds, a_col: str = "mat_a", b_col: str = "mat_b",
                   n_buckets: int = 16):
    """Exact triangle count of an undirected simple graph given as a pair
    list — the degree-ordered wedge join (the standard 2-round distributed
    algorithm, e.g. Suri & Vassilvitskii 2011 "Counting Triangles and the
    Curse of the Last Reducer"):

      1. canonical distinct edges (lo < hi), per-node degrees (one count
         aggregate over both endpoints);
      2. orient every edge from the (degree, node)-smaller endpoint to the
         larger — the orientation is acyclic and every triangle has exactly
         ONE apex with two out-edges, so it is counted exactly once;
      3. per apex, emit the out-neighbor pairs (wedges) — the degree
         ordering bounds the oriented out-degree by O(sqrt(2m)), so the
         wedge volume is O(m^1.5) worst-case and far less on real graphs,
         never the unordered O(sum deg^2);
      4. ONE semi join of wedges against oriented edges; each hit is a
         triangle.

    Returns a one-row Dataset (n_triangles int64). Node ids may be any
    string/int column; comparisons use (degree, id) with the id's natural
    order as tie-break."""
    import numpy as np

    import ray.data as rd

    from .shuffle import bucket_group_apply, bucket_hash_join, lookup_join

    def canon(t: pa.Table) -> pa.Table:
        # node ids normalize to strings so degrees/joins/wedge keys share one
        # type; any CONSISTENT total order is correct for the orientation
        sub = pa.table(
            {
                "a": pc.cast(t.column(a_col), pa.string()),
                "b": pc.cast(t.column(b_col), pa.string()),
            }
        )
        sub = sub.filter(pc.invert(pc.equal(sub.column("a"), sub.column("b"))))
        a, b = sub.column("a"), sub.column("b")
        a_lt = pc.less(a, b)
        return pa.table(
            {"lo": pc.if_else(a_lt, a, b), "hi": pc.if_else(a_lt, b, a)}
        )

    edges = group_aggregate(
        pairs_ds.map_batches(canon, batch_format="pyarrow"), ["lo", "hi"],
        {"n": ("count", None)},
    ).select_columns(["lo", "hi"])

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        t.column("lo").combine_chunks().cast(pa.string()),
                        t.column("hi").combine_chunks().cast(pa.string()),
                    ]
                )
            }
        )

    degrees = group_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), "node",
        {"deg": ("count", None)},
    )
    e1 = lookup_join(
        edges,
        degrees.rename_columns({"node": "lo", "deg": "deg_lo"}),
        key="lo", n_buckets=n_buckets,
    )
    e2 = lookup_join(
        e1,
        degrees.rename_columns({"node": "hi", "deg": "deg_hi"}),
        key="hi", n_buckets=n_buckets,
    )

    def orient(t: pa.Table) -> pa.Table:
        dl = t.column("deg_lo")
        dh = t.column("deg_hi")
        # (deg, node) rank: lo wins ties because lo < hi by construction
        lo_first = pc.or_(pc.less(dl, dh), pc.equal(dl, dh))
        src = pc.if_else(lo_first, t.column("lo"), t.column("hi"))
        dst = pc.if_else(lo_first, t.column("hi"), t.column("lo"))
        deg_dst = pc.if_else(lo_first, dh, dl)
        return pa.table(
            {"src": src, "dst": dst,
             "deg_dst": pc.cast(deg_dst, pa.int64())}
        )

    oriented = e2.map_batches(orient, batch_format="pyarrow")

    def wedge_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        dst = t.column("dst").to_numpy(zero_copy_only=False)
        # wedge pairs ordered by the (deg, id) rank — matching edge orientation
        rank = np.empty(len(dst), np.int64)
        rank[np.lexsort((dst, t.column("deg_dst").to_numpy()))] = np.arange(len(dst))
        ia, ib = group_pairs([t.column("src").to_numpy(zero_copy_only=False)], rank,
                             None, "triangle_count", bucket_id)
        return pa.table({"wk": pc.binary_join_element_wise(
            pa.array(dst[ia], pa.string()), pa.array(dst[ib], pa.string()), "\x1f")})

    wedges = bucket_group_apply(oriented, ["src"], wedge_bucket, n_buckets)

    def edge_keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "ek": pc.binary_join_element_wise(
                    pc.cast(t.column("src"), pa.string()),
                    pc.cast(t.column("dst"), pa.string()),
                    "\x1f",
                )
            }
        )

    ekeys = oriented.map_batches(edge_keys, batch_format="pyarrow")
    tri = bucket_hash_join(
        wedges, ekeys, key="wk", right_key="ek", how="semi", n_buckets=n_buckets
    )
    n = tri.count()
    return rd.from_arrow(
        pa.table({"n_triangles": pa.array([n], pa.int64())})
    )


# ------------------------------------------------------------ label propagation

def label_propagation(pairs_ds, a_col: str = "mat_a", b_col: str = "mat_b",
                      n_iters: int = 5, n_buckets: int = 16):
    """Deterministic synchronous label propagation (community detection)
    over an undirected pair list — the fourth iterative BSP shape in the
    engine (next to min-label components, the status fixed point, and
    PageRank). Per round every node adopts the MOST FREQUENT label among
    its neighbors, ties broken by the lexicographically smallest label, all
    nodes updating simultaneously from the previous round's labels — the
    classic LPA (Raghavan et al. 2007) made deterministic by the min
    tiebreak + synchronous schedule.

    Per round: ONE lookup_join ships each node's current label along its
    out-edges (broadcast while the label table is dimension-sized),
    ONE (dst, label) count aggregate, and ONE dst-bucketed vectorized
    argmax (lexsort on (dst, -count, label), take first per run). Labels
    materialize once per round at node-dimension size; the doubled edge
    list streams unchanged every round, so at scale its dst partitioning
    is reused across iterations. Returns (node, label)."""
    from .shuffle import bucket_group_apply, lookup_join

    def doubled(t: pa.Table) -> pa.Table:
        a = pc.cast(t.column(a_col), pa.string()).combine_chunks()
        b = pc.cast(t.column(b_col), pa.string()).combine_chunks()
        return pa.table(
            {
                "src": pa.concat_arrays([a, b]),
                "dst": pa.concat_arrays([b, a]),
            }
        )

    edges = pairs_ds.map_batches(doubled, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        agg = t.group_by("src").aggregate([])
        return pa.table({"node": agg.column("src")})

    labels = (
        group_aggregate(edges.map_batches(init_labels, batch_format="pyarrow"), "node",
                        {"n": ("count", None)})
        .map_batches(
            lambda t: pa.table({"node": t.column("node"), "label": t.column("node")}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def count_partial(t: pa.Table) -> pa.Table:
        agg = t.group_by(["dst", "label"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "dst": agg.column("dst"),
                "label": agg.column("label"),
                "n": pc.cast(agg.column("count_all"), pa.int64()),
            }
        )

    def argmax_bucket(t: pa.Table, bucket_id: int) -> pa.Table:
        merged = (
            t.to_pandas().groupby(["dst", "label"], sort=False)["n"].sum().reset_index()
        )
        order = np.lexsort(
            (
                merged["label"].to_numpy(),
                -merged["n"].to_numpy(),
                merged["dst"].to_numpy(),
            )
        )
        d = merged["dst"].to_numpy()[order]
        first = np.r_[True, d[1:] != d[:-1]]
        return pa.table(
            {
                "node": pa.array(d[first], pa.string()),
                "label": pa.array(
                    merged["label"].to_numpy()[order][first], pa.string()
                ),
            }
        )

    for _ in range(n_iters):
        shipped = lookup_join(edges, labels, key="src", right_key="node")
        counts = shipped.map_batches(
            lambda t: count_partial(t.select(["dst", "label"])),
            batch_format="pyarrow",
        )
        labels = bucket_group_apply(
            counts, ["dst"], argmax_bucket, n_buckets=n_buckets
        ).materialize()

    return labels


# ------------------------------------------------------------------ k-core

def k_core(pairs_ds, k: int = 2, a_col: str = "mat_a", b_col: str = "mat_b",
           n_buckets: int = 16, max_iters: int = 50):
    """Distributed k-core decomposition of an undirected pair list: the
    maximal subgraph where every node has degree ≥ k, via synchronous
    iterative peeling (Batagelj–Zaveršnik semantics, BSP schedule): each
    round computes live degrees (ONE groupby over the doubled edge list),
    drops every node below k, and semi-joins the edge list down to
    survivors (TWO lookup_joins whose right side is the node-dimension
    survivor set — broadcast under the gate, bucket exchange past it).
    Rounds = peel depth of the graph, each touching only LIVE edges, which
    shrink monotonically. Non-convergence within ``max_iters`` raises
    loudly (the dedup.py:353 discipline). Returns (node, core_deg) for
    members, core_deg = the node's degree inside the k-core."""
    from .shuffle import lookup_join

    def canon(t: pa.Table) -> pa.Table:
        sub = pa.table(
            {
                "a": pc.cast(t.column(a_col), pa.string()),
                "b": pc.cast(t.column(b_col), pa.string()),
            }
        )
        sub = sub.filter(pc.invert(pc.equal(sub.column("a"), sub.column("b"))))
        a, b = sub.column("a"), sub.column("b")
        a_lt = pc.less(a, b)
        return pa.table(
            {"lo": pc.if_else(a_lt, a, b), "hi": pc.if_else(a_lt, b, a)}
        )

    edges = (
        group_aggregate(pairs_ds.map_batches(canon, batch_format="pyarrow"), ["lo", "hi"],
                        {"n": ("count", None)})
        .select_columns(["lo", "hi"])
        .materialize()
    )

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [t.column("lo").combine_chunks(), t.column("hi").combine_chunks()]
                )
            }
        )

    for _ in range(max_iters):
        degrees = group_aggregate(
            edges.map_batches(endpoints, batch_format="pyarrow"), "node",
            {"core_deg": ("count", None)},
        ).materialize()
        n_nodes = degrees.count()
        live = degrees.filter(expr=f"core_deg >= {int(k)}")
        n_live = live.count()
        if n_live == n_nodes:
            return live.select_columns(["node", "core_deg"])
        if n_live == 0:
            import ray.data as rd

            return rd.from_arrow(
                pa.schema([("node", pa.string()),
                           ("core_deg", pa.int64())]).empty_table()
            )
        survivors = live.select_columns(["node"])
        edges = lookup_join(
            edges, survivors, key="lo", right_key="node", n_buckets=n_buckets
        )
        edges = lookup_join(
            edges, survivors, key="hi", right_key="node", n_buckets=n_buckets
        ).select_columns(["lo", "hi"]).materialize()
    raise RuntimeError(
        f"k_core did not converge in {max_iters} peel rounds (k={k}); "
        "raise max_iters — every round strictly shrinks the node set, so "
        "this bounds peel depth, not correctness"
    )


# ------------------------------------------------------------------ BFS depths

def bfs_depths(edges_ds, seeds, max_depth: int = 4, n_buckets: int = 16,
               src_col: str = "src", dst_col: str = "dst"):
    """Multi-source BFS over a DIRECTED edge list: minimum hop distance from
    any seed, up to max_depth — the monotone-frontier iterative shape
    (contrast with label_propagation's full relabel: here each round only
    touches the frontier, and settled nodes never change). Per round ONE
    lookup_join ships the frontier along edges (frontier is always ≤ node-
    dimension-sized, so it broadcasts) and ONE anti bucket join discards
    already-settled destinations; the frontier shrinks the work per round
    to the expansion boundary. For an undirected graph pass the doubled
    pair list. Returns (node, depth) for every reached node."""
    import ray.data as rd

    from .shuffle import bucket_hash_join, lookup_join

    def slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(t.column(src_col), pa.string()),
                "dst": pc.cast(t.column(dst_col), pa.string()),
            }
        )

    edges = edges_ds.map_batches(slim, batch_format="pyarrow").materialize()

    settled = rd.from_arrow(
        pa.table(
            {
                "node": pa.array(sorted(set(map(str, seeds))), pa.string()),
                "depth": pa.array([0] * len(set(seeds)), pa.int64()),
            }
        )
    ).materialize()
    frontier = settled

    for d in range(1, max_depth + 1):
        hops = lookup_join(edges, frontier, key="src", right_key="node")

        def next_nodes(t: pa.Table, _d=d) -> pa.Table:
            agg = t.select(["dst"]).group_by("dst").aggregate([])
            return pa.table(
                {
                    "node": agg.column("dst"),
                    "depth": pa.array(
                        np.full(agg.num_rows, _d, dtype=np.int64), pa.int64()
                    ),
                }
            )

        candidates = hops.map_batches(next_nodes, batch_format="pyarrow")
        fresh = bucket_hash_join(
            candidates, settled, key="node", right_key="node", how="anti",
            n_buckets=n_buckets,
        )
        # per-batch distinct above can still duplicate across batches: one
        # tiny groupby pins min depth (all candidates this round share d)
        frontier = group_aggregate(fresh, "node", {"depth": ("min", "depth")}).materialize()
        if frontier.count() == 0:
            break
        settled = settled.union(frontier).materialize()

    return settled


def random_walks(edges_ds, walks_per_node: int = 2, walk_len: int = 4,
                 seed: int = 17, n_buckets: int = 16,
                 src_col: str = "src", dst_col: str = "dst"):
    """Deterministic uniform random-walk corpus over a directed edge list —
    the data-generation half of DeepWalk (Perozzi et al., KDD 2014) /
    node2vec: ``walks_per_node`` walks of ``walk_len`` steps from every
    node with out-edges, each step choosing uniformly among the node's
    DISTINCT neighbors. No RNG state anywhere: step t of walk (start, rep)
    picks neighbor index ``hash63(f"{seed}|{start}|{rep}|{t}") % degree``
    over the SORTED neighbor array, so the corpus is identical across
    re-runs, partitionings and engines — the md5 discipline of the
    sampling family. Dead ends stop the walk early.

    Scale shape: walk_len BSP rounds; each round is ONE cur-node-keyed
    bucket exchange carrying the walk state (start, rep, cur — three
    columns, node-dimension x walks_per_node rows) against the adjacency
    (built once, reused every round on the same bucketing). Visits stream
    out per round; nothing driver-side ever holds the walk corpus.
    Returns (start, rep, step, node) — step 0 is the start node itself.

    Rows-only (iterative, not SQL-expressible); pinned against a serial
    simulator with the identical hash in tests/test_random_walks.py."""
    import ray.data as rd

    from .shuffle import bucket_group_apply
    from .sketches import hash63

    def slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": pc.cast(t.column(src_col), pa.string()),
                "dst": pc.cast(t.column(dst_col), pa.string()),
            }
        )

    # distinct adjacency, tagged for the union exchange (kind 0)
    adj = (
        group_aggregate(edges_ds.map_batches(slim, batch_format="pyarrow"), ["src", "dst"],
                        {"n": ("count", None)})
        .map_batches(
            lambda t: pa.table(
                {
                    "kind": pa.array(np.zeros(t.num_rows, np.int8)),
                    "node": t.column("src"),
                    "dst": t.column("dst"),
                    "start": pa.array([""] * t.num_rows, pa.string()),
                    "rep": pa.array(np.zeros(t.num_rows, np.int64)),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def starts_tbl(t: pa.Table) -> pa.Table:
        # distinct srcs per batch; global dedup below via groupby
        agg = t.select(["node"]).group_by("node").aggregate([])
        return agg

    start_nodes = (
        group_aggregate(adj.map_batches(starts_tbl, batch_format="pyarrow"), "node",
                        {"n": ("count", None)})
        .select_columns(["node"])
        .materialize()
    )

    def make_state(t: pa.Table) -> pa.Table:
        nodes = t.column("node").to_pylist()
        n = len(nodes)
        return pa.table(
            {
                "kind": pa.array(np.ones(n * walks_per_node, np.int8)),
                "node": pa.array(np.repeat(np.asarray(nodes, object),
                                           walks_per_node), pa.string()),
                "dst": pa.array([""] * (n * walks_per_node), pa.string()),
                "start": pa.array(np.repeat(np.asarray(nodes, object),
                                            walks_per_node), pa.string()),
                "rep": pa.array(np.tile(np.arange(walks_per_node, dtype=np.int64), n)),
            }
        )

    state = start_nodes.map_batches(make_state, batch_format="pyarrow").materialize()

    def visits_of(state_ds, step: int):
        def v(t: pa.Table, _s=step) -> pa.Table:
            return pa.table(
                {
                    "start": t.column("start"),
                    "rep": t.column("rep"),
                    "step": pa.array(np.full(t.num_rows, _s, np.int64)),
                    "node": t.column("node"),
                }
            )

        return state_ds.map_batches(v, batch_format="pyarrow")

    out = visits_of(state, 0)

    for t_step in range(1, walk_len + 1):
        def step_bucket(t: pa.Table, bucket_id: int, _t=t_step) -> pa.Table:
            df = t.to_pandas()
            empty = pa.table(
                {
                    "kind": pa.array([], pa.int8()),
                    "node": pa.array([], pa.string()),
                    "dst": pa.array([], pa.string()),
                    "start": pa.array([], pa.string()),
                    "rep": pa.array([], pa.int64()),
                }
            )
            a = df[df["kind"] == 0]
            s = df[df["kind"] == 1]
            if not len(s) or not len(a):
                return empty
            # per-src sorted neighbor arrays
            nbrs = {
                src: np.sort(g["dst"].to_numpy())
                for src, g in a.groupby("node", sort=False)
            }
            outs = {"node": [], "start": [], "rep": []}
            for cur, g in s.groupby("node", sort=False):
                arr = nbrs.get(cur)
                if arr is None:
                    continue  # dead end: walk stops
                starts = g["start"].to_numpy()
                reps = g["rep"].to_numpy()
                idx = (
                    hash63([f"{seed}|{st}|{rp}|{_t}" for st, rp in zip(starts, reps)])
                    % np.uint64(arr.size)
                ).astype(np.int64)
                outs["node"].extend(arr[idx])
                outs["start"].extend(starts)
                outs["rep"].extend(reps)
            n = len(outs["node"])
            return pa.table(
                {
                    "kind": pa.array(np.ones(n, np.int8)),
                    "node": pa.array(outs["node"], pa.string()),
                    "dst": pa.array([""] * n, pa.string()),
                    "start": pa.array(outs["start"], pa.string()),
                    "rep": pa.array(np.asarray(outs["rep"], np.int64)),
                }
            )

        state = bucket_group_apply(
            adj.union(state), ["node"], step_bucket, n_buckets
        ).materialize()
        if state.count() == 0:
            break
        out = out.union(visits_of(state, t_step))

    return out
