"""Per-conversation record assembly: extraction rows -> one record per conv.

The reference builds exactly one MSDSAnalysis per document (one material,
one manufacturer, a deduped chemical list — artifact_ingestor_service.py:
759-817); the transcript analog assembles one record per conversation from
its per-turn extraction rows:

  * material + manufacturer = FIRST MATERIAL mention by turn_idx
  * material_name combined with first product_no / UPC mention
    (combine_material_name, :725-742)
  * chemicals in turn order, deduped keyed on chemical_name with
    LAST-occurrence-wins values but FIRST-occurrence key order (the dict
    comprehension at :788-791)
  * conversations with no material or no chemicals are dropped (the
    empty-material / empty-chemicals raises at :794-802)

Scale shape: instead of ``groupby("conv_id").map_groups`` (one Python call
per conversation), conversations are hash-bucketed into ``n_buckets`` groups
(`bucket = hash64(conv_id) % B`) and each *bucket* is assembled in one
vectorized-ish call — per-call overhead is amortized over thousands of
conversations, and bucket counts are tunable to cluster size. conv_id is a
uniform key, so buckets are balanced without salting. ``assemble_bucket`` is
the per-bucket function; callers apply it through
``shuffle.bucket_group_apply`` on ``["conv_id"]`` (per-bucket commits
under a checkpoint: ``bucket_group_apply_partitioned``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pyarrow as pa

from ..functions.decision_tables import combine_material_name
from .extract import GEO_FIELDS, GEO_TYPE, KIND_CODE, unpack_payload_str

CHEMICAL_STRUCT = pa.struct(
    [
        ("name", pa.string()),
        ("cas", pa.string()),
        ("composition", pa.string()),
        ("tag", pa.string()),
        ("source", pa.string()),
        ("turn_idx", pa.int32()),
        # position in the A1-deduped chemicals list (dict FIRST-OCCURRENCE
        # key order). This — not turn_idx — is the reference's processing
        # order for everything downstream of the record (edge upsert order,
        # status-fold order, node-creation order): the dict comprehension at
        # artifact_ingestor_service.py:788-791 keeps first-key order while
        # its VALUES (incl. turn) come from the last occurrence, so a
        # conversation mentioning name-variants A, a, A of one CAS entity
        # processes A (pos 0) before a (pos 1) even though A's turn_idx is
        # the latest.
        ("pos", pa.int32()),
    ]
)

RECORD_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),  # turn of the material mention
        ("material_name", pa.string()),  # combined with product_no / upc
        ("manufacturer", pa.string()),
        # manufacturer geo attributes from the FIRST supplier-location turn
        # (null when the conversation carries none) — consumed by the
        # manufacturer link-or-create: only the record that CREATES a
        # manufacturer contributes them (artifact_ingestor_service.py:992-1008)
        ("geo", GEO_TYPE),
        ("chemicals", pa.list_(CHEMICAL_STRUCT)),
        # errors side-channel: null for surviving records; a reason code
        # (EMPTY_MATERIAL / EMPTY_CHEMICALS / MATERIAL_ALREADY_INGESTED) for
        # conversations the reference would FAIL (raise at
        # artifact_ingestor_service.py:794-802 / 979-989) — kept as rows so
        # drops are auditable instead of silent
        ("drop_reason", pa.string()),
    ]
)


def assemble_bucket(t: pa.Table) -> pa.Table:
    """One hash bucket of extraction rows -> assembled records. Returns an
    Arrow table with the explicit RECORD_SCHEMA so empty buckets and the
    nested chemicals list<struct> column keep a stable schema across blocks."""
    group = t.to_pandas().sort_values(["conv_id", "turn_idx"], kind="mergesort")
    out_conv: List[str] = []
    out_turn: List[int] = []
    out_name: List[str] = []
    out_mfr: List[str] = []
    out_geo: List = []
    out_chems: List[list] = []
    out_reason: List = []

    # column arrays once; the per-conversation loop indexes plain numpy/python
    # values (iterrows would cost ~100us/row at this volume). The extraction
    # rows arrive PACKED (int8 kind + one escaped payload string — the
    # exchange-thin format, extract.py round 5); fields decode lazily at the
    # few indices the assembly actually touches.
    conv_arr = group["conv_id"].to_numpy()
    kind_arr = group["kind"].to_numpy()  # int8 codes (extract.KIND_CODE)
    turn_arr = group["turn_idx"].to_numpy()
    pay_arr = group["payload"].to_numpy()

    n = len(conv_arr)
    if n == 0:
        return RECORD_SCHEMA.empty_table()
    # conversation runs + first-index-per-kind, fully vectorized (the
    # round-2 version walked EVERY row in Python — this is the records
    # stage's hot path); Python survives only in the per-conversation
    # chemicals dict-dedup (genuinely order-dependent, output-sized)
    run_starts = np.concatenate(
        ([0], np.flatnonzero(conv_arr[1:] != conv_arr[:-1]) + 1)
    )
    n_runs = len(run_starts)
    run_of_row = np.zeros(n, np.int64)
    run_of_row[run_starts[1:]] = 1
    np.cumsum(run_of_row, out=run_of_row)

    def first_idx(kind: str) -> np.ndarray:
        rows = np.flatnonzero(kind_arr == KIND_CODE[kind])
        out = np.full(n_runs, -1, np.int64)
        if rows.size:
            runs, firsts = np.unique(run_of_row[rows], return_index=True)
            out[runs] = rows[firsts]
        return out

    mat_idx = first_idx("MATERIAL")
    prod_idx = first_idx("PRODUCT_NO")
    upc_idx = first_idx("UPC")
    geo_idx = first_idx("SUPPLIER_GEO")
    chem_rows = np.flatnonzero(kind_arr == KIND_CODE["CHEMICAL"])
    chem_run = run_of_row[chem_rows]
    # per-run chem row groups: chem_rows is run-sorted, so one diff+split
    run_to_chems: Dict[int, np.ndarray] = {}
    if chem_rows.size:
        cuts = np.flatnonzero(np.diff(chem_run)) + 1
        groups = np.split(chem_rows, cuts)
        group_runs = chem_run[np.concatenate(([0], cuts))]
        run_to_chems = dict(zip(group_runs.tolist(), groups))

    for r in range(n_runs):
        lo = int(run_starts[r])
        mi = int(mat_idx[r])
        chem_idx = run_to_chems.get(r)
        if mi < 0 or chem_idx is None:
            # empty-material / empty-chemicals raise -> conv dropped, but
            # AUDITED: an error row replaces the reference's exception
            matf = unpack_payload_str(pay_arr[mi]) if mi >= 0 else None
            out_conv.append(conv_arr[lo])
            out_turn.append(int(turn_arr[lo]))
            out_name.append(None if mi < 0 else matf[0])
            out_mfr.append(None if mi < 0 else matf[1])
            out_geo.append(None)
            out_chems.append([])
            out_reason.append("EMPTY_MATERIAL" if mi < 0 else "EMPTY_CHEMICALS")
            continue

        pi, ui = int(prod_idx[r]), int(upc_idx[r])
        matf = unpack_payload_str(pay_arr[mi])
        combined = combine_material_name(
            matf[0],
            unpack_payload_str(pay_arr[pi])[0] if pi >= 0 else None,
            unpack_payload_str(pay_arr[ui])[0] if ui >= 0 else None,
        )

        # dict-comprehension dedup: first-occurrence key order, last-wins value
        dedup: Dict[str, dict] = {}
        for i in chem_idx:
            name, cas, comp, tag, src = unpack_payload_str(pay_arr[i])
            dedup[name] = {
                "name": name,
                "cas": cas or None,  # "" travels for absent CAS (M9)
                "composition": comp,
                "tag": tag,
                "source": src,
                "turn_idx": int(turn_arr[i]),
            }
        out_conv.append(conv_arr[lo])
        out_turn.append(int(turn_arr[mi]))
        out_name.append(combined)
        out_mfr.append(matf[1])
        gi = int(geo_idx[r])
        out_geo.append(
            dict(zip(GEO_FIELDS, unpack_payload_str(pay_arr[gi])[1:7]))
            if gi >= 0 else None
        )
        # dict preserves FIRST-occurrence key order across overwrites, so
        # enumerate() is the reference's processing order (see CHEMICAL_STRUCT)
        out_chems.append(
            [{**chem, "pos": j} for j, chem in enumerate(dedup.values())]
        )
        out_reason.append(None)

    return pa.table(
        {
            "conv_id": pa.array(out_conv, pa.string()),
            "turn_idx": pa.array(out_turn, pa.int32()),
            "material_name": pa.array(out_name, pa.string()),
            "manufacturer": pa.array(out_mfr, pa.string()),
            "geo": pa.array(out_geo, GEO_TYPE),
            "chemicals": pa.array(out_chems, pa.list_(CHEMICAL_STRUCT)),
            "drop_reason": pa.array(out_reason, pa.string()),
        },
        schema=RECORD_SCHEMA,
    )


def dedup_records(records_ds, n_buckets: int = 64, reread_safe: bool = False):
    """The J1 anti-join guard as a DECISION shuffle: the reference raises
    MATERIAL_ALREADY_INGESTED when a document's (normalized combined material
    name, manufacturer name) already exists and ROLLS BACK the whole document
    (check_if_material_already_ingested -> save_msds except-path,
    artifact_ingestor_service.py:979-989, 606-610) — so only the FIRST
    conversation per material identity contributes anything to the graph.
    Deterministic replacement for arrival order: min (conv_id, turn_idx).

    Losers are NOT dropped: they survive with drop_reason =
    MATERIAL_ALREADY_INGESTED (and chemicals emptied, matching the
    reference's whole-document rollback) so the drop is auditable via the
    errors side-channel. Rows already carrying a drop_reason from assembly
    pass through on a per-conversation key (they never had a material
    identity to compete on).

    Scale shape (round 5): the full record payload (incl. the chemicals
    list<struct>) never crosses an exchange just to decide first-per-key.

      1. map-side partial: one (mat_key, min order_key, count) row per
         DISTINCT clean key per batch — the decision exchange is key-
         cardinality sized, not record sized (measured 62 MB -> ~2 MB of
         the records stage's shuffle volume at 120k convs);
      2. a mat_key-bucketed reduce keeps only CONTESTED identities
         (global count > 1) as (mat_key, win_key) — dup-fraction sized;
      3. records LEFT-lookup_join that table: broadcast (zero shuffle)
         while contested identities fit the gates, Bloom-pruned bucket
         join past them — never worse than the old full-payload shuffle.

    Correctness hinges on order_key uniqueness among clean rows: assembly
    emits exactly ONE record per conv_id, so '<conv>|<turn>' never ties —
    the unique winner is the row whose order_key equals the group min.

    ``reread_safe=False`` materializes the input first: both phases consume
    it, and a lazy extract->assemble chain must not run twice. Pass True
    when the input is already parquet/parts-backed (the checkpointed build
    path), where a second scan is just a cheap re-read."""
    import pyarrow.compute as pc

    from ..functions.arrowutil import rename_agg
    from ..functions.decision_tables import normalize_name_key
    from .linking import order_key_array
    from .shuffle import bucket_group_apply, lookup_join

    if not reread_safe:
        records_ds = records_ds.materialize()

    def add_keys(batch: pa.Table) -> pa.Table:
        mat = batch.column("material_name").to_pylist()
        mfr = batch.column("manufacturer").to_pylist()
        conv = batch.column("conv_id").to_pylist()
        reason = batch.column("drop_reason").to_pylist()
        keys = [
            # error rows get a conversation-unique key: no identity contest
            "\x00ERR\x1f" + c if r is not None
            else normalize_name_key(m) + "\x1f" + f
            for m, f, c, r in zip(mat, mfr, conv, reason)
        ]
        t = batch.append_column("mat_key", pa.array(keys, pa.string()))
        return t.append_column("order_key", order_key_array(batch))

    keyed = records_ds.map_batches(add_keys, batch_format="pyarrow")

    def contest_partial(batch: pa.Table) -> pa.Table:
        t = add_keys(batch)
        clean = t.filter(pc.is_null(t.column("drop_reason")))
        agg = pa.TableGroupBy(clean.select(["mat_key", "order_key"]), "mat_key").aggregate(
            [("order_key", "min"), ("mat_key", "count")]
        )
        return rename_agg(
            agg, {"mat_key": "mat_key", "order_key_min": "win_key", "mat_key_count": "n"}
        )

    # the decision pass never touches the heavy payload columns (chemicals
    # list<struct>, geo): a projected scan reads only the five key columns —
    # Ray pushes select_columns into the parquet read on the parts-backed
    # path, and projects object-store blocks zero-copy on the materialized one
    decision_cols = ["conv_id", "turn_idx", "material_name", "manufacturer",
                     "drop_reason"]
    partials = records_ds.select_columns(decision_cols).map_batches(
        contest_partial, batch_format="pyarrow"
    )

    def contested(bucket: pa.Table, bucket_id: int) -> pa.Table:
        agg = pa.TableGroupBy(bucket, "mat_key").aggregate(
            [("win_key", "min"), ("n", "sum")]
        )
        t = rename_agg(agg, {"mat_key": "mat_key", "win_key_min": "win_key", "n_sum": "n"})
        return t.filter(pc.greater(t.column("n"), 1)).select(["mat_key", "win_key"])

    dup_groups = bucket_group_apply(partials, ["mat_key"], contested, n_buckets)

    joined = lookup_join(
        keyed, dup_groups, key="mat_key", how="left",
        n_buckets=n_buckets, unique_right=True,
    )

    def apply_guard(batch: pa.Table) -> pa.Table:
        win = batch.column("win_key")
        is_dup = pc.fill_null(
            pc.and_kleene(
                pc.is_null(batch.column("drop_reason")),
                pc.not_equal(batch.column("order_key"), win),
            ),
            False,
        )
        reason = pc.if_else(
            is_dup,
            pa.scalar("MATERIAL_ALREADY_INGESTED", pa.string()),
            batch.column("drop_reason"),
        )
        # rollback semantics: a duplicate's chemicals contribute nothing
        # (if_else lacks list<struct> kernels, so patch dup slots in Python —
        # dup rows are a small minority of any batch)
        chems = batch.column("chemicals")
        dup_mask = is_dup.to_pylist()
        if any(dup_mask):
            chem_list = chems.to_pylist()
            for i, d in enumerate(dup_mask):
                if d:
                    chem_list[i] = []
            chems = pa.chunked_array([pa.array(chem_list, pa.list_(CHEMICAL_STRUCT))])
        out = batch.set_column(
            batch.schema.get_field_index("drop_reason"), "drop_reason", reason
        )
        out = out.set_column(
            out.schema.get_field_index("chemicals"), "chemicals", chems
        )
        return out.select(RECORD_SCHEMA.names).cast(RECORD_SCHEMA)

    return joined.map_batches(apply_guard, batch_format="pyarrow")
