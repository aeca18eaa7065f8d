"""Incremental ingest: ingest_delta(B, prior=build_kg(A)) must equal
build_kg(A ++ B) EXACTLY on every output table — the merge theorem the
operator's docstring claims."""

import glob
import os

import pandas as pd
import pyarrow.parquet as pq
import pytest


def _table_set(ds, cols=None):
    df = ds.to_pandas()
    if cols:
        df = df[cols]
    df = df.reindex(sorted(df.columns), axis=1)
    return set(map(tuple, df.fillna("<NULL>").to_numpy().tolist()))


REPLAY = "conv-replay"  # sorts before every "conv000123"


def _split(base, delta_first: bool):
    """The standard deterministic corpus split into two parts by conv rank,
    written as separate parquet dirs (plus the full corpus): the prior
    holds the first two thirds of the conv_ids, or with ``delta_first`` the
    last two thirds, so the delta's conv_ids sort after or before it."""
    from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, write_turns

    full_dir = write_turns(str(base / "full"), TurnCorpusSpec(n_convs=120, seed=42),
                           num_files=3)
    # read the whole corpus and split on conv rank
    import pyarrow as pa

    tables = [pq.read_table(f) for f in sorted(glob.glob(os.path.join(full_dir, "*.parquet")))]
    allt = pa.concat_tables(tables)
    convs = sorted(set(allt.column("conv_id").to_pylist()))
    cut = set(convs[len(convs) // 3:] if delta_first else convs[: len(convs) * 2 // 3])
    import pyarrow.compute as pc

    mask = pc.is_in(allt.column("conv_id"), value_set=pa.array(sorted(cut)))
    a_t = allt.filter(mask)
    b_t = allt.filter(pc.invert(mask))
    if delta_first:
        # the delta also re-describes a prior winner's material under a
        # conv_id sorting before every other: the delta copy must win J1
        # and the prior conversation must drop, as in the full build
        from entity_extractor_ray import oracle as orc

        winner = orc.run_oracle(a_t).triples[0][0]
        replay = a_t.filter(pc.equal(a_t.column("conv_id"), winner))
        replay = replay.set_column(
            replay.schema.get_field_index("conv_id"), "conv_id",
            pa.array([REPLAY] * replay.num_rows, pa.string()),
        )
        b_t = pa.concat_tables([b_t, replay])
        pq.write_table(replay, os.path.join(full_dir, "replay.parquet"))
    a_dir = base / "a"
    b_dir = base / "b"
    os.makedirs(a_dir); os.makedirs(b_dir)
    pq.write_table(a_t, str(a_dir / "part0.parquet"))
    pq.write_table(b_t, str(b_dir / "part0.parquet"))
    return str(a_dir), str(b_dir), full_dir, str(base / "prior_out")


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    return _split(tmp_path_factory.mktemp("delta"), delta_first=False)


@pytest.fixture(scope="module")
def split_corpus_delta_first(tmp_path_factory):
    return _split(tmp_path_factory.mktemp("delta_first"), delta_first=True)


def _check_delta_equals_full_build(split):
    from entity_extractor_ray.pipelines.kg_build import build_kg, ingest_delta

    a_dir, b_dir, full_dir, prior_out = split
    full = build_kg(full_dir, out_dir=None, n_buckets=8, num_join_partitions=4)
    prior = build_kg(a_dir, out_dir=prior_out, n_buckets=8, num_join_partitions=4)
    merged = ingest_delta(b_dir, prior_out, n_buckets=8, num_join_partitions=4)

    assert _table_set(merged.nodes) == _table_set(full.nodes)
    assert _table_set(merged.edges) == _table_set(full.edges)
    assert _table_set(merged.triples) == _table_set(full.triples)
    assert _table_set(merged.manufacturers) == _table_set(full.manufacturers)
    assert _table_set(merged.lineage) == _table_set(full.lineage)
    assert _table_set(merged.errors) == _table_set(full.errors)
    # the delta genuinely contributed (B is not empty noise)
    prior_nodes = _table_set(prior.nodes)
    assert len(_table_set(merged.nodes)) > len(prior_nodes)
    # the delta runs the build's stage table: one record per stage, in order
    def stages(res):
        return [m["stage"] for m in res.metrics if m["partition_id"] == -1]

    assert stages(merged) == stages(full)
    assert stages(merged)[:5] == ["records", "chem_mapping", "linked", "chem_status", "edges"]
    assert all(m["rows_out"] > 0 for m in merged.metrics[:5])
    return merged


@pytest.mark.usefixtures("ray_session")
def test_delta_equals_full_build(split_corpus):
    _check_delta_equals_full_build(split_corpus)


@pytest.mark.usefixtures("ray_session")
def test_delta_sorting_before_the_prior_equals_full_build(split_corpus_delta_first):
    """The J1 first-wins guard and the status fold are keyed on order, so a
    delta whose conv_ids sort BEFORE the prior's must take over the prior's
    winners exactly as the full build does."""
    merged = _check_delta_equals_full_build(split_corpus_delta_first)
    errs = merged.errors.to_pandas()
    dropped = set(errs[errs["reason"] == "MATERIAL_ALREADY_INGESTED"]["key"])
    assert dropped and REPLAY not in dropped  # the prior's winner lost J1


@pytest.mark.usefixtures("ray_session")
def test_delta_guard_drops_reingested_material(split_corpus, tmp_path):
    """A delta conversation re-describing a material already in the prior
    graph must drop with MATERIAL_ALREADY_INGESTED (reference J1 guard)."""
    import pyarrow as pa

    from entity_extractor_ray.pipelines.kg_build import ingest_delta

    a_dir, b_dir, full_dir, prior_out = split_corpus
    # replay one prior conversation under a NEW conv id (sorting after all)
    src = pq.read_table(os.path.join(a_dir, "part0.parquet"))
    conv0 = sorted(set(src.column("conv_id").to_pylist()))[0]
    import pyarrow.compute as pc

    rows = src.filter(pc.equal(src.column("conv_id"), conv0))
    n = rows.num_rows
    rows = rows.set_column(
        rows.schema.get_field_index("conv_id"), "conv_id",
        pa.array(["zzz_replay"] * n, pa.string()),
    )
    d = tmp_path / "replay"
    os.makedirs(d)
    pq.write_table(rows, str(d / "part0.parquet"))
    merged = ingest_delta(str(d), prior_out, n_buckets=8, num_join_partitions=4)
    errs = merged.errors.to_pandas()
    dup = errs[(errs["key"] == "zzz_replay")
               & (errs["reason"] == "MATERIAL_ALREADY_INGESTED")]
    assert len(dup) == 1
