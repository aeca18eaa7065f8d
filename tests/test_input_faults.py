"""Inputs that used to raise: ``build_kg`` over a list of directories, and
``knn_cosine`` with query ids that are not in the table."""

import os
import shutil

import duckdb
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from entity_extractor_ray.pipelines.kg_build import build_kg
from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, generate_turns
from entity_extractor_ray.stages.similarity import knn_cosine, knn_cosine_sql


@pytest.fixture(scope="module")
def split_corpus(tmp_path_factory):
    """A prior and a delta directory cut from one seeded corpus, plus a
    third directory holding copies of both sides' files."""
    root = tmp_path_factory.mktemp("split")
    spec = TurnCorpusSpec(n_convs=60, seed=11)
    dirs = {k: str(root / k) for k in ("prior", "delta", "union")}
    for d in dirs.values():
        os.makedirs(d)
    for name, rng in (("prior", (0, 45)), ("delta", (45, 60))):
        t = generate_turns(spec, rng)
        half = t.num_rows // 2
        for i, part in enumerate((t.slice(0, half), t.slice(half))):
            path = os.path.join(dirs[name], f"part{i}.parquet")
            pq.write_table(part, path)
            shutil.copyfile(path, os.path.join(dirs["union"], f"{name}_part{i}.parquet"))
    return dirs


def _rows(ds):
    return sorted(repr(sorted(r.items())) for r in ds.take_all())


def test_build_over_a_list_of_directories(ray_session, split_corpus, tmp_path):
    kw = {"n_buckets": 4, "num_join_partitions": 2}
    got = build_kg([split_corpus["prior"], split_corpus["delta"]],
                   out_dir=str(tmp_path / "listed"), **kw)
    want = build_kg(split_corpus["union"], out_dir=str(tmp_path / "union"), **kw)
    assert got.triples.count() > 0
    for name in ("triples", "nodes", "edges", "lineage", "manufacturers", "errors"):
        assert _rows(getattr(got, name)) == _rows(getattr(want, name)), name


@pytest.fixture(scope="module")
def emb_without_first_ids(tmp_path_factory, sf_dir):
    """The test embeddings without vec_id 0-2, as a parquet file."""
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    t = t.filter(pc.greater_equal(t.column("vec_id"), 3))
    path = str(tmp_path_factory.mktemp("emb") / "embeddings.parquet")
    pq.write_table(t, path)
    return path


def _oracle(path, query_ids, k):
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{path}')")
    return con.execute(knn_cosine_sql(query_ids, k=k)).df()


def _canon(df):
    return (df[["query_id", "vec_id", "cos_sim"]].astype(
        {"query_id": "int64", "vec_id": "int64", "cos_sim": "float64"})
        .sort_values(["query_id", "vec_id"]).reset_index(drop=True))


def test_knn_cosine_skips_missing_query_ids(ray_session, emb_without_first_ids):
    import ray.data as rd

    ids = [0, 1, 2, 5, 7]
    got = knn_cosine(rd.read_parquet(emb_without_first_ids), query_ids=ids, k=4)
    want = _oracle(emb_without_first_ids, ids, 4)
    assert sorted(set(want["query_id"])) == [5, 7]
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_knn_cosine_all_ids_missing_is_empty(ray_session, emb_without_first_ids):
    import ray.data as rd

    got = knn_cosine(rd.read_parquet(emb_without_first_ids), query_ids=[0, 1, 2], k=4)
    assert len(got) == 0 and len(_oracle(emb_without_first_ids, [0, 1, 2], 4)) == 0
    assert list(got.columns) == ["query_id", "vec_id", "cos_sim"]
    assert [str(t) for t in got.dtypes] == ["int64", "int64", "float64"]
