"""Round-2 regression tests for the round-1 ADVICE findings:

  * bucket_hash_join widen_left/widen_right schema alignment + inner/left
    correctness (shuffle.py);
  * lookup_join falls back to the bucket join when right-side keys are
    non-unique instead of dying at probe time (shuffle.py);
  * checkpoint fingerprints include the INPUT data identity, so a changed
    input invalidates stale stage outputs (state/checkpoint.py + kg_build);
  * textstats SQL oracles are null-safe (COALESCE parity with Python);
  * union-find chain granularity divergence is pinned (test_linking_chains
    covers the adversarial chain separately).
"""

import os

import pandas as pd
import pyarrow as pa
import pytest


def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


@pytest.mark.usefixtures("ray_session")
class TestBucketHashJoin:
    def _sides(self):
        left = pa.table({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
        right = pa.table({"k": [2, 3, 3, 9], "rv": [20, 30, 31, 90]})
        return _ds(left), _ds(right)

    def test_inner_with_duplicate_right_keys(self):
        from entity_extractor_ray.stages.shuffle import bucket_hash_join

        left, right = self._sides()
        out = bucket_hash_join(left, right, key="k", n_buckets=4).to_pandas()
        got = sorted(map(tuple, out[["k", "lv", "rv"]].itertuples(index=False)))
        assert got == [(2, "b", 20), (3, "c", 30), (3, "c", 31)]

    def test_left_join_nulls_on_miss(self):
        from entity_extractor_ray.stages.shuffle import bucket_hash_join

        left, right = self._sides()
        out = bucket_hash_join(left, right, key="k", how="left", n_buckets=4).to_pandas()
        assert len(out) == 5  # 1,4 miss; 2 hits once; 3 hits twice
        misses = out[out["rv"].isna()]["k"].tolist()
        assert sorted(misses) == [1, 4]

    def test_union_sides_share_one_schema(self):
        # widen_right must emit columns in widen_left's order: assert the
        # join result schema is (left cols..., right cols...) exactly
        from entity_extractor_ray.stages.shuffle import bucket_hash_join

        left, right = self._sides()
        out = bucket_hash_join(left, right, key="k", n_buckets=4)
        assert out.schema().names == ["k", "lv", "rv"]


@pytest.mark.usefixtures("ray_session")
class TestLookupJoinDuplicates:
    def test_duplicate_right_keys_fall_back_to_bucket_join(self):
        from entity_extractor_ray.stages.shuffle import lookup_join

        left = _ds(pa.table({"k": [1, 2, 3], "lv": ["a", "b", "c"]}))
        right = _ds(pa.table({"k": [2, 2, 3], "rv": [20, 21, 30]}))
        out = lookup_join(left, right, key="k").to_pandas()
        got = sorted(map(tuple, out[["k", "lv", "rv"]].itertuples(index=False)))
        assert got == [(2, "b", 20), (2, "b", 21), (3, "c", 30)]

    def test_unique_right_keys_still_broadcast(self):
        from entity_extractor_ray.stages.shuffle import lookup_join

        left = _ds(pa.table({"k": [1, 2, 3], "lv": ["a", "b", "c"]}))
        right = _ds(pa.table({"k": [2, 3], "rv": [20, 30]}))
        out = lookup_join(left, right, key="k", how="left").to_pandas()
        assert len(out) == 3
        rv = out.set_index("k")["rv"]
        assert rv[2] == 20 and rv[3] == 30
        # the miss row survives with a NULL right-hand value (the masked
        # vectorized take path, not a Python per-row rebuild)
        assert pd.isna(rv[1])

    def test_left_broadcast_all_hits(self):
        from entity_extractor_ray.stages.shuffle import lookup_join

        left = _ds(pa.table({"k": [2, 3], "lv": ["b", "c"]}))
        right = _ds(pa.table({"k": [2, 3], "rv": [20, 30]}))
        out = lookup_join(left, right, key="k", how="left").to_pandas()
        assert out.set_index("k")["rv"].to_dict() == {2: 20, 3: 30}


@pytest.mark.usefixtures("ray_session")
class TestInputFingerprint:
    def test_changed_input_invalidates_checkpoint(self, tmp_path):
        import pyarrow.parquet as pq

        from entity_extractor_ray.state.checkpoint import input_fingerprint

        src = tmp_path / "in"
        src.mkdir()
        pq.write_table(pa.table({"x": [1, 2]}), str(src / "a.parquet"))
        fp1 = input_fingerprint(str(src))
        # same content, unchanged -> stable
        assert input_fingerprint(str(src)) == fp1
        # rewrite the file (size or mtime change) -> different fingerprint
        pq.write_table(pa.table({"x": [1, 2, 3]}), str(src / "a.parquet"))
        assert input_fingerprint(str(src)) != fp1

    def test_kg_build_rerun_detects_new_input(self, tmp_path):
        """build_kg with the same out_dir but a regenerated corpus must
        rebuild, not serve stale outputs."""
        from entity_extractor_ray.pipelines.kg_build import build_kg
        from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, write_turns

        corpus = str(tmp_path / "turns")
        out_dir = str(tmp_path / "kg")
        write_turns(corpus, TurnCorpusSpec(n_convs=8, seed=1), num_files=1)
        r1 = build_kg(corpus, out_dir=out_dir, n_buckets=4, num_join_partitions=4)
        names1 = {r["name"] for r in r1.nodes.take_all()}
        # regenerate with a different seed: different entities
        write_turns(corpus, TurnCorpusSpec(n_convs=8, seed=2), num_files=1)
        r2 = build_kg(corpus, out_dir=out_dir, n_buckets=4, num_join_partitions=4)
        names2 = {r["name"] for r in r2.nodes.take_all()}
        assert names1 and names1 != names2  # stale outputs NOT served


@pytest.mark.usefixtures("ray_session")
class TestNullSafeTextstatsOracles:
    def test_sql_matches_python_on_null_text(self):
        import duckdb

        from entity_extractor_ray.stages import textstats as ts

        docs = pd.DataFrame({"doc_id": [1, 2], "text": ["the cat and dog", None]})
        con = duckdb.connect()
        con.register("documents", docs)

        py = ts.token_counts(docs.copy()).sort_values("doc_id").reset_index(drop=True)
        sql = con.execute(ts.token_counts_sql()).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(py, sql, check_dtype=False)

        py_q = ts.quality_features(docs.copy()).sort_values("doc_id").reset_index(drop=True)
        sql_q = con.execute(ts.quality_features_sql()).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(py_q, sql_q, check_dtype=False)

        py_l = ts.lang_id(docs.copy()).sort_values("doc_id").reset_index(drop=True)
        sql_l = con.execute(ts.lang_id_sql()).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(py_l, sql_l, check_dtype=False)

        py_f = ts.exact_fingerprints(docs.copy()).sort_values("doc_id").reset_index(drop=True)
        sql_f = con.execute(ts.exact_fingerprints_sql()).df().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(py_f, sql_f, check_dtype=False)


# --------------------------------------------------------------- round 3


@pytest.mark.usefixtures("ray_session")
class TestPropagationConvergenceGuard:
    def test_long_chain_converges_and_labels_min(self):
        from entity_extractor_ray.stages.dedup import propagate_min_labels

        # path graph 0-1-2-...-9: one component, min label 0
        pairs = _ds(pa.table({"id_a": list(range(9)), "id_b": list(range(1, 10))}))
        labels = propagate_min_labels(pairs, n_buckets=4).to_pandas()
        assert set(labels["label"]) == {0}
        assert len(labels) == 10

    def test_nonconvergence_raises_not_silent(self):
        from entity_extractor_ray.stages.dedup import propagate_min_labels

        # diameter > max_rounds: partially-propagated labels must NOT ship
        pairs = _ds(pa.table({"id_a": list(range(9)), "id_b": list(range(1, 10))}))
        with pytest.raises(RuntimeError, match="did not converge"):
            propagate_min_labels(pairs, n_buckets=4, max_rounds=2)


@pytest.mark.usefixtures("ray_session")
class TestLookupJoinByteGate:
    def test_large_payload_routes_to_bucket_join(self, monkeypatch):
        """A right side under the ROW gate but over the BYTE gate must take
        the shuffle join, not replicate multi-MB blobs per worker."""
        from entity_extractor_ray.stages import shuffle as sh

        called = {}
        orig = sh.bucket_hash_join

        def spy(*a, **kw):
            called["hit"] = True
            return orig(*a, **kw)

        monkeypatch.setattr(sh, "bucket_hash_join", spy)
        left = _ds(pa.table({"k": [1, 2, 3], "lv": ["a", "b", "c"]}))
        right = _ds(pa.table({"k": [1, 2], "blob": ["x" * 4096, "y" * 4096]}))
        out = sh.lookup_join(
            left, right, key="k", how="left", broadcast_bytes_limit=1024
        ).to_pandas()
        assert called.get("hit") is True
        assert len(out) == 3
        got = out.set_index("k")["blob"].to_dict()
        assert got[1] == "x" * 4096 and pd.isna(got[3])

    def test_small_payload_still_broadcasts(self, monkeypatch):
        from entity_extractor_ray.stages import shuffle as sh

        def fail(*a, **kw):
            raise AssertionError("small right side must broadcast")

        monkeypatch.setattr(sh, "bucket_hash_join", fail)
        left = _ds(pa.table({"k": [1, 2], "lv": ["a", "b"]}))
        right = _ds(pa.table({"k": [1], "rv": [10]}))
        out = sh.lookup_join(left, right, key="k", how="left").to_pandas()
        assert len(out) == 2


@pytest.mark.usefixtures("ray_session")
class TestAsofTieContract:
    def test_duplicate_right_pairs_raise(self):
        import ray.data as rd

        from entity_extractor_ray.stages.windows import asof_join

        left = rd.from_arrow(pa.table({"k": [1], "t": [20]}))
        right = rd.from_arrow(
            pa.table({"k": [1, 1], "t": [10, 10], "tag": ["a", "b"]})
        )
        with pytest.raises(Exception, match="unique right-side"):
            asof_join(left, right, by="k", on="t",
                      right_cols={"tag": "asof_tag"}, n_buckets=2).take_all()

    def test_events_asof_click_dedups_ties(self, tmp_path):
        """Two clicks sharing (user_id, ts): the query keeps max event_id —
        deterministic, instead of an engine-vs-oracle arbitrary-tie break."""
        import pyarrow.parquet as pq

        from entity_extractor_ray.pipelines.relational import events_asof_click

        ts = pd.Timestamp("2024-01-01 00:00:00")
        events = pa.table(
            {
                "user_id": pa.array([7, 7, 7], pa.int64()),
                "event_id": pa.array([1, 2, 3], pa.int64()),
                "ts": pa.array(
                    [ts, ts, ts + pd.Timedelta(minutes=5)], pa.timestamp("us")
                ),
                "event_type": pa.array(["click", "click", "view"], pa.string()),
            }
        )
        pq.write_table(events, str(tmp_path / "events.parquet"))
        out = events_asof_click(str(tmp_path)).to_pandas()
        row = out[out["event_id"] == 3].iloc[0]
        assert row["click_event_id"] == 2  # max event_id wins the tie


class TestLinkingNullKeyGuard:
    def test_local_distinct_keys_raises_on_null(self):
        from entity_extractor_ray.stages.linking import _local_distinct_keys

        batch = pa.table(
            {
                "manufacturer": pa.array(["m", None], pa.string()),
                "name": pa.array(["a", "b"], pa.string()),
                "cas": pa.array(["", ""], pa.string()),
                "order_key": pa.array(["c|1", "c|2"], pa.string()),
            }
        )
        with pytest.raises(ValueError, match="contains nulls"):
            _local_distinct_keys(batch)

    def test_merge_distinct_keys_raises_on_null(self):
        from entity_extractor_ray.stages.linking import _merge_distinct_keys

        df = pd.DataFrame(
            {
                "manufacturer": ["m", "m"],
                "name": ["a", None],
                "cas": ["", ""],
                "min_order": ["c|1", "c|2"],
                "max_order": ["c|1", "c|2"],
            }
        )
        with pytest.raises(ValueError, match="contains nulls"):
            _merge_distinct_keys(df)


class TestMentionBoundary:
    def test_unterminated_quote_no_false_positive(self):
        from entity_extractor_ray.stages.extract import MentionDetector

        det = MentionDetector()
        batch = pa.table(
            {
                "conv_id": pa.array(["c1", "c2"], pa.string()),
                "turn_idx": pa.array([0, 0], pa.int32()),
                # row 0 ends in an unterminated quote: the corpus join would
                # close it against the separator's leading '"' — a NUL-free
                # capture the per-row path never produces
                "text": pa.array(
                    ['It contains ingredient "Foo', 'plain filler text'],
                    pa.string(),
                ),
            }
        )
        out = det(batch)
        assert out.num_rows == 0

    def test_corpus_join_equals_per_row(self):
        from entity_extractor_ray.stages.extract import MentionDetector

        det = MentionDetector()
        texts = [
            'We are reviewing material "M1" supplied by "Acme".',
            'It contains ingredient "PFOA" with CAS 335-67-1 at 1.5% tagged PFAS (source OECD).',
            'dangling material "Open',
            'trailing supplied by "',
        ]
        batch = pa.table(
            {
                "conv_id": pa.array([f"c{i}" for i in range(len(texts))], pa.string()),
                "turn_idx": pa.array([0] * len(texts), pa.int32()),
                "text": pa.array(texts, pa.string()),
            }
        )
        joined = det(batch).to_pydict()
        per_row_tables = [det(batch.slice(i, 1)) for i in range(len(texts))]
        per_row = pa.concat_tables(per_row_tables).to_pydict()
        key = lambda d: sorted(zip(d["conv_id"], d["label"], d["mention"], d["span_start"], d["span_end"]))
        assert key(joined) == key(per_row)


@pytest.mark.usefixtures("ray_session")
class TestExactCosineGate:
    def test_raises_above_gate_by_default(self):
        from entity_extractor_ray.stages.dedup import embedding_cosine_pairs

        embs = _ds(
            pa.table(
                {
                    "vec_id": pa.array([0, 1, 2], pa.int64()),
                    "embedding": pa.array([[1.0, 0.0]] * 3, pa.list_(pa.float64())),
                }
            )
        )
        with pytest.raises(ValueError, match="allow_approx"):
            embedding_cosine_pairs(embs, threshold=0.9, max_exact_rows=2)

    def test_allow_approx_routes_to_lsh(self):
        from entity_extractor_ray.stages.dedup import embedding_cosine_pairs

        embs = _ds(
            pa.table(
                {
                    "vec_id": pa.array([0, 1, 2], pa.int64()),
                    "embedding": pa.array(
                        [[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]], pa.list_(pa.float64())
                    ),
                }
            )
        )
        out = embedding_cosine_pairs(
            embs, threshold=0.9, max_exact_rows=2, allow_approx=True
        ).to_pandas()
        assert {(0, 1)} == set(zip(out["id_a"], out["id_b"]))


class TestUnbiasedBucketCap:
    def test_cap_keeps_id_uniform_sample(self):
        import numpy as np

        from entity_extractor_ray.functions.pairs import capped_members

        ids = np.arange(10_000, dtype=np.int64)
        group = np.zeros(len(ids), dtype=np.int64)  # one oversized bucket
        kept = ids[capped_members([group], ids, 1000, "unit", 0)]
        assert len(kept) == 1000 and len(np.unique(kept)) == 1000
        # an ids[:cap] slice keeps NOTHING above 999; the hash-order slice
        # must keep a roughly uniform spread across the id range
        assert (kept >= 5000).sum() > 350
        # deterministic across calls
        assert (kept == ids[capped_members([group], ids, 1000, "unit", 0)]).all()


@pytest.mark.usefixtures("ray_session")
class TestChemProcessingOrder:
    def test_name_variant_order_matches_oracle(self, tmp_path):
        """A conversation mentioning name-variants A, a, A of ONE CAS entity:
        the reference processes the record's chemicals in A1 dict order
        (first occurrence of each name), not turn order — the edge weight,
        canonical name and fold order must match the serial oracle exactly
        (round-3 regression: turn-ordered last-wins picked the wrong
        weight)."""
        import pyarrow.parquet as pq

        from entity_extractor_ray import oracle as orc
        from entity_extractor_ray.pipelines.kg_build import build_kg

        turns = pa.table(
            {
                "conv_id": pa.array(["c1"] * 5, pa.string()),
                "turn_idx": pa.array([0, 1, 2, 3, 4], pa.int32()),
                "text": pa.array(
                    [
                        'We are reviewing material "M1" supplied by "V1".',
                        'It contains ingredient "Solvent X" with CAS 1017-18-7 at 55.7% tagged UNKNOWN (source MANUAL).',
                        'filler',
                        'It contains ingredient "solvent x" with CAS 1017-18-7 at 21.6% tagged UNKNOWN (source MANUAL).',
                        'It contains ingredient "Solvent X" with CAS 1017-18-7 at 29.9% tagged UNKNOWN (source MANUAL).',
                    ],
                    pa.string(),
                ),
            }
        )
        path = str(tmp_path / "turns")
        import os

        os.makedirs(path)
        pq.write_table(turns, os.path.join(path, "part-0.parquet"))
        res = build_kg(path, out_dir=None, n_buckets=4, num_join_partitions=4)
        store = orc.run_oracle(turns)
        eng_edges = {
            (r["src"], r["dst"], r["pred"], r["weight"]) for r in res.edges.take_all()
        }
        orc_edges = {
            (d["src"], d["dst"], d["pred"], d["weight"])
            for d in orc.oracle_edges(store)
        }
        assert eng_edges == orc_edges
        # reference dict order: "Solvent X" (pos 0, last value 29.9) then
        # "solvent x" (pos 1, 21.6) -> the upsert's LAST write is 21.6
        weights = {w for (_, _, p, w) in eng_edges if p == "CONTAINS"}
        assert weights == {"21.6"}
        eng_nodes = {
            (r["name"], r["cas_number"]) for r in res.nodes.take_all()
            if r["node_type"] == "CHEMICAL"
        }
        orc_nodes = {
            (d["name"], d["cas_number"]) for d in orc.oracle_nodes(store)
            if d["node_type"] == "CHEMICAL"
        }
        assert eng_nodes == orc_nodes == {("Solvent X", "1017-18-7")}
