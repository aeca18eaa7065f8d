"""kNN graph (exact + LSH) and MMR diversification pins: the exact graph
against a serial numpy reference, the LSH variant's recall against the exact
graph, the exactness gate contract, and MMR against a serial greedy
reference plus its defining diversity property."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _planted_ds(n_clusters=5, per=30, d=32, seed=7):
    import ray.data as rd

    rng = np.random.RandomState(seed)
    centers = rng.randn(n_clusters, d) * 4
    vecs, ids = [], []
    for c in range(n_clusters):
        pts = centers[c] + rng.randn(per, d) * 0.3
        vecs.append(pts)
        ids.extend(range(c * per, c * per + per))
    mat = np.vstack(vecs).astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    return rd.from_arrow(t).repartition(4), ids, mat


def _serial_knn_graph(ids, mat, k):
    """Brute-force reference with the engine's exact tie conventions."""
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], np.asarray(mat, dtype=np.float64)[order]
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    nm = mat / norms
    sims = np.round(nm @ nm.T, 6)
    np.fill_diagonal(sims, -2.0)
    rows = []
    for i in range(len(ids)):
        top = np.argsort(-sims[i], kind="stable")[:k]
        for r, j in enumerate(top, 1):
            if sims[i, j] <= -2.0:
                continue
            rows.append((ids[i], r, ids[j], sims[i, j]))
    return pd.DataFrame(rows, columns=["src_id", "nn_rank", "dst_id", "cos_sim"])


def _canon(df):
    return (
        df.sort_values(["src_id", "nn_rank"]).reset_index(drop=True)
        .astype({"src_id": "int64", "nn_rank": "int64", "dst_id": "int64"})
    )


@pytest.mark.usefixtures("ray_session")
class TestKnnGraphExact:
    def test_matches_serial_reference(self):
        from entity_extractor_ray.stages.similarity import knn_graph

        ds, ids, mat = _planted_ds()
        got = _canon(knn_graph(ds, k=5).to_pandas())
        want = _canon(_serial_knn_graph(ids, mat, k=5))
        pd.testing.assert_frame_equal(got, want)

    def test_gate_raises_and_routes(self):
        from entity_extractor_ray.stages.similarity import knn_graph

        ds, _, _ = _planted_ds(n_clusters=2, per=10)
        with pytest.raises(ValueError, match="EXACT"):
            knn_graph(ds, k=3, max_exact_rows=5)
        out = knn_graph(ds, k=3, max_exact_rows=5, allow_approx=True).to_pandas()
        assert set(out.columns) == {"src_id", "nn_rank", "dst_id", "cos_sim"}
        assert len(out) > 0

    def test_input_executes_once(self, tmp_path):
        """The row-count gate, the matrix collection and the scoring map
        read one execution of the input: its map runs once per block."""
        from entity_extractor_ray.stages.similarity import knn_graph

        log = tmp_path / "calls.txt"

        def counted(t: pa.Table) -> pa.Table:
            with open(str(log), "a") as fh:
                fh.write("x\n")
            return t

        ds, ids, mat = _planted_ds()
        got = _canon(knn_graph(ds.map_batches(counted, batch_format="pyarrow"),
                               k=5).to_pandas())
        pd.testing.assert_frame_equal(got, _canon(_serial_knn_graph(ids, mat, k=5)))
        assert len(log.read_text().splitlines()) == 4  # one call per block

    def test_small_corpus_fewer_than_k(self):
        from entity_extractor_ray.stages.similarity import knn_graph

        import ray.data as rd

        t = pa.table(
            {
                "vec_id": pa.array([1, 2, 3], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], pa.list_(pa.float32())
                ),
            }
        )
        out = knn_graph(rd.from_arrow(t), k=10).to_pandas()
        # each node can have at most N-1 = 2 neighbours, ranks contiguous
        assert sorted(out.groupby("src_id")["nn_rank"].max()) == [2, 2, 2]
        assert (out.groupby("src_id")["nn_rank"].apply(
            lambda s: sorted(s) == list(range(1, len(s) + 1))
        )).all()


@pytest.mark.usefixtures("ray_session")
class TestKnnGraphLsh:
    def test_recall_vs_exact(self):
        from entity_extractor_ray.stages.similarity import knn_graph, knn_graph_lsh

        ds, ids, mat = _planted_ds()
        k = 5
        exact = knn_graph(ds, k=k).to_pandas()
        approx = knn_graph_lsh(ds, k=k, n_bands=24, bits_per_band=6).to_pandas()
        e = exact.groupby("src_id")["dst_id"].apply(set)
        a = approx.groupby("src_id")["dst_id"].apply(set)
        recalls = [
            len(e[s] & a.get(s, set())) / len(e[s]) for s in e.index
        ]
        assert np.mean(recalls) >= 0.9, f"mean recall {np.mean(recalls):.3f}"

    def test_rank_contract(self):
        from entity_extractor_ray.stages.similarity import knn_graph_lsh

        ds, _, _ = _planted_ds(n_clusters=3, per=20)
        out = knn_graph_lsh(ds, k=4).to_pandas()
        # per src: ranks contiguous from 1, sims non-increasing, dst unique
        for src, g in out.groupby("src_id"):
            g = g.sort_values("nn_rank")
            assert list(g["nn_rank"]) == list(range(1, len(g) + 1))
            assert (np.diff(g["cos_sim"].to_numpy()) <= 1e-12).all()
            assert g["dst_id"].is_unique
            assert (g["dst_id"] != src).all()


def _serial_mmr(qid, qvec, cand_ids, cand_mat, k, lam):
    ids = np.asarray(cand_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], cand_mat[order]
    qsim = np.round(mat @ qvec, 6)
    cross = np.round(mat @ mat.T, 6)
    picked, avail = [], np.ones(len(ids), dtype=bool)
    out = []
    for rank in range(1, min(k, len(ids)) + 1):
        pen = cross[:, picked].max(axis=1) if picked else np.zeros(len(ids))
        score = np.round(lam * qsim - (1 - lam) * pen, 6)
        score[~avail] = -np.inf
        j = int(np.argmax(score))
        picked.append(j)
        avail[j] = False
        out.append((qid, rank, int(ids[j]), float(score[j])))
    return out


@pytest.mark.usefixtures("ray_session")
class TestMmr:
    def test_matches_serial_reference(self):
        from entity_extractor_ray.stages.similarity import knn_cosine, mmr_diversify

        ds, ids, mat = _planted_ds()
        qids = [0, 30, 60]
        k, pool, lam = 8, 20, 0.7
        got = mmr_diversify(ds, query_ids=qids, k=k, pool=pool, lam=lam)
        # serial: same candidate pool from knn_cosine, then greedy
        cand = knn_cosine(ds, query_ids=qids, k=pool)
        idn = np.asarray(ids, dtype=np.int64)
        mat64 = np.asarray(mat, dtype=np.float64)
        norm = mat64 / np.linalg.norm(mat64, axis=1, keepdims=True)
        by_id = {int(i): norm[pos] for pos, i in enumerate(idn)}
        rows = []
        for q in qids:
            cids = cand[cand["query_id"] == q]["vec_id"].to_numpy()
            rows += _serial_mmr(
                q, by_id[q], cids, np.stack([by_id[int(c)] for c in cids]),
                k, lam,
            )
        want = pd.DataFrame(
            rows, columns=["query_id", "mmr_rank", "vec_id", "mmr_score"]
        ).astype({"query_id": "int64", "mmr_rank": "int64", "vec_id": "int64"})
        got = got.sort_values(["query_id", "mmr_rank"]).reset_index(drop=True)
        want = want.sort_values(["query_id", "mmr_rank"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_first_pick_is_top1_and_diversity(self):
        """A pool stacked with near-copies of the top hit: MMR must take
        the top hit first, then SKIP its near-copies in favour of a
        different direction — the property that defines the operator."""
        from entity_extractor_ray.stages.similarity import knn_cosine, mmr_diversify

        import ray.data as rd

        rng = np.random.RandomState(11)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        hit = np.array([0.99, 0.1, 0.0, 0.0])
        copies = [hit + rng.randn(4) * 1e-3 for _ in range(5)]
        other = np.array([0.8, 0.0, 0.6, 0.0])  # relevant but different
        vecs = [q, hit] + copies + [other]
        t = pa.table(
            {
                "vec_id": pa.array(range(len(vecs)), pa.int64()),
                "embedding": pa.array(
                    [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
                ),
            }
        )
        ds = rd.from_arrow(t)
        plain = knn_cosine(ds, query_ids=[0], k=3)
        mmr = mmr_diversify(ds, query_ids=[0], k=3, pool=7, lam=0.5)
        top1 = plain.sort_values("cos_sim", ascending=False)["vec_id"].iloc[0]
        assert mmr[mmr["mmr_rank"] == 1]["vec_id"].iloc[0] == top1
        # plain rank-2 is a near-copy of the top hit; MMR rank-2 must be
        # the 'other' direction (vec_id 7)
        assert mmr[mmr["mmr_rank"] == 2]["vec_id"].iloc[0] == len(vecs) - 1
