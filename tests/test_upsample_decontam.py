"""Pins for the final mixing/decontamination pair: upsample_sources against
a serial multiplicity reference (plus its multiset well-formedness and the
under-one-epoch downsample direction), and embedding_decontaminate against
a serial numpy nearest-train reference with planted contamination."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


# ---------------------------------------------------------------- upsample


def _serial_copies(doc_id: int, w4096: int) -> int:
    h3 = hashlib.md5(str(doc_id).encode()).hexdigest()[:3]
    return w4096 // 4096 + (1 if h3 < format(w4096 % 4096, "03x") else 0)


@pytest.mark.usefixtures("ray_session")
class TestUpsampleSources:
    W = {"a": 10240, "b": 4096, "c": 2048}  # 2.5 / 1.0 / 0.5 epochs

    def _ds(self, n=300):
        import ray.data as rd

        srcs = ["a", "b", "c", "dropped"]
        t = pa.table(
            {
                "doc_id": pa.array(list(range(n)), pa.int64()),
                "source": pa.array([srcs[i % 4] for i in range(n)], pa.string()),
            }
        )
        return rd.from_arrow(t).repartition(4)

    def test_matches_serial_multiplicities(self):
        from entity_extractor_ray.stages.samples import upsample_sources

        df = upsample_sources(self._ds(), weights=self.W).to_pandas()
        got = df.groupby("doc_id").size().to_dict()
        srcs = ["a", "b", "c", "dropped"]
        for i in range(300):
            s = srcs[i % 4]
            want = _serial_copies(i, self.W[s]) if s in self.W else 0
            assert got.get(i, 0) == want, (i, s)

    def test_multiset_well_formed(self):
        from entity_extractor_ray.stages.samples import upsample_sources

        df = upsample_sources(self._ds(), weights=self.W).to_pandas()
        # copy_idx is exactly 0..m-1 per doc (no dup or gap), so rows are
        # distinguishable and the output is a well-defined multiset
        for _, g in df.groupby("doc_id"):
            assert sorted(g["copy_idx"]) == list(range(len(g)))
        # a 2.5-epoch source ends up with >1x and <=3x its docs
        n_a = (df["source"] == "a").sum()
        assert 75 * 2 <= n_a <= 75 * 3
        # the dropped source emits nothing
        assert not (df["source"] == "dropped").any()

    def test_under_one_epoch_downsamples(self):
        from entity_extractor_ray.stages.samples import upsample_sources

        df = upsample_sources(self._ds(), weights={"c": 2048}).to_pandas()
        # 0.5 epochs: strictly fewer than the 75 available c-docs, all
        # with copy_idx 0
        assert 0 < len(df) < 75
        assert (df["copy_idx"] == 0).all()

    def test_empty_after_filter(self):
        from entity_extractor_ray.stages.samples import upsample_sources

        out = upsample_sources(self._ds(), weights={"zz": 8192})
        assert out.count() == 0
        # per-block schema stays typed even when every block is empty
        assert out.schema().names == ["doc_id", "source", "copy_idx"]


# ----------------------------------------------------------- decontaminate


def _emb_ds(n=120, d=16, seed=3, planted=()):
    """Random corpus; ids in ``planted`` (eval ids, i.e. % 20 == 0) get a
    vector equal to (train id+1)'s vector plus tiny noise -> contaminated."""
    import ray.data as rd

    rng = np.random.RandomState(seed)
    mat = rng.randn(n, d)
    for eid in planted:
        mat[eid] = mat[eid + 1] + rng.randn(d) * 1e-3
    # truncate to float32 BEFORE returning the reference matrix: the
    # dataset stores float32, so the serial reference must score the same
    # truncated vectors the engine reads (the _planted_ds convention)
    mat = mat.astype(np.float32)
    t = pa.table(
        {
            "vec_id": pa.array(list(range(n)), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in mat], pa.list_(pa.float32())
            ),
        }
    )
    return rd.from_arrow(t).repartition(5), mat


def _serial_decontam(mat, eval_mod, threshold):
    m = mat.astype(np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    m = m / norms
    ids = np.arange(len(m))
    ev, tr = ids[ids % eval_mod == 0], ids[ids % eval_mod != 0]
    sims = np.round(m[ev] @ m[tr].T, 6)
    out = {}
    for i, eid in enumerate(ev):
        j = int(np.argmax(sims[i]))  # first maximal = lowest train id
        out[int(eid)] = (int(tr[j]), float(sims[i, j]),
                         bool(sims[i, j] >= round(threshold, 6)))
    return out


@pytest.mark.usefixtures("ray_session")
class TestEmbeddingDecontaminate:
    def test_matches_serial_reference_with_planted_leak(self):
        from entity_extractor_ray.stages.similarity import (
            embedding_decontaminate,
        )

        ds, mat = _emb_ds(planted=(0, 40, 100))
        got = embedding_decontaminate(ds, eval_mod=20, threshold=0.9)
        df = got.to_pandas().set_index("eval_vec_id").sort_index()
        want = _serial_decontam(mat, 20, 0.9)
        assert set(df.index) == set(want)
        for eid, (tid, sim, flag) in want.items():
            row = df.loc[eid]
            assert int(row["train_vec_id"]) == tid, eid
            assert row["cos_sim"] == pytest.approx(sim, abs=1e-9)
            assert bool(row["contaminated"]) == flag
        # the planted leaks are flagged; each points at its source vector
        for eid in (0, 40, 100):
            assert bool(df.loc[eid, "contaminated"])
            assert int(df.loc[eid, "train_vec_id"]) == eid + 1
        # unplanted eval rows of a random corpus stay below 0.9
        clean = df.drop(index=[0, 40, 100])
        assert not clean["contaminated"].any()

    def test_eval_side_executes_once(self, tmp_path):
        """The eval filter's row-count gate and its matrix collection read
        one execution: a counting map on the 5-block input runs once per
        block for the eval side and once per block for the train scan."""
        from entity_extractor_ray.stages.similarity import (
            embedding_decontaminate,
        )

        log = tmp_path / "calls.txt"

        def counted(t: pa.Table) -> pa.Table:
            with open(str(log), "a") as fh:
                fh.write("x\n")
            return t

        ds, mat = _emb_ds(planted=(0, 40, 100))
        got = embedding_decontaminate(
            ds.map_batches(counted, batch_format="pyarrow"), eval_mod=20, threshold=0.9
        ).to_pandas()
        assert len(got) == len(_serial_decontam(mat, 20, 0.9))
        assert len(log.read_text().splitlines()) == 2 * 5

    def test_gate_raises(self):
        from entity_extractor_ray.stages.similarity import (
            embedding_decontaminate,
        )

        ds, _ = _emb_ds(n=60)
        with pytest.raises(ValueError, match="gate"):
            embedding_decontaminate(ds, eval_mod=2, max_eval_rows=10)

    def test_empty_eval_side(self):
        from entity_extractor_ray.stages.similarity import (
            embedding_decontaminate,
        )
        import ray.data as rd

        t = pa.table(
            {
                "vec_id": pa.array([1, 3, 5], pa.int64()),
                "embedding": pa.array(
                    [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    pa.list_(pa.float32()),
                ),
            }
        )
        out = embedding_decontaminate(rd.from_arrow(t), eval_mod=2)
        assert out.count() == 0
        assert out.schema().names == [
            "eval_vec_id", "train_vec_id", "cos_sim", "contaminated",
        ]
