"""Hot-manufacturer skew: the distributed component path must emit exactly
the same mapping as the in-task union-find, with no task ever holding a
whole manufacturer's key set (largest unit = one connected component)."""

import numpy as np
import pyarrow as pa
import pytest

from entity_extractor_ray.stages.linking import build_chemical_mapping
from entity_extractor_ray.stages.triples import CHEM_MENTION_SCHEMA


def _mentions_table(n_hot: int = 400, n_cold: int = 40) -> pa.Table:
    """One 'HotCo' manufacturer owning most distinct chemicals (with CAS
    chains linking some into multi-key clusters) plus two cold vendors."""
    rng = np.random.RandomState(7)
    rows = {n: [] for n in CHEM_MENTION_SCHEMA.names}

    def add(conv, turn, mfr, name, cas):
        rows["conv_id"].append(conv)
        rows["turn_idx"].append(turn)
        rows["pos"].append(turn)
        rows["manufacturer"].append(mfr)
        rows["material_name"].append("Mat " + conv)
        rows["name"].append(name)
        rows["cas"].append(cas)
        rows["composition"].append("1.0")
        rows["tag"].append("PFAS")
        rows["source"].append("OPENAI")

    turn = 0
    for i in range(n_hot):
        conv = f"conv{i:05d}"
        cas = f"{9000 + i}-00-0" if rng.rand() > 0.2 else None
        add(conv, turn % 7 + 1, "HotCo", f"Hot Chem {i:04d}", cas)
        turn += 1
        # alias chains: every 5th chemical re-appears under another name but
        # the same CAS (union via the C probe), forming 2-member clusters
        if cas and i % 5 == 0:
            add(f"conv{i + n_hot:05d}", turn % 7 + 1, "HotCo",
                f"HOT CHEM ALIAS {i:04d}", cas)
            turn += 1
        # and every 11th name re-appears with a second CAS (union via name)
        if cas and i % 11 == 0:
            add(f"conv{i + 2 * n_hot:05d}", turn % 7 + 1, "HotCo",
                f"Hot Chem {i:04d}", f"{7000 + i}-11-1")
            turn += 1
    for i in range(n_cold):
        mfr = "Cold Vendor A" if i % 2 else "Cold Vendor B"
        add(f"cold{i:05d}", i % 5 + 1, mfr, f"Cold Chem {i:03d}",
            f"{5000 + i}-22-2" if i % 3 else None)

    return pa.table(
        {n: pa.array(rows[n], CHEM_MENTION_SCHEMA.field(n).type)
         for n in CHEM_MENTION_SCHEMA.names},
        schema=CHEM_MENTION_SCHEMA,
    )


def _mapping_rows(mapping_ds):
    return sorted(
        (r["row_kind"], r["probe_key"], r["entity_id"], r["name"], r["cas"],
         r["manufacturer"])
        for r in mapping_ds.take_all()
    )


@pytest.fixture(scope="module")
def mentions(ray_session):
    import ray.data as rd

    return rd.from_arrow(_mentions_table())


class TestSkewSalting:
    def test_component_path_matches_union_find(self, mentions):
        base = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                    skew_threshold=None))
        # threshold 50 forces HotCo (hundreds of keys) onto the component
        # path while the cold vendors stay on the in-task path
        salted = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                      skew_threshold=50))
        assert base == salted
        assert len(base) > 400  # sanity: non-trivial mapping

    def test_all_hot_equals_baseline(self, mentions):
        """threshold=1: EVERY manufacturer routes through the component
        path — full-coverage equivalence of the two emitters."""
        base = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                    skew_threshold=None))
        all_hot = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                       skew_threshold=1))
        assert base == all_hot

    def test_cluster_semantics_preserved(self, mentions):
        """Alias pairs sharing a CAS resolve to ONE entity on both paths."""
        mapping = build_chemical_mapping(mentions, n_buckets=8, skew_threshold=50)
        nodes = [r for r in mapping.take_all() if r["row_kind"] == "NODE"]
        by_name = {r["name"]: r["entity_id"] for r in nodes}
        # the alias of chem 0 must NOT be its own node (merged via CAS)
        assert "HOT CHEM ALIAS 0000" not in by_name
        assert "Hot Chem 0000" in by_name


class TestGateCounts:
    """The gate's manufacturer counts: skipped when the whole key table is
    at most the threshold (no manufacturer can exceed it), grouped by
    ``group_aggregate`` otherwise."""

    def test_small_table_skips_the_count(self, mentions, monkeypatch):
        from entity_extractor_ray.stages import linking

        def no_count(*a, **k):
            raise AssertionError("gate counted a table below its threshold")

        base = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                    skew_threshold=None))
        monkeypatch.setattr(linking, "group_aggregate", no_count)
        gated = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                     skew_threshold=10_000))
        assert base == gated

    def test_lowered_threshold_nominates_only_the_hot_key(self, mentions, monkeypatch):
        from entity_extractor_ray.stages import linking

        seen = []
        refine = linking._refine_hot_manufacturers

        def spy(partial, candidates, threshold):
            seen.append(sorted(candidates))
            return refine(partial, candidates, threshold)

        monkeypatch.setattr(linking, "_refine_hot_manufacturers", spy)
        # HotCo holds hundreds of keys, each cold vendor 20: only HotCo is over
        got = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                   skew_threshold=30))
        assert seen == [["HotCo"]]
        base = _mapping_rows(build_chemical_mapping(mentions, n_buckets=8,
                                                    skew_threshold=None))
        assert got == base


class TestGateRefinement:
    """The two-stage skew gate: the partial-row OVERcount only nominates
    candidates; the bottom-k distinct sketch decides. A duplicate-heavy but
    small manufacturer must stay on the in-task path."""

    def test_kmv_exact_below_k(self):
        from entity_extractor_ray.stages.linking import _kmv_estimate

        rng = np.random.RandomState(3)
        h = rng.randint(0, 2**63, size=40).astype(np.uint64)
        h = np.concatenate([h, h, h])  # duplicates must not inflate
        assert _kmv_estimate(h, k=64) == 40.0

    def test_kmv_estimate_above_k(self):
        from entity_extractor_ray.stages.linking import _kmv_estimate

        rng = np.random.RandomState(4)
        h = rng.randint(0, 2**64, size=10_000, dtype=np.uint64)
        est = _kmv_estimate(h, k=64)
        assert 0.7 * 10_000 < est < 1.3 * 10_000

    def test_duplicate_heavy_candidate_stays_cold(self, ray_session):
        import ray.data as rd

        from entity_extractor_ray.stages.linking import _refine_hot_manufacturers

        # DupCo: 100 distinct keys x 30 repeats -> 3000 partial rows (a 6x
        # overcount at threshold 500); BigCo: 2000 distinct keys
        rows_m, rows_n, rows_c = [], [], []
        for rep in range(30):
            for i in range(100):
                rows_m.append("DupCo")
                rows_n.append(f"Chem {i:04d}")
                rows_c.append(f"{i}-00-0")
        for i in range(2000):
            rows_m.append("BigCo")
            rows_n.append(f"Big Chem {i:05d}")
            rows_c.append(f"{i}-11-1")
        partial = rd.from_arrow(
            pa.table(
                {
                    "manufacturer": pa.array(rows_m, pa.string()),
                    "name": pa.array(rows_n, pa.string()),
                    "cas": pa.array(rows_c, pa.string()),
                }
            )
        )
        hot = _refine_hot_manufacturers(partial, ["DupCo", "BigCo"], 500)
        assert hot == ["BigCo"]
