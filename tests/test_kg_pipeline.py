"""End-to-end KG build vs the serial reference-semantics oracle."""

import glob

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from entity_extractor_ray import oracle as orc
from entity_extractor_ray.pipelines.kg_build import build_kg


@pytest.fixture(scope="module")
def corpus_table(small_turns):
    files = sorted(glob.glob(small_turns + "/*.parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files])


@pytest.fixture(scope="module")
def oracle_store(corpus_table):
    return orc.run_oracle(corpus_table)


@pytest.fixture(scope="module")
def kg(ray_session, small_turns, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg") / "out")
    return build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)


def triple_set(rows):
    return set(rows)


class TestTriples:
    def test_precision_recall(self, kg, oracle_store):
        got = {
            (r["conv_id"], r["subj"], r["pred"], r["obj"])
            for r in kg.triples.take_all()
        }
        want = set(oracle_store.triples)
        assert want, "oracle produced no triples — generator broken"
        tp = len(got & want)
        precision = tp / len(got) if got else 0.0
        recall = tp / len(want)
        assert precision >= 0.95, f"precision {precision} (got {len(got)}, want {len(want)})"
        assert recall >= 0.95, f"recall {recall}"
        # the rule extractor is deterministic -> should be exact
        assert got == want


class TestNodes:
    def test_node_sets_match(self, kg, oracle_store):
        got = {
            (r["entity_id"], r["name"], r["node_type"], r["cas_number"],
             r["pfas_status"], r["pfas_information_source"])
            for r in kg.nodes.take_all()
        }
        want = {
            (n["entity_id"], n["name"], n["node_type"], n["cas_number"],
             n["pfas_status"], n["pfas_information_source"])
            for n in orc.oracle_nodes(oracle_store)
        }
        missing = want - got
        extra = got - want
        assert not missing and not extra, (
            f"missing={list(missing)[:5]} extra={list(extra)[:5]} "
            f"(|got|={len(got)}, |want|={len(want)})"
        )


class TestEdges:
    def test_edge_sets_match(self, kg, oracle_store):
        got = {
            (r["src"], r["dst"], r["pred"], r["weight"]) for r in kg.edges.take_all()
        }
        want = {
            (e["src"], e["dst"], e["pred"], e["weight"])
            for e in orc.oracle_edges(oracle_store)
        }
        assert got == want, (
            f"missing={list(want - got)[:5]} extra={list(got - want)[:5]}"
        )


class TestManufacturers:
    GEO = ("address", "postal_code", "city", "state", "country", "region")

    def test_manufacturer_table_matches_oracle(self, kg, oracle_store):
        """The separate manufacturer dimension table (reference Manufacturer
        ORM): exact set equality including the creating record's geo."""
        got = {
            (r["entity_id"], r["name"], *(r[f] for f in self.GEO))
            for r in kg.manufacturers.take_all()
        }
        want = {
            (m["entity_id"], m["name"], *(m[f] for f in self.GEO))
            for m in orc.oracle_manufacturers(oracle_store)
        }
        assert want, "oracle produced no manufacturers"
        assert any(t[2] is not None for t in want), (
            "corpus carries no geo at all — supplier turns missing"
        )
        assert got == want, (
            f"missing={list(want - got)[:3]} extra={list(got - want)[:3]}"
        )

    def test_first_record_wins_geo(self, ray_session, tmp_path_factory):
        """Planted: two conversations, same manufacturer, different geo —
        the FIRST (conv order) creates the manufacturer and its geo sticks;
        a geo-less first conversation pins nulls forever (the reference
        never back-fills, artifact_ingestor_service.py:992-1008)."""
        import pyarrow.parquet as pq

        from entity_extractor_ray.sources.transcripts import supplier_geo_text

        def conv(cid, mfr, mat, geo):
            rows = [
                (cid, 0, f'We are reviewing material "{mat}" supplied by "{mfr}".'),
                (cid, 1, 'It contains ingredient "Chem X" at 5.0% tagged PFAS (source OECD).'),
            ]
            if geo is not None:
                rows.append((cid, 2, supplier_geo_text(mfr, geo)))
            return rows

        geo_a = {"address": "1 First St", "postal_code": "11111", "city": "Alpha",
                 "state": "NS", "country": "Freedonia", "region": "EMEA"}
        geo_b = {"address": "2 Second St", "postal_code": "22222", "city": "Beta",
                 "state": "VT", "country": "Sylvania", "region": "APAC"}
        rows = (
            conv("conv0", "Acme Corp", "Mat One", geo_a)
            + conv("conv1", "Acme Corp", "Mat Two", geo_b)  # later: loses
            + conv("conv2", "NullGeo Inc", "Mat Three", None)  # creates w/o geo
            + conv("conv3", "NullGeo Inc", "Mat Four", geo_b)  # never back-fills
        )
        t = pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "text": pa.array([r[2] for r in rows], pa.string()),
            }
        )
        d = tmp_path_factory.mktemp("geo_firstwins")
        pq.write_table(t, str(d / "turns.parquet"))
        res = build_kg(str(d), n_buckets=4, num_join_partitions=2)
        by_name = {r["name"]: r for r in res.manufacturers.take_all()}
        assert by_name["Acme Corp"]["address"] == "1 First St"
        assert by_name["Acme Corp"]["city"] == "Alpha"
        assert by_name["NullGeo Inc"]["address"] is None
        assert by_name["NullGeo Inc"]["country"] is None


class TestLineage:
    def test_lineage_references_existing_entities(self, kg):
        node_ids = {r["entity_id"] for r in kg.nodes.take_all()}
        lineage = kg.lineage.take_all()
        assert lineage
        for row in lineage[:200]:
            assert row["entity_id"] in node_ids


class TestTraversal:
    def test_chemicals_of_material_matches_oracle(self, kg, oracle_store):
        """J5 1-hop traversal (nodes JOIN edges JOIN nodes) must reproduce
        the oracle's CONTAINS adjacency with full node attributes."""
        from entity_extractor_ray.stages.graph import chemicals_of_material

        got = {
            (r["material_id"], r["material_name"], r["chemical_id"],
             r["chemical_name"], r["cas_number"], r["pfas_status"], r["weight"])
            for r in chemicals_of_material(kg.nodes, kg.edges).take_all()
        }
        mats = {m["entity_id"]: m for m in oracle_store.materials.values()}
        chems = {c["entity_id"]: c for c in oracle_store.chem_nodes}
        want = {
            (src, mats[src]["name"], dst, chems[dst]["name"],
             chems[dst]["cas_number"], chems[dst]["pfas_status"], weight)
            for (src, dst, pred), weight in oracle_store.edges.items()
            if pred == "CONTAINS"
        }
        assert want and got == want

    def test_materials_of_chemical_matches_oracle(self, kg, oracle_store):
        from entity_extractor_ray.stages.graph import materials_of_chemical

        got = {
            (r["chemical_id"], r["chemical_name"], r["material_id"],
             r["material_name"], r["material_pfas_status"], r["weight"])
            for r in materials_of_chemical(kg.nodes, kg.edges).take_all()
        }
        mats = {m["entity_id"]: m for m in oracle_store.materials.values()}
        chems = {c["entity_id"]: c for c in oracle_store.chem_nodes}
        want = {
            (dst, chems[dst]["name"], src, mats[src]["name"],
             mats[src]["pfas_status"], weight)
            for (src, dst, pred), weight in oracle_store.edges.items()
            if pred == "CONTAINS"
        }
        assert want and got == want


class TestOrderingInvariant:
    def test_turn_checksum_stable(self, small_turns, ray_session):
        """Per-turn text equality under stable (conv_id, turn_idx) order:
        reading the shuffled files and sorting must give one canonical
        checksum regardless of file order."""
        import hashlib

        import ray.data as rd

        def checksum(paths):
            ds = rd.read_parquet(paths).sort(["conv_id", "turn_idx"])
            h = hashlib.blake2b(digest_size=16)
            for batch in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
                for c, t, x in zip(
                    batch.column("conv_id").to_pylist(),
                    batch.column("turn_idx").to_pylist(),
                    batch.column("text").to_pylist(),
                ):
                    h.update(f"{c}|{t}|{x}".encode())
            return h.hexdigest()

        files = sorted(glob.glob(small_turns + "/*.parquet"))
        assert checksum(files) == checksum(list(reversed(files)))


class TestErrors:
    def test_natural_corpus_errors_match_oracle(self, kg, oracle_store):
        """The synthetic corpus produces duplicate-material conversations
        naturally; engine error rows must equal the serial oracle's exactly
        (multiset compare — status_fold rows replicate per coercion)."""
        got = sorted((r["stage"], r["key"], r["reason"]) for r in kg.errors.take_all())
        want = sorted(
            (e["stage"], e["key"], e["reason"])
            for e in orc.oracle_errors(oracle_store)
        )
        assert want, "natural corpus should contain duplicate-material drops"
        assert got == want

    def test_planted_error_cases(self, ray_session, tmp_path_factory):
        """Planted corpus exercising every reason code: EMPTY_CHEMICALS,
        EMPTY_MATERIAL, MATERIAL_ALREADY_INGESTED, IMPOSSIBLE_TRANSITION —
        and a filler-only conversation that must NOT produce an error row."""
        rows = []

        def turn(conv, idx, text):
            rows.append((conv, idx, "user", text, "", 1_700_000_000_000_000 + idx))

        def mat(m, f):
            return f'We are reviewing material "{m}" supplied by "{f}".'

        def chem(n, cas, pct, tag, src):
            cas_bit = f" with CAS {cas}" if cas else ""
            return (
                f'It contains ingredient "{n}"{cas_bit} at {pct}% '
                f"tagged {tag} (source {src})."
            )

        turn("convA", 0, mat("Foam 1", "Acme Corp"))  # material, no chemicals
        turn("convA", 1, "Could you summarize the findings so far?")
        turn("convB", 0, chem("Chem B", "1000-01-0", 10.0, "PFAS", "OPENAI"))
        turn("convC", 0, mat("Sealant 7", "Acme Corp"))
        turn("convC", 1, chem("Chem C", None, 5.0, "PFAS", "OPENAI"))
        # same material identity as convC after normalization -> J1 drop
        turn("convD", 0, mat("sealant 7", "Acme Corp"))
        turn("convD", 1, chem("Chem D", None, 5.0, "NO_PFAS", "OECD"))
        # same chemical entity mentioned with OECD then MANUAL sources:
        # final_source(OECD, MANUAL) is an impossible transition
        turn("convE", 0, mat("Laminate 1", "Acme Corp"))
        turn("convE", 1, chem("Chem Z", "5555-55-5", 1.0, "PENDING", "OECD"))
        turn("convF", 0, mat("Laminate 2", "Acme Corp"))
        turn("convF", 1, chem("Chem Z", "5555-55-5", 2.0, "PFAS", "MANUAL"))
        turn("convG", 0, "Thanks, let me look into compliance next.")  # non-doc
        # ingest-invalid rows: null conv_id / null turn_idx (M14 validation)
        rows.append((None, 0, "user", mat("Ghost 1", "Acme Corp"), "", 0))
        rows.append(("convH", None, "user",
                     chem("Chem H", None, 3.0, "PFAS", "OPENAI"), "", 0))

        table = pa.table(
            {
                "conv_id": pa.array([r[0] for r in rows], pa.string()),
                "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
                "role": pa.array([r[2] for r in rows], pa.string()),
                "text": pa.array([r[3] for r in rows], pa.string()),
                "tool": pa.array([r[4] for r in rows], pa.string()),
                "ts": pa.array([r[5] for r in rows], pa.timestamp("us")),
            }
        )
        path = str(tmp_path_factory.mktemp("planted") / "turns.parquet")
        pq.write_table(table, path)

        seen_stages = []
        result = build_kg(
            path, out_dir=None, n_buckets=4, num_join_partitions=2,
            progress=lambda stage, rows_, sec: seen_stages.append(stage),
        )
        assert "records" in seen_stages and "edges" in seen_stages
        store = orc.run_oracle(table)

        got = sorted(
            (r["stage"], r["key"], r["reason"]) for r in result.errors.take_all()
        )
        want = sorted(
            (e["stage"], e["key"], e["reason"]) for e in orc.oracle_errors(store)
        )
        assert got == want
        assert ("assemble", "convA", "EMPTY_CHEMICALS") in got
        assert ("assemble", "convB", "EMPTY_MATERIAL") in got
        assert ("dedup", "convD", "MATERIAL_ALREADY_INGESTED") in got
        assert ("ingest", "<null-conv>", "INVALID_ROW") in got
        assert ("ingest", "convH", "INVALID_ROW") in got
        assert any(s == "status_fold" and r == "IMPOSSIBLE_TRANSITION"
                   for s, _, r in got)
        assert not any(k == "convG" for _, k, _r in got)

        # the graph itself must still match the oracle exactly: dropped
        # conversations contribute nothing, the coerced fold keeps state
        got_nodes = {
            (r["entity_id"], r["pfas_status"], r["pfas_information_source"])
            for r in result.nodes.take_all()
        }
        want_nodes = {
            (n["entity_id"], n["pfas_status"], n["pfas_information_source"])
            for n in orc.oracle_nodes(store)
        }
        assert got_nodes == want_nodes


class TestResume:
    def test_rerun_skips_stages_and_is_identical(self, ray_session, small_turns, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("kg_resume") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        nodes1 = sorted(
            (r["entity_id"], r["pfas_status"]) for r in r1.nodes.take_all()
        )
        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        assert all(m["duration_ms"] < 5000 for m in r2.metrics)
        nodes2 = sorted(
            (r["entity_id"], r["pfas_status"]) for r in r2.nodes.take_all()
        )
        assert nodes1 == nodes2

    def test_partition_level_resume(self, ray_session, small_turns, tmp_path_factory):
        """Kill 'mid-records': downstream stages absent, some assemble part
        files committed. The rerun must rebuild ONLY the missing parts
        (untouched parts keep their mtime) and produce identical output."""
        import glob as g
        import os
        import shutil

        out = str(tmp_path_factory.mktemp("kg_parts") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        nodes1 = sorted(
            (r["entity_id"], r["pfas_status"]) for r in r1.nodes.take_all()
        )
        parts_dir = os.path.join(out, "records_assemble")
        parts = sorted(g.glob(os.path.join(parts_dir, "part-*.parquet")))
        assert len(parts) == 8

        # simulate a crash during the records stage: no stage dirs committed
        # yet, 5 of 8 assemble parts already on disk
        for d in os.listdir(out):
            if d != "records_assemble":
                shutil.rmtree(os.path.join(out, d))
        for p in parts[:3]:
            os.remove(p)
        kept_mtimes = {p: os.stat(p).st_mtime_ns for p in parts[3:]}

        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        for p, m in kept_mtimes.items():
            assert os.stat(p).st_mtime_ns == m, f"finished part rebuilt: {p}"
        assert len(g.glob(os.path.join(parts_dir, "part-*.parquet"))) == 8
        nodes2 = sorted(
            (r["entity_id"], r["pfas_status"]) for r in r2.nodes.take_all()
        )
        assert nodes1 == nodes2

    def test_partial_failure_resume(self, ray_session, small_turns, tmp_path_factory):
        """Delete a late-stage checkpoint; rerun must rebuild ONLY that stage
        (earlier stages report skipped) and produce identical output."""
        import json
        import os
        import shutil

        out = str(tmp_path_factory.mktemp("kg_fail") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        edges1 = sorted(
            (r["src"], r["dst"], r["pred"], r["weight"]) for r in r1.edges.take_all()
        )
        # simulate failure after chem_status: nuke everything from edges on
        for stage in ("edges", "nodes", "lineage"):
            path = os.path.join(out, stage)
            if os.path.exists(path):
                shutil.rmtree(path)
        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        # records/linking stages must have been skipped (manifest hit)
        with open(os.path.join(out, "records", "_SUCCESS")) as fh:
            assert json.load(fh)["rows"] > 0
        edges2 = sorted(
            (r["src"], r["dst"], r["pred"], r["weight"]) for r in r2.edges.take_all()
        )
        assert edges1 == edges2

    def test_terminal_shard_resume(self, ray_session, small_turns, tmp_path_factory):
        """The map-only terminal sinks (triples, lineage) commit one part per
        upstream checkpoint file: deleting some parts plus the manifest must
        rebuild ONLY the missing parts (survivors keep their mtime) and the
        re-read output must be identical."""
        import glob as g
        import os

        out = str(tmp_path_factory.mktemp("kg_shard") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        triples1 = sorted(
            (r["conv_id"], r["subj"], r["pred"], r["obj"])
            for r in r1.triples.take_all()
        )
        tdir = os.path.join(out, "triples")
        parts = sorted(g.glob(os.path.join(tdir, "part-*.parquet")))
        n_src = len(g.glob(os.path.join(out, "records", "*.parquet")))
        assert len(parts) == n_src, "one triples part per records shard"

        os.remove(os.path.join(tdir, "_SUCCESS"))
        for p in parts[: max(1, len(parts) // 3)]:
            os.remove(p)
        kept = {p: os.stat(p).st_mtime_ns
                for p in parts[max(1, len(parts) // 3):]}

        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        for p, m in kept.items():
            assert os.stat(p).st_mtime_ns == m, f"finished part rebuilt: {p}"
        triples2 = sorted(
            (r["conv_id"], r["subj"], r["pred"], r["obj"])
            for r in r2.triples.take_all()
        )
        assert triples1 == triples2

    def test_rebuilt_upstream_clears_stale_shard_parts(self, ray_session, small_turns,
                                                        tmp_path_factory):
        """A rebuilt upstream stage commits new files, so a shard stage fed
        by it must not keep its old parts beside the new ones: deleting
        ``records/`` and the triples manifest, then resuming, gives the
        clean build's triples, not each triple twice."""
        import os
        import shutil

        out = str(tmp_path_factory.mktemp("kg_stale") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        triples1 = sorted(
            (r["conv_id"], r["subj"], r["pred"], r["obj"])
            for r in r1.triples.take_all()
        )
        shutil.rmtree(os.path.join(out, "records"))
        os.remove(os.path.join(out, "triples", "_SUCCESS"))

        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        triples2 = sorted(
            (r["conv_id"], r["subj"], r["pred"], r["obj"])
            for r in r2.triples.take_all()
        )
        assert triples2 == triples1

    def test_edges_bucket_resume(self, ray_session, small_turns, tmp_path_factory):
        """The edges stage commits one part per (src, dst) hash bucket
        directly into its stage dir: deleting some parts plus the manifest
        must rebuild ONLY the missing buckets (survivors keep their mtime)
        and reproduce the identical edge set — both CONTAINS and MADE_BY
        rows (one fused shuffle serves both families)."""
        import glob as g
        import os

        out = str(tmp_path_factory.mktemp("kg_edgeparts") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        edges1 = sorted(
            (r["src"], r["dst"], r["pred"], r["weight"])
            for r in r1.edges.take_all()
        )
        preds = {e[2] for e in edges1}
        assert preds == {"CONTAINS", "MADE_BY"}
        edir = os.path.join(out, "edges")
        parts = sorted(g.glob(os.path.join(edir, "part-*.parquet")))
        assert len(parts) == 8, "one edges part per hash bucket"

        os.remove(os.path.join(edir, "_SUCCESS"))
        for p in parts[:3]:
            os.remove(p)
        kept = {p: os.stat(p).st_mtime_ns for p in parts[3:]}

        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        for p, m in kept.items():
            assert os.stat(p).st_mtime_ns == m, f"finished part rebuilt: {p}"
        assert len(g.glob(os.path.join(edir, "part-*.parquet"))) == 8
        edges2 = sorted(
            (r["src"], r["dst"], r["pred"], r["weight"])
            for r in r2.edges.take_all()
        )
        assert edges1 == edges2

    def test_errors_shard_resume(self, ray_session, small_turns, tmp_path_factory):
        """The errors side-channel commits one part per SOURCE SHARD across
        its three feeds (rec = record drops, fold = status coercions,
        ing = raw-input ingest scan): deleting some parts plus the manifest
        must rebuild ONLY the missing parts (survivors keep their mtime)
        and re-read to identical output (VERDICT r4 #8)."""
        import glob as g
        import os

        out = str(tmp_path_factory.mktemp("kg_errshard") / "out")
        r1 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        errors1 = sorted(
            (r["stage"], r["key"], r["reason"]) for r in r1.errors.take_all()
        )
        edir = os.path.join(out, "errors")
        parts = sorted(g.glob(os.path.join(edir, "part-*.parquet")))
        tags = {os.path.basename(p).split("-")[1] for p in parts}
        assert tags == {"rec", "fold", "ing"}, tags
        # one ing part per raw input file
        assert sum(t == "ing" for t in
                   (os.path.basename(p).split("-")[1] for p in parts)) == 3

        # simulate a death mid-errors-stage: manifest missing, a couple of
        # parts (one per feed kind) not yet committed
        os.remove(os.path.join(edir, "_SUCCESS"))
        victims = [next(p for p in parts if "-rec-" in p),
                   next(p for p in parts if "-ing-" in p)]
        for p in victims:
            os.remove(p)
        kept = [p for p in parts if p not in victims]
        kept_mtimes = {p: os.stat(p).st_mtime_ns for p in kept}

        r2 = build_kg(small_turns, out_dir=out, n_buckets=8, num_join_partitions=4)
        for p, m in kept_mtimes.items():
            assert os.stat(p).st_mtime_ns == m, f"finished errors part rebuilt: {p}"
        assert sorted(g.glob(os.path.join(edir, "part-*.parquet"))) == parts
        errors2 = sorted(
            (r["stage"], r["key"], r["reason"]) for r in r2.errors.take_all()
        )
        assert errors1 == errors2
