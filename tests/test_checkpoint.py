"""CheckpointManager semantics: commit-last manifests, fingerprint
invalidation, atomicity of the rename."""

import json
import os

import pytest


@pytest.mark.usefixtures("ray_session")
class TestCheckpointManager:
    def _mk(self, tmp_path, fp="v1"):
        from entity_extractor_ray.state.checkpoint import CheckpointManager

        return CheckpointManager(str(tmp_path / "ck"), params_fingerprint=fp)

    def _build(self):
        import ray.data as rd

        return rd.range(100)

    def test_run_then_skip(self, tmp_path):
        ck = self._mk(tmp_path)
        ck.run("s1", self._build)
        assert ck.is_done("s1")
        calls = []

        def build_again():
            calls.append(1)
            return self._build()

        ds = ck.run("s1", build_again)
        assert not calls  # skipped
        assert ds.count() == 100

    def test_fingerprint_invalidation(self, tmp_path):
        ck1 = self._mk(tmp_path, "v1")
        ck1.run("s1", self._build)
        ck2 = self._mk(tmp_path, "v2")  # params changed -> stale checkpoint
        assert not ck2.is_done("s1")
        calls = []

        def build_again():
            calls.append(1)
            return self._build()

        ck2.run("s1", build_again)
        assert calls  # rebuilt

    def test_no_manifest_means_not_done(self, tmp_path):
        ck = self._mk(tmp_path)
        ck.run("s1", self._build)
        os.remove(os.path.join(ck.stage_dir("s1"), "_SUCCESS"))
        assert not ck.is_done("s1")

    def test_unreadable_manifest_means_not_done(self, tmp_path):
        """A torn _SUCCESS is no commit: the stage reruns, and status()
        lists it as uncommitted, as it lists a stage with no manifest."""
        from entity_extractor_ray.state.checkpoint import status

        ck = self._mk(tmp_path)
        ck.run("s1", self._build)
        with open(os.path.join(ck.stage_dir("s1"), "_SUCCESS"), "w") as fh:
            fh.write('{"stage": "s1", "ro')
        assert not ck.is_done("s1")
        assert ck.manifest("s1") is None
        (entry,) = status(str(tmp_path / "ck"))
        assert entry["committed"] is False and entry["rows"] is None

    def test_manifest_write_is_atomic(self, tmp_path, monkeypatch):
        """A kill inside the manifest write leaves no _SUCCESS: it is
        written aside and renamed into place, never torn in place."""
        import types

        from entity_extractor_ray.state import checkpoint

        def torn_dump(obj, fh):
            fh.write('{"stage": "s1", "ro')
            raise OSError("killed mid-write")

        monkeypatch.setattr(checkpoint, "json", types.SimpleNamespace(
            dump=torn_dump, load=json.load, JSONDecodeError=json.JSONDecodeError))
        ck = self._mk(tmp_path)
        with pytest.raises(OSError, match="killed mid-write"):
            ck.run("s1", self._build)
        assert not os.path.exists(os.path.join(ck.stage_dir("s1"), "_SUCCESS"))
        assert not ck.is_done("s1")

    def test_manifest_rowcount_matches_files(self, tmp_path):
        ck = self._mk(tmp_path)
        ck.run("s1", self._build)
        with open(os.path.join(ck.stage_dir("s1"), "_SUCCESS")) as fh:
            m = json.load(fh)
        assert m["rows"] == 100
        assert m["files"]

    def test_status_inspector(self, tmp_path):
        """status(out_dir): the §2.6 status-surface analog — per-stage rows/
        duration from the on-disk manifests of a (resumed) run, no Ray
        session, with in-flight (manifest-less) stages flagged."""
        from entity_extractor_ray.state.checkpoint import status

        ck = self._mk(tmp_path)
        ck.run("s1", self._build)
        ck.run("s2", self._build)
        # resume: a second manager re-runs -> s1/s2 skip, manifests unchanged
        ck2 = self._mk(tmp_path)
        ck2.run("s1", self._build)

        # an in-flight stage: directory with parquet but NO manifest
        os.makedirs(os.path.join(str(tmp_path / "ck"), "s3"))
        entries = status(str(tmp_path / "ck"))
        by_stage = {e["stage"]: e for e in entries}
        assert by_stage["s1"]["committed"] and by_stage["s1"]["rows"] == 100
        assert by_stage["s2"]["committed"] and by_stage["s2"]["files"] >= 1
        assert by_stage["s3"]["committed"] is False and by_stage["s3"]["rows"] is None
        assert status(str(tmp_path / "nonexistent")) == []
