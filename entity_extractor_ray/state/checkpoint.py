"""Per-stage checkpointed Parquet outputs with commit-last manifests.

The reference gets resumability from page-level blob checkpoints + lock files
(file_analysis_service.py:212-253, 429-465) and stage-level run-state rows
(artifact_upload_run_state_details.py). The batch-engine equivalent
(SURVEY.md §4): every stage writes its output Parquet to a temp directory
and renames it into place, or commits one atomic part file per bucket or
source shard, and then commits a `_SUCCESS` manifest LAST (JSON: row count,
file list, parameters fingerprint). On restart a completed
stage is skipped by reading the manifest before rebuilding its Dataset —
at-least-once task retries become exactly-once stage outputs because the
rename+manifest is the only commit point.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable, Optional

import pyarrow.parquet as pq

from ..sources.cleanscan import read_parquet_clean

MANIFEST = "_SUCCESS"


def input_fingerprint(paths) -> str:
    """Stable fingerprint of the INPUT data identity: every parquet file's
    (relative name, size, mtime_ns). Folded into the stage fingerprint so a
    rerun with the same out_dir but changed/updated inputs invalidates the
    checkpoints instead of silently serving stale stage outputs."""
    import glob
    import hashlib

    if isinstance(paths, str):
        paths = [paths]
    entries = []
    for p in paths:
        files = sorted(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True)) if os.path.isdir(p) else [p]
        for f in files:
            try:
                st = os.stat(f)
                entries.append(f"{os.path.basename(f)}:{st.st_size}:{st.st_mtime_ns}")
            except OSError:
                entries.append(f"{os.path.basename(f)}:missing")
    digest = hashlib.blake2b("\n".join(entries).encode(), digest_size=8).hexdigest()
    return f"in{digest}"


class CheckpointManager:
    """Stage-level checkpoint registry rooted at one output directory.

    ``run``'s ``min_rows_per_file`` coalesces write blocks: without it a
    stage whose plan unions many small blocks (the nodes assembly) commits
    one tiny Parquet file PER BLOCK — measured 245 files / 11.5s vs 6 files
    / 7.6s for the same 570k-row table — and every file costs a write task,
    a driver-side metadata read and a resume-read fragment.

    File size is a per-stage tunable on ``run``: Ray's parquet reader
    parallelizes at FILE granularity (a file never splits across read
    tasks), so a checkpoint that is RE-READ by downstream stages must
    commit enough files to feed every core — a 240k-row table coalesced to
    4×65536-row files caps every downstream scan at 4 tasks. Terminal
    outputs keep the large default (fewer files, cheaper commit)."""

    def __init__(self, root: str, params_fingerprint: str = ""):
        self.root = root
        self.fingerprint = params_fingerprint
        os.makedirs(root, exist_ok=True)

    def stage_dir(self, name: str) -> str:
        return os.path.join(self.root, name)

    def is_done(self, name: str) -> bool:
        m = self.manifest(name)
        return m is not None and m.get("fingerprint", "") == self.fingerprint

    def manifest(self, name: str) -> Optional[dict]:
        """The stage's committed manifest; None when absent or unreadable."""
        try:
            with open(os.path.join(self.stage_dir(name), MANIFEST)) as fh:
                return json.load(fh)
        except (json.JSONDecodeError, OSError):
            return None

    def parts_dir(self, name: str, sources=()) -> str:
        """The directory a builder commits its own ``part-*`` files into
        (per-bucket or per-shard resume). Parts left by another fingerprint
        (params, input or the committed ``sources`` files changed; recorded
        in ``_FP``) are cleared, as is a stale manifest; parts of this
        fingerprint survive, so a rerun only writes the missing ones.
        ``sources`` are the files or stage directories the parts derive
        from: a rebuilt upstream stage commits new files, so its old
        derived parts never survive beside the new ones."""
        out = self.stage_dir(name)
        os.makedirs(out, exist_ok=True)
        if os.path.exists(os.path.join(out, MANIFEST)):
            os.remove(os.path.join(out, MANIFEST))
        fp = self.fingerprint + (":" + input_fingerprint(list(sources)) if sources else "")
        fp_path = os.path.join(out, "_FP")
        if os.path.exists(fp_path):
            with open(fp_path) as fh:
                if fh.read() == fp:
                    return out
        for f in os.listdir(out):
            if f.startswith("part-"):
                os.remove(os.path.join(out, f))
        with open(fp_path, "w") as fh:
            fh.write(fp)
        return out

    def run(self, name: str, build: Callable[[], "ray.data.Dataset"],  # noqa: F821
            min_rows_per_file: int = 65536,
            max_rows_per_file: Optional[int] = None):
        """Run (or skip) one stage; returns a Dataset reading the committed
        Parquet. ``build()`` either returns the stage's output Dataset,
        written here through a temp dir renamed into place, or commits its
        own part files into ``parts_dir(name)`` and returns None.
        ``min/max_rows_per_file`` size the files of a written Dataset (small
        for re-read checkpoints, the large default for terminals).
        The ``_SUCCESS`` manifest commits LAST in both cases."""
        out = self.stage_dir(name)
        if self.is_done(name):
            return read_parquet_clean(out)

        from ..stats import meter_snapshot, snapshot_delta

        snap0 = meter_snapshot()
        t0 = time.perf_counter()
        ds = build()
        if ds is not None:
            tmp = out + ".tmp"
            if os.path.exists(tmp):
                shutil.rmtree(tmp)
            if os.path.exists(out):
                shutil.rmtree(out)
            ds.write_parquet(
                tmp,
                min_rows_per_file=min_rows_per_file,
                max_rows_per_file=max_rows_per_file,
            )
            # an empty stage writes no files (and possibly no directory):
            # commit an explicit zero-row parquet carrying the schema so the
            # rename and the later read_parquet stay uniform
            os.makedirs(tmp, exist_ok=True)
            if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
                arrow_schema = getattr(ds.schema(), "base_schema", None)
                if arrow_schema is None:
                    raise RuntimeError(
                        f"stage {name!r} produced no rows and its schema is "
                        "unavailable; cannot commit an empty checkpoint"
                    )
                pq.write_table(arrow_schema.empty_table(),
                               os.path.join(tmp, "empty_0.parquet"))
            os.rename(tmp, out)

        rows = 0
        files = []
        for fname in sorted(os.listdir(out)):
            if fname.endswith(".parquet"):
                files.append(fname)
                rows += pq.read_metadata(os.path.join(out, fname)).num_rows
        # exchange-byte attribution: meter-snapshot delta across the stage
        # (counts EVERY engine shuffle the build ran, incl. interior
        # materialize boundaries — stats.py)
        ex = snapshot_delta(snap0, meter_snapshot())
        manifest = {
            "stage": name,
            "rows": rows,
            "files": files,
            "fingerprint": self.fingerprint,
            "duration_ms": (time.perf_counter() - t0) * 1000,
            "exchange_bytes": ex["exchange_bytes"] if ex else None,
            "exchange_rows": ex["exchange_rows"] if ex else None,
            "exchange_tags": ex["tags"] if ex else None,
        }
        # written aside and renamed into place: a kill mid-write never
        # leaves a torn manifest
        tmp = os.path.join(out, MANIFEST + ".tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(out, MANIFEST))
        return read_parquet_clean(out)


def write_shards(out: str, feeds) -> None:
    """Per-INPUT-SHARD commits for MAP-ONLY stages: ``feeds`` is
    ``[(tag, src_files, transform, read_columns), ...]`` and
    ``transform(table) -> table`` runs on each source file on its own, one
    task per file, no shuffle. Each result commits atomically (tmp +
    rename) as ``part-<tag>-<index>.parquet``, or ``part-<source
    stem>.parquet`` for an untagged feed; committed parts are skipped, so
    a terminal write that dies at 95% restarts from 95%. The resume key is
    the deterministic source file, never a key-hash repartition. Only for
    per-row transforms: each output row derives from one input file."""
    import ray.data as rd

    todo = []
    for k, (tag, files, _, _) in enumerate(feeds):
        for i, f in enumerate(files):
            stem = f"{tag}-{i:05d}" if tag else os.path.splitext(os.path.basename(f))[0]
            part = f"part-{stem}.parquet"
            if not os.path.exists(os.path.join(out, part)):
                todo.append({"path": f, "part": part, "feed": k})
    if not todo:
        return

    def process(batch):
        import pyarrow as pa

        for src, part, k in zip(batch["path"], batch["part"], batch["feed"]):
            _, _, transform, columns = feeds[k]
            result = transform(pq.read_table(src, columns=columns))
            tmp = os.path.join(out, part + f".tmp-{os.getpid()}")
            pq.write_table(result, tmp)
            os.replace(tmp, os.path.join(out, part))
        return pa.table({"path": pa.array(list(batch["path"]))})

    rd.from_items(todo).map_batches(
        process, batch_size=1, batch_format="pandas"
    ).materialize()


def status(out_dir: str) -> list:
    """Manifest inspector — the batch analog of the reference's status/query
    REST surface (SURVEY §2.6: run-state rows served over
    /artifact_upload/status, artifact_upload_service.py): one dict per
    committed stage from the on-disk manifests, no Ray session needed.

    Returns [{stage, rows, files, duration_s, fingerprint, committed}] in
    commit order (manifest mtime). A stage directory without a readable
    manifest (in-flight or died pre-commit) is reported with rows=None so
    partial runs are visible. ``python -m entity_extractor_ray.state.checkpoint
    <out_dir>`` prints it as a table."""
    entries = []
    if not os.path.isdir(out_dir):
        return entries
    manifest = CheckpointManager(out_dir).manifest
    for name in sorted(os.listdir(out_dir)):
        stage_dir = os.path.join(out_dir, name)
        if not os.path.isdir(stage_dir):
            continue
        m = manifest(name)
        if m is not None:
            entries.append(
                {
                    "stage": m.get("stage", name),
                    "rows": m.get("rows"),
                    "files": len(m.get("files", [])),
                    "duration_s": round(m.get("duration_ms", 0.0) / 1000, 2),
                    "fingerprint": m.get("fingerprint", ""),
                    "committed": True,
                    "_mtime": os.path.getmtime(os.path.join(stage_dir, MANIFEST)),
                }
            )
        else:
            n_parts = sum(1 for f in os.listdir(stage_dir) if f.endswith(".parquet"))
            entries.append(
                {
                    "stage": name,
                    "rows": None,
                    "files": n_parts,
                    "duration_s": None,
                    "fingerprint": None,
                    "committed": False,
                    "_mtime": os.path.getmtime(stage_dir),
                }
            )
    entries.sort(key=lambda e: e["_mtime"])
    for e in entries:
        del e["_mtime"]
    return entries


def _print_status(out_dir: str) -> None:
    entries = status(out_dir)
    if not entries:
        print(f"no checkpointed stages under {out_dir}")
        return
    print(f"{'stage':<20} {'state':<10} {'rows':>12} {'files':>6} {'secs':>8}")
    for e in entries:
        state = "done" if e["committed"] else "IN-FLIGHT"
        rows = "-" if e["rows"] is None else str(e["rows"])
        secs = "-" if e["duration_s"] is None else f"{e['duration_s']:.2f}"
        print(f"{e['stage']:<20} {state:<10} {rows:>12} {e['files']:>6} {secs:>8}")


if __name__ == "__main__":
    import sys

    _print_status(sys.argv[1] if len(sys.argv) > 1 else ".")
