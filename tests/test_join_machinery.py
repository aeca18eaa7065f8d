"""The shared join machinery runs each right side once and asks Ray for no
fractional-CPU side task (shuffle.materialize_blocks)."""

import ast
import pathlib

import pandas as pd
import pyarrow as pa
import ray.data as rd

from entity_extractor_ray.stages.shuffle import (
    compact_blocks, lookup_join, materialize_blocks,
)

PKG = pathlib.Path(__file__).resolve().parent.parent / "entity_extractor_ray"


def _counting_right(log_path: str, n_groups: int):
    """A groupby().map_groups right side whose UDF appends one line to
    ``log_path`` per call."""

    def per_group(t: pa.Table) -> pa.Table:
        with open(log_path, "a") as fh:
            fh.write("x\n")
        return pa.table({"k": t.column("k").slice(0, 1),
                         "n": pa.array([t.num_rows], pa.int64())})

    rows = pd.DataFrame({"k": [i % n_groups for i in range(4 * n_groups)]})
    return rd.from_pandas(rows).groupby("k").map_groups(per_group, batch_format="pyarrow")


def _calls(log_path) -> int:
    return len(log_path.read_text().splitlines()) if log_path.exists() else 0


def test_lookup_join_runs_right_side_once(ray_session, tmp_path):
    log = tmp_path / "calls.txt"
    left = rd.from_pandas(pd.DataFrame({"k": [0, 1, 2, 3, 4, 5, 6]}))
    out = lookup_join(left, _counting_right(str(log), 5), key="k", how="left")
    got = out.to_pandas().sort_values("k")
    assert got["n"].tolist()[:5] == [4] * 5 and got["n"].isna().sum() == 2
    assert _calls(log) == 5  # one call per group, not one more pass


def test_bucket_fallback_reuses_the_executed_right_side(ray_session, tmp_path):
    log = tmp_path / "calls.txt"
    left = rd.from_pandas(pd.DataFrame({"k": [0, 1, 2, 9]}))
    out = lookup_join(left, _counting_right(str(log), 4), key="k",
                      broadcast_limit=0, n_buckets=2)
    assert sorted(out.to_pandas()["k"].tolist()) == [0, 1, 2]
    assert _calls(log) == 4


def test_materialize_blocks_reads_metadata_and_drops_fillers(ray_session):
    ds = rd.range(40, override_num_blocks=4).filter(expr="id < 10")
    blocks = materialize_blocks(ds)
    assert blocks.num_rows == 10
    assert all(m.num_rows > 0 for m in blocks.metas)
    assert blocks.schema.names == ["id"]
    assert sorted(blocks.column("id").to_pylist()) == list(range(10))
    assert blocks.dataset().count() == 10


def test_compact_blocks_keeps_schema_of_an_empty_result(ray_session):
    ds = rd.from_arrow(pa.table({"a": pa.array([1, 2], pa.int64())})).filter(expr="a > 5")
    out = compact_blocks(ds)
    assert out.count() == 0
    assert out.schema().names == ["a"]


def _fractional_num_cpus(tree: ast.AST):
    """(line, value) of every num_cpus= keyword with a non-integer constant
    on a ray.remote(...), .options(...) or cached_remote_fn(...) call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        if name not in ("remote", "options", "cached_remote_fn"):
            continue
        for kw in node.keywords:
            if kw.arg == "num_cpus" and isinstance(kw.value, ast.Constant):
                v = kw.value.value
                if isinstance(v, float) and not v.is_integer():
                    yield node.lineno, v


def test_no_fractional_cpu_remote_in_the_engine():
    found = [
        f"{path.relative_to(PKG)}:{line} num_cpus={v}"
        for path in sorted(PKG.rglob("*.py"))
        for line, v in _fractional_num_cpus(ast.parse(path.read_text()))
    ]
    assert found == []


def test_fractional_cpu_scan_sees_a_planted_one():
    src = "import ray\nf = ray.remote(num_cpus=0.25)(print)\n"
    assert list(_fractional_num_cpus(ast.parse(src))) == [(2, 0.25)]
