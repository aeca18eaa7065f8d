"""shuffle.group_aggregate against DuckDB on planted tables, and a guard that
no Ray-native grouped aggregate is left in the engine."""

import ast
import datetime as dt
import pathlib

import duckdb
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from entity_extractor_ray.stages import shuffle
from entity_extractor_ray.stages.shuffle import group_aggregate

REPO = pathlib.Path(__file__).resolve().parent.parent

AGGS = {
    "s_v": ("sum", "v"),
    "n": ("count", None),
    "lo_v": ("min", "v"),
    "hi_f": ("max", "f"),
    "s_f": ("sum", "f"),
    "lo_s": ("min", "s"),
    "hi_ts": ("max", "ts"),
}
SQL_AGGS = ("sum(v) AS s_v, count(*) AS n, min(v) AS lo_v, max(f) AS hi_f, "
            "sum(f) AS s_f, min(s) AS lo_s, max(ts) AS hi_ts")


def _planted(n: int = 400) -> pa.Table:
    """Keys with a null group; group "c" has only null values."""
    ks = ["a", "b", "c", None, "d"]
    k = [ks[i % 5] for i in range(n)]
    return pa.table({
        "k": pa.array(k, pa.string()),
        "k2": pa.array([dt.datetime(2024, 1, 1 + i % 3) for i in range(n)],
                       pa.timestamp("us")),
        "v": pa.array([None if k[i] == "c" or i % 7 == 0 else i for i in range(n)],
                      pa.int32()),
        "f": pa.array([None if k[i] == "c" else i / 8 for i in range(n)], pa.float64()),
        "s": pa.array([None if k[i] == "c" else f"s{i % 13}" for i in range(n)]),
        "ts": pa.array([None if k[i] == "c" else dt.datetime(2020, 1, 1, i % 24)
                        for i in range(n)], pa.timestamp("us")),
    })


def _duck(t: pa.Table, keys: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("t", t)
    return con.execute(f"SELECT {keys}, {SQL_AGGS} FROM t GROUP BY {keys}").df()


def _same(got: pd.DataFrame, want: pd.DataFrame, keys: list) -> None:
    assert list(got.columns) == list(want.columns)
    g = got.sort_values(keys, na_position="first").reset_index(drop=True)
    w = want.sort_values(keys, na_position="first").reset_index(drop=True)
    assert len(g) == len(w)
    for c in g.columns:
        gv = g[c].astype(object).where(g[c].notna(), None).tolist()
        wv = w[c].astype(object).where(w[c].notna(), None).tolist()
        assert gv == wv, c


def test_matches_duckdb_with_null_keys_and_all_null_groups(ray_session, monkeypatch):
    monkeypatch.setattr(shuffle, "_AGG_BUCKETS", 3)
    t = _planted()
    ds = rd.from_arrow([t.slice(0, 150), t.slice(150, 100), t.slice(250)])
    out = group_aggregate(ds, "k", AGGS)
    got = out.to_pandas()
    _same(got, _duck(t, "k"), ["k"])
    assert got["k"].isna().sum() == 1  # nulls form ONE group
    c = got[got["k"] == "c"].iloc[0]
    assert pd.isna(c["s_v"]) and pd.isna(c["lo_v"]) and c["n"] == 80
    schema = out.schema()
    assert [schema.base_schema.field(n).type for n in ("s_v", "n", "lo_v", "s_f", "hi_ts")] == [
        pa.int64(), pa.int64(), pa.int32(), pa.float64(), pa.timestamp("us")]


def test_string_and_timestamp_multi_keys(ray_session, monkeypatch):
    monkeypatch.setattr(shuffle, "_AGG_BUCKETS", 4)
    t = _planted()
    ds = rd.from_arrow([t.slice(0, 200), t.slice(200)])
    got = group_aggregate(ds, ["k", "k2"], AGGS).to_pandas()
    assert len(got) == 15
    _same(got, _duck(t, "k, k2"), ["k", "k2"])


def test_pandas_format_input_blocks(ray_session):
    t = _planted().select(["k", "v", "f"])
    aggs = {"s_v": ("sum", "v"), "n": ("count", None), "hi_f": ("max", "f")}
    df = t.to_pandas()
    ds = rd.from_pandas([df.iloc[:200], df.iloc[200:]]).map_batches(
        lambda b: b, batch_format="pandas")
    got = group_aggregate(ds, "k", aggs).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute(
        "SELECT k, sum(v) AS s_v, count(*) AS n, max(f) AS hi_f FROM t GROUP BY k").df()
    _same(got, want, ["k"])


def test_no_aggregate_is_a_distinct(ray_session):
    t = _planted()
    got = group_aggregate(rd.from_arrow(t).repartition(5), ["k", "s"], {}).to_pandas()
    con = duckdb.connect()
    con.register("t", t)
    want = con.execute("SELECT DISTINCT k, s FROM t").df()
    assert not got.duplicated().any()
    _same(got, want, ["k", "s"])


def test_empty_input_gives_an_empty_result(ray_session):
    """No batch reaches the partials, so the result is empty and, like
    Ray's own aggregate, carries no schema."""
    t = _planted()
    for ds in (rd.from_arrow(t.slice(0, 0)),
               rd.from_arrow(t).filter(expr="f > 1e9")):
        out = group_aggregate(ds, ["k", "k2"], AGGS)
        assert out.count() == 0
        assert out.take_all() == []


def test_each_output_block_is_one_chunk(ray_session, monkeypatch):
    monkeypatch.setattr(shuffle, "_AGG_BUCKETS", 32)
    t = pa.table({"k": pa.array([i % 97 for i in range(2000)], pa.int64()),
                  "v": pa.array(range(2000), pa.int64())})
    ds = rd.from_arrow([t.slice(i, 250) for i in range(0, 2000, 250)])
    out = group_aggregate(ds, "k", {"s": ("sum", "v")})
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref, _ in b.blocks]
    tables = [b for b in blocks if b.num_rows]
    assert len(tables) >= 1
    assert all(c.num_chunks == 1 for b in tables for c in b.columns)
    assert sum(b.num_rows for b in tables) == 97
    got = pa.concat_tables(tables).to_pandas().set_index("k")["s"]
    assert got.to_dict() == t.to_pandas().groupby("k")["v"].sum().to_dict()


# -------------------------------------------------------------- the guard

_GROUPED = {"aggregate", "count", "sum", "min", "max", "mean", "std"}
# keywords only pandas' DataFrame.groupby takes; Ray's takes key and
# num_partitions
_PANDAS_ONLY = {"sort", "as_index", "dropna", "observed", "group_keys"}


def _ray_grouped_aggregates(tree: ast.AST):
    """Line numbers of ``<x>.groupby(...).<agg>(...)`` chains whose groupby
    is not a pandas one."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GROUPED):
            continue
        g = node.func.value
        if (isinstance(g, ast.Call) and isinstance(g.func, ast.Attribute)
                and g.func.attr == "groupby"
                and not {kw.arg for kw in g.keywords} & _PANDAS_ONLY):
            yield node.lineno


def test_no_ray_native_grouped_aggregate_in_the_engine():
    paths = sorted((REPO / "entity_extractor_ray").rglob("*.py")) + [REPO / "__ray_entry__.py"]
    found = [
        f"{path.relative_to(REPO)}:{line}"
        for path in paths
        for line in _ray_grouped_aggregates(ast.parse(path.read_text()))
    ]
    assert found == []


def test_grouped_aggregate_scan_sees_a_planted_one():
    src = ("from ray.data.aggregate import Sum\n"
           "a = ds.groupby('k').aggregate(Sum('v'))\n"
           "b = (ds.map_batches(f)\n      .groupby(['k', 'j'])\n      .count())\n"
           "c = df.groupby('k', sort=False).sum()\n")
    assert list(_ray_grouped_aggregates(ast.parse(src))) == [2, 3]


# ------------------------------------------------- one bucket apply guard

_FLAVOUR_SWITCHES = {"arrow_groups", "arrow"}


def _bucket_apply_findings(tree: ast.AST):
    """(line, what) of every ``map_groups`` call, every use of the removed
    ``bucket_group_apply_arrow`` and every bucket-apply call that passes an
    Arrow/pandas switch."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "bucket_group_apply_arrow":
                    yield node.lineno, alias.name
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name in ("map_groups", "bucket_group_apply_arrow"):
            yield node.lineno, name
        elif name in ("bucket_group_apply", "bucket_group_apply_partitioned", "buckets"):
            for kw in node.keywords:
                if kw.arg in _FLAVOUR_SWITCHES:
                    yield node.lineno, kw.arg


def test_one_map_groups_site_and_no_flavour_switch_in_the_engine():
    paths = sorted((REPO / "entity_extractor_ray").rglob("*.py")) + [REPO / "__ray_entry__.py"]
    found = [
        (str(path.relative_to(REPO)), what)
        for path in paths
        for _, what in _bucket_apply_findings(ast.parse(path.read_text()))
    ]
    assert found == [("entity_extractor_ray/stages/shuffle.py", "map_groups")]


def test_bucket_apply_scan_sees_planted_ones():
    src = ("from x.shuffle import bucket_group_apply, bucket_group_apply_arrow\n"
           "a = ds.groupby('k').map_groups(f, batch_format='pandas')\n"
           "b = bucket_group_apply_arrow(ds, ['k'], f, 8)\n"
           "c = shuffle.bucket_group_apply_partitioned(ds, ['k'], f, 8, d, s,\n"
           "                                           arrow_groups=True)\n"
           "d = r.buckets('edges', ds, ['k'], f, s, arrow=True)\n"
           "e = bucket_group_apply(ds, ['k'], f, n_buckets=8)\n")
    assert sorted(_bucket_apply_findings(ast.parse(src))) == [
        (1, "bucket_group_apply_arrow"), (2, "map_groups"),
        (3, "bucket_group_apply_arrow"), (4, "arrow_groups"), (6, "arrow")]


def test_bucket_fn_gets_an_arrow_table_without_the_bucket_column(ray_session):
    def fn(t, bucket_id):
        assert isinstance(t, pa.Table)
        return pa.table({"k": t.column("k"), "b": pa.array([bucket_id] * t.num_rows),
                         "cols": pa.array([",".join(t.column_names)] * t.num_rows)})

    ds = rd.from_pandas(pd.DataFrame({"k": list(range(40)), "v": [1.0] * 40}))
    out = shuffle.bucket_group_apply(ds, ["k"], fn, n_buckets=4).to_pandas()
    assert sorted(out["k"]) == list(range(40))
    assert set(out["cols"]) == {"k,v"}
    want = shuffle.stable_bucket_array(pa.table({"k": list(range(40))}), ["k"], 4)
    assert out.sort_values("k")["b"].tolist() == want.tolist()
