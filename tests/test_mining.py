"""Pinning tests for pipelines/mining.py: BPE merge training vs a serial
reference (incl. greedy-leftmost overlap semantics), the band join's
boundary inclusivity on planted timestamps, and basket lift on a planted
corpus with duplicate (order, part) lines."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from entity_extractor_ray.functions.pairs import capped_members
from entity_extractor_ray.pipelines.mining import (
    _apply_merge_np,
    basket_pair_lift,
    bpe_merges,
    bpe_merges_serial,
    events_band_join,
    supplier_jaccard,
)


# ------------------------------------------------------ merge kernel units


def _roundtrip(words, left, right):
    flat = np.array([s for w in words for s in w], dtype=object)
    offs = np.r_[0, np.cumsum([len(w) for w in words])]
    nf, no = _apply_merge_np(flat, offs, left, right)
    return [list(nf[no[i]:no[i + 1]]) for i in range(len(words))]


def test_merge_overlap_even_run():
    # 'aaaa' -> (aa)(aa): greedy leftmost takes positions 0 and 2
    assert _roundtrip([list("aaaa")], "a", "a") == [["aa", "aa"]]


def test_merge_overlap_odd_run():
    # 'aaa' -> (aa)a
    assert _roundtrip([list("aaa")], "a", "a") == [["aa", "a"]]


def test_merge_never_crosses_word_boundary():
    # last symbol of word 1 + first of word 2 must NOT merge
    out = _roundtrip([list("xa"), list("ax")], "a", "a")
    assert out == [["x", "a"], ["a", "x"]]


def test_merge_distinct_pair():
    assert _roundtrip([list("abab"), list("ba")], "a", "b") == [
        ["ab", "ab"],
        ["b", "a"],
    ]


def test_merge_matches_serial_on_adversarial_words():
    words = ["aaaa", "aaab", "abab", "bbaa", "aabbaabb", "a", "", "ab"]
    counts = {w: i + 1 for i, w in enumerate(words)}
    serial = bpe_merges_serial(counts, n_merges=6, min_pair=1)
    # replay the serial merge sequence through the numpy kernel
    flat = np.array([s for w in words for s in w], dtype=object)
    offs = np.r_[0, np.cumsum([len(w) for w in words])].astype(np.int64)
    vocab = {w: list(w) for w in words}
    for _, left, right, _n in serial:
        flat, offs = _apply_merge_np(flat, offs, left, right)
        merged = left + right
        for w in vocab:
            out, i = [], 0
            s = vocab[w]
            while i < len(s):
                if i + 1 < len(s) and s[i] == left and s[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            vocab[w] = out
        got = [list(flat[offs[i]:offs[i + 1]]) for i in range(len(words))]
        assert got == [vocab[w] for w in words]


# ------------------------------------------------- distributed BPE vs serial


@pytest.mark.usefixtures("ray_session")
def test_bpe_merges_matches_serial_reference():
    import duckdb

    wc = duckdb.sql(
        f"""SELECT word, CAST(count(*) AS BIGINT) AS c FROM
        (SELECT unnest(string_split(text, ' ')) AS word
         FROM '/root/testdata/sf0.001/documents.parquet') GROUP BY 1"""
    ).fetchall()
    serial = bpe_merges_serial({w: c for w, c in wc}, n_merges=12)
    got = bpe_merges("/root/testdata/sf0.001", n_merges=12).to_pylist()
    assert [(m["rank"], m["left"], m["right"], m["pair_n"]) for m in got] == serial


# ----------------------------------------------------- band join boundaries


@pytest.mark.usefixtures("ray_session")
def test_band_join_boundary_inclusivity(tmp_path):
    us = 1_000_000
    base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    band = 30 * 60 * us
    rows = [
        # user 1: purchase at T; clicks exactly at T-30min (IN), T-30min-1us
        # (OUT), T-1us (IN), T (OUT: half-open), T+1 (OUT)
        (1, 1, "purchase", base + band, 0.0),
        (2, 1, "click", base, 1.00),
        (3, 1, "click", base - 1, 2.00),
        (4, 1, "click", base + band - 1, 4.00),
        (5, 1, "click", base + band, 8.00),
        (6, 1, "click", base + band + 1, 16.00),
        # user 2's click must not leak into user 1's window
        (7, 2, "click", base + band - 5, 32.00),
        # user 2: purchase with zero clicks in window -> LEFT row preserved
        (8, 2, "purchase", base, 0.0),
        # non-click types never count
        (9, 1, "view", base + band - 2, 64.00),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[3] for r in rows], pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array([r[2] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    got = (
        events_band_join(str(tmp_path))
        .to_pandas()
        .sort_values("purchase_id")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"purchase_id": [1, 8], "n_clicks": [2, 0], "click_cents": [100 + 400, 0]}
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# -------------------------------------------------------- basket lift plant


@pytest.mark.usefixtures("ray_session")
def test_basket_lift_planted(tmp_path):
    # orders: 1:{10,20} ×2 lines of part 10 (dedup!), 2:{10,20,30}, 3:{10,30},
    # 4:{20}; n_orders=4; pair (10,20) in orders 1,2; (10,30) in 2,3;
    # (20,30) in 2 only (below min_pairs=2)
    ok = [1, 1, 1, 2, 2, 2, 3, 3, 4]
    pk = [10, 10, 20, 10, 20, 30, 10, 30, 20]
    t = pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_partkey": pa.array(pk, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "lineitem.parquet")
    got = (
        basket_pair_lift(str(tmp_path), min_pairs=2)
        .to_pandas()
        .sort_values(["p1", "p2"])
        .reset_index(drop=True)
    )
    # supports: 10 -> 3 orders, 20 -> 3, 30 -> 2
    want = pd.DataFrame(
        {
            "p1": [10, 10],
            "p2": [20, 30],
            "pair_n": [2, 2],
            "lift": [
                np.floor(1e6 * (4 * 2) / (3 * 3)) / 1e6,
                np.floor(1e6 * (4 * 2) / (3 * 2)) / 1e6,
            ],
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_supplier_jaccard_planted(tmp_path):
    # part 1 -> suppliers {1,2} (supplier 1 listed twice: dedupe),
    # part 2 -> {1,2,3}, part 3 -> {1}; sets: s1={1,2,3}, s2={1,2}, s3={2}
    pk = [1, 1, 1, 2, 2, 2, 3]
    sk = [1, 1, 2, 1, 2, 3, 1]
    t = pa.table(
        {
            "l_partkey": pa.array(pk, pa.int64()),
            "l_suppkey": pa.array(sk, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "lineitem.parquet")
    got = (
        supplier_jaccard(str(tmp_path), min_common=1)
        .to_pandas()
        .sort_values(["s1", "s2"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "s1": [1, 1, 2],
            "s2": [2, 3, 3],
            "inter_n": [2, 1, 1],
            "jaccard": [
                np.floor(1e6 * 2 / (3 + 2 - 2)) / 1e6,
                np.floor(1e6 * 1 / (3 + 1 - 1)) / 1e6,
                np.floor(1e6 * 1 / (2 + 1 - 1)) / 1e6,
            ],
        }
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# ------------------------------------------------------------ EWMA pinning


@pytest.mark.usefixtures("ray_session")
def test_events_user_ewma_matches_pandas():
    from entity_extractor_ray.pipelines.mining import EWMA_ALPHA, events_user_ewma

    got = (
        events_user_ewma("/root/testdata/sf0.001")
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)
    )
    ev = pd.read_parquet("/root/testdata/sf0.001/events.parquet")
    want = (
        ev.sort_values(["user_id", "ts"], kind="mergesort")
        .groupby("user_id")["value"]
        .apply(lambda s: s.ewm(alpha=EWMA_ALPHA, adjust=False).mean().iloc[-1])
        .rename("ewma")
        .reset_index()
    )
    counts = ev.groupby("user_id").size().rename("n_events").reset_index()
    want = want.merge(counts, on="user_id")[["user_id", "n_events", "ewma"]]
    pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9, rtol=1e-9)


# ------------------------------------------------------- multimodal resize


class TestResizeStage:
    def test_stub_deterministic_and_bounded(self):
        from entity_extractor_ray.stages.multimodal import (
            ImageResizeStub,
            RESIZED_SCHEMA,
            synth_media_table,
        )

        t = synth_media_table(n_items=8)
        stub = ImageResizeStub(target_w=8, target_h=4, strict=False)
        out1, out2 = stub(t), stub(t)
        assert out1.schema == RESIZED_SCHEMA
        assert out1.equals(out2)  # deterministic
        for row in out1.to_pylist():
            assert row["out_w"] == 8 and row["out_h"] == 4
            assert len(row["thumb"]) <= 8 * 4  # bounded byte budget
            assert row["src_bytes"] > 0

    def test_strict_raises_without_codec(self):
        from entity_extractor_ray.stages.multimodal import (
            ImageResizeStub,
            synth_media_table,
        )

        stub = ImageResizeStub(strict=True)
        if stub.pil:
            pytest.skip("PIL present: strict path exercises the real codec")
        with pytest.raises(NotImplementedError):
            stub(synth_media_table(n_items=1))

    @pytest.mark.usefixtures("ray_session")
    def test_actor_pool_plumbing(self, tmp_path):
        from entity_extractor_ray.stages.multimodal import (
            read_media_files,
            resize_media,
            write_media_corpus,
        )

        d = write_media_corpus(str(tmp_path / "media"), n_items=12)
        out = resize_media(read_media_files(d), target_w=4, target_h=4,
                           concurrency=1, batch_size=4).to_pandas()
        assert len(out) == 12
        assert set(out.columns) == {"item_id", "mime", "src_bytes", "out_w",
                                    "out_h", "thumb"}
        assert (out["out_w"] == 4).all()


# ------------------------------------------------- tagged bucket reduce pin


@pytest.mark.usefixtures("ray_session")
def test_pair_count_reduce_equals_ray_groupby():
    import ray.data as rd
    from ray.data.aggregate import Sum

    from entity_extractor_ray.stages.shuffle import group_aggregate

    # deterministic skewed relation: duplicate keys across many blocks,
    # negative sentinels, one hot key
    rng = np.random.RandomState(7)
    n = 20000
    t = pa.table(
        {
            "kind": pa.array(rng.randint(0, 3, n), pa.int64()),
            "a": pa.array(np.where(rng.rand(n) < 0.3, -1, rng.randint(0, 50, n)), pa.int64()),
            "b": pa.array(rng.randint(-1, 40, n), pa.int64()),
            "partial": pa.array(rng.randint(1, 9, n), pa.int64()),
        }
    )
    ds = rd.from_arrow(t).repartition(16)
    got = (
        group_aggregate(ds, ["kind", "a", "b"], {"n": ("sum", "partial")})
        .to_pandas()
        .sort_values(["kind", "a", "b"])
        .reset_index(drop=True)
    )
    want = (
        rd.from_arrow(t)
        .groupby(["kind", "a", "b"])
        .aggregate(Sum("partial", alias_name="n"))
        .to_pandas()
        .sort_values(["kind", "a", "b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["kind", "a", "b", "n"]], want, check_dtype=False)


# ----------------------------------------- hot-posting-list cap (VERDICT r4 #1)


def test_cap_posting_lists_unit(caplog):
    """The miners' hot-posting-list cap, now the pair kernel's
    ``capped_members``: the properties the old private cap was held to."""
    import logging

    # segment layout (sorted by key,val): key 1 -> 100 members, key 2 -> 3,
    # key 3 -> 1; cap 10 must truncate ONLY key 1, uniformly + stably
    keys = np.r_[np.full(100, 1), np.full(3, 2), np.full(1, 3)].astype(np.int64)
    vals = np.r_[np.arange(100), np.arange(3), np.arange(1)].astype(np.int64)

    def cap(c):
        kept = capped_members([keys], vals, c, "unit", 0)
        return keys[kept], vals[kept]

    with caplog.at_level(logging.WARNING, logger="entity_extractor_ray.pairs"):
        k1, v1 = cap(10)
    # bounded, subset, order preserved, untouched segments exact
    assert list(k1).count(1) == 10 and list(k1).count(2) == 3 and list(k1).count(3) == 1
    assert set(v1[k1 == 1]) <= set(range(100))
    assert np.all(np.diff(np.flatnonzero(k1 == 1)) == 1)  # still contiguous
    assert sorted(v1[k1 == 2]) == [0, 1, 2]
    # sorted order preserved within the truncated segment
    assert list(v1[k1 == 1]) == sorted(v1[k1 == 1])
    # drop counted + logged
    assert any("dropped 90" in r.message for r in caplog.records)
    # deterministic (process-stable hash)
    k2, v2 = cap(10)
    assert np.array_equal(v1, v2)
    # no-op below the cap: identity, no log
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="entity_extractor_ray.pairs"):
        k3, v3 = cap(1000)
    assert np.array_equal(k3, keys) and np.array_equal(v3, vals)
    assert not caplog.records


@pytest.mark.usefixtures("ray_session")
def test_supplier_jaccard_hot_part_capped(tmp_path):
    # ONE hot part supplied by 1000 suppliers: uncapped pair generation
    # would emit C(1000,2) = 499500 candidates; posting_cap=50 bounds it at
    # C(50,2) = 1225 while set sizes stay exact (every supplier: size 1,
    # so every surviving pair has jaccard == 1.0)
    n = 1000
    t = pa.table(
        {
            "l_partkey": pa.array(np.full(n, 7), pa.int64()),
            "l_suppkey": pa.array(np.arange(n), pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "lineitem.parquet")
    got = supplier_jaccard(str(tmp_path), min_common=1, posting_cap=50).to_pandas()
    assert 0 < len(got) <= 50 * 49 // 2
    assert (got["inter_n"] == 1).all()
    assert (got["jaccard"] == 1.0).all()


@pytest.mark.usefixtures("ray_session")
def test_basket_lift_hot_basket_capped(tmp_path):
    # ONE mega-basket of 1000 parts + one normal basket; basket_cap=30
    # bounds pair generation at C(30,2) = 435 while n_orders and item
    # supports stay exact (parts 1,2 in both baskets -> their pair, if it
    # survives truncation, has pair_n <= 2 and exact supports n1 = n2 = 2)
    mega_ok = np.full(1000, 1)
    mega_pk = np.arange(1000)
    ok = np.r_[mega_ok, [2, 2]]
    pk = np.r_[mega_pk, [1, 2]]
    t = pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_partkey": pa.array(pk, pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "lineitem.parquet")
    got = basket_pair_lift(str(tmp_path), min_pairs=1, basket_cap=30).to_pandas()
    assert 0 < len(got) <= 30 * 29 // 2 + 1  # capped mega pairs + the (1,2) pair
    assert (got["pair_n"] <= 2).all()
    # n_orders = 2 exactly: lift for a pair_n=1 pair of two once-seen parts
    # is floor(1e6 * 2*1/(1*1))/1e6 = 2.0 — exact supports survived the cap
    singles = got[(got["pair_n"] == 1) & (got["p1"] > 2) & (got["p2"] > 2)]
    assert (singles["lift"] == 2.0).all()


# ------------------------------------------------- round-5 operator batch


@pytest.mark.usefixtures("ray_session")
def test_bpe_encode_matches_serial():
    from entity_extractor_ray.pipelines.mining import (
        bpe_encode,
        bpe_encode_serial,
    )

    merges_tbl = bpe_merges("/root/testdata/sf0.001", n_merges=12)
    merges = list(
        zip(merges_tbl.column("left").to_pylist(), merges_tbl.column("right").to_pylist())
    )
    got = (
        bpe_encode("/root/testdata/sf0.001", n_merges=12)
        .to_pandas()
        .set_index("doc_id")["n_bpe_tokens"]
        .to_dict()
    )
    import duckdb

    docs = duckdb.sql(
        "SELECT doc_id, text FROM '/root/testdata/sf0.001/documents.parquet'"
    ).fetchall()
    assert len(got) == len(docs) > 0
    for doc_id, text in docs:
        assert got[doc_id] == bpe_encode_serial(text, merges), doc_id


@pytest.mark.usefixtures("ray_session")
def test_events_ohlc_cross_batch_merge(tmp_path):
    # >1024 rows so the map-side partial path has MULTIPLE batches and the
    # bucket merge must pick endpoints across partials; values/ts shuffled
    # so batch order != time order
    from entity_extractor_ray.pipelines.mining import events_ohlc

    rng = np.random.RandomState(7)
    n = 3000
    base = np.datetime64("2024-03-01T00:00:00", "us").astype(np.int64)
    day_us = 86_400_000_000
    ts = base + rng.randint(0, 2 * day_us, n)  # two days
    et = rng.choice(["click", "buy"], n)
    val = np.round(rng.uniform(0, 100, n), 2)
    order = rng.permutation(n)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n)[order], pa.int64()),
            "ts": pa.array(ts[order], pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(np.zeros(n, np.int64), pa.int64()),
            "event_type": pa.array(et[order], pa.string()),
            "value": pa.array(val[order], pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    got = (
        events_ohlc(str(tmp_path))
        .to_pandas()
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )
    import duckdb

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'"
    )
    from entity_extractor_ray.pipelines.mining import EVENTS_OHLC_SQL

    want = (
        con.execute(EVENTS_OHLC_SQL)
        .df()
        .sort_values(["event_type", "day"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns], want, check_dtype=False)
    assert len(got) == 4  # 2 types x 2 days


@pytest.mark.usefixtures("ray_session")
def test_events_minmax_norm_degenerate_type(tmp_path):
    # constant-valued type -> norm 0.0 everywhere (hi == lo guard); the
    # other type spans [10, 20] -> endpoints at exactly 0 and 1
    from entity_extractor_ray.pipelines.mining import events_minmax_norm

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "ts": pa.array([0] * 5, pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array([0] * 5, pa.int64()),
            "event_type": pa.array(["c", "c", "v", "v", "v"], pa.string()),
            "value": pa.array([7.5, 7.5, 10.0, 15.0, 20.0], pa.float64()),
            "props": pa.array(["{}"] * 5, pa.string()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    got = (
        events_minmax_norm(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["norm_value"].tolist() == [0.0, 0.0, 0.0, 0.5, 1.0]


@pytest.mark.usefixtures("ray_session")
def test_inverted_index_postings_cap(tmp_path):
    # 'hot' appears in all 10 docs, 'rare' in two: with max_postings=3 the
    # hot term keeps EXACT df but only its first 3 ascending doc_ids
    from entity_extractor_ray.pipelines.mining import inverted_index

    texts = ["hot rare" if i in (4, 8) else "hot" for i in range(10)]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(10)), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 10, pa.string()),
            "source": pa.array(["s"] * 10, pa.string()),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    got = (
        inverted_index(str(tmp_path), max_postings=3)
        .to_pandas()
        .set_index("token")
        .sort_index()
    )
    assert got.loc["hot", "df"] == 10
    assert got.loc["hot", "n_postings"] == 3
    assert got.loc["hot", "postings"] == "0,1,2"
    assert got.loc["rare", "df"] == 2
    assert got.loc["rare", "postings"] == "4,8"
