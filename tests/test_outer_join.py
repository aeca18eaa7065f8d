"""Full-outer bucket join: planted unmatched-both-sides semantics."""

import pandas as pd
import pytest


@pytest.mark.usefixtures("ray_session")
def test_bucket_hash_join_outer():
    import ray.data as rd

    from entity_extractor_ray.stages.shuffle import bucket_hash_join

    left = pd.DataFrame({"k": [1, 2, 3], "a": [10, 20, 30]})
    right = pd.DataFrame({"rk": [2, 3, 4, 4], "b": ["x", "y", "z", "w"]})
    out = (
        bucket_hash_join(
            rd.from_pandas(left), rd.from_pandas(right),
            key="k", right_key="rk", how="outer", n_buckets=4,
        )
        .to_pandas()
        .sort_values(["k", "b"], na_position="last")
        .reset_index(drop=True)
    )
    # 1 left-only, 2+3 matched, 4 right-only (twice: right multiplicity kept)
    assert list(out["k"]) == [1, 2, 3, 4, 4]
    assert out["a"].tolist()[:3] == [10, 20, 30]
    assert out["a"].isna().tolist() == [False, False, False, True, True]
    assert out["b"].fillna("-").tolist() == ["-", "x", "y", "w", "z"]
    # int column stays integral (nullable) through the null-padding
    assert str(out["a"].dtype) in ("Int64", "float64", "object") or out["a"].notna().all()


@pytest.mark.usefixtures("ray_session")
def test_null_keys_never_match():
    """SQL semantics: NULL join keys match nothing, not even each other."""
    import ray.data as rd

    from entity_extractor_ray.stages.shuffle import bucket_hash_join

    left = pd.DataFrame({"k": [1.0, None, 2.0], "a": [10, 11, 12]})
    right = pd.DataFrame({"rk": [1.0, None], "b": ["x", "y"]})

    def run(how):
        return bucket_hash_join(
            rd.from_pandas(left), rd.from_pandas(right),
            key="k", right_key="rk", how=how, n_buckets=2,
        ).to_pandas()

    inner = run("inner")
    assert len(inner) == 1 and inner["a"].iloc[0] == 10  # only k=1 matches

    left_j = run("left").sort_values("a")
    assert list(left_j["a"]) == [10, 11, 12]
    assert left_j["b"].fillna("-").tolist() == ["x", "-", "-"]

    outer = run("outer")
    # 3 left rows (1 matched) + the null-keyed right row unmatched = 4
    assert len(outer) == 4
    assert outer["b"].fillna("-").value_counts().to_dict() == {"x": 1, "-": 2, "y": 1}

    semi = run("semi")
    assert list(semi["a"]) == [10]
    anti = run("anti").sort_values("a")
    assert list(anti["a"]) == [11, 12]  # null-key left row survives NOT EXISTS


@pytest.mark.usefixtures("ray_session")
def test_left_distinct_one_shuffle_set_op():
    import ray.data as rd

    from entity_extractor_ray.stages.shuffle import bucket_hash_join

    left = pd.DataFrame({"k": [1, 1, 2, 2, 3, 3, 3]})
    right = pd.DataFrame({"rk": [2]})
    semi = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        key="k", right_key="rk", how="semi", n_buckets=2, left_distinct=True,
    ).to_pandas()
    assert list(semi["k"]) == [2]  # INTERSECT: distinct, present in right
    anti = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        key="k", right_key="rk", how="anti", n_buckets=2, left_distinct=True,
    ).to_pandas()
    assert sorted(anti["k"]) == [1, 3]  # EXCEPT: distinct, absent from right


@pytest.mark.usefixtures("ray_session")
def test_bucket_hash_join_outer_empty_side():
    import ray.data as rd

    from entity_extractor_ray.stages.shuffle import bucket_hash_join

    left = pd.DataFrame({"k": [1, 2], "a": [10, 20]})
    right = pd.DataFrame({"rk": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="object")})
    out = bucket_hash_join(
        rd.from_pandas(left), rd.from_pandas(right),
        key="k", right_key="rk", how="outer", n_buckets=2,
    ).to_pandas()
    assert sorted(out["k"]) == [1, 2]
    assert out["b"].isna().all()


@pytest.mark.usefixtures("ray_session")
def test_bucket_hash_join_empty_left_side():
    """No left batch reaches the exchange: the joins are empty, FULL OUTER
    keeps the right rows under the key and right columns."""
    import ray.data as rd

    from entity_extractor_ray.stages.shuffle import bucket_hash_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2], "a": [10, 20]})).filter(expr="k > 5")
    right = rd.from_pandas(pd.DataFrame({"rk": [2, 4], "b": ["x", "z"]}))
    for how in ("inner", "left", "semi", "anti"):
        out = bucket_hash_join(left, right, key="k", right_key="rk", how=how, n_buckets=2)
        assert out.count() == 0, how
    out = bucket_hash_join(left, right, key="k", right_key="rk", how="outer", n_buckets=2)
    got = out.to_pandas().sort_values("k")
    assert list(got.columns) == ["k", "b"]
    assert got["k"].tolist() == [2, 4] and got["b"].tolist() == ["x", "z"]
