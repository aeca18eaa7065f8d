"""The map-side mergeable rollup (graph._rollup_partial + _rollup_merge_bucket)
must be EXACTLY the row-level spec (``_resolve_bucket`` below) for every
input — including when a parent's children are split across many batches
(the merge property the map-side combine relies on)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from entity_extractor_ray.functions.decision_tables import SRC_NONE
from entity_extractor_ray.stages.graph import _rollup_merge_bucket, _rollup_partial

# ---- the row-level spec: parent status = max child rank; source = the
# preferred source among the children at that rank

_STATUS_RANK = {"NO": 0, "PENDING": 1, "YES": 2}
_RANK_STATUS = {0: "NO", 1: "PENDING", 2: "YES"}
# preference rank per (parent PENDING?, source): lower = preferred;
# unlisted sources never win the vote (rank 99)
_PREF_PENDING = {"OECD": 0, "VAI": 1, "MANUAL": 2}
_PREF_OTHER = {"VAI": 0, "OECD": 1, "MANUAL": 2}
_PREF_INV_PENDING = {v: k for k, v in _PREF_PENDING.items()}
_PREF_INV_OTHER = {v: k for k, v in _PREF_OTHER.items()}


def _resolve_bucket(df: pd.DataFrame, bucket_id: int) -> pa.Table:
    """One hash bucket of (src, child status, child source) edge rows:
    per parent apply the reference lattice + source vote — fully vectorized
    (the lattice is max() over a status rank; the vote is min() over a
    per-status preference rank restricted to voters), semantics identical
    to functions.decision_tables.parent_pfas_resolution."""
    rank = df["pfas_status"].map(_STATUS_RANK).fillna(1)
    parent_rank = rank.groupby(df["src"], sort=False).transform("max")
    parent_status_row = parent_rank.map(_RANK_STATUS)

    is_pending_parent = parent_rank == 1
    pref = pd.Series(
        np.where(
            is_pending_parent,
            df["pfas_information_source"].map(_PREF_PENDING).fillna(99),
            df["pfas_information_source"].map(_PREF_OTHER).fillna(99),
        ),
        index=df.index,
    )
    # only children whose status equals the parent's resolved status vote
    voter = df["pfas_status"].map(_STATUS_RANK).fillna(1) == parent_rank
    pref = pref.where(voter, 99)

    g = pd.DataFrame(
        {"src": df["src"], "status": parent_status_row, "pref": pref,
         "pending": is_pending_parent}
    ).groupby("src", sort=False).agg(
        status=("status", "first"), pref=("pref", "min"), pending=("pending", "first")
    ).reset_index()

    src_out = g["src"].tolist()
    status_out = g["status"].tolist()
    source_out = [
        (_PREF_INV_PENDING if pend else _PREF_INV_OTHER).get(int(p), SRC_NONE)
        for p, pend in zip(g["pref"], g["pending"])
    ]
    return pa.table(
        {
            "entity_id": pa.array(src_out, pa.string()),
            "pfas_status": pa.array(status_out, pa.string()),
            "pfas_information_source": pa.array(source_out, pa.string()),
        }
    )


STATUSES = ["NO", "PENDING", "YES", None, "WEIRD"]
SOURCES = ["OECD", "VAI", "MANUAL", None, "UNLISTED"]


def _spec(df: pd.DataFrame) -> dict:
    out = _resolve_bucket(df, 0).to_pandas()
    return {
        r.entity_id: (r.pfas_status, r.pfas_information_source)
        for r in out.itertuples()
    }


def _combined(df: pd.DataFrame, n_splits: int) -> dict:
    t = pa.Table.from_pandas(df, preserve_index=False)
    parts = []
    bounds = np.linspace(0, t.num_rows, n_splits + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            parts.append(_rollup_partial(t.slice(lo, hi - lo)))
    merged = _rollup_merge_bucket(pa.concat_tables(parts), 0).to_pandas()
    return {
        r.entity_id: (r.pfas_status, r.pfas_information_source)
        for r in merged.itertuples()
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n_splits", [1, 3, 7])
def test_partials_match_spec_random(seed, n_splits):
    rng = np.random.default_rng(seed)
    n = 400
    df = pd.DataFrame(
        {
            "src": [f"mat{int(i)}" for i in rng.integers(0, 40, n)],
            "pfas_status": rng.choice(STATUSES, n),
            "pfas_information_source": rng.choice(SOURCES, n),
        }
    )
    assert _combined(df, n_splits) == _spec(df)


def test_single_child_cases():
    rows = []
    for st in STATUSES:
        for so in SOURCES:
            rows.append((f"m_{st}_{so}", st, so))
    df = pd.DataFrame(rows, columns=["src", "pfas_status", "pfas_information_source"])
    assert _combined(df, 2) == _spec(df)


def test_vote_restricted_to_resolved_rank():
    # parent resolves YES via child B; child A's preferred OECD source has
    # rank PENDING so it must NOT win the vote
    df = pd.DataFrame(
        {
            "src": ["m", "m"],
            "pfas_status": ["PENDING", "YES"],
            "pfas_information_source": ["OECD", "MANUAL"],
        }
    )
    got = _combined(df, 2)
    assert got == _spec(df)
    assert got["m"][0] == "YES"
    assert got["m"][1] == "MANUAL"


def test_empty_bucket_returns_declared_schema():
    from entity_extractor_ray.stages.graph import _ROLLUP_SCHEMA

    out = _rollup_merge_bucket(_ROLLUP_SCHEMA.empty_table(), 0)
    assert out.schema.names == [
        "entity_id", "pfas_status", "pfas_information_source"
    ]
    assert out.num_rows == 0
