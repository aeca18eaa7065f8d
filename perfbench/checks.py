"""Output checks, each computed apart from the engine.

Every check returns a list of problems (empty means the output passed), so
the self-tests can plant a corruption and assert that the check names it.
Nothing here touches Ray: the KG expectations come from the serial
extractor in ``entity_extractor_ray.oracle`` and plain Python, the query
expectations from DuckDB over the same input files.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

Triple = Tuple[str, str, str, str]

KG_OUTPUTS = ("triples", "nodes", "edges", "lineage", "manufacturers", "errors")


def read_dir(path: str) -> pa.Table:
    """All parquet files under ``path`` (recursively) as one table; a table
    without columns when there are none (an empty Dataset writes no file)."""
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no output directory {path}")
    files = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(path) for f in fs if f.endswith(".parquet")
    )
    if not files:
        return pa.table({})
    tables = [pq.read_table(f) for f in files]
    schema = tables[0].schema
    return pa.concat_tables([t.select(schema.names).cast(schema) for t in tables])


def _limit(problems: List[str], n: int = 5) -> List[str]:
    return problems if len(problems) <= n else problems[:n] + [f"... {len(problems) - n} more"]


# ------------------------------------------------------------------ kg_build

def conversation_records(turns: pa.Table) -> Dict[str, Optional[dict]]:
    """conv_id -> what the serial extractor makes of the conversation (None:
    no extractable record), in conv_id order, without Ray."""
    from entity_extractor_ray.oracle import extract_record

    df = turns.select(["conv_id", "turn_idx", "text"]).to_pandas()
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    return {conv_id: extract_record(list(zip(g["turn_idx"], g["text"])))
            for conv_id, g in df.groupby("conv_id", sort=True)}


def expected_triples(records: Dict[str, Optional[dict]]) -> Set[Triple]:
    """The (conv_id, subj, pred, obj) set: conversations in conv_id order,
    first record wins per (normalized material name, manufacturer)."""
    from entity_extractor_ray.functions.decision_tables import (
        normalize_cas, normalize_name_key,
    )

    seen = set()
    out: Set[Triple] = set()
    for conv_id, rec in sorted(records.items()):
        if rec is None or "__drop_reason" in rec:
            continue
        key = (normalize_name_key(rec["material_name"]), rec["manufacturer"])
        if key in seen:
            continue
        seen.add(key)
        mat = rec["material_name"]
        out.add((conv_id, mat, "MADE_BY", rec["manufacturer"]))
        for chem in rec["chemicals"]:
            name = chem["chemical_name"]
            out.add((conv_id, mat, "CONTAINS", name))
            cas = normalize_cas(chem["cas"])
            if cas:
                out.add((conv_id, name, "HAS_CAS", cas))
            out.add((conv_id, name, "HAS_TAG", chem["tag"]))
    return out


def triple_rows(triples: pa.Table) -> List[Triple]:
    cols = [triples.column(c).to_pylist() for c in ("conv_id", "subj", "pred", "obj")]
    return list(zip(*cols))


def check_triples(triples: pa.Table, expected: Set[Triple]) -> List[str]:
    rows = triple_rows(triples)
    got = set(rows)
    problems = []
    if len(rows) != len(got):
        problems.append(f"triples: {len(rows) - len(got)} duplicate rows")
    missing, extra = expected - got, got - expected
    if missing:
        problems.append(f"triples: {len(missing)} missing, e.g. {sorted(missing)[:2]}")
    if extra:
        problems.append(f"triples: {len(extra)} unexpected, e.g. {sorted(extra)[:2]}")
    return problems


def check_graph(out: Dict[str, pa.Table], records: Dict[str, Optional[dict]]) -> List[str]:
    """Properties every KG must have: unique node ids, no dangling edge or
    lineage entity, and every conversation accounted for exactly once (a
    surviving MADE_BY triple, an assemble/dedup error row, or no
    extractable record at all)."""
    problems: List[str] = []
    ids = out["nodes"].column("entity_id").to_pylist()
    node_ids = set(ids)
    if len(ids) != len(node_ids):
        problems.append(f"nodes: {len(ids) - len(node_ids)} duplicate entity_id")
    for col in ("src", "dst"):
        dangling = [v for v in out["edges"].column(col).to_pylist() if v not in node_ids]
        if dangling:
            problems.append(f"edges: {len(dangling)} {col} not a node, e.g. {dangling[:2]}")
    lin = [v for v in out["lineage"].column("entity_id").to_pylist() if v not in node_ids]
    if lin:
        problems.append(f"lineage: {len(lin)} entity_id not a node, e.g. {lin[:2]}")

    made_by = [c for c, _, p, _ in triple_rows(out["triples"]) if p == "MADE_BY"]
    err = out["errors"].to_pydict()
    dropped = [k for s, k in zip(err.get("stage", []), err.get("key", []))
               if s in ("assemble", "dedup")]
    counts: Dict[str, int] = {}
    for c in made_by + dropped:
        counts[c] = counts.get(c, 0) + 1
    twice = sorted(c for c, n in counts.items() if n > 1)
    if twice:
        problems.append(f"conversations: {len(twice)} accounted for twice, e.g. {twice[:2]}")
    unaccounted = [conv_id for conv_id, rec in sorted(records.items())
                   if conv_id not in counts and rec is not None]
    if unaccounted:
        problems.append(
            f"conversations: {len(unaccounted)} with a record but no triple or "
            f"error row, e.g. {unaccounted[:2]}"
        )
    stray = sorted(set(counts) - set(records))
    if stray:
        problems.append(f"conversations: {len(stray)} not in the corpus, e.g. {stray[:2]}")
    return _limit(problems)


# ------------------------------------------------------------------ kg_delta

def _row_multiset(t: pa.Table) -> List[tuple]:
    t = t.select(sorted(t.column_names))
    cols = [t.column(c).to_pylist() for c in t.column_names]
    return sorted(zip(*cols), key=repr)


def check_equal_tables(name: str, got: pa.Table, want: pa.Table) -> List[str]:
    if not got.num_rows or not want.num_rows:
        ok = got.num_rows == want.num_rows
        return [] if ok else [f"{name}: {got.num_rows} rows vs {want.num_rows} expected"]
    if sorted(got.column_names) != sorted(want.column_names):
        return [f"{name}: columns {sorted(got.column_names)} != {sorted(want.column_names)}"]
    g, w = _row_multiset(got), _row_multiset(want)
    if g == w:
        return []
    gs, ws = set(g), set(w)
    return [
        f"{name}: {len(g)} rows vs {len(w)} expected; {len(ws - gs)} missing "
        f"(e.g. {sorted(ws - gs, key=repr)[:1]}), {len(gs - ws)} unexpected "
        f"(e.g. {sorted(gs - ws, key=repr)[:1]})"
    ]


def check_same_outputs(got: Dict[str, pa.Table], want: Dict[str, pa.Table]) -> List[str]:
    problems: List[str] = []
    for name in KG_OUTPUTS:
        problems += check_equal_tables(name, got[name], want[name])
    return problems


# ------------------------------------------------------------------ queries

def duckdb_tables(con, tables_dir: str) -> None:
    for f in sorted(os.listdir(tables_dir)):
        if f.endswith(".parquet"):
            con.execute(
                f"CREATE OR REPLACE VIEW {f[:-8]} AS "
                f"SELECT * FROM read_parquet('{os.path.join(tables_dir, f)}')"
            )


def _canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def check_query(name: str, got: pd.DataFrame, want: pd.DataFrame) -> List[str]:
    """Same columns, same row multiset; floats equal to 1e-9 relative."""
    if not len(got.columns):  # an empty result wrote no file
        return [] if not len(want) else [f"{name}: 0 rows, expected {len(want)}"]
    if sorted(got.columns) != sorted(want.columns):
        return [f"{name}: columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, expected {len(want)}"]
    g, w = _canonical(got), _canonical(want)
    problems = []
    for c in g.columns:
        gv, wv = g[c], w[c]
        if pd.api.types.is_float_dtype(gv) and pd.api.types.is_float_dtype(wv):
            ok = np.allclose(gv.to_numpy(), wv.to_numpy(), rtol=1e-9, atol=0, equal_nan=True)
        else:
            ok = gv.astype(object).where(gv.notna(), None).tolist() == \
                wv.astype(object).where(wv.notna(), None).tolist()
        if not ok:
            problems.append(f"{name}: column {c} differs from the DuckDB result")
    return problems


# minhash_dedup's documented default: near duplicates are documents whose
# 5-character shingle sets have a Jaccard similarity of at least 0.6
MINHASH_SHINGLE = 5
MINHASH_JACCARD = 0.6


def _shingles(text: str) -> set:
    t = " ".join((text or "").lower().split())
    k = MINHASH_SHINGLE
    return {t[i:i + k] for i in range(len(t) - k + 1)} if len(t) >= k else ({t} if t else set())


def _jaccard(a: set, b: set) -> float:
    union = len(a | b)
    return len(a & b) / union if union else 1.0


def _unlinked(members: List[int], text: Dict[int, str]) -> List[int]:
    """Members not reachable from the first through pairs of members whose
    Jaccard is at least MINHASH_JACCARD (the engine rounds to 6 places)."""
    sh = {m: _shingles(text[m]) for m in members}
    reached, todo = {members[0]}, [members[0]]
    while todo:
        a = todo.pop()
        for b in members:
            if b not in reached and _jaccard(sh[a], sh[b]) >= MINHASH_JACCARD - 1e-6:
                reached.add(b)
                todo.append(b)
    return [m for m in members if m not in reached]


def check_minhash(result: pd.DataFrame, docs: pa.Table, exact_kept: int) -> List[str]:
    """Properties near-duplicate removal must have: every input document is
    assigned once, the kept representatives are input ids, no two of them
    have the same text, no more are kept than exact dedup keeps, and no
    cluster is over-merged: each is labelled by its smallest doc_id and is
    connected by member pairs at or above the Jaccard threshold."""
    problems = []
    ids = docs.column("doc_id").to_pylist()
    text = dict(zip(ids, docs.column("text").to_pylist()))
    assigned = result["doc_id"].tolist()
    if sorted(assigned) != sorted(ids):
        problems.append("minhash_dedup: output doc_ids are not the input doc_ids once each")
    kept = set(result["cluster_id"].tolist())
    if not kept <= set(ids):
        problems.append(f"minhash_dedup: {len(kept - set(ids))} kept ids not in the input")
    texts = [text.get(k) for k in kept]
    if len(set(texts)) != len(texts):
        problems.append("minhash_dedup: two kept documents have the same text")
    if len(kept) > exact_kept:
        problems.append(f"minhash_dedup: keeps {len(kept)} > exact_dedup's {exact_kept}")
    clusters: Dict[int, List[int]] = {}
    for d, c in zip(assigned, result["cluster_id"].tolist()):
        clusters.setdefault(c, []).append(d)
    for c, members in sorted(clusters.items()):
        members = sorted(m for m in members if m in text)
        if members and c != members[0]:
            problems.append(f"minhash_dedup: cluster {c} is not labelled by its "
                            f"smallest doc_id {members[0]}")
        loose = _unlinked(members, text) if len(members) > 1 else []
        if loose:
            problems.append(f"minhash_dedup: cluster {c} joins {len(loose)} documents "
                            f"below Jaccard {MINHASH_JACCARD} with the rest, e.g. {loose[:2]}")
    return _limit(problems)
