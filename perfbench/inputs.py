"""Seeded benchmark inputs.

Every input is a pure function of ``(seed, size)``: the transcript corpora
come from the engine's own corpus generator (``sources.transcripts``, the
input layer of the KG pipeline), the query tables are a seeded draw from a
pool of rows cut from the sf0.1 test tables (``data/``, ``make_sample.py``).
Each function writes under a directory it is given and leaves a ``_DONE``
stamp, so a second run with the same seed reuses the files instead of
writing them again.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def _stamped(path: str, stamp: dict) -> bool:
    try:
        with open(os.path.join(path, "_DONE")) as fh:
            return json.load(fh) == stamp
    except (OSError, ValueError):
        return False


def _stamp(path: str, stamp: dict) -> None:
    with open(os.path.join(path, "_DONE"), "w") as fh:
        json.dump(stamp, fh)


def _fresh(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


# ------------------------------------------------------------------ turns

def _write_parts(table: pa.Table, out: str, n_files: int, seed: int) -> None:
    """Shuffle rows across ``n_files`` parquet files (the engine must restore
    turn order itself, as with a real multi-file landing zone)."""
    perm = np.random.RandomState(seed).permutation(table.num_rows)
    table = table.take(pa.array(perm))
    per = (table.num_rows + n_files - 1) // n_files
    for i in range(n_files):
        chunk = table.slice(i * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(out, f"turns_{i:04d}.parquet"))


def turn_corpus(root: str, seed: int, n_convs: int, n_files: int = 4) -> str:
    """``root/corpus``: one seeded corpus of ``n_convs`` conversations."""
    from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, generate_turns

    out = os.path.join(root, "corpus")
    stamp = {"seed": seed, "n_convs": n_convs, "files": n_files}
    if not _stamped(out, stamp):
        _fresh(out)
        table = generate_turns(TurnCorpusSpec(n_convs=n_convs, seed=seed))
        _write_parts(table, out, n_files, seed + 9)
        _stamp(out, stamp)
    return out


def delta_corpora(root: str, seed: int, n_prior: int, n_delta: int,
                  n_files: int = 4) -> dict:
    """Prior, delta and their union (``root/{prior,delta,union}``), cut from
    ONE seeded corpus of ``n_prior + n_delta`` conversations: the delta is
    the conversations that arrive after the prior's, in conv_id order. The
    union directory holds copies of both sides' files, because
    ``build_kg([prior, delta])`` cannot read a list of directories."""
    from entity_extractor_ray.sources.transcripts import TurnCorpusSpec, generate_turns

    paths = {k: os.path.join(root, k) for k in ("prior", "delta", "union")}
    stamp = {"seed": seed, "n_prior": n_prior, "n_delta": n_delta, "files": n_files}
    if not all(_stamped(p, stamp) for p in paths.values()):
        spec = TurnCorpusSpec(n_convs=n_prior + n_delta, seed=seed)
        for p in paths.values():
            _fresh(p)
        for name, rng in (("prior", (0, n_prior)),
                          ("delta", (n_prior, n_prior + n_delta))):
            _write_parts(generate_turns(spec, rng), paths[name], n_files,
                         seed + (9 if name == "prior" else 10))
            for f in sorted(os.listdir(paths[name])):
                shutil.copyfile(os.path.join(paths[name], f),
                                os.path.join(paths["union"], f"{name}_{f}"))
        for p in paths.values():
            _stamp(p, stamp)
    return paths


# ------------------------------------------------------------------ query tables

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
DRAW = 0.5  # share of the pool's customers, events, document groups and vectors


def _near_dup_groups(docs: pa.Table) -> list:
    from make_sample import near_dup_groups

    return near_dup_groups(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist())


def query_tables(root: str, seed: int, scale: float = 1.0) -> str:
    """``root/tables``: a seeded draw from the committed pool (``data/``,
    cut from the sf0.1 test tables by ``make_sample.py``). The draw keeps a
    fixed share ``DRAW * scale`` of the pool's customers (each with its
    orders and their lineitems), events rows, embeddings rows (plus the
    knn_cosine probe vectors, always), near-duplicate document groups and
    single documents; the seed picks which, not how many, so every seed
    gives the queries the same amount of work. Supplier, nation and region
    are kept whole.
    ``scale=1`` is 750 customers, about 7.4k orders and 30k lineitems, 5k
    events, 20 near-duplicate groups in about 495 documents and 403
    vectors."""
    from make_sample import KNN_PROBES

    out = os.path.join(root, "tables")
    stamp = {"seed": seed, "scale": scale, "v": 3}
    if _stamped(out, stamp):
        return out
    _fresh(out)
    rng = np.random.RandomState(seed)
    share = DRAW * scale

    def read(name):
        return pq.read_table(os.path.join(POOL, f"{name}.parquet"))

    def write(name, t):
        pq.write_table(t, os.path.join(out, f"{name}.parquet"))

    def draw(n: int, among=None) -> np.ndarray:
        """A mask over ``n`` items keeping ``share`` of them (at least one)
        among those ``among`` marks (default all)."""
        idx = np.flatnonzero(np.ones(n, bool) if among is None else among)
        mask = np.zeros(n, bool)
        mask[rng.choice(idx, max(1, int(round(share * len(idx)))), replace=False)] = True
        return mask

    def keep(t, col, values):
        return t.filter(pc.is_in(t.column(col), value_set=pa.array(
            sorted(values), t.schema.field(col).type)))

    for name in ("region", "nation", "supplier"):
        write(name, read(name))
    cust = read("customer")
    cust = cust.filter(pa.array(draw(cust.num_rows)))
    orders = keep(read("orders"), "o_custkey", cust.column("c_custkey").to_pylist())
    write("customer", cust)
    write("orders", orders)
    write("lineitem", keep(read("lineitem"), "l_orderkey",
                           orders.column("o_orderkey").to_pylist()))
    events = read("events")
    write("events", events.filter(pa.array(draw(events.num_rows))))
    docs = read("documents")
    groups = _near_dup_groups(docs)
    # like the test data, every draw holds a near duplicate (without one,
    # minhash_dedup fails, see README "Faults")
    multi = np.array([len(g) > 1 for g in groups])
    take = draw(len(groups), multi) | draw(len(groups), ~multi)
    picked = [d for g, p in zip(groups, take) if p for d in g]
    write("documents", keep(docs, "doc_id", picked))
    vecs = read("embeddings")
    probe = np.isin(vecs.column("vec_id").to_numpy(), KNN_PROBES)
    write("embeddings", vecs.filter(pa.array(draw(vecs.num_rows, ~probe) | probe)))
    _stamp(out, stamp)
    return out
