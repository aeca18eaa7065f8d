"""Cut the committed query-table pool (``perfbench/data``) from the sf0.1
test tables.

    python3 perfbench/make_sample.py <sf0.1 table directory>

The benchmark's ``queries`` inputs are seeded subsamples of this pool (see
``inputs.query_tables``), so their value, key, text and vector
distributions are those of the test data rather than invented ones. The
cut is fixed (RandomState(0)) and keeps the relations the queries rely on:

- customers at POOL_CUSTOMERS of the whole, with all of their orders and
  those orders' lineitems (so joins keep their fan-out);
- supplier, nation and region whole;
- events at POOL_EVENTS of the rows;
- documents in whole near-duplicate groups (documents linked by a 5-char
  shingle Jaccard of at least 0.6), POOL_DOC_GROUPS of the groups, so the
  share of documents with a near copy is the test data's;
- embeddings at POOL_VECS of the rows, plus the three vectors
  ``knn_cosine`` queries with (vec_id 0, 1 and 2).
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
POOL_CUSTOMERS = 0.10
POOL_EVENTS = 0.10
POOL_DOC_GROUPS = 0.20
POOL_VECS = 0.40
NEAR_DUP_JACCARD = 0.6
# knn_cosine's fixed query vectors: always kept (it fails without them)
KNN_PROBES = [0, 1, 2]


def _shingles(text: str, k: int = 5) -> set:
    t = " ".join(text.lower().split())
    return {t[i:i + k] for i in range(max(1, len(t) - k + 1))}


def near_dup_groups(ids, texts) -> list:
    """Connected groups of documents with 5-char shingle Jaccard >= 0.6.
    Candidates are documents sharing at least four word 4-grams; with the
    test data's small vocabulary, unrelated documents share almost none."""
    grams = defaultdict(list)
    for i, t in enumerate(texts):
        w = t.split()
        for g in {" ".join(w[j:j + 4]) for j in range(len(w) - 3)}:
            grams[g].append(i)
    shared = defaultdict(int)
    for members in grams.values():
        if len(members) < 50:
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    shared[(members[a], members[b])] += 1
    parent = list(range(len(texts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), n in shared.items():
        if n < 4:
            continue
        sa, sb = _shingles(texts[a]), _shingles(texts[b])
        if len(sa & sb) / len(sa | sb) >= NEAR_DUP_JACCARD:
            parent[find(a)] = find(b)
    groups = defaultdict(list)
    for i in range(len(texts)):
        groups[find(i)].append(ids[i])
    return sorted(groups.values())


def _keep(t: pa.Table, col: str, values) -> pa.Table:
    return t.filter(pc.is_in(t.column(col), value_set=pa.array(sorted(values), t.schema.field(col).type)))


def _rows(t: pa.Table, share: float, rng) -> pa.Table:
    idx = np.sort(rng.choice(t.num_rows, int(round(t.num_rows * share)), replace=False))
    return t.take(pa.array(idx))


def main(src: str) -> None:
    rng = np.random.RandomState(0)
    os.makedirs(OUT, exist_ok=True)

    def read(name):
        return pq.read_table(os.path.join(src, f"{name}.parquet"))

    def write(name, t):
        pq.write_table(t, os.path.join(OUT, f"{name}.parquet"))
        print(f"{name}: {t.num_rows} rows")

    for name in ("region", "nation", "supplier"):
        write(name, read(name))
    cust = read("customer")
    cust = _rows(cust, POOL_CUSTOMERS, rng)
    orders = _keep(read("orders"), "o_custkey", cust.column("c_custkey").to_pylist())
    lines = _keep(read("lineitem"), "l_orderkey", orders.column("o_orderkey").to_pylist())
    write("customer", cust)
    write("orders", orders)
    write("lineitem", lines)
    write("events", _rows(read("events"), POOL_EVENTS, rng))
    docs = read("documents")
    groups = near_dup_groups(docs.column("doc_id").to_pylist(),
                             docs.column("text").to_pylist())
    pick = rng.rand(len(groups)) < POOL_DOC_GROUPS
    kept = [d for g, p in zip(groups, pick) if p for d in g]
    docs = _keep(docs, "doc_id", kept)
    write("documents", docs)
    print(f"documents: {sum(len(g) > 1 for g, p in zip(groups, pick) if p)} near-dup groups "
          f"of {len(groups)} groups picked ({sum(len(g) > 1 for g in groups)} in the source)")
    vecs = read("embeddings")
    probes = pc.is_in(vecs.column("vec_id"), value_set=pa.array(KNN_PROBES, pa.int64()))
    rest = _rows(vecs.filter(pc.invert(probes)), POOL_VECS, rng)
    write("embeddings", pa.concat_tables([vecs.filter(probes), rest]))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1].strip())
    main(sys.argv[1])
