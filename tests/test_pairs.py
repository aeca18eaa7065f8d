"""The blocking-stage pair kernel (functions/pairs.py): ``group_pairs``
against itertools.combinations per group, ``capped_members``' cap policy,
the two MinHash bucket functions on a hot band group, and an AST guard that
keeps the kernel the engine's only hot-group cap and pair generator."""

import ast
import itertools
import logging
import pathlib

import numpy as np
import pyarrow as pa
import pytest

from entity_extractor_ray.functions.pairs import capped_members, group_pairs


def _combinations(keys, ids):
    """Reference: per distinct group, every pair of its distinct ids."""
    groups = {}
    for row in zip(*keys, ids):
        groups.setdefault(row[:-1], set()).add(row[-1])
    return sorted(
        (g, a, b) for g, members in groups.items()
        for a, b in itertools.combinations(sorted(members), 2)
    )


def _kernel(keys, ids, cap=None):
    ia, ib = group_pairs(keys, ids, cap, "unit", 0)
    assert (ids[ia] < ids[ib]).all()
    return sorted((tuple(k[ia[i]] for k in keys), ids[ia[i]], ids[ib[i]])
                  for i in range(len(ia)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_pairs_equals_combinations_with_repeated_rows(seed):
    rng = np.random.default_rng(seed)
    # few distinct values, many rows: (group, id) rows repeat
    keys = [rng.integers(0, 30, 2000)]
    ids = rng.integers(0, 40, 2000)
    got = _kernel(keys, ids)
    assert got == _combinations(keys, ids)
    assert len(got) == len(set(got))  # a repeated row makes no second pair


@pytest.mark.parametrize("seed", [3, 4])
def test_group_pairs_two_key_columns(seed):
    rng = np.random.default_rng(seed)
    keys = [rng.integers(0, 4, 1500), rng.integers(-5, 5, 1500) * 10**12]
    ids = rng.integers(0, 100, 1500)
    assert _kernel(keys, ids) == _combinations(keys, ids)


def test_group_pairs_string_keys_and_ids():
    rng = np.random.default_rng(5)
    keys = [np.array([f"chem{i}" for i in rng.integers(0, 12, 600)], dtype=object)]
    ids = np.array([f"m{i:03d}" for i in rng.integers(0, 80, 600)], dtype=object)
    assert _kernel(keys, ids) == _combinations(keys, ids)


def test_group_pairs_empty_and_single_member_groups():
    e = np.zeros(0, np.int64)
    ia, ib = group_pairs([e], e, None, "unit", 0)
    assert len(ia) == len(ib) == 0
    # every group has one distinct member (one of them on repeated rows)
    keys = [np.array([1, 2, 3, 3, 3])]
    ids = np.array([10, 20, 30, 30, 30])
    ia, ib = group_pairs(keys, ids, None, "unit", 0)
    assert len(ia) == len(ib) == 0
    # singletons next to a pair-bearing group contribute nothing
    keys = [np.array([1, 2, 2, 3])]
    ids = np.array([5, 9, 7, 5])
    assert _kernel(keys, ids) == [((2,), 7, 9)]


def test_group_pairs_cap_bounds_each_group():
    keys = [np.r_[np.zeros(300, np.int64), np.ones(4, np.int64)]]
    ids = np.r_[np.arange(300), np.arange(4)]
    got = _kernel(keys, ids, cap=20)
    assert sum(1 for g, _, _ in got if g == (0,)) == 20 * 19 // 2
    assert [p for p in got if p[0] == (1,)] == [((1,), a, b) for a, b in
                                                itertools.combinations(range(4), 2)]


def test_capped_members_policy(caplog):
    rng = np.random.default_rng(6)
    keys = [np.r_[np.full(500, 7), np.full(40, 8), np.full(3, 9)]]
    ids = np.r_[rng.permutation(5000)[:500], np.arange(40), np.arange(3)]
    with caplog.at_level(logging.WARNING, logger="entity_extractor_ray.pairs"):
        kept = capped_members(keys, ids, 25, "unit", 3)
    # ONE logged drop count per call, summed over the capped groups
    msgs = [r.getMessage() for r in caplog.records]
    assert len(msgs) == 1 and "dropped 490" in msgs[0] and "bucket 3" in msgs[0]
    k, v = keys[0][kept], ids[kept]
    # bounded; a subset; groups under the cap kept exactly
    assert (k == 7).sum() == 25 and (k == 8).sum() == 25 and (k == 9).sum() == 3
    assert set(v[k == 7]) <= set(ids[:500])
    assert list(v[k == 9]) == [0, 1, 2]
    # sorted by (group, id); deterministic
    assert np.array_equal(np.lexsort((v, k)), np.arange(len(kept)))
    assert np.array_equal(kept, capped_members(keys, ids, 25, "unit", 3))
    # identity below the cap (distinct, sorted rows)
    assert np.array_equal(capped_members(keys, ids, 10**6, "unit", 3),
                          capped_members(keys, ids, None, "unit", 3))
    assert np.array_equal(capped_members([np.zeros(5, np.int64)], np.arange(5), 5,
                                         "unit", 0), np.arange(5))


# --------------------------------------- MinHash buckets on a hot band group


def _hot_band_table(n_docs, is_new=None):
    rng = np.random.default_rng(7)
    ids = rng.permutation(10 * n_docs)[:n_docs].astype(np.int64)
    cols = {
        "doc_id": pa.array(ids, pa.int64()),
        "band_id": pa.array(np.full(n_docs, 3), pa.int64()),
        "band_hash": pa.array(np.full(n_docs, 12345), pa.int64()),
    }
    if is_new is not None:
        cols["is_new"] = pa.array(is_new(ids), pa.int8())
    return pa.table(cols)


def _assert_ordered_and_unreversed(out: pa.Table):
    a = out.column("id_a").to_numpy()
    b = out.column("id_b").to_numpy()
    assert len(a) > 0
    assert (a < b).all()
    pairs = set(zip(a.tolist(), b.tolist()))
    assert not any((y, x) in pairs for x, y in pairs)


def test_minhash_pairs_bucket_orders_capped_pairs():
    from entity_extractor_ray.stages.dedup import BUCKET_PAIR_CAP, _pairs_bucket

    out = _pairs_bucket(_hot_band_table(1500), 0)
    assert out.num_rows == BUCKET_PAIR_CAP * (BUCKET_PAIR_CAP - 1) // 2
    _assert_ordered_and_unreversed(out)


def test_minhash_delta_pairs_bucket_orders_capped_pairs():
    from entity_extractor_ray.stages.dedup import _delta_pairs_bucket

    # 1,300 new docs and 200 old ones in one band group: the new side is capped
    t = _hot_band_table(1500, is_new=lambda ids: (np.argsort(np.argsort(ids)) >= 200))
    _assert_ordered_and_unreversed(_delta_pairs_bucket(t, 0))


# ------------------------------------------------------------------ guard

_ENGINE = pathlib.Path(__file__).resolve().parent.parent / "entity_extractor_ray"
_GONE = {"_cap_ids_unbiased", "cap_bucket_members", "_cap_posting_lists"}
# (module, enclosing top-level function) -> allowed np.triu_indices calls:
# a dense per-group similarity matrix, and the one-block all-pairs branch
_TRIU_ALLOWED = {
    ("stages/dedup.py", "embedding_lsh_pairs"): 1,
    ("pipelines/analytics.py", "customers_fuzzy_pairs"): 1,
}


def _pair_rule_violations(sources):
    """``sources``: {module path relative to the package: source text}."""
    bad = []
    for rel, src in sources.items():
        tree = ast.parse(src)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in _GONE:
                bad.append(f"{rel}: defines {node.name}")
        if rel == "functions/pairs.py":
            continue
        counts = {}
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "triu_indices"):
                    where = (rel, getattr(top, "name", "<module>"))
                    counts[where] = counts.get(where, 0) + 1
        for where, n in counts.items():
            if n > _TRIU_ALLOWED.get(where, 0):
                bad.append(f"{where[0]}: {n} np.triu_indices call(s) in {where[1]}")
    return bad


def test_pair_kernel_is_the_only_cap_and_pair_generator():
    sources = {p.relative_to(_ENGINE).as_posix(): p.read_text()
               for p in _ENGINE.rglob("*.py")}
    assert _pair_rule_violations(sources) == []


def test_pair_guard_sees_planted_ones():
    planted = {
        "stages/x.py": "def cap_bucket_members(g, cap):\n    return g\n",
        "stages/y.py": "import numpy as np\n"
                       "def f(n):\n    return np.triu_indices(n, k=1)\n",
        "stages/dedup.py": "import numpy as np\n"
                           "def embedding_lsh_pairs(n):\n"
                           "    a = np.triu_indices(n, k=1)\n"
                           "    return np.triu_indices(n, k=1), a\n",
        "functions/pairs.py": "import numpy as np\n"
                              "def ok(n):\n    return np.triu_indices(n)\n",
    }
    bad = _pair_rule_violations(planted)
    assert len(bad) == 3
    assert any("defines cap_bucket_members" in b for b in bad)
    assert any("stages/y.py" in b for b in bad)
    assert any("2 np.triu_indices" in b and "embedding_lsh_pairs" in b for b in bad)
