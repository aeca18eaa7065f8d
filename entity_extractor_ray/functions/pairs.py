"""Blocking-stage pair kernel: the engine's one hot-group cap and its one
within-group pair generator.

Every blocked comparison in the engine (MinHash band groups, n-gram and
term posting lists, co-mention chemicals, triangle wedges, market baskets,
supplier posting lists, FastSS variant buckets, hyperplane-LSH buckets,
k-means clusters) is "the members of each group, after a cap on oversized
groups" — the block purging step of SparkER-style entity resolution. The
rows come in as parallel numpy arrays and leave as row indices, so callers
gather sizes, weights or embeddings by those indices.

``keys`` is a list of arrays (one per group-key column: ``[band_id,
band_hash]`` needs no factorize); keys and ids may be int64 or strings.
"""

from __future__ import annotations

import logging
from typing import Optional, Sequence, Tuple

import numpy as np
import pandas as pd

logger = logging.getLogger("entity_extractor_ray.pairs")


def _codes(a: np.ndarray) -> np.ndarray:
    """Sortable integer codes with the order of ``a`` (strings via a sorted
    factorize, so every comparison below is int-only)."""
    a = np.asarray(a)
    if a.dtype.kind in "OUS":
        return pd.factorize(a, sort=True)[0]
    return a


def group_starts(keys: Sequence[np.ndarray]) -> np.ndarray:
    """Start positions of the runs of equal rows in key columns that are
    already sorted (grouped) together."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def capped_members(keys: Sequence[np.ndarray], ids: np.ndarray,
                   cap: Optional[int], what: str, bucket_id: int) -> np.ndarray:
    """Row indices of the distinct ``(group, id)`` rows, sorted by
    ``(group, id)``. A group wider than ``cap`` (None: no cap) keeps the
    ``cap`` members with the smallest process-stable siphash of the id
    (``pd.util.hash_pandas_object``: uniform over ids, seed-free), so a
    truncated group is an unbiased sample rather than its lowest ids. The
    drop is counted and logged once per call; group statistics a caller
    needs exactly must come from the uncapped rows."""
    kc = [_codes(k) for k in keys]
    ic = _codes(ids)
    order = np.lexsort([ic] + kc[::-1])
    rows = order[group_starts([k[order] for k in kc] + [ic[order]])]
    if cap is None or len(rows) <= cap:
        return rows
    starts = group_starts([k[rows] for k in kc])
    widths = np.diff(np.r_[starts, len(rows)])
    hot = widths > cap
    if not hot.any():
        return rows
    seg = np.repeat(np.arange(len(widths)), widths)
    h = pd.util.hash_pandas_object(pd.Series(np.asarray(ids)[rows]), index=False).to_numpy()
    by_hash = np.lexsort((ic[rows], h, seg))  # segments stay in place
    rank = np.arange(len(rows)) - np.repeat(starts, widths)
    keep = np.zeros(len(rows), dtype=bool)
    keep[by_hash[rank < cap]] = True
    logger.warning(
        "%s bucket %d: capped %d hot groups at %d members, dropped %d",
        what, bucket_id, int(hot.sum()), cap, int((widths[hot] - cap).sum()),
    )
    return rows[keep]


def group_pairs(keys: Sequence[np.ndarray], ids: np.ndarray, cap: Optional[int],
                what: str, bucket_id: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row indices ``(ia, ib)`` of every within-group pair of the
    ``capped_members`` rows, ``ids[ia] < ids[ib]`` — per group, the
    row-major upper triangle of its id-sorted members, built by offset
    arithmetic with no loop over groups."""
    kc = [_codes(k) for k in keys]
    rows = capped_members(kc, ids, cap, what, bucket_id)
    starts = group_starts([k[rows] for k in kc])
    widths = np.diff(np.r_[starts, len(rows)])
    # the member at rank r of a width-w group pairs with its w-1-r successors
    later = np.repeat(starts + widths, widths) - np.arange(len(rows)) - 1
    first = np.repeat(np.arange(len(rows)), later)
    run_start = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(len(first)) - run_start
    return rows[first], rows[second]
