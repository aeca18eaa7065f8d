"""Deterministic text utilities: stable hashing, shingles, MinHash, SimHash,
rolling-hash fingerprints, tokenization.

All hashing is PYTHONHASHSEED-independent (blake2b / numpy arithmetic) so that
entity ids and blocking keys are stable across workers, processes and runs —
a requirement for resumable, exactly-once output partitions (SURVEY.md §7.5).
"""

from __future__ import annotations

import hashlib
import re
from typing import List, Optional

import numpy as np

_WORD_RE = re.compile(r"\w+", re.UNICODE)

MERSENNE61 = (1 << 61) - 1


def stable_hash64(text: str) -> int:
    """64-bit stable hash of a string (blake2b, seed-free)."""
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def stable_id_bytes(*parts: Optional[str]) -> bytes:
    """Raw 16-byte form of stable_id — used where an id column only exists
    to cross an exchange (edges / rollup shuffles): the binary form halves
    the dominant column's payload vs the 32-char hex string. hex() of this
    value IS stable_id(...) by construction."""
    joined = "\x1f".join("" if p is None else p for p in parts)
    return hashlib.blake2b(joined.encode("utf-8"), digest_size=16).digest()


def stable_id(*parts: Optional[str]) -> str:
    """Deterministic entity id from key parts — replaces the reference's
    uuid.uuid4() node ids (artifact_ingestor_service.py:1012, 1068) so that
    re-runs and parallel workers mint identical ids without coordination."""
    return stable_id_bytes(*parts).hex()


def words(text: str) -> List[str]:
    return _WORD_RE.findall(text.lower())


def char_shingles(text: str, k: int = 5) -> set:
    t = " ".join(text.lower().split())
    if len(t) < k:
        return {t} if t else set()
    return {t[i : i + k] for i in range(len(t) - k + 1)}


def word_ngrams(text: str, n: int = 3) -> set:
    ws = words(text)
    if len(ws) < n:
        return {" ".join(ws)} if ws else set()
    return {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """Vectorized k-char shingle hashes: polynomial rolling hash over the
    utf-8 bytes of the whitespace-normalized text (uint64 wraparound), one
    sliding-window matmul — no per-shingle Python calls. Deterministic."""
    t = " ".join(text.lower().split())
    data = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
    if data.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if data.size < k:
        return np.array([stable_hash64(t)], dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(data, k).astype(np.uint64)
    base = 1099511628211  # FNV-ish odd multiplier; powers mod 2^64
    powers = np.array([pow(base, i, 1 << 64) for i in range(k)], dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashes = (windows * powers[None, :]).sum(axis=1, dtype=np.uint64)
    # scramble (splitmix-style) so low-entropy byte windows spread
    hashes = hashes ^ (hashes >> np.uint64(33))
    hashes = hashes * np.uint64(0xFF51AFD7ED558CCD)
    hashes = hashes ^ (hashes >> np.uint64(33))
    return np.unique(hashes)


def make_minhash_params(num_perm: int, seed: int = 7) -> tuple:
    """(a, b) coefficient arrays for num_perm universal-hash permutations
    h_i(x) = (a_i * x + b_i) mod p, p = 2^61-1. Deterministic in seed."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, MERSENNE61, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, MERSENNE61, size=num_perm, dtype=np.uint64)
    return a, b


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray, k: int = 5) -> np.ndarray:
    """MinHash signature (uint64[num_perm]) over k-char shingles."""
    hashes = _shingle_hashes(text, k)
    if hashes.size == 0:
        return np.full(a.shape[0], MERSENNE61, dtype=np.uint64)
    # (num_perm, n_shingles) — arithmetic mod 2^61-1 via python-int-free numpy:
    # keep values < 2^61 so a*x fits... it does not fit in uint64; do it in
    # object-free float-safe chunks using Python ints only for the reduction
    # would be slow. Instead use the standard trick: compute in uint64 with
    # wraparound then mix — we need consistency, not number theory, so use
    # wrapping multiply-add (a deterministic affine scramble) + min-reduce.
    vals = (hashes[None, :] * a[:, None] + b[:, None])  # uint64 wraparound, deterministic
    return vals.min(axis=1)


def minhash_signatures_batch(
    texts, a: np.ndarray, b: np.ndarray, k: int = 5
) -> np.ndarray:
    """MinHash signatures for a WHOLE batch in one numpy pass: concatenate
    every doc's shingle hashes, compute the (num_perm x total_shingles)
    affine scramble once, then segment-minimize with np.minimum.reduceat —
    no per-doc matmul setup cost (the round-1 profile showed the per-doc
    loop dominating minhash_dedup at ~580 docs/s).

    Returns uint64[n_docs, num_perm]; docs with no shingles get the
    MERSENNE61 sentinel row (same as minhash_signature)."""
    per_doc = [_shingle_hashes(t or "", k) for t in texts]
    n_docs = len(per_doc)
    num_perm = a.shape[0]
    sizes = np.array([h.size for h in per_doc], dtype=np.int64)
    out = np.full((n_docs, num_perm), MERSENNE61, dtype=np.uint64)
    nonempty = np.flatnonzero(sizes > 0)
    if nonempty.size == 0:
        return out
    concat = np.concatenate([per_doc[i] for i in nonempty])
    # (num_perm, total) affine scramble with uint64 wraparound — identical
    # arithmetic to minhash_signature
    with np.errstate(over="ignore"):
        vals = concat[None, :] * a[:, None] + b[:, None]
    offsets = np.concatenate(([0], np.cumsum(sizes[nonempty])[:-1]))
    mins = np.minimum.reduceat(vals, offsets, axis=1)  # (num_perm, n_nonempty)
    out[nonempty] = mins.T
    return out


def minhash_band_hashes_batch(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """Band hashes for a batch of signatures -> uint64[n_docs, num_bands].
    Row-hash of each band chunk via a vectorized polynomial mix (replaces
    the per-band blake2b calls; deterministic, seed-free)."""
    n_docs, num_perm = sigs.shape
    rows = num_perm // num_bands
    chunks = sigs[:, : rows * num_bands].reshape(n_docs, num_bands, rows)
    mix = np.uint64(0x9E3779B97F4A7C15)
    acc = np.full((n_docs, num_bands), 0xCBF29CE484222325, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows):
            acc = (acc ^ chunks[:, :, r]) * mix
            acc = acc ^ (acc >> np.uint64(29))
        # fold the band index in so identical chunks in different bands differ
        acc = (acc + np.arange(num_bands, dtype=np.uint64)[None, :]) * mix
        acc = acc ^ (acc >> np.uint64(32))
    return acc >> np.uint64(1)  # 63-bit, fits signed int64


_WORD_HASH_CACHE: dict = {}


def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (weight = term frequency). Word hashes
    are memoized (vocabularies are small relative to corpora) and the bit
    accumulation is one vectorized matmul."""
    ws = words(text)
    if not ws:
        return 0
    counts: dict = {}
    for w in ws:
        counts[w] = counts.get(w, 0) + 1
    hs = np.empty(len(counts), dtype=np.uint64)
    cs = np.empty(len(counts), dtype=np.int64)
    for i, (w, c) in enumerate(counts.items()):
        h = _WORD_HASH_CACHE.get(w)
        if h is None:
            h = stable_hash64(w)
            if len(_WORD_HASH_CACHE) < 1_000_000:
                _WORD_HASH_CACHE[w] = h
        hs[i] = h
        cs[i] = c
    bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & 1).astype(np.int64)
    acc = ((2 * bits - 1) * cs[:, None]).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(x: int, y: int) -> int:
    return bin(x ^ y).count("1")


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def rolling_fingerprint(text: str, window: int = 8, keep_mod: int = 16) -> List[int]:
    """Winnowing-style document fingerprint: polynomial hash of every
    window-char sliding window (vectorized, uint64 wraparound), keeping
    hashes ≡ 0 (mod keep_mod). Deterministic, mergeable, order-free."""
    t = " ".join(text.lower().split())
    if not t:
        return []
    data = np.frombuffer(t.encode("utf-8"), dtype=np.uint8)
    if data.size < window:
        return [stable_hash64(t) & 0x7FFFFFFFFFFFFFFF]
    base = 1000003
    powers = np.array(
        [pow(base, window - 1 - i, 1 << 64) for i in range(window)], dtype=np.uint64
    )
    windows = np.lib.stride_tricks.sliding_window_view(data, window).astype(np.uint64)
    with np.errstate(over="ignore"):
        hashes = (windows * powers[None, :]).sum(axis=1, dtype=np.uint64)
        hashes = hashes ^ (hashes >> np.uint64(31))
        hashes = hashes * np.uint64(0x9E3779B97F4A7C15)
    kept = hashes[hashes % np.uint64(keep_mod) == 0]
    out = np.unique(kept & np.uint64(0x7FFFFFFFFFFFFFFF))
    return [int(v) for v in out]
