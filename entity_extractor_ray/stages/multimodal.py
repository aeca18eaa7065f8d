"""Multimodal column stages: opaque binary payloads + typed metadata.

The reference's heaviest per-row stages are binary decodes (PDF page render
at 200 dpi -> PNG bytes, file_analysis_service.py:566-583; DOC->PDF
subprocess conversion :309-354). A training-data pipeline generalizes this to
image/audio/video columns: `binary` payload + metadata struct, decoded and
feature-extracted by actor pools with SMALL batches (payloads are large).

The actual codecs (PIL/ffmpeg) are not in this container, so the decode
kernel is stubbed: `ImageDecodeStub` raises NotImplementedError when
`strict=True` and otherwise produces deterministic fake features derived
from the payload bytes. The Ray-side plumbing — schema, actor signature,
batch sizing, output layout — is real and tested; swapping in a real
decoder is a one-function change.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("item_id", pa.int64()),
        ("payload", pa.binary()),
        ("mime", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)

FEATURES_SCHEMA = pa.schema(
    [
        ("item_id", pa.int64()),
        ("mime", pa.string()),
        ("n_bytes", pa.int64()),
        ("sha16", pa.string()),
        # md5 of the UPPERCASE hex of the payload — chosen because DuckDB can
        # reproduce it (md5(hex(content))), giving binary ingestion a real
        # value-hash oracle (md5(BLOB) is not overloaded in DuckDB 1.0)
        ("payload_md5", pa.string()),
        ("features", pa.list_(pa.float32())),
    ]
)


def synth_media_table(n_items: int = 64, seed: int = 5) -> pa.Table:
    """Deterministic fake media corpus for plumbing tests (payload = seeded
    pseudo-random bytes; sizes vary to exercise batch-size memory limits)."""
    rng = np.random.RandomState(seed)
    ids, payloads, mimes, ws, hs = [], [], [], [], []
    for i in range(n_items):
        w = int(rng.randint(16, 256))
        h = int(rng.randint(16, 256))
        payloads.append(rng.bytes(w * h))
        ids.append(i)
        mimes.append(("image/png", "image/jpeg", "audio/wav")[i % 3])
        ws.append(w)
        hs.append(h)
    return pa.table(
        {
            "item_id": pa.array(ids, pa.int64()),
            "payload": pa.array(payloads, pa.binary()),
            "mime": pa.array(mimes, pa.string()),
            "width": pa.array(ws, pa.int32()),
            "height": pa.array(hs, pa.int32()),
        },
        schema=MEDIA_SCHEMA,
    )


_MIME_EXT = {"image/png": "png", "image/jpeg": "jpg", "audio/wav": "wav"}
_EXT_MIME = {v: k for k, v in _MIME_EXT.items()}
_FILENAME_RE = r"item_(\d+)_(\d+)x(\d+)\.(\w+)$"


def write_media_corpus(out_dir: str, n_items: int = 128, seed: int = 5) -> str:
    """Materialize synth_media_table as REAL on-disk binary files
    (item_<id>_<w>x<h>.<ext>) — the ingestion target for read_media_files
    (reference S3 blob reader, file_analysis_service.py:268-358). Idempotent
    via a parameter marker."""
    import os

    marker = os.path.join(out_dir, "_SPEC")
    stamp = f"n_items={n_items} seed={seed}"
    if os.path.exists(marker):
        with open(marker) as fh:
            if fh.read().strip() == stamp:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    table = synth_media_table(n_items, seed)
    for i in range(table.num_rows):
        item = table.slice(i, 1).to_pylist()[0]
        ext = _MIME_EXT[item["mime"]]
        name = f"item_{item['item_id']:05d}_{item['width']}x{item['height']}.{ext}"
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(item["payload"])
    with open(marker, "w") as fh:
        fh.write(stamp)
    return out_dir


def read_media_files(media_dir: str):
    """Binary-file ingestion: ray.data.read_binary_files over the corpus
    directory, metadata (item_id, mime, width, height) recovered from the
    filename -> MEDIA_SCHEMA Dataset. This is the S3/S6 blob-reader path
    with a real read_binary_files source (payloads stream as blocks; never
    driver-materialized)."""
    import re

    import ray.data as rd

    ds = rd.read_binary_files(media_dir, include_paths=True)
    pattern = re.compile(_FILENAME_RE)

    def parse(batch: pa.Table) -> pa.Table:
        paths = batch.column("path").to_pylist()
        payloads = batch.column("bytes").to_pylist()
        ids, mimes, ws, hs, keep_payloads = [], [], [], [], []
        for p, payload in zip(paths, payloads):
            m = pattern.search(p)
            if m is None:  # non-corpus file (markers etc.) — skip
                continue
            ids.append(int(m.group(1)))
            ws.append(int(m.group(2)))
            hs.append(int(m.group(3)))
            mimes.append(_EXT_MIME.get(m.group(4), "application/octet-stream"))
            keep_payloads.append(payload)
        return pa.table(
            {
                "item_id": pa.array(ids, pa.int64()),
                "payload": pa.array(keep_payloads, pa.binary()),
                "mime": pa.array(mimes, pa.string()),
                "width": pa.array(ws, pa.int32()),
                "height": pa.array(hs, pa.int32()),
            },
            schema=MEDIA_SCHEMA,
        )

    return ds.map_batches(parse, batch_format="pyarrow")


def media_file_features(media_dir: str, concurrency=(1, 2), batch_size: int = 16):
    """read_binary_files -> actor-pool decode -> (item_id, mime, n_bytes,
    payload_md5): the oracle-comparable binary-ingestion query (DuckDB side:
    media_file_features_sql)."""
    decoded = decode_media(
        read_media_files(media_dir), concurrency=concurrency, batch_size=batch_size
    )
    return decoded.select_columns(["item_id", "mime", "n_bytes", "payload_md5"])


def media_file_features_sql(media_dir: str) -> str:
    """DuckDB oracle over the SAME on-disk files via read_blob: filename
    metadata parse + octet_length + md5(hex(content)) (== the engine's
    md5-of-uppercase-hex)."""
    return f"""
    SELECT CAST(regexp_extract(filename, 'item_(\\d+)_', 1) AS BIGINT) AS item_id,
           CASE WHEN filename LIKE '%.png' THEN 'image/png'
                WHEN filename LIKE '%.jpg' THEN 'image/jpeg'
                WHEN filename LIKE '%.wav' THEN 'audio/wav'
                ELSE 'application/octet-stream' END AS mime,
           octet_length(content) AS n_bytes,
           md5(hex(content)) AS payload_md5
    FROM read_blob('{media_dir}/item_*')
    """


class ImageDecodeStub:
    """Actor-pool decode/feature stage. __init__ loads the 'codec' once per
    actor; __call__ decodes a small batch. strict=True raises
    NotImplementedError exactly where a real decoder (PIL.Image.open /
    torchvision) would plug in."""

    FEATURE_DIM = 8

    def __init__(self, strict: bool = False):
        self.strict = strict
        try:  # the real path, absent in this container
            import PIL.Image  # noqa: F401

            self.pil = True
        except ImportError:
            self.pil = False

    def _moments(self, arr: np.ndarray) -> np.ndarray:
        if arr.size == 0:
            return np.zeros(self.FEATURE_DIM, dtype=np.float32)
        return np.array(
            [
                arr.mean(), arr.std(), arr.min(), arr.max(),
                np.percentile(arr, 25), np.percentile(arr, 50),
                np.percentile(arr, 75), float(arr.size),
            ],
            dtype=np.float32,
        )

    def _decode(self, payload: bytes, mime: str) -> np.ndarray:
        if self.pil and mime.startswith("image/"):
            # the REAL path (taken whenever PIL is installed): decode the
            # payload, grayscale, and emit pixel moments — same
            # FEATURE_DIM/FEATURES_SCHEMA as the stub, so the two paths are
            # interchangeable downstream (payload_md5/sha16/n_bytes are
            # computed from raw bytes either way and stay decode-independent)
            import io

            import PIL.Image

            try:
                img = PIL.Image.open(io.BytesIO(payload)).convert("L")
                px = np.asarray(img, dtype=np.float32).ravel()
                return self._moments(px)
            except Exception:
                if self.strict:
                    raise  # a real pipeline fails loud on a corrupt image
                # undecodable payload (e.g. the synthetic byte corpus):
                # fall through to the byte-moment fake
        if self.strict and not self.pil:
            raise NotImplementedError(
                "image decode requires PIL/ffmpeg; not available in this container"
            )
        # deterministic fake: moments of the byte distribution
        arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float32)
        return self._moments(arr)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("item_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        mimes = batch.column("mime").to_pylist()
        feats, shas, md5s, sizes = [], [], [], []
        for payload, mime in zip(payloads, mimes):
            feats.append(self._decode(payload, mime))
            shas.append(hashlib.blake2b(payload, digest_size=8).hexdigest())
            md5s.append(hashlib.md5(payload.hex().upper().encode()).hexdigest())
            sizes.append(len(payload))
        return pa.table(
            {
                "item_id": pa.array(ids, pa.int64()),
                "mime": pa.array(mimes, pa.string()),
                "n_bytes": pa.array(sizes, pa.int64()),
                "sha16": pa.array(shas, pa.string()),
                "payload_md5": pa.array(md5s, pa.string()),
                "features": pa.array([list(map(float, f)) for f in feats],
                                     pa.list_(pa.float32())),
            },
            schema=FEATURES_SCHEMA,
        )


def decode_media(media_ds, concurrency=(1, 2), batch_size: int = 16,
                 strict: bool = False):
    """Binary payloads need SMALL batches (batch_size * payload * concurrency
    must fit worker heaps) — the knob is exposed and defaulted low."""
    return media_ds.map_batches(
        ImageDecodeStub,
        fn_constructor_kwargs={"strict": strict},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


RESIZED_SCHEMA = pa.schema(
    [
        ("item_id", pa.int64()),
        ("mime", pa.string()),
        ("src_bytes", pa.int64()),
        ("out_w", pa.int64()),
        ("out_h", pa.int64()),
        ("thumb", pa.binary()),
    ]
)


class ImageResizeStub:
    """Actor-pool resize/thumbnail stage (the multimodal kernel next to
    decode; reference renders fixed-dpi page pixmaps at
    file_analysis_service.py:566-583 — resize-to-target is the same
    shape). __init__ fixes the target box once per actor; __call__ emits a
    bounded-size thumbnail payload per item, so downstream batches have a
    PREDICTABLE byte budget regardless of source payload size — the
    property that lets the scheduler size batch_size * concurrency.

    Real path: PIL thumbnail((w, h)) preserving aspect, re-encoded PNG.
    Stub path (this container): deterministic byte-stride downsample of
    the payload to exactly out_w*out_h bytes with the same schema, so all
    Ray-side plumbing (actor warmup, batch sizing, schema, byte-budget
    contract) is real and tested. strict=True raises where the real codec
    would plug in."""

    def __init__(self, target_w: int = 32, target_h: int = 32, strict: bool = False):
        self.w, self.h, self.strict = int(target_w), int(target_h), strict
        try:
            import PIL.Image  # noqa: F401

            self.pil = True
        except ImportError:
            self.pil = False

    def _resize(self, payload: bytes, mime: str):
        if self.pil and mime.startswith("image/"):
            import io

            import PIL.Image

            try:
                img = PIL.Image.open(io.BytesIO(payload))
                img.thumbnail((self.w, self.h))
                buf = io.BytesIO()
                img.save(buf, format="PNG")
                return img.width, img.height, buf.getvalue()
            except Exception:
                if self.strict:
                    raise
        if self.strict and not self.pil:
            raise NotImplementedError(
                "image resize requires PIL; not available in this container"
            )
        # deterministic stub: stride-sample the byte stream into a w*h
        # pseudo-thumbnail (empty payloads produce an empty thumb)
        n = self.w * self.h
        arr = np.frombuffer(payload, dtype=np.uint8)
        if arr.size == 0:
            return self.w, self.h, b""
        idx = (np.arange(n, dtype=np.int64) * arr.size) // n
        return self.w, self.h, arr[idx].tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("item_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        mimes = batch.column("mime").to_pylist()
        ws, hs, thumbs, sizes = [], [], [], []
        for payload, mime in zip(payloads, mimes):
            w, h, tb = self._resize(payload, mime)
            ws.append(w)
            hs.append(h)
            thumbs.append(tb)
            sizes.append(len(payload))
        return pa.table(
            {
                "item_id": pa.array(ids, pa.int64()),
                "mime": pa.array(mimes, pa.string()),
                "src_bytes": pa.array(sizes, pa.int64()),
                "out_w": pa.array(ws, pa.int64()),
                "out_h": pa.array(hs, pa.int64()),
                "thumb": pa.array(thumbs, pa.binary()),
            },
            schema=RESIZED_SCHEMA,
        )


def resize_media(media_ds, target_w: int = 32, target_h: int = 32,
                 concurrency=(1, 2), batch_size: int = 16,
                 strict: bool = False):
    """Same small-batch discipline as decode_media: batch_size * payload *
    concurrency must fit worker heaps; output rows are bounded at
    target_w*target_h bytes each by construction."""
    return media_ds.map_batches(
        ImageResizeStub,
        fn_constructor_kwargs={
            "target_w": target_w, "target_h": target_h, "strict": strict
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
