"""Multimodal column stages: image/audio/video as opaque ``binary`` columns.

Every stage decodes real bytes: images are PNG/BMP pixels via the
pure-numpy codec in :mod:`.imagecodec` (stdlib zlib, no external codec
library), audio is PCM16 WAV and video is uncompressed RIFF/AVI.  A payload
in any other format (JPEG, compressed video, junk) raises ``ValueError``;
curation should quarantine such rows upstream, not rely on the stage to
skip them.  The stages are actor-pool ``map_batches`` (decoder state
loaded once per actor in ``__init__``) with small batch sizes for wide
binary rows and typed metadata columns.

Scale notes: binary payloads dominate block size — batches stay small
(32 rows, 16 for video) and ``batch_format="pyarrow"`` keeps bytes
zero-copy in the object store; blocks spill instead of heaping.  Each
stage runs a pool of 2 actors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .imagecodec import decode_image


class ImageDecoder:
    """binary PNG/BMP -> (width, height, channels, feature vector).

    Payloads are decoded to pixels via :mod:`.imagecodec`; features are 8
    integer-valued float64 image statistics ``[n_pixels, sum_all, sum_ch0,
    sum_ch1, sum_ch2, min, max, 0]`` (absent channels sum 0) — exact
    integers, so they survive a value-hash compare and a SQL oracle can
    reproduce them from a planted pixel formula without decoding.
    Undecodable payloads raise ``ValueError``.
    """

    OUT_FEATURES = 8

    def _decode_one(self, payload: bytes) -> tuple[int, int, int, np.ndarray]:
        img = decode_image(payload or b"")
        hgt, width, nch = img.shape
        px = img.astype(np.int64)
        ch_sums = [int(px[:, :, c].sum()) if c < nch else 0 for c in range(3)]
        feats = np.array(
            [
                hgt * width,
                int(px.sum()),
                ch_sums[0],
                ch_sums[1],
                ch_sums[2],
                int(px.min()),
                int(px.max()),
                0,
            ],
            dtype=np.float64,
        )
        return width, hgt, nch, feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, chans, feats = [], [], [], []
        for payload in batch.column("payload").to_pylist():
            w, hgt, c, f = self._decode_one(payload)
            widths.append(w)
            heights.append(hgt)
            chans.append(c)
            feats.append(f.tolist())
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "channels": pa.array(chans, pa.int32()),
                "features": pa.array(feats, pa.list_(pa.float64())),
            }
        )


def decode_wav(data: bytes) -> tuple[int, int, np.ndarray]:
    """RIFF/WAVE PCM16 bytes -> (sample_rate, n_channels, int16 samples)
    — a REAL audio decode (the WAV container is stdlib-parseable; no codec
    library needed).  Mono or interleaved stereo; rejects compressed
    formats loudly."""
    import struct

    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos = 12
    fmt = None
    samples = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif cid == b"data":
            samples = body
        pos += 8 + size + (size & 1)  # chunks pad to even
    if fmt is None or samples is None:
        raise ValueError("WAV: missing fmt or data chunk")
    audio_fmt, n_ch, rate, _, _, bits = fmt
    if audio_fmt != 1 or bits != 16:
        raise ValueError(
            f"WAV: only uncompressed PCM16 supported (fmt={audio_fmt}, "
            f"bits={bits})"
        )
    arr = np.frombuffer(samples, dtype="<i2")
    return rate, n_ch, arr


def encode_wav(samples: np.ndarray, rate: int = 16000,
               n_ch: int = 1) -> bytes:
    """int16 samples -> RIFF/WAVE PCM16 bytes (tests + planted oracles)."""
    import struct

    body = np.ascontiguousarray(samples, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, n_ch, rate, rate * n_ch * 2, n_ch * 2, 16)
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(body)) + body
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class AudioFeaturizer:
    """binary WAV -> integer audio statistics (the audio leg of the
    multimodal surface): ``(sample_rate, n_channels, n_samples, sum_abs,
    peak, energy_frames)`` where ``energy_frames`` counts 1024-sample
    frames whose int64 abs-sum exceeds ``frame_abs_threshold`` — a
    VAD-style activity proxy.  All outputs are exact integers, so a SQL
    oracle recomputes them from a planted PCM formula without decoding.
    Actor-pool stage (WAV parses with stdlib struct)."""

    FRAME = 1024

    def __init__(self, frame_abs_threshold: int = 1 << 22):
        self.thr = int(frame_abs_threshold)

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, chans, ns, sums, peaks, frames = [], [], [], [], [], []
        for payload in batch.column("payload").to_pylist():
            rate, n_ch, arr = decode_wav(payload or b"")
            a = np.abs(arr.astype(np.int64))
            n = len(arr)
            nf = n // self.FRAME
            if nf:
                fa = a[: nf * self.FRAME].reshape(nf, self.FRAME).sum(axis=1)
                active = int((fa > self.thr).sum())
            else:
                active = 0
            rates.append(rate)
            chans.append(n_ch)
            ns.append(n)
            sums.append(int(a.sum()))
            peaks.append(int(a.max()) if n else 0)
            frames.append(active)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sample_rate": pa.array(rates, pa.int32()),
                "n_channels": pa.array(chans, pa.int32()),
                "n_samples": pa.array(ns, pa.int64()),
                "sum_abs": pa.array(sums, pa.int64()),
                "peak": pa.array(peaks, pa.int64()),
                "energy_frames": pa.array(frames, pa.int64()),
            }
        )


def featurize_audio(ds, batch_size: int = 32,
                    frame_abs_threshold: int = 1 << 22):
    """Actor-pool audio featurize stage (small batches — WAV payloads
    dominate block size)."""
    return ds.map_batches(
        AudioFeaturizer,
        fn_constructor_kwargs={"frame_abs_threshold": frame_abs_threshold},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=2,
    )


def decode_avi(data: bytes) -> tuple[int, int, list[np.ndarray]]:
    """Uncompressed RIFF/AVI bytes -> (width, height, RGB frames) — a REAL
    video decode (the AVI container is stdlib-parseable like its RIFF
    sibling WAV; frames are raw 24-bit DIBs: bottom-up BGR rows padded to
    4 bytes).  Rejects compressed codecs loudly.

    Reference has no video surface; this covers the builder brief's
    multimodal video column with a true pixel path (parity family:
    :func:`decode_wav` above)."""
    import struct

    if data[:4] != b"RIFF" or data[8:12] != b"AVI ":
        raise ValueError("not a RIFF/AVI file")

    width = height = None
    bottom_up = True
    frames_raw: list[bytes] = []

    def walk(buf: bytes, pos: int, end: int):
        nonlocal width, height, bottom_up
        while pos + 8 <= end:
            cid = buf[pos : pos + 4]
            (size,) = struct.unpack("<I", buf[pos + 4 : pos + 8])
            body_start = pos + 8
            if cid == b"LIST":
                # list body = 4-byte list type + subchunks
                walk(buf, body_start + 4, body_start + size)
            elif cid == b"strf" and width is None:
                # BITMAPINFOHEADER of the first (video) stream
                (_, bi_w, bi_h, _, bits, comp) = struct.unpack(
                    "<IiiHHI", buf[body_start : body_start + 20]
                )
                if comp != 0 or bits != 24:
                    raise ValueError(
                        "AVI: only uncompressed 24-bit DIB frames supported "
                        f"(compression={comp}, bits={bits})"
                    )
                # negative biHeight = top-down DIB (rows already in
                # display order — no flip)
                width, height, bottom_up = bi_w, abs(bi_h), bi_h > 0
            elif cid[2:4] in (b"db", b"dc") and cid[:2].isdigit():
                frames_raw.append(buf[body_start : body_start + size])
            pos = body_start + size + (size & 1)  # chunks pad to even

    walk(data, 12, len(data))
    if width is None:
        raise ValueError("AVI: missing video stream format (strf)")
    stride = (width * 3 + 3) & ~3
    frames = []
    for raw in frames_raw:
        if len(raw) < stride * height:
            raise ValueError("AVI: truncated frame")
        rows = np.frombuffer(raw[: stride * height], dtype=np.uint8)
        img = rows.reshape(height, stride)[:, : width * 3]
        img = img.reshape(height, width, 3)
        if bottom_up:
            img = img[::-1]
        frames.append(img[:, :, ::-1])  # BGR -> RGB
    return width, height, frames


def encode_avi(frames: list[np.ndarray], fps: int = 30) -> bytes:
    """RGB HxWx3 uint8 frames -> uncompressed RIFF/AVI bytes (tests +
    planted oracles — the :func:`encode_wav` idiom)."""
    import struct

    if not frames:
        raise ValueError("encode_avi: need at least one frame")
    height, width = frames[0].shape[:2]
    stride = (width * 3 + 3) & ~3
    frame_bytes = []
    for f in frames:
        # top-down RGB -> bottom-up BGR, rows padded to 4 bytes
        bgr = np.ascontiguousarray(f[::-1, :, ::-1], dtype=np.uint8)
        if stride != width * 3:
            padded = np.zeros((height, stride), dtype=np.uint8)
            padded[:, : width * 3] = bgr.reshape(height, width * 3)
            frame_bytes.append(padded.tobytes())
        else:
            frame_bytes.append(bgr.tobytes())

    def chunk(cid: bytes, body: bytes) -> bytes:
        return cid + struct.pack("<I", len(body)) + body + (
            b"\x00" if len(body) & 1 else b""
        )

    def lst(ltype: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", ltype + body)

    n = len(frames)
    avih = struct.pack(
        "<14I",
        1_000_000 // fps,  # us per frame
        stride * height * fps,  # max bytes/sec
        0, 0x10, n, 0, 1, stride * height, width, height, 0, 0, 0, 0,
    )
    strh = (
        b"vids" + b"DIB " + struct.pack("<IHHIIIIIIIII", 0, 0, 0, 0, 1,
                                        fps, 0, n, stride * height, 0, 0, 0)
        + struct.pack("<4H", 0, 0, width, height)
    )
    strf = struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, 24, 0,
        stride * height, 0, 0, 0, 0,
    )
    hdrl = lst(
        b"hdrl",
        chunk(b"avih", avih)
        + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)),
    )
    movi = lst(b"movi", b"".join(chunk(b"00db", fb) for fb in frame_bytes))
    body = b"AVI " + hdrl + movi
    return b"RIFF" + struct.pack("<I", len(body)) + body


class FrameSampler:
    """uncompressed AVI binary -> every-nth-frame sample descriptors.

    Payloads are decoded via :func:`decode_avi` and ``frame_hash`` is the
    first 60 bits of sha256 over the sampled frame's RGB pixel buffer
    (row-major H x W x 3) — the :class:`ImageResizer` pixel-hash idiom, so
    a SQL oracle reproduces it for planted constant-color frames.
    Undecodable payloads raise ``ValueError``."""

    def __init__(self, every_n: int = 10):
        self.every_n = every_n

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, frame_idx, frame_hash = [], [], []
        for doc, payload in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            _, _, frames = decode_avi(payload or b"")
            for i in range(0, len(frames), self.every_n):
                doc_ids.append(doc)
                frame_idx.append(i)
                fh = hashlib.sha256(frames[i].tobytes()).hexdigest()
                frame_hash.append(int(fh[:15], 16))  # 60 bits, int64-safe
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame_hash": pa.array(frame_hash, pa.int64()),
            }
        )


def decode_images(ds, batch_size: int = 32):
    """Actor-pool PNG/BMP decode stage (state loaded once per actor)."""
    return ds.map_batches(
        ImageDecoder,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=2,
    )


def sample_frames(ds, every_n: int = 10):
    """Actor-pool frame-sampling stage: uncompressed-AVI decode, then a
    pixel hash of every ``every_n``-th frame."""
    return ds.map_batches(
        FrameSampler,
        fn_constructor_kwargs={"every_n": every_n},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=2,
    )


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resample with the floor mapping
    ``src = (i * in_dim) // out_dim`` — pure-integer, deterministic, the
    frozen resize contract (pinned by pytest against this formula)."""
    in_h, in_w = img.shape[:2]
    ys = (np.arange(out_h, dtype=np.int64) * in_h) // out_h
    xs = (np.arange(out_w, dtype=np.int64) * in_w) // out_w
    return img[ys][:, xs]


class ImageResizer:
    """binary -> bounded-box resize descriptor.  The output dims are the
    exact integer aspect-preserving fit into a ``max_dim`` square —
    out = (max_dim, h*max_dim//w) for landscape, (w*max_dim//h,
    max_dim) for portrait, unchanged when already inside the box.

    Payloads are decoded as PNG/BMP pixels (:mod:`.imagecodec`) and
    resampled nearest-neighbor (:func:`resize_nearest`); ``resized_hash``
    is the first 60 bits of sha256 over the resized pixel buffer's raw
    bytes (row-major H x W x C) — a true pixel hash a SQL oracle
    reproduces for planted constant-color images.  Undecodable payloads
    raise ``ValueError``."""

    def __init__(self, max_dim: int = 128):
        self.max_dim = max_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = self.max_dim
        out_w, out_h, rhash = [], [], []
        doc_ids = batch.column("doc_id").to_pylist()
        for payload in batch.column("payload").to_pylist():
            img = decode_image(payload or b"")
            hgt, w = img.shape[:2]
            if max(w, hgt) <= t:
                ow, oh = w, hgt
            elif w >= hgt:
                ow, oh = t, (hgt * t) // w
            else:
                ow, oh = (w * t) // hgt, t
            resized = resize_nearest(img, ow, oh)
            rh = hashlib.sha256(resized.tobytes()).hexdigest()
            out_w.append(ow)
            out_h.append(oh)
            rhash.append(int(rh[:15], 16))  # 60 bits, int64-safe
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "out_w": pa.array(out_w, pa.int32()),
                "out_h": pa.array(out_h, pa.int32()),
                "resized_hash": pa.array(rhash, pa.int64()),
            }
        )


def resize_images(ds, max_dim: int = 128):
    """Actor-pool decode + nearest-neighbor resize stage (config held per
    actor, small batches because binary payloads dominate block size)."""
    return ds.map_batches(
        ImageResizer,
        fn_constructor_kwargs={"max_dim": max_dim},
        batch_format="pyarrow",
        batch_size=32,
        concurrency=2,
    )
