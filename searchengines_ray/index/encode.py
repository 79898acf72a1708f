"""Posting-list compression: delta-encoded docid gaps in byte-width
blocks.

Replaces what Lucene's codec did for the reference (the reference never
encodes postings itself — it reads Lucene's; SURVEY.md §4.3 specifies this
designed-from-scratch layout).

One layout, ``bw`` (little-endian, numpy-vectorized encode/decode, no
Python per-value loops) — blocks of 128:
    per block: ``base:u64 | count:u16 | width:u8`` then ``count-1`` deltas
    (``arr[i]-arr[i-1]``, first element stored as base) packed at the block's
    minimal byte width (1/2/4/8).
``encode_values`` uses the same blocks with absolute values (tfs, flat
positions — no delta), base unused/zero.

Each segment's MANIFEST.json carries ``"codec": "bw"`` as a format tag;
:func:`check_codec` rejects a segment whose tag names any other layout
(written by an older build) instead of decoding it as garbage.

``encode_lists`` is the segmented entry point: a concatenated value array
plus its list offsets in, one Arrow ``binary`` row per list out, each row
byte-identical to encoding that list alone.  It encodes every list in
one numpy pass (block ids from the list offsets, widths from one
``maximum.reduceat``, headers and width-grouped bodies scattered into one
buffer); ``encode_doc_ids``/``encode_values`` are its one-list case.
``encode_postings`` builds every encoded column of a segment's postings
table from one call each — the one owner of that layout, for the segment
writer and compaction alike.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np
import pyarrow as pa

CODEC = "bw"  # the MANIFEST.json format tag of every segment
BLOCK = 128
_HEADER = np.dtype([("base", "<u8"), ("count", "<u2"), ("width", "u1")])


def _block_geometry(starts: np.ndarray):
    """Blocks of 128 over concatenated lists with offsets ``starts``
    (n_lists + 1 entries; a block never spans two lists).

    Returns ``(bstart, bcount, list_blocks)``: each block's first value
    index and value count, and each list's block offsets (n_lists + 1)."""
    lens = np.diff(starts)
    nblk = (lens + BLOCK - 1) // BLOCK
    list_blocks = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(nblk, out=list_blocks[1:])
    owner = np.repeat(np.arange(len(lens), dtype=np.int64), nblk)
    within = np.arange(list_blocks[-1], dtype=np.int64) - list_blocks[owner]
    bstart = starts[owner] + BLOCK * within
    bcount = np.minimum(starts[owner + 1] - bstart, BLOCK)
    return bstart, bcount, list_blocks


def _bw_encode_lists(
    vals: np.ndarray, starts: np.ndarray, delta: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``bw`` over every list at once -> (uint8 data, int64 byte offsets
    per list).  Block widths come from one ``maximum.reduceat``; headers
    and width-grouped bodies are scattered into one buffer by per-value
    offsets (one scatter per byte of width, never per-byte index
    arrays)."""
    bstart, bcount, list_blocks = _block_geometry(starts)
    nblk = len(bstart)
    if delta:
        body = np.empty_like(vals)
        body[1:] = vals[1:] - vals[:-1]  # list seams are block starts
        body[bstart] = 0  # a block's first value rides in its header
        base = vals[bstart]
        nbody = bcount - 1
    else:
        body = vals
        base = 0
        nbody = bcount
    bmax = (
        np.maximum.reduceat(body, bstart)
        if nblk
        else np.empty(0, dtype=np.uint64)
    )
    width = np.select(
        [bmax < np.uint64(1 << 8), bmax < np.uint64(1 << 16),
         bmax < np.uint64(1 << 32)],
        [1, 2, 4],
        8,
    ).astype(np.int64)
    boff = np.zeros(nblk + 1, dtype=np.int64)
    np.cumsum(_HEADER.itemsize + nbody * width, out=boff[1:])
    out = np.empty(int(boff[-1]), dtype=np.uint8)

    hdr = np.zeros(nblk, dtype=_HEADER)
    hdr["base"] = base
    hdr["count"] = bcount
    hdr["width"] = width
    hbytes = hdr.view(np.uint8).reshape(nblk, _HEADER.itemsize)
    for k in range(_HEADER.itemsize):
        out[boff[:-1] + k] = hbytes[:, k]

    # per value: its slot in its block's body, then its byte offset in
    # ``out`` (width 0 marks a header-held first value)
    blk = np.repeat(np.arange(nblk, dtype=np.int64), bcount)
    dest = np.arange(len(vals), dtype=np.int64) - bstart[blk]
    if delta:
        dest -= 1
    vwidth = width.astype(np.uint8)[blk]
    vwidth[dest < 0] = 0
    dest *= vwidth
    dest += (boff[:-1] + _HEADER.itemsize)[blk]
    del blk
    for w in (1, 2, 4, 8):
        idx = np.flatnonzero(vwidth == w)
        if not len(idx):
            continue
        vb = body[idx].astype(f"<u{w}").view(np.uint8).reshape(-1, w)
        d = dest[idx]
        for k in range(w):
            out[d + k] = vb[:, k]
    return out, boff[list_blocks]


def _bw_encode(arr: np.ndarray, delta: bool) -> bytes:
    """One-list case of :func:`_bw_encode_lists`."""
    out, _ = _bw_encode_lists(
        arr, np.array([0, len(arr)], dtype=np.int64), delta
    )
    return out.tobytes()


_HEADER_STRUCT = struct.Struct("<QHB")  # ``_HEADER`` as one struct, for decode
_WIDTH_DTYPES = {w: np.dtype(f"<u{w}") for w in (1, 2, 4, 8)}


def _decode_blocks(buf, delta: bool, dtype=np.uint64) -> np.ndarray:
    """One encoded list (``bytes`` or a uint8 array) -> its values as
    ``dtype``.  Headers are parsed with ``struct`` first, then every
    block is decoded straight into one preallocated result: no
    intermediate uint64 copy and no concatenation."""
    heads = []
    pos, end = 0, len(buf)
    while pos < end:
        base, count, width = _HEADER_STRUCT.unpack_from(buf, pos)
        pos += _HEADER_STRUCT.size
        heads.append((base, count, width, pos))
        pos += (count - delta) * width
    out = np.empty(sum(h[1] for h in heads), dtype=dtype)
    at = 0
    for base, count, width, pos in heads:
        blk = out[at : at + count]
        at += count
        body = np.frombuffer(buf, _WIDTH_DTYPES[width], count - delta, pos)
        if delta:
            # [base, deltas...] summed in place (``np.add.accumulate``:
            # the ``np.cumsum`` wrapper costs more than a short list)
            blk[0] = base
            blk[1:] = body
            np.add.accumulate(blk, out=blk)
        else:
            blk[:] = body
    return out


def encode_doc_ids(doc_ids: np.ndarray) -> bytes:
    """Sorted docids -> delta-encoded postings."""
    return _bw_encode(np.asarray(doc_ids, dtype=np.uint64), True)


def decode_doc_ids(buf: bytes) -> np.ndarray:
    return _decode_blocks(buf, True)


def encode_values(vals: np.ndarray) -> bytes:
    """Positive small ints (tfs / flat positions) -> absolute encoding."""
    return _bw_encode(np.asarray(vals, dtype=np.uint64), False)


def decode_values(buf: bytes) -> np.ndarray:
    return _decode_blocks(buf, False)


def check_codec(seg_dir: str) -> None:
    """Raise ``ValueError`` unless the segment's MANIFEST.json tags its
    postings ``bw`` (no MANIFEST or no tag means the original ``bw``)."""
    try:
        with open(os.path.join(seg_dir, "MANIFEST.json")) as f:
            codec = json.load(f).get("codec", CODEC)
    except OSError:
        return
    if codec != CODEC:
        raise ValueError(
            f"segment {os.path.basename(seg_dir)} has postings in codec "
            f"{codec!r}; this build reads only {CODEC!r} — rebuild the index"
        )


_MAX_BINARY_BYTES = 2**31 - 1  # what int32 binary-column offsets address


def _binary_offsets(offsets: np.ndarray) -> np.ndarray:
    """int64 byte offsets -> the int32 offsets of an Arrow ``binary``
    column.  Past 2^31-1 bytes int32 would wrap silently, so raise."""
    total = int(offsets[-1])
    if total > _MAX_BINARY_BYTES:
        raise ValueError(
            f"a postings column holds {total} bytes, over the "
            f"{_MAX_BINARY_BYTES}-byte limit of one Arrow binary column; "
            "lower docs_per_segment"
        )
    return offsets.astype(np.int32)


def encode_lists(
    values: np.ndarray, starts: np.ndarray, delta: bool = False
) -> pa.Array:
    """Encode every list of a concatenated value array in one numpy pass.

    ``starts`` holds the n_lists + 1 list offsets into ``values``; list i
    encodes exactly as ``encode_doc_ids`` (``delta``) or ``encode_values``
    would encode ``values[starts[i]:starts[i+1]]``.  Returns an Arrow
    ``binary`` array with one row per list."""
    starts = np.asarray(starts, dtype=np.int64)
    data, offsets = _bw_encode_lists(
        np.asarray(values, dtype=np.uint64), starts, delta
    )
    return pa.Array.from_buffers(
        pa.binary(),
        len(starts) - 1,
        [None, pa.py_buffer(_binary_offsets(offsets)), pa.py_buffer(data)],
    )


def encode_postings(
    docs: np.ndarray,
    tfs: np.ndarray,
    positions: np.ndarray,
    starts: np.ndarray,
) -> dict[str, pa.Array]:
    """Every posting list of a segment -> its postings-table columns.

    The one owner of the postings-column layout, for the build and for
    compaction alike.  Per posting: local doc index (ascending within a
    list) and tf; ``positions`` are the flat positions of all postings in
    order (tf of them per posting); ``starts`` holds the n_lists + 1 list
    offsets into ``docs``.  Returns the ``df``, ``ctf``, ``docs``, ``tfs``
    and ``positions`` columns, one row per list."""
    starts = np.asarray(starts, dtype=np.int64)
    tf_sum = np.zeros(len(tfs) + 1, dtype=np.int64)
    np.cumsum(tfs, dtype=np.int64, out=tf_sum[1:])
    pos_starts = tf_sum[starts]
    return {
        "df": pa.array(np.diff(starts), pa.int64()),
        "ctf": pa.array(np.diff(pos_starts), pa.int64()),
        "docs": encode_lists(docs, starts, delta=True),
        "tfs": encode_lists(tfs, starts),
        "positions": encode_lists(positions, pos_starts),
    }
