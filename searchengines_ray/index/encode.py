"""Posting-list compression: delta-encoded docid gaps, three selectable
codecs, all carrying the same block-max metadata.

Replaces what Lucene's codec did for the reference (the reference never
encodes postings itself — it reads Lucene's; SURVEY.md §4.3 specifies this
designed-from-scratch layout).

Codecs (little-endian, numpy-vectorized encode/decode, no Python
per-value loops; the codec name is stamped into each segment's
MANIFEST.json so readers dispatch per segment and mixed-codec indexes
serve correctly):

``bw`` (default) — blocks of 128:
    per block: ``base:u64 | count:u16 | width:u8`` then ``count-1`` deltas
    (``arr[i]-arr[i-1]``, first element stored as base) packed at the block's
    minimal byte width (1/2/4/8).
``vb`` — LEB128 variable-byte stream (7 value bits + continuation bit per
    byte): delta mode stores the first value then the gaps, each as an
    independent varint; no block structure (block-max arrays still give
    WAND its 128-value block geometry — they are stored separately).
``pfor`` — patched frame-of-reference (NewPFD-style): blocks of 128,
    per block ``base:u64 | count:u16 | bits:u1 | nexc:u1`` then
    ``ceil(n*bits/8)`` bytes of little-endian bit-packed low ``bits`` of
    each value, then ``nexc`` (exception index:u8, full value:u8*8) patches
    for values that did not fit.  ``bits`` minimizes the block's exact byte
    cost (packed + 9 bytes/exception), ties to the smaller width —
    deterministic, so encode(decode(x)) is stable.

``ef`` — Elias-Fano (Vigna 2013, "Quasi-succinct indices"): blocks of
    128, per block ``base:u64 | count:u16 | l:u1 | hi_bytes:u4``.  The
    monotone body (docid offsets from base in delta mode; in-block
    prefix sums of the raw values in absolute mode, recovered by
    ``np.diff``) splits each value into ``l`` low bits (bit-packed, same
    machinery as pfor) and a high part unary-coded in a bitvector with
    bit ``(v>>l) + i`` set for the i-th value.  ``l = floor(log2(u/m))``
    for universe ``u`` and ``m`` encoded values — the classic
    2 + log2(u/m) bits/value bound.  Absolute blocks whose max value
    exceeds 2^55 store raw little-endian u64 instead (``l = 0xFF``
    sentinel) so the in-block prefix sum can never overflow uint64;
    real tfs/positions never take this path.

``encode_values`` uses the same codec machinery but absolute values
(tfs, flat positions — no delta), base unused/zero.

``encode_lists`` is the segmented entry point: a concatenated value array
plus its list offsets in, one Arrow ``binary`` row per list out, each row
byte-identical to encoding that list alone.  ``bw`` encodes every list in
one numpy pass (block ids from the list offsets, widths from one
``maximum.reduceat``, headers and width-grouped bodies scattered into one
buffer); ``encode_doc_ids``/``encode_values`` are its one-list case.
``vb``/``pfor``/``ef`` run their per-list kernels behind it.
``encode_postings`` builds every encoded and block-max column of a
segment's postings table from one call each — the one owner of that
layout, for the segment writer and compaction alike.

Block-max metadata for block-max WAND (computed at build time WITHOUT a
second global pass — the bound ``tf/(tf+k1((1-b)+b*dl/avg))`` is monotone
increasing in tf and decreasing in doclen, so per-block ``max_tf`` and
``min_doclen`` yield a valid upper bound once global ``avg`` is known at
query time):
    arrays ``max_docid:u64, max_tf:u32, min_doclen:u32`` per block, stored as
    separate parquet list columns.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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


def _decode_blocks(buf: bytes, delta: bool) -> np.ndarray:
    pos = 0
    chunks = []
    hs = _HEADER.itemsize
    mv = memoryview(buf)
    while pos < len(buf):
        hdr = np.frombuffer(mv, dtype=_HEADER, count=1, offset=pos)[0]
        pos += hs
        count, width = int(hdr["count"]), int(hdr["width"])
        nvals = count - 1 if delta else count
        dt = {1: "u1", 2: "<u2", 4: "<u4", 8: "<u8"}[width]
        body = np.frombuffer(mv, dtype=dt, count=nvals, offset=pos).astype(
            np.uint64
        )
        pos += nvals * width
        if delta:
            blk = np.empty(count, dtype=np.uint64)
            blk[0] = hdr["base"]
            blk[1:] = hdr["base"] + np.cumsum(body)
            chunks.append(blk)
        else:
            chunks.append(body)
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(chunks)


# --------------------------------------------------------- vb (LEB128)


def _vb_encode_stream(vals: np.ndarray) -> bytes:
    """uint64 array -> LEB128 byte stream (vectorized: loops over the max
    byte count, <=10, never over values)."""
    n = len(vals)
    if n == 0:
        return b""
    v = vals.astype(np.uint64)
    nb = np.ones(n, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nb += tmp != 0
        tmp = tmp >> np.uint64(7)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(nb[:-1], out=starts[1:])
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    for j in range(int(nb.max())):
        m = nb > j
        byte = ((v[m] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(
            np.uint8
        )
        out[starts[m] + j] = byte | ((nb[m] - 1 > j).astype(np.uint8) << 7)
    return out.tobytes()


def _vb_decode_stream(buf: bytes) -> np.ndarray:
    b = np.frombuffer(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    ends = np.nonzero((b & 0x80) == 0)[0]
    n = len(ends)
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    vals = np.zeros(n, dtype=np.uint64)
    for j in range(int(lens.max())):
        m = lens > j
        vals[m] |= (
            b[starts[m] + j].astype(np.uint64) & np.uint64(0x7F)
        ) << np.uint64(7 * j)
    return vals


def _vb_encode(arr: np.ndarray, delta: bool) -> bytes:
    if len(arr) == 0:
        return b""
    if delta:
        body = np.concatenate(
            ([arr[0]], np.diff(arr).astype(np.uint64))
        ).astype(np.uint64)
    else:
        body = arr
    return _vb_encode_stream(body)


def _vb_decode(buf: bytes, delta: bool) -> np.ndarray:
    vals = _vb_decode_stream(buf)
    if delta and len(vals):
        return np.cumsum(vals, dtype=np.uint64)
    return vals


# ------------------------------------------------- pfor (patched FOR)

_PFOR_HEADER = np.dtype(
    [("base", "<u8"), ("count", "<u2"), ("bits", "u1"), ("nexc", "u1")]
)
_ALL64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _bitlen(v: np.ndarray) -> np.ndarray:
    bl = np.zeros(len(v), dtype=np.int64)
    tmp = v.copy()
    while tmp.any():
        bl += tmp != 0
        tmp = tmp >> np.uint64(1)
    return bl


def _bitpack(vals: np.ndarray, bits: int) -> bytes:
    if bits == 0 or len(vals) == 0:
        return b""
    mat = (
        (vals[:, None] >> np.arange(bits, dtype=np.uint64)) & np.uint64(1)
    ).astype(np.uint8)
    return np.packbits(mat.ravel(), bitorder="little").tobytes()


def _bitunpack(buf: memoryview, n: int, bits: int) -> np.ndarray:
    if bits == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    raw = np.unpackbits(
        np.frombuffer(buf, dtype=np.uint8), count=n * bits,
        bitorder="little",
    )
    mat = raw.reshape(n, bits).astype(np.uint64)
    return (mat << np.arange(bits, dtype=np.uint64)).sum(
        axis=1, dtype=np.uint64
    )


def _pfor_encode(arr: np.ndarray, delta: bool) -> bytes:
    out = []
    n = len(arr)
    for start in range(0, n, BLOCK):
        blk = arr[start : start + BLOCK]
        if delta:
            base = int(blk[0])
            body = np.diff(blk).astype(np.uint64)
        else:
            base = 0
            body = blk.astype(np.uint64)
        nb = len(body)
        bl = _bitlen(body)
        maxbl = int(bl.max()) if nb else 0
        hist = np.bincount(bl, minlength=maxbl + 1)
        fits = np.cumsum(hist)  # fits[b] = #values with bitlen <= b
        cand = np.arange(maxbl + 1)
        nexc = nb - fits[cand]
        cost = (nb * cand + 7) // 8 + nexc * 9
        bits = int(np.argmin(cost))  # argmin ties to the smaller width
        mask = _ALL64 if bits == 64 else np.uint64((1 << bits) - 1)
        exc_idx = np.nonzero(bl > bits)[0]
        hdr = np.zeros(1, dtype=_PFOR_HEADER)
        hdr["base"] = base
        hdr["count"] = len(blk)
        hdr["bits"] = bits
        hdr["nexc"] = len(exc_idx)
        out.append(hdr.tobytes())
        out.append(_bitpack(body & mask, bits))
        if len(exc_idx):
            out.append(exc_idx.astype(np.uint8).tobytes())
            out.append(body[exc_idx].astype("<u8").tobytes())
    return b"".join(out)


def _pfor_decode(buf: bytes, delta: bool) -> np.ndarray:
    pos = 0
    hs = _PFOR_HEADER.itemsize
    mv = memoryview(buf)
    chunks = []
    while pos < len(buf):
        hdr = np.frombuffer(mv, dtype=_PFOR_HEADER, count=1, offset=pos)[0]
        pos += hs
        count, bits, nexc = (
            int(hdr["count"]),
            int(hdr["bits"]),
            int(hdr["nexc"]),
        )
        nb = count - 1 if delta else count
        packed_len = (nb * bits + 7) // 8
        body = _bitunpack(mv[pos : pos + packed_len], nb, bits)
        pos += packed_len
        if nexc:
            exc_idx = np.frombuffer(mv, dtype=np.uint8, count=nexc, offset=pos)
            pos += nexc
            exc_val = np.frombuffer(mv, dtype="<u8", count=nexc, offset=pos)
            pos += nexc * 8
            body[exc_idx.astype(np.int64)] = exc_val
        if delta:
            blk = np.empty(count, dtype=np.uint64)
            blk[0] = hdr["base"]
            if nb:
                blk[1:] = hdr["base"] + np.cumsum(body)
            chunks.append(blk)
        else:
            chunks.append(body)
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(chunks)


# ------------------------------------------------- ef (Elias-Fano)

_EF_HEADER = np.dtype(
    [("base", "<u8"), ("count", "<u2"), ("l", "u1"), ("hi_bytes", "<u4")]
)
_EF_RAW = 0xFF  # l sentinel: block stored as raw <u8 values
# absolute blocks above this max take the raw path: 128 values ≤ 2^55
# sum to < 2^62, so the monotone in-block prefix sum stays exact in u64
_EF_MAX_ABS = np.uint64(1 << 55)


def _ef_encode_mono(rel: np.ndarray) -> tuple[int, bytes, bytes]:
    """Monotone non-decreasing uint64 -> (l, low_bytes, high_bytes)."""
    m = len(rel)
    u = int(rel[-1])
    q = u // m
    l = q.bit_length() - 1 if q >= 1 else 0
    lo = _bitpack(rel & np.uint64((1 << l) - 1), l) if l else b""
    p = (rel >> np.uint64(l)).astype(np.int64) + np.arange(m, dtype=np.int64)
    bits = np.zeros(int(p[-1]) + 1, dtype=np.uint8)
    bits[p] = 1
    hi = np.packbits(bits, bitorder="little").tobytes()
    return l, lo, hi


def _ef_decode_mono(
    mv: memoryview, pos: int, m: int, l: int, hi_bytes: int
) -> tuple[np.ndarray, int]:
    packed_len = (m * l + 7) // 8
    lo = _bitunpack(mv[pos : pos + packed_len], m, l)
    pos += packed_len
    raw = np.unpackbits(
        np.frombuffer(mv, dtype=np.uint8, count=hi_bytes, offset=pos),
        bitorder="little",
    )
    pos += hi_bytes
    q = np.flatnonzero(raw)[:m]  # exactly m set bits (+ zero padding)
    high = (q - np.arange(m, dtype=np.int64)).astype(np.uint64)
    return (high << np.uint64(l)) | lo, pos


def _ef_encode(arr: np.ndarray, delta: bool) -> bytes:
    out = []
    n = len(arr)
    for start in range(0, n, BLOCK):
        blk = arr[start : start + BLOCK]
        hdr = np.zeros(1, dtype=_EF_HEADER)
        hdr["count"] = len(blk)
        if delta:
            base = int(blk[0])
            body = blk[1:] - blk[0]  # monotone, starts >= 0
            hdr["base"] = base
        else:
            if len(blk) and int(blk.max()) > int(_EF_MAX_ABS):
                hdr["l"] = _EF_RAW
                out.append(hdr.tobytes())
                out.append(blk.astype("<u8").tobytes())
                continue
            body = np.cumsum(blk, dtype=np.uint64)  # monotone (vals >= 0)
        if len(body) == 0:
            out.append(hdr.tobytes())
            continue
        l, lo, hi = _ef_encode_mono(body)
        hdr["l"] = l
        hdr["hi_bytes"] = len(hi)
        out.append(hdr.tobytes())
        out.append(lo)
        out.append(hi)
    return b"".join(out)


def _ef_decode(buf: bytes, delta: bool) -> np.ndarray:
    pos = 0
    hs = _EF_HEADER.itemsize
    mv = memoryview(buf)
    chunks = []
    while pos < len(buf):
        hdr = np.frombuffer(mv, dtype=_EF_HEADER, count=1, offset=pos)[0]
        pos += hs
        count, l = int(hdr["count"]), int(hdr["l"])
        if l == _EF_RAW:
            chunks.append(
                np.frombuffer(mv, dtype="<u8", count=count, offset=pos).astype(
                    np.uint64
                )
            )
            pos += count * 8
            continue
        m = count - 1 if delta else count
        if m == 0:
            if delta:
                chunks.append(np.array([hdr["base"]], dtype=np.uint64))
            continue
        body, pos = _ef_decode_mono(mv, pos, m, l, int(hdr["hi_bytes"]))
        if delta:
            blk = np.empty(count, dtype=np.uint64)
            blk[0] = hdr["base"]
            blk[1:] = hdr["base"] + body
            chunks.append(blk)
        else:
            chunks.append(np.diff(body, prepend=np.uint64(0)))
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(chunks)


# ------------------------------------------------------------ dispatch

CODECS = ("bw", "vb", "pfor", "ef")

_ENC = {
    "bw": _bw_encode,
    "vb": _vb_encode,
    "pfor": _pfor_encode,
    "ef": _ef_encode,
}
_DEC = {
    "bw": _decode_blocks,
    "vb": _vb_decode,
    "pfor": _pfor_decode,
    "ef": _ef_decode,
}


def encode_doc_ids(doc_ids: np.ndarray, codec: str = "bw") -> bytes:
    """Sorted docids -> delta-encoded postings under ``codec``."""
    return _ENC[codec](np.asarray(doc_ids, dtype=np.uint64), True)


def decode_doc_ids(buf: bytes, codec: str = "bw") -> np.ndarray:
    return _DEC[codec](buf, True)


def encode_values(vals: np.ndarray, codec: str = "bw") -> bytes:
    """Positive small ints (tfs / flat positions) -> absolute encoding."""
    return _ENC[codec](np.asarray(vals, dtype=np.uint64), False)


def decode_values(buf: bytes, codec: str = "bw") -> np.ndarray:
    return _DEC[codec](buf, False)


def _block_maxes_lists(doc_ids, tfs, doclens, starts):
    """Per-block (max_docid, max_tf, min_doclen) over concatenated lists,
    plus each list's block offsets."""
    bstart, bcount, list_blocks = _block_geometry(starts)
    if not len(bstart):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, list_blocks
    return (
        np.asarray(doc_ids)[bstart + bcount - 1],
        np.maximum.reduceat(tfs, bstart),
        np.minimum.reduceat(doclens, bstart),
        list_blocks,
    )


def block_maxes(
    doc_ids: np.ndarray, tfs: np.ndarray, doclens: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Per-block (max_docid, max_tf, min_doclen) for block-max WAND."""
    starts = np.array([0, len(doc_ids)], dtype=np.int64)
    md, mt, ml, _ = _block_maxes_lists(doc_ids, tfs, doclens, starts)
    return md.tolist(), mt.tolist(), ml.tolist()


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
    values: np.ndarray, starts: np.ndarray, codec: str = "bw",
    delta: bool = False,
) -> pa.Array:
    """Encode every list of a concatenated value array at once.

    ``starts`` holds the n_lists + 1 list offsets into ``values``; list i
    encodes exactly as ``encode_doc_ids`` (``delta``) or ``encode_values``
    would encode ``values[starts[i]:starts[i+1]]``.  Returns an Arrow
    ``binary`` array with one row per list.  ``bw`` runs as one numpy
    pass over all lists; ``vb``/``pfor``/``ef`` call their per-list
    kernels."""
    vals = np.asarray(values, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.int64)
    if codec == "bw":
        data, offsets = _bw_encode_lists(vals, starts, delta)
    else:
        enc = _ENC[codec]
        bufs = [
            enc(vals[a:b], delta) for a, b in zip(starts[:-1], starts[1:])
        ]
        data = np.frombuffer(b"".join(bufs), dtype=np.uint8)
        offsets = np.zeros(len(bufs) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in bufs], out=offsets[1:])
    return pa.Array.from_buffers(
        pa.binary(),
        len(starts) - 1,
        [None, pa.py_buffer(_binary_offsets(offsets)), pa.py_buffer(data)],
    )


def _int32_lists(values: np.ndarray, offsets: np.ndarray) -> pa.Array:
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32)),
        pa.array(values.astype(np.int32)),
    )


def encode_postings(
    docs: np.ndarray,
    tfs: np.ndarray,
    positions: np.ndarray,
    doclens: np.ndarray,
    starts: np.ndarray,
    codec: str = "bw",
) -> dict[str, pa.Array]:
    """Every posting list of a segment -> its postings-table columns.

    The one owner of the postings-column layout, for the build and for
    compaction alike.  Per posting: local doc index (ascending within a
    list), tf and the doc's field length; ``positions`` are the flat
    positions of all postings in order (tf of them per posting);
    ``starts`` holds the n_lists + 1 list offsets into ``docs``.
    Returns the ``df``, ``ctf``, ``docs``, ``tfs``, ``positions`` and
    ``bm_*`` columns, one row per list."""
    starts = np.asarray(starts, dtype=np.int64)
    tf_sum = np.zeros(len(tfs) + 1, dtype=np.int64)
    np.cumsum(tfs, dtype=np.int64, out=tf_sum[1:])
    pos_starts = tf_sum[starts]
    md, mt, ml, list_blocks = _block_maxes_lists(docs, tfs, doclens, starts)
    return {
        "df": pa.array(np.diff(starts), pa.int64()),
        "ctf": pa.array(np.diff(pos_starts), pa.int64()),
        "docs": encode_lists(docs, starts, codec, delta=True),
        "tfs": encode_lists(tfs, starts, codec),
        "positions": encode_lists(positions, pos_starts, codec),
        "bm_max_doc": _int32_lists(md, list_blocks),
        "bm_max_tf": _int32_lists(mt, list_blocks),
        "bm_min_dl": _int32_lists(ml, list_blocks),
    }
