"""Pure-numpy image codecs (PNG + BMP) — the REAL decode path behind the
multimodal stages.

The container ships no PIL/torchvision, but PNG and BMP are fully public
formats decodable with stdlib ``zlib`` + ``struct`` + numpy, so
:class:`~.multimodal.ImageDecoder` and :class:`~.multimodal.ImageResizer`
decode genuine pixels.  Supported:

- PNG (RFC 2083): 8-bit depth, color types 0 (gray), 2 (RGB), 3
  (palette), 4 (gray+alpha), 6 (RGBA), non-interlaced.  All five scanline
  filters (None/Sub/Up/Average/Paeth) are implemented; Sub/Up vectorize,
  Average/Paeth fall back to a per-pixel column walk (correctness-first —
  the hot planted-data paths emit filter 0).
- BMP (BITMAPINFOHEADER): uncompressed 24/32-bit, bottom-up or top-down.

``encode_png`` / ``encode_bmp`` are minimal writers used by tests and the
oracle entries to plant deterministic pixels (filter-0 rows + one zlib
stream; single-plane BI_RGB), so decode(encode(x)) round-trips exactly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"

# channels per pixel by PNG color type
_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


def sniff_format(data: bytes) -> str | None:
    """'png' | 'bmp' | None by magic bytes."""
    if data[:8] == _PNG_SIG:
        return "png"
    if data[:2] == b"BM":
        return "bmp"
    return None


# ---------------------------------------------------------------- PNG ----


def _png_chunks(data: bytes):
    pos = 8
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        yield ctype, body
        pos += 12 + length  # len + type + body + crc
        if ctype == b"IEND":
            return


def _unfilter(raw: np.ndarray, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filtering.  ``raw`` is the decompressed stream of
    ``height`` rows x (1 filter byte + stride data bytes).  Returns
    (height, stride) uint8."""
    rows = raw.reshape(height, 1 + stride)
    ftypes = rows[:, 0]
    data = rows[:, 1:].astype(np.int32)  # headroom for sums, mod 256 at end
    out = np.zeros((height, stride), dtype=np.int32)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        f = int(ftypes[y])
        cur = data[y]
        if f == 0:  # None
            rec = cur.copy()
        elif f == 1:  # Sub — cumulative sum with stride bpp
            rec = cur.copy()
            rec[bpp:] = cur[bpp:]
            for x in range(bpp, stride, bpp):
                rec[x : x + bpp] = (rec[x : x + bpp] + rec[x - bpp : x]) & 0xFF
        elif f == 2:  # Up
            rec = (cur + prev) & 0xFF
        elif f == 3:  # Average
            rec = np.zeros(stride, dtype=np.int32)
            rec[:bpp] = (cur[:bpp] + prev[:bpp] // 2) & 0xFF
            for x in range(bpp, stride, bpp):
                rec[x : x + bpp] = (
                    cur[x : x + bpp]
                    + (rec[x - bpp : x] + prev[x : x + bpp]) // 2
                ) & 0xFF
        elif f == 4:  # Paeth
            rec = np.zeros(stride, dtype=np.int32)
            rec[:bpp] = (cur[:bpp] + prev[:bpp]) & 0xFF  # a=c=0 -> pred=b
            for x in range(bpp, stride, bpp):
                a = rec[x - bpp : x]
                b = prev[x : x + bpp]
                c = prev[x - bpp : x]
                p = a + b - c
                pa_ = np.abs(p - a)
                pb = np.abs(p - b)
                pc = np.abs(p - c)
                pred = np.where(
                    (pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c)
                )
                rec[x : x + bpp] = (cur[x : x + bpp] + pred) & 0xFF
        else:
            raise ValueError(f"PNG: unknown filter type {f}")
        out[y] = rec
        prev = rec
    return out.astype(np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> (H, W, C) uint8 array (C in {1, 2, 3, 4})."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    width = height = None
    bit_depth = color_type = interlace = None
    palette = None
    idat = []
    for ctype, body in _png_chunks(data):
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _, _, interlace = (
                struct.unpack(">IIBBBBB", body)
            )
        elif ctype == b"PLTE":
            palette = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(body)
    if width is None:
        raise ValueError("PNG: missing IHDR")
    if bit_depth != 8:
        raise ValueError(f"PNG: unsupported bit depth {bit_depth} (only 8)")
    if color_type not in _PNG_CHANNELS:
        raise ValueError(f"PNG: unsupported color type {color_type}")
    if interlace != 0:
        raise ValueError("PNG: Adam7 interlacing not supported")
    nch = _PNG_CHANNELS[color_type]
    stride = width * nch
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if len(raw) != height * (stride + 1):
        raise ValueError(
            f"PNG: IDAT size {len(raw)} != {height}*({stride}+1)"
        )
    img = _unfilter(raw, height, stride, nch).reshape(height, width, nch)
    if color_type == 3:
        if palette is None:
            raise ValueError("PNG: palette image without PLTE")
        img = palette[img[:, :, 0]]
    return img


def encode_png(img: np.ndarray) -> bytes:
    """(H, W) or (H, W, C) uint8 -> PNG bytes (filter 0, one IDAT)."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    raw = np.zeros((h, 1 + w * c), dtype=np.uint8)
    raw[:, 1:] = img.reshape(h, w * c)

    def chunk(ctype: bytes, body: bytes) -> bytes:
        return (
            struct.pack(">I", len(body))
            + ctype
            + body
            + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
        + chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------- BMP ----


def decode_bmp(data: bytes) -> np.ndarray:
    """BMP bytes -> (H, W, 3|4) uint8 (BGR(A) converted to RGB(A))."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    (offset,) = struct.unpack("<I", data[10:14])
    (hdr_size,) = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise ValueError(f"BMP: unsupported header size {hdr_size}")
    width, height = struct.unpack("<ii", data[18:26])
    planes, bpp = struct.unpack("<HH", data[26:30])
    (compression,) = struct.unpack("<I", data[30:34])
    if compression != 0 or bpp not in (24, 32):
        raise ValueError(
            f"BMP: only uncompressed 24/32-bit supported (bpp={bpp}, "
            f"compression={compression})"
        )
    nch = bpp // 8
    top_down = height < 0
    height = abs(height)
    row_size = (width * nch + 3) & ~3  # rows pad to 4 bytes
    px = np.frombuffer(
        data, dtype=np.uint8, count=row_size * height, offset=offset
    ).reshape(height, row_size)[:, : width * nch]
    img = px.reshape(height, width, nch)
    if not top_down:
        img = img[::-1]
    # BGR(A) -> RGB(A)
    img = img[:, :, [2, 1, 0] + ([3] if nch == 4 else [])]
    return np.ascontiguousarray(img)


def encode_bmp(img: np.ndarray) -> bytes:
    """(H, W, 3) uint8 RGB -> 24-bit bottom-up BMP bytes."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    h, w, c = img.shape
    if c != 3:
        raise ValueError("encode_bmp: RGB only")
    row_size = (w * 3 + 3) & ~3
    rows = np.zeros((h, row_size), dtype=np.uint8)
    rows[:, : w * 3] = img[::-1, :, [2, 1, 0]].reshape(h, w * 3)  # BGR, bottom-up
    body = rows.tobytes()
    offset = 14 + 40
    header = struct.pack("<2sIHHI", b"BM", offset + len(body), 0, 0, offset)
    info = struct.pack(
        "<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0
    )
    return header + info + body


def decode_image(data: bytes) -> np.ndarray:
    """Dispatch on magic bytes; raises ValueError for unknown formats."""
    fmt = sniff_format(data or b"")
    if fmt == "png":
        return decode_png(data)
    if fmt == "bmp":
        return decode_bmp(data)
    raise ValueError("unknown image format (PNG and BMP supported)")
