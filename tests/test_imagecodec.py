"""Pure-numpy PNG/BMP codec (stages/imagecodec.py) behind the image
stages of stages/multimodal.py.  These tests pin: roundtrip exactness for
every supported color type, all five PNG scanline filters on decode,
palette images, BMP 24-bit, the nearest-neighbor resize contract, the
ImageDecoder/ImageResizer feature math, and that bytes in another format
(a JPEG header) raise instead of decoding to made-up dims."""

import struct
import zlib

import numpy as np
import pytest

from searchengines_ray.stages.imagecodec import (
    decode_bmp,
    decode_image,
    decode_png,
    encode_bmp,
    encode_png,
    sniff_format,
)
from searchengines_ray.stages.multimodal import (
    ImageDecoder,
    ImageResizer,
    resize_nearest,
)


def _chunk(ctype: bytes, body: bytes) -> bytes:
    return (
        struct.pack(">I", len(body))
        + ctype
        + body
        + struct.pack(">I", zlib.crc32(ctype + body) & 0xFFFFFFFF)
    )


def _png_with_filters(img: np.ndarray, ftype: int) -> bytes:
    """Encode with a fixed filter type per row (filters 0-4) — exercises
    the decoder's unfilter paths with an independent encoder."""
    h, w, c = img.shape
    bpp = c
    rows = []
    prev = np.zeros(w * c, np.int32)
    for y in range(h):
        cur = img[y].reshape(-1).astype(np.int32)
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = cur.copy()
            enc[bpp:] = (cur[bpp:] - cur[:-bpp]) & 0xFF
        elif ftype == 2:
            enc = (cur - prev) & 0xFF
        elif ftype == 3:
            enc = cur.copy()
            enc[:bpp] = (cur[:bpp] - prev[:bpp] // 2) & 0xFF
            enc[bpp:] = (cur[bpp:] - (cur[:-bpp] + prev[bpp:]) // 2) & 0xFF
        else:  # paeth
            enc = cur.copy()
            enc[:bpp] = (cur[:bpp] - prev[:bpp]) & 0xFF
            a, b, cc = cur[:-bpp], prev[bpp:], prev[:-bpp]
            p = a + b - cc
            pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - cc)
            pred = np.where(
                (pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, cc)
            )
            enc[bpp:] = (cur[bpp:] - pred) & 0xFF
        rows.append(bytes([ftype]) + bytes(enc.astype(np.uint8)))
        prev = cur
    raw = b"".join(rows)
    ct = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ct, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("shape", [(5, 7, 3), (8, 3, 1), (4, 4, 4), (6, 2, 2)])
def test_png_roundtrip_color_types(shape):
    img = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
    out = decode_png(encode_png(img))
    assert out.shape == img.shape and (out == img).all()


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_all_scanline_filters(ftype):
    img = np.random.default_rng(ftype).integers(
        0, 256, (6, 5, 3), dtype=np.uint8
    )
    assert (decode_png(_png_with_filters(img, ftype)) == img).all()


def test_png_palette():
    rng = np.random.default_rng(3)
    pal = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    idx = rng.integers(0, 16, (4, 6), dtype=np.uint8)
    raw = b"".join(b"\x00" + bytes(idx[y]) for y in range(4))
    png = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", 6, 4, 8, 3, 0, 0, 0))
        + _chunk(b"PLTE", pal.tobytes())
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    assert (decode_png(png) == pal[idx]).all()


def test_bmp_roundtrip_and_sniff():
    img = np.random.default_rng(1).integers(0, 256, (9, 5, 3), dtype=np.uint8)
    data = encode_bmp(img)
    assert sniff_format(data) == "bmp"
    assert (decode_bmp(data) == img).all()
    png = encode_png(img)
    assert sniff_format(png) == "png"
    assert (decode_image(png) == img).all()
    with pytest.raises(ValueError):
        decode_image(b"GIF89a notsupported")


def test_resize_nearest_contract():
    img = np.arange(6 * 4 * 3, dtype=np.uint8).reshape(6, 4, 3)
    out = resize_nearest(img, 2, 3)
    ys = (np.arange(3) * 6) // 3
    xs = (np.arange(2) * 4) // 2
    assert (out == img[ys][:, xs]).all()
    # upscale too
    up = resize_nearest(img, 8, 12)
    assert up.shape == (12, 8, 3)
    assert (up[0, 0] == img[0, 0]).all() and (up[-1, -1] == img[-1, -1]).all()


def test_real_image_decoder_features():
    img = np.random.default_rng(5).integers(0, 256, (7, 9, 3), dtype=np.uint8)
    dec = ImageDecoder()
    w, h, c, f = dec._decode_one(encode_png(img))
    assert (w, h, c) == (9, 7, 3)
    px = img.astype(np.int64)
    assert f[0] == 63 and f[1] == px.sum()
    assert f[2] == px[:, :, 0].sum() and f[4] == px[:, :, 2].sum()
    assert f[5] == px.min() and f[6] == px.max()
    # JPEG is not a supported format: it raises, it does not get dims
    with pytest.raises(ValueError, match="unknown image format"):
        dec._decode_one(b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01")


def test_real_image_resizer_pixel_hash():
    import hashlib

    img = np.full((100, 80, 3), 77, dtype=np.uint8)
    rz = ImageResizer(max_dim=64)
    import pyarrow as pa

    t = rz(
        pa.table(
            {
                "doc_id": pa.array([1], pa.int64()),
                "payload": pa.array([encode_png(img)], pa.binary()),
            }
        )
    )
    # portrait: out = (80*64//100, 64) = (51, 64)
    assert t.column("out_w").to_pylist() == [51]
    assert t.column("out_h").to_pylist() == [64]
    want = int(
        hashlib.sha256(
            np.full((64, 51, 3), 77, dtype=np.uint8).tobytes()
        ).hexdigest()[:15],
        16,
    )
    assert t.column("resized_hash").to_pylist() == [want]


def test_wav_roundtrip_and_features():
    import pyarrow as pa

    from searchengines_ray.stages.multimodal import (
        AudioFeaturizer,
        decode_wav,
        encode_wav,
    )

    rng = np.random.default_rng(9)
    samples = rng.integers(-32768, 32768, 3000, dtype=np.int16)
    data = encode_wav(samples, rate=22050, n_ch=1)
    rate, n_ch, back = decode_wav(data)
    assert (rate, n_ch) == (22050, 1)
    assert (back == samples).all()

    feats = AudioFeaturizer(frame_abs_threshold=0)(
        pa.table(
            {
                "doc_id": pa.array([7], pa.int64()),
                "payload": pa.array([data], pa.binary()),
            }
        )
    )
    a = np.abs(samples.astype(np.int64))
    assert feats.column("n_samples").to_pylist() == [3000]
    assert feats.column("sum_abs").to_pylist() == [int(a.sum())]
    assert feats.column("peak").to_pylist() == [int(a.max())]
    # threshold 0: every complete 1024-frame is active (3000 // 1024 = 2)
    assert feats.column("energy_frames").to_pylist() == [2]

    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxNOPE")
    with pytest.raises(ValueError):
        decode_wav(b"not audio at all")
