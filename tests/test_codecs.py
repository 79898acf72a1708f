"""Posting-codec contract: the one ``bw`` layout round-trips
bit-exactly, its bytes stay pinned to the scalar per-block encoder and
per-term writer loop it replaced, and every segment's MANIFEST.json tags
it — a segment tagged with any other codec is rejected, not decoded."""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from searchengines_ray.index import encode
from searchengines_ray.index.build import build_index, update_index
from searchengines_ray.index.compact import (
    delete_docs,
    merge_segments,
    purge_deleted,
)
from searchengines_ray.index.shard import Segment, list_segments
from searchengines_ray.sources.pages import synth_pages


def _fuzz_arrays():
    rng = np.random.default_rng(20260818)
    out = [
        np.array([], dtype=np.uint64),
        np.array([0], dtype=np.uint64),
        np.array([2**63], dtype=np.uint64),
        np.zeros(129, dtype=np.uint64),
        np.arange(128, dtype=np.uint64),
        np.arange(1, 130, dtype=np.uint64) * np.uint64(2**33),
    ]
    for n in (2, 127, 128, 129, 1000):
        small = rng.integers(0, 100, n).astype(np.uint64)
        out.append(small)
        # deterministic heavy tail: every 13th value is huge (8-byte
        # blocks inside small-value runs)
        tail = small.copy()
        tail[::13] = np.uint64(2**45) + np.arange(
            len(tail[::13]), dtype=np.uint64
        )
        out.append(tail)
    return out


def test_values_roundtrip():
    for arr in _fuzz_arrays():
        got = encode.decode_values(encode.encode_values(arr))
        assert got.dtype == np.uint64
        assert np.array_equal(got, arr)


def test_docids_roundtrip():
    for arr in _fuzz_arrays():
        ids = np.cumsum(arr.astype(np.uint64) % np.uint64(2**40) + np.uint64(1))
        got = encode.decode_doc_ids(encode.encode_doc_ids(ids))
        assert np.array_equal(got, ids)


def _widths(buf: bytes, delta: bool) -> list:
    """The byte width of each block of an encoded list, in order."""
    out, pos = [], 0
    while pos < len(buf):
        _, count, width = encode._HEADER_STRUCT.unpack_from(buf, pos)
        out.append(width)
        pos += encode._HEADER_STRUCT.size + (count - delta) * width
    return out


def test_decode_blocks_to_each_dtype():
    """The reader's decode (``_decode_blocks`` straight to int64 docs and
    tfs, int32 positions, from bytes or a uint8 view) agrees with the
    encoder: one value, exactly one block, one block and one value, and
    multi-block lists mixing every width, in delta and absolute mode."""
    rng = np.random.default_rng(20261020)
    bounds = ((0, 1 << 8), (1 << 8, 1 << 16), (1 << 16, 1 << 31),
              (1 << 33, 1 << 40))
    one_of_each = np.concatenate(
        [rng.integers(lo, hi, 128) for lo, hi in bounds]
    ).astype(np.uint64)
    cases = {
        "one": np.array([7], dtype=np.uint64),
        "128": rng.integers(0, 300, 128).astype(np.uint64),
        "129": rng.integers(0, 300, 129).astype(np.uint64),
        # blocks of width 1, 2, 4, 8, then 4, 2, 1 again
        "mixed": np.concatenate([one_of_each, one_of_each[::-1][128:]]),
    }
    for name, vals in cases.items():
        docs = np.cumsum(vals, dtype=np.uint64)  # deltas: vals[1:]
        positions = vals % np.uint64(1 << 31)  # int32 holds positions
        for delta, want, dtypes, widths in (
            (True, docs, (np.uint64, np.int64), {1, 2, 4, 8}),
            (False, vals, (np.uint64, np.int64), {1, 2, 4, 8}),
            (False, positions, (np.int32,), {1, 2, 4}),
        ):
            buf = (encode.encode_doc_ids if delta else encode.encode_values)(
                want
            )
            if name == "mixed":
                assert set(_widths(buf, delta)) == widths
            for dtype in dtypes:
                for src in (buf, np.frombuffer(buf, dtype=np.uint8)):
                    got = encode._decode_blocks(src, delta, dtype)
                    assert got.dtype == dtype, (name, delta, dtype)
                    assert np.array_equal(got.astype(np.uint64), want), (
                        name, delta, dtype,
                    )
                    got[:1] = 0  # an array of its own, not a buffer view
    assert encode._decode_blocks(b"", True, np.int64).dtype == np.int64


def _pages(n: int, seed: int, prefix: str = "") -> pa.Table:
    tbl = synth_pages(n=n, seed=seed, vocab=120, dup_frac=0.0).drop_columns(
        ["html"]
    )
    if prefix:  # synth urls are seed-independent: make these docs new
        urls = [f"https://synth.test/{prefix}/{i:06d}" for i in range(n)]
        tbl = tbl.set_column(
            tbl.schema.get_field_index("url"), "url", pa.array(urls)
        )
    return tbl


def _build(out: str, tbl: pa.Table) -> str:
    import ray.data

    build_index(ray.data.from_arrow(tbl), out, docs_per_segment=40)
    return out


def _manifest_path(index_dir: str, seg: str) -> str:
    return os.path.join(index_dir, "segments", seg, "MANIFEST.json")


def _codecs(index_dir: str) -> list[str]:
    tags = []
    for seg in list_segments(index_dir):
        with open(_manifest_path(index_dir, seg)) as f:
            tags.append(json.load(f)["codec"])
    return tags


def test_codec_stamped_in_manifests(tmp_path, ray_session):
    import ray.data

    d = _build(str(tmp_path / "idx"), _pages(160, 23))
    assert _codecs(d) == ["bw"] * 4
    with open(os.path.join(d, "stats.json")) as f:
        assert "codec" not in json.load(f)
    merge_segments(d, target_docs=1000)
    assert _codecs(d) == ["bw"]
    update_index(ray.data.from_arrow(_pages(60, 91, "extra")), d)
    assert _codecs(d) == ["bw"] * 2


def test_foreign_codec_tag_rejected(tmp_path, ray_session):
    """A segment whose MANIFEST names another codec (an index from an
    older build) fails loudly on open, merge and purge; nothing is
    rewritten."""
    d = _build(str(tmp_path / "idx"), _pages(80, 23))
    segs = list_segments(d)
    victim = segs[0]
    with open(_manifest_path(d, victim)) as f:
        m = json.load(f)
    m["codec"] = "vb"
    with open(_manifest_path(d, victim), "w") as f:
        json.dump(m, f)
    with pytest.raises(ValueError, match=f"{victim}.*'vb'"):
        Segment(os.path.join(d, "segments", victim))
    Segment(os.path.join(d, "segments", segs[1]))  # its sibling still opens
    with pytest.raises(ValueError, match=f"{victim}.*'vb'"):
        merge_segments(d, target_docs=1000)
    delete_docs(d, [Segment(os.path.join(d, "segments", segs[1])).doc_ids[0]])
    with pytest.raises(ValueError, match=f"{victim}.*'vb'"):
        purge_deleted(d)
    assert list_segments(d) == segs


# ------------------------------------------- byte-identity vs scalar code
#
# The segment writer and compaction encode every list of a column in one
# pass (encode.encode_lists / encode_postings).  The scalar code below is
# what they replaced: the per-block ``bw`` encoder and the per-term writer
# loop.  The on-disk bytes must not move.

_BW_HEADER = np.dtype([("base", "<u8"), ("count", "<u2"), ("width", "u1")])


def _scalar_bw(arr: np.ndarray, delta: bool) -> bytes:
    """Per-block ``bw`` encoder: one header and one packed body per block."""
    out = []
    for start in range(0, len(arr), encode.BLOCK):
        blk = arr[start : start + encode.BLOCK]
        body = np.diff(blk) if delta else blk
        top = int(body.max()) if len(body) else 0
        width = next(w for w in (1, 2, 4, 8) if w == 8 or top < 1 << (8 * w))
        hdr = np.zeros(1, dtype=_BW_HEADER)
        hdr["base"] = int(blk[0]) if delta else 0
        hdr["count"] = len(blk)
        hdr["width"] = width
        out.append(hdr.tobytes())
        out.append(body.astype(f"<u{width}").tobytes())
    return b"".join(out)


def _reference_postings(batch):
    """The per-term writer loop: terms sorted in Python, one encode call
    per column per (field, term) list."""
    import pyarrow.compute as pc

    from searchengines_ray.analysis import tokenize_arrow_batch
    from searchengines_ray.index.build import POSTINGS_SCHEMA, doc_id_from_url

    ids = [doc_id_from_url(u) for u in batch.column("url").to_pylist()]
    batch = batch.append_column("doc_id", pa.array(ids, pa.int64()))
    batch = batch.take(pc.sort_indices(batch.column("doc_id")))
    text = pc.fill_null(batch.column("text"), "")
    field_cols = {
        "body": text,
        "title": pc.list_element(
            pc.split_pattern(text, pattern="\n", max_splits=1), 0
        ),
        "url": batch.column("url"),
    }
    for extra in ("keywords", "inlink"):
        if extra in batch.column_names:
            field_cols[extra] = pc.fill_null(batch.column(extra), "")
    cols = {name: [] for name in POSTINGS_SCHEMA.names}
    for fname in sorted(field_cols):
        parent, pos, sid, _, vocab = tokenize_arrow_batch(field_cols[fname])
        if len(sid) == 0:
            continue
        order = np.lexsort((pos, parent, sid))
        s_arr, d_arr, p_arr = sid[order], parent[order], pos[order]
        first = np.ones(len(s_arr), dtype=bool)
        first[1:] = (s_arr[1:] != s_arr[:-1]) | (d_arr[1:] != d_arr[:-1])
        run_start = np.nonzero(first)[0]
        run_end = np.append(run_start[1:], len(s_arr))
        run_sids = s_arr[run_start]
        for t in sorted(set(run_sids.tolist()), key=lambda i: vocab[i]):
            runs = np.nonzero(run_sids == t)[0]
            docs = d_arr[run_start[runs]].astype(np.uint64)
            tfs = (run_end[runs] - run_start[runs]).astype(np.uint64)
            flat = p_arr[run_start[runs[0]] : run_end[runs[-1]]]
            cols["field"].append(fname)
            cols["term"].append(vocab[t])
            cols["df"].append(len(docs))
            cols["ctf"].append(int(tfs.sum()))
            cols["docs"].append(_scalar_bw(docs, True))
            cols["tfs"].append(_scalar_bw(tfs, False))
            cols["positions"].append(_scalar_bw(flat.astype(np.uint64), False))
    return pa.Table.from_pydict(cols, schema=POSTINGS_SCHEMA)


def test_bw_one_list_matches_scalar_reference():
    for arr in _fuzz_arrays():
        assert encode.encode_values(arr) == _scalar_bw(arr, False)
        ids = np.cumsum(arr % np.uint64(2**40) + np.uint64(1))
        assert encode.encode_doc_ids(ids) == _scalar_bw(ids, True)


def _fuzz_lists(rng, delta: bool) -> list[np.ndarray]:
    """Lists of 1/127/128/129/1000 values (plus an empty one) whose
    values or gaps need 1, 2, 4 and 8 bytes, up to 2^63, in shuffled
    order so blocks of every width interleave in one buffer."""
    lists = [np.empty(0, dtype=np.uint64)]
    for n in (1, 127, 128, 129, 1000):
        for top in (2**8, 2**16, 2**32, 2**63):
            if delta:  # gaps below top, and the last value below 2^63
                gaps = rng.integers(0, min(top, 2**63 // n), n, dtype=np.uint64)
                lists.append(np.cumsum(gaps, dtype=np.uint64))
            else:
                lists.append(rng.integers(0, top, n, dtype=np.uint64))
    lists.append(np.full(129, 2**63, dtype=np.uint64))
    return [lists[i] for i in rng.permutation(len(lists))]


@pytest.mark.parametrize("delta", [True, False])
def test_encode_lists_matches_per_list_encoding(delta):
    rng = np.random.default_rng(20261017)
    enc = encode.encode_doc_ids if delta else encode.encode_values
    for _ in range(3):
        lists = _fuzz_lists(rng, delta)
        starts = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([len(v) for v in lists], out=starts[1:])
        got = encode.encode_lists(np.concatenate(lists), starts, delta)
        want = [enc(v) for v in lists]
        assert got.to_pylist() == want
        assert want == [_scalar_bw(v, delta) for v in lists]


def test_binary_offsets_guard_int32_overflow():
    fits = np.array([0, 7, 2**31 - 1], dtype=np.int64)
    assert encode._binary_offsets(fits).tolist() == fits.tolist()
    with pytest.raises(ValueError, match="docs_per_segment"):
        encode._binary_offsets(np.array([0, 2**30, 2**31], dtype=np.int64))


def _segment_batches():
    tbl = synth_pages(n=300, seed=29, vocab=150, dup_frac=0.0)
    text = tbl.column("text").to_pylist()
    # a short first line: title differs from body
    lined = [" ".join(t.split(" ")[:3]) + "\n" + t for t in text]
    kw = [None if i % 7 == 0 else f"w{i % 11:04d} kw{i % 5}" for i in range(300)]
    inl = ["" if i % 5 == 0 else f"link w{i % 13:04d} the" for i in range(300)]
    rich = pa.table(
        {
            "url": tbl.column("url"),
            "text": pa.array(lined),
            "keywords": pa.array(kw, pa.string()),
            "inlink": pa.array(inl, pa.string()),
        }
    )
    no_title = pa.table(
        {
            "url": tbl.column("url").slice(0, 80),
            "text": pa.array(["\n" + t for t in text[:80]]),
        }
    )
    return {
        "keywords_inlink": rich,
        "one_doc": rich.slice(5, 1),
        "empty_title": no_title,
    }


def test_write_segment_postings_match_per_term_reference(tmp_path):
    import pyarrow.parquet as pq

    from searchengines_ray.index.build import write_segment

    for case, batch in _segment_batches().items():
        out = str(tmp_path / case)
        m = write_segment(batch, out)
        seg = os.path.join(out, "segments", m.column("segment")[0].as_py())
        got = pq.read_table(os.path.join(seg, "postings.parquet"))
        want = _reference_postings(batch)
        assert got.equals(want), case
        assert m.column("n_postings")[0].as_py() == sum(
            want.column("df").to_pylist()
        )
        if case == "empty_title":
            assert "title" not in set(got.column("field").to_pylist())
