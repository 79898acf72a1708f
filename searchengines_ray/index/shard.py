"""Segment reader: the query-time view of one SPIMI segment.

The Ray analog of the reference's materialized inverted lists
(``/root/reference/QryEval/QryIop.java:50-54``, ``InvList.java:109-154``): a
segment's postings parquet is memory-mapped once per actor (``__init__``-time,
never per batch) and individual (field,term) lists are decoded on demand into
numpy arrays.  A searcher reads its segments as one :class:`SegmentSet`,
which evaluates a query once over all of them: its lists are the segments'
lists concatenated with their docs offset into searcher-wide rows, and it
holds the searcher's one decode cache (misses too), cleared wholesale once
it holds ``DECODE_CACHE_LISTS`` entries.  A list's positions stay encoded
until first read (:class:`PostingList`), so bag-of-words scoring decodes
docs and tfs only.

The term dictionary stays Arrow (:class:`TermDict`), as Lucene's
block-tree terms dictionary keeps a small in-memory index and no hash
entry per term: the postings table is sorted by (field, term), each
field's rows are one run, and a big-endian uint64 of each term's first 8
bytes (8 bytes a row) orders the rows of a field the way the terms do
(UTF-8 byte order is ``str`` order).  A key is found by bisecting its
field's prefixes, then by exact byte comparison against the term
column's offsets and data buffers among the rows that share its prefix.
Opening a segment makes no Python object per term.

A searcher process never imports pandas or ``pyarrow.dataset``: files are
read with ``pq.ParquetFile(..., memory_map=True)``, numeric columns are
numpy views of their Arrow buffers, and ``take`` gets Arrow indices
(``tests/test_termdict.py`` checks it in a fresh process).
"""

from __future__ import annotations

import bisect
import json
import os
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import FIELDS
from . import encode
from .build import POSTINGS_SCHEMA, SEGMENT_DIR, STATS_FILE


_LIST_COLS = ("docs", "tfs", "positions")
# decoded posting lists a segment keeps before its cache is cleared
DECODE_CACHE_LISTS = 4096


def read_parquet(path: str, columns: Optional[Sequence[str]] = None) -> pa.Table:
    """A memory-mapped read of one parquet file (``pq.read_table`` would
    import ``pyarrow.dataset`` and pandas)."""
    return pq.ParquetFile(path, memory_map=True).read(columns=columns)


def _one_chunk(col) -> pa.Array:
    """An Array, or a column as one Array."""
    if isinstance(col, pa.Array):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def values(col, dtype) -> np.ndarray:
    """A numpy view of a null-free fixed-width Array or column (Arrow's
    ``to_numpy`` would import pandas)."""
    arr = _one_chunk(col)
    buf = arr.buffers()[1]
    return np.frombuffer(buf or b"", dtype=dtype)[
        arr.offset : arr.offset + len(arr)
    ]


def arrow_indices(rows: np.ndarray) -> pa.Array:
    """``rows`` as an Arrow int64 array for ``take`` (numpy indices, or
    ``pa.array`` of them, would import pandas)."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return pa.Array.from_buffers(
        pa.int64(), len(rows), [None, pa.py_buffer(rows)]
    )


def _row_views(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, uint8 bytes) numpy views of a ``binary`` or ``string``
    column: row i is ``bytes[offsets[i]:offsets[i + 1]]``."""
    arr = _one_chunk(col)
    _, offsets, data = arr.buffers()
    off = np.frombuffer(offsets or b"\0\0\0\0", dtype=np.int32)
    return (
        off[arr.offset : arr.offset + len(arr) + 1],
        np.frombuffer(data or b"", dtype=np.uint8),
    )


class TermDict:
    """Sorted ``(field, term)`` string columns as a term dictionary; see
    the module docstring.  ``find`` looks up one key, ``rows`` a batch."""

    def __init__(self, field_col, term_col):
        runs = pc.run_end_encode(_one_chunk(field_col))
        ends = runs.run_ends.to_pylist()
        names = runs.values.to_pylist()
        if len(set(names)) != len(names):
            raise ValueError("term dictionary rows are not grouped by field")
        # field -> its [start, end) rows
        self._bounds = dict(zip(names, zip([0, *ends[:-1]], ends)))
        off, data = _row_views(term_col)
        # each term's first 8 bytes, zero-padded, as a big-endian uint64:
        # within a field, ascending as the terms are
        start, length = off[:-1].astype(np.int64), np.diff(off)
        head = np.zeros((len(start), 8), dtype=np.uint8)
        if len(data):
            for j in range(8):
                byte = data[np.minimum(start + j, len(data) - 1)]
                head[:, j] = np.where(j < length, byte, 0)
        # memoryviews: an item read is a Python int or bytes slice, with
        # no numpy scalar in between (``bisect`` searches them directly)
        self._prefix = memoryview(head.view(">u8")[:, 0].astype(np.uint64))
        self._off = memoryview(np.ascontiguousarray(off))
        self._data = memoryview(data)

    def _term(self, row: int) -> bytes:
        return self._data[self._off[row] : self._off[row + 1]].tobytes()

    def find(self, field: str, term: str) -> int:
        """The row of one key, -1 where absent."""
        if field not in self._bounds:
            return -1  # no document has the field
        s, e = self._bounds[field]
        raw = term.encode()
        key = int.from_bytes(raw[:8].ljust(8, b"\0"), "big")
        # every row sharing the prefix of a key of 8 bytes or fewer and no
        # NUL starts with the key, so the first such row is the key if any
        # is; any other key is binary searched among those rows
        a = bisect.bisect_left(self._prefix, key, s, e)
        if len(raw) > 8 or b"\0" in raw:
            b = bisect.bisect_right(self._prefix, key, a, e)
            while a < b:
                m = (a + b) // 2
                if self._term(m) < raw:
                    a = m + 1
                else:
                    b = m
        return a if a < e and self._term(a) == raw else -1

    def rows(self, keys: Sequence[tuple[str, str]]) -> np.ndarray:
        """The row of each ``(field, term)`` key, -1 where absent."""
        return np.fromiter(
            (self.find(f, t) for f, t in keys), dtype=np.int64, count=len(keys)
        )


class PostingList:
    """Decoded postings of one (field, term) within a segment or a
    :class:`SegmentSet`.

    ``docs`` are doc rows (int64, ascending) into the reader's doc table;
    ``positions`` is a flat int32 array sliced by ``offsets``
    (``offsets[i]:offsets[i+1]`` = positions of docs[i]).  Until
    ``positions`` or ``offsets`` is first read, the list holds its
    encoded position rows, one per segment in doc order; only #SYN,
    #NEAR, #WINDOW and postings dumps read them.
    """

    __slots__ = (
        "field", "docs", "tfs", "_pos_rows", "_positions", "_offsets"
    )

    def __init__(self, field: str, docs, tfs, pos_rows: list):
        self.field = field
        self.docs = docs
        self.tfs = tfs
        self._pos_rows = pos_rows
        self._positions = None
        self._offsets = None

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            self._positions = _cat(
                [
                    encode._decode_blocks(r, False, np.int32)
                    for r in self._pos_rows
                ]
            )
        return self._positions

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            off = np.zeros(len(self.tfs) + 1, dtype=np.int64)
            np.cumsum(self.tfs, out=off[1:])
            self._offsets = off  # assigned whole: lists are shared
        return self._offsets

    def pos_of(self, i: int) -> np.ndarray:
        return self.positions[self.offsets[i] : self.offsets[i + 1]]


class Segment:
    """One memory-mapped segment: doc table + term dictionary + postings."""

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        self.name = os.path.basename(seg_dir)
        encode.check_codec(seg_dir)
        dm = read_parquet(os.path.join(seg_dir, "docmeta.parquet"))
        self.doc_ids = values(dm.column("doc_id"), np.int64)
        # the docmeta url column as one Arrow string array: local doc i
        # has url ``urls[i]``
        self.urls = _one_chunk(dm.column("url"))
        # int32 views; a searcher scores with its SegmentSet's float64 copy
        self.doclen = {
            f: values(dm.column(f"len_{f}"), np.int32) for f in FIELDS
        }
        self.n_docs = len(self.doc_ids)
        tbl = read_parquet(
            os.path.join(seg_dir, "postings.parquet"),
            ["field", "term", "df", "ctf", *_LIST_COLS],
        )
        self.terms = TermDict(tbl.column("field"), tbl.column("term"))
        self._df = values(tbl.column("df"), np.int64)
        self._ctf = values(tbl.column("ctf"), np.int64)
        # a posting-list decode slices these views: no per-row Arrow
        # scalar round trip
        self._views = {c: _row_views(tbl.column(c)) for c in _LIST_COLS}
        self._fwd = None

    def row_of(self, keys: Sequence[tuple[str, str]]) -> np.ndarray:
        """The postings row of each ``(field, term)`` key, -1 where the
        segment does not hold it."""
        return self.terms.rows(keys)

    def _row(self, col: str, row: int) -> np.ndarray:
        off, vals = self._views[col]
        return vals[off[row] : off[row + 1]]

    def _decode(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Postings row ``row``'s docs and tfs, as int64 arrays of their
        own."""
        docs = encode._decode_blocks(self._row("docs", row), True, np.int64)
        tfs = encode._decode_blocks(self._row("tfs", row), False, np.int64)
        return docs, tfs

    def postings(self, field: str, term: str) -> Optional[PostingList]:
        """One key's list over this segment's local docs, None where the
        segment does not hold it.  Uncached: a searcher reads its lists
        through its :class:`SegmentSet`."""
        row = self.terms.find(field, term)
        if row < 0:
            return None
        docs, tfs = self._decode(row)
        return PostingList(field, docs, tfs, [self._row("positions", row)])

    def local_stats(
        self, keys: Sequence[tuple[str, str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """This segment's (df, ctf) of each key as two int64 arrays, 0 for
        a key it does not hold."""
        rows = self.row_of(keys)
        held = rows >= 0
        df = np.zeros(len(rows), dtype=np.int64)
        ctf = np.zeros(len(rows), dtype=np.int64)
        df[held] = self._df[rows[held]]
        ctf[held] = self._ctf[rows[held]]
        return df, ctf

    def term_vectors(
        self, doc_ids: Sequence[int], field: Optional[str] = None
    ) -> list[tuple[int, str, list[str]]]:
        """Forward-index entries (index built with keep_forward) of the
        given docs, of one field or all: ``(doc_id, field, terms)`` in
        (doc_id, field) order, '' marking a stopword position.  A doc with
        no entry for a field (its field is empty) has no tuple for it."""
        if self._fwd is None:
            path = os.path.join(self.seg_dir, "fwd.parquet")
            tbl = read_parquet(path) if os.path.exists(path) else None
            if tbl is None or tbl.num_rows == 0:
                self._fwd = (np.empty(0, dtype=np.int64), None, None)
            else:
                # the table's rows in (doc_id, field) order, and their
                # doc_ids: a doc's entries are one run, found by bisection
                order = values(
                    pc.sort_indices(
                        tbl,
                        sort_keys=[
                            ("doc_id", "ascending"),
                            ("field", "ascending"),
                        ],
                    ),
                    np.int64,
                )
                docs = values(tbl.column("doc_id"), np.int64)[order]
                self._fwd = (docs, order, tbl)
        docs, order, tbl = self._fwd
        want = np.unique(np.asarray(doc_ids, dtype=np.int64))
        lo = np.searchsorted(docs, want, "left").tolist()
        hi = np.searchsorted(docs, want, "right").tolist()
        at = [i for a, b in zip(lo, hi) for i in range(a, b)]
        if not at:
            return []
        rows = arrow_indices(order[at])
        fields = tbl.column("field").take(rows).to_pylist()
        if field is not None:
            at = [i for i, f in zip(at, fields) if f == field]
            rows = arrow_indices(order[at])
            fields = [field] * len(at)
        terms = tbl.column("terms").take(rows).to_pylist()
        return list(zip(docs[at].tolist(), fields, terms))


_UNSEEN = object()  # a key the decode cache has no entry for


def _cat(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class SegmentSet:
    """A searcher's segments read as one index: row i of the set is
    segment s's local doc ``i - base[s]``, where segment s holds rows
    ``base[s]:base[s + 1]``.

    ``doc_ids``, ``urls`` and ``doclen`` are the segments' arrays
    concatenated in segment order; ``dead`` masks the tombstoned rows (None
    when none is).  ``postings`` is each holding segment's list with its
    docs offset by the segment's base, concatenated in segment order, and
    it owns the searcher's one decode cache (misses cached too), cleared
    wholesale once it holds ``DECODE_CACHE_LISTS`` keys.

    Deletes are result filters only: postings, df/ctf and doclen keep
    their pre-delete values until ``purge_deleted`` rewrites the segments
    (the Lucene liveDocs semantics the reference's Idx reader inherits:
    deleted docs vanish from results but still count in index statistics
    until merge)."""

    def __init__(
        self,
        segments: Sequence[Segment],
        tombstones: Optional[np.ndarray] = None,
    ):
        self.segments = list(segments)
        self.base = np.cumsum([0] + [s.n_docs for s in self.segments])
        self._bases = self.base[:-1].tolist()
        self.n_docs = int(self.base[-1])
        self.doc_ids = np.concatenate(
            [np.empty(0, dtype=np.int64)] + [s.doc_ids for s in self.segments]
        ).astype(np.int64, copy=False)
        self.urls = pa.chunked_array(
            [s.urls for s in self.segments], type=pa.string()
        ).combine_chunks()
        self.doclen = {
            f: np.concatenate(
                [np.empty(0)] + [s.doclen[f] for s in self.segments],
                dtype=np.float64,
            )
            for f in FIELDS
        }
        self.dead: Optional[np.ndarray] = None
        if tombstones is not None and len(tombstones):
            dead = np.isin(self.doc_ids, tombstones)
            self.dead = dead if dead.any() else None
        self._cache: dict[tuple[str, str], Optional[PostingList]] = {}

    def postings(self, field: str, term: str) -> Optional[PostingList]:
        key = (field, term)
        out = self._cache.get(key, _UNSEEN)
        if out is not _UNSEEN:
            return out
        docs, tfs, pos = [], [], []
        for seg, base in zip(self.segments, self._bases):
            row = seg.terms.find(field, term)
            if row >= 0:
                d, t = seg._decode(row)
                if base:
                    d += base
                docs.append(d)
                tfs.append(t)
                pos.append(seg._row("positions", row))
        out = PostingList(field, _cat(docs), _cat(tfs), pos) if docs else None
        if len(self._cache) >= DECODE_CACHE_LISTS:
            self._cache.clear()
        self._cache[key] = out
        return out


def load_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, STATS_FILE)) as f:
        return json.load(f)


TOMBSTONES_DIR = "tombstones"


def load_tombstones(index_dir: str) -> np.ndarray:
    """Union of all committed tombstone files as a sorted unique int64
    array (empty when no deletes).  Deletion lists are explicit inputs
    (takedowns, GDPR erasure) — bounded by the request volume, never
    corpus-sized; every searcher loads them once at startup."""
    import glob

    root = os.path.join(index_dir, TOMBSTONES_DIR)
    parts = [
        values(read_parquet(p, ["doc_id"]).column("doc_id"), np.int64)
        for p in sorted(glob.glob(os.path.join(root, "del-*.parquet")))
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts).astype(np.int64))


def list_segments(index_dir: str) -> list[str]:
    """Segment ids from the filesystem listing (stats.json carries only the
    COUNT — a segment list would be driver-sized at web scale).  An index
    dir belongs to one input corpus; a valid segment is one with a
    committed MANIFEST.json (the atomic-rename commit marker)."""
    seg_root = os.path.join(index_dir, SEGMENT_DIR)
    if not os.path.isdir(seg_root):
        return []
    return sorted(
        d
        for d in os.listdir(seg_root)
        if d.startswith("seg-")
        and os.path.exists(os.path.join(seg_root, d, "MANIFEST.json"))
    )


def segment_dirs(index_dir: str) -> list[str]:
    return [
        os.path.join(index_dir, SEGMENT_DIR, s)
        for s in list_segments(index_dir)
    ]


def load_termstats(index_dir: str) -> pa.Table:
    """Global ``(field, term, df, ctf)`` over the whole vocabulary, sorted
    by (field, term): the sum of every segment's own ``df``/``ctf``
    postings columns.  Each segment is the partial count; nothing else
    stores global df/ctf.  The read is vocabulary x segments, so serving
    at scale uses the query-time dfs phase instead (``query/engine.py``).
    Look keys up with a :class:`TermDict` over its ``field`` and ``term``
    columns."""
    cols = ["field", "term", "df", "ctf"]
    empty = pa.schema([POSTINGS_SCHEMA.field(c) for c in cols]).empty_table()
    sums = (
        pa.concat_tables(
            [empty]
            + [
                read_parquet(os.path.join(d, "postings.parquet"), cols)
                for d in segment_dirs(index_dir)
            ]
        )
        .group_by(["field", "term"])
        .aggregate([("df", "sum"), ("ctf", "sum")])
    )
    tbl = pa.table(
        [sums.column(c) for c in ("field", "term", "df_sum", "ctf_sum")],
        names=cols,
    )
    return tbl.take(
        pc.sort_indices(
            tbl, sort_keys=[("field", "ascending"), ("term", "ascending")]
        )
    )
