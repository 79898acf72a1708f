"""Segment reader: the query-time view of one SPIMI segment.

The Ray analog of the reference's materialized inverted lists
(``/root/reference/QryEval/QryIop.java:50-54``, ``InvList.java:109-154``): a
segment's postings parquet is memory-mapped once per actor (``__init__``-time,
never per batch) and individual (field,term) lists are decoded on demand into
numpy arrays, with an LRU-ish decode cache.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np
import pyarrow.parquet as pq

from ..analysis import FIELDS
from . import encode
from .build import SEGMENT_DIR, STATS_FILE


_LIST_COLS = ("docs", "tfs", "positions")
# decoded posting lists a segment keeps before its cache is cleared
DECODE_CACHE_LISTS = 4096


def _row_views(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, uint8 bytes) numpy views of a ``binary`` column: row i
    is ``bytes[offsets[i]:offsets[i + 1]]``."""
    arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    _, offsets, data = arr.buffers()
    off = np.frombuffer(offsets, dtype=np.int32)
    return (
        off[arr.offset : arr.offset + len(arr) + 1],
        np.frombuffer(data or b"", dtype=np.uint8),
    )


class PostingList:
    """Decoded postings of one (field, term) within a segment.

    ``docs`` are LOCAL doc indices (int64, ascending) into the segment's doc
    table; ``positions`` is a flat int32 array sliced by ``offsets``
    (``offsets[i]:offsets[i+1]`` = positions of docs[i]).
    """

    __slots__ = ("docs", "tfs", "positions", "offsets")

    def __init__(self, docs, tfs, positions):
        self.docs = docs
        self.tfs = tfs
        self.positions = positions
        self.offsets = np.concatenate(
            ([0], np.cumsum(tfs, dtype=np.int64))
        )

    def pos_of(self, i: int) -> np.ndarray:
        return self.positions[self.offsets[i] : self.offsets[i + 1]]


class Segment:
    """One memory-mapped segment: doc table + term dictionary + postings."""

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        self.name = os.path.basename(seg_dir)
        encode.check_codec(seg_dir)
        dm = pq.read_table(
            os.path.join(seg_dir, "docmeta.parquet"), memory_map=True
        )
        self.doc_ids = dm.column("doc_id").to_numpy()
        # the docmeta url column as one Arrow string array: local doc i
        # has url ``urls[i]``
        url = dm.column("url")
        self.urls = (
            url.chunk(0) if url.num_chunks == 1 else url.combine_chunks()
        )
        self.doclen = {
            f: dm.column(f"len_{f}").to_numpy().astype(np.float64)
            for f in FIELDS
        }
        self.n_docs = len(self.doc_ids)
        tbl = pq.read_table(
            os.path.join(seg_dir, "postings.parquet"),
            columns=["field", "term", "df", "ctf", *_LIST_COLS],
            memory_map=True,
        )
        # term dictionary: (field, term) -> row index
        fields = tbl.column("field").to_pylist()
        terms = tbl.column("term").to_pylist()
        self._dict = {
            (f, t): i for i, (f, t) in enumerate(zip(fields, terms))
        }
        self._df = tbl.column("df").to_numpy()
        self._ctf = tbl.column("ctf").to_numpy()
        # a posting-list decode slices these views: no per-row Arrow
        # scalar round trip
        self._views = {c: _row_views(tbl.column(c)) for c in _LIST_COLS}
        self._cache: dict[tuple[str, str], Optional[PostingList]] = {}
        self._fwd = None
        # tombstone mask over LOCAL doc indices (None = no deletes).
        # Deletes are result-filters only: postings, df/ctf and doclen
        # stats keep their pre-delete values until purge_deleted rewrites
        # the segment (the Lucene liveDocs semantics the reference's
        # Idx reader inherits: deleted docs vanish from results but
        # still count in index statistics until merge).
        self.dead: Optional[np.ndarray] = None

    def set_tombstones(self, tomb_ids: np.ndarray) -> None:
        """Install the index-level tombstone set (sorted global doc_ids);
        computes this segment's local dead mask once."""
        if tomb_ids is None or len(tomb_ids) == 0:
            self.dead = None
            return
        mask = np.isin(self.doc_ids, tomb_ids)
        self.dead = mask if mask.any() else None

    def _row(self, col: str, row: int) -> np.ndarray:
        off, vals = self._views[col]
        return vals[off[row] : off[row + 1]]

    def postings(self, field: str, term: str) -> Optional[PostingList]:
        key = (field, term)
        if key in self._cache:
            return self._cache[key]
        row = self._dict.get(key)
        out = None
        if row is not None:
            out = PostingList(
                encode.decode_doc_ids(self._row("docs", row)).astype(np.int64),
                encode.decode_values(self._row("tfs", row)).astype(np.int64),
                encode.decode_values(self._row("positions", row))
                .astype(np.int32),
            )
        if len(self._cache) >= DECODE_CACHE_LISTS:
            self._cache.clear()
        self._cache[key] = out
        return out

    def local_stats(self, field: str, term: str) -> tuple[int, int]:
        row = self._dict.get((field, term))
        if row is None:
            return 0, 0
        return int(self._df[row]), int(self._ctf[row])

    def forward(self):
        """Forward index (term vectors) if built with keep_forward: dict
        (doc_id, field) -> list[str] ('' = stopword position)."""
        if self._fwd is None:
            path = os.path.join(self.seg_dir, "fwd.parquet")
            self._fwd = {}
            if os.path.exists(path):
                t = pq.read_table(path, memory_map=True)
                for d, f, ts in zip(
                    t.column("doc_id").to_pylist(),
                    t.column("field").to_pylist(),
                    t.column("terms").to_pylist(),
                ):
                    self._fwd[(d, f)] = ts
        return self._fwd


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

    import pyarrow.parquet as pq

    root = os.path.join(index_dir, TOMBSTONES_DIR)
    parts = [
        pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy()
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


def load_termstats(
    index_dir: str,
) -> dict[tuple[str, str], tuple[int, int]]:
    """Global (field, term) -> (df, ctf) over the whole vocabulary: the
    sum of every segment's own ``df``/``ctf`` postings columns.  Each
    segment is the partial count; nothing else stores global df/ctf.  The
    read is vocabulary x segments, so serving at scale uses the query-time
    dfs phase instead (``query/engine.py``)."""
    import pyarrow.dataset as pads

    paths = [
        os.path.join(d, "postings.parquet") for d in segment_dirs(index_dir)
    ]
    if not paths:
        return {}
    tbl = (
        pads.dataset(paths, format="parquet")
        .to_table(columns=["field", "term", "df", "ctf"])
        .group_by(["field", "term"])
        .aggregate([("df", "sum"), ("ctf", "sum")])
    )
    col = {c: tbl.column(c).to_pylist() for c in tbl.column_names}
    return dict(
        zip(
            zip(col["field"], col["term"]),
            zip(col["df_sum"], col["ctf_sum"]),
        )
    )
