"""Segment merge / compaction.

The build wants SMALL segments (one per ``map_batches`` task — maximum
build parallelism, cheap retries); query serving wants BIG ones (~50k
docs: per-(query,segment) scatter overhead is ~1 ms, so a 7.5M-doc corpus
in 2k-doc segments pays 3750 scatter slots per query where 150 would do).
Compaction bridges the two: an offline Ray pass that k-way-merges
committed segments into ``target_docs``-sized ones, bit-identically —
merged indexes MUST return byte-equal query results (postings carry the
same docs/tfs/positions, global stats are untouched, and the tie-break
(score desc, url asc) never sees a difference).

The reference has no segmented index at all (it queries a prebuilt
monolithic Lucene index, ``/root/reference/QryEval/Idx.java:236-259``);
compaction is what makes the SPIMI build's small-segment write strategy
compatible with that serving profile.

Scale design:
- one Ray task per merge group (greedy-packed by manifest ``n_docs`` in
  deterministic name order) — compaction of an N-segment index is
  embarrassingly parallel, no shuffle at all;
- the driver holds only the segment LISTING (names + doc counts), never
  postings;
- each merged segment commits atomically (tmp dir + rename, same
  protocol as the build) and lists its sources in ``merged_from``;
  sources are deleted after commit.  A crash between commit and delete
  leaves both visible — :func:`repair_merges` (run automatically at the
  start of every compaction) deletes any source named by a committed
  merged segment, so the index is self-healing and a rerun resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..analysis import FIELDS
from . import encode
from .build import POSTINGS_SCHEMA, SEGMENT_DIR, STATS_FILE, _manifest_table
from .shard import _LIST_COLS, _row_views, list_segments


def _checked_segments(index_dir: str) -> list[str]:
    """Committed segments, each checked to hold ``bw`` postings — in the
    driver, so a foreign codec raises before any merge task starts."""
    segs = list_segments(index_dir)
    for name in segs:
        encode.check_codec(os.path.join(index_dir, SEGMENT_DIR, name))
    return segs


def merge_plan(index_dir: str, target_docs: int) -> list[list[str]]:
    """Greedy-pack committed segments (deterministic name order) into
    groups of ~``target_docs`` docs.  Only groups of >= 2 segments merge;
    singleton remainders stay as they are."""
    groups: list[list[str]] = []
    cur: list[str] = []
    cur_docs = 0
    for name in _checked_segments(index_dir):
        with open(
            os.path.join(index_dir, SEGMENT_DIR, name, "MANIFEST.json")
        ) as f:
            n = json.load(f)["n_docs"]
        if cur and cur_docs + n > target_docs:
            groups.append(cur)
            cur, cur_docs = [], 0
        cur.append(name)
        cur_docs += n
    if cur:
        groups.append(cur)
    return [g for g in groups if len(g) >= 2]


def repair_merges(index_dir: str) -> int:
    """Delete source segments named in any committed merged segment's
    ``merged_from`` (the crash window between commit and source delete).
    Idempotent; returns the number of removed source dirs."""
    seg_root = os.path.join(index_dir, SEGMENT_DIR)
    removed = 0
    for name in list_segments(index_dir):
        with open(os.path.join(seg_root, name, "MANIFEST.json")) as f:
            m = json.load(f)
        for src in m.get("merged_from", []):
            src_dir = os.path.join(seg_root, src)
            if os.path.exists(src_dir):
                shutil.rmtree(src_dir, ignore_errors=True)
                removed += 1
    return removed


def _permute_position_blocks(
    flat: np.ndarray, tfs: np.ndarray, order: np.ndarray
) -> np.ndarray:
    """Reorder per-posting position blocks (block i has length tfs[i])
    into ``order`` — vectorized repeat/cumsum, no per-posting loop."""
    starts = np.zeros(len(tfs) + 1, dtype=np.int64)
    np.cumsum(tfs, out=starts[1:])
    lens = tfs[order]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=flat.dtype)
    off = np.repeat(starts[order], lens)
    block0 = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=block0[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(block0, lens)
    return flat[off + within]


def merge_group(
    index_dir: str,
    seg_names: list[str],
    drop: Optional[np.ndarray] = None,
) -> pa.Table:
    """Merge one group of segments into a single new segment; returns a
    one-row manifest table.  Idempotent (skips if the merged segment is
    already committed); deletes sources after commit either way.

    ``drop`` (sorted global doc_ids) purges those docs during the merge
    — the segment name is then salted with the drop-set hash so a purge
    of a single segment never collides with its own source name."""
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
    seg_root = os.path.join(index_dir, SEGMENT_DIR)
    seg_names = sorted(seg_names)
    h = hashlib.blake2b(digest_size=8)
    for s in seg_names:
        h.update(s.encode())
        h.update(b"\x00")
    prefix = "m"
    if drop is not None and len(drop):
        prefix = "p"
        h.update(np.asarray(drop, dtype="<i8").tobytes())
    name = f"seg-{prefix}{h.hexdigest()}"
    seg_dir = os.path.join(seg_root, name)
    manifest_path = os.path.join(seg_dir, "MANIFEST.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        m["resumed"] = True
    else:
        m = _merge_group_inner(seg_root, seg_names, seg_dir, name, drop)
    for src in seg_names:  # post-commit cleanup (repair_merges covers crashes)
        shutil.rmtree(os.path.join(seg_root, src), ignore_errors=True)
    return _manifest_table(m)


def _merge_group_inner(
    seg_root: str,
    seg_names: list[str],
    seg_dir: str,
    name: str,
    drop: Optional[np.ndarray] = None,
) -> dict:
    import time

    t0 = time.perf_counter()
    dms = [
        pq.read_table(os.path.join(seg_root, s, "docmeta.parquet"))
        for s in seg_names
    ]
    tbls = [
        pq.read_table(
            os.path.join(seg_root, s, "postings.parquet"),
            columns=["field", "term", "docs", "tfs", "positions"],
        )
        for s in seg_names
    ]

    # purge support: per-source alive mask over LOCAL doc indices; dead
    # docs vanish from docmeta, postings, forward index and manifest
    # counts — post-purge statistics are those of a fresh build over the
    # surviving corpus (pinned in tests)
    if drop is not None and len(drop):
        alive = [
            ~np.isin(dm.column("doc_id").to_numpy(), drop) for dm in dms
        ]
    else:
        alive = [None] * len(dms)
    dms_f = [
        dm.filter(pa.array(a)) if a is not None else dm
        for dm, a in zip(dms, alive)
    ]
    merged_dm = pa.concat_tables(dms_f)
    if merged_dm.num_rows == 0:
        # every doc of every source is tombstoned: a fresh build over the
        # survivors would not contain this segment at all, so commit
        # NOTHING — merge_group still deletes the sources, and n_segments
        # shrinks exactly as a fresh build would have it
        return {
            "segment": name,
            "n_docs": 0,
            "n_terms": 0,
            "n_postings": 0,
            "doc_count": {f: 0 for f in FIELDS},
            "sum_field_len": {f: 0 for f in FIELDS},
            "codec": encode.CODEC,
            "merged_from": seg_names,
            "wall_s": round(time.perf_counter() - t0, 4),
            "bytes": 0,
            "resumed": False,
            "dropped_empty": True,
        }
    merged_dm = merged_dm.take(pc.sort_indices(merged_dm.column("doc_id")))
    new_ids = merged_dm.column("doc_id").to_numpy()
    # per-source local idx -> merged local idx (doc_ids globally unique;
    # entries of dead local ids are garbage but postings filter on the
    # alive mask before mapping)
    maps = [
        np.searchsorted(new_ids, dm.column("doc_id").to_numpy()) for dm in dms
    ]
    doclen = {
        f: merged_dm.column(f"len_{f}").to_numpy().astype(np.int64)
        for f in FIELDS
    }

    # row inventory across sources, grouped by (field, term) in the frozen
    # lexicographic layout order (each source is already sorted, so a
    # stable sort here is a k-way merge)
    inv = pd.concat(
        [
            pd.DataFrame(
                {
                    "field": t.column("field").to_pylist(),
                    "term": t.column("term").to_pylist(),
                    "seg": np.full(t.num_rows, s, dtype=np.int32),
                    "row": np.arange(t.num_rows, dtype=np.int64),
                }
            )
            for s, t in enumerate(tbls)
        ],
        ignore_index=True,
    ).sort_values(["field", "term", "seg"], kind="mergesort")

    fld = inv["field"].to_numpy()
    trm = inv["term"].to_numpy()
    first = np.ones(len(inv), dtype=bool)
    if len(inv) > 1:
        first[1:] = (fld[1:] != fld[:-1]) | (trm[1:] != trm[:-1])
    bounds = np.append(np.nonzero(first)[0], len(inv))
    segs_np = inv["seg"].to_numpy()
    rows_np = inv["row"].to_numpy()

    # merged lists, concatenated in layout order, for one encode call
    # per column (encode.encode_postings owns the column layout)
    post = {k: [] for k in ("field", "term", "docs", "tfs", "positions")}
    starts = [0]
    # each source's encoded rows as (offsets, bytes) views, decoded as the
    # segment reader decodes them
    views = [{c: _row_views(t.column(c)) for c in _LIST_COLS} for t in tbls]

    def row(s: int, col: str, r: int) -> np.ndarray:
        off, data = views[s][col]
        return data[off[r] : off[r + 1]]

    for gi in range(len(bounds) - 1):
        a, b = bounds[gi], bounds[gi + 1]
        fname = fld[a]
        parts_d, parts_t, parts_p = [], [], []
        for j in range(a, b):
            s, r = int(segs_np[j]), int(rows_np[j])
            d = encode._decode_blocks(row(s, "docs", r), True, np.int64)
            t_v = encode._decode_blocks(row(s, "tfs", r), False, np.int64)
            p_v = encode._decode_blocks(row(s, "positions", r), False, np.int32)
            if alive[s] is not None:
                m = alive[s][d]
                if not m.all():
                    p_v = p_v[np.repeat(m, t_v)]
                    d, t_v = d[m], t_v[m]
            parts_d.append(maps[s][d])
            parts_t.append(t_v)
            parts_p.append(p_v)
        docs = np.concatenate(parts_d).astype(np.int64)
        if len(docs) == 0:
            continue  # every posting of this term was tombstoned
        tfs = np.concatenate(parts_t)
        order = np.argsort(docs, kind="stable")
        post["field"].append(fname)
        post["term"].append(trm[a])
        post["docs"].append(docs[order])
        post["tfs"].append(tfs[order])
        post["positions"].append(
            _permute_position_blocks(np.concatenate(parts_p), tfs, order)
        )
        starts.append(starts[-1] + len(docs))
    n_postings = starts[-1]

    def cat(key):
        return (
            np.concatenate(post[key])
            if post[key]
            else np.empty(0, dtype=np.int64)
        )

    postings_tbl = pa.table(
        {
            "field": pa.array(post["field"], pa.string()),
            "term": pa.array(post["term"], pa.string()),
            **encode.encode_postings(
                docs=cat("docs"),
                tfs=cat("tfs"),
                positions=cat("positions"),
                starts=np.asarray(starts, dtype=np.int64),
            ),
        },
        schema=POSTINGS_SCHEMA,
    )

    tmp_dir = seg_dir + f".tmp-{os.getpid()}"
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(postings_tbl, os.path.join(tmp_dir, "postings.parquet"))
    pq.write_table(merged_dm, os.path.join(tmp_dir, "docmeta.parquet"))
    fwd_paths = [os.path.join(seg_root, s, "fwd.parquet") for s in seg_names]
    if all(os.path.exists(p) for p in fwd_paths):
        fwd = pa.concat_tables(pq.read_table(p) for p in fwd_paths)
        if drop is not None and len(drop):
            keep = ~np.isin(fwd.column("doc_id").to_numpy(), drop)
            fwd = fwd.filter(pa.array(keep))
        fwd = fwd.take(
            pc.sort_indices(
                fwd, sort_keys=[("doc_id", "ascending"), ("field", "ascending")]
            )
        )
        pq.write_table(fwd, os.path.join(tmp_dir, "fwd.parquet"))

    manifest = {
        "segment": name,
        "n_docs": merged_dm.num_rows,
        "n_terms": postings_tbl.num_rows,
        "n_postings": n_postings,
        "doc_count": {f: int((doclen[f] > 0).sum()) for f in FIELDS},
        "sum_field_len": {f: int(doclen[f].sum()) for f in FIELDS},
        "input_hash": name[5:],
        "codec": encode.CODEC,
        "merged_from": seg_names,
        "wall_s": round(time.perf_counter() - t0, 4),
        "bytes": sum(
            os.path.getsize(os.path.join(tmp_dir, p))
            for p in os.listdir(tmp_dir)
        ),
        "resumed": False,
    }
    with open(os.path.join(tmp_dir, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f)
    try:
        os.rename(tmp_dir, seg_dir)
    except OSError:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        # Only a concurrent commit of the SAME merged segment makes the
        # rename failure benign.  Any other cause (EACCES, EXDEV, partial
        # target) means the merged segment does not exist — re-raise so
        # merge_group does not delete the sources (silent postings loss).
        if not os.path.exists(os.path.join(seg_dir, "MANIFEST.json")):
            raise
    return manifest


def merge_segments(index_dir: str, target_docs: int = 50_000) -> dict:
    """Compact an index's committed segments toward ``target_docs`` docs
    per segment — one Ray task per merge group, no shuffle.  Returns the
    updated stats dict (only ``n_segments`` changes: postings, global
    stats and query results are bit-identical by construction)."""
    import ray.data

    repair_merges(index_dir)
    groups = merge_plan(index_dir, target_docs)
    if groups:
        payload = [{"gi": i} for i in range(len(groups))]

        def run(batch: pd.DataFrame) -> pd.DataFrame:
            frames = []
            for gi in batch["gi"]:
                t = merge_group(index_dir, groups[int(gi)])
                frames.append(t.to_pandas())
            return pd.concat(frames, ignore_index=True)

        ray.data.from_items(
            payload, override_num_blocks=len(payload)
        ).map_batches(run, batch_format="pandas", batch_size=1).materialize()

    with open(os.path.join(index_dir, STATS_FILE)) as f:
        stats = json.load(f)
    stats["n_segments"] = len(list_segments(index_dir))
    with open(os.path.join(index_dir, STATS_FILE), "w") as f:
        json.dump(stats, f, indent=1)
    return stats


def delete_docs(index_dir: str, doc_ids) -> int:
    """Tombstone the given global doc_ids (takedown / GDPR-erasure
    lifecycle).  Deletes are RESULT FILTERS until :func:`purge_deleted`
    rewrites the segments: query results exclude the docs immediately,
    while df/ctf/doclen statistics keep their pre-delete values — the
    Lucene liveDocs semantics the reference's Idx reader inherits
    (numDocs vs maxDoc, ``/root/reference/QryEval/Idx.java:60-63``).

    Atomic + idempotent: the tombstone file name is a content hash of
    the sorted id set, written tmp-then-rename; re-deleting the same set
    is a no-op.  Returns the number of ids recorded."""
    from .shard import TOMBSTONES_DIR

    ids = np.unique(np.asarray(list(doc_ids), dtype=np.int64))
    if len(ids) == 0:
        return 0
    root = os.path.join(index_dir, TOMBSTONES_DIR)
    os.makedirs(root, exist_ok=True)
    h = hashlib.blake2b(ids.tobytes(), digest_size=8).hexdigest()
    final = os.path.join(root, f"del-{h}.parquet")
    if not os.path.exists(final):
        tmp = final + f".tmp-{os.getpid()}"
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64())}), tmp)
        try:
            os.rename(tmp, final)
        except OSError:
            os.unlink(tmp)
            if not os.path.exists(final):
                raise
    return int(len(ids))


def drop_ids_from_segments(index_dir: str, ids: np.ndarray) -> None:
    """Rewrite every segment holding any of ``ids`` without those docs —
    one Ray task per segment; dead-doc detection runs INSIDE the task (a
    serial driver scan of every docmeta would be a corpus-sized blocking
    pass) and untouched segments are left alone.  Shared by
    :func:`purge_deleted` and the update path's delete-then-re-add
    handling.  Does NOT touch stats/tombstones — callers own
    those."""
    import ray
    import ray.data

    segs = _checked_segments(index_dir)
    if not segs or len(ids) == 0:
        return
    seg_root = os.path.join(index_dir, SEGMENT_DIR)
    iref = ray.put(np.asarray(ids, dtype=np.int64))
    payload = [{"si": i} for i in range(len(segs))]

    def run(batch: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(iref)
        frames = []
        for si in batch["si"]:
            s = segs[int(si)]
            seg_ids = (
                pq.read_table(
                    os.path.join(seg_root, s, "docmeta.parquet"),
                    columns=["doc_id"],
                )
                .column("doc_id")
                .to_numpy()
            )
            if np.isin(seg_ids, drop).any():
                frames.append(
                    merge_group(index_dir, [s], drop=drop).to_pandas()
                )
        if not frames:
            # manifest-shaped empty block (mixed schemas break the
            # downstream concat)
            empty = {
                "segment": pd.array([], dtype="object"),
                "n_docs": pd.array([], dtype="int64"),
                "n_terms": pd.array([], dtype="int64"),
                "n_postings": pd.array([], dtype="int64"),
                "wall_s": pd.array([], dtype="float64"),
                "bytes": pd.array([], dtype="int64"),
                "resumed": pd.array([], dtype="int64"),
            }
            for f in FIELDS:
                empty[f"doc_count_{f}"] = pd.array([], dtype="int64")
                empty[f"sum_len_{f}"] = pd.array([], dtype="int64")
            return pd.DataFrame(empty)
        return pd.concat(frames, ignore_index=True)

    ray.data.from_items(
        payload, override_num_blocks=len(payload)
    ).map_batches(run, batch_format="pandas", batch_size=1).materialize()


def purge_deleted(index_dir: str) -> dict:
    """Physically remove tombstoned docs: every segment holding a dead
    doc is rewritten without it (one Ray task per segment — the
    compaction machinery with a drop set), global stats are recomputed
    from the surviving manifests, and the tombstones clear.  Post-purge
    the index is bit-identical to a fresh build over the surviving corpus
    (pinned in tests).  Returns the updated stats dict."""
    from .build import recompute_stats
    from .shard import TOMBSTONES_DIR, load_tombstones

    tomb = load_tombstones(index_dir)
    stats_path = os.path.join(index_dir, STATS_FILE)
    if len(tomb) == 0:
        with open(stats_path) as f:
            return json.load(f)
    repair_merges(index_dir)
    drop_ids_from_segments(index_dir, tomb)
    stats = recompute_stats(index_dir)
    shutil.rmtree(os.path.join(index_dir, TOMBSTONES_DIR), ignore_errors=True)
    return stats


def remove_tombstones(index_dir: str, doc_ids: np.ndarray) -> int:
    """Un-delete: drop the given ids from the tombstone set (the
    delete-then-re-add document-update idiom — a re-indexed doc must
    serve again, as Lucene's liveDocs would).  Protocol: write the
    consolidated survivor file FIRST, then unlink the old files; a crash
    between the two unions old and new (the re-added ids stay deleted —
    a semantics regression, never corruption) and the next update run
    re-clears it.  Returns the number of ids removed."""
    from .shard import TOMBSTONES_DIR, load_tombstones

    ids = np.asarray(list(doc_ids), dtype=np.int64)
    tomb = load_tombstones(index_dir)
    if len(tomb) == 0 or len(ids) == 0:
        return 0
    keep = tomb[~np.isin(tomb, ids)]
    removed = len(tomb) - len(keep)
    if removed == 0:
        return 0
    import glob

    root = os.path.join(index_dir, TOMBSTONES_DIR)
    old = sorted(glob.glob(os.path.join(root, "del-*.parquet")))
    kept_name = None
    if len(keep):
        h = hashlib.blake2b(
            np.ascontiguousarray(keep).tobytes(), digest_size=8
        ).hexdigest()
        kept_name = os.path.join(root, f"del-{h}.parquet")
        tmp = kept_name + f".tmp-{os.getpid()}"
        pq.write_table(
            pa.table({"doc_id": pa.array(keep, pa.int64())}), tmp
        )
        try:
            os.rename(tmp, kept_name)
        except OSError:
            os.unlink(tmp)
            if not os.path.exists(kept_name):
                raise
    for p in old:
        if p != kept_name:
            try:
                os.unlink(p)
            except OSError:
                pass
    return int(removed)
