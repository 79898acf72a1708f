"""Distributed SPIMI index build on Ray Data.

Replaces the reference's *pre-built Lucene index* (``indexPath=INPUT_DIR/
index-cw09``, ``/root/reference/QryEval/Idx.java:236-259``) with a
from-scratch, Ray-Data-native build that reproduces the exact `Idx`
statistics contract (SURVEY.md §1.1/§4.3): N, per-field docCount /
sumOfFieldLengths, per-(field,term) df/ctf, per-(doc,field) length incl.
stopword positions, url<->docid maps, positional postings.

Architecture — document-sharded SPIMI (scale rationale):

- Each ``map_batches`` task tokenizes ONE batch of pages and writes ONE
  self-contained index *segment* (postings + docmeta + optional forward
  index + manifest).  Because every posting of a document is produced by the
  task that read it, **posting construction needs no corpus-wide shuffle at
  all** — the classic SPIMI insight.  At 10^12 docs this is the difference
  between a node-local write and an all-to-all exchange of the entire corpus.
- The only wide operation is optional url-dedup (hash shuffle keyed on
  ``url`` — unavoidable, done on pruned columns with an in-batch partial
  dedup first).  Global term statistics need none: every segment's
  ``postings.parquet`` carries its own (field, term, df, ctf) columns, and
  global df/ctf are their sum, taken when they are read
  (``shard.load_termstats``) or by the query-time dfs phase.  A build or
  an append therefore writes its segments and ``stats.json``, nothing
  else: an append writes O(batch) bytes.
- Segments are written atomically (tmp dir + rename) with a per-segment
  ``MANIFEST.json`` carrying lineage (content hash of member urls), row
  counts, bytes and wall time; a rerun that produces an already-manifested
  segment skips the write => checkpointed resumability.

Query-time doc-sharding means BM25/Indri/positional evaluation is local to a
segment given broadcast global stats; a query scatters to segment-holding
actors and gathers per-shard top-k (SURVEY.md §3.4).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from functools import partial
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..analysis import (
    AnalyzerConfig,
    DEFAULT_ANALYZER,
    FIELDS,
    derive_title,
    tokenize_positions,
    url_field_text,
)
from . import encode

STATS_FILE = "stats.json"
SEGMENT_DIR = "segments"

POSTINGS_SCHEMA = pa.schema(
    [
        ("field", pa.string()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("ctf", pa.int64()),
        ("docs", pa.binary()),  # encoded local doc indices (delta blocks)
        ("tfs", pa.binary()),  # encoded tfs (absolute blocks)
        ("positions", pa.binary()),  # encoded flat positions (absolute)
    ]
)


def doc_id_from_url(url: str) -> int:
    """Deterministic 63-bit docid for inputs without one: no global sort or
    prefix-sum pass needed at 10^12 docs (SURVEY §7.5: driver work must be
    O(queries+vocab), never O(docs))."""
    h = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "big") & 0x7FFFFFFFFFFFFFFF


def doc_fields(url: str, text: str) -> dict[str, str]:
    """Frozen field derivation (SURVEY.md §1.5): body = extracted text
    verbatim (byte-identical per-url invariant), title = first line,
    url field = the url itself (tokenized on non-alphanumerics)."""
    return {
        "body": text or "",
        "title": derive_title(text or ""),
        "url": url_field_text(url),
    }


def write_segment(
    batch: pa.Table,
    out_dir: str,
    config: AnalyzerConfig = DEFAULT_ANALYZER,
    keep_forward: bool = False,
) -> pa.Table:
    """Tokenize one batch of pages and write one SPIMI segment.

    Returns a one-row manifest table (the build's control-plane output; tiny).
    Idempotent: the segment id is a content hash of member urls, and an
    existing valid segment is not rewritten (resume path).
    """
    import gc

    t0 = time.perf_counter()
    # the tokenize loop allocates millions of short-lived objects; cyclic GC
    # scans during it are pure overhead (no cycles created here)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _write_segment_inner(batch, out_dir, config, keep_forward, t0)
    finally:
        if gc_was_enabled:
            gc.enable()


def _write_segment_inner(batch, out_dir, config, keep_forward, t0):
    import pyarrow.compute as pc

    from ..analysis import tokenize_arrow_batch

    # one Arrow kernel thread per Ray worker: the default pool spans every
    # core, so 32 workers x 32 arrow threads oversubscribe the node and the
    # vectorized build stops scaling past ~8 workers
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)

    n = batch.num_rows
    if "doc_id" not in batch.column_names:
        ids = pa.array(
            [doc_id_from_url(u) for u in batch.column("url").to_pylist()],
            pa.int64(),
        )
        batch = batch.append_column("doc_id", ids)
    # docid-ascending row order => postings docid-ascending for free
    batch = batch.take(pc.sort_indices(batch.column("doc_id")))
    doc_ids = batch.column("doc_id").to_numpy()
    urls = batch.column("url").to_pylist()

    # deterministic segment id from member urls (lineage + resume key)
    h = hashlib.blake2b(digest_size=8)
    for u in sorted(urls):
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
    seg_id = h.hexdigest()
    seg_dir = os.path.join(out_dir, SEGMENT_DIR, f"seg-{seg_id}")
    manifest_path = os.path.join(seg_dir, "MANIFEST.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            m = json.load(f)
        m["resumed"] = True
        return _manifest_table(m)

    # field text columns (frozen derivation, SURVEY.md §1.5)
    text_col = pc.fill_null(batch.column("text"), "")
    field_cols = {
        "body": text_col,
        "title": pc.list_element(
            pc.split_pattern(text_col, pattern="\n", max_splits=1), 0
        ),
        "url": batch.column("url"),
    }
    for extra in ("keywords", "inlink"):
        if extra in batch.column_names:
            field_cols[extra] = pc.fill_null(batch.column(extra), "")

    doclens = {f: np.zeros(n, dtype=np.int64) for f in FIELDS}
    # every field's posting lists, concatenated in (field, term) order:
    # per list its field and term, per posting its doc and tf, the flat
    # positions, and each list's first posting
    post = {
        k: [] for k in ("field", "term", "docs", "tfs", "positions", "starts")
    }
    n_postings = 0
    fwd_chunks = []  # (field, offsets, flat term strings) when keep_forward

    for fname in sorted(field_cols):  # deterministic (field, term) order
        parent, pos, sid, dl, vocab = tokenize_arrow_batch(
            field_cols[fname], config
        )
        doclens[fname] = dl
        if len(sid) == 0:
            continue
        # group the token stream into postings: sort by (lexicographic
        # term rank, doc, pos), so the lists come out in term order
        # (the deterministic layout) with no sort over terms in Python
        vocab_np = np.asarray(vocab, dtype=object)
        by_rank = np.argsort(np.asarray(vocab))
        rank = np.empty(len(vocab), dtype=np.int64)
        rank[by_rank] = np.arange(len(vocab))
        r_arr = rank[sid]
        order = np.lexsort((pos, parent, r_arr))
        r_arr, d_arr, p_arr = r_arr[order], parent[order], pos[order]
        first = np.ones(len(r_arr), dtype=bool)
        first[1:] = (r_arr[1:] != r_arr[:-1]) | (d_arr[1:] != d_arr[:-1])
        run_start = np.nonzero(first)[0]
        tf_runs = np.diff(np.append(run_start, len(r_arr)))
        run_docs = d_arr[run_start]
        run_ranks = r_arr[run_start]
        tfirst = np.ones(len(run_ranks), dtype=bool)
        tfirst[1:] = run_ranks[1:] != run_ranks[:-1]
        term_start = np.nonzero(tfirst)[0]
        post["field"].append(np.full(len(term_start), fname, dtype=object))
        post["term"].append(vocab_np[by_rank[run_ranks[term_start]]])
        post["docs"].append(run_docs)
        post["tfs"].append(tf_runs)
        post["positions"].append(p_arr)
        post["starts"].append(term_start + n_postings)
        n_postings += len(run_docs)
        if keep_forward:
            # reconstruct per-doc token lists ('' marks stopword slots)
            total = int(dl.sum())
            starts = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(dl, out=starts[1:])
            flat_full = np.full(total, "", dtype=object)
            flat_full[starts[parent] + pos] = vocab_np[sid]
            fwd_chunks.append((fname, starts, flat_full))

    # every field's lists in one encode call per column
    post["starts"].append(np.array([n_postings], dtype=np.int64))

    def cat(key, dtype=np.int64):
        return np.concatenate(post[key]) if post[key] else np.empty(0, dtype)

    postings_tbl = pa.table(
        {
            "field": pa.array(cat("field", object), pa.string()),
            "term": pa.array(cat("term", object), pa.string()),
            **encode.encode_postings(
                docs=cat("docs"),
                tfs=cat("tfs"),
                positions=cat("positions"),
                starts=cat("starts"),
            ),
        },
        schema=POSTINGS_SCHEMA,
    )

    docmeta_cols = {
        "doc_id": pa.array(doc_ids, pa.int64()),
        "url": pa.array(urls, pa.string()),
    }
    for f in FIELDS:
        docmeta_cols[f"len_{f}"] = pa.array(
            doclens[f].astype(np.int32), pa.int32()
        )
    docmeta_tbl = pa.table(docmeta_cols)

    # --- atomic write: tmp dir + rename ---
    tmp_dir = seg_dir + f".tmp-{os.getpid()}"
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(postings_tbl, os.path.join(tmp_dir, "postings.parquet"))
    pq.write_table(docmeta_tbl, os.path.join(tmp_dir, "docmeta.parquet"))
    if keep_forward and fwd_chunks:
        fd_doc, fd_field, fd_terms = [], [], []
        for fname, starts, flat_full in fwd_chunks:
            for i in range(n):
                if starts[i + 1] > starts[i]:
                    fd_doc.append(int(doc_ids[i]))
                    fd_field.append(fname)
                    fd_terms.append(
                        flat_full[starts[i] : starts[i + 1]].tolist()
                    )
        fwd_tbl = pa.table(
            {
                "doc_id": pa.array(fd_doc, pa.int64()),
                "field": pa.array(fd_field, pa.string()),
                "terms": pa.array(fd_terms, pa.list_(pa.string())),
            }
        )
        pq.write_table(fwd_tbl, os.path.join(tmp_dir, "fwd.parquet"))

    manifest = {
        "segment": f"seg-{seg_id}",
        "n_docs": n,
        "n_terms": postings_tbl.num_rows,
        "n_postings": n_postings,
        "doc_count": {f: int((doclens[f] > 0).sum()) for f in FIELDS},
        "sum_field_len": {f: int(doclens[f].sum()) for f in FIELDS},
        "input_hash": seg_id,
        "codec": encode.CODEC,
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
        # another (retried) task won the rename race: theirs is identical
        import shutil

        shutil.rmtree(tmp_dir, ignore_errors=True)
    return _manifest_table(manifest)


def _manifest_table(m: dict) -> pa.Table:
    row = {
        "segment": [m["segment"]],
        "n_docs": [m["n_docs"]],
        "n_terms": [m["n_terms"]],
        "n_postings": [m["n_postings"]],
        "wall_s": [m.get("wall_s", 0.0)],
        "bytes": [m.get("bytes", 0)],
        # int64 so the distributed stats sum can count resumed segments
        "resumed": [int(bool(m.get("resumed", False)))],
    }
    for f in FIELDS:
        row[f"doc_count_{f}"] = [m["doc_count"][f]]
        row[f"sum_len_{f}"] = [m["sum_field_len"][f]]
    return pa.table(row)


def _batch_dedup(batch: pa.Table) -> pa.Table:
    """In-batch partial dedup by url (combiner before the url shuffle)."""
    df = batch.to_pandas()
    df = df.sort_values(
        ["url", "warc_ts"] if "warc_ts" in df.columns else ["url"],
        kind="mergesort",
    ).drop_duplicates("url", keep="first")
    return pa.Table.from_pandas(df, preserve_index=False)


def _bucket_keep_first(group):
    sort_cols = ["url"] + (["warc_ts"] if "warc_ts" in group.columns else [])
    return group.sort_values(sort_cols, kind="mergesort").drop_duplicates(
        "url", keep="first"
    )


def dedup_pages(ds):
    """Exact dedup of pages by url, keep-first by (warc_ts) — required by
    Common-Crawl-style recrawls (SURVEY.md §2.10).

    One url-hash exchange (all recrawls of a url meet in one reduce
    partition) after an in-batch partial dedup; each partition's keep-first
    runs as one vectorized pandas pass."""
    from ..stages.exchange import bucket_aggregate

    return bucket_aggregate(
        ds,
        _bucket_keep_first,
        key="url",
        partial=_batch_dedup,
        batch_format="pyarrow",
    )


def build_index(
    pages,
    out_dir: str,
    config: AnalyzerConfig = DEFAULT_ANALYZER,
    docs_per_segment: int = 2000,
    dedup: bool = False,
    keep_forward: bool = False,
    termstats: bool = True,
) -> dict:
    """Build a full index from a pages Dataset (or parquet path).

    Returns the global stats dict (also persisted to ``stats.json``).
    Pass ``dedup=True`` for inputs that may contain url recrawls.
    Postings are written in the one ``bw`` layout (``index/encode.py``);
    each segment's MANIFEST.json tags it ``"codec": "bw"``.

    ``termstats`` is accepted and ignored: global df/ctf are the sum of
    the segments' own columns, so no merged table is written.
    """
    import ray.data

    if isinstance(pages, str):
        import pyarrow.dataset as pads

        # prune at the read: html (potentially MBs/row) is NEVER read —
        # extraction is identity on the `text` column (SURVEY.md §1.5)
        avail = pads.dataset(pages).schema.names
        cols = [
            c
            for c in ("url", "warc_ts", "text", "doc_id", "keywords", "inlink")
            if c in avail
        ]
        pages = ray.data.read_parquet(pages, columns=cols)

    if dedup:
        pages = dedup_pages(pages)

    os.makedirs(os.path.join(out_dir, SEGMENT_DIR), exist_ok=True)
    fn = partial(
        write_segment,
        out_dir=out_dir,
        config=config,
        keep_forward=keep_forward,
    )
    # One manifest row per segment.  The driver never holds per-segment
    # rows (at 10^12 docs / small segments that is 10^8+ rows): sums come
    # from a DISTRIBUTED aggregate, the per-segment lineage goes to a
    # manifest parquet DIRECTORY, and the segment list is the filesystem
    # listing (an index dir belongs to one input corpus — the resume
    # contract).  materialize() keeps the rows in the object store so the
    # segment writes run exactly once.
    manifests = pages.map_batches(
        fn, batch_format="pyarrow", batch_size=docs_per_segment
    ).materialize()

    # per-segment lineage lives in each segment's MANIFEST.json (written by
    # write_segment, atomic-rename committed) — no separate manifest table
    n_segments = manifests.count()
    sum_cols = (
        ["n_docs", "n_postings", "wall_s", "resumed"]
        + [f"doc_count_{f}" for f in FIELDS]
        + [f"sum_len_{f}" for f in FIELDS]
    )
    sums = manifests.sum(sum_cols) if n_segments else {}

    def _s(col):
        return sums.get(f"sum({col})", 0) or 0

    stats = {
        "n_docs": int(_s("n_docs")),
        "n_segments_resumed": int(_s("resumed")),
        "doc_count": {f: int(_s(f"doc_count_{f}")) for f in FIELDS},
        "sum_field_len": {f: int(_s(f"sum_len_{f}")) for f in FIELDS},
        "n_segments": int(n_segments),
        "analyzer": {
            "lowercase": config.lowercase,
            "stop": config.stop,
            "stem": config.stem,
        },
        "n_postings": int(_s("n_postings")),
        "build_wall_s_sum": float(_s("wall_s")),
    }
    with open(os.path.join(out_dir, STATS_FILE), "w") as f:
        json.dump(stats, f, indent=1)
    return stats


def recompute_stats(out_dir: str) -> dict:
    """Recompute global stats from EVERY committed segment's MANIFEST.json
    (distributed map over the segment listing + one small sum — the driver
    never holds per-segment rows).  The incremental-update path: after new
    segments land, global N / docCount / sumFieldLen must cover old + new."""
    import ray.data

    from .shard import list_segments

    segs = list_segments(out_dir)

    def read_manifests(batch: pa.Table) -> pa.Table:
        rows = []
        for name in batch.column("seg").to_pylist():
            with open(
                os.path.join(out_dir, SEGMENT_DIR, name, "MANIFEST.json")
            ) as f:
                rows.append(json.load(f))
        out = {
            "n_docs": [m["n_docs"] for m in rows],
            "n_postings": [m["n_postings"] for m in rows],
            "wall_s": [m.get("wall_s", 0.0) for m in rows],
        }
        for fld in FIELDS:
            out[f"doc_count_{fld}"] = [m["doc_count"][fld] for m in rows]
            out[f"sum_len_{fld}"] = [m["sum_field_len"][fld] for m in rows]
        return pa.table(out)

    sum_cols = (
        ["n_docs", "n_postings", "wall_s"]
        + [f"doc_count_{f}" for f in FIELDS]
        + [f"sum_len_{f}" for f in FIELDS]
    )
    sums = (
        ray.data.from_items([{"seg": s} for s in segs])
        .map_batches(read_manifests, batch_format="pyarrow")
        .sum(sum_cols)
        if segs
        else {}
    )

    def _s(col):
        return (sums or {}).get(f"sum({col})", 0) or 0

    with open(os.path.join(out_dir, STATS_FILE)) as f:
        stats = json.load(f)
    stats.update(
        {
            "n_docs": int(_s("n_docs")),
            "doc_count": {f: int(_s(f"doc_count_{f}")) for f in FIELDS},
            "sum_field_len": {f: int(_s(f"sum_len_{f}")) for f in FIELDS},
            "n_segments": len(segs),
            "n_postings": int(_s("n_postings")),
            "build_wall_s_sum": float(_s("wall_s")),
        }
    )
    with open(os.path.join(out_dir, STATS_FILE), "w") as f:
        json.dump(stats, f, indent=1)
    return stats


def update_index(
    pages,
    out_dir: str,
    config: AnalyzerConfig = DEFAULT_ANALYZER,
    docs_per_segment: int = 2000,
    dedup: bool = False,
    keep_forward: bool = False,
) -> dict:
    """Incrementally add pages to an EXISTING index: new docs land as new
    segments (the SPIMI layout is append-only — nothing existing is
    rewritten), then global stats are recomputed over all manifests.
    Nothing else is written (global df/ctf are summed from the segments
    when read), so an append writes O(batch) bytes.  Re-adding a batch
    whose segment already exists is a no-op (content-hash resume), so
    updates are idempotent.  The analyzer config must match the original
    build (stats.json records it; a mismatch raises)."""
    with open(os.path.join(out_dir, STATS_FILE)) as f:
        prev = json.load(f)
    want = {
        "lowercase": config.lowercase,
        "stop": config.stop,
        "stem": config.stem,
    }
    if prev.get("analyzer") != want:
        raise ValueError(
            f"analyzer mismatch: index built with {prev.get('analyzer')}, "
            f"update called with {want}"
        )

    import ray.data

    if isinstance(pages, str):
        import pyarrow.dataset as pads

        avail = pads.dataset(pages).schema.names
        cols = [
            c
            for c in ("url", "warc_ts", "text", "doc_id", "keywords", "inlink")
            if c in avail
        ]
        pages = ray.data.read_parquet(pages, columns=cols)
    if dedup:
        pages = dedup_pages(pages)

    fn = partial(
        write_segment,
        out_dir=out_dir,
        config=config,
        keep_forward=keep_forward,
    )
    # delete-then-re-add is the document-update idiom (Lucene liveDocs):
    # a re-indexed doc must serve again — as ONE copy.  BEFORE appending,
    # (a) find the appended ids covered by tombstones (distributed filter
    # against the bounded tombstone set; only covered ids, <= tombstone
    # count, reach the driver), (b) physically drop the OLD copies from
    # their segments (otherwise the same doc_id would serve from two
    # segments), (c) clear those tombstones.
    from .shard import load_tombstones

    tomb = load_tombstones(out_dir)
    if len(tomb):
        import ray

        pages = pages.materialize()  # consumed twice: covered scan + write
        tref = ray.put(tomb)

        def covered(batch: pa.Table) -> pa.Table:
            t = ray.get(tref)
            if "doc_id" in batch.column_names:
                ids = batch.column("doc_id").to_numpy()
            else:
                ids = np.asarray(
                    [
                        doc_id_from_url(u)
                        for u in batch.column("url").to_pylist()
                    ],
                    dtype=np.int64,
                )
            m = np.isin(ids.astype(np.int64), t)
            return pa.table({"doc_id": pa.array(ids[m], pa.int64())})

        cov = (
            pages.map_batches(covered, batch_format="pyarrow")
            .to_pandas()["doc_id"]
            .to_numpy()
        )
        if len(cov):
            from .compact import drop_ids_from_segments, remove_tombstones

            drop_ids_from_segments(out_dir, cov)
            remove_tombstones(out_dir, cov)

    pages.map_batches(
        fn, batch_format="pyarrow", batch_size=docs_per_segment
    ).materialize()

    return recompute_stats(out_dir)
