"""Index inspection as reusable functions (``InspectIndex.java:20-668``
analog): the CLI formats these for humans; the gate entries oracle-check
the same data against SQL over the source corpus, so the dump surface is
correctness-gated rather than smoke-only.

Parity map to the reference inspector:
- :func:`term_dictionary`  ~ ``listTermDictionary`` (term, df, totalTf)
- :func:`postings_dump`    ~ ``listPostings`` (term stats + first-k
  postings in document order; ours orders by url — the engine's frozen
  external-id order — so the dump is deterministic across segment layouts)
- :func:`term_vector`      ~ ``listTermVectors``/``termVectorDisplay``
  (per-position terms; '' marks a stopword-occupied position)
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .shard import Segment, segment_dirs


def term_dictionary(index_dir: str, field: str = "body") -> pd.DataFrame:
    """Global (term, df, ctf) for a field, aggregated across segments from
    the per-segment term dictionaries (pruned column read — never decodes
    postings)."""
    frames = []
    for d in segment_dirs(index_dir):
        t = pq.read_table(
            os.path.join(d, "postings.parquet"),
            columns=["field", "term", "df", "ctf"],
        ).to_pandas()
        frames.append(t.loc[t["field"] == field, ["term", "df", "ctf"]])
    if not frames:
        return pd.DataFrame({"term": [], "df": [], "ctf": []})
    out = (
        pd.concat(frames, ignore_index=True)
        .groupby("term", as_index=False)[["df", "ctf"]]
        .sum()
        .astype({"df": "int64", "ctf": "int64"})
        .sort_values("term")
        .reset_index(drop=True)
    )
    return out


def postings_dump(
    index_dir: str, terms: list[str], field: str = "body", k: int = 3
) -> pd.DataFrame:
    """Per-term stats + the first ``k`` postings by url ascending (the
    engine's frozen external-id order): one row per (term, rank) —
    ``(term, df, ctf, rank, url, tf)``.  Terms absent from the field
    produce no rows (the reference prints a no-postings banner)."""
    segs = [Segment(d) for d in segment_dirs(index_dir)]
    rows = []
    for term in terms:
        df = ctf = 0
        hits: list[tuple[str, int]] = []
        for seg in segs:
            d, c = seg.local_stats([(field, term)])
            df += int(d[0])
            ctf += int(c[0])
            if d[0]:
                pl = seg.postings(field, term)
                hits.extend(
                    zip(seg.urls.take(pl.docs).to_pylist(), pl.tfs.tolist())
                )
        if not df:
            continue
        hits.sort(key=lambda x: x[0])
        for rank, (url, tf) in enumerate(hits[:k], 1):
            rows.append((term, df, ctf, rank, url, tf))
    return pd.DataFrame(
        rows, columns=["term", "df", "ctf", "rank", "url", "tf"]
    ).astype({"df": "int64", "ctf": "int64", "rank": "int64", "tf": "int64"})


def term_vector(
    index_dir: str, url: str, field: str | None = None
) -> pd.DataFrame:
    """Per-position term dump for one document from the forward index
    (requires the index to be built with ``keep_forward``): ``(url, field,
    pos, term)`` with '' for stopword-occupied positions."""
    rows = []
    for d in segment_dirs(index_dir):
        seg = Segment(d)
        hit = pc.index(seg.urls, url).as_py()
        if hit < 0:
            continue
        doc_id = int(seg.doc_ids[hit])
        for _, ff, ts in seg.term_vectors([doc_id], field):
            for pos, t in enumerate(ts):
                rows.append((url, ff, pos, t))
    return pd.DataFrame(rows, columns=["url", "field", "pos", "term"]).astype(
        {"pos": "int64"}
    )
