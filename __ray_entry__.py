"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship pipeline (SPIMI index build + BM25 batch retrieval)
over ``/root/testdata/sf0.001``.
``queries()`` — one callable per implemented operator/pipeline (SURVEY.md §2
plus the training-data operators); each takes ``sf_dir``.
``oracle_sql()`` — DuckDB-equivalent SQL for the SQL-expressible entries.

Ray is initialised by the driver before import; nothing here calls
``ray.init``/``ray.shutdown``.  Indexes built for query entries are cached
under /tmp keyed by (sf_dir, analyzer) so the per-entry cost is one build.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd

from searchengines_ray.analysis import DEFAULT_ANALYZER, SIMPLE_ANALYZER
from searchengines_ray.index.build import build_index
from searchengines_ray.models import BM25, Indri, RankedBoolean
from searchengines_ray.query.engine import SearchEngine
from searchengines_ray.sources.pages import pages_from_documents, url_for_doc_id

_ENGINES: dict[tuple, SearchEngine] = {}

# fixed query sets (terms from the synthetic documents vocabulary; 'dup' is
# the rare term with positive BM25 idf, the rest exercise the tie-break path)
BM25_QUERIES = [
    ("q1", "dup"),
    ("q2", "dup key value"),
    ("q3", "spark join window"),
    ("q4", "customer query fast"),
    ("q5", "zzz9nohit"),
]
STRUCTURED_QUERIES = [
    ("s1", "#NEAR/2(hash join)"),
    ("s2", "#WINDOW/4(window agg)"),
    ("s3", "#SYN(dup key)"),
    ("s4", "#AND(spark #OR(join merge))"),
    ("s5", "#WAND(0.7 dup 0.3 batch)"),
    ("s6", "#WSUM(0.5 scan 0.5 filter)"),
    ("s7", "#SUM(#NEAR/3(stream batch) dup)"),
]


def _index_for(sf_dir: str, simple: bool) -> str:
    tag = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}|{simple}|v9".encode(), digest_size=6
    ).hexdigest()
    out = f"/tmp/seray_index/{tag}"
    if not os.path.exists(os.path.join(out, "stats.json")):
        os.makedirs(out, exist_ok=True)
        pages = pages_from_documents(sf_dir)
        build_index(
            pages,
            out,
            config=SIMPLE_ANALYZER if simple else DEFAULT_ANALYZER,
            docs_per_segment=512,
            dedup=False,  # documents.parquet doc_ids/urls are unique
            keep_forward=True,  # forward index also feeds ltr_features_simple
        )
    return out


def _engine(sf_dir: str, simple: bool) -> SearchEngine:
    key = (os.path.abspath(sf_dir), simple)
    if key not in _ENGINES:
        # the SIMPLE engine serves its entries through the ACTOR
        # scatter/gather path (2 searcher actors) so the driver's hard
        # correctness gate exercises it; the full engine stays in-process
        # (both paths are oracle-equality-pinned in tests)
        _ENGINES[key] = SearchEngine(
            _index_for(sf_dir, simple),
            config=SIMPLE_ANALYZER if simple else DEFAULT_ANALYZER,
            num_searchers=2 if simple else 0,
        )
    return _ENGINES[key]


# --------------------------------------------------------------------- entry


def entry() -> Any:
    """Flagship: build the sf0.001 index and run the BM25 + structured query
    battery; returns the result table (qid, doc_id, url, score, rank)."""
    eng = _engine("/root/testdata/sf0.001", simple=False)
    res = eng.search_batch(BM25_QUERIES + STRUCTURED_QUERIES, BM25(), k=10)
    return res


# ------------------------------------------------------------------- queries


def _q_term_stats_simple(sf_dir: str) -> pd.DataFrame:
    """Full SPIMI pipeline check: global (term, df, ctf) over the body field
    with the simple analyzer (lower + [0-9a-z]+ split; SQL-replicable)."""
    import pyarrow.compute as pc

    from searchengines_ray.index.shard import load_termstats

    idx = _index_for(sf_dir, simple=True)
    ts = load_termstats(idx)  # sorted by (field, term)
    body = ts.filter(pc.equal(ts.column("field"), "body"))
    return body.select(["term", "df", "ctf"]).to_pandas()


def _q_doc_lengths(sf_dir: str) -> pd.DataFrame:
    """docmeta lengths (body/title) from the built index."""
    import pyarrow.parquet as pq

    from searchengines_ray.index.shard import segment_dirs

    idx = _index_for(sf_dir, simple=True)
    frames = []
    for d in segment_dirs(idx):
        t = pq.read_table(
            os.path.join(d, "docmeta.parquet"),
            columns=["doc_id", "len_body", "len_title", "len_url"],
        )
        frames.append(t.to_pandas())
    out = pd.concat(frames, ignore_index=True).sort_values("doc_id")
    return out.astype(
        {
            "doc_id": "int64",
            "len_body": "int64",
            "len_title": "int64",
            "len_url": "int64",
        }
    ).reset_index(drop=True)


def _q_bm25_topk_simple(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 with the simple analyzer — fully SQL-expressible.

    Scores are floored to 1e-6 before ranking IN BOTH ENGINES so ULP-level
    summation-order noise cannot flip ranks; ties break by url ascending
    (the reference tie-break, ScoreList.java:90-106)."""
    eng = _engine(sf_dir, simple=True)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _q_bm25_topk_merged(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 served from a COMPACTED index: the corpus is built with
    tiny segments (64 docs — the build-parallelism profile), then
    merge_segments() k-way-merges them to serving-sized ones
    (index/compact.py; the reference queries one monolithic Lucene index,
    Idx.java:236-259 — compaction is how the SPIMI small-segment build
    reaches that serving profile).  Must match the SAME SQL oracle as
    bm25_topk_simple: compaction is bit-identical by contract."""
    import shutil

    from searchengines_ray.index.compact import merge_segments
    from searchengines_ray.index.shard import list_segments

    tag = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}|merged|v9".encode(), digest_size=6
    ).hexdigest()
    out = f"/tmp/seray_index/{tag}"
    if not os.path.exists(os.path.join(out, "stats.json")):
        os.makedirs(out, exist_ok=True)
        build_index(
            pages_from_documents(sf_dir),
            out,
            config=SIMPLE_ANALYZER,
            docs_per_segment=64,
            dedup=False,
        )
        n_before = len(list_segments(out))
        merge_segments(out, target_docs=100_000)
        if len(list_segments(out)) >= n_before and n_before > 1:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("compaction did not reduce segment count")
    eng = SearchEngine(out, config=SIMPLE_ANALYZER, num_searchers=0)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _deleted_ids(sf_dir: str) -> np.ndarray:
    import ray.data

    return (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]
        )
        .map_batches(
            lambda b: b.loc[b["doc_id"] % 37 == 0, ["doc_id"]],
            batch_format="pandas",
        )
        .to_pandas()["doc_id"]
        .to_numpy()
        .astype(np.int64)
    )


def _q_bm25_topk_deleted(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 over a TOMBSTONED index (doc_id % 37 == 0 deleted via
    delete_docs): deleted docs vanish from results immediately while
    df/ctf/doclen statistics keep pre-delete values until purge — the
    Lucene liveDocs semantics (Idx.java numDocs vs maxDoc).  Served
    through the ACTOR scatter/gather path (each searcher actor loads the
    tombstone set itself at startup).  Oracle = the full-corpus scoring
    SQL with deleted docs excluded before ranking."""
    from searchengines_ray.index.compact import delete_docs

    tag = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}|tomb|v9".encode(), digest_size=6
    ).hexdigest()
    out = f"/tmp/seray_index/{tag}"
    if not os.path.exists(os.path.join(out, "DONE")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        build_index(
            pages_from_documents(sf_dir),
            out,
            config=SIMPLE_ANALYZER,
            docs_per_segment=512,
            dedup=False,
        )
        delete_docs(out, _deleted_ids(sf_dir))
        open(os.path.join(out, "DONE"), "w").close()
    eng = SearchEngine(out, config=SIMPLE_ANALYZER, num_searchers=2)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _q_bm25_topk_purged(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 after PURGE: purge_deleted rewrites every segment
    holding a tombstoned doc (one Ray task each), recomputes global
    stats from the surviving manifests and clears the tombstones — the
    index must be rank-identical to a fresh build over the surviving
    corpus, so the oracle is the standard scoring SQL over the FILTERED
    documents table (post-purge df/ctf/doclen)."""
    from searchengines_ray.index.compact import delete_docs, purge_deleted

    tag = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}|purge|v9".encode(), digest_size=6
    ).hexdigest()
    out = f"/tmp/seray_index/{tag}"
    if not os.path.exists(os.path.join(out, "DONE")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        build_index(
            pages_from_documents(sf_dir),
            out,
            config=SIMPLE_ANALYZER,
            docs_per_segment=512,
            dedup=False,
        )
        delete_docs(out, _deleted_ids(sf_dir))
        purge_deleted(out)
        open(os.path.join(out, "DONE"), "w").close()
    eng = SearchEngine(out, config=SIMPLE_ANALYZER, num_searchers=0)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _q_bm25_topk_incremental(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 served from an INCREMENTALLY built index: half the
    corpus (even doc_ids) via build_index, the other half appended later
    via update_index (index/build.py — append-only segments, distributed
    manifest re-sum; global df/ctf summed from the segments).  Must match
    the SAME SQL oracle as bm25_topk_simple: incremental add is exactly
    equivalent to a one-shot build by construction."""
    from searchengines_ray.index.build import update_index

    tag = hashlib.blake2b(
        f"{os.path.abspath(sf_dir)}|incr|v9".encode(), digest_size=6
    ).hexdigest()
    out = f"/tmp/seray_index/{tag}"
    if not os.path.exists(os.path.join(out, "DONE")):
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        pages = pages_from_documents(sf_dir)

        def _half(parity):
            def f(b: pd.DataFrame) -> pd.DataFrame:
                return b.loc[b["doc_id"].to_numpy() % 2 == parity]

            return f

        build_index(
            pages.map_batches(_half(0), batch_format="pandas"),
            out,
            config=SIMPLE_ANALYZER,
            docs_per_segment=256,
            dedup=False,
        )
        update_index(
            pages.map_batches(_half(1), batch_format="pandas"),
            out,
            config=SIMPLE_ANALYZER,
            docs_per_segment=256,
        )
        open(os.path.join(out, "DONE"), "w").close()
    eng = SearchEngine(out, config=SIMPLE_ANALYZER, num_searchers=0)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _simple_ranked(
    res: pd.DataFrame, k: int = 20, keep_doc_id: bool = False
) -> pd.DataFrame:
    """Shared post-processing for SQL-checked simple-analyzer entries:
    floor scores to 1e-6 IN BOTH ENGINES (ULP-safe), re-rank by
    (score_r desc, url asc), truncate to k — the CLAUDE.md rule that
    truncation happens AFTER flooring lives HERE, once."""
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    res = res[res["rank"] <= k]
    cols = ["qid", "url", "rank", "score_r"] + (
        ["doc_id"] if keep_doc_id else []
    )
    return res[cols].reset_index(drop=True).astype({"rank": "int64"})


def _q_indri_topk_simple(sf_dir: str) -> pd.DataFrame:
    """Indri (two-stage smoothing + #AND geometric mean) on the simple
    analyzer — fully SQL-expressible: score = prod_t p_td^(1/n) with
    p = (1-lam)((tf + mu*pqc)/(dl + mu)) + lam*pqc over the union of
    matching docs (oracle.py:350-373 semantics)."""
    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(BM25_QUERIES, Indri(mu=1000.0, lam=0.4), k=None)
    return _simple_ranked(res)


BOOLEAN_SIMPLE_QUERIES = [
    ("rb1", "dup key"),                       # default #AND: min tf
    ("rb2", "#OR(dup window batch)"),         # max tf of matching
    ("rb3", "#AND(spark #OR(join merge))"),   # nested min/max
]


def _q_boolean_topk_simple(sf_dir: str) -> pd.DataFrame:
    """RankedBoolean on the simple analyzer: integer tf min/max scores —
    SQL-exact with no float concerns."""
    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(BOOLEAN_SIMPLE_QUERIES, RankedBoolean(), k=None)
    res = res.copy()
    res["score_i"] = res["score"].astype("int64")
    res = res.sort_values(
        ["qid", "score_i", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    res = res[res["rank"] <= 20]
    return res[["qid", "url", "rank", "score_i"]].reset_index(drop=True).astype(
        {"rank": "int64"}
    )


SYN_SIMPLE_QUERIES = [
    ("sy1", "#SYN(dup key)"),
    ("sy2", "#SYN(join merge window)"),
    ("sy3", "#OR(dup window)"),               # BM25 #OR: max of leaf scores
]


def _q_syn_topk_simple(sf_dir: str) -> pd.DataFrame:
    """#SYN / #OR structured operators under BM25 on the simple analyzer:
    #SYN merges postings (tf summed, df of the DERIVED list — InvList.java
    163-178 semantics); BM25 #OR takes the max of matching leaf scores."""
    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(SYN_SIMPLE_QUERIES, BM25(), k=None)
    return _simple_ranked(res)


FIELD_QUERIES = [
    ("fq1", "dup.title"),              # title-field term (per-field stats)
    ("fq2", "dup.title key.body"),     # mixed-field #SUM
    ("fq3", "doc.url dup.body"),       # url field: df == N -> idf 0, every
                                       # doc matches -> tie-break sweep
]


def _q_field_queries(sf_dir: str) -> pd.DataFrame:
    """Field-qualified query terms (``term.field`` — QryParser.java:141-179
    semantics) under BM25 on the simple analyzer: each leaf scores with ITS
    field's df, doclen, and avg length (title = first text line tokens,
    url = tokens of the synthetic url); idf stays corpus-global n_docs."""
    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(FIELD_QUERIES, BM25(), k=None)
    return _simple_ranked(res)


def _q_bm25_topk(sf_dir: str) -> pd.DataFrame:
    """Flagship BM25 on the FULL analyzer (stopwords occupy positions,
    kstem_lite) — SQL-checked end to end: the oracle reproduces the
    stemmer as chained CASE CTEs and counts field length over raw tokens."""
    eng = _engine(sf_dir, simple=False)
    return _simple_ranked(eng.search_batch(BM25_QUERIES, BM25(), k=None))


def _q_indri_topk(sf_dir: str) -> pd.DataFrame:
    """Indri on the full analyzer — SQL-checked (same stemmer CTEs)."""
    eng = _engine(sf_dir, simple=False)
    return _simple_ranked(
        eng.search_batch(BM25_QUERIES, Indri(mu=1000.0, lam=0.4), k=None)
    )


def _q_structured(sf_dir: str) -> pd.DataFrame:
    """Structured operators (#NEAR/#WINDOW/#SYN/#AND/#OR/#WAND/#WSUM/#SUM)
    under BM25 on the full analyzer — SQL-checked: the oracle simulates the
    positional two-pointer alignments with recursive CTEs."""
    eng = _engine(sf_dir, simple=False)
    return _simple_ranked(eng.search_batch(STRUCTURED_QUERIES, BM25(), k=None))


def _q_structured_indri(sf_dir: str) -> pd.DataFrame:
    """Structured battery under Indri(mu=800, lam=0.5) — SQL-checked
    (default-score fallbacks included)."""
    eng = _engine(sf_dir, simple=False)
    return _simple_ranked(
        eng.search_batch(STRUCTURED_QUERIES, Indri(mu=800.0, lam=0.5), k=None)
    )


BOOLEAN_FULL_QUERIES = [("b1", "#AND(dup key)"), ("b2", "#OR(dup window)")]


def _q_boolean(sf_dir: str) -> pd.DataFrame:
    """RankedBoolean on the full analyzer — SQL-checked: integer tf
    min/max over stemmed tokens."""
    eng = _engine(sf_dir, simple=False)
    res = eng.search_batch(BOOLEAN_FULL_QUERIES, RankedBoolean(), k=None)
    res = res.copy()
    res["score_i"] = res["score"].astype("int64")
    res = res.sort_values(
        ["qid", "score_i", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    res = res[res["rank"] <= 20]
    return res[["qid", "url", "rank", "score_i"]].reset_index(drop=True).astype(
        {"rank": "int64"}
    )


def _min_vec_rows(emb_ds, k: int) -> pd.DataFrame:
    """The k globally-smallest vec_id rows via a per-batch combiner (no
    row-order assumption, no full-table driver pull, no sort shuffle)."""

    def batch_min(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values("vec_id").head(k)

    part = emb_ds.map_batches(batch_min, batch_format="pandas").to_pandas()
    return part.sort_values("vec_id").head(k)


def _docs(sf_dir: str, cols: tuple = ("doc_id", "text")):
    """Pruned documents read — at 100 TB an unpruned scan of html-bearing
    pages is the single biggest wasted byte-mover, so every entry states
    the columns it needs (default: the dedup/text-analysis pair)."""
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=list(cols)
    )


def _emb(sf_dir: str, cols: tuple = ("vec_id", "embedding")):
    import ray.data

    return ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=list(cols)
    )


def _q_exact_dedup(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.dedup import exact_dedup

    out = exact_dedup(_docs(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def _q_token_counts(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.text import token_counts

    out = token_counts(_docs(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_quality(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.text import quality_scores

    out = quality_scores(_docs(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_windowed_agg(sf_dir: str) -> pd.DataFrame:
    """Tumbling-window aggregate.  The value sum is computed over
    PRE-FLOORED milli-units (integer-valued doubles): integer sums are
    order-independent, so the distributed aggregate matches SQL exactly —
    a raw float SUM differs in ULPs by reduction order."""
    import ray.data

    from searchengines_ray.stages.windows import tumbling_window_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def prefloor(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["value"] = np.floor(batch["value"].to_numpy() * 1000.0)
        return batch

    ev = ev.map_batches(prefloor, batch_format="pandas")
    out = tumbling_window_agg(ev, minutes=60).to_pandas()
    out["sum_value_m"] = out["sum_value"].astype("int64")
    return (
        out[["event_type", "window_start", "n_events", "sum_value_m"]]
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


def _q_hopping_window(sf_dir: str) -> pd.DataFrame:
    """Hopping-window aggregate (60-min windows, 15-min hop): each event
    contributes to 4 overlapping windows.  Milli-floored integer sums are
    order-independent, so the distributed aggregate is SQL-exact."""
    import ray.data

    from searchengines_ray.stages.windows import hopping_window_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def prefloor(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["value"] = np.floor(batch["value"].to_numpy() * 1000.0)
        return batch

    ev = ev.map_batches(prefloor, batch_format="pandas")
    out = hopping_window_agg(ev, window_minutes=60, hop_minutes=15).to_pandas()
    out["sum_value_m"] = out["sum_value"].astype("int64")
    return (
        out[["event_type", "window_start", "n_events", "sum_value_m"]]
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )


def _q_ann_topk(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.similarity import cosine_topk

    emb = _emb(sf_dir)
    qdf = _min_vec_rows(emb, 3)
    queries = np.stack([np.asarray(v) for v in qdf["embedding"]]).astype(
        np.float64
    )
    out = cosine_topk(emb, queries, k=10)
    return out[["query_id", "vec_id", "rank"]].astype("int64").reset_index(
        drop=True
    )


def _q_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.dedup import minhash_dedup_pairs

    out = minhash_dedup_pairs(_docs(sf_dir), threshold=0.5)
    out["jaccard_r"] = np.floor(out["jaccard"].to_numpy() * 1e6) / 1e6
    return out[["doc_a", "doc_b", "jaccard_r"]]


def _q_embedding_quantize(sf_dir: str) -> pd.DataFrame:
    """Int8 max-abs embedding quantization (stages/similarity.py
    quantize_embeddings) — shuffle-free per-batch map; the float64
    expression tree (v/amax*127, floor) is mirrored verbatim in SQL."""
    import ray.data

    from searchengines_ray.stages.similarity import quantize_embeddings

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = quantize_embeddings(emb).to_pandas()
    return (
        out.sort_values(["vec_id", "dim"], kind="mergesort")
        .reset_index(drop=True)
        .astype(
            {
                "vec_id": "int64",
                "dim": "int64",
                "q": "int64",
                "amax_micro": "int64",
            }
        )
    )


def _q_label_centroids(sf_dir: str) -> pd.DataFrame:
    """Per-label embedding centroids as exact integer micro-unit sums
    (stages/similarity.py label_centroids): component-wise
    floor(v*1e6) BEFORE summing makes the distributed sum order-free
    and SQL-exact; vectors shuffle as bytes."""
    from searchengines_ray.stages.similarity import label_centroids

    import ray.data

    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    out = label_centroids(emb).to_pandas()
    return (
        out.sort_values(["label", "dim"], kind="mergesort")
        .reset_index(drop=True)
        .astype(
            {
                "label": "int32",
                "dim": "int64",
                "sum_micro": "int64",
                "n": "int64",
            }
        )
    )


def _q_dup_triangles(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the near-dup pair graph (jaccard >= 0.5)
    — degree-ordered wedge join (stages/graph.py triangle_count) over
    the exact AllPairs pair set (guaranteed-recall input, so the SQL
    3-way self-join is the precise ground truth)."""
    from searchengines_ray.stages.dedup import allpairs_jaccard_ds
    from searchengines_ray.stages.graph import triangle_count

    pairs = allpairs_jaccard_ds(_docs(sf_dir), threshold=0.5)
    n = triangle_count(pairs)
    return pd.DataFrame({"n_triangles": pd.array([n], dtype="int64")})


def _q_incremental_ingest(sf_dir: str) -> pd.DataFrame:
    """Incremental ingest dedup — the composition an append-only corpus
    runs per batch: incoming docs (hash bucket >= 800) are ANTI-joined
    against the already-ingested registry (bucket < 800) on exact
    content, then exact-deduped within the batch (keep min doc_id).
    Pure composition of hash_equijoin(how='anti') + exact_dedup."""
    import ray.data

    from searchengines_ray.stages.dedup import exact_dedup
    from searchengines_ray.stages.joins import hash_equijoin
    from searchengines_ray.stages.sample import sample_mask

    def split_part(keep_low: bool):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            m = sample_mask(b["doc_id"].to_numpy(), 800)
            return b.loc[m if keep_low else ~m, ["doc_id", "text"]]

        return f

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    registry = docs.map_batches(split_part(True), batch_format="pandas")
    incoming = docs.map_batches(split_part(False), batch_format="pandas")
    hint = {"doc_id": np.dtype(np.int64), "text": np.dtype(object)}
    fresh = hash_equijoin(
        incoming, registry, left_on="text", right_on="text", how="anti",
        left_schema_hint=hint, right_schema_hint=hint,
    )
    out = exact_dedup(fresh).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_allpairs_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact AllPairs prefix-filter similarity self-join
    (stages/dedup.py allpairs_jaccard_ds): guaranteed recall with no
    LSH probabilism — must reproduce the exact all-pairs SQL answer
    (the same ground truth the minhash_pairs entry matches)."""
    from searchengines_ray.stages.dedup import allpairs_jaccard_ds

    out = (
        allpairs_jaccard_ds(_docs(sf_dir), threshold=0.5)
        .to_pandas()
        .astype({"doc_a": "int64", "doc_b": "int64"})
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    out["jaccard_r"] = np.floor(out.pop("jaccard").to_numpy() * 1e6) / 1e6
    return out


def _q_cross_corpus_pairs(sf_dir: str) -> pd.DataFrame:
    """Cross-corpus contamination check (stages/dedup.py
    minhash_cross_pairs_ds): the 'incoming batch' is every doc with
    doc_id % 17 == 0 re-keyed to +1e6 (identical text -> jaccard 1.0
    planted positives, plus any true near-dups straddling the sides);
    only cross-side pairs are reported.  SQL oracle: exact all-pairs
    3-gram Jaccard over the augmented corpus, cross-filtered."""
    from searchengines_ray.stages.dedup import minhash_cross_pairs_ds

    docs = _docs(sf_dir)
    incoming = docs.map_batches(
        lambda b: b.loc[b["doc_id"] % 17 == 0, ["doc_id", "text"]],
        batch_format="pandas",
    )
    out = (
        minhash_cross_pairs_ds(
            docs, incoming, id_offset=1_000_000, threshold=0.5
        )
        .to_pandas()
        .astype({"doc_a": "int64", "doc_b": "int64"})
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    out["jaccard_r"] = np.floor(out.pop("jaccard").to_numpy() * 1e6) / 1e6
    return out


def _q_minhash_dedup(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.dedup import (
        minhash_dedup_pairs,
        minhash_dedup_survivors,
    )

    docs = _docs(sf_dir)
    pairs = minhash_dedup_pairs(docs, threshold=0.5)
    out = minhash_dedup_survivors(docs, pairs).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_snippets(sf_dir: str) -> pd.DataFrame:
    """Result highlighting: best 10-token window per (query, top-20 doc)
    — max distinct query terms, tie earliest.  The target set is the
    engine's own BM25 top-20 (the oracle recomputes the same ranking in
    SQL, then scans windows positionally)."""
    from searchengines_ray.stages.text import snippet_windows

    eng = _engine(sf_dir, simple=True)
    targets = _simple_ranked(
        eng.search_batch(BM25_QUERIES, BM25(), k=None), keep_doc_id=True
    )[["qid", "doc_id"]]
    out = snippet_windows(
        _docs(sf_dir), BM25_QUERIES, targets, window=10
    ).to_pandas()
    return (
        out.sort_values(["qid", "doc_id"])
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "snip_start": "int64",
                 "n_matched": "int64"})
    )


def _q_anchor_text(sf_dir: str) -> pd.DataFrame:
    """Inlink-field construction: deterministic synthetic link graph
    (doc d emits d%3 links, target (d*7+j*13)%N, anchor = j-th source
    word), one dst-bucketed exchange, ordered per-target anchor concat.
    The reference's Lucene index ships this pre-built ('inlink' field,
    QryParser.java:159-165) — this is the stage that builds it."""
    from searchengines_ray.stages.graph import anchor_text_agg, synth_links

    docs = _docs(sf_dir)
    links = synth_links(docs, docs.count())
    out = anchor_text_agg(links).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bpe_segment(sf_dir: str) -> pd.DataFrame:
    """Train 5 BPE merges, then segment every doc with them (vocab-level
    application — each unique word segmented once, per-doc sums are
    bincounts).  n_subwords is what token-budget accounting consumes."""
    from searchengines_ray.stages.text import bpe_apply, bpe_train

    docs = _docs(sf_dir)
    merges = bpe_train(docs, num_merges=5)
    out = bpe_apply(docs, merges).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_bpe_fertility(sf_dir: str) -> pd.DataFrame:
    """Tokenizer evaluation: per-language fertility (subwords/word, ppm
    floor) of the 5-merge BPE — train -> apply -> grouped integer sums;
    the per-lang aggregate is a per-batch combiner (langs bounded)."""
    from searchengines_ray.stages.text import bpe_apply, bpe_train

    docs = _docs(sf_dir)
    merges = bpe_train(docs, num_merges=5)
    seg = bpe_apply(
        _docs(sf_dir, cols=("doc_id", "text", "lang")),
        merges,
        keep_cols=("lang",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("lang", as_index=False).agg(
            n_docs=("doc_id", "size"),
            sum_words=("n_words", "sum"),
            sum_subwords=("n_subwords", "sum"),
        )
        return g

    per = (
        seg.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("lang", as_index=False)[
            ["n_docs", "sum_words", "sum_subwords"]
        ]
        .sum()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    # Python ints: s * 1e6 would wrap numpy int64 past ~9.2e12 subwords
    # per language (the 100 TB design point), while the oracle computes
    # in DuckDB HUGEINT
    per["fertility_ppm"] = pd.array(
        [
            (int(s) * 1_000_000) // int(w) if int(w) > 0 else 0
            for w, s in zip(per["sum_words"], per["sum_subwords"])
        ],
        dtype="int64",
    )
    return per.astype(
        {
            "n_docs": "int64",
            "sum_words": "int64",
            "sum_subwords": "int64",
        }
    )


def _q_chunk_documents(sf_dir: str) -> pd.DataFrame:
    """RAG chunk table: 64-token windows, stride 48, per-chunk rolling
    content hash (fingerprints contract) — shuffle-free vectorized pass."""
    from searchengines_ray.stages.text import chunk_documents

    out = chunk_documents(_docs(sf_dir), chunk_tokens=64, stride=48)
    return (
        out.to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )


def _q_dsir_weights(sf_dir: str) -> pd.DataFrame:
    """DSIR hashed-unigram importance weights (target = lang='en'):
    two streaming passes, a 128-bucket model on the driver (never a
    vocabulary), integer per-doc weights."""
    from searchengines_ray.stages.text import dsir_weights

    out = dsir_weights(
        _docs(sf_dir, cols=("doc_id", "text", "lang")), target_lang="en"
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "dsir_milliweight": "int64"})
    )


def _q_mixture_plan(sf_dir: str) -> pd.DataFrame:
    """Pile/DoReMi-style token-budget mixture plan over the corpus
    source registry: distributed token inventory (per-batch combiner),
    driver arithmetic over a handful of source rows — all integer."""
    from searchengines_ray.stages.sample import mixture_plan

    return mixture_plan(
        _docs(sf_dir, cols=("source", "text")), max_epochs=2
    )


def _q_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """Distributed BPE tokenizer training, 5 merge rounds (Sennrich et
    al. 2016).  The word-frequency table stays a Dataset end-to-end;
    each round is one combiner-first pair aggregation (per-batch
    distinct pairs on the wire) + one vectorized greedy merge map; the
    driver sees one candidate row per bucket per round."""
    from searchengines_ray.stages.text import bpe_train

    return bpe_train(_docs(sf_dir), num_merges=5)


def _q_dedup_keep_best(sf_dir: str) -> pd.DataFrame:
    """Quality-aware near-dup consolidation: per verified-pair component
    the (n_word_tokens desc, doc_id asc)-BEST doc survives — curation
    semantics (keep the richest capture of a recrawl cluster) instead of
    keep-min-id.  Pairs stay a Dataset end-to-end; only candidate-bounded
    (id, comp, quality) rows reach the driver."""
    from searchengines_ray.stages.dedup import (
        dedup_keep_best_survivors,
        minhash_dedup_pairs_ds,
    )
    from searchengines_ray.stages.text import token_counts

    docs = _docs(sf_dir)
    pairs = minhash_dedup_pairs_ds(docs, threshold=0.5)
    quality = token_counts(docs)
    out = dedup_keep_best_survivors(
        docs, pairs, quality, quality_col="n_word_tokens"
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_simhash_pairs(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.dedup import simhash_dup_pairs

    return simhash_dup_pairs(_docs(sf_dir), max_hamming=3)


def _q_embedding_neardup(sf_dir: str) -> pd.DataFrame:
    """Hyperplane-LSH near-dup pairs over the embeddings table AUGMENTED
    with planted near-duplicates (vec_id < 20 re-emitted as vec_id + 1e6
    with +0.005 on every coordinate -> cosine ~0.9992): the SQL oracle is
    exact all-pairs, so this checks LSH RECALL on real positives — the raw
    table has none (max off-diagonal cosine ~0.51, verified round 1)."""
    from searchengines_ray.stages.dedup import embedding_neardup_pairs

    def plant(batch: pd.DataFrame) -> pd.DataFrame:
        sub = batch.loc[batch["vec_id"] < 20]
        extra = pd.DataFrame(
            {
                "vec_id": sub["vec_id"].to_numpy().astype(np.int64)
                + 1_000_000,
                "embedding": [
                    np.asarray(v, dtype=np.float64) + 0.005
                    for v in sub["embedding"]
                ],
            }
        )
        base = pd.DataFrame(
            {
                "vec_id": batch["vec_id"].to_numpy().astype(np.int64),
                "embedding": [
                    np.asarray(v, dtype=np.float64)
                    for v in batch["embedding"]
                ],
            }
        )
        return pd.concat([base, extra], ignore_index=True)

    aug = _emb(sf_dir).map_batches(plant, batch_format="pandas")
    # tables=8: planted pairs sit at ~2.3 deg, per-pair miss prob ~(1-.857)^8
    out = embedding_neardup_pairs(aug, threshold=0.9, tables=8)
    out["cosine_r"] = np.floor(out.pop("cosine").to_numpy() * 1e4) / 1e4
    return out


def _q_curate(sf_dir: str) -> pd.DataFrame:
    """Composed curation pipeline (lang filter -> quality filter -> minhash
    near-dup removal): surviving doc_ids, SQL-checked end to end (marker
    argmax + word count + exact-jaccard closure over the FILTERED set)."""
    from searchengines_ray.pipelines.curate import curate_corpus

    curated, _ = curate_corpus(
        _docs(sf_dir), lang="en", min_words=25, minhash_threshold=0.5
    )
    out = curated.to_pandas()
    if out.empty:
        # zero survivors: to_pandas() on an empty Dataset loses the schema
        out = pd.DataFrame({"doc_id": pd.array([], dtype="int64")})
    out = out[["doc_id"]]
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def _q_line_dedup(sf_dir: str) -> pd.DataFrame:
    """Cross-corpus line-level dedup (C4-style): docs with every >=10-char
    line kept only at its first global occurrence.  On this corpus the
    result is the identity (no exact duplicate lines — verified by the
    oracle); planted-duplicate behavior is pinned by pytest."""
    from searchengines_ray.stages.dedup import line_dedup

    out = line_dedup(_docs(sf_dir), min_chars=10).to_pandas()
    return (
        out[["doc_id", "text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_repetition(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.text import repetition_signals

    out = repetition_signals(_docs(sf_dir)).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_lines": "int64"})
    )


def _q_fingerprints(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.text import fingerprints

    return (
        fingerprints(_docs(sf_dir))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_lang_id(sf_dir: str) -> pd.DataFrame:
    from searchengines_ray.stages.text import lang_id

    return (
        lang_id(_docs(sf_dir))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _pii_augment_batch(b: pd.DataFrame) -> pd.DataFrame:
    """Deterministically plant PII in every 5th doc (SQL-mirrored concat)
    so the redaction entry is non-vacuous — the synthetic corpus contains
    no organic emails/URLs/phones."""
    ids = b["doc_id"].to_numpy()
    txt = ["" if t is None else t for t in b["text"]]
    extra = [
        (
            f" Contact u{i}@example.com or https://ex{i}.example/page"
            f" ip 10.{i % 256}.0.1 call 555-{100 + i % 900}-{1000 + i % 9000}"
        )
        if i % 5 == 0
        else ""
        for i in ids
    ]
    return pd.DataFrame(
        {"doc_id": b["doc_id"], "text": [t + e for t, e in zip(txt, extra)]}
    )


def _q_pii_redact(sf_dir: str) -> pd.DataFrame:
    """PII scrubbing (emails/URLs/IPv4/phones) with per-doc counts over a
    corpus AUGMENTED with planted, SQL-reproducible PII."""
    from searchengines_ray.stages.text import pii_redact

    aug = _docs(sf_dir).map_batches(
        _pii_augment_batch, batch_format="pandas"
    )
    return (
        pii_redact(aug).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


def _q_hash_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic ~10% corpus sample by Knuth-multiplicative doc_id
    hash — coordination-free, repartition/resume-stable, SQL-exact."""
    from searchengines_ray.stages.sample import hash_sample

    out = hash_sample(
        _docs(sf_dir, cols=("doc_id", "n_chars")), permille=100
    ).to_pandas()
    return (
        out[["doc_id", "n_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_split_counts(sf_dir: str) -> pd.DataFrame:
    """Deterministic train/val/test split (stages/sample.py hash_split —
    pure per-batch hash-bucket assignment, no shuffle, disjoint-complete
    by construction) summarized as per-(lang, split) counts via a
    combiner-first groupby."""
    import ray.data

    from searchengines_ray.stages.sample import hash_split

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["lang", "split"], as_index=False).size()
        return g.rename(columns={"size": "cnt"})

    out = (
        hash_split(docs)
        .map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .map_groups(
            lambda g: g.groupby(["lang", "split"], as_index=False)[
                "cnt"
            ].sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    return (
        out.sort_values(["lang", "split"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"cnt": "int64"})
    )


def _q_doc_embedding_join(sf_dir: str) -> pd.DataFrame:
    """Distributed inner equi-join documents x embeddings on
    doc_id = vec_id (stages/joins.py hash_equijoin — tag-union, one
    key-hash shuffle, vectorized per-bucket merge), aggregated to
    per-(lang, label) row counts and char sums with a combiner-first
    groupby."""
    import ray.data

    from searchengines_ray.stages.joins import hash_equijoin

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )
    joined = hash_equijoin(
        docs, emb, left_on="doc_id", right_on="vec_id",
        right_cols=("label",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby(["lang", "r_label"], as_index=False).agg(
            cnt=("doc_id", "size"), sum_chars=("n_chars", "sum")
        )
        return g

    out = (
        joined.map_batches(partial, batch_format="pandas")
        .groupby("lang")
        .map_groups(
            lambda g: g.groupby(["lang", "r_label"], as_index=False)[
                ["cnt", "sum_chars"]
            ].sum(),
            batch_format="pandas",
        )
        .to_pandas()
    )
    out = out.rename(columns={"r_label": "label"})
    return (
        out.sort_values(["lang", "label"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"label": "int32", "cnt": "int64", "sum_chars": "int64"})
    )


def _q_anti_join_blocklist(sf_dir: str) -> pd.DataFrame:
    """Distributed ANTI join (stages/joins.py hash_equijoin how='anti'):
    subtract a deterministic 20% hash-sampled blocklist from the corpus
    — the blocklist-filter primitive of dedup/PII pipelines.  The
    blocklist rides as a Dataset through the same tag-union shuffle as
    the inner join (no driver-side id set)."""
    import ray.data

    from searchengines_ray.stages.joins import hash_equijoin
    from searchengines_ray.stages.sample import hash_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    block = hash_sample(
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id"]
        ),
        permille=200,
    )
    out = hash_equijoin(
        docs, block, left_on="doc_id", right_on="doc_id", how="anti",
        right_schema_hint={"doc_id": np.dtype(np.int64)},
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_window_top_events(sf_dir: str) -> pd.DataFrame:
    """Composition of two tested stages — hourly tumbling window counts
    (stages/windows.py) piped into the combiner-first grouped top-k
    (stages/rank.py): top-2 event types per hour by
    (n_events desc, event_type asc)."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_topk
    from searchengines_ray.stages.windows import tumbling_window_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["ts", "event_type", "value"],
    )
    win = tumbling_window_agg(ev, minutes=60)
    out = (
        grouped_topk(
            win,
            by="window_start",
            val_col="n_events",
            k=2,
            tie_col="event_type",
        )
        .to_pandas()[["window_start", "event_type", "n_events"]]
    )
    return (
        out.sort_values(
            ["window_start", "n_events", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .reset_index(drop=True)
        .astype({"n_events": "int64"})
    )


def _q_rolling_user_agg(sf_dir: str) -> pd.DataFrame:
    """Per-user 5-row moving value sum in (ts, event_id) order
    (stages/windows.py rolling_user_agg): the ordered-window analytic,
    exact via milli-unit integer sums; mirrors SQL ROWS BETWEEN 4
    PRECEDING AND CURRENT ROW."""
    import ray.data

    from searchengines_ray.stages.windows import rolling_user_agg

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "value"],
    )
    out = rolling_user_agg(ev, window_rows=5).to_pandas()
    return (
        out.sort_values("event_id")
        .reset_index(drop=True)
        .astype(
            {
                "event_id": "int64",
                "roll_sum_milli": "int64",
                "roll_n": "int64",
            }
        )
    )


def _q_cms_counts(sf_dir: str) -> pd.DataFrame:
    """Count-min sketch (stages/sketch.py cms_counts) of the word-token
    frequency distribution: 3 rows x 512 cells, nonzero cells only.
    Mergeable combiner sketch — shuffle volume is O(batches x 1536)
    regardless of corpus size; hashes are the frozen mod-(2^31-1)
    char folds (bases 131/137/139) so DuckDB reproduces every cell."""
    from searchengines_ray.stages.sketch import cms_counts

    out = cms_counts(
        _docs(sf_dir), width=512, depth=3
    ).to_pandas()
    return (
        out.sort_values(["d", "cell"])
        .reset_index(drop=True)
        .astype({"d": "int64", "cell": "int64", "cnt": "int64"})
    )


def _q_hll_registers(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog register table (stages/sketch.py hll_registers) over
    event_id: 256 registers, avalanche Knuth-xor-Knuth 32-bit hash,
    rho = leading zeros of the 24-bit suffix + 1.  The occupied
    registers ARE the sketch (mergeable by max); exact integer
    contract, estimator accuracy pinned in pytest."""
    import ray.data

    from searchengines_ray.stages.sketch import hll_registers

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id"]
    )
    out = hll_registers(ev, key="event_id", p=8).to_pandas()
    return (
        out.sort_values("bucket")
        .reset_index(drop=True)
        .astype({"bucket": "int64", "max_rho": "int64"})
    )


def _q_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic stratified sampling (stages/sample.py
    stratified_sample): rebalance the language mix — keep 500 permille
    of 'en' docs, 100 permille of everything else, by the frozen Knuth
    keep-rule.  Pure per-batch filter; no shuffle."""
    import ray.data

    from searchengines_ray.stages.sample import stratified_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = stratified_sample(
        docs, "lang", {"en": 500}, default_permille=100
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_next_word_suggest(sf_dir: str) -> pd.DataFrame:
    """Query-completion table (stages/text.py next_word_topk): per
    prefix word, the top-3 following words by exact bigram count
    (cnt desc, w2 asc; min_count 2) — one crc32(w1)-bucketed shuffle,
    per-prefix top-k finalized inside the bucket."""
    from searchengines_ray.stages.text import next_word_topk

    out = next_word_topk(
        _docs(sf_dir), k=3, min_count=2
    ).to_pandas()
    return (
        out.sort_values(["w1", "w2"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"cnt": "int64"})
    )


def _q_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted sampling (stages/sample.py
    weighted_sample): keep probability ∝ doc length in permille
    (n_chars // 2, capped at certainty) — the 'sample ∝ quality'
    curation primitive; pure per-batch filter, no shuffle."""
    import ray.data

    from searchengines_ray.stages.sample import weighted_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    ).map_batches(
        lambda b: b.assign(w=(b["n_chars"] // 2).astype("int64")),
        batch_format="pandas",
    )
    out = weighted_sample(docs, "w", scale_permille=1).to_pandas()
    return (
        out[["doc_id", "n_chars"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_chars": "int64"})
    )


def _q_balanced_sample(sf_dir: str) -> pd.DataFrame:
    """Balanced fixed-size-per-stratum sample (composition:
    stages/sketch.py avalanche hash + stages/rank.py grouped_topk
    ascending): exactly min(20, n) docs per language, chosen by the
    smallest key hashes — the 'equal-sized eval subset per stratum'
    curation primitive, partition-independent and consistent."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_topk
    from searchengines_ray.stages.sketch import _hll_hash

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_h"] = _hll_hash(b["doc_id"].to_numpy())
        return b

    out = grouped_topk(
        docs.map_batches(attach, batch_format="pandas"),
        by="lang", val_col="_h", k=20, ascending=True,
        tie_col="doc_id",
    ).to_pandas()
    return (
        out[["doc_id", "lang"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_dup_spans(sf_dir: str) -> pd.DataFrame:
    """Cross-document repeated 8-gram spans (stages/text.py
    repeated_spans) — the exact-substring-dedup signal: top-50 spans
    shared verbatim by >= 2 docs, (n_docs desc, n_occ desc, gram
    asc)."""
    from searchengines_ray.stages.text import repeated_spans

    out = repeated_spans(
        _docs(sf_dir), k=8, min_docs=2, top_k=50
    ).to_pandas()
    if out.empty:
        # zero surviving spans: to_pandas() on an empty Dataset loses
        # the schema — rebuild the typed empty frame
        out = pd.DataFrame(
            {
                "gram": pd.array([], dtype="object"),
                "n_docs": pd.array([], dtype="int64"),
                "n_occ": pd.array([], dtype="int64"),
            }
        )
    return (
        out.sort_values(
            ["n_docs", "n_occ", "gram"],
            ascending=[False, False, True],
            kind="mergesort",
        )
        .reset_index(drop=True)
        .astype({"n_docs": "int64", "n_occ": "int64"})
    )


_SPELL_QUERIES = [
    "batc", "scann", "filtr", "mergee", "colmn", "vectr", "join",
]


def _q_spell_correct(sf_dir: str) -> pd.DataFrame:
    """Distributed spell correction (stages/text.py spell_correct):
    SymSpell depth-1 deletion-neighborhood join (NO query x vocab
    scan) + exact Levenshtein verify, top-3 per query by (dist asc,
    df desc, term asc).  The oracle's brute-force levenshtein cross
    join is the recall ground truth."""
    from searchengines_ray.stages.text import spell_correct

    out = spell_correct(
        _docs(sf_dir), _SPELL_QUERIES, k=3
    ).to_pandas()
    return (
        out.sort_values(["query", "term"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"dist": "int64", "df": "int64"})
    )


def _q_window_unique_users(sf_dir: str) -> pd.DataFrame:
    """Exact distinct users per hourly window (stages/windows.py
    window_unique_users) — COUNT(DISTINCT) via dedup-then-count
    combiners, never a raw-row shuffle."""
    import ray.data

    from searchengines_ray.stages.windows import window_unique_users

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = window_unique_users(ev, minutes=60).to_pandas()
    return (
        out.sort_values("window_start")
        .reset_index(drop=True)
        .astype({"n_users": "int64"})
    )


def _q_event_transitions(sf_dir: str) -> pd.DataFrame:
    """Per-user event-type transition counts (stages/windows.py
    event_transitions) — the Markov session-flow table, (ts, event_id)
    order, vectorized shift inside user buckets."""
    import ray.data

    from searchengines_ray.stages.windows import event_transitions

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type"],
    )
    out = event_transitions(ev).to_pandas()
    return (
        out.sort_values(["from_type", "to_type"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"n": "int64"})
    )


def _q_per_source_cap(sf_dir: str) -> pd.DataFrame:
    """Per-domain quota capping (composition: stages/rank.py
    grouped_topk ascending) — the curation rule "keep at most 20 docs
    per source, lowest doc_id first" that bounds any one domain's
    share of the corpus (binding at every sf)."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    out = grouped_topk(
        docs, by="source", val_col="doc_id", k=20,
        ascending=True, tie_col="doc_id",
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_split_leakage(sf_dir: str) -> pd.DataFrame:
    """Train/val/test leakage check (composition: stages/sample.py
    hash_split + exact-content grouping): exact-duplicate texts whose
    copies land in DIFFERENT splits — the contamination a pipeline
    must catch before training.  The synthetic corpus has no exact
    text dups, so the entry PLANTS them deterministically (docs with
    doc_id % 10 in {0, 7} share a per-decade text — the normalize_text
    planting pattern, SQL-reproducible, non-vacuous at every sf).
    Emits one row per leaked (content group, split), keyed by the
    group's min doc_id."""
    import ray.data

    from searchengines_ray.stages.exchange import bucket_aggregate
    from searchengines_ray.stages.sample import hash_split

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["doc_id"].to_numpy()
        leak = np.isin(ids % 10, (0, 7))
        text = b["text"].fillna("").to_numpy(dtype=object)
        text[leak] = np.char.add(
            "LEAK-", (ids[leak] // 10).astype(str)
        ).astype(object)
        return pd.DataFrame({"doc_id": ids, "text": text})

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(plant, batch_format="pandas")
    split = hash_split(docs, key="doc_id")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "text": b["text"].fillna(""),
                "doc_id": b["doc_id"].astype("int64"),
                "split": b["split"],
            }
        )

    def find_leaks(g: pd.DataFrame) -> pd.DataFrame:
        spans = g.groupby("text")["split"].nunique()
        leaky = spans[spans > 1].index
        sub = g[g["text"].isin(set(leaky))]
        out = sub.groupby(["text", "split"], as_index=False).agg(
            n_docs=("doc_id", "size")
        )
        key = sub.groupby("text")["doc_id"].min()
        out["group_key"] = key.loc[out["text"]].to_numpy()
        return out[["group_key", "split", "n_docs"]].astype(
            {"group_key": "int64", "n_docs": "int64"}
        )

    # the text bucket is the SHUFFLE key only (co-locates equal texts);
    # the GROUP key is the text itself, which the SQL oracle reproduces
    # with GROUP BY text
    out = bucket_aggregate(
        split, find_leaks, key="text", partial=partial
    ).to_pandas()
    if out.empty:
        out = pd.DataFrame(
            {
                "group_key": pd.array([], dtype="int64"),
                "split": pd.array([], dtype="object"),
                "n_docs": pd.array([], dtype="int64"),
            }
        )
    return (
        out.sort_values(["group_key", "split"], kind="mergesort")
        .reset_index(drop=True)
    )


def _q_broadcast_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast (map-side) join (stages/joins.py broadcast_join): the
    dimension-table pattern — embeddings labels ray.put ONCE, every doc
    batch merges against the shared object-store read; zero shuffle of
    the big side (vs hash_equijoin's all-to-all)."""
    import ray.data

    from searchengines_ray.stages.joins import broadcast_join

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    ).map_batches(
        lambda b: b.rename(columns={"vec_id": "doc_id"}),
        batch_format="pandas",
    )
    out = broadcast_join(
        docs, emb, on="doc_id", right_cols=("label",)
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "r_label": "int32"})
    )


def _q_consistent_sample(sf_dir: str) -> pd.DataFrame:
    """Bottom-k consistent sample (stages/sample.py consistent_sample):
    the 200 docs with the globally smallest avalanche key hashes —
    fixed-size, partition-independent, supports bottom-k Jaccard."""
    import ray.data

    from searchengines_ray.stages.sample import consistent_sample

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    out = consistent_sample(docs, k=200, key="doc_id").to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_ranking_eval(sf_dir: str) -> pd.DataFrame:
    """Per-query IR evaluation metrics (stages/rank.py ranking_eval) —
    distributed trec_eval: each user_id is a "query", its events
    ranked by (value desc, event_id asc) form the run, graded
    relevance rel = event_id % 3 plays the qrels.  P@10 / MRR / AP /
    nDCG@10 shipped as exact integer numerators (AP in lcm(1..10)
    units, DCG/IDCG in per-term-floored micro-units) so the contract
    is order-free; reference emits runs for external trec_eval
    (QryEval/QryEval.java:214-260 trec output)."""
    import ray.data

    from searchengines_ray.stages.rank import ranking_eval

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "value"],
    ).map_batches(
        lambda b: b.assign(rel=(b["event_id"] % 3).astype("int64")),
        batch_format="pandas",
    )
    out = ranking_eval(
        ev, "user_id", "event_id", "value", "rel", k=10, max_rel=2
    ).to_pandas()
    cols = [
        "user_id",
        "n_ret",
        "p_at_k_num",
        "first_rel_rank",
        "ap_num_lcm",
        "n_rel",
        "dcg_micro",
        "idcg_micro",
    ]
    return (
        out.sort_values("user_id")
        .reset_index(drop=True)[cols]
        .astype({c: "int64" for c in cols})
    )


def _q_cohort_retention(sf_dir: str) -> pd.DataFrame:
    """Cohort retention matrix (stages/windows.py cohort_retention):
    users bucketed by first-active epoch day, distinct-active-day
    offsets counted — one user shuffle plus a tiny (cohort, offset)
    partial-sum groupby; exact integer day arithmetic."""
    import ray.data

    from searchengines_ray.stages.windows import cohort_retention

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts"]
    )
    out = cohort_retention(ev).to_pandas()
    return (
        out.sort_values(["cohort_day", "offset_days"], kind="mergesort")
        .reset_index(drop=True)
        .astype(
            {
                "cohort_day": "int64",
                "offset_days": "int64",
                "n_users": "int64",
            }
        )
    )


def _q_funnel(sf_dir: str) -> pd.DataFrame:
    """Ordered view -> click -> purchase funnel per user
    (stages/windows.py funnel_stages): one user-hash shuffle, stage
    transitions as vectorized merge + groupby-min chains; strictly-after
    semantics on exact int64 microseconds."""
    import ray.data

    from searchengines_ray.stages.windows import funnel_stages

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type"],
    )
    out = funnel_stages(ev).to_pandas()
    return (
        out.sort_values("user_id")
        .reset_index(drop=True)
        .astype({"user_id": "int64", "reached": "int64"})
    )


def _q_pagerank_events(sf_dir: str) -> pd.DataFrame:
    """Integer-deterministic PageRank (stages/graph.py pagerank) over
    the bipartite user -> item graph from events (item = 1e6 + props.k):
    5 rounds, damping 0.85 as exact int64 ops (order-free sums, so the
    distributed result is bit-identical to the SQL recursion)."""
    import ray.data

    from searchengines_ray.stages.graph import pagerank

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "props"]
    )

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        k = (
            b["props"]
            .str.extract(r'"k": (\d+)', expand=False)
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "src": b["user_id"].to_numpy().astype(np.int64),
                "dst": (1_000_000 + k).to_numpy().astype(np.int64),
            }
        )

    edges = ev.map_batches(to_edges, batch_format="pandas")
    out = pagerank(edges, iters=5).to_pandas()
    return (
        out.sort_values("node")
        .reset_index(drop=True)
        .astype({"node": "int64", "r": "int64"})
    )


def _q_normalize_text(sf_dir: str) -> pd.DataFrame:
    """Text normalization (stages/text.py normalize_text) over a corpus
    with PLANTED whitespace noise (the synthetic text is already clean,
    so the entry injects '  ' prefix, one ' \\t ' mid-doc, ' \\n'
    suffix — first-occurrence replace, SQL-reproducible) and checks the
    cleaned bytes."""
    from searchengines_ray.stages.text import normalize_text

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        noisy = (
            "  "
            + b["text"].fillna("").str.replace(
                " ", " \t ", n=1, regex=False
            )
            + " \n"
        )
        return pd.DataFrame({"doc_id": b["doc_id"], "text": noisy})

    out = normalize_text(
        _docs(sf_dir).map_batches(plant, batch_format="pandas")
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_chars_norm": "int64"})
    )


def _q_tfidf_keywords(sf_dir: str) -> pd.DataFrame:
    """Top-3 tf-idf keywords per document (stages/text.py
    tfidf_keywords): two bucketed shuffles (df by term, top-k by doc),
    no vocabulary broadcast, scalar libm ln micro-units, tie rule
    (score desc, term asc)."""
    import ray.data

    from searchengines_ray.stages.text import tfidf_keywords

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = tfidf_keywords(docs, k=3).to_pandas()
    return (
        out.sort_values(
            ["doc_id", "score_micro", "term"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        .reset_index(drop=True)
        .astype({"tf": "int64", "score_micro": "int64"})
    )


def _q_unigram_lm(sf_dir: str) -> pd.DataFrame:
    """Corpus-fit unigram LM doc scoring (CCNet-style quality signal) with
    a CAPPED top-V vocabulary: the driver holds only the top-1000 terms by
    (ctf desc, term asc) plus two scalars; every OOV token scores with the
    same add-one formula at ctf=0 (the smoothed-OOV contract).  max_vocab
    is set BELOW the sf0.01 vocab size so the cap + OOV path is what the
    oracle actually checks."""
    from searchengines_ray.stages.text import unigram_lm_scores

    return (
        unigram_lm_scores(_docs(sf_dir), max_vocab=1000)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_asof_attribution(sf_dir: str) -> pd.DataFrame:
    """Backward as-of join (attribution): every purchase event joined to
    the latest click/view by the same user at-or-before its timestamp —
    the custom join Ray Data lacks, built as one key-hash shuffle + a
    vectorized per-bucket pandas merge_asof (stages/joins.py).  The tie
    rule (max ts, then max event_id) is the SQL LATERAL oracle's ORDER
    BY, so the match is deterministic."""
    import ray.data

    from searchengines_ray.stages.joins import asof_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def _is(kinds):
        def _f(b: pd.DataFrame) -> pd.DataFrame:
            return b.loc[b["event_type"].isin(kinds)].drop(
                columns=["event_type"]
            )

        return _f

    left = ev.map_batches(_is({"purchase"}), batch_format="pandas")
    right = ev.map_batches(_is({"click", "view"}), batch_format="pandas")
    out = asof_join(left, right).to_pandas()
    return (
        out[["event_id", "user_id", "attr_event_id", "lag_us"]]
        .sort_values("event_id")
        .reset_index(drop=True)
    )


def _q_ngram_counts(sf_dir: str) -> pd.DataFrame:
    """Global top-50 bigrams by count (stages/text.py ngram_counts):
    per-batch unique-gram combiner, gram-hash bucketed sum + local top-k,
    exact global (count desc, ngram asc) sort+limit over the bounded
    survivors.  SQL oracle: list_zip bigrams + GROUP BY + LIMIT."""
    import ray.data

    from searchengines_ray.stages.text import ngram_counts

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    out = ngram_counts(docs, n=2, top_k=50).to_pandas()
    return out.reset_index(drop=True).astype({"cnt": "int64"})


def _q_length_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact per-language doc-length percentiles (p25/p50/p90/p99/max of
    n_chars) via the count-by-value histogram combiner
    (stages/rank.py grouped_quantiles): the shuffle moves distinct
    (lang, value) counts, never rows, and no global sort happens.  The
    percentile_disc threshold ceil(p*n) is computed in IEEE double on
    both sides (SQL CASTs p to DOUBLE) so the rounding regime agrees."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_quantiles

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )
    out = grouped_quantiles(
        docs,
        by="lang",
        val_col="n_chars",
        ps=[0.25, 0.5, 0.9, 0.99, 1.0],
        labels=["p25", "p50", "p90", "p99", "max"],
    ).to_pandas()
    return (
        out.sort_values(["lang", "p"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"value": "int64"})
    )


def _q_cooccurrence_counts(sf_dir: str) -> pd.DataFrame:
    """Top-50 directional skip-gram co-occurrence pairs within a
    2-position window (stages/text.py cooccurrence_counts) — the
    word2vec context-pair combiner plan."""
    import ray.data

    from searchengines_ray.stages.text import cooccurrence_counts

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    out = cooccurrence_counts(docs, window=2, top_k=50).to_pandas()
    return out.reset_index(drop=True).astype({"cnt": "int64"})


def _q_pmi_collocations(sf_dir: str) -> pd.DataFrame:
    """Top-30 bigram collocations by PMI (min count 5) — fully
    distributed two-shuffle plan (stages/text.py pmi_collocations): no
    model broadcast, survivors bounded by the count floor, scalar libm
    ln in micro-units (the frozen DuckDB ln contract)."""
    import ray.data

    from searchengines_ray.stages.text import pmi_collocations

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )
    out = pmi_collocations(docs, top_k=30, min_count=5).to_pandas()
    return out.reset_index(drop=True).astype(
        {"cab": "int64", "pmi_micro": "int64"}
    )


def _q_value_quantiles(sf_dir: str) -> pd.DataFrame:
    """Per-event-type latency-style percentiles of a FLOAT metric:
    value floored to integer milli-units first (the histogram-combiner
    quantile op is exact over bounded integer domains), then the same
    grouped_quantiles plan as length_quantiles."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_quantiles

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    def milli(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": b["event_type"],
                "value_milli": np.floor(
                    b["value"].to_numpy().astype(np.float64) * 1000.0
                ).astype(np.int64),
            }
        )

    out = grouped_quantiles(
        ev.map_batches(milli, batch_format="pandas"),
        by="event_type",
        val_col="value_milli",
        ps=[0.5, 0.9, 0.99, 1.0],
        labels=["p50", "p90", "p99", "max"],
    ).to_pandas()
    return (
        out.sort_values(["event_type", "p"], kind="mergesort")
        .reset_index(drop=True)
        .astype({"value": "int64"})
    )


def _q_grouped_topk(sf_dir: str) -> pd.DataFrame:
    """Exact top-3 documents per language by (char count desc, doc_id
    asc) — the combiner-first grouped top-k stage (stages/rank.py): each
    batch ships at most k rows per key through the single key-hash
    shuffle.  SQL oracle is the ROW_NUMBER window."""
    import ray.data

    from searchengines_ray.stages.rank import grouped_topk

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def measure(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(),
                "lang": b["lang"],
                "n_chars": b["text"].str.len().to_numpy().astype(np.int64),
            }
        )

    out = grouped_topk(
        docs.map_batches(measure, batch_format="pandas"),
        by="lang",
        val_col="n_chars",
        k=3,
        tie_col="doc_id",
    ).to_pandas()
    return (
        out.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_chars": "int64"})
    )


def _q_interval_attribution(sf_dir: str) -> pd.DataFrame:
    """Inner 1:N range join (stages/joins.py interval_join): every
    click/view matched with every purchase window [purchase_ts - 1h,
    purchase_ts] of the same user containing it — one key-hash shuffle +
    per-bucket vectorized searchsorted candidate ranges (rank-packed
    (key, ts) order), exact inclusive bounds in int64 microseconds."""
    import ray.data

    from searchengines_ray.stages.joins import interval_join

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def clicks(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[
            b["event_type"].isin({"click", "view"}),
            ["event_id", "user_id", "ts"],
        ]

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        p = b.loc[b["event_type"] == "purchase"]
        return pd.DataFrame(
            {
                "event_id": p["event_id"].to_numpy(),
                "user_id": p["user_id"].to_numpy(),
                "start_ts": p["ts"] - pd.Timedelta(hours=1),
                "end_ts": p["ts"],
            }
        )

    left = ev.map_batches(clicks, batch_format="pandas")
    right = ev.map_batches(windows, batch_format="pandas")
    out = interval_join(left, right).to_pandas()
    return (
        out[["event_id", "user_id", "iv_event_id"]]
        .sort_values(["event_id", "iv_event_id"])
        .reset_index(drop=True)
        .astype({"event_id": "int64", "user_id": "int64", "iv_event_id": "int64"})
    )


def _q_ivf_topk(sf_dir: str) -> pd.DataFrame:
    """IVF with nprobe == nlist (probe every bucket): the partitioned
    assign/probe/merge machinery must be LOSSLESS and reproduce the exact
    brute-force answer — checked against the same SQL oracle as ann_topk.
    The recall/nprobe trade-off (nprobe < nlist) is pinned by pytest."""
    from searchengines_ray.stages.similarity import IVFIndex

    emb = _emb(sf_dir)
    qdf = _min_vec_rows(emb, 3)
    queries = np.stack([np.asarray(v) for v in qdf["embedding"]]).astype(
        np.float64
    )
    ivf = IVFIndex(nlist=8).fit(emb).assign(emb)
    out = ivf.search(queries, k=10, nprobe=8)
    return out[["query_id", "vec_id", "rank"]].astype("int64")


def _q_similarity_join(sf_dir: str) -> pd.DataFrame:
    """Exact distributed all-pairs similarity join (cosine >= 0.4) over the
    embeddings table — O(n*P) replicated block join, never O(n^2) shuffle."""
    from searchengines_ray.stages.similarity import cosine_similarity_join

    out = cosine_similarity_join(_emb(sf_dir), threshold=0.4)
    df = out.to_pandas()
    df["cosine_r"] = np.floor(df.pop("cosine").to_numpy() * 1e4) / 1e4
    return (
        df.sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype({"doc_a": "int64", "doc_b": "int64"})
    )


def _q_sessionize(sf_dir: str) -> pd.DataFrame:
    """Session windows per user (30-min gap).  Value sums over pre-floored
    milli-units so the distributed aggregate is integer-exact vs SQL."""
    import ray.data

    from searchengines_ray.stages.windows import sessionize

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def prefloor(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["value"] = np.floor(batch["value"].to_numpy() * 1000.0)
        return batch

    ev = ev.map_batches(prefloor, batch_format="pandas")
    out = sessionize(ev, gap_minutes=30).to_pandas()
    out["sum_value_m"] = out["sum_value"].astype("int64")
    out["n_events"] = out["n_events"].astype("int64")
    out["user_id"] = out["user_id"].astype("int64")
    return (
        out[["user_id", "session_start", "session_end", "n_events", "sum_value_m"]]
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )


def _q_image_decode_real(sf_dir: str) -> pd.DataFrame:
    """REAL pixel decode (stages/imagecodec.py, pure numpy+zlib PNG): each
    doc plants a gradient image pixel[k] = (doc_id*31 + k) % 256 at dims
    (8 + id%5, 8 + id%7), PNG-encodes it, and the actor-pool decoder
    recovers the pixels; the oracle recomputes the pixel statistics from
    the formula WITHOUT decoding — so a match proves the codec round-trips
    real bytes."""
    import pyarrow as pa

    from searchengines_ray.stages.imagecodec import encode_png
    from searchengines_ray.stages.multimodal import decode_images

    docs = _docs(sf_dir, cols=("doc_id",))

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            w, h = 8 + d % 5, 8 + d % 7
            v = (np.arange(w * h * 3, dtype=np.int64) + d * 31) % 256
            payloads.append(
                encode_png(v.astype(np.uint8).reshape(h, w, 3))
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    imgs = decode_images(
        docs.map_batches(plant, batch_format="pyarrow"),
        batch_size=64,
    ).to_pandas()
    f = np.stack([np.asarray(x) for x in imgs["features"]])
    out = pd.DataFrame(
        {
            "doc_id": imgs["doc_id"].astype("int64"),
            "width": imgs["width"].astype("int64"),
            "height": imgs["height"].astype("int64"),
            "channels": imgs["channels"].astype("int64"),
            "pix_sum": f[:, 1].astype("int64"),
            "sum_c0": f[:, 2].astype("int64"),
            "pmin": f[:, 5].astype("int64"),
            "pmax": f[:, 6].astype("int64"),
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_image_resize_real(sf_dir: str) -> pd.DataFrame:
    """REAL decode + nearest-neighbor pixel resize: constant-color planted
    PNGs (color 32 + id%95 — single-byte UTF-8 so DuckDB can rebuild the
    resized buffer with repeat(chr(c))), dims 50..110 into a 64-box, and
    resized_hash = first 60 bits of sha256 over the RESIZED PIXEL BYTES —
    a true pixel-hash oracle."""
    import pyarrow as pa

    from searchengines_ray.stages.imagecodec import encode_png
    from searchengines_ray.stages.multimodal import resize_images

    docs = _docs(sf_dir, cols=("doc_id",))

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            w, h = 50 + (d % 7) * 10, 50 + (d % 5) * 15
            c = 32 + d % 95
            payloads.append(
                encode_png(np.full((h, w, 3), c, dtype=np.uint8))
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    out = resize_images(
        docs.map_batches(plant, batch_format="pyarrow"),
        max_dim=64,
    ).to_pandas()
    return (
        out[["doc_id", "out_w", "out_h", "resized_hash"]]
        .astype("int64")
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_trec_flow(sf_dir: str) -> pd.DataFrame:
    """S1->S3->S7 flow conformance: a param file and a query file round-trip
    through the real readers, the batch runs RankedBoolean (integer scores
    => Java Double.toString == '<n>.0', SQL-reproducible byte-for-byte), and
    the trec output file — including the zero-hit dummyRecord row
    (QryEval.java:1442-1467) — is read back and checked LINE-exactly."""
    import tempfile

    from searchengines_ray.sources.formats import (
        read_params,
        read_query_file,
        results_df_to_trec,
        validate_params,
    )

    qtexts = [("t1", "dup key"), ("t2", "#OR(dup window batch)"),
              ("t3", "zzz9nohit")]
    with tempfile.TemporaryDirectory() as td:
        qfile = os.path.join(td, "queries.qry")
        pfile = os.path.join(td, "run.param")
        tfile = os.path.join(td, "out.teIn")
        with open(qfile, "w") as f:
            for qid, qt in qtexts:
                f.write(f"{qid}:{qt}\n")
        with open(pfile, "w") as f:
            f.write(f"indexPath={_index_for(sf_dir, simple=True)}\n")
            f.write(f"queryFilePath={qfile}\n")
            f.write(f"trecEvalOutputPath={tfile}\n")
            f.write("retrievalAlgorithm=RankedBoolean\n")
            f.write("trecEvalOutputLength=10\n")
        params = read_params(pfile)
        validate_params(
            params, required=("indexPath", "queryFilePath",
                              "trecEvalOutputPath")
        )
        queries = read_query_file(params["queryFilePath"])
        eng = _engine(sf_dir, simple=True)
        res = eng.search_batch(
            queries, RankedBoolean(),
            k=int(params["trecEvalOutputLength"]),
        )
        results_df_to_trec(
            res, params["trecEvalOutputPath"], all_qids=[q for q, _ in queries]
        )
        with open(params["trecEvalOutputPath"]) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    rows = [(ln.split()[0], int(ln.split()[3]), ln) for ln in lines]
    return (
        pd.DataFrame(rows, columns=["qid", "rank", "line"])
        .astype({"rank": "int64"})
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )


def _q_prf_expansion(sf_dir: str) -> pd.DataFrame:
    """Indri PRF expansion terms on the FULL analyzer — SQL-checked via the
    closed-form expansion sum + the SQL stemmer CTEs.  Top-5 docs selected
    by the FLOORED Indri ranking (deterministic in both engines); doclen
    includes stopword positions (TermVector.positionsLength)."""
    from searchengines_ray.pipelines.prf import PrfParams, run_prf

    eng = _engine(sf_dir, simple=False)
    model = Indri(mu=1000.0, lam=0.4)
    qs = BM25_QUERIES[:4]
    res = eng.search_batch(qs, model, k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    top = res[res["rank"] <= 5]
    rankings = {
        qid: list(
            zip(
                top[top.qid == qid].doc_id.astype(int),
                top[top.qid == qid].score,
            )
        )
        for qid, _ in qs
    }
    _, exp_terms, _ = run_prf(
        eng, qs, model,
        PrfParams(num_docs=5, num_terms=8, mu=40.0, orig_weight=0.5),
        k=1, initial_rankings=rankings,
    )
    rows = []
    for qid, terms in exp_terms.items():
        for rank, (term, score) in enumerate(terms, 1):
            rows.append((qid, term, rank, np.floor(score * 1e12) / 1e12))
    return pd.DataFrame(rows, columns=["qid", "term", "rank", "score_r"])


DIVERSITY_INTENTS = {
    "q3": ["spark", "join window"],
    "q4": ["customer", "query fast"],
}


def _q_diversity(sf_dir: str, algorithm: str) -> pd.DataFrame:
    """xQuAD / PM2 diversification — SQL-checked via a recursive-CTE greedy
    that replicates the engine's float expression trees exactly (left-fold
    products/sums in selection order, TreeMap tie-break = (score desc,
    index desc)).  Input rankings are FLOORED to 1e-6 so both engines feed
    the greedy identical reals."""
    from searchengines_ray.pipelines.diversity import diversify

    eng = _engine(sf_dir, simple=False)
    flat = [(q, t) for q, t in BM25_QUERIES if q in DIVERSITY_INTENTS]
    for qid, its in DIVERSITY_INTENTS.items():
        for j, it in enumerate(its, 1):
            flat.append((f"{qid}.{j}", it))
    res = eng.search_batch(flat, BM25(), k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    res = res[res["rank"] <= 20]
    rankings = {
        qid: list(
            zip(res[res.qid == qid].url, res[res.qid == qid].score_r)
        )
        for qid, _ in flat
    }
    rows = []
    for qid in DIVERSITY_INTENTS:
        ilists = [[]] + [
            rankings.get(f"{qid}.{j}", [])
            for j in range(1, len(DIVERSITY_INTENTS[qid]) + 1)
        ]
        ranked = diversify(
            qid, rankings.get(qid, []), ilists, algorithm=algorithm,
            lam=0.6, max_input=20, max_result=10, trec_len=10,
        )
        for rank, (url, score) in enumerate(ranked, 1):
            rows.append((qid, url, rank, np.floor(score * 1e9) / 1e9))
    return pd.DataFrame(rows, columns=["qid", "url", "rank", "score_r"])


def _q_diversity_xquad(sf_dir: str) -> pd.DataFrame:
    return _q_diversity(sf_dir, "xQuAD")


def _q_diversity_pm2(sf_dir: str) -> pd.DataFrame:
    return _q_diversity(sf_dir, "PM2")


def _q_ltr_features(sf_dir: str) -> pd.DataFrame:
    """LTR features over top-5 BM25 candidates on the FULL analyzer —
    SQL-checked like ltr_features_simple, plus the stemmer CTEs and
    stopword-inclusive field lengths (TermVector.positionsLength)."""
    from searchengines_ray.analysis import tokenize
    from searchengines_ray.pipelines.ltr import extract_features

    eng = _engine(sf_dir, simple=False)
    res = eng.search_batch(BM25_QUERIES, BM25(), k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    cands = res[res["rank"] <= 5]

    def fl(v):
        return np.floor((0.0 if v is None else float(v)) * 1e6) / 1e6

    rows = []
    for qid, qtext in BM25_QUERIES:
        sub = cands[cands["qid"] == qid]
        docs = [(0, int(r.doc_id), r.url) for r in sub.itertuples()]
        if not docs:
            continue
        qv: dict[str, int] = {}
        for t in tokenize(qtext):
            qv[t] = qv.get(t, 0) + 1
        fvs = extract_features(
            eng, qid, qv, docs, BM25(), Indri(mu=1000.0, lam=0.4)
        )
        for fv in fvs:
            rows.append(
                (
                    qid,
                    fv.external_id,
                    fl(fv.features[5]),
                    fl(fv.features[6]),
                    int(fv.features[7] or 0),
                    fl(fv.features[18]),
                    fl(fv.features[20]),
                )
            )
    return pd.DataFrame(
        rows,
        columns=["qid", "url", "f5_r", "f6_r", "f7", "f18_r", "f20_r"],
    ).sort_values(["qid", "url"]).reset_index(drop=True)


def _q_ltr_features_simple(sf_dir: str) -> pd.DataFrame:
    """LTR feature extraction (QryEval.java:560-883 semantics) over top-5
    BM25 candidates on the SIMPLE analyzer — the feature formulas (f5 BM25
    body, f6 Indri body, f7 match count, f18 title cosine with the
    unsquare-rooted doc magnitude quirk, f20 body rarest-Zipf) are all
    SQL-expressible, so the whole real feature code path (term vectors,
    global df/ctf, per-field stats) gets a hard DuckDB check."""
    from searchengines_ray.analysis import tokenize
    from searchengines_ray.pipelines.ltr import extract_features

    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(BM25_QUERIES, BM25(), k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    cands = res[res["rank"] <= 5]

    def fl(v):
        return np.floor((0.0 if v is None else float(v)) * 1e6) / 1e6

    rows = []
    for qid, qtext in BM25_QUERIES:
        sub = cands[cands["qid"] == qid]
        docs = [(0, int(r.doc_id), r.url) for r in sub.itertuples()]
        if not docs:
            continue
        qv: dict[str, int] = {}
        for t in tokenize(qtext, SIMPLE_ANALYZER):
            qv[t] = qv.get(t, 0) + 1
        fvs = extract_features(
            eng, qid, qv, docs, BM25(), Indri(mu=1000.0, lam=0.4)
        )
        for fv in fvs:
            rows.append(
                (
                    qid,
                    fv.external_id,
                    fl(fv.features[5]),
                    fl(fv.features[6]),
                    int(fv.features[7] or 0),
                    fl(fv.features[18]),
                    fl(fv.features[20]),
                )
            )
    return pd.DataFrame(
        rows,
        columns=["qid", "url", "f5_r", "f6_r", "f7", "f18_r", "f20_r"],
    ).sort_values(["qid", "url"]).reset_index(drop=True)


_NORM_FEATS = (5, 6, 7, 18, 20)


def _q_ltr_norm(sf_dir: str) -> pd.DataFrame:
    """A4: per-query min-max feature normalization (SVM mode) incl. the
    diff==0 leave-unchanged quirk (QryEval.java:706-736), applied by the
    REAL ``normalize_features`` code path to the gate-pinned (floored)
    ltr_features_simple values — flooring first makes both engines
    normalize bit-identical inputs."""
    from searchengines_ray.pipelines.ltr import DocFeatures, normalize_features

    base = _q_ltr_features_simple(sf_dir)
    vals = {5: "f5_r", 6: "f6_r", 7: "f7", 18: "f18_r", 20: "f20_r"}
    rows = []
    for qid, sub in base.groupby("qid", sort=True):
        fvs = [
            DocFeatures(
                0, 0, r.url, qid,
                {i: float(getattr(r, c)) for i, c in vals.items()},
            )
            for r in sub.itertuples()
        ]
        normalize_features(fvs)
        for fv in fvs:
            rows.append(
                (qid, fv.external_id)
                + tuple(
                    np.floor(fv.features[i] * 1e6) / 1e6 for i in _NORM_FEATS
                )
            )
    return (
        pd.DataFrame(
            rows,
            columns=["qid", "url", "f5_n", "f6_n", "f7_n", "f18_n", "f20_n"],
        )
        .sort_values(["qid", "url"])
        .reset_index(drop=True)
    )


def _q_ltr_fields(sf_dir: str) -> pd.DataFrame:
    """Per-field LTR features f8-f13 ({BM25, Indri, match count} x {title,
    url}), f17 (url idf-weighted match: sum tf*ln(N/df)) and f19 (title
    1/min-gap between matched positions; 0.0 at exactly one match) —
    QryEval.java:605-704,860-880 — over the same top-5 BM25 candidates as
    ltr_features_simple; closes the F2/F3 per-field rows with a hard SQL
    check (title = first text line, url = synthetic url tokens)."""
    from searchengines_ray.analysis import tokenize
    from searchengines_ray.pipelines.ltr import extract_features

    eng = _engine(sf_dir, simple=True)
    res = eng.search_batch(BM25_QUERIES, BM25(), k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    cands = res[res["rank"] <= 5]

    def fl(v):
        return np.floor((0.0 if v is None else float(v)) * 1e6) / 1e6

    rows = []
    for qid, qtext in BM25_QUERIES:
        sub = cands[cands["qid"] == qid]
        docs = [(0, int(r.doc_id), r.url) for r in sub.itertuples()]
        if not docs:
            continue
        qv: dict[str, int] = {}
        for t in tokenize(qtext, SIMPLE_ANALYZER):
            qv[t] = qv.get(t, 0) + 1
        fvs = extract_features(
            eng, qid, qv, docs, BM25(), Indri(mu=1000.0, lam=0.4)
        )
        for fv in fvs:
            rows.append(
                (
                    qid,
                    fv.external_id,
                    fl(fv.features[8]),
                    fl(fv.features[9]),
                    int(fv.features[10] or 0),
                    fl(fv.features[11]),
                    fl(fv.features[12]),
                    int(fv.features[13] or 0),
                    fl(fv.features[17]),
                    fl(fv.features[19]),
                )
            )
    return pd.DataFrame(
        rows,
        columns=[
            "qid", "url", "f8_r", "f9_r", "f10", "f11_r", "f12_r", "f13",
            "f17_r", "f19_r",
        ],
    ).sort_values(["qid", "url"]).reset_index(drop=True)


def _q_ltr_rerank(sf_dir: str) -> pd.DataFrame:
    """R3 end-to-end LTR flow: BM25 candidates -> feature extraction ->
    pairwise-logistic training -> classify -> re-rank (score desc, extid
    asc) -> truncate (QryEval.java:892-949 contract).  Deterministic and
    SQL-expressible because one gradient iteration from w=0 is closed form
    (sigma(0)=0.5): w = lr * 0.5 * mean over preference pairs of
    (x_a - x_b).  rel = 1 for the top-2 docs by (f5_r desc, url asc)."""
    from searchengines_ray.pipelines.ltr import (
        DocFeatures,
        classify,
        rerank,
        train_pairwise_logistic,
    )

    base = _q_ltr_features_simple(sf_dir)
    vals = {5: "f5_r", 6: "f6_r", 7: "f7", 18: "f18_r", 20: "f20_r"}
    fvs = []
    for qid, sub in base.groupby("qid", sort=True):
        order = sub.sort_values(
            ["f5_r", "url"], ascending=[False, True], kind="mergesort"
        )
        rel_of = {r.url: (1 if i < 2 else 0) for i, r in enumerate(order.itertuples())}
        for r in sub.itertuples():
            fvs.append(
                DocFeatures(
                    rel_of[r.url], 0, r.url, qid,
                    {i: float(getattr(r, c)) for i, c in vals.items()},
                )
            )
    w = train_pairwise_logistic(fvs, iters=1, lr=0.1)
    scores = np.floor(classify(fvs, w) * 1e6) / 1e6
    per_q = rerank(fvs, scores, top_n=3)
    rows = [
        (qid, url, rank, score)
        for qid, lst in per_q.items()
        for rank, (url, score) in enumerate(lst, 1)
    ]
    return (
        pd.DataFrame(rows, columns=["qid", "url", "rank", "score_r"])
        .astype({"rank": "int64"})
        .sort_values(["qid", "rank"])
        .reset_index(drop=True)
    )


def _q_inspect_postings(sf_dir: str) -> pd.DataFrame:
    """S11 inspector parity (InspectIndex.java:468-524 listPostings): per
    query term the dictionary stats (df, ctf) plus the first-3 postings by
    url asc with tf — read from the COMMITTED SEGMENT FILES through the
    inspector module, oracle-checked against the tokenizer contract SQL.
    The absent term produces no rows on both sides."""
    from searchengines_ray.index.inspect import postings_dump

    idx = _index_for(sf_dir, simple=True)
    out = postings_dump(
        idx,
        ["dup", "key", "window", "batch", "data", "zzz9nohit"],
        field="body",
        k=3,
    )
    return out.sort_values(["term", "rank"]).reset_index(drop=True)


def _q_inspect_termvector(sf_dir: str) -> pd.DataFrame:
    """S11 inspector parity (InspectIndex.java:568-668 listTermVectors):
    full per-position body term vectors for the first 3 docs from the
    forward index — position order is load-bearing (the positional
    operators consume it), so the oracle rebuilds it with the
    list_zip(l, range()) idiom."""
    from searchengines_ray.index.inspect import term_vector

    idx = _index_for(sf_dir, simple=True)
    frames = [
        term_vector(idx, f"https://example.org/doc/{d:012d}", field="body")
        for d in range(3)
    ]
    out = pd.concat(frames, ignore_index=True)
    return (
        out[["url", "pos", "term"]]
        .sort_values(["url", "pos"])
        .reset_index(drop=True)
    )


def _q_html_extract(sf_dir: str) -> pd.DataFrame:
    """HTML -> text extraction with the input contract's BYTE-IDENTITY
    invariant: each doc's text is entity-escaped, wrapped in markup with
    script/style/comment noise, extracted back by sources/pages.py
    extract_text, and hashed with the 131 char fold; the oracle hashes
    the ORIGINAL text — a match proves extraction recovered every byte."""
    from searchengines_ray.sources.pages import extract_pages

    docs = _docs(sf_dir)

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        htmls = []
        for t in b["text"].fillna(""):
            esc = (
                t.replace("&", "&amp;")
                .replace("<", "&lt;")
                .replace(">", "&gt;")
            )
            body = "<p>" + esc.replace("\n", "</p>\n<p>") + "</p>"
            htmls.append(
                (
                    "<html><head><title></title>"
                    "<script>var a = '<p>not text</p>';</script>"
                    "<style>p{margin:0}</style></head><body>"
                    + body
                    + "<!-- crawler noise --></body></html>"
                ).encode()
            )
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"), "html": htmls}
        )

    def hash_out(b: pd.DataFrame) -> pd.DataFrame:
        hs = []
        for t in b["text"]:
            h = 0
            for c in t:
                h = (h * 131 + ord(c)) % 2147483647
            hs.append(h)
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"],
                "n_chars_extracted": pd.array(
                    [len(t) for t in b["text"]], dtype="int64"
                ),
                "text_hash": pd.array(hs, dtype="int64"),
            }
        )

    out = (
        extract_pages(docs.map_batches(plant, batch_format="pandas"))
        .map_batches(hash_out, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_knn_join(sf_dir: str) -> pd.DataFrame:
    """Dataset-to-dataset exact k-NN join: left = the vec_id%50==0 slice,
    right = all embeddings; O(nL*P + nR) replication shuffle, per-group
    matmul combiner, per-left merge — never an O(nL*nR) exchange."""
    import ray.data

    from searchengines_ray.stages.similarity import knn_join

    emb = _emb(sf_dir)
    left = emb.map_batches(
        lambda b: b.loc[b["vec_id"] % 50 == 0], batch_format="pandas"
    )
    out = knn_join(left, emb, k=5).to_pandas()
    return (
        out[["query_id", "vec_id", "rank"]]
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
        .astype("int64")
    )


def _q_bloom_blocklist(sf_dir: str) -> pd.DataFrame:
    """Bloom-filter membership pre-filter: build the m=2^17-bit filter
    over the blocklist corpus's distinct tokens (docs with doc_id%7==0),
    then test every distinct token of the doc_id%11==0 slice.
    Deterministic INCLUDING false positives — the SQL oracle computes
    the identical bit union from the same mod-(2^31-1) char folds."""
    from searchengines_ray.stages.sketch import bloom_build, bloom_member

    def slice_of(mod: int):
        return _docs(sf_dir).map_batches(
            lambda b, m=mod: b.loc[b["doc_id"] % m == 0],
            batch_format="pandas",
        )

    def plant_novel(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        # the shared synthetic vocabulary makes every real token a member
        # — append one novel word per doc so the 0 verdicts (and any
        # deterministic false positive) are exercised too
        b["text"] = b["text"].fillna("") + " novelw" + b[
            "doc_id"
        ].astype(str)
        return b

    bits = bloom_build(slice_of(7), m=1 << 17, k=4)
    out = bloom_member(
        slice_of(11).map_batches(plant_novel, batch_format="pandas"),
        bits,
        k=4,
    ).to_pandas()
    return (
        out.sort_values("term")
        .reset_index(drop=True)
        .astype({"in_bloom": "int64"})
    )


def _q_left_outer_join(sf_dir: str) -> pd.DataFrame:
    """Distributed LEFT OUTER equi-join (hash_equijoin how='left'):
    every document row survives; label payload from the vec_id%3==0
    slice of embeddings, unmatched rows take the typed -1 placeholder.
    One key-hash exchange."""
    import ray.data

    from searchengines_ray.stages.joins import hash_equijoin

    docs = _docs(sf_dir, cols=("doc_id", "n_chars"))
    emb = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    ).map_batches(
        lambda b: b.loc[b["vec_id"] % 3 == 0].astype(
            {"vec_id": "int64", "label": "int64"}
        ),
        batch_format="pandas",
    )
    out = hash_equijoin(
        docs, emb, "doc_id", "vec_id", right_cols=("label",), how="left"
    ).to_pandas()
    return (
        out[["doc_id", "n_chars", "r_label"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )


def _q_canonicalize_urls(sf_dir: str) -> pd.DataFrame:
    """URL canonicalization (the CC curation step before url-dedup):
    planted noisy urls (upper-case scheme/host, default port, tracking
    params, fragments, trailing slash) canonicalize through the frozen
    5-step chain; the oracle CONSTRUCTS the expected canonical form
    closed-form from doc_id, so a match proves every step fired."""
    from searchengines_ray.stages.text import canonicalize_urls

    docs = _docs(sf_dir, cols=("doc_id",))

    def plant(b: pd.DataFrame) -> pd.DataFrame:
        urls = []
        for d in b["doc_id"]:
            u = f"HTTP://ExAmple{d % 5}.COM"
            if d % 2 == 0:
                u += ":80"
            u += f"/Path{d}"
            if d % 2 == 1:
                u += "/"
            if d % 3 != 0:
                u += f"?id={d}&utm_source=x"
                if d % 5 == 0:
                    u += "&gclid=99"
            u += f"#frag{d}"
            urls.append(u)
        return pd.DataFrame(
            {"doc_id": b["doc_id"].astype("int64"), "url": urls}
        )

    out = canonicalize_urls(
        docs.map_batches(plant, batch_format="pandas")
    ).to_pandas()
    return (
        out[["doc_id", "url_canon", "host"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_gopher_filter(sf_dir: str) -> pd.DataFrame:
    """Composite Gopher/MassiveText quality filter (per-rule pass flags +
    conjunction), every rule an integer comparison — zero float rounding
    in the contract.  Shuffle-free fused pass."""
    from searchengines_ray.stages.text import gopher_filter

    out = gopher_filter(_docs(sf_dir)).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True).astype("int64")


def _q_pack_sequences(sf_dir: str) -> pd.DataFrame:
    """GPT-style packed-pretraining layout: per-bucket concatenated token
    streams chunked into 512-token sequences; each doc reports its offset
    and first/last sequence index.  One coarse 8-way shuffle."""
    from searchengines_ray.stages.text import pack_sequences

    out = pack_sequences(_docs(sf_dir), seq_len=512, buckets=8).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )


def _q_lm_quality_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet-style head/middle/tail perplexity bucketing: capped-vocab
    unigram LM scores, per-token float64 normalization (never integer
    division — Python/DuckDB negative // semantics differ), exact
    histogram terciles.  Driver holds two threshold integers."""
    from searchengines_ray.stages.text import lm_quality_buckets

    out = lm_quality_buckets(_docs(sf_dir), max_vocab=1000).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "score_pt": "int64"})
    )


def _q_ngram_contamination(sf_dir: str) -> pd.DataFrame:
    """GPT-3-style exact n-gram decontamination (Brown et al. 2020):
    benchmark = docs with doc_id % 97 == 0, flag corpus docs sharing any
    5-gram with it.  Benchmark gram set broadcast once (bounded — eval
    suites are never corpus-sized); corpus side is one shuffle-free
    per-unique-gram pass."""
    from searchengines_ray.stages.text import ngram_contamination

    docs = _docs(sf_dir)
    bench_texts = list(
        docs.map_batches(
            lambda b: b.loc[b["doc_id"] % 97 == 0, ["text"]],
            batch_format="pandas",
        ).to_pandas()["text"]
    )
    out = ngram_contamination(docs, bench_texts, n=5).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype("int64")
    )


def _q_audio_features(sf_dir: str) -> pd.DataFrame:
    """REAL audio decode (RIFF/WAVE PCM16, stdlib struct — no codec lib):
    each doc plants a WAV whose samples follow
    sample[k] = ((doc_id*7 + k*13) % 4001) - 2000, the actor-pool
    AudioFeaturizer decodes the bytes and computes exact-integer stats
    (sum_abs, peak, VAD-style energy_frames), and the oracle recomputes
    them straight from the formula — a match proves the decoder recovered
    the exact PCM stream."""
    import pyarrow as pa

    from searchengines_ray.stages.multimodal import (
        encode_wav,
        featurize_audio,
    )

    docs = _docs(sf_dir, cols=("doc_id",))

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            n = 1200 + d % 800
            v = (
                (np.arange(n, dtype=np.int64) * 13 + d * 7) % 4001
            ) - 2000
            payloads.append(
                encode_wav(v.astype(np.int16), rate=16000, n_ch=1)
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    out = featurize_audio(
        docs.map_batches(plant, batch_format="pyarrow"),
        batch_size=64,
        frame_abs_threshold=1 << 20,
    ).to_pandas()
    return (
        out[
            [
                "doc_id",
                "sample_rate",
                "n_channels",
                "n_samples",
                "sum_abs",
                "peak",
                "energy_frames",
            ]
        ]
        .astype("int64")
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_ltr_ranklib_flow(sf_dir: str) -> pd.DataFrame:
    """S9+S10 RankLib-mode flow driven END-TO-END: per-doc features ->
    BOTH feature-file dialects (RankLib writes ``i:0`` for null, SVM omits
    — FeatureVectorFileLine.java:21-63) -> the RankLib file is written to
    disk and read BACK via read_feature_vectors -> stand-in
    pairwise-logistic training (1 closed-form iteration from w=0) ->
    integer micro-unit classify.  The oracle rebuilds the lines
    byte-for-byte AND the trained weights from the same closed form
    (integer feature sums are float64-exact, so w is deterministic), so
    both file dialects and the train/classify loop are SQL-checked.
    Feature 3 is deliberately null for doc_id % 3 == 0 to exercise the
    write-0-vs-omit divergence."""
    import tempfile

    from searchengines_ray.pipelines.ltr import (
        DocFeatures,
        train_pairwise_logistic,
    )
    from searchengines_ray.sources.formats import (
        feature_vector_line,
        read_feature_vectors,
    )

    def feats(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["doc_id"] < 60]
        texts = b["text"].fillna("").str.lower()
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype("int64"),
                "f1": b["n_chars"].astype("int64"),
                "f2": texts.str.count("[0-9a-z]+").astype("int64"),
                "f3": texts.str.count("e").astype("int64"),
            }
        )

    df = (
        _docs(sf_dir, cols=("doc_id", "text", "n_chars"))
        .map_batches(feats, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    disabled = frozenset(range(4, 21))
    rows, svm_lines, rl_lines = [], [], []
    for r in df.itertuples():
        rel = 1 if r.doc_id % 5 == 0 else 0
        qid = str(r.doc_id % 4)
        extid = f"doc{r.doc_id}"
        f3 = None if r.doc_id % 3 == 0 else float(r.f3)
        fd = {1: float(r.f1), 2: float(r.f2), 3: f3}
        rows.append((rel, qid, extid))
        svm_lines.append(
            feature_vector_line(rel, qid, fd, extid, True, disabled=disabled)
        )
        rl_lines.append(
            feature_vector_line(rel, qid, fd, extid, False, disabled=disabled)
        )
    with tempfile.NamedTemporaryFile(
        "w", suffix=".fv", delete=False
    ) as f:
        f.write("\n".join(rl_lines) + "\n")
        path = f.name
    parsed = read_feature_vectors(path)
    os.unlink(path)
    assert [(p[0], p[1], p[3]) for p in parsed] == rows  # lossless read-back
    fvs = [
        DocFeatures(rel, 0, extid, qid, fmap)
        for rel, qid, fmap, extid in parsed
    ]
    w = train_pairwise_logistic(fvs, iters=1, lr=0.1)
    w_micro = np.floor(w * 1e9).astype(np.int64)
    score_m = [
        sum(
            int(fmap.get(i, 0.0)) * int(w_micro[i - 1]) for i in range(1, 4)
        )
        for _, _, fmap, _ in parsed
    ]
    out = pd.DataFrame(
        {
            "qid": [q for _, q, _ in rows],
            "extid": [e for _, _, e in rows],
            "rel": pd.array([r for r, _, _ in rows], dtype="int64"),
            "ranklib_line": rl_lines,
            "svm_line": svm_lines,
            "score_m": pd.array(score_m, dtype="int64"),
        }
    )
    return out.sort_values(["qid", "extid"]).reset_index(drop=True)


def _q_prf_expansion_simple(sf_dir: str) -> pd.DataFrame:
    """Indri PRF expansion terms on the SIMPLE analyzer — the reference's
    incremental back-fill accumulation (QryEval.java:1218-1306) equals the
    closed form sum_d p(q|d)*ln(L/ctf)*(tf+mu*ptc)/(dl+mu), so DuckDB can
    reproduce it.  Top-5 docs are selected by the FLOORED Indri ranking
    (deterministic across engines); expansion scores floored to 1e-12."""
    from searchengines_ray.pipelines.prf import PrfParams, run_prf

    eng = _engine(sf_dir, simple=True)
    model = Indri(mu=1000.0, lam=0.4)
    qs = BM25_QUERIES[:4]
    res = eng.search_batch(qs, model, k=None)
    res = res.copy()
    res["score_r"] = np.floor(res["score"].to_numpy() * 1e6) / 1e6
    res = res.sort_values(
        ["qid", "score_r", "url"], ascending=[True, False, True],
        kind="mergesort",
    )
    res["rank"] = res.groupby("qid").cumcount() + 1
    top = res[res["rank"] <= 5]
    rankings = {
        qid: list(
            zip(
                top[top.qid == qid].doc_id.astype(int),
                top[top.qid == qid].score,  # RAW scores feed the formula
            )
        )
        for qid, _ in qs
    }
    _, exp_terms, _ = run_prf(
        eng, qs, model,
        PrfParams(num_docs=5, num_terms=8, mu=40.0, orig_weight=0.5),
        k=1, initial_rankings=rankings,
    )
    rows = []
    for qid, terms in exp_terms.items():
        for rank, (term, score) in enumerate(terms, 1):
            rows.append(
                (qid, term, rank, np.floor(score * 1e12) / 1e12)
            )
    return pd.DataFrame(rows, columns=["qid", "term", "rank", "score_r"])


def _q_vocab_growth(sf_dir: str) -> pd.DataFrame:
    """Heaps-law vocabulary growth over doc_id-ordered prefixes — integer-
    exact (per-term MIN first occurrence + histogram cumsum)."""
    from searchengines_ray.stages.text import vocab_growth

    return vocab_growth(_docs(sf_dir), steps=10)


def _q_source_kl(sf_dir: str) -> pd.DataFrame:
    """Per-source unigram KL divergence from the corpus blend (nano-unit
    floored terms, order-free integer sums) — the data-mixing diagnostic."""
    from searchengines_ray.stages.text import source_kl_divergence

    return source_kl_divergence(
        _docs(sf_dir, cols=("doc_id", "text", "source"))
    )


def _q_word_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-doc Shannon token entropy in floored micro-nats (the
    low-entropy gibberish/boilerplate quality filter) — order-free integer
    sums under the frozen libm ln contract."""
    from searchengines_ray.stages.text import word_entropy

    out = word_entropy(_docs(sf_dir)).to_pandas()
    return (
        out.astype(
            {"doc_id": "int64", "n_tokens": "int64", "entropy_micro": "int64"}
        )
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_rrf_fusion(sf_dir: str) -> pd.DataFrame:
    """Reciprocal-rank fusion of two retrieval runs (Cormack et al. 2009,
    rrf = sum over runs of 1/(60 + rank)) — the standard hybrid-retrieval
    mixer of a training-data pipeline.  Runs: BM25 and Indri over the
    simple analyzer, each ranked by the 1e-6-floored score (tie url asc);
    both runs score the same union-of-matching-docs set, so fusion is an
    inner join.  The rrf value is bit-exact across engines (two exact
    integer-reciprocal divisions and one add)."""
    eng = _engine(sf_dir, simple=True)
    qs = BM25_QUERIES  # q5 (no-hit) contributes zero rows on both sides
    a = _simple_ranked(
        eng.search_batch(qs, BM25(), k=None), k=10**9
    )
    b = _simple_ranked(
        eng.search_batch(qs, Indri(mu=1000.0, lam=0.4), k=None), k=10**9
    )
    m = a.merge(b, on=["qid", "url"], suffixes=("_b", "_i"))
    m["rrf"] = 1.0 / (60 + m["rank_b"].to_numpy()) + 1.0 / (
        60 + m["rank_i"].to_numpy()
    )
    m = m.sort_values(
        ["qid", "rrf", "url"], ascending=[True, False, True],
        kind="mergesort",
    ).reset_index(drop=True)
    m["rank"] = (m.groupby("qid").cumcount() + 1).astype("int64")
    m = m[m["rank"] <= 10]
    return m[["qid", "rank", "url", "rrf"]].reset_index(drop=True)


def _q_prf_from_ranking(sf_dir: str) -> pd.DataFrame:
    """File-sourced PRF end-to-end through the REAL flow (run_param_file
    with prf:initialRankingFile — QryEval.java:1333-1368): a deterministic
    initial ranking (doc = (qi*37 + j*13) % N, score 8-j) is written as a
    TREC file, read back by the S5 reader, expanded (Indri PRF mu=40,
    5 docs, 8 terms), and the expanded #WAND re-scores the corpus; the S7
    writer's output is read back and compared against a closed-form SQL
    reproduction of the whole chain (expansion sums + sticky-0.5 #WAND
    Indri scoring).  Scores floored to 1e-6 (both sides) before ranking
    and output — the diversity entries' float contract."""
    import math
    import tempfile

    from searchengines_ray.pipelines.retrieval import run_param_file
    from searchengines_ray.sources.formats import (
        read_trec_ranking,
        trec_lines,
    )

    eng = _engine(sf_dir, simple=False)
    n_docs = int(eng.stats["n_docs"])
    qs = BM25_QUERIES[:3]
    with tempfile.TemporaryDirectory() as td:
        qfile = os.path.join(td, "q.qry")
        rfile = os.path.join(td, "initial.teIn")
        pfile = os.path.join(td, "run.param")
        tfile = os.path.join(td, "out.teIn")
        with open(qfile, "w") as f:
            for qid, qt in qs:
                f.write(f"{qid}:{qt}\n")
        with open(rfile, "w") as f:
            for qi, (qid, _) in enumerate(qs, 1):
                ranking = [
                    (
                        "https://example.org/doc/"
                        f"{(qi * 37 + j * 13) % n_docs:012d}",
                        float(8 - j),
                    )
                    for j in range(5)
                ]
                f.write("\n".join(trec_lines(qid, ranking, "init")) + "\n")
        with open(pfile, "w") as f:
            f.write(f"indexPath={_index_for(sf_dir, simple=False)}\n")
            f.write(f"queryFilePath={qfile}\n")
            f.write(f"trecEvalOutputPath={tfile}\n")
            f.write("retrievalAlgorithm=Indri\n")
            f.write("Indri:mu=1000\nIndri:lambda=0.4\n")
            f.write("prf=Indri\nprf:numDocs=5\nprf:numTerms=8\n")
            f.write("prf:Indri:mu=40.0\nprf:Indri:origWeight=0.5\n")
            f.write(f"prf:initialRankingFile={rfile}\n")
            # full ranking through the file: truncation must happen AFTER
            # the 1e-6 flooring (a full-precision top-10 cut can drop a doc
            # that TIES at the boundary once floored — the diversity lesson)
            f.write(f"trecEvalOutputLength={n_docs}\n")
        run_param_file(pfile, eng)
        back = read_trec_ranking(tfile)
    rows = []
    for qid, ranking in back.items():
        for url, score in ranking:
            rows.append((qid, url, math.floor(score * 1e6) / 1e6))
    out = pd.DataFrame(rows, columns=["qid", "url", "score_r"])
    # rank on the FLOORED score (tie url asc) so engine-vs-SQL agreement
    # needs 1e-6-level equality, not bit-identical pow/product ordering
    out = out.sort_values(
        ["qid", "score_r", "url"],
        ascending=[True, False, True],
        kind="mergesort",
    ).reset_index(drop=True)
    out["rank"] = (out.groupby("qid").cumcount() + 1).astype("int64")
    out = out[out["rank"] <= 10]
    return out[["qid", "rank", "url", "score_r"]].reset_index(drop=True)


def _q_frame_sample_real(sf_dir: str) -> pd.DataFrame:
    """REAL video decode (uncompressed RIFF/AVI, stdlib-pure — the WAV
    parser's RIFF sibling, stages/multimodal.py decode_avi): each doc
    plants an AVI whose frame i is a solid color 32 + (id*7 + i*13) % 95
    at dims (8 + id%5, 8 + id%7), n_frames = 1 + id%12; the sampler
    decodes real pixels and hashes the RGB buffer, and the oracle
    rebuilds each sampled frame's buffer with repeat(chr(c)) WITHOUT
    decoding — so a match proves the container round-trips real bytes."""
    import pyarrow as pa

    from searchengines_ray.stages.multimodal import encode_avi, sample_frames

    docs = _docs(sf_dir, cols=("doc_id",))

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            w, h = 8 + d % 5, 8 + d % 7
            frames = [
                np.full((h, w, 3), 32 + (d * 7 + i * 13) % 95, np.uint8)
                for i in range(1 + d % 12)
            ]
            payloads.append(encode_avi(frames, fps=24))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    frames = sample_frames(
        docs.map_batches(plant, batch_format="pyarrow"),
        every_n=3,
    ).to_pandas()
    return (
        frames.sort_values(["doc_id", "frame_idx"])
        .reset_index(drop=True)
        .astype(
            {"doc_id": "int64", "frame_idx": "int64", "frame_hash": "int64"}
        )
    )


def _q_winnowing(sf_dir: str) -> pd.DataFrame:
    """MOSS winnowing fingerprints (stages/text.py winnow_fingerprints;
    Schleimer/Wilkerson/Aiken SIGMOD 2003): per doc, rightmost-tie window
    minima over the 4-word-shingle hash stream; every selected
    (pos, gram_hash) row reproduced bit-for-bit by the SQL mirror."""
    from searchengines_ray.stages.text import winnow_fingerprints

    out = winnow_fingerprints(_docs(sf_dir)).to_pandas()
    return (
        out.sort_values(["doc_id", "pos"])
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "pos": "int64", "gram_hash": "int64"})
    )


def _q_zipf_fit(sf_dir: str) -> pd.DataFrame:
    """Zipf rank-frequency OLS components (stages/text.py zipf_fit) over
    the capped top-1000 vocabulary — integer micro-unit sums, the
    components-only division contract (label_centroids pattern)."""
    from searchengines_ray.stages.text import zipf_fit

    return zipf_fit(_docs(sf_dir), max_vocab=1000)


def _q_boilerplate(sf_dir: str) -> pd.DataFrame:
    """RefinedWeb-style global frequent-line removal (stages/dedup.py
    boilerplate_filter): every >=10-char line appearing in >1 distinct
    docs is dropped from ALL docs.  Identity at sf0.01 (no cross-doc
    repeated lines — same corpus property as line_dedup); sf0.1 has 8
    boilerplate lines; planted-fixture behavior pinned by pytest."""
    from searchengines_ray.stages.dedup import boilerplate_filter

    out = boilerplate_filter(_docs(sf_dir), min_chars=10, max_docs=1).to_pandas()
    return (
        out[["doc_id", "text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64"})
    )


def _q_random_projection(sf_dir: str) -> pd.DataFrame:
    """Achlioptas sparse random projection (stages/similarity.py
    random_projection): 64 -> 16 dims through the fixed {-1,0,+1}
    hash matrix over micro-quantized inputs — every output cell an
    order-free int64 sum, bit-identical to the SQL mirror."""
    from searchengines_ray.stages.similarity import random_projection

    out = random_projection(_emb(sf_dir), d_out=16).to_pandas()
    return (
        out[["vec_id", "dim", "proj"]]
        .sort_values(["vec_id", "dim"])
        .reset_index(drop=True)
        .astype({"vec_id": "int64", "dim": "int64", "proj": "int64"})
    )


_BLOCK_PHRASES = [
    "dup key",      # zero-hit on this corpus: exercises the miss path
    "hash join",
    "slow fast",
    "window agg",
    "merge sort",
    "spark",
]


def _q_phrase_filter(sf_dir: str) -> pd.DataFrame:
    """C4-style bad-PHRASE document filter (stages/text.py
    PhraseBlocklist): literal-substring matching over lowered text
    (never regex), n_phrases = how many blocklist phrases occur,
    first_phrase = lowest matching blocklist index (-1 clean)."""
    from searchengines_ray.stages.text import phrase_filter

    out = phrase_filter(_docs(sf_dir), _BLOCK_PHRASES).to_pandas()
    return (
        out[["doc_id", "n_phrases", "first_phrase"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype(
            {
                "doc_id": "int64",
                "n_phrases": "int64",
                "first_phrase": "int64",
            }
        )
    )


def _q_textrank(sf_dir: str) -> pd.DataFrame:
    """TextRank corpus keywords (stages/text.py textrank_keywords;
    Mihalcea & Tarau 2004): integer PageRank over the adjacency
    co-occurrence graph of the capped top-20 vocabulary (BELOW the corpus vocab so the cap
    actually binds) — a pure
    composition of the capped-unigram fit, vectorized co-occurrence
    edges, and the exact-int64 pagerank contract."""
    from searchengines_ray.stages.text import textrank_keywords

    out = textrank_keywords(
        _docs(sf_dir), max_vocab=20, iters=5
    ).to_pandas()
    return (
        out[["term", "r"]]
        .sort_values(["r", "term"], ascending=[False, True])
        .reset_index(drop=True)
        .astype({"r": "int64"})
    )


def _q_hits_events(sf_dir: str) -> pd.DataFrame:
    """Integer-deterministic HITS hubs/authorities (stages/graph.py
    hits; Kleinberg 1999) over the bipartite user -> item graph from
    events — 2 max-normalized power-iteration rounds as exact int64
    ops (order-free sums, bit-identical to the SQL CTE chain)."""
    import ray.data

    from searchengines_ray.stages.graph import hits

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "props"]
    )

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        k = (
            b["props"]
            .str.extract(r'"k": (\d+)', expand=False)
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "src": b["user_id"].to_numpy().astype(np.int64),
                "dst": (1_000_000 + k).to_numpy().astype(np.int64),
            }
        )

    out = hits(
        ev.map_batches(to_edges, batch_format="pandas"), iters=2
    ).to_pandas()
    return (
        out[["node", "auth", "hub"]]
        .sort_values("node")
        .reset_index(drop=True)
        .astype({"node": "int64", "auth": "int64", "hub": "int64"})
    )


def _q_bigram_lm(sf_dir: str) -> pd.DataFrame:
    """Stupid-backoff bigram LM scoring (stages/text.py
    bigram_lm_scores; Brants et al. 2007): in-model bigrams score
    ln(cnt/ctx), everything else backs off to 0.4 x the capped add-one
    unigram.  max_vocab/max_bigrams are set BELOW the sf0.01 table
    sizes so both the bigram cap and the backoff path are what the
    oracle checks.  Micro-units floored per position, integer sums."""
    from searchengines_ray.stages.text import bigram_lm_scores

    out = bigram_lm_scores(
        _docs(sf_dir), max_vocab=1000, max_bigrams=2000
    ).to_pandas()
    return (
        out[["doc_id", "n_scored", "lm_bigram_micro"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype(
            {
                "doc_id": "int64",
                "n_scored": "int64",
                "lm_bigram_micro": "int64",
            }
        )
    )


def _q_substring_dedup(sf_dir: str) -> pd.DataFrame:
    """ExactSubstr-style duplicate-span REMOVAL (stages/dedup.py
    substring_dedup; Lee et al. 2021): every non-first corpus-wide
    occurrence of an 8-token gram marks its 8 covered tokens for
    removal.  Per doc: (n_tokens, n_removed, kept_hash) where
    kept_hash is the base-131/1000003 mod-(2^31-1) fold over the
    SURVIVING token stream — the oracle checks the exact kept
    subsequence, not just counts."""
    from searchengines_ray.stages.dedup import substring_dedup

    out = substring_dedup(_docs(sf_dir), k=8).to_pandas()
    return (
        out[["doc_id", "n_tokens", "n_removed", "kept_hash"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype(
            {
                "doc_id": "int64",
                "n_tokens": "int64",
                "n_removed": "int64",
                "kept_hash": "int64",
            }
        )
    )


def _q_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup semantic dedup (stages/similarity.py semdedup): seeded
    nearest-centroid clustering + exact in-cluster keep-first by
    similarity-to-centroid (Abbas et al. 2023).  The SQL mirror is one
    CROSS JOIN assignment + a per-cluster earlier-row pair check; the
    drop decision (cosine >= 0.45) rides the same numpy-vs-DuckDB float
    contract as similarity_join."""
    from searchengines_ray.stages.similarity import semdedup

    out = semdedup(_emb(sf_dir), n_clusters=8, threshold=0.45).to_pandas()
    return (
        out.sort_values("vec_id")
        .reset_index(drop=True)
        .astype({"vec_id": "int64", "cluster": "int64", "dropped": "int64"})
    )


def _q_nb_classify(sf_dir: str) -> pd.DataFrame:
    """Multinomial Naive Bayes source classifier (stages/text.py
    nb_classify): closed-form fastText-style curation classifier —
    priors + add-one in-vocab token likelihoods over the capped top-1000
    vocabulary (cap BELOW the sf0.01 vocab size so the OOV-skip path is
    exercised), integer micro log-score sums, argmax tie -> class asc."""
    from searchengines_ray.stages.text import nb_classify

    out = nb_classify(
        _docs(sf_dir, cols=("doc_id", "text", "source")), max_vocab=1000
    ).to_pandas()
    return (
        out.sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "score_micro": "int64"})
    )


def _q_kn_bigram(sf_dir: str) -> pd.DataFrame:
    """Interpolated Kneser-Ney bigram LM (stages/text.py
    kn_bigram_scores): all statistics derive from the SAME capped
    bigram table as bigram_lm (top-2000) + the capped-unigram V_eff
    (top-1000), add-one-smoothed continuation probability, frozen
    float expression trees, per-position floored micro-units."""
    from searchengines_ray.stages.text import kn_bigram_scores

    return (
        kn_bigram_scores(_docs(sf_dir), max_vocab=1000, max_bigrams=2000)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "n_scored": "int64", "kn_micro": "int64"})
    )


def _q_jsonl_roundtrip(sf_dir: str) -> pd.DataFrame:
    """JSONL export -> re-ingest -> content fingerprint
    (sources/formats.py jsonl_roundtrip): the oracle hashes the ORIGINAL
    parquet text, so any escape-roundtrip corruption (newlines, quotes,
    unicode) in the JSON surface breaks the hash equality."""
    from searchengines_ray.sources.formats import jsonl_roundtrip
    from searchengines_ray.stages.text import fingerprints

    back = jsonl_roundtrip(_docs(sf_dir), "/tmp/seray_rt/jsonl")
    return (
        fingerprints(back)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_csv_roundtrip(sf_dir: str) -> pd.DataFrame:
    """CSV export -> re-ingest (Arrow reader, quoted-newline + pinned
    column types) -> content fingerprint; oracle = hash of the original
    parquet text (sources/formats.py csv_roundtrip)."""
    from searchengines_ray.sources.formats import csv_roundtrip
    from searchengines_ray.stages.text import fingerprints

    back = csv_roundtrip(_docs(sf_dir), "/tmp/seray_rt/csv")
    return (
        fingerprints(back)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


def _q_temperature_mix(sf_dir: str) -> pd.DataFrame:
    """T5-style temperature-smoothed mixture allocation (alpha = 0.5;
    stages/sample.py temperature_mix): integer micro-sqrt weights,
    HUGEINT-safe base allocation, largest-INTEGER-remainder leftover —
    no float sums, so engine and SQL agree exactly."""
    from searchengines_ray.stages.sample import temperature_mix

    return temperature_mix(
        _docs(sf_dir, cols=("doc_id", "text", "source"))
    ).reset_index(drop=True)


def _q_cdc_dedup(sf_dir: str) -> pd.DataFrame:
    """Content-defined chunk dedup (stages/dedup.py cdc_chunk_dedup;
    landmark chunking, Manber 1994 / Spring & Wetherall 2000): a chunk
    boundary falls after word j whenever the 4-word rolling gram hash
    ending at j is divisible by 16; duplicated chunk hashes are
    aggregated cross-corpus (n_occ, n_docs, first occurrence =
    lexicographic min (doc_id, chunk_idx)).  All hashes are the
    SQL-replicable mod-(2^31-1) polynomial folds."""
    from searchengines_ray.stages.dedup import cdc_chunk_dedup

    out = cdc_chunk_dedup(_docs(sf_dir)).to_pandas()
    cols = ["chunk_hash", "n_words", "n_occ", "n_docs", "first_doc",
            "first_idx"]
    if not len(out):  # empty Dataset -> to_pandas loses the schema
        return pd.DataFrame({c: pd.array([], dtype="int64") for c in cols})
    return (
        out[cols]
        .astype("int64")
        .sort_values("chunk_hash")
        .reset_index(drop=True)
    )


def _q_kcore_peel(sf_dir: str) -> pd.DataFrame:
    """R-round k-core peeling (Seidman 1983; stages/graph.py kcore_peel)
    over the high-value (value > 170) user <-> item event graph — the
    dense-subgraph skeleton filter.  k=3, rounds=4 (the R-round bound is
    part of the contract; peeling is idempotent once quiescent, so the
    engine's early stop equals the oracle's unrolled rounds).  Adaptive
    local fast path pinned bit-equal to the distributed
    degree-count + two-semi-join rounds."""
    import ray.data

    from searchengines_ray.stages.graph import kcore_peel

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "props", "value"],
    )

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["value"].to_numpy() > 170.0]
        kk = (
            m["props"]
            .str.extract(r'"k": (\d+)', expand=False)
            .astype("int64")
        )
        u = m["user_id"].to_numpy().astype(np.int64)
        it = (1_000_000 + kk).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src": np.concatenate([u, it]),
                "dst": np.concatenate([it, u]),
            }
        )

    out = kcore_peel(
        ev.map_batches(to_edges, batch_format="pandas"), k=3, rounds=4
    )
    return out.reset_index(drop=True)


def _q_anomaly_hours(sf_dir: str) -> pd.DataFrame:
    """Trailing z-score anomalies over hourly event-type counts
    (stages/windows.py anomaly_hours): hour flags when its count beats
    the previous 24 dense-grid hours' mean by > 3 population stddevs —
    ALL-INTEGER squared-form test (no sqrt/division), one bucketed count
    shuffle, driver holds the (hours x types) grid only."""
    import ray.data

    from searchengines_ray.stages.windows import anomaly_hours

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts"]
    )
    return anomaly_hours(ev, window=24, z_milli=3000).reset_index(
        drop=True
    )


def _q_lsh_registry(sf_dir: str) -> pd.DataFrame:
    """Incremental near-dup ingestion against a PERSISTED sketch registry
    (stages/dedup.py lsh_registry_write/query): the corpus's bottom-k
    sketches live as hive-partitioned parquet; an incoming batch (the
    doc_id % 10 == 0 decile, ids remapped disjoint) reads ONLY the hash /
    sketch partitions it touches (partition pruning — the IVF pruning
    story) and keeps pairs with estimated jaccard >= 1/2 (integer
    inter*2 >= denom).  The corpus is never rescanned."""
    import shutil
    import tempfile

    from searchengines_ray.stages.dedup import (
        lsh_registry_query,
        lsh_registry_write,
    )

    docs = _docs(sf_dir)

    def reg_side(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["doc_id"].to_numpy() % 10 != 0]

    def new_side(b: pd.DataFrame) -> pd.DataFrame:
        m = b[b["doc_id"].to_numpy() % 10 == 0].copy()
        m["doc_id"] = m["doc_id"] + 10_000_000
        return m

    path = tempfile.mkdtemp(prefix="lshreg_", dir="/tmp")
    try:
        lsh_registry_write(
            docs.map_batches(reg_side, batch_format="pandas"),
            path,
            parts=16,
        )
        out = lsh_registry_query(
            docs.map_batches(new_side, batch_format="pandas"),
            path,
            tnum=1,
            tden=2,
        )
    finally:
        shutil.rmtree(path, ignore_errors=True)
    out["doc_id"] = out["doc_id"] - 10_000_000
    return (
        out.sort_values(["doc_id", "reg_doc_id"], kind="mergesort")
        .reset_index(drop=True)
        .astype("int64")
    )


def _q_bleu_overlap(sf_dir: str) -> pd.DataFrame:
    """Corpus-level clipped n-gram overlap components (BLEU modified
    precision, Papineni et al. 2002) between the deterministic hash
    split's candidate (bucket < 200/1000) and reference docs
    (stages/text.py bleu_overlap) — the split-memorization diagnostic.
    Exact integer (matched, total) per n; one gram-bucketed shuffle,
    the driver folds buckets x n ints."""
    from searchengines_ray.stages.text import bleu_overlap

    return bleu_overlap(
        _docs(sf_dir), n_max=2, cand_permille=200
    ).reset_index(drop=True)


def _q_adamic_adar(sf_dir: str) -> pd.DataFrame:
    """Adamic-Adar link prediction over the undirected user <-> item
    event graph (stages/graph.py adamic_adar): global top-50 co-neighbor
    pairs, score = sum of floor(1e6/ln(deg z)) micro-units over shared
    wedge centers z with 2 <= deg <= 64 (the cap is part of the
    contract).  Two bucketed exchanges + combiner-first top-k."""
    import ray.data

    from searchengines_ray.stages.graph import adamic_adar

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "props"]
    )

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        k = (
            b["props"]
            .str.extract(r'"k": (\d+)', expand=False)
            .astype("int64")
        )
        u = b["user_id"].to_numpy().astype(np.int64)
        it = (1_000_000 + k).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src": np.concatenate([u, it]),
                "dst": np.concatenate([it, u]),
            }
        )

    out = adamic_adar(
        ev.map_batches(to_edges, batch_format="pandas"),
        cap=64,
        topk=50,
    )
    return out.reset_index(drop=True)


def _q_hll_group(sf_dir: str) -> pd.DataFrame:
    """Per-event-type HLL register tables over user_id (stages/sketch.py
    hll_group_registers) — mergeable approximate distinct-users-per-
    segment sketches; batches contribute <= groups x 256 register rows
    regardless of row count, merge = register-wise max after one
    group-hash exchange.  Same pinned avalanche-hash contract as
    hll_registers."""
    import ray.data

    from searchengines_ray.stages.sketch import hll_group_registers

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    out = hll_group_registers(ev, p=8).to_pandas()
    if out.empty:  # no events: an empty Dataset drops its schema
        out = pd.DataFrame(
            {
                "event_type": pd.array([], dtype=object),
                "bucket": pd.array([], dtype="int64"),
                "max_rho": pd.array([], dtype="int64"),
            }
        )
    return (
        out[["event_type", "bucket", "max_rho"]]
        .sort_values(["event_type", "bucket"])
        .reset_index(drop=True)
        .astype({"bucket": "int64", "max_rho": "int64"})
    )


def _q_bradley_terry(sf_dir: str) -> pd.DataFrame:
    """Bradley-Terry preference strengths via Hunter's MM iteration
    (stages/rank.py bradley_terry) — the RLHF preference-aggregation /
    arena-leaderboard op.  Duels = consecutive same-user events (higher
    value wins, tie -> earlier; same-type skipped), derived through one
    bucketed shuffle; 5 exact integer MM rounds over the bounded
    (winner, loser, n) table."""
    import ray.data

    from searchengines_ray.stages.rank import bradley_terry

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_id", "ts", "event_type", "value"],
    )
    return bradley_terry(ev).reset_index(drop=True)


def _q_kcenter_select(sf_dir: str) -> pd.DataFrame:
    """Greedy k-center / farthest-point coreset selection (Gonzalez 1985;
    stages/similarity.py kcenter_select) — embedding-based data-pruning
    pass.  Integer-exact micro-quantized squared-euclidean distances, seed
    = min vec_id, argmax tie -> vec_id asc, selected ids excluded; one
    streamed pass per round, the driver holds k rows."""
    from searchengines_ray.stages.similarity import kcenter_select

    out = kcenter_select(_emb(sf_dir), k=8)
    return out.astype(
        {"round": "int64", "vec_id": "int64", "dist_sq": "int64"}
    ).reset_index(drop=True)


def _q_heavy_hitters(sf_dir: str) -> pd.DataFrame:
    """Exact phi-frequent tokens (cnt * k > N) via Misra-Gries candidate
    sketching + broadcast exact recount (stages/text.py heavy_hitters;
    Misra & Gries 1982, mergeable per Agarwal et al. 2012).  Two streamed
    passes, nothing vocabulary-sized shuffles or reaches the driver; the
    exact recount filter makes the output deterministic regardless of
    batch/merge order."""
    from searchengines_ray.stages.text import heavy_hitters

    out = heavy_hitters(_docs(sf_dir), k=100)
    return out.astype({"cnt": "int64"}).reset_index(drop=True)


def _q_pii_scrub(sf_dir: str) -> pd.DataFrame:
    """Dolma/CCNet-style PII redaction (stages/text.py pii_scrub):
    sequentially mask emails, IPv4s and US-style phone numbers with
    typed placeholders, counting matches per pattern stage.  Engine and
    oracle both run RE2 (pyarrow compute / DuckDB regexp_*) over the
    SAME pattern constants — the SQL is generated from
    text.PII_PATTERNS."""
    from searchengines_ray.stages.text import pii_scrub

    out = pii_scrub(_docs(sf_dir)).to_pandas()
    return (
        out[["doc_id", "n_email", "n_ipv4", "n_phone", "clean_text"]]
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype(
            {
                "doc_id": "int64",
                "n_email": "int64",
                "n_ipv4": "int64",
                "n_phone": "int64",
            }
        )
    )


def _q_bottomk_neardup(sf_dir: str) -> pd.DataFrame:
    """Bottom-k shingle-sketch near-dup estimates (stages/dedup.py
    bottomk_neardup; Broder 1997, Cohen & Kaplan 2007): per doc the 16
    smallest distinct 4-word shingle hashes (the cdc_dedup gram
    contract), then for every pair sharing a sketch hash the integer
    estimator (inter, denom) = (|both sketches ∩ bottom-k(union)|,
    min(k, |union|)) — ship the integers, never the quotient."""
    from searchengines_ray.stages.dedup import bottomk_neardup

    out = bottomk_neardup(
        _docs(sf_dir), k=16, shingle=4, min_inter=1
    ).to_pandas()
    cols = ["doc_a", "doc_b", "inter", "denom"]
    if out.empty:
        return pd.DataFrame({c: pd.array([], dtype="int64") for c in cols})
    return (
        out[cols]
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
        .astype({c: "int64" for c in cols})
    )


def _q_random_walks(sf_dir: str) -> pd.DataFrame:
    """Derandomized DeepWalk sampling (stages/graph.py random_walks;
    Perozzi et al. 2014): one walk per node of the undirected
    user <-> item event graph, 3 steps, successor = out-neighbor
    minimizing the hash (((v*131 + t) % M) * 137 + u) % M — exactly
    replayable, partition-invariant, walk halts at a dead end."""
    import ray.data

    from searchengines_ray.stages.graph import random_walks

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "props"]
    )

    def to_edges(b: pd.DataFrame) -> pd.DataFrame:
        k = (
            b["props"]
            .str.extract(r'"k": (\d+)', expand=False)
            .astype("int64")
        )
        u = b["user_id"].to_numpy().astype(np.int64)
        it = (1_000_000 + k).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src": np.concatenate([u, it]),
                "dst": np.concatenate([it, u]),
            }
        )

    out = random_walks(
        ev.map_batches(to_edges, batch_format="pandas"), steps=3
    ).to_pandas()
    cols = ["start", "step", "node"]
    if out.empty:
        return pd.DataFrame({c: pd.array([], dtype="int64") for c in cols})
    return (
        out[cols]
        .sort_values(["start", "step"])
        .reset_index(drop=True)
        .astype({c: "int64" for c in cols})
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # ROUND-5 NEW ENTRIES FIRST (driver samples the first 50):
        "kcore_peel": _q_kcore_peel,
        "anomaly_hours": _q_anomaly_hours,
        "lsh_registry": _q_lsh_registry,
        "bleu_overlap": _q_bleu_overlap,
        "adamic_adar": _q_adamic_adar,
        "hll_group": _q_hll_group,
        "bradley_terry": _q_bradley_terry,
        "kcenter_select": _q_kcenter_select,
        "heavy_hitters": _q_heavy_hitters,
        "random_walks": _q_random_walks,
        "bottomk_neardup": _q_bottomk_neardup,
        "pii_scrub": _q_pii_scrub,
        "cdc_dedup": _q_cdc_dedup,
        "temperature_mix": _q_temperature_mix,
        "jsonl_roundtrip": _q_jsonl_roundtrip,
        "csv_roundtrip": _q_csv_roundtrip,
        "kn_bigram": _q_kn_bigram,
        "nb_classify": _q_nb_classify,
        "semdedup": _q_semdedup,
        "winnowing": _q_winnowing,
        "zipf_fit": _q_zipf_fit,
        "boilerplate_filter": _q_boilerplate,
        "random_projection": _q_random_projection,
        "phrase_filter": _q_phrase_filter,
        "textrank_keywords": _q_textrank,
        "hits_events": _q_hits_events,
        "bigram_lm": _q_bigram_lm,
        "substring_dedup": _q_substring_dedup,
        "vocab_growth": _q_vocab_growth,
        "source_kl": _q_source_kl,
        "word_entropy": _q_word_entropy,
        "rrf_fusion": _q_rrf_fusion,
        "prf_from_ranking": _q_prf_from_ranking,
        "frame_sample_real": _q_frame_sample_real,
        # then the never-driver-sampled tail (rotated forward per the
        # round-4 verdict so CORRECTNESS_r05 finally covers them):
        "anti_join_blocklist": _q_anti_join_blocklist,
        "normalize_text": _q_normalize_text,
        "pagerank_events": _q_pagerank_events,
        "funnel": _q_funnel,
        "cohort_retention": _q_cohort_retention,
        "rolling_user_agg": _q_rolling_user_agg,
        "ranking_eval": _q_ranking_eval,
        "cms_counts": _q_cms_counts,
        "broadcast_join": _q_broadcast_join,
        "next_word_suggest": _q_next_word_suggest,
        "spell_correct": _q_spell_correct,
        "dup_spans": _q_dup_spans,
        "balanced_sample": _q_balanced_sample,
        "weighted_sample": _q_weighted_sample,
        "per_source_cap": _q_per_source_cap,
        "window_unique_users": _q_window_unique_users,
        "event_transitions": _q_event_transitions,
        "split_leakage": _q_split_leakage,
        "consistent_sample": _q_consistent_sample,
        "hll_registers": _q_hll_registers,
        "stratified_sample": _q_stratified_sample,
        "window_top_events": _q_window_top_events,
        "tfidf_keywords": _q_tfidf_keywords,
        "unigram_lm": _q_unigram_lm,
        "asof_attribution": _q_asof_attribution,
        "interval_attribution": _q_interval_attribution,
        "grouped_topk": _q_grouped_topk,
        "length_quantiles": _q_length_quantiles,
        "value_quantiles": _q_value_quantiles,
        "ngram_counts": _q_ngram_counts,
        "cooccurrence_counts": _q_cooccurrence_counts,
        "pmi_collocations": _q_pmi_collocations,
        # long-proven rest (every entry below has >=1 green
        # driver CORRECTNESS row from rounds 1-4):
        "bm25_topk_deleted": _q_bm25_topk_deleted,
        "bm25_topk_purged": _q_bm25_topk_purged,
        "snippets": _q_snippets,
        "anchor_text": _q_anchor_text,
        "bpe_merges": _q_bpe_merges,
        "bpe_segment": _q_bpe_segment,
        "bpe_fertility": _q_bpe_fertility,
        "chunk_documents": _q_chunk_documents,
        "dsir_weights": _q_dsir_weights,
        "mixture_plan": _q_mixture_plan,
        "dedup_keep_best": _q_dedup_keep_best,
        "image_decode_real": _q_image_decode_real,
        "image_resize_real": _q_image_resize_real,
        "ltr_ranklib_flow": _q_ltr_ranklib_flow,
        "audio_features": _q_audio_features,
        "ngram_contamination": _q_ngram_contamination,
        "lm_quality_buckets": _q_lm_quality_buckets,
        "pack_sequences": _q_pack_sequences,
        "gopher_filter": _q_gopher_filter,
        "canonicalize_urls": _q_canonicalize_urls,
        "left_outer_join": _q_left_outer_join,
        "bloom_blocklist": _q_bloom_blocklist,
        "knn_join": _q_knn_join,
        "html_extract": _q_html_extract,
        "inspect_postings": _q_inspect_postings,
        "inspect_termvector": _q_inspect_termvector,
        "term_stats_simple": _q_term_stats_simple,
        "doc_lengths": _q_doc_lengths,
        "bm25_topk_simple": _q_bm25_topk_simple,
        "bm25_topk_merged": _q_bm25_topk_merged,
        "bm25_topk_incremental": _q_bm25_topk_incremental,
        "indri_topk_simple": _q_indri_topk_simple,
        "boolean_topk_simple": _q_boolean_topk_simple,
        "syn_topk_simple": _q_syn_topk_simple,
        "field_queries": _q_field_queries,
        "bm25_topk": _q_bm25_topk,
        "indri_topk": _q_indri_topk,
        "structured_queries": _q_structured,
        "structured_indri": _q_structured_indri,
        "boolean_topk": _q_boolean,
        "prf_expansion": _q_prf_expansion,
        "prf_expansion_simple": _q_prf_expansion_simple,
        "diversity_xquad": _q_diversity_xquad,
        "diversity_pm2": _q_diversity_pm2,
        "ltr_features": _q_ltr_features,
        "ltr_features_simple": _q_ltr_features_simple,
        "ltr_norm": _q_ltr_norm,
        "ltr_rerank": _q_ltr_rerank,
        "ltr_features_fields": _q_ltr_fields,
        "trec_flow": _q_trec_flow,
        "exact_dedup": _q_exact_dedup,
        "token_counts": _q_token_counts,
        "quality_scores": _q_quality,
        "windowed_agg": _q_windowed_agg,
        "hopping_window_agg": _q_hopping_window,
        "ann_topk": _q_ann_topk,
        "minhash_pairs": _q_minhash_pairs,
        "allpairs_jaccard": _q_allpairs_jaccard,
        "dup_triangles": _q_dup_triangles,
        "incremental_ingest": _q_incremental_ingest,
        "embedding_quantize": _q_embedding_quantize,
        "label_centroids": _q_label_centroids,
        "cross_corpus_pairs": _q_cross_corpus_pairs,
        "minhash_dedup": _q_minhash_dedup,
        "curate_corpus": _q_curate,
        "line_dedup": _q_line_dedup,
        "repetition_signals": _q_repetition,
        "simhash_pairs": _q_simhash_pairs,
        "embedding_neardup": _q_embedding_neardup,
        "fingerprints": _q_fingerprints,
        "lang_id": _q_lang_id,
        "pii_redact": _q_pii_redact,
        "hash_sample": _q_hash_sample,
        "split_counts": _q_split_counts,
        "doc_embedding_join": _q_doc_embedding_join,
        "ivf_topk": _q_ivf_topk,
        "similarity_join": _q_similarity_join,
        "sessionize": _q_sessionize,
    }


# ---------------------------------------------------------------- oracle sql

_TOKS = (
    "SELECT doc_id, unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term"
    " FROM documents"
)

_BM25_SQL_QUERIES = " , ".join(
    f"('{qid}', '{t}')"
    for qid, q in BM25_QUERIES
    for t in q.split()
)

# Shared simple-analyzer BM25 scoring chain (toks..scores) — ONE source
# for every oracle that ranks with it (bm25_topk_simple, snippets): a
# parameter/clamp/floor tweak applied in one place cannot desync their
# target sets.
_BM25_SCORES_BODY = f"""toks AS ({_TOKS}),
            doclen AS (SELECT doc_id, COUNT(*) AS dl FROM toks GROUP BY doc_id),
            corpus AS (SELECT COUNT(*) AS n_docs FROM documents),
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS doc_count,
                              CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            df AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY term),
            q(qid, term) AS (VALUES {_BM25_SQL_QUERIES}),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - df.df + 0.5) / (df.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (doclen.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM q
              JOIN tf ON q.term = tf.term
              JOIN df ON q.term = df.term
              JOIN doclen ON tf.doc_id = doclen.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY q.qid, tf.doc_id
            )"""


# ---------------------------------------------------- SQL kstem_lite
# The full analyzer (ASCII lower + [0-9a-z]+ + 33 Lucene stopwords +
# kstem_lite) is SQL-expressible: the stemmer's rule chain becomes chained
# CASE CTEs (byte-identical to analysis.kstem_lite — fuzz-pinned on 5.6k
# adversarial suffix words), stopwords a NOT IN filter, and field length
# counts RAW tokens (stopwords occupy positions, Idx.java:93-98).

_SQL_VOWELS = "('a','e','i','o','u')"


def _sql_last(s: str, i: int) -> str:
    return f"substr({s}, length({s}) - {i-1}, 1)"


def _sql_undouble_cond(s: str) -> str:
    return (
        f"(length({s}) >= 3 AND {_sql_last(s,1)} = {_sql_last(s,2)} "
        f"AND {_sql_last(s,1)} NOT IN {_SQL_VOWELS} "
        f"AND {_sql_last(s,1)} NOT IN ('l','s','z'))"
    )


def _sql_cvc_cond(s: str) -> str:
    return (
        f"(length({s}) >= 3 AND {_sql_last(s,1)} NOT IN {_SQL_VOWELS} "
        f"AND {_sql_last(s,1)} NOT IN ('w','x','y') "
        f"AND {_sql_last(s,2)} IN {_SQL_VOWELS} "
        f"AND {_sql_last(s,3)} NOT IN {_SQL_VOWELS})"
    )


def _sql_strip_expr(n: int) -> str:
    """stem = w[:-n], then undouble-or-CVC-e-restore (the ed/ing tails)."""
    s = f"substr(w, 1, length(w) - {n})"
    return (
        f"CASE WHEN {_sql_undouble_cond(s)} THEN substr({s}, 1, length({s}) - 1) "
        f"WHEN {_sql_cvc_cond(s)} AND length({s}) <= 4 THEN {s} || 'e' "
        f"ELSE {s} END"
    )


def _sql_exception_case() -> str:
    """Simple-CASE over the KSTEM_EXCEPTIONS dict — generated from the ONE
    Python source of truth so the SQL stemmer can never drift from
    analysis.kstem_lite's dictionary stage."""
    from searchengines_ray.analysis import KSTEM_EXCEPTIONS

    whens = " ".join(
        f"WHEN '{k}' THEN '{v}'" for k, v in sorted(KSTEM_EXCEPTIONS.items())
    )
    return f"CASE w {whens} ELSE NULL END"


def _sql_stem_ctes(src: str = "nonstop", prefix: str = "", extra: str = "") -> str:
    """CTE fragment mapping {src}(doc_id{extra}, w) -> {prefix}stemmed
    (doc_id{extra}, term); prefix allows multiple stemmer instantiations in
    one WITH; extra carries pass-through columns (e.g. ", pos")."""
    p = prefix
    return f"""
  {p}stexc AS (
    -- dictionary-exception stage (KSTEM_EXCEPTIONS): an exact hit
    -- short-circuits the whole rule cascade
    SELECT doc_id{extra}, w, {_sql_exception_case()} AS exc
    FROM {src}
  ),
  {p}st0 AS (
    SELECT doc_id{extra}, COALESCE(exc, w) AS w,
           (exc IS NOT NULL OR length(w) <= 3
            OR NOT regexp_matches(w, '^[a-z]+$')) AS done
    FROM {p}stexc
  ),
  {p}st1 AS (
    SELECT doc_id{extra}, done,
      CASE WHEN done THEN w
           WHEN w LIKE '%ies' AND length(w) > 4
             THEN substr(w, 1, length(w) - 3) || 'y'
           WHEN w LIKE '%es' AND length(w) > 4
                AND {_sql_last('w',3)} IN ('s','x','z','h')
             THEN substr(w, 1, length(w) - 2)
           WHEN w LIKE '%s' AND NOT (w LIKE '%ss' OR w LIKE '%us' OR w LIKE '%is')
             THEN substr(w, 1, length(w) - 1)
           ELSE w END AS w
    FROM {p}st0
  ),
  {p}st2 AS (SELECT doc_id{extra}, w, (done OR length(w) <= 3) AS done FROM {p}st1),
  {p}st3 AS (
    SELECT doc_id{extra},
      CASE WHEN done THEN w
           WHEN w LIKE '%ied' AND length(w) > 4
             THEN substr(w, 1, length(w) - 3) || 'y'
           WHEN w LIKE '%eed' THEN w
           WHEN w LIKE '%ed' AND length(w) > 4 THEN {_sql_strip_expr(2)}
           ELSE w END AS w,
      (done OR (w LIKE '%ied' AND length(w) > 4) OR (w LIKE '%eed')
            OR (w LIKE '%ed' AND length(w) > 4)) AS done
    FROM {p}st2
  ),
  {p}st4 AS (
    SELECT doc_id{extra},
      CASE WHEN done THEN w
           WHEN w LIKE '%ing' AND length(w) > 5 THEN {_sql_strip_expr(3)}
           ELSE w END AS w,
      (done OR (w LIKE '%ing' AND length(w) > 5)) AS done
    FROM {p}st3
  ),
  {p}stemmed AS MATERIALIZED (
    -- MATERIALIZED: the 6-stage chained-CASE pipeline is cheap to RUN but
    -- the round-4 st4 stage pushed DuckDB's expression rewriter over a
    -- cliff when inlined into the positional recursions (structured
    -- oracle 0.4s -> 152s); the barrier caps the expression tree.  Safe:
    -- no recursive member references a *stemmed CTE directly.
    -- derivational families (ness/ment/ically/fully/ily), first-candidate
    -- resolution — byte-identical to analysis.kstem_lite's tail
    SELECT doc_id{extra},
      CASE WHEN done THEN w
           WHEN w LIKE '%ness' AND length(w) > 5 THEN
             CASE WHEN substr(w, length(w) - 4, 1) = 'i'
                  THEN substr(w, 1, length(w) - 5) || 'y'
                  ELSE substr(w, 1, length(w) - 4) END
           WHEN w LIKE '%ment' AND length(w) > 7
             THEN substr(w, 1, length(w) - 4)
           WHEN w LIKE '%ically' AND length(w) > 7
             THEN substr(w, 1, length(w) - 4)
           WHEN w LIKE '%fully' AND length(w) > 6
             THEN substr(w, 1, length(w) - 2)
           WHEN w LIKE '%ily' AND length(w) > 6
             THEN substr(w, 1, length(w) - 3) || 'y'
           -- round-5 families (bility/ivity/ality/icity, ence/ance,
           -- able/ible) — byte-identical to kstem_lite's tail
           WHEN w LIKE '%bility' AND length(w) > 6
             THEN substr(w, 1, length(w) - 6) || 'ble'
           WHEN w LIKE '%ivity' AND length(w) > 7
             THEN substr(w, 1, length(w) - 3) || 'e'
           WHEN w LIKE '%ality' AND length(w) > 7
             THEN substr(w, 1, length(w) - 3)
           WHEN w LIKE '%icity' AND length(w) > 7
             THEN substr(w, 1, length(w) - 3)
           WHEN (w LIKE '%ence' OR w LIKE '%ance') AND length(w) >= 9
             THEN CASE WHEN {_sql_undouble_cond("substr(w, 1, length(w) - 4)")}
                       THEN substr(w, 1, length(w) - 5)
                       ELSE substr(w, 1, length(w) - 4) END
           WHEN (w LIKE '%able' AND length(w) > 7)
                OR (w LIKE '%ible' AND length(w) > 8)
             THEN CASE
                    WHEN {_sql_last('w',5)} = 'i'
                      THEN substr(w, 1, length(w) - 5) || 'y'
                    WHEN {_sql_last('w',5)} = 'u'
                      THEN substr(w, 1, length(w) - 4) || 'e'
                    ELSE substr(w, 1, length(w) - 4) END
           ELSE w END AS term
    FROM {p}st4
  )"""


_SQL_STOPLIST = ", ".join(
    f"'{w}'"
    for w in sorted(
        """a an and are as at be but by for if in into is it no not of on or
        such that the their then there these they this to was will
        with""".split()
    )
)

# full-analyzer token CTE chain: raw tokens (positions incl. stopwords feed
# doclen), stopword filter, stemmer -> toks(doc_id, term)
_FULL_TOKS_CTES = f"""
  raw AS (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS w
    FROM documents
  ),
  doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
             FROM raw GROUP BY doc_id),
  nonstop AS (SELECT doc_id, w FROM raw WHERE w NOT IN ({_SQL_STOPLIST})),
  {_sql_stem_ctes('nonstop')},
  toks AS (SELECT doc_id, term FROM stemmed)
"""


def _stemmed_query_values(queries) -> str:
    """(qid, term) VALUES with the FULL analyzer applied to query text —
    the oracle stems query terms in python (the same kstem_lite) so the SQL
    only needs the document side."""
    from searchengines_ray.analysis import DEFAULT_ANALYZER, tokenize

    return " , ".join(
        f"('{qid}', '{t}')"
        for qid, q in queries
        for t in tokenize(q, DEFAULT_ANALYZER)
    )


# shingle-set CTE shared by the minhash oracles: 3-word shingles over the
# simple tokenization, short docs padded with '' (MinHasher.shingle_hashes
# padding semantics); jaccard via a shingle self-join (sparse — no all-pairs
# list_intersect).
def _shingle_pairs_sql(src: str) -> str:
    """Parameterized jaccard-pair CTE block over any (doc_id, text) source
    CTE/table — used by the minhash oracles (src='documents') and the
    curation oracle (src=the filtered doc set)."""
    out = _SHINGLE_PAIRS.replace(
        "FROM documents\n  ),\n  wp AS (", f"FROM {src}\n  ),\n  wp AS ("
    )
    assert out != _SHINGLE_PAIRS or src == "documents", (
        "_SHINGLE_PAIRS source anchor not found — template drifted"
    )
    return out


_SHINGLE_PAIRS = r"""
  w AS (
    SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
    FROM documents
  ),
  wp AS (
    SELECT doc_id,
           CASE WHEN len(ws) < 3 THEN ws || (['','',''])[1:3-len(ws)]
                ELSE ws END AS ws
    FROM w
  ),
  sh AS (
    SELECT doc_id,
           list_distinct(list_transform(generate_series(1, len(ws)-2),
             i -> ws[i] || chr(1) || ws[i+1] || chr(1) || ws[i+2])) AS sh
    FROM wp
  ),
  sh_flat AS (SELECT doc_id, unnest(sh) AS s FROM sh),
  sizes AS (SELECT doc_id, len(sh) AS n FROM sh),
  inter AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(COUNT(*) AS DOUBLE) AS inter
    FROM sh_flat a JOIN sh_flat b ON a.s = b.s AND a.doc_id < b.doc_id
    GROUP BY 1, 2
  ),
  jac AS (
    SELECT doc_a, doc_b,
           inter / (sa.n + sb.n - inter) AS jaccard
    FROM inter
    JOIN sizes sa ON sa.doc_id = doc_a
    JOIN sizes sb ON sb.doc_id = doc_b
  ),
  dup_pairs AS (
    SELECT doc_a, doc_b, jaccard FROM jac WHERE jaccard >= 0.5
  )
"""


_SHINGLE_PAIRS_AUG = _SHINGLE_PAIRS.replace("FROM documents", "FROM aug")


def _bpe_sql(k: int) -> str:
    """BPE-trainer oracle: k unrolled rounds, each = exact weighted
    adjacent-pair counts (overlaps included) + (cnt desc, lhs, rhs)
    argmax + a recursive left-fold that applies the merge greedily
    ('aaa' -> [aa, a]; the fold's replace-last rule is provably
    equivalent to the scan-and-skip rule because a merged token can
    never equal its own left part).  Every fd{{t}} recursive member
    references ONLY itself — the best pair rides in as columns — so the
    MATERIALIZED boundaries (spl/b) never hit the recursive-member
    materialization bug documented in CLAUDE.md."""
    parts = [
        """w0g AS MATERIALIZED (
      SELECT word, CAST(SUM(c) AS BIGINT) AS f FROM (
        SELECT unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS word,
               1 AS c FROM documents
      ) GROUP BY word),
    spl0 AS MATERIALIZED (
      SELECT word, f, list_transform(generate_series(1, length(word)),
                               i -> word[i]) AS sp
      FROM w0g)"""
    ]
    for t in range(1, k + 1):
        parts.append(
            f"""
    pos{t} AS (SELECT f, sp, unnest(generate_series(1, len(sp)-1)) AS i
               FROM spl{t-1}),
    p{t} AS (SELECT sp[i] AS lhs, sp[i+1] AS rhs,
                    CAST(SUM(f) AS BIGINT) AS cnt
             FROM pos{t} GROUP BY 1,2),
    b{t} AS MATERIALIZED (SELECT lhs, rhs, cnt FROM p{t}
                          ORDER BY cnt DESC, lhs ASC, rhs ASC LIMIT 1),
    fd{t}(word, f, sp, l, r, pos, acc) AS (
      SELECT s.word, s.f, s.sp, b.lhs, b.rhs, 1, s.sp[1]
      FROM spl{t-1} s, b{t} b
      UNION ALL
      SELECT word, f, sp, l, r, pos+1,
        CASE WHEN sp[pos+1] = r AND (acc = l OR ends_with(acc, '|' || l))
             THEN acc || r ELSE acc || '|' || sp[pos+1] END
      FROM fd{t} WHERE pos < len(sp)),
    spl{t} AS MATERIALIZED (
      SELECT word, f, string_split(acc, '|') AS sp
      FROM fd{t} WHERE pos = len(sp)
      UNION ALL
      -- merge exhaustion: when round {t} finds no pair (b{t} empty) the
      -- fold seeds nothing — carry the words through unchanged so later
      -- rounds and the bpe_segment join see the true segmentation
      SELECT word, f, sp FROM spl{t-1}
      WHERE NOT EXISTS (SELECT 1 FROM b{t}))"""
        )
    body = "WITH RECURSIVE " + ",".join(parts)
    final = " UNION ALL ".join(
        f"SELECT {t} AS merge_rank, lhs, rhs, cnt FROM b{t}"
        for t in range(1, k + 1)
    )
    return body + f" SELECT * FROM ({final}) ORDER BY merge_rank"


def _bpe_perdoc_body(k: int) -> str:
    """The _bpe_sql chain (word carried through the folds) extended to a
    per_doc CTE of subword counts — segmentation happens once per UNIQUE
    word, mirroring the engine's vocab-level application."""
    train = _bpe_sql(k)
    body = train[: train.index(" SELECT * FROM (")]
    return (
        body
        + f""",
    wlen AS (SELECT word, CAST(len(sp) AS BIGINT) AS ls FROM spl{k}),
    tok AS (
      SELECT doc_id,
             unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS word
      FROM documents
    ),
    per_doc AS (
      SELECT doc_id, SUM(ls) AS n_sub
      FROM tok JOIN wlen USING (word) GROUP BY doc_id
    )"""
    )


def _bpe_apply_sql(k: int) -> str:
    return (
        _bpe_perdoc_body(k)
        + """
    SELECT d.doc_id,
           CAST(len(regexp_extract_all(lower(d.text), '[0-9a-z]+'))
                AS BIGINT) AS n_words,
           CAST(COALESCE(p.n_sub, 0) AS BIGINT) AS n_subwords
    FROM documents d LEFT JOIN per_doc p USING (doc_id)
    ORDER BY d.doc_id"""
    )


def _bpe_fertility_sql(k: int) -> str:
    """Per-language tokenizer fertility (subwords per word, ppm floor) —
    the standard tokenizer-evaluation metric, grouped over the lang
    column after the same per-doc segmentation chain."""
    return (
        _bpe_perdoc_body(k)
        + """
    SELECT d.lang,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(len(regexp_extract_all(lower(d.text), '[0-9a-z]+')))
                AS BIGINT) AS sum_words,
           CAST(SUM(COALESCE(p.n_sub, 0)) AS BIGINT) AS sum_subwords,
           CAST(CASE WHEN SUM(len(regexp_extract_all(lower(d.text),
                                                     '[0-9a-z]+'))) = 0
                THEN 0
                ELSE (SUM(COALESCE(p.n_sub, 0)) * 1000000)
                     // SUM(len(regexp_extract_all(lower(d.text),
                                                   '[0-9a-z]+')))
                END AS BIGINT) AS fertility_ppm
    FROM documents d LEFT JOIN per_doc p USING (doc_id)
    GROUP BY d.lang ORDER BY d.lang"""
    )

_URL_EXPR = (
    "'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0')"
)


def _structured_sql(model: str) -> str:
    """Oracle for the structured query battery (#NEAR/#WINDOW/#SYN/#AND/
    #OR/#WAND/#WSUM/#SUM) under BM25 or Indri(mu=800, lam=0.5) on the FULL
    analyzer.

    #NEAR and #WINDOW are evaluated with RECURSIVE CTEs that simulate the
    reference's two-pointer alignment exactly (QryIopNear.java:60-179 /
    QryIopWindow.java:55-178): one recursion level per outer-loop
    iteration, position lists carried as list columns, depth bounded by
    per-doc tf.  Float trees mirror the engine: weights summed as DOUBLEs
    (0.7+0.3 != 1.0 — faithfully), literal constants where python computes
    the same double, sums in arg order (2-term adds are commutative-safe).
    """
    # positional ops: (name, term_a, term_b, dist, kind)
    ops = [
        ("n1", "hash", "join", 2, "near"),
        ("w1", "window", "agg", 4, "window"),
        ("n2", "stream", "batch", 3, "near"),
    ]
    terms = [
        "spark", "join", "merge", "dup", "batch", "scan", "filter", "key",
    ]

    def b_leaf(tf, df, dl):
        return (
            f"GREATEST(0.0, LN((corpus.n_docs - {df} + 0.5) / ({df} + 0.5)))"
            f" * ({tf} / ({tf} + 1.2 * ((1.0 - 0.75) + 0.75 * ({dl} / (fstats.sum_len / fstats.doc_count)))))"
        )

    def i_pqc(ctf):
        return (
            f"((CASE WHEN {ctf} = 0.0 THEN 0.5 ELSE {ctf} END)"
            f" / fstats.sum_len)"
        )

    def i_leaf(tf, ctf, dl):
        pqc = i_pqc(ctf)
        return (
            f"((1.0 - 0.5) * (({tf} + 800.0 * {pqc}) / ({dl} + 800.0))"
            f" + 0.5 * {pqc})"
        )

    pos_ctes = []
    for name, ta, tb, dist, kind in ops:
        pos_ctes.append(f"""
            {name}_pl AS (
              SELECT doc_id,
                list(pos ORDER BY pos) FILTER (WHERE term = '{ta}') AS pa,
                list(pos ORDER BY pos) FILTER (WHERE term = '{tb}') AS pb
              FROM ptoks WHERE term IN ('{ta}', '{tb}')
              GROUP BY doc_id
              HAVING COUNT(DISTINCT term) = 2
            )""")
        if kind == "near":
            pos_ctes.append(f"""
            {name}_step(doc_id, ia, ib, m, pa, pb, done) AS (
              SELECT doc_id, 1, 1, 0, pa, pb, FALSE FROM {name}_pl
              UNION ALL
              SELECT s.doc_id,
                     CASE WHEN t.fin THEN s.ia ELSE s.ia + 1 END,
                     CASE WHEN t.fin THEN s.ib
                          WHEN t.mtch THEN t.nib + 1 ELSE t.nib END,
                     s.m + CASE WHEN t.mtch THEN 1 ELSE 0 END,
                     s.pa, s.pb, t.fin
              FROM {name}_step s, LATERAL (
                SELECT (u.fin1 OR u.nib > len(s.pb)) AS fin,
                       u.nib,
                       (NOT (u.fin1 OR u.nib > len(s.pb)))
                         AND (s.pb[u.nib] - s.pa[s.ia] <= {dist}) AS mtch
                FROM (SELECT s.ia > len(s.pa) AS fin1,
                             CASE WHEN s.ia > len(s.pa) THEN s.ib
                                  ELSE GREATEST(s.ib,
                                    1 + len(list_filter(s.pb,
                                          p -> p <= s.pa[s.ia])))
                             END AS nib) u
              ) t
              WHERE NOT s.done
            )""")
        else:
            pos_ctes.append(f"""
            {name}_step(doc_id, ia, ib, m, pa, pb, done) AS (
              SELECT doc_id, 1, 1, 0, pa, pb, FALSE FROM {name}_pl
              UNION ALL
              SELECT s.doc_id,
                     CASE WHEN t.fin THEN s.ia
                          WHEN t.mtch THEN s.ia + 1
                          WHEN s.pa[s.ia] < s.pb[s.ib] THEN s.ia + 1
                          ELSE s.ia END,
                     CASE WHEN t.fin THEN s.ib
                          WHEN t.mtch THEN s.ib + 1
                          WHEN s.pb[s.ib] < s.pa[s.ia] THEN s.ib + 1
                          ELSE s.ib END,
                     s.m + CASE WHEN t.mtch THEN 1 ELSE 0 END,
                     s.pa, s.pb, t.fin
              FROM {name}_step s, LATERAL (
                SELECT (s.ia > len(s.pa) OR s.ib > len(s.pb)) AS fin,
                       (NOT (s.ia > len(s.pa) OR s.ib > len(s.pb)))
                         AND (GREATEST(s.pa[s.ia], s.pb[s.ib])
                              - LEAST(s.pa[s.ia], s.pb[s.ib]) < {dist}) AS mtch
              ) t
              WHERE NOT s.done
            )""")
        pos_ctes.append(f"""
            {name}_tf AS (SELECT doc_id, CAST(m AS DOUBLE) AS tf
                          FROM {name}_step WHERE done AND m > 0),
            {name}_st AS (SELECT CAST(COUNT(*) AS DOUBLE) AS df,
                                 COALESCE(SUM(tf), 0.0) AS ctf
                          FROM {name}_tf)""")

    tp_cols = ",\n                ".join(
        f"MAX(CASE WHEN term = '{t}' THEN tf END) AS tf_{t}" for t in terms
    )
    tsp_cols = ",\n                ".join(
        f"COALESCE(MAX(CASE WHEN term = '{t}' THEN df END), 0.0) AS df_{t},\n"
        f"                COALESCE(MAX(CASE WHEN term = '{t}' THEN ctf END), 0.0) AS ctf_{t}"
        for t in terms
    )
    base = f"""
            WITH RECURSIVE {_FULL_TOKS_CTES},
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS doc_count,
                              CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            stats_t AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df,
                               CAST(COUNT(*) AS DOUBLE) AS ctf
                        FROM toks GROUP BY term),
            rawl AS (SELECT doc_id,
                            regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
                     FROM documents),
            rawp AS (SELECT doc_id, unnest(ws) AS w,
                            unnest(generate_series(0, len(ws) - 1)) AS pos
                     FROM rawl),
            pns AS (SELECT doc_id, pos, w FROM rawp
                    WHERE w NOT IN ({_SQL_STOPLIST})),
            {_sql_stem_ctes('pns', 'p_', ', pos')},
            ptoks AS (SELECT doc_id, pos, term FROM p_stemmed
                      WHERE term IN ('hash', 'join', 'window', 'agg',
                                     'stream', 'batch')),
            {','.join(pos_ctes)},
            syn_tf AS (SELECT doc_id, SUM(tf) AS tf FROM tf
                       WHERE term IN ('dup', 'key') GROUP BY doc_id),
            syn_st AS (SELECT CAST(COUNT(*) AS DOUBLE) AS df,
                              COALESCE(SUM(tf), 0.0) AS ctf FROM syn_tf),
            tpv AS (
              SELECT doc_id,
                {tp_cols}
              FROM tf WHERE term IN ({', '.join(f"'{t}'" for t in terms)})
              GROUP BY doc_id
            ),
            tsp AS (
              SELECT
                {tsp_cols}
              FROM stats_t WHERE term IN ({', '.join(f"'{t}'" for t in terms)})
            )"""

    tw = "(CAST(0.7 AS DOUBLE) + CAST(0.3 AS DOUBLE))"
    if model == "bm25":
        def tleaf(t):
            return b_leaf(f"tpv.tf_{t}", f"tsp.df_{t}", "dl.dl")

        score_sql = f"""
            s_all AS (
              SELECT 's1' AS qid, t.doc_id,
                     {b_leaf('t.tf', 'n1_st.df', 'dl.dl')} AS score
              FROM n1_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN n1_st CROSS JOIN corpus CROSS JOIN fstats
              UNION ALL
              SELECT 's2', t.doc_id,
                     {b_leaf('t.tf', 'w1_st.df', 'dl.dl')}
              FROM w1_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN w1_st CROSS JOIN corpus CROSS JOIN fstats
              UNION ALL
              SELECT 's3', t.doc_id,
                     {b_leaf('t.tf', 'syn_st.df', 'dl.dl')}
              FROM syn_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN syn_st CROSS JOIN corpus CROSS JOIN fstats
              UNION ALL
              SELECT 's4', tpv.doc_id,
                     LEAST({tleaf('spark')},
                           CASE WHEN tpv.tf_join IS NULL THEN {tleaf('merge')}
                                WHEN tpv.tf_merge IS NULL THEN {tleaf('join')}
                                ELSE GREATEST({tleaf('join')}, {tleaf('merge')})
                           END)
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN corpus CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_spark IS NOT NULL
                AND (tpv.tf_join IS NOT NULL OR tpv.tf_merge IS NOT NULL)
              UNION ALL
              SELECT 's5', tpv.doc_id,
                     pow(COALESCE({tleaf('dup')}, 0.0),
                         CAST(0.7 AS DOUBLE) / {tw})
                     * pow(COALESCE({tleaf('batch')}, 0.0),
                           CAST(0.3 AS DOUBLE) / {tw})
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN corpus CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_dup IS NOT NULL OR tpv.tf_batch IS NOT NULL
              UNION ALL
              SELECT 's6', tpv.doc_id,
                     COALESCE({tleaf('scan')} * (((0.0 + 1.0) * 0.5) / (0.0 + 0.5)), 0.0)
                     + COALESCE({tleaf('filter')} * (((0.0 + 1.0) * 0.5) / (0.0 + 0.5)), 0.0)
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN corpus CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_scan IS NOT NULL OR tpv.tf_filter IS NOT NULL
              UNION ALL
              SELECT 's7', dl.doc_id,
                     COALESCE({b_leaf('n.tf', 'n2_st.df', 'dl.dl')}, 0.0)
                     + COALESCE({b_leaf('tpv.tf_dup', 'tsp.df_dup', 'dl.dl')}, 0.0)
              FROM doclen dl
              LEFT JOIN n2_tf n ON n.doc_id = dl.doc_id
              LEFT JOIN tpv ON tpv.doc_id = dl.doc_id
              CROSS JOIN n2_st CROSS JOIN corpus CROSS JOIN fstats
              CROSS JOIN tsp
              WHERE n.tf IS NOT NULL OR tpv.tf_dup IS NOT NULL
            )"""
    else:
        def sleaf(t):
            return i_leaf(f"COALESCE(tpv.tf_{t}, 0.0)", f"tsp.ctf_{t}", "dl.dl")

        or_jm = (
            f"(1.0 - (1.0 * (1.0 - {sleaf('join')})) * (1.0 - {sleaf('merge')}))"
        )
        score_sql = f"""
            s_all AS (
              SELECT 's1' AS qid, t.doc_id,
                     {i_leaf('t.tf', 'n1_st.ctf', 'dl.dl')} AS score
              FROM n1_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN n1_st CROSS JOIN fstats
              UNION ALL
              SELECT 's2', t.doc_id,
                     {i_leaf('t.tf', 'w1_st.ctf', 'dl.dl')}
              FROM w1_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN w1_st CROSS JOIN fstats
              UNION ALL
              SELECT 's3', t.doc_id,
                     {i_leaf('t.tf', 'syn_st.ctf', 'dl.dl')}
              FROM syn_tf t JOIN doclen dl ON dl.doc_id = t.doc_id
              CROSS JOIN syn_st CROSS JOIN fstats
              UNION ALL
              SELECT 's4', tpv.doc_id,
                     pow({sleaf('spark')}, 0.5) * pow({or_jm}, 0.5)
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_spark IS NOT NULL OR tpv.tf_join IS NOT NULL
                 OR tpv.tf_merge IS NOT NULL
              UNION ALL
              SELECT 's5', tpv.doc_id,
                     pow({sleaf('dup')}, CAST(0.7 AS DOUBLE) / {tw})
                     * pow({sleaf('batch')}, CAST(0.3 AS DOUBLE) / {tw})
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_dup IS NOT NULL OR tpv.tf_batch IS NOT NULL
              UNION ALL
              SELECT 's6', tpv.doc_id,
                     ({sleaf('scan')} * (CAST(0.5 AS DOUBLE) / (CAST(0.5 AS DOUBLE) + CAST(0.5 AS DOUBLE))))
                     + ({sleaf('filter')} * (CAST(0.5 AS DOUBLE) / (CAST(0.5 AS DOUBLE) + CAST(0.5 AS DOUBLE))))
              FROM tpv JOIN doclen dl ON dl.doc_id = tpv.doc_id
              CROSS JOIN fstats CROSS JOIN tsp
              WHERE tpv.tf_scan IS NOT NULL OR tpv.tf_filter IS NOT NULL
              UNION ALL
              SELECT 's7', dl.doc_id,
                     {i_leaf('COALESCE(n.tf, 0.0)', 'n2_st.ctf', 'dl.dl')}
                     + {i_leaf('COALESCE(tpv.tf_dup, 0.0)', 'tsp.ctf_dup', 'dl.dl')}
              FROM doclen dl
              LEFT JOIN n2_tf n ON n.doc_id = dl.doc_id
              LEFT JOIN tpv ON tpv.doc_id = dl.doc_id
              CROSS JOIN n2_st CROSS JOIN fstats CROSS JOIN tsp
              WHERE n.tf IS NOT NULL OR tpv.tf_dup IS NOT NULL
            )"""

    sql = base + "," + score_sql + f""",
            ranked AS (
              SELECT qid, {_URL_EXPR} AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                {_URL_EXPR} ASC
                     ) AS rank
              FROM s_all
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """
    # MATERIALIZE the shared CTEs: 7 score branches referencing inlined
    # copies of the stemmer/recursion chains made the planner blow memory
    for name in (
        "toks AS (", "tf AS (", "stats_t AS (", "doclen AS (",
        "ptoks AS (", "tpv AS (", "syn_tf AS (",
        "n1_pl AS (", "w1_pl AS (", "n2_pl AS (",
        "n1_tf AS (", "w1_tf AS (", "n2_tf AS (",
    ):
        sql = sql.replace(name, name.replace("AS (", "AS MATERIALIZED ("))
    return sql


def _diversity_sql(algorithm: str) -> str:
    """Recursive-CTE greedy diversification oracle (xQuAD / PM2).

    Float-exactness strategy: inputs are the FLOORED BM25 rankings (both
    engines agree bit-for-bit), and every internal expression replicates
    the engine's evaluation tree — ordered left-fold sums/products via
    ``list_reduce`` over selection-ordered lists, literals CAST to DOUBLE,
    2-intent sums (single addition — commutative, hence order-safe), and
    the TreeMap candidate pick = ORDER BY (score DESC, idx DESC) LIMIT 1
    (QryEval.java:398-417 overwrite semantics)."""
    rank_queries = []
    qtext_of = dict(BM25_QUERIES)
    pmap_vals = []
    for qid, its in DIVERSITY_INTENTS.items():
        rank_queries.append((qid, qtext_of[qid]))
        for j, it in enumerate(its, 1):
            rank_queries.append((f"{qid}_i{j}", it))
            pmap_vals.append(f"('{qid}', '{qid}_i{j}', {j})")
    vals = _stemmed_query_values(rank_queries)
    parents = ", ".join(f"'{q}'" for q in DIVERSITY_INTENTS)
    url_expr = (
        "'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0')"
    )
    base = f"""
            WITH RECURSIVE {_FULL_TOKS_CTES},
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS doc_count,
                              CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            df AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY term),
            dq(qid, term) AS (VALUES {vals}),
            dscores AS (
              SELECT dq.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - df.df + 0.5) / (df.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (doclen.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM dq
              JOIN tf ON dq.term = tf.term
              JOIN df ON dq.term = df.term
              JOIN doclen ON tf.doc_id = doclen.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY dq.qid, tf.doc_id
            ),
            dtop AS MATERIALIZED (
              -- MATERIALIZED: the recursive greedy below references the
              -- candidate chain per step; without it DuckDB re-inlines
              -- the whole analyzer+BM25 chain per recursion level
              -- (measured 12-25 s -> ~2 s at sf0.1)
              SELECT * FROM (
                SELECT qid, {url_expr} AS url,
                       FLOOR(score * 1000000) / 1000000 AS score_r,
                       ROW_NUMBER() OVER (
                         PARTITION BY qid
                         ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                  {url_expr} ASC
                       ) AS rank
                FROM dscores
              ) WHERE rank <= 20
            ),
            pmap(parent, iqid, j) AS (VALUES {', '.join(pmap_vals)}),
            pr AS (SELECT qid AS parent, url, score_r, rank FROM dtop
                   WHERE qid IN ({parents})),
            irq AS (
              SELECT m.parent, m.j, d.url, d.score_r
              FROM dtop d
              JOIN pmap m ON m.iqid = d.qid
              JOIN pr ON pr.parent = m.parent AND pr.url = d.url
            ),
            ssums AS (
              SELECT m.parent, m.j,
                COALESCE(list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                  list(i.score_r ORDER BY i.score_r DESC, i.url ASC)
                    FILTER (i.url IS NOT NULL)),
                  (a, b) -> a + b), CAST(0.0 AS DOUBLE)) AS ssum,
                COALESCE(bool_or(i.score_r > 1.0), FALSE) AS overone
              FROM (SELECT DISTINCT parent, j FROM pmap) m
              LEFT JOIN irq i ON i.parent = m.parent AND i.j = m.j
              GROUP BY m.parent, m.j
            ),
            qsums AS (
              SELECT parent,
                list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                  list(score_r ORDER BY score_r DESC, url ASC)),
                  (a, b) -> a + b) AS qsum,
                bool_or(score_r > 1.0) AS overone,
                CAST(COUNT(*) AS DOUBLE) AS lim
              FROM pr GROUP BY parent
            ),
            norm AS (
              SELECT q.parent,
                CASE WHEN q.overone OR bool_or(s.overone)
                     THEN GREATEST(MAX(s.ssum), q.qsum)
                     ELSE CAST(1.0 AS DOUBLE) END AS largest,
                q.lim
              FROM qsums q JOIN ssums s ON s.parent = q.parent
              GROUP BY q.parent, q.qsum, q.overone, q.lim
            ),
            cand AS (
              SELECT pr.parent AS qid, pr.rank - 1 AS idx, pr.url,
                     pr.score_r / n.largest AS qscore,
                     COALESCE(i1.score_r, CAST(0.0 AS DOUBLE)) / n.largest AS s1,
                     COALESCE(i2.score_r, CAST(0.0 AS DOUBLE)) / n.largest AS s2,
                     n.lim
              FROM pr
              JOIN norm n ON n.parent = pr.parent
              LEFT JOIN irq i1 ON i1.parent = pr.parent AND i1.j = 1
                              AND i1.url = pr.url
              LEFT JOIN irq i2 ON i2.parent = pr.parent AND i2.j = 2
                              AND i2.url = pr.url
            )"""
    if algorithm == "xquad":
        return base + f""",
            step(qid, iter, sel, neg1, neg2, url, score) AS (
              SELECT parent, 0, CAST([] AS BIGINT[]),
                     CAST([] AS DOUBLE[]), CAST([] AS DOUBLE[]),
                     CAST(NULL AS VARCHAR), CAST(NULL AS DOUBLE)
              FROM (SELECT DISTINCT parent FROM pr)
              UNION ALL
              SELECT s.qid, s.iter + 1, list_append(s.sel, b.idx),
                     list_append(s.neg1, CAST(1.0 AS DOUBLE) - b.s1),
                     list_append(s.neg2, CAST(1.0 AS DOUBLE) - b.s2),
                     b.url, b.score
              FROM step s, LATERAL (
                SELECT c.idx, c.url, c.s1, c.s2,
                  (CAST(1.0 AS DOUBLE) - CAST(0.6 AS DOUBLE)) * c.qscore
                  + CAST(0.6 AS DOUBLE) * (
                      list_reduce(list_prepend(CAST(0.5 AS DOUBLE) * c.s1, s.neg1),
                                  (a, b) -> a * b)
                      + list_reduce(list_prepend(CAST(0.5 AS DOUBLE) * c.s2, s.neg2),
                                    (a, b) -> a * b)
                    ) AS score
                FROM cand c
                WHERE c.qid = s.qid AND NOT list_contains(s.sel, c.idx)
                ORDER BY score DESC, c.idx DESC
                LIMIT 1
              ) b
              WHERE s.iter < 10
            )
            SELECT qid, url, CAST(iter AS BIGINT) AS rank,
                   FLOOR(score * 1000000000) / 1000000000 AS score_r
            FROM step WHERE iter >= 1 ORDER BY qid, rank
        """
    # PM2
    return base + f""",
            step(qid, iter, sel, s1, s2, v, url, score) AS (
              SELECT parent, 0, CAST([] AS BIGINT[]),
                     CAST(0.0 AS DOUBLE), CAST(0.0 AS DOUBLE),
                     CAST(0.5 AS DOUBLE) * lim,
                     CAST(NULL AS VARCHAR), CAST(NULL AS DOUBLE)
              FROM norm
              UNION ALL
              SELECT s.qid, s.iter + 1, list_append(s.sel, b.idx),
                     CASE WHEN b.cs1 + b.cs2 <> 0.0
                          THEN s.s1 + b.cs1 / (b.cs1 + b.cs2) ELSE s.s1 END,
                     CASE WHEN b.cs1 + b.cs2 <> 0.0
                          THEN s.s2 + b.cs2 / (b.cs1 + b.cs2) ELSE s.s2 END,
                     s.v, b.url, b.score
              FROM step s, LATERAL (
                SELECT c.idx, c.url, c.s1 AS cs1, c.s2 AS cs2,
                  CASE WHEN (s.v / (CAST(2.0 AS DOUBLE) * s.s2 + CAST(1.0 AS DOUBLE)))
                          > (s.v / (CAST(2.0 AS DOUBLE) * s.s1 + CAST(1.0 AS DOUBLE)))
                       THEN CAST(0.6 AS DOUBLE)
                            * (s.v / (CAST(2.0 AS DOUBLE) * s.s2 + CAST(1.0 AS DOUBLE)))
                            * c.s2
                            + (CAST(1.0 AS DOUBLE) - CAST(0.6 AS DOUBLE))
                            * ((s.v / (CAST(2.0 AS DOUBLE) * s.s1 + CAST(1.0 AS DOUBLE))) * c.s1)
                       ELSE CAST(0.6 AS DOUBLE)
                            * (s.v / (CAST(2.0 AS DOUBLE) * s.s1 + CAST(1.0 AS DOUBLE)))
                            * c.s1
                            + (CAST(1.0 AS DOUBLE) - CAST(0.6 AS DOUBLE))
                            * ((s.v / (CAST(2.0 AS DOUBLE) * s.s2 + CAST(1.0 AS DOUBLE))) * c.s2)
                  END AS score
                FROM cand c
                WHERE c.qid = s.qid AND NOT list_contains(s.sel, c.idx)
                ORDER BY score DESC, c.idx DESC
                LIMIT 1
              ) b
              WHERE s.iter < 10
            ),
            firsts AS (SELECT qid, score AS first FROM step WHERE iter = 1)
            SELECT st.qid, st.url, CAST(st.iter AS BIGINT) AS rank,
                   FLOOR((CASE WHEN st.iter > 1 AND st.score >= f.first
                          THEN st.score * CAST(0.999 AS DOUBLE)
                          ELSE st.score END) * 1000000000) / 1000000000 AS score_r
            FROM step st JOIN firsts f ON f.qid = st.qid
            WHERE st.iter >= 1 ORDER BY st.qid, rank
        """


def _ltr_norm_sql(inner: str) -> str:
    """Per-query min-max over the (floored) ltr_features_simple output,
    diff==0 leaving the value unchanged (QryEval.java:706-736)."""
    feats = [
        ("f5_r", "f5_n"), ("f6_r", "f6_n"), ("f7", "f7_n"),
        ("f18_r", "f18_n"), ("f20_r", "f20_n"),
    ]
    win = ", ".join(
        f"MIN({c}) OVER w AS mn_{c}, MAX({c}) OVER w AS mx_{c}"
        for c, _ in feats
    )
    sel = ", ".join(
        f"FLOOR((CASE WHEN mx_{c} = mn_{c} THEN CAST({c} AS DOUBLE) "
        f"ELSE (CAST({c} AS DOUBLE) - mn_{c}) / CAST(mx_{c} - mn_{c} AS DOUBLE) END)"
        f" * 1000000) / 1000000 AS {n}"
        for c, n in feats
    )
    return f"""
        SELECT qid, url, {sel}
        FROM (
          SELECT b.*, {win}
          FROM ({inner}) b
          WINDOW w AS (PARTITION BY qid)
        )
        ORDER BY qid, url
    """


def _ltr_rerank_sql(inner: str) -> str:
    """Closed-form one-iteration pairwise logistic from w=0 (sigma(0)=0.5):
    w_j = 0.1 * 0.5 * AVG over preference pairs of (x_aj - x_bj); scores =
    x.w, floored, re-ranked (score desc, url asc), top 3 per query."""
    feats = ["f5_r", "f6_r", "f7", "f18_r", "f20_r"]
    dcols = ", ".join(
        f"CAST(a.{c} AS DOUBLE) - CAST(b.{c} AS DOUBLE) AS d_{c}"
        for c in feats
    )
    # COALESCE: with ZERO preference pairs (every query ranks <= 2 docs)
    # the one-iteration-from-w=0 trainer leaves w at 0, not NULL
    wcols = ", ".join(
        f"0.1 * 0.5 * COALESCE(AVG(d_{c}), 0.0) AS w_{c}" for c in feats
    )
    dot = " + ".join(f"CAST(l.{c} AS DOUBLE) * w.w_{c}" for c in feats)
    return f"""
        WITH base AS ({inner}),
        lab AS (
          SELECT b.*,
                 CASE WHEN ROW_NUMBER() OVER (
                   PARTITION BY qid ORDER BY f5_r DESC, url ASC
                 ) <= 2 THEN 1 ELSE 0 END AS rel
          FROM base b
        ),
        pairs AS (
          SELECT a.qid, {dcols}
          FROM lab a JOIN lab b ON a.qid = b.qid AND a.rel > b.rel
        ),
        w AS (SELECT {wcols} FROM pairs),
        scores AS (
          SELECT l.qid, l.url, {dot} AS score
          FROM lab l CROSS JOIN w
        ),
        ranked AS (
          SELECT qid, url,
                 FLOOR(score * 1000000) / 1000000 AS score_r,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid
                   ORDER BY FLOOR(score * 1000000) / 1000000 DESC, url ASC
                 ) AS rank
          FROM scores
        )
        SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
        FROM ranked WHERE rank <= 3 ORDER BY qid, rank
    """


def _prf_from_ranking_sql() -> str:
    """Closed-form SQL for the file-sourced PRF flow: deterministic initial
    ranking -> expansion sums (the prf_expansion shape) -> top-8 learned
    terms (re-stemmed through the parser's analyzer, QryParser semantics)
    -> Indri #WAND with the sticky-0.5 weights (outer W = 0.5*m + 0.5,
    inner normalized by the learned-score sum).  Both sides rank by the
    1e-6-FLOORED score (tie url asc) — the diversity float contract."""
    q_vals = _stemmed_query_values(BM25_QUERIES[:3])
    url = (
        "'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0')"
    )
    leaf = (
        "(1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)"
        " / (dl.dl + 1000.0)) + 0.4 * p.pqc"
    )
    return f"""
        WITH {_FULL_TOKS_CTES},
        fstats AS (SELECT CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
        -- scoring-side doc lengths (docs in ud always hold >= 1 term, the
        -- COALESCE is belt-and-braces); the EXPANSION side joins doclen
        -- directly — zero-position feedback docs are engine-skipped
        doclen_all AS (
          SELECT d.doc_id, COALESCE(dl.dl, 0.0) AS dl
          FROM documents d LEFT JOIN doclen dl ON dl.doc_id = d.doc_id
        ),
        tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
               FROM toks GROUP BY doc_id, term),
        ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                FROM toks GROUP BY term),
        nd AS (SELECT COUNT(*) AS n FROM documents),
        init AS (
          SELECT v.qid,
                 CAST((v.qi * 37 + j.j * 13) % nd.n AS BIGINT) AS doc_id,
                 CAST(8 - j.j AS DOUBLE) AS score
          FROM (VALUES (1, 'q1'), (2, 'q2'), (3, 'q3')) v(qi, qid)
          CROSS JOIN (VALUES (0), (1), (2), (3), (4)) j(j)
          CROSS JOIN nd
        ),
        cand AS (SELECT DISTINCT i.qid, tf.term
                 FROM init i JOIN tf ON tf.doc_id = i.doc_id),
        exp AS (
          SELECT c.qid, c.term,
                 SUM(i.score * LN(fstats.sum_len / ct.ctf)
                     * ((COALESCE(tf.tf, 0.0)
                         + 40.0 * (ct.ctf / fstats.sum_len))
                        / (dl.dl + 40.0))) AS score
          FROM cand c
          JOIN init i ON i.qid = c.qid
          JOIN ctf ct ON ct.term = c.term
          -- INNER join doclen: a feedback doc with ZERO raw positions has
          -- no forward-index entry, so the engine SKIPS it entirely
          -- (Lucene null-term-vector semantics) — it must not contribute
          -- the dl=0 smoothing mass here
          JOIN doclen dl ON dl.doc_id = i.doc_id
          LEFT JOIN tf ON tf.doc_id = i.doc_id AND tf.term = c.term
          CROSS JOIN fstats
          GROUP BY c.qid, c.term, fstats.sum_len
        ),
        eranked AS (
          SELECT qid, term, score,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid ORDER BY score DESC, term ASC
                 ) AS r
          FROM exp
        ),
        -- the learned query is re-parsed by the engine, so its terms pass
        -- through the analyzer's stemmer again (idempotent for most stems,
        -- but the contract models it)
        -- the reparse consumes any float()-parsable bare token as a
        -- STICKY WEIGHT (QryParser.java:317-357 contract): a purely
        -- numeric learned term ('7', '2e5', 'nan', 'inf'/'infinity')
        -- never survives as an operand — drop it AND its weight here
        lsrc AS (SELECT 0 AS doc_id, qid, score AS w0, term AS w
                 FROM eranked
                 WHERE r <= 8
                   AND NOT regexp_matches(
                         term, '^([0-9]+(e[0-9]+)?|nan|inf|infinity)$')),
        {_sql_stem_ctes('lsrc', 'lq_', ', qid, w0')},
        learned AS (SELECT qid, w0, term FROM lq_stemmed),
        lsum AS (SELECT qid, SUM(w0) AS s FROM learned GROUP BY qid),
        q(qid, term) AS (VALUES {q_vals}),
        qm AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS m FROM q GROUP BY qid),
        allt AS (SELECT qid, term FROM q
                 UNION SELECT qid, term FROM learned),
        pqct AS (
          SELECT a.qid, a.term,
                 COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
          FROM allt a
          LEFT JOIN ctf c ON c.term = a.term
          CROSS JOIN fstats
        ),
        ud AS (SELECT DISTINCT a.qid, tf.doc_id
               FROM allt a JOIN tf ON tf.term = a.term),
        orig AS (
          SELECT ud.qid, ud.doc_id,
                 product(pow({leaf}, 0.5 / (0.5 * qm.m + 0.5))) AS sc
          FROM ud
          JOIN q ON q.qid = ud.qid
          JOIN pqct p ON p.qid = ud.qid AND p.term = q.term
          LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = ud.doc_id
          JOIN doclen_all dl ON dl.doc_id = ud.doc_id
          JOIN qm ON qm.qid = ud.qid
          GROUP BY ud.qid, ud.doc_id
        ),
        lrn AS (
          SELECT ud.qid, ud.doc_id,
                 product(pow({leaf}, l.w0 / ls.s)) AS sc
          FROM ud
          JOIN learned l ON l.qid = ud.qid
          JOIN lsum ls ON ls.qid = ud.qid
          JOIN pqct p ON p.qid = ud.qid AND p.term = l.term
          LEFT JOIN tf ON tf.term = l.term AND tf.doc_id = ud.doc_id
          JOIN doclen_all dl ON dl.doc_id = ud.doc_id
          GROUP BY ud.qid, ud.doc_id
        ),
        final AS (
          SELECT o.qid, o.doc_id,
                 o.sc * pow(l.sc, 0.5 / (0.5 * qm.m + 0.5)) AS score
          FROM orig o
          JOIN lrn l ON l.qid = o.qid AND l.doc_id = o.doc_id
          JOIN qm ON qm.qid = o.qid
        ),
        franked AS (
          SELECT qid, doc_id, score,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid
                   ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                            {url} ASC
                 ) AS rank
          FROM final
        )
        SELECT qid, CAST(rank AS BIGINT) AS rank, {url} AS url,
               FLOOR(score * 1000000) / 1000000 AS score_r
        FROM franked WHERE rank <= 10 ORDER BY qid, rank
    """


def _rrf_fusion_sql() -> str:
    """BM25 + Indri simple-analyzer runs, each floored-ranked, fused with
    rrf = 1/(60+rank_bm25) + 1/(60+rank_indri) (exact integer reciprocals
    — bit-identical across engines), top-10 by (rrf desc, url asc).

    The BM25 side REUSES the shared ``_BM25_SCORES_BODY`` chain (toks /
    doclen / corpus / fstats / tf / df / q / scores) — one source for
    every oracle that ranks with it, so a parameter tweak cannot desync
    this entry; the q5 no-hit query rides along contributing zero rows on
    both sides.  The Indri side builds on the same toks/tf/q CTEs."""
    url = (
        "'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0')"
    )
    return f"""
        WITH {_BM25_SCORES_BODY},
        ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                FROM toks GROUP BY term),
        qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n FROM q GROUP BY qid),
        pqc AS (
          SELECT qd.qid, qd.term,
                 COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
          FROM (SELECT DISTINCT qid, term FROM q) qd
          LEFT JOIN ctf c ON c.term = qd.term
          CROSS JOIN fstats
        ),
        ud AS (SELECT DISTINCT q.qid, tf.doc_id
               FROM q JOIN tf ON q.term = tf.term),
        iscores AS (
          SELECT ud.qid, ud.doc_id,
                 product(pow(
                   (1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)
                                  / (dl.dl + 1000.0))
                   + 0.4 * p.pqc,
                   1.0 / qn.n)) AS score
          FROM ud
          JOIN q ON q.qid = ud.qid
          JOIN pqc p ON p.qid = ud.qid AND p.term = q.term
          LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = ud.doc_id
          JOIN doclen dl ON dl.doc_id = ud.doc_id
          JOIN qn ON qn.qid = ud.qid
          GROUP BY ud.qid, ud.doc_id
        ),
        branked AS (
          SELECT qid, doc_id,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid
                   ORDER BY FLOOR(score * 1000000) / 1000000 DESC, {url} ASC
                 ) AS rank
          FROM scores
        ),
        iranked AS (
          SELECT qid, doc_id,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid
                   ORDER BY FLOOR(score * 1000000) / 1000000 DESC, {url} ASC
                 ) AS rank
          FROM iscores
        ),
        fused AS (
          SELECT b.qid, b.doc_id,
                 1.0 / (60 + b.rank) + 1.0 / (60 + i.rank) AS rrf
          FROM branked b
          JOIN iranked i ON i.qid = b.qid AND i.doc_id = b.doc_id
        ),
        franked AS (
          SELECT qid, doc_id, rrf,
                 ROW_NUMBER() OVER (
                   PARTITION BY qid ORDER BY rrf DESC, {url} ASC
                 ) AS rank
          FROM fused
        )
        SELECT qid, CAST(rank AS BIGINT) AS rank, {url} AS url, rrf
        FROM franked WHERE rank <= 10 ORDER BY qid, rank
    """


def oracle_sql() -> dict[str, str]:
    sqls = _oracle_sql_impl()
    sqls["temperature_mix"] = """
        -- T5 temperature sampling (alpha=0.5): w_c = floor(sqrt(n_c)*1e6)
        -- (sqrt is IEEE-correctly-rounded => libm == DuckDB), base
        -- alloc = (B*w)//W in HUGEINT, leftover by largest integer
        -- remainder (tie -> source asc); zero-token sources kept
        WITH t AS (
          SELECT doc_id, source,
                 len(regexp_extract_all(lower(text), '[0-9a-z]+'))
                   AS n_tok
          FROM documents
        ),
        per AS (
          SELECT source, CAST(SUM(n_tok) AS BIGINT) AS tokens
          FROM t GROUP BY source
        ),
        b AS (
          SELECT CAST(SUM(tokens) // 2 AS BIGINT) AS b FROM per
        ),
        w AS (
          SELECT source, tokens,
                 CAST(FLOOR(SQRT(CAST(tokens AS DOUBLE)) * 1000000)
                      AS BIGINT) AS wm
          FROM per
        ),
        ww AS (SELECT CAST(SUM(wm) AS BIGINT) AS w FROM w),
        base AS (
          SELECT w.source, w.tokens, w.wm,
                 CAST(COALESCE(
                   (CAST(b.b AS HUGEINT) * w.wm) // NULLIF(ww.w, 0), 0)
                   AS BIGINT) AS alloc0,
                 CAST(COALESCE(
                   (CAST(b.b AS HUGEINT) * w.wm) % NULLIF(ww.w, 0), 0)
                   AS BIGINT) AS rem
          FROM w, b, ww
        ),
        lo AS (
          SELECT CAST(b.b - (SELECT SUM(alloc0) FROM base) AS BIGINT)
                   AS l
          FROM b
        ),
        rk AS (
          SELECT source, tokens, wm, alloc0, rem,
                 ROW_NUMBER() OVER (ORDER BY rem DESC, source ASC) AS rn
          FROM base
        )
        SELECT source, tokens, wm AS w_micro,
               CAST(alloc0 + CASE WHEN rn <= lo.l THEN 1 ELSE 0 END
                    AS BIGINT) AS alloc
        FROM rk, lo
        ORDER BY source
    """
    # roundtrip entries re-hash content AFTER a JSONL / CSV
    # export+re-ingest; the oracle hashes the ORIGINAL parquet rows —
    # equality IS the fidelity check
    sqls["jsonl_roundtrip"] = sqls["fingerprints"]
    sqls["csv_roundtrip"] = sqls["fingerprints"]
    sqls["kn_bigram"] = """
        -- interpolated Kneser-Ney bigram LM (Kneser & Ney 1995):
        -- every statistic derives from the capped top-2000 bigram
        -- table; p_cont is add-one smoothed over (Ntypes + V_eff + 1);
        -- expression trees mirror the engine operand-for-operand
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS l
          FROM documents
        ),
        toks AS (SELECT doc_id, unnest(l) AS term FROM t),
        model AS (SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term),
        veff AS (
          SELECT CAST(LEAST(1000, COUNT(*)) AS BIGINT) AS v FROM model
        ),
        pairs AS (
          SELECT doc_id,
                 unnest(l[1 : len(l) - 1]) AS w1,
                 unnest(l[2 : len(l)]) AS w2
          FROM t WHERE len(l) >= 2
        ),
        big AS (
          SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM pairs GROUP BY w1, w2
        ),
        topb AS (
          SELECT w1, w2, cnt FROM big
          ORDER BY cnt DESC, w1 ASC, w2 ASC LIMIT 2000
        ),
        nt AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM topb),
        vstat AS (
          SELECT w1, CAST(SUM(cnt) AS BIGINT) AS ctx,
                 CAST(COUNT(*) AS BIGINT) AS n1f
          FROM topb GROUP BY w1
        ),
        wstat AS (
          SELECT w2, CAST(COUNT(*) AS BIGINT) AS n1b
          FROM topb GROUP BY w2
        ),
        scored AS (
          SELECT p.doc_id,
                 CAST(FLOOR(ln(
                   CASE
                     WHEN tb.cnt IS NOT NULL THEN
                       (tb.cnt - 0.75) / vs.ctx
                       + (0.75 * vs.n1f / vs.ctx)
                         * ((COALESCE(ws.n1b, 0) + 1.0)
                            / (nt.n + veff.v + 1))
                     WHEN vs.ctx IS NOT NULL THEN
                       (0.75 * vs.n1f / vs.ctx)
                         * ((COALESCE(ws.n1b, 0) + 1.0)
                            / (nt.n + veff.v + 1))
                     ELSE
                       (COALESCE(ws.n1b, 0) + 1.0)
                       / (nt.n + veff.v + 1)
                   END) * 1000000.0) AS BIGINT) AS micro
          FROM pairs p
          LEFT JOIN topb tb ON tb.w1 = p.w1 AND tb.w2 = p.w2
          LEFT JOIN vstat vs ON vs.w1 = p.w1
          LEFT JOIN wstat ws ON ws.w2 = p.w2
          CROSS JOIN nt CROSS JOIN veff
        )
        SELECT t.doc_id,
               CAST(GREATEST(len(t.l) - 1, 0) AS BIGINT) AS n_scored,
               CAST(COALESCE(s.total, 0) AS BIGINT) AS kn_micro
        FROM t
        LEFT JOIN (SELECT doc_id, SUM(micro) AS total FROM scored
                   GROUP BY doc_id) s USING (doc_id)
        ORDER BY t.doc_id
    """
    sqls["nb_classify"] = """
        -- multinomial Naive Bayes over the capped top-1000 vocab:
        -- p(c) = n_c/n, p(t|c) = (cnt+1)/(tok_c + V_eff), OOV tokens
        -- skipped (INNER JOIN topv), per-term/prior micro-units floored
        -- then integer-summed; argmax tie -> source asc.
        WITH toks AS (
          SELECT doc_id, source,
                 unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
          FROM documents
        ),
        gctf AS (SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term),
        topv AS (
          SELECT term FROM gctf ORDER BY ctf DESC, term ASC LIMIT 1000
        ),
        veff AS (SELECT COUNT(*) AS v FROM topv),
        cls AS (SELECT source, COUNT(*) AS n_docs
                FROM documents GROUP BY source),
        tot AS (SELECT COUNT(*) AS n FROM documents),
        prior AS (
          SELECT source,
                 CAST(FLOOR(LN(CAST(n_docs AS DOUBLE) / t.n) * 1000000)
                      AS BIGINT) AS prior_m
          FROM cls, tot t
        ),
        kcnt AS (
          SELECT source, term, COUNT(*) AS cnt
          FROM toks JOIN topv USING (term) GROUP BY source, term
        ),
        ctok AS (
          SELECT c.source, v.term, COALESCE(k.cnt, 0) AS cnt
          FROM cls c CROSS JOIN topv v
          LEFT JOIN kcnt k ON k.source = c.source AND k.term = v.term
        ),
        tokc AS (
          SELECT source, CAST(SUM(cnt) AS BIGINT) AS tok
          FROM ctok GROUP BY source
        ),
        lp AS (
          SELECT ct.source, ct.term,
                 CAST(FLOOR(LN((ct.cnt + 1.0) / (tc.tok + vf.v)) * 1000000)
                      AS BIGINT) AS lp_m
          FROM ctok ct JOIN tokc tc USING (source), veff vf
        ),
        docscore AS (
          SELECT d.doc_id, c.source,
                 p.prior_m + CAST(COALESCE(SUM(lp.lp_m), 0) AS BIGINT)
                   AS score_m
          FROM documents d
          CROSS JOIN cls c
          JOIN prior p ON p.source = c.source
          LEFT JOIN toks t ON t.doc_id = d.doc_id
          LEFT JOIN lp ON lp.source = c.source AND lp.term = t.term
          GROUP BY d.doc_id, c.source, p.prior_m
        ),
        pred AS (
          SELECT doc_id, source, score_m,
                 ROW_NUMBER() OVER (
                   PARTITION BY doc_id ORDER BY score_m DESC, source ASC
                 ) AS rn
          FROM docscore
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, source AS pred,
               CAST(score_m AS BIGINT) AS score_micro
        FROM pred WHERE rn = 1 ORDER BY doc_id
    """
    sqls["semdedup"] = """
        -- SemDeDup (Abbas et al. 2023): seeds = the 8 smallest-id
        -- vectors; every vector joins its max-cosine seed (tie: seed
        -- index asc); within a cluster rows order by (cos-to-seed
        -- desc, vec_id asc) and a row is dropped iff ANY earlier row
        -- is >= 0.45 cosine-similar (keep-closest-to-centroid).
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
        ),
        seeds AS (
          SELECT ROW_NUMBER() OVER (ORDER BY vec_id) - 1 AS sidx, v AS sv
          FROM (SELECT vec_id, v FROM e ORDER BY vec_id LIMIT 8)
        ),
        asg AS (
          SELECT e.vec_id, s.sidx,
                 list_cosine_similarity(e.v, s.sv) AS cs,
                 ROW_NUMBER() OVER (
                   PARTITION BY e.vec_id
                   ORDER BY list_cosine_similarity(e.v, s.sv) DESC,
                            s.sidx ASC
                 ) AS rn
          FROM e CROSS JOIN seeds s
        ),
        a AS (SELECT vec_id, sidx AS cluster, cs FROM asg WHERE rn = 1),
        ord_t AS (
          SELECT a.vec_id, a.cluster, a.cs, e.v,
                 ROW_NUMBER() OVER (
                   PARTITION BY a.cluster
                   ORDER BY a.cs DESC, a.vec_id ASC
                 ) AS pos
          FROM a JOIN e USING (vec_id)
        ),
        dr AS (
          SELECT b.vec_id,
                 COALESCE(MAX(CASE WHEN
                   list_cosine_similarity(p.v, b.v) >= 0.45
                   THEN 1 ELSE 0 END), 0) AS dropped
          FROM ord_t b
          LEFT JOIN ord_t p ON p.cluster = b.cluster AND p.pos < b.pos
          GROUP BY b.vec_id
        )
        SELECT CAST(o.vec_id AS BIGINT) AS vec_id,
               CAST(o.cluster AS BIGINT) AS cluster,
               CAST(dr.dropped AS BIGINT) AS dropped
        FROM ord_t o JOIN dr USING (vec_id) ORDER BY vec_id
    """
    # pii_scrub oracle is GENERATED from the engine's PII_PATTERNS
    # constant (stages/text.py): one CTE per pattern stage, counting on
    # the current text then rewriting it — both sides run RE2, so the
    # pattern list IS the shared contract.
    from searchengines_ray.stages.text import PII_PATTERNS as _PII

    _pii_ctes = ["s0 AS (SELECT doc_id, COALESCE(text, '') AS t FROM documents)"]
    for _i, (_n, _pat, _repl) in enumerate(_PII, 1):
        _p = _pat.replace("'", "''")
        _carry = "".join(f"n_{m}, " for m, _, _ in _PII[: _i - 1])
        _pii_ctes.append(
            f"s{_i} AS (SELECT doc_id, {_carry}"
            f"len(regexp_extract_all(t, '{_p}')) AS n_{_n}, "
            f"regexp_replace(t, '{_p}', '{_repl}', 'g') AS t "
            f"FROM s{_i - 1})"
        )
    sqls["pii_scrub"] = (
        "WITH "
        + ",\n             ".join(_pii_ctes)
        + f"""
        SELECT doc_id, n_email, n_ipv4, n_phone, t AS clean_text
        FROM s{len(_PII)} ORDER BY doc_id
    """
    )
    sqls["kcore_peel"] = """
        -- 4 unrolled peel rounds over the symmetrized distinct
        -- high-value edge set; the final HAVING mirrors the engine's
        -- last-round survivor filter
        WITH ke0 AS (
          SELECT user_id AS src,
                 1000000 + CAST(regexp_extract(props,
                   '"k": (\\d+)', 1) AS BIGINT) AS dst
          FROM events WHERE value > 170
        ),\n        kb0 AS MATERIALIZED (
          SELECT DISTINCT src, dst FROM (
            SELECT src, dst FROM ke0
            UNION ALL SELECT dst, src FROM ke0)
          WHERE src <> dst
        ),\n        ks1 AS MATERIALIZED (SELECT src AS node FROM kb0 GROUP BY src HAVING COUNT(*) >= 3),\n        kb1 AS MATERIALIZED (SELECT e.src, e.dst FROM kb0 e JOIN ks1 a ON e.src = a.node JOIN ks1 b ON e.dst = b.node),\n        ks2 AS MATERIALIZED (SELECT src AS node FROM kb1 GROUP BY src HAVING COUNT(*) >= 3),\n        kb2 AS MATERIALIZED (SELECT e.src, e.dst FROM kb1 e JOIN ks2 a ON e.src = a.node JOIN ks2 b ON e.dst = b.node),\n        ks3 AS MATERIALIZED (SELECT src AS node FROM kb2 GROUP BY src HAVING COUNT(*) >= 3),\n        kb3 AS MATERIALIZED (SELECT e.src, e.dst FROM kb2 e JOIN ks3 a ON e.src = a.node JOIN ks3 b ON e.dst = b.node),\n        ks4 AS MATERIALIZED (SELECT src AS node FROM kb3 GROUP BY src HAVING COUNT(*) >= 3),\n        kb4 AS MATERIALIZED (SELECT e.src, e.dst FROM kb3 e JOIN ks4 a ON e.src = a.node JOIN ks4 b ON e.dst = b.node)
        SELECT src AS node, CAST(COUNT(*) AS BIGINT) AS degree
        FROM kb4 GROUP BY src HAVING COUNT(*) >= 3
        ORDER BY node
    """
    # anomaly_hours oracle: dense zero-filled hourly grid + exclusive
    # 24-row window sums in HUGEINT; the squared z-test mirrors the
    # engine's Python-int arithmetic exactly (all operands positive)
    sqls["anomaly_hours"] = """
        WITH e AS (
          SELECT event_type,
                 epoch_us(ts) // 3600000000 AS h
          FROM events
        ),
        b AS (SELECT MIN(h) AS h0, MAX(h) AS h1 FROM e),
        types AS (SELECT DISTINCT event_type FROM e),
        grid AS (
          SELECT t.event_type, g.h
          FROM types t CROSS JOIN (
            SELECT unnest(generate_series((SELECT h0 FROM b),
                                          (SELECT h1 FROM b))) AS h) g
        ),
        c AS (SELECT event_type, h, CAST(COUNT(*) AS BIGINT) AS n
              FROM e GROUP BY 1, 2),
        gc AS (
          SELECT grid.event_type, grid.h,
                 CAST(COALESCE(c.n, 0) AS BIGINT) AS x
          FROM grid LEFT JOIN c
            ON grid.event_type = c.event_type AND grid.h = c.h
        ),
        w AS (
          SELECT event_type, h, x,
                 CAST(SUM(x) OVER win AS HUGEINT) AS s,
                 CAST(SUM(x * x) OVER win AS HUGEINT) AS q,
                 COUNT(*) OVER win AS nw
          FROM gc
          WINDOW win AS (PARTITION BY event_type ORDER BY h
                         ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING)
        )
        SELECT event_type, h AS hour, x AS cnt
        FROM w
        WHERE nw = 24 AND (CAST(x AS HUGEINT) * 24 - s) > 0
          AND (CAST(x AS HUGEINT) * 24 - s)
              * (CAST(x AS HUGEINT) * 24 - s) * 1000000
              > CAST(3000 AS HUGEINT) * 3000 * (24 * q - s * s)
        ORDER BY event_type, hour
    """
    # lsh_registry oracle: the cross-side bottom-k estimator over the
    # doc_id % 10 split — same sketch/estimate CTE chain as
    # bottomk_neardup, candidate = shared sketch hash ACROSS sides,
    # final filter = estimated jaccard >= 1/2 (integer)
    sqls["lsh_registry"] = """
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
          FROM documents
        ),
        wh AS (
          SELECT doc_id,
                 list_transform(ws, t ->
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(string_split(t, ''),
                                      c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647)) AS whs
          FROM w WHERE len(ws) >= 4
        ),
        g AS (
          SELECT DISTINCT doc_id,
                 unnest(list_transform(
                   generate_series(1, len(whs) - 3),
                   i -> list_reduce(
                          list_prepend(CAST(0 AS BIGINT),
                                       whs[i : i + 3]),
                          (a, x) -> (a * 1000003 + x) % 2147483647)))
                   AS sh
          FROM wh
        ),
        sk AS MATERIALIZED (
          SELECT doc_id, sh FROM (
            SELECT doc_id, sh,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY sh) AS rn
            FROM g) WHERE rn <= 16
        ),
        skn AS MATERIALIZED (
          SELECT doc_id, sh FROM sk WHERE doc_id % 10 = 0),
        skr AS MATERIALIZED (
          SELECT doc_id, sh FROM sk WHERE doc_id % 10 <> 0),
        cand AS MATERIALIZED (
          SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
          FROM skn a JOIN skr b ON a.sh = b.sh
        ),
        pairsk AS (
          SELECT c.da, c.db, s.sh, 1 AS ia, 0 AS ib
          FROM cand c JOIN skn s ON s.doc_id = c.da
          UNION ALL
          SELECT c.da, c.db, s.sh, 0 AS ia, 1 AS ib
          FROM cand c JOIN skr s ON s.doc_id = c.db
        ),
        tagged AS (
          SELECT da, db, sh, MAX(ia) AS ia, MAX(ib) AS ib
          FROM pairsk GROUP BY da, db, sh
        ),
        ranked AS (
          SELECT da, db, ia, ib,
                 ROW_NUMBER() OVER (PARTITION BY da, db
                                    ORDER BY sh) AS rn,
                 COUNT(*) OVER (PARTITION BY da, db) AS nu
          FROM tagged
        ),
        est AS (
          SELECT da, db,
                 CAST(SUM(CASE WHEN ia = 1 AND ib = 1
                                AND rn <= LEAST(16, nu)
                               THEN 1 ELSE 0 END) AS BIGINT) AS inter,
                 CAST(LEAST(16, MAX(nu)) AS BIGINT) AS denom
          FROM ranked GROUP BY da, db
        )
        SELECT CAST(da AS BIGINT) AS doc_id,
               CAST(db AS BIGINT) AS reg_doc_id, inter, denom
        FROM est WHERE inter >= 1 AND inter * 2 >= denom
        ORDER BY doc_id, reg_doc_id
    """
    # bleu_overlap oracle: the clipped-precision definition itself —
    # split CASE is the hash_split contract, bigrams the list_zip idiom
    sqls["bleu_overlap"] = """
        WITH d AS (
          SELECT ((((doc_id % 2147483648) * 2654435761)
                   % 4294967296) % 1000) < 200 AS cand,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS l
          FROM documents
        ),
        g1 AS (SELECT cand, unnest(l) AS gram FROM d),
        c1 AS (
          SELECT gram,
                 SUM(CASE WHEN cand THEN 1 ELSE 0 END) AS c,
                 SUM(CASE WHEN cand THEN 0 ELSE 1 END) AS r
          FROM g1 GROUP BY gram
        ),
        z AS (
          SELECT cand,
                 unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS s
          FROM d WHERE len(l) >= 2
        ),
        g2 AS (SELECT cand, s[1] || ' ' || s[2] AS gram FROM z),
        c2 AS (
          SELECT gram,
                 SUM(CASE WHEN cand THEN 1 ELSE 0 END) AS c,
                 SUM(CASE WHEN cand THEN 0 ELSE 1 END) AS r
          FROM g2 GROUP BY gram
        )
        SELECT CAST(1 AS BIGINT) AS n,
               CAST(COALESCE(SUM(LEAST(c, r)), 0) AS BIGINT) AS matched,
               CAST(COALESCE(SUM(c), 0) AS BIGINT) AS total
        FROM c1
        UNION ALL
        SELECT CAST(2 AS BIGINT),
               CAST(COALESCE(SUM(LEAST(c, r)), 0) AS BIGINT),
               CAST(COALESCE(SUM(c), 0) AS BIGINT)
        FROM c2
        ORDER BY n
    """
    # adamic_adar oracle: wedge self-join over the distinct undirected
    # edge set with the SAME degree cap and floored-micro 1/ln(deg)
    # term as the engine (libm ln, IEEE division — identical bits)
    sqls["adamic_adar"] = """
        WITH e0 AS (
          SELECT user_id AS src,
                 1000000 + CAST(regexp_extract(props,
                   '"k": (\\d+)', 1) AS BIGINT) AS dst
          FROM events
        ),
        e AS MATERIALIZED (
          SELECT DISTINCT src, dst FROM (
            SELECT src, dst FROM e0
            UNION ALL SELECT dst, src FROM e0)
        ),
        ctr AS MATERIALIZED (
          SELECT src,
                 CAST(FLOOR(1000000.0 / ln(CAST(COUNT(*) AS DOUBLE)))
                      AS BIGINT) AS w
          FROM e GROUP BY src
          HAVING COUNT(*) BETWEEN 2 AND 64
        ),
        s AS MATERIALIZED (
          SELECT e1.dst AS node_a, e2.dst AS node_b,
                 CAST(SUM(ctr.w) AS BIGINT) AS score_micro
          FROM ctr
          JOIN e e1 ON e1.src = ctr.src
          JOIN e e2 ON e2.src = ctr.src AND e1.dst < e2.dst
          GROUP BY e1.dst, e2.dst
        )
        SELECT node_a, node_b, score_micro FROM s
        QUALIFY ROW_NUMBER() OVER
          (ORDER BY score_micro DESC, node_a, node_b) <= 50
        ORDER BY score_micro DESC, node_a, node_b
    """
    # bradley_terry oracle: LEAD-window duel derivation + 5 unrolled MM
    # rounds in exact HUGEINT floor arithmetic (all operands positive, so
    # DuckDB's truncating // equals floor); every per-round CTE is
    # referenced multiple times -> MATERIALIZED (no recursion, safe).
    _bt_scale = 10**6
    _bt_s2 = _bt_scale * _bt_scale
    _bt_ctes = [
        """duel AS (
          SELECT event_type AS t1, value AS v1,
                 LEAD(event_type) OVER w AS t2,
                 LEAD(value) OVER w AS v2
          FROM events
          WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )""",
        """p AS MATERIALIZED (
          SELECT CASE WHEN v2 > v1 THEN t2 ELSE t1 END AS winner,
                 CASE WHEN v2 > v1 THEN t1 ELSE t2 END AS loser,
                 COUNT(*) AS n
          FROM duel WHERE t2 IS NOT NULL AND t1 <> t2
          GROUP BY 1, 2
        )""",
        """g AS MATERIALIZED (
          SELECT i, j, CAST(SUM(n) AS BIGINT) AS n FROM (
            SELECT winner AS i, loser AS j, n FROM p
            UNION ALL SELECT loser, winner, n FROM p
          ) GROUP BY i, j
        )""",
        """items AS MATERIALIZED (SELECT DISTINCT i FROM g)""",
        """wins AS MATERIALIZED (
          SELECT items.i,
                 CAST(COALESCE(pw.w, 0) AS BIGINT) AS w
          FROM items LEFT JOIN (
            SELECT winner AS i, SUM(n) AS w FROM p GROUP BY winner
          ) pw ON items.i = pw.i
        )""",
        f"s0 AS MATERIALIZED (SELECT i, CAST({_bt_scale} AS HUGEINT)"
        " AS s FROM items)",
    ]
    for _t in range(1, 6):
        _bt_ctes.append(
            f"""d{_t} AS MATERIALIZED (
          SELECT g.i,
                 SUM((CAST(g.n AS HUGEINT) * {_bt_s2}) // (si.s + sj.s))
                   AS d
          FROM g JOIN s{_t - 1} si ON g.i = si.i
                 JOIN s{_t - 1} sj ON g.j = sj.i
          GROUP BY g.i
        )"""
        )
        _bt_ctes.append(
            f"""r{_t} AS MATERIALIZED (
          SELECT wins.i,
                 CASE WHEN d.d > 0
                      THEN (CAST(wins.w AS HUGEINT) * {_bt_s2}) // d.d
                      ELSE CAST(0 AS HUGEINT) END AS r
          FROM wins JOIN d{_t} d ON wins.i = d.i
        )"""
        )
        _bt_ctes.append(
            f"""s{_t} AS MATERIALIZED (
          SELECT r.i,
                 CASE WHEN (SELECT MAX(r2.r) FROM r{_t} r2) = 0 THEN p.s
                      WHEN w.w > 0
                      THEN GREATEST(CAST(1 AS HUGEINT),
                           (r.r * {_bt_scale})
                             // (SELECT MAX(r2.r) FROM r{_t} r2))
                      ELSE CAST(0 AS HUGEINT) END AS s
          FROM r{_t} r JOIN s{_t - 1} p ON r.i = p.i
                       JOIN wins w ON r.i = w.i
        )"""
        )
    sqls["bradley_terry"] = (
        "WITH "
        + ",\n        ".join(_bt_ctes)
        + """
        SELECT wins.i AS item, wins.w AS wins,
               CAST(s5.s AS BIGINT) AS score
        FROM wins JOIN s5 ON wins.i = s5.i
        ORDER BY score DESC, item ASC
    """
    )
    # kcenter_select oracle: 8 unrolled greedy rounds — each round an
    # incremental LEAST(prev min-dist, dist to the newest center) plus an
    # (dist desc, vec_id asc) argmax excluding selected ids; quantization
    # and distance mirror similarity.py kcenter_select bit-for-bit.
    # (chained plain CTEs, no recursion — qd materialized once)
    _kc_k = 8
    _kc_ctes = [
        """qd AS MATERIALIZED (
          SELECT vec_id,
                 unnest(generate_series(1, len(embedding))) AS k,
                 unnest(list_transform(embedding,
                   x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1000000.0)
                             AS BIGINT))) AS qv
          FROM embeddings
        )""",
        "c0 AS MATERIALIZED (SELECT MIN(vec_id) AS vec_id,"
        " CAST(0 AS BIGINT) AS d FROM embeddings)",
    ]
    for _i in range(1, _kc_k):
        _prev = f"c{_i - 1}"
        _sel = " UNION ALL ".join(
            f"SELECT vec_id FROM c{_j}" for _j in range(_i)
        )
        # the newest center's 64-row quantized vector gets its own
        # MATERIALIZED CTE: filtering qd by the scalar subquery INSIDE
        # the join predicate is not pushed down, so the join would key
        # on k alone (64 distinct values) and blow up to n^2 x d rows
        _dist = (
            f"cq{_i} AS MATERIALIZED (SELECT k, qv FROM qd "
            f"WHERE vec_id = (SELECT vec_id FROM {_prev})), "
            f"d{_i} AS (SELECT p.vec_id, "
            "CAST(SUM((p.qv - c.qv) * (p.qv - c.qv)) AS BIGINT) AS d "
            f"FROM qd p JOIN cq{_i} c ON p.k = c.k "
            "GROUP BY p.vec_id)"
        )
        # every c{i}/m{i} is referenced several times downstream (the
        # scalar-subquery center, every later NOT IN union, the final
        # UNION ALL) — without MATERIALIZED DuckDB re-inlines the whole
        # upstream chain per reference and the plan grows exponentially
        # in rounds (no recursion here, so MATERIALIZED is safe)
        if _i == 1:
            _min = "m1 AS MATERIALIZED (SELECT vec_id, d FROM d1)"
        else:
            _min = (
                f"m{_i} AS MATERIALIZED (SELECT d{_i}.vec_id, "
                f"LEAST(d{_i}.d, m{_i - 1}.d) AS d "
                f"FROM d{_i} JOIN m{_i - 1} "
                f"ON d{_i}.vec_id = m{_i - 1}.vec_id)"
            )
        _pick = (
            f"c{_i} AS MATERIALIZED (SELECT vec_id, d FROM m{_i} "
            f"WHERE vec_id NOT IN ({_sel}) "
            "ORDER BY d DESC, vec_id ASC LIMIT 1)"
        )
        _kc_ctes += [_dist, _min, _pick]
    sqls["kcenter_select"] = (
        "WITH "
        + ",\n        ".join(_kc_ctes)
        + "\n        "
        + " UNION ALL ".join(
            f"SELECT CAST({_j} AS BIGINT) AS round, vec_id,"
            f" d AS dist_sq FROM c{_j}"
            for _j in range(_kc_k)
        )
        + "\n        ORDER BY round"
    )
    # heavy_hitters oracle: the exact phi-frequent definition over the
    # simple word stream — the engine's MG sketch is only a candidate
    # generator; its exact-recount filter must reproduce this set
    # bit-for-bit (k matches _q_heavy_hitters).
    sqls["heavy_hitters"] = f"""
        WITH toks AS ({_TOKS}),
        tot AS (SELECT COUNT(*) AS n FROM toks),
        cnt AS (SELECT term, COUNT(*) AS cnt FROM toks GROUP BY term)
        SELECT term, CAST(cnt AS BIGINT) AS cnt
        FROM cnt, tot WHERE cnt * 100 > tot.n
        ORDER BY cnt DESC, term ASC
    """
    # random_walks oracle: 3 unrolled argmin-hop CTEs (the frontier is
    # one row per walk, so ROW_NUMBER per start replays the engine's
    # per-walk argmin exactly); hash and tie-break mirror graph.py.
    _rw_ctes = [
        """e0 AS (
          SELECT user_id AS src,
                 1000000 + CAST(regexp_extract(props,
                   '"k": (\\d+)', 1) AS BIGINT) AS dst
          FROM events
        )""",
        """e AS MATERIALIZED (
          SELECT DISTINCT src, dst FROM (
            SELECT src, dst FROM e0
            UNION ALL SELECT dst, src FROM e0)
        )""",
        "w0 AS (SELECT DISTINCT src AS start, src AS cur FROM e)",
    ]
    for _t in (1, 2, 3):
        _rw_ctes.append(
            f"""w{_t} AS MATERIALIZED (
          SELECT start, cur FROM (
            SELECT w.start, e.dst AS cur,
                   ROW_NUMBER() OVER (PARTITION BY w.start
                     ORDER BY ((((w.cur * 131 + {_t}) % 2147483647)
                                * 137 + e.dst) % 2147483647),
                              e.dst) AS rn
            FROM w{_t - 1} w JOIN e ON e.src = w.cur
          ) WHERE rn = 1
        )"""
        )
    sqls["random_walks"] = (
        "WITH "
        + ",\n        ".join(_rw_ctes)
        + "\n        SELECT CAST(start AS BIGINT) AS start,"
        + " CAST(step AS BIGINT) AS step, CAST(node AS BIGINT) AS node"
        + " FROM ("
        + " UNION ALL ".join(
            f"SELECT start, {_t} AS step, cur AS node FROM w{_t}"
            for _t in (0, 1, 2, 3)
        )
        + ") ORDER BY start, step"
    )
    sqls["bottomk_neardup"] = """
        -- Bottom-k shingle sketch near-dup estimator: per doc the 16
        -- smallest distinct 4-word shingle hashes (cdc gram contract:
        -- base-131 word folds, base-1000003 gram fold, mod 2^31-1);
        -- for every pair sharing a sketch hash, inter = shared hashes
        -- inside the union's own bottom-16, denom = min(16, |union|).
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
          FROM documents
        ),
        wh AS (
          SELECT doc_id,
                 list_transform(ws, t ->
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(string_split(t, ''),
                                      c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647)) AS whs
          FROM w WHERE len(ws) >= 4
        ),
        g AS (
          SELECT DISTINCT doc_id,
                 unnest(list_transform(
                   generate_series(1, len(whs) - 3),
                   i -> list_reduce(
                          list_prepend(CAST(0 AS BIGINT),
                                       whs[i : i + 3]),
                          (a, x) -> (a * 1000003 + x) % 2147483647)))
                   AS sh
          FROM wh
        ),
        sk AS (
          SELECT doc_id, sh FROM (
            SELECT doc_id, sh,
                   ROW_NUMBER() OVER (PARTITION BY doc_id
                                      ORDER BY sh) AS rn
            FROM g) WHERE rn <= 16
        ),
        cand AS (
          SELECT DISTINCT a.doc_id AS da, b.doc_id AS db
          FROM sk a JOIN sk b
            ON a.sh = b.sh AND a.doc_id < b.doc_id
        ),
        pairsk AS (
          SELECT c.da, c.db, s.sh, 1 AS ia, 0 AS ib
          FROM cand c JOIN sk s ON s.doc_id = c.da
          UNION ALL
          SELECT c.da, c.db, s.sh, 0 AS ia, 1 AS ib
          FROM cand c JOIN sk s ON s.doc_id = c.db
        ),
        tagged AS (
          SELECT da, db, sh, MAX(ia) AS ia, MAX(ib) AS ib
          FROM pairsk GROUP BY da, db, sh
        ),
        ranked AS (
          SELECT da, db, ia, ib,
                 ROW_NUMBER() OVER (PARTITION BY da, db
                                    ORDER BY sh) AS rn,
                 COUNT(*) OVER (PARTITION BY da, db) AS nu
          FROM tagged
        ),
        est AS (
          SELECT da, db,
                 CAST(SUM(CASE WHEN ia = 1 AND ib = 1
                                AND rn <= LEAST(16, nu)
                               THEN 1 ELSE 0 END) AS BIGINT) AS inter,
                 CAST(LEAST(16, MAX(nu)) AS BIGINT) AS denom
          FROM ranked GROUP BY da, db
        )
        SELECT CAST(da AS BIGINT) AS doc_a, CAST(db AS BIGINT) AS doc_b,
               inter, denom
        FROM est WHERE inter >= 1 ORDER BY doc_a, doc_b
    """
    sqls["cdc_dedup"] = """
        -- Content-defined (landmark) chunking: boundary after word j
        -- when the 4-word gram hash ending at j is = 0 (mod 16), no
        -- boundary after a doc's last word; chunk_hash = base-1000003
        -- fold of the chunk's base-131 word hashes; duplicated chunks
        -- aggregated with first occurrence = min doc, min idx within it.
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
          FROM documents
        ),
        wh AS (
          SELECT doc_id,
                 list_transform(ws, t ->
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(string_split(t, ''),
                                      c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647)) AS whs
          FROM w WHERE len(ws) > 0
        ),
        cuts AS (
          SELECT doc_id, i + 3 AS b FROM (
            SELECT doc_id,
                   unnest(generate_series(1, len(whs) - 3)) AS i,
                   unnest(list_transform(
                     generate_series(1, len(whs) - 3),
                     i -> list_reduce(
                            list_prepend(CAST(0 AS BIGINT),
                                         whs[i : i + 3]),
                            (a, x) -> (a * 1000003 + x) % 2147483647)))
                     AS gh,
                   len(whs) AS n
            FROM wh WHERE len(whs) >= 4
          ) WHERE gh % 16 = 0 AND i + 3 < n
        ),
        starts AS (
          SELECT doc_id, 1 AS s FROM wh
          UNION ALL
          SELECT doc_id, b + 1 AS s FROM cuts
        ),
        bounds AS (
          SELECT st.doc_id, st.s,
                 ROW_NUMBER() OVER (PARTITION BY st.doc_id
                                    ORDER BY st.s) - 1 AS chunk_idx,
                 COALESCE(LEAD(st.s) OVER (PARTITION BY st.doc_id
                                           ORDER BY st.s) - 1,
                          len(wh.whs)) AS e
          FROM starts st JOIN wh ON wh.doc_id = st.doc_id
        ),
        chunks AS (
          SELECT b.doc_id, b.chunk_idx,
                 b.e - b.s + 1 AS n_words,
                 list_reduce(
                   list_prepend(CAST(0 AS BIGINT), wh.whs[b.s : b.e]),
                   (a, x) -> (a * 1000003 + x) % 2147483647) AS chunk_hash
          FROM bounds b JOIN wh ON wh.doc_id = b.doc_id
        ),
        agg AS (
          SELECT chunk_hash, MIN(n_words) AS n_words,
                 COUNT(*) AS n_occ, COUNT(DISTINCT doc_id) AS n_docs,
                 MIN(doc_id) AS first_doc
          FROM chunks GROUP BY chunk_hash HAVING COUNT(*) >= 2
        )
        SELECT CAST(a.chunk_hash AS BIGINT) AS chunk_hash,
               CAST(a.n_words AS BIGINT) AS n_words,
               CAST(a.n_occ AS BIGINT) AS n_occ,
               CAST(a.n_docs AS BIGINT) AS n_docs,
               CAST(a.first_doc AS BIGINT) AS first_doc,
               CAST(MIN(c.chunk_idx) AS BIGINT) AS first_idx
        FROM agg a JOIN chunks c
          ON c.chunk_hash = a.chunk_hash AND c.doc_id = a.first_doc
        GROUP BY a.chunk_hash, a.n_words, a.n_occ, a.n_docs, a.first_doc
        ORDER BY chunk_hash
    """
    sqls["winnowing"] = """
        -- MOSS winnowing (Schleimer et al. 2003): per doc, over the
        -- stream of min(4, n_words)-word shingle hashes (the
        -- fingerprints gram contract), every 4-gram window selects its
        -- minimum hash, RIGHTMOST position on ties; docs with < 4 grams
        -- winnow their single short window.  mod-(2^31-1) polynomial
        -- folds reproduce the engine hashes bit-for-bit.
        WITH w AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
          FROM documents
        ),
        wh AS (
          SELECT doc_id,
                 list_transform(ws, t ->
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(string_split(t, ''),
                                      c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647)) AS whs
          FROM w WHERE len(ws) > 0
        ),
        g AS (
          SELECT doc_id,
                 unnest(generate_series(
                   1, len(whs) - LEAST(len(whs), 4) + 1)) AS pos,
                 unnest(list_transform(
                   generate_series(1, len(whs) - LEAST(len(whs), 4) + 1),
                   i -> list_reduce(
                          list_prepend(CAST(0 AS BIGINT),
                                       whs[i : i + LEAST(len(whs), 4) - 1]),
                          (a, x) -> (a * 1000003 + x) % 2147483647))) AS gh
          FROM wh
        ),
        stats AS (SELECT doc_id, COUNT(*) AS m FROM g GROUP BY doc_id),
        wm AS (
          SELECT g.doc_id, g.pos, g.gh, s.m,
                 MIN(g.gh) OVER (PARTITION BY g.doc_id ORDER BY g.pos
                                 ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING)
                   AS wmin
          FROM g JOIN stats s USING (doc_id)
        ),
        selfull AS (
          -- rightmost in-window position of the window minimum
          SELECT a.doc_id, MAX(b.pos) AS pos, a.wmin AS gram_hash
          FROM wm a JOIN g b
            ON b.doc_id = a.doc_id AND b.gh = a.wmin
           AND b.pos BETWEEN a.pos AND a.pos + 3
          WHERE a.m >= 4 AND a.pos <= a.m - 3
          GROUP BY a.doc_id, a.pos, a.wmin
        ),
        selshort AS (
          SELECT g.doc_id, MAX(g.pos) AS pos, mn.mn AS gram_hash
          FROM g JOIN (SELECT doc_id, MIN(gh) AS mn, COUNT(*) AS m
                       FROM g GROUP BY doc_id) mn
            ON mn.doc_id = g.doc_id AND g.gh = mn.mn
          WHERE mn.m < 4
          GROUP BY g.doc_id, mn.mn
        )
        SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos,
               CAST(gram_hash AS BIGINT) AS gram_hash
        FROM (SELECT * FROM selfull UNION ALL SELECT * FROM selshort)
        ORDER BY doc_id, pos
    """
    sqls["zipf_fit"] = """
        -- Zipf rank-frequency diagnostic: integer-exact OLS components
        -- of floor(ln(ctf)*1e6) vs floor(ln(rank)*1e6) over the top-1000
        -- capped vocabulary (ctf desc, term asc) — order-free BIGINT
        -- sums; the slope divides on the consumer side (the DuckDB //
        -- truncation lesson: never ship a division).
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
          FROM documents
        ),
        model AS (SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term),
        ranked AS (
          SELECT CAST(ROW_NUMBER() OVER (ORDER BY ctf DESC, term ASC)
                      AS BIGINT) AS r, ctf
          FROM (SELECT term, ctf FROM model
                ORDER BY ctf DESC, term ASC LIMIT 1000)
        ),
        xy AS (
          SELECT CAST(FLOOR(ln(CAST(r AS DOUBLE)) * 1000000.0) AS BIGINT)
                   AS x,
                 CAST(FLOOR(ln(CAST(ctf AS DOUBLE)) * 1000000.0) AS BIGINT)
                   AS y
          FROM ranked
        )
        SELECT CAST(COUNT(*) AS BIGINT) AS n_terms,
               CAST(COALESCE(SUM(x), 0) AS BIGINT) AS sum_x,
               CAST(COALESCE(SUM(y), 0) AS BIGINT) AS sum_y,
               CAST(COALESCE(SUM(x * x), 0) AS BIGINT) AS sum_xx,
               CAST(COALESCE(SUM(x * y), 0) AS BIGINT) AS sum_xy
        FROM xy
    """
    sqls["boilerplate_filter"] = """
        -- RefinedWeb-style boilerplate removal: a >=10-char line present
        -- in MORE THAN 1 distinct documents is dropped from EVERY doc;
        -- short lines and within-doc repeats survive; an all-boilerplate
        -- doc survives as (doc_id, '').
        WITH lines AS (
          SELECT doc_id,
                 unnest(generate_series(1, len(string_split(text, chr(10))))) AS line_idx,
                 unnest(string_split(text, chr(10))) AS line
          FROM documents
        ),
        bad AS (
          SELECT line FROM lines WHERE length(line) >= 10
          GROUP BY line HAVING COUNT(DISTINCT doc_id) > 1
        )
        SELECT d.doc_id, COALESCE(agg.text, '') AS text
        FROM documents d
        LEFT JOIN (
          SELECT doc_id,
                 string_agg(line, chr(10) ORDER BY line_idx) AS text
          FROM lines
          WHERE length(line) < 10 OR line NOT IN (SELECT line FROM bad)
          GROUP BY doc_id
        ) agg USING (doc_id)
        ORDER BY d.doc_id
    """
    sqls["random_projection"] = """
        -- Achlioptas sparse random projection: micro-quantized inputs
        -- x fixed {-1,0,+1} hash matrix (P(+-1)=1/6) — order-free
        -- integer sums, the label_centroids quantization contract
        WITH q AS (
          SELECT vec_id,
                 unnest(generate_series(1, len(embedding))) AS k,
                 unnest(list_transform(embedding,
                   x -> CAST(FLOOR(CAST(x AS DOUBLE) * 1000000.0)
                             AS BIGINT))) AS qv
          FROM embeddings
        ),
        dims AS (SELECT unnest(generate_series(1, 16)) AS j)
        SELECT vec_id,
               CAST(j AS BIGINT) AS dim,
               CAST(SUM(qv *
                 (CASE ((k * 2654435761 + j * 40503) % 4294967296) % 6
                   WHEN 0 THEN 1 WHEN 1 THEN -1 ELSE 0 END))
                 AS BIGINT) AS proj
        FROM q CROSS JOIN dims
        GROUP BY vec_id, j
        ORDER BY vec_id, dim
    """
    # generated FROM the same _BLOCK_PHRASES constant the engine uses,
    # so the two sides cannot drift
    _ph_hits = " + ".join(
        f"CASE WHEN position('{p}' IN lower(text)) > 0 THEN 1 ELSE 0 END"
        for p in _BLOCK_PHRASES
    )
    _ph_first = (
        "CASE "
        + " ".join(
            f"WHEN position('{p}' IN lower(text)) > 0 THEN {i}"
            for i, p in enumerate(_BLOCK_PHRASES)
        )
        + " ELSE -1 END"
    )
    sqls["phrase_filter"] = f"""
        -- C4-style literal bad-phrase filter; CASE order = blocklist
        -- order, so first_phrase is the lowest matching index
        SELECT doc_id,
               CAST({_ph_hits} AS BIGINT) AS n_phrases,
               CAST({_ph_first} AS BIGINT) AS first_phrase
        FROM documents ORDER BY doc_id
    """
    sqls["textrank_keywords"] = """
        -- TextRank: 5-round integer PageRank (the pagerank_events
        -- contract, scale 1e12) over the adjacency co-occurrence graph
        -- of the top-20 vocabulary; node id = (ctf desc, term asc)
        -- rank index; undirected edges ride as both directions
        WITH toks AS (
          SELECT doc_id,
                 unnest(regexp_extract_all(lower(text), '[0-9a-z]+'))
                   AS term
          FROM documents
        ),
        model AS (SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term),
        ids AS MATERIALIZED (
          SELECT term,
                 CAST(ROW_NUMBER() OVER (ORDER BY ctf DESC, term ASC)
                      - 1 AS BIGINT) AS id
          FROM (SELECT term, ctf FROM model
                ORDER BY ctf DESC, term ASC LIMIT 20)
        ),
        t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS l
          FROM documents
        ),
        pairs AS (
          SELECT unnest(l[1 : len(l) - 1]) AS w1,
                 unnest(l[2 : len(l)]) AS w2
          FROM t WHERE len(l) >= 2
        ),
        e0 AS (
          SELECT i1.id AS src, i2.id AS dst
          FROM pairs p
          JOIN ids i1 ON i1.term = p.w1
          JOIN ids i2 ON i2.term = p.w2
          WHERE i1.id <> i2.id
        ),
        ed AS MATERIALIZED (
          SELECT DISTINCT src, dst FROM (
            SELECT src, dst FROM e0
            UNION ALL SELECT dst, src FROM e0)
        ),
        nodes AS MATERIALIZED (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM ed
            UNION SELECT dst FROM ed)
        ),
        nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes),
        od AS MATERIALIZED (
          SELECT src, CAST(COUNT(*) AS BIGINT) AS c
          FROM ed GROUP BY 1
        ),
        r0 AS (
          SELECT node, 1000000000000 // nn.n AS r
          FROM nodes CROSS JOIN nn
        ),
        r1 AS MATERIALIZED (
          SELECT n.node,
                 ((15 * 1000000000000) // (100 * nn.n))
                 + (85 * COALESCE(s.s, 0)) // 100 AS r
          FROM nodes n CROSS JOIN nn
          LEFT JOIN (
            SELECT e.dst AS node,
                   CAST(SUM(p.r // d.c) AS BIGINT) AS s
            FROM ed e
            JOIN r0 p ON p.node = e.src
            JOIN od d ON d.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        ),
        r2 AS MATERIALIZED (
          SELECT n.node,
                 ((15 * 1000000000000) // (100 * nn.n))
                 + (85 * COALESCE(s.s, 0)) // 100 AS r
          FROM nodes n CROSS JOIN nn
          LEFT JOIN (
            SELECT e.dst AS node,
                   CAST(SUM(p.r // d.c) AS BIGINT) AS s
            FROM ed e
            JOIN r1 p ON p.node = e.src
            JOIN od d ON d.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        ),
        r3 AS MATERIALIZED (
          SELECT n.node,
                 ((15 * 1000000000000) // (100 * nn.n))
                 + (85 * COALESCE(s.s, 0)) // 100 AS r
          FROM nodes n CROSS JOIN nn
          LEFT JOIN (
            SELECT e.dst AS node,
                   CAST(SUM(p.r // d.c) AS BIGINT) AS s
            FROM ed e
            JOIN r2 p ON p.node = e.src
            JOIN od d ON d.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        ),
        r4 AS MATERIALIZED (
          SELECT n.node,
                 ((15 * 1000000000000) // (100 * nn.n))
                 + (85 * COALESCE(s.s, 0)) // 100 AS r
          FROM nodes n CROSS JOIN nn
          LEFT JOIN (
            SELECT e.dst AS node,
                   CAST(SUM(p.r // d.c) AS BIGINT) AS s
            FROM ed e
            JOIN r3 p ON p.node = e.src
            JOIN od d ON d.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        ),
        r5 AS MATERIALIZED (
          SELECT n.node,
                 ((15 * 1000000000000) // (100 * nn.n))
                 + (85 * COALESCE(s.s, 0)) // 100 AS r
          FROM nodes n CROSS JOIN nn
          LEFT JOIN (
            SELECT e.dst AS node,
                   CAST(SUM(p.r // d.c) AS BIGINT) AS s
            FROM ed e
            JOIN r4 p ON p.node = e.src
            JOIN od d ON d.src = e.src
            GROUP BY e.dst
          ) s ON s.node = n.node
        )
        SELECT i.term, CAST(r5.r AS BIGINT) AS r
        FROM r5 JOIN ids i ON i.id = r5.node
        ORDER BY r DESC, term ASC
    """
    sqls["hits_events"] = """
        -- 2-round integer HITS: max-normalized power iteration as
        -- exact int64 // ops (order-free sums == the engine's
        -- distributed plan; // is safe — every value is non-negative)
        WITH ed AS MATERIALIZED (
          SELECT DISTINCT user_id AS src,
                 1000000 + CAST(regexp_extract(props,
                   '"k": (\\d+)', 1) AS BIGINT) AS dst
          FROM events
        ),
        nodes AS MATERIALIZED (
          SELECT DISTINCT node FROM (
            SELECT src AS node FROM ed
            UNION SELECT dst FROM ed)
        ),
        h0 AS (SELECT node, CAST(1000000 AS BIGINT) AS v FROM nodes),
        a1s AS MATERIALIZED (
          SELECT e.dst AS node, CAST(SUM(h.v) AS BIGINT) AS s
          FROM ed e JOIN h0 h ON h.node = e.src GROUP BY e.dst
        ),
        a1 AS MATERIALIZED (
          SELECT node, CASE WHEN m.m > 0 THEN (s * 1000000) // m.m
                            ELSE 0 END AS v
          FROM a1s CROSS JOIN (SELECT MAX(s) AS m FROM a1s) m
        ),
        h1s AS MATERIALIZED (
          SELECT e.src AS node, CAST(SUM(a.v) AS BIGINT) AS s
          FROM ed e JOIN a1 a ON a.node = e.dst GROUP BY e.src
        ),
        h1 AS MATERIALIZED (
          SELECT node, CASE WHEN m.m > 0 THEN (s * 1000000) // m.m
                            ELSE 0 END AS v
          FROM h1s CROSS JOIN (SELECT MAX(s) AS m FROM h1s) m
        ),
        a2s AS MATERIALIZED (
          SELECT e.dst AS node, CAST(SUM(h.v) AS BIGINT) AS s
          FROM ed e JOIN h1 h ON h.node = e.src GROUP BY e.dst
        ),
        a2 AS MATERIALIZED (
          SELECT node, CASE WHEN m.m > 0 THEN (s * 1000000) // m.m
                            ELSE 0 END AS v
          FROM a2s CROSS JOIN (SELECT MAX(s) AS m FROM a2s) m
        ),
        h2s AS MATERIALIZED (
          SELECT e.src AS node, CAST(SUM(a.v) AS BIGINT) AS s
          FROM ed e JOIN a2 a ON a.node = e.dst GROUP BY e.src
        ),
        h2 AS MATERIALIZED (
          SELECT node, CASE WHEN m.m > 0 THEN (s * 1000000) // m.m
                            ELSE 0 END AS v
          FROM h2s CROSS JOIN (SELECT MAX(s) AS m FROM h2s) m
        )
        SELECT n.node,
               CAST(COALESCE(a2.v, 0) AS BIGINT) AS auth,
               CAST(COALESCE(h2.v, 0) AS BIGINT) AS hub
        FROM nodes n
        LEFT JOIN a2 ON a2.node = n.node
        LEFT JOIN h2 ON h2.node = n.node
        ORDER BY n.node
    """
    sqls["bigram_lm"] = """
        -- stupid-backoff bigram LM (Brants et al. 2007): in-model
        -- bigrams (top-2000 by cnt desc, w1, w2) score ln(cnt/ctf(w1));
        -- everything else backs off to 0.4 x the capped add-one
        -- unigram (top-1000, OOV at ctf 0) — libm ln contract,
        -- per-position floored micro-units, order-free BIGINT sums
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS l
          FROM documents
        ),
        toks AS (SELECT doc_id, unnest(l) AS term FROM t),
        model AS (SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term),
        tot AS (
          SELECT CAST(SUM(ctf) AS BIGINT) AS t,
                 CAST(LEAST(1000, COUNT(*)) AS BIGINT) AS v
          FROM model
        ),
        topv AS (
          SELECT term, ctf FROM model
          ORDER BY ctf DESC, term ASC LIMIT 1000
        ),
        pairs AS (
          SELECT doc_id,
                 unnest(l[1 : len(l) - 1]) AS w1,
                 unnest(l[2 : len(l)]) AS w2
          FROM t WHERE len(l) >= 2
        ),
        big AS (
          SELECT w1, w2, CAST(COUNT(*) AS BIGINT) AS cnt
          FROM pairs GROUP BY w1, w2
        ),
        topb AS (
          SELECT w1, w2, cnt FROM big
          ORDER BY cnt DESC, w1 ASC, w2 ASC LIMIT 2000
        ),
        scored AS (
          SELECT p.doc_id,
                 CASE WHEN tb.cnt IS NOT NULL THEN
                   CAST(FLOOR(ln(tb.cnt / mm.ctf) * 1000000.0) AS BIGINT)
                 ELSE
                   CAST(FLOOR(ln(0.4 * (COALESCE(tv.ctf, 0) + 1.0)
                                 / (tot.t + tot.v + 1))
                              * 1000000.0) AS BIGINT)
                 END AS micro
          FROM pairs p
          LEFT JOIN topb tb ON tb.w1 = p.w1 AND tb.w2 = p.w2
          LEFT JOIN model mm ON mm.term = p.w1
          LEFT JOIN topv tv ON tv.term = p.w2
          CROSS JOIN tot
        )
        SELECT t.doc_id,
               CAST(GREATEST(len(t.l) - 1, 0) AS BIGINT) AS n_scored,
               CAST(COALESCE(s.total, 0) AS BIGINT) AS lm_bigram_micro
        FROM t
        LEFT JOIN (SELECT doc_id, SUM(micro) AS total FROM scored
                   GROUP BY doc_id) s USING (doc_id)
        ORDER BY t.doc_id
    """
    sqls["substring_dedup"] = """
        -- ExactSubstr-style span removal (Lee et al. 2021): a non-first
        -- corpus-wide occurrence of an 8-token gram (first = min
        -- (doc_id, pos)) removes its 8 covered tokens; kept_hash =
        -- base-131 char fold per word then base-1000003 sequence fold
        -- (mod 2^31-1) over the SURVIVING token stream, empty => 0
        WITH t AS (
          SELECT doc_id,
                 regexp_extract_all(lower(text), '[0-9a-z]+') AS l
          FROM documents
        ),
        g AS (
          SELECT doc_id,
                 unnest(generate_series(1, len(l) - 7)) AS pos,
                 unnest(list_transform(
                   generate_series(1, len(l) - 7),
                   i -> array_to_string(l[i : i + 7], ' '))) AS gram
          FROM t WHERE len(l) >= 8
        ),
        r AS (
          SELECT doc_id, pos,
                 ROW_NUMBER() OVER (
                   PARTITION BY gram ORDER BY doc_id, pos) AS rn
          FROM g
        ),
        cov AS (
          SELECT DISTINCT doc_id, unnest(generate_series(pos, pos + 7)) AS p
          FROM r WHERE rn > 1
        ),
        nrem AS (
          SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_removed
          FROM cov GROUP BY doc_id
        ),
        wh AS (
          SELECT doc_id, len(l) AS n_tokens,
                 list_transform(l, w ->
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(string_split(w, ''),
                                      c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647)) AS whs
          FROM t
        ),
        tok AS (
          SELECT doc_id,
                 unnest(generate_series(1, n_tokens)) AS i,
                 unnest(whs) AS wh
          FROM wh WHERE n_tokens > 0
        ),
        kept AS (
          SELECT tok.doc_id, tok.i, tok.wh
          FROM tok LEFT JOIN cov
            ON cov.doc_id = tok.doc_id AND cov.p = tok.i
          WHERE cov.doc_id IS NULL
        ),
        kh AS (
          SELECT doc_id,
                 list_reduce(
                   list_prepend(CAST(0 AS BIGINT), list(wh ORDER BY i)),
                   (a, x) -> (a * 1000003 + x) % 2147483647) AS kept_hash
          FROM kept GROUP BY doc_id
        )
        SELECT w.doc_id,
               CAST(w.n_tokens AS BIGINT) AS n_tokens,
               COALESCE(nrem.n_removed, CAST(0 AS BIGINT)) AS n_removed,
               COALESCE(kh.kept_hash, CAST(0 AS BIGINT)) AS kept_hash
        FROM wh w
        LEFT JOIN nrem USING (doc_id)
        LEFT JOIN kh USING (doc_id)
        ORDER BY w.doc_id
    """
    sqls["prf_from_ranking"] = _prf_from_ranking_sql()
    sqls["rrf_fusion"] = _rrf_fusion_sql()
    sqls["vocab_growth"] = f"""
        -- step k covers doc_ids < ceil(n*k/10); a term lands in the step
        -- of its FIRST occurrence ((fd*10)//n + 1 — integer-exact)
        WITH toks AS ({_TOKS}),
        fo AS (SELECT term, MIN(doc_id) AS fd FROM toks GROUP BY term),
        nd AS (SELECT COUNT(*) AS n FROM documents),
        st AS (SELECT LEAST((fo.fd * 10) // nd.n + 1, 10) AS step
               FROM fo CROSS JOIN nd),
        h AS (SELECT step, COUNT(*) AS cnt FROM st GROUP BY step),
        k AS (SELECT unnest(generate_series(1, 10)) AS step)
        SELECT CAST(k.step AS BIGINT) AS step,
               CAST((nd.n * k.step + 9) // 10 AS BIGINT) AS n_docs_prefix,
               CAST(SUM(COALESCE(h.cnt, 0)) OVER (ORDER BY k.step)
                    AS BIGINT) AS vocab_size
        FROM k LEFT JOIN h ON h.step = k.step CROSS JOIN nd
        ORDER BY k.step
    """
    sqls["source_kl"] = """
        -- per-(source, term) nano-unit KL contributions floored BEFORE
        -- the source sum (order-free integers, frozen libm ln contract)
        WITH toks AS (
          SELECT source,
                 unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
          FROM documents
        ),
        st AS (SELECT source, term, COUNT(*) AS cnt
               FROM toks GROUP BY source, term),
        stot AS (SELECT source, CAST(SUM(cnt) AS BIGINT) AS stot
                 FROM st GROUP BY source),
        ttot AS (SELECT term, CAST(SUM(cnt) AS BIGINT) AS tsum
                 FROM st GROUP BY term),
        grand AS (SELECT CAST(SUM(cnt) AS BIGINT) AS g FROM st),
        c AS (
          SELECT st.source,
                 CAST(FLOOR(
                   (CAST(st.cnt AS DOUBLE) / stot.stot)
                   * LN((CAST(st.cnt AS DOUBLE) / stot.stot)
                        / (CAST(ttot.tsum AS DOUBLE) / grand.g))
                   * 1000000000
                 ) AS BIGINT) AS nano
          FROM st
          JOIN stot ON stot.source = st.source
          JOIN ttot ON ttot.term = st.term
          CROSS JOIN grand
        )
        SELECT c.source,
               stot.stot AS n_tokens,
               CAST(SUM(c.nano) AS BIGINT) AS kl_nano
        FROM c JOIN stot ON stot.source = c.source
        GROUP BY c.source, stot.stot
        ORDER BY c.source
    """
    sqls["word_entropy"] = f"""
        -- per-term micro-nat contributions floored BEFORE the doc sum
        -- (order-free integers; the frozen libm ln contract)
        WITH toks AS ({_TOKS}),
        n AS (SELECT doc_id, COUNT(*) AS n FROM toks GROUP BY doc_id),
        tf AS (SELECT doc_id, term, COUNT(*) AS tf
               FROM toks GROUP BY doc_id, term),
        ent AS (
          SELECT tf.doc_id,
                 -- outer CAST: DuckDB SUM(BIGINT) is HUGEINT, which
                 -- pandas .df() would render as float64
                 CAST(SUM(CAST(FLOOR(
                   -(CAST(tf.tf AS DOUBLE) / n.n)
                   * LN(CAST(tf.tf AS DOUBLE) / n.n) * 1000000
                 ) AS BIGINT)) AS BIGINT) AS entropy_micro
          FROM tf JOIN n ON n.doc_id = tf.doc_id
          GROUP BY tf.doc_id
        )
        SELECT d.doc_id,
               COALESCE(n.n, 0) AS n_tokens,
               COALESCE(ent.entropy_micro, 0) AS entropy_micro
        FROM documents d
        LEFT JOIN n ON n.doc_id = d.doc_id
        LEFT JOIN ent ON ent.doc_id = d.doc_id
        ORDER BY d.doc_id
    """
    # compaction is bit-identical by contract: same oracle as the
    # small-segment index (the entry builds 64-doc segments, then merges)
    sqls["bm25_topk_merged"] = sqls["bm25_topk_simple"]
    # tombstoned serving: full-corpus statistics, deleted docs excluded
    # from the ranking only (the liveDocs contract)
    sqls["bm25_topk_deleted"] = sqls["bm25_topk_simple"].replace(
        "FROM scores", "FROM scores WHERE doc_id % 37 <> 0"
    )
    # purged index: statistics AND results are those of the surviving
    # corpus (both _TOKS and the corpus CTE read the filtered table)
    sqls["bm25_topk_purged"] = sqls["bm25_topk_simple"].replace(
        "FROM documents", "FROM documents WHERE doc_id % 37 <> 0"
    )
    # incremental half+half build is exactly a one-shot build by contract
    sqls["bm25_topk_incremental"] = sqls["bm25_topk_simple"]
    sqls["ltr_norm"] = _ltr_norm_sql(sqls["ltr_features_simple"])
    sqls["ltr_rerank"] = _ltr_rerank_sql(sqls["ltr_features_simple"])
    # IVF probing ALL buckets must equal exact brute force
    sqls["ivf_topk"] = sqls["ann_topk"]
    sqls["diversity_xquad"] = _diversity_sql("xquad")
    sqls["diversity_pm2"] = _diversity_sql("pm2")
    sqls["structured_queries"] = _structured_sql("bm25")
    sqls["structured_indri"] = _structured_sql("indri")
    return sqls


def _oracle_sql_impl() -> dict[str, str]:
    bm25_full_q = _stemmed_query_values(BM25_QUERIES)
    return {
        "bm25_topk": f"""
            -- FULL analyzer: stopwords occupy positions (doclen over raw
            -- tokens), kstem_lite as chained CASE CTEs, stemmed query terms
            -- pre-computed by the python analyzer.
            WITH {_FULL_TOKS_CTES},
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS doc_count,
                              CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            df AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tf GROUP BY term),
            q(qid, term) AS (VALUES {bm25_full_q}),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - df.df + 0.5) / (df.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (doclen.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM q
              JOIN tf ON q.term = tf.term
              JOIN df ON q.term = df.term
              JOIN doclen ON tf.doc_id = doclen.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY q.qid, tf.doc_id
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM scores
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "indri_topk": f"""
            WITH {_FULL_TOKS_CTES},
            fstats AS (SELECT CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                    FROM toks GROUP BY term),
            q(qid, term) AS (VALUES {bm25_full_q}),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n
                   FROM q GROUP BY qid),
            pqc AS (
              SELECT qd.qid, qd.term,
                     COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
              FROM (SELECT DISTINCT qid, term FROM q) qd
              LEFT JOIN ctf c ON c.term = qd.term
              CROSS JOIN fstats
            ),
            ud AS (SELECT DISTINCT q.qid, tf.doc_id
                   FROM q JOIN tf ON q.term = tf.term),
            scores AS (
              SELECT ud.qid, ud.doc_id,
                     product(pow(
                       (1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)
                                      / (dl.dl + 1000.0))
                       + 0.4 * p.pqc,
                       1.0 / qn.n)) AS score
              FROM ud
              JOIN q ON q.qid = ud.qid
              JOIN pqc p ON p.qid = ud.qid AND p.term = q.term
              LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = ud.doc_id
              JOIN doclen dl ON dl.doc_id = ud.doc_id
              JOIN qn ON qn.qid = ud.qid
              GROUP BY ud.qid, ud.doc_id
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM scores
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "boolean_topk": f"""
            WITH {_FULL_TOKS_CTES},
            tfm AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                    FROM toks GROUP BY doc_id, term),
            p AS (
              SELECT doc_id,
                MAX(CASE WHEN term = 'dup' THEN tf END) AS t_dup,
                MAX(CASE WHEN term = 'key' THEN tf END) AS t_key,
                MAX(CASE WHEN term = 'window' THEN tf END) AS t_window
              FROM tfm GROUP BY doc_id
            ),
            s AS (
              SELECT 'b1' AS qid, doc_id, LEAST(t_dup, t_key) AS score
              FROM p WHERE t_dup IS NOT NULL AND t_key IS NOT NULL
              UNION ALL
              SELECT 'b2', doc_id,
                     GREATEST(COALESCE(t_dup, 0), COALESCE(t_window, 0))
              FROM p WHERE t_dup IS NOT NULL OR t_window IS NOT NULL
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     CAST(score AS BIGINT) AS score_i,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY score DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM s
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_i
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "term_stats_simple": f"""
            WITH toks AS ({_TOKS})
            SELECT term,
                   CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df,
                   CAST(COUNT(*) AS BIGINT) AS ctf
            FROM toks GROUP BY term ORDER BY term
        """,
        "doc_lengths": f"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(lower(text), '[0-9a-z]+')) AS BIGINT) AS len_body,
                   CAST(len(regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+')) AS BIGINT) AS len_title,
                   CAST(len(regexp_extract_all(
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0'),
                     '[0-9a-z]+')) AS BIGINT) AS len_url
            FROM documents ORDER BY doc_id
        """,
        "bm25_topk_simple": f"""
            WITH {_BM25_SCORES_BODY},
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM scores
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "snippets": f"""
            -- best 10-token highlight window per (query, top-20 doc):
            -- recompute the BM25 ranking, then positional window scan
            -- (max distinct query terms, tie earliest start)
            WITH {_BM25_SCORES_BODY},
            r20 AS (
              SELECT qid, doc_id FROM (
                SELECT qid, doc_id,
                       ROW_NUMBER() OVER (
                         PARTITION BY qid
                         ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                  'https://example.org/doc/' ||
                                  lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                       ) AS rank
                FROM scores
              ) WHERE rank <= 20
            ),
            tp AS (
              SELECT d.doc_id,
                     unnest(regexp_extract_all(lower(d.text),
                                               '[0-9a-z]+')) AS term,
                     unnest(generate_series(1,
                       len(regexp_extract_all(lower(d.text),
                                              '[0-9a-z]+')))) AS pos,
                     len(regexp_extract_all(lower(d.text),
                                            '[0-9a-z]+')) AS n
              FROM documents d
              WHERE d.doc_id IN (SELECT doc_id FROM r20)
            ),
            qd AS (SELECT DISTINCT qid, term FROM q),
            hits AS (
              SELECT r.qid, tp.doc_id, tp.term, tp.pos, tp.n
              FROM r20 r
              JOIN tp ON tp.doc_id = r.doc_id
              JOIN qd ON qd.qid = r.qid AND qd.term = tp.term
            ),
            dn AS (SELECT DISTINCT qid, doc_id, n FROM hits),
            starts AS (
              SELECT qid, doc_id,
                     unnest(generate_series(1, GREATEST(n - 9, 1))) AS start
              FROM dn
            ),
            wc AS (
              SELECT s.qid, s.doc_id, s.start,
                     COUNT(DISTINCT h.term) AS nm
              FROM starts s
              JOIN hits h ON h.qid = s.qid AND h.doc_id = s.doc_id
                         AND h.pos BETWEEN s.start AND s.start + 9
              GROUP BY 1, 2, 3
            ),
            best AS (
              SELECT qid, doc_id, start, nm,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid, doc_id
                       ORDER BY nm DESC, start ASC
                     ) AS rn
              FROM wc
            )
            -- LEFT JOIN from the target set: a ranked doc whose text
            -- contains no RAW query token (possible under stemming /
            -- field matches) still emits (snip_start=1, n_matched=0),
            -- matching the stage contract
            SELECT r.qid, CAST(r.doc_id AS BIGINT) AS doc_id,
                   CAST(COALESCE(b.start, 1) AS BIGINT) AS snip_start,
                   CAST(COALESCE(b.nm, 0) AS BIGINT) AS n_matched
            FROM r20 r
            LEFT JOIN best b ON b.qid = r.qid AND b.doc_id = r.doc_id
                            AND b.rn = 1
            ORDER BY r.qid, r.doc_id
        """,
        "indri_topk_simple": f"""
            -- Indri #AND (geometric mean) with two-stage smoothing over the
            -- union of matching docs; p for a non-matching term is the same
            -- formula with tf=0 (oracle.py:350-373).  Same libm pow/product
            -- expression tree as the engine; scores floored to 1e-6 in both
            -- engines before ranking.
            WITH toks AS ({_TOKS}),
            doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                       FROM toks GROUP BY doc_id),
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS sum_len FROM toks),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                    FROM toks GROUP BY term),
            q(qid, term) AS (VALUES {_BM25_SQL_QUERIES}),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n
                   FROM q GROUP BY qid),
            pqc AS (
              SELECT qd.qid, qd.term,
                     COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
              FROM (SELECT DISTINCT qid, term FROM q) qd
              LEFT JOIN ctf c ON c.term = qd.term
              CROSS JOIN fstats
            ),
            ud AS (SELECT DISTINCT q.qid, tf.doc_id
                   FROM q JOIN tf ON q.term = tf.term),
            scores AS (
              SELECT ud.qid, ud.doc_id,
                     product(pow(
                       (1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)
                                      / (dl.dl + 1000.0))
                       + 0.4 * p.pqc,
                       1.0 / qn.n)) AS score
              FROM ud
              JOIN q ON q.qid = ud.qid
              JOIN pqc p ON p.qid = ud.qid AND p.term = q.term
              LEFT JOIN tf ON tf.term = q.term AND tf.doc_id = ud.doc_id
              JOIN doclen dl ON dl.doc_id = ud.doc_id
              JOIN qn ON qn.qid = ud.qid
              GROUP BY ud.qid, ud.doc_id
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM scores
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "boolean_topk_simple": f"""
            -- RankedBoolean: #AND = min tf over the intersection, #OR = max
            -- tf over matching docs (QrySopAnd/QrySopOr non-Indri paths);
            -- integer scores, no float concerns.
            WITH toks AS ({_TOKS}),
            tfm AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                    FROM toks GROUP BY doc_id, term),
            p AS (
              SELECT doc_id,
                MAX(CASE WHEN term = 'dup' THEN tf END) AS t_dup,
                MAX(CASE WHEN term = 'key' THEN tf END) AS t_key,
                MAX(CASE WHEN term = 'window' THEN tf END) AS t_window,
                MAX(CASE WHEN term = 'batch' THEN tf END) AS t_batch,
                MAX(CASE WHEN term = 'spark' THEN tf END) AS t_spark,
                MAX(CASE WHEN term = 'join' THEN tf END) AS t_join,
                MAX(CASE WHEN term = 'merge' THEN tf END) AS t_merge
              FROM tfm GROUP BY doc_id
            ),
            s AS (
              SELECT 'rb1' AS qid, doc_id, LEAST(t_dup, t_key) AS score
              FROM p WHERE t_dup IS NOT NULL AND t_key IS NOT NULL
              UNION ALL
              SELECT 'rb2', doc_id,
                     GREATEST(COALESCE(t_dup, 0), COALESCE(t_window, 0),
                              COALESCE(t_batch, 0))
              FROM p WHERE t_dup IS NOT NULL OR t_window IS NOT NULL
                        OR t_batch IS NOT NULL
              UNION ALL
              SELECT 'rb3', doc_id,
                     LEAST(t_spark,
                           GREATEST(COALESCE(t_join, 0), COALESCE(t_merge, 0)))
              FROM p WHERE t_spark IS NOT NULL
                    AND (t_join IS NOT NULL OR t_merge IS NOT NULL)
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     CAST(score AS BIGINT) AS score_i,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY score DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM s
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_i
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "syn_topk_simple": f"""
            -- #SYN merges postings: tf summed per doc, df/ctf of the DERIVED
            -- list feed BM25 (InvList.java:163-178, QrySopScore.java:64-90);
            -- #OR under BM25 = max of matching leaf scores.
            WITH toks AS ({_TOKS}),
            doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                       FROM toks GROUP BY doc_id),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            fstats AS (SELECT CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS doc_count,
                              CAST(COUNT(*) AS DOUBLE) AS sum_len FROM toks),
            syn1 AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS tf FROM toks
                     WHERE term IN ('dup', 'key') GROUP BY doc_id),
            syn2 AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS tf FROM toks
                     WHERE term IN ('join', 'merge', 'window') GROUP BY doc_id),
            tfq AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf FROM toks
                    WHERE term IN ('dup', 'window') GROUP BY doc_id, term),
            dfq AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS df FROM tfq GROUP BY term),
            s AS (
              SELECT 'sy1' AS qid, syn1.doc_id,
                     GREATEST(0.0, LN((corpus.n_docs - d.df + 0.5) / (d.df + 0.5)))
                     * (syn1.tf / (syn1.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count))))) AS score
              FROM syn1 JOIN doclen dl USING (doc_id)
              CROSS JOIN (SELECT CAST(COUNT(*) AS DOUBLE) AS df FROM syn1) d
              CROSS JOIN corpus CROSS JOIN fstats
              UNION ALL
              SELECT 'sy2', syn2.doc_id,
                     GREATEST(0.0, LN((corpus.n_docs - d.df + 0.5) / (d.df + 0.5)))
                     * (syn2.tf / (syn2.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count))))) AS score
              FROM syn2 JOIN doclen dl USING (doc_id)
              CROSS JOIN (SELECT CAST(COUNT(*) AS DOUBLE) AS df FROM syn2) d
              CROSS JOIN corpus CROSS JOIN fstats
              UNION ALL
              SELECT 'sy3', tfq.doc_id,
                     MAX(GREATEST(0.0, LN((corpus.n_docs - dfq.df + 0.5) / (dfq.df + 0.5)))
                         * (tfq.tf / (tfq.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count))))))
              FROM tfq
              JOIN dfq ON dfq.term = tfq.term
              JOIN doclen dl ON dl.doc_id = tfq.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY tfq.doc_id, corpus.n_docs, fstats.sum_len, fstats.doc_count
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM s
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "field_queries": f"""
            -- term.field leaves: per-field df / doclen / avg length (title
            -- = first text line, url = synthetic url tokens); idf uses the
            -- corpus-global doc count.  doc.url has df == N -> idf 0, so
            -- fq3 sweeps the whole corpus on the (score desc, url asc)
            -- tie-break.
            WITH toks AS (
              SELECT doc_id, 'body' AS field,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
              FROM documents
              UNION ALL
              SELECT doc_id, 'title',
                     unnest(regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+'))
              FROM documents
              UNION ALL
              SELECT doc_id, 'url',
                     unnest(regexp_extract_all(
                       'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0'),
                       '[0-9a-z]+'))
              FROM documents
            ),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            dl AS (SELECT field, doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                   FROM toks GROUP BY field, doc_id),
            fst AS (SELECT field,
                           CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS dc,
                           CAST(COUNT(*) AS DOUBLE) AS sl
                    FROM toks GROUP BY field),
            tf AS (SELECT field, doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY field, doc_id, term),
            df AS (SELECT field, term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df
                   FROM toks GROUP BY field, term),
            q(qid, field, term) AS (VALUES
              ('fq1', 'title', 'dup'),
              ('fq2', 'title', 'dup'), ('fq2', 'body', 'key'),
              ('fq3', 'url', 'doc'), ('fq3', 'body', 'dup')),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - df.df + 0.5) / (df.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fst.sl / fst.dc)))))
                     ) AS score
              FROM q
              JOIN tf ON q.field = tf.field AND q.term = tf.term
              JOIN df ON q.field = df.field AND q.term = df.term
              JOIN dl ON dl.field = q.field AND dl.doc_id = tf.doc_id
              JOIN fst ON fst.field = q.field
              CROSS JOIN corpus
              GROUP BY q.qid, tf.doc_id
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     FLOOR(score * 1000000) / 1000000 AS score_r,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM scores
            )
            SELECT qid, url, CAST(rank AS BIGINT) AS rank, score_r
            FROM ranked WHERE rank <= 20 ORDER BY qid, rank
        """,
        "trec_flow": f"""
            -- byte-exact trec lines: 'qid Q0 url rank score runid' with
            -- Java Double.toString of an integer-valued double == '<n>.0',
            -- plus the dummyRecord row for the zero-hit query.
            WITH toks AS ({_TOKS}),
            tfm AS (SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
                    FROM toks GROUP BY doc_id, term),
            p AS (
              SELECT doc_id,
                MAX(CASE WHEN term = 'dup' THEN tf END) AS t_dup,
                MAX(CASE WHEN term = 'key' THEN tf END) AS t_key,
                MAX(CASE WHEN term = 'window' THEN tf END) AS t_window,
                MAX(CASE WHEN term = 'batch' THEN tf END) AS t_batch
              FROM tfm GROUP BY doc_id
            ),
            s AS (
              SELECT 't1' AS qid, doc_id, LEAST(t_dup, t_key) AS score
              FROM p WHERE t_dup IS NOT NULL AND t_key IS NOT NULL
              UNION ALL
              SELECT 't2', doc_id,
                     GREATEST(COALESCE(t_dup, 0), COALESCE(t_window, 0),
                              COALESCE(t_batch, 0))
              FROM p WHERE t_dup IS NOT NULL OR t_window IS NOT NULL
                        OR t_batch IS NOT NULL
            ),
            ranked AS (
              SELECT qid,
                     'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     CAST(score AS BIGINT) AS score_i,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY score DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM s
            ),
            lines AS (
              SELECT qid, rank,
                     qid || ' Q0 ' || url || ' ' || CAST(rank AS VARCHAR)
                         || ' ' || CAST(score_i AS VARCHAR) || '.0 ?' AS line
              FROM ranked WHERE rank <= 10
              UNION ALL
              SELECT 't3', 1, 't3 Q0 dummyRecord 1 0 ?'
            )
            SELECT qid, CAST(rank AS BIGINT) AS rank, line
            FROM lines ORDER BY qid, rank
        """,
        "exact_dedup": """
            SELECT MIN(doc_id) AS doc_id FROM documents
            GROUP BY text ORDER BY doc_id
        """,
        "token_counts": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
                   CAST(len(regexp_extract_all(lower(text), '[0-9a-z]+')) AS BIGINT) AS n_word_tokens,
                   CAST(len(regexp_extract_all(lower(text), '[0-9a-z]+'))
                        + len(regexp_extract_all(text, '[!-/:-@\[-`{-~]')) AS BIGINT) AS n_bpe_ish
            FROM documents ORDER BY doc_id
        """,
        "quality_scores": r"""
            WITH toks AS (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term FROM documents),
            tok_agg AS (
              SELECT doc_id,
                     COUNT(*) AS n_words,
                     SUM(CASE WHEN term IN ('a','an','and','are','as','at','be','but','by','for','if','in','into','is','it','no','not','of','on','or','such','that','the','their','then','there','these','they','this','to','was','will','with') THEN 1 ELSE 0 END) AS n_stop,
                     SUM(len(term)) AS sum_wlen
              FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(len(d.text) AS BIGINT) AS n_chars,
                   CAST(COALESCE(t.n_words, 0) AS BIGINT) AS n_words,
                   CAST(len(regexp_extract_all(d.text, '[!-/:-@\[-`{-~]')) AS BIGINT) AS n_punct,
                   CAST(len(regexp_extract_all(d.text, '[0-9]')) AS BIGINT) AS n_digits,
                   CAST(COALESCE(t.n_stop, 0) AS BIGINT) AS n_stopwords,
                   CAST(COALESCE(t.n_stop, 0) AS DOUBLE) / GREATEST(CAST(COALESCE(t.n_words, 0) AS DOUBLE), 1.0) AS stopword_ratio,
                   CAST(len(regexp_extract_all(d.text, '[!-/:-@\[-`{-~]')) AS DOUBLE) / GREATEST(CAST(COALESCE(t.n_words, 0) AS DOUBLE), 1.0) AS punct_ratio,
                   CAST(COALESCE(t.sum_wlen, 0) AS DOUBLE) / GREATEST(CAST(COALESCE(t.n_words, 0) AS DOUBLE), 1.0) AS mean_word_len
            FROM documents d LEFT JOIN tok_agg t USING (doc_id)
            ORDER BY d.doc_id
        """,
        "windowed_agg": """
            SELECT event_type,
                   time_bucket(INTERVAL '60 minutes', ts) AS window_start,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_m
            FROM events
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "hopping_window_agg": """
            -- each event joins the 4 hop-aligned windows covering it
            SELECT event_type,
                   time_bucket(INTERVAL '15 minutes', ts)
                     - k.k * INTERVAL '15 minutes' AS window_start,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_m
            FROM events
            CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k) k
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "sessionize": """
            WITH e AS (
              SELECT user_id, ts, value,
                     CASE WHEN LAG(ts) OVER w IS NULL
                          OR ts - LAG(ts) OVER w > INTERVAL '30 minutes'
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            s AS (
              SELECT *, SUM(new_sess) OVER (
                PARTITION BY user_id ORDER BY ts
                ROWS UNBOUNDED PRECEDING) AS sess
              FROM e
            )
            SELECT CAST(user_id AS BIGINT) AS user_id,
                   MIN(ts) AS session_start,
                   MAX(ts) AS session_end,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(FLOOR(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_m
            FROM s GROUP BY user_id, sess
            ORDER BY user_id, session_start
        """,
        "prf_expansion": f"""
            -- PRF closed form on the FULL analyzer: doclen includes
            -- stopword positions; candidate/ctf terms are stemmed.
            WITH {_FULL_TOKS_CTES},
            fstats AS (SELECT CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                    FROM toks GROUP BY term),
            q(qid, term) AS (VALUES {bm25_full_q}),
            qf AS (SELECT qid, term FROM q WHERE qid IN ('q1','q2','q3','q4')),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n
                   FROM qf GROUP BY qid),
            pqc AS (
              SELECT qd.qid, qd.term,
                     COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
              FROM (SELECT DISTINCT qid, term FROM qf) qd
              LEFT JOIN ctf c ON c.term = qd.term
              CROSS JOIN fstats
            ),
            ud AS (SELECT DISTINCT qf.qid, tf.doc_id
                   FROM qf JOIN tf ON qf.term = tf.term),
            iscores AS (
              SELECT ud.qid, ud.doc_id,
                     product(pow(
                       (1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)
                                      / (dl.dl + 1000.0))
                       + 0.4 * p.pqc,
                       1.0 / qn.n)) AS score
              FROM ud
              JOIN qf ON qf.qid = ud.qid
              JOIN pqc p ON p.qid = ud.qid AND p.term = qf.term
              LEFT JOIN tf ON tf.term = qf.term AND tf.doc_id = ud.doc_id
              JOIN doclen dl ON dl.doc_id = ud.doc_id
              JOIN qn ON qn.qid = ud.qid
              GROUP BY ud.qid, ud.doc_id
            ),
            iranked AS (
              SELECT qid, doc_id, score,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM iscores
            ),
            top5 AS (SELECT qid, doc_id, score FROM iranked WHERE rank <= 5),
            cand AS (SELECT DISTINCT t5.qid, tf.term
                     FROM top5 t5 JOIN tf ON tf.doc_id = t5.doc_id),
            exp AS (
              SELECT c.qid, c.term,
                     SUM(t5.score * LN(fstats.sum_len / ct.ctf)
                         * ((COALESCE(tf.tf, 0.0) + 40.0 * (ct.ctf / fstats.sum_len))
                            / (dl.dl + 40.0))) AS score
              FROM cand c
              JOIN top5 t5 ON t5.qid = c.qid
              JOIN ctf ct ON ct.term = c.term
              JOIN doclen dl ON dl.doc_id = t5.doc_id
              LEFT JOIN tf ON tf.doc_id = t5.doc_id AND tf.term = c.term
              CROSS JOIN fstats
              GROUP BY c.qid, c.term, fstats.sum_len
            ),
            eranked AS (
              SELECT qid, term, score,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid ORDER BY score DESC, term ASC
                     ) AS rank
              FROM exp
            )
            SELECT qid, term, CAST(rank AS BIGINT) AS rank,
                   FLOOR(score * 1000000000000) / 1000000000000 AS score_r
            FROM eranked WHERE rank <= 8 ORDER BY qid, rank
        """,
        "prf_expansion_simple": f"""
            -- PRF expansion closed form: score(t) = sum over top-5 docs of
            -- p(q|d) * ln(L/ctf) * (tf + mu*ptc)/(dl + mu), mu=40
            -- (QryEval.java:1218-1306 back-fill accumulation, algebraically
            -- identical).  Top-5 selected by the floored Indri ranking.
            WITH toks AS ({_TOKS}),
            doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                       FROM toks GROUP BY doc_id),
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS sum_len FROM toks),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            ctf AS (SELECT term, CAST(COUNT(*) AS DOUBLE) AS ctf
                    FROM toks GROUP BY term),
            q(qid, term) AS (VALUES {_BM25_SQL_QUERIES}),
            qf AS (SELECT qid, term FROM q WHERE qid IN ('q1','q2','q3','q4')),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n
                   FROM qf GROUP BY qid),
            pqc AS (
              SELECT qd.qid, qd.term,
                     COALESCE(c.ctf, 0.5) / fstats.sum_len AS pqc
              FROM (SELECT DISTINCT qid, term FROM qf) qd
              LEFT JOIN ctf c ON c.term = qd.term
              CROSS JOIN fstats
            ),
            ud AS (SELECT DISTINCT qf.qid, tf.doc_id
                   FROM qf JOIN tf ON qf.term = tf.term),
            iscores AS (
              SELECT ud.qid, ud.doc_id,
                     product(pow(
                       (1.0 - 0.4) * ((COALESCE(tf.tf, 0.0) + 1000.0 * p.pqc)
                                      / (dl.dl + 1000.0))
                       + 0.4 * p.pqc,
                       1.0 / qn.n)) AS score
              FROM ud
              JOIN qf ON qf.qid = ud.qid
              JOIN pqc p ON p.qid = ud.qid AND p.term = qf.term
              LEFT JOIN tf ON tf.term = qf.term AND tf.doc_id = ud.doc_id
              JOIN doclen dl ON dl.doc_id = ud.doc_id
              JOIN qn ON qn.qid = ud.qid
              GROUP BY ud.qid, ud.doc_id
            ),
            iranked AS (
              SELECT qid, doc_id, score,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0') ASC
                     ) AS rank
              FROM iscores
            ),
            top5 AS (SELECT qid, doc_id, score FROM iranked WHERE rank <= 5),
            cand AS (SELECT DISTINCT t5.qid, tf.term
                     FROM top5 t5 JOIN tf ON tf.doc_id = t5.doc_id),
            exp AS (
              SELECT c.qid, c.term,
                     SUM(t5.score * LN(fstats.sum_len / ct.ctf)
                         * ((COALESCE(tf.tf, 0.0) + 40.0 * (ct.ctf / fstats.sum_len))
                            / (dl.dl + 40.0))) AS score
              FROM cand c
              JOIN top5 t5 ON t5.qid = c.qid
              JOIN ctf ct ON ct.term = c.term
              JOIN doclen dl ON dl.doc_id = t5.doc_id
              LEFT JOIN tf ON tf.doc_id = t5.doc_id AND tf.term = c.term
              CROSS JOIN fstats
              GROUP BY c.qid, c.term, fstats.sum_len
            ),
            eranked AS (
              SELECT qid, term, score,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid ORDER BY score DESC, term ASC
                     ) AS rank
              FROM exp
            )
            SELECT qid, term, CAST(rank AS BIGINT) AS rank,
                   FLOOR(score * 1000000000000) / 1000000000000 AS score_r
            FROM eranked WHERE rank <= 8 ORDER BY qid, rank
        """,
        "ltr_features": f"""
            -- full-analyzer LTR features: body/title token pipelines each
            -- run the stemmer CTEs; field lengths count RAW tokens
            -- (stopwords occupy positions); query terms pre-stemmed.
            WITH {_FULL_TOKS_CTES},
            traw AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+')) AS w
              FROM documents
            ),
            tnonstop AS (SELECT doc_id, w FROM traw
                         WHERE w NOT IN ({_SQL_STOPLIST})),
            {_sql_stem_ctes('tnonstop', 't_')},
            utoks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(
                       'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0'),
                       '[0-9a-z]+')) AS term
              FROM documents
            ),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            fstats AS (SELECT CAST(COUNT(*) AS DOUBLE) AS doc_count,
                              CAST(SUM(dl) AS DOUBLE) AS sum_len FROM doclen),
            nw AS (SELECT CAST((SELECT COUNT(*) FROM raw)
                             + (SELECT COUNT(*) FROM traw)
                             + (SELECT COUNT(*) FROM utoks) AS DOUBLE) AS num_words),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            stats_t AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df,
                               CAST(COUNT(*) AS DOUBLE) AS ctf
                        FROM toks GROUP BY term),
            ttf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                    FROM t_stemmed GROUP BY doc_id, term),
            tmag AS (SELECT doc_id, CAST(SUM(tf * tf) AS DOUBLE) AS mag
                     FROM ttf GROUP BY doc_id),
            q(qid, term) AS (VALUES {bm25_full_q}),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n FROM q GROUP BY qid),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM q
              JOIN tf ON q.term = tf.term
              JOIN stats_t s ON q.term = s.term
              JOIN doclen dl ON tf.doc_id = dl.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY q.qid, tf.doc_id
            ),
            ranked AS (
              SELECT qid, doc_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                doc_id ASC
                     ) AS rank
              FROM scores
            ),
            cands AS (SELECT qid, doc_id FROM ranked WHERE rank <= 5),
            feat_body AS (
              SELECT c.qid, c.doc_id,
                COALESCE(SUM(CASE WHEN t.tf IS NOT NULL THEN
                  GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                  * (t.tf / (t.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count)))))
                END), 0.0) AS f5,
                COUNT(t.tf) AS f7,
                product(CASE WHEN t.tf IS NOT NULL THEN
                  pow((1.0 - 0.4) * ((t.tf + 1000.0 * (s.ctf / fstats.sum_len)) / (dl.dl + 1000.0))
                      + 0.4 * (s.ctf / fstats.sum_len),
                      1.0 / qn.n)
                ELSE 1.0 END) AS f6raw,
                MAX(CASE WHEN t.tf IS NOT NULL THEN
                  LN(t.tf * 0.1 * nw.num_words / s.ctf)
                END) AS zmax,
                dl.dl AS dl
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN tf t ON t.term = q.term AND t.doc_id = c.doc_id
              LEFT JOIN stats_t s ON s.term = q.term
              JOIN doclen dl ON dl.doc_id = c.doc_id
              CROSS JOIN corpus CROSS JOIN fstats CROSS JOIN nw
              JOIN qn ON qn.qid = c.qid
              GROUP BY c.qid, c.doc_id, dl.dl, corpus.n_docs,
                       fstats.sum_len, fstats.doc_count, nw.num_words, qn.n
            ),
            feat_title AS (
              SELECT c.qid, c.doc_id, COALESCE(SUM(tt.tf), 0.0) AS inner_p
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN ttf tt ON tt.term = q.term AND tt.doc_id = c.doc_id
              GROUP BY c.qid, c.doc_id
            )
            SELECT fb.qid,
                   'https://example.org/doc/' || lpad(CAST(fb.doc_id AS VARCHAR), 12, '0') AS url,
                   FLOOR(fb.f5 * 1000000) / 1000000 AS f5_r,
                   FLOOR((CASE WHEN fb.f7 = 0 THEN 0.0 ELSE fb.f6raw END) * 1000000) / 1000000 AS f6_r,
                   CAST(fb.f7 AS BIGINT) AS f7,
                   FLOOR((CASE WHEN tm.mag IS NULL THEN 0.0
                          ELSE ft.inner_p / (tm.mag * sqrt(qn.n)) END) * 1000000) / 1000000 AS f18_r,
                   FLOOR((CASE WHEN fb.f7 = 0 THEN 0.0 ELSE fb.zmax / fb.dl END) * 1000000) / 1000000 AS f20_r
            FROM feat_body fb
            JOIN feat_title ft ON ft.qid = fb.qid AND ft.doc_id = fb.doc_id
            LEFT JOIN tmag tm ON tm.doc_id = fb.doc_id
            JOIN qn ON qn.qid = fb.qid
            ORDER BY fb.qid, url
        """,
        "ltr_features_simple": f"""
            -- LTR features over top-5 BM25-simple candidates: f5 BM25 body,
            -- f6 Indri body (geometric over MATCHED stems, exponent
            -- 1/|query terms|, 0 when no match), f7 match count, f18 title
            -- cosine with the reference's unsquare-rooted doc magnitude
            -- (QryEval.java:640,866), f20 body rarest-Zipf
            -- (QryEval.java:560-883).
            WITH toks AS ({_TOKS}),
            ttoks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+')) AS term
              FROM documents
            ),
            utoks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(
                       'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0'),
                       '[0-9a-z]+')) AS term
              FROM documents
            ),
            doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                       FROM toks GROUP BY doc_id),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            fstats AS (SELECT CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS doc_count,
                              CAST(COUNT(*) AS DOUBLE) AS sum_len FROM toks),
            nw AS (SELECT CAST((SELECT COUNT(*) FROM toks)
                             + (SELECT COUNT(*) FROM ttoks)
                             + (SELECT COUNT(*) FROM utoks) AS DOUBLE) AS num_words),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            stats_t AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df,
                               CAST(COUNT(*) AS DOUBLE) AS ctf
                        FROM toks GROUP BY term),
            ttf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                    FROM ttoks GROUP BY doc_id, term),
            tmag AS (SELECT doc_id, CAST(SUM(tf * tf) AS DOUBLE) AS mag
                     FROM ttf GROUP BY doc_id),
            q(qid, term) AS (VALUES {_BM25_SQL_QUERIES}),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n FROM q GROUP BY qid),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM q
              JOIN tf ON q.term = tf.term
              JOIN stats_t s ON q.term = s.term
              JOIN doclen dl ON tf.doc_id = dl.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY q.qid, tf.doc_id
            ),
            ranked AS (
              SELECT qid, doc_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                doc_id ASC
                     ) AS rank
              FROM scores
            ),
            cands AS (SELECT qid, doc_id FROM ranked WHERE rank <= 5),
            feat_body AS (
              SELECT c.qid, c.doc_id,
                COALESCE(SUM(CASE WHEN t.tf IS NOT NULL THEN
                  GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                  * (t.tf / (t.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count)))))
                END), 0.0) AS f5,
                COUNT(t.tf) AS f7,
                product(CASE WHEN t.tf IS NOT NULL THEN
                  pow((1.0 - 0.4) * ((t.tf + 1000.0 * (s.ctf / fstats.sum_len)) / (dl.dl + 1000.0))
                      + 0.4 * (s.ctf / fstats.sum_len),
                      1.0 / qn.n)
                ELSE 1.0 END) AS f6raw,
                MAX(CASE WHEN t.tf IS NOT NULL THEN
                  LN(t.tf * 0.1 * nw.num_words / s.ctf)
                END) AS zmax,
                dl.dl AS dl
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN tf t ON t.term = q.term AND t.doc_id = c.doc_id
              LEFT JOIN stats_t s ON s.term = q.term
              JOIN doclen dl ON dl.doc_id = c.doc_id
              CROSS JOIN corpus CROSS JOIN fstats CROSS JOIN nw
              JOIN qn ON qn.qid = c.qid
              GROUP BY c.qid, c.doc_id, dl.dl, corpus.n_docs,
                       fstats.sum_len, fstats.doc_count, nw.num_words, qn.n
            ),
            feat_title AS (
              SELECT c.qid, c.doc_id, COALESCE(SUM(tt.tf), 0.0) AS inner_p
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN ttf tt ON tt.term = q.term AND tt.doc_id = c.doc_id
              GROUP BY c.qid, c.doc_id
            )
            SELECT fb.qid,
                   'https://example.org/doc/' || lpad(CAST(fb.doc_id AS VARCHAR), 12, '0') AS url,
                   FLOOR(fb.f5 * 1000000) / 1000000 AS f5_r,
                   FLOOR((CASE WHEN fb.f7 = 0 THEN 0.0 ELSE fb.f6raw END) * 1000000) / 1000000 AS f6_r,
                   CAST(fb.f7 AS BIGINT) AS f7,
                   FLOOR((CASE WHEN tm.mag IS NULL THEN 0.0
                          ELSE ft.inner_p / (tm.mag * sqrt(qn.n)) END) * 1000000) / 1000000 AS f18_r,
                   FLOOR((CASE WHEN fb.f7 = 0 THEN 0.0 ELSE fb.zmax / fb.dl END) * 1000000) / 1000000 AS f20_r
            FROM feat_body fb
            JOIN feat_title ft ON ft.qid = fb.qid AND ft.doc_id = fb.doc_id
            LEFT JOIN tmag tm ON tm.doc_id = fb.doc_id
            JOIN qn ON qn.qid = fb.qid
            ORDER BY fb.qid, url
        """,
        "ltr_features_fields": f"""
            -- per-field features f8-f13: same top-5 BM25-body candidates,
            -- then {{BM25, Indri-over-matched, match count}} computed with
            -- the TITLE / URL field's tf, df, ctf, doclen and field stats
            -- (QryEval.java:605-704; N stays corpus-global).
            WITH toks AS ({_TOKS}),
            ttoks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+')) AS term
              FROM documents
            ),
            utoks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(
                       'https://example.org/doc/' || lpad(CAST(doc_id AS VARCHAR), 12, '0'),
                       '[0-9a-z]+')) AS term
              FROM documents
            ),
            doclen AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                       FROM toks GROUP BY doc_id),
            corpus AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n_docs FROM documents),
            fstats AS (SELECT CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS doc_count,
                              CAST(COUNT(*) AS DOUBLE) AS sum_len FROM toks),
            tf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                   FROM toks GROUP BY doc_id, term),
            stats_t AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df
                        FROM toks GROUP BY term),
            tdl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                    FROM ttoks GROUP BY doc_id),
            udl AS (SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS dl
                    FROM utoks GROUP BY doc_id),
            tst AS (SELECT CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS dc,
                           CAST(COUNT(*) AS DOUBLE) AS sl FROM ttoks),
            ust AS (SELECT CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS dc,
                           CAST(COUNT(*) AS DOUBLE) AS sl FROM utoks),
            ttf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                    FROM ttoks GROUP BY doc_id, term),
            utf AS (SELECT doc_id, term, CAST(COUNT(*) AS DOUBLE) AS tf
                    FROM utoks GROUP BY doc_id, term),
            tstats AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df,
                              CAST(COUNT(*) AS DOUBLE) AS ctf
                       FROM ttoks GROUP BY term),
            ustats AS (SELECT term, CAST(COUNT(DISTINCT doc_id) AS DOUBLE) AS df,
                              CAST(COUNT(*) AS DOUBLE) AS ctf
                       FROM utoks GROUP BY term),
            q(qid, term) AS (VALUES {_BM25_SQL_QUERIES}),
            qn AS (SELECT qid, CAST(COUNT(*) AS DOUBLE) AS n FROM q GROUP BY qid),
            scores AS (
              SELECT q.qid, tf.doc_id,
                     SUM(GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                         * (tf.tf / (tf.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (fstats.sum_len / fstats.doc_count)))))
                     ) AS score
              FROM q
              JOIN tf ON q.term = tf.term
              JOIN stats_t s ON q.term = s.term
              JOIN doclen dl ON tf.doc_id = dl.doc_id
              CROSS JOIN corpus CROSS JOIN fstats
              GROUP BY q.qid, tf.doc_id
            ),
            ranked AS (
              SELECT qid, doc_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY qid
                       ORDER BY FLOOR(score * 1000000) / 1000000 DESC,
                                doc_id ASC
                     ) AS rank
              FROM scores
            ),
            cands AS (SELECT qid, doc_id FROM ranked WHERE rank <= 5),
            feat_t AS (
              SELECT c.qid, c.doc_id,
                COALESCE(SUM(CASE WHEN t.tf IS NOT NULL THEN
                  GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                  * (t.tf / (t.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (tst.sl / tst.dc)))))
                END), 0.0) AS f8,
                COUNT(t.tf) AS f10,
                product(CASE WHEN t.tf IS NOT NULL THEN
                  pow((1.0 - 0.4) * ((t.tf + 1000.0 * (s.ctf / tst.sl)) / (dl.dl + 1000.0))
                      + 0.4 * (s.ctf / tst.sl),
                      1.0 / qn.n)
                ELSE 1.0 END) AS f9raw
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN ttf t ON t.term = q.term AND t.doc_id = c.doc_id
              LEFT JOIN tstats s ON s.term = q.term
              LEFT JOIN tdl dl ON dl.doc_id = c.doc_id
              CROSS JOIN corpus CROSS JOIN tst
              JOIN qn ON qn.qid = c.qid
              GROUP BY c.qid, c.doc_id, dl.dl, corpus.n_docs,
                       tst.sl, tst.dc, qn.n
            ),
            feat_u AS (
              SELECT c.qid, c.doc_id,
                COALESCE(SUM(CASE WHEN t.tf IS NOT NULL THEN
                  GREATEST(0.0, LN((corpus.n_docs - s.df + 0.5) / (s.df + 0.5)))
                  * (t.tf / (t.tf + 1.2 * ((1.0 - 0.75) + 0.75 * (dl.dl / (ust.sl / ust.dc)))))
                END), 0.0) AS f11,
                COALESCE(SUM(CASE WHEN t.tf IS NOT NULL THEN
                  t.tf * LN(corpus.n_docs / s.df)
                END), 0.0) AS f17,
                COUNT(t.tf) AS f13,
                product(CASE WHEN t.tf IS NOT NULL THEN
                  pow((1.0 - 0.4) * ((t.tf + 1000.0 * (s.ctf / ust.sl)) / (dl.dl + 1000.0))
                      + 0.4 * (s.ctf / ust.sl),
                      1.0 / qn.n)
                ELSE 1.0 END) AS f12raw
              FROM cands c
              JOIN q ON q.qid = c.qid
              LEFT JOIN utf t ON t.term = q.term AND t.doc_id = c.doc_id
              LEFT JOIN ustats s ON s.term = q.term
              LEFT JOIN udl dl ON dl.doc_id = c.doc_id
              CROSS JOIN corpus CROSS JOIN ust
              JOIN qn ON qn.qid = c.qid
              GROUP BY c.qid, c.doc_id, dl.dl, corpus.n_docs,
                       ust.sl, ust.dc, qn.n
            ),
            tpos AS (
              -- parallel unnests zip: (doc, 1-based title position, term)
              SELECT doc_id,
                     unnest(generate_series(1, len(arr))) AS pos,
                     unnest(arr) AS term
              FROM (SELECT doc_id,
                           regexp_extract_all(lower(split_part(text, chr(10), 1)), '[0-9a-z]+') AS arr
                    FROM documents)
            ),
            tmatch AS (
              SELECT DISTINCT qd.qid, tp.doc_id, tp.pos
              FROM tpos tp
              JOIN (SELECT DISTINCT qid, term FROM q) qd ON qd.term = tp.term
            ),
            gaps AS (
              SELECT qid, doc_id,
                     pos - LAG(pos) OVER (
                       PARTITION BY qid, doc_id ORDER BY pos) AS gap
              FROM tmatch
            ),
            f19t AS (
              SELECT qid, doc_id, COUNT(*) AS total, MIN(gap) AS mingap
              FROM gaps GROUP BY qid, doc_id
            )
            SELECT ft.qid,
                   'https://example.org/doc/' || lpad(CAST(ft.doc_id AS VARCHAR), 12, '0') AS url,
                   FLOOR(ft.f8 * 1000000) / 1000000 AS f8_r,
                   FLOOR((CASE WHEN ft.f10 = 0 THEN 0.0 ELSE ft.f9raw END) * 1000000) / 1000000 AS f9_r,
                   CAST(ft.f10 AS BIGINT) AS f10,
                   FLOOR(fu.f11 * 1000000) / 1000000 AS f11_r,
                   FLOOR((CASE WHEN fu.f13 = 0 THEN 0.0 ELSE fu.f12raw END) * 1000000) / 1000000 AS f12_r,
                   CAST(fu.f13 AS BIGINT) AS f13,
                   FLOOR(fu.f17 * 1000000) / 1000000 AS f17_r,
                   FLOOR((CASE WHEN f19t.total IS NULL OR f19t.total <= 1
                          THEN 0.0 ELSE 1.0 / f19t.mingap END) * 1000000) / 1000000 AS f19_r
            FROM feat_t ft
            JOIN feat_u fu ON fu.qid = ft.qid AND fu.doc_id = ft.doc_id
            LEFT JOIN f19t ON f19t.qid = ft.qid AND f19t.doc_id = ft.doc_id
            ORDER BY ft.qid, url
        """,
        "similarity_join": """
            WITH e AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
            )
            SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
                   FLOOR(list_cosine_similarity(a.v, b.v) * 10000) / 10000
                     AS cosine_r
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.4
            ORDER BY doc_a, doc_b
        """,
        "minhash_pairs": f"""
            -- ground truth: EXACT 3-gram jaccard over all pairs.  LSH with
            -- 16 bands x 4 rows has ~1.0 recall for the >=0.9-jaccard dup
            -- pairs this corpus contains (verified: both sides emit the same
            -- 25 pairs at sf0.01), so candidate generation + verification
            -- must reproduce the exact all-pairs answer.
            WITH {_SHINGLE_PAIRS}
            SELECT doc_a, doc_b,
                   FLOOR(jaccard * 1000000) / 1000000 AS jaccard_r
            FROM dup_pairs ORDER BY doc_a, doc_b
        """,
        "dup_triangles": f"""
            -- triangles of the exact jaccard>=0.5 pair graph: pairs are
            -- (a < b), so each triangle x<y<z matches exactly once
            WITH {_SHINGLE_PAIRS},
            e AS (SELECT doc_a AS a, doc_b AS b FROM dup_pairs)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
            JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
        """,
        "incremental_ingest": """
            -- incoming batch (Knuth bucket >= 800) minus exact-content
            -- matches in the registry (bucket < 800), keep-first within
            -- the batch
            WITH b AS (
              SELECT doc_id, text,
                     ((((doc_id % 2147483648) * 2654435761)
                       % 4294967296) % 1000) AS bk
              FROM documents
            ),
            reg AS (SELECT text FROM b WHERE bk < 800),
            inc AS (SELECT doc_id, text FROM b WHERE bk >= 800)
            SELECT i.doc_id FROM inc i
            WHERE NOT EXISTS (
                    SELECT 1 FROM reg r WHERE r.text = i.text)
              AND i.doc_id = (SELECT MIN(j.doc_id) FROM inc j
                              WHERE j.text = i.text)
            ORDER BY i.doc_id
        """,
        "allpairs_jaccard": f"""
            -- the SAME exact all-pairs ground truth as minhash_pairs;
            -- AllPairs prefix filtering must reproduce it with
            -- guaranteed (non-probabilistic) recall
            WITH {_SHINGLE_PAIRS}
            SELECT doc_a, doc_b,
                   FLOOR(jaccard * 1000000) / 1000000 AS jaccard_r
            FROM dup_pairs ORDER BY doc_a, doc_b
        """,
        "embedding_quantize": """
            -- int8 max-abs quantization, float64 expression order
            -- mirrored from the engine (v / amax * 127.0, floor)
            WITH e AS (
              SELECT vec_id,
                     unnest(embedding) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim,
                     list_max(list_transform(embedding,
                       x -> abs(CAST(x AS DOUBLE)))) AS amax
              FROM embeddings
            )
            SELECT vec_id,
                   CAST(dim AS BIGINT) AS dim,
                   CASE WHEN amax = 0 THEN 0
                        ELSE CAST(FLOOR((CAST(v AS DOUBLE) / amax)
                                        * 127.0) AS BIGINT)
                   END AS q,
                   CAST(FLOOR(amax * 1000000.0) AS BIGINT) AS amax_micro
            FROM e
            ORDER BY vec_id, dim
        """,
        "label_centroids": """
            -- per-(label, dim) exact integer micro-unit sums; floor in
            -- DOUBLE before summing = the engine's order-free contract
            SELECT label,
                   CAST(dim AS BIGINT) AS dim,
                   CAST(SUM(CAST(FLOOR(CAST(v AS DOUBLE) * 1000000.0)
                                 AS BIGINT)) AS BIGINT) AS sum_micro,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM (
              SELECT label,
                     unnest(embedding) AS v,
                     unnest(generate_series(1, len(embedding))) AS dim
              FROM embeddings
            )
            GROUP BY 1, 2
            ORDER BY label, dim
        """,
        "cross_corpus_pairs": f"""
            -- exact all-pairs 3-gram jaccard over the corpus augmented
            -- with the re-keyed incoming batch (doc_id % 17 == 0 ->
            -- +1e6), keeping only cross-side pairs
            WITH aug AS MATERIALIZED (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + 1000000, text FROM documents
              WHERE doc_id % 17 = 0
            ),
            {_SHINGLE_PAIRS_AUG}
            SELECT doc_a, doc_b,
                   FLOOR(jaccard * 1000000) / 1000000 AS jaccard_r
            FROM dup_pairs
            WHERE doc_a < 1000000 AND doc_b >= 1000000
            ORDER BY doc_a, doc_b
        """,
        "minhash_dedup": f"""
            -- survivors after connected-component dedup over the exact
            -- jaccard>=0.5 pair graph: min-label propagation via a recursive
            -- transitive closure (the pair graph is candidate-sized).
            WITH RECURSIVE {_SHINGLE_PAIRS},
            edges AS (
              SELECT doc_a AS a, doc_b AS b FROM dup_pairs
              UNION ALL
              SELECT doc_b, doc_a FROM dup_pairs
            ),
            reach(s, d) AS (
              SELECT a, b FROM edges
              UNION
              SELECT r.s, e.b FROM reach r JOIN edges e ON r.d = e.a
            ),
            dropped AS (SELECT DISTINCT s AS doc_id FROM reach WHERE d < s)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
            ORDER BY doc_id
        """,
        "anchor_text": """
            -- inlink-field build over the deterministic synthetic link
            -- graph: anchors co-locate by target, ordered (src, j) concat
            WITH w AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            lk AS (
              SELECT doc_id AS src, ws,
                     unnest(generate_series(1, doc_id % 3)) AS j
              FROM w
            ),
            links AS (
              SELECT src, j,
                     (src * 7 + j * 13)
                       % (SELECT COUNT(*) FROM documents) AS dst,
                     CASE WHEN len(ws) >= j THEN ws[j] ELSE '' END AS anchor
              FROM lk
            )
            SELECT CAST(dst AS BIGINT) AS doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_inlinks,
                   string_agg(anchor, ' ' ORDER BY src, j) AS inlink_text
            FROM links GROUP BY dst ORDER BY doc_id
        """,
        "bpe_merges": _bpe_sql(5),
        "bpe_segment": _bpe_apply_sql(5),
        "bpe_fertility": _bpe_fertility_sql(5),
        "chunk_documents": """
            -- 64-token / stride-48 chunks; chunk_hash = base-1000003 fold
            -- over base-131 word hashes (fingerprints contract per chunk)
            WITH w AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            wh AS (
              SELECT doc_id,
                     list_transform(ws, t ->
                       list_reduce(
                         list_prepend(CAST(0 AS BIGINT),
                           list_transform(string_split(t, ''),
                                          c -> CAST(unicode(c) AS BIGINT))),
                         (a, c) -> (a * 131 + c) % 2147483647)) AS whs
              FROM w
            ),
            st AS (
              SELECT doc_id, whs,
                     unnest(generate_series(0, len(whs)-1, 48)) AS start
              FROM wh
            )
            SELECT doc_id,
                   CAST(start // 48 AS BIGINT) AS chunk_idx,
                   CAST(start AS BIGINT) AS start_tok,
                   CAST(LEAST(64, len(whs) - start) AS BIGINT) AS n_tok,
                   CAST(list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                                  whs[start+1 : start+64]),
                     (a, c) -> (a * 1000003 + c) % 2147483647)
                     AS BIGINT) AS chunk_hash
            FROM st ORDER BY doc_id, chunk_idx
        """,
        "dsir_weights": """
            -- DSIR hashed-unigram importance weights: bucket = the
            -- fingerprints base-131 char fold mod 128; bucket score =
            -- floor(1e6*ln(((t+1.0)*(R+128))/((r+1.0)*(T+128)))) as
            -- BIGINT (one ln per bucket, same libm as the engine); doc
            -- weight = order-free integer sum of its tokens' scores.
            WITH w AS (
              SELECT doc_id, lang,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            tok AS (SELECT doc_id, lang, unnest(ws) AS t FROM w),
            tb AS (
              SELECT doc_id, lang,
                     list_reduce(
                       list_prepend(CAST(0 AS BIGINT),
                         list_transform(string_split(t, ''),
                                        c -> CAST(unicode(c) AS BIGINT))),
                       (a, c) -> (a * 131 + c) % 2147483647) % 128 AS b
              FROM tok
            ),
            cnt AS (
              SELECT b, CAST(COUNT(*) AS BIGINT) AS r,
                     CAST(SUM(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                          AS BIGINT) AS t
              FROM tb GROUP BY b
            ),
            tot AS (
              SELECT CAST(SUM(r) AS BIGINT) AS rtot,
                     CAST(SUM(t) AS BIGINT) AS ttot
              FROM cnt
            ),
            scores AS (
              SELECT b,
                     CAST(floor(1000000 * ln(
                       ((t + 1.0) * (rtot + 128))
                       / ((r + 1.0) * (ttot + 128)))) AS BIGINT) AS s
              FROM cnt, tot
            )
            SELECT d.doc_id,
                   CAST(COALESCE(agg.sw, 0) AS BIGINT) AS dsir_milliweight
            FROM documents d
            LEFT JOIN (
              SELECT doc_id, SUM(s) AS sw
              FROM tb JOIN scores USING (b) GROUP BY doc_id
            ) agg USING (doc_id)
            ORDER BY d.doc_id
        """,
        "mixture_plan": """
            -- Pile-style token-budget mixture plan: budget = total // 2,
            -- weight = 1 + length(source) % 3, epoch cap = 2x tokens,
            -- one proportional redistribution pass re-clipped at the cap.
            -- All-integer (// on non-negatives: Python == DuckDB).
            WITH tok AS (
              SELECT source,
                     CAST(SUM(len(regexp_extract_all(lower(text),
                                                     '[0-9a-z]+')))
                          AS BIGINT) AS tokens
              FROM documents GROUP BY source
            ),
            w AS (
              SELECT source, tokens,
                     CAST(1 + length(source) % 3 AS BIGINT) AS weight
              FROM tok
            ),
            base AS (
              SELECT source, tokens, weight,
                     (SELECT SUM(tokens) FROM w) // 2 AS budget,
                     (weight * ((SELECT SUM(tokens) FROM w) // 2))
                       // (SELECT SUM(weight) FROM w) AS desired,
                     2 * tokens AS cap
              FROM w
            ),
            b2 AS (
              SELECT *, LEAST(desired, cap) AS alloc0,
                     (cap >= desired) AS uncapped
              FROM base
            ),
            agg AS (
              SELECT SUM(alloc0) AS s_alloc,
                     SUM(CASE WHEN uncapped THEN weight ELSE 0 END) AS uw
              FROM b2
            ),
            fin AS (
              SELECT source, tokens, weight, desired,
                     CASE WHEN uncapped AND (SELECT uw FROM agg) > 0
                          THEN LEAST(cap, alloc0 +
                               ((budget - (SELECT s_alloc FROM agg))
                                * weight) // (SELECT uw FROM agg))
                          ELSE alloc0 END AS alloc
              FROM b2
            )
            SELECT source, tokens, weight,
                   CAST(desired AS BIGINT) AS desired,
                   CAST(alloc AS BIGINT) AS alloc,
                   CAST(CASE WHEN tokens = 0 THEN 0
                        ELSE (alloc * 1000000) // tokens END AS BIGINT)
                     AS epochs_ppm
            FROM fin ORDER BY source
        """,
        "dedup_keep_best": f"""
            -- quality-aware consolidation over the same exact jaccard>=0.5
            -- pair graph as minhash_dedup: per component the
            -- (n_word_tokens desc, doc_id asc)-best member survives
            WITH RECURSIVE {_SHINGLE_PAIRS},
            edges AS (
              SELECT doc_a AS a, doc_b AS b FROM dup_pairs
              UNION ALL
              SELECT doc_b, doc_a FROM dup_pairs
            ),
            reach(s, d) AS (
              SELECT a, b FROM edges
              UNION
              SELECT r.s, e.b FROM reach r JOIN edges e ON r.d = e.a
            ),
            labels AS (
              SELECT s AS doc_id, LEAST(s, MIN(d)) AS comp
              FROM reach GROUP BY s
            ),
            q AS (
              SELECT doc_id,
                     CAST(len(regexp_extract_all(lower(text), '[0-9a-z]+'))
                          AS BIGINT) AS quality
              FROM documents
            ),
            ranked AS (
              SELECT l.doc_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY l.comp
                       ORDER BY q.quality DESC, l.doc_id ASC
                     ) AS rn
              FROM labels l JOIN q USING (doc_id)
            ),
            dropped AS (SELECT doc_id FROM ranked WHERE rn > 1)
            SELECT doc_id FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
            ORDER BY doc_id
        """,
        "line_dedup": """
            -- C4-style line dedup: a >=10-char line survives only at its
            -- first global (doc_id, line_idx) occurrence; shorter lines
            -- always survive; docs rejoin surviving lines in order.  A doc
            -- whose EVERY line was a duplicate still yields (doc_id, '')
            -- (never silently dropped), hence the left join over documents.
            WITH lines AS (
              SELECT doc_id,
                     unnest(generate_series(1, len(string_split(text, chr(10))))) AS line_idx,
                     unnest(string_split(text, chr(10))) AS line
              FROM documents
            ),
            marked AS (
              SELECT doc_id, line_idx, line,
                     (length(line) < 10 OR ROW_NUMBER() OVER (
                        PARTITION BY line ORDER BY doc_id, line_idx
                      ) = 1) AS keep
              FROM lines
            )
            SELECT d.doc_id, COALESCE(agg.text, '') AS text
            FROM documents d
            LEFT JOIN (
              SELECT doc_id,
                     string_agg(line, chr(10) ORDER BY line_idx) AS text
              FROM marked WHERE keep
              GROUP BY doc_id
            ) agg USING (doc_id)
            ORDER BY d.doc_id
        """,
        "repetition_signals": """
            WITH w AS (
              SELECT doc_id, regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            g3 AS (
              SELECT doc_id,
                CAST(GREATEST(len(ws) - 2, 0) AS DOUBLE) AS total3,
                CAST(len(list_distinct(list_transform(
                  generate_series(1, len(ws) - 2),
                  i -> ws[i] || chr(1) || ws[i+1] || chr(1) || ws[i+2]
                ))) AS DOUBLE) AS distinct3
              FROM w
            ),
            l AS (
              SELECT doc_id,
                CAST(len(string_split(text, chr(10))) AS BIGINT) AS n_lines,
                CAST(len(list_distinct(string_split(text, chr(10)))) AS DOUBLE) AS distinct_l
              FROM documents WHERE text <> ''
            )
            SELECT d.doc_id,
                   COALESCE(l.n_lines, 0) AS n_lines,
                   CASE WHEN l.n_lines IS NULL THEN 0.0
                        ELSE 1.0 - l.distinct_l / CAST(l.n_lines AS DOUBLE) END
                     AS dup_line_frac,
                   CASE WHEN g3.total3 = 0.0 THEN 0.0
                        ELSE 1.0 - g3.distinct3 / g3.total3 END AS dup_3gram_frac
            FROM documents d
            LEFT JOIN g3 ON g3.doc_id = d.doc_id
            LEFT JOIN l ON l.doc_id = d.doc_id
            ORDER BY d.doc_id
        """,
        "curate_corpus": f"""
            -- the composed curation flow: marker-argmax lang filter +
            -- word-count filter, then exact-jaccard near-dup closure over
            -- the FILTERED doc set only
            WITH RECURSIVE toks0 AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
              FROM documents
            ),
            hits AS (
              SELECT doc_id,
                SUM(CASE WHEN term IN ('der','die','das','und','ist','nicht','ein','mit','sich') THEN 1 ELSE 0 END) AS de,
                SUM(CASE WHEN term IN ('the','and','of','to','in','is','that','it','for','was') THEN 1 ELSE 0 END) AS en,
                SUM(CASE WHEN term IN ('el','los','las','es','una','que','por','para','con') THEN 1 ELSE 0 END) AS es,
                SUM(CASE WHEN term IN ('le','la','les','et','est','pas','une','que','pour') THEN 1 ELSE 0 END) AS fr,
                COUNT(*) AS n_words
              FROM toks0 GROUP BY doc_id
            ),
            fdocs AS (
              -- lang_pred == 'en' (first-in-sorted-order tie rule: 'de'
              -- precedes 'en', so en needs de < en; es/fr follow, so ties
              -- with them still pick en) AND the word-count floor
              SELECT d.doc_id, d.text
              FROM documents d JOIN hits h USING (doc_id)
              WHERE h.en > 0 AND h.de < h.en
                AND h.es <= h.en AND h.fr <= h.en
                AND h.n_words >= 25
            ),
            {_shingle_pairs_sql('fdocs')},
            edges AS (
              SELECT doc_a AS a, doc_b AS b FROM dup_pairs
              UNION ALL SELECT doc_b, doc_a FROM dup_pairs
            ),
            reach(s, d) AS (
              SELECT a, b FROM edges
              UNION
              SELECT r.s, e.b FROM reach r JOIN edges e ON r.d = e.a
            ),
            dropped AS (SELECT DISTINCT s AS doc_id FROM reach WHERE d < s)
            SELECT doc_id FROM fdocs
            WHERE doc_id NOT IN (SELECT doc_id FROM dropped)
            ORDER BY doc_id
        """,
        "embedding_neardup": """
            -- ground truth: exact all-pairs cosine >= 0.9 over the table
            -- AUGMENTED with planted near-dups (vec_id < 20 copied to
            -- vec_id + 1e6 with +0.005 per coordinate, cosine ~0.9992) —
            -- non-vacuous recall check (the raw corpus has no pair >= 0.9).
            WITH e AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
            ),
            aug AS (
              SELECT vec_id, v FROM e
              UNION ALL
              SELECT vec_id + 1000000, list_transform(v, x -> x + 0.005)
              FROM e WHERE vec_id < 20
            )
            SELECT a.vec_id AS doc_a, b.vec_id AS doc_b,
                   FLOOR(list_cosine_similarity(a.v, b.v) * 10000) / 10000
                     AS cosine_r
            FROM aug a JOIN aug b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.v, b.v) >= 0.9
            ORDER BY doc_a, doc_b
        """,
        "fingerprints": """
            -- mod-(2^31-1) polynomial hashes reproduce the engine exactly:
            -- word hash = char fold base 131; fingerprint = min over
            -- min(4, n_words)-word windows of a base-1000003 fold; content
            -- hash = the same fold over the whole token stream.
            WITH w AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            wh AS (
              SELECT doc_id,
                     list_transform(ws, t ->
                       list_reduce(
                         list_prepend(CAST(0 AS BIGINT),
                           list_transform(string_split(t, ''),
                                          c -> CAST(unicode(c) AS BIGINT))),
                         (a, c) -> (a * 131 + c) % 2147483647)) AS whs
              FROM w
            )
            SELECT doc_id,
              CASE WHEN len(whs) = 0 THEN 0 ELSE
                list_aggregate(
                  list_transform(
                    generate_series(1, len(whs) - LEAST(len(whs), 4) + 1),
                    i -> list_reduce(
                           list_prepend(CAST(0 AS BIGINT),
                                        whs[i : i + LEAST(len(whs), 4) - 1]),
                           (a, x) -> (a * 1000003 + x) % 2147483647)),
                  'min')
              END AS fingerprint,
              CASE WHEN len(whs) = 0 THEN 0 ELSE
                list_reduce(list_prepend(CAST(0 AS BIGINT), whs),
                            (a, x) -> (a * 1000003 + x) % 2147483647)
              END AS content_hash
            FROM wh ORDER BY doc_id
        """,
        "simhash_pairs": """
            -- ground truth: exact all-pairs Hamming <= 3 over the 62-bit
            -- tf-weighted simhash (two mod-(2^31-1) char folds per word).
            -- The engine's 4-band bucketing has recall 1.0 for distance <= 3
            -- (pigeonhole), so it must reproduce this exactly.
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
              FROM documents
            ),
            hw AS (
              SELECT doc_id,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                    list_transform(string_split(term, ''),
                                   c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 131 + c) % 2147483647)
                +
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                    list_transform(string_split(term, ''),
                                   c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 137 + c) % 2147483647) * 2147483648
                AS h
              FROM toks
            ),
            bits AS (
              SELECT doc_id, i.i,
                     SUM(CASE WHEN ((h >> i.i) & 1) = 1 THEN 1 ELSE -1 END) AS acc
              FROM hw CROSS JOIN (SELECT unnest(generate_series(0, 61)) AS i) i
              GROUP BY doc_id, i.i
            ),
            sh AS (
              SELECT doc_id,
                     CAST(SUM(CASE WHEN acc > 0
                              THEN (CAST(1 AS BIGINT) << i) ELSE 0 END)
                          AS BIGINT) AS simhash
              FROM bits GROUP BY doc_id
            ),
            allsh AS (
              SELECT d.doc_id, COALESCE(s.simhash, 0) AS simhash
              FROM documents d LEFT JOIN sh s USING (doc_id)
            )
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
            FROM allsh a JOIN allsh b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
            ORDER BY doc_a, doc_b
        """,
        "lang_id": """
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
              FROM documents
            ),
            hits AS (
              SELECT doc_id,
                SUM(CASE WHEN term IN ('der','die','das','und','ist','nicht','ein','mit','sich') THEN 1 ELSE 0 END) AS de,
                SUM(CASE WHEN term IN ('the','and','of','to','in','is','that','it','for','was') THEN 1 ELSE 0 END) AS en,
                SUM(CASE WHEN term IN ('el','los','las','es','una','que','por','para','con') THEN 1 ELSE 0 END) AS es,
                SUM(CASE WHEN term IN ('le','la','les','et','est','pas','une','que','pour') THEN 1 ELSE 0 END) AS fr
              FROM toks GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CASE WHEN GREATEST(COALESCE(h.de,0), COALESCE(h.en,0),
                                      COALESCE(h.es,0), COALESCE(h.fr,0)) = 0
                        THEN 'und'
                        WHEN h.de = GREATEST(h.de, h.en, h.es, h.fr) THEN 'de'
                        WHEN h.en = GREATEST(h.de, h.en, h.es, h.fr) THEN 'en'
                        WHEN h.es = GREATEST(h.de, h.en, h.es, h.fr) THEN 'es'
                        ELSE 'fr' END AS lang_pred
            FROM documents d LEFT JOIN hits h USING (doc_id)
            ORDER BY d.doc_id
        """,
        "pii_redact": r"""
            -- planted PII mirror of _pii_augment_batch, then the fixed
            -- email -> url -> ipv4 -> phone redaction chain; each count is
            -- taken on the text as left by the PREVIOUS redaction, exactly
            -- like PIIRedactor (stages/text.py)
            WITH aug AS (
              SELECT doc_id,
                     text || CASE WHEN doc_id % 5 = 0 THEN
                       ' Contact u' || CAST(doc_id AS VARCHAR)
                       || '@example.com or https://ex'
                       || CAST(doc_id AS VARCHAR)
                       || '.example/page ip 10.'
                       || CAST(doc_id % 256 AS VARCHAR)
                       || '.0.1 call 555-'
                       || CAST(100 + doc_id % 900 AS VARCHAR) || '-'
                       || CAST(1000 + doc_id % 9000 AS VARCHAR)
                     ELSE '' END AS t0
              FROM documents
            ),
            s1 AS (
              SELECT doc_id,
                CAST(length(regexp_extract_all(t0,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT)
                  AS n_emails,
                regexp_replace(t0,
                  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                  '<EMAIL>', 'g') AS t1
              FROM aug
            ),
            s2 AS (
              SELECT doc_id, n_emails,
                CAST(length(regexp_extract_all(t1, 'https?://\S+')) AS BIGINT)
                  AS n_urls,
                regexp_replace(t1, 'https?://\S+', '<URL>', 'g') AS t2
              FROM s1
            ),
            s3 AS (
              SELECT doc_id, n_emails, n_urls,
                CAST(length(regexp_extract_all(t2,
                  '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS BIGINT)
                  AS n_ipv4,
                regexp_replace(t2,
                  '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g') AS t3
              FROM s2
            )
            SELECT doc_id, n_emails, n_urls, n_ipv4,
              CAST(length(regexp_extract_all(t3,
                '\b\d{3}-\d{3}-\d{4}\b')) AS BIGINT) AS n_phones,
              regexp_replace(t3, '\b\d{3}-\d{3}-\d{4}\b', '<PHONE>', 'g')
                AS text_redacted
            FROM s3
            ORDER BY doc_id
        """,
        "hash_sample": """
            -- Knuth multiplicative hash confined to BIGINT-exact range
            -- (stages/sample.py contract)
            SELECT doc_id, n_chars
            FROM documents
            WHERE ((((doc_id % 2147483648) * 2654435761) % 4294967296)
                   % 1000) < 100
            ORDER BY doc_id
        """,
        "split_counts": """
            -- deterministic hash split: bucket = knuth(doc_id) % 1000,
            -- train < 900 <= val < 950 <= test (stages/sample.py bounds)
            SELECT lang,
                   CASE WHEN b < 900 THEN 'train'
                        WHEN b < 950 THEN 'val'
                        ELSE 'test' END AS split,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM (
              SELECT lang,
                     ((((doc_id % 2147483648) * 2654435761)
                       % 4294967296) % 1000) AS b
              FROM documents
            )
            GROUP BY 1, 2
            ORDER BY lang, split
        """,
        "doc_embedding_join": """
            -- inner equi-join documents x embeddings, per-(lang,label)
            -- counts and char sums
            SELECT d.lang,
                   e.label,
                   CAST(COUNT(*) AS BIGINT) AS cnt,
                   CAST(SUM(d.n_chars) AS BIGINT) AS sum_chars
            FROM documents d
            JOIN embeddings e ON e.vec_id = d.doc_id
            GROUP BY 1, 2
            ORDER BY d.lang, e.label
        """,
        "window_unique_users": """
            SELECT date_trunc('hour', ts) AS window_start,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "event_transitions": """
            -- per-user (ts, event_id)-ordered type bigrams
            WITH o AS (
              SELECT user_id, event_type,
                     LEAD(event_type) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS nxt
              FROM events
            )
            SELECT event_type AS from_type, nxt AS to_type,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM o WHERE nxt IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "weighted_sample": """
            -- keep iff knuth-bucket < min(1000, (n_chars // 2) * 1)
            SELECT doc_id, n_chars FROM documents
            WHERE ((((doc_id % 2147483648) * 2654435761) % 4294967296)
                   % 1000)
                  < LEAST(1000, (n_chars // 2) * 1)
            ORDER BY doc_id
        """,
        "balanced_sample": """
            -- per-language bottom-20 by the avalanche hash
            -- (ties by doc_id asc)
            SELECT doc_id, lang FROM (
              SELECT doc_id, lang, row_number() OVER (
                PARTITION BY lang ORDER BY h ASC, doc_id ASC) AS rn
              FROM (
                SELECT doc_id, lang,
                       (((xor(h1, h1 // 65536) % 2147483648)
                         * 2654435761) % 4294967296) AS h
                FROM (
                  SELECT doc_id, lang,
                         (((doc_id % 2147483648) * 2654435761)
                          % 4294967296) AS h1
                  FROM documents
                )
              )
            ) WHERE rn <= 20 ORDER BY doc_id
        """,
        "dup_spans": """
            -- cross-doc repeated 8-gram spans, top-50 by
            -- (n_docs desc, n_occ desc, gram asc) — gram is unique in
            -- the ordering so the LIMIT boundary is deterministic
            WITH t AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     unnest(list_transform(
                       generate_series(1, len(l) - 7),
                       i -> array_to_string(l[i : i + 7], ' '))) AS gram
              FROM t WHERE len(l) >= 8
            ),
            c AS (
              SELECT gram,
                     CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_docs,
                     CAST(COUNT(*) AS BIGINT) AS n_occ
              FROM g GROUP BY gram
              HAVING COUNT(DISTINCT doc_id) >= 2
            )
            SELECT gram, n_docs, n_occ FROM c
            ORDER BY n_docs DESC, n_occ DESC, gram ASC LIMIT 50
        """,
        "per_source_cap": """
            -- keep at most 20 docs per source, lowest doc_id first
            SELECT doc_id, source FROM (
              SELECT doc_id, source, row_number() OVER (
                PARTITION BY source ORDER BY doc_id ASC) AS rn
              FROM documents
            ) WHERE rn <= 20 ORDER BY doc_id
        """,
        "split_leakage": """
            -- exact-duplicate texts spanning >1 hash split: one row
            -- per (content group, split); group key = min doc_id.
            -- Leaks are PLANTED (docs with doc_id % 10 in (0, 7)
            -- share a per-decade text) so the check is non-vacuous.
            WITH s AS (
              SELECT doc_id, text,
                     CASE WHEN b < 900 THEN 'train'
                          WHEN b < 950 THEN 'val'
                          ELSE 'test' END AS split
              FROM (
                SELECT doc_id,
                       CASE WHEN doc_id % 10 IN (0, 7)
                            THEN 'LEAK-' ||
                                 CAST(doc_id // 10 AS VARCHAR)
                            ELSE COALESCE(text, '') END AS text,
                       ((((doc_id % 2147483648) * 2654435761)
                         % 4294967296) % 1000) AS b
                FROM documents
              )
            ),
            g AS (
              SELECT text, MIN(doc_id) AS group_key,
                     COUNT(DISTINCT split) AS nsplits
              FROM s GROUP BY text
            )
            SELECT g.group_key, s.split,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM s JOIN g USING (text)
            WHERE g.nsplits > 1
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "spell_correct": """
            -- brute-force ground truth: levenshtein cross join over
            -- the full vocabulary (the engine's deletion-neighborhood
            -- join must reproduce it exactly — recall AND ranking)
            WITH v AS (
              SELECT term,
                     CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS df
              FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[0-9a-z]+')) AS term
                FROM documents
              ) GROUP BY term
            ),
            q AS (
              SELECT unnest(['batc', 'scann', 'filtr', 'mergee',
                             'colmn', 'vectr', 'join']) AS query
            ),
            c AS (
              SELECT q.query, v.term,
                     levenshtein(q.query, v.term) AS dist, v.df
              FROM q CROSS JOIN v
              WHERE levenshtein(q.query, v.term) <= 1
            )
            SELECT query, term, CAST(dist AS BIGINT) AS dist, df
            FROM (
              SELECT *, row_number() OVER (
                PARTITION BY query
                ORDER BY dist, df DESC, term) AS rn
              FROM c
            ) WHERE rn <= 3 ORDER BY query, term
        """,
        "next_word_suggest": """
            -- per-prefix top-3 next words by exact bigram count,
            -- (cnt desc, w2 asc), bigrams with count < 2 dropped
            WITH t AS (
              SELECT regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            z AS (
              SELECT unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS s
              FROM t WHERE len(l) >= 2
            ),
            c AS (
              SELECT s[1] AS w1, s[2] AS w2,
                     CAST(COUNT(*) AS BIGINT) AS cnt
              FROM z GROUP BY 1, 2 HAVING COUNT(*) >= 2
            )
            SELECT w1, w2, cnt FROM (
              SELECT *, row_number() OVER (
                PARTITION BY w1 ORDER BY cnt DESC, w2 ASC) AS rn
              FROM c
            ) WHERE rn <= 3 ORDER BY w1, w2
        """,
        "broadcast_join": """
            SELECT d.doc_id, d.lang, e.label AS r_label
            FROM documents d
            JOIN embeddings e ON e.vec_id = d.doc_id
            ORDER BY d.doc_id
        """,
        "consistent_sample": """
            -- bottom-200 by the avalanche Knuth-xor-Knuth hash
            -- (ties by doc_id asc)
            SELECT doc_id, lang FROM (
              SELECT doc_id, lang,
                     (((xor(h1, h1 // 65536) % 2147483648)
                       * 2654435761) % 4294967296) AS h
              FROM (
                SELECT doc_id, lang,
                       (((doc_id % 2147483648) * 2654435761)
                        % 4294967296) AS h1
                FROM documents
              )
            )
            ORDER BY h, doc_id LIMIT 200
        """,
        "cms_counts": """
            -- count-min sketch cells: 3 rows x 512 cells over the
            -- [0-9a-z]+ token stream, mod-(2^31-1) char folds at
            -- bases 131/137/139 (the frozen fingerprint contract)
            WITH t AS MATERIALIZED (
              SELECT
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(term, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 131 + c) % 2147483647) AS h131,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(term, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 137 + c) % 2147483647) AS h137,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(term, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 139 + c) % 2147483647) AS h139
              FROM (
                SELECT unnest(
                  regexp_extract_all(lower(text), '[0-9a-z]+')) AS term
                FROM documents
              )
            ),
            cells AS (
              SELECT 0 AS d, h131 % 512 AS cell FROM t
              UNION ALL SELECT 1, h137 % 512 FROM t
              UNION ALL SELECT 2, h139 % 512 FROM t
            )
            SELECT CAST(d AS BIGINT) AS d,
                   CAST(cell AS BIGINT) AS cell,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM cells GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "hll_group": """
            -- per-event-type HLL registers over user_id: the exact
            -- hll_registers hash/rho contract with a group key
            WITH h AS (
              SELECT event_type,
                     (((xor(h1, h1 // 65536) % 2147483648)
                       * 2654435761) % 4294967296) AS h
              FROM (
                SELECT event_type,
                       (((user_id % 2147483648) * 2654435761)
                        % 4294967296) AS h1
                FROM events
              )
            ),
            r AS (
              SELECT event_type, h % 256 AS bucket,
                     COALESCE(
                       (SELECT MIN(j) FROM generate_series(1, 24) s(j)
                        WHERE ((h // 256) >> (24 - j)) & 1 = 1),
                       25) AS rho
              FROM h
            )
            SELECT event_type, CAST(bucket AS BIGINT) AS bucket,
                   CAST(MAX(rho) AS BIGINT) AS max_rho
            FROM r GROUP BY event_type, bucket
            ORDER BY event_type, bucket
        """,
        "hll_registers": """
            -- HLL registers: avalanche Knuth-xor-Knuth 32-bit hash
            -- (// == >> on non-negative), bucket = low 8 bits, rho =
            -- leading zeros of the 24-bit suffix + 1 via exact bit
            -- tests (no float log2)
            WITH h AS (
              SELECT (((xor(h1, h1 // 65536) % 2147483648)
                       * 2654435761) % 4294967296) AS h
              FROM (
                SELECT (((event_id % 2147483648) * 2654435761)
                        % 4294967296) AS h1
                FROM events
              )
            ),
            r AS (
              SELECT h % 256 AS bucket,
                     COALESCE(
                       (SELECT MIN(j) FROM generate_series(1, 24) s(j)
                        WHERE ((h // 256) >> (24 - j)) & 1 = 1),
                       25) AS rho
              FROM h
            )
            SELECT CAST(bucket AS BIGINT) AS bucket,
                   CAST(MAX(rho) AS BIGINT) AS max_rho
            FROM r GROUP BY bucket ORDER BY bucket
        """,
        "stratified_sample": """
            -- per-stratum Knuth keep-rule: en 500 permille, rest 100
            SELECT doc_id, lang FROM documents
            WHERE ((((doc_id % 2147483648) * 2654435761) % 4294967296)
                   % 1000)
                  < (CASE WHEN lang = 'en' THEN 500 ELSE 100 END)
            ORDER BY doc_id
        """,
        "ranking_eval": """
            -- distributed trec_eval: per-user top-10 run by (value
            -- desc, event_id asc), graded rel = event_id % 3; all
            -- metrics as exact integer numerators (AP in lcm(1..10)
            -- = 2520 units; DCG/IDCG terms floored to micro-units
            -- BEFORE summing so the sum is order-free; log2 is libm
            -- on both sides)
            WITH base AS (
              SELECT user_id, event_id, value,
                     CAST(event_id % 3 AS BIGINT) AS rel
              FROM events
            ),
            ranked AS (
              SELECT *, row_number() OVER (
                PARTITION BY user_id
                ORDER BY value DESC, event_id ASC) AS rank
              FROM base
            ),
            tk AS (
              SELECT *, SUM(CASE WHEN rel > 0 THEN 1 ELSE 0 END)
                        OVER (PARTITION BY user_id
                              ORDER BY rank) AS cum_rel
              FROM ranked WHERE rank <= 10
            ),
            tkm AS (
              SELECT user_id,
                CAST(COUNT(*) AS BIGINT) AS n_ret,
                CAST(SUM(CASE WHEN rel > 0 THEN 1 ELSE 0 END)
                     AS BIGINT) AS p_at_k_num,
                CAST(COALESCE(MIN(CASE WHEN rel > 0 THEN rank END), 0)
                     AS BIGINT) AS first_rel_rank,
                CAST(SUM(CASE WHEN rel > 0
                          THEN cum_rel * (2520 // rank) ELSE 0 END)
                     AS BIGINT) AS ap_num_lcm,
                CAST(SUM(CAST(FLOOR((pow(2, rel) - 1)
                                    / log2(rank + 1) * 1e6)
                              AS BIGINT)) AS BIGINT) AS dcg_micro
              FROM tk GROUP BY user_id
            ),
            cnt AS (
              SELECT user_id,
                CAST(SUM(CASE WHEN rel > 0 THEN 1 ELSE 0 END)
                     AS BIGINT) AS n_rel,
                SUM(CASE WHEN rel = 1 THEN 1 ELSE 0 END) AS c1,
                SUM(CASE WHEN rel = 2 THEN 1 ELSE 0 END) AS c2
              FROM base GROUP BY user_id
            ),
            pos AS (SELECT i FROM generate_series(1, 10) t(i)),
            idcg AS (
              SELECT c.user_id, CAST(SUM(CAST(FLOOR(
                  (CASE WHEN p.i <= LEAST(c.c2, 10) THEN 3.0
                        WHEN p.i <= LEAST(c.c2 + c.c1, 10) THEN 1.0
                        ELSE 0.0 END)
                  / log2(p.i + 1) * 1e6) AS BIGINT)) AS BIGINT)
                AS idcg_micro
              FROM cnt c CROSS JOIN pos p GROUP BY c.user_id
            )
            SELECT t.user_id, t.n_ret, t.p_at_k_num,
                   t.first_rel_rank, t.ap_num_lcm, c.n_rel,
                   t.dcg_micro, i.idcg_micro
            FROM tkm t
            JOIN cnt c USING (user_id)
            JOIN idcg i ON i.user_id = c.user_id
            ORDER BY user_id
        """,
        "rolling_user_agg": """
            -- 5-row moving sum per user over milli-unit ints, frozen
            -- (ts, event_id) order
            SELECT event_id,
                   CAST(SUM(v) OVER w AS BIGINT) AS roll_sum_milli,
                   CAST(COUNT(*) OVER w AS BIGINT) AS roll_n
            FROM (
              SELECT user_id, event_id, ts,
                     CAST(FLOOR(CAST(value AS DOUBLE) * 1000.0)
                          AS BIGINT) AS v
              FROM events
            )
            WINDOW w AS (
              PARTITION BY user_id ORDER BY ts, event_id
              ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
            )
            ORDER BY event_id
        """,
        "cohort_retention": """
            -- retention matrix over exact epoch days (// truncation ==
            -- floor for positive epochs)
            WITH d AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 86400000000 AS day
              FROM events
            ),
            c AS (
              SELECT user_id, MIN(day) AS cohort_day FROM d GROUP BY 1
            )
            SELECT c.cohort_day,
                   d.day - c.cohort_day AS offset_days,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM d JOIN c USING (user_id)
            GROUP BY 1, 2
            ORDER BY cohort_day, offset_days
        """,
        "funnel": """
            -- ordered funnel: stage k+1 strictly after the EARLIEST
            -- stage-k time (MIN(ts) ... ts > prev join chain)
            WITH v AS (
              SELECT user_id, MIN(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY 1
            ),
            c AS (
              SELECT e.user_id, MIN(e.ts) AS t2
              FROM events e JOIN v USING (user_id)
              WHERE e.event_type = 'click' AND e.ts > v.t1
              GROUP BY 1
            ),
            p AS (
              SELECT e.user_id, MIN(e.ts) AS t3
              FROM events e JOIN c USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts > c.t2
              GROUP BY 1
            )
            SELECT u.user_id,
                   CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
                             WHEN c.user_id IS NOT NULL THEN 2
                             WHEN v.user_id IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS reached
            FROM (SELECT DISTINCT user_id FROM events) u
            LEFT JOIN v USING (user_id)
            LEFT JOIN c USING (user_id)
            LEFT JOIN p USING (user_id)
            ORDER BY u.user_id
        """,
        "window_top_events": """
            -- top-2 event types per hourly window, tie rule
            -- (n_events desc, event_type asc)
            SELECT window_start, event_type, n_events FROM (
              SELECT *, ROW_NUMBER() OVER (
                PARTITION BY window_start
                ORDER BY n_events DESC, event_type ASC) AS rn
              FROM (
                SELECT time_bucket(INTERVAL '60 minutes', ts)
                         AS window_start,
                       event_type,
                       CAST(COUNT(*) AS BIGINT) AS n_events
                FROM events GROUP BY 1, 2
              )
            ) WHERE rn <= 2
            ORDER BY window_start, n_events DESC, event_type
        """,
        "pagerank_events": """
            -- 5-round integer PageRank, damping 0.85 as exact int64 //
            -- ops (order-free sums == the engine's distributed plan);
            -- dangling mass leaks identically on both sides
            WITH ed AS MATERIALIZED (
              SELECT DISTINCT user_id AS src,
                     1000000 + CAST(regexp_extract(props,
                       '"k": (\\d+)', 1) AS BIGINT) AS dst
              FROM events
            ),
            nodes AS MATERIALIZED (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM ed
                UNION SELECT dst FROM ed)
            ),
            nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM nodes),
            od AS MATERIALIZED (
              SELECT src, CAST(COUNT(*) AS BIGINT) AS c
              FROM ed GROUP BY 1
            ),
            r0 AS (
              SELECT node, 1000000000000 // nn.n AS r
              FROM nodes CROSS JOIN nn
            ),
            r1 AS MATERIALIZED (
              SELECT n.node,
                     ((15 * 1000000000000) // (100 * nn.n))
                     + (85 * COALESCE(s.s, 0)) // 100 AS r
              FROM nodes n CROSS JOIN nn
              LEFT JOIN (
                SELECT e.dst AS node,
                       CAST(SUM(p.r // d.c) AS BIGINT) AS s
                FROM ed e
                JOIN r0 p ON p.node = e.src
                JOIN od d ON d.src = e.src
                GROUP BY e.dst
              ) s ON s.node = n.node
            ),
            r2 AS MATERIALIZED (
              SELECT n.node,
                     ((15 * 1000000000000) // (100 * nn.n))
                     + (85 * COALESCE(s.s, 0)) // 100 AS r
              FROM nodes n CROSS JOIN nn
              LEFT JOIN (
                SELECT e.dst AS node,
                       CAST(SUM(p.r // d.c) AS BIGINT) AS s
                FROM ed e
                JOIN r1 p ON p.node = e.src
                JOIN od d ON d.src = e.src
                GROUP BY e.dst
              ) s ON s.node = n.node
            ),
            r3 AS MATERIALIZED (
              SELECT n.node,
                     ((15 * 1000000000000) // (100 * nn.n))
                     + (85 * COALESCE(s.s, 0)) // 100 AS r
              FROM nodes n CROSS JOIN nn
              LEFT JOIN (
                SELECT e.dst AS node,
                       CAST(SUM(p.r // d.c) AS BIGINT) AS s
                FROM ed e
                JOIN r2 p ON p.node = e.src
                JOIN od d ON d.src = e.src
                GROUP BY e.dst
              ) s ON s.node = n.node
            ),
            r4 AS MATERIALIZED (
              SELECT n.node,
                     ((15 * 1000000000000) // (100 * nn.n))
                     + (85 * COALESCE(s.s, 0)) // 100 AS r
              FROM nodes n CROSS JOIN nn
              LEFT JOIN (
                SELECT e.dst AS node,
                       CAST(SUM(p.r // d.c) AS BIGINT) AS s
                FROM ed e
                JOIN r3 p ON p.node = e.src
                JOIN od d ON d.src = e.src
                GROUP BY e.dst
              ) s ON s.node = n.node
            ),
            r5 AS MATERIALIZED (
              SELECT n.node,
                     ((15 * 1000000000000) // (100 * nn.n))
                     + (85 * COALESCE(s.s, 0)) // 100 AS r
              FROM nodes n CROSS JOIN nn
              LEFT JOIN (
                SELECT e.dst AS node,
                       CAST(SUM(p.r // d.c) AS BIGINT) AS s
                FROM ed e
                JOIN r4 p ON p.node = e.src
                JOIN od d ON d.src = e.src
                GROUP BY e.dst
              ) s ON s.node = n.node
            )
            SELECT node, CAST(r AS BIGINT) AS r FROM r5 ORDER BY node
        """,
        "anti_join_blocklist": """
            -- anti join vs the Knuth-hash 20% blocklist
            SELECT d.doc_id, d.lang
            FROM documents d
            WHERE NOT EXISTS (
              SELECT 1 FROM documents b
              WHERE b.doc_id = d.doc_id
                AND ((((b.doc_id % 2147483648) * 2654435761)
                      % 4294967296) % 1000) < 200
            )
            ORDER BY d.doc_id
        """,
        "normalize_text": """
            -- plant noise (first-occurrence replace), then the FIXED
            -- RE2 regexp_replace chain mirroring normalize_text
            WITH noisy AS (
              SELECT doc_id,
                     '  ' || regexp_replace(text, ' ',
                       ' ' || chr(9) || ' ') || ' ' || chr(10) AS t
              FROM documents
            ),
            s1 AS (SELECT doc_id, regexp_replace(t,
                     '[\\x00-\\x09\\x0b-\\x1f\\x7f]', ' ', 'g') AS t
                   FROM noisy),
            s2 AS (SELECT doc_id,
                     regexp_replace(t, '[ ' || chr(9) || ']+', ' ', 'g')
                       AS t FROM s1),
            s3 AS (SELECT doc_id, regexp_replace(t,
                     ' ?' || chr(10) || ' ?', chr(10), 'g') AS t
                   FROM s2),
            s4 AS (SELECT doc_id, regexp_replace(t,
                     chr(10) || '+', chr(10), 'g') AS t FROM s3),
            s5 AS (SELECT doc_id, regexp_replace(t,
                     '^[ ' || chr(10) || ']+|[ ' || chr(10) || ']+$',
                     '', 'g') AS t FROM s4)
            SELECT doc_id, t AS text_norm,
                   CAST(length(t) AS BIGINT) AS n_chars_norm
            FROM s5 ORDER BY doc_id
        """,
        "tfidf_keywords": """
            -- top-3 tf-idf terms per doc; score_micro =
            -- floor((tf * ln(N/df)) * 1e6), libm ln contract, tie rule
            -- (score desc, term asc)
            WITH toks AS MATERIALIZED (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+'))
                       AS term
              FROM documents
            ),
            tfs AS MATERIALIZED (
              SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
              FROM toks GROUP BY 1, 2
            ),
            dfs AS (
              SELECT term, CAST(COUNT(*) AS BIGINT) AS df
              FROM tfs GROUP BY 1
            ),
            nd AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM documents),
            scored AS (
              SELECT t.doc_id, t.term, t.tf,
                     CAST(FLOOR(
                       (CAST(t.tf AS DOUBLE)
                        * ln(CAST(nd.n AS DOUBLE) / d.df))
                       * 1000000.0) AS BIGINT) AS score_micro
              FROM tfs t JOIN dfs d USING (term) CROSS JOIN nd
            )
            SELECT doc_id, term, tf, score_micro FROM (
              SELECT *, ROW_NUMBER() OVER (
                PARTITION BY doc_id
                ORDER BY score_micro DESC, term ASC) AS rn
              FROM scored
            ) WHERE rn <= 3
            ORDER BY doc_id, score_micro DESC, term
        """,
        "unigram_lm": """
            -- add-one-smoothed corpus unigram LM; per-token
            -- floor(ln(p)*1e6) micro-units summed as BIGINT (order-free,
            -- libm ln contract shared with the BM25 idf oracle)
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+'))
                       AS term
              FROM documents
            ),
            model AS (
              SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term
            ),
            tot AS (
              SELECT CAST(SUM(ctf) AS BIGINT) AS t,
                     CAST(LEAST(1000, COUNT(*)) AS BIGINT) AS v
              FROM model
            ),
            topv AS (
              -- capped vocabulary: top-V by (ctf desc, term asc); OOV
              -- terms score via COALESCE(ctf, 0) — same add-one formula
              SELECT term, ctf FROM model
              ORDER BY ctf DESC, term ASC LIMIT 1000
            ),
            scored AS (
              SELECT tk.doc_id,
                     CAST(FLOOR(ln((COALESCE(m.ctf, 0) + 1.0)
                                   / (tot.t + tot.v + 1))
                                * 1000000.0) AS BIGINT) AS micro
              FROM toks tk LEFT JOIN topv m USING (term) CROSS JOIN tot
            )
            SELECT d.doc_id,
                   CAST(COALESCE(cnt.n, 0) AS BIGINT) AS n_tokens,
                   CAST(COALESCE(s.total, 0) AS BIGINT) AS lm_score_micro
            FROM documents d
            LEFT JOIN (SELECT doc_id, COUNT(*) AS n FROM toks
                       GROUP BY doc_id) cnt USING (doc_id)
            LEFT JOIN (SELECT doc_id, SUM(micro) AS total FROM scored
                       GROUP BY doc_id) s USING (doc_id)
            ORDER BY d.doc_id
        """,
        "asof_attribution": """
            -- backward as-of join; the LATERAL's ORDER BY is the engine's
            -- deterministic tie rule (max ts, then max event_id)
            WITH l AS MATERIALIZED (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase'
            ),
            r AS MATERIALIZED (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type IN ('click', 'view')
            )
            SELECT l.event_id, l.user_id,
                   CAST(COALESCE(m.event_id, -1) AS BIGINT) AS attr_event_id,
                   CAST(COALESCE(epoch_us(l.ts) - epoch_us(m.ts), -1)
                        AS BIGINT) AS lag_us
            FROM l
            LEFT JOIN LATERAL (
              SELECT r.event_id, r.ts FROM r
              WHERE r.user_id = l.user_id AND r.ts <= l.ts
              ORDER BY r.ts DESC, r.event_id DESC LIMIT 1
            ) m ON TRUE
            ORDER BY l.event_id
        """,
        "ngram_counts": """
            -- top-50 bigrams, (count desc, ngram asc) tie rule; the
            -- [0-9a-z]+ extract is the frozen simple-tokenizer contract
            WITH t AS (
              SELECT regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            z AS (
              SELECT unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS s
              FROM t WHERE len(l) >= 2
            )
            SELECT s[1] || ' ' || s[2] AS ngram,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM z GROUP BY 1
            ORDER BY cnt DESC, ngram ASC
            LIMIT 50
        """,
        "length_quantiles": """
            -- exact per-lang percentile_disc over the value histogram;
            -- p is CAST to DOUBLE so ceil(p*n) shares the engine's IEEE
            -- double rounding regime (DuckDB parses 0.9 as DECIMAL)
            WITH h AS (
              SELECT lang, n_chars AS value, CAST(COUNT(*) AS BIGINT) AS cnt
              FROM documents GROUP BY 1, 2
            ),
            c AS (
              SELECT lang, value, cnt,
                     SUM(cnt) OVER (
                       PARTITION BY lang ORDER BY value
                       ROWS UNBOUNDED PRECEDING
                     ) AS cum,
                     SUM(cnt) OVER (PARTITION BY lang) AS n
              FROM h
            ),
            p AS (
              SELECT * FROM (VALUES
                ('p25', 0.25), ('p50', 0.5), ('p90', 0.9),
                ('p99', 0.99), ('max', 1.0)) t(lab, pv)
            )
            SELECT c.lang, p.lab AS p, CAST(MIN(c.value) AS BIGINT) AS value
            FROM c JOIN p
              ON CAST(c.cum AS DOUBLE)
                 >= CEIL(CAST(p.pv AS DOUBLE) * CAST(c.n AS DOUBLE))
            GROUP BY c.lang, p.lab
            ORDER BY c.lang, p.lab
        """,
        "cooccurrence_counts": """
            -- top-50 directional skip-gram pairs, window 2, tie rule
            -- (cnt desc, pair asc)
            WITH t AS MATERIALIZED (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            p AS MATERIALIZED (
              SELECT doc_id,
                     unnest(l) AS w,
                     unnest(generate_series(1, len(l))) AS pos
              FROM t
            )
            SELECT a.w || ' ' || b.w AS pair,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM p a
            JOIN p b ON b.doc_id = a.doc_id
                    AND b.pos - a.pos BETWEEN 1 AND 2
            GROUP BY 1
            ORDER BY cnt DESC, pair ASC
            LIMIT 50
        """,
        "pmi_collocations": """
            -- top-30 bigrams by pmi_micro = floor(ln(cab*T*T/(B*ca*cb))
            -- * 1e6); all factors CAST to DOUBLE in the engine's frozen
            -- left-assoc expression order, libm ln contract
            WITH t AS MATERIALIZED (
              SELECT regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            u AS MATERIALIZED (SELECT unnest(l) AS w FROM t),
            uc AS MATERIALIZED (
              SELECT w, CAST(COUNT(*) AS BIGINT) AS c FROM u GROUP BY 1
            ),
            tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS t FROM u),
            z AS MATERIALIZED (
              SELECT unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS s
              FROM t WHERE len(l) >= 2
            ),
            bc AS (
              SELECT s[1] AS w1, s[2] AS w2,
                     CAST(COUNT(*) AS BIGINT) AS cab
              FROM z GROUP BY 1, 2
            ),
            btot AS (SELECT CAST(COUNT(*) AS BIGINT) AS b FROM z)
            SELECT bc.w1 || ' ' || bc.w2 AS ngram,
                   bc.cab,
                   CAST(FLOOR(ln(
                     (CAST(bc.cab AS DOUBLE) * tot.t * tot.t)
                     / (CAST(btot.b AS DOUBLE) * ca.c * cb.c)
                   ) * 1000000.0) AS BIGINT) AS pmi_micro
            FROM bc
            JOIN uc ca ON ca.w = bc.w1
            JOIN uc cb ON cb.w = bc.w2
            CROSS JOIN tot CROSS JOIN btot
            WHERE bc.cab >= 5
            ORDER BY pmi_micro DESC, ngram ASC
            LIMIT 30
        """,
        "value_quantiles": """
            -- percentile_disc over the milli-unit value histogram per
            -- event_type (same IEEE double threshold contract as
            -- length_quantiles)
            WITH h AS (
              SELECT event_type,
                     CAST(FLOOR(CAST(value AS DOUBLE) * 1000.0)
                          AS BIGINT) AS value,
                     CAST(COUNT(*) AS BIGINT) AS cnt
              FROM events GROUP BY 1, 2
            ),
            c AS (
              SELECT event_type, value, cnt,
                     SUM(cnt) OVER (
                       PARTITION BY event_type ORDER BY value
                       ROWS UNBOUNDED PRECEDING
                     ) AS cum,
                     SUM(cnt) OVER (PARTITION BY event_type) AS n
              FROM h
            ),
            p AS (
              SELECT * FROM (VALUES
                ('p50', 0.5), ('p90', 0.9),
                ('p99', 0.99), ('max', 1.0)) t(lab, pv)
            )
            SELECT c.event_type, p.lab AS p,
                   CAST(MIN(c.value) AS BIGINT) AS value
            FROM c JOIN p
              ON CAST(c.cum AS DOUBLE)
                 >= CEIL(CAST(p.pv AS DOUBLE) * CAST(c.n AS DOUBLE))
            GROUP BY c.event_type, p.lab
            ORDER BY c.event_type, p.lab
        """,
        "grouped_topk": """
            -- exact per-key top-k with the frozen (val desc, tie asc) rule
            SELECT doc_id, lang, n_chars FROM (
              SELECT doc_id, lang,
                     CAST(length(text) AS BIGINT) AS n_chars,
                     ROW_NUMBER() OVER (
                       PARTITION BY lang
                       ORDER BY length(text) DESC, doc_id ASC
                     ) AS rn
              FROM documents
            ) WHERE rn <= 3
            ORDER BY lang, n_chars DESC, doc_id
        """,
        "interval_attribution": """
            -- inner 1:N range join; inclusive bounds match the engine's
            -- start <= t <= end contract exactly (us-precision timestamps)
            WITH l AS MATERIALIZED (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type IN ('click', 'view')
            ),
            r AS MATERIALIZED (
              SELECT event_id, user_id, ts FROM events
              WHERE event_type = 'purchase'
            )
            SELECT l.event_id, l.user_id,
                   CAST(r.event_id AS BIGINT) AS iv_event_id
            FROM l
            JOIN r ON l.user_id = r.user_id
               AND l.ts BETWEEN r.ts - INTERVAL 1 HOUR AND r.ts
            ORDER BY l.event_id, iv_event_id
        """,
        "html_extract": """
            -- byte-identity invariant: the oracle hashes the ORIGINAL
            -- text with the same 131 char fold the engine applies to the
            -- EXTRACTED text — equal hashes prove lossless extraction
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_extracted,
                   CASE WHEN text = '' OR text IS NULL THEN 0
                   ELSE list_reduce(list_prepend(CAST(0 AS BIGINT),
                     list_transform(string_split(text, ''),
                                    c -> CAST(unicode(c) AS BIGINT))),
                     (a, c) -> (a * 131 + c) % 2147483647) END
                     AS text_hash
            FROM documents ORDER BY doc_id
        """,
        "knn_join": """
            -- exact two-sided kNN join, (cosine desc, vec_id asc) ranks
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qv FROM embeddings
              WHERE vec_id % 50 = 0
            ),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qv, e.embedding) AS cosine
              FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
              SELECT query_id, vec_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY query_id
                       ORDER BY cosine DESC, vec_id ASC
                     ) AS rank
              FROM scored
            )
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 5 ORDER BY query_id, rank
        """,
        "bloom_blocklist": """
            -- Bloom bit union + membership verdicts, bit positions
            -- (h1 + i*h2) % 2^17 with h1/h2 the frozen 131/137 char
            -- folds; BOOL_AND over the k=4 probes reproduces the engine
            -- exactly, false positives included
            WITH blw AS (
              SELECT DISTINCT
                unnest(regexp_extract_all(lower(text), '[0-9a-z]+')) AS w
              FROM documents WHERE doc_id % 7 = 0
            ),
            f AS (
              SELECT w,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(w, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 131 + c) % 2147483647) AS h1,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(w, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 137 + c) % 2147483647) AS h2
              FROM blw WHERE w <> ''
            ),
            bits AS MATERIALIZED (
              SELECT DISTINCT (h1 + t.i * h2) % 131072 AS bit
              FROM f, range(0, 4) t(i)
            ),
            qw AS (
              SELECT DISTINCT
                unnest(regexp_extract_all(
                  lower(text || ' novelw' || CAST(doc_id AS VARCHAR)),
                  '[0-9a-z]+')) AS w
              FROM documents WHERE doc_id % 11 = 0
            ),
            qf AS (
              SELECT w,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(w, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 131 + c) % 2147483647) AS h1,
                list_reduce(list_prepend(CAST(0 AS BIGINT),
                  list_transform(string_split(w, ''),
                                 c -> CAST(unicode(c) AS BIGINT))),
                  (a, c) -> (a * 137 + c) % 2147483647) AS h2
              FROM qw WHERE w <> ''
            ),
            qb AS (
              SELECT w, (h1 + t.i * h2) % 131072 AS bit
              FROM qf, range(0, 4) t(i)
            )
            SELECT w AS term,
                   CAST(BOOL_AND(bit IN (SELECT bit FROM bits))
                        AS BIGINT) AS in_bloom
            FROM qb GROUP BY w ORDER BY term
        """,
        "left_outer_join": """
            -- LEFT OUTER equi-join; unmatched payload = the typed -1
            -- placeholder (the repo's no-match sentinel contract)
            SELECT d.doc_id, d.n_chars,
                   CAST(COALESCE(e.label, -1) AS BIGINT) AS r_label
            FROM documents d
            LEFT JOIN (SELECT vec_id, label FROM embeddings
                       WHERE vec_id % 3 = 0) e
              ON d.doc_id = e.vec_id
            ORDER BY d.doc_id
        """,
        "canonicalize_urls": """
            -- expected canonical form constructed closed-form from the
            -- planted-noise recipe: lowercased scheme/host, :80 dropped,
            -- utm_/gclid params filtered (id= survives), fragment gone,
            -- trailing slash stripped when it ends the url (d%3=0 & odd)
            SELECT doc_id,
                   'http://example' || CAST(doc_id % 5 AS VARCHAR)
                     || '.com/Path' || CAST(doc_id AS VARCHAR)
                     || CASE WHEN doc_id % 3 <> 0 THEN
                          (CASE WHEN doc_id % 2 = 1 THEN '/' ELSE '' END)
                          || '?id=' || CAST(doc_id AS VARCHAR)
                        ELSE '' END AS url_canon,
                   'example' || CAST(doc_id % 5 AS VARCHAR) || '.com'
                     AS host
            FROM documents ORDER BY doc_id
        """,
        "gopher_filter": f"""
            -- Gopher rule subset, all-integer comparisons: word count in
            -- [50, 100000], mean word length in [3,10] by cross-multiply,
            -- >= 2 stopwords, dup-line frac <= 0.3, dup-3gram frac <= 0.5
            WITH w AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS ws
              FROM documents
            ),
            a AS (
              SELECT doc_id,
                CAST(len(ws) AS BIGINT) AS nw,
                CAST(COALESCE(list_sum(list_transform(ws,
                  x -> length(x))), 0) AS BIGINT) AS swl,
                CAST(COALESCE(list_sum(list_transform(ws,
                  x -> CASE WHEN x IN ({_SQL_STOPLIST}) THEN 1 ELSE 0
                       END)), 0) AS BIGINT) AS nstop,
                CAST(GREATEST(len(ws) - 2, 0) AS BIGINT) AS total3,
                CAST(len(list_distinct(list_transform(
                  generate_series(1, len(ws) - 2),
                  i -> ws[i] || chr(1) || ws[i+1] || chr(1) || ws[i+2]
                ))) AS BIGINT) AS distinct3
              FROM w
            ),
            l AS (
              SELECT doc_id,
                CASE WHEN text = '' THEN 0
                     ELSE CAST(len(string_split(text, chr(10))) AS BIGINT)
                END AS nl,
                CASE WHEN text = '' THEN 0
                     ELSE CAST(len(list_distinct(string_split(text,
                          chr(10)))) AS BIGINT) END AS dl
              FROM documents
            )
            SELECT a.doc_id,
              CAST(a.nw >= 50 AND a.nw <= 100000 AS BIGINT) AS r_words,
              CAST(3 * a.nw <= a.swl AND a.swl <= 10 * a.nw AS BIGINT)
                AS r_mwl,
              CAST(a.nstop >= 2 AS BIGINT) AS r_stop,
              CAST(10 * (l.nl - l.dl) <= 3 * l.nl AS BIGINT) AS r_dupline,
              CAST(CASE WHEN a.total3 > 0
                   THEN 2 * (a.total3 - a.distinct3) <= a.total3
                   ELSE TRUE END AS BIGINT) AS r_dup3,
              CAST((a.nw >= 50 AND a.nw <= 100000)
                   AND (3 * a.nw <= a.swl AND a.swl <= 10 * a.nw)
                   AND a.nstop >= 2
                   AND 10 * (l.nl - l.dl) <= 3 * l.nl
                   AND (a.total3 = 0
                        OR 2 * (a.total3 - a.distinct3) <= a.total3)
                   AS BIGINT) AS keep
            FROM a JOIN l USING (doc_id)
            ORDER BY a.doc_id
        """,
        "pack_sequences": """
            -- packed-pretraining layout: per-bucket (doc_id % 8) token
            -- streams in doc_id order, chunked at 512; offsets are
            -- non-negative so // agrees between engines
            WITH t AS (
              SELECT doc_id, doc_id % 8 AS bucket,
                     len(regexp_extract_all(lower(text), '[0-9a-z]+')) AS n
              FROM documents
            ),
            c AS (
              SELECT doc_id, bucket, n,
                     COALESCE(SUM(n) OVER (
                       PARTITION BY bucket ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ), 0) AS off
              FROM t
            )
            SELECT doc_id, CAST(bucket AS BIGINT) AS bucket,
                   CAST(off AS BIGINT) AS off,
                   CAST(n AS BIGINT) AS n_tokens,
                   CAST(off // 512 AS BIGINT) AS seq_first,
                   CAST(CASE WHEN n = 0 THEN off // 512
                        ELSE (off + n - 1) // 512 END AS BIGINT)
                     AS seq_last
            FROM c ORDER BY doc_id
        """,
        "lm_quality_buckets": """
            -- CCNet tercile bucketing over capped-vocab unigram-LM
            -- scores; score_pt = floor(lm*1000.0/n) in DOUBLE (shared
            -- IEEE regime), thresholds = percentile_disc order stats
            -- over the score histogram with ceil(p*n) in DOUBLE
            WITH toks AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[0-9a-z]+'))
                       AS term
              FROM documents
            ),
            model AS (
              SELECT term, COUNT(*) AS ctf FROM toks GROUP BY term
            ),
            tot AS (
              SELECT CAST(SUM(ctf) AS BIGINT) AS t,
                     CAST(LEAST(1000, COUNT(*)) AS BIGINT) AS v
              FROM model
            ),
            topv AS (
              SELECT term, ctf FROM model
              ORDER BY ctf DESC, term ASC LIMIT 1000
            ),
            scored AS (
              SELECT tk.doc_id,
                     CAST(FLOOR(ln((COALESCE(m.ctf, 0) + 1.0)
                                   / (tot.t + tot.v + 1))
                                * 1000000.0) AS BIGINT) AS micro
              FROM toks tk LEFT JOIN topv m USING (term) CROSS JOIN tot
            ),
            per_doc AS MATERIALIZED (
              SELECT d.doc_id,
                     CAST(COALESCE(c.n, 0) AS BIGINT) AS n_tokens,
                     CAST(COALESCE(s.total, 0) AS BIGINT) AS lm
              FROM documents d
              LEFT JOIN (SELECT doc_id, COUNT(*) AS n FROM toks
                         GROUP BY doc_id) c USING (doc_id)
              LEFT JOIN (SELECT doc_id, SUM(micro) AS total FROM scored
                         GROUP BY doc_id) s USING (doc_id)
            ),
            spt AS MATERIALIZED (
              SELECT doc_id, n_tokens,
                     CASE WHEN n_tokens > 0
                          THEN CAST(FLOOR(CAST(lm AS DOUBLE) * 1000.0
                                          / CAST(n_tokens AS DOUBLE))
                                    AS BIGINT)
                          ELSE 0 END AS score_pt
              FROM per_doc
            ),
            hist AS (
              SELECT score_pt AS val, CAST(COUNT(*) AS BIGINT) AS c
              FROM spt WHERE n_tokens > 0 GROUP BY 1
            ),
            cum AS (
              SELECT val, SUM(c) OVER (ORDER BY val) AS cm,
                     SUM(c) OVER () AS n
              FROM hist
            ),
            q AS (
              SELECT
                MIN(CASE WHEN cm >= CEIL(CAST(0.3333333333333333 AS DOUBLE)
                                         * n) THEN val END) AS q33,
                MIN(CASE WHEN cm >= CEIL(CAST(0.6666666666666666 AS DOUBLE)
                                         * n) THEN val END) AS q67
              FROM cum
            )
            SELECT spt.doc_id, spt.score_pt,
                   CASE WHEN spt.n_tokens = 0 THEN 'empty'
                        WHEN spt.score_pt <= q.q33 THEN 'tail'
                        WHEN spt.score_pt <= q.q67 THEN 'middle'
                        ELSE 'head' END AS bucket
            FROM spt CROSS JOIN q
            ORDER BY spt.doc_id
        """,
        "ngram_contamination": """
            -- exact 5-gram decontamination: distinct (doc, gram) pairs,
            -- benchmark = grams of doc_id % 97 == 0 docs, counts of
            -- distinct grams / distinct contaminated grams per doc
            WITH t AS (
              SELECT doc_id,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents
            ),
            g AS (
              SELECT doc_id,
                     unnest(list_transform(generate_series(1, len(l) - 4),
                       i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2]
                              || ' ' || l[i+3] || ' ' || l[i+4])) AS gram
              FROM t WHERE len(l) >= 5
            ),
            dg AS MATERIALIZED (SELECT DISTINCT doc_id, gram FROM g),
            bench AS MATERIALIZED (
              SELECT DISTINCT gram FROM dg WHERE doc_id % 97 = 0
            ),
            cnt AS (
              SELECT doc_id, COUNT(*) AS n_grams,
                     COUNT(*) FILTER (
                       WHERE gram IN (SELECT gram FROM bench)
                     ) AS n_contaminated
              FROM dg GROUP BY doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(cnt.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(cnt.n_contaminated, 0) AS BIGINT)
                     AS n_contaminated
            FROM documents d LEFT JOIN cnt USING (doc_id)
            ORDER BY d.doc_id
        """,
        "audio_features": """
            -- REAL WAV decode: the engine plants PCM16 with sample[k] =
            -- ((doc_id*7 + k*13) % 4001) - 2000, n = 1200 + id%800, and
            -- the oracle recomputes the integer stats from the formula;
            -- energy_frames counts 1024-sample frames with abs-sum >
            -- 2^20 (range() can't take lateral params in this DuckDB:
            -- cross-join the max extent and filter)
            WITH d AS (
              SELECT doc_id, 1200 + doc_id % 800 AS n FROM documents
            ),
            s AS (
              SELECT d.doc_id, d.n, t.k,
                     ABS(((d.doc_id * 7 + t.k * 13) % 4001) - 2000) AS a
              FROM d, range(0, 2000) t(k)
              WHERE t.k < d.n
            ),
            agg AS (
              SELECT doc_id, MAX(n) AS n, SUM(a) AS sum_abs,
                     MAX(a) AS peak
              FROM s GROUP BY doc_id
            ),
            fr AS (
              SELECT doc_id, k // 1024 AS fi, SUM(a) AS fa
              FROM s WHERE k < (n // 1024) * 1024
              GROUP BY doc_id, k // 1024
            ),
            act AS (
              SELECT doc_id,
                     COUNT(*) FILTER (WHERE fa > 1048576) AS energy_frames
              FROM fr GROUP BY doc_id
            )
            SELECT agg.doc_id,
                   CAST(16000 AS BIGINT) AS sample_rate,
                   CAST(1 AS BIGINT) AS n_channels,
                   CAST(agg.n AS BIGINT) AS n_samples,
                   CAST(agg.sum_abs AS BIGINT) AS sum_abs,
                   CAST(agg.peak AS BIGINT) AS peak,
                   CAST(COALESCE(act.energy_frames, 0) AS BIGINT)
                     AS energy_frames
            FROM agg LEFT JOIN act USING (doc_id)
            ORDER BY agg.doc_id
        """,
        "inspect_postings": f"""
            -- listPostings parity: per-term (df, ctf) + first-3 postings
            -- by url asc (== doc_id asc under the zero-padded url scheme)
            WITH toks AS ({_TOKS}),
            q(term) AS (VALUES ('dup'), ('key'), ('window'), ('batch'),
                               ('data'), ('zzz9nohit')),
            tf AS (
              SELECT term, doc_id, COUNT(*) AS tf FROM toks
              WHERE term IN (SELECT term FROM q)
              GROUP BY term, doc_id
            ),
            st AS (
              SELECT term, CAST(COUNT(*) AS BIGINT) AS df,
                     CAST(SUM(tf) AS BIGINT) AS ctf
              FROM tf GROUP BY term
            ),
            ranked AS (
              SELECT term, doc_id, tf,
                     ROW_NUMBER() OVER (PARTITION BY term
                                        ORDER BY doc_id) AS rn
              FROM tf
            )
            SELECT r.term, st.df, st.ctf, CAST(r.rn AS BIGINT) AS rank,
                   'https://example.org/doc/'
                     || lpad(CAST(r.doc_id AS VARCHAR), 12, '0') AS url,
                   CAST(r.tf AS BIGINT) AS tf
            FROM ranked r JOIN st USING (term)
            WHERE r.rn <= 3
            ORDER BY r.term, r.rn
        """,
        "inspect_termvector": """
            -- listTermVectors parity: per-position body terms for the
            -- first 3 docs; position order via list_zip(l, range(len))
            WITH t AS (
              SELECT doc_id,
                     'https://example.org/doc/'
                       || lpad(CAST(doc_id AS VARCHAR), 12, '0') AS url,
                     regexp_extract_all(lower(text), '[0-9a-z]+') AS l
              FROM documents WHERE doc_id < 3
            ),
            z AS (
              SELECT url, unnest(list_zip(l, range(0, len(l)))) AS s
              FROM t WHERE len(l) > 0
            )
            SELECT url, CAST(s[2] AS BIGINT) AS pos, s[1] AS term
            FROM z ORDER BY url, pos
        """,
        "ltr_ranklib_flow": """
            -- RankLib (write 3:0 for null) vs SVM (omit) feature lines
            -- rebuilt byte-for-byte; the 1-iteration closed-form trained
            -- weights w_i = floor(((0.1 * (0.5 * SUM(d_i))) / n_pairs)
            -- * 1e9) over preference pairs (rel_a > rel_b, same qid) --
            -- integer feature diffs sum float64-exact in any order; the
            -- classify score is a pure-integer dot with the micro weights
            WITH feats AS (
              SELECT doc_id,
                     CAST(doc_id % 5 = 0 AS INTEGER) AS rel,
                     CAST(doc_id % 4 AS VARCHAR) AS qid,
                     'doc' || CAST(doc_id AS VARCHAR) AS extid,
                     CAST(n_chars AS BIGINT) AS f1,
                     CAST(len(regexp_extract_all(lower(text), '[0-9a-z]+'))
                          AS BIGINT) AS f2,
                     CASE WHEN doc_id % 3 = 0 THEN NULL
                          ELSE CAST(length(lower(text))
                                    - length(replace(lower(text), 'e', ''))
                                    AS BIGINT) END AS f3
              FROM documents WHERE doc_id < 60
            ),
            pairs AS (
              SELECT a.f1 - b.f1 AS d1,
                     a.f2 - b.f2 AS d2,
                     COALESCE(a.f3, 0) - COALESCE(b.f3, 0) AS d3
              FROM feats a JOIN feats b
                ON a.qid = b.qid AND a.rel > b.rel
            ),
            w AS (
              SELECT
                CAST(FLOOR(((0.1 * (0.5 * SUM(d1))) / COUNT(*))
                           * 1000000000.0) AS BIGINT) AS w1,
                CAST(FLOOR(((0.1 * (0.5 * SUM(d2))) / COUNT(*))
                           * 1000000000.0) AS BIGINT) AS w2,
                CAST(FLOOR(((0.1 * (0.5 * SUM(d3))) / COUNT(*))
                           * 1000000000.0) AS BIGINT) AS w3
              FROM pairs
            )
            SELECT f.qid, f.extid, CAST(f.rel AS BIGINT) AS rel,
                   CAST(f.rel AS VARCHAR) || ' qid:' || f.qid || ' '
                     || '1:' || CAST(f.f1 AS VARCHAR) || '.0 '
                     || '2:' || CAST(f.f2 AS VARCHAR) || '.0 '
                     || '3:' || (CASE WHEN f.f3 IS NULL THEN '0'
                                 ELSE CAST(f.f3 AS VARCHAR) || '.0' END)
                     || ' # ' || f.extid AS ranklib_line,
                   CAST(f.rel AS VARCHAR) || ' qid:' || f.qid || ' '
                     || '1:' || CAST(f.f1 AS VARCHAR) || '.0 '
                     || '2:' || CAST(f.f2 AS VARCHAR) || '.0 '
                     || (CASE WHEN f.f3 IS NULL THEN ''
                         ELSE '3:' || CAST(f.f3 AS VARCHAR) || '.0 ' END)
                     || '# ' || f.extid AS svm_line,
                   CAST(f.f1 * w.w1 + f.f2 * w.w2
                        + COALESCE(f.f3, 0) * w.w3 AS BIGINT) AS score_m
            FROM feats f CROSS JOIN w
            ORDER BY f.qid, f.extid
        """,
        "image_decode_real": """
            -- REAL PNG pixel decode: the engine plants pixel[k] =
            -- (doc_id*31 + k) % 256 at dims (8+id%5, 8+id%7), encodes to
            -- PNG, and decodes with the pure-numpy codec; the oracle
            -- recomputes the pixel statistics straight from the formula —
            -- a match proves the codec recovered the exact bytes
            WITH d AS (
              SELECT doc_id,
                     8 + doc_id % 5 AS w,
                     8 + doc_id % 7 AS h
              FROM documents
            ),
            px AS (
              SELECT d.doc_id, d.w, d.h,
                     SUM((d.doc_id * 31 + t.k) % 256) AS pix_sum,
                     SUM(CASE WHEN t.k % 3 = 0
                              THEN (d.doc_id * 31 + t.k) % 256
                              ELSE 0 END) AS sum_c0,
                     MIN((d.doc_id * 31 + t.k) % 256) AS pmin,
                     MAX((d.doc_id * 31 + t.k) % 256) AS pmax
              -- this DuckDB's range() can't take lateral column params:
              -- cross-join the max extent (12*14*3 = 504) and filter
              FROM d, range(0, 504) t(k)
              WHERE t.k < d.w * d.h * 3
              GROUP BY d.doc_id, d.w, d.h
            )
            SELECT doc_id,
                   CAST(w AS BIGINT) AS width,
                   CAST(h AS BIGINT) AS height,
                   CAST(3 AS BIGINT) AS channels,
                   CAST(pix_sum AS BIGINT) AS pix_sum,
                   CAST(sum_c0 AS BIGINT) AS sum_c0,
                   CAST(pmin AS BIGINT) AS pmin,
                   CAST(pmax AS BIGINT) AS pmax
            FROM px ORDER BY doc_id
        """,
        "image_resize_real": """
            -- REAL decode + nearest-neighbor resize of constant-color
            -- planted PNGs: the resized buffer is chr(c) repeated
            -- out_w*out_h*3 times (c = 32+id%95 is single-byte UTF-8),
            -- so sha256 over it IS the engine's pixel-buffer hash
            WITH d AS (
              SELECT doc_id,
                     50 + (doc_id % 7) * 10 AS w,
                     50 + (doc_id % 5) * 15 AS ht,
                     32 + doc_id % 95 AS c
              FROM documents
            ),
            r AS (
              SELECT doc_id, c,
                CASE WHEN GREATEST(w, ht) <= 64 THEN w
                     WHEN w >= ht THEN 64
                     ELSE (w * 64) // ht END AS out_w,
                CASE WHEN GREATEST(w, ht) <= 64 THEN ht
                     WHEN w >= ht THEN (ht * 64) // w
                     ELSE 64 END AS out_h
              FROM d
            )
            SELECT doc_id,
                   CAST(out_w AS BIGINT) AS out_w,
                   CAST(out_h AS BIGINT) AS out_h,
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(
                         string_split(substr(sha256(
                           repeat(chr(CAST(c AS INTEGER)),
                                  out_w * out_h * 3)), 1, 15), ''),
                         x -> CAST(instr('0123456789abcdef', x) - 1
                                   AS BIGINT))),
                     (a, x) -> a * 16 + x) AS resized_hash
            FROM r ORDER BY doc_id
        """,
        "frame_sample_real": """
            -- REAL AVI decode: sampled frame i of doc d is a solid-color
            -- RGB buffer chr(32 + (d*7 + i*13) % 95) repeated w*ht*3
            -- times (single-byte UTF-8), so sha256 over the rebuilt
            -- buffer IS the engine's decoded-pixel hash
            WITH d AS (
              SELECT doc_id,
                     8 + doc_id % 5 AS w,
                     8 + doc_id % 7 AS ht,
                     1 + doc_id % 12 AS n_frames
              FROM documents
            ),
            f AS (
              SELECT doc_id, w, ht,
                     unnest(generate_series(0, n_frames - 1, 3))
                       AS frame_idx
              FROM d
            )
            SELECT doc_id, CAST(frame_idx AS BIGINT) AS frame_idx,
                   list_reduce(
                     list_prepend(CAST(0 AS BIGINT),
                       list_transform(
                         string_split(substr(sha256(
                           repeat(chr(CAST(32 + (doc_id*7 + frame_idx*13) % 95
                                           AS INTEGER)),
                                  w * ht * 3)), 1, 15), ''),
                         x -> CAST(instr('0123456789abcdef', x) - 1
                                   AS BIGINT))),
                     (a, x) -> a * 16 + x) AS frame_hash
            FROM f ORDER BY doc_id, frame_idx
        """,
        "ann_topk": """
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qv FROM embeddings
              ORDER BY vec_id LIMIT 3
            ),
            scored AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qv, e.embedding) AS cosine
              FROM q CROSS JOIN embeddings e
            ),
            ranked AS (
              SELECT query_id, vec_id,
                     ROW_NUMBER() OVER (
                       PARTITION BY query_id ORDER BY cosine DESC, vec_id ASC
                     ) AS rank
              FROM scored
            )
            SELECT CAST(query_id AS BIGINT) AS query_id,
                   CAST(vec_id AS BIGINT) AS vec_id,
                   CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 10 ORDER BY query_id, rank
        """,
    }
