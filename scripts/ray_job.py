"""Cluster job entrypoint — the `ray job submit` surface of the engine.

On a real cluster::

    ray job submit --working-dir . -- python scripts/ray_job.py \
        --pages s3://bucket/pages/*.parquet --out /shared/index \
        --query-file queries.qry --model bm25

In this sandbox the same script runs against the local Ray
(`RAY_ADDRESS=local` is preset).  The script OWNS its Ray session (the
library never calls ray.init — the repo contract); it connects to the
submitting cluster via ``address="auto"`` when one exists.

What it runs end-to-end:
1. SPIMI index build over the pages parquet (streaming, per-segment
   manifests carry lineage + wall metrics; a re-submit after a crash
   resumes from committed segments — ``resumed: true`` in the report).
2. Optional query batch over the fresh index via the actor-pool engine.
3. ONE JSON report line on stdout (the `ray job logs` contract):
   build stats, per-segment resume counts, query wall times.

Two-cluster-size scaling evidence: submit the same job to an N-node and
a 4N-node cluster and compare `docs_per_sec` from the two reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(prog="ray_job")
    p.add_argument("--pages", required=True,
                   help="parquet path/glob of web pages (url, text, ...)")
    p.add_argument("--out", required=True, help="index output directory")
    p.add_argument("--docs-per-segment", type=int, default=50_000,
                   help="serving wants ~50k-doc segments (BASELINE.md)")
    p.add_argument("--dedup", action="store_true",
                   help="url-dedup shuffle before the build")
    p.add_argument("--query-file", default=None,
                   help="qid:querytext lines to run after the build")
    p.add_argument("--model", default="bm25",
                   choices=["bm25", "indri", "rankedboolean"])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--searchers", type=int, default=0,
                   help="query actor pool size (0 = in-process)")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS targets the cluster; when it
        # is unset, pass NO address so ray.init starts a local session
        # (address="auto" raises ConnectionError without a running
        # cluster instead of falling back)
        addr = os.environ.get("RAY_ADDRESS")
        kw = {"address": addr} if addr else {}
        ray.init(include_dashboard=False, ignore_reinit_error=True, **kw)

    import ray.data

    from searchengines_ray.index.build import build_index
    from searchengines_ray.models import BM25, Indri, RankedBoolean
    from searchengines_ray.query.engine import SearchEngine

    report: dict = {"job": "searchengines_ray.build+query"}
    t0 = time.perf_counter()
    pages = ray.data.read_parquet(args.pages)
    names = pages.schema().names
    if "text" not in names and "html" in names:
        # raw-crawl input: extract page text (byte-identity contract)
        from searchengines_ray.sources.pages import extract_pages

        pages = extract_pages(pages)
        report["extracted_from_html"] = True
    # reuse the pre-extraction name list: .schema() on the now-lazy
    # dataset would partially execute it (repo lesson), and extraction
    # never adds a url column
    if "url" not in names:
        # documents-table input (doc_id, text, ...): derive the pages
        # shape the same way the gate does (deterministic url per doc_id)
        import pyarrow as pa

        from searchengines_ray.sources.pages import url_for_doc_id

        def to_pages(batch: "pa.Table") -> "pa.Table":
            ids = batch.column("doc_id").to_pylist()
            return pa.table(
                {
                    "url": pa.array(
                        [url_for_doc_id(d) for d in ids], pa.string()
                    ),
                    "text": batch.column("text"),
                }
            )

        pages = pages.map_batches(to_pages, batch_format="pyarrow")
    stats = build_index(
        pages,
        args.out,
        docs_per_segment=args.docs_per_segment,
        dedup=args.dedup,
    )
    build_s = time.perf_counter() - t0
    report.update(
        n_docs=stats["n_docs"],
        n_postings=stats["n_postings"],
        n_segments=stats["n_segments"],
        build_sec=round(build_s, 3),
        docs_per_sec=round(stats["n_docs"] / max(build_s, 1e-9), 1),
    )
    # lineage: how much of this run was resumed from committed segments
    # (a re-submit of a crashed/identical job skips finished segments)
    report["segments_resumed"] = int(stats.get("n_segments_resumed", 0))

    if args.query_file:
        from searchengines_ray.sources.formats import read_query_file

        queries = read_query_file(args.query_file)
        model = {"bm25": BM25(), "indri": Indri(),
                 "rankedboolean": RankedBoolean()}[args.model]
        t0 = time.perf_counter()
        eng = SearchEngine(args.out, num_searchers=args.searchers)
        res = eng.search_batch(queries, model, k=args.k)
        report["query_sec"] = round(time.perf_counter() - t0, 3)
        report["n_queries"] = len(queries)
        report["n_results"] = int(len(res))

    print(json.dumps(report))
    ray.shutdown()


if __name__ == "__main__":
    main()
