"""Command-line entry points.

``python -m searchengines_ray.cli <cmd>``:

- ``build --pages <parquet> --out <index_dir> [--dedup] [--forward]
  [--simple] [--docs-per-segment N]`` — SPIMI index build.
- ``run --param <file> --index <dir>`` — execute a reference-style param
  file (Flow A/B/C: retrieval, PRF, LTR, diversity) -> trec output
  (the ``QryEval.main`` analog, ``/root/reference/QryEval/QryEval.java:45-92``).
- ``search --index <dir> --query "text" [--model bm25|indri] [--k N]``
  — ad-hoc query.
- ``inspect --index <dir> [--term t [--field f]] [--doc url]`` — index
  inspector (the ``InspectIndex`` analog,
  ``/root/reference/QryEval/InspectIndex.java:20-668``).

These own their Ray session (guarded init); library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


_OWNS_RAY = False


def _ensure_ray():
    import ray

    global _OWNS_RAY
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
        _OWNS_RAY = True


def cmd_build(args) -> None:
    _ensure_ray()
    from .analysis import DEFAULT_ANALYZER, SIMPLE_ANALYZER
    from .index.build import build_index

    pages = args.pages
    import pyarrow.dataset as pads

    names = pads.dataset(pages).schema.names
    if "url" not in names and "doc_id" in names:
        # documents-shaped input (doc_id, text): derive the pages shape
        # (synthetic deterministic urls — sources/pages.py contract)
        import os

        from .sources.pages import pages_from_documents

        pages = pages_from_documents(os.path.dirname(os.path.abspath(pages)))

    stats = build_index(
        pages,
        args.out,
        config=SIMPLE_ANALYZER if args.simple else DEFAULT_ANALYZER,
        docs_per_segment=args.docs_per_segment,
        dedup=args.dedup,
        keep_forward=args.forward,
    )
    print(
        json.dumps(
            {
                "n_docs": stats["n_docs"],
                "n_postings": stats["n_postings"],
                "segments": stats["n_segments"],
            }
        )
    )


def cmd_run(args) -> None:
    _ensure_ray()
    from .pipelines.retrieval import run_param_file
    from .query.engine import SearchEngine

    eng = SearchEngine(args.index, num_searchers=args.searchers)
    out = run_param_file(args.param, eng)
    print(out)


def cmd_search(args) -> None:
    _ensure_ray()
    from .models import BM25, Indri, RankedBoolean, UnrankedBoolean
    from .query.engine import SearchEngine

    model = {
        "bm25": BM25(),
        "indri": Indri(),
        "rankedboolean": RankedBoolean(),
        "unrankedboolean": UnrankedBoolean(),
    }[args.model]
    eng = SearchEngine(args.index, num_searchers=args.searchers)
    res = eng.search_batch([("q", args.query)], model, k=args.k)
    for r in res.itertuples():
        print(f"{r.rank}\t{r.url}\t{r.score!r}")


def cmd_inspect(args) -> None:
    """Index inspector (``InspectIndex.java:20-668`` analog): stats
    (-list-stats), per-term postings (-list-postings), doc metadata
    (-list-doc/-list-metadata), docid listing (-list-docids, external<->
    internal id maps), field listing (-list-fields), per-field vocabulary
    (-list-terms), and per-doc term-vector dumps (-list-termvector[-field],
    forward index required — build with --forward)."""
    from .index.shard import load_stats, segment_dirs, Segment

    stats = load_stats(args.index)
    if args.list == "fields":
        from .analysis import FIELDS

        for f in FIELDS:
            print(f)
        return
    if args.list == "docids":
        for d in segment_dirs(args.index):
            seg = Segment(d)
            for doc_id, u in zip(seg.doc_ids.tolist(), seg.urls.to_pylist()):
                print(f"{doc_id}\t{u}")
        return
    if args.list == "terms":
        # listTermDictionary parity (InspectIndex.java:526-566): term,
        # df, totalTf — aggregated across segments
        from .index.inspect import term_dictionary

        for r in term_dictionary(
            args.index, args.field or "body"
        ).itertuples():
            print(f"{r.term}\tdf={r.df}\tctf={r.ctf}")
        return
    if args.termvector:
        want = args.termvector
        found = False
        for d in segment_dirs(args.index):
            seg = Segment(d)
            urls = seg.urls.to_pylist()
            hits = [
                i
                for i, u in enumerate(urls)
                if u == want or str(int(seg.doc_ids[i])) == want
            ]
            for i in hits:
                found = True
                doc_id = int(seg.doc_ids[i])
                for _, ff, ts in seg.term_vectors([doc_id], args.field or None):
                    print(f"# {urls[i]} field={ff} len={len(ts)}")
                    for pos, t in enumerate(ts):
                        print(f"{pos}\t{t if t else '<stopword>'}")
        if not found:
            print(
                "no term vector found (document missing, or index built "
                "without --forward)",
                file=sys.stderr,
            )
            sys.exit(1)
        return
    if args.term:
        field = args.field or "body"
        total_df = total_ctf = 0
        for d in segment_dirs(args.index):
            seg = Segment(d)
            df, ctf = seg.local_stats([(field, args.term)])
            total_df += int(df[0])
            total_ctf += int(ctf[0])
            if args.postings and df[0]:
                pl = seg.postings(field, args.term)
                urls = seg.urls.take(pl.docs).to_pylist()
                for i in range(len(pl.docs)):
                    print(
                        f"{seg.name}\t{urls[i]}\t"
                        f"tf={pl.tfs[i]}\tpos={pl.pos_of(i).tolist()}"
                    )
        print(f"{field}:{args.term}\tdf={total_df}\tctf={total_ctf}")
        return
    if args.doc:
        for d in segment_dirs(args.index):
            seg = Segment(d)
            hits = [
                i for i, u in enumerate(seg.urls.to_pylist()) if u == args.doc
            ]
            for i in hits:
                lens = {f: int(seg.doclen[f][i]) for f in seg.doclen}
                print(
                    json.dumps(
                        {
                            "segment": seg.name,
                            "doc_id": int(seg.doc_ids[i]),
                            "url": args.doc,
                            "field_lengths": lens,
                        }
                    )
                )
        return
    print(
        json.dumps(
            {
                "n_docs": stats["n_docs"],
                "n_postings": stats["n_postings"],
                "segments": stats["n_segments"],
                "doc_count": stats["doc_count"],
                "sum_field_len": stats["sum_field_len"],
                "analyzer": stats["analyzer"],
            },
            indent=1,
        )
    )


def cmd_delete(args) -> None:
    import os

    import pyarrow.parquet as pq

    from .index.compact import delete_docs
    from .index.shard import segment_dirs

    ids = []
    if args.doc_ids:
        ids.extend(int(x) for x in args.doc_ids.split(","))
    if args.urls:
        # resolve through the index's own docmeta (authoritative url ->
        # docid map — ids may be caller-assigned, not url hashes); a
        # pruned two-column scan, bounded work for an offline admin op
        want = set(args.urls.split(","))
        for d in segment_dirs(args.index):
            dm = pq.read_table(
                os.path.join(d, "docmeta.parquet"),
                columns=["doc_id", "url"],
            )
            for did, u in zip(
                dm.column("doc_id").to_pylist(), dm.column("url").to_pylist()
            ):
                if u in want:
                    ids.append(int(did))
                    want.discard(u)
            if not want:
                break
        if want:
            raise SystemExit(f"urls not in index: {sorted(want)}")
    n = delete_docs(args.index, ids)
    print(json.dumps({"tombstoned": n}))


def cmd_purge(args) -> None:
    _ensure_ray()
    from .index.compact import purge_deleted

    stats = purge_deleted(args.index)
    print(
        json.dumps(
            {"n_docs": stats["n_docs"], "n_segments": stats["n_segments"]}
        )
    )


def main(argv=None) -> None:
    p = argparse.ArgumentParser(prog="searchengines_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("--pages", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--dedup", action="store_true")
    b.add_argument("--forward", action="store_true")
    b.add_argument("--simple", action="store_true")
    b.add_argument("--docs-per-segment", type=int, default=2000)
    b.set_defaults(fn=cmd_build)

    r = sub.add_parser("run")
    r.add_argument("--param", required=True)
    r.add_argument("--index", required=True)
    r.add_argument("--searchers", type=int, default=0)
    r.set_defaults(fn=cmd_run)

    s = sub.add_parser("search")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True)
    s.add_argument("--model", default="bm25")
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--searchers", type=int, default=0)
    s.set_defaults(fn=cmd_search)

    i = sub.add_parser("inspect")
    i.add_argument("--index", required=True)
    i.add_argument("--term")
    i.add_argument("--field")
    i.add_argument("--doc")
    i.add_argument("--termvector", help="url or internal doc_id")
    i.add_argument(
        "--list", choices=["docids", "fields", "terms"], default=None
    )
    i.add_argument("--postings", action="store_true")
    i.set_defaults(fn=cmd_inspect)

    d = sub.add_parser(
        "delete", help="tombstone docs (results exclude them immediately; "
        "stats keep pre-delete values until purge)"
    )
    d.add_argument("--index", required=True)
    d.add_argument("--doc-ids", help="comma-separated global doc ids")
    d.add_argument(
        "--urls",
        help="comma-separated urls, resolved to doc ids through the "
        "index's own docmeta (ids may be caller-assigned)",
    )
    d.set_defaults(fn=cmd_delete)

    g = sub.add_parser(
        "purge", help="rewrite segments without tombstoned docs and "
        "recompute global stats (post-purge == fresh build over survivors)"
    )
    g.add_argument("--index", required=True)
    g.set_defaults(fn=cmd_purge)

    args = p.parse_args(argv)
    args.fn(args)
    # only tear down a session this CLI created (callers/tests own theirs)
    if _OWNS_RAY:
        import ray

        ray.shutdown()


if __name__ == "__main__":
    main()
