"""A searcher evaluates each query once over its segments read as one
index (``SegmentSet``), and decodes a list's positions only when an
operator reads them.

The index has 4 segments, served by 2 searchers of 2 segments each (the
engine's round-robin).  Results must equal the oracle's and the
per-segment evaluation that a searcher ran before, bit for bit, for a
term one segment holds, tombstones in one segment, positional operators
matching in both segments of a searcher, Indri no-match defaults read
across a segment boundary, and ties at the k-th score split over two
segments of a searcher."""

import numpy as np
import pyarrow as pa
import pytest

from searchengines_ray.cli import main
from searchengines_ray.index import encode
from searchengines_ray.index.build import build_index, doc_id_from_url
from searchengines_ray.index.compact import delete_docs
from searchengines_ray.index.shard import (
    Segment,
    SegmentSet,
    load_tombstones,
    read_parquet,
    segment_dirs,
)
from searchengines_ray.models import BM25, Indri, RankedBoolean
from searchengines_ray.oracle import OracleIndex, run_query
from searchengines_ray.parser import parse_query
from searchengines_ray.query.engine import LocalSearcher, SearchEngine
from searchengines_ray.query.exec import eval_sop, segment_topk, topk_set
from searchengines_ray.sources.pages import synth_pages

PER_SEGMENT = 16
K = 4

QUERIES = [
    "tieword",  # 3 tied docs a segment: the k-th score is a tie
    "solitary",  # one segment holds it
    "alpha beta w0001",
    "#SYN(alpha gamma)",
    "#NEAR/2(alpha beta)",
    "#WINDOW/3(beta alpha)",
    "#SUM(#NEAR/1(alpha beta) tieword)",
    "#AND(alpha solitary)",  # Indri: a no-match default in every segment
    "#OR(solitary w0002)",
    "#WSUM(0.3 w0003 0.7 gamma)",
    "zzzznohit",
]
MODELS = [BM25(), Indri(mu=300.0, lam=0.4), RankedBoolean()]


def _corpus_rows() -> list:
    """4 segments' (url, text) rows: in each, 3 docs with identical text
    whose urls interleave with the other segments' tied docs, positional
    matches and synthetic filler; one segment holds ``solitary``."""
    synth = synth_pages(n=64, seed=7, vocab=40, dup_frac=0.0)
    filler = list(
        zip(synth.column("url").to_pylist(), synth.column("text").to_pylist())
    )
    rows = []
    for b in range(4):
        batch = [
            (f"https://tie.test/{j * 4 + b:04d}", "tieword common words")
            for j in range(3)
        ]
        batch += [
            (f"https://pos.test/{b}/a", f"alpha beta gamma w000{b}"),
            (f"https://pos.test/{b}/b", "beta x alpha y gamma alpha"),
            (f"https://pos.test/{b}/c", "gamma delta w0001"),
        ]
        if b == 0:
            batch.append(("https://solo.test/0", "solitary alpha word"))
        take = PER_SEGMENT - len(batch)
        batch += filler[:take]
        filler = filler[take:]
        rows += batch
    return rows


@pytest.fixture(scope="module")
def index(tmp_path_factory, ray_session):
    import ray.data

    rows = _corpus_rows()
    out = str(tmp_path_factory.mktemp("segset"))
    build_index(
        ray.data.from_arrow(
            pa.table(
                {"url": [u for u, _ in rows], "text": [t for _, t in rows]}
            )
        ),
        out,
        docs_per_segment=PER_SEGMENT,
    )
    dirs = segment_dirs(out)
    assert len(dirs) == 4
    # tombstones in one segment only: one tied doc and one positional match
    seg = Segment(dirs[0])
    urls = seg.urls.to_pylist()
    victims = [
        next(u for u in urls if u.startswith("https://tie.test/")),
        next(u for u in urls if u.startswith("https://pos.test/")),
    ]
    delete_docs(out, [doc_id_from_url(u) for u in victims])
    oracle = OracleIndex.build(
        [
            {"doc_id": doc_id_from_url(u), "url": u, "body": t}
            for u, t in rows
        ]
    )
    return out, oracle


def _shards(out: str) -> list:
    """The engine's round-robin assignment of segments to 2 searchers."""
    dirs = segment_dirs(out)
    return [dirs[0::2], dirs[1::2]]


def _want(oracle, dead: set, q: str, model, k) -> list:
    """The oracle's ranking with tombstoned docs filtered, then truncated
    (deletes filter results; statistics keep the deleted docs)."""
    rows = [r for r in run_query(oracle, q, model, k=None) if r[0] not in dead]
    return rows if k is None else rows[:k]


def _per_segment(local: LocalSearcher, trees, g, model, k) -> list:
    """What a searcher returned when it evaluated each query once per
    segment: each segment's top-k, then a top-k over their union."""
    tomb = load_tombstones(local.index_dir)
    sets = [SegmentSet([seg], tomb) for seg in local.segments]
    out = []
    for tree in trees:
        rows, scores = [np.empty(0, np.int64)], [np.empty(0)]
        for one, base in zip(sets, local.reader.base):
            ev = eval_sop(tree, one, g, model, {})
            d, sc = segment_topk(
                ev, one, k, local._url_rank[base : base + one.n_docs]
            )
            rows.append(d + base)
            scores.append(sc)
        d, sc = topk_set(
            np.concatenate(rows), np.concatenate(scores), k, local._url_rank
        )
        out.append(sorted(zip(local.reader.doc_ids[d].tolist(), sc.tolist())))
    return out


def _by_query(hits) -> list:
    ends = np.cumsum(hits.counts).tolist()
    starts = [0] + ends[:-1]
    return [
        sorted(zip(hits.doc_id[a:b].tolist(), hits.score[a:b].tolist()))
        for a, b in zip(starts, ends)
    ]


def test_fixture_covers_the_cases(index):
    """Each searcher holds tied docs in both of its segments, more of them
    than k, and a tombstone sits in one segment only."""
    out, _ = index
    tomb = load_tombstones(out)
    assert len(tomb) == 2
    dead_in = [
        int(np.isin(Segment(d).doc_ids, tomb).sum()) for d in segment_dirs(out)
    ]
    assert sorted(dead_in) == [0, 0, 0, 2]
    solo = [
        Segment(d).row_of([("body", "solitary")])[0] >= 0
        for d in segment_dirs(out)
    ]
    assert sum(solo) == 1
    for shard in _shards(out):
        local = LocalSearcher(out, shard)
        trees = [parse_query("tieword", "or")]
        g = SearchEngine(out).global_stats_for(trees)
        hits = local.search_trees(trees, g, BM25(), K)
        assert hits.counts.tolist() == [K]
        assert len(set(hits.score.tolist())) == 1  # all tied
        seg_of = np.searchsorted(
            local.reader.base,
            np.flatnonzero(np.isin(local.reader.doc_ids, hits.doc_id)),
            side="right",
        )
        assert set(seg_of.tolist()) == {1, 2}  # both segments


@pytest.mark.parametrize("k", [K, None])
@pytest.mark.parametrize("model_i", range(len(MODELS)))
def test_search_trees_equals_per_segment_evaluation(index, model_i, k):
    out, _ = index
    model = MODELS[model_i]
    trees = [parse_query(q, model.default_op) for q in QUERIES]
    g = SearchEngine(out).global_stats_for(trees)
    for shard in [segment_dirs(out)] + _shards(out):
        local = LocalSearcher(out, shard)
        got = _by_query(local.search_trees(trees, g, model, k, token="t"))
        assert got == _per_segment(local, trees, g, model, k)


@pytest.mark.parametrize("num_searchers", [0, 2])
def test_engine_matches_oracle(index, num_searchers):
    out, oracle = index
    dead = set(load_tombstones(out).tolist())
    eng = SearchEngine(out, num_searchers=num_searchers)
    assert len(eng._conns) == num_searchers
    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    for model in MODELS:
        for k in (K, None):
            res = eng.search_batch(qs, model, k=k)
            for i, q in enumerate(QUERIES):
                got = res[res.qid == str(i)]
                rows = list(
                    zip(
                        got.doc_id.tolist(),
                        got.url.tolist(),
                        got.score.tolist(),
                    )
                )
                assert rows == _want(oracle, dead, q, model, k), (model, q, k)


def test_searcher_without_segments(index):
    out, _ = index
    local = LocalSearcher(out, [])
    trees = [parse_query(q, "or") for q in QUERIES] + [None]
    g = SearchEngine(out).global_stats_for(trees)
    for model in MODELS:
        hits = local.search_trees(trees, g, model, K)
        assert hits.counts.tolist() == [0] * len(trees)
        assert hits.counts.dtype == hits.doc_id.dtype == np.int64
        assert hits.score.dtype == np.float64
        assert hits.url.type == pa.string() and len(hits.url) == 0
    stats = local.iop_stats_partial(trees, "t")
    assert stats and set(stats.values()) == {(0, 0)}


def _count_position_decodes(monkeypatch) -> list:
    """Every positions decode (the one int32 decode) as (address, bytes)
    of the encoded row it read."""
    seen = []
    decode = encode._decode_blocks

    def spy(buf, delta, dtype=np.uint64):
        if dtype is np.int32:
            seen.append((np.asarray(buf).ctypes.data, len(buf)))
        return decode(buf, delta, dtype)

    monkeypatch.setattr(encode, "_decode_blocks", spy)
    return seen


def test_positions_decode_only_when_read(index, monkeypatch):
    out, _ = index
    seen = _count_position_decodes(monkeypatch)
    bag = ["alpha beta", "tieword w0001", "#AND(alpha solitary)",
           "#WSUM(0.3 w0003 0.7 gamma)"]
    for model in (BM25(), Indri()):
        eng = SearchEngine(out)
        eng.search_batch([(q, q) for q in bag], model, k=K)
    assert seen == []

    near = ["#NEAR/2(alpha beta)", "#SUM(#NEAR/2(alpha beta) tieword)"]
    eng = SearchEngine(out)
    res = eng.search_batch([(q, q) for q in near], BM25(), k=K)
    assert len(res) > 0
    held = sum(
        int(r >= 0)
        for d in segment_dirs(out)
        for r in Segment(d).row_of([("body", "alpha"), ("body", "beta")])
    )
    # the stats pass and the scoring pass both read them: once each
    assert len(seen) == held and len(set(seen)) == held


def test_inspect_postings_output(index, capsys):
    """``inspect --term --postings`` prints each holding segment's
    postings, positions included, as decoded by the public codec."""
    out, _ = index
    main(["inspect", "--index", out, "--term", "alpha", "--postings"])
    got = capsys.readouterr().out
    want, df, ctf = [], 0, 0
    for d in segment_dirs(out):
        seg = Segment(d)
        row = int(seg.row_of([("body", "alpha")])[0])
        if row < 0:
            continue
        t = read_parquet(f"{d}/postings.parquet", ["docs", "tfs", "positions"])
        docs = encode.decode_doc_ids(t.column("docs")[row].as_py())
        tfs = encode.decode_values(t.column("tfs")[row].as_py())
        pos = encode.decode_values(t.column("positions")[row].as_py())
        urls = seg.urls.to_pylist()
        at = 0
        for doc, tf in zip(docs.tolist(), tfs.tolist()):
            want.append(
                f"{seg.name}\t{urls[doc]}\ttf={tf}\t"
                f"pos={pos[at : at + tf].tolist()}"
            )
            at += tf
        df += len(docs)
        ctf += int(tfs.sum())
    want.append(f"body:alpha\tdf={df}\tctf={ctf}")
    assert got == "\n".join(want) + "\n"


def test_syn_decodes_positions_only_when_read(index, monkeypatch):
    """A #SYN's docs and tfs come from its arguments' docs and tfs; its
    positions are merged only when a #NEAR or #WINDOW reads them."""
    out, oracle = index
    seen = _count_position_decodes(monkeypatch)
    syn = ["#SYN(alpha beta)", "#SUM(#SYN(alpha gamma) tieword)"]
    for model in (BM25(), Indri()):
        SearchEngine(out).search_batch([(q, q) for q in syn], model, k=K)
    assert seen == []

    dead = set(load_tombstones(out).tolist())
    nested = [
        "#SYN(alpha beta)",
        "#NEAR/2(#SYN(alpha gamma) beta)",
        "#WINDOW/3(beta #SYN(gamma alpha))",
        "#SYN(#NEAR/1(alpha beta) gamma)",
    ]
    res = SearchEngine(out).search_batch(
        [(str(i), q) for i, q in enumerate(nested)], BM25(), k=None
    )
    for i, q in enumerate(nested):
        got = res[res.qid == str(i)]
        rows = list(zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist()))
        assert rows and rows == _want(oracle, dead, q, BM25(), None), q
    assert seen  # the positional operators read their arguments' positions
