"""The primary correctness gate (SURVEY.md §5.2): the distributed Ray
pipeline must be EXACTLY rank- and score-identical to the single-process
oracle — same docids, same urls, bit-equal float scores, same order under
the (score desc, url asc) tie-break."""

import os
import sys
import threading

import numpy as np
import pyarrow as pa
import pytest

from searchengines_ray.index.build import build_index
from searchengines_ray.models import (
    BM25,
    Indri,
    RankedBoolean,
    UnrankedBoolean,
)
from searchengines_ray.oracle import OracleIndex, run_query
from searchengines_ray.query.engine import SearchEngine
from searchengines_ray.sources.pages import dedup_pages_pandas, synth_pages

QUERIES = [
    "w0001 w0005 w0123",  # bag-of-words BM25 flagship
    "w0002",
    "w0000 w0000 w0017",  # duplicate query term (counts twice in #SUM)
    "#AND(w0003 w0008)",
    "#OR(w0004 w0777)",
    "#SUM(w0009 #AND(w0010 w0011))",
    "#NEAR/1(w0001 w0002)",
    "#NEAR/3(w0005 w0006)",
    "#WINDOW/5(w0007 w0012)",
    "#SYN(w0013 w0014 w0015)",
    "#WAND(0.6 w0016 0.4 w0018)",
    "#WSUM(0.3 w0019 0.7 w0020)",
    "#SUM(#NEAR/2(w0021 w0022) w0023)",
    "#AND(w0024.title w0025)",
    "p.url 000123.url",  # url field
    "the of and",  # all stopwords -> no hits
    "zzzznohit",  # zero-hit
    "#OR(#NEAR/1(w0030 w0031) #WINDOW/4(w0032 w0033))",
    # 3- and 4-arg positional ops: the n-ary batch automata path
    "#NEAR/2(w0000 w0001 w0002)",
    "#NEAR/4(w0003 w0004 w0005 w0006)",
    "#WINDOW/6(w0000 w0002 w0004)",
    "#WINDOW/9(w0001 w0003 w0005 w0007)",
    "#SUM(#NEAR/3(w0008 w0009 w0010) w0011)",
]

MODELS = [
    BM25(),
    BM25(k_1=0.9, b=0.4, k_3=7.0),
    Indri(mu=300.0, lam=0.4),
    Indri(mu=1500.0, lam=0.7),
    RankedBoolean(),
    UnrankedBoolean(),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, ray_session):
    import ray.data

    tbl = synth_pages(n=240, seed=11, vocab=400)
    out = str(tmp_path_factory.mktemp("index"))
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    stats = build_index(
        ds, out, docs_per_segment=40, dedup=True, keep_forward=False
    )
    # oracle over the same deduped rows, same frozen dedup rule
    df = dedup_pages_pandas(tbl)
    docs = [
        {
            "doc_id": __import__(
                "searchengines_ray.index.build", fromlist=["doc_id_from_url"]
            ).doc_id_from_url(r.url),
            "url": r.url,
            "body": r.text,
        }
        for r in df.itertuples()
    ]
    oidx = OracleIndex.build(docs)
    return out, oidx, stats


def test_stats_match(corpus):
    out, oidx, stats = corpus
    assert stats["n_docs"] == oidx.n_docs
    assert stats["doc_count"] == oidx.doc_count
    assert stats["sum_field_len"] == oidx.sum_field_len


@pytest.mark.parametrize("model_i", range(len(MODELS)))
def test_inprocess_engine_matches_oracle(corpus, model_i, monkeypatch):
    from searchengines_ray.query import engine as engine_mod

    out, oidx, _ = corpus
    model = MODELS[model_i]
    # first the whole summed vocabulary, then the dfs phase
    for path in ("full", "dfs"):
        if path == "dfs":
            monkeypatch.setattr(engine_mod, "FULL_TERMSTATS_MAX_POSTINGS", 0)
        eng = SearchEngine(out, num_searchers=0)
        res = eng.search_batch(
            [(str(i), q) for i, q in enumerate(QUERIES)], model, k=15
        )
        assert (eng._termstats is None) == (path == "dfs")
        for i, q in enumerate(QUERIES):
            want = run_query(oidx, q, model, k=15)
            got = res[res.qid == str(i)]
            got_rows = list(
                zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
            )
            assert got_rows == want, (
                f"path={path} model={model.name} query={q!r}\n"
                f" got={got_rows[:5]}\nwant={want[:5]}"
            )


def test_actor_engine_matches_oracle(corpus, ray_session):
    out, oidx, _ = corpus
    model = BM25()
    eng = SearchEngine(out, num_searchers=3)
    res = eng.search_batch([(str(i), q) for i, q in enumerate(QUERIES)], model, k=15)
    for i, q in enumerate(QUERIES):
        want = run_query(oidx, q, model, k=15)
        got = res[res.qid == str(i)]
        got_rows = list(
            zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
        )
        assert got_rows == want, f"query={q!r}"


def test_actor_engine_composite_indri(corpus, ray_session):
    # composite-Iop derived ctf must be summed ACROSS actors before scoring
    out, oidx, _ = corpus
    model = Indri(mu=700.0, lam=0.5)
    eng = SearchEngine(out, num_searchers=3)
    qs = ["#NEAR/2(w0001 w0003)", "#SYN(w0002 w0004)", "#WINDOW/6(w0001 w0005)"]
    res = eng.search_batch([(str(i), q) for i, q in enumerate(qs)], model, k=20)
    for i, q in enumerate(qs):
        want = run_query(oidx, q, model, k=20)
        got = res[res.qid == str(i)]
        got_rows = list(
            zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
        )
        assert got_rows == want, f"query={q!r}"


def test_actor_engine_ties_match_oracle(corpus, ray_session):
    """Boolean scores tie across the whole corpus, so the url tie-break
    decides every boundary: 3 actors over 6 segments must still give the
    oracle's exact ranking at k in {1, 15, None}."""
    out, oidx, stats = corpus
    assert stats["n_segments"] == 6
    eng = SearchEngine(out, num_searchers=3)
    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    for model in (RankedBoolean(), UnrankedBoolean(), BM25()):
        for k in (1, 15, None):
            res = eng.search_batch(qs, model, k=k)
            for i, q in enumerate(QUERIES):
                want = run_query(oidx, q, model, k=k)
                got = res[res.qid == str(i)]
                got_rows = list(
                    zip(
                        got.doc_id.tolist(),
                        got.url.tolist(),
                        got.score.tolist(),
                    )
                )
                assert got_rows == want, f"{model.name} k={k} query={q!r}"
                assert got["rank"].tolist() == list(range(1, len(want) + 1))


RESULT_DTYPES = {
    "qid": "object",
    "doc_id": "int64",
    "url": "object",
    "score": "float64",
    "rank": "int64",
}


@pytest.mark.parametrize("num_searchers", [0, 2])
def test_result_dtypes_when_empty(corpus, ray_session, num_searchers):
    """An empty batch and a batch that matches nothing return the same
    column dtypes as a batch with hits."""
    out, _, _ = corpus
    eng = SearchEngine(out, num_searchers=num_searchers)
    results = [eng.search_batch([("a", "w0001")], BM25(), k=5)]
    assert len(results[0]) == 5
    for batch in ([], [("a", "zzzznohit"), ("b", "the of and")]):
        for k in (5, None):
            results.append(eng.search_batch(batch, BM25(), k=k))
            assert results[-1].empty
    for res in results:
        assert res.dtypes.astype(str).to_dict() == RESULT_DTYPES
        assert list(res.columns) == list(RESULT_DTYPES)


def test_search_trees_returns_columns(corpus):
    """Hits leave a searcher as columns (numpy and Arrow arrays), never as a
    list of per-row tuples, and nothing in the query package sorts rows
    with a per-row key."""
    import inspect

    from searchengines_ray.parser import parse_query
    from searchengines_ray.query import engine, exec as exec_mod
    from searchengines_ray.query.engine import Hits, LocalSearcher

    out, _, _ = corpus
    eng = SearchEngine(out, num_searchers=0)
    local = LocalSearcher(out)
    qs = ["w0001 w0005", "zzzznohit", "#NEAR/1(w0001 w0002)"]
    trees = [parse_query(q, "or") for q in qs] + [None]
    g = eng.global_stats_for(trees)
    hits = local.search_trees(trees, g, BM25(), 10)
    assert isinstance(hits, Hits)
    counts, doc_id, url, score = hits
    assert counts.dtype == np.int64 and len(counts) == len(trees)
    assert counts[1] == counts[3] == 0 and counts[0] == 10
    assert doc_id.dtype == np.int64 and score.dtype == np.float64
    assert isinstance(url, pa.Array) and url.type == pa.string()
    assert len(doc_id) == len(url) == len(score) == counts.sum()
    for mod in (engine, exec_mod):
        assert "key=lambda r: (-r[2], r[1])" not in inspect.getsource(mod)


def _rows_of(res, qid):
    got = res[res.qid == qid]
    return list(
        zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
    )


def test_call_round_trip_matches_direct(corpus):
    """The actor entry point: a pickled ("search_trees", args) request
    through LocalSearcher.call gives back the direct call's Hits, still as
    columns."""
    import pickle

    from searchengines_ray.parser import parse_query
    from searchengines_ray.query.engine import Hits, LocalSearcher

    out, _, _ = corpus
    local = LocalSearcher(out)
    qs = ["w0001 w0005", "#NEAR/1(w0001 w0002)", "zzzznohit"]
    trees = [parse_query(q, "or") for q in qs] + [None]
    args = (trees, SearchEngine(out).global_stats_for(trees), BM25(), 10)
    want = local.search_trees(*args)
    got = pickle.loads(local.call(pickle.dumps(("search_trees", args))))
    assert isinstance(got, Hits)
    assert isinstance(got.url, pa.Array) and got.url.equals(want.url)
    assert got.counts.dtype == got.doc_id.dtype == np.int64
    assert got.score.dtype == np.float64
    for name in ("counts", "doc_id", "score"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# composite queries sharing Iops: one repeats the same #NEAR twice, two
# share one #SYN — each distinct Iop's derived df/ctf counts once
COMPOSITE_BATCH = [
    "#SYN(w0013 w0014 w0015)",
    "#SUM(#SYN(w0013 w0014 w0015) w0001)",
    "#AND(#NEAR/3(w0005 w0006) #NEAR/3(w0005 w0006))",
    "#OR(#NEAR/1(w0030 w0031) #WINDOW/4(w0032 w0033))",
    "w0001 w0005",
]


@pytest.mark.parametrize("pad_bytes", [100 * 1024, 0])
def test_one_pickled_request_per_scatter(
    corpus, ray_session, monkeypatch, pad_bytes
):
    """With 2 actors, each scatter of a composite batch (stats pass, then
    scoring) pickles exactly one request on the driver, and search_batch
    makes no ray.get or ray.put call: requests and replies go over the
    actors' connections. With ``pad_bytes`` set, one more query of that
    many bytes of unmatched terms makes the scoring request larger than
    it, and it still goes out as one pickle over the sockets."""
    import pickle

    import ray

    from searchengines_ray.query import engine as engine_mod

    out, oidx, _ = corpus
    eng = SearchEngine(out, num_searchers=2)
    dumped, sizes, scatters, ray_calls = [], [], [], []

    class CountingPickle:
        loads = staticmethod(pickle.loads)

        @staticmethod
        def dumps(obj, *a, **kw):
            data = pickle.dumps(obj, *a, **kw)
            dumped.append(obj[0])
            sizes.append(len(data))
            return data

    real_scatter = eng._scatter
    monkeypatch.setattr(engine_mod, "pickle", CountingPickle)
    for name in ("get", "put"):
        real = getattr(ray, name)
        monkeypatch.setattr(
            ray,
            name,
            lambda *a, _name=name, _real=real, **kw: ray_calls.append(_name)
            or _real(*a, **kw),
        )
    monkeypatch.setattr(
        eng,
        "_scatter",
        lambda method, *args: scatters.append(method)
        or real_scatter(method, *args),
    )
    queries = list(COMPOSITE_BATCH)
    if pad_bytes:
        queries.append("w0001 " + " ".join(
            f"zz{i:05d}" for i in range(pad_bytes // 8)
        ))
    batch = [(str(i), q) for i, q in enumerate(queries)]
    res = eng.search_batch(batch, BM25(), k=15)
    assert scatters == ["iop_stats_partial", "search_trees"]
    assert dumped == scatters
    assert sizes[1] > pad_bytes
    assert ray_calls == []
    for qid, q in batch:
        assert _rows_of(res, qid) == run_query(oidx, q, BM25(), k=15), q


def _within(seconds, fn, *args):
    """``fn(*args)`` on a daemon thread: its result, or its exception
    re-raised; fails the test when it has not returned within ``seconds``
    (a hung transport must fail, not stall the suite)."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as e:
            box["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"{fn!r} did not return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _assert_oracle_exact(eng, oidx, queries, model, k):
    batch = [(str(i), q) for i, q in enumerate(queries)]
    res = eng.search_batch(batch, model, k=k)
    for qid, q in batch:
        assert _rows_of(res, qid) == run_query(oidx, q, model, k=k), q


def _on_actor(actor, fn):
    import ray

    return ray.get(actor.__ray_call__.remote(fn), timeout=60)


@pytest.mark.parametrize("num_searchers", [0, 2])
def test_searcher_exception_keeps_its_type(corpus, ray_session, num_searchers):
    """An exception raised in a searcher reaches the caller with its own
    type, as it does in-process, and the engine serves on afterwards."""
    out, oidx, _ = corpus
    eng = SearchEngine(out, num_searchers=num_searchers)
    with pytest.raises(AttributeError, match="no_such_method"):
        _within(60, eng._scatter, "no_such_method")
    _within(60, _assert_oracle_exact, eng, oidx, QUERIES[:6], BM25(), 10)


def test_killed_searcher_raises(corpus, ray_session):
    """A searcher killed by Ray turns the next search_batch into an error
    that names the searcher, within seconds, and every later call fails
    the same way instead of hanging."""
    import time

    import ray
    import psutil  # the copy Ray ships: visible once ray is imported

    out, _, _ = corpus
    eng = SearchEngine(out, num_searchers=2)
    pid = _on_actor(eng._actors[0], lambda self: os.getpid())
    ray.kill(eng._actors[0])
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            if psutil.Process(pid).status() == psutil.STATUS_ZOMBIE:
                break
        except psutil.NoSuchProcess:
            break
        time.sleep(0.05)
    else:
        pytest.fail(f"searcher process {pid} still alive after ray.kill")
    for _ in range(2):
        with pytest.raises(ConnectionError, match="searcher 0 of 2"):
            _within(10, eng.search_batch, [("a", "w0001")], BM25(), 5)


def test_wrong_authkey_is_refused(corpus, ray_session, monkeypatch):
    """A client with a wrong authkey is refused while the listener waits
    for the engine; the engine then connects, serves oracle-exact results,
    and the listener accepts nobody after it."""
    from multiprocessing.connection import AuthenticationError, Client

    from searchengines_ray.query import engine as engine_mod

    out, oidx, _ = corpus
    refused = []

    def client(address, authkey):
        with pytest.raises(AuthenticationError):
            Client(address, authkey=bytes(32))
        refused.append(address)
        return Client(address, authkey=authkey)

    monkeypatch.setattr(engine_mod, "Client", client)
    eng = _within(120, SearchEngine, out, 2)
    assert refused == eng._addrs and len(refused) == 2
    _within(60, _assert_oracle_exact, eng, oidx, QUERIES, BM25(), 10)
    with pytest.raises(ConnectionRefusedError):
        Client(eng._addrs[0], authkey=bytes(32))


def test_concurrent_search_batch(corpus, ray_session):
    """Two threads calling search_batch on one engine at once both get
    oracle-exact results."""
    out, oidx, _ = corpus
    eng = SearchEngine(out, num_searchers=2)
    jobs = [
        (QUERIES, BM25(), 10),
        (COMPOSITE_BATCH + QUERIES[6:12], Indri(mu=700.0, lam=0.5), 20),
    ]
    errors = []

    def serve(job):
        try:
            for _ in range(5):
                _assert_oracle_exact(eng, oidx, *job)
        except BaseException as e:
            errors.append(e)

    threads = [
        threading.Thread(target=serve, args=(job,), daemon=True) for job in jobs
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-scatter too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive(), "search_batch did not return within 120 s"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_dropped_engines_release_their_actors(corpus, ray_session):
    """Building and dropping, one after another, more 2-searcher engines
    than the session has CPUs neither hangs nor leaks an actor."""
    import gc

    import ray

    out, oidx, _ = corpus

    def cycle():
        for _ in range(int(ray.cluster_resources()["CPU"]) // 2 + 2):
            eng = SearchEngine(out, num_searchers=2)
            _assert_oracle_exact(eng, oidx, QUERIES[:3], BM25(), 5)
            del eng
            gc.collect()

    _within(300, cycle)


def test_dropped_engine_ends_serving_threads(corpus, ray_session):
    """Dropping an engine closes its connections: each actor's serving
    thread sees EOF and ends, even while the actor itself lives on."""
    import gc
    import time

    out, _, _ = corpus
    eng = SearchEngine(out, num_searchers=2)
    actors = list(eng._actors)
    assert all(_on_actor(a, lambda self: self._server.is_alive()) for a in actors)
    del eng
    gc.collect()
    deadline = time.monotonic() + 30
    while any(_on_actor(a, lambda self: self._server.is_alive()) for a in actors):
        assert time.monotonic() < deadline, "serving thread still alive"
        time.sleep(0.05)


@pytest.mark.parametrize("num_searchers", [0, 2])
def test_iop_stats_memo(corpus, ray_session, monkeypatch, num_searchers):
    """Derived composite statistics are summed once per engine: the same
    batch under a second model runs no stats pass, and a batch adding one
    composite scatters only that Iop.  Every answer stays identical to the
    oracle."""
    from searchengines_ray.parser import parse_query

    out, oidx, _ = corpus
    eng = SearchEngine(out, num_searchers=num_searchers)
    scattered = []
    real_scatter = eng._scatter
    monkeypatch.setattr(
        eng,
        "_scatter",
        lambda method, *args: scattered.append((method, args))
        or real_scatter(method, *args),
    )

    def run(queries, model):
        scattered.clear()
        batch = [(str(i), q) for i, q in enumerate(queries)]
        res = eng.search_batch(batch, model, k=15)
        for qid, q in batch:
            assert _rows_of(res, qid) == run_query(oidx, q, model, k=15), (
                f"{model.name} {q!r}"
            )
        return [a for m, a in scattered if m == "iop_stats_partial"]

    first = run(COMPOSITE_BATCH, BM25())
    assert len(first) == 1
    assert sorted(str(n) for n in first[0][0]) == sorted(eng._iop_memo)
    assert len(eng._iop_memo) == 4  # distinct Iops: SYN, NEAR, NEAR/1, WINDOW
    assert run(COMPOSITE_BATCH, Indri(mu=300.0, lam=0.4)) == []
    new = "#WINDOW/6(w0000 w0002 w0004)"
    (only,) = run(COMPOSITE_BATCH + [new], Indri(mu=1500.0, lam=0.7))
    assert [str(n) for n in only[0]] == [str(parse_query(new, "and"))]
    assert len(eng._iop_memo) == 5


def test_resume_skips_existing_segments(corpus, ray_session):
    import ray.data

    out, _, stats = corpus
    tbl = synth_pages(n=240, seed=11, vocab=400)
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    stats2 = build_index(
        ds, out, docs_per_segment=40, dedup=True, keep_forward=False
    )
    assert stats2["n_docs"] == stats["n_docs"]
    assert stats2["n_segments"] == stats["n_segments"]


def test_dfs_phase_without_termstats_table(corpus, ray_session, monkeypatch):
    """With the full sum switched off, global df/ctf come from the
    query-time dfs phase (shard-local dictionary sums, scattered to the
    searcher actors) and must be EXACTLY equivalent."""
    from searchengines_ray.query import engine as engine_mod

    monkeypatch.setattr(engine_mod, "FULL_TERMSTATS_MAX_POSTINGS", 0)
    out, oidx, _ = corpus
    for model in (BM25(), Indri(mu=777.0, lam=0.3)):
        eng = SearchEngine(out, num_searchers=2)
        res = eng.search_batch(
            [(str(i), q) for i, q in enumerate(QUERIES)], model, k=15
        )
        assert eng._termstats is None
        for i, q in enumerate(QUERIES):
            want = run_query(oidx, q, model, k=15)
            got = res[res.qid == str(i)]
            got_rows = list(
                zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
            )
            assert got_rows == want, f"model={model.name} query={q!r}"


def _stats_engines(out, monkeypatch):
    """One engine per global-statistics path over the same index: the full
    sum of the segments' columns, and the dfs phase (selected by a zero
    full-sum limit)."""
    from searchengines_ray.query import engine as engine_mod

    full = SearchEngine(out, num_searchers=0)  # sums under the real limit
    monkeypatch.setattr(engine_mod, "FULL_TERMSTATS_MAX_POSTINGS", 0)
    return {"full": full, "dfs": SearchEngine(out, num_searchers=0)}


def test_term_stats_paths_agree(corpus, monkeypatch):
    """Both lookup paths return exactly the requested keys that the
    index holds, with the oracle's df/ctf; an absent key is left out, and
    a key seen before (absent or not) is not looked up again. The
    GlobalStats sent with a search call covers that call's query keys
    only, never the whole table or the memo of earlier calls."""
    from searchengines_ray.parser import parse_query
    from searchengines_ray.query import engine as engine_mod
    from searchengines_ray.query.exec import iter_term_keys

    out, oidx, _ = corpus
    engines = _stats_engines(out, monkeypatch)
    lookups, loads = [], []
    real_load = engine_mod.load_termstats
    monkeypatch.setattr(
        engine_mod,
        "load_termstats",
        lambda d: loads.append(d) or real_load(d),
    )
    # the keys each path looks up: the summed table's TermDict, and the
    # dfs phase's scatter
    for obj, method in (
        (engines["full"]._termstats[0], "rows"),
        (engines["dfs"]._local, "term_stats_partial"),
    ):
        monkeypatch.setattr(
            obj,
            method,
            lambda keys, real=getattr(obj, method): (
                lookups.append(keys) or real(keys)
            ),
        )

    absent = ("body", "zzzznohit")
    first = [("body", "w0001"), ("body", "w0005"), ("title", "w0024"), absent]
    second = [("body", "w0005"), ("url", "000123"), ("body", "w0002")]

    def want(keys):
        stats = {}
        for f, t in keys:
            inv = oidx.inv_list(f, t)
            if inv:
                stats[(f, t)] = (len(inv), sum(len(p) for _, p in inv))
        return stats

    assert len(want(first)) == 3 and len(want(second)) == 3
    for name, eng in engines.items():
        lookups.clear()
        assert eng.term_stats_for(first) == want(first), name
        assert eng.term_stats_for(second) == want(second), name
        assert eng.term_stats_for(first + second) == want(first + second), name
        # first: all 4 keys; second: only the 2 new ones; third: none
        assert [len(k) for k in lookups] == [4, 2], (name, lookups)
        assert set(eng._term_memo) == set(first + second), name
        for q in QUERIES:
            tree = parse_query(q, "sum")
            keys: set = set()
            if tree is not None:
                iter_term_keys(tree, keys)
            shipped = eng.global_stats_for([tree]).term_stats
            assert len(shipped) <= len(keys) and set(shipped) <= keys, (name, q)
    assert engines["dfs"]._termstats is None
    assert loads == []  # the full path summed once, at start-up


def test_large_request_over_socket(corpus, ray_session):
    """A scoring request that pickles to more than 1 MB (1,600 composite
    queries' trees and GlobalStats) crosses each actor's connection intact:
    the batch matches the oracle exactly."""
    import pickle

    from searchengines_ray.parser import parse_query

    out, oidx, _ = corpus
    model = Indri(mu=700.0, lam=0.5)
    queries = []
    for i in range(1600):  # distinct term triples: ~6,000 composite keys
        lap = i // 400
        a, b, c = (
            f"w{n % 400:04d}"
            for n in (i, i * 37 + 11 + lap, i * 91 + 5 + 2 * lap)
        )
        queries.append(
            f"#AND(#NEAR/{1 + i % 4}({a} {b}) #WINDOW/{3 + i % 5}({b} {c}) "
            f"#NEAR/{2 + i % 3}({c} {a}) #SYN({a} {c} {b}.title) {c}.url)"
        )
    batch = [(str(i), q) for i, q in enumerate(queries)]
    eng = SearchEngine(out, num_searchers=2)
    trees = [parse_query(q, model.default_op) for q in queries]
    request = ("search_trees", (trees, eng.global_stats_for(trees), model, 10))
    assert len(pickle.dumps(request, protocol=5)) > 2**20
    res = _within(300, eng.search_batch, batch, model, 10)
    for i, q in enumerate(queries):
        got = res[res.qid == str(i)]
        got_rows = list(
            zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
        )
        assert got_rows == run_query(oidx, q, model, k=10), q


def test_partial_resume_rebuilds_only_missing_segment(
    tmp_path_factory, ray_session
):
    """Checkpointed resumability: wipe ONE segment; the rebuild rewrites only
    it (every other segment reports resumed=True via its manifest)."""
    import shutil

    import ray.data

    tbl = synth_pages(n=120, seed=31, vocab=200)
    out = str(tmp_path_factory.mktemp("resume"))
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    from searchengines_ray.index.shard import list_segments

    stats = build_index(ds, out, docs_per_segment=30, dedup=False)
    segments = list_segments(out)
    victim = segments[0]
    shutil.rmtree(f"{out}/segments/{victim}")
    ds2 = ray.data.from_arrow(tbl.drop_columns(["html"]))
    stats2 = build_index(ds2, out, docs_per_segment=30, dedup=False)
    assert list_segments(out) == segments
    assert stats2["n_docs"] == stats["n_docs"]
    import json
    import os

    resumed = 0
    for seg in segments:
        with open(f"{out}/segments/{seg}/MANIFEST.json") as f:
            m = json.load(f)
        assert m["n_docs"] > 0
        resumed += 0 if seg == victim else 1
    assert resumed == len(segments) - 1


def test_merge_segments_bit_identical(corpus, tmp_path, ray_session):
    """Compacting segments must leave every model's ranked output
    bit-identical (scores float-equal, same order) and preserve global
    stats; only n_segments changes.  Also pins merge resume + repair."""
    import json
    import shutil

    from searchengines_ray.index.compact import (
        merge_plan,
        merge_segments,
        repair_merges,
    )
    from searchengines_ray.index.shard import list_segments

    out, oidx, stats = corpus
    merged_dir = str(tmp_path / "merged")
    shutil.copytree(out, merged_dir)
    before = list_segments(merged_dir)
    assert len(before) == 6  # 240 docs / 40 per segment
    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    eng0 = SearchEngine(out, num_searchers=0)
    base = [eng0.search_batch(qs, m, k=15) for m in MODELS[:3]]

    stats2 = merge_segments(merged_dir, target_docs=120)
    after = list_segments(merged_dir)
    assert len(after) == 2 and all(s.startswith("seg-m") for s in after)
    assert stats2["n_docs"] == stats["n_docs"]
    assert stats2["doc_count"] == stats["doc_count"]
    assert stats2["sum_field_len"] == stats["sum_field_len"]
    assert stats2["n_segments"] == 2

    eng1 = SearchEngine(merged_dir, num_searchers=0)
    for mi, m in enumerate(MODELS[:3]):
        got = eng1.search_batch(qs, m, k=15)
        want = base[mi]
        assert got.url.tolist() == want.url.tolist()
        assert got.score.tolist() == want.score.tolist()
        assert got.doc_id.tolist() == want.doc_id.tolist()

    # merged manifests carry lineage; a rerun is a no-op
    seg_root = f"{merged_dir}/segments"
    m0 = json.load(open(f"{seg_root}/{after[0]}/MANIFEST.json"))
    assert len(m0["merged_from"]) == 3
    assert merge_plan(merged_dir, 120) == []

    # crash-window repair: resurrect a source dir, then repair removes it
    ghost = f"{seg_root}/{m0['merged_from'][0]}"
    shutil.copytree(f"{seg_root}/{after[0]}", ghost)
    assert repair_merges(merged_dir) == 1
    assert not __import__("os").path.exists(ghost)


def test_update_index_incremental(tmp_path_factory, ray_session):
    """Incremental add: half-then-half must equal a one-shot full build
    EXACTLY (same stats, bit-equal ranked output incl. global df/ctf
    summed over old and new segments), and must reject an analyzer
    mismatch."""
    import ray.data

    from searchengines_ray.analysis import AnalyzerConfig
    from searchengines_ray.index.build import update_index

    tbl = synth_pages(n=200, seed=17, vocab=300)
    half_a, half_b = tbl.slice(0, 120), tbl.slice(120)

    full_dir = str(tmp_path_factory.mktemp("idx_full"))
    stats_full = build_index(
        ray.data.from_arrow(tbl.drop_columns(["html"])),
        full_dir, docs_per_segment=30, dedup=False,
    )
    inc_dir = str(tmp_path_factory.mktemp("idx_inc"))
    build_index(
        ray.data.from_arrow(half_a.drop_columns(["html"])),
        inc_dir, docs_per_segment=30, dedup=False,
    )
    stats_inc = update_index(
        ray.data.from_arrow(half_b.drop_columns(["html"])),
        inc_dir, docs_per_segment=30,
    )
    assert stats_inc["n_docs"] == stats_full["n_docs"] == tbl.num_rows
    assert stats_inc["doc_count"] == stats_full["doc_count"]
    assert stats_inc["sum_field_len"] == stats_full["sum_field_len"]
    assert stats_inc["n_postings"] == stats_full["n_postings"]

    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    for m in (MODELS[0], MODELS[2]):
        a = SearchEngine(full_dir, num_searchers=0).search_batch(qs, m, k=15)
        b = SearchEngine(inc_dir, num_searchers=0).search_batch(qs, m, k=15)
        assert a.url.tolist() == b.url.tolist()
        assert a.score.tolist() == b.score.tolist()

    # idempotent: re-adding the same batch is a no-op
    stats_again = update_index(
        ray.data.from_arrow(half_b.drop_columns(["html"])),
        inc_dir, docs_per_segment=30,
    )
    assert stats_again["n_docs"] == tbl.num_rows
    assert stats_again["n_segments"] == stats_inc["n_segments"]

    import pytest as _pytest

    with _pytest.raises(ValueError, match="analyzer mismatch"):
        update_index(
            ray.data.from_arrow(half_b.drop_columns(["html"])), inc_dir,
            config=AnalyzerConfig(lowercase=True, stop=False, stem=False),
        )


def test_merge_commit_failure_preserves_sources(
    corpus, tmp_path, ray_session, monkeypatch
):
    """Round-4 ADVICE fix: if the merge's commit rename fails for any
    reason OTHER than a concurrent commit of the same segment, the error
    must propagate and the SOURCE segments must survive (previously the
    OSError was swallowed and the sources deleted -> silent postings
    loss)."""
    import shutil

    import pytest as _pytest

    from searchengines_ray.index import compact
    from searchengines_ray.index.shard import list_segments

    out, _, _ = corpus
    merged_dir = str(tmp_path / "failmerge")
    shutil.copytree(out, merged_dir)
    before = list_segments(merged_dir)
    group = before[:2]

    real_rename = compact.os.rename

    def bad_rename(src, dst):
        if "seg-m" in dst:
            raise OSError(13, "Permission denied (injected)")
        return real_rename(src, dst)

    monkeypatch.setattr(compact.os, "rename", bad_rename)
    with _pytest.raises(OSError):
        compact.merge_group(merged_dir, group)
    monkeypatch.undo()
    after = list_segments(merged_dir)
    assert after == before  # nothing deleted, nothing committed


def test_tombstone_then_purge_lifecycle(tmp_path_factory, ray_session):
    """Deletes: tombstoned serving == full serving with deleted docs
    filtered then re-truncated (scores unchanged — pre-delete stats),
    through both the in-process and WAND paths; purge: the rewritten
    index is bit-identical to a fresh build over the surviving corpus
    (results AND stats)."""
    import ray.data

    from searchengines_ray.index.build import doc_id_from_url
    from searchengines_ray.index.compact import delete_docs, purge_deleted
    from searchengines_ray.index.shard import load_tombstones

    tbl = synth_pages(n=200, seed=41, vocab=250, dup_frac=0.0)
    urls = tbl.column("url").to_pylist()
    all_ids = sorted(doc_id_from_url(u) for u in urls)
    dead = np.asarray(all_ids[::5], dtype=np.int64)  # every 5th doc

    tomb_dir = str(tmp_path_factory.mktemp("idx_tomb"))
    build_index(
        ray.data.from_arrow(tbl.drop_columns(["html"])),
        tomb_dir, docs_per_segment=40, dedup=False,
    )
    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    full = SearchEngine(tomb_dir, num_searchers=0).search_batch(
        qs, MODELS[0], k=None
    )

    assert delete_docs(tomb_dir, dead) == len(dead)
    assert delete_docs(tomb_dir, dead) == len(dead)  # idempotent re-add
    assert len(load_tombstones(tomb_dir)) == len(dead)
    tomb_eng = SearchEngine(tomb_dir, num_searchers=0)
    got = tomb_eng.search_batch(qs, MODELS[0], k=15)
    dead_set = set(int(d) for d in dead)
    want_rows = []
    for qid in got.qid.unique():  # search_batch emits input order
        sub = full[full.qid == qid]
        sub = sub[~sub.doc_id.isin(dead_set)].head(15)
        want_rows.extend(zip(sub.url.tolist(), sub.score.tolist()))
    assert list(zip(got.url.tolist(), got.score.tolist())) == want_rows

    # a bag-of-words query honors tombstones too
    bag = [("w", "w0001 w0002 w0003 w0004")]
    ex = tomb_eng.search_batch(bag, MODELS[0], k=10)
    assert len(ex) == 10
    assert not any(d in dead_set for d in ex.doc_id.tolist())

    # actor path loads tombstones at startup
    act = SearchEngine(tomb_dir, num_searchers=2).search_batch(
        qs, MODELS[0], k=15
    )
    assert act.url.tolist() == got.url.tolist()

    # purge: bit-identical to a fresh build over the surviving corpus
    stats_p = purge_deleted(tomb_dir)
    assert len(load_tombstones(tomb_dir)) == 0
    keep_mask = [
        doc_id_from_url(u) not in dead_set for u in urls
    ]
    fresh_dir = str(tmp_path_factory.mktemp("idx_fresh"))
    stats_f = build_index(
        ray.data.from_arrow(
            tbl.drop_columns(["html"]).filter(pa.array(keep_mask))
        ),
        fresh_dir, docs_per_segment=40, dedup=False,
    )
    assert stats_p["n_docs"] == stats_f["n_docs"]
    assert stats_p["doc_count"] == stats_f["doc_count"]
    assert stats_p["sum_field_len"] == stats_f["sum_field_len"]
    assert stats_p["n_postings"] == stats_f["n_postings"]
    for m in (MODELS[0], MODELS[2]):
        a = SearchEngine(tomb_dir, num_searchers=0).search_batch(qs, m, k=15)
        b = SearchEngine(fresh_dir, num_searchers=0).search_batch(qs, m, k=15)
        assert a.url.tolist() == b.url.tolist()
        assert a.score.tolist() == b.score.tolist()


def test_purge_fully_tombstoned_segment(tmp_path_factory, ray_session):
    """Tombstoning EVERY doc of one segment and purging must drop that
    segment entirely (no empty-segment commit): n_segments and stats match
    a fresh build over the survivors, and serving still works."""
    import json

    import pyarrow.parquet as pq
    import ray.data

    from searchengines_ray.index.build import SEGMENT_DIR, doc_id_from_url
    from searchengines_ray.index.compact import delete_docs, purge_deleted
    from searchengines_ray.index.shard import list_segments

    tbl = synth_pages(n=150, seed=47, vocab=200, dup_frac=0.0)
    d = str(tmp_path_factory.mktemp("idx_fullseg"))
    build_index(
        ray.data.from_arrow(tbl.drop_columns(["html"])),
        d, docs_per_segment=30, dedup=False,
    )
    segs = list_segments(d)
    assert len(segs) >= 3
    victim = segs[0]
    dead = (
        pq.read_table(
            os.path.join(d, SEGMENT_DIR, victim, "docmeta.parquet"),
            columns=["doc_id"],
        )
        .column("doc_id")
        .to_numpy()
        .astype(np.int64)
    )
    delete_docs(d, dead)
    stats_p = purge_deleted(d)
    after = list_segments(d)
    assert victim not in after
    assert len(after) == len(segs) - 1  # dropped, not committed empty
    with open(os.path.join(d, "stats.json")) as f:
        assert json.load(f)["n_segments"] == len(after)

    dead_set = set(int(x) for x in dead)
    keep_mask = [
        doc_id_from_url(u) not in dead_set
        for u in tbl.column("url").to_pylist()
    ]
    fresh = str(tmp_path_factory.mktemp("idx_fullseg_fresh"))
    stats_f = build_index(
        ray.data.from_arrow(
            tbl.drop_columns(["html"]).filter(pa.array(keep_mask))
        ),
        fresh, docs_per_segment=30, dedup=False,
    )
    assert stats_p["n_docs"] == stats_f["n_docs"]
    assert stats_p["n_postings"] == stats_f["n_postings"]
    qs = [(str(i), q) for i, q in enumerate(QUERIES[:6])]
    a = SearchEngine(d, num_searchers=0).search_batch(qs, MODELS[0], k=10)
    b = SearchEngine(fresh, num_searchers=0).search_batch(qs, MODELS[0], k=10)
    assert a.url.tolist() == b.url.tolist()
    assert a.score.tolist() == b.score.tolist()


def test_delete_then_readd_undeletes(tmp_path_factory, ray_session):
    """Delete-then-re-add is the document-update idiom: update_index
    clears tombstones covering the appended ids, so the doc serves
    again (even when the re-added segment content-hash-resumes)."""
    import ray.data

    from searchengines_ray.index.build import (
        doc_id_from_url,
        update_index,
    )
    from searchengines_ray.index.compact import delete_docs
    from searchengines_ray.index.shard import load_tombstones

    tbl = synth_pages(n=120, seed=53, vocab=150, dup_frac=0.0)
    d = str(tmp_path_factory.mktemp("idx_readd"))
    build_index(
        ray.data.from_arrow(tbl.drop_columns(["html"])),
        d, docs_per_segment=30, dedup=False,
    )
    qs = [("0", "w0001 w0002")]
    full = SearchEngine(d, num_searchers=0).search_batch(
        qs, MODELS[0], k=5
    )
    victim_url = full.url.iloc[0]
    victim_id = doc_id_from_url(victim_url)
    delete_docs(d, [victim_id])
    after = SearchEngine(d, num_searchers=0).search_batch(
        qs, MODELS[0], k=5
    )
    assert victim_url not in after.url.tolist()

    # re-add the victim's page (identical content -> segment resume)
    idx = tbl.column("url").to_pylist().index(victim_url)
    update_index(
        ray.data.from_arrow(tbl.slice(idx, 1).drop_columns(["html"])),
        d, docs_per_segment=30,
    )
    assert len(load_tombstones(d)) == 0
    back = SearchEngine(d, num_searchers=0).search_batch(
        qs, MODELS[0], k=5
    )
    assert back.url.tolist() == full.url.tolist()
    assert back.score.tolist() == full.score.tolist()


def _oracle_of(tbl: pa.Table) -> OracleIndex:
    from searchengines_ray.index.build import doc_id_from_url

    return OracleIndex.build(
        {"doc_id": doc_id_from_url(u), "url": u, "body": t}
        for u, t in zip(
            tbl.column("url").to_pylist(), tbl.column("text").to_pylist()
        )
    )


def _oracle_term_stats(oidx: OracleIndex) -> dict:
    return {
        (f, t): (len(inv), sum(len(p) for _, p in inv))
        for f, terms in oidx.postings.items()
        for t, inv in terms.items()
    }


def test_load_termstats_sums_the_segments(corpus):
    """Global df/ctf are the sum of the segments' own columns: equal to
    the oracle's for every (field, term), terms held by one segment only
    among them."""
    from collections import Counter

    import pyarrow.parquet as pq

    from searchengines_ray.index.shard import load_termstats, segment_dirs

    out, oidx, _ = corpus
    dirs = segment_dirs(out)
    assert len(dirs) >= 3
    want = _oracle_term_stats(oidx)
    ts = load_termstats(out)
    col = {c: ts.column(c).to_pylist() for c in ts.column_names}
    keys = list(zip(col["field"], col["term"]))
    assert keys == sorted(keys)
    assert dict(zip(keys, zip(col["df"], col["ctf"]))) == want
    held_by = Counter()
    for d in dirs:
        t = pq.read_table(f"{d}/postings.parquet", columns=["field", "term"])
        held_by.update(
            zip(t.column("field").to_pylist(), t.column("term").to_pylist())
        )
    assert set(held_by) == set(want)
    assert 1 in held_by.values() and max(held_by.values()) == len(dirs)


def _assert_current(index_dir, one_shot_dir, oidx, monkeypatch):
    """``index_dir`` serves the oracle's global df/ctf and the same ranked
    output as the oracle and a one-shot build, on both stats paths."""
    from searchengines_ray.query import engine as engine_mod

    want = _oracle_term_stats(oidx)
    keys = sorted(want) + [("body", "zzzznohit")]
    qs = [(str(i), q) for i, q in enumerate(QUERIES)]
    one_shot = SearchEngine(one_shot_dir, num_searchers=0)
    for limit in (engine_mod.FULL_TERMSTATS_MAX_POSTINGS, 0):
        monkeypatch.setattr(engine_mod, "FULL_TERMSTATS_MAX_POSTINGS", limit)
        eng = SearchEngine(index_dir, num_searchers=0)
        assert eng.term_stats_for(keys) == want, limit
        for m in (MODELS[0], MODELS[2]):
            got = eng.search_batch(qs, m, k=15)
            ref = one_shot.search_batch(qs, m, k=15)
            assert got.url.tolist() == ref.url.tolist(), (limit, m.name)
            assert got.score.tolist() == ref.score.tolist(), (limit, m.name)
            for i, q in enumerate(QUERIES):
                sub = got[got.qid == str(i)]
                rows = list(
                    zip(sub.doc_id.tolist(), sub.url.tolist(),
                        sub.score.tolist())
                )
                assert rows == run_query(oidx, q, m, k=15), (limit, m.name, q)


def test_global_stats_current_after_append_purge_and_readd(
    tmp_path_factory, ray_session, monkeypatch
):
    """Global df/ctf can never go stale, because nothing but the segments
    stores them: after an append, after a delete + purge, and after an
    update that re-adds tombstoned docs, the index matches the oracle and
    a one-shot build of the same documents."""
    import ray.data

    from searchengines_ray.index.build import doc_id_from_url, update_index
    from searchengines_ray.index.compact import delete_docs, purge_deleted
    from searchengines_ray.index.shard import load_tombstones

    tbl = synth_pages(n=160, seed=61, vocab=250, dup_frac=0.0).drop_columns(
        ["html"]
    )
    ids = np.asarray(
        [doc_id_from_url(u) for u in tbl.column("url").to_pylist()]
    )

    def build(t, name):
        d = str(tmp_path_factory.mktemp(name))
        build_index(ray.data.from_arrow(t), d, docs_per_segment=30)
        return d

    # append: half built, half added
    d = build(tbl.slice(0, 90), "stale_inc")
    update_index(ray.data.from_arrow(tbl.slice(90)), d, docs_per_segment=30)
    _assert_current(d, build(tbl, "stale_full"), _oracle_of(tbl), monkeypatch)

    # delete + purge: equal to the survivors
    dead = np.sort(ids[::4])
    delete_docs(d, dead)
    purge_deleted(d)
    survivors = tbl.filter(pa.array(~np.isin(ids, dead)))
    surv_dir = build(survivors, "stale_surv")
    surv_oracle = _oracle_of(survivors)
    _assert_current(d, surv_dir, surv_oracle, monkeypatch)

    # tombstone some survivors, then re-add them: still the survivors
    sids = ids[~np.isin(ids, dead)]
    back = np.isin(ids, sids[::5])
    delete_docs(d, ids[back])
    update_index(
        ray.data.from_arrow(tbl.filter(pa.array(back))), d,
        docs_per_segment=30,
    )
    assert len(load_tombstones(d)) == 0
    _assert_current(d, surv_dir, surv_oracle, monkeypatch)


def test_append_writes_only_its_segments(tmp_path_factory, ray_session):
    """An append is O(batch) on disk: it adds its own segment directories
    and rewrites stats.json; every file already in the index keeps its
    bytes and mtime, and no merged term-statistics table appears."""
    import ray.data

    from searchengines_ray.index.build import update_index
    from searchengines_ray.index.shard import list_segments

    tbl = synth_pages(n=200, seed=67, vocab=200, dup_frac=0.0).drop_columns(
        ["html"]
    )
    d = str(tmp_path_factory.mktemp("idx_append"))
    build_index(ray.data.from_arrow(tbl.slice(0, 180)), d, docs_per_segment=30)
    segs = list_segments(d)
    assert len(segs) == 6

    def snapshot():
        out = {}
        for root, _, files in os.walk(d):
            for name in files:
                p = os.path.join(root, name)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, d)] = (
                        f.read(), os.stat(p).st_mtime_ns
                    )
        return out

    before = snapshot()
    update_index(ray.data.from_arrow(tbl.slice(180)), d, docs_per_segment=30)
    after = snapshot()
    new_segs = sorted(set(list_segments(d)) - set(segs))
    assert len(new_segs) == 1 and set(segs) <= set(list_segments(d))
    assert sorted(os.listdir(d)) == sorted(["segments", "stats.json"])
    added = set(after) - set(before)
    assert added and all(
        p.split(os.sep)[:2] == ["segments", new_segs[0]] for p in added
    )
    changed = {p for p in before if after.get(p) != before[p]}
    assert changed == {"stats.json"}


# the per-block list<int32> columns of the earlier postings layout
PARENT_ONLY_COLS = ("bm_max_doc", "bm_max_tf", "bm_min_dl")


def _to_parent_layout(seg_dir: str) -> None:
    """Rewrite a segment's postings.parquet in the earlier layout: the
    same columns plus, per 128-posting block, its max doc, max tf and
    min field length."""
    import pyarrow.parquet as pq

    from searchengines_ray.index import encode

    path = os.path.join(seg_dir, "postings.parquet")
    t = pq.read_table(path)
    dm = pq.read_table(os.path.join(seg_dir, "docmeta.parquet"))
    max_doc, max_tf, min_dl = [], [], []
    for f, d, tf in zip(
        t.column("field").to_pylist(),
        t.column("docs").to_pylist(),
        t.column("tfs").to_pylist(),
    ):
        docs = encode.decode_doc_ids(d).astype(np.int64)
        tfs = encode.decode_values(tf)
        lens = dm.column(f"len_{f}").to_numpy()[docs]
        blocks = [
            slice(s, s + encode.BLOCK)
            for s in range(0, len(docs), encode.BLOCK)
        ]
        max_doc.append([int(docs[b][-1]) for b in blocks])
        max_tf.append([int(tfs[b].max()) for b in blocks])
        min_dl.append([int(lens[b].min()) for b in blocks])
    for name, v in zip(PARENT_ONLY_COLS, (max_doc, max_tf, min_dl)):
        t = t.append_column(name, pa.array(v, pa.list_(pa.int32())))
    pq.write_table(t, path)


def test_parent_layout_segment_serves_and_merges(
    tmp_path_factory, ray_session, monkeypatch
):
    """Segments written with the earlier postings layout (three extra
    block-max list columns) open next to a segment appended in the
    current layout, serve BM25 and Indri exactly as the oracle and a
    one-shot build do, and merge_segments folds them into one segment of
    the current schema."""
    import pyarrow.parquet as pq
    import ray.data

    from searchengines_ray.index.build import POSTINGS_SCHEMA, update_index
    from searchengines_ray.index.compact import merge_segments
    from searchengines_ray.index.shard import segment_dirs

    tbl = synth_pages(n=160, seed=73, vocab=250, dup_frac=0.0).drop_columns(
        ["html"]
    )
    d = str(tmp_path_factory.mktemp("idx_parent_layout"))
    build_index(ray.data.from_arrow(tbl.slice(0, 120)), d, docs_per_segment=60)
    old = segment_dirs(d)
    assert len(old) == 2
    for seg in old:
        _to_parent_layout(seg)
    update_index(ray.data.from_arrow(tbl.slice(120)), d, docs_per_segment=60)

    def names(seg):
        return pq.read_schema(f"{seg}/postings.parquet").names

    segs = segment_dirs(d)
    assert len(segs) == 3
    for seg in segs:
        has = set(PARENT_ONLY_COLS) <= set(names(seg))
        assert has == (seg in old), seg

    one_shot = str(tmp_path_factory.mktemp("idx_parent_layout_full"))
    build_index(ray.data.from_arrow(tbl), one_shot, docs_per_segment=60)
    oidx = _oracle_of(tbl)
    _assert_current(d, one_shot, oidx, monkeypatch)

    stats = merge_segments(d, target_docs=len(tbl))
    assert stats["n_segments"] == 1
    (merged,) = segment_dirs(d)
    assert names(merged) == POSTINGS_SCHEMA.names
    _assert_current(d, one_shot, oidx, monkeypatch)
