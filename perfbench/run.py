"""Benchmark of searchengines_ray: index build, single-query serving, batch
scoring and the curation shuffles, each in its own fixed-size Ray session.

    python3 perfbench/run.py --workload {build,query_serve,query_batch,curate}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  The inputs are generated from ``--seed``
(``gen.py``); the package only ever sees the generated documents and
queries.  Every answer is checked against the repository's oracles outside
the timed section.  The last line of standard output is one JSON object:
with ``--trace 0`` it holds the ``end_to_end`` metrics of BENCHMARK.json,
with ``--trace 1`` the ``per_layer`` ones.  The lines before it print the
workload's named end-to-end figures with their units.

Scratch files (indexes, registries, the Ray session directory) live in a
fresh directory under ``.pb/`` that is removed when the run ends; traced
runs leave their spans in ``.pb/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "scripts"))

import duckdb  # noqa: E402
import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402
import ray  # noqa: E402
import ray.data  # noqa: E402

import psutil  # noqa: E402  (the copy Ray ships; importing ray makes it visible)

# the package under test: without its source this import fails and the
# benchmark exits non-zero before printing a result
from searchengines_ray.analysis import tokenize_arrow_batch  # noqa: E402
from searchengines_ray.index import encode  # noqa: E402
from searchengines_ray.index.build import build_index, write_segment  # noqa: E402
from searchengines_ray.index.shard import Segment, segment_dirs  # noqa: E402
from searchengines_ray.models import BM25, Indri  # noqa: E402
from searchengines_ray.oracle import OracleIndex, run_query  # noqa: E402
from searchengines_ray.parser import parse_query  # noqa: E402
from searchengines_ray.query import engine as engine_mod  # noqa: E402
from searchengines_ray.query.engine import LocalSearcher, SearchEngine  # noqa: E402
from searchengines_ray.query.exec import iter_term_keys  # noqa: E402
from searchengines_ray.stages.dedup import (  # noqa: E402
    lsh_registry_query,
    lsh_registry_write,
    minhash_dedup_pairs,
    substring_dedup,
)
from searchengines_ray.stages.text import ngram_counts, tfidf_keywords  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

# Session sizing: fixed, never derived from the host.  Two logical CPUs and
# two searcher actors give a real two-shard scatter/gather without heavy
# oversubscription of a small host.
NUM_CPUS = 2
NUM_SEARCHERS = 2
OBJECT_STORE_BYTES = 300 * 2**20
SETUP_REPS = 5  # setup_s is the median of this many set-ups in one run
# operations are grouped into chunks of at least this many seconds, and the
# CPU time of each chunk is read once, so reading it costs little
CPU_CHUNK_S = 1.0

# Input sizes.  At the library's default docs_per_segment the 4,000-document
# index has two segments, one per searcher actor.  query_serve uses twice
# that, so scoring is a larger share of each call: on a shared host this
# halved the run-to-run spread of its latency (IQR/median 0.05 against 0.10
# over the same five seeds, runs interleaved).
INDEX_DOCS, INDEX_WORDS = 4000, 8000
SERVE_DOCS, SERVE_WORDS = 8000, 16000
CURATE_DOCS, CURATE_WORDS = 1000, 3000
INPUT_BLOCKS = 8
K = 100
SERVE_POOL = 2000  # distinct queries; a run serves each at most once
MIN_SERVE_QUERIES = 200  # enough samples for a p95 with ten beyond it
BATCH_QUERIES = 100
# the QryEval parameter-sweep shape: BM25 (k_1, b) and Indri (mu, lambda)
SWEEP = [
    BM25(),
    BM25(k_1=0.9, b=0.4),
    BM25(k_1=1.6, b=0.9),
    BM25(k_1=2.0, b=0.3),
    Indri(),
    Indri(mu=1000.0, lam=0.6),
    Indri(mu=300.0, lam=0.2),
    Indri(mu=4000.0, lam=0.7),
]
REGISTRY_PARTS = 16
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store", pid of 7 digits
SOCKET_SUFFIX_LEN = 72
INCOMING_OFFSET = 10_000_000  # incoming ids are remapped disjoint from the registry


# ---------------------------------------------------------------- process tree


def _tree() -> list:
    """This process plus every descendant: the local Ray head processes and
    the workers and actors they start."""
    me = psutil.Process()
    return [me] + me.children(recursive=True)


class TreeMeter:
    """CPU time and peak summed RSS of the process tree, read on demand and
    sampled on a thread.  Other processes' CPU time comes in clock ticks of
    10 ms; the driver's own is read to the nanosecond.  Ray reaps its
    workers without passing their times on to a parent, so a process that
    exits keeps its last reading: the time a worker used after its last
    sample is not counted."""

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.peak = 0
        self._cpu: dict = {}  # (pid, create time) -> CPU-seconds at last sample
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def cpu(self) -> float:
        """CPU-seconds used so far by every process of the tree seen so far;
        updates the RSS peak on the way."""
        rss, me = 0, os.getpid()
        for p in _tree():
            with contextlib.suppress(psutil.Error), p.oneshot():
                t = p.cpu_times()
                used = time.process_time() if p.pid == me else t.user + t.system
                key = (p.pid, p.create_time())
                rss += p.memory_info().rss
                with self._lock:
                    self._cpu[key] = max(self._cpu.get(key, 0.0), used)
        with self._lock:
            self.peak = max(self.peak, rss)
            return sum(self._cpu.values())

    def reset_peak(self) -> None:
        with self._lock:
            self.peak = 0

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.cpu()

    def start(self) -> "TreeMeter":
        self.cpu()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


# -------------------------------------------------------------------- harness


class Ctx:
    """One run: seed, scratch directory, tracer and the tallies the JSON
    line reports."""

    def __init__(self, args, work: str, ray_dir: str):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.ray_dir = ray_dir
        os.makedirs(work)
        self.tracer = Tracer()
        self.tracing = False  # spans are recorded only in the traced half
        self.attempted = 0
        self.failed = 0
        self.named: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, float] = {}
        self.setup_s = 0.0
        self.times: list[float] = []
        self.op_cpu: list[float] = []  # CPU-seconds per operation, one per chunk
        self.meter = TreeMeter()
        self.items_per_op = 0
        self.ops = 0  # operations started, across both halves of a run

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def span(self, name: str, **attrs):
        if not self.tracing:
            return contextlib.nullcontext({})
        return self.tracer.span(name, **attrs)

    def setup(self, fn):
        """Runs ``fn`` SETUP_REPS times; keeps the last result and records
        the median CPU time of the tree as ``setup_s`` (the median wall time
        is printed beside it)."""
        times, cpu, out = [], [], None
        for _ in range(SETUP_REPS):
            out = None  # drop the previous set-up (and its actors) first
            gc.collect()
            t0, c0 = time.perf_counter(), self.meter.cpu()
            out = fn()
            times.append(time.perf_counter() - t0)
            cpu.append(self.meter.cpu() - c0)
        self.setup_s = statistics.median(cpu)
        self.named["setup_wall_s"] = (statistics.median(times), "s")
        return out

    def measure(self, op, min_ops: int, items_per_op: int, instrument=None):
        """Runs ``op(i)`` for i = 0, 1, ... back to back; each call returns
        its own duration in seconds.  Untraced: for ``seconds``, and these
        are the end-to-end figures: the tree's CPU time per operation of
        each chunk of at least CPU_CHUNK_S, the wall time of each operation
        and the peak RSS.  Traced: half the time untraced, then half with
        spans and ``instrument()`` active; the ratio of the two median wall
        times is the tracing overhead.  Returns the number of operations
        that raised."""

        def loop(seconds):
            times, errors, cpu = [], 0, []
            t0 = chunk_t0 = time.perf_counter()
            cpu0 = chunk_cpu0 = self.meter.cpu()
            n = chunk_n0 = 0
            while time.perf_counter() - t0 < seconds or len(times) + errors < min_ops:
                self.ops += 1
                n += 1
                try:
                    times.append(op(self.ops - 1))
                except Exception:
                    traceback.print_exc()
                    errors += 1
                now = time.perf_counter()
                if now - chunk_t0 >= CPU_CHUNK_S:
                    c = self.meter.cpu()
                    cpu.append((c - chunk_cpu0) / (n - chunk_n0))
                    chunk_t0, chunk_cpu0, chunk_n0 = now, c, n
            total = self.meter.cpu() - cpu0
            return times, errors, cpu or [total / max(1, n)], total

        seconds = self.seconds / 2 if self.trace else self.seconds
        self.meter.reset_peak()
        self.times, errors, self.op_cpu, total_cpu = loop(seconds)
        self.named["peak_rss_mb"] = (self.meter.peak / 2**20, "MB")
        self.layers["cpu_s"] = total_cpu
        self.named["cpu_s"] = (total_cpu, "s")
        self.items_per_op = items_per_op
        if self.trace:
            self.tracing = True
            with instrument() if instrument else contextlib.nullcontext():
                traced, traced_errors, _, _ = loop(seconds)
            self.tracing = False
            errors += traced_errors
            if self.times and traced:
                self.layers["trace.overhead_ratio"] = statistics.median(
                    traced
                ) / statistics.median(self.times)
        return errors

    def items_per_s(self) -> float:
        """Items (documents or queries) per second of the median untraced
        operation."""
        if not self.times:
            return 0.0
        return self.items_per_op / statistics.median(self.times)

    def cpu_ms_per_item(self) -> float:
        """CPU-milliseconds of the driver and the Ray processes per item,
        the median over the run's chunks of operations."""
        return statistics.median(self.op_cpu) / max(1, self.items_per_op) * 1e3

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"MISMATCH {what}", file=sys.stderr)


def put_docs(df: pd.DataFrame):
    """The documents as INPUT_BLOCKS blocks in the object store."""
    n = -(-len(df) // INPUT_BLOCKS)
    return ray.data.from_pandas(
        [df.iloc[i : i + n] for i in range(0, len(df), n)]
    ).materialize()


def oracle_index(docs: pd.DataFrame) -> OracleIndex:
    return OracleIndex.build(
        {"doc_id": int(d), "url": u, "body": t}
        for d, u, t in zip(docs.doc_id, docs.url, docs.text)
    )


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


def ranked_rows(res: pd.DataFrame) -> dict:
    """qid -> [(doc_id, url, score)] in rank order, as ``run_query`` gives."""
    out: dict = {}
    for qid, d, u, s in zip(
        res.qid.tolist(), res.doc_id.tolist(), res.url.tolist(), res.score.tolist()
    ):
        out.setdefault(qid, []).append((d, u, s))
    return out


def _composite(node) -> bool:
    return node.op in ("syn", "near", "window") or any(
        _composite(a) for a in node.args
    )


def query_keys(queries, default_op: str = "sum") -> set:
    keys: set = set()
    for _, q in queries:
        tree = parse_query(q, default_op)
        if tree is not None:
            iter_term_keys(tree, keys)
    return keys


# ------------------------------------------------------------------ workloads


def run_build(ctx: Ctx) -> None:
    """build_index over a corpus already in the object store, one build at a
    time.  Busy: analysis, index.build, index.encode, the termstats
    exchange.  Idle: every query module."""

    def setup():
        corpus = gen.make_corpus(INDEX_DOCS, INDEX_WORDS, ctx.seed)
        return corpus.docs, put_docs(corpus.docs)

    docs, ds = ctx.setup(setup)
    input_bytes = int(docs.url.str.len().sum() + docs.text.str.len().sum())
    built: list[dict] = []
    index_bytes = []

    def op(i):
        out = ctx.path(f"index-{i}")
        with ctx.span("index.build.build_index"):
            t0 = time.perf_counter()
            stats = build_index(ds, out)
            dt = time.perf_counter() - t0
        built.append(stats)
        if not index_bytes:
            index_bytes.append(dir_bytes(out))
        shutil.rmtree(out)
        return dt

    errors = ctx.measure(op, 3, INDEX_DOCS)
    ctx.attempted += errors
    ctx.failed += errors
    ratio = index_bytes[0] / input_bytes if index_bytes else 0.0
    ctx.named["build_docs_per_s"] = (ctx.items_per_s(), "docs/s")
    ctx.named["index_bytes_per_input_byte"] = (ratio, "ratio")

    if ctx.trace:
        build_layers(ctx, docs, ds, built)
        ctx.layers["index.encode.index_bytes_per_input_byte"] = ratio

    oracle = oracle_index(docs)
    for s in built:
        ctx.check(
            s["n_docs"] == oracle.n_docs
            and s["doc_count"] == oracle.doc_count
            and s["sum_field_len"] == oracle.sum_field_len,
            "build stats differ from the oracle",
        )


def build_layers(ctx: Ctx, docs: pd.DataFrame, ds, built: list[dict]) -> None:
    with_ts = ctx.tracer.durations("index.build.build_index")
    without = []
    keep = ctx.path("index-probe")
    for r in range(2):
        shutil.rmtree(keep, ignore_errors=True)
        t0 = time.perf_counter()
        stats = build_index(ds, keep, termstats=False)
        without.append(time.perf_counter() - t0)
    built.append(stats)
    L = ctx.layers
    L["index.build.termstats_s"] = statistics.median(with_ts) - statistics.median(
        without
    )
    L["index.build.segments"] = stats["n_segments"]
    L["index.build.postings"] = stats["n_postings"]

    # encode: encoded posting bytes per posting, and decode throughput
    blobs = []
    for seg in segment_dirs(keep):
        t = pq.read_table(os.path.join(seg, "postings.parquet"))
        blobs += zip(*(t.column(c).to_pylist() for c in ("docs", "tfs", "positions")))
    enc_bytes = sum(len(a) + len(b) + len(c) for a, b, c in blobs)
    L["index.encode.bytes_per_posting"] = enc_bytes / stats["n_postings"]
    t0 = time.perf_counter()
    for a, b, c in blobs:
        encode.decode_doc_ids(a)
        encode.decode_values(b)
        encode.decode_values(c)
    L["index.encode.decode_mb_per_s"] = enc_bytes / 2**20 / (time.perf_counter() - t0)

    # analysis: in-process tokenization of the body field
    texts = pa.array(docs.text.tolist(), pa.string())
    tok = []
    for _ in range(3):
        t0 = time.perf_counter()
        tokenize_arrow_batch(texts)
        tok.append(time.perf_counter() - t0)
    L["analysis.tokenize_docs_per_s"] = len(docs) / statistics.median(tok)

    # one in-process write_segment per segment-sized batch
    tbl = pa.Table.from_pandas(docs, preserve_index=False)
    per = []
    for i, start in enumerate(range(0, len(docs), 2000)):
        out = ctx.path(f"segment-probe-{i}")
        t0 = time.perf_counter()
        write_segment(tbl.slice(start, 2000), out)
        per.append(time.perf_counter() - t0)
        shutil.rmtree(out)
    L["index.build.write_segment_ms"] = statistics.median(per) * 1e3


def serving_setup(ctx: Ctx, n_docs: int, n_words: int, n_queries: int):
    """One index over a seeded corpus (built once; the build workload
    measures that), then SETUP_REPS engine start-ups, each finished by one
    warm-up query."""
    corpus = gen.make_corpus(n_docs, n_words, ctx.seed)
    index = ctx.path("index")
    build_index(put_docs(corpus.docs), index)
    warm, *queries = gen.make_queries(corpus, n_queries + 1, ctx.seed)

    def start():
        eng = SearchEngine(index, num_searchers=NUM_SEARCHERS)
        eng.search_batch([warm], BM25(), k=K)
        return eng

    return corpus.docs, index, queries, ctx.setup(start)


def query_instrument(ctx: Ctx, eng: SearchEngine):
    """Spans around parse_query and global_stats_for as search_batch calls
    them, plus the size and key use of each shipped GlobalStats."""

    def stats_counts(rec, args, g):
        keys: set = set()
        for t in args[0]:
            if t is not None:
                iter_term_keys(t, keys)
        rec["bytes"] = len(pickle.dumps(g))
        rec["key_ratio"] = len(keys) / max(1, len(g.term_stats))
        rec["composite"] = any(t is not None and _composite(t) for t in args[0])

    stack = contextlib.ExitStack()
    stack.enter_context(ctx.tracer.wrap(engine_mod, "parse_query", "parser.parse_query"))
    stack.enter_context(
        ctx.tracer.wrap(eng, "global_stats_for", "query.engine.global_stats_for", stats_counts)
    )
    return stack


def query_layers(ctx: Ctx, index: str, queries) -> None:
    tr, L = ctx.tracer, ctx.layers
    stats = [s for s in tr.spans if s["name"] == "query.engine.global_stats_for"]
    iop = [s["end"] - s["start"] for s in stats if s.get("composite")]
    L["parser.parse_ms"] = statistics.median(tr.durations("parser.parse_query")) * 1e3
    L["query.engine.stats_ms"] = (
        statistics.median(tr.durations("query.engine.global_stats_for")) * 1e3
    )
    L["query.engine.iop_stats_ms"] = statistics.median(iop) * 1e3 if iop else 0.0
    L["query.engine.stats_bytes"] = tr.median("query.engine.global_stats_for", "bytes")
    L["query.engine.stats_key_ratio"] = tr.median(
        "query.engine.global_stats_for", "key_ratio"
    )
    L["query.engine.scatter_ms"] = (
        statistics.median(tr.self_times("query.engine.search_batch")) * 1e3
    )
    # cold decode of every distinct (field, term) list the queries touch
    keys = query_keys(queries)
    n = nbytes = 0
    elapsed = 0.0
    for d in segment_dirs(index):
        seg = Segment(d)
        for key in keys:
            t0 = time.perf_counter()
            pl = seg.postings(*key)
            if pl is not None:
                elapsed += time.perf_counter() - t0
                n += 1
                nbytes += pl.docs.nbytes + pl.tfs.nbytes + pl.positions.nbytes
    L["index.shard.decode_us_per_list"] = elapsed / max(1, n) * 1e6
    L["index.shard.decoded_bytes"] = nbytes
    L["index.shard.distinct_keys"] = len(keys)


def run_query_serve(ctx: Ctx) -> None:
    """Closed loop, one client: one query per search_batch call, BM25,
    k=100, over a pool of distinct seeded queries."""
    docs, index, pool, eng = serving_setup(ctx, SERVE_DOCS, SERVE_WORDS, SERVE_POOL)
    served = []

    def op(i):
        qid, q = pool[i % len(pool)]
        with ctx.span("query.engine.search_batch", rid=ctx.tracer.new_request()):
            t0 = time.perf_counter()
            res = eng.search_batch([(qid, q)], BM25(), k=K)
            dt = time.perf_counter() - t0
        served.append((q, ranked_rows(res).get(qid, [])))
        return dt

    errors = ctx.measure(op, MIN_SERVE_QUERIES, 1, lambda: query_instrument(ctx, eng))
    ctx.attempted += errors
    ctx.failed += errors
    lat = sorted(ctx.times)
    ctx.named["query_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
    ctx.named["query_p95_ms"] = (statistics.quantiles(lat, n=20)[-1] * 1e3, "ms")
    ctx.named["queries"] = (len(lat), "count")
    if ctx.trace:
        query_layers(ctx, index, pool[: len(served)])

    oracle = oracle_index(docs)
    want: dict = {}
    for q, got in served:
        if q not in want:
            want[q] = run_query(oracle, q, BM25(), k=K)
        ctx.check(got == want[q], f"query {q!r}")


def run_query_batch(ctx: Ctx) -> None:
    """One fixed seeded query file per search_batch call, sweeping BM25 and
    Indri parameters.  The per-call overhead is amortized and the postings
    are cached after the warm-up pass, so scoring dominates."""
    docs, index, qfile, eng = serving_setup(ctx, INDEX_DOCS, INDEX_WORDS, BATCH_QUERIES)
    eng.search_batch(qfile, SWEEP[0], k=K)  # warm-up pass, untimed
    first: dict = {}

    def op(i):
        # one operation is a whole sweep, so every operation does the same
        # mix of BM25 and Indri work
        out = []
        t0 = time.perf_counter()
        for model in SWEEP:
            with ctx.span("query.engine.search_batch", rid=ctx.tracer.new_request()):
                out.append(eng.search_batch(qfile, model, k=K))
        dt = time.perf_counter() - t0
        for m, res in enumerate(out):
            rows = ranked_rows(res)
            if m in first:
                for qid, _ in qfile:
                    ctx.check(rows.get(qid, []) == first[m].get(qid, []), f"repeat {qid}")
            else:
                first[m] = rows
        return dt

    per_sweep = BATCH_QUERIES * len(SWEEP)
    errors = ctx.measure(op, 3, per_sweep, lambda: query_instrument(ctx, eng))
    ctx.attempted += errors * per_sweep
    ctx.failed += errors * per_sweep
    ctx.named["batch_qps"] = (ctx.items_per_s(), "queries/s")
    if ctx.trace:
        query_layers(ctx, index, qfile)
        score_layer(ctx, eng, index, qfile)

    oracle = oracle_index(docs)
    for m, rows in first.items():
        for qid, q in qfile:
            want = run_query(oracle, q, SWEEP[m], k=K)
            ctx.check(rows.get(qid, []) == want, f"{SWEEP[m]} query {q!r}")


def score_layer(ctx: Ctx, eng: SearchEngine, index: str, qfile) -> None:
    """In-process search_trees over every segment with the engine's own
    GlobalStats: the scoring cost without the actor round trip."""
    local = LocalSearcher(index)
    per = []
    for model in (SWEEP[0], SWEEP[4]):
        trees = [parse_query(q, model.default_op) for _, q in qfile]
        g = eng.global_stats_for(trees)
        local.search_trees(trees, g, model, K)  # decode caches warm
        t0 = time.perf_counter()
        local.search_trees(trees, g, model, K)
        per.append((time.perf_counter() - t0) / len(trees))
    ctx.layers["query.exec.score_ms_per_query"] = statistics.median(per) * 1e3


def _registry_side(b: pd.DataFrame) -> pd.DataFrame:
    return b[b["doc_id"].to_numpy() % 10 != 0]


def _incoming_side(b: pd.DataFrame) -> pd.DataFrame:
    m = b[b["doc_id"].to_numpy() % 10 == 0].copy()
    m["doc_id"] = m["doc_id"] + INCOMING_OFFSET
    return m


# oracle_sql() entry -> (stage span, shaping of the stage output into the
# entry's columns, as __ray_entry__ does it)
CURATE_CHECKS = {
    "minhash_pairs": (
        "stages.dedup.minhash_dedup_pairs",
        lambda df: df.assign(jaccard_r=np.floor(df["jaccard"].to_numpy() * 1e6) / 1e6)[
            ["doc_a", "doc_b", "jaccard_r"]
        ],
    ),
    "substring_dedup": (
        "stages.dedup.substring_dedup",
        lambda df: df[["doc_id", "n_tokens", "n_removed", "kept_hash"]].astype("int64"),
    ),
    "tfidf_keywords": (
        "stages.text.tfidf_keywords",
        lambda df: df.astype({"tf": "int64", "score_micro": "int64"}),
    ),
    "ngram_counts": (
        "stages.text.ngram_counts",
        lambda df: df.reset_index(drop=True).astype({"cnt": "int64"}),
    ),
    "lsh_registry": (
        "stages.dedup.lsh_registry_query",
        lambda df: df.assign(doc_id=df["doc_id"] - INCOMING_OFFSET).astype("int64"),
    ),
}


def run_curate(ctx: Ctx) -> None:
    """One pass of the fixed curation stage set over a seeded corpus, then
    an incremental near-dup probe of a seed-chosen 10% slice against the
    persisted registry of the other 90%."""

    def setup():
        corpus = gen.make_corpus(CURATE_DOCS, CURATE_WORDS, ctx.seed)
        docs = corpus.docs[["doc_id", "text"]]
        ds = put_docs(docs)
        reg = ds.map_batches(_registry_side, batch_format="pandas").materialize()
        new = ds.map_batches(_incoming_side, batch_format="pandas").materialize()
        return docs, ds, reg, new

    docs, ds, reg, new = ctx.setup(setup)
    outputs: dict[str, list] = {}
    io_stats: list[dict] = []

    def op(i):
        path = ctx.path(f"registry-{i}")
        stages = [
            ("stages.dedup.minhash_dedup_pairs", lambda: minhash_dedup_pairs(ds, threshold=0.5)),
            ("stages.dedup.substring_dedup", lambda: substring_dedup(ds, k=8).to_pandas()),
            ("stages.text.tfidf_keywords", lambda: tfidf_keywords(ds, k=3).to_pandas()),
            ("stages.text.ngram_counts", lambda: ngram_counts(ds, n=2, top_k=50).to_pandas()),
            ("stages.dedup.lsh_registry_write", lambda: lsh_registry_write(reg, path, parts=REGISTRY_PARTS)),
            ("stages.dedup.lsh_registry_query", lambda: lsh_registry_query(new, path, return_stats=True)),
        ]
        t0 = time.perf_counter()
        for name, fn in stages:
            with ctx.span(name):
                out = fn()
            if name == "stages.dedup.lsh_registry_query":
                out, st = out
                io_stats.append(st)
            outputs.setdefault(name, []).append(out)
        dt = time.perf_counter() - t0
        shutil.rmtree(path)
        return dt

    errors = ctx.measure(op, 1, CURATE_DOCS)
    ctx.attempted += errors
    ctx.failed += errors
    ctx.named["curate_docs_per_s"] = (ctx.items_per_s(), "docs/s")

    if ctx.trace:
        L = ctx.layers
        for name in outputs:
            L[name + "_s"] = statistics.median(ctx.tracer.durations(name))
        st = io_stats[-1]
        L["stages.dedup.lsh_sketch_io_fraction"] = st["sketch_bytes_probed"] / max(
            1, st["sketch_bytes_total"]
        )
        L["stages.dedup.lsh_hash_io_fraction"] = st["hash_bytes_probed"] / max(
            1, st["hash_bytes_total"]
        )
        L["stages.dedup.minhash_pairs"] = len(outputs["stages.dedup.minhash_dedup_pairs"][-1])
        L["stages.dedup.lsh_registry_pairs"] = len(outputs["stages.dedup.lsh_registry_query"][-1])
        L["stages.schema_drift_warnings"] = count_in_logs(ctx, "different schema")

    import __ray_entry__
    from verify_entries import compare

    sql = __ray_entry__.oracle_sql()
    con = duckdb.connect()
    con.register("documents", docs)
    for entry, (stage, shape) in CURATE_CHECKS.items():
        runs = [shape(df) for df in outputs.get(stage, [])]
        if runs:
            ctx.check(compare(entry, runs[0], con.sql(sql[entry]).df()), entry)
        for later in runs[1:]:
            ctx.check(compare(entry, later, runs[0]), f"{entry} repeat")
    con.close()


def count_in_logs(ctx: Ctx, needle: str) -> int:
    """Occurrences of ``needle`` in the session's log files."""
    n = 0
    for d, _, files in os.walk(ctx.ray_dir):
        if f"{os.sep}logs" not in d:
            continue
        for f in files:
            p = os.path.join(d, f)
            if os.path.isfile(p):
                with open(p, errors="replace") as fh:
                    n += fh.read().count(needle)
    return n


WORKLOADS = {
    "build": run_build,
    "query_serve": run_query_serve,
    "query_batch": run_query_batch,
    "curate": run_curate,
}


# ----------------------------------------------------------------------- main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    base = os.path.join(ROOT, ".pb")
    work = os.path.join(base, str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    # Ray's session directory holds its unix sockets, whose paths may not
    # exceed 107 bytes: with a deep checkout it goes to a short directory
    # in the system temp dir instead, removed the same way
    ray_dir = work
    if len(ray_dir) + SOCKET_SUFFIX_LEN > 107:
        ray_dir = tempfile.mkdtemp(prefix="pb")
    # Ray's workers import the package from the checkout, and temporary
    # files stay inside it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    ctx = Ctx(args, os.path.join(work, "w"), ray_dir)
    try:
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            _temp_dir=ray_dir,
        )
        ray.data.DataContext.get_current().enable_progress_bars = False
        ctx.meter.start()
        WORKLOADS[args.workload](ctx)
    finally:
        ctx.meter.stop()
        ray.shutdown()
        if ctx.trace:
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            ctx.tracer.dump(
                os.path.join(base, "traces", f"{args.workload}-seed{args.seed}.json")
            )
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)

    ctx.named["setup_s"] = (ctx.setup_s, "s")
    ctx.named["cpu_ms_per_item"] = (ctx.cpu_ms_per_item(), "ms")
    ctx.named["error_ratio"] = (ctx.failed / max(1, ctx.attempted), "ratio")
    for name, (value, unit) in ctx.named.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")

    if ctx.trace:
        metrics = {
            m["name"]: {"value": float(ctx.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        e2e = {
            "setup_s": ctx.setup_s,
            "cpu_ms_per_item": ctx.cpu_ms_per_item(),
            "peak_rss_mb": ctx.named.get("peak_rss_mb", (0.0, ""))[0],
        }
        metrics = {
            m["name"]: {"value": float(e2e[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(
        json.dumps(
            {
                "correct": ctx.failed == 0 and ctx.attempted > 0,
                "attempted": max(1, ctx.attempted),
                "failed": ctx.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
