"""Distributed query serving: segment-holding actor pool + scatter/gather.

The Ray analog of the reference's static ``Idx.INDEXREADER``
(``QryEval/Idx.java:32``): each searcher actor (a :class:`LocalSearcher`
under ``ray.remote``) memory-maps its assigned segments ONCE in
``__init__`` (never per query), reads them as one index
(:class:`~..index.shard.SegmentSet`) and serves each query's top-k over
all of them; the driver scatters parsed query trees to all actors and
merges their top-k sets under the (score desc, url asc) key — the
scatter/gather architecture of SURVEY.md §3.4.

Hits travel as columns, never as per-row tuples:
- a searcher evaluates each query ONCE over its segment set, whose rows
  are its segments' docs in segment order, and its scorer returns
  ``(rows, scores)`` arrays (:func:`~.exec.segment_topk`); every query is
  scored exhaustively, document-complete, as the reference scores it
  (``QryEval/Qry.java:16-31``);
- a searcher holds one url column, one doc_id array and one integer url
  rank over all of its rows, keeps each query's top-k set with ties at
  the boundary broken on that rank, and returns ONE :class:`Hits` per
  batch (per-query counts, ``doc_id``, ``url``, ``score``);
- the driver concatenates the searchers' columns, makes one stable Arrow
  sort by (query, score desc, url asc) — the only url-string comparison —
  and builds the DataFrame from columns.

Global statistics flow (the driver builds one :class:`GlobalStats` per
batch, covering only the batch's query keys, never the vocabulary):
- corpus stats (N, docCount, sumFieldLen) from ``stats.json``;
- per-term df/ctf for exactly the batch's (field, term) keys; keys absent
  from the index are left out (readers default them).  Global df/ctf are
  the sum of the segments' own postings columns; nothing else stores
  them.  Each key is looked up once per engine and memoized
  (``_term_memo``, absent keys too); a batch's new keys are looked up
  together.  Below ``FULL_TERMSTATS_MAX_POSTINGS`` postings the engine
  sums the whole vocabulary once at start-up, while the actors start
  (``load_termstats``: a sorted Arrow (field, term, df, ctf) table), and
  new keys are binary-searched in it with the segments' own
  :class:`~..index.shard.TermDict`; at or above it, a dfs phase sums the
  actors' shard-local dictionary stats for the new keys;
- composite-Iop (#SYN/#NEAR/#WINDOW) derived df/ctf via a stats pass: every
  actor evaluates the derived lists over its segment set and returns
  (df,ctf) partials, summed on the driver — matching the reference's
  whole-corpus derived lists (``InvList.java:163-178``).  Keyed by the
  Iop's string form and memoized across batches like the term keys: the
  segments are fixed for the engine's life and tombstones filter hits,
  not statistics.  Within a searcher the derived lists themselves are
  cached in ONE Iop cache per searcher (``LocalSearcher._cache``), which
  the stats pass and the scoring pass of a batch share.

Transport: Ray places the searcher actors, reserves one CPU for each and
kills them, but carries no query traffic.  At start-up each actor opens a
listening socket (:meth:`LocalSearcher.listen`, one Ray call) and the
driver connects to it once, with a per-engine random authkey; the listener
closes after that first authenticated connection.  Every searcher call is
then ONE stdlib-pickled ``(method, args)`` request, pickled once per
scatter and written to every connection, and ONE reply: a tag byte plus
the pickled result, or the pickled exception, which the driver re-raises
with its own type.  Ray's per-call task machinery cost more CPU than the
scoring it carried (a two-actor no-op call 2.5 ms).  Both ends set
TCP_NODELAY: ``Connection.send_bytes`` writes the header and the body of a
message over 16 KB as two sends, and Nagle's algorithm with delayed ACKs
stalls each such message ~40 ms.  An actor binds on its node's IP, so a
searcher on another node needs that port reachable from the driver (only
single-node sessions are tested).

A searcher process imports neither pandas nor ``pyarrow.dataset``
(``index/shard.py``); pandas is imported inside :meth:`search_batch`, on
the driver.

Queries are batched: one scatter serves a whole query file, so the
per-round-trip overhead amortizes (the reference processes queries one at a
time in a single JVM — ``QryEval.java:1375-1419``).
"""

from __future__ import annotations

import os
import pickle
import secrets
import socket
import threading
import traceback
from multiprocessing.connection import (
    AuthenticationError,
    Client,
    Connection,
    Listener,
)
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..analysis import AnalyzerConfig, DEFAULT_ANALYZER
from ..index.shard import (
    Segment,
    SegmentSet,
    TermDict,
    arrow_indices,
    load_stats,
    load_termstats,
    load_tombstones,
    segment_dirs,
    values,
)
from ..models import RetrievalModel
from ..parser import Node, parse_query
from .exec import (
    _EMPTY_F64,
    _EMPTY_I64,
    GlobalStats,
    eval_iop,
    eval_sop,
    iter_term_keys,
    outer_iops,
    segment_topk,
)

if TYPE_CHECKING:
    import pandas as pd

# below this many postings the driver sums every segment's df/ctf columns
# once; at or above it, each new key goes through the dfs phase
FULL_TERMSTATS_MAX_POSTINGS = 2_000_000

# the tag byte that starts every reply on a searcher connection
_OK, _FAILED = b"\x00", b"\x01"

# the gather's one ordering of a batch's hits
_SORT_COLS = ["qi", "score", "url"]
_SORT_KEYS = [
    ("qi", "ascending"),
    ("score", "descending"),
    ("url", "ascending"),
]


class Hits(NamedTuple):
    """A query batch's hits as columns: query i owns the next ``counts[i]``
    rows, in query order."""

    counts: np.ndarray  # int64, one per query
    doc_id: np.ndarray  # int64
    url: pa.Array  # string
    score: np.ndarray  # float64


def _sum_partials(parts: Sequence[dict]) -> dict:
    """Key-wise sum of per-searcher (df, ctf) partials."""
    merged: dict = {}
    for p in parts:
        for key, (df, ctf) in p.items():
            d0, c0 = merged.get(key, (0, 0))
            merged[key] = (d0 + df, c0 + ctf)
    return merged


def _nodelay(conn: Connection) -> Connection:
    """Turns off Nagle's algorithm on the connection's TCP socket (see the
    module docstring)."""
    with socket.fromfd(conn.fileno(), socket.AF_INET, socket.SOCK_STREAM) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _pickled_error(e: Exception) -> bytes:
    """``e`` pickled with this process's traceback as a note; an exception
    that does not survive a pickle round trip is sent as a RuntimeError."""
    tb = traceback.format_exc()
    e.add_note(f"raised in searcher process {os.getpid()}:\n{tb}")
    try:
        body = pickle.dumps(e, protocol=5)
        pickle.loads(body)
        return body
    except Exception:
        return pickle.dumps(RuntimeError(tb), protocol=5)


class LocalSearcher:
    """Evaluates queries over a set of segments in-process.

    Used standalone for tests/small corpora, and as the worker core inside
    each searcher actor.
    """

    def __init__(
        self,
        index_dir: str,
        seg_dirs: Optional[Sequence[str]] = None,
    ):
        self.index_dir = index_dir
        self.stats = load_stats(index_dir)
        dirs = list(seg_dirs) if seg_dirs is not None else segment_dirs(index_dir)
        self.segments = [Segment(d) for d in dirs]
        # the segments read as one index of searcher-wide doc rows; hits
        # travel as row indices until search_trees gathers their columns
        self.reader = SegmentSet(self.segments, load_tombstones(index_dir))
        # each row's position in url order: ties at the k boundary break
        # on integers
        urls = self.reader.urls
        self._url_rank = np.empty(len(urls), dtype=np.int64)
        self._url_rank[values(pc.sort_indices(urls), np.int64)] = np.arange(
            len(urls)
        )
        # composite-Iop memo: one PERSISTENT cache (see _cache — size-
        # bounded, evicted only at batch boundaries); the stats pass, the
        # scoring pass, and warm repeat batches share one evaluation
        self._iop_token = None
        self._iop_cache: dict = {}

    def term_stats_partial(self, keys: Sequence[tuple]) -> dict:
        """Shard-local (df, ctf) sums for the given (field, term) keys — the
        'dfs phase' of distributed global statistics (dictionary lookups
        only; no posting decode)."""
        df = np.zeros(len(keys), dtype=np.int64)
        ctf = np.zeros(len(keys), dtype=np.int64)
        for seg in self.segments:
            d, c = seg.local_stats(keys)
            df += d
            ctf += c
        return {
            key: (d, c)
            for key, d, c in zip(keys, df.tolist(), ctf.tolist())
            if d
        }

    def _cache(self, token) -> Optional[dict]:
        if token is None:
            return None
        # PERSISTENT across batches (a warm server re-serving a positional
        # query must not re-decode its position lists): entries are keyed
        # by the op subtree's string form, which is deterministic, so
        # reuse is always exact.  Bounded: evict wholesale past 256
        # distinct op shapes (entries are doc/position arrays over the
        # searcher's rows — memory ∝ shapes x searcher size) — but ONLY
        # at a batch boundary (token change): the stats pass and the
        # scoring pass of one batch must share their entries, or every
        # composite op is evaluated twice per batch.
        if token != self._iop_token:
            self._iop_token = token
            if len(self._iop_cache) > 256:
                self._iop_cache = {}
        return self._iop_cache

    def call(self, request: bytes) -> bytes:
        """The actor entry point of every scatter: ``request`` is a pickled
        ``(method, args)``; the reply is the pickled result."""
        method, args = pickle.loads(request)
        return pickle.dumps(getattr(self, method)(*args), protocol=5)

    def listen(self, authkey: bytes) -> tuple:
        """Opens this searcher's request socket on the node's IP and returns
        its address.  A daemon thread accepts connections until the first
        that authenticates with ``authkey``, closes the listener and then
        serves :meth:`call` on that connection until the peer closes it."""
        import ray.util

        listener = Listener((ray.util.get_node_ip_address(), 0), authkey=authkey)
        self._server = threading.Thread(
            target=self._serve, args=(listener,), daemon=True
        )
        self._server.start()
        return listener.address

    def _serve(self, listener: Listener) -> None:
        with listener:
            while True:
                try:
                    conn = listener.accept()
                    break
                except (AuthenticationError, EOFError, ConnectionError):
                    continue  # a peer without the key, or one that left
        with _nodelay(conn):
            try:
                while True:
                    request = conn.recv_bytes()
                    try:
                        reply = _OK + self.call(request)
                    except Exception as e:
                        reply = _FAILED + _pickled_error(e)
                    conn.send_bytes(reply)
            except (EOFError, OSError):
                return  # the engine closed its end

    def iop_stats_partial(
        self, trees: Sequence[Optional[Node]], token=None
    ) -> dict:
        """Shard-local derived (df, ctf) of every distinct outermost
        composite Iop of the trees, keyed by its string form: an Iop that
        several trees share, or one tree repeats, counts once."""
        iops: dict = {}
        for tree in trees:
            if tree is not None:
                outer_iops(tree, iops)
        cache = self._cache(token)
        out: dict = {}
        for key, node in iops.items():
            ev = eval_iop(node, self.reader, cache)
            out[key] = (ev.local_df, ev.local_ctf)
        return out

    def term_vectors(
        self, doc_ids: Sequence[int], field: str
    ) -> dict[int, list[str]]:
        """Forward-index (term vector) fetch for docs held by MY segments
        (requires the index to be built with keep_forward=True); a doc
        with no entry for the field is left out."""
        return {
            d: terms
            for seg in self.segments
            for d, _, terms in seg.term_vectors(doc_ids, field)
        }

    def search_trees(
        self,
        trees: Sequence[Optional[Node]],
        g: GlobalStats,
        model: RetrievalModel,
        k: Optional[int],
        token=None,
    ) -> Hits:
        """Per-query partial top-k over THIS searcher's segments, as the
        columns of one :class:`Hits` for the whole batch (each query's top-k
        set, unordered — the gather orders it).  Each query is evaluated
        once, over the segments read as one index."""
        counts = np.zeros(len(trees), dtype=np.int64)
        rows, scores = [_EMPTY_I64], [_EMPTY_F64]
        cache = self._cache(token)
        for qi, tree in enumerate(trees):
            if tree is None:
                continue
            ev = eval_sop(tree, self.reader, g, model, cache)
            d, sc = segment_topk(ev, self.reader, k, self._url_rank)
            counts[qi] = len(d)
            rows.append(d)
            scores.append(sc)
        rows = np.concatenate(rows)
        return Hits(
            counts,
            self.reader.doc_ids[rows],
            self.reader.urls.take(arrow_indices(rows)),
            np.concatenate(scores),
        )


class SearchEngine:
    """Scatter/gather engine over a segment-sharded index.

    ``num_searchers`` actors each own ``len(segments)/num_searchers``
    segments (round-robin).  With ``num_searchers=0`` everything runs
    in-process (no Ray needed) — used by unit tests and the oracle-equality
    harness.  Safe to call from several threads.  Dropping the engine
    closes its connections, which ends each actor's serving thread, and
    releases its actor handles, which lets Ray end the actors.
    """

    def __init__(
        self,
        index_dir: str,
        num_searchers: int = 0,
        config: AnalyzerConfig = DEFAULT_ANALYZER,
    ):
        self.index_dir = index_dir
        self.config = config
        self.stats = load_stats(index_dir)
        # below the limit: the driver's summed (field, term, df, ctf)
        # table as (TermDict, df, ctf); None: the dfs phase
        self._termstats: Optional[tuple] = None
        # (field, term) -> (df, ctf), or None when absent; across batches
        self._term_memo: dict = {}
        # str(composite Iop) -> derived (df, ctf); across batches
        self._iop_memo: dict = {}
        self._local: Optional[LocalSearcher] = None
        self._actors: list = []
        # one connection per actor, in actor order; the lock keeps each
        # scatter's requests and replies together across threads
        self._conns: list[Connection] = []
        self._addrs: list[tuple] = []
        self._lock = threading.Lock()
        dirs = segment_dirs(index_dir)
        # an index without segments runs in-process: no actor to start
        if num_searchers and num_searchers > 0 and dirs:
            import ray

            shards: list[list[str]] = [[] for _ in range(num_searchers)]
            for i, d in enumerate(dirs):
                shards[i % num_searchers].append(d)
            actor_cls = ray.remote(num_cpus=1)(LocalSearcher)
            self._actors = [actor_cls.remote(index_dir, s) for s in shards if s]
            authkey = secrets.token_bytes(32)
            addrs = [a.listen.remote(authkey) for a in self._actors]
            self._sum_vocabulary()  # while the actors start
            self._addrs = ray.get(addrs)
            self._conns = [
                _nodelay(Client(addr, authkey=authkey)) for addr in self._addrs
            ]
        else:
            self._local = LocalSearcher(index_dir, dirs)
            self._sum_vocabulary()

    # ------------------------------------------------------------------ stats

    def _sum_vocabulary(self) -> None:
        """Below ``FULL_TERMSTATS_MAX_POSTINGS`` postings, sums every
        segment's df/ctf columns once into the table that serves each new
        key."""
        if self.stats.get("n_postings", 0) < FULL_TERMSTATS_MAX_POSTINGS:
            tbl = load_termstats(self.index_dir)
            self._termstats = (
                TermDict(tbl.column("field"), tbl.column("term")),
                values(tbl.column("df"), np.int64),
                values(tbl.column("ctf"), np.int64),
            )

    def _term_stats(self, keys: set) -> dict:
        """Global (field, term) -> (df, ctf) for exactly ``keys``; keys
        absent from the index are left out.  Each key is looked up once
        per engine, in one batch with the call's other new keys."""
        memo = self._term_memo
        missing = sorted(k for k in keys if k not in memo)
        if missing:
            memo.update(zip(missing, self._lookup(missing)))
        return {k: memo[k] for k in keys if memo[k] is not None}

    def _lookup(self, keys: list) -> list:
        """Global (df, ctf) of each key, None where absent: from the summed
        table, or by the 'dfs phase', one scatter that sums the searchers'
        shard-local dictionary stats."""
        if self._termstats is None:
            got = _sum_partials(self._scatter("term_stats_partial", keys))
            return [got.get(k) for k in keys]
        terms, df, ctf = self._termstats
        return [
            (int(df[r]), int(ctf[r])) if r >= 0 else None
            for r in terms.rows(keys).tolist()
        ]

    def _scatter(self, method: str, *args) -> list:
        """``method(*args)`` on every searcher; one result per searcher.

        The request is pickled once and written to every actor's connection
        before any reply is read, so the actors work in parallel; the
        in-process searcher is called directly.  An exception raised in a
        searcher is re-raised here with its own type."""
        if not self._conns:
            return [getattr(self._local, method)(*args)]
        request = pickle.dumps((method, args), protocol=5)
        with self._lock:
            replies = self._round_trip(request)
        out = []
        for reply in replies:
            body = pickle.loads(memoryview(reply)[1:])
            if reply[:1] == _FAILED:
                raise body
            out.append(body)
        return out

    def _round_trip(self, request: bytes) -> list[bytes]:
        i, replies = 0, []
        try:
            for i, conn in enumerate(self._conns):
                conn.send_bytes(request)
            for i, conn in enumerate(self._conns):
                replies.append(conn.recv_bytes())
        except (EOFError, OSError) as e:
            raise ConnectionError(
                f"searcher {i} of {len(self._conns)} at {self._addrs[i]} "
                f"is unreachable: {e!r}"
            ) from e
        finally:
            if len(replies) < len(self._conns):
                # a failure or an interrupt left requests and replies out
                # of step: no later scatter may use any connection
                for conn in self._conns:
                    conn.close()
        return replies

    def global_stats_for(
        self, trees: Sequence[Optional[Node]], token=None
    ) -> GlobalStats:
        keys: set = set()
        for t in trees:
            if t is not None:
                iter_term_keys(t, keys)
        g = GlobalStats(
            n_docs=self.stats["n_docs"],
            doc_count=self.stats["doc_count"],
            sum_field_len=self.stats["sum_field_len"],
            term_stats=self._term_stats(keys),
        )
        iops: dict = {}
        for t in trees:
            if t is not None:
                outer_iops(t, iops)
        memo = self._iop_memo
        missing = [node for key, node in iops.items() if key not in memo]
        if missing:
            # stats pass for the Iops no earlier batch has summed
            parts = self._scatter("iop_stats_partial", missing, token)
            memo.update(_sum_partials(parts))
        g.iop_stats = {key: memo[key] for key in iops if key in memo}
        return g

    # ----------------------------------------------------------------- search

    def search_batch(
        self,
        queries: Sequence[tuple[str, str]],
        model: RetrievalModel,
        k: Optional[int] = 10,
    ) -> pd.DataFrame:
        """Run a batch of ``(qid, raw_query)`` pairs.

        Returns a DataFrame ``qid, doc_id, url, score, rank`` (rank 1-based),
        ordered per query by (score desc, url asc) and truncated to k —
        rank-identical to the oracle.
        """
        import uuid

        import pandas as pd

        trees = [
            parse_query(text, model.default_op, self.config)
            for _, text in queries
        ]
        # fresh token = batch boundary marker for the persistent Iop cache
        # (eviction happens only when the token CHANGES — see _cache)
        token = uuid.uuid4().hex
        # g covers only this batch's keys and rides in the scatter's one
        # pickled request, written once to each searcher's connection
        g = self.global_stats_for(trees, token)
        parts = self._scatter("search_trees", trees, g, model, k, token)

        # gather: one stable sort by (query asc, score desc, url asc); a
        # hit's rank is its position within its query
        qi = np.concatenate(
            [np.repeat(np.arange(len(queries)), p.counts) for p in parts]
        )
        score = np.concatenate([p.score for p in parts])
        url = pa.concat_arrays([p.url for p in parts])
        order = pc.sort_indices(
            pa.RecordBatch.from_arrays([qi, score, url], _SORT_COLS),
            sort_keys=_SORT_KEYS,
        ).to_numpy()
        qi = qi[order]
        rank = np.arange(1, len(qi) + 1) - np.searchsorted(qi, qi)
        if k is not None:
            keep = rank <= k
            order, qi, rank = order[keep], qi[keep], rank[keep]
        qids = np.array([qid for qid, _ in queries], dtype=object)
        return pd.DataFrame(
            {
                "qid": qids[qi],
                "doc_id": np.concatenate([p.doc_id for p in parts])[order],
                "url": url.to_numpy(zero_copy_only=False)[order],
                "score": score[order],
                "rank": rank,
            },
            copy=False,
        )

    def search(
        self, query: str, model: RetrievalModel, k: Optional[int] = 10
    ) -> pd.DataFrame:
        return self.search_batch([("q", query)], model, k)

    def term_vectors(
        self, doc_ids: Sequence[int], field: str
    ) -> dict[int, list[str]]:
        """Scatter/gather forward-index fetch (doc-sharded: each actor owns
        the vectors of its segments' docs)."""
        out: dict[int, list[str]] = {}
        for p in self._scatter("term_vectors", list(doc_ids), field):
            out.update(p)
        return out

    def term_stats_for(self, keys: list) -> dict:
        """Global (field,term) -> (df, ctf) for the given keys; keys absent
        from the index are left out."""
        return self._term_stats(set(keys))
