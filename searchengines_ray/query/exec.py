"""Vectorized query evaluation over one searcher's segments.

The distributed engine's analog of the reference's DAAT loop
(``/root/reference/QryEval/QryEval.java:1172-1178``): instead of a per-doc
iterator protocol, each operator materializes numpy arrays over the
candidate docs of a :class:`~..index.shard.SegmentSet` (``seg`` below: a
searcher's segments read as one index, docs as searcher-wide rows) and
combines them with Arrow/numpy kernels.  A query is evaluated once per
searcher, not once per segment.

EXACT-FLOAT contract with the oracle (SURVEY.md §7.5): per-doc scores must be
bit-identical to :mod:`searchengines_ray.oracle`.  Rules observed here:

- idf / any ``log`` is computed ONCE per term as a Python scalar with
  ``math.log`` (numpy's SIMD log differs from libm in ULPs);
- vectorized arithmetic uses only ``+ - * /`` float64 elementwise ops with
  the SAME expression tree as the oracle (IEEE-identical);
- ``pow`` paths (Indri #AND/#WAND) call libm ``math.pow`` per element via
  ``_pow_arr`` (numpy's power also differs in ULPs) — slower, but those
  operators are not the flagship BM25 path;
- per-doc accumulation (#SUM/#WSUM) adds argument contributions in argument
  order, matching the oracle's summation order.

Statistics are GLOBAL (corpus-wide), supplied via :class:`GlobalStats`:
term df/ctf are the sums of the segments' own columns; composite-Iop
(#SYN/#NEAR/#WINDOW) df/ctf are the derived list's corpus-wide stats, which
the engine computes in a stats pass over all segments before scoring (the
reference evaluates the derived list over the whole corpus at once —
``InvList.java:163-178``).

Top-k selection (:func:`topk_set`) keeps a SET of ``(docs, scores)``
arrays: ``np.argpartition`` finds the k-th score, and only the rows tied
with it are ordered, by an integer url rank the caller supplies.  Urls
themselves stay in the searcher's Arrow column until the gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from ..index.shard import PostingList, SegmentSet
from ..models import BM25, Indri, RankedBoolean, RetrievalModel, UnrankedBoolean
from ..parser import Node
from ..positional import (
    near2_batch,
    nearN_batch,
    window2_batch,
    windowN_batch,
)


@dataclass
class GlobalStats:
    """The `Idx` statistics contract, corpus-wide (SURVEY.md §1.1)."""

    n_docs: int
    doc_count: dict
    sum_field_len: dict
    term_stats: dict = dc_field(default_factory=dict)  # (field,term)->(df,ctf)
    iop_stats: dict = dc_field(default_factory=dict)  # node_key->(df,ctf)

    def stats_of(self, node: Node) -> tuple[int, int]:
        if node.op == "term":
            return self.term_stats.get((node.field, node.term), (0, 0))
        return self.iop_stats[str(node)]


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_I32 = np.empty(0, dtype=np.int32)


class EvalIop:
    """Derived inverted list over a searcher's rows.

    ``docs`` are searcher rows (int64, ascending), ``tfs`` int64, and
    ``positions`` a flat int32 array sliced by ``offsets`` (int64,
    ``len(docs) + 1``).  A #SYN list holds its argument lists instead of
    positions and merges theirs on first read, as
    :class:`~..index.shard.PostingList` decodes on first read: only
    #NEAR and #WINDOW read positions.
    """

    __slots__ = ("field", "docs", "tfs", "_positions", "_offsets", "_syn")

    def __init__(self, field: str, docs, tfs, positions=None, syn=()):
        self.field = field
        self.docs = docs
        self.tfs = tfs
        self._positions = positions
        self._offsets = None
        self._syn = syn

    @property
    def positions(self) -> np.ndarray:
        if self._positions is None:
            # per doc: the arguments' positions, sorted
            kids = self._syn
            docs = np.concatenate(
                [np.repeat(k.docs, k.tfs.astype(np.int64)) for k in kids]
            )
            pos = np.concatenate([k.positions for k in kids])
            self._positions = pos[np.lexsort((pos, docs))].astype(np.int32)
        return self._positions

    @property
    def offsets(self) -> np.ndarray:
        if self._offsets is None:
            off = np.zeros(len(self.tfs) + 1, dtype=np.int64)
            np.cumsum(self.tfs, out=off[1:])
            self._offsets = off  # assigned whole: lists are shared
        return self._offsets

    def pos_of(self, i: int) -> np.ndarray:
        return self.positions[self.offsets[i] : self.offsets[i + 1]]

    @property
    def local_df(self) -> int:
        return len(self.docs)

    @property
    def local_ctf(self) -> int:
        return int(self.tfs.sum()) if len(self.tfs) else 0


def _empty_iop(field: str) -> EvalIop:
    return EvalIop(field, _EMPTY_I64, _EMPTY_I64, _EMPTY_I32)


def eval_iop(
    node: Node, seg: SegmentSet, cache: Optional[dict] = None
) -> EvalIop | PostingList:
    if node.op == "term":
        # the list itself: its positions are decoded only if an operator
        # reads them
        pl = seg.postings(node.field, node.term)
        return _empty_iop(node.field) if pl is None else pl

    # per-batch memo: the engine evaluates every composite Iop TWICE per
    # query batch (stats pass + scoring pass) — the derived list is
    # identical both times (index immutable within a batch)
    key = str(node) if cache is not None else None
    if key is not None and key in cache:
        return cache[key]

    kids = [eval_iop(a, seg, cache) for a in node.args]
    field = kids[0].field if kids else "body"

    def _done(ev: EvalIop) -> EvalIop:
        if key is not None:
            cache[key] = ev
        return ev

    if node.op == "syn":
        # docs: the union; tf: the sum of the arguments' tfs (one position
        # holds one term)
        if all(len(k.docs) == 0 for k in kids):
            return _done(_empty_iop(field))
        docs, inv = np.unique(
            np.concatenate([k.docs for k in kids]), return_inverse=True
        )
        tfs = np.zeros(len(docs), dtype=np.int64)
        np.add.at(tfs, inv, np.concatenate([k.tfs for k in kids]))
        return _done(EvalIop(field, docs, tfs, syn=kids))

    if node.op in ("near", "window"):
        if any(len(k.docs) == 0 for k in kids):
            return _done(_empty_iop(field))
        common = kids[0].docs
        for k in kids[1:]:
            common = np.intersect1d(common, k.docs, assume_unique=True)
        if len(common) == 0:
            return _done(_empty_iop(field))
        idxs = [
            np.searchsorted(k.docs, common) for k in kids
        ]  # position of each common doc in each kid
        # vectorized masked-step automata over ALL common docs at once
        # (byte-identical match sequences, fuzz-pinned against the scalar
        # kernels); the per-doc Python loop cost ~5s/query at 7.5M docs
        if len(kids) == 2:
            pa_flat, pa_off = _gather_positions(kids[0], idxs[0])
            pb_flat, pb_off = _gather_positions(kids[1], idxs[1])
            fn = near2_batch if node.op == "near" else window2_batch
            tfs_all, docs_emit, pos_emit = fn(
                pa_flat, pa_off, pb_flat, pb_off, node.dist
            )
        else:
            gathered = [
                _gather_positions(k, ix) for k, ix in zip(kids, idxs)
            ]
            flats = [g[0] for g in gathered]
            offs = [g[1] for g in gathered]
            fn = nearN_batch if node.op == "near" else windowN_batch
            tfs_all, docs_emit, pos_emit = fn(flats, offs, node.dist)
        hit = tfs_all > 0
        if not hit.any():
            return _done(_empty_iop(field))
        return _done(
            EvalIop(field, common[hit], tfs_all[hit], pos_emit.astype(np.int32))
        )
    raise ValueError(f"not an Iop: {node.op}")


def _gather_positions(k: EvalIop, rows: np.ndarray):
    """Flat positions + offsets for the given row indices of an EvalIop
    (vectorized gather via the repeat/cumsum range trick)."""
    starts = k.offsets[rows]
    lens = k.offsets[rows + 1] - starts
    total = int(lens.sum())
    off = np.concatenate(([0], np.cumsum(lens)))
    if total == 0:
        return np.empty(0, dtype=k.positions.dtype), off
    gather = (
        np.arange(total, dtype=np.int64)
        + np.repeat(starts - off[:-1], lens)
    )
    return k.positions[gather], off


def outer_iops(node: Node, out: dict) -> None:
    """``str(node) -> node`` for every outermost composite Iop of the tree:
    the keys of ``GlobalStats.iop_stats`` that scoring the tree reads
    (a nested composite is part of its parent's derived list)."""
    if node.op == "term":
        return
    if node.is_iop():
        out[str(node)] = node
        return
    for a in node.args:
        outer_iops(a, out)


def iter_term_keys(node: Node, out: set) -> None:
    if node.op == "term":
        out.add((node.field, node.term))
    for a in node.args:
        iter_term_keys(a, out)


def _pow_arr(base: np.ndarray, e: float) -> np.ndarray:
    """libm pow per element — bit-identical to the oracle's Python ``**``
    (np.power is NOT: it rounds differently on this libm/numpy pairing).

    Leaf scores are functions of (tf, dl) so they repeat heavily within a
    segment; pow runs once per UNIQUE value and scatters back — same bits,
    ~5x fewer libm calls on dense corpora."""
    if len(base) > 64:
        uniq, inv = np.unique(base, return_inverse=True)
        if len(uniq) <= len(base) // 2:
            vals = np.fromiter(
                (math.pow(float(b), e) for b in uniq), np.float64, len(uniq)
            )
            return vals[inv]
    return np.fromiter(
        (math.pow(float(b), e) for b in base), np.float64, len(base)
    )


@dataclass
class EvalSop:
    docs: np.ndarray  # int64 searcher row, sorted
    scores: np.ndarray  # float64
    default: Callable[[np.ndarray], np.ndarray]  # Indri no-match scores


def _zero_default(docs: np.ndarray) -> np.ndarray:
    return np.zeros(len(docs), dtype=np.float64)


def eval_sop(
    node: Node,
    seg: SegmentSet,
    g: GlobalStats,
    model: RetrievalModel,
    iop_cache: Optional[dict] = None,
) -> EvalSop:
    if node.is_iop():
        return _score_leaf(node, seg, g, model, iop_cache)
    kids = [eval_sop(a, seg, g, model, iop_cache) for a in node.args]
    indri = isinstance(model, Indri)
    op = node.op

    if op == "and" and not indri:
        docs = kids[0].docs
        for k in kids[1:]:
            docs = np.intersect1d(docs, k.docs, assume_unique=True)
        if isinstance(model, UnrankedBoolean):
            return EvalSop(docs, np.ones(len(docs)), _zero_default)
        scores = None
        for k in kids:  # min over args — order-free
            s = k.scores[np.searchsorted(k.docs, docs)]
            scores = s if scores is None else np.minimum(scores, s)
        if scores is None:
            scores = _EMPTY_F64
        return EvalSop(docs, scores, _zero_default)

    # min-match union candidates
    if kids:
        docs = kids[0].docs
        for k in kids[1:]:
            docs = np.union1d(docs, k.docs)
    else:
        docs = _EMPTY_I64

    def arg_scores(k: EvalSop, docs: np.ndarray) -> np.ndarray:
        """match -> score, else Indri default (vectorized)."""
        out = k.default(docs)
        if len(k.docs):
            pos = np.searchsorted(k.docs, docs)
            pos_c = np.minimum(pos, len(k.docs) - 1)
            hit = k.docs[pos_c] == docs
            out[hit] = k.scores[pos_c[hit]]
        return out

    weights = node.weights
    total_w = sum(weights) if weights else 0.0

    if op == "and":  # Indri geometric mean
        inv = 1.0 / len(kids)
        scores = None
        for k in kids:
            q = _pow_arr(arg_scores(k, docs), inv)
            scores = q if scores is None else scores * q

        def default(d, kids=kids, inv=inv):
            s = None
            for k in kids:
                q = _pow_arr(k.default(d), inv)
                s = q if s is None else s * q
            return s

        return EvalSop(docs, scores, default)

    if op == "or":
        if indri:
            prod = np.ones(len(docs))
            for k in kids:
                prod *= 1.0 - arg_scores(k, docs)
            scores = 1.0 - prod

            def default(d, kids=kids):
                p = np.ones(len(d))
                for k in kids:
                    p *= 1.0 - k.default(d)
                return 1.0 - p

            return EvalSop(docs, scores, default)
        if isinstance(model, UnrankedBoolean):
            return EvalSop(docs, np.ones(len(docs)), _zero_default)
        scores = np.full(len(docs), -np.inf)
        for k in kids:  # max of matching args
            pos = np.searchsorted(docs, k.docs)
            np.maximum.at(scores, pos, k.scores)
        return EvalSop(docs, scores, _zero_default)

    if op == "sum":
        if isinstance(model, BM25):
            w = ((model.k_3 + 1.0) * 1.0) / (model.k_3 + 1.0)
            scores = np.zeros(len(docs))
            for k in kids:  # arg order = oracle's summation order
                pos = np.searchsorted(docs, k.docs)
                scores[pos] += k.scores * w
            return EvalSop(docs, scores, _zero_default)
        scores = np.zeros(len(docs))
        for k in kids:
            scores += arg_scores(k, docs)

        def default(d, kids=kids):
            s = np.zeros(len(d))
            for k in kids:
                s += k.default(d)
            return s

        return EvalSop(docs, scores, default)

    if op == "wand":
        scores = None
        for k, w in zip(kids, weights):
            q = _pow_arr(arg_scores(k, docs), w / total_w)
            scores = q if scores is None else scores * q

        def default(d, kids=kids, weights=weights, total_w=total_w):
            s = None
            for k, w in zip(kids, weights):
                q = _pow_arr(k.default(d), w / total_w)
                s = q if s is None else s * q
            return s

        return EvalSop(docs, scores, default)

    if op == "wsum":
        if isinstance(model, BM25):
            scores = np.zeros(len(docs))
            for k, w in zip(kids, weights):
                pos = np.searchsorted(docs, k.docs)
                scores[pos] += k.scores * (
                    ((model.k_3 + 1.0) * w) / (model.k_3 + w)
                )
            return EvalSop(docs, scores, _zero_default)
        scores = np.zeros(len(docs))
        for k, w in zip(kids, weights):
            scores += arg_scores(k, docs) * (w / total_w)

        def default(d, kids=kids, weights=weights, total_w=total_w):
            s = np.zeros(len(d))
            for k, w in zip(kids, weights):
                s += k.default(d) * (w / total_w)
            return s

        return EvalSop(docs, scores, default)

    raise ValueError(f"Unknown Sop {op}")


def _score_leaf(
    node: Node,
    seg: SegmentSet,
    g: GlobalStats,
    model: RetrievalModel,
    iop_cache: Optional[dict] = None,
) -> EvalSop:
    iop = eval_iop(node, seg, iop_cache)
    field = iop.field
    df, ctf = g.stats_of(node)
    tf = iop.tfs.astype(np.float64)
    doclen = seg.doclen[field][iop.docs]

    if isinstance(model, BM25):
        if g.doc_count[field] == 0:
            # no document has the field: the leaf matches nothing
            return EvalSop(_EMPTY_I64, _EMPTY_F64, _zero_default)
        n = float(g.n_docs)
        num_field = float(g.doc_count[field])
        avg_len = float(g.sum_field_len[field]) / num_field
        idf = max(0.0, math.log((n - float(df) + 0.5) / (float(df) + 0.5)))
        tfw = tf / (
            tf + model.k_1 * ((1.0 - model.b) + model.b * (doclen / avg_len))
        )
        return EvalSop(iop.docs, idf * tfw, _zero_default)

    if isinstance(model, Indri):
        if g.sum_field_len[field] == 0:
            raise ValueError(
                f"Indri: field {field!r} is empty in every document, "
                "so its collection probability is undefined"
            )
        ctf_f = 0.5 if ctf == 0 else float(ctf)
        pqc = ctf_f / float(g.sum_field_len[field])
        mu, lam = model.mu, model.lam
        scores = (1.0 - lam) * ((tf + mu * pqc) / (doclen + mu)) + lam * pqc

        def default(d, field=field, pqc=pqc, mu=mu, lam=lam, seg=seg):
            dl = seg.doclen[field][d]
            return (1.0 - lam) * ((mu * pqc) / (dl + mu)) + lam * pqc

        return EvalSop(iop.docs, scores, default)

    if isinstance(model, RankedBoolean):
        return EvalSop(iop.docs, tf, _zero_default)
    return EvalSop(iop.docs, np.ones(len(iop.docs)), _zero_default)


def topk_set(
    docs: np.ndarray,
    scores: np.ndarray,
    k: Optional[int],
    url_rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k SET of ``(docs, scores)`` under the (score desc, url asc)
    composite key (``ScoreList.java:90-106``), as ``(docs, scores)`` in no
    particular order.  ``url_rank[d]`` is doc d's position in url order, so
    ties at the k boundary resolve on integers; rows scoring above the
    boundary never touch it."""
    if k is None:
        return docs, scores
    if k <= 0:
        return _EMPTY_I64, _EMPTY_F64
    if len(docs) <= k:
        return docs, scores
    part = np.argpartition(-scores, k - 1)
    thresh = scores[part[k - 1]]
    above = np.flatnonzero(scores > thresh)
    ties = np.flatnonzero(scores == thresh)
    need = k - len(above)
    if need < len(ties):
        ties = ties[np.argsort(url_rank[docs[ties]])[:need]]
    keep = np.concatenate([above, ties])
    return docs[keep], scores[keep]


def segment_topk(
    ev: EvalSop, seg: SegmentSet, k: Optional[int], url_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k set of a query evaluated over a searcher's segments:
    ``(rows, scores)``, unordered (the gather orders them).  ``url_rank``
    orders the rows by url."""
    docs, scores = ev.docs, ev.scores
    if seg.dead is not None and len(docs):
        # tombstoned docs drop BEFORE truncation (a deleted doc must not
        # displace a survivor from the top-k)
        alive = ~seg.dead[docs]
        docs, scores = docs[alive], scores[alive]
    return topk_set(docs, scores, k, url_rank)
