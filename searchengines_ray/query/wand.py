"""Document-at-a-time block-max WAND for BM25 bag-of-words queries.

The scale path for top-k retrieval (SURVEY.md §7.2 milestone 5): an
*optimization* that must return EXACTLY the exhaustive top-k — it only skips
documents/blocks whose score upper bound provably cannot enter the heap.

Upper bounds come from the per-block metadata written at build time
(:mod:`searchengines_ray.index.encode`): ``tf/(tf + k1((1-b) + b*dl/avg))``
is monotone increasing in tf and decreasing in doclen, so
``idf * ub(max_tf_block, min_dl_block)`` bounds every posting in the block
without a post-build global pass.

Classic WAND loop (Broder et al. 2003; block-max variant Ding & Suel 2011):
sort term cursors by current docid; find the pivot term where the cumulative
upper bound reaches the heap threshold; if the leading cursors align on the
pivot doc, score it exactly (same float expression as the exhaustive path —
bit-identical results); otherwise advance a leading cursor past pivot-1,
using block max-docids to jump.

On corpora where whole posting lists are already decoded in memory, the
vectorized exhaustive path is faster below ~10^6 docs/segment; WAND wins
when lists are block-decoded lazily and k << matches.  Both paths are
exposed; equality is pinned by tests.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..index.shard import Segment
from ..models import BM25
from .exec import _EMPTY_F64, _EMPTY_I64, GlobalStats, topk_set


class _Cursor:
    __slots__ = (
        "docs", "tfs", "idx", "n", "idf", "k1", "b", "avg", "ub", "bm",
        "_block_ub", "_block_max_doc",
    )

    def __init__(self, pl, idf, k1, b, avg):
        self.docs = pl.docs
        self.tfs = pl.tfs
        self.idx = 0
        self.n = len(pl.docs)
        self.idf = idf
        self.k1 = k1
        self.b = b
        self.avg = avg
        self.bm = pl.bm
        # global term upper bound from block maxima
        if pl.bm is not None and len(pl.bm[1]):
            max_doc, max_tf, min_dl = pl.bm
            tf = max_tf.astype(np.float64)
            dl = min_dl.astype(np.float64)
            bub = idf * (tf / (tf + k1 * ((1.0 - b) + b * (dl / avg))))
            self.ub = float(bub.max())
            self._block_ub = bub
            self._block_max_doc = max_doc
        else:
            # no block metadata: no sound bound available -> never prune
            self.ub = math.inf
            self._block_ub = None
            self._block_max_doc = None

    def doc(self) -> int:
        return int(self.docs[self.idx]) if self.idx < self.n else 1 << 62

    def exhausted(self) -> bool:
        return self.idx >= self.n

    def advance_to(self, target: int) -> None:
        """galloping/binary advance to first doc >= target."""
        if self.idx >= self.n:
            return
        self.idx += int(
            np.searchsorted(self.docs[self.idx :], target, side="left")
        )

    def block_ub_at(self, doc: int) -> float:
        """Upper bound of the block containing the cursor position."""
        if self._block_ub is None:
            return self.ub
        b = int(np.searchsorted(self._block_max_doc, doc, side="left"))
        if b >= len(self._block_ub):
            return 0.0
        return float(self._block_ub[b])


def bm25_wand_topk(
    terms: list[tuple[str, str]],
    seg: Segment,
    g: GlobalStats,
    model: BM25,
    k: int,
    url_rank: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k for a BM25 bag-of-words query over one segment, as
    ``segment_topk`` returns it: ``(local docs, scores)``, unordered, with
    boundary ties broken by ``url_rank``.

    ``terms`` are (field, term) leaves in QUERY ORDER (duplicates allowed —
    each occurrence scores separately, as in #SUM).  Scoring order per doc is
    query order, matching the oracle's summation order bit-for-bit.
    """
    n = float(g.n_docs)
    k1, b = model.k_1, model.b
    cursors: list[_Cursor] = []
    idfs = []
    pls = []
    for field, term in terms:
        pl = seg.postings(field, term)
        df, _ = g.term_stats.get((field, term), (0, 0))
        if pl is None or df == 0:
            idfs.append(0.0)
            pls.append(None)
            continue
        num_field = float(g.doc_count[field])
        avg = float(g.sum_field_len[field]) / num_field
        idf = max(0.0, math.log((n - float(df) + 0.5) / (float(df) + 0.5)))
        idfs.append(idf)
        pls.append(pl)
        cursors.append(_Cursor(pl, idf, k1, b, avg))
    if not cursors:
        return _EMPTY_I64, _EMPTY_F64

    # threshold = k-th best (score, then url tie-break handled at merge by
    # keeping ties: use strictly-less skip condition so tied docs survive)
    heap: list[tuple[float, int]] = []  # (score, -??) min-heap by score

    doclen = {f: seg.doclen[f] for f in seg.doclen}

    def score_doc(doc: int) -> float:
        s = 0.0
        for (field, term), idf, pl in zip(terms, idfs, pls):
            if pl is None or idf is None:
                continue
            i = int(np.searchsorted(pl.docs, doc))
            if i < len(pl.docs) and pl.docs[i] == doc:
                tf = float(pl.tfs[i])
                dl = float(doclen[field][doc])
                num_field = float(g.doc_count[field])
                avg = float(g.sum_field_len[field]) / num_field
                s += idf * (
                    tf / (tf + k1 * ((1.0 - b) + b * (dl / avg)))
                )
        return s

    # EXACTNESS RULE: skip only when the upper bound is STRICTLY below the
    # current k-th score — docs tying the threshold must be scored, because
    # the final order tie-breaks on url ascending.
    threshold = -math.inf
    results: list[tuple[float, int]] = []
    while True:
        live = [c for c in cursors if not c.exhausted()]
        if not live:
            break
        live.sort(key=lambda c: c.doc())
        # pivot: smallest prefix whose ub sum can reach the threshold
        acc = 0.0
        pivot_i = None
        for i, c in enumerate(live):
            acc += c.ub
            if acc >= threshold:
                pivot_i = i
                break
        if pivot_i is None:
            break  # even all terms together fall strictly below threshold
        pivot_doc = live[pivot_i].doc()
        if live[0].doc() == pivot_doc:
            # tombstoned docs never score and never move the threshold —
            # identical to them not existing (deletes filter results only)
            if seg.dead is not None and seg.dead[pivot_doc]:
                for c in live:
                    if c.doc() == pivot_doc:
                        c.advance_to(pivot_doc + 1)
                continue
            # block-max refinement at the pivot doc
            block_acc = 0.0
            for c in live[: pivot_i + 1]:
                block_acc += c.block_ub_at(pivot_doc)
            if block_acc >= threshold:
                s = score_doc(pivot_doc)
                results.append((s, pivot_doc))
                if len(heap) < k:
                    heapq.heappush(heap, (s, pivot_doc))
                    if len(heap) == k:
                        threshold = heap[0][0]
                elif s > heap[0][0]:
                    heapq.heappushpop(heap, (s, pivot_doc))
                    threshold = heap[0][0]
            for c in live:
                if c.doc() == pivot_doc:
                    c.advance_to(pivot_doc + 1)
        else:
            # advance the first leading cursor to the pivot doc
            live[0].advance_to(pivot_doc)

    # assemble: the exact top-k set of every scored candidate
    scores = np.asarray([s for s, _ in results], dtype=np.float64)
    docs = np.asarray([d for _, d in results], dtype=np.int64)
    return topk_set(docs, scores, k, url_rank)
