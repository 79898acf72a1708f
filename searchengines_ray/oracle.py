"""Single-process pure-Python oracle retrieval engine.

This is the *independent, obviously-correct* implementation of the reference's
semantics (SURVEY.md §5.2): a dict-based inverted index plus per-doc recursive
scoring, written for clarity, not speed.  The distributed Ray engine
(:mod:`searchengines_ray.query`) must produce EXACTLY the same docids, scores
(float-equal) and order under the (score desc, url asc) tie-break
(``/root/reference/QryEval/ScoreList.java:90-106``).

Operator semantics re-implemented from the reference (file:line citations):

- TERM fetch: ``QryEval/QryIopTerm.java:43-45``, ``InvList.java:109-154``.
- #SYN: docid union; positions concatenated in arg order then sorted
  (``QryEval/QryIopSyn.java:17-71``).
- #NEAR/n: docid intersection; cascading strictly-increasing alignment with
  adjacent gap <= n; emit rightmost; on match advance all location iterators,
  else advance the leftmost (``QryEval/QryIopNear.java:60-179``).
- #WINDOW/n: docid intersection; match when max-min < n (strict); emit max;
  on match advance all, else advance every iterator at the min
  (``QryEval/QryIopWindow.java:55-178``).
- Composite Iops expose the df/ctf OF THE DERIVED LIST
  (``QryEval/InvList.java:163-178``; consumed ``QrySopScore.java:64-76``).
- #SCORE leaf per model: ``QryEval/QrySopScore.java`` (BM25 78-90, Indri
  64-76, default 13-26, RankedBoolean 92-96, Unranked 1.0).
- #AND: Indri geometric mean w/ default-score fallback, others all-match min
  (``QryEval/QrySopAnd.java``); #OR: Indri 1-prod(1-s), others max of matching
  (``QrySopOr.java``); #SUM: BM25 sum of matching x (k3+1)/(k3+1), Indri sum
  (``QrySopSum.java:47-80``); #WAND: prod s_i^(w_i/W) (``QrySopWAnd.java``);
  #WSUM: Indri sum w_i/W x s_i, BM25 sum s_i x (k3+1)w_i/(k3+w_i)
  (``QrySopWSum.java:78-128``).

Documented deviation: Indri #SUM over a non-matching arg uses the arg's
default score (the reference reads the arg iterator's current doc — an
evaluation-order artifact; Indri's default wrapper is #AND so this path is
unreachable in reference runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Iterable, Optional

from .analysis import (
    AnalyzerConfig,
    DEFAULT_ANALYZER,
    FIELDS,
    derive_title,
    tokenize_positions,
    url_field_text,
)
from .models import BM25, Indri, RankedBoolean, RetrievalModel, UnrankedBoolean
from .parser import Node, parse_query
from .positional import near_positions, window_positions


# ----------------------------------------------------------------------------
# Index


@dataclass
class OracleIndex:
    """Dict-based in-memory index: the `Idx` statistics contract of
    ``/root/reference/QryEval/Idx.java:47-227`` (N, per-field docCount /
    sumFieldLen, per-(field,term) df/ctf, per-(doc,field) length, id maps)."""

    n_docs: int = 0
    # postings[field][term] = list[(doc_id, positions:list[int])], docid-asc
    postings: dict = dc_field(default_factory=dict)
    doclen: dict = dc_field(default_factory=dict)  # [field][doc_id] = int
    doc_count: dict = dc_field(default_factory=dict)  # [field] = int
    sum_field_len: dict = dc_field(default_factory=dict)  # [field] = int
    url_of: dict = dc_field(default_factory=dict)  # doc_id -> url
    # forward index for PRF/LTR: fwd[field][doc_id] = list[str|None]
    fwd: dict = dc_field(default_factory=dict)

    @classmethod
    def build(
        cls,
        docs: Iterable[dict],
        config: AnalyzerConfig = DEFAULT_ANALYZER,
        keep_forward: bool = False,
    ) -> "OracleIndex":
        """Build from doc dicts with keys ``doc_id, url`` and field texts
        (``body``; optional ``title/keywords/inlink`` — ``title`` defaults to
        the first line of body, ``url`` field to the tokenized url)."""
        idx = cls()
        for f in FIELDS:
            idx.postings[f] = {}
            idx.doclen[f] = {}
            idx.doc_count[f] = 0
            idx.sum_field_len[f] = 0
            idx.fwd[f] = {}
        for d in docs:
            doc_id = int(d["doc_id"])
            url = d["url"]
            idx.n_docs += 1
            idx.url_of[doc_id] = url
            body = d.get("body", d.get("text", "")) or ""
            fields = {
                "body": body,
                "title": d.get("title", derive_title(body)),
                "url": d.get("url_text", url_field_text(url)),
                "keywords": d.get("keywords", ""),
                "inlink": d.get("inlink", ""),
            }
            for f, text in fields.items():
                toks = tokenize_positions(text, config)
                if not toks:
                    continue
                idx.doc_count[f] += 1
                idx.doclen[f][doc_id] = len(toks)
                idx.sum_field_len[f] += len(toks)
                if keep_forward:
                    idx.fwd[f][doc_id] = toks
                per_term: dict[str, list[int]] = {}
                for pos, t in enumerate(toks):
                    if t is not None:
                        per_term.setdefault(t, []).append(pos)
                for t, positions in per_term.items():
                    idx.postings[f].setdefault(t, []).append(
                        (doc_id, positions)
                    )
        # docid-ascending posting order (append order is input order)
        for f in FIELDS:
            for t in idx.postings[f]:
                idx.postings[f][t].sort(key=lambda p: p[0])
        return idx

    def inv_list(self, field: str, term: str) -> list[tuple[int, list[int]]]:
        return self.postings.get(field, {}).get(term, [])


# ----------------------------------------------------------------------------
# Iop evaluation -> derived inverted lists


@dataclass
class EvaluatedIop:
    field: str
    postings: list  # [(doc_id, positions)] docid-asc

    @property
    def df(self) -> int:
        return len(self.postings)

    @property
    def ctf(self) -> int:
        return sum(len(p) for _, p in self.postings)


def eval_iop(node: Node, idx: OracleIndex) -> EvaluatedIop:
    if node.op == "term":
        return EvaluatedIop(node.field, idx.inv_list(node.field, node.term))
    child = [eval_iop(a, idx) for a in node.args]
    field = child[0].field if child else "body"
    if node.op == "syn":
        merged: dict[int, list[int]] = {}
        for c in child:
            for doc, pos in c.postings:
                merged.setdefault(doc, []).extend(pos)
        out = [(doc, sorted(ps)) for doc, ps in sorted(merged.items())]
        return EvaluatedIop(field, out)
    if node.op in ("near", "window"):
        n = node.dist
        maps = [dict(c.postings) for c in child]
        if any(not m for m in maps):
            return EvaluatedIop(field, [])
        common = sorted(set.intersection(*(set(m) for m in maps)))
        out = []
        for doc in common:
            plists = [m[doc] for m in maps]
            locs = (
                near_positions(plists, n)
                if node.op == "near"
                else window_positions(plists, n)
            )
            if locs:
                out.append((doc, locs))
        return EvaluatedIop(field, out)
    raise ValueError(f"not an Iop: {node.op}")


# ----------------------------------------------------------------------------
# Sop evaluation -> per-doc scores


@dataclass
class EvaluatedSop:
    """Match scores plus an Indri default-score function for non-matches."""

    matches: dict  # doc_id -> score
    default: Callable[[int], float]  # Indri smoothed no-match score


def _bm25_leaf(iop: EvaluatedIop, idx: OracleIndex, m: BM25) -> dict:
    n = float(idx.n_docs)
    df = float(iop.df)
    field = iop.field
    if idx.doc_count[field] == 0:
        return {}  # no document has the field: the leaf matches nothing
    num_field = float(idx.doc_count[field])
    avg_len = float(idx.sum_field_len[field]) / num_field
    idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5)))
    out = {}
    for doc, pos in iop.postings:
        tf = float(len(pos))
        doclen = float(idx.doclen[field].get(doc, 0))
        tfw = tf / (tf + m.k_1 * ((1.0 - m.b) + m.b * (doclen / avg_len)))
        out[doc] = idf * tfw
    return out


def _indri_pqc(iop: EvaluatedIop, idx: OracleIndex) -> float:
    if idx.sum_field_len[iop.field] == 0:
        raise ValueError(
            f"Indri: field {iop.field!r} is empty in every document, "
            "so its collection probability is undefined"
        )
    ctf = float(iop.ctf)
    if ctf == 0.0:
        ctf = 0.5
    return ctf / float(idx.sum_field_len[iop.field])


def eval_sop(
    node: Node, idx: OracleIndex, model: RetrievalModel
) -> EvaluatedSop:
    if node.is_iop():
        return _score_leaf(node, idx, model)
    kids = [eval_sop(a, idx, model) for a in node.args]
    indri = isinstance(model, Indri)
    op = node.op

    if op == "and" and not indri:
        # all-match intersection (QrySopAnd.java:51-57,121-169)
        docs = set.intersection(*(set(k.matches) for k in kids)) if kids else set()
        if isinstance(model, UnrankedBoolean):
            matches = {d: 1.0 for d in docs}
        else:
            matches = {d: min(k.matches[d] for k in kids) for d in docs}
        return EvaluatedSop(matches, lambda doc: 0.0)

    # every other case is min-match over the union of arg matches
    docs = sorted(set().union(*(set(k.matches) for k in kids))) if kids else []

    def arg_score(k: EvaluatedSop, d: int) -> float:
        if d in k.matches:
            return k.matches[d]
        return k.default(d)

    matches: dict[int, float] = {}
    weights = node.weights
    total_w = sum(weights) if weights else 0.0

    if op == "and":  # Indri geometric mean (QrySopAnd.java:83-118)
        inv = 1.0 / len(kids)
        for d in docs:
            s = None
            for k in kids:
                q = arg_score(k, d) ** inv
                s = q if s is None else s * q
            matches[d] = s

        def default(d, kids=kids, inv=inv):
            s = None
            for k in kids:
                q = k.default(d) ** inv
                s = q if s is None else s * q
            return s

        return EvaluatedSop(matches, default)

    if op == "or":
        if indri:  # 1 - prod(1-s) (QrySopOr.java:46-79)
            for d in docs:
                prod = 1.0
                for k in kids:
                    prod *= 1.0 - arg_score(k, d)
                matches[d] = 1.0 - prod

            def default(d, kids=kids):
                prod = 1.0
                for k in kids:
                    prod *= 1.0 - k.default(d)
                return 1.0 - prod

            return EvaluatedSop(matches, default)
        if isinstance(model, UnrankedBoolean):
            return EvaluatedSop({d: 1.0 for d in docs}, lambda doc: 0.0)
        for d in docs:  # max of matching args (QrySopOr.java:81-151)
            matches[d] = max(k.matches[d] for k in kids if d in k.matches)
        return EvaluatedSop(matches, lambda doc: 0.0)

    if op == "sum":  # QrySopSum.java:47-80
        if isinstance(model, BM25):
            w = ((model.k_3 + 1.0) * 1.0) / (model.k_3 + 1.0)
            for d in docs:
                s = 0.0
                for k in kids:
                    if d in k.matches:
                        s += k.matches[d] * w
                matches[d] = s
            return EvaluatedSop(matches, lambda doc: 0.0)
        for d in docs:  # Indri / Boolean: plain sum (with default fallback)
            matches[d] = sum(arg_score(k, d) for k in kids)

        def default(d, kids=kids):
            return sum(k.default(d) for k in kids)

        return EvaluatedSop(matches, default)

    if op == "wand":  # prod s_i^(w_i/W) (QrySopWAnd.java:86-121)
        for d in docs:
            s = None
            for k, w in zip(kids, weights):
                q = arg_score(k, d) ** (w / total_w)
                s = q if s is None else s * q
            matches[d] = s

        def default(d, kids=kids, weights=weights, total_w=total_w):
            s = None
            for k, w in zip(kids, weights):
                q = k.default(d) ** (w / total_w)
                s = q if s is None else s * q
            return s

        return EvaluatedSop(matches, default)

    if op == "wsum":  # QrySopWSum.java:78-128
        if isinstance(model, BM25):
            for d in docs:
                s = 0.0
                for k, w in zip(kids, weights):
                    if d in k.matches:
                        s += k.matches[d] * (
                            ((model.k_3 + 1.0) * w) / (model.k_3 + w)
                        )
                matches[d] = s
            return EvaluatedSop(matches, lambda doc: 0.0)
        for d in docs:
            s = 0.0
            for k, w in zip(kids, weights):
                s += arg_score(k, d) * (w / total_w)
            matches[d] = s

        def default(d, kids=kids, weights=weights, total_w=total_w):
            return sum(
                k.default(d) * (w / total_w) for k, w in zip(kids, weights)
            )

        return EvaluatedSop(matches, default)

    raise ValueError(f"Unknown Sop {op}")


def _score_leaf(
    node: Node, idx: OracleIndex, model: RetrievalModel
) -> EvaluatedSop:
    """The implicit #SCORE operator over an Iop (``QrySopScore.java``)."""
    iop = eval_iop(node, idx)
    if isinstance(model, BM25):
        return EvaluatedSop(_bm25_leaf(iop, idx, model), lambda doc: 0.0)
    if isinstance(model, Indri):
        pqc = _indri_pqc(iop, idx)
        field = iop.field
        mu, lam = model.mu, model.lam
        matches = {}
        for doc, pos in iop.postings:
            tf = float(len(pos))
            doclen = float(idx.doclen[field].get(doc, 0))
            matches[doc] = (1.0 - lam) * (
                (tf + mu * pqc) / (doclen + mu)
            ) + lam * pqc

        def default(doc, field=field, pqc=pqc, mu=mu, lam=lam, idx=idx):
            doclen = float(idx.doclen[field].get(doc, 0))
            return (1.0 - lam) * ((mu * pqc) / (doclen + mu)) + lam * pqc

        return EvaluatedSop(matches, default)
    if isinstance(model, RankedBoolean):
        return EvaluatedSop(
            {doc: float(len(pos)) for doc, pos in iop.postings},
            lambda doc: 0.0,
        )
    # UnrankedBoolean
    return EvaluatedSop(
        {doc: 1.0 for doc, _ in iop.postings}, lambda doc: 0.0
    )


# ----------------------------------------------------------------------------
# Query execution + ranking


def rank(
    matches: dict, url_of: dict, k: Optional[int] = None
) -> list[tuple[int, str, float]]:
    """Sort by (score desc, url asc) — ``ScoreList.java:90-106`` — truncate to
    k.  Returns [(doc_id, url, score)]."""
    rows = sorted(
        ((d, url_of[d], s) for d, s in matches.items()),
        key=lambda r: (-r[2], r[1]),
    )
    return rows[:k] if k is not None else rows


def run_query(
    idx: OracleIndex,
    query: str,
    model: RetrievalModel,
    k: Optional[int] = 10,
    config: AnalyzerConfig = DEFAULT_ANALYZER,
) -> list[tuple[int, str, float]]:
    """Parse + evaluate + rank one raw query string."""
    tree = parse_query(query, model.default_op, config)
    if tree is None:
        return []
    ev = eval_sop(tree, idx, model)
    return rank(ev.matches, idx.url_of, k)
