"""Learning-to-rank: feature extraction, training, re-ranking.

Feature semantics are an exact port of the reference's 20-feature extractor
(``/root/reference/QryEval/QryEval.java:560-883``):

f1 spamScore, f2 urlDepth ('/' count in rawUrl), f3 fromWikipedia,
f4 PageRank (f1/f4 null when the attribute is absent — our pages carry no
spam/pagerank attributes unless provided);
f5-f16: {BM25 score, Indri score, match count} x {body,title,url,inlink},
computed FROM TERM VECTORS (``featurePair``, ``QryEval.java:605-704``):
  - BM25 term formula with N = whole-corpus numDocs (``QryEval.java:589-594``),
  - Indri geometric mean with exponent 1/|distinct query tokens|; zero-match
    => score 0 (``QryEval.java:668-670``),
  - doclen = positionsLength (stopword positions included);
f17 idf-weighted match on url: sum tf*ln(N/df);
f18 title cosine: innerProd/(|doc tf vector| * |query vector|) — note the
  document vector magnitude sums SQUARED freqs over ALL stems then is used
  unsquare-rooted (faithful port of ``QryEval.java:640,866``);
f19 title min distance: 1/min gap between query-term positions (0.0 when
  only one match position);
f20 body rarest-Zipf: max ln(tf*0.1*totalWords/ctf) / doclen.

SVM-mode per-query min-max normalization ports ``QryEval.java:706-736``
including the diff==0 quirk (feature left unchanged).

Training: the reference shells out to ``svm_rank_learn`` / RankLib
(``Utils.java:17-49``) — unavailable here, so a deterministic pure-numpy
pairwise logistic model stands in behind the same train/classify file
interface (documented substitution; the contract — feature files in, score
file out, positional re-join, per-query sort (score desc, extid asc),
truncate — is the reference's, ``QryEval.java:892-949``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..analysis import FIELDS
from ..models import BM25, Indri
from ..parser import parse_query_line  # noqa: F401  (format helper reexport)
from ..query.engine import SearchEngine
from ..sources.formats import feature_vector_line

LAST_FEATURE = 21


@dataclass
class DocFeatures:
    rel: int
    doc_id: int
    external_id: str
    qid: str
    features: dict = dc_field(default_factory=dict)  # 1-based, None = missing


def _bm25_term(m: BM25, tf, df, doc_len, avg_doc_len, num_docs) -> float:
    p1 = max(0.0, math.log((num_docs - df + 0.5) / (df + 0.5)))
    p2 = tf / (tf + m.k_1 * ((1.0 - m.b) + m.b * (doc_len / avg_doc_len)))
    p3 = (m.k_3 + 1.0) / (m.k_3 + 1.0)
    return p1 * p2 * p3


def _indri_term(m: Indri, tf, ctf, doc_len, total_field_len) -> float:
    pqc = (0.5 / total_field_len) if ctf == 0.0 else (ctf / total_field_len)
    return (1.0 - m.lam) * ((tf + m.mu * pqc) / (doc_len + m.mu)) + m.lam * pqc


def feature_pair(
    bm25: BM25,
    indri: Indri,
    query_tokens: dict[str, int],
    tv: list[str] | None,
    field: str,
    stats: dict,
    ctf_of,
    df_of,
) -> dict:
    """Per (doc, field) feature bundle (``QryEval.java:605-704``).

    ``tv`` is our forward-index term vector: one slot per position, '' for
    stopwords (TermVector stem 0)."""
    out = dict(
        bm25=None, indri=None, count=None, idf_match=None, min_dist=None,
        doc_vec_len=None, inner_prod=None, zipf=None,
    )
    if not tv:
        return out
    doc_len = float(len(tv))
    freqs: dict[str, int] = {}
    for t in tv:
        if t:
            freqs[t] = freqs.get(t, 0) + 1

    num_docs = float(stats["n_docs"])
    total_field_len = float(stats["sum_field_len"][field])
    num_docs_field = float(stats["doc_count"][field]) or 1.0
    avg_doc_len = total_field_len / num_docs_field
    num_words = float(
        sum(stats["sum_field_len"][f] for f in ("body", "title", "url", "inlink"))
    )
    num_tokens = float(len(query_tokens))

    score_bm25, score_indri, count = 0.0, 1.0, 0
    weighted_idf, doc_vec_mag, inner_prod = 0.0, 0.0, 0.0
    zipf = 0.0
    matches = set()
    for stem, tf_i in freqs.items():
        doc_vec_mag += tf_i * tf_i
        if stem in query_tokens:
            matches.add(stem)
            ctf = float(ctf_of(field, stem))
            tf = float(tf_i)
            df = float(df_of(field, stem))
            idf = math.log(num_docs / df)
            weighted_idf += idf * tf
            score_bm25 += _bm25_term(bm25, tf, df, doc_len, avg_doc_len, num_docs)
            t_indri = _indri_term(indri, tf, ctf, doc_len, total_field_len)
            score_indri *= math.pow(t_indri, 1.0 / num_tokens)
            count += 1
            zipf = max(zipf, math.log((tf * 0.1 * num_words) / ctf))
            inner_prod += tf * query_tokens[stem]

    min_dist = 0.0
    if count == 0:
        score_indri = 0.0
        zipf = None
        min_dist = None
    elif field == "title":
        best, total, prev = None, 0, -1
        for i, t in enumerate(tv):
            if t in matches:
                total += 1
                if prev != -1:
                    gap = i - prev
                    best = gap if best is None else min(best, gap)
                prev = i
        min_dist = 0.0 if total == 1 else (1.0 / best if best else 0.0)
    elif field == "body":
        zipf = zipf / doc_len

    out.update(
        bm25=score_bm25, indri=score_indri, count=float(count),
        idf_match=weighted_idf, min_dist=min_dist, doc_vec_len=doc_vec_mag,
        inner_prod=inner_prod, zipf=zipf,
    )
    return out


def extract_features(
    engine: SearchEngine,
    qid: str,
    query_tokens: dict[str, int],
    docs: list[tuple[int, int, str]],  # (rel, doc_id, external_id)
    bm25: BM25,
    indri: Indri,
) -> list[DocFeatures]:
    """Features 1-20 for each (query, doc) pair.

    Term vectors come from the engine's doc-sharded forward index (one
    scatter per field); term stats from the engine's global df/ctf.
    Parallelization note: across queries this is a groupby(qid).map_groups
    shape — at reference scale (<=43 queries x <=100 docs) the driver loop
    is the faster constant.
    """
    stats = engine.stats
    qterms = sorted(query_tokens)
    keys = [(f, t) for f in FIELDS for t in qterms]
    ts = engine.term_stats_for(keys)

    def ctf_of(field, term):
        return ts.get((field, term), (0, 0))[1]

    def df_of(field, term):
        # df==0 would log-div-zero; a query term absent from the field can't
        # match a doc stem, so this is only reached with df >= 1
        return ts.get((field, term), (1, 0))[0]

    doc_ids = [d for _, d, _ in docs]
    tvs = {f: engine.term_vectors(doc_ids, f) for f in FIELDS}
    urls = {d: e for _, d, e in docs}

    qmag = math.sqrt(float(sum(v * v for v in query_tokens.values())))
    out = []
    for rel, doc_id, extid in docs:
        f: dict[int, float | None] = {}
        raw_url = urls[doc_id]
        f[1] = None  # spamScore attribute absent in our pages
        f[2] = float(raw_url.count("/")) if raw_url else None
        f[3] = (1.0 if "wikipedia.org" in raw_url else 0.0) if raw_url else None
        f[4] = None  # PageRank attribute absent
        pair = {
            fld: feature_pair(
                bm25, indri, query_tokens, tvs[fld].get(doc_id), fld,
                stats, ctf_of, df_of,
            )
            for fld in ("body", "title", "url", "inlink")
        }
        f[5], f[6], f[7] = (
            pair["body"]["bm25"], pair["body"]["indri"], pair["body"]["count"]
        )
        f[8], f[9], f[10] = (
            pair["title"]["bm25"], pair["title"]["indri"], pair["title"]["count"]
        )
        f[11], f[12], f[13] = (
            pair["url"]["bm25"], pair["url"]["indri"], pair["url"]["count"]
        )
        f[14], f[15], f[16] = (
            pair["inlink"]["bm25"], pair["inlink"]["indri"],
            pair["inlink"]["count"],
        )
        f[17] = pair["url"]["idf_match"]
        if pair["title"]["doc_vec_len"] is None:
            f[18] = None
        else:
            f[18] = pair["title"]["inner_prod"] / (
                pair["title"]["doc_vec_len"] * qmag
            )
        f[19] = pair["title"]["min_dist"]
        f[20] = pair["body"]["zipf"]
        out.append(DocFeatures(rel, doc_id, extid, qid, f))
    return out


def normalize_features(fvs: list[DocFeatures]) -> None:
    """Per-query min-max (SVM mode), diff==0 leaves values unchanged
    (``QryEval.java:706-736``)."""
    for i in range(1, LAST_FEATURE):
        vals = [fv.features.get(i) for fv in fvs]
        present = [v for v in vals if v is not None]
        if not present:
            continue
        lo, hi = min(present), max(present)
        diff = hi - lo
        if diff == 0.0:
            continue
        for fv in fvs:
            v = fv.features.get(i)
            if v is not None:
                fv.features[i] = (v - lo) / diff


def feature_lines(
    fvs: list[DocFeatures], for_svm: bool, disabled=frozenset()
) -> list[str]:
    return [
        feature_vector_line(
            fv.rel, fv.qid, fv.features, fv.external_id, for_svm,
            LAST_FEATURE, disabled,
        )
        for fv in fvs
    ]


# ------------------------------------------- external trainer (svm_rank)


def run_external_trainer(params: dict) -> bool:
    """Shell out to ``svm_rank_learn`` when the configured binary exists
    (``/root/reference/QryEval/Utils.java:17-49``,
    ``QryEval.java:977-1002``): learn ``-c C train_file model_file``.
    Returns True iff the external model was trained; callers fall back to
    the numpy stand-in otherwise (binary absent in this sandbox)."""
    import os
    import subprocess

    learn = params.get("ltr:svmRankLearnPath")
    if not learn or not os.path.exists(learn):
        return False
    cmd = [
        learn,
        "-c",
        str(params.get("ltr:svmRankParamC", "0.001")),
        params["ltr:trainingFeatureVectorsFile"],
        params["ltr:modelFile"],
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"svm_rank_learn crashed: {proc.stderr}")
    return True


def run_external_classifier(params: dict) -> "np.ndarray | None":
    """``svm_rank_classify test_file model_file score_file`` then read the
    one-score-per-line output (``QryEval.java:1015-1023``; the reference
    also appends ``-c C``, which svm_rank_classify ignores — we pass the
    canonical 3 args).  None when the binary is absent."""
    import os
    import subprocess

    cls = params.get("ltr:svmRankClassifyPath")
    if not cls or not os.path.exists(cls):
        return None
    cmd = [
        cls,
        params["ltr:testingFeatureVectorsFile"],
        params["ltr:modelFile"],
        params["ltr:testingDocumentScores"],
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"svm_rank_classify crashed: {proc.stderr}")
    with open(params["ltr:testingDocumentScores"]) as f:
        return np.asarray([float(x) for x in f.read().split()], dtype=float)


# ------------------------------------------------------- stand-in model


def _featurize_matrix(fvs: list[DocFeatures]) -> np.ndarray:
    x = np.zeros((len(fvs), LAST_FEATURE - 1))
    for r, fv in enumerate(fvs):
        for i in range(1, LAST_FEATURE):
            v = fv.features.get(i)
            x[r, i - 1] = 0.0 if v is None else v
    return x


def train_pairwise_logistic(
    fvs: list[DocFeatures], iters: int = 200, lr: float = 0.1
) -> np.ndarray:
    """Deterministic pairwise-logistic stand-in for svm_rank_learn
    (subprocess unavailable in this environment; same file-level contract)."""
    x = _featurize_matrix(fvs)
    w = np.zeros(x.shape[1])
    pairs = []
    by_q: dict[str, list[int]] = {}
    for i, fv in enumerate(fvs):
        by_q.setdefault(fv.qid, []).append(i)
    for idxs in by_q.values():
        for a in idxs:
            for b in idxs:
                if fvs[a].rel > fvs[b].rel:
                    pairs.append((a, b))
    if not pairs:
        return w
    d = np.stack([x[a] - x[b] for a, b in pairs])
    for _ in range(iters):
        z = d @ w
        g = d.T @ (1.0 / (1.0 + np.exp(z)))  # gradient of -log sigmoid
        w = w + lr * g / len(pairs)
    return w


def classify(fvs: list[DocFeatures], w: np.ndarray) -> np.ndarray:
    return _featurize_matrix(fvs) @ w


def rerank(
    fvs: list[DocFeatures], scores: np.ndarray, top_n: int
) -> dict[str, list[tuple[str, float]]]:
    """Positional re-join of classifier scores, per-query sort (score desc,
    extid asc), truncate (``QryEval.java:892-949``)."""
    from collections import OrderedDict

    per_q: "OrderedDict[str, list[tuple[str, float]]]" = OrderedDict()
    for fv, s in zip(fvs, scores):
        per_q.setdefault(fv.qid, []).append((fv.external_id, float(s)))
    out = OrderedDict()
    for qid, rows in per_q.items():
        rows = sorted(rows, key=lambda r: (-r[1], r[0]))[:top_n]
        out[qid] = rows
    return out
