"""Seeded, vectorized corpus and query generator for the benchmark.

Everything here is a pure function of ``seed`` (numpy ``default_rng``), so
one seed always yields identical documents and queries.

Corpus: a Zipfian word stream over a synthetic vocabulary.  Term rank r has
probability proportional to 1 / (r + 1), so a few dozen head terms have a
document frequency above ``HEAD_DF_SHARE`` of N while most of the
vocabulary is a selective tail.  Each document has a title line, a body and
a url whose host and path words feed the ``url`` field.  ``DUP_SHARE`` of
the documents are near-copies (one word changed) of another document, so
the dedup stages have pairs and spans to find.  Doc ids are a seeded
permutation, so any ``doc_id % 10`` slice is a seed-chosen 10% of the
corpus.

The traffic mix below is a fixed choice, not a model of real traffic: the
operator families and the head/tail split come from the benchmark's
definition, but no cited query log gives their shares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pandas as pd

MEAN_LEN = 60  # body + title words per document (Poisson mean)
N_HOSTS = 40  # distinct url hosts
DUP_SHARE = 0.05  # documents that are one-word edits of another document
HEAD_DF_SHARE = 0.15  # head terms: document frequency above this share of N
BOW_SHARE = 0.5  # bag-of-words queries; the rest are structured
HEAD_TERM_SHARE = 0.3  # chance that a query term comes from the head
N_STRUCTURED_KINDS = 7  # in equal numbers, see ``structured``

# consonant-vowel syllables: every word is [a-z]+, so the analyzer keeps it
# as one term, and no word has the shape of a stopword
_SYLLABLES = np.array(
    [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"], dtype=object
)


def vocabulary(n_words: int, seed: int) -> np.ndarray:
    """``n_words`` distinct words, index = Zipf rank (0 = most frequent)."""
    rng = np.random.default_rng([seed, 1])
    s = len(_SYLLABLES)
    # two- and three-syllable words; shuffle so rank is unrelated to spelling
    two = _SYLLABLES[:, None] + _SYLLABLES[None, :]
    three = two.ravel()[:, None] + _SYLLABLES[None, : max(1, n_words // (s * s) + 1)]
    words = np.concatenate([two.ravel(), three.ravel()])
    if len(words) < n_words:
        raise ValueError(f"vocabulary too small for {n_words} words")
    return rng.permutation(words)[:n_words]


def zipf_probs(n_words: int) -> np.ndarray:
    p = 1.0 / (np.arange(n_words) + 1.0)
    return p / p.sum()


@dataclass
class Corpus:
    """Generated documents plus the token ranks they were built from."""

    docs: pd.DataFrame  # doc_id, url, text
    vocab: np.ndarray  # word by rank
    counts: np.ndarray  # corpus count per rank
    tokens: np.ndarray  # flat token ranks, title words first per document
    offsets: np.ndarray  # per-doc slice of ``tokens`` (len n_docs + 1)
    hosts: np.ndarray  # url host words


def make_corpus(n_docs: int, n_words: int, seed: int) -> Corpus:
    """``n_docs`` documents over an ``n_words`` Zipfian vocabulary."""
    rng = np.random.default_rng([seed, 2])
    vocab = vocabulary(n_words, seed)
    probs = zipf_probs(n_words)
    lens = np.clip(rng.poisson(MEAN_LEN, n_docs), 8, None)
    # near-duplicates: target documents copy a source document's words
    n_dup = int(n_docs * DUP_SHARE)
    picked = rng.choice(n_docs, size=2 * n_dup, replace=False)
    src, dst = picked[:n_dup], picked[n_dup:]
    lens[dst] = lens[src]
    offsets = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    tokens = rng.choice(n_words, size=int(offsets[-1]), p=probs)
    for s, d in zip(src, dst):
        tokens[offsets[d] : offsets[d + 1]] = tokens[offsets[s] : offsets[s + 1]]
    edit = offsets[dst] + rng.integers(0, lens[dst])
    tokens[edit] = rng.choice(n_words, size=n_dup, p=probs)
    counts = np.bincount(tokens, minlength=n_words)

    title_len = rng.integers(3, 7, n_docs)
    hosts = np.array([f"site{vocab[i]}" for i in range(N_HOSTS)], dtype=object)
    host_of = rng.integers(0, N_HOSTS, n_docs)
    path = rng.choice(n_words, size=(n_docs, 2), p=probs)
    doc_ids = rng.permutation(n_docs).astype(np.int64)
    words = vocab[tokens]
    texts = []
    for i in range(n_docs):
        w = words[offsets[i] : offsets[i + 1]]
        t = title_len[i]
        texts.append(" ".join(w[:t]) + "\n" + " ".join(w[t:]))
    urls = [
        f"http://{hosts[h]}.example/{vocab[a]}/{vocab[b]}/{d}"
        for h, (a, b), d in zip(host_of, path, doc_ids)
    ]
    docs = pd.DataFrame({"doc_id": doc_ids, "url": urls, "text": texts})
    return Corpus(docs, vocab, counts, tokens, offsets, hosts)


def head_tail(corpus: Corpus):
    """(head ranks, tail ranks): head terms occur in more than
    ``HEAD_DF_SHARE`` of documents (estimated from corpus counts), tail
    terms occur at least once and are below it."""
    n = len(corpus.offsets) - 1
    mean_len = corpus.offsets[-1] / n
    p = corpus.counts / corpus.offsets[-1]
    df_share = 1.0 - (1.0 - p) ** mean_len
    head = np.nonzero(df_share > HEAD_DF_SHARE)[0]
    tail = np.nonzero((df_share <= HEAD_DF_SHARE) & (corpus.counts > 0))[0]
    return head, tail


def make_queries(corpus: Corpus, n: int, seed: int) -> list[tuple[str, str]]:
    """``n`` (qid, query) pairs: ``BOW_SHARE`` bag-of-words queries of 1-4
    terms, the rest structured (#AND #OR #SYN #WSUM #NEAR/n #WINDOW/n with
    two or three operands, ``.title`` and ``.url`` terms), and
    ``HEAD_TERM_SHARE`` of all terms from the head.  The shares, the
    bag-of-words lengths and the structured kinds are exact, not drawn, so
    a seed changes which terms and spans a query uses but not the mix.
    Proximity operands are taken from one span of a random document, so
    they match somewhere."""
    rng = np.random.default_rng([seed, 3])
    head, tail = head_tail(corpus)
    v = corpus.vocab
    n_docs = len(corpus.offsets) - 1
    n_terms = [0]

    def term():
        j = n_terms[0] = n_terms[0] + 1
        is_head = int(j * HEAD_TERM_SHARE) > int((j - 1) * HEAD_TERM_SHARE)
        pool = head if is_head else tail
        return v[pool[rng.integers(len(pool))]]

    def span(width):
        d = rng.integers(n_docs)
        a, b = corpus.offsets[d], corpus.offsets[d + 1]
        s = rng.integers(a, max(a + 1, b - width))
        return [v[t] for t in corpus.tokens[s : s + width]]

    def proximity(op, three):
        # NEAR/d: each operand within d positions after the previous one;
        # WINDOW/d: all operands inside d consecutive positions
        if op == "NEAR":
            d = int(rng.integers(1, 4))
            w = span(2 * d + 1)
            ops = [w[0], w[d], w[2 * d]] if three else [w[0], w[d]]
        else:
            d = int(rng.integers(3, 7))
            w = span(d)
            ops = [w[0], w[1], w[-1]] if three else [w[0], w[-1]]
        return f"#{op}/{d}({' '.join(ops)})"

    def structured(kind, three):
        if kind == 0:
            return f"#AND({term()} #OR({term()} {term()}))"
        if kind == 1:
            return f"#SYN({term()} {term()} {term()})"
        if kind == 2:
            w = rng.integers(1, 10)
            return f"#WSUM(0.{w} {term()} 0.{10 - w} {term()})"
        if kind in (3, 4):
            return proximity("NEAR" if kind == 3 else "WINDOW", three)
        if kind == 5:
            return f"{term()}.title {term()}"
        h = corpus.hosts[rng.integers(len(corpus.hosts))]
        return f"#AND({h}.url {term()})"

    n_bow = round(n * BOW_SHARE)
    # (kind, arg): bag-of-words with arg terms, or a structured kind with
    # arg = three proximity operands
    plan = [(-1, 1 + i % 4) for i in range(n_bow)] + [
        (i % N_STRUCTURED_KINDS, (i // N_STRUCTURED_KINDS) % 2 == 1)
        for i in range(n - n_bow)
    ]
    # stratified shuffle: the k-th of a category's m entries lands near
    # position k/m, so every prefix of the list has nearly the same mix
    cats = [(kind, arg if kind < 0 else None) for kind, arg in plan]
    size, rank, keys = Counter(cats), Counter(), []
    for c in cats:
        keys.append((rank[c] + rng.random()) / size[c])
        rank[c] += 1
    out = []
    for i, p in enumerate(np.argsort(keys, kind="stable")):
        kind, arg = plan[p]
        if kind < 0:
            q = " ".join(term() for _ in range(arg))
        else:
            q = structured(kind, arg)
        out.append((f"q{i}", q))
    return out
