"""The Arrow term dictionary (``TermDict``, ``Segment.row_of``), the Arrow
forward index (``Segment.term_vectors``) and the searcher process's
imports."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from searchengines_ray.index.build import build_index, write_segment
from searchengines_ray.index.compact import delete_docs
from searchengines_ray.index.shard import (
    Segment,
    TermDict,
    read_parquet,
    segment_dirs,
)
from searchengines_ray.models import BM25, Indri
from searchengines_ray.parser import parse_query
from searchengines_ray.query.engine import SearchEngine
from searchengines_ray.query.exec import iter_term_keys
from searchengines_ray.sources.pages import synth_pages

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# terms longer than 8 bytes that share their first 8 (the rows a key's
# prefix cannot tell apart), and 12-digit url tokens that all do
LONG = (
    "internationalization internationally internationals internet "
    "interned intern a b ab abc"
)
EMPTY_TITLE = "https://example.org/doc/000000000007"


def _docs() -> pa.Table:
    synth = synth_pages(n=50, seed=5, vocab=60)
    urls = synth.column("url").to_pylist()
    texts = synth.column("text").to_pylist()
    for d in range(12):
        urls.append(f"https://example.org/doc/{d:012d}")
        # a leading newline leaves the title empty
        empty_title = "\n" if urls[-1] == EMPTY_TITLE else ""
        texts.append(f"{empty_title}{LONG} w{d}")
    return pa.table({"url": urls, "text": texts})


@pytest.fixture(scope="module")
def index(tmp_path_factory, ray_session):
    import ray.data

    out = str(tmp_path_factory.mktemp("termdict"))
    build_index(
        ray.data.from_arrow(_docs()), out, docs_per_segment=16,
        keep_forward=True,
    )
    assert len(segment_dirs(out)) >= 4
    delete_docs(out, Segment(segment_dirs(out)[0]).doc_ids[:3])
    return out


def _keys(seg_dir: str) -> list:
    t = read_parquet(os.path.join(seg_dir, "postings.parquet"), ["field", "term"])
    return list(zip(t.column("field").to_pylist(), t.column("term").to_pylist()))


def _absent(keys: list) -> list:
    """Keys the segment does not hold, one per edge case."""
    held = set(keys)
    terms = [t for _, t in keys]
    longest = max(terms, key=len)
    last_field = max(f for f, _ in keys)
    cases = [
        ("nofield", terms[0]),  # an unknown field
        ("inlink", terms[0]),  # a field no document has
        ("body", ""),  # the empty term
        (last_field, "~"),  # sorts after the last row
        ("body", "~"),  # sorts after the field's last term
        ("body", "\x00"),  # sorts before its first
        # the truncation trap: longer than every term, and its first
        # bytes equal an existing one
        ("body", longest + "a" * 9),
        ("url", longest + "0"),
    ]
    for f, t in keys[:: max(1, len(keys) // 40)]:
        cases.append((f, t + "a"))  # an existing term plus one character
        if len(t) > 1:
            cases.append((f, t[:-1]))  # a strict prefix of one
    return [k for k in cases if k not in held]


def _assert_lookups(seg: Segment, keys: list) -> None:
    assert seg.row_of(keys).tolist() == list(range(len(keys)))
    absent = _absent(keys)
    assert len(absent) > 8
    assert seg.row_of(absent).tolist() == [-1] * len(absent), absent
    assert seg.row_of([]).dtype == np.int64
    assert seg.local_stats(absent)[0].tolist() == [0] * len(absent)


def test_row_of_every_key_and_absent_keys(index):
    n_long = n_shared = 0
    for d in segment_dirs(index):
        keys = _keys(d)
        _assert_lookups(Segment(d), keys)
        long = [t for _, t in keys if len(t) > 8]
        n_long += len(long)
        n_shared += len(long) - len({t[:8] for t in long})
    # long keys, several of them behind one 8-byte prefix, were looked up
    assert n_long and n_shared


def test_row_of_one_document_segment(tmp_path):
    write_segment(
        pa.table({"url": ["https://example.org/doc/000000000042"],
                  "text": [f"one doc\n{LONG}"]}),
        str(tmp_path),
    )
    (d,) = segment_dirs(str(tmp_path))
    seg = Segment(d)
    assert seg.n_docs == 1
    _assert_lookups(seg, _keys(d))


def test_term_vectors_from_the_arrow_forward_index(index):
    eng = SearchEngine(index, num_searchers=0)
    (seg,) = [s for s in eng._local.segments if EMPTY_TITLE in s.urls.to_pylist()]
    hit = seg.urls.to_pylist().index(EMPTY_TITLE)
    doc = int(seg.doc_ids[hit])
    other = int(seg.doc_ids[(hit + 1) % seg.n_docs])
    # a doc with no entry for the asked field is left out
    assert [f for _, f, _ in seg.term_vectors([doc])] == ["body", "url"]
    assert seg.term_vectors([doc], "title") == []
    assert list(eng.term_vectors([doc, other], "title")) == [other]
    body = eng.term_vectors([doc, other, 12345], "body")
    assert sorted(body) == sorted([doc, other])
    # one term per position, '' at the stopword's
    assert len(body[doc]) == len(LONG.split()) + 1 and body[doc].count("") == 1
    # doc order and field order, whatever order the docs are asked in
    got = seg.term_vectors([other, doc])
    assert [(d, f) for d, f, _ in got] == sorted((d, f) for d, f, _ in got)
    assert len(got) == 5


def _requests(index: str) -> tuple[list, list]:
    """Pickled search calls as the engine's scatter sends them, and the
    results the in-process searcher gives for them."""
    eng = SearchEngine(index, num_searchers=0)
    queries = [
        "w0001 w0002 internationalization",
        "#SYN(w0003 w0004)",
        "#NEAR/2(w0001 w0002)",
        "#WINDOW/4(w0005 w0006 w0007)",
        "#AND(w0008.title intern)",
        "zzzznohit",
    ]
    calls = []
    for model in (BM25(), Indri()):
        trees = [parse_query(q, model.default_op) for q in queries]
        keys: set = set()
        for t in trees:
            iter_term_keys(t, keys)
        token = model.name
        g = eng.global_stats_for(trees, token)
        calls += [
            ("iop_stats_partial", (trees, token)),
            ("term_stats_partial", (sorted(keys),)),
            ("search_trees", (trees, g, model, 10, token)),
        ]
    want = [getattr(eng._local, m)(*a) for m, a in calls]
    return [pickle.dumps(c, protocol=5) for c in calls], want


SEARCHER = """
import pickle, sys
from searchengines_ray.query.engine import LocalSearcher
with open(sys.argv[2], "rb") as f:
    requests = pickle.load(f)
searcher = LocalSearcher(sys.argv[1])
assert searcher.reader.dead is not None
replies = [searcher.call(r) for r in requests]
loaded = [m for m in ("pandas", "pyarrow.dataset") if m in sys.modules]
with open(sys.argv[3], "wb") as f:
    pickle.dump((loaded, replies), f)
"""


def test_searcher_process_imports_no_pandas(index, tmp_path):
    """A searcher serves scoring and both statistics calls, over segments
    with tombstones, without loading pandas or pyarrow.dataset."""
    victims = Segment(segment_dirs(index)[0]).doc_ids[:3]
    requests, want = _requests(index)
    with open(tmp_path / "requests", "wb") as f:
        pickle.dump(requests, f)
    env = dict(os.environ, PYTHONPATH=ROOT)
    subprocess.run(
        [sys.executable, "-c", SEARCHER, index,
         str(tmp_path / "requests"), str(tmp_path / "replies")],
        env=env, check=True, timeout=120,
    )
    with open(tmp_path / "replies", "rb") as f:
        loaded, replies = pickle.load(f)
    assert loaded == []
    got = [pickle.loads(r) for r in replies]
    n_hits = 0
    for g, w in zip(got, want):
        if isinstance(w, dict):
            assert g == w
            continue
        assert g.counts.tolist() == w.counts.tolist()
        assert g.doc_id.tolist() == w.doc_id.tolist()
        assert g.url.to_pylist() == w.url.to_pylist()
        assert g.score.tolist() == w.score.tolist()
        assert not set(g.doc_id.tolist()) & set(victims.tolist())
        n_hits += len(g.doc_id)
    assert n_hits and got[0] and got[1]


def test_termdict_bytes_order_edge_cases():
    """Terms the tokenizer never makes: NUL bytes, which tie with a prefix's
    zero padding, and many long terms behind one prefix."""
    terms = sorted(
        ["", "\x00", "ab", "ab\x00", "ab\x00\x00c", "abc", "é", "ü"]
        + [f"{'x' * 8}{i:04d}" for i in range(50)]
    )
    keys = [("body", t) for t in terms] + [("title", "ab\x00")]
    td = TermDict(
        pa.array([f for f, _ in keys]), pa.array([t for _, t in keys])
    )
    assert td.rows(keys).tolist() == list(range(len(keys)))
    absent = [("body", "a"), ("body", "ab\x00\x00"), ("body", "x" * 8),
              ("body", "x" * 13), ("title", "ab"), ("url", "ab")]
    assert td.rows(absent).tolist() == [-1] * len(absent)
    with pytest.raises(ValueError, match="grouped by field"):
        TermDict(pa.array(["a", "b", "a"]), pa.array(["x", "x", "y"]))
