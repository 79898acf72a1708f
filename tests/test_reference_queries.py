"""Run the REFERENCE's own query files through the full pipeline.

The reference corpus (Lucene ClueWeb09 index) is absent, so rank comparison
against its golden outputs is impossible (SURVEY.md §5.1) — but its query
set is the authoritative parse/execution surface: every query in every
``TEST_DIR/*.qry`` must parse into a well-formed tree and execute under
BM25 and Indri over our corpus with the engine exactly matching the oracle
(most queries simply have zero or few hits on synthetic text — the
zero-hit path is part of the contract).

The in-repo fixture ``data/parse_surface.qry`` (FIXTURES.md §2) runs first
and always: every operator, ``/n`` form and ``.field`` suffix, so these
tests check real queries even where the reference checkout is absent."""

import glob
import os

import pyarrow as pa
import pytest

from searchengines_ray.analysis import FIELDS
from searchengines_ray.index.build import build_index, doc_id_from_url
from searchengines_ray.models import BM25, Indri
from searchengines_ray.oracle import OracleIndex, run_query
from searchengines_ray.parser import parse_query, parse_query_line
from searchengines_ray.query.engine import SearchEngine
from searchengines_ray.sources.pages import dedup_pages_pandas, synth_pages

QRY_FILES = sorted(glob.glob("/root/reference/TEST_DIR/*.qry"))
FIXTURE_QRY = os.path.join(
    os.path.dirname(__file__), "data", "parse_surface.qry"
)
OPS = {"term", "syn", "near", "window", "and", "or", "sum", "wand", "wsum"}


def _read_queries(paths):
    out = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    out.append(parse_query_line(line))
    return out


def _all_queries():
    return _read_queries([FIXTURE_QRY, *QRY_FILES])


def test_reference_query_files_found():
    if not QRY_FILES:
        pytest.skip("reference checkout absent: no TEST_DIR/*.qry files")
    assert len(QRY_FILES) >= 5
    assert len(_read_queries(QRY_FILES)) >= 50


def _walk(node, ops, fields):
    ops.add(node.op)
    if node.op == "term":
        fields.add(node.field)
    for a in node.args:
        _walk(a, ops, fields)


def test_every_reference_query_parses():
    ops: set = set()
    fields: set = set()
    for qid, text in _all_queries():
        for default_op in ("sum", "and"):
            tree = parse_query(text, default_op)  # None (all-stop) is legal
            if tree is not None:
                assert tree.op in OPS
                _walk(tree, ops, fields)
    # every operator and field occurs (the fixture alone covers them)
    assert ops == OPS and fields == set(FIELDS)


ENGLISH = [
    "internet phone service providers offer high speed access",
    "the east ridge high school credit report",
    "free annual credit report and phone service",
]


def _pages(seed: int, **extra_cols) -> pa.Table:
    """Synthetic pages plus the English docs, so a few reference terms
    actually hit; ``extra_cols`` are field columns (keywords, inlink) the
    English docs carry and the synthetic pages leave empty."""
    tbl = synth_pages(n=120, seed=seed, vocab=150)
    extra = pa.table(
        {
            "url": [
                f"https://en.synth.test/e/{i}" for i in range(len(ENGLISH))
            ],
            "warc_ts": pa.array([1] * len(ENGLISH), pa.timestamp("us")),
            "html": pa.array([t.encode() for t in ENGLISH], pa.binary()),
            "text": ENGLISH,
            "lang": ["en"] * len(ENGLISH),
            **extra_cols,
        }
    )
    for col in extra_cols:
        tbl = tbl.append_column(col, pa.array([""] * len(tbl)))
    return pa.concat_tables([tbl, extra])


def _engine_and_oracle(tmp_path_factory, tbl: pa.Table):
    import ray.data

    out = str(tmp_path_factory.mktemp("refq"))
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    build_index(ds, out, docs_per_segment=40, dedup=True)
    cols = [c for c in ("keywords", "inlink") if c in tbl.column_names]
    docs = [
        {
            "doc_id": doc_id_from_url(r.url),
            "url": r.url,
            "body": r.text,
            **{c: getattr(r, c) for c in cols},
        }
        for r in dedup_pages_pandas(tbl).itertuples()
    ]
    return SearchEngine(out), OracleIndex.build(docs)


@pytest.fixture(scope="module")
def engine_and_oracle(tmp_path_factory, ray_session):
    # the English docs also fill the keywords and inlink fields, so queries
    # on every field can score under Indri too
    tbl = _pages(
        41,
        keywords=["phone service", "credit report", "internet access"],
        inlink=["service providers", "high school", "annual credit"],
    )
    return _engine_and_oracle(tmp_path_factory, tbl)


def _rows(res, qid) -> list:
    got = res[res.qid == qid]
    return list(
        zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
    )


def test_reference_queries_engine_matches_oracle(engine_and_oracle):
    eng, oidx = engine_and_oracle
    queries = _read_queries([FIXTURE_QRY]) + _read_queries(QRY_FILES)[:80]
    for model in (BM25(), Indri(mu=900.0, lam=0.4)):
        res = eng.search_batch(
            [(f"{i}", t) for i, (_, t) in enumerate(queries)], model, k=10
        )
        for i, (_, text) in enumerate(queries):
            want = run_query(oidx, text, model, k=10)
            assert _rows(res, str(i)) == want, (model.name, text)


def _on_fields(node, fields) -> bool:
    if node.op == "term":
        return node.field in fields
    return any(_on_fields(a, fields) for a in node.args)


def test_field_no_document_has(tmp_path_factory, ray_session):
    """Over a corpus where no document has keywords or inlink text, a BM25
    leaf on either field matches nothing, engine and oracle alike; under
    Indri the leaf has no collection probability, and both sides raise
    the same ValueError naming the field."""
    eng, oidx = _engine_and_oracle(tmp_path_factory, _pages(43))
    empty = {"keywords", "inlink"}
    for f in empty:
        assert eng.stats["doc_count"][f] == oidx.doc_count[f] == 0
    queries = [t for _, t in _read_queries([FIXTURE_QRY])]
    batch = [(str(i), t) for i, t in enumerate(queries)]
    res = eng.search_batch(batch, BM25(), k=10)
    for i, text in enumerate(queries):
        want = run_query(oidx, text, BM25(), k=10)
        assert _rows(res, str(i)) == want, text

    indri = Indri(mu=900.0, lam=0.4)
    raised = 0
    for text in queries:
        tree = parse_query(text, indri.default_op)
        if tree is None or not _on_fields(tree, empty):
            res = eng.search_batch([("q", text)], indri, k=10)
            assert _rows(res, "q") == run_query(oidx, text, indri, k=10)
            continue
        with pytest.raises(ValueError) as want:
            run_query(oidx, text, indri, k=10)
        with pytest.raises(ValueError) as got:
            eng.search_batch([("q", text)], indri, k=10)
        assert str(got.value) == str(want.value), text
        assert any(repr(f) in str(got.value) for f in empty), text
        raised += 1
    assert raised >= 2
