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


@pytest.fixture(scope="module")
def engine_and_oracle(tmp_path_factory, ray_session):
    import ray.data

    # corpus containing some English so a few reference terms actually hit
    tbl = synth_pages(n=120, seed=41, vocab=150)
    import pyarrow as pa

    english = [
        "internet phone service providers offer high speed access",
        "the east ridge high school credit report",
        "free annual credit report and phone service",
    ]
    urls = [f"https://en.synth.test/e/{i}" for i in range(len(english))]
    # the English docs also fill the keywords and inlink fields, so queries
    # on every field can score (BM25/Indri need a non-empty field)
    keywords = ["phone service", "credit report", "internet access"]
    inlink = ["service providers", "high school", "annual credit"]
    extra = pa.table(
        {
            "url": pa.array(urls),
            "warc_ts": pa.array([1] * len(english), pa.timestamp("us")),
            "html": pa.array([t.encode() for t in english], pa.binary()),
            "text": pa.array(english),
            "lang": pa.array(["en"] * len(english)),
            "keywords": pa.array(keywords),
            "inlink": pa.array(inlink),
        }
    )
    for col in ("keywords", "inlink"):
        tbl = tbl.append_column(col, pa.array([""] * len(tbl)))
    tbl = pa.concat_tables([tbl, extra])
    out = str(tmp_path_factory.mktemp("refq"))
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    build_index(ds, out, docs_per_segment=40, dedup=True)
    df = dedup_pages_pandas(tbl)
    docs = [
        {
            "doc_id": doc_id_from_url(r.url),
            "url": r.url,
            "body": r.text,
            "keywords": r.keywords,
            "inlink": r.inlink,
        }
        for r in df.itertuples()
    ]
    return SearchEngine(out), OracleIndex.build(docs)


def test_reference_queries_engine_matches_oracle(engine_and_oracle):
    eng, oidx = engine_and_oracle
    queries = _read_queries([FIXTURE_QRY]) + _read_queries(QRY_FILES)[:80]
    for model in (BM25(), Indri(mu=900.0, lam=0.4)):
        res = eng.search_batch(
            [(f"{i}", t) for i, (_, t) in enumerate(queries)], model, k=10
        )
        for i, (_, text) in enumerate(queries):
            want = run_query(oidx, text, model, k=10)
            got = res[res.qid == str(i)]
            got_rows = list(
                zip(got.doc_id.tolist(), got.url.tolist(), got.score.tolist())
            )
            assert got_rows == want, (model.name, text)
