import math
import os

import numpy as np
import pytest

from searchengines_ray.pipelines.diversity import diversify, normalize, pm2, xquad
from searchengines_ray.pipelines.prf import (
    PrfParams,
    expansion_terms_indri,
    expanded_query,
    learned_query,
)
from searchengines_ray.sources.formats import (
    expansion_query_line,
    feature_vector_line,
    read_intents,
    read_params,
    read_qrels,
    read_query_file,
    read_trec_ranking,
    trec_lines,
    write_trec,
)


# ------------------------------------------------------------------- formats


def test_params_roundtrip(tmp_path):
    p = tmp_path / "x.param"
    p.write_text("indexPath=/idx\nBM25:k_1=1.2\n\nretrievalAlgorithm=BM25\n")
    got = read_params(str(p))
    assert got == {
        "indexPath": "/idx",
        "BM25:k_1": "1.2",
        "retrievalAlgorithm": "BM25",
    }


def test_query_file(tmp_path):
    p = tmp_path / "q.qry"
    p.write_text("51:horse hooves\n140:#AND( east.title high )\n")
    assert read_query_file(str(p)) == [
        ("51", "horse hooves"),
        ("140", "#AND( east.title high )"),
    ]


def test_qrels_minus2_coerced(tmp_path):
    p = tmp_path / "q.qrels"
    p.write_text("1 0 doc-a 2\n1 0 doc-b -2\n2 0 doc-c 1\n")
    got = read_qrels(str(p))
    assert got["1"] == [(2, "doc-a"), (0, "doc-b")]
    assert got["2"] == [(1, "doc-c")]


def test_intents_1based_padded(tmp_path):
    p = tmp_path / "x.intents"
    p.write_text("185.1:first intent\n185.3:third intent\n")
    got = read_intents(str(p))
    assert got["185"] == ["", "first intent", "", "third intent"]


def test_trec_lines_and_dummy():
    lines = trec_lines("7", [("b-url", 2.5), ("a-url", 1.25)])
    assert lines == ["7 Q0 b-url 1 2.5 ?", "7 Q0 a-url 2 1.25 ?"]
    assert trec_lines("8", []) == ["8 Q0 dummyRecord 1 0 ?"]


def test_trec_roundtrip(tmp_path):
    p = tmp_path / "out.teIn"
    write_trec({"1": [("u1", 0.5), ("u2", 0.25)]}, str(p))
    back = read_trec_ranking(str(p))
    assert back["1"] == [("u1", 0.5), ("u2", 0.25)]


def test_expansion_line_reversed_order():
    # emission is ascending-score (reversed), QryEval.java:1188-1201
    line = expansion_query_line("3", [("best", 0.5), ("worst", 0.25)])
    assert line == "3: #WAND (0.25 worst 0.5 best )"


def test_feature_vector_line_svm_vs_ranklib():
    feats = {1: 0.5, 2: None, 3: 1.0}
    svm = feature_vector_line(2, "9", feats, "ext1", True, last_feature=4)
    assert svm == "2 qid:9 1:0.5 3:1.0 # ext1"
    rl = feature_vector_line(2, "9", feats, "ext1", False, last_feature=4)
    assert rl == "2 qid:9 1:0.5 2:0 3:1.0 # ext1"


# ----------------------------------------------------------------------- PRF


def test_prf_expansion_backfill_semantics():
    # two docs; 'cherry' first appears in doc2 -> must be back-filled for doc1
    tvs = {
        1: ["apple", "banana", "apple"],  # doclen 3
        2: ["banana", "cherry"],  # doclen 2
    }
    ctf = {"apple": 2, "banana": 2, "cherry": 1}
    fieldlen = 5.0
    mu = 10.0
    top = [(1, 0.5), (2, 0.25)]
    got = dict(
        expansion_terms_indri(
            top, tvs, ctf, fieldlen, PrfParams(num_docs=2, num_terms=10, mu=mu)
        )
    )

    def leaf(tf, c, doclen, score):
        idf = math.log(fieldlen / c)
        ptc = c / fieldlen
        return score * idf * ((tf + mu * ptc) / (doclen + mu))

    # apple: seen doc1 (tf2), absent doc2 (tf0)
    want_apple = leaf(2, 2, 3, 0.5) + leaf(0, 2, 2, 0.25)
    # cherry: unseen in doc1 -> backfill ptc*sumPrev*idf, then doc2 tf1
    sum_prev_after_doc1 = (mu * 0.5) / (3 + mu)
    idf_c = math.log(fieldlen / 1)
    backfill = (1 / fieldlen) * sum_prev_after_doc1 * idf_c
    want_cherry = backfill + leaf(1, 1, 2, 0.25)
    assert got["apple"] == pytest.approx(want_apple, abs=0, rel=0)
    assert got["cherry"] == pytest.approx(want_cherry, abs=0, rel=0)


def test_prf_skips_punct_and_stopword_slots():
    tvs = {1: ["", "ok1", "bad.term", "bad,term2"]}
    got = dict(
        expansion_terms_indri(
            [(1, 1.0)], tvs, {"ok1": 1}, 10.0, PrfParams(num_docs=1, mu=5.0)
        )
    )
    assert list(got) == ["ok1"]


def test_prf_sort_and_truncate():
    tvs = {1: ["t1", "t2", "t3"]}
    ctf = {"t1": 1, "t2": 1, "t3": 1}
    got = expansion_terms_indri(
        [(1, 1.0)], tvs, ctf, 10.0, PrfParams(num_docs=1, num_terms=2, mu=5.0)
    )
    assert len(got) == 2
    # equal scores -> term ascending
    assert [t for t, _ in got] == ["t1", "t2"]


def test_expanded_query_composition():
    lq = learned_query([("b", 0.5), ("a", 0.25)])
    assert lq == "#WAND (0.25 a 0.5 b )"
    eq = expanded_query("orig terms", lq, 0.6)
    assert eq == "#WAND (0.6 orig terms 0.4 #WAND (0.25 a 0.5 b ) )"


# ------------------------------------------------------------------ diversity


def _qi_basic():
    q = [("d1", 0.9), ("d2", 0.8), ("d3", 0.7)]
    i1 = [("d1", 0.9), ("d3", 0.6)]
    i2 = [("d2", 0.8)]
    return normalize("q", q, [[], i1, i2], max_input=10)


def test_normalize_no_scaling_when_below_1():
    qi = _qi_basic()
    assert qi.largest == 1.0
    assert qi.intent_score("d1", 1) == 0.9
    assert qi.intent_score("d1", 2) == 0.0


def test_normalize_scales_by_max_sum():
    q = [("d1", 2.0), ("d2", 1.0)]
    i1 = [("d1", 4.0), ("d2", 1.0)]
    qi = normalize("q", q, [[], i1], max_input=10)
    # largest = max(intent sum 5.0, query sum 3.0) = 5.0
    assert qi.largest == 5.0
    assert qi.query_score(0) == 2.0 / 5.0
    assert qi.intent_score("d1", 1) == 4.0 / 5.0


def test_xquad_prefers_diverse_docs():
    # d1 covers intent1, d2 covers intent2; after picking d1, d2's intent2
    # coverage is untouched while another intent1 doc is penalized
    q = [("d1", 0.9), ("d2", 0.85), ("d3", 0.88)]
    i1 = [("d1", 0.9), ("d3", 0.9)]
    i2 = [("d2", 0.9)]
    qi = normalize("q", q, [[], i1, i2], max_input=10)
    out = xquad(qi, lam=0.9, max_result=3, trec_len=3)
    assert out[0][0] == "d1"
    assert out[1][0] == "d2"  # diversity beats d3's higher relevance


def test_pm2_alternates_intents():
    q = [("a1", 1.0), ("a2", 0.99), ("b1", 0.98)]
    i1 = [("a1", 0.9), ("a2", 0.9)]
    i2 = [("b1", 0.9)]
    qi = normalize("q", q, [[], i1, i2], max_input=10)
    out = pm2(qi, lam=0.9, max_result=3, trec_len=3)
    assert out[0][0] in ("a1", "a2")
    assert out[1][0] == "b1"  # quotient flips to the uncovered intent


def test_pm2_monotone_fixup():
    q = [("d1", 1.0), ("d2", 1.0)]
    i1 = [("d1", 0.5), ("d2", 0.5)]
    qi = normalize("q", q, [[], i1], max_input=10)
    out = pm2(qi, lam=0.5, max_result=2, trec_len=2)
    assert out[1][1] <= out[0][1]


def test_diversify_dispatch():
    q = [("d1", 0.9)]
    out = diversify("q", q, [[], [("d1", 0.5)]], algorithm="PM2", lam=0.5)
    assert out[0][0] == "d1"


def test_all_reference_param_files_parse():
    """Every PARAM_DIR/*.param from the reference must parse and map onto a
    known flow (model / prf / ltr / diversity) — the param-surface
    compatibility check."""
    import glob

    from searchengines_ray.models import model_from_params

    files = sorted(glob.glob("/root/reference/PARAM_DIR/*.param"))
    if not files:
        pytest.skip("reference checkout absent: no PARAM_DIR/*.param files")
    assert len(files) >= 25
    for path in files:
        params = read_params(path)
        assert "indexPath" in params, path
        algo = params.get("retrievalAlgorithm", "BM25").lower()
        if algo == "ltr":
            assert "ltr:trainingQrelsFile" in params or True
        else:
            model = model_from_params(params)
            assert model.name in (
                "bm25", "indri", "rankedboolean", "unrankedboolean"
            ), path
        if params.get("diversity", "").lower() == "true":
            assert params.get("diversity:algorithm") in ("PM2", "xQuAD"), path
        if params.get("prf") == "Indri":
            assert "prf:numDocs" in params and "prf:numTerms" in params, path


PARAM_FIXTURES = {  # FIXTURES.md §7: one param set per flow
    "bm25.param": "plain",
    "indri_prf.param": "prf",
    "ltr.param": "ltr",
    "xquad.param": "diversity",
    "pm2.param": "diversity",
}


def _string_literals(*fns) -> set:
    import ast
    import inspect
    import textwrap

    out = set()
    for fn in fns:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        out |= {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
    return out


def test_param_fixtures_map_onto_their_flows():
    """The in-repo param fixtures (tests/data/params) parse, dispatch to
    the flow they are written for, and every ``prf:``/``ltr:``/
    ``diversity:`` key they set is read by that flow's code; model keys
    carry non-default values, so a dropped mapping changes the model."""
    import glob

    from searchengines_ray.models import BM25, Indri, model_from_params
    from searchengines_ray.pipelines import ltr, retrieval
    from searchengines_ray.sources.formats import validate_params

    pdir = os.path.join(os.path.dirname(__file__), "data", "params")
    files = sorted(glob.glob(os.path.join(pdir, "*.param")))
    assert {os.path.basename(f) for f in files} == set(PARAM_FIXTURES)
    readers = {
        "prf": _string_literals(retrieval.run_param_file),
        "ltr": _string_literals(
            retrieval._run_ltr,
            ltr.run_external_trainer,
            ltr.run_external_classifier,
        ),
        "diversity": _string_literals(retrieval._run_diversity),
    }
    for path in files:
        name = os.path.basename(path)
        params = read_params(path)
        validate_params(
            params,
            ("indexPath", "queryFilePath", "trecEvalOutputPath",
             "retrievalAlgorithm"),
        )
        algo = params["retrievalAlgorithm"].lower()
        if algo == "ltr":
            flow = "ltr"
        elif params.get("diversity", "").lower() == "true":
            flow = "diversity"
        elif params.get("prf") == "Indri":
            flow = "prf"
        else:
            flow = "plain"
        assert flow == PARAM_FIXTURES[name], name
        for key in params:
            family = key.split(":", 1)[0]
            if ":" in key and family in readers:
                assert family == flow, (name, key)
                assert key in readers[family], (name, key)
        if flow == "ltr":
            assert {"BM25:k_1", "BM25:b", "BM25:k_3", "Indri:mu",
                    "Indri:lambda"} <= readers["ltr"] & set(params)
            continue
        model = model_from_params(params)
        if algo == "bm25":
            assert model == BM25(k_1=0.9, b=0.4, k_3=7.0), name
        else:
            assert model == Indri(mu=1500.0, lam=0.7), name
        if flow == "diversity":
            assert params["diversity:algorithm"] == (
                "PM2" if name == "pm2.param" else "xQuAD"
            )


def test_curate_corpus_resumable(tmp_path, ray_session):
    import json
    import shutil

    import pandas as pd
    import ray.data

    from searchengines_ray.pipelines.curate import curate_corpus

    en = "the cat and the dog are friends and they play in the sun all day long"
    rows = [{"doc_id": i, "text": f"{en} extra token{i} " + " ".join(f"w{i}_{j}" for j in range(12))} for i in range(12)]
    rows.append({"doc_id": 100, "text": en + " " + " ".join(f"x{j}" for j in range(12))})
    rows.append({"doc_id": 101, "text": en + " " + " ".join(f"x{j}" for j in range(12)) + " tail"})
    rows.append({"doc_id": 200, "text": "der hund und die katze ist nicht ein tier " * 3})  # de
    rows.append({"doc_id": 201, "text": "too short"})
    ds = ray.data.from_items(rows)
    out = str(tmp_path / "curated")
    curated, stats = curate_corpus(
        ds, lang="en", min_words=20, minhash_threshold=0.5,
        out_dir=out, partitions=4,
    )
    got = sorted(curated.to_pandas()["doc_id"].tolist())
    # de doc and short doc filtered; 101 dropped as near-dup of 100
    assert 200 not in got and 201 not in got
    assert 100 in got and 101 not in got
    assert stats["n_dropped"] >= 1 and stats["n_buckets"] >= 1
    # one bucket=<b> directory per hive bucket, holding exactly its docs
    import os

    import pyarrow.parquet as pq

    from searchengines_ray.stages.exchange import bucket_of

    hive = dict(zip(got, bucket_of(np.asarray(got), 4).tolist()))
    buckets = sorted(d for d in os.listdir(out) if d.startswith("bucket="))
    assert buckets == sorted(f"bucket={b}" for b in set(hive.values()))
    assert stats["n_buckets"] == len(set(hive.values())) == len(buckets)
    for d in buckets:
        b = int(d.removeprefix("bucket="))
        ids = pq.read_table(os.path.join(out, d, "part.parquet"))["doc_id"]
        assert ids.to_pylist() == sorted(i for i, h in hive.items() if h == b)
    # partition-level resume: delete one bucket, rerun, only it rewritten
    shutil.rmtree(os.path.join(out, buckets[0]))
    ds2 = ray.data.from_items(rows)
    _, stats2 = curate_corpus(
        ds2, lang="en", min_words=20, minhash_threshold=0.5,
        out_dir=out, partitions=4,
    )
    assert stats2["resumed_buckets"] == stats2["n_buckets"] - 1
    # manifests present per bucket
    for b in os.listdir(out):
        with open(os.path.join(out, b, "MANIFEST.json")) as f:
            assert json.load(f)["n_docs"] >= 0
