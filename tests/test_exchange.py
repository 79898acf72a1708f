"""The bucket-hash exchange (stages/exchange.py): the one shuffle-key hash
and the combiner + hash-partition + per-partition finalize primitive."""

import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from searchengines_ray.stages.exchange import bucket_aggregate, bucket_of, partition_of


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
def test_bucket_of_strings_is_crc32(n):
    words = ["", "a", "hello", "héllo wörld", "日本語", "x" * 300, "tab\tsep"]
    want = [zlib.crc32(s.encode()) % n for s in words]
    assert bucket_of(words, n).tolist() == want
    assert bucket_of(pd.Series(words, dtype=object), n).tolist() == want
    assert bucket_of(pa.array(words, pa.string()), n).tolist() == want
    assert bucket_of(pa.chunked_array([words[:3], words[3:]]), n).tolist() == want


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
def test_bucket_of_ints_is_uint64_knuth(n):
    vals = [0, 1, -1, -(2**40), 2**31 - 1, 2**53 + 1, 2**62 + 12345, -(2**63)]
    want = [((v % 2**64) * 2654435761 % 2**64) % n for v in vals]
    arr = np.asarray(vals, dtype=np.int64)
    got = bucket_of(arr, n)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert bucket_of(pd.Series(arr), n).tolist() == want
    assert bucket_of(pa.array(arr), n).tolist() == want
    # narrower ints hash by value, so an int32 side meets an int64 side
    small = np.asarray([0, 5, -3], dtype=np.int32)
    assert bucket_of(small, n).tolist() == bucket_of(small.astype(np.int64), n).tolist()


def test_bucket_of_empty():
    assert bucket_of(np.empty(0, np.int64), 8).tolist() == []
    assert bucket_of(pa.array([], pa.string()), 8).tolist() == []
    assert partition_of(np.empty(0, np.int64), 8).tolist() == []
    assert partition_of(pa.array([], pa.string()), 8).tolist() == []


@pytest.mark.parametrize("step", [1, 2, 8, 16, 64, 1024, 2**20])
def test_partition_of_spreads_strided_keys(step):
    """The exchange's partition mixes every bit of an integer key: keys
    sharing their low bits (where ``bucket_of`` puts all of
    ``arange(0, 8000, 8)`` in bucket 0 of 8) still spread, no partition
    holding more than twice the mean."""
    keys = np.arange(0, 1000 * step, step, dtype=np.int64)
    small = keys[keys < 2**31].astype(np.int32)
    words = [f"w{i}" for i in range(1000)]
    for n in (2, 5, 8, 16, 32):
        got = partition_of(keys, n)
        assert got.dtype == np.int64 and got.min() >= 0 and got.max() < n
        assert np.bincount(got, minlength=n).max() <= 2 * len(keys) / n
        # as a Series, a pyarrow array and int32 the keys hash alike
        assert partition_of(pd.Series(keys), n).tolist() == got.tolist()
        assert partition_of(pa.array(keys), n).tolist() == got.tolist()
        assert partition_of(small, n).tolist() == got[: len(small)].tolist()
        assert np.bincount(partition_of(words, n), minlength=n).max() <= 2 * 1000 / n


def test_bucket_aggregate_spreads_strided_keys(ray_session):
    """Strided integer keys over 8 blocks reach several reducers."""
    keys = np.arange(0, 8000, 8)
    assert set(bucket_of(keys, 8).tolist()) == {0}
    ds = _blocks(pd.DataFrame({"k": keys}), 8)
    out = bucket_aggregate(
        ds, lambda g: pd.DataFrame({"n": [len(g)]}), key="k"
    ).to_pandas()
    assert out["n"].sum() == len(keys)
    assert out["n"].max() <= 2 * len(keys) / 8


def _rows(ds) -> list:
    df = ds.to_pandas()
    if df.empty:
        return []
    return sorted(df[["key", "total"]].itertuples(index=False, name=None))


def _fns():
    """(final, pandas partial, arrow partial) — closures, so Ray workers
    unpickle them by value without importing this test module."""

    def final(g: pd.DataFrame) -> pd.DataFrame:
        assert "_bucket" not in g.columns
        return g.groupby("key", as_index=False)["v"].sum().rename(
            columns={"v": "total"}
        )

    def partial_pd(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("key", as_index=False)["v"].sum()

    def partial_pa(t: pa.Table) -> pa.Table:
        s = t.group_by("key").aggregate([("v", "sum")])
        return pa.table({"key": s.column("key"), "v": s.column("v_sum")})

    return final, partial_pd, partial_pa


@pytest.mark.parametrize("blocks", [1, 5])
def test_bucket_aggregate_pandas_and_arrow_partials_agree(blocks, ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    keys = [f"k{int(i)}" for i in rng.integers(0, 40, 500)]
    df = pd.DataFrame({"key": keys, "v": rng.integers(0, 9, 500)})
    want = sorted(
        df.groupby("key")["v"].sum().astype(int).items()
    )
    ds = ray.data.from_pandas(df).repartition(blocks)
    final, partial_pd, partial_pa = _fns()
    for partial, fmt in ((None, "pandas"), (partial_pd, "pandas"),
                         (partial_pa, "pyarrow")):
        got = bucket_aggregate(
            ds, final, key="key", partial=partial,
            batch_format=fmt,
        )
        out = got.to_pandas()
        assert "_bucket" not in out.columns
        assert [(k, int(v)) for k, v in _rows(got)] == want, (partial, fmt)


def test_bucket_aggregate_empty_input(ray_session):
    import ray.data

    empty = ray.data.from_pandas(
        pd.DataFrame({"key": pd.Series([], dtype=object),
                      "v": pd.Series([], dtype="int64")})
    )
    final, partial_pd, partial_pa = _fns()
    for partial, fmt in ((partial_pd, "pandas"), (partial_pa, "pyarrow")):
        got = bucket_aggregate(
            empty, final, key="key", partial=partial,
            batch_format=fmt,
        )
        assert _rows(got) == []


def test_bucket_aggregate_chained_and_composite_key(ray_session):
    """A nested exchange re-buckets by a different key; a list of
    columns is one composite key."""
    import ray.data

    df = pd.DataFrame(
        {"a": np.arange(200) % 7, "b": np.arange(200) % 5, "v": 1}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    pairs = bucket_aggregate(
        ds,
        lambda g: g.groupby(["a", "b"], as_index=False)["v"].sum(),
        key=["a", "b"],
    )
    per_a = bucket_aggregate(
        pairs,
        lambda g: g.groupby("a", as_index=False)["v"].sum(),
        key="a",
    ).to_pandas()
    assert list(per_a.columns) == ["a", "v"]
    got = dict(zip(per_a["a"].tolist(), per_a["v"].tolist()))
    assert got == df.groupby("a")["v"].sum().to_dict()


@pytest.fixture
def ray_log(caplog):
    """caplog over Ray's loggers, which do not propagate to the root."""
    import logging

    loggers = [logging.getLogger("ray"), logging.getLogger("ray.data")]
    for lg in loggers:
        lg.addHandler(caplog.handler)
    yield caplog
    for lg in loggers:
        lg.removeHandler(caplog.handler)


def _logged(caplog, needle: str) -> list:
    return [r.getMessage() for r in caplog.records if needle in r.getMessage()]


def _blocks(df: pd.DataFrame, n: int):
    import ray.data

    return ray.data.from_pandas(
        [df.iloc[p] for p in np.array_split(np.arange(len(df)), n)]
    )


def test_two_keys_over_eight_blocks(ray_session, ray_log):
    """Most of the 8 partitions get no rows, and contribute no block."""
    import ray.data

    df = pd.DataFrame({"key": ["a", "b"] * 40, "v": np.arange(80)})
    ds = _blocks(df, 8)
    assert ds.num_blocks() == 8
    final, partial_pd, _ = _fns()
    got = bucket_aggregate(ds, final, key="key", partial=partial_pd)
    parts = set(partition_of(["a", "b"], 8).tolist())
    assert got.num_blocks() == len(parts) <= 2
    want = sorted(df.groupby("key")["v"].sum().items())
    assert [(k, int(v)) for k, v in _rows(got)] == want
    doubled = got.map_batches(
        lambda b: b.assign(total=b["total"] * 2), batch_format="pandas"
    ).to_pandas()
    assert sorted(doubled["total"].tolist()) == sorted(2 * v for _, v in want)
    assert _logged(ray_log, "different schema") == []
    # a zero-row input block, here without columns, emits nothing
    with_empty = ray.data.from_pandas(
        [df.iloc[:40], pd.DataFrame(), df.iloc[40:]]
    )
    got = bucket_aggregate(with_empty, final, key="key", partial=partial_pd)
    assert [(k, int(v)) for k, v in _rows(got)] == want


def test_nested_exchange_over_mostly_empty_partitions(ray_session, ray_log):
    """A first exchange whose finals mostly return column-less empty
    frames feeds a second one keyed on a column those frames lack."""
    df = pd.DataFrame(
        {"doc_a": np.arange(64) % 16, "doc_b": np.arange(64), "v": 1}
    )
    ds = _blocks(df, 8)
    hot = {3, 11}

    def keep_hot(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g["doc_a"].isin(hot)]
        return g if len(g) else pd.DataFrame()

    first = bucket_aggregate(ds, keep_hot, key="doc_a")
    assert first.count() == 8
    second = bucket_aggregate(
        first,
        lambda g: g.groupby("doc_b", as_index=False)["v"].sum(),
        key="doc_b",
    )
    got = sorted(second.to_pandas()[["doc_b", "v"]].itertuples(index=False, name=None))
    assert got == [(b, 1) for b in sorted(df.loc[df["doc_a"].isin(hot), "doc_b"])]

    # every frame empty: the result keeps final's columns, and a nested
    # exchange over it calls nothing
    none = bucket_aggregate(ds, lambda g: g.iloc[0:0][["doc_a"]], key="doc_a")
    assert none.count() == 0 and none.schema().names == ["doc_a"]
    calls = bucket_aggregate(
        none, lambda g: pd.DataFrame({"n": [len(g)]}), key="doc_a"
    )
    assert calls.count() == 0 and calls.to_pandas().empty
    assert _logged(ray_log, "different schema") == []


def test_lazy_union_input(ray_session, ray_log):
    """Two side-tagged lazy map stages, union-ed, as hash_equijoin feeds
    the exchange: both run in one execution and meet by key."""
    rng = np.random.default_rng(11)
    left = pd.DataFrame({"k": rng.integers(0, 30, 200), "x": np.arange(200)})
    right = pd.DataFrame({"k": np.arange(0, 30, 2), "y": np.arange(0, 30, 2) * 10})

    def tag(side: int):
        def run(b: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "k": b["k"].to_numpy(),
                    "val": b["x" if side == 0 else "y"].to_numpy(),
                    "_side": np.int8(side),
                }
            )

        return run

    tagged = _blocks(left, 3).map_batches(tag(0), batch_format="pandas").union(
        _blocks(right, 2).map_batches(tag(1), batch_format="pandas")
    )

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g.loc[g["_side"] == 0, ["k", "val"]].rename(columns={"val": "x"})
        rhs = g.loc[g["_side"] == 1, ["k", "val"]].rename(columns={"val": "y"})
        return lhs.merge(rhs, on="k")

    got = bucket_aggregate(tagged, join_bucket, key="k").to_pandas()
    want = left.merge(right, on="k")
    assert sorted(got[["k", "x", "y"]].itertuples(index=False, name=None)) == sorted(
        want[["k", "x", "y"]].itertuples(index=False, name=None)
    )
    assert _logged(ray_log, "different schema") == []


def test_final_once_per_partition(ray_session):
    """``final`` runs once per reduce partition that received rows (at
    most P = 5, the non-empty block count), sees every row of a key in
    that one call, and gets a key's rows in input order."""
    keys = (np.arange(300) * 7) % 101
    ds = _blocks(pd.DataFrame({"k": keys, "i": np.arange(300)}), 5)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("k", as_index=False).agg(
            rows=("i", "size"),
            ordered=("i", lambda i: bool(np.all(np.diff(i) > 0))),
        )
        out["call"] = os.urandom(8).hex()
        return out

    out = bucket_aggregate(ds, final, key="k").to_pandas()
    parts = partition_of(keys, 5)
    assert out["call"].nunique() == len(set(parts.tolist())) <= 5
    for _, c in out.groupby("call"):
        assert len(set(partition_of(c["k"], 5).tolist())) == 1
    assert out["k"].is_unique and set(out["k"]) == set(keys.tolist())
    counts = np.bincount(keys)
    assert out["rows"].tolist() == counts[out["k"]].tolist()
    assert out["ordered"].all()


def test_errors_raise_as_their_own_type(ray_session, ray_log):
    """A ValueError in ``final`` or ``partial`` reaches the caller as a
    ValueError, raised once: no task error is left to be logged as
    unhandled."""
    import gc
    import time

    ds = _blocks(pd.DataFrame({"key": list("abcdefgh") * 4, "v": 1}), 4)
    final, partial_pd, _ = _fns()

    def bad_final(g):
        raise ValueError("bad final")

    def bad_partial(b):
        raise ValueError("bad partial")

    with pytest.raises(ValueError, match="bad final"):
        bucket_aggregate(ds, bad_final, key="key")
    with pytest.raises(ValueError, match="bad partial"):
        bucket_aggregate(ds, final, key="key", partial=bad_partial)
    gc.collect()
    time.sleep(1.0)
    assert _logged(ray_log, "Unhandled error") == []


_GROUP_COLS = {
    "string": ["s"],
    "int": ["a"],
    "composite": ["a", "b"],
    "callable": ["a", "b"],
}


def _exchange_key(kind: str):
    if kind == "string":
        return "s"
    if kind == "int":
        return "a"
    if kind == "composite":
        return ["a", "b"]
    # works on a pandas frame and on a pyarrow table
    return lambda b: np.asarray(b["a"]) * 5 + np.asarray(b["b"])


@settings(max_examples=24, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=9),
    kind=st.sampled_from(sorted(_GROUP_COLS)),
    combiner=st.sampled_from(["none", "pandas", "pyarrow"]),
    seed=st.integers(0, 2**16),
)
def test_bucket_aggregate_matches_pandas_groupby(
    ray_session, sizes, kind, combiner, seed
):
    """Against a pandas ``groupby`` oracle: 1-9 input blocks (zero-row
    ones with and without columns), no, pandas and Arrow combiners,
    string, int, composite and callable keys.  Each key leaves exactly
    one output row, so no key was split across ``final`` calls; without
    a combiner every key's rows also arrive in input order."""
    import ray.data

    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a, b = rng.integers(0, 7, n), rng.integers(0, 5, n)
    df = pd.DataFrame(
        {
            "s": [f"k{x}" for x in a * 5 + b],
            "a": a,
            "b": b,
            "v": rng.integers(0, 100, n),
            "i": np.arange(n),
        }
    )
    bounds = np.cumsum([0] + sizes)
    frames = [
        df.iloc[lo:hi] if hi > lo or j % 2 else pd.DataFrame()
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    cols = _GROUP_COLS[kind]

    def partial_pd(t: pd.DataFrame) -> pd.DataFrame:
        return t.groupby(cols, as_index=False)["v"].sum()

    def partial_pa(t: pa.Table) -> pa.Table:
        agg = t.group_by(cols).aggregate([("v", "sum")])
        return pa.table({**{c: agg.column(c) for c in cols},
                         "v": agg.column("v_sum")})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        per = g.groupby(cols, as_index=False)
        out = per["v"].sum()
        if "i" in g.columns:
            out["ordered"] = per["i"].agg(
                lambda i: bool(np.all(np.diff(i) > 0))
            )["i"]
        return out

    partial, fmt = {
        "none": (None, "pandas"),
        "pandas": (partial_pd, "pandas"),
        "pyarrow": (partial_pa, "pyarrow"),
    }[combiner]
    got = bucket_aggregate(
        ray.data.from_pandas(frames),
        final,
        key=_exchange_key(kind),
        partial=partial,
        batch_format=fmt,
    ).to_pandas()
    want = df.groupby(cols, as_index=False)["v"].sum()
    if n == 0:
        assert got.empty
        return
    assert not got.duplicated(cols).any()

    def rows(frame):
        return sorted(frame[cols + ["v"]].itertuples(index=False, name=None))

    assert rows(got) == rows(want)
    if combiner == "none":
        assert got["ordered"].all()
