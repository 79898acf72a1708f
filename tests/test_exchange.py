"""The bucket-hash exchange (stages/exchange.py): the one shuffle-key hash
and the combiner + bucket + per-bucket finalize primitive."""

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from searchengines_ray.stages.exchange import bucket_aggregate, bucket_of


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
            ds, final, key="key", buckets=8, partial=partial,
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
            empty, final, key="key", buckets=8, partial=partial,
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
        buckets=6,
    )
    per_a = bucket_aggregate(
        pairs,
        lambda g: g.groupby("a", as_index=False)["v"].sum(),
        key="a",
        buckets=3,
    ).to_pandas()
    assert list(per_a.columns) == ["a", "v"]
    got = dict(zip(per_a["a"].tolist(), per_a["v"].tolist()))
    assert got == df.groupby("a")["v"].sum().to_dict()
