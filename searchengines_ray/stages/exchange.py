"""The bucket-hash exchange: the one shuffle shape of the package.

Every key-grouped aggregate of the curation operators has the same
plan: a map-side combiner shrinks each batch to
per-key partials, each partial row is tagged with a coarse bucket of its
key, one ``groupby(bucket)`` shuffle brings every row of a key to one
task, and a vectorized per-bucket pandas ``final`` finishes the
aggregate.  A few dozen coarse buckets bound per-group Python overhead;
Ray-native groupby on the fine key would run one callback per key.

- :func:`bucket_of` is the only shuffle-key hash.  Strings hash as
  ``crc32(utf-8) % n``; integers as ``(uint64(x) * 2654435761) % n``
  (Knuth multiplicative).  The LSH registry's writer and reader both use
  it, so its value is also that registry's on-disk hive partition.
- :func:`bucket_aggregate` runs combiner + tag in one ``map_batches``
  task, shuffles on the bucket, and hands ``final`` the bucket's rows
  without the bucket column.  Chained exchanges are nested calls.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd

_BUCKET = "_bucket"
_KNUTH = np.uint64(2654435761)


def bucket_of(values, n: int) -> np.ndarray:
    """Bucket in ``[0, n)`` of every key in ``values`` (a numpy array,
    pandas Series, pyarrow array or list) as int64."""
    if isinstance(values, pd.Series):
        arr = values.to_numpy()
    elif hasattr(values, "to_numpy"):  # pyarrow Array / ChunkedArray
        arr = values.to_numpy(zero_copy_only=False)
    else:
        arr = np.asarray(values)
    if arr.dtype.kind in "iub":
        return ((arr.astype(np.uint64) * _KNUTH) % np.uint64(n)).astype(
            np.int64
        )
    try:
        h = np.fromiter((zlib.crc32(s.encode()) for s in arr), np.int64, len(arr))
    except AttributeError:  # non-str keys hash by their str()
        h = np.fromiter(
            (zlib.crc32(str(s).encode()) for s in arr), np.int64, len(arr)
        )
    return h % n


def _keys(batch, key):
    if callable(key):
        return key(batch)
    if isinstance(key, str):
        return batch[key]
    k = None  # composite: fold the columns read as int64
    for col in key:
        v = np.asarray(batch[col]).astype(np.int64)
        k = v if k is None else k * np.int64(1000003) + v
    return k


def _tag(batch, key, buckets: int):
    b = bucket_of(_keys(batch, key), buckets)
    if isinstance(batch, pd.DataFrame):
        # insert, not setitem: a combiner's filtered frame would warn
        batch.insert(len(batch.columns), _BUCKET, b)
        return batch
    import pyarrow as pa

    return batch.append_column(_BUCKET, pa.array(b))


def bucket_aggregate(
    ds, final, *, key, buckets: int = 64, partial=None, batch_format="pandas"
):
    """``groupby(bucket_of(key)).map_groups(final)`` with an optional
    map-side combiner.

    ``buckets`` is the number of coarse shuffle groups; it never changes
    the result.  ``partial`` (a function of one ``batch_format`` batch,
    pandas or pyarrow) runs first; without it the input batches are
    tagged as they are.  ``key`` names the column to hash; a list of
    integer (or datetime) columns is one composite int64 key; a function
    of the (combined) batch returns the keys itself.  ``final`` gets one
    bucket's rows as a pandas frame (every row of a key is in one call)
    and returns a pandas frame; the bucket column never reaches it or
    the output.
    """

    def tag(batch):
        if partial is not None:
            batch = partial(batch)
        return _tag(batch, key, buckets)

    def run(group: pd.DataFrame) -> pd.DataFrame:
        del group[_BUCKET]  # the group is this task's own frame
        return final(group)

    return (
        ds.map_batches(tag, batch_format=batch_format)
        .groupby(_BUCKET)
        .map_groups(run, batch_format="pandas")
    )
