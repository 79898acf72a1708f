"""The bucket-hash exchange: the one shuffle shape of the package.

Every key-grouped aggregate of the curation operators has the same
plan: a map-side combiner shrinks each block to per-key partials, a hash
exchange brings every row of a key to one reduce task, and one
vectorized pandas ``final`` over all of that task's rows finishes the
aggregate.  A ``final`` groups by its fine key itself; Ray-native
groupby on the fine key would run one callback per key.

- :func:`bucket_of` is the operators' key hash.  Strings hash as
  ``crc32(utf-8) % n``; integers as ``(uint64(x) * 2654435761) % n``
  (Knuth multiplicative).  The LSH registry's writer and reader both use
  it, so its value is also that registry's on-disk hive partition.
- :func:`partition_of` is the exchange's own partition of a key: the
  high 32 bits of a 64-bit Fibonacci hash, mod ``n``.  ``bucket_of``
  keeps an integer's low bits for a power-of-two ``n`` (the Knuth
  constant is 1 mod 16), so strided keys would meet in one reducer.
- :func:`bucket_aggregate` is two rounds of plain Ray tasks that the
  driver coordinates; no Ray Data shuffle operator runs.  The map round
  runs one task per input block: combiner, then a split into ``P``
  partitions by ``partition_of(key, P)``.  The reduce round runs one
  task per partition that received rows and calls ``final`` once over
  them.  The result holds the reducers' frames as block refs, so it is
  never re-executed.  Chained exchanges are nested calls.
- :func:`run_tasks` runs one plain Ray task per call, for a probe that
  needs no exchange; its errors raise the same way.
"""

from __future__ import annotations

import functools
import traceback
import zlib

import numpy as np
import pandas as pd

_KNUTH = np.uint64(2654435761)
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


def _key_array(values) -> np.ndarray:
    """``values`` (a numpy array, pandas Series, pyarrow array or list)
    as a numpy array."""
    if isinstance(values, pd.Series):
        return values.to_numpy()
    if hasattr(values, "to_numpy"):  # pyarrow Array / ChunkedArray
        return values.to_numpy(zero_copy_only=False)
    return np.asarray(values)


def _crc32(arr: np.ndarray) -> np.ndarray:
    try:
        return np.fromiter(
            (zlib.crc32(s.encode()) for s in arr), np.int64, len(arr)
        )
    except AttributeError:  # non-str keys hash by their str()
        return np.fromiter(
            (zlib.crc32(str(s).encode()) for s in arr), np.int64, len(arr)
        )


def bucket_of(values, n: int) -> np.ndarray:
    """Bucket in ``[0, n)`` of every key in ``values`` (a numpy array,
    pandas Series, pyarrow array or list) as int64."""
    arr = _key_array(values)
    if arr.dtype.kind in "iub":
        return ((arr.astype(np.uint64) * _KNUTH) % np.uint64(n)).astype(
            np.int64
        )
    return _crc32(arr) % n


def partition_of(values, n: int) -> np.ndarray:
    """The exchange's partition in ``[0, n)`` of every key in ``values``
    (as :func:`bucket_of` takes them) as int64: the high 32 bits of the
    key's (a string's crc32) 64-bit Fibonacci hash, mod ``n``."""
    arr = _key_array(values)
    if arr.dtype.kind not in "iub":
        arr = _crc32(arr)
    h = arr.astype(np.uint64) * _FIBONACCI
    return ((h >> np.uint64(32)) % np.uint64(n)).astype(np.int64)


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


def _guard(body, n: int, *args) -> list:
    """Run ``body`` as a task with ``n`` returns, the first a status.
    An error becomes that status instead of a failed task: the driver
    raises it once, as its own type, and no orphaned error object is
    logged as unhandled."""
    try:
        return body(*args)
    except Exception as e:
        e.add_note(f"raised in a Ray task:\n{traceback.format_exc()}")
        return [e] + [None] * (n - 1)


@functools.cache
def _task():
    import ray

    return ray.remote(_guard)


def _raise_any(statuses: list) -> None:
    for s in statuses:
        if isinstance(s, BaseException):
            raise s


def _split(block, fns, parts: int, batch_format: str) -> list:
    """Map task: combine one block and cut its rows into ``parts``
    partitions by ``partition_of(key, parts)``, each in input order.
    Returns the per-partition row counts, then the partitions (None
    where empty)."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    pa.set_cpu_count(1)
    partial, key, _ = fns
    acc = BlockAccessor.for_block(block)
    # a copy, as map_batches hands over: a combiner may write its batch
    batch = BlockAccessor.for_block(
        acc.slice(0, acc.num_rows(), copy=True)
    ).to_batch_format(batch_format)
    if partial is not None:
        batch = partial(batch)
    part = partition_of(_keys(batch, key), parts)
    order = np.argsort(part, kind="stable")
    counts = np.bincount(part, minlength=parts)
    if isinstance(batch, pd.DataFrame):
        take = batch.take
    else:
        take = lambda idx: batch.take(pa.array(idx))  # noqa: E731
    ends = np.cumsum(counts)
    return [counts] + [
        take(order[e - c : e]) if c else None for c, e in zip(counts, ends)
    ]


def _reduce(fns, *pieces) -> list:
    """Reduce task: ``final`` over every row of one partition, the
    pieces in map-task order.  Returns its row count, then the frame."""
    import pyarrow as pa
    from ray.data.block import BlockAccessor

    pa.set_cpu_count(1)
    if isinstance(pieces[0], pd.DataFrame):
        rows = pd.concat(pieces, ignore_index=True)
    else:
        rows = BlockAccessor.for_block(
            pa.concat_tables(pieces, promote_options="default")
        ).to_pandas()
    out = fns[2](rows)
    out.index = pd.RangeIndex(len(out))
    return [len(out), out]


def bucket_aggregate(ds, final, *, key, partial=None, batch_format="pandas"):
    """``final`` of each reduce partition's rows, as a hash exchange of
    plain Ray tasks, with an optional map-side combiner.

    ``partial`` (a function of one ``batch_format`` batch, pandas or
    pyarrow) runs once per input block first; without it the input
    blocks are split as they are.  ``key`` names the column to hash; a
    list of integer (or datetime) columns is one composite int64 key; a
    function of the (combined) batch returns the keys itself.  ``final``
    gets all rows of one partition as a pandas frame of its own, so it
    must group by its key itself: every row of a key is in one call, and
    a key's rows keep input order.  It returns a pandas frame.

    The call runs the exchange: the input's blocks are produced (a lazy
    upstream runs as one map-only execution), one map task per non-empty
    block splits its rows into ``P`` partitions by ``partition_of(key,
    P)``, with ``P`` the number of non-empty blocks, and one reduce task
    per partition that received rows calls ``final`` once.  The result
    is a materialized Dataset of the reducers' frames that have rows, in
    partition order (all empty: the last frame, which keeps ``final``'s
    columns; no rows reached a reducer: one empty block without a
    schema).  An error raised by ``partial``, ``key`` or ``final`` is
    raised here, once, as its own type.
    """
    import ray
    import ray.data

    blocks = [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows != 0
    ]
    parts = len(blocks)
    fns = ray.put((partial, key, final))
    split = _task().options(num_returns=parts + 1)
    maps = [
        split.remote(_split, parts + 1, ref, fns, parts, batch_format)
        for ref in blocks
    ]
    counts = ray.get([m[0] for m in maps])
    _raise_any(counts)
    reduce = _task().options(num_returns=2)
    outs = []
    for p in range(parts):
        pieces = [m[p + 1] for m, c in zip(maps, counts) if c[p]]
        if pieces:
            outs.append(reduce.remote(_reduce, 2, fns, *pieces))
    if not outs:
        return ray.data.from_pandas(pd.DataFrame())
    rows = ray.get([o[0] for o in outs])
    _raise_any(rows)
    frames = [o[1] for o, n in zip(outs, rows) if n] or [outs[-1][1]]
    return ray.data.from_pandas_refs(frames)


def _one(fn, *args) -> list:
    return [fn(*args)]


def run_tasks(fn, calls: list) -> list:
    """``fn(*args)`` for every ``args`` tuple in ``calls``, one plain Ray
    task each, in order.  Object refs among the arguments arrive
    resolved.  An error raised by ``fn`` is raised here, once, as its
    own type."""
    import ray

    outs = ray.get([_task().remote(_one, 1, fn, *args) for args in calls])
    _raise_any([o[0] for o in outs])
    return [o[0] for o in outs]
