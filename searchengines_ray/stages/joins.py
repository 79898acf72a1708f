"""Custom joins Ray Data lacks: as-of (most-recent-prior) join.

The classic attribution query — join every left event to the latest right
event with ``right.ts <= left.ts`` for the same key — is not expressible
with Ray Data's equality join.  Composition used here (documented
partitioning assumption, same as the window stages):

- tag both sides, union, one hash exchange on the join KEY (all rows of a
  key land in one reduce partition),
- inside each partition one vectorized ``pandas.merge_asof`` over the
  key-sorted frames (C-level galloping merge, no per-row Python).

Assumption: a single key's rows fit one task (same contract as
``sessionize``; a pathologically hot key would need the salted two-pass
pattern from ``stages/windows.py``).

Determinism contract (SQL-replicable): the matched right row is
``argmax (ts, tie_col)`` among rows with ``ts <= left.ts`` — ties on the
timestamp break by the highest ``tie_col`` (e.g. event_id), which is
exactly what ``merge_asof`` picks when the right side is pre-sorted by
``(ts, tie_col)``.  Timestamps are compared as exact int64 microseconds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate


def _placeholder(col_type, n: int) -> pd.Series:
    """A length-n pandas column that round-trips to the given column type —
    schema filler so both union sides produce identical block schemas.
    Accepts a pyarrow DataType (arrow-backed blocks) or a numpy dtype
    (pandas-backed blocks, e.g. ``from_pandas`` inputs)."""
    import pyarrow as pa

    if isinstance(col_type, pa.DataType):
        if pa.types.is_timestamp(col_type):
            return pd.Series(
                [pd.NaT] * n, dtype=f"datetime64[{col_type.unit}]"
            )
        if pa.types.is_string(col_type) or pa.types.is_large_string(
            col_type
        ):
            return pd.Series([""] * n, dtype=object)
        dt = col_type.to_pandas_dtype()
    else:
        dt = np.dtype(col_type)
        if dt.kind == "M":
            return pd.Series([pd.NaT] * n, dtype=dt)
        if dt.kind in ("O", "U", "S"):
            return pd.Series([""] * n, dtype=object)
    if np.issubdtype(dt, np.integer):
        return pd.Series(np.full(n, -1, dtype=dt))
    if np.issubdtype(dt, np.floating):
        return pd.Series(np.full(n, np.nan, dtype=dt))
    return pd.Series([None] * n, dtype=object)


def interval_join(
    left_ds,
    right_ds,
    by: str = "user_id",
    on: str = "ts",
    start: str = "start_ts",
    end: str = "end_ts",
    tie_col: str = "event_id",
    right_cols: tuple = ("event_id",),
):
    """Inner 1:N range join: every left row matched with EVERY right
    interval of the same ``by`` key that contains its timestamp
    (``start <= on <= end``, both ends inclusive, exact int64
    microseconds).  Returns the left columns plus ``iv_<col>`` for each of
    ``right_cols``.

    Plan: same single key-hash shuffle as :func:`asof_join`; inside each
    bucket the candidate window per point is found with two vectorized
    ``searchsorted`` calls on the (key-major, start-minor) sorted interval
    array — candidates are intervals whose start lies in
    ``[t - max_len, t]`` (max_len = the bucket's longest interval), then
    the exact ``end >= t`` filter is applied after a vectorized range
    expansion.  Per-bucket cost is O(points x overlap), never all-pairs.

    Determinism: output order within a bucket is (left row order, then
    interval (start, tie_col) ascending) — but callers should treat row
    order as unspecified (the entry sorts); the MATCH SET is exact.
    """

    lschema = left_ds.schema()
    left_schema = list(lschema.names)
    left_types = dict(zip(lschema.names, lschema.types))
    rpayload = list(dict.fromkeys((tie_col,) + tuple(right_cols)))

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        for c in rpayload:  # right payload placeholders (int64 contract)
            b[f"_r_{c}"] = np.int64(-1)
        b["_side"] = np.int8(0)
        b["_ts_us"] = b[on].astype("datetime64[us]").astype("int64")
        b["_s_us"] = np.int64(0)
        b["_e_us"] = np.int64(0)
        return b

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        # schema-align with the left blocks: real value for the join key,
        # typed placeholders for every other left column
        b = pd.DataFrame(
            {
                c: (
                    batch[c].reset_index(drop=True)
                    if c == by
                    else _placeholder(left_types[c], n)
                )
                for c in left_schema
            }
        )
        for c in rpayload:
            b[f"_r_{c}"] = batch[c].to_numpy().astype(np.int64)
        b["_side"] = np.int8(1)
        b["_ts_us"] = np.int64(0)
        b["_s_us"] = (
            batch[start].astype("datetime64[us]").astype("int64").to_numpy()
        )
        b["_e_us"] = (
            batch[end].astype("datetime64[us]").astype("int64").to_numpy()
        )
        return b

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group.loc[group["_side"] == 0]
        right = group.loc[group["_side"] == 1]
        def _empty() -> pd.DataFrame:
            out = group.iloc[0:0][left_schema].copy()
            for c in right_cols:
                out[f"iv_{c}"] = pd.array([], dtype="int64")
            return out

        if left.empty or right.empty:
            return _empty()
        right = right.sort_values(
            [by, "_s_us", f"_r_{tie_col}"], kind="mergesort"
        )
        rkey = right[by].to_numpy(np.int64)
        rs = right["_s_us"].to_numpy(np.int64)
        re_ = right["_e_us"].to_numpy(np.int64)
        max_len = int(np.maximum(re_ - rs, 0).max())
        lkey = left[by].to_numpy(np.int64)
        lt = left["_ts_us"].to_numpy(np.int64)
        # candidate range per point: same key, start in [t - max_len, t].
        # (key, ts) lexicographic order packed into one int64 via DENSE
        # RANKS over the pooled values (order-isomorphic, no overflow —
        # a direct key*C+ts pack would overflow int64 for us timestamps)
        pool = np.unique(np.concatenate([rs, lt, lt - max_len]))
        ukeys = np.unique(np.concatenate([rkey, lkey]))
        M = np.int64(len(pool) + 1)
        rpack = np.searchsorted(ukeys, rkey) * M + np.searchsorted(pool, rs)
        lk_r = np.searchsorted(ukeys, lkey) * M
        lo = np.searchsorted(
            rpack, lk_r + np.searchsorted(pool, lt - max_len), "left"
        )
        hi = np.searchsorted(
            rpack, lk_r + np.searchsorted(pool, lt), "right"
        )
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return _empty()
        lrep = np.repeat(np.arange(len(left), dtype=np.int64), cnt)
        cum = np.zeros(len(cnt), dtype=np.int64)
        np.cumsum(cnt[:-1], out=cum[1:])
        ridx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, cnt)
            + np.repeat(lo, cnt)
        )
        ok = re_[ridx] >= lt[lrep]
        lrep, ridx = lrep[ok], ridx[ok]
        out = left.iloc[lrep][left_schema].reset_index(drop=True)
        rr = right.iloc[ridx].reset_index(drop=True)
        for c in right_cols:
            out[f"iv_{c}"] = rr[f"_r_{c}"].to_numpy().astype(np.int64)
        return out

    tagged = left_ds.map_batches(tag_left, batch_format="pandas").union(
        right_ds.map_batches(tag_right, batch_format="pandas")
    )
    return bucket_aggregate(tagged, join_bucket, key=[by])


def asof_join(
    left_ds,
    right_ds,
    by: str = "user_id",
    on: str = "ts",
    tie_col: str = "event_id",
    right_cols: tuple = ("event_id",),
):
    """For every left row, attach the most recent right row at-or-before
    its timestamp with the same ``by`` key (backward as-of, exact matches
    allowed).  Returns the left columns plus ``attr_<col>`` for each of
    ``right_cols`` (``-1`` when no prior right row exists) and ``lag_us``
    (int64 microseconds since the matched row; ``-1`` for no match).

    API contract: right-side ``right_cols`` values must be NON-NEGATIVE
    integers — ``-1`` doubles as the no-match sentinel, so a legitimate
    ``-1`` id would be indistinguishable from "no prior row".  Callers
    needing signed ids should test ``lag_us >= 0`` (always a valid
    matched-flag: real lags are non-negative by construction) instead of
    the attr value.
    """

    left_schema = list(left_ds.schema().names)

    def tag(side: int):
        def _t(batch: pd.DataFrame) -> pd.DataFrame:
            b = batch.copy()
            b["_side"] = np.int8(side)
            b["_ts_us"] = b[on].astype("datetime64[us]").astype("int64")
            return b

        return _t

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group.loc[group["_side"] == 0]
        right = group.loc[group["_side"] == 1]
        left = left.sort_values(
            ["_ts_us", tie_col], kind="stable"
        )  # merge_asof needs sorted 'on'
        right = right.sort_values(["_ts_us", tie_col], kind="stable")
        rsub = right[[by, "_ts_us"] + list(right_cols)].rename(
            columns={c: f"attr_{c}" for c in right_cols}
        ).rename(columns={"_ts_us": "_attr_ts_us"})
        m = pd.merge_asof(
            left,
            rsub,
            left_on="_ts_us",
            right_on="_attr_ts_us",
            by=by,
            direction="backward",
            allow_exact_matches=True,
        )
        lag = m["_attr_ts_us"].to_numpy()
        matched = ~np.isnan(lag)
        out = m[left_schema].copy()
        for c in right_cols:
            v = m[f"attr_{c}"].to_numpy()
            out[f"attr_{c}"] = np.where(
                matched, np.nan_to_num(v, nan=-1), -1
            ).astype(np.int64)
        out["lag_us"] = np.where(
            matched,
            m["_ts_us"].to_numpy()
            - np.nan_to_num(lag, nan=0).astype(np.int64),
            -1,
        ).astype(np.int64)
        return out

    tagged = left_ds.map_batches(tag(0), batch_format="pandas").union(
        right_ds.map_batches(tag(1), batch_format="pandas")
    )
    return bucket_aggregate(tagged, join_bucket, key=[by])


def hash_equijoin(
    left_ds,
    right_ds,
    left_on: str,
    right_on: str,
    right_cols: tuple = (),
    how: str = "inner",
    left_schema_hint: dict | None = None,
    right_schema_hint: dict | None = None,
):
    """Generic distributed equi-join — the plain relational join Ray
    Data's Dataset API lacks.  ``how``: ``inner`` (1:N, left columns +
    ``r_<col>`` payload), ``left`` (outer: every left row survives;
    unmatched payload takes the typed placeholder — ``-1`` for ints,
    ``''`` for strings, NaT/NaN otherwise — so callers needing to
    distinguish a real ``-1`` should join a non-negative id or test a
    string payload), ``semi`` (left rows WITH a match, each once,
    left columns only), or ``anti`` (left rows WITHOUT a match — the
    blocklist-subtract primitive used by dedup survivor filtering).

    Plan: tag-union both sides into ONE block schema (typed placeholders
    from :func:`_placeholder`, so union blocks concat without dtype
    drift), a single key-hash exchange, then one vectorized
    ``pandas.merge`` per reduce partition.  All rows of a key land in
    one partition; the hot-key contract is the caller's (salt the key or
    broadcast the small side via ``ray.put`` instead — the pattern the
    query engine uses for corpus stats).  Output: the left columns plus
    ``r_<col>`` for each of ``right_cols``.  Join keys must share an
    integer or string type; rows with no match are dropped (inner).
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    # Schema hints (name -> numpy/arrow dtype) spare a ``.schema()``
    # call, which on a LAZY dataset partially executes its upstream
    # chain — fatal in iterative loops (pagerank: O(iters^2)
    # re-execution of earlier rounds without the hint).
    if left_schema_hint is not None:
        left_schema = list(left_schema_hint)
        left_types = dict(left_schema_hint)
    else:
        lschema = left_ds.schema()
        left_schema = list(lschema.names)
        left_types = dict(zip(lschema.names, lschema.types))
    if right_schema_hint is not None:
        right_types = dict(right_schema_hint)
    else:
        rschema = right_ds.schema()
        right_types = dict(zip(rschema.names, rschema.types))
    rpayload = list(right_cols)

    def tag_left(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        n = len(b)
        for c in rpayload:
            b[f"_r_{c}"] = _placeholder(right_types[c], n).set_axis(
                b.index
            )
        b["_side"] = np.int8(0)
        return b

    def tag_right(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        b = pd.DataFrame(
            {
                c: (
                    batch[right_on].reset_index(drop=True)
                    if c == left_on
                    else _placeholder(left_types[c], n)
                )
                for c in left_schema
            }
        )
        for c in rpayload:
            b[f"_r_{c}"] = batch[c].reset_index(drop=True)
        b["_side"] = np.int8(1)
        return b

    def join_bucket(group: pd.DataFrame) -> pd.DataFrame:
        left = group.loc[group["_side"] == 0, left_schema]
        if how in ("semi", "anti"):
            keys = group.loc[group["_side"] == 1, left_on]
            m = left[left_on].isin(set(keys))
            return left.loc[m if how == "semi" else ~m]
        right = group.loc[
            group["_side"] == 1,
            [left_on] + [f"_r_{c}" for c in rpayload],
        ]
        out = left.merge(
            right, on=left_on, how="left" if how == "left" else "inner"
        )
        if how == "left":
            # unmatched payload -> the typed placeholder; the merge
            # upcasts int columns to float on NaN, so restore the dtype
            for c in rpayload:
                col = f"_r_{c}"
                ph = _placeholder(right_types[c], 1)
                if out[col].isna().any():
                    out[col] = out[col].fillna(ph.iloc[0])
                out[col] = out[col].astype(ph.dtype)
        return out.rename(
            columns={f"_r_{c}": f"r_{c}" for c in rpayload}
        )

    tagged = left_ds.map_batches(tag_left, batch_format="pandas").union(
        right_ds.map_batches(tag_right, batch_format="pandas")
    )
    # the right key rides in the left_on column of the tagged rows
    return bucket_aggregate(tagged, join_bucket, key=left_on)


def broadcast_join(
    big_ds,
    small_ds,
    on: str,
    right_cols: tuple = (),
    how: str = "inner",
):
    """Broadcast (map-side) equi-join: the small side is collected to
    ONE pandas frame, ``ray.put`` into the object store ONCE, and every
    map task merges against the shared zero-copy read — the pattern the
    query engine uses for corpus stats, promoted to a first-class
    stage.  NO shuffle of the big side at all, which is the entire
    point: for a dimension-table-sized right side this replaces
    :func:`hash_equijoin`'s all-to-all exchange with an
    embarrassingly-parallel per-batch merge.

    Contract: the small side must fit in a worker's heap (caller's
    responsibility — it is materialized with ``to_pandas``).  Output
    matches :func:`hash_equijoin`: ``inner`` = big columns + ``r_<col>``
    payload (1:N duplicates preserved), ``semi``/``anti`` = filtered big
    rows.  Row order within a batch is preserved for semi/anti; inner
    follows pandas merge order per batch.
    """
    import ray

    if how not in ("inner", "semi", "anti"):
        raise ValueError(f"how must be inner|semi|anti, got {how!r}")
    cols = [on] + [c for c in right_cols if c != on]
    small = small_ds.to_pandas()[cols]
    if how in ("semi", "anti"):
        small = small[[on]].drop_duplicates()
    ref = ray.put(small)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        sm = ray.get(ref)
        if how in ("semi", "anti"):
            m = batch[on].isin(sm[on].to_numpy()).to_numpy()
            return batch.loc[m if how == "semi" else ~m]
        out = batch.merge(
            sm.rename(columns={c: f"r_{c}" for c in cols if c != on}),
            on=on,
        )
        return out

    return big_ds.map_batches(merge, batch_format="pandas")
