"""Windowed aggregation over an ordered event log.

Ray Data has no event-time windowing; the engine's tumbling-window aggregate
is a window-key projection (vectorized Arrow timestamp floor) followed by a
pre-aggregated groupby — the guide's "combiner before shuffle" shape.  The
ordering assumption: windows are keyed by event time, not arrival order, so
late rows land in their correct window (one-shot batch semantics; no
watermarks needed).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate, bucket_of


def tumbling_window_agg(events_ds, minutes: int = 60):
    """Per (event_type, window) count and value sum/mean.

    Window = ``ts`` floored to ``minutes``-minute boundaries (UTC-naive,
    matching DuckDB date_trunc semantics for whole-hour windows).
    Returns a Dataset with columns event_type, window_start, n_events,
    sum_value.
    """

    def add_window(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch["ts"].dt.floor(f"{minutes}min")
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "window_start": w,
                "value": batch["value"],
            }
        )

    with_w = events_ds.map_batches(add_window, batch_format="pandas")
    return _agg_by_window(with_w)


def _agg_by_window(with_w):
    """Combiner-before-shuffle aggregation over (event_type, window_start)
    rows: pre-aggregate inside each batch, then ONE key-hash bucketed
    groupby with a vectorized per-bucket sum (Ray's native multi-key
    ``groupby([...]).sum`` is a sorted exchange with per-key overhead —
    measured ~4x slower on this repo's key shapes)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby(
            ["event_type", "window_start"], as_index=False
        ).agg(n_events=("value", "size"), sum_value=("value", "sum"))

    def window_key(g: pd.DataFrame) -> np.ndarray:
        # (event_type, window) as one int64: the type's full 32-bit hash
        w_us = (
            g["window_start"].astype("datetime64[us]").astype("int64")
            .to_numpy()
        )
        return bucket_of(g["event_type"], 1 << 32) * np.int64(1000003) + w_us

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(
            ["event_type", "window_start"], as_index=False
        )[["n_events", "sum_value"]].sum()
        g["n_events"] = g["n_events"].astype("int64")
        return g[["event_type", "window_start", "n_events", "sum_value"]]

    return bucket_aggregate(
        with_w, final, key=window_key, partial=partial
    )


def hopping_window_agg(
    events_ds, window_minutes: int = 60, hop_minutes: int = 15
):
    """Hopping (overlapping) windows: every event lands in the
    ``window/hop`` windows covering it — the expansion happens VECTORIZED
    inside ``map_batches`` (k tiled frames per batch, k small), then the
    same combiner + groupby as the tumbling aggregate.  Shuffle volume is
    k x the pre-aggregated partials, never k x the event stream."""
    if window_minutes % hop_minutes:
        raise ValueError("window_minutes must be a multiple of hop_minutes")
    k = window_minutes // hop_minutes

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        base = batch["ts"].dt.floor(f"{hop_minutes}min")
        frames = []
        for i in range(k):
            frames.append(
                pd.DataFrame(
                    {
                        "event_type": batch["event_type"],
                        "window_start": base
                        - pd.Timedelta(minutes=hop_minutes * i),
                        "value": batch["value"],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return _agg_by_window(
        events_ds.map_batches(expand, batch_format="pandas")
    )


def sessionize(events_ds, gap_minutes: int = 30, salt_hours: int | None = 24):
    """Session windows per user: order events by ts, split on gaps >
    gap_minutes.

    SALTED two-pass design (default): pass 1 splits sessions inside
    ``(user_id, salt)`` units where salt = ts floored to ``salt_hours``
    — so a bot-grade hot user never forces one task to hold its whole
    history, only one salt bucket's worth.  Pass 2 takes the
    (session-summary-sized, events-free) pass-1 output per user and
    stitches sessions across salt boundaries: consecutive summaries
    merge when ``start - prev_end <= gap`` — exactly the split
    condition pass 1 applied, so the result is IDENTICAL to the
    unsalted single pass (pinned by the SQL window-function oracle).
    ``salt_hours=None`` falls back to the single-pass one-group-per-user
    plan.

    Both passes are hash exchanges that vectorize across keys inside
    each reduce partition (one sort + shift-compare + C-level
    groupby-agg per partition) — a per-(user, salt) ``map_groups`` ran
    one Python callback per key (~46k tiny frames at sf0.1, 150 s; the
    bucketed form is ~13 s on the same input).
    """
    gap_s = gap_minutes * 60

    def sessions(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("ts", kind="mergesort")
        gaps = g["ts"].diff().dt.total_seconds().fillna(0.0)
        new_sess = (gaps > gap_s).cumsum()
        out = g.assign(session=new_sess).groupby("session").agg(
            user_id=("user_id", "first"),
            session_start=("ts", "first"),
            session_end=("ts", "last"),
            n_events=("ts", "size"),
            sum_value=("value", "sum"),
        )
        return out.reset_index(drop=True)

    if salt_hours is None:
        return events_ds.groupby("user_id").map_groups(
            sessions, batch_format="pandas"
        )

    def add_salt(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["_salt"] = batch["ts"].dt.floor(f"{salt_hours}h")
        return batch


    def sessions_bucket(group: pd.DataFrame) -> pd.DataFrame:
        # vectorized across every (user, salt) unit in the bucket:
        # one sort, shift-compares for unit/gap breaks, one C-level
        # groupby-agg — no per-key Python
        g = group.sort_values(
            ["user_id", "_salt", "ts"], kind="mergesort"
        )
        same = (
            g["user_id"].eq(g["user_id"].shift())
            & g["_salt"].eq(g["_salt"].shift())
        ).to_numpy()
        gaps = (
            g["ts"].diff().dt.total_seconds().fillna(np.inf).to_numpy()
        )
        sid = np.cumsum(~same | (gaps > gap_s))
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "first"),
            session_end=("ts", "last"),
            n_events=("ts", "size"),
            sum_value=("value", "sum"),
        )
        return out.reset_index(drop=True)

    def stitch_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "session_start"], kind="mergesort"
        )
        same_user = g["user_id"].eq(g["user_id"].shift()).to_numpy()
        prev_end = g["session_end"].shift(1)
        gap_ok = (
            (g["session_start"] - prev_end)
            .dt.total_seconds()
            .fillna(np.inf)
            .to_numpy()
        )
        sid = np.cumsum(~same_user | (gap_ok > gap_s))
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("session_start", "first"),
            session_end=("session_end", "max"),
            n_events=("n_events", "sum"),
            sum_value=("sum_value", "sum"),
        )
        return out.reset_index(drop=True)

    pass1 = bucket_aggregate(
        events_ds,
        sessions_bucket,
        key=["user_id", "_salt"],
        partial=add_salt,
    )
    return bucket_aggregate(
        pass1, stitch_bucket, key="user_id"
    )


def funnel_stages(events_ds, stages=("view", "click", "purchase")):
    """Ordered funnel analysis: how far down ``stages`` each user got,
    where stage k+1 must occur STRICTLY after the earliest time stage k
    was reached (exact int64 microseconds; the SQL mirror is a chain of
    ``MIN(ts) ... WHERE ts > prev`` joins).

    Returns ``(user_id, reached)`` for every user with >= 1 event,
    ``reached`` in 0..len(stages).

    Plan: events shuffle ONCE on a user-hash exchange; inside each
    reduce partition every stage transition is a vectorized merge +
    groupby-min over that stage's rows only (no per-user Python, no per-event
    scan per stage).  Users never span partitions, so the fold is exact.
    """

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": u,
                "ts_us": batch["ts"]
                .astype("datetime64[us]")
                .astype("int64"),
                "event_type": batch["event_type"],
            }
        )

    def fold(group: pd.DataFrame) -> pd.DataFrame:
        users = pd.DataFrame(
            {"user_id": group["user_id"].unique().astype(np.int64)}
        )
        reached = pd.Series(
            np.zeros(len(users), dtype=np.int64),
            index=users["user_id"].to_numpy(),
        )
        # prev: per-user time the previous stage was first reached
        prev = None
        for depth, ev in enumerate(stages, start=1):
            rows = group.loc[
                group["event_type"] == ev, ["user_id", "ts_us"]
            ]
            if prev is not None:
                rows = rows.merge(prev, on="user_id")
                rows = rows.loc[rows["ts_us"] > rows["prev_us"]]
            if rows.empty:
                break
            cur = (
                rows.groupby("user_id", as_index=False)["ts_us"]
                .min()
                .rename(columns={"ts_us": "prev_us"})
            )
            reached.loc[cur["user_id"].to_numpy()] = depth
            prev = cur
            rows = None
        return pd.DataFrame(
            {
                "user_id": reached.index.to_numpy(),
                "reached": reached.to_numpy(),
            }
        )

    return bucket_aggregate(
        events_ds, fold, key="user_id", partial=tag
    )


def cohort_retention(events_ds):
    """Cohort retention matrix: users grouped by first-active day
    (cohort), counted on each later active day offset.

    Returns ``(cohort_day, offset_days, n_users)`` — n_users = number
    of cohort members active exactly ``offset_days`` after their first
    day (offset 0 = the cohort size itself, since day 0 is active by
    definition).  Exact integer day arithmetic (epoch days).

    Plan: one user-hash shuffle; each bucket reduces every user to its
    distinct (cohort, offset) day set (vectorized groupby-min + merge),
    emits per-bucket partial counts, and one tiny (cohort, offset)
    groupby sums them — the shuffle moves day-set-sized partials, never
    events.
    """

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy().astype(np.int64)
        day = (
            batch["ts"].astype("datetime64[us]").astype("int64")
            // np.int64(86_400_000_000)
        )
        return pd.DataFrame(
            {
                "user_id": u,
                "day": day,
            }
        )

    def per_user(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["user_id", "day"]].drop_duplicates()
        g = g.merge(
            g.groupby("user_id", as_index=False)["day"]
            .min()
            .rename(columns={"day": "cohort_day"}),
            on="user_id",
        )
        g["offset_days"] = g["day"] - g["cohort_day"]
        out = g.groupby(["cohort_day", "offset_days"], as_index=False).size()
        out = out.rename(columns={"size": "n_users"})
        out["n_users"] = out["n_users"].astype("int64")
        return out

    user_cells = bucket_aggregate(
        events_ds, per_user, key="user_id", partial=tag
    )
    return bucket_aggregate(
        user_cells,
        lambda g: g.groupby(["cohort_day", "offset_days"], as_index=False)[
            "n_users"
        ].sum(),
        key=["cohort_day", "offset_days"],
    )


def rolling_user_agg(events_ds, window_rows: int = 5):
    """Per-user moving aggregate over the last ``window_rows`` events
    (current row + window_rows-1 preceding) in (ts, event_id) order —
    the ordered-window analytic (``ROWS BETWEEN n PRECEDING AND CURRENT
    ROW``) that tumbling/hopping windows don't cover.

    Values are floored to integer milli-units BEFORE summing, so the
    moving sums are exact int64 and order-free within the frozen (ts,
    event_id) sort — bit-identical to the SQL window function.  One
    user-hash shuffle; the rolling sum runs vectorized per bucket
    (pandas C rolling over user groups).  Returns
    ``(event_id, roll_sum_milli, roll_n)``.
    """

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": u,
                "event_id": batch["event_id"].to_numpy().astype(
                    np.int64
                ),
                "ts_us": batch["ts"]
                .astype("datetime64[us]")
                .astype("int64"),
                "v": np.floor(
                    batch["value"].to_numpy().astype(np.float64)
                    * 1000.0
                ).astype(np.int64),
            }
        )

    def roll(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort"
        )
        r = g.groupby("user_id", sort=False)["v"].rolling(
            window_rows, min_periods=1
        )
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "roll_sum_milli": r.sum()
                .to_numpy()
                .astype(np.int64),
                "roll_n": r.count().to_numpy().astype(np.int64),
            }
        )

    return bucket_aggregate(
        events_ds, roll, key="user_id", partial=tag
    )


def window_unique_users(events_ds, minutes: int = 60):
    """Exact distinct-user count per tumbling window — the DAU/HAU
    analytic.  COUNT(DISTINCT) does not pre-aggregate like a sum, so
    the plan dedups first: per-batch unique (window, user) pairs, one
    pair-hash bucketed groupby finishes the global dedup AND folds
    each window's partial distinct count, then a tiny window-keyed
    groupby sums partials.  Shuffle #1 carries per-batch UNIQUE pairs
    (bounded by windows x active users per batch), shuffle #2 one row
    per (bucket, window).
    """

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        w = (
            batch["ts"]
            .dt.floor(f"{minutes}min")
            .astype("datetime64[us]")
            .astype("int64")
            .to_numpy()
        )
        u = batch["user_id"].to_numpy().astype(np.int64)
        uniq = np.unique(np.stack([w, u], axis=1), axis=0)
        return pd.DataFrame({"w_us": uniq[:, 0], "user_id": uniq[:, 1]})

    def bucket_count(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["w_us", "user_id"])
        c = g.groupby("w_us", as_index=False).size()
        return pd.DataFrame(
            {
                "w_us": c["w_us"].astype("int64"),
                "n": c["size"].astype("int64"),
            }
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        c = group.groupby("w_us", as_index=False)["n"].sum()
        return pd.DataFrame(
            {
                "window_start": c["w_us"]
                .astype("int64")
                .astype("datetime64[us]"),
                "n_users": c["n"].astype("int64"),
            }
        )

    return (
        bucket_aggregate(
            events_ds,
            bucket_count,
            key=["w_us", "user_id"],
            partial=pairs,
        )
        .groupby("w_us")
        .map_groups(final, batch_format="pandas")
    )


def event_transitions(events_ds):
    """Per-user ordered event-type transition counts — the Markov-chain
    / session-flow table: for each user's (ts, event_id)-ordered
    stream, count consecutive (from_type -> to_type) pairs, summed over
    all users.  One user-keyed shuffle builds per-user orderings
    (vectorized shift inside each reduce partition, no per-user Python),
    partial pair counts ride to a small (from, to)-keyed groupby.
    """

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": u,
                "event_id": batch["event_id"].to_numpy().astype(
                    np.int64
                ),
                "ts_us": batch["ts"]
                .astype("datetime64[us]")
                .astype("int64"),
                "event_type": batch["event_type"],
            }
        )

    def pair_partials(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort"
        )
        same = g["user_id"].to_numpy()[:-1] == g["user_id"].to_numpy()[1:]
        frm = g["event_type"].to_numpy()[:-1][same]
        to = g["event_type"].to_numpy()[1:][same]
        df = pd.DataFrame({"from_type": frm, "to_type": to})
        c = df.groupby(["from_type", "to_type"], as_index=False).size()
        return pd.DataFrame(
            {
                "from_type": c["from_type"],
                "to_type": c["to_type"],
                "n": c["size"].astype("int64"),
            }
        )

    def final(group: pd.DataFrame) -> pd.DataFrame:
        c = group.groupby(
            ["from_type", "to_type"], as_index=False
        )["n"].sum()
        return c.astype({"n": "int64"})

    return (
        bucket_aggregate(
            events_ds,
            pair_partials,
            key="user_id",
            partial=tag,
        )
        .groupby("from_type")
        .map_groups(final, batch_format="pandas")
    )


def anomaly_hours(
    events_ds, window: int = 24, z_milli: int = 3000
) -> pd.DataFrame:
    """Trailing z-score anomaly detection over hourly event-type counts —
    the rate-spike monitor of an ingestion pipeline: hour h of type t is
    anomalous when its count exceeds the mean of the previous ``window``
    hours by more than ``z_milli``/1000 population standard deviations.

    ALL-INTEGER contract (no sqrt, no division): with x the current
    count, s / q the sum / sum-of-squares over the n = ``window``
    previous hours of the DENSE zero-filled hourly grid, the test is

        x*n - s > 0  AND  (x*n - s)^2 * 10^6  >  z_milli^2 * (n*q - s^2)

    — the squared form of ``(x - s/n) > z * sqrt(q/n - (s/n)^2)``,
    evaluated in unbounded Python ints (SQL mirror: HUGEINT window
    sums).  Hours with fewer than ``window`` predecessors in the grid
    never flag.

    Scale posture: the distributed work is ONE bucketed (type, hour)
    count aggregation over the unbounded event stream; the driver then
    holds only the dense grid — (time-range-in-hours x types) rows,
    bounded by the clock, not by event count.  Returns a DataFrame
    ``(event_type, hour, cnt)`` of anomalous hours sorted
    (event_type, hour); ``hour`` is the epoch hour.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        us = batch["ts"].astype("datetime64[us]").astype("int64")
        # positives-only contract: numpy // floors while DuckDB //
        # truncates, so a pre-1970 timestamp would bucket differently
        # on the two sides — refuse loudly instead of mismatching
        if len(us) and int(us.min()) < 0:
            raise ValueError(
                "anomaly_hours requires post-epoch timestamps (the "
                "floor/trunc division contract)"
            )
        h = us // 3_600_000_000
        df = pd.DataFrame({"event_type": batch["event_type"], "h": h})
        c = df.groupby(["event_type", "h"], as_index=False).size()
        return pd.DataFrame(
            {
                "event_type": c["event_type"],
                "h": c["h"].astype("int64"),
                "n": c["size"].astype("int64"),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        c = group.groupby(["event_type", "h"], as_index=False)["n"].sum()
        return c.astype({"h": "int64", "n": "int64"})

    counts = bucket_aggregate(
        events_ds,
        merge,
        key="event_type",
        partial=partial,
    ).to_pandas()  # bounded: hours-in-range x types
    empty = pd.DataFrame(
        {
            "event_type": pd.array([], dtype=object),
            "hour": pd.array([], dtype="int64"),
            "cnt": pd.array([], dtype="int64"),
        }
    )
    if len(counts) == 0:
        return empty
    h0, h1 = int(counts["h"].min()), int(counts["h"].max())
    hours = np.arange(h0, h1 + 1, dtype=np.int64)
    out_t, out_h, out_c = [], [], []
    zz = int(z_milli) * int(z_milli)
    n = int(window)
    for t in sorted(counts["event_type"].unique()):
        sub = counts[counts["event_type"] == t]
        x = np.zeros(len(hours), dtype=np.int64)
        x[sub["h"].to_numpy() - h0] = sub["n"].to_numpy()
        xs = [int(v) for v in x]
        s = q = 0
        for i, xi in enumerate(xs):
            if i >= n:
                lhs = xi * n - s
                if lhs > 0 and lhs * lhs * 1_000_000 > zz * (n * q - s * s):
                    out_t.append(t)
                    out_h.append(h0 + i)
                    out_c.append(xi)
            # slide the exclusive trailing window: after adding x_i the
            # sums cover xs[i-n+1..i] once xs[i-n] drops, so the NEXT
            # iteration tests exactly the n preceding hours
            s += xi
            q += xi * xi
            if i >= n:
                old = xs[i - n]
                s -= old
                q -= old * old
    return pd.DataFrame(
        {
            "event_type": pd.array(out_t, dtype=object),
            "hour": pd.array(out_h, dtype="int64"),
            "cnt": pd.array(out_c, dtype="int64"),
        }
    )
