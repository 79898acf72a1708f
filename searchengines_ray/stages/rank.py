"""Grouped top-k: the per-key leaderboard primitive (top-N docs per
language, top-N products per user, ...).

Combiner-first plan — the canonical "pre-aggregate before the shuffle"
pattern: every batch keeps at most k rows per key it contains (vectorized
sort + groupby.head, no per-key Python), so the single key-hash shuffle
moves O(keys_in_batch x k) rows, never the corpus; each reduce partition
then finalizes the exact global top-k per key the same way.

Tie rule (frozen, SQL-replicable): rows order by (val_col desc|asc,
tie_col asc); equal (val, tie) duplicates are impossible when tie_col is
unique.  Matches ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY val
DESC, tie ASC) <= k``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate


def grouped_quantiles(
    ds,
    by: str,
    val_col: str,
    ps: list[float],
    labels: list[str],
):
    """Exact per-key percentiles of an integer-valued column.

    Count-by-value combiner — the right order-statistics plan when the
    metric has bounded distinct values (doc lengths, token counts): each
    batch collapses to its distinct (key, value) counts, so the single
    key-bucketed shuffle moves the HISTOGRAM, never the corpus rows, and
    no global sort is needed.  Each bucket sums its partials and selects,
    per key and per p, the smallest value whose cumulative count >=
    ceil(p * n) — the percentile_disc rule.  The threshold is computed in
    IEEE double (np.float64(p) * n) and the SQL oracle CASTs p to DOUBLE
    before the same ceil, so both sides share one rounding regime by
    construction (DuckDB would otherwise parse 0.9 as DECIMAL).

    Returns columns (by, p: string label, value: int64).
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby([by, val_col], as_index=False).size()
        g = g.rename(columns={"size": "cnt"})
        g["cnt"] = g["cnt"].astype("int64")
        return g

    def final(group: pd.DataFrame) -> pd.DataFrame:
        agg = group.groupby([by, val_col], as_index=False)["cnt"].sum()
        agg = agg.sort_values([by, val_col], kind="mergesort").reset_index(
            drop=True
        )
        agg["_cum"] = agg.groupby(by, sort=False)["cnt"].cumsum()
        n = (
            agg.groupby(by, sort=False)["cnt"]
            .transform("sum")
            .to_numpy()
            .astype(np.float64)
        )
        cum = agg["_cum"].to_numpy().astype(np.float64)
        outs = []
        for p, lab in zip(ps, labels):
            thr = np.ceil(np.float64(p) * n)
            ok = agg.loc[cum >= thr]
            first = ok.groupby(by, sort=False, as_index=False).first()
            outs.append(
                pd.DataFrame(
                    {
                        by: first[by],
                        "p": lab,
                        "value": first[val_col].astype("int64"),
                    }
                )
            )
        return pd.concat(outs, ignore_index=True)

    return bucket_aggregate(
        ds, final, key=by, partial=partial
    )


def grouped_topk(
    ds,
    by: str,
    val_col: str,
    k: int,
    ascending: bool = False,
    tie_col: str = "doc_id",
):
    """Exact top-k rows per ``by`` key ordered by (``val_col``
    desc|asc, ``tie_col`` asc).  Returns the input columns unchanged."""
    cols = list(ds.schema().names)

    def partial_topk(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.sort_values(
            [by, val_col, tie_col],
            ascending=[True, ascending, True],
            kind="mergesort",
        )
        return b.groupby(by, sort=False).head(k)

    def final_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            [by, val_col, tie_col],
            ascending=[True, ascending, True],
            kind="mergesort",
        )
        return g.groupby(by, sort=False).head(k)[cols]

    return bucket_aggregate(
        ds, final_topk, key=by, partial=partial_topk
    )


def ranking_eval(
    ds,
    qid_col: str,
    id_col: str,
    score_col: str,
    rel_col: str,
    k: int = 10,
    max_rel: int = 2,
):
    """Per-query IR evaluation metrics over a (query, doc, score,
    graded-relevance) table — the distributed equivalent of trec_eval
    over a run file + qrels (reference consumes such runs via
    `QryEval/QryEval.java` trec output; evaluation itself is external
    there).

    Ranking rule (frozen): per ``qid_col``, rank by (``score_col``
    desc, ``id_col`` asc), truncate at ``k``.  Output per qid — ALL
    exact integers, so the contract is order-free and float-safe:

    - ``n_ret``: rows in the top-k (== min(k, rows for qid)).
    - ``p_at_k_num``: relevant (rel>0) rows in the top-k; P@k =
      p_at_k_num / k.
    - ``first_rel_rank``: rank of the first relevant row (0 if none);
      MRR term = 1 / first_rel_rank.
    - ``ap_num_lcm``: sum over relevant ranks i<=k of
      cum_rel(i) * (L // i) with L = lcm(1..k); AP =
      ap_num_lcm / (L * n_rel).
    - ``n_rel``: corpus-wide relevant count for the qid (AP / recall
      denominator).
    - ``dcg_micro`` / ``idcg_micro``: sum of
      floor((2^rel - 1) / log2(rank+1) * 1e6) over the actual /
      ideal top-k (ideal = all the qid's docs sorted by rel desc);
      nDCG@k ~= dcg_micro / idcg_micro.  Terms are floored to
      integer micro-units BEFORE summing, so the distributed sum is
      order-free; log2 is libm (bit-identical in DuckDB).

    One shuffle: per-batch combiner keeps top-k rows per qid plus
    per-(batch,qid) relevance-grade partial counts piggybacked on the
    first kept row, then one key-hash exchange finalizes both.
    Grades must be integers in [0, max_rel].
    """
    import math

    lcm = math.lcm(*range(1, k + 1))
    pc_cols = [f"_pc{g}" for g in range(1, max_rel + 1)]
    # Discount table: disc_micro[g][i-1] = floor((2^g-1)/log2(i+1)*1e6)
    # for ranks i=1..k — the only float math in the op, precomputed once
    # per grade/rank with scalar libm log2.
    disc_micro = {
        g: np.array(
            [
                math.floor(
                    ((math.pow(2, g) - 1) / math.log2(i + 1)) * 1e6
                )
                for i in range(1, k + 1)
            ],
            np.int64,
        )
        for g in range(0, max_rel + 1)
    }
    # Prefix sums of the ideal-gain discounts per grade, for closed-form
    # IDCG from grade counts: P[g][j] = sum of first j terms at grade g.
    pfx = {
        g: np.concatenate(([0], np.cumsum(disc_micro[g])))
        for g in range(1, max_rel + 1)
    }
    disc_tab = np.stack([disc_micro[g] for g in range(0, max_rel + 1)])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[[qid_col, id_col, score_col, rel_col]].sort_values(
            [qid_col, score_col, id_col],
            ascending=[True, False, True],
            kind="mergesort",
        )
        keep = b.groupby(qid_col, sort=False).head(k).copy()
        first = np.zeros(len(keep), np.bool_)
        first[np.unique(
            keep[qid_col].to_numpy(), return_index=True)[1]] = True
        # per-(batch,qid) grade counts, piggybacked on the first kept
        # row of each qid so the shuffle carries no extra rows
        cnts = (
            b.assign(
                **{
                    col: (b[rel_col] == g).astype(np.int64)
                    for g, col in zip(range(1, max_rel + 1), pc_cols)
                }
            )
            .groupby(qid_col, sort=False)[pc_cols]
            .sum()
        )
        for col in pc_cols:
            vals = np.zeros(len(keep), np.int64)
            vals[first] = cnts[col].loc[
                keep[qid_col].to_numpy()[first]
            ].to_numpy()
            keep[col] = vals
        return keep

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            [qid_col, score_col, id_col],
            ascending=[True, False, True],
            kind="mergesort",
        )
        cnts = g.groupby(qid_col, sort=True)[pc_cols].sum()
        topk = g.groupby(qid_col, sort=False).head(k)
        q = topk[qid_col].to_numpy()
        rel = topk[rel_col].to_numpy().astype(np.int64)
        gb = topk.groupby(qid_col, sort=True)
        rank = (gb.cumcount() + 1).to_numpy()
        relevant = rel > 0
        cum_rel = (
            pd.Series(relevant.astype(np.int64))
            .groupby(q, sort=False)
            .cumsum()
            .to_numpy()
        )
        s = pd.DataFrame(
            {
                qid_col: q,
                "_one": 1,
                "_prel": relevant.astype(np.int64),
                "_frank": np.where(relevant, rank, np.iinfo(np.int64).max),
                "_ap": np.where(relevant, cum_rel * (lcm // rank), 0),
                "_dcg": disc_tab[rel, rank - 1],
            }
        )
        agg = s.groupby(qid_col, sort=True).agg(
            n_ret=("_one", "sum"),
            p_at_k_num=("_prel", "sum"),
            first_rel_rank=("_frank", "min"),
            ap_num_lcm=("_ap", "sum"),
            dcg_micro=("_dcg", "sum"),
        )
        agg["first_rel_rank"] = np.where(
            agg["first_rel_rank"].to_numpy() == np.iinfo(np.int64).max,
            0,
            agg["first_rel_rank"].to_numpy(),
        )
        # IDCG closed-form from corpus-wide grade counts: fill ranks
        # 1..k with the highest grades first.
        used = np.zeros(len(cnts), np.int64)
        idcg = np.zeros(len(cnts), np.int64)
        n_rel = np.zeros(len(cnts), np.int64)
        for grade in range(max_rel, 0, -1):
            c = cnts[f"_pc{grade}"].to_numpy()
            n_rel += c
            take_hi = np.minimum(used + c, k)
            idcg += pfx[grade][take_hi] - pfx[grade][np.minimum(used, k)]
            used = used + c
        out = agg.join(
            pd.DataFrame(
                {"n_rel": n_rel, "idcg_micro": idcg}, index=cnts.index
            )
        ).reset_index()
        for col in (
            "n_ret",
            "p_at_k_num",
            "first_rel_rank",
            "ap_num_lcm",
            "n_rel",
            "dcg_micro",
            "idcg_micro",
        ):
            out[col] = out[col].astype(np.int64)
        return out[
            [
                qid_col,
                "n_ret",
                "p_at_k_num",
                "first_rel_rank",
                "ap_num_lcm",
                "n_rel",
                "dcg_micro",
                "idcg_micro",
            ]
        ]

    return bucket_aggregate(
        ds, final, key=qid_col, partial=partial
    )


def bradley_terry(
    events_ds, iters: int = 5, scale: int = 10**6
) -> pd.DataFrame:
    """Bradley-Terry preference-strength aggregation (Bradley & Terry
    1952) fitted by Hunter's (2004) MM iteration — the standard model
    behind RLHF preference datasets and arena-style model leaderboards.

    Comparisons derive from the event stream: within each user's
    (ts, event_id)-ordered timeline, every consecutive pair of events is
    an implicit duel between the two event types; the event with the
    HIGHER ``value`` wins (tie -> the earlier event), same-type duels are
    skipped (p = 1/2 regardless of strength).  That derivation is the
    distributed work — one user-keyed bucketed shuffle over an unbounded
    stream (the event_transitions plan), pre-aggregated partial counts —
    and it folds to a bounded ``(winner, loser, n)`` table (<= T^2 rows
    for T item types), which is all the driver ever holds.

    MM updates run driver-side in EXACT integer arithmetic (Python ints,
    no overflow; the temperature_mix idiom): with scores s in
    ``scale``-units, each round computes per item i

        D_i  = sum over opponents j of (n_ij * scale^2) // (s_i + s_j)
        s'_i = (W_i * scale^2) // D_i          (W_i = total wins, D_i > 0
                                                whenever i played a game)

    then max-normalizes ``s''_i = (s'_i * scale) // max_j s'_j`` (the
    HITS normalization), clamping winning items to >= 1 so no duel's
    denominator can vanish — every step a floor division of positive
    integers, order-free sums, SQL-replicable bit-for-bit.  An item that
    never wins fixes at 0.  Returns a bounded DataFrame
    ``(item, wins, score)`` sorted (score desc, item asc).
    """

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        u = batch["user_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": u,
                "event_id": batch["event_id"].to_numpy().astype(np.int64),
                "ts_us": batch["ts"]
                .astype("datetime64[us]")
                .astype("int64"),
                "event_type": batch["event_type"],
                "value": batch["value"].to_numpy().astype(np.float64),
            }
        )

    def duel_partials(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort"
        )
        same = g["user_id"].to_numpy()[:-1] == g["user_id"].to_numpy()[1:]
        t1 = g["event_type"].to_numpy()[:-1][same]
        t2 = g["event_type"].to_numpy()[1:][same]
        v1 = g["value"].to_numpy()[:-1][same]
        v2 = g["value"].to_numpy()[1:][same]
        diff = t1 != t2
        t1, t2, v1, v2 = t1[diff], t2[diff], v1[diff], v2[diff]
        later_wins = v2 > v1  # tie -> the earlier event wins
        win = np.where(later_wins, t2, t1)
        lose = np.where(later_wins, t1, t2)
        c = pd.DataFrame({"winner": win, "loser": lose}).groupby(
            ["winner", "loser"], as_index=False
        ).size()
        return pd.DataFrame(
            {
                "winner": c["winner"],
                "loser": c["loser"],
                "n": c["size"].astype("int64"),
            }
        )

    pairs = bucket_aggregate(
        events_ds,
        duel_partials,
        key="user_id",
        partial=tag,
    ).to_pandas()  # bounded: <= T^2 rows per reduce partition
    if len(pairs) == 0:
        return pd.DataFrame(
            {
                "item": pd.array([], dtype=object),
                "wins": pd.array([], dtype="int64"),
                "score": pd.array([], dtype="int64"),
            }
        )
    pairs = pairs.groupby(["winner", "loser"], as_index=False)["n"].sum()
    items = sorted(set(pairs["winner"]) | set(pairs["loser"]))
    idx = {t: i for i, t in enumerate(items)}
    wins = [0] * len(items)
    # games[i][j] = duels between i and j regardless of outcome
    games: dict[tuple[int, int], int] = {}
    for w, l, n in pairs.itertuples(index=False):
        wi, li, n = idx[w], idx[l], int(n)
        wins[wi] += n
        games[(wi, li)] = games.get((wi, li), 0) + n
        games[(li, wi)] = games.get((li, wi), 0) + n
    s = [int(scale)] * len(items)
    s2 = int(scale) * int(scale)
    for _ in range(iters):
        d = [0] * len(items)
        for (i, j), n in games.items():
            d[i] += (n * s2) // (s[i] + s[j])
        raw = [
            ((wins[i] * s2) // d[i]) if d[i] > 0 else 0
            for i in range(len(items))
        ]
        mx = max(raw)
        if mx == 0:
            # every winner's ratio floored to 0 this round (extreme
            # skew): keep the previous scores — a no-op round, and the
            # fixpoint thereafter (the SQL mirrors this CASE exactly)
            continue
        # items WITH WINS clamp to >= 1 micro-unit (raw itself can
        # floor to 0 for a weak winner): a duel's denominator s_i + s_j
        # can only vanish if BOTH sides are winless, and a dueling pair
        # always contains a winner — so no denominator is ever 0
        s = [
            max(1, (r * int(scale)) // mx) if wins[i] > 0 else 0
            for i, r in enumerate(raw)
        ]
    out = pd.DataFrame(
        {
            "item": items,
            "wins": np.array(wins, dtype=np.int64),
            "score": np.array(s, dtype=np.int64),
        }
    )
    return (
        out.sort_values(["score", "item"], ascending=[False, True],
                        kind="mergesort")
        .reset_index(drop=True)
        .astype({"wins": "int64", "score": "int64"})
    )
