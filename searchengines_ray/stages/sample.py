"""Deterministic corpus sampling for training-data pipelines.

Reservoir/random sampling is not reproducible across partitionings; web-scale
pipelines instead sample by a hash of a stable key so that (a) every worker
makes the same keep/drop decision with no coordination, (b) re-runs and
resumed runs select the identical subset, and (c) a SQL engine can replicate
the selection exactly for auditing.

The hash is Knuth multiplicative hashing confined to BIGINT-exact range:
``((doc_id mod 2^31) * 2654435761) mod 2^32`` — every intermediate is
< 2^62, so DuckDB BIGINT arithmetic reproduces it bit-for-bit (same
contract as the polynomial text hashes in :mod:`.text`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate

_KNUTH = 2654435761
_M31P1 = 2147483648  # 2^31
_M32 = 4294967296  # 2^32


def sample_mask(ids: np.ndarray, permille: int) -> np.ndarray:
    """Boolean keep-mask: hash(doc_id) lands in the first ``permille``
    buckets of 1000.  Pure int64 arithmetic (no uint wraparound) so the
    SQL mirror is exact."""
    h = ((ids.astype(np.int64) % _M31P1) * _KNUTH) % _M32
    return (h % 1000) < permille


def hash_sample(ds, permille: int, key: str = "doc_id"):
    """Keep a deterministic ~``permille``/1000 subset of rows by key hash.

    Embarrassingly parallel — a pure per-batch filter, no shuffle, no
    coordination, stable under repartitioning and resume.
    """

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        m = sample_mask(batch[key].to_numpy(), permille)
        return batch.loc[m]

    return ds.map_batches(keep, batch_format="pandas")


def hash_split(ds, splits=None, key: str = "doc_id",
               label_col: str = "split"):
    """Assign every row a deterministic train/val/test label by key hash.

    ``splits`` is an ordered list of (label, permille) summing to <= 1000
    (default train/900, val/50, test/50; any remainder falls into the
    LAST split).  The hash bucket ``h % 1000`` is cut at the cumulative
    permille bounds, so the assignment is a pure per-batch map — no
    shuffle, no coordination, stable under repartitioning/resume, and
    disjoint-complete by construction.  SQL mirror: the same Knuth
    arithmetic + a CASE over the bounds.
    """
    if splits is None:
        splits = [("train", 900), ("val", 50), ("test", 50)]
    labels = np.asarray([s for s, _ in splits], dtype=object)
    bounds = np.cumsum([p for _, p in splits]).astype(np.int64)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch[key].to_numpy()
        h = ((ids.astype(np.int64) % _M31P1) * _KNUTH) % _M32
        idx = np.minimum(
            np.searchsorted(bounds, h % 1000, side="right"),
            len(labels) - 1,
        )
        out = batch.copy()
        out[label_col] = pd.Series(labels[idx], index=batch.index)
        return out

    return ds.map_batches(assign, batch_format="pandas")


def stratified_sample(
    ds,
    strata_col: str,
    rates: dict,
    default_permille: int = 0,
    key: str = "doc_id",
):
    """Deterministic per-stratum hash sampling: keep hash(key) in the
    first ``rates[stratum]`` (else ``default_permille``) buckets of
    1000 — the "rebalance the language / source mix" primitive of
    corpus curation (downsample the dominant stratum, keep the tail).

    Same Knuth-hash keep-rule as :func:`hash_sample`, so a row's fate
    depends only on (key, its stratum's rate): pure per-batch filter,
    no shuffle, stable under repartitioning/resume, and the SQL mirror
    is the identical arithmetic under a CASE over strata.
    """
    items = sorted(rates.items())
    strata = np.asarray([s for s, _ in items], dtype=object)
    pm = np.asarray([p for _, p in items], dtype=np.int64)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            (batch[key].to_numpy().astype(np.int64) % _M31P1) * _KNUTH
        ) % _M32
        if len(strata):
            vals = batch[strata_col].to_numpy()
            idx = np.minimum(
                np.searchsorted(strata, vals), len(strata) - 1
            )
            limit = np.where(
                strata[idx] == vals, pm[idx], default_permille
            )
        else:
            limit = np.full(len(batch), default_permille, np.int64)
        return batch.loc[(h % 1000) < limit]

    return ds.map_batches(keep, batch_format="pandas")


def weighted_sample(ds, weight_col: str, scale_permille: int = 1,
                    key: str = "doc_id"):
    """Deterministic Poisson-style weighted sampling: keep a row iff
    ``hash(key) % 1000 < min(1000, weight * scale_permille)`` — keep
    probability proportional to a per-row integer weight (capped at
    certainty), e.g. sample ∝ document quality or length so the kept
    subset over-represents what curation cares about.

    Same Knuth keep-rule family as :func:`hash_sample`: pure per-batch
    filter, no shuffle, repartition/resume-stable, SQL mirror is the
    identical arithmetic with a LEAST cap.
    """

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        h = (
            (batch[key].to_numpy().astype(np.int64) % _M31P1) * _KNUTH
        ) % _M32
        w = batch[weight_col].to_numpy().astype(np.int64)
        limit = np.minimum(1000, w * scale_permille)
        return batch.loc[(h % 1000) < limit]

    return ds.map_batches(keep, batch_format="pandas")


def consistent_sample(ds, k: int, key: str = "doc_id"):
    """Fixed-size deterministic uniform sample: the k rows with the
    globally SMALLEST avalanche key hashes (ties by key asc) — a
    bottom-k sketch.  Unlike rate-based :func:`hash_sample` the output
    size is exactly ``min(k, n)`` regardless of corpus size, the set is
    consistent across runs/partitionings, and two corpora's bottom-k
    sets support Jaccard estimation (the classic bottom-k property).

    Two-level combiner reduce: every block keeps its own bottom-k, each
    reduce partition of one exchange on the hash keeps its bottom-k, and
    the driver keeps the bottom-k of those at most k x P rows (P the
    block count) — the global bottom-k is always a subset of the
    per-partition bottom-k's.  Hash is the Knuth-xor-Knuth avalanche
    chain (stages/sketch.py contract) so the SQL mirror is
    ``ORDER BY h, key LIMIT k``.
    """
    import ray.data

    from .sketch import _hll_hash

    cols = list(ds.schema().names)

    def bottomk(frame: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort(
            (frame[key].to_numpy(), frame["_h"].to_numpy())
        )[:k]
        return frame.iloc[order]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.copy()
        b["_h"] = _hll_hash(batch[key].to_numpy())
        return bottomk(b)

    rows = bucket_aggregate(ds, bottomk, key="_h", partial=partial).to_pandas()
    return ray.data.from_pandas(bottomk(rows)[cols] if len(rows) else rows)


def mixture_plan(
    ds,
    budget_tokens: int | None = None,
    max_epochs: int = 2,
    source_col: str = "source",
) -> pd.DataFrame:
    """Static corpus mixture planning — the DoReMi / Pile-style step that
    turns per-source token inventories into a sampling plan under a total
    token budget with an epoch cap (a source can be repeated at most
    ``max_epochs`` times; Gao et al. 2020 "The Pile" weights corpora by
    epochs over the mix exactly this way).

    Contract (all-integer, SQL-replicable, single redistribution pass):
    tokens are the ``[0-9a-z]+`` word counts of ``lower(text)``; source
    weight = ``1 + length(source) % 3`` (a stand-in for an externally
    supplied priority — deterministic and auditable in SQL);
    ``desired = (weight * budget) // sum(weights)``;
    ``cap = max_epochs * tokens``; ``alloc0 = min(desired, cap)``; the
    leftover budget is redistributed ONCE to uncapped sources
    proportionally to weight and re-clipped at the cap (no iterative
    water-filling — one pass, documented).  ``budget_tokens=None``
    defaults to half the corpus total.  ``epochs_ppm`` reports the
    resulting repeat factor in parts-per-million (integer floor).

    Scale: token counting is a per-batch combiner (one tiny
    (source, tokens) row per batch per source crosses the wire); the plan
    arithmetic runs on the driver over the SOURCE REGISTRY — bounded by
    the number of corpora in the mix (dozens at web scale), never by
    docs or tokens.
    """
    from .text import _flat_word_stream

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {
                    "source": pd.array([], dtype="object"),
                    "tokens": pd.array([], dtype="int64"),
                }
            )
        _, _, _, counts = _flat_word_stream(list(batch["text"]))
        df = pd.DataFrame(
            {
                "source": batch[source_col].to_numpy(),
                "tokens": counts.astype(np.int64),
            }
        )
        return df.groupby("source", as_index=False)["tokens"].sum()

    per = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("source", as_index=False)["tokens"]
        .sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    tokens = per["tokens"].to_numpy().astype(np.int64)
    weight = (
        1 + per["source"].str.len().to_numpy().astype(np.int64) % 3
    )
    total = int(tokens.sum())
    budget = total // 2 if budget_tokens is None else int(budget_tokens)
    wsum = int(weight.sum())
    desired = (weight * budget) // max(wsum, 1)
    cap = max_epochs * tokens
    alloc0 = np.minimum(desired, cap)
    uncapped = cap >= desired
    uw = int(weight[uncapped].sum())
    leftover = budget - int(alloc0.sum())
    extra = np.where(
        uncapped & (uw > 0), (leftover * weight) // max(uw, 1), 0
    )
    alloc = np.where(
        uncapped, np.minimum(cap, alloc0 + extra), alloc0
    ).astype(np.int64)
    epochs_ppm = np.where(
        tokens > 0, (alloc * 1_000_000) // np.maximum(tokens, 1), 0
    ).astype(np.int64)
    return pd.DataFrame(
        {
            "source": per["source"],
            "tokens": tokens,
            "weight": weight.astype(np.int64),
            "desired": desired.astype(np.int64),
            "alloc": alloc,
            "epochs_ppm": epochs_ppm,
        }
    )


def temperature_mix(
    ds,
    budget_tokens: int | None = None,
    source_col: str = "source",
) -> pd.DataFrame:
    """Temperature-smoothed mixture allocation (the T5 / multilingual-LM
    sampling rule, Raffel et al. 2020 §3.4.3: sample sources
    proportionally to ``n_c^alpha`` with alpha = 0.5 so head corpora are
    damped and tail corpora up-weighted), next to :func:`mixture_plan`'s
    priority-weight waterfill.

    All-integer, SQL-replicable contract: per-source token inventories
    ``n_c`` (the ``[0-9a-z]+`` contract — zero-token sources KEPT for
    auditability); weights ``w_c = floor(sqrt(n_c) * 1e6)`` (sqrt is
    IEEE-correctly-rounded, so libm and DuckDB agree bit-for-bit — the
    one transcendental this contract allows); ``W = sum w_c`` exact
    int; base allocation ``a_c = (B * w_c) // W`` with the leftover
    ``B - sum a_c`` distributed by largest INTEGER remainder
    ``(B * w_c) % W`` (tie -> source asc) — no float sums anywhere, so
    no reduction-order drift.  ``budget_tokens=None`` defaults to half
    the corpus total.  Products run in arbitrary-precision Python int /
    SQL HUGEINT (B * w_c overflows int64 at real corpus scale).

    Scale: token counting is the per-batch combiner; the allocation
    arithmetic runs on the driver over the bounded source registry.
    Returns ``(source, tokens, w_micro, alloc)`` sorted by source.
    """
    import math

    from .text import _flat_word_stream

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):
            return pd.DataFrame(
                {
                    "source": pd.array([], dtype="object"),
                    "tokens": pd.array([], dtype="int64"),
                }
            )
        _, _, _, counts = _flat_word_stream(list(batch["text"]))
        df = pd.DataFrame(
            {
                "source": batch[source_col].to_numpy(),
                "tokens": counts.astype(np.int64),
            }
        )
        return df.groupby("source", as_index=False)["tokens"].sum()

    per = (
        ds.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .groupby("source", as_index=False)["tokens"]
        .sum()
        .sort_values("source")
        .reset_index(drop=True)
    )
    sources = per["source"].tolist()
    tokens = [int(t) for t in per["tokens"]]
    total = sum(tokens)
    B = (total // 2) if budget_tokens is None else int(budget_tokens)
    w = [math.floor(math.sqrt(t) * 1e6) for t in tokens]
    W = sum(w)
    if W > 0:
        base = [(B * wc) // W for wc in w]
        rem = [(B * wc) % W for wc in w]
        left = B - sum(base)
        order = sorted(
            range(len(sources)), key=lambda i: (-rem[i], sources[i])
        )
        alloc = list(base)
        for i in order[: left]:
            alloc[i] += 1
    else:
        alloc = [0] * len(sources)
    return pd.DataFrame(
        {
            "source": pd.array(sources, dtype="object"),
            "tokens": pd.array(tokens, dtype="int64"),
            "w_micro": pd.array(w, dtype="int64"),
            "alloc": pd.array(alloc, dtype="int64"),
        }
    )
