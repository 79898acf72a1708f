"""Distributed connected components over a pair Dataset.

Dedup consolidation at corpus scale: the verified near-dup pair graph on
boilerplate-heavy web data is SUPER-LINEAR in corpus size, so a driver-side
union-find over the full pair list (and any ``max_pairs`` cap protecting it)
is the scale ceiling — a capped candidate set silently under-dedups.  Here
the pair list stays a Ray Dataset end-to-end:

- **min-label propagation**: per round every node adopts the minimum label
  in its closed neighborhood (one reduce-side join via union + a
  key-hash exchange, then a node-keyed exchange taking the min);
- **pointer jumping**: labels then flatten one hop (label <- label(label)),
  so a path component collapses in O(log diameter) rounds, not O(diameter);
- **convergence** is detected from the monotone label sum (labels are node
  ids and only ever decrease), a single scalar aggregate per round — the
  driver never materializes nodes, edges, or labels.

Partitioning assumption: per-round shuffles carry edge-count rows; each
reduce partition groups its nodes in one vectorized pass, as the LSH
stages do.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate


def connected_components(pairs_ds, max_iters: int = 64):
    """Labels every node of an undirected pair Dataset ``(doc_a, doc_b)``
    with its component's minimum node id.  Returns a Dataset
    ``(node, root)`` covering every node that appears in a pair.

    Raises ``RuntimeError`` (loud, never a silent wrong answer) if the
    label sum has not stabilized after ``max_iters`` rounds — with pointer
    jumping that needs a component diameter around 2^max_iters.
    """
    import ray.data

    def bidirect(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy().astype(np.int64)
        b = batch["doc_b"].to_numpy().astype(np.int64)
        key = np.concatenate([a, b])
        other = np.concatenate([b, a])
        return pd.DataFrame(
            {
                "key": key,
                "other": other,
                "kind": np.zeros(len(key), dtype=np.int8),
            }
        )

    empty = pd.DataFrame(
        {
            "node": pd.array([], dtype="int64"),
            "root": pd.array([], dtype="int64"),
        }
    )
    edges = pairs_ds.map_batches(bidirect, batch_format="pandas").materialize()
    if edges.count() == 0:
        return ray.data.from_pandas(empty)

    # init: label(node) = min(node, min neighbor) — one free propagation hop
    def init_lab(batch: pd.DataFrame) -> pd.DataFrame:
        node = batch["key"].to_numpy().astype(np.int64)
        m = batch["min(other)"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {"node": node, "label": np.minimum(node, m)}
        )

    labels = (
        edges.groupby("key")
        .min("other")
        .map_batches(init_lab, batch_format="pandas")
        .materialize()
    )
    prev_sum = labels.sum("label")

    def label_rows(batch: pd.DataFrame) -> pd.DataFrame:
        node = batch["node"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "key": node,
                "other": batch["label"].to_numpy().astype(np.int64),
                "kind": np.ones(len(node), dtype=np.int8),
            }
        )

    def propagate(group: pd.DataFrame) -> pd.DataFrame:
        lab = group.loc[group["kind"] == 1]
        ed = group.loc[group["kind"] == 0]
        m = ed.merge(
            lab[["key", "other"]].rename(columns={"other": "label"}),
            on="key",
            how="inner",  # labels cover every node, so nothing drops
        )
        df = pd.DataFrame(
            {
                "node": np.concatenate(
                    [m["other"].to_numpy(), lab["key"].to_numpy()]
                ).astype(np.int64),
                "cand": np.concatenate(
                    [m["label"].to_numpy(), lab["other"].to_numpy()]
                ).astype(np.int64),
            }
        )
        # combiner: per-group min per node, re-keyed by node bucket so
        # the reduce is one vectorized min per bucket (the native
        # per-node groupby was a sorted exchange of every candidate row)
        return df.groupby("node", as_index=False)["cand"].min()

    def min_label(g: pd.DataFrame) -> pd.DataFrame:
        gm = g.groupby("node", as_index=False)["cand"].min()
        return pd.DataFrame(
            {
                "node": gm["node"].astype("int64"),
                "label": gm["cand"].astype("int64"),
            }
        )

    def jump_reqs(batch: pd.DataFrame) -> pd.DataFrame:
        lab = batch["label"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "key": lab,  # whose label do I need?  my label's.
                "other": batch["node"].to_numpy().astype(np.int64),
                "kind": np.zeros(len(lab), dtype=np.int8),
            }
        )

    def jump(group: pd.DataFrame) -> pd.DataFrame:
        lab = group.loc[group["kind"] == 1]
        rq = group.loc[group["kind"] == 0]
        m = rq.merge(
            lab[["key", "other"]].rename(columns={"other": "newlab"}),
            on="key",
            how="left",
        )
        # a root's label is itself; label(label(x)) <= label(x) always
        newlab = m["newlab"].fillna(m["key"]).to_numpy().astype(np.int64)
        return pd.DataFrame(
            {"node": m["other"].to_numpy().astype(np.int64), "label": newlab}
        )

    # fixed label-block count: union adds blocks and groupby preserves
    # them, so an unbounded loop DOUBLES blocks per round (task-count
    # explosion); repartitioning labels back to the edge block count keeps
    # every round's plan the same size
    nblocks = max(2, edges.num_blocks())

    iters = 0
    converged = False
    while iters < max_iters:
        lrows = labels.map_batches(label_rows, batch_format="pandas")
        # 1) min over closed neighborhood (combiner-backed groupby.min)
        cands = bucket_aggregate(
            edges.union(lrows), propagate, key="key"
        )
        labels = (
            bucket_aggregate(cands, min_label, key="node")
            .repartition(nblocks)
            .materialize()  # bounded (one row per node)
        )
        iters += 1
        # labels monotonically decrease, so an unchanged sum after the
        # closed-neighborhood min IS the fixpoint — check here, BEFORE the
        # pointer jump: clique-heavy dedup graphs converge in 1-2 rounds
        # and the jump's extra executions are pure overhead for them
        cur_sum = labels.sum("label")
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
        # 2) pointer jump UNTIL QUIESCENT: label <- label(label).  A jump
        # round touches only label rows (no edge volume), so it is much
        # cheaper than a propagate round; on a path component the inner
        # loop collapses the whole pointer chain to the root in
        # O(log diameter) cheap rounds, after which one more propagate
        # confirms the fixpoint (vs alternating 1:1, which pays the edge
        # shuffle O(log diameter) times)
        while iters < max_iters:
            reqs = labels.map_batches(jump_reqs, batch_format="pandas").union(
                labels.map_batches(label_rows, batch_format="pandas")
            )
            labels = (
                bucket_aggregate(reqs, jump, key="key")
                .repartition(nblocks)
                .materialize()
            )
            iters += 1
            cur_sum = labels.sum("label")
            if cur_sum == prev_sum:
                break  # pointer structure flattened; back to propagate
            prev_sum = cur_sum
    if not converged:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )

    return labels.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy().astype(np.int64),
                "root": b["label"].to_numpy().astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def nonroot_ids(labels_ds) -> np.ndarray:
    """Driver-side array of non-root node ids (the dedup DROP set) — the
    root-label map is the ONE candidate-doc-bounded structure the driver
    holds (8 bytes per dropped doc; the pair graph itself never lands)."""
    part = labels_ds.map_batches(
        lambda b: b.loc[b["node"] != b["root"], ["node"]],
        batch_format="pandas",
    ).to_pandas()
    if part.empty:
        return np.empty(0, dtype=np.int64)
    return np.unique(part["node"].to_numpy().astype(np.int64))


PAGERANK_LOCAL_MAX_EDGES = 2_000_000


def pagerank(
    edges_ds,
    iters: int = 5,
    scale: int = 10**12,
):
    """Integer-deterministic PageRank over a directed edge Dataset
    ``(src, dst)`` — the second graph op beside connected components.

    Damping 0.85 is exact int64 arithmetic so ranks are bit-identical
    across partitionings and SQL-replicable (order-free integer sums,
    the same determinism contract as the micro-unit LM scores)::

        r0(v)    = scale // N
        share(u) = r(u) // outdeg(u)
        r'(v)    = (15*scale) // (100*N) + (85 * sum_in share(u)) // 100

    Dangling-node mass leaks each round (the standard simplification;
    the SQL oracle replicates it).  Duplicate edges are collapsed first.

    Plan — classic edge-partitioned PR, nothing driver-side but N,
    tuned to MINIMIZE SHUFFLE BARRIERS (each costs ~1-1.5 s wall
    regardless of data size — the repo's measured constant):

    - setup is TWO shuffles: one src-keyed pass dedups edges AND
      attaches outdegree; one node-keyed pass distincts nodes AND
      flags in-degree-0 nodes.
    - each iteration is TWO shuffles: (a) a src-keyed equi-join
      shipping current ranks to edges (schema hints spare the
      ``.schema()`` probe, which on a lazy dataset partially executes
      the whole upstream chain — O(iters^2) re-execution without
      them), (b) a dst-keyed groupby summing shares.  Nodes with no
      in-edges never receive contributions — their rank is the
      constant base term from round 1 on — so instead of shuffling a
      zero row per node every round, a small materialized
      constant-rank dataset is lazily union-ed in after the groupby.
    - ranks repartition back to 16 blocks every third round only
      (the union grows block counts linearly now, not per-node).

    Adaptive fast path (the bounded-broadcast pattern from
    stages/dedup.py): when the deduped edge count is <=
    ``PAGERANK_LOCAL_MAX_EDGES`` the edge set is pulled to the driver
    and the whole iteration runs there — identical integer formulas
    over np.bincount sums (shares are < 2^53 so float64 accumulation is
    exact in any order), so the output is BIT-IDENTICAL to the
    distributed path (pinned by a forced-path pytest, which patches
    the constant to 0).
    """
    import ray.data

    from .joins import hash_equijoin

    # The local fast path accumulates shares via np.bincount float64
    # sums; exactness (and thus bit-identity with the int64 distributed
    # plan) requires every per-dst share sum < 2^53.  Total share mass
    # per round is bounded by sum(r) <= scale + N*base < 2*scale, so
    # enforce the precondition instead of assuming it.
    if scale <= 0 or 2 * scale >= 2**53:
        raise ValueError(
            f"pagerank scale={scale} breaks the float64-exactness "
            "precondition (need 0 < 2*scale < 2**53)"
        )

    def edge_partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["src", "dst"]].drop_duplicates()
        return pd.DataFrame(
            {
                "src": b["src"].to_numpy().astype(np.int64),
                "dst": b["dst"].to_numpy().astype(np.int64),
            }
        )

    def dedup_with_deg(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["src", "dst"]].drop_duplicates().copy()
        g["od"] = g.groupby("src")["dst"].transform("size").astype(
            "int64"
        )
        return g[["src", "dst", "od"]]

    # one src-keyed shuffle: exact (src,dst) dedup (duplicates share a
    # src so they co-locate) + outdegree in the same final
    ewd = bucket_aggregate(
        edges_ds,
        dedup_with_deg,
        key="src",
        partial=edge_partial,
    )

    if ewd.count() <= PAGERANK_LOCAL_MAX_EDGES:
        # bounded fast path: all iterations on the driver, identical
        # integer arithmetic (bincount float64 sums are exact below
        # 2^53, then back to int64)
        e = ewd.to_pandas()
        if e.empty:
            return ray.data.from_pandas(
                pd.DataFrame(
                    {"node": np.zeros(0, np.int64), "r": np.zeros(0, np.int64)}
                )
            )
        src = e["src"].to_numpy().astype(np.int64)
        dst = e["dst"].to_numpy().astype(np.int64)
        od = e["od"].to_numpy().astype(np.int64)
        nodes_l = np.unique(np.concatenate([src, dst]))
        n = len(nodes_l)
        base_l = (15 * scale) // (100 * n)
        si = np.searchsorted(nodes_l, src)
        di = np.searchsorted(nodes_l, dst)
        r = np.full(n, scale // n, np.int64)
        for _ in range(iters):
            share = r[si] // od
            s = np.bincount(di, weights=share, minlength=n)
            r = base_l + (85 * s.astype(np.int64)) // 100
        return ray.data.from_pandas(pd.DataFrame({"node": nodes_l, "r": r}))

    def node_partial(batch: pd.DataFrame) -> pd.DataFrame:
        s = np.unique(batch["src"].to_numpy().astype(np.int64))
        d = np.unique(batch["dst"].to_numpy().astype(np.int64))
        n = np.concatenate([s, d])
        has_in = np.concatenate(
            [np.zeros(len(s), np.int64), np.ones(len(d), np.int64)]
        )
        return pd.DataFrame({"node": n, "has_in": has_in})

    def node_final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("node", as_index=False)["has_in"].max()
        return pd.DataFrame(
            {
                "node": g["node"].astype("int64"),
                "has_in": g["has_in"].astype("int64"),
            }
        )

    # one node-keyed shuffle: distinct nodes + "has any in-edge" flag
    nodes = bucket_aggregate(
        ewd,
        node_final,
        key="node",
        partial=node_partial,
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": np.zeros(0, np.int64),
                    "r": np.zeros(0, np.int64),
                }
            ),
            batch_format="pandas",
        )
    base = (15 * scale) // (100 * n_nodes)
    r0 = scale // n_nodes

    # in-degree-0 nodes: rank == base from round 1 on (they receive no
    # shares); coalesced + materialized ONCE, lazily union-ed each round
    noin = (
        nodes.map_batches(
            lambda b: pd.DataFrame(
                {
                    "node": b.loc[b["has_in"] == 0, "node"]
                    .to_numpy()
                    .astype(np.int64),
                    "r": np.full(
                        int((b["has_in"] == 0).sum()), base, np.int64
                    ),
                }
            ),
            batch_format="pandas",
        )
        .repartition(4)
        .materialize()
    )

    ranks = nodes.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy().astype(np.int64),
                "r": np.full(len(b), r0, dtype=np.int64),
            }
        ),
        batch_format="pandas",
    )
    rank_schema = {"node": np.dtype(np.int64), "r": np.dtype(np.int64)}
    ewd_schema = {
        "src": np.dtype(np.int64),
        "dst": np.dtype(np.int64),
        "od": np.dtype(np.int64),
    }

    def contrib(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["dst"].to_numpy().astype(np.int64)
        s = batch["r_r"].to_numpy().astype(np.int64) // batch[
            "od"
        ].to_numpy().astype(np.int64)
        return pd.DataFrame({"node": d, "s": s})

    def next_rank(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("node", as_index=False)["s"].sum()
        return pd.DataFrame(
            {
                "node": g["node"].astype("int64"),
                "r": (
                    base
                    + (85 * g["s"].to_numpy().astype(np.int64)) // 100
                ).astype("int64"),
            }
        )

    for i in range(iters):
        joined = hash_equijoin(
            ewd, ranks, left_on="src", right_on="node",
            right_cols=("r",),
            left_schema_hint=ewd_schema, right_schema_hint=rank_schema,
        )
        ranks = bucket_aggregate(
            joined,
            next_rank,
            key="node",
            partial=contrib,
        ).union(noin)
        if (i + 1) % 3 == 0 and i + 1 < iters:
            ranks = ranks.repartition(16)
    return ranks


HITS_LOCAL_MAX_EDGES = 200_000


def hits(
    edges_ds,
    iters: int = 2,
    scale: int = 10**6,
):
    """Integer-deterministic HITS hubs/authorities (Kleinberg 1999)
    over a directed edge Dataset ``(src, dst)`` — the link-analysis
    companion to :func:`pagerank` (on a user -> item bipartite graph,
    hubs rank users and authorities rank items).

    Max-normalized power iteration as exact int64 arithmetic (any
    positive per-round rescaling preserves the principal-eigenvector
    direction, and the max makes every op an order-free integer —
    the same SQL-replicable determinism contract as pagerank)::

        h_0(u)  = scale                      (every node)
        a'(v)   = sum_{u->v} h(u);  a(v) = (a' * scale) // max a'
        h'(u)   = sum_{u->v} a(v);  h(u) = (h' * scale) // max h'

    (zero max => all-zero side, the degenerate no-edge case).  Nodes
    with no in-edges have authority 0, no out-edges hub 0; duplicate
    edges collapse first.  Returns ``(node, auth, hub)``.

    Plan: the pagerank shuffle shapes — one src-keyed dedup exchange,
    then per half-round ONE schema-hinted equi-join shipping current
    values to edges + ONE dst(src)-bucketed groupby sum; the global
    max is a scalar off the materialized sums (zero-contribution nodes
    simply stay absent until the final nodes-left-join assembly, so no
    zero rows ride the iteration shuffles).  Adaptive local fast path
    at <= ``HITS_LOCAL_MAX_EDGES`` deduped edges: identical formulas via
    ``np.add.at`` int64 scatter-sums on the driver (pytest pins both
    paths bit-equal by patching the constant to 0).  Overflow guard:
    ``max' * scale`` must fit int64 — enforced per normalization,
    mirroring pagerank's 2^53 precondition.
    """
    import ray.data

    from .joins import hash_equijoin

    if scale <= 0:
        raise ValueError(f"hits scale={scale} must be positive")
    max_norm = 2**63 // scale

    def edge_partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["src", "dst"]].drop_duplicates()
        return pd.DataFrame(
            {
                "src": b["src"].to_numpy().astype(np.int64),
                "dst": b["dst"].to_numpy().astype(np.int64),
            }
        )

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group[["src", "dst"]].drop_duplicates()

    ewd = bucket_aggregate(
        edges_ds,
        dedup,
        key="src",
        partial=edge_partial,
    )

    empty = pd.DataFrame(
        {
            "node": pd.array([], dtype="int64"),
            "auth": pd.array([], dtype="int64"),
            "hub": pd.array([], dtype="int64"),
        }
    )

    if ewd.count() <= HITS_LOCAL_MAX_EDGES:
        e = ewd.to_pandas()
        if e.empty:
            return ray.data.from_pandas(empty)
        src = e["src"].to_numpy().astype(np.int64)
        dst = e["dst"].to_numpy().astype(np.int64)
        nodes_l = np.unique(np.concatenate([src, dst]))
        n = len(nodes_l)
        si = np.searchsorted(nodes_l, src)
        di = np.searchsorted(nodes_l, dst)
        a = np.zeros(n, np.int64)
        h = np.full(n, scale, np.int64)
        for _ in range(iters):
            s = np.zeros(n, np.int64)
            np.add.at(s, di, h[si])
            m = int(s.max())
            if m >= max_norm:
                raise ValueError(
                    f"hits: max contribution {m} * scale overflows "
                    "int64 — lower scale"
                )
            a = (s * scale) // m if m > 0 else np.zeros(n, np.int64)
            s2 = np.zeros(n, np.int64)
            np.add.at(s2, si, a[di])
            m2 = int(s2.max())
            if m2 >= max_norm:
                raise ValueError(
                    f"hits: max contribution {m2} * scale overflows "
                    "int64 — lower scale"
                )
            h = (s2 * scale) // m2 if m2 > 0 else np.zeros(n, np.int64)
        return ray.data.from_pandas(
            pd.DataFrame({"node": nodes_l, "auth": a, "hub": h})
        )

    def node_partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(
            np.concatenate(
                [
                    batch["src"].to_numpy().astype(np.int64),
                    batch["dst"].to_numpy().astype(np.int64),
                ]
            )
        )
        return pd.DataFrame({"node": n})

    def node_final(group: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(group["node"].to_numpy().astype(np.int64))
        return pd.DataFrame({"node": n})

    nodes = bucket_aggregate(
        ewd,
        node_final,
        key="node",
        partial=node_partial,
    )

    ewd_schema = {"src": np.dtype(np.int64), "dst": np.dtype(np.int64)}
    val_schema = {"node": np.dtype(np.int64), "v": np.dtype(np.int64)}

    def _half(vals, ship_key: str, sum_key: str):
        """One half-round: ship current values to edges via ship_key,
        sum per sum_key, max-normalize.  Returns a MATERIALIZED
        (node, v) Dataset of only the nodes that received mass."""
        joined = hash_equijoin(
            ewd, vals, left_on=ship_key, right_on="node",
            right_cols=("v",),
            left_schema_hint=ewd_schema, right_schema_hint=val_schema,
        )

        def contrib(batch: pd.DataFrame) -> pd.DataFrame:
            d = batch[sum_key].to_numpy().astype(np.int64)
            return pd.DataFrame(
                {
                    "node": d,
                    "s": batch["r_v"].to_numpy().astype(np.int64),
                }
            )

        def bucket_sum(group: pd.DataFrame) -> pd.DataFrame:
            g = group.groupby("node", as_index=False)["s"].sum()
            return g.astype({"node": "int64", "s": "int64"})

        sums = bucket_aggregate(
            joined,
            bucket_sum,
            key="node",
            partial=contrib,
        )
        m = sums.max("s") if sums.count() else 0
        m = int(m) if m is not None else 0
        if m >= max_norm:
            raise ValueError(
                f"hits: max contribution {m} * scale overflows int64 — "
                "lower scale"
            )

        def norm(batch: pd.DataFrame) -> pd.DataFrame:
            s = batch["s"].to_numpy().astype(np.int64)
            v = (s * scale) // m if m > 0 else np.zeros(len(s), np.int64)
            return pd.DataFrame(
                {
                    "node": batch["node"].to_numpy().astype(np.int64),
                    "v": v,
                }
            )

        return sums.map_batches(norm, batch_format="pandas").materialize()

    h = nodes.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy().astype(np.int64),
                "v": np.full(len(b), scale, dtype=np.int64),
            }
        ),
        batch_format="pandas",
    ).materialize()
    a = h  # placeholder; overwritten in round 1 before any read

    for _ in range(iters):
        a = _half(h, "src", "dst")
        h = _half(a, "dst", "src")

    node_schema = {"node": np.dtype(np.int64)}
    out = hash_equijoin(
        nodes, a, left_on="node", right_on="node", right_cols=("v",),
        how="left",
        left_schema_hint=node_schema, right_schema_hint=val_schema,
    )
    out = out.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy().astype(np.int64),
                "auth": np.maximum(
                    b["r_v"].to_numpy().astype(np.int64), 0
                ),
            }
        ),
        batch_format="pandas",
    )
    out_schema = {"node": np.dtype(np.int64), "auth": np.dtype(np.int64)}
    out = hash_equijoin(
        out, h, left_on="node", right_on="node", right_cols=("v",),
        how="left",
        left_schema_hint=out_schema, right_schema_hint=val_schema,
    )
    return out.map_batches(
        lambda b: pd.DataFrame(
            {
                "node": b["node"].to_numpy().astype(np.int64),
                "auth": b["auth"].to_numpy().astype(np.int64),
                "hub": np.maximum(
                    b["r_v"].to_numpy().astype(np.int64), 0
                ),
            }
        ),
        batch_format="pandas",
    )


TRIANGLES_LOCAL_MAX_EDGES = 100_000


def triangle_count(pairs_ds) -> int:
    """Exact triangle count of an undirected pair Dataset ``(doc_a,
    doc_b)`` (doc_a < doc_b, duplicates tolerated) — the third graph op
    beside connected components and PageRank.

    Degree-ordered wedge join (the classic MR scheme): edges orient
    low -> high by the total order (degree, node), so every wedge is
    generated at its LOWEST-degree apex — per-node wedge fan-out is
    bounded by out-degree^2 <= O(E) total instead of hub-degree^2 —
    and each triangle is counted exactly once as (apex wedge) x
    (closing oriented edge).

    Plan: degree table (endpoint-partial counts + one node groupby),
    two equi-joins attach endpoint degrees, wedges form per apex inside
    a src-bucketed groupby (vectorized triu pairs), and a final
    (v, w)-hash groupby matches wedges against oriented edges; the
    count is a distributed sum.  Only the scalar total reaches the
    driver.

    Adaptive fast path: at or below ``TRIANGLES_LOCAL_MAX_EDGES``
    deduped edges the same degree-ordered wedge algorithm runs locally
    as two C-level pandas merges (wedge volume bounded O(E^1.5) by the
    orientation) — identical count, ~7 shuffle barriers cheaper.  Tests
    patch the constant to 0 to force the distributed plan (pytest pins
    both paths equal on random graphs).
    """
    import ray.data

    from .joins import hash_equijoin

    def dedup_edges(group: pd.DataFrame) -> pd.DataFrame:
        return group[["doc_a", "doc_b"]].drop_duplicates()

    def edge_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_a", "doc_b"]].drop_duplicates().astype(np.int64)

    edges = bucket_aggregate(
        pairs_ds,
        dedup_edges,
        key=["doc_a", "doc_b"],
        partial=edge_partial,
    )

    if edges.count() <= TRIANGLES_LOCAL_MAX_EDGES:
        e = edges.to_pandas()
        if len(e) == 0:
            return 0
        a = e["doc_a"].to_numpy().astype(np.int64)
        b = e["doc_b"].to_numpy().astype(np.int64)
        nodes_l, inv = np.unique(
            np.concatenate([a, b]), return_inverse=True
        )
        deg_l = np.bincount(inv, minlength=len(nodes_l))
        ai, bi = inv[: len(a)], inv[len(a):]
        da, db = deg_l[ai], deg_l[bi]
        # orient low -> high by the global (deg, node) total order
        a_first = (da < db) | ((da == db) & (nodes_l[ai] < nodes_l[bi]))
        o = pd.DataFrame(
            {
                "src": np.where(a_first, ai, bi),
                "dst": np.where(a_first, bi, ai),
            }
        )
        o["ddeg"] = deg_l[o["dst"].to_numpy()]
        w = o.merge(o, on="src")
        # keep each unordered out-neighbor pair once, ordered by the
        # same (deg, node) total order the closing edge uses
        keep = (w["ddeg_x"].to_numpy() < w["ddeg_y"].to_numpy()) | (
            (w["ddeg_x"].to_numpy() == w["ddeg_y"].to_numpy())
            & (
                nodes_l[w["dst_x"].to_numpy()]
                < nodes_l[w["dst_y"].to_numpy()]
            )
        )
        wedges = w.loc[keep, ["dst_x", "dst_y"]].rename(
            columns={"dst_x": "src", "dst_y": "dst"}
        )
        return int(len(wedges.merge(o[["src", "dst"]], on=["src", "dst"])))

    def deg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = np.concatenate(
            [
                batch["doc_a"].to_numpy().astype(np.int64),
                batch["doc_b"].to_numpy().astype(np.int64),
            ]
        )
        u, c = np.unique(n, return_counts=True)
        return pd.DataFrame({"node": u, "deg": c.astype(np.int64)})

    deg = bucket_aggregate(
        edges,
        lambda g: g.groupby("node", as_index=False)["deg"].sum(),
        key="node",
        partial=deg_partial,
    )

    i64 = np.dtype(np.int64)
    ewd = hash_equijoin(
        hash_equijoin(
            edges, deg, left_on="doc_a", right_on="node",
            right_cols=("deg",),
        ).map_batches(
            lambda b: b.rename(columns={"r_deg": "deg_a"}),
            batch_format="pandas",
        ),
        deg,
        left_on="doc_b",
        right_on="node",
        right_cols=("deg",),
        # the lazy inner-join output would otherwise be partially
        # executed just to probe its schema
        left_schema_hint={"doc_a": i64, "doc_b": i64, "deg_a": i64},
        right_schema_hint={"node": i64, "deg": i64},
    ).map_batches(
        lambda b: b.rename(columns={"r_deg": "deg_b"}),
        batch_format="pandas",
    )

    def orient(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy().astype(np.int64)
        b = batch["doc_b"].to_numpy().astype(np.int64)
        da = batch["deg_a"].to_numpy().astype(np.int64)
        db = batch["deg_b"].to_numpy().astype(np.int64)
        a_first = (da < db) | ((da == db) & (a < b))
        src = np.where(a_first, a, b)
        dst = np.where(a_first, b, a)
        sd = np.where(a_first, da, db)
        dd = np.where(a_first, db, da)
        return pd.DataFrame(
            {
                "src": src,
                "dst": dst,
                "sdeg": sd,
                "ddeg": dd,
            }
        )

    oriented = ewd.map_batches(orient, batch_format="pandas").materialize()

    def wedge_rows(group: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, sub in group.groupby("src", sort=False):
            if len(sub) < 2:
                continue
            # order out-neighbors by the global (deg, node) order so the
            # wedge key matches the closing edge's orientation
            s = sub.sort_values(["ddeg", "dst"], kind="mergesort")
            d = s["dst"].to_numpy()
            ii, jj = np.triu_indices(len(d), 1)
            frames.append(pd.DataFrame({"v": d[ii], "w": d[jj]}))
        if not frames:
            return pd.DataFrame(
                {
                    "v": pd.array([], dtype="int64"),
                    "w": pd.array([], dtype="int64"),
                    "kind": pd.array([], dtype="int8"),
                }
            )
        out = pd.concat(frames, ignore_index=True)
        out["kind"] = np.int8(0)
        return out

    def edge_key_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "v": batch["src"].to_numpy().astype(np.int64),
                "w": batch["dst"].to_numpy().astype(np.int64),
                "kind": np.full(len(batch), 1, dtype=np.int8),
            }
        )

    def close_count(group: pd.DataFrame) -> pd.DataFrame:
        is_edge = group["kind"].to_numpy() == 1
        e = group.loc[is_edge, ["v", "w"]].drop_duplicates()
        wedges = group.loc[~is_edge, ["v", "w"]]
        return pd.DataFrame({"n": [int(len(wedges.merge(e, on=["v", "w"])))]})

    wedges = bucket_aggregate(
        oriented, wedge_rows, key="src"
    )
    tagged = wedges.union(
        oriented.map_batches(edge_key_rows, batch_format="pandas")
    )
    total = bucket_aggregate(
        tagged,
        close_count,
        key=["v", "w"],
    ).sum("n")
    return int(total or 0)


def anchor_text_agg(links_ds):
    """Inlink / anchor-text field construction — the web-index build
    stage the reference got for free from its pre-built Lucene index
    (the ``inlink`` field of ``QryEval/QryParser.java:159-165`` is
    exactly per-target aggregated anchor text).

    Input: a links Dataset ``(src, dst, j, anchor)`` (``j`` = the link's
    position within its source page — part of the deterministic order).
    Output: one row per linked-to target:
    ``(doc_id, n_inlinks, inlink_text)`` with
    ``inlink_text = anchors ordered by (src, j)`` joined by spaces.

    Scale: one dst-bucketed exchange (the unavoidable shuffle — anchors
    must co-locate by target), vectorized per-bucket pandas aggregation
    (the bucket-hash + map_groups pattern; never a Ray-native fine-key
    groupby).  Hub pages with millions of inlinks make a bucket heavy
    but never a driver structure.
    """
    import pandas as pd

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["dst", "src", "j"], kind="mergesort")
        per = g.groupby("dst", sort=True)
        return pd.DataFrame(
            {
                "doc_id": per.size().index.to_numpy().astype(np.int64),
                "n_inlinks": per.size().to_numpy().astype(np.int64),
                "inlink_text": per["anchor"].agg(" ".join).to_numpy(),
            }
        )

    return bucket_aggregate(
        links_ds.select_columns(["src", "dst", "j", "anchor"]),
        agg,
        key="dst",
    )


def synth_links(docs_ds, n_docs: int):
    """Deterministic link fixture over a documents Dataset: doc d emits
    ``d % 3`` links, link j targets ``(d*7 + j*13) % n_docs`` with the
    j-th word of d's text as anchor ('' when the text is shorter) — the
    SQL oracle replays the same arithmetic."""
    import pandas as pd

    def gen(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        nl = ids % 3
        total = int(nl.sum())
        if not total:
            return pd.DataFrame(
                {
                    "src": pd.array([], dtype="int64"),
                    "dst": pd.array([], dtype="int64"),
                    "j": pd.array([], dtype="int64"),
                    "anchor": pd.array([], dtype="object"),
                }
            )
        src = np.repeat(ids, nl)
        j = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(nl)[:-1])), nl)
            + 1
        )
        dst = (src * 7 + j * 13) % n_docs
        # j-th word of the source text (vectorized split once per row)
        words = [
            __import__("re").findall(r"[0-9a-z]+", ("" if t is None else t).lower())
            for t in batch["text"]
        ]
        wmap = {int(d): w for d, w in zip(ids, words)}
        anchor = np.array(
            [
                wmap[int(s)][int(k) - 1]
                if len(wmap[int(s)]) >= int(k)
                else ""
                for s, k in zip(src, j)
            ],
            dtype=object,
        )
        return pd.DataFrame(
            {
                "src": pd.array(src, dtype="int64"),
                "dst": pd.array(dst, dtype="int64"),
                "j": pd.array(j, dtype="int64"),
                "anchor": pd.Series(anchor, dtype=object),
            }
        )

    return docs_ds.map_batches(gen, batch_format="pandas")


# ------------------------------------------------- deterministic walks

WALKS_LOCAL_MAX_EDGES = 2_000_000


def random_walks(edges_ds, steps: int = 3):
    """Derandomized random walks — DeepWalk / node2vec corpus sampling
    (Perozzi et al. 2014; Grover & Leskovec 2016) made EXACTLY
    reproducible: one walk starts at every distinct source node, and
    the step-``t`` successor of node ``v`` is the out-neighbor ``u``
    minimizing the SQL-replicable hash::

        h(v, t, u) = (((v*131 + t) % M) * 137 + u) % M,   M = 2^31-1

    ties (hash collisions only) broken ``u`` asc.  The hash orders each
    (node, step)'s neighborhood pseudo-randomly and independently per
    step, which is what de-correlates consecutive hops; determinism
    makes the sampled corpus partition-invariant and lets the DuckDB
    oracle replay every hop bit-for-bit.  A walk halts early at a node
    with no out-edges.  Duplicate input edges are harmless (identical
    (v, u) rows tie with themselves), so no dedup barrier is paid.

    Plan: ONE bucketed shuffle per step — the frontier carries exactly
    one row per live walk, every row of walk ``s`` shares its current
    node ``cur``, so tag-unioning edges (keyed by ``src`` hash) with
    the frontier (keyed by ``cur`` hash) co-locates each walk with its
    full candidate neighborhood; the per-bucket callback merges,
    hashes, and takes the per-walk argmin vectorized.  Step 1 needs no
    input frontier (starts = the distinct ``src`` already co-located
    in each bucket).  Each step's tiny frontier is materialized (it
    feeds both the next step and the output union).

    Adaptive fast path (the bounded-broadcast pattern shared with
    pagerank/hits/triangles): at or below ``WALKS_LOCAL_MAX_EDGES``
    edges the edge set is pulled to the driver and the whole walk runs
    there with numpy searchsorted range expansion — bit-identical
    integer argmins (a forced-path pytest pins it by patching the
    constant to 0).

    Returns ``(start, step, node)`` with step 0..``steps``.
    """
    import ray.data

    M = 2147483647

    def _empty_out() -> pd.DataFrame:
        return pd.DataFrame(
            {
                "start": pd.array([], dtype="int64"),
                "step": pd.array([], dtype="int64"),
                "node": pd.array([], dtype="int64"),
            }
        )

    if edges_ds.count() <= WALKS_LOCAL_MAX_EDGES:
        edges = edges_ds.to_pandas()
        if edges.empty:
            return ray.data.from_pandas(_empty_out())
        s = edges["src"].to_numpy().astype(np.int64)
        d = edges["dst"].to_numpy().astype(np.int64)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        starts = np.unique(s)
        out_s = [starts]
        out_t = [np.zeros(len(starts), dtype=np.int64)]
        out_n = [starts]
        widx = np.arange(len(starts), dtype=np.int64)
        cur = starts.copy()
        for t in range(1, steps + 1):
            lo = np.searchsorted(s, cur, "left")
            hi = np.searchsorted(s, cur, "right")
            alive = hi > lo
            widx, cur = widx[alive], cur[alive]
            lo, hi = lo[alive], hi[alive]
            if not len(cur):
                break
            cnt = hi - lo
            rep = np.repeat(np.arange(len(cur)), cnt)
            cum = np.zeros(len(cnt), dtype=np.int64)
            np.cumsum(cnt[:-1], out=cum[1:])
            pos = (
                np.arange(int(cnt.sum()), dtype=np.int64)
                - np.repeat(cum, cnt)
                + np.repeat(lo, cnt)
            )
            nbr = d[pos]
            h = ((cur[rep] * 131 + t) % M * 137 + nbr) % M
            o = np.lexsort((nbr, h, rep))
            first = np.ones(len(o), dtype=bool)
            first[1:] = rep[o][1:] != rep[o][:-1]
            nxt = nbr[o][first]
            cur = nxt
            out_s.append(starts[widx])
            out_t.append(np.full(len(cur), t, dtype=np.int64))
            out_n.append(cur.copy())
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "start": pd.array(np.concatenate(out_s), dtype="int64"),
                    "step": pd.array(np.concatenate(out_t), dtype="int64"),
                    "node": pd.array(np.concatenate(out_n), dtype="int64"),
                }
            )
        )

    # ---------------- distributed plan: one bucketed shuffle per step
    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["src"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src": s,
                "dst": batch["dst"].to_numpy().astype(np.int64),
                "start": np.full(len(s), -1, dtype=np.int64),
                "cur": np.full(len(s), -1, dtype=np.int64),
            }
        )

    def frontier_rows(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["node"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "src": np.full(len(c), -1, dtype=np.int64),
                "dst": np.full(len(c), -1, dtype=np.int64),
                "start": batch["start"].to_numpy().astype(np.int64),
                "cur": c,
            }
        )

    def _step_group(group: pd.DataFrame, t: int) -> pd.DataFrame:
        ed = group.loc[group["start"] < 0, ["src", "dst"]]
        if t == 1:
            fr = pd.DataFrame({"start": np.unique(ed["src"])})
            fr["cur"] = fr["start"]
        else:
            fr = group.loc[group["start"] >= 0, ["start", "cur"]]
        m = fr.merge(ed, left_on="cur", right_on="src")
        empty = pd.DataFrame(
            {
                "start": pd.array([], dtype="int64"),
                "node": pd.array([], dtype="int64"),
            }
        )
        if m.empty:
            return empty
        cur = m["cur"].to_numpy().astype(np.int64)
        nbr = m["dst"].to_numpy().astype(np.int64)
        st = m["start"].to_numpy().astype(np.int64)
        h = (cur * 131 + t) % M * 137 + nbr
        h %= M
        o = np.lexsort((nbr, h, st))
        first = np.ones(len(o), dtype=bool)
        first[1:] = st[o][1:] != st[o][:-1]
        return pd.DataFrame(
            {
                "start": pd.array(st[o][first], dtype="int64"),
                "node": pd.array(nbr[o][first], dtype="int64"),
            }
        )

    def walk_key(b: pd.DataFrame) -> np.ndarray:
        # edge rows (start -1) meet the walks standing at their src
        return np.where(
            b["start"].to_numpy() < 0, b["src"].to_numpy(), b["cur"].to_numpy()
        )

    from functools import partial

    eb = edges_ds.map_batches(edge_rows, batch_format="pandas")
    outs = []
    frontier = None
    for t in range(1, steps + 1):
        inp = (
            eb
            if t == 1
            else eb.union(
                frontier.map_batches(
                    frontier_rows, batch_format="pandas"
                )
            )
        )
        frontier = bucket_aggregate(
            inp,
            partial(_step_group, t=t),
            key=walk_key,
        )
        outs.append((t, frontier))

    def stamp(batch: pd.DataFrame, t: int) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "start": batch["start"].astype("int64"),
                "step": pd.array(
                    np.full(len(batch), t, dtype=np.int64), dtype="int64"
                ),
                "node": batch["node"].astype("int64"),
            }
        )

    # step-0 rows: every walk present at step 1 started at its own node
    out = outs[0][1].map_batches(
        lambda b: pd.DataFrame(
            {
                "start": b["start"].astype("int64"),
                "step": pd.array(
                    np.zeros(len(b), dtype=np.int64), dtype="int64"
                ),
                "node": b["start"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    for t, fr in outs:
        out = out.union(
            fr.map_batches(partial(stamp, t=t), batch_format="pandas")
        )
    return out


def _pairs_within_groups(sizes: np.ndarray):
    """Vectorized (i < j) pair enumeration within consecutive groups of
    the given sizes over a flat array: returns global (left, right) index
    arrays plus the group id per pair.  For each element at local
    position t it appears as the RIGHT member of t pairs whose lefts are
    local positions 0..t-1 — so pairs come out (j asc, i asc) per group,
    no Python loop over groups."""
    sizes = sizes.astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    n = int(sizes.sum())
    # local position of every element
    local = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    right = np.repeat(np.arange(n, dtype=np.int64), local)
    gid_row = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    gid = np.repeat(gid_row, local)
    p = int(local.sum())
    excl = np.concatenate([[0], np.cumsum(local)[:-1]])
    left_local = np.arange(p, dtype=np.int64) - np.repeat(excl, local)
    left = np.repeat(starts[gid_row], local) + left_local
    return left, right, gid


def adamic_adar(edges_ds, cap: int = 64, topk: int = 50):
    """Adamic-Adar link prediction (Adamic & Adar 2003): for every node
    pair (a < b) sharing at least one neighbor, score = sum over common
    neighbors z of 1/ln(deg z) — the classic "people/items you may also
    like" co-neighbor signal.  Returns the exact global top-k pairs
    ``(node_a, node_b, score_micro)``, tie-broken (score desc, a asc,
    b asc).

    Deterministic integer contract: each wedge center z with degree d
    (2 <= d <= ``cap``) contributes ``floor(1e6 / ln(d))`` micro-units
    (scalar libm ln once per unique degree) to every pair of its
    neighbors; per-pair sums are order-free int64.  The degree cap is
    PART OF THE CONTRACT (mirrored by the SQL oracle): hub centers cost
    O(d^2) pairs while contributing the smallest terms, so capping is
    the standard AA scale practice — without it one celebrity node
    explodes the wedge join.

    Plan: one src-bucketed shuffle builds per-center distinct sorted
    neighbor groups (duplicate edges collapse there); pair enumeration is
    fully vectorized (:func:`_pairs_within_groups`); per-pair partial
    sums ride a packed-int64 pair key through a second bucketed exchange;
    the exact global top-k uses the combiner-first grouped_topk.
    """
    import math

    from .rank import grouped_topk

    def edge_rows(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": batch["src"].to_numpy().astype(np.int64),
                "dst": batch["dst"].to_numpy().astype(np.int64),
            }
        )

    def wedge_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["src", "dst"]).sort_values(
            ["src", "dst"], kind="mergesort"
        )
        src = g["src"].to_numpy()
        dst = g["dst"].to_numpy()
        centers, sizes = np.unique(src, return_counts=True)
        ok = (sizes >= 2) & (sizes <= cap)
        keep = np.repeat(ok, sizes)
        dst = dst[keep]
        sizes = sizes[ok]
        if len(sizes) == 0:
            return pd.DataFrame(
                {
                    "pair": pd.array([], dtype="int64"),
                    "w": pd.array([], dtype="int64"),
                }
            )
        if dst.min() < 0 or dst.max() >= (1 << 31):
            raise ValueError(
                "adamic_adar packs pairs into int64: node ids must be "
                "in [0, 2^31)"
            )
        left, right, gid = _pairs_within_groups(sizes)
        # libm ln once per unique degree (the frozen ln contract)
        ud = np.unique(sizes)
        term_by_deg = {
            int(d): np.int64(math.floor(1e6 / math.log(d))) for d in ud
        }
        terms = np.fromiter(
            (term_by_deg[int(d)] for d in sizes), np.int64, len(sizes)
        )
        a = dst[left]
        b = dst[right]
        # within a center's sorted neighbor list left < right => a < b;
        # a == b is possible only via duplicate dst, removed above
        pair = a * np.int64(1 << 31) + b  # node ids < 2^31 by contract
        df = pd.DataFrame({"pair": pair, "w": terms[gid]})
        c = df.groupby("pair", as_index=False)["w"].sum()
        return c.astype({"pair": "int64", "w": "int64"})

    def sum_final(group: pd.DataFrame) -> pd.DataFrame:
        c = group.groupby("pair", as_index=False)["w"].sum()
        c["const"] = np.int64(0)
        return c.astype({"pair": "int64", "w": "int64", "const": "int64"})

    pair_sums = bucket_aggregate(
        edges_ds,
        wedge_pairs,
        key="src",
        partial=edge_rows,
    )
    sums = bucket_aggregate(pair_sums, sum_final, key="pair")
    if sums.count() == 0:  # no wedge: an empty Dataset has no schema
        return pd.DataFrame(
            {
                c: pd.array([], dtype="int64")
                for c in ("node_a", "node_b", "score_micro")
            }
        )
    top = grouped_topk(
        sums, by="const", val_col="w", k=topk, tie_col="pair"
    ).to_pandas()
    pair = top["pair"].to_numpy().astype(np.int64)
    out = pd.DataFrame(
        {
            "node_a": pair >> 31,
            "node_b": pair & ((1 << 31) - 1),
            "score_micro": top["w"].to_numpy().astype(np.int64),
        }
    )
    return (
        out.sort_values(
            ["score_micro", "node_a", "node_b"],
            ascending=[False, True, True],
            kind="mergesort",
        )
        .reset_index(drop=True)
        .astype("int64")
    )


KCORE_LOCAL_MAX_EDGES = 200_000


def kcore_peel(edges_ds, k: int = 8, rounds: int = 6) -> pd.DataFrame:
    """R-round k-core peeling (Seidman 1983 "Network structure and
    minimum degree") over the undirected distinct-neighbor graph — the
    dense-subgraph / spam-farm / community-skeleton filter: each round
    SIMULTANEOUSLY removes every node with fewer than ``k`` surviving
    distinct neighbors, ``rounds`` times.

    The R-round bound is PART OF THE CONTRACT (the bounded-iteration
    production job; the exact k-core is the fixpoint).  Peeling is
    idempotent once quiescent, so the engine's early-stop on a no-change
    round returns exactly the R-round result the SQL oracle's unrolled
    CTEs compute.  Input rows are directed ``(src, dst)``; the op
    symmetrizes and dedups first, so degree = distinct neighbors.

    Plan: one src-bucketed symmetrize+dedup exchange; per round ONE
    bucketed degree count and TWO semi-joins (src / dst endpoint kept
    iff its node survives) — the connected-components cost shape, R
    times.  Adaptive local fast path at <= ``KCORE_LOCAL_MAX_EDGES``
    deduped edges solves all rounds on the driver (np.unique degree
    counts + boolean masks), pinned bit-equal to the distributed plan
    (tests patch the constant to 0 to force it).  Returns the surviving
    ``(node, degree)`` table sorted node asc (degree within the
    surviving subgraph).
    """
    from .joins import hash_equijoin

    def sym_partial(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["src"].to_numpy().astype(np.int64)
        d = batch["dst"].to_numpy().astype(np.int64)
        keep = s != d  # self-loops never count toward degree
        s, d = s[keep], d[keep]
        ss = np.concatenate([s, d])
        dd = np.concatenate([d, s])
        return pd.DataFrame({"src": ss, "dst": dd}).drop_duplicates()

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group[["src", "dst"]].drop_duplicates()

    ewd = bucket_aggregate(
        edges_ds,
        dedup,
        key="src",
        partial=sym_partial,
    )

    empty = pd.DataFrame(
        {
            "node": pd.array([], dtype="int64"),
            "degree": pd.array([], dtype="int64"),
        }
    )
    n_edges = ewd.count()
    if n_edges == 0:
        return empty

    if n_edges <= KCORE_LOCAL_MAX_EDGES:
        df = ewd.to_pandas()
        src = df["src"].to_numpy().astype(np.int64)
        dst = df["dst"].to_numpy().astype(np.int64)
        for _ in range(rounds):
            nodes_l, deg = np.unique(src, return_counts=True)
            alive = nodes_l[deg >= k]
            m = np.isin(src, alive) & np.isin(dst, alive)
            if m.all():
                break  # quiescent: further rounds are no-ops
            src, dst = src[m], dst[m]
            if len(src) == 0:
                return empty
        nodes_l, deg = np.unique(src, return_counts=True)
        # the final deg >= k filter applies at EVERY rounds value
        # (including 0) — the distributed plan and the SQL oracle's
        # final HAVING do the same, keeping the paths bit-equal
        keep = deg >= k
        return pd.DataFrame(
            {"node": nodes_l[keep], "degree": deg[keep]}
        ).astype("int64")

    import ray.data  # noqa: F401  (Dataset ops below)

    def deg_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch.groupby("src", as_index=False).size()
        return pd.DataFrame(
            {
                "src": c["src"].astype("int64"),
                "n": c["size"].astype("int64"),
            }
        )

    cur = ewd
    schema_hint = {"src": np.dtype("int64"), "dst": np.dtype("int64")}
    surv_hint = {"node": np.dtype("int64")}
    for _ in range(rounds):
        def deg_final(group: pd.DataFrame) -> pd.DataFrame:
            c = group.groupby("src", as_index=False)["n"].sum()
            alive = c.loc[c["n"] >= k, ["src"]].rename(
                columns={"src": "node"}
            )
            return alive.astype("int64")

        survivors = bucket_aggregate(
            cur,
            deg_final,
            key="src",
            partial=deg_partial,
        )
        nxt = hash_equijoin(
            cur,
            survivors,
            left_on="src",
            right_on="node",
            how="semi",
            left_schema_hint=schema_hint,
            right_schema_hint=surv_hint,
        )
        nxt = hash_equijoin(
            nxt,
            survivors,
            left_on="dst",
            right_on="node",
            how="semi",
            left_schema_hint=schema_hint,
            right_schema_hint=surv_hint,
        )
        n_next = nxt.count()
        if n_next == 0:
            return empty
        if n_next == cur.count():
            cur = nxt
            break  # quiescent
        cur = nxt

    def final_deg(group: pd.DataFrame) -> pd.DataFrame:
        c = group.groupby("src", as_index=False)["n"].sum()
        keep = c.loc[c["n"] >= k]
        return pd.DataFrame(
            {
                "node": keep["src"].astype("int64"),
                "degree": keep["n"].astype("int64"),
            }
        )

    out = bucket_aggregate(
        cur,
        final_deg,
        key="src",
        partial=deg_partial,
    ).to_pandas()
    if len(out) == 0:
        return empty
    return (
        out.sort_values("node", kind="mergesort")
        .reset_index(drop=True)
        .astype("int64")
    )
