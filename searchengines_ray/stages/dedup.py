"""Deduplication stages for web-scale corpora (SURVEY.md §2.10 + task brief).

All are expressed Ray-Data-first:

- **exact**: vectorized content hash per batch (combiner) -> ``groupby(hash)``
  -> min doc_id.  The shuffle moves (hash, doc_id) pairs only — never text.
- **MinHash + LSH**: shingle -> minhash signature (fully vectorized: one
  (shingles x permutations) universal-hash matrix min-reduce per doc) ->
  banding -> ``groupby(band, band_hash)`` -> candidate pairs -> exact n-gram
  Jaccard verification on the (small) candidate set.
- **SimHash**: 64-bit tf-weighted sign hash -> 16-bit chunk banding ->
  Hamming-distance verification.
- **embedding near-dup**: seeded random-hyperplane LSH buckets -> in-bucket
  pairwise cosine.

Scale notes: bucket group sizes are the skew hazard (a boilerplate band
bucket can explode); ``max_bucket`` caps verification work per bucket and the
cap is LOGGED, not silent.  Verification re-reads only candidate doc texts
(broadcast filter), never the corpus.
"""

from __future__ import annotations

import hashlib
import os
import re
import zlib

import numpy as np
import pandas as pd

from ..analysis import _ASCII_LOWER
from .exchange import bucket_aggregate, bucket_of, run_tasks

_WORD = re.compile(r"[0-9a-z]+")


def _pairs_pandas(ds_or_df, cols: dict) -> pd.DataFrame:
    """Materialize a candidate-pair dataset to pandas with a STABLE schema —
    an empty Ray aggregate loses its columns, which would crash callers."""
    df = ds_or_df.to_pandas() if hasattr(ds_or_df, "to_pandas") else ds_or_df
    if df.empty or not set(cols) <= set(df.columns):
        return pd.DataFrame(
            {c: pd.array([], dtype=t) for c, t in cols.items()}
        )
    return (
        df[list(cols)]
        .astype(cols)
        .sort_values(list(cols)[:2], kind="mergesort")
        .reset_index(drop=True)
    )

_MERSENNE = np.uint64((1 << 61) - 1)


def _content_hash_batch(batch: pd.DataFrame, key: str) -> pd.DataFrame:
    hs = [
        int.from_bytes(
            hashlib.blake2b((t or "").encode(), digest_size=8).digest(), "big"
        )
        >> 1
        for t in batch[key]
    ]
    return pd.DataFrame(
        {"doc_id": batch["doc_id"], "h": pd.array(hs, dtype="int64")}
    )


def exact_dedup(ds, key: str = "text"):
    """Surviving doc_ids after exact-content dedup (keep min doc_id per
    identical ``key``).  Returns a Dataset with one column ``doc_id``.

    Combiner-first: per-batch min per content hash, then ONE hash-bucket
    groupby with a vectorized per-bucket min (the native per-unique-key
    groupby was a sorted exchange over every (h, doc_id) row)."""

    def partial_min(batch: pd.DataFrame) -> pd.DataFrame:
        hb = _content_hash_batch(batch, key)
        return hb.groupby("h", as_index=False)["doc_id"].min()

    def final_min(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("h", as_index=False)["doc_id"].min()
        return g[["doc_id"]].astype({"doc_id": "int64"})

    return bucket_aggregate(
        ds, final_min, key="h", partial=partial_min
    )


# --------------------------------------------------------------------- minhash


class MinHasher:
    """Stateful minhash stage: permutation coefficients drawn once per actor
    in ``__init__`` from a fixed seed (deterministic across the fleet)."""

    def __init__(
        self, num_perm: int = 64, shingle: int = 3, seed: int = 1234567
    ):
        rng = np.random.default_rng(seed)
        self.a = (
            rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
            | np.uint64(1)
        )
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle = shingle
        self.word = _WORD

    def shingle_hashes(self, text: str) -> np.ndarray:
        words = self.word.findall((text or "").translate(_ASCII_LOWER))
        if len(words) < self.shingle:
            words = words + [""] * (self.shingle - len(words))
        h = np.asarray(
            [zlib.crc32(w.encode()) for w in words], dtype=np.uint64
        )
        k = self.shingle
        n = len(h) - k + 1
        roll = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            roll = roll * np.uint64(1000003) + h[j : n + j]
        return np.unique(roll)

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingle_hashes(text)
        # universal hashing: (a*x+b) mod p, vectorized (shingles x perms)
        vals = (sh[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return vals.min(axis=0)

    def batch_signatures(self, texts_arr) -> np.ndarray:
        """Vectorized signatures for an Arrow string array (nulls allowed)
        — (n, num_perm) uint64.

        Arrow kernels tokenize every doc at once; crc32 runs once per UNIQUE
        word; rolling shingle hashes and per-doc minima are computed over the
        flat token stream with `np.minimum.reduceat`.  Produces EXACTLY the
        same signatures as the scalar :meth:`signature` (pinned by test);
        docs with fewer than `shingle` words fall back to the scalar path
        (padding semantics).
        """
        import pyarrow as pa
        import pyarrow.compute as pc

        if isinstance(texts_arr, pa.ChunkedArray):
            texts_arr = texts_arr.combine_chunks()
        texts_arr = pc.fill_null(texts_arr.cast(pa.string()), "")
        n = len(texts_arr)
        low = pc.ascii_lower(texts_arr)
        toks = pc.split_pattern_regex(low, pattern="[^0-9a-z]+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        nonempty = pc.fill_null(pc.not_equal(flat, ""), False).to_numpy(
            zero_copy_only=False
        )
        uniq = pc.unique(flat)
        vids = pc.fill_null(pc.index_in(flat, value_set=uniq), 0).to_numpy(
            zero_copy_only=False
        )
        crc_map = np.asarray(
            [zlib.crc32((w or "").encode()) for w in uniq.to_pylist()],
            dtype=np.uint64,
        )
        parent = parent[nonempty]
        wh = crc_map[vids[nonempty]]
        counts = np.bincount(parent, minlength=n)

        k = self.shingle
        sigs = np.empty((n, self.num_perm), dtype=np.uint64)
        short = counts < k
        # rolling shingle hashes over the flat stream; shingles crossing doc
        # boundaries are masked out
        m = len(wh) - k + 1
        if m > 0:
            roll = np.zeros(m, dtype=np.uint64)
            for j in range(k):
                roll = roll * np.uint64(1000003) + wh[j : m + j]
            valid = parent[: m] == parent[k - 1 :]
            rp, rr = parent[:m][valid], roll[valid]
            # per-doc unique shingles: sort by (doc, hash), drop consecutive dups
            order = np.lexsort((rr, rp))
            rp, rr = rp[order], rr[order]
            first = np.ones(len(rp), dtype=bool)
            first[1:] = (rp[1:] != rp[:-1]) | (rr[1:] != rr[:-1])
            rp, rr = rp[first], rr[first]
            if len(rp):
                starts = np.nonzero(
                    np.concatenate(([True], rp[1:] != rp[:-1]))
                )[0]
                present = rp[starts]
                for pi in range(self.num_perm):
                    vals = (rr * self.a[pi] + self.b[pi]) % _MERSENNE
                    mins = np.minimum.reduceat(vals, starts)
                    sigs[present, pi] = mins
                covered = np.zeros(n, dtype=bool)
                covered[present] = True
                short = short | ~covered
            else:
                short = np.ones(n, dtype=bool)
        # scalar fallback for short/empty docs (padding semantics)
        for i in np.nonzero(short)[0]:
            sigs[i] = self.signature(texts_arr[int(i)].as_py())
        return sigs

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa

        sigs = self.batch_signatures(
            pa.array(
                ["" if t is None else t for t in batch["text"]], pa.string()
            )
        )
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "sig": list(sigs)}
        )


class MinHashBandRows(MinHasher):
    """Arrow-native fused stage: text -> minhash signature -> LSH band
    rows ``(doc_id, band, band_hash)`` in ONE ``pyarrow``-format
    map_batches — no pandas conversion at either boundary and no
    intermediate signature block between stages (the signature matrix
    dies inside the task).  ``band_hash`` is byte-identical to
    :func:`_band_rows` over :class:`MinHasher` signatures (fuzz-pinned)."""

    def __init__(
        self,
        num_perm: int = 64,
        shingle: int = 3,
        bands: int = 16,
        seed: int = 1234567,
    ):
        super().__init__(num_perm=num_perm, shingle=shingle, seed=seed)
        self.bands = bands

    def __call__(self, batch):
        import pyarrow as pa

        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        doc_ids = doc_ids.astype(np.int64)
        n = len(doc_ids)
        bands = self.bands
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                }
            )
        sigs = self.batch_signatures(batch.column("text"))
        band_hash = _band_hash_fold(sigs, bands)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, bands)),
                "band": pa.array(np.tile(np.arange(bands, dtype=np.int32), n)),
                "band_hash": pa.array(band_hash),
            }
        )


def _band_hash_fold(sigs: np.ndarray, bands: int) -> np.ndarray:
    """(n, num_perm) uint64 signatures -> (n*bands,) int64 band hashes —
    the ONE rolling-fold implementation shared by the pandas `_band_rows`
    and the Arrow `MinHashBandRows` stage (byte-identity by construction,
    also fuzz-pinned)."""
    n = len(sigs)
    r = sigs.shape[1] // bands
    cube = sigs[:, : bands * r].reshape(n, bands, r)
    acc = np.zeros((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(r):
            acc = acc * np.uint64(1000003) + cube[:, :, j]
    return (acc & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64).reshape(-1)


def _band_rows(batch: pd.DataFrame, bands: int) -> pd.DataFrame:
    """Signature -> (doc_id, band, band_hash) rows, vectorized across the
    batch (rolling band combine over the (docs, bands, r) cube)."""
    n = len(batch)
    if n == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.array([], dtype="int64"),
                "band": pd.array([], dtype="int32"),
                "band_hash": pd.array([], dtype="int64"),
            }
        )
    sigs = np.stack([np.asarray(s, dtype=np.uint64) for s in batch["sig"]])
    doc_rep = np.repeat(
        batch["doc_id"].to_numpy().astype(np.int64), bands
    )
    band_rep = np.tile(np.arange(bands, dtype=np.int32), n)
    return pd.DataFrame(
        {
            "doc_id": doc_rep,
            "band": band_rep,
            "band_hash": _band_hash_fold(sigs, bands),
        }
    )


def _band_rows_scalar(batch: pd.DataFrame, bands: int) -> pd.DataFrame:
    doc_ids, band_ids, band_hashes = [], [], []
    for doc, sig in zip(batch["doc_id"], batch["sig"]):
        sig = np.asarray(sig, dtype=np.uint64)
        r = len(sig) // bands
        for b in range(bands):
            chunk = sig[b * r : (b + 1) * r]
            acc = 0  # Python int: explicit mod-2^64 wraparound, no warnings
            for v in chunk:
                acc = (acc * 1000003 + int(v)) & 0xFFFFFFFFFFFFFFFF
            doc_ids.append(doc)
            band_ids.append(b)
            band_hashes.append(acc & 0x7FFFFFFFFFFFFFFF)
    return pd.DataFrame(
        {
            "doc_id": pd.array(doc_ids, dtype="int64"),
            "band": pd.array(band_ids, dtype="int32"),
            "band_hash": pd.array(band_hashes, dtype="int64"),
        }
    )


def _bucket_pairs(group: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """Candidate pairs within one LSH bucket, with SALTED SPLITS for skew.

    A boilerplate-heavy bucket (every page sharing a banner) would cost
    O(n^2); instead an oversized bucket is split into deterministic salt
    chunks of ``max_bucket`` ids and pairs form within each chunk —
    per-bucket work is bounded at O(ceil(n/max_bucket) * max_bucket^2) and
    NOTHING is silently dropped.  The chunk ORDER is keyed on
    (band, band_hash, doc_id) — NOT plain doc_id — so every band splits an
    oversized bucket at DIFFERENT boundaries and a pair straddling one
    band's boundary still co-locates in another band's chunk (plain-id
    ordering split every band identically, defeating the rescue — the
    failure mode the sf0.1 oracle exposed in the simhash pipeline).
    """
    ids = sorted(set(group["doc_id"].tolist()))
    if len(ids) < 2:
        return pd.DataFrame({"doc_a": [], "doc_b": []}).astype("int64")
    if len(ids) > max_bucket:
        salt = (
            f"{int(group['band'].iloc[0])}:{int(group['band_hash'].iloc[0])}"
            if "band" in group.columns and "band_hash" in group.columns
            else ""
        )
        ids = sorted(
            ids, key=lambda d: zlib.crc32(f"{salt}:{d}".encode())
        )
    pairs = []
    for start in range(0, len(ids), max_bucket):
        chunk = ids[start : start + max_bucket]
        pairs.extend(  # salted order is arbitrary: emit (min, max)
            (a, b) if a < b else (b, a)
            for i, a in enumerate(chunk)
            for b in chunk[i + 1 :]
        )
    return pd.DataFrame(
        {
            "doc_a": pd.array([p[0] for p in pairs], dtype="int64"),
            "doc_b": pd.array([p[1] for p in pairs], dtype="int64"),
        }
    )


def _batch_shingle_sets(texts: list, k: int) -> list[np.ndarray]:
    """Per-doc sorted-unique shingle-hash arrays, vectorized over the batch
    (flat token stream + rolling hash + lexsort dedup — the MinHasher
    pattern).  Byte-identical to :meth:`MinHasher.shingle_hashes` per doc
    (short docs fall back to the scalar padding path)."""
    from .text import _flat_word_stream

    n = len(texts)
    vocab, vids, parent, counts = _flat_word_stream(texts)
    crc_map = np.asarray(
        [zlib.crc32((w or "").encode()) for w in vocab], dtype=np.uint64
    )
    wh = crc_map[vids] if len(vids) else np.empty(0, dtype=np.uint64)
    out: list = [None] * n
    m = len(wh) - k + 1
    if m > 0:
        roll = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            roll = roll * np.uint64(1000003) + wh[j : m + j]
        valid = parent[:m] == parent[k - 1 :]
        rp, rr = parent[:m][valid], roll[valid]
        if len(rp):
            order = np.lexsort((rr, rp))
            rp, rr = rp[order], rr[order]
            first = np.ones(len(rp), dtype=bool)
            first[1:] = (rp[1:] != rp[:-1]) | (rr[1:] != rr[:-1])
            rp, rr = rp[first], rr[first]
            starts = np.nonzero(
                np.concatenate(([True], rp[1:] != rp[:-1]))
            )[0]
            bounds = np.append(starts, len(rp))
            for si, doc in enumerate(rp[starts]):
                out[doc] = rr[bounds[si] : bounds[si + 1]]
    mh = MinHasher(num_perm=1, shingle=k)
    for i in range(n):
        if out[i] is None:  # <k words: scalar padding semantics
            out[i] = mh.shingle_hashes(texts[i])
    return out


_PAIR = ["doc_a", "doc_b"]  # the pair exchanges' composite key


def _verify_group(group: pd.DataFrame, threshold: float) -> pd.DataFrame:
    """Vectorized exact-Jaccard kernel over ALL pairs in one bucket — no
    per-pair Python loop.  Duplicate candidate rows for the same (pair,
    side) collapse to one; a pair with a side missing from the corpus is
    dropped.  Intersection size = number of (pair, hash) keys that appear
    on BOTH sides (each side's set is unique), computed with one lexsort
    over the concatenated hash streams."""
    g = group.drop_duplicates(["doc_a", "doc_b", "side"])
    counts = g.groupby(["doc_a", "doc_b"])["side"].transform("size")
    g = g.loc[counts == 2]
    if g.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.array([], dtype="int64"),
                "doc_b": pd.array([], dtype="int64"),
                "jaccard": pd.array([], dtype="float64"),
            }
        )
    # pair index: rows are (side0, side1) adjacent after a stable sort
    g = g.sort_values(["doc_a", "doc_b", "side"], kind="stable")
    npairs = len(g) // 2
    pidx = np.repeat(np.arange(npairs, dtype=np.int64), 2)
    sets = [np.frombuffer(s, dtype=np.uint64) for s in g["sh"]]
    sizes = np.asarray([s.size for s in sets], dtype=np.int64)
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
    owner = np.repeat(pidx, sizes)
    # count duplicates of (pair, hash): sort by pair then hash; a
    # same-pair adjacent equal hash means present on both sides
    order = np.lexsort((flat, owner))
    of, ff = owner[order], flat[order]
    dup = np.zeros(len(ff), dtype=bool)
    if len(ff) > 1:
        dup[1:] = (of[1:] == of[:-1]) & (ff[1:] == ff[:-1])
    inter = np.bincount(of[dup], minlength=npairs).astype(np.int64)
    side_sizes = sizes.reshape(npairs, 2)
    union = side_sizes.sum(axis=1) - inter
    jac = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
    keep = jac >= threshold
    da = g["doc_a"].to_numpy()[::2][keep]
    db = g["doc_b"].to_numpy()[::2][keep]
    return pd.DataFrame(
        {
            "doc_a": da.astype(np.int64),
            "doc_b": db.astype(np.int64),
            "jaccard": jac[keep],
        }
    )


def _expand_slots(
    docs: np.ndarray, endpoint_sorted: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each doc in ``docs``, every index of the pair array whose
    (sorted) endpoint equals it — vectorized range flattening, no per-doc
    loop.  Returns (doc_row_repeat, pair_indices)."""
    lo = np.searchsorted(endpoint_sorted, docs, "left")
    hi = np.searchsorted(endpoint_sorted, docs, "right")
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    doc_rep = np.repeat(np.arange(len(docs), dtype=np.int64), cnt)
    cum = np.zeros(len(cnt), dtype=np.int64)
    np.cumsum(cnt[:-1], out=cum[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(cum, cnt) + np.repeat(
        lo, cnt
    )
    return doc_rep, order[pos]


# Pair-count bound for the broadcast verify fast path: at or below it the
# pair endpoints are broadcast ONCE as numpy arrays (16 B/pair, zero-copy
# from the object store in every task) and verification costs a single
# pair-keyed shuffle; above it pairs stay a Dataset and verification pays
# a second (doc-keyed) shuffle instead of any driver/broadcast pair
# structure.  Both paths are exact; tests patch it to 0 to force the
# Dataset path.
VERIFY_BROADCAST_MAX_PAIRS = 5_000_000


def _verify_pairs_broadcast(
    ds,
    pairs_df: pd.DataFrame,
    threshold: float,
    shingle: int,
    text_key: str,
):
    """One-shuffle verification for a bounded pair list: broadcast the
    endpoint arrays, emit each candidate doc's shingle set once per pair
    slot keyed BY PAIR, and intersect inside a single bucketed groupby
    (the sets ride exactly one shuffle; the two-shuffle Dataset plan
    ships them twice)."""
    import ray
    from functools import partial

    pa = pairs_df["doc_a"].to_numpy().astype(np.int64)
    pb = pairs_df["doc_b"].to_numpy().astype(np.int64)
    oa = np.argsort(pa, kind="stable")
    ob = np.argsort(pb, kind="stable")
    cand = np.unique(np.concatenate([pa, pb]))
    bref = ray.put((pa, pb, pa[oa], pb[ob], oa, ob, cand))

    def shingle_slot_rows(batch: pd.DataFrame) -> pd.DataFrame:
        pa, pb, pas, pbs, oa, ob, cand = ray.get(bref)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        idx = np.minimum(np.searchsorted(cand, docs), len(cand) - 1)
        sub = batch.loc[cand[idx] == docs]
        sets = _batch_shingle_sets(list(sub[text_key]), shingle)
        blobs = [np.asarray(s, dtype=np.uint64).tobytes() for s in sets]
        d = sub["doc_id"].to_numpy().astype(np.int64)
        rep0, pid0 = _expand_slots(d, pas, oa)
        rep1, pid1 = _expand_slots(d, pbs, ob)
        doc_a = np.concatenate([pa[pid0], pa[pid1]])
        doc_b = np.concatenate([pb[pid0], pb[pid1]])
        side = np.concatenate(
            [
                np.zeros(len(pid0), dtype=np.int64),
                np.ones(len(pid1), dtype=np.int64),
            ]
        )
        return pd.DataFrame(
            {
                "doc_a": doc_a,
                "doc_b": doc_b,
                "side": side,
                "sh": [blobs[i] for i in np.concatenate([rep0, rep1])],
            }
        )

    return bucket_aggregate(
        ds,
        partial(_verify_group, threshold=threshold),
        key=_PAIR,
        partial=shingle_slot_rows,
    )


def minhash_verify_pairs_ds(
    ds,
    pairs_ds,
    threshold: float,
    shingle: int = 3,
    text_key: str = "text",
):
    """Distributed exact n-gram-Jaccard verification of a candidate-pair
    DATASET — pairs never land on the driver (no pair-map broadcast, no
    ``max_pairs`` cap, no silent under-dedup when the near-dup graph is
    super-linear in corpus size).

    Plan: the only driver/broadcast structure is the candidate DOC-ID
    array (corpus-bounded, 8 bytes per candidate doc).  The corpus scan
    emits each candidate doc's shingle set ONCE keyed by doc; the pair
    Dataset emits two slot rows per pair keyed by endpoint; one
    doc-bucketed groupby attaches sets to slots, one pair-bucketed groupby
    intersects the two sides.  Shuffled bytes = candidate-doc shingle sets
    + pair rows — never the corpus.  Returns a Dataset
    ``(doc_a, doc_b, jaccard)``.

    Fast path: at or below ``VERIFY_BROADCAST_MAX_PAIRS`` the (bounded)
    pair list is broadcast as endpoint arrays instead and the sets ride a
    SINGLE pair-keyed shuffle (:func:`_verify_pairs_broadcast`) — exactly
    the same result, one all-to-all cheaper.
    """
    import ray
    import ray.data

    pairs_ds = pairs_ds.select_columns(["doc_a", "doc_b"]).materialize()
    if pairs_ds.count() <= VERIFY_BROADCAST_MAX_PAIRS:
        pairs_df = pairs_ds.to_pandas().drop_duplicates(["doc_a", "doc_b"])
        if pairs_df.empty:
            return ray.data.from_pandas(
                pd.DataFrame(
                    {
                        "doc_a": pd.array([], dtype="int64"),
                        "doc_b": pd.array([], dtype="int64"),
                        "jaccard": pd.array([], dtype="float64"),
                    }
                )
            )
        return _verify_pairs_broadcast(
            ds, pairs_df, threshold, shingle, text_key
        )

    def batch_ids(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "d": np.unique(
                    np.concatenate(
                        [
                            batch["doc_a"].to_numpy().astype(np.int64),
                            batch["doc_b"].to_numpy().astype(np.int64),
                        ]
                    )
                )
            }
        )

    idparts = pairs_ds.map_batches(
        batch_ids, batch_format="pandas"
    ).to_pandas()
    empty = pd.DataFrame(
        {
            "doc_a": pd.array([], dtype="int64"),
            "doc_b": pd.array([], dtype="int64"),
            "jaccard": pd.array([], dtype="float64"),
        }
    )
    if idparts.empty:
        return ray.data.from_pandas(empty)
    cand_ids = np.unique(idparts["d"].to_numpy().astype(np.int64))
    cref = ray.put(cand_ids)

    def shingle_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(cref)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        sub = batch.loc[np.isin(docs, ids)]
        sets = _batch_shingle_sets(list(sub[text_key]), shingle)
        d = sub["doc_id"].to_numpy().astype(np.int64)
        n = len(d)
        return pd.DataFrame(
            {
                "jd": d,
                "doc_a": np.full(n, -1, dtype=np.int64),
                "doc_b": np.full(n, -1, dtype=np.int64),
                "side": np.full(n, -1, dtype=np.int64),
                # bytes, not ndarrays: a block whose sets happen to share a
                # length would densify to a TensorArray and fail to concat
                # with the slot rows' placeholder column in the shuffle
                "sh": [np.asarray(s, dtype=np.uint64).tobytes() for s in sets],
            }
        )

    def slot_rows(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy().astype(np.int64)
        b = batch["doc_b"].to_numpy().astype(np.int64)
        jd = np.concatenate([a, b])
        n = len(a)
        return pd.DataFrame(
            {
                "jd": jd,
                "doc_a": np.concatenate([a, a]),
                "doc_b": np.concatenate([b, b]),
                "side": np.concatenate(
                    [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
                ),
                "sh": [b""] * (2 * n),
            }
        )

    def attach(group: pd.DataFrame) -> pd.DataFrame:
        shr = group.loc[group["side"] == -1]
        slots = group.loc[group["side"] >= 0].drop(columns=["sh"])
        m = slots.merge(shr[["jd", "sh"]], on="jd", how="inner")
        return m[["doc_a", "doc_b", "side", "sh"]]

    from functools import partial

    # fully lazy/streaming: each stage has a single consumer, so nothing
    # re-executes; the two shuffles move only candidate-bounded rows
    # (shingle sets + pair slots), never the corpus.
    rows = ds.map_batches(shingle_rows, batch_format="pandas").union(
        pairs_ds.map_batches(slot_rows, batch_format="pandas")
    )
    return bucket_aggregate(
        bucket_aggregate(rows, attach, key="jd"),
        partial(_verify_group, threshold=threshold),
        key=_PAIR,
    )


def ngram_jaccard(text_a: str, text_b: str, shingle: int = 3) -> float:
    mh = MinHasher(num_perm=1, shingle=shingle)
    sa = set(mh.shingle_hashes(text_a).tolist())
    sb = set(mh.shingle_hashes(text_b).tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def minhash_candidate_pairs_ds(
    ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
    max_bucket: int = 200,
):
    """LSH candidate pairs (doc_a < doc_b) as a DATASET — the pair list
    never lands on the driver (the near-dup graph is super-linear in
    corpus size on boilerplate-heavy web data).

    A pair may appear once per matching band: every consumer dedupes
    anyway (``minhash_verify_pairs_ds`` groups by (doc_a, doc_b), so
    duplicated candidates cost only a few extra shuffled slot rows)."""

    # an INSTANCE (stateless elastic tasks), not an actor pool: the state is
    # a few hundred ints (cheap pickle), and a fixed-size pool both caps the
    # signature stage's parallelism and risks starving the read stage.
    # Arrow-native fused stage: text -> signature -> band rows in one
    # pyarrow combiner — zero pandas conversions and no intermediate
    # signature block (was three pandas stages).
    band_rows = MinHashBandRows(num_perm=num_perm, shingle=shingle, bands=bands)

    # most (band, band_hash) LSH buckets are singletons: one vectorized
    # size count per reduce partition drops them before any per-bucket work
    def partition_pairs(group: pd.DataFrame) -> pd.DataFrame:
        sizes = group.groupby(["band", "band_hash"])["doc_id"].transform(
            "size"
        )
        multi = group[sizes > 1]
        frames = [
            _bucket_pairs(g, max_bucket)
            for _, g in multi.groupby(["band", "band_hash"])
        ]
        if not frames:
            return pd.DataFrame(
                {
                    "doc_a": pd.array([], dtype="int64"),
                    "doc_b": pd.array([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    return bucket_aggregate(
        ds,
        partition_pairs,
        key="band_hash",
        partial=band_rows,
        batch_format="pyarrow",
    )


def minhash_dedup_pairs_ds(
    ds,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
):
    """Candidate pairs verified with EXACT n-gram Jaccard >= threshold, as
    a Dataset ``(doc_a, doc_b, jaccard)`` — pairs stay distributed from LSH
    through verification (no driver pair list, no ``max_pairs`` cap: a cap
    silently under-dedups exactly when the corpus is boilerplate-heavy and
    the candidate graph explodes).
    """
    pairs = minhash_candidate_pairs_ds(
        ds, num_perm=num_perm, bands=bands, shingle=shingle
    )
    return minhash_verify_pairs_ds(ds, pairs, threshold, shingle)


def minhash_dedup_pairs(
    ds,
    threshold: float = 0.8,
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
) -> pd.DataFrame:
    """Pandas wrapper over :func:`minhash_dedup_pairs_ds` (sorted) for
    oracle comparison and small pair lists."""
    out = _pairs_pandas(
        minhash_dedup_pairs_ds(
            ds, threshold=threshold, num_perm=num_perm, bands=bands,
            shingle=shingle,
        ),
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"},
    )
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def _labels_np(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized min-hook union-find over edge arrays: returns
    ``(nodes, comp)`` — every node id appearing in a pair (ascending) and
    its component label (the component's MINIMUM id).  O(E · log V) numpy
    sweeps, no per-pair Python; 5M pairs consolidate in well under a
    second."""
    if len(a) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes, inv = np.unique(
        np.concatenate([a, b]).astype(np.int64), return_inverse=True
    )
    ia, ib = inv[: len(a)], inv[len(a):]
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        # pointer-jump to full path compression
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
        ra, rb = parent[ia], parent[ib]
        hi = np.maximum(ra, rb)
        lo = np.minimum(ra, rb)
        mask = hi != lo
        if not mask.any():
            break
        # hook the larger root onto the smaller (min-label wins; .at
        # resolves duplicate hi indices with an elementwise minimum)
        np.minimum.at(parent, hi[mask], lo[mask])
    # nodes[] ascending => index order == id order => root index holds the
    # component's min id
    return nodes, nodes[parent]


def _nonroot_ids_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted non-root node ids (every node whose component root is not
    itself) — the keep-min-id drop set."""
    nodes, comp = _labels_np(a, b)
    return nodes[comp != nodes]


def _dropset_from_pairs(pairs: pd.DataFrame) -> set[int]:
    """Union-find over a pandas pair list: every non-root member of a
    component is dropped (keep min doc_id per component)."""
    return set(
        _nonroot_ids_np(
            pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()
        ).tolist()
    )


# Pair-count bound for driver-side consolidation: below it the verified
# pair list (two int64 columns, 16 B/pair — 80 MB at the default) is pulled
# once and consolidated with the vectorized union-find; above it the pairs
# stay a Dataset and consolidate via distributed min-label propagation.
# Both paths are EXACT — this is a constant-bounded fast path, not a cap
# (nothing is ever truncated; contrast the removed ``max_pairs``).  Tests
# patch it to 0 to force the distributed path.
DRIVER_CC_MAX_PAIRS = 5_000_000


def dedup_drop_ids(pairs) -> np.ndarray:
    """Component non-roots (keep min doc_id per component) as an int64
    array.  A pandas pair list (tests / CLI) consolidates in-process.  A
    pair DATASET is first counted: at or below ``DRIVER_CC_MAX_PAIRS``
    the two id columns are pulled once and consolidated with the same
    vectorized union-find — a bounded
    driver structure that skips the O(log diameter) shuffle-barrier rounds
    a toy-scale run would otherwise pay; above it, distributed min-label
    propagation (:func:`..graph.connected_components`) keeps the pair
    graph off the driver entirely."""
    nodes, comp = _component_labels(pairs)
    return np.sort(nodes[comp != nodes])


def minhash_dedup_survivors(ds, pairs):
    """Dataset of surviving doc_ids after near-dup removal: the drop array
    (pair-graph non-roots — candidate-doc-bounded, 8 bytes each) is
    broadcast once via ``ray.put`` and applied as a streaming
    ``map_batches`` filter; neither the corpus nor the pair graph ever
    materializes on the driver.  ``pairs`` may be a Dataset (scale path,
    distributed connected components) or a DataFrame (small path)."""
    import ray

    dref = ray.put(dedup_drop_ids(pairs))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(dref)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        out = batch.loc[~np.isin(docs, drop), ["doc_id"]]
        return out.astype({"doc_id": "int64"})

    return ds.map_batches(keep, batch_format="pandas")


def _component_labels(pairs):
    """``(nodes, comp)`` int64 arrays for a pair DataFrame or Dataset —
    the same bounded-driver / distributed-CC split as
    :func:`dedup_drop_ids`.  Both arrays are candidate-bounded (one entry
    per doc that appears in a pair), never corpus- or pair-graph-sized."""
    if isinstance(pairs, pd.DataFrame):
        return _labels_np(
            pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()
        )
    pairs = pairs.select_columns(["doc_a", "doc_b"]).materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        # a clean corpus yields ZERO candidate pairs; to_pandas() on an
        # empty Dataset drops the schema, so guard before column access
        z = np.empty(0, dtype=np.int64)
        return z, z.copy()
    if n_pairs <= DRIVER_CC_MAX_PAIRS:
        df = pairs.to_pandas()
        return _labels_np(df["doc_a"].to_numpy(), df["doc_b"].to_numpy())
    from .graph import connected_components

    lab = connected_components(pairs).to_pandas()  # candidate-bounded rows
    nodes = lab["node"].to_numpy().astype(np.int64)
    comp = lab["root"].to_numpy().astype(np.int64)
    order = np.argsort(nodes)  # node-ascending, matching _labels_np
    return nodes[order], comp[order]


def keep_best_drop_ids(
    pairs,
    quality,
    quality_col: str = "quality",
) -> np.ndarray:
    """Quality-aware near-dup consolidation: per connected component keep
    the (quality desc, doc_id asc)-BEST member — not the minimum id — and
    drop the rest.  This is the curation-grade variant of
    :func:`dedup_drop_ids`: when boilerplate recrawls cluster, the
    highest-quality capture survives instead of the accidental lowest id
    (the keep-first rule of the reference's url dedup,
    ``/root/reference/QryEval/Idx.java`` external-id uniqueness, only
    orders by id because Lucene has no quality signal).

    ``quality`` is a ``(doc_id, <quality_col>)`` DataFrame or Dataset with
    integer scores.  Only the CANDIDATE docs' scores are ever pulled to
    the driver (broadcast id-array filter) — the corpus and the pair graph
    stay distributed; a doc missing from ``quality`` scores -1 (sorts
    last, deterministic)."""
    nodes, comp = _component_labels(pairs)
    if len(nodes) == 0:
        return np.empty(0, dtype=np.int64)
    if isinstance(quality, pd.DataFrame):
        qdf = quality[["doc_id", quality_col]]
    else:
        import ray

        nref = ray.put(nodes)  # sorted ascending (np.unique order)

        def pick(batch: pd.DataFrame) -> pd.DataFrame:
            cand = ray.get(nref)
            ids = batch["doc_id"].to_numpy().astype(np.int64)
            idx = np.searchsorted(cand, ids)
            idx[idx == len(cand)] = 0
            m = cand[idx] == ids
            return batch.loc[m, ["doc_id", quality_col]]

        qdf = quality.map_batches(pick, batch_format="pandas").to_pandas()
    # duplicate quality rows would duplicate nodes through the merge and
    # corrupt the per-component keep-one choice — collapse to one row per
    # doc_id deterministically (best quality wins, block order irrelevant)
    qdf = qdf.sort_values(
        ["doc_id", quality_col], ascending=[True, False], kind="mergesort"
    ).drop_duplicates("doc_id")
    d = pd.DataFrame({"doc_id": nodes, "comp": comp}).merge(
        qdf, on="doc_id", how="left"
    )
    d[quality_col] = (
        d[quality_col].fillna(-1).astype(np.int64)
    )
    d = d.sort_values(
        ["comp", quality_col, "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    drop = d.loc[d["comp"].duplicated(), "doc_id"].to_numpy()
    return np.sort(drop.astype(np.int64))


def dedup_keep_best_survivors(ds, pairs, quality, quality_col: str = "quality"):
    """Dataset of surviving doc_ids under quality-aware consolidation —
    the streaming-filter twin of :func:`minhash_dedup_survivors` with the
    :func:`keep_best_drop_ids` drop set."""
    import ray

    dref = ray.put(keep_best_drop_ids(pairs, quality, quality_col))

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        drop = ray.get(dref)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        out = batch.loc[~np.isin(docs, drop), ["doc_id"]]
        return out.astype({"doc_id": "int64"})

    return ds.map_batches(keep, batch_format="pandas")


def dedup_survivors_from_pairs(
    all_doc_ids: pd.Series, pairs: pd.DataFrame
) -> pd.DataFrame:
    """Driver-side survivors helper for small id lists (tests / CLI); the
    scale path is :func:`minhash_dedup_survivors`."""
    drop = _dropset_from_pairs(pairs)
    keep = [d for d in all_doc_ids.astype(int) if d not in drop]
    return pd.DataFrame({"doc_id": pd.array(sorted(keep), dtype="int64")})


# ------------------------------------------------------------------ line dedup


def _explode_lines(batch: pd.DataFrame, min_chars: int) -> pd.DataFrame:
    """One row per line ``(doc_id, line_idx, line, h)``; ``h`` is the
    line's crc32, or -1 for lines shorter than ``min_chars``.  One
    SENTINEL row per doc (line_idx -1, h -1, always kept) so a doc whose
    every line is dropped still yields a ``(doc_id, '')`` row."""
    import itertools

    docs = batch["doc_id"].to_numpy().astype(np.int64)
    split = [("" if t is None else t).split("\n") for t in batch["text"]]
    nlines = np.asarray([len(s) for s in split], dtype=np.int64)
    doc_rep = np.repeat(docs, nlines)
    lines = list(itertools.chain.from_iterable(split))
    idx = (
        np.arange(len(lines), dtype=np.int64)
        - np.repeat(np.cumsum(nlines) - nlines, nlines)
    )
    h = np.asarray(
        [
            zlib.crc32(ln.encode()) if len(ln) >= min_chars else -1
            for ln in lines
        ],
        dtype=np.int64,
    )
    return pd.DataFrame(
        {
            "doc_id": np.concatenate([doc_rep, docs]),
            "line_idx": np.concatenate(
                [idx, np.full(len(docs), -1, dtype=np.int64)]
            ),
            "line": lines + [""] * len(docs),
            "h": np.concatenate([h, np.full(len(docs), -1, dtype=np.int64)]),
        }
    )


def _reassemble_lines(group: pd.DataFrame) -> pd.DataFrame:
    """Surviving lines rejoined per doc in line order: ONE vectorized
    sort + join per reduce partition (a per-document map_groups would
    pay a Python callback + pandas frame per doc — 10^9 tiny frames at
    corpus scale)."""
    g = group.loc[group["line_idx"] >= 0].sort_values(
        ["doc_id", "line_idx"], kind="mergesort"
    )
    joined = g.groupby("doc_id", sort=True)["line"].agg("\n".join)
    all_docs = np.unique(group["doc_id"].to_numpy())
    out = pd.DataFrame({"doc_id": all_docs.astype(np.int64)})
    out["text"] = out["doc_id"].map(joined).fillna("")
    return out


def _line_key(b) -> np.ndarray:
    """Long lines exchange by their line hash ``h``; short and sentinel
    lines (``h == -1``) by doc, so they scatter instead of funneling
    corpus-wide into one bucket."""
    h = b["h"].to_numpy()
    return np.where(h == -1, b["doc_id"].to_numpy(), h)


def _line_exchange(ds, min_chars: int, mark):
    """Explode docs to line rows, ``mark`` the surviving lines per
    line-hash bucket, reassemble docs per doc bucket."""
    marked = bucket_aggregate(
        ds,
        mark,
        key=_line_key,
        partial=lambda b: _explode_lines(b, min_chars),
    )
    return bucket_aggregate(
        marked, _reassemble_lines, key="doc_id"
    )


def line_dedup(ds, min_chars: int = 10):
    """Cross-corpus line-level deduplication (the C4 pipeline's line dedup):
    every line of ``min_chars``+ characters is kept only at its FIRST
    global occurrence (ordered by (doc_id, line_idx)); shorter lines are
    never deduplicated.  Returns a Dataset ``(doc_id, text)`` with each
    doc's surviving lines rejoined in order; a doc whose every line was a
    duplicate survives as ``(doc_id, '')`` (never silently dropped).

    Fully distributed two-shuffle plan: lines explode with their
    (doc_id, line_idx) key, a hash-bucketed groupby marks each line
    occurrence keep/drop (keeper = min (doc_id, line_idx) per line text,
    vectorized per reduce partition), and a second groupby — doc-hashed,
    ONE vectorized sort + string-agg per partition, never a
    per-document Python group — reassembles docs.  Short lines bucket by
    doc (they skip dedup, so co-location by content buys nothing and a
    constant bucket would funnel every short line into one task).  The
    line text rides the shuffles (reconstruction needs it) — corpus-sized
    but streaming, never on the driver.
    """

    def mark(group: pd.DataFrame) -> pd.DataFrame:
        # short/sentinel lines (h == -1) are always kept; long lines keep
        # only the global first occurrence OF THE SAME LINE TEXT (hash +
        # text so a crc collision cannot merge distinct lines).  First =
        # min (doc_id, line_idx) via a mergesort + keep-first — the two-key
        # pair directly, no packed-int key (a packed key overflows int64
        # for doc_id >= ~2^43 and bleeds across docs at >=2^20 lines).
        short = group["h"].to_numpy() == -1
        gl = group.loc[~short].sort_values(
            ["h", "line", "doc_id", "line_idx"], kind="mergesort"
        )
        first = ~gl.duplicated(subset=["h", "line"], keep="first")
        return pd.concat(
            [group.loc[short], gl.loc[first.to_numpy()]], ignore_index=True
        )[["doc_id", "line_idx", "line"]]

    return _line_exchange(ds, min_chars, mark)


def boilerplate_filter(
    ds, min_chars: int = 10, max_docs: int = 1
):
    """Global frequent-line (boilerplate) removal — the RefinedWeb /
    CCNet paragraph-frequency filter: a line of ``min_chars``+ characters
    that appears in MORE THAN ``max_docs`` distinct documents is dropped
    from EVERY document (nav bars, cookie banners, license footers);
    shorter lines and within-document repeats are never touched.
    Complements :func:`line_dedup` (keep-first): boilerplate removal
    keeps NO occurrence of a cross-corpus-frequent line.

    Same fully distributed two-shuffle plan as line_dedup: lines explode
    with (doc_id, line_idx), a hash-bucketed groupby computes each line
    text's DISTINCT-doc count (one vectorized sort + reduceat per reduce
    partition — never a per-line Python group, never a driver-side bad-line
    set), and a doc-bucketed groupby reassembles survivors in order.  A
    doc whose every line was boilerplate survives as ``(doc_id, '')``.
    Returns a Dataset ``(doc_id, text)``."""

    def mark(group: pd.DataFrame) -> pd.DataFrame:
        # short/sentinel lines (h == -1) always survive; a long line
        # survives iff its text appears in <= max_docs DISTINCT docs.
        # Distinct-doc counts: one mergesort by (h, line, doc_id) + two
        # run-boundary masks + reduceat (hash AND text in the key so a
        # crc collision cannot merge distinct lines).
        short = group["h"].to_numpy() == -1
        gl = group.loc[~short].sort_values(
            ["h", "line", "doc_id"], kind="mergesort"
        )
        if len(gl):
            hv = gl["h"].to_numpy()
            lv = gl["line"].to_numpy()
            dv = gl["doc_id"].to_numpy()
            newkey = np.ones(len(gl), dtype=bool)
            newkey[1:] = (hv[1:] != hv[:-1]) | (lv[1:] != lv[:-1])
            newdoc = newkey.copy()
            newdoc[1:] |= dv[1:] != dv[:-1]
            starts = np.nonzero(newkey)[0]
            ndocs = np.add.reduceat(newdoc.astype(np.int64), starts)
            keep_key = ndocs <= max_docs
            runlen = np.diff(np.append(starts, len(gl)))
            keep = np.repeat(keep_key, runlen)
            gl = gl.loc[keep]
        return pd.concat([group.loc[short], gl], ignore_index=True)[
            ["doc_id", "line_idx", "line"]
        ]

    return _line_exchange(ds, min_chars, mark)


# ----------------------------------------------------------- substring dedup


def substring_dedup(ds, k: int = 8):
    """ExactSubstr-style duplicate-SPAN removal (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better"): every
    ``k``-token gram occurrence that is NOT the corpus-wide first
    occurrence of that gram (first = min ``(doc_id, pos)``) marks its
    ``k`` covered token positions for removal; a token survives iff no
    duplicate occurrence covers it.  This is the removal counterpart of
    :func:`searchengines_ray.stages.text.repeated_spans` (which only
    reports the signal).

    Returns one row per input document: ``(doc_id, n_tokens, n_removed,
    kept_hash)`` where ``kept_hash`` is the Fingerprinter content-hash
    contract over the SURVIVING token subsequence in document order
    (char fold base 131 per word, sequence fold base 1000003, mod
    2^31-1, empty => 0) — so the oracle verifies the exact kept stream,
    not just counts.

    Plan (three bucket-hash exchanges, the last an equi-join; no driver
    structures): (1) per-batch gram-occurrence explode — gram strings
    built once per UNIQUE gram of the batch — as the combiner of (2) a
    gram-bucketed exchange that marks non-first occurrences with one
    vectorized sort+duplicated per reduce partition; (3) a doc-bucketed
    exchange folds each doc's duplicate start positions into ONE bytes
    row (int64 ``tobytes`` — variable-length arrays ride shuffles as
    bytes); (4) a left :func:`~searchengines_ray.stages.joins.
    hash_equijoin` onto the documents and a final vectorized sweep
    (difference-array coverage + Horner hash over the kept stream).

    Scale notes: the occurrence shuffle carries the k-token gram STRING
    (O(tokens x k) bytes through one exchange) — the price of exactness;
    Lee et al.'s suffix array is the single-machine alternative, and a
    62-bit gram hash would cut the bytes at a (documented) collision
    risk.  Only documents that LOSE a span pay the join payload; clean
    corpora stream through with an empty right side.
    """
    from .joins import hash_equijoin
    from .text import _flat_word_stream, _poly_word_hashes

    M31 = 2147483647

    occ_empty = pd.DataFrame(
        {
            "doc_id": pd.array([], dtype="int64"),
            "pos": pd.array([], dtype="int64"),
            "gram": pd.array([], dtype="object"),
        }
    )

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        vocab, vids, parent, counts = _flat_word_stream(list(batch["text"]))
        m = len(vids) - k + 1
        if m <= 0:
            return occ_empty
        valid = parent[:m] == parent[k - 1 :]
        if not valid.any():
            return occ_empty
        starts = np.nonzero(valid)[0]
        offsets = np.cumsum(counts) - counts
        par = parent[starts]
        pos = starts - offsets[par]
        arr = np.stack([vids[starts + i] for i in range(k)], axis=1)
        uniq, inv = np.unique(arr, axis=0, return_inverse=True)
        voc = np.asarray(vocab, dtype=object)
        s = pd.Series(voc[uniq[:, 0]], dtype=object)
        for i in range(1, k):
            s = s + " " + pd.Series(voc[uniq[:, i]], dtype=object)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": docs[par],
                "pos": pos.astype(np.int64),
                "gram": s.to_numpy()[inv],
            }
        )

    def mark(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["gram", "doc_id", "pos"], kind="mergesort")
        dup = g.duplicated(subset=["gram"], keep="first").to_numpy()
        return g.loc[dup, ["doc_id", "pos"]].astype(
            {"doc_id": "int64", "pos": "int64"}
        )

    def fold_pos(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["doc_id", "pos"], kind="mergesort")
        ids = g["doc_id"].to_numpy()
        ps = g["pos"].to_numpy()
        cuts = np.nonzero(np.concatenate(([True], ids[1:] != ids[:-1])))[0]
        return pd.DataFrame(
            {
                "doc_id": pd.array(ids[cuts], dtype="int64"),
                "pos_bytes": pd.Series(
                    [p.tobytes() for p in np.split(ps, cuts[1:])],
                    dtype=object,
                ),
            }
        )

    dup_pos = bucket_aggregate(
        bucket_aggregate(
            ds, mark, key="gram", partial=explode
        ),
        fold_pos,
        key="doc_id",
    )

    joined = hash_equijoin(
        ds,
        dup_pos,
        left_on="doc_id",
        right_on="doc_id",
        right_cols=("pos_bytes",),
        how="left",
        left_schema_hint={"doc_id": np.int64, "text": object},
        right_schema_hint={"doc_id": np.int64, "pos_bytes": object},
    )

    def sweep(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        vocab, vids, parent, counts = _flat_word_stream(list(batch["text"]))
        whmap = _poly_word_hashes(vocab, 131)
        wh = whmap[vids] if len(vids) else np.empty(0, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        diff = np.zeros(len(vids) + k, dtype=np.int64)
        starts = []
        for i, pb in enumerate(batch["r_pos_bytes"]):
            if isinstance(pb, bytes) and pb:
                starts.append(
                    offsets[i] + np.frombuffer(pb, dtype=np.int64)
                )
        if starts:
            fp = np.concatenate(starts)
            np.add.at(diff, fp, 1)
            np.add.at(diff, fp + k, -1)
        covered = np.cumsum(diff[: len(vids)]) > 0
        kept = ~covered
        kept_counts = np.bincount(parent[kept], minlength=n).astype(np.int64)
        kw = wh[kept]
        koff = np.zeros(n, dtype=np.int64)
        if n:
            koff[1:] = np.cumsum(kept_counts)[:-1]
        ch = np.zeros(n, dtype=np.int64)
        for p in range(int(kept_counts.max()) if n else 0):
            act = kept_counts > p
            ch[act] = (ch[act] * 1000003 + kw[koff[act] + p]) % M31
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy().astype(np.int64),
                "n_tokens": pd.array(
                    counts.astype(np.int64), dtype="int64"
                ),
                "n_removed": pd.array(
                    counts.astype(np.int64) - kept_counts, dtype="int64"
                ),
                "kept_hash": pd.array(ch, dtype="int64"),
            }
        )

    return joined.map_batches(sweep, batch_format="pandas")


# --------------------------------------------------------------------- simhash


_SH_BITS = 62  # two 31-bit poly hashes concatenated: SQL-replicable


class SimHasher:
    """62-bit tf-weighted SimHash per doc + 4 band keys (16/16/16/14 bits —
    any pair within Hamming distance 3 shares at least one band, so band
    bucketing has recall 1.0 for max_hamming <= 3).

    The per-word 62-bit hash is two mod-(2^31-1) char folds (bases 131 and
    137) so a DuckDB oracle reproduces it exactly; bit i of the doc's
    simhash is set iff sum over token occurrences of (2*bit_i(word)-1) > 0.
    Empty token stream => simhash 0.
    """

    def __init__(self):
        self.word = _WORD

    @staticmethod
    def _word_hash62(w: str) -> int:
        h1 = h2 = 0
        for c in w.encode():
            h1 = (h1 * 131 + c) % 2147483647
            h2 = (h2 * 137 + c) % 2147483647
        return h1 | (h2 << 31)

    def simhash(self, text: str) -> int:
        """Scalar reference path (pinned byte-identical to __call__)."""
        words = self.word.findall((text or "").translate(_ASCII_LOWER))
        if not words:
            return 0
        acc = [0] * _SH_BITS
        for w in words:
            h = self._word_hash62(w)
            for i in range(_SH_BITS):
                acc[i] += 1 if (h >> i) & 1 else -1
        out = 0
        for i in range(_SH_BITS):
            if acc[i] > 0:
                out |= 1 << i
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        """Vectorized: 62-bit hash once per UNIQUE word, sign matrix over
        the flat token stream, per-doc bit sums via one add.reduceat."""
        from .text import _flat_word_stream

        texts = list(batch["text"])
        n = len(texts)
        vocab, vids, parent, counts = _flat_word_stream(texts)
        h64 = np.asarray(
            [self._word_hash62(w) for w in vocab], dtype=np.int64
        )
        bits = (
            (h64[:, None] >> np.arange(_SH_BITS, dtype=np.int64)[None, :]) & 1
        ).astype(np.int8)
        signs = (2 * bits - 1).astype(np.int32)  # (vocab, 62)
        sh = np.zeros(n, dtype=np.int64)
        if len(parent):
            tok_signs = signs[vids]
            starts = np.nonzero(
                np.concatenate(([True], parent[1:] != parent[:-1]))
            )[0]
            acc = np.add.reduceat(tok_signs, starts, axis=0)  # (docs, 62)
            pos = (acc > 0).astype(np.int64)
            sh[parent[starts]] = pos @ (
                np.int64(1) << np.arange(_SH_BITS, dtype=np.int64)
            )
        cols = {
            "doc_id": batch["doc_id"],
            "simhash": pd.array(sh, dtype="int64"),
        }
        for b in range(4):
            cols[f"band{b}"] = pd.array(
                (sh >> (16 * b)) & 0xFFFF, dtype="int32"
            )
        return pd.DataFrame(cols)


def _hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized SWAR popcount over a uint64 array."""
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & m1)
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        return (x * h01) >> np.uint64(56)


def simhash_dup_pairs(ds, max_hamming: int = 3):
    """Pairs with SimHash Hamming distance <= max_hamming, found via band
    buckets (a pair within distance 3 shares at least one of 4 bands —
    pigeonhole, so recall is EXACTLY 1.0).

    In-bucket verification is a blockwise VECTORIZED Hamming sweep (XOR
    outer product + SWAR popcount): an oversized boilerplate bucket costs
    O(n^2/64) word ops but NEVER drops a pair — the earlier doc_id-sorted
    chunk salting split every band's bucket at the SAME boundaries, so a
    straddling pair was missed in all 4 bands (caught by the sf0.1
    all-pairs SQL oracle: 1351 of 1438 true pairs).  The quadratic cost is
    inherent when the answer itself is quadratic (a cluster of identical
    docs); the sweep runs in 2048 x 2048 tiles to bound per-step memory.
    """
    sh = ds.map_batches(SimHasher(), batch_format="pandas")

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for b in range(4):
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": batch["doc_id"],
                        "simhash": batch["simhash"],
                        "band": np.full(len(batch), b, dtype=np.int32),
                        "band_val": batch[f"band{b}"],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        recs = sorted(
            set(zip(group["doc_id"].astype(int), group["simhash"].astype(int)))
        )
        ids = np.asarray([r[0] for r in recs], dtype=np.int64)
        hs = np.asarray([r[1] for r in recs], dtype=np.uint64)
        n = len(ids)
        block = 2048
        oa, ob = [], []
        for i0 in range(0, n, block):
            a = hs[i0 : i0 + block]
            for j0 in range(i0, n, block):
                b = hs[j0 : j0 + block]
                d = _popcount_u64(a[:, None] ^ b[None, :])
                ii, jj = np.nonzero(d <= max_hamming)
                gi, gj = ii + i0, jj + j0
                keep = gi < gj
                oa.append(ids[gi[keep]])
                ob.append(ids[gj[keep]])
        return pd.DataFrame(
            {
                "doc_a": pd.array(
                    np.concatenate(oa) if oa else [], dtype="int64"
                ),
                "doc_b": pd.array(
                    np.concatenate(ob) if ob else [], dtype="int64"
                ),
            }
        )

    def partition_pairs(group: pd.DataFrame) -> pd.DataFrame:
        frames = [
            bucket_pairs(g)
            for _, g in group.groupby(["band", "band_val"])
            if len(g) > 1
        ]
        if not frames:
            return pd.DataFrame(
                {
                    "doc_a": pd.array([], dtype="int64"),
                    "doc_b": pd.array([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    pairs = bucket_aggregate(
        sh, partition_pairs, key="band_val", partial=band_rows
    )
    out = _pairs_pandas(pairs, {"doc_a": "int64", "doc_b": "int64"})
    return out.drop_duplicates(["doc_a", "doc_b"]).reset_index(drop=True)


# ------------------------------------------------------------------ embeddings


class HyperplaneBucketer:
    """Seeded random-hyperplane LSH signatures over an embedding column.
    Planes are drawn once per actor (lazily sized from the first batch's
    vector dimension) — identical across the fleet for a fixed seed."""

    def __init__(self, seed: int = 97, tables: int = 4, planes: int = 12):
        self.seed = seed
        self.tables = tables
        self.planes = planes
        self._mat = None

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(
            [np.asarray(v, dtype=np.float64) for v in batch["embedding"]]
        )
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        vecs = vecs / np.maximum(norms, 1e-12)
        if self._mat is None:
            rng = np.random.default_rng(self.seed)
            self._mat = rng.standard_normal(
                (self.tables, vecs.shape[1], self.planes)
            )
        frames = []
        for t in range(self.tables):
            signs = (vecs @ self._mat[t]) > 0
            bucket = signs @ (1 << np.arange(self.planes))
            frames.append(
                pd.DataFrame(
                    {
                        "vec_id": batch["vec_id"],
                        "table": np.full(len(batch), t, dtype=np.int32),
                        "bucket": bucket.astype(np.int64),
                        "vec": list(vecs),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)


def embedding_neardup_pairs(
    emb_ds,
    threshold: float = 0.95,
    planes: int = 12,
    tables: int = 4,
    seed: int = 97,
    max_bucket: int = 500,
):
    """Near-duplicate vector pairs by cosine >= threshold.

    Seeded random-hyperplane LSH: ``tables`` independent sign-bucket tables
    raise recall; in-bucket exact cosine verifies.  Vectors are L2-normalized
    once in the signature stage.
    """
    rows = emb_ds.map_batches(
        HyperplaneBucketer(seed=seed, tables=tables, planes=planes),
        batch_format="pandas",
    )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("vec_id").sort_values("vec_id")
        empty = pd.DataFrame(
            {"doc_a": pd.array([], dtype="int64"),
             "doc_b": pd.array([], dtype="int64"),
             "cosine": pd.array([], dtype="float64")}
        )
        if len(g) < 2:
            return empty
        # salted chunks bound per-bucket work at O(ceil(n/max_bucket) *
        # max_bucket^2); chunk ORDER is keyed on (table, bucket, vec_id) so
        # each hash table splits an oversized bucket at DIFFERENT
        # boundaries — cross-chunk near-dups get another chance in the
        # other (tables-1) tables (see _bucket_pairs on why plain-id
        # ordering defeats that rescue)
        if len(g) > max_bucket:
            t, bk = int(g["table"].iloc[0]), int(g["bucket"].iloc[0])
            order = [
                zlib.crc32(f"{t}:{bk}:{v}".encode())
                for v in g["vec_id"].astype(int)
            ]
            g = g.iloc[np.argsort(order, kind="stable")]
        frames = []
        for start in range(0, len(g), max_bucket):
            c = g.iloc[start : start + max_bucket]
            if len(c) < 2:
                continue
            ids = c["vec_id"].astype(int).to_numpy()
            mat = np.stack([np.asarray(v) for v in c["vec"]])
            sims = mat @ mat.T
            ii, jj = np.triu_indices(len(ids), k=1)
            keep = sims[ii, jj] >= threshold
            va, vb = ids[ii[keep]], ids[jj[keep]]
            frames.append(  # salted order is arbitrary: emit (min, max)
                pd.DataFrame(
                    {
                        "doc_a": pd.array(np.minimum(va, vb), dtype="int64"),
                        "doc_b": pd.array(np.maximum(va, vb), dtype="int64"),
                        "cosine": sims[ii, jj][keep],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else empty

    # all rows of an LSH bucket co-locate: the key is (table, bucket)
    def partition_pairs(group: pd.DataFrame) -> pd.DataFrame:
        frames = [
            bucket_pairs(sub)
            for _, sub in group.groupby(["table", "bucket"], sort=False)
        ]
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else bucket_pairs(group)
        )

    pairs = bucket_aggregate(rows, partition_pairs, key=["table", "bucket"])

    def maxpair(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(
            ["doc_a", "doc_b"], as_index=False
        )["cosine"].max()

    df = bucket_aggregate(
        pairs, maxpair, key=_PAIR
    ).to_pandas()
    return _pairs_pandas(
        df, {"doc_a": "int64", "doc_b": "int64", "cosine": "float64"}
    )


def minhash_cross_pairs_ds(
    left_ds,
    right_ds,
    id_offset: int = 1_000_000,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    shingle: int = 3,
):
    """Cross-corpus contamination check: verified near-dup pairs
    ``(left doc, right doc)`` between an existing corpus and an incoming
    batch — the dedup-against-training-set primitive.

    The right side is re-keyed to ``doc_id + id_offset`` (the caller
    guarantees every left id < ``id_offset``), the union then rides the
    full single-corpus LSH + exact-Jaccard-verify pipeline unchanged
    (pairs stay a Dataset end-to-end), and a pure per-batch filter keeps
    only cross-side pairs (``doc_a < id_offset <= doc_b`` — pair order
    is always a < b).  Intra-side duplicates are discarded by the same
    filter; recall characteristics are exactly those of
    :func:`minhash_dedup_pairs_ds`.
    """

    def rekey(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[["doc_id", "text"]].copy()
        b["doc_id"] = b["doc_id"].to_numpy().astype(np.int64) + np.int64(
            id_offset
        )
        return b

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_id", "text"]]

    aug = left_ds.map_batches(pick, batch_format="pandas").union(
        right_ds.map_batches(rekey, batch_format="pandas")
    )
    pairs = minhash_dedup_pairs_ds(
        aug, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle=shingle,
    )

    def cross_only(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch["doc_a"].to_numpy().astype(np.int64)
        b = batch["doc_b"].to_numpy().astype(np.int64)
        return batch.loc[(a < id_offset) & (b >= id_offset)]

    return pairs.map_batches(cross_only, batch_format="pandas")


def allpairs_jaccard_ds(
    ds,
    threshold: float = 0.5,
    shingle: int = 3,
):
    """EXACT set-similarity self-join via AllPairs prefix filtering —
    the deterministic-recall alternative to MinHash-LSH (Bayardo et al.
    WWW'07 scheme, re-derived): every pair with n-gram Jaccard >=
    threshold is guaranteed found; no probabilistic band misses.

    Prefix rule: order each doc's shingles by GLOBAL rarity (df asc,
    shingle asc — one consistent total order); a doc of n shingles
    emits only its first ``n - floor(t*n) + 1`` as candidate keys.  If
    J(A,B) >= t, the globally-smallest common shingle provably lies in
    BOTH prefixes, so the pair forms in that shingle's group.  Prefix
    tokens are the rarest by construction, which is what bounds
    candidate fan-out (a frequent shingle is almost never a prefix).

    Plan: shingle rows (doc, sh, n) -> df attach (shingle-hash
    shuffle) -> per-doc prefix cut (doc-hash shuffle) -> candidate
    pairs per exact shingle (shingle-hash shuffle) -> exact-Jaccard
    verification (:func:`minhash_verify_pairs_ds`, which also collapses
    duplicate candidates).  Pairs stay a Dataset end-to-end; nothing is
    capped or dropped.  ``threshold`` should be exactly representable
    in binary (0.5, 0.25, ...) so ``floor(t*n)`` cannot round up past
    an exact integer product and shorten a prefix.
    """

    def sh_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        sets = _batch_shingle_sets(list(batch["text"]), shingle)
        lens = np.asarray([len(s) for s in sets], dtype=np.int64)
        doc = np.repeat(ids, lens)
        n = np.repeat(lens, lens)
        sh = (
            np.concatenate(sets).astype(np.uint64)
            if lens.sum()
            else np.empty(0, dtype=np.uint64)
        )
        return pd.DataFrame(
            {
                "doc_id": doc,
                "sh": sh.astype(np.int64),
                "n": n,
            }
        )

    def attach_df(group: pd.DataFrame) -> pd.DataFrame:
        g = group.copy()
        g["df"] = (
            g.groupby("sh")["doc_id"].transform("size").astype("int64")
        )
        return g[["doc_id", "sh", "n", "df"]]

    def prefixes(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["doc_id", "df", "sh"], kind="mergesort")
        rank = g.groupby("doc_id", sort=False).cumcount().to_numpy()
        n = g["n"].to_numpy().astype(np.float64)
        p = (
            g["n"].to_numpy().astype(np.int64)
            - np.floor(threshold * n).astype(np.int64)
            + 1
        )
        return g.loc[rank < p, ["doc_id", "sh"]]

    def cand_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sh", "doc_id"], kind="mergesort")
        sizes = g.groupby("sh", sort=False)["doc_id"].transform("size")
        multi = g.loc[sizes.to_numpy() > 1]
        frames = []
        for _, sub in multi.groupby("sh", sort=False):
            ids = np.unique(sub["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), 1)
            frames.append(
                pd.DataFrame({"doc_a": ids[ii], "doc_b": ids[jj]})
            )
        if not frames:
            return pd.DataFrame(
                {
                    "doc_a": pd.array([], dtype="int64"),
                    "doc_b": pd.array([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    shingle_df = bucket_aggregate(
        ds, attach_df, key="sh", partial=sh_rows
    )
    prefix_rows = bucket_aggregate(
        shingle_df, prefixes, key="doc_id"
    )
    pairs = bucket_aggregate(
        prefix_rows, cand_pairs, key="sh"
    )
    # verify collapses duplicate candidates (groups by pair) and applies
    # the exact n-gram Jaccard >= threshold filter
    return minhash_verify_pairs_ds(ds, pairs, threshold, shingle)


# ------------------------------------------------- CDC chunk dedup


def cdc_chunk_rows(ds, k: int = 4, divisor: int = 16):
    """Content-defined chunking over the word stream (landmark chunking:
    Manber 1994 "Finding similar files in a large file system";
    Spring & Wetherall 2000): a chunk boundary falls AFTER word ``j``
    whenever the ``k``-word rolling gram hash ending at ``j`` satisfies
    ``gh % divisor == 0`` — boundaries move with the content, so an
    insertion reshuffles only the chunks it touches (fixed-stride
    chunking would shift every later chunk).  Expected chunk length is
    ``divisor`` words; no min/max clamps (the pure landmark rule keeps
    the SQL oracle exact).

    Contract (all SQL-replicable mod-(2^31-1) folds, the
    :class:`~searchengines_ray.stages.text.Fingerprinter` space): word
    hash = base-131 char fold; gram hash over ``k`` consecutive word
    hashes = base-1000003 fold; a boundary after the doc's LAST word is
    dropped (no empty trailing chunk); docs with fewer than ``k`` words
    (or no landmark) form a single chunk; ``chunk_hash`` = base-1000003
    fold over the chunk's word hashes; empty docs emit nothing.

    Purely per-doc ``map_batches`` (no shuffle).  Vectorized: one
    rolling Horner sweep for grams, one masked Horner sweep over chunk
    positions for chunk hashes (iterations = max chunk length in the
    batch, never a per-chunk Python loop).  Returns
    ``(doc_id, chunk_idx, n_words, chunk_hash)``, chunk_idx 0-based in
    word order.
    """
    from .text import _M31, _flat_word_stream, _poly_word_hashes

    B = 1000003

    def rows(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "doc_id": pd.array([], dtype="int64"),
                "chunk_idx": pd.array([], dtype="int64"),
                "n_words": pd.array([], dtype="int64"),
                "chunk_hash": pd.array([], dtype="int64"),
            }
        )
        vocab, vids, parent, counts = _flat_word_stream(
            list(batch["text"])
        )
        if not len(vids):
            return empty
        wh = _poly_word_hashes(vocab, 131)[vids]
        doc_ids = batch["doc_id"].to_numpy().astype(np.int64)
        n = counts.astype(np.int64)
        doc_start = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=doc_start[1:])

        # rolling k-gram hashes over the flat word-hash stream
        m = len(wh) - k + 1
        cut_flat = np.empty(0, dtype=np.int64)  # flat index of last gram word
        cut_doc = np.empty(0, dtype=np.int64)
        if m > 0:
            roll = np.zeros(m, dtype=np.int64)
            for j in range(k):
                roll = (roll * B + wh[j : m + j]) % _M31
            valid = parent[:m] == parent[k - 1 :]
            is_cut = valid & (roll % divisor == 0)
            gi = np.nonzero(is_cut)[0]
            cut_flat = gi + k - 1
            cut_doc = parent[gi].astype(np.int64)
            # a boundary after the doc's last word yields no new chunk
            keep = cut_flat < doc_start[cut_doc + 1] - 1
            cut_flat, cut_doc = cut_flat[keep], cut_doc[keep]

        nonempty = np.nonzero(n > 0)[0]
        owners = np.concatenate([nonempty, cut_doc])
        starts = np.concatenate([doc_start[nonempty], cut_flat + 1])
        order = np.lexsort((starts, owners))
        owners, starts = owners[order], starts[order]
        first = np.concatenate(([True], owners[1:] != owners[:-1]))
        gstarts = np.nonzero(first)[0]
        glen = np.diff(np.append(gstarts, len(owners)))
        cidx = np.arange(len(owners)) - np.repeat(gstarts, glen)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[np.append(gstarts[1:] - 1, len(owners) - 1)] = doc_start[
            owners[np.append(gstarts[1:] - 1, len(owners) - 1)] + 1
        ]
        clen = ends - starts

        acc = np.zeros(len(owners), dtype=np.int64)
        j = 0
        active = clen > 0
        while active.any():
            acc[active] = (
                acc[active] * B + wh[starts[active] + j]
            ) % _M31
            j += 1
            active = clen > j
        return pd.DataFrame(
            {
                "doc_id": pd.array(doc_ids[owners], dtype="int64"),
                "chunk_idx": pd.array(cidx, dtype="int64"),
                "n_words": pd.array(clen, dtype="int64"),
                "chunk_hash": pd.array(acc, dtype="int64"),
            }
        )

    return ds.map_batches(rows, batch_format="pandas")


def cdc_chunk_dedup(ds, k: int = 4, divisor: int = 16):
    """Cross-corpus duplicated-chunk table over :func:`cdc_chunk_rows`:
    for every chunk content hash occurring more than once, its size, the
    occurrence/doc counts and the first occurrence (lexicographic min
    (doc_id, chunk_idx) — min doc, then min index within it).

    The aggregation is bucket-hashed (``bucket_of(chunk_hash)`` +
    per-bucket vectorized pandas agg), never a Ray-native groupby on the
    fine hash key (the round-3 shuffle-shape lesson).  Returns
    ``(chunk_hash, n_words, n_occ, n_docs, first_doc, first_idx)``.
    """

    def agg(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("chunk_hash", sort=False)
        out = g.agg(
            n_words=("n_words", "min"),
            n_occ=("chunk_hash", "size"),
            n_docs=("doc_id", "nunique"),
            first_doc=("doc_id", "min"),
        ).reset_index()
        out = out[out["n_occ"] >= 2]
        if not len(out):
            return pd.DataFrame(
                {
                    "chunk_hash": pd.array([], dtype="int64"),
                    "n_words": pd.array([], dtype="int64"),
                    "n_occ": pd.array([], dtype="int64"),
                    "n_docs": pd.array([], dtype="int64"),
                    "first_doc": pd.array([], dtype="int64"),
                    "first_idx": pd.array([], dtype="int64"),
                }
            )
        fi = (
            group.merge(
                out[["chunk_hash", "first_doc"]],
                left_on=["chunk_hash", "doc_id"],
                right_on=["chunk_hash", "first_doc"],
            )
            .groupby("chunk_hash", sort=False)["chunk_idx"]
            .min()
        )
        out["first_idx"] = out["chunk_hash"].map(fi).astype("int64")
        return out.astype(
            {
                "chunk_hash": "int64",
                "n_words": "int64",
                "n_occ": "int64",
                "n_docs": "int64",
                "first_doc": "int64",
                "first_idx": "int64",
            }
        )

    return bucket_aggregate(
        cdc_chunk_rows(ds, k=k, divisor=divisor),
        agg,
        key="chunk_hash",
    )


# ------------------------------------------------- bottom-k sketch near-dup


def bottomk_sketch_rows(ds, k: int = 16, shingle: int = 4):
    """Bottom-k shingle sketches (Broder 1997 "On the resemblance and
    containment of documents"; Cohen & Kaplan 2007 "Summarizing data
    using bottom-k sketches"): per doc, the ``k`` SMALLEST distinct
    shingle hashes under ONE hash function — a distinct sketch family
    from k-permutation MinHash (k order statistics of a single hash
    instead of k independent minima), supporting unbiased union /
    Jaccard estimation from the union's own bottom-k.

    Contract (SQL-replicable Fingerprinter space, the cdc_dedup gram
    contract): word hash = base-131 char fold mod 2^31-1 over the
    ``[0-9a-z]+`` ASCII-lower token stream; shingle hash over
    ``shingle`` consecutive word hashes = base-1000003 fold; per-doc
    DISTINCT shingles; docs with fewer than ``shingle`` words emit
    nothing (no padding — short docs have no w-shingles).

    Purely per-doc ``map_batches`` (no shuffle), one rolling Horner
    sweep per batch.  Returns one row per doc: ``(doc_id, sk)`` with
    the sketch as sorted-ascending int64 BYTES (variable-length arrays
    ride shuffles as blobs — the TensorArray densification trap).
    """
    from .text import _M31, _flat_word_stream

    B = 1000003

    def rows(batch: pd.DataFrame) -> pd.DataFrame:
        from .text import _poly_word_hashes

        empty = pd.DataFrame(
            {
                "doc_id": pd.array([], dtype="int64"),
                "sk": pd.array([], dtype="object"),
            }
        )
        vocab, vids, parent, counts = _flat_word_stream(
            list(batch["text"])
        )
        if not len(vids):
            return empty
        wh = _poly_word_hashes(vocab, 131)[vids]
        doc_ids = batch["doc_id"].to_numpy().astype(np.int64)
        m = len(wh) - shingle + 1
        if m <= 0:
            return empty
        roll = np.zeros(m, dtype=np.int64)
        for j in range(shingle):
            roll = (roll * B + wh[j : m + j]) % _M31
        valid = parent[:m] == parent[shingle - 1 :]
        rp, rr = parent[:m][valid], roll[valid]
        if not len(rp):
            return empty
        # per-doc sorted-unique shingles, then the first k of each doc
        order = np.lexsort((rr, rp))
        rp, rr = rp[order], rr[order]
        first = np.ones(len(rp), dtype=bool)
        first[1:] = (rp[1:] != rp[:-1]) | (rr[1:] != rr[:-1])
        rp, rr = rp[first], rr[first]
        starts = np.nonzero(np.concatenate(([True], rp[1:] != rp[:-1])))[0]
        glen = np.diff(np.append(starts, len(rp)))
        rank = np.arange(len(rp), dtype=np.int64) - np.repeat(starts, glen)
        keep = rank < k
        rp, rr = rp[keep], rr[keep]
        s2 = np.nonzero(np.concatenate(([True], rp[1:] != rp[:-1])))[0]
        bounds = np.append(s2, len(rp))
        return pd.DataFrame(
            {
                "doc_id": pd.array(doc_ids[rp[s2]], dtype="int64"),
                "sk": [
                    rr[a:b].tobytes()
                    for a, b in zip(bounds[:-1], bounds[1:])
                ],
            }
        )

    return ds.map_batches(rows, batch_format="pandas")


def bottomk_neardup(
    ds,
    k: int = 16,
    shingle: int = 4,
    min_inter: int = 1,
):
    """Near-duplicate pair ESTIMATES from bottom-k sketches: for every
    doc pair sharing at least one sketch hash, the standard bottom-k
    Jaccard estimator — ``inter`` = number of hashes present in BOTH
    sketches that fall inside the bottom-``k`` of the sketch UNION,
    ``denom`` = ``min(k, |union|)`` — shipped as the INTEGER pair
    ``(inter, denom)`` (never a quotient; the caller divides, per the
    signed-division / float-contract rules).  A pair with
    ``inter/denom`` ~ J(A,B) >= t can be filtered caller-side.

    Plan (pairs stay a Dataset; the sketches ARE the shuffled payload —
    never the corpus): sketch blobs (per-doc map, no shuffle) ->
    [explode] shingle rows bucketed by hash -> per-bucket triu
    candidate pairs -> two slot rows per pair keyed by endpoint-doc
    bucket, unioned with the blob rows -> one doc-bucket groupby
    attaches blobs to slots (and drops duplicate candidates) -> one
    pair-bucket groupby computes all estimates vectorized (pad-to-k
    matrices, one np.sort per bucket — no per-pair Python).  Scale
    note: candidate fan-out is bounded by sketch size (<= k rows per
    doc enter the join); a globally-hot shingle hash still triangles
    within its bucket — salt/cap it upstream if a corpus has
    pathological boilerplate (the exact estimator here keeps the SQL
    oracle reproducible).
    """
    sk = bottomk_sketch_rows(ds, k=k, shingle=shingle).materialize()

    def sh_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        blobs = list(batch["sk"])
        lens = np.asarray([len(b) // 8 for b in blobs], dtype=np.int64)
        sh = (
            np.frombuffer(b"".join(blobs), dtype=np.int64)
            if blobs
            else np.empty(0, dtype=np.int64)
        )
        return pd.DataFrame(
            {
                "sh": pd.array(sh, dtype="int64"),
                "doc_id": pd.array(np.repeat(ids, lens), dtype="int64"),
            }
        )

    def cand_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["sh", "doc_id"], kind="mergesort")
        sizes = g.groupby("sh", sort=False)["doc_id"].transform("size")
        multi = g.loc[sizes.to_numpy() > 1]
        frames = []
        for _, sub in multi.groupby("sh", sort=False):
            ids = np.unique(sub["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), 1)
            frames.append(
                pd.DataFrame({"doc_a": ids[ii], "doc_b": ids[jj]})
            )
        if not frames:
            return pd.DataFrame(
                {
                    "doc_a": pd.array([], dtype="int64"),
                    "doc_b": pd.array([], dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    pairs = bucket_aggregate(
        sk, cand_pairs, key="sh", partial=sh_rows
    )
    return bottomk_pair_estimates(
        pairs, sk, k=k, min_inter=min_inter
    )


_PAD = np.int64(1) << 62  # right-pad of a short sketch; above any hash


def _pad_blobs(blobs, k: int) -> np.ndarray:
    """Sorted int64 sketch blobs (each <= ``k`` values) as one ``(n, k)``
    matrix, right-padded with ``_PAD``: one ``np.frombuffer`` over the
    joined blobs scattered into place — no per-blob Python."""
    lens = np.fromiter((len(b) // 8 for b in blobs), np.int64, len(blobs))
    out = np.full((len(blobs), k), _PAD, dtype=np.int64)
    vals = np.frombuffer(b"".join(blobs), dtype=np.int64)
    starts = np.cumsum(lens) - lens
    rows = np.repeat(np.arange(len(blobs)), lens)
    out[rows, np.arange(len(vals)) - starts[rows]] = vals
    return out


def _union_bottomk(A: np.ndarray, B: np.ndarray, k: int):
    """Row-wise bottom-k Jaccard estimate of two padded sketch matrices
    (:func:`_pad_blobs`): ``inter`` = hashes in BOTH sketches inside the
    bottom-``k`` of their union, ``denom`` = ``min(k, |union|)`` — one
    np.sort over all rows."""
    X = np.sort(np.concatenate([A, B], axis=1), axis=1)
    newv = np.ones_like(X, dtype=bool)
    newv[:, 1:] = X[:, 1:] != X[:, :-1]
    isval = X < _PAD
    drank = np.cumsum(newv & isval, axis=1)
    denom = np.minimum(k, drank[:, -1])
    inter = np.sum((~newv) & isval & (drank <= denom[:, None]), axis=1)
    return inter, denom


def bottomk_pair_estimates(pairs, blobs_ds, k: int = 16,
                           min_inter: int = 1):
    """Vectorized bottom-k Jaccard estimates for a candidate-pair
    Dataset: attach each endpoint's sketch blob through ONE doc-bucket
    exchange (two slot rows per pair unioned with the blob rows — the
    minhash consolidation shape), then compute every pair's
    ``(inter, denom)`` union-bottom-k estimate per pair bucket with
    pad-to-k matrices and a single np.sort — no per-pair Python.

    ``pairs`` is a Dataset ``(doc_a, doc_b)``; ``blobs_ds`` a Dataset
    ``(doc_id, sk)`` covering every endpoint (extra blobs are dropped by
    the inner slot join).  Used by :func:`bottomk_neardup`
    (intra-corpus); :func:`lsh_registry_query` shares its estimate
    kernel (:func:`_union_bottomk`) but attaches blobs in-process.
    Raises ``ValueError`` when a pair does not attach exactly one blob
    per endpoint."""
    def slot_rows(batch: pd.DataFrame) -> pd.DataFrame:
        pa_ = batch["doc_a"].to_numpy().astype(np.int64)
        pb_ = batch["doc_b"].to_numpy().astype(np.int64)
        doc = np.concatenate([pa_, pb_])
        doc_a = np.concatenate([pa_, pa_])
        doc_b = np.concatenate([pb_, pb_])
        side = np.concatenate(
            [
                np.zeros(len(pa_), dtype=np.int64),
                np.ones(len(pb_), dtype=np.int64),
            ]
        )
        return pd.DataFrame(
            {
                "doc": pd.array(doc, dtype="int64"),
                "doc_a": pd.array(doc_a, dtype="int64"),
                "doc_b": pd.array(doc_b, dtype="int64"),
                "side": pd.array(side, dtype="int64"),
                "sk": pd.array([b""] * len(doc), dtype="object"),
            }
        )

    def blob_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        n = len(ids)
        return pd.DataFrame(
            {
                "doc": pd.array(ids, dtype="int64"),
                "doc_a": pd.array(np.full(n, -1), dtype="int64"),
                "doc_b": pd.array(np.full(n, -1), dtype="int64"),
                "side": pd.array(np.full(n, -1), dtype="int64"),
                "sk": pd.array(list(batch["sk"]), dtype="object"),
            }
        )

    def attach(group: pd.DataFrame) -> pd.DataFrame:
        blobs = group.loc[group["side"] < 0, ["doc", "sk"]]
        slots = group.loc[group["side"] >= 0].drop_duplicates(
            ["doc_a", "doc_b", "side"]
        )
        m = slots[["doc", "doc_a", "doc_b", "side"]].merge(
            blobs, on="doc", how="inner"
        )
        return m[["doc_a", "doc_b", "side", "sk"]]

    def estimate(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(
            ["doc_a", "doc_b", "side"], kind="mergesort"
        ).reset_index(drop=True)
        sides = g["side"].to_numpy()
        a_ids, b_ids = g["doc_a"].to_numpy(), g["doc_b"].to_numpy()
        if len(g) % 2 or not (
            (sides[0::2] == 0).all()
            and (sides[1::2] == 1).all()
            and (a_ids[0::2] == a_ids[1::2]).all()
            and (b_ids[0::2] == b_ids[1::2]).all()
        ):
            raise ValueError(
                "bottomk_pair_estimates: a pair did not attach exactly "
                "one sketch blob per endpoint (missing or duplicate "
                "blob doc ids)"
            )
        sk = g["sk"].to_numpy()
        inter, ku = _union_bottomk(
            _pad_blobs(sk[0::2], k), _pad_blobs(sk[1::2], k), k
        )
        out = pd.DataFrame(
            {
                "doc_a": pd.array(a_ids[0::2], dtype="int64"),
                "doc_b": pd.array(b_ids[0::2], dtype="int64"),
                "inter": pd.array(inter, dtype="int64"),
                "denom": pd.array(ku, dtype="int64"),
            }
        )
        return out.loc[out["inter"] >= min_inter]

    rows = pairs.map_batches(slot_rows, batch_format="pandas").union(
        blobs_ds.map_batches(blob_rows, batch_format="pandas")
    )
    return bucket_aggregate(
        bucket_aggregate(rows, attach, key="doc"),
        estimate,
        key=_PAIR,
    )


def _sketch_hash_rows(batch: pd.DataFrame, parts: int) -> pd.DataFrame:
    """Explode per-doc bottom-k sketch blobs into ``(sh, doc_id, hp)``
    rows with the registry's hash-partition fold — ONE implementation
    shared by :func:`lsh_registry_write` (the written layout) and
    :func:`lsh_registry_query` (the probe), so the partition key can
    never silently desync between the two sides."""
    ids = batch["doc_id"].to_numpy().astype(np.int64)
    blobs = list(batch["sk"])
    lens = np.asarray([len(b) // 8 for b in blobs], dtype=np.int64)
    sh = (
        np.frombuffer(b"".join(blobs), dtype=np.int64)
        if blobs
        else np.empty(0, dtype=np.int64)
    )
    return pd.DataFrame(
        {
            "sh": pd.array(sh, dtype="int64"),
            "doc_id": pd.array(np.repeat(ids, lens), dtype="int64"),
            "hp": pd.array(bucket_of(sh, parts), dtype="int64"),
        }
    )


# the registry's two layouts: directory, hive column, file columns, row order
_REGISTRY_LAYOUTS = (
    ("hashes", "hp", ["sh", "doc_id"], ["sh", "doc_id"]),
    ("sketches", "dp", ["doc_id", "sk"], ["doc_id"]),
)


def lsh_registry_write(ds, path: str, k: int = 16, shingle: int = 4,
                       parts: int = 32) -> dict:
    """Persist a near-duplicate REGISTRY for incremental ingestion: the
    corpus's bottom-k shingle sketches written as two hive-partitioned
    parquet layouts under ``path``, ONE file per partition —

    - ``hashes/hp=<p>/part.parquet`` — exploded ``(sh, doc_id)``
      sketch-hash rows, partitioned by ``hp = bucket_of(sh, parts)``:
      the candidate-probe side (docs sharing any bottom-k hash are
      near-dup candidates);
    - ``sketches/dp=<p>/part.parquet`` — per-doc sketch blobs ``(doc_id,
      sk)``, partitioned by ``dp = bucket_of(doc_id, parts)``: the
      verification side;

    plus ``meta.json`` (k, shingle, parts).  Plan: each sketch batch's
    map task emits both layouts' rows, tagged ``hp`` or ``parts + dp``;
    ONE exchange keyed on that tag brings each partition's rows to one
    reducer, which writes every partition it receives as its file, rows
    sorted, so a retried reducer rewrites the same files.  Nothing is
    pulled to the driver.  A corpus with no sketches leaves both layouts
    empty.  :func:`lsh_registry_query` then dedups an INCOMING batch
    against the registry reading ONLY the partitions its own hashes /
    candidate docs touch (partition pruning — the IVF probed-bytes
    story), without recomputing or rescanning the corpus.  Returns the
    meta dict.
    """
    import json

    def layout_rows(batch: pd.DataFrame) -> pd.DataFrame:
        h = _sketch_hash_rows(batch, parts)
        ids = batch["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "part": np.concatenate(
                    [h["hp"].to_numpy(), parts + bucket_of(ids, parts)]
                ),
                "sh": np.concatenate(
                    [h["sh"].to_numpy(), np.zeros(len(ids), np.int64)]
                ),
                "doc_id": np.concatenate([h["doc_id"].to_numpy(), ids]),
                "sk": [None] * len(h) + list(batch["sk"]),
            }
        )

    def write(rows: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as pa
        import pyarrow.parquet as pq

        part = rows["part"].to_numpy()
        for v in np.unique(part):
            layout, col, cols, by = _REGISTRY_LAYOUTS[v // parts]
            d = os.path.join(path, layout, f"{col}={v % parts}")
            os.makedirs(d, exist_ok=True)
            g = rows.loc[part == v, cols].sort_values(by)
            pq.write_table(
                pa.Table.from_pandas(g, preserve_index=False),
                os.path.join(d, "part.parquet"),
            )
        return pd.DataFrame()

    for layout, *_ in _REGISTRY_LAYOUTS:
        os.makedirs(os.path.join(path, layout), exist_ok=True)
    bucket_aggregate(
        bottomk_sketch_rows(ds, k=k, shingle=shingle),
        write,
        key="part",
        partial=layout_rows,
    )
    meta = {"k": k, "shingle": shingle, "parts": parts}
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def _probe_partition(part_dir: str, s_sh: np.ndarray,
                     s_doc: np.ndarray) -> np.ndarray:
    """Probe task: the distinct ``(incoming, registry)`` doc-id pairs
    sharing a sketch hash, as an ``(n, 2)`` int64 array, between every
    ``(sh, doc_id)`` row of one ``hashes/hp=<p>/`` directory (all of its
    files) and the incoming hashes ``s_sh`` (sorted, their doc ids
    ``s_doc`` alongside), by ``np.searchsorted`` ranges."""
    import pyarrow.parquet as pq

    t = pq.read_table(part_dir, columns=["sh", "doc_id"])
    rsh = t.column("sh").to_numpy().astype(np.int64)
    lo = np.searchsorted(s_sh, rsh, side="left")
    cnt = np.searchsorted(s_sh, rsh, side="right") - lo
    # row i of the registry pairs with incoming s_doc[lo[i]:lo[i]+cnt[i]]
    off = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    pairs = np.stack(
        [
            s_doc[np.arange(len(off), dtype=np.int64) + off],
            np.repeat(t.column("doc_id").to_numpy().astype(np.int64), cnt),
        ],
        axis=1,
    )
    return np.unique(pairs, axis=0)


def lsh_registry_query(new_ds, path: str, tnum: int = 1, tden: int = 2,
                       min_inter: int = 1, return_stats: bool = False):
    """Near-dup matches of an INCOMING document batch against a persisted
    :func:`lsh_registry_write` registry — the production incremental-
    ingestion flow: the corpus is never rescanned, only the registry
    partitions the batch actually touches are read, and nothing is
    shuffled (the streaming set-similarity-join shape: a small batch
    probes persisted state).

    Plan:

    1. sketch the incoming docs once, to the driver (O(incoming x k));
    2. probe: one plain Ray task per ``hashes/hp=<p>/`` directory whose
       ``hp`` appears in the batch (:func:`_probe_partition`): it reads
       every file of the directory with pyarrow and joins each registry
       ``(sh, doc_id)`` row against the batch's sorted hash array (put
       in the object store once) by ``np.searchsorted`` ranges; the
       candidate ``(new, registry)`` pairs come back deduplicated;
    3. verify: an in-process point lookup of the candidate registry
       blobs (only the ``sketches/dp=<p>/`` partitions holding them, read
       with a partition filter), then one vectorized
       union-bottom-k estimate (:func:`_union_bottomk`) over all pairs.

    Driver memory is O(incoming x k) plus the candidate pairs and their
    registry blobs.  No Ray Data execution reads the registry, and an
    error in a probe task is raised here as its own type.  Kept pairs
    satisfy ``inter >= min_inter`` and ``inter * tden >= tnum * denom``
    (estimated jaccard >= tnum/tden, integer-exact).  Raises
    ``ValueError`` when incoming doc ids repeat, when incoming and
    registry doc ids overlap, or when a candidate registry doc does not
    have exactly one stored blob.
    Returns a pandas DataFrame ``(doc_id, reg_doc_id, inter, denom)``
    sorted (doc_id, reg_doc_id).  With ``return_stats=True`` also returns
    a dict of probed/total partition counts and bytes for both layouts
    (the IVF ``ivf_io_fraction`` evidence pattern).
    """
    import json

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray

    with open(os.path.join(path, "meta.json")) as f:
        meta = json.load(f)
    k, shingle, parts = meta["k"], meta["shingle"], meta["parts"]

    cols = ("doc_id", "reg_doc_id", "inter", "denom")
    empty = pd.DataFrame({c: pd.array([], dtype="int64") for c in cols})

    def _stats(touched_hp, touched_dp):
        def part_bytes(base, key, touched):
            tot = prb = 0
            for d in os.listdir(base):
                if not d.startswith(key + "="):
                    continue
                sz = sum(
                    os.path.getsize(os.path.join(base, d, f))
                    for f in os.listdir(os.path.join(base, d))
                )
                tot += sz
                if int(d.split("=", 1)[1]) in touched:
                    prb += sz
            return prb, tot

        hb, ht = part_bytes(os.path.join(path, "hashes"), "hp", touched_hp)
        sb, st = part_bytes(
            os.path.join(path, "sketches"), "dp", touched_dp
        )
        return {
            "parts": parts,
            "hash_parts_probed": len(touched_hp),
            "sketch_parts_probed": len(touched_dp),
            "hash_bytes_probed": hb,
            "hash_bytes_total": ht,
            "sketch_bytes_probed": sb,
            "sketch_bytes_total": st,
        }

    def done(res, touched_hp, touched_dp):
        return (res, _stats(touched_hp, touched_dp)) if return_stats else res

    # an empty Dataset drops its schema: check the length before any column
    nsk = bottomk_sketch_rows(new_ds, k=k, shingle=shingle).to_pandas()
    if len(nsk) == 0:
        return done(empty, set(), set())
    nsk = nsk.sort_values("doc_id", kind="mergesort")
    new_ids = nsk["doc_id"].to_numpy().astype(np.int64)
    if (new_ids[1:] == new_ids[:-1]).any():
        raise ValueError(
            "lsh_registry_query: incoming doc ids must be unique; "
            f"{int(new_ids[1:][new_ids[1:] == new_ids[:-1]][0])} repeats"
        )
    nh = _sketch_hash_rows(nsk, parts)
    touched_hp = set(int(x) for x in np.unique(nh["hp"].to_numpy()))
    order = np.lexsort((nh["doc_id"].to_numpy(), nh["sh"].to_numpy()))
    s_sh = nh["sh"].to_numpy()[order]
    s_doc = nh["doc_id"].to_numpy()[order]

    hashes = os.path.join(path, "hashes")
    dirs = [os.path.join(hashes, f"hp={p}") for p in sorted(touched_hp)]
    refs = (ray.put(s_sh), ray.put(s_doc))
    cand = run_tasks(
        _probe_partition, [(d, *refs) for d in dirs if os.path.isdir(d)]
    )
    if not any(len(c) for c in cand):
        return done(empty, touched_hp, set())
    pairs = np.unique(np.concatenate(cand), axis=0)
    doc_a, doc_b = pairs[:, 0], pairs[:, 1]
    reg_ids = np.unique(doc_b)
    shared = np.intersect1d(doc_a, reg_ids)
    if len(shared):
        raise ValueError(
            "lsh_registry_query: incoming and registry doc ids must be "
            f"disjoint; {len(shared)} shared, e.g. {int(shared[0])}"
        )

    # point lookup of the candidate blobs in this process: a Ray read here
    # keeps one more worker resident for the rest of the session
    touched_dp = set(int(x) for x in np.unique(bucket_of(reg_ids, parts)))
    tbl = pads.dataset(
        os.path.join(path, "sketches"), partitioning="hive"
    ).to_table(
        columns=["doc_id", "sk"],
        filter=pc.field("dp").isin(sorted(touched_dp))
        & pc.field("doc_id").isin(reg_ids),
    )
    got = tbl.column("doc_id").to_numpy().astype(np.int64)
    by_id = np.argsort(got, kind="stable")
    if not np.array_equal(got[by_id], reg_ids):
        raise ValueError(
            "lsh_registry_query: a candidate registry doc did not attach "
            "exactly one sketch blob (missing or duplicate registry blobs)"
        )
    reg_sk = tbl.column("sk").to_numpy(zero_copy_only=False)[by_id]
    inter, denom = _union_bottomk(
        _pad_blobs(nsk["sk"].to_numpy(), k)[np.searchsorted(new_ids, doc_a)],
        _pad_blobs(reg_sk, k)[np.searchsorted(reg_ids, doc_b)],
        k,
    )
    keep = (inter >= min_inter) & (
        inter * np.int64(tden) >= np.int64(tnum) * denom
    )
    res = pd.DataFrame(
        {
            c: pd.array(v[keep], dtype="int64")
            for c, v in zip(cols, (doc_a, doc_b, inter, denom))
        }
    )
    return done(res, touched_hp, touched_dp)
