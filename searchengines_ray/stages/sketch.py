"""Mergeable sketches as Ray Data combiner pipelines.

A sketch is the canonical "pre-aggregate before the shuffle" structure:
every batch folds its rows into a FIXED-SIZE summary (counters /
registers), the shuffle moves only summaries, and the reduce side merges
them cell-wise.  At 100 TB the shuffle volume is O(batches x sketch
size), independent of row count — the property that makes these the
right tool for corpus-wide frequency / cardinality questions a full
groupby would answer with an all-to-all exchange over every row.

Determinism contract (same as stages/text.py fingerprints and
stages/sample.py hashing): all hashes are SQL-REPLICABLE integer
arithmetic — word hashes are mod-(2^31-1) polynomial char folds
(distinct prime bases per sketch row), key hashes the Knuth
multiplicative fold confined to BIGINT-exact range — and every output
is an exact integer, so results are bit-identical across partitionings
and verifiable against DuckDB.  (No crc32/blake2b: CLAUDE.md invariant.)

The reference has no sketches (single-JVM coursework engine,
QryEval/Idx.java keeps exact in-memory stats); these are the scale path
for the same questions (df/ctf tails, corpus cardinalities).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .exchange import bucket_aggregate
from .text import _flat_word_stream, _poly_word_hashes

_M31 = 2147483647
_M31P1 = 2147483648
_M32 = 4294967296
_KNUTH = 2654435761

# distinct primes per count-min row; row j folds chars with base
# _CMS_BASES[j] (131/137 shared with the fingerprint/simhash contract)
_CMS_BASES = (131, 137, 139, 149, 151, 157)


def cms_counts(ds, width: int = 512, depth: int = 3):
    """Count-min sketch of the word-token frequency distribution over a
    ``text`` column: ``depth`` hash rows x ``width`` cells, cell value =
    total occurrences of tokens hashing there (the CM estimate of a
    token's frequency is the min over its ``depth`` cells).

    Returns a Dataset of the NONZERO cells ``(d, cell, cnt)`` — the
    sketch itself, mergeable by cell-wise addition.  Per batch the
    combiner emits at most depth x width rows regardless of batch size;
    one groupby merges partial sketches.  Tokens are the frozen
    ``[0-9a-z]+``-on-lowercase stream; row ``j`` hashes with the
    mod-(2^31-1) char fold at base ``_CMS_BASES[j]``, cell = hash %
    width.
    """
    if depth > len(_CMS_BASES):
        raise ValueError(f"depth <= {len(_CMS_BASES)}")
    bases = _CMS_BASES[:depth]

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vocab, vids, _parent, _counts = _flat_word_stream(
            batch["text"].tolist()
        )
        occ = np.bincount(vids, minlength=len(vocab)).astype(np.int64)
        frames = []
        for d, base in enumerate(bases):
            wh = _poly_word_hashes(vocab, base)
            cell_cnt = np.bincount(
                wh % width, weights=occ, minlength=width
            ).astype(np.int64)
            nz = np.nonzero(cell_cnt)[0].astype(np.int64)
            frames.append(
                pd.DataFrame(
                    {
                        "d": np.full(len(nz), d, np.int64),
                        "cell": nz,
                        "cnt": cell_cnt[nz],
                    }
                )
            )
        out = (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame(
                {
                    "d": np.zeros(0, np.int64),
                    "cell": np.zeros(0, np.int64),
                    "cnt": np.zeros(0, np.int64),
                }
            )
        )
        return out

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby(["d", "cell"], as_index=False)["cnt"].sum()
        return g.astype({"d": "int64", "cell": "int64", "cnt": "int64"})

    return bucket_aggregate(
        ds,
        merge,
        key=["d", "cell"],
        partial=partial,
    )


def _knuth32(ids: np.ndarray) -> np.ndarray:
    """The stages/sample.py hash: BIGINT-exact Knuth fold to 32 bits."""
    return ((ids.astype(np.int64) % _M31P1) * _KNUTH) % _M32


def _hll_hash(ids: np.ndarray) -> np.ndarray:
    """Knuth -> xor-shift -> Knuth avalanche to 32 bits, BIGINT-exact.

    A single multiplicative round is NOT enough for HLL: on sequential
    keys its leading-zero statistics are lattice-skewed (measured +83%
    estimate error at n=10k, p=8); the xor(h, h >> 16) + second fold
    restores uniformity (err 2-12%, the alpha_m band).  SQL mirror:
    ``xor()`` + ``// 65536`` (non-negative, so // == >>) + the same
    reduced multiply.
    """
    h1 = _knuth32(ids)
    return ((np.bitwise_xor(h1, h1 >> 16) % _M31P1) * _KNUTH) % _M32


def _rho_suffix(y: np.ndarray, suffix_bits: int) -> np.ndarray:
    """HLL rho: leading-zero count of the ``suffix_bits``-bit value plus
    one (``suffix_bits + 1`` when all zero) via exact integer halving —
    the ONE implementation shared by the global and per-group register
    builders (the SQL-pinned contract)."""
    bl = np.zeros(len(y), np.int64)
    tmp = y.copy()
    while tmp.any():
        nz = tmp > 0
        bl[nz] += 1
        tmp >>= 1
    return np.where(y > 0, suffix_bits - bl + 1, suffix_bits + 1)


def hll_registers(ds, key: str = "doc_id", p: int = 8):
    """HyperLogLog register table over a key column: ``2^p`` registers,
    register = low ``p`` hash bits, rho = leading-zero count of the
    remaining ``32-p`` bits plus 1 (``32-p+1`` when they are all zero).
    Returns the OCCUPIED registers ``(bucket, max_rho)`` — the sketch
    state, mergeable by register-wise max; the driver-side estimator
    (:func:`hll_estimate`) turns a register table into a cardinality.

    Per-batch combiner: one row per occupied register (<= 2^p rows per
    batch); one groupby max merges.  Exact integer contract end-to-end.
    """
    m = 1 << p
    suffix_bits = 32 - p

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = _hll_hash(batch[key].to_numpy())
        bucket = h % m
        y = h // m  # the remaining 32-p bits
        rho = _rho_suffix(y, suffix_bits)
        df = pd.DataFrame({"bucket": bucket, "rho": rho})
        g = df.groupby("bucket", as_index=False)["rho"].max()
        return pd.DataFrame(
            {
                "bucket": g["bucket"].astype("int64"),
                "max_rho": g["rho"].astype("int64"),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("bucket", as_index=False)["max_rho"].max()
        return g.astype({"bucket": "int64", "max_rho": "int64"})

    return bucket_aggregate(
        ds, merge, key="bucket", partial=partial
    )


def hll_estimate(registers: pd.DataFrame, p: int = 8) -> float:
    """Standard HLL estimate (with small-range linear counting) from an
    occupied-register table as returned by :func:`hll_registers`.
    Driver-side float math — NOT part of the integer sketch contract;
    pytest pins its accuracy, the gate pins the registers."""
    m = 1 << p
    reg = np.zeros(m, np.int64)
    reg[registers["bucket"].to_numpy()] = registers["max_rho"].to_numpy()
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
        m, 0.7213 / (1 + 1.079 / m)
    )
    est = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    zeros = int((reg == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


# ------------------------------------------------------------- Bloom ----


def bloom_build(ds, text_col: str = "text", m: int = 1 << 17,
                k: int = 4) -> np.ndarray:
    """Build a Bloom filter over the corpus's DISTINCT tokens — the
    bounded membership side-structure for blocklist / decontamination
    pre-filters at scale (the bitset is ``m`` bits regardless of corpus
    size, mergeable by OR).

    Deterministic and SQL-REPLICABLE including false positives: bit
    positions are ``(h1 + i*h2) % m`` for ``i in 0..k-1`` with h1/h2 the
    mod-(2^31-1) polynomial char folds at bases 131/137 (the frozen
    fingerprint contract), so DuckDB computes the identical bit union
    and the identical membership verdicts.

    Scale shape: each batch contributes its distinct SET BIT INDICES
    (<= batch_vocab * k ints, capped by m); one hash-exchange distinct
    aggregation; the driver holds the m-bit array only.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        vocab, _, _, _ = _flat_word_stream(list(batch[text_col]))
        words = [w for w in vocab if w]
        if not words:
            return pd.DataFrame({"bit": pd.array([], dtype="int64")})
        h1 = _poly_word_hashes(words, 131)
        h2 = _poly_word_hashes(words, 137)
        bits = np.unique(
            np.concatenate(
                [(h1 + np.int64(i) * h2) % np.int64(m) for i in range(k)]
            )
        )
        return pd.DataFrame({"bit": pd.array(bits, dtype="int64")})

    uniq = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("bit")
        .count()
        .to_pandas()  # <= m rows by construction
    )
    arr = np.zeros(m, dtype=bool)
    if len(uniq):
        arr[uniq["bit"].to_numpy().astype(np.int64)] = True
    return arr


def bloom_member(ds, bloom_bits: np.ndarray, text_col: str = "text",
                 k: int = 4):
    """Membership test of every distinct token of ``ds`` against a built
    Bloom bitset (broadcast ONCE via ``ray.put``): returns one row per
    distinct (within-partition-deduped, globally grouped) token —
    ``(term, in_bloom)``.  Exact-by-contract: verdicts equal the SQL
    bit-union semantics, false positives included."""
    import ray

    m = len(bloom_bits)
    bref = ray.put(np.packbits(bloom_bits))

    def check(batch: pd.DataFrame) -> pd.DataFrame:
        packed = ray.get(bref)
        vocab, _, _, _ = _flat_word_stream(list(batch[text_col]))
        words = [w for w in vocab if w]
        if not words:
            # must carry the exchange key too — a keyless empty block
            # kills the downstream sort
            return pd.DataFrame(
                {
                    "term": pd.array([], dtype="object"),
                    "in_bloom": pd.array([], dtype="int64"),
                }
            )
        h1 = _poly_word_hashes(words, 131)
        h2 = _poly_word_hashes(words, 137)
        ok = np.ones(len(words), dtype=bool)
        for i in range(k):
            pos = (h1 + np.int64(i) * h2) % np.int64(m)
            ok &= ((packed[pos // 8] >> (7 - pos % 8)) & 1).astype(bool)
        return pd.DataFrame(
            {
                "term": pd.array(words, dtype="object"),
                "in_bloom": pd.array(
                    ok.astype(np.int64), dtype="int64"
                ),
            }
        )

    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates("term")[["term", "in_bloom"]]

    return bucket_aggregate(ds, dedup, key="term", partial=check)


def hll_group_registers(ds, group_col: str = "event_type",
                        key: str = "user_id", p: int = 8):
    """Per-group HyperLogLog register tables — the mergeable approximate
    answer to "distinct users per segment" when the exact dedup shuffle
    (:func:`~searchengines_ray.stages.windows.window_unique_users`) is
    too expensive: each batch contributes at most ``groups_in_batch x
    2^p`` register rows regardless of row count, merges are register-wise
    MAX (order-free), and sketches for any union of groups combine
    without re-reading data.

    Same exact-integer hash/rho contract as :func:`hll_registers` (the
    SQL-pinned avalanche hash); the merge is a group-hash exchange +
    vectorized per-partition pandas max (never a Ray-native fine-key
    groupby).  Returns a Dataset ``(group_col, bucket, max_rho)``.
    """
    m = 1 << p
    suffix_bits = 32 - p

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        h = _hll_hash(batch[key].to_numpy())
        bucket = h % m
        y = h // m
        rho = _rho_suffix(y, suffix_bits)
        df = pd.DataFrame(
            {group_col: batch[group_col], "bucket": bucket, "rho": rho}
        )
        g = df.groupby([group_col, "bucket"], as_index=False)["rho"].max()
        return pd.DataFrame(
            {
                group_col: g[group_col],
                "bucket": g["bucket"].astype("int64"),
                "max_rho": g["rho"].astype("int64"),
            }
        )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby([group_col, "bucket"], as_index=False)[
            "max_rho"
        ].max()
        return g.astype({"bucket": "int64", "max_rho": "int64"})

    return bucket_aggregate(
        ds, merge, key=group_col, partial=partial
    )
