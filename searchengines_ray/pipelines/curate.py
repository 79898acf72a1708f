"""End-to-end training-data curation: the 100-TB composition showcase.

``curate_corpus`` chains the engine's data-pipeline stages into ONE
streaming flow over a documents table:

    language filter + quality filter (fused single text pass)
      -> MinHash-LSH near-duplicate removal (distributed verification)
      -> resumable hash-partitioned parquet output

Scale posture:
- The fused feature pass reads each doc's text ONCE (at 100 TB a second
  scan costs more than fusing lang-id + quality counting).
- The filtered corpus is materialized in the OBJECT STORE (spillable),
  never on the driver; it feeds the dedup candidate scan, the shingle
  verification scan, and the final filter.
- The verified pair list stays a DATASET end-to-end (LSH -> distributed
  verification -> distributed min-label-propagation connected components);
  the only driver-side state is the candidate-doc-bounded drop array
  (component non-roots, broadcast once via ``ray.put``) — never the pair
  graph, which is super-linear in corpus size on boilerplate-heavy data.
- Output buckets are committed like index segments: tmp dir + atomic
  rename with a MANIFEST marker, so a re-run SKIPS finished buckets
  (partition-level resume; idempotent because the curated set and the
  ``bucket_of(doc_id, partitions)`` assignment are deterministic).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from ..stages.dedup import dedup_drop_ids, minhash_dedup_pairs_ds
from ..stages.exchange import bucket_aggregate, bucket_of
from ..stages.text import LangId


class CurationFeatures:
    """Fused lang-id + quality filter: emits the (doc_id, text) rows that
    pass ``lang_pred == lang`` and ``n_words >= min_words``.

    n_words comes from one vectorized regex count (the same ``[0-9a-z]+``
    token class LangId uses) — the full QualityScorer would re-tokenize
    and run per-token Python work for features this filter discards."""

    def __init__(self, lang: str = "en", min_words: int = 25):
        from ..stages.text import _WORD

        self.lang_id = LangId()
        self.word = _WORD
        self.lang = lang
        self.min_words = min_words

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        li = self.lang_id(batch)
        n_words = (
            batch["text"].fillna("").str.lower().str.count(self.word)
        )
        keep = (li["lang_pred"].to_numpy() == self.lang) & (
            n_words.to_numpy() >= self.min_words
        )
        return batch.loc[keep, ["doc_id", "text"]]


def curate_corpus(
    docs_ds,
    lang: str = "en",
    min_words: int = 25,
    minhash_threshold: float = 0.5,
    out_dir: str | None = None,
    partitions: int = 16,
):
    """Returns ``(curated_dataset, stats)``; writes resumable partitioned
    parquet when ``out_dir`` is given."""
    import ray

    filtered = docs_ds.map_batches(
        CurationFeatures(lang=lang, min_words=min_words),
        batch_format="pandas",
    ).materialize()  # object-store resident; feeds three downstream scans

    pairs = minhash_dedup_pairs_ds(filtered, threshold=minhash_threshold)
    drop = dedup_drop_ids(pairs)  # distributed connected components
    dref = ray.put(drop)

    def keep_rows(batch: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(dref)
        docs = batch["doc_id"].to_numpy().astype(np.int64)
        return batch.loc[~np.isin(docs, d)]

    curated = filtered.map_batches(keep_rows, batch_format="pandas")
    stats = {
        "n_dup_pairs": int(pairs.count()),
        "n_dropped": int(len(drop)),
    }
    if out_dir is None:
        return curated, stats

    def write_bucket(b: int, group: pd.DataFrame) -> tuple:
        import pyarrow as pa
        import pyarrow.parquet as pq

        dest = os.path.join(out_dir, f"bucket={b}")
        if os.path.exists(os.path.join(dest, "MANIFEST.json")):
            return b, len(group), True
        # tmp lives OUTSIDE the bucket= namespace so partition-globbing
        # readers never see partial output; orphans are swept on entry
        tmp = os.path.join(out_dir, f".tmp-bucket-{b}-{os.getpid()}")
        os.makedirs(tmp, exist_ok=True)
        g = group.sort_values("doc_id")
        pq.write_table(
            pa.Table.from_pandas(g, preserve_index=False),
            os.path.join(tmp, "part.parquet"),
        )
        with open(os.path.join(tmp, "MANIFEST.json"), "w") as f:
            json.dump({"bucket": b, "n_docs": len(g)}, f)
        try:
            os.rename(tmp, dest)
        except OSError:  # a retried task already committed this bucket
            import shutil

            shutil.rmtree(tmp, ignore_errors=True)
        return b, len(g), False

    def hive_bucket(rows) -> np.ndarray:
        return bucket_of(rows["doc_id"], partitions)

    def write_buckets(rows: pd.DataFrame) -> pd.DataFrame:
        hb = hive_bucket(rows)
        return pd.DataFrame(
            [write_bucket(int(b), rows[hb == b]) for b in np.unique(hb)],
            columns=["bucket", "n_docs", "resumed"],
        )

    os.makedirs(out_dir, exist_ok=True)
    # sweep crash-orphaned tmp dirs from a previous failed run
    import shutil as _shutil

    for d in os.listdir(out_dir):
        if d.startswith(".tmp-bucket-"):
            _shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)
    # keyed on the hive bucket, so each bucket's docs meet in one reducer
    manifests = bucket_aggregate(
        curated, write_buckets, key=hive_bucket
    ).to_pandas()
    if manifests.empty:  # empty curated set: zero buckets, stable stats
        stats.update(n_docs=0, n_buckets=0, resumed_buckets=0)
        return curated, stats
    stats["n_docs"] = int(manifests["n_docs"].sum())
    stats["n_buckets"] = int(len(manifests))
    stats["resumed_buckets"] = int(manifests["resumed"].sum())
    return curated, stats
