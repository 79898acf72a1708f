"""Training-data pipeline operators (public surface).

Every operator takes a Ray ``Dataset`` and returns a ``Dataset`` (or a
small pandas result for pair lists) — see each module for the scale
design notes.
"""

from .dedup import (  # noqa: F401
    allpairs_jaccard_ds,
    dedup_drop_ids,
    exact_dedup,
    embedding_neardup_pairs,
    line_dedup,
    minhash_candidate_pairs_ds,
    minhash_dedup_pairs,
    minhash_dedup_pairs_ds,
    minhash_dedup_survivors,
    minhash_cross_pairs_ds,
    minhash_verify_pairs_ds,
    ngram_jaccard,
    simhash_dup_pairs,
)
from .graph import (  # noqa: F401
    connected_components,
    nonroot_ids,
    pagerank,
    triangle_count,
)
from .joins import (  # noqa: F401
    asof_join,
    broadcast_join,
    hash_equijoin,
    interval_join,
)
from .multimodal import (  # noqa: F401
    decode_images,
    resize_images,
    sample_frames,
)
from .similarity import (  # noqa: F401
    IVFIndex,
    cosine_similarity_join,
    cosine_topk,
    label_centroids,
    quantize_embeddings,
)
from .rank import (  # noqa: F401
    grouped_quantiles,
    grouped_topk,
    ranking_eval,
)
from .sample import (  # noqa: F401
    consistent_sample,
    hash_sample,
    hash_split,
    sample_mask,
    stratified_sample,
    weighted_sample,
)
from .sketch import cms_counts, hll_estimate, hll_registers  # noqa: F401
from .text import (  # noqa: F401
    fingerprints,
    lang_id,
    cooccurrence_counts,
    next_word_topk,
    ngram_counts,
    normalize_text,
    pmi_collocations,
    pii_redact,
    quality_scores,
    repeated_spans,
    repetition_signals,
    spell_correct,
    tfidf_keywords,
    token_counts,
    unigram_lm_scores,
)
from .windows import (  # noqa: F401
    cohort_retention,
    event_transitions,
    rolling_user_agg,
    window_unique_users,
    funnel_stages,
    hopping_window_agg,
    sessionize,
    tumbling_window_agg,
)
