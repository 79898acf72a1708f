"""searchengines_ray — a Ray-Data-native inverted-index build + query engine.

A from-scratch reimplementation of the capabilities of the reference engine
(`patrickhuang112/SearchEngines`, CMU 11-642 QryEval) on Ray Data:

- distributed SPIMI index build over Parquet web pages
  (:mod:`searchengines_ray.index.build`),
- BM25 / Indri / Boolean retrieval with the structured query language
  ``#AND #OR #SUM #WAND #WSUM #SYN #NEAR/n #WINDOW/n`` and ``term.field``
  (:mod:`searchengines_ray.parser`, :mod:`searchengines_ray.query`),
- pseudo-relevance feedback, learning-to-rank features, diversification
  (:mod:`searchengines_ray.pipelines`),
- large-scale training-data operators: dedup (exact / MinHash-LSH / SimHash /
  n-gram Jaccard / embedding), similarity search, text analysis, and real
  PNG/BMP/WAV/AVI decode stages (:mod:`searchengines_ray.stages`).

Nothing here calls ``ray.init()``; sessions are owned by the caller
(tests' conftest, ``perfbench/run.py``, CLIs).
"""

__version__ = "0.1.0"

