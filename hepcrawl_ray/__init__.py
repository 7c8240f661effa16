"""hepcrawl_ray — a Ray-Data-native URL-frontier + fetch-scheduler engine.

A from-scratch reimplementation of the *capabilities* of
inspirehep/hepcrawl (a Scrapy-based harvesting service) on Ray Data:

- corpus enumeration → seed frontier ``ray.data.Dataset``
- canonicalized-URL 64-bit hashing (``urlkit``)
- a sorted-run URL-seen set (``state``), replacing the reference's
  crawl-once sqlite DB (reference: hepcrawl/middlewares.py:58-210)
- per-host priority-heap frontier actors with token-bucket politeness
  and robots caches (``frontier``), replacing Scrapy's scheduler +
  politeness settings (reference: hepcrawl/settings.py:50-60)
- fetch / expand / parse stages as ``map_batches`` actor pools over
  zero-copy Arrow batches (``stages``, ``caption``)
- per-partition checkpoint + exact resume (``state.checkpoint``),
  replacing the last-run JSON store
  (reference: hepcrawl/spiders/common/lastrunstore_spider.py:53-126)

Nothing here is a port: the reference is single-process Twisted; this
engine is a partitioned actor pool driven by Ray Data pipelines and is
designed for 10^10-URL frontiers on multi-node clusters.
"""

__version__ = "0.1.0"
