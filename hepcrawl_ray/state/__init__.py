"""Distributed crawl state: the URL-seen set, filters and checkpoints.

Replaces the reference's crawl-once sqlite DB
(reference: hepcrawl/middlewares.py:58-210) and last-run JSON store
(reference: hepcrawl/spiders/common/lastrunstore_spider.py:53-126) with
per-partition, serializable, numpy-backed structures: the seen set is
sorted int64 key/timestamp runs (``SeenSet``); the Bloom filter serves
the anti-join's broadcast prefilter.
"""

from hepcrawl_ray.state.bloom import BloomFilter
from hepcrawl_ray.state.seen import SeenSet

__all__ = ["BloomFilter", "SeenSet"]
