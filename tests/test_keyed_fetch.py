"""KeyedFetchStage: stored-corpus keyed lookup == broadcast FetchStage.

The scale contract (VERDICT r2 item 5): fetch actors must hold
O(manifest + a few row groups), never the corpus.  Pinned here via
``max_resident_rows`` under key-clustered batches, plus exact output
equivalence with the broadcast path (including misses, empty batches,
multi-file corpora) and an e2e crawl driven by a corpus PATH.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from hepcrawl_ray import synth
from hepcrawl_ray.stages import FetchStage, KeyedFetchStage

ROW_GROUP = 64


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    images, _ = synth.generate_corpus(500, size_range=(16, 24))
    seeds = synth.generate_seeds(images)
    d = tmp_path_factory.mktemp("keyed_corpus")
    path = str(d / "images.parquet")
    pq.write_table(images, path, row_group_size=ROW_GROUP)
    return images, seeds, path


def _batch(urls):
    return pa.table({"url": pa.array(urls, pa.string()),
                     "seq": pa.array(range(len(urls)), pa.int64())})


class TestKeyedFetchStage:
    def test_clustered_batch_equivalence_and_residency(self, ray_session,
                                                       corpus):
        import ray

        images, seeds, path = corpus
        small = FetchStage(ray.put(images))
        keyed = KeyedFetchStage(path, cache_rowgroups=2)
        urls = seeds.column("url").to_pylist()
        # seeds are generated in corpus order -> consecutive slices are
        # key-clustered, the shape admission streams actually have
        for lo in (0, 100, 200):
            b = _batch(urls[lo:lo + 80])
            assert small(b).equals(keyed(b))
        # O(batch): never more than one batch's groups + the LRU cache
        assert keyed.max_resident_rows <= 4 * ROW_GROUP
        assert keyed.max_resident_rows < images.num_rows

    def test_misses_and_empty(self, ray_session, corpus):
        import ray

        images, _, path = corpus
        small = FetchStage(ray.put(images))
        keyed = KeyedFetchStage(path)
        miss = _batch(["http://h/x/zz_absent_1", "http://h/x/zz_absent_2"])
        assert small(miss).equals(keyed(miss))
        empty = _batch([])
        assert small(empty).equals(keyed(empty))

    def test_mixed_hit_miss_scattered(self, ray_session, corpus):
        import ray

        images, seeds, path = corpus
        small = FetchStage(ray.put(images))
        keyed = KeyedFetchStage(path, cache_rowgroups=3)
        urls = seeds.column("url").to_pylist()
        rng = np.random.default_rng(7)
        pick = [urls[i] for i in rng.choice(len(urls), 60, replace=False)]
        pick.insert(5, "http://h/x/zz_absent")
        b = _batch(pick)
        assert small(b).equals(keyed(b))

    def test_multi_file_corpus(self, ray_session, corpus, tmp_path):
        import ray

        images, seeds, _ = corpus
        half = images.num_rows // 2
        d = tmp_path / "multi"
        d.mkdir()
        pq.write_table(images.slice(0, half), str(d / "a.parquet"),
                       row_group_size=ROW_GROUP)
        pq.write_table(images.slice(half), str(d / "b.parquet"),
                       row_group_size=ROW_GROUP)
        small = FetchStage(ray.put(images))
        keyed = KeyedFetchStage(str(d))
        urls = seeds.column("url").to_pylist()
        b = _batch(urls[half - 40:half + 40])  # straddles the file split
        assert small(b).equals(keyed(b))

    def test_selection_cost_independent_of_manifest_size(self, tmp_path):
        """VERDICT r3 item 1: ≥10^4 row groups, per-batch candidate
        checks track the batch's key spread — NOT the manifest size."""
        n, g_rows = 20_000, 2          # -> 10_000 row groups
        ids = [f"img{i:08d}" for i in range(n)]
        tbl = pa.table({
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array([b"x"] * n, pa.binary()),
            "w": pa.array(np.full(n, 4, np.int32)),
            "h": pa.array(np.full(n, 4, np.int32)),
            "fmt": pa.array(["png"] * n, pa.string()),
            "caption": pa.array(["c"] * n, pa.string()),
            "phash": pa.array(np.arange(n, dtype=np.int64)),
        })
        p = str(tmp_path / "many_groups.parquet")
        pq.write_table(tbl, p, row_group_size=g_rows)
        keyed = KeyedFetchStage(p, cache_rowgroups=4)
        assert len(keyed.rg_loc) == n // g_rows

        # clustered batch: 64 consecutive keys -> ~32 groups examined
        b = _batch([f"http://h/s/{i}" for i in ids[5000:5064]])
        out = keyed(b)
        assert out.column("fetch_error").null_count == 64
        assert keyed.last_candidates_checked <= 64
        assert keyed.max_resident_rows <= 64 + 4 * g_rows

        # scattered batch: 64 keys spread over the whole key space ->
        # candidates bounded by key count, not the 10^4 manifest
        rng = np.random.default_rng(3)
        pick = sorted(rng.choice(n, 64, replace=False).tolist())
        b2 = _batch([f"http://h/s/{ids[i]}" for i in pick])
        out2 = keyed(b2)
        assert out2.column("fetch_error").null_count == 64
        assert keyed.last_candidates_checked <= 3 * 64
        assert keyed.last_candidates_checked < len(keyed.rg_loc) // 10

        # misses between groups select nothing
        miss = _batch(["http://h/s/img00000010x", "http://h/s/zzz"])
        outm = keyed(miss)
        assert outm.column("fetch_error").null_count == 0

    def test_overlapping_file_ranges(self, tmp_path):
        """Interleaved key ranges across files (cmax sweep): every key
        still resolves, groups from BOTH files are consulted."""
        a = [f"k{i:05d}" for i in range(0, 400, 2)]       # evens
        b = [f"k{i:05d}" for i in range(1, 400, 2)]       # odds

        def tab(ids):
            m = len(ids)
            return pa.table({
                "image_id": pa.array(ids), "bytes": pa.array([b""] * m, pa.binary()),
                "w": pa.array(np.full(m, 4, np.int32)),
                "h": pa.array(np.full(m, 4, np.int32)),
                "fmt": pa.array(["png"] * m), "caption": pa.array(["c"] * m),
                "phash": pa.array(np.arange(m, dtype=np.int64)),
            })
        d = tmp_path / "overlap"
        d.mkdir()
        pq.write_table(tab(a), str(d / "a.parquet"), row_group_size=16)
        pq.write_table(tab(b), str(d / "b.parquet"), row_group_size=16)
        keyed = KeyedFetchStage(str(d))
        want = [f"k{i:05d}" for i in range(100, 140)]     # mixed parity
        out = keyed(_batch([f"http://h/s/{k}" for k in want]))
        assert out.column("fetch_error").null_count == len(want)
        assert out.column("image_id").to_pylist() == want

    def test_missing_stats_rejected(self, tmp_path):
        images, _ = synth.generate_corpus(50, size_range=(16, 20))
        p = str(tmp_path / "nostats.parquet")
        pq.write_table(images, p, write_statistics=False)
        with pytest.raises(ValueError, match="statistics"):
            KeyedFetchStage(p)


class TestCrawlWithStoredCorpus:
    def test_run_crawl_path_equals_table(self, ray_session, corpus):
        from hepcrawl_ray.pipelines import crawl as cp

        images, seeds, path = corpus
        politeness = synth.generate_politeness()

        def run(img):
            out = cp.run_crawl(img, seeds, politeness, num_partitions=3,
                               width=2, batch_size=128)
            t = pa.concat_tables(out["records"].iter_batches(
                batch_size=10_000, batch_format="pyarrow"))
            return t.sort_by("seq")

        a = run(images)
        b = run(path)
        assert a.equals(b)
