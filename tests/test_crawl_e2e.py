"""End-to-end crawl over Ray: seeds -> frontier actors -> fetch -> parse.

The functional-test analog of the reference's docker-compose e2e suite
(reference: tests/functional/arxiv/test_arxiv.py:36-127): run the whole
pipeline on the synthetic corpus and compare against goldens + the
simulator, including the per-row pixel/caption invariant from
BASELINE.json (PSNR >= 40 dB lossy / exact lossless + caption
equality).
"""

import collections

import numpy as np
import pyarrow as pa
import pytest

from hepcrawl_ray import codecs, synth
from hepcrawl_ray.pipelines import crawl as cp
from hepcrawl_ray.sim import simulate


@pytest.fixture(scope="module")
def corpus():
    images, golden = synth.generate_corpus(120)
    seeds = synth.generate_seeds(images)
    politeness = synth.generate_politeness()
    return images, golden, seeds, politeness


@pytest.fixture(scope="module")
def crawl_result(ray_session, corpus, tmp_path_factory):
    images, golden, seeds, politeness = corpus
    out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                       output_dir=str(tmp_path_factory.mktemp("crawl_out")),
                       fetch_concurrency=2, parse_concurrency=2)
    table = pa.concat_tables(
        out["records"].iter_batches(batch_size=10_000, batch_format="pyarrow"))
    return out, table


class TestEndToEnd:
    def test_row_count_matches_sim(self, crawl_result, corpus):
        _, table = crawl_result
        images, _, seeds, politeness = corpus
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        assert table.num_rows == len(ref.admissions)

    def test_admission_order_matches_sim(self, crawl_result, corpus):
        _, table = crawl_result
        images, _, seeds, politeness = corpus
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        ordered = table.sort_by([("round", "ascending"), ("host", "ascending"),
                                 ("pop_idx", "ascending")])
        got = list(zip(ordered.column("round").to_pylist(),
                       ordered.column("host").to_pylist(),
                       ordered.column("url").to_pylist(),
                       ordered.column("seq").to_pylist()))
        want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
        assert got == want

    def test_pixel_and_caption_invariant(self, crawl_result, corpus):
        """BASELINE.json per-row invariant: decoded pixels vs the corpus
        (exact for png, PSNR >= 40 dB for lossy) + exact caption."""
        _, table = crawl_result
        images, _, _, _ = corpus
        src = {r["image_id"]: r for r in images.to_pylist()}
        rows = table.to_pylist()
        checked = 0
        for r in rows:
            if r["fetch_error"] is not None:
                continue
            ref_row = src[r["image_id"]]
            assert r["caption"] == ref_row["caption"]
            got_px = codecs.decode(r["bytes"], r["fmt"])
            ref_px = codecs.decode(ref_row["bytes"], ref_row["fmt"])
            if r["fmt"] == "png":
                assert (got_px == ref_px).all()
            else:
                assert codecs.psnr(got_px, ref_px) >= 40.0
            assert r["pixels_verified"]
            checked += 1
        assert checked > 50

    def test_parse_matches_golden(self, crawl_result, corpus):
        _, table = crawl_result
        _, golden, _, _ = corpus
        gold = {r["image_id"]: r for r in golden.to_pylist()}
        fields = ("title", "abstract", "authors", "collaborations", "dois",
                  "date_published", "document_type")
        n_err = 0
        for r in table.to_pylist():
            if r["fetch_error"] is not None:
                continue
            g = gold[r["image_id"]]
            if g["error"] is not None:
                assert r["error"] == g["error"]
                n_err += 1
            else:
                assert r["error"] is None
                for f in fields:
                    assert r[f] == g[f], (f, r["image_id"])
        # malformed captions flowed through as error rows, not exceptions

    def test_metrics_lineage(self, crawl_result, corpus):
        out, table = crawl_result
        images, _, seeds, politeness = corpus
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        m = out["metrics"]
        assert sum(x["dropped_robots"] for x in m) == ref.dropped_robots
        assert sum(x["dropped_dup"] for x in m) == ref.dropped_dup
        assert sum(x["drained"] for x in m) == len(ref.admissions)
        assert out["offered"] == seeds.num_rows


class TestResumeThroughRay:
    def test_spill_through_actor_pool_matches_sim(self, ray_session,
                                                  corpus, tmp_path):
        """run_crawl with the cold-tail spill active (tiny cap so the
        hot host spills through the Ray actor path) produces the exact
        simulator admission schedule, and the partitions report spill
        activity in their metrics."""
        images, _, seeds, politeness = corpus
        out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                           fetch_concurrency=2, parse_concurrency=2,
                           spill_dir=str(tmp_path / "spill"),
                           spill_threshold_rows=32)
        table = pa.concat_tables(out["records"].iter_batches(
            batch_size=10_000, batch_format="pyarrow"))
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        ordered = table.sort_by([("round", "ascending"),
                                 ("host", "ascending"),
                                 ("pop_idx", "ascending")])
        got = list(zip(ordered.column("round").to_pylist(),
                       ordered.column("host").to_pylist(),
                       ordered.column("url").to_pylist(),
                       ordered.column("seq").to_pylist()))
        want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
        assert got == want
        assert sum(m["spilled_rows"] for m in out["metrics"]) > 0

    def test_checkpoint_restore_actor_pool(self, ray_session, corpus, tmp_path):
        import ray

        images, _, seeds, politeness = corpus
        pol_rows = politeness.to_pylist()
        # run 1: offer, seal, drain 2 rounds, checkpoint, kill
        actors = cp.start_frontier(pol_rows, num_partitions=2)
        cp.offer_seeds(actors, seeds, 2)
        ray.get([a.seal.remote() for a in actors])
        part1 = ray.get([a.drain.remote(2) for a in actors])
        ray.get([a.checkpoint.remote(str(tmp_path)) for a in actors])
        for a in actors:
            ray.kill(a)
        # run 2: restore and finish
        actors = cp.restore_frontier(str(tmp_path), 2)
        part2 = ray.get([a.drain.remote(None) for a in actors])
        resumed = pa.concat_tables(part1 + part2)
        for a in actors:
            ray.kill(a)
        # uninterrupted reference run
        actors = cp.start_frontier(pol_rows, num_partitions=2)
        cp.offer_seeds(actors, seeds, 2)
        ray.get([a.seal.remote() for a in actors])
        full = pa.concat_tables(ray.get([a.drain.remote(None) for a in actors]))
        for a in actors:
            ray.kill(a)
        key = [("round", "ascending"), ("host", "ascending"),
               ("pop_idx", "ascending")]
        assert resumed.sort_by(key).equals(full.sort_by(key))


SALTED = {"host0.example.org": 2}   # the fixture's hot host


@pytest.fixture(scope="module")
def wide_seeds(corpus):
    """6,000 distinct URLs over the corpus images, half on the hot host:
    enough fetch+parse work (seconds) that a 3-actor pool really runs
    blocks side by side."""
    images = corpus[0]
    ids = images.column("image_id").to_pylist()
    n = 6000
    rng = np.random.default_rng(7)
    hosts = np.where(rng.random(n) < 0.5, 0, rng.integers(1, 6, n))
    return pa.table({
        "url": [f"http://host{h}.example.org/set{i % 3}/r{i}/"
                f"{ids[i % len(ids)]}" for i, h in enumerate(hosts)],
        "host": [f"host{h}.example.org" for h in hosts],
        "set_id": [f"set{i % 3}" for i in range(n)],
        "priority": np.zeros(n),
        "seq": np.arange(n, dtype=np.int64),
        "mtime": np.full(n, 1000, dtype=np.int64),
        "dup_of": pa.nulls(n, pa.string()),
    }, schema=synth.SEEDS_SCHEMA)


def _records(out):
    return pa.concat_tables(out["records"].iter_batches(
        batch_size=None, batch_format="pyarrow"))


class TestParallelPool:
    def test_pool_width_keeps_row_order(self, ray_session, corpus,
                                        wide_seeds, monkeypatch):
        """A salted host's sub-queues tie on (round, host, pop_idx), so
        only the stream's own order makes the output deterministic: a
        1-actor and a 3-actor pool yield the same rows in the same
        order, unsorted."""
        import ray.data

        images, _, _, politeness = corpus
        # start every actor before the first task, so the 3-wide pool
        # really runs blocks side by side instead of the first ready
        # actor taking them all
        monkeypatch.setattr(ray.data.DataContext.get_current(),
                            "wait_for_min_actors_s", 120)

        def run(width):
            return _records(cp.run_crawl(
                images, wide_seeds, politeness, num_partitions=3,
                salted_hosts=SALTED, fetch_concurrency=width,
                parse_concurrency=width, batch_size=256))

        one, three = run(1), run(3)
        assert one.num_rows == three.num_rows == wide_seeds.num_rows
        assert one.equals(three)

    def test_admissions_reach_pool_in_batch_sized_blocks(
            self, ray_session, corpus, monkeypatch):
        """run_crawl drains in chunks of the pool's batch_size: several
        blocks per partition, none over batch_size plus drain_chunk's
        slack (it rounds the row target up to whole virtual rounds, so
        a chunk can overshoot by at most one round of every queue's
        share, bounded here by the sum of all hosts' budgets)."""
        images, _, seeds, politeness = corpus
        batch_size = 8
        seen = []
        real = cp.fetch_and_parse

        def spy(admissions, *args, **kwargs):
            seen.append(admissions)
            return real(admissions, *args, **kwargs)

        monkeypatch.setattr(cp, "fetch_and_parse", spy)
        out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                           salted_hosts=SALTED, fetch_concurrency=2,
                           parse_concurrency=2, batch_size=batch_size)
        blocks = [b for b in seen[0].iter_batches(batch_size=None,
                                                  batch_format="pyarrow")
                  if b.num_rows]
        slack = sum(politeness.column("max_concurrency").to_pylist())
        per_part = collections.Counter()
        for b in blocks:
            parts = set(b.column("partition").to_pylist())
            assert len(parts) == 1            # a block is one drain chunk
            per_part[parts.pop()] += 1
            assert b.num_rows <= batch_size + slack
        assert sorted(per_part) == [0, 1, 2]
        assert min(per_part.values()) > 1
        assert _records(out).num_rows == sum(b.num_rows for b in blocks)


class TestOfferSeedsDataset:
    """offer_seeds' Dataset path: a seed table above one offer batch is
    canonicalized and routed in map tasks whose offers are
    fire-and-forget, and the driver polls ``buffered_rows``."""

    @staticmethod
    def _schedule(seeds, politeness, salted, offer_batch_size):
        import ray

        actors = cp.start_frontier(politeness.to_pylist(), 3, salted)
        n = cp.offer_seeds(actors, seeds, 3, salted_hosts=salted,
                           offer_batch_size=offer_batch_size)
        ray.get([a.seal.remote() for a in actors])
        adm = cp.drain_admissions_chunked(actors, seal=False)
        metrics = ray.get([a.get_metrics.remote() for a in actors])
        for a in actors:
            ray.kill(a)
        # url breaks the (round, host, pop_idx) ties of a salted host
        t = pa.concat_tables(adm.iter_batches(
            batch_size=None, batch_format="pyarrow")).sort_by(
            [("round", "ascending"), ("host", "ascending"),
             ("pop_idx", "ascending"), ("url", "ascending")])
        order = list(zip(*(t.column(c).to_pylist() for c in
                           ("round", "host", "url", "seq", "partition"))))
        return n, metrics, order

    @pytest.mark.parametrize("salted", [None, SALTED])
    def test_dataset_path_delivers_and_orders(self, ray_session, corpus,
                                              salted):
        """Every seed row is offered, and the schedule equals the
        simulator's (unsalted; it has no salting) or, partition by
        partition, the driver-side offer path's (salted)."""
        _, _, seeds, politeness = corpus
        assert seeds.num_rows > 64            # several 64-row batches
        n, metrics, got = self._schedule(seeds, politeness, salted, 64)
        assert n == seeds.num_rows == sum(m["offered"] for m in metrics)
        if salted:
            want = self._schedule(seeds, politeness, salted,
                                  seeds.num_rows)[2]
        else:
            ref = simulate(seeds.to_pylist(), politeness.to_pylist())
            want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
            got = [row[:4] for row in got]
        assert got == want
