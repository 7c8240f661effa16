"""End-to-end crawl over Ray: seeds -> frontier actors -> fetch -> parse.

The functional-test analog of the reference's docker-compose e2e suite
(reference: tests/functional/arxiv/test_arxiv.py:36-127): run the whole
pipeline on the synthetic corpus and compare against goldens + the
simulator, including the per-row pixel/caption invariant from
BASELINE.json (PSNR >= 40 dB lossy / exact lossless + caption
equality).
"""

import collections
import os
import threading
import types

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
                       width=2)
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
                           width=2, spill_dir=str(tmp_path / "spill"),
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


class TestNothingAdmitted:
    @pytest.mark.parametrize("output", [False, True])
    def test_every_seed_robots_blocked(self, ray_session, corpus, tmp_path,
                                       output):
        """A crawl that admits nothing returns a 0-row records Dataset
        with the records schema, with and without ``output_dir``."""
        from hepcrawl_ray.stages import FetchParseStage

        images, _, seeds, politeness = corpus
        i = politeness.schema.get_field_index("robots_disallow")
        field = politeness.schema.field(i)
        blocked = politeness.set_column(i, field, pa.array(
            [["/"]] * politeness.num_rows, field.type))
        kw = dict(output_dir=str(tmp_path / "out"),
                  checkpoint_dir=str(tmp_path / "ckpt")) if output else {}
        out = cp.run_crawl(images, seeds, blocked, num_partitions=2,
                           width=2, **kw)
        metrics = out["metrics"]
        assert sum(m["dropped_robots"] for m in metrics) > 0
        assert sum(m["admitted_to_queue"] for m in metrics) == 0
        records = out["records"]
        assert records.count() == 0
        assert records.schema().base_schema \
            == FetchParseStage.output_schema(images)
        assert sum(b.num_rows for b in records.iter_batches(
            batch_size=None, batch_format="pyarrow")) == 0


class TestParallelPool:
    def test_pool_width_keeps_row_order(self, ray_session, corpus,
                                        wide_seeds):
        """A salted host's sub-queues tie on (round, host, pop_idx), so
        only the stream's own order makes the output deterministic: a
        1-actor and a 3-actor pool yield the same rows in the same
        order, unsorted."""
        images, _, _, politeness = corpus

        def run(width):
            return _records(cp.run_crawl(
                images, wide_seeds, politeness, num_partitions=3,
                salted_hosts=SALTED, width=width, batch_size=256))

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
        import ray

        images, _, seeds, politeness = corpus
        batch_size = 8
        seen = []
        real = cp._drain_rounds

        def spy(actors, target_rows):
            for chunk in real(actors, target_rows):
                seen.append(chunk[1])
                yield chunk

        monkeypatch.setattr(cp, "_drain_rounds", spy)
        out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                           salted_hosts=SALTED, width=2,
                           batch_size=batch_size)
        blocks = [b for b in ray.get(seen) if b.num_rows]
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


    def test_block_just_over_batch_size_is_one_call(self, ray_session,
                                                    corpus):
        """Drain chunks round up to whole virtual rounds, so blocks come
        a few rows over batch_size: such a block is one ``run.remote``
        call, and a block of 2.6 batches is three near-equal ones."""
        import ray

        from hepcrawl_ray.frontier import ADMIT_SCHEMA

        batch_size = 64
        calls = []
        spy = types.SimpleNamespace(run=types.SimpleNamespace(
            remote=lambda ref, start, n: calls.append((start, n)) or ref))
        blocks = [pa.table({f.name: pa.nulls(n, f.type)
                            for f in ADMIT_SCHEMA}, schema=ADMIT_SCHEMA)
                  for n in (batch_size + 5, 166)]
        adm = cp.admissions_dataset([ray.put(b) for b in blocks],
                                    [(b.num_rows, b.nbytes) for b in blocks])
        records = cp.fetch_and_parse(adm, corpus[0], batch_size=batch_size,
                                     pool=[spy])
        assert calls == [(0, 69), (0, 55), (55, 55), (110, 56)]
        assert records.count() == 69 + 166


class TestOneLoop:
    """run_crawl's one drain->fetch loop serves both output modes."""

    KW = dict(num_partitions=3, salted_hosts=SALTED, width=2)

    def test_output_modes_agree(self, ray_session, corpus, tmp_path,
                                monkeypatch):
        """The same crawl with and without ``output_dir``: the records,
        in block order, equal the chunk files row for row, and the
        manifest lists exactly the slices of the chunks
        ``drain_admissions_chunked`` gives for that input."""
        import ray

        from hepcrawl_ray.pipelines import sink

        images, _, seeds, politeness = corpus
        batch_size = 8
        streamed = _records(cp.run_crawl(images, seeds, politeness,
                                         batch_size=batch_size, **self.KW))
        out = str(tmp_path / "out")
        cp.run_crawl(images, seeds, politeness, batch_size=batch_size,
                     output_dir=out, **self.KW)
        # read_parquet yields its files in order only when asked to
        monkeypatch.setattr(ray.data.DataContext.get_current()
                            .execution_options, "preserve_order", True)
        written = pa.concat_tables(sink.read_output(out).iter_batches(
            batch_size=None, batch_format="pyarrow"))
        assert written.num_rows == streamed.num_rows > 0
        assert written.equals(streamed)

        actors = cp.start_frontier(politeness, 3, SALTED)
        try:
            cp.offer_seeds(actors, seeds, 3, salted_hosts=SALTED)
            ray.get([a.seal.remote() for a in actors])
            adm = cp.drain_admissions_chunked(actors, batch_size)
            blocks = ray.get([ref for bundle in adm.iter_internal_ref_bundles()
                              for ref, _ in bundle.blocks])
        finally:
            cp.release_frontier(actors)
        want, drains, pid, sliced = {}, collections.Counter(), None, 0
        for b in blocks:
            # blocks are partition-major, and a partition's first chunk
            # is never empty: an empty one belongs to the block before
            if b.num_rows:
                pid = b.column("partition")[0].as_py()
            k = max(1, round(b.num_rows / batch_size))
            cuts = [b.num_rows * i // k for i in range(k + 1)]
            for i, (s, e) in enumerate(zip(cuts, cuts[1:])):
                if e > s:
                    want.setdefault(str(pid), {})[
                        f"chunk={drains[pid]:06d}-{i:03d}.parquet"] = e - s
            drains[pid] += 1
            sliced += k > 1
        assert sorted(want) == ["0", "1", "2"]
        assert sliced, "no drain chunk was cut into several slices"
        assert sink.read_manifest(out)["partitions"] == want

    def test_writes_in_flight_are_capped(self, ray_session, corpus,
                                         wide_seeds, tmp_path,
                                         monkeypatch):
        """With ``output_dir``, no drain round starts while more than
        ``WRITES_PER_ACTOR`` writes per pool actor are unfinished, and
        the partitions drain side by side: some partition's first chunk
        comes before partition 0's last."""
        import sys

        import ray

        from hepcrawl_ray.pipelines import sink

        images, _, _, politeness = corpus
        events, order = [], []
        real_wait, real_get, real_rounds = ray.wait, ray.get, \
            cp._drain_rounds

        def wait(refs, *args, **kwargs):
            ready, rest = real_wait(refs, *args, **kwargs)
            if sys._getframe(1).f_code.co_name == "settle":
                # the unfinished writes after a collecting wait, or a
                # wait that blocked on the cap
                events.append(("unfinished", len(rest))
                              if kwargs.get("timeout") == 0
                              else ("capped", len(refs)))
            return ready, rest

        def get(refs, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_drain_rounds":
                events.append(("round", None))
            return real_get(refs, *args, **kwargs)

        def rounds(actors, target_rows):
            for chunk in real_rounds(actors, target_rows):
                order.append(chunk[0])
                yield chunk

        monkeypatch.setattr(ray, "wait", wait)
        monkeypatch.setattr(ray, "get", get)
        monkeypatch.setattr(cp, "_drain_rounds", rounds)
        out = str(tmp_path / "out")
        cp.run_crawl(images, wide_seeds, politeness, batch_size=64,
                     output_dir=out, **self.KW)
        monkeypatch.undo()

        cap = cp.WRITES_PER_ACTOR * self.KW["width"]
        unfinished = 0
        for kind, n in events:
            if kind == "round":
                assert unfinished <= cap
            elif kind == "unfinished":
                unfinished = n
        assert any(kind == "capped" for kind, _ in events), \
            "the writes never reached the cap"
        assert sum(kind == "round" for kind, _ in events) > 2
        first_other = min(i for i, p in enumerate(order) if p != 0)
        assert first_other < max(i for i, p in enumerate(order) if p == 0)
        assert sum(sum(listed.values()) for listed in sink.read_manifest(
            out)["partitions"].values()) == wide_seeds.num_rows


class TestDrainFaults:
    def test_dead_partition_fails_the_chunked_drain(self, ray_session,
                                                    corpus, monkeypatch):
        """A frontier partition killed between two rounds of
        run_crawl's chunked drain: the crawl raises a RayActorError
        within a deadline, hands every actor it took back idle, and
        the next crawl replaces the dead partition and still equals
        the simulator."""
        import sys

        import ray

        images, _, seeds, politeness = corpus
        partitions, rounds = [], []
        real_start, real_get = cp.start_frontier, ray.get

        def start(*args, **kwargs):
            partitions[:] = real_start(*args, **kwargs)
            return partitions

        def get(refs, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_drain_rounds":
                rounds.append(1)
                if len(rounds) == 2:
                    ray.kill(partitions[1])
            return real_get(refs, *args, **kwargs)

        monkeypatch.setattr(cp, "start_frontier", start)
        monkeypatch.setattr(ray, "get", get)
        caught = []

        def crawl():
            try:
                cp.run_crawl(images, seeds, politeness, num_partitions=3,
                             width=2, batch_size=16)
            except Exception as exc:      # noqa: BLE001 - inspected below
                caught.append(exc)

        th = threading.Thread(target=crawl, daemon=True)
        th.start()
        th.join(timeout=60)
        monkeypatch.undo()
        assert not th.is_alive(), "run_crawl hung on a dead partition"
        assert len(rounds) >= 2, "the drain ended before the kill"
        assert len(caught) == 1, "run_crawl ended without an error"
        assert isinstance(caught[0], ray.exceptions.RayActorError), \
            repr(caught[0])

        idle = {h for _, h in cp._WARM._idle}
        assert set(partitions) <= idle
        # the pool that routed the seeds, back idle
        assert sum(c is cp._FetchParseWorker for c, _ in cp._WARM._idle) \
            == 2
        out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                           width=2, batch_size=16)
        table = _records(out).sort_by([("round", "ascending"),
                                       ("host", "ascending"),
                                       ("pop_idx", "ascending")])
        got = list(zip(*(table.column(c).to_pylist()
                         for c in ("round", "host", "url", "seq"))))
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        assert got == [(r, h, u, s) for (r, h, u, s, _p, _m)
                       in ref.admissions]


class TestOfferSeeds:
    """offer_seeds: every seed row reaches the frontier through the
    workers' ``offer``, in ``offer_batch_size`` slices of a table or in the
    row groups of a parquet seed path, and how the rows were cut does
    not change the schedule."""

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

    @staticmethod
    def _sim_order(seeds, politeness):
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        return [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]

    @pytest.mark.parametrize("salted", [None, SALTED])
    def test_offers_deliver_and_order(self, ray_session, corpus, salted):
        """Every seed row is offered, and the schedule equals the
        simulator's (unsalted; it has no salting) or, partition by
        partition, a one-slice offer's (salted)."""
        _, _, seeds, politeness = corpus
        assert seeds.num_rows > 64            # several 64-row slices
        n, metrics, got = self._schedule(seeds, politeness, salted, 64)
        assert n == seeds.num_rows == sum(m["offered"] for m in metrics)
        if salted:
            want = self._schedule(seeds, politeness, salted,
                                  seeds.num_rows)[2]
        else:
            want = self._sim_order(seeds, politeness)
            got = [row[:4] for row in got]
        assert got == want

    @pytest.mark.parametrize("layout", ["file", "dir"])
    def test_parquet_seed_path(self, ray_session, corpus, tmp_path, layout):
        """A parquet seed file, or a directory of them, split into
        several row groups: the workers read them and the schedule
        equals the simulator's."""
        import pyarrow.parquet as pq

        _, _, seeds, politeness = corpus
        if layout == "file":
            path = str(tmp_path / "seeds.parquet")
            pq.write_table(seeds, path, row_group_size=50)
        else:
            path = str(tmp_path / "seeds")
            os.makedirs(path)
            step = -(-seeds.num_rows // 3)
            for i in range(3):
                pq.write_table(seeds.slice(i * step, step),
                               os.path.join(path, f"part-{i}.parquet"),
                               row_group_size=40)
        n, metrics, got = self._schedule(path, politeness, None, 64)
        assert n == seeds.num_rows == sum(m["offered"] for m in metrics)
        assert [row[:4] for row in got] == self._sim_order(seeds, politeness)

    def test_seed_directory_without_parquet_files_is_rejected(
            self, tmp_path):
        (tmp_path / "part=0").mkdir()        # nested files are not read
        with pytest.raises(ValueError, match="no parquet seed files"):
            cp.offer_seeds([], str(tmp_path), 2)

    def test_dead_partition_fails_the_offer(self, ray_session, corpus):
        """A frontier partition killed before the offer: offer_seeds
        raises a RayActorError within a deadline instead of hanging,
        the workers it acquired go back idle, and the next crawl runs
        on them and still equals the simulator."""
        import ray

        images, _, seeds, politeness = corpus
        actors = cp.start_frontier(politeness.to_pylist(), 3)
        ray.kill(actors[1])
        caught = []

        def offer():
            try:
                cp.offer_seeds(actors, seeds, 3, offer_batch_size=64)
            except Exception as exc:      # noqa: BLE001 - inspected below
                caught.append((type(exc), type(getattr(exc, "cause", None))))

        th = threading.Thread(target=offer, daemon=True)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive(), "offer_seeds hung on a dead partition"
        assert len(caught) == 1, "the offer ended without an error"
        assert any(issubclass(t, ray.exceptions.RayActorError)
                   for t in caught[0]), caught[0]
        for a in actors:
            ray.kill(a)

        def idle_workers():
            return {h for c, h in cp._WARM._idle
                    if c is cp._FetchParseWorker}

        workers = idle_workers()
        assert len(workers) == cp.N_DISCOVER_WORKERS
        out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                           width=2)
        # its pool of 2 was taken from them
        assert len(idle_workers()) == 2 and idle_workers() <= workers
        table = _records(out).sort_by([("round", "ascending"),
                                       ("host", "ascending"),
                                       ("pop_idx", "ascending")])
        got = list(zip(*(table.column(c).to_pylist()
                         for c in ("round", "host", "url", "seq"))))
        assert got == self._sim_order(seeds, politeness)
