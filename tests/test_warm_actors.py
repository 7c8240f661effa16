"""Crawl actors outlive a crawl: the next crawl in the same Ray session
resets and reuses the frontier partitions and workers the last one
released (pipelines.crawl._WarmActors).  A reused actor must
behave exactly like a new one, and idle actors must never starve
later work."""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pyarrow as pa
import pytest

from hepcrawl_ray import synth
from hepcrawl_ray.frontier import FrontierPartition, canonicalize_batch
from hepcrawl_ray.pipelines import crawl as cp
from hepcrawl_ray.sim import simulate, simulate_iterative

ORDER = [("round", "ascending"), ("host", "ascending"),
         ("pop_idx", "ascending")]


@pytest.fixture(scope="module")
def corpus():
    images, _ = synth.generate_corpus(120)
    seeds = synth.generate_seeds(images)
    politeness = synth.generate_politeness()
    return images, seeds, politeness


def _slow_politeness(politeness):
    """A second budget table: one URL per host every 3 rounds, and a
    second robots rule."""
    n = politeness.num_rows
    return pa.table({
        "host": politeness.column("host"),
        "max_concurrency": [1] * n,
        "min_delay_ms": [250] * n,
        "robots_disallow": [["/private/", "/set1/"]] * n,
    }, schema=synth.POLITENESS_SCHEMA)


def _live_actors():
    """(class, CPU) of every live actor of the session, from the GCS
    actor table (``ray.util.state.list_actors`` needs the dashboard,
    which the test session does not start)."""
    from ray._private.state import state
    from ray.core.generated import gcs_pb2

    rows = [gcs_pb2.ActorTableData.FromString(raw)
            for raw in state.global_state_accessor.get_actor_table(
                None, "ALIVE")]
    return sorted((a.class_name, a.required_resources.get("CPU", 0.0))
                  for a in rows)


def _order(table):
    t = table.sort_by(ORDER)
    return list(zip(*(t.column(c).to_pylist()
                      for c in ("round", "host", "url", "seq"))))


def _reconcile(metrics, n_offered, n_out):
    for m in metrics:
        assert m["offered"] == (m["dropped_robots"] + m["dropped_dup"]
                                + m["admitted_to_queue"])
    assert sum(m["offered"] for m in metrics) == n_offered
    assert sum(m["admitted_to_queue"] for m in metrics) \
        == sum(m["drained"] for m in metrics) == n_out


@pytest.fixture
def frontier_spy(monkeypatch):
    """Records the actor handles each start_frontier call returns."""
    calls = []
    real = cp.start_frontier

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cp, "start_frontier", spy)
    return calls


def _crawl(images, seeds, politeness, **kw):
    out = cp.run_crawl(images, seeds, politeness, width=2, **kw)
    table = pa.concat_tables(out["records"].iter_batches(
        batch_size=None, batch_format="pyarrow"))
    return out, table


class TestReuse:
    def test_back_to_back_crawls_are_fresh(self, ray_session, corpus,
                                           frontier_spy):
        """Crawls with a different partition count, politeness and
        salting, one after another, each give the schedule of new
        actors: the simulator's (unsalted) and counters starting at 0
        that reconcile with the records."""
        images, seeds, politeness = corpus
        slow = _slow_politeness(politeness)
        runs = [(3, politeness, None), (2, slow, {"host0.example.org": 2}),
                (4, slow, None), (3, politeness, None)]
        for p, pol, salted in runs:
            out, table = _crawl(images, seeds, pol, num_partitions=p,
                                salted_hosts=salted)
            _reconcile(out["metrics"], seeds.num_rows, table.num_rows)
            assert [m["partition"] for m in out["metrics"]] == list(range(p))
            ref = simulate(seeds.to_pylist(), pol.to_pylist())
            if salted:
                # salting moves URLs between queues, never in or out
                assert sorted(table.column("url").to_pylist()) \
                    == sorted(u for _r, _h, u, *_ in ref.admissions)
            else:
                assert _order(table) == [(r, h, u, s) for
                                         (r, h, u, s, _p, _m)
                                         in ref.admissions]
        # every crawl after the first started on the previous one's
        # actors (as many as it needed)
        for prev, cur in zip(frontier_spy, frontier_spy[1:]):
            assert len(set(prev) & set(cur)) == min(len(prev), len(cur))

    def test_killed_idle_actor_is_replaced(self, ray_session, corpus,
                                           frontier_spy):
        import ray

        images, seeds, politeness = corpus
        _crawl(images, seeds, politeness, num_partitions=3)
        first = frontier_spy[-1]
        ray.kill(first[1])
        _wait_dead(first[1])
        out, table = _crawl(images, seeds, politeness, num_partitions=3)
        second = frontier_spy[-1]
        assert first[1] not in second
        assert {first[0], first[2]} <= set(second)
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        assert _order(table) == [(r, h, u, s) for (r, h, u, s, _p, _m)
                                 in ref.admissions]
        _reconcile(out["metrics"], seeds.num_rows, table.num_rows)

    def test_actor_starts(self, ray_session, corpus, monkeypatch):
        """From an empty idle list, a crawl at 2 partitions and width 2
        starts 4 actors: its pool routes the seeds.  An iterative crawl
        after it reuses them all and starts only the workers it needs
        beyond the pool; a third crawl starts none, and its records
        equal the first one's.  The workers are reset from a corpus to
        none and back."""
        images, seeds, politeness = corpus
        warm = cp._WarmActors()
        monkeypatch.setattr(cp, "_WARM", warm)
        acquired = []

        def acquire(cls, inits, real=warm.acquire):
            acquired.append(real(cls, inits))
            return acquired[-1]

        def started():
            return len({h._actor_id for hs in acquired for h in hs})

        monkeypatch.setattr(warm, "acquire", acquire)
        _, first = _crawl(images, seeds, politeness, num_partitions=2)
        assert started() == 4
        tree_seeds, discover = _tree(40)
        pol = pa.table({"host": ["host1.example.org"],
                        "max_concurrency": [2], "min_delay_ms": [0],
                        "robots_disallow": [[]]},
                       schema=synth.POLITENESS_SCHEMA)
        cp.run_iterative_crawl(tree_seeds, pol, discover, num_partitions=2)
        assert set(acquired[2]) == set(acquired[0])        # partitions
        assert set(acquired[1]) < set(acquired[3])         # workers
        assert started() == 2 + cp.N_DISCOVER_WORKERS
        _, third = _crawl(images, seeds, politeness, num_partitions=2)
        assert started() == 2 + cp.N_DISCOVER_WORKERS
        assert third.equals(first)
        cp._kill(warm._swap([], {FrontierPartition, cp._FetchParseWorker}))

    def test_reset_partition_equals_new(self, corpus):
        """FrontierPartition.reset drops the seen set, queues, buffered
        offers and counters: a used partition reset with the same
        arguments drains exactly what a new one does."""
        _, seeds, politeness = corpus
        pol = politeness.to_pylist()
        offers = canonicalize_batch(seeds)
        used = FrontierPartition(0, 1, pol)
        used.offer(offers)
        used.seal()
        used.drain(3)
        used.offer(offers.slice(0, 10))       # buffered, never sealed
        used.reset(0, 1, pol)
        new = FrontierPartition(0, 1, pol)
        for p in (used, new):
            p.offer(offers)
            p.seal()
        assert used.get_metrics() == new.get_metrics()
        assert used.drain().equals(new.drain())
        assert np.array_equal(np.sort(used.seen_hashes()),
                              np.sort(new.seen_hashes()))


def _tree(n, host="host1.example.org"):
    """img{i} links to img{2i+1} and img{2i+2} below n."""
    def discover(url, seq):
        tail = url.rsplit("/", 1)[-1]
        if not tail.startswith("img"):
            return []
        i = int(tail[3:])
        return [{"url": f"http://{host}/linked/img{c:07d}", "priority": 0.0,
                 "seq": 1_000_000 + seq * 256 + j, "mtime": 1000,
                 "set_id": "linked"}
                for j, c in enumerate((2 * i + 1, 2 * i + 2)) if c < n]

    seeds = pa.table({
        "url": [f"http://{host}/seed/img{i:07d}" for i in range(3)],
        "host": [host] * 3, "set_id": ["seed"] * 3,
        "priority": [0.0] * 3, "seq": [0, 1, 2], "mtime": [1000] * 3,
        "dup_of": [None] * 3,
    }, schema=synth.SEEDS_SCHEMA)
    return seeds, discover


class TestIterativeReuse:
    def test_two_iterative_crawls_match_sim(self, ray_session):
        """The second crawl runs on the first one's frontier actors and
        discover workers (with a different discover function and
        budget) and still equals the simulator on order and seen set."""
        def idle_workers():
            return {h for c, h in cp._WARM._idle
                    if c is cp._FetchParseWorker}

        host = "host1.example.org"
        workers = []
        for n, conc in ((40, 2), (60, 1)):
            seeds, discover = _tree(n, host)
            pol = pa.table({"host": [host], "max_concurrency": [conc],
                            "min_delay_ms": [0], "robots_disallow": [[]]},
                           schema=synth.POLITENESS_SCHEMA)
            ref = simulate_iterative(seeds.to_pylist(), pol.to_pylist(),
                                     discover)
            out = cp.run_iterative_crawl(seeds, pol, discover,
                                         num_partitions=2)
            t = out["admissions"].sort_by(ORDER)
            got = list(zip(t.column("round").to_pylist(),
                           t.column("url").to_pylist(),
                           t.column("seq").to_pylist()))
            assert got == [(r, u, s) for (r, _h, u, s, _p, _m)
                           in ref.admissions]
            assert out["seen"] == ref.seen_hashes
            assert len(got) > n           # discovery expanded it
            workers.append(idle_workers())
        # the second crawl ran on (and released) the first one's workers
        assert len(workers[0]) == cp.N_DISCOVER_WORKERS
        assert workers[1] == workers[0]

    def test_idle_actors_leave_room_for_a_1cpu_task(self, ray_session):
        import ray

        seeds, discover = _tree(40)
        pol = pa.table({"host": ["host1.example.org"],
                        "max_concurrency": [2], "min_delay_ms": [0],
                        "robots_disallow": [[]]},
                       schema=synth.POLITENESS_SCHEMA)
        p = 3
        cp.run_iterative_crawl(seeds, pol, discover, num_partitions=p)
        total = ray.cluster_resources()["CPU"]
        floor = total - (p + cp.N_DISCOVER_WORKERS) * cp.WARM_ACTOR_CPUS
        # other work of this session may still be winding down
        deadline = time.monotonic() + 60
        while ray.available_resources().get("CPU", 0.0) < floor - 1e-6:
            assert time.monotonic() < deadline, (
                ray.available_resources(), "live actors:", _live_actors())
            time.sleep(0.1)
        one_cpu = ray.remote(num_cpus=1)(lambda: 7)
        assert ray.get(one_cpu.remote(), timeout=60) == 7

    def test_none_kept_below_one_free_cpu(self, ray_session, monkeypatch):
        """A release that would leave less than one whole CPU beside
        the idle actors kills them all: the released ones and the ones
        idle before."""
        import ray

        warm = cp._WarmActors()
        inits = [((i, 2, []), {}) for i in range(2)]
        before = warm.acquire(FrontierPartition, inits)
        warm.release([(FrontierPartition, before)])
        assert len(warm._idle) == 2          # 4 CPUs: room to keep them
        after = [ray.remote(num_cpus=cp.WARM_ACTOR_CPUS)(FrontierPartition)
                 .remote(*a, **kw) for a, kw in inits]
        # a 1-CPU session: 1.0 - 2 x 0.05 leaves no whole CPU
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
        warm.release([(FrontierPartition, after)])
        assert warm._idle == []
        for h in before + after:
            _wait_dead(h)


class TestAdmissionsDataset:
    def test_count_and_schema_without_executing(self, ray_session, corpus,
                                                monkeypatch):
        import ray
        from ray.data._internal.plan import ExecutionPlan

        from hepcrawl_ray.frontier import ADMIT_SCHEMA

        _, seeds, politeness = corpus
        actors = cp.start_frontier(politeness.to_pylist(), 2)
        cp.offer_seeds(actors, seeds, 2)
        ray.get([a.seal.remote() for a in actors])
        adm = cp.drain_admissions_chunked(actors, target_rows=16)
        drained = sum(m["drained"] for m in
                      ray.get([a.get_metrics.remote() for a in actors]))
        cp.release_frontier(actors)

        def boom(*args, **kwargs):
            raise AssertionError("the Dataset executed")

        with monkeypatch.context() as m:
            m.setattr(ExecutionPlan, "execute", boom)
            m.setattr(ExecutionPlan, "execute_to_iterator", boom)
            assert adm.count() == drained > 0
            assert adm.schema().base_schema == ADMIT_SCHEMA
        rows = pa.concat_tables(adm.iter_batches(batch_size=None,
                                                 batch_format="pyarrow"))
        assert rows.num_rows == drained

    def test_seal_true_is_rejected(self):
        with pytest.raises(ValueError):
            cp.drain_admissions_chunked([], seal=True)


@pytest.fixture
def pool_spy(monkeypatch):
    """Records the fetch+parse pool each acquire_pool call returns."""
    calls = []
    real = cp.acquire_pool

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cp, "acquire_pool", spy)
    return calls


def _distinct_seeds(images, n):
    """``n`` distinct URLs over the corpus images (hosts 0-5), so a
    crawl has as much fetch+parse work as wanted."""
    ids = images.column("image_id").to_pylist()
    return pa.table({
        "url": [f"http://host{i % 6}.example.org/set{i % 3}/r{i}/"
                f"{ids[i % len(ids)]}" for i in range(n)],
        "host": [f"host{i % 6}.example.org" for i in range(n)],
        "set_id": [f"set{i % 3}" for i in range(n)],
        "priority": np.zeros(n),
        "seq": np.arange(n, dtype=np.int64),
        "mtime": np.full(n, 1000, dtype=np.int64),
        "dup_of": pa.nulls(n, pa.string()),
    }, schema=synth.SEEDS_SCHEMA)


def _stage_records(records, images, verify_pixels, drop_bytes):
    """What a new in-process FetchParseStage makes of the admission
    columns of ``records``."""
    from hepcrawl_ray.frontier import ADMIT_SCHEMA
    from hepcrawl_ray.stages import FetchParseStage

    stage = FetchParseStage(images, verify_pixels, drop_bytes)
    return stage(records.select(ADMIT_SCHEMA.names))


class TestPoolReuse:
    def test_reused_pool_equals_new_stage(self, ray_session, corpus,
                                          tmp_path, pool_spy):
        """Back-to-back crawls on the same fetch+parse actors, switching
        the corpus between a table and a parquet path and flipping
        verify_pixels / drop_bytes: each crawl's records equal a new
        stage's, row for row, and its schedule equals the simulator's."""
        import pyarrow.parquet as pq

        images, seeds, politeness = corpus
        path = str(tmp_path / "corpus.parquet")
        pq.write_table(images.sort_by("image_id"), path, row_group_size=16)
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
        runs = [(images, True, False), (path, False, True),
                (images, False, True), (path, True, False),
                (images, True, False)]
        for imgs, verify, drop in runs:
            out, table = _crawl(imgs, seeds, politeness, num_partitions=3,
                                verify_pixels=verify, drop_bytes=drop,
                                batch_size=16)
            assert _order(table) == want
            assert ("bytes" in table.column_names) is not drop
            assert table.equals(_stage_records(table, imgs, verify, drop))
            if verify:
                assert table.column("pixels_verified").to_pylist() \
                    == [e is None for e in
                        table.column("fetch_error").to_pylist()]
        # every crawl after the first ran on the previous one's actors
        assert all(len(p) == 2 for p in pool_spy)
        for prev, cur in zip(pool_spy, pool_spy[1:]):
            assert set(prev) == set(cur)

    def test_killed_idle_pool_actor_is_replaced(self, ray_session, corpus,
                                                pool_spy):
        import ray

        images, seeds, politeness = corpus
        _crawl(images, seeds, politeness, num_partitions=2)
        first = pool_spy[-1]
        ray.kill(first[0])
        _wait_dead(first[0])
        _, table = _crawl(images, seeds, politeness, num_partitions=2)
        second = pool_spy[-1]
        assert first[0] not in second and first[1] in second
        assert table.equals(_stage_records(table, images, True, False))

    def test_records_count_and_schema_without_executing(
            self, ray_session, corpus, monkeypatch):
        from ray.data._internal.plan import ExecutionPlan

        images, seeds, politeness = corpus

        def boom(*args, **kwargs):
            raise AssertionError("the Dataset executed")

        for drop in (False, True):
            out = cp.run_crawl(images, seeds, politeness, num_partitions=2,
                               width=2, drop_bytes=drop, batch_size=16)
            drained = sum(m["drained"] for m in out["metrics"])
            with monkeypatch.context() as m:
                m.setattr(ExecutionPlan, "execute", boom)
                m.setattr(ExecutionPlan, "execute_to_iterator", boom)
                assert out["records"].count() == drained > 0
                schema = out["records"].schema().base_schema
            rows = pa.concat_tables(out["records"].iter_batches(
                batch_size=None, batch_format="pyarrow"))
            assert rows.num_rows == drained
            assert schema == rows.schema

    def test_records_survive_the_next_crawl(self, ray_session, corpus,
                                            pool_spy):
        """run_crawl returns before its records are computed and hands
        its pool back at once; the next, narrower crawl resets one of
        its actors and kills the other, and the records still come back
        whole, because a reset and a kill both wait for the calls
        already queued on the actor."""
        images, small_seeds, politeness = corpus
        seeds = _distinct_seeds(images, 6000)
        out = cp.run_crawl(images, seeds, politeness, num_partitions=2,
                           width=2, batch_size=32)
        cp.run_crawl(images, small_seeds, politeness, num_partitions=2,
                     width=1)
        assert len(pool_spy[-1]) == 1 and set(pool_spy[-1]) < set(
            pool_spy[-2])
        table = pa.concat_tables(out["records"].iter_batches(
            batch_size=None, batch_format="pyarrow"))
        assert table.num_rows == seeds.num_rows
        assert table.equals(_stage_records(table, images, True, False))

    def test_room_for_a_1cpu_task_after_run_crawl(self, ray_session,
                                                  corpus):
        """The 1-CPU floor holds when the iterative crawl follows a
        run_crawl whose fetch+parse pool went idle, and runs on that
        pool."""
        images, seeds, politeness = corpus
        _crawl(images, seeds, politeness, num_partitions=2)
        pool = {h for c, h in cp._WARM._idle if c is cp._FetchParseWorker}
        assert len(pool) == 2
        TestIterativeReuse().test_idle_actors_leave_room_for_a_1cpu_task(
            ray_session)
        workers = {h for c, h in cp._WARM._idle
                   if c is cp._FetchParseWorker}
        assert pool < workers and len(workers) == cp.N_DISCOVER_WORKERS


class TestPoolFaults:
    def test_killed_pool_actor_fails_the_stream(self, ray_session, corpus,
                                                pool_spy):
        """A fetch+parse actor killed while the records it owes are
        still queued: iterating the records raises a RayActorError
        promptly instead of hanging, and the next crawl runs on a
        replacement."""
        import ray

        images, _, politeness = corpus
        seeds = _distinct_seeds(images, 3000)
        out = cp.run_crawl(images, seeds, politeness, num_partitions=2,
                           width=2, batch_size=32)
        dead = pool_spy[-1][0]
        ray.kill(dead)
        caught = []

        def consume():
            try:
                for _ in out["records"].iter_batches(
                        batch_size=None, batch_format="pyarrow"):
                    pass
            except Exception as exc:      # noqa: BLE001 - inspected below
                # the type only: the exception's traceback would keep the
                # stream's executor alive past the Ray session
                caught.append(type(exc))

        th = threading.Thread(target=consume, daemon=True)
        th.start()
        th.join(timeout=120)
        assert not th.is_alive(), "records stream hung on a dead actor"
        assert len(caught) == 1, "the stream ended without an error"
        assert issubclass(caught[0], ray.exceptions.RayActorError), \
            caught[0]
        _, table = _crawl(images, corpus[1], politeness, num_partitions=2)
        assert dead not in pool_spy[-1]
        assert table.equals(_stage_records(table, images, True, False))

    def test_records_larger_than_the_object_store(self):
        """A crawl that keeps the image bytes, in a session whose
        ~80 MB object store is smaller than its records: the calls all
        run at once, what does not fit spills to disk, and the records
        come back exact."""
        script = textwrap.dedent("""
            import sys

            import numpy as np
            import pyarrow as pa
            import ray

            sys.path.insert(0, %(tests)r)
            from test_warm_actors import _distinct_seeds, _stage_records

            from hepcrawl_ray import synth
            from hepcrawl_ray.pipelines import crawl as cp

            store = 80 * 1024 * 1024
            ray.init(address="local", num_cpus=2, object_store_memory=store,
                     include_dashboard=False, logging_level="ERROR")
            images, _ = synth.generate_corpus(64, size_range=(96, 128))
            seeds = _distinct_seeds(images, 9000)
            pol = synth.generate_politeness()
            out = cp.run_crawl(images, seeds, pol, num_partitions=2,
                               width=2, batch_size=512, drop_bytes=False)
            n, size, digest = 0, 0, []
            for b in out["records"].iter_batches(batch_size=None,
                                                 batch_format="pyarrow"):
                assert b.equals(_stage_records(b, images, True, False))
                n += b.num_rows
                size += b.nbytes
                digest.append(b.column("seq").to_numpy())
            assert n == seeds.num_rows, n
            assert size > store, size
            assert np.array_equal(np.sort(np.concatenate(digest)),
                                  np.arange(seeds.num_rows))
            ray.shutdown()
            print("ok", n, size)
        """) % {"tests": os.path.dirname(os.path.abspath(__file__))}
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.strip().splitlines()[-1].startswith("ok")

    def test_chunk_output_larger_than_the_object_store(self, tmp_path):
        """The same small store, with ``output_dir``: the pool writes
        records several times the store's size as chunk files, nothing
        is spilled, and the files hold exactly what a new stage makes
        of their admissions."""
        script = textwrap.dedent("""
            import json
            import os
            import sys

            import numpy as np
            import pyarrow.parquet as pq
            import ray

            sys.path.insert(0, %(tests)r)
            from test_warm_actors import _distinct_seeds, _stage_records

            from hepcrawl_ray import synth
            from hepcrawl_ray.pipelines import crawl as cp
            from hepcrawl_ray.pipelines import sink

            store, tmp = 80 * 1024 * 1024, %(tmp)r
            spill = os.path.join(tmp, "spill")
            ray.init(address="local", num_cpus=2, object_store_memory=store,
                     include_dashboard=False, logging_level="ERROR",
                     _system_config={"object_spilling_config": json.dumps(
                         {"type": "filesystem",
                          "params": {"directory_path": spill}})})
            images, _ = synth.generate_corpus(64, size_range=(96, 128))
            seeds = _distinct_seeds(images, 9000)
            pol = synth.generate_politeness()
            out = os.path.join(tmp, "out")
            cp.run_crawl(images, seeds, pol, num_partitions=2,
                         width=2,
                         batch_size=512, drop_bytes=False, output_dir=out,
                         checkpoint_dir=os.path.join(tmp, "ckpt"))
            spilled = [f for _, _, fs in os.walk(spill) for f in fs]
            ray.shutdown()
            assert not spilled, spilled
            n, size, digest = 0, 0, []
            manifest = sink.read_manifest(out)
            for pid, listed in manifest["partitions"].items():
                for f in sink._partition_files(out, pid, listed):
                    b = pq.read_table(f)
                    assert b.equals(_stage_records(b, images, True, False))
                    n += b.num_rows
                    size += b.nbytes
                    digest.append(b.column("seq").to_numpy())
            assert n == seeds.num_rows, n
            assert size > 3 * store, size
            assert np.array_equal(np.sort(np.concatenate(digest)),
                                  np.arange(seeds.num_rows))
            print("ok", n, size)
        """) % {"tests": os.path.dirname(os.path.abspath(__file__)),
                "tmp": str(tmp_path)}
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.strip().splitlines()[-1].startswith("ok")

    def test_killed_pool_actor_fails_the_chunk_output(
            self, ray_session, corpus, pool_spy, tmp_path):
        """A fetch+parse actor killed while its chunk writes are still
        queued: run_crawl(output_dir=) raises a RayActorError promptly,
        and a rerun with the same directories resumes to the records of
        an uninterrupted crawl."""
        import ray

        images, _, politeness = corpus
        seeds = _distinct_seeds(images, 6000)
        kw = dict(num_partitions=2, width=2, batch_size=32,
                  output_dir=str(tmp_path / "out"),
                  checkpoint_dir=str(tmp_path / "ckpt"))
        real_wait = ray.wait
        waits = []

        def wait(refs, *args, **kwargs):
            # the driver's waits on the writes (pipelines.crawl._stream)
            if sys._getframe(1).f_code.co_name == "settle":
                waits.append(len(refs))
                if len(waits) == 1:        # the first chunk is queued
                    ray.kill(pool_spy[-1][0])
            return real_wait(refs, *args, **kwargs)

        caught = []

        def crawl():
            try:
                cp.run_crawl(images, seeds, politeness, **kw)
            except Exception as exc:      # noqa: BLE001 - inspected below
                caught.append(type(exc))

        ray.wait = wait
        try:
            th = threading.Thread(target=crawl, daemon=True)
            th.start()
            th.join(timeout=60)
        finally:
            ray.wait = real_wait
        assert not th.is_alive(), "run_crawl hung on a dead pool actor"
        assert waits, "the crawl wrote nothing"
        assert len(caught) == 1, "run_crawl ended without an error"
        assert issubclass(caught[0], ray.exceptions.RayActorError), \
            caught[0]

        out = cp.run_crawl(images, seeds, politeness, **kw)
        assert pool_spy[-2][0] not in pool_spy[-1]
        resumed = pa.concat_tables(out["records"].iter_batches(
            batch_size=None, batch_format="pyarrow"))
        _, clean = _crawl(images, seeds, politeness, num_partitions=2,
                          batch_size=32)
        key = ORDER + [("url", "ascending")]
        assert resumed.sort_by(key).equals(clean.sort_by(key))


def _wait_dead(handle):
    """ray.kill is asynchronous: wait until calls on ``handle`` fail."""
    import ray

    deadline = time.monotonic() + 60
    with pytest.raises(ray.exceptions.RayActorError):
        while time.monotonic() < deadline:
            ray.get(handle.__ray_ready__.remote(), timeout=60)
            time.sleep(0.05)


class _NoCalls:
    """An actor handle that fails the test if anything touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"idle actor of an earlier session: .{name}")


class TestIdleList:
    def test_earlier_session_is_dropped_uncalled(self, monkeypatch):
        warm = cp._WarmActors()
        session = ["a"]
        monkeypatch.setattr(cp._WarmActors, "_session_key",
                            staticmethod(lambda: session[0]))
        warm._session, warm._idle = "a", [(FrontierPartition, _NoCalls())]
        session[0] = "b"
        assert warm.take(FrontierPartition, 4) == []
        assert warm._idle == [] and warm._session == "b"
        warm._session, warm._idle = "a", [(FrontierPartition, _NoCalls())]
        assert warm._swap([], {FrontierPartition}) == []

    def test_concurrent_swap_and_take_conserve_actors(self, monkeypatch):
        """Threads putting and taking idle actors at once: every actor
        put on the list leaves it exactly once (taken or swapped out)
        or is still on it at the end."""
        monkeypatch.setattr(cp._WarmActors, "_session_key",
                            staticmethod(lambda: "s"))
        warm = cp._WarmActors()
        n_threads, rounds = 8, 2000
        out = [[] for _ in range(n_threads)]

        def work(t):
            for r in range(rounds):
                out[t] += warm._swap([(FrontierPartition, (t, r, k))
                                      for k in range(3)],
                                     {FrontierPartition})
                out[t] += warm.take(FrontierPartition, 2)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        left = [h for _, h in warm._idle]
        seen = [h for o in out for h in o] + left
        assert len(seen) == len(set(seen)) == n_threads * rounds * 3

    def test_new_ray_session_in_the_same_process(self):
        """ray.shutdown() then ray.init() in one process: the restarted
        cluster numbers its jobs from 1 again, so the idle list must be
        told apart by more than the job ID.  The first session's idle
        actors are swapped for handles that fail on any use; the second
        crawl must not touch them."""
        script = textwrap.dedent("""
            import pyarrow as pa
            import ray

            from hepcrawl_ray import synth
            from hepcrawl_ray.pipelines import crawl as cp
            from hepcrawl_ray.sim import simulate

            class NoCalls:
                def __getattr__(self, name):
                    raise AssertionError(f"earlier session's actor: .{name}")

            images, _ = synth.generate_corpus(40)
            seeds = synth.generate_seeds(images)
            pol = synth.generate_politeness()
            ref = [(r, h, u, s) for (r, h, u, s, _p, _m)
                   in simulate(seeds.to_pylist(), pol.to_pylist()).admissions]

            def crawl():
                ray.init(address="local", num_cpus=2,
                         include_dashboard=False, logging_level="ERROR")
                out = cp.run_crawl(images, seeds, pol, num_partitions=2,
                                   width=1)
                t = pa.concat_tables(out["records"].iter_batches(
                    batch_size=None, batch_format="pyarrow")).sort_by(
                    [("round", "ascending"), ("host", "ascending"),
                     ("pop_idx", "ascending")])
                assert list(zip(*(t.column(c).to_pylist() for c in
                                  ("round", "host", "url", "seq")))) == ref

            def idle_classes():
                return sorted(c.__name__ for c, _ in cp._WARM._idle)

            # the two frontier partitions and the 1-actor pool, which
            # routed the seeds too
            kept = ["FrontierPartition"] * 2 + ["_FetchParseWorker"]
            crawl()
            first = cp._WARM._session
            assert idle_classes() == kept
            ray.shutdown()
            cp._WARM._idle = [(c, NoCalls()) for c, _ in cp._WARM._idle]
            crawl()
            assert cp._WARM._session != first
            assert idle_classes() == kept
            assert not any(isinstance(h, NoCalls)
                           for _, h in cp._WARM._idle)
            ray.shutdown()
            print("ok")
        """)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert proc.stdout.strip().splitlines()[-1] == "ok"
