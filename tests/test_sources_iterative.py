"""Source-expansion operators + iterative (discovered-URL) crawl."""

import io
import json
import tarfile
import zipfile

import pyarrow as pa
import pytest

from hepcrawl_ray import synth
from hepcrawl_ray.sources import expand as ex


def _zip_bytes(members: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def _tar_bytes(members: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        for name, data in members.items():
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    return buf.getvalue()


class TestExpand:
    def test_zip(self):
        batch = pa.table({
            "package_id": ["p1", "p2"],
            "blob": [_zip_bytes({"a.xml": b"<a/>", "b.txt": b"x",
                                 "c.xml": b"<c/>"}),
                     b"not a zip"],
        })
        out = ex.expand_zip(batch, suffix=".xml")
        rows = out.to_pylist()
        good = [r for r in rows if r["error"] is None]
        bad = [r for r in rows if r["error"] is not None]
        assert {r["member_name"] for r in good} == {"a.xml", "c.xml"}
        assert len(bad) == 1 and bad[0]["package_id"] == "p2"

    def test_zip_skip_extracted(self):
        batch = pa.table({"package_id": ["p"], "blob": [
            _zip_bytes({"a.xml": b"<a/>", "b.xml": b"<b/>"})]})
        out = ex.expand_zip(batch, suffix=".xml", skip_names={"a.xml"})
        assert out.column("member_name").to_pylist() == ["b.xml"]

    def test_tar(self):
        batch = pa.table({"package_id": ["t1"], "blob": [
            _tar_bytes({"x/r1.xml": b"<r/>", "x/skip.json": b"{}"})]})
        out = ex.expand_tar(batch, suffix=".xml")
        assert out.column("member_name").to_pylist() == ["x/r1.xml"]
        assert out.column("member_bytes").to_pylist() == [b"<r/>"]

    def test_xml_feed(self):
        feed = "<root><record><t>1</t></record><record><t>2</t></record></root>"
        batch = pa.table({"feed_id": ["f1", "f2", "f3"],
                          "xml": [feed, "<root/>", "<broken"]})
        out = ex.expand_xml_feed(batch, itertag="record")
        rows = out.to_pylist()
        f1 = [r for r in rows if r["feed_id"] == "f1"]
        assert len(f1) == 2 and all(r["error"] is None for r in f1)
        assert "<t>1</t>" in f1[0]["record_xml"]
        assert [r["error"] for r in rows if r["feed_id"] == "f2"][0] \
            == "no <record> nodes"
        assert "bad xml" in [r["error"] for r in rows if r["feed_id"] == "f3"][0]

    def test_jsonl_with_error_rows(self):
        blob = '{"a": 1}\nnot json\n{"b": 2}\n'
        out = ex.expand_jsonl(pa.table({"file_id": ["f"], "jsonl": [blob]}))
        rows = out.to_pylist()
        assert len(rows) == 3
        assert json.loads(rows[0]["record_json"]) == {"a": 1}
        assert rows[1]["error"] is not None and rows[1]["record_json"] is None
        assert json.loads(rows[2]["record_json"]) == {"b": 2}

    def test_paged_enumerate(self):
        t = ex.paged_enumerate(total=25, page_size=10)
        assert t.column("offset").to_pylist() == [0, 10, 20]
        assert t.column("token").to_pylist() == ["tok-0", "tok-10", "tok-20"]


# ---------------------------------------------------------------------------
# iterative crawl: engine vs simulator with link discovery
# ---------------------------------------------------------------------------

_CHILD_BASE = 1 << 32


def make_tree_discover(n_images: int, host: str = "host1.example.org",
                       fanout: int = 2, max_children_space: int = 256):
    """URL img{i} links to img{fanout*i+1}..img{fanout*i+fanout} (< n).

    Child seq = BASE + parent_seq * 256 + idx: deterministic, unique,
    and identical in engine and simulator without a shared counter.
    """
    def discover(url: str, seq: int):
        tail = url.rsplit("/", 1)[-1]
        if not tail.startswith("img"):
            return []
        i = int(tail[3:])
        out = []
        for j in range(fanout):
            child = fanout * i + 1 + j
            if child >= n_images:
                continue
            out.append({
                "url": f"http://{host}/linked/img{child:07d}",
                "priority": 0.0,
                "seq": _CHILD_BASE + seq * max_children_space + j,
                "mtime": 1000,
                "set_id": "linked",
            })
        return out

    return discover


class TestIterativeCrawl:
    def test_engine_matches_sim_with_discovery(self, ray_session):
        from hepcrawl_ray.pipelines import crawl as cp
        from hepcrawl_ray.sim import simulate_iterative

        n = 40
        host = "host1.example.org"
        seeds = pa.table({
            "url": [f"http://{host}/seed/img{i:07d}" for i in range(3)],
            "host": [host] * 3,
            "set_id": ["seed"] * 3,
            "priority": [0.0] * 3,
            "seq": [0, 1, 2],
            "mtime": [1000] * 3,
            "dup_of": [None] * 3,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": [host], "max_concurrency": [2], "min_delay_ms": [0],
            "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        discover = make_tree_discover(n, host=host)

        ref = simulate_iterative(seeds.to_pylist(), politeness.to_pylist(),
                                 discover)
        out = cp.run_iterative_crawl(seeds, politeness, discover,
                                     num_partitions=2)
        t = out["admissions"].sort_by(
            [("round", "ascending"), ("host", "ascending"),
             ("pop_idx", "ascending")])
        got = list(zip(t.column("round").to_pylist(),
                       t.column("url").to_pylist(),
                       t.column("seq").to_pylist()))
        want = [(r, u, s) for (r, _h, u, s, _p, _m) in ref.admissions]
        assert got == want
        assert out["seen"] == ref.seen_hashes
        # the tree has 40 nodes; seeds 0..2 reach every node under them —
        # discovery genuinely expanded the frontier
        assert len(got) > len(seeds)

    def test_in_stage_discovery_matches_driver_and_sim(self, ray_session):
        """The production path (links extracted + routed inside the
        discover workers' DiscoverRouteStage) == the simulator, on the
        same tree fixture."""
        from hepcrawl_ray.pipelines import crawl as cp
        from hepcrawl_ray.sim import simulate_iterative

        n = 40
        host = "host1.example.org"
        seeds = pa.table({
            "url": [f"http://{host}/seed/img{i:07d}" for i in range(3)],
            "host": [host] * 3,
            "set_id": ["seed"] * 3,
            "priority": [0.0] * 3,
            "seq": [0, 1, 2],
            "mtime": [1000] * 3,
            "dup_of": [None] * 3,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": [host], "max_concurrency": [2], "min_delay_ms": [0],
            "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        discover = make_tree_discover(n, host=host)

        ref = simulate_iterative(seeds.to_pylist(), politeness.to_pylist(),
                                 discover)

        def admitted(out):
            t = out["admissions"].sort_by(
                [("round", "ascending"), ("host", "ascending"),
                 ("pop_idx", "ascending")])
            return list(zip(t.column("round").to_pylist(),
                            t.column("url").to_pylist(),
                            t.column("seq").to_pylist()))

        in_stage = cp.run_iterative_crawl(seeds, politeness, discover,
                                          num_partitions=2)
        want = [(r, u, s) for (r, _h, u, s, _p, _m) in ref.admissions]
        assert admitted(in_stage) == want
        assert in_stage["seen"] == ref.seen_hashes

    def test_batch_discover_matches_per_row_and_sim(self, ray_session):
        """The vectorized discover_batch_fn contract (one call per
        admitted batch -> offer table + per-row counts) produces the
        EXACT schedule and seen set of the per-row spec callback and
        the simulator."""
        from hepcrawl_ray.pipelines import crawl as cp
        from hepcrawl_ray.sim import simulate_iterative

        n = 40
        host = "host1.example.org"
        seeds = pa.table({
            "url": [f"http://{host}/seed/img{i:07d}" for i in range(3)],
            "host": [host] * 3,
            "set_id": ["seed"] * 3,
            "priority": [0.0] * 3,
            "seq": [0, 1, 2],
            "mtime": [1000] * 3,
            "dup_of": [None] * 3,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": [host], "max_concurrency": [2], "min_delay_ms": [0],
            "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        discover = make_tree_discover(n, host=host)

        def discover_batch(urls, seqs):
            rows, counts = [], []
            for url, seq in zip(urls.to_pylist(), seqs.to_pylist()):
                found = discover(url, seq)
                counts.append(len(found))
                rows.extend(found)
            raw = pa.table({
                "url": pa.array([r["url"] for r in rows], pa.string()),
                "priority": pa.array([r["priority"] for r in rows],
                                     pa.float64()),
                "seq": pa.array([r["seq"] for r in rows], pa.int64()),
                "mtime": pa.array([r["mtime"] for r in rows], pa.int64()),
                "set_id": pa.array([r["set_id"] for r in rows],
                                   pa.string()),
            })
            return raw, counts

        ref = simulate_iterative(seeds.to_pylist(), politeness.to_pylist(),
                                 discover)

        def admitted(out):
            t = out["admissions"].sort_by(
                [("round", "ascending"), ("host", "ascending"),
                 ("pop_idx", "ascending")])
            return list(zip(t.column("round").to_pylist(),
                            t.column("url").to_pylist(),
                            t.column("seq").to_pylist()))

        batch = cp.run_iterative_crawl(seeds, politeness, discover,
                                       num_partitions=2,
                                       discover_batch_fn=discover_batch)
        per_row = cp.run_iterative_crawl(seeds, politeness, discover,
                                         num_partitions=2)
        want = [(r, u, s) for (r, _h, u, s, _p, _m) in ref.admissions]
        assert admitted(batch) == admitted(per_row) == want
        assert batch["seen"] == per_row["seen"] == ref.seen_hashes

    def test_bench_batch_discover_matches_per_row(self, ray_session):
        """bench.py's vectorized overlapping-tree discover_batch is
        admission-for-admission identical to its per-row twin (the
        official iterative metric measures the batch path)."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_mod", "/root/repo/bench.py")
        bench_mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_mod)

        def schedule(res):
            t = res["admissions"].sort_by(
                [("round", "ascending"), ("host", "ascending"),
                 ("pop_idx", "ascending")])
            return list(zip(t.column("round").to_pylist(),
                            t.column("url").to_pylist(),
                            t.column("seq").to_pylist()))

        a = bench_mod.run_iterative_bench(n_urls=3000, use_batch=True,
                                          return_admissions=True)
        b = bench_mod.run_iterative_bench(n_urls=3000, use_batch=False,
                                          return_admissions=True)
        assert a["urls"] == b["urls"] == 3000
        assert schedule(a) == schedule(b)

    @pytest.mark.parametrize("num_partitions", [2, 4])
    def test_kill_resume_mid_crawl_exact(self, ray_session, tmp_path,
                                         num_partitions):
        """Mid-crawl kill/resume of the in-stage iterative path (the
        production default): run with per-iteration checkpoints, kill
        AFTER an un-checkpointed iteration (its work is lost), resume
        from the last committed checkpoint — the resumed run's FULL
        admission schedule must equal the uninterrupted run's AND the
        simulator's, bit for bit.  Reference analog: crawl-once DB +
        last-run file surviving a killed job
        (hepcrawl/middlewares.py:101-155,
        hepcrawl/spiders/common/lastrunstore_spider.py:53-126)."""
        from hepcrawl_ray.pipelines import crawl as cp
        from hepcrawl_ray.sim import simulate_iterative

        n = 60
        hosts = ["host1.example.org", "host2.example.org"]
        seeds = pa.table({
            "url": [f"http://{hosts[i % 2]}/seed/img{i:07d}"
                    for i in range(4)],
            "host": [hosts[i % 2] for i in range(4)],
            "set_id": ["seed"] * 4,
            "priority": [0.0] * 4,
            "seq": [0, 1, 2, 3],
            "mtime": [1000] * 4,
            "dup_of": [None] * 4,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": hosts, "max_concurrency": [2, 1],
            "min_delay_ms": [0, 100],
            "robots_disallow": [[], []],
        }, schema=synth.POLITENESS_SCHEMA)
        discover = make_tree_discover(n, host=hosts[0])

        def key(table):
            t = table.sort_by([("round", "ascending"),
                               ("host", "ascending"),
                               ("pop_idx", "ascending")])
            return list(zip(t.column("round").to_pylist(),
                            t.column("host").to_pylist(),
                            t.column("url").to_pylist(),
                            t.column("seq").to_pylist()))

        full = cp.run_iterative_crawl(seeds, politeness, discover,
                                      num_partitions=num_partitions)
        ckpt = str(tmp_path / f"ck{num_partitions}")
        # checkpoint_every=2, kill after iteration 3: the last COMMITTED
        # state is iteration 2 — iteration 3's work is thrown away and
        # must be replayed identically on resume
        partial = cp.run_iterative_crawl(
            seeds, politeness, discover, num_partitions=num_partitions,
            checkpoint_dir=ckpt, checkpoint_every=2, max_iters=3)
        assert partial["admissions"].num_rows \
            < full["admissions"].num_rows          # genuinely truncated
        # simulate a crash MID-CHECKPOINT: a torn newer generation dir
        # (snapshots written, meta never committed) and an orphan
        # admissions segment.  Resume must honor ONLY the committed
        # meta and ignore / deterministically overwrite both.
        import os

        torn = os.path.join(ckpt, "gen=99", "part=0")
        os.makedirs(torn)
        with open(os.path.join(torn, "state.pkl"), "wb") as f:
            f.write(b"torn half-written snapshot")
        with open(os.path.join(ckpt, "admissions",
                               "seg_99999.parquet"), "wb") as f:
            f.write(b"orphan")
        resumed = cp.run_iterative_crawl(
            None, politeness, discover, num_partitions=num_partitions,
            checkpoint_dir=ckpt, checkpoint_every=2, resume=True)
        assert key(resumed["admissions"]) == key(full["admissions"])
        assert resumed["seen"] == full["seen"]
        ref = simulate_iterative(seeds.to_pylist(),
                                 politeness.to_pylist(), discover)
        want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
        assert key(resumed["admissions"]) == want
        assert resumed["seen"] == ref.seen_hashes

    def test_in_stage_dedups_cross_batch(self, ray_session):
        """Two parents in different partitions discovering the same
        child through separate stage batches: crawled once."""
        from hepcrawl_ray.pipelines import crawl as cp

        host = "host1.example.org"

        def discover(url, seq):
            if url.endswith("/a") or url.endswith("/b"):
                return [{"url": f"http://{host}/x/shared", "priority": 0.0,
                         "seq": _CHILD_BASE + seq * 256, "mtime": 1000,
                         "set_id": "x"}]
            return []

        seeds = pa.table({
            "url": [f"http://{host}/x/a", f"http://{host}/x/b"],
            "host": [host] * 2, "set_id": ["x"] * 2,
            "priority": [0.0] * 2, "seq": [0, 1], "mtime": [1000] * 2,
            "dup_of": [None] * 2,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": [host], "max_concurrency": [1], "min_delay_ms": [0],
            "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        out = cp.run_iterative_crawl(seeds, politeness, discover,
                                     num_partitions=2)
        urls = out["admissions"].column("url").to_pylist()
        assert urls.count(f"http://{host}/x/shared") == 1
        assert len(urls) == 3

    def test_discovered_duplicates_deduped(self, ray_session):
        """Two parents linking the same child: crawled once."""
        from hepcrawl_ray.pipelines import crawl as cp
        from hepcrawl_ray.sim import simulate_iterative

        host = "host1.example.org"

        def discover(url, seq):
            if url.endswith("/a") or url.endswith("/b"):
                return [{"url": f"http://{host}/x/shared", "priority": 0.0,
                         "seq": _CHILD_BASE + seq * 256, "mtime": 1000,
                         "set_id": "x"}]
            return []

        seeds = pa.table({
            "url": [f"http://{host}/x/a", f"http://{host}/x/b"],
            "host": [host] * 2, "set_id": ["x"] * 2,
            "priority": [0.0] * 2, "seq": [0, 1], "mtime": [1000] * 2,
            "dup_of": [None] * 2,
        }, schema=synth.SEEDS_SCHEMA)
        politeness = pa.table({
            "host": [host], "max_concurrency": [1], "min_delay_ms": [0],
            "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        ref = simulate_iterative(seeds.to_pylist(), politeness.to_pylist(),
                                 discover)
        out = cp.run_iterative_crawl(seeds, politeness, discover,
                                     num_partitions=2)
        urls = out["admissions"].column("url").to_pylist()
        assert urls.count(f"http://{host}/x/shared") == 1
        assert len(urls) == len(ref.admissions) == 3


# ---------------------------------------------------------------------------
# the iterative loop's shape: driver waits, router fan-out, a dead partition
# ---------------------------------------------------------------------------

_HOSTS = [f"host{h}.example.org" for h in range(8)]
_ORDER = [("round", "ascending"), ("host", "ascending"),
          ("pop_idx", "ascending")]


def _multihost_tree(n: int):
    """Seeds, politeness and a per-row discover over a binary tree of
    ``n`` nodes: node i lives on _HOSTS[i % 8], so every partition
    drains rows.  A node has one parent, so its index makes its link's
    seq unique."""
    hosts = _HOSTS

    def discover(url: str, seq: int):
        i = int(url.rsplit("/img", 1)[-1])
        return [{"url": f"http://{hosts[c % len(hosts)]}/linked/img{c:07d}",
                 "priority": 0.0, "seq": _CHILD_BASE + c, "mtime": 1000,
                 "set_id": "linked"}
                for c in (2 * i + 1, 2 * i + 2) if c < n]

    k = len(hosts)
    seeds = pa.table({
        "url": [f"http://{hosts[i]}/seed/img{i:07d}" for i in range(k)],
        "host": hosts, "set_id": ["seed"] * k, "priority": [0.0] * k,
        "seq": list(range(k)), "mtime": [1000] * k, "dup_of": [None] * k,
    }, schema=synth.SEEDS_SCHEMA)
    politeness = pa.table({
        "host": hosts, "max_concurrency": [4] * k, "min_delay_ms": [0] * k,
        "robots_disallow": [[]] * k,
    }, schema=synth.POLITENESS_SCHEMA)
    return seeds, politeness, discover


def _batch_of(discover, on_call=None):
    """The vectorized discover_batch_fn of a per-row ``discover``;
    ``on_call(urls, seqs)`` runs first on every call."""
    def discover_batch(urls, seqs):
        if on_call is not None:
            on_call(urls, seqs)
        rows, counts = [], []
        for url, seq in zip(urls.to_pylist(), seqs.to_pylist()):
            found = discover(url, seq)
            counts.append(len(found))
            rows.extend(found)
        return pa.table({
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "priority": pa.array([r["priority"] for r in rows],
                                 pa.float64()),
            "seq": pa.array([r["seq"] for r in rows], pa.int64()),
            "mtime": pa.array([r["mtime"] for r in rows], pa.int64()),
            "set_id": pa.array([r["set_id"] for r in rows], pa.string()),
        }), counts

    return discover_batch


def _schedule(table):
    t = table.sort_by(_ORDER)
    return list(zip(*(t.column(c).to_pylist()
                      for c in ("round", "host", "url", "seq"))))


def _sim_schedule(seeds, politeness, discover):
    from hepcrawl_ray.sim import simulate_iterative

    ref = simulate_iterative(seeds.to_pylist(), politeness.to_pylist(),
                             discover)
    return [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions], \
        ref.seen_hashes


def _idle_routers():
    from hepcrawl_ray.pipelines import crawl as cp

    return {h for c, h in cp._WARM._idle if c is cp._FetchParseWorker}


class TestIterativeLoop:
    @pytest.mark.parametrize("num_partitions", [2, 6])
    def test_router_fanout_matches_sim(self, ray_session, tmp_path,
                                       num_partitions):
        """Fewer partitions than routers (2) or more (6): schedule and
        seen set equal the simulator's, no empty batch reaches the
        discover callback, and at 2 partitions every router discovers
        links (each drained block is cut into pieces)."""
        from hepcrawl_ray.pipelines import crawl as cp

        log = tmp_path / "calls"

        def record(urls, seqs):
            import ray

            assert len(urls) > 0, "an empty batch reached discovery"
            with open(log, "a") as f:
                f.write(ray.get_runtime_context().get_actor_id() + "\n")

        seeds, politeness, discover = _multihost_tree(400)
        out = cp.run_iterative_crawl(
            seeds, politeness, discover, num_partitions=num_partitions,
            discover_batch_fn=_batch_of(discover, record))
        want, seen = _sim_schedule(seeds, politeness, discover)
        assert _schedule(out["admissions"]) == want
        assert out["seen"] == seen
        if num_partitions == 2:
            routers = {h._actor_id.hex() for h in _idle_routers()}
            assert len(routers) == cp.N_DISCOVER_WORKERS
            assert set(log.read_text().split()) == routers

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_one_driver_wait_per_iteration(self, ray_session, tmp_path,
                                           monkeypatch, checkpoint):
        """Each non-empty iteration makes exactly one ray.get: a crawl
        with more iterations makes that many more calls.  Admission
        tables reach the driver only at each checkpoint, for its
        segment, and in one call at the end."""
        import sys

        import ray
        from hepcrawl_ray.pipelines import crawl as cp

        real_get = ray.get
        calls = []

        def spy(refs, *args, **kwargs):
            out = real_get(refs, *args, **kwargs)
            # the crawl's own calls, also through frontier.get_settled
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("hepcrawl_ray."):
                vals = out if isinstance(out, list) else [out]
                calls.append(any(isinstance(v, pa.Table) for v in vals))
            return out

        def crawl(n, tag):
            seeds, politeness, discover = _multihost_tree(n)
            ckpt = str(tmp_path / tag) if checkpoint else None
            calls.clear()
            out = cp.run_iterative_crawl(
                seeds, politeness, discover, num_partitions=4,
                discover_batch_fn=_batch_of(discover),
                checkpoint_dir=ckpt, checkpoint_every=2 if ckpt else 0)
            assert _schedule(out["admissions"]) \
                == _sim_schedule(seeds, politeness, discover)[0]
            rounds = out["admissions"].column("round").to_pylist()
            # no delays: rounds are contiguous, one iteration each
            assert sorted(set(rounds)) == list(range(max(rounds) + 1))
            segments = 0
            if ckpt:
                with open(tmp_path / tag / "_iter_meta.json") as f:
                    segments = len(json.load(f)["segments"])
                assert segments == (max(rounds) + 1) // 2
            iters = max(rounds) + 1
            # the end fetches what the last checkpoint did not
            assert sum(calls) == segments + (iters > 2 * segments), calls
            # a checkpoint fetches its segment and waits for snapshots
            return len(calls) - 2 * segments, iters

        monkeypatch.setattr(ray, "get", spy)
        crawl(60, "warm")          # every later crawl reuses its actors
        small_calls, small_iters = crawl(60, "small")
        big_calls, big_iters = crawl(1000, "big")
        assert big_iters > small_iters + 2
        assert big_calls - small_calls == big_iters - small_iters

    def test_dead_partition_fails_fast(self, ray_session, tmp_path,
                                       monkeypatch):
        """A frontier partition killed after the first iteration: the
        crawl raises a RayActorError within a deadline instead of
        hanging, its actors go back idle, and the next crawl runs on
        the same routers and still equals the simulator.  The router
        that kills stays busy while the others fail, so its offers to
        the live partitions go out late: the crawl must not hand the
        actors on before they have landed."""
        import threading

        import ray
        from hepcrawl_ray.pipelines import crawl as cp

        seeds, politeness, discover = _multihost_tree(400)
        partitions = []
        real_start = cp.start_frontier
        marker = str(tmp_path / "killed")

        def start(*args, **kwargs):
            partitions[:] = real_start(*args, **kwargs)
            return partitions

        def kill_on_links(urls, seqs):
            import os
            import time

            import ray

            # links are admitted from the second iteration on
            if max(seqs.to_pylist()) < _CHILD_BASE:
                return
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                time.sleep(0.5)       # the others deliver after the kill
                return
            ray.kill(partitions[1])
            time.sleep(3)

        monkeypatch.setattr(cp, "start_frontier", start)
        caught = []

        def run():
            try:
                cp.run_iterative_crawl(
                    seeds, politeness, discover, num_partitions=3,
                    discover_batch_fn=_batch_of(discover, kill_on_links))
            except Exception as exc:      # noqa: BLE001 - inspected below
                caught.append((type(exc), type(getattr(exc, "cause", None))))

        th = threading.Thread(target=run, daemon=True)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive(), "the crawl hung on a dead partition"
        assert len(caught) == 1, "the crawl ended without an error"
        assert any(issubclass(t, ray.exceptions.RayActorError)
                   for t in caught[0]), caught[0]
        monkeypatch.setattr(cp, "start_frontier", real_start)

        routers = _idle_routers()
        assert len(routers) == cp.N_DISCOVER_WORKERS
        out = cp.run_iterative_crawl(seeds, politeness, discover,
                                     num_partitions=3,
                                     discover_batch_fn=_batch_of(discover))
        assert _idle_routers() == routers
        want, seen = _sim_schedule(seeds, politeness, discover)
        assert _schedule(out["admissions"]) == want
        assert out["seen"] == seen

    def test_dead_router_fails_its_offer(self, ray_session, tmp_path):
        """A router killed while it finds an iteration's links: the
        crawl raises the router's RayActorError, from the offer that
        took its slices (the driver never fetches a router's return),
        within a deadline; the crawl's actors go back idle, and the
        next crawl replaces the dead router and equals the
        simulator."""
        import threading

        import ray
        from hepcrawl_ray.frontier import FrontierPartition
        from hepcrawl_ray.pipelines import crawl as cp

        seeds, politeness, discover = _multihost_tree(400)
        marker = tmp_path / "killed"

        def die_on_links(urls, seqs):
            import os

            import ray

            # links are admitted from the second iteration on
            if max(seqs.to_pylist()) < _CHILD_BASE:
                return
            me = ray.get_runtime_context().get_actor_id()
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return
            os.write(fd, me.encode())
            os.close(fd)
            ray.kill(ray.get_runtime_context().current_actor)

        caught = []

        def run():
            try:
                cp.run_iterative_crawl(
                    seeds, politeness, discover, num_partitions=3,
                    discover_batch_fn=_batch_of(discover, die_on_links))
            except Exception as exc:      # noqa: BLE001 - inspected below
                caught.append(exc)

        th = threading.Thread(target=run, daemon=True)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive(), "the crawl hung on a dead router"
        assert len(caught) == 1, "the crawl ended without an error"
        exc = caught[0]
        assert isinstance(exc, ray.exceptions.RayActorError), repr(exc)
        assert exc.actor_id == marker.read_text(), repr(exc)

        idle = cp._WARM._idle
        assert sum(c is FrontierPartition for c, _ in idle) == 3
        routers = _idle_routers()
        assert len(routers) == cp.N_DISCOVER_WORKERS
        assert marker.read_text() in {h._actor_id.hex() for h in routers}
        out = cp.run_iterative_crawl(seeds, politeness, discover,
                                     num_partitions=3,
                                     discover_batch_fn=_batch_of(discover))
        assert len(_idle_routers() - routers) == 1     # the replacement
        want, seen = _sim_schedule(seeds, politeness, discover)
        assert _schedule(out["admissions"]) == want
        assert out["seen"] == seen
