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
