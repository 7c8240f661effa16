"""Frontier vs. reference-simulator equivalence (the ordering oracle).

Mirrors the reference's golden-fixture strategy
(reference: tests/functional/arxiv/test_arxiv.py:36-127 compares crawl
output to expected JSON): same seed list + politeness budget into both
the pure-Python simulator (the spec) and the partitioned engine; the
full admission order and the final URL-seen set must match exactly.
"""

import numpy as np
import pyarrow as pa
import pytest

from hepcrawl_ray import synth, urlkit
from hepcrawl_ray.frontier import FrontierPartition, canonicalize_batch
from hepcrawl_ray.sim import simulate


def run_engine(seeds: pa.Table, politeness: pa.Table, num_partitions: int,
               salted_hosts=None, checkpoint_after_rounds=None,
               checkpoint_dir=None, seals=1, edit_checkpoint=None):
    """Drive FrontierPartition objects directly (no Ray — the actor layer
    adds no semantics; crawl_pipeline tests cover the Ray path).  Each
    partition's offers go in ``seals`` consecutive pieces, each sealed;
    ``edit_checkpoint(dir)`` runs between checkpoint and restore."""
    pol_rows = politeness.to_pylist() \
        if isinstance(politeness, pa.Table) else list(politeness)
    parts = [FrontierPartition(i, num_partitions, pol_rows,
                               salted_hosts=salted_hosts)
             for i in range(num_partitions)]
    offers = canonicalize_batch(seeds)
    from hepcrawl_ray.frontier import route_partition_ids

    part_ids = route_partition_ids(offers.column("host").to_pylist(),
                                   offers.column("url_hash").to_numpy(),
                                   num_partitions, salted_hosts)
    for i, p in enumerate(parts):
        mine = offers.filter(pa.array(part_ids == i))
        step = max(1, -(-mine.num_rows // seals))
        for s in range(0, mine.num_rows, step):
            p.offer(mine.slice(s, step))
            p.seal()
    admitted = []
    if checkpoint_after_rounds is not None:
        for p in parts:
            admitted.append(p.drain(max_rounds=checkpoint_after_rounds))
            p.checkpoint(checkpoint_dir)
        if edit_checkpoint is not None:
            edit_checkpoint(checkpoint_dir)
        parts = [FrontierPartition.restore(checkpoint_dir, i)
                 for i in range(num_partitions)]
    for p in parts:
        admitted.append(p.drain())
    table = pa.concat_tables(admitted)
    # url breaks the ties between a salted host's sub-queues
    order = table.sort_by([("round", "ascending"), ("host", "ascending"),
                           ("pop_idx", "ascending"), ("url", "ascending")])
    seen = np.concatenate([p.seen_hashes() for p in parts])
    return order, set(seen.tolist()), parts


@pytest.fixture(scope="module")
def fixture_tables():
    images, _ = synth.generate_corpus(150)
    seeds = synth.generate_seeds(images)
    politeness = synth.generate_politeness()
    return images, seeds, politeness


@pytest.fixture(scope="module")
def six_hosts(fixture_tables):
    """(seeds, politeness, salted hosts, seals per partition)"""
    _, seeds, politeness = fixture_tables
    return seeds, politeness, None, 1


@pytest.fixture(scope="module")
def many_hosts():
    """1,200 hosts, three of them salted: k=2 and k=3 within their
    concurrency, and k=3 above a concurrency of 2.  Every third host
    has Allow rules that beat longer-matching Disallow ones, one in ten
    runs on the default budget, ~12% of rows re-offer an earlier URL
    with an older, equal or newer mtime (some as non-canonical
    variants), and ~10% of URLs share (priority, seq) with the next
    one, which sorts after it — the tie the seal's grouping must keep
    in row order.  Offered in 3 seals per partition."""
    rng = np.random.default_rng(29)
    hosts = [f"m{k:04d}.example.net" for k in range(1200)]
    salted = {hosts[0]: 2, hosts[1]: 3, hosts[2]: 3}
    conc = {hosts[0]: 4, hosts[1]: 5, hosts[2]: 2}
    pol = []
    for k, h in enumerate(hosts):
        if k % 10 == 9:
            continue
        ruled = k % 3 == 0
        pol.append({"host": h,
                    "max_concurrency": conc.get(h, int(rng.integers(1, 4))),
                    "min_delay_ms": int(rng.choice([0, 100, 250])),
                    "robots_disallow": ["/private/", "/*.pdf$"] if ruled
                    else [],
                    "robots_allow": ["/private/pub", "/docs/*.pdf$"]
                    if ruled else []})
    paths = ["/a/{}", "/private/{}", "/private/pub/{}", "/docs/{}.pdf",
             "/x/{}.pdf"]
    weight = np.ones(len(hosts))
    weight[:3] = 400.0
    host_idx = rng.choice(len(hosts), 9000, p=weight / weight.sum())
    rows, seq = [], 0
    for i, k in enumerate(host_idx.tolist()):
        url = f"http://{hosts[k]}" + paths[int(rng.integers(5))].format(i)
        prio = float(rng.choice([0.0, 0.0, 1.0, -1.0]))
        rows.append((url, prio, seq, 1000))
        if rng.random() < 0.1:
            rows.append((url + "z", prio, seq, 1000))
        if rows and rng.random() < 0.12:
            u, p, _, m = rows[int(rng.integers(len(rows)))]
            if rng.random() < 0.2:
                u = u.replace("http://m", "HTTP://M", 1)
            rows.append((u, p, seq + 1, m + int(rng.integers(-1, 3))))
            seq += 1
        seq += 1
    seeds = pa.table(dict(zip(["url", "priority", "seq", "mtime"],
                              map(list, zip(*rows)))))
    return seeds, pol, salted, 3


def expected_order(seeds, politeness, salted_hosts=None):
    """``sim.simulate``'s schedule as (round, host, url, seq) rows in
    the engine's (round, host, pop_idx, url) order, and its seen set.
    A host salted k ways is k queues with a concurrency share each
    (``FrontierPartition._share_for``); each queue's schedule is the
    spec's schedule over its own rows at that share."""
    import collections

    rows = seeds.to_pylist()
    pol = politeness.to_pylist() if isinstance(politeness, pa.Table) \
        else list(politeness)
    ref = simulate(rows, pol)
    salted = {h: k for h, k in (salted_hosts or {}).items() if k > 1}
    runs = [[a for a in ref.admissions if a[1] not in salted]]
    budget = {p["host"]: p for p in pol}
    canon = [urlkit.canonicalize_url(r["url"]) for r in rows]
    for h, k in salted.items():
        mine = [(r, urlkit.url_hash64(c) % k) for r, c in zip(rows, canon)
                if urlkit.host_of(c) == h]
        row = budget.get(h, {"host": h, "max_concurrency": 2,
                             "min_delay_ms": 0})
        c = row["max_concurrency"]
        for sub in range(k):
            share = max(1, c // k + (sub < c % k))
            runs.append(simulate([r for r, s in mine if s == sub],
                                 [{**row, "max_concurrency": share}])
                        .admissions)
    keyed = []
    for adm in runs:
        pops = collections.Counter()
        for r, h, u, s, _p, _m in adm:
            keyed.append(((r, h, pops[r, h], u), (r, h, u, s)))
            pops[r, h] += 1
    return [v for _, v in sorted(keyed)], ref.seen_hashes


def sim_result(seeds, politeness):
    return simulate(seeds.to_pylist(), politeness.to_pylist())


class TestOrderingEquivalence:
    @pytest.mark.parametrize(
        "case,num_partitions",
        [("six_hosts", 1), ("six_hosts", 2), ("six_hosts", 4),
         ("six_hosts", 7), ("many_hosts", 1), ("many_hosts", 4)],
        ids=["1", "2", "4", "7", "many_hosts-1", "many_hosts-4"])
    def test_order_and_seen_match_sim(self, request, case, num_partitions):
        seeds, politeness, salted, seals = request.getfixturevalue(case)
        want, want_seen = expected_order(seeds, politeness, salted)
        order, seen, parts = run_engine(seeds, politeness, num_partitions,
                                        salted_hosts=salted, seals=seals)

        got = list(zip(order.column("round").to_pylist(),
                       order.column("host").to_pylist(),
                       order.column("url").to_pylist(),
                       order.column("seq").to_pylist()))
        assert got == want, (
            f"admission order diverged at P={num_partitions}: "
            f"first diff {next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), '?')}")
        assert seen == want_seen

    def test_drop_metrics_match_sim(self, fixture_tables):
        _, seeds, politeness = fixture_tables
        ref = sim_result(seeds, politeness)
        _, _, parts = run_engine(seeds, politeness, 4)
        robots = sum(p.metrics["dropped_robots"] for p in parts)
        dups = sum(p.metrics["dropped_dup"] for p in parts)
        assert robots == ref.dropped_robots
        assert dups == ref.dropped_dup

    def test_recrawl_admits_twice(self, fixture_tables):
        _, seeds, politeness = fixture_tables
        order, _, _ = run_engine(seeds, politeness, 2)
        urls = order.column("url").to_pylist()
        # re-crawl rows (newer mtime) make some canonical URLs appear twice
        assert len(urls) > len(set(urls))

    def test_dirty_variants_deduped(self, fixture_tables):
        _, seeds, politeness = fixture_tables
        order, seen, _ = run_engine(seeds, politeness, 2)
        # every admitted URL is canonical
        for u in order.column("url").to_pylist()[:50]:
            assert urlkit.canonicalize_url(u) == u
        # seen set is over canonical hashes: dirty variants collapsed
        n_canon = len({urlkit.canonicalize_url(u)
                       for u in seeds.column("url").to_pylist()})
        assert len(seen) <= n_canon


class TestChunkedDrain:
    """drain_chunk: repeated bounded drains == one full drain, with
    every chunk's size pinned (VERDICT r3 item 2 — no partition ever
    materializes its whole schedule)."""

    CANON = [("round", "ascending"), ("host", "ascending"),
             ("pop_idx", "ascending")]

    def _twin_parts(self, seeds, politeness, num_partitions=3):
        from hepcrawl_ray.frontier import route_partition_ids
        pol_rows = politeness.to_pylist()
        offers = canonicalize_batch(seeds)
        part_ids = route_partition_ids(offers.column("host").to_pylist(),
                                       offers.column("url_hash").to_numpy(),
                                       num_partitions, None)
        out = []
        for mk in range(2):
            parts = [FrontierPartition(i, num_partitions, pol_rows)
                     for i in range(num_partitions)]
            for i, p in enumerate(parts):
                p.offer(offers.filter(pa.array(part_ids == i)))
                p.seal()
            out.append(parts)
        return out

    @pytest.mark.parametrize("target", [16, 64, 1000])
    def test_chunk_union_equals_full_drain(self, fixture_tables, target):
        _, seeds, politeness = fixture_tables
        full_parts, chunk_parts = self._twin_parts(seeds, politeness)
        full = pa.concat_tables([p.drain() for p in full_parts])

        chunks = []
        for p in chunk_parts:
            while p.pending() > 0:
                c = p.drain_chunk(target)
                chunks.append(c)
                # peak admission-table size per partition is bounded:
                # ~target plus one virtual round of overshoot
                rate = max(1.0, p.admit_rate())
                assert c.num_rows <= target + int(rate) + 1
        got = pa.concat_tables(chunks)
        assert got.num_rows == full.num_rows
        assert got.sort_by(self.CANON).equals(full.sort_by(self.CANON))

    def test_drained_columns_are_one_chunk(self, fixture_tables):
        """drain and drain_block return one chunk per column, not one
        per host queue (ray.put of a table pays per chunk)."""
        _, seeds, politeness = fixture_tables
        parts, block_parts = self._twin_parts(seeds, politeness)
        # partitions 1 and 2 hold several host queues, so each block
        # has one chunk per queue before it is joined
        outs = [parts[1].drain(2), parts[2].drain(),
                block_parts[1].drain_block(16)[0],
                block_parts[2].drain_block(None, 2)[0],
                block_parts[2].drain_block()[0]]
        assert all(len(set(t.column("host").to_pylist())) > 1
                   for t in outs)
        for t in outs:
            assert [c.num_chunks for c in t.columns] == [1] * t.num_columns

    def test_chunk_on_empty_partition(self, fixture_tables):
        _, _, politeness = fixture_tables
        p = FrontierPartition(0, 1, politeness.to_pylist())
        c = p.drain_chunk(100)
        assert c.num_rows == 0 and p.pending() == 0

    def test_run_crawl_chunked_equals_unchunked(self, ray_session,
                                                fixture_tables):
        from hepcrawl_ray.pipelines import crawl as cp
        images, seeds, politeness = fixture_tables

        def run(batch_size):
            out = cp.run_crawl(images, seeds, politeness, num_partitions=3,
                               width=2, batch_size=batch_size)
            t = pa.concat_tables(out["records"].iter_batches(
                batch_size=10_000, batch_format="pyarrow"))
            return t.sort_by("seq")

        # run_crawl drains in chunks of batch_size; 1 << 20 rows is far
        # above any partition's schedule, so each drains in one block
        assert run(32).equals(run(1 << 20))


class TestOfferArguments:
    """FrontierPartition.offer(*tables): a crawl passes the slices its
    routers returned for a partition as the arguments of one call."""

    @staticmethod
    def _offers(fixture_tables):
        _, seeds, politeness = fixture_tables
        return canonicalize_batch(seeds), politeness.to_pylist()

    def test_none_and_empty_slices_are_skipped(self, fixture_tables):
        offers, pol = self._offers(fixture_tables)
        p = FrontierPartition(0, 1, pol)
        assert p.offer() == 0
        assert p.offer(None, offers.slice(0, 0)) == 0
        assert p.seal()["seal_batches"] == 0       # nothing was buffered
        assert p.offer(None, offers.slice(0, 0), offers.slice(0, 5),
                       None) == 5
        m = p.seal()
        assert (m["offered"], m["seal_batches"]) == (5, 1)

    @pytest.mark.parametrize("k", [2, 5])
    def test_k_slices_seal_like_one_offer(self, fixture_tables, k):
        """k slices as separate arguments, in any order, seal to the
        same queues and metrics as one concatenated offer."""
        offers, pol = self._offers(fixture_tables)
        cuts = [offers.num_rows * i // k for i in range(k + 1)]
        slices = [offers.slice(s, e - s) for s, e in zip(cuts, cuts[1:])]
        one, many = FrontierPartition(0, 1, pol), FrontierPartition(0, 1, pol)
        assert one.offer(offers) == many.offer(*slices[::-1])
        assert one.seal() == many.seal()
        assert one.queues.keys() == many.queues.keys()
        for key, q in one.queues.items():
            assert q["rows"].equals(many.queues[key]["rows"])
        assert one.drain().equals(many.drain())

    def test_late_argument_runs_before_the_next_seal(self, ray_session,
                                                     fixture_tables):
        """An offer whose argument a router returns 0.5 s late still
        runs before the seal queued after it: an actor runs one
        caller's calls in the order they were queued, which the
        iterative crawl relies on to queue offer and seal unawaited."""
        import time

        import ray

        offers, pol = self._offers(fixture_tables)

        @ray.remote(num_cpus=0.05)
        class SlowRouter:
            def route(self, table):
                time.sleep(0.5)
                return table

        part = ray.remote(num_cpus=0.05)(FrontierPartition).remote(0, 1, pol)
        router = SlowRouter.remote()
        ray.get([part.pending.remote(), router.__ray_ready__.remote()])
        t0 = time.perf_counter()
        offered = part.offer.remote(router.route.remote(offers))
        metrics = ray.get(part.seal.remote())
        assert time.perf_counter() - t0 >= 0.5
        assert metrics["offered"] == ray.get(offered) == offers.num_rows
        ray.kill(part)
        ray.kill(router)


class TestResume:
    def test_kill_and_resume_exact(self, fixture_tables, tmp_path):
        _, seeds, politeness = fixture_tables
        full, seen_full, _ = run_engine(seeds, politeness, 3)
        resumed, seen_resumed, _ = run_engine(
            seeds, politeness, 3,
            checkpoint_after_rounds=2, checkpoint_dir=str(tmp_path))
        assert full.equals(resumed), "resume-from-checkpoint diverged"
        assert seen_full == seen_resumed

    def test_restores_a_bloom_cuckoo_checkpoint(self, fixture_tables,
                                                tmp_path):
        """A checkpoint written before the seen set became sorted runs
        holds it as a pickled ``{"bloom", "cuckoo"}`` pair: a Bloom
        filter's bytes and a cuckoo map's (``nbuckets``, ``size``,
        ``rng``, and (nbuckets, 4) ``keys`` (uint64) / ``vals`` /
        ``used`` slot arrays).  Restored, it drains the uninterrupted
        schedule and keeps every key's timestamp."""
        import pickle

        from hepcrawl_ray.state import BloomFilter

        def to_bloom_cuckoo(root):
            for i in range(3):
                path = root / f"part={i}" / "state.pkl"
                state = pickle.loads(path.read_bytes())
                seen = pickle.loads(state["seen"])
                keys, ts = seen["keys"], seen["ts"]
                bloom = BloomFilter(capacity=1 << 17, fpr=0.01)
                bloom.add_many(keys)
                nb = 1 << max(3, len(keys).bit_length() - 1)
                slots = np.random.default_rng(i).permutation(nb * 4)
                k, v = np.zeros(nb * 4, np.uint64), np.zeros(nb * 4, np.int64)
                used = np.zeros(nb * 4, bool)
                at = slots[:len(keys)]
                k[at], v[at], used[at] = keys.view(np.uint64), ts, True
                cuckoo = {"nbuckets": nb, "size": len(keys),
                          "rng": 0x853C49E6748FEA9B, "keys": k.reshape(nb, 4),
                          "vals": v.reshape(nb, 4),
                          "used": used.reshape(nb, 4)}
                state["seen"] = pickle.dumps(
                    {"bloom": bloom.to_bytes(),
                     "cuckoo": pickle.dumps(cuckoo, protocol=5)},
                    protocol=5)
                path.write_bytes(pickle.dumps(state, protocol=5))

        _, seeds, politeness = fixture_tables
        full, seen_full, full_parts = run_engine(seeds, politeness, 3)
        resumed, seen_resumed, parts = run_engine(
            seeds, politeness, 3, checkpoint_after_rounds=2,
            checkpoint_dir=tmp_path, edit_checkpoint=to_bloom_cuckoo)
        assert full.equals(resumed), "resume-from-checkpoint diverged"
        assert seen_full == seen_resumed

        def keys_and_times(part):
            d = pickle.loads(part.seen.to_bytes())
            return d["keys"].tolist(), d["ts"].tolist()

        assert [keys_and_times(p) for p in parts] == \
            [keys_and_times(p) for p in full_parts]


class TestPoliteness:
    def test_budget_respected(self, fixture_tables):
        _, seeds, politeness = fixture_tables
        order, _, _ = run_engine(seeds, politeness, 2)
        import collections

        budget = {r["host"]: (r["max_concurrency"], r["min_delay_ms"])
                  for r in politeness.to_pylist()}
        per_round = collections.Counter(
            zip(order.column("host").to_pylist(),
                order.column("round").to_pylist()))
        last_admit: dict[str, int] = {}
        for (host, rnd), count in sorted(per_round.items(), key=lambda kv: kv[0][1]):
            c, delay = budget[host]
            assert count <= c, f"{host} exceeded concurrency in round {rnd}"
            if host in last_admit:
                gap = rnd - last_admit[host]
                assert gap >= max(1, -(-delay // 100)), \
                    f"{host} violated min_delay at round {rnd}"
            last_admit[host] = rnd

    def test_salted_hot_host_budget_preserved(self, fixture_tables):
        """Salting splits a hot host across queues but the global
        per-round budget must still hold."""
        _, seeds, politeness = fixture_tables
        import collections

        order, seen, _ = run_engine(seeds, politeness, 2,
                                    salted_hosts={"host0.example.org": 3})
        ref = sim_result(seeds, politeness)
        assert seen == ref.seen_hashes  # seen-set unaffected by salting
        budget = {r["host"]: r["max_concurrency"] for r in politeness.to_pylist()}
        per_round = collections.Counter(
            zip(order.column("host").to_pylist(),
                order.column("round").to_pylist()))
        for (host, rnd), count in per_round.items():
            assert count <= budget[host]


class TestPriorities:
    def test_higher_priority_first_fifo_ties(self):
        politeness = pa.table({
            "host": ["h.org"], "max_concurrency": [1],
            "min_delay_ms": [0], "robots_disallow": [[]],
        }, schema=synth.POLITENESS_SCHEMA)
        seeds = pa.table({
            "url": [f"http://h.org/s/i{k}" for k in range(4)],
            "host": ["h.org"] * 4,
            "set_id": ["s"] * 4,
            "priority": [0.0, 1.0, 0.0, 1.0],
            "seq": [0, 1, 2, 3],
            "mtime": [1000] * 4,
            "dup_of": [None] * 4,
        }, schema=synth.SEEDS_SCHEMA)
        order, _, _ = run_engine(seeds, politeness, 1)
        assert order.column("seq").to_pylist() == [1, 3, 0, 2]
        ref = simulate(seeds.to_pylist(), politeness.to_pylist())
        assert [s for (_, _, _, s, _, _) in ref.admissions] == [1, 3, 0, 2]


class TestRobotsTxt:
    def test_parse_robots_txt(self):
        from hepcrawl_ray.frontier import parse_robots_rules

        def parse_robots_txt(body, user_agent="*"):
            return parse_robots_rules(body, user_agent)[0]

        body = """
# comment
User-agent: *
Disallow: /private/
Disallow: /tmp/

User-agent: evilbot
Disallow: /
"""
        assert parse_robots_txt(body) == ("/private/", "/tmp/")
        assert parse_robots_txt(body, user_agent="evilbot") \
            == ("/private/", "/tmp/", "/")
        assert parse_robots_txt("") == ()

    def test_robots_txt_in_politeness(self):
        from hepcrawl_ray.frontier import FrontierPartition, canonicalize_batch

        pol = [{"host": "h.org", "max_concurrency": 2, "min_delay_ms": 0,
                "robots_disallow": [],
                "robots_txt": "User-agent: *\nDisallow: /secret/"}]
        p = FrontierPartition(0, 1, pol)
        seeds = pa.table({
            "url": ["http://h.org/a/x", "http://h.org/secret/y"],
            "host": ["h.org"] * 2, "set_id": ["s"] * 2,
            "priority": [0.0] * 2, "seq": [0, 1], "mtime": [0, 0],
            "dup_of": [None, None],
        }, schema=synth.SEEDS_SCHEMA)
        p.offer(canonicalize_batch(seeds))
        p.seal()
        out = p.drain()
        assert out.column("url").to_pylist() == ["http://h.org/a/x"]
        assert p.metrics["dropped_robots"] == 1


def _hot_seeds(n_hot=3000, n_cold=40):
    """One pathologically hot host (n_hot URLs, mixed priorities so the
    sort interleaves) + a few cold hosts."""
    hosts = [f"host{k}.example.org" for k in range(3)]
    urls, hs, prio, seq = [], [], [], []
    s = 0
    for i in range(n_hot):
        urls.append(f"http://{hosts[0]}/p/{i:06d}")
        hs.append(hosts[0])
        prio.append(float(i % 5 - 2))
        seq.append(s)
        s += 1
    for i in range(n_cold):
        h = hosts[1 + i % 2]
        urls.append(f"http://{h}/c/{i:04d}")
        hs.append(h)
        prio.append(0.0)
        seq.append(s)
        s += 1
    n = len(urls)
    return pa.table({
        "url": urls, "host": hs, "set_id": ["s"] * n,
        "priority": prio, "seq": seq, "mtime": [1000] * n,
        "dup_of": [None] * n,
    }, schema=synth.SEEDS_SCHEMA), pa.table({
        "host": hosts, "max_concurrency": [4, 2, 1],
        "min_delay_ms": [0, 100, 0],
        "robots_disallow": [[], [], []],
    }, schema=synth.POLITENESS_SCHEMA)


class TestColdTailSpill:
    """SURVEY §4.1's frontier heap cap: a queue over the threshold
    keeps a bounded hot head in memory and spills the cold tail to
    parquet — with a BIT-IDENTICAL admission schedule, and exact
    checkpoint/restore including the spill manifest."""

    def _run(self, seeds, politeness, tmp, threshold,
             chunk_rows=None, checkpoint_at=None):
        from hepcrawl_ray.frontier import route_partition_ids

        pol = politeness.to_pylist()
        P = 2
        kw = {}
        if threshold:
            kw = {"spill_dir": str(tmp), "spill_threshold_rows": threshold}
        parts = [FrontierPartition(i, P, pol, **kw) for i in range(P)]
        offers = canonicalize_batch(seeds)
        pids = route_partition_ids(offers.column("host").to_pylist(),
                                   offers.column("url_hash").to_numpy(),
                                   P, None)
        for i, p in enumerate(parts):
            p.offer(offers.filter(pa.array(pids == i)))
            p.seal()
        out = []
        if checkpoint_at is not None:
            for p in parts:
                out.append(p.drain(max_rounds=checkpoint_at))
                p.checkpoint(str(tmp / "ckpt"))
            parts = [FrontierPartition.restore(str(tmp / "ckpt"), i)
                     for i in range(P)]
        for p in parts:
            if chunk_rows:
                while p.pending():
                    out.append(p.drain_chunk(chunk_rows))
            else:
                out.append(p.drain())
        t = pa.concat_tables(out).sort_by(
            [("round", "ascending"), ("host", "ascending"),
             ("pop_idx", "ascending")])
        return t, parts

    def test_spilled_schedule_identical_and_bounded(self, tmp_path):
        seeds, politeness = _hot_seeds()
        want, _ = self._run(seeds, politeness, tmp_path / "a", None)
        got, parts = self._run(seeds, politeness, tmp_path / "b", 256,
                               chunk_rows=200)
        assert got.equals(want)
        m = [p.get_metrics() for p in parts]
        assert sum(x["spilled_rows"] for x in m) > 0       # really spilled
        assert sum(x["spill_reloads"] for x in m) > 0      # really reloaded
        # the hot head never exceeded the cap
        assert max(x["max_hot_resident"] for x in m) <= 256

    def test_spill_mixed_with_new_offers(self, tmp_path):
        """Offers arriving AFTER a spill (some sorting into the hot
        head, some past the boundary into the tail) keep the schedule
        identical to the uncapped run."""
        from hepcrawl_ray.frontier import route_partition_ids

        seeds, politeness = _hot_seeds(n_hot=1200, n_cold=10)
        host = "host0.example.org"
        extra = pa.table({
            "url": [f"http://{host}/x/{i:05d}" for i in range(400)],
            "host": [host] * 400, "set_id": ["s"] * 400,
            # priorities straddle the whole range: half sort into the
            # hot head, half behind the spill boundary
            "priority": [float((i % 9) - 4) for i in range(400)],
            "seq": [10_000 + i for i in range(400)],
            "mtime": [1000] * 400, "dup_of": [None] * 400,
        }, schema=synth.SEEDS_SCHEMA)

        def run(threshold, tmp):
            pol = politeness.to_pylist()
            kw = {"spill_dir": str(tmp),
                  "spill_threshold_rows": threshold} if threshold else {}
            p = FrontierPartition(0, 1, pol, **kw)
            p.offer(canonicalize_batch(seeds))
            p.seal()
            out = [p.drain(max_rounds=30)]
            p.offer(canonicalize_batch(extra))
            p.seal()
            out.append(p.drain())
            return pa.concat_tables(out).sort_by(
                [("round", "ascending"), ("host", "ascending"),
                 ("pop_idx", "ascending")]), p

        want, _ = run(None, tmp_path / "u")
        got, p = run(128, tmp_path / "c")
        assert got.equals(want)
        assert p.metrics["spilled_rows"] > 0

    def test_spill_checkpoint_restore_exact(self, tmp_path):
        seeds, politeness = _hot_seeds()
        want, _ = self._run(seeds, politeness, tmp_path / "a", None)
        got, parts = self._run(seeds, politeness, tmp_path / "b", 200,
                               checkpoint_at=40)
        assert got.equals(want)
        # the restored partitions carried the spill manifest across
        assert sum(p.metrics["spilled_rows"] for p in parts) > 0


class TestRobotsRFC9309:
    """RFC 9309 wildcard / end-anchor / Allow longest-match support
    (round-5): the vectorized engine matcher, the scalar sim spec and
    the DuckDB regex translation must agree on every verdict, and the
    full engine==sim equivalence must hold with wildcard rules in the
    politeness table."""

    PATTERNS = ["/a", "/a/b", "/*.pdf$", "/*.pdf", "/fish*", "/*7",
                "/a$", "/", "/*/b", "/a*b*c$", "/set1/img00001*",
                "/private/*0$", "*", "/fish*.php"]
    PATHS = ["/", "/a", "/a/b", "/a/b/c", "/ab", "/a.pdf", "/x/a.pdf",
             "/pdfa", "/a/b7", "/set1/img0000017", "/private/set0/x0",
             "/fishheads", "/fish.php?id=2", "/fish/salmon.html",
             "/abc", "/axbyc", "/axbycd"]

    def test_parse_allow_rules(self):
        from hepcrawl_ray.frontier import parse_robots_rules

        body = ("User-agent: *\nDisallow: /private/\n"
                "Allow: /private/pub*\nDisallow: /*.zip$\n")
        dis, alw = parse_robots_rules(body)
        assert dis == ("/private/", "/*.zip$")
        assert alw == ("/private/pub*",)

    def test_matcher_equivalence_engine_sim_duckdb(self):
        import itertools

        import duckdb

        from hepcrawl_ray.frontier import (
            robots_blocked_mask,
            robots_pattern_to_regex,
        )
        from hepcrawl_ray.sim import _rule_matches, robots_blocked

        col = pa.array(self.PATHS)
        for dis in itertools.combinations(self.PATTERNS, 2):
            for alw in [(), ("/a/b",), ("/*.pdf$",), ("/fish*",)]:
                mask = robots_blocked_mask(col, dis, alw)
                ref = np.array([robots_blocked(p, dis, alw)
                                for p in self.PATHS])
                assert (mask == ref).all(), (dis, alw)
        con = duckdb.connect()
        for pat in self.PATTERNS:
            rx = robots_pattern_to_regex(pat)
            for p in self.PATHS:
                d = con.execute("select regexp_matches(?, ?)",
                                [p, rx]).fetchone()[0]
                assert d == _rule_matches(p, pat), (pat, p)

    def test_engine_matches_sim_with_wildcard_rules(self):
        images, _ = synth.generate_corpus(150)
        seeds = synth.generate_seeds(images)
        pol = synth.generate_politeness().to_pylist()
        for row in pol:
            # wildcard deny + an Allow that re-opens part of /private/
            row["robots_disallow"] = list(row["robots_disallow"]) \
                + ["/set*7$"]
            row["robots_allow"] = ["/private/*0$"]
        ref = simulate(seeds.to_pylist(), pol)
        assert ref.dropped_robots > 0
        order, seen, parts = run_engine(seeds, pol, 4)
        got = list(zip(order.column("round").to_pylist(),
                       order.column("host").to_pylist(),
                       order.column("url").to_pylist(),
                       order.column("seq").to_pylist()))
        want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
        assert got == want
        assert seen == ref.seen_hashes
        robots = sum(p.metrics["dropped_robots"] for p in parts)
        assert robots == ref.dropped_robots
        # the Allow rule actually re-admitted some /private/ URLs
        assert any("/private/" in u for (_, _, u, _) in got)


class TestSkewMitigation:
    def test_salting_spreads_hot_host_load(self):
        """The hot host (~50% of URLs) concentrates on one partition
        unsalted; salted k=4 it spreads, cutting the max partition load
        (the explicit skew-mitigation requirement)."""
        import numpy as np

        from hepcrawl_ray.frontier import canonicalize_batch, route_partition_ids

        images, _ = synth.generate_corpus(400)
        seeds = synth.generate_seeds(images, hot_host_frac=0.5)
        offers = canonicalize_batch(seeds)
        hosts = offers.column("host").to_pylist()
        hashes = offers.column("url_hash").to_numpy()
        P = 8

        def max_share(salted):
            pids = route_partition_ids(hosts, hashes, P, salted)
            counts = np.bincount(pids, minlength=P)
            return counts.max() / counts.sum()

        unsalted = max_share(None)
        salted = max_share({"host0.example.org": 4})
        assert unsalted > 0.45           # hot host pinned to one partition
        assert salted < unsalted - 0.15  # salting materially spreads it
        assert salted < 0.35
