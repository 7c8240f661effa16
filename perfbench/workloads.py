"""The three workloads, run through the public crawl API, and their
exact output checks.

A workload object owns its generated inputs and exposes:

- ``rep(tracer)``: one measured repetition; returns a ``Rep`` with the
  URLs completed, wall time, first-result time and what the checks
  need.  With a tracer, driver-side spans wrap each public call.
- ``check(rep)``: exact checks of that repetition's outputs; returns a
  list of failure strings (empty = correct).
- ``small_check()``: the same seed at a small size, unsalted, through
  the same public path; admission order must equal ``sim.simulate`` /
  ``sim.simulate_iterative``.  Runs during set-up, so it also warms
  the workers and imports the measured repetitions use.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from perfbench import gen

NUM_PARTITIONS = 4
ORDER_KEYS = [("round", "ascending"), ("host", "ascending"),
              ("pop_idx", "ascending")]


class NullTracer:
    """Tracing off: the ``trace.Tracer`` interface, doing nothing."""

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def mark(self, name, at):
        pass

    def wrapping(self, module, attrs, prefix):
        return contextlib.nullcontext()


@dataclass
class Rep:
    urls: int
    wall_s: float
    first_s: float
    out: dict = field(default_factory=dict)


def digest(obj):
    """Content digest of generated inputs or outputs (tables, arrays,
    bytes, scalars), independent of chunk layout."""
    h = hashlib.blake2b(digest_size=16)

    def add(arr):
        chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
        if not chunks:
            return
        flat = pa.concat_arrays(chunks)     # fresh buffers, offset 0
        bufs = flat.buffers()
        if flat.null_count == 0:
            bufs = bufs[1:]                 # validity bitmap is optional
        for b in bufs:
            if b is not None:
                h.update(b)

    for x in obj:
        if isinstance(x, pa.Table):
            for col in x.columns:
                add(col)
        elif isinstance(x, (pa.ChunkedArray, pa.Array)):
            add(x)
        elif isinstance(x, bytes):
            h.update(x)
        else:
            h.update(repr(x).encode())
    return h.hexdigest()


def schedule_digest(table):
    """Digest of an output's admission schedule in (round, host,
    pop_idx) order."""
    t = table.sort_by(ORDER_KEYS)
    return digest([t.select(["round", "host", "url", "seq"])])


def reconcile(metrics, n_offered, n_out):
    """Frontier lineage: every offered row is dropped by robots, dropped
    as a duplicate or admitted; everything admitted is drained into
    the output."""
    bad = []
    for m in metrics:
        lhs = m["offered"]
        rhs = m["dropped_robots"] + m["dropped_dup"] + m["admitted_to_queue"]
        if lhs != rhs:
            bad.append(f"partition {m['partition']}: offered {lhs} != "
                       f"dropped_robots+dropped_dup+admitted {rhs}")
    tot = {k: sum(m[k] for m in metrics)
           for k in ("offered", "admitted_to_queue", "drained")}
    if tot["offered"] != n_offered:
        bad.append(f"offered {tot['offered']} != generated {n_offered}")
    if not tot["admitted_to_queue"] == tot["drained"] == n_out:
        bad.append(f"admitted {tot['admitted_to_queue']} / drained "
                   f"{tot['drained']} != output rows {n_out}")
    return bad


def order_vs_sim(table, ref):
    """Admission order of an engine output table vs a SimResult."""
    t = table.sort_by(ORDER_KEYS)
    got = list(zip(t.column("round").to_pylist(),
                   t.column("host").to_pylist(),
                   t.column("url").to_pylist(),
                   t.column("seq").to_pylist()))
    want = [(r, h, u, s) for (r, h, u, s, _p, _m) in ref.admissions]
    if got != want:
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        return [f"admission order differs from sim at position {first} "
                f"({len(got)} engine vs {len(want)} sim rows)"]
    return []


def same_url_set(got, offered):
    """``got`` holds each offered URL exactly once (and nothing else)."""
    want = pc.unique(offered)
    return (len(got) == len(want)
            and pc.count_distinct(got).as_py() == len(want)
            and pc.all(pc.is_in(got, value_set=want)).as_py())


def _kill(actors):
    import ray

    for a in actors:
        ray.kill(a)


def _consume(ds, t0, columns=None):
    """Stream a Dataset to the driver; returns (table, first-batch s)."""
    first = None
    parts = []
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        if first is None:
            first = time.perf_counter() - t0
        parts.append(b.select(columns) if columns else b)
    table = pa.concat_tables(parts) if parts else None
    return table, (time.perf_counter() - t0 if first is None else first)


# ------------------------------------------------------- crawl_verify --

class CrawlVerify:
    """Full ``run_crawl``: frontier -> keyed fetch -> decode/verify ->
    caption parse, over an image+caption corpus stored as parquet."""

    name = "crawl_verify"
    RECORD_COLS = ["url", "image_id", "round", "host", "pop_idx", "seq",
                   "fetch_error", "pixels_verified", "phash", "phash_decoded",
                   "title", "abstract", "authors", "collaborations", "dois",
                   "date_published", "document_type", "error"]
    GOLDEN_COLS = ["title", "abstract", "authors", "collaborations", "dois",
                   "date_published", "document_type", "error"]
    BATCH_SIZE = 2048

    def __init__(self, seed, workdir, scale=1.0):
        self.seed, self.workdir = seed, workdir
        self.inp = gen.crawl_verify(
            seed, workdir, n_images=max(64, int(2048 * scale)),
            n_urls=max(512, int(40960 * scale)))

    def fingerprint(self):
        i = self.inp
        return (i["seeds"], i["images"], i["golden"], i["politeness"],
                i["expect_admitted"])

    def _run(self, inp, salted, tracer):
        """The public calls ``run_crawl`` makes, in its order, each
        wrapped in a span (``run_crawl`` itself when untraced)."""
        from hepcrawl_ray.pipelines import crawl as cp

        import ray

        t0 = time.perf_counter()
        kw = dict(batch_size=self.BATCH_SIZE, verify_pixels=True,
                  drop_bytes=True)
        drain_blocks = None
        if isinstance(tracer, NullTracer):
            res = cp.run_crawl(inp["corpus_path"], inp["seeds"],
                               inp["politeness"],
                               num_partitions=NUM_PARTITIONS,
                               salted_hosts=salted, **kw)
            records, metrics = res["records"], res["metrics"]
            offered = res["offered"]
            with tracer.span("pipelines.crawl.stream"):
                table, first = _consume(records, t0, self.RECORD_COLS)
        else:
            pol = inp["politeness"].to_pylist()
            with tracer.span("pipelines.crawl.start_frontier"):
                actors = cp.start_frontier(pol, NUM_PARTITIONS, salted)
            with tracer.span("pipelines.crawl.offer_seeds"):
                offered = cp.offer_seeds(actors, inp["seeds"],
                                         NUM_PARTITIONS, salted_hosts=salted)
            with tracer.span("frontier.seal"):
                ray.get([a.seal.remote() for a in actors])
            with tracer.span("pipelines.crawl.drain"):
                adm = cp.drain_admissions_chunked(actors, seal=False)
            drain_blocks = adm.num_blocks()
            with tracer.span("pipelines.crawl.fetch_and_parse"):
                records = cp.fetch_and_parse(
                    adm, inp["corpus_path"], fetch_concurrency=4,
                    parse_concurrency=4, **kw)
            with tracer.span("pipelines.crawl.stream"):
                table, first = _consume(records, t0, self.RECORD_COLS)
            tracer.mark("pipelines.crawl.first_record", t0 + first)
            with tracer.span("frontier.get_metrics"):
                metrics = ray.get([a.get_metrics.remote() for a in actors])
            _kill(actors)
        wall = time.perf_counter() - t0
        n = 0 if table is None else table.num_rows
        return Rep(n, wall, first, {"table": table, "metrics": metrics,
                                    "offered": offered,
                                    "drain_blocks": drain_blocks})

    def rep(self, tracer):
        return self._run(self.inp, self.inp["salted_hosts"], tracer)

    def _check_records(self, inp, rep):
        t = rep.out["table"]
        bad = reconcile(rep.out["metrics"], inp["seeds"].num_rows,
                        0 if t is None else t.num_rows)
        if rep.out["offered"] != inp["seeds"].num_rows:
            bad.append("offer_seeds count differs from the seed rows")
        if t is None or t.num_rows != inp["expect_admitted"]:
            return bad + [f"records {0 if t is None else t.num_rows} != "
                          f"distinct URLs {inp['expect_admitted']}"]
        if not same_url_set(t.column("url"), inp["seeds"].column("url")):
            bad.append("record URL set != generated distinct URL set")
        if t.column("fetch_error").null_count != t.num_rows:
            bad.append("fetch_error rows present")
        if not pc.all(t.column("pixels_verified")).as_py():
            bad.append("pixels_verified is false on some rows")
        if not pc.all(pc.equal(t.column("phash"),
                               t.column("phash_decoded"))).as_py():
            bad.append("decoded phash != corpus phash on some rows")
        gold = inp["golden"]
        take = pc.index_in(t.column("image_id"),
                           value_set=gold.column("image_id").combine_chunks())
        if take.null_count:
            return bad + ["record image_id missing from the corpus"]
        g = gold.take(take)
        for c in self.GOLDEN_COLS:
            if not t.column(c).combine_chunks().equals(
                    g.column(c).combine_chunks()):
                bad.append(f"parsed {c} != synth.generate_corpus golden")
        return bad

    def check(self, rep):
        return self._check_records(self.inp, rep)

    def small_check(self):
        from hepcrawl_ray.sim import simulate

        small = gen.crawl_verify(self.seed, self.workdir, n_images=128,
                                 n_urls=1500, rowgroup_rows=16)
        rep = self._run(small, None, NullTracer())
        bad = self._check_records(small, rep)
        ref = simulate(small["seeds"].to_pylist(),
                       small["politeness"].to_pylist())
        if rep.out["table"] is not None:
            bad += order_vs_sim(rep.out["table"], ref)
        return bad


# ------------------------------------------------- iterative_discover --

class IterativeDiscover:
    """``run_iterative_crawl`` over the link-discovery tree with the
    vectorized ``discover_batch_fn`` (no fetch, no decode)."""

    name = "iterative_discover"
    ROUNDS_PER_ITER = 16

    def __init__(self, seed, workdir, scale=1.0):
        self.seed, self.workdir = seed, workdir
        self.inp = gen.iterative_discover(seed,
                                          n_urls=max(400, int(60000 * scale)))

    def fingerprint(self):
        i = self.inp
        return (i["seeds"], i["politeness"], i["tree"].host_of_node.tobytes(),
                i["expect_urls"], i["expect_admitted"])

    def _run(self, inp, rounds_per_iter, tracer):
        from hepcrawl_ray.pipelines import crawl as cp

        tree = inp["tree"]
        t0 = time.perf_counter()
        with tracer.span("pipelines.crawl.run_iterative_crawl"), \
                tracer.wrapping(cp, ["start_frontier", "offer_seeds"],
                                "pipelines.crawl"):
            res = cp.run_iterative_crawl(
                inp["seeds"], inp["politeness"], tree.rows,
                num_partitions=NUM_PARTITIONS,
                rounds_per_iter=rounds_per_iter,
                discover_batch_fn=tree.batch)
        wall = time.perf_counter() - t0
        adm = res["admissions"]
        n = 0 if adm is None else adm.num_rows
        # the admissions reach the caller only when the call returns
        iters = 0 if adm is None else len(np.unique(
            adm.column("round").to_numpy() // rounds_per_iter))
        return Rep(n, wall, wall, {"table": adm, "metrics": res["metrics"],
                                   "seen": res["seen"], "iterations": iters})

    def rep(self, tracer):
        return self._run(self.inp, self.ROUNDS_PER_ITER, tracer)

    @staticmethod
    def _check_admissions(inp, rep):
        t = rep.out["table"]
        n = 0 if t is None else t.num_rows
        metrics = rep.out["metrics"]
        offered = sum(m["offered"] for m in metrics)
        bad = reconcile(metrics, offered, n)
        if n != inp["expect_admitted"]:
            bad.append(f"admitted {n} != tree nodes {inp['expect_admitted']}")
        elif not same_url_set(t.column("url"), inp["expect_urls"]):
            bad.append("admitted URL set != the tree's node URLs")
        if len(rep.out["seen"]) != inp["expect_admitted"]:
            bad.append(f"seen set {len(rep.out['seen'])} != tree nodes")
        return bad

    def check(self, rep):
        return self._check_admissions(self.inp, rep)

    def small_check(self):
        from hepcrawl_ray.sim import simulate_iterative

        small = gen.iterative_discover(self.seed, n_urls=2000)
        rep = self._run(small, 1, NullTracer())
        bad = self._check_admissions(small, rep)
        ref = simulate_iterative(small["seeds"].to_pylist(),
                                 small["politeness"].to_pylist(),
                                 small["tree"].rows)
        if rep.out["table"] is not None:
            bad += order_vs_sim(rep.out["table"], ref)
        from hepcrawl_ray import urlkit

        want_seen = {urlkit.url_hash64(small["tree"].url(j))
                     for j in range(small["tree"].n)}
        if rep.out["seen"] != ref.seen_hashes or rep.out["seen"] != want_seen:
            bad.append("seen set differs from sim")
        return bad


# ----------------------------------------------------- frontier_dense --

class FrontierDense:
    """Schedule only: start_frontier -> offer_seeds -> seal ->
    per-partition checkpoint -> full drain_admissions_chunked."""

    name = "frontier_dense"

    def __init__(self, seed, workdir, scale=1.0):
        self.seed, self.workdir = seed, workdir
        self.inp = gen.frontier_dense(seed,
                                      n_offered=max(2000,
                                                    int(400_000 * scale)))

    def fingerprint(self):
        i = self.inp
        return (i["seeds"], i["politeness"], i["expect_urls"],
                i["expect_admitted"], i["expect_robots"])

    def _run(self, inp, salted, tracer):
        from hepcrawl_ray.pipelines import crawl as cp

        import ray

        ckdir = os.path.join(self.workdir, "ckpt")
        shutil.rmtree(ckdir, ignore_errors=True)
        pol = inp["politeness"].to_pylist()
        t0 = time.perf_counter()
        with tracer.span("pipelines.crawl.start_frontier"):
            actors = cp.start_frontier(pol, NUM_PARTITIONS, salted)
        with tracer.span("pipelines.crawl.offer_seeds"):
            offered = cp.offer_seeds(actors, inp["seeds"], NUM_PARTITIONS,
                                     salted_hosts=salted)
        with tracer.span("frontier.seal"):
            ray.get([a.seal.remote() for a in actors])
        with tracer.span("frontier.checkpoint"):
            ray.get([a.checkpoint.remote(ckdir) for a in actors])
            at_ckpt = ray.get([a.get_metrics.remote() for a in actors])
        with tracer.span("pipelines.crawl.drain"):
            adm = cp.drain_admissions_chunked(actors, seal=False)
        drain_blocks = adm.num_blocks()
        with tracer.span("pipelines.crawl.stream"):
            table, first = _consume(adm, t0)
        tracer.mark("pipelines.crawl.first_record", t0 + first)
        with tracer.span("frontier.get_metrics"):
            metrics = ray.get([a.get_metrics.remote() for a in actors])
        _kill(actors)
        wall = time.perf_counter() - t0
        return Rep(offered, wall, first,
                   {"table": table, "metrics": metrics, "offered": offered,
                    "at_ckpt": at_ckpt, "ckdir": ckdir,
                    "drain_blocks": drain_blocks})

    def rep(self, tracer):
        return self._run(self.inp, self.inp["salted_hosts"], tracer)

    @staticmethod
    def _check_schedule(inp, rep):
        from hepcrawl_ray.frontier import FrontierPartition

        t = rep.out["table"]
        n = 0 if t is None else t.num_rows
        metrics = rep.out["metrics"]
        n_off = inp["seeds"].num_rows
        bad = reconcile(metrics, n_off, n)
        if rep.out["offered"] != n_off:
            bad.append("offer_seeds count differs from the offered rows")
        if n != inp["expect_admitted"]:
            bad.append(f"admitted {n} != distinct allowed URLs "
                       f"{inp['expect_admitted']}")
        robots = sum(m["dropped_robots"] for m in metrics)
        if robots != inp["expect_robots"]:
            bad.append(f"dropped_robots {robots} != {inp['expect_robots']}")
        if n and not same_url_set(t.column("url"), inp["expect_urls"]):
            bad.append("admitted URL set != generated distinct allowed URLs")
        for i, want in enumerate(rep.out["at_ckpt"]):
            got = FrontierPartition.restore(rep.out["ckdir"], i).get_metrics()
            if got != want:
                bad.append(f"partition {i} checkpoint restores to {got}, "
                           f"get_metrics() was {want}")
        return bad

    def check(self, rep):
        return self._check_schedule(self.inp, rep)

    def small_check(self):
        from hepcrawl_ray.sim import simulate

        # above offer_seeds' one-batch fast path (65536 rows), so the
        # warm-up also starts the Dataset route the measured offers take
        small = gen.frontier_dense(self.seed, n_offered=70000)
        rep = self._run(small, None, NullTracer())
        bad = self._check_schedule(small, rep)
        ref = simulate(small["seeds"].to_pylist(),
                       small["politeness"].to_pylist())
        if rep.out["table"] is not None:
            bad += order_vs_sim(rep.out["table"], ref)
        if ref.dropped_robots != small["expect_robots"]:
            bad.append("sim dropped_robots != generator count")
        return bad


WORKLOADS = {w.name: w for w in (CrawlVerify, IterativeDiscover,
                                 FrontierDense)}
