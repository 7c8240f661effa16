"""Traced run: driver-side spans, an in-process layer ledger, counters.

Everything here times the program from outside.  Spans wrap the
public calls a workload makes; the ledger calls each layer's public
function directly, in this process and without Ray, on the workload's
own inputs; counters come from ``FrontierPartition.get_metrics()``.
Nothing in the program is modified.

Layers a workload does not run (fetch and parse in the schedule-only
workloads, link discovery outside ``iterative_discover``) are still
measured, on a small side sample from the same seed, so every run
reports every per-layer metric; the trace file marks them
``on_path: false`` and they are left out of that workload's
orchestration residual.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa

from perfbench import gen
from perfbench.workloads import NUM_PARTITIONS

LEDGER_SAMPLE = 4096    # admitted URLs pushed through fetch and parse


class Tracer:
    """In-memory spans: name, start, end, parent and run id."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def mark(self, name, at):
        self.spans.append({"id": len(self.spans), "name": name,
                           "run": self.run_id,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": at, "end": at})

    @contextlib.contextmanager
    def wrapping(self, module, attrs, prefix):
        """Patch ``module.<attr>`` for each attr with a spanning wrapper
        for the duration of the block (module-global lookups inside the
        program then go through the wrapper)."""
        saved = {a: getattr(module, a) for a in attrs}

        def wrap(a, fn):
            def inner(*args, **kw):
                with self.span(f"{prefix}.{a}"):
                    return fn(*args, **kw)
            return inner

        for a, fn in saved.items():
            setattr(module, a, wrap(a, fn))
        try:
            yield
        finally:
            for a, fn in saved.items():
                setattr(module, a, fn)

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def first(self, name):
        return next((s for s in self.spans if s["name"] == name), None)


def _timed(fn, *a, **kw):
    t = time.perf_counter()
    out = fn(*a, **kw)
    return out, time.perf_counter() - t


# ------------------------------------------------------------ ledger --

def frontier_ledger(raw, politeness, salted, workdir):
    """canonicalize -> route -> offer/seal -> checkpoint -> drain over
    ``raw`` (a seeds-like table), in-process.  Returns (layer values,
    work counts, admissions table)."""
    from hepcrawl_ray.frontier import (
        FrontierPartition,
        canonicalize_batch,
        route_partition_ids,
    )
    from hepcrawl_ray.state import SeenSet

    n = raw.num_rows
    offers, t_canon = _timed(canonicalize_batch, raw)
    hosts = offers.column("host").to_pylist()
    hashes = offers.column("url_hash").to_numpy()
    parts, t_route = _timed(route_partition_ids, hosts, hashes,
                            NUM_PARTITIONS, salted)
    pol = politeness.to_pylist()
    fps = [FrontierPartition(i, NUM_PARTITIONS, pol, salted_hosts=salted)
           for i in range(NUM_PARTITIONS)]
    t_seal = 0.0
    for i, fp in enumerate(fps):
        fp.offer(offers.filter(pa.array(parts == i)))
        _, dt = _timed(fp.seal)
        t_seal += dt
    ck = os.path.join(workdir, "ledger_ckpt")
    t_ck = 0.0
    for fp in fps:
        _, dt = _timed(fp.checkpoint, ck)
        t_ck += dt
    ck_bytes = sum(os.path.getsize(os.path.join(d, f))
                   for d, _, fs in os.walk(ck) for f in fs)
    shutil.rmtree(ck, ignore_errors=True)
    drained, t_drain = [], 0.0
    for fp in fps:
        while fp.pending():
            out, dt = _timed(fp.drain_chunk, 1 << 18)
            drained.append(out)
            t_drain += dt
    adm = pa.concat_tables(drained).sort_by(
        [("round", "ascending"), ("host", "ascending"),
         ("pop_idx", "ascending")])

    # seen set alone: every distinct key once (new), then again (dup)
    keys = np.unique(hashes)
    mt = np.zeros(len(keys), dtype=np.int64)
    seen = SeenSet(capacity=max(1 << 16, len(keys)))
    _, t_new = _timed(seen.admit_many, keys, mt)
    _, t_dup = _timed(seen.admit_many, keys, mt)
    rows = adm.num_rows
    vals = {
        "frontier.canonicalize_us_per_url": 1e6 * t_canon / n,
        "frontier.route_us_per_url": 1e6 * t_route / n,
        "frontier.seal_us_per_row": 1e6 * t_seal / n,
        "frontier.checkpoint_s": t_ck,
        "frontier.checkpoint_bytes": float(ck_bytes),
        "frontier.drain_us_per_row": 1e6 * t_drain / max(1, rows),
        "state.seen_ns_per_new_key": 1e9 * t_new / len(keys),
        "state.seen_ns_per_dup_key": 1e9 * t_dup / len(keys),
        "state.seen_bytes_per_key": len(seen.to_bytes()) / len(keys),
    }
    total_s = {"canonicalize": t_canon, "route": t_route, "seal": t_seal,
               "checkpoint": t_ck, "drain": t_drain}
    return vals, total_s, {"offered": n, "admitted": rows}, adm


def fetch_parse_ledger(corpus_path, adm, batch_size):
    """KeyedFetchStage then ParseStage (and ParseStage's three parts
    called on their own) over up to LEDGER_SAMPLE admitted rows, in
    admission order and batches of ``batch_size``."""
    from hepcrawl_ray import codecs
    from hepcrawl_ray.caption import parse_caption_batch
    from hepcrawl_ray.stages import KeyedFetchStage, ParseStage

    sample = adm.slice(0, LEDGER_SAMPLE)
    fetch = KeyedFetchStage(corpus_path)
    reads = [0]
    for f in fetch.files:
        orig = f.read_row_group

        def counted(*a, _orig=orig, **kw):
            reads[0] += 1
            return _orig(*a, **kw)
        f.read_row_group = counted
    parse = ParseStage(verify_pixels=True, drop_bytes=True)
    t_fetch = t_parse = t_dec = t_cap = t_ph = 0.0
    n_img = n_batches = 0
    for s in range(0, sample.num_rows, batch_size):
        b = sample.slice(s, batch_size)
        n_batches += 1
        fetched, dt = _timed(fetch, b)
        t_fetch += dt
        _, dt = _timed(parse, fetched)
        t_parse += dt
        blobs = fetched.column("bytes").to_pylist()
        fmts = fetched.column("fmt").to_pylist()
        t = time.perf_counter()
        lums = [codecs.decode_luma(x, f)[0] for x, f in zip(blobs, fmts)
                if x is not None]
        t_dec += time.perf_counter() - t
        n_img += len(lums)
        _, dt = _timed(parse_caption_batch,
                       fetched.column("caption").combine_chunks())
        t_cap += dt
        _, dt = _timed(codecs.phash64_many_from_luma, lums)
        t_ph += dt
    n = sample.num_rows
    vals = {
        "stages.fetch_us_per_url": 1e6 * t_fetch / n,
        "stages.fetch_rowgroup_reads_per_batch": reads[0] / n_batches,
        "stages.parse_us_per_url": 1e6 * t_parse / n,
        "codecs.decode_luma_us_per_img": 1e6 * t_dec / max(1, n_img),
        "caption.parse_caption_batch_us_per_row": 1e6 * t_cap / n,
        "codecs.phash_us_per_img": 1e6 * t_ph / max(1, n_img),
    }
    return vals, {"fetch_us": 1e6 * t_fetch / n, "parse_us": 1e6 * t_parse / n}


def discover_ledger(tree, adm):
    """DiscoverRouteStage (buffered: extraction and canonicalization,
    no delivery) over admitted rows in 4096-row chunks, as the
    discover workers receive them."""
    from hepcrawl_ray.stages import DiscoverRouteStage

    stage = DiscoverRouteStage(tree.rows, [], NUM_PARTITIONS, None,
                               discover_batch_fn=tree.batch, buffered=True)
    t = time.perf_counter()
    for s in range(0, adm.num_rows, 4096):
        stage(adm.slice(s, 4096))
    dt = time.perf_counter() - t
    return 1e6 * dt / max(1, adm.num_rows)


# -------------------------------------------------------- per_layer --

def _timeline_busy(t_start, t_end):
    """Summed actor/task busy seconds per method inside the window,
    from ray.timeline() (public API; events arrive asynchronously)."""
    import ray

    busy = {}
    for e in ray.timeline():
        name = e.get("cat", "")
        if not name.startswith("task::") or "dur" not in e:
            continue
        ts = e["ts"] / 1e6
        if t_start <= ts <= t_end:
            busy[name[6:]] = busy.get(name[6:], 0.0) + e["dur"] / 1e6
    return busy


def per_layer(wl, reps, traced, tracer, cores):
    """Per-layer metric values for a traced run -> (values, report).
    ``cores``: the CPUs the crawl may use at once (the Ray session's
    logical CPUs), for the orchestration residual."""
    name = wl.name
    inp = wl.inp
    workdir = os.path.join(wl.workdir, "ledger")
    os.makedirs(workdir, exist_ok=True)
    wall = statistics.median(r.wall_s for r in reps)
    urls = statistics.median(r.urls for r in reps)
    metrics_parts = traced.out["metrics"]
    offered_rt = sum(m["offered"] for m in metrics_parts)
    admitted_rt = sum(m["admitted_to_queue"] for m in metrics_parts)
    adm_parts = [m["admitted_to_queue"] for m in metrics_parts]

    on_path = {"fetch_parse": name == "crawl_verify",
               "discover": name == "iterative_discover"}
    if name == "iterative_discover":
        tree = inp["tree"]
        # the offers the engine sees: seeds plus every admitted node's
        # links (each node is admitted once and discovers once)
        links, _ = tree.batch(inp["expect_urls"],
                              pa.array(np.zeros(tree.n, np.int64)))
        raw = pa.concat_tables([
            inp["seeds"].select(["url", "priority", "seq", "mtime",
                                 "set_id"]),
            links])
        salted = None
    else:
        raw = inp["seeds"]
        salted = inp["salted_hosts"]
    vals, tot_s, counts, adm = frontier_ledger(raw, inp["politeness"],
                                               salted, workdir)

    if on_path["fetch_parse"]:
        corpus, fp_adm = inp["corpus_path"], adm
    else:
        side = gen.crawl_verify(wl.seed, workdir, n_images=256, n_urls=4096,
                                rowgroup_rows=16)
        _, _, _, fp_adm = frontier_ledger(side["seeds"], side["politeness"],
                                          None, workdir)
        corpus = side["corpus_path"]
    fp_vals, fp_us = fetch_parse_ledger(corpus, fp_adm, 2048)
    vals.update(fp_vals)

    if on_path["discover"]:
        dtree, d_adm = inp["tree"], adm
    else:
        dside = gen.iterative_discover(wl.seed, n_urls=8192)
        dtree = dside["tree"]
        d_adm = pa.table({"url": dside["expect_urls"],
                          "seq": np.arange(dtree.n, dtype=np.int64)})
    vals["stages.discover_us_per_row"] = discover_ledger(dtree, d_adm)

    # counters from the traced repetition
    vals["frontier.admit_ratio"] = admitted_rt / max(1, offered_rt)
    vals["frontier.partition_skew"] = max(adm_parts) / max(
        1e-9, statistics.mean(adm_parts))

    # driver-side spans of the traced repetition
    t = tracer
    loop_work_s = tot_s["drain"]
    timeline = _timeline_busy(traced.out["t_start"], traced.out["t_end"])
    if name == "iterative_discover":
        whole = t.total("pipelines.crawl.run_iterative_crawl")
        start_s = t.total("pipelines.crawl.start_frontier")
        offer_s = t.total("pipelines.crawl.offer_seeds")
        loop_s = whole - start_s - offer_s
        iterations = traced.out["iterations"]
        seal_s = timeline.get("FrontierPartition.seal", 0.0)
        drain_s = timeline.get("FrontierPartition.drain", 0.0)
        stream_s, stream_start_s = loop_s, loop_s
        loop_work_s = (tot_s["drain"] + tot_s["seal"] + tot_s["canonicalize"]
                       + tot_s["route"]
                       + vals["stages.discover_us_per_row"]
                       * counts["admitted"] / 1e6)
    else:
        start_s = t.total("pipelines.crawl.start_frontier")
        offer_s = t.total("pipelines.crawl.offer_seeds")
        seal_s = t.total("frontier.seal")
        drain_s = t.total("pipelines.crawl.drain")
        loop_s = drain_s
        stream = t.first("pipelines.crawl.stream")
        first = t.first("pipelines.crawl.first_record")
        stream_s = stream["end"] - stream["start"]
        stream_start_s = first["start"] - stream["start"]
        iterations = max(1, -(-traced.out["drain_blocks"] // NUM_PARTITIONS))
    vals.update({
        "pipelines.crawl.start_frontier_s": start_s,
        "pipelines.crawl.offer_seeds_s": offer_s,
        "frontier.seal_s": seal_s,
        "pipelines.crawl.drain_s": drain_s,
        "pipelines.crawl.stream_start_s": stream_start_s,
        "pipelines.crawl.stream_s": stream_s,
        "pipelines.crawl.iterations": float(iterations),
        "pipelines.crawl.iter_overhead_ms":
            1e3 * (loop_s - loop_work_s) / iterations,
    })

    # residual: wall x cores per URL minus the on-path ledger per URL
    ledger_s = tot_s["canonicalize"] + tot_s["route"] + tot_s["seal"] \
        + tot_s["drain"]
    if name == "frontier_dense":
        ledger_s += tot_s["checkpoint"]
    if on_path["fetch_parse"]:
        ledger_s += (fp_us["fetch_us"] + fp_us["parse_us"]) \
            * counts["admitted"] / 1e6
    if on_path["discover"]:
        ledger_s += vals["stages.discover_us_per_row"] \
            * counts["admitted"] / 1e6
    vals["orchestration_residual_us_per_url"] = \
        1e6 * (wall * cores - ledger_s) / urls
    vals["tracing_overhead_s"] = traced.wall_s - wall
    shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: float(v) for k, v in sorted(vals.items())}
    report = {
        "spans": tracer.spans,
        "ledger_on_path": on_path,
        "ledger_seconds": tot_s,
        "ledger_counts": counts,
        "untraced_wall_s": [r.wall_s for r in reps],
        "traced_wall_s": traced.wall_s,
        "frontier_metrics": metrics_parts,
        "timeline_busy_s": timeline,
        "layer_map": LAYER_MAP,
        "metrics": metrics,
    }
    return metrics, report


# Which end-to-end metric each per-layer metric should move, on which
# workload, and where no change is predicted (the layer is bypassed or
# below 3% of the wall time there).
_ALL = ["crawl_verify", "iterative_discover", "frontier_dense"]
_FRONTIER_ONLY = ["iterative_discover", "frontier_dense"]


def _row(metrics, moves, on, no_change_on=()):
    return {m: {"moves": moves, "on": on, "no_change_on": list(no_change_on)}
            for m in metrics}


LAYER_MAP = {
    **_row(["stages.parse_us_per_url", "codecs.decode_luma_us_per_img",
            "caption.parse_caption_batch_us_per_row",
            "codecs.phash_us_per_img", "stages.fetch_us_per_url",
            "stages.fetch_rowgroup_reads_per_batch"],
           ["urls_per_s"], ["crawl_verify"], _FRONTIER_ONLY),
    **_row(["frontier.canonicalize_us_per_url", "frontier.route_us_per_url",
            "pipelines.crawl.offer_seeds_s"],
           ["urls_per_s", "first_record_s"],
           ["frontier_dense", "crawl_verify"]),
    **_row(["frontier.seal_us_per_row", "frontier.seal_s",
            "state.seen_ns_per_new_key", "state.seen_ns_per_dup_key",
            "frontier.admit_ratio"],
           ["urls_per_s"], _FRONTIER_ONLY, ["crawl_verify"]),
    **_row(["frontier.drain_us_per_row", "pipelines.crawl.drain_s",
            "frontier.partition_skew"],
           ["urls_per_s"], _FRONTIER_ONLY),
    **_row(["frontier.checkpoint_s", "frontier.checkpoint_bytes",
            "state.seen_bytes_per_key"],
           ["urls_per_s"], ["frontier_dense"],
           ["crawl_verify", "iterative_discover"]),
    **_row(["stages.discover_us_per_row", "pipelines.crawl.iterations",
            "pipelines.crawl.iter_overhead_ms"],
           ["urls_per_s"], ["iterative_discover"],
           ["crawl_verify", "frontier_dense"]),
    **_row(["pipelines.crawl.start_frontier_s",
            "pipelines.crawl.stream_start_s", "pipelines.crawl.stream_s"],
           ["first_record_s", "urls_per_s"], ["crawl_verify"]),
    **_row(["orchestration_residual_us_per_url"], ["urls_per_s"], _ALL),
}
