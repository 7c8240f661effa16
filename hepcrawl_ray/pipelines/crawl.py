"""The crawl pipeline: seeds -> frontier actors -> fetch -> parse -> write.

Ray-Data restructuring of the reference's spider lifecycle (traced in
SURVEY.md §3): the driver builds seed rows, a stateless
``canonicalize_batch`` stage computes crawl identity, a router stage
pushes rows to host-partitioned frontier actors (worker -> actor data
flow; the driver only orchestrates), the actors seal + drain the full
admission schedule in parallel virtual time, and ONE streaming Dataset
pipeline fetches bytes and parses captions over the admissions.

Scale notes (design for 256 nodes / 100 TB, tested single-node):

- Only the fetch/parse Dataset ever carries image bytes; frontier
  traffic is bytes-free URL metadata.
- The corpus index is broadcast once with ``ray.put`` and read in each
  fetch actor's ``__init__`` — never per batch.
- Admissions are returned as per-partition Arrow refs, each with its
  row count and byte size, and assembled into a Dataset from those
  (``admissions_dataset``) — no driver-side row loop, and no task
  spent reading block metadata.
- Frontier partitions and discover workers outlive a crawl: the next
  crawl in the same Ray session resets and reuses them instead of
  paying actor start-up again (``_WarmActors``).
- Output is written as partitioned Parquet under ``output_dir`` so a
  rerun can skip finished partitions; frontier state checkpoints under
  ``checkpoint_dir`` (exact resume, see tests/test_frontier.py).
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pyarrow as pa

from hepcrawl_ray.frontier import (
    ADMIT_SCHEMA,
    FrontierPartition,
    canonicalize_batch,
    offer_routed,
)
from hepcrawl_ray.stages import FetchParseStage


# CPU share of every actor that can outlive a crawl (frontier
# partitions, discover workers).  Small, because idle ones hold it too.
WARM_ACTOR_CPUS = 0.05


class _WarmActors:
    """The actors the last finished crawl handed back, for the next
    crawl in the same Ray session to reuse: a new actor answers its
    first call ~1.7 s after it is created, a warm one in milliseconds
    (lesson 18).  Only a session that runs several crawls gains, such
    as one that runs ``__ray_entry__.entry()`` and then the ``crawl_*``
    queries, which the registry orders back to back.  A one-crawl
    session (the ``crawl`` CLI) pays only the resets at release.  The
    rules:

    - a released actor is reset to nothing, and a taken one is reset
      with constructor arguments, so it behaves as a new actor;
    - only the last finished crawl's actors stay idle: a release kills
      the ones still idle, and a crawl kills every idle actor it does
      not take.  They are also killed when the session would have less
      than one whole CPU beside them, so a 1-CPU task always fits;
    - the list belongs to the Ray session that made it (job and node
      ID: a restarted local cluster numbers its jobs from 1 again, but
      its node ID is new); in a new one it is dropped without calling
      the actors;
    - a taken actor that turns out dead is replaced by a new one."""

    def __init__(self):
        self._lock = threading.Lock()
        self._session = None
        self._idle = []            # (class, handle)

    @staticmethod
    def _session_key():
        import ray

        if not ray.is_initialized():
            return None
        ctx = ray.get_runtime_context()
        return ctx.get_job_id(), ctx.get_node_id()

    def _swap(self, keep):
        """Make ``keep`` the idle list; returns the handles it replaces
        (none when they belong to an earlier session)."""
        key = self._session_key()
        with self._lock:
            old = [h for _, h in self._idle] if self._session == key else []
            self._session, self._idle = key, keep
        return old

    def take(self, cls, n):
        """Remove and return up to ``n`` idle actors of ``cls``."""
        key = self._session_key()
        with self._lock:
            if self._session != key:
                self._session, self._idle = key, []
            taken, rest = [], []
            for c, h in self._idle:
                if c is cls and len(taken) < n:
                    taken.append(h)
                else:
                    rest.append((c, h))
            self._idle = rest
        return taken

    def acquire(self, cls, inits, taken=None):
        """One actor of ``cls`` per ``(args, kwargs)`` in ``inits``:
        idle actors (``taken``, else taken here) reset with them, then
        new ones.  Kills every other idle actor first."""
        import ray

        if taken is None:
            taken = self.take(cls, len(inits))
        _kill(self._swap([]))
        make = ray.remote(num_cpus=WARM_ACTOR_CPUS)(cls)
        resets = [h.reset.remote(*a, **kw)
                  for h, (a, kw) in zip(taken, inits)]
        actors = taken + [make.remote(*a, **kw)
                          for a, kw in inits[len(taken):]]
        for i, ref in enumerate(resets):
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:
                a, kw = inits[i]
                actors[i] = make.remote(*a, **kw)
        return actors

    def release(self, groups):
        """Reset ``(class, actors)`` groups to nothing and keep them
        idle in place of the ones idle now, which are killed."""
        import ray

        flat = [(cls, h) for cls, hs in groups for h in hs]
        if ray.cluster_resources().get("CPU", 0.0) \
                - len(flat) * WARM_ACTOR_CPUS < 1.0:
            _kill([h for _, h in flat] + self._swap([]))
            return
        keep = []
        for (cls, h), ref in zip(flat, [h.reset.remote() for _, h in flat]):
            try:
                ray.get(ref)
                keep.append((cls, h))
            except ray.exceptions.RayActorError:
                pass
        kept = {h for _, h in keep}
        _kill([h for h in self._swap(keep) if h not in kept])


def _kill(actors):
    import ray

    for a in actors:
        ray.kill(a)


_WARM = _WarmActors()


def start_frontier(politeness_rows, num_partitions=4, salted_hosts=None,
                   capacity_per_partition=1 << 17, tick_ms=100,
                   spill_dir=None, spill_threshold_rows=None):
    """Create the frontier actor pool, reusing the partitions the
    previous crawl released (:func:`release_frontier`), each reset to a
    fresh partition.  ``spill_dir`` + ``spill_threshold_rows`` cap each
    partition's hot queue heads and spill cold tails to parquet
    (frontier cold-tail spill; schedules stay bit-identical)."""
    kw = dict(capacity=capacity_per_partition, tick_ms=tick_ms,
              salted_hosts=salted_hosts, spill_dir=spill_dir,
              spill_threshold_rows=spill_threshold_rows)
    return _WARM.acquire(FrontierPartition,
                         [((i, num_partitions, politeness_rows), kw)
                          for i in range(num_partitions)])


def restore_frontier(checkpoint_dir, num_partitions):
    """Re-create the actor pool from a checkpoint (exact resume), on
    the partitions the previous crawl released where there are any."""
    import ray

    actors = _WARM.acquire(FrontierPartition,
                           [((i, num_partitions, []), {})
                            for i in range(num_partitions)])
    ray.get([a.load_checkpoint.remote(checkpoint_dir, i)
             for i, a in enumerate(actors)])
    return actors


def release_frontier(actors, discover_workers=()):
    """Hand a finished crawl's actors back instead of ``ray.kill``: the
    next crawl in this Ray session reuses them (see ``_WarmActors``).
    Call it once the crawl no longer needs them; Datasets over blocks
    they drained stay valid."""
    _WARM.release([(FrontierPartition, actors),
                   (_DiscoverWorker, discover_workers)])


def offer_seeds(actors, seeds, num_partitions, offer_batch_size=65536,
                salted_hosts=None):
    """Canonicalize + route the seed stream into the frontier actors."""
    import ray

    if isinstance(seeds, pa.Table) and seeds.num_rows <= offer_batch_size:
        # small seed table: one Dataset pass costs ~1.4 s fixed
        # latency (lesson 15) — dominant for an iterative crawl whose
        # seed list is a handful of roots.  Canonicalize driver-side
        # and await delivery, the barrier the polling loop below
        # provides for the Dataset path.
        ray.get(offer_routed(actors, canonicalize_batch(seeds),
                             num_partitions, salted_hosts))
        return seeds.num_rows
    if isinstance(seeds, pa.Table):
        # from_arrow(table) is ONE block -> single-task map stages; slice
        # into chunks (zero-copy) so the offer path parallelizes
        n_chunks = max(1, min(64, seeds.num_rows // max(1, offer_batch_size)))
        step = -(-seeds.num_rows // n_chunks)
        refs = [ray.put(seeds.slice(i * step, step))
                for i in range(n_chunks)]
        ds = ray.data.from_arrow_refs(refs)
    else:
        ds = ray.data.read_parquet(seeds)

    def canonicalize_and_route(batch: pa.Table) -> pa.Table:
        # fire-and-forget: the driver polls delivered counts before
        # seal.  Awaiting the refs here cost ~1/3 of perfbench
        # frontier_dense's URLs/s on a 4-CPU box (a task blocked in
        # ray.get gives up its CPU)
        offer_routed(actors, canonicalize_batch(batch), num_partitions,
                     salted_hosts)
        return pa.table({"offered": [batch.num_rows]})

    routed = ds.map_batches(canonicalize_and_route, batch_format="pyarrow",
                            batch_size=offer_batch_size)
    import time as _time

    total = sum(row["offered"] for row in routed.take_all())
    while sum(ray.get([a.buffered_rows.remote() for a in actors])) < total:
        _time.sleep(0.02)
    return total


def drain_admissions_chunked(actors, target_rows=1 << 18, seal=False):
    """Chunked drain of a SEALED frontier: no partition ever
    materializes its whole schedule as one block (at 10^10 URLs / few
    partitions a full drain is one multi-GB table per actor — and one
    object ref gating downstream parallelism).  Each round of
    ``drain_block`` calls yields ≈ ``target_rows`` rows per partition
    as its own object-store block; the union over chunks is EXACTLY
    the full-drain schedule (each queue's closed form continues from
    its virtual clock).  ``seal`` must be False (seal first); the
    keyword stays only so callers that pass it keep working.

    The tables are never fetched to the driver: each actor returns a
    chunk's row count and byte size beside it, and
    :func:`admissions_dataset` builds the Dataset from those.

    ``(round, host, pop_idx)`` is NOT unique: a salted host's
    sub-queues each number their pops from 0, so their rows tie on
    it.  Order comparisons must add ``url`` as a tiebreak or rely on
    block order, which is partition-major (each partition's chunks in
    drain order, partitions in actor order).  That makes a stable
    sort on the key give the same rows in the same order at any
    ``target_rows``: ties between partitions keep actor order, and
    ties inside one partition fall in the same chunk (a chunk is a
    round range), where queues keep their sorted order."""
    import ray

    if seal:
        raise ValueError("drain_admissions_chunked drains a sealed "
                         "frontier; seal first and pass seal=False")
    blocks = [[] for _ in actors]
    metas = [[] for _ in actors]
    live = list(range(len(actors)))
    while live:
        refs = [actors[i].drain_block.options(num_returns=2)
                .remote(target_rows) for i in live]
        # a chunk's meta ends with the partition's pending rows after
        # it; finished partitions drop out of the next round
        got = ray.get([m for _, m in refs])
        for i, (block, _), m in zip(live, refs, got):
            blocks[i].append(block)
            metas[i].append(m)
        live = [i for i, m in zip(live, got) if m[2] > 0]
    return admissions_dataset([r for bs in blocks for r in bs],
                              [m for ms in metas for m in ms])


def admissions_dataset(blocks, metas):
    """``ray.data.from_arrow_refs(blocks)`` for ADMIT_SCHEMA blocks whose
    ``(num_rows, size_bytes, ...)`` the frontier already returned
    (:meth:`FrontierPartition.drain_block`).  from_arrow_refs reads
    them with one 1-CPU task per block, and each such task can
    cold-start a worker that imports ``ray.data`` (~1.5 s); this
    builds the same Dataset from the given metadata, no task at all."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import \
        FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.block import BlockMetadata, BlockMetadataWithSchema
    from ray.data.context import DataContext
    from ray.data.dataset import MaterializedDataset

    meta = [BlockMetadataWithSchema(
        BlockMetadata(num_rows=int(m[0]), size_bytes=int(m[1]),
                      input_files=None, exec_stats=None),
        schema=ADMIT_SCHEMA) for m in metas]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta},
                                      parent=None),
                         DataContext.get_current().copy())
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow(list(blocks), meta), plan._context))


# CPU reservation of each fused fetch+parse actor
POOL_ACTOR_CPUS = 0.5


def _fused_pool_size(want):
    """Actors for the fused fetch+parse pool: ``want``, capped by the
    CPUs free when the stream is built.  Fixed size, because
    autoscaling from 1 adds one actor per ~1-2 s actor start-up, too
    slowly for a CPU-bound stage.  The frontier actors already hold
    their CPUs and the pool's input is materialized refs, so nothing
    upstream needs one.

    ALSO capped at max(8, cpus/2): the zlib-dominated decode is
    memory-streaming, and measured throughput at 32 CPUs is ~15%
    HIGHER with 16 actors than 32 (less shared-DRAM thrash), while
    <= 8-CPU sessions are compute-bound and want every core.

    An earlier Dataset's pool actors can outlive its stream: Ray Data
    drops their handles and leaves the rest to reference counting,
    and a handle caught in a reference cycle lives until Python's
    cyclic collector runs, seconds later on back-to-back crawls.  So
    when the pool would come out short of all but one actor's share
    of the session, collect once and wait (at most 0.5 s) for those
    CPUs to come back."""
    import gc
    import time

    import ray

    total = ray.cluster_resources().get("CPU", 8)
    want = max(1, min(want, max(8, int(total) // 2)))
    enough = min(want, int(total / POOL_ACTOR_CPUS) - 1)

    def fits():
        return int(ray.available_resources().get("CPU", 0.0)
                   / POOL_ACTOR_CPUS)

    n = fits()
    if n < enough:
        gc.collect()
        deadline = time.monotonic() + 0.5
        while n < enough and time.monotonic() < deadline:
            time.sleep(0.01)
            n = fits()
    return max(1, min(want, n))


def fetch_and_parse(admissions_ds, images, *, fetch_concurrency=4,
                    parse_concurrency=4, batch_size=1024,
                    verify_pixels=True, drop_bytes=False):
    """The streaming fetch+parse pipeline over admission rows: ONE
    fused actor pool (stages.FetchParseStage), so payload bytes never
    transit the object store between stages.

    ``images`` may be a pyarrow Table (small corpus — broadcast to
    every fetch actor) or a parquet path/dir (STORED corpus — actors
    do keyed row-group lookups and hold O(batch) rows, see
    stages.KeyedFetchStage; this is the only shape that survives a
    corpus that doesn't fit one worker's heap).

    The pool is only as wide as its input block count (a task never
    spans blocks), and a few big blocks leave actors idle while the
    largest finishes.  Feed it blocks of about ``batch_size`` rows
    (run_crawl drains in chunks of that size).  The returned Dataset
    keeps its input block order, so output row order is the same at
    any pool width."""
    import ray
    from ray.data.dataset import MaterializedDataset

    images_ref = images if isinstance(images, (str, list, tuple)) \
        else ray.put(images)
    want = max(fetch_concurrency, parse_concurrency)
    if isinstance(admissions_ds, MaterializedDataset):
        want = min(want, admissions_ds.num_blocks())
    n_actors = _fused_pool_size(want)
    records = admissions_ds.map_batches(
        FetchParseStage,
        fn_constructor_args=(images_ref, verify_pixels, drop_bytes),
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=n_actors, num_cpus=POOL_ACTOR_CPUS,
        max_restarts=0)  # ctor args hold an ObjectRef; Ray Data
                         # retries tasks itself (ray#53727 warning)
    # set on this Dataset's own context, not the global one:
    # - a parallel pool finishes blocks out of order; keep drain order
    # - Ray Data queues up to 4 tasks on the first ready actor, so
    #   partition-sized blocks would run back to back on one actor;
    #   dispatch one at a time to whichever actor is idle
    ctx = records.context
    ctx.execution_options.preserve_order = True
    ctx.max_tasks_in_flight_per_actor = 1
    return records


def run_crawl(images, seeds, politeness, *, num_partitions=4,
              salted_hosts=None, output_dir=None, checkpoint_dir=None,
              fetch_concurrency=4, parse_concurrency=4,
              batch_size=1024, verify_pixels=True,
              drop_bytes=False, frontier_capacity=1 << 17,
              spill_dir=None, spill_threshold_rows=None):
    """Full crawl.  Returns dict with the records Dataset and metrics.

    One path: offer the seeds, seal once, checkpoint the sealed
    frontier if ``checkpoint_dir`` is set, then drain admissions in
    chunks of the fetch+parse pool's own ``batch_size`` (bounded
    blocks, see :func:`drain_admissions_chunked`), so the pool sees
    many blocks and runs at full width (see :func:`fetch_and_parse`).
    The frontier actors are released, not killed, so the next crawl in
    this Ray session starts on warm ones."""
    import ray

    pol_rows = politeness.to_pylist() if isinstance(politeness, pa.Table) \
        else list(politeness)
    actors = start_frontier(pol_rows, num_partitions, salted_hosts,
                            capacity_per_partition=frontier_capacity,
                            spill_dir=spill_dir,
                            spill_threshold_rows=spill_threshold_rows)
    offered = offer_seeds(actors, seeds, num_partitions,
                          salted_hosts=salted_hosts)
    ray.get([a.seal.remote() for a in actors])
    if checkpoint_dir:
        ray.get([a.checkpoint.remote(checkpoint_dir) for a in actors])
    admissions = drain_admissions_chunked(actors, target_rows=batch_size,
                                          seal=False)
    records = fetch_and_parse(
        admissions, images, fetch_concurrency=fetch_concurrency,
        parse_concurrency=parse_concurrency, batch_size=batch_size,
        verify_pixels=verify_pixels, drop_bytes=drop_bytes)
    if output_dir:
        # 0-CPU write tasks: the pool holds the free CPUs until its
        # input is done, and a 1-CPU write queued behind it deadlocks
        # the stream once the pool's output fills the object store
        records.write_parquet(output_dir, ray_remote_args={"num_cpus": 0})
        records = ray.data.read_parquet(output_dir)
    metrics = ray.get([a.get_metrics.remote() for a in actors])
    release_frontier(actors)
    return {"records": records, "metrics": metrics, "offered": offered}


# discover workers per iterative crawl: offer fan-in serializes on the
# frontier actors' inboxes, so more senders is slower (lesson 28)
N_DISCOVER_WORKERS = 4


class _DiscoverWorker:
    """Persistent actor hosting a DiscoverRouteStage across iterative
    rounds, and across crawls once released (wrapped with
    ``ray.remote`` at start; plain class so tests can instantiate it
    directly)."""

    def __init__(self, discover_fn, actors, num_partitions,
                 salted_hosts, discover_batch_fn=None):
        from hepcrawl_ray.stages import DiscoverRouteStage

        self.stage = DiscoverRouteStage(
            discover_fn, actors, num_partitions, salted_hosts,
            discover_batch_fn=discover_batch_fn)

    def reset(self, *args) -> None:
        """Drop the stage (its discover function, frontier handles and
        buffered offers); with constructor arguments, start over."""
        self.__dict__.clear()
        if args:
            self.__init__(*args)

    def process(self, table: pa.Table) -> int:
        # extraction only — delivery happens at the caller's flush()
        self.stage(table)
        return table.num_rows

    def flush(self) -> int:
        # offers are delivered (ray.get inside) before this returns —
        # the caller's ray.get on flush IS the delivery barrier
        return self.stage.flush()


def _iter_checkpoint(actors, checkpoint_dir, gen, segments,
                     pending_tables):
    """Atomic iterative-crawl checkpoint, commit-on-meta: frontier
    partitions snapshot into a FRESH generation directory
    (``gen=<n>/part=<i>/state.pkl`` — never overwriting the generation
    the current ``_iter_meta.json`` references), the admissions
    emitted since the LAST checkpoint land as one parquet segment,
    and the meta replace commits the set LAST.  A crash anywhere
    leaves the previously committed (meta, gen, segments) triple in
    effect: a torn newer gen dir or an orphan segment is simply
    ignored (and overwritten deterministically) on resume.  Older
    committed generations are GC'd after the commit.  Reference
    analog: crawl-once DB + last-run file surviving a killed job
    (hepcrawl/middlewares.py:101-155,
    hepcrawl/spiders/common/lastrunstore_spider.py:53-126)."""
    import glob
    import json
    import shutil

    import pyarrow.parquet as pq
    import ray

    gen_dir = os.path.join(checkpoint_dir, f"gen={gen}")
    ray.get([a.checkpoint.remote(gen_dir) for a in actors])
    segments = list(segments)
    body = pa.concat_tables(pending_tables) if pending_tables else None
    if body is not None and body.num_rows:
        seg_dir = os.path.join(checkpoint_dir, "admissions")
        os.makedirs(seg_dir, exist_ok=True)
        name = f"seg_{len(segments):05d}.parquet"
        tmp = os.path.join(seg_dir, "." + name + ".tmp")
        pq.write_table(body, tmp)
        os.replace(tmp, os.path.join(seg_dir, name))
        segments.append(name)
    meta = {"gen": gen, "segments": segments,
            "num_partitions": len(actors)}
    tmp = os.path.join(checkpoint_dir, "._iter_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(checkpoint_dir, "_iter_meta.json"))
    # GC everything the committed meta does not reference (old gens
    # AND stale crash-artifact gens); best-effort
    for d in glob.glob(os.path.join(checkpoint_dir, "gen=*")):
        if os.path.basename(d) != f"gen={gen}":
            shutil.rmtree(d, ignore_errors=True)
    return segments


def _iter_restore(checkpoint_dir):
    """Load the COMMITTED iterative checkpoint (the meta-referenced
    generation only — torn newer gens are ignored) ->
    (meta, admissions)."""
    import json

    import pyarrow.parquet as pq

    with open(os.path.join(checkpoint_dir, "_iter_meta.json")) as f:
        meta = json.load(f)
    tables = [pq.read_table(os.path.join(checkpoint_dir, "admissions", s))
              for s in meta["segments"]]
    return meta, tables


def run_iterative_crawl(seeds, politeness, discover_fn, *,
                        num_partitions=4, salted_hosts=None,
                        rounds_per_iter=1, max_iters=100_000,
                        discover_batch_fn=None, checkpoint_dir=None,
                        checkpoint_every=0, resume=False):
    """Crawl with mid-run URL discovery (the frontier LOOP).

    ``discover_fn(canonical_url, seq) -> list of seed-like dicts`` —
    links found when a URL is fetched+parsed.  Links discovered from the
    admissions of virtual round ``r`` become eligible from round
    ``r+rounds_per_iter`` (spec: sim.simulate_iterative, which this
    must match exactly at rounds_per_iter=1).

    ``discover_batch_fn(urls, seqs) -> (offer_table, per_row_counts)``
    (optional): the VECTORIZED form of the same contract — one call
    per admitted batch returning an Arrow table with
    url/priority/seq/mtime/set_id columns.  Use it when link
    extraction is expressible over columns (it usually is: production
    extraction runs over parsed batches); the per-row ``discover_fn``
    stays the executable spec and the two are equivalence-pinned in
    tests/test_sources_iterative.py.

    Each iteration's admission table is split over
    ``N_DISCOVER_WORKERS`` persistent actors, each hosting a
    :class:`~hepcrawl_ray.stages.DiscoverRouteStage` that extracts
    links and pushes them to the frontier partitions directly
    (worker -> actor, delivery awaited at the flush barrier) — the
    driver only runs the per-round seal barrier, never a per-row
    loop.  Admission is decided over a seq-sorted view at seal, so
    arrival order cannot change the schedule; the spec is
    ``sim.simulate_iterative`` (pinned in tests).

    ``checkpoint_dir`` + ``checkpoint_every=k``: every k iterations,
    after the seal barrier (a quiescent point: all of the round's
    offers are delivered and sealed, no in-flight state anywhere), the
    frontier partitions snapshot themselves and the admissions emitted
    since the last checkpoint are committed as a parquet segment
    (atomic meta-last protocol, :func:`_iter_checkpoint`).
    ``resume=True`` restores the committed checkpoint and continues —
    the resumed run's FULL admission schedule (restored segments +
    post-resume iterations) is EXACTLY the uninterrupted run's,
    including iterations whose un-checkpointed work the crash threw
    away (determinism replays them identically); pinned by
    tests/test_sources_iterative.py.
    """
    import ray

    pol_rows = politeness.to_pylist() if isinstance(politeness, pa.Table) \
        else list(politeness)
    if resume:
        if not checkpoint_dir:
            raise ValueError("resume=True requires checkpoint_dir")
        meta, admissions = _iter_restore(checkpoint_dir)
        if meta["num_partitions"] != num_partitions:
            raise ValueError(
                f"checkpoint has {meta['num_partitions']} partitions, "
                f"resume requested {num_partitions}")
    # take the warm discover workers before the frontier, which kills
    # every idle actor it does not take
    idle_workers = _WARM.take(_DiscoverWorker, N_DISCOVER_WORKERS)
    if resume:
        actors = restore_frontier(
            os.path.join(checkpoint_dir, f"gen={meta['gen']}"),
            num_partitions)
        segments = list(meta["segments"])
        gen = int(meta["gen"])     # monotone: new gens never touch
    else:                          # the committed one in place
        actors = start_frontier(pol_rows, num_partitions, salted_hosts)
        offer_seeds(actors, seeds, num_partitions,
                    salted_hosts=salted_hosts)
        ray.get([a.seal.remote() for a in actors])
        admissions = []
        segments = []
        gen = 0
    pending_ckpt: list[pa.Table] = []

    # PERSISTENT discover workers (reused every iteration, and by the
    # next crawl once released): a fresh map_batches actor pool per
    # iteration pays ~2 s spin-up per streaming pass (lesson 15),
    # which dominates an iterative crawl's wall clock.
    args = (discover_fn, actors, num_partitions, salted_hosts,
            discover_batch_fn)
    workers = _WARM.acquire(_DiscoverWorker,
                            [(args, {})] * N_DISCOVER_WORKERS,
                            taken=idle_workers)

    for it in range(max_iters):
        tables = ray.get([a.drain.remote(rounds_per_iter) for a in actors])
        t = pa.concat_tables(tables)
        if t.num_rows == 0:
            if sum(ray.get([a.pending.remote() for a in actors])) == 0:
                break
            continue
        admissions.append(t)
        pending_ckpt.append(t)
        # discovery runs in the PERSISTENT workers (extraction only,
        # offers buffered per worker); the flush barrier then delivers
        # ONE merged offer table per (worker, partition) —
        # n_workers × n_partitions inbox messages per iteration instead
        # of one per 4096-row chunk (the fan-in that serialized on the
        # actors' inboxes, lesson 28)
        pending, k = [], 0
        for tb in tables:
            for s in range(0, tb.num_rows, 4096):
                pending.append(workers[k % len(workers)]
                               .process.remote(tb.slice(s, 4096)))
                k += 1
        ray.get(pending)
        ray.get([w.flush.remote() for w in workers])
        ray.get([a.seal.remote() for a in actors])  # no-op if empty
        # quiescent point: round's offers delivered AND sealed
        if checkpoint_dir and checkpoint_every \
                and (it + 1) % checkpoint_every == 0:
            gen += 1
            segments = _iter_checkpoint(actors, checkpoint_dir, gen,
                                        segments, pending_ckpt)
            pending_ckpt = []
    result = pa.concat_tables(admissions) if admissions else None
    metrics = ray.get([a.get_metrics.remote() for a in actors])
    seen = np.concatenate(ray.get([a.seen_hashes.remote() for a in actors]))
    release_frontier(actors, workers)
    return {"admissions": result, "metrics": metrics,
            "seen": set(seen.tolist())}
