"""The crawl pipeline: seeds -> frontier actors -> fetch -> parse -> write.

Ray-Data restructuring of the reference's spider lifecycle (traced in
SURVEY.md §3): the driver hands seed rows (or parquet row groups) to
router actors, which compute crawl identity (``canonicalize_batch``)
and push one merged offer per partition to the host-partitioned
frontier actors (worker -> actor data flow; the driver only
orchestrates), the actors seal + drain the full admission schedule in
parallel virtual time, and ONE pool of fused fetch+parse actors turns
each admissions block into a records block.  An iterative crawl's
blocks go by reference from partition to routers, with one driver
wait per iteration (:func:`run_iterative_crawl`).

Scale notes (design for 256 nodes / 100 TB, tested single-node):

- Only the fetch+parse actors ever carry image bytes; frontier
  traffic is bytes-free URL metadata.
- The corpus index is broadcast once with ``ray.put`` and read when a
  fetch+parse actor is created or reset — never per block.
- Admissions and records are per-block Arrow refs whose row counts
  and byte sizes the driver already knows, assembled into Datasets
  from those (``admissions_dataset``) — no driver-side row loop, and
  no task spent reading block metadata.
- Frontier partitions, routers and fetch+parse workers outlive a
  crawl: the next crawl in the same Ray session resets and reuses them
  instead of paying actor start-up again (``_WarmActors``).
- Output is written as partitioned Parquet under ``output_dir`` so a
  rerun can skip finished partitions; frontier state checkpoints under
  ``checkpoint_dir`` (exact resume, see tests/test_frontier.py).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import threading

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from hepcrawl_ray.frontier import ADMIT_SCHEMA, FrontierPartition, get_settled
from hepcrawl_ray.stages import (DiscoverRouteStage, FetchParseStage,
                                 _corpus_files)


# CPU share of every actor that can outlive a crawl (_WarmActors).
# Small, because idle ones hold it too.
WARM_ACTOR_CPUS = 0.05


class _WarmActors:
    """The actors the last finished crawl handed back (frontier
    partitions, routers, fetch+parse workers), for the next crawl in
    the same Ray session to reuse: a new actor answers its first call
    ~1.7 s after it is created, a warm one in milliseconds (lesson 18).
    Only a session that runs several crawls gains, such as one that
    runs ``__ray_entry__.entry()`` and then the ``crawl_*`` queries,
    which the registry orders back to back.  A one-crawl session (the
    ``crawl`` CLI) pays only the resets at release.  The rules:

    - a released actor is reset to nothing, and a taken one is reset
      with constructor arguments, so it behaves as a new actor;
    - a release waits for nothing: a fetch+parse actor is released
      while the records it owes are still queued on it, and its reset
      (and a kill, which ends an actor only after its queued calls)
      runs behind them;
    - only the last finished crawl's actors stay idle: a release kills
      the ones still idle (a call outside a crawl that acquired its
      own, those of its kind only), and a crawl kills the idle actors
      of each kind it takes beyond what it needs.  They are killed when
      the session would have less than one whole CPU beside them, so a
      1-CPU task always fits;
    - the list belongs to the Ray session that made it (job and node
      ID: a restarted local cluster numbers its jobs from 1 again, but
      its node ID is new); in a new one it is dropped without calling
      the actors;
    - a taken actor that turns out dead (killed, or died while idle)
      is replaced by a new one."""

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

    def _swap(self, keep, kinds=None):
        """Make ``keep`` the idle list, or with ``kinds`` put it in
        place of the idle actors of those classes only; returns the
        handles it replaces (none when they belong to an earlier
        session)."""
        key = self._session_key()
        with self._lock:
            idle = self._idle if self._session == key else []
            self._session, self._idle = key, keep + [
                (c, h) for c, h in idle if kinds and c not in kinds]
        return [h for c, h in idle if not kinds or c in kinds]

    def take(self, cls, n=None):
        """Remove and return up to ``n`` (default: all) idle actors of
        ``cls``."""
        key = self._session_key()
        with self._lock:
            if self._session != key:
                self._session, self._idle = key, []
            taken, rest = [], []
            for c, h in self._idle:
                if c is cls and (n is None or len(taken) < n):
                    taken.append(h)
                else:
                    rest.append((c, h))
            self._idle = rest
        return taken

    def acquire(self, cls, inits, at_least=None):
        """One actor of ``cls`` per ``(args, kwargs)`` in ``inits``:
        idle ones reset with them, then new ones (with ``at_least``,
        new ones only up to that many actors in all).  Kills the idle
        actors of ``cls`` beyond those; other kinds stay idle."""
        import ray

        taken = self.take(cls)
        _kill(taken[len(inits):])
        taken = taken[:len(inits)]
        if at_least is not None:
            inits = inits[:max(len(taken), at_least)]
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

    def release(self, groups, keep_other_kinds=False):
        """Queue a reset to nothing on ``(class, actors)`` groups and
        keep them idle in place of the ones idle now, which are
        killed (with ``keep_other_kinds``, only those of the released
        classes).  Waits for nothing: the reset runs after the calls
        already queued on each actor."""
        import ray

        flat = [(cls, h) for cls, hs in groups for h in hs]
        kinds = {cls for cls, _ in groups} if keep_other_kinds else None
        for _, h in flat:
            h.reset.remote()
        kept = {h for _, h in flat}
        _kill([h for h in self._swap(flat, kinds) if h not in kept])
        if ray.cluster_resources().get("CPU", 0.0) \
                - len(self._idle) * WARM_ACTOR_CPUS < 1.0:
            _kill(self._swap([]))


def _kill(actors):
    """End each actor after the calls already queued on it."""
    for a in actors:
        a.__ray_terminate__.remote()


_WARM = _WarmActors()


class _Reusable:
    """``reset`` for the workers ``_WARM`` keeps."""

    def reset(self, *args) -> None:
        """Drop all state (stage, handles, buffers, caches); with
        constructor arguments, start over as a new actor would."""
        self.__dict__.clear()
        if args:
            self.__init__(*args)


def start_frontier(politeness_rows, num_partitions=4, salted_hosts=None,
                   capacity_per_partition=1 << 17, tick_ms=100,
                   spill_dir=None, spill_threshold_rows=None):
    """Create the frontier actor pool, reusing the partitions the
    previous crawl released (:func:`release_frontier`), each reset to a
    fresh partition.  ``spill_dir`` + ``spill_threshold_rows`` cap each
    partition's hot queue heads and spill cold tails to parquet
    (frontier cold-tail spill; schedules stay bit-identical).
    ``politeness_rows``: a politeness table or its rows as dicts."""
    if isinstance(politeness_rows, pa.Table):
        politeness_rows = politeness_rows.to_pylist()
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


def release_frontier(actors, discover_workers=(), pool=()):
    """Hand a finished crawl's actors back instead of ``ray.kill``: the
    next crawl in this Ray session reuses them (see ``_WarmActors``).
    Call it once the crawl no longer needs them; Datasets over blocks
    they drained, and records still queued on ``pool``, stay valid."""
    _WARM.release([(FrontierPartition, actors),
                   (_DiscoverWorker, discover_workers),
                   (_FetchParseWorker, pool)])


def acquire_routers(actors, num_partitions, salted_hosts=None, seeds=None,
                    discover_fn=None, discover_batch_fn=None):
    """The router actors (``_DiscoverWorker``) of a crawl on the
    frontier ``actors``, which carry its seeds and an iterative crawl's
    links into the partitions: the idle ones, up to
    ``N_DISCOVER_WORKERS``, and new ones up to that many or to one per
    piece of ``seeds``, since in a one-crawl session every actor start
    delays the offer.  Release them with the frontier."""
    args = (discover_fn, actors, num_partitions, salted_hosts,
            discover_batch_fn)
    need = None if seeds is None else len(_seed_pieces(seeds))
    return _WARM.acquire(_DiscoverWorker, [(args, {})] * N_DISCOVER_WORKERS,
                         at_least=need)


def _seed_pieces(seeds, offer_batch_size=65536):
    """What one router call offers: an ``offer_batch_size`` slice of a
    seed table, or a ``(file, row group)`` of parquet seeds (only the
    footers are read here; the router reads the row group)."""
    if isinstance(seeds, pa.Table):
        return [seeds.slice(s, offer_batch_size)
                for s in range(0, seeds.num_rows, offer_batch_size)]
    files = _corpus_files(seeds)
    if not files:      # a directory without top-level parquet files
        raise ValueError(f"no parquet seed files in {seeds!r}")
    return [(path, rg) for path in files
            for rg in range(pq.read_metadata(path).num_row_groups)]


def offer_seeds(actors, seeds, num_partitions, offer_batch_size=65536,
                salted_hosts=None, workers=None):
    """Canonicalize + route ``seeds`` (a table or a parquet file,
    directory or file list) into the frontier actors through the
    routers ``workers`` (:func:`acquire_routers` on the same frontier;
    without them, routers are acquired and released here), one
    :func:`_seed_pieces` piece per call, then one merged offer per
    partition from each router (lesson 28).  Returns the rows offered,
    all delivered; a dead partition raises RayActorError."""
    pieces = _seed_pieces(seeds, offer_batch_size)
    own = workers is None
    if own:
        workers = acquire_routers(actors, num_partitions, salted_hosts)
    try:
        calls = [workers[i % len(workers)].offer.remote(p)
                 for i, p in enumerate(pieces)]
        flushes = [w.flush.remote() for w in workers]
        return sum(get_settled(calls + flushes)[:len(calls)])
    finally:
        if own:
            _WARM.release([(_DiscoverWorker, workers)],
                          keep_other_kinds=True)


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


def admissions_dataset(blocks, metas, schema=ADMIT_SCHEMA):
    """``ray.data.from_arrow_refs(blocks)`` for ``schema`` blocks whose
    ``(num_rows, size_bytes, ...)`` the caller already knows (the
    frontier returns them, :meth:`FrontierPartition.drain_block`).
    from_arrow_refs reads them with one 1-CPU task per block, and
    each such task can cold-start a worker that imports ``ray.data``
    (~1.5 s); this builds the same Dataset from the given metadata,
    no task at all, and does not wait for the blocks."""
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
        schema=schema) for m in metas]
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": meta},
                                      parent=None),
                         DataContext.get_current().copy())
    return MaterializedDataset(
        plan, LogicalPlan(FromArrow(list(blocks), meta), plan._context))


class _FetchParseWorker(_Reusable, FetchParseStage):
    """Persistent actor hosting the fused fetch+parse stage across
    crawls (wrapped with ``ray.remote`` by ``_WARM``; plain class so
    tests can instantiate it directly)."""

    def run(self, block: pa.Table, start: int, n: int) -> pa.Table:
        return self(block.slice(start, n))


def acquire_pool(images, width=4, verify_pixels=True, drop_bytes=False):
    """The fused fetch+parse pool for ``fetch_and_parse(pool=)``:
    ``width`` actors, capped at max(8, cpus/2) (lesson 5) and at two
    per CPU of the session less one.  Idle ones are reset with the
    corpus; the rest start now, so their start-up overlaps whatever
    the caller does before the first block arrives."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 1))
    width = max(1, min(width, max(8, cpus // 2), 2 * cpus - 1))
    images_ref = images if isinstance(images, (str, list, tuple)) \
        else ray.put(images)
    return _WARM.acquire(
        _FetchParseWorker,
        [((images_ref, verify_pixels, drop_bytes), {})] * width)


def fetch_and_parse(admissions_ds, images, *, fetch_concurrency=4,
                    parse_concurrency=4, batch_size=1024,
                    verify_pixels=True, drop_bytes=False, pool=None):
    """The fetch+parse stage over admission rows: each admissions
    block is cut into round(rows / ``batch_size``) near-equal slices
    (at least one), and each slice goes to one actor of the fused pool
    (``_FetchParseWorker``, the one given the fewest rows so far), so
    payload bytes never transit the object store between fetch and
    parse, and a few big blocks still keep the whole pool busy.

    ``images`` may be a pyarrow Table (small corpus — broadcast to
    every fetch actor) or a parquet path/dir (STORED corpus — actors
    do keyed row-group lookups and hold O(batch) rows, see
    stages.KeyedFetchStage; this is the only shape that survives a
    corpus that doesn't fit one worker's heap).

    ``pool`` comes from :func:`acquire_pool` over the same ``images``,
    ``verify_pixels`` and ``drop_bytes``, and stays the caller's to
    release; without one, one is acquired and released here.

    Returns at once: the records Dataset is built from the result refs
    and the admissions' row counts (rows are 1:1), so ``count()`` and
    ``schema()`` answer without waiting, and iterating it yields the
    blocks in admissions order as each one finishes.  Every call is
    queued when this returns and nothing throttles it by consumption:
    the records are computed whether or not anyone reads them, and
    what exceeds the object store spills to disk."""
    own = pool is None
    pool = pool or acquire_pool(images, max(fetch_concurrency,
                                            parse_concurrency),
                                verify_pixels, drop_bytes)
    pieces = []
    for ref, m in admissions_ds._plan.execute().blocks:
        # a drain chunk a few rows over batch_size stays one call
        k = max(1, round(m.num_rows / batch_size))
        cuts = [m.num_rows * i // k for i in range(k + 1)]
        pieces += [(ref, s, e - s, m) for s, e in zip(cuts, cuts[1:])
                   if e > s]
    load, outs = [0] * len(pool), []
    for ref, s, n, _ in pieces:         # to the actor with fewest rows
        k = load.index(min(load))
        load[k] += n
        outs.append(pool[k].run.remote(ref, s, n))
    if own:
        _WARM.release([(_FetchParseWorker, pool)], keep_other_kinds=True)
    # size_bytes: the admissions' share (a lower bound, for estimates)
    return admissions_dataset(
        outs, [(n, (m.size_bytes or 0) * n // m.num_rows)
               for _, _, n, m in pieces],
        FetchParseStage.output_schema(images, drop_bytes))


def run_crawl(images, seeds, politeness, *, num_partitions=4,
              salted_hosts=None, output_dir=None, checkpoint_dir=None,
              fetch_concurrency=4, parse_concurrency=4,
              batch_size=1024, verify_pixels=True,
              drop_bytes=False, frontier_capacity=1 << 17,
              spill_dir=None, spill_threshold_rows=None):
    """Full crawl.  Returns dict with the records Dataset and metrics.

    One path: acquire the frontier, its routers and the fetch+parse
    pool (in the order the crawl needs them: a cold pool starts while
    the seeds are offered), offer the seeds through the routers, seal
    once, checkpoint the sealed frontier if ``checkpoint_dir`` is set,
    then drain admissions in ``batch_size`` chunks
    (:func:`drain_admissions_chunked`) into the pool
    (:func:`fetch_and_parse`).  All actors are released, not killed,
    so the next crawl in this Ray session starts on warm ones; this
    returns before the records are computed."""
    import ray

    actors = start_frontier(politeness, num_partitions, salted_hosts,
                            capacity_per_partition=frontier_capacity,
                            spill_dir=spill_dir,
                            spill_threshold_rows=spill_threshold_rows)
    routers = acquire_routers(actors, num_partitions, salted_hosts, seeds)
    pool = acquire_pool(images, max(fetch_concurrency, parse_concurrency),
                        verify_pixels, drop_bytes)
    offered = offer_seeds(actors, seeds, num_partitions,
                          salted_hosts=salted_hosts, workers=routers)
    ray.get([a.seal.remote() for a in actors])
    if checkpoint_dir:
        ray.get([a.checkpoint.remote(checkpoint_dir) for a in actors])
    admissions = drain_admissions_chunked(actors, target_rows=batch_size,
                                          seal=False)
    records = fetch_and_parse(
        admissions, images, fetch_concurrency=fetch_concurrency,
        parse_concurrency=parse_concurrency, batch_size=batch_size,
        verify_pixels=verify_pixels, drop_bytes=drop_bytes, pool=pool)
    metrics = ray.get([a.get_metrics.remote() for a in actors])
    release_frontier(actors, routers, pool=pool)
    if output_dir:
        # 0-CPU write tasks: they only wait on the pool and do IO
        records.write_parquet(output_dir, ray_remote_args={"num_cpus": 0})
        records = ray.data.read_parquet(output_dir)
    return {"records": records, "metrics": metrics, "offered": offered}


# routers (discover workers) per crawl: offer fan-in serializes on the
# frontier actors' inboxes, so more senders is slower (lesson 28)
N_DISCOVER_WORKERS = 4


class _DiscoverWorker(_Reusable):
    """Router actor (a DiscoverRouteStage) that offers a crawl's seeds
    and an iterative crawl's links; kept by ``_WARM`` across crawls
    (a plain class, so tests can instantiate it directly)."""

    def __init__(self, discover_fn, actors, num_partitions,
                 salted_hosts, discover_batch_fn=None):
        self.stage = DiscoverRouteStage(
            discover_fn, actors, num_partitions, salted_hosts,
            discover_batch_fn=discover_batch_fn)

    def offer(self, seeds) -> int:
        """Buffer seed rows: a table or a (parquet file, row group)."""
        if isinstance(seeds, tuple):
            seeds = pq.ParquetFile(seeds[0]).read_row_group(seeds[1])
        return self.stage.offer(seeds)

    def process(self, block: pa.Table, i: int, k: int) -> int:
        """Find links in piece ``i`` of ``k`` of a drained block."""
        s, e = block.num_rows * i // k, block.num_rows * (i + 1) // k
        if e > s:                  # delivered at flush()
            self.stage(block.slice(s, e - s))
        return e - s

    def flush(self, *after) -> int:
        # runs once the refs ``after`` are ready; returns once delivered
        return self.stage.flush()


def _iter_checkpoint(actors, checkpoint_dir, gen, segments, tables):
    """Atomic iterative-crawl checkpoint, commit-on-meta: frontier
    partitions snapshot into a FRESH ``gen=<n>`` directory, the
    ``tables`` drained since the LAST checkpoint land as one parquet
    segment, and the ``_iter_meta.json`` replace commits the set LAST.
    A crash anywhere leaves the previously committed (meta, gen,
    segments) triple in effect; torn newer gens and orphan segments
    are ignored (and overwritten deterministically) on resume, older
    gens GC'd after the commit.  Reference analog: crawl-once DB +
    last-run file surviving a killed job (hepcrawl/middlewares.py:
    101-155, hepcrawl/spiders/common/lastrunstore_spider.py:53-126)."""
    import ray

    gen_dir = os.path.join(checkpoint_dir, f"gen={gen}")
    ray.get([a.checkpoint.remote(gen_dir) for a in actors])
    # a checkpoint follows a non-empty iteration: never an empty segment
    seg_dir = os.path.join(checkpoint_dir, "admissions")
    os.makedirs(seg_dir, exist_ok=True)
    segments = segments + [f"seg_{len(segments):05d}.parquet"]
    tmp = os.path.join(seg_dir, "." + segments[-1] + ".tmp")
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, os.path.join(seg_dir, segments[-1]))
    tmp = os.path.join(checkpoint_dir, "._iter_meta.json.tmp")
    with open(tmp, "w") as f:
        json.dump({"gen": gen, "segments": segments,
                   "num_partitions": len(actors)}, f)
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

    The crawl's routers (:func:`acquire_routers`) offer the seeds,
    then each iteration's links: every partition's drained block goes
    by reference to the routers (in pieces when they outnumber the
    partitions), which push the links to the partitions directly.
    The driver waits once per iteration, for those deliveries and the
    previous seals, then queues the next seals; admission tables reach
    it only at a checkpoint and at the end.  Admission is decided over
    a seq-sorted view at seal, so arrival order cannot change the
    schedule; the spec is ``sim.simulate_iterative`` (pinned in tests).

    ``checkpoint_dir`` + ``checkpoint_every=k``: every k iterations,
    after that iteration's seal (a quiescent point: all of the round's
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

    if resume:
        if not checkpoint_dir:
            raise ValueError("resume=True requires checkpoint_dir")
        meta, admissions = _iter_restore(checkpoint_dir)
        if meta["num_partitions"] != num_partitions:
            raise ValueError(
                f"checkpoint has {meta['num_partitions']} partitions, "
                f"resume requested {num_partitions}")
        actors = restore_frontier(
            os.path.join(checkpoint_dir, f"gen={meta['gen']}"),
            num_partitions)
        # gens are monotone: new ones never touch the committed one
        segments, gen = list(meta["segments"]), int(meta["gen"])
    else:
        actors = start_frontier(politeness, num_partitions, salted_hosts)
        admissions, segments, gen = [], [], 0
    # persistent routers, reused every iteration (lesson 26)
    workers = acquire_routers(actors, num_partitions, salted_hosts,
                              discover_fn=discover_fn,
                              discover_batch_fn=discover_batch_fn)
    # k pieces per drained block keep every router busy when P < routers
    k, blocks, seals = -(-len(workers) // num_partitions), [], []
    try:
        if not resume:
            offer_seeds(actors, seeds, num_partitions, workers=workers)
            seals = [a.seal.remote() for a in actors]
        for it in range(max_iters):
            drains = [a.drain.remote(rounds_per_iter) for a in actors]
            calls = [workers[j % len(workers)].process.remote(
                drains[j // k], j % k, k) for j in range(len(drains) * k)]
            # no link reaches a partition before its previous seal
            flushes = [w.flush.remote(*seals) for w in workers]
            # the one barrier: links delivered, previous seals done; on
            # an error no router call is left running at the release
            if sum(get_settled(calls + flushes + seals)[:len(calls)]) == 0:
                if sum(ray.get([a.pending.remote() for a in actors])) == 0:
                    break
                continue
            blocks += drains
            # runs before the next drain or checkpoint (one caller)
            seals = [a.seal.remote() for a in actors]
            if checkpoint_dir and checkpoint_every \
                    and (it + 1) % checkpoint_every == 0:
                tables = ray.get(seals + blocks)[len(seals):]
                gen += 1
                segments = _iter_checkpoint(actors, checkpoint_dir, gen,
                                            segments, tables)
                admissions, blocks = admissions + tables, []
        admissions += ray.get(seals + blocks)[len(seals):]
        result = pa.concat_tables(admissions) if admissions else None
        metrics = ray.get([a.get_metrics.remote() for a in actors])
        seen = ray.get([a.seen_hashes.remote() for a in actors])
    finally:
        release_frontier(actors, workers)
    return {"admissions": result, "metrics": metrics,
            "seen": set(np.concatenate(seen).tolist())}
