"""Resumable partitioned output sink.

The output layout is one directory per frontier partition plus a
manifest of completed partitions:

    out/part=3/<ray parquet files>
    out/_MANIFEST.json   {"partitions": {"3": {"rows": N}}, ...}

A killed job resumes by (a) restoring the frontier from its checkpoint
(exact state: seen filters, queues, virtual clock — see
frontier.checkpoint) and (b) skipping partitions already present in
the manifest — the reference achieves the same with its last-run JSON
store + processed-bucket move
(reference: hepcrawl/spiders/common/lastrunstore_spider.py:53-126,
hepcrawl/spiders/desy_spider.py:139-150,233-242).  Manifest updates
are atomic (tmp + rename); a partition directory without a manifest
entry is garbage from a crash and is overwritten on resume.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa


def _manifest_path(output_dir: str) -> str:
    return os.path.join(output_dir, "_MANIFEST.json")


def read_manifest(output_dir: str) -> dict:
    try:
        with open(_manifest_path(output_dir)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"partitions": {}}


def _write_manifest(output_dir: str, manifest: dict) -> None:
    tmp = _manifest_path(output_dir) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, _manifest_path(output_dir))


def run_resumable_crawl(images, seeds, politeness, *, output_dir: str,
                        checkpoint_dir: str, num_partitions: int = 4,
                        salted_hosts=None, batch_size: int = 1024,
                        fetch_concurrency: int = 4, parse_concurrency: int = 4,
                        fail_after_partitions: int | None = None,
                        max_rows_per_file: int | None = None):
    """Crawl with per-partition resumable output.

    ``fail_after_partitions`` injects a crash after N partitions are
    written (test hook).  ``max_rows_per_file`` caps output file size
    (passed through to ``write_parquet``; compact_output is the
    matching post-job merge).  Returns the manifest; call again with
    the same dirs to resume — finished partitions are skipped
    untouched.
    """
    import ray

    from hepcrawl_ray.pipelines import crawl as cp

    os.makedirs(output_dir, exist_ok=True)

    ckpt_marker = os.path.join(checkpoint_dir, "part=0", "state.pkl")
    resume = os.path.exists(ckpt_marker)
    if resume:
        actors = cp.restore_frontier(checkpoint_dir, num_partitions)
        routers = []
    else:
        actors = cp.start_frontier(politeness, num_partitions, salted_hosts)
        routers = cp.acquire_routers(num_partitions, salted_hosts, seeds)
    # one fetch+parse pool for every partition, acquired after the
    # actors the offer waits on, so a cold pool starts during the offer
    fetchers = cp.acquire_pool(images, max(fetch_concurrency,
                                           parse_concurrency))
    if not resume:
        cp.offer_seeds(actors, seeds, num_partitions,
                       salted_hosts=salted_hosts, workers=routers)
        ray.get([a.seal.remote() for a in actors])
        ray.get([a.checkpoint.remote(checkpoint_dir) for a in actors])

    manifest = read_manifest(output_dir)
    done = set(manifest["partitions"])
    todo = [pid for pid in range(num_partitions) if str(pid) not in done]

    def process(pid: int) -> int:
        # drain fires when the partition's processing starts, so at
        # most ~max_workers partitions' admissions are live in the
        # object store at once; the driver never holds them, only the
        # row counts and byte sizes.  batch_size chunks spread one
        # partition over the whole pool, starting one actor further
        # along per partition
        ds = cp.drain_admissions_chunked([actors[pid]],
                                         target_rows=batch_size)
        n = ds.count()
        part_dir = os.path.join(output_dir, f"part={pid}")
        if os.path.exists(part_dir):  # crash leftovers without manifest
            shutil.rmtree(part_dir)
        if n:
            k = pid % len(fetchers)
            records = cp.fetch_and_parse(ds, images, batch_size=batch_size,
                                         pool=fetchers[k:] + fetchers[:k])
            if max_rows_per_file is not None:
                records.write_parquet(part_dir,
                                      max_rows_per_file=max_rows_per_file)
            else:
                records.write_parquet(part_dir)
        else:
            os.makedirs(part_dir, exist_ok=True)
        return n

    # Pipelined partition processing: a small thread pool overlaps the
    # per-partition drain+fetch+parse+write pipelines, whose fetch+parse
    # calls share the one actor pool.  Submission is BOUNDED (one spare
    # beyond the thread pool), so a simulated crash stops new
    # partitions immediately — only the <= max_workers in-flight
    # pipelines run to waste, becoming unmanifested leftovers that
    # resume cleans up.  All bookkeeping
    # (manifest, stop) happens on this thread; the manifest stays
    # per-partition atomic, written in completion order.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    # Ray's write-path resolution does `from fsspec.implementations
    # .http import HTTPFileSystem` per write and catches only
    # ModuleNotFoundError (aiohttp is absent here, so the import always
    # fails).  Failed imports are retried on every call, and two
    # threads racing through that retry can surface as an *ImportError*
    # instead, which Ray does not catch.  Make the import succeed
    # deterministically with a sentinel class (isinstance checks
    # against it are False, identical to the module-missing branch).
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        import sys as _sys
        import types as _types

        _mod = _types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:
            """Sentinel: aiohttp/fsspec-http unavailable in this env."""

        _mod.HTTPFileSystem = _NoHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _mod

    avail = ray.cluster_resources().get("CPU", 4)
    max_workers = max(1, min(8, len(todo) or 1, int(avail // 2)))
    written = 0
    stop = False
    queue = iter(todo)
    try:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = {}

            def submit_next() -> bool:
                for pid in queue:
                    futures[pool.submit(process, pid)] = pid
                    return True
                return False

            for _ in range(max_workers + 1):
                if not submit_next():
                    break
            consumed = set()
            while len(consumed) < len(futures):
                done_f, _ = wait([f for f in futures if f not in consumed],
                                 return_when=FIRST_COMPLETED)
                for fut in done_f:
                    consumed.add(fut)
                    pid, n = futures[fut], fut.result()
                    if stop:
                        continue  # crash already simulated: don't record
                    manifest["partitions"][str(pid)] = {"rows": n}
                    _write_manifest(output_dir, manifest)
                    written += 1
                    if (fail_after_partitions is not None
                            and written >= fail_after_partitions):
                        stop = True  # in-flight work becomes leftovers
                    else:
                        submit_next()  # refill the bounded window
    finally:
        # hand the actors back, also after a failed partition write:
        # release resets them, so nothing of this crawl leaks
        cp.release_frontier(actors, routers, pool=fetchers)
    return manifest


def _partition_files(output_dir: str, pid: str, meta: dict) -> list:
    """Authoritative file list for one finished partition: the
    manifest's explicit ``files`` entry when compaction has committed
    one, else every top-level parquet in the partition dir."""
    import glob

    d = os.path.join(output_dir, f"part={pid}")
    if "files" in meta:
        return [os.path.join(d, f) for f in meta["files"]]
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def read_output(output_dir: str):
    """Dataset over all finished partitions (manifest-listed only)."""
    import ray

    manifest = read_manifest(output_dir)
    files = []
    for pid, meta in sorted(manifest["partitions"].items()):
        if meta["rows"] > 0:
            files.extend(_partition_files(output_dir, pid, meta))
    return ray.data.read_parquet(files) if files else None


def compact_output(output_dir: str,
                   target_bytes: int = 128 * 1024 * 1024) -> dict:
    """Merge each finished partition's small parquet files into
    ~``target_bytes`` outputs (the standard post-job small-file
    compaction every long-running partitioned writer needs: at 100 TB
    a 4096-partition output whose stages emitted one file per Ray
    block is millions of KB-sized files, and every later read pays
    per-file open cost).

    Crash-safe by construction — the MANIFEST is the commit point:

    1. compacted files are written under ``part=N/_compact/`` where
       the top-level ``*.parquet`` glob can't see them;
    2. the partition's manifest entry atomically gains
       ``files: [_compact/...]`` (tmp + rename, like every other
       manifest update) — readers switch to the compacted set in one
       step;
    3. the superseded top-level files are deleted last (a crash
       between 2 and 3 leaves harmless orphans that the next
       compaction sweeps).

    Partitions already at or below one target-sized file per group
    are left untouched.  Idempotent: a second run finds nothing to do.
    Returns {"partitions_compacted": n, "files_before": b,
    "files_after": a}.

    Scale shape: the driver only bin-packs FILE SIZES (parquet
    directory metadata) and commits manifests; every group merge is a
    Ray task reading and writing its own bin worker-side, so no row
    bytes ever transit the driver and all partitions' merges run
    concurrently.  Commits stay ordered per partition AFTER that
    partition's writes complete, preserving the crash-safety argument
    above.
    """
    import glob

    import ray

    manifest = read_manifest(output_dir)
    n_parts = files_before = files_after = 0
    merge_task = ray.remote(num_cpus=1)(_compact_group)
    # phase 1 — plan on metadata + submit every group merge
    pending = {}          # pid -> (meta, files, new_names, refs)
    for pid, meta in sorted(manifest["partitions"].items()):
        part_dir = os.path.join(output_dir, f"part={pid}")
        comp_dir = os.path.join(part_dir, "_compact")
        files = _partition_files(output_dir, pid, meta)
        if "files" in meta:
            # already compacted (one-shot per partition): only sweep
            # top-level files a crash-between-commit-and-cleanup left
            for f in glob.glob(os.path.join(part_dir, "*.parquet")):
                os.remove(f)
            files_before += len(files)
            files_after += len(files)
            continue
        # sweep pre-commit orphans from a previous crashed run
        if os.path.isdir(comp_dir):
            shutil.rmtree(comp_dir)
        if meta["rows"] == 0 or len(files) <= 1:
            files_before += len(files)
            files_after += len(files)
            continue
        # greedy size-bounded grouping in name order (row order within
        # the partition is preserved group-by-group)
        sizes = [os.path.getsize(f) for f in files]
        groups, cur, cur_sz = [], [], 0
        for f, s in zip(files, sizes):
            if cur and cur_sz + s > target_bytes:
                groups.append(cur)
                cur, cur_sz = [], 0
            cur.append(f)
            cur_sz += s
        if cur:
            groups.append(cur)
        files_before += len(files)
        if all(len(g) == 1 for g in groups):
            files_after += len(files)
            continue
        os.makedirs(comp_dir, exist_ok=True)
        new_names, refs = [], []
        for gi, group in enumerate(groups):
            name = os.path.join("_compact", f"c{gi:05d}.parquet")
            refs.append(merge_task.remote(
                group, os.path.join(part_dir, name)))
            new_names.append(name)
        pending[pid] = (meta, files, new_names, refs)
    # phase 2 — commit each partition once ITS writes are durable
    for pid in sorted(pending):
        meta, files, new_names, refs = pending[pid]
        part_dir = os.path.join(output_dir, f"part={pid}")
        ray.get(refs)
        # commit: readers atomically switch to the compacted set
        meta = dict(meta)
        meta["files"] = new_names
        manifest["partitions"][pid] = meta
        _write_manifest(output_dir, manifest)
        # post-commit cleanup of superseded files
        for f in files:
            if os.path.dirname(f) == part_dir:
                os.remove(f)
        n_parts += 1
        files_after += len(new_names)
    return {"partitions_compacted": n_parts,
            "files_before": files_before, "files_after": files_after}


def _compact_group(files: list, out_path: str) -> int:
    """Merge one size-bounded bin of parquet files into a single file
    (runs as a Ray task: the bin's bytes are read and written entirely
    worker-side).  Single-file bins are byte-copied unchanged."""
    import pyarrow.parquet as pq

    if len(files) == 1:
        shutil.copyfile(files[0], out_path)
        return 1
    pq.write_table(pa.concat_tables([pq.read_table(f) for f in files]),
                   out_path)
    return len(files)
