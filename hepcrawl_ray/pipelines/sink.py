"""Resumable chunked output of a crawl.

``run_crawl(output_dir=...)`` has each fetch+parse actor write its
records slice as one parquet file, which the driver commits to a
manifest listing every committed file and its rows, per partition:

    out/part=3/chunk=000007-001.parquet   partition 3, drain chunk 7,
                                          slice 1
    out/_MANIFEST.json   {"num_partitions": 4, "batch_size": 1024,
                          "verify_pixels": true, "drop_bytes": false,
                          "offered": N, "complete": true, "partitions":
                          {"3": {"chunk=000007-001.parquet": rows}}}

A partition's drain is deterministic, so a file holds the same rows in
every run: a killed crawl resumes by restoring the frontier from its
checkpoint, draining again and writing only the files not listed
(the reference: a last-run JSON store + processed-bucket move,
hepcrawl/spiders/common/lastrunstore_spider.py:53-126,
desy_spider.py:139-150,233-242).  The manifest is first written once
the frontier is sealed and checkpointed, so it also commits the
checkpoint set.  Every file is replaced atomically (tmp + rename); an
unlisted file under ``part=*`` (a write that missed its commit, a tmp
file, a half-written compaction bin) is deleted when the next crawl
or compaction starts.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

MANIFEST = "_MANIFEST.json"


def read_manifest(output_dir: str) -> dict:
    try:
        with open(os.path.join(output_dir, MANIFEST)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"partitions": {}}


def write_json(path: str, obj) -> None:
    """Replace the JSON file ``path`` atomically (tmp + rename)."""
    with open(path + ".tmp", "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def write_chunk(table: pa.Table, path: str) -> int:
    """Write one parquet file atomically (a tmp file named for this
    process, then a rename); returns its rows.  The fetch+parse actors
    write their records with it, outside the object store."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return table.num_rows


def _sweep(part_dir: str, listed) -> None:
    """Delete the files under ``part_dir`` not ``listed`` (relative)."""
    for root, _, names in os.walk(part_dir):
        for name in names:
            path = os.path.join(root, name)
            if os.path.relpath(path, part_dir) not in listed:
                os.remove(path)


class ChunkOutput:
    """The driver's side of one crawl's ``output_dir``: the files still
    to write, and their commit.  Resuming a committed crawl needs its
    ``checkpoint_dir`` and ``params`` (what decides each file's rows);
    both are checked here, before the crawl calls any actor."""

    def __init__(self, output_dir: str, checkpoint_dir, **params):
        self.dir, self.params = output_dir, params
        self.manifest = read_manifest(output_dir)
        # the committed crawl's offered rows, or None: nothing to resume
        self.offered = self.manifest.get("offered")
        if self.offered is None:
            return
        if not checkpoint_dir:
            raise ValueError(f"{output_dir} holds a committed crawl; "
                             "resuming it needs its checkpoint_dir")
        diff = {k: (self.manifest.get(k), v) for k, v in params.items()
                if self.manifest.get(k) != v}
        if diff:
            raise ValueError(f"{output_dir} was written by another "
                             f"crawl (manifest, call): {diff}")

    def start(self, offered: int) -> None:
        """Unless a crawl is committed, commit this one, which offered
        ``offered`` rows (once its frontier is sealed and checkpointed);
        then delete the files the manifest does not list."""
        if self.offered is None:
            self.manifest = dict(
                self.params, offered=offered, complete=False,
                partitions={str(p): {}
                            for p in range(self.params["num_partitions"])})
            os.makedirs(self.dir, exist_ok=True)
            write_json(os.path.join(self.dir, MANIFEST), self.manifest)
        listed = self.manifest["partitions"]
        for d in glob.glob(os.path.join(self.dir, "part=*")):
            _sweep(d, listed.get(d.rsplit("=", 1)[1], ()))

    def path(self, pid: int, chunk: int, piece: int):
        """The file of slice ``piece`` of partition ``pid``'s drain
        chunk ``chunk``, or ``None`` when it is committed already."""
        name = f"chunk={chunk:06d}-{piece:03d}.parquet"
        if self.manifest["complete"] \
                or name in self.manifest["partitions"][str(pid)]:
            return None
        return os.path.join(self.dir, f"part={pid}", name)

    def commit(self, written, complete: bool) -> None:
        """Commit the ``(path, rows)`` of finished writes, and whether
        they were the crawl's last, in one manifest replace."""
        for path, rows in written:
            part_dir, name = os.path.split(path)
            pid = part_dir.rsplit("=", 1)[1]
            self.manifest["partitions"][pid][name] = rows
        self.manifest["complete"] = complete
        write_json(os.path.join(self.dir, MANIFEST), self.manifest)


def _partition_files(output_dir: str, pid: str, listed: dict) -> list:
    """The paths of one partition's ``listed`` files, in name order."""
    d = os.path.join(output_dir, f"part={pid}")
    return [os.path.join(d, f) for f in sorted(listed)]


def read_output(output_dir: str):
    """Dataset over every committed file, or ``None`` if there is none."""
    import ray

    manifest = read_manifest(output_dir)
    files = [f for pid, listed in sorted(manifest["partitions"].items(),
                                         key=lambda kv: int(kv[0]))
             for f in _partition_files(output_dir, pid, listed)]
    # partitioning=None: no "part" column parsed from the directories
    return ray.data.read_parquet(files, partitioning=None) if files \
        else None


def compact_output(output_dir: str,
                   target_bytes: int = 128 * 1024 * 1024) -> dict:
    """Merge each partition's small chunk files into ~``target_bytes``
    outputs (at 100 TB, one file per fetch+parse slice is millions of
    KB-sized files, and every later read pays per-file open cost).

    Crash-safe: merged bins are written under ``part=N/_compact/``;
    once a partition's bins are durable, its manifest entry switches
    to them in one atomic replace, and its chunk files are deleted
    last.  Unlisted files a crash leaves are swept by the next
    compaction or crawl.  A crawl still being written, and partitions
    already compacted or at or below one target-sized file per group,
    are left untouched, so a second run finds nothing to do.  The
    driver only bin-packs file sizes and commits; each merge is a Ray
    task, so no row bytes transit the driver.  Returns
    {"partitions_compacted": n, "files_before": b, "files_after": a}.
    """
    import ray

    manifest = read_manifest(output_dir)
    n_parts = files_before = files_after = 0
    merge_task = ray.remote(num_cpus=1)(_compact_group)
    # phase 1 — plan on metadata + submit every group merge
    pending = {}          # pid -> (files, new_listed, refs)
    for pid, listed in sorted(manifest["partitions"].items()):
        part_dir = os.path.join(output_dir, f"part={pid}")
        _sweep(part_dir, listed)
        files = _partition_files(output_dir, pid, listed)
        files_before += len(files)
        if not manifest["complete"] or len(files) <= 1 \
                or all(f.startswith("_compact/") for f in listed):
            files_after += len(files)
            continue
        # greedy size-bounded grouping in name order (row order within
        # the partition is preserved group-by-group)
        groups, size = [[]], 0
        for f in files:
            s = os.path.getsize(f)
            if groups[-1] and size + s > target_bytes:
                groups.append([])
                size = 0
            groups[-1].append(f)
            size += s
        if all(len(g) == 1 for g in groups):
            files_after += len(files)
            continue
        os.makedirs(os.path.join(part_dir, "_compact"), exist_ok=True)
        new_listed, refs = {}, []
        for gi, group in enumerate(groups):
            name = os.path.join("_compact", f"c{gi:05d}.parquet")
            refs.append(merge_task.remote(
                group, os.path.join(part_dir, name)))
            new_listed[name] = sum(listed[os.path.basename(f)]
                                   for f in group)
        pending[pid] = (files, new_listed, refs)
    # phase 2 — commit each partition once ITS writes are durable
    for pid in sorted(pending):
        files, new_listed, refs = pending[pid]
        ray.get(refs)
        # commit: readers atomically switch to the compacted set
        manifest["partitions"][pid] = new_listed
        write_json(os.path.join(output_dir, MANIFEST), manifest)
        # post-commit cleanup of superseded files
        for f in files:
            os.remove(f)
        n_parts += 1
        files_after += len(new_listed)
    return {"partitions_compacted": n_parts,
            "files_before": files_before, "files_after": files_after}


def _compact_group(files: list, out_path: str) -> int:
    """Merge one size-bounded bin of parquet files into a single file
    (runs as a Ray task: the bin's bytes are read and written entirely
    worker-side).  Single-file bins are byte-copied unchanged."""
    import shutil

    if len(files) == 1:
        shutil.copyfile(files[0], out_path)
        return 1
    pq.write_table(pa.concat_tables([pq.read_table(f) for f in files]),
                   out_path)
    return len(files)
