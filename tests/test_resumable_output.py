"""Kill/resume with chunked output (``run_crawl(output_dir=)``): a rerun
writes only the chunks its manifest does not list, leaves committed
files untouched, and completes to the uninterrupted run's records."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from hepcrawl_ray import synth
from hepcrawl_ray.pipelines import crawl as cp
from hepcrawl_ray.pipelines import sink

COLUMNS = ("url", "seq", "round", "pop_idx", "image_id", "caption",
           "title", "date_published", "document_type", "error",
           "pixels_verified", "phash_decoded")


@pytest.fixture(scope="module")
def corpus():
    images, _ = synth.generate_corpus(100)
    seeds = synth.generate_seeds(images)
    politeness = synth.generate_politeness()
    return images, seeds, politeness


def _crawl(corpus, out, ckpt, **kw):
    images, seeds, politeness = corpus
    kw = {"num_partitions": 4, **kw}
    return cp.run_crawl(images, seeds, politeness, output_dir=str(out),
                        checkpoint_dir=str(ckpt), width=2, **kw)


def _collect(output_dir):
    ds = sink.read_output(output_dir)
    t = pa.concat_tables(ds.iter_batches(batch_size=100_000,
                                         batch_format="pyarrow"))
    return t.sort_by([("url", "ascending"), ("seq", "ascending"),
                      ("round", "ascending")])


def _files(output_dir):
    """Every file under the partition directories, relative to
    ``output_dir``."""
    return sorted(os.path.relpath(os.path.join(r, f), output_dir)
                  for r, _, fs in os.walk(output_dir) for f in fs
                  if os.path.relpath(r, output_dir).startswith("part="))


def _listed(output_dir):
    return sorted(os.path.join(f"part={pid}", f)
                  for pid, listed in sink.read_manifest(output_dir)
                  ["partitions"].items() for f in listed)


def _assert_same_records(got, want):
    assert got.num_rows == want.num_rows
    # full content equality on the stable identifying + parsed columns
    for col in COLUMNS:
        assert got.column(col).equals(want.column(col)), col


def test_crash_resume_identical_output(ray_session, corpus, tmp_path):
    """The state a crash leaves, made deterministically: the manifest
    lists only some chunks, an unlisted chunk file holds junk, and a
    tmp file and a chunk of no drain lie around.  The rerun rewrites
    exactly the unlisted chunks and ends with the clean records."""
    out, ckpt = tmp_path / "out", tmp_path / "ckpt"
    _crawl(corpus, out, ckpt, batch_size=8)
    clean = _collect(str(out))
    mpath = os.path.join(out, "_MANIFEST.json")
    with open(mpath) as f:
        manifest = json.load(f)
    assert manifest["offered"] == corpus[1].num_rows

    assert manifest["complete"]
    manifest["complete"] = False
    dropped = []
    for pid, listed in manifest["partitions"].items():
        for name in sorted(listed)[1::2]:
            del listed[name]
            dropped.append(os.path.join(out, f"part={pid}", name))
    assert len(dropped) >= 3
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    with open(dropped[0], "wb") as f:
        f.write(b"torn chunk")
    os.remove(dropped[1])
    junk = [os.path.join(out, "part=0", "chunk=999999-000.parquet"),
            dropped[2] + ".12345.tmp"]
    for path in junk:
        with open(path, "wb") as f:
            f.write(b"junk")
    listed = _listed(str(out))
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in listed}

    res = _crawl(corpus, out, ckpt, batch_size=8)
    assert res["offered"] == corpus[1].num_rows
    assert {f: os.path.getmtime(os.path.join(out, f)) for f in listed} \
        == mtimes, "a committed chunk was rewritten on resume"
    assert _files(str(out)) == _listed(str(out))
    assert not any(os.path.exists(p) for p in junk)
    assert all(os.path.exists(p) for p in dropped)
    assert sink.read_manifest(str(out))["complete"]
    _assert_same_records(_collect(str(out)), clean)


def test_orphan_partition_dir_rewritten(ray_session, corpus, tmp_path):
    """A partition directory WITHOUT a manifest entry is crash garbage
    (an in-flight write that missed its manifest record): a run must
    rebuild it rather than trust its contents."""
    out = str(tmp_path / "orphan")
    os.makedirs(os.path.join(out, "part=1"))
    junk = os.path.join(out, "part=1", "stale.parquet")
    with open(junk, "w") as f:
        f.write("not parquet")

    _crawl(corpus, out, tmp_path / "orphan_ckpt", num_partitions=2)
    assert len(sink.read_manifest(out)["partitions"]) == 2
    assert not os.path.exists(junk), "stale crash leftover survived"
    assert _files(out) == _listed(out)
    t = _collect(out)
    assert t.num_rows > 0


def test_partial_checkpoint_without_manifest_is_fresh(ray_session, corpus,
                                                      tmp_path):
    """A checkpoint directory holding only some partitions' state (a
    crash between two checkpoint calls), here another crawl's, is not
    committed without a manifest: the crawl starts afresh and equals
    a clean run."""
    images, seeds, politeness = corpus
    _crawl(corpus, tmp_path / "clean", tmp_path / "clean_ckpt")
    clean = _collect(str(tmp_path / "clean"))

    other = tmp_path / "other_ckpt"
    _crawl((images, seeds.slice(0, 20), politeness), tmp_path / "other",
           other)
    ckpt = tmp_path / "ckpt"
    shutil.copytree(other / "part=0", ckpt / "part=0")
    res = _crawl(corpus, tmp_path / "out", ckpt)
    assert res["offered"] == seeds.num_rows
    _assert_same_records(_collect(str(tmp_path / "out")), clean)


def test_committed_manifest_must_match_the_call(ray_session, corpus,
                                                tmp_path, monkeypatch):
    """A committed crawl is resumed only by the same settings and with
    its checkpoint directory; anything else raises ValueError before
    any actor call."""
    out, ckpt = tmp_path / "out", tmp_path / "ckpt"
    _crawl(corpus, out, ckpt, num_partitions=2)

    def no_actors(*args, **kwargs):
        raise AssertionError("an actor was acquired")

    for name in ("start_frontier", "restore_frontier", "acquire_pool"):
        monkeypatch.setattr(cp, name, no_actors)
    for kw in ({"num_partitions": 3}, {"num_partitions": 2,
                                       "batch_size": 64},
               {"num_partitions": 2, "drop_bytes": True}):
        with pytest.raises(ValueError, match="another crawl"):
            _crawl(corpus, out, ckpt, **kw)
    images, seeds, politeness = corpus
    with pytest.raises(ValueError, match="checkpoint_dir"):
        cp.run_crawl(images, seeds, politeness, num_partitions=2,
                     output_dir=str(out))


def test_compact_output_preserves_rows(ray_session, corpus, tmp_path):
    out = str(tmp_path / "compact")
    _crawl(corpus, out, tmp_path / "compact_ckpt", batch_size=8)
    before = _collect(out)
    n_before = sum(
        len(sink._partition_files(out, pid, listed))
        for pid, listed in sink.read_manifest(out)["partitions"].items())

    # a target above the whole output: one file per partition
    stats = sink.compact_output(out, target_bytes=1 << 30)
    assert stats["files_before"] == n_before
    assert stats["files_after"] <= stats["files_before"]
    after = _collect(out)
    assert after.equals(before)          # byte-identical row content

    # manifest now pins explicit compacted file lists
    m = sink.read_manifest(out)
    compacted = [listed for listed in m["partitions"].values()
                 if listed and all(f.startswith("_compact/")
                                   for f in listed)]
    assert len(compacted) == stats["partitions_compacted"] > 0
    rows = {pid: sum(listed.values())
            for pid, listed in m["partitions"].items()}
    assert sum(rows.values()) == before.num_rows

    # idempotent: second run compacts nothing, rows unchanged
    stats2 = sink.compact_output(out, target_bytes=1 << 30)
    assert stats2["partitions_compacted"] == 0
    assert stats2["files_before"] == stats2["files_after"] \
        == stats["files_after"]
    assert _collect(out).equals(before)


def test_compact_output_multi_bin(ray_session, corpus, tmp_path):
    """Small-file state with a TINY size target: each partition packs
    into several output bins (exercising the parallel per-bin Ray
    merge tasks, not just the one-file collapse), content is
    byte-identical and every bin respects the greedy target except
    single oversized files."""
    out = str(tmp_path / "multibin")
    _crawl(corpus, out, tmp_path / "multibin_ckpt", num_partitions=2,
           batch_size=8)   # many small files per partition
    before = _collect(out)
    m0 = sink.read_manifest(out)
    sizes = {pid: [os.path.getsize(f) for f in
                   sink._partition_files(out, pid, listed)]
             for pid, listed in m0["partitions"].items()}
    target = 3 * max(max(s) for s in sizes.values() if s)
    stats = sink.compact_output(out, target_bytes=target)
    assert stats["partitions_compacted"] >= 1
    assert stats["files_after"] < stats["files_before"]
    # at least one compacted partition holds MULTIPLE bins
    m = sink.read_manifest(out)
    n_bins = [len(listed) for listed in m["partitions"].values()
              if listed and all(f.startswith("_compact/") for f in listed)]
    assert any(n > 1 for n in n_bins), n_bins
    assert _collect(out).equals(before)
    # greedy bound: no bin may exceed the target unless it is a
    # single source file (none is here — sources are ~8-row files)
    for pid, listed in m["partitions"].items():
        for f in sink._partition_files(out, pid, listed):
            assert os.path.getsize(f) <= 2 * target


def test_compact_output_crash_orphans_ignored(ray_session, corpus,
                                              tmp_path):
    out = str(tmp_path / "orphan")
    _crawl(corpus, out, tmp_path / "orphan_ckpt", num_partitions=2)
    before = _collect(out)

    # simulate a crash BEFORE the manifest commit: half-written
    # compacted files exist but the manifest never switched
    pid = sorted(sink.read_manifest(out)["partitions"])[0]
    comp = os.path.join(out, f"part={pid}", "_compact")
    os.makedirs(comp)
    with open(os.path.join(comp, "c00000.parquet"), "wb") as f:
        f.write(b"garbage half-written parquet")
    assert _collect(out).equals(before)   # readers never see orphans

    # the next compaction sweeps the orphan and completes
    sink.compact_output(out, target_bytes=1 << 30)
    assert _collect(out).equals(before)
    assert _files(out) == _listed(out)
