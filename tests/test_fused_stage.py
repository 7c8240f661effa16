"""FetchParseStage(batch) == ParseStage(fetch(batch)), row for row.

The fused stage takes only the small payload columns and verifies
each payload as a view of the corpus' own Arrow buffers; the unfused
composition takes the ``bytes`` column and decodes Python bytes.  Both
must give the same records, for a stored corpus (keyed row-group
lookup, working sets that change between batches) and an in-memory
one, with ``drop_bytes`` either way, over missing keys, null and
corrupt payloads, chunks with a nonzero offset and ``large_binary``
payloads.  Every check runs under both payload inflates: libdeflate,
and the zlib fallback (``TestZlibFallback``).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from hepcrawl_ray import codecs, synth
from hepcrawl_ray.stages import (FetchParseStage, FetchStage,
                                 KeyedFetchStage, ParseStage, _blob_views)

pytestmark = pytest.mark.usefixtures("inflate_backend")

N_IMAGES = 96


@pytest.fixture(scope="module")
def images():
    """A corpus whose row 3's payload is null, row 5's is garbage and
    row 7's is a truncated PNG; the rest decode."""
    images, _ = synth.generate_corpus(N_IMAGES, seed=3, size_range=(8, 20))
    blobs = images.column("bytes").to_pylist()
    fmts = images.column("fmt").to_pylist()
    blobs[3] = None
    blobs[5] = b"\x00garbage\xff" * 3
    png = next(i for i, f in enumerate(fmts) if f == "png" and i > 7)
    blobs[7], fmts[7] = blobs[png][:40], "png"
    images = images.set_column(images.schema.get_field_index("bytes"),
                               "bytes", pa.array(blobs, pa.binary()))
    return images.set_column(images.schema.get_field_index("fmt"), "fmt",
                             pa.array(fmts, pa.string()))


def _batch(ids):
    return pa.table({"url": pa.array([f"http://h.org/s/{i}" for i in ids],
                                     pa.string()),
                     "seq": pa.array(np.arange(len(ids)), pa.int64())})


def _batches(images):
    ids = images.column("image_id").to_pylist()
    rng = np.random.default_rng(11)
    return [
        _batch(ids[:40] + ["img_absent"]),              # clustered + miss
        _batch([ids[i] for i in rng.permutation(N_IMAGES)[:50]]),
        _batch(ids[60:] + ids[:10]),                    # new working set
        _batch(["img_absent_1", "img_absent_2"]),       # no row group
        _batch([]),
        _batch(ids[3:8] * 3),                           # repeats
    ]


def _with_large_binary(t):
    i = t.schema.get_field_index("bytes")
    return t.set_column(i, pa.field("bytes", pa.large_binary()),
                        t.column("bytes").cast(pa.large_binary()))


def _offset_chunks(t):
    """Same rows, three chunks, two of them slices with nonzero offsets."""
    a, b = 17, 55
    return pa.Table.from_batches(t.slice(0, a).to_batches()
                                 + t.slice(a, b - a).to_batches()
                                 + t.slice(b).to_batches())


def _stored(tmp_path, t, name):
    path = str(tmp_path / f"{name}.parquet")
    pq.write_table(t.sort_by("image_id"), path, row_group_size=16)
    return path


def _assert_fused_equals_unfused(corpus, fetch_cls, batches):
    for verify in (True, False):
        for drop in (True, False):
            fused = FetchParseStage(corpus, verify, drop)
            fetch = fetch_cls(corpus)
            parse = ParseStage(verify_pixels=verify, drop_bytes=drop)
            for b in batches:
                got = fused(b)
                want = parse(fetch(b))
                assert got.equals(want), (verify, drop, b.num_rows)
                assert ("bytes" in got.column_names) is not drop


BAD = ["img0000003", "img0000005", "img0000007"]


def _check_verdicts(stage, images):
    """Over every corpus row: the null, garbage and truncated payloads
    fail verification, every other row passes with the corpus phash."""
    records = stage(_batch(images.column("image_id").to_pylist()))
    bad = pc.is_in(records.column("image_id"), value_set=pa.array(BAD))
    assert records.filter(bad).column("pixels_verified").to_pylist() \
        == [False] * len(BAD)
    good = records.filter(pc.invert(bad))
    assert good.num_rows == N_IMAGES - len(BAD)
    assert pc.all(good.column("pixels_verified")).as_py()
    assert good.column("phash").equals(good.column("phash_decoded"))


@pytest.mark.parametrize("layout", ["plain", "offset_chunks", "large_binary"])
def test_in_memory_corpus(images, layout):
    t = {"plain": images, "offset_chunks": _offset_chunks(images),
         "large_binary": _with_large_binary(images)}[layout]
    if layout == "offset_chunks":
        assert t.column("bytes").num_chunks == 3
        assert all(c.offset > 0 for c in t.column("bytes").chunks[1:])
    batches = _batches(images)
    _assert_fused_equals_unfused(t, FetchStage, batches)
    _check_verdicts(FetchParseStage(t, True, True), images)


@pytest.mark.parametrize("layout", ["plain", "large_binary"])
def test_stored_corpus(images, tmp_path, layout):
    t = images if layout == "plain" else _with_large_binary(images)
    path = _stored(tmp_path, t, layout)
    assert pq.read_schema(path).field("bytes").type == t.schema.field(
        "bytes").type
    batches = _batches(images)
    _assert_fused_equals_unfused(path, KeyedFetchStage, batches)
    _check_verdicts(FetchParseStage(path, True, True), images)


def test_views_are_unsigned_bytes(images):
    """``memoryview(pa.Buffer)`` has format 'b': a 'b' view compares
    unequal to any ``bytes`` holding a byte >= 0x80, so a PNG signature
    check on it always fails and every PNG row silently fails
    verification.  The views must be cast to 'B'."""
    col = _offset_chunks(images).column("bytes")
    views = _blob_views(col)
    assert len(views) == len(col)
    for v, want in zip(views, col.to_pylist()):
        if want is None:
            assert v is None
            continue
        assert v.format == "B" and v == want
    fmts = images.column("fmt").to_pylist()
    png = next(i for i, f in enumerate(fmts) if f == "png" and i > 7)
    assert views[png][:8] == codecs._PNG_SIG
    raw = memoryview(pa.py_buffer(codecs._PNG_SIG))
    assert raw.format == "b" and raw != codecs._PNG_SIG
    rec = FetchParseStage(images, True, True)(
        _batch([images.column("image_id")[png].as_py()]))
    assert rec.column("pixels_verified").to_pylist() == [True]


class TestZlibFallback:
    INFLATE = "zlib"
    test_in_memory_corpus = staticmethod(test_in_memory_corpus)
    test_stored_corpus = staticmethod(test_stored_corpus)
    test_views_are_unsigned_bytes = staticmethod(
        test_views_are_unsigned_bytes)
