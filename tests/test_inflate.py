"""The payload inflate, ``codecs._inflate(z, n)``, under both backends.

- One error table: libdeflate and the zlib fallback accept and reject
  the same streams (trailing bytes after the stream are accepted, as
  ``zlib.decompress`` always did; a truncated stream, a bad Adler-32,
  an empty stream and a declared size off by one are rejected).
- Forged PNG and QNT headers (huge dims, one row more than the
  stream holds, zero dims) fail verification without a large
  allocation: a declared size no deflate stream of that length can
  hold is refused before the output buffer exists.
- A library that does not load falls back to zlib.
"""

import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pyarrow as pa
import pytest

from hepcrawl_ray import codecs
from hepcrawl_ray.stages import FetchParseStage

DATA = bytes(np.random.default_rng(0).integers(0, 64, 5000, np.uint8))
Z = zlib.compress(DATA, 6)

# (case, stream, declared size, accepted)
STREAMS = [
    ("good", Z, len(DATA), True),
    ("read_only_view", memoryview(Z), len(DATA), True),
    ("trailing_bytes", Z + b"\x00trailing", len(DATA), True),
    ("truncated", Z[:-9], len(DATA), False),
    ("bad_adler32", Z[:-1] + bytes([Z[-1] ^ 1]), len(DATA), False),
    ("empty_stream", b"", 0, False),
    ("size_plus_1", Z, len(DATA) + 1, False),
    ("size_minus_1", Z, len(DATA) - 1, False),
    ("size_over_bound", Z, 1040 * len(Z) + 2000, False),
]

W, H = 16, 12
PX = np.random.default_rng(1).integers(0, 256, (H, W, 3), dtype=np.uint8)
PNG_Z = zlib.compress(
    np.concatenate([np.zeros((H, 1), np.uint8), PX.reshape(H, 3 * W)],
                   axis=1).tobytes(), 6)
QNT_Z = zlib.compress(((PX.astype(np.uint16) + 2) // 4).astype(
    np.uint8).tobytes(), 6)

# (case, w, h, stream): each header declares (w, h) over a stream
# holding a W x H image, or nothing
FORGED = [
    ("true_dims", W, H, None),
    ("huge", 2**31 - 1, 2**31 - 1, None),
    ("large", 20_000, 20_000, None),
    ("one_row_more", W, H + 1, None),
    ("zero_width", 0, H, None),
    ("zero_height", W, 0, None),
    ("zero_both", 0, 0, None),
    ("zero_height_empty_stream", 2**31 - 1, 0, zlib.compress(b"")),
]


def _forged(fmt, w, h, z=None):
    if fmt == "png":
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return (codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr)
                + codecs._chunk(b"IDAT", PNG_Z if z is None else z)
                + codecs._chunk(b"IEND", b""))
    return (codecs._QNT_MAGIC + struct.pack(">IIB", w, h, 4)
            + (QNT_Z if z is None else z))


class TestInflate:
    pytestmark = pytest.mark.usefixtures("inflate_backend")
    INFLATE = "libdeflate"

    def test_backend_in_use(self):
        assert codecs.INFLATE_BACKEND == self.INFLATE
        assert bool(codecs._lib) is (self.INFLATE == "libdeflate")

    @pytest.mark.parametrize("case,z,n,accepted", STREAMS,
                             ids=[s[0] for s in STREAMS])
    def test_error_table(self, case, z, n, accepted):
        if accepted:
            out = codecs._inflate(z, n)
            assert out.dtype == np.uint8 and out.tobytes() == DATA
        else:
            with pytest.raises(ValueError):
                codecs._inflate(z, n)

    def test_size_bound_is_checked_first(self):
        with pytest.raises(ValueError, match="declared size"):
            codecs._inflate(Z, 2**62)

    @pytest.mark.parametrize("fmt", ["png", "jpeg"])
    @pytest.mark.parametrize("case,w,h,z", FORGED,
                             ids=[f[0] for f in FORGED])
    def test_forged_header(self, fmt, case, w, h, z):
        blob = _forged(fmt, w, h, z)
        # the corpus columns agree with the forged header, so only the
        # decode itself can fail the row
        images = pa.table({
            "image_id": ["img0"], "bytes": pa.array([blob], pa.binary()),
            "fmt": [fmt], "w": pa.array([w], pa.int32()),
            "h": pa.array([h], pa.int32()), "caption": ["c"],
            "phash": pa.array([0], pa.int64())})
        batch = pa.table({"url": ["http://h.org/s/img0"],
                          "seq": pa.array([0], pa.int64())})
        stage = FetchParseStage(images, True, True)
        tracemalloc.start()
        try:
            rec = stage(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = case == "true_dims"
        assert rec.column("pixels_verified").to_pylist() == [want]
        assert peak < 8 << 20, peak
        if not want:
            with pytest.raises(ValueError):
                codecs.decode_luma(blob, fmt)

    def test_threads_keep_their_own_decompressor(self):
        blobs = [codecs.encode(PX[: 4 + i % 8], "png") for i in range(64)]
        want = [codecs.decode(b, "png").tobytes() for b in blobs]
        got = [None] * len(blobs)

        def work(k):
            for i in range(k, len(blobs), 4):
                got[i] = codecs.decode(blobs[i], "png").tobytes()

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == want


class TestInflateZlib(TestInflate):
    INFLATE = "zlib"


@pytest.mark.parametrize("failure", ["missing_library", "missing_symbol"])
def test_failed_load_falls_back_to_zlib(monkeypatch, failure):
    import ctypes

    def cdll(name):
        if failure == "missing_library":
            raise OSError(f"{name}: cannot open shared object file")
        return object()

    codecs.INFLATE_BACKEND  # load for real first, so teardown restores it
    monkeypatch.setattr(codecs, "_lib", None)
    monkeypatch.delattr(codecs, "INFLATE_BACKEND")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    blob = codecs.encode(PX, "png")
    assert (codecs.decode(blob, "png") == PX).all()
    assert codecs._lib is False and codecs.INFLATE_BACKEND == "zlib"
    with pytest.raises(ValueError):
        codecs._inflate(Z, len(DATA) + 1)
