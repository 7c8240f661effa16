"""The verify kernels against their definitions.

- PNG decode undoes all five scanline filters (a filtering encoder
  lives here; the codec's own encoder writes filter 0 only).
- ``decode_luma`` equals the integer luma of ``decode()``, for every
  size in a sweep over h, w in 8..160, noise / gradient / constant
  content, both formats.
- ``phash64``, ``phash64_many_from_luma`` and a full 32x32-DCT
  reference kept here (the hash's original definition: resample to
  32x32, full DCT, read the 8x8 corner) give the same bits.  Constant
  images put ties at the median.

Every check runs under both payload inflates: libdeflate, and the
zlib fallback (the ``...Zlib`` classes).
"""

import struct
import zlib

import numpy as np
import pytest

from hepcrawl_ray import codecs

pytestmark = pytest.mark.usefixtures("inflate_backend")

SIZES = (8, 9, 13, 16, 31, 32, 33, 48, 63, 64, 72, 95, 96, 127, 128, 160)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if pa <= pb and pa <= pc else (b if pb <= pc else c)


def _filter_row(f, cur, prev, bpp=3):
    """PNG filter ``f`` applied to one scanline (lists of ints)."""
    out = []
    for x, v in enumerate(cur):
        a = cur[x - bpp] if x >= bpp else 0
        b = prev[x]
        c = prev[x - bpp] if x >= bpp else 0
        pred = (0, a, b, (a + b) // 2, _paeth(a, b, c))[f]
        out.append((v - pred) & 0xFF)
    return out


def _png(w, h, raw, n_idat=1):
    """An RGB8 PNG of scanlines ``raw`` (filter bytes included), the
    deflate stream split over ``n_idat`` IDAT chunks."""
    z = zlib.compress(bytes(raw), 6)
    cuts = [len(z) * i // n_idat for i in range(n_idat + 1)]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (codecs._PNG_SIG + codecs._chunk(b"IHDR", ihdr)
            + b"".join(codecs._chunk(b"IDAT", z[a:b])
                       for a, b in zip(cuts, cuts[1:]))
            + codecs._chunk(b"IEND", b""))


def encode_png_filtered(px, filters):
    """An RGB8 PNG whose scanline ``y`` uses filter ``filters[y % len]``,
    over two IDAT chunks."""
    h, w = px.shape[:2]
    rows = px.reshape(h, w * 3).tolist()
    prev = [0] * (w * 3)
    raw = bytearray()
    for y, cur in enumerate(rows):
        f = filters[y % len(filters)]
        raw.append(f)
        raw += bytes(_filter_row(f, cur, prev))
        prev = cur
    return _png(w, h, raw, n_idat=2)


def _image(kind, h, w, rng):
    if kind == "noise":
        return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    if kind == "gradient":
        yy, xx = np.mgrid[0:h, 0:w]
        return np.stack([xx * 255 // (w - 1), yy * 255 // (h - 1),
                         (xx + 2 * yy) * 5 % 256], -1).astype(np.uint8)
    return np.full((h, w, 3), rng.integers(0, 256, 3), dtype=np.uint8)


def _int_luma(px):
    i = px.astype(np.int64)
    return (77 * i[..., 0] + 151 * i[..., 1] + 28 * i[..., 2]) >> 8


def _dct_matrix(n):
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    m[0] /= np.sqrt(2.0)
    return m


def _full_pool_matrix(n):
    """(32, n) DCT(32) @ area-pooling, in float32."""
    yi = np.arange(33) * n // 32
    pool = np.zeros((32, n))
    for r in range(32):
        lo, hi = yi[r], max(yi[r + 1], yi[r] + 1)
        pool[r, lo:hi] = 1.0 / (hi - lo)
    return np.ascontiguousarray((_dct_matrix(32) @ pool).astype(np.float32))


def reference_phash(px):
    """The full 32x32 DCT, then the 8x8 corner minus DC against its
    median, 64 bits row-major as signed int64."""
    gray = _int_luma(px).astype(np.float32)
    h, w = gray.shape
    dct = _full_pool_matrix(h) @ gray @ _full_pool_matrix(w).T
    block = np.ascontiguousarray(dct[:8, :8]).ravel()
    med = np.median(block[1:])
    val = sum(1 << (63 - i) for i in range(64) if block[i] > med)
    return val - (1 << 64) if val >= (1 << 63) else val


class TestFilteredPng:
    @pytest.mark.parametrize("f", [0, 1, 2, 3, 4])
    def test_each_filter(self, f):
        rng = np.random.default_rng(f)
        for h, w in [(1, 1), (5, 7), (16, 24)]:
            px = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            blob = encode_png_filtered(px, [f])
            assert (codecs.decode_png(blob) == px).all()
            luma, w_dec, h_dec = codecs.decode_luma(blob, "png")
            assert (w_dec, h_dec) == (w, h)
            assert (luma == _int_luma(px)).all()

    def test_mixed_filters_and_wraparound(self):
        rng = np.random.default_rng(5)
        # extremes make every filter's arithmetic wrap mod 256
        px = rng.choice(np.array([0, 1, 127, 128, 254, 255], np.uint8),
                        (23, 19, 3))
        # Up, Paeth and Average each follow a Sub row, whose bytes
        # they read as the row above
        blob = encode_png_filtered(px, [4, 1, 2, 3, 1, 4, 0, 1, 3])
        assert (codecs.decode_png(blob) == px).all()
        assert (codecs.decode_luma(memoryview(blob), "png")[0]
                == _int_luma(px)).all()

    def test_bad_filter_type(self):
        blob = _png(2, 2, (b"\x00" + bytes(6)) + (b"\x05" + bytes(6)))
        with pytest.raises(ValueError, match="bad filter"):
            codecs.decode_png(blob)


class TestKernelSweep:
    @pytest.mark.parametrize("kind", ["noise", "gradient", "constant"])
    @pytest.mark.parametrize("fmt", ["png", "jpeg"])
    def test_luma_and_phash_pinned(self, kind, fmt):
        rng = np.random.default_rng([len(kind), len(fmt)])
        # every listed size as h and as w, against permuted partners,
        # the corners of the range, and random sizes in it
        pairs = [(h, w) for _ in range(2)
                 for h, w in zip(SIZES, rng.permutation(SIZES))]
        pairs += [(8, 8), (160, 160), (8, 160), (160, 8)]
        pairs += [tuple(p) for p in rng.integers(8, 161, (12, 2))]
        lumas, decoded = [], []
        for h, w in pairs:
            blob = codecs.encode(_image(kind, int(h), int(w), rng), fmt)
            px = codecs.decode(blob, fmt)
            luma, w_dec, h_dec = codecs.decode_luma(blob, fmt)
            assert (w_dec, h_dec) == (w, h)
            assert luma.dtype == np.float32 and luma.shape == (h, w)
            assert (luma == _int_luma(px)).all(), (h, w)
            lumas.append(luma)
            decoded.append(px)
        batched = codecs.phash64_many_from_luma(lumas).tolist()
        single = [codecs.phash64(px) for px in decoded]
        ref = [reference_phash(px) for px in decoded]
        assert single == batched == ref
        assert codecs.phash64_many(decoded).tolist() == ref


class TestFilteredPngZlib(TestFilteredPng):
    INFLATE = "zlib"


class TestKernelSweepZlib(TestKernelSweep):
    INFLATE = "zlib"
