"""Image codecs for the synthetic image+caption corpus.

The corpus schema (BASELINE.json ``input_hint``) carries encoded image
bytes in a ``binary`` column; the per-row output invariant is
decoded-pixel equality (exact for lossless, PSNR >= 40 dB for lossy)
— the analog of the reference's downloaded-file fidelity through
``DocumentsPipeline`` (reference: hepcrawl/pipelines.py:47-99).

Two formats:

- ``png`` — a real, self-contained PNG codec (8-bit RGB, all five
  scanline filters on decode, filter-0 on encode) built on numpy,
  stdlib ``zlib`` to deflate and the system libdeflate to inflate
  (``_inflate``; stdlib ``zlib`` when libdeflate does not load).
  Lossless: decode(encode(x)) == x exactly.
- ``jpeg`` — **a deterministic stand-in for a lossy codec**: uniform
  quantization (step 4) + zlib, in a tagged container.  Real JPEG
  libraries are not available in this environment; this codec is
  deliberately simple but genuinely lossy (max per-sample error =
  step/2), so the PSNR >= 40 dB verification branch is exercised for
  real.  Decoded PSNR of encode->decode is ~47 dB.  Swap in a real
  JPEG codec by replacing ``encode_lossy``/``decode_lossy``.

All functions operate on ``(h, w, 3) uint8`` numpy arrays.

Every payload inflate goes through ``_inflate(z, n)``, which knows the
output size ``n`` from the header already parsed.  ``INFLATE_BACKEND``
names the inflate in use in this process: ``"libdeflate"`` or
``"zlib"``.
"""

from __future__ import annotations

import struct
import threading
import zlib

import numpy as np

# ------------------------------------------------------------ inflate ----
#
# libdeflate inflates a whole zlib stream into an output buffer of a
# size the caller knows, ~1.7x faster than zlib.decompress on the
# corpus' streams (71 vs 123 us/img).  It is the system library
# (libdeflate.so.0), loaded with ctypes on the first inflate in each
# process, so a process that never decodes never loads it.  Where it
# does not load, stdlib zlib is the fallback.

# Deflate expands at most 1032:1 (a 258-byte match in two bits), and
# a zlib stream's header and checksum inflate to nothing, so a stream
# of k bytes holds at most 1032 k.  A declared size above that is a
# forged header, refused before any allocation.
_DEFLATE_MAX_RATIO = 1032

_LIBDEFLATE_ERRORS = {1: "bad data", 2: "short output",
                      3: "insufficient space"}

_lib = None  # libdeflate's CDLL once loaded; False if it did not load
_tls = threading.local()  # a decompressor must not be shared by threads


def _load_inflate() -> None:
    global _lib, INFLATE_BACKEND
    try:
        import ctypes

        lib = ctypes.CDLL("libdeflate.so.0")
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_zlib_decompress.restype = ctypes.c_int
        lib.libdeflate_zlib_decompress.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p]
        _lib = lib
    except (OSError, AttributeError):
        _lib = False
    INFLATE_BACKEND = "libdeflate" if _lib else "zlib"


def __getattr__(name):
    # INFLATE_BACKEND is known once the library has been tried
    if name == "INFLATE_BACKEND":
        _load_inflate()
        return INFLATE_BACKEND
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Decompressor:
    """A libdeflate decompressor, freed with the thread that owns it."""

    def __init__(self, lib):
        self.lib, self.ptr = lib, lib.libdeflate_alloc_decompressor()
        if not self.ptr:
            raise MemoryError("libdeflate_alloc_decompressor")

    def __del__(self):
        self.lib.libdeflate_free_decompressor(self.ptr)


def _inflate(z, n: int) -> np.ndarray:
    """Inflate the zlib stream ``z`` (any byte buffer, read-only views
    too) into exactly ``n`` bytes, as a uint8 array.  Bytes after the
    end of the stream are ignored.  Raises ``ValueError`` if the stream
    is corrupt or does not hold exactly ``n`` bytes, and for an ``n``
    no stream of ``len(z)`` bytes can hold."""
    src = np.frombuffer(z, dtype=np.uint8)
    if n > _DEFLATE_MAX_RATIO * src.size:
        raise ValueError(f"declared size {n} exceeds what a {src.size}-byte "
                         "deflate stream can hold")
    if _lib is None:
        _load_inflate()
    if not _lib:
        try:
            out = zlib.decompress(z)
        except zlib.error as e:
            raise ValueError(f"bad zlib stream: {e}") from None
        if len(out) != n:
            raise ValueError(f"inflated {len(out)} bytes, header says {n}")
        return np.frombuffer(out, dtype=np.uint8)
    d = getattr(_tls, "d", None)
    if d is None:
        d = _tls.d = _Decompressor(_lib)
    out = np.empty(n, dtype=np.uint8)
    # buffers go by address (ctypes' from_buffer rejects read-only
    # ones); a NULL actual_out makes any size but exactly n an error
    r = _lib.libdeflate_zlib_decompress(
        d.ptr, src.__array_interface__["data"][0], src.size,
        out.__array_interface__["data"][0], n, None)
    if r:
        raise ValueError(f"libdeflate: {_LIBDEFLATE_ERRORS.get(r, r)}")
    return out


# ---------------------------------------------------------------- PNG ----

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data)) + tag + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as an RGB8 PNG (filter 0)."""
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] == 3
    h, w = pixels.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, RGB
    # prepend filter byte 0 to each scanline
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level=6)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _png_rows(data) -> tuple[np.ndarray, int, int]:
    """Parse an RGB8 PNG's chunks and inflate its IDAT stream once:
    ``(raw (h, 1 + 3w) uint8 scanlines with their filter bytes, w, h)``.
    ``data`` is any byte buffer (bytes, or a ``'B'`` memoryview)."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    idat = []
    w = h = None
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = bytes(data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bitdepth, colortype, _, _, interlace = struct.unpack(
                ">IIBBBBB", body)
            if bitdepth != 8 or colortype != 2 or interlace != 0:
                raise ValueError("only 8-bit non-interlaced RGB supported")
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if w is None or h is None:
        raise ValueError("missing IHDR")
    if not w or not h:
        raise ValueError("zero image dimension")
    z = idat[0] if len(idat) == 1 else b"".join(idat)
    return _inflate(z, h * (1 + 3 * w)).reshape(h, 1 + w * 3), w, h


def _unfilter(raw: np.ndarray, h: int, w: int) -> np.ndarray:
    """(h, 3w) uint8 pixel rows from inflated scanlines ``raw`` (h,
    1 + 3w), undoing all five PNG filters.  Unfiltered input comes
    back as a view.  Sub reads only its own row, so every Sub row is
    one per-channel cumulative sum mod 256, done first; Up is one
    vector add; Average and Paeth depend on the byte to their left,
    so they run over plain ints."""
    filters = raw[:, 0]
    if not filters.any():  # all filter-0 scanlines: no unfiltering needed
        return raw[:, 1:]
    lines = raw[:, 1:].copy()
    bpp, n = 3, w * 3
    sub = filters == 1
    if sub.any():
        lines[sub] = np.cumsum(lines[sub].reshape(-1, w, bpp), axis=1,
                               dtype=np.uint8).reshape(-1, n)
    prev = np.zeros(n, dtype=np.uint8)
    for y in range(h):
        f = int(filters[y])
        line = lines[y]
        if f == 2:  # Up
            line += prev
        elif f == 3:  # Average
            cur, up = line.tolist(), prev.tolist()
            for x in range(n):
                left = cur[x - bpp] if x >= bpp else 0
                cur[x] = (cur[x] + ((left + up[x]) >> 1)) & 0xFF
            line[:] = cur
        elif f == 4:  # Paeth
            cur, up = line.tolist(), prev.tolist()
            for x in range(n):
                if x >= bpp:
                    a, c = cur[x - bpp], up[x - bpp]
                else:
                    a = c = 0
                b = up[x]
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[x] = (cur[x] + pred) & 0xFF
            line[:] = cur
        elif f > 4:
            raise ValueError(f"bad filter {f}")
        prev = line
    return lines


def decode_png(data) -> np.ndarray:
    """Decode an RGB8 PNG produced by any filter-0..4 encoder."""
    raw, w, h = _png_rows(data)
    return np.ascontiguousarray(_unfilter(raw, h, w)).reshape(h, w, 3)


# ----------------------------------------------- lossy stand-in codec ----

_QNT_MAGIC = b"QNT1"
_QNT_STEP = 4  # uniform quantization step -> ~47 dB PSNR


def encode_lossy(pixels: np.ndarray, step: int = _QNT_STEP) -> bytes:
    """Deterministic lossy stand-in (see module docstring).  fmt='jpeg'."""
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] == 3
    h, w = pixels.shape[:2]
    q = ((pixels.astype(np.uint16) + step // 2) // step).astype(np.uint8)
    payload = zlib.compress(q.tobytes(), level=6)
    return _QNT_MAGIC + struct.pack(">IIB", w, h, step) + payload


def _qnt_rows(data) -> tuple[np.ndarray, int, int, int]:
    """Parse a QNT header and inflate its payload once: ``(q h*w*3
    uint8 quantized samples, w, h, step)``.  ``data`` is any byte
    buffer."""
    if data[:4] != _QNT_MAGIC:
        raise ValueError("not a QNT payload")
    w, h, step = struct.unpack(">IIB", data[4:13])
    if not w or not h:
        raise ValueError("zero image dimension")
    return _inflate(data[13:], h * w * 3), w, h, step


def decode_lossy(data) -> np.ndarray:
    q, w, h, step = _qnt_rows(data)
    # dequantize as min(q*step, 255), the map decode_luma computes in
    # float32; a numpy LUT gather (lut[q]) is ~3x slower on a 72-px
    # image than this uint16 arithmetic
    px = np.multiply(q, step, dtype=np.uint16)
    np.minimum(px, 255, out=px)
    return px.astype(np.uint8).reshape(h, w, 3)


# ------------------------------------------------ fused luma decode ----
#
# The verify stage needs only (h, w) and the luma plane (phash input),
# never the RGB array.  Decoding straight to luma skips materializing
# (h, w, 3) uint8 intermediates.  Bit-exactness: luma =
# (77 r + 151 g + 28 b) >> 8 over the decoded channel values, so the
# result is integer-identical to decode() + the phash luma step
# (pinned by tests/test_codec_kernels.py).
#
# _LUMA_WT: the luma weights over 256 (exact in float32: 77/256 =
# 0.30078125), tiled over the interleaved r, g, b values of images up
# to 128x128; a larger image tiles its own.
_LUMA_W = np.array([77, 151, 28], dtype=np.float32) / np.float32(256)
_LUMA_WT = np.tile(_LUMA_W, 128 * 128)
_F255 = np.float32(255)


def _luma_from_rgb_bytes(rgb: np.ndarray, h: int, w: int,
                         step: int | None) -> np.ndarray:
    """h*w*3 encoded channel bytes (flat, or (h, 3w) rows) -> (h, w)
    float32 luma.

    All float32 arithmetic, exact vs the integer path: QNT dequantizes
    as min(q*step, 255); each channel value times its weight/256 is
    an integer below 2^24 scaled by 2^-8, and so is the sum of the
    strided r, g and b views, so floor(sum) ==
    (77 r + 151 g + 28 b) >> 8.  A numpy LUT gather (``lut[q]``) costs
    ~10x this arithmetic on a 72-px image, and a 3-column BLAS matvec
    is slower than one contiguous multiply by the tiled weights."""
    f = rgb.astype(np.float32).reshape(-1)
    if step is not None:
        f *= np.float32(step)
        np.minimum(f, _F255, out=f)
    n = f.size
    wt = _LUMA_WT if n <= _LUMA_WT.size else np.tile(_LUMA_W, -(-n // 3))
    f *= wt[:n]
    acc = f[0::3] + f[1::3]
    acc += f[2::3]
    return np.floor(acc, out=acc).reshape(h, w)


def decode_luma(data, fmt: str) -> tuple[np.ndarray, int, int]:
    """Decode straight to (luma float32, w, h) without an RGB array.

    ``data`` is any byte buffer: bytes, or a ``'B'`` memoryview over
    the corpus' own Arrow buffers (the fused fetch+parse stage).  PNG
    unfilters the scanlines it inflated (our encoder always writes
    filter 0, which needs no pass); QNT dequantizes in the luma
    arithmetic.  Integer-identical to ``phash-luma(decode(data, fmt))``.
    """
    if fmt == "jpeg":
        q, w, h, step = _qnt_rows(data)
        return _luma_from_rgb_bytes(q, h, w, step), w, h
    if fmt == "png":
        raw, w, h = _png_rows(data)
        return _luma_from_rgb_bytes(_unfilter(raw, h, w), h, w, None), w, h
    raise ValueError(f"unknown fmt {fmt!r}")


def encode(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt == "jpeg":
        return encode_lossy(pixels)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return decode_png(data)
    if fmt == "jpeg":
        return decode_lossy(data)
    raise ValueError(f"unknown fmt {fmt!r}")


# ------------------------------------------------------------- metrics ----

def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 ** 2 / mse))


_DCT_N = 32
_DCT_K = 8


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    m[0] /= np.sqrt(2.0)
    return m


# phash runs in float32 end-to-end: half the DRAM traffic of float64,
# which is what binds when every core decodes+hashes concurrently


_DCT_M = _dct_matrix(_DCT_N)


_POOL_CACHE: dict[int, np.ndarray] = {}
_BIT_WEIGHTS = (np.uint64(1) << np.arange(63, -1, -1, dtype=np.uint64))


def _pool_matrix(n: int) -> np.ndarray:
    """(8, n) DCT-fused mean-pooling matrix: the first 8 rows of
    DCT(32) @ pool(32, n), so one matmul pair resamples to 32x32 AND
    transforms, computing only the 8x8 low-frequency corner phash
    reads.  The product is formed in float64 at full size and then
    cut, so its rows are the same numbers as the full 32-row matrix's.
    Cached per source size."""
    m = _POOL_CACHE.get(n)
    if m is None:
        yi = np.arange(_DCT_N + 1) * n // _DCT_N
        pool = np.zeros((_DCT_N, n))
        for r in range(_DCT_N):
            lo, hi = yi[r], max(yi[r + 1], yi[r] + 1)
            pool[r, lo:hi] = 1.0 / (hi - lo)
        m = np.ascontiguousarray((_DCT_M @ pool)[:_DCT_K].astype(np.float32))
        _POOL_CACHE[n] = m
    return m


def _dct_block(gray: np.ndarray) -> np.ndarray:
    """The 8x8 low-frequency DCT block of a (h, w) float32 luma plane
    area-resampled to 32x32."""
    h, w = gray.shape
    return _pool_matrix(h) @ gray @ _pool_matrix(w).T


def _gray(pixels: np.ndarray) -> np.ndarray:
    """Integer Rec.601-ish luma of an (h, w, 3) uint8 image, as float32."""
    i16 = pixels.astype(np.uint16)
    return ((i16[..., 0] * 77 + i16[..., 1] * 151 + i16[..., 2] * 28)
            >> 8).astype(np.float32)


def phash64(pixels: np.ndarray) -> int:
    """64-bit perceptual hash (DCT-based, pHash-style), deterministic.

    Grayscale -> area-resample to 32x32 -> 2D DCT -> top-left 8x8
    minus DC -> median threshold -> 64 bits (row-major, signed int64).
    Resample and DCT are one cached (8, n) matrix per axis.
    """
    block = _dct_block(_gray(pixels)).ravel()
    med = np.median(block[1:])
    val = int(((block > med) * _BIT_WEIGHTS).sum())
    return val - (1 << 64) if val >= (1 << 63) else val


def phash64_many(pixels_list) -> np.ndarray:
    """Batched ``phash64`` over a list of images.

    Identical bits to the per-image path.  The luma + DCT matmuls stay
    per-image (an image fits in L2; stacking them spills the working
    set to DRAM and is measurably SLOWER), while the fixed-overhead
    tail — median and bit packing, ~27 us of numpy-call overhead per
    image — runs once, vectorized over the whole batch (~2 us/image).
    """
    return phash64_many_from_luma([_gray(px) for px in pixels_list])


def phash64_many_from_luma(grays) -> np.ndarray:
    """Batched phash over precomputed (h, w) float32 luma planes (the
    ``decode_luma`` fast path, and the fused fetch+parse stage's hot
    loop).  Same bits as ``phash64``."""
    n = len(grays)
    blocks = np.empty((n, _DCT_K * _DCT_K), dtype=np.float32)
    for i, gray in enumerate(grays):
        blocks[i] = _dct_block(gray).ravel()
    med = np.median(blocks[:, 1:], axis=1)
    vals = ((blocks > med[:, None]).astype(np.uint64)
            * _BIT_WEIGHTS).sum(axis=1)
    return vals.astype(np.uint64).view(np.int64)
