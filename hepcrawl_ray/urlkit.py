"""Canonical URL kit: canonicalization, 64-bit hashing, host extraction.

The reference applies ``w3lib.url.canonicalize_url`` to every URL field
(reference: hepcrawl/loaders.py:162-164) and extracts ``scheme://netloc``
with ``parse_domain`` (reference: hepcrawl/utils.py:220-224).  The
canonical form defined here is the identity over which the frontier's
URL-seen filters operate: two URLs that canonicalize equal are the same
crawl target.

Canonicalization semantics (mirroring w3lib's documented behaviour):

- scheme and host lowercased
- default ports stripped (http:80, https:443, ftp:21)
- fragment removed
- query parameters sorted by (key, value); blank values kept
- percent-encodings upper-cased and safe characters un-escaped
- empty path becomes "/"
- trailing "?"/duplicate slashes in netloc handled by urllib parsing

Hashing: 64-bit via blake2b(digest_size=8) — stable across processes
and Python versions (no PYTHONHASHSEED dependence), which the
checkpoint format requires.
"""

from __future__ import annotations

import re
from hashlib import blake2b
from urllib.parse import parse_qsl, quote, unquote, urlencode, urlsplit, urlunsplit

import numpy as np

_DEFAULT_PORTS = {"http": "80", "https": "443", "ftp": "21"}

# Fast-path: URLs that are already canonical by construction
# (lowercase scheme+host, no port, no query, no fragment, simple path).
# Python matches it with ``fullmatch`` (its ``$`` also matches before a
# final newline) and Arrow's RE2 with ``match_substring_regex``, whose
# ``$`` is the end of the text only: both accept the same strings.
CANONICAL_PATTERN = \
    r"^(https?|ftp)://[a-z0-9.\-]+/([A-Za-z0-9_\-.~]+(/[A-Za-z0-9_\-.~]+)*/?)?$"
_CANONICAL_RE = re.compile(CANONICAL_PATTERN)

_SAFE_PATH = "/;:@&=+$,!*'()~-._0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _norm_component(text: str, safe: str) -> str:
    """Unquote then re-quote so percent-escapes are minimal and uppercase."""
    return quote(unquote(text), safe=safe)


def canonicalize_url(url: str) -> str:
    """Canonical form of ``url`` (see module docstring for the rules)."""
    url = url.strip()
    if _CANONICAL_RE.fullmatch(url):
        return url
    scheme, netloc, path, query, _fragment = urlsplit(url)
    scheme = scheme.lower()
    netloc = netloc.lower()
    if "@" in netloc:  # strip credentials — not part of crawl identity
        netloc = netloc.rsplit("@", 1)[1]
    if ":" in netloc:
        host, _, port = netloc.partition(":")
        if port == _DEFAULT_PORTS.get(scheme, None) or port == "":
            netloc = host
    path = _norm_component(path, safe=_SAFE_PATH) or "/"
    # collapse duplicate slashes in the path (crawl identity, not RFC)
    if "//" in path:
        path = re.sub(r"/{2,}", "/", path)
    if query:
        pairs = parse_qsl(query, keep_blank_values=True)
        pairs.sort()
        query = urlencode(pairs)
    return urlunsplit((scheme, netloc, path, query, ""))


def canonicalize_many(urls) -> list[str]:
    """Canonicalize a sequence of URLs (used inside ``map_batches``)."""
    fast = _CANONICAL_RE.fullmatch
    canon = canonicalize_url
    return [u if fast(u) else canon(u) for u in urls]


def url_hash64(url: str) -> int:
    """Stable signed 64-bit hash of a (canonical) URL string."""
    h = int.from_bytes(blake2b(url.encode("utf-8"), digest_size=8).digest(), "little")
    return h - (1 << 64) if h >= (1 << 63) else h


def hash64_many(urls) -> np.ndarray:
    """Vector of stable int64 hashes for a sequence of strings."""
    import pyarrow as pa

    return hash64_array(pa.array(list(urls), pa.string()))


def hash64_array(arr) -> np.ndarray:
    """``hash64_many`` over an Arrow string array without nulls: blake2
    reads each value straight from the array's data buffer, with no
    Python string per row."""
    n = len(arr)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32, count=n + 1,
                            offset=arr.offset * 4).tolist()
    data = memoryview(arr.buffers()[2] or b"")
    digests = b"".join([blake2b(data[a:b], digest_size=8).digest()
                        for a, b in zip(offsets, offsets[1:])])
    return np.frombuffer(digests, dtype="<i8").astype(np.int64)


_HOST_RE = re.compile(r"^[a-z][a-z0-9+.\-]*://([^/?#]+)")


def host_of(url: str) -> str:
    """Host (netloc, lowercased, port/credentials stripped) of a URL.

    Mirrors ``parse_domain`` intent (reference: hepcrawl/utils.py:220-224)
    but returns just the host — the politeness-budget key.
    """
    m = _HOST_RE.match(url)
    if not m:
        return ""
    netloc = m.group(1).lower()
    if "@" in netloc:
        netloc = netloc.rsplit("@", 1)[1]
    return netloc.partition(":")[0]


def host_many(urls) -> list[str]:
    """Vectorized ``host_of`` — MUST stay semantics-identical to it
    (lowercased netloc included): both feed the politeness/partition
    key and an asymmetry would split one host's budget in two."""
    match = _HOST_RE.match
    out = []
    for u in urls:
        m = match(u)
        if m is None:
            out.append("")
            continue
        netloc = m.group(1).lower()
        if "@" in netloc:
            netloc = netloc.rsplit("@", 1)[1]
        out.append(netloc.partition(":")[0])
    return out


def parse_domain(url: str) -> str:
    """``scheme://netloc/`` of a URL (reference: hepcrawl/utils.py:220-224)."""
    scheme, netloc, _, _, _ = urlsplit(url)
    return f"{scheme}://{netloc}/"


def image_id_of(url: str) -> str:
    """Terminal path segment — the corpus key a URL resolves to.

    Per FIXTURES.md §1 the synthetic record URL is
    ``http://<host>/<set>/<image_id>``.
    """
    return url.rstrip("/").rsplit("/", 1)[-1]


def image_ids_of_many(url_col):
    """Vectorized ``image_id_of`` over an Arrow string array/chunked
    array — one RE2 ``extract_regex`` pass, no per-row Python (the hot
    fetch stage calls this per batch).  MUST stay semantics-identical
    to ``image_id_of`` (equivalence pinned in tests/test_urlkit.py)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ex = pc.extract_regex(url_col, pattern=r"(?P<image_id>[^/]+)/*$")
    ids = pc.struct_field(ex, "image_id")
    # no match (empty / all-slash url) -> image_id_of returns ""
    return pc.fill_null(ids, "").combine_chunks() \
        if isinstance(ids, pa.ChunkedArray) else pc.fill_null(ids, "")


def partition_of_host(host: str, num_partitions: int, salt: int = 0) -> int:
    """Frontier partition for ``host``.

    Partitioning is by *host* hash-range (not raw url_hash) so that a
    host's politeness budget and its URL-seen shard live on the same
    actor.  ``salt`` > 0 splits a hot host into ``salt`` deterministic
    sub-partitions (budget is divided by the caller).
    """
    key = host if salt == 0 else f"{host}#{salt}"
    return (url_hash64(key) & 0x7FFFFFFFFFFFFFFF) % num_partitions
