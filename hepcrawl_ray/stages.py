"""map_batches stages: fetch, parse, verify — the dataflow after the frontier.

Each stage is a callable class (Ray actor-pool UDF): expensive setup in
``__init__`` (once per actor), vectorized work in ``__call__`` (per
Arrow batch) — the pattern the reference approximates with
process-lifetime state (LaTeX context DB built once,
reference: hepcrawl/parsers/arxiv.py:84-91; spider-lifetime S3/FTP
sessions, reference: hepcrawl/spiders/desy_spider.py:94-122).

- FetchStage: admitted URL rows -> image rows.  In this sandbox the
  "network" is the corpus table itself: a lookup of the URL's terminal
  path segment (image_id) against a broadcast index (``ray.put`` once,
  ``ray.get`` in ``__init__`` — never re-shipped per batch).  At 100 TB
  the same stage shape does batched key lookups against the storage
  layer (Lance take / HTTP fetch with a connection pool in __init__);
  only this stage touches image bytes.  Missing keys become error ROWS
  (reference: error ParsedItem, hepcrawl/utils.py:492-502), never
  exceptions.
- ParseStage: caption -> record struct columns (hepcrawl_ray.caption)
  + image decode verification (decoded w/h vs declared, recomputed
  phash) — the per-row invariant of BASELINE.json.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from hepcrawl_ray import codecs, urlkit
from hepcrawl_ray.caption import parse_caption_batch
from hepcrawl_ray.frontier import (ADMIT_SCHEMA, canonicalize_batch,
                                   split_routed)
from hepcrawl_ray.synth import GOLDEN_SCHEMA

FETCH_ERROR_NOT_FOUND = "fetch failed: image not found"

RECORD_FIELDS = ("title", "abstract", "authors", "collaborations", "dois",
                 "date_published", "document_type")


# the corpus columns the fetch output carries; the fused stage takes
# all but "bytes" unless its records keep the payloads
SMALL_PAYLOAD_COLS = ("w", "h", "fmt", "caption", "phash")
PAYLOAD_COLS = ("bytes",) + SMALL_PAYLOAD_COLS


def _fetch_output(batch: pa.Table, image_ids, found: np.ndarray,
                  taken: pa.Table, names=PAYLOAD_COLS) -> pa.Table:
    """Assemble the fetch-stage output: batch + payload columns
    ``names`` (null where not found) + error ROWS for missing keys
    (reference: error ParsedItem, hepcrawl/utils.py:492-502) — never
    exceptions."""
    null_mask = pa.array(~found)
    n = len(image_ids)
    ids = image_ids if isinstance(image_ids, (pa.Array, pa.ChunkedArray)) \
        else pa.array(image_ids, type=pa.string())

    def col(name):
        c = taken.column(name)
        if found.all():
            return c
        return pa.compute.if_else(null_mask, pa.nulls(n, c.type), c)

    out = batch.append_column("image_id", ids)
    for name in names:
        out = out.append_column(name, col(name))
    error = pa.array([None if ok else FETCH_ERROR_NOT_FOUND for ok in found],
                     type=pa.string())
    return out.append_column("fetch_error", error)


def _blob_views(col) -> list:
    """One ``'B'`` memoryview per row of a binary column (``None`` where
    null), each a slice of the column's own Arrow data buffer: no copy,
    and no concatenation of a chunked column.  The cast matters:
    ``memoryview(pa.Buffer)`` has format ``'b'``, which compares
    unequal to any ``bytes`` holding a byte >= 0x80, so a PNG signature
    check on it always fails.  ``col`` is ``binary`` or
    ``large_binary``."""
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    views = []
    for c in chunks:
        if not len(c):
            continue
        _, offsets, data = c.buffers()
        odt = np.int64 if pa.types.is_large_binary(c.type) else np.int32
        o = np.frombuffer(offsets, dtype=odt)[
            c.offset:c.offset + len(c) + 1].tolist()
        mv = memoryview(data if data is not None else b"").cast("B")
        part = [mv[a:b] for a, b in zip(o, o[1:])]
        if c.null_count:
            part = [v if ok else None for v, ok in
                    zip(part, c.is_valid().to_numpy(zero_copy_only=False))]
        views += part
    return views


class _CorpusLookup:
    """What both fetch stages share.  A subclass's ``lookup(batch)``
    returns ``(image ids, found mask, rows)``: ``rows`` index the table
    the stage holds in ``self.table`` (-1 where not found)."""

    def _hold(self, table: pa.Table, index) -> None:
        self.table, self.index = table, index
        self._views = None          # blob views of self.table, on demand

    def take(self, found: np.ndarray, rows: np.ndarray,
             names=PAYLOAD_COLS) -> pa.Table:
        """Columns ``names`` of the found rows (null elsewhere), in one
        ``take``."""
        if not found.any():
            return pa.table({f.name: pa.nulls(len(found), f.type)
                             for f in self.schema if f.name in names})
        return self.table.select(list(names)).take(
            pa.array(np.where(found, rows, 0)))

    def blobs(self, rows: np.ndarray) -> list:
        """Each row's payload as a view of ``self.table``'s buffers
        (``None`` where not found or null)."""
        if self._views is None:
            self._views = _blob_views(self.table.column("bytes"))
        v = self._views
        return [v[r] if r >= 0 else None for r in rows.tolist()]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, found, rows = self.lookup(batch)
        return _fetch_output(batch, ids, found, self.take(found, rows))


class FetchStage(_CorpusLookup):
    """Resolve admitted URLs to corpus rows via a broadcast index.

    SMALL-CORPUS path only (dimension-sized image tables, tests, the
    sf0.001 flagship): every actor holds the whole table.  The scale
    path is :class:`KeyedFetchStage` — pass a corpus PATH instead of a
    table/ref anywhere a pipeline accepts ``images``."""

    def __init__(self, images_ref):
        import pandas as pd
        import ray

        images: pa.Table = ray.get(images_ref) if not isinstance(images_ref, pa.Table) \
            else images_ref
        self.schema = images.schema
        # hash engine built lazily in C on first get_indexer, memoized
        self._hold(images, pd.Index(images.column("image_id").to_pandas()))

    def lookup(self, batch: pa.Table):
        ids_arr = urlkit.image_ids_of_many(batch.column("url"))
        rows = self.index.get_indexer(ids_arr.to_pandas())
        return ids_arr, rows >= 0, rows


def _corpus_files(corpus_path) -> list:
    """The parquet files of a STORED corpus: a file, a list of files,
    or a directory of them."""
    import glob
    import os

    if isinstance(corpus_path, (list, tuple)):
        return list(corpus_path)
    if os.path.isdir(corpus_path):
        return sorted(glob.glob(os.path.join(corpus_path, "*.parquet")))
    return [corpus_path]


class KeyedFetchStage(_CorpusLookup):
    """Batched keyed lookup against the STORED corpus — the 100-TB
    fetch shape.  Actors hold O(manifest + a few row groups), never
    the corpus:

    - ``__init__`` reads ONLY parquet row-group statistics (min/max
      image_id per row group — a few bytes per GB of corpus) into a
      range manifest.
    - ``lookup`` maps the batch's keys onto candidate row groups via
      vectorized searchsorteds over a MIN-SORTED manifest (O(batch ×
      log groups) per batch — independent of the manifest size), reads
      JUST those row groups (one IO per group, LRU-cached across
      consecutive batches — admission order is roughly key-clustered
      per frontier partition), and gathers rows with one C-level
      hash-index probe (``pandas.Index.get_indexer``).

    At real scale the same stage shape does Lance ``take`` / object-
    store range reads; the row-group manifest generalizes to any
    key-range-indexed layout.  ``max_resident_rows`` records the high
    water mark of corpus rows held, so tests can assert O(batch);
    ``last_candidates_checked`` records how many manifest entries the
    last selection examined, so tests can assert it tracks the batch's
    key spread, NOT the total number of row groups."""

    def __init__(self, corpus_path, cache_rowgroups: int = 8):
        from collections import OrderedDict

        import pyarrow.parquet as pq

        self.files = []
        mins, maxs, locs = [], [], []
        for path in _corpus_files(corpus_path):
            f = pq.ParquetFile(path)
            ki = f.schema_arrow.get_field_index("image_id")
            for rg in range(f.metadata.num_row_groups):
                st = f.metadata.row_group(rg).column(ki).statistics
                if st is None or not st.has_min_max:
                    raise ValueError(
                        f"corpus {path} row group {rg} lacks image_id "
                        "min/max statistics — rewrite with stats enabled")
                mins.append(st.min)
                maxs.append(st.max)
                locs.append((len(self.files), rg))
            self.files.append(f)
        # sorted manifest: fixed-width unicode arrays (C-level
        # searchsorted) ordered by (min, max); cmax = running max of
        # maxes handles OVERLAPPING key ranges across files
        mins_u = np.asarray(mins, dtype=np.str_)
        maxs_u = np.asarray(maxs, dtype=np.str_)
        order = np.lexsort((maxs_u, mins_u))
        self.rg_min = mins_u[order]
        self.rg_max = maxs_u[order]
        # running max via object dtype (np.maximum lacks a str loop);
        # one-time O(G) at init, stored fixed-width for C searchsorted
        self.rg_cmax = np.maximum.accumulate(
            self.rg_max.astype(object)).astype(np.str_)
        self.rg_loc = [locs[j] for j in order]
        self.cache: "OrderedDict[tuple, pa.Table]" = OrderedDict()
        self.cache_rowgroups = cache_rowgroups
        self.max_resident_rows = 0
        self.last_candidates_checked = 0
        self.schema = self.files[0].schema_arrow
        # working-set memo: consecutive batches usually hit the SAME
        # row-group set (key-clustered admissions, or a small corpus
        # fitting the cache) — reuse the assembled table, its hash
        # index and blob views instead of rebuilding them per batch
        self._ws_need: tuple = ()
        self._hold(None, None)

    def _select_rowgroups(self, su: np.ndarray) -> np.ndarray:
        """Manifest indices of row groups whose [min, max] range
        contains at least one requested key.

        ``su``: sorted unique keys (unicode dtype).  Two vectorized
        searchsorteds bound each key's candidate window in the
        min-sorted manifest ([first cmax >= key, last min <= key));
        windows are merged and only the candidates inside them are
        verified — cost O(|su| log G + |candidates|), never O(G)."""
        right = np.searchsorted(self.rg_min, su, side="right")
        left = np.searchsorted(self.rg_cmax, su, side="left")
        nonempty = right > left
        if not nonempty.any():
            self.last_candidates_checked = 0
            return np.empty(0, dtype=np.int64)
        lo, hi = left[nonempty], right[nonempty]
        # merge the (sorted, possibly overlapping) windows [lo_i, hi_i)
        run_hi = np.maximum.accumulate(hi)
        new_seg = np.empty(lo.size, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = lo[1:] > run_hi[:-1]
        starts = lo[new_seg]
        seg_idx = np.nonzero(new_seg)[0]
        last = np.append(seg_idx[1:] - 1, lo.size - 1)
        ends = run_hi[last]
        cand = np.concatenate([np.arange(s, e)
                               for s, e in zip(starts, ends)])
        self.last_candidates_checked = int(cand.size)
        # verify: candidate j is needed iff some key in [min_j, max_j]
        klo = np.searchsorted(su, self.rg_min[cand], side="left")
        khi = np.searchsorted(su, self.rg_max[cand], side="right")
        return cand[khi > klo]

    def _rowgroup(self, j: int) -> pa.Table:
        key = self.rg_loc[j]
        t = self.cache.pop(key, None)
        if t is None:
            fi, rg = key
            t = self.files[fi].read_row_group(rg)
        self.cache[key] = t                      # move to MRU
        while len(self.cache) > self.cache_rowgroups:
            self.cache.popitem(last=False)
        return t

    def lookup(self, batch: pa.Table):
        ids_arr = urlkit.image_ids_of_many(batch.column("url"))
        n = len(ids_arr)
        if n == 0:
            need = np.empty(0, dtype=np.int64)
        else:
            su = np.unique(ids_arr.to_numpy(zero_copy_only=False)
                           .astype(np.str_))
            need = self._select_rowgroups(su)
        if not need.size:
            return ids_arr, np.zeros(n, bool), np.full(n, -1, np.int64)
        need_key = tuple(need.tolist())
        if need_key != self._ws_need or self.table is None:
            import pandas as pd

            corpus = pa.concat_tables([self._rowgroup(j) for j in need])
            self._ws_need = need_key
            # pandas Index: hash engine built once (lazily, in C) per
            # working set, probed per batch with get_indexer
            self._hold(corpus,
                       pd.Index(corpus.column("image_id").to_pandas()))
            resident = corpus.num_rows + sum(
                t.num_rows for k, t in self.cache.items()
                if k not in {self.rg_loc[j] for j in need})
            self.max_resident_rows = max(self.max_resident_rows, resident)
        rows = self.index.get_indexer(ids_arr.to_pandas())
        return ids_arr, rows >= 0, rows


class FetchParseStage:
    """Fused fetch + parse in one actor (the default pipeline shape).

    Payload bytes are gathered AND consumed (decode/verify) inside the
    same actor, so multi-KB blobs never transit the object store
    between stages — at 4M URLs that hop alone is ~7 GB.  It is the
    only fetch+parse pipeline shape (pipelines.crawl.fetch_and_parse);
    the fetch and parse stages it composes stay separate classes.

    The fetch stage's ``take`` gathers only the small payload columns
    (plus ``bytes`` when the records keep it); the verify loop reads
    each payload as a view of the corpus' own Arrow buffers
    (``_CorpusLookup.blobs``).  Arrow ``take`` on a chunked binary
    column concatenates every chunk, the whole keyed working set, per
    batch.  Records equal ``ParseStage(fetch(batch))`` row for row.
    """

    def __init__(self, images_ref, verify_pixels: bool = True,
                 drop_bytes: bool = False):
        # a str/list ref is a STORED corpus -> keyed lookup (scale
        # path); a table/ObjectRef is the small-corpus broadcast
        self.fetch = (KeyedFetchStage(images_ref)
                      if isinstance(images_ref, (str, list, tuple))
                      else FetchStage(images_ref))
        self.parse = ParseStage(verify_pixels=verify_pixels,
                                drop_bytes=drop_bytes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, found, rows = self.fetch.lookup(batch)
        names = SMALL_PAYLOAD_COLS if self.parse.drop_bytes else PAYLOAD_COLS
        fetched = _fetch_output(batch, ids, found,
                                self.fetch.take(found, rows, names), names)
        blobs = self.fetch.blobs(rows) if self.parse.verify_pixels else None
        return self.parse.records(fetched, blobs)

    @staticmethod
    def output_schema(images, drop_bytes: bool = False) -> pa.Schema:
        """Schema of the records this stage makes from ADMIT_SCHEMA
        rows over corpus ``images`` (a table, or the parquet path(s) a
        stored corpus lives in): the stage's own output for zero rows,
        so it cannot drift from the real one."""
        import pyarrow.parquet as pq

        corpus = images.schema if isinstance(images, pa.Table) \
            else pq.read_schema(_corpus_files(images)[0])
        fetched = _fetch_output(ADMIT_SCHEMA.empty_table(),
                                pa.array([], pa.string()),
                                np.zeros(0, dtype=bool),
                                corpus.empty_table())
        return ParseStage(drop_bytes=drop_bytes)(fetched).schema


class ParseStage:
    """Parse captions into record columns + verify decoded pixels."""

    def __init__(self, verify_pixels: bool = True, drop_bytes: bool = False):
        self.verify_pixels = verify_pixels
        self.drop_bytes = drop_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("bytes").to_pylist() \
            if self.verify_pixels else None
        out = self.records(batch, blobs)
        # bytes are consumed here (decode+verify); the records table
        # downstream carries parse + verify columns only — re-shipping
        # multi-KB blobs through every later stage would double the
        # object-store traffic for no reader
        return out.drop_columns(["bytes"]) if self.drop_bytes else out

    def records(self, batch: pa.Table, blobs) -> pa.Table:
        """``batch`` (fetch output, with or without ``bytes``) plus the
        record columns; ``blobs`` holds each row's payload (any byte
        buffer, ``None`` where missing) when ``verify_pixels``."""
        import pyarrow.compute as pc

        # fetch-error rows blank their caption: the batch parser then
        # emits exactly the EMPTY_RECORD shape, and the fetch error
        # string overrides the malformed-caption error below — no
        # per-row Python for the happy path (vectorized RE2 parse,
        # parity pinned by tests/test_caption_batch.py)
        fetch_err_col = batch.column("fetch_error")
        has_ferr = pc.is_valid(fetch_err_col.combine_chunks()
                               if isinstance(fetch_err_col,
                                             pa.ChunkedArray)
                               else fetch_err_col)
        caps = pc.if_else(has_ferr, pa.scalar("", pa.string()),
                          pc.fill_null(batch.column("caption"), ""))
        parsed = parse_caption_batch(caps)
        parsed["error"] = pc.if_else(has_ferr, fetch_err_col,
                                     parsed["error"])
        n_rows = batch.num_rows

        verify_ok = np.ones(n_rows, dtype=bool)
        phash_decoded = np.zeros(n_rows, dtype=np.int64)
        if self.verify_pixels:
            fmts = batch.column("fmt").to_pylist()
            ws = batch.column("w").to_pylist()
            hs = batch.column("h").to_pylist()
            decoded_lum, decoded_idx = [], []
            for i, (blob, fmt) in enumerate(zip(blobs, fmts)):
                if blob is None:
                    verify_ok[i] = False
                    continue
                try:
                    # fused decode-to-luma: dims + hash input without
                    # ever materializing the RGB array (~100 KB of
                    # DRAM traffic saved per image in the hot stage)
                    gray, w_dec, h_dec = codecs.decode_luma(blob, fmt)
                except Exception:
                    verify_ok[i] = False
                    continue
                verify_ok[i] = (h_dec == hs[i] and w_dec == ws[i])
                decoded_lum.append(gray)
                decoded_idx.append(i)
            if decoded_lum:
                # batched hash: fixed-overhead numpy calls amortize
                # across every image in the batch
                phash_decoded[np.asarray(decoded_idx)] = \
                    codecs.phash64_many_from_luma(decoded_lum)

        out = batch
        for name in RECORD_FIELDS + ("error",):
            out = out.append_column(name, parsed[name])
        out = out.append_column("pixels_verified", pa.array(verify_ok))
        out = out.append_column("phash_decoded", pa.array(phash_decoded))
        return out


class DiscoverRouteStage:
    """Link discovery and routing for the crawl's workers
    (``pipelines.crawl._FetchParseWorker``): ``__call__`` extracts the
    links of admitted rows and canonicalizes them, :meth:`offer`
    canonicalizes seed rows as they are, and :meth:`route` cuts
    canonical offers into one slice per frontier partition.  The stage
    holds no partition handle and nothing between calls: its caller
    hands the slices to the partitions as call arguments (lesson 28).
    Links come from ``discover_batch_fn`` (a per-row spec callback
    adapted by :func:`batch_discover`).  ``discover_fn``, ``actors`` and
    ``buffered`` are unused; they stay only so callers that pass them
    (the benchmark's discover ledger) keep working.

    The production shape of the iterative crawl (reference analog: the
    PoS 3-hop chain, hepcrawl/spiders/pos_spider.py:93-199, where each
    parse callback yields the next request).

    Determinism: admission is decided over a seq-sorted view at seal
    (frontier.seal), so neither arrival order nor how the offers were
    cut can change the schedule — pinned by the in-stage == simulator
    test (tests/test_sources_iterative.py).
    """

    def __init__(self, discover_fn, actors, num_partitions,
                 salted_hosts=None, discover_batch_fn=None,
                 buffered=True):
        self.num_partitions = num_partitions
        self.salted_hosts = salted_hosts
        self.discover_batch_fn = discover_batch_fn

    def route(self, offers: pa.Table | None) -> list:
        """One OFFER_SCHEMA slice of ``offers`` per partition, ``None``
        where a partition gets no row."""
        if offers is None or not offers.num_rows:
            return [None] * self.num_partitions
        return split_routed(offers, self.num_partitions, self.salted_hosts)

    def offer(self, seeds: pa.Table) -> list:
        """Seed rows canonicalized as they are, with no discovery, and
        routed."""
        return self.route(canonicalize_batch(seeds))

    def __call__(self, batch: pa.Table) -> pa.Table | None:
        """The canonical links (OFFER_SCHEMA) found in ``batch``'s
        rows, or ``None`` when there are none."""
        # vectorized contract: (urls, seqs) -> (offer table with
        # url/priority/seq/mtime/set_id columns, per-row link counts).
        # Production link extraction happens on parsed BATCHES; a
        # per-row spec callback comes adapted by batch_discover
        raw, _ = self.discover_batch_fn(batch.column("url"),
                                        batch.column("seq"))
        if raw is None or not raw.num_rows:
            return None
        return canonicalize_batch(raw)


def batch_discover(discover_fn):
    """The ``discover_batch_fn`` contract over a per-row
    ``discover_fn(canonical_url, seq) -> list of seed-like dicts`` (the
    form sim.py's spec runs), for :class:`DiscoverRouteStage`."""
    return functools.partial(_discover_rows, discover_fn)


def _discover_rows(discover_fn, urls, seqs):
    rows, counts = [], []
    for url, seq in zip(urls.to_pylist(), seqs.to_pylist()):
        found = discover_fn(url, seq)
        counts.append(len(found))
        rows.extend(found)
    raw = pa.table({
        "url": [r["url"] for r in rows],
        "priority": [float(r.get("priority", 0.0)) for r in rows],
        "seq": [int(r["seq"]) for r in rows],
        "mtime": [int(r.get("mtime", 0)) for r in rows],
        "set_id": [r.get("set_id", "") for r in rows],
    }) if rows else None
    return raw, counts
