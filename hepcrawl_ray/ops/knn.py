"""Similarity search over an embedding column (list<float>).

- ``knn_bruteforce``: exact cosine top-k.  The query matrix is small
  and broadcast once (``ray.put``); each data batch does ONE matmul
  against it (numpy), emits its local top-k per query (partial
  results), and a final tiny groupby keeps the global top-k — the
  partial-aggregate-then-combine pattern, so the wide data never
  shuffles.
- ``knn_ivf``: IVF-style scale path — k-means-lite coarse centroids
  (deterministic seeding), each vector assigned to its nearest
  centroid; queries probe only ``nprobe`` closest buckets.  Approximate
  by construction; documented partitioning assumption: recall depends
  on nprobe/centroid fit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _normalize(mat: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(mat, axis=1)
    n[n == 0] = 1.0
    return mat / n[:, None]


_TOPK_EMPTY = pa.table({"query_id": pa.array([], pa.int64()),
                        "neighbor_id": pa.array([], pa.int64()),
                        "sim": pa.array([], pa.float64())})


def _fixed_pool(want: int) -> int:
    """Fixed actor-pool size for CPU-bound 0.5-CPU stages (CLAUDE.md
    lesson #2: autoscaling-from-1 ramps too slowly; fixed pools must
    not reserve every CPU).  Sized from the CPUs free now, not the
    session's total: an earlier Dataset's pool actors outlive its
    stream until garbage collection, and warm crawl actors hold a
    share too, so a pool sized from the total can take the last whole
    CPU and starve its own 1-CPU read and shuffle tasks."""
    import ray
    try:
        avail = ray.available_resources().get("CPU", 0.0)
    except Exception:
        avail = 8
    return max(1, min(want, int((avail - 1.5) / 0.5)))


def drop_null_vectors(t: pa.Table, vec_col: str = "embedding") -> pa.Table:
    """Filter rows whose vector is NULL.  The contract everywhere in
    this package: null vectors are UNINDEXED and UNSEARCHABLE (the
    vector-index convention — a missing embedding can neither be a
    neighbor nor a query), so every embedding op drops them at its
    first batch stage and the SQL oracles carry the same
    ``embedding IS NOT NULL`` predicate."""
    import pyarrow.compute as pc

    col = t.column(vec_col)
    nc = col.null_count if not isinstance(col, pa.ChunkedArray) \
        else sum(c.null_count for c in col.chunks)
    if nc:
        t = t.filter(pc.is_valid(col))
    return t


def list_column_to_matrix(col, dtype=np.float64) -> np.ndarray:
    """list<float> column -> (n, dim) matrix.

    Zero-copy from the Arrow child buffer when the layout allows
    (uniform list length, no nulls) — the ``to_pylist()`` route builds
    n*dim Python floats first, ~50x the cost.  Null elements fall back
    to the slow path (null -> NaN); ragged lists raise ValueError (no
    rectangular matrix exists)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    # arr.null_count covers only LIST-level nulls; a null element
    # inside a vector lives in arr.values and would make the zero-copy
    # conversion raise — both levels must be null-free
    if arr.null_count == 0 and len(arr) > 0 and arr.values.null_count == 0:
        offsets = arr.offsets.to_numpy()
        dim = int(offsets[1] - offsets[0])
        if dim > 0 and (np.diff(offsets) == dim).all():
            flat = arr.values.to_numpy(zero_copy_only=True)
            mat = flat[offsets[0]:offsets[-1]].reshape(len(arr), dim)
            return mat.astype(dtype, copy=False)
    return np.array(arr.to_pylist(), dtype=dtype)


def knn_bruteforce(ds, query_ids, *, k=10, id_col="vec_id",
                   vec_col="embedding", concurrency=4):
    """Exact top-k cosine neighbors for each query id.

    Returns (query_id, neighbor_id, rank) with rank 1..k by descending
    cosine, ties broken by ascending neighbor id (deterministic — and
    replicable in SQL).  Self-matches are excluded.
    """
    import ray

    qset = pa.array(sorted(set(int(q) for q in query_ids)), type=pa.int64())
    q_rows = ds.select_columns([id_col, vec_col]).map_batches(
        lambda t: drop_null_vectors(
            t.filter(pa.compute.is_in(t.column(id_col), value_set=qset)),
            vec_col),
        batch_format="pyarrow").take_all()
    q_ids = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    # empty corpus / no resolvable queries -> zero neighbors (shape
    # guard: np.array([]) is 1-D and breaks the axis-1 normalize)
    q_mat = _normalize(np.array([r[vec_col] for r in q_rows],
                                dtype=np.float64)) \
        if q_rows else np.zeros((0, 1), dtype=np.float64)

    def local_topk(batch: pa.Table) -> pa.Table:
        # query matrix rides the task closure (tiny, stateless task —
        # no actor pool to ramp; CLAUDE lesson 15)
        batch = drop_null_vectors(batch, vec_col)
        if batch.num_rows == 0:
            return _TOPK_EMPTY
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(vec_col)))
        sims = q_mat @ mat.T               # (nq, nbatch)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = sims[qi]
            mask = ids != q_ids[qi]        # exclude self
            cand_idx = np.nonzero(mask)[0]
            if len(cand_idx) == 0:
                continue
            sc = s[cand_idx]
            top = min(k, len(cand_idx))
            # local top-k: order by (-sim, id)
            order = np.lexsort((ids[cand_idx], -sc))[:top]
            sel = cand_idx[order]
            out_q.extend([int(q_ids[qi])] * len(sel))
            out_n.extend(int(x) for x in ids[sel])
            out_s.extend(float(x) for x in s[sel])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        local_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "neighbor_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


def knn_ivf(ds, query_ids, *, k=10, n_centroids=16, nprobe=4,
            id_col="vec_id", vec_col="embedding", concurrency=4, seed=42):
    """Approximate top-k via IVF bucketing (scale path; see module doc)."""
    import ray

    cent = _train_centroids(ds, n_centroids=n_centroids, id_col=id_col,
                            vec_col=vec_col, seed=seed)

    qset = pa.array(sorted(set(int(q) for q in query_ids)), type=pa.int64())
    q_rows = ds.select_columns([id_col, vec_col]).map_batches(
        lambda t: drop_null_vectors(
            t.filter(pa.compute.is_in(t.column(id_col), value_set=qset)),
            vec_col),
        batch_format="pyarrow").take_all()
    q_ids = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    # empty corpus / no resolvable queries -> zero neighbors (shape
    # guard: np.array([]) is 1-D and breaks the axis-1 normalize)
    q_mat = _normalize(np.array([r[vec_col] for r in q_rows],
                                dtype=np.float64)) \
        if q_rows else np.zeros((0, 1), dtype=np.float64)
    q_probe = np.argsort(-(q_mat @ cent.T), axis=1)[:, :nprobe]

    def bucket_topk(batch: pa.Table) -> pa.Table:
        # centroids + query pack ride the task closure (tiny,
        # stateless task — lesson 15)
        batch = drop_null_vectors(batch, vec_col)
        if batch.num_rows == 0:
            return _TOPK_EMPTY
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(vec_col)))
        bucket = np.argmax(mat @ cent.T, axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            probes = set(int(p) for p in q_probe[qi])
            mask = np.isin(bucket, list(probes)) & (ids != q_ids[qi])
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            s = mat[cand] @ q_mat[qi]
            top = min(k, len(cand))
            order = np.lexsort((ids[cand], -s))[:top]
            sel = cand[order]
            out_q.extend([int(q_ids[qi])] * len(sel))
            out_n.extend(int(x) for x in ids[sel])
            out_s.extend(float(x) for x in s[order])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        bucket_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "neighbor_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


# ------------------------------------------------- materialized IVF ----

def _train_centroids(ds, *, n_centroids, id_col, vec_col, seed,
                     sample_n=2048, iters=5) -> np.ndarray:
    """k-means-lite coarse centroids from a deterministic sample."""
    sample = ds.select_columns([id_col, vec_col]).take(sample_n)
    # null vectors are unindexed (drop_null_vectors contract) — the
    # driver-side sample must drop them too or np.array goes ragged
    vecs = [r[vec_col] for r in sample if r[vec_col] is not None]
    if not vecs:
        raise ValueError("centroid training: no non-null vectors")
    mat = _normalize(np.array(vecs, dtype=np.float64))
    rng = np.random.default_rng(seed)
    cent = mat[rng.choice(len(mat), size=min(n_centroids, len(mat)),
                          replace=False)]
    for _ in range(iters):
        assign = np.argmax(mat @ cent.T, axis=1)
        for c in range(len(cent)):
            members = mat[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def build_ivf_index(ds, index_dir: str, *, n_centroids=16,
                    id_col="vec_id", vec_col="embedding", seed=42,
                    concurrency=4) -> np.ndarray:
    """Materialize an IVF layout: vectors written to parquet
    PARTITIONED BY their coarse-centroid bucket, centroids saved
    alongside.

    This is the scale path the in-stream ``knn_ivf`` only simulates:
    once the corpus is laid out by bucket, a query run reads ONLY its
    ``nprobe`` probed partitions — partition pruning at the read, so
    a 100 TB index serves a query from nprobe/n_centroids of the
    bytes.  Rebuild (or split hot buckets) when the corpus drifts from
    the trained centroids.
    """
    import os

    import ray

    cent = _train_centroids(ds, n_centroids=n_centroids, id_col=id_col,
                            vec_col=vec_col, seed=seed)
    cent_ref = ray.put(cent)

    class AssignBucket:
        def __init__(self):
            self.cent = ray.get(cent_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            t = drop_null_vectors(t, vec_col)
            if t.num_rows == 0:
                return t.append_column("bucket",
                                       pa.array([], pa.int32()))
            mat = _normalize(list_column_to_matrix(t.column(vec_col)))
            bucket = np.argmax(mat @ self.cent.T, axis=1).astype(np.int32)
            return t.append_column("bucket", pa.array(bucket))

    os.makedirs(index_dir, exist_ok=True)
    (ds.select_columns([id_col, vec_col])
     .map_batches(AssignBucket, batch_format="pyarrow",
                  concurrency=_fixed_pool(concurrency), num_cpus=0.5)
     .write_parquet(index_dir, partition_cols=["bucket"]))
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    return cent


def knn_ivf_query(index_dir: str, query_vecs: np.ndarray, *, k=10,
                  nprobe=4, id_col="vec_id", vec_col="embedding",
                  exclude_self_ids=None, concurrency=4):
    """Top-k over a materialized IVF index, reading ONLY the probed
    bucket partitions (the union over all queries' nprobe buckets).

    ``exclude_self_ids``: optional per-query vector id (aligned with
    ``query_vecs``) excluded from THAT query's candidates only — the
    same self-exclusion semantics as ``knn_bruteforce``/``knn_ivf``."""
    import os

    import ray

    import glob

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    q_mat = _normalize(np.asarray(query_vecs, dtype=np.float64))
    q_probe = np.argsort(-(q_mat @ cent.T), axis=1)[:, :nprobe]
    probed = sorted({int(b) for row in q_probe for b in row})
    parts = []
    for b in probed:
        files = sorted(glob.glob(
            os.path.join(index_dir, f"bucket={b}", "*.parquet")))
        if not files:
            continue
        # hive partitioning inference restores the bucket column from
        # the "bucket=N" path segment on read
        parts.append(ray.data.read_parquet(files))
    if not parts:
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))
    ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    self_ids = (None if exclude_self_ids is None
                else [int(x) for x in exclude_self_ids])
    q_ref = ray.put((q_mat, q_probe, self_ids))

    class ProbeTopK:
        def __init__(self):
            self.q_mat, self.q_probe, self.self_ids = ray.get(q_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _TOPK_EMPTY
            ids = t.column(id_col).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            mat = _normalize(list_column_to_matrix(t.column(vec_col)))
            bucket = t.column("bucket").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            out_q, out_n, out_s = [], [], []
            for qi in range(len(self.q_mat)):
                probes = set(int(p) for p in self.q_probe[qi])
                mask = np.isin(bucket, list(probes))
                if self.self_ids is not None:
                    mask &= ids != self.self_ids[qi]
                cand = np.nonzero(mask)[0]
                if not len(cand):
                    continue
                s = mat[cand] @ self.q_mat[qi]
                top = min(k, len(cand))
                order = np.lexsort((ids[cand], -s))[:top]
                out_q.extend([qi] * top)
                out_n.extend(int(x) for x in ids[cand[order]])
                out_s.extend(float(x) for x in s[order])
            return pa.table({
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_n, type=pa.int64()),
                "sim": pa.array(out_s, type=pa.float64()),
            })

    partials = ds.map_batches(ProbeTopK, batch_format="pyarrow",
                              concurrency=_fixed_pool(concurrency),
                              num_cpus=0.5)

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "neighbor_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


# ----------------------------------------------- scalar quantization ----

def sq8_train(ds, *, vec_col="embedding"):
    """Per-dimension min/max for int8 scalar quantization, from ONE
    streaming pass of per-batch partials (dims-sized rows, tiny
    combine).  Returns (vmin, vmax) float64 arrays of shape (dim,)."""
    def partial(t: pa.Table) -> pa.Table:
        t = drop_null_vectors(t, vec_col)
        if t.num_rows == 0:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "lo": pa.array([], pa.float64()),
                             "hi": pa.array([], pa.float64())})
        mat = list_column_to_matrix(t.column(vec_col))
        d = mat.shape[1]
        return pa.table({
            "dim": pa.array(np.arange(d, dtype=np.int64)),
            "lo": pa.array(mat.min(axis=0)),
            "hi": pa.array(mat.max(axis=0))})

    rows = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pyarrow").take_all()
    if not rows:
        return np.zeros(0), np.zeros(0)
    dim = max(r["dim"] for r in rows) + 1
    vmin = np.full(dim, np.inf)
    vmax = np.full(dim, -np.inf)
    for r in rows:
        vmin[r["dim"]] = min(vmin[r["dim"]], r["lo"])
        vmax[r["dim"]] = max(vmax[r["dim"]], r["hi"])
    return vmin, vmax


def sq8_encode(mat: np.ndarray, vmin: np.ndarray,
               vmax: np.ndarray) -> np.ndarray:
    """Quantize (n, dim) float rows to uint8 codes: 255 uniform steps
    per dimension over the trained [vmin, vmax] range (4x smaller
    than float32 storage; max reconstruction error = step/2)."""
    span = np.where(vmax > vmin, vmax - vmin, 1.0)
    q = np.rint((mat - vmin) / span * 255.0)
    return np.clip(q, 0, 255).astype(np.uint8)


def sq8_decode(codes: np.ndarray, vmin: np.ndarray,
               vmax: np.ndarray) -> np.ndarray:
    span = np.where(vmax > vmin, vmax - vmin, 1.0)
    return vmin + codes.astype(np.float64) / 255.0 * span


def sq8_error_stats(ds, vmin, vmax, *, vec_col="embedding"):
    """Quantize + reconstruct per batch, emitting error PARTIALS
    (n, sum |err|, max |err|, sum ||x||^2) — the audit that decides
    whether 4x-compressed storage is acceptable for a corpus."""
    def partial(t: pa.Table) -> pa.Table:
        t = drop_null_vectors(t, vec_col)
        if t.num_rows == 0:
            return pa.table({"n": pa.array([], pa.int64()),
                             "abs_err": pa.array([], pa.float64()),
                             "max_err": pa.array([], pa.float64()),
                             "sq_norm": pa.array([], pa.float64())})
        mat = list_column_to_matrix(t.column(vec_col))
        rec = sq8_decode(sq8_encode(mat, vmin, vmax), vmin, vmax)
        err = np.abs(rec - mat)
        return pa.table({
            "n": pa.array([mat.size], pa.int64()),
            "abs_err": pa.array([float(err.sum())]),
            "max_err": pa.array([float(err.max())]),
            "sq_norm": pa.array([float((mat * mat).sum())])})

    rows = ds.select_columns([vec_col]).map_batches(
        partial, batch_format="pyarrow").take_all()
    n = sum(r["n"] for r in rows)
    return {
        "n_values": int(n),
        "mean_abs_err": (sum(r["abs_err"] for r in rows) / n) if n else 0.0,
        "max_abs_err": max((r["max_err"] for r in rows), default=0.0),
    }


# --------------------------------------------- signature Hamming kNN ----

def signature_hamming_knn(ds, probe_ids, *, k=10, id_col="image_id",
                          sig_col="phash"):
    """Top-k nearest rows to each probe by Hamming distance over a
    precomputed int64 SIGNATURE column (perceptual hash, SimHash…) —
    similar-image retrieval without decoding a single payload byte.

    Same scale shape as knn_bruteforce: the probe signatures (tiny)
    ride the task closure, each batch computes popcounts vectorized
    (ops/text.hamming64) and emits a per-probe partial top-k, and a
    small per-probe fold keeps the global top-k — the corpus never
    shuffles.  Deterministic: ties by ascending id.  Ids may be any
    orderable type (string image ids included)."""
    from hepcrawl_ray.ops.text import hamming64

    probe_set = sorted(set(probe_ids))
    p_rows = ds.select_columns([id_col, sig_col]).map_batches(
        lambda t: t.filter(pa.compute.is_in(
            t.column(id_col), value_set=pa.array(probe_set))),
        batch_format="pyarrow").take_all()
    p_ids = [r[id_col] for r in p_rows]
    p_sigs = np.array([r[sig_col] for r in p_rows], dtype=np.int64)

    empty = pa.table({"probe_id": pa.array([], pa.string()),
                      "neighbor_id": pa.array([], pa.string()),
                      "hamming": pa.array([], pa.int64())})

    def local_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or not p_ids:
            return empty
        ids = np.asarray(batch.column(id_col).to_pylist(), dtype=object)
        sigs = batch.column(sig_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        out_p, out_n, out_d = [], [], []
        for pi, pid in enumerate(p_ids):
            mask = ids != pid
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            d = hamming64(sigs[cand],
                          np.full(len(cand), p_sigs[pi], np.int64))
            order = np.lexsort(
                (ids[cand].astype("U"), d))[:min(k, len(cand))]
            sel = cand[order]
            out_p.extend([str(pid)] * len(sel))
            out_n.extend(str(x) for x in ids[sel])
            out_d.extend(int(x) for x in d[order])
        return pa.table({"probe_id": pa.array(out_p, pa.string()),
                         "neighbor_id": pa.array(out_n, pa.string()),
                         "hamming": pa.array(out_d, pa.int64())})

    partials = ds.select_columns([id_col, sig_col]).map_batches(
        local_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hamming", "neighbor_id"]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["probe_id", "neighbor_id", "hamming", "rank"]]

    return partials.groupby("probe_id").map_groups(
        global_topk, batch_format="pandas")


# ------------------------------------------------- contrastive mining ----

def hard_negatives(ds, query_ids, *, k=10, lo=0.15, hi=0.4,
                   id_col="vec_id", vec_col="embedding"):
    """Hard-negative mining for contrastive training: for each query,
    the top-k most-similar vectors whose cosine falls in [lo, hi) —
    similar enough to be informative negatives, below the near-dup
    threshold so they are not false negatives (the in-batch-negatives
    upgrade every embedding-training pipeline runs at corpus scale).

    Scale shape identical to knn_bruteforce: the query matrix rides
    the task closure, each batch does ONE matmul and emits a per-batch
    band-filtered partial top-k, and a tiny per-query fold keeps the
    global top-k — the corpus never shuffles.  Deterministic: rank by
    (sim DESC, id ASC), exactly reproducible in SQL.
    """
    qset = pa.array(sorted(set(int(q) for q in query_ids)), type=pa.int64())
    q_rows = ds.select_columns([id_col, vec_col]).map_batches(
        lambda t: drop_null_vectors(
            t.filter(pa.compute.is_in(t.column(id_col), value_set=qset)),
            vec_col),
        batch_format="pyarrow").take_all()
    q_ids = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    q_mat = _normalize(np.array([r[vec_col] for r in q_rows],
                                dtype=np.float64)) \
        if q_rows else np.zeros((0, 1), dtype=np.float64)

    def local_topk(batch: pa.Table) -> pa.Table:
        batch = drop_null_vectors(batch, vec_col)
        if batch.num_rows == 0 or len(q_ids) == 0:
            return _TOPK_EMPTY
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(vec_col)))
        sims = q_mat @ mat.T
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = sims[qi]
            mask = (s >= lo) & (s < hi) & (ids != q_ids[qi])
            cand = np.nonzero(mask)[0]
            if not len(cand):
                continue
            top = min(k, len(cand))
            order = np.lexsort((ids[cand], -s[cand]))[:top]
            sel = cand[order]
            out_q.extend([int(q_ids[qi])] * len(sel))
            out_n.extend(int(x) for x in ids[sel])
            out_s.extend(float(x) for x in s[sel])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        local_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g.rename(columns={"neighbor_id": "negative_id"})[
            ["query_id", "negative_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


# ------------------------------------------------ product quantization ----

def train_pq(ds, *, m=8, ks=16, id_col="vec_id", vec_col="embedding",
             seed=42, sample_n=2048, iters=5) -> np.ndarray:
    """Train product-quantization codebooks on a deterministic sample.

    The vector space is split into ``m`` contiguous subspaces; each
    subspace gets its own ``ks``-codeword k-means-lite codebook
    (Jegou et al., "Product Quantization for Nearest Neighbor
    Search").  Returns codebooks of shape (m, ks, dim // m).  Corpus
    vectors are L2-normalized BEFORE encoding so the asymmetric
    inner-product distance approximates cosine.
    """
    sample = ds.select_columns([id_col, vec_col]).take(sample_n)
    mat = _normalize(np.array([r[vec_col] for r in sample
                               if r[vec_col] is not None],
                              dtype=np.float64))
    n, dim = mat.shape
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    dsub = dim // m
    rng = np.random.default_rng(seed)
    books = np.empty((m, ks, dsub), dtype=np.float64)
    for mi in range(m):
        sub = mat[:, mi * dsub:(mi + 1) * dsub]
        k_eff = min(ks, n)
        cent = sub[rng.choice(n, size=k_eff, replace=False)].copy()
        if k_eff < ks:                     # tiny corpus: repeat rows
            cent = np.vstack([cent, cent[np.zeros(ks - k_eff, int)]])
        for _ in range(iters):
            # nearest codeword by L2: argmin ||x-c||^2 =
            # argmax (x.c - ||c||^2/2)
            score = sub @ cent.T - 0.5 * (cent * cent).sum(1)
            assign = np.argmax(score, axis=1)
            for c in range(ks):
                members = sub[assign == c]
                if len(members):
                    cent[c] = members.mean(axis=0)
        books[mi] = cent
    return books


def pq_encode(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """Encode an (n, dim) L2-normalized matrix to (n, m) uint8 codes —
    the compressed representation (m bytes/vector vs dim floats; at
    dim=64 float32, m=8 that is a 32x reduction, the disk/RAM scale
    path for a 100 TB embedding corpus).  Fully vectorized: one
    (n, ks) score matmul per subspace."""
    m, ks, dsub = books.shape
    n = mat.shape[0]
    codes = np.empty((n, m), dtype=np.uint8)
    for mi in range(m):
        sub = mat[:, mi * dsub:(mi + 1) * dsub]
        score = sub @ books[mi].T - 0.5 * (books[mi] * books[mi]).sum(1)
        codes[:, mi] = np.argmax(score, axis=1)
    return codes


def knn_pq(ds, query_ids, *, k=10, m=8, ks=16, refine=4,
           id_col="vec_id", vec_col="embedding", seed=42):
    """Approximate top-k cosine via PQ ADC scan + inline exact re-rank.

    Scale shape: codebooks + per-query lookup tables are tiny (m*ks
    floats each) and ride the task closure; each batch (1) encodes its
    vectors to m-byte codes, (2) scores every query against the CODES
    with one LUT gather per query — the asymmetric-distance scan that
    at 100 TB runs over the 32x-smaller code table instead of raw
    floats, (3) re-ranks only its top ``k*refine`` shortlist with the
    exact dot product (the raw vectors are resident in the same batch,
    so the re-rank is free of any second pass / gather), and emits a
    per-batch partial top-k.  A final tiny per-query fold keeps the
    global top-k — identical combine shape to knn_bruteforce, so the
    wide corpus never shuffles.  Approximate by construction (recall
    pinned in tests vs the brute-force twin); rows-only query.
    """
    # adapt m to the corpus dim: PQ needs dim % m == 0.  A corpus with
    # a smaller / odd dim falls back to the largest divisor <= m
    # (worst case m=1: one full-vector codebook) instead of refusing —
    # the adversarial 4-d fixture hits this with the default m=8.
    probe = ds.select_columns([id_col, vec_col]).take(64)
    dims = [len(r[vec_col]) for r in probe if r[vec_col] is not None]
    if dims and dims[0] > 0:
        while dims[0] % m and m > 1:
            m -= 1
    books = train_pq(ds, m=m, ks=ks, id_col=id_col, vec_col=vec_col,
                     seed=seed)

    qset = pa.array(sorted(set(int(q) for q in query_ids)), type=pa.int64())
    q_rows = ds.select_columns([id_col, vec_col]).map_batches(
        lambda t: drop_null_vectors(
            t.filter(pa.compute.is_in(t.column(id_col), value_set=qset)),
            vec_col),
        batch_format="pyarrow").take_all()
    q_ids = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    q_mat = _normalize(np.array([r[vec_col] for r in q_rows],
                                dtype=np.float64)) \
        if q_rows else np.zeros((0, 1), dtype=np.float64)
    # per-query LUT: lut[qi, mi, c] = <q_sub, codeword> so the ADC
    # similarity of a coded vector is lut[qi, arange(m), codes].sum()
    dsub = books.shape[2]
    luts = np.einsum("qmd,mkd->qmk",
                     q_mat.reshape(len(q_ids), m, dsub), books) \
        if len(q_ids) else np.zeros((0, m, ks))

    def local_topk(batch: pa.Table) -> pa.Table:
        batch = drop_null_vectors(batch, vec_col)
        if batch.num_rows == 0 or len(q_ids) == 0:
            return _TOPK_EMPTY
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        mat = _normalize(list_column_to_matrix(batch.column(vec_col)))
        codes = pq_encode(mat, books)
        mrange = np.arange(m)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            adc = luts[qi][mrange[None, :], codes].sum(axis=1)
            adc[ids == q_ids[qi]] = -np.inf      # exclude self
            short = min(k * refine, len(adc))
            cand = np.argpartition(-adc, short - 1)[:short]
            cand = cand[np.isfinite(adc[cand])]
            if not len(cand):
                continue
            s = mat[cand] @ q_mat[qi]            # exact re-rank
            top = min(k, len(cand))
            order = np.lexsort((ids[cand], -s))[:top]
            sel = cand[order]
            out_q.extend([int(q_ids[qi])] * len(sel))
            out_n.extend(int(x) for x in ids[sel])
            out_s.extend(float(x) for x in s[order])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_n, type=pa.int64()),
            "sim": pa.array(out_s, type=pa.float64()),
        })

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        local_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sim", "neighbor_id"],
                          ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "neighbor_id", "rank"]]

    return partials.groupby("query_id").map_groups(
        global_topk, batch_format="pandas")


# ------------------------------------------------------- Hamming kNN ----

_HAM_EMPTY = pa.table({"probe_id": pa.array([], pa.int64()),
                       "vec_id": pa.array([], pa.int64()),
                       "hamming": pa.array([], pa.int64())})


def sign_pack(mat: np.ndarray) -> np.ndarray:
    """Pack the sign pattern of an (n, dim<=64) float matrix into
    int64 signatures: bit i set iff mat[:, i] > 0.  Pure comparisons —
    no float arithmetic — so SQL reproduces the identical bit pattern
    with ``embedding[i] > 0``."""
    if mat.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    dim = mat.shape[1]
    if dim > 64:
        raise ValueError(f"sign_pack supports dim <= 64, got {dim}")
    bits = (mat > 0).astype(np.uint64)
    shifts = np.arange(dim, dtype=np.uint64)
    return np.bitwise_or.reduce(bits << shifts, axis=1).view(np.int64)


def hamming_knn(ds, query_ids, *, k=10, id_col="vec_id",
                vec_col="embedding"):
    """Exact top-k nearest neighbors in SIGN-HAMMING space: distance =
    number of dimensions where the sign bit (value > 0) differs — the
    1-bit-quantized similarity search used to cheapen large-scale
    retrieval (binary codes, Charikar SRP).  Same scale shape as
    knn_bruteforce: probe signatures ride the task closure (tiny),
    each batch packs its vectors once and emits a per-probe partial
    top-k, and only nblocks x nprobe x k candidate rows reach the
    final per-probe fold.  Ties break by ascending vec_id on both the
    engine and SQL sides."""
    from hepcrawl_ray.ops.text import hamming64

    qset = pa.array(sorted(set(int(q) for q in query_ids)),
                    type=pa.int64())
    q_rows = ds.select_columns([id_col, vec_col]).map_batches(
        lambda t: drop_null_vectors(
            t.filter(pa.compute.is_in(t.column(id_col),
                                      value_set=qset)), vec_col),
        batch_format="pyarrow").take_all()
    q_ids = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    q_sigs = (sign_pack(np.array([r[vec_col] for r in q_rows],
                                 dtype=np.float64))
              if q_rows else np.empty(0, dtype=np.int64))

    def local_topk(batch: pa.Table) -> pa.Table:
        batch = drop_null_vectors(batch, vec_col)
        if batch.num_rows == 0 or len(q_ids) == 0:
            return _HAM_EMPTY
        ids = batch.column(id_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        sigs = sign_pack(list_column_to_matrix(batch.column(vec_col)))
        out_q, out_n, out_d = [], [], []
        for qi in range(len(q_ids)):
            mask = ids != q_ids[qi]
            cand = np.nonzero(mask)[0]
            if len(cand) == 0:
                continue
            d = hamming64(sigs[cand],
                          np.full(len(cand), q_sigs[qi], np.int64))
            order = np.lexsort((ids[cand], d))[:min(k, len(cand))]
            sel = cand[order]
            out_q.extend([int(q_ids[qi])] * len(sel))
            out_n.extend(int(x) for x in ids[sel])
            out_d.extend(int(x) for x in d[order])
        return pa.table({"probe_id": pa.array(out_q, pa.int64()),
                         "vec_id": pa.array(out_n, pa.int64()),
                         "hamming": pa.array(out_d, pa.int64())})

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        local_topk, batch_format="pyarrow")

    def global_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hamming", "vec_id"]).head(k)
        return g[["probe_id", "vec_id", "hamming"]].astype("int64")

    return partials.groupby("probe_id").map_groups(
        global_topk, batch_format="pandas")
