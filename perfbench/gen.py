"""Seeded, single-process input generators for the three workloads.

Each generator is a pure function of ``(seed, size)``: the same seed
gives byte-identical inputs.  The program under test receives only the
generated tables; every expectation a check needs (distinct allowed
URL counts, golden caption parses) is computed here independently of
the program (numpy over raw strings, never ``urlkit``).

URLs are emitted in canonical form by construction (lowercase host,
no port, query or fragment), so "distinct raw string" equals
"distinct canonical URL" and the independent counts need no
canonicalizer.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

ROBOTS_PREFIX = "/private/"


def _politeness(hosts, concurrency, disallow=()):
    from hepcrawl_ray.synth import POLITENESS_SCHEMA

    return pa.table({
        "host": list(hosts),
        "max_concurrency": [concurrency] * len(hosts),
        "min_delay_ms": [0] * len(hosts),
        "robots_disallow": [list(disallow) for _ in hosts],
    }, schema=POLITENESS_SCHEMA)


def _seeds(urls, hosts, sets, mtime=1000):
    from hepcrawl_ray.synth import SEEDS_SCHEMA

    n = len(urls)
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "host": pa.array(hosts, pa.string()),
        "set_id": pa.array(sets, pa.string()),
        "priority": np.zeros(n),
        "seq": np.arange(n, dtype=np.int64),
        "mtime": np.full(n, mtime, dtype=np.int64),
        "dup_of": pa.nulls(n, pa.string()),
    }, schema=SEEDS_SCHEMA)


def _join(*parts):
    """Element-wise string concatenation of numpy string arrays."""
    out = np.asarray(parts[0], dtype=object)
    for p in parts[1:]:
        out = out + np.asarray(p, dtype=object)
    return out


# ------------------------------------------------------- crawl_verify --

def crawl_verify(seed, workdir, n_images=2048, n_urls=40960,
                 rowgroup_rows=64, n_hosts=32):
    """Image+caption corpus written as parquet, plus a seed frontier
    of ``n_urls`` URLs over it: ~10% exact duplicates, ``n_hosts``
    hosts with one hot host (16x weight, salted by the run), every URL
    resolvable in the corpus.  The corpus has ``n_images /
    rowgroup_rows`` row groups, several times the keyed fetch stage's
    8-row-group cache at the default size."""
    import pyarrow.parquet as pq

    from hepcrawl_ray import synth

    images, golden = synth.generate_corpus(n_images, seed=seed,
                                           size_range=(48, 96))
    os.makedirs(workdir, exist_ok=True)
    corpus_path = os.path.join(workdir, f"corpus_{seed}_{n_images}.parquet")
    pq.write_table(images, corpus_path, row_group_size=rowgroup_rows)

    rng = np.random.default_rng([seed, 1])
    ids = np.asarray(images.column("image_id").to_pylist(), dtype=object)
    hosts_pool = np.array([f"host{k:02d}.bench.org" for k in range(n_hosts)],
                          dtype=object)
    w = np.ones(n_hosts)
    w[0] = 16.0
    hosts = hosts_pool[rng.choice(n_hosts, size=n_urls, p=w / w.sum())]
    sets = np.char.add("set", rng.integers(0, 8, n_urls).astype(str)) \
        .astype(object)
    pick = rng.integers(0, len(ids), n_urls)
    urls = _join("http://", hosts, "/", sets, "/r",
                 np.arange(n_urls).astype(str), "/", ids[pick])
    # exact duplicates: a tenth of the later half copies an earlier row
    ndup = n_urls // 10
    dst = rng.choice(np.arange(n_urls // 2, n_urls), ndup, replace=False)
    src = rng.integers(0, n_urls // 2, ndup)
    urls[dst], hosts[dst], sets[dst] = urls[src], hosts[src], sets[src]
    return {
        "corpus_path": corpus_path,
        "images": images,
        "golden": golden,
        "seeds": _seeds(urls.tolist(), hosts.tolist(), sets.tolist()),
        "politeness": _politeness(hosts_pool, 64, [ROBOTS_PREFIX]),
        "salted_hosts": {hosts_pool[0]: 2},
        "expect_admitted": int(len(np.unique(urls.astype(str)))),
    }


# ------------------------------------------------- iterative_discover --

class TreeLinks:
    """The link-discovery tree: node ``i`` links to ``2i+1``, ``2i+2``
    and ``2i+3`` (adjacent nodes share one child, so about a third of
    discovered links are cross-batch duplicates).  Node ``j`` lives on
    a seeded host; child ``seq`` is ``SEQ0 + j``, a function of the
    node alone, as the simulator contract requires.

    ``rows`` is the per-row spec (``sim.simulate_iterative``'s
    ``discover_fn``); ``batch`` is its vectorized twin for
    ``run_iterative_crawl(discover_batch_fn=...)``.  Plain class so
    Ray pickles it by value into the discover workers."""

    SEQ0 = 1_000_000

    def __init__(self, n, host_names, host_of_node):
        self.n = int(n)
        self.host_names = np.asarray(host_names, dtype=object)
        self.host_of_node = np.asarray(host_of_node, dtype=np.int64)

    def url(self, j):
        return f"http://{self.host_names[self.host_of_node[j]]}/it/img{j}"

    def urls(self, j):
        """Vectorized ``url`` over an int array of node ids."""
        return _join("http://", self.host_names[self.host_of_node[j]],
                     "/it/img", j.astype(str))

    def rows(self, url, seq):
        i = int(url.rsplit("img", 1)[1])
        return [{"url": self.url(j), "priority": 0.0,
                 "seq": self.SEQ0 + j, "mtime": 1, "set_id": "it"}
                for j in (2 * i + 1, 2 * i + 2, 2 * i + 3) if j < self.n]

    def batch(self, urls, seqs):
        import pyarrow.compute as pc

        ids = pc.cast(pc.replace_substring_regex(
            urls, pattern=r"^.*img", replacement=""), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        child = (2 * ids[:, None] + np.array([1, 2, 3])).ravel()
        keep = child < self.n
        counts = keep.reshape(-1, 3).sum(axis=1).astype(np.int64)
        j = child[keep]
        m = len(j)
        raw = pa.table({
            "url": pa.array(self.urls(j).tolist(), pa.string()),
            "priority": pa.array(np.zeros(m), pa.float64()),
            "seq": pa.array(self.SEQ0 + j, pa.int64()),
            "mtime": pa.array(np.ones(m, np.int64)),
            "set_id": pa.array(["it"] * m, pa.string()),
        })
        return raw, counts


def iterative_discover(seed, n_urls=60000, n_hosts=32, n_seeds=64):
    """The ``n_urls``-node discovery tree from ``n_seeds`` roots over
    ``n_hosts`` hosts (seeded host per node).  Every node is reachable,
    so exactly ``n_urls`` distinct URLs are admitted."""
    rng = np.random.default_rng([seed, 2])
    host_names = [f"host{h:02d}.iter.org" for h in range(n_hosts)]
    tree = TreeLinks(n_urls, host_names, rng.integers(0, n_hosts, n_urls))
    k = min(n_seeds, n_urls)
    urls = [tree.url(j) for j in range(k)]
    hosts = [u.split("/")[2] for u in urls]
    return {
        "tree": tree,
        "seeds": _seeds(urls, hosts, ["it"] * k, mtime=1),
        "politeness": _politeness(host_names, 16),
        "expect_urls": pa.array(tree.urls(np.arange(n_urls)).tolist(),
                                pa.string()),
        "expect_admitted": int(n_urls),
    }


# ----------------------------------------------------- frontier_dense --

def frontier_dense(seed, n_offered=400_000, n_hosts=256, zipf_s=1.1):
    """``n_offered`` offers: every distinct URL once plus as many
    duplicates again (~50% duplicates), ~10% of distinct URLs under
    the robots-disallowed prefix, hosts Zipf(``zipf_s``)-skewed over
    ``n_hosts`` with the hottest host salted by the run."""
    rng = np.random.default_rng([seed, 3])
    n_distinct = n_offered // 2
    hosts_pool = np.array([f"h{k:03d}.dense.org" for k in range(n_hosts)],
                          dtype=object)
    p = 1.0 / np.arange(1, n_hosts + 1) ** zipf_s
    host_idx = rng.choice(n_hosts, size=n_distinct, p=p / p.sum())
    blocked = rng.random(n_distinct) < 0.10
    sets = np.char.add("s", rng.integers(0, 16, n_distinct).astype(str)) \
        .astype(object)
    prefix = np.where(blocked, ROBOTS_PREFIX, "/").astype(object)
    # the per-URL index makes every distinct row a distinct URL
    distinct = _join("http://", hosts_pool[host_idx], prefix, sets, "/d",
                     np.arange(n_distinct).astype(str))
    dups = rng.integers(0, n_distinct, n_offered - n_distinct)
    rows = np.concatenate([np.arange(n_distinct), dups])
    rng.shuffle(rows)
    urls = distinct[rows]
    hosts = hosts_pool[host_idx][rows]
    sets_rows = sets[rows]
    return {
        "seeds": _seeds(urls.tolist(), hosts.tolist(), sets_rows.tolist()),
        "politeness": _politeness(hosts_pool, 64, [ROBOTS_PREFIX]),
        "salted_hosts": {hosts_pool[0]: 2},
        "expect_urls": pa.array(distinct[~blocked].tolist(), pa.string()),
        "expect_admitted": int((~blocked).sum()),
        "expect_robots": int(blocked[rows].sum()),
    }
